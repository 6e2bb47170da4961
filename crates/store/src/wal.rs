//! Write-ahead logging: incremental durability between snapshots.
//!
//! Snapshots ([`crate::persist`]) capture a whole database; for QATK's
//! online phase — recommendations and assignments trickling in while the
//! quality workers use QUEST — rewriting the snapshot per write would be
//! wasteful. A [`WalWriter`] appends one record per DML operation;
//! [`replay`] applies a log on top of the snapshot it started from. Records
//! are length-prefixed and individually checksummed, so a torn tail (crash
//! mid-append) is detected and cleanly truncated, while corruption anywhere
//! before the tail is reported as an error.
//!
//! Format per record:
//!
//! ```text
//! record := len:u32 payload checksum:u64      (fnv1a over payload)
//! payload := op:u8 table_name row|pk          (1 insert, 2 update, 3 delete)
//! ```
//!
//! ## Durability contract (DESIGN.md §9)
//!
//! [`LoggedDatabase`] enforces *write-ahead ordering*: a mutation is staged
//! against the in-memory database (which validates constraints), the record
//! is appended to the log, and only then is the staging committed and the
//! operation acknowledged to the caller. If the append fails, the staging is
//! undone — the database never holds an acknowledged change that the log
//! does not. How durable an *appended* record is depends on the
//! [`SyncPolicy`]:
//!
//! * [`SyncPolicy::Always`] — `fdatasync` after every append (or batch);
//!   an acknowledged write survives power loss.
//! * [`SyncPolicy::EveryN`] — group commit: sync once per `n` appended
//!   records; at most `n - 1` acknowledged writes can be lost to power
//!   failure (none to a process crash).
//! * [`SyncPolicy::OsOnly`] — flush to the OS page cache only; survives a
//!   process crash but not power loss. This is the default and matches the
//!   engine's historical behaviour.
//!
//! [`LoggedDatabase::checkpoint`] bounds log growth: it seals the active log
//! into an epoch-suffixed segment (`wal.log` → `wal.log.000000`), saves an
//! atomic snapshot carrying a `wal_replay_from` watermark, and deletes the
//! segments the snapshot covers. [`LoggedDatabase::open`] recovers by
//! loading the snapshot, replaying every surviving segment at or past the
//! watermark in epoch order, truncating a torn tail off the active log, and
//! replaying the rest; it reports what happened in a [`RecoveryReport`].

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use bytes::{Buf, BufMut};

use crate::codec::{fnv1a, get_value, put_value};
use crate::db::Database;
use crate::error::{Result, StoreError};
use crate::failpoint;
use crate::persist::{self, SnapshotMeta};
use crate::row::Row;
use crate::value::Value;

const OP_INSERT: u8 = 1;
const OP_UPDATE: u8 = 2;
const OP_DELETE: u8 = 3;

/// Largest plausible record payload (16 MiB − 1). Length prefixes above
/// this are treated as corruption, not as a torn tail: an append-only log
/// can tear a record short, but it cannot legitimately claim more bytes
/// than any writer would ever frame.
pub const MAX_WAL_PAYLOAD: usize = (1 << 24) - 1;

/// When the WAL issues `fdatasync` on its file. See the module docs for the
/// durability each policy buys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// Sync after every append (or batch): acknowledged writes survive
    /// power loss.
    Always,
    /// Group commit: sync once every `n` appended records.
    EveryN(usize),
    /// Flush to the OS page cache only (survives process crash, not power
    /// loss). The default.
    #[default]
    OsOnly,
}

/// One logged operation.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    Insert { table: String, row: Row },
    Update { table: String, pk: Value, row: Row },
    Delete { table: String, pk: Value },
}

fn put_str(out: &mut Vec<u8>, s: &str) -> Result<()> {
    if s.len() > MAX_WAL_PAYLOAD {
        return Err(StoreError::Corrupt(format!(
            "wal: string of {} bytes exceeds the {MAX_WAL_PAYLOAD}-byte record limit",
            s.len()
        )));
    }
    out.put_u32_le(s.len() as u32);
    out.put_slice(s.as_bytes());
    Ok(())
}

fn get_str(buf: &mut &[u8]) -> Result<String> {
    if buf.remaining() < 4 {
        return Err(StoreError::Corrupt("wal: truncated string".into()));
    }
    let len = buf.get_u32_le() as usize;
    if buf.remaining() < len {
        return Err(StoreError::Corrupt("wal: truncated string body".into()));
    }
    let s = String::from_utf8(buf[..len].to_vec())
        .map_err(|_| StoreError::Corrupt("wal: invalid utf8".into()))?;
    buf.advance(len);
    Ok(s)
}

fn put_row(out: &mut Vec<u8>, row: &Row) {
    out.put_u16_le(row.arity() as u16);
    for v in row.values() {
        put_value(out, v);
    }
}

fn get_row(buf: &mut &[u8]) -> Result<Row> {
    if buf.remaining() < 2 {
        return Err(StoreError::Corrupt("wal: truncated row".into()));
    }
    let arity = buf.get_u16_le() as usize;
    let mut values = Vec::with_capacity(arity);
    for _ in 0..arity {
        values.push(get_value(buf)?);
    }
    Ok(Row::new(values))
}

impl WalRecord {
    fn encode(&self) -> Result<Vec<u8>> {
        let mut payload = Vec::with_capacity(64);
        match self {
            WalRecord::Insert { table, row } => {
                payload.put_u8(OP_INSERT);
                put_str(&mut payload, table)?;
                put_row(&mut payload, row);
            }
            WalRecord::Update { table, pk, row } => {
                payload.put_u8(OP_UPDATE);
                put_str(&mut payload, table)?;
                put_value(&mut payload, pk);
                put_row(&mut payload, row);
            }
            WalRecord::Delete { table, pk } => {
                payload.put_u8(OP_DELETE);
                put_str(&mut payload, table)?;
                put_value(&mut payload, pk);
            }
        }
        if payload.len() > MAX_WAL_PAYLOAD {
            return Err(StoreError::Corrupt(format!(
                "wal: record payload of {} bytes exceeds the {MAX_WAL_PAYLOAD}-byte limit",
                payload.len()
            )));
        }
        let mut out = Vec::with_capacity(payload.len() + 12);
        out.put_u32_le(payload.len() as u32);
        out.put_slice(&payload);
        out.put_u64_le(fnv1a(&payload));
        Ok(out)
    }

    fn decode(payload: &[u8]) -> Result<WalRecord> {
        let mut buf = payload;
        if !buf.has_remaining() {
            return Err(StoreError::Corrupt("wal: empty payload".into()));
        }
        let op = buf.get_u8();
        let table = get_str(&mut buf)?;
        let record = match op {
            OP_INSERT => WalRecord::Insert {
                table,
                row: get_row(&mut buf)?,
            },
            OP_UPDATE => {
                let pk = get_value(&mut buf)?;
                let row = get_row(&mut buf)?;
                WalRecord::Update { table, pk, row }
            }
            OP_DELETE => WalRecord::Delete {
                table,
                pk: get_value(&mut buf)?,
            },
            other => return Err(StoreError::Corrupt(format!("wal: unknown op {other}"))),
        };
        if buf.has_remaining() {
            return Err(StoreError::Corrupt("wal: trailing payload bytes".into()));
        }
        Ok(record)
    }
}

/// Appends records to a log file under a [`SyncPolicy`].
///
/// A writer that hits an I/O error (or an armed failpoint) becomes
/// *poisoned*: further appends fail fast and the final-flush-on-drop is
/// skipped, so a simulated crash does not quietly push half-written state
/// to the OS on the way out.
#[derive(Debug)]
pub struct WalWriter {
    out: BufWriter<File>,
    records: usize,
    policy: SyncPolicy,
    /// Appends since the last sync (drives [`SyncPolicy::EveryN`]).
    unsynced: usize,
    poisoned: bool,
}

impl WalWriter {
    /// Open (or create) a log for appending with the default
    /// [`SyncPolicy::OsOnly`].
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        Self::open_with(path, SyncPolicy::default())
    }

    /// Open (or create) a log for appending under an explicit policy.
    pub fn open_with(path: impl AsRef<Path>, policy: SyncPolicy) -> Result<Self> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(WalWriter {
            out: BufWriter::new(file),
            records: 0,
            policy,
            unsynced: 0,
            poisoned: false,
        })
    }

    /// The policy this writer syncs under.
    pub fn policy(&self) -> SyncPolicy {
        self.policy
    }

    /// Append one record; flushed (and synced, per policy) before returning.
    pub fn append(&mut self, record: &WalRecord) -> Result<()> {
        self.append_batch(std::slice::from_ref(record))
    }

    /// Group commit: append a batch of records with a single flush and (per
    /// policy) a single sync for the whole batch.
    pub fn append_batch(&mut self, records: &[WalRecord]) -> Result<()> {
        self.ensure_usable()?;
        if records.is_empty() {
            return Ok(());
        }
        let m = crate::metrics::metrics();
        let _span = qatk_obs::Timer::start(m.wal_flush_latency_ns);
        let _trace = qatk_trace::child_span("store.wal_append");
        qatk_trace::annotate("records", records.len() as u64);
        let result = self.write_batch(records);
        if result.is_err() {
            self.poisoned = true;
        }
        result
    }

    fn write_batch(&mut self, records: &[WalRecord]) -> Result<()> {
        let m = crate::metrics::metrics();
        failpoint::check("wal.append.before_write")?;
        let mut bytes = 0u64;
        for record in records {
            let encoded = record.encode()?;
            self.out.write_all(&encoded)?;
            bytes += encoded.len() as u64;
        }
        self.out.flush()?;
        match self.policy {
            SyncPolicy::OsOnly => {}
            SyncPolicy::Always => self.sync_file()?,
            SyncPolicy::EveryN(n) => {
                self.unsynced += records.len();
                if self.unsynced >= n.max(1) {
                    self.sync_file()?;
                }
            }
        }
        self.records += records.len();
        m.wal_appends_total.add(records.len() as u64);
        m.wal_bytes_total.add(bytes);
        Ok(())
    }

    /// Force everything appended so far onto stable storage, regardless of
    /// policy.
    pub fn sync(&mut self) -> Result<()> {
        self.ensure_usable()?;
        let result = self
            .out
            .flush()
            .map_err(Into::into)
            .and_then(|()| self.sync_file());
        if result.is_err() {
            self.poisoned = true;
        }
        result
    }

    fn sync_file(&mut self) -> Result<()> {
        failpoint::check("wal.append.before_sync")?;
        self.out.get_ref().sync_data()?;
        self.unsynced = 0;
        crate::metrics::metrics().wal_syncs_total.inc();
        failpoint::check("wal.append.after_sync")?;
        Ok(())
    }

    fn ensure_usable(&self) -> Result<()> {
        if self.poisoned {
            return Err(StoreError::Io(
                "wal writer is poisoned after a failed append".into(),
            ));
        }
        Ok(())
    }

    /// Records appended through this writer.
    pub fn appended(&self) -> usize {
        self.records
    }
}

impl Drop for WalWriter {
    fn drop(&mut self) {
        // Final-flush guarantee for buffered bytes — unless the writer is
        // poisoned, in which case dropping is the simulated kill and must
        // not push more state to the OS.
        if !self.poisoned {
            let _ = self.out.flush();
        }
    }
}

/// What a raw scan of one log file found.
pub struct LogScan {
    pub records: Vec<WalRecord>,
    /// Byte length of the intact prefix (what recovery truncates to).
    pub valid_len: u64,
    /// True if the file ended in a torn (incomplete) record.
    pub torn: bool,
}

/// Scan a log file: every intact record, the byte length of the intact
/// prefix, and whether the file ends in a torn record. Mid-log corruption is
/// an error, as in [`read_log`].
pub fn scan_log(path: &Path) -> Result<LogScan> {
    let mut data = Vec::new();
    File::open(path)?.read_to_end(&mut data)?;
    scan_bytes(&data)
}

/// Scan an in-memory byte run with the same rules as [`scan_log`]. The
/// replication follower uses this to verify a received chunk parses as whole,
/// checksummed records before appending it to its local segment copy.
pub fn scan_bytes(data: &[u8]) -> Result<LogScan> {
    let mut buf = data;
    let mut records = Vec::new();
    let mut valid_len = 0u64;
    let mut torn = false;
    while buf.has_remaining() {
        if buf.remaining() < 4 {
            torn = true; // torn length prefix at the tail
            break;
        }
        let mut peek = buf;
        let len = peek.get_u32_le() as usize;
        if len > MAX_WAL_PAYLOAD {
            // No writer ever frames a record this large, so this length
            // prefix is damaged — treating it as a torn tail would silently
            // drop every record after it.
            return Err(StoreError::Corrupt(format!(
                "wal: implausible record length {len} at byte {valid_len}"
            )));
        }
        if peek.remaining() < len + 8 {
            torn = true; // plausible record, file ends early: torn tail
            break;
        }
        let payload = &peek[..len];
        let mut check = &peek[len..len + 8];
        let stored = check.get_u64_le();
        if stored != fnv1a(payload) {
            // checksum mismatch: torn tail if this is the last record,
            // otherwise real corruption
            let consumed = 4 + len + 8;
            if buf.remaining() == consumed {
                torn = true;
                break;
            }
            return Err(StoreError::Corrupt("wal: mid-log checksum mismatch".into()));
        }
        records.push(WalRecord::decode(payload)?);
        buf.advance(4 + len + 8);
        valid_len += (4 + len + 8) as u64;
    }
    Ok(LogScan {
        records,
        valid_len,
        torn,
    })
}

/// Read every intact record of a log. A torn tail ends the read (records
/// before it are returned); corruption *before* the tail — a mid-log
/// checksum mismatch or an implausible length prefix — is an error, because
/// silently skipping mid-log damage would reorder history.
pub fn read_log(path: impl AsRef<Path>) -> Result<Vec<WalRecord>> {
    scan_log(path.as_ref()).map(|scan| scan.records)
}

/// Apply a log to a database (typically the snapshot the log was started
/// against). Returns the number of applied records.
pub fn replay(db: &mut Database, records: &[WalRecord]) -> Result<usize> {
    for r in records {
        match r {
            WalRecord::Insert { table, row } => {
                db.insert(table, row.clone())?;
            }
            WalRecord::Update { table, pk, row } => {
                db.update(table, pk, row.clone())?;
            }
            WalRecord::Delete { table, pk } => {
                db.delete(table, pk)?;
            }
        }
    }
    Ok(records.len())
}

/// What [`LoggedDatabase::open`] did to reconstruct the database.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// A snapshot file existed and was loaded (false: started empty).
    pub snapshot_loaded: bool,
    /// The snapshot's watermark: first WAL epoch replayed on top of it.
    pub replay_from: u64,
    /// Sealed segments replayed (the active log is not counted).
    pub segments_replayed: usize,
    /// Total WAL records replayed, active log included.
    pub records_replayed: usize,
    /// The active log ended in a torn record, which was truncated away.
    pub torn_tail: bool,
}

/// Sealed-segment path: the active log's path with `.<epoch:06>` appended.
pub fn segment_path(wal_path: &Path, epoch: u64) -> PathBuf {
    let mut os = wal_path.as_os_str().to_owned();
    os.push(format!(".{epoch:06}"));
    PathBuf::from(os)
}

/// Sealed segments next to `wal_path`, sorted by epoch.
pub fn list_segments(wal_path: &Path) -> Result<Vec<(u64, PathBuf)>> {
    let parent = match wal_path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let Some(base) = wal_path.file_name() else {
        return Err(StoreError::Io(format!(
            "wal path {} has no file name",
            wal_path.display()
        )));
    };
    let prefix = format!("{}.", base.to_string_lossy());
    let mut out = Vec::new();
    if !parent.exists() {
        return Ok(out);
    }
    for entry in std::fs::read_dir(&parent)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if let Some(suffix) = name.strip_prefix(&prefix) {
            if !suffix.is_empty() && suffix.bytes().all(|b| b.is_ascii_digit()) {
                if let Ok(epoch) = suffix.parse::<u64>() {
                    out.push((epoch, entry.path()));
                }
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Position in a replicated WAL stream, as reported by a follower and
/// resumed by a leader.
///
/// The three fields mirror the on-disk layout: `watermark` is the snapshot
/// watermark the follower's database is based on (the first WAL epoch *not*
/// folded into its snapshot), `segment` is the epoch-numbered segment the
/// follower reads next, and `offset` is the byte offset of the next record
/// within that segment. Offsets always sit on record boundaries: followers
/// only ever append whole, checksum-verified records.
///
/// Cursors order by `(segment, offset)`; the watermark is bookkeeping for
/// snapshot installs, not part of the stream position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplCursor {
    /// First WAL epoch that is *not* folded into the reader's snapshot.
    pub watermark: u64,
    /// Epoch of the segment the reader consumes next.
    pub segment: u64,
    /// Byte offset of the next record within that segment.
    pub offset: u64,
}

impl ReplCursor {
    /// Stream position (ignores the watermark): has this cursor consumed at
    /// least as much of the log as `other`?
    pub fn at_or_past(&self, other: &ReplCursor) -> bool {
        (self.segment, self.offset) >= (other.segment, other.offset)
    }
}

impl std::fmt::Display for ReplCursor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "w{}/s{:06}+{}",
            self.watermark, self.segment, self.offset
        )
    }
}

/// A run of whole records read from one log file, as shipped to a follower.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentChunk {
    /// Raw record bytes (length prefixes and checksums included), starting
    /// at the requested offset.
    pub bytes: Vec<u8>,
    /// Offset just past the last whole record returned — the next read (and
    /// the follower's acknowledgement) resumes here.
    pub end_offset: u64,
}

/// Read up to `max_len` bytes of *whole* records from a log file, starting
/// at byte `offset` (which must sit on a record boundary). A torn record at
/// the end of the readable window is simply not returned — the next call
/// picks it up once the writer completes it. Mid-log corruption is an error
/// unless it is the final record in the window (indistinguishable, at this
/// layer, from a record still being written).
pub fn read_segment_chunk(path: &Path, offset: u64, max_len: usize) -> Result<SegmentChunk> {
    use std::io::{Seek, SeekFrom};
    let mut f = File::open(path)?;
    f.seek(SeekFrom::Start(offset))?;
    let mut data = Vec::with_capacity(max_len.min(1 << 20));
    f.take(max_len as u64).read_to_end(&mut data)?;
    let scan = scan_bytes(&data)?;
    data.truncate(scan.valid_len as usize);
    Ok(SegmentChunk {
        end_offset: offset + scan.valid_len,
        bytes: data,
    })
}

/// What [`LoggedDatabase::checkpoint`] does with sealed segments the
/// snapshot already covers.
///
/// Recovery never replays covered segments either way (the snapshot's
/// watermark excludes them); retention only decides whether the files stay
/// on disk for a replication leader to stream to followers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SegmentRetention {
    /// Delete every covered segment immediately (the historical behaviour;
    /// minimal disk footprint, but a follower can only bootstrap from a
    /// full snapshot).
    #[default]
    DeleteCovered,
    /// Keep the newest `n` sealed segments even though the snapshot covers
    /// them, so a follower that is at most `n` checkpoints behind can
    /// resume from the log instead of re-shipping the whole snapshot.
    /// Older segments are still deleted.
    Keep(u64),
}

impl SegmentRetention {
    /// True if a segment sealed under `epoch` may be deleted once the
    /// snapshot watermark has advanced to `watermark` (first epoch NOT
    /// covered).
    fn expendable(&self, epoch: u64, watermark: u64) -> bool {
        match *self {
            SegmentRetention::DeleteCovered => epoch < watermark,
            SegmentRetention::Keep(n) => epoch < watermark.saturating_sub(n),
        }
    }
}

/// A database handle that mirrors every DML operation into a WAL, with
/// write-ahead ordering: *nothing is acknowledged before it is logged*.
#[derive(Debug)]
pub struct LoggedDatabase {
    db: Database,
    wal: WalWriter,
    wal_path: PathBuf,
    /// Where [`Self::checkpoint`] saves snapshots (set by [`Self::open`]).
    snapshot_path: Option<PathBuf>,
    /// Epoch the active log will be sealed under at the next checkpoint.
    epoch: u64,
    policy: SyncPolicy,
    retention: SegmentRetention,
}

impl LoggedDatabase {
    /// Wrap a database (usually freshly loaded from a snapshot) with a log,
    /// under the default [`SyncPolicy::OsOnly`]. The handle cannot
    /// checkpoint — use [`Self::open`] for the full lifecycle.
    pub fn new(db: Database, wal_path: impl AsRef<Path>) -> Result<Self> {
        let wal_path = wal_path.as_ref().to_path_buf();
        let policy = SyncPolicy::default();
        Ok(LoggedDatabase {
            db,
            wal: WalWriter::open_with(&wal_path, policy)?,
            wal_path,
            snapshot_path: None,
            epoch: 0,
            policy,
            retention: SegmentRetention::default(),
        })
    }

    /// Open (or create) a crash-safe database: load the snapshot at
    /// `snapshot_path` if it exists, replay every surviving WAL segment at
    /// or past its watermark plus the active log (truncating a torn tail),
    /// and return the handle together with a [`RecoveryReport`].
    pub fn open(
        snapshot_path: impl AsRef<Path>,
        wal_path: impl AsRef<Path>,
        policy: SyncPolicy,
    ) -> Result<(Self, RecoveryReport)> {
        Self::open_with_retention(snapshot_path, wal_path, policy, SegmentRetention::default())
    }

    /// [`Self::open`] with an explicit [`SegmentRetention`] policy. A
    /// replication leader opens with [`SegmentRetention::Keep`] so followers
    /// can resume from recent sealed segments.
    pub fn open_with_retention(
        snapshot_path: impl AsRef<Path>,
        wal_path: impl AsRef<Path>,
        policy: SyncPolicy,
        retention: SegmentRetention,
    ) -> Result<(Self, RecoveryReport)> {
        let snapshot_path = snapshot_path.as_ref().to_path_buf();
        let wal_path = wal_path.as_ref().to_path_buf();
        let mut report = RecoveryReport::default();

        let (mut db, meta) = if snapshot_path.exists() {
            let loaded = Database::load_with(&snapshot_path)?;
            report.snapshot_loaded = true;
            loaded
        } else {
            (Database::new(), SnapshotMeta::default())
        };
        report.replay_from = meta.wal_replay_from;

        let mut max_epoch = None;
        for (epoch, path) in list_segments(&wal_path)? {
            if epoch < meta.wal_replay_from {
                // Covered by the snapshot: never replayed. Whether the file
                // itself survives is the retention policy's call — a crash
                // may have interrupted the previous checkpoint's truncation
                // step, which is finished here.
                if retention.expendable(epoch, meta.wal_replay_from) {
                    std::fs::remove_file(&path)?;
                }
                continue;
            }
            let scan = scan_log(&path)?;
            if scan.torn {
                // Sealed segments were fully synced before rotation; a torn
                // tail here is damage, not an interrupted append.
                return Err(StoreError::Corrupt(format!(
                    "wal: sealed segment {} has a torn tail",
                    path.display()
                )));
            }
            replay(&mut db, &scan.records)?;
            report.segments_replayed += 1;
            report.records_replayed += scan.records.len();
            max_epoch = Some(max_epoch.unwrap_or(0).max(epoch));
        }

        if wal_path.exists() {
            let scan = scan_log(&wal_path)?;
            if scan.torn {
                OpenOptions::new()
                    .write(true)
                    .open(&wal_path)?
                    .set_len(scan.valid_len)?;
                crate::metrics::metrics().recovery_torn_tail_total.inc();
                report.torn_tail = true;
            }
            replay(&mut db, &scan.records)?;
            report.records_replayed += scan.records.len();
        }
        crate::metrics::metrics()
            .recovery_replayed_total
            .add(report.records_replayed as u64);

        let epoch = match max_epoch {
            Some(m) => (m + 1).max(meta.wal_replay_from),
            None => meta.wal_replay_from,
        };
        let wal = WalWriter::open_with(&wal_path, policy)?;
        Ok((
            LoggedDatabase {
                db,
                wal,
                wal_path,
                snapshot_path: Some(snapshot_path),
                epoch,
                policy,
                retention,
            },
            report,
        ))
    }

    /// Recover a database from a snapshot plus a single log, without
    /// constructing a handle (the snapshot must exist).
    pub fn recover(
        snapshot_path: impl AsRef<Path>,
        wal_path: impl AsRef<Path>,
    ) -> Result<Database> {
        let mut db = Database::load(snapshot_path)?;
        let records = read_log(wal_path)?;
        let n = replay(&mut db, &records)?;
        crate::metrics::metrics()
            .recovery_replayed_total
            .add(n as u64);
        Ok(db)
    }

    /// Read access to the wrapped database.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Epoch the active log will be sealed under at the next checkpoint.
    /// Sealed segments on disk always carry strictly smaller epochs.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Path of the active log (sealed segments sit next to it, suffixed
    /// `.<epoch:06>`).
    pub fn wal_path(&self) -> &Path {
        &self.wal_path
    }

    /// Where checkpoints save snapshots (`None` for handles made with
    /// [`Self::new`], which cannot checkpoint).
    pub fn snapshot_path(&self) -> Option<&Path> {
        self.snapshot_path.as_deref()
    }

    /// The sync policy the log is running under.
    pub fn policy(&self) -> SyncPolicy {
        self.policy
    }

    /// Create a table. DDL is *not* WAL-logged: recovery replays DML
    /// against the tables the snapshot holds, so create tables before
    /// writing and [`Self::checkpoint`] to make them durable.
    pub fn create_table(
        &mut self,
        name: impl Into<String>,
        schema: crate::schema::Schema,
    ) -> Result<()> {
        self.db.create_table(name, schema)
    }

    /// True if a table with this name exists.
    pub fn has_table(&self, name: &str) -> bool {
        self.db.has_table(name)
    }

    /// Stage `apply` against the database, make `record` durable, then
    /// commit the staging. On any failure the staging is undone: the
    /// in-memory state never gets ahead of the log.
    fn staged<R>(
        &mut self,
        record: WalRecord,
        apply: impl FnOnce(&mut Database) -> Result<R>,
    ) -> Result<R> {
        if self.db.in_transaction() {
            return Err(StoreError::TransactionActive);
        }
        self.db.txn = Some(Vec::new());
        match apply(&mut self.db) {
            Ok(value) => match self.wal.append(&record) {
                Ok(()) => {
                    self.db.txn = None;
                    Ok(value)
                }
                Err(e) => {
                    self.unstage()?;
                    Err(e)
                }
            },
            Err(e) => {
                self.unstage()?;
                Err(e)
            }
        }
    }

    fn unstage(&mut self) -> Result<()> {
        if let Some(log) = self.db.txn.take() {
            self.db.undo_all(log)?;
        }
        Ok(())
    }

    pub fn insert(&mut self, table: &str, row: Row) -> Result<Value> {
        let record = WalRecord::Insert {
            table: table.to_owned(),
            row: row.clone(),
        };
        self.staged(record, |db| db.insert(table, row))
    }

    /// Insert a batch of rows with one group-committed WAL append. All rows
    /// are staged and logged together: either every row is acknowledged or
    /// none is applied.
    pub fn insert_many(&mut self, table: &str, rows: Vec<Row>) -> Result<Vec<Value>> {
        self.staged_batch(rows, |db, row| {
            let record = WalRecord::Insert {
                table: table.to_owned(),
                row: row.clone(),
            };
            Ok((db.insert(table, row)?, record))
        })
    }

    /// Delete a batch of rows by primary key with one group-committed WAL
    /// append — the mirror of [`Self::insert_many`]: either every delete is
    /// acknowledged or none is applied. Returns the deleted rows.
    pub fn delete_many(&mut self, table: &str, pks: Vec<Value>) -> Result<Vec<Row>> {
        self.staged_batch(pks, |db, pk| {
            let row = db.delete(table, &pk)?;
            Ok((
                row,
                WalRecord::Delete {
                    table: table.to_owned(),
                    pk,
                },
            ))
        })
    }

    /// Stage every item with `apply` (which returns its result and its log
    /// record), then make all records durable with one `append_batch`. Any
    /// failure — a rejected item or a failed append — undoes the whole
    /// staging, so nothing of the batch survives in the database or the log.
    fn staged_batch<I, T>(
        &mut self,
        items: Vec<I>,
        mut apply: impl FnMut(&mut Database, I) -> Result<(T, WalRecord)>,
    ) -> Result<Vec<T>> {
        if self.db.in_transaction() {
            return Err(StoreError::TransactionActive);
        }
        self.db.txn = Some(Vec::new());
        let mut out = Vec::with_capacity(items.len());
        let mut records = Vec::with_capacity(items.len());
        for item in items {
            match apply(&mut self.db, item) {
                Ok((value, record)) => {
                    out.push(value);
                    records.push(record);
                }
                Err(e) => {
                    self.unstage()?;
                    return Err(e);
                }
            }
        }
        if let Err(e) = self.wal.append_batch(&records) {
            self.unstage()?;
            return Err(e);
        }
        self.db.txn = None;
        Ok(out)
    }

    pub fn update(&mut self, table: &str, pk: &Value, row: Row) -> Result<()> {
        let record = WalRecord::Update {
            table: table.to_owned(),
            pk: pk.clone(),
            row: row.clone(),
        };
        self.staged(record, |db| db.update(table, pk, row))
    }

    pub fn delete(&mut self, table: &str, pk: &Value) -> Result<Row> {
        let record = WalRecord::Delete {
            table: table.to_owned(),
            pk: pk.clone(),
        };
        self.staged(record, |db| db.delete(table, pk))
    }

    /// Force every logged record onto stable storage, regardless of policy.
    pub fn sync(&mut self) -> Result<()> {
        self.wal.sync()
    }

    /// Checkpoint: seal the active log into an epoch-suffixed segment, save
    /// an atomic snapshot covering everything up to the seal, and delete the
    /// segments the snapshot covers. Requires a snapshot path, i.e. a handle
    /// from [`Self::open`].
    ///
    /// Crash-safe at every step: recovery from any intermediate state
    /// reproduces the same database (the snapshot's watermark tells
    /// [`Self::open`] which segments are already folded in). If this returns
    /// an error, the handle should be dropped and re-opened.
    pub fn checkpoint(&mut self) -> Result<()> {
        let snapshot_path = self.snapshot_path.clone().ok_or_else(|| {
            StoreError::Io(
                "checkpoint requires a snapshot path; open the database with LoggedDatabase::open"
                    .into(),
            )
        })?;
        let _trace = qatk_trace::child_span("store.checkpoint");
        failpoint::check("checkpoint.begin")?;
        // Everything in the active log must be durable before it is sealed:
        // recovery treats a torn tail in a sealed segment as corruption.
        self.wal.sync()?;
        let seal = self.epoch;
        let segment = segment_path(&self.wal_path, seal);
        std::fs::rename(&self.wal_path, &segment)?;
        persist::sync_parent_dir(&self.wal_path)?;
        // Bump the epoch before anything can fail below, so a retried
        // checkpoint never seals a second log under the same epoch.
        self.epoch = seal + 1;
        self.wal = WalWriter::open_with(&self.wal_path, self.policy)?;
        failpoint::check("checkpoint.mid_rotate")?;
        self.db.save_with(
            &snapshot_path,
            SnapshotMeta {
                wal_replay_from: seal + 1,
            },
        )?;
        failpoint::check("checkpoint.before_truncate")?;
        for (epoch, path) in list_segments(&self.wal_path)? {
            if self.retention.expendable(epoch, seal + 1) {
                std::fs::remove_file(&path)?;
            }
        }
        crate::metrics::metrics().checkpoints_total.inc();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use crate::schema::SchemaBuilder;
    use crate::value::DataType;

    fn schema_db() -> Database {
        let mut db = Database::new();
        let schema = SchemaBuilder::new()
            .pk("id", DataType::Int)
            .col("name", DataType::Text)
            .build()
            .unwrap();
        db.create_table("t", schema).unwrap();
        db
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("qatk_wal_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(format!("{name}_{}", std::process::id()));
        std::fs::remove_file(&p).ok();
        p
    }

    /// Remove a test's active log plus any sealed segments.
    fn cleanup(wal_path: &Path) {
        std::fs::remove_file(wal_path).ok();
        for (_, seg) in list_segments(wal_path).unwrap_or_default() {
            std::fs::remove_file(seg).ok();
        }
    }

    #[test]
    fn record_roundtrip() {
        let records = [
            WalRecord::Insert {
                table: "t".into(),
                row: row![1i64, "Lüfter"],
            },
            WalRecord::Update {
                table: "t".into(),
                pk: Value::Int(1),
                row: row![1i64, "fan"],
            },
            WalRecord::Delete {
                table: "t".into(),
                pk: Value::Int(1),
            },
        ];
        for r in &records {
            let bytes = r.encode().unwrap();
            let mut buf = bytes.as_slice();
            let len = buf.get_u32_le() as usize;
            let decoded = WalRecord::decode(&buf[..len]).unwrap();
            assert_eq!(&decoded, r);
        }
    }

    #[test]
    fn oversized_record_rejected_at_encode() {
        let record = WalRecord::Delete {
            table: "x".repeat(MAX_WAL_PAYLOAD + 1),
            pk: Value::Int(1),
        };
        assert!(matches!(record.encode(), Err(StoreError::Corrupt(_))));
        let path = tmp("oversized");
        let mut w = WalWriter::open(&path).unwrap();
        assert!(w.append(&record).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn append_read_replay() {
        let path = tmp("basic");
        let mut w = WalWriter::open(&path).unwrap();
        w.append(&WalRecord::Insert {
            table: "t".into(),
            row: row![1i64, "one"],
        })
        .unwrap();
        w.append(&WalRecord::Insert {
            table: "t".into(),
            row: row![2i64, "two"],
        })
        .unwrap();
        w.append(&WalRecord::Update {
            table: "t".into(),
            pk: Value::Int(2),
            row: row![2i64, "TWO"],
        })
        .unwrap();
        w.append(&WalRecord::Delete {
            table: "t".into(),
            pk: Value::Int(1),
        })
        .unwrap();
        assert_eq!(w.appended(), 4);

        let records = read_log(&path).unwrap();
        assert_eq!(records.len(), 4);
        let mut db = schema_db();
        assert_eq!(replay(&mut db, &records).unwrap(), 4);
        assert_eq!(db.total_rows(), 1);
        assert_eq!(
            db.get("t", &Value::Int(2))
                .unwrap()
                .unwrap()
                .get(1)
                .and_then(Value::as_text),
            Some("TWO")
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn append_batch_group_commits() {
        let path = tmp("batch");
        let mut w = WalWriter::open_with(&path, SyncPolicy::Always).unwrap();
        let records: Vec<WalRecord> = (0..10i64)
            .map(|i| WalRecord::Insert {
                table: "t".into(),
                row: row![i, format!("r{i}")],
            })
            .collect();
        w.append_batch(&records).unwrap();
        assert_eq!(w.appended(), 10);
        drop(w);
        assert_eq!(read_log(&path).unwrap().len(), 10);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_n_policy_syncs_in_groups() {
        let path = tmp("every_n");
        let before = crate::metrics::metrics().wal_syncs_total.get();
        let mut w = WalWriter::open_with(&path, SyncPolicy::EveryN(3)).unwrap();
        for i in 0..7i64 {
            w.append(&WalRecord::Insert {
                table: "t".into(),
                row: row![i, "x"],
            })
            .unwrap();
        }
        // 7 appends at n=3 → syncs after the 3rd and 6th
        assert_eq!(crate::metrics::metrics().wal_syncs_total.get() - before, 2);
        w.sync().unwrap();
        assert_eq!(crate::metrics::metrics().wal_syncs_total.get() - before, 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_ignored_mid_log_corruption_is_not() {
        let path = tmp("torn");
        let mut w = WalWriter::open(&path).unwrap();
        for i in 0..5i64 {
            w.append(&WalRecord::Insert {
                table: "t".into(),
                row: row![i, format!("r{i}")],
            })
            .unwrap();
        }
        drop(w);
        // torn tail: truncate the file mid-record
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let records = read_log(&path).unwrap();
        assert_eq!(records.len(), 4);

        // mid-log corruption: flip a byte inside the second record's payload
        let mut corrupted = bytes.clone();
        let rec_len = {
            let mut b = bytes.as_slice();
            b.get_u32_le() as usize + 12
        };
        corrupted[rec_len + 8] ^= 0xff;
        std::fs::write(&path, &corrupted).unwrap();
        assert!(matches!(read_log(&path), Err(StoreError::Corrupt(_))));
        std::fs::remove_file(&path).ok();
    }

    /// Regression for the masked-corruption bug: a bit-flipped length prefix
    /// claiming more bytes than remain used to silently end the read,
    /// dropping every record after it. It must be an error — in the first,
    /// a middle, and the last position.
    #[test]
    fn bit_flipped_length_prefix_is_corruption_not_torn_tail() {
        let path = tmp("flipped_len");
        let mut w = WalWriter::open(&path).unwrap();
        let mut offsets = Vec::new();
        let mut offset = 0usize;
        for i in 0..5i64 {
            let record = WalRecord::Insert {
                table: "t".into(),
                row: row![i, format!("r{i}")],
            };
            offsets.push(offset);
            offset += record.encode().unwrap().len();
            w.append(&record).unwrap();
        }
        drop(w);
        let bytes = std::fs::read(&path).unwrap();
        for (pos, &rec_start) in [0usize, 2, 4].iter().map(|&i| (i, &offsets[i])) {
            let mut corrupted = bytes.clone();
            // flip the length prefix's high byte: +16 MiB, over the limit
            corrupted[rec_start + 3] ^= 0x01;
            std::fs::write(&path, &corrupted).unwrap();
            let err = read_log(&path).unwrap_err();
            assert!(
                matches!(err, StoreError::Corrupt(ref m) if m.contains("implausible")),
                "record {pos}: expected implausible-length corruption, got {err:?}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn logged_database_end_to_end_recovery() {
        let snap = tmp("snap");
        let wal = tmp("log");
        // snapshot with one row
        let mut base = schema_db();
        base.insert("t", row![1i64, "base"]).unwrap();
        base.save(&snap).unwrap();

        // log more operations on top
        let mut logged = LoggedDatabase::new(Database::load(&snap).unwrap(), &wal).unwrap();
        logged.insert("t", row![2i64, "two"]).unwrap();
        logged.insert("t", row![3i64, "three"]).unwrap();
        logged
            .update("t", &Value::Int(1), row![1i64, "BASE"])
            .unwrap();
        logged.delete("t", &Value::Int(3)).unwrap();
        assert_eq!(logged.db().total_rows(), 2);
        drop(logged);

        // crash-recover from snapshot + wal
        let recovered = LoggedDatabase::recover(&snap, &wal).unwrap();
        assert_eq!(recovered.total_rows(), 2);
        assert_eq!(
            recovered
                .get("t", &Value::Int(1))
                .unwrap()
                .unwrap()
                .get(1)
                .and_then(Value::as_text),
            Some("BASE")
        );
        assert!(recovered.get("t", &Value::Int(3)).unwrap().is_none());
        std::fs::remove_file(&snap).ok();
        std::fs::remove_file(&wal).ok();
    }

    #[test]
    fn rejected_mutation_leaves_no_trace_in_db_or_log() {
        let wal = tmp("rejected");
        let mut logged = LoggedDatabase::new(schema_db(), &wal).unwrap();
        logged.insert("t", row![1i64, "one"]).unwrap();
        // duplicate key: staged apply fails → nothing logged, nothing kept
        assert!(matches!(
            logged.insert("t", row![1i64, "dup"]),
            Err(StoreError::DuplicateKey { .. })
        ));
        assert_eq!(logged.db().total_rows(), 1);
        drop(logged);
        assert_eq!(read_log(&wal).unwrap().len(), 1);
        std::fs::remove_file(&wal).ok();
    }

    #[test]
    fn insert_many_is_all_or_nothing() {
        let wal = tmp("many");
        let mut logged = LoggedDatabase::new(schema_db(), &wal).unwrap();
        logged
            .insert_many("t", vec![row![1i64, "a"], row![2i64, "b"]])
            .unwrap();
        // third batch member collides → whole batch rolled back and unlogged
        let err = logged.insert_many("t", vec![row![3i64, "c"], row![1i64, "dup"]]);
        assert!(matches!(err, Err(StoreError::DuplicateKey { .. })));
        assert_eq!(logged.db().total_rows(), 2);
        assert!(logged.db().get("t", &Value::Int(3)).unwrap().is_none());
        drop(logged);
        assert_eq!(read_log(&wal).unwrap().len(), 2);
        std::fs::remove_file(&wal).ok();
    }

    #[test]
    fn delete_many_is_all_or_nothing() {
        let wal = tmp("delmany");
        let mut logged = LoggedDatabase::new(schema_db(), &wal).unwrap();
        logged
            .insert_many("t", vec![row![1i64, "a"], row![2i64, "b"], row![3i64, "c"]])
            .unwrap();
        // the second pk is unknown → the first delete is rolled back too,
        // and nothing reaches the log
        let err = logged.delete_many("t", vec![Value::Int(1), Value::Int(9)]);
        assert!(matches!(err, Err(StoreError::NoSuchKey { .. })), "{err:?}");
        assert_eq!(logged.db().total_rows(), 3);
        assert!(logged.db().get("t", &Value::Int(1)).unwrap().is_some());
        let deleted = logged
            .delete_many("t", vec![Value::Int(1), Value::Int(3)])
            .unwrap();
        assert_eq!(deleted, vec![row![1i64, "a"], row![3i64, "c"]]);
        drop(logged);
        // one insert batch of 3 + one delete batch of 2; the rejected batch
        // left no record
        let records = read_log(&wal).unwrap();
        assert_eq!(records.len(), 5);
        assert!(records[3..]
            .iter()
            .all(|r| matches!(r, WalRecord::Delete { .. })));
        std::fs::remove_file(&wal).ok();
    }

    #[test]
    fn delete_many_replays_after_a_crash() {
        let dir = std::env::temp_dir().join(format!("qatk_wal_delmany_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let (snap, wal) = (dir.join("snap.qdb"), dir.join("wal.log"));
        {
            let (mut logged, _) = LoggedDatabase::open(&snap, &wal, SyncPolicy::OsOnly).unwrap();
            logged
                .create_table(
                    "t",
                    SchemaBuilder::new()
                        .pk("id", DataType::Int)
                        .col("name", DataType::Text)
                        .build()
                        .unwrap(),
                )
                .unwrap();
            logged.checkpoint().unwrap();
            logged
                .insert_many("t", vec![row![1i64, "a"], row![2i64, "b"], row![3i64, "c"]])
                .unwrap();
            logged
                .delete_many("t", vec![Value::Int(2), Value::Int(3)])
                .unwrap();
            // crash: drop without checkpointing
        }
        let (logged, report) = LoggedDatabase::open(&snap, &wal, SyncPolicy::OsOnly).unwrap();
        assert_eq!(report.records_replayed, 5);
        assert_eq!(logged.db().total_rows(), 1);
        assert!(logged.db().get("t", &Value::Int(1)).unwrap().is_some());
        assert!(logged.db().get("t", &Value::Int(2)).unwrap().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_checkpoint_rotate_recover_roundtrip() {
        let dir = std::env::temp_dir().join(format!("qatk_wal_ckpt_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("snap.qdb");
        let wal = dir.join("wal.log");

        let schema = SchemaBuilder::new()
            .pk("id", DataType::Int)
            .col("name", DataType::Text)
            .build()
            .unwrap();
        let (mut logged, report) = LoggedDatabase::open(&snap, &wal, SyncPolicy::Always).unwrap();
        assert!(!report.snapshot_loaded);
        logged.create_table("t", schema).unwrap();
        logged.insert("t", row![1i64, "one"]).unwrap();
        logged.insert("t", row![2i64, "two"]).unwrap();
        logged.checkpoint().unwrap();
        // post-checkpoint: sealed segments gone, snapshot carries watermark
        assert!(list_segments(&wal).unwrap().is_empty());
        logged.insert("t", row![3i64, "three"]).unwrap();
        logged.delete("t", &Value::Int(1)).unwrap();
        let expected = logged.db().canonical_bytes();
        drop(logged);

        let (recovered, report) = LoggedDatabase::open(&snap, &wal, SyncPolicy::Always).unwrap();
        assert!(report.snapshot_loaded);
        assert_eq!(report.replay_from, 1);
        assert_eq!(report.records_replayed, 2); // insert 3 + delete 1
        assert!(!report.torn_tail);
        assert_eq!(recovered.db().canonical_bytes(), expected);

        // a second checkpoint seals under the next epoch and still recovers
        let (mut logged, _) = LoggedDatabase::open(&snap, &wal, SyncPolicy::Always).unwrap();
        logged.insert("t", row![4i64, "four"]).unwrap();
        logged.checkpoint().unwrap();
        let expected = logged.db().canonical_bytes();
        drop(logged);
        let (recovered, report) = LoggedDatabase::open(&snap, &wal, SyncPolicy::Always).unwrap();
        assert_eq!(report.replay_from, 2);
        assert_eq!(recovered.db().canonical_bytes(), expected);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_truncates_torn_active_log() {
        let dir = std::env::temp_dir().join(format!("qatk_wal_torn_open_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("snap.qdb");
        let wal = dir.join("wal.log");
        let schema = SchemaBuilder::new()
            .pk("id", DataType::Int)
            .col("name", DataType::Text)
            .build()
            .unwrap();
        let (mut logged, _) = LoggedDatabase::open(&snap, &wal, SyncPolicy::OsOnly).unwrap();
        logged.create_table("t", schema).unwrap();
        // DDL is not WAL-logged: checkpoint so the table is in the snapshot
        logged.checkpoint().unwrap();
        for i in 0..4i64 {
            logged.insert("t", row![i, format!("r{i}")]).unwrap();
        }
        drop(logged);
        // tear the last record
        let bytes = std::fs::read(&wal).unwrap();
        std::fs::write(&wal, &bytes[..bytes.len() - 3]).unwrap();

        let (recovered, report) = LoggedDatabase::open(&snap, &wal, SyncPolicy::OsOnly).unwrap();
        assert!(report.torn_tail);
        assert_eq!(report.records_replayed, 3);
        assert_eq!(recovered.db().total_rows(), 3);
        // the torn bytes are gone from disk: a re-open replays cleanly
        drop(recovered);
        let (_, report) = LoggedDatabase::open(&snap, &wal, SyncPolicy::OsOnly).unwrap();
        assert!(!report.torn_tail);
        assert_eq!(report.records_replayed, 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn keep_retention_preserves_segments_and_recovery_skips_them() {
        let dir = std::env::temp_dir().join(format!("qatk_wal_retain_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("snap.qdb");
        let wal = dir.join("wal.log");
        let schema = SchemaBuilder::new()
            .pk("id", DataType::Int)
            .col("name", DataType::Text)
            .build()
            .unwrap();
        let (mut logged, _) = LoggedDatabase::open_with_retention(
            &snap,
            &wal,
            SyncPolicy::Always,
            SegmentRetention::Keep(2),
        )
        .unwrap();
        logged.create_table("t", schema).unwrap();
        for ckpt in 0..4i64 {
            logged.insert("t", row![ckpt, format!("c{ckpt}")]).unwrap();
            logged.checkpoint().unwrap();
        }
        // four checkpoints sealed epochs 0..=3; Keep(2) retains 2 and 3
        let epochs: Vec<u64> = list_segments(&wal).unwrap().iter().map(|s| s.0).collect();
        assert_eq!(epochs, vec![2, 3]);
        logged.insert("t", row![99i64, "tail"]).unwrap();
        let expected = logged.db().canonical_bytes();
        drop(logged);

        // recovery must not double-replay the retained (covered) segments,
        // and must keep them on disk under the same retention policy
        let (recovered, report) = LoggedDatabase::open_with_retention(
            &snap,
            &wal,
            SyncPolicy::Always,
            SegmentRetention::Keep(2),
        )
        .unwrap();
        assert_eq!(report.segments_replayed, 0);
        assert_eq!(report.records_replayed, 1);
        assert_eq!(recovered.db().canonical_bytes(), expected);
        let epochs: Vec<u64> = list_segments(&wal).unwrap().iter().map(|s| s.0).collect();
        assert_eq!(epochs, vec![2, 3]);
        drop(recovered);

        // re-opening under DeleteCovered finishes the deferred truncation
        let (_, _) = LoggedDatabase::open(&snap, &wal, SyncPolicy::Always).unwrap();
        assert!(list_segments(&wal).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn segment_chunks_stream_whole_records_from_an_offset() {
        let path = tmp("chunks");
        let mut w = WalWriter::open(&path).unwrap();
        let mut lens = Vec::new();
        for i in 0..6i64 {
            let record = WalRecord::Insert {
                table: "t".into(),
                row: row![i, format!("value-{i}")],
            };
            lens.push(record.encode().unwrap().len() as u64);
            w.append(&record).unwrap();
        }
        drop(w);
        let total: u64 = lens.iter().sum();

        // from zero with a generous cap: everything in one chunk
        let chunk = read_segment_chunk(&path, 0, 1 << 20).unwrap();
        assert_eq!(chunk.end_offset, total);
        let scan = scan_bytes(&chunk.bytes).unwrap();
        assert_eq!(scan.records.len(), 6);
        assert!(!scan.torn);

        // a cap that lands mid-record returns only whole records
        let cap = (lens[0] + lens[1] + lens[2] / 2) as usize;
        let chunk = read_segment_chunk(&path, 0, cap).unwrap();
        assert_eq!(chunk.end_offset, lens[0] + lens[1]);
        assert_eq!(scan_bytes(&chunk.bytes).unwrap().records.len(), 2);

        // resuming from a record boundary picks up the rest
        let chunk = read_segment_chunk(&path, lens[0] + lens[1], 1 << 20).unwrap();
        assert_eq!(chunk.end_offset, total);
        assert_eq!(scan_bytes(&chunk.bytes).unwrap().records.len(), 4);

        // at the tail: empty chunk, offset unchanged
        let chunk = read_segment_chunk(&path, total, 1 << 20).unwrap();
        assert!(chunk.bytes.is_empty());
        assert_eq!(chunk.end_offset, total);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checkpoint_without_snapshot_path_errors() {
        let wal = tmp("no_snap");
        let mut logged = LoggedDatabase::new(schema_db(), &wal).unwrap();
        assert!(matches!(logged.checkpoint(), Err(StoreError::Io(_))));
        cleanup(&wal);
    }

    #[test]
    fn replay_surfaces_conflicts() {
        let mut db = schema_db();
        db.insert("t", row![1i64, "exists"]).unwrap();
        let records = [WalRecord::Insert {
            table: "t".into(),
            row: row![1i64, "duplicate"],
        }];
        assert!(matches!(
            replay(&mut db, &records),
            Err(StoreError::DuplicateKey { .. })
        ));
    }

    #[test]
    fn empty_log_reads_empty() {
        let path = tmp("empty");
        let _ = WalWriter::open(&path).unwrap();
        assert!(read_log(&path).unwrap().is_empty());
        std::fs::remove_file(&path).ok();
    }
}
