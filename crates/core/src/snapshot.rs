//! Freeze-and-share serving snapshots with epoch-swapped publication.
//!
//! The serving stack splits into two halves:
//!
//! * [`KnowledgeSnapshot`] — an immutable, sealed bundle of everything the
//!   query path needs: the annotator pipeline, the frozen vocabulary, the
//!   knowledge base, and the per-part code lists precomputed at seal time.
//!   Every accessor is `&self`, so one `Arc<KnowledgeSnapshot>` can serve any
//!   number of threads with no locking on the hot path.
//! * [`SnapshotBuilder`] — the mutable, single-writer half. It owns a growing
//!   [`FeatureSpace`] and [`KnowledgeBase`]; [`SnapshotBuilder::seal`] turns
//!   it into the next snapshot. [`SnapshotBuilder::from_snapshot`] re-opens a
//!   snapshot copy-on-write (interned ids are preserved, readers of the old
//!   snapshot are untouched).
//!
//! Publication is epoch-based: each snapshot carries a monotonically
//! increasing epoch number, and [`EpochCell`] installs a new epoch with one
//! short write-locked pointer swap. In-flight readers hold an `Arc` clone of
//! the old snapshot and finish on it; new readers pick up the new epoch on
//! their next [`EpochCell::load`]. This is the paper's §4.4 incremental
//! learning loop ("the knowledge structure is updated with new configuration
//! instances") made safe under concurrent serving.
//!
//! Snapshots persist relationally with the epoch as part of the key
//! ([`KnowledgeSnapshot::save_to_db`] / [`KnowledgeSnapshot::load_latest`]),
//! so a restarted service resumes from the newest published epoch. The
//! layout is append-only: an epoch saved on top of its parent writes only
//! the rows past the parent's.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::{Arc, PoisonError, RwLock};

use qatk_store::prelude::*;
use qatk_text::cas::Cas;
use qatk_text::engine::{Pipeline, Result as TextResult};

use crate::features::{FeatureModel, FeatureSet, FeatureSpace, FrozenFeatureSpace};
use crate::knowledge::KnowledgeBase;
use crate::segment::SealedIndex;
use crate::similarity::SimilarityMeasure;
use crate::zoo::{ClassifierFamily, RankerConfig, RankerModel};

/// An immutable, shareable serving snapshot: sealed vocabulary + knowledge
/// base + annotator pipeline + precomputed per-part code lists, all behind
/// `&self`. Clone the `Arc`, not the snapshot.
#[derive(Debug)]
pub struct KnowledgeSnapshot {
    pipeline: Arc<Pipeline>,
    vocab: FrozenFeatureSpace,
    kb: KnowledgeBase,
    model: FeatureModel,
    /// Per-part sorted unique code lists (knowledge-base codes merged with
    /// declared extra codes), precomputed once at seal time so the suggest
    /// hot path hands out an `Arc` clone instead of allocating per call.
    codes_by_part: HashMap<String, Arc<[String]>>,
    /// Codes declared without a training instance (paper §4.4: codes exist
    /// in the master data before the first case is assigned to them).
    declared: Vec<(String, String)>,
    empty_codes: Arc<[String]>,
    /// The compressed immutable index segment (the posting arena the kNN
    /// kernel ranks on), rebuilt from the knowledge base on every seal.
    index: SealedIndex,
    /// The classifier family + measure this snapshot was sealed under.
    ranker_config: RankerConfig,
    /// The trained ranker — built once at seal time from the sealed knowledge
    /// base, so a snapshot swap atomically swaps the model with the data.
    ranker: RankerModel,
    epoch: u64,
    /// The epoch this snapshot was copied from, if it was
    /// ([`SnapshotBuilder::from_snapshot`]): persistence writes only the
    /// rows past it when the store's newest epoch is that parent.
    parent: Option<ParentMark>,
}

impl KnowledgeSnapshot {
    /// The knowledge base (read-only).
    pub fn kb(&self) -> &KnowledgeBase {
        &self.kb
    }

    /// The sealed index segment: delta+varint-compressed posting lists over
    /// this snapshot's nodes, the index every kNN ranking reads.
    pub fn index(&self) -> &SealedIndex {
        &self.index
    }

    /// The sealed vocabulary.
    pub fn vocab(&self) -> &FrozenFeatureSpace {
        &self.vocab
    }

    /// The annotator pipeline this snapshot was trained under.
    pub fn pipeline(&self) -> &Arc<Pipeline> {
        &self.pipeline
    }

    /// The feature model this snapshot was trained under.
    pub fn model(&self) -> FeatureModel {
        self.model
    }

    /// The classifier family + similarity measure this snapshot was sealed
    /// under.
    pub fn ranker_config(&self) -> RankerConfig {
        self.ranker_config
    }

    /// The ranker trained at seal time — the single entry point for every
    /// classifier family ([`crate::zoo::Classifier`]).
    pub fn ranker(&self) -> &RankerModel {
        &self.ranker
    }

    /// The snapshot's epoch number (monotonically increasing across
    /// publishes).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Codes declared without a training instance, in declaration order.
    pub fn declared_codes(&self) -> &[(String, String)] {
        &self.declared
    }

    /// Run the annotator pipeline over a raw CAS (`&self`: engines are
    /// stateless, the CAS carries all mutation).
    pub fn process(&self, cas: &mut Cas) -> TextResult<()> {
        self.pipeline.process(cas)
    }

    /// Extract the feature set of a *processed* CAS against the frozen
    /// vocabulary. Unknown tokens are dropped (see
    /// [`FrozenFeatureSpace::extract`] for why this cannot change a ranking).
    pub fn extract(&self, cas: &Cas) -> FeatureSet {
        self.vocab.extract(cas, self.model)
    }

    /// Process then extract, in one call.
    pub fn process_and_extract(&self, cas: &mut Cas) -> TextResult<FeatureSet> {
        self.pipeline.process(cas)?;
        Ok(self.extract(cas))
    }

    /// The sorted unique error codes a part can take (knowledge-base codes
    /// merged with declared codes), as a cheap `Arc` clone of the list
    /// precomputed at seal time. Unknown parts get the shared empty list.
    pub fn codes_for_part(&self, part_id: &str) -> Arc<[String]> {
        self.codes_by_part
            .get(part_id)
            .unwrap_or(&self.empty_codes)
            .clone()
    }

    /// Number of parts with at least one known or declared code.
    pub fn parts_with_codes(&self) -> usize {
        self.codes_by_part.len()
    }
}

/// Merge knowledge-base codes with declared extras into per-part sorted
/// unique lists — the seal-time precompute behind
/// [`KnowledgeSnapshot::codes_for_part`].
fn compute_codes_by_part(
    kb: &KnowledgeBase,
    declared: &[(String, String)],
) -> HashMap<String, Arc<[String]>> {
    let mut merged: HashMap<String, Vec<String>> = HashMap::new();
    for part in kb.parts() {
        merged.insert(
            part.to_owned(),
            kb.codes_for_part(part)
                .into_iter()
                .map(str::to_owned)
                .collect(),
        );
    }
    for (part, code) in declared {
        merged.entry(part.clone()).or_default().push(code.clone());
    }
    merged
        .into_iter()
        .map(|(part, mut codes)| {
            codes.sort_unstable();
            codes.dedup();
            (part, Arc::from(codes))
        })
        .collect()
}

/// The mutable, single-writer half of the snapshot architecture. Builds the
/// next epoch — from scratch ([`SnapshotBuilder::new`]) or copy-on-write from
/// the currently published snapshot ([`SnapshotBuilder::from_snapshot`]) —
/// then [`SnapshotBuilder::seal`]s it into an immutable
/// [`KnowledgeSnapshot`].
#[derive(Debug)]
pub struct SnapshotBuilder {
    pipeline: Arc<Pipeline>,
    space: FeatureSpace,
    kb: KnowledgeBase,
    model: FeatureModel,
    ranker: RankerConfig,
    declared: Vec<(String, String)>,
    epoch: u64,
    parent: Option<ParentMark>,
}

impl SnapshotBuilder {
    /// Start an empty epoch-0 builder with the default ranker (kNN/Jaccard).
    pub fn new(pipeline: Arc<Pipeline>, model: FeatureModel) -> Self {
        SnapshotBuilder {
            pipeline,
            space: FeatureSpace::new(),
            kb: KnowledgeBase::new(),
            model,
            ranker: RankerConfig::default(),
            declared: Vec::new(),
            epoch: 0,
            parent: None,
        }
    }

    /// Select the classifier family + measure the sealed snapshot will train.
    pub fn with_ranker(mut self, config: RankerConfig) -> Self {
        self.ranker = config;
        self
    }

    /// Re-open a snapshot copy-on-write for the next epoch. The knowledge
    /// base and declared codes are cloned, the vocabulary is thawed with all
    /// ids preserved, and the pipeline `Arc` is shared. The source snapshot —
    /// and every reader holding it — is untouched.
    pub fn from_snapshot(snapshot: &KnowledgeSnapshot) -> Self {
        SnapshotBuilder {
            pipeline: Arc::clone(&snapshot.pipeline),
            space: snapshot.vocab.thaw(),
            kb: snapshot.kb.clone(),
            model: snapshot.model,
            ranker: snapshot.ranker_config,
            declared: snapshot.declared.clone(),
            epoch: snapshot.epoch + 1,
            parent: Some(ParentMark {
                epoch: snapshot.epoch,
                nodes: snapshot.kb.len(),
                vocab: snapshot.vocab.vocabulary_size(),
                codes: snapshot.declared.len(),
            }),
        }
    }

    /// The epoch this builder will seal into.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The growing knowledge base.
    pub fn kb(&self) -> &KnowledgeBase {
        &self.kb
    }

    /// Extract a processed CAS's features, growing the vocabulary (training
    /// path — novel tokens are interned, unlike the frozen serving path).
    pub fn extract(&mut self, cas: &Cas) -> FeatureSet {
        self.space.extract(cas, self.model)
    }

    /// Insert a pre-extracted configuration instance. Returns `false` when an
    /// identical (part, code, features) node already exists.
    pub fn insert(
        &mut self,
        part_id: impl Into<String>,
        error_code: impl Into<String>,
        features: FeatureSet,
    ) -> bool {
        self.kb.insert(part_id, error_code, features)
    }

    /// Process a raw CAS through the pipeline, extract its features (growing
    /// the vocabulary), and insert the configuration instance.
    pub fn train_instance(
        &mut self,
        cas: &mut Cas,
        part_id: &str,
        error_code: &str,
    ) -> TextResult<bool> {
        self.pipeline.process(cas)?;
        let features = self.extract(cas);
        Ok(self.insert(part_id, error_code, features))
    }

    /// Declare a code for a part without a training instance. Returns `false`
    /// if that (part, code) pair was already declared.
    pub fn declare_code(&mut self, part_id: &str, error_code: &str) -> bool {
        let pair = (part_id.to_owned(), error_code.to_owned());
        if self.declared.contains(&pair) {
            return false;
        }
        self.declared.push(pair);
        true
    }

    /// Seal into an immutable snapshot: the vocabulary freezes, the per-part
    /// code lists are precomputed once, and the configured ranker trains over
    /// the final knowledge base — so the serving path never sorts, allocates,
    /// or trains again.
    pub fn seal(self) -> KnowledgeSnapshot {
        let codes_by_part = compute_codes_by_part(&self.kb, &self.declared);
        let index = SealedIndex::build(&self.kb);
        let ranker = self.ranker.train(&self.kb);
        KnowledgeSnapshot {
            pipeline: self.pipeline,
            vocab: self.space.freeze(),
            kb: self.kb,
            model: self.model,
            codes_by_part,
            declared: self.declared,
            empty_codes: Arc::from(Vec::new()),
            index,
            ranker_config: self.ranker,
            ranker,
            epoch: self.epoch,
            parent: self.parent,
        }
    }
}

/// A published-pointer cell: readers [`EpochCell::load`] an `Arc` clone of
/// the current value; a writer [`EpochCell::swap`]s in the next epoch with
/// one short write-locked pointer exchange. Readers never block each other,
/// and an in-flight reader keeps its epoch alive through its `Arc` even
/// after a swap.
#[derive(Debug)]
pub struct EpochCell<T> {
    slot: RwLock<Arc<T>>,
}

impl<T> EpochCell<T> {
    pub fn new(value: T) -> Self {
        EpochCell {
            slot: RwLock::new(Arc::new(value)),
        }
    }

    /// The currently published value. Cheap: one read lock + one `Arc` clone.
    pub fn load(&self) -> Arc<T> {
        self.slot
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Publish `next`, returning the previous value. In-flight readers that
    /// loaded before the swap keep the old `Arc` and finish on it.
    pub fn swap(&self, next: Arc<T>) -> Arc<T> {
        let mut slot = self.slot.write().unwrap_or_else(PoisonError::into_inner);
        std::mem::replace(&mut *slot, next)
    }

    /// Convenience: wrap `value` in an `Arc` and [`EpochCell::swap`] it in.
    pub fn publish(&self, value: T) -> Arc<T> {
        self.swap(Arc::new(value))
    }
}

// --- versioned relational persistence ------------------------------------
//
// The layout is append-only (DESIGN.md §8.3). Knowledge nodes, vocabulary
// ids and declared codes only ever grow along a chain of epochs, so each
// data row is keyed by the epoch that wrote it plus its ord
// (`e{epoch}#{ord}`), and epoch `e` loads, for each ord, the row with the
// largest writer epoch at or below `e`. An epoch persisted on top of its
// parent therefore writes only the ords past the parent's counts, plus its
// meta row as the commit record.

/// The epoch a snapshot was copied from and that epoch's row counts: where
/// the snapshot's delta starts when it is persisted on top of it.
#[derive(Debug, Clone, Copy)]
struct ParentMark {
    epoch: u64,
    nodes: usize,
    vocab: usize,
    codes: usize,
}

/// The one writer behind both store handles: [`Database`] applies rows in
/// place, [`LoggedDatabase`] group-commits each batch through the WAL.
trait RowSink {
    fn db(&self) -> &Database;
    fn insert_many(&mut self, table: &str, rows: Vec<Row>) -> StoreResult<()>;
    fn delete_many(&mut self, table: &str, pks: Vec<Value>) -> StoreResult<()>;
}

impl RowSink for Database {
    fn db(&self) -> &Database {
        self
    }

    fn insert_many(&mut self, table: &str, rows: Vec<Row>) -> StoreResult<()> {
        for row in rows {
            self.insert(table, row)?;
        }
        Ok(())
    }

    fn delete_many(&mut self, table: &str, pks: Vec<Value>) -> StoreResult<()> {
        for pk in &pks {
            self.delete(table, pk)?;
        }
        Ok(())
    }
}

impl RowSink for LoggedDatabase {
    fn db(&self) -> &Database {
        LoggedDatabase::db(self)
    }

    fn insert_many(&mut self, table: &str, rows: Vec<Row>) -> StoreResult<()> {
        LoggedDatabase::insert_many(self, table, rows).map(drop)
    }

    fn delete_many(&mut self, table: &str, pks: Vec<Value>) -> StoreResult<()> {
        LoggedDatabase::delete_many(self, table, pks).map(drop)
    }
}

/// A retained epoch and its row count in one data table (declared codes
/// carry none).
type Retained = (u64, Option<usize>);

/// The epoch that wrote a row: the meta table's primary key, the data
/// tables' second column.
fn writer_epoch(table: &str, row: &Row) -> Option<i64> {
    let col = if table == KnowledgeSnapshot::TABLE_META {
        0
    } else {
        1
    };
    row.get(col).and_then(Value::as_int)
}

fn primary_key(row: &Row) -> Value {
    row.get(0).cloned().unwrap_or(Value::Null)
}

/// What `epoch` sees of a data table: for each ord, the row with the
/// largest writer epoch at or below `epoch`, with that writer epoch.
fn visible(t: &Table, epoch: u64) -> BTreeMap<i64, (i64, &Row)> {
    let mut best: BTreeMap<i64, (i64, &Row)> = BTreeMap::new();
    for row in t.scan() {
        let (Some(w), Some(ord)) = (
            row.get(1).and_then(Value::as_int),
            row.get(2).and_then(Value::as_int),
        ) else {
            continue;
        };
        if (0..=epoch as i64).contains(&w) && best.get(&ord).is_none_or(|&(b, _)| b < w) {
            best.insert(ord, (w, row));
        }
    }
    best
}

impl KnowledgeSnapshot {
    /// Epoch registry: one row per persisted snapshot, its commit record.
    pub const TABLE_META: &'static str = "snapshot_meta";
    /// Knowledge nodes, keyed by writer epoch + insertion order.
    pub const TABLE_NODES: &'static str = "snapshot_nodes";
    /// Vocabulary tokens, keyed by writer epoch + interner id.
    pub const TABLE_VOCAB: &'static str = "snapshot_vocab";
    /// Declared (part, code) pairs, keyed by writer epoch + declaration
    /// order.
    pub const TABLE_CODES: &'static str = "snapshot_codes";

    /// The four tables, meta first: deletes retire an epoch's commit record
    /// before its rows.
    const TABLES: [&'static str; 4] = [
        Self::TABLE_META,
        Self::TABLE_NODES,
        Self::TABLE_VOCAB,
        Self::TABLE_CODES,
    ];

    fn table_schema(table: &str) -> StoreResult<Schema> {
        let b = SchemaBuilder::new();
        let b = match table {
            Self::TABLE_META => b
                .pk("epoch", DataType::Int)
                .col("model", DataType::Text)
                .col("classifier", DataType::Text)
                .col("measure", DataType::Text)
                .col("nodes", DataType::Int)
                .col("vocab", DataType::Int),
            Self::TABLE_NODES => b
                .pk("id", DataType::Text)
                .col("epoch", DataType::Int)
                .col("ord", DataType::Int)
                .col("part_id", DataType::Text)
                .col("error_code", DataType::Text)
                .col("features", DataType::Blob),
            Self::TABLE_VOCAB => b
                .pk("id", DataType::Text)
                .col("epoch", DataType::Int)
                .col("ord", DataType::Int)
                .col("token", DataType::Text),
            _ => b
                .pk("id", DataType::Text)
                .col("epoch", DataType::Int)
                .col("ord", DataType::Int)
                .col("part_id", DataType::Text)
                .col("error_code", DataType::Text),
        };
        b.build()
    }

    fn ensure_tables(db: &mut Database) -> StoreResult<()> {
        // Databases written before the classifier zoo carry a four-column
        // meta schema without the classifier/measure labels. Migrate in
        // place: recreate the table with the wider schema and rewrite the
        // rows with the defaults every pre-zoo snapshot implicitly used
        // (knn + jaccard).
        if db.has_table(Self::TABLE_META)
            && db.table(Self::TABLE_META)?.schema().columns().len() < 6
        {
            let legacy: Vec<(i64, String, i64, i64)> = db
                .table(Self::TABLE_META)?
                .scan()
                .map(|r| {
                    (
                        r.get(0).and_then(Value::as_int).unwrap_or_default(),
                        r.get(1)
                            .and_then(Value::as_text)
                            .unwrap_or_default()
                            .to_owned(),
                        r.get(2).and_then(Value::as_int).unwrap_or_default(),
                        r.get(3).and_then(Value::as_int).unwrap_or_default(),
                    )
                })
                .collect();
            db.drop_table(Self::TABLE_META)?;
            db.create_table(Self::TABLE_META, Self::table_schema(Self::TABLE_META)?)?;
            for (epoch, model, nodes, vocab) in legacy {
                db.insert(
                    Self::TABLE_META,
                    row![
                        epoch,
                        model,
                        ClassifierFamily::Knn.label(),
                        SimilarityMeasure::Jaccard.label(),
                        nodes,
                        vocab
                    ],
                )?;
            }
        }
        for table in Self::TABLES {
            if !db.has_table(table) {
                db.create_table(table, Self::table_schema(table)?)?;
            }
        }
        Ok(())
    }

    /// Persist this snapshot under its epoch: a delta on top of its parent
    /// when the store's newest epoch is that parent, the whole epoch
    /// otherwise (see [`Self::save_to_logged`]). Older epochs stay loadable
    /// (versioned history); re-saving the same epoch overwrites it.
    pub fn save_to_db(&self, db: &mut Database) -> StoreResult<()> {
        Self::ensure_tables(db)?;
        self.persist(db)
    }

    /// The newest persisted epoch, if any snapshot was ever saved.
    pub fn latest_epoch(db: &Database) -> StoreResult<Option<u64>> {
        if !db.has_table(Self::TABLE_META) {
            return Ok(None);
        }
        let t = db.table(Self::TABLE_META)?;
        let rows = Query::new()
            .order_by("epoch", SortOrder::Desc)
            .limit(1)
            .run(t)?;
        Ok(rows
            .first()
            .and_then(|r| r.get(0))
            .and_then(Value::as_int)
            .map(|e| e as u64))
    }

    /// Load the newest persisted epoch (load-latest semantics), or `None` if
    /// nothing was ever saved. The pipeline is supplied by the caller — it is
    /// code, not data.
    pub fn load_latest(
        db: &Database,
        pipeline: Arc<Pipeline>,
    ) -> StoreResult<Option<KnowledgeSnapshot>> {
        match Self::latest_epoch(db)? {
            Some(epoch) => Self::load_epoch(db, pipeline, epoch).map(Some),
            None => Ok(None),
        }
    }

    /// The committed meta row of `epoch`, if there is one.
    fn meta_row(db: &Database, epoch: u64) -> StoreResult<Option<Row>> {
        let t = db.table(Self::TABLE_META)?;
        Ok(t.get(&Value::Int(epoch as i64)).cloned())
    }

    /// The node and vocabulary counts a meta row commits.
    fn meta_counts(db: &Database, meta: &Row) -> StoreResult<(usize, usize)> {
        let schema = db.table(Self::TABLE_META)?.schema();
        let count = |name: &str| {
            meta.get_named(schema, name)
                .and_then(Value::as_int)
                .and_then(|n| usize::try_from(n).ok())
                .ok_or_else(|| {
                    StoreError::Corrupt(format!("snapshot meta row has no valid `{name}` count"))
                })
        };
        Ok((count("nodes")?, count("vocab")?))
    }

    /// The rows `epoch` loads from a data table, in ord order: the visible
    /// row of every ord below `count`. Declared codes carry no count in the
    /// meta row, so with `None` every visible ord counts. A missing ord is
    /// corruption, never a silently shorter epoch.
    fn visible_rows(t: &Table, epoch: u64, count: Option<usize>) -> StoreResult<Vec<&Row>> {
        let visible = visible(t, epoch);
        let n = count.unwrap_or(visible.len());
        (0..n)
            .map(|ord| {
                visible
                    .get(&(ord as i64))
                    .map(|&(_, row)| row)
                    .ok_or_else(|| {
                        StoreError::Corrupt(format!(
                            "snapshot epoch {epoch}: table `{}` has no row for ord {ord}",
                            t.name()
                        ))
                    })
            })
            .collect()
    }

    /// Load one specific persisted epoch.
    pub fn load_epoch(
        db: &Database,
        pipeline: Arc<Pipeline>,
        epoch: u64,
    ) -> StoreResult<KnowledgeSnapshot> {
        let meta = Self::meta_row(db, epoch)?.ok_or_else(|| {
            StoreError::Corrupt(format!("snapshot epoch {epoch} not found in meta table"))
        })?;
        let label = meta.get(1).and_then(Value::as_text).unwrap_or_default();
        let model = FeatureModel::parse(label).map_err(|e| StoreError::Corrupt(e.to_string()))?;
        // Legacy four-column databases have Int values (node/vocab counts) at
        // indexes 2/3, so `as_text` yields None and the pre-zoo defaults
        // apply. Post-migration databases carry the labels explicitly.
        let family_label = meta.get(2).and_then(Value::as_text).unwrap_or("knn");
        let family = ClassifierFamily::parse(family_label)
            .map_err(|e| StoreError::Corrupt(e.to_string()))?;
        let measure_label = meta.get(3).and_then(Value::as_text).unwrap_or("jaccard");
        let measure = SimilarityMeasure::parse(measure_label).ok_or_else(|| {
            StoreError::Corrupt(format!(
                "unknown similarity measure label `{measure_label}`"
            ))
        })?;
        let ranker_config = RankerConfig::new(family, measure);
        let (node_count, vocab_count) = Self::meta_counts(db, &meta)?;

        let text = |r: &Row, col: usize| {
            r.get(col)
                .and_then(Value::as_text)
                .unwrap_or_default()
                .to_owned()
        };
        let tokens = Self::visible_rows(db.table(Self::TABLE_VOCAB)?, epoch, Some(vocab_count))?
            .into_iter()
            .map(|r| text(r, 3));
        let vocab = FrozenFeatureSpace::from_tokens(tokens);

        let mut kb = KnowledgeBase::new();
        for r in Self::visible_rows(db.table(Self::TABLE_NODES)?, epoch, Some(node_count))? {
            let blob = r.get(5).and_then(Value::as_blob).unwrap_or_default();
            let ids: Vec<u32> = blob
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .collect();
            kb.insert(text(r, 3), text(r, 4), FeatureSet::from_unsorted(ids));
        }

        let declared: Vec<(String, String)> =
            Self::visible_rows(db.table(Self::TABLE_CODES)?, epoch, None)?
                .into_iter()
                .map(|r| (text(r, 3), text(r, 4)))
                .collect();

        let codes_by_part = compute_codes_by_part(&kb, &declared);
        let index = SealedIndex::build(&kb);
        let ranker = ranker_config.train(&kb);
        Ok(KnowledgeSnapshot {
            pipeline,
            vocab,
            kb,
            model,
            codes_by_part,
            declared,
            empty_codes: Arc::from(Vec::new()),
            index,
            ranker_config,
            ranker,
            epoch,
            parent: None,
        })
    }

    /// Drop every persisted epoch strictly below `keep_from`: their meta
    /// rows, and every data row no epoch at or above `keep_from` loads — a
    /// row shadowed by a newer row of its ord written at or below
    /// `keep_from`, or one written below `keep_from` past every retained
    /// epoch's count. Returns the number of rows removed.
    pub fn prune_epochs_below(db: &mut Database, keep_from: u64) -> StoreResult<usize> {
        Self::prune(db, keep_from)
    }

    /// Create the snapshot tables through a [`LoggedDatabase`]. DDL is not
    /// WAL-logged, so a replicating leader must call this *before* its boot
    /// checkpoint: the checkpoint bakes the schemas into the snapshot file,
    /// and every follower (and crash recovery) replays logged row DML against
    /// tables the snapshot already holds.
    ///
    /// Returns `true` if any table was created (the caller should
    /// checkpoint). Pre-zoo four-column meta tables cannot be migrated
    /// through the logged handle; open such a store once with
    /// [`Self::save_to_db`] semantics before replicating it.
    pub fn ensure_replicated_tables(store: &mut LoggedDatabase) -> StoreResult<bool> {
        if store.has_table(Self::TABLE_META)
            && store.db().table(Self::TABLE_META)?.schema().columns().len() < 6
        {
            return Err(StoreError::Corrupt(format!(
                "table `{}` has a pre-zoo four-column schema; migrate it with \
                 a non-replicated open before serving it as a leader",
                Self::TABLE_META
            )));
        }
        let mut created = false;
        for table in Self::TABLES {
            if !store.has_table(table) {
                store.create_table(table, Self::table_schema(table)?)?;
                created = true;
            }
        }
        Ok(created)
    }

    /// Persist this snapshot through a [`LoggedDatabase`]: every row insert
    /// and delete goes through the WAL, one group-committed batch per table,
    /// so a replicating leader's followers receive the published epoch as
    /// ordinary log records and crash recovery replays it. An epoch whose
    /// parent is the store's newest epoch writes only its new nodes,
    /// vocabulary and codes plus its meta row; anything else is written in
    /// full. Same semantics as [`Self::save_to_db`]; tables must already
    /// exist (call [`Self::ensure_replicated_tables`] + checkpoint at boot
    /// first).
    pub fn save_to_logged(&self, store: &mut LoggedDatabase) -> StoreResult<()> {
        if let Some(table) = Self::TABLES.into_iter().find(|t| !store.has_table(t)) {
            return Err(StoreError::Corrupt(format!(
                "snapshot table `{table}` missing; call \
                 ensure_replicated_tables and checkpoint before saving"
            )));
        }
        self.persist(store)
    }

    /// [`Self::prune_epochs_below`] routed through the WAL: the leader's
    /// retention decision replicates to followers as ordinary deletes.
    pub fn prune_epochs_below_logged(
        store: &mut LoggedDatabase,
        keep_from: u64,
    ) -> StoreResult<usize> {
        Self::prune(store, keep_from)
    }

    /// The parent this snapshot persists on top of as a delta: its
    /// [`ParentMark`], when the store's newest committed epoch is that
    /// parent.
    ///
    /// A store has a single writer — the process publishing one chain of
    /// epochs — and that writer commits each epoch either in full or as a
    /// delta on the newest committed epoch. So when the newest meta row has
    /// the parent's epoch and node and vocabulary counts, and that epoch
    /// sees exactly the parent's number of declared codes, the rows it
    /// loads are the parent's, and only the ords past them need writing.
    /// Everything else is written in full: a snapshot built from scratch or
    /// loaded from a store (no parent), a re-save of a committed epoch, a
    /// child whose parent was never persisted, a snapshot of another chain.
    fn delta_base(&self, db: &Database) -> StoreResult<Option<ParentMark>> {
        let Some(parent) = self.parent else {
            return Ok(None);
        };
        if Self::latest_epoch(db)? != Some(parent.epoch) {
            return Ok(None);
        }
        let Some(meta) = Self::meta_row(db, parent.epoch)? else {
            return Ok(None);
        };
        let same = Self::meta_counts(db, &meta)? == (parent.nodes, parent.vocab)
            && visible(db.table(Self::TABLE_CODES)?, parent.epoch).len() == parent.codes;
        Ok(same.then_some(parent))
    }

    /// The lowest epoch a full write of this snapshot retires. Every epoch
    /// at or above its own goes: a newer one may load rows the write
    /// replaces. Older epochs stay, unless one wrote a declared code past
    /// this snapshot's count: with no code count in the meta row, this
    /// epoch would load that row as its own, so the floor drops to its
    /// writer.
    fn full_write_floor(&self, db: &Database) -> StoreResult<u64> {
        let codes = self.declared.len() as i64;
        Ok(db
            .table(Self::TABLE_CODES)?
            .scan()
            .filter(|r| {
                r.get(2)
                    .and_then(Value::as_int)
                    .is_some_and(|ord| ord >= codes)
            })
            .filter_map(|r| r.get(1).and_then(Value::as_int))
            .map(|w| u64::try_from(w).unwrap_or(0))
            .fold(self.epoch, u64::min))
    }

    /// The one writer behind [`Self::save_to_db`] and
    /// [`Self::save_to_logged`]. First retire every epoch at or above the
    /// floor — its meta row first, so no reader sees it committed without
    /// its rows — then insert the new rows one batch per table, then the
    /// meta row last: it is the epoch's commit record.
    fn persist<S: RowSink>(&self, sink: &mut S) -> StoreResult<()> {
        let _span = qatk_trace::child_span("snapshot.persist");
        let db = sink.db();
        let base = self.delta_base(db)?;
        // A delta still clears rows at its own epoch or above: a write
        // that never reached its meta row may have left some.
        let floor = match base {
            Some(_) => self.epoch,
            None => self.full_write_floor(db)?,
        };
        let mut retire = Vec::with_capacity(Self::TABLES.len());
        for table in Self::TABLES {
            let pks: Vec<Value> = db
                .table(table)?
                .scan()
                .filter(|r| writer_epoch(table, r).is_some_and(|w| w >= floor as i64))
                .map(primary_key)
                .collect();
            retire.push((table, pks));
        }

        let (nodes_from, vocab_from, codes_from) =
            base.map_or((0, 0, 0), |p| (p.nodes, p.vocab, p.codes));
        let e = self.epoch as i64;
        let node_rows: Vec<Row> = self.kb.nodes()[nodes_from..]
            .iter()
            .zip(nodes_from..)
            .map(|(node, i)| {
                let mut blob = Vec::with_capacity(node.features.len() * 4);
                for f in node.features.iter() {
                    blob.extend_from_slice(&f.to_le_bytes());
                }
                row![
                    format!("e{}#{i}", self.epoch),
                    e,
                    i as i64,
                    node.part_id.clone(),
                    node.error_code.clone(),
                    blob
                ]
            })
            .collect();
        let vocab_rows: Vec<Row> = self
            .vocab
            .tokens()
            .enumerate()
            .skip(vocab_from)
            .map(|(i, token)| row![format!("v{}#{i}", self.epoch), e, i as i64, token])
            .collect();
        let code_rows: Vec<Row> = self.declared[codes_from..]
            .iter()
            .zip(codes_from..)
            .map(|((part, code), i)| {
                row![
                    format!("c{}#{i}", self.epoch),
                    e,
                    i as i64,
                    part.clone(),
                    code.clone()
                ]
            })
            .collect();
        let meta_row = row![
            e,
            self.model.label(),
            self.ranker_config.family.label(),
            self.ranker_config.measure.label(),
            self.kb.len() as i64,
            self.vocab.vocabulary_size() as i64
        ];

        let mut deleted = 0;
        for (table, pks) in retire {
            if !pks.is_empty() {
                deleted += pks.len();
                sink.delete_many(table, pks)?;
            }
        }
        let mut written = 0;
        for (table, rows) in [
            (Self::TABLE_NODES, node_rows),
            (Self::TABLE_VOCAB, vocab_rows),
            (Self::TABLE_CODES, code_rows),
            // The meta row goes LAST: a replica replaying this log sees
            // `latest_epoch` flip to this epoch only once every row it
            // loads is applied, so it never loads a partial epoch.
            (Self::TABLE_META, vec![meta_row]),
        ] {
            if !rows.is_empty() {
                written += rows.len();
                sink.insert_many(table, rows)?;
            }
        }
        qatk_trace::annotate("write", if base.is_some() { "delta" } else { "full" });
        qatk_trace::annotate("rows_written", written as u64);
        qatk_trace::annotate("rows_deleted", deleted as u64);
        Ok(())
    }

    /// The one pruner behind [`Self::prune_epochs_below`] and
    /// [`Self::prune_epochs_below_logged`]: retired meta rows first, then
    /// the dead data rows, one batch per table.
    fn prune<S: RowSink>(sink: &mut S, keep_from: u64) -> StoreResult<usize> {
        let _span = qatk_trace::child_span("snapshot.prune");
        let db = sink.db();
        let mut doomed = Vec::with_capacity(Self::TABLES.len());
        if db.has_table(Self::TABLE_META) {
            let (mut retired, mut retained) = (Vec::new(), Vec::new());
            for meta in db.table(Self::TABLE_META)?.scan() {
                match writer_epoch(Self::TABLE_META, meta) {
                    Some(w) if w < keep_from as i64 => retired.push(primary_key(meta)),
                    Some(w) => retained.push((w as u64, Self::meta_counts(db, meta)?)),
                    None => {}
                }
            }
            doomed.push((Self::TABLE_META, retired));
            let nodes: Vec<Retained> = retained.iter().map(|&(e, (n, _))| (e, Some(n))).collect();
            let vocab: Vec<Retained> = retained.iter().map(|&(e, (_, v))| (e, Some(v))).collect();
            let codes: Vec<Retained> = retained.iter().map(|&(e, _)| (e, None)).collect();
            for (table, retained) in [
                (Self::TABLE_NODES, nodes),
                (Self::TABLE_VOCAB, vocab),
                (Self::TABLE_CODES, codes),
            ] {
                if db.has_table(table) {
                    doomed.push((
                        table,
                        Self::dead_rows(db.table(table)?, keep_from, &retained),
                    ));
                }
            }
        }
        let mut removed = 0;
        for (table, pks) in doomed {
            if !pks.is_empty() {
                removed += pks.len();
                sink.delete_many(table, pks)?;
            }
        }
        qatk_trace::annotate("rows_deleted", removed as u64);
        Ok(removed)
    }

    /// The rows of a data table written below `keep_from` that no retained
    /// epoch loads. In steady state there are none: a row a newer one of
    /// its ord shadows exists only after a full write.
    fn dead_rows(t: &Table, keep_from: u64, retained: &[Retained]) -> Vec<Value> {
        // Delta-written tables hold one row per ord and none past the
        // newest count: nothing to scan for.
        let newest = retained.iter().filter_map(|&(_, n)| n).max();
        if newest.is_some_and(|n| t.len() <= n) {
            return Vec::new();
        }
        let mut live: HashSet<&Value> = HashSet::new();
        for &(epoch, count) in retained {
            live.extend(
                visible(t, epoch)
                    .into_iter()
                    .filter(|&(ord, _)| count.is_none_or(|n| ord < n as i64))
                    .filter_map(|(_, (_, row))| row.get(0)),
            );
        }
        t.scan()
            .filter(|r| {
                r.get(1)
                    .and_then(Value::as_int)
                    .is_some_and(|w| w < keep_from as i64)
            })
            .filter(|r| r.get(0).is_some_and(|pk| !live.contains(pk)))
            .map(primary_key)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qatk_text::tokenizer::WhitespaceTokenizer;

    fn pipeline() -> Arc<Pipeline> {
        Arc::new(Pipeline::builder().add(WhitespaceTokenizer::new()).build())
    }

    fn cas(text: &str) -> Cas {
        let mut c = Cas::new();
        c.add_segment("report", text);
        c
    }

    fn trained_snapshot() -> KnowledgeSnapshot {
        let mut b = SnapshotBuilder::new(pipeline(), FeatureModel::BagOfWords);
        b.train_instance(&mut cas("Kontakt defekt"), "P-01", "E100")
            .unwrap();
        b.train_instance(&mut cas("Kabel durchgeschmort"), "P-01", "E200")
            .unwrap();
        b.train_instance(&mut cas("Radio stumm"), "P-02", "E300")
            .unwrap();
        b.declare_code("P-01", "E900");
        b.declare_code("P-03", "E500");
        b.seal()
    }

    #[test]
    fn builder_seals_into_queryable_snapshot() {
        let snap = trained_snapshot();
        assert_eq!(snap.epoch(), 0);
        assert_eq!(snap.kb().len(), 3);
        assert_eq!(snap.vocab().vocabulary_size(), 6);

        let mut q = cas("Kontakt defekt");
        let f = snap.process_and_extract(&mut q).unwrap();
        assert_eq!(f.len(), 2);
        // unknown tokens are dropped by the frozen vocabulary
        let mut q = cas("voellig neues Vokabular");
        let f = snap.process_and_extract(&mut q).unwrap();
        assert!(f.is_empty());
        assert_eq!(snap.vocab().vocabulary_size(), 6);
    }

    #[test]
    fn seal_precomputes_merged_code_lists() {
        let snap = trained_snapshot();
        // KB codes merged with the declared E900, sorted unique
        assert_eq!(&*snap.codes_for_part("P-01"), &["E100", "E200", "E900"]);
        assert_eq!(&*snap.codes_for_part("P-02"), &["E300"]);
        // declared-only part exists even without a training instance
        assert_eq!(&*snap.codes_for_part("P-03"), &["E500"]);
        assert!(snap.codes_for_part("P-99").is_empty());
        assert_eq!(snap.parts_with_codes(), 3);
        // repeated lookups hand out the same allocation
        assert!(Arc::ptr_eq(
            &snap.codes_for_part("P-01"),
            &snap.codes_for_part("P-01")
        ));
    }

    #[test]
    fn copy_on_write_builder_leaves_source_untouched() {
        let snap = trained_snapshot();
        let mut next = SnapshotBuilder::from_snapshot(&snap);
        assert_eq!(next.epoch(), 1);
        next.train_instance(&mut cas("Sicherung geschmolzen"), "P-04", "E400")
            .unwrap();
        let next = next.seal();

        assert_eq!(next.kb().len(), 4);
        assert_eq!(&*next.codes_for_part("P-04"), &["E400"]);
        // the sealed source snapshot is unchanged
        assert_eq!(snap.kb().len(), 3);
        assert!(snap.codes_for_part("P-04").is_empty());
        assert_eq!(snap.epoch(), 0);

        // ids survive the thaw: the same query extracts the same set
        let mut q = cas("Kontakt defekt");
        let old = snap.process_and_extract(&mut q).unwrap();
        let mut q = cas("Kontakt defekt");
        let new = next.process_and_extract(&mut q).unwrap();
        assert_eq!(old, new);
    }

    #[test]
    fn builder_dedups_instances_and_declarations() {
        let mut b = SnapshotBuilder::new(pipeline(), FeatureModel::BagOfWords);
        assert!(b
            .train_instance(&mut cas("Kontakt defekt"), "P-01", "E100")
            .unwrap());
        assert!(!b
            .train_instance(&mut cas("Kontakt defekt"), "P-01", "E100")
            .unwrap());
        assert!(b.declare_code("P-01", "E900"));
        assert!(!b.declare_code("P-01", "E900"));
        assert_eq!(b.kb().len(), 1);
    }

    #[test]
    fn epoch_cell_swap_keeps_old_readers_consistent() {
        let cell = EpochCell::new(trained_snapshot());
        let reader = cell.load();
        assert_eq!(reader.epoch(), 0);

        let mut b = SnapshotBuilder::from_snapshot(&reader);
        b.train_instance(&mut cas("Sicherung geschmolzen"), "P-04", "E400")
            .unwrap();
        let old = cell.publish(b.seal());

        // the in-flight reader still sees epoch 0 with 3 nodes …
        assert_eq!(reader.epoch(), 0);
        assert_eq!(reader.kb().len(), 3);
        assert!(Arc::ptr_eq(&reader, &old));
        // … while new loads observe the published epoch 1
        let fresh = cell.load();
        assert_eq!(fresh.epoch(), 1);
        assert_eq!(fresh.kb().len(), 4);
    }

    #[test]
    fn persistence_roundtrip_preserves_everything() {
        let snap = trained_snapshot();
        let mut db = Database::new();
        snap.save_to_db(&mut db).unwrap();

        let loaded = KnowledgeSnapshot::load_latest(&db, pipeline())
            .unwrap()
            .unwrap();
        assert_eq!(loaded.epoch(), 0);
        assert_eq!(loaded.model(), FeatureModel::BagOfWords);
        assert_eq!(loaded.kb().nodes(), snap.kb().nodes());
        assert_eq!(
            loaded.vocab().vocabulary_size(),
            snap.vocab().vocabulary_size()
        );
        assert_eq!(loaded.declared_codes(), snap.declared_codes());
        assert_eq!(&*loaded.codes_for_part("P-01"), &["E100", "E200", "E900"]);

        // vocabulary ids line up: same query text, same feature set
        let mut q = cas("Kabel durchgeschmort");
        let a = snap.process_and_extract(&mut q).unwrap();
        let mut q = cas("Kabel durchgeschmort");
        let b = loaded.process_and_extract(&mut q).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn logged_persistence_ships_rows_through_the_wal() {
        let dir = std::env::temp_dir().join(format!("qatk_snap_logged_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let snap_path = dir.join("snap.qdb");
        let wal_path = dir.join("wal.log");

        let snap = trained_snapshot();
        {
            let (mut store, _) =
                LoggedDatabase::open(&snap_path, &wal_path, SyncPolicy::OsOnly).unwrap();
            // Saving before the tables exist is a typed error, not a panic.
            assert!(snap.save_to_logged(&mut store).is_err());
            assert!(KnowledgeSnapshot::ensure_replicated_tables(&mut store).unwrap());
            // Second call is a no-op …
            assert!(!KnowledgeSnapshot::ensure_replicated_tables(&mut store).unwrap());
            // … and the boot checkpoint bakes the (un-logged) DDL into the
            // snapshot file so WAL replay lands on existing tables.
            store.checkpoint().unwrap();
            snap.save_to_logged(&mut store).unwrap();
            // Re-saving the same epoch overwrites instead of duplicating.
            snap.save_to_logged(&mut store).unwrap();
            // Drop without checkpointing: every row must survive via the WAL.
        }

        let (store, report) =
            LoggedDatabase::open(&snap_path, &wal_path, SyncPolicy::OsOnly).unwrap();
        assert!(report.snapshot_loaded);
        assert!(report.records_replayed > 0, "rows must ride the WAL");
        let loaded = KnowledgeSnapshot::load_latest(store.db(), pipeline())
            .unwrap()
            .unwrap();
        assert_eq!(loaded.epoch(), snap.epoch());
        assert_eq!(loaded.kb().nodes(), snap.kb().nodes());
        assert_eq!(loaded.declared_codes(), snap.declared_codes());

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn logged_prune_removes_old_epochs_via_the_wal() {
        let dir = std::env::temp_dir().join(format!("qatk_snap_lprune_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let snap_path = dir.join("snap.qdb");
        let wal_path = dir.join("wal.log");

        let e0 = trained_snapshot();
        let mut b = SnapshotBuilder::from_snapshot(&e0);
        b.train_instance(&mut cas("Sicherung geschmolzen"), "P-04", "E400")
            .unwrap();
        let e1 = b.seal();

        {
            let (mut store, _) =
                LoggedDatabase::open(&snap_path, &wal_path, SyncPolicy::OsOnly).unwrap();
            KnowledgeSnapshot::ensure_replicated_tables(&mut store).unwrap();
            store.checkpoint().unwrap();
            e0.save_to_logged(&mut store).unwrap();
            e1.save_to_logged(&mut store).unwrap();
            let removed =
                KnowledgeSnapshot::prune_epochs_below_logged(&mut store, e1.epoch()).unwrap();
            assert!(removed > 0);
        }

        let (store, _) = LoggedDatabase::open(&snap_path, &wal_path, SyncPolicy::OsOnly).unwrap();
        assert_eq!(
            KnowledgeSnapshot::latest_epoch(store.db()).unwrap(),
            Some(e1.epoch())
        );
        // epoch 0 is gone after replaying the logged deletes
        assert!(KnowledgeSnapshot::load_epoch(store.db(), pipeline(), 0).is_err());
        let loaded = KnowledgeSnapshot::load_latest(store.db(), pipeline())
            .unwrap()
            .unwrap();
        assert_eq!(loaded.kb().len(), 4);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_latest_picks_newest_epoch() {
        let snap0 = trained_snapshot();
        let mut db = Database::new();
        snap0.save_to_db(&mut db).unwrap();

        let mut b = SnapshotBuilder::from_snapshot(&snap0);
        b.train_instance(&mut cas("Sicherung geschmolzen"), "P-04", "E400")
            .unwrap();
        let snap1 = b.seal();
        snap1.save_to_db(&mut db).unwrap();

        assert_eq!(KnowledgeSnapshot::latest_epoch(&db).unwrap(), Some(1));
        let loaded = KnowledgeSnapshot::load_latest(&db, pipeline())
            .unwrap()
            .unwrap();
        assert_eq!(loaded.epoch(), 1);
        assert_eq!(loaded.kb().len(), 4);

        // epoch 0 is still loadable explicitly — versioned history
        let old = KnowledgeSnapshot::load_epoch(&db, pipeline(), 0).unwrap();
        assert_eq!(old.kb().len(), 3);
    }

    #[test]
    fn resave_same_epoch_overwrites() {
        let snap = trained_snapshot();
        let mut db = Database::new();
        snap.save_to_db(&mut db).unwrap();
        snap.save_to_db(&mut db).unwrap();
        assert_eq!(
            db.table(KnowledgeSnapshot::TABLE_NODES).unwrap().len(),
            snap.kb().len()
        );
        assert_eq!(db.table(KnowledgeSnapshot::TABLE_META).unwrap().len(), 1);
    }

    #[test]
    fn prune_drops_old_epochs_only() {
        let snap0 = trained_snapshot();
        let mut db = Database::new();
        snap0.save_to_db(&mut db).unwrap();
        let mut b = SnapshotBuilder::from_snapshot(&snap0);
        b.train_instance(&mut cas("Sicherung geschmolzen"), "P-04", "E400")
            .unwrap();
        b.seal().save_to_db(&mut db).unwrap();

        let removed = KnowledgeSnapshot::prune_epochs_below(&mut db, 1).unwrap();
        assert!(removed > 0);
        assert_eq!(KnowledgeSnapshot::latest_epoch(&db).unwrap(), Some(1));
        assert!(KnowledgeSnapshot::load_epoch(&db, pipeline(), 0).is_err());
        assert_eq!(
            KnowledgeSnapshot::load_latest(&db, pipeline())
                .unwrap()
                .unwrap()
                .kb()
                .len(),
            4
        );
    }

    #[test]
    fn load_latest_on_empty_db_is_none() {
        let db = Database::new();
        assert!(KnowledgeSnapshot::load_latest(&db, pipeline())
            .unwrap()
            .is_none());
    }

    #[test]
    fn ranker_config_round_trips_through_persistence() {
        use crate::zoo::Classifier;

        let mut b = SnapshotBuilder::new(pipeline(), FeatureModel::BagOfWords).with_ranker(
            RankerConfig::new(ClassifierFamily::Centroid, SimilarityMeasure::Overlap),
        );
        b.train_instance(&mut cas("Kontakt defekt"), "P-01", "E100")
            .unwrap();
        let snap = b.seal();
        assert_eq!(snap.ranker().family(), ClassifierFamily::Centroid);
        assert_eq!(snap.ranker_config().measure, SimilarityMeasure::Overlap);

        let mut db = Database::new();
        snap.save_to_db(&mut db).unwrap();
        let loaded = KnowledgeSnapshot::load_latest(&db, pipeline())
            .unwrap()
            .unwrap();
        assert_eq!(loaded.ranker_config(), snap.ranker_config());
        assert_eq!(loaded.ranker().family(), ClassifierFamily::Centroid);
        // copy-on-write carries the ranker choice into the next epoch
        let next = SnapshotBuilder::from_snapshot(&loaded).seal();
        assert_eq!(next.ranker_config(), snap.ranker_config());
    }

    /// Rewrite the meta table in the pre-zoo four-column layout so tests can
    /// simulate a database written before classifier/measure persistence.
    fn downgrade_meta_table(db: &mut Database, epoch: i64, model: &str) {
        db.drop_table(KnowledgeSnapshot::TABLE_META).unwrap();
        let schema = SchemaBuilder::new()
            .pk("epoch", DataType::Int)
            .col("model", DataType::Text)
            .col("nodes", DataType::Int)
            .col("vocab", DataType::Int)
            .build()
            .unwrap();
        db.create_table(KnowledgeSnapshot::TABLE_META, schema)
            .unwrap();
        db.insert(
            KnowledgeSnapshot::TABLE_META,
            row![epoch, model, 3i64, 6i64],
        )
        .unwrap();
    }

    #[test]
    fn legacy_four_column_meta_loads_defaults_and_migrates_on_save() {
        let snap = trained_snapshot();
        let mut db = Database::new();
        snap.save_to_db(&mut db).unwrap();
        downgrade_meta_table(&mut db, 0, "bag-of-words");

        // a legacy database loads with the implicit pre-zoo knn+jaccard ranker
        let loaded = KnowledgeSnapshot::load_latest(&db, pipeline())
            .unwrap()
            .unwrap();
        assert_eq!(loaded.ranker_config(), RankerConfig::default());
        assert_eq!(loaded.model(), FeatureModel::BagOfWords);

        // the next save migrates the meta table to the six-column schema,
        // preserving the legacy row under the default labels
        loaded.save_to_db(&mut db).unwrap();
        let cols = db
            .table(KnowledgeSnapshot::TABLE_META)
            .unwrap()
            .schema()
            .columns()
            .len();
        assert_eq!(cols, 6);
        let again = KnowledgeSnapshot::load_latest(&db, pipeline())
            .unwrap()
            .unwrap();
        assert_eq!(again.ranker_config(), RankerConfig::default());
    }

    #[test]
    fn unknown_persisted_model_label_is_structured_load_error() {
        let snap = trained_snapshot();
        let mut db = Database::new();
        snap.save_to_db(&mut db).unwrap();
        downgrade_meta_table(&mut db, 0, "bag-of-wards");

        let err = KnowledgeSnapshot::load_latest(&db, pipeline()).unwrap_err();
        match err {
            StoreError::Corrupt(msg) => {
                assert!(
                    msg.contains("unknown feature model label `bag-of-wards`"),
                    "{msg}"
                );
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn unknown_persisted_classifier_label_is_structured_load_error() {
        let snap = trained_snapshot();
        let mut db = Database::new();
        snap.save_to_db(&mut db).unwrap();
        // corrupt the classifier column of the persisted meta row
        let pk = db
            .table(KnowledgeSnapshot::TABLE_META)
            .unwrap()
            .scan()
            .next()
            .unwrap()
            .get(0)
            .cloned()
            .unwrap();
        db.delete(KnowledgeSnapshot::TABLE_META, &pk).unwrap();
        db.insert(
            KnowledgeSnapshot::TABLE_META,
            row![0i64, "bag-of-words", "perceptron", "jaccard", 3i64, 6i64],
        )
        .unwrap();

        let err = KnowledgeSnapshot::load_latest(&db, pipeline()).unwrap_err();
        match err {
            StoreError::Corrupt(msg) => {
                assert!(msg.contains("perceptron"), "{msg}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }
}
