//! Append-only snapshot persistence (DESIGN.md §8.3): an epoch persisted on
//! top of its parent writes only its new rows, every retained epoch loads
//! exactly what was sealed — including from stores written in the older
//! full-copy-per-epoch layout — and the WAL cost of one learn does not grow
//! with the knowledge base.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use qatk_core::prelude::*;
use qatk_store::prelude::*;
use qatk_text::cas::Cas;
use qatk_text::engine::Pipeline;
use qatk_text::tokenizer::WhitespaceTokenizer;

fn pipeline() -> Arc<Pipeline> {
    Arc::new(Pipeline::builder().add(WhitespaceTokenizer::new()).build())
}

fn cas(text: &str) -> Cas {
    let mut c = Cas::new();
    c.add_segment("report", text);
    c
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qatk_delta_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A leader-shaped store: snapshot tables created and baked into the
/// snapshot file by a boot checkpoint.
fn open_store(dir: &Path) -> LoggedDatabase {
    let (mut store, _) = LoggedDatabase::open(
        dir.join("snap.qdb"),
        dir.join("wal.log"),
        SyncPolicy::OsOnly,
    )
    .unwrap();
    if KnowledgeSnapshot::ensure_replicated_tables(&mut store).unwrap() {
        store.checkpoint().unwrap();
    }
    store
}

/// Crash (drop without checkpoint) and recover from snapshot + WAL.
fn crash_and_reopen(store: LoggedDatabase, dir: &Path) -> LoggedDatabase {
    drop(store);
    let (store, report) = LoggedDatabase::open(
        dir.join("snap.qdb"),
        dir.join("wal.log"),
        SyncPolicy::OsOnly,
    )
    .unwrap();
    assert!(report.records_replayed > 0, "the epochs must ride the WAL");
    store
}

/// One copy-on-write epoch on top of `prev` (or a fresh epoch 0), training
/// `texts` (part, code, text) and declaring `codes`.
fn next_epoch(
    prev: Option<&KnowledgeSnapshot>,
    texts: &[(&str, &str, String)],
    codes: &[(&str, &str)],
) -> KnowledgeSnapshot {
    let mut b = match prev {
        Some(p) => SnapshotBuilder::from_snapshot(p),
        None => SnapshotBuilder::new(pipeline(), FeatureModel::BagOfWords),
    };
    for (part, code, text) in texts {
        b.train_instance(&mut cas(text), part, code).unwrap();
    }
    for (part, code) in codes {
        b.declare_code(part, code);
    }
    b.seal()
}

/// A chain of `len` epochs named `tag`: each adds `width` instances with
/// one fresh token each, and the first declares `codes` codes.
fn chain(tag: &str, len: usize, codes: usize, width: usize) -> Vec<KnowledgeSnapshot> {
    let declared: Vec<(String, String)> = (0..codes)
        .map(|i| (format!("P-0{}", i % 3), format!("{tag}-D{i}")))
        .collect();
    let mut out: Vec<KnowledgeSnapshot> = Vec::new();
    for e in 0..len {
        let texts: Vec<(&str, &str, String)> = (0..width)
            .map(|j| {
                (
                    ["P-01", "P-02", "P-03"][j % 3],
                    ["E100", "E200"][j % 2],
                    format!("kontakt {tag}{e}x{j} defekt"),
                )
            })
            .collect();
        let codes: Vec<(&str, &str)> = if e == 0 {
            declared
                .iter()
                .map(|(p, c)| (p.as_str(), c.as_str()))
                .collect()
        } else {
            Vec::new()
        };
        out.push(next_epoch(out.last(), &texts, &codes));
    }
    out
}

/// The observable surface a reader cares about: same epoch, nodes,
/// vocabulary ids, declared codes and per-part code lists as the sealed
/// original.
fn assert_same_view(loaded: &KnowledgeSnapshot, sealed: &KnowledgeSnapshot) {
    assert_eq!(loaded.epoch(), sealed.epoch());
    assert_eq!(loaded.kb().nodes(), sealed.kb().nodes());
    assert!(
        loaded.vocab().tokens().eq(sealed.vocab().tokens()),
        "vocabulary diverged at epoch {}",
        sealed.epoch()
    );
    assert_eq!(loaded.declared_codes(), sealed.declared_codes());
    for part in (0..5).map(|p| format!("P-{p:02}")) {
        assert_eq!(
            &*loaded.codes_for_part(&part),
            &*sealed.codes_for_part(&part),
            "codes diverged for {part}"
        );
    }
}

fn load(store: &LoggedDatabase, epoch: u64) -> StoreResult<KnowledgeSnapshot> {
    KnowledgeSnapshot::load_epoch(store.db(), pipeline(), epoch)
}

fn rows(store: &LoggedDatabase, table: &str) -> usize {
    store.db().table(table).unwrap().len()
}

/// Records in the active WAL file.
fn wal_records(store: &LoggedDatabase) -> usize {
    read_log(store.wal_path()).unwrap().len()
}

/// The writer epoch of a row: the meta table's primary key, the data
/// tables' second column.
fn row_epoch(table: &str, row: &Row) -> i64 {
    let col = if table == KnowledgeSnapshot::TABLE_META {
        0
    } else {
        1
    };
    row.get(col).and_then(Value::as_int).unwrap()
}

fn pks_where(store: &LoggedDatabase, table: &str, keep: impl Fn(i64) -> bool) -> Vec<Value> {
    store
        .db()
        .table(table)
        .unwrap()
        .scan()
        .filter(|r| keep(row_epoch(table, r)))
        .map(|r| r.get(0).cloned().unwrap())
        .collect()
}

const TABLES: [&str; 4] = [
    KnowledgeSnapshot::TABLE_META,
    KnowledgeSnapshot::TABLE_NODES,
    KnowledgeSnapshot::TABLE_VOCAB,
    KnowledgeSnapshot::TABLE_CODES,
];

/// Persist an epoch the way stores were written before the append-only
/// layout: delete the epoch's rows one by one, then a full copy of every
/// node, token and declared code under the epoch, then the meta row.
fn full_copy_save(store: &mut LoggedDatabase, snap: &KnowledgeSnapshot) {
    let epoch = snap.epoch();
    for table in TABLES {
        for pk in pks_where(store, table, |w| w == epoch as i64) {
            store.delete(table, &pk).unwrap();
        }
    }
    let e = epoch as i64;
    let nodes: Vec<Row> = snap
        .kb()
        .nodes()
        .iter()
        .enumerate()
        .map(|(i, node)| {
            let blob: Vec<u8> = node.features.iter().flat_map(u32::to_le_bytes).collect();
            row![
                format!("e{epoch}#{i}"),
                e,
                i as i64,
                node.part_id.clone(),
                node.error_code.clone(),
                blob
            ]
        })
        .collect();
    store
        .insert_many(KnowledgeSnapshot::TABLE_NODES, nodes)
        .unwrap();
    let vocab: Vec<Row> = snap
        .vocab()
        .tokens()
        .enumerate()
        .map(|(i, token)| row![format!("v{epoch}#{i}"), e, i as i64, token])
        .collect();
    store
        .insert_many(KnowledgeSnapshot::TABLE_VOCAB, vocab)
        .unwrap();
    let codes: Vec<Row> = snap
        .declared_codes()
        .iter()
        .enumerate()
        .map(|(i, (part, code))| {
            row![
                format!("c{epoch}#{i}"),
                e,
                i as i64,
                part.clone(),
                code.clone()
            ]
        })
        .collect();
    if !codes.is_empty() {
        store
            .insert_many(KnowledgeSnapshot::TABLE_CODES, codes)
            .unwrap();
    }
    let config = snap.ranker_config();
    store
        .insert(
            KnowledgeSnapshot::TABLE_META,
            row![
                e,
                snap.model().label(),
                config.family.label(),
                config.measure.label(),
                snap.kb().len() as i64,
                snap.vocab().vocabulary_size() as i64
            ],
        )
        .unwrap();
}

/// Retention as stores did it before the append-only layout: every row of
/// every epoch below `keep_from`, one delete each.
fn full_copy_prune(store: &mut LoggedDatabase, keep_from: u64) {
    for table in TABLES {
        for pk in pks_where(store, table, |w| w < keep_from as i64) {
            store.delete(table, &pk).unwrap();
        }
    }
}

#[test]
fn full_copy_store_loads_then_continues_with_deltas() {
    let dir = tmp_dir("full_copy");
    let epochs = chain("fc", 4, 2, 2);
    let mut store = open_store(&dir);
    for snap in &epochs {
        full_copy_save(&mut store, snap);
        if snap.epoch() >= 2 {
            full_copy_prune(&mut store, snap.epoch() - 1);
        }
    }
    // epochs 2 and 3 are retained, each as a full copy
    for e in [2, 3] {
        assert_same_view(&load(&store, e).unwrap(), &epochs[e as usize]);
    }
    for e in [0, 1] {
        assert!(load(&store, e).is_err(), "epoch {e} was pruned");
    }

    // a learn on top is a delta: the node, its new tokens, the new code,
    // the meta row
    let learned = next_epoch(
        Some(&epochs[3]),
        &[("P-03", "E300", "sicherung neuartig geschmolzen".to_owned())],
        &[("P-04", "E400")],
    );
    let before = wal_records(&store);
    learned.save_to_logged(&mut store).unwrap();
    let new_tokens = learned.vocab().vocabulary_size() - epochs[3].vocab().vocabulary_size();
    assert_eq!(new_tokens, 3);
    assert_eq!(wal_records(&store) - before, 1 + new_tokens + 1 + 1);
    // the one-time cleanup: epoch 2's meta row plus its full copy, every
    // row of which epoch 3's copy shadows
    let removed = KnowledgeSnapshot::prune_epochs_below_logged(&mut store, 3).unwrap();
    assert_eq!(
        removed,
        1 + epochs[2].kb().len() + epochs[2].vocab().vocabulary_size() + 2
    );

    let store = crash_and_reopen(store, &dir);
    assert_eq!(
        KnowledgeSnapshot::latest_epoch(store.db()).unwrap(),
        Some(4)
    );
    assert_same_view(&load(&store, 3).unwrap(), &epochs[3]);
    assert_same_view(&load(&store, 4).unwrap(), &learned);
    assert!(load(&store, 2).is_err());
    // the shadowed full copies are gone: one row per ord is left
    assert_eq!(rows(&store, KnowledgeSnapshot::TABLE_META), 2);
    assert_eq!(
        rows(&store, KnowledgeSnapshot::TABLE_NODES),
        learned.kb().len()
    );
    assert_eq!(
        rows(&store, KnowledgeSnapshot::TABLE_VOCAB),
        learned.vocab().vocabulary_size()
    );
    assert_eq!(
        rows(&store, KnowledgeSnapshot::TABLE_CODES),
        learned.declared_codes().len()
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// WAL records one single-instance learn appends, persisted the way a
/// replicated leader does (save, then keep the current and previous
/// epoch), on top of a boot knowledge base of `n` nodes.
fn records_per_learn(n: usize) -> usize {
    let dir = tmp_dir(&format!("cost{n}"));
    let texts: Vec<(String, String, String)> = (0..n)
        .map(|i| {
            (
                format!("P-{:02}", i % 5),
                format!("E{}", 100 + i % 11),
                format!("w{i} w{} common{}", i + 1, i % 7),
            )
        })
        .collect();
    let texts: Vec<(&str, &str, String)> = texts
        .iter()
        .map(|(p, c, t)| (p.as_str(), c.as_str(), t.clone()))
        .collect();
    let boot = next_epoch(None, &texts, &[]);
    assert_eq!(boot.kb().len(), n);
    let mut store = open_store(&dir);
    boot.save_to_logged(&mut store).unwrap();

    let mut current = boot;
    let mut cost = 0;
    for k in 0..2 {
        let next = next_epoch(
            Some(&current),
            &[("P-01", "E100", format!("w1 common3 novel{k}"))],
            &[],
        );
        let before = wal_records(&store);
        next.save_to_logged(&mut store).unwrap();
        if next.epoch() >= 2 {
            KnowledgeSnapshot::prune_epochs_below_logged(&mut store, next.epoch() - 1).unwrap();
        }
        cost = wal_records(&store) - before;
        current = next;
    }
    assert_same_view(
        &KnowledgeSnapshot::load_latest(store.db(), pipeline())
            .unwrap()
            .unwrap(),
        &current,
    );
    std::fs::remove_dir_all(&dir).ok();
    cost
}

#[test]
fn wal_records_per_learn_stay_flat_as_the_knowledge_base_grows() {
    let small = records_per_learn(50);
    let large = records_per_learn(2_000);
    // the node, the new token, the meta row, and the retired meta row
    assert_eq!(small, 4);
    assert_eq!(large, small);
}

#[test]
fn a_snapshot_from_another_chain_loads_exactly_and_leaves_older_epochs_alone() {
    let dir = tmp_dir("other_chain");
    let a = chain("a", 4, 1, 5);
    let mut store = open_store(&dir);
    for snap in &a {
        snap.save_to_logged(&mut store).unwrap();
    }
    // another chain, narrower, at epoch 2: a full write that retires
    // epochs 2 and up, whose rows it would otherwise share
    let b = chain("b", 3, 1, 1);
    b[2].save_to_logged(&mut store).unwrap();
    assert_eq!(
        KnowledgeSnapshot::latest_epoch(store.db()).unwrap(),
        Some(2)
    );
    assert_same_view(&load(&store, 2).unwrap(), &b[2]);
    assert!(
        load(&store, 3).is_err(),
        "epoch 3 of the old chain is retired"
    );
    for e in [0, 1] {
        assert_same_view(&load(&store, e).unwrap(), &a[e as usize]);
    }

    // the new chain continues as deltas on its own epoch
    let b3 = next_epoch(
        Some(&b[2]),
        &[("P-03", "E300", "kontakt b3 defekt".to_owned())],
        &[],
    );
    let before = wal_records(&store);
    b3.save_to_logged(&mut store).unwrap();
    assert_eq!(wal_records(&store) - before, 3, "node, new token, meta row");
    for e in [0, 1] {
        assert_same_view(&load(&store, e).unwrap(), &a[e as usize]);
    }
    KnowledgeSnapshot::prune_epochs_below_logged(&mut store, 2).unwrap();

    let store = crash_and_reopen(store, &dir);
    assert_same_view(&load(&store, 2).unwrap(), &b[2]);
    assert_same_view(&load(&store, 3).unwrap(), &b3);
    // the old chain's rows are all gone: shadowed, or past every count
    assert_eq!(rows(&store, KnowledgeSnapshot::TABLE_NODES), b3.kb().len());
    assert_eq!(
        rows(&store, KnowledgeSnapshot::TABLE_VOCAB),
        b3.vocab().vocabulary_size()
    );
    assert_eq!(rows(&store, KnowledgeSnapshot::TABLE_CODES), 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn another_chain_with_fewer_declared_codes_retires_the_epochs_that_wrote_more() {
    let a = chain("a", 3, 3, 2);
    let mut db = Database::new();
    for snap in &a {
        snap.save_to_db(&mut db).unwrap();
    }
    // the meta row carries no code count, so the new epoch would load the
    // old chain's codes past its own one as its own: their writers go
    let b = chain("b", 3, 1, 2);
    b[2].save_to_db(&mut db).unwrap();
    let loaded = KnowledgeSnapshot::load_epoch(&db, pipeline(), 2).unwrap();
    assert_eq!(loaded.declared_codes(), b[2].declared_codes());
    assert_eq!(loaded.kb().nodes(), b[2].kb().nodes());
    for e in [0, 1] {
        assert!(KnowledgeSnapshot::load_epoch(&db, pipeline(), e).is_err());
    }
    assert_eq!(db.table(KnowledgeSnapshot::TABLE_CODES).unwrap().len(), 1);
    assert_eq!(
        db.table(KnowledgeSnapshot::TABLE_NODES).unwrap().len(),
        b[2].kb().len()
    );
}

#[test]
fn a_resave_of_the_newest_epoch_is_a_full_overwrite() {
    let dir = tmp_dir("resave");
    let a = chain("r", 3, 1, 2);
    let mut store = open_store(&dir);
    for snap in &a {
        snap.save_to_logged(&mut store).unwrap();
    }
    let nodes = rows(&store, KnowledgeSnapshot::TABLE_NODES);
    a[2].save_to_logged(&mut store).unwrap();
    // epoch 2 now holds a full copy; epochs 0 and 1 still load as before
    assert_eq!(
        rows(&store, KnowledgeSnapshot::TABLE_NODES),
        nodes + a[1].kb().len()
    );
    for (e, snap) in a.iter().enumerate() {
        assert_same_view(&load(&store, e as u64).unwrap(), snap);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_missing_row_is_corruption_not_a_shorter_epoch() {
    let a = chain("m", 2, 0, 2);
    let mut db = Database::new();
    for snap in &a {
        snap.save_to_db(&mut db).unwrap();
    }
    db.delete(KnowledgeSnapshot::TABLE_NODES, &Value::from("e1#2"))
        .unwrap();
    let err = KnowledgeSnapshot::load_epoch(&db, pipeline(), 1).unwrap_err();
    assert!(
        matches!(&err, StoreError::Corrupt(m) if m.contains("no row for ord 2")),
        "{err:?}"
    );
    // epoch 0 never loaded that row
    assert_same_view(
        &KnowledgeSnapshot::load_epoch(&db, pipeline(), 0).unwrap(),
        &a[0],
    );
}

#[test]
fn a_traced_learn_shows_a_delta_persist_and_a_prune() {
    let _guard = qatk_trace::test_lock();
    qatk_trace::set_enabled(true);
    let dir = tmp_dir("traced");
    let a = chain("t", 3, 0, 2);
    let mut store = open_store(&dir);
    a[0].save_to_logged(&mut store).unwrap();
    a[1].save_to_logged(&mut store).unwrap();

    let id = qatk_trace::TraceId::from_u64(0x5EA1_DE17).unwrap();
    {
        let _root = qatk_trace::root_span("test.learn", Some(id));
        a[2].save_to_logged(&mut store).unwrap();
        KnowledgeSnapshot::prune_epochs_below_logged(&mut store, 1).unwrap();
    }
    let trees = qatk_trace::store().lookup(id);
    let tree = trees.first().expect("learn tree captured");
    let span = |name: &str| {
        tree.spans
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("{name} span missing"))
    };
    let note = |name: &str, key: &str| {
        span(name)
            .notes
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.clone())
    };
    use qatk_trace::Value as Note;
    assert_eq!(
        note("snapshot.persist", "write"),
        Some(Note::Static("delta"))
    );
    // two nodes, two new tokens, the meta row
    assert_eq!(note("snapshot.persist", "rows_written"), Some(Note::U64(5)));
    assert_eq!(note("snapshot.persist", "rows_deleted"), Some(Note::U64(0)));
    assert_eq!(note("snapshot.prune", "rows_deleted"), Some(Note::U64(1)));
    let appends = tree
        .spans
        .iter()
        .filter(|s| s.name == "store.wal_append")
        .count();
    assert_eq!(appends, 4, "nodes, vocab, meta, retired meta");
    std::fs::remove_dir_all(&dir).ok();
}
