//! The traced run: the public call into each layer, timed from outside the
//! program on the workload's own request set. Every timed call is also
//! recorded as a span (name, start, end, parent, request id); the spans
//! stay in memory and are written out when the run ends.

use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use qatk_core::prelude::*;
use qatk_corpus::prelude::*;
use qatk_serve::http::RequestParser;
use qatk_serve::{Handler, Request};
use qatk_store::prelude::*;
use qatk_text::prelude::*;
use quest::prelude::*;

use crate::load::{Conn, Outcome, Tally};
use crate::requests::{scan, RequestSet, TOP};
use crate::stats::median;

/// Passes over the request set; each layer's time per request is the
/// median of its passes.
const PASSES: usize = 3;

/// In-process learns timed stage by stage.
const LEARNS: usize = 12;

/// In-process learns whose snapshot is also persisted through a WAL (each
/// pays one fsync per logged record under `SyncPolicy::Always`).
const PERSISTED_LEARNS: usize = 6;

struct Span {
    id: u32,
    parent: u32,
    request: u32,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// Spans of the traced run, kept in memory until [`Spans::write`].
pub struct Spans {
    base: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            base: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Record one span; returns its id (ids start at 1, parent 0 is none).
    fn push(
        &mut self,
        name: &'static str,
        parent: u32,
        request: u32,
        t: (Instant, Instant),
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns: (t.0 - self.base).as_nanos() as u64,
            end_ns: (t.1 - self.base).as_nanos() as u64,
        });
        id
    }

    /// Write one JSON object per span.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// The engines of the serving pipeline, built the way
/// `qatk_core::build_pipeline` builds them, so each can be called alone.
struct Engines {
    tokenizer: WhitespaceTokenizer,
    langdetect: LanguageDetector,
    annotator: Option<ConceptAnnotator>,
}

impl Engines {
    fn for_model(train: &Corpus, model: FeatureModel, snapshot: &KnowledgeSnapshot) -> Engines {
        let engines = Engines {
            tokenizer: WhitespaceTokenizer::new(),
            langdetect: LanguageDetector::new(),
            annotator: (model == FeatureModel::BagOfConcepts)
                .then(|| ConceptAnnotator::new(&train.taxonomy.taxonomy)),
        };
        let mut names = vec![engines.tokenizer.name(), engines.langdetect.name()];
        names.extend(engines.annotator.as_ref().map(|a| a.name()));
        assert_eq!(
            names,
            snapshot.pipeline().engine_names(),
            "the ladder must call the serving pipeline's engines"
        );
        engines
    }
}

/// Per-layer results, each a median over the request set (times in µs or
/// ms, counts per request or per learn).
#[derive(Default)]
pub struct Layers {
    pub values: Vec<(&'static str, f64)>,
    /// Why a layer does no work on this workload. Its counts read 0; its
    /// times are the mean measured cost of the empty step, which is the
    /// clock reads around it.
    pub absent: Vec<(&'static str, &'static str)>,
    pub tally: Tally,
}

impl Layers {
    fn set(&mut self, name: &'static str, v: f64) {
        self.values.push((name, v));
    }

    pub fn absent(&mut self, name: &'static str, value: f64, why: &'static str) {
        self.values.push((name, value));
        self.absent.push((name, why));
    }
}

/// Mean of `v` (0 when empty).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

fn us(t: (Instant, Instant)) -> f64 {
    (t.1 - t.0).as_nanos() as f64 / 1e3
}

fn ms(t: (Instant, Instant)) -> f64 {
    (t.1 - t.0).as_nanos() as f64 / 1e6
}

fn request(body: &str) -> Request {
    let raw = format!(
        "POST /suggest HTTP/1.1\r\nHost: qatk\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let mut p = RequestParser::new(Default::default());
    p.push(raw.as_bytes());
    p.take_request()
        .expect("benchmark requests are well-formed HTTP")
        .expect("benchmark requests are complete")
}

fn answer_is(body: &[u8], expected: &[String]) -> bool {
    scan(body).is_some_and(|a| a.codes == expected)
}

/// Median over requests of `per_request(r)`.
fn across(n: usize, per_request: impl Fn(usize) -> f64) -> f64 {
    let v: Vec<f64> = (0..n).map(per_request).collect();
    median(&v).unwrap_or(0.0)
}

/// The read path: `QuestApp::handle`, each text engine, extraction and
/// ranking in process, then the HTTP round trip on one connection.
#[allow(clippy::too_many_arguments)]
pub fn read_path(
    spans: &mut Spans,
    layers: &mut Layers,
    train: &Corpus,
    model: FeatureModel,
    app: &QuestApp,
    conn: &mut Conn,
    set: &RequestSet,
    expected: &[Vec<String>],
) {
    let snapshot = app.service().snapshot();
    let engines = Engines::for_model(train, model, &snapshot);
    let n = set.bodies.len();
    let requests: Vec<Request> = set.bodies.iter().map(|b| request(b)).collect();
    let want_features: Vec<FeatureSet> = set
        .wire
        .iter()
        .map(|b| crate::requests::features(&snapshot, b))
        .collect();
    // [layer][request][pass]
    const HANDLE: usize = 0;
    const TOKENIZE: usize = 1;
    const LANGDETECT: usize = 2;
    const ANNOTATE: usize = 3;
    const EXTRACT: usize = 4;
    const RANK: usize = 5;
    const TRACED: usize = 6;
    const UNTRACED: usize = 7;
    const ROUNDTRIP: usize = 8;
    let mut t = vec![vec![Vec::with_capacity(PASSES); n]; 9];
    let mut tokens = vec![0.0; n];
    let mut concepts = vec![0.0; n];
    let mut candidates = vec![0.0; n];

    for pass in 0..PASSES {
        for r in 0..n {
            let rid = (pass * n + r) as u32;
            let bundle = &set.wire[r];
            let root = spans.push("request", 0, rid, (Instant::now(), Instant::now()));

            // QuestApp::handle, the whole in-process request; it runs first
            // or last in turn, so neither side always meets cold caches
            let handle = |spans: &mut Spans, t: &mut Vec<Vec<Vec<f64>>>| {
                let t0 = Instant::now();
                let resp = app.handle(&requests[r]);
                let t1 = Instant::now();
                spans.push("quest.handle", root, rid, (t0, t1));
                t[HANDLE][r].push(us((t0, t1)));
                if resp.status != 200 {
                    Outcome::Status(resp.status)
                } else if answer_is(&resp.body, &expected[r]) {
                    Outcome::Ok
                } else {
                    Outcome::Wrong
                }
            };
            let first = (pass + r) % 2 == 0;
            if first {
                let outcome = handle(spans, &mut t);
                layers.tally.record(outcome);
            }

            // the same calls untimed (one clock pair) and timed per layer,
            // in alternating order; the difference is the tracing overhead
            let untraced = |t: &mut Vec<Vec<Vec<f64>>>| {
                let a = Instant::now();
                let mut cas = bundle.to_cas(SourceSelection::Test);
                engines.tokenizer.process(&mut cas).expect("tokenizer");
                engines
                    .langdetect
                    .process(&mut cas)
                    .expect("language detector");
                if let Some(ann) = &engines.annotator {
                    ann.process(&mut cas).expect("concept annotator");
                }
                let f = snapshot.extract(&cas);
                let ranked = snapshot.ranker().rank(
                    snapshot.kb(),
                    Some(snapshot.index()),
                    &bundle.part_id,
                    &f,
                );
                std::hint::black_box(ranked);
                t[UNTRACED][r].push(us((a, Instant::now())));
            };
            if first {
                untraced(&mut t);
            }
            let a = Instant::now();
            let mut cas = bundle.to_cas(SourceSelection::Test);
            let b = Instant::now();
            engines.tokenizer.process(&mut cas).expect("tokenizer");
            let c = Instant::now();
            engines
                .langdetect
                .process(&mut cas)
                .expect("language detector");
            let d = Instant::now();
            if let Some(ann) = &engines.annotator {
                ann.process(&mut cas).expect("concept annotator");
            }
            let e = Instant::now();
            let f = snapshot.extract(&cas);
            let g = Instant::now();
            let ranked =
                snapshot
                    .ranker()
                    .rank(snapshot.kb(), Some(snapshot.index()), &bundle.part_id, &f);
            let h = Instant::now();
            for (layer, name, span) in [
                (TOKENIZE, "text.tokenize", (b, c)),
                (LANGDETECT, "text.langdetect", (c, d)),
                (ANNOTATE, "text.annotate", (d, e)),
                (EXTRACT, "core.extract", (e, g)),
                (RANK, "core.rank", (g, h)),
            ] {
                spans.push(name, root, rid, span);
                t[layer][r].push(us(span));
            }
            t[TRACED][r].push(us((a, Instant::now())));
            if !first {
                untraced(&mut t);
                let outcome = handle(spans, &mut t);
                layers.tally.record(outcome);
            }
            let ok = f == want_features[r]
                && ranked
                    .iter()
                    .take(TOP)
                    .map(|s| s.code.as_str())
                    .eq(expected[r].iter().map(String::as_str));
            layers
                .tally
                .record(if ok { Outcome::Ok } else { Outcome::Wrong });
            if pass == 0 {
                tokens[r] = cas.tokens().count() as f64;
                concepts[r] = cas.concept_mentions().count() as f64;
                candidates[r] = snapshot.kb().candidates(&bundle.part_id, &f).len() as f64;
            }
            let end = Instant::now();
            spans.spans[root as usize - 1].end_ns = (end - spans.base).as_nanos() as u64;
        }
    }

    // one connection, one request at a time: the HTTP round trip
    for pass in 0..PASSES {
        for r in 0..n {
            let t0 = Instant::now();
            let resp = conn.post("/suggest", &set.bodies[r]);
            let t1 = Instant::now();
            spans.push("serve.roundtrip", 0, (pass * n + r) as u32, (t0, t1));
            let outcome = match resp {
                Err(_) => Outcome::Transport,
                Ok(resp) if resp.status != 200 => Outcome::Status(resp.status),
                Ok(resp) if answer_is(&resp.body, &expected[r]) => Outcome::Ok,
                Ok(_) => Outcome::Wrong,
            };
            layers.tally.record(outcome);
            if outcome == Outcome::Ok {
                t[ROUNDTRIP][r].push(us((t0, t1)));
            }
        }
    }

    let med: Vec<Vec<f64>> = t
        .iter()
        .map(|layer| layer.iter().map(|s| median(s).unwrap_or(0.0)).collect())
        .collect();
    let children = |r: usize| -> f64 { (TOKENIZE..=RANK).map(|l| med[l][r]).sum() };
    layers.set("serve.roundtrip_us", across(n, |r| med[ROUNDTRIP][r]));
    layers.set(
        "serve.overhead_us",
        across(n, |r| med[ROUNDTRIP][r] - med[HANDLE][r]),
    );
    layers.set("quest.handle_us", across(n, |r| med[HANDLE][r]));
    layers.set(
        "quest.unattributed_us",
        across(n, |r| med[HANDLE][r] - children(r)),
    );
    layers.set("text.tokenize_us", across(n, |r| med[TOKENIZE][r]));
    layers.set("text.langdetect_us", across(n, |r| med[LANGDETECT][r]));
    layers.set("text.tokens_per_request", across(n, |r| tokens[r]));
    if engines.annotator.is_some() {
        layers.set("text.annotate_us", across(n, |r| med[ANNOTATE][r]));
        layers.set("text.concepts_per_request", across(n, |r| concepts[r]));
    } else {
        let why = "this feature model's pipeline has no concept annotator";
        let empty: Vec<f64> = t[ANNOTATE].concat();
        layers.absent("text.annotate_us", mean(&empty), why);
        layers.absent("text.concepts_per_request", 0.0, why);
    }
    layers.set("core.extract_us", across(n, |r| med[EXTRACT][r]));
    layers.set(
        "core.features_per_query",
        across(n, |r| want_features[r].len() as f64),
    );
    layers.set("core.rank_us", across(n, |r| med[RANK][r]));
    layers.set("core.candidates_per_query", across(n, |r| candidates[r]));
    layers.set(
        "trace.overhead_us",
        across(n, |r| med[TRACED][r] - med[UNTRACED][r]),
    );
}

/// A counter's current value in the global registry (0 before first use).
pub fn counter(name: &str) -> u64 {
    qatk_obs::Registry::global()
        .snapshot()
        .counter(name)
        .unwrap_or(0)
}

/// The write path in process: copy-on-write clone, train one instance,
/// seal — and, for a replicating leader, persist the sealed epoch through a
/// WAL of its own (no follower attached, so every WAL counter delta is the
/// leader's).
pub fn write_path(
    spans: &mut Spans,
    layers: &mut Layers,
    svc: &RecommendationService,
    set: &RequestSet,
    store_dir: Option<&Path>,
) -> Result<(), String> {
    let mut store = match store_dir {
        None => None,
        Some(dir) => {
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
            let (mut store, _) = LoggedDatabase::open_with_retention(
                dir.join("snap.qdb"),
                dir.join("wal.log"),
                SyncPolicy::Always,
                SegmentRetention::Keep(8),
            )
            .map_err(|e| e.to_string())?;
            if KnowledgeSnapshot::ensure_replicated_tables(&mut store).map_err(|e| e.to_string())? {
                store.checkpoint().map_err(|e| e.to_string())?;
            }
            svc.snapshot()
                .save_to_logged(&mut store)
                .map_err(|e| e.to_string())?;
            Some(store)
        }
    };
    let learns = if store.is_some() {
        PERSISTED_LEARNS
    } else {
        LEARNS
    };
    let (mut clone, mut train, mut seal) = (Vec::new(), Vec::new(), Vec::new());
    let (mut persist, mut records, mut bytes, mut syncs) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut current: Arc<KnowledgeSnapshot> = svc.snapshot();
    for k in 0..learns {
        let r = set.learn_order[k % set.learn_order.len()];
        let rid = k as u32;
        let a = Instant::now();
        let mut builder = SnapshotBuilder::from_snapshot(&current);
        let b = Instant::now();
        let mut cas = set.wire[r].to_cas(SourceSelection::Training);
        let c = Instant::now();
        builder
            .train_instance(&mut cas, &set.wire[r].part_id, &set.truth[r])
            .map_err(|e| e.to_string())?;
        let d = Instant::now();
        let next = builder.seal();
        let e = Instant::now();
        let root = spans.push("learn", 0, rid, (a, e));
        spans.push("core.cow_clone", root, rid, (a, b));
        spans.push("core.train_instance", root, rid, (c, d));
        spans.push("core.seal", root, rid, (d, e));
        clone.push(ms((a, b)));
        train.push(ms((c, d)));
        seal.push(ms((d, e)));
        if let Some(store) = store.as_mut() {
            let before = [
                counter("qatk_store_wal_appends_total"),
                counter("qatk_store_wal_bytes_total"),
                counter("qatk_store_wal_syncs_total"),
            ];
            let f = Instant::now();
            next.save_to_logged(store).map_err(|e| e.to_string())?;
            if next.epoch() >= 2 {
                KnowledgeSnapshot::prune_epochs_below_logged(store, next.epoch() - 1)
                    .map_err(|e| e.to_string())?;
            }
            let g = Instant::now();
            spans.push("store.persist", root, rid, (f, g));
            persist.push(ms((f, g)));
            records.push((counter("qatk_store_wal_appends_total") - before[0]) as f64);
            bytes.push((counter("qatk_store_wal_bytes_total") - before[1]) as f64);
            syncs.push((counter("qatk_store_wal_syncs_total") - before[2]) as f64);
        } else {
            let f = Instant::now();
            let g = Instant::now();
            persist.push(ms((f, g)));
        }
        current = Arc::new(next);
        layers.tally.record(Outcome::Ok);
    }
    let m = |v: &[f64]| median(v).unwrap_or(0.0);
    layers.set("core.cow_clone_ms", m(&clone));
    layers.set("core.train_instance_ms", m(&train));
    layers.set("core.seal_ms", m(&seal));
    if store.is_some() {
        layers.set("store.persist_ms", m(&persist));
        layers.set("store.wal_records_per_learn", m(&records));
        layers.set("store.wal_bytes_per_learn", m(&bytes));
        layers.set("store.wal_syncs_per_learn", m(&syncs));
    } else {
        let why = "this workload's server has no store: learns publish in memory";
        layers.absent("store.persist_ms", mean(&persist), why);
        for name in [
            "store.wal_records_per_learn",
            "store.wal_bytes_per_learn",
            "store.wal_syncs_per_learn",
        ] {
            layers.absent(name, 0.0, why);
        }
    }
    drop(store);
    if let Some(dir) = store_dir {
        std::fs::remove_dir_all(dir).ok();
    }
    Ok(())
}
