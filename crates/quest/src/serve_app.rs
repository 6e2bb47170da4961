//! The QUEST HTTP application: routing and JSON endpoint semantics over
//! [`RecommendationService`], served by the generic `qatk-serve` kernel
//! (which knows HTTP, not QUEST). Wire contract in DESIGN.md §10.
//!
//! Endpoints:
//!
//! * `POST /suggest` — top-10 suggestions for one bundle-shaped document;
//! * `POST /classify_batch` — rank external texts, all pinned to one epoch;
//! * `POST /learn` — enqueue learn instances and publish one new epoch;
//!   a 200 response means the instances are *published* (the handler holds
//!   the ack until [`RecommendationService::publish_pending`] returns);
//! * `GET /healthz` — epoch, knowledge-base size, recovery status, uptime;
//! * `GET /metrics` — the full `qatk_*` Prometheus exposition;
//! * `GET /debug/traces` — recently captured trace trees (JSON array);
//! * `GET /debug/traces/slow` — the always-retained slow-request log.
//!
//! Every `/suggest`, `/classify_batch` and `/learn` request runs under a
//! root span. The client may pin the trace id with an `x-qatk-trace`
//! header (hex); otherwise one is minted. Either way the id is echoed back
//! in the response's `x-qatk-trace` header.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use qatk_corpus::bundle::DataBundle;
use qatk_obs::json::{self, Value};
use qatk_obs::Registry;
use qatk_repl::{LeaderStatus, ReplicaStatus};
use qatk_serve::{Handler, Method, Request, Response};

use crate::service::{RecommendationService, Suggestions};

/// Max texts per `/classify_batch` request.
pub const MAX_BATCH_TEXTS: usize = 1024;

/// Max instances per `/learn` request.
pub const MAX_LEARN_INSTANCES: usize = 1024;

/// Live replication status surfaced through `/healthz`: which role this
/// process plays and the counters the role's runtime publishes.
#[derive(Debug, Clone)]
pub enum ReplicationHealth {
    /// This process ships its WAL to followers.
    Leader(Arc<LeaderStatus>),
    /// This process replays a leader's WAL and serves read-only.
    Replica(Arc<ReplicaStatus>),
}

/// What `/healthz` reports about boot-time recovery (and, when replication
/// is on, the live replication role + lag).
#[derive(Debug, Clone, Default)]
pub struct HealthInfo {
    /// The service was recovered from a snapshot + WAL (vs freshly trained).
    pub recovered: bool,
    /// Recovery truncated a torn WAL tail.
    pub torn_tail: bool,
    pub segments_replayed: usize,
    pub records_replayed: usize,
    /// Present when this process replicates (leader or replica).
    pub replication: Option<ReplicationHealth>,
}

/// Called after `/learn` publishes a new epoch, before the 200 goes out —
/// the leader persists the published snapshot through its WAL here, so the
/// ack also means "shipped to the log". An `Err` turns the ack into a 500.
pub type PublishHook = Arc<dyn Fn(&RecommendationService) -> Result<(), String> + Send + Sync>;

/// The QUEST [`Handler`]: owns the service and the boot health report.
pub struct QuestApp {
    svc: Arc<RecommendationService>,
    health: HealthInfo,
    /// Read replicas reject `/learn`: writes belong to the leader.
    read_only: bool,
    on_publish: Option<PublishHook>,
    /// When this handler was constructed; `/healthz` reports the elapsed
    /// time as `uptime_secs`.
    boot: Instant,
    /// Monotonic count of requests routed through [`Handler::handle`].
    requests: AtomicU64,
}

impl QuestApp {
    pub fn new(svc: Arc<RecommendationService>, health: HealthInfo) -> Self {
        QuestApp {
            svc,
            health,
            read_only: false,
            on_publish: None,
            boot: Instant::now(),
            requests: AtomicU64::new(0),
        }
    }

    /// Serve read-only: `/learn` answers 403 pointing writers at the leader.
    pub fn read_only(mut self) -> Self {
        self.read_only = true;
        self
    }

    /// Install a hook that runs after every `/learn` publish, before the ack.
    pub fn with_publish_hook(mut self, hook: PublishHook) -> Self {
        self.on_publish = Some(hook);
        self
    }

    pub fn service(&self) -> &Arc<RecommendationService> {
        &self.svc
    }

    fn suggest(&self, req: &Request) -> Response {
        let doc = match parse_body(req) {
            Ok(v) => v,
            Err(r) => return r,
        };
        let bundle = match bundle_from_json(&doc) {
            Ok(b) => b,
            Err(msg) => return bad_request(&msg),
        };
        // pin one snapshot so the reported epoch is the one that ranked
        let snapshot = self.svc.snapshot();
        let s = self.svc.suggest_on(&snapshot, &bundle);
        Response::json(200, render_suggestions_json(snapshot.epoch(), &s)).with_endpoint("suggest")
    }

    fn classify_batch(&self, req: &Request) -> Response {
        let doc = match parse_body(req) {
            Ok(v) => v,
            Err(r) => return r,
        };
        let Some(texts_json) = doc.get("texts").and_then(Value::as_arr) else {
            return bad_request("field \"texts\" (array of strings) is required");
        };
        if texts_json.len() > MAX_BATCH_TEXTS {
            return bad_request(&format!(
                "at most {MAX_BATCH_TEXTS} texts per batch (got {})",
                texts_json.len()
            ));
        }
        let mut texts = Vec::with_capacity(texts_json.len());
        for (i, t) in texts_json.iter().enumerate() {
            match t.as_str() {
                Some(s) => texts.push(s),
                None => return bad_request(&format!("texts[{i}] is not a string")),
            }
        }
        let part_id = doc
            .get("part_id")
            .and_then(Value::as_str)
            .unwrap_or("<external>");
        let snapshot = self.svc.snapshot();
        let results = self
            .svc
            .classify_external_batch_on(&snapshot, &texts, part_id);
        let mut out = format!("{{\"epoch\":{},\"results\":[", snapshot.epoch());
        for (i, ranked) in results.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_scored_codes(&mut out, ranked);
        }
        out.push_str("]}");
        Response::json(200, out).with_endpoint("classify_batch")
    }

    fn learn(&self, req: &Request) -> Response {
        if self.read_only {
            return Response::error_json(
                403,
                "this node is a read-only replica; POST /learn to the leader",
            )
            .with_endpoint("learn");
        }
        let doc = match parse_body(req) {
            Ok(v) => v,
            Err(r) => return r,
        };
        // either {"instances":[...]} or a single instance object
        let instances: Vec<&Value> = match doc.get("instances") {
            Some(v) => match v.as_arr() {
                Some(a) => a.iter().collect(),
                None => return bad_request("field \"instances\" must be an array"),
            },
            None => vec![&doc],
        };
        if instances.is_empty() {
            return bad_request("no learn instances given");
        }
        if instances.len() > MAX_LEARN_INSTANCES {
            return bad_request(&format!(
                "at most {MAX_LEARN_INSTANCES} instances per request (got {})",
                instances.len()
            ));
        }
        let mut parsed = Vec::with_capacity(instances.len());
        for (i, inst) in instances.iter().enumerate() {
            let bundle = match bundle_from_json(inst) {
                Ok(b) => b,
                Err(msg) => return bad_request(&format!("instances[{i}]: {msg}")),
            };
            let Some(code) = inst.get("code").and_then(Value::as_str) else {
                return bad_request(&format!("instances[{i}]: field \"code\" is required"));
            };
            parsed.push((bundle, code.to_owned()));
        }
        let enqueued = parsed.len();
        for (bundle, code) in &parsed {
            self.svc.enqueue_learn(bundle, code);
        }
        // the ack contract: publish_pending() has returned — and with it the
        // epoch swap installed — before the 200 goes out. A response the
        // client saw is never lost to a later shutdown.
        let added = self.svc.publish_pending();
        if let Some(hook) = &self.on_publish {
            if let Err(e) = hook(&self.svc) {
                return Response::error_json(
                    500,
                    &format!("persisting published epoch failed: {e}"),
                )
                .with_endpoint("learn");
            }
        }
        let body = format!(
            "{{\"enqueued\":{enqueued},\"added\":{added},\"epoch\":{}}}",
            self.svc.epoch()
        );
        Response::json(200, body).with_endpoint("learn")
    }

    fn healthz(&self) -> Response {
        let snapshot = self.svc.snapshot();
        let mut body = format!(
            "{{\"status\":\"ok\",\"epoch\":{},\"kb_len\":{},\"pending\":{},\"model\":\"{}\",\"classifier\":\"{}\",\"measure\":\"{}\",\"recovered\":{},\"torn_tail\":{},\"segments_replayed\":{},\"records_replayed\":{}",
            snapshot.epoch(),
            snapshot.kb().len(),
            self.svc.pending_len(),
            json::escape(&snapshot.model().label()),
            snapshot.ranker_config().family.label(),
            snapshot.ranker_config().measure.label(),
            self.health.recovered,
            self.health.torn_tail,
            self.health.segments_replayed,
            self.health.records_replayed,
        );
        body.push_str(&format!(
            ",\"uptime_secs\":{},\"requests_total\":{}",
            self.boot.elapsed().as_secs(),
            self.requests.load(Ordering::Relaxed),
        ));
        match &self.health.replication {
            None => {}
            Some(ReplicationHealth::Leader(status)) => {
                let (tip_segment, tip_offset) = status.tip();
                let (acked_segment, acked_offset) = match status.min_acked() {
                    Some(c) => (c.segment as i64, c.offset as i64),
                    None => (-1, -1),
                };
                body.push_str(&format!(
                    ",\"replication\":{{\"role\":\"leader\",\"followers\":{},\"sessions_started\":{},\"tip_segment\":{tip_segment},\"tip_offset\":{tip_offset},\"min_acked_segment\":{acked_segment},\"min_acked_offset\":{acked_offset}}}",
                    status.followers(),
                    status.sessions_started(),
                ));
            }
            Some(ReplicationHealth::Replica(status)) => {
                let applied = status.applied();
                let (leader_segment, leader_offset) = status.leader_tip();
                body.push_str(&format!(
                    ",\"replication\":{{\"role\":\"replica\",\"connected\":{},\"applied_watermark\":{},\"applied_segment\":{},\"applied_offset\":{},\"leader_tip_segment\":{leader_segment},\"leader_tip_offset\":{leader_offset},\"lag_bytes\":{},\"records_applied\":{}}}",
                    status.connected(),
                    applied.watermark,
                    applied.segment,
                    applied.offset,
                    status.lag_bytes(),
                    status.records_applied(),
                ));
            }
        }
        body.push('}');
        Response::json(200, body).with_endpoint("healthz")
    }

    fn metrics(&self) -> Response {
        // The Prometheus text exposition format carries its version in the
        // content type; scrapers key on it.
        Response::new(
            200,
            "text/plain; version=0.0.4",
            Registry::global().render_prometheus(),
        )
        .with_endpoint("metrics")
    }

    fn debug_traces(&self, slow: bool) -> Response {
        let store = qatk_trace::store();
        let trees = if slow { store.slow() } else { store.recent() };
        Response::json(200, qatk_trace::render::render_trees_json(&trees)).with_endpoint(if slow {
            "debug_traces_slow"
        } else {
            "debug_traces"
        })
    }

    /// Run one endpoint handler under a root span, honouring an incoming
    /// `x-qatk-trace` header and echoing the trace id on the response. With
    /// tracing disabled no span is captured, but a client-pinned id still
    /// round-trips.
    fn traced(&self, name: &'static str, req: &Request, f: impl FnOnce() -> Response) -> Response {
        let incoming = req
            .header("x-qatk-trace")
            .and_then(qatk_trace::TraceId::parse_hex);
        let span = qatk_trace::root_span(name, incoming);
        let trace = span
            .trace_id()
            .or(incoming)
            .map_or(0, qatk_trace::TraceId::as_u64);
        f().with_trace(trace)
    }
}

impl Handler for QuestApp {
    fn handle(&self, req: &Request) -> Response {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let get_like = matches!(req.method, Method::Get | Method::Head);
        match req.path() {
            "/suggest" if req.method == Method::Post => {
                self.traced("serve.suggest", req, || self.suggest(req))
            }
            "/classify_batch" if req.method == Method::Post => {
                self.traced("serve.classify_batch", req, || self.classify_batch(req))
            }
            "/learn" if req.method == Method::Post => {
                self.traced("serve.learn", req, || self.learn(req))
            }
            "/healthz" if get_like => self.healthz(),
            "/metrics" if get_like => self.metrics(),
            "/debug/traces" if get_like => self.debug_traces(false),
            "/debug/traces/slow" if get_like => self.debug_traces(true),
            "/suggest" | "/classify_batch" | "/learn" => {
                Response::error_json(405, "use POST").with_allow("POST")
            }
            "/healthz" | "/metrics" | "/debug/traces" | "/debug/traces/slow" => {
                Response::error_json(405, "use GET").with_allow("GET, HEAD")
            }
            _ => Response::error_json(404, "no such endpoint"),
        }
    }
}

fn bad_request(msg: &str) -> Response {
    Response::error_json(400, msg)
}

/// Parse the request body as a JSON document.
fn parse_body(req: &Request) -> Result<Value, Response> {
    let text = std::str::from_utf8(&req.body)
        .map_err(|_| bad_request("request body is not valid UTF-8"))?;
    if text.trim().is_empty() {
        return Err(bad_request(
            "request body is empty; expected a JSON document",
        ));
    }
    json::parse(text).map_err(|e| bad_request(&format!("invalid JSON: {e}")))
}

/// Build a [`DataBundle`] from a request document. Only `part_id` is
/// required; text fields default to empty and `"text"` is an alias for the
/// supplier report (the strongest single source, paper §5.2).
fn bundle_from_json(doc: &Value) -> Result<DataBundle, String> {
    if doc.as_obj().is_none() {
        return Err("expected a JSON object".to_owned());
    }
    let field = |name: &str| -> Result<String, String> {
        match doc.get(name) {
            None | Some(Value::Null) => Ok(String::new()),
            Some(v) => v
                .as_str()
                .map(str::to_owned)
                .ok_or_else(|| format!("field \"{name}\" is not a string")),
        }
    };
    let opt = |name: &str| -> Result<Option<String>, String> {
        Ok(Some(field(name)?).filter(|s| !s.is_empty()))
    };
    let part_id = field("part_id")?;
    if part_id.is_empty() {
        return Err("field \"part_id\" is required".to_owned());
    }
    let mut supplier_report = field("supplier_report")?;
    if supplier_report.is_empty() {
        supplier_report = field("text")?;
    }
    Ok(DataBundle {
        reference_number: field("reference_number")?,
        article_code: field("article_code")?,
        part_id,
        error_code: None,
        responsibility_code: opt("responsibility_code")?,
        mechanic_report: field("mechanic_report")?,
        initial_report: opt("initial_report")?,
        supplier_report,
        final_report: opt("final_report")?,
        part_description: field("part_description")?,
        error_description: None,
    })
}

fn render_suggestions_json(epoch: u64, s: &Suggestions) -> String {
    let mut out = format!(
        "{{\"epoch\":{epoch},\"reference_number\":\"{}\",\"top\":",
        json::escape(&s.reference_number)
    );
    push_scored_codes(&mut out, &s.top);
    out.push_str(",\"all_codes_for_part\":[");
    for (i, code) in s.all_codes_for_part.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(&json::escape(code));
        out.push('"');
    }
    out.push_str("]}");
    out
}

fn push_scored_codes(out: &mut String, ranked: &[qatk_core::prelude::ScoredCode]) {
    out.push('[');
    for (i, sc) in ranked.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"code\":\"{}\",\"score\":{:.6}}}",
            json::escape(&sc.code),
            sc.score
        ));
    }
    out.push(']');
}

#[cfg(test)]
mod tests {
    use super::*;
    use qatk_core::prelude::{ClassifierFamily, FeatureModel, RankerConfig, SimilarityMeasure};
    use qatk_corpus::generator::{Corpus, CorpusConfig};
    use qatk_serve::http::RequestParser;

    fn app() -> QuestApp {
        let corpus = Corpus::generate(CorpusConfig::small(31));
        let svc = RecommendationService::train(
            &corpus,
            FeatureModel::BagOfWords,
            SimilarityMeasure::Overlap,
        );
        QuestApp::new(Arc::new(svc), HealthInfo::default())
    }

    /// Same corpus, same handler construction — only the classifier family
    /// behind the snapshot differs.
    fn app_with_family(family: ClassifierFamily) -> QuestApp {
        let corpus = Corpus::generate(CorpusConfig::small(31));
        let svc = RecommendationService::train_with(
            &corpus,
            FeatureModel::BagOfWords,
            RankerConfig::new(family, SimilarityMeasure::Overlap),
        );
        QuestApp::new(Arc::new(svc), HealthInfo::default())
    }

    fn request(method: &str, path: &str, body: &str) -> Request {
        let raw = format!(
            "{method} {path} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let mut p = RequestParser::new(Default::default());
        p.push(raw.as_bytes());
        p.take_request().unwrap().unwrap()
    }

    #[test]
    fn suggest_roundtrip_and_epoch() {
        let app = app();
        let resp = app.handle(&request(
            "POST",
            "/suggest",
            "{\"part_id\":\"P003\",\"text\":\"oil leaking from the housing\"}",
        ));
        assert_eq!(resp.status, 200);
        let doc = json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(
            doc.get("epoch").and_then(Value::as_u64),
            Some(app.svc.epoch())
        );
        assert!(doc.get("top").and_then(Value::as_arr).is_some());
        assert!(doc
            .get("all_codes_for_part")
            .and_then(Value::as_arr)
            .is_some());
    }

    #[test]
    fn suggest_requires_part_id_and_valid_json() {
        let app = app();
        let resp = app.handle(&request("POST", "/suggest", "{\"text\":\"x\"}"));
        assert_eq!(resp.status, 400);
        let resp = app.handle(&request("POST", "/suggest", "{not json"));
        assert_eq!(resp.status, 400);
        let resp = app.handle(&request("POST", "/suggest", ""));
        assert_eq!(resp.status, 400);
    }

    #[test]
    fn classify_batch_pins_epoch_and_validates() {
        let app = app();
        let resp = app.handle(&request(
            "POST",
            "/classify_batch",
            "{\"texts\":[\"engine stalls\",\"window rattles\"]}",
        ));
        assert_eq!(resp.status, 200);
        let doc = json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(
            doc.get("results")
                .and_then(Value::as_arr)
                .map(<[Value]>::len),
            Some(2)
        );
        let resp = app.handle(&request("POST", "/classify_batch", "{\"texts\":\"x\"}"));
        assert_eq!(resp.status, 400);
        let resp = app.handle(&request("POST", "/classify_batch", "{\"texts\":[1]}"));
        assert_eq!(resp.status, 400);
    }

    #[test]
    fn punctuation_only_text_is_an_empty_document_on_every_route() {
        // The tokenizer yields no token for this text. Under the paper's
        // bag-of-concepts model the annotator must take that as an empty
        // document, not as a missing tokenizer, on all three text routes.
        let corpus = Corpus::generate(CorpusConfig::small(31));
        let svc = RecommendationService::train(
            &corpus,
            FeatureModel::BagOfConcepts,
            SimilarityMeasure::Jaccard,
        );
        let app = QuestApp::new(Arc::new(svc), HealthInfo::default());
        let text = "!!! ... ???";
        let top = |resp: &Response| {
            let doc = json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
            doc.get("top").and_then(Value::as_arr).map(<[Value]>::len)
        };
        let known = app.handle(&request(
            "POST",
            "/suggest",
            &format!("{{\"part_id\":\"P-01\",\"text\":\"{text}\"}}"),
        ));
        assert_eq!(
            known.status,
            200,
            "{}",
            String::from_utf8_lossy(&known.body)
        );
        assert_eq!(
            top(&known),
            Some(0),
            "no feature, no candidate of a known part"
        );
        // an unknown part with no feature gets the paper's whole-KB fallback
        let unknown = app.handle(&request(
            "POST",
            "/suggest",
            &format!("{{\"part_id\":\"P-NEW\",\"text\":\"{text}\"}}"),
        ));
        assert_eq!(unknown.status, 200);
        assert!(top(&unknown).is_some_and(|n| n > 0), "fallback missing");
        let batch = app.handle(&request(
            "POST",
            "/classify_batch",
            &format!("{{\"texts\":[\"{text}\",\"{text}\"]}}"),
        ));
        assert_eq!(
            batch.status,
            200,
            "{}",
            String::from_utf8_lossy(&batch.body)
        );
        let before = app.svc.epoch();
        let learn = app.handle(&request(
            "POST",
            "/learn",
            &format!("{{\"part_id\":\"P-01\",\"text\":\"{text}\",\"code\":\"E-NEW\"}}"),
        ));
        assert_eq!(
            learn.status,
            200,
            "{}",
            String::from_utf8_lossy(&learn.body)
        );
        assert_eq!(app.svc.epoch(), before + 1);
    }

    #[test]
    fn learn_publishes_one_epoch_for_the_whole_batch() {
        let app = app();
        let before = app.svc.epoch();
        let body = "{\"instances\":[\
            {\"part_id\":\"P003\",\"text\":\"new failure mode alpha\",\"code\":\"E003-01\"},\
            {\"part_id\":\"P003\",\"text\":\"new failure mode beta\",\"code\":\"E003-01\"}]}";
        let resp = app.handle(&request("POST", "/learn", body));
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        let doc = json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(doc.get("enqueued").and_then(Value::as_u64), Some(2));
        assert_eq!(app.svc.epoch(), before + 1, "one epoch per learn batch");
        assert_eq!(app.svc.pending_len(), 0, "ack implies published");
        // single-instance shorthand
        let resp = app.handle(&request(
            "POST",
            "/learn",
            "{\"part_id\":\"P004\",\"text\":\"gamma\",\"code\":\"E004-01\"}",
        ));
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        // unknown code for the part: still learnable (codes are created by
        // training), but a missing code field is a 400
        let resp = app.handle(&request("POST", "/learn", "{\"part_id\":\"P004\"}"));
        assert_eq!(resp.status, 400);
    }

    /// Key invariant of the classifier zoo: serving a different family takes
    /// ZERO changes in the HTTP layer. The exact same `Handler` code path —
    /// routing, parsing, rendering — serves `/suggest` for every family; the
    /// dispatch happens inside the snapshot's trained ranker.
    #[test]
    fn suggest_serves_multiple_classifier_families_through_one_handler() {
        let body = "{\"part_id\":\"P003\",\"text\":\"oil leaking from the housing\"}";
        let mut per_family = Vec::new();
        for family in [
            ClassifierFamily::Knn,
            ClassifierFamily::Centroid,
            ClassifierFamily::NaiveBayes,
        ] {
            let app = app_with_family(family);
            let resp = app.handle(&request("POST", "/suggest", body));
            assert_eq!(resp.status, 200, "family {}", family.label());
            let doc = json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
            let top_len = doc
                .get("top")
                .and_then(Value::as_arr)
                .map(<[Value]>::len)
                .unwrap();
            assert!(top_len > 0, "family {} returned no codes", family.label());

            // /healthz attributes the traffic to the active family
            let resp = app.handle(&request("GET", "/healthz", ""));
            let health = json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
            assert_eq!(
                health.get("classifier").and_then(Value::as_str),
                Some(family.label())
            );
            per_family.push(top_len);
        }
        // every family produced a ranked list through the identical handler
        assert_eq!(per_family.len(), 3);
    }

    #[test]
    fn healthz_and_metrics_and_routing() {
        let app = app();
        let resp = app.handle(&request("GET", "/healthz", ""));
        assert_eq!(resp.status, 200);
        let doc = json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(doc.get("status").and_then(Value::as_str), Some("ok"));
        assert!(doc.get("kb_len").and_then(Value::as_u64).unwrap() > 0);
        // the active feature model + classifier are reported
        assert_eq!(
            doc.get("model").and_then(Value::as_str),
            Some("bag-of-words")
        );
        assert_eq!(doc.get("classifier").and_then(Value::as_str), Some("knn"));
        assert_eq!(doc.get("measure").and_then(Value::as_str), Some("overlap"));

        // the uptime/request counters land in the same document
        assert!(doc.get("uptime_secs").and_then(Value::as_u64).is_some());
        let first = doc.get("requests_total").and_then(Value::as_u64).unwrap();
        assert!(first >= 1);
        let resp = app.handle(&request("GET", "/healthz", ""));
        let doc = json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(
            doc.get("requests_total").and_then(Value::as_u64),
            Some(first + 1),
            "requests_total is monotonic"
        );

        let resp = app.handle(&request("GET", "/metrics", ""));
        assert_eq!(resp.status, 200);
        assert_eq!(resp.content_type, "text/plain; version=0.0.4");
        assert!(String::from_utf8_lossy(&resp.body).contains("qatk_"));

        let resp = app.handle(&request("GET", "/debug/traces", ""));
        assert_eq!(resp.status, 200);
        assert!(json::parse(std::str::from_utf8(&resp.body).unwrap())
            .unwrap()
            .as_arr()
            .is_some());
        let resp = app.handle(&request("GET", "/debug/traces/slow", ""));
        assert_eq!(resp.status, 200);

        let resp = app.handle(&request("GET", "/suggest", ""));
        assert_eq!(resp.status, 405);
        assert_eq!(resp.allow, Some("POST"));
        let resp = app.handle(&request("POST", "/healthz", ""));
        assert_eq!(resp.status, 405);
        let resp = app.handle(&request("POST", "/debug/traces", ""));
        assert_eq!(resp.status, 405);
        assert_eq!(resp.allow, Some("GET, HEAD"));
        let resp = app.handle(&request("GET", "/nope", ""));
        assert_eq!(resp.status, 404);
    }

    /// Satellite: `/metrics` conforms to the Prometheus text exposition
    /// format — every non-empty line is either a `# HELP`/`# TYPE` comment
    /// or a `name{labels} value` sample (an OpenMetrics-style exemplar
    /// suffix is allowed), and no metric gets two TYPE lines.
    #[test]
    fn metrics_exposition_conforms_to_text_format() {
        let app = app();
        // drive some traffic so histograms and counters are populated
        app.handle(&request(
            "POST",
            "/suggest",
            "{\"part_id\":\"P003\",\"text\":\"oil leak\"}",
        ));
        let resp = app.handle(&request("GET", "/metrics", ""));
        let text = String::from_utf8(resp.body).unwrap();
        let mut typed = std::collections::HashSet::new();
        for line in text.lines() {
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("# ") {
                let (kind, rest) = rest.split_once(' ').expect("comment has a metric name");
                assert!(
                    kind == "HELP" || kind == "TYPE",
                    "unknown comment kind in {line:?}"
                );
                if kind == "TYPE" {
                    let name = rest.split_whitespace().next().unwrap();
                    assert!(typed.insert(name.to_owned()), "duplicate TYPE for {name}");
                }
                continue;
            }
            // sample line: strip an exemplar suffix, then `name{...} value`
            let sample = match line.split_once(" # ") {
                Some((s, _)) => s.trim_end(),
                None => line,
            };
            let (name_part, value) = sample.rsplit_once(' ').expect("sample has a value");
            assert!(
                value.parse::<f64>().is_ok(),
                "unparseable value in {line:?}"
            );
            let name = name_part.split('{').next().unwrap();
            assert!(
                !name.is_empty()
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "bad metric name in {line:?}"
            );
            if let Some(rest) = name_part.split_once('{').map(|(_, r)| r) {
                assert!(rest.ends_with('}'), "unterminated label set in {line:?}");
            }
        }
        assert!(!typed.is_empty());
    }

    /// Tentpole acceptance: the trace id round-trips through the
    /// `x-qatk-trace` header, and a `/suggest` request leaves a retrievable
    /// tree whose root is `serve.suggest` with rank + text children.
    #[test]
    fn suggest_trace_round_trips_and_captures_a_tree() {
        let _guard = qatk_trace::test_lock();
        qatk_trace::set_enabled(true);
        qatk_trace::store().clear();
        let app = app();
        let mut req = request(
            "POST",
            "/suggest",
            "{\"part_id\":\"P003\",\"text\":\"oil leaking from the housing\"}",
        );
        req.headers
            .push(("x-qatk-trace".to_owned(), "00000000c0ffee00".to_owned()));
        let resp = app.handle(&req);
        assert_eq!(resp.status, 200);
        assert_eq!(resp.trace, 0xC0FF_EE00, "header id echoed back");
        let id = qatk_trace::TraceId::from_u64(0xC0FF_EE00).unwrap();
        let trees = qatk_trace::store().lookup(id);
        assert_eq!(trees.len(), 1, "one tree captured for the pinned id");
        let names: Vec<&str> = trees[0].spans.iter().map(|s| s.name).collect();
        assert_eq!(names[0], "serve.suggest");
        assert!(names.contains(&"core.rank"), "names: {names:?}");
        assert!(
            names.contains(&"text.tokenize") || names.contains(&"text.annotate"),
            "names: {names:?}"
        );

        // with tracing disabled the header still round-trips, silently
        qatk_trace::set_enabled(false);
        let mut req = request("POST", "/suggest", "{\"part_id\":\"P003\",\"text\":\"x\"}");
        req.headers
            .push(("x-qatk-trace".to_owned(), "beef".to_owned()));
        let resp = app.handle(&req);
        qatk_trace::set_enabled(true);
        assert_eq!(resp.trace, 0xBEEF);
        assert!(qatk_trace::store()
            .lookup(qatk_trace::TraceId::from_u64(0xBEEF).unwrap())
            .is_empty());
    }
}
