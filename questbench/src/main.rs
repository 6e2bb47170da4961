//! questbench — the QUEST benchmark.
//!
//! ```text
//! questbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Drives the real serving stack (`qatk_serve::Server` + `QuestApp`, and
//! for `learn_replicated` a WAL-shipping leader with one read replica) in
//! this process over loopback HTTP. With `--trace 0` it reports the
//! end-to-end metrics; with `--trace 1` it also times the public call into
//! each layer on the same request set and reports the per-layer metrics.
//! The last line of standard output is one JSON object; everything above it
//! is the human-readable report. See README.md.

mod host;
mod ladder;
mod load;
mod requests;
mod stack;
mod stats;

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use qatk_core::prelude::*;
use qatk_corpus::prelude::*;
use quest::prelude::*;

use crate::load::{closed_loop, open_loop, Conn, Outcome, Phase, Schedule, Tally, GIVE_UP_AFTER};
use crate::requests::{oracle, scan, RequestSet};
use crate::stack::{ReadStack, ReplStack};

/// Server workers, generator threads and connections per server: the
/// reference host has 2 cores, and the benchmark never runs more of any
/// of them than the host has cores.
const THREADS: usize = 2;

/// Closed-loop throughput is the median completion rate over windows of
/// this length, so one host stall moves one window, not the result.
const WINDOW: Duration = Duration::from_millis(250);

/// A run interleaves its phases in this many cycles, so that every metric
/// samples the whole run: on the reference VM a fixed CPU loop's speed
/// wanders by ~±15% between 10 s stretches but by ~±8% between 30 s ones.
const CYCLES: u32 = 6;

/// Open-loop latency percentiles of the read-only workloads are medians
/// over windows this long (by due time) of each window's percentile, so a
/// host stall moves the few windows it falls in, not the result.
const LATENCY_WINDOW: Duration = Duration::from_millis(500);

/// Requests per connection re-sent untimed after each set-up between
/// cycles, which evicts the caches.
const REWARM: usize = 100;

/// `learn_replicated`'s learn rate: one learn at the start of each 2.5 s
/// phase, so every phase holds the same mix, and a 30 s run makes 12. A
/// learn takes ~0.5 s, mostly fsyncs; more learns beside the reads
/// saturated them (README.md).
const LEARN_RATE: f64 = 0.4;

/// `learn_replicated` sets up this many times before its timed phases, not
/// once before each cycle: a set-up writes and deletes a store, and the
/// disk work it leaves behind stalled the reads after it for seconds.
const REPL_SETUPS: usize = 5;

/// A learn not visible on the reader this long after its ack has failed.
const VISIBLE_DEADLINE: Duration = Duration::from_secs(5);

/// A benchmark workload: which model the server runs, which stack, and the
/// fixed rate of its open loop.
struct Workload {
    name: &'static str,
    model: FeatureModel,
    /// Leader with `SyncPolicy::Always` store + one read replica, learns
    /// beside reads; otherwise one node without a store, reads then learns.
    replicated: bool,
    /// Open-loop `/suggest` rate (requests per second).
    suggest_rate: f64,
}

/// Open-loop rates sit at about a fifth of each workload's closed-loop
/// capacity on the reference host (2-core Xeon VM, release build): ~15k
/// req/s for `suggest_concepts` over two connections, ~4.7k for
/// `suggest_words`, ~8.5k for `learn_replicated`'s one read connection
/// beside its learn connection. The host slows by up to ~25% for whole
/// runs, and at half capacity such a run saturates. The read-only
/// workloads learn back to back, so a slow learn never queues the next one:
/// ~400 learns of 13–20 ms per run on `suggest_concepts`, ~80 of 70–120 ms
/// on `suggest_words`. `learn_replicated` learns at `LEARN_RATE`. README.md
/// has the measurements behind each choice.
const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "suggest_concepts",
        model: FeatureModel::BagOfConcepts,
        replicated: false,
        suggest_rate: 3000.0,
    },
    Workload {
        name: "suggest_words",
        model: FeatureModel::BagOfWords,
        replicated: false,
        suggest_rate: 1000.0,
    },
    Workload {
        name: "learn_replicated",
        model: FeatureModel::BagOfConcepts,
        replicated: true,
        suggest_rate: 2000.0,
    },
];

/// End-to-end metrics (tracing off), in report order. The p90s of
/// `/suggest` and `/learn` are printed with the tails but not reported: on
/// the reference host each sat on a knee of its distribution and jumped
/// between runs by more than any bound (README.md).
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("suggest_p50_us", "us"),
    ("throughput_rps", "1/s"),
    ("learn_p50_ms", "ms"),
    ("visible_p50_ms", "ms"),
    ("hit_at_10", "ratio"),
];

/// Per-layer metrics (traced run), in report order.
const PER_LAYER: [(&str, &str); 25] = [
    ("serve.roundtrip_us", "us"),
    ("serve.overhead_us", "us"),
    ("serve.rejected_busy", "count"),
    ("serve.timeouts", "count"),
    ("quest.handle_us", "us"),
    ("quest.unattributed_us", "us"),
    ("text.tokenize_us", "us"),
    ("text.langdetect_us", "us"),
    ("text.annotate_us", "us"),
    ("text.tokens_per_request", "count"),
    ("text.concepts_per_request", "count"),
    ("core.extract_us", "us"),
    ("core.features_per_query", "count"),
    ("core.rank_us", "us"),
    ("core.candidates_per_query", "count"),
    ("core.cow_clone_ms", "ms"),
    ("core.train_instance_ms", "ms"),
    ("core.seal_ms", "ms"),
    ("store.persist_ms", "ms"),
    ("store.wal_records_per_learn", "count"),
    ("store.wal_bytes_per_learn", "B"),
    ("store.wal_syncs_per_learn", "count"),
    ("repl.bytes_shipped_per_learn", "B"),
    ("repl.lag_after_ack_ms", "ms"),
    ("trace.overhead_us", "us"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} takes a whole number"))
    };
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_owned());
    }
    Ok(Args {
        workload: value("--workload")?.to_owned(),
        seed: number("--seed")?,
        seconds,
        trace,
    })
}

/// The stack a workload runs on.
enum Stack {
    Read(ReadStack),
    Repl(Box<ReplStack>),
}

impl Stack {
    fn boot(w: &Workload, train: &Corpus, threads: usize, dir: &Path) -> Result<Stack, String> {
        if w.replicated {
            ReplStack::boot(train, w.model, threads, dir).map(|s| Stack::Repl(Box::new(s)))
        } else {
            ReadStack::boot(train, w.model, threads)
                .map(Stack::Read)
                .map_err(|e| e.to_string())
        }
    }

    fn svc(&self) -> &Arc<RecommendationService> {
        match self {
            Stack::Read(s) => &s.svc,
            Stack::Repl(s) => &s.svc,
        }
    }

    fn app(&self) -> &QuestApp {
        match self {
            Stack::Read(s) => &s.app,
            Stack::Repl(s) => &s.app,
        }
    }

    fn addr(&self) -> SocketAddr {
        match self {
            Stack::Read(s) => s.addr(),
            Stack::Repl(s) => s.addr(),
        }
    }

    fn shutdown(self) {
        match self {
            Stack::Read(s) => s.shutdown(),
            Stack::Repl(s) => s.shutdown(),
        }
    }

    /// Stop, and for a replicated stack check that leader and follower hold
    /// byte-identical databases.
    fn finish(self) -> Result<bool, String> {
        match self {
            Stack::Read(s) => {
                s.shutdown();
                Ok(true)
            }
            Stack::Repl(s) => s.shutdown_and_compare(),
        }
    }
}

/// A code list as one hash, to check an answer later without keeping it.
fn codes_hash<'a>(codes: impl IntoIterator<Item = &'a str>) -> u64 {
    codes.into_iter().fold(requests::FNV_OFFSET, |h, c| {
        requests::fnv1a(requests::fnv1a(h, c.as_bytes()), &[0xFF])
    })
}

/// What the suggest operations of the load phases share.
struct Reads<'a> {
    set: &'a RequestSet,
    boot_epoch: u64,
    expected: &'a [Vec<String>],
    /// Answers from later epochs (learns beside reads), checked after the
    /// run against the snapshot of their epoch: (epoch, request, codes).
    later: Mutex<Vec<(u64, usize, u64)>>,
}

impl Reads<'_> {
    fn suggest(&self, conn: &mut Conn, i: u64) -> Outcome {
        let r = i as usize % self.set.bodies.len();
        match conn.post("/suggest", &self.set.bodies[r]) {
            Err(_) => Outcome::Transport,
            Ok(resp) if resp.status != 200 => Outcome::Status(resp.status),
            Ok(resp) => match scan(&resp.body) {
                Some(a) if a.epoch == self.boot_epoch => {
                    if a.codes == self.expected[r] {
                        Outcome::Ok
                    } else {
                        Outcome::Wrong
                    }
                }
                Some(a) => {
                    let h = codes_hash(a.codes.iter().copied());
                    self.later
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push((a.epoch, r, h));
                    Outcome::Ok
                }
                None => Outcome::Wrong,
            },
        }
    }
}

#[derive(Default)]
struct Learned {
    learn_ns: Vec<u64>,
    visible_ns: Vec<u64>,
    lag_ns: Vec<u64>,
    late_ns: Vec<u64>,
    tally: Tally,
    acked: u64,
}

impl Learned {
    fn absorb(&mut self, other: Learned) {
        self.learn_ns.extend(other.learn_ns);
        self.visible_ns.extend(other.visible_ns);
        self.lag_ns.extend(other.lag_ns);
        self.late_ns.extend(other.late_ns);
        self.tally.merge(&other.tally);
        self.acked += other.acked;
    }

    fn sorted(mut self) -> Learned {
        self.learn_ns.sort_unstable();
        self.visible_ns.sort_unstable();
        self.lag_ns.sort_unstable();
        self.late_ns.sort_unstable();
        self
    }
}

/// `/learn` of held-out bundles with their true codes for `span`, from
/// learn `first` of the learn order on. With a `schedule` each learn is due
/// at its fixed time and timed from it; without one each goes out as soon
/// as the one before it is acked and checked, and is timed from its send.
/// After each ack, wait for the reader to publish the acked epoch, then ask
/// it over HTTP: the answer must carry that epoch and the learned code.
/// With `snapshots`, every published snapshot is kept so that reads running
/// beside the learns can be checked after the run.
#[allow(clippy::too_many_arguments)]
fn learn_loop(
    writer: &mut Conn,
    reader: &mut Conn,
    writer_svc: &RecommendationService,
    reader_svc: &RecommendationService,
    set: &RequestSet,
    first: usize,
    schedule: Option<Schedule>,
    span: Duration,
    snapshots: Option<&Mutex<BTreeMap<u64, Arc<KnowledgeSnapshot>>>>,
) -> Learned {
    let mut out = Learned::default();
    let start = Instant::now() + Duration::from_millis(2);
    let end = start + span;
    for k in 0.. {
        let due = match schedule {
            Some(schedule) => {
                let due = start + schedule.due(k as u64);
                if due >= end {
                    break;
                }
                load::wait_until(due);
                due
            }
            None => Instant::now(),
        };
        let sent = Instant::now();
        match schedule {
            Some(schedule) if sent > end + GIVE_UP_AFTER => {
                out.tally.miss(schedule.count_within(span) - k as u64);
                break;
            }
            Some(_) => out.late_ns.push((sent - due).as_nanos() as u64),
            None if sent >= end => break,
            None => {}
        }
        let r = set.learn_order[(first + k) % set.learn_order.len()];
        let resp = writer.post("/learn", &set.learn_bodies[r]);
        let acked_at = Instant::now();
        if let Some(snapshots) = snapshots {
            let published = writer_svc.snapshot();
            snapshots
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .insert(published.epoch(), published);
        }
        let epoch = match resp {
            Err(_) => {
                out.tally.record(Outcome::Transport);
                continue;
            }
            Ok(resp) if resp.status != 200 => {
                out.tally.record(Outcome::Status(resp.status));
                continue;
            }
            Ok(resp) => match scan(&resp.body) {
                Some(a) => a.epoch,
                None => {
                    out.tally.record(Outcome::Wrong);
                    continue;
                }
            },
        };
        out.acked += 1;
        out.learn_ns.push((acked_at - due).as_nanos() as u64);
        let deadline = acked_at + VISIBLE_DEADLINE;
        while reader_svc.epoch() < epoch && Instant::now() < deadline {
            std::thread::sleep(Duration::from_micros(100));
        }
        let seen = Instant::now();
        if reader_svc.epoch() < epoch {
            out.tally.miss(1);
            continue;
        }
        out.lag_ns.push((seen - acked_at).as_nanos() as u64);
        let outcome = match reader.post("/suggest", &set.bodies[r]) {
            Err(_) => Outcome::Transport,
            Ok(resp) if resp.status != 200 => Outcome::Status(resp.status),
            Ok(resp) => match scan(&resp.body) {
                Some(a) if a.epoch >= epoch && a.codes.contains(&set.truth[r].as_str()) => {
                    Outcome::Ok
                }
                _ => Outcome::Wrong,
            },
        };
        if outcome == Outcome::Ok {
            out.visible_ns
                .push((Instant::now() - sent).as_nanos() as u64);
        }
        out.tally.record(outcome);
    }
    if schedule.is_some() {
        // keep this vCPU busy until the phase ends, as between learns
        load::wait_until(end);
    }
    out
}

/// Send the first `n` request bodies once on each connection (untimed).
/// Returns the tally and, from the first connection, how many answers held
/// the true code.
fn warm_up(conns: &mut [Conn], reads: &Reads, n: usize) -> (Tally, usize) {
    let parts: Vec<(Tally, usize)> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(j, conn)| {
                s.spawn(move || {
                    let mut tally = Tally::default();
                    let mut hits = 0;
                    for r in 0..n {
                        let outcome = reads.suggest(conn, r as u64);
                        tally.record(outcome);
                        if j == 0
                            && outcome == Outcome::Ok
                            && reads.expected[r].contains(&reads.set.truth[r])
                        {
                            hits += 1;
                        }
                    }
                    (tally, hits)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a warm-up thread panicked"))
            .collect()
    });
    let mut tally = Tally::default();
    for (t, _) in &parts {
        tally.merge(t);
    }
    (tally, parts[0].1)
}

struct Results {
    setup_s: Vec<f64>,
    /// One open-loop and one closed-loop phase per cycle.
    open: Vec<Phase>,
    latency_window: Duration,
    closed: Vec<Phase>,
    learned: Learned,
    hit_at_10: f64,
    tally: Tally,
    converged: bool,
    layers: Option<ladder::Layers>,
}

fn run(args: &Args) -> Result<Results, String> {
    let w = WORKLOADS
        .iter()
        .find(|w| w.name == args.workload)
        .ok_or_else(|| {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload `{}` (one of {names:?})", args.workload)
        })?;
    let threads = THREADS.min(host::nproc());
    let work_dir = PathBuf::from(".questbench");
    let run_dir = work_dir.join(format!("{}-{}-{}", w.name, args.seed, std::process::id()));
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("{}: {e}", run_dir.display()))?;
    let host = host::Fingerprint::take(args.seed, &run_dir);
    println!(
        "questbench {} seed={} seconds={} trace={}",
        w.name, args.seed, args.seconds, args.trace as u8
    );
    println!("host {}", host.to_json());

    let began = Instant::now();
    let stage = |what: &str| eprintln!("[{:6.2} s] {what}", began.elapsed().as_secs_f64());
    // input generation: not part of set-up
    let corpus = Corpus::generate(CorpusConfig::default());
    let (train, set) = requests::split(&corpus, args.seed);
    drop(corpus);

    stage("set-up");
    // set-up: the stack that serves the run; read-only workloads learn on
    // a second node, so their reads always see the boot snapshot
    let mut setup_s = Vec::new();
    if w.replicated && !args.trace {
        for k in 1..REPL_SETUPS {
            setup_s.push(throwaway_setup(
                w,
                &train,
                threads,
                &run_dir.join(format!("setup{k}")),
            )?);
        }
    }
    let t0 = Instant::now();
    let stack = Stack::boot(w, &train, threads, &run_dir.join("store0"))?;
    setup_s.push(t0.elapsed().as_secs_f64());
    let learn_node = if w.replicated {
        None
    } else {
        let t0 = Instant::now();
        let node = ReadStack::boot(&train, w.model, threads).map_err(|e| e.to_string())?;
        setup_s.push(t0.elapsed().as_secs_f64());
        Some(node)
    };

    stage("oracle");
    // the oracle, checked once against the in-process service
    let boot = stack.svc().snapshot();
    let expected: Vec<Vec<String>> = set.wire.iter().map(|b| oracle(&boot, b)).collect();
    let mut tally = Tally::default();
    for (r, b) in set.wire.iter().enumerate() {
        let s = stack.svc().suggest_on(&boot, b);
        let same = s
            .top
            .iter()
            .map(|c| c.code.as_str())
            .eq(expected[r].iter().map(String::as_str));
        tally.record(if same { Outcome::Ok } else { Outcome::Wrong });
    }
    let reads = Reads {
        set: &set,
        boot_epoch: boot.epoch(),
        expected: &expected,
        later: Mutex::new(Vec::new()),
    };

    let mut spans = ladder::Spans::new();
    let mut layers = None;
    if args.trace {
        stage("layer ladder");
        let mut l = ladder::Layers::default();
        ladder::read_path(
            &mut spans,
            &mut l,
            &train,
            w.model,
            stack.app(),
            &mut Conn::new(stack.addr()),
            &set,
            &expected,
        );
        let ladder_store = w.replicated.then(|| run_dir.join("ladder"));
        ladder::write_path(
            &mut spans,
            &mut l,
            stack.svc(),
            &set,
            ladder_store.as_deref(),
        )?;
        tally.merge(&l.tally);
        layers = Some(l);
    }

    stage("warm-up");
    // warm-up, untimed: every body once per connection (replica included),
    // right before the timed phases so no connection sits idle past the
    // server's read timeout
    let read_conns = if w.replicated { 1 } else { threads };
    let mut conns: Vec<Conn> = (0..read_conns).map(|_| Conn::new(stack.addr())).collect();
    let (warm, hits) = warm_up(&mut conns, &reads, reads.set.bodies.len());
    tally.merge(&warm);
    let hit_at_10 = hits as f64 / set.bodies.len() as f64;
    // learns go to the leader and are checked on the replica, or both go
    // to the learn node
    let (writer_addr, writer_svc, reader_addr, reader_svc) = match (&stack, &learn_node) {
        (Stack::Repl(s), _) => (s.addr(), &s.svc, s.replica_addr(), &s.replica_svc),
        (Stack::Read(_), Some(n)) => (n.addr(), &n.svc, n.addr(), &n.svc),
        (Stack::Read(_), None) => unreachable!("read-only workloads boot a learn node"),
    };
    let mut writer = Conn::new(writer_addr);
    let mut reader = Conn::new(reader_addr);
    if w.replicated {
        tally.merge(
            &warm_up(
                std::slice::from_mut(&mut reader),
                &reads,
                reads.set.bodies.len(),
            )
            .0,
        );
    }

    stage("timed phases");
    // CYCLES cycles of the workload's phases; untraced read-only runs set
    // up once more (timed) before each cycle after the first, then re-warm
    let cycle = Duration::from_secs(args.seconds) / CYCLES;
    let rejected0 = ladder::counter("qatk_serve_rejected_busy_total");
    let timeouts0 = ladder::counter("qatk_serve_timeouts_total");
    let shipped0 = ladder::counter("qatk_repl_bytes_shipped_total");
    let snapshots = Mutex::new(BTreeMap::new());
    let mut open = Vec::new();
    let mut closed = Vec::new();
    let mut learned = Learned::default();
    for c in 0..CYCLES {
        if c > 0 && !w.replicated && !args.trace {
            setup_s.push(throwaway_setup(
                w,
                &train,
                threads,
                &run_dir.join(format!("setup{c}")),
            )?);
            tally.merge(&warm_up(&mut conns, &reads, REWARM).0);
        }
        let first = learned.acked as usize;
        let (o, cl, l) = if w.replicated {
            // learns beside reads, one at the start of each half of the
            // cycle, so they stay evenly spaced across phases
            let open_span = cycle / 2;
            std::thread::scope(|s| {
                let learner = s.spawn(|| {
                    let mut l = learn_loop(
                        &mut writer,
                        &mut reader,
                        writer_svc,
                        reader_svc,
                        &set,
                        first,
                        Some(Schedule::new(LEARN_RATE)),
                        open_span,
                        Some(&snapshots),
                    );
                    l.absorb(learn_loop(
                        &mut writer,
                        &mut reader,
                        writer_svc,
                        reader_svc,
                        &set,
                        first + l.acked as usize,
                        Some(Schedule::new(LEARN_RATE)),
                        cycle - open_span,
                        Some(&snapshots),
                    ));
                    l
                });
                let o = open_loop(
                    &mut conns,
                    Schedule::new(w.suggest_rate),
                    open_span,
                    |c, i| reads.suggest(c, i),
                );
                let cl = closed_loop(&mut conns, cycle - open_span, |c, i| reads.suggest(c, i));
                (o, cl, learner.join().expect("the learn thread panicked"))
            })
        } else {
            // reads (2/5 open loop, 3/10 closed loop), then learns (3/10)
            // on the learn node over fresh connections
            let open_span = cycle * 2 / 5;
            let closed_span = cycle * 3 / 10;
            let o = open_loop(
                &mut conns,
                Schedule::new(w.suggest_rate),
                open_span,
                |c, i| reads.suggest(c, i),
            );
            let cl = closed_loop(&mut conns, closed_span, |c, i| reads.suggest(c, i));
            writer = Conn::new(writer_addr);
            reader = Conn::new(reader_addr);
            connect(&mut writer, &set);
            connect(&mut reader, &set);
            let l = learn_loop(
                &mut writer,
                &mut reader,
                writer_svc,
                reader_svc,
                &set,
                first,
                None,
                cycle - open_span - closed_span,
                None,
            );
            (o, cl, l)
        };
        tally.merge(&o.tally);
        tally.merge(&cl.tally);
        open.push(o);
        closed.push(cl);
        learned.absorb(l);
    }
    let learned = learned.sorted();
    // idle keep-alive connections would hold server workers at shutdown
    drop((conns, writer, reader));
    tally.merge(&learned.tally);
    let rejected = ladder::counter("qatk_serve_rejected_busy_total") - rejected0;
    let timeouts = ladder::counter("qatk_serve_timeouts_total") - timeouts0;
    let shipped = ladder::counter("qatk_repl_bytes_shipped_total") - shipped0;

    stage("checks");
    // answers from later epochs, against the snapshot of their epoch
    let snapshots = snapshots
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    let mut memo: BTreeMap<(u64, usize), u64> = BTreeMap::new();
    for (epoch, r, h) in reads
        .later
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        let want = match snapshots.get(&epoch) {
            Some(snap) => *memo.entry((epoch, r)).or_insert_with(|| {
                codes_hash(oracle(snap, &set.wire[r]).iter().map(String::as_str))
            }),
            None => !h,
        };
        if want != h {
            tally.wrong += 1;
            tally.failed += 1;
        }
    }
    drop(snapshots);

    if let Some(node) = learn_node {
        node.shutdown();
    }
    let converged = stack.finish()?;
    if !converged {
        tally.record(Outcome::Wrong);
    }

    if let Some(l) = layers.as_mut() {
        l.values.push(("serve.rejected_busy", rejected as f64));
        l.values.push(("serve.timeouts", timeouts as f64));
        if w.replicated {
            l.values.push((
                "repl.bytes_shipped_per_learn",
                shipped as f64 / learned.acked.max(1) as f64,
            ));
            l.values.push((
                "repl.lag_after_ack_ms",
                stats::percentile(&learned.lag_ns, 0.5).unwrap_or(0) as f64 / 1e6,
            ));
        } else {
            let why = "this workload has no replica: the reader is the node itself";
            l.absent("repl.bytes_shipped_per_learn", 0.0, why);
            let lag: Vec<f64> = learned.lag_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
            l.absent("repl.lag_after_ack_ms", ladder::mean(&lag), why);
        }
        spans
            .write(&work_dir.join(format!("spans-{}-seed{}.jsonl", w.name, args.seed)))
            .map_err(|e| format!("writing spans: {e}"))?;
    }
    std::fs::remove_dir_all(&run_dir).ok();
    stage("done");
    // reads without learns beside them: short windows, so a host stall
    // moves few of them; with learns: one window per phase, each holding
    // one learn
    let latency_window = if w.replicated {
        cycle / 2
    } else {
        LATENCY_WINDOW
    };
    Ok(Results {
        setup_s,
        open,
        latency_window,
        closed,
        learned,
        hit_at_10,
        tally,
        converged,
        layers,
    })
}

/// One more timed set-up of the workload's stack, shut down at once.
fn throwaway_setup(
    w: &Workload,
    train: &Corpus,
    threads: usize,
    dir: &Path,
) -> Result<f64, String> {
    let t0 = Instant::now();
    let stack = Stack::boot(w, train, threads, dir)?;
    let took = t0.elapsed().as_secs_f64();
    stack.shutdown();
    Ok(took)
}

/// Open a connection and send one untimed request on it, so a timed phase
/// never pays the connect.
fn connect(conn: &mut Conn, set: &RequestSet) {
    let _ = conn.post("/suggest", &set.bodies[0]);
}

fn pct(sorted: &[u64], q: f64, scale: f64) -> f64 {
    stats::percentile(sorted, q).unwrap_or(0) as f64 / scale
}

/// The `q` percentile (ns) of every whole `window` of every open-loop
/// phase, by due time; a phase shorter than one window counts as one.
fn per_window(phases: &[Phase], window: Duration, q: f64) -> Vec<f64> {
    phases
        .iter()
        .flat_map(|p| {
            if p.span < window {
                return stats::percentile(&p.latency_ns, q)
                    .map(|v| v as f64)
                    .into_iter()
                    .collect();
            }
            stats::window_percentiles(
                &p.by_due_ns,
                window.as_nanos() as u64,
                p.span.as_nanos() as u64,
                q,
            )
        })
        .collect()
}

/// Completion rates of every whole closed-loop window of every phase; the
/// overall rate when the phases are shorter than a window.
fn closed_rates(phases: &[Phase]) -> Vec<f64> {
    let rates: Vec<f64> = phases
        .iter()
        .flat_map(|p| {
            stats::window_rates(
                &p.done_ns,
                WINDOW.as_nanos() as u64,
                p.span.as_nanos() as u64,
            )
        })
        .collect();
    if !rates.is_empty() {
        return rates;
    }
    let done: usize = phases.iter().map(|p| p.done_ns.len()).sum();
    let span: f64 = phases.iter().map(|p| p.span.as_secs_f64()).sum();
    vec![done as f64 / span]
}

fn min_max(v: &[f64]) -> (f64, f64) {
    v.iter()
        .fold((f64::INFINITY, 0.0), |(lo, hi), &x| (lo.min(x), hi.max(x)))
}

fn tail(label: &str, sorted: &[u64], scale: f64, unit: &str) -> String {
    format!(
        "{label}: n={} p50={:.1} p90={:.1} p99={:.1} ({} beyond) max={:.1} {unit}",
        sorted.len(),
        pct(sorted, 0.5, scale),
        pct(sorted, 0.9, scale),
        pct(sorted, 0.99, scale),
        stats::beyond(sorted, 0.99),
        sorted.last().copied().unwrap_or(0) as f64 / scale,
    )
}

fn report(args: &Args, res: &Results) -> String {
    let rates = closed_rates(&res.closed);
    let p50s = per_window(&res.open, res.latency_window, 0.5);
    let p90s = per_window(&res.open, res.latency_window, 0.9);
    let e2e: BTreeMap<&str, f64> = [
        ("setup_s", stats::median(&res.setup_s).unwrap_or(0.0)),
        ("suggest_p50_us", stats::median(&p50s).unwrap_or(0.0) / 1e3),
        ("throughput_rps", stats::median(&rates).unwrap_or(0.0)),
        ("learn_p50_ms", pct(&res.learned.learn_ns, 0.5, 1e6)),
        ("visible_p50_ms", pct(&res.learned.visible_ns, 0.5, 1e6)),
        ("hit_at_10", res.hit_at_10),
    ]
    .into_iter()
    .collect();

    println!("setup_s runs: {:?}", res.setup_s);
    let open = Phase::merge(res.open.iter());
    let closed = Phase::merge(res.closed.iter());
    println!(
        "{}",
        tail(
            "open-loop /suggest latency from due time",
            &open.latency_ns,
            1e3,
            "us"
        )
    );
    println!(
        "{}",
        tail("open-loop generator lateness", &open.late_ns, 1e3, "us")
    );
    for (q, per) in [(50, &p50s), (90, &p90s)] {
        let (lo, hi) = min_max(per);
        println!(
            "open-loop p{q} per window: {} windows of {} ms, min={:.1} median={:.1} max={:.1} us",
            per.len(),
            res.latency_window.as_millis(),
            lo / 1e3,
            stats::median(per).unwrap_or(0.0) / 1e3,
            hi / 1e3,
        );
    }
    let (lo, hi) = min_max(&rates);
    println!(
        "closed-loop /suggest: {} windows of {} ms, min={:.0} median={:.0} max={:.0} req/s; {}",
        rates.len(),
        WINDOW.as_millis(),
        lo,
        e2e["throughput_rps"],
        hi,
        tail("latency", &closed.latency_ns, 1e3, "us"),
    );
    println!(
        "{}",
        tail("/learn until ack", &res.learned.learn_ns, 1e6, "ms")
    );
    println!(
        "{}",
        tail(
            "/learn send until visible on the reader",
            &res.learned.visible_ns,
            1e6,
            "ms"
        )
    );
    println!(
        "{}",
        tail(
            "reader publishes the acked epoch, after ack",
            &res.learned.lag_ns,
            1e6,
            "ms"
        )
    );
    if !res.learned.late_ns.is_empty() {
        println!(
            "{}",
            tail("learn generator lateness", &res.learned.late_ns, 1e6, "ms")
        );
    }
    let t = &res.tally;
    println!(
        "operations: attempted={} succeeded={} failed={} (non-2xx={} transport={} wrong={} missed={}); leader/follower bytes match: {}",
        t.attempted,
        t.attempted - t.failed,
        t.failed,
        t.non_2xx,
        t.transport,
        t.wrong,
        t.missed,
        res.converged
    );
    for (name, unit) in END_TO_END {
        println!("  {name:<16} {:>14.4} {unit}", e2e[name]);
    }

    let metrics: Vec<String> = if args.trace {
        let layers = res.layers.as_ref().expect("traced runs time the layers");
        let values: BTreeMap<&str, f64> = layers.values.iter().copied().collect();
        for (name, unit) in PER_LAYER {
            println!("  {name:<30} {:>14.4} {unit}", values[name]);
        }
        for (name, why) in &layers.absent {
            println!("  {name}: absent here ({why})");
        }
        PER_LAYER
            .iter()
            .map(|(name, unit)| metric(name, values[name], unit))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|(name, unit)| metric(name, e2e[name], unit))
            .collect()
    };
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        t.wrong == 0 && res.converged,
        t.attempted,
        t.failed,
        metrics.join(",")
    )
}

fn metric(name: &str, value: f64, unit: &str) -> String {
    format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("questbench: {e}\nusage: questbench --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(res) => {
            let line = report(&args, &res);
            println!("{line}");
            if res.tally.wrong == 0 && res.converged {
                ExitCode::SUCCESS
            } else {
                eprintln!("questbench: wrong answers");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("questbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(span_ms: u64, latency_ns: Vec<u64>, done_ns: Vec<u64>) -> Phase {
        Phase {
            span: Duration::from_millis(span_ms),
            latency_ns,
            done_ns,
            ..Phase::default()
        }
    }

    #[test]
    fn latency_windows_pool_every_phase() {
        // two 2 s phases of 1 s windows; the second phase's first window
        // is slow, and one slow window does not move the median
        let mut a = phase(2000, Vec::new(), Vec::new());
        a.by_due_ns = vec![(0, 100), (1_000_000_000, 100)];
        let mut b = phase(2000, Vec::new(), Vec::new());
        b.by_due_ns = vec![(0, 5000), (1_500_000_000, 100)];
        let p = per_window(&[a, b], Duration::from_secs(1), 0.9);
        assert_eq!(p, vec![100.0, 100.0, 5000.0, 100.0]);
        assert_eq!(stats::median(&p), Some(100.0));
        // a phase shorter than a window is one window
        let short = phase(500, vec![1, 2, 3, 4], Vec::new());
        assert_eq!(per_window(&[short], Duration::from_secs(1), 0.5), vec![2.0]);
    }

    #[test]
    fn closed_rates_pool_the_windows_of_every_phase() {
        // two 500 ms phases: two 250 ms windows each, offsets per phase
        let a = phase(500, Vec::new(), vec![0, 1, 300_000_000]);
        let b = phase(
            500,
            Vec::new(),
            vec![0, 260_000_000, 270_000_000, 490_000_000],
        );
        assert_eq!(closed_rates(&[a, b]), vec![8.0, 4.0, 4.0, 12.0]);
        // phases shorter than a window: the overall rate
        let a = phase(100, Vec::new(), vec![1, 2]);
        let b = phase(100, Vec::new(), vec![3, 4, 5]);
        assert_eq!(closed_rates(&[a, b]), vec![25.0]);
    }
}
