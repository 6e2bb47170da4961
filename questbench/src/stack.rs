//! The serving stacks the workloads drive, assembled exactly as
//! `quest serve` and `quest replica` assemble them, but in this process and
//! on loopback ports.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use qatk_core::prelude::*;
use qatk_corpus::prelude::*;
use qatk_repl::prelude::*;
use qatk_serve::{Server, ServerConfig};
use qatk_store::prelude::*;
use quest::prelude::*;

/// `quest serve --replicate-to` checkpoints after this many publishes.
const CHECKPOINT_EVERY: u64 = 8;

/// `quest serve --replicate-to` keeps this many sealed segments so
/// followers can resume from their cursor.
const LEADER_RETENTION: SegmentRetention = SegmentRetention::Keep(8);

/// How long set-up waits for the replica to serve the boot epoch.
const CONVERGE_DEADLINE: Duration = Duration::from_secs(60);

fn server_config(threads: usize) -> ServerConfig {
    ServerConfig {
        threads,
        ..ServerConfig::default()
    }
}

fn paper_ranker() -> RankerConfig {
    RankerConfig::new(ClassifierFamily::Knn, SimilarityMeasure::Jaccard)
}

/// A single `quest serve` node without a store: reads, and learns that
/// publish in memory.
pub struct ReadStack {
    pub svc: Arc<RecommendationService>,
    pub app: Arc<QuestApp>,
    pub server: Server,
}

impl ReadStack {
    /// Train on `train` and start serving.
    pub fn boot(train: &Corpus, model: FeatureModel, threads: usize) -> std::io::Result<Self> {
        let svc = Arc::new(RecommendationService::train_with(
            train,
            model,
            paper_ranker(),
        ));
        let app = Arc::new(QuestApp::new(Arc::clone(&svc), HealthInfo::default()));
        let handler: Arc<dyn qatk_serve::Handler> = app.clone();
        let server = Server::bind("127.0.0.1:0", server_config(threads), handler)?;
        Ok(ReadStack { svc, app, server })
    }

    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    pub fn shutdown(self) {
        self.server.shutdown();
    }
}

/// A replicating leader (`quest serve --db --wal --replicate-to`) plus one
/// read replica (`quest replica --follow`) in this process.
pub struct ReplStack {
    pub svc: Arc<RecommendationService>,
    pub app: Arc<QuestApp>,
    pub server: Server,
    pub store: Arc<Mutex<LoggedDatabase>>,
    leader: Leader,
    pub replica_svc: Arc<RecommendationService>,
    pub replica_server: Server,
    stop: Arc<AtomicBool>,
    runner: JoinHandle<(Follower, ReplResult<()>)>,
    dir: PathBuf,
}

fn paths_in(dir: &Path, role: &str) -> std::io::Result<ReplPaths> {
    let sub = dir.join(role);
    std::fs::create_dir_all(&sub)?;
    Ok(ReplPaths::new(sub.join("snap.qdb"), sub.join("wal.log")))
}

impl ReplStack {
    /// Train on `train`, persist the boot epoch through a fresh leader
    /// store under `dir`, start shipping, and return once the replica
    /// serves the boot epoch. `dir` must not exist yet.
    pub fn boot(
        train: &Corpus,
        model: FeatureModel,
        threads: usize,
        dir: &Path,
    ) -> Result<Self, String> {
        let leader_paths = paths_in(dir, "leader").map_err(|e| e.to_string())?;
        let replica_paths = paths_in(dir, "replica").map_err(|e| e.to_string())?;
        let (mut store, _) = LoggedDatabase::open_with_retention(
            &leader_paths.snapshot,
            &leader_paths.wal,
            SyncPolicy::Always,
            LEADER_RETENTION,
        )
        .map_err(|e| format!("leader store: {e}"))?;
        let svc = Arc::new(RecommendationService::train_with(
            train,
            model,
            paper_ranker(),
        ));
        if KnowledgeSnapshot::ensure_replicated_tables(&mut store).map_err(|e| e.to_string())? {
            store.checkpoint().map_err(|e| e.to_string())?;
        }
        svc.snapshot()
            .save_to_logged(&mut store)
            .map_err(|e| format!("boot snapshot: {e}"))?;
        let leader = Leader::bind("127.0.0.1:0", leader_paths, LeaderConfig::default())
            .map_err(|e| format!("replication listener: {e}"))?;
        let store = Arc::new(Mutex::new(store));
        let hook = publish_hook(Arc::clone(&store), leader.status());
        let app = Arc::new(
            QuestApp::new(
                Arc::clone(&svc),
                HealthInfo {
                    replication: Some(ReplicationHealth::Leader(leader.status())),
                    ..HealthInfo::default()
                },
            )
            .with_publish_hook(hook),
        );
        let handler: Arc<dyn qatk_serve::Handler> = app.clone();
        let server = Server::bind("127.0.0.1:0", server_config(threads), handler)
            .map_err(|e| e.to_string())?;

        let pipeline = Arc::new(build_pipeline(train, model));
        let replica =
            ReplicaServer::open(replica_paths, FollowerConfig::default(), pipeline, model)
                .map_err(|e| format!("replica mirror: {e}"))?;
        let replica_svc = replica.service();
        let replica_app = Arc::new(QuestApp::new(replica.service(), replica.health()).read_only());
        let stop = Arc::new(AtomicBool::new(false));
        let runner = {
            let stop = Arc::clone(&stop);
            let addr = leader.local_addr().to_string();
            std::thread::Builder::new()
                .name("questbench-replica".to_owned())
                .spawn(move || replica.run(&addr, &stop))
                .map_err(|e| e.to_string())?
        };
        let deadline = Instant::now() + CONVERGE_DEADLINE;
        while replica_svc.epoch() != svc.epoch() || replica_svc.kb_len() != svc.kb_len() {
            if Instant::now() > deadline || runner.is_finished() {
                return Err("the replica never served the boot epoch".to_owned());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        // the replica serves reads only; one worker answers the one
        // connection that checks visibility
        let replica_handler: Arc<dyn qatk_serve::Handler> = replica_app;
        let replica_server = Server::bind("127.0.0.1:0", server_config(1), replica_handler)
            .map_err(|e| e.to_string())?;
        Ok(ReplStack {
            svc,
            app,
            server,
            store,
            leader,
            replica_svc,
            replica_server,
            stop,
            runner,
            dir: dir.to_path_buf(),
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    pub fn replica_addr(&self) -> SocketAddr {
        self.replica_server.local_addr()
    }

    /// Stop serving, wait for the follower to apply the leader's whole log,
    /// and compare both databases byte for byte. `Ok(true)` when they match.
    pub fn shutdown_and_compare(self) -> Result<bool, String> {
        self.server.shutdown();
        self.replica_server.shutdown();
        let status = self.leader.status();
        let deadline = Instant::now() + CONVERGE_DEADLINE;
        // caught up: the follower acked the tip the leader last reported,
        // and the tip held still across a few poll intervals
        let mut steady = 0;
        let mut last = (u64::MAX, u64::MAX);
        while steady < 5 {
            if Instant::now() > deadline {
                break;
            }
            let tip = status.tip();
            let acked = status
                .min_acked()
                .map(|c| (c.segment, c.offset))
                .unwrap_or((u64::MAX, u64::MAX));
            steady = if acked == tip && tip == last {
                steady + 1
            } else {
                0
            };
            last = tip;
            std::thread::sleep(LeaderConfig::default().poll_interval);
        }
        self.stop.store(true, Ordering::SeqCst);
        let (follower, result) = self
            .runner
            .join()
            .map_err(|_| "the replica thread panicked".to_owned())?;
        self.leader.shutdown();
        result.map_err(|e| format!("replication stopped: {e}"))?;
        let leader_bytes = self
            .store
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .db()
            .canonical_bytes();
        let same = leader_bytes == follower.db().canonical_bytes();
        drop(follower);
        std::fs::remove_dir_all(&self.dir).ok();
        Ok(same)
    }

    /// Tear down without the convergence check (a discarded set-up).
    pub fn shutdown(self) {
        self.server.shutdown();
        self.replica_server.shutdown();
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.runner.join();
        self.leader.shutdown();
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// The `quest serve --replicate-to` publish hook: hand the `/learn`
/// request's trace id to the replication sessions, persist each published
/// epoch through the WAL before the ack, keep the current and previous
/// epoch, checkpoint every few publishes.
fn publish_hook(store: Arc<Mutex<LoggedDatabase>>, repl_status: Arc<LeaderStatus>) -> PublishHook {
    let publishes = AtomicU64::new(0);
    Arc::new(move |svc: &RecommendationService| {
        repl_status.set_learn_trace(qatk_trace::current_trace_id_u64());
        let snapshot = svc.snapshot();
        let mut store = store.lock().unwrap_or_else(PoisonError::into_inner);
        snapshot
            .save_to_logged(&mut store)
            .map_err(|e| e.to_string())?;
        if snapshot.epoch() >= 2 {
            KnowledgeSnapshot::prune_epochs_below_logged(&mut store, snapshot.epoch() - 1)
                .map_err(|e| e.to_string())?;
        }
        let n = publishes.fetch_add(1, Ordering::SeqCst) + 1;
        if n.is_multiple_of(CHECKPOINT_EVERY) {
            store.checkpoint().map_err(|e| e.to_string())?;
        }
        Ok(())
    })
}
