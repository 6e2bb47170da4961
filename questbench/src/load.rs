//! Load generation on `qatk_serve::HttpClient`: an open loop that times
//! every request from the moment it was due, and a closed loop that counts
//! completions per fixed window.
//!
//! `qatk_serve::loadgen` is not used for timing: its open mode starts the
//! clock at send, which hides the wait a server stall imposes on every
//! request queued behind it, and its log2-histogram percentiles can be off
//! by up to 2×. Here every latency is kept as a raw sample.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use qatk_serve::{ClientResponse, HttpClient};

/// Socket timeout of every benchmark connection.
const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// A due request still unsent this long after its phase ended is given up
/// and counted as failed: the generator could not keep the schedule.
pub const GIVE_UP_AFTER: Duration = Duration::from_secs(1);

/// One keep-alive connection that reconnects after a transport error.
pub struct Conn {
    addr: SocketAddr,
    client: Option<HttpClient>,
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Conn {
        Conn { addr, client: None }
    }

    /// POST `body` to `path`. A transport error drops the connection; the
    /// next call opens a fresh one.
    pub fn post(&mut self, path: &str, body: &str) -> std::io::Result<ClientResponse> {
        if self.client.is_none() {
            self.client = Some(HttpClient::connect(self.addr, IO_TIMEOUT)?);
        }
        let client = self.client.as_mut().expect("connected above");
        let result = client.request("POST", path, Some(body));
        if result.as_ref().map_or(true, ClientResponse::close) {
            self.client = None;
        }
        result
    }
}

/// How one operation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Ok,
    /// A non-2xx status.
    Status(u16),
    /// Connect, read or write failed.
    Transport,
    /// A 2xx whose answer differs from the oracle.
    Wrong,
}

/// Operation tallies; every failure kind is also part of `failed`.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub non_2xx: u64,
    pub transport: u64,
    pub wrong: u64,
    /// Due requests the generator never sent (open loop behind schedule),
    /// and learns not visible before their deadline.
    pub missed: u64,
}

impl Tally {
    pub fn record(&mut self, outcome: Outcome) {
        self.attempted += 1;
        match outcome {
            Outcome::Ok => {}
            Outcome::Status(_) => self.non_2xx += 1,
            Outcome::Transport => self.transport += 1,
            Outcome::Wrong => self.wrong += 1,
        }
        if outcome != Outcome::Ok {
            self.failed += 1;
        }
    }

    pub fn miss(&mut self, n: u64) {
        self.attempted += n;
        self.failed += n;
        self.missed += n;
    }

    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.non_2xx += other.non_2xx;
        self.transport += other.transport;
        self.wrong += other.wrong;
        self.missed += other.missed;
    }
}

/// Raw results of one load phase.
#[derive(Debug, Default)]
pub struct Phase {
    pub span: Duration,
    /// Successful requests: open loop from due time, closed loop from send.
    pub latency_ns: Vec<u64>,
    /// Open loop: how late each request was sent after its due time.
    pub late_ns: Vec<u64>,
    /// Open loop: (due offset from the phase start, latency) of each
    /// successful request, unsorted.
    pub by_due_ns: Vec<(u64, u64)>,
    /// Closed loop: completion offsets from the phase start.
    pub done_ns: Vec<u64>,
    pub tally: Tally,
}

impl Phase {
    fn absorb(&mut self, other: Phase) {
        self.latency_ns.extend(other.latency_ns);
        self.late_ns.extend(other.late_ns);
        self.by_due_ns.extend(other.by_due_ns);
        self.done_ns.extend(other.done_ns);
        self.tally.merge(&other.tally);
    }

    /// All samples of `phases` in one sorted phase, for whole-run tails.
    /// Offsets from different phase starts do not line up, so they are left
    /// out.
    pub fn merge<'a>(phases: impl Iterator<Item = &'a Phase>) -> Phase {
        let mut all = Phase::default();
        for p in phases {
            all.span += p.span;
            all.latency_ns.extend_from_slice(&p.latency_ns);
            all.late_ns.extend_from_slice(&p.late_ns);
            all.tally.merge(&p.tally);
        }
        all.sorted()
    }

    /// Sort the sample vectors so percentiles can be read off directly.
    fn sorted(mut self) -> Phase {
        self.latency_ns.sort_unstable();
        self.late_ns.sort_unstable();
        self.done_ns.sort_unstable();
        self
    }
}

/// A fixed-rate arrival schedule: request `i` is due `i / rate` seconds
/// after the phase starts, whatever happened to earlier requests.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    rate: f64,
}

impl Schedule {
    pub fn new(rate: f64) -> Schedule {
        assert!(rate > 0.0, "a schedule needs a positive rate");
        Schedule { rate }
    }

    /// Offset of request `i` from the phase start.
    pub fn due(&self, i: u64) -> Duration {
        Duration::from_nanos((i as f64 * 1e9 / self.rate).round() as u64)
    }

    /// Requests due within a phase of length `span`.
    pub fn count_within(&self, span: Duration) -> u64 {
        let mut n = (span.as_secs_f64() * self.rate).ceil() as u64;
        while n > 0 && self.due(n - 1) >= span {
            n -= 1;
        }
        while self.due(n) < span {
            n += 1;
        }
        n
    }
}

/// Wait until `deadline` (no-op when it has passed) by yielding in a loop,
/// so every runnable server thread goes first. A generator that slept
/// would let its vCPU halt, and on a virtual machine the next request woken
/// there pays milliseconds of wake-up: tried on `learn_replicated`'s paced
/// learn thread, its read p90 went from ~200 µs to 0.9–16 ms (README.md).
pub fn wait_until(deadline: Instant) {
    while Instant::now() < deadline {
        std::thread::yield_now();
    }
}

/// Open loop over `conns`: request `i` of the schedule goes out on
/// connection `i % conns.len()` at its due time (or as soon as that
/// connection is free, if it is behind), and its latency runs from the due
/// time to the response. `op` sends request `i` and judges the answer.
pub fn open_loop<F>(conns: &mut [Conn], schedule: Schedule, span: Duration, op: F) -> Phase
where
    F: Fn(&mut Conn, u64) -> Outcome + Sync,
{
    let stride = conns.len() as u64;
    let total = schedule.count_within(span);
    let start = Instant::now() + Duration::from_millis(2);
    let op = &op;
    let parts: Vec<Phase> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(j, conn)| {
                s.spawn(move || {
                    let mut out = Phase::default();
                    let mut i = j as u64;
                    while i < total {
                        let due = start + schedule.due(i);
                        wait_until(due);
                        let sent = Instant::now();
                        if sent > start + span + GIVE_UP_AFTER {
                            out.tally.miss((total - i).div_ceil(stride));
                            break;
                        }
                        let outcome = op(conn, i);
                        let done = Instant::now();
                        out.tally.record(outcome);
                        out.late_ns.push((sent - due).as_nanos() as u64);
                        if outcome == Outcome::Ok {
                            let latency = (done - due).as_nanos() as u64;
                            out.latency_ns.push(latency);
                            out.by_due_ns
                                .push((schedule.due(i).as_nanos() as u64, latency));
                        }
                        i += stride;
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("an open-loop generator thread panicked"))
            .collect()
    });
    let mut phase = Phase {
        span,
        ..Phase::default()
    };
    for p in parts {
        phase.absorb(p);
    }
    phase.sorted()
}

/// Closed loop over `conns`: each connection sends its next request as soon
/// as the previous one is answered, until `span` has passed. Requests are
/// numbered globally so every connection walks the same request order.
pub fn closed_loop<F>(conns: &mut [Conn], span: Duration, op: F) -> Phase
where
    F: Fn(&mut Conn, u64) -> Outcome + Sync,
{
    let next = AtomicU64::new(0);
    let start = Instant::now();
    let end = start + span;
    let (op, next) = (&op, &next);
    let parts: Vec<Phase> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                s.spawn(move || {
                    let mut out = Phase::default();
                    loop {
                        let sent = Instant::now();
                        if sent >= end {
                            break;
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let outcome = op(conn, i);
                        let done = Instant::now();
                        out.tally.record(outcome);
                        if outcome == Outcome::Ok {
                            out.latency_ns.push((done - sent).as_nanos() as u64);
                            out.done_ns.push((done - start).as_nanos() as u64);
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a closed-loop thread panicked"))
            .collect()
    });
    let mut phase = Phase {
        span,
        ..Phase::default()
    };
    for p in parts {
        phase.absorb(p);
    }
    phase.sorted()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_follow_the_rate_not_the_responses() {
        let s = Schedule::new(4000.0);
        assert_eq!(s.due(0), Duration::ZERO);
        assert_eq!(s.due(1), Duration::from_micros(250));
        assert_eq!(s.due(4000), Duration::from_secs(1));
        // strictly increasing, evenly spaced
        for i in 0..10_000 {
            let gap = s.due(i + 1) - s.due(i);
            assert!(gap >= Duration::from_nanos(249_999) && gap <= Duration::from_nanos(250_001));
        }
        // non-integer intervals do not drift
        let s = Schedule::new(3.0);
        assert_eq!(s.due(3), Duration::from_secs(1));
        assert_eq!(s.due(300), Duration::from_secs(100));
    }

    #[test]
    fn count_within_counts_requests_due_before_the_end() {
        let s = Schedule::new(1000.0);
        assert_eq!(s.count_within(Duration::from_secs(2)), 2000);
        assert_eq!(s.count_within(Duration::from_micros(1500)), 2);
        assert_eq!(s.count_within(Duration::ZERO), 0);
        let s = Schedule::new(3.0);
        // due at 0, 1/3, 2/3 s
        assert_eq!(s.count_within(Duration::from_secs(1)), 3);
        assert_eq!(s.count_within(Duration::from_millis(334)), 2);
    }

    #[test]
    fn tally_counts_every_failure_kind_as_failed() {
        let mut t = Tally::default();
        for o in [
            Outcome::Ok,
            Outcome::Status(503),
            Outcome::Transport,
            Outcome::Wrong,
            Outcome::Ok,
        ] {
            t.record(o);
        }
        t.miss(2);
        assert_eq!(t.attempted, 7);
        assert_eq!(t.failed, 5);
        assert_eq!((t.non_2xx, t.transport, t.wrong, t.missed), (1, 1, 1, 2));
    }
}
