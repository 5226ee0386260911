//! TCP load generator for the fleet frontier (`zarf loadgen --connect`).
//!
//! Drives thousands of concurrent `ZFLT` connections against a serving
//! fleet from a bounded number of driver threads. Each connection is a
//! nonblocking client state machine (connect → load the counter program →
//! pipeline batched injects → poll until drained → close) multiplexed by
//! its driver the same way the server multiplexes its side, so 10k+
//! connections need only a handful of OS threads on each end.
//!
//! The workload is checked, not just timed: every session runs the same
//! counter program, and a session only counts as finished when its
//! drained output ends in the exact arithmetic sum `ops·(ops+1)/2`. The
//! report is a *trajectory* — the same measurement at several
//! session-count steps — so a scaling regression shows up as a curve,
//! not a single number.

use std::collections::VecDeque;
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use zarf_core::{Int, Word};
use zarf_trace::metrics::Histogram;

use crate::poll::{wait, would_block, Interest, Watch, WriteBuf, MAX_WAIT};
use crate::wire::{FrameBuffer, Request, Response, RetryPolicy, ZFLT};
use crate::{FleetError, Op, SessionConfig};

/// The checked counter workload: each op threads the running sum through
/// the session state and writes the pre-add state to port 1, so the final
/// result word of op `k` is `1+2+…+k`.
const LOADGEN_SRC: &str = "fun step s n =\n\
                           \x20 let w = putint 1 s in\n\
                           \x20 case w of else\n\
                           \x20 let t = add s n in\n\
                           \x20 result t\n\
                           fun main = result 0";

/// Assemble the loadgen counter program, returning its image and the
/// item id of `step`.
pub fn loadgen_program() -> Result<(Vec<Word>, u32), FleetError> {
    let program = zarf_asm::parse(LOADGEN_SRC).map_err(|e| FleetError::Load(e.to_string()))?;
    let m = zarf_asm::lower(&program).map_err(|e| FleetError::Load(e.to_string()))?;
    let step = m
        .items()
        .iter()
        .position(|it| it.name.as_deref() == Some("step"))
        .map(|i| m.id_of(i))
        .ok_or_else(|| FleetError::Load("loadgen program has no `step` item".into()))?;
    let words = zarf_asm::encode(&m).map_err(|e| FleetError::Load(e.to_string()))?;
    Ok((words, step))
}

/// Configuration for [`run_loadgen`].
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Address of a serving fleet (`zarf serve`).
    pub addr: String,
    /// Peak concurrent connections (= sessions; one session per conn).
    pub conns: usize,
    /// Driver threads multiplexing the connections.
    pub drivers: usize,
    /// Send `Shutdown` to the server after the last step.
    pub shutdown: bool,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: "127.0.0.1:7070".into(),
            conns: 64,
            drivers: 4,
            shutdown: false,
        }
    }
}

/// Checked counter ops each session runs.
const OPS_PER_SESSION: u64 = 4;

/// Ops per pipelined `InjectBatch` frame.
const BATCH: u64 = 16;

impl LoadgenConfig {
    /// The session counts to measure: `conns/8, /4, /2, /1`, deduplicated.
    fn trajectory(&self) -> Vec<usize> {
        let mut steps: Vec<usize> = [8, 4, 2, 1]
            .iter()
            .map(|d| (self.conns / d).max(1))
            .collect();
        steps.dedup();
        steps
    }
}

/// One measured point of the trajectory.
#[derive(Debug, Clone)]
pub struct StepReport {
    /// Concurrent sessions (and connections) at this step.
    pub sessions: usize,
    /// Checked ops completed across every session.
    pub total_ops: u64,
    /// Wall-clock for the whole step, connect to last close.
    pub wall_ms: f64,
    /// Completed ops per second of wall-clock.
    pub ops_per_sec: f64,
    /// Median request-frame round trip, microseconds.
    pub p50_us: u64,
    /// 99th-percentile request-frame round trip, microseconds.
    pub p99_us: u64,
    /// Connections that failed transport, protocol, or the arithmetic
    /// check. Any nonzero count voids the step.
    pub failures: u64,
}

/// The full trajectory, serializable as `BENCH_fleet.json`.
#[derive(Debug, Clone, Default)]
pub struct BenchReport {
    /// Peak connection count the run was asked for.
    pub conns: usize,
    /// Driver threads used.
    pub drivers: usize,
    /// One report per trajectory step, in measurement order.
    pub steps: Vec<StepReport>,
}

impl BenchReport {
    /// True when every step completed every session without failures.
    pub fn ok(&self) -> bool {
        !self.steps.is_empty() && self.steps.iter().all(|s| s.failures == 0)
    }

    /// Render as the `BENCH_fleet.json` document the CI gate consumes.
    pub fn to_json(&self) -> String {
        let steps: Vec<String> = self
            .steps
            .iter()
            .map(|s| {
                format!(
                    "{{\"sessions\":{},\"total_ops\":{},\"wall_ms\":{:.3},\
                     \"ops_per_sec\":{:.1},\"p50_us\":{},\"p99_us\":{},\"failures\":{}}}",
                    s.sessions,
                    s.total_ops,
                    s.wall_ms,
                    s.ops_per_sec,
                    s.p50_us,
                    s.p99_us,
                    s.failures
                )
            })
            .collect();
        format!(
            "{{\"bench\":\"fleet\",\"conns\":{},\"ops_per_session\":{},\"drivers\":{},\
             \"ok\":{},\"steps\":[{}]}}",
            self.conns,
            OPS_PER_SESSION,
            self.drivers,
            self.ok(),
            steps.join(",")
        )
    }
}

/// Request frames a connection keeps in flight before waiting for
/// responses: deep enough to exercise server-side pipelining, shallow
/// enough that round-trip samples measure the server rather than the
/// client's own queue.
const WINDOW: usize = 8;

/// New connections each driver establishes per loop pass, so connecting
/// a large step interleaves with servicing already-open connections
/// instead of stampeding the listener's accept backlog.
const CONNECT_BATCH: usize = 64;

/// Socket read size per attempt.
const READ_CHUNK: usize = 16 * 1024;

/// Wait between Poll frames while a session's ops are still executing.
const POLL_COOLDOWN: Duration = Duration::from_millis(2);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Load,
    Inject,
    Drain,
    Close,
    Done,
    Failed,
    /// Transport died and a fresh connection has been scheduled to rerun
    /// this slot's workload from scratch — not a failure yet.
    Retrying,
}

struct BenchConn {
    stream: TcpStream,
    rd: FrameBuffer,
    wr: WriteBuf,
    phase: Phase,
    session: u64,
    sent_ops: u64,
    words: Vec<Int>,
    inflight: VecDeque<Instant>,
    next_poll_at: Instant,
    hist: Histogram,
    /// 1-based connection attempt for this logical slot.
    attempt: u32,
    /// The failure (if any) was transport-level — eligible for retry on
    /// a fresh connection. Protocol damage and arithmetic-check failures
    /// are never retried: they indicate a broken server, not a flaky
    /// network.
    transport_failed: bool,
}

impl BenchConn {
    fn open(addr: &str, program: &[Word], attempt: u32) -> Result<BenchConn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nonblocking(true)
            .map_err(|e| format!("nonblocking: {e}"))?;
        let _unused = stream.set_nodelay(true);
        let mut conn = BenchConn {
            stream,
            rd: FrameBuffer::new(),
            wr: WriteBuf::new(),
            phase: Phase::Load,
            session: 0,
            sent_ops: 0,
            words: Vec::new(),
            inflight: VecDeque::new(),
            next_poll_at: Instant::now(),
            hist: Histogram::new(),
            attempt,
            transport_failed: false,
        };
        conn.queue_request(&Request::LoadProgram {
            config: SessionConfig::default(),
            program: program.to_vec(),
        });
        Ok(conn)
    }

    fn fail(&mut self) {
        self.phase = Phase::Failed;
    }

    fn fail_transport(&mut self) {
        self.transport_failed = true;
        self.phase = Phase::Failed;
    }

    fn queue_request(&mut self, req: &Request) {
        let Ok(frame) = ZFLT.encode(&req.encode()) else {
            self.fail();
            return;
        };
        self.wr.queue(&frame);
        self.inflight.push_back(Instant::now());
    }

    /// Keep the pipeline full for the current phase.
    fn pump(&mut self, step_item: u32) {
        if self.phase == Phase::Inject {
            while self.inflight.len() < WINDOW && self.sent_ops < OPS_PER_SESSION {
                let end = (self.sent_ops + BATCH).min(OPS_PER_SESSION);
                let ops: Vec<Op> = (self.sent_ops + 1..=end)
                    .map(|n| Op::step(step_item, vec![n as Int], vec![]))
                    .collect();
                self.sent_ops = end;
                self.queue_request(&Request::InjectBatch {
                    session: self.session,
                    ops,
                });
            }
        }
        if self.phase == Phase::Drain
            && self.inflight.is_empty()
            && Instant::now() >= self.next_poll_at
        {
            self.queue_request(&Request::Poll {
                session: self.session,
            });
        }
    }

    fn on_response(&mut self, resp: Response) {
        if let Some(sent) = self.inflight.pop_front() {
            let us = Instant::now().duration_since(sent).as_micros();
            self.hist.record(us.min(u128::from(u64::MAX)) as u64);
        }
        match (self.phase, resp) {
            (Phase::Load, Response::Opened { session }) => {
                self.session = session;
                self.phase = Phase::Inject;
            }
            (Phase::Inject, Response::AcceptedBatch { .. }) => {
                if self.sent_ops == OPS_PER_SESSION && self.inflight.is_empty() {
                    self.phase = Phase::Drain;
                }
            }
            (
                Phase::Drain,
                Response::Output {
                    ops_done,
                    pending,
                    words,
                    ..
                },
            ) => {
                self.words.extend_from_slice(&words);
                if ops_done >= OPS_PER_SESSION && pending == 0 {
                    // The checked sum: op k's result word is 1+2+…+k.
                    let want = (OPS_PER_SESSION * (OPS_PER_SESSION + 1) / 2) as i64;
                    if self.words.last().map(|&w| i64::from(w)) == Some(want) {
                        self.phase = Phase::Close;
                        self.queue_request(&Request::Close {
                            session: self.session,
                        });
                    } else {
                        self.fail();
                    }
                } else {
                    self.next_poll_at = Instant::now() + POLL_COOLDOWN;
                }
            }
            (Phase::Close, Response::Closed { .. }) => self.phase = Phase::Done,
            _ => self.fail(),
        }
    }

    /// One readiness pass: read and decode responses, top up the
    /// pipeline, flush writes. Returns true if anything moved.
    fn service(&mut self, step_item: u32) -> bool {
        let mut progress = false;
        loop {
            loop {
                let decoded = match self.rd.next_frame() {
                    Ok(Some(payload)) => Response::decode(payload),
                    Ok(None) => break,
                    Err(_) => {
                        self.fail();
                        break;
                    }
                };
                progress = true;
                match decoded {
                    Ok(resp) => self.on_response(resp),
                    Err(_) => self.fail(),
                }
            }
            if matches!(self.phase, Phase::Done | Phase::Failed) {
                break;
            }
            match self.rd.fill_from(&mut self.stream, READ_CHUNK) {
                Ok(0) => {
                    self.fail_transport();
                    break;
                }
                Ok(_) => progress = true,
                Err(ref e) if would_block(e) => break,
                Err(_) => {
                    self.fail_transport();
                    break;
                }
            }
        }
        if matches!(self.phase, Phase::Done | Phase::Failed) {
            return progress;
        }
        self.pump(step_item);
        match self.wr.try_flush(&mut self.stream) {
            Ok(0) => {}
            Ok(_) => progress = true,
            Err(_) => self.fail_transport(),
        }
        progress
    }
}

struct DriverStats {
    hist: Histogram,
    ops_done: u64,
    failures: u64,
}

/// Multiplex `count` connections against `addr` until each is done or
/// failed. Connections are opened incrementally so the accept backlog
/// sees a stream, not a stampede. Transport failures (connect refused,
/// connection killed mid-workload) retry on a fresh connection under a
/// bounded-backoff [`RetryPolicy`] — the retried slot reruns its checked
/// workload from scratch on a new session — so a transient kill doesn't
/// fail the driver's step. Protocol and arithmetic-check failures are
/// terminal: retrying a broken server would only hide the bug.
fn drive_partition(addr: &str, count: usize, program: &[Word], step_item: u32) -> DriverStats {
    let policy = RetryPolicy::default();
    let mut stats = DriverStats {
        hist: Histogram::new(),
        ops_done: 0,
        failures: 0,
    };
    let mut conns: Vec<BenchConn> = Vec::with_capacity(count);
    let mut to_open = count;
    // Logical slots whose transport died, waiting out their backoff:
    // (ready-at instant, next 1-based attempt number).
    let mut retries: Vec<(Instant, u32)> = Vec::new();
    let mut watches: Vec<Watch> = Vec::new();
    loop {
        let mut progress = false;
        let now = Instant::now();
        let mut i = 0;
        while i < retries.len() {
            if retries[i].0 > now {
                i += 1;
                continue;
            }
            let (_, attempt) = retries.swap_remove(i);
            match BenchConn::open(addr, program, attempt) {
                Ok(c) => conns.push(c),
                Err(_) if attempt < policy.max_attempts => {
                    retries.push((now + policy.backoff(attempt), attempt + 1));
                }
                Err(_) => stats.failures += 1,
            }
            progress = true;
        }
        for _ in 0..CONNECT_BATCH.min(to_open) {
            match BenchConn::open(addr, program, 1) {
                Ok(c) => conns.push(c),
                Err(_) if policy.max_attempts > 1 => {
                    retries.push((Instant::now() + policy.backoff(1), 2));
                }
                Err(_) => stats.failures += 1,
            }
            to_open -= 1;
            progress = true;
        }
        let mut live = 0usize;
        for conn in conns.iter_mut() {
            if matches!(conn.phase, Phase::Done | Phase::Failed) {
                continue;
            }
            progress |= conn.service(step_item);
            if conn.phase == Phase::Failed
                && conn.transport_failed
                && conn.attempt < policy.max_attempts
            {
                retries.push((
                    Instant::now() + policy.backoff(conn.attempt),
                    conn.attempt + 1,
                ));
                conn.phase = Phase::Retrying;
            }
            if !matches!(conn.phase, Phase::Done | Phase::Failed | Phase::Retrying) {
                live += 1;
            }
        }
        conns.retain(|c| c.phase != Phase::Retrying);
        if to_open == 0 && live == 0 && retries.is_empty() {
            break;
        }
        if !progress {
            // Wait until a response lands or the earliest retry or
            // poll-gap deadline; a failed wait just runs the next pass.
            let mut deadline = Instant::now() + MAX_WAIT;
            watches.clear();
            for conn in &conns {
                if matches!(conn.phase, Phase::Done | Phase::Failed) {
                    continue;
                }
                if conn.phase == Phase::Drain && conn.inflight.is_empty() {
                    deadline = deadline.min(conn.next_poll_at);
                }
                let interest = Interest {
                    read: true,
                    write: !conn.wr.is_empty(),
                };
                watches.push(Watch::new(conn.stream.as_raw_fd(), interest));
            }
            for &(ready_at, _) in &retries {
                deadline = deadline.min(ready_at);
            }
            let _ = wait(
                &mut watches,
                deadline.saturating_duration_since(Instant::now()),
            );
        }
    }
    for conn in &conns {
        match conn.phase {
            Phase::Done => {
                stats.ops_done += OPS_PER_SESSION;
                stats.hist.merge(&conn.hist);
            }
            _ => stats.failures += 1,
        }
    }
    stats
}

/// Run the TCP loadgen trajectory against a serving fleet.
///
/// Each trajectory step opens its own fresh set of connections and
/// sessions, runs the checked counter workload to completion, and closes
/// everything before the next step, so steps measure independent
/// steady states. Transport errors and check failures are contained to
/// their connection and surface in [`StepReport::failures`].
pub fn run_loadgen(cfg: &LoadgenConfig) -> Result<BenchReport, FleetError> {
    let (program, step_item) = loadgen_program()?;
    let drivers = cfg.drivers.max(1);
    let mut report = BenchReport {
        conns: cfg.conns,
        drivers,
        steps: Vec::new(),
    };
    for sessions in cfg.trajectory() {
        let start = Instant::now();
        let mut merged = DriverStats {
            hist: Histogram::new(),
            ops_done: 0,
            failures: 0,
        };
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(drivers);
            for d in 0..drivers {
                // Spread the remainder so partitions differ by at most 1.
                let share = sessions / drivers + usize::from(d < sessions % drivers);
                if share == 0 {
                    continue;
                }
                let (addr, program) = (&cfg.addr, &program);
                handles.push((
                    share,
                    scope.spawn(move || drive_partition(addr, share, program, step_item)),
                ));
            }
            for (share, h) in handles {
                match h.join() {
                    Ok(s) => {
                        merged.hist.merge(&s.hist);
                        merged.ops_done += s.ops_done;
                        merged.failures += s.failures;
                    }
                    Err(_) => merged.failures += share as u64,
                }
            }
        });
        let wall = start.elapsed();
        report.steps.push(StepReport {
            sessions,
            total_ops: merged.ops_done,
            wall_ms: wall.as_secs_f64() * 1e3,
            ops_per_sec: merged.ops_done as f64 / wall.as_secs_f64().max(1e-9),
            p50_us: merged.hist.quantile(0.5),
            p99_us: merged.hist.quantile(0.99),
            failures: merged.failures,
        });
    }
    if cfg.shutdown {
        let mut client = crate::server::Client::connect(&cfg.addr)?;
        client.request(&Request::Shutdown)?;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loadgen_program_assembles_and_names_step() {
        let (words, step) = loadgen_program().unwrap();
        assert!(!words.is_empty());
        // `main` always lowers to 0x100; `step` follows.
        assert_eq!(step, 0x101);
    }

    #[test]
    fn default_trajectory_scales_with_conns() {
        let cfg = LoadgenConfig {
            conns: 80,
            ..LoadgenConfig::default()
        };
        assert_eq!(cfg.trajectory(), vec![10, 20, 40, 80]);
        let tiny = LoadgenConfig {
            conns: 1,
            ..LoadgenConfig::default()
        };
        assert_eq!(tiny.trajectory(), vec![1]);
    }

    #[test]
    fn report_json_is_well_formed_and_gated_on_failures() {
        let mut report = BenchReport {
            conns: 8,
            drivers: 2,
            steps: vec![StepReport {
                sessions: 8,
                total_ops: 32,
                wall_ms: 1.5,
                ops_per_sec: 21333.3,
                p50_us: 40,
                p99_us: 90,
                failures: 0,
            }],
        };
        assert!(report.ok());
        let json = report.to_json();
        assert!(json.contains("\"bench\":\"fleet\""));
        assert!(json.contains("\"p99_us\":90"));
        assert!(json.contains("\"ok\":true"));
        report.steps[0].failures = 1;
        assert!(!report.ok());
        assert!(report.to_json().contains("\"ok\":false"));
        assert!(!BenchReport::default().ok());
    }
}
