//! `counter_tcp`: a closed loop over real TCP to a storeless fleet.
//!
//! Two connections multiplex ~1k tiny counter sessions (the loadgen
//! counter program, seeded arguments, a checked running sum) with a fixed
//! window of pipelined `InjectBatch` + `Poll` frames per connection.
//!
//! Why: frontier decode/encode, inbox and run queue, and rehydrate per
//! slice dominate, because the sessions far outnumber the resident cache
//! (workers × 8). Execution is a few λ-instructions per op and no store is
//! involved. This is the fleet's throughput ceiling.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use zarf_core::Int;
use zarf_fleet::bench::loadgen_program;
use zarf_fleet::wire::{encode_frame, Request, Response};
use zarf_fleet::{FleetConfig, Op, SessionConfig};

use crate::fleet_common::{drain, fill_replay_metrics, workers, Conn, Replay, Served, Slice};
use crate::gen::counter_arg;
use crate::metrics::{peak_rss_mb, Outcome};
use crate::stats::{setup_time, Micros, Summary};
use crate::trace::Tracer;
use crate::Config;

/// Counter sessions, split across the connections.
const SESSIONS: usize = 1024;
/// Client connections (and so frontier connections).
const CONNS: usize = 2;
/// Sessions with a batch in flight, per connection.
const WINDOW: usize = 8;
/// Ops per `InjectBatch` frame.
const BATCH: u64 = 4;
/// Untimed traffic before the window opens.
const WARMUP: Duration = Duration::from_millis(1000);
/// Timed set-ups per run; the first is measured, the 10th percentile is
/// reported.
const SETUPS: usize = 101;
/// Slices the traced replay runs through the layers.
const REPLAY_SLICES: usize = 12_000;
/// Timed ops per session whose latency is kept by (session, op sequence)
/// for the traced replay; every latency sample is kept unkeyed.
const KEYED_OPS: u64 = 16 * BATCH;

#[derive(Debug, Clone, Copy)]
enum Tag {
    Open(usize),
    Inject(usize),
    Poll(usize),
}

#[derive(Debug)]
struct Sess {
    sid: u64,
    injected: u64,
    seen: u64,
    sum: i64,
    sent_at: Option<Instant>,
    timed: bool,
    /// Sequence number of the session's first op sent in the window.
    first_timed: Option<u64>,
    busy: bool,
    failed: bool,
    buf: Vec<Int>,
}

struct Setup {
    served: Served,
    conns: Vec<Conn<Tag>>,
    sessions: Vec<Sess>,
    step: u32,
}

fn setup() -> Result<Setup, String> {
    let (program, step) = loadgen_program().map_err(|e| e.to_string())?;
    let served = Served::start(FleetConfig {
        workers: workers(),
        ..FleetConfig::default()
    })?;
    let mut conns = Vec::new();
    for _ in 0..CONNS {
        conns.push(Conn::connect(served.addr)?);
    }
    for i in 0..SESSIONS {
        conns[i % CONNS].send(
            &Request::LoadProgram {
                config: SessionConfig::default(),
                program: program.clone(),
            },
            Tag::Open(i),
        );
    }
    let mut sessions: Vec<Option<Sess>> = (0..SESSIONS).map(|_| None).collect();
    let mut err = None;
    drain(&mut conns, Duration::from_secs(60), |tag, resp| {
        match (tag, resp) {
            (Tag::Open(i), Response::Opened { session }) => {
                sessions[i] = Some(Sess {
                    sid: session,
                    injected: 0,
                    seen: 0,
                    sum: 0,
                    sent_at: None,
                    timed: false,
                    first_timed: None,
                    busy: false,
                    failed: false,
                    buf: Vec::new(),
                })
            }
            (_, other) => err = Some(format!("open: unexpected {other:?}")),
        }
    })?;
    if let Some(e) = err {
        return Err(e);
    }
    Ok(Setup {
        served,
        conns,
        sessions: sessions.into_iter().map(|s| s.expect("opened")).collect(),
        step,
    })
}

fn batch_ops(seed: u64, step: u32, slot: u64, from: u64) -> Vec<Op> {
    (from..from + BATCH)
        .map(|k| Op::step(step, vec![counter_arg(seed, slot, k)], vec![]))
        .collect()
}

/// Check a session's newly polled words: each op writes the pre-add sum
/// to port 1 and returns the new sum. Returns the number of ops checked.
fn check_words(s: &mut Sess, seed: u64, slot: u64, errors: &mut Vec<String>) -> u64 {
    let mut n = 0;
    while s.buf.len() >= 4 && s.seen < s.injected {
        let w: Vec<Int> = s.buf.drain(..4).collect();
        let arg = i64::from(counter_arg(seed, slot, s.seen));
        let want = [1, 1, s.sum, s.sum + arg];
        if w.iter().map(|&x| i64::from(x)).ne(want) {
            errors.push(format!(
                "session {slot} op {}: {w:?}, expected {want:?}",
                s.seen
            ));
            s.failed = true;
        }
        s.sum += arg;
        s.seen += 1;
        n += 1;
    }
    n
}

pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let t = Instant::now();
    let Setup {
        served,
        mut conns,
        mut sessions,
        step,
    } = match setup() {
        Ok(s) => s,
        Err(e) => {
            out.check(false, || format!("set-up failed: {e}"));
            return out;
        }
    };
    let mut setups = vec![t.elapsed().as_secs_f64()];

    // Latency in ms of every op sent inside the window; in traced runs the
    // first KEYED_OPS of each session are also kept by (slot, op seq).
    let mut lat = Micros::new();
    let mut keyed: HashMap<(u64, u64), f64> = HashMap::new();
    let mut errors = Vec::new();
    let mut cursor = [0usize; CONNS];
    let mut busy = [0usize; CONNS];
    let mut checked = 0u64;
    let mut in_window = 0u64;
    let start = Instant::now();
    let t0 = start + WARMUP;
    let t1 = t0 + Duration::from_secs_f64(cfg.seconds);
    let mut drain_until = None;
    let mut repoll = Vec::new();
    let outcome: Result<(), String> = (|| loop {
        let now = Instant::now();
        let open = now < t1;
        if !open && drain_until.is_none() {
            drain_until = Some(now + Duration::from_secs(30));
        }
        let mut progress = false;
        for c in 0..CONNS {
            // Round-robin over this connection's sessions, skipping busy
            // and failed ones; one lap at most, so a connection whose
            // sessions all failed stops sending.
            let per = SESSIONS / CONNS;
            let mut tries = 0;
            while open && busy[c] < WINDOW && tries < per {
                let i = (cursor[c] % per) * CONNS + c;
                cursor[c] += 1;
                tries += 1;
                let s = &mut sessions[i];
                if s.busy || s.failed {
                    continue;
                }
                let ops = batch_ops(cfg.seed, step, i as u64, s.injected);
                s.timed = now >= t0;
                if s.timed && s.first_timed.is_none() {
                    s.first_timed = Some(s.injected);
                }
                s.injected += BATCH;
                s.busy = true;
                s.sent_at = Some(now);
                busy[c] += 1;
                conns[c].send(
                    &Request::InjectBatch {
                        session: s.sid,
                        ops,
                    },
                    Tag::Inject(i),
                );
                conns[c].send(&Request::Poll { session: s.sid }, Tag::Poll(i));
            }
            progress |= conns[c].pump(|tag, resp| match (tag, resp) {
                (Tag::Inject(_), Response::AcceptedBatch { .. }) => {}
                (Tag::Poll(i), Response::Output { words, .. }) => {
                    let seen_at = Instant::now();
                    let s = &mut sessions[i];
                    s.buf.extend_from_slice(&words);
                    let before = s.seen;
                    let n = check_words(s, cfg.seed, i as u64, &mut errors);
                    checked += n;
                    if seen_at >= t0 && seen_at < t1 {
                        in_window += n;
                    }
                    if s.timed {
                        let ms = s
                            .sent_at
                            .map_or(0.0, |t| seen_at.duration_since(t).as_secs_f64() * 1e3);
                        let first = s.first_timed.unwrap_or(0);
                        for q in before..s.seen {
                            lat.push_ms(ms);
                            if cfg.trace && q < first + KEYED_OPS {
                                keyed.insert((i as u64, q), ms);
                            }
                        }
                    }
                    if s.seen == s.injected || s.failed {
                        s.busy = false;
                        busy[c] -= 1;
                    } else {
                        repoll.push(i);
                    }
                }
                (tag, other) => {
                    let i = match tag {
                        Tag::Open(i) | Tag::Inject(i) | Tag::Poll(i) => i,
                    };
                    errors.push(format!("session {i}: unexpected {other:?}"));
                    let s = &mut sessions[i];
                    s.failed = true;
                    if s.busy && matches!(tag, Tag::Poll(_)) {
                        s.busy = false;
                        busy[c] -= 1;
                    }
                }
            })?;
            for i in repoll.drain(..) {
                conns[c].send(
                    &Request::Poll {
                        session: sessions[i].sid,
                    },
                    Tag::Poll(i),
                );
            }
        }
        if !open && busy.iter().all(|&b| b == 0) {
            return Ok(());
        }
        if drain_until.is_some_and(|d| Instant::now() > d) {
            return Err("drain timed out".into());
        }
        if !progress {
            std::thread::sleep(Duration::from_micros(20));
        }
    })();
    if let Err(e) = outcome {
        errors.push(e);
    }
    let frames: [u64; 4] = conns.iter().fold([0; 4], |a, c| {
        [
            a[0] + c.frames_out,
            a[1] + c.frames_in,
            a[2] + c.bytes_out,
            a[3] + c.bytes_in,
        ]
    });
    drop(conns);
    let stats = served.stop();
    out.set("peak_rss_mb", peak_rss_mb());
    // The other timed set-ups run after the measured fleet has stopped, so
    // their memory is not counted in the workload's peak, and set-up is
    // sampled at both ends of the run.
    while !cfg.trace && setups.len() < SETUPS {
        let t = Instant::now();
        match setup() {
            Ok(s) => {
                setups.push(t.elapsed().as_secs_f64());
                drop(s.conns);
                if let Err(e) = s.served.stop() {
                    out.check(false, || e);
                }
            }
            Err(e) => {
                out.check(false, || format!("set-up failed: {e}"));
                break;
            }
        }
    }
    out.set("setup_s", setup_time(&setups));

    let injected: u64 = sessions.iter().map(|s| s.injected).sum();
    out.attempted = injected.max(1);
    out.failed += injected - checked + errors.len() as u64;
    out.errors.extend(errors);
    let sum = lat.summary();
    drop(lat);
    out.set("latency_ms", sum.p50);
    out.note(format!(
        "counter_tcp: {} sessions over {CONNS} connections, window {WINDOW} x {BATCH} ops, {} workers",
        SESSIONS,
        workers()
    ));
    out.note(format!(
        "ops_per_s {:.1} 1/s ({in_window} checked ops in {} s); op latency {}",
        in_window as f64 / cfg.seconds,
        cfg.seconds,
        sum.describe("ms")
    ));
    out.note(format!(
        "setup_s {}; {checked} of {injected} injected ops checked",
        Summary::of(&setups).describe("s")
    ));

    if cfg.trace {
        match stats {
            Ok(st) => {
                out.set("fleet.slices", st.slices as f64);
                out.set(
                    "fleet.ops_per_slice",
                    st.ops_done as f64 / st.slices.max(1) as f64,
                );
                out.set("fleet.rehydrations", st.rehydrations as f64);
                out.set("fleet.evictions", st.evictions as f64);
                out.set(
                    "fleet.resident_hit_ratio",
                    1.0 - st.rehydrations as f64 / st.slices.max(1) as f64,
                );
            }
            Err(e) => out.check(false, || e),
        }
        out.set("loadgen.frames", (frames[0] + frames[1]) as f64);
        out.set("wire.frames_in", frames[0] as f64);
        out.set("wire.frames_out", frames[1] as f64);
        out.set("wire.bytes_in", frames[2] as f64);
        out.set("wire.bytes_out", frames[3] as f64);
        out.set("trace.e2e_p50_ms", sum.p50);
        out.set("trace.e2e_p99_ms", sum.p99);
        replay(cfg, step, &sessions, &keyed, &mut out);
    } else if let Err(e) = stats {
        out.check(false, || e);
    }
    out
}

/// The traced replay: the same seeded batches, round-robin over the
/// sessions as the closed loop issues them, once untraced and once
/// traced.
fn replay(
    cfg: &Config,
    step: u32,
    sessions: &[Sess],
    latency: &HashMap<(u64, u64), f64>,
    out: &mut Outcome,
) {
    let (program, _) = loadgen_program().expect("counter program assembles");
    // Each session's state depends on every earlier op, so the replay runs
    // every batch from the first; only batches sent inside the timed
    // window are traced, up to REPLAY_SLICES of them.
    let first_timed: Vec<u64> = sessions
        .iter()
        .enumerate()
        .map(|(i, s)| {
            (0..s.seen / BATCH)
                .find(|b| latency.contains_key(&(i as u64, b * BATCH)))
                .unwrap_or(u64::MAX)
        })
        .collect();
    let mut slices = Vec::new();
    let mut traced_slices = 0;
    'fill: for b in 0.. {
        let mut any = false;
        for (i, s) in sessions.iter().enumerate() {
            if (b + 1) * BATCH > s.seen {
                continue;
            }
            any = true;
            let timed = b >= first_timed[i];
            if timed && traced_slices == REPLAY_SLICES {
                break 'fill;
            }
            traced_slices += usize::from(timed);
            let req = Request::InjectBatch {
                session: i as u64,
                ops: batch_ops(cfg.seed, step, i as u64, b * BATCH),
            };
            slices.push((
                timed,
                Slice {
                    slot: i as u64,
                    first_seq: b * BATCH,
                    frame: encode_frame(&req.encode()),
                },
            ));
        }
        if !any {
            break;
        }
    }
    let mut walls = [0.0; 2];
    let mut traced = None;
    for (pass, on) in [false, true].into_iter().enumerate() {
        let mut r = Replay::new(&SessionConfig::default(), None);
        for i in 0..sessions.len() {
            if let Err(e) = r.open(i as u64, &program) {
                out.check(false, || format!("replay open: {e}"));
                return;
            }
        }
        let mut tracer = Tracer::new(on);
        let mut quiet = Tracer::new(false);
        let t = Instant::now();
        for (timed, s) in &slices {
            let t = if *timed { &mut tracer } else { &mut quiet };
            if let Err(e) = r.slice(s, t) {
                out.check(false, || format!("replay: {e}"));
                return;
            }
        }
        walls[pass] = t.elapsed().as_secs_f64();
        traced = Some((r, tracer));
    }
    let (r, tracer) = traced.expect("two passes ran");
    // The replay must reproduce the checked sums too.
    for (slot, words) in &r.outputs {
        let mut sum = 0i64;
        for (k, w) in words.chunks(4).enumerate() {
            let arg = i64::from(counter_arg(cfg.seed, *slot, k as u64));
            out.attempted += 1;
            out.check(w.len() == 4 && i64::from(w[3]) == sum + arg, || {
                format!("replay session {slot} op {k}: {w:?}")
            });
            sum += arg;
        }
    }
    fill_replay_metrics(&r, &tracer, &walls, latency, BATCH, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A session that has injected `ops` ops and polled `words`.
    fn polled(ops: u64, words: Vec<Int>) -> Sess {
        Sess {
            sid: 0,
            injected: ops,
            seen: 0,
            sum: 0,
            sent_at: None,
            timed: false,
            first_timed: None,
            busy: true,
            failed: false,
            buf: words,
        }
    }

    /// The words a correct counter session writes for its first `ops` ops.
    fn expected(seed: u64, slot: u64, ops: u64) -> Vec<Int> {
        let mut sum = 0;
        let mut words = Vec::new();
        for k in 0..ops {
            let next = sum + counter_arg(seed, slot, k);
            words.extend([1, 1, sum, next]);
            sum = next;
        }
        words
    }

    #[test]
    fn running_sums_check_and_a_corrupted_sum_fails() {
        let (seed, slot) = (5, 3);
        let mut errors = Vec::new();
        let mut s = polled(8, expected(seed, slot, 8));
        assert_eq!(check_words(&mut s, seed, slot, &mut errors), 8);
        assert!(errors.is_empty() && !s.failed, "{errors:?}");

        // One running sum off by one is a wrong answer.
        let mut words = expected(seed, slot, 8);
        words[4 * 5 + 3] += 1;
        let mut s = polled(8, words);
        check_words(&mut s, seed, slot, &mut errors);
        assert!(s.failed);
        assert_eq!(errors.len(), 1, "{errors:?}");

        // A partial op's words wait for the rest.
        let mut s = polled(2, expected(seed, slot, 2)[..6].to_vec());
        assert_eq!(check_words(&mut s, seed, slot, &mut errors), 1);
    }
}
