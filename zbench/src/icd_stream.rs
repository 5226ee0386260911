//! `icd_stream`: an open loop over real TCP to a durable fleet (`Store`,
//! fsync on) that replicates to an in-process standby (`serve_repl` +
//! `spawn_replicator`, fsync on).
//!
//! A few verified-loaded kernel sessions (`session_image`) each receive
//! one `session_step` op per ECG sample at the device's 200 Hz. Each
//! session gets its own seeded ECG — rhythm, VT-episode timing, noise — so
//! content-addressed dedup sees realistic sharing. Latency runs from each
//! sample's due time to the `Poll` response that carries its result.
//!
//! Why: it is the paper's deployment behind the service plane. Every op is
//! its own slice, so execution, boundary GC, `hibernate`, the store commit
//! and replication shipping all sit on the blocking path, while the
//! frontier is nearly idle. Sessions fit the resident cache, so the commit
//! path runs and the rehydrate path does not. The session count keeps the
//! offered load near half the durable capacity.

use std::collections::HashMap;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use zarf_core::Int;
use zarf_fleet::op::RES_OPAQUE;
use zarf_fleet::wire::{encode_frame, Request, Response, ERR_OVERLOADED};
use zarf_fleet::{
    serve_repl, spawn_replicator, FleetConfig, FleetError, Op, PortFeed, ReplReceiverStats,
    ReplSink, ReplicatorConfig, SessionConfig,
};
use zarf_icd::IcdSpec;
use zarf_kernel::program::{PORT_CHANNEL, PORT_CHANNEL_STATUS, PORT_ECG, PORT_PACE, PORT_TIMER};
use zarf_kernel::KernelSessionImage;
use zarf_store::{fsck, Store, StoreConfig};

use crate::fleet_common::{
    drain, fill_replay_metrics, workers, Conn, Replay, ReplayStores, Scratch, Served, Slice,
};
use crate::gen::ecg_samples;
use crate::metrics::{peak_rss_mb, Outcome};
use crate::stats::{setup_time, Summary};
use crate::trace::Tracer;
use crate::Config;

/// Kernel sessions streaming ECG at 200 Hz each.
const SESSIONS: usize = 4;
/// Client connections.
const CONNS: usize = 2;
/// Sample period of the device.
const PERIOD_US: u64 = 5_000;
/// The paper's pacing deadline.
const DEADLINE_MS: f64 = 5.0;
/// Samples streamed before the timed window opens.
const WARM_SAMPLES: usize = 100;
/// Minimum gap between polls of one session while results are pending.
const POLL_GAP: Duration = Duration::from_micros(200);
/// Replication lag cap, in commits: high enough that a healthy standby
/// never sheds, so any shedding shows as failed ops.
const LAG_CAP: u64 = 100_000;
/// Timed set-ups per run; the first is measured, the 10th percentile is
/// reported.
const SETUPS: usize = 61;
/// Slices the traced replay runs through the layers.
const REPLAY_SLICES: usize = 1_500;

#[derive(Debug, Clone, Copy)]
enum Tag {
    Open(usize),
    Inject(usize),
    Poll(usize),
}

impl Tag {
    fn session(self) -> usize {
        match self {
            Tag::Open(i) | Tag::Inject(i) | Tag::Poll(i) => i,
        }
    }
}

struct Durable {
    served: Served,
    conns: Vec<Conn<Tag>>,
    sids: Vec<u64>,
    primary: Arc<Store>,
    sink: Arc<ReplSink>,
    pump: JoinHandle<()>,
    standby_stop: Arc<AtomicBool>,
    standby: JoinHandle<Result<ReplReceiverStats, FleetError>>,
    dirs: Scratch,
}

fn session_config() -> SessionConfig {
    SessionConfig {
        verified: true,
        ..SessionConfig::default()
    }
}

fn step_op(img: &KernelSessionImage, j: usize, x: i32) -> Op {
    let feed = |port, w| PortFeed {
        port,
        words: vec![w],
    };
    Op::step(
        img.step,
        vec![],
        vec![
            feed(PORT_TIMER, j as Int),
            feed(PORT_ECG, x),
            feed(PORT_CHANNEL_STATUS, 0),
        ],
    )
}

fn setup(img: &KernelSessionImage, tag: usize) -> Result<Durable, String> {
    let dirs = Scratch::new(&format!("icd-stream-{tag}"))?;
    let open = |name: &str| {
        Store::open(dirs.0.join(name), StoreConfig::default())
            .map(Arc::new)
            .map_err(|e| format!("store {name}: {e}"))
    };
    let primary = open("primary")?;
    let standby_store = open("standby")?;
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let target = listener
        .local_addr()
        .map_err(|e| e.to_string())?
        .to_string();
    let standby_stop = Arc::new(AtomicBool::new(false));
    let standby = {
        let stop = standby_stop.clone();
        std::thread::Builder::new()
            .name("zbench-standby".into())
            .spawn(move || serve_repl(listener, standby_store, stop))
            .map_err(|e| format!("spawn standby: {e}"))?
    };
    let sink = ReplSink::new(LAG_CAP);
    let pump = spawn_replicator(
        primary.clone(),
        sink.clone(),
        ReplicatorConfig {
            target,
            ..ReplicatorConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let served = Served::start(FleetConfig {
        workers: workers(),
        store: Some(primary.clone()),
        repl: Some(sink.clone()),
        ..FleetConfig::default()
    })?;
    let mut conns = Vec::new();
    for _ in 0..CONNS {
        conns.push(Conn::connect(served.addr)?);
    }
    for i in 0..SESSIONS {
        conns[i % CONNS].send(
            &Request::LoadProgram {
                config: session_config(),
                program: img.words.clone(),
            },
            Tag::Open(i),
        );
    }
    let mut sids = vec![0; SESSIONS];
    let mut err = None;
    drain(&mut conns, Duration::from_secs(120), |tag, resp| {
        match (tag, resp) {
            (Tag::Open(i), Response::Opened { session }) => sids[i] = session,
            (_, other) => err = Some(format!("open: unexpected {other:?}")),
        }
    })?;
    // Boot every session and wait until the boot op has committed.
    for (i, &sid) in sids.iter().enumerate() {
        let op = Op::step(img.boot, vec![], vec![]);
        conns[i % CONNS].send(&Request::Inject { session: sid, op }, Tag::Inject(i));
    }
    drain(&mut conns, Duration::from_secs(60), |tag, resp| {
        match (tag, resp) {
            (Tag::Inject(_), Response::Accepted { .. }) => {}
            (_, other) => err = Some(format!("boot: unexpected {other:?}")),
        }
    })?;
    if let Some(e) = err {
        return Err(e);
    }
    served
        .fleet
        .handle()
        .wait_all_idle(Duration::from_secs(60))
        .map_err(|e| format!("boot: {e}"))?;
    Ok(Durable {
        served,
        conns,
        sids,
        primary,
        sink,
        pump,
        standby_stop,
        standby,
        dirs,
    })
}

/// The known answer of one session: the pacing word of sample `j` is
/// `IcdSpec`'s output for sample `j - 1` (0 for the first), and the channel
/// word is its output for sample `j`. Reports the first mismatch.
fn check_pacing(samples: &[i32], pace: &[Int], chan: &[Int]) -> Result<(), String> {
    let mut spec = IcdSpec::new();
    let mut prev = 0;
    for (j, (&p, &c)) in pace.iter().zip(chan).enumerate() {
        let want = spec.step(samples[j]).word();
        if p != prev || c != want {
            return Err(format!(
                "sample {j}: pace {p} chan {c}, expected {prev} {want}"
            ));
        }
        prev = want;
    }
    Ok(())
}

/// Stop everything, then `fsck` both data directories.
fn teardown(d: Durable, out: &mut Outcome) -> Option<ReplReceiverStats> {
    let Durable {
        served,
        conns,
        primary,
        sink,
        pump,
        standby_stop,
        standby,
        dirs,
        ..
    } = d;
    drop(conns);
    if let Err(e) = served.stop() {
        out.check(false, || e);
    }
    sink.shutdown();
    out.check(pump.join().is_ok(), || "replication pump panicked".into());
    standby_stop.store(true, Ordering::SeqCst);
    let stats = match standby.join() {
        Ok(Ok(s)) => Some(s),
        Ok(Err(e)) => {
            out.check(false, || format!("standby: {e}"));
            None
        }
        Err(_) => {
            out.check(false, || "standby panicked".into());
            None
        }
    };
    drop(primary);
    for name in ["primary", "standby"] {
        match fsck(dirs.0.join(name)) {
            Ok(r) => out.check(r.clean(), || format!("fsck {name}: {}", r.to_json())),
            Err(e) => out.check(false, || format!("fsck {name}: {e}")),
        }
    }
    stats
}

#[derive(Debug, Default)]
struct Stream {
    samples: Vec<i32>,
    phase: Duration,
    /// Ops injected (samples sent), excluding the boot op.
    sent: usize,
    /// Ops whose result was seen.
    seen: usize,
    poll_out: bool,
    next_poll: Option<Instant>,
    /// Boot output still to be consumed.
    boot_pending: bool,
    buf: Vec<Int>,
    pace: Vec<Int>,
    chan: Vec<Int>,
}

pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let img = zarf_kernel::session_image();
    let timed = (cfg.seconds * 1e6 / PERIOD_US as f64).ceil() as usize;
    let total = WARM_SAMPLES + timed;

    let t = Instant::now();
    let mut d = match setup(&img, 0) {
        Ok(d) => d,
        Err(e) => {
            out.check(false, || format!("set-up failed: {e}"));
            return out;
        }
    };
    let mut setups = vec![t.elapsed().as_secs_f64()];

    let mut streams: Vec<Stream> = (0..SESSIONS)
        .map(|i| Stream {
            samples: ecg_samples(cfg.seed, i as u64, total),
            phase: Duration::from_micros(PERIOD_US * i as u64 / SESSIONS as u64),
            boot_pending: true,
            ..Stream::default()
        })
        .collect();
    let due = |s: &Stream, t0: Instant, j: usize| {
        t0 + s.phase + Duration::from_micros(PERIOD_US * j as u64)
    };

    let handle = d.served.fleet.handle();
    let mut latency: HashMap<(u64, u64), f64> = HashMap::new();
    let mut lag_ms = Vec::new();
    let mut errors = Vec::new();
    let mut shed = 0u64;
    let mut repl_lag_max = 0u64;
    let mut next_lag_sample = Instant::now();
    let t0 = Instant::now() + Duration::from_millis(20);
    let window_start = t0 + Duration::from_micros(PERIOD_US * WARM_SAMPLES as u64);
    let give_up = t0 + Duration::from_secs_f64(cfg.seconds + 60.0);
    let mut last_seen = window_start;
    let outcome: Result<(), String> = (|| loop {
        let now = Instant::now();
        for (i, s) in streams.iter_mut().enumerate() {
            while s.sent < total && due(s, t0, s.sent) <= now {
                let due_at = due(s, t0, s.sent);
                if due_at >= window_start {
                    lag_ms.push(now.duration_since(due_at).as_secs_f64() * 1e3);
                }
                let op = step_op(&img, s.sent, s.samples[s.sent]);
                d.conns[i % CONNS].send(
                    &Request::Inject {
                        session: d.sids[i],
                        op,
                    },
                    Tag::Inject(i),
                );
                s.sent += 1;
            }
            let pending = s.seen < s.sent || s.boot_pending;
            if pending && !s.poll_out && s.next_poll.is_none_or(|t| t <= now) {
                d.conns[i % CONNS].send(&Request::Poll { session: d.sids[i] }, Tag::Poll(i));
                s.poll_out = true;
            }
        }
        for c in 0..CONNS {
            d.conns[c].pump(|tag, resp| match (tag, resp) {
                (Tag::Inject(_), Response::Accepted { .. }) => {}
                (Tag::Poll(i), Response::Output { words, .. }) => {
                    let seen_at = Instant::now();
                    let s = &mut streams[i];
                    s.poll_out = false;
                    s.buf.extend_from_slice(&words);
                    if s.boot_pending && !s.buf.is_empty() {
                        let w = s.buf.remove(0);
                        if w != RES_OPAQUE {
                            errors.push(format!("session {i} boot: result {w}"));
                        }
                        s.boot_pending = false;
                    }
                    while s.buf.len() >= 7 {
                        let w: Vec<Int> = s.buf.drain(..7).collect();
                        let shape = [w[0], w[1], w[3], w[4], w[6]];
                        if shape != [PORT_PACE, 1, PORT_CHANNEL, 1, RES_OPAQUE] {
                            errors.push(format!("session {i} op {}: layout {w:?}", s.seen));
                        }
                        s.pace.push(w[2]);
                        s.chan.push(w[5]);
                        let due_at = due(s, t0, s.seen);
                        if due_at >= window_start {
                            let ms = seen_at.duration_since(due_at).as_secs_f64() * 1e3;
                            latency.insert((i as u64, s.seen as u64), ms);
                            last_seen = seen_at;
                        }
                        s.seen += 1;
                    }
                    s.next_poll = Some(seen_at + POLL_GAP);
                }
                (tag, Response::Error { code, message }) => {
                    if code == ERR_OVERLOADED {
                        shed += 1;
                    }
                    errors.push(format!(
                        "session {}: error {code}: {message}",
                        tag.session()
                    ));
                }
                (tag, other) => {
                    errors.push(format!("session {}: unexpected {other:?}", tag.session()))
                }
            })?;
        }
        if now >= next_lag_sample {
            next_lag_sample = now + Duration::from_millis(50);
            let acked = d.sink.acked();
            let mut lag = 0;
            for &sid in &d.sids {
                if let Ok(st) = handle.session_stats(sid) {
                    lag += st
                        .commit_seq
                        .saturating_sub(acked.get(&sid).copied().unwrap_or(0));
                }
            }
            repl_lag_max = repl_lag_max.max(lag);
        }
        if streams.iter().all(|s| s.sent == total && s.seen == total) {
            return Ok(());
        }
        if now > give_up {
            return Err("stream did not drain".into());
        }
        // Sleep until the next sample is due or a poll may go out.
        let mut next = now + Duration::from_micros(500);
        for s in &streams {
            if s.sent < total {
                next = next.min(due(s, t0, s.sent));
            }
            if let Some(t) = s.next_poll.filter(|_| s.seen < s.sent && !s.poll_out) {
                next = next.min(t);
            }
        }
        if next > now {
            std::thread::sleep((next - now).min(Duration::from_micros(500)));
        }
    })();
    if let Err(e) = outcome {
        errors.push(e);
    }
    let window_s = last_seen
        .duration_since(window_start)
        .as_secs_f64()
        .max(1e-9);

    for (i, s) in streams.iter().enumerate() {
        if let Err(e) = check_pacing(&s.samples, &s.pace, &s.chan) {
            errors.push(format!("session {i} {e}"));
        }
    }
    // The standby has acknowledged every session's last commit.
    let acked_by = Instant::now() + Duration::from_secs(30);
    loop {
        let acked = d.sink.acked();
        let behind: Vec<u64> = d
            .sids
            .iter()
            .copied()
            .filter(|sid| {
                let last = handle
                    .session_stats(*sid)
                    .map_or(u64::MAX, |s| s.commit_seq);
                acked.get(sid).copied().unwrap_or(0) < last
            })
            .collect();
        if behind.is_empty() {
            break;
        }
        if Instant::now() > acked_by {
            errors.push(format!("standby never acked the last commit of {behind:?}"));
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let fleet_stats = handle.stats();
    let store_stats = d.primary.stats();
    let frames: [u64; 4] = d.conns.iter().fold([0; 4], |a, c| {
        [
            a[0] + c.frames_out,
            a[1] + c.frames_in,
            a[2] + c.bytes_out,
            a[3] + c.bytes_in,
        ]
    });
    drop(handle);
    let repl = teardown(d, &mut out);
    out.set("peak_rss_mb", peak_rss_mb());
    // The other timed set-ups run after the measured fleet has stopped, so
    // their memory is not counted in the workload's peak, and set-up is
    // sampled at both ends of the run.
    while !cfg.trace && setups.len() < SETUPS {
        let t = Instant::now();
        match setup(&img, setups.len()) {
            Ok(d) => {
                setups.push(t.elapsed().as_secs_f64());
                teardown(d, &mut out);
            }
            Err(e) => {
                out.check(false, || format!("set-up failed: {e}"));
                break;
            }
        }
    }
    out.set("setup_s", setup_time(&setups));

    let sent: usize = streams.iter().map(|s| s.sent).sum();
    let seen: usize = streams.iter().map(|s| s.seen).sum();
    let lat: Vec<f64> = latency.values().copied().collect();
    let sum = Summary::of(&lat);
    let timed_sent = SESSIONS * timed;
    let late = lat.iter().filter(|&&ms| ms > DEADLINE_MS).count() + (timed_sent - lat.len());
    out.attempted = sent as u64;
    out.failed += (sent - seen) as u64 + errors.len() as u64;
    out.errors.extend(errors);
    out.set("latency_ms", sum.p50);
    let lag = Summary::of(&lag_ms);
    out.note(format!(
        "icd_stream: {SESSIONS} verified kernel sessions at 200 Hz over {CONNS} connections, {} workers, primary and standby stores with fsync on",
        workers()
    ));
    out.note(format!(
        "ops_per_s {:.2} 1/s; due-to-result latency {}",
        lat.len() as f64 / window_s,
        sum.describe("ms")
    ));
    out.note(format!(
        "deadline_miss_ratio {} ({late} of {timed_sent} timed ops later than {DEADLINE_MS} ms or failed); generator lag {}",
        late as f64 / timed_sent.max(1) as f64,
        lag.describe("ms")
    ));
    out.note(format!(
        "setup_s {}; replication lag max {repl_lag_max} commits",
        Summary::of(&setups).describe("s")
    ));

    if cfg.trace {
        out.set("loadgen.lag_p99_ms", lag.p99);
        out.set("loadgen.frames", (frames[0] + frames[1]) as f64);
        out.set("wire.frames_in", frames[0] as f64);
        out.set("wire.frames_out", frames[1] as f64);
        out.set("wire.bytes_in", frames[2] as f64);
        out.set("wire.bytes_out", frames[3] as f64);
        out.set("fleet.slices", fleet_stats.slices as f64);
        out.set(
            "fleet.ops_per_slice",
            fleet_stats.ops_done as f64 / fleet_stats.slices.max(1) as f64,
        );
        out.set("fleet.rehydrations", fleet_stats.rehydrations as f64);
        out.set("fleet.evictions", fleet_stats.evictions as f64);
        out.set(
            "fleet.resident_hit_ratio",
            1.0 - fleet_stats.rehydrations as f64 / fleet_stats.slices.max(1) as f64,
        );
        out.set("fleet.shed", shed as f64);
        let st = &store_stats;
        out.set("store.commits", st.commits as f64);
        out.set("store.alias_commits", st.alias_commits as f64);
        out.set("store.delta_commits", st.delta_commits as f64);
        out.set(
            "store.full_commits",
            st.commits
                .saturating_sub(st.alias_commits + st.delta_commits) as f64,
        );
        out.set("store.bytes_written", st.chunk_bytes as f64);
        out.set("store.dedup_hits", st.dedup_hits as f64);
        out.set("store.io_events", st.io_events as f64);
        out.set("repl.lag_max_commits", repl_lag_max as f64);
        if let Some(r) = repl {
            out.set("repl.commits_acked", r.commits as f64);
            out.set("repl.chunks_shipped", r.chunks as f64);
            out.set("repl.bytes_shipped", r.bytes as f64);
            out.set("repl.rejects", r.rejects as f64);
        }
        out.set("trace.e2e_p50_ms", sum.p50);
        out.set("trace.e2e_p99_ms", sum.p99);
        replay(&img, &streams, &latency, &mut out);
    }
    out
}

/// The traced replay: boot, then the same seeded samples in due-time
/// order, each op its own slice committed to a fresh durable store pair.
fn replay(
    img: &KernelSessionImage,
    streams: &[Stream],
    latency: &HashMap<(u64, u64), f64>,
    out: &mut Outcome,
) {
    // Verified load: the certification the fleet runs at open time, and
    // the heap quota it derives from the allocation bound.
    let session = session_config();
    let t = Instant::now();
    let heap_words = match certify(&img.words, session.heap_words) {
        Ok(h) => h,
        Err(e) => {
            out.check(false, || format!("certify: {e}"));
            return;
        }
    };
    out.set("vet.load_certify_ms", t.elapsed().as_secs_f64() * 1e3);

    let mut order: Vec<(u64, usize, usize)> = Vec::new();
    for (i, s) in streams.iter().enumerate() {
        for j in 0..s.seen {
            order.push((s.phase.as_micros() as u64 + PERIOD_US * j as u64, i, j));
        }
    }
    order.sort_unstable();
    order.truncate(REPLAY_SLICES);
    // Op sequence 0 is the boot; sample j is op j + 1 in the replay's
    // numbering, keyed back to the stream's (session, sample j).
    let mut slices = Vec::new();
    for &(_, i, j) in &order {
        let op = step_op(img, j, streams[i].samples[j]);
        let req = Request::Inject {
            session: i as u64,
            op,
        };
        slices.push(Slice {
            slot: i as u64,
            first_seq: j as u64,
            frame: encode_frame(&req.encode()),
        });
    }
    let mut walls = [0.0; 2];
    let mut traced = None;
    for (pass, on) in [false, true].into_iter().enumerate() {
        let dirs = match Scratch::new(&format!("icd-replay-{pass}")) {
            Ok(d) => d,
            Err(e) => {
                out.check(false, || e);
                return;
            }
        };
        let open =
            |name: &str| Store::open(dirs.0.join(name), StoreConfig::default()).map(Arc::new);
        let stores = match (open("primary"), open("standby")) {
            (Ok(primary), Ok(standby)) => ReplayStores { primary, standby },
            _ => {
                out.check(false, || "replay stores failed to open".into());
                return;
            }
        };
        let sized = SessionConfig {
            heap_words,
            ..session.clone()
        };
        let mut r = Replay::new(&sized, Some(stores));
        let mut quiet = Tracer::new(false);
        for i in 0..streams.len() {
            let boot = Request::Inject {
                session: i as u64,
                op: Op::step(img.boot, vec![], vec![]),
            };
            let slice = Slice {
                slot: i as u64,
                first_seq: u64::MAX,
                frame: encode_frame(&boot.encode()),
            };
            if let Err(e) = r
                .open(i as u64, &img.words)
                .and_then(|()| r.slice(&slice, &mut quiet))
            {
                out.check(false, || format!("replay boot: {e}"));
                return;
            }
        }
        r.totals = Default::default();
        r.outputs.clear();
        let mut tracer = Tracer::new(on);
        let t = Instant::now();
        for s in &slices {
            if let Err(e) = r.slice(s, &mut tracer) {
                out.check(false, || format!("replay: {e}"));
                return;
            }
        }
        walls[pass] = t.elapsed().as_secs_f64();
        traced = Some((r, tracer, dirs));
    }
    let (r, tracer, _dirs) = traced.expect("two passes ran");
    // The replayed words equal the streamed ones.
    for (slot, words) in &r.outputs {
        let s = &streams[*slot as usize];
        for (k, w) in words.chunks(7).enumerate() {
            out.attempted += 1;
            out.check(w.len() == 7 && w[5] == s.chan[k], || {
                format!("replay session {slot} op {k}: {w:?}")
            });
        }
    }
    fill_replay_metrics(&r, &tracer, &walls, latency, 1, out);
    let m = |k: &str| out.metrics.get(k).copied().unwrap_or(0.0) / 1e3;
    let line = format!(
        "commit path per op: hibernate {:.1} us, store put {:.1} us (content hash of the same bytes alone {:.1} us), standby ship {:.1} us",
        m("snapshot.hibernate_ns"),
        m("store.put_ns"),
        m("store.hash_ns"),
        m("repl.ship_ns")
    );
    out.note(line);
}

/// The fleet's verified-load certification (`zarf-fleet`'s `certify`):
/// shape analysis under the service model, then the allocation bound that
/// sizes the heap quota. Returns the heap size in words.
fn certify(words: &[zarf_core::Word], heap_words: usize) -> Result<usize, String> {
    let program = zarf_asm::decode(words).map_err(|e| e.to_string())?;
    let shapes = zarf_verify::analyze_shapes(&program, zarf_verify::EntryModel::Service)
        .map_err(|e| e.to_string())?;
    if shapes
        .faults()
        .any(|(_, f)| f.is_case_fault() || f.is_arity_fault())
    {
        return Err("session image is not fault-free".into());
    }
    let alloc = zarf_verify::analyze_alloc(&program).map_err(|e| e.to_string())?;
    let arity_of = |id: u32| program.lookup(id).map(|it| it.arity).unwrap_or(0);
    Ok(match alloc.max_finite_per_call(arity_of) {
        Some(q) => heap_words.max((q as usize).saturating_mul(2)),
        None => heap_words,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pacing_words_check_and_a_corrupted_word_fails() {
        let samples = ecg_samples(9, 0, 2_000);
        let mut spec = IcdSpec::new();
        let chan: Vec<Int> = samples.iter().map(|&x| spec.step(x).word()).collect();
        let mut pace = vec![0];
        pace.extend_from_slice(&chan[..chan.len() - 1]);
        assert!(chan.iter().any(|&w| w != 0), "the stream must pace");
        assert_eq!(check_pacing(&samples, &pace, &chan), Ok(()));
        // Only the results seen so far are checked.
        assert_eq!(check_pacing(&samples, &pace[..10], &chan[..10]), Ok(()));

        let mut bad_chan = chan.clone();
        bad_chan[1_500] += 1;
        assert!(check_pacing(&samples, &pace, &bad_chan).is_err());
        let mut bad_pace = pace.clone();
        bad_pace[0] += 1;
        assert!(check_pacing(&samples, &bad_pace, &chan).is_err());
    }
}
