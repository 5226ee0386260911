//! Shared machinery of the two fleet workloads: a nonblocking pipelined
//! `ZFLT` client connection, an in-process served fleet, and the traced
//! single-thread replay of a request stream through the layers' public
//! functions.

use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use zarf_core::{Int, VecPorts};
use zarf_fleet::op::{RES_FUEL, RES_MACHINE_FAULT, RES_OOM, RES_OPAQUE};
use zarf_fleet::poll::{would_block, WriteBuf};
use zarf_fleet::wire::{encode_frame, FrameBuffer, Request, Response, FRAME_OVERHEAD};
use zarf_fleet::{
    serve_with, Fleet, FleetConfig, FleetError, FleetStats, Op, ServeOptions, SessionConfig,
};
use zarf_hw::{HValue, Hw, HwConfig, HwError};
use zarf_store::{content_hash, SessionMeta, Store};

use crate::metrics::Outcome;
use crate::stats::Summary;
use crate::trace::{breakdown, SpanId, Tracer};

/// Worker threads of the fleet under test: one per available CPU.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Resident machines per worker (the fleet's default).
pub const RESIDENT_PER_WORKER: usize = 8;

/// A client connection with a FIFO of in-flight request tags: the server
/// answers each connection's requests in order.
pub struct Conn<T> {
    stream: TcpStream,
    rd: FrameBuffer,
    wr: WriteBuf,
    inflight: VecDeque<T>,
    pub frames_out: u64,
    pub frames_in: u64,
    pub bytes_out: u64,
    pub bytes_in: u64,
}

impl<T> Conn<T> {
    pub fn connect(addr: SocketAddr) -> Result<Conn<T>, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nonblocking(true)
            .map_err(|e| format!("nonblocking: {e}"))?;
        let _ = stream.set_nodelay(true);
        Ok(Conn {
            stream,
            rd: FrameBuffer::new(),
            wr: WriteBuf::new(),
            inflight: VecDeque::new(),
            frames_out: 0,
            frames_in: 0,
            bytes_out: 0,
            bytes_in: 0,
        })
    }

    /// Queue a request; it is written on the next [`Conn::pump`].
    pub fn send(&mut self, req: &Request, tag: T) {
        let frame = encode_frame(&req.encode());
        self.frames_out += 1;
        self.bytes_out += frame.len() as u64;
        self.wr.queue(&frame);
        self.inflight.push_back(tag);
    }

    pub fn inflight(&self) -> usize {
        self.inflight.len()
    }

    /// Flush queued requests and hand every complete response to `on`
    /// with its request's tag. Returns whether anything moved.
    pub fn pump(&mut self, mut on: impl FnMut(T, Response)) -> Result<bool, String> {
        let mut progress = self
            .wr
            .try_flush(&mut self.stream)
            .map_err(|e| format!("write: {e}"))?
            > 0;
        loop {
            match self.rd.fill_from(&mut self.stream, 64 * 1024) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(_) => progress = true,
                Err(ref e) if would_block(e) => break,
                Err(e) => return Err(format!("read: {e}")),
            }
        }
        while let Some(payload) = self.rd.next_frame().map_err(|e| format!("frame: {e}"))? {
            self.frames_in += 1;
            self.bytes_in += (payload.len() + FRAME_OVERHEAD) as u64;
            let resp = Response::decode(payload).map_err(|e| format!("decode: {e}"))?;
            let tag = self
                .inflight
                .pop_front()
                .ok_or("response without a request")?;
            on(tag, resp);
            progress = true;
        }
        Ok(progress)
    }
}

/// Pump every connection until all in-flight requests are answered.
pub fn drain<T>(
    conns: &mut [Conn<T>],
    deadline: Duration,
    mut on: impl FnMut(T, Response),
) -> Result<(), String> {
    let until = Instant::now() + deadline;
    while conns.iter().any(|c| c.inflight() > 0) {
        let mut progress = false;
        for c in conns.iter_mut() {
            progress |= c.pump(&mut on)?;
        }
        if Instant::now() > until {
            return Err("timed out waiting for responses".into());
        }
        if !progress {
            std::thread::sleep(Duration::from_micros(50));
        }
    }
    Ok(())
}

/// A fleet served over loopback TCP from a thread of this process.
pub struct Served {
    pub fleet: Fleet,
    pub addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Result<(), FleetError>>,
}

impl Served {
    pub fn start(cfg: FleetConfig) -> Result<Served, String> {
        let fleet = Fleet::start(cfg).map_err(|e| format!("fleet start: {e}"))?;
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let stop = Arc::new(AtomicBool::new(false));
        let opts = ServeOptions {
            stop: Some(stop.clone()),
            ..ServeOptions::default()
        };
        let handle = fleet.handle();
        let thread = std::thread::Builder::new()
            .name("zbench-frontier".into())
            .spawn(move || serve_with(listener, handle, opts))
            .map_err(|e| format!("spawn frontier: {e}"))?;
        Ok(Served {
            fleet,
            addr,
            stop,
            thread,
        })
    }

    /// Stop the frontier and the fleet, returning the fleet's counters.
    pub fn stop(self) -> Result<FleetStats, String> {
        self.stop.store(true, Ordering::SeqCst);
        let served = self
            .thread
            .join()
            .map_err(|_| "frontier thread panicked".to_string())?;
        served.map_err(|e| format!("frontier: {e}"))?;
        Ok(self.fleet.shutdown())
    }
}

/// A fresh, empty directory under the benchmark's scratch root inside the
/// working directory; removed again by [`Scratch::drop`].
pub struct Scratch(pub PathBuf);

impl Scratch {
    pub fn new(name: &str) -> Result<Scratch, String> {
        let dir = Path::new(".zbench_tmp").join(format!("{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Remove the shared root too once the last scratch dir is gone.
        let _ = std::fs::remove_dir(".zbench_tmp");
    }
}

/// The part of `zarf_fleet::op::apply_op` before its boundary collection:
/// apply the op and append its output words, faults encoded as `RES_*`.
pub fn exec_op(hw: &mut Hw, op: &Op, budget: u64, out: &mut Vec<Int>) {
    let (item, args, inputs, is_step) = match op {
        Op::Eval { item, args, inputs } => (*item, args, inputs, false),
        Op::Step { item, args, inputs } => (*item, args, inputs, true),
    };
    let mut ports = VecPorts::new();
    for feed in inputs {
        ports.push_input(feed.port, feed.words.iter().copied());
    }
    let mut call_args = Vec::with_capacity(args.len() + 1);
    if is_step {
        if hw.root_count() == 0 {
            hw.push_root(HValue::Int(0));
        }
        call_args.push(hw.root(0));
    }
    call_args.extend(args.iter().map(|&n| HValue::Int(n)));
    let result = hw.call_with_budget(item, call_args, &mut ports, budget);
    let port_list: Vec<Int> = ports.output_ports().collect();
    for port in port_list {
        let words = ports.output(port);
        out.push(port);
        out.push(words.len() as Int);
        out.extend_from_slice(words);
    }
    let code = match result {
        Ok(v) => {
            if is_step {
                hw.set_root(0, v);
            }
            if let Some(e) = hw.as_error(v) {
                zarf_fleet::op::RES_ERROR_BASE.saturating_add(e.code())
            } else if let Some(n) = hw.as_int(v) {
                n
            } else {
                RES_OPAQUE
            }
        }
        Err(HwError::CycleLimit(_)) => RES_FUEL,
        Err(HwError::OutOfMemory { .. }) => RES_OOM,
        Err(_) => RES_MACHINE_FAULT,
    };
    out.push(code);
}

/// One slice of the replayed stream: a request frame for one session,
/// keyed by the session's slot and the sequence number of its first op.
pub struct Slice {
    pub slot: u64,
    pub first_seq: u64,
    pub frame: Vec<u8>,
}

/// Where replayed commits go.
pub struct ReplayStores {
    pub primary: Arc<Store>,
    pub standby: Arc<Store>,
}

/// The per-layer figures of a replay.
#[derive(Debug, Default)]
pub struct ReplayTotals {
    pub slices: u64,
    pub ops: u64,
    pub rehydrations: u64,
    pub mutator_cycles: u64,
    pub gc_cycles: u64,
    pub instructions: u64,
    pub snapshot_bytes: u64,
    pub hash_ns: f64,
    pub hashes: u64,
}

/// A single-thread replay of a fleet request stream through the layers'
/// public functions, in the order a worker runs them: frame scan and
/// `Request::decode`, `Hw::rehydrate` or the resident machine,
/// `Hw::call_with_budget`, `Hw::collect_garbage`, `Hw::hibernate`,
/// `Store::put_session`, the standby's `put_chunk`/`adopt_session`, and
/// `Response::encode`.
pub struct Replay {
    hw_config: HwConfig,
    op_budget: u64,
    resident_cap: usize,
    stores: Option<ReplayStores>,
    /// Committed snapshots of a storeless fleet.
    committed: HashMap<u64, Vec<u8>>,
    commit_seq: HashMap<u64, u64>,
    ops_done: HashMap<u64, u64>,
    /// Resident machines, least recently used first.
    resident: Vec<(u64, Hw)>,
    meta: SessionMeta,
    pub totals: ReplayTotals,
    /// Output words per session slot, for the oracle.
    pub outputs: HashMap<u64, Vec<Int>>,
}

impl Replay {
    /// A replay whose sessions run under `session`, committing to `stores`
    /// (durable) or keeping snapshots in memory (storeless).
    pub fn new(session: &SessionConfig, stores: Option<ReplayStores>) -> Replay {
        Replay {
            hw_config: HwConfig {
                heap_words: session.heap_words,
                ..HwConfig::default()
            },
            op_budget: session.op_budget,
            resident_cap: workers() * RESIDENT_PER_WORKER,
            stores,
            committed: HashMap::new(),
            commit_seq: HashMap::new(),
            ops_done: HashMap::new(),
            resident: Vec::new(),
            meta: SessionMeta {
                id: 0,
                commit_seq: 0,
                ops_done: 0,
                heap_words: session.heap_words as u64,
                op_budget: session.op_budget,
                fuel_slice: session.fuel_slice,
                verified: session.verified,
            },
            totals: ReplayTotals::default(),
            outputs: HashMap::new(),
        }
    }

    /// Open a session from a program image, as `FleetHandle::open_program`
    /// does: load, hibernate, commit sequence 0.
    pub fn open(&mut self, slot: u64, words: &[zarf_core::Word]) -> Result<(), String> {
        let hw = Hw::load_with(words, self.hw_config.clone()).map_err(|e| e.to_string())?;
        let snap = hw.hibernate().map_err(|e| e.to_string())?;
        self.commit(slot, 0, &snap, &mut Tracer::new(false), None)?;
        Ok(())
    }

    fn commit(
        &mut self,
        slot: u64,
        seq: u64,
        snap: &[u8],
        tracer: &mut Tracer,
        root: Option<SpanId>,
    ) -> Result<(), String> {
        self.commit_seq.insert(slot, seq);
        let key = (slot, seq);
        let Some(stores) = &self.stores else {
            self.committed.insert(slot, snap.to_vec());
            return Ok(());
        };
        let meta = SessionMeta {
            id: slot + 1,
            commit_seq: seq,
            ops_done: self.ops_done.get(&slot).copied().unwrap_or(0),
            ..self.meta
        };
        tracer
            .span("store.put", key, root, || {
                stores.primary.put_session(&meta, snap)
            })
            .map_err(|e| format!("put_session: {e}"))?;
        tracer
            .span("repl.ship", key, root, || {
                ship(&stores.primary, &stores.standby, slot + 1)
            })
            .map_err(|e| format!("standby: {e}"))?;
        Ok(())
    }

    fn fetch(&self, slot: u64) -> Result<Vec<u8>, String> {
        match &self.stores {
            Some(s) => s.primary.get_snapshot(slot + 1).map_err(|e| e.to_string()),
            None => self
                .committed
                .get(&slot)
                .cloned()
                .ok_or_else(|| format!("session {slot} was never opened")),
        }
    }

    /// Replay one slice; `tracer` records its spans under the key
    /// (slot, first op sequence).
    pub fn slice(&mut self, s: &Slice, tracer: &mut Tracer) -> Result<(), String> {
        let key = (s.slot, s.first_seq);
        let root = tracer.begin("fleet.slice", key, None);
        let req = tracer.span("wire.decode", key, root, || {
            let mut fb = FrameBuffer::new();
            fb.extend_from_slice(&s.frame);
            match fb.next_frame() {
                Ok(Some(p)) => Request::decode(p).map_err(|e| e.to_string()),
                Ok(None) => Err("truncated frame".to_string()),
                Err(e) => Err(e.to_string()),
            }
        })?;
        let ops = match req {
            Request::InjectBatch { ops, .. } => ops,
            Request::Inject { op, .. } => vec![op],
            other => return Err(format!("unexpected request {other:?}")),
        };
        let mut hw = match self.resident.iter().position(|(id, _)| *id == s.slot) {
            Some(i) => self.resident.remove(i).1,
            None => {
                self.totals.rehydrations += 1;
                let bytes = self.fetch(s.slot)?;
                let config = self.hw_config.clone();
                tracer
                    .span("snapshot.rehydrate", key, root, || {
                        Hw::rehydrate(&bytes, config)
                    })
                    .map_err(|e| format!("rehydrate: {e}"))?
            }
        };
        let (m0, g0, i0) = (
            hw.stats().mutator_cycles(),
            hw.stats().gc_cycles,
            hw.stats().instructions(),
        );
        let mut words = Vec::new();
        for op in &ops {
            tracer.span("hw.exec", key, root, || {
                exec_op(&mut hw, op, self.op_budget, &mut words)
            });
            tracer
                .span("hw.gc", key, root, || hw.collect_garbage())
                .map_err(|e| format!("boundary collection: {e}"))?;
        }
        self.totals.mutator_cycles += hw.stats().mutator_cycles() - m0;
        self.totals.gc_cycles += hw.stats().gc_cycles - g0;
        self.totals.instructions += hw.stats().instructions() - i0;
        let snap = tracer
            .span("snapshot.hibernate", key, root, || hw.hibernate())
            .map_err(|e| format!("hibernate: {e}"))?;
        let done = self.ops_done.entry(s.slot).or_insert(0);
        *done += ops.len() as u64;
        let ops_done = *done;
        let seq = self.commit_seq.get(&s.slot).copied().unwrap_or(0) + 1;
        self.commit(s.slot, seq, &snap, tracer, root)?;
        tracer.span("wire.encode", key, root, || {
            let accepted = Response::AcceptedBatch {
                session: s.slot,
                accepted: ops.len() as u64,
                pending: ops.len() as u64,
            };
            let output = Response::Output {
                session: s.slot,
                ops_done,
                pending: 0,
                words: words.clone(),
            };
            std::hint::black_box((
                encode_frame(&accepted.encode()),
                encode_frame(&output.encode()),
            ))
        });
        tracer.end(root);

        // Hashing the same bytes on its own, outside the slice, shows how
        // much of a commit is the content hash.
        if self.stores.is_some() {
            let t = Instant::now();
            std::hint::black_box(content_hash(&snap));
            self.totals.hash_ns += t.elapsed().as_nanos() as f64;
            self.totals.hashes += 1;
        }
        self.totals.slices += 1;
        self.totals.ops += ops.len() as u64;
        self.totals.snapshot_bytes += snap.len() as u64;
        self.outputs.entry(s.slot).or_default().extend(words);
        self.resident.push((s.slot, hw));
        if self.resident.len() > self.resident_cap {
            self.resident.remove(0);
        }
        Ok(())
    }

    /// Mean time of `Store::get_snapshot` over the replayed sessions.
    pub fn get_ns(&self) -> f64 {
        let Some(stores) = &self.stores else {
            return 0.0;
        };
        let slots: Vec<u64> = self.commit_seq.keys().copied().collect();
        let t = Instant::now();
        for &slot in &slots {
            std::hint::black_box(stores.primary.get_snapshot(slot + 1).ok());
        }
        t.elapsed().as_nanos() as f64 / slots.len().max(1) as f64
    }
}

/// Ship a session's latest record from `primary` to `standby` the way the
/// replication pump does, minus the socket: the chunks the standby lacks,
/// then the record.
fn ship(primary: &Store, standby: &Store, id: u64) -> Result<(), String> {
    let rec = primary
        .session(id)
        .ok_or_else(|| format!("session {id} missing from the primary"))?;
    for &chunk in &rec.chunks {
        if !standby.has_chunk(chunk) {
            let bytes = primary.get_chunk_bytes(chunk).map_err(|e| e.to_string())?;
            standby.put_chunk(&bytes).map_err(|e| e.to_string())?;
        }
    }
    standby.adopt_session(&rec).map_err(|e| e.to_string())
}

/// Per-layer figures common to both fleet replays. Span-based figures are
/// per traced slice; modeled counts are over every replayed op.
pub fn fill_replay_metrics(
    r: &Replay,
    tracer: &Tracer,
    walls: &[f64; 2],
    latency: &HashMap<(u64, u64), f64>,
    ops_per_slice: u64,
    out: &mut Outcome,
) {
    let t = &r.totals;
    let roots = tracer.roots();
    let slices = roots.len().max(1) as f64;
    let ops = slices * ops_per_slice as f64;
    let all_ops = t.ops.max(1) as f64;
    let (selfs, root_ns) = tracer.self_times();
    let per = |name: &str, n: f64| selfs.get(name).copied().unwrap_or(0.0) / n;
    out.set("wire.decode_ns", per("wire.decode", slices));
    out.set("wire.encode_ns", per("wire.encode", slices));
    out.set("hw.exec_ns_per_op", per("hw.exec", ops));
    out.set("hw.gc_ns_per_op", per("hw.gc", ops));
    out.set("hw.cycles_per_op", t.mutator_cycles as f64 / all_ops);
    out.set("hw.instructions_per_op", t.instructions as f64 / all_ops);
    out.set("hw.gc_cycles_per_op", t.gc_cycles as f64 / all_ops);
    out.set(
        "hw.ns_per_cycle",
        per("hw.exec", ops) / (t.mutator_cycles as f64 / all_ops).max(1.0),
    );
    let (exec, gc) = (per("hw.exec", 1.0), per("hw.gc", 1.0));
    out.set("hw.gc_share", gc / (exec + gc).max(1.0));
    out.set("snapshot.hibernate_ns", per("snapshot.hibernate", slices));
    let rehydrations = tracer.total("snapshot.rehydrate").1.max(1) as f64;
    out.set(
        "snapshot.rehydrate_ns",
        per("snapshot.rehydrate", rehydrations),
    );
    out.set(
        "snapshot.bytes",
        t.snapshot_bytes as f64 / t.slices.max(1) as f64,
    );
    out.set("store.put_ns", per("store.put", slices));
    out.set("store.hash_ns", t.hash_ns / t.hashes.max(1) as f64);
    out.set("store.get_ns", r.get_ns());
    out.set("repl.ship_ns", per("repl.ship", slices));
    out.set("trace.unit_us", root_ns / slices / 1e3);
    out.set(
        "trace.self_sum_us",
        selfs.values().sum::<f64>() / slices / 1e3,
    );
    out.set("trace.glue_us", per("fleet.slice", slices) / 1e3);
    out.set("trace.samples", slices);
    out.set(
        "trace.overhead_pct",
        100.0 * (walls[1] - walls[0]) / walls[0],
    );

    // Waiting in the fleet: each op's end-to-end latency minus its traced
    // service time, matched by (session, op sequence).
    let mut waits = Vec::new();
    for ((slot, first), ns) in roots {
        for q in first..first + ops_per_slice {
            if let Some(ms) = latency.get(&(slot, q)) {
                waits.push((ms * 1e3 - ns / 1e3).max(0.0));
            }
        }
    }
    let w = Summary::of(&waits);
    out.set("fleet.wait_p50_us", w.p50);
    out.set("fleet.wait_p99_us", w.p99);
    out.note(format!(
        "replay: {} slices ({} traced), {} ops; untraced {:.3} s, traced {:.3} s",
        t.slices, slices, t.ops, walls[0], walls[1],
    ));
    out.note(format!(
        "fleet wait (end-to-end latency minus traced service time) {}",
        w.describe("us")
    ));
    out.notes
        .extend(breakdown(tracer, slices as usize, "slice"));
}
