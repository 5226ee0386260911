//! The fleet scheduler: worker threads, sharded run queues, and
//! snapshot-backed session slots.
//!
//! ## Invariants
//!
//! * **The committed snapshot is the session.** `Slot::snapshot` always
//!   holds valid `ZSNP` bytes for the last committed quiescent state;
//!   resident machines are a disposable per-worker cache keyed by
//!   `(session, commit_seq)`. Dropping a cache entry (eviction) can never
//!   lose state.
//! * **Slices commit exactly once.** A worker takes `(snapshot,
//!   pending-ops, commit_seq)` under the slot lock with `running = true`
//!   (giving it exclusive execution rights), runs unlocked, then commits
//!   the new snapshot, outputs, and op cursor in one critical section. A
//!   [`SessionKill`](zarf_chaos::FaultKind::SessionKill) fault discards
//!   the uncommitted slice instead — the next slice replays the same ops
//!   from the same snapshot and, because ops are deterministic, produces
//!   the same bytes.
//! * **Lock order:** slot lock before queue locks; the registry lock is
//!   never held across either.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use zarf_chaos::{FaultKind, FaultPlan, FaultSite, InjectedFault};
use zarf_core::{Int, Word};
use zarf_hw::{verify_container, Hw, HwConfig, MachineSnapshot, Stats, DEFAULT_HEAP_WORDS};
use zarf_store::{SessionMeta, Store};
use zarf_trace::metrics::{Histogram, MetricsSink};
use zarf_trace::{Event, SharedSink, TraceSink};

use crate::op::{apply_op, hw_config, Op};
use crate::repl::ReplSink;
use crate::FleetError;

/// The kernel's measured worst-case iteration cost (`zarf-kernel`
/// documents 9,065 cycles); fleet budgets are expressed as multiples so a
/// kernel session always fits its slice.
const WCET_ITERATION_CYCLES: u64 = 9_065;

/// What a verified-loaded session is certified for: which items an op may
/// target and with how many arguments. Built once at load from the static
/// analyses; consulted on every inject.
#[derive(Debug, Clone)]
struct Certificate {
    /// Certified function items and their arities.
    funs: BTreeMap<u32, usize>,
    /// Function items with no finite per-call allocation bound (unbounded
    /// recursion): loadable, but not a valid op target.
    unbounded: BTreeSet<u32>,
}

/// Statically certify a program image for verified-load mode: both
/// machine-fault-freedom certificates must hold under the service entry
/// model, and the allocation bounds determine the heap quota. Returns the
/// certificate and the (possibly raised) heap size in words.
fn certify(words: &[Word], heap_words: usize) -> Result<(Certificate, usize), FleetError> {
    let program = zarf_asm::decode(words).map_err(|e| FleetError::Load(e.to_string()))?;
    let shapes = zarf_verify::analyze_shapes(&program, zarf_verify::EntryModel::Service)
        .map_err(|e| FleetError::Certification(e.to_string()))?;
    let violations: Vec<String> = shapes
        .faults()
        .filter(|(_, f)| f.is_case_fault() || f.is_arity_fault())
        .map(|(id, f)| format!("item {id:#x} may fault: {f}"))
        .collect();
    if !violations.is_empty() {
        return Err(FleetError::Certification(violation_detail(
            &program, &shapes, violations,
        )));
    }
    let alloc = zarf_verify::analyze_alloc(&program)
        .map_err(|e| FleetError::Certification(e.to_string()))?;
    let mut funs = BTreeMap::new();
    let mut unbounded = BTreeSet::new();
    for (i, item) in program.items().iter().enumerate() {
        if item.is_con() {
            continue;
        }
        let id = program.id_of(i);
        funs.insert(id, item.arity);
        if alloc.per_call_bound(id, item.arity).finite().is_none() {
            unbounded.insert(id);
        }
    }
    // Size the heap quota from the worst certified per-op bound: two
    // generations of the worst op's allocations must fit, since the
    // boundary collection runs after the op completes.
    let arity_of = |id: u32| program.lookup(id).map(|it| it.arity).unwrap_or(0);
    let sized = match alloc.max_finite_per_call(arity_of) {
        Some(q) => heap_words.max((q as usize).saturating_mul(2)),
        None => heap_words,
    };
    Ok((Certificate { funs, unbounded }, sized))
}

/// Render a certification failure, attaching a concrete counterexample
/// witness to each violation the symbolic executor can realize within a
/// small budget. A witness upgrades "the analysis thinks this item may
/// fault" to "this exact op sequence faults on the reference
/// interpreter" — the difference between rejecting a binary on suspicion
/// and rejecting it with evidence.
fn violation_detail(
    program: &zarf_core::machine::MProgram,
    shapes: &zarf_verify::ShapeReport,
    violations: Vec<String>,
) -> String {
    let queries = zarf_verify::queries::violation_queries(program, shapes);
    let rep = zarf_symex::decide(program, shapes, &queries, zarf_symex::SymexBudget::small());
    let mut parts = violations;
    for v in &rep.verdicts {
        if let zarf_symex::Status::Witnessed(spec) = &v.status {
            parts.push(format!("witness: {spec}"));
        }
    }
    parts.join("; ")
}

/// Check one op against a verified session's certificate. The abstract
/// model the certificates were proven under is "any certified function,
/// applied to exactly its arity, first argument an integer or a previous
/// step result, other arguments integers" — so the op must saturate a
/// finite-bounded function item exactly.
fn check_op(cert: &Certificate, op: &Op) -> Result<(), FleetError> {
    let (item, nargs) = match op {
        Op::Eval { item, args, .. } => (*item, args.len()),
        // Step prepends the session state as argument 0.
        Op::Step { item, args, .. } => (*item, args.len() + 1),
    };
    match cert.funs.get(&item) {
        None => Err(FleetError::UncertifiedOp {
            item,
            reason: "not a certified function item".into(),
        }),
        Some(&arity) if arity != nargs => Err(FleetError::UncertifiedOp {
            item,
            reason: format!("op supplies {nargs} arguments, item takes {arity}"),
        }),
        Some(_) if cert.unbounded.contains(&item) => Err(FleetError::UncertifiedOp {
            item,
            reason: "no finite per-call allocation bound".into(),
        }),
        Some(_) => Ok(()),
    }
}

/// Lock a mutex, recovering the data from a poisoned lock: fleet state is
/// committed atomically, so a panicking peer thread cannot leave a slot
/// half-written.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Per-session execution parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionConfig {
    /// Heap size for the session's machine, in words.
    pub heap_words: usize,
    /// Fuel budget per op, in cycles; an op that exceeds it yields a
    /// `RES_FUEL` output word (the watchdog-budget idea of
    /// `RecoveryPolicy`, applied per request).
    pub op_budget: u64,
    /// Fuel per scheduling slice, in cycles: a worker keeps executing the
    /// session's queued ops until the slice is spent, then commits and
    /// re-queues.
    pub fuel_slice: u64,
    /// Opt-in verified load: the program must pass the static
    /// case-fault-freedom and arity-fault-freedom certificates
    /// (`zarf-verify`'s shape analysis under the service entry model)
    /// before the session opens, the allocation bound sizes the heap
    /// quota, and every injected op is checked against the certificate
    /// (function items only, exact arity, finite allocation bound).
    pub verified: bool,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            heap_words: DEFAULT_HEAP_WORDS,
            op_budget: 16 * WCET_ITERATION_CYCLES,
            fuel_slice: 64 * WCET_ITERATION_CYCLES,
            verified: false,
        }
    }
}

impl SessionConfig {
    pub(crate) fn hw_config(&self) -> HwConfig {
        hw_config(self.heap_words)
    }
}

/// Fleet-wide configuration.
#[derive(Debug, Clone, Default)]
pub struct FleetConfig {
    /// Worker threads (0 is treated as 1).
    pub workers: usize,
    /// Resident machines each worker may cache (0 = evict to snapshot
    /// after every slice).
    pub resident_per_worker: Option<usize>,
    /// Defaults for sessions opened without an explicit config.
    pub session: SessionConfig,
    /// Deterministic fault plan; the fleet consults
    /// [`FaultSite::Fleet`] at each session's own slice index.
    pub chaos: Option<FaultPlan>,
    /// Durable snapshot store. When present, every slice commit writes
    /// through to it, eviction holds a store handle instead of resident
    /// bytes, and [`Fleet::start`] recovers every committed session.
    pub store: Option<Arc<Store>>,
    /// Replication sink. When present (it requires `store`), every
    /// committed slice is noted for the replication pump to ship to the
    /// standby, and injects are shed with [`FleetError::Overloaded`]
    /// while the standby's acknowledged lag exceeds the sink's cap.
    pub repl: Option<Arc<ReplSink>>,
}

impl FleetConfig {
    fn worker_count(&self) -> usize {
        self.workers.max(1)
    }

    fn resident(&self) -> usize {
        self.resident_per_worker.unwrap_or(8)
    }
}

/// Where a session's last committed snapshot lives.
enum Backing {
    /// In the slot, as plain `ZSNP` bytes: store-less fleets, and the
    /// no-state-loss fallback when a store write fails.
    Resident(Vec<u8>),
    /// In the durable store, fetched (verified end to end) on demand;
    /// the slot keeps only the byte length for stats.
    Stored { len: usize },
}

impl Backing {
    fn len(&self) -> usize {
        match self {
            Backing::Resident(b) => b.len(),
            Backing::Stored { len } => *len,
        }
    }
}

/// One session's authoritative state.
struct Slot {
    config: SessionConfig,
    /// Last committed quiescent state; always present (resident bytes
    /// or a durable-store handle).
    snapshot: Backing,
    /// Machine statistics at the last commit.
    stats: Stats,
    /// Aggregated per-session metrics (merged at each commit).
    metrics: MetricsSink,
    /// Ops injected but not yet committed.
    pending: VecDeque<Op>,
    /// Output words committed but not yet polled.
    outputs: Vec<Int>,
    ops_done: u64,
    /// Bumped on every commit; resident cache entries are valid only while
    /// their sequence number matches.
    commit_seq: u64,
    /// Scheduling slices started (the chaos coordinate).
    slices: u64,
    kills: u64,
    evictions: u64,
    rehydrations: u64,
    /// A worker currently holds execution rights.
    running: bool,
    /// The id is in (or headed for) a run queue.
    queued: bool,
    /// Frozen for migration: queued ops still drain (the quiesce waits
    /// for that), but new injects are rejected typed until released.
    frozen: bool,
    closed: bool,
    poisoned: Option<String>,
    injected: Vec<InjectedFault>,
    /// Present iff the session was opened in verified mode; ops are
    /// checked against it at inject time.
    cert: Option<Certificate>,
}

impl Slot {
    fn idle(&self) -> bool {
        self.pending.is_empty() && !self.running && !self.queued
    }
}

/// Point-in-time statistics for one session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionStats {
    /// Ops committed.
    pub ops_done: u64,
    /// Ops injected but not yet committed.
    pub pending: usize,
    /// Scheduling slices started.
    pub slices: u64,
    /// Chaos session-kills absorbed.
    pub kills: u64,
    /// Evictions to snapshot.
    pub evictions: u64,
    /// Rehydrations from snapshot.
    pub rehydrations: u64,
    /// Commits so far.
    pub commit_seq: u64,
    /// Size of the committed snapshot in bytes.
    pub snapshot_bytes: usize,
    /// Machine cycles at the last commit.
    pub total_cycles: u64,
    /// Set when the session is poisoned.
    pub poisoned: Option<String>,
}

/// Output drained from a session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PollResult {
    /// Output words, in op order (see `crate::op` for the layout).
    pub words: Vec<Int>,
    /// Ops committed so far.
    pub ops_done: u64,
    /// Ops still queued.
    pub pending: usize,
}

/// Fleet-wide counters, returned by [`FleetHandle::stats`] and
/// [`Fleet::shutdown`].
#[derive(Debug, Clone, PartialEq)]
pub struct FleetStats {
    /// Worker threads.
    pub workers: usize,
    /// Sessions currently open.
    pub sessions_open: usize,
    /// Sessions ever opened.
    pub sessions_opened: u64,
    /// Sessions closed.
    pub sessions_closed: u64,
    /// Ops committed fleet-wide.
    pub ops_done: u64,
    /// Scheduling slices started.
    pub slices: u64,
    /// Chaos session-kills absorbed.
    pub kills: u64,
    /// Evictions to snapshot.
    pub evictions: u64,
    /// Rehydrations from snapshot.
    pub rehydrations: u64,
    /// Slice commits whose store write-through failed (the session fell
    /// back to resident-only backing; recovery will miss that commit).
    pub store_write_fails: u64,
    /// Per-op wall-clock latency distribution, in microseconds.
    pub latency_us: Histogram,
}

impl FleetStats {
    /// The stats as stable `(name, value)` pairs — the payload of the wire
    /// protocol's `StatsData` response.
    pub fn pairs(&self) -> Vec<(String, u64)> {
        vec![
            ("workers".into(), self.workers as u64),
            ("sessions_open".into(), self.sessions_open as u64),
            ("sessions_opened".into(), self.sessions_opened),
            ("sessions_closed".into(), self.sessions_closed),
            ("ops_done".into(), self.ops_done),
            ("slices".into(), self.slices),
            ("kills".into(), self.kills),
            ("evictions".into(), self.evictions),
            ("rehydrations".into(), self.rehydrations),
            ("store_write_fails".into(), self.store_write_fails),
            ("latency_ops".into(), self.latency_us.count()),
            ("latency_p50_us".into(), self.latency_us.quantile(0.5)),
            ("latency_p99_us".into(), self.latency_us.quantile(0.99)),
        ]
    }
}

struct Counters {
    ops_done: AtomicU64,
    slices: AtomicU64,
    kills: AtomicU64,
    evictions: AtomicU64,
    rehydrations: AtomicU64,
    sessions_opened: AtomicU64,
    sessions_closed: AtomicU64,
    store_write_fails: AtomicU64,
}

impl Counters {
    fn new() -> Self {
        Counters {
            ops_done: AtomicU64::new(0),
            slices: AtomicU64::new(0),
            kills: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            rehydrations: AtomicU64::new(0),
            sessions_opened: AtomicU64::new(0),
            sessions_closed: AtomicU64::new(0),
            store_write_fails: AtomicU64::new(0),
        }
    }
}

struct Shared {
    cfg: FleetConfig,
    slots: Mutex<HashMap<u64, Arc<Mutex<Slot>>>>,
    next_id: AtomicU64,
    shards: Vec<Mutex<VecDeque<u64>>>,
    /// Wakes idle workers; the guarded counter defeats lost wakeups.
    work: Condvar,
    work_seq: Mutex<u64>,
    /// Wakes `wait_idle` callers (state lives in the slots, so waiters
    /// poll under a short timeout; the condvar only shortens the nap).
    idle: Condvar,
    idle_lock: Mutex<()>,
    shutdown: AtomicBool,
    counters: Counters,
    latency_us: Mutex<Histogram>,
}

impl Shared {
    fn slot(&self, id: u64) -> Result<Arc<Mutex<Slot>>, FleetError> {
        lock(&self.slots)
            .get(&id)
            .cloned()
            .ok_or(FleetError::UnknownSession(id))
    }

    /// The committed `ZSNP` bytes for a slot, wherever they live. A
    /// store-backed fetch is hash-verified chunk by chunk inside the
    /// store, then structurally re-verified here on arrival (the
    /// snapshot transport seam) — damage is always a typed error,
    /// never bytes handed to `rehydrate`.
    fn committed_bytes(&self, id: u64, s: &Slot) -> Result<Vec<u8>, FleetError> {
        match &s.snapshot {
            Backing::Resident(b) => Ok(b.clone()),
            Backing::Stored { .. } => {
                let store =
                    self.cfg.store.as_ref().ok_or_else(|| {
                        FleetError::Snapshot("stored backing without a store".into())
                    })?;
                let bytes = store.get_snapshot(id)?;
                verify_container(&bytes).map_err(|e| {
                    FleetError::Snapshot(format!("store returned damaged container: {e}"))
                })?;
                Ok(bytes)
            }
        }
    }

    fn enqueue(&self, id: u64) {
        let shard = (id as usize) % self.shards.len();
        lock(&self.shards[shard]).push_back(id);
        {
            let mut seq = lock(&self.work_seq);
            *seq = seq.wrapping_add(1);
        }
        self.work.notify_one();
    }

    fn notify_idle(&self) {
        let _guard = lock(&self.idle_lock);
        self.idle.notify_all();
    }

    /// Pop a session id, preferring this worker's own shard and stealing
    /// from the others round-robin otherwise.
    fn pop(&self, worker: usize) -> Option<u64> {
        let n = self.shards.len();
        for i in 0..n {
            let shard = (worker + i) % n;
            if let Some(id) = lock(&self.shards[shard]).pop_front() {
                return Some(id);
            }
        }
        None
    }
}

/// A clonable handle to a running fleet: the in-process client API, also
/// used by the TCP server's connection threads.
#[derive(Clone)]
pub struct FleetHandle {
    shared: Arc<Shared>,
}

/// Everything a successful slice hands back for the commit phase: new
/// snapshot bytes, the machine (for the resident cache), stats, outputs,
/// executed-op count, and merged metrics.
struct SliceCommit {
    snapshot: Vec<u8>,
    hw: Hw,
    stats: Stats,
    out: Vec<Int>,
    executed: usize,
    metrics: MetricsSink,
}

/// Where a slice's machine comes from: this worker's resident cache, or
/// the session's committed snapshot bytes. Built and consumed once per
/// slice, so the machine is moved rather than boxed: a box would put an
/// allocation on every resident slice.
#[allow(clippy::large_enum_variant)]
enum Machine {
    Resident(Hw),
    Snapshot(Vec<u8>),
}

/// Outcome of the unlocked run phase of one slice.
enum SliceRun {
    /// Commit the slice atomically.
    Commit(Box<SliceCommit>),
    /// Chaos kill: discard everything, replay next slice.
    Killed,
    /// Unrecoverable fault: poison the session.
    Poison(String),
}

/// Worker-thread state (lives entirely on its own thread; `Hw` is `!Send`
/// so the resident cache can never leak across workers).
struct Worker {
    shared: Arc<Shared>,
    index: usize,
    /// Resident machines: session id → (commit_seq at load, machine), in
    /// least-recently-used order (front = coldest).
    resident: Vec<(u64, u64, Hw)>,
}

impl Worker {
    fn run(mut self) {
        loop {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            match self.shared.pop(self.index) {
                Some(id) => self.run_slice(id),
                None => {
                    let guard = lock(&self.shared.work_seq);
                    let seq = *guard;
                    if self.shared.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    // Re-check after taking the lock: an enqueue between
                    // pop and wait bumps the sequence number.
                    if seq == *guard {
                        let _unused = self
                            .shared
                            .work
                            .wait_timeout(guard, Duration::from_millis(50));
                    }
                }
            }
        }
    }

    /// Take a cached machine for `(id, seq)` if one is still valid.
    fn take_resident(&mut self, id: u64, seq: u64) -> Option<Hw> {
        let pos = self.resident.iter().position(|(sid, _, _)| *sid == id)?;
        let (_, cached_seq, hw) = self.resident.remove(pos);
        // A stale sequence number means another worker committed since we
        // cached this machine; the bytes in the slot are the truth.
        (cached_seq == seq).then_some(hw)
    }

    fn cache_resident(&mut self, id: u64, seq: u64, hw: Hw) -> u64 {
        let cap = self.shared.cfg.resident();
        if cap == 0 {
            return 1;
        }
        self.resident.push((id, seq, hw));
        let mut evicted = 0;
        while self.resident.len() > cap {
            self.resident.remove(0);
            evicted += 1;
        }
        evicted
    }

    fn run_slice(&mut self, id: u64) {
        let Ok(slot) = self.shared.slot(id) else {
            return; // closed while queued
        };

        // Phase 1: take work, and this worker's cached machine or the
        // committed bytes, under the slot lock.
        let (machine, ops, slice_idx, config) = {
            let mut s = lock(&slot);
            s.queued = false;
            if s.closed || s.poisoned.is_some() || s.pending.is_empty() || s.running {
                drop(s);
                self.shared.notify_idle();
                return;
            }
            s.running = true;
            s.slices += 1;
            let machine = match self.take_resident(id, s.commit_seq) {
                Some(hw) => Machine::Resident(hw),
                None => match self.shared.committed_bytes(id, &s) {
                    Ok(b) => {
                        s.rehydrations += 1;
                        Machine::Snapshot(b)
                    }
                    Err(e) => {
                        // The committed state is unreadable (store
                        // corruption): poison with the typed cause.
                        s.running = false;
                        s.poisoned = Some(format!("snapshot fetch: {e}"));
                        drop(s);
                        self.shared.notify_idle();
                        return;
                    }
                },
            };
            (
                machine,
                s.pending.iter().cloned().collect::<Vec<Op>>(),
                s.slices - 1,
                s.config.clone(),
            )
        };
        self.shared.counters.slices.fetch_add(1, Ordering::Relaxed);

        let fault = self
            .shared
            .cfg
            .chaos
            .as_ref()
            .and_then(|p| p.at(FaultSite::Fleet, slice_idx));

        // Phase 2: run unlocked.
        let result = self.run_ops(machine, ops, &config, fault);

        // Phase 3: commit (or discard) under the slot lock.
        let mut requeue = false;
        {
            let mut s = lock(&slot);
            s.running = false;
            if let Some(kind) = fault {
                s.injected.push(InjectedFault {
                    site: FaultSite::Fleet,
                    op: slice_idx,
                    kind,
                });
            }
            match result {
                SliceRun::Commit(commit) => {
                    let SliceCommit {
                        snapshot,
                        hw,
                        stats,
                        out,
                        executed,
                        metrics,
                    } = *commit;
                    if !s.closed {
                        s.stats = stats;
                        s.metrics.merge(&metrics);
                        for _ in 0..executed {
                            s.pending.pop_front();
                        }
                        s.outputs.extend(out);
                        s.ops_done += executed as u64;
                        s.commit_seq += 1;
                        // Durability: write the commit through the store.
                        // On failure the bytes stay resident in the slot —
                        // no state is lost — but the degradation is loud:
                        // a trace event and a fleet-wide counter record
                        // that recovery will miss this commit, and the
                        // stalled store sheds new work at the inject
                        // boundary.
                        let commit_seq = s.commit_seq;
                        s.snapshot = match &self.shared.cfg.store {
                            Some(store) => {
                                let meta = SessionMeta {
                                    id,
                                    commit_seq,
                                    ops_done: s.ops_done,
                                    heap_words: s.config.heap_words as u64,
                                    op_budget: s.config.op_budget,
                                    fuel_slice: s.config.fuel_slice,
                                    verified: s.config.verified,
                                };
                                match store.put_session(&meta, &snapshot) {
                                    Ok(()) => {
                                        if let Some(repl) = &self.shared.cfg.repl {
                                            repl.note_commit(id, commit_seq);
                                        }
                                        Backing::Stored {
                                            len: snapshot.len(),
                                        }
                                    }
                                    Err(e) => {
                                        s.metrics.event(&Event::StoreWriteFail {
                                            session: id,
                                            commit_seq,
                                            error: e.kind(),
                                        });
                                        self.shared
                                            .counters
                                            .store_write_fails
                                            .fetch_add(1, Ordering::Relaxed);
                                        Backing::Resident(snapshot)
                                    }
                                }
                            }
                            None => Backing::Resident(snapshot),
                        };
                        self.shared
                            .counters
                            .ops_done
                            .fetch_add(executed as u64, Ordering::Relaxed);
                        let seq = s.commit_seq;
                        requeue = !s.pending.is_empty();
                        if requeue {
                            s.queued = true;
                        }
                        // Resident policy. Evicting *this* session (forced
                        // by chaos or a zero-capacity cache) is charged to
                        // its slot; LRU overflow evicts other sessions'
                        // machines and is only counted fleet-wide.
                        let evict_self = matches!(fault, Some(FaultKind::ForceEvict))
                            || self.shared.cfg.resident() == 0;
                        if evict_self {
                            s.evictions += 1;
                        }
                        drop(s);
                        let evicted = if evict_self {
                            drop(hw);
                            1
                        } else {
                            self.cache_resident(id, seq, hw)
                        };
                        if evicted > 0 {
                            self.shared
                                .counters
                                .evictions
                                .fetch_add(evicted, Ordering::Relaxed);
                        }
                    }
                }
                SliceRun::Killed => {
                    s.kills += 1;
                    self.shared.counters.kills.fetch_add(1, Ordering::Relaxed);
                    requeue = !s.pending.is_empty();
                    if requeue {
                        s.queued = true;
                    }
                }
                SliceRun::Poison(msg) => {
                    s.poisoned = Some(msg);
                }
            }
        }
        if requeue {
            self.shared.enqueue(id);
        }
        self.shared.notify_idle();
    }

    /// The unlocked run phase: rehydrate (or reuse) the machine, execute
    /// queued ops until the fuel slice is spent, hibernate.
    fn run_ops(
        &self,
        machine: Machine,
        ops: Vec<Op>,
        config: &SessionConfig,
        fault: Option<FaultKind>,
    ) -> SliceRun {
        let mut hw = match machine {
            Machine::Resident(hw) => hw,
            Machine::Snapshot(bytes) => {
                self.shared
                    .counters
                    .rehydrations
                    .fetch_add(1, Ordering::Relaxed);
                match Hw::rehydrate(&bytes, config.hw_config()) {
                    Ok(hw) => hw,
                    Err(e) => return SliceRun::Poison(format!("rehydrate: {e}")),
                }
            }
        };

        let sink = SharedSink::new(MetricsSink::new());
        hw.set_sink(Box::new(sink.clone()));
        let start = hw.stats().total_cycles();
        let mut out = Vec::new();
        let mut executed = 0usize;
        let mut gc_failed = false;
        for op in &ops {
            let t0 = Instant::now();
            let ok = apply_op(&mut hw, op, config.op_budget, &mut out);
            let us = t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
            lock(&self.shared.latency_us).record(us);
            executed += 1;
            if !ok {
                gc_failed = true;
                break;
            }
            if hw.stats().total_cycles().saturating_sub(start) >= config.fuel_slice {
                break;
            }
        }
        drop(hw.take_sink());
        let metrics = sink.try_into_inner().unwrap_or_default();

        if matches!(fault, Some(FaultKind::SessionKill)) {
            // The worker "dies" before committing: machine, outputs, and
            // metrics all evaporate. Determinism of `apply_op` makes the
            // replay byte-identical.
            return SliceRun::Killed;
        }
        if gc_failed {
            return SliceRun::Poison("boundary collection failed".into());
        }
        let stats = hw.stats().clone();
        match hw.hibernate() {
            Ok(snapshot) => SliceRun::Commit(Box::new(SliceCommit {
                snapshot,
                hw,
                stats,
                out,
                executed,
                metrics,
            })),
            Err(e) => SliceRun::Poison(format!("hibernate: {e}")),
        }
    }
}

impl FleetHandle {
    /// Load a program image as a new session; returns its id. The image is
    /// validated (full decode + initial snapshot) before the session
    /// becomes visible.
    pub fn open_program(
        &self,
        words: &[Word],
        config: Option<SessionConfig>,
    ) -> Result<u64, FleetError> {
        let mut config = config.unwrap_or_else(|| self.shared.cfg.session.clone());
        let mut cert = None;
        if config.verified {
            let (c, sized) = certify(words, config.heap_words)?;
            config.heap_words = sized;
            cert = Some(c);
        }
        let hw = Hw::load_with(words, config.hw_config())
            .map_err(|e| FleetError::Load(e.to_string()))?;
        let snapshot = hw
            .hibernate()
            .map_err(|e| FleetError::Snapshot(e.to_string()))?;
        let stats = hw.stats().clone();
        self.install(config, snapshot, stats, cert)
    }

    /// Resume a session from `ZSNP` bytes (e.g. a previous fleet's
    /// [`FleetHandle::snapshot`]); the bytes are decoded and audited
    /// before the session becomes visible. An owned buffer becomes the
    /// session's snapshot without a copy.
    pub fn open_snapshot<'a>(
        &self,
        bytes: impl Into<Cow<'a, [u8]>>,
        config: Option<SessionConfig>,
    ) -> Result<u64, FleetError> {
        let bytes = bytes.into().into_owned();
        let config = config.unwrap_or_else(|| self.shared.cfg.session.clone());
        if config.verified {
            // Certification runs over a program image; a mid-run snapshot
            // has no pre-admission story.
            return Err(FleetError::Certification(
                "snapshots cannot be verified-loaded; open the program image instead".into(),
            ));
        }
        let snap =
            MachineSnapshot::from_bytes(&bytes).map_err(|e| FleetError::Snapshot(e.to_string()))?;
        snap.audit_self_contained()
            .map_err(|e| FleetError::Snapshot(e.to_string()))?;
        let hw = snap
            .to_hw(config.hw_config())
            .map_err(|e| FleetError::Snapshot(e.to_string()))?;
        let stats = hw.stats().clone();
        self.install(config, bytes, stats, None)
    }

    fn install(
        &self,
        config: SessionConfig,
        snapshot: Vec<u8>,
        stats: Stats,
        cert: Option<Certificate>,
    ) -> Result<u64, FleetError> {
        if self.shared.shutdown.load(Ordering::SeqCst) {
            return Err(FleetError::ShuttingDown);
        }
        let id = self.shared.next_id.fetch_add(1, Ordering::SeqCst);
        // A durable fleet persists the initial state before the session
        // becomes visible — a session that ever existed is recoverable.
        let snapshot = match &self.shared.cfg.store {
            Some(store) => {
                let meta = SessionMeta {
                    id,
                    commit_seq: 0,
                    ops_done: 0,
                    heap_words: config.heap_words as u64,
                    op_budget: config.op_budget,
                    fuel_slice: config.fuel_slice,
                    verified: config.verified,
                };
                store.put_session(&meta, &snapshot)?;
                // The initial state must reach the standby too, or a
                // freshly opened session would be invisible to failover.
                if let Some(repl) = &self.shared.cfg.repl {
                    repl.note_commit(id, 0);
                }
                Backing::Stored {
                    len: snapshot.len(),
                }
            }
            None => Backing::Resident(snapshot),
        };
        let slot = Slot {
            config,
            snapshot,
            stats,
            metrics: MetricsSink::new(),
            pending: VecDeque::new(),
            outputs: Vec::new(),
            ops_done: 0,
            commit_seq: 0,
            slices: 0,
            kills: 0,
            evictions: 0,
            rehydrations: 0,
            running: false,
            queued: false,
            frozen: false,
            closed: false,
            poisoned: None,
            injected: Vec::new(),
            cert,
        };
        lock(&self.shared.slots).insert(id, Arc::new(Mutex::new(slot)));
        self.shared
            .counters
            .sessions_opened
            .fetch_add(1, Ordering::Relaxed);
        Ok(id)
    }

    /// Queue one op on a session: [`FleetHandle::inject_batch`] of one.
    pub fn inject(&self, id: u64, op: Op) -> Result<(), FleetError> {
        self.inject_batch(id, vec![op]).map(|_| ())
    }

    /// Queue many ops on a session under one slot lock. Admission is
    /// atomic: every op is checked against the certificate (when the
    /// session is verified) before any is queued, so a rejected batch
    /// leaves the session untouched. Returns the pending count after the
    /// batch. A fleet whose durable store has stalled, or whose standby
    /// lags too far, sheds the batch instead ([`FleetError::Overloaded`]):
    /// accepting work that can never commit durably would silently widen
    /// the window of state the store cannot recover.
    pub fn inject_batch(&self, id: u64, ops: Vec<Op>) -> Result<usize, FleetError> {
        if self.shared.shutdown.load(Ordering::SeqCst) {
            return Err(FleetError::ShuttingDown);
        }
        if let Some(store) = &self.shared.cfg.store {
            if let Some(detail) = store.stalled() {
                return Err(FleetError::Overloaded(detail));
            }
        }
        if let Some(repl) = &self.shared.cfg.repl {
            if let Some(detail) = repl.overloaded() {
                return Err(FleetError::Overloaded(detail));
            }
        }
        let slot = self.shared.slot(id)?;
        let (enqueue, pending) = {
            let mut s = lock(&slot);
            if let Some(msg) = &s.poisoned {
                return Err(FleetError::SessionPoisoned(msg.clone()));
            }
            if s.closed {
                return Err(FleetError::UnknownSession(id));
            }
            if s.frozen {
                return Err(FleetError::SessionFrozen(id));
            }
            if let Some(cert) = &s.cert {
                for op in &ops {
                    check_op(cert, op)?;
                }
            }
            s.pending.extend(ops);
            let enqueue = if !s.pending.is_empty() && !s.running && !s.queued {
                s.queued = true;
                true
            } else {
                false
            };
            (enqueue, s.pending.len())
        };
        if enqueue {
            self.shared.enqueue(id);
        }
        Ok(pending)
    }

    /// Drain a session's committed output words.
    pub fn poll(&self, id: u64) -> Result<PollResult, FleetError> {
        let slot = self.shared.slot(id)?;
        let mut s = lock(&slot);
        if let Some(msg) = &s.poisoned {
            return Err(FleetError::SessionPoisoned(msg.clone()));
        }
        Ok(PollResult {
            words: std::mem::take(&mut s.outputs),
            ops_done: s.ops_done,
            pending: s.pending.len(),
        })
    }

    /// The session's last committed state as `ZSNP` bytes (fetched and
    /// verified from the durable store when the fleet has one).
    pub fn snapshot(&self, id: u64) -> Result<Vec<u8>, FleetError> {
        let slot = self.shared.slot(id)?;
        let s = lock(&slot);
        self.shared.committed_bytes(id, &s)
    }

    /// Point-in-time statistics for one session.
    pub fn session_stats(&self, id: u64) -> Result<SessionStats, FleetError> {
        let slot = self.shared.slot(id)?;
        let s = lock(&slot);
        Ok(SessionStats {
            ops_done: s.ops_done,
            pending: s.pending.len(),
            slices: s.slices,
            kills: s.kills,
            evictions: s.evictions,
            rehydrations: s.rehydrations,
            commit_seq: s.commit_seq,
            snapshot_bytes: s.snapshot.len(),
            total_cycles: s.stats.total_cycles(),
            poisoned: s.poisoned.clone(),
        })
    }

    /// Faults injected into one session so far, in firing order.
    pub fn session_faults(&self, id: u64) -> Result<Vec<InjectedFault>, FleetError> {
        let slot = self.shared.slot(id)?;
        let faults = lock(&slot).injected.clone();
        Ok(faults)
    }

    /// The session's aggregated metrics (merged at each commit).
    pub fn session_metrics(&self, id: u64) -> Result<MetricsSink, FleetError> {
        let slot = self.shared.slot(id)?;
        let metrics = lock(&slot).metrics.clone();
        Ok(metrics)
    }

    /// Block until the session has no uncommitted work (or `timeout`
    /// elapses). Poisoned sessions return their poison error.
    pub fn wait_idle(&self, id: u64, timeout: Duration) -> Result<(), FleetError> {
        let deadline = Instant::now() + timeout;
        loop {
            {
                let slot = self.shared.slot(id)?;
                let s = lock(&slot);
                if let Some(msg) = &s.poisoned {
                    return Err(FleetError::SessionPoisoned(msg.clone()));
                }
                if s.idle() {
                    return Ok(());
                }
            }
            if Instant::now() >= deadline {
                return Err(FleetError::WaitTimeout);
            }
            let guard = lock(&self.shared.idle_lock);
            let _unused = self
                .shared
                .idle
                .wait_timeout(guard, Duration::from_millis(5));
        }
    }

    /// Block until every open session is idle (or `timeout` elapses).
    pub fn wait_all_idle(&self, timeout: Duration) -> Result<(), FleetError> {
        let deadline = Instant::now() + timeout;
        loop {
            let ids: Vec<u64> = lock(&self.shared.slots).keys().copied().collect();
            let busy = ids.iter().any(|&id| {
                self.shared
                    .slot(id)
                    .map(|slot| {
                        let s = lock(&slot);
                        s.poisoned.is_none() && !s.idle()
                    })
                    .unwrap_or(false)
            });
            if !busy {
                return Ok(());
            }
            if Instant::now() >= deadline {
                return Err(FleetError::WaitTimeout);
            }
            let guard = lock(&self.shared.idle_lock);
            let _unused = self
                .shared
                .idle
                .wait_timeout(guard, Duration::from_millis(5));
        }
    }

    /// Close a session, dropping any uncommitted work. Its slot (and last
    /// snapshot) become unreachable.
    pub fn close(&self, id: u64) -> Result<(), FleetError> {
        let slot = lock(&self.shared.slots)
            .remove(&id)
            .ok_or(FleetError::UnknownSession(id))?;
        lock(&slot).closed = true;
        self.shared
            .counters
            .sessions_closed
            .fetch_add(1, Ordering::Relaxed);
        if let Some(store) = &self.shared.cfg.store {
            // Best-effort: a stalled store just leaves the record (and
            // its chunks) for `zarf store gc` to collect later.
            let _ = store.remove_session(id);
        }
        if let Some(repl) = &self.shared.cfg.repl {
            repl.note_close(id);
        }
        Ok(())
    }

    /// Freeze a session for migration: new injects are rejected with
    /// [`FleetError::SessionFrozen`] while queued ops drain, and the
    /// call returns the commit sequence the session quiesced at. On any
    /// failure (timeout, poison) the session is unfrozen before the
    /// error surfaces, so a failed quiesce never wedges a session.
    pub fn quiesce(&self, id: u64, timeout: Duration) -> Result<u64, FleetError> {
        {
            let slot = self.shared.slot(id)?;
            let mut s = lock(&slot);
            if let Some(msg) = &s.poisoned {
                return Err(FleetError::SessionPoisoned(msg.clone()));
            }
            if s.closed {
                return Err(FleetError::UnknownSession(id));
            }
            s.frozen = true;
        }
        match self.wait_idle(id, timeout) {
            Ok(()) => {
                let slot = self.shared.slot(id)?;
                let s = lock(&slot);
                Ok(s.commit_seq)
            }
            Err(e) => {
                if let Ok(slot) = self.shared.slot(id) {
                    lock(&slot).frozen = false;
                }
                Err(e)
            }
        }
    }

    /// End a migration on a frozen session: `resume` thaws it (the
    /// source stays authoritative), `!resume` closes it (the
    /// destination acknowledged the cutover and now owns the session).
    pub fn release(&self, id: u64, resume: bool) -> Result<(), FleetError> {
        if resume {
            let slot = self.shared.slot(id)?;
            lock(&slot).frozen = false;
            Ok(())
        } else {
            self.close(id)
        }
    }

    /// The fleet's durable store, when it has one. Migration endpoints
    /// serve manifest records and chunks straight from it.
    pub fn store(&self) -> Option<Arc<Store>> {
        self.shared.cfg.store.clone()
    }

    /// Fleet-wide statistics.
    pub fn stats(&self) -> FleetStats {
        let c = &self.shared.counters;
        FleetStats {
            workers: self.shared.cfg.worker_count(),
            sessions_open: lock(&self.shared.slots).len(),
            sessions_opened: c.sessions_opened.load(Ordering::Relaxed),
            sessions_closed: c.sessions_closed.load(Ordering::Relaxed),
            ops_done: c.ops_done.load(Ordering::Relaxed),
            slices: c.slices.load(Ordering::Relaxed),
            kills: c.kills.load(Ordering::Relaxed),
            evictions: c.evictions.load(Ordering::Relaxed),
            rehydrations: c.rehydrations.load(Ordering::Relaxed),
            store_write_fails: c.store_write_fails.load(Ordering::Relaxed),
            latency_us: lock(&self.shared.latency_us).clone(),
        }
    }

    /// Ask the fleet to stop (workers drain their current slice and exit).
    /// [`Fleet::shutdown`] calls this and then joins.
    pub fn shutdown_signal(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        {
            let mut seq = lock(&self.shared.work_seq);
            *seq = seq.wrapping_add(1);
        }
        self.shared.work.notify_all();
        self.shared.notify_idle();
    }
}

/// A running fleet: worker threads plus the shared state. Dropping (or
/// calling [`Fleet::shutdown`]) stops and joins the workers.
pub struct Fleet {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Fleet {
    /// Start a fleet with `cfg.workers` threads (at least one).
    pub fn start(cfg: FleetConfig) -> Result<Fleet, FleetError> {
        let n = cfg.worker_count();
        let shared = Arc::new(Shared {
            shards: (0..n).map(|_| Mutex::new(VecDeque::new())).collect(),
            slots: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            work: Condvar::new(),
            work_seq: Mutex::new(0),
            idle: Condvar::new(),
            idle_lock: Mutex::new(()),
            shutdown: AtomicBool::new(false),
            counters: Counters::new(),
            latency_us: Mutex::new(Histogram::new()),
            cfg,
        });
        // A durable fleet resumes every committed session before any
        // worker starts: each slot is rebuilt as a store handle (the
        // bytes rehydrate lazily, from the store's resident LRU or a
        // verified disk read), and the id counter continues past
        // everything the store has ever issued so recovered and new
        // sessions can never collide.
        if let Some(store) = shared.cfg.store.clone() {
            let mut recovered = 0u64;
            {
                let mut slots = lock(&shared.slots);
                for rec in store.sessions() {
                    let config = SessionConfig {
                        heap_words: rec.heap_words as usize,
                        op_budget: rec.op_budget,
                        fuel_slice: rec.fuel_slice,
                        verified: rec.verified,
                    };
                    let slot = Slot {
                        config,
                        snapshot: Backing::Stored {
                            len: rec.snap_len as usize,
                        },
                        stats: Stats::default(),
                        metrics: MetricsSink::new(),
                        pending: VecDeque::new(),
                        outputs: Vec::new(),
                        ops_done: rec.ops_done,
                        commit_seq: rec.commit_seq,
                        slices: 0,
                        kills: 0,
                        evictions: 0,
                        rehydrations: 0,
                        running: false,
                        queued: false,
                        frozen: false,
                        closed: false,
                        poisoned: None,
                        injected: Vec::new(),
                        // The certificate is rebuilt only from a program
                        // image; a recovered verified session keeps its
                        // flag but admits ops uncertified.
                        cert: None,
                    };
                    slots.insert(rec.id, Arc::new(Mutex::new(slot)));
                    recovered += 1;
                }
            }
            shared
                .counters
                .sessions_opened
                .fetch_add(recovered, Ordering::Relaxed);
            shared
                .next_id
                .store(store.next_session_floor(), Ordering::SeqCst);
        }
        let mut workers = Vec::with_capacity(n);
        for index in 0..n {
            let shared = Arc::clone(&shared);
            let builder = std::thread::Builder::new().name(format!("zarf-fleet-{index}"));
            let handle = builder
                .spawn(move || {
                    Worker {
                        shared,
                        index,
                        resident: Vec::new(),
                    }
                    .run()
                })
                .map_err(|e| FleetError::Load(format!("spawn worker: {e}")))?;
            workers.push(handle);
        }
        Ok(Fleet { shared, workers })
    }

    /// A clonable client handle.
    pub fn handle(&self) -> FleetHandle {
        FleetHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Stop the workers, join them, and return the final statistics.
    pub fn shutdown(mut self) -> FleetStats {
        self.handle().shutdown_signal();
        for w in self.workers.drain(..) {
            let _unused = w.join();
        }
        self.handle().stats()
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.handle().shutdown_signal();
        for w in self.workers.drain(..) {
            let _unused = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    /// `zarf-kernel` is only a dev-dependency of the fleet, which keeps
    /// its own copy of the kernel's iteration bound; the copy must not
    /// drift.
    #[test]
    fn fleet_wcet_copy_matches_the_kernel() {
        assert_eq!(
            super::WCET_ITERATION_CYCLES,
            zarf_kernel::WCET_ITERATION_CYCLES
        );
    }
}
