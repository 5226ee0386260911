//! Deterministic, seeded fault injection for the Zarf stack.
//!
//! The paper's trust story (WCET ≪ 5 ms, refinement, non-interference) is
//! only as strong as the system's behaviour *off* the happy path. This crate
//! provides the data model for exercising that behaviour reproducibly:
//!
//! * A [`FaultPlan`] is a pure, finite map from *operation coordinates*
//!   (a [`FaultSite`] plus the zero-based index of the operation at that
//!   site) to a [`FaultKind`]. No wall-clock, no global state: replaying the
//!   same plan against the same program injects the same faults at the same
//!   points and produces a byte-identical trace.
//! * A [`ChaosHandle`] wraps a plan in shared, clonable state that the
//!   hardware simulator, the channel endpoints, and the sensor devices can
//!   all consult. Each site keeps its own operation counter, and every
//!   fault that actually fires is recorded in an injection log for
//!   post-mortem inspection and determinism checks.
//!
//! Plans can be built explicitly with [`FaultPlan::schedule`] for
//! targeted tests, or derived from a seed with [`FaultPlan::seeded`] for
//! soak suites. The seeded generator uses the same SplitMix64 construction
//! as `zarf-testkit`, inlined here so the crate depends only on
//! `zarf-core`.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

use zarf_core::Int;

/// Where in the system a fault is injected.
///
/// Each site maintains an independent operation counter in the
/// [`ChaosHandle`]; the `op` coordinate of a fault counts operations at
/// that site only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultSite {
    /// A heap allocation in the λ-machine (`hw::machine::alloc_gc`).
    Alloc,
    /// A word pushed onto the inter-layer channel (either direction).
    ChannelPush,
    /// An ECG sample served by the sensor device (`kernel::devices`).
    Ecg,
    /// A coroutine invocation under the kernel watchdog (fuel budgets).
    Coroutine,
    /// A checkpoint captured by the kernel's rollback recovery — the
    /// serialized snapshot bytes, before they are verified and accepted.
    Snapshot,
    /// One scheduling slice of a fleet session (`zarf-fleet`). The `op`
    /// coordinate is the session's own slice index, so plans are
    /// deterministic per session no matter how worker threads interleave.
    Fleet,
    /// One I/O event in the snapshot store (`zarf-store`): a chunk,
    /// journal, or manifest write, or an fsync. The `op` coordinate is
    /// the store's own monotone I/O event counter, consulted by the
    /// store itself (like fleet plans, store plans need no shared
    /// [`ChaosHandle`]).
    Store,
    /// One frame sent on a `ZREP` replication or migration link
    /// (`zarf-fleet`'s replicator pump and `zarf migrate`). The `op`
    /// coordinate is the sender's own monotone frame counter, consulted
    /// by the replication pump itself (like fleet and store plans, repl
    /// plans need no shared [`ChaosHandle`]).
    Repl,
}

impl FaultSite {
    /// Stable short name, used in trace events and reports.
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::Alloc => "alloc",
            FaultSite::ChannelPush => "chan_push",
            FaultSite::Ecg => "ecg",
            FaultSite::Coroutine => "coroutine",
            FaultSite::Snapshot => "snapshot",
            FaultSite::Fleet => "fleet",
            FaultSite::Store => "store",
            FaultSite::Repl => "repl",
        }
    }

    fn index(self) -> usize {
        match self {
            FaultSite::Alloc => 0,
            FaultSite::ChannelPush => 1,
            FaultSite::Ecg => 2,
            FaultSite::Coroutine => 3,
            FaultSite::Snapshot => 4,
            FaultSite::Fleet => 5,
            FaultSite::Store => 6,
            FaultSite::Repl => 7,
        }
    }
}

/// Number of distinct [`FaultSite`]s (sizes the per-site counters).
const SITE_COUNT: usize = 8;

/// The fault to inject when an operation's coordinate matches the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The allocation fails as if the heap were exhausted.
    AllocFail,
    /// One bit of the newly allocated heap cell is flipped.
    BitFlip {
        /// Which bit to flip (interpreted modulo the field width).
        bit: u8,
    },
    /// A garbage collection is forced immediately before the allocation —
    /// an adversarial GC point.
    ForceGc,
    /// The pushed word is silently dropped (never enqueued).
    ChanDrop,
    /// The pushed word is enqueued twice.
    ChanDup,
    /// The pushed word is XOR-corrupted before being enqueued.
    ChanCorrupt {
        /// Bit pattern XORed into the word.
        xor: Int,
    },
    /// The sensor repeats the previous sample (dropout / stuck value).
    EcgDropout,
    /// The sensor rails to full-scale amplitude, keeping the sample's sign.
    EcgSaturate,
    /// Additive noise on the sample.
    EcgNoise {
        /// Signed delta added (saturating) to the sample.
        delta: Int,
    },
    /// The coroutine's fuel budget is cut to `cycles` for this invocation,
    /// simulating fuel exhaustion.
    FuelCut {
        /// Replacement cycle budget (typically far below the WCET bound).
        cycles: u64,
    },
    /// One bit of a captured checkpoint's serialized bytes is flipped
    /// before verification — storage rot landing inside the checkpoint
    /// window. The CRC/audit pipeline must reject the snapshot.
    SnapshotCorrupt {
        /// Byte offset to damage (interpreted modulo the snapshot length).
        byte: u64,
        /// Which bit of that byte to flip (interpreted modulo 8).
        bit: u8,
    },
    /// The worker running a fleet session's slice dies before committing:
    /// every op executed in the slice is discarded and the session must
    /// recover from its last committed snapshot, byte-identically.
    SessionKill,
    /// The session's resident machine is dropped right after the slice
    /// commits, forcing a rehydration from the committed snapshot on the
    /// next slice.
    ForceEvict,
    /// The fleet frontier drops a TCP connection instead of writing the
    /// `op`-th response it was about to queue. The client sees a dead
    /// socket mid-pipeline; the session behind it must be unaffected.
    /// The `op` coordinate is the frontier's response-write event index,
    /// consulted by the serve loop itself (frontier plans are separate
    /// from scheduler plans, whose coordinate is the session slice index).
    ConnKill,
    /// The frontier writes only the first half of the `op`-th response
    /// frame and then drops the connection — a partial write mid-frame.
    /// The truncated frame must be rejected by any decoder that sees it.
    PartialWrite,
    /// The store's `op`-th I/O write lands only its first half on disk
    /// and the store goes stalled — a crash mid-record. Recovery must
    /// treat the torn bytes as the crash boundary, never as data.
    TornWrite,
    /// One bit of the store's `op`-th I/O write is flipped on its way
    /// to disk — silent media rot. Every later read of those bytes must
    /// surface a typed corruption error naming the damaged chunk.
    BitRot {
        /// Which bit of the damaged byte to flip (interpreted modulo 8).
        bit: u8,
    },
    /// The store's `op`-th I/O write is silently dropped — a lost chunk.
    /// Reads of the lost chunk must surface a typed error naming it.
    MissingChunk,
    /// The store's `op`-th I/O event fails as if `fsync` returned an
    /// error; the store goes stalled and the fleet must shed load with
    /// a typed overload error rather than accept undurable commits.
    FsyncFail,
    /// The replication link drops instead of sending its `op`-th frame:
    /// the socket closes mid-stream and the sender must reconnect with
    /// bounded backoff and resume from the last acknowledged commit.
    LinkDrop,
    /// The sender stalls before its `op`-th frame — a slow or wedged
    /// link. Ack lag grows; once it crosses the bound the primary must
    /// shed load with a typed overload error, never buffer unboundedly.
    ReplStall,
    /// The sender's `op`-th frame is held back and sent *after* the
    /// following frame — out-of-order delivery. The receiver's
    /// idempotent apply discipline must converge to the same manifest.
    Reorder,
    /// Only the first half of the `op`-th frame is written before the
    /// link drops — a truncated stream. The receiver must reject the
    /// partial frame (CRC/length guard) and resync on reconnect.
    TruncatedStream,
    /// The `op`-th frame is delivered twice. Content-addressed chunk
    /// writes and idempotent commit apply must make the dup a no-op.
    DupDeliver,
}

impl FaultKind {
    /// The site this kind of fault applies to.
    pub fn site(self) -> FaultSite {
        match self {
            FaultKind::AllocFail | FaultKind::BitFlip { .. } | FaultKind::ForceGc => {
                FaultSite::Alloc
            }
            FaultKind::ChanDrop | FaultKind::ChanDup | FaultKind::ChanCorrupt { .. } => {
                FaultSite::ChannelPush
            }
            FaultKind::EcgDropout | FaultKind::EcgSaturate | FaultKind::EcgNoise { .. } => {
                FaultSite::Ecg
            }
            FaultKind::FuelCut { .. } => FaultSite::Coroutine,
            FaultKind::SnapshotCorrupt { .. } => FaultSite::Snapshot,
            FaultKind::SessionKill
            | FaultKind::ForceEvict
            | FaultKind::ConnKill
            | FaultKind::PartialWrite => FaultSite::Fleet,
            FaultKind::TornWrite
            | FaultKind::BitRot { .. }
            | FaultKind::MissingChunk
            | FaultKind::FsyncFail => FaultSite::Store,
            FaultKind::LinkDrop
            | FaultKind::ReplStall
            | FaultKind::Reorder
            | FaultKind::TruncatedStream
            | FaultKind::DupDeliver => FaultSite::Repl,
        }
    }

    /// Stable short name, used in trace events and reports.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::AllocFail => "alloc_fail",
            FaultKind::BitFlip { .. } => "bit_flip",
            FaultKind::ForceGc => "force_gc",
            FaultKind::ChanDrop => "chan_drop",
            FaultKind::ChanDup => "chan_dup",
            FaultKind::ChanCorrupt { .. } => "chan_corrupt",
            FaultKind::EcgDropout => "ecg_dropout",
            FaultKind::EcgSaturate => "ecg_saturate",
            FaultKind::EcgNoise { .. } => "ecg_noise",
            FaultKind::FuelCut { .. } => "fuel_cut",
            FaultKind::SnapshotCorrupt { .. } => "snapshot_corrupt",
            FaultKind::SessionKill => "session_kill",
            FaultKind::ForceEvict => "force_evict",
            FaultKind::ConnKill => "conn_kill",
            FaultKind::PartialWrite => "partial_write",
            FaultKind::TornWrite => "torn_write",
            FaultKind::BitRot { .. } => "bit_rot",
            FaultKind::MissingChunk => "missing_chunk",
            FaultKind::FsyncFail => "fsync_fail",
            FaultKind::LinkDrop => "link_drop",
            FaultKind::ReplStall => "repl_stall",
            FaultKind::Reorder => "reorder",
            FaultKind::TruncatedStream => "truncated_stream",
            FaultKind::DupDeliver => "dup_deliver",
        }
    }

    /// The kind's scalar parameter (bit index, XOR mask, noise delta, cycle
    /// budget), or 0 for parameterless kinds. Carried in trace events.
    pub fn detail(self) -> i64 {
        match self {
            FaultKind::BitFlip { bit } => bit as i64,
            FaultKind::BitRot { bit } => bit as i64,
            FaultKind::ChanCorrupt { xor } => xor as i64,
            FaultKind::EcgNoise { delta } => delta as i64,
            FaultKind::FuelCut { cycles } => cycles as i64,
            // Bit-within-byte coordinate, packed so one scalar round-trips.
            FaultKind::SnapshotCorrupt { byte, bit } => (byte as i64) * 8 + bit as i64,
            _ => 0,
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::BitFlip { bit } => write!(f, "bit_flip(bit={bit})"),
            FaultKind::BitRot { bit } => write!(f, "bit_rot(bit={bit})"),
            FaultKind::ChanCorrupt { xor } => write!(f, "chan_corrupt(xor={xor:#x})"),
            FaultKind::EcgNoise { delta } => write!(f, "ecg_noise(delta={delta})"),
            FaultKind::FuelCut { cycles } => write!(f, "fuel_cut(cycles={cycles})"),
            FaultKind::SnapshotCorrupt { byte, bit } => {
                write!(f, "snapshot_corrupt(byte={byte},bit={bit})")
            }
            k => f.write_str(k.name()),
        }
    }
}

/// Expected operation counts per site, used by the seeded generator to
/// place faults where they have a chance of firing.
///
/// A fault whose `op` coordinate exceeds the number of operations the run
/// actually performs simply never fires (and never appears in the
/// injection log) — plans are upper bounds, not obligations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanShape {
    /// Expected heap allocations over the run.
    pub alloc_ops: u64,
    /// Expected channel pushes over the run.
    pub channel_ops: u64,
    /// Expected ECG samples served over the run.
    pub ecg_ops: u64,
    /// Expected coroutine invocations over the run.
    pub coroutine_ops: u64,
    /// Expected checkpoint captures over the run (zero outside rollback
    /// recovery; snapshot faults placed beyond the horizon never fire).
    pub snapshot_ops: u64,
}

impl PlanShape {
    /// A shape sized for an ICD system run of `iterations` scheduler
    /// iterations (200 Hz ticks): four coroutine calls, one sample, and one
    /// channel word per iteration, with a conservative allocation estimate.
    pub fn for_iterations(iterations: u64) -> Self {
        PlanShape {
            alloc_ops: iterations.saturating_mul(64).max(64),
            channel_ops: iterations.max(1),
            ecg_ops: iterations.max(1),
            coroutine_ops: iterations.saturating_mul(4).max(4),
            // Rollback recovery checkpoints every few iterations; one
            // capture per eight iterations is the default cadence.
            snapshot_ops: (iterations / 8).max(1),
        }
    }

    fn ops(&self, site: FaultSite) -> u64 {
        match site {
            FaultSite::Alloc => self.alloc_ops,
            FaultSite::ChannelPush => self.channel_ops,
            FaultSite::Ecg => self.ecg_ops,
            FaultSite::Coroutine => self.coroutine_ops,
            FaultSite::Snapshot => self.snapshot_ops,
            // Fleet faults are scheduled per session-slice by
            // `FaultPlan::seeded_fleet`, not by the system-run generator.
            FaultSite::Fleet => 0,
            // Store faults are scheduled per I/O event by
            // `FaultPlan::seeded_store`, not by the system-run generator.
            FaultSite::Store => 0,
            // Repl faults are scheduled per sent frame by
            // `FaultPlan::seeded_repl`, not by the system-run generator.
            FaultSite::Repl => 0,
        }
    }
}

/// SplitMix64 — the same tiny deterministic generator `zarf-testkit` uses,
/// inlined so this crate depends only on `zarf-core`. Frozen: changing the
/// stream would silently re-seed every soak plan.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `0..n` (n > 0) by multiply-shift.
    fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// A deterministic fault schedule: at most one fault per `(site, op)`
/// coordinate.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: BTreeMap<(FaultSite, u64), FaultKind>,
    seed: Option<u64>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Schedule `kind` at the `op`-th operation of its site, replacing any
    /// fault already scheduled there.
    pub fn schedule(mut self, op: u64, kind: FaultKind) -> Self {
        self.faults.insert((kind.site(), op), kind);
        self
    }

    /// Look up the fault scheduled at an exact `(site, op)` coordinate
    /// without any counter state. The fleet consults plans this way — its
    /// coordinate (the session's own slice index) is tracked by the
    /// scheduler itself, not by a shared [`ChaosHandle`], so plans stay
    /// deterministic no matter how worker threads interleave.
    pub fn at(&self, site: FaultSite, op: u64) -> Option<FaultKind> {
        self.faults.get(&(site, op)).copied()
    }

    /// Derive a fleet plan of (up to) `n` session-kill/evict faults from
    /// `seed`, placed uniformly over a horizon of `slices` scheduling
    /// slices. Kills outnumber evictions two to one: replay-from-snapshot
    /// is the richer recovery path.
    ///
    /// Fully deterministic, same contract as [`FaultPlan::seeded`].
    pub fn seeded_fleet(seed: u64, slices: u64, n: usize) -> Self {
        FaultPlan::seeded_site(seed, slices, n, |rng| {
            if rng.below(3) < 2 {
                FaultKind::SessionKill
            } else {
                FaultKind::ForceEvict
            }
        })
    }

    /// Derive a frontier plan of (up to) `n` connection-kill/partial-write
    /// faults from `seed`, placed uniformly over a horizon of `events`
    /// response-write events in the serve loop. Roughly half the faults
    /// are kills and half are partial writes.
    ///
    /// Frontier plans use a different coordinate space than scheduler
    /// plans ([`FaultPlan::seeded_fleet`]): the serve loop's own
    /// response-write counter, not the session slice index. Keep the two
    /// in separate [`FaultPlan`]s.
    ///
    /// Fully deterministic, same contract as [`FaultPlan::seeded`].
    pub fn seeded_frontier(seed: u64, events: u64, n: usize) -> Self {
        FaultPlan::seeded_site(seed, events, n, |rng| {
            if rng.below(2) == 0 {
                FaultKind::ConnKill
            } else {
                FaultKind::PartialWrite
            }
        })
    }

    /// Derive a store plan of (up to) `n` disk faults from `seed`, placed
    /// uniformly over a horizon of `events` store I/O events (chunk,
    /// journal, and manifest writes plus fsyncs). Torn writes, bit rot,
    /// lost writes, and fsync failures are drawn evenly.
    ///
    /// Store plans use the store's own I/O event counter as their
    /// coordinate space; keep them in a separate [`FaultPlan`] from
    /// scheduler and frontier plans.
    ///
    /// Fully deterministic, same contract as [`FaultPlan::seeded`].
    pub fn seeded_store(seed: u64, events: u64, n: usize) -> Self {
        FaultPlan::seeded_site(seed, events, n, |rng| match rng.below(4) {
            0 => FaultKind::TornWrite,
            1 => FaultKind::MissingChunk,
            2 => FaultKind::FsyncFail,
            _ => FaultKind::BitRot {
                bit: rng.below(8) as u8,
            },
        })
    }

    /// Derive a replication-link plan of (up to) `n` faults from `seed`,
    /// placed uniformly over a horizon of `events` sent frames. Link
    /// drops, stalls, reorders, truncated streams, and duplicate
    /// deliveries are drawn evenly.
    ///
    /// Repl plans use the sender's own frame counter as their coordinate
    /// space; keep them in a separate [`FaultPlan`] from scheduler,
    /// frontier, and store plans.
    ///
    /// Fully deterministic, same contract as [`FaultPlan::seeded`].
    pub fn seeded_repl(seed: u64, events: u64, n: usize) -> Self {
        FaultPlan::seeded_site(seed, events, n, |rng| match rng.below(5) {
            0 => FaultKind::LinkDrop,
            1 => FaultKind::ReplStall,
            2 => FaultKind::Reorder,
            3 => FaultKind::TruncatedStream,
            _ => FaultKind::DupDeliver,
        })
    }

    /// The one loop behind the single-site generators: for each of `n`
    /// faults, draw its op uniformly over `horizon`, then let `kind` draw
    /// the fault. The draw order is part of the frozen stream.
    fn seeded_site(
        seed: u64,
        horizon: u64,
        n: usize,
        mut kind: impl FnMut(&mut SplitMix64) -> FaultKind,
    ) -> Self {
        let mut rng = SplitMix64(seed ^ 0x5851_F42D_4C95_7F2D);
        let mut plan = FaultPlan::new();
        for _ in 0..n {
            let op = rng.below(horizon.max(1));
            plan = plan.schedule(op, kind(&mut rng));
        }
        plan.seed = Some(seed);
        plan
    }

    /// Derive a plan of (up to) `n` faults from `seed`, placed uniformly
    /// over the operation horizons in `shape`.
    ///
    /// Fully deterministic: the same `(seed, shape, n)` triple always yields
    /// the same plan. Collisions on a `(site, op)` coordinate keep the later
    /// draw, so a plan may hold slightly fewer than `n` faults.
    pub fn seeded(seed: u64, shape: &PlanShape, n: usize) -> Self {
        // Same avalanche as SplitMix64's output stage, so that seeds 0,1,2…
        // produce unrelated streams.
        let mut rng = SplitMix64(seed ^ 0x5851_F42D_4C95_7F2D);
        let sites = [
            FaultSite::Alloc,
            FaultSite::ChannelPush,
            FaultSite::Ecg,
            FaultSite::Coroutine,
            FaultSite::Snapshot,
        ];
        let mut plan = FaultPlan::new();
        for _ in 0..n {
            let site = sites[rng.below(sites.len() as u64) as usize];
            let op = rng.below(shape.ops(site).max(1));
            let kind = match site {
                FaultSite::Alloc => match rng.below(4) {
                    0 => FaultKind::AllocFail,
                    1 => FaultKind::ForceGc,
                    // Bit flips get double weight: they are the richest
                    // fault class (dangling refs, corrupted ints, bad tags).
                    _ => FaultKind::BitFlip {
                        bit: rng.below(31) as u8,
                    },
                },
                FaultSite::ChannelPush => match rng.below(3) {
                    0 => FaultKind::ChanDrop,
                    1 => FaultKind::ChanDup,
                    _ => FaultKind::ChanCorrupt {
                        xor: 1 << rng.below(31),
                    },
                },
                FaultSite::Ecg => match rng.below(3) {
                    0 => FaultKind::EcgDropout,
                    1 => FaultKind::EcgSaturate,
                    _ => FaultKind::EcgNoise {
                        delta: rng.below(4001) as i32 - 2000,
                    },
                },
                FaultSite::Coroutine => FaultKind::FuelCut {
                    cycles: 16 + rng.below(240),
                },
                FaultSite::Snapshot => FaultKind::SnapshotCorrupt {
                    // Checkpoints are a few KB; the byte offset is reduced
                    // modulo the actual length when the fault fires.
                    byte: rng.below(1 << 16),
                    bit: rng.below(8) as u8,
                },
                // Not in `sites` (frozen — see above); fleet plans come from
                // `seeded_fleet`, store plans from `seeded_store`, and repl
                // plans from `seeded_repl`. Kept total so the compiler flags
                // any new site added without a generator arm.
                FaultSite::Fleet => FaultKind::SessionKill,
                FaultSite::Store => FaultKind::TornWrite,
                FaultSite::Repl => FaultKind::LinkDrop,
            };
            plan = plan.schedule(op, kind);
        }
        plan.seed = Some(seed);
        plan
    }

    /// The seed this plan was derived from, if any.
    pub fn seed(&self) -> Option<u64> {
        self.seed
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Iterate over scheduled faults in `(site, op)` order.
    pub fn iter(&self) -> impl Iterator<Item = (FaultSite, u64, FaultKind)> + '_ {
        self.faults
            .iter()
            .map(|(&(site, op), &kind)| (site, op, kind))
    }
}

/// One fault that actually fired during a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault {
    /// Site the fault fired at.
    pub site: FaultSite,
    /// Zero-based index of the operation at that site.
    pub op: u64,
    /// What was injected.
    pub kind: FaultKind,
}

impl fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}: {}", self.site.name(), self.op, self.kind)
    }
}

#[derive(Debug, Default)]
struct ChaosState {
    plan: FaultPlan,
    counters: [u64; SITE_COUNT],
    log: Vec<InjectedFault>,
}

/// Shared, clonable runtime state for one fault plan.
///
/// Clones share the same counters and injection log, so a single handle
/// can be distributed across the λ-machine, both channel endpoints, the
/// sensor device, and the kernel watchdog. All consultation is through
/// `&self`; interior mutability keeps call sites non-invasive.
#[derive(Debug, Clone, Default)]
pub struct ChaosHandle {
    state: Rc<RefCell<ChaosState>>,
}

impl ChaosHandle {
    /// Wrap a plan for injection.
    pub fn new(plan: FaultPlan) -> Self {
        ChaosHandle {
            state: Rc::new(RefCell::new(ChaosState {
                plan,
                ..ChaosState::default()
            })),
        }
    }

    /// Record one operation at `site` and return the fault scheduled for
    /// it, if any. Fired faults are appended to the injection log.
    pub fn next(&self, site: FaultSite) -> Option<FaultKind> {
        let mut st = self.state.borrow_mut();
        let op = st.counters[site.index()];
        st.counters[site.index()] += 1;
        let kind = st.plan.faults.get(&(site, op)).copied()?;
        st.log.push(InjectedFault { site, op, kind });
        Some(kind)
    }

    /// Operations counted so far at `site`.
    pub fn ops(&self, site: FaultSite) -> u64 {
        self.state.borrow().counters[site.index()]
    }

    /// Every fault that has fired, in firing order.
    pub fn injected(&self) -> Vec<InjectedFault> {
        self.state.borrow().log.clone()
    }

    /// Number of faults that have fired.
    pub fn injected_count(&self) -> usize {
        self.state.borrow().log.len()
    }

    /// Whether any fired fault satisfies `pred` (e.g. "was a bit flip
    /// injected?", to decide if output equivalence can be asserted).
    pub fn any_injected(&self, pred: impl Fn(FaultKind) -> bool) -> bool {
        self.state.borrow().log.iter().any(|f| pred(f.kind))
    }

    /// The seed of the underlying plan, if it was seeded.
    pub fn seed(&self) -> Option<u64> {
        self.state.borrow().plan.seed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_plan_fires_at_exact_coordinates() {
        let plan = FaultPlan::new()
            .schedule(2, FaultKind::AllocFail)
            .schedule(0, FaultKind::ChanCorrupt { xor: 0x10 })
            .schedule(1, FaultKind::EcgDropout);
        let h = ChaosHandle::new(plan);
        assert_eq!(h.next(FaultSite::Alloc), None);
        assert_eq!(h.next(FaultSite::Alloc), None);
        assert_eq!(h.next(FaultSite::Alloc), Some(FaultKind::AllocFail));
        assert_eq!(h.next(FaultSite::Alloc), None);
        assert_eq!(
            h.next(FaultSite::ChannelPush),
            Some(FaultKind::ChanCorrupt { xor: 0x10 })
        );
        assert_eq!(h.next(FaultSite::Ecg), None);
        assert_eq!(h.next(FaultSite::Ecg), Some(FaultKind::EcgDropout));
        assert_eq!(h.injected_count(), 3);
        assert_eq!(h.ops(FaultSite::Alloc), 4);
    }

    #[test]
    fn sites_count_independently() {
        let plan = FaultPlan::new()
            .schedule(0, FaultKind::AllocFail)
            .schedule(0, FaultKind::ChanDrop);
        let h = ChaosHandle::new(plan);
        // Interleaved operations at different sites do not disturb each
        // other's counters.
        assert_eq!(h.next(FaultSite::Ecg), None);
        assert_eq!(h.next(FaultSite::Alloc), Some(FaultKind::AllocFail));
        assert_eq!(h.next(FaultSite::ChannelPush), Some(FaultKind::ChanDrop));
    }

    #[test]
    fn clones_share_counters_and_log() {
        let h = ChaosHandle::new(FaultPlan::new().schedule(1, FaultKind::AllocFail));
        let h2 = h.clone();
        assert_eq!(h.next(FaultSite::Alloc), None);
        assert_eq!(h2.next(FaultSite::Alloc), Some(FaultKind::AllocFail));
        assert_eq!(h.injected_count(), 1);
        assert!(h.any_injected(|k| k == FaultKind::AllocFail));
    }

    #[test]
    fn seeded_plans_are_deterministic_and_seed_sensitive() {
        let shape = PlanShape::for_iterations(100);
        let a = FaultPlan::seeded(42, &shape, 8);
        let b = FaultPlan::seeded(42, &shape, 8);
        let c = FaultPlan::seeded(43, &shape, 8);
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds should give different plans");
        assert!(!a.is_empty());
        assert!(a.len() <= 8);
        assert_eq!(a.seed(), Some(42));
    }

    #[test]
    fn seeded_plans_respect_shape_horizons() {
        let shape = PlanShape {
            alloc_ops: 10,
            channel_ops: 5,
            ecg_ops: 7,
            coroutine_ops: 12,
            snapshot_ops: 3,
        };
        for seed in 0..50 {
            for (site, op, kind) in FaultPlan::seeded(seed, &shape, 16).iter() {
                assert!(
                    op < shape.ops(site),
                    "fault {kind} at op {op} beyond horizon"
                );
                assert_eq!(kind.site(), site);
            }
        }
    }

    #[test]
    fn seeded_plans_cover_every_site_across_seeds() {
        let shape = PlanShape::for_iterations(200);
        let mut seen = [false; SITE_COUNT];
        for seed in 0..40 {
            for (site, _, _) in FaultPlan::seeded(seed, &shape, 8).iter() {
                seen[site.index()] = true;
            }
            // Fleet and store faults have their own generators (per
            // session-slice and per I/O event coordinates); fold their
            // coverage in alongside the system one.
            for (site, _, _) in FaultPlan::seeded_fleet(seed, 64, 4).iter() {
                seen[site.index()] = true;
            }
            for (site, _, _) in FaultPlan::seeded_store(seed, 64, 4).iter() {
                seen[site.index()] = true;
            }
            for (site, _, _) in FaultPlan::seeded_repl(seed, 64, 4).iter() {
                seen[site.index()] = true;
            }
        }
        assert_eq!(
            seen, [true; SITE_COUNT],
            "generators should reach all fault sites"
        );
    }

    #[test]
    fn fleet_builders_and_point_query() {
        let plan = FaultPlan::new()
            .schedule(3, FaultKind::SessionKill)
            .schedule(5, FaultKind::ForceEvict);
        assert_eq!(plan.at(FaultSite::Fleet, 3), Some(FaultKind::SessionKill));
        assert_eq!(plan.at(FaultSite::Fleet, 5), Some(FaultKind::ForceEvict));
        assert_eq!(plan.at(FaultSite::Fleet, 4), None);
        assert_eq!(plan.at(FaultSite::Alloc, 3), None);
        assert_eq!(FaultKind::SessionKill.site(), FaultSite::Fleet);
        assert_eq!(FaultKind::ForceEvict.site(), FaultSite::Fleet);
        assert_eq!(FaultKind::SessionKill.detail(), 0);
    }

    #[test]
    fn seeded_fleet_is_deterministic_and_bounded() {
        let a = FaultPlan::seeded_fleet(7, 32, 6);
        let b = FaultPlan::seeded_fleet(7, 32, 6);
        let c = FaultPlan::seeded_fleet(8, 32, 6);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.seed(), Some(7));
        assert!(!a.is_empty());
        assert!(a.len() <= 6);
        let mut kinds = std::collections::BTreeSet::new();
        for seed in 0..32 {
            for (site, op, kind) in FaultPlan::seeded_fleet(seed, 32, 6).iter() {
                assert_eq!(site, FaultSite::Fleet);
                assert!(op < 32, "slice {op} beyond horizon");
                kinds.insert(kind.name());
            }
        }
        assert!(kinds.contains("session_kill"));
        assert!(kinds.contains("force_evict"));
    }

    #[test]
    fn seeded_frontier_is_deterministic_and_bounded() {
        let a = FaultPlan::seeded_frontier(7, 64, 6);
        let b = FaultPlan::seeded_frontier(7, 64, 6);
        let c = FaultPlan::seeded_frontier(8, 64, 6);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.seed(), Some(7));
        assert!(!a.is_empty());
        assert!(a.len() <= 6);
        let mut kinds = std::collections::BTreeSet::new();
        for seed in 0..32 {
            for (site, op, kind) in FaultPlan::seeded_frontier(seed, 64, 6).iter() {
                assert_eq!(site, FaultSite::Fleet);
                assert!(op < 64, "event {op} beyond horizon");
                kinds.insert(kind.name());
            }
        }
        assert!(kinds.contains("conn_kill"));
        assert!(kinds.contains("partial_write"));
        assert_eq!(
            FaultPlan::new()
                .schedule(2, FaultKind::ConnKill)
                .at(FaultSite::Fleet, 2),
            Some(FaultKind::ConnKill)
        );
        assert_eq!(
            FaultPlan::new()
                .schedule(9, FaultKind::PartialWrite)
                .at(FaultSite::Fleet, 9),
            Some(FaultKind::PartialWrite)
        );
        assert_eq!(FaultKind::ConnKill.detail(), 0);
        assert_eq!(FaultKind::PartialWrite.to_string(), "partial_write");
    }

    #[test]
    fn seeded_store_is_deterministic_and_bounded() {
        let a = FaultPlan::seeded_store(7, 96, 6);
        let b = FaultPlan::seeded_store(7, 96, 6);
        let c = FaultPlan::seeded_store(8, 96, 6);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.seed(), Some(7));
        assert!(!a.is_empty());
        assert!(a.len() <= 6);
        let mut kinds = std::collections::BTreeSet::new();
        for seed in 0..48 {
            for (site, op, kind) in FaultPlan::seeded_store(seed, 96, 6).iter() {
                assert_eq!(site, FaultSite::Store);
                assert!(op < 96, "event {op} beyond horizon");
                kinds.insert(kind.name());
            }
        }
        for expected in ["torn_write", "bit_rot", "missing_chunk", "fsync_fail"] {
            assert!(kinds.contains(expected), "never drew {expected}");
        }
    }

    #[test]
    fn store_faults_schedule_and_point_query() {
        let plan = FaultPlan::new()
            .schedule(1, FaultKind::TornWrite)
            .schedule(3, FaultKind::BitRot { bit: 5 })
            .schedule(4, FaultKind::MissingChunk)
            .schedule(9, FaultKind::FsyncFail);
        assert_eq!(plan.at(FaultSite::Store, 1), Some(FaultKind::TornWrite));
        assert_eq!(
            plan.at(FaultSite::Store, 3),
            Some(FaultKind::BitRot { bit: 5 })
        );
        assert_eq!(plan.at(FaultSite::Store, 4), Some(FaultKind::MissingChunk));
        assert_eq!(plan.at(FaultSite::Store, 9), Some(FaultKind::FsyncFail));
        assert_eq!(plan.at(FaultSite::Store, 2), None);
        assert_eq!(plan.at(FaultSite::Fleet, 1), None);
        assert_eq!(FaultKind::TornWrite.site(), FaultSite::Store);
        assert_eq!(FaultKind::BitRot { bit: 5 }.detail(), 5);
        assert_eq!(FaultKind::BitRot { bit: 5 }.to_string(), "bit_rot(bit=5)");
        assert_eq!(FaultKind::FsyncFail.to_string(), "fsync_fail");
        assert_eq!(FaultSite::Store.name(), "store");
    }

    #[test]
    fn seeded_repl_is_deterministic_and_bounded() {
        let a = FaultPlan::seeded_repl(7, 128, 6);
        let b = FaultPlan::seeded_repl(7, 128, 6);
        let c = FaultPlan::seeded_repl(8, 128, 6);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.seed(), Some(7));
        assert!(!a.is_empty());
        assert!(a.len() <= 6);
        let mut kinds = std::collections::BTreeSet::new();
        for seed in 0..64 {
            for (site, op, kind) in FaultPlan::seeded_repl(seed, 128, 6).iter() {
                assert_eq!(site, FaultSite::Repl);
                assert!(op < 128, "frame {op} beyond horizon");
                kinds.insert(kind.name());
            }
        }
        for expected in [
            "link_drop",
            "repl_stall",
            "reorder",
            "truncated_stream",
            "dup_deliver",
        ] {
            assert!(kinds.contains(expected), "never drew {expected}");
        }
    }

    #[test]
    fn repl_faults_schedule_and_point_query() {
        let plan = FaultPlan::new()
            .schedule(0, FaultKind::LinkDrop)
            .schedule(2, FaultKind::ReplStall)
            .schedule(3, FaultKind::Reorder)
            .schedule(5, FaultKind::TruncatedStream)
            .schedule(8, FaultKind::DupDeliver);
        assert_eq!(plan.at(FaultSite::Repl, 0), Some(FaultKind::LinkDrop));
        assert_eq!(plan.at(FaultSite::Repl, 2), Some(FaultKind::ReplStall));
        assert_eq!(plan.at(FaultSite::Repl, 3), Some(FaultKind::Reorder));
        assert_eq!(
            plan.at(FaultSite::Repl, 5),
            Some(FaultKind::TruncatedStream)
        );
        assert_eq!(plan.at(FaultSite::Repl, 8), Some(FaultKind::DupDeliver));
        assert_eq!(plan.at(FaultSite::Repl, 1), None);
        assert_eq!(plan.at(FaultSite::Store, 0), None);
        assert_eq!(FaultKind::LinkDrop.site(), FaultSite::Repl);
        assert_eq!(FaultKind::DupDeliver.detail(), 0);
        assert_eq!(FaultKind::TruncatedStream.to_string(), "truncated_stream");
        assert_eq!(FaultSite::Repl.name(), "repl");
    }

    /// The single-site generators' streams are frozen: these plans were
    /// read off the generators before they shared one loop, and any
    /// change to a draw (its order, its range or its count) moves them.
    #[test]
    fn single_site_generators_keep_their_frozen_plans() {
        use FaultKind::*;
        let plans = |generate: fn(u64) -> FaultPlan| {
            (1..=3)
                .map(|seed| {
                    let plan = generate(seed);
                    assert_eq!(plan.seed(), Some(seed));
                    plan.iter().map(|(_, op, kind)| (op, kind)).collect()
                })
                .collect::<Vec<Vec<(u64, FaultKind)>>>()
        };
        assert_eq!(
            plans(|seed| FaultPlan::seeded_fleet(seed, 32, 6)),
            [
                vec![
                    (3, SessionKill),
                    (17, SessionKill),
                    (20, SessionKill),
                    (24, ForceEvict),
                    (27, SessionKill),
                    (28, ForceEvict),
                ],
                vec![
                    (5, SessionKill),
                    (7, SessionKill),
                    (9, SessionKill),
                    (14, SessionKill),
                    (21, SessionKill),
                    (29, ForceEvict),
                ],
                vec![
                    (5, SessionKill),
                    (6, SessionKill),
                    (17, ForceEvict),
                    (18, ForceEvict),
                    (29, ForceEvict),
                ],
            ]
        );
        assert_eq!(
            plans(|seed| FaultPlan::seeded_frontier(seed, 64, 6)),
            [
                vec![
                    (7, ConnKill),
                    (35, PartialWrite),
                    (40, PartialWrite),
                    (48, PartialWrite),
                    (55, ConnKill),
                    (56, PartialWrite),
                ],
                vec![
                    (10, ConnKill),
                    (14, PartialWrite),
                    (18, PartialWrite),
                    (28, ConnKill),
                    (42, PartialWrite),
                    (58, PartialWrite),
                ],
                vec![
                    (10, ConnKill),
                    (13, ConnKill),
                    (35, PartialWrite),
                    (37, PartialWrite),
                    (58, PartialWrite),
                ],
            ]
        );
        assert_eq!(
            plans(|seed| FaultPlan::seeded_store(seed, 96, 6)),
            [
                vec![
                    (11, MissingChunk),
                    (53, FsyncFail),
                    (61, FsyncFail),
                    (72, BitRot { bit: 7 }),
                    (82, BitRot { bit: 0 }),
                    (86, BitRot { bit: 2 }),
                ],
                vec![
                    (15, MissingChunk),
                    (21, FsyncFail),
                    (42, MissingChunk),
                    (49, FsyncFail),
                    (50, TornWrite),
                    (87, BitRot { bit: 2 }),
                ],
                vec![
                    (5, FsyncFail),
                    (15, MissingChunk),
                    (65, FsyncFail),
                    (87, BitRot { bit: 4 }),
                    (90, TornWrite),
                    (93, MissingChunk),
                ],
            ]
        );
        assert_eq!(
            plans(|seed| FaultPlan::seeded_repl(seed, 128, 6)),
            [
                vec![
                    (15, ReplStall),
                    (71, Reorder),
                    (81, TruncatedStream),
                    (96, DupDeliver),
                    (111, ReplStall),
                    (113, DupDeliver),
                ],
                vec![
                    (20, ReplStall),
                    (28, Reorder),
                    (37, Reorder),
                    (56, ReplStall),
                    (84, Reorder),
                    (116, DupDeliver),
                ],
                vec![
                    (20, Reorder),
                    (26, LinkDrop),
                    (70, TruncatedStream),
                    (74, DupDeliver),
                    (116, DupDeliver),
                ],
            ]
        );
    }

    #[test]
    fn kind_metadata_is_consistent() {
        let kinds = [
            FaultKind::AllocFail,
            FaultKind::BitFlip { bit: 3 },
            FaultKind::ForceGc,
            FaultKind::ChanDrop,
            FaultKind::ChanDup,
            FaultKind::ChanCorrupt { xor: 0x40 },
            FaultKind::EcgDropout,
            FaultKind::EcgSaturate,
            FaultKind::EcgNoise { delta: -50 },
            FaultKind::FuelCut { cycles: 99 },
            FaultKind::SnapshotCorrupt { byte: 12, bit: 5 },
            FaultKind::TornWrite,
            FaultKind::BitRot { bit: 2 },
            FaultKind::MissingChunk,
            FaultKind::FsyncFail,
            FaultKind::LinkDrop,
            FaultKind::ReplStall,
            FaultKind::Reorder,
            FaultKind::TruncatedStream,
            FaultKind::DupDeliver,
        ];
        for k in kinds {
            assert!(!k.name().is_empty());
            assert!(!k.to_string().is_empty());
            // detail() round-trips the parameter for parameterised kinds.
            match k {
                FaultKind::BitFlip { bit } => assert_eq!(k.detail(), bit as i64),
                FaultKind::BitRot { bit } => assert_eq!(k.detail(), bit as i64),
                FaultKind::ChanCorrupt { xor } => assert_eq!(k.detail(), xor as i64),
                FaultKind::EcgNoise { delta } => assert_eq!(k.detail(), delta as i64),
                FaultKind::FuelCut { cycles } => assert_eq!(k.detail(), cycles as i64),
                FaultKind::SnapshotCorrupt { byte, bit } => {
                    assert_eq!(k.detail(), (byte * 8 + bit as u64) as i64)
                }
                _ => assert_eq!(k.detail(), 0),
            }
        }
    }
}
