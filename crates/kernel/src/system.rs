//! Full two-layer system integration.
//!
//! [`System`] wires together everything the paper's Figure 1 shows: the
//! λ-execution layer (cycle-accurate `zarf-hw` simulator) running the
//! microkernel + ICD binary, the imperative core (`zarf-imperative`)
//! running the unverified monitoring program, and the word-FIFO channel as
//! the only connection between them. The λ-layer's external device is the
//! heart interface ([`HeartPorts`]); the imperative core's is the
//! diagnostic console ([`MonitorPorts`]).
//!
//! Execution model: the λ-layer runs its real-time loop for the scripted
//! ECG trace (200 Hz), pushing one output word per iteration across the
//! channel; the monitor core then drains the channel. Because the channel
//! is a FIFO and data flows one way, running the consumer after the
//! producer is observationally identical to cycle-interleaving them, while
//! keeping the simulators independent.

use zarf_chaos::{ChaosHandle, FaultKind, FaultPlan, FaultSite};
use zarf_core::error::IoError;
use zarf_core::io::IoPorts;
use zarf_core::Int;
use zarf_hw::{HValue, Hw, HwConfig, HwError, MachineSnapshot, SnapshotError, Stats};
use zarf_imperative::CHANNEL_PORT;
use zarf_imperative::{channel_with, ChannelConfig, Cpu, CpuError, Endpoint, OverflowPolicy};
use zarf_trace::{Event, Histogram, MetricsSink, SharedSink, SinkHandle, TraceSink};

use crate::devices::{HeartPorts, MonitorPorts, CMD_REPORT};
use crate::monitor::monitor_cpu;
use crate::program::{kernel_machine, PORT_ECG, PORT_PACE, PORT_TIMER};
use crate::snapshot::SystemCheckpoint;

/// The paper's Table 4 worst-case execution time for one full kernel
/// iteration (all four coroutines + collection), in λ-layer cycles. The
/// watchdog derives per-coroutine fuel budgets from this bound.
///
/// Kept as a literal here because `zarf-verify` (which recomputes the bound
/// by abstract interpretation) depends on this crate. The test
/// `kernel_wcet_literal_covers_the_computed_bound` in `zarf-verify`'s
/// `timing` module checks that this literal covers the computed bound, and
/// `fleet_wcet_copy_matches_the_kernel` in `zarf-fleet` checks that the
/// fleet's private copy equals it.
pub const WCET_ITERATION_CYCLES: u64 = 9_065;

/// Coroutine ids a traced system registers with the λ-layer tracer,
/// paired with the kernel step function implementing each coroutine.
pub const COROUTINES: [(u32, &str); 4] = [
    (1, "io_step"),
    (2, "icd_step"),
    (3, "chan_step"),
    (4, "diag_step"),
];

/// Registered id of the I/O coroutine.
pub const IO_COROUTINE: u32 = 1;
/// Registered id of the verified ICD coroutine.
pub const ICD_COROUTINE: u32 = 2;
/// Registered id of the channel coroutine.
pub const CHAN_COROUTINE: u32 = 3;
/// Registered id of the untrusted diagnostic coroutine.
pub const DIAG_COROUTINE: u32 = 4;
/// Pseudo-id for faults in the kernel glue itself (e.g. the shared
/// collector), used in watchdog events; not a schedulable coroutine.
pub const KERNEL_COROUTINE: u32 = 0;

/// Human-readable name for a registered coroutine id. `None` is mutator
/// work outside every coroutine — the scheduler glue in `kernel_iter` —
/// and unknown ids (none are registered today) report as `(unknown)`.
pub fn coroutine_name(id: Option<u32>) -> &'static str {
    match id {
        None => "(kernel)",
        Some(id) => COROUTINES
            .iter()
            .find(|&&(cid, _)| cid == id)
            .map(|&(_, name)| name)
            .unwrap_or("(unknown)"),
    }
}

/// Outcome of a system run.
#[derive(Debug, Clone)]
pub struct SystemReport {
    /// Real-time iterations executed (one per 5 ms sample).
    pub iterations: usize,
    /// Everything the λ-layer wrote to the pacing port. Entry `i` is the
    /// output word computed at iteration `i − 1` (the I/O coroutine emits
    /// the *previous* iteration's value; entry 0 is the boot value 0).
    pub pace_log: Vec<Int>,
    /// λ-layer dynamic statistics for the run.
    pub lambda_stats: Stats,
    /// Monitor-core cycles consumed draining the channel.
    pub cpu_cycles: u64,
    /// `main`'s final value (the last iteration's output word).
    pub final_word: Int,
    /// Aggregated trace metrics — per-coroutine cycle accounting, GC
    /// pause distribution, heap occupancy, channel traffic — when the
    /// system was built with [`System::with_metrics`] (or
    /// [`System::enable_metrics`] was called). `None` on untraced runs.
    pub metrics: Option<MetricsSink>,
}

impl SystemReport {
    /// Mutator cycles attributed to each kernel coroutine, by step
    /// function name; scheduler glue appears under `(kernel)`. Empty
    /// when the run was untraced.
    pub fn coroutine_cycles(&self) -> Vec<(&'static str, u64)> {
        self.metrics
            .as_ref()
            .map(|m| {
                m.coroutine_cycles
                    .iter()
                    .map(|(&id, &cycles)| (coroutine_name(id), cycles))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// GC pause distribution (cycles per collection) when traced.
    pub fn gc_pauses(&self) -> Option<&Histogram> {
        self.metrics.as_ref().map(|m| &m.gc_pauses)
    }
}

/// What the watchdog does when it detects a misbehaving coroutine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryPolicy {
    /// Stop the system immediately (fail-stop; an external defibrillator
    /// is assumed to take over).
    Halt,
    /// Restart the offending coroutine from a known-good state and keep
    /// pacing. Exhausting the restart budget degrades to monitor-only.
    #[default]
    RestartCoroutine,
    /// Bypass the λ-layer at the first detection: keep the 200 Hz loop
    /// alive host-side, inhibit therapy, and forward raw samples to the
    /// untrusted monitor.
    DegradeToMonitorOnly,
    /// Capture an audited whole-system checkpoint every `interval`
    /// iterations and, on detection, roll the machine, the heart device,
    /// and the channel back to the last good one and re-run from there.
    /// After `max_rollbacks` rollbacks the watchdog escalates to a
    /// coroutine restart, and past the restart budget to monitor-only.
    RollbackToCheckpoint {
        /// Iterations between checkpoints (clamped to at least 1).
        interval: u64,
        /// Rollbacks allowed before escalating.
        max_rollbacks: u32,
    },
}

impl RecoveryPolicy {
    /// Stable lowercase name (CLI flag values and trace events).
    pub fn name(self) -> &'static str {
        match self {
            RecoveryPolicy::Halt => "halt",
            RecoveryPolicy::RestartCoroutine => "restart",
            RecoveryPolicy::DegradeToMonitorOnly => "degrade",
            RecoveryPolicy::RollbackToCheckpoint { .. } => "rollback",
        }
    }
}

/// Why the watchdog flagged a coroutine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultCause {
    /// The call failed outright (error value, memory fault, I/O failure).
    Crashed,
    /// The fuel budget ran out before the coroutine yielded.
    Overrun,
    /// The coroutine demanded its own value — a provable self-loop.
    Livelock,
}

impl FaultCause {
    /// Stable lowercase name used in trace events.
    pub fn name(self) -> &'static str {
        match self {
            FaultCause::Crashed => "crashed",
            FaultCause::Overrun => "overrun",
            FaultCause::Livelock => "livelock",
        }
    }
}

/// One watchdog detection: which coroutine misbehaved, when, and how.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Detection {
    /// Registered coroutine id (see [`COROUTINES`]).
    pub coroutine: u32,
    /// Real-time iteration (0-based) at which the fault was detected.
    pub iteration: u64,
    /// Fault classification.
    pub cause: FaultCause,
}

/// Fuel budgets and recovery behaviour for a supervised run.
#[derive(Debug, Clone, Copy)]
pub struct WatchdogConfig {
    /// Per-coroutine fuel budgets in cycles, indexed by registered
    /// coroutine id − 1 (io, icd, chan, diag). Defaults are multiples of
    /// [`WCET_ITERATION_CYCLES`]: lazy evaluation shifts work between
    /// coroutines, so each gets headroom well past its own share of the
    /// iteration bound while still catching runaways within a few ticks.
    pub budgets: [u64; 4],
    /// What to do on detection.
    pub policy: RecoveryPolicy,
    /// Restarts allowed (across all coroutines) before
    /// [`RecoveryPolicy::RestartCoroutine`] escalates to monitor-only.
    pub max_restarts: u32,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            budgets: [
                4 * WCET_ITERATION_CYCLES,
                8 * WCET_ITERATION_CYCLES,
                4 * WCET_ITERATION_CYCLES,
                4 * WCET_ITERATION_CYCLES,
            ],
            policy: RecoveryPolicy::RestartCoroutine,
            max_restarts: 8,
        }
    }
}

/// Terminal state of a run that could not complete normally.
#[derive(Debug, Clone)]
pub struct DegradationReport {
    /// Iteration at which the system left normal operation.
    pub iteration: u64,
    /// 200 Hz ticks completed in total, including degraded ones — the
    /// pacing loop never stopped unless the outcome is `Halted`.
    pub completed_iterations: u64,
    /// Every watchdog detection, in order.
    pub detections: Vec<Detection>,
    /// Coroutine restarts performed before leaving normal operation.
    pub restarts: u32,
    /// Checkpoint rollbacks performed before leaving normal operation.
    pub rollbacks: u32,
    /// Everything written to the pacing port (degraded ticks pace 0).
    pub pace_log: Vec<Int>,
}

/// Report of a supervised run that completed all iterations normally.
#[derive(Debug, Clone)]
pub struct SupervisedReport {
    /// The ordinary run report.
    pub system: SystemReport,
    /// Watchdog detections that were recovered from.
    pub detections: Vec<Detection>,
    /// Coroutine restarts performed.
    pub restarts: u32,
    /// Checkpoint rollbacks performed.
    pub rollbacks: u32,
}

/// Outcome of [`System::run_supervised`]: every fault either recovers or
/// lands in a typed terminal state — never a panic, never a wedged loop.
#[derive(Debug, Clone)]
pub enum SupervisedOutcome {
    /// All iterations ran; any detections were recovered in place.
    Completed(Box<SupervisedReport>),
    /// The watchdog fell back to the monitor-only loop partway through;
    /// pacing stayed at 200 Hz with therapy inhibited.
    Degraded(DegradationReport),
    /// The system fail-stopped under [`RecoveryPolicy::Halt`].
    Halted(DegradationReport),
}

impl SupervisedOutcome {
    /// All detections, whatever the terminal state.
    pub fn detections(&self) -> &[Detection] {
        match self {
            SupervisedOutcome::Completed(r) => &r.detections,
            SupervisedOutcome::Degraded(r) | SupervisedOutcome::Halted(r) => &r.detections,
        }
    }

    /// Stable lowercase name of the variant.
    pub fn name(&self) -> &'static str {
        match self {
            SupervisedOutcome::Completed(_) => "completed",
            SupervisedOutcome::Degraded(_) => "degraded",
            SupervisedOutcome::Halted(_) => "halted",
        }
    }
}

/// A detection that no restart absorbed: the supervised loop resumes at
/// a checkpoint or ends the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Escalation {
    Halt,
    Degrade,
    /// Roll back to the last good checkpoint after the latest detection.
    Rollback,
}

/// The recovery ladder: the one place that decides whether a detection
/// leads to a halt, a restart (`Ok`: the caller calls the coroutine
/// again), a rollback or monitor-only degradation. A fault is
/// `restartable` when re-running the coroutine could help: a critical
/// call not yet restarted this iteration. A corrupt ICD state (not a
/// `Pair state out`) and a failed collection never are. `rollback_ok`
/// holds under [`RecoveryPolicy::RollbackToCheckpoint`] while a good
/// checkpoint exists and the rollback budget lasts.
///
/// | policy   | restartable fault          | other fault       |
/// |----------|----------------------------|-------------------|
/// | halt     | halt                       | halt              |
/// | degrade  | degrade                    | degrade           |
/// | restart  | restart, then degrade      | degrade           |
/// | rollback | rollback, restart, degrade | rollback, degrade |
///
/// Beside the table: the untrusted diagnostic coroutine is not on the
/// ladder (see `System::diag_fault`); a failed collection at a checkpoint
/// boundary is offered no rollback, so it degrades; and a rollback whose
/// restore fails degrades without a `degrade` event.
fn ladder(
    policy: RecoveryPolicy,
    restartable: bool,
    rollback_ok: bool,
    restarts_left: bool,
) -> Result<(), Escalation> {
    match policy {
        RecoveryPolicy::Halt => Err(Escalation::Halt),
        RecoveryPolicy::DegradeToMonitorOnly => Err(Escalation::Degrade),
        RecoveryPolicy::RollbackToCheckpoint { .. } if rollback_ok => Err(Escalation::Rollback),
        _ if restartable && restarts_left => Ok(()),
        _ => Err(Escalation::Degrade),
    }
}

/// The supervised loop's registers: what one iteration hands the next
/// besides the heap. A checkpoint captures them and a rollback restores
/// them.
#[derive(Debug, Clone, Copy)]
struct Registers {
    /// The last channel word, which the I/O coroutine paces next.
    prev: Int,
    /// The diagnostic coroutine's accumulator.
    acc: Int,
    /// Whether the diagnostic coroutine still runs.
    diag_enabled: bool,
}

/// The state of one supervised run.
struct Supervision {
    config: WatchdogConfig,
    /// `(interval, max_rollbacks)` under
    /// [`RecoveryPolicy::RollbackToCheckpoint`].
    rollback: Option<(u64, u32)>,
    iteration: u64,
    regs: Registers,
    detections: Vec<Detection>,
    restarts: u32,
    rollbacks: u32,
    checkpoint: Option<SystemCheckpoint>,
    /// Set by a rollback: skip the capture at the boundary it resumes at.
    skip_capture: bool,
}

impl Supervision {
    fn rollback_ok(&self) -> bool {
        self.rollback
            .is_some_and(|(_, max)| self.checkpoint.is_some() && self.rollbacks < max)
    }
}

/// The complete two-layer Zarf system.
#[derive(Debug)]
pub struct System {
    hw: Hw,
    cpu: Cpu,
    hw_ports: Endpoint<HeartPorts>,
    cpu_ports: Endpoint<MonitorPorts>,
    iterations: usize,
    metrics: Option<SharedSink<MetricsSink>>,
    chaos: Option<ChaosHandle>,
    wd_sink: SinkHandle,
}

impl System {
    /// Build a system that will process `ecg` (one sample per 5 ms tick)
    /// with the default hardware configuration: 64 Ki-word semispaces and
    /// **no** automatic collection — exactly like the deployment in the
    /// paper, the microkernel's once-per-iteration `gc` call is the only
    /// collector invocation.
    pub fn new(ecg: Vec<Int>) -> Result<Self, HwError> {
        Self::with_config(
            ecg,
            HwConfig {
                gc_auto: false,
                ..HwConfig::default()
            },
        )
    }

    /// Build a system with an explicit λ-layer configuration.
    pub fn with_config(ecg: Vec<Int>, config: HwConfig) -> Result<Self, HwError> {
        let iterations = ecg.len();
        let hw = Hw::from_machine_with(&kernel_machine(), config)?;
        let (hw_ports, cpu_ports) = channel_with(HeartPorts::new(ecg), MonitorPorts::new());
        Ok(System {
            hw,
            cpu: monitor_cpu(),
            hw_ports,
            cpu_ports,
            iterations,
            metrics: None,
            chaos: None,
            wd_sink: SinkHandle::none(),
        })
    }

    /// Build a traced system: like [`System::new`] but with a shared
    /// [`MetricsSink`] installed across the λ-layer and both channel
    /// endpoints, so the final [`SystemReport`] carries per-coroutine
    /// cycle accounting and GC pause statistics.
    pub fn with_metrics(ecg: Vec<Int>) -> Result<Self, HwError> {
        let mut sys = Self::new(ecg)?;
        sys.enable_metrics();
        Ok(sys)
    }

    /// Install a fresh shared [`MetricsSink`] on every event source and
    /// remember it so [`System::run`] can snapshot it into the report.
    /// Returns a handle for live inspection mid-run.
    pub fn enable_metrics(&mut self) -> SharedSink<MetricsSink> {
        let shared = SharedSink::new(MetricsSink::new());
        self.set_shared_sink(&shared);
        self.metrics = Some(shared.clone());
        shared
    }

    /// Install clones of a shared sink on the λ-layer and both channel
    /// endpoints, and register the kernel coroutines for cycle
    /// attribution. Used by [`System::enable_metrics`] and by the `zarf
    /// trace` CLI to stream raw events instead of aggregating them.
    pub fn set_shared_sink<S: TraceSink + 'static>(&mut self, shared: &SharedSink<S>) {
        self.hw.set_sink(Box::new(shared.clone()));
        self.hw_ports.set_sink(Box::new(shared.clone()));
        self.hw_ports.external.set_sink(Box::new(shared.clone()));
        self.cpu_ports.set_sink(Box::new(shared.clone()));
        self.wd_sink.set(Box::new(shared.clone()));
        for (id, name) in COROUTINES {
            let marked = self.hw.mark_coroutine_by_name(name, id);
            debug_assert!(marked, "kernel step function `{name}` not found");
        }
    }

    /// Arm a deterministic fault plan across every injection site: the
    /// λ-layer heap (allocation failures, forced collections, bit flips),
    /// the channel (drop/duplicate/corrupt), the ECG front-end (dropout,
    /// saturation, noise), and the watchdog's fuel accounting. Returns the
    /// shared handle so callers can inspect what actually fired.
    pub fn enable_chaos(&mut self, plan: FaultPlan) -> ChaosHandle {
        let handle = ChaosHandle::new(plan);
        self.hw.set_chaos(Some(handle.clone()));
        self.hw_ports.set_chaos(Some(handle.clone()));
        self.hw_ports.external.set_chaos(Some(handle.clone()));
        self.chaos = Some(handle.clone());
        handle
    }

    /// Run the real-time loop over the whole ECG trace, then let the
    /// monitor drain the channel.
    pub fn run(&mut self) -> Result<SystemReport, HwError> {
        let v = self.hw.run(&mut self.hw_ports)?;
        let final_word = self.hw.as_int(v).unwrap_or(-1);
        self.pump_monitor();
        Ok(self.report(final_word))
    }

    fn report(&self, final_word: Int) -> SystemReport {
        SystemReport {
            iterations: self.iterations,
            pace_log: self.hw_ports.external.pace_log().to_vec(),
            lambda_stats: self.hw.stats().clone(),
            cpu_cycles: self.cpu.cycles(),
            final_word,
            metrics: self.metrics.as_ref().map(|m| m.with(|s| s.clone())),
        }
    }

    /// Run the real-time loop with the kernel watchdog supervising every
    /// coroutine: the host drives the four step functions directly (the
    /// same schedule `kernel_run` encodes), giving each call a fuel budget
    /// derived from the Table 4 WCET bound and classifying every failure.
    /// Detections recover per [`WatchdogConfig::policy`]; whatever happens,
    /// the outcome is typed — this function never panics and the 200 Hz
    /// pacing loop only stops under [`RecoveryPolicy::Halt`].
    pub fn run_supervised(&mut self, config: WatchdogConfig) -> SupervisedOutcome {
        // Bound the channel so a healthy run (one word per iteration each
        // way, plus fault duplicates) fits, while a runaway flood hits
        // backpressure instead of host memory.
        self.hw_ports.set_channel_config(ChannelConfig {
            capacity: 2 * self.iterations + 64,
            policy: OverflowPolicy::Block,
        });
        let mut run = Supervision {
            config,
            rollback: match config.policy {
                RecoveryPolicy::RollbackToCheckpoint {
                    interval,
                    max_rollbacks,
                } => Some((interval.max(1), max_rollbacks)),
                _ => None,
            },
            iteration: 0,
            regs: Registers {
                prev: 0,
                acc: 0,
                diag_enabled: true,
            },
            detections: Vec::new(),
            restarts: 0,
            rollbacks: 0,
            checkpoint: None,
            skip_capture: false,
        };
        let ids = COROUTINES.map(|(_, name)| self.hw.id_of(name));
        let ([Some(io), Some(icd), Some(chan), Some(diag)], Some(init)) =
            (ids, self.hw.id_of("init_state"))
        else {
            // A kernel image without the step functions cannot be paced.
            return self.terminal(run, Escalation::Halt);
        };
        // Initial ICD state (the `init_state` CAF), supervised like the
        // coroutine that owns it.
        let st0 = match self.critical_call(&mut run, ICD_COROUTINE, init, &|_| vec![]) {
            Ok(v) => v,
            Err(escalation) => return self.terminal(run, escalation),
        };
        let roots = [self.hw.push_root(st0), self.hw.push_root(HValue::Int(0))];
        while run.iteration < self.iterations as u64 {
            match self.supervised_iteration(&mut run, [io, icd, chan, diag], roots) {
                Ok(()) => run.iteration += 1,
                Err(Escalation::Rollback) if self.try_rollback(&mut run) => {}
                Err(escalation) => return self.terminal(run, escalation),
            }
        }
        self.pump_monitor();
        SupervisedOutcome::Completed(Box::new(SupervisedReport {
            system: self.report(run.regs.prev),
            detections: run.detections,
            restarts: run.restarts,
            rollbacks: run.rollbacks,
        }))
    }

    /// One iteration of the supervised loop, given the four step
    /// functions and the root slots of the ICD state and the output word.
    /// Every `?` is a detection the recovery ladder escalated.
    fn supervised_iteration(
        &mut self,
        run: &mut Supervision,
        [io, icd, chan, diag]: [u32; 4],
        [state_slot, out_slot]: [usize; 2],
    ) -> Result<(), Escalation> {
        self.checkpoint_boundary(run)?;
        // 1. I/O coroutine: tick, pace the previous word, sample.
        let prev = run.regs.prev;
        let x = self.critical_call(run, IO_COROUTINE, io, &|_| vec![HValue::Int(prev)])?;
        let x = self.hw.as_int(x).unwrap_or(prev);

        // 2. ICD coroutine: one verified detector step.
        let pr = self.critical_call(run, ICD_COROUTINE, icd, &|hw| {
            vec![hw.root(state_slot), HValue::Int(x)]
        })?;
        let (Some(st2), Some(out)) = (self.hw.con_field(pr, 0), self.hw.con_field(pr, 1)) else {
            // Not a `Pair state out`: the state machine is corrupt and a
            // re-run would start from the same corrupt state — but a
            // checkpointed state from *before* the corruption is fine.
            return self.escalate(run, ICD_COROUTINE, FaultCause::Crashed, false, true);
        };
        self.hw.set_root(state_slot, st2);
        self.hw.set_root(out_slot, out);

        // 3. Channel coroutine: forward the output word to the monitor
        // (this also forces the word within the coroutine's budget).
        let c = self.critical_call(run, CHAN_COROUTINE, chan, &|hw| vec![hw.root(out_slot)])?;
        run.regs.prev = self.hw.as_int(c).unwrap_or(prev);

        // 4. Diagnostic coroutine: untrusted, off the ladder.
        if run.regs.diag_enabled {
            let acc = run.regs.acc;
            let budget = run.config.budgets[DIAG_COROUTINE as usize - 1];
            match self.budgeted_call(diag, vec![HValue::Int(acc)], budget) {
                Ok(v) => run.regs.acc = self.hw.as_int(v).unwrap_or(acc),
                Err(cause) => self.diag_fault(run, cause)?,
            }
        }

        // 5. The kernel's once-per-iteration collection. A memory fault
        // here means the heap itself is corrupt — nothing to restart.
        if self.hw.collect_garbage().is_err() {
            return self.escalate(run, KERNEL_COROUTINE, FaultCause::Crashed, false, true);
        }
        Ok(())
    }

    /// Checkpoint boundary: collect first (so the captured compacted heap
    /// is also the *live* layout and a restore is trace-equivalent), flush
    /// the cycle cursor, then capture, corrupt (chaos), verify, and either
    /// keep or reject. A rollback resumes *at* a boundary with the machine
    /// already in post-capture state, so the first boundary after one is
    /// skipped: re-capturing there would emit events the uninterrupted run
    /// does not have.
    fn checkpoint_boundary(&mut self, run: &mut Supervision) -> Result<(), Escalation> {
        let i = run.iteration;
        let Some((interval, _)) = run.rollback else {
            return Ok(());
        };
        if !i.is_multiple_of(interval) || std::mem::take(&mut run.skip_capture) {
            return Ok(());
        }
        if self.hw.collect_garbage().is_err() {
            // Offered no rollback (see `ladder`).
            return self.escalate(run, KERNEL_COROUTINE, FaultCause::Crashed, false, false);
        }
        self.hw.flush_trace();
        match self.capture_checkpoint(i, run.regs) {
            Ok((ckpt, bytes)) => {
                self.wd_sink.emit(|| Event::CheckpointCapture {
                    iteration: i,
                    bytes: bytes as u64,
                });
                run.checkpoint = Some(ckpt);
            }
            // Keep pacing on the previous good checkpoint; storage rot
            // must not stop the loop.
            Err(e) => self.wd_sink.emit(|| Event::AuditFail {
                iteration: i,
                error: e.kind(),
            }),
        }
        Ok(())
    }

    /// Capture, serialize, (chaos-)corrupt, and verify one whole-system
    /// checkpoint. The returned checkpoint is the one decoded back from
    /// the byte container — exactly what durable storage would hold — so
    /// an undetected corruption cannot hide behind the in-memory copy.
    fn capture_checkpoint(
        &mut self,
        iteration: u64,
        regs: Registers,
    ) -> Result<(SystemCheckpoint, usize), SnapshotError> {
        let machine = MachineSnapshot::capture(&self.hw)?;
        let (chan_a_to_b, chan_b_to_a, chan_overflows) = self.hw_ports.fifo_state();
        let ckpt = SystemCheckpoint {
            machine,
            iteration,
            prev: regs.prev,
            acc: regs.acc,
            diag_enabled: regs.diag_enabled,
            heart: self.hw_ports.external.checkpoint_state(),
            chan_a_to_b,
            chan_b_to_a,
            chan_overflows,
        };
        let mut bytes = ckpt.to_bytes()?;
        if let Some(FaultKind::SnapshotCorrupt { byte, bit }) =
            self.planned_fault(FaultSite::Snapshot)
        {
            let idx = (byte as usize) % bytes.len();
            bytes[idx] ^= 1 << (bit % 8);
        }
        let decoded = SystemCheckpoint::from_bytes(&bytes)?;
        decoded.machine.audit_self_contained()?;
        Ok((decoded, bytes.len()))
    }

    /// Roll the whole system back to the last good checkpoint and resume
    /// there, answering the latest detection. Returns `false` when no
    /// rollback could be performed (the run then degrades). Chaos
    /// counters, the watchdog's detection history, and its
    /// restart/rollback budgets deliberately survive the rollback —
    /// faults are external-world events and must neither re-fire nor be
    /// forgotten.
    fn try_rollback(&mut self, run: &mut Supervision) -> bool {
        let (Some(ckpt), Some(&last)) = (&run.checkpoint, run.detections.last()) else {
            return false;
        };
        if ckpt.machine.restore_into(&mut self.hw).is_err() {
            return false;
        }
        self.hw_ports.external.restore_state(&ckpt.heart);
        self.hw_ports
            .restore_fifo_state(&ckpt.chan_a_to_b, &ckpt.chan_b_to_a, ckpt.chan_overflows);
        run.regs = Registers {
            prev: ckpt.prev,
            acc: ckpt.acc,
            diag_enabled: ckpt.diag_enabled,
        };
        let from_iteration = run.iteration;
        run.iteration = ckpt.iteration;
        run.rollbacks += 1;
        run.skip_capture = true;
        // The rollback event comes last: everything after it in the
        // stream is post-resume and must match the uninterrupted run.
        self.recover_action(last.coroutine, from_iteration, "rollback");
        self.wd_sink.emit(|| Event::CheckpointRollback {
            from_iteration,
            to_iteration: ckpt.iteration,
            cause: last.cause.name(),
        });
        true
    }

    /// One supervised critical-coroutine call, restarted at most once.
    fn critical_call(
        &mut self,
        run: &mut Supervision,
        coroutine: u32,
        id: u32,
        args: &dyn Fn(&Hw) -> Vec<HValue>,
    ) -> Result<HValue, Escalation> {
        let budget = run.config.budgets[coroutine as usize - 1];
        let mut restartable = true;
        loop {
            match self.budgeted_call(id, args(&self.hw), budget) {
                Ok(v) => return Ok(v),
                Err(cause) => {
                    self.escalate(run, coroutine, cause, restartable, true)?;
                    restartable = false;
                }
            }
        }
    }

    /// Call a step function under its fuel budget (cut short by any
    /// planned [`FaultKind::FuelCut`] for this call slot) and classify the
    /// result: `Err` is a detection.
    fn budgeted_call(
        &mut self,
        id: u32,
        args: Vec<HValue>,
        budget: u64,
    ) -> Result<HValue, FaultCause> {
        let mut budget = budget.max(1);
        if let Some(FaultKind::FuelCut { cycles }) = self.planned_fault(FaultSite::Coroutine) {
            budget = budget.min(cycles.max(1));
        }
        let result = self
            .hw
            .call_with_budget(id, args, &mut self.hw_ports, budget);
        match result {
            Ok(v) if self.hw.as_error(v).is_none() => Ok(v),
            Err(HwError::CycleLimit(_)) => Err(FaultCause::Overrun),
            Err(HwError::InfiniteLoop) => Err(FaultCause::Livelock),
            Ok(_) | Err(_) => Err(FaultCause::Crashed),
        }
    }

    /// Draw the next planned fault at a watchdog-owned `site` and trace it.
    fn planned_fault(&mut self, site: FaultSite) -> Option<FaultKind> {
        let chaos = self.chaos.as_ref()?;
        let kind = chaos.next(site)?;
        let op = chaos.ops(site) - 1;
        self.wd_sink.emit(|| Event::FaultInjected {
            site: site.name(),
            kind: kind.name(),
            op,
            detail: kind.detail(),
        });
        Some(kind)
    }

    /// Record one detection of `coroutine` at the current iteration.
    fn detect(&mut self, run: &mut Supervision, coroutine: u32, cause: FaultCause) {
        let iteration = run.iteration;
        run.detections.push(Detection {
            coroutine,
            iteration,
            cause,
        });
        self.wd_sink.emit(|| Event::WatchdogDetect {
            coroutine,
            iteration,
            cause: cause.name(),
        });
    }

    /// Record a detection and carry out what [`ladder`] makes of it. A
    /// rollback is offered only where `rollbackable` holds.
    fn escalate(
        &mut self,
        run: &mut Supervision,
        coroutine: u32,
        cause: FaultCause,
        restartable: bool,
        rollbackable: bool,
    ) -> Result<(), Escalation> {
        self.detect(run, coroutine, cause);
        let rollback_ok = rollbackable && run.rollback_ok();
        let restarts_left = run.restarts < run.config.max_restarts;
        let rung = ladder(run.config.policy, restartable, rollback_ok, restarts_left);
        let action = match rung {
            Ok(()) => {
                run.restarts += 1;
                "restart"
            }
            Err(Escalation::Halt) => "halt",
            Err(Escalation::Degrade) => "degrade",
            // A rollback reports itself once the checkpoint is restored.
            Err(Escalation::Rollback) => return rung,
        };
        self.recover_action(coroutine, run.iteration, action);
        rung
    }

    /// The diagnostic coroutine's own rule (see [`ladder`]): halt under
    /// fail-stop, otherwise restart it from a zeroed accumulator while the
    /// restart budget lasts, then bench it for the rest of the run.
    fn diag_fault(&mut self, run: &mut Supervision, cause: FaultCause) -> Result<(), Escalation> {
        self.detect(run, DIAG_COROUTINE, cause);
        let halt = run.config.policy == RecoveryPolicy::Halt;
        let action = if halt {
            "halt"
        } else if run.restarts < run.config.max_restarts {
            run.restarts += 1;
            run.regs.acc = 0;
            "restart"
        } else {
            run.regs.diag_enabled = false;
            "skip"
        };
        self.recover_action(DIAG_COROUTINE, run.iteration, action);
        if halt {
            Err(Escalation::Halt)
        } else {
            Ok(())
        }
    }

    fn recover_action(&mut self, coroutine: u32, iteration: u64, action: &'static str) {
        self.wd_sink.emit(|| Event::WatchdogRecover {
            coroutine,
            iteration,
            action,
        });
    }

    /// End a supervised run on an escalation. `Halt` fail-stops. Anything
    /// else — including a rollback that could not be performed —
    /// falls back to monitor-only: the λ-layer is out of the loop, but the
    /// 200 Hz schedule keeps running host-side, pacing an inhibit word each
    /// tick and forwarding the raw sample to the untrusted monitor.
    fn terminal(&mut self, run: Supervision, escalation: Escalation) -> SupervisedOutcome {
        let halted = escalation == Escalation::Halt;
        if !halted {
            for _ in run.iteration..self.iterations as u64 {
                let _ = self.hw_ports.getint(PORT_TIMER);
                let _ = self.hw_ports.putint(PORT_PACE, 0);
                if let Ok(x) = self.hw_ports.getint(PORT_ECG) {
                    let _ = self.hw_ports.putint(CHANNEL_PORT, x);
                }
            }
            self.pump_monitor();
        }
        let report = DegradationReport {
            iteration: run.iteration,
            // The monitor-only loop runs every remaining tick.
            completed_iterations: if halted {
                run.iteration
            } else {
                self.iterations as u64
            },
            detections: run.detections,
            restarts: run.restarts,
            rollbacks: run.rollbacks,
            pace_log: self.hw_ports.external.pace_log().to_vec(),
        };
        if halted {
            SupervisedOutcome::Halted(report)
        } else {
            SupervisedOutcome::Degraded(report)
        }
    }

    /// Step the monitor core until the channel is empty and it has gone
    /// quiescent (or it halts). The monitor is untrusted code; a runaway
    /// program is cut off by a step budget rather than trusted to yield.
    /// Transient port failures (the channel is bounded, so a write can be
    /// refused under backpressure) leave the pc unmoved and are retried
    /// under their own budget instead of killing the monitor.
    fn pump_monitor(&mut self) {
        let budget = 64 * self.iterations as u64 + 10_000;
        let mut io_retries = 0u32;
        for _ in 0..budget {
            if self.cpu.halted() {
                return;
            }
            match self.cpu.step(&mut self.cpu_ports) {
                Ok(()) => io_retries = 0,
                Err(CpuError::Io(IoError::PortFull(_) | IoError::PortEmpty(_))) => {
                    io_retries += 1;
                    if io_retries > 256 {
                        return;
                    }
                }
                Err(_) => return,
            }
            // Quiesce: nothing waiting, no commands pending.
            if self.cpu_ports.pending() == 0
                && self.cpu_ports.external.responses().is_empty()
                && self.cpu.instructions() > budget / 2
            {
                return;
            }
        }
    }

    /// Ask the (untrusted) monitoring software how many treatments it has
    /// observed, via the diagnostic console.
    pub fn treat_count(&mut self) -> Option<Int> {
        let before = self.cpu_ports.external.responses().len();
        self.cpu_ports.external.send_command(CMD_REPORT);
        // Give the monitor time to drain remaining data and answer.
        for _ in 0..1_000_000u32 {
            if self.cpu.halted() || self.cpu.step(&mut self.cpu_ports).is_err() {
                break;
            }
            if self.cpu_ports.external.responses().len() > before {
                break;
            }
        }
        self.cpu_ports.external.responses().get(before).copied()
    }

    /// Inject a word into the imperative→λ channel direction, as if the
    /// monitoring software had sent it. This is untrusted input: the
    /// non-interference experiments perturb it and require the trusted
    /// outputs to be unaffected. The channel is bounded, so the outcome
    /// reports whether the word was queued, displaced an older word, or
    /// was refused at capacity.
    pub fn inject_to_lambda(&mut self, word: Int) -> zarf_imperative::PushOutcome {
        self.hw_ports.inject(word)
    }

    /// What the untrusted diagnostic coroutine wrote to the debug port.
    pub fn debug_log(&self) -> &[Int] {
        self.hw_ports.external.debug_log()
    }

    /// Direct access to the λ-layer (statistics, heap inspection).
    pub fn lambda(&self) -> &Hw {
        &self.hw
    }

    /// Direct access to the monitor core.
    pub fn monitor(&self) -> &Cpu {
        &self.cpu
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zarf_icd::consts::{OUT_TREAT_START, SAMPLE_HZ};
    use zarf_icd::signal::{EcgConfig, EcgGen, Rhythm};
    use zarf_icd::spec::IcdSpec;

    fn fast_rhythm_samples(seconds: f64) -> Vec<Int> {
        let cfg = EcgConfig {
            noise: 0,
            ..EcgConfig::default()
        };
        let mut g = EcgGen::new(
            cfg,
            vec![Rhythm::Steady {
                bpm: 190.0,
                seconds,
            }],
        );
        g.take((seconds * SAMPLE_HZ as f64) as usize)
    }

    #[test]
    fn system_matches_spec_and_monitor_counts_treatments() {
        // 14 s of sustained VT: enough for the detector to lock on, fill
        // the RR history with fast beats, and start at least one therapy.
        let samples = fast_rhythm_samples(14.0);
        let mut spec = IcdSpec::new();
        let spec_words: Vec<Int> = samples.iter().map(|&x| spec.step(x).word()).collect();
        assert!(
            spec_words.iter().any(|&w| w & OUT_TREAT_START != 0),
            "workload must trigger therapy for this test to be meaningful"
        );

        let mut sys = System::new(samples).unwrap();
        let report = sys.run().unwrap();

        // The pacing log is the spec's output stream delayed by one tick.
        assert_eq!(report.pace_log.len(), report.iterations);
        assert_eq!(report.pace_log[0], 0);
        assert_eq!(&report.pace_log[1..], &spec_words[..spec_words.len() - 1]);
        assert_eq!(report.final_word, *spec_words.last().unwrap());

        // The untrusted monitor counted exactly the spec's treatments.
        let expected = spec.treat_count() as Int;
        assert_eq!(sys.treat_count(), Some(expected));
        assert!(expected >= 1);

        // The kernel called the collector once per iteration.
        assert_eq!(report.lambda_stats.gc_runs, report.iterations as u64);
        assert!(report.lambda_stats.mutator_cycles() > 0);
    }

    #[test]
    fn metrics_sink_matches_simulator_stats_exactly() {
        use zarf_trace::InstrClass;
        let samples = fast_rhythm_samples(2.0);
        let iterations = samples.len() as u64;
        let mut sys = System::with_metrics(samples).unwrap();
        let report = sys.run().unwrap();
        let stats = &report.lambda_stats;
        let m = report.metrics.as_ref().expect("traced run carries metrics");

        // The trace is a refinement of the aggregate counters: replaying
        // it through the metrics sink reproduces `Stats` exactly.
        assert_eq!(
            m.class(InstrClass::Let),
            (stats.lets.count, stats.lets.cycles)
        );
        assert_eq!(
            m.class(InstrClass::Case),
            (stats.cases.count, stats.cases.cycles)
        );
        assert_eq!(
            m.class(InstrClass::Result),
            (stats.results.count, stats.results.cycles)
        );
        assert_eq!(
            m.class(InstrClass::BranchHead),
            (stats.branch_heads.count, stats.branch_heads.cycles)
        );
        assert_eq!(m.instructions(), stats.instructions());
        assert_eq!(m.mutator_cycles(), stats.mutator_cycles());
        assert_eq!(m.gc_cycles(), stats.gc_cycles);
        assert_eq!(m.gc_runs(), stats.gc_runs);
        assert_eq!(m.gc_runs(), iterations);
        assert_eq!(m.gc_objects_copied, stats.gc_objects_copied);
        assert_eq!(m.gc_words_copied, stats.gc_words_copied);
        assert_eq!(m.allocations, stats.allocations);
        assert_eq!(m.words_allocated, stats.words_allocated);

        // Per-item and per-coroutine attributions each partition the
        // mutator cycles — nothing double-counted, nothing dropped.
        assert_eq!(m.item_cycles.values().sum::<u64>(), stats.mutator_cycles());
        assert_eq!(
            m.coroutine_cycles.values().sum::<u64>(),
            stats.mutator_cycles()
        );

        // All four kernel coroutines ran, and the scheduler glue is
        // accounted separately.
        let per: std::collections::BTreeMap<&str, u64> =
            report.coroutine_cycles().into_iter().collect();
        for (_, name) in COROUTINES {
            assert!(
                per.get(name).copied().unwrap_or(0) > 0,
                "{name} got no cycles"
            );
        }
        assert!(per.get("(kernel)").copied().unwrap_or(0) > 0);

        // GC pause stats and channel traffic are visible.
        let pauses = report.gc_pauses().unwrap();
        assert_eq!(pauses.count(), iterations);
        assert!(pauses.max() > 0);
        assert!(m.heap_occupancy.count() == m.allocations);
        assert!(m.channel_pushes >= iterations);
        assert!(m.channel_pops >= iterations);
        assert!(m.channel_peak_depth >= 1);
    }

    #[test]
    fn null_sink_changes_no_cycle_counts() {
        use zarf_trace::NullSink;
        let samples = fast_rhythm_samples(1.0);

        let mut plain = System::new(samples.clone()).unwrap();
        let base = plain.run().unwrap();
        assert!(base.metrics.is_none());
        assert!(base.coroutine_cycles().is_empty());

        let mut traced = System::new(samples).unwrap();
        traced.set_shared_sink(&zarf_trace::SharedSink::new(NullSink));
        let nulled = traced.run().unwrap();

        assert_eq!(nulled.lambda_stats, base.lambda_stats);
        assert_eq!(nulled.pace_log, base.pace_log);
        assert_eq!(nulled.cpu_cycles, base.cpu_cycles);
        assert_eq!(nulled.final_word, base.final_word);
    }

    #[test]
    fn supervised_clean_run_matches_plain_run() {
        let samples = fast_rhythm_samples(4.0);
        let mut plain = System::new(samples.clone()).unwrap();
        let base = plain.run().unwrap();

        let mut sup = System::new(samples).unwrap();
        let outcome = sup.run_supervised(WatchdogConfig::default());
        let SupervisedOutcome::Completed(report) = outcome else {
            panic!("clean supervised run must complete, got {}", outcome.name());
        };
        assert!(report.detections.is_empty());
        assert_eq!(report.restarts, 0);
        assert_eq!(report.system.pace_log, base.pace_log);
        assert_eq!(report.system.final_word, base.final_word);
        assert_eq!(sup.treat_count(), plain.treat_count());
    }

    #[test]
    fn fuel_cut_is_detected_and_recovered_by_restart() {
        let samples = fast_rhythm_samples(2.0);
        let mut plain = System::new(samples.clone()).unwrap();
        let base = plain.run().unwrap();

        let mut sys = System::new(samples).unwrap();
        // Starve the ICD coroutine's 6th call slot (iteration 1, slot
        // layout: init, then 4 per iteration); restart re-runs it with a
        // full budget.
        let chaos = sys.enable_chaos(FaultPlan::new().fuel_cut_at(6, 1));
        let outcome = sys.run_supervised(WatchdogConfig::default());
        let SupervisedOutcome::Completed(report) = outcome else {
            panic!(
                "restart must recover a single fuel cut, got {}",
                outcome.name()
            );
        };
        assert_eq!(report.detections.len(), 1);
        assert_eq!(report.detections[0].cause, FaultCause::Overrun);
        assert_eq!(report.restarts, 1);
        assert_eq!(chaos.injected_count(), 1);
        // Recovery is exact: the pacing stream is unchanged.
        assert_eq!(report.system.pace_log, base.pace_log);
    }

    fn rollback_config(interval: u64, max_rollbacks: u32) -> WatchdogConfig {
        WatchdogConfig {
            policy: RecoveryPolicy::RollbackToCheckpoint {
                interval,
                max_rollbacks,
            },
            ..WatchdogConfig::default()
        }
    }

    #[test]
    fn rollback_recovers_fuel_cut_exactly() {
        let samples = fast_rhythm_samples(2.0);
        let mut plain = System::new(samples.clone()).unwrap();
        let base = plain.run().unwrap();

        let mut sys = System::new(samples).unwrap();
        // Starve iteration 1's ICD call; the watchdog rolls the whole
        // system back to the iteration-0 checkpoint and re-runs.
        let chaos = sys.enable_chaos(FaultPlan::new().fuel_cut_at(6, 1));
        let outcome = sys.run_supervised(rollback_config(4, 4));
        let SupervisedOutcome::Completed(report) = outcome else {
            panic!(
                "rollback must recover a single fuel cut, got {}",
                outcome.name()
            );
        };
        assert_eq!(report.detections.len(), 1);
        assert_eq!(report.detections[0].cause, FaultCause::Overrun);
        assert_eq!(report.rollbacks, 1);
        assert_eq!(report.restarts, 0);
        assert_eq!(chaos.injected_count(), 1);
        // Recovery is exact: pacing and final word are unchanged.
        assert_eq!(report.system.pace_log, base.pace_log);
        assert_eq!(report.system.final_word, base.final_word);
    }

    #[test]
    fn exhausted_rollback_budget_escalates_to_restart() {
        let samples = fast_rhythm_samples(2.0);
        let mut plain = System::new(samples.clone()).unwrap();
        let base = plain.run().unwrap();

        let mut sys = System::new(samples).unwrap();
        sys.enable_chaos(FaultPlan::new().fuel_cut_at(6, 1));
        let outcome = sys.run_supervised(rollback_config(4, 0));
        let SupervisedOutcome::Completed(report) = outcome else {
            panic!(
                "a zero rollback budget must fall back to restart, got {}",
                outcome.name()
            );
        };
        assert_eq!(report.rollbacks, 0);
        assert_eq!(report.restarts, 1);
        assert_eq!(report.system.pace_log, base.pace_log);
    }

    #[test]
    fn corrupt_checkpoint_is_rejected_and_skipped() {
        let samples = fast_rhythm_samples(2.0);
        let iterations = samples.len() as u64;
        let mut plain = System::new(samples.clone()).unwrap();
        let base = plain.run().unwrap();

        let mut sys = System::with_metrics(samples).unwrap();
        // Rot a bit in the second checkpoint's stored bytes; verification
        // must reject it and the system must keep pacing regardless.
        sys.enable_chaos(FaultPlan::new().snapshot_corrupt_at(1, 12_345, 3));
        let outcome = sys.run_supervised(rollback_config(8, 4));
        let SupervisedOutcome::Completed(report) = outcome else {
            panic!(
                "storage rot alone must not stop the loop, got {}",
                outcome.name()
            );
        };
        assert!(report.detections.is_empty());
        assert_eq!(report.rollbacks, 0);
        let m = report.system.metrics.as_ref().expect("traced run");
        assert_eq!(m.audit_failures, 1);
        assert_eq!(m.faults_injected, 1);
        assert_eq!(m.checkpoints_captured, iterations.div_ceil(8) - 1);
        assert_eq!(report.system.pace_log, base.pace_log);
    }

    #[test]
    fn rollback_reaches_past_a_corrupt_checkpoint() {
        let samples = fast_rhythm_samples(1.0);
        let mut plain = System::new(samples.clone()).unwrap();
        let base = plain.run().unwrap();

        let mut sys = System::with_metrics(samples).unwrap();
        // The iteration-4 checkpoint is corrupted (rejected), then the
        // iteration-5 ICD call is starved: recovery must roll all the way
        // back to the iteration-0 checkpoint and still converge.
        sys.enable_chaos(
            FaultPlan::new()
                .snapshot_corrupt_at(1, 777, 0)
                .fuel_cut_at(22, 1),
        );
        let outcome = sys.run_supervised(rollback_config(4, 4));
        let SupervisedOutcome::Completed(report) = outcome else {
            panic!(
                "rollback past a rotten checkpoint must recover, got {}",
                outcome.name()
            );
        };
        assert_eq!(report.rollbacks, 1);
        let m = report.system.metrics.as_ref().expect("traced run");
        assert_eq!(m.audit_failures, 1);
        assert_eq!(m.rollbacks, 1);
        assert_eq!(report.system.pace_log, base.pace_log);
        assert_eq!(report.system.final_word, base.final_word);
    }

    #[test]
    fn halt_policy_fail_stops_on_first_detection() {
        let samples = fast_rhythm_samples(2.0);
        let mut sys = System::new(samples).unwrap();
        sys.enable_chaos(FaultPlan::new().fuel_cut_at(6, 1));
        let outcome = sys.run_supervised(WatchdogConfig {
            policy: RecoveryPolicy::Halt,
            ..WatchdogConfig::default()
        });
        let SupervisedOutcome::Halted(report) = outcome else {
            panic!("halt policy must fail-stop, got {}", outcome.name());
        };
        assert_eq!(report.detections.len(), 1);
        assert_eq!(report.iteration, 1);
    }

    #[test]
    fn degrade_policy_keeps_pacing_at_200hz() {
        let samples = fast_rhythm_samples(2.0);
        let n = samples.len();
        let mut sys = System::new(samples).unwrap();
        sys.enable_chaos(FaultPlan::new().fuel_cut_at(6, 1));
        let outcome = sys.run_supervised(WatchdogConfig {
            policy: RecoveryPolicy::DegradeToMonitorOnly,
            ..WatchdogConfig::default()
        });
        let SupervisedOutcome::Degraded(report) = outcome else {
            panic!("degrade policy must fall back, got {}", outcome.name());
        };
        assert_eq!(report.completed_iterations, n as u64);
        // Every tick paced something: normal words before the fault,
        // inhibit words (0) after.
        assert!(report.pace_log.len() >= n - 1);
        assert!(report.pace_log[report.pace_log.len() - 1] == 0);
    }

    #[test]
    fn alloc_failure_lands_in_typed_outcome() {
        let samples = fast_rhythm_samples(1.0);
        let mut sys = System::new(samples).unwrap();
        sys.enable_chaos(FaultPlan::new().alloc_fail_at(500));
        let outcome = sys.run_supervised(WatchdogConfig::default());
        // Whatever the terminal state, it is typed and carries the
        // detection trail.
        assert!(
            !outcome.detections().is_empty(),
            "an allocation failure mid-run must be detected ({})",
            outcome.name()
        );
    }

    #[test]
    fn ecg_faults_flow_through_served_log() {
        let samples = fast_rhythm_samples(1.0);
        let mut sys = System::new(samples).unwrap();
        sys.enable_chaos(FaultPlan::new().ecg_saturate_at(3));
        let outcome = sys.run_supervised(WatchdogConfig::default());
        assert_eq!(outcome.name(), "completed");
        let served = sys.hw_ports.external.served_log();
        assert_eq!(served[3].abs(), crate::devices::ECG_SATURATION_RAIL);
    }

    #[test]
    fn per_iteration_cycles_are_plausible() {
        // The paper's worst case is 9,065 cycles per iteration; the
        // average should be the same order of magnitude (thousands), not
        // tens or millions.
        let samples = fast_rhythm_samples(2.0);
        let n = samples.len() as u64;
        let mut sys = System::new(samples).unwrap();
        let report = sys.run().unwrap();
        let per_iter = report.lambda_stats.total_cycles() / n;
        assert!(
            (1_000..50_000).contains(&per_iter),
            "cycles per iteration {per_iter} outside plausible range"
        );
    }
}
