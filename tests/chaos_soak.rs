//! Chaos soak: seeded fault plans against the full two-layer system.
//!
//! Every seed must land in a *typed* terminal state — a completed report
//! with its treatment decisions, or a clean degradation/halt report —
//! never a panic. And every seed must replay exactly: the same seed
//! yields the same outcome, the same injected-fault log, the same pacing
//! stream, and (spot-checked) a byte-identical NDJSON trace.

use std::cell::RefCell;
use std::rc::Rc;

use zarf::chaos::{FaultPlan, InjectedFault, PlanShape};
use zarf::core::codec::crc32;
use zarf::core::Int;
use zarf::icd::consts::SAMPLE_HZ;
use zarf::icd::signal::{EcgConfig, EcgGen, Rhythm};
use zarf::kernel::{Detection, RecoveryPolicy, SupervisedOutcome, System, WatchdogConfig};
use zarf::trace::{NdjsonSink, SharedSink};

const SOAK_SEEDS: u64 = 25;
const FAULTS_PER_SEED: usize = 8;

fn steady_samples(seconds: f64) -> Vec<i32> {
    let mut g = EcgGen::new(
        EcgConfig {
            noise: 0,
            ..EcgConfig::default()
        },
        vec![Rhythm::Steady {
            bpm: 190.0,
            seconds,
        }],
    );
    g.take((seconds * SAMPLE_HZ as f64) as usize)
}

/// Everything observable about one supervised chaos run.
#[derive(Debug, Clone, PartialEq)]
struct RunFingerprint {
    outcome: &'static str,
    injected: Vec<InjectedFault>,
    pace_log: Vec<Int>,
    detections: Vec<Detection>,
    restarts: u32,
}

fn run_seed(samples: &[i32], seed: u64, policy: RecoveryPolicy) -> RunFingerprint {
    let mut sys = System::new(samples.to_vec()).expect("system construction");
    let shape = PlanShape::for_iterations(samples.len() as u64);
    let chaos = sys.enable_chaos(FaultPlan::seeded(seed, &shape, FAULTS_PER_SEED));
    let outcome = sys.run_supervised(WatchdogConfig {
        policy,
        ..WatchdogConfig::default()
    });
    let (pace_log, restarts) = match &outcome {
        SupervisedOutcome::Completed(r) => (r.system.pace_log.clone(), r.restarts),
        SupervisedOutcome::Degraded(r) | SupervisedOutcome::Halted(r) => {
            (r.pace_log.clone(), r.restarts)
        }
    };
    RunFingerprint {
        outcome: outcome.name(),
        injected: chaos.injected(),
        pace_log,
        detections: outcome.detections().to_vec(),
        restarts,
    }
}

#[test]
fn soak_every_seed_lands_in_a_typed_state_and_replays_exactly() {
    let samples = steady_samples(1.0);
    let mut completed = 0u32;
    for seed in 1..=SOAK_SEEDS {
        let first = run_seed(&samples, seed, RecoveryPolicy::RestartCoroutine);
        let replay = run_seed(&samples, seed, RecoveryPolicy::RestartCoroutine);
        assert_eq!(
            first, replay,
            "seed {seed} did not replay deterministically"
        );
        match first.outcome {
            "completed" => {
                completed += 1;
                // A completed run paces: one word per iteration it ran.
                assert!(!first.pace_log.is_empty(), "seed {seed}: empty pace log");
            }
            "degraded" | "halted" => {
                // A clean degradation must explain itself.
                assert!(
                    !first.detections.is_empty(),
                    "seed {seed}: degraded without a detection record"
                );
            }
            other => panic!("seed {seed}: unknown outcome {other}"),
        }
    }
    // The plans are adversarial but the watchdog should save most runs.
    assert!(
        completed >= SOAK_SEEDS as u32 / 4,
        "only {completed}/{SOAK_SEEDS} runs completed — recovery is not working"
    );
}

#[test]
fn soak_halt_policy_still_terminates_in_typed_states() {
    let samples = steady_samples(0.5);
    for seed in 100..110 {
        let fp = run_seed(&samples, seed, RecoveryPolicy::Halt);
        assert!(
            matches!(fp.outcome, "completed" | "halted"),
            "seed {seed}: halt policy produced {}",
            fp.outcome
        );
        // Halt never restarts anything.
        assert_eq!(fp.restarts, 0, "seed {seed}: halt policy restarted");
    }
}

#[test]
fn soak_degrade_policy_never_restarts_critical_coroutines() {
    let samples = steady_samples(0.5);
    for seed in 200..210 {
        let fp = run_seed(&samples, seed, RecoveryPolicy::DegradeToMonitorOnly);
        assert!(
            matches!(fp.outcome, "completed" | "degraded"),
            "seed {seed}: degrade policy produced {}",
            fp.outcome
        );
    }
}

/// A clonable in-memory writer so the NDJSON bytes survive the sink.
#[derive(Clone, Default)]
struct Buf(Rc<RefCell<Vec<u8>>>);

impl std::io::Write for Buf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.borrow_mut().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn traced_run(samples: &[i32], seed: u64) -> Vec<u8> {
    let buf = Buf::default();
    let shared = SharedSink::new(NdjsonSink::new(buf.clone()));
    let mut sys = System::new(samples.to_vec()).expect("system construction");
    sys.set_shared_sink(&shared);
    let shape = PlanShape::for_iterations(samples.len() as u64);
    let _chaos = sys.enable_chaos(FaultPlan::seeded(seed, &shape, FAULTS_PER_SEED));
    let _ = sys.run_supervised(WatchdogConfig::default());
    let bytes = buf.0.borrow().clone();
    bytes
}

#[test]
fn replayed_seeds_emit_byte_identical_ndjson_traces() {
    let samples = steady_samples(0.5);
    for seed in [3u64, 7, 11] {
        let a = traced_run(&samples, seed);
        let b = traced_run(&samples, seed);
        assert!(!a.is_empty(), "seed {seed}: empty trace");
        assert_eq!(a, b, "seed {seed}: NDJSON replay differs");
        // The trace must actually record injections for these plans.
        let text = String::from_utf8(a).expect("NDJSON is UTF-8");
        assert!(
            text.lines().any(|l| l.contains(r#""ev":"fault""#)),
            "seed {seed}: no fault events in trace"
        );
    }
}

/// The CLI's `--policy rollback` setting (`zarf chaos`).
const CLI_ROLLBACK: RecoveryPolicy = RecoveryPolicy::RollbackToCheckpoint {
    interval: 8,
    max_rollbacks: 4,
};

/// Per seed: outcome, detections, restarts, rollbacks, CRC-32 of the
/// NDJSON trace, CRC-32 of the pace log (little-endian words).
type Pin = (&'static str, usize, u32, u32, u32, u32);

fn pinned_run(samples: &[i32], seed: u64, policy: RecoveryPolicy) -> Pin {
    let buf = Buf::default();
    let shared = SharedSink::new(NdjsonSink::new(buf.clone()));
    let mut sys = System::new(samples.to_vec()).expect("system construction");
    sys.set_shared_sink(&shared);
    let shape = PlanShape::for_iterations(samples.len() as u64);
    let _chaos = sys.enable_chaos(FaultPlan::seeded(seed, &shape, FAULTS_PER_SEED));
    let outcome = sys.run_supervised(WatchdogConfig {
        policy,
        ..WatchdogConfig::default()
    });
    let (pace_log, restarts, rollbacks) = match &outcome {
        SupervisedOutcome::Completed(r) => (&r.system.pace_log, r.restarts, r.rollbacks),
        SupervisedOutcome::Degraded(r) | SupervisedOutcome::Halted(r) => {
            (&r.pace_log, r.restarts, r.rollbacks)
        }
    };
    let pace: Vec<u8> = pace_log.iter().flat_map(|w| w.to_le_bytes()).collect();
    let trace = buf.0.borrow();
    (
        outcome.name(),
        outcome.detections().len(),
        restarts,
        rollbacks,
        crc32(&[&trace]),
        crc32(&[&pace]),
    )
}

const RESTART_PINS: [Pin; 16] = [
    ("completed", 2, 2, 0, 0x48d50979, 0xec8c9047),
    ("completed", 2, 2, 0, 0xd3a62910, 0x5686b000),
    ("degraded", 3, 2, 0, 0xffea0a59, 0x78bcfeaa),
    ("degraded", 1, 0, 0, 0x0747d5b5, 0x46a879b2),
    ("completed", 1, 1, 0, 0x761d2d4a, 0x8ea05d8c),
    ("completed", 0, 0, 0, 0x91405f8a, 0x7e14f51f),
    ("completed", 0, 0, 0, 0x750e671e, 0x488c5c59),
    ("completed", 1, 1, 0, 0x56f198ea, 0x8ea05d8c),
    ("degraded", 3, 2, 0, 0x55534e82, 0x1c26277a),
    ("completed", 1, 1, 0, 0x946603c0, 0x2db60f67),
    ("completed", 1, 1, 0, 0xc1f96086, 0x1e50b299),
    ("completed", 0, 0, 0, 0x8cc7be5b, 0x5686b000),
    ("degraded", 2, 1, 0, 0x2d10344d, 0x5a8c5697),
    ("completed", 1, 1, 0, 0x5849e4fb, 0x6a611f0d),
    ("completed", 2, 2, 0, 0x32342492, 0x5686b000),
    ("completed", 0, 0, 0, 0xe6becc40, 0x64e3f971),
];

const HALT_PINS: [Pin; 16] = [
    ("halted", 1, 0, 0, 0x79de484c, 0xf288b395),
    ("halted", 1, 0, 0, 0xdbb02eb4, 0x6206a150),
    ("halted", 1, 0, 0, 0xceb3268f, 0x700a059c),
    ("halted", 1, 0, 0, 0x2ffffeab, 0xf1e4c385),
    ("halted", 1, 0, 0, 0x29be1bcd, 0xf3b5710d),
    ("completed", 0, 0, 0, 0x91405f8a, 0x7e14f51f),
    ("completed", 0, 0, 0, 0x750e671e, 0x488c5c59),
    ("halted", 1, 0, 0, 0xa6891028, 0x40ad7fde),
    ("halted", 1, 0, 0, 0x9f61edc0, 0x8324661c),
    ("halted", 1, 0, 0, 0xf1f75225, 0x3bb64489),
    ("halted", 1, 0, 0, 0x9e125154, 0x6ab6b2d5),
    ("completed", 0, 0, 0, 0x8cc7be5b, 0x5686b000),
    ("halted", 1, 0, 0, 0x0574e138, 0x7587c587),
    ("halted", 1, 0, 0, 0xbb19910a, 0x201d0a74),
    ("halted", 1, 0, 0, 0x892ca3e0, 0x0fc2bb52),
    ("completed", 0, 0, 0, 0xe6becc40, 0x64e3f971),
];

const DEGRADE_PINS: [Pin; 16] = [
    ("degraded", 1, 0, 0, 0x2a88807b, 0xc000d52a),
    ("degraded", 1, 0, 0, 0x5e9bfdef, 0x46a879b2),
    ("degraded", 1, 0, 0, 0xaf85b2ec, 0xc000d52a),
    ("degraded", 1, 0, 0, 0x0747d5b5, 0x46a879b2),
    ("degraded", 1, 0, 0, 0x08466ffd, 0x46a879b2),
    ("completed", 0, 0, 0, 0x91405f8a, 0x7e14f51f),
    ("completed", 0, 0, 0, 0x750e671e, 0x488c5c59),
    ("degraded", 1, 0, 0, 0x06710a04, 0x46a879b2),
    ("degraded", 1, 0, 0, 0x25e087c1, 0xc000d52a),
    ("degraded", 1, 0, 0, 0x90e1cb22, 0x7ba902d0),
    ("degraded", 1, 0, 0, 0xe4f0fc0d, 0xc000d52a),
    ("completed", 0, 0, 0, 0x8cc7be5b, 0x5686b000),
    ("degraded", 1, 0, 0, 0xe9742af9, 0x5a8c5697),
    ("degraded", 1, 0, 0, 0x46d68db5, 0x1302c558),
    ("degraded", 1, 0, 0, 0xd19957d8, 0xc000d52a),
    ("completed", 0, 0, 0, 0xe6becc40, 0x64e3f971),
];

const ROLLBACK_PINS: [Pin; 16] = [
    ("completed", 4, 0, 4, 0xb88729cb, 0xbd3b209f),
    ("completed", 2, 0, 2, 0x92495dc5, 0x5686b000),
    ("completed", 1, 0, 1, 0x508f5333, 0x9efeb8e1),
    ("completed", 2, 0, 2, 0x3a1f57d9, 0x5686b000),
    ("completed", 1, 0, 1, 0xa7a8bd53, 0x8ea05d8c),
    ("completed", 0, 0, 0, 0x96d6e99d, 0x7e14f51f),
    ("completed", 0, 0, 0, 0x3a1d70ba, 0x488c5c59),
    ("completed", 1, 0, 1, 0x2acc51a6, 0x8ea05d8c),
    ("completed", 1, 0, 1, 0xecf72b27, 0x080d6d47),
    ("completed", 1, 0, 1, 0x8cf81541, 0x2db60f67),
    ("completed", 2, 0, 2, 0x8d58045c, 0x8b878a34),
    ("completed", 0, 0, 0, 0x89789f69, 0x5686b000),
    ("completed", 1, 0, 1, 0x62426f96, 0x5686b000),
    ("completed", 1, 0, 1, 0xf3e01fae, 0x6a611f0d),
    ("completed", 1, 0, 1, 0x83c22429, 0x5686b000),
    ("completed", 0, 0, 0, 0x2615fc30, 0x64e3f971),
];

/// Seeds 1..=16 under every policy must reproduce the outcome,
/// counters and trace and pace-log bytes recorded before the watchdog's
/// recovery ladder was consolidated. Unlike the replay tests above, this
/// pins behaviour across code changes, not just across two runs.
#[test]
fn supervised_runs_match_their_pinned_traces() {
    let samples = steady_samples(1.0);
    for (policy, pins) in [
        (RecoveryPolicy::RestartCoroutine, &RESTART_PINS),
        (RecoveryPolicy::Halt, &HALT_PINS),
        (RecoveryPolicy::DegradeToMonitorOnly, &DEGRADE_PINS),
        (CLI_ROLLBACK, &ROLLBACK_PINS),
    ] {
        for (seed, want) in (1..=16u64).zip(pins) {
            let got = pinned_run(&samples, seed, policy);
            assert_eq!(got, *want, "{} seed {seed}", policy.name());
        }
    }
}
