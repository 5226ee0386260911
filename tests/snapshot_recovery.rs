//! Resume equivalence: rollback recovery is trace-exact.
//!
//! The contract under test is the strongest one checkpointing can make:
//! after the watchdog rolls the system back to a checkpoint, the NDJSON
//! event stream it emits from the rollback onward is **byte-identical**
//! to what an uninterrupted run emits from the same checkpoint onward.
//! Not "the pacing matches" — every cycle charge, allocation, GC pause,
//! channel word, and checkpoint capture afterwards is the same.

use std::cell::RefCell;
use std::rc::Rc;

use zarf::chaos::{FaultKind, FaultPlan, PlanShape};
use zarf::icd::consts::SAMPLE_HZ;
use zarf::icd::signal::{EcgConfig, EcgGen, Rhythm};
use zarf::kernel::{RecoveryPolicy, SupervisedOutcome, System, WatchdogConfig};
use zarf::trace::{NdjsonSink, SharedSink};

const INTERVAL: u64 = 8;

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

fn rollback_config() -> WatchdogConfig {
    WatchdogConfig {
        policy: RecoveryPolicy::RollbackToCheckpoint {
            interval: INTERVAL,
            max_rollbacks: 4,
        },
        ..WatchdogConfig::default()
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

/// Run the supervised system under the rollback policy, optionally with a
/// fault plan, and return (NDJSON text, outcome name, rollbacks).
fn traced_rollback_run(samples: &[i32], plan: Option<FaultPlan>) -> (String, &'static str, u32) {
    let buf = Buf::default();
    let shared = SharedSink::new(NdjsonSink::new(buf.clone()));
    let mut sys = System::new(samples.to_vec()).expect("system construction");
    sys.set_shared_sink(&shared);
    if let Some(plan) = plan {
        sys.enable_chaos(plan);
    }
    let outcome = sys.run_supervised(rollback_config());
    let rollbacks = match &outcome {
        SupervisedOutcome::Completed(r) => r.rollbacks,
        SupervisedOutcome::Degraded(r) | SupervisedOutcome::Halted(r) => r.rollbacks,
    };
    let text = String::from_utf8(buf.0.borrow().clone()).expect("NDJSON is UTF-8");
    (text, outcome.name(), rollbacks)
}

/// Extract the integer field `"name":N` from one NDJSON line.
fn int_field(line: &str, name: &str) -> u64 {
    let key = format!("\"{name}\":");
    let start = line.find(&key).expect("field present") + key.len();
    line[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .expect("integer field")
}

/// The lines strictly after the last line matching `pred`.
fn suffix_after<'a>(lines: &[&'a str], pred: impl Fn(&str) -> bool) -> Vec<&'a str> {
    let idx = lines
        .iter()
        .rposition(|l| pred(l))
        .expect("marker line present");
    lines[idx + 1..].to_vec()
}

#[test]
fn resume_from_rollback_is_byte_identical_to_uninterrupted_run() {
    let samples = steady_samples(0.5);
    let iterations = samples.len() as u64;
    let (clean_text, clean_outcome, _) = traced_rollback_run(&samples, None);
    assert_eq!(clean_outcome, "completed");
    let clean_lines: Vec<&str> = clean_text.lines().collect();

    // Twelve distinct single-fault scenarios: a one-cycle fuel cut at
    // coroutine call slot `c + 4k` (coroutine c of iteration k), spread
    // across all three critical coroutines and across checkpoint windows.
    for seed in 1u64..=12 {
        let k = 1 + (seed * 5) % (iterations.saturating_sub(2) / 2);
        let c = 1 + (seed % 3);
        let op = c + 4 * k;
        let (text, outcome, rollbacks) = traced_rollback_run(
            &samples,
            Some(FaultPlan::new().schedule(op, FaultKind::FuelCut { cycles: 1 })),
        );
        assert_eq!(
            outcome, "completed",
            "seed {seed}: fuel cut at op {op} did not recover"
        );
        assert!(rollbacks >= 1, "seed {seed}: no rollback happened");

        let lines: Vec<&str> = text.lines().collect();
        let rb = |l: &str| l.contains(r#""ev":"ckpt_rollback""#);
        let target = int_field(
            lines
                .iter()
                .rfind(|l| rb(l))
                .expect("rollback event present"),
            "to",
        );
        let faulted_suffix = suffix_after(&lines, rb);
        let clean_suffix = suffix_after(&clean_lines, |l| {
            l.contains(r#""ev":"ckpt_capture""#) && int_field(l, "iteration") == target
        });
        assert!(
            !faulted_suffix.is_empty(),
            "seed {seed}: nothing after the rollback"
        );
        assert_eq!(
            faulted_suffix, clean_suffix,
            "seed {seed}: post-rollback trace diverges from the uninterrupted run \
             (rolled back to iteration {target})"
        );
    }
}

#[test]
fn rollback_soak_replays_byte_identically_under_seeded_plans() {
    // Seeded plans now draw from the snapshot site too, so this soaks
    // bit-flips inside checkpoint windows alongside every other fault
    // kind — and demands exact replay of whatever happens.
    let samples = steady_samples(0.5);
    let shape = PlanShape::for_iterations(samples.len() as u64);
    for seed in 300u64..310 {
        let plan = || FaultPlan::seeded(seed, &shape, 8);
        let (a, outcome_a, _) = traced_rollback_run(&samples, Some(plan()));
        let (b, outcome_b, _) = traced_rollback_run(&samples, Some(plan()));
        assert!(
            matches!(outcome_a, "completed" | "degraded" | "halted"),
            "seed {seed}: untyped outcome {outcome_a}"
        );
        assert_eq!(
            outcome_a, outcome_b,
            "seed {seed}: outcome not reproducible"
        );
        assert_eq!(a, b, "seed {seed}: NDJSON replay differs");
    }
}

#[test]
fn corrupted_checkpoint_window_still_recovers_exactly() {
    // Rot the iteration-8 checkpoint, then starve the ICD coroutine at
    // iteration 10: recovery must reach past the rotten checkpoint to the
    // iteration-0 one and still converge on the clean run's suffix.
    let samples = steady_samples(0.5);
    let (clean_text, _, _) = traced_rollback_run(&samples, None);
    let clean_lines: Vec<&str> = clean_text.lines().collect();

    let plan = FaultPlan::new()
        .schedule(
            1,
            FaultKind::SnapshotCorrupt {
                byte: 4_242,
                bit: 5,
            },
        )
        .schedule(2 + 4 * 10, FaultKind::FuelCut { cycles: 1 });
    let (text, outcome, rollbacks) = traced_rollback_run(&samples, Some(plan));
    assert_eq!(outcome, "completed");
    assert_eq!(rollbacks, 1);
    let lines: Vec<&str> = text.lines().collect();
    assert!(
        lines.iter().any(|l| l.contains(r#""ev":"audit_fail""#)),
        "corruption must be audit-logged"
    );
    let rb = |l: &str| l.contains(r#""ev":"ckpt_rollback""#);
    let target = int_field(lines.iter().rfind(|l| rb(l)).expect("rollback"), "to");
    assert_eq!(target, 0, "must reach past the rotten checkpoint");
    let faulted_suffix = suffix_after(&lines, rb);
    let clean_suffix = suffix_after(&clean_lines, |l| {
        l.contains(r#""ev":"ckpt_capture""#) && int_field(l, "iteration") == 0
    });
    assert_eq!(faulted_suffix, clean_suffix);
}
