//! `icd_sim`: the E2 `table2_cpi` run, `System::new(vt_workload(240)).run()`.
//!
//! Why: it is the only workload for `zarf-kernel`'s two-layer `System` and
//! the imperative core. λ interpretation and GC are almost all of its time;
//! the fleet, store and analyses are absent. It is the number a decision on
//! a second, translating engine depends on.
//!
//! The E2 trace is fixed (its cycle counts are a published known answer),
//! so the seed does not change this workload's input.

use std::time::Instant;

use zarf_core::VecPorts;
use zarf_hw::{HValue, Hw, HwConfig};
use zarf_icd::IcdSpec;
use zarf_kernel::program::{PORT_CHANNEL_STATUS, PORT_ECG, PORT_TIMER};
use zarf_kernel::system::{System, SystemReport};

use crate::answers::Answers;
use crate::metrics::Outcome;
use crate::stats::{setup_time, Summary};
use crate::trace::{breakdown, Tracer};
use crate::Config;

/// Seconds of ECG in the E2 run.
const ECG_SECONDS: f64 = 240.0;
/// Set-ups (about 1 ms each) timed before the first run and after each
/// run, so set-up is sampled across the whole run; the 10th percentile is
/// reported.
const SETUPS_PER_BURST: usize = 10;

/// Time `SETUPS_PER_BURST` set-ups. A set-up is what `table2_cpi` does
/// before its run: build the E2 trace and boot the system on it.
fn timed_setups(setups: &mut Vec<f64>) {
    for _ in 0..SETUPS_PER_BURST {
        let t = Instant::now();
        let sys = System::new(zarf_bench::vt_workload(ECG_SECONDS)).expect("system boots");
        setups.push(t.elapsed().as_secs_f64());
        drop(sys);
    }
}

/// The modeled counts of one run, compared exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimCounts {
    pub cycles: u64,
    pub instructions: u64,
    pub gc_runs: u64,
}

/// Compare one run's counts and pace log with the known answers.
pub fn check_run(counts: SimCounts, pace_ok: bool, answers: &Answers, out: &mut Outcome) {
    out.check(counts.cycles == answers.sim_cycles, || {
        format!("E2 cycles {} != {}", counts.cycles, answers.sim_cycles)
    });
    out.check(counts.instructions == answers.sim_instructions, || {
        format!(
            "E2 instructions {} != {}",
            counts.instructions, answers.sim_instructions
        )
    });
    out.check(counts.gc_runs == answers.sim_gc_runs, || {
        format!("E2 GC runs {} != {}", counts.gc_runs, answers.sim_gc_runs)
    });
    out.check(pace_ok, || "E2 pace log differs from IcdSpec".into());
}

/// The pace log the reference `IcdSpec` predicts: entry 0 is the boot
/// value, entry `i` the output word of iteration `i - 1`.
fn expected_pace(samples: &[i32]) -> Vec<i32> {
    let mut spec = IcdSpec::new();
    let mut log = vec![0];
    log.extend(samples.iter().map(|&x| spec.step(x).word()));
    log.truncate(samples.len());
    log
}

fn counts(r: &SystemReport) -> SimCounts {
    SimCounts {
        cycles: r.lambda_stats.total_cycles(),
        instructions: r.lambda_stats.instructions(),
        gc_runs: r.lambda_stats.gc_runs,
    }
}

pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let samples = zarf_bench::vt_workload(ECG_SECONDS);
    let want_pace = expected_pace(&samples);
    let iterations = samples.len() as f64;

    if cfg.trace {
        return traced(cfg, &samples, &want_pace, out);
    }

    // Warm-up: one untimed run (page faults, allocator growth).
    let mut sys = System::new(samples.clone()).expect("system boots");
    drop(sys.run());

    let mut setups = Vec::new();
    timed_setups(&mut setups);
    let mut runs_ms = Vec::new();
    let started = Instant::now();
    while runs_ms.len() < 3 || started.elapsed().as_secs_f64() < cfg.seconds {
        let mut sys = System::new(samples.clone()).expect("system boots");
        let t = Instant::now();
        let report = sys.run();
        runs_ms.push(t.elapsed().as_secs_f64() * 1e3);
        out.attempted += 1;
        match report {
            Ok(r) => check_run(counts(&r), r.pace_log == want_pace, &cfg.answers, &mut out),
            Err(e) => out.check(false, || format!("E2 run failed: {e}")),
        }
        timed_setups(&mut setups);
    }
    out.set("setup_s", setup_time(&setups));
    let lat = Summary::of(&runs_ms);
    // Every run does the same work (its counts are checked exactly), so
    // the fastest run is the one the host disturbed least.
    out.set("latency_ms", lat.min);
    out.note(format!(
        "icd_sim: E2 run {} ({} simulated 5 ms ticks per run, {:.0} ticks/s at the median run)",
        lat.describe("ms"),
        samples.len(),
        iterations / (lat.p50 / 1e3)
    ));
    out.note(format!(
        "sim_mcycles_per_s {:.3} Mcycles/s at the median run (n = {} runs); setup_s {:.6} s (n = {})",
        cfg.answers.sim_cycles as f64 / 1e3 / lat.p50,
        runs_ms.len(),
        setup_time(&setups),
        setups.len()
    ));
    out
}

/// Traced run: an untraced and a metrics-traced E2 run (the difference is
/// the tracing overhead), then a per-iteration replay of the kernel's
/// session step over the same samples that splits host time between the
/// mutator and the boundary collection.
fn traced(cfg: &Config, samples: &[i32], want_pace: &[i32], mut out: Outcome) -> Outcome {
    let mut tracer = Tracer::new(true);
    let t = Instant::now();
    let mut sys = System::new(samples.to_vec()).expect("system boots");
    let plain = sys.run();
    let plain_s = t.elapsed().as_secs_f64();

    let root = tracer.begin("sim.pass", (0, 0), None);
    let mut sys = tracer.span("sim.setup", (0, 0), root, || {
        System::with_metrics(samples.to_vec()).expect("system boots")
    });
    let report = tracer.span("sim.run", (0, 0), root, || sys.run());
    tracer.end(root);
    let traced_s = tracer.total("sim.pass").0 / 1e9;

    for r in [&plain, &report] {
        out.attempted += 1;
        match r {
            Ok(r) => check_run(counts(r), r.pace_log == want_pace, &cfg.answers, &mut out),
            Err(e) => out.check(false, || format!("E2 run failed: {e}")),
        }
    }
    if let Ok(r) = &report {
        let s = &r.lambda_stats;
        out.set("sim.lambda_cycles", s.total_cycles() as f64);
        out.set("sim.instructions", s.instructions() as f64);
        out.set("sim.cpi", s.cpi());
        out.set("sim.cpi_with_gc", s.cpi_with_gc());
        out.set("sim.gc_cycles", s.gc_cycles as f64);
        out.set("sim.gc_runs", s.gc_runs as f64);
        out.set("sim.cpu_cycles", r.cpu_cycles as f64);
        for (name, cycles) in r.coroutine_cycles() {
            let key = match name {
                "io_step" => "sim.cycles.io",
                "icd_step" => "sim.cycles.icd",
                "chan_step" => "sim.cycles.chan",
                "diag_step" => "sim.cycles.diag",
                _ => continue,
            };
            out.set(key, cycles as f64);
        }
    }
    out.set("trace.overhead_pct", 100.0 * (traced_s - plain_s) / plain_s);
    out.note(format!(
        "icd_sim traced: untraced E2 run {:.3} s, metrics-traced {:.3} s",
        plain_s, traced_s
    ));
    out.notes.extend(breakdown(&tracer, 1, "E2 pass"));

    // Per-iteration replay: the session shell runs the same coroutines
    // one scheduler iteration per call, with the collection at the end.
    let mut replay = Tracer::new(true);
    let img = zarf_kernel::session_image();
    let config = HwConfig {
        gc_auto: false,
        ..HwConfig::default()
    };
    let mut hw = Hw::load_with(&img.words, config).expect("session image loads");
    let mut ports = VecPorts::new();
    let boot = hw
        .call(img.boot, vec![HValue::Int(0)], &mut ports)
        .expect("session boots");
    let slot = hw.push_root(boot);
    let (m0, g0) = (hw.stats().mutator_cycles(), hw.stats().gc_cycles);
    let i0 = hw.stats().instructions();
    let mut replay_ok = true;
    for (i, &x) in samples.iter().enumerate() {
        let key = (0, i as u64);
        ports.push_input(PORT_TIMER, [i as i32]);
        ports.push_input(PORT_ECG, [x]);
        ports.push_input(PORT_CHANNEL_STATUS, [0]);
        let root = replay.begin("iteration", key, None);
        let s = hw.root(slot);
        let v = replay.span("hw.exec", key, root, || {
            hw.call(img.step, vec![s], &mut ports)
        });
        match v {
            Ok(v) => hw.set_root(slot, v),
            Err(_) => replay_ok = false,
        }
        let gc = replay.span("hw.gc", key, root, || hw.collect_garbage());
        replay_ok &= gc.is_ok();
        replay.end(root);
    }
    let pace = ports.output(zarf_kernel::program::PORT_PACE);
    out.attempted += 1;
    out.check(replay_ok && pace == want_pace, || {
        "session-step replay pace words differ from IcdSpec".into()
    });
    let n = samples.len() as f64;
    let exec_ns = replay.total("hw.exec").0;
    let gc_ns = replay.total("hw.gc").0;
    let mutator = (hw.stats().mutator_cycles() - m0) as f64;
    let gc_cycles = (hw.stats().gc_cycles - g0) as f64;
    out.set("sim.mutator_ns_per_iter", exec_ns / n);
    out.set("sim.gc_ns_per_iter", gc_ns / n);
    out.set("hw.exec_ns_per_op", exec_ns / n);
    out.set("hw.gc_ns_per_op", gc_ns / n);
    out.set("hw.cycles_per_op", mutator / n);
    out.set("hw.gc_cycles_per_op", gc_cycles / n);
    out.set(
        "hw.instructions_per_op",
        (hw.stats().instructions() - i0) as f64 / n,
    );
    out.set("hw.ns_per_cycle", exec_ns / mutator.max(1.0));
    out.set("hw.gc_share", gc_ns / (exec_ns + gc_ns));
    let (selfs, root_ns) = replay.self_times();
    out.set("trace.unit_us", root_ns / n / 1e3);
    out.set("trace.self_sum_us", selfs.values().sum::<f64>() / n / 1e3);
    out.set(
        "trace.glue_us",
        selfs.get("iteration").copied().unwrap_or(0.0) / n / 1e3,
    );
    out.set("trace.samples", n);
    out.set("trace.e2e_p50_ms", plain_s * 1e3);
    out.set("trace.e2e_p99_ms", plain_s * 1e3);
    out.notes
        .extend(breakdown(&replay, samples.len(), "iteration"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const KNOWN: SimCounts = SimCounts {
        cycles: 93_446_863,
        instructions: 7_297_008,
        gc_runs: 48_000,
    };

    #[test]
    fn known_counts_pass_the_oracle() {
        let mut out = Outcome::default();
        check_run(KNOWN, true, &Answers::default(), &mut out);
        assert_eq!(out.failed, 0, "{:?}", out.errors);
    }

    #[test]
    fn a_corrupted_answer_makes_the_run_fail() {
        let base = Answers::default();
        let corrupted = [
            Answers {
                sim_cycles: base.sim_cycles + 1,
                ..base.clone()
            },
            Answers {
                sim_instructions: base.sim_instructions + 1,
                ..base.clone()
            },
            Answers {
                sim_gc_runs: base.sim_gc_runs + 1,
                ..base.clone()
            },
        ];
        for answers in &corrupted {
            let mut out = Outcome {
                attempted: 1,
                ..Outcome::default()
            };
            check_run(KNOWN, true, answers, &mut out);
            assert_eq!(out.failed, 1, "{answers:?}");
            assert!(!out.correct());
            assert!(out.json(false).starts_with("{\"correct\": false"));
        }
        let mut out = Outcome::default();
        check_run(KNOWN, false, &base, &mut out);
        assert!(!out.correct(), "a wrong pace log must fail");
    }

    #[test]
    fn expected_pace_is_shifted_by_one_iteration() {
        let samples = zarf_bench::vt_workload(60.0);
        let log = expected_pace(&samples);
        assert_eq!(log.len(), samples.len());
        assert_eq!(log[0], 0);
        let mut spec = IcdSpec::new();
        assert_eq!(log[1], spec.step(samples[0]).word());
    }
}
