//! # zarf-bench — experiment harnesses for the paper's evaluation
//!
//! One binary per table/figure of the ASPLOS 2017 evaluation (see
//! `EXPERIMENTS.md` at the workspace root for the index):
//!
//! | binary | regenerates |
//! |---|---|
//! | `table1_resources` | Table 1 — hardware resource usage |
//! | `table2_cpi` | §6 — dynamic CPI per instruction class |
//! | `table3_perf` | §6 — λ-layer vs imperative-core performance |
//! | `table4_wcet` | §5.2 — static WCET + GC bound vs deadline |
//! | `table5_noninterference` | §5.3 — integrity typechecking + dynamic NI |
//! | `fig4_encoding` | Figure 4 — assembly→machine→binary of `map` |
//! | `fig5_ecg_pipeline` | Figure 5 — the ECG filter pipeline |
//!
//! E2's cycle counts are deterministic, so a test pins them exactly; host
//! time is measured by the repository benchmark, `zbench/`.
//!
//! This library holds the shared workload builders and table formatting.

use zarf_icd::signal::{EcgConfig, EcgGen, Rhythm};

/// The evaluation workload: sinus rhythm, an induced VT episode, recovery —
/// `seconds` of it, sampled at 200 Hz, noise-free so runs are reproducible
/// across engines.
pub fn vt_workload(seconds: f64) -> Vec<i32> {
    let cfg = EcgConfig {
        noise: 0,
        ..EcgConfig::default()
    };
    let script = vec![
        Rhythm::Steady {
            bpm: 75.0,
            seconds: 20.0,
        },
        Rhythm::Ramp {
            from_bpm: 75.0,
            to_bpm: 190.0,
            seconds: 4.0,
        },
        Rhythm::Steady {
            bpm: 190.0,
            seconds: 25.0,
        },
        Rhythm::Steady {
            bpm: 80.0,
            seconds: seconds.max(50.0) - 49.0,
        },
    ];
    let mut g = EcgGen::new(cfg, script);
    g.take((seconds * 200.0) as usize)
}

/// A short all-tachycardia workload that reaches therapy quickly (for
/// the cheaper experiment binaries and tests).
pub fn fast_workload(seconds: f64) -> Vec<i32> {
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
    g.take((seconds * 200.0) as usize)
}

/// Print a table row: name, ours, paper reference, unit.
pub fn row(name: &str, ours: impl std::fmt::Display, paper: impl std::fmt::Display, unit: &str) {
    println!("{name:<34} {ours:>14} {paper:>14}  {unit}");
}

/// Print a table header with the standard three columns.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
    println!("{:<34} {:>14} {:>14}", "", "this repo", "paper");
    println!("{}", "-".repeat(70));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_have_expected_length() {
        assert_eq!(vt_workload(60.0).len(), 12_000);
        assert_eq!(fast_workload(5.0).len(), 1_000);
    }

    #[test]
    fn vt_workload_triggers_therapy_in_spec() {
        use zarf_icd::consts::OUT_TREAT_START;
        use zarf_icd::spec::IcdSpec;
        let mut spec = IcdSpec::new();
        let any_treat = vt_workload(60.0)
            .into_iter()
            .any(|x| spec.step(x).word() & OUT_TREAT_START != 0);
        assert!(any_treat);
    }

    /// E2, pinned exactly: `table2_cpi`'s default 240 s trace. The counts
    /// are deterministic, so any drift is a behaviour change, not noise.
    #[test]
    fn e2_cpi_trace_is_pinned_exactly() {
        use zarf_kernel::system::System;
        let mut sys = System::new(vt_workload(240.0)).expect("system boots");
        let s = sys.run().expect("system runs").lambda_stats;
        assert_eq!(s.total_cycles(), 93_446_863);
        assert_eq!(s.instructions(), 7_297_008);
        assert_eq!(s.gc_runs, 48_000);
        assert_eq!(s.gc_cycles, 38_732_147);
    }
}
