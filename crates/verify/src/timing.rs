//! End-to-end timing verification of the shipped system (paper §5.2).
//!
//! Combines the static WCET of one microkernel iteration with the GC bound
//! to decide the real-time claim: "the worst execution of the entire loop
//! is 4,686 cycles … garbage collection is bounded by a worst-case of 4,379
//! cycles, making a total of 9,065 cycles — or 181.3 µs on our
//! FPGA-synthesized prototype running at 50 MHz, falling well within the
//! real-time deadline of 5 ms."
//!
//! Our extracted ICD differs in code size from the authors', so the
//! absolute numbers differ; what must (and does) hold is the *shape*: the
//! static bound dominates every observed iteration, and the total sits far
//! inside the 5 ms deadline. The E4 experiment binary prints both sets of
//! numbers side by side.

use zarf_hw::CostModel;
use zarf_kernel::program::{kernel_machine, KERNEL_LOOP_FN};

use crate::wcet::{find_id, gc_bound, iteration_wcet, state_bound, AllocBound, WcetError};

/// The λ-layer clock from the paper's prototype: 50 MHz (20 ns cycles).
pub const CLOCK_HZ: u64 = 50_000_000;

/// The hard real-time deadline: one 200 Hz sample period (5 ms).
pub const DEADLINE_US: u64 = 5_000;

/// The deadline expressed in λ-layer cycles (250,000).
pub const DEADLINE_CYCLES: u64 = DEADLINE_US * (CLOCK_HZ / 1_000_000);

/// The complete timing verdict for one kernel iteration.
#[derive(Debug, Clone)]
pub struct TimingReport {
    /// Static WCET of the loop body (mutator work), in cycles.
    pub loop_wcet: u64,
    /// Static bound on the per-iteration collection, in cycles.
    pub gc_bound: u64,
    /// Worst-case allocation of one iteration.
    pub iteration_alloc: AllocBound,
    /// Assumed persistent live state (the ICD state tree).
    pub persistent: AllocBound,
}

impl TimingReport {
    /// Total worst-case cycles per iteration.
    pub fn total_cycles(&self) -> u64 {
        self.loop_wcet + self.gc_bound
    }

    /// Worst-case iteration time in microseconds at the prototype clock.
    pub fn total_us(&self) -> f64 {
        self.total_cycles() as f64 * 1e6 / CLOCK_HZ as f64
    }

    /// Whether the iteration provably meets the 5 ms deadline.
    pub fn meets_deadline(&self) -> bool {
        self.total_cycles() <= DEADLINE_CYCLES
    }

    /// How many times faster than required the worst case is (the paper
    /// reports "over 25 times faster than it needs to be").
    pub fn deadline_margin(&self) -> f64 {
        DEADLINE_CYCLES as f64 / self.total_cycles() as f64
    }
}

/// The persistent live set: every node of the ICD state tree (`IcdSt` and
/// its children), plus a small allowance for the scheduler's in-flight
/// values (the result pair, the output word, the diag accumulator).
pub fn kernel_persistent_state() -> AllocBound {
    state_bound(&[
        7, // IcdSt
        4, 8, 4, // LpSt, Oct, Quad
        5, 8, 8, 8, 8, // HpSt, 4 × Oct
        4, // Quad (derivative)
        5, 8, 8, 8, 6, // MwSt, 3 × Oct, Six
        5, // DetSt
        3, 8, 8, 8, // RrSt, 3 × Oct
        5, // AtpSt
        2, 2, 2, 2, // scheduler slack: Pair, out, acc, misc thunks
    ])
}

/// Statically analyze one iteration of the shipped kernel.
pub fn kernel_timing(cost: &CostModel) -> Result<TimingReport, WcetError> {
    let machine = kernel_machine();
    let loop_id = find_id(&machine, KERNEL_LOOP_FN).expect("kernel machine retains symbols");
    let report = iteration_wcet(&machine, cost, loop_id)?;
    let persistent = kernel_persistent_state();
    let gc = gc_bound(&report.alloc, &persistent, cost);
    Ok(TimingReport {
        loop_wcet: report.cycles,
        gc_bound: gc,
        iteration_alloc: report.alloc,
        persistent,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_constant_matches_paper() {
        assert_eq!(DEADLINE_CYCLES, 250_000);
    }

    /// E4 (static half): the kernel's call graph is iteration-acyclic and
    /// the bound is comfortably inside the 5 ms deadline.
    #[test]
    fn kernel_iteration_meets_deadline() {
        let t = kernel_timing(&CostModel::default()).unwrap();
        // EXPERIMENTS.md E4's two static bounds, exactly.
        assert_eq!(t.loop_wcet, 2_951);
        assert_eq!(t.gc_bound, 2_621);
        assert!(
            t.meets_deadline(),
            "WCET {} cycles exceeds the deadline",
            t.total_cycles()
        );
        // The paper reports a margin over 25×; ours should be at least
        // that order (the extracted code is comparable in size).
        assert!(
            t.deadline_margin() > 10.0,
            "margin {} suspiciously small",
            t.deadline_margin()
        );
        // And the bound should not be trivially loose either: worst case
        // under 100k cycles for a ~150-instruction iteration.
        assert!(
            t.total_cycles() < 100_000,
            "bound {} looks unsound(ly loose)",
            t.total_cycles()
        );
    }

    /// The kernel's literal iteration bound, which sizes the watchdog's and
    /// the fleet's fuel budgets, must cover the bound computed here.
    #[test]
    fn kernel_wcet_literal_covers_the_computed_bound() {
        let t = kernel_timing(&CostModel::default()).unwrap();
        assert!(
            t.loop_wcet + t.gc_bound <= zarf_kernel::WCET_ITERATION_CYCLES,
            "computed bound {} + {} exceeds the kernel's {} cycles",
            t.loop_wcet,
            t.gc_bound,
            zarf_kernel::WCET_ITERATION_CYCLES
        );
    }

    /// E4 (dynamic half): the static bound dominates observed executions.
    #[test]
    fn static_bound_dominates_dynamic_average() {
        use zarf_icd::signal::{EcgConfig, EcgGen, Rhythm};
        use zarf_kernel::system::System;

        let t = kernel_timing(&CostModel::default()).unwrap();
        let cfg = EcgConfig {
            noise: 0,
            ..EcgConfig::default()
        };
        let mut g = EcgGen::new(
            cfg,
            vec![Rhythm::Steady {
                bpm: 190.0,
                seconds: 4.0,
            }],
        );
        let samples = g.take(800);
        let n = samples.len() as u64;
        let mut sys = System::new(samples).unwrap();
        let report = sys.run().unwrap();
        let avg_mutator = report.lambda_stats.mutator_cycles() / n;
        let avg_gc = report.lambda_stats.gc_cycles / n;
        assert!(
            t.loop_wcet >= avg_mutator,
            "static {} < dynamic average {}",
            t.loop_wcet,
            avg_mutator
        );
        assert!(
            t.gc_bound >= avg_gc,
            "static GC bound {} < dynamic average {}",
            t.gc_bound,
            avg_gc
        );
    }
}
