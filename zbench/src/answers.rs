//! Known answers every workload is checked against.
//!
//! The λ-machine is deterministic, so the modeled counts of the E2 run and
//! the analysis verdicts repeat exactly; any drift is a wrong answer, not
//! noise. The fleet workloads' answers (running sums, `IcdSpec` pacing
//! words) are computed from their seeded inputs where they are checked.

/// Symbolic-execution verdict counts for one vet run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decided {
    pub witnesses: usize,
    pub discharged: usize,
    pub undecided: usize,
}

const fn d(witnesses: usize, discharged: usize, undecided: usize) -> Decided {
    Decided {
        witnesses,
        discharged,
        undecided,
    }
}

#[derive(Debug, Clone)]
pub struct Answers {
    /// E2 (`table2_cpi`): λ-cycles of `System::new(vt_workload(240)).run()`.
    pub sim_cycles: u64,
    /// E2: retired λ-instructions.
    pub sim_instructions: u64,
    /// E2: collections (one per iteration).
    pub sim_gc_runs: u64,
    /// E4: static loop WCET of one kernel iteration.
    pub e4_loop_wcet: u64,
    /// E4: static GC bound of one kernel iteration.
    pub e4_gc_bound: u64,
    /// `zarf vet --risc @monitor`: steady-state cycle bound.
    pub monitor_steady: u64,
    /// `zarf vet --risc @chanmon`: steady-state cycle bound.
    pub chanmon_steady: u64,
    /// `zarf vet --symex` verdicts: (image, standalone, service).
    pub symex: [(&'static str, Decided, Decided); 3],
}

impl Default for Answers {
    fn default() -> Answers {
        Answers {
            sim_cycles: 93_446_863,
            sim_instructions: 7_297_008,
            sim_gc_runs: 48_000,
            e4_loop_wcet: 2_951,
            e4_gc_bound: 2_621,
            monitor_steady: 1_110,
            chanmon_steady: 21,
            symex: [
                ("icd", d(0, 0, 0), d(1, 0, 0)),
                ("kernel", d(0, 0, 0), d(4, 1, 0)),
                ("session", d(0, 0, 0), d(4, 1, 0)),
            ],
        }
    }
}
