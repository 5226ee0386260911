//! `zarf-symex`: path-sensitive symbolic execution with concrete
//! counterexample witnesses over λ-binaries.
//!
//! The shape analysis (`zarf-verify`) over-approximates: its value-fault
//! and unreachable-arm *warnings* may be false alarms. This crate decides
//! them. For each [`VetQuery`] it produces one of:
//!
//! * **`witness=<inputs>`** — a concrete input vector
//!   ([`zarf_testkit::replay::WitnessSpec`]) that replays on the
//!   reference interpreter to the exact warned fault code (or reaches
//!   the supposedly unreachable arm);
//! * **`proved-spurious`** / **`confirmed-unreachable`** — every path
//!   exhibiting the warned behavior was proved unsatisfiable under a
//!   complete exploration of the vet contract's input envelope;
//! * **`undecided(<markers>)`** — typed [`Incompleteness`] markers
//!   explaining exactly which budget or abstraction boundary was hit.
//!
//! The pipeline, one module per stage:
//!
//! | module | role |
//! |---|---|
//! | [`term`] | hash-consed symbolic integer terms, each stored once with its operands inline: the index keys on a `Copy` key and variables bypass it |
//! | [`value`] | symbolic values, cheap to clone (integers inline, constructor fields and applied prefixes in one shared slice), shape keys, canonicalization |
//! | [`solve`] | in-repo solver and the crate's one feasibility oracle (interval propagation on the shared `zarf_verify::interval` lattice, congruence hints, model search) — no external SMT |
//! | [`budget`] | typed exploration budgets and incompleteness markers |
//! | [`summary`] | compositional per-function summaries, memoized by argument shape |
//! | [`exec`] | the path-sensitive executor, mirroring the evaluator op-for-op; forks partition the inputs, none is dropped as infeasible, and forks share the copy-on-write set of case arms taken; every step pushes its results into its caller's buffer |
//! | [`seed`] | entry envelopes instantiated from the shape analysis |
//! | [`witness`] | producer pools, witness assembly, replay validation, spuriousness proofs |
//! | [`report`] | per-query verdicts and run statistics |
//!
//! Everything is bounded: [`decide`] terminates on every program,
//! including divergent ones.

#![forbid(unsafe_code)]

pub mod budget;
pub mod exec;
pub mod report;
pub mod seed;
pub mod solve;
pub mod summary;
pub mod term;
pub mod value;
pub mod witness;

use std::collections::BTreeSet;

use zarf_asm::lift;
use zarf_core::machine::MProgram;
use zarf_verify::queries::VetQuery;
use zarf_verify::shape::{EntryModel, ShapeReport};

pub use budget::{Incompleteness, SymexBudget};
pub use report::{QueryVerdict, Status, SymexReport, SymexStats};
pub use zarf_testkit::replay::{replay_witness, WArg, WitnessSpec};

use exec::Exec;
use witness::{build_pool, envelope_check, search_witness, Pool};

/// Decide a batch of vet queries over one program.
///
/// The term store, summary cache, and producer pool are shared across the
/// whole batch, so repeated argument shapes hit the memoized summaries
/// ([`SymexStats::summary_hits`]). The shape `report` must come from the
/// same program; its entry model selects the exploration contract.
pub fn decide(
    program: &MProgram,
    report: &ShapeReport,
    queries: &[VetQuery],
    budget: SymexBudget,
) -> SymexReport {
    let named = lift(program).ok();
    let mut ex = Exec::new(program, budget);
    let pool = match (report.model, &named) {
        (EntryModel::Service, Some(_)) if !queries.is_empty() => build_pool(&mut ex),
        _ => Pool::default(),
    };
    let mut verdicts = Vec::with_capacity(queries.len());
    for q in queries {
        let status = decide_one(&mut ex, named.as_ref(), report, q, &pool);
        verdicts.push(QueryVerdict {
            query: q.clone(),
            status,
        });
    }
    let stats = SymexStats {
        queries: queries.len(),
        paths: ex.total_paths,
        steps: ex.total_steps,
        terms: ex.store.len(),
        summary_hits: ex.summaries.hits,
        summary_misses: ex.summaries.misses,
        pool: pool.entries.len(),
    };
    SymexReport { verdicts, stats }
}

fn decide_one(
    ex: &mut Exec,
    named: Option<&zarf_core::Program>,
    report: &ShapeReport,
    q: &VetQuery,
    pool: &Pool,
) -> Status {
    let mut flags: BTreeSet<Incompleteness> = BTreeSet::new();
    match named {
        Some(p) => {
            let ws = search_witness(ex, p, report.model, q, pool);
            if let Some(spec) = ws.spec {
                return Status::Witnessed(spec);
            }
            if ws.inconclusive {
                flags.insert(Incompleteness::SolverInconclusive);
            }
            if ws.unrealized {
                flags.insert(Incompleteness::WitnessUnrealized);
            }
        }
        None => {
            flags.insert(Incompleteness::LiftFailed);
        }
    }
    // A clean envelope proof stands on its own soundness argument; the
    // witness-phase flags only annotate an undecided verdict.
    match envelope_check(ex, report, q) {
        Status::Undecided(mut inc) => {
            inc.extend(flags);
            Status::Undecided(inc)
        }
        s => s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zarf_asm::{lower, parse};
    use zarf_verify::queries::warning_queries;
    use zarf_verify::shape::analyze_shapes;

    fn machine(src: &str) -> MProgram {
        lower(&parse(src).unwrap()).unwrap()
    }

    #[test]
    fn decide_witnesses_and_discharges_in_one_batch() {
        // `risky` really faults (witness); `safe` cannot (spurious).
        let m = machine(
            "fun risky p =\n let x = div 10 p in\n result x\n\
             fun safe p =\n case p of\n | 0 => result 0\n else let x = div 10 p in\n result x\n\
             fun main =\n result 0\n",
        );
        let r = analyze_shapes(&m, EntryModel::Service).unwrap();
        let queries = warning_queries(&m, &r);
        assert!(queries.len() >= 2, "{queries:?}");
        let rep = decide(&m, &r, &queries, SymexBudget::default());
        assert_eq!(rep.verdicts.len(), queries.len());
        let risky = rep
            .verdicts
            .iter()
            .find(|v| v.query.label == "risky")
            .unwrap();
        assert!(
            matches!(risky.status, Status::Witnessed(_)),
            "{:?}",
            risky.status
        );
        let safe = rep
            .verdicts
            .iter()
            .find(|v| v.query.label == "safe")
            .unwrap();
        assert_eq!(safe.status, Status::Spurious);
        assert!(rep.witnesses() >= 1);
        assert!(rep.discharged() >= 1);
        assert!(rep.stats.paths > 0 && rep.stats.steps > 0);
    }

    #[test]
    fn standalone_batch_decides_via_main() {
        let m = machine("fun main =\n let x = getint 2 in\n let y = mod 100 x in\n result y\n");
        let r = analyze_shapes(&m, EntryModel::Standalone).unwrap();
        let queries = warning_queries(&m, &r);
        assert!(!queries.is_empty());
        let rep = decide(&m, &r, &queries, SymexBudget::default());
        let v = &rep.verdicts[0];
        match &v.status {
            Status::Witnessed(spec) => {
                assert_eq!(spec.entry, "main");
                assert!(!spec.port_feed.is_empty());
            }
            s => panic!("mod-by-zero should be witnessed through the port feed: {s:?}"),
        }
    }
}
