//! The symbolic executor's verdict report.

use std::collections::BTreeSet;
use std::fmt;

use zarf_testkit::replay::WitnessSpec;
use zarf_verify::queries::{QueryKind, VetQuery};

use crate::budget::Incompleteness;

/// What the executor decided about one query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Status {
    /// A concrete input vector that replays on the reference interpreter
    /// to the warned behavior — the exact fault code for fault queries,
    /// the supposedly unreachable arm for arm queries.
    Witnessed(WitnessSpec),
    /// Every path exhibiting the warned fault was proved unsatisfiable
    /// under a complete, marker-free envelope: the warning is a false
    /// alarm of the abstraction.
    Spurious,
    /// Arm queries only: the arm was proved unreachable (the dead-code
    /// warning is *confirmed*, not discharged).
    ConfirmedUnreachable,
    /// Neither proof within budget; the markers say what fell short.
    Undecided(BTreeSet<Incompleteness>),
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Status::Witnessed(spec) => write!(f, "witness={spec}"),
            Status::Spurious => write!(f, "proved-spurious"),
            Status::ConfirmedUnreachable => write!(f, "confirmed-unreachable"),
            Status::Undecided(why) => {
                write!(f, "undecided")?;
                let mut first = true;
                for w in why {
                    write!(f, "{}{w}", if first { "(" } else { " " })?;
                    first = false;
                }
                if !first {
                    write!(f, ")")?;
                }
                Ok(())
            }
        }
    }
}

/// One decided query.
#[derive(Debug, Clone)]
pub struct QueryVerdict {
    /// The question asked.
    pub query: VetQuery,
    /// The answer.
    pub status: Status,
}

impl QueryVerdict {
    /// Whether this verdict *discharges* the warning: a spurious fault
    /// warning, or an arm warning whose "unreachable" claim was refuted by
    /// a witness (the arm is live, so the dead-code warning is dropped).
    pub fn discharges(&self) -> bool {
        matches!(
            (&self.query.kind, &self.status),
            (QueryKind::ValueFault(_), Status::Spurious)
                | (QueryKind::UnreachableArm { .. }, Status::Witnessed(_))
        )
    }
}

/// Executor statistics for one `decide` run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SymexStats {
    /// Queries decided.
    pub queries: usize,
    /// Completed symbolic paths across all explorations.
    pub paths: u64,
    /// `let`/`case`/apply steps consumed.
    pub steps: u64,
    /// Distinct terms interned.
    pub terms: usize,
    /// Summary-cache hits (compositional reuse).
    pub summary_hits: u64,
    /// Summary-cache misses (summaries computed).
    pub summary_misses: u64,
    /// Producer values discovered for witness construction.
    pub pool: usize,
}

/// The complete symbolic-execution report.
#[derive(Debug, Clone, Default)]
pub struct SymexReport {
    /// One verdict per input query, in input order.
    pub verdicts: Vec<QueryVerdict>,
    /// Run statistics.
    pub stats: SymexStats,
}

impl SymexReport {
    /// The verdict for a given query, if it was decided.
    pub fn verdict_for(&self, q: &VetQuery) -> Option<&QueryVerdict> {
        self.verdicts.iter().find(|v| &v.query == q)
    }

    /// Fault warnings that received a concrete witness.
    pub fn witnesses(&self) -> usize {
        self.verdicts
            .iter()
            .filter(|v| {
                matches!(v.query.kind, QueryKind::ValueFault(_))
                    && matches!(v.status, Status::Witnessed(_))
            })
            .count()
    }

    /// Warnings discharged (see [`QueryVerdict::discharges`]).
    pub fn discharged(&self) -> usize {
        self.verdicts.iter().filter(|v| v.discharges()).count()
    }

    /// Queries left undecided.
    pub fn undecided(&self) -> usize {
        self.verdicts
            .iter()
            .filter(|v| matches!(v.status, Status::Undecided(_)))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zarf_verify::shape::Fault;

    fn q(kind: QueryKind) -> VetQuery {
        VetQuery {
            function: 0x100,
            label: "main".into(),
            kind,
        }
    }

    #[test]
    fn discharge_rules() {
        let spec = WitnessSpec::default();
        let fault_wit = QueryVerdict {
            query: q(QueryKind::ValueFault(Fault::DivideByZero)),
            status: Status::Witnessed(spec.clone()),
        };
        let fault_spur = QueryVerdict {
            query: q(QueryKind::ValueFault(Fault::DivideByZero)),
            status: Status::Spurious,
        };
        let arm_wit = QueryVerdict {
            query: q(QueryKind::UnreachableArm {
                case_index: 0,
                arm_index: 1,
            }),
            status: Status::Witnessed(spec),
        };
        let arm_conf = QueryVerdict {
            query: q(QueryKind::UnreachableArm {
                case_index: 0,
                arm_index: 1,
            }),
            status: Status::ConfirmedUnreachable,
        };
        assert!(!fault_wit.discharges());
        assert!(fault_spur.discharges());
        assert!(arm_wit.discharges());
        assert!(!arm_conf.discharges());

        let report = SymexReport {
            verdicts: vec![fault_wit, fault_spur, arm_wit, arm_conf],
            stats: SymexStats::default(),
        };
        assert_eq!(report.witnesses(), 1);
        assert_eq!(report.discharged(), 2);
        assert_eq!(report.undecided(), 0);
    }

    #[test]
    fn status_display() {
        let mut why = BTreeSet::new();
        why.insert(Incompleteness::StepBudget);
        why.insert(Incompleteness::EnvelopeClosure);
        let s = Status::Undecided(why).to_string();
        assert_eq!(s, "undecided(step-budget envelope-closure)");
        assert_eq!(Status::Spurious.to_string(), "proved-spurious");
    }
}
