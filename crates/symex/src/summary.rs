//! Compositional, shape-keyed function summaries.
//!
//! A summary is the set of symbolic paths one exploration of a function
//! produced, expressed over *canonical* leaf variables of the argument
//! [`ShapeKey`]s. Computed once per `(function, shape key vector)` and
//! reused at every later call site by substituting the site's actual leaf
//! terms for the canonical variables (see `exec::Exec::call_fun`).
//!
//! Only functions whose transitive call graph is free of I/O primitives
//! and indirect calls are summarized: I/O order is path-global (a reused
//! summary would replay reads out of order), and an indirect call could
//! reach I/O the call graph cannot see. Everything else is explored
//! inline at each call site.

use std::collections::{BTreeSet, HashMap};
use std::hash::BuildHasherDefault;
use std::rc::Rc;

use zarf_core::error::RuntimeError;
use zarf_core::machine::MProgram;
use zarf_core::prim::PrimOp;
use zarf_verify::callgraph::CallGraph;

use crate::budget::Incompleteness;
use crate::exec::ArmSet;
use crate::solve::Lit;
use crate::term::{IdMap, MulHasher};
use crate::value::{ShapeKey, SymVal};

/// One cached path through a summarized function, over canonical leaf
/// variables.
#[derive(Debug, Clone)]
pub struct SummaryPath {
    /// Path condition accumulated inside the callee.
    pub lits: Vec<Lit>,
    /// Faults the callee (or its callees) constructed, with the function
    /// identifier whose body constructed each.
    pub faults: Vec<(RuntimeError, u32)>,
    /// Case arms taken inside the callee, as bits of the program's arm
    /// numbering.
    pub arm_hits: ArmSet,
    /// Why this path fell short of completion, if it did.
    pub incomplete: BTreeSet<Incompleteness>,
    /// The returned value; `None` when the path was truncated.
    pub val: Option<SymVal>,
}

/// The canonical exploration of one `(function, shape keys)` pair.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Canonical leaf variable numbers, in argument-then-left-to-right
    /// order — the substitution domain.
    pub canon_vars: Vec<u32>,
    /// All explored paths.
    pub paths: Vec<SummaryPath>,
    /// Whether a recursion loop-summary fired while computing this
    /// summary. Loop summaries over-approximate returns from the shape
    /// report and are only sound under the envelope phase's per-activation
    /// coverage argument; a tainted summary must not answer calls outside
    /// that phase (witness search needs exact path semantics).
    pub tainted: bool,
}

/// One function's summaries, by argument shape keys. Keyed by the owned
/// vector so that a probe borrows the caller's `&[ShapeKey]`.
type ByKeys = HashMap<Vec<ShapeKey>, Rc<Summary>, BuildHasherDefault<MulHasher>>;

/// The summary cache, plus the precomputed set of summarizable functions.
#[derive(Debug)]
pub struct Summaries {
    summarizable: BTreeSet<u32>,
    cache: IdMap<u32, ByKeys>,
    /// Cache hits (a summary was reused at a call site).
    pub hits: u64,
    /// Cache misses (a summary had to be computed).
    pub misses: u64,
}

impl Summaries {
    /// Precompute which functions are summarizable for this program.
    pub fn new(program: &MProgram) -> Self {
        let graph = CallGraph::build(program);
        let io = [PrimOp::GetInt.index(), PrimOp::PutInt.index()];
        let mut summarizable = BTreeSet::new();
        for (n, item) in program.items().iter().enumerate() {
            if item.is_con() {
                continue;
            }
            let id = program.id_of(n);
            let ok = graph.reachable(id).iter().all(|&r| {
                !graph.has_indirect_calls(r) && graph.prims_used(r).all(|p| !io.contains(&p))
            });
            if ok {
                summarizable.insert(id);
            }
        }
        Summaries {
            summarizable,
            cache: IdMap::default(),
            hits: 0,
            misses: 0,
        }
    }

    /// Whether calls to `id` may be answered from a summary.
    pub fn summarizable(&self, id: u32) -> bool {
        self.summarizable.contains(&id)
    }

    /// Look up a cached summary, counting a hit on success. Tainted
    /// summaries (computed under envelope-phase loop summarization) are
    /// only served when the caller accepts them; a skip recomputes and
    /// overwrites with the exact version.
    pub fn lookup(
        &mut self,
        id: u32,
        keys: &[ShapeKey],
        allow_tainted: bool,
    ) -> Option<Rc<Summary>> {
        let got = self
            .cache
            .get(&id)
            .and_then(|by_keys| by_keys.get(keys))
            .filter(|s| allow_tainted || !s.tainted)
            .cloned();
        if got.is_some() {
            self.hits += 1;
        }
        got
    }

    /// Insert a freshly computed summary, counting the miss.
    pub fn insert(&mut self, id: u32, keys: Vec<ShapeKey>, summary: Summary) -> Rc<Summary> {
        self.misses += 1;
        let rc = Rc::new(summary);
        self.cache.entry(id).or_default().insert(keys, rc.clone());
        rc
    }

    /// Number of cached `(function, shape keys)` entries.
    pub fn len(&self) -> usize {
        self.cache.values().map(HashMap::len).sum()
    }

    /// Whether nothing has been summarized yet.
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zarf_asm::{lower, parse};

    fn machine(src: &str) -> MProgram {
        lower(&parse(src).unwrap()).unwrap()
    }

    #[test]
    fn io_poisons_summarizability_transitively() {
        let m = machine(
            "fun pure2 a =\n let x = add a 1 in\n result x\n\
             fun reads p =\n let x = getint p in\n result x\n\
             fun wraps p =\n let x = reads p in\n result x\n\
             fun main =\n result 0\n",
        );
        let s = Summaries::new(&m);
        // Item order: pure2=0x100? No — first declared item is at 0x100 and
        // must be main per MProgram; `lower` keeps declaration order with
        // main first. Find by name instead.
        let by_name = |n: &str| {
            m.items()
                .iter()
                .position(|i| i.name.as_deref() == Some(n))
                .map(|i| m.id_of(i))
                .unwrap()
        };
        assert!(s.summarizable(by_name("pure2")));
        assert!(!s.summarizable(by_name("reads")));
        assert!(!s.summarizable(by_name("wraps")));
    }

    #[test]
    fn lookup_counts_hits_and_misses() {
        let m = machine("fun main =\n result 0\n");
        let mut s = Summaries::new(&m);
        let keys = vec![ShapeKey::Int];
        assert!(s.lookup(0x100, &keys, true).is_none());
        s.insert(
            0x100,
            keys.clone(),
            Summary {
                canon_vars: vec![0],
                paths: vec![],
                tainted: false,
            },
        );
        assert!(s.lookup(0x100, &keys, true).is_some());
        assert!(s
            .lookup(0x100, &[ShapeKey::Con(0x101, vec![])], true)
            .is_none());
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn tainted_summaries_are_skipped_unless_allowed() {
        let m = machine("fun main =\n result 0\n");
        let mut s = Summaries::new(&m);
        let keys = vec![ShapeKey::Int];
        s.insert(
            0x100,
            keys.clone(),
            Summary {
                canon_vars: vec![0],
                paths: vec![],
                tainted: true,
            },
        );
        assert!(s.lookup(0x100, &keys, false).is_none());
        assert!(s.lookup(0x100, &keys, true).is_some());
    }
}
