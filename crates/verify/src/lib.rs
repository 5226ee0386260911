//! # zarf-verify — static binary analyses for the Zarf λ-execution layer
//!
//! The three assembly-level verification stories of the paper (§5), as
//! analyses over Zarf programs and binaries:
//!
//! * [`integrity`] — the security type system of §5.3 (`T ⊑ U` lattice,
//!   pc-sensitive checking, port trust policy) proving **non-interference**:
//!   untrusted values cannot affect trusted values, explicitly or
//!   implicitly. [`sigs`] carries the annotations for the shipped kernel.
//! * [`wcet`] — the worst-case execution time analysis of §5.2: per-
//!   instruction worst costs from the hardware cost model, worst paths
//!   through every `case`, rejection of (non-excluded) recursion, and the
//!   paper's GC bound (everything allocated in an iteration assumed live;
//!   `N + 4` cycles per object copy, 2 per reference check).
//! * [`timing`] — the end-to-end real-time verdict for the shipped system:
//!   loop WCET + GC bound vs the 5 ms deadline.
//! * [`callgraph`] — the call-graph substrate: direct edges, indirect-call
//!   detection, reachability, cycle finding.
//! * [`lints`] — the "Custom Analysis" box of the paper's Figure 1 made
//!   concrete: dead lets, shadowed bindings, duplicate (unreachable)
//!   patterns, unused parameters, constant scrutinees.
//! * [`absint`] — a generic interprocedural monotone framework (worklist
//!   fixpoint over per-function summaries, dynamic dependency tracking,
//!   widening with an enforced iteration bound) that new analyses plug
//!   abstract domains into.
//! * [`shape`] — constructor-shape and application-arity analysis over
//!   [`absint`]: which tags reach each `case`, unreachable-arm detection,
//!   and the case-fault-freedom / arity-fault-freedom certificates.
//! * [`allocbound`] — worst-case heap words allocated per call of each
//!   item (⊤ for unbounded recursion), composing up the call graph into
//!   per-op and whole-program bounds the fleet sizes heap quotas from.
//! * [`queries`] — the bridge from shape findings to the symbolic
//!   executor: each warning/violation as a [`queries::VetQuery`] that
//!   `zarf-symex` answers with a witness or a spuriousness proof.
//! * [`interval`] — the `i32` interval lattice with one transfer
//!   function per machine operation, shared by [`risc`]'s domain and
//!   `zarf-symex`'s path-condition propagator.
//! * [`risc`] — the same [`absint`] engine pointed at the **imperative
//!   core**: Macaw-style CFG recovery over raw `Vec<Instr>` programs,
//!   a register×memory interval/congruence domain, and certification
//!   clients (divide-by-zero freedom, memory bounds, port discipline,
//!   per-loop cycle WCET) behind `zarf vet --risc`.
//!
//! All analyses run on the *machine form* or the named AST lifted from a
//! binary — no source required, which is the architecture's point.
//!
//! ```
//! use zarf_verify::annotated::check_annotated;
//!
//! // The §5.3 annotated syntax, checked end to end:
//! let verdict = check_annotated(r#"
//! port in 9 U
//! port out 1 T
//! fun main : num^U =
//!   let u = getint 9 in
//!   let w = putint 1 u in
//!   result w
//! "#);
//! // Untrusted data may not reach the trusted pacing port.
//! assert!(verdict.is_err());
//! ```

pub mod absint;
pub mod allocbound;
pub mod annotated;
pub mod callgraph;
pub mod integrity;
pub mod interval;
pub mod lints;
pub mod queries;
pub mod risc;
pub mod shape;
pub mod sigs;
pub mod timing;
pub mod wcet;

pub use absint::{AbsIntError, Analysis, Engine, Fixpoint, Lattice, NodeId, View};
pub use allocbound::{analyze_alloc, AllocReport, Bound};
pub use annotated::{check_annotated, parse_annotations, AnnotError, Annotated};
pub use callgraph::CallGraph;
pub use integrity::{check_program, Label, Signatures, Ty, TypeError};
pub use lints::{lint, Lint};
pub use queries::{violation_queries, warning_queries, QueryKind, VetQuery};
pub use shape::{analyze_shapes, AbsVal, EntryModel, Fault, ShapeReport, UnreachableArm};
pub use timing::{kernel_timing, TimingReport};
pub use wcet::{gc_bound, iteration_wcet, Wcet, WcetError, WcetReport};
