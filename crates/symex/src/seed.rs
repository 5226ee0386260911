//! Envelope seeding: over-approximating symbolic entry arguments derived
//! from the shape analysis.
//!
//! To *discharge* a warning (prove it spurious), the executor must explore
//! every input the vet contract admits. The shape analysis already
//! over-approximates exactly that — but its per-function argument summary
//! is a *join* over every caller, and naively crossing the joined
//! alternatives manufactures argument combinations no caller ever
//! produces while blowing up on cyclic constructor cells (a driver loop
//! that threads its own state back through a field is a cycle in the cell
//! graph, which no finite instantiation depth can unroll). The envelope
//! therefore decomposes into two cooperating halves:
//!
//! * **Per-site families** ([`envelope_args`]). A function's concrete
//!   activations enter either through the entry model (the vet contract)
//!   or through one of its recorded internal call sites
//!   ([`ShapeReport::call_sites`]). Each family's argument vector is
//!   instantiated *separately* — the relational precision the fixpoint
//!   join discarded — and the union of families covers every activation.
//!   Functions whose closures escape ([`ShapeReport::addr_taken`]) have
//!   unenumerable call sites and fall back to a typed marker.
//! * **Shallow alternatives + lazy expansion** ([`EnvCtx`]). Constructor
//!   alternatives are seeded as *opaque* values ([`SymVal::Opaque`]) —
//!   a tag with no materialized fields. The executor expands an opaque
//!   value from [`ShapeReport::cells`] only when a path actually projects
//!   its fields (a matching case arm of nonzero arity), one level at a
//!   time. Instantiation depth is thus bounded by what the program walks,
//!   not by the cell graph — a cyclic cell costs nothing unless some path
//!   keeps projecting through the cycle, in which case the path budget
//!   (not the seed) bounds the walk.
//!
//! # The error-absorption lemma
//!
//! Abstract values carry a "may be an error" flag, and on this ISA error
//! values are *absorbing*: a `case` on an error returns it without taking
//! any arm, applying it returns it, and a primitive propagates the first
//! error it scans without constructing a fault (the evaluator's scan is
//! order-sensitive, and a constructor operand ahead of the error faults
//! identically under any instantiation of the error). By induction over
//! the first point each error-derived value influences execution, every
//! fault constructed and every arm hit on a run with error-valued inputs
//! also occurs on a run with those inputs replaced by *unconstrained
//! integers*. The envelope therefore instantiates a possible error as a
//! fresh integer variable instead of crossing an error alternative into
//! every position (which squared the combo count per flagged field): the
//! integer alternatives it already explores cover every error behavior.
//!
//! Soundness: every alternative list either covers the abstract value it
//! instantiates or carries a marker saying it might not, and the executor
//! charges [`Incompleteness::OpaqueFields`] to any path that projects an
//! opaque it cannot expand. A spuriousness proof requires a marker-free
//! exploration.

use std::collections::{BTreeMap, BTreeSet};

use zarf_core::machine::MProgram;
use zarf_core::prim::FIRST_USER_INDEX;
use zarf_core::Int;
use zarf_verify::shape::{AbsVal, Clos, EntryModel, Ints, ShapeReport, Tags};

use crate::budget::{Incompleteness, SymexBudget};
use crate::term::TermStore;
use crate::value::SymVal;

/// The instantiated envelope for one entry function.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Argument vectors to explore: the union over entry/call-site
    /// families of each family's per-argument cross product, capped by
    /// `max_combos`.
    pub combos: Vec<Vec<SymVal>>,
    /// Everything the envelope could not cover.
    pub incomplete: BTreeSet<Incompleteness>,
}

/// One alternative for a lazily-expanded constructor field (or for the
/// summarized return of a recursive call): how the executor materializes
/// it when demanded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldAlt {
    /// A fresh unconstrained integer variable.
    AnyInt,
    /// A known integer constant.
    Const(Int),
    /// A constructor tag — nullary tags materialize saturated, the rest
    /// as further opaque values.
    Tag(u32),
    /// The abstraction cannot finitely enumerate this position; any path
    /// demanding it truncates with the given marker.
    Unknown(Incompleteness),
}

/// The executor's envelope context: everything lazy expansion and
/// recursion summarization need, precomputed from one shape report.
/// Installed on the executor for the envelope phase only — witness search
/// runs on concrete values and never consults it.
#[derive(Debug, Clone, Default)]
pub struct EnvCtx {
    /// Per-`(constructor, field)` alternatives, from the report's cells.
    pub cells: BTreeMap<(u32, usize), Vec<FieldAlt>>,
    /// Per-function return alternatives, from the report's summaries. A
    /// call to a function already on the symbolic call stack forks over
    /// these instead of inlining — the loop-summary rule that keeps
    /// self-recursive drivers from truncating the envelope at the depth
    /// bound. An empty list means the fixpoint saw no return at all (the
    /// callee diverges), so the caller's continuation is dead.
    pub rets: BTreeMap<u32, Vec<FieldAlt>>,
}

/// Cross product of alternative lists, in mixed-radix order, capped.
/// Returns the combinations and whether the cap truncated the product.
pub fn cross<T: Clone>(alts: &[Vec<T>], cap: usize) -> (Vec<Vec<T>>, bool) {
    if alts.iter().any(Vec::is_empty) {
        return (Vec::new(), false);
    }
    let mut out = Vec::new();
    let mut idx = vec![0usize; alts.len()];
    loop {
        if out.len() >= cap {
            return (out, true);
        }
        out.push(alts.iter().zip(&idx).map(|(a, &i)| a[i].clone()).collect());
        let mut carry = true;
        for i in (0..idx.len()).rev() {
            if carry {
                idx[i] += 1;
                if idx[i] >= alts[i].len() {
                    idx[i] = 0;
                } else {
                    carry = false;
                }
            }
        }
        if carry {
            return (out, false);
        }
        if idx.is_empty() {
            return (out, false);
        }
    }
}

/// Build the envelope argument combinations for entry function `f`: one
/// family per way an activation of `f` can arise (the entry model, plus
/// each recorded internal call site), instantiated shallowly.
pub fn envelope_args(
    store: &mut TermStore,
    program: &MProgram,
    report: &ShapeReport,
    f: u32,
    budget: &SymexBudget,
) -> Envelope {
    let mut inc = BTreeSet::new();
    let summary = match report.functions.get(&f) {
        Some(fs) => &fs.summary,
        None => {
            inc.insert(Incompleteness::EnvelopeGap);
            return Envelope {
                combos: Vec::new(),
                incomplete: inc,
            };
        }
    };
    if report.addr_taken.contains(&f) {
        // Escaping closures: activations can arise through untracked
        // applications, so the per-site decomposition is not exhaustive.
        inc.insert(Incompleteness::EnvelopeClosure);
        return Envelope {
            combos: Vec::new(),
            incomplete: inc,
        };
    }
    let arity = summary.args.len();

    // The entry model's own family.
    let mut families: Vec<Vec<AbsVal>> = Vec::new();
    match report.model {
        EntryModel::Service => {
            // The fleet applies any op to integers, argument 0 doubling as
            // the previous step result.
            let mut env = vec![AbsVal::any_int(); arity];
            if let Some(a0) = env.first_mut() {
                *a0 = report.service_state();
            }
            families.push(env);
        }
        EntryModel::Standalone => {
            if f == FIRST_USER_INDEX {
                // `main` runs with no environment-supplied arguments.
                families.push(vec![AbsVal::bot(); arity]);
            }
        }
    }
    // One family per recorded internal call site.
    if let Some(sites) = report.call_sites.get(&f) {
        families.extend(sites.iter().cloned());
    }

    let mut combos: Vec<Vec<SymVal>> = Vec::new();
    for fam in &families {
        let alts: Vec<Vec<SymVal>> = fam
            .iter()
            .map(|av| shallow_alts(store, program, av, &mut inc))
            .collect();
        if alts.iter().any(Vec::is_empty) {
            // An argument position with no coverable alternative: its
            // markers (if any) are already recorded; a genuinely-⊥
            // position means this family is dead.
            continue;
        }
        let remaining = budget.max_combos.saturating_sub(combos.len());
        let (c, over) = cross(&alts, remaining);
        if over {
            inc.insert(Incompleteness::EnvelopeWidth);
        }
        combos.extend(c);
    }
    Envelope {
        combos,
        incomplete: inc,
    }
}

/// Shallow alternatives covering one abstract value: integers inline,
/// constructors as opaque tags, markers for the rest. The error flag is
/// covered by an unconstrained integer (see the error-absorption lemma in
/// the module docs).
fn shallow_alts(
    store: &mut TermStore,
    program: &MProgram,
    av: &AbsVal,
    inc: &mut BTreeSet<Incompleteness>,
) -> Vec<SymVal> {
    let mut alts: Vec<SymVal> = Vec::new();
    let mut any_int = false;
    match &av.ints {
        Ints::Bot => {}
        Ints::Consts(s) => {
            for &n in s {
                let t = store.constant(n);
                alts.push(SymVal::Int(t));
            }
        }
        Ints::Any => {
            any_int = true;
            let (_, t) = store.fresh_var();
            alts.push(SymVal::Int(t));
        }
    }
    if av.error && !any_int {
        // Error-absorption: a fresh integer covers every error behavior.
        let (_, t) = store.fresh_var();
        alts.push(SymVal::Int(t));
    }
    match &av.cons {
        Tags::Bot => {}
        Tags::Known(tags) => {
            for &tag in tags {
                match program.lookup(tag) {
                    Some(item) if item.is_con() => {
                        alts.push(materialize_tag(program, tag));
                    }
                    _ => {
                        inc.insert(Incompleteness::EnvelopeGap);
                    }
                }
            }
        }
        Tags::Any => {
            inc.insert(Incompleteness::EnvelopeAnyCon);
        }
    }
    if !matches!(av.clos, Clos::Bot) {
        inc.insert(Incompleteness::EnvelopeClosure);
    }
    if av.is_bot() {
        inc.insert(Incompleteness::EnvelopeGap);
    }
    alts
}

/// A constructor alternative: saturated when nullary, opaque otherwise.
pub fn materialize_tag(program: &MProgram, tag: u32) -> SymVal {
    if program.lookup(tag).map(|it| it.arity).unwrap_or(0) == 0 {
        SymVal::con(tag, &[])
    } else {
        SymVal::Opaque { tag }
    }
}

/// Precompute the envelope context — field and return alternatives — from
/// one shape report.
pub fn build_env_ctx(program: &MProgram, report: &ShapeReport) -> EnvCtx {
    let cells = report
        .cells
        .iter()
        .map(|(&k, av)| (k, field_alts(program, av)))
        .collect();
    let rets = report
        .functions
        .iter()
        .map(|(&id, fs)| (id, field_alts(program, &fs.summary.ret)))
        .collect();
    EnvCtx { cells, rets }
}

/// The [`FieldAlt`] counterpart of [`shallow_alts`], for positions the
/// executor materializes on demand.
fn field_alts(program: &MProgram, av: &AbsVal) -> Vec<FieldAlt> {
    let mut alts: Vec<FieldAlt> = Vec::new();
    let mut any_int = false;
    match &av.ints {
        Ints::Bot => {}
        Ints::Consts(s) => alts.extend(s.iter().map(|&n| FieldAlt::Const(n))),
        Ints::Any => {
            any_int = true;
            alts.push(FieldAlt::AnyInt);
        }
    }
    if av.error && !any_int {
        // Error-absorption: a fresh integer covers every error behavior.
        alts.push(FieldAlt::AnyInt);
    }
    match &av.cons {
        Tags::Bot => {}
        Tags::Known(tags) => {
            for &tag in tags {
                if program.lookup(tag).is_some_and(|it| it.is_con()) {
                    alts.push(FieldAlt::Tag(tag));
                } else {
                    alts.push(FieldAlt::Unknown(Incompleteness::EnvelopeGap));
                }
            }
        }
        Tags::Any => alts.push(FieldAlt::Unknown(Incompleteness::EnvelopeAnyCon)),
    }
    if !matches!(av.clos, Clos::Bot) {
        alts.push(FieldAlt::Unknown(Incompleteness::EnvelopeClosure));
    }
    alts
}

#[cfg(test)]
mod tests {
    use super::*;
    use zarf_asm::{lower, parse};
    use zarf_verify::shape::analyze_shapes;

    fn machine(src: &str) -> MProgram {
        lower(&parse(src).unwrap()).unwrap()
    }

    fn by_name(m: &MProgram, n: &str) -> u32 {
        m.items()
            .iter()
            .position(|i| i.name.as_deref() == Some(n))
            .map(|i| m.id_of(i))
            .unwrap()
    }

    #[test]
    fn cross_product_orders_and_caps() {
        let (all, over) = cross(&[vec![1, 2], vec![10, 20]], 100);
        assert_eq!(
            all,
            vec![vec![1, 10], vec![1, 20], vec![2, 10], vec![2, 20]]
        );
        assert!(!over);
        let (some, over) = cross(&[vec![1, 2], vec![10, 20]], 3);
        assert_eq!(some.len(), 3);
        assert!(over);
        let (none, over) = cross(&[vec![1], Vec::<i32>::new()], 10);
        assert!(none.is_empty() && !over);
        let (unit, _) = cross::<i32>(&[], 10);
        assert_eq!(unit, vec![Vec::<i32>::new()]);
    }

    #[test]
    fn service_envelope_seeds_known_cons_shallowly() {
        // Under the Service model, `step` can receive its own Box result
        // back as argument 0 — seeded as an opaque Box, with Box.0's cell
        // alternatives reserved for lazy expansion.
        let m = machine(
            "con Box v\n\
             fun step b =\n case b of\n | Box v => result v\n else result 0\n\
             fun main =\n let b = Box 41 in\n let r = step b in\n result r\n",
        );
        let r = analyze_shapes(&m, EntryModel::Service).unwrap();
        let mut store = TermStore::new();
        let step = by_name(&m, "step");
        let env = envelope_args(&mut store, &m, &r, step, &SymexBudget::default());
        assert!(env.incomplete.is_empty(), "{env:?}");
        let boxid = by_name(&m, "Box");
        assert!(
            env.combos
                .iter()
                .any(|c| matches!(&c[0], SymVal::Opaque { tag } if *tag == boxid)),
            "envelope should contain an opaque Box alternative: {env:?}"
        );
        // And the context carries Box.0's stored constant for expansion.
        let ctx = build_env_ctx(&m, &r);
        let cell = ctx.cells.get(&(boxid, 0)).expect("Box.0 cell");
        assert!(cell.contains(&FieldAlt::Const(41)), "{cell:?}");
    }

    #[test]
    fn call_site_families_stay_relational() {
        // g's joined summary sees {0} and {Box .} across its two callers;
        // per-site families must not cross them into (never-occurring)
        // combinations, and each family shows up as seeded.
        let m = machine(
            "con Box v\n\
             fun g a b =\n result b\n\
             fun main =\n let x = Box 7 in\n let p = g 0 1 in\n let q = g x 2 in\n result q\n",
        );
        let r = analyze_shapes(&m, EntryModel::Standalone).unwrap();
        let mut store = TermStore::new();
        let g = by_name(&m, "g");
        let boxid = by_name(&m, "Box");
        let env = envelope_args(&mut store, &m, &r, g, &SymexBudget::default());
        assert!(env.incomplete.is_empty(), "{env:?}");
        // Exactly the two recorded sites: (0, 1) and (opq Box, 2).
        assert_eq!(env.combos.len(), 2, "{env:?}");
        assert!(env
            .combos
            .iter()
            .any(|c| matches!(&c[0], SymVal::Opaque { tag } if *tag == boxid)));
        // No combo pairs the Box with the literal 1 (the relational point).
        for c in &env.combos {
            if matches!(&c[0], SymVal::Opaque { .. }) {
                assert!(
                    !matches!(&c[1], SymVal::Int(t) if store.const_of(*t) == Some(1)),
                    "crossed families: {env:?}"
                );
            }
        }
    }

    #[test]
    fn error_flag_is_absorbed_into_an_integer_alternative() {
        // h's argument may be an error (div can fault) — the envelope
        // covers it with an unconstrained integer, not an error combo.
        let m = machine(
            "fun h x =\n result x\n\
             fun main =\n let d = div 1 0 in\n let r = h d in\n result r\n",
        );
        let r = analyze_shapes(&m, EntryModel::Standalone).unwrap();
        let mut store = TermStore::new();
        let h = by_name(&m, "h");
        let env = envelope_args(&mut store, &m, &r, h, &SymexBudget::default());
        assert!(env.incomplete.is_empty(), "{env:?}");
        assert!(!env.combos.is_empty());
        assert!(
            env.combos
                .iter()
                .all(|c| !matches!(&c[0], SymVal::Error(_))),
            "errors must be absorbed, not enumerated: {env:?}"
        );
        assert!(env
            .combos
            .iter()
            .any(|c| matches!(&c[0], SymVal::Int(t) if store.const_of(*t).is_none())));
    }

    #[test]
    fn closure_args_mark_the_envelope() {
        let m = machine(
            "fun appl f =\n let x = f 1 in\n result x\n\
             fun main =\n let c = add 1 in\n let r = appl c in\n result r\n",
        );
        let r = analyze_shapes(&m, EntryModel::Standalone).unwrap();
        let mut store = TermStore::new();
        let appl = by_name(&m, "appl");
        let env = envelope_args(&mut store, &m, &r, appl, &SymexBudget::default());
        assert!(env.incomplete.contains(&Incompleteness::EnvelopeClosure));
    }

    #[test]
    fn unknown_function_is_a_gap() {
        let m = machine("fun main =\n result 0\n");
        let r = analyze_shapes(&m, EntryModel::Standalone).unwrap();
        let mut store = TermStore::new();
        let env = envelope_args(&mut store, &m, &r, 0xbeef, &SymexBudget::default());
        assert!(env.combos.is_empty());
        assert!(env.incomplete.contains(&Incompleteness::EnvelopeGap));
    }
}
