//! Witness construction and spuriousness proofs.
//!
//! This module turns explored symbolic paths into the two products the
//! vet pipeline wants for each query:
//!
//! * **A witness** — a concrete [`WitnessSpec`] (entry name, argument
//!   recipes, port feed) that *replays on the reference interpreter* to
//!   the warned behavior. Witness search explores entry applications
//!   under the report's entry model, solves the path condition of each
//!   matching path, assembles a spec from the model, and keeps it only
//!   if the replay actually fires the exact fault code.
//! * **A spuriousness proof** — an exploration of the over-approximating
//!   [envelope](crate::seed) in which *every* path exhibiting the warned
//!   behavior is proved unsatisfiable and *no* typed incompleteness
//!   marker appears anywhere. By the executor's partitioning argument,
//!   that covers every concrete input the vet contract admits.
//!
//! Constructor- or closure-typed entry arguments cannot be written down
//! as integers, so the service-model search first builds a **producer
//! pool**: concrete constructor/closure values the service itself can
//! produce, each paired with the [`WArg::Call`] recipe that rebuilds it
//! at replay time. The pool is grown in rounds (values feed later
//! producers), mirroring the fleet contract that argument 0 of a step
//! may be any previous step result.

use std::rc::Rc;

use zarf_core::{Int, Program};
use zarf_testkit::replay::{replay_witness_bounded, ReplayOutcome, WArg, WitnessSpec};
use zarf_verify::queries::{item_label, QueryKind, VetQuery};
use zarf_verify::shape::{EntryModel, ShapeReport};

use crate::budget::Incompleteness;
use crate::exec::{Exec, Outcome, PathState};
use crate::report::Status;
use crate::seed::{build_env_ctx, envelope_args};
use crate::solve::{solve, Model, Verdict};
use crate::term::{TermId, TermStore};
use crate::value::SymVal;

/// Nesting bound when concretizing a pool value (defensive; explored
/// values are bounded by the step budget anyway).
const CONCRETIZE_DEPTH: usize = 64;

/// Fuel for validating a candidate witness on the reference interpreter:
/// far above any path the symbolic budgets admit, far below the default
/// replay fuel — candidates are *guesses* and the program may diverge on
/// them.
const VALIDATE_FUEL: u64 = 100_000;

/// Zarf call-depth bound for candidate validation. The interpreter
/// recurses on the host stack once per Zarf call, so divergence must
/// surface as a typed abort well before the caller's stack — possibly a
/// default-sized test thread — overflows. Witness paths are bounded by
/// `SymexBudget::max_depth`, far below this.
const VALIDATE_DEPTH: u32 = 512;

/// Replay a candidate with tight fuel and call-depth bounds, keeping
/// `decide` total even when the candidate makes the program recurse
/// without bound. A bound exhaustion fails validation like any other
/// non-reproducing candidate.
fn replay_candidate(named: &Program, spec: &WitnessSpec) -> Option<ReplayOutcome> {
    replay_witness_bounded(named, spec, VALIDATE_FUEL, VALIDATE_DEPTH).ok()
}

/// One producible value: the concrete symbolic value (all integer leaves
/// pinned to constants) and the replayable recipe that rebuilds it.
#[derive(Debug, Clone)]
pub struct PoolEntry {
    /// Recipe to rebuild the value on the interpreter.
    pub recipe: WArg,
    /// The fully concrete value, for symbolic use as an entry argument.
    pub value: SymVal,
}

/// The discovered producer pool.
#[derive(Debug, Clone, Default)]
pub struct Pool {
    /// Discovered values, in discovery order.
    pub entries: Vec<PoolEntry>,
}

/// Where one entry argument comes from during a search combo.
#[derive(Debug, Clone)]
enum ArgSrc {
    /// A fresh symbolic integer.
    Fresh,
    /// A pool value (index into [`Pool::entries`]).
    Pool(usize),
}

/// How to render one entry argument into a [`WArg`] once a model is known.
#[derive(Debug, Clone)]
enum RecipeSrc {
    /// Evaluate this term under the model.
    Var(TermId),
    /// Already a complete recipe.
    Ready(WArg),
}

/// Instantiate one combo: symbolic argument values plus their recipes.
fn realize(ex: &mut Exec, pool: &Pool, srcs: &[ArgSrc]) -> (Vec<SymVal>, Vec<RecipeSrc>) {
    let mut args = Vec::with_capacity(srcs.len());
    let mut recipes = Vec::with_capacity(srcs.len());
    for s in srcs {
        let entry = match s {
            ArgSrc::Pool(i) => pool.entries.get(*i),
            ArgSrc::Fresh => None,
        };
        match entry {
            Some(e) => {
                args.push(e.value.clone());
                recipes.push(RecipeSrc::Ready(e.recipe.clone()));
            }
            None => {
                let (_, t) = ex.store.fresh_var();
                args.push(SymVal::Int(t));
                recipes.push(RecipeSrc::Var(t));
            }
        }
    }
    (args, recipes)
}

/// Render recipes under a model. Fails only if a term cannot evaluate.
fn recipe_args(store: &TermStore, model: &Model, recipes: &[RecipeSrc]) -> Option<Vec<WArg>> {
    recipes
        .iter()
        .map(|r| match r {
            RecipeSrc::Var(t) => store.eval(*t, model).ok().map(WArg::Int),
            RecipeSrc::Ready(w) => Some(w.clone()),
        })
        .collect()
}

/// Pin every integer leaf of a value to its model constant. `None` if the
/// value contains an error, or a term that faults under the model.
fn concretize(store: &mut TermStore, v: &SymVal, model: &Model, depth: usize) -> Option<SymVal> {
    if depth == 0 {
        return None;
    }
    match v {
        SymVal::Int(t) => {
            let n = store.eval(*t, model).ok()?;
            Some(SymVal::Int(store.constant(n)))
        }
        SymVal::Con { tag, fields } => Some(SymVal::Con {
            tag: *tag,
            fields: fields
                .iter()
                .map(|f| concretize(store, f, model, depth - 1))
                .collect::<Option<_>>()?,
        }),
        SymVal::Closure { target, applied } => Some(SymVal::Closure {
            target: *target,
            applied: applied
                .iter()
                .map(|f| concretize(store, f, model, depth - 1))
                .collect::<Option<_>>()?,
        }),
        SymVal::Error(_) => None,
        // Opaque values only arise from envelope seeding, never from the
        // concrete-argument explorations that feed the pool.
        SymVal::Opaque { .. } => None,
    }
}

/// The argument combos to try for an entry of the given arity: all-fresh
/// first, then each pool value in argument 0 (the service contract allows
/// non-integers only there).
fn combos_for(arity: usize, pool: &Pool, cap: usize) -> Vec<Vec<ArgSrc>> {
    if arity == 0 {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    let mut base = vec![ArgSrc::Fresh; arity];
    out.push(base.clone());
    for i in 0..pool.entries.len() {
        if out.len() >= cap {
            break;
        }
        base[0] = ArgSrc::Pool(i);
        out.push(base.clone());
    }
    out
}

/// Function items of the program, as `(id, arity)` pairs in item order.
fn fun_items(ex: &Exec) -> Vec<(u32, usize)> {
    ex.program
        .items()
        .iter()
        .enumerate()
        .filter(|(_, it)| !it.is_con())
        .map(|(n, it)| (ex.program.id_of(n), it.arity))
        .collect()
}

/// Grow the producer pool for the service entry model. Each round
/// explores every function with fresh-integer arguments (plus previously
/// discovered values in argument 0) and harvests complete, read-free,
/// marker-free constructor/closure results whose path condition solves.
pub fn build_pool(ex: &mut Exec) -> Pool {
    let mut pool = Pool::default();
    let cap = ex.budget.max_combos;
    let mut solves_left = cap.saturating_mul(4);
    for _round in 0..ex.budget.producer_rounds {
        let snapshot = pool.entries.len();
        for (g, arity) in fun_items(ex) {
            for srcs in combos_for(arity, &pool, cap) {
                // Only extend with values known before this round, so
                // rounds are well-defined.
                if let Some(ArgSrc::Pool(i)) = srcs.first() {
                    if *i >= snapshot {
                        continue;
                    }
                }
                let (args, recipes) = realize(ex, &pool, &srcs);
                let outs = ex.explore(g, &args);
                for o in outs {
                    let val = match &o.val {
                        Some(v) => v.clone(),
                        None => continue,
                    };
                    if !matches!(val, SymVal::Con { .. } | SymVal::Closure { .. }) {
                        continue;
                    }
                    if !o.st.reads.is_empty() || !o.st.incomplete.is_empty() {
                        continue;
                    }
                    if solves_left == 0 || pool.entries.len() >= cap {
                        return pool;
                    }
                    solves_left -= 1;
                    let model = match solve(&ex.store, &o.st.lits, ex.budget.solver_effort) {
                        Verdict::Sat(m) => m,
                        _ => continue,
                    };
                    let value = match concretize(&mut ex.store, &val, &model, CONCRETIZE_DEPTH) {
                        Some(v) => v,
                        None => continue,
                    };
                    if pool.entries.iter().any(|e| e.value == value) {
                        continue;
                    }
                    let wargs = match recipe_args(&ex.store, &model, &recipes) {
                        Some(w) => w,
                        None => continue,
                    };
                    pool.entries.push(PoolEntry {
                        recipe: WArg::Call {
                            function: item_label(ex.program, g),
                            args: wargs,
                        },
                        value,
                    });
                }
            }
        }
        if pool.entries.len() == snapshot {
            break;
        }
    }
    pool
}

/// Whether an outcome exhibits the warned behavior of a query. Truncated
/// paths count: the fault (or arm hit) happened *before* truncation.
fn matches(ex: &Exec, o: &Outcome, q: &VetQuery) -> bool {
    match &q.kind {
        QueryKind::ValueFault(f) => o.faulted(q.function, f.code()),
        QueryKind::UnreachableArm {
            case_index,
            arm_index,
        } => ex
            .arm_bit(q.function, *case_index, *arm_index)
            .is_some_and(|bit| o.st.arm_hits.contains(bit)),
    }
}

/// One explored path together with the solver model that satisfies its
/// condition and the recipes that rebuild its entry arguments.
struct SolvedPath<'a> {
    st: &'a PathState,
    model: &'a Model,
    recipes: &'a [RecipeSrc],
    val: Option<&'a SymVal>,
}

/// Build a spec from a solved path and validate it by replay. Returns the
/// spec only if the interpreter run confirms the warned behavior.
fn assemble_and_validate(
    ex: &Exec,
    named: &Program,
    q: &VetQuery,
    entry_label: &str,
    path: &SolvedPath<'_>,
) -> Option<WitnessSpec> {
    let SolvedPath {
        st,
        model,
        recipes,
        val,
    } = *path;
    let args = recipe_args(&ex.store, model, recipes)?;
    let mut port_feed: Vec<(Int, Vec<Int>)> = Vec::new();
    for (pt, vt) in &st.reads {
        let port = ex.store.eval(*pt, model).ok()?;
        let word = ex.store.eval(*vt, model).ok()?;
        match port_feed.iter_mut().find(|(p, _)| *p == port) {
            Some((_, ws)) => ws.push(word),
            None => port_feed.push((port, vec![word])),
        }
    }
    let spec = WitnessSpec {
        entry: entry_label.to_string(),
        args,
        port_feed,
    };
    let rep = replay_candidate(named, &spec)?;
    match &q.kind {
        QueryKind::ValueFault(f) => {
            // Require the run to *complete* (faults are values here, so a
            // faulting run still finishes) — a candidate that fires the
            // code and then hits a host bound would hand consumers a spec
            // whose replay diverges under their own bounds.
            if rep.result.is_ok() && rep.fired(f.code()) {
                Some(spec)
            } else {
                None
            }
        }
        QueryKind::UnreachableArm { .. } => {
            // Replay cannot observe arms directly; require a clean run
            // and, when the symbolic path pinned an integer result, that
            // the concrete result agrees (an end-to-end fidelity check).
            let res = rep.result.as_ref().ok()?;
            if let Some(SymVal::Int(t)) = val {
                if let Ok(n) = ex.store.eval(*t, model) {
                    if res != &n.to_string() {
                        return None;
                    }
                }
            }
            Some(spec)
        }
    }
}

/// The result of a witness search.
#[derive(Debug, Default)]
pub struct WitnessSearch {
    /// A replay-validated witness, if one was found.
    pub spec: Option<WitnessSpec>,
    /// Some matching path got an `Unknown` from the solver.
    pub inconclusive: bool,
    /// Some matching path solved Sat but no replayable spec survived.
    pub unrealized: bool,
}

/// Search for a replay-validated witness for one query. Under the
/// standalone model only `main` is explorable; under the service model
/// the query's own function is tried first, then every other function
/// (the fault may only be reachable through an internal caller).
pub fn search_witness(
    ex: &mut Exec,
    named: &Program,
    model: EntryModel,
    q: &VetQuery,
    pool: &Pool,
) -> WitnessSearch {
    let mut out = WitnessSearch::default();
    let entries: Vec<(u32, usize)> = match model {
        EntryModel::Standalone => vec![(ex.program.id_of(0), ex.program.main().arity)],
        EntryModel::Service => {
            let mut es = fun_items(ex);
            es.sort_by_key(|&(id, _)| id != q.function);
            es
        }
    };
    let mut explorations = ex.budget.max_combos;
    let mut attempts = ex.budget.max_witness_attempts;
    for (e, arity) in entries {
        let label = item_label(ex.program, e);
        for srcs in combos_for(arity, pool, ex.budget.max_combos) {
            if explorations == 0 {
                return out;
            }
            explorations -= 1;
            let (args, recipes) = realize(ex, pool, &srcs);
            let outs = ex.explore(e, &args);
            for o in &outs {
                if !matches(ex, o, q) {
                    continue;
                }
                if attempts == 0 {
                    return out;
                }
                attempts -= 1;
                match solve(&ex.store, &o.st.lits, ex.budget.solver_effort) {
                    Verdict::Sat(m) => {
                        let path = SolvedPath {
                            st: &o.st,
                            model: &m,
                            recipes: &recipes,
                            val: o.val.as_ref(),
                        };
                        match assemble_and_validate(ex, named, q, &label, &path) {
                            Some(spec) => {
                                out.spec = Some(spec);
                                return out;
                            }
                            None => out.unrealized = true,
                        }
                    }
                    Verdict::Unknown => out.inconclusive = true,
                    Verdict::Unsat => {}
                }
            }
        }
    }
    out
}

/// Try to *prove* the query's warning spurious (or the arm confirmed
/// unreachable) over the envelope. Sound by the executor's partitioning
/// argument: a proof requires a marker-free envelope, marker-free
/// explorations, and an `Unsat` verdict on every matching path.
pub fn envelope_check(ex: &mut Exec, report: &ShapeReport, q: &VetQuery) -> Status {
    let env = envelope_args(&mut ex.store, ex.program, report, q.function, &ex.budget);
    let mut inc = env.incomplete;
    if env.combos.is_empty() && inc.is_empty() {
        inc.insert(Incompleteness::EnvelopeGap);
    }
    // The envelope phase runs with the context installed: opaque seeds
    // expand lazily from the cells, and recursive calls summarize over
    // the shape fixpoint's returns instead of truncating at the depth
    // bound. Cleared before returning — witness search must not see it.
    ex.set_env_ctx(Some(Rc::new(build_env_ctx(ex.program, report))));
    let mut sat_found = false;
    let mut solves_left = ex.budget.max_witness_attempts.saturating_mul(4);
    'combos: for combo in env.combos {
        let outs = ex.explore(q.function, &combo);
        for o in &outs {
            inc.extend(o.st.incomplete.iter().copied());
            if !matches(ex, o, q) {
                continue;
            }
            if solves_left == 0 {
                inc.insert(Incompleteness::SolverInconclusive);
                break 'combos;
            }
            solves_left -= 1;
            match solve(&ex.store, &o.st.lits, ex.budget.solver_effort) {
                Verdict::Sat(_) => {
                    sat_found = true;
                    break 'combos;
                }
                Verdict::Unknown => {
                    inc.insert(Incompleteness::SolverInconclusive);
                }
                Verdict::Unsat => {}
            }
        }
    }
    ex.set_env_ctx(None);
    if sat_found {
        inc.insert(Incompleteness::WitnessUnrealized);
        return Status::Undecided(inc);
    }
    if !inc.is_empty() {
        return Status::Undecided(inc);
    }
    match q.kind {
        QueryKind::ValueFault(_) => Status::Spurious,
        QueryKind::UnreachableArm { .. } => Status::ConfirmedUnreachable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::SymexBudget;
    use zarf_asm::{lift, lower, parse};
    use zarf_core::machine::MProgram;
    use zarf_testkit::replay::replay_witness;
    use zarf_verify::shape::{analyze_shapes, Fault};

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
    fn pool_discovers_nullary_and_derived_producers() {
        let m = machine(
            "con Pair a b\n\
             fun mk =\n let p = Pair 1 2 in\n result p\n\
             fun swap p =\n case p of\n | Pair a b => let q = Pair b a in\n result q\n else result 0\n\
             fun main =\n result 0\n",
        );
        let mut ex = Exec::new(&m, SymexBudget::default());
        let pool = build_pool(&mut ex);
        // mk() and swap(mk()) both produce concrete Pair values; swap of
        // Pair 1 2 is Pair 2 1, distinct from Pair 1 2.
        assert!(pool.entries.len() >= 2, "{:?}", pool.entries);
        let pair = by_name(&m, "Pair");
        assert!(pool
            .entries
            .iter()
            .all(|e| matches!(&e.value, SymVal::Con { tag, .. } if *tag == pair)));
        assert!(pool
            .entries
            .iter()
            .any(|e| matches!(&e.recipe, WArg::Call { function, .. } if function == "mk")));
    }

    #[test]
    fn fault_witness_replays_to_the_exact_code() {
        // div faults only when the argument is zero.
        let src = "fun halve p =\n let x = div 10 p in\n result x\n\
                   fun main =\n result 0\n";
        let m = machine(src);
        let named = lift(&m).unwrap();
        let r = analyze_shapes(&m, EntryModel::Service).unwrap();
        let mut ex = Exec::new(&m, SymexBudget::default());
        let pool = build_pool(&mut ex);
        let q = VetQuery {
            function: by_name(&m, "halve"),
            label: "halve".into(),
            kind: QueryKind::ValueFault(Fault::DivideByZero),
        };
        let ws = search_witness(&mut ex, &named, r.model, &q, &pool);
        let spec = ws.spec.expect("witness for the div fault");
        let rep = replay_witness(&named, &spec).unwrap();
        assert!(rep.fired(1), "witness must fire code 1: {rep:?}");
    }

    #[test]
    fn guarded_fault_is_proved_spurious() {
        // The guard makes the div fault unreachable; the envelope covers
        // every integer and the proof goes through.
        let src =
            "fun safe p =\n case p of\n | 0 => result 0\n else let x = div 10 p in\n result x\n\
                   fun main =\n result 0\n";
        let m = machine(src);
        let r = analyze_shapes(&m, EntryModel::Service).unwrap();
        let mut ex = Exec::new(&m, SymexBudget::default());
        let q = VetQuery {
            function: by_name(&m, "safe"),
            label: "safe".into(),
            kind: QueryKind::ValueFault(Fault::DivideByZero),
        };
        assert_eq!(envelope_check(&mut ex, &r, &q), Status::Spurious);
    }

    #[test]
    fn reachable_fault_is_not_proved_spurious() {
        let src = "fun risky p =\n let x = div 10 p in\n result x\n\
                   fun main =\n result 0\n";
        let m = machine(src);
        let r = analyze_shapes(&m, EntryModel::Service).unwrap();
        let mut ex = Exec::new(&m, SymexBudget::default());
        let q = VetQuery {
            function: by_name(&m, "risky"),
            label: "risky".into(),
            kind: QueryKind::ValueFault(Fault::DivideByZero),
        };
        match envelope_check(&mut ex, &r, &q) {
            Status::Undecided(inc) => {
                assert!(inc.contains(&Incompleteness::WitnessUnrealized), "{inc:?}");
            }
            s => panic!("a reachable fault must not be proved spurious: {s:?}"),
        }
    }

    #[test]
    fn arm_witness_refutes_an_unreachable_claim() {
        // Absint joins the two constants and loses which arm is taken;
        // symex finds concrete input reaching the "unreachable" arm.
        let src = "fun pick p =\n case p of\n | 7 => result 1\n else result 0\n\
                   fun main =\n result 0\n";
        let m = machine(src);
        let named = lift(&m).unwrap();
        let r = analyze_shapes(&m, EntryModel::Service).unwrap();
        let mut ex = Exec::new(&m, SymexBudget::default());
        let pool = Pool::default();
        let q = VetQuery {
            function: by_name(&m, "pick"),
            label: "pick".into(),
            kind: QueryKind::UnreachableArm {
                case_index: 0,
                arm_index: 0,
            },
        };
        let ws = search_witness(&mut ex, &named, r.model, &q, &pool);
        let spec = ws.spec.expect("arm witness");
        // The replayed run must take the arm: pick(7) == 1.
        let rep = replay_witness(&named, &spec).unwrap();
        assert_eq!(rep.result.as_deref(), Ok("1"));
    }

    #[test]
    fn con_argument_faults_witnessed_via_the_pool() {
        // step faults (prim-on-non-int) only when handed a constructor,
        // which only the pool can supply.
        let src = "con Box v\n\
                   fun mkbox =\n let b = Box 5 in\n result b\n\
                   fun step s =\n let x = add s 1 in\n result x\n\
                   fun main =\n result 0\n";
        let m = machine(src);
        let named = lift(&m).unwrap();
        let r = analyze_shapes(&m, EntryModel::Service).unwrap();
        let mut ex = Exec::new(&m, SymexBudget::default());
        let pool = build_pool(&mut ex);
        assert!(!pool.entries.is_empty());
        let q = VetQuery {
            function: by_name(&m, "step"),
            label: "step".into(),
            kind: QueryKind::ValueFault(Fault::PrimOnNonInt),
        };
        let ws = search_witness(&mut ex, &named, r.model, &q, &pool);
        let spec = ws.spec.expect("pool-backed witness");
        let rep = replay_witness(&named, &spec).unwrap();
        assert!(rep.fired(7), "{rep:?}");
    }

    #[test]
    fn getint_witnesses_carry_a_port_feed() {
        let src = "fun main =\n let x = getint 3 in\n let y = div 10 x in\n result y\n";
        let m = machine(src);
        let named = lift(&m).unwrap();
        let r = analyze_shapes(&m, EntryModel::Standalone).unwrap();
        let mut ex = Exec::new(&m, SymexBudget::default());
        let q = VetQuery {
            function: m.id_of(0),
            label: "main".into(),
            kind: QueryKind::ValueFault(Fault::DivideByZero),
        };
        let ws = search_witness(&mut ex, &named, r.model, &q, &Pool::default());
        let spec = ws.spec.expect("port-feed witness");
        assert!(
            spec.port_feed.iter().any(|(p, ws)| *p == 3 && ws == &[0]),
            "feed must force the read on port 3 to zero: {spec:?}"
        );
    }
}
