//! Property-based tests for the symbolic executor.
//!
//! * **Differential fidelity**: on arbitrary generated programs, the
//!   symbolic outcomes *partition* the concrete input space — for any
//!   concrete argument vector, exactly one marker-free outcome's path
//!   condition is satisfied, and that outcome's fault sequence and
//!   integer result agree with the reference interpreter bit for bit.
//! * **Budget totality**: `decide` under starvation budgets terminates on
//!   every generated program and returns only typed verdicts — an
//!   `Undecided` always carries at least one incompleteness marker, and a
//!   `Witnessed` always replays to the exact fault code even under
//!   pressure.
//! * **Solver soundness**: on random term DAGs, a literal set that a
//!   concrete model satisfies is never refuted by propagation nor called
//!   `Unsat` by the solver, while adding a literal that contradicts a
//!   pinned term always is; one propagator reused across every check
//!   answers exactly as a fresh one.
#![cfg(feature = "proptest-tests")]

use std::collections::BTreeMap;

use zarf_asm::{lift, lower, parse};
use zarf_core::machine::MProgram;
use zarf_core::prim::PrimOp;
use zarf_core::{Int, Program};
use zarf_symex::exec::{Exec, Outcome};
use zarf_symex::solve::{solve, Lit, Verdict};
use zarf_symex::term::{TermId, TermStore};
use zarf_symex::value::SymVal;
use zarf_symex::{decide, Status, SymexBudget};
use zarf_testkit::prelude::*;
use zarf_testkit::replay::{replay_witness, WArg, WitnessSpec};
use zarf_testkit::rng::StdRng;
use zarf_verify::queries::{warning_queries, QueryKind};
use zarf_verify::{analyze_shapes, EntryModel};

const NAMES: &[&str] = &["x", "y", "z"];

struct Gen {
    rng: StdRng,
    funs: Vec<(String, usize)>,
    cons: Vec<(String, usize)>,
}

impl Gen {
    fn atom(&mut self, scope: &[String]) -> String {
        if !scope.is_empty() && self.rng.gen_bool(0.6) {
            scope[self.rng.gen_range(0..scope.len())].clone()
        } else {
            format!("{}", self.rng.gen_range(-3..4))
        }
    }

    fn binder(&mut self) -> String {
        NAMES[self.rng.gen_range(0..NAMES.len())].to_string()
    }

    fn expr(&mut self, depth: u32, scope: &mut Vec<String>, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        if depth == 0 {
            let a = self.atom(scope);
            out.push_str(&format!("{pad}result {a}\n"));
            return;
        }
        match self.rng.gen_range(0..10) {
            0..=1 => {
                // Arithmetic; div/mod keep the divisor symbolic often —
                // that is the fault-forking fodder.
                let v = self.binder();
                let call = if self.rng.gen_bool(0.5) {
                    let p = ["add", "sub", "mul", "xor"][self.rng.gen_range(0..4usize)];
                    format!("{p} {} {}", self.atom(scope), self.atom(scope))
                } else {
                    let p = ["div", "mod"][self.rng.gen_range(0..2usize)];
                    format!("{p} {} {}", self.atom(scope), self.atom(scope))
                };
                out.push_str(&format!("{pad}let {v} = {call} in\n"));
                scope.push(v);
                self.expr(depth - 1, scope, out, indent);
                scope.pop();
            }
            2..=3 => {
                // Literal case on a (often symbolic) scrutinee: the fork
                // point the partition property is really about.
                let scrut = self.atom(scope);
                out.push_str(&format!("{pad}case {scrut} of\n"));
                for _ in 0..self.rng.gen_range(1..3) {
                    let k = self.rng.gen_range(-2..3);
                    out.push_str(&format!("{pad}| {k} =>\n"));
                    self.expr(depth - 1, scope, out, indent + 1);
                }
                out.push_str(&format!("{pad}else\n"));
                self.expr(depth - 1, scope, out, indent + 1);
            }
            4 if !self.cons.is_empty() => {
                let (c, nfields) = self.cons[self.rng.gen_range(0..self.cons.len())].clone();
                let v = self.binder();
                let args: Vec<String> = (0..nfields).map(|_| self.atom(scope)).collect();
                out.push_str(&format!("{pad}let {v} = {c} {} in\n", args.join(" ")));
                scope.push(v.clone());
                out.push_str(&format!("{pad}case {v} of\n"));
                let binders: Vec<String> = (0..nfields).map(|_| self.binder()).collect();
                out.push_str(&format!("{pad}| {c} {} =>\n", binders.join(" ")));
                let before = scope.len();
                scope.extend(binders);
                self.expr(depth - 1, scope, out, indent + 1);
                scope.truncate(before);
                out.push_str(&format!("{pad}else\n"));
                self.expr(depth - 1, scope, out, indent + 1);
                scope.pop();
            }
            5..=6 => {
                // Call a sibling, exactly saturated most of the time.
                let (f, arity) = self.funs[self.rng.gen_range(0..self.funs.len())].clone();
                let n = if self.rng.gen_bool(0.8) {
                    arity
                } else {
                    arity + 1
                };
                let v = self.binder();
                let args: Vec<String> = (0..n).map(|_| self.atom(scope)).collect();
                out.push_str(&format!("{pad}let {v} = {f} {} in\n", args.join(" ")));
                scope.push(v);
                self.expr(depth - 1, scope, out, indent);
                scope.pop();
            }
            7 if !scope.is_empty() => {
                // Apply a bound value — usually an integer, i.e. fault 2.
                let callee = scope[self.rng.gen_range(0..scope.len())].clone();
                let v = self.binder();
                out.push_str(&format!(
                    "{pad}let {v} = {callee} {} in\n",
                    self.atom(scope)
                ));
                scope.push(v);
                self.expr(depth - 1, scope, out, indent);
                scope.pop();
            }
            _ => {
                let a = self.atom(scope);
                out.push_str(&format!("{pad}result {a}\n"));
            }
        }
    }
}

/// A random program: `main` first (keeps item order canonical), then
/// helpers `h0…` with integer parameters — the service-style targets the
/// differential property drives.
fn gen_source(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let ncons = rng.gen_range(0..2usize);
    let nfuns = rng.gen_range(1..4usize);
    let mut funs = vec![("main".to_string(), 0)];
    for i in 0..nfuns {
        funs.push((format!("h{i}"), rng.gen_range(1..=2usize)));
    }
    let cons: Vec<(String, usize)> = (0..ncons)
        .map(|i| (format!("K{i}"), rng.gen_range(1..=2usize)))
        .collect();
    let mut g = Gen { rng, funs, cons };

    let mut src = String::new();
    for (c, n) in g.cons.clone() {
        let fields: Vec<String> = (0..n).map(|k| format!("f{k}")).collect();
        src.push_str(&format!("con {c} {}\n", fields.join(" ")));
    }
    for (f, arity) in g.funs.clone() {
        let params: Vec<String> = (0..arity).map(|k| format!("p{k}")).collect();
        if params.is_empty() {
            src.push_str(&format!("fun {f} =\n"));
        } else {
            src.push_str(&format!("fun {f} {} =\n", params.join(" ")));
        }
        let mut scope = params;
        let depth = g.rng.gen_range(1..=3);
        g.expr(depth, &mut scope, &mut src, 1);
    }
    src
}

fn build(seed: u64) -> (MProgram, Option<Program>, String) {
    let src = gen_source(seed);
    let named = parse(&src).unwrap_or_else(|e| panic!("generated source invalid: {e}\n{src}"));
    let machine = lower(&named).unwrap();
    let lifted = lift(&machine).ok();
    (machine, lifted, src)
}

/// The first generated helper with at least one parameter: the
/// differential target.
fn target(machine: &MProgram) -> Option<(u32, usize, String)> {
    machine.items().iter().enumerate().find_map(|(n, it)| {
        let name = it.name.clone()?;
        (!it.is_con() && it.arity > 0 && name.starts_with('h'))
            .then(|| (machine.id_of(n), it.arity, name))
    })
}

/// Whether a concrete assignment satisfies an outcome's path condition
/// (a term that faults under the model falsifies its literal).
fn satisfied(ex: &Exec, o: &Outcome, model: &BTreeMap<u32, Int>) -> bool {
    o.st.lits
        .iter()
        .all(|l| match ex.store.eval(l.term, model) {
            Ok(v) => (v == l.rhs) == l.eq,
            Err(_) => false,
        })
}

/// Run a closure on a thread with a large stack: the executor recurses
/// once per `let` along a path, which can exceed the default test-thread
/// stack in unoptimized builds on deeply recursive generated programs.
/// Panics (assertion failures included) propagate to the caller.
fn on_big_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let handle = std::thread::Builder::new()
        .stack_size(256 << 20)
        .spawn(f)
        .expect("spawn analysis thread");
    match handle.join() {
        Ok(v) => v,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

/// One differential trial. Returns `None` when the seed is skipped
/// (unliftable program or truncated exploration), otherwise statistics
/// about what was compared.
fn differential(seed: u64) -> Option<(usize, usize)> {
    on_big_stack(move || differential_inner(seed))
}

fn differential_inner(seed: u64) -> Option<(usize, usize)> {
    let (machine, lifted, src) = build(seed);
    let named = lifted?;
    let (f, arity, fname) = target(&machine)?;
    let mut ex = Exec::new(&machine, SymexBudget::default());
    let mut vars = Vec::with_capacity(arity);
    let mut args = Vec::with_capacity(arity);
    for _ in 0..arity {
        let (v, t) = ex.store.fresh_var();
        vars.push(v);
        args.push(SymVal::Int(t));
    }
    let outs = ex.explore(f, &args);
    if outs.iter().any(|o| !o.st.incomplete.is_empty()) {
        return None;
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let mut faulting = 0usize;
    for _ in 0..4 {
        let concrete: Vec<Int> = (0..arity).map(|_| rng.gen_range(-3..4)).collect();
        let model: BTreeMap<u32, Int> =
            vars.iter().copied().zip(concrete.iter().copied()).collect();
        let matching: Vec<&Outcome> = outs.iter().filter(|o| satisfied(&ex, o, &model)).collect();
        assert_eq!(
            matching.len(),
            1,
            "outcomes must partition the input space: {} matched for {fname}{concrete:?}\n{src}",
            matching.len()
        );
        let o = matching[0];
        let spec = WitnessSpec {
            entry: fname.clone(),
            args: concrete.iter().map(|&n| WArg::Int(n)).collect(),
            port_feed: Vec::new(),
        };
        let rep = match replay_witness(&named, &spec) {
            Ok(r) => r,
            Err(_) => continue,
        };
        if rep.result.is_err() {
            // Host-level abort (fuel); fidelity is about machine behavior.
            continue;
        }
        let sym_codes: Vec<Int> = o.st.faults.iter().map(|&(e, _)| e.code()).collect();
        assert_eq!(
            sym_codes, rep.faults,
            "fault sequences diverged for {fname}{concrete:?}\n{src}"
        );
        if let (Some(SymVal::Int(t)), Ok(res)) = (&o.val, &rep.result) {
            if let Ok(n) = ex.store.eval(*t, &model) {
                assert_eq!(
                    &n.to_string(),
                    res,
                    "results diverged for {fname}{concrete:?}\n{src}"
                );
            }
        }
        faulting += usize::from(!rep.faults.is_empty());
    }
    Some((outs.len(), faulting))
}

/// Guard against vacuity: across the seed range the generator must
/// actually produce multi-path explorations and concretely faulting runs,
/// or the differential property compares nothing.
#[test]
fn generator_exercises_forks_and_faults() {
    let mut compared = 0usize;
    let mut multipath = 0usize;
    let mut faulted = 0usize;
    for seed in 0..200u64 {
        if let Some((paths, faults)) = differential(seed) {
            compared += 1;
            multipath += usize::from(paths >= 2);
            faulted += usize::from(faults > 0);
        }
    }
    assert!(compared >= 80, "only {compared}/200 seeds comparable");
    assert!(multipath >= 30, "only {multipath}/200 seeds fork");
    assert!(faulted >= 20, "only {faulted}/200 seeds fault concretely");
}

/// A starvation budget: every bound small enough that real programs
/// routinely exhaust it.
fn tiny() -> SymexBudget {
    SymexBudget {
        max_depth: 3,
        max_steps: 300,
        max_paths: 8,
        solver_effort: 40,
        producer_rounds: 1,
        max_combos: 3,
        max_expand_combos: 2,
        max_summary_paths: 4,
        max_witness_attempts: 2,
    }
}

proptest! {
    /// Tentpole: symbolic outcomes partition the concrete input space and
    /// agree with the interpreter on fault sequences and results.
    #[test]
    fn symbolic_paths_mirror_the_interpreter(seed in any::<u64>()) {
        // All assertions live inside; a skipped seed proves nothing but
        // the vacuity guard above bounds how often that happens.
        let _ = differential(seed);
    }

    /// Satellite: `decide` under starvation budgets is total and typed on
    /// arbitrary programs under both entry models.
    #[test]
    fn budget_exhaustion_is_total_and_typed(seed in any::<u64>()) {
        on_big_stack(move || budget_trial(seed));
    }
}

fn budget_trial(seed: u64) {
    {
        let (machine, lifted, src) = build(seed);
        for model in [EntryModel::Standalone, EntryModel::Service] {
            let shapes = match analyze_shapes(&machine, model) {
                Ok(r) => r,
                Err(_) => continue,
            };
            let queries = warning_queries(&machine, &shapes);
            let rep = decide(&machine, &shapes, &queries, tiny());
            prop_assert_eq!(rep.verdicts.len(), queries.len());
            for v in &rep.verdicts {
                match (&v.status, &lifted) {
                    (Status::Undecided(inc), _) => prop_assert!(
                        !inc.is_empty(),
                        "undecided without markers for {} in\n{}",
                        v.query,
                        src
                    ),
                    (Status::Witnessed(spec), Some(named)) => {
                        if let QueryKind::ValueFault(f) = &v.query.kind {
                            let out = replay_witness(named, spec)
                                .unwrap_or_else(|e| panic!("witness must replay: {e}\n{src}"));
                            prop_assert!(
                                out.fired(f.code()),
                                "witness for {} must fire code {} in\n{}",
                                v.query,
                                f.code(),
                                src
                            );
                        }
                    }
                    _ => {}
                }
            }
        }
    }
}

/// Every pure primitive the term store can hold.
const PURE_OPS: &[PrimOp] = &[
    PrimOp::Add,
    PrimOp::Sub,
    PrimOp::Mul,
    PrimOp::Div,
    PrimOp::Mod,
    PrimOp::And,
    PrimOp::Or,
    PrimOp::Xor,
    PrimOp::Not,
    PrimOp::Shl,
    PrimOp::Shr,
    PrimOp::Eq,
    PrimOp::Ne,
    PrimOp::Lt,
    PrimOp::Le,
    PrimOp::Gt,
    PrimOp::Ge,
    PrimOp::Neg,
    PrimOp::Min,
    PrimOp::Max,
    PrimOp::Abs,
];

/// A random term DAG over one to three variables, a concrete model for
/// them, and the value of every non-faulting term under that model.
struct Dag {
    store: TermStore,
    model: BTreeMap<u32, Int>,
    valued: Vec<(TermId, Int)>,
}

fn random_dag(rng: &mut StdRng) -> Dag {
    let mut store = TermStore::new();
    let mut model = BTreeMap::new();
    let mut terms: Vec<TermId> = Vec::new();
    for _ in 0..rng.gen_range(1..=3usize) {
        let (v, t) = store.fresh_var();
        // Mostly small values, sometimes the wrapping edges.
        let x = if rng.gen_bool(0.15) {
            [i32::MIN, i32::MAX, -1][rng.gen_range(0..3usize)]
        } else {
            rng.gen_range(-20..=20)
        };
        model.insert(v, x);
        terms.push(t);
    }
    for _ in 0..rng.gen_range(1..=2usize) {
        terms.push(store.constant(rng.gen_range(-5..=5)));
    }
    for _ in 0..rng.gen_range(2..=16usize) {
        let op = PURE_OPS[rng.gen_range(0..PURE_OPS.len())];
        let args: Vec<TermId> = (0..op.arity())
            .map(|_| terms[rng.gen_range(0..terms.len())])
            .collect();
        terms.push(store.app(op, &args));
    }
    terms.sort_unstable();
    terms.dedup();
    let valued = terms
        .iter()
        .filter_map(|&t| store.eval(t, &model).ok().map(|v| (t, v)))
        .collect();
    Dag {
        store,
        model,
        valued,
    }
}

/// Up to a dozen literals the model satisfies: equalities pinning a term
/// to its value and disequalities excluding some other value.
fn true_lits(rng: &mut StdRng, dag: &Dag) -> Vec<Lit> {
    let mut lits = Vec::new();
    for _ in 0..rng.gen_range(1..=12usize) {
        let (t, v) = dag.valued[rng.gen_range(0..dag.valued.len())];
        if rng.gen_bool(0.5) {
            lits.push(Lit::eq(t, v));
        } else {
            let off = rng.gen_range(1..=3);
            let w = if rng.gen_bool(0.5) {
                v.wrapping_add(off)
            } else {
                v.wrapping_sub(off)
            };
            lits.push(Lit::ne(t, w));
        }
    }
    lits
}

/// Whether every literal holds under `model` (a faulting term falsifies
/// its literal).
fn holds(store: &TermStore, lits: &[Lit], model: &BTreeMap<u32, Int>) -> bool {
    lits.iter().all(|l| {
        store
            .eval(l.term, model)
            .is_ok_and(|v| (v == l.rhs) == l.eq)
    })
}

fn render(store: &TermStore, lits: &[Lit]) -> String {
    let op = |eq: bool| if eq { "==" } else { "!=" };
    lits.iter()
        .map(|l| format!("{} {} {}", store.display(l.term), op(l.eq), l.rhs))
        .collect::<Vec<_>>()
        .join(" && ")
}

/// One soundness trial over a fresh DAG, checked through `solve` alone.
/// Returns whether the solver found a model for the satisfiable set.
fn solver_trial(seed: u64) -> bool {
    let mut rng = StdRng::seed_from_u64(seed);
    let dag = random_dag(&mut rng);
    let store = &dag.store;
    let lits = true_lits(&mut rng, &dag);
    let shown = render(store, &lits);
    assert!(holds(store, &lits, &dag.model), "generator: {shown}");
    let verdict = solve(store, &lits, 400);
    match &verdict {
        Verdict::Unsat => panic!("solver refuted: {shown}"),
        Verdict::Sat(m) => assert!(holds(store, &lits, m), "bad model {m:?}: {shown}"),
        Verdict::Unknown => {}
    }

    // Contradict a pinned term: the set must become provably unsat,
    // wherever the contradiction lands in the conjunction.
    let (t, v) = dag.valued[rng.gen_range(0..dag.valued.len())];
    let clash = if rng.gen_bool(0.5) {
        Lit::ne(t, v)
    } else {
        Lit::eq(t, v.wrapping_add(rng.gen_range(1..=3)))
    };
    let mut bad = lits.clone();
    bad.insert(rng.gen_range(0..=bad.len()), Lit::eq(t, v));
    bad.insert(rng.gen_range(0..=bad.len()), clash);
    let shown = render(store, &bad);
    assert_eq!(solve(store, &bad, 400), Verdict::Unsat, "missed: {shown}");
    matches!(verdict, Verdict::Sat(_))
}

/// Guard against vacuity: the generator must produce sets the model
/// search can actually satisfy, not only `Unknown`s.
#[test]
fn solver_trials_find_models() {
    let sat = (0..300u64).filter(|&s| solver_trial(s)).count();
    assert!(sat >= 200, "only {sat}/300 satisfied sets got a model");
}

proptest! {
    /// Satellite: the solver never refutes a satisfiable set and always
    /// refutes a pinned contradiction.
    #[test]
    fn solver_is_sound_on_random_dags(seed in any::<u64>()) {
        solver_trial(seed);
    }
}
