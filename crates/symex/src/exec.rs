//! The path-sensitive symbolic executor.
//!
//! [`Exec::explore`] applies one function to symbolic arguments and
//! returns every path the bounded exploration completed, each with its
//! path condition, the faults it constructed, the ports it read, and the
//! case arms it took. The execution rules mirror
//! [`zarf_core::eval::Evaluator`] *operation for operation* — the eager
//! `let`, the over-application loop, the order-sensitive primitive
//! argument scan, error-values-as-data — because every witness the
//! executor emits is validated by replaying it on that evaluator: any
//! divergence shows up as a rejected witness, never as a wrong verdict.
//!
//! Forking is *partitioning*: wherever execution splits (a `case` over a
//! symbolic integer, a symbolic divisor), the branch conditions cover the
//! whole input space and are pairwise disjoint. The executor never drops
//! a fork for being infeasible: an outcome's path condition may be
//! unsatisfiable, and every consumer decides the outcomes it acts on
//! through [`crate::solve::solve`], the crate's one feasibility oracle.
//! The only paths dropped are summary paths whose substituted condition
//! grounds to false at a call site, and paths a budget bound truncates —
//! truncation always leaves a typed [`Incompleteness`] marker on the
//! resulting outcome. Hence, over the returned outcomes: if no marker is
//! present, every concrete execution of the function (under the explored
//! argument shapes) follows exactly one completed outcome. That is the
//! entire soundness argument for spuriousness proofs.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::rc::Rc;

use zarf_core::error::RuntimeError;
use zarf_core::machine::{MExpr, MPattern, MProgram, Operand, Source};
use zarf_core::prim::PrimOp;

use crate::budget::{Incompleteness, SymexBudget};
use crate::seed::{cross, materialize_tag, EnvCtx, FieldAlt};
use crate::solve::Lit;
use crate::summary::{Summaries, Summary, SummaryPath};
use crate::term::{TermId, TermStore};
use crate::value::{canonical, leaf_terms, shape_key, subst_sv, CTarget, ShapeKey, SymVal, SV};

/// Everything one symbolic path has accumulated.
#[derive(Debug, Clone, Default)]
pub struct PathState {
    /// The path condition, as a conjunction.
    pub lits: Vec<Lit>,
    /// Faults constructed on this path: `(fault, function whose body
    /// constructed it)`, in construction order.
    pub faults: Vec<(RuntimeError, u32)>,
    /// `getint` reads in program order: `(port term, fresh value term)`.
    pub reads: Vec<(TermId, TermId)>,
    /// Case arms taken: `(function, case index, arm index)`.
    pub arm_hits: Vec<(u32, usize, usize)>,
    /// Markers explaining any shortfall in coverage on this path.
    pub incomplete: BTreeSet<Incompleteness>,
}

/// One explored path: its state plus the value it produced (`None` when a
/// budget bound truncated the path before completion).
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Accumulated path state.
    pub st: PathState,
    /// Final value, if the path completed.
    pub val: Option<SV>,
}

impl Outcome {
    /// Whether this path constructed `fault` inside function `f`'s body.
    pub fn faulted(&self, f: u32, code: i32) -> bool {
        self.st
            .faults
            .iter()
            .any(|&(e, g)| g == f && e.code() == code)
    }
}

type AppRes = Vec<(PathState, Option<SV>)>;

#[derive(Debug, Clone, Default)]
struct Env {
    args: Rc<Vec<SV>>,
    locals: Vec<SV>,
}

/// The executor: program, term store, summary cache, budgets.
pub struct Exec<'p> {
    /// The program under analysis.
    pub program: &'p MProgram,
    /// The shared term arena.
    pub store: TermStore,
    /// Bounds for each exploration.
    pub budget: SymexBudget,
    /// The compositional summary cache.
    pub summaries: Summaries,
    /// Steps consumed across all explorations (statistics).
    pub total_steps: u64,
    /// Completed paths across all explorations (statistics).
    pub total_paths: u64,
    steps_left: u64,
    paths_done: usize,
    case_maps: HashMap<u32, Rc<HashMap<usize, usize>>>,
    /// The envelope context, when the envelope phase is active: enables
    /// lazy opaque expansion and recursion loop-summaries.
    env_ctx: Option<Rc<EnvCtx>>,
    /// The inline symbolic call stack (function identifiers of bodies
    /// currently being explored), for recursion detection.
    stack: Vec<u32>,
    /// How many recursion loop-summaries have fired (taint tracking).
    loop_fires: u64,
}

impl<'p> Exec<'p> {
    /// A fresh executor over one program.
    pub fn new(program: &'p MProgram, budget: SymexBudget) -> Self {
        Exec {
            program,
            store: TermStore::new(),
            budget,
            summaries: Summaries::new(program),
            total_steps: 0,
            total_paths: 0,
            steps_left: 0,
            paths_done: 0,
            case_maps: HashMap::new(),
            env_ctx: None,
            stack: Vec::new(),
            loop_fires: 0,
        }
    }

    /// Install (or clear) the envelope context. With a context installed,
    /// opaque constructors expand lazily from the shape cells and calls to
    /// functions already on the symbolic call stack fork over the callee's
    /// abstract return instead of inlining — sound only under the envelope
    /// phase's per-activation coverage argument (every activation of the
    /// summarized frame is separately covered by its own entry or
    /// call-site family), so witness search must run with it cleared.
    pub fn set_env_ctx(&mut self, ctx: Option<Rc<EnvCtx>>) {
        self.env_ctx = ctx;
    }

    /// Explore one entry application of `f` to `args`. Step and path
    /// budgets reset per call; the term store and summary cache persist.
    pub fn explore(&mut self, f: u32, args: Vec<SV>) -> Vec<Outcome> {
        self.steps_left = self.budget.max_steps;
        self.paths_done = 0;
        self.stack.clear();
        let clo = SymVal::closure(CTarget::Item(f), vec![]);
        let res = self.apply(f, clo, args, PathState::default(), 0);
        self.total_steps += self.budget.max_steps - self.steps_left;
        let out: Vec<Outcome> = res
            .into_iter()
            .map(|(st, val)| Outcome { st, val })
            .collect();
        self.total_paths += out.iter().filter(|o| o.val.is_some()).count() as u64;
        out
    }

    /// Pre-order case numbering for one function, matching the shape
    /// analysis (which numbers cases pre-order over the syntax). Keyed by
    /// node address, which is stable for the borrowed program.
    fn case_map(&mut self, f: u32) -> Rc<HashMap<usize, usize>> {
        if let Some(m) = self.case_maps.get(&f) {
            return m.clone();
        }
        let mut map = HashMap::new();
        if let Some(body) = self.program.lookup(f).and_then(|it| it.body()) {
            let mut n = 0usize;
            body.walk(&mut |e| {
                if matches!(e, MExpr::Case { .. }) {
                    map.insert(e as *const MExpr as usize, n);
                    n += 1;
                }
            });
        }
        let rc = Rc::new(map);
        self.case_maps.insert(f, rc.clone());
        rc
    }

    fn burn(&mut self) -> bool {
        if self.steps_left == 0 {
            return false;
        }
        self.steps_left -= 1;
        true
    }

    fn truncated(st: PathState, why: Incompleteness) -> (PathState, Option<SV>) {
        let mut st = st;
        st.incomplete.insert(why);
        (st, None)
    }

    fn resolve(&mut self, env: &Env, op: Operand) -> Result<SV, Incompleteness> {
        match op.source {
            Source::Local => env
                .locals
                .get(op.index as usize)
                .cloned()
                .ok_or(Incompleteness::InvalidOperand),
            Source::Arg => env
                .args
                .get(op.index as usize)
                .cloned()
                .ok_or(Incompleteness::InvalidOperand),
            Source::Imm => Ok(SymVal::int(self.store.constant(op.index))),
            Source::Global => {
                let id = op.index as u32;
                if let Some(p) = op.as_prim() {
                    return Ok(SymVal::closure(CTarget::Prim(p), vec![]));
                }
                match self.program.lookup(id) {
                    Some(item) if item.is_con() && item.arity == 0 => {
                        // A nullary constructor forces straight to its
                        // saturated value (the hardware's WHNF rule).
                        Ok(SymVal::con(id, vec![]))
                    }
                    Some(item) if !item.is_con() && item.arity == 0 => {
                        // A nullary *function* as a data operand is a lazy
                        // thunk on the hardware; the eager reference
                        // semantics (and the lifter) reject it.
                        Err(Incompleteness::GlobalThunk)
                    }
                    Some(_) => Ok(SymVal::closure(CTarget::Item(id), vec![])),
                    None => Err(Incompleteness::InvalidOperand),
                }
            }
        }
    }

    /// Evaluate a `let`/`case`/`result` spine inside function `f`.
    fn eval_expr(
        &mut self,
        f: u32,
        expr: &'p MExpr,
        env: Env,
        st: PathState,
        depth: usize,
        out: &mut AppRes,
    ) {
        if !self.burn() {
            out.push(Self::truncated(st, Incompleteness::StepBudget));
            return;
        }
        match expr {
            MExpr::Result(op) => match self.resolve(&env, *op) {
                Ok(v) => {
                    if self.paths_done >= self.budget.max_paths {
                        out.push(Self::truncated(st, Incompleteness::PathBudget));
                    } else {
                        self.paths_done += 1;
                        out.push((st, Some(v)));
                    }
                }
                Err(why) => out.push(Self::truncated(st, why)),
            },

            MExpr::Let { callee, args, body } => {
                // Eager: arguments resolve first, in order (matching the
                // evaluator), then the callee dispatches.
                let mut argv = Vec::with_capacity(args.len());
                for a in args {
                    match self.resolve(&env, *a) {
                        Ok(v) => argv.push(v),
                        Err(why) => {
                            out.push(Self::truncated(st, why));
                            return;
                        }
                    }
                }
                let applied: AppRes = match callee.source {
                    Source::Global => {
                        let id = callee.index as u32;
                        if let Some(p) = callee.as_prim() {
                            let clo = SymVal::closure(CTarget::Prim(p), vec![]);
                            self.apply(f, clo, argv, st, depth)
                        } else {
                            match self.program.lookup(id) {
                                Some(item) if item.is_con() => {
                                    // Direct constructor application
                                    // (`applyCn`): saturate, wrap, or fault.
                                    vec![self.apply_cn(f, id, item.arity, argv, st)]
                                }
                                Some(_) => {
                                    let clo = SymVal::closure(CTarget::Item(id), vec![]);
                                    self.apply(f, clo, argv, st, depth)
                                }
                                None => vec![Self::truncated(st, Incompleteness::InvalidOperand)],
                            }
                        }
                    }
                    Source::Imm => {
                        // An immediate callee is an integer target.
                        let v = SymVal::int(self.store.constant(callee.index));
                        self.apply(f, v, argv, st, depth)
                    }
                    Source::Local | Source::Arg => match self.resolve(&env, *callee) {
                        Ok(target) => self.apply(f, target, argv, st, depth),
                        Err(why) => vec![Self::truncated(st, why)],
                    },
                };
                // The last continuation takes `env` itself: a single result
                // (the common case) copies nothing.
                let mut env = env;
                let mut applied = applied.into_iter().peekable();
                while let Some((st2, val)) = applied.next() {
                    match val {
                        Some(v) => {
                            let mut env2 = if applied.peek().is_some() {
                                env.clone()
                            } else {
                                std::mem::take(&mut env)
                            };
                            env2.locals.push(v);
                            self.eval_expr(f, body, env2, st2, depth, out);
                        }
                        None => out.push((st2, None)),
                    }
                }
            }

            MExpr::Case {
                scrutinee,
                branches,
                default,
            } => {
                let v = match self.resolve(&env, *scrutinee) {
                    Ok(v) => v,
                    Err(why) => {
                        out.push(Self::truncated(st, why));
                        return;
                    }
                };
                let ci = self
                    .case_map(f)
                    .get(&(expr as *const MExpr as usize))
                    .copied()
                    .unwrap_or(0);
                match &*v {
                    SymVal::Error(_) => {
                        // (case-else2): an error scrutinee is the result.
                        out.push((st, Some(v.clone())));
                    }
                    SymVal::Closure { .. } => {
                        let mut st = st;
                        st.faults.push((RuntimeError::CaseOnClosure, f));
                        out.push((st, Some(SymVal::error(RuntimeError::CaseOnClosure))));
                    }
                    SymVal::Con { tag, fields } => {
                        // Tags are concrete: exactly one branch (or the
                        // default) matches — no fork.
                        let hit = branches
                            .iter()
                            .enumerate()
                            .find_map(|(i, b)| match b.pattern {
                                MPattern::Con(id) if id == *tag => Some((i, &b.body)),
                                _ => None,
                            });
                        match hit {
                            Some((i, body)) => {
                                let mut st = st;
                                st.arm_hits.push((f, ci, i));
                                let mut env2 = env;
                                env2.locals.extend(fields.iter().cloned());
                                self.eval_expr(f, body, env2, st, depth, out);
                            }
                            None => self.eval_expr(f, default, env, st, depth, out),
                        }
                    }
                    SymVal::Opaque { tag } => {
                        // The tag is concrete, so dispatch is exact; only a
                        // matching field-binding arm demands the fields, and
                        // only then are they materialized from the shape
                        // cells — one fork per field combination. The forks
                        // cover every storable field value (the cells are an
                        // over-approximation) but are not necessarily
                        // disjoint; extra overlap only widens the
                        // exploration, which is sound for spuriousness
                        // proofs. Aliases of the scrutinee elsewhere on the
                        // path stay opaque and would re-expand independently
                        // — again a widening, never a narrowing.
                        let tag = *tag;
                        let hit = branches
                            .iter()
                            .enumerate()
                            .find_map(|(i, b)| match b.pattern {
                                MPattern::Con(id) if id == tag => Some((i, &b.body)),
                                _ => None,
                            });
                        match hit {
                            Some((i, body)) => match self.expand_opaque(tag) {
                                Ok(expansions) => {
                                    for fields in expansions {
                                        let mut st2 = st.clone();
                                        st2.arm_hits.push((f, ci, i));
                                        let mut env2 = env.clone();
                                        env2.locals.extend(fields);
                                        self.eval_expr(f, body, env2, st2, depth, out);
                                    }
                                }
                                Err(why) => out.push(Self::truncated(st, why)),
                            },
                            None => self.eval_expr(f, default, env, st, depth, out),
                        }
                    }
                    SymVal::Int(t) => {
                        let t = *t;
                        if let Some(n) = self.store.const_of(t) {
                            // Concrete dispatch — no fork.
                            let hit =
                                branches
                                    .iter()
                                    .enumerate()
                                    .find_map(|(i, b)| match b.pattern {
                                        MPattern::Lit(m) if m == n => Some((i, &b.body)),
                                        _ => None,
                                    });
                            match hit {
                                Some((i, body)) => {
                                    let mut st = st;
                                    st.arm_hits.push((f, ci, i));
                                    self.eval_expr(f, body, env.clone(), st, depth, out);
                                }
                                None => self.eval_expr(f, default, env, st, depth, out),
                            }
                            return;
                        }
                        // Symbolic dispatch: one fork per distinct literal
                        // arm plus the default. The eq/ne conditions
                        // partition the integers.
                        let mut seen: BTreeSet<zarf_core::Int> = BTreeSet::new();
                        for (i, b) in branches.iter().enumerate() {
                            let n = match b.pattern {
                                MPattern::Lit(n) => n,
                                MPattern::Con(_) => continue,
                            };
                            if !seen.insert(n) {
                                continue; // duplicate literal: first wins
                            }
                            let mut st2 = st.clone();
                            st2.lits.push(Lit::eq(t, n));
                            st2.arm_hits.push((f, ci, i));
                            self.eval_expr(f, &b.body, env.clone(), st2, depth, out);
                        }
                        let mut st2 = st;
                        for &n in &seen {
                            st2.lits.push(Lit::ne(t, n));
                        }
                        self.eval_expr(f, default, env, st2, depth, out);
                    }
                }
            }
        }
    }

    /// `applyCn`: direct constructor application.
    fn apply_cn(
        &mut self,
        f: u32,
        con: u32,
        arity: usize,
        args: Vec<SV>,
        st: PathState,
    ) -> (PathState, Option<SV>) {
        match args.len().cmp(&arity) {
            std::cmp::Ordering::Equal => (st, Some(SymVal::con(con, args))),
            std::cmp::Ordering::Less => (st, Some(SymVal::closure(CTarget::Item(con), args))),
            std::cmp::Ordering::Greater => {
                let mut st = st;
                st.faults.push((RuntimeError::ConOverApplied, f));
                (st, Some(SymVal::error(RuntimeError::ConOverApplied)))
            }
        }
    }

    /// `applyFn`, generalized and forking: apply a value to arguments,
    /// looping through over-application. Faults are attributed to `f`, the
    /// function whose body performs the application.
    fn apply(
        &mut self,
        f: u32,
        target: SV,
        mut args: Vec<SV>,
        st: PathState,
        depth: usize,
    ) -> AppRes {
        if !self.burn() {
            return vec![Self::truncated(st, Incompleteness::StepBudget)];
        }
        let (ctarget, applied) = match &*target {
            SymVal::Error(_) => return vec![(st, Some(target))],
            SymVal::Int(_) => {
                return if args.is_empty() {
                    vec![(st, Some(target))]
                } else {
                    let mut st = st;
                    st.faults.push((RuntimeError::ApplyToInt, f));
                    vec![(st, Some(SymVal::error(RuntimeError::ApplyToInt)))]
                };
            }
            SymVal::Con { .. } | SymVal::Opaque { .. } => {
                return if args.is_empty() {
                    vec![(st, Some(target))]
                } else {
                    let mut st = st;
                    st.faults.push((RuntimeError::ApplyToCon, f));
                    vec![(st, Some(SymVal::error(RuntimeError::ApplyToCon)))]
                };
            }
            SymVal::Closure { target, applied } => (*target, applied.clone()),
        };
        let arity = match ctarget {
            CTarget::Prim(op) => op.arity(),
            CTarget::Item(id) => match self.program.lookup(id) {
                Some(item) => item.arity,
                None => {
                    return vec![Self::truncated(st, Incompleteness::InvalidOperand)];
                }
            },
        };
        if applied.len() + args.len() < arity {
            let mut all = applied;
            all.extend(args);
            return vec![(st, Some(SymVal::closure(ctarget, all)))];
        }
        let need = arity - applied.len();
        let rest = args.split_off(need);
        let mut sat = applied;
        sat.append(&mut args);

        let invoked: AppRes = match ctarget {
            CTarget::Prim(op) => self.invoke_prim(f, op, &sat, st),
            CTarget::Item(id) => match self.program.lookup(id).map(|it| it.is_con()) {
                Some(true) => vec![self.apply_cn(f, id, arity, sat, st)],
                Some(false) => self.call_fun(id, sat, st, depth),
                None => vec![Self::truncated(st, Incompleteness::InvalidOperand)],
            },
        };
        if rest.is_empty() {
            return invoked;
        }
        // Over-application: keep applying each forked result.
        let mut out = AppRes::new();
        for (st2, val) in invoked {
            match val {
                Some(v) => out.extend(self.apply(f, v, rest.clone(), st2, depth)),
                None => out.push((st2, None)),
            }
        }
        out
    }

    /// Saturated primitive invocation, mirroring the evaluator's
    /// order-sensitive argument scan and forking on a symbolic divisor.
    fn invoke_prim(&mut self, f: u32, op: PrimOp, args: &[SV], st: PathState) -> AppRes {
        let mut ts = Vec::with_capacity(args.len());
        for a in args {
            match &**a {
                SymVal::Int(t) => ts.push(*t),
                // Error values flow through unchanged — no new fault.
                SymVal::Error(_) => return vec![(st, Some(a.clone()))],
                _ => {
                    let mut st = st;
                    st.faults.push((RuntimeError::PrimOnNonInt, f));
                    return vec![(st, Some(SymVal::error(RuntimeError::PrimOnNonInt)))];
                }
            }
        }
        match op {
            PrimOp::GetInt => {
                let (_, vt) = self.store.fresh_var();
                let mut st = st;
                st.reads.push((ts[0], vt));
                vec![(st, Some(SymVal::int(vt)))]
            }
            PrimOp::PutInt => vec![(st, Some(SymVal::int(ts[1])))],
            PrimOp::Gc => {
                let zero = self.store.constant(0);
                vec![(st, Some(SymVal::int(zero)))]
            }
            PrimOp::Div | PrimOp::Mod => {
                if let Some(d) = self.store.const_of(ts[1]) {
                    if d == 0 {
                        let mut st = st;
                        st.faults.push((RuntimeError::DivideByZero, f));
                        return vec![(st, Some(SymVal::error(RuntimeError::DivideByZero)))];
                    }
                    let t = self.store.app(op, ts);
                    return vec![(st, Some(SymVal::int(t)))];
                }
                // Symbolic divisor: partition on d == 0 / d != 0.
                let mut zst = st.clone();
                zst.lits.push(Lit::eq(ts[1], 0));
                zst.faults.push((RuntimeError::DivideByZero, f));
                let mut nst = st;
                nst.lits.push(Lit::ne(ts[1], 0));
                let t = self.store.app(op, ts);
                vec![
                    (zst, Some(SymVal::error(RuntimeError::DivideByZero))),
                    (nst, Some(SymVal::int(t))),
                ]
            }
            _ => {
                let t = self.store.app(op, ts);
                vec![(st, Some(SymVal::int(t)))]
            }
        }
    }

    /// Expand one opaque constructor from the envelope context's cells:
    /// every combination of per-field alternatives, capped. `Err` when
    /// full coverage is impossible — the caller truncates with the marker.
    fn expand_opaque(&mut self, tag: u32) -> Result<Vec<Vec<SV>>, Incompleteness> {
        let ctx = match &self.env_ctx {
            Some(c) => c.clone(),
            None => return Err(Incompleteness::OpaqueFields),
        };
        let arity = match self.program.lookup(tag) {
            Some(item) if item.is_con() => item.arity,
            _ => return Err(Incompleteness::EnvelopeGap),
        };
        let mut per_field: Vec<Vec<SV>> = Vec::with_capacity(arity);
        for i in 0..arity {
            let alts = match ctx.cells.get(&(tag, i)) {
                Some(a) if !a.is_empty() => a,
                // A never-written (or unknown) field: nothing to cover
                // the projection with.
                _ => return Err(Incompleteness::EnvelopeGap),
            };
            let mut vs: Vec<SV> = Vec::with_capacity(alts.len());
            for a in alts {
                vs.push(match a {
                    FieldAlt::AnyInt => {
                        let (_, t) = self.store.fresh_var();
                        SymVal::int(t)
                    }
                    FieldAlt::Const(n) => SymVal::int(self.store.constant(*n)),
                    FieldAlt::Tag(t) => materialize_tag(self.program, *t),
                    FieldAlt::Unknown(why) => return Err(*why),
                });
            }
            per_field.push(vs);
        }
        let (combos, over) = cross(&per_field, self.budget.max_expand_combos);
        if over {
            return Err(Incompleteness::OpaqueFields);
        }
        Ok(combos)
    }

    /// The loop-summary rule: a call to a function already on the symbolic
    /// call stack forks over the callee's abstract return alternatives
    /// instead of inlining. Sound in the envelope phase only: each
    /// activation of the summarized frame enters through an entry or
    /// call-site family and is covered by its own exploration, so the
    /// caller only needs an over-approximation of the *value* flowing
    /// back — which the shape fixpoint's return summary is. Faults and arm
    /// hits inside the summarized frame belong to those separately-covered
    /// activations, not to this path.
    fn summarize_recursive_call(&mut self, id: u32, st: PathState) -> AppRes {
        let ctx = match &self.env_ctx {
            Some(c) => c.clone(),
            None => return vec![Self::truncated(st, Incompleteness::CallDepth)],
        };
        let alts = match ctx.rets.get(&id) {
            Some(a) => a,
            None => return vec![Self::truncated(st, Incompleteness::EnvelopeGap)],
        };
        self.loop_fires += 1;
        let mut out = AppRes::new();
        for a in alts {
            match a {
                FieldAlt::AnyInt => {
                    let (_, t) = self.store.fresh_var();
                    out.push((st.clone(), Some(SymVal::int(t))));
                }
                FieldAlt::Const(n) => {
                    let t = self.store.constant(*n);
                    out.push((st.clone(), Some(SymVal::int(t))));
                }
                FieldAlt::Tag(t) => {
                    out.push((st.clone(), Some(materialize_tag(self.program, *t))));
                }
                FieldAlt::Unknown(why) => return vec![Self::truncated(st, *why)],
            }
        }
        // An empty alternative list is a ⊥ return: the fixpoint saw no
        // value come back, so the continuation is dead — zero paths.
        out
    }

    /// Call a user function: through a memoized shape-keyed summary when
    /// possible, inline otherwise. Under the envelope context, recursive
    /// calls are answered by [`Self::summarize_recursive_call`].
    fn call_fun(&mut self, id: u32, args: Vec<SV>, st: PathState, depth: usize) -> AppRes {
        if self.env_ctx.is_some() && self.stack.contains(&id) {
            return self.summarize_recursive_call(id, st);
        }
        if depth >= self.budget.max_depth {
            return vec![Self::truncated(st, Incompleteness::CallDepth)];
        }
        let body = match self.program.lookup(id).and_then(|it| it.body()) {
            Some(b) => b,
            None => return vec![Self::truncated(st, Incompleteness::InvalidOperand)],
        };
        if self.summaries.summarizable(id) {
            let keys: Option<Vec<ShapeKey>> = args.iter().map(shape_key).collect();
            if let Some(keys) = keys {
                // Tainted summaries embed envelope-phase loop summaries;
                // outside that phase they must be recomputed exactly.
                let allow_tainted = self.env_ctx.is_some();
                let summary = match self.summaries.lookup(id, &keys, allow_tainted) {
                    Some(s) => s,
                    None => self.compute_summary(id, body, &keys, depth),
                };
                return self.instantiate(summary, &args, st);
            }
        }
        let env = Env {
            args: Rc::new(args),
            locals: Vec::new(),
        };
        let mut out = AppRes::new();
        self.stack.push(id);
        self.eval_expr(id, body, env, st, depth + 1, &mut out);
        self.stack.pop();
        out
    }

    /// Explore a summarizable function over canonical arguments and cache
    /// the result.
    fn compute_summary(
        &mut self,
        id: u32,
        body: &'p MExpr,
        keys: &[ShapeKey],
        depth: usize,
    ) -> Rc<Summary> {
        let mut canon_vars = Vec::new();
        let mut cargs = Vec::with_capacity(keys.len());
        for k in keys {
            let (sv, vars) = canonical(&mut self.store, k);
            canon_vars.extend(vars);
            cargs.push(sv);
        }
        let env = Env {
            args: Rc::new(cargs),
            locals: Vec::new(),
        };
        // Summaries are context-free: the exploration starts from an empty
        // path state; call sites conjoin the (substituted) callee literals
        // onto their own condition.
        let fires_before = self.loop_fires;
        let mut res = AppRes::new();
        self.stack.push(id);
        self.eval_expr(id, body, env, PathState::default(), depth + 1, &mut res);
        self.stack.pop();
        let mut paths: Vec<SummaryPath> = Vec::with_capacity(res.len());
        let over = res.len() > self.budget.max_summary_paths;
        for (st, val) in res.into_iter().take(self.budget.max_summary_paths) {
            paths.push(SummaryPath {
                lits: st.lits,
                faults: st.faults,
                arm_hits: st.arm_hits,
                incomplete: st.incomplete,
                val,
            });
        }
        if over {
            // Dropped paths must not silently narrow coverage.
            let mut inc = BTreeSet::new();
            inc.insert(Incompleteness::PathBudget);
            paths.push(SummaryPath {
                lits: Vec::new(),
                faults: Vec::new(),
                arm_hits: Vec::new(),
                incomplete: inc,
                val: None,
            });
        }
        self.summaries.insert(
            id,
            keys.to_vec(),
            Summary {
                canon_vars,
                paths,
                tainted: self.loop_fires > fires_before,
            },
        )
    }

    /// Replay a cached summary at a call site: substitute the site's leaf
    /// terms for the canonical variables in every path.
    fn instantiate(&mut self, summary: Rc<Summary>, args: &[SV], st: PathState) -> AppRes {
        let mut leaves = Vec::new();
        for a in args {
            if leaf_terms(a, &mut leaves).is_none() {
                // Guarded by the shape-key check in call_fun.
                return vec![Self::truncated(st, Incompleteness::InvalidOperand)];
            }
        }
        let map: BTreeMap<u32, TermId> = summary.canon_vars.iter().copied().zip(leaves).collect();
        let mut memo: HashMap<TermId, TermId> = HashMap::new();
        let mut out = AppRes::new();
        'paths: for p in &summary.paths {
            if !self.burn() {
                out.push(Self::truncated(st.clone(), Incompleteness::StepBudget));
                break;
            }
            let mut st2 = st.clone();
            for l in &p.lits {
                let t = self.store.subst(l.term, &map, &mut memo);
                if let Some(c) = self.store.const_of(t) {
                    // The substitution grounded this literal: decide it now.
                    if l.eq != (c == l.rhs) {
                        continue 'paths; // path infeasible at this site
                    }
                    continue; // tautology: drop
                }
                st2.lits.push(Lit {
                    term: t,
                    eq: l.eq,
                    rhs: l.rhs,
                });
            }
            st2.faults.extend(p.faults.iter().copied());
            st2.arm_hits.extend(p.arm_hits.iter().copied());
            st2.incomplete.extend(p.incomplete.iter().copied());
            let val = p
                .val
                .as_ref()
                .map(|v| subst_sv(&mut self.store, v, &map, &mut memo));
            out.push((st2, val));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve::{solve, Verdict};
    use zarf_asm::{lower, parse};

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

    fn fresh_int(ex: &mut Exec<'_>) -> SV {
        let (_, t) = ex.store.fresh_var();
        SymVal::int(t)
    }

    #[test]
    fn straight_line_arithmetic_is_one_path() {
        let m = machine(
            "fun f a =\n let x = add a 1 in\n let y = mul x x in\n result y\n\
             fun main =\n result 0\n",
        );
        let f = by_name(&m, "f");
        let mut ex = Exec::new(&m, SymexBudget::default());
        let a = fresh_int(&mut ex);
        let out = ex.explore(f, vec![a]);
        assert_eq!(out.len(), 1);
        assert!(out[0].val.is_some());
        assert!(out[0].st.lits.is_empty());
        assert!(out[0].st.incomplete.is_empty());
    }

    #[test]
    fn symbolic_case_partitions() {
        let m = machine(
            "fun f a =\n case a of\n | 0 => result 10\n | 1 => result 11\n else result 12\n\
             fun main =\n result 0\n",
        );
        let f = by_name(&m, "f");
        let mut ex = Exec::new(&m, SymexBudget::default());
        let a = fresh_int(&mut ex);
        let out = ex.explore(f, vec![a]);
        // Three partitions: a==0, a==1, a∉{0,1}.
        assert_eq!(out.len(), 3);
        assert!(out
            .iter()
            .all(|o| o.val.is_some() && o.st.incomplete.is_empty()));
        let with_arm: Vec<_> = out.iter().filter(|o| !o.st.arm_hits.is_empty()).collect();
        assert_eq!(with_arm.len(), 2);
        assert!(with_arm.iter().any(|o| o.st.arm_hits == [(f, 0, 0)]));
        assert!(with_arm.iter().any(|o| o.st.arm_hits == [(f, 0, 1)]));
    }

    #[test]
    fn symbolic_divisor_forks_a_fault_path() {
        let m = machine(
            "fun f a =\n let x = div 10 a in\n result x\n\
             fun main =\n result 0\n",
        );
        let f = by_name(&m, "f");
        let mut ex = Exec::new(&m, SymexBudget::default());
        let a = fresh_int(&mut ex);
        let out = ex.explore(f, vec![a]);
        assert_eq!(out.len(), 2);
        assert!(out.iter().any(|o| o.faulted(f, 1)));
        assert!(out.iter().any(|o| o.st.faults.is_empty()));
    }

    #[test]
    fn guarded_division_has_no_feasible_fault() {
        // The executor keeps the guarded zero-divisor fork; its condition
        // (a != 0 && a == 0) is what `solve` proves unsatisfiable.
        let m = machine(
            "fun f a =\n case a of\n | 0 => result 0\n else\n  let x = div 10 a in\n  result x\n\
             fun main =\n result 0\n",
        );
        let f = by_name(&m, "f");
        let mut ex = Exec::new(&m, SymexBudget::default());
        let a = fresh_int(&mut ex);
        let out = ex.explore(f, vec![a]);
        // a == 0, then a != 0 split on the divisor.
        assert_eq!(out.len(), 3, "{out:?}");
        assert!(out.iter().all(|o| o.st.incomplete.is_empty()));
        let faults: Vec<_> = out.iter().filter(|o| o.faulted(f, 1)).collect();
        assert_eq!(faults.len(), 1, "{out:?}");
        let verdict = |o: &Outcome| solve(&ex.store, &o.st.lits, ex.budget.solver_effort);
        assert_eq!(verdict(faults[0]), Verdict::Unsat);
        for o in out.iter().filter(|o| !o.faulted(f, 1)) {
            assert!(matches!(verdict(o), Verdict::Sat(_)), "{o:?}");
        }
    }

    #[test]
    fn con_args_dispatch_concretely_and_prims_fault() {
        let m = machine(
            "con Box v\n\
             fun f b =\n case b of\n | Box v =>\n  let x = add v 1 in\n  result x\n else result 0\n\
             fun g b =\n let x = div b 2 in\n result x\n\
             fun main =\n result 0\n",
        );
        let f = by_name(&m, "f");
        let g = by_name(&m, "g");
        let boxid = by_name(&m, "Box");
        let mut ex = Exec::new(&m, SymexBudget::default());
        let inner = fresh_int(&mut ex);
        let b = SymVal::con(boxid, vec![inner]);
        let out = ex.explore(f, vec![b.clone()]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].st.arm_hits, [(f, 0, 0)]);

        // div on a constructor: prim-on-non-int (code 7), no fork.
        let out = ex.explore(g, vec![b]);
        assert_eq!(out.len(), 1);
        assert!(out[0].faulted(g, 7));
    }

    #[test]
    fn apply_faults_mirror_the_evaluator() {
        let m = machine(
            "con Pair a b\n\
             fun callint a =\n let x = a 1 in\n result x\n\
             fun overcon =\n let p = Pair 1 2 3 in\n result p\n\
             fun casec =\n let c = add 1 in\n case c of\n | 0 => result 0\n else result 1\n\
             fun main =\n result 0\n",
        );
        let mut ex = Exec::new(&m, SymexBudget::default());
        let callint = by_name(&m, "callint");
        let a = fresh_int(&mut ex);
        let out = ex.explore(callint, vec![a]);
        assert!(out[0].faulted(callint, 2), "apply-to-int: {out:?}");

        let overcon = by_name(&m, "overcon");
        let out = ex.explore(overcon, vec![]);
        assert!(out[0].faulted(overcon, 5), "con-over-applied: {out:?}");

        let casec = by_name(&m, "casec");
        let out = ex.explore(casec, vec![]);
        assert!(out[0].faulted(casec, 4), "case-on-closure: {out:?}");
    }

    #[test]
    fn errors_flow_as_values_without_new_faults() {
        // x = div 1 0 constructs code 1 once; add x 1 then *propagates*
        // the error without constructing anything new; case on the error
        // returns it.
        let m = machine(
            "fun f =\n let x = div 1 0 in\n let y = add x 1 in\n case y of\n | 0 => result 0\n else result y\n\
             fun main =\n result 0\n",
        );
        let f = by_name(&m, "f");
        let mut ex = Exec::new(&m, SymexBudget::default());
        let out = ex.explore(f, vec![]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].st.faults, [(RuntimeError::DivideByZero, f)]);
        assert!(matches!(
            out[0].val.as_deref(),
            Some(SymVal::Error(RuntimeError::DivideByZero))
        ));
    }

    #[test]
    fn getint_reads_are_recorded_in_order() {
        let m = machine(
            "fun f =\n let a = getint 3 in\n let b = getint 4 in\n let c = add a b in\n result c\n\
             fun main =\n result 0\n",
        );
        let f = by_name(&m, "f");
        let mut ex = Exec::new(&m, SymexBudget::default());
        let out = ex.explore(f, vec![]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].st.reads.len(), 2);
        let p0 = ex.store.const_of(out[0].st.reads[0].0);
        let p1 = ex.store.const_of(out[0].st.reads[1].0);
        assert_eq!((p0, p1), (Some(3), Some(4)));
    }

    #[test]
    fn summaries_hit_on_repeated_shape() {
        let m = machine(
            "fun inc a =\n let x = add a 1 in\n result x\n\
             fun f a b c =\n let x = inc a in\n let y = inc b in\n let z = inc c in\n \
             let s = add x y in\n let t = add s z in\n result t\n\
             fun main =\n result 0\n",
        );
        let f = by_name(&m, "f");
        let mut ex = Exec::new(&m, SymexBudget::default());
        let (a, b, c) = (fresh_int(&mut ex), fresh_int(&mut ex), fresh_int(&mut ex));
        let out = ex.explore(f, vec![a, b, c]);
        assert_eq!(out.len(), 1);
        // Two misses: `f` itself (the entry is summarizable) and `inc`.
        assert_eq!(ex.summaries.misses, 2, "inc summarized once, f once");
        assert_eq!(ex.summaries.hits, 2, "two reuses of inc");
    }

    #[test]
    fn summary_instantiation_rewrites_fault_conditions() {
        // half x = div 10 x — summarized with a canonical variable; the
        // call site pins x to a constant, so the summary's fault branch
        // must ground correctly both ways.
        let m = machine(
            "fun half x =\n let r = div 10 x in\n result r\n\
             fun callz =\n let r = half 0 in\n result r\n\
             fun callok =\n let r = half 5 in\n result r\n\
             fun main =\n result 0\n",
        );
        let half = by_name(&m, "half");
        let mut ex = Exec::new(&m, SymexBudget::default());
        let out = ex.explore(by_name(&m, "callz"), vec![]);
        assert_eq!(out.len(), 1, "x==0 grounds: only the fault path: {out:?}");
        assert!(out[0].faulted(half, 1));
        let out = ex.explore(by_name(&m, "callok"), vec![]);
        assert_eq!(out.len(), 1, "x==5 grounds: only the ok path: {out:?}");
        assert!(out[0].st.faults.is_empty());
        // Misses: callz, half, callok. Hit: half at the second site.
        assert_eq!(ex.summaries.misses, 3);
        assert_eq!(ex.summaries.hits, 1);
    }

    #[test]
    fn recursion_terminates_with_typed_budget() {
        let m = machine(
            "fun spin a =\n let x = spin a in\n result x\n\
             fun main =\n result 0\n",
        );
        let spin = by_name(&m, "spin");
        let mut ex = Exec::new(&m, SymexBudget::small());
        let a = fresh_int(&mut ex);
        let out = ex.explore(spin, vec![a]);
        assert!(!out.is_empty());
        assert!(out.iter().all(|o| o.val.is_none()));
        assert!(out.iter().any(|o| {
            o.st.incomplete.contains(&Incompleteness::CallDepth)
                || o.st.incomplete.contains(&Incompleteness::StepBudget)
        }));
    }

    #[test]
    fn over_application_loops_through_results() {
        // pick returns a closure (add 1); f applies pick's result to a
        // second argument in one let.
        let m = machine(
            "fun pick =\n let c = add 1 in\n result c\n\
             fun f b =\n let x = pick b in\n result x\n\
             fun main =\n result 0\n",
        );
        let f = by_name(&m, "f");
        let mut ex = Exec::new(&m, SymexBudget::default());
        let b = fresh_int(&mut ex);
        let out = ex.explore(f, vec![b]);
        assert_eq!(out.len(), 1);
        // add 1 b — an Int result, no fault.
        assert!(out[0].st.faults.is_empty());
        assert!(matches!(out[0].val.as_deref(), Some(SymVal::Int(_))));
    }
}
