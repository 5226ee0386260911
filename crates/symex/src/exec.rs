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

use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use zarf_core::error::RuntimeError;
use zarf_core::machine::{MExpr, MPattern, MProgram, Operand, Source};
use zarf_core::prim::PrimOp;

use crate::budget::{Incompleteness, SymexBudget};
use crate::seed::{materialize_tag, EnvCtx, FieldAlt};
use crate::solve::Lit;
use crate::summary::{Summaries, Summary, SummaryPath};
use crate::term::{IdMap, TermId, TermStore};
use crate::value::{
    canonical, leaf_terms, shape_key, subst_sv, CTarget, Payload, ShapeKey, SymVal,
};

/// The case arms a path has taken, one bit per arm in the program's
/// dense arm numbering ([`Exec::arm_bit`]). A set, not a sequence: the
/// only question asked of it is whether one arm was taken, and a kernel
/// loop takes the same few dozen arms over and over. Copy-on-write: a
/// fork shares its parent's words and copies them only when it takes an
/// arm the parent had not.
#[derive(Debug, Clone, Default)]
pub struct ArmSet(Rc<Vec<u64>>);

impl ArmSet {
    /// Whether arm `bit` was taken.
    pub fn contains(&self, bit: u32) -> bool {
        let (w, m) = word_mask(bit);
        self.0.get(w).is_some_and(|x| x & m != 0)
    }

    /// Record arm `bit` as taken.
    pub(crate) fn insert(&mut self, bit: u32) {
        if self.contains(bit) {
            return;
        }
        let (w, m) = word_mask(bit);
        let words = Rc::make_mut(&mut self.0);
        if words.len() <= w {
            words.resize(w + 1, 0);
        }
        words[w] |= m;
    }

    /// Add every arm of `other`.
    pub(crate) fn union(&mut self, other: &ArmSet) {
        let covered = other
            .0
            .iter()
            .enumerate()
            .all(|(w, &x)| self.0.get(w).copied().unwrap_or(0) & x == x);
        if covered {
            return;
        }
        let words = Rc::make_mut(&mut self.0);
        if words.len() < other.0.len() {
            words.resize(other.0.len(), 0);
        }
        for (a, b) in words.iter_mut().zip(other.0.iter()) {
            *a |= b;
        }
    }

    /// Number of arms taken.
    pub fn len(&self) -> usize {
        self.0.iter().map(|x| x.count_ones() as usize).sum()
    }

    /// Whether no arm was taken.
    pub fn is_empty(&self) -> bool {
        self.0.iter().all(|&x| x == 0)
    }
}

fn word_mask(bit: u32) -> (usize, u64) {
    ((bit / 64) as usize, 1 << (bit % 64))
}

/// One dense numbering of every case arm in the program: each `case`
/// node owns a run of consecutive bits, one per branch. Cases are
/// numbered pre-order over each body, the order the shape analysis
/// gives its `case_index`.
#[derive(Debug, Default)]
struct ArmTable {
    /// `(case node address, first arm bit)`, sorted by address. Node
    /// addresses are stable for the borrowed program.
    by_node: Vec<(usize, u32)>,
    /// Per function, `(first arm bit, arm count)` of each case by its
    /// pre-order index.
    by_fun: BTreeMap<u32, Vec<(u32, u32)>>,
}

impl ArmTable {
    fn new(program: &MProgram) -> Self {
        let mut t = ArmTable::default();
        let mut next = 0u32;
        for (n, item) in program.items().iter().enumerate() {
            let Some(body) = item.body() else { continue };
            let mut cases = Vec::new();
            body.walk(&mut |e| {
                if let MExpr::Case { branches, .. } = e {
                    let arms = branches.len() as u32;
                    t.by_node.push((e as *const MExpr as usize, next));
                    cases.push((next, arms));
                    next += arms;
                }
            });
            t.by_fun.insert(program.id_of(n), cases);
        }
        t.by_node.sort_unstable();
        t
    }

    /// The first arm bit of a case node of the program.
    fn first_bit(&self, case: &MExpr) -> Option<u32> {
        let addr = case as *const MExpr as usize;
        self.by_node
            .binary_search_by_key(&addr, |&(a, _)| a)
            .ok()
            .map(|i| self.by_node[i].1)
    }

    fn bit(&self, f: u32, case_index: usize, arm_index: usize) -> Option<u32> {
        let &(first, arms) = self.by_fun.get(&f)?.get(case_index)?;
        let arm = u32::try_from(arm_index).ok().filter(|&a| a < arms)?;
        Some(first + arm)
    }
}

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
    /// Case arms taken, shared with the path's forks until one of them
    /// takes a new arm.
    pub arm_hits: ArmSet,
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
    pub val: Option<SymVal>,
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

/// The paths one application produced, in exploration order. Every
/// executor step pushes its results into a buffer its caller owns.
type AppRes = Vec<(PathState, Option<SymVal>)>;

/// The largest buffer kept for reuse. One that grew past it (a wide
/// fork, a long summary) is freed instead, so it does not stay allocated
/// for the rest of the run.
const SPARE_CAP: usize = 16;

#[derive(Debug, Clone, Default)]
struct Env {
    args: Payload,
    locals: Vec<SymVal>,
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
    arms: ArmTable,
    /// The envelope context, when the envelope phase is active: enables
    /// lazy opaque expansion and recursion loop-summaries.
    env_ctx: Option<Rc<EnvCtx>>,
    /// The inline symbolic call stack (function identifiers of bodies
    /// currently being explored), for recursion detection.
    stack: Vec<u32>,
    /// How many recursion loop-summaries have fired (taint tracking).
    loop_fires: u64,
    /// Emptied result buffers, reused by `let` and over-application so a
    /// step does not allocate one per application.
    spare_res: Vec<AppRes>,
    /// Emptied value buffers, reused for `let` arguments and saturated
    /// argument lists.
    spare_vals: Vec<Vec<SymVal>>,
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
            arms: ArmTable::new(program),
            env_ctx: None,
            stack: Vec::new(),
            loop_fires: 0,
            spare_res: Vec::new(),
            spare_vals: Vec::new(),
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
    pub fn explore(&mut self, f: u32, args: &[SymVal]) -> Vec<Outcome> {
        self.steps_left = self.budget.max_steps;
        self.paths_done = 0;
        self.stack.clear();
        let mut res = AppRes::new();
        self.apply_target(
            f,
            CTarget::Item(f),
            &[],
            args,
            PathState::default(),
            &mut res,
        );
        self.total_steps += self.budget.max_steps - self.steps_left;
        let out: Vec<Outcome> = res
            .into_iter()
            .map(|(st, val)| Outcome { st, val })
            .collect();
        self.total_paths += out.iter().filter(|o| o.val.is_some()).count() as u64;
        out
    }

    /// The bit of arm `arm_index` of function `f`'s case number
    /// `case_index` (pre-order, as the shape analysis numbers cases) in
    /// every path's [`ArmSet`]; `None` when there is no such arm.
    pub fn arm_bit(&self, f: u32, case_index: usize, arm_index: usize) -> Option<u32> {
        self.arms.bit(f, case_index, arm_index)
    }

    fn burn(&mut self) -> bool {
        if self.steps_left == 0 {
            return false;
        }
        self.steps_left -= 1;
        true
    }

    fn truncated(st: PathState, why: Incompleteness) -> (PathState, Option<SymVal>) {
        let mut st = st;
        st.incomplete.insert(why);
        (st, None)
    }

    /// A faulting step: record `e` as constructed in `f`'s body and
    /// return the error value.
    fn fault(f: u32, e: RuntimeError, st: PathState) -> (PathState, Option<SymVal>) {
        let mut st = st;
        st.faults.push((e, f));
        (st, Some(SymVal::Error(e)))
    }

    fn take_res(&mut self) -> AppRes {
        self.spare_res.pop().unwrap_or_default()
    }

    fn give_res(&mut self, mut buf: AppRes) {
        if buf.capacity() <= SPARE_CAP {
            buf.clear();
            self.spare_res.push(buf);
        }
    }

    fn take_vals(&mut self) -> Vec<SymVal> {
        self.spare_vals.pop().unwrap_or_default()
    }

    fn give_vals(&mut self, mut buf: Vec<SymVal>) {
        if buf.capacity() <= SPARE_CAP {
            buf.clear();
            self.spare_vals.push(buf);
        }
    }

    fn resolve(&mut self, env: &Env, op: Operand) -> Result<SymVal, Incompleteness> {
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
            Source::Imm => Ok(SymVal::Int(self.store.constant(op.index))),
            Source::Global => {
                let id = op.index as u32;
                if let Some(p) = op.as_prim() {
                    return Ok(SymVal::closure(CTarget::Prim(p), &[]));
                }
                match self.program.lookup(id) {
                    Some(item) if item.is_con() && item.arity == 0 => {
                        // A nullary constructor forces straight to its
                        // saturated value (the hardware's WHNF rule).
                        Ok(SymVal::con(id, &[]))
                    }
                    Some(item) if !item.is_con() && item.arity == 0 => {
                        // A nullary *function* as a data operand is a lazy
                        // thunk on the hardware; the eager reference
                        // semantics (and the lifter) reject it.
                        Err(Incompleteness::GlobalThunk)
                    }
                    Some(_) => Ok(SymVal::closure(CTarget::Item(id), &[])),
                    None => Err(Incompleteness::InvalidOperand),
                }
            }
        }
    }

    /// Evaluate a `let`/`case`/`result` spine inside function `f`.
    fn eval_expr(&mut self, f: u32, expr: &'p MExpr, env: Env, st: PathState, out: &mut AppRes) {
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
                let mut argv = self.take_vals();
                for a in args {
                    match self.resolve(&env, *a) {
                        Ok(v) => argv.push(v),
                        Err(why) => {
                            self.give_vals(argv);
                            out.push(Self::truncated(st, why));
                            return;
                        }
                    }
                }
                let mut applied = self.take_res();
                self.apply_callee(f, *callee, &env, &argv, st, &mut applied);
                self.give_vals(argv);
                // Every result but the last continues on a copy of `env`;
                // the last takes `env` itself, so a single result (the
                // common case) copies nothing.
                let last = applied.pop();
                for (st2, val) in applied.drain(..) {
                    match val {
                        Some(v) => {
                            let mut env2 = env.clone();
                            env2.locals.push(v);
                            self.eval_expr(f, body, env2, st2, out);
                        }
                        None => out.push((st2, None)),
                    }
                }
                self.give_res(applied);
                match last {
                    Some((st2, Some(v))) => {
                        let mut env = env;
                        env.locals.push(v);
                        self.eval_expr(f, body, env, st2, out);
                    }
                    Some((st2, None)) => out.push((st2, None)),
                    None => {}
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
                // Every case node of every body is numbered.
                let first = self.arms.first_bit(expr).unwrap_or(0);
                match v {
                    SymVal::Error(_) => {
                        // (case-else2): an error scrutinee is the result.
                        out.push((st, Some(v)));
                    }
                    SymVal::Closure { .. } => {
                        out.push(Self::fault(f, RuntimeError::CaseOnClosure, st));
                    }
                    SymVal::Con { tag, fields } => {
                        // Tags are concrete: exactly one branch (or the
                        // default) matches — no fork.
                        let hit = branches
                            .iter()
                            .enumerate()
                            .find_map(|(i, b)| match b.pattern {
                                MPattern::Con(id) if id == tag => Some((i, &b.body)),
                                _ => None,
                            });
                        match hit {
                            Some((i, body)) => {
                                let mut st = st;
                                st.arm_hits.insert(first + i as u32);
                                let mut env2 = env;
                                env2.locals.extend_from_slice(&fields);
                                self.eval_expr(f, body, env2, st, out);
                            }
                            None => self.eval_expr(f, default, env, st, out),
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
                        let hit = branches
                            .iter()
                            .enumerate()
                            .find_map(|(i, b)| match b.pattern {
                                MPattern::Con(id) if id == tag => Some((i, &b.body)),
                                _ => None,
                            });
                        match hit {
                            Some((i, body)) => {
                                let mut combos = self.take_vals();
                                match self.expand_opaque(tag, &mut combos) {
                                    Ok(count) => {
                                        let arity = combos.len() / count.max(1);
                                        for c in 0..count {
                                            let fields = combos
                                                .get(c * arity..(c + 1) * arity)
                                                .unwrap_or_default();
                                            let mut st2 = st.clone();
                                            st2.arm_hits.insert(first + i as u32);
                                            let mut env2 = env.clone();
                                            env2.locals.extend_from_slice(fields);
                                            self.eval_expr(f, body, env2, st2, out);
                                        }
                                    }
                                    Err(why) => out.push(Self::truncated(st, why)),
                                }
                                self.give_vals(combos);
                            }
                            None => self.eval_expr(f, default, env, st, out),
                        }
                    }
                    SymVal::Int(t) => {
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
                                    st.arm_hits.insert(first + i as u32);
                                    self.eval_expr(f, body, env, st, out);
                                }
                                None => self.eval_expr(f, default, env, st, out),
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
                            st2.arm_hits.insert(first + i as u32);
                            self.eval_expr(f, &b.body, env.clone(), st2, out);
                        }
                        let mut st2 = st;
                        for &n in &seen {
                            st2.lits.push(Lit::ne(t, n));
                        }
                        self.eval_expr(f, default, env, st2, out);
                    }
                }
            }
        }
    }

    /// Dispatch a `let` callee on its resolved arguments. A global callee
    /// applies directly, with no closure built for it.
    fn apply_callee(
        &mut self,
        f: u32,
        callee: Operand,
        env: &Env,
        args: &[SymVal],
        st: PathState,
        out: &mut AppRes,
    ) {
        match callee.source {
            Source::Global => {
                let id = callee.index as u32;
                if let Some(p) = callee.as_prim() {
                    return self.apply_target(f, CTarget::Prim(p), &[], args, st, out);
                }
                match self.program.lookup(id) {
                    // Direct constructor application (`applyCn`):
                    // saturate, wrap, or fault.
                    Some(item) if item.is_con() => self.apply_cn(f, id, item.arity, args, st, out),
                    Some(_) => self.apply_target(f, CTarget::Item(id), &[], args, st, out),
                    None => out.push(Self::truncated(st, Incompleteness::InvalidOperand)),
                }
            }
            Source::Imm => {
                // An immediate callee is an integer target.
                let v = SymVal::Int(self.store.constant(callee.index));
                self.apply(f, &v, args, st, out)
            }
            Source::Local | Source::Arg => match self.resolve(env, callee) {
                Ok(target) => self.apply(f, &target, args, st, out),
                Err(why) => out.push(Self::truncated(st, why)),
            },
        }
    }

    /// `applyCn`: direct constructor application.
    fn apply_cn(
        &mut self,
        f: u32,
        con: u32,
        arity: usize,
        args: &[SymVal],
        st: PathState,
        out: &mut AppRes,
    ) {
        out.push(match args.len().cmp(&arity) {
            std::cmp::Ordering::Equal => (st, Some(SymVal::con(con, args))),
            std::cmp::Ordering::Less => (st, Some(SymVal::closure(CTarget::Item(con), args))),
            std::cmp::Ordering::Greater => Self::fault(f, RuntimeError::ConOverApplied, st),
        });
    }

    /// `applyFn`, generalized and forking: apply a value to arguments,
    /// looping through over-application. Faults are attributed to `f`, the
    /// function whose body performs the application.
    fn apply(&mut self, f: u32, target: &SymVal, args: &[SymVal], st: PathState, out: &mut AppRes) {
        if let SymVal::Closure { target, applied } = target {
            return self.apply_target(f, *target, applied, args, st, out);
        }
        if !self.burn() {
            return out.push(Self::truncated(st, Incompleteness::StepBudget));
        }
        out.push(match target {
            SymVal::Int(_) if !args.is_empty() => Self::fault(f, RuntimeError::ApplyToInt, st),
            SymVal::Con { .. } | SymVal::Opaque { .. } if !args.is_empty() => {
                Self::fault(f, RuntimeError::ApplyToCon, st)
            }
            _ => (st, Some(target.clone())),
        });
    }

    /// [`Self::apply`] on a closure's parts: `target` with `applied`
    /// already applied, now applied to `args`.
    fn apply_target(
        &mut self,
        f: u32,
        target: CTarget,
        applied: &[SymVal],
        args: &[SymVal],
        st: PathState,
        out: &mut AppRes,
    ) {
        if !self.burn() {
            return out.push(Self::truncated(st, Incompleteness::StepBudget));
        }
        let arity = match target {
            CTarget::Prim(op) => op.arity(),
            CTarget::Item(id) => match self.program.lookup(id) {
                Some(item) => item.arity,
                None => return out.push(Self::truncated(st, Incompleteness::InvalidOperand)),
            },
        };
        if applied.len() + args.len() < arity {
            let all = applied.iter().chain(args).cloned().collect();
            return out.push((
                st,
                Some(SymVal::Closure {
                    target,
                    applied: all,
                }),
            ));
        }
        let need = arity.saturating_sub(applied.len()).min(args.len());
        let (now, rest) = args.split_at(need);
        let mut joined = None;
        let sat = if applied.is_empty() {
            now
        } else {
            let buf = joined.insert(self.take_vals());
            buf.extend_from_slice(applied);
            buf.extend_from_slice(now);
            &buf[..]
        };
        if rest.is_empty() {
            self.invoke(f, target, sat, st, out);
        } else {
            // Over-application: keep applying each forked result.
            let mut invoked = self.take_res();
            self.invoke(f, target, sat, st, &mut invoked);
            for (st2, val) in invoked.drain(..) {
                match val {
                    Some(v) => self.apply(f, &v, rest, st2, out),
                    None => out.push((st2, None)),
                }
            }
            self.give_res(invoked);
        }
        if let Some(buf) = joined {
            self.give_vals(buf);
        }
    }

    /// Run a saturated application of `target`.
    fn invoke(&mut self, f: u32, target: CTarget, sat: &[SymVal], st: PathState, out: &mut AppRes) {
        match target {
            CTarget::Prim(op) => self.invoke_prim(f, op, sat, st, out),
            CTarget::Item(id) => match self.program.lookup(id) {
                Some(item) if item.is_con() => self.apply_cn(f, id, item.arity, sat, st, out),
                Some(_) => self.call_fun(id, sat, st, out),
                None => out.push(Self::truncated(st, Incompleteness::InvalidOperand)),
            },
        }
    }

    /// Saturated primitive invocation, mirroring the evaluator's
    /// order-sensitive argument scan and forking on a symbolic divisor.
    fn invoke_prim(
        &mut self,
        f: u32,
        op: PrimOp,
        args: &[SymVal],
        st: PathState,
        out: &mut AppRes,
    ) {
        // No primitive takes more than two operands.
        let mut ts: [TermId; 2] = [0; 2];
        for (i, a) in args.iter().enumerate() {
            match a {
                SymVal::Int(t) => {
                    if let Some(slot) = ts.get_mut(i) {
                        *slot = *t;
                    }
                }
                // Error values flow through unchanged — no new fault.
                SymVal::Error(_) => return out.push((st, Some(a.clone()))),
                _ => return out.push(Self::fault(f, RuntimeError::PrimOnNonInt, st)),
            }
        }
        let operands = &ts[..args.len().min(ts.len())];
        match op {
            PrimOp::GetInt => {
                let (_, vt) = self.store.fresh_var();
                let mut st = st;
                st.reads.push((ts[0], vt));
                out.push((st, Some(SymVal::Int(vt))));
            }
            PrimOp::PutInt => out.push((st, Some(SymVal::Int(ts[1])))),
            PrimOp::Gc => {
                let zero = self.store.constant(0);
                out.push((st, Some(SymVal::Int(zero))));
            }
            PrimOp::Div | PrimOp::Mod => {
                if let Some(d) = self.store.const_of(ts[1]) {
                    if d == 0 {
                        return out.push(Self::fault(f, RuntimeError::DivideByZero, st));
                    }
                    let t = self.store.app(op, operands);
                    return out.push((st, Some(SymVal::Int(t))));
                }
                // Symbolic divisor: partition on d == 0 / d != 0.
                let mut zst = st.clone();
                zst.lits.push(Lit::eq(ts[1], 0));
                let mut nst = st;
                nst.lits.push(Lit::ne(ts[1], 0));
                let t = self.store.app(op, operands);
                out.push(Self::fault(f, RuntimeError::DivideByZero, zst));
                out.push((nst, Some(SymVal::Int(t))));
            }
            _ => {
                let t = self.store.app(op, operands);
                out.push((st, Some(SymVal::Int(t))));
            }
        }
    }

    /// Expand one opaque constructor from the envelope context's cells:
    /// every combination of per-field alternatives, capped, appended to
    /// `combos` field by field in mixed-radix order (the last field
    /// varies fastest). Returns how many combinations it appended. `Err`
    /// when full coverage is impossible — the caller truncates with the
    /// marker.
    fn expand_opaque(
        &mut self,
        tag: u32,
        combos: &mut Vec<SymVal>,
    ) -> Result<usize, Incompleteness> {
        let ctx = match &self.env_ctx {
            Some(c) => c.clone(),
            None => return Err(Incompleteness::OpaqueFields),
        };
        let arity = match self.program.lookup(tag) {
            Some(item) if item.is_con() => item.arity,
            _ => return Err(Incompleteness::EnvelopeGap),
        };
        // Every field's alternatives, one after another, and per field
        // `(first alternative, alternatives, the one taken now)`.
        let mut alts: Vec<SymVal> = Vec::new();
        let mut digits: Vec<(usize, usize, usize)> = Vec::with_capacity(arity);
        for i in 0..arity {
            let cell = match ctx.cells.get(&(tag, i)) {
                Some(a) if !a.is_empty() => a,
                // A never-written (or unknown) field: nothing to cover
                // the projection with.
                _ => return Err(Incompleteness::EnvelopeGap),
            };
            digits.push((alts.len(), cell.len(), 0));
            for a in cell {
                alts.push(match a {
                    FieldAlt::AnyInt => {
                        let (_, t) = self.store.fresh_var();
                        SymVal::Int(t)
                    }
                    FieldAlt::Const(n) => SymVal::Int(self.store.constant(*n)),
                    FieldAlt::Tag(t) => materialize_tag(self.program, *t),
                    FieldAlt::Unknown(why) => return Err(*why),
                });
            }
        }
        let count = digits
            .iter()
            .try_fold(1usize, |n, &(_, len, _)| n.checked_mul(len))
            .filter(|&n| n <= self.budget.max_expand_combos)
            .ok_or(Incompleteness::OpaqueFields)?;
        for _ in 0..count {
            combos.extend(
                digits
                    .iter()
                    .filter_map(|&(first, _, d)| alts.get(first + d).cloned()),
            );
            for (_, len, d) in digits.iter_mut().rev() {
                *d += 1;
                if *d < *len {
                    break;
                }
                *d = 0;
            }
        }
        Ok(count)
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
    fn summarize_recursive_call(&mut self, id: u32, st: PathState, out: &mut AppRes) {
        let ctx = match &self.env_ctx {
            Some(c) => c.clone(),
            None => return out.push(Self::truncated(st, Incompleteness::CallDepth)),
        };
        let alts = match ctx.rets.get(&id) {
            Some(a) => a,
            None => return out.push(Self::truncated(st, Incompleteness::EnvelopeGap)),
        };
        self.loop_fires += 1;
        let start = out.len();
        for a in alts {
            let v = match a {
                FieldAlt::AnyInt => SymVal::Int(self.store.fresh_var().1),
                FieldAlt::Const(n) => SymVal::Int(self.store.constant(*n)),
                FieldAlt::Tag(t) => materialize_tag(self.program, *t),
                FieldAlt::Unknown(why) => {
                    // One unknown alternative voids the whole fork.
                    out.truncate(start);
                    return out.push(Self::truncated(st, *why));
                }
            };
            out.push((st.clone(), Some(v)));
        }
        // An empty alternative list is a ⊥ return: the fixpoint saw no
        // value come back, so the continuation is dead — zero paths.
    }

    /// Call a user function: through a memoized shape-keyed summary when
    /// possible, inline otherwise. Under the envelope context, recursive
    /// calls are answered by [`Self::summarize_recursive_call`].
    fn call_fun(&mut self, id: u32, args: &[SymVal], st: PathState, out: &mut AppRes) {
        if self.env_ctx.is_some() && self.stack.contains(&id) {
            return self.summarize_recursive_call(id, st, out);
        }
        if self.stack.len() >= self.budget.max_depth {
            return out.push(Self::truncated(st, Incompleteness::CallDepth));
        }
        let body = match self.program.lookup(id).and_then(|it| it.body()) {
            Some(b) => b,
            None => return out.push(Self::truncated(st, Incompleteness::InvalidOperand)),
        };
        if self.summaries.summarizable(id) {
            let keys: Option<Vec<ShapeKey>> = args.iter().map(shape_key).collect();
            if let Some(keys) = keys {
                // Tainted summaries embed envelope-phase loop summaries;
                // outside that phase they must be recomputed exactly.
                let allow_tainted = self.env_ctx.is_some();
                let summary = match self.summaries.lookup(id, &keys, allow_tainted) {
                    Some(s) => s,
                    None => self.compute_summary(id, body, keys),
                };
                return self.instantiate(&summary, args, st, out);
            }
        }
        let env = Env {
            args: Payload::new(args),
            locals: Vec::new(),
        };
        self.stack.push(id);
        self.eval_expr(id, body, env, st, out);
        self.stack.pop();
    }

    /// Explore a summarizable function over canonical arguments and cache
    /// the result.
    fn compute_summary(&mut self, id: u32, body: &'p MExpr, keys: Vec<ShapeKey>) -> Rc<Summary> {
        let mut canon_vars = Vec::new();
        let mut cargs = Vec::with_capacity(keys.len());
        for k in &keys {
            let (sv, vars) = canonical(&mut self.store, k);
            canon_vars.extend(vars);
            cargs.push(sv);
        }
        let env = Env {
            args: Payload::new(&cargs),
            locals: Vec::new(),
        };
        // Summaries are context-free: the exploration starts from an empty
        // path state; call sites conjoin the (substituted) callee literals
        // onto their own condition.
        let fires_before = self.loop_fires;
        let mut res = AppRes::new();
        self.stack.push(id);
        self.eval_expr(id, body, env, PathState::default(), &mut res);
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
                arm_hits: ArmSet::default(),
                incomplete: inc,
                val: None,
            });
        }
        self.summaries.insert(
            id,
            keys,
            Summary {
                canon_vars,
                paths,
                tainted: self.loop_fires > fires_before,
            },
        )
    }

    /// Replay a cached summary at a call site: substitute the site's leaf
    /// terms for the canonical variables in every path.
    fn instantiate(&mut self, summary: &Summary, args: &[SymVal], st: PathState, out: &mut AppRes) {
        let mut leaves = Vec::new();
        for a in args {
            if leaf_terms(a, &mut leaves).is_none() {
                // Guarded by the shape-key check in call_fun.
                return out.push(Self::truncated(st, Incompleteness::InvalidOperand));
            }
        }
        let map: BTreeMap<u32, TermId> = summary.canon_vars.iter().copied().zip(leaves).collect();
        let mut memo: IdMap<TermId, TermId> = IdMap::default();
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
            st2.arm_hits.union(&p.arm_hits);
            st2.incomplete.extend(p.incomplete.iter().copied());
            let val = p
                .val
                .as_ref()
                .map(|v| subst_sv(&mut self.store, v, &map, &mut memo));
            out.push((st2, val));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Status;
    use crate::solve::{solve, Verdict};
    use crate::witness::{envelope_check, search_witness, Pool};
    use zarf_asm::{lift, lower, parse};
    use zarf_testkit::replay::replay_witness;
    use zarf_verify::queries::{QueryKind, VetQuery};
    use zarf_verify::shape::{analyze_shapes, EntryModel};

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

    fn fresh_int(ex: &mut Exec<'_>) -> SymVal {
        let (_, t) = ex.store.fresh_var();
        SymVal::Int(t)
    }

    #[test]
    fn a_forks_new_arm_is_not_visible_on_its_sibling() {
        // Both forks of the inner case share the outer arm; each inner
        // arm shows on its own fork only.
        let m = machine(
            "fun f a b =\n case a of\n | 0 =>\n  case b of\n  | 1 => result 1\n  else result 2\n \
             else result 0\n\
             fun main =\n result 0\n",
        );
        let f = by_name(&m, "f");
        let mut ex = Exec::new(&m, SymexBudget::default());
        let (a, b) = (fresh_int(&mut ex), fresh_int(&mut ex));
        let out = ex.explore(f, &[a, b]);
        let (outer, inner) = (ex.arm_bit(f, 0, 0).unwrap(), ex.arm_bit(f, 1, 0).unwrap());
        let took: Vec<(bool, bool)> = out
            .iter()
            .map(|o| (o.st.arm_hits.contains(outer), o.st.arm_hits.contains(inner)))
            .collect();
        // a==0 && b==1, a==0 && b!=1, a!=0.
        assert_eq!(took, [(true, true), (true, false), (false, false)]);

        // A clone shares its parent's words until it takes a new arm.
        let mut parent = ArmSet::default();
        parent.insert(3);
        let mut child = parent.clone();
        child.insert(3);
        assert!(Rc::ptr_eq(&parent.0, &child.0));
        child.insert(70);
        assert!(child.contains(3) && child.contains(70));
        assert!(parent.contains(3) && !parent.contains(70));
        assert_eq!((parent.len(), child.len()), (1, 2));
    }

    #[test]
    fn an_arm_taken_only_inside_a_summarized_callee_is_found() {
        // `inner` is pure, so every call to it (the entry call included)
        // is answered from its summary: the arm hit reaches the caller's
        // path only through `instantiate`.
        let m = machine(
            "fun inner a =\n case a of\n | 3 => result 1\n else result 0\n\
             fun outer b =\n let x = inner b in\n let y = add x 1 in\n result y\n\
             fun main =\n result 0\n",
        );
        let (inner, outer) = (by_name(&m, "inner"), by_name(&m, "outer"));
        let named = lift(&m).unwrap();
        let report = analyze_shapes(&m, EntryModel::Service).unwrap();
        let mut ex = Exec::new(&m, SymexBudget::default());
        assert!(ex.summaries.summarizable(inner));
        let arm = ex.arm_bit(inner, 0, 0).unwrap();
        let b = fresh_int(&mut ex);
        let out = ex.explore(outer, &[b]);
        assert!(ex.summaries.misses > 0);
        assert_eq!(
            out.iter().filter(|o| o.st.arm_hits.contains(arm)).count(),
            1,
            "{out:?}"
        );

        let q = VetQuery {
            function: inner,
            label: "inner".into(),
            kind: QueryKind::UnreachableArm {
                case_index: 0,
                arm_index: 0,
            },
        };
        let ws = search_witness(&mut ex, &named, report.model, &q, &Pool::default());
        let spec = ws.spec.expect("arm witness");
        let rep = replay_witness(&named, &spec).unwrap();
        assert_eq!(rep.result.as_deref(), Ok("1"));
        match envelope_check(&mut ex, &report, &q) {
            Status::Undecided(inc) => assert!(
                inc.contains(&Incompleteness::WitnessUnrealized),
                "a satisfiable path takes the arm: {inc:?}"
            ),
            s => panic!("the arm is reachable, not {s:?}"),
        }
    }

    #[test]
    fn arm_numbering_agrees_with_the_shape_analysis() {
        // Under the standalone model `f` sees only 1 and `g` only 7, so
        // the arms below are warned unreachable — including the one
        // numbered after a skipped body that holds a case of its own.
        let m = machine(
            "fun f a =\n case a of\n | 2 =>\n  case a of\n  | 22 => result 0\n  else result 1\n \
             | 1 =>\n  case a of\n  | 11 => result 2\n  else result 3\n else result 4\n\
             fun g b =\n case b of\n | 5 => result 0\n else\n  case b of\n  | 55 => result 1\n  \
             else result 2\n\
             fun main =\n let x = f 1 in\n let y = g 7 in\n let z = add x y in\n result z\n",
        );
        let (f, g) = (by_name(&m, "f"), by_name(&m, "g"));
        let report = analyze_shapes(&m, EntryModel::Standalone).unwrap();
        let warned: Vec<(u32, usize, usize, MPattern)> = report
            .unreachable_arms
            .iter()
            .map(|a| (a.function, a.case_index, a.arm_index, a.pattern))
            .collect();
        assert_eq!(
            warned,
            [
                (f, 0, 0, MPattern::Lit(2)),
                (f, 2, 0, MPattern::Lit(11)),
                (g, 0, 0, MPattern::Lit(5)),
                (g, 1, 0, MPattern::Lit(55)),
            ]
        );
        let mut ex = Exec::new(&m, SymexBudget::default());
        for (fun, ci, ai, pattern) in warned {
            let MPattern::Lit(n) = pattern else {
                unreachable!()
            };
            let bit = ex.arm_bit(fun, ci, ai).unwrap();
            let x = fresh_int(&mut ex);
            let out = ex.explore(fun, &[x]);
            // Every path through the executor's arm `bit` matched the
            // literal the shape analysis names for that arm.
            let through: Vec<_> = out.iter().filter(|o| o.st.arm_hits.contains(bit)).collect();
            assert!(!through.is_empty(), "arm {ci}.{ai} of {fun:#x}");
            for o in through {
                assert!(
                    o.st.lits.iter().any(|l| l.eq && l.rhs == n),
                    "arm {ci}.{ai} of {fun:#x} is not `| {n}`: {o:?}"
                );
            }
        }
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
        let out = ex.explore(f, &[a]);
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
        let out = ex.explore(f, &[a]);
        // Three partitions: a==0, a==1, a∉{0,1}.
        assert_eq!(out.len(), 3);
        assert!(out
            .iter()
            .all(|o| o.val.is_some() && o.st.incomplete.is_empty()));
        let with_arm: Vec<_> = out.iter().filter(|o| !o.st.arm_hits.is_empty()).collect();
        assert_eq!(with_arm.len(), 2);
        let (a0, a1) = (ex.arm_bit(f, 0, 0).unwrap(), ex.arm_bit(f, 0, 1).unwrap());
        let only = |o: &&Outcome, yes: u32, no: u32| {
            o.st.arm_hits.len() == 1 && o.st.arm_hits.contains(yes) && !o.st.arm_hits.contains(no)
        };
        assert!(with_arm.iter().any(|o| only(o, a0, a1)));
        assert!(with_arm.iter().any(|o| only(o, a1, a0)));
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
        let out = ex.explore(f, &[a]);
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
        let out = ex.explore(f, &[a]);
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
        let b = SymVal::con(boxid, &[inner]);
        let out = ex.explore(f, std::slice::from_ref(&b));
        assert_eq!(out.len(), 1);
        let arm = ex.arm_bit(f, 0, 0).unwrap();
        assert!(out[0].st.arm_hits.contains(arm));
        assert_eq!(out[0].st.arm_hits.len(), 1);

        // div on a constructor: prim-on-non-int (code 7), no fork.
        let out = ex.explore(g, &[b]);
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
        let out = ex.explore(callint, &[a]);
        assert!(out[0].faulted(callint, 2), "apply-to-int: {out:?}");

        let overcon = by_name(&m, "overcon");
        let out = ex.explore(overcon, &[]);
        assert!(out[0].faulted(overcon, 5), "con-over-applied: {out:?}");

        let casec = by_name(&m, "casec");
        let out = ex.explore(casec, &[]);
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
        let out = ex.explore(f, &[]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].st.faults, [(RuntimeError::DivideByZero, f)]);
        assert!(matches!(
            out[0].val.as_ref(),
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
        let out = ex.explore(f, &[]);
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
        let out = ex.explore(f, &[a, b, c]);
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
        let out = ex.explore(by_name(&m, "callz"), &[]);
        assert_eq!(out.len(), 1, "x==0 grounds: only the fault path: {out:?}");
        assert!(out[0].faulted(half, 1));
        let out = ex.explore(by_name(&m, "callok"), &[]);
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
        let out = ex.explore(spin, &[a]);
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
        let out = ex.explore(f, &[b]);
        assert_eq!(out.len(), 1);
        // add 1 b — an Int result, no fault.
        assert!(out[0].st.faults.is_empty());
        assert!(matches!(out[0].val.as_ref(), Some(SymVal::Int(_))));
    }
}
