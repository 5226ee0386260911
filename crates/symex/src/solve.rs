//! The in-repo constraint solver.
//!
//! Path conditions are conjunctions of literals `term == c` / `term != c`
//! over the interned term DAG. There is no external SMT solver in this
//! workspace (the container is offline by design), so satisfiability is
//! decided by a two-stage engine:
//!
//! 1. **Propagation** (sound for UNSAT): forward interval analysis over
//!    the DAG in topological (ascending-id) order, backward narrowing from
//!    pinned results, disequality sets, and congruence facts harvested
//!    from `mod`-by-constant terms, iterated to a bounded fixpoint. The
//!    intervals and their transfer functions are the shared lattice
//!    [`zarf_verify::interval`], the one the RISC abstract interpreter
//!    uses; this module only maps each [`PrimOp`] to its operation.
//!    Backward narrowing through an operation is only applied when
//!    its `*_exact` form says the 32-bit wrapping operation cannot wrap,
//!    so an empty interval is a *proof* of unsatisfiability.
//! 2. **Model search** (sound for SAT): deterministic candidate
//!    generation per variable (pinned values, interval endpoints,
//!    literal right-hand sides, congruence representatives,
//!    disequality neighbors) followed by seeded SplitMix64 sampling, with
//!    every candidate *verified concretely* through
//!    [`TermStore::eval`] — the same wrapping semantics the interpreter
//!    uses. A returned model therefore satisfies the condition by
//!    construction.
//!
//! Anything else is [`Verdict::Unknown`]: the caller must not treat it as
//! either proof.
//!
//! The solver is **not incremental**: every check builds a fresh
//! propagator and propagates the whole path condition from ⊤, so an
//! answer depends only on `(store, lits)`. [`solve`] is the crate's one
//! feasibility oracle: the executor forks without checking, and every
//! path a verdict acts on goes through it.

use std::collections::{BTreeMap, BTreeSet};

use zarf_core::prim::PrimOp;
use zarf_core::Int;
use zarf_verify::interval::{Interval, HI, LO};

use crate::term::{Term, TermId, TermStore};

/// A concrete variable assignment.
pub type Model = BTreeMap<u32, Int>;

/// One path-condition literal: `term == rhs` (when `eq`) or `term != rhs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Lit {
    /// The constrained term.
    pub term: TermId,
    /// Equality (`true`) or disequality (`false`).
    pub eq: bool,
    /// The literal right-hand side.
    pub rhs: Int,
}

impl Lit {
    /// `term == rhs`.
    pub fn eq(term: TermId, rhs: Int) -> Self {
        Lit {
            term,
            eq: true,
            rhs,
        }
    }

    /// `term != rhs`.
    pub fn ne(term: TermId, rhs: Int) -> Self {
        Lit {
            term,
            eq: false,
            rhs,
        }
    }
}

/// The solver's answer for one conjunction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Satisfiable, with a concretely verified witness model.
    Sat(Model),
    /// Proved unsatisfiable by sound propagation.
    Unsat,
    /// Neither proof found within the effort budget.
    Unknown,
}

const PROP_ROUNDS: usize = 24;
const NE_CAP: usize = 32;

/// `slot` value of a term outside the current reachable set.
const NO_SLOT: u32 = u32::MAX;

/// Propagation state over the subgraph reachable from one conjunction.
///
/// Every per-term vector is indexed by the term's *position* in `order`
/// (the reachable ids, ascending), found through `slot`. Terms outside
/// the store (dangling ids, which safe use never mints) get no position:
/// they read as ⊤ and are never narrowed, which can only weaken a
/// refutation, never invent one.
struct Propagator {
    /// Reachable term ids in ascending (topological) order.
    order: Vec<TermId>,
    /// Term id → position in `order`, or [`NO_SLOT`].
    slot: Vec<u32>,
    iv: Vec<Interval>,
    /// Excluded points, sorted and deduplicated, at most [`NE_CAP`].
    ne: Vec<Vec<i64>>,
    /// `term ≡ residue (mod modulus)` hints for the model search; never
    /// used to refute.
    cong: Vec<Option<(i64, i64)>>,
    /// Terms whose forward computation is exact (cannot wrap) under the
    /// current child intervals — prerequisite for backward narrowing.
    exact: Vec<bool>,
    /// Bumped whenever an interval shrinks. Intervals only shrink, so an
    /// unchanged count across a round means no interval moved.
    changes: u64,
    unsat: bool,
}

impl Propagator {
    /// Collect the terms reachable from `lits` into `order`, assign their
    /// positions, and start every term at ⊤.
    fn load(store: &TermStore, lits: &[Lit]) -> Self {
        let mut slot = vec![NO_SLOT; store.len()];
        let mut order = Vec::new();
        let mut stack: Vec<TermId> = lits.iter().map(|l| l.term).collect();
        while let Some(t) = stack.pop() {
            // Any value but `NO_SLOT` marks a visited term until the
            // positions are assigned below.
            match slot.get_mut(t as usize) {
                Some(s) if *s == NO_SLOT => *s = 0,
                _ => continue,
            }
            order.push(t);
            if let Term::App(_, args) = store.term(t) {
                stack.extend_from_slice(args);
            }
        }
        order.sort_unstable();
        for (i, &t) in order.iter().enumerate() {
            if let Some(s) = slot.get_mut(t as usize) {
                *s = i as u32;
            }
        }
        let n = order.len();
        Propagator {
            order,
            slot,
            iv: vec![Interval::top(); n],
            ne: vec![Vec::new(); n],
            cong: vec![None; n],
            exact: vec![false; n],
            changes: 0,
            unsat: false,
        }
    }

    fn pos(&self, t: TermId) -> Option<usize> {
        match self.slot.get(t as usize) {
            Some(&s) if s != NO_SLOT => Some(s as usize),
            _ => None,
        }
    }

    fn interval(&self, t: TermId) -> Interval {
        self.pos(t)
            .and_then(|i| self.iv.get(i))
            .copied()
            .unwrap_or_else(Interval::top)
    }

    /// Meet `t`'s interval with `want`; `None` is the empty interval.
    fn narrow(&mut self, t: TermId, want: Option<Interval>) {
        if let Some(i) = self.pos(t) {
            self.narrow_at(i, want);
        }
    }

    fn narrow_at(&mut self, i: usize, want: Option<Interval>) {
        if let Some(cur) = self.iv.get_mut(i) {
            match want.and_then(|w| cur.meet(w)) {
                Some(m) if m != *cur => {
                    *cur = m;
                    self.changes += 1;
                }
                Some(_) => {}
                None => self.unsat = true,
            }
        }
    }

    fn exclude(&mut self, t: TermId, n: i64) {
        let cur = self.interval(t);
        // Shave endpoints where possible — that keeps the exclusion inside
        // the interval domain.
        match cur.trim_ne(n) {
            None => self.unsat = true,
            Some(trimmed) if trimmed != cur => self.narrow(t, Some(trimmed)),
            Some(_) => {
                if let Some(set) = self.pos(t).and_then(|i| self.ne.get_mut(i)) {
                    if set.len() < NE_CAP {
                        if let Err(k) = set.binary_search(&n) {
                            set.insert(k, n);
                        }
                    }
                }
            }
        }
    }

    /// The congruence hint recorded for `t`, if any.
    fn cong_of(&self, t: TermId) -> Option<(i64, i64)> {
        self.pos(t)
            .and_then(|i| self.cong.get(i).copied().flatten())
    }

    /// The points excluded for `t`, ascending.
    fn ne_of(&self, t: TermId) -> &[i64] {
        self.pos(t)
            .and_then(|i| self.ne.get(i))
            .map_or(&[], Vec::as_slice)
    }

    /// Run propagation to a bounded fixpoint. `false` means proved UNSAT;
    /// on `true` the state describes the conjunction.
    fn propagate(&mut self, store: &TermStore, lits: &[Lit]) -> bool {
        self.forward(store);
        for lit in lits {
            if lit.eq {
                self.narrow(lit.term, Some(Interval::exact(lit.rhs as i64)));
            } else {
                self.exclude(lit.term, lit.rhs as i64);
            }
            if self.unsat {
                return false;
            }
        }
        for _ in 0..PROP_ROUNDS {
            let before = self.changes;
            backward(store, self);
            if self.unsat {
                return false;
            }
            self.forward(store);
            if self.unsat {
                return false;
            }
            // Re-check disequalities against newly pinned intervals.
            let hit = self.iv.iter().zip(&self.ne).any(|(iv, set)| {
                iv.singleton()
                    .is_some_and(|v| set.binary_search(&v).is_ok())
            });
            if hit {
                return false;
            }
            if self.changes == before {
                break;
            }
        }
        true
    }

    /// One forward pass: recompute each term's interval from its children.
    /// Ascending id order is topological, so a single pass reaches
    /// fixpoint relative to the current child intervals.
    fn forward(&mut self, store: &TermStore) {
        for i in 0..self.order.len() {
            let Some(&t) = self.order.get(i) else { break };
            let (iv, exact) = match store.term(t) {
                Term::Const(n) => (Interval::exact(*n as i64), true),
                Term::Var(_) => (self.interval(t), true),
                Term::App(op, args) => forward_app(*op, args, self),
            };
            if let Some(e) = self.exact.get_mut(i) {
                *e = exact;
            }
            self.narrow_at(i, Some(iv));
            if self.unsat {
                return;
            }
        }
    }
}

/// Forward interval for one application. Returns `(interval, exact)`,
/// where `exact` means the wrapping op equals the ideal op for every
/// value in the child intervals (so backward narrowing is sound).
fn forward_app(op: PrimOp, args: &[TermId], p: &Propagator) -> (Interval, bool) {
    let a = args
        .first()
        .map(|&x| p.interval(x))
        .unwrap_or_else(Interval::top);
    let b = args
        .get(1)
        .map(|&x| p.interval(x))
        .unwrap_or_else(Interval::top);
    let exact = |iv: Option<Interval>| (iv.unwrap_or_else(Interval::top), iv.is_some());
    // `neg x` is `0 - x` and `not x` is `-1 - x`, on the machine too.
    let (zero, minus_one) = (Interval::exact(0), Interval::exact(-1));
    match op {
        PrimOp::Add => exact(a.add_exact(b)),
        PrimOp::Sub => exact(a.sub_exact(b)),
        PrimOp::Mul => exact(a.mul_exact(b)),
        PrimOp::Neg => exact(zero.sub_exact(a)),
        PrimOp::Not => (minus_one.sub(a), true),
        // The b == 0 case is a separate fault path, never a value.
        PrimOp::Div => (a.div(b), false),
        PrimOp::Mod => (a.rem(b), false),
        PrimOp::And => (a.and(b), false),
        PrimOp::Or => (a.or(b), false),
        PrimOp::Xor => (a.xor(b), false),
        PrimOp::Shr => match b.singleton() {
            Some(k) => (a.sra(k as u32), true),
            None => (a.sra_any(), false),
        },
        PrimOp::Shl => (
            b.singleton()
                .map_or_else(Interval::top, |k| a.shl(k as u32)),
            false,
        ),
        PrimOp::Abs => {
            if a.lo > LO {
                let lo = if a.lo >= 0 {
                    a.lo
                } else if a.hi <= 0 {
                    -a.hi
                } else {
                    0
                };
                (Interval::new(lo, a.lo.abs().max(a.hi.abs())), true)
            } else {
                (Interval::top(), false)
            }
        }
        PrimOp::Min => (Interval::new(a.lo.min(b.lo), a.hi.min(b.hi)), true),
        PrimOp::Max => (Interval::new(a.lo.max(b.lo), a.hi.max(b.hi)), true),
        PrimOp::Eq => bool_iv(a.hi < b.lo || b.hi < a.lo, pinned_eq(a, b)),
        PrimOp::Ne => bool_iv(pinned_eq(a, b), a.hi < b.lo || b.hi < a.lo),
        PrimOp::Lt | PrimOp::Le | PrimOp::Gt | PrimOp::Ge => {
            let (l, r, lt) = ordered(op, a, b);
            // `l >= r` is `1 - (l < r)`.
            let lt_truth = l.slt(r);
            let truth = if lt {
                lt_truth
            } else {
                Interval::exact(1).sub(lt_truth)
            };
            (truth, true)
        }
        PrimOp::GetInt | PrimOp::PutInt | PrimOp::Gc => (Interval::top(), false),
    }
}

/// A comparison as `l < r` (`true`) or `l >= r` (`false`): `Gt` and `Le`
/// are `Lt` and `Ge` with the operands swapped. Only the four ordering
/// comparisons are passed in; anything else reads as `Lt`.
fn ordered<T>(op: PrimOp, x: T, y: T) -> (T, T, bool) {
    match op {
        PrimOp::Ge => (x, y, false),
        PrimOp::Gt => (y, x, true),
        PrimOp::Le => (y, x, false),
        _ => (x, y, true),
    }
}

fn pinned_eq(a: Interval, b: Interval) -> bool {
    match (a.singleton(), b.singleton()) {
        (Some(x), Some(y)) => x == y,
        _ => false,
    }
}

/// `(definitely 0, definitely 1)` → boolean interval. Exact: comparisons
/// never wrap.
fn bool_iv(zero: bool, one: bool) -> (Interval, bool) {
    if one {
        (Interval::exact(1), true)
    } else if zero {
        (Interval::exact(0), true)
    } else {
        (Interval::new(0, 1), true)
    }
}

/// One backward pass: push pinned/narrowed results into children, in
/// descending (reverse-topological) order. Interval narrowing through an
/// arithmetic operation needs the term to be `exact`.
fn backward(store: &TermStore, p: &mut Propagator) {
    for i in (0..p.order.len()).rev() {
        if p.unsat {
            return;
        }
        let Some(&t) = p.order.get(i) else { continue };
        let exact = p.exact.get(i).copied().unwrap_or(false);
        let (op, args) = match store.term(t) {
            Term::App(op, args) => (*op, args),
            _ => continue,
        };
        let r = p.interval(t);
        let a = args.first().copied();
        let b = args.get(1).copied();
        let (x, y) = match (a, b) {
            (Some(x), Some(y)) => (x, y),
            (Some(x), None) => (x, x),
            _ => continue,
        };
        let xa = p.interval(x);
        let ya = p.interval(y);
        // Wrapping add/sub/neg/xor are bijections in each operand, so the
        // fully-pinned inversions below are sound even when the interval
        // (non-wrapping) narrowing of the `exact` arms is not.
        let pin = |p: &mut Propagator, t: TermId, n: i32| {
            p.narrow(t, Some(Interval::exact(n as i64)));
        };
        match op {
            PrimOp::Add => {
                if let Some(rv) = r.singleton() {
                    if let Some(yv) = ya.singleton() {
                        pin(p, x, (rv as i32).wrapping_sub(yv as i32));
                    } else if let Some(xv) = xa.singleton() {
                        pin(p, y, (rv as i32).wrapping_sub(xv as i32));
                    }
                }
                if exact {
                    p.narrow(x, r.sub_within(ya));
                    p.narrow(y, r.sub_within(xa));
                }
            }
            PrimOp::Sub => {
                if let Some(rv) = r.singleton() {
                    if let Some(yv) = ya.singleton() {
                        pin(p, x, (rv as i32).wrapping_add(yv as i32));
                    } else if let Some(xv) = xa.singleton() {
                        pin(p, y, (xv as i32).wrapping_sub(rv as i32));
                    }
                }
                if exact {
                    p.narrow(x, r.add_within(ya));
                    p.narrow(y, xa.sub_within(r));
                }
            }
            PrimOp::Neg => {
                if let Some(rv) = r.singleton() {
                    pin(p, x, (rv as i32).wrapping_neg());
                } else if exact {
                    p.narrow(x, Interval::exact(0).sub_within(r));
                }
            }
            PrimOp::Xor => {
                if let Some(rv) = r.singleton() {
                    if let Some(yv) = ya.singleton() {
                        pin(p, x, rv as i32 ^ yv as i32);
                    } else if let Some(xv) = xa.singleton() {
                        pin(p, y, rv as i32 ^ xv as i32);
                    }
                }
            }
            PrimOp::Not => p.narrow(x, Interval::exact(-1).sub_within(r)),
            PrimOp::Eq | PrimOp::Ne => {
                // Pinned to "equal" (1 for Eq, 0 for Ne) or "unequal".
                match (r.singleton(), op == PrimOp::Eq) {
                    (Some(1), true) | (Some(0), false) => {
                        p.narrow(x, Some(ya));
                        p.narrow(y, Some(xa));
                    }
                    (Some(0), true) | (Some(1), false) => {
                        if let Some(c) = ya.singleton() {
                            p.exclude(x, c);
                        }
                        if let Some(c) = xa.singleton() {
                            p.exclude(y, c);
                        }
                    }
                    _ => {}
                }
            }
            PrimOp::Lt | PrimOp::Le | PrimOp::Gt | PrimOp::Ge => {
                // A false comparison holds as its complement: not (l < r)
                // is l >= r.
                let holds = match r.singleton() {
                    Some(1) => true,
                    Some(0) => false,
                    _ => continue,
                };
                let (l, g, lt) = ordered(op, x, y);
                let (li, gi) = (p.interval(l), p.interval(g));
                let refined = if lt == holds {
                    li.refine_lt(gi)
                } else {
                    li.refine_ge(gi)
                };
                p.narrow(l, refined.map(|(nl, _)| nl));
                p.narrow(g, refined.map(|(_, ng)| ng));
            }
            PrimOp::Mod => {
                // Congruence hint only: x ≡ r (mod m) when both the result
                // and the (positive) modulus are pinned and x is known
                // non-negative, where `wrapping_rem` equals mathematical
                // mod. Never used to refute — search guidance only.
                if let (Some(res), Some(m)) = (r.singleton(), ya.singleton()) {
                    if m > 0 && xa.lo >= 0 {
                        if let Some(c) = p.pos(x).and_then(|j| p.cong.get_mut(j)) {
                            *c = Some((m, res.rem_euclid(m)));
                        }
                    }
                }
            }
            _ => {}
        }
    }
}

/// Verify a candidate model against every literal, concretely.
fn check_model(store: &TermStore, lits: &[Lit], model: &Model) -> bool {
    for lit in lits {
        match store.eval(lit.term, model) {
            Ok(v) => {
                if lit.eq != (v == lit.rhs) {
                    return false;
                }
            }
            Err(_) => return false,
        }
    }
    true
}

/// SplitMix64 — the workspace's standard deterministic stream.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn clamp_i32(n: i64) -> Int {
    n.clamp(LO, HI) as Int
}

/// Candidate values for one variable, deterministic and ordered from most
/// to least informed.
fn candidates(p: &Propagator, lits: &[Lit], vt: TermId) -> Vec<Int> {
    let iv = p.interval(vt);
    let mut out: Vec<Int> = Vec::new();
    let mut push = |n: i64| {
        if n >= iv.lo && n <= iv.hi {
            let n = clamp_i32(n);
            if !out.contains(&n) {
                out.push(n);
            }
        }
    };
    if let Some(n) = iv.singleton() {
        push(n);
        return out;
    }
    // Congruence representatives first: smallest in-interval member of the
    // residue class, then a couple more.
    if let Some((m, r)) = p.cong_of(vt) {
        if m > 0 {
            let base = iv.lo + (r - iv.lo).rem_euclid(m);
            push(base);
            push(base + m);
            push(base + 2 * m);
        }
    }
    push(iv.lo);
    push(iv.hi);
    push(0);
    push(1);
    push(-1);
    push(2);
    // Literal right-hand sides on this very variable, and their neighbors.
    for lit in lits {
        if lit.term == vt {
            push(lit.rhs as i64);
            push(lit.rhs as i64 + 1);
            push(lit.rhs as i64 - 1);
        }
    }
    // Step around excluded points.
    for &n in p.ne_of(vt).iter().take(8) {
        push(n + 1);
        push(n - 1);
    }
    out
}

/// Decide one conjunction. `effort` bounds the number of candidate models
/// verified.
pub fn solve(store: &TermStore, lits: &[Lit], effort: u32) -> Verdict {
    let mut p = Propagator::load(store, lits);
    if !p.propagate(store, lits) {
        return Verdict::Unsat;
    }
    let mut vars: BTreeSet<u32> = BTreeSet::new();
    for lit in lits {
        store.vars_of(lit.term, &mut vars);
    }
    let vars: Vec<u32> = vars.into_iter().collect();
    if vars.is_empty() {
        // Ground condition: evaluate directly.
        let empty = Model::new();
        return if check_model(store, lits, &empty) {
            Verdict::Sat(empty)
        } else {
            // Ground but false and propagation missed it (e.g. a faulting
            // sub-term). Not a soundness proof of unsat.
            Verdict::Unknown
        };
    }
    // Per-variable candidate lists are keyed by the variable's term id.
    let cand: Vec<Vec<Int>> = vars
        .iter()
        .map(|&v| match store.var_term(v) {
            Some(t) => {
                let c = candidates(&p, lits, t);
                if c.is_empty() {
                    vec![0]
                } else {
                    c
                }
            }
            None => vec![0, 1, -1],
        })
        .collect();
    let mut tried = 0u32;
    let mut model = Model::new();
    // Pass 1: base assignment (first candidate each).
    for (i, v) in vars.iter().enumerate() {
        model.insert(*v, cand[i].first().copied().unwrap_or(0));
    }
    tried += 1;
    if check_model(store, lits, &model) {
        return Verdict::Sat(model);
    }
    // Pass 2: single-variable sweeps over candidate lists.
    for (i, v) in vars.iter().enumerate() {
        for &c in cand[i].iter().skip(1) {
            if tried >= effort {
                return Verdict::Unknown;
            }
            let mut m = model.clone();
            m.insert(*v, c);
            tried += 1;
            if check_model(store, lits, &m) {
                return Verdict::Sat(m);
            }
        }
    }
    // Pass 3: full cross product for small problems.
    let product: usize = cand.iter().map(|c| c.len()).product();
    if vars.len() <= 3 && product <= effort as usize {
        let mut idx = vec![0usize; vars.len()];
        loop {
            let mut m = Model::new();
            for (i, v) in vars.iter().enumerate() {
                m.insert(*v, cand[i].get(idx[i]).copied().unwrap_or(0));
            }
            tried += 1;
            if check_model(store, lits, &m) {
                return Verdict::Sat(m);
            }
            if tried >= effort {
                return Verdict::Unknown;
            }
            let mut carry = true;
            for i in 0..idx.len() {
                if carry {
                    idx[i] += 1;
                    if idx[i] >= cand[i].len() {
                        idx[i] = 0;
                    } else {
                        carry = false;
                    }
                }
            }
            if carry {
                break;
            }
        }
    }
    // Pass 4: seeded random sampling inside each variable's interval.
    let mut rng: u64 = 0x005E_ED0F_5EED ^ (lits.len() as u64) << 32 ^ vars.len() as u64;
    while tried < effort {
        let mut m = Model::new();
        for v in &vars {
            let iv = store
                .var_term(*v)
                .map(|t| p.interval(t))
                .unwrap_or_else(Interval::top);
            let width = (iv.hi - iv.lo + 1).max(1) as u64;
            let r = splitmix(&mut rng) % width;
            m.insert(*v, clamp_i32(iv.lo + r as i64));
        }
        tried += 1;
        if check_model(store, lits, &m) {
            return Verdict::Sat(m);
        }
    }
    Verdict::Unknown
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_with_var() -> (TermStore, u32, TermId) {
        let mut s = TermStore::new();
        let (v, t) = s.fresh_var();
        (s, v, t)
    }

    #[test]
    fn pinned_equalities_solve() {
        let (mut s, v, t) = store_with_var();
        let c = s.constant(5);
        let sum = s.app(PrimOp::Add, &[t, c]);
        // x + 5 == 12  =>  x == 7
        match solve(&s, &[Lit::eq(sum, 12)], 100) {
            Verdict::Sat(m) => assert_eq!(m.get(&v), Some(&7)),
            other => panic!("expected sat: {other:?}"),
        }
    }

    #[test]
    fn contradiction_is_unsat() {
        let (mut s, _v, t) = store_with_var();
        let c = s.constant(1);
        let sum = s.app(PrimOp::Add, &[t, c]);
        // x == 3 && x + 1 == 7 is unsat.
        assert_eq!(
            solve(&s, &[Lit::eq(t, 3), Lit::eq(sum, 7)], 100),
            Verdict::Unsat
        );
    }

    #[test]
    fn disequality_with_pin_is_unsat() {
        let (s, _v, t) = store_with_var();
        assert_eq!(
            solve(&s, &[Lit::eq(t, 3), Lit::ne(t, 3)], 100),
            Verdict::Unsat
        );
    }

    #[test]
    fn comparison_narrowing() {
        let (mut s, v, t) = store_with_var();
        let c = s.constant(10);
        let lt = s.app(PrimOp::Lt, &[t, c]);
        let zero = s.constant(0);
        let ge0 = s.app(PrimOp::Ge, &[t, zero]);
        // x < 10 && x >= 0 && x != 0..8 => x == 9
        let mut lits = vec![Lit::eq(lt, 1), Lit::eq(ge0, 1)];
        for n in 0..9 {
            lits.push(Lit::ne(t, n));
        }
        match solve(&s, &lits, 2000) {
            Verdict::Sat(m) => assert_eq!(m.get(&v), Some(&9)),
            other => panic!("expected sat: {other:?}"),
        }
    }

    #[test]
    fn wrapping_is_respected_not_refuted() {
        // x + 1 == i32::MIN has the solution x == i32::MAX (wrapping);
        // the solver must not claim unsat, and a found model must verify.
        let (mut s, v, t) = store_with_var();
        let one = s.constant(1);
        let sum = s.app(PrimOp::Add, &[t, one]);
        match solve(&s, &[Lit::eq(sum, i32::MIN)], 4000) {
            Verdict::Sat(m) => assert_eq!(m.get(&v), Some(&i32::MAX)),
            Verdict::Unsat => panic!("wrapping solution exists"),
            Verdict::Unknown => {} // acceptable: never unsound
        }
    }

    #[test]
    fn congruence_guides_mod_queries() {
        let (mut s, v, t) = store_with_var();
        let zero = s.constant(0);
        let ge0 = s.app(PrimOp::Ge, &[t, zero]);
        let m7 = s.constant(7);
        let md = s.app(PrimOp::Mod, &[t, m7]);
        // x >= 0 && x % 7 == 3 && x != 3
        let lits = [Lit::eq(ge0, 1), Lit::eq(md, 3), Lit::ne(t, 3)];
        match solve(&s, &lits, 4000) {
            Verdict::Sat(m) => {
                let x = m.get(&v).copied().unwrap_or(0);
                assert!(x >= 0 && x % 7 == 3 && x != 3, "x = {x}");
            }
            other => panic!("expected sat: {other:?}"),
        }
    }

    #[test]
    fn a_mask_bounds_its_result() {
        // x & 7 lies in [0, 7] whatever x is, so x & 7 == 9 is refuted.
        let (mut s, _v, t) = store_with_var();
        let seven = s.constant(7);
        let masked = s.app(PrimOp::And, &[t, seven]);
        let lits = [Lit::eq(masked, 9)];
        assert_eq!(solve(&s, &lits, 100), Verdict::Unsat);
    }

    #[test]
    fn a_remainder_takes_the_dividend_sign() {
        // x % 5 has x's sign, so x >= 0 && x % 5 == -1 is refuted.
        let (mut s, _v, t) = store_with_var();
        let zero = s.constant(0);
        let five = s.constant(5);
        let ge0 = s.app(PrimOp::Ge, &[t, zero]);
        let md = s.app(PrimOp::Mod, &[t, five]);
        let lits = [Lit::eq(ge0, 1), Lit::eq(md, -1)];
        assert_eq!(solve(&s, &lits, 100), Verdict::Unsat);
    }

    #[test]
    fn fixpoint_runs_past_the_first_round() {
        let mut s = TermStore::new();
        let (_, x) = s.fresh_var();
        let (_, y) = s.fresh_var();
        let one = s.constant(1);
        let x1 = s.app(PrimOp::Add, &[x, one]);
        // Interned after `x + 1`, so the first backward pass visits it
        // before `x` is pinned; only a second round pins `y` to 7.
        let xy = s.app(PrimOp::Add, &[x, y]);
        let lits = [Lit::eq(xy, 10), Lit::eq(x1, 4), Lit::ne(y, 7)];
        assert_eq!(solve(&s, &lits, 100), Verdict::Unsat);
        assert!(matches!(solve(&s, &lits[..2], 100), Verdict::Sat(_)));
    }

    #[test]
    fn equality_split_terms() {
        let (mut s, v, t) = store_with_var();
        let c = s.constant(4);
        let eq4 = s.app(PrimOp::Eq, &[t, c]);
        // (x == 4) == 1  =>  x pinned to 4.
        match solve(&s, &[Lit::eq(eq4, 1)], 50) {
            Verdict::Sat(m) => assert_eq!(m.get(&v), Some(&4)),
            other => panic!("expected sat: {other:?}"),
        }
        // (x == 4) == 0 && x == 4 is unsat.
        assert_eq!(
            solve(&s, &[Lit::eq(eq4, 0), Lit::eq(t, 4)], 50),
            Verdict::Unsat
        );
    }
}
