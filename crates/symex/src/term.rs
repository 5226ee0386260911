//! Interned symbolic integer terms.
//!
//! Every symbolic integer the executor manipulates is a [`TermId`] into a
//! [`TermStore`]: a constant, a fresh variable (an entry argument, a
//! constructor field, or a `getint` read), or a primitive applied to other
//! terms. Interning gives hash-consing (structurally equal terms share one
//! id) and a crucial ordering invariant: **children are interned before
//! parents**, so ascending id order is a topological order of the term
//! DAG. The solver's forward/backward interval passes and the concrete
//! evaluator all lean on that to stay iterative (no recursion, no stack
//! overflow on deep arithmetic chains).
//!
//! The store holds each term once. Its hash index keys on a small `Copy`
//! key (a constant, or an operator and its argument ids) rather than on a
//! second copy of the term, and variables bypass the index altogether:
//! each is minted once, into a dense variable → id table. A term is
//! itself `Copy` (an application holds its one or two operands inline),
//! so interning one allocates nothing beyond the store's own growth.
//!
//! Applications of pure primitives over all-constant arguments fold at
//! interning time via the *same* [`PrimOp::eval_pure`] the reference
//! interpreter uses — the symbolic and concrete semantics cannot drift.
//! Division/modulo by literal zero is deliberately *not* folded (it is a
//! fault, which the executor forks on before building the term).

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Deref;

use zarf_core::error::RuntimeError;
use zarf_core::prim::PrimOp;
use zarf_core::Int;

/// Index of a term in its [`TermStore`].
pub type TermId = u32;

/// One interned term.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Term {
    /// A literal integer.
    Const(Int),
    /// A symbolic variable, by its global variable number.
    Var(u32),
    /// A pure primitive applied to interned arguments.
    App(PrimOp, Operands),
}

/// The arguments of an application, held inline: every primitive takes
/// one or two.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Operands {
    ids: [TermId; 2],
    len: u8,
}

impl Operands {
    /// The first two of `args` (no primitive takes more).
    fn new(args: &[TermId]) -> Self {
        let mut ids = [NO_ARG; 2];
        let mut len = 0;
        for (slot, &a) in ids.iter_mut().zip(args) {
            *slot = a;
            len += 1;
        }
        Operands { ids, len }
    }
}

impl Deref for Operands {
    type Target = [TermId];

    fn deref(&self) -> &[TermId] {
        self.ids.get(..usize::from(self.len)).unwrap_or(&[])
    }
}

/// A multiplicative hasher for small integer keys (term ids and
/// hash-consing keys): one rotate, xor and multiply per word, and a final rotate
/// that moves the well-mixed high bits into the bucket index. SipHash's
/// flooding resistance buys nothing here — every key is minted by the
/// analysis itself.
#[derive(Debug, Default, Clone, Copy)]
pub struct MulHasher(u64);

impl Hasher for MulHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A hash map keyed by small integers, hashed with [`MulHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<MulHasher>>;

/// The hash-consing key of a constant or an application: a copy of the
/// term small enough to be `Copy`, so the index holds no second heap
/// copy of an application's arguments. Every primitive takes at most two
/// arguments; a unary application pads with [`NO_ARG`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Key {
    Const(Int),
    App(PrimOp, TermId, TermId),
}

/// The padding argument of a unary application's [`Key`] and
/// [`Operands`].
const NO_ARG: TermId = TermId::MAX;

impl Key {
    /// The key of an application, or `None` unless it has one or two
    /// arguments (no primitive has another arity; such a term is stored
    /// unshared, and evaluates to an error).
    fn app(op: PrimOp, args: &[TermId]) -> Option<Key> {
        match *args {
            [a] => Some(Key::App(op, a, NO_ARG)),
            [a, b] => Some(Key::App(op, a, b)),
            _ => None,
        }
    }
}

/// The hash-consed term arena.
#[derive(Debug, Default)]
pub struct TermStore {
    terms: Vec<Term>,
    /// Constants and applications. Variables are never looked up: each
    /// is minted once, by [`TermStore::fresh_var`].
    index: IdMap<Key, TermId>,
    /// The term id of each variable, by variable number; its length is
    /// the next variable number.
    var_ids: Vec<TermId>,
    /// [`TermStore::subst`]'s work list, kept between calls so that a
    /// substitution allocates only for the terms it interns.
    subst_work: Vec<TermId>,
}

impl TermStore {
    /// An empty store.
    pub fn new() -> Self {
        TermStore::default()
    }

    /// Number of distinct terms interned.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether no term has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// The term behind an id. Ids are only minted by this store, so a
    /// dangling id cannot arise from safe use; it degrades to `Const(0)`
    /// rather than aborting.
    pub fn term(&self, id: TermId) -> &Term {
        static DANGLING: Term = Term::Const(0);
        self.terms.get(id as usize).unwrap_or(&DANGLING)
    }

    /// Push `t` under `key` unless an equal term is already interned.
    fn intern(&mut self, key: Option<Key>, t: impl FnOnce() -> Term) -> TermId {
        let next = self.terms.len() as TermId;
        let id = match key {
            Some(k) => *self.index.entry(k).or_insert(next),
            None => next,
        };
        if id == next {
            self.terms.push(t());
        }
        id
    }

    /// Intern a constant.
    pub fn constant(&mut self, n: Int) -> TermId {
        self.intern(Some(Key::Const(n)), || Term::Const(n))
    }

    /// Mint a fresh variable; returns `(var number, term id)`. A fresh
    /// variable cannot already be interned, so this never hashes.
    pub fn fresh_var(&mut self) -> (u32, TermId) {
        let v = self.var_ids.len() as u32;
        let id = self.terms.len() as TermId;
        self.terms.push(Term::Var(v));
        self.var_ids.push(id);
        (v, id)
    }

    /// The term id of variable `v`, if this store minted it.
    pub(crate) fn var_term(&self, v: u32) -> Option<TermId> {
        self.var_ids.get(v as usize).copied()
    }

    /// The constant value of a term, if it is a `Const`.
    pub fn const_of(&self, id: TermId) -> Option<Int> {
        match self.terms.get(id as usize) {
            Some(Term::Const(n)) => Some(*n),
            _ => None,
        }
    }

    /// Apply a pure primitive, folding constants through
    /// [`PrimOp::eval_pure`]. Faulting folds (division by literal zero)
    /// stay symbolic — the executor forks the fault off before calling
    /// this.
    pub fn app(&mut self, op: PrimOp, args: &[TermId]) -> TermId {
        if args.len() == op.arity() {
            let mut cs = [0; 2];
            let folds = args.len() <= cs.len()
                && args
                    .iter()
                    .zip(cs.iter_mut())
                    .all(|(&a, c)| self.const_of(a).map(|n| *c = n).is_some());
            if folds {
                if let Ok(n) = op.eval_pure(&cs[..args.len()]) {
                    return self.constant(n);
                }
            }
        }
        match Key::app(op, args) {
            key @ Some(_) => self.intern(key, || Term::App(op, Operands::new(args))),
            // An arity no primitive has: keep the arity mismatch visible,
            // so the term evaluates to an error rather than to a
            // truncated application.
            None => self.intern(None, || Term::App(op, Operands::new(&[]))),
        }
    }

    /// All variable numbers a term (transitively) mentions.
    pub fn vars_of(&self, id: TermId, out: &mut BTreeSet<u32>) {
        let mut stack = vec![id];
        let mut seen: BTreeSet<TermId> = BTreeSet::new();
        while let Some(t) = stack.pop() {
            if !seen.insert(t) {
                continue;
            }
            match self.terms.get(t as usize) {
                Some(Term::Var(v)) => {
                    out.insert(*v);
                }
                Some(Term::App(_, args)) => stack.extend_from_slice(args),
                _ => {}
            }
        }
    }

    /// Evaluate a term under a variable assignment, with the reference
    /// semantics (`eval_pure`, so wrapping and fault behavior match the
    /// interpreter exactly). Unassigned variables read as 0. Iterative:
    /// children have smaller ids, so one ascending pass suffices.
    pub fn eval(&self, id: TermId, model: &BTreeMap<u32, Int>) -> Result<Int, RuntimeError> {
        let mut memo: IdMap<TermId, Result<Int, RuntimeError>> = IdMap::default();
        for i in self.reachable(id) {
            let v = match self.terms.get(i as usize) {
                None => continue,
                Some(Term::Const(n)) => Ok(*n),
                Some(Term::Var(x)) => Ok(model.get(x).copied().unwrap_or(0)),
                Some(Term::App(op, args)) => {
                    let mut cs = Vec::with_capacity(args.len());
                    let mut failed = None;
                    for a in args.iter() {
                        match memo.get(a) {
                            Some(Ok(c)) => cs.push(*c),
                            Some(Err(e)) => {
                                failed = Some(*e);
                                break;
                            }
                            // Dangling argument id: unevaluable.
                            None => {
                                failed = Some(RuntimeError::Propagated);
                                break;
                            }
                        }
                    }
                    match failed {
                        Some(e) => Err(e),
                        None if cs.len() == op.arity() => op.eval_pure(&cs),
                        None => Err(RuntimeError::Propagated),
                    }
                }
            };
            memo.insert(i, v);
        }
        memo.remove(&id).unwrap_or(Err(RuntimeError::Propagated))
    }

    /// The ids reachable from `id`, in ascending (topological) order.
    fn reachable(&self, id: TermId) -> BTreeSet<TermId> {
        let mut needed: BTreeSet<TermId> = BTreeSet::new();
        let mut stack = vec![id];
        while let Some(t) = stack.pop() {
            if !needed.insert(t) {
                continue;
            }
            if let Some(Term::App(_, args)) = self.terms.get(t as usize) {
                stack.extend_from_slice(args);
            }
        }
        needed
    }

    /// Substitute variables by terms, memoized across one instantiation.
    /// Iterative over ascending ids (children first), so deep chains are
    /// safe.
    pub fn subst(
        &mut self,
        id: TermId,
        map: &BTreeMap<u32, TermId>,
        memo: &mut IdMap<TermId, TermId>,
    ) -> TermId {
        if let Some(&r) = memo.get(&id) {
            return r;
        }
        // Collect the needed subgraph, then rewrite it in ascending order.
        // A collected term is marked in `memo` with itself until its
        // rewrite, which its parents (larger ids) only read after it.
        let mut needed = std::mem::take(&mut self.subst_work);
        needed.push(id);
        memo.insert(id, id);
        let mut next = 0;
        while let Some(&t) = needed.get(next) {
            next += 1;
            if let Some(Term::App(_, args)) = self.terms.get(t as usize) {
                for &a in args.iter() {
                    if let Entry::Vacant(e) = memo.entry(a) {
                        e.insert(a);
                        needed.push(a);
                    }
                }
            }
        }
        needed.sort_unstable();
        for &t in &needed {
            let rewritten = match *self.term(t) {
                Term::Const(n) => self.constant(n),
                // An unmapped variable is itself: `t`.
                Term::Var(v) => map.get(&v).copied().unwrap_or(t),
                Term::App(op, args) => {
                    let mut new_args = args;
                    for a in new_args.ids.iter_mut().take(args.len()) {
                        *a = memo.get(a).copied().unwrap_or(*a);
                    }
                    self.app(op, &new_args)
                }
            };
            memo.insert(t, rewritten);
        }
        needed.clear();
        self.subst_work = needed;
        memo.get(&id).copied().unwrap_or(id)
    }

    /// Human-readable rendering (for reports and debugging).
    pub fn display(&self, id: TermId) -> String {
        let mut memo: IdMap<TermId, String> = IdMap::default();
        for i in self.reachable(id) {
            let s = match self.terms.get(i as usize) {
                None => "?".to_string(),
                Some(Term::Const(n)) => n.to_string(),
                Some(Term::Var(v)) => format!("v{v}"),
                Some(Term::App(op, args)) => {
                    let parts: Vec<String> = args
                        .iter()
                        .map(|a| memo.get(a).cloned().unwrap_or_else(|| "?".into()))
                        .collect();
                    format!("({} {})", op.name(), parts.join(" "))
                }
            };
            memo.insert(i, s);
        }
        memo.remove(&id).unwrap_or_else(|| "?".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_shares_structure() {
        let mut s = TermStore::new();
        let a = s.constant(1);
        let b = s.constant(1);
        assert_eq!(a, b);
        let (_, v) = s.fresh_var();
        let t1 = s.app(PrimOp::Add, &[a, v]);
        let t2 = s.app(PrimOp::Add, &[b, v]);
        assert_eq!(t1, t2);
    }

    #[test]
    fn constant_folding_matches_eval_pure() {
        let mut s = TermStore::new();
        let a = s.constant(i32::MAX);
        let b = s.constant(1);
        let t = s.app(PrimOp::Add, &[a, b]);
        assert_eq!(s.const_of(t), Some(i32::MIN)); // wrapping
    }

    #[test]
    fn div_by_zero_not_folded() {
        let mut s = TermStore::new();
        let a = s.constant(7);
        let z = s.constant(0);
        let t = s.app(PrimOp::Div, &[a, z]);
        assert_eq!(s.const_of(t), None);
        assert_eq!(s.eval(t, &BTreeMap::new()), Err(RuntimeError::DivideByZero));
    }

    #[test]
    fn eval_under_model() {
        let mut s = TermStore::new();
        let (x, xt) = s.fresh_var();
        let c = s.constant(3);
        let t = s.app(PrimOp::Mul, &[xt, c]);
        let mut m = BTreeMap::new();
        m.insert(x, 5);
        assert_eq!(s.eval(t, &m), Ok(15));
    }

    #[test]
    fn subst_rewrites_and_folds() {
        let mut s = TermStore::new();
        let (x, xt) = s.fresh_var();
        let c = s.constant(10);
        let t = s.app(PrimOp::Add, &[xt, c]);
        let two = s.constant(2);
        let mut map = BTreeMap::new();
        map.insert(x, two);
        let mut memo = IdMap::default();
        let r = s.subst(t, &map, &mut memo);
        assert_eq!(s.const_of(r), Some(12));
    }

    #[test]
    fn vars_and_display() {
        let mut s = TermStore::new();
        let (x, xt) = s.fresh_var();
        let c = s.constant(1);
        let t = s.app(PrimOp::Sub, &[xt, c]);
        let mut vars = BTreeSet::new();
        s.vars_of(t, &mut vars);
        assert!(vars.contains(&x));
        assert_eq!(s.display(t), format!("(sub v{x} 1)"));
    }
}
