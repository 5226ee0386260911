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
//! Applications of pure primitives over all-constant arguments fold at
//! interning time via the *same* [`PrimOp::eval_pure`] the reference
//! interpreter uses — the symbolic and concrete semantics cannot drift.
//! Division/modulo by literal zero is deliberately *not* folded (it is a
//! fault, which the executor forks on before building the term).

use std::collections::{BTreeMap, BTreeSet, HashMap};

use zarf_core::error::RuntimeError;
use zarf_core::prim::PrimOp;
use zarf_core::Int;

/// Index of a term in its [`TermStore`].
pub type TermId = u32;

/// One interned term.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Term {
    /// A literal integer.
    Const(Int),
    /// A symbolic variable, by its global variable number.
    Var(u32),
    /// A pure primitive applied to interned arguments.
    App(PrimOp, Vec<TermId>),
}

/// The hash-consed term arena.
#[derive(Debug, Default)]
pub struct TermStore {
    terms: Vec<Term>,
    index: HashMap<Term, TermId>,
    next_var: u32,
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

    fn intern(&mut self, t: Term) -> TermId {
        if let Some(&id) = self.index.get(&t) {
            return id;
        }
        let id = self.terms.len() as TermId;
        self.terms.push(t.clone());
        self.index.insert(t, id);
        id
    }

    /// Intern a constant.
    pub fn constant(&mut self, n: Int) -> TermId {
        self.intern(Term::Const(n))
    }

    /// Mint a fresh variable; returns `(var number, term id)`.
    pub fn fresh_var(&mut self) -> (u32, TermId) {
        let v = self.next_var;
        self.next_var += 1;
        (v, self.intern(Term::Var(v)))
    }

    /// Intern (a reference to) an existing variable.
    pub fn var(&mut self, v: u32) -> TermId {
        self.intern(Term::Var(v))
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
    pub fn app(&mut self, op: PrimOp, args: Vec<TermId>) -> TermId {
        let consts: Option<Vec<Int>> = args.iter().map(|&a| self.const_of(a)).collect();
        if let Some(cs) = consts {
            if cs.len() == op.arity() {
                if let Ok(n) = op.eval_pure(&cs) {
                    return self.constant(n);
                }
            }
        }
        self.intern(Term::App(op, args))
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
                Some(Term::App(_, args)) => stack.extend(args.iter().copied()),
                _ => {}
            }
        }
    }

    /// Evaluate a term under a variable assignment, with the reference
    /// semantics (`eval_pure`, so wrapping and fault behavior match the
    /// interpreter exactly). Unassigned variables read as 0. Iterative:
    /// children have smaller ids, so one ascending pass suffices.
    pub fn eval(&self, id: TermId, model: &BTreeMap<u32, Int>) -> Result<Int, RuntimeError> {
        let mut memo: HashMap<TermId, Result<Int, RuntimeError>> = HashMap::new();
        for i in self.reachable(id) {
            let v = match self.terms.get(i as usize) {
                None => continue,
                Some(Term::Const(n)) => Ok(*n),
                Some(Term::Var(x)) => Ok(model.get(x).copied().unwrap_or(0)),
                Some(Term::App(op, args)) => {
                    let mut cs = Vec::with_capacity(args.len());
                    let mut failed = None;
                    for a in args {
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
                stack.extend(args.iter().copied());
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
        memo: &mut HashMap<TermId, TermId>,
    ) -> TermId {
        if let Some(&r) = memo.get(&id) {
            return r;
        }
        // Collect the needed subgraph, then rewrite in ascending order.
        let mut needed: BTreeSet<TermId> = BTreeSet::new();
        let mut stack = vec![id];
        while let Some(t) = stack.pop() {
            if memo.contains_key(&t) || !needed.insert(t) {
                continue;
            }
            if let Some(Term::App(_, args)) = self.terms.get(t as usize) {
                stack.extend(args.iter().copied());
            }
        }
        for t in needed {
            let rewritten = match *self.term(t) {
                Term::Const(n) => self.constant(n),
                Term::Var(v) => match map.get(&v) {
                    Some(&r) => r,
                    None => self.var(v),
                },
                Term::App(op, ref args) => {
                    let new_args: Vec<TermId> = args
                        .iter()
                        .map(|a| memo.get(a).copied().unwrap_or(*a))
                        .collect();
                    self.app(op, new_args)
                }
            };
            memo.insert(t, rewritten);
        }
        memo.get(&id).copied().unwrap_or(id)
    }

    /// Human-readable rendering (for reports and debugging).
    pub fn display(&self, id: TermId) -> String {
        let mut memo: HashMap<TermId, String> = HashMap::new();
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
        let t1 = s.app(PrimOp::Add, vec![a, v]);
        let t2 = s.app(PrimOp::Add, vec![b, v]);
        assert_eq!(t1, t2);
    }

    #[test]
    fn constant_folding_matches_eval_pure() {
        let mut s = TermStore::new();
        let a = s.constant(i32::MAX);
        let b = s.constant(1);
        let t = s.app(PrimOp::Add, vec![a, b]);
        assert_eq!(s.const_of(t), Some(i32::MIN)); // wrapping
    }

    #[test]
    fn div_by_zero_not_folded() {
        let mut s = TermStore::new();
        let a = s.constant(7);
        let z = s.constant(0);
        let t = s.app(PrimOp::Div, vec![a, z]);
        assert_eq!(s.const_of(t), None);
        assert_eq!(s.eval(t, &BTreeMap::new()), Err(RuntimeError::DivideByZero));
    }

    #[test]
    fn eval_under_model() {
        let mut s = TermStore::new();
        let (x, xt) = s.fresh_var();
        let c = s.constant(3);
        let t = s.app(PrimOp::Mul, vec![xt, c]);
        let mut m = BTreeMap::new();
        m.insert(x, 5);
        assert_eq!(s.eval(t, &m), Ok(15));
    }

    #[test]
    fn subst_rewrites_and_folds() {
        let mut s = TermStore::new();
        let (x, xt) = s.fresh_var();
        let c = s.constant(10);
        let t = s.app(PrimOp::Add, vec![xt, c]);
        let two = s.constant(2);
        let mut map = BTreeMap::new();
        map.insert(x, two);
        let mut memo = HashMap::new();
        let r = s.subst(t, &map, &mut memo);
        assert_eq!(s.const_of(r), Some(12));
    }

    #[test]
    fn vars_and_display() {
        let mut s = TermStore::new();
        let (x, xt) = s.fresh_var();
        let c = s.constant(1);
        let t = s.app(PrimOp::Sub, vec![xt, c]);
        let mut vars = BTreeSet::new();
        s.vars_of(t, &mut vars);
        assert!(vars.contains(&x));
        assert_eq!(s.display(t), format!("(sub v{x} 1)"));
    }
}
