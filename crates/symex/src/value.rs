//! Symbolic values and argument shape keys.
//!
//! The symbolic domain mirrors the interpreter's [`zarf_core::value::Value`]
//! exactly — integer, saturated constructor, closure, error — with one
//! twist: integers are interned [`TermId`]s instead of concrete words.
//! Constructor *tags* and closure *targets* stay concrete (the executor
//! enumerates alternatives at seeding time instead of solving over them),
//! which keeps the path conditions purely arithmetic.
//!
//! A [`ShapeKey`] is the closure-free skeleton of an argument vector —
//! constructor spine with `Int` leaves. It is the memoization key for
//! compositional function summaries: two calls whose arguments share a key
//! reuse one symbolic exploration, with the canonical leaf variables
//! substituted per call site.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Deref;
use std::rc::Rc;

use zarf_core::error::RuntimeError;
use zarf_core::prim::PrimOp;

use crate::term::{IdMap, TermId, TermStore};

/// What an unsaturated closure will invoke once saturated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CTarget {
    /// A user item (function or constructor) by global identifier.
    Item(u32),
    /// A primitive.
    Prim(PrimOp),
}

/// The values a constructor holds or a closure has been applied to: one
/// shared, immutable slice, so cloning the owner copies a pointer. An
/// empty payload (a nullary constructor, a closure with nothing applied)
/// holds no allocation at all.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Payload(Option<Rc<[SymVal]>>);

impl Payload {
    /// A payload holding copies of `vals`: one allocation unless empty.
    pub fn new(vals: &[SymVal]) -> Self {
        if vals.is_empty() {
            Payload(None)
        } else {
            Payload(Some(Rc::from(vals)))
        }
    }
}

impl Deref for Payload {
    type Target = [SymVal];

    fn deref(&self) -> &[SymVal] {
        self.0.as_deref().unwrap_or(&[])
    }
}

impl FromIterator<SymVal> for Payload {
    /// Collect into one allocation when the iterator knows its length.
    fn from_iter<I: IntoIterator<Item = SymVal>>(iter: I) -> Self {
        let iter = iter.into_iter();
        if iter.size_hint().1 == Some(0) {
            return Payload(None);
        }
        let vals: Rc<[SymVal]> = iter.collect();
        Payload(Some(vals).filter(|v| !v.is_empty()))
    }
}

/// One symbolic value. Integers, errors, opaque constructors and empty
/// payloads live inline; a clone never allocates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SymVal {
    /// An integer, as an interned term.
    Int(TermId),
    /// A saturated constructor. The tag is concrete.
    Con {
        /// Constructor identifier.
        tag: u32,
        /// Field values in declaration order.
        fields: Payload,
    },
    /// An unsaturated closure: a concrete target plus the arguments
    /// applied so far.
    Closure {
        /// What will run at saturation.
        target: CTarget,
        /// Already-applied arguments.
        applied: Payload,
    },
    /// The reserved runtime-error value.
    Error(RuntimeError),
    /// A constructor whose *fields are not yet materialized*. The envelope
    /// seeds one `Opaque` per abstractly-known tag instead of recursively
    /// instantiating cell contents; the executor expands it lazily from the
    /// shape report's cells only when a path actually projects the fields
    /// (a matching case arm with arity > 0). This is what keeps cyclic
    /// cell graphs — state-feedback loops in drivers — finite: depth is
    /// bounded by what the program walks, not by the cell graph.
    Opaque {
        /// Constructor identifier.
        tag: u32,
    },
}

impl SymVal {
    /// A saturated constructor over copies of `fields`.
    pub fn con(tag: u32, fields: &[SymVal]) -> Self {
        SymVal::Con {
            tag,
            fields: Payload::new(fields),
        }
    }

    /// A closure over copies of the arguments `applied` so far.
    pub fn closure(target: CTarget, applied: &[SymVal]) -> Self {
        SymVal::Closure {
            target,
            applied: Payload::new(applied),
        }
    }

    /// Render for reports: `(Con 5 (sub v0 1))`-style.
    pub fn display(&self, store: &TermStore) -> String {
        match self {
            SymVal::Int(t) => store.display(*t),
            SymVal::Con { tag, fields } => {
                let mut s = format!("(con:{tag:#x}");
                for f in fields.iter() {
                    s.push(' ');
                    s.push_str(&f.display(store));
                }
                s.push(')');
                s
            }
            SymVal::Closure { target, applied } => {
                let t = match target {
                    CTarget::Item(id) => format!("{id:#x}"),
                    CTarget::Prim(op) => op.name().to_string(),
                };
                let mut s = format!("(clo:{t}");
                for a in applied.iter() {
                    s.push(' ');
                    s.push_str(&a.display(store));
                }
                s.push(')');
                s
            }
            SymVal::Error(e) => format!("(error {})", e.code()),
            SymVal::Opaque { tag } => format!("(opq:{tag:#x})"),
        }
    }
}

/// The constructor-spine skeleton of a closure-free, error-free value.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ShapeKey {
    /// Any integer.
    Int,
    /// A constructor with the given field skeletons.
    Con(u32, Vec<ShapeKey>),
}

impl fmt::Display for ShapeKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShapeKey::Int => write!(f, "int"),
            ShapeKey::Con(tag, fields) => {
                write!(f, "(con:{tag:#x}")?;
                for k in fields {
                    write!(f, " {k}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// The shape key of a value, if it has one (closures and errors do not).
/// Iterative over an explicit spine to stay stack-safe on deep nests.
pub fn shape_key(v: &SymVal) -> Option<ShapeKey> {
    enum Frame<'a> {
        Visit(&'a SymVal),
        Build(u32, usize),
    }
    if let SymVal::Int(_) = v {
        // The common case needs no spine.
        return Some(ShapeKey::Int);
    }
    let mut work = vec![Frame::Visit(v)];
    let mut done: Vec<ShapeKey> = Vec::new();
    while let Some(f) = work.pop() {
        match f {
            Frame::Visit(sv) => match sv {
                SymVal::Int(_) => done.push(ShapeKey::Int),
                SymVal::Con { tag, fields } => {
                    work.push(Frame::Build(*tag, fields.len()));
                    for f in fields.iter().rev() {
                        work.push(Frame::Visit(f));
                    }
                }
                SymVal::Closure { .. } | SymVal::Error(_) | SymVal::Opaque { .. } => return None,
            },
            Frame::Build(tag, n) => {
                let at = done.len().checked_sub(n)?;
                let fields = done.split_off(at);
                done.push(ShapeKey::Con(tag, fields));
            }
        }
    }
    done.pop()
}

/// Instantiate a shape key with fresh *canonical* variables at the `Int`
/// leaves, returning the value and the leaf variable numbers in
/// left-to-right order. Summaries are explored over canonical values and
/// re-targeted per call site through [`leaf_terms`] + [`subst_sv`].
pub fn canonical(store: &mut TermStore, key: &ShapeKey) -> (SymVal, Vec<u32>) {
    let mut leaves = Vec::new();
    let sv = canonical_rec(store, key, &mut leaves);
    (sv, leaves)
}

fn canonical_rec(store: &mut TermStore, key: &ShapeKey, leaves: &mut Vec<u32>) -> SymVal {
    match key {
        ShapeKey::Int => {
            let (v, t) = store.fresh_var();
            leaves.push(v);
            SymVal::Int(t)
        }
        ShapeKey::Con(tag, fields) => SymVal::Con {
            tag: *tag,
            fields: fields
                .iter()
                .map(|k| canonical_rec(store, k, leaves))
                .collect(),
        },
    }
}

/// The integer terms at the leaves of a keyed value, left to right — the
/// per-call-site counterpart of [`canonical`]'s leaf variables. `None` if
/// a closure or error appears (no shape key exists then).
pub fn leaf_terms(v: &SymVal, out: &mut Vec<TermId>) -> Option<()> {
    match v {
        SymVal::Int(t) => {
            out.push(*t);
            Some(())
        }
        SymVal::Con { fields, .. } => {
            for f in fields.iter() {
                leaf_terms(f, out)?;
            }
            Some(())
        }
        SymVal::Closure { .. } | SymVal::Error(_) | SymVal::Opaque { .. } => None,
    }
}

/// Rewrite every integer term in a value through a variable substitution.
pub fn subst_sv(
    store: &mut TermStore,
    v: &SymVal,
    map: &BTreeMap<u32, TermId>,
    memo: &mut IdMap<TermId, TermId>,
) -> SymVal {
    match v {
        SymVal::Int(t) => SymVal::Int(store.subst(*t, map, memo)),
        SymVal::Con { tag, fields } => SymVal::Con {
            tag: *tag,
            fields: fields
                .iter()
                .map(|f| subst_sv(store, f, map, memo))
                .collect(),
        },
        SymVal::Closure { target, applied } => SymVal::Closure {
            target: *target,
            applied: applied
                .iter()
                .map(|a| subst_sv(store, a, map, memo))
                .collect(),
        },
        SymVal::Error(_) | SymVal::Opaque { .. } => v.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_keys_ignore_leaf_terms() {
        let mut s = TermStore::new();
        let a = s.constant(1);
        let (_, b) = s.fresh_var();
        let v1 = SymVal::con(0x105, &[SymVal::Int(a), SymVal::Int(b)]);
        let v2 = SymVal::con(0x105, &[SymVal::Int(b), SymVal::Int(a)]);
        assert_eq!(shape_key(&v1), shape_key(&v2));
        let nested = SymVal::con(0x106, &[v1]);
        assert_ne!(shape_key(&v2), shape_key(&nested));
    }

    #[test]
    fn closures_have_no_key() {
        let v = SymVal::closure(CTarget::Prim(PrimOp::Add), &[]);
        assert_eq!(shape_key(&v), None);
        let wrapped = SymVal::con(0x105, &[v]);
        assert_eq!(shape_key(&wrapped), None);
    }

    #[test]
    fn canonical_and_leaves_align() {
        let mut s = TermStore::new();
        let key = ShapeKey::Con(
            0x105,
            vec![ShapeKey::Int, ShapeKey::Con(0x106, vec![ShapeKey::Int])],
        );
        let (cv, canon_vars) = canonical(&mut s, &key);
        assert_eq!(canon_vars.len(), 2);
        assert_eq!(shape_key(&cv).as_ref(), Some(&key));

        // A call-site value with the same key yields leaf terms in the same
        // order, so zip(canon_vars, leaves) is a valid substitution.
        let n1 = s.constant(7);
        let n2 = s.constant(9);
        let site = SymVal::con(
            0x105,
            &[SymVal::Int(n1), SymVal::con(0x106, &[SymVal::Int(n2)])],
        );
        let mut leaves = Vec::new();
        assert!(leaf_terms(&site, &mut leaves).is_some());
        assert_eq!(leaves, vec![n1, n2]);

        let map: BTreeMap<u32, TermId> = canon_vars.iter().copied().zip(leaves).collect();
        let mut memo = IdMap::default();
        let re = subst_sv(&mut s, &cv, &map, &mut memo);
        assert_eq!(re, site);
    }

    #[test]
    fn display_renders_all_forms() {
        let mut s = TermStore::new();
        let c = s.constant(3);
        let v = SymVal::con(
            0x105,
            &[
                SymVal::Int(c),
                SymVal::closure(CTarget::Item(0x102), &[]),
                SymVal::Error(RuntimeError::DivideByZero),
            ],
        );
        let txt = v.display(&s);
        assert!(
            txt.contains("con:0x105") && txt.contains("error 1"),
            "{txt}"
        );
    }
}
