//! Hardware primitive operations.
//!
//! On the Zarf λ-execution layer, ALU operations and I/O are not special
//! instruction forms: they are *functions* with reserved identifiers below
//! [`FIRST_USER_INDEX`] (`0x100`). Invoking a primitive is syntactically and
//! semantically identical to invoking a program-defined function — including
//! partial application, which yields a closure over the primitive.
//!
//! Function index `0x000` is reserved for the *runtime error constructor*
//! ([`ERROR_CON_INDEX`]): the value returned when evaluation encounters a
//! condition like division by zero. See [`crate::error::RuntimeError`].

use std::fmt;

use crate::error::RuntimeError;
use crate::Int;

/// The reserved function index of the runtime error constructor.
pub const ERROR_CON_INDEX: u32 = 0x000;

/// The first function index available to program-defined functions; `main`
/// is always loaded at this index.
pub const FIRST_USER_INDEX: u32 = 0x100;

/// A hardware primitive operation.
///
/// Every variant maps inputs to an output with no access to machine state;
/// the only exceptions are [`PrimOp::GetInt`] and [`PrimOp::PutInt`], the
/// sole I/O mechanisms in the ISA, and [`PrimOp::Gc`], the hardware function
/// the microkernel calls to invoke the garbage collector (a no-op in the
/// reference semantics, a collection cycle on real hardware / `zarf-hw`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PrimOp {
    /// Two's-complement addition (wrapping).
    Add,
    /// Two's-complement subtraction (wrapping).
    Sub,
    /// Two's-complement multiplication (wrapping).
    Mul,
    /// Signed division; division by zero yields the runtime error value.
    Div,
    /// Signed remainder; modulus by zero yields the runtime error value.
    Mod,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Bitwise NOT (unary).
    Not,
    /// Logical shift left by `rhs & 31`.
    Shl,
    /// Arithmetic shift right by `rhs & 31`.
    Shr,
    /// Equality test: `1` if equal, else `0`.
    Eq,
    /// Inequality test.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed less-or-equal.
    Le,
    /// Signed greater-than.
    Gt,
    /// Signed greater-or-equal.
    Ge,
    /// Arithmetic negation (unary, wrapping).
    Neg,
    /// Signed minimum.
    Min,
    /// Signed maximum.
    Max,
    /// Absolute value (unary, wrapping at `i32::MIN`).
    Abs,
    /// Read one word from the input port given by the argument.
    GetInt,
    /// Write a word (second argument) to a port (first argument); returns
    /// the value written.
    PutInt,
    /// Request a garbage-collection cycle; returns the number of words
    /// reclaimed (always 0 in the reference semantics).
    Gc,
}

/// All primitives, in reserved-index order. `PRIMS[i]` has function index
/// `i + 1` (index 0 is the error constructor).
pub const PRIMS: &[PrimOp] = &[
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
    PrimOp::GetInt,
    PrimOp::PutInt,
    PrimOp::Gc,
];

impl PrimOp {
    /// The assembly mnemonic.
    pub fn name(self) -> &'static str {
        match self {
            PrimOp::Add => "add",
            PrimOp::Sub => "sub",
            PrimOp::Mul => "mul",
            PrimOp::Div => "div",
            PrimOp::Mod => "mod",
            PrimOp::And => "and",
            PrimOp::Or => "or",
            PrimOp::Xor => "xor",
            PrimOp::Not => "not",
            PrimOp::Shl => "shl",
            PrimOp::Shr => "shr",
            PrimOp::Eq => "eq",
            PrimOp::Ne => "ne",
            PrimOp::Lt => "lt",
            PrimOp::Le => "le",
            PrimOp::Gt => "gt",
            PrimOp::Ge => "ge",
            PrimOp::Neg => "neg",
            PrimOp::Min => "min",
            PrimOp::Max => "max",
            PrimOp::Abs => "abs",
            PrimOp::GetInt => "getint",
            PrimOp::PutInt => "putint",
            PrimOp::Gc => "gc",
        }
    }

    /// Look up a primitive by its assembly mnemonic.
    pub fn from_name(name: &str) -> Option<Self> {
        PRIMS.iter().copied().find(|p| p.name() == name)
    }

    /// The reserved function index (`1 ..= PRIMS.len()`, all below
    /// [`FIRST_USER_INDEX`]).
    pub fn index(self) -> u32 {
        PRIMS
            .iter()
            .position(|&p| p == self)
            .expect("all ops listed") as u32
            + 1
    }

    /// Look up a primitive by its reserved function index.
    #[inline]
    pub fn from_index(index: u32) -> Option<Self> {
        if index == 0 {
            return None;
        }
        PRIMS.get(index as usize - 1).copied()
    }

    /// How many arguments the primitive consumes when saturated.
    #[inline]
    pub fn arity(self) -> usize {
        match self {
            PrimOp::Not | PrimOp::Neg | PrimOp::Abs | PrimOp::GetInt | PrimOp::Gc => 1,
            _ => 2,
        }
    }

    /// Whether this primitive performs I/O (and must therefore not be
    /// reordered, duplicated, or speculated by any execution engine).
    pub fn is_io(self) -> bool {
        matches!(self, PrimOp::GetInt | PrimOp::PutInt)
    }

    /// Evaluate a *pure* primitive over saturated integer arguments.
    ///
    /// I/O primitives and `gc` are handled by the evaluator (they need the
    /// port device / heap); calling this on them returns
    /// [`RuntimeError::NotPure`].
    pub fn eval_pure(self, args: &[Int]) -> Result<Int, RuntimeError> {
        debug_assert_eq!(args.len(), self.arity());
        let a = args[0];
        let b = || args[1];
        Ok(match self {
            PrimOp::Add => a.wrapping_add(b()),
            PrimOp::Sub => a.wrapping_sub(b()),
            PrimOp::Mul => a.wrapping_mul(b()),
            PrimOp::Div => {
                if b() == 0 {
                    return Err(RuntimeError::DivideByZero);
                }
                a.wrapping_div(b())
            }
            PrimOp::Mod => {
                if b() == 0 {
                    return Err(RuntimeError::DivideByZero);
                }
                a.wrapping_rem(b())
            }
            PrimOp::And => a & b(),
            PrimOp::Or => a | b(),
            PrimOp::Xor => a ^ b(),
            PrimOp::Not => !a,
            PrimOp::Shl => a.wrapping_shl(b() as u32 & 31),
            PrimOp::Shr => a.wrapping_shr(b() as u32 & 31),
            PrimOp::Eq => (a == b()) as Int,
            PrimOp::Ne => (a != b()) as Int,
            PrimOp::Lt => (a < b()) as Int,
            PrimOp::Le => (a <= b()) as Int,
            PrimOp::Gt => (a > b()) as Int,
            PrimOp::Ge => (a >= b()) as Int,
            PrimOp::Neg => a.wrapping_neg(),
            PrimOp::Min => a.min(b()),
            PrimOp::Max => a.max(b()),
            PrimOp::Abs => a.wrapping_abs(),
            PrimOp::GetInt | PrimOp::PutInt | PrimOp::Gc => {
                return Err(RuntimeError::NotPure(self))
            }
        })
    }
}

impl fmt::Display for PrimOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_round_trips() {
        for &p in PRIMS {
            assert_eq!(PrimOp::from_index(p.index()), Some(p), "{p}");
            assert!(p.index() < FIRST_USER_INDEX);
            assert_ne!(p.index(), ERROR_CON_INDEX);
        }
        assert_eq!(PrimOp::from_index(0), None);
        assert_eq!(PrimOp::from_index(0xFF), None);
    }

    #[test]
    fn name_round_trips() {
        for &p in PRIMS {
            assert_eq!(PrimOp::from_name(p.name()), Some(p));
        }
        assert_eq!(PrimOp::from_name("frobnicate"), None);
    }

    #[test]
    fn arithmetic_is_wrapping() {
        assert_eq!(PrimOp::Add.eval_pure(&[i32::MAX, 1]).unwrap(), i32::MIN);
        assert_eq!(PrimOp::Sub.eval_pure(&[i32::MIN, 1]).unwrap(), i32::MAX);
        assert_eq!(PrimOp::Neg.eval_pure(&[i32::MIN]).unwrap(), i32::MIN);
        assert_eq!(PrimOp::Abs.eval_pure(&[i32::MIN]).unwrap(), i32::MIN);
    }

    #[test]
    fn division_by_zero_is_runtime_error() {
        assert_eq!(
            PrimOp::Div.eval_pure(&[7, 0]),
            Err(RuntimeError::DivideByZero)
        );
        assert_eq!(
            PrimOp::Mod.eval_pure(&[7, 0]),
            Err(RuntimeError::DivideByZero)
        );
    }

    #[test]
    fn comparisons_yield_zero_or_one() {
        assert_eq!(PrimOp::Lt.eval_pure(&[-1, 1]).unwrap(), 1);
        assert_eq!(PrimOp::Lt.eval_pure(&[1, -1]).unwrap(), 0);
        assert_eq!(PrimOp::Eq.eval_pure(&[5, 5]).unwrap(), 1);
        assert_eq!(PrimOp::Ge.eval_pure(&[5, 5]).unwrap(), 1);
    }

    #[test]
    fn shifts_mask_their_amount() {
        assert_eq!(PrimOp::Shl.eval_pure(&[1, 33]).unwrap(), 2);
        assert_eq!(PrimOp::Shr.eval_pure(&[-8, 1]).unwrap(), -4); // arithmetic
    }

    #[test]
    fn io_ops_are_not_pure() {
        assert_eq!(
            PrimOp::GetInt.eval_pure(&[0]),
            Err(RuntimeError::NotPure(PrimOp::GetInt))
        );
        assert!(PrimOp::GetInt.is_io());
        assert!(PrimOp::PutInt.is_io());
        assert!(!PrimOp::Add.is_io());
    }
}
