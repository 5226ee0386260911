//! Heap values and objects of the λ-execution layer hardware.
//!
//! The hardware attaches **one tag bit** to every machine word to
//! distinguish primitive integers from references to function objects
//! (paper §3.2); [`HValue`] is exactly that tagged word. Everything else
//! lives in the garbage-collected heap as an [`HeapObj`]:
//!
//! * [`HeapObj::App`] — the structure a `let` instruction allocates, "tying
//!   the code (function identifier) to the data (arguments)" for later lazy
//!   evaluation. An `App` whose target is a global with fewer arguments
//!   than its arity is a *partial application* and is already in weak
//!   head-normal form.
//! * [`HeapObj::Con`] — a saturated constructor: the data values of the ISA.
//! * [`HeapObj::Ind`] — an indirection written when a thunk finishes
//!   evaluating ("marking the reference as evaluated and saving the
//!   result"); forcing one costs the 2-cycle evaluated-reference check.
//! * [`HeapObj::BlackHole`] — a thunk currently under evaluation; forcing
//!   one means the program demanded a value while computing it (an infinite
//!   loop the hardware would never escape), which the simulator reports.
//!
//! Object sizes are modeled in 32-bit words: a 2-word header plus one word
//! per argument/field, matching the `N` in the paper's "N + 4 cycles to
//! copy" GC cost.
//!
//! Host representation: a reference is a 32-bit object index, so an
//! [`HValue`] is 8 bytes (a 32-bit payload and its tag), not the 16 a
//! `usize` index takes. Every payload slot, frame argument and local, host
//! root and collector root is one such value, so the interpreter and the
//! collector move half the bytes. An index cannot wrap: every object is
//! at least 2 words, and machine construction refuses a semispace larger
//! than [`MAX_HEAP_WORDS`](crate::heap::MAX_HEAP_WORDS) (2^33 words, so at
//! most 2^32 objects). A unit test in `machine.rs` pins the host sizes
//! (DESIGN.md §4).

use zarf_core::Int;

/// Index of an object in the heap: 32 bits, the width of the paper's
/// machine word.
pub type HeapRef = u32;

/// A tagged machine word: either a primitive integer or a heap reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HValue {
    /// A primitive 32-bit integer (tag bit 0).
    Int(Int),
    /// A reference to a heap object (tag bit 1).
    Ref(HeapRef),
}

/// What an application object will invoke.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppTarget {
    /// A global function identifier: a primitive (`< 0x100`), the reserved
    /// error constructor (`0x000`), or a program item (`>= 0x100`).
    Global(u32),
    /// A closure-valued reference that must itself be forced first.
    Value(HValue),
}

/// A heap object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HeapObj {
    /// An unevaluated (or partial) application of `target` to `args`.
    App {
        /// What will run when the application saturates and is demanded.
        target: AppTarget,
        /// Arguments collected so far.
        args: Vec<HValue>,
    },
    /// A saturated constructor value.
    Con {
        /// The constructor's function identifier.
        id: u32,
        /// Exactly arity-many fields.
        fields: Vec<HValue>,
    },
    /// An evaluated thunk: the stored weak head-normal form.
    Ind(HValue),
    /// A thunk whose evaluation is in progress.
    BlackHole,
    /// GC-internal: the object was evacuated and lives on as this value
    /// (a to-space reference, or the short-circuited payload of an
    /// indirection). Never visible outside a collection cycle.
    Forwarded(HValue),
}

impl HeapObj {
    /// Size of the object in memory words: 2-word header + payload.
    pub fn words(&self) -> usize {
        match self {
            HeapObj::App { args, .. } => 2 + args.len(),
            HeapObj::Con { fields, .. } => 2 + fields.len(),
            HeapObj::Ind(_) => 2,
            HeapObj::BlackHole => 2,
            HeapObj::Forwarded(_) => 2,
        }
    }

    /// The payload slots a collector must scan.
    pub fn payload(&self) -> &[HValue] {
        match self {
            HeapObj::App { args, .. } => args,
            HeapObj::Con { fields, .. } => fields,
            HeapObj::Ind(_) | HeapObj::BlackHole | HeapObj::Forwarded(_) => &[],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_sizes_are_header_plus_payload() {
        let app = HeapObj::App {
            target: AppTarget::Global(0x100),
            args: vec![HValue::Int(1), HValue::Int(2), HValue::Int(3)],
        };
        assert_eq!(app.words(), 5);
        let con = HeapObj::Con {
            id: 0x101,
            fields: vec![],
        };
        assert_eq!(con.words(), 2);
        assert_eq!(HeapObj::Ind(HValue::Int(0)).words(), 2);
    }

    #[test]
    fn payload_exposes_scannable_slots() {
        let con = HeapObj::Con {
            id: 0x101,
            fields: vec![HValue::Ref(3), HValue::Int(9)],
        };
        assert_eq!(con.payload(), &[HValue::Ref(3), HValue::Int(9)]);
        assert!(HeapObj::BlackHole.payload().is_empty());
    }
}
