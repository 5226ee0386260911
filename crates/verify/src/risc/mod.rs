//! `zarf vet --risc`: Macaw-style certification of imperative-core
//! binaries.
//!
//! The λ side of the architecture gets its analyses almost for free —
//! total control flow, no hidden state. This module is the other half
//! of the paper's story: the same [`crate::absint::Engine`] pointed at
//! the **untrusted RISC core**, where control flow must first be
//! *recovered* and the domain must soundly track wrapping machine
//! arithmetic.
//!
//! * [`cfg`] — basic blocks, `Jal` call-site function partitioning,
//!   dominators, natural loops; typed rejection of computed or
//!   irreducible control flow.
//! * [`domain`] — per-register/per-word intervals (the shared
//!   [`crate::interval`] lattice) × known-low-bits congruences, with
//!   tiered widening and branch refinement.
//! * [`wcet`] — loop trip bounds, induction-variable clamps, and a
//!   hierarchical worst-case cycle bound over [`zarf_imperative::CpuCost`].
//! * [`clients`] — the certification clients: divide-by-zero freedom,
//!   memory-bounds freedom, port discipline, and the WCET report.

pub mod cfg;
pub mod clients;
pub mod domain;
pub mod wcet;

pub use cfg::{Cfg, CfgError};
pub use clients::{certify, PortPolicy, RiscReport, RiscSpec, Violation};
pub use domain::{analyze, AbsState, AbsVal};
pub use wcet::{LoopReport, WcetReport};

use std::fmt;

use crate::absint::AbsIntError;

/// Why certification could not run at all (distinct from a program that
/// analyzes fine but violates a client property).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RiscError {
    /// Control-flow recovery refused the program.
    Cfg(CfgError),
    /// The abstract-interpretation engine failed its own contract.
    AbsInt(AbsIntError),
}

impl fmt::Display for RiscError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RiscError::Cfg(e) => write!(f, "control-flow recovery failed: {e}"),
            RiscError::AbsInt(e) => write!(f, "abstract interpretation failed: {e}"),
        }
    }
}

impl std::error::Error for RiscError {}

impl From<CfgError> for RiscError {
    fn from(e: CfgError) -> Self {
        RiscError::Cfg(e)
    }
}

impl From<AbsIntError> for RiscError {
    fn from(e: AbsIntError) -> Self {
        RiscError::AbsInt(e)
    }
}
