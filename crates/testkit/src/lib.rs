//! # zarf-testkit — self-contained test support
//!
//! The workspace builds and tests **offline**, so in place of `rand` and
//! `proptest` this crate provides the small API surface the workspace
//! actually uses, free of dependencies:
//!
//! * [`rng`] — a deterministic [SplitMix64](https://prng.di.unimi.it/splitmix64.c)
//!   generator with `rand`-shaped inherent methods (`seed_from_u64`,
//!   `gen_range`, `gen_bool`, `gen`). Streams are stable across runs and
//!   platforms, which is exactly what seeded differential tests want.
//! * [`prop`] — a miniature property-testing harness: a [`prop::Strategy`]
//!   trait with `prop_map`, tuple/range/`any` strategies, collection and
//!   string-pattern generators, a [`prop_oneof!`] union, and a
//!   [`proptest!`] macro that runs a fixed number of seeded cases and
//!   reports the generated inputs on failure. No shrinking — failures
//!   print the full inputs and the deterministic case seed instead.
//! * [`replay`] — concrete witness replay: run a [`replay::WitnessSpec`]
//!   (entry item + argument recipes + scripted port feed) on the big-step
//!   reference interpreter and report every runtime fault the call
//!   constructs, via the evaluator's fault probe. This is how every
//!   counterexample the symbolic executor emits is validated.

pub mod prop;
pub mod replay;
pub mod rng;

pub use replay::{replay_witness, ReplayOutcome, WArg, WitnessSpec};

/// Everything a property-test file needs: `use zarf_testkit::prelude::*;`.
pub mod prelude {
    pub use crate::prop::{any, BoxedStrategy, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};

    /// Mirrors `proptest::prelude::prop` so `prop::collection::vec(…)`
    /// keeps working unchanged.
    pub mod prop {
        pub use crate::prop::collection;
    }
}
