//! # Zarf — an architecture supporting formal and compositional binary analysis
//!
//! A workspace-scale Rust reproduction of the ASPLOS 2017 paper by McMahan,
//! Christensen, Nichols, Roesch, Guo, Hardekopf, and Sherwood. Zarf is a
//! two-layer embedded architecture: a purely functional **λ-execution
//! layer** whose ISA is a lambda-lifted, A-normal-form lambda calculus with
//! three instructions (`let` / `case` / `result`), and a conventional
//! imperative core, connected only by a value channel. Critical code runs —
//! and is *analyzed* — at the binary level on the functional layer; legacy
//! and convenience code runs unverified on the imperative one.
//!
//! This crate is a façade: each subsystem lives in its own crate and is
//! re-exported here.
//!
//! | module | crate | what it is |
//! |---|---|---|
//! | [`core`](mod@core) | `zarf-core` | the ISA: syntax, values, big-step & small-step reference semantics |
//! | [`asm`] | `zarf-asm` | assembler, binary encoder/decoder, disassembler, lifter |
//! | [`hw`] | `zarf-hw` | cycle-accurate simulator of the λ-layer hardware (lazy evaluation, semispace GC, CPI stats, resource model) |
//! | [`imperative`] | `zarf-imperative` | the untrusted RISC core, its assembler, and the inter-layer channel |
//! | [`icd`] | `zarf-icd` | the implantable-defibrillator application: ECG synthesis, Pan–Tompkins spec, VT/ATP, extraction to Zarf assembly |
//! | [`kernel`] | `zarf-kernel` | the cooperative-coroutine microkernel, system devices, monitor program, the unverified imperative baseline, and full-system integration |
//! | [`verify`] | `zarf-verify` | the binary analyses: integrity type system (non-interference), WCET, GC bounds, system timing |
//! | [`fleet`] | `zarf-fleet` | multi-session execution server: fuel-sliced scheduling, snapshot-backed eviction, `ZFLT` wire protocol |
//! | [`store`] | `zarf-store` | crash-consistent content-addressed chunk store: dedup snapshot persistence, journaled manifest, a resident chunk LRU, `fsck`/`gc` |
//!
//! ## Quickstart
//!
//! ```
//! use zarf::asm::assemble;
//! use zarf::hw::Hw;
//! use zarf::core::NullPorts;
//!
//! // Assemble a program for the λ-execution layer…
//! let binary = assemble(
//!     "fun main =\n let x = mul 6 7 in\n result x",
//! ).unwrap();
//! // …and run the binary on the cycle-accurate hardware model.
//! let mut hw = Hw::load(&binary).unwrap();
//! let v = hw.run(&mut NullPorts).unwrap();
//! assert_eq!(hw.as_int(v), Some(42));
//! ```
//!
//! See `examples/` for the full-system ICD demonstration, the binary-
//! analysis workflow, and functional programming on the ISA; `DESIGN.md`
//! for the system inventory; and `EXPERIMENTS.md` for the reproduction of
//! every table and figure in the paper's evaluation.

pub use zarf_asm as asm;
pub use zarf_chaos as chaos;
pub use zarf_core as core;
pub use zarf_fleet as fleet;
pub use zarf_hw as hw;
pub use zarf_icd as icd;
pub use zarf_imperative as imperative;
pub use zarf_kernel as kernel;
pub use zarf_store as store;
pub use zarf_symex as symex;
pub use zarf_trace as trace;
pub use zarf_verify as verify;

pub mod diverge {
    //! Divergence pinpointing for differential engine testing.
    //!
    //! When the big-step evaluator and the small-step machine disagree on
    //! a program, comparing final values says *that* they disagree but
    //! not *where*. Both engines emit the same observable event stream
    //! (`bind` / `dispatch` / `yield`, in the same dynamic order), so the
    //! first index at which the streams differ localizes the bug to a
    //! single binding or branch decision. This module replays both
    //! engines with ring-buffer [`LastN`](crate::trace::LastN) sinks and
    //! reports that first diverging event.

    use crate::core::step::Machine;
    use crate::core::{Evaluator, NullPorts, Program};
    use crate::trace::{first_divergence, Engine, Event, LastN, SharedSink};

    /// Default number of trailing events each engine retains.
    pub const DEFAULT_WINDOW: usize = 1 << 16;

    /// The first observable event on which the two engines disagree.
    #[derive(Debug, Clone)]
    pub struct Divergence {
        /// Absolute position in the event stream (0-based).
        pub index: u64,
        /// The big-step engine's event there (`None`: its stream ended).
        pub big: Option<Event>,
        /// The small-step engine's event there (`None`: its stream ended).
        pub small: Option<Event>,
    }

    /// Strip the engine tag so semantically identical events from the
    /// two engines compare equal.
    fn normalized(e: &Event) -> Event {
        let mut e = e.clone();
        match &mut e {
            Event::Bind { engine, .. }
            | Event::Dispatch { engine, .. }
            | Event::Yield { engine, .. } => *engine = Engine::Big,
            _ => {}
        }
        e
    }

    fn capture_big(program: &Program, fuel: u64, window: usize) -> (Vec<Event>, u64) {
        let shared = SharedSink::new(LastN::new(window));
        let mut eval = Evaluator::new(program).with_fuel(fuel);
        eval.set_sink(Box::new(shared.clone()));
        let _ = eval.run(&mut NullPorts);
        (
            shared.with(|s| s.events().cloned().collect()),
            shared.with(|s| s.seen()),
        )
    }

    fn capture_small(program: &Program, fuel: u64, window: usize) -> (Vec<Event>, u64) {
        let shared = SharedSink::new(LastN::new(window));
        let mut machine = Machine::new(program);
        machine.set_sink(Box::new(shared.clone()));
        let _ = machine.run(&mut NullPorts, fuel);
        (
            shared.with(|s| s.events().cloned().collect()),
            shared.with(|s| s.seen()),
        )
    }

    /// Replay `program` on both engines (each with `fuel`), retaining the
    /// last `window` events per engine, and locate the first diverging
    /// event. Returns `None` when the retained streams are identical.
    pub fn between(program: &Program, fuel: u64, window: usize) -> Option<Divergence> {
        let (big, big_seen) = capture_big(program, fuel, window);
        let (small, small_seen) = capture_small(program, fuel, window);
        // Align the two retained windows to a common absolute start.
        let big_start = big_seen - big.len() as u64;
        let small_start = small_seen - small.len() as u64;
        let start = big_start.max(small_start);
        let a = &big[(start - big_start) as usize..];
        let b = &small[(start - small_start) as usize..];
        let na: Vec<Event> = a.iter().map(normalized).collect();
        let nb: Vec<Event> = b.iter().map(normalized).collect();
        match first_divergence(&na, &nb) {
            Some((i, _, _)) => Some(Divergence {
                index: start + i as u64,
                big: a.get(i).cloned(),
                small: b.get(i).cloned(),
            }),
            // Identical windows but different stream lengths: the
            // divergence precedes what was retained.
            None if big_seen != small_seen => Some(Divergence {
                index: start.min(big_seen.min(small_seen)),
                big: None,
                small: None,
            }),
            None => None,
        }
    }

    /// One-call debugging aid for differential tests: replay both
    /// engines and render the first divergence (with a little preceding
    /// context) as a report suitable for a panic message.
    pub fn report(program: &Program, fuel: u64) -> String {
        match between(program, fuel, DEFAULT_WINDOW) {
            None => "engine event streams are identical".into(),
            Some(d) => {
                let mut out = format!("first diverging event at index {}:\n", d.index);
                let fmt = |e: &Option<Event>| match e {
                    Some(e) => format!("{e:?}"),
                    None => "<stream ended>".into(),
                };
                out.push_str(&format!("  big-step:   {}\n", fmt(&d.big)));
                out.push_str(&format!("  small-step: {}", fmt(&d.small)));
                out
            }
        }
    }
}
