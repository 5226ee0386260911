//! Session operations and their deterministic execution.
//!
//! An [`Op`] is the unit of work a client injects into a session: apply one
//! program item to integer arguments, against a scripted set of port
//! inputs, under the session's per-op fuel budget. Executing an op is
//! **total and deterministic** — every outcome, including fuel exhaustion
//! and machine faults, is encoded into the session's output stream rather
//! than surfaced as a host error. That totality is what lets a chaos-killed
//! slice simply re-run from the last snapshot: the replay cannot diverge.
//!
//! Output layout per op: for each port that received output (ascending
//! port order) the triple `port, count, words…`, followed by exactly one
//! result word — the integer result, or one of the `RES_*` codes below for
//! non-integer and fault outcomes.

use zarf_core::{Int, VecPorts, Word};
use zarf_hw::{HValue, Hw, HwConfig, HwError};

use crate::fleet::SessionConfig;
use crate::FleetError;

/// Result word: the op finished but its value is not an integer (a
/// constructor or closure — for step ops it became the new session state).
pub const RES_OPAQUE: Int = Int::MIN + 1;
/// Result word: the op exhausted its per-op fuel budget.
pub const RES_FUEL: Int = Int::MIN + 2;
/// Result word: the op ran the machine out of heap.
pub const RES_OOM: Int = Int::MIN + 3;
/// Result word: the op faulted in the machine (I/O error, dangling
/// reference, unknown item, …).
pub const RES_MACHINE_FAULT: Int = Int::MIN + 4;
/// Extra word appended when the boundary collection itself fails — the
/// session is then poisoned by the scheduler.
pub const RES_GC_FAULT: Int = Int::MIN + 5;
/// Result words `RES_ERROR_BASE + code` report a λ-level runtime error
/// value (the `Error` constructor) with the given error code.
pub const RES_ERROR_BASE: Int = Int::MIN + 0x100;

/// Scripted input words for one port, drained FIFO by `getint` during the
/// op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortFeed {
    /// Port number.
    pub port: Int,
    /// Words served in order.
    pub words: Vec<Int>,
}

/// One unit of session work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Apply item `item` to `args` and run to WHNF. Stateless: the session
    /// state is neither read nor written.
    Eval {
        /// Program item identifier.
        item: u32,
        /// Integer arguments.
        args: Vec<Int>,
        /// Scripted port inputs for this op.
        inputs: Vec<PortFeed>,
    },
    /// Apply item `item` to the current session state followed by `args`;
    /// the result becomes the new session state. The state starts as the
    /// integer `0` when the session is opened, so a boot item can ignore
    /// it and build the real initial state.
    Step {
        /// Program item identifier.
        item: u32,
        /// Integer arguments appended after the state.
        args: Vec<Int>,
        /// Scripted port inputs for this op.
        inputs: Vec<PortFeed>,
    },
}

impl Op {
    /// Shorthand for [`Op::Eval`].
    pub fn eval(item: u32, args: Vec<Int>, inputs: Vec<PortFeed>) -> Self {
        Op::Eval { item, args, inputs }
    }

    /// Shorthand for [`Op::Step`].
    pub fn step(item: u32, args: Vec<Int>, inputs: Vec<PortFeed>) -> Self {
        Op::Step { item, args, inputs }
    }

    fn parts(&self) -> (u32, &[Int], &[PortFeed], bool) {
        match self {
            Op::Eval { item, args, inputs } => (*item, args, inputs, false),
            Op::Step { item, args, inputs } => (*item, args, inputs, true),
        }
    }
}

/// The session-state root slot (step ops thread the state through it).
const STATE_SLOT: usize = 0;

/// Execute one op against a machine, appending its output words to `out`.
///
/// Infallible by construction: faults become `RES_*` words. Returns
/// `false` only when the boundary collection failed, in which case the
/// machine can no longer be trusted and the caller must poison the
/// session.
pub fn apply_op(hw: &mut Hw, op: &Op, budget: u64, out: &mut Vec<Int>) -> bool {
    let (item, args, inputs, is_step) = op.parts();
    let mut ports = VecPorts::new();
    for feed in inputs {
        ports.push_input(feed.port, feed.words.iter().copied());
    }
    let mut call_args = Vec::with_capacity(args.len() + 1);
    if is_step {
        if hw.root_count() == STATE_SLOT {
            hw.push_root(HValue::Int(0));
        }
        call_args.push(hw.root(STATE_SLOT));
    }
    call_args.extend(args.iter().map(|&n| HValue::Int(n)));
    let result = hw.call_with_budget(item, call_args, &mut ports, budget);

    let port_list: Vec<Int> = ports.output_ports().collect();
    for port in port_list {
        let words = ports.output(port);
        out.push(port);
        out.push(words.len() as Int);
        out.extend_from_slice(words);
    }
    let code = match result {
        Ok(v) => {
            if is_step {
                hw.set_root(STATE_SLOT, v);
            }
            if let Some(e) = hw.as_error(v) {
                RES_ERROR_BASE.saturating_add(e.code())
            } else if let Some(n) = hw.as_int(v) {
                n
            } else {
                RES_OPAQUE
            }
        }
        Err(HwError::CycleLimit(_)) => RES_FUEL,
        Err(HwError::OutOfMemory { .. }) => RES_OOM,
        Err(_) => RES_MACHINE_FAULT,
    };
    out.push(code);

    // Boundary collection: normalizes heap layout and GC trigger points so
    // sessions rehydrated at every slice stay byte-identical to a machine
    // that never left memory.
    if hw.collect_garbage().is_err() {
        out.push(RES_GC_FAULT);
        return false;
    }
    true
}

/// Run `ops` sequentially on a bare machine, exactly as the fleet would
/// (same load path, per-op budget, and boundary collections), returning
/// the output stream and the final state as `ZSNP` bytes.
///
/// This is the fleet's correctness oracle: for any program and op
/// sequence, the fleet must produce these words and this snapshot no
/// matter how many workers ran the session or how many slices it took.
pub fn run_standalone(
    words: &[Word],
    cfg: &SessionConfig,
    ops: &[Op],
) -> Result<(Vec<Int>, Vec<u8>), FleetError> {
    let hw = Hw::load_with(words, cfg.hw_config()).map_err(|e| FleetError::Load(e.to_string()))?;
    // Mirror the fleet's open path: the authoritative state starts life as
    // a snapshot, so the first slice always begins from rehydrated bytes.
    let boot = hw
        .hibernate()
        .map_err(|e| FleetError::Snapshot(e.to_string()))?;
    let mut hw =
        Hw::rehydrate(&boot, cfg.hw_config()).map_err(|e| FleetError::Snapshot(e.to_string()))?;
    let mut out = Vec::new();
    for op in ops {
        if !apply_op(&mut hw, op, cfg.op_budget, &mut out) {
            return Err(FleetError::SessionPoisoned(
                "boundary collection failed".into(),
            ));
        }
    }
    let snapshot = hw
        .hibernate()
        .map_err(|e| FleetError::Snapshot(e.to_string()))?;
    Ok((out, snapshot))
}

/// The [`HwConfig`] the fleet uses for every machine it builds: auto-GC
/// on, no absolute cycle limit (budgets are per op), default cost model.
pub(crate) fn hw_config(heap_words: usize) -> HwConfig {
    HwConfig {
        heap_words,
        ..HwConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::SessionConfig;

    const SRC: &str = "fun bump s n =\n\
                       \x20 let w = putint 1 s in\n\
                       \x20 case w of else\n\
                       \x20 let t = add s n in\n\
                       \x20 result t\n\
                       fun echo p =\n\
                       \x20 let x = getint p in\n\
                       \x20 case x of else\n\
                       \x20 let w = putint p x in\n\
                       \x20 case w of else\n\
                       \x20 result x\n\
                       fun spin n =\n\
                       \x20 case n of\n\
                       \x20 | 0 => result 0\n\
                       \x20 else\n\
                       \x20   let m = sub n 1 in\n\
                       \x20   let r = spin m in\n\
                       \x20   result r\n\
                       fun main = result 0";

    // `main` always lowers to 0x100; the rest follow in declaration order.
    const BUMP: u32 = 0x101;
    const ECHO: u32 = 0x102;
    const SPIN: u32 = 0x103;

    fn machine() -> Hw {
        let words = zarf_asm::assemble(SRC).unwrap();
        Hw::load_with(&words, hw_config(64 * 1024)).unwrap()
    }

    #[test]
    fn step_threads_state_and_logs_ports() {
        let mut hw = machine();
        let mut out = Vec::new();
        assert!(apply_op(
            &mut hw,
            &Op::step(BUMP, vec![5], vec![]),
            1 << 20,
            &mut out
        ));
        assert!(apply_op(
            &mut hw,
            &Op::step(BUMP, vec![7], vec![]),
            1 << 20,
            &mut out
        ));
        // Each step writes the *previous* state to port 1, then results in
        // the new state: [port 1, 1 word, old] + result.
        assert_eq!(out, vec![1, 1, 0, 5, 1, 1, 5, 12]);
    }

    #[test]
    fn eval_feeds_inputs_and_reports_fuel_exhaustion() {
        let mut hw = machine();
        let mut out = Vec::new();
        let feed = PortFeed {
            port: 9,
            words: vec![42],
        };
        assert!(apply_op(
            &mut hw,
            &Op::eval(ECHO, vec![9], vec![feed]),
            1 << 20,
            &mut out
        ));
        assert_eq!(out, vec![9, 1, 42, 42]);

        out.clear();
        assert!(apply_op(
            &mut hw,
            &Op::eval(SPIN, vec![1 << 20], vec![]),
            100,
            &mut out
        ));
        assert_eq!(out, vec![RES_FUEL]);
        // The machine is quiescent again and keeps working after the fault.
        out.clear();
        assert!(apply_op(
            &mut hw,
            &Op::eval(SPIN, vec![3], vec![]),
            1 << 20,
            &mut out
        ));
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn machine_faults_are_encoded_not_raised() {
        let mut hw = machine();
        let mut out = Vec::new();
        // Reading a port with no scripted input is an I/O machine fault.
        assert!(apply_op(
            &mut hw,
            &Op::eval(ECHO, vec![3], vec![]),
            1 << 20,
            &mut out
        ));
        assert_eq!(out, vec![RES_MACHINE_FAULT]);
        // Unknown item: same containment.
        out.clear();
        assert!(apply_op(
            &mut hw,
            &Op::eval(0xFFFF, vec![], vec![]),
            1 << 20,
            &mut out
        ));
        assert_eq!(out, vec![RES_MACHINE_FAULT]);
    }

    #[test]
    fn run_standalone_is_self_consistent() {
        let cfg = SessionConfig::default();
        let words = zarf_asm::assemble(SRC).unwrap();
        let ops: Vec<Op> = (1..=6).map(|n| Op::step(BUMP, vec![n], vec![])).collect();
        let (out_a, snap_a) = run_standalone(&words, &cfg, &ops).unwrap();
        let (out_b, snap_b) = run_standalone(&words, &cfg, &ops).unwrap();
        assert_eq!(out_a, out_b);
        assert_eq!(snap_a, snap_b);
        // Running sums surface on port 1 as each step's previous state.
        assert_eq!(out_a.len(), 4 * ops.len());
    }
}
