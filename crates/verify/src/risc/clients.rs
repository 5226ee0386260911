//! Certification clients over the RISC fixpoint, and the report
//! `zarf vet --risc` renders.
//!
//! [`certify`] runs the whole pipeline — CFG recovery, a first
//! (clamp-free) fixpoint, loop-fact derivation, the clamped fixpoint —
//! then scans every *reachable* instruction's abstract pre-state for
//! the fault classes the imperative core can actually raise:
//!
//! * **divide-by-zero freedom** — every `div`/`rem` divisor provably
//!   excludes zero (by interval sign or by a nonzero known low bit);
//! * **memory-bounds freedom** — every `lw`/`sw` effective address
//!   provably inside `[0, mem_words)`;
//! * **port discipline** — every `in`/`out` port in the spec's allow
//!   list;
//! * **cycle bounds** — every loop's per-iteration cost finite, with
//!   trip-bounded loops composed into a whole-program WCET.
//!
//! A program is *certified* when no violation survives. The claim is
//! exactly the one pinned dynamically by `tests/risc_certification.rs`:
//! a traced run of a certified program never faults and never exceeds
//! its static per-iteration bound.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use zarf_core::Int;
use zarf_imperative::cpu::{CpuCost, Instr, Reg};
use zarf_trace::ndjson::push_json_str;

use super::cfg::{BlockId, Cfg};
use super::domain::{analyze, exec_block, AbsState, AbsVal};
use super::wcet::{derive_facts, wcet, WcetReport};
use super::RiscError;
use crate::interval::Interval;

/// Which I/O ports a program is allowed to touch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PortPolicy {
    /// Any port is fine.
    Any,
    /// Only the listed ports.
    Allowed(BTreeSet<Int>),
}

impl PortPolicy {
    /// Whether `port` is permitted.
    pub fn allows(&self, port: Int) -> bool {
        match self {
            PortPolicy::Any => true,
            PortPolicy::Allowed(set) => set.contains(&port),
        }
    }
}

/// What a program is certified *against*: its memory size, its port
/// contract, and the cycle-cost model.
#[derive(Debug, Clone)]
pub struct RiscSpec {
    /// Words of data memory the deployment provisions.
    pub mem_words: usize,
    /// Ports the program may touch.
    pub ports: PortPolicy,
    /// Cycle model for the WCET client.
    pub cost: CpuCost,
}

impl RiscSpec {
    /// A spec with the default cost model and no port restrictions.
    pub fn new(mem_words: usize) -> RiscSpec {
        RiscSpec {
            mem_words,
            ports: PortPolicy::Any,
            cost: CpuCost::default(),
        }
    }

    /// Restrict the allowed ports.
    pub fn with_ports<I: IntoIterator<Item = Int>>(mut self, ports: I) -> RiscSpec {
        self.ports = PortPolicy::Allowed(ports.into_iter().collect());
        self
    }
}

/// A certification violation, pinned to an instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A `div`/`rem` whose divisor may be zero.
    DivMayBeZero {
        /// Instruction index.
        pc: usize,
        /// Rendered instruction.
        instr: String,
        /// The divisor's abstract value.
        divisor: String,
    },
    /// A load/store whose effective address may leave memory.
    MemOutOfBounds {
        /// Instruction index.
        pc: usize,
        /// Rendered instruction.
        instr: String,
        /// Lowest possible address.
        addr_lo: i64,
        /// Highest possible address.
        addr_hi: i64,
        /// Provisioned memory words.
        mem_words: usize,
    },
    /// An `in`/`out` on a port outside the policy.
    PortForbidden {
        /// Instruction index.
        pc: usize,
        /// Rendered instruction.
        instr: String,
        /// The offending port.
        port: Int,
    },
    /// A loop whose single iteration has no finite cycle bound.
    UnboundedIteration {
        /// First pc of the loop head.
        head_pc: usize,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::DivMayBeZero { pc, instr, divisor } => {
                write!(f, "pc {pc} `{instr}`: divisor may be zero (range {divisor})")
            }
            Violation::MemOutOfBounds {
                pc,
                instr,
                addr_lo,
                addr_hi,
                mem_words,
            } => write!(
                f,
                "pc {pc} `{instr}`: address [{addr_lo}, {addr_hi}] may leave memory [0, {mem_words})"
            ),
            Violation::PortForbidden { pc, instr, port } => {
                write!(f, "pc {pc} `{instr}`: port {port} is not in the allowed set")
            }
            Violation::UnboundedIteration { head_pc } => {
                write!(f, "loop at pc {head_pc}: one iteration has no finite cycle bound")
            }
        }
    }
}

/// The full certification report.
#[derive(Debug, Clone)]
pub struct RiscReport {
    /// Program length in instructions.
    pub program_len: usize,
    /// Recovered basic blocks.
    pub blocks: usize,
    /// Recovered functions (entry plus callees).
    pub functions: usize,
    /// Start pcs of blocks no execution reaches (statically dead or
    /// proven dead by the fixpoint).
    pub dead_blocks: Vec<usize>,
    /// All violations found.
    pub violations: Vec<Violation>,
    /// Cycle-bound verdict.
    pub wcet: WcetReport,
    /// Transfer evaluations the (phase-B) engine performed.
    pub iterations: u64,
    /// The engine's enforced iteration bound.
    pub iteration_bound: u64,
}

impl RiscReport {
    /// Whether the program certifies: no fault-class violations and
    /// every loop iteration cycle-bounded.
    pub fn certified(&self) -> bool {
        self.violations.is_empty()
    }

    /// Human-readable rendering (the non-`--json` vet output).
    pub fn human(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "risc vet: {} instructions, {} blocks, {} function(s)",
            self.program_len, self.blocks, self.functions
        );
        for l in &self.wcet.loops {
            let trip = l
                .trip
                .map_or("unbounded".to_string(), |t| format!("<= {t}"));
            let iter = l
                .iter_cycles
                .map_or("unbounded".to_string(), |c| format!("{c} cycles"));
            let total = l
                .total_cycles
                .map_or("unbounded".to_string(), |c| format!("{c} cycles"));
            let _ = writeln!(
                out,
                "  loop @ pc {:<4} trip {trip:<12} iter {iter:<16} total {total}",
                l.head_pc
            );
        }
        match self.wcet.program {
            Some(c) => {
                let _ = writeln!(out, "program wcet: {c} cycles");
            }
            None => {
                let steady = self
                    .wcet
                    .steady
                    .map_or("unbounded".to_string(), |c| format!("{c} cycles/iteration"));
                let _ = writeln!(out, "program wcet: reactive (steady state {steady})");
            }
        }
        if !self.dead_blocks.is_empty() {
            let _ = writeln!(out, "dead blocks at pcs: {:?}", self.dead_blocks);
        }
        for v in &self.violations {
            let _ = writeln!(out, "violation: {v}");
        }
        let _ = writeln!(
            out,
            "certified: {} ({} fixpoint iterations, bound {})",
            self.certified(),
            self.iterations,
            self.iteration_bound
        );
        out
    }

    /// Machine-readable rendering, matching the vet CLI's hand-rolled
    /// JSON style.
    pub fn to_json(&self, path: &str) -> String {
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |x| x.to_string());
        let loops = self
            .wcet
            .loops
            .iter()
            .map(|l| {
                format!(
                    "{{\"head_pc\":{},\"trip\":{},\"iter_cycles\":{},\"total_cycles\":{}}}",
                    l.head_pc,
                    opt(l.trip),
                    opt(l.iter_cycles),
                    opt(l.total_cycles)
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let mut violations = String::new();
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                violations.push(',');
            }
            push_json_str(&mut violations, &v.to_string());
        }
        let mut file = String::new();
        push_json_str(&mut file, path);
        let dead = self
            .dead_blocks
            .iter()
            .map(|p| p.to_string())
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"file\":{file},\"risc\":true,\"instructions\":{},\"blocks\":{},\
             \"functions\":{},\"loops\":[{loops}],\"violations\":[{violations}],\
             \"dead_blocks\":[{dead}],\"wcet_program\":{},\"wcet_steady\":{},\
             \"wcet_ok\":{},\"certified\":{},\"iterations\":{},\"iteration_bound\":{}}}",
            self.program_len,
            self.blocks,
            self.functions,
            opt(self.wcet.program),
            opt(self.wcet.steady),
            self.wcet.ok,
            self.certified(),
            self.iterations,
            self.iteration_bound,
        )
    }
}

/// Run the full certification pipeline over a RISC program.
pub fn certify(prog: &[Instr], spec: &RiscSpec) -> Result<RiscReport, RiscError> {
    let cfg = Cfg::build(prog)?;

    // Phase A: clamp-free fixpoint, to learn preheader states.
    let phase_a = analyze(prog, &cfg, spec.mem_words, &BTreeMap::new())?;
    // Loop facts: trip bounds + induction-variable clamps.
    let facts = derive_facts(prog, &cfg, &phase_a);
    // Phase B: the clamped (relational-strength) fixpoint.
    let phase_b = analyze(prog, &cfg, spec.mem_words, &facts.clamps)?;

    // Per-pc pre-states, re-executing each reached block from its entry
    // state with the same clamps the fixpoint used.
    let mut at: BTreeMap<usize, AbsState> = BTreeMap::new();
    for (&b, entry) in &phase_b.entries {
        let st = match apply_clamps(&facts.clamps, b, entry.clone()) {
            Some(st) => st,
            None => continue,
        };
        exec_block(prog, &cfg, b, st, &mut |pc, s| {
            at.insert(pc, s.clone());
        });
    }

    // Client scans over every reachable instruction.
    let mut violations = Vec::new();
    for (&pc, st) in &at {
        match prog[pc] {
            Instr::Div(_, _, t) | Instr::Rem(_, _, t) => {
                let d = st.get(t);
                if !d.excludes_zero() {
                    violations.push(Violation::DivMayBeZero {
                        pc,
                        instr: prog[pc].to_string(),
                        divisor: d.to_string(),
                    });
                }
            }
            Instr::Lw(_, s, off) | Instr::Sw(_, s, off) => {
                let addr = st.get(s).iv.add(Interval::exact(off as i64));
                if addr.lo < 0 || addr.hi >= spec.mem_words as i64 {
                    violations.push(Violation::MemOutOfBounds {
                        pc,
                        instr: prog[pc].to_string(),
                        addr_lo: addr.lo,
                        addr_hi: addr.hi,
                        mem_words: spec.mem_words,
                    });
                }
            }
            Instr::In(_, port) | Instr::Out(_, port) if !spec.ports.allows(port) => {
                violations.push(Violation::PortForbidden {
                    pc,
                    instr: prog[pc].to_string(),
                    port,
                });
            }
            _ => {}
        }
    }

    // Cycle bounds.
    let wcet_report = wcet(prog, &cfg, &facts, &spec.cost);
    for l in &wcet_report.loops {
        if l.iter_cycles.is_none() {
            violations.push(Violation::UnboundedIteration { head_pc: l.head_pc });
        }
    }

    // Dead blocks: statically unpartitioned plus fixpoint-dead.
    let mut dead: BTreeSet<usize> = cfg.dead_blocks().into_iter().collect();
    for b in 0..cfg.blocks.len() {
        if !phase_b.entries.contains_key(&b) {
            dead.insert(cfg.blocks[b].start);
        }
    }

    Ok(RiscReport {
        program_len: prog.len(),
        blocks: cfg.blocks.len(),
        functions: cfg.funcs.len(),
        dead_blocks: dead.into_iter().collect(),
        violations,
        wcet: wcet_report,
        iterations: phase_b.iterations,
        iteration_bound: phase_b.bound,
    })
}

fn apply_clamps(
    clamps: &BTreeMap<BlockId, Vec<(u8, Interval)>>,
    b: BlockId,
    mut st: AbsState,
) -> Option<AbsState> {
    if let Some(cs) = clamps.get(&b) {
        for &(r, clamp) in cs {
            let reg = Reg(r);
            let v = st.get(reg);
            let iv = v.iv.meet(clamp)?;
            st.set(reg, AbsVal { iv, cg: v.cg });
        }
    }
    Some(st)
}

#[cfg(test)]
mod tests {
    use super::*;
    use zarf_imperative::builder::Asm;
    use zarf_imperative::cpu::R0;

    fn r(n: u8) -> Reg {
        Reg(n)
    }

    #[test]
    fn safe_divide_certifies() {
        let mut a = Asm::new();
        a.inp(r(1), 0);
        a.addi(r(2), R0, 3);
        a.div(r(3), r(1), r(2));
        a.out(r(3), 1);
        a.halt();
        let prog = a.assemble().unwrap();
        let report = certify(&prog, &RiscSpec::new(0)).unwrap();
        assert!(report.certified(), "{}", report.human());
    }

    #[test]
    fn unchecked_divide_fails_with_typed_violation() {
        let mut a = Asm::new();
        a.inp(r(1), 0);
        a.div(r(2), r(3), r(1));
        a.halt();
        let prog = a.assemble().unwrap();
        let report = certify(&prog, &RiscSpec::new(0)).unwrap();
        assert!(!report.certified());
        assert!(matches!(
            report.violations[0],
            Violation::DivMayBeZero { pc: 1, .. }
        ));
    }

    #[test]
    fn guarded_divide_certifies_via_refinement() {
        // d = in & 7; if (d != 0) q = x / d — the beq refinement trims
        // the bounded divisor's zero endpoint on the divide path.
        let mut a = Asm::new();
        a.inp(r(1), 0);
        a.addi(r(4), R0, 7);
        a.and(r(1), r(1), r(4)); // d in [0, 7]
        a.inp(r(2), 0); // x
        a.beq(r(1), R0, "skip");
        a.div(r(3), r(2), r(1)); // d in [1, 7] here
        a.label("skip");
        a.halt();
        let prog = a.assemble().unwrap();
        let report = certify(&prog, &RiscSpec::new(0)).unwrap();
        assert!(report.certified(), "{}", report.human());
    }

    #[test]
    fn wild_store_fails_bounds() {
        let mut a = Asm::new();
        a.inp(r(1), 0);
        a.sw(r(1), r(1), 0);
        a.halt();
        let prog = a.assemble().unwrap();
        let report = certify(&prog, &RiscSpec::new(16)).unwrap();
        assert!(!report.certified());
        assert!(matches!(
            report.violations[0],
            Violation::MemOutOfBounds { pc: 1, .. }
        ));
    }

    #[test]
    fn masked_store_certifies() {
        let mut a = Asm::new();
        a.inp(r(1), 0);
        a.addi(r(2), R0, 7);
        a.and(r(1), r(1), r(2));
        a.sw(r(1), r(1), 8);
        a.halt();
        let prog = a.assemble().unwrap();
        let report = certify(&prog, &RiscSpec::new(16)).unwrap();
        assert!(report.certified(), "{}", report.human());
    }

    #[test]
    fn port_policy_is_enforced() {
        let mut a = Asm::new();
        a.inp(r(1), 0);
        a.out(r(1), 9);
        a.halt();
        let prog = a.assemble().unwrap();
        let report = certify(&prog, &RiscSpec::new(0).with_ports([0, 1])).unwrap();
        assert!(!report.certified());
        assert!(matches!(
            report.violations[0],
            Violation::PortForbidden { pc: 1, port: 9, .. }
        ));
    }

    #[test]
    fn computed_jump_is_a_typed_rejection() {
        let prog = vec![Instr::Jr(r(3)), Instr::Halt];
        let err = certify(&prog, &RiscSpec::new(0)).unwrap_err();
        assert!(matches!(
            err,
            RiscError::Cfg(super::super::CfgError::ComputedJump { pc: 0 })
        ));
    }

    #[test]
    fn counted_loop_report_has_finite_totals() {
        let mut a = Asm::new();
        a.addi(r(1), R0, 24);
        a.label("top");
        a.beq(r(1), R0, "done");
        a.addi(r(1), r(1), -1);
        a.jmp("top");
        a.label("done");
        a.halt();
        let prog = a.assemble().unwrap();
        let report = certify(&prog, &RiscSpec::new(0)).unwrap();
        assert!(report.certified());
        assert_eq!(report.wcet.loops.len(), 1);
        assert!(report.wcet.loops[0].total_cycles.is_some());
        assert!(report.wcet.program.is_some());
        // JSON renders without panicking and carries the verdict.
        let js = report.to_json("test");
        assert!(js.contains("\"certified\":true"));
    }
}
