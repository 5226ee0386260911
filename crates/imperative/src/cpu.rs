//! The imperative core: a classic in-order 32-bit RISC.
//!
//! The paper's imperative layer "can be any embedded CPU, but for our
//! purposes is a Xilinx MicroBlaze" — a 3-stage, in-order, single-issue
//! RISC running at 100 MHz. Nothing in the evaluation depends on
//! MicroBlaze-specific behaviour, only on it being a conventional
//! register-machine baseline, so this module implements a generic RISC of
//! the same shape:
//!
//! * 16 general-purpose 32-bit registers, `r0` hardwired to zero;
//! * word-addressed data memory;
//! * the usual ALU/immediate/load/store/branch/jump instructions;
//! * port-mapped `in`/`out` instructions that speak the same
//!   [`IoPorts`] interface as the λ-execution layer
//!   (and therefore the same channel device).
//!
//! The cycle model matches a 3-stage in-order pipeline: 1 cycle per
//! instruction, +1 for memory operations, +2 for taken branches (refill),
//! 3 for multiply, 32 for iterative divide, 2 for port transactions. The
//! costs live in [`CpuCost`] and may be varied for ablations.

use std::fmt;

use zarf_core::error::IoError;
use zarf_core::io::IoPorts;
use zarf_core::Int;

/// A register name (`R0` is hardwired to zero).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Reg(pub u8);

/// Register 0: always zero.
pub const R0: Reg = Reg(0);

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// One machine instruction. Branch/jump targets are absolute instruction
/// indices (the builder resolves labels to these).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instr {
    /// `rd = rs + rt`
    Add(Reg, Reg, Reg),
    /// `rd = rs - rt`
    Sub(Reg, Reg, Reg),
    /// `rd = rs * rt` (wrapping)
    Mul(Reg, Reg, Reg),
    /// `rd = rs / rt`; division by zero halts with an error.
    Div(Reg, Reg, Reg),
    /// `rd = rs % rt`; modulus by zero halts with an error.
    Rem(Reg, Reg, Reg),
    /// `rd = rs & rt`
    And(Reg, Reg, Reg),
    /// `rd = rs | rt`
    Or(Reg, Reg, Reg),
    /// `rd = rs ^ rt`
    Xor(Reg, Reg, Reg),
    /// `rd = (rs < rt) ? 1 : 0` (signed)
    Slt(Reg, Reg, Reg),
    /// `rd = rs << (rt & 31)`
    Sll(Reg, Reg, Reg),
    /// `rd = rs >> (rt & 31)` (arithmetic)
    Sra(Reg, Reg, Reg),
    /// `rd = rs + imm`
    Addi(Reg, Reg, Int),
    /// `rd = rs * imm` (wrapping)
    Muli(Reg, Reg, Int),
    /// `rd = (rs < imm) ? 1 : 0`
    Slti(Reg, Reg, Int),
    /// `rd = mem[rs + offset]`
    Lw(Reg, Reg, Int),
    /// `mem[rs + offset] = rt`
    Sw(Reg, Reg, Int),
    /// `if rs == rt: pc = target`
    Beq(Reg, Reg, usize),
    /// `if rs != rt: pc = target`
    Bne(Reg, Reg, usize),
    /// `if rs < rt: pc = target` (signed)
    Blt(Reg, Reg, usize),
    /// `if rs >= rt: pc = target` (signed)
    Bge(Reg, Reg, usize),
    /// `pc = target`
    Jmp(usize),
    /// `r15 = pc + 1; pc = target` (link register convention)
    Jal(usize),
    /// `pc = rs`
    Jr(Reg),
    /// `rd = port[imm]` (blocking read)
    In(Reg, Int),
    /// `port[imm] = rs`
    Out(Reg, Int),
    /// Stop the machine.
    Halt,
}

impl Instr {
    /// The register this instruction writes, if any. `Jal` writes the
    /// link register `r15`. Writes to `r0` are architectural no-ops but
    /// are still reported (the analysis bakes the hardwired zero into its
    /// transfer functions instead).
    pub fn def(&self) -> Option<Reg> {
        match *self {
            Instr::Add(d, ..)
            | Instr::Sub(d, ..)
            | Instr::Mul(d, ..)
            | Instr::Div(d, ..)
            | Instr::Rem(d, ..)
            | Instr::And(d, ..)
            | Instr::Or(d, ..)
            | Instr::Xor(d, ..)
            | Instr::Slt(d, ..)
            | Instr::Sll(d, ..)
            | Instr::Sra(d, ..)
            | Instr::Addi(d, ..)
            | Instr::Muli(d, ..)
            | Instr::Slti(d, ..)
            | Instr::Lw(d, ..)
            | Instr::In(d, _) => Some(d),
            Instr::Jal(_) => Some(Reg(15)),
            Instr::Sw(..)
            | Instr::Beq(..)
            | Instr::Bne(..)
            | Instr::Blt(..)
            | Instr::Bge(..)
            | Instr::Jmp(_)
            | Instr::Jr(_)
            | Instr::Out(..)
            | Instr::Halt => None,
        }
    }

    /// The registers this instruction reads, in operand order (at most
    /// two; unused slots are `None`).
    pub fn uses(&self) -> [Option<Reg>; 2] {
        match *self {
            Instr::Add(_, s, t)
            | Instr::Sub(_, s, t)
            | Instr::Mul(_, s, t)
            | Instr::Div(_, s, t)
            | Instr::Rem(_, s, t)
            | Instr::And(_, s, t)
            | Instr::Or(_, s, t)
            | Instr::Xor(_, s, t)
            | Instr::Slt(_, s, t)
            | Instr::Sll(_, s, t)
            | Instr::Sra(_, s, t)
            | Instr::Beq(s, t, _)
            | Instr::Bne(s, t, _)
            | Instr::Blt(s, t, _)
            | Instr::Bge(s, t, _) => [Some(s), Some(t)],
            Instr::Sw(t, s, _) => [Some(t), Some(s)],
            Instr::Addi(_, s, _)
            | Instr::Muli(_, s, _)
            | Instr::Slti(_, s, _)
            | Instr::Lw(_, s, _)
            | Instr::Jr(s)
            | Instr::Out(s, _) => [Some(s), None],
            Instr::Jmp(_) | Instr::Jal(_) | Instr::In(..) | Instr::Halt => [None, None],
        }
    }

    /// The static control-flow target (absolute instruction index) of a
    /// branch, jump, or call, if any. `Jr` has no static target.
    pub fn target(&self) -> Option<usize> {
        match *self {
            Instr::Beq(_, _, t)
            | Instr::Bne(_, _, t)
            | Instr::Blt(_, _, t)
            | Instr::Bge(_, _, t)
            | Instr::Jmp(t)
            | Instr::Jal(t) => Some(t),
            _ => None,
        }
    }

    /// Whether control may continue at `pc + 1` after this instruction.
    /// True for straight-line code and not-taken conditional branches;
    /// false for `Jmp`, `Jal`, `Jr`, and `Halt`.
    pub fn falls_through(&self) -> bool {
        !matches!(
            self,
            Instr::Jmp(_) | Instr::Jal(_) | Instr::Jr(_) | Instr::Halt
        )
    }

    /// The I/O port an `In`/`Out` instruction touches, if any.
    pub fn port(&self) -> Option<Int> {
        match *self {
            Instr::In(_, p) | Instr::Out(_, p) => Some(p),
            _ => None,
        }
    }

    /// The assembly mnemonic.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Instr::Add(..) => "add",
            Instr::Sub(..) => "sub",
            Instr::Mul(..) => "mul",
            Instr::Div(..) => "div",
            Instr::Rem(..) => "rem",
            Instr::And(..) => "and",
            Instr::Or(..) => "or",
            Instr::Xor(..) => "xor",
            Instr::Slt(..) => "slt",
            Instr::Sll(..) => "sll",
            Instr::Sra(..) => "sra",
            Instr::Addi(..) => "addi",
            Instr::Muli(..) => "muli",
            Instr::Slti(..) => "slti",
            Instr::Lw(..) => "lw",
            Instr::Sw(..) => "sw",
            Instr::Beq(..) => "beq",
            Instr::Bne(..) => "bne",
            Instr::Blt(..) => "blt",
            Instr::Bge(..) => "bge",
            Instr::Jmp(_) => "jmp",
            Instr::Jal(_) => "jal",
            Instr::Jr(_) => "jr",
            Instr::In(..) => "in",
            Instr::Out(..) => "out",
            Instr::Halt => "halt",
        }
    }
}

/// Textual rendering: `add r1, r2, r3` / `lw r1, 3(r2)` /
/// `beq r1, r2, 12` / `in r1, 7` / `halt`. Branch and jump targets render
/// as the resolved absolute instruction index. [`crate::disasm`] parses
/// exactly this grammar back, so `Display` round-trips.
impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let m = self.mnemonic();
        match *self {
            Instr::Add(d, s, t)
            | Instr::Sub(d, s, t)
            | Instr::Mul(d, s, t)
            | Instr::Div(d, s, t)
            | Instr::Rem(d, s, t)
            | Instr::And(d, s, t)
            | Instr::Or(d, s, t)
            | Instr::Xor(d, s, t)
            | Instr::Slt(d, s, t)
            | Instr::Sll(d, s, t)
            | Instr::Sra(d, s, t) => write!(f, "{m} {d}, {s}, {t}"),
            Instr::Addi(d, s, imm) | Instr::Muli(d, s, imm) | Instr::Slti(d, s, imm) => {
                write!(f, "{m} {d}, {s}, {imm}")
            }
            Instr::Lw(d, s, off) => write!(f, "{m} {d}, {off}({s})"),
            Instr::Sw(t, s, off) => write!(f, "{m} {t}, {off}({s})"),
            Instr::Beq(s, t, target)
            | Instr::Bne(s, t, target)
            | Instr::Blt(s, t, target)
            | Instr::Bge(s, t, target) => write!(f, "{m} {s}, {t}, {target}"),
            Instr::Jmp(target) | Instr::Jal(target) => write!(f, "{m} {target}"),
            Instr::Jr(s) => write!(f, "{m} {s}"),
            Instr::In(d, port) => write!(f, "{m} {d}, {port}"),
            Instr::Out(s, port) => write!(f, "{m} {s}, {port}"),
            Instr::Halt => write!(f, "{m}"),
        }
    }
}

/// Per-instruction-kind cycle costs for the 3-stage in-order pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CpuCost {
    /// Single-cycle ALU/immediate instructions.
    pub alu: u64,
    /// Multiply.
    pub mul: u64,
    /// Iterative divide / remainder.
    pub div: u64,
    /// Load or store (1 execute + 1 memory).
    pub mem: u64,
    /// Branch not taken.
    pub branch_not_taken: u64,
    /// Branch or jump taken (pipeline refill).
    pub branch_taken: u64,
    /// Port transaction.
    pub io: u64,
}

impl Default for CpuCost {
    fn default() -> Self {
        CpuCost {
            alu: 1,
            mul: 3,
            div: 32,
            mem: 2,
            branch_not_taken: 1,
            branch_taken: 3,
            io: 2,
        }
    }
}

impl CpuCost {
    /// The worst-case cycle cost of one instruction under this model.
    /// Conditional branches cost the max of their taken/not-taken costs;
    /// everything else has a single cost class.
    pub fn worst(&self, i: &Instr) -> u64 {
        match i {
            Instr::Mul(..) | Instr::Muli(..) => self.mul,
            Instr::Div(..) | Instr::Rem(..) => self.div,
            Instr::Lw(..) | Instr::Sw(..) => self.mem,
            Instr::Beq(..) | Instr::Bne(..) | Instr::Blt(..) | Instr::Bge(..) => {
                self.branch_taken.max(self.branch_not_taken)
            }
            Instr::Jmp(_) | Instr::Jal(_) | Instr::Jr(_) => self.branch_taken,
            Instr::In(..) | Instr::Out(..) => self.io,
            _ => self.alu,
        }
    }
}

/// Failures of the imperative core.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CpuError {
    /// Division or remainder by zero.
    DivideByZero {
        /// Instruction index.
        pc: usize,
    },
    /// Program counter left the instruction memory.
    PcOutOfRange(usize),
    /// Data address outside memory.
    BadAddress {
        /// The effective address.
        addr: Int,
        /// Instruction index.
        pc: usize,
    },
    /// The step budget was exhausted before `Halt`.
    StepLimit(u64),
    /// A port transaction failed.
    Io(IoError),
}

impl fmt::Display for CpuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CpuError::DivideByZero { pc } => write!(f, "division by zero at pc {pc}"),
            CpuError::PcOutOfRange(pc) => write!(f, "pc {pc} outside program"),
            CpuError::BadAddress { addr, pc } => {
                write!(f, "bad data address {addr} at pc {pc}")
            }
            CpuError::StepLimit(n) => write!(f, "step limit {n} reached before halt"),
            CpuError::Io(e) => write!(f, "I/O failure: {e}"),
        }
    }
}

impl std::error::Error for CpuError {}

impl From<IoError> for CpuError {
    fn from(e: IoError) -> Self {
        CpuError::Io(e)
    }
}

/// The processor state.
#[derive(Debug, Clone)]
pub struct Cpu {
    program: Vec<Instr>,
    regs: [Int; 16],
    mem: Vec<Int>,
    pc: usize,
    cycles: u64,
    instructions: u64,
    halted: bool,
    cost: CpuCost,
}

impl Cpu {
    /// A CPU with the given program and `mem_words` words of zeroed data
    /// memory.
    pub fn new(program: Vec<Instr>, mem_words: usize) -> Self {
        Cpu {
            program,
            regs: [0; 16],
            mem: vec![0; mem_words],
            pc: 0,
            cycles: 0,
            instructions: 0,
            halted: false,
            cost: CpuCost::default(),
        }
    }

    /// Read a register (`r0` always reads zero).
    pub fn reg(&self, r: Reg) -> Int {
        if r.0 == 0 {
            0
        } else {
            self.regs[r.0 as usize]
        }
    }

    fn set_reg(&mut self, r: Reg, v: Int) {
        if r.0 != 0 {
            self.regs[r.0 as usize] = v;
        }
    }

    /// Read a data-memory word (for assertions in tests).
    pub fn mem(&self, addr: usize) -> Int {
        self.mem[addr]
    }

    /// Cycles consumed so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Instructions retired so far.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Whether `Halt` has been executed.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Current program counter.
    pub fn pc(&self) -> usize {
        self.pc
    }

    /// Execute one instruction.
    pub fn step(&mut self, ports: &mut dyn IoPorts) -> Result<(), CpuError> {
        if self.halted {
            return Ok(());
        }
        let pc = self.pc;
        let instr = *self.program.get(pc).ok_or(CpuError::PcOutOfRange(pc))?;
        self.instructions += 1;
        let mut next = pc + 1;
        match instr {
            Instr::Add(d, s, t) => {
                self.cycles += self.cost.alu;
                self.set_reg(d, self.reg(s).wrapping_add(self.reg(t)));
            }
            Instr::Sub(d, s, t) => {
                self.cycles += self.cost.alu;
                self.set_reg(d, self.reg(s).wrapping_sub(self.reg(t)));
            }
            Instr::Mul(d, s, t) => {
                self.cycles += self.cost.mul;
                self.set_reg(d, self.reg(s).wrapping_mul(self.reg(t)));
            }
            Instr::Div(d, s, t) => {
                self.cycles += self.cost.div;
                let rt = self.reg(t);
                if rt == 0 {
                    return Err(CpuError::DivideByZero { pc });
                }
                self.set_reg(d, self.reg(s).wrapping_div(rt));
            }
            Instr::Rem(d, s, t) => {
                self.cycles += self.cost.div;
                let rt = self.reg(t);
                if rt == 0 {
                    return Err(CpuError::DivideByZero { pc });
                }
                self.set_reg(d, self.reg(s).wrapping_rem(rt));
            }
            Instr::And(d, s, t) => {
                self.cycles += self.cost.alu;
                self.set_reg(d, self.reg(s) & self.reg(t));
            }
            Instr::Or(d, s, t) => {
                self.cycles += self.cost.alu;
                self.set_reg(d, self.reg(s) | self.reg(t));
            }
            Instr::Xor(d, s, t) => {
                self.cycles += self.cost.alu;
                self.set_reg(d, self.reg(s) ^ self.reg(t));
            }
            Instr::Slt(d, s, t) => {
                self.cycles += self.cost.alu;
                self.set_reg(d, (self.reg(s) < self.reg(t)) as Int);
            }
            Instr::Sll(d, s, t) => {
                self.cycles += self.cost.alu;
                self.set_reg(d, self.reg(s).wrapping_shl(self.reg(t) as u32 & 31));
            }
            Instr::Sra(d, s, t) => {
                self.cycles += self.cost.alu;
                self.set_reg(d, self.reg(s).wrapping_shr(self.reg(t) as u32 & 31));
            }
            Instr::Addi(d, s, imm) => {
                self.cycles += self.cost.alu;
                self.set_reg(d, self.reg(s).wrapping_add(imm));
            }
            Instr::Muli(d, s, imm) => {
                self.cycles += self.cost.mul;
                self.set_reg(d, self.reg(s).wrapping_mul(imm));
            }
            Instr::Slti(d, s, imm) => {
                self.cycles += self.cost.alu;
                self.set_reg(d, (self.reg(s) < imm) as Int);
            }
            Instr::Lw(d, s, off) => {
                self.cycles += self.cost.mem;
                let addr = self.reg(s).wrapping_add(off);
                let v = *self
                    .mem
                    .get(addr as usize)
                    .ok_or(CpuError::BadAddress { addr, pc })?;
                self.set_reg(d, v);
            }
            Instr::Sw(t, s, off) => {
                self.cycles += self.cost.mem;
                let addr = self.reg(s).wrapping_add(off);
                let v = self.reg(t);
                let slot = self
                    .mem
                    .get_mut(addr as usize)
                    .ok_or(CpuError::BadAddress { addr, pc })?;
                *slot = v;
            }
            Instr::Beq(s, t, target) => {
                if self.reg(s) == self.reg(t) {
                    self.cycles += self.cost.branch_taken;
                    next = target;
                } else {
                    self.cycles += self.cost.branch_not_taken;
                }
            }
            Instr::Bne(s, t, target) => {
                if self.reg(s) != self.reg(t) {
                    self.cycles += self.cost.branch_taken;
                    next = target;
                } else {
                    self.cycles += self.cost.branch_not_taken;
                }
            }
            Instr::Blt(s, t, target) => {
                if self.reg(s) < self.reg(t) {
                    self.cycles += self.cost.branch_taken;
                    next = target;
                } else {
                    self.cycles += self.cost.branch_not_taken;
                }
            }
            Instr::Bge(s, t, target) => {
                if self.reg(s) >= self.reg(t) {
                    self.cycles += self.cost.branch_taken;
                    next = target;
                } else {
                    self.cycles += self.cost.branch_not_taken;
                }
            }
            Instr::Jmp(target) => {
                self.cycles += self.cost.branch_taken;
                next = target;
            }
            Instr::Jal(target) => {
                self.cycles += self.cost.branch_taken;
                self.set_reg(Reg(15), (pc + 1) as Int);
                next = target;
            }
            Instr::Jr(s) => {
                self.cycles += self.cost.branch_taken;
                next = self.reg(s) as usize;
            }
            Instr::In(d, port) => {
                self.cycles += self.cost.io;
                let v = ports.getint(port)?;
                self.set_reg(d, v);
            }
            Instr::Out(s, port) => {
                self.cycles += self.cost.io;
                ports.putint(port, self.reg(s))?;
            }
            Instr::Halt => {
                self.cycles += self.cost.alu;
                self.halted = true;
            }
        }
        self.pc = next;
        Ok(())
    }

    /// Run until `Halt` or the step budget is exhausted.
    pub fn run(&mut self, ports: &mut dyn IoPorts, max_steps: u64) -> Result<(), CpuError> {
        for _ in 0..max_steps {
            if self.halted {
                return Ok(());
            }
            self.step(ports)?;
        }
        if self.halted {
            Ok(())
        } else {
            Err(CpuError::StepLimit(max_steps))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zarf_core::io::{NullPorts, VecPorts};

    fn r(n: u8) -> Reg {
        Reg(n)
    }

    #[test]
    fn arithmetic_and_halt() {
        let prog = vec![
            Instr::Addi(r(1), R0, 20),
            Instr::Addi(r(2), R0, 22),
            Instr::Add(r(3), r(1), r(2)),
            Instr::Halt,
        ];
        let mut cpu = Cpu::new(prog, 16);
        cpu.run(&mut NullPorts, 100).unwrap();
        assert_eq!(cpu.reg(r(3)), 42);
        assert!(cpu.halted());
        assert_eq!(cpu.instructions(), 4);
        assert_eq!(cpu.cycles(), 4); // all 1-cycle
    }

    #[test]
    fn r0_is_hardwired_zero() {
        let prog = vec![Instr::Addi(R0, R0, 99), Instr::Halt];
        let mut cpu = Cpu::new(prog, 0);
        cpu.run(&mut NullPorts, 10).unwrap();
        assert_eq!(cpu.reg(R0), 0);
    }

    #[test]
    fn loop_with_branch() {
        // sum 1..=10 into r2
        let prog = vec![
            Instr::Addi(r(1), R0, 10),    // 0: i = 10
            Instr::Add(r(2), R0, R0),     // 1: sum = 0
            Instr::Beq(r(1), R0, 5),      // 2: while i != 0
            Instr::Add(r(2), r(2), r(1)), // 3: sum += i
            Instr::Addi(r(1), r(1), -1),  // 4: i -= 1 ; fallthrough
                                          // 5: halt — but we need to jump back; restructure:
        ];
        // Rewrite with a jump back.
        let prog = {
            let mut p = prog;
            p.push(Instr::Halt); // placeholder index 5 target of beq
            p[2] = Instr::Beq(r(1), R0, 6);
            p.insert(5, Instr::Jmp(2));
            // After insert: 5: Jmp(2), 6: Halt
            p
        };
        let mut cpu = Cpu::new(prog, 0);
        cpu.run(&mut NullPorts, 1000).unwrap();
        assert_eq!(cpu.reg(r(2)), 55);
    }

    #[test]
    fn memory_load_store() {
        let prog = vec![
            Instr::Addi(r(1), R0, 7),
            Instr::Sw(r(1), R0, 3),
            Instr::Lw(r(2), R0, 3),
            Instr::Halt,
        ];
        let mut cpu = Cpu::new(prog, 8);
        cpu.run(&mut NullPorts, 10).unwrap();
        assert_eq!(cpu.reg(r(2)), 7);
        assert_eq!(cpu.mem(3), 7);
    }

    #[test]
    fn bad_address_faults() {
        let prog = vec![Instr::Lw(r(1), R0, 100), Instr::Halt];
        let mut cpu = Cpu::new(prog, 8);
        let err = cpu.run(&mut NullPorts, 10).unwrap_err();
        assert!(matches!(err, CpuError::BadAddress { addr: 100, pc: 0 }));
    }

    #[test]
    fn division_by_zero_faults() {
        let prog = vec![Instr::Div(r(1), r(1), R0), Instr::Halt];
        let mut cpu = Cpu::new(prog, 0);
        let err = cpu.run(&mut NullPorts, 10).unwrap_err();
        assert_eq!(err, CpuError::DivideByZero { pc: 0 });
    }

    #[test]
    fn io_instructions_use_ports() {
        let prog = vec![
            Instr::In(r(1), 0),
            Instr::Addi(r(1), r(1), 1),
            Instr::Out(r(1), 1),
            Instr::Halt,
        ];
        let mut ports = VecPorts::new();
        ports.push_input(0, [41]);
        let mut cpu = Cpu::new(prog, 0);
        cpu.run(&mut ports, 10).unwrap();
        assert_eq!(ports.output(1), &[42]);
    }

    #[test]
    fn jal_links_and_jr_returns() {
        let prog = vec![
            Instr::Jal(3),            // 0: call 3, r15 = 1
            Instr::Addi(r(2), R0, 5), // 1: after return
            Instr::Halt,              // 2
            Instr::Addi(r(1), R0, 9), // 3: callee
            Instr::Jr(Reg(15)),       // 4: return
        ];
        let mut cpu = Cpu::new(prog, 0);
        cpu.run(&mut NullPorts, 20).unwrap();
        assert_eq!(cpu.reg(r(1)), 9);
        assert_eq!(cpu.reg(r(2)), 5);
    }

    #[test]
    fn step_limit_errors_without_halt() {
        let prog = vec![Instr::Jmp(0)];
        let mut cpu = Cpu::new(prog, 0);
        let err = cpu.run(&mut NullPorts, 100).unwrap_err();
        assert_eq!(err, CpuError::StepLimit(100));
    }

    #[test]
    fn def_use_target_metadata() {
        let i = Instr::Add(r(1), r(2), r(3));
        assert_eq!(i.def(), Some(r(1)));
        assert_eq!(i.uses(), [Some(r(2)), Some(r(3))]);
        assert_eq!(i.target(), None);
        assert!(i.falls_through());

        let sw = Instr::Sw(r(4), r(5), 2);
        assert_eq!(sw.def(), None);
        assert_eq!(sw.uses(), [Some(r(4)), Some(r(5))]);

        let b = Instr::Beq(r(1), R0, 9);
        assert_eq!(b.target(), Some(9));
        assert!(b.falls_through());

        let j = Instr::Jal(4);
        assert_eq!(j.def(), Some(Reg(15)));
        assert_eq!(j.target(), Some(4));
        assert!(!j.falls_through());

        assert_eq!(Instr::Jr(Reg(15)).uses(), [Some(Reg(15)), None]);
        assert!(!Instr::Halt.falls_through());
        assert_eq!(Instr::In(r(1), 7).port(), Some(7));
        assert_eq!(Instr::Out(r(2), 1).port(), Some(1));
        assert_eq!(Instr::Add(r(1), r(2), r(3)).port(), None);
    }

    #[test]
    fn display_renders_every_form() {
        assert_eq!(Instr::Add(r(1), r(2), r(3)).to_string(), "add r1, r2, r3");
        assert_eq!(Instr::Addi(r(1), R0, -5).to_string(), "addi r1, r0, -5");
        assert_eq!(Instr::Lw(r(2), r(3), 7).to_string(), "lw r2, 7(r3)");
        assert_eq!(Instr::Sw(r(2), r(3), -1).to_string(), "sw r2, -1(r3)");
        assert_eq!(Instr::Beq(r(1), R0, 12).to_string(), "beq r1, r0, 12");
        assert_eq!(Instr::Jmp(3).to_string(), "jmp 3");
        assert_eq!(Instr::Jal(4).to_string(), "jal 4");
        assert_eq!(Instr::Jr(Reg(15)).to_string(), "jr r15");
        assert_eq!(Instr::In(r(1), 3).to_string(), "in r1, 3");
        assert_eq!(Instr::Out(r(1), 1).to_string(), "out r1, 1");
        assert_eq!(Instr::Halt.to_string(), "halt");
    }

    #[test]
    fn worst_cost_matches_step_cost() {
        let cost = CpuCost::default();
        assert_eq!(cost.worst(&Instr::Mul(r(1), r(1), r(1))), 3);
        assert_eq!(cost.worst(&Instr::Div(r(1), r(1), r(2))), 32);
        assert_eq!(cost.worst(&Instr::Lw(r(1), R0, 0)), 2);
        assert_eq!(cost.worst(&Instr::Beq(r(1), R0, 0)), 3);
        assert_eq!(cost.worst(&Instr::Halt), 1);
    }

    #[test]
    fn cycle_costs_differ_by_class() {
        let prog = vec![
            Instr::Mul(r(1), r(1), r(1)), // 3
            Instr::Div(r(2), R0, r(3)),   // div by zero? r3=0 → set r3 first
        ];
        let mut cpu = Cpu::new(vec![Instr::Mul(r(1), r(1), r(1)), Instr::Halt], 0);
        cpu.run(&mut NullPorts, 10).unwrap();
        assert_eq!(cpu.cycles(), 3 + 1);
        drop(prog);
    }
}
