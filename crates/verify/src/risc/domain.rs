//! The register×memory abstract domain for RISC certification.
//!
//! Each program point is abstracted by an [`AbsState`]: one [`AbsVal`]
//! per register (`r0` is baked into the transfer functions as exact
//! zero) and one per word of data memory. An [`AbsVal`] pairs
//!
//! * an **interval** from the shared lattice ([`crate::interval`], the
//!   same transfer functions `zarf-symex` propagates with) — any
//!   operation whose true result could leave the `i32` range goes to
//!   top, which keeps the domain sound under the CPU's wrapping
//!   arithmetic; and
//! * a **known-low-bits congruence** `value ≡ val (mod 2^bits)`. A
//!   modulus that divides 2³² is the only congruence preserved by
//!   wrapping add/sub/mul, which is why the representation is a bit
//!   count rather than an arbitrary modulus. Its job is divisor
//!   nonzeroness (`bits > 0` with nonzero low bits excludes zero) and
//!   masked-ring addressing.
//!
//! Widening is **tiered inside the lattice** rather than left to the
//! engine's all-or-nothing [`crate::absint::Lattice::widen`]: the first
//! few joins at a node are exact, further growth lands on program
//! constants (thresholds), and persistent growth jumps to the full
//! range. The engine's widen-to-top stays as a safety net behind a high
//! [`crate::absint::Engine::widen_after`], and the engine's proven
//! iteration bound still applies.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::rc::Rc;

use zarf_imperative::cpu::{Instr, Reg};

use crate::absint::{AbsIntError, Analysis, Engine, Lattice, NodeId, View};
use crate::interval::{Interval, HI, LO};

use super::cfg::{BlockId, Cfg};

/// Known-low-bits congruence: the value is ≡ `val` modulo `2^bits`.
/// `bits == 0` is top (nothing known); `bits == 32` is an exact value.
/// Moduli dividing 2³² are the only ones preserved by wrapping 32-bit
/// arithmetic, hence the representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cong {
    /// Number of known low bits, `0..=32`.
    pub bits: u32,
    /// The known low bits (upper bits are ignored/zeroed).
    pub val: u32,
}

fn mask(bits: u32) -> u32 {
    if bits == 0 {
        0
    } else if bits >= 32 {
        u32::MAX
    } else {
        (1u32 << bits) - 1
    }
}

// `add`/`sub`/... are abstract transfer functions named after the
// instructions they model, not arithmetic on the lattice element itself;
// implementing the std operator traits would misstate that.
#[allow(clippy::should_implement_trait)]
impl Cong {
    /// Nothing known.
    pub fn top() -> Cong {
        Cong { bits: 0, val: 0 }
    }

    /// All 32 bits known.
    pub fn exact(v: i64) -> Cong {
        Cong {
            bits: 32,
            val: v as i32 as u32,
        }
    }

    /// Whether `v` is a member.
    pub fn contains(&self, v: i64) -> bool {
        ((v as i32 as u32) ^ self.val) & mask(self.bits) == 0
    }

    /// Whether membership of zero is ruled out (a nonzero known low
    /// bit).
    pub fn excludes_zero(&self) -> bool {
        self.bits > 0 && self.val & mask(self.bits) != 0
    }

    /// Join: keep the low bits both sides know and agree on.
    pub fn join(self, o: Cong) -> Cong {
        let agree = (self.val ^ o.val).trailing_zeros();
        let bits = self.bits.min(o.bits).min(agree);
        Cong {
            bits,
            val: self.val & mask(bits),
        }
    }

    /// Meet; `None` when the known low bits disagree.
    pub fn meet(self, o: Cong) -> Option<Cong> {
        let common = self.bits.min(o.bits);
        if (self.val ^ o.val) & mask(common) != 0 {
            return None;
        }
        let (bits, val) = if self.bits >= o.bits {
            (self.bits, self.val)
        } else {
            (o.bits, o.val)
        };
        Some(Cong {
            bits,
            val: val & mask(bits),
        })
    }

    fn bin(self, o: Cong, f: fn(u32, u32) -> u32) -> Cong {
        let bits = self.bits.min(o.bits);
        Cong {
            bits,
            val: f(self.val, o.val) & mask(bits),
        }
    }

    /// Wrapping add preserves common known low bits.
    pub fn add(self, o: Cong) -> Cong {
        self.bin(o, u32::wrapping_add)
    }

    /// Wrapping subtract.
    pub fn sub(self, o: Cong) -> Cong {
        self.bin(o, u32::wrapping_sub)
    }

    /// Wrapping multiply.
    pub fn mul(self, o: Cong) -> Cong {
        self.bin(o, u32::wrapping_mul)
    }

    /// Bitwise AND.
    pub fn and(self, o: Cong) -> Cong {
        self.bin(o, |a, b| a & b)
    }

    /// Bitwise OR.
    pub fn or(self, o: Cong) -> Cong {
        self.bin(o, |a, b| a | b)
    }

    /// Bitwise XOR.
    pub fn xor(self, o: Cong) -> Cong {
        self.bin(o, |a, b| a ^ b)
    }

    /// Left shift by a constant amount: gains known low zero bits.
    pub fn sll(self, k: u32) -> Cong {
        let bits = (self.bits + k).min(32);
        Cong {
            bits,
            val: self.val.wrapping_shl(k) & mask(bits),
        }
    }

    /// Right shift by a constant amount: loses low bits.
    pub fn sra(self, k: u32) -> Cong {
        let bits = self.bits.saturating_sub(k);
        Cong {
            bits,
            val: (self.val >> k.min(31)) & mask(bits),
        }
    }
}

/// One abstract machine word: interval × congruence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbsVal {
    /// Range component.
    pub iv: Interval,
    /// Low-bits component.
    pub cg: Cong,
}

impl AbsVal {
    /// Completely unknown word.
    pub fn top() -> AbsVal {
        AbsVal {
            iv: Interval::top(),
            cg: Cong::top(),
        }
    }

    /// A known constant.
    pub fn exact(v: i64) -> AbsVal {
        AbsVal {
            iv: Interval::exact(v),
            cg: Cong::exact(v),
        }
    }

    /// The constant, if both components agree it is one.
    pub fn singleton(&self) -> Option<i64> {
        self.iv.singleton()
    }

    /// Whether zero is provably not a member (by range or low bits).
    pub fn excludes_zero(&self) -> bool {
        self.iv.lo > 0 || self.iv.hi < 0 || self.cg.excludes_zero()
    }

    /// Least upper bound (exact; widening happens in the state join).
    pub fn join(self, o: AbsVal) -> AbsVal {
        AbsVal {
            iv: self.iv.join(o.iv),
            cg: self.cg.join(o.cg),
        }
    }

    /// Greatest lower bound; `None` when the components are
    /// contradictory (an infeasible path).
    pub fn meet(self, o: AbsVal) -> Option<AbsVal> {
        Some(AbsVal {
            iv: self.iv.meet(o.iv)?,
            cg: self.cg.meet(o.cg)?,
        })
    }
}

impl fmt::Display for AbsVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(v) = self.singleton() {
            write!(f, "{v}")
        } else {
            write!(f, "{}", self.iv)
        }
    }
}

/// Abstract machine state: 16 registers plus word-addressed memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbsState {
    /// Per-register values (`regs[0]` is ignored; reads of `r0` return
    /// exact zero).
    pub regs: [AbsVal; 16],
    /// Per-word memory values.
    pub mem: Vec<AbsVal>,
}

impl AbsState {
    /// The boot state: registers and memory all exactly zero, matching
    /// `Cpu::new`.
    pub fn boot(mem_words: usize) -> AbsState {
        AbsState {
            regs: [AbsVal::exact(0); 16],
            mem: vec![AbsVal::exact(0); mem_words],
        }
    }

    /// Nothing known anywhere.
    pub fn top(mem_words: usize) -> AbsState {
        AbsState {
            regs: [AbsVal::top(); 16],
            mem: vec![AbsVal::top(); mem_words],
        }
    }

    /// Read a register (`r0` is hardwired zero).
    pub fn get(&self, r: Reg) -> AbsVal {
        if r.0 == 0 {
            AbsVal::exact(0)
        } else {
            self.regs[(r.0 & 15) as usize]
        }
    }

    /// Write a register (writes to `r0` are discarded).
    pub fn set(&mut self, r: Reg, v: AbsVal) {
        if r.0 != 0 {
            self.regs[(r.0 & 15) as usize] = v;
        }
    }
}

/// Shared per-analysis context rides inside the lattice values so the
/// state join can see the widening thresholds.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Sorted widening thresholds: program constants an interval
    /// endpoint may land on instead of jumping to the full range.
    pub thresholds: Vec<i64>,
}

/// Widening thresholds for a program: its immediates (±1), its memory
/// offsets, the memory size, and the usual small constants.
pub fn thresholds_of(prog: &[Instr], mem_words: usize) -> Vec<i64> {
    let mut set: BTreeSet<i64> = BTreeSet::new();
    set.extend([-1i64, 0, 1]);
    set.insert(mem_words as i64);
    set.insert(mem_words as i64 - 1);
    for i in prog {
        match *i {
            Instr::Addi(_, _, c) | Instr::Muli(_, _, c) | Instr::Slti(_, _, c) => {
                set.insert(c as i64 - 1);
                set.insert(c as i64);
                set.insert(c as i64 + 1);
            }
            Instr::Lw(_, _, off) | Instr::Sw(_, _, off) => {
                set.insert(off as i64);
            }
            _ => {}
        }
    }
    set.into_iter()
        .filter(|&t| (LO..=HI).contains(&t))
        .collect()
}

/// How aggressively the state join widens, by how often this node has
/// already changed.
///
/// There is deliberately no "jump to full range" stage: once a node
/// passes [`EXACT_JOINS`], every grown endpoint snaps to a value from
/// the finite program-threshold set (or the i32 extreme past its end),
/// and since endpoints only move outward, each of the `2·(registers +
/// memory words)` endpoints changes at most `|thresholds| + 1` more
/// times. That keeps total changes per node bounded — the engine's
/// `widen_after` safety net is sized above that product — without ever
/// destroying a threshold-representable invariant the way an
/// extremes-jump would (e.g. a ring index held in `[0, 23]` by a
/// wrap-around compare would be blown to `[0, i32::MAX]` by any join
/// after such a stage kicked in).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// Exact joins: the first few changes cost nothing.
    Exact,
    /// Growing endpoints land on the nearest program threshold.
    Threshold,
}

/// Joins before threshold widening starts.
const EXACT_JOINS: u64 = 4;

impl Stage {
    fn of(joins: u64) -> Stage {
        if joins < EXACT_JOINS {
            Stage::Exact
        } else {
            Stage::Threshold
        }
    }
}

/// Largest threshold at or below `v` (for a downward-growing `lo`).
fn thresh_down(ths: &[i64], v: i64) -> i64 {
    let idx = ths.partition_point(|&t| t <= v);
    if idx == 0 {
        LO
    } else {
        ths[idx - 1]
    }
}

/// Smallest threshold at or above `v` (for an upward-growing `hi`).
fn thresh_up(ths: &[i64], v: i64) -> i64 {
    let idx = ths.partition_point(|&t| t < v);
    if idx == ths.len() {
        HI
    } else {
        ths[idx]
    }
}

/// Widening join of one word of state. Endpoints that did not grow are
/// left alone; grown endpoints are treated per the stage.
fn widen_join(cur: &mut AbsVal, inc: &AbsVal, stage: Stage, ths: &[i64]) -> bool {
    let mut changed = false;
    let glo = cur.iv.lo.min(inc.iv.lo);
    let ghi = cur.iv.hi.max(inc.iv.hi);
    if glo < cur.iv.lo {
        cur.iv.lo = match stage {
            Stage::Exact => glo,
            Stage::Threshold => thresh_down(ths, glo),
        };
        changed = true;
    }
    if ghi > cur.iv.hi {
        cur.iv.hi = match stage {
            Stage::Exact => ghi,
            Stage::Threshold => thresh_up(ths, ghi),
        };
        changed = true;
    }
    let cg = cur.cg.join(inc.cg);
    if cg != cur.cg {
        cur.cg = cg;
        changed = true;
    }
    changed
}

/// The per-block lattice value: a block is unreached, reached with a
/// state, or widened to top.
#[derive(Debug, Clone)]
pub enum RiscVal {
    /// No execution reaches this block (bottom).
    Unreached,
    /// Reached with the given entry state.
    Reached(Box<NodeState>),
    /// Absorbing top (only produced by the engine's safety-net widen).
    Top,
}

/// The payload of a reached block.
#[derive(Debug, Clone)]
pub struct NodeState {
    /// Join of all incoming entry states, with widening applied.
    pub st: AbsState,
    /// How many times this node's summary has changed (drives the
    /// widening stage).
    pub joins: u64,
    /// Shared thresholds.
    pub ctx: Rc<Ctx>,
}

impl Lattice for RiscVal {
    fn join_from(&mut self, other: &Self) -> bool {
        let o = match other {
            RiscVal::Unreached => return false,
            RiscVal::Top => {
                if matches!(self, RiscVal::Top) {
                    return false;
                }
                *self = RiscVal::Top;
                return true;
            }
            RiscVal::Reached(o) => o,
        };
        let a = match self {
            RiscVal::Top => return false,
            RiscVal::Unreached => {
                *self = RiscVal::Reached(o.clone());
                return true;
            }
            RiscVal::Reached(a) => a,
        };
        let ctx = a.ctx.clone();
        let stage = Stage::of(a.joins);
        let mut changed = false;
        for i in 1..16 {
            changed |= widen_join(&mut a.st.regs[i], &o.st.regs[i], stage, &ctx.thresholds);
        }
        let cells = a.st.mem.len().min(o.st.mem.len());
        for i in 0..cells {
            changed |= widen_join(&mut a.st.mem[i], &o.st.mem[i], stage, &ctx.thresholds);
        }
        if changed {
            a.joins += 1;
        }
        changed
    }

    fn widen(&mut self) -> bool {
        if matches!(self, RiscVal::Top) {
            false
        } else {
            *self = RiscVal::Top;
            true
        }
    }
}

/// One step of the abstract transfer for a non-control instruction.
/// Control transfers are handled at block ends by [`exec_block`].
pub fn eval(i: Instr, st: &mut AbsState) {
    // Concrete fast path: both operands known exactly → run the CPU's
    // own wrapping semantics on the constants.
    let conc = |a: AbsVal, b: AbsVal, f: fn(i32, i32) -> i32| -> Option<AbsVal> {
        let (x, y) = (a.singleton()?, b.singleton()?);
        Some(AbsVal::exact(f(x as i32, y as i32) as i64))
    };
    let bin = |st: &mut AbsState,
               d: Reg,
               a: AbsVal,
               b: AbsVal,
               f: fn(i32, i32) -> i32,
               iv: fn(Interval, Interval) -> Interval,
               cg: fn(Cong, Cong) -> Cong| {
        let v = conc(a, b, f).unwrap_or(AbsVal {
            iv: iv(a.iv, b.iv),
            cg: cg(a.cg, b.cg),
        });
        st.set(d, v);
    };
    match i {
        Instr::Add(d, s, t) => {
            let (a, b) = (st.get(s), st.get(t));
            bin(st, d, a, b, i32::wrapping_add, Interval::add, Cong::add);
        }
        Instr::Sub(d, s, t) => {
            let (a, b) = (st.get(s), st.get(t));
            bin(st, d, a, b, i32::wrapping_sub, Interval::sub, Cong::sub);
        }
        Instr::Mul(d, s, t) => {
            let (a, b) = (st.get(s), st.get(t));
            bin(st, d, a, b, i32::wrapping_mul, Interval::mul, Cong::mul);
        }
        Instr::Addi(d, s, c) => {
            let (a, b) = (st.get(s), AbsVal::exact(c as i64));
            bin(st, d, a, b, i32::wrapping_add, Interval::add, Cong::add);
        }
        Instr::Muli(d, s, c) => {
            let (a, b) = (st.get(s), AbsVal::exact(c as i64));
            bin(st, d, a, b, i32::wrapping_mul, Interval::mul, Cong::mul);
        }
        Instr::Div(d, s, t) | Instr::Rem(d, s, t) => {
            let (a, b) = (st.get(s), st.get(t));
            let is_div = matches!(i, Instr::Div(..));
            let v = match (a.singleton(), b.singleton()) {
                (Some(x), Some(y)) if y != 0 => {
                    let (x, y) = (x as i32, y as i32);
                    let r = if is_div {
                        x.wrapping_div(y)
                    } else {
                        x.wrapping_rem(y)
                    };
                    AbsVal::exact(r as i64)
                }
                _ => AbsVal {
                    iv: if is_div {
                        a.iv.div(b.iv)
                    } else {
                        a.iv.rem(b.iv)
                    },
                    cg: Cong::top(),
                },
            };
            st.set(d, v);
        }
        Instr::And(d, s, t) => {
            let (a, b) = (st.get(s), st.get(t));
            bin(st, d, a, b, |x, y| x & y, Interval::and, Cong::and);
        }
        Instr::Or(d, s, t) => {
            let (a, b) = (st.get(s), st.get(t));
            bin(st, d, a, b, |x, y| x | y, Interval::or, Cong::or);
        }
        Instr::Xor(d, s, t) => {
            let (a, b) = (st.get(s), st.get(t));
            bin(st, d, a, b, |x, y| x ^ y, Interval::xor, Cong::xor);
        }
        Instr::Slt(d, s, t) => {
            let (a, b) = (st.get(s), st.get(t));
            st.set(
                d,
                AbsVal {
                    iv: a.iv.slt(b.iv),
                    cg: Cong::top(),
                },
            );
        }
        Instr::Slti(d, s, c) => {
            let a = st.get(s);
            st.set(
                d,
                AbsVal {
                    iv: a.iv.slt(Interval::exact(c as i64)),
                    cg: Cong::top(),
                },
            );
        }
        Instr::Sll(d, s, t) => {
            let (a, b) = (st.get(s), st.get(t));
            let v = match b.singleton() {
                Some(k) => {
                    let k = (k as i32 as u32) & 31;
                    AbsVal {
                        iv: a.iv.shl(k),
                        cg: a.cg.sll(k),
                    }
                }
                None => AbsVal::top(),
            };
            st.set(d, v);
        }
        Instr::Sra(d, s, t) => {
            let (a, b) = (st.get(s), st.get(t));
            let v = match b.singleton() {
                Some(k) => {
                    let k = (k as i32 as u32) & 31;
                    AbsVal {
                        iv: a.iv.sra(k),
                        cg: a.cg.sra(k),
                    }
                }
                None => AbsVal {
                    iv: a.iv.sra_any(),
                    cg: Cong::top(),
                },
            };
            st.set(d, v);
        }
        Instr::Lw(d, s, off) => {
            let addr = st.get(s).iv.add(Interval::exact(off as i64));
            let last = st.mem.len() as i64 - 1;
            let lo = addr.lo.max(0);
            let hi = addr.hi.min(last);
            let v = if lo > hi {
                // Every address is out of bounds: the load faults on all
                // paths; the client pass reports it. Keep the state sound.
                AbsVal::top()
            } else {
                let mut acc = st.mem[lo as usize];
                for a in (lo as usize + 1)..=(hi as usize) {
                    acc = acc.join(st.mem[a]);
                }
                if addr.lo < 0 || addr.hi > last {
                    acc = acc.join(AbsVal::top());
                }
                acc
            };
            st.set(d, v);
        }
        Instr::Sw(t, s, off) => {
            let addr = st.get(s).iv.add(Interval::exact(off as i64));
            let v = st.get(t);
            let last = st.mem.len() as i64 - 1;
            if let Some(a) = addr.singleton() {
                if (0..=last).contains(&a) {
                    st.mem[a as usize] = v; // strong update
                }
            } else {
                let lo = addr.lo.max(0);
                let hi = addr.hi.min(last);
                for a in lo..=hi.max(lo - 1) {
                    let cell = st.mem[a as usize];
                    st.mem[a as usize] = cell.join(v); // weak update
                }
            }
        }
        Instr::In(d, _) => st.set(d, AbsVal::top()),
        Instr::Out(..)
        | Instr::Beq(..)
        | Instr::Bne(..)
        | Instr::Blt(..)
        | Instr::Bge(..)
        | Instr::Jmp(_)
        | Instr::Jal(_)
        | Instr::Jr(_)
        | Instr::Halt => {}
    }
}

/// Refine `st` under the outcome of a conditional branch; `None` means
/// the outcome is infeasible (a dead edge).
fn refine(mut st: AbsState, i: Instr, taken: bool) -> Option<AbsState> {
    // (s, t, relation-that-holds)
    enum Rel {
        Eq,
        Ne,
        Lt,
        Ge,
    }
    let (s, t, rel) = match (i, taken) {
        (Instr::Beq(s, t, _), true) | (Instr::Bne(s, t, _), false) => (s, t, Rel::Eq),
        (Instr::Beq(s, t, _), false) | (Instr::Bne(s, t, _), true) => (s, t, Rel::Ne),
        (Instr::Blt(s, t, _), true) | (Instr::Bge(s, t, _), false) => (s, t, Rel::Lt),
        (Instr::Blt(s, t, _), false) | (Instr::Bge(s, t, _), true) => (s, t, Rel::Ge),
        _ => return Some(st),
    };
    let (a, b) = (st.get(s), st.get(t));
    match rel {
        Rel::Eq => {
            let m = a.meet(b)?;
            st.set(s, m);
            st.set(t, m);
        }
        Rel::Ne => {
            // Only a singleton on one side lets us trim the other.
            if let Some(c) = b.singleton() {
                st.set(
                    s,
                    AbsVal {
                        iv: a.iv.trim_ne(c)?,
                        cg: a.cg,
                    },
                );
            } else if let Some(c) = a.singleton() {
                st.set(
                    t,
                    AbsVal {
                        iv: b.iv.trim_ne(c)?,
                        cg: b.cg,
                    },
                );
            }
        }
        Rel::Lt | Rel::Ge => {
            let (na, nb) = if matches!(rel, Rel::Lt) {
                a.iv.refine_lt(b.iv)?
            } else {
                a.iv.refine_ge(b.iv)?
            };
            st.set(s, AbsVal { iv: na, cg: a.cg });
            st.set(t, AbsVal { iv: nb, cg: b.cg });
        }
    }
    Some(st)
}

/// Execute one block abstractly from its entry state, reporting the
/// pre-state of every pc through `sink` and returning the dataflow
/// successor proposals. Call blocks propose to their callee's entry
/// (with the link register set exactly); return blocks propose to every
/// call continuation of their function.
pub fn exec_block(
    prog: &[Instr],
    cfg: &Cfg,
    b: BlockId,
    mut st: AbsState,
    sink: &mut dyn FnMut(usize, &AbsState),
) -> Vec<(BlockId, AbsState)> {
    let blk = &cfg.blocks[b];
    for (pc, ins) in prog.iter().enumerate().take(blk.end).skip(blk.start) {
        sink(pc, &st);
        eval(*ins, &mut st);
    }
    let end = blk.end;
    sink(end, &st);
    match prog[end] {
        Instr::Beq(..) | Instr::Bne(..) | Instr::Blt(..) | Instr::Bge(..) => {
            let mut out = Vec::new();
            // succs[0] is the taken edge, succs[1] the fall-through.
            if let Some(t) = refine(st.clone(), prog[end], true) {
                out.push((blk.succs[0], t));
            }
            if let Some(f) = refine(st, prog[end], false) {
                out.push((blk.succs[1], f));
            }
            out
        }
        Instr::Jmp(_) => vec![(blk.succs[0], st)],
        Instr::Jal(_) => {
            st.set(Reg(15), AbsVal::exact(end as i64 + 1));
            match blk.call {
                Some(fid) => vec![(cfg.funcs[fid].entry, st)],
                None => Vec::new(),
            }
        }
        Instr::Jr(_) => cfg.ret_to[b].iter().map(|&t| (t, st.clone())).collect(),
        Instr::Halt => Vec::new(),
        other => {
            eval(other, &mut st);
            vec![(blk.succs[0], st)]
        }
    }
}

/// The block-level analysis plugged into the generic engine. Node ids
/// are block ids; the entry block is seeded with the boot state and all
/// other blocks with bottom (only seeded nodes run transfers, so every
/// block is seeded).
pub struct RiscAnalysis<'a> {
    prog: &'a [Instr],
    cfg: &'a Cfg,
    mem_words: usize,
    ctx: Rc<Ctx>,
    /// Loop-head clamps (assume-guarantee invariants from
    /// [`super::wcet::derive_facts`]), intersected at the head's entry.
    clamps: BTreeMap<BlockId, Vec<(u8, Interval)>>,
}

impl Analysis for RiscAnalysis<'_> {
    type Value = RiscVal;

    fn seeds(&self) -> Vec<(NodeId, RiscVal)> {
        let entry = self.cfg.block_of[0];
        (0..self.cfg.blocks.len())
            .map(|b| {
                if b == entry {
                    (
                        b as NodeId,
                        RiscVal::Reached(Box::new(NodeState {
                            st: AbsState::boot(self.mem_words),
                            joins: 0,
                            ctx: self.ctx.clone(),
                        })),
                    )
                } else {
                    (b as NodeId, RiscVal::Unreached)
                }
            })
            .collect()
    }

    fn transfer(&self, node: NodeId, view: &View<'_, RiscVal>) -> Vec<(NodeId, RiscVal)> {
        let b = node as BlockId;
        let st = match view.get(node) {
            Some(RiscVal::Reached(n)) => n.st.clone(),
            Some(RiscVal::Top) => AbsState::top(self.mem_words),
            _ => return Vec::new(),
        };
        let st = match self.apply_clamps(b, st) {
            Some(st) => st,
            None => return Vec::new(),
        };
        exec_block(self.prog, self.cfg, b, st, &mut |_, _| {})
            .into_iter()
            .map(|(tb, s)| {
                (
                    tb as NodeId,
                    RiscVal::Reached(Box::new(NodeState {
                        st: s,
                        joins: 0,
                        ctx: self.ctx.clone(),
                    })),
                )
            })
            .collect()
    }
}

impl RiscAnalysis<'_> {
    fn apply_clamps(&self, b: BlockId, mut st: AbsState) -> Option<AbsState> {
        if let Some(cs) = self.clamps.get(&b) {
            for &(r, clamp) in cs {
                let reg = Reg(r);
                let v = st.get(reg);
                let iv = v.iv.meet(clamp)?;
                st.set(reg, AbsVal { iv, cg: v.cg });
            }
        }
        Some(st)
    }
}

/// A completed block-level fixpoint: the entry state of every reached
/// block.
#[derive(Debug, Clone)]
pub struct RiscFixpoint {
    /// Entry state per reached block (clamps **not** yet applied — apply
    /// via the same meet when re-executing).
    pub entries: BTreeMap<BlockId, AbsState>,
    /// Transfer evaluations the engine performed.
    pub iterations: u64,
    /// The engine's enforced bound.
    pub bound: u64,
}

/// Run the interval×congruence analysis to fixpoint over a recovered
/// CFG. `clamps` carries loop-head invariants (empty on the first
/// phase).
pub fn analyze(
    prog: &[Instr],
    cfg: &Cfg,
    mem_words: usize,
    clamps: &BTreeMap<BlockId, Vec<(u8, Interval)>>,
) -> Result<RiscFixpoint, AbsIntError> {
    let ctx = Rc::new(Ctx {
        thresholds: thresholds_of(prog, mem_words),
    });
    // Worst-case changing joins per node: the exact-stage allowance plus
    // every interval endpoint walking the whole threshold chain, plus a
    // congruence-bit drop per word. The engine's widen-to-top safety net
    // sits above that, so it can only fire if this domain's own
    // termination argument is broken.
    let words = 16 + mem_words as u64;
    let chain = ctx.thresholds.len() as u64 + 2;
    let widen_after = EXACT_JOINS + 2 * words * chain + 33 * words;
    let analysis = RiscAnalysis {
        prog,
        cfg,
        mem_words,
        ctx,
        clamps: clamps.clone(),
    };
    let fp = Engine::new().widen_after(widen_after).run(&analysis)?;
    let mut entries = BTreeMap::new();
    for (node, v) in &fp.values {
        match v {
            RiscVal::Reached(n) => {
                entries.insert(*node as BlockId, n.st.clone());
            }
            RiscVal::Top => {
                entries.insert(*node as BlockId, AbsState::top(mem_words));
            }
            RiscVal::Unreached => {}
        }
    }
    Ok(RiscFixpoint {
        entries,
        iterations: fp.iterations,
        bound: fp.bound,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use zarf_imperative::builder::Asm;
    use zarf_imperative::cpu::R0;

    fn r(n: u8) -> Reg {
        Reg(n)
    }

    fn no_clamps() -> BTreeMap<BlockId, Vec<(u8, Interval)>> {
        BTreeMap::new()
    }

    #[test]
    fn congruence_tracks_low_bits() {
        // x = 4k + 2 for any k: excludes zero, survives += 4.
        let c = Cong { bits: 2, val: 2 };
        assert!(c.excludes_zero());
        assert!(c.contains(6));
        assert!(!c.contains(4));
        let step = Cong::exact(4);
        assert_eq!(c.add(step), Cong { bits: 2, val: 2 });
        // Join keeps only agreeing low bits.
        let d = Cong::exact(6); // ...110
        let e = Cong::exact(2); // ...010
        let j = d.join(e); // low two bits 10 agree
        assert_eq!(j.bits, 2);
        assert!(j.excludes_zero());
    }

    #[test]
    fn shift_gains_and_loses_known_bits() {
        let c = Cong::exact(3);
        let s = c.sll(4); // 48: low 4 bits zero... low bits now 0b110000
        assert!(s.contains(48));
        assert!(!s.contains(8));
        let back = s.sra(4);
        assert!(back.contains(3));
    }

    #[test]
    fn straight_line_constant_propagation() {
        let prog = vec![
            Instr::Addi(r(1), R0, 20),
            Instr::Addi(r(2), R0, 22),
            Instr::Add(r(3), r(1), r(2)),
            Instr::Halt,
        ];
        let cfg = Cfg::build(&prog).unwrap();
        let fp = analyze(&prog, &cfg, 4, &no_clamps()).unwrap();
        // Re-execute the single block to see the pre-halt state.
        let mut at_halt = None;
        exec_block(
            &prog,
            &cfg,
            cfg.block_of[0],
            fp.entries[&cfg.block_of[0]].clone(),
            &mut |pc, st| {
                if pc == 3 {
                    at_halt = Some(st.clone());
                }
            },
        );
        let st = at_halt.unwrap();
        assert_eq!(st.get(r(3)).singleton(), Some(42));
    }

    #[test]
    fn down_counter_loop_converges_to_bounded_range() {
        let mut a = Asm::new();
        a.addi(r(1), R0, 10);
        a.label("top");
        a.beq(r(1), R0, "done");
        a.addi(r(1), r(1), -1);
        a.jmp("top");
        a.label("done");
        a.halt();
        let prog = a.assemble().unwrap();
        let cfg = Cfg::build(&prog).unwrap();
        let fp = analyze(&prog, &cfg, 0, &no_clamps()).unwrap();
        // At the loop head the counter stays within [0, 10]: the exits
        // and thresholds stop widening from losing the bound.
        let head = cfg.block_of[1];
        let got = fp.entries[&head].get(r(1));
        assert!(got.iv.lo >= 0, "lo {} < 0", got.iv.lo);
        assert!(got.iv.hi <= 10, "hi {} > 10", got.iv.hi);
        // After the exit branch the counter is exactly zero.
        let done = cfg.block_of[4];
        assert_eq!(fp.entries[&done].get(r(1)).singleton(), Some(0));
    }

    #[test]
    fn branch_refinement_kills_dead_edges() {
        let mut a = Asm::new();
        a.addi(r(1), R0, 5);
        a.beq(r(1), R0, "dead");
        a.halt();
        a.label("dead");
        a.addi(r(2), R0, 1);
        a.halt();
        let prog = a.assemble().unwrap();
        let cfg = Cfg::build(&prog).unwrap();
        let fp = analyze(&prog, &cfg, 0, &no_clamps()).unwrap();
        // The taken edge (r1 == 0) is infeasible: the "dead" block keeps
        // its bottom value.
        let dead = cfg.block_of[3];
        assert!(!fp.entries.contains_key(&dead));
    }

    #[test]
    fn masked_store_addresses_stay_in_bounds() {
        // idx = in(); idx &= 7; mem[base + idx] = 1 — classic ring write.
        let mut a = Asm::new();
        a.inp(r(1), 0);
        a.addi(r(2), R0, 7);
        a.and(r(1), r(1), r(2));
        a.addi(r(3), R0, 1);
        a.sw(r(3), r(1), 8);
        a.halt();
        let prog = a.assemble().unwrap();
        let cfg = Cfg::build(&prog).unwrap();
        let fp = analyze(&prog, &cfg, 16, &no_clamps()).unwrap();
        let b = cfg.block_of[0];
        let mut at_sw = None;
        exec_block(&prog, &cfg, b, fp.entries[&b].clone(), &mut |pc, st| {
            if pc == 4 {
                at_sw = Some(st.clone());
            }
        });
        let st = at_sw.unwrap();
        let addr = st.get(r(1)).iv.add(Interval::exact(8));
        assert!(addr.lo >= 0 && addr.hi <= 15, "addr {addr}");
    }

    #[test]
    fn call_flows_through_callee_and_back() {
        let mut a = Asm::new();
        a.jal("nine");
        a.add(r(2), r(1), r(1));
        a.halt();
        a.label("nine");
        a.addi(r(1), R0, 9);
        a.jr(Reg(15));
        let prog = a.assemble().unwrap();
        let cfg = Cfg::build(&prog).unwrap();
        let fp = analyze(&prog, &cfg, 0, &no_clamps()).unwrap();
        // The continuation sees the callee's effect on r1.
        let cont = cfg.block_of[1];
        assert_eq!(fp.entries[&cont].get(r(1)).singleton(), Some(9));
        let mut at_halt = None;
        exec_block(
            &prog,
            &cfg,
            cont,
            fp.entries[&cont].clone(),
            &mut |pc, st| {
                if pc == 2 {
                    at_halt = Some(st.clone());
                }
            },
        );
        assert_eq!(at_halt.unwrap().get(r(2)).singleton(), Some(18));
    }

    #[test]
    fn in_instruction_yields_top() {
        let prog = vec![Instr::In(r(1), 3), Instr::Halt];
        let cfg = Cfg::build(&prog).unwrap();
        let fp = analyze(&prog, &cfg, 0, &no_clamps()).unwrap();
        let b = cfg.block_of[0];
        let mut at_halt = None;
        exec_block(&prog, &cfg, b, fp.entries[&b].clone(), &mut |pc, st| {
            if pc == 1 {
                at_halt = Some(st.clone());
            }
        });
        assert!(at_halt.unwrap().get(r(1)).iv.is_top());
    }
}
