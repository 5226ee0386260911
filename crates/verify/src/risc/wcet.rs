//! Loop facts and the hierarchical worst-case cycle bound.
//!
//! Two jobs, both driven by the recovered [`super::cfg::Cfg`] and the
//! phase-A abstract fixpoint:
//!
//! 1. [`derive_facts`] — find syntactic induction variables (a register
//!    whose only in-loop definition is one `addi v, v, d` in a block
//!    that dominates every back edge), derive **trip bounds** from
//!    counter/exit patterns, and turn both into **loop-head clamps**:
//!    interval invariants the phase-B analysis intersects at each head.
//!    The clamps are assume-guarantee facts — proven syntactically here
//!    (`v` at the head is `pre + k·d` for some iteration `k ≤ T`), and
//!    validated dynamically by the property suite.
//! 2. [`wcet`] — compose per-instruction worst costs
//!    ([`CpuCost::worst`]) into per-block costs, collapse loops
//!    innermost-first (`total = (T+1) · longest-path-per-iteration`),
//!    fold callee bounds into call blocks, and report a whole-program
//!    bound. An unbounded loop makes the *program* bound `None` while
//!    per-iteration bounds stay finite — exactly the shape of a reactive
//!    monitor, whose steady-state cost is what certification pins.

use std::collections::{BTreeMap, BTreeSet};

use zarf_imperative::cpu::{CpuCost, Instr, Reg};

use super::cfg::{BlockId, Cfg, Func};
use super::domain::{exec_block, AbsState, RiscFixpoint};
use crate::interval::{Interval, HI};

/// Facts about every loop with a recognized counter.
#[derive(Debug, Clone, Default)]
pub struct LoopFacts {
    /// Slack-inclusive iteration bound, keyed by loop-head block.
    pub trip: BTreeMap<BlockId, u64>,
    /// Register clamps at loop heads: `(register, invariant interval)`.
    pub clamps: BTreeMap<BlockId, Vec<(u8, Interval)>>,
}

/// A syntactic induction variable of one loop.
struct Iv {
    reg: u8,
    step: i64,
    def_block: BlockId,
}

/// Find the induction variables of loop `li` in `f`: registers whose
/// only definition inside the loop is a single `addi v, v, d` sitting in
/// a block of this very loop (not a nested one) that dominates every
/// back-edge source — so the step executes exactly once per iteration.
fn induction_vars(prog: &[Instr], cfg: &Cfg, f: &Func, li: usize) -> Vec<Iv> {
    let l = &f.loops[li];
    let mut defs: BTreeMap<u8, Vec<(BlockId, usize)>> = BTreeMap::new();
    for &b in &l.body {
        let blk = &cfg.blocks[b];
        for (pc, ins) in prog.iter().enumerate().take(blk.end + 1).skip(blk.start) {
            if let Some(r) = ins.def() {
                if r.0 != 0 {
                    defs.entry(r.0).or_default().push((b, pc));
                }
            }
        }
    }
    let mut out = Vec::new();
    for (reg, sites) in defs {
        let (db, dpc) = match sites.as_slice() {
            [one] => *one,
            _ => continue,
        };
        let step = match prog[dpc] {
            Instr::Addi(d, s, c) if d == Reg(reg) && s == Reg(reg) => c as i64,
            _ => continue,
        };
        if f.innermost_loop(db) != Some(li) {
            continue;
        }
        if !l.back_edges.iter().all(|&src| f.dominates(db, src)) {
            continue;
        }
        out.push(Iv {
            reg,
            step,
            def_block: db,
        });
    }
    out
}

/// Derive trip bounds and loop-head clamps from the phase-A fixpoint.
pub fn derive_facts(prog: &[Instr], cfg: &Cfg, phase_a: &RiscFixpoint) -> LoopFacts {
    // Recompute every dataflow edge once, with its carried state, so
    // each loop head can see its preheader join.
    let mut into: BTreeMap<BlockId, Vec<(BlockId, AbsState)>> = BTreeMap::new();
    for (&b, st) in &phase_a.entries {
        for (dst, s) in exec_block(prog, cfg, b, st.clone(), &mut |_, _| {}) {
            into.entry(dst).or_default().push((b, s));
        }
    }

    let mut facts = LoopFacts::default();
    for f in &cfg.funcs {
        for (li, l) in f.loops.iter().enumerate() {
            // Preheader join: states entering the head from outside the
            // body.
            let mut pre: Option<AbsState> = None;
            for (src, st) in into.get(&l.head).map(Vec::as_slice).unwrap_or(&[]) {
                if l.body.contains(src) {
                    continue;
                }
                pre = Some(match pre {
                    None => st.clone(),
                    Some(mut acc) => {
                        for i in 1..16 {
                            acc.regs[i] = acc.regs[i].join(st.regs[i]);
                        }
                        for (c, v) in acc.mem.iter_mut().zip(&st.mem) {
                            *c = c.join(*v);
                        }
                        acc
                    }
                });
            }
            let pre = match pre {
                Some(p) => p,
                None => continue,
            };

            let ivs = induction_vars(prog, cfg, f, li);
            let mut trip: Option<u64> = None;
            let mut zero_exit_counter: Option<u8> = None;

            // Exit branches: a conditional whose two edges split
            // inside/outside the body.
            for &b in &l.body {
                let blk = &cfg.blocks[b];
                let (s, t, taken_out, fall_out) = match prog[blk.end] {
                    Instr::Beq(s, t, _)
                    | Instr::Bne(s, t, _)
                    | Instr::Blt(s, t, _)
                    | Instr::Bge(s, t, _) => (
                        s,
                        t,
                        !l.body.contains(&blk.succs[0]),
                        !l.body.contains(&blk.succs[1]),
                    ),
                    _ => continue,
                };
                if taken_out == fall_out {
                    continue; // not a loop exit, or both edges leave
                }
                for iv in &ivs {
                    let v = Reg(iv.reg);
                    // Exit when the counter reaches zero, stepping by -1
                    // from a nonnegative start: at most pre.hi + 1
                    // iterations, and v ∈ [0, pre.hi] at the head.
                    let exits_on_eq_zero = match prog[blk.end] {
                        Instr::Beq(..) => {
                            taken_out && ((s == v && t.0 == 0) || (t == v && s.0 == 0))
                        }
                        Instr::Bne(..) => {
                            fall_out && ((s == v && t.0 == 0) || (t == v && s.0 == 0))
                        }
                        _ => false,
                    };
                    if exits_on_eq_zero && iv.step == -1 {
                        let p = pre.get(v).iv;
                        if p.lo >= 0 && p.hi < HI {
                            let t_bound = p.hi as u64 + 1;
                            trip = Some(trip.map_or(t_bound, |c: u64| c.min(t_bound)));
                            zero_exit_counter = Some(iv.reg);
                        }
                    }
                    // Exit when the counter climbs to a constant bound,
                    // stepping by +d: at most ceil((B - lo)/d) + 1.
                    let up_bound = match prog[blk.end] {
                        Instr::Bge(a, bnd, _) if taken_out && a == v => Some(bnd),
                        Instr::Blt(a, bnd, _) if fall_out && a == v => Some(bnd),
                        _ => None,
                    };
                    if let Some(bnd) = up_bound {
                        if iv.step >= 1 {
                            let b_val = pre.get(bnd).iv.singleton();
                            let p = pre.get(v).iv;
                            if let Some(bv) = b_val {
                                if p.lo > -(HI) && bv > p.lo {
                                    let span = (bv - p.lo) as u64;
                                    let t_bound = span.div_ceil(iv.step as u64) + 1;
                                    trip = Some(trip.map_or(t_bound, |c: u64| c.min(t_bound)));
                                }
                            }
                        }
                    }
                }
            }

            if let Some(t_bound) = trip {
                facts.trip.insert(l.head, t_bound);
                // Clamp every block of the loop, not just the head. With
                // `T` bounding head visits, the step has run at most
                // `T-1` times at any head visit or body-block entry —
                // except at entry to the step's own block, where this
                // pass's increment has not happened yet, so at most
                // `T-2`. That last sharpening is what keeps a ring-fill
                // store (`sw` in the same block as the `addi`) inside
                // the ring instead of one word past it.
                for iv in &ivs {
                    let p = pre.get(Reg(iv.reg)).iv;
                    for &b in &l.body {
                        let k = if b == iv.def_block && b != l.head {
                            t_bound.saturating_sub(2)
                        } else {
                            t_bound.saturating_sub(1)
                        } as i64;
                        let (mut lo, mut hi) = (
                            p.lo + 0i64.min(iv.step.saturating_mul(k)),
                            p.hi + 0i64.max(iv.step.saturating_mul(k)),
                        );
                        if zero_exit_counter == Some(iv.reg) {
                            // The counter cannot skip zero on its way
                            // down, and never re-exceeds its start.
                            lo = lo.max(0);
                            hi = hi.min(p.hi);
                        }
                        facts
                            .clamps
                            .entry(b)
                            .or_default()
                            .push((iv.reg, Interval::new(lo, hi)));
                    }
                }
            }
        }
    }
    facts
}

/// Saturating cost: a cycle count or "unbounded".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum D {
    Fin(u64),
    Inf,
}

impl D {
    fn add(self, o: D) -> D {
        match (self, o) {
            (D::Fin(a), D::Fin(b)) => D::Fin(a.saturating_add(b)),
            _ => D::Inf,
        }
    }

    fn max(self, o: D) -> D {
        match (self, o) {
            (D::Fin(a), D::Fin(b)) => D::Fin(a.max(b)),
            _ => D::Inf,
        }
    }

    fn finite(self) -> Option<u64> {
        match self {
            D::Fin(a) => Some(a),
            D::Inf => None,
        }
    }
}

/// One loop's line in the report.
#[derive(Debug, Clone)]
pub struct LoopReport {
    /// First pc of the head block.
    pub head_pc: usize,
    /// Slack-inclusive trip bound, if one was derived.
    pub trip: Option<u64>,
    /// Worst cycles for one traversal of the body (inner loops folded
    /// in); `None` when a nested unbounded loop makes even one
    /// iteration unbounded.
    pub iter_cycles: Option<u64>,
    /// Worst cycles for the whole loop, `(trip + 1) · iter`.
    pub total_cycles: Option<u64>,
}

/// The whole-program cycle verdict.
#[derive(Debug, Clone)]
pub struct WcetReport {
    /// Whole-program worst case; `None` when an unbounded loop is on
    /// the path (a reactive program that never terminates).
    pub program: Option<u64>,
    /// Worst per-iteration cost across the unbounded (reactive) loops —
    /// the steady-state bound an embedded monitor is certified against.
    pub steady: Option<u64>,
    /// Whether every loop has a finite per-iteration bound (no nested
    /// unbounded loops). This is the "finite WCET" certification gate.
    pub ok: bool,
    /// Per-loop detail, callees included.
    pub loops: Vec<LoopReport>,
}

/// Longest-path distances from `start` over a DAG given as an edge
/// list; distances include the node costs of both endpoints. Any cycle
/// remnant (impossible on a reducible CFG, kept as a safety net) makes
/// the affected nodes unbounded.
fn longest_paths(
    nodes: &BTreeSet<BlockId>,
    edges: &[(BlockId, BlockId)],
    start: BlockId,
    node_cost: &BTreeMap<BlockId, D>,
) -> BTreeMap<BlockId, D> {
    let cost = |b: BlockId| node_cost.get(&b).copied().unwrap_or(D::Fin(0));
    let mut indeg: BTreeMap<BlockId, usize> = nodes.iter().map(|&n| (n, 0)).collect();
    for &(_, v) in edges {
        *indeg.entry(v).or_default() += 1;
    }
    let mut order: Vec<BlockId> = Vec::new();
    let mut queue: Vec<BlockId> = indeg
        .iter()
        .filter(|&(_, &d)| d == 0)
        .map(|(&n, _)| n)
        .collect();
    while let Some(n) = queue.pop() {
        order.push(n);
        for &(u, v) in edges {
            if u == n {
                let d = indeg.entry(v).or_default();
                *d -= 1;
                if *d == 0 {
                    queue.push(v);
                }
            }
        }
    }
    let mut dist: BTreeMap<BlockId, D> = BTreeMap::new();
    dist.insert(start, cost(start));
    for &u in &order {
        let du = match dist.get(&u) {
            Some(&d) => d,
            None => continue,
        };
        for &(eu, ev) in edges {
            if eu == u {
                let cand = du.add(cost(ev));
                let cur = dist.get(&ev).copied().unwrap_or(D::Fin(0));
                dist.insert(ev, cur.max(cand));
            }
        }
    }
    // Safety net: anything Kahn never released sits on a cycle.
    for &n in nodes {
        if order.iter().all(|&o| o != n) {
            dist.insert(n, D::Inf);
        }
    }
    dist
}

fn find(repr: &BTreeMap<BlockId, BlockId>, mut b: BlockId) -> BlockId {
    while let Some(&p) = repr.get(&b) {
        if p == b {
            return b;
        }
        b = p;
    }
    b
}

/// WCET of one function, collapsing loops innermost-first. Appends a
/// [`LoopReport`] per loop and returns the function's own bound (from
/// its entry, calls folded via `callee_totals`).
fn func_wcet(
    prog: &[Instr],
    cfg: &Cfg,
    f: &Func,
    facts: &LoopFacts,
    cost: &CpuCost,
    callee_totals: &BTreeMap<usize, D>,
    loops_out: &mut Vec<LoopReport>,
) -> D {
    let mut node_cost: BTreeMap<BlockId, D> = BTreeMap::new();
    for &b in &f.blocks {
        let blk = &cfg.blocks[b];
        let mut c = D::Fin(0);
        for ins in prog.iter().take(blk.end + 1).skip(blk.start) {
            c = c.add(D::Fin(cost.worst(ins)));
        }
        if let Some(callee) = blk.call {
            c = c.add(callee_totals.get(&callee).copied().unwrap_or(D::Inf));
        }
        node_cost.insert(b, c);
    }
    let mut repr: BTreeMap<BlockId, BlockId> = f.blocks.iter().map(|&b| (b, b)).collect();

    // f.loops is outermost-first (descending body size); collapse from
    // the innermost end.
    for l in f.loops.iter().rev() {
        let head_r = find(&repr, l.head);
        let members: BTreeSet<BlockId> = l.body.iter().map(|&b| find(&repr, b)).collect();
        let mut edges: Vec<(BlockId, BlockId)> = Vec::new();
        for &u in &l.body {
            if find(&repr, u) != u {
                continue; // interior of an already-collapsed inner loop
            }
            for &v in &cfg.blocks[u].succs {
                if !l.body.contains(&v) {
                    continue;
                }
                let (ur, vr) = (find(&repr, u), find(&repr, v));
                if ur != vr && vr != head_r {
                    edges.push((ur, vr));
                }
            }
        }
        let dist = longest_paths(&members, &edges, head_r, &node_cost);
        let iter = dist.values().copied().fold(D::Fin(0), D::max);
        let trip = facts.trip.get(&l.head).copied();
        let total = match (trip, iter) {
            (Some(t), D::Fin(i)) => D::Fin(t.saturating_add(1).saturating_mul(i)),
            _ => D::Inf,
        };
        loops_out.push(LoopReport {
            head_pc: cfg.blocks[l.head].start,
            trip,
            iter_cycles: iter.finite(),
            total_cycles: total.finite(),
        });
        for &m in &members {
            repr.insert(m, head_r);
        }
        repr.insert(head_r, head_r);
        node_cost.insert(head_r, total);
    }

    // The function-level DAG over collapsed representatives.
    let members: BTreeSet<BlockId> = f.blocks.iter().map(|&b| find(&repr, b)).collect();
    let fset: BTreeSet<BlockId> = f.blocks.iter().copied().collect();
    let mut edges: Vec<(BlockId, BlockId)> = Vec::new();
    for &u in &f.blocks {
        for &v in &cfg.blocks[u].succs {
            if !fset.contains(&v) {
                continue;
            }
            let (ur, vr) = (find(&repr, u), find(&repr, v));
            if ur != vr {
                edges.push((ur, vr));
            }
        }
    }
    let start = find(&repr, f.entry);
    let dist = longest_paths(&members, &edges, start, &node_cost);
    dist.values().copied().fold(D::Fin(0), D::max)
}

/// The whole-program worst-case cycle bound: callees first (they
/// contain no further calls), then the entry function with call blocks
/// charged their callee's bound.
pub fn wcet(prog: &[Instr], cfg: &Cfg, facts: &LoopFacts, cost: &CpuCost) -> WcetReport {
    let mut loops = Vec::new();
    let mut callee_totals: BTreeMap<usize, D> = BTreeMap::new();
    for fid in 1..cfg.funcs.len() {
        let total = func_wcet(
            prog,
            cfg,
            &cfg.funcs[fid],
            facts,
            cost,
            &BTreeMap::new(),
            &mut loops,
        );
        callee_totals.insert(fid, total);
    }
    let program = if cfg.funcs.is_empty() {
        D::Fin(0)
    } else {
        func_wcet(
            prog,
            cfg,
            &cfg.funcs[0],
            facts,
            cost,
            &callee_totals,
            &mut loops,
        )
    };
    let ok = loops.iter().all(|l| l.iter_cycles.is_some());
    let steady = loops
        .iter()
        .filter(|l| l.trip.is_none())
        .filter_map(|l| l.iter_cycles)
        .max();
    WcetReport {
        program: program.finite(),
        steady,
        ok,
        loops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap as Map;
    use zarf_imperative::builder::Asm;
    use zarf_imperative::cpu::R0;

    fn r(n: u8) -> Reg {
        Reg(n)
    }

    fn counted_loop(n: i32) -> Vec<Instr> {
        let mut a = Asm::new();
        a.addi(r(1), R0, n); // 0
        a.label("top");
        a.beq(r(1), R0, "done"); // 1
        a.addi(r(1), r(1), -1); // 2
        a.jmp("top"); // 3
        a.label("done");
        a.halt(); // 4
        a.assemble().unwrap()
    }

    #[test]
    fn down_counter_gets_trip_and_clamp() {
        let prog = counted_loop(10);
        let cfg = Cfg::build(&prog).unwrap();
        let fp = super::super::domain::analyze(&prog, &cfg, 0, &Map::new()).unwrap();
        let facts = derive_facts(&prog, &cfg, &fp);
        let head = cfg.block_of[1];
        assert_eq!(facts.trip.get(&head), Some(&11)); // 10 + 1 slack
        let clamps = &facts.clamps[&head];
        let (reg, iv) = clamps[0];
        assert_eq!(reg, 1);
        assert_eq!(iv, Interval::new(0, 10));
    }

    #[test]
    fn wcet_of_counted_loop_is_finite_and_dominates() {
        let prog = counted_loop(10);
        let cfg = Cfg::build(&prog).unwrap();
        let fp = super::super::domain::analyze(&prog, &cfg, 0, &Map::new()).unwrap();
        let facts = derive_facts(&prog, &cfg, &fp);
        let report = wcet(&prog, &cfg, &facts, &CpuCost::default());
        assert!(report.ok);
        let bound = report.program.unwrap();
        // Concrete run: must come in under the static bound.
        let mut cpu = zarf_imperative::Cpu::new(prog, 0);
        cpu.run(&mut zarf_core::io::NullPorts, 1000).unwrap();
        assert!(
            cpu.cycles() <= bound,
            "observed {} > bound {}",
            cpu.cycles(),
            bound
        );
    }

    #[test]
    fn unbounded_loop_keeps_finite_iteration() {
        // A reactive drain loop: in; out; jmp — no trip bound, but the
        // per-iteration cost is finite.
        let prog = vec![Instr::In(r(1), 0), Instr::Out(r(1), 1), Instr::Jmp(0)];
        let cfg = Cfg::build(&prog).unwrap();
        let fp = super::super::domain::analyze(&prog, &cfg, 0, &Map::new()).unwrap();
        let facts = derive_facts(&prog, &cfg, &fp);
        let report = wcet(&prog, &cfg, &facts, &CpuCost::default());
        assert_eq!(report.program, None);
        assert!(report.ok);
        let steady = report.steady.unwrap();
        assert_eq!(steady, 2 + 2 + 3); // in + out + taken jmp
    }

    #[test]
    fn up_counter_gets_trip() {
        let mut a = Asm::new();
        a.addi(r(2), R0, 8); // bound
        a.label("top");
        a.bge(r(1), r(2), "done");
        a.addi(r(1), r(1), 1);
        a.jmp("top");
        a.label("done");
        a.halt();
        let prog = a.assemble().unwrap();
        let cfg = Cfg::build(&prog).unwrap();
        let fp = super::super::domain::analyze(&prog, &cfg, 0, &Map::new()).unwrap();
        let facts = derive_facts(&prog, &cfg, &fp);
        let head = cfg.block_of[1];
        assert_eq!(facts.trip.get(&head), Some(&9)); // (8-0)/1 + 1
    }

    #[test]
    fn callee_cost_folds_into_caller() {
        let mut a = Asm::new();
        a.jal("f"); // 3 cycles
        a.halt(); // 1
        a.label("f");
        a.mul(r(1), r(1), r(1)); // 3
        a.jr(Reg(15)); // 3
        let prog = a.assemble().unwrap();
        let cfg = Cfg::build(&prog).unwrap();
        let fp = super::super::domain::analyze(&prog, &cfg, 0, &Map::new()).unwrap();
        let facts = derive_facts(&prog, &cfg, &fp);
        let report = wcet(&prog, &cfg, &facts, &CpuCost::default());
        assert_eq!(report.program, Some(3 + (3 + 3) + 1));
    }
}
