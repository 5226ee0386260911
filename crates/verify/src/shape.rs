//! Interprocedural shape and arity analysis — fault-freedom certificates.
//!
//! A client of the [`crate::absint`] engine that computes, for every
//! function of a machine program, which *shapes* of value can reach each
//! expression: integer constant sets, constructor tag sets, and closure
//! sets of `(target, applied-count)` pairs. From the fixpoint it derives
//!
//! * **case-fault freedom** — no `case` scrutinee can be a closure
//!   (machine error `CaseOnClosure`, code 4);
//! * **arity-fault freedom** — no application can hit an integer, a
//!   saturated constructor, or over-apply a constructor (`ApplyToInt`,
//!   `ApplyToCon`, `ConOverApplied`; codes 2, 3, 5);
//! * **unreachable-arm detection** — a `case` arm whose pattern no
//!   reaching value can match (the branch is dead weight the hardware
//!   still scans).
//!
//! The abstraction mirrors the hardware exactly ([`zarf_hw`]'s
//! `case_dispatch` / `Cont::Apply`): λ-level faults are *error values*
//! (tag-0 constructors), so a may-fault is tracked as an `error` flag that
//! propagates through applications and pops out of `case` like the real
//! machine's error values do. Constructor fields are summarized
//! flow-insensitively per `(constructor, field)` cell, which keeps the
//! summaries small while staying precise enough to certify the shipped
//! kernel. Functions whose closures escape (referenced as values, or
//! partially applied) are seeded with ⊤ arguments — the sound default for
//! targets reachable through tracked or untracked closures.
//!
//! Two entry models bound what the environment may do
//! ([`EntryModel::Standalone`] runs `main`; [`EntryModel::Service`] is the
//! fleet's contract: any function item applied to exactly its arity, the
//! first argument being the previous step result or an integer, all other
//! arguments integers).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use zarf_core::machine::{MExpr, MItem, MPattern, MProgram, Operand, Source};
use zarf_core::prim::{PrimOp, FIRST_USER_INDEX};
use zarf_core::Int;

use crate::absint::{AbsIntError, Analysis, Engine, Lattice, NodeId, View};

/// Integer-constant sets larger than this widen to `Any`.
const INT_CAP: usize = 8;
/// Constructor-tag sets larger than this widen to `Any`.
const TAG_CAP: usize = 16;
/// Closure sets larger than this widen to `Any`.
const CLOS_CAP: usize = 16;
/// Constant-folding gives up past this many argument combinations.
const FOLD_LIMIT: usize = 64;

/// Abstract integers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Ints {
    /// No integer reaches here.
    Bot,
    /// One of a small set of known constants.
    Consts(BTreeSet<Int>),
    /// Any integer.
    Any,
}

/// Abstract constructor tags (saturated constructor values).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tags {
    /// No constructor value reaches here.
    Bot,
    /// One of a known set of constructor identifiers.
    Known(BTreeSet<u32>),
    /// Any constructor.
    Any,
}

/// Abstract closures: partial applications of known targets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Clos {
    /// No closure reaches here.
    Bot,
    /// One of a known set of `(target, applied-count)` pairs. Targets are
    /// global identifiers (primitives, functions, or constructors).
    Known(BTreeSet<(u32, u16)>),
    /// Some closure with unknown target.
    Any,
}

/// One abstract value: the product of the three shape components plus a
/// may-be-a-runtime-error flag (error values are tag-0 constructors the
/// machine threads specially, so they get their own component).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbsVal {
    /// Integer component.
    pub ints: Ints,
    /// Saturated-constructor component.
    pub cons: Tags,
    /// Closure component.
    pub clos: Clos,
    /// May be a λ-level error value.
    pub error: bool,
}

impl AbsVal {
    /// The bottom value: nothing reaches here.
    pub fn bot() -> Self {
        AbsVal {
            ints: Ints::Bot,
            cons: Tags::Bot,
            clos: Clos::Bot,
            error: false,
        }
    }

    /// The top value: anything may reach here.
    pub fn top() -> Self {
        AbsVal {
            ints: Ints::Any,
            cons: Tags::Any,
            clos: Clos::Any,
            error: true,
        }
    }

    /// Exactly the integer `n`.
    pub fn int_const(n: Int) -> Self {
        AbsVal {
            ints: Ints::Consts([n].into_iter().collect()),
            ..AbsVal::bot()
        }
    }

    /// Any integer.
    pub fn any_int() -> Self {
        AbsVal {
            ints: Ints::Any,
            ..AbsVal::bot()
        }
    }

    /// A saturated constructor with tag `id`.
    pub fn con(id: u32) -> Self {
        AbsVal {
            cons: Tags::Known([id].into_iter().collect()),
            ..AbsVal::bot()
        }
    }

    /// A closure: `target` with `applied` arguments already attached.
    pub fn closure(target: u32, applied: usize) -> Self {
        AbsVal {
            clos: Clos::Known(
                [(target, applied.min(u16::MAX as usize) as u16)]
                    .into_iter()
                    .collect(),
            ),
            ..AbsVal::bot()
        }
    }

    /// A may-be-error-only value.
    pub fn error_only() -> Self {
        AbsVal {
            error: true,
            ..AbsVal::bot()
        }
    }

    /// Whether nothing at all reaches here.
    pub fn is_bot(&self) -> bool {
        self.ints == Ints::Bot && self.cons == Tags::Bot && self.clos == Clos::Bot && !self.error
    }

    /// Whether an integer may reach here.
    pub fn may_be_int(&self) -> bool {
        self.ints != Ints::Bot
    }

    /// Whether a saturated constructor may reach here.
    pub fn may_be_con(&self) -> bool {
        self.cons != Tags::Bot
    }

    /// Whether a closure may reach here.
    pub fn may_be_closure(&self) -> bool {
        self.clos != Clos::Bot
    }

    /// Whether the integer `n` is covered.
    pub fn covers_int(&self, n: Int) -> bool {
        match &self.ints {
            Ints::Bot => false,
            Ints::Consts(s) => s.contains(&n),
            Ints::Any => true,
        }
    }

    /// Whether constructor tag `id` is covered.
    pub fn covers_tag(&self, id: u32) -> bool {
        match &self.cons {
            Tags::Bot => false,
            Tags::Known(s) => s.contains(&id),
            Tags::Any => true,
        }
    }

    /// Join `other` into `self`; report change.
    pub fn join(&mut self, other: &AbsVal) -> bool {
        let mut changed = false;
        self.ints = match (std::mem::replace(&mut self.ints, Ints::Bot), &other.ints) {
            (a, Ints::Bot) => a,
            (Ints::Any, _) => Ints::Any,
            (Ints::Bot, b) => {
                changed = true;
                b.clone()
            }
            (Ints::Consts(mut a), Ints::Consts(b)) => {
                for &n in b {
                    changed |= a.insert(n);
                }
                if a.len() > INT_CAP {
                    Ints::Any
                } else {
                    Ints::Consts(a)
                }
            }
            (Ints::Consts(_), Ints::Any) => {
                changed = true;
                Ints::Any
            }
        };
        self.cons = match (std::mem::replace(&mut self.cons, Tags::Bot), &other.cons) {
            (a, Tags::Bot) => a,
            (Tags::Any, _) => Tags::Any,
            (Tags::Bot, b) => {
                changed = true;
                b.clone()
            }
            (Tags::Known(mut a), Tags::Known(b)) => {
                for &t in b {
                    changed |= a.insert(t);
                }
                if a.len() > TAG_CAP {
                    Tags::Any
                } else {
                    Tags::Known(a)
                }
            }
            (Tags::Known(_), Tags::Any) => {
                changed = true;
                Tags::Any
            }
        };
        self.clos = match (std::mem::replace(&mut self.clos, Clos::Bot), &other.clos) {
            (a, Clos::Bot) => a,
            (Clos::Any, _) => Clos::Any,
            (Clos::Bot, b) => {
                changed = true;
                b.clone()
            }
            (Clos::Known(mut a), Clos::Known(b)) => {
                for &t in b {
                    changed |= a.insert(t);
                }
                if a.len() > CLOS_CAP {
                    Clos::Any
                } else {
                    Clos::Known(a)
                }
            }
            (Clos::Known(_), Clos::Any) => {
                changed = true;
                Clos::Any
            }
        };
        if other.error && !self.error {
            self.error = true;
            changed = true;
        }
        changed
    }
}

impl fmt::Display for AbsVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_bot() {
            return write!(f, "⊥");
        }
        let mut parts: Vec<String> = Vec::new();
        match &self.ints {
            Ints::Bot => {}
            Ints::Consts(s) => {
                let ns: Vec<String> = s.iter().map(|n| n.to_string()).collect();
                parts.push(format!("int{{{}}}", ns.join(",")));
            }
            Ints::Any => parts.push("int".into()),
        }
        match &self.cons {
            Tags::Bot => {}
            Tags::Known(s) => {
                let ts: Vec<String> = s.iter().map(|t| format!("{t:#x}")).collect();
                parts.push(format!("con{{{}}}", ts.join(",")));
            }
            Tags::Any => parts.push("con".into()),
        }
        match &self.clos {
            Clos::Bot => {}
            Clos::Known(s) => parts.push(format!("clos[{}]", s.len())),
            Clos::Any => parts.push("clos".into()),
        }
        if self.error {
            parts.push("err".into());
        }
        write!(f, "{}", parts.join("|"))
    }
}

/// Per-function summary: argument shapes joined over every call site and
/// the shape of the function's result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunSummary {
    /// One abstract value per parameter.
    pub args: Vec<AbsVal>,
    /// The result shape.
    pub ret: AbsVal,
}

impl FunSummary {
    fn bot(arity: usize) -> Self {
        FunSummary {
            args: vec![AbsVal::bot(); arity],
            ret: AbsVal::bot(),
        }
    }
}

/// The engine value: a function summary or a constructor-field cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShapeVal {
    /// Summary of a function node.
    Fun(FunSummary),
    /// Flow-insensitive summary of one constructor field.
    Cell(AbsVal),
}

impl Lattice for ShapeVal {
    fn join_from(&mut self, other: &Self) -> bool {
        match (self, other) {
            (ShapeVal::Fun(a), ShapeVal::Fun(b)) => {
                let mut changed = false;
                for (i, bv) in b.args.iter().enumerate() {
                    match a.args.get_mut(i) {
                        Some(av) => changed |= av.join(bv),
                        None => {
                            a.args.push(bv.clone());
                            changed = true;
                        }
                    }
                }
                changed |= a.ret.join(&b.ret);
                changed
            }
            (ShapeVal::Cell(a), ShapeVal::Cell(b)) => a.join(b),
            // Disjoint node spaces make this unreachable; widen defensively.
            (me, _) => me.widen(),
        }
    }

    fn widen(&mut self) -> bool {
        match self {
            ShapeVal::Fun(s) => {
                let mut changed = false;
                for a in &mut s.args {
                    if *a != AbsVal::top() {
                        *a = AbsVal::top();
                        changed = true;
                    }
                }
                if s.ret != AbsVal::top() {
                    s.ret = AbsVal::top();
                    changed = true;
                }
                changed
            }
            ShapeVal::Cell(v) => {
                if *v != AbsVal::top() {
                    *v = AbsVal::top();
                    true
                } else {
                    false
                }
            }
        }
    }
}

/// How the environment may enter the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryModel {
    /// Only `main` runs, with no arguments (the `zarf run` contract).
    Standalone,
    /// Any function item may be applied to exactly its arity — the fleet's
    /// verified-op contract: argument 0 is an integer or any previous step
    /// result, every other argument is an integer.
    Service,
}

impl fmt::Display for EntryModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EntryModel::Standalone => write!(f, "standalone"),
            EntryModel::Service => write!(f, "service"),
        }
    }
}

/// A λ-level machine fault class the analysis tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Fault {
    /// Division or modulo by zero (code 1).
    DivideByZero,
    /// Application of an integer value (code 2) — arity certificate.
    ApplyToInt,
    /// Application of a saturated constructor (code 3) — arity certificate.
    ApplyToCon,
    /// `case` on a closure (code 4) — case certificate.
    CaseOnClosure,
    /// Constructor applied past its arity (code 5) — arity certificate.
    ConOverApplied,
    /// Primitive operand not an integer (code 7).
    PrimOnNonInt,
}

impl Fault {
    /// The machine error code this fault surfaces as.
    pub fn code(self) -> i32 {
        match self {
            Fault::DivideByZero => 1,
            Fault::ApplyToInt => 2,
            Fault::ApplyToCon => 3,
            Fault::CaseOnClosure => 4,
            Fault::ConOverApplied => 5,
            Fault::PrimOnNonInt => 7,
        }
    }

    /// Whether this fault class is covered by the case-fault certificate.
    pub fn is_case_fault(self) -> bool {
        matches!(self, Fault::CaseOnClosure)
    }

    /// Whether this fault class is covered by the arity-fault certificate.
    pub fn is_arity_fault(self) -> bool {
        matches!(
            self,
            Fault::ApplyToInt | Fault::ApplyToCon | Fault::ConOverApplied
        )
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Fault::DivideByZero => "divide-by-zero",
            Fault::ApplyToInt => "apply-to-int",
            Fault::ApplyToCon => "apply-to-con",
            Fault::CaseOnClosure => "case-on-closure",
            Fault::ConOverApplied => "con-over-applied",
            Fault::PrimOnNonInt => "prim-on-non-int",
        };
        write!(f, "{s}")
    }
}

/// A `case` arm no reaching value can match.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnreachableArm {
    /// Function containing the case.
    pub function: u32,
    /// Pre-order index of the case within the function.
    pub case_index: usize,
    /// Arm position within the case.
    pub arm_index: usize,
    /// The unmatched pattern.
    pub pattern: MPattern,
}

/// Analysis result for one function.
#[derive(Debug, Clone)]
pub struct FunShape {
    /// Retained symbol, if the binary carried one.
    pub name: Option<String>,
    /// Fault classes that may occur in this function's body.
    pub faults: BTreeSet<Fault>,
    /// The function's final summary.
    pub summary: FunSummary,
}

/// The complete shape/arity report.
#[derive(Debug, Clone)]
pub struct ShapeReport {
    /// The entry model the program was analyzed under.
    pub model: EntryModel,
    /// Per-function results, for every analyzed function.
    pub functions: BTreeMap<u32, FunShape>,
    /// Arms no reaching value can match.
    pub unreachable_arms: Vec<UnreachableArm>,
    /// Flow-insensitive per-`(constructor, field)` shape cells: everything
    /// the fixpoint saw stored into each constructor field. The symbolic
    /// executor instantiates nested entry shapes from these.
    pub cells: BTreeMap<(u32, usize), AbsVal>,
    /// Deduplicated internal call-site argument vectors per callee: the
    /// abstract arguments of every *saturated, direct* call from an
    /// analyzed body. Together with the entry model's own contribution
    /// these decompose a function's joined argument summary back into the
    /// relational per-site vectors the fixpoint blurred together — the
    /// symbolic executor's envelope instantiates each family separately
    /// instead of crossing the join (which manufactures argument
    /// combinations no caller ever produces).
    pub call_sites: BTreeMap<u32, Vec<Vec<AbsVal>>>,
    /// Items whose closures may escape tracking (referenced as values or
    /// partially applied). Their summaries are ⊤-seeded and their call
    /// sites are not fully enumerable, so the per-site decomposition
    /// above is *not* exhaustive for them.
    pub addr_taken: BTreeSet<u32>,
    /// Fixpoint iterations performed.
    pub iterations: u64,
    /// The engine's enforced iteration bound.
    pub iteration_bound: u64,
}

impl ShapeReport {
    /// All `(function, fault)` pairs, ascending.
    pub fn faults(&self) -> impl Iterator<Item = (u32, Fault)> + '_ {
        self.functions
            .iter()
            .flat_map(|(&id, f)| f.faults.iter().map(move |&x| (id, x)))
    }

    /// Whether no analyzed function can raise `CaseOnClosure`.
    pub fn case_fault_free(&self) -> bool {
        !self.faults().any(|(_, f)| f.is_case_fault())
    }

    /// Whether no analyzed function can raise an arity fault
    /// (`ApplyToInt`, `ApplyToCon`, `ConOverApplied`).
    pub fn arity_fault_free(&self) -> bool {
        !self.faults().any(|(_, f)| f.is_arity_fault())
    }

    /// The service entry's step-feedback state: any integer joined with
    /// every analyzed function's return. Mirrors exactly what the service
    /// fixpoint node threads into argument 0 of each op, so envelope
    /// construction can reproduce the environment's contribution to a
    /// function's argument summary without re-running the fixpoint.
    pub fn service_state(&self) -> AbsVal {
        let mut state = AbsVal::any_int();
        for f in self.functions.values() {
            state.join(&f.summary.ret);
        }
        state
    }
}

// Node numbering: function identifiers used directly; constructor-field
// cells and the service entry node live in disjoint high ranges.
const CELL_BASE: NodeId = 1 << 40;
const SERVICE_NODE: NodeId = 1 << 41;

fn fun_node(id: u32) -> NodeId {
    id as NodeId
}

fn cell_node(con: u32, field: usize) -> NodeId {
    CELL_BASE + ((con as NodeId) << 16) + (field as NodeId & 0xFFFF)
}

/// The shape analysis, parameterized by program and entry model.
pub struct ShapeAnalysis<'m> {
    program: &'m MProgram,
    model: EntryModel,
    /// Function items whose bodies are analyzed.
    analyzed: BTreeSet<u32>,
    /// Items (arity ≥ 1) whose closures may escape tracking: referenced as
    /// values or partially applied. Their argument/field summaries are ⊤.
    addr_taken: BTreeSet<u32>,
}

impl<'m> ShapeAnalysis<'m> {
    /// Set up the analysis over `program` under `model`.
    pub fn new(program: &'m MProgram, model: EntryModel) -> Self {
        let mut addr_taken = BTreeSet::new();
        let arity_of = |id: u32| program.lookup(id).map(|it| it.arity);
        for item in program.items() {
            let body = match item.body() {
                Some(b) => b,
                None => continue,
            };
            body.walk(&mut |e| {
                let mut escape = |op: &Operand| {
                    if op.source == Source::Global {
                        let id = op.index as u32;
                        if id >= FIRST_USER_INDEX && arity_of(id).unwrap_or(0) >= 1 {
                            addr_taken.insert(id);
                        }
                    }
                };
                match e {
                    MExpr::Let { callee, args, .. } => {
                        for a in args {
                            escape(a);
                        }
                        // A partial application's closure escapes too.
                        if callee.source == Source::Global {
                            let id = callee.index as u32;
                            if id >= FIRST_USER_INDEX {
                                if let Some(a) = arity_of(id) {
                                    if args.len() < a {
                                        addr_taken.insert(id);
                                    }
                                }
                            }
                        }
                    }
                    MExpr::Case { scrutinee, .. } => escape(scrutinee),
                    MExpr::Result(op) => escape(op),
                }
            });
        }

        let analyzed = match model {
            EntryModel::Service => program
                .items()
                .iter()
                .enumerate()
                .filter(|(_, it)| !it.is_con())
                .map(|(i, _)| program.id_of(i))
                .collect(),
            EntryModel::Standalone => {
                // Everything transitively referenced from `main`, as a
                // callee or as an escaping value.
                let mut seen: BTreeSet<u32> = BTreeSet::new();
                let mut stack = vec![FIRST_USER_INDEX];
                while let Some(id) = stack.pop() {
                    if !seen.insert(id) {
                        continue;
                    }
                    let body = match program.lookup(id).and_then(|it| it.body()) {
                        Some(b) => b,
                        None => continue,
                    };
                    body.walk(&mut |e| {
                        let mut reference = |op: &Operand| {
                            if op.source == Source::Global {
                                let t = op.index as u32;
                                if t >= FIRST_USER_INDEX && !seen.contains(&t) {
                                    stack.push(t);
                                }
                            }
                        };
                        match e {
                            MExpr::Let { callee, args, .. } => {
                                reference(callee);
                                for a in args {
                                    reference(a);
                                }
                            }
                            MExpr::Case { scrutinee, .. } => reference(scrutinee),
                            MExpr::Result(op) => reference(op),
                        }
                    });
                }
                seen.into_iter()
                    .filter(|&id| program.lookup(id).is_some_and(|it| !it.is_con()))
                    .collect()
            }
        };

        ShapeAnalysis {
            program,
            model,
            analyzed,
            addr_taken,
        }
    }

    /// The function identifiers this analysis covers.
    pub fn analyzed(&self) -> &BTreeSet<u32> {
        &self.analyzed
    }

    fn arity(&self, id: u32) -> usize {
        self.program.lookup(id).map(|it| it.arity).unwrap_or(0)
    }
}

impl Analysis for ShapeAnalysis<'_> {
    type Value = ShapeVal;

    fn seeds(&self) -> Vec<(NodeId, ShapeVal)> {
        let mut seeds = Vec::new();
        for &id in &self.analyzed {
            let arity = self.arity(id);
            let mut s = FunSummary::bot(arity);
            if self.model == EntryModel::Service {
                // Ops pass integers; argument 0 additionally receives step
                // results (joined in by the service node below).
                for a in &mut s.args {
                    a.join(&AbsVal::any_int());
                }
            }
            if self.addr_taken.contains(&id) {
                for a in &mut s.args {
                    *a = AbsVal::top();
                }
            }
            seeds.push((fun_node(id), ShapeVal::Fun(s)));
        }
        // Escaping constructors may be completed by untracked closures:
        // their field cells start at ⊤.
        for &id in &self.addr_taken {
            if let Some(item) = self.program.lookup(id) {
                if item.is_con() {
                    for i in 0..item.arity {
                        seeds.push((cell_node(id, i), ShapeVal::Cell(AbsVal::top())));
                    }
                }
            }
        }
        if self.model == EntryModel::Service {
            seeds.push((SERVICE_NODE, ShapeVal::Cell(AbsVal::bot())));
        }
        seeds
    }

    fn transfer(&self, node: NodeId, view: &View<'_, ShapeVal>) -> Vec<(NodeId, ShapeVal)> {
        if node == SERVICE_NODE {
            // The fleet's step protocol threads any previous result back in
            // as argument 0 of the next op.
            let mut state = AbsVal::any_int();
            for &id in &self.analyzed {
                if let Some(ShapeVal::Fun(s)) = view.get(fun_node(id)) {
                    state.join(&s.ret);
                }
            }
            let mut props = Vec::new();
            for &id in &self.analyzed {
                let arity = self.arity(id);
                if arity >= 1 {
                    let mut s = FunSummary::bot(arity);
                    s.args[0] = state.clone();
                    props.push((fun_node(id), ShapeVal::Fun(s)));
                }
            }
            return props;
        }
        let id = node as u32;
        if node >= CELL_BASE || !self.analyzed.contains(&id) {
            return Vec::new();
        }
        let item = match self.program.lookup(id) {
            Some(it) => it,
            None => return Vec::new(),
        };
        let args = match view.get(node) {
            Some(ShapeVal::Fun(s)) => s.args.clone(),
            _ => vec![AbsVal::bot(); item.arity],
        };
        let mut w = Walker::new(self, view);
        let ret = w.eval_fun(item, &args);
        let mut props = w.props;
        props.push((
            node,
            ShapeVal::Fun(FunSummary {
                args: vec![AbsVal::bot(); item.arity],
                ret,
            }),
        ));
        props
    }
}

/// One abstract execution of a function body: used both as the engine's
/// transfer function and, after the fixpoint, as the reporting pass.
/// Number of `case` nodes in a subtree (for pre-order numbering of
/// skipped branches).
fn count_cases(e: &MExpr) -> usize {
    let mut n = 0;
    e.walk(&mut |x| {
        if matches!(x, MExpr::Case { .. }) {
            n += 1;
        }
    });
    n
}

struct Walker<'a, 'm> {
    an: &'a ShapeAnalysis<'m>,
    view: &'a View<'a, ShapeVal>,
    props: Vec<(NodeId, ShapeVal)>,
    faults: BTreeSet<Fault>,
    arms: Vec<(usize, usize, MPattern)>,
    case_counter: usize,
    /// Saturated direct-call sites seen in this body: `(callee, args)`.
    call_sites: Vec<(u32, Vec<AbsVal>)>,
}

impl<'a, 'm> Walker<'a, 'm> {
    fn new(an: &'a ShapeAnalysis<'m>, view: &'a View<'a, ShapeVal>) -> Self {
        Walker {
            an,
            view,
            props: Vec::new(),
            faults: BTreeSet::new(),
            arms: Vec::new(),
            case_counter: 0,
            call_sites: Vec::new(),
        }
    }

    fn eval_fun(&mut self, item: &MItem, args: &[AbsVal]) -> AbsVal {
        let mut ret = AbsVal::bot();
        if let Some(body) = item.body() {
            let mut env = Vec::with_capacity(item.locals);
            self.eval_expr(body, &mut env, args, &mut ret);
        }
        ret
    }

    fn operand(&mut self, op: &Operand, env: &[AbsVal], args: &[AbsVal]) -> AbsVal {
        match op.source {
            Source::Imm => AbsVal::int_const(op.index),
            Source::Local => env
                .get(op.index.max(0) as usize)
                .cloned()
                .unwrap_or_else(AbsVal::top),
            Source::Arg => args
                .get(op.index.max(0) as usize)
                .cloned()
                .unwrap_or_else(AbsVal::top),
            // A bare global is the thunk `target applied-to nothing`:
            // nullary items saturate the moment they are demanded.
            Source::Global => {
                let v = AbsVal::closure(op.index.max(0) as u32, 0);
                self.eval_apply(&v, &[])
            }
        }
    }

    /// Abstractly apply `callee` to `args`, mirroring the hardware's
    /// `Cont::Apply` / `force_global` dispatch.
    fn eval_apply(&mut self, callee: &AbsVal, args: &[AbsVal]) -> AbsVal {
        let mut res = AbsVal::bot();
        if callee.error {
            // Applying an error value returns it unchanged.
            res.error = true;
        }
        if args.is_empty()
            && callee.cons == Tags::Bot
            && callee.ints == Ints::Bot
            && matches!(callee.clos, Clos::Bot)
        {
            return res;
        }
        if !args.is_empty() {
            if callee.may_be_int() {
                self.faults.insert(Fault::ApplyToInt);
                res.error = true;
            }
            if callee.may_be_con() {
                self.faults.insert(Fault::ApplyToCon);
                res.error = true;
            }
        } else {
            // Zero-argument "application" is just forcing: integers and
            // saturated constructors pass through untouched.
            res.join(&AbsVal {
                ints: callee.ints.clone(),
                cons: callee.cons.clone(),
                clos: Clos::Bot,
                error: false,
            });
        }
        match &callee.clos {
            Clos::Bot => {}
            Clos::Any => {
                // Unknown target: anything can happen, including every
                // arity fault downstream of the unknown call.
                if !args.is_empty() {
                    self.faults.insert(Fault::ConOverApplied);
                }
                res.join(&AbsVal::top());
            }
            Clos::Known(set) => {
                for &(target, applied) in set.clone().iter() {
                    let v = self.apply_target(target, applied as usize, args);
                    res.join(&v);
                }
            }
        }
        res
    }

    /// Apply global `target`, which already holds `applied` untracked
    /// arguments, to `args`.
    fn apply_target(&mut self, target: u32, applied: usize, args: &[AbsVal]) -> AbsVal {
        if let Some(p) = PrimOp::from_index(target) {
            let arity = p.arity();
            let total = applied + args.len();
            if total < arity {
                return AbsVal::closure(target, total);
            }
            let known = if applied == 0 && args.len() >= arity {
                Some(&args[..arity])
            } else {
                None
            };
            let out = self.prim_result(p, known);
            if total > arity {
                let rest = &args[args.len() - (total - arity)..];
                return self.eval_apply(&out, rest);
            }
            return out;
        }
        let item = match self.an.program.lookup(target) {
            Some(it) => it,
            None => return AbsVal::top(),
        };
        let arity = item.arity;
        let total = applied + args.len();
        if item.is_con() {
            if total < arity {
                // Track supplied fields even for partials; the unknown
                // prefix is covered by the ⊤-seeded cells of escaping cons.
                for (j, a) in args.iter().enumerate() {
                    if applied + j < arity {
                        self.props
                            .push((cell_node(target, applied + j), ShapeVal::Cell(a.clone())));
                    }
                }
                return AbsVal::closure(target, total);
            }
            if total > arity {
                self.faults.insert(Fault::ConOverApplied);
                return AbsVal::error_only();
            }
            for (j, a) in args.iter().enumerate() {
                if applied + j < arity {
                    self.props
                        .push((cell_node(target, applied + j), ShapeVal::Cell(a.clone())));
                }
            }
            return AbsVal::con(target);
        }
        // A user function.
        if total < arity {
            return AbsVal::closure(target, total);
        }
        let consumed = arity.saturating_sub(applied);
        // Join the actual arguments into the callee's summary (positions
        // below `applied` are untracked — the callee is then ⊤-seeded).
        if self.an.analyzed.contains(&target) {
            let mut s = FunSummary::bot(arity);
            let mut any = false;
            for (j, a) in args[..consumed.min(args.len())].iter().enumerate() {
                if let Some(slot) = s.args.get_mut(applied + j) {
                    *slot = a.clone();
                    any = true;
                }
            }
            if any {
                self.props.push((fun_node(target), ShapeVal::Fun(s)));
            }
            // A fully-tracked saturated call: record the per-site argument
            // vector for the report's relational decomposition. Partial
            // completions (`applied > 0`) go untracked — but creating such
            // a closure marked the callee addr-taken, which is exactly the
            // report's "not exhaustive" flag.
            if applied == 0 && args.len() >= arity {
                let site: Vec<AbsVal> = args[..arity].to_vec();
                if !site.iter().any(|a| a.is_bot()) {
                    self.call_sites.push((target, site));
                }
            }
        }
        let ret = match self.view.get(fun_node(target)) {
            Some(ShapeVal::Fun(s)) => s.ret.clone(),
            _ => AbsVal::bot(),
        };
        if total > arity {
            let rest = &args[consumed.min(args.len())..];
            return self.eval_apply(&ret, rest);
        }
        ret
    }

    /// The result of a saturated primitive. `known` carries the argument
    /// shapes when every operand is tracked (a direct, unsplit call).
    fn prim_result(&mut self, p: PrimOp, known: Option<&[AbsVal]>) -> AbsVal {
        let vals = match known {
            Some(v) => v,
            None => {
                // Untracked operands: any integer, any fault the primitive
                // can raise.
                self.faults.insert(Fault::PrimOnNonInt);
                if matches!(p, PrimOp::Div | PrimOp::Mod) {
                    self.faults.insert(Fault::DivideByZero);
                }
                let mut v = AbsVal::any_int();
                v.error = true;
                return v;
            }
        };
        if vals.iter().any(|v| v.is_bot()) {
            // Dead call: no value can reach an operand.
            return AbsVal::bot();
        }
        let mut err = false;
        if vals.iter().any(|v| v.may_be_con() || v.may_be_closure()) {
            self.faults.insert(Fault::PrimOnNonInt);
            err = true;
        }
        if vals.iter().any(|v| v.error) {
            err = true;
        }
        let pure = !p.is_io() && p != PrimOp::Gc;
        // Constant folding over small operand sets.
        let const_sets: Option<Vec<&BTreeSet<Int>>> = vals
            .iter()
            .map(|v| match &v.ints {
                Ints::Consts(s) => Some(s),
                _ => None,
            })
            .collect();
        let mut out = AbsVal::bot();
        match const_sets {
            Some(sets) if pure && sets.iter().map(|s| s.len()).product::<usize>() <= FOLD_LIMIT => {
                let mut results: BTreeSet<Int> = BTreeSet::new();
                let mut combos: Vec<Vec<Int>> = vec![Vec::new()];
                for s in &sets {
                    let mut next = Vec::new();
                    for c in &combos {
                        for &n in s.iter() {
                            let mut c2 = c.clone();
                            c2.push(n);
                            next.push(c2);
                        }
                    }
                    combos = next;
                }
                for c in combos {
                    match p.eval_pure(&c) {
                        Ok(n) => {
                            results.insert(n);
                        }
                        Err(e) => {
                            err = true;
                            if e.code() == 1 {
                                self.faults.insert(Fault::DivideByZero);
                            }
                        }
                    }
                }
                if results.len() > INT_CAP {
                    out.ints = Ints::Any;
                } else if !results.is_empty() {
                    out.ints = Ints::Consts(results);
                }
            }
            _ => {
                out.ints = Ints::Any;
                if matches!(p, PrimOp::Div | PrimOp::Mod) {
                    let zero_possible = vals.get(1).map(|v| v.covers_int(0)).unwrap_or(true)
                        || vals.get(1).map(|v| v.ints == Ints::Any).unwrap_or(true);
                    if zero_possible {
                        self.faults.insert(Fault::DivideByZero);
                        err = true;
                    }
                }
            }
        }
        out.error |= err;
        out
    }

    fn eval_expr(&mut self, e: &MExpr, env: &mut Vec<AbsVal>, args: &[AbsVal], ret: &mut AbsVal) {
        match e {
            MExpr::Let {
                callee,
                args: call_args,
                body,
            } => {
                let cv = match callee.source {
                    Source::Global => AbsVal::closure(callee.index.max(0) as u32, 0),
                    _ => self.operand(callee, env, args),
                };
                let avs: Vec<AbsVal> = call_args
                    .iter()
                    .map(|a| self.operand(a, env, args))
                    .collect();
                let v = self.eval_apply(&cv, &avs);
                env.push(v);
                self.eval_expr(body, env, args, ret);
                env.pop();
            }
            MExpr::Case {
                scrutinee,
                branches,
                default,
            } => {
                let case_index = self.case_counter;
                self.case_counter += 1;
                let s = self.operand(scrutinee, env, args);
                if s.error {
                    // An error scrutinee pops the frame: the function
                    // yields the error itself.
                    ret.join(&AbsVal::error_only());
                }
                if s.may_be_closure() {
                    self.faults.insert(Fault::CaseOnClosure);
                    ret.join(&AbsVal::error_only());
                }
                let mut matched_ints: BTreeSet<Int> = BTreeSet::new();
                let mut matched_tags: BTreeSet<u32> = BTreeSet::new();
                for (arm_index, b) in branches.iter().enumerate() {
                    let reachable = match b.pattern {
                        MPattern::Lit(n) => {
                            matched_ints.insert(n);
                            s.covers_int(n)
                        }
                        MPattern::Con(c) => {
                            matched_tags.insert(c);
                            s.covers_tag(c)
                        }
                    };
                    if !reachable {
                        if !s.is_bot() {
                            self.arms.push((case_index, arm_index, b.pattern));
                        }
                        // Keep the numbering pure pre-order over the syntax:
                        // cases inside the skipped body still take indices, so
                        // downstream tools (the symbolic executor) can number
                        // cases without re-deriving reachability.
                        self.case_counter += count_cases(&b.body);
                        continue;
                    }
                    let before = env.len();
                    if let MPattern::Con(c) = b.pattern {
                        let fields = self.an.arity(c);
                        for i in 0..fields {
                            let fv = match self.view.get(cell_node(c, i)) {
                                Some(ShapeVal::Cell(v)) => v.clone(),
                                _ => AbsVal::bot(),
                            };
                            env.push(fv);
                        }
                    }
                    self.eval_expr(&b.body, env, args, ret);
                    env.truncate(before);
                }
                // The default runs for any unmatched integer or tag.
                let default_reachable = match (&s.ints, &s.cons) {
                    (Ints::Any, _) | (_, Tags::Any) => true,
                    (Ints::Consts(ns), _) if ns.iter().any(|n| !matched_ints.contains(n)) => true,
                    (_, Tags::Known(ts)) if ts.iter().any(|t| !matched_tags.contains(t)) => true,
                    _ => false,
                };
                if default_reachable {
                    self.eval_expr(default, env, args, ret);
                } else {
                    self.case_counter += count_cases(default);
                }
            }
            MExpr::Result(op) => {
                let v = self.operand(op, env, args);
                ret.join(&v);
            }
        }
    }
}

/// Run the shape/arity analysis to fixpoint and produce the report.
pub fn analyze_shapes(program: &MProgram, model: EntryModel) -> Result<ShapeReport, AbsIntError> {
    let analysis = ShapeAnalysis::new(program, model);
    let fp = Engine::new().run(&analysis)?;
    let view = View::over(&fp.values);
    let mut functions = BTreeMap::new();
    let mut unreachable_arms = Vec::new();
    let mut call_sites: BTreeMap<u32, Vec<Vec<AbsVal>>> = BTreeMap::new();
    for &id in &analysis.analyzed {
        let item = match program.lookup(id) {
            Some(it) => it,
            None => continue,
        };
        let summary = match fp.value(fun_node(id)) {
            Some(ShapeVal::Fun(s)) => s.clone(),
            _ => FunSummary::bot(item.arity),
        };
        let mut w = Walker::new(&analysis, &view);
        w.eval_fun(item, &summary.args);
        for (callee, site) in w.call_sites.drain(..) {
            let sites = call_sites.entry(callee).or_default();
            if !sites.contains(&site) {
                sites.push(site);
            }
        }
        for (case_index, arm_index, pattern) in w.arms {
            unreachable_arms.push(UnreachableArm {
                function: id,
                case_index,
                arm_index,
                pattern,
            });
        }
        functions.insert(
            id,
            FunShape {
                name: item.name.clone(),
                faults: w.faults,
                summary,
            },
        );
    }
    let mut cells = BTreeMap::new();
    for (&node, val) in &fp.values {
        if (CELL_BASE..SERVICE_NODE).contains(&node) {
            if let ShapeVal::Cell(v) = val {
                let con = ((node - CELL_BASE) >> 16) as u32;
                let field = (node & 0xFFFF) as usize;
                cells.insert((con, field), v.clone());
            }
        }
    }
    Ok(ShapeReport {
        model,
        functions,
        unreachable_arms,
        cells,
        call_sites,
        addr_taken: analysis.addr_taken.clone(),
        iterations: fp.iterations,
        iteration_bound: fp.bound,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use zarf_asm::{lower, parse};

    fn machine(src: &str) -> MProgram {
        lower(&parse(src).unwrap()).unwrap()
    }

    fn standalone(src: &str) -> ShapeReport {
        analyze_shapes(&machine(src), EntryModel::Standalone).unwrap()
    }

    #[test]
    fn clean_first_order_program_certifies() {
        let r = standalone(
            r#"
con Pair a b
fun swap p =
  case p of
  | Pair a b =>
    let q = Pair b a in
    result q
  else result 0
fun main =
  let p = Pair 1 2 in
  let q = swap p in
  result q
"#,
        );
        assert!(r.case_fault_free(), "{:?}", r.faults().collect::<Vec<_>>());
        assert!(r.arity_fault_free());
        assert!(r.unreachable_arms.is_empty(), "{:?}", r.unreachable_arms);
    }

    #[test]
    fn case_on_closure_detected() {
        let r = standalone(
            r#"
fun f x y =
  let s = add x y in
  result s
fun main =
  let g = f 1 in
  case g of
  | 0 => result 0
  else result 1
"#,
        );
        assert!(!r.case_fault_free());
        assert!(r.faults().any(|(_, f)| f == Fault::CaseOnClosure));
    }

    #[test]
    fn apply_to_int_detected() {
        let r = standalone(
            r#"
fun main =
  let x = add 1 2 in
  let y = x 3 in
  result y
"#,
        );
        assert!(!r.arity_fault_free());
        assert!(r.faults().any(|(_, f)| f == Fault::ApplyToInt));
    }

    #[test]
    fn con_over_application_detected() {
        let r = standalone(
            r#"
con Box v
fun main =
  let b = Box 1 2 in
  result b
"#,
        );
        assert!(r.faults().any(|(_, f)| f == Fault::ConOverApplied));
    }

    #[test]
    fn apply_to_saturated_con_detected() {
        let r = standalone(
            r#"
con Box v
fun main =
  let b = Box 1 in
  let y = b 2 in
  result y
"#,
        );
        assert!(r.faults().any(|(_, f)| f == Fault::ApplyToCon));
    }

    #[test]
    fn unreachable_arm_detected() {
        let r = standalone(
            r#"
con A
con B
fun pick x =
  case x of
  | A => result 1
  | B => result 2
  else result 0
fun main =
  let a = A in
  let r = pick a in
  result r
"#,
        );
        // Only `A` ever reaches `pick`; the `B` arm is dead.
        assert_eq!(r.unreachable_arms.len(), 1, "{:?}", r.unreachable_arms);
        let arm = &r.unreachable_arms[0];
        assert_eq!(arm.arm_index, 1);
        assert!(r.case_fault_free() && r.arity_fault_free());
    }

    #[test]
    fn higher_order_call_tracked_precisely() {
        // The closure `inc` flows through `apply`'s parameter summary as a
        // tracked (target, applied) pair, so the indirect call resolves
        // and the program still certifies.
        let r = standalone(
            r#"
fun inc x =
  let y = add x 1 in
  result y
fun apply f x =
  let r = f x in
  result r
fun main =
  let g = inc in
  let r = apply g 4 in
  result r
"#,
        );
        assert!(
            r.case_fault_free() && r.arity_fault_free(),
            "{:?}",
            r.faults().collect::<Vec<_>>()
        );
        // And `inc` is ⊤-seeded (its closure escapes), so the analysis
        // stays sound if the closure is applied from untracked contexts.
        let inc = r
            .functions
            .values()
            .find(|f| f.name.as_deref() == Some("inc"))
            .map(|f| f.summary.args[0].clone());
        assert_eq!(inc, Some(AbsVal::top()));
    }

    #[test]
    fn constant_folding_prunes_lit_arms() {
        let r = standalone(
            r#"
fun main =
  let x = add 1 2 in
  case x of
  | 3 => result 1
  | 4 => result 2
  else result 0
"#,
        );
        // add 1 2 = 3: the `4` arm is unreachable.
        assert_eq!(r.unreachable_arms.len(), 1, "{:?}", r.unreachable_arms);
        assert!(matches!(r.unreachable_arms[0].pattern, MPattern::Lit(4)));
    }

    #[test]
    fn division_by_possible_zero_flagged() {
        let r = standalone(
            r#"
fun main =
  let x = getint 9 in
  let y = div 10 x in
  result y
"#,
        );
        assert!(r.faults().any(|(_, f)| f == Fault::DivideByZero));
        // Division by a known non-zero constant is clean.
        let r2 = standalone("fun main =\n  let y = div 10 2 in\n  result y");
        assert!(!r2.faults().any(|(_, f)| f == Fault::DivideByZero));
    }

    #[test]
    fn error_propagation_reaches_ret_not_branches() {
        let r = standalone(
            r#"
fun main =
  let e = div 1 0 in
  case e of
  | 0 => result 7
  else result 9
"#,
        );
        // The division faults; the case propagates the error value out of
        // the function rather than raising a case fault.
        assert!(r.case_fault_free());
        assert!(r.faults().any(|(_, f)| f == Fault::DivideByZero));
    }

    #[test]
    fn service_model_covers_step_feedback() {
        // A counter service: step result (a con) feeds back as arg 0.
        let r = analyze_shapes(
            &machine(
                r#"
con St n
fun boot z =
  let s = St 0 in
  result s
fun step s =
  case s of
  | St n =>
    let n' = add n 1 in
    let s' = St n' in
    result s'
  else
    let s0 = St 0 in
    result s0
fun main = result 0
"#,
            ),
            EntryModel::Service,
        )
        .unwrap();
        assert!(r.case_fault_free(), "{:?}", r.faults().collect::<Vec<_>>());
        assert!(r.arity_fault_free());
    }

    #[test]
    fn shipped_kernel_session_certifies_under_service_model() {
        let m = zarf_kernel::session::session_machine();
        let r = analyze_shapes(&m, EntryModel::Service).unwrap();
        assert!(
            r.case_fault_free(),
            "kernel session case faults: {:?}",
            r.faults().collect::<Vec<_>>()
        );
        assert!(
            r.arity_fault_free(),
            "kernel session arity faults: {:?}",
            r.faults().collect::<Vec<_>>()
        );
        assert!(r.iterations <= r.iteration_bound);
    }

    #[test]
    fn shipped_kernel_certifies_standalone() {
        let m = zarf_kernel::program::kernel_machine();
        let r = analyze_shapes(&m, EntryModel::Standalone).unwrap();
        assert!(
            r.case_fault_free() && r.arity_fault_free(),
            "kernel faults: {:?}",
            r.faults().collect::<Vec<_>>()
        );
    }
}
