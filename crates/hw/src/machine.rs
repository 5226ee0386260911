//! The cycle-accurate λ-execution-layer machine.
//!
//! [`Hw`] interprets the *binary word format* directly — the same image the
//! FPGA prototype's loader streams in — using lazy graph reduction:
//!
//! * a `let` allocates an application object and continues (no control
//!   transfer, matching §3.3: "let does not immediately change the control
//!   flow or force evaluation");
//! * a `case` **forces** its scrutinee to weak head-normal form, entering
//!   function bodies, combining partial applications, evaluating primitives,
//!   and writing indirections back into thunks along the way;
//! * a `result` pops the frame and forces the yielded value for whatever
//!   demanded it.
//!
//! The hardware's four control groups map onto the interpreter as: *load*
//! ([`Hw::load`]), *function application* (the `Apply`/`PrimArgs`
//! continuations and partial-application handling), *function evaluation*
//! (instruction execution and forcing), and *garbage collection*
//! ([`crate::heap`]). Cycles are charged per micro-operation from the
//! [`CostModel`] and attributed to instruction classes per [`crate::stats`].
//!
//! Update frames are squeezed (an enclosing thunk becomes an indirection to
//! the inner one), so tail-recursive Zarf loops run in constant continuation
//! depth — the property that lets the microkernel loop indefinitely on real
//! hardware.

use std::collections::HashMap;
use std::fmt;

use zarf_asm::encode::{
    self, unpack_let_head, unpack_operand_word, unpack_pattern_skip, word_tag, TAG_CASE, TAG_ELSE,
    TAG_LET, TAG_PAT_CON, TAG_PAT_LIT, TAG_RESULT,
};
use zarf_asm::{DecodeError, EncodeError};
use zarf_chaos::{ChaosHandle, FaultKind, FaultSite};
use zarf_core::error::{IoError, RuntimeError};
use zarf_core::io::IoPorts;
use zarf_core::machine::{MProgram, Operand, Source};
use zarf_core::prim::{PrimOp, ERROR_CON_INDEX, FIRST_USER_INDEX};
use zarf_core::value::{ClosureTarget, Value, V};
use zarf_core::{Int, Word};
use zarf_trace::{Event, InstrClass, SinkHandle, TraceSink};

use crate::cost::CostModel;
use crate::heap::{DanglingRef, GcReport, Heap, MAX_HEAP_WORDS};
use crate::obj::{AppTarget, HValue, HeapObj, HeapRef};
use crate::snapshot::Image;
use crate::stats::{Class, Stats};

/// Default semispace size: 64 Ki words (256 KiB), a plausible embedded SRAM.
pub const DEFAULT_HEAP_WORDS: usize = 64 * 1024;

/// Most retired frames' local buffers kept for reuse. E2 kernel ticks need
/// 4 (with 2 they allocate again); 16 leaves room for deeper call chains
/// while bounding what an idle machine keeps.
const SPARE_LOCALS: usize = 16;

/// Execution failures of the hardware model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HwError {
    /// The binary image failed validation at load time.
    Load(DecodeError),
    /// A machine program could not be encoded for loading.
    Encode(EncodeError),
    /// Allocation failed even after collection.
    OutOfMemory {
        /// Words the allocation needed.
        needed: usize,
        /// Semispace capacity.
        capacity: usize,
    },
    /// The port device failed.
    Io(IoError),
    /// The configured cycle budget was exhausted.
    CycleLimit(u64),
    /// A thunk demanded its own value (a black hole): the program loops.
    InfiniteLoop,
    /// `call_by_name` with an unknown symbol.
    UnknownName(String),
    /// `call` with an identifier that is not a loaded item.
    UnknownItem(u32),
    /// A reference pointed outside the heap — a memory fault (only
    /// reachable after corruption, e.g. an injected bit flip).
    DanglingRef(HeapRef),
    /// The configured semispace exceeds [`MAX_HEAP_WORDS`]: some object
    /// index would not fit a 32-bit reference.
    HeapTooLarge(usize),
    /// A machine invariant did not hold at runtime: corrupted state that
    /// validation cannot rule out once memory faults are in the model.
    BadState(&'static str),
}

impl fmt::Display for HwError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HwError::Load(e) => write!(f, "load failed: {e}"),
            HwError::Encode(e) => write!(f, "encode failed: {e}"),
            HwError::OutOfMemory { needed, capacity } => {
                write!(
                    f,
                    "out of memory: need {needed} words, semispace holds {capacity}"
                )
            }
            HwError::Io(e) => write!(f, "I/O failure: {e}"),
            HwError::CycleLimit(n) => write!(f, "cycle limit of {n} exhausted"),
            HwError::InfiniteLoop => write!(f, "black hole entered: infinite loop"),
            HwError::UnknownName(n) => write!(f, "no item named `{n}`"),
            HwError::UnknownItem(id) => write!(f, "no item with identifier {id:#x}"),
            HwError::DanglingRef(r) => write!(f, "dangling heap reference {r:#x}"),
            HwError::HeapTooLarge(words) => write!(
                f,
                "a semispace of {words} words exceeds the {MAX_HEAP_WORDS}-word maximum"
            ),
            HwError::BadState(what) => write!(f, "machine state corrupted: {what}"),
        }
    }
}

impl std::error::Error for HwError {}

impl From<IoError> for HwError {
    fn from(e: IoError) -> Self {
        HwError::Io(e)
    }
}

impl From<DanglingRef> for HwError {
    fn from(e: DanglingRef) -> Self {
        HwError::DanglingRef(e.0)
    }
}

/// Load-time metadata for one item.
#[derive(Debug, Clone)]
struct ItemMeta {
    arity: usize,
    locals: usize,
    is_con: bool,
    body_off: usize,
    name: Option<String>,
}

/// Pending cycle run not yet emitted as an [`Event::Cycles`].
///
/// Consecutive charges to the same `(class, item)` pair coalesce into one
/// event, flushed whenever the attribution changes, an instruction retires,
/// a collection starts, a coroutine boundary is crossed, or the run ends.
/// The per-class event sums therefore reproduce [`Stats`] exactly: the
/// trace is a refinement of the aggregate counters.
#[derive(Debug)]
struct TraceCursor {
    class: Class,
    item: Option<u32>,
    cycles: u64,
}

impl Default for TraceCursor {
    fn default() -> Self {
        TraceCursor {
            class: Class::Let,
            item: None,
            cycles: 0,
        }
    }
}

/// The trace-event name of a cycle-accounting class.
fn trace_class(c: Class) -> InstrClass {
    match c {
        Class::Let => InstrClass::Let,
        Class::Case => InstrClass::Case,
        Class::Result => InstrClass::Result,
        Class::BranchHead => InstrClass::BranchHead,
    }
}

/// A suspended function activation.
#[derive(Debug)]
struct Frame {
    /// The item being executed (for trace cycle attribution).
    item: u32,
    args: Vec<HValue>,
    locals: Vec<HValue>,
    pc: usize,
}

/// A continuation on the evaluation stack.
#[derive(Debug)]
enum Cont {
    /// Write the WHNF into this thunk when it arrives.
    Update(HeapRef),
    /// Apply the WHNF to these further arguments (over-application).
    Apply(Vec<HValue>),
    /// Resume the pattern scan of the `case` whose frame is on top; its
    /// `pc` already points at the first pattern word.
    CaseDispatch,
    /// Discard the WHNF and resume instruction execution (used by the
    /// eager-mode ablation, which forces every `let` immediately).
    ResumeExec,
    /// Collect primitive operands (every primitive takes one or two):
    /// force the `pending` second operand, if any, accumulating `ints`,
    /// then execute `op`.
    PrimArgs {
        op: PrimOp,
        pending: Option<HValue>,
        ints: [Int; 2],
    },
}

/// Machine control state between steps.
#[derive(Debug, Clone, Copy)]
enum State {
    /// Execute the instruction at the top frame's `pc`.
    Exec,
    /// Reduce a value to weak head-normal form.
    Force(HValue),
    /// Deliver a WHNF to the innermost continuation.
    Return(HValue),
}

/// Configuration for a hardware instance.
#[derive(Debug, Clone)]
pub struct HwConfig {
    /// Semispace size in words.
    pub heap_words: usize,
    /// Abort after this many total cycles (`None` = unlimited).
    pub cycle_limit: Option<u64>,
    /// Collect automatically when an allocation does not fit. The paper's
    /// deployment disables this and calls the `gc` hardware function once
    /// per kernel iteration; tests enable it.
    pub gc_auto: bool,
    /// Ablation: force every `let`'s application immediately (eager
    /// evaluation) instead of building a thunk for later demand. The real
    /// hardware is lazy; this measures what that choice buys.
    pub eager: bool,
    /// The cycle-cost model.
    pub cost: CostModel,
}

impl Default for HwConfig {
    fn default() -> Self {
        HwConfig {
            heap_words: DEFAULT_HEAP_WORDS,
            cycle_limit: None,
            gc_auto: true,
            eager: false,
            cost: CostModel::default(),
        }
    }
}

/// The λ-execution layer hardware simulator.
#[derive(Debug)]
pub struct Hw {
    /// The loaded image and its symbols, shared with every snapshot
    /// captured from this machine.
    image: Image,
    items: Vec<ItemMeta>,
    names: HashMap<String, u32>,
    heap: Heap,
    cost: CostModel,
    stats: Stats,
    cycle_limit: Option<u64>,
    gc_auto: bool,
    eager: bool,

    /// Values the host wants kept alive across calls (kernel state, etc.).
    roots: Vec<HValue>,

    frames: Vec<Frame>,
    conts: Vec<Cont>,
    class: Class,
    /// Scratch for the root set a collection gathers, kept between
    /// collections so gathering allocates nothing.
    gc_roots: Vec<HValue>,
    /// Cleared local buffers of retired frames, at most `SPARE_LOCALS`.
    /// They stay apart from the heap's payload free list, so a buffer
    /// sized for a large frame never becomes a small object's payload.
    spare_locals: Vec<Vec<HValue>>,

    sink: SinkHandle,
    cursor: TraceCursor,
    /// Item id → coroutine id: frames of these items delimit coroutines in
    /// the event stream (see [`Hw::mark_coroutine`]).
    coroutines: HashMap<u32, u32>,
    /// Deterministic fault injection (see [`Hw::set_chaos`]).
    chaos: Option<ChaosHandle>,
}

impl Hw {
    /// Load a binary image with the default configuration.
    pub fn load(words: &[Word]) -> Result<Self, HwError> {
        Self::load_with(words, HwConfig::default())
    }

    /// Load a binary image with an explicit configuration.
    ///
    /// The image is fully validated (structure, operand ranges, skip-field
    /// consistency) before execution is permitted — rejecting malformed
    /// binaries is part of the architecture's contract. A semispace above
    /// [`MAX_HEAP_WORDS`] is refused with [`HwError::HeapTooLarge`].
    pub fn load_with(words: &[Word], config: HwConfig) -> Result<Self, HwError> {
        Self::load_image(Image::new(words.to_vec(), Vec::new()), config)
    }

    /// Load `image` with its symbols, validating the words as
    /// [`Hw::load_with`] does.
    pub(crate) fn load_image(image: Image, config: HwConfig) -> Result<Self, HwError> {
        if config.heap_words as u64 > MAX_HEAP_WORDS {
            return Err(HwError::HeapTooLarge(config.heap_words));
        }
        // Validation: a full decode must succeed.
        let words = image.words();
        encode::decode(words).map_err(HwError::Load)?;
        // Build the item offset table by scanning headers.
        let mut items = Vec::new();
        let count = words[1] as usize;
        let mut pos = 2;
        for _ in 0..count {
            let fp = words[pos];
            let body_len = words[pos + 1] as usize;
            items.push(ItemMeta {
                arity: ((fp >> 16) & 0xFF) as usize,
                locals: (fp & 0xFFFF) as usize,
                is_con: fp >> 31 == 1,
                body_off: pos + 2,
                name: None,
            });
            pos += 2 + body_len;
        }

        let stats = Stats {
            load_cycles: config.cost.load_per_word * words.len() as u64,
            ..Stats::default()
        };
        let mut names = HashMap::new();
        for (id, name) in image.names() {
            names.insert(name.clone(), *id);
            if let Some(i) = id.checked_sub(FIRST_USER_INDEX) {
                if let Some(meta) = items.get_mut(i as usize) {
                    meta.name = Some(name.clone());
                }
            }
        }

        Ok(Hw {
            image,
            items,
            names,
            heap: Heap::new(config.heap_words),
            cost: config.cost,
            stats,
            cycle_limit: config.cycle_limit,
            gc_auto: config.gc_auto,
            eager: config.eager,
            roots: Vec::new(),
            frames: Vec::new(),
            conts: Vec::new(),
            class: Class::Let,
            gc_roots: Vec::new(),
            spare_locals: Vec::new(),
            sink: SinkHandle::none(),
            cursor: TraceCursor::default(),
            coroutines: HashMap::new(),
            chaos: None,
        })
    }

    /// Encode a machine program and load it, retaining item symbols so
    /// [`Hw::call_by_name`] works.
    pub fn from_machine(m: &MProgram) -> Result<Self, HwError> {
        Self::from_machine_with(m, HwConfig::default())
    }

    /// [`Hw::from_machine`] with an explicit configuration.
    pub fn from_machine_with(m: &MProgram, config: HwConfig) -> Result<Self, HwError> {
        let words = encode::encode(m).map_err(HwError::Encode)?;
        // One row per distinct name, the last item to carry it winning.
        let names: HashMap<&String, u32> = m
            .items()
            .iter()
            .enumerate()
            .filter_map(|(i, item)| Some((item.name.as_ref()?, m.id_of(i))))
            .collect();
        let rows = names.into_iter().map(|(n, id)| (id, n.clone())).collect();
        Self::load_image(Image::new(words, rows), config)
    }

    /// Execution statistics so far.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// The loaded binary image, exactly as validated at load, and its
    /// retained symbols.
    pub(crate) fn image(&self) -> &Image {
        &self.image
    }

    /// True when no call is in flight: the frame and continuation stacks
    /// are empty, so the machine state is exactly heap + roots + counters.
    /// Snapshots are only defined at quiescent points.
    pub fn is_quiescent(&self) -> bool {
        self.frames.is_empty() && self.conts.is_empty()
    }

    /// The host root slots (snapshot capture walks these).
    pub(crate) fn host_roots(&self) -> &[HValue] {
        &self.roots
    }

    /// The instruction class cycles are currently attributed to. Part of
    /// the trace-visible state: the first `charge` after restore must
    /// coalesce under the same class as it would have uninterrupted.
    pub(crate) fn accounting_class(&self) -> Class {
        self.class
    }

    /// Swap in previously captured machine state: heap, host roots,
    /// statistics, and attribution class. Frames and continuations are
    /// cleared (snapshots are quiescent by construction) and the trace
    /// cursor is reset — at a quiescent point it holds no pending cycles.
    pub(crate) fn restore_parts(
        &mut self,
        heap: Heap,
        roots: Vec<HValue>,
        stats: Stats,
        class: Class,
    ) {
        self.heap = heap;
        self.roots = roots;
        self.stats = stats;
        self.class = class;
        self.frames.clear();
        self.conts.clear();
        self.cursor = TraceCursor::default();
    }

    /// `(arity, is_constructor)` for a program item, `None` if the
    /// identifier names no item. The auditor uses this to check
    /// constructor saturation and application targets.
    pub fn item_shape(&self, id: u32) -> Option<(usize, bool)> {
        self.item(id).map(|m| (m.arity, m.is_con))
    }

    /// Structurally audit the live heap against the host roots: tags,
    /// pointer bounds, constructor arity, word accounting. Garbage is
    /// permitted (the live heap is audited non-strictly; compacted
    /// snapshot heaps are audited strictly at capture and restore).
    pub fn audit(&self) -> Result<crate::audit::AuditReport, crate::audit::AuditError> {
        crate::audit::audit_heap(&self.heap, &self.roots, &|id| self.item_shape(id), false)
    }

    /// The heap (for occupancy inspection).
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// The identifier of the item named `name`, if symbols were retained.
    pub fn id_of(&self, name: &str) -> Option<u32> {
        self.names.get(name).copied()
    }

    /// Protect a value from garbage collection across host calls; returns a
    /// root slot index for [`Hw::root`] / [`Hw::set_root`].
    pub fn push_root(&mut self, v: HValue) -> usize {
        self.roots.push(v);
        self.roots.len() - 1
    }

    /// Read a protected root (it may have moved during collection).
    pub fn root(&self, slot: usize) -> HValue {
        self.roots[slot]
    }

    /// Replace a protected root.
    pub fn set_root(&mut self, slot: usize, v: HValue) {
        self.roots[slot] = v;
    }

    /// Number of host root slots currently protected.
    pub fn root_count(&self) -> usize {
        self.roots.len()
    }

    /// Serialize the whole machine to `ZSNP` snapshot bytes (the machine
    /// must be quiescent). The inverse of [`Hw::rehydrate`]; the fleet uses
    /// this pair to evict sessions to bounded storage and move them across
    /// worker threads.
    pub fn hibernate(&self) -> Result<Vec<u8>, crate::snapshot::SnapshotError> {
        crate::snapshot::MachineSnapshot::capture(self)?.to_bytes()
    }

    /// Rebuild a machine from [`Hw::hibernate`] bytes. `config` supplies
    /// the non-snapshotted knobs (cycle limit, GC policy, cost model); the
    /// heap capacity always comes from the snapshot.
    pub fn rehydrate(bytes: &[u8], config: HwConfig) -> Result<Hw, crate::snapshot::SnapshotError> {
        crate::snapshot::MachineSnapshot::from_bytes(bytes)?.to_hw(config)
    }

    /// Run `main` to completion, returning its weak head-normal form.
    pub fn run(&mut self, ports: &mut dyn IoPorts) -> Result<HValue, HwError> {
        self.call(FIRST_USER_INDEX, vec![], ports)
    }

    /// Apply the named item to arguments and run to WHNF.
    pub fn call_by_name(
        &mut self,
        name: &str,
        args: Vec<HValue>,
        ports: &mut dyn IoPorts,
    ) -> Result<HValue, HwError> {
        let id = self
            .id_of(name)
            .ok_or_else(|| HwError::UnknownName(name.to_string()))?;
        self.call(id, args, ports)
    }

    /// Apply item `id` to arguments and run to WHNF.
    pub fn call(
        &mut self,
        id: u32,
        args: Vec<HValue>,
        ports: &mut dyn IoPorts,
    ) -> Result<HValue, HwError> {
        if id >= FIRST_USER_INDEX
            && (id - FIRST_USER_INDEX) as usize >= self.items.len()
            && PrimOp::from_index(id).is_none()
        {
            return Err(HwError::UnknownItem(id));
        }
        debug_assert!(self.frames.is_empty() && self.conts.is_empty());
        let app = self.alloc_gc(HeapObj::App {
            target: AppTarget::Global(id),
            args,
        })?;
        let result = self.run_machine(State::Force(HValue::Ref(app)), ports);
        if result.is_err() {
            // Leave the machine in a clean state for post-mortem calls.
            self.frames.clear();
            self.conts.clear();
        }
        result
    }

    /// [`Hw::call`] under a relative cycle budget: the call may spend at
    /// most `budget` cycles beyond those already consumed, failing with
    /// [`HwError::CycleLimit`] otherwise. A tighter configured absolute
    /// limit still applies. The kernel watchdog uses this to give each
    /// coroutine a fuel budget derived from the WCET bound.
    pub fn call_with_budget(
        &mut self,
        id: u32,
        args: Vec<HValue>,
        ports: &mut dyn IoPorts,
        budget: u64,
    ) -> Result<HValue, HwError> {
        let saved = self.cycle_limit;
        let deadline = self.stats.total_cycles().saturating_add(budget);
        self.cycle_limit = Some(saved.map_or(deadline, |l| l.min(deadline)));
        let result = self.call(id, args, ports);
        self.cycle_limit = saved;
        result
    }

    /// Manually trigger a collection (the `gc` hardware function does the
    /// same from inside a program). Fails only on a memory fault (a
    /// dangling reference reachable from the roots).
    pub fn collect_garbage(&mut self) -> Result<GcReport, HwError> {
        self.do_gc(&mut [])
    }

    /// Install (or clear) a deterministic fault-injection handle. The
    /// machine consults it at every allocation; faults that fire surface
    /// as [`Event::FaultInjected`] plus their architectural effect
    /// (allocation failure, forced collection, or a flipped bit in the
    /// freshly written cell).
    pub fn set_chaos(&mut self, chaos: Option<ChaosHandle>) {
        self.chaos = chaos;
    }

    // -- observability ------------------------------------------------------

    /// Install a trace sink. The machine emits retirement, cycle, heap, GC,
    /// I/O, and coroutine events; when no sink is installed every emission
    /// site is a single branch on a `None`.
    pub fn set_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.sink.set(sink);
        self.cursor = TraceCursor::default();
    }

    /// Remove and return the installed sink, flushing any pending cycles.
    pub fn take_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        self.flush_cycles();
        self.sink.take()
    }

    /// Declare that frames of item `item` delimit coroutine `coroutine`:
    /// entering such a frame emits [`Event::CoroutineEnter`], popping it
    /// emits [`Event::CoroutineExit`]. The kernel marks its step functions
    /// so a metrics sink can attribute cycles per coroutine.
    pub fn mark_coroutine(&mut self, item: u32, coroutine: u32) {
        self.coroutines.insert(item, coroutine);
    }

    /// The retained symbol of item `id` (inverse of [`Hw::id_of`]).
    pub fn symbol(&self, id: u32) -> Option<String> {
        self.item(id).and_then(|m| m.name.clone())
    }

    /// [`Hw::mark_coroutine`] by symbol name (requires retained symbols).
    pub fn mark_coroutine_by_name(&mut self, name: &str, coroutine: u32) -> bool {
        match self.id_of(name) {
            Some(id) => {
                self.mark_coroutine(id, coroutine);
                true
            }
            None => false,
        }
    }

    // -- cycle accounting ---------------------------------------------------

    // Every emission site on the step path is one inlined branch on the
    // sink; the traced half lives out of line in a `#[cold]` function, so
    // an untraced run pays neither its code size nor a call.

    #[inline]
    fn charge(&mut self, cycles: u64) {
        self.stats.class_mut(self.class).cycles += cycles;
        if self.sink.enabled() {
            self.trace_cycles(cycles);
        }
    }

    /// The traced half of [`Hw::charge`]: coalesce `cycles` into the
    /// cursor, flushing it first when the attribution changes.
    #[cold]
    #[inline(never)]
    fn trace_cycles(&mut self, cycles: u64) {
        let item = self.frames.last().map(|f| f.item);
        if (self.cursor.class, self.cursor.item) != (self.class, item) {
            self.flush_cycles();
            self.cursor.class = self.class;
            self.cursor.item = item;
        }
        self.cursor.cycles += cycles;
    }

    /// Emit any coalesced-but-unflushed cycle charges to the trace sink.
    ///
    /// Checkpoint capture flushes first so the event stream is cut at a
    /// deterministic point: a machine restored from the snapshot starts
    /// with an empty cycle cursor, and so must the uninterrupted run at
    /// the same boundary, or the two streams would coalesce differently.
    pub fn flush_trace(&mut self) {
        self.flush_cycles();
    }

    /// Emit the pending cycle run, if any.
    fn flush_cycles(&mut self) {
        if self.cursor.cycles > 0 {
            let (class, item, cycles) = (self.cursor.class, self.cursor.item, self.cursor.cycles);
            self.cursor.cycles = 0;
            self.sink.emit(|| Event::Cycles {
                class: trace_class(class),
                item,
                cycles,
            });
        }
    }

    #[inline]
    fn begin_instr(&mut self, class: Class, pc: usize) {
        self.class = class;
        self.stats.class_mut(class).count += 1;
        if self.sink.enabled() {
            self.trace_instr(class, pc);
        }
    }

    /// The traced half of [`Hw::begin_instr`].
    #[cold]
    #[inline(never)]
    fn trace_instr(&mut self, class: Class, pc: usize) {
        self.flush_cycles();
        self.sink.emit(|| Event::Instr {
            pc: pc as u64,
            class: trace_class(class),
        });
    }

    // -- memory -------------------------------------------------------------

    /// Allocate with automatic collection on exhaustion. The object's own
    /// payload is treated as roots so it survives the collection.
    ///
    /// When a chaos handle is installed this is the `Alloc` fault site:
    /// the plan can fail the allocation outright, force an adversarial
    /// collection first, or flip a bit in the freshly written cell.
    fn alloc_gc(&mut self, obj: HeapObj) -> Result<HeapRef, HwError> {
        self.alloc_gc_pinned(obj, &mut [])
    }

    /// [`Hw::alloc_gc`] for a caller holding `pinned` values outside the
    /// machine's roots: a collection keeps them live and relocates them
    /// in place.
    fn alloc_gc_pinned(
        &mut self,
        mut obj: HeapObj,
        pinned: &mut [HValue],
    ) -> Result<HeapRef, HwError> {
        let words = obj.words();
        let mut force_gc = false;
        let mut flip_bit = None;
        if let Some(chaos) = &self.chaos {
            if let Some(kind) = chaos.next(FaultSite::Alloc) {
                let op = chaos.ops(FaultSite::Alloc) - 1;
                self.flush_cycles();
                self.sink.emit(|| Event::FaultInjected {
                    site: FaultSite::Alloc.name(),
                    kind: kind.name(),
                    op,
                    detail: kind.detail(),
                });
                match kind {
                    FaultKind::AllocFail => {
                        return Err(HwError::OutOfMemory {
                            needed: words,
                            capacity: self.heap.capacity_words(),
                        });
                    }
                    FaultKind::ForceGc => force_gc = true,
                    FaultKind::BitFlip { bit } => flip_bit = Some(bit),
                    _ => {}
                }
            }
        }
        let full = self.heap.words_used() + words > self.heap.capacity_words();
        if (full && self.gc_auto) || force_gc {
            // Root the payload through the collection.
            let mut extra: Vec<HValue> = Vec::new();
            match &obj {
                HeapObj::App { target, args } => {
                    if let AppTarget::Value(v) = target {
                        extra.push(*v);
                    }
                    extra.extend(args.iter().copied());
                }
                HeapObj::Con { fields, .. } => extra.extend(fields.iter().copied()),
                HeapObj::Ind(v) => extra.push(*v),
                _ => {}
            }
            extra.extend(pinned.iter().copied());
            self.do_gc(&mut extra)?;
            // Scatter the relocated payload back into the object.
            let mut it = extra.into_iter();
            match &mut obj {
                HeapObj::App { target, args } => {
                    if let AppTarget::Value(v) = target {
                        *v = it
                            .next()
                            .ok_or(HwError::BadState("gc root scatter mismatch"))?;
                    }
                    for a in args.iter_mut() {
                        *a = it
                            .next()
                            .ok_or(HwError::BadState("gc root scatter mismatch"))?;
                    }
                }
                HeapObj::Con { fields, .. } => {
                    for f in fields.iter_mut() {
                        *f = it
                            .next()
                            .ok_or(HwError::BadState("gc root scatter mismatch"))?;
                    }
                }
                HeapObj::Ind(v) => {
                    *v = it
                        .next()
                        .ok_or(HwError::BadState("gc root scatter mismatch"))?
                }
                _ => {}
            }
            for p in pinned.iter_mut() {
                *p = it
                    .next()
                    .ok_or(HwError::BadState("gc root scatter mismatch"))?;
            }
        }
        self.charge(self.cost.alloc);
        self.stats.allocations += 1;
        self.stats.words_allocated += obj.words() as u64;
        let words = obj.words();
        let r = self.heap.alloc(obj).ok_or(HwError::OutOfMemory {
            needed: words,
            capacity: self.heap.capacity_words(),
        })?;
        let heap_words = self.heap.words_used() as u64;
        self.sink.emit(|| Event::Alloc {
            words: words as u64,
            heap_words,
        });
        if let Some(bit) = flip_bit {
            self.flip_cell_bit(r, bit);
        }
        Ok(r)
    }

    /// Apply an injected single-bit fault to the freshly allocated cell
    /// `r`: the first value-carrying field is flipped (integer payload or
    /// reference word); payload-free cells flip their identifier instead.
    fn flip_cell_bit(&mut self, r: HeapRef, bit: u8) {
        fn flip_val(v: &mut HValue, bit: u8) {
            match v {
                HValue::Int(n) => *n ^= 1 << (bit % 31),
                // Keep the flip inside a plausible address range so low
                // bits alias another live object (silent corruption) and
                // high bits dangle (a detectable memory fault).
                HValue::Ref(p) => *p ^= 1 << (bit % 20),
            }
        }
        let Ok(obj) = self.heap.get_mut(r) else {
            return;
        };
        match obj {
            HeapObj::App { target, args } => {
                if let Some(a) = args.first_mut() {
                    flip_val(a, bit);
                } else {
                    match target {
                        AppTarget::Value(v) => flip_val(v, bit),
                        AppTarget::Global(id) => *id ^= 1 << (bit % 8),
                    }
                }
            }
            HeapObj::Con { id, fields } => {
                if let Some(f) = fields.first_mut() {
                    flip_val(f, bit);
                } else {
                    *id ^= 1 << (bit % 8);
                }
            }
            HeapObj::Ind(v) => flip_val(v, bit),
            HeapObj::BlackHole | HeapObj::Forwarded(_) => {}
        }
    }

    /// Collect, treating machine state + host roots (+ `extra`) as roots.
    /// Fails only on a memory fault (dangling reference) reached while
    /// tracing; the heap is unusable afterwards and the caller surfaces
    /// the error.
    fn do_gc(&mut self, extra: &mut [HValue]) -> Result<GcReport, HwError> {
        // Gather every live value slot into one vector.
        let mut roots = std::mem::take(&mut self.gc_roots);
        roots.clear();
        roots.extend(self.roots.iter().copied());
        for f in &self.frames {
            roots.extend(f.args.iter().copied());
            roots.extend(f.locals.iter().copied());
        }
        for c in &self.conts {
            match c {
                Cont::Update(t) => roots.push(HValue::Ref(*t)),
                Cont::Apply(args) => roots.extend(args.iter().copied()),
                Cont::PrimArgs { pending, .. } => roots.extend(pending.iter().copied()),
                Cont::CaseDispatch | Cont::ResumeExec => {}
            }
        }
        roots.extend(extra.iter().copied());

        self.stats.peak_live_words = self
            .stats
            .peak_live_words
            .max(self.heap.words_used() as u64);

        if self.sink.enabled() {
            self.flush_cycles();
            let heap_words = self.heap.words_used() as u64;
            self.sink.emit(|| Event::GcStart { heap_words });
        }
        let report = self.heap.collect(&mut roots, &self.cost)?;
        self.stats.gc_cycles += report.cycles;
        self.stats.gc_runs += 1;
        self.stats.gc_objects_copied += report.objects_copied;
        self.stats.gc_words_copied += report.words_copied;
        self.sink.emit(|| Event::GcEnd {
            pause_cycles: report.cycles,
            objects_copied: report.objects_copied,
            words_copied: report.words_copied,
            words_reclaimed: report.words_reclaimed,
        });

        // Scatter the (possibly moved) roots back.
        let mut it = roots.iter().copied();
        for r in self.roots.iter_mut() {
            *r = it
                .next()
                .ok_or(HwError::BadState("gc root scatter mismatch"))?;
        }
        for f in self.frames.iter_mut() {
            for a in f.args.iter_mut() {
                *a = it
                    .next()
                    .ok_or(HwError::BadState("gc root scatter mismatch"))?;
            }
            for l in f.locals.iter_mut() {
                *l = it
                    .next()
                    .ok_or(HwError::BadState("gc root scatter mismatch"))?;
            }
        }
        for c in self.conts.iter_mut() {
            match c {
                Cont::Update(t) => {
                    *t = match it
                        .next()
                        .ok_or(HwError::BadState("gc root scatter mismatch"))?
                    {
                        HValue::Ref(r) => r,
                        HValue::Int(_) => {
                            return Err(HwError::BadState("update target became an integer"))
                        }
                    }
                }
                Cont::Apply(args) => {
                    for a in args.iter_mut() {
                        *a = it
                            .next()
                            .ok_or(HwError::BadState("gc root scatter mismatch"))?;
                    }
                }
                Cont::PrimArgs { pending, .. } => {
                    for p in pending.iter_mut() {
                        *p = it
                            .next()
                            .ok_or(HwError::BadState("gc root scatter mismatch"))?;
                    }
                }
                Cont::CaseDispatch | Cont::ResumeExec => {}
            }
        }
        for e in extra.iter_mut() {
            *e = it
                .next()
                .ok_or(HwError::BadState("gc root scatter mismatch"))?;
        }
        if it.next().is_some() {
            return Err(HwError::BadState("gc root scatter mismatch"));
        }
        self.gc_roots = roots;
        Ok(report)
    }

    fn error_value(&mut self, e: RuntimeError) -> Result<HValue, HwError> {
        let r = self.alloc_gc(HeapObj::Con {
            id: ERROR_CON_INDEX,
            fields: vec![HValue::Int(e.code())],
        })?;
        Ok(HValue::Ref(r))
    }

    fn is_error(&self, v: HValue) -> bool {
        self.as_error(v).is_some()
    }

    /// View a WHNF value as the runtime error it carries, if it is the
    /// reserved error constructor (following indirections). Hosts use this
    /// to distinguish a crashed computation from a healthy result without
    /// deep-forcing.
    pub fn as_error(&self, v: HValue) -> Option<RuntimeError> {
        match v {
            HValue::Int(_) => None,
            HValue::Ref(r) => match self.heap.get(r) {
                Ok(HeapObj::Con { id, fields }) if *id == ERROR_CON_INDEX => {
                    let code = fields
                        .first()
                        .and_then(|f| self.as_int(*f))
                        .unwrap_or(RuntimeError::Propagated.code());
                    Some(RuntimeError::from_code(code).unwrap_or(RuntimeError::Propagated))
                }
                Ok(HeapObj::Ind(inner)) => self.as_error(*inner),
                _ => None,
            },
        }
    }

    // -- operand resolution ---------------------------------------------------

    /// The value of operand `op`. A bare global allocates, which can
    /// collect: `pinned` are values the caller holds outside the roots,
    /// kept live and relocated in place.
    fn resolve(&mut self, op: Operand, pinned: &mut [HValue]) -> Result<HValue, HwError> {
        match op.source {
            Source::Imm => Ok(HValue::Int(op.index)),
            Source::Local => {
                let frame = self.top_frame()?;
                frame
                    .locals
                    .get(op.index as usize)
                    .copied()
                    .ok_or(HwError::BadState("local operand out of range"))
            }
            Source::Arg => {
                let frame = self.top_frame()?;
                frame
                    .args
                    .get(op.index as usize)
                    .copied()
                    .ok_or(HwError::BadState("argument operand out of range"))
            }
            Source::Global => {
                // A bare global in operand position denotes the (empty)
                // application of that global — allocate its closure.
                let id = op.index as u32;
                let r = self.alloc_gc_pinned(
                    HeapObj::App {
                        target: AppTarget::Global(id),
                        args: vec![],
                    },
                    pinned,
                )?;
                Ok(HValue::Ref(r))
            }
        }
    }

    fn item(&self, id: u32) -> Option<&ItemMeta> {
        id.checked_sub(FIRST_USER_INDEX)
            .and_then(|i| self.items.get(i as usize))
    }

    /// Emit [`Event::CoroutineEnter`] or [`Event::CoroutineExit`] if frames
    /// of `item` are marked as a coroutine. The traced half of a frame push
    /// or pop: only the caller's sink check is on the untraced path.
    #[cold]
    #[inline(never)]
    fn trace_coroutine(&mut self, item: u32, enter: bool) {
        if let Some(&id) = self.coroutines.get(&item) {
            self.flush_cycles();
            self.sink.emit(|| {
                if enter {
                    Event::CoroutineEnter { id }
                } else {
                    Event::CoroutineExit { id }
                }
            });
        }
    }

    /// Push an `Update` continuation, squeezing a directly-enclosing update
    /// frame into an indirection (constant-space tail recursion).
    fn push_update(&mut self, r: HeapRef) -> Result<(), HwError> {
        if let Some(Cont::Update(t)) = self.conts.last() {
            let t = *t;
            *self.heap.get_mut(t)? = HeapObj::Ind(HValue::Ref(r));
            self.conts.pop();
        }
        self.conts.push(Cont::Update(r));
        Ok(())
    }

    fn top_frame(&self) -> Result<&Frame, HwError> {
        self.frames
            .last()
            .ok_or(HwError::BadState("no active frame"))
    }

    fn top_frame_mut(&mut self) -> Result<&mut Frame, HwError> {
        self.frames
            .last_mut()
            .ok_or(HwError::BadState("no active frame"))
    }

    /// Pop the top frame, announce a coroutine exit if its item is marked,
    /// and keep its buffers for reuse.
    fn retire_frame(&mut self) -> Result<(), HwError> {
        let frame = self
            .frames
            .pop()
            .ok_or(HwError::BadState("no active frame"))?;
        if self.sink.enabled() {
            self.trace_coroutine(frame.item, false);
        }
        self.heap.recycle(frame.args);
        let mut locals = frame.locals;
        if self.spare_locals.len() < SPARE_LOCALS {
            locals.clear();
            self.spare_locals.push(locals);
        }
        Ok(())
    }

    /// Overwrite heap cell `r` with `obj`, returning the old object's
    /// payload buffer (empty if it had none) so it can be moved elsewhere
    /// instead of copied.
    fn replace_cell(&mut self, r: HeapRef, obj: HeapObj) -> Result<Vec<HValue>, HwError> {
        Ok(match std::mem::replace(self.heap.get_mut(r)?, obj) {
            HeapObj::App { args: buf, .. } | HeapObj::Con { fields: buf, .. } => buf,
            HeapObj::Ind(_) | HeapObj::BlackHole | HeapObj::Forwarded(_) => Vec::new(),
        })
    }

    /// Split an over-application: the arguments beyond `arity` move to an
    /// `Apply` continuation that applies the result to them.
    fn push_surplus(&mut self, args: &mut Vec<HValue>, arity: usize) {
        if args.len() > arity {
            let mut rest = self.heap.payload_buf(args.len() - arity);
            rest.extend(args.drain(arity..));
            self.conts.push(Cont::Apply(rest));
        }
    }

    fn code_word(&self, pc: usize) -> Result<Word, HwError> {
        self.image
            .words()
            .get(pc)
            .copied()
            .ok_or(HwError::BadState("program counter out of range"))
    }

    // -- main loop ------------------------------------------------------------

    fn run_machine(
        &mut self,
        mut state: State,
        ports: &mut dyn IoPorts,
    ) -> Result<HValue, HwError> {
        loop {
            if let Some(limit) = self.cycle_limit {
                if self.stats.total_cycles() > limit {
                    self.flush_cycles();
                    return Err(HwError::CycleLimit(limit));
                }
            }
            state = match state {
                State::Exec => self.step_exec()?,
                State::Force(v) => self.step_force(v)?,
                State::Return(v) => match self.step_return(v, ports)? {
                    Some(next) => next,
                    None => {
                        self.flush_cycles();
                        return Ok(v);
                    }
                },
            };
        }
    }

    fn step_exec(&mut self) -> Result<State, HwError> {
        let pc = self.top_frame()?.pc;
        let w = self.code_word(pc)?;
        match word_tag(w) {
            TAG_LET => {
                self.begin_instr(Class::Let, pc);
                self.charge(self.cost.let_base);
                let (nargs, callee) =
                    unpack_let_head(w).ok_or(HwError::BadState("malformed let head"))?;
                self.stats.let_args += nargs as u64;
                let mut args = self.heap.payload_buf(nargs);
                for i in 0..nargs {
                    self.charge(self.cost.let_per_arg);
                    let aw = self.code_word(pc + 1 + i)?;
                    let op =
                        unpack_operand_word(aw).ok_or(HwError::BadState("malformed operand"))?;
                    // The arguments resolved so far are not rooted yet.
                    let v = self.resolve(op, &mut args)?;
                    args.push(v);
                }
                let target = match callee.source {
                    Source::Global => AppTarget::Global(callee.index as u32),
                    _ => AppTarget::Value(self.resolve(callee, &mut [])?),
                };
                let r = self.alloc_gc(HeapObj::App { target, args })?;
                let frame = self.top_frame_mut()?;
                frame.locals.push(HValue::Ref(r));
                frame.pc = pc + 1 + nargs;
                if self.eager {
                    // Ablation: demand the application now. The local slot
                    // keeps the reference; the thunk updates in place.
                    self.conts.push(Cont::ResumeExec);
                    return Ok(State::Force(HValue::Ref(r)));
                }
                Ok(State::Exec)
            }
            TAG_CASE => {
                self.begin_instr(Class::Case, pc);
                self.charge(self.cost.case_base);
                let op = unpack_operand_word(w).ok_or(HwError::BadState("malformed operand"))?;
                let scrutinee = self.resolve(op, &mut [])?;
                self.top_frame_mut()?.pc = pc + 1;
                self.conts.push(Cont::CaseDispatch);
                Ok(State::Force(scrutinee))
            }
            TAG_RESULT => {
                self.begin_instr(Class::Result, pc);
                self.charge(self.cost.result_base);
                let op = unpack_operand_word(w).ok_or(HwError::BadState("malformed operand"))?;
                let v = self.resolve(op, &mut [])?;
                self.retire_frame()?;
                Ok(State::Force(v))
            }
            _ => Err(HwError::BadState("unknown instruction tag")),
        }
    }

    fn step_force(&mut self, v: HValue) -> Result<State, HwError> {
        let r = match v {
            HValue::Int(_) => return Ok(State::Return(v)),
            HValue::Ref(r) => r,
        };
        match self.heap.get(r)? {
            HeapObj::Con { .. } => Ok(State::Return(v)),
            HeapObj::Ind(inner) => {
                let inner = *inner;
                self.charge(self.cost.ref_check);
                Ok(State::Force(inner))
            }
            HeapObj::BlackHole => Err(HwError::InfiniteLoop),
            HeapObj::Forwarded(_) => Err(HwError::BadState("forwarding pointer outside GC")),
            HeapObj::App { target, args } => match *target {
                AppTarget::Value(tv) => {
                    self.charge(self.cost.ref_check);
                    self.push_update(r)?;
                    let args = self.replace_cell(r, HeapObj::BlackHole)?;
                    self.conts.push(Cont::Apply(args));
                    Ok(State::Force(tv))
                }
                AppTarget::Global(id) => {
                    let nargs = args.len();
                    self.force_global(r, id, nargs)
                }
            },
        }
    }

    /// Force an application of global `id` held in cell `r`, which has
    /// `nargs` arguments. Only the branches that consume the arguments
    /// take them out of the cell; a partial application stays as it is.
    fn force_global(&mut self, r: HeapRef, id: u32, nargs: usize) -> Result<State, HwError> {
        if let Some(op) = PrimOp::from_index(id) {
            let arity = op.arity();
            if nargs < arity {
                self.charge(self.cost.pap_check);
                return Ok(State::Return(HValue::Ref(r)));
            }
            self.push_update(r)?;
            let mut args = self.replace_cell(r, HeapObj::BlackHole)?;
            self.push_surplus(&mut args, arity);
            let (first, pending) = match args[..] {
                [a] => (a, None),
                [a, b] => (a, Some(b)),
                _ => return Err(HwError::BadState("primitive arity above two")),
            };
            self.heap.recycle(args);
            self.conts.push(Cont::PrimArgs {
                op,
                pending,
                ints: [0; 2],
            });
            return Ok(State::Force(first));
        }

        if id == ERROR_CON_INDEX {
            // The error constructor: applying it produces an error value.
            let code = match self.heap.get(r)?.payload().first() {
                Some(HValue::Int(n)) => *n,
                _ => RuntimeError::Propagated.code(),
            };
            *self.heap.get_mut(r)? = HeapObj::Con {
                id: ERROR_CON_INDEX,
                fields: vec![HValue::Int(code)],
            };
            return Ok(State::Return(HValue::Ref(r)));
        }

        let &ItemMeta {
            arity,
            locals,
            is_con,
            body_off,
            ..
        } = self.item(id).ok_or(HwError::UnknownItem(id))?;
        if is_con {
            match nargs.cmp(&arity) {
                std::cmp::Ordering::Less => {
                    self.charge(self.cost.pap_check);
                    Ok(State::Return(HValue::Ref(r)))
                }
                std::cmp::Ordering::Equal => {
                    self.charge(self.cost.update);
                    let fields = self.replace_cell(r, HeapObj::BlackHole)?;
                    *self.heap.get_mut(r)? = HeapObj::Con { id, fields };
                    Ok(State::Return(HValue::Ref(r)))
                }
                std::cmp::Ordering::Greater => {
                    // The error allocation may collect; keep the thunk
                    // reachable and re-read its (possibly moved) location.
                    let slot = self.push_root(HValue::Ref(r));
                    let e = self.error_value(RuntimeError::ConOverApplied)?;
                    let r = match self.roots.swap_remove(slot) {
                        HValue::Ref(r) => r,
                        HValue::Int(_) => {
                            return Err(HwError::BadState("rooted thunk became an integer"))
                        }
                    };
                    self.charge(self.cost.update);
                    *self.heap.get_mut(r)? = HeapObj::Ind(e);
                    Ok(State::Return(e))
                }
            }
        } else {
            if nargs < arity {
                self.charge(self.cost.pap_check);
                return Ok(State::Return(HValue::Ref(r)));
            }
            self.push_update(r)?;
            let mut args = self.replace_cell(r, HeapObj::BlackHole)?;
            self.push_surplus(&mut args, arity);
            self.charge(self.cost.enter_fun);
            if self.sink.enabled() {
                self.trace_coroutine(id, true);
            }
            let mut locals_buf = self.spare_locals.pop().unwrap_or_default();
            locals_buf.reserve(locals);
            self.frames.push(Frame {
                item: id,
                args,
                locals: locals_buf,
                pc: body_off,
            });
            Ok(State::Exec)
        }
    }

    /// Deliver a WHNF to the innermost continuation. `Ok(None)` means the
    /// continuation stack is empty — `v` is the final answer.
    fn step_return(
        &mut self,
        v: HValue,
        ports: &mut dyn IoPorts,
    ) -> Result<Option<State>, HwError> {
        let cont = match self.conts.pop() {
            Some(c) => c,
            None => {
                debug_assert!(self.frames.is_empty(), "value with live frames");
                return Ok(None);
            }
        };
        match cont {
            Cont::Update(t) => {
                self.charge(self.cost.update);
                *self.heap.get_mut(t)? = HeapObj::Ind(v);
                Ok(Some(State::Return(v)))
            }
            Cont::Apply(more) => {
                if self.is_error(v) {
                    return Ok(Some(State::Return(v)));
                }
                match v {
                    HValue::Int(_) => {
                        let e = self.error_value(RuntimeError::ApplyToInt)?;
                        Ok(Some(State::Return(e)))
                    }
                    HValue::Ref(r) => match self.heap.get(r)? {
                        HeapObj::Con { .. } => {
                            let e = self.error_value(RuntimeError::ApplyToCon)?;
                            Ok(Some(State::Return(e)))
                        }
                        HeapObj::App { target, args } => {
                            // A PAP: extend a copy of it with the new
                            // arguments; the PAP itself may be shared.
                            let (target, n) = (*target, args.len());
                            let mut all = self.heap.payload_buf(n + more.len());
                            all.extend_from_slice(self.heap.get(r)?.payload());
                            all.extend_from_slice(&more);
                            self.heap.recycle(more);
                            self.charge(self.cost.pap_extend);
                            let nr = self.alloc_gc(HeapObj::App { target, args: all })?;
                            Ok(Some(State::Force(HValue::Ref(nr))))
                        }
                        _ => Err(HwError::BadState("apply to a non-WHNF value")),
                    },
                }
            }
            Cont::CaseDispatch => self.case_dispatch(v).map(Some),
            Cont::ResumeExec => Ok(Some(State::Exec)),
            Cont::PrimArgs {
                op,
                pending,
                mut ints,
            } => {
                if self.is_error(v) {
                    return Ok(Some(State::Return(v)));
                }
                let n = match v {
                    HValue::Int(n) => n,
                    HValue::Ref(_) => {
                        let e = self.error_value(RuntimeError::PrimOnNonInt)?;
                        return Ok(Some(State::Return(e)));
                    }
                };
                self.charge(self.cost.prim_fetch);
                if let Some(next) = pending {
                    // The first of two operands.
                    ints[0] = n;
                    self.conts.push(Cont::PrimArgs {
                        op,
                        pending: None,
                        ints,
                    });
                    return Ok(Some(State::Force(next)));
                }
                let ints = if op.arity() == 1 {
                    ints[0] = n;
                    &ints[..1]
                } else {
                    ints[1] = n;
                    &ints[..]
                };
                // Saturated: execute.
                self.charge(self.cost.prim_op);
                let result = match op {
                    PrimOp::GetInt => {
                        self.charge(self.cost.io_port);
                        let n = ports.getint(ints[0])?;
                        self.sink.emit(|| Event::IoRead {
                            port: ints[0] as i64,
                            value: n as i64,
                        });
                        HValue::Int(n)
                    }
                    PrimOp::PutInt => {
                        self.charge(self.cost.io_port);
                        let n = ports.putint(ints[0], ints[1])?;
                        self.sink.emit(|| Event::IoWrite {
                            port: ints[0] as i64,
                            value: ints[1] as i64,
                        });
                        HValue::Int(n)
                    }
                    PrimOp::Gc => {
                        let report = self.do_gc(&mut [])?;
                        HValue::Int(report.words_reclaimed as Int)
                    }
                    _ => match op.eval_pure(ints) {
                        Ok(n) => HValue::Int(n),
                        Err(e) => self.error_value(e)?,
                    },
                };
                Ok(Some(State::Return(result)))
            }
        }
    }

    /// Scan the pattern words of the suspended `case` against the WHNF
    /// scrutinee. Each branch head costs exactly one cycle.
    fn case_dispatch(&mut self, v: HValue) -> Result<State, HwError> {
        // Error scrutinee: the whole function yields the error.
        if self.is_error(v) {
            self.retire_frame()?;
            return Ok(State::Force(v));
        }
        enum Scrut {
            Int(Int),
            /// A constructor: its identifier and the cell holding it.
            Con(u32, HeapRef),
            Closure,
        }
        let scrut = match v {
            HValue::Int(n) => Scrut::Int(n),
            HValue::Ref(r) => match self.heap.get(r)? {
                HeapObj::Con { id, .. } => Scrut::Con(*id, r),
                HeapObj::App { .. } => Scrut::Closure,
                _ => return Err(HwError::BadState("case scrutinee is not in WHNF")),
            },
        };
        if let Scrut::Closure = scrut {
            let e = self.error_value(RuntimeError::CaseOnClosure)?;
            self.retire_frame()?;
            return Ok(State::Force(e));
        }

        self.class = Class::Case;
        let mut pc = self.top_frame()?.pc;
        loop {
            let w = self.code_word(pc)?;
            match word_tag(w) {
                TAG_ELSE => {
                    pc += 1;
                    break;
                }
                TAG_PAT_LIT => {
                    self.begin_instr(Class::BranchHead, pc);
                    self.charge(self.cost.branch_head);
                    self.class = Class::Case;
                    let value = self.code_word(pc + 1)? as Int;
                    if let Scrut::Int(n) = scrut {
                        if n == value {
                            pc += 2;
                            break;
                        }
                    }
                    pc += 2 + unpack_pattern_skip(w);
                }
                TAG_PAT_CON => {
                    self.begin_instr(Class::BranchHead, pc);
                    self.charge(self.cost.branch_head);
                    self.class = Class::Case;
                    let want = self.code_word(pc + 1)?;
                    if let Scrut::Con(id, r) = scrut {
                        if id == want {
                            // Bind the fields into consecutive local slots,
                            // straight from the heap cell.
                            let fields = self.heap.get(r)?.payload();
                            let frame = self
                                .frames
                                .last_mut()
                                .ok_or(HwError::BadState("no active frame"))?;
                            frame.locals.extend_from_slice(fields);
                            let nf = fields.len() as u64;
                            self.charge(self.cost.bind_field * nf);
                            pc += 2;
                            break;
                        }
                    }
                    pc += 2 + unpack_pattern_skip(w);
                }
                _ => return Err(HwError::BadState("unknown pattern tag")),
            }
        }
        self.top_frame_mut()?.pc = pc;
        Ok(State::Exec)
    }

    // -- value extraction -----------------------------------------------------

    /// Read field `i` of a weak-head-normal constructor value (following
    /// indirections). Hosts use this to deconstruct results — e.g. pull the
    /// new state out of a `Pair state out` — without deep-forcing.
    pub fn con_field(&self, v: HValue, i: usize) -> Option<HValue> {
        match v {
            HValue::Int(_) => None,
            HValue::Ref(r) => match self.heap.get(r) {
                Ok(HeapObj::Con { fields, .. }) => fields.get(i).copied(),
                Ok(HeapObj::Ind(inner)) => self.con_field(*inner, i),
                _ => None,
            },
        }
    }

    /// View a WHNF value as an integer, if it is one.
    pub fn as_int(&self, v: HValue) -> Option<Int> {
        match v {
            HValue::Int(n) => Some(n),
            HValue::Ref(r) => match self.heap.get(r) {
                Ok(HeapObj::Ind(inner)) => self.as_int(*inner),
                _ => None,
            },
        }
    }

    /// Deep-force a value and convert it into the reference semantics'
    /// [`Value`] type for differential comparison. Fields of constructors
    /// are forced recursively; partial applications convert to closures
    /// with their applied arguments.
    pub fn deep_value(&mut self, v: HValue, ports: &mut dyn IoPorts) -> Result<V, HwError> {
        let w = self.run_machine(State::Force(v), ports)?;
        match w {
            HValue::Int(n) => Ok(Value::int(n)),
            HValue::Ref(r) => match self.heap.get(r)?.clone() {
                HeapObj::Con { id, fields } => {
                    if id == ERROR_CON_INDEX {
                        let code = fields
                            .first()
                            .and_then(|f| self.as_int(*f))
                            .unwrap_or(RuntimeError::Propagated.code());
                        return Ok(Value::error(
                            RuntimeError::from_code(code).unwrap_or(RuntimeError::Propagated),
                        ));
                    }
                    let out = self.deep_fields(&fields, ports)?;
                    Ok(Value::con(self.item_name(id), out))
                }
                HeapObj::App { target, args } => {
                    let t = match target {
                        AppTarget::Global(id) => match PrimOp::from_index(id) {
                            Some(p) => ClosureTarget::Prim(p),
                            None => {
                                let name = self.item_name(id);
                                if self.item(id).map(|m| m.is_con).unwrap_or(false) {
                                    ClosureTarget::Con(name)
                                } else {
                                    ClosureTarget::Fn(name)
                                }
                            }
                        },
                        AppTarget::Value(_) => {
                            return Err(HwError::BadState("WHNF app without a global target"))
                        }
                    };
                    let out = self.deep_fields(&args, ports)?;
                    Ok(Value::closure(t, out))
                }
                HeapObj::Ind(inner) => self.deep_value(inner, ports),
                _ => Err(HwError::BadState("deep_value on a non-WHNF object")),
            },
        }
    }

    /// Deep-force a payload vector, keeping the not-yet-forced slots rooted
    /// so a collection triggered mid-way cannot invalidate them.
    fn deep_fields(
        &mut self,
        fields: &[HValue],
        ports: &mut dyn IoPorts,
    ) -> Result<Vec<V>, HwError> {
        let base = self.roots.len();
        self.roots.extend_from_slice(fields);
        let mut out = Vec::with_capacity(fields.len());
        for i in 0..fields.len() {
            let f = self.roots[base + i];
            match self.deep_value(f, ports) {
                Ok(v) => out.push(v),
                Err(e) => {
                    self.roots.truncate(base);
                    return Err(e);
                }
            }
        }
        self.roots.truncate(base);
        Ok(out)
    }

    fn item_name(&self, id: u32) -> std::rc::Rc<str> {
        match self.item(id).and_then(|m| m.name.clone()) {
            Some(n) => n.as_str().into(),
            None => format!("g_{id:x}").as_str().into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zarf_asm::{lower, parse};
    use zarf_core::io::{NullPorts, VecPorts};

    fn hw(src: &str) -> Hw {
        Hw::from_machine(&lower(&parse(src).unwrap()).unwrap()).unwrap()
    }

    fn run_int(src: &str) -> Int {
        let mut h = hw(src);
        let v = h.run(&mut NullPorts).unwrap();
        h.as_int(v).expect("integer result")
    }

    /// The host layout of the λ-machine's state. Widening the tagged word
    /// (say, back to a `usize` reference) doubles the bytes of every
    /// payload slot, frame argument and local, and root, and slows the E2
    /// run by about a third; this test fails first.
    #[test]
    fn host_layout_keeps_the_32_bit_word() {
        use std::mem::size_of;
        let why = "see DESIGN.md §4, \"Host representation\"";
        assert_eq!(
            size_of::<HValue>(),
            8,
            "HValue is one 8-byte tagged word; {why}"
        );
        assert!(
            size_of::<HeapObj>() <= 40,
            "HeapObj grew to {} bytes; {why}",
            size_of::<HeapObj>()
        );
        assert!(
            size_of::<Cont>() <= 32,
            "Cont grew to {} bytes; {why}",
            size_of::<Cont>()
        );
    }

    /// `heap_words` reaches the machine from untrusted clients (the fleet's
    /// session config): a semispace whose objects would outnumber 32-bit
    /// references is a typed refusal at every constructor, never a panic
    /// or a wrapped index.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn oversized_heap_is_refused_at_construction() {
        let program = lower(&parse("fun main =\n result 1").unwrap()).unwrap();
        let words = zarf_asm::encode(&program).unwrap();
        for heap_words in [(1 << 33) + 1, 1 << 34, usize::MAX] {
            let config = HwConfig {
                heap_words,
                ..HwConfig::default()
            };
            assert_eq!(
                Hw::load_with(&words, config.clone()).err(),
                Some(HwError::HeapTooLarge(heap_words))
            );
            assert_eq!(
                Hw::from_machine_with(&program, config).err(),
                Some(HwError::HeapTooLarge(heap_words))
            );
        }
        let config = HwConfig {
            heap_words: 1 << 33,
            ..HwConfig::default()
        };
        let mut hw = Hw::load_with(&words, config).unwrap();
        let v = hw.run(&mut NullPorts).unwrap();
        assert_eq!(hw.as_int(v), Some(1));
    }

    #[test]
    fn arithmetic() {
        assert_eq!(run_int("fun main =\n let a = add 20 22 in\n result a"), 42);
    }

    #[test]
    fn laziness_unused_lets_never_evaluate() {
        // An unused division by zero must not fault a lazy machine.
        let src = "fun main =\n let bad = div 1 0 in\n let ok = add 1 2 in\n result ok";
        assert_eq!(run_int(src), 3);
    }

    #[test]
    fn case_forces_and_dispatches() {
        let src = r#"
fun main =
  let x = add 1 2 in
  case x of
  | 3 => result 30
  | 4 => result 40
  else result 0
"#;
        assert_eq!(run_int(src), 30);
    }

    #[test]
    fn constructor_match_binds_fields() {
        let src = r#"
con Pair a b
fun main =
  let p = Pair 6 7 in
  case p of
  | Pair a b =>
    let m = mul a b in
    result m
  else result 0
"#;
        assert_eq!(run_int(src), 42);
    }

    #[test]
    fn recursion_map_sum() {
        let src = r#"
con Nil
con Cons head tail
fun map f list =
  case list of
  | Nil =>
    let e = Nil in
    result e
  | Cons x rest =>
    let x' = f x in
    let rest' = map f rest in
    let l = Cons x' rest' in
    result l
  else
    let e = Nil in
    result e
fun double n =
  let m = mul n 2 in
  result m
fun sum l =
  case l of
  | Nil => result 0
  | Cons h t =>
    let s = sum t in
    let r = add h s in
    result r
  else result -1
fun main =
  let nil = Nil in
  let l3 = Cons 3 nil in
  let l2 = Cons 2 l3 in
  let l1 = Cons 1 l2 in
  let d = double in
  let m = map d l1 in
  let s = sum m in
  result s
"#;
        assert_eq!(run_int(src), 12);
    }

    #[test]
    fn partial_application_and_over_application() {
        let src = r#"
fun addclo x =
  let c = add x in
  result c
fun main =
  let r = addclo 40 2 in
  result r
"#;
        assert_eq!(run_int(src), 42);
    }

    #[test]
    fn io_ordering_through_data_dependencies() {
        let src = r#"
fun main =
  let a = getint 0 in
  let b = add a 1 in
  let c = putint 1 b in
  result c
"#;
        let mut h = hw(src);
        let mut ports = VecPorts::new();
        ports.push_input(0, [41]);
        let v = h.run(&mut ports).unwrap();
        assert_eq!(h.as_int(v), Some(42));
        assert_eq!(ports.output(1), &[42]);
    }

    #[test]
    fn division_by_zero_produces_error_value() {
        let src = "fun main =\n let x = div 1 0 in\n result x";
        let mut h = hw(src);
        let v = h.run(&mut NullPorts).unwrap();
        let dv = h.deep_value(v, &mut NullPorts).unwrap();
        assert_eq!(&*dv, &Value::Error(RuntimeError::DivideByZero));
    }

    #[test]
    fn tail_recursion_runs_in_constant_space() {
        // count down from 200_000 — would overflow any per-call stack or
        // continuation growth.
        let src = r#"
fun count n =
  case n of
  | 0 => result 0
  else
    let m = sub n 1 in
    let r = count m in
    result r
fun main =
  let r = count 200000 in
  result r
"#;
        let mut h = Hw::from_machine_with(
            &lower(&parse(src).unwrap()).unwrap(),
            HwConfig {
                heap_words: 8 * 1024,
                ..HwConfig::default()
            },
        )
        .unwrap();
        let v = h.run(&mut NullPorts).unwrap();
        assert_eq!(h.as_int(v), Some(0));
        // Auto-GC must have run to keep 200k thunks inside 8k words.
        assert!(h.stats().gc_runs > 0);
    }

    #[test]
    fn infinite_loop_detected_as_black_hole() {
        // x demands itself: let x = add x 1 — lowering cannot express this
        // (no name is in scope before binding), so build a knot through a
        // function with its own argument... Simplest: a CAF that demands
        // itself via a global cycle.
        let src = r#"
fun loop =
  let x = loop in
  case x of
  | 0 => result 0
  else result 1
fun main =
  let l = loop in
  case l of
  | 0 => result 0
  else result 1
"#;
        let mut h = hw(src);
        let err = h.run(&mut NullPorts).unwrap_err();
        // Either the black hole is hit (self-demand through the thunk) or
        // the machine loops allocating; a cycle limit would also be fine.
        assert!(matches!(
            err,
            HwError::InfiniteLoop | HwError::OutOfMemory { .. }
        ));
    }

    #[test]
    fn cycle_limit_enforced() {
        let src = r#"
fun spin n =
  let m = add n 1 in
  let r = spin m in
  result r
fun main =
  let r = spin 0 in
  result r
"#;
        let mut h = Hw::from_machine_with(
            &lower(&parse(src).unwrap()).unwrap(),
            HwConfig {
                cycle_limit: Some(10_000),
                ..HwConfig::default()
            },
        )
        .unwrap();
        let err = h.run(&mut NullPorts).unwrap_err();
        assert_eq!(err, HwError::CycleLimit(10_000));
    }

    #[test]
    fn out_of_memory_without_auto_gc() {
        let src = r#"
fun spin n =
  let m = add n 1 in
  let r = spin m in
  result r
fun main =
  let r = spin 0 in
  result r
"#;
        let mut h = Hw::from_machine_with(
            &lower(&parse(src).unwrap()).unwrap(),
            HwConfig {
                heap_words: 256,
                gc_auto: false,
                ..HwConfig::default()
            },
        )
        .unwrap();
        let err = h.run(&mut NullPorts).unwrap_err();
        assert!(matches!(err, HwError::OutOfMemory { .. }));
    }

    #[test]
    fn gc_prim_reclaims_garbage() {
        let src = r#"
fun main =
  let g1 = add 1 2 in
  let g2 = add 3 4 in
  case g1 of
  | 3 =>
    let freed = gc 0 in
    case freed of
    | 0 => result -1
    else result freed
  else result -2
"#;
        let mut h = hw(src);
        let v = h.run(&mut NullPorts).unwrap();
        // g2 was never demanded and is garbage at gc time; some words are
        // reclaimed (exact count depends on transient objects).
        let freed = h.as_int(v).unwrap();
        assert!(freed > 0, "expected reclaimed words, got {freed}");
        assert_eq!(h.stats().gc_runs, 1);
    }

    #[test]
    fn stats_count_instruction_classes() {
        let src = r#"
fun main =
  let a = add 1 2 in
  case a of
  | 2 => result 0
  | 3 => result 1
  else result 2
"#;
        let mut h = hw(src);
        h.run(&mut NullPorts).unwrap();
        let s = h.stats();
        assert_eq!(s.lets.count, 1);
        assert_eq!(s.cases.count, 1);
        assert_eq!(s.results.count, 1);
        assert_eq!(s.branch_heads.count, 2); // checked | 2 then | 3
        assert_eq!(s.branch_heads.cycles, 2); // exactly 1 cycle each
        assert_eq!(s.let_args, 2);
        assert!(s.mutator_cycles() > 4);
    }

    #[test]
    fn call_persists_state_across_invocations() {
        let src = r#"
con Pair a b
fun step state input =
  let sum = add state input in
  let out = mul sum 2 in
  let p = Pair sum out in
  result p
fun main = result 0
"#;
        let mut h = hw(src);
        let mut ports = NullPorts;
        let mut state = HValue::Int(0);
        let slot = h.push_root(state);
        let mut outputs = Vec::new();
        for input in [1, 2, 3] {
            let p = h
                .call_by_name("step", vec![state, HValue::Int(input)], &mut ports)
                .unwrap();
            // Deconstruct the pair on the host side via deep_value.
            let dv = h.deep_value(p, &mut ports).unwrap();
            let (_, fields) = dv.as_con().unwrap();
            let new_state = fields[0].as_int().unwrap();
            outputs.push(fields[1].as_int().unwrap());
            state = HValue::Int(new_state);
            h.set_root(slot, state);
        }
        assert_eq!(outputs, vec![2, 6, 12]);
    }

    #[test]
    fn deep_value_agrees_with_reference_evaluator() {
        let src = r#"
con Nil
con Cons head tail
fun upto n =
  case n of
  | 0 =>
    let e = Nil in
    result e
  else
    let m = sub n 1 in
    let rest = upto m in
    let l = Cons n rest in
    result l
fun main =
  let l = upto 5 in
  result l
"#;
        let program = parse(src).unwrap();
        let expected = zarf_core::Evaluator::new(&program)
            .run(&mut NullPorts)
            .unwrap();
        let mut h = hw(src);
        let v = h.run(&mut NullPorts).unwrap();
        let got = h.deep_value(v, &mut NullPorts).unwrap();
        assert_eq!(got, expected);
    }

    #[test]
    fn malformed_binary_rejected_at_load() {
        let err = Hw::load(&[0x1234, 0]).unwrap_err();
        assert!(matches!(err, HwError::Load(DecodeError::BadMagic(_))));
    }

    #[test]
    fn closure_passed_and_applied_through_variable() {
        let src = r#"
fun apply f x =
  let r = f x in
  result r
fun triple n =
  let m = mul n 3 in
  result m
fun main =
  let t = triple in
  let r = apply t 14 in
  result r
"#;
        assert_eq!(run_int(src), 42);
    }

    /// A bare global in argument position allocates its closure while the
    /// `let` still holds the arguments resolved before it. The assembler
    /// never emits one, but an untrusted image can. Two host calls leave 8
    /// dead words, so at 14 and 15 heap words that allocation collects and
    /// moves `l0`; every size must still agree with the evaluator.
    #[test]
    fn let_keeps_resolved_args_live_across_a_global_operand() {
        use zarf_core::machine::{MExpr, MItemKind, MProgram, Operand};
        let src = r#"
con Pair a b
fun junk =
  let p = Pair in
  result p
fun main =
  let l0 = Pair 7 8 in
  let l1 = Pair l0 l0 in
  result l1
"#;
        // `g` is what the patched operand denotes: the empty application.
        let reference = r#"
con Pair a b
fun main =
  let l0 = Pair 7 8 in
  let g = Pair in
  let l1 = Pair l0 g in
  result l1
"#;
        let expected = zarf_core::Evaluator::new(&parse(reference).unwrap())
            .run(&mut NullPorts)
            .unwrap();
        let mut items = lower(&parse(src).unwrap()).unwrap().items().to_vec();
        let index = |name| items.iter().position(|it| it.name.as_deref() == Some(name));
        let pair = FIRST_USER_INDEX + index("Pair").unwrap() as u32;
        let main = index("main").unwrap();
        // `l1 = Pair l0 <global Pair>`.
        let MItemKind::Fun { body } = &mut items[main].kind else {
            panic!("main is a function");
        };
        let MExpr::Let { body, .. } = body else {
            panic!("main starts with a let");
        };
        let MExpr::Let { args, .. } = &mut **body else {
            panic!("main's second expression is a let");
        };
        args[1] = Operand::global(pair);
        let image = MProgram::new(items).unwrap();
        for heap_words in 12..=19 {
            let config = HwConfig {
                heap_words,
                ..HwConfig::default()
            };
            let mut h = Hw::from_machine_with(&image, config).unwrap();
            for _ in 0..2 {
                h.call_by_name("junk", vec![], &mut NullPorts).unwrap();
            }
            assert_eq!(h.heap.words_used(), 8, "dead words before main");
            let v = h.run(&mut NullPorts).unwrap();
            let got = h.deep_value(v, &mut NullPorts).unwrap();
            assert_eq!(got, expected, "heap_words {heap_words}");
        }
    }

    /// Forces one program through every `step_force` / `force_global`
    /// branch that consumes or inspects an application's arguments:
    /// a closure target; a primitive partially, exactly and over-applied;
    /// the error constructor; a constructor under-, exactly and
    /// over-applied; a function partially, exactly and over-applied; plus
    /// a collection while the results are half forced and a `case` that
    /// binds constructor fields. The counters and the whole NDJSON event
    /// stream are pinned exactly, so moving payloads instead of copying
    /// them can change neither the modeled cost nor the trace.
    #[test]
    fn every_force_branch_is_pinned_exactly() {
        use std::cell::RefCell;
        use std::io::Write;
        use std::rc::Rc;
        use zarf_trace::{NdjsonSink, SharedSink};

        #[derive(Clone, Default)]
        struct Buf(Rc<RefCell<Vec<u8>>>);
        impl Write for Buf {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.borrow_mut().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let src = r#"
con Pair a b
con All f1 f2 f3 f4 f5 f6 f7 f8 f9 f10 f11 f12 f13
fun add3 a b c =
  let s = add a b in
  let t = add s c in
  result t
fun mk a =
  let c = add a in
  result c
fun sum2 p =
  case p of
  | Pair a b =>
    let r = add a b in
    result r
  else result 0
fun main =
  let c = add 40 in
  let v1 = c 2 in
  let p = add 1 in
  let s = mul 6 7 in
  let o = add 1 2 3 in
  let u = Pair 1 in
  let e = Pair 1 2 in
  let x = Pair 1 2 3 in
  let fp = add3 1 in
  let g = gc 0 in
  let fe = add3 1 2 3 in
  let fo = mk 40 2 in
  let se = sum2 e in
  let r = All v1 p s o u e x fp g fe fo se c in
  result r
"#;
        let mut h = hw(src);
        let buf = Buf::default();
        let shared = SharedSink::new(NdjsonSink::new(buf.clone()));
        h.set_sink(Box::new(shared.clone()));
        let v = h.run(&mut NullPorts).unwrap();
        let deep = h.deep_value(v, &mut NullPorts).unwrap();
        let e = h
            .call(ERROR_CON_INDEX, vec![HValue::Int(3)], &mut NullPorts)
            .unwrap();
        assert!(h.as_error(e).is_some());
        h.collect_garbage().unwrap();
        drop(h.take_sink());
        let bytes = buf.0.borrow().clone();

        assert_eq!(
            format!("{deep:?}"),
            "Con { name: \"All\", fields: [Int(42), \
             Closure { target: Prim(Add), applied: [Int(1)] }, Int(42), \
             Error(ApplyToInt), Closure { target: Con(\"Pair\"), applied: [Int(1)] }, \
             Con { name: \"Pair\", fields: [Int(1), Int(2)] }, Error(ConOverApplied), \
             Closure { target: Fn(\"add3\"), applied: [Int(1)] }, Int(39), Int(6), \
             Int(42), Int(3), Closure { target: Prim(Add), applied: [Int(40)] }] }"
        );
        let class = |count, cycles| crate::stats::ClassStats { count, cycles };
        assert_eq!(
            *h.stats(),
            Stats {
                lets: class(18, 119),
                cases: class(1, 4),
                results: class(4, 101),
                branch_heads: class(1, 1),
                let_args: 42,
                gc_cycles: 132,
                gc_runs: 2,
                gc_objects_copied: 11,
                gc_words_copied: 36,
                load_cycles: 83,
                allocations: 24,
                words_allocated: 97,
                peak_live_words: 75,
            }
        );
        assert_eq!(bytes.len(), 4_583);
        assert_eq!(zarf_core::codec::crc32(&[&bytes]), 0x0a2a_3666);
    }
}
