//! The garbage-collected heap: a semispace tracing collector.
//!
//! The hardware implements "a semispace-based trace collector, so collection
//! time is based on the live set, not how much memory was used in all"
//! (§5.2). Costs follow the paper exactly: copying a live object of `N`
//! memory words takes `N + 4` cycles, and checking a reference that may
//! already have been collected takes 2 cycles.
//!
//! The collector is a Cheney-style breadth-first copy. Indirection objects
//! ([`HeapObj::Ind`]) are short-circuited during evacuation, so chains built
//! by thunk updates collapse at the first collection after they form.
//!
//! Host representation: evacuation *moves* each live object into to-space
//! (its from-space slot keeps only the forwarding value), and to-space is
//! the previous collection's from-space buffer, so a collection allocates
//! nothing once both semispaces have grown to the working set. The payload
//! buffers of garbage applications and constructors go to a small free
//! list, which new `let` payloads draw from and popped frames' argument
//! buffers return to. None of this is visible to the cost model: object
//! sizes are payload *lengths*.

use std::fmt;

use crate::cost::CostModel;
use crate::obj::{HValue, HeapObj, HeapRef};

/// Most payload buffers the free list keeps. One E2 kernel tick allocates
/// about 75 objects and collects once; below 128 spare buffers its ticks
/// start allocating again, so this keeps twice that while bounding what an
/// idle heap retains.
const SPARE_PAYLOADS: usize = 256;

/// Largest semispace a machine may be built with, in words. Every object
/// takes at least 2 words, so a semispace this size holds at most 2^32
/// objects and every object index fits a 32-bit [`HeapRef`].
pub const MAX_HEAP_WORDS: u64 = 1 << 33;

/// A reference that points outside the heap — a memory fault.
///
/// The simulator never produces one on its own; they arise from injected
/// bit flips (`zarf-chaos`) or corrupted images, and surface as a typed
/// machine error instead of a panic so the kernel watchdog can contain
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DanglingRef(pub HeapRef);

impl fmt::Display for DanglingRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dangling heap reference {:#x}", self.0)
    }
}

impl std::error::Error for DanglingRef {}

/// Outcome of a collection cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Live objects copied to to-space.
    pub objects_copied: u64,
    /// Live words copied (object sizes summed).
    pub words_copied: u64,
    /// Words reclaimed (used-before − used-after).
    pub words_reclaimed: u64,
    /// Cycles the collection consumed under the cost model.
    pub cycles: u64,
}

/// The semispace heap.
#[derive(Debug)]
pub struct Heap {
    objs: Vec<HeapObj>,
    words_used: usize,
    capacity_words: usize,
    /// The previous from-space, emptied: the next collection's to-space.
    to_space: Vec<HeapObj>,
    /// Cleared payload buffers ready for reuse, at most `SPARE_PAYLOADS`.
    spare_payloads: Vec<Vec<HValue>>,
}

impl Heap {
    /// A heap holding at most `capacity_words` 32-bit words per semispace.
    /// Capacities above [`MAX_HEAP_WORDS`] are clamped to it; the machine
    /// constructors refuse them with a typed error before getting here.
    pub fn new(capacity_words: usize) -> Self {
        Self::from_parts(capacity_words, Vec::new())
    }

    /// Words currently allocated.
    pub fn words_used(&self) -> usize {
        self.words_used
    }

    /// The semispace capacity in words.
    pub fn capacity_words(&self) -> usize {
        self.capacity_words
    }

    /// Number of objects in from-space (live + garbage).
    pub fn object_count(&self) -> usize {
        self.objs.len()
    }

    /// Every object in from-space, in allocation order. Snapshot capture
    /// and the integrity auditor walk this directly instead of probing
    /// references one at a time.
    pub fn objects(&self) -> &[HeapObj] {
        &self.objs
    }

    /// Rebuild a heap from a previously captured object vector (snapshot
    /// restore). `words_used` is recomputed from the objects themselves,
    /// so the invariant `words_used == Σ words()` holds by construction.
    pub fn from_parts(capacity_words: usize, objs: Vec<HeapObj>) -> Self {
        let words_used = objs.iter().map(|o| o.words()).sum();
        let max_words = usize::try_from(MAX_HEAP_WORDS).unwrap_or(usize::MAX);
        Heap {
            objs,
            words_used,
            capacity_words: capacity_words.min(max_words),
            to_space: Vec::new(),
            spare_payloads: Vec::new(),
        }
    }

    /// Allocate an object, returning its reference, or `None` if the
    /// semispace cannot hold it (caller should collect and retry).
    pub fn alloc(&mut self, obj: HeapObj) -> Option<HeapRef> {
        let w = obj.words();
        if self.words_used + w > self.capacity_words {
            return None;
        }
        // The capacity bound keeps the index below 2^32.
        let r = self.objs.len() as HeapRef;
        self.words_used += w;
        self.objs.push(obj);
        Some(r)
    }

    /// Read an object. A dangling reference (possible only after memory
    /// corruption, e.g. an injected bit flip) is reported as a typed fault.
    pub fn get(&self, r: HeapRef) -> Result<&HeapObj, DanglingRef> {
        self.objs.get(r as usize).ok_or(DanglingRef(r))
    }

    /// Mutate an object in place (thunk update).
    pub fn get_mut(&mut self, r: HeapRef) -> Result<&mut HeapObj, DanglingRef> {
        self.objs.get_mut(r as usize).ok_or(DanglingRef(r))
    }

    /// An empty payload buffer with room for `len` values, reused from the
    /// free list when one is spare. `len == 0` takes nothing from it.
    pub(crate) fn payload_buf(&mut self, len: usize) -> Vec<HValue> {
        if len == 0 {
            return Vec::new();
        }
        let mut buf = self.spare_payloads.pop().unwrap_or_default();
        buf.reserve(len);
        buf
    }

    /// Return a payload buffer to the free list, or free it when the list
    /// is full (buffers that never allocated are not worth keeping).
    pub(crate) fn recycle(&mut self, mut buf: Vec<HValue>) {
        if buf.capacity() > 0 && self.spare_payloads.len() < SPARE_PAYLOADS {
            buf.clear();
            self.spare_payloads.push(buf);
        }
    }

    /// Run a full collection. `roots` are rewritten in place to their
    /// to-space locations; everything unreachable from them is discarded.
    ///
    /// Tracing a dangling reference aborts the collection with a fault;
    /// the heap contents are unspecified afterwards (the machine that owns
    /// it is expected to stop running the current program).
    pub fn collect(
        &mut self,
        roots: &mut [HValue],
        cost: &CostModel,
    ) -> Result<GcReport, DanglingRef> {
        let mut report = GcReport {
            cycles: cost.gc_cycle_base,
            ..GcReport::default()
        };
        let before = self.words_used;

        let mut to = std::mem::take(&mut self.to_space);
        let mut to_words = 0usize;

        for r in roots.iter_mut() {
            *r = self.evacuate(*r, &mut to, &mut to_words, cost, &mut report)?;
        }

        // Cheney scan: evacuate everything the copied objects point to.
        let mut scan = 0;
        while scan < to.len() {
            // Take the payload out to satisfy the borrow checker; objects
            // are small so the move is cheap.
            let mut obj = std::mem::replace(&mut to[scan], HeapObj::BlackHole);
            match &mut obj {
                HeapObj::App { target, args } => {
                    if let crate::obj::AppTarget::Value(v) = target {
                        *v = self.evacuate(*v, &mut to, &mut to_words, cost, &mut report)?;
                    }
                    for a in args.iter_mut() {
                        *a = self.evacuate(*a, &mut to, &mut to_words, cost, &mut report)?;
                    }
                }
                HeapObj::Con { fields, .. } => {
                    for f in fields.iter_mut() {
                        *f = self.evacuate(*f, &mut to, &mut to_words, cost, &mut report)?;
                    }
                }
                HeapObj::Ind(v) => {
                    *v = self.evacuate(*v, &mut to, &mut to_words, cost, &mut report)?;
                }
                HeapObj::BlackHole | HeapObj::Forwarded(_) => {}
            }
            to[scan] = obj;
            scan += 1;
        }

        let mut from = std::mem::replace(&mut self.objs, to);
        self.words_used = to_words;
        report.words_reclaimed = (before - to_words.min(before)) as u64;
        // Live objects left only forwarding values behind; what still owns
        // a payload is garbage.
        for obj in from.drain(..) {
            match obj {
                HeapObj::App { args: buf, .. } | HeapObj::Con { fields: buf, .. } => {
                    self.recycle(buf)
                }
                HeapObj::Ind(_) | HeapObj::BlackHole | HeapObj::Forwarded(_) => {}
            }
        }
        self.to_space = from;
        Ok(report)
    }

    /// Evacuate one value: integers pass through; references are checked
    /// (2 cycles), then copied (`N + 4` cycles) unless already forwarded.
    /// Indirections are short-circuited to their payload. The host moves
    /// the object rather than cloning it: its from-space slot keeps only
    /// the forwarding value.
    fn evacuate(
        &mut self,
        v: HValue,
        to: &mut Vec<HeapObj>,
        to_words: &mut usize,
        cost: &CostModel,
        report: &mut GcReport,
    ) -> Result<HValue, DanglingRef> {
        let r = match v {
            HValue::Int(_) => return Ok(v),
            HValue::Ref(r) => r,
        };
        report.cycles += cost.gc_ref_check;
        let slot = self.objs.get_mut(r as usize).ok_or(DanglingRef(r))?;
        match *slot {
            HeapObj::Forwarded(dest) => Ok(dest),
            HeapObj::Ind(inner) => {
                // Short-circuit the indirection: its referent stands in for
                // it from now on.
                let dest = self.evacuate(inner, to, to_words, cost, report)?;
                *self.get_mut(r)? = HeapObj::Forwarded(dest);
                Ok(dest)
            }
            _ => {
                let dest = HValue::Ref(to.len() as HeapRef);
                let obj = std::mem::replace(slot, HeapObj::Forwarded(dest));
                let w = obj.words();
                report.cycles += cost.gc_copy_base + cost.gc_copy_per_word * w as u64;
                report.objects_copied += 1;
                report.words_copied += w as u64;
                *to_words += w;
                to.push(obj);
                Ok(dest)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obj::AppTarget;

    fn heap() -> Heap {
        Heap::new(1024)
    }

    #[test]
    fn alloc_tracks_words() {
        let mut h = heap();
        let r = h
            .alloc(HeapObj::Con {
                id: 0x101,
                fields: vec![HValue::Int(1)],
            })
            .unwrap();
        assert_eq!(h.words_used(), 3);
        assert!(matches!(h.get(r).unwrap(), HeapObj::Con { id: 0x101, .. }));
    }

    #[test]
    fn alloc_refuses_past_capacity() {
        let mut h = Heap::new(4);
        assert!(h.alloc(HeapObj::Ind(HValue::Int(0))).is_some()); // 2 words
        assert!(h.alloc(HeapObj::Ind(HValue::Int(0))).is_some()); // 4 words
        assert!(h.alloc(HeapObj::Ind(HValue::Int(0))).is_none()); // full
    }

    #[test]
    fn collect_drops_garbage_keeps_live() {
        let mut h = heap();
        let live = h
            .alloc(HeapObj::Con {
                id: 0x101,
                fields: vec![HValue::Int(7)],
            })
            .unwrap();
        let _garbage = h
            .alloc(HeapObj::Con {
                id: 0x102,
                fields: vec![HValue::Int(1), HValue::Int(2)],
            })
            .unwrap();
        let mut roots = [HValue::Ref(live)];
        let report = h.collect(&mut roots, &CostModel::default()).unwrap();
        assert_eq!(report.objects_copied, 1);
        assert_eq!(report.words_copied, 3);
        assert_eq!(report.words_reclaimed, 4);
        assert_eq!(h.words_used(), 3);
        match (
            roots[0],
            h.get(match roots[0] {
                HValue::Ref(r) => r,
                _ => panic!(),
            })
            .unwrap(),
        ) {
            (HValue::Ref(_), HeapObj::Con { id: 0x101, fields }) => {
                assert_eq!(fields, &[HValue::Int(7)]);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn shared_objects_copied_once() {
        let mut h = heap();
        let shared = h
            .alloc(HeapObj::Con {
                id: 0x101,
                fields: vec![],
            })
            .unwrap();
        let a = h
            .alloc(HeapObj::Con {
                id: 0x102,
                fields: vec![HValue::Ref(shared)],
            })
            .unwrap();
        let b = h
            .alloc(HeapObj::Con {
                id: 0x103,
                fields: vec![HValue::Ref(shared)],
            })
            .unwrap();
        let mut roots = [HValue::Ref(a), HValue::Ref(b)];
        let report = h.collect(&mut roots, &CostModel::default()).unwrap();
        assert_eq!(report.objects_copied, 3);
        // Sharing preserved: both parents point at the same copy.
        let fa = match h
            .get(match roots[0] {
                HValue::Ref(r) => r,
                _ => panic!(),
            })
            .unwrap()
        {
            HeapObj::Con { fields, .. } => fields[0],
            _ => panic!(),
        };
        let fb = match h
            .get(match roots[1] {
                HValue::Ref(r) => r,
                _ => panic!(),
            })
            .unwrap()
        {
            HeapObj::Con { fields, .. } => fields[0],
            _ => panic!(),
        };
        assert_eq!(fa, fb);
    }

    #[test]
    fn indirections_are_short_circuited() {
        let mut h = heap();
        let target = h
            .alloc(HeapObj::Con {
                id: 0x101,
                fields: vec![],
            })
            .unwrap();
        let ind = h.alloc(HeapObj::Ind(HValue::Ref(target))).unwrap();
        let holder = h
            .alloc(HeapObj::Con {
                id: 0x102,
                fields: vec![HValue::Ref(ind)],
            })
            .unwrap();
        let mut roots = [HValue::Ref(holder)];
        let report = h.collect(&mut roots, &CostModel::default()).unwrap();
        // The indirection itself is not copied: 2 objects, not 3.
        assert_eq!(report.objects_copied, 2);
        let field = match h
            .get(match roots[0] {
                HValue::Ref(r) => r,
                _ => panic!(),
            })
            .unwrap()
        {
            HeapObj::Con { fields, .. } => fields[0],
            _ => panic!(),
        };
        match field {
            HValue::Ref(r) => assert!(matches!(h.get(r).unwrap(), HeapObj::Con { id: 0x101, .. })),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn indirection_to_int_becomes_int() {
        let mut h = heap();
        let ind = h.alloc(HeapObj::Ind(HValue::Int(42))).unwrap();
        let mut roots = [HValue::Ref(ind)];
        let report = h.collect(&mut roots, &CostModel::default()).unwrap();
        assert_eq!(report.objects_copied, 0);
        assert_eq!(roots[0], HValue::Int(42));
    }

    #[test]
    fn gc_cost_matches_paper_formula() {
        let mut h = heap();
        // One live 4-word object (2 fields), referenced once.
        let live = h
            .alloc(HeapObj::Con {
                id: 0x101,
                fields: vec![HValue::Int(1), HValue::Int(2)],
            })
            .unwrap();
        let mut roots = [HValue::Ref(live)];
        let cost = CostModel::default();
        let report = h.collect(&mut roots, &cost).unwrap();
        // base + ref check (2) + copy (N + 4 with N = 4)
        let expected = cost.gc_cycle_base + 2 + (4 + 4);
        assert_eq!(report.cycles, expected);
    }

    /// E9, pinned exactly: a semispace pause is linear in the live set,
    /// not in total allocation. `live` 2-field list cells (4 words each,
    /// one reference apiece) cost the 8-cycle base plus `(N + 4) + 2 = 10`
    /// cycles per cell, whether 1× or 3× as much same-shape garbage sits
    /// beside them.
    #[test]
    fn e9_pause_is_linear_in_the_live_set_not_allocation() {
        let cell = |head, tail| HeapObj::Con {
            id: 0x102,
            fields: vec![head, tail],
        };
        for (live, cycles) in [(100u64, 1_008), (1_000, 10_008), (10_000, 100_008)] {
            for garbage in [1, 3] {
                let mut h = Heap::new(1 << 22);
                let mut list = HValue::Int(0);
                for i in 0..live {
                    list = HValue::Ref(h.alloc(cell(HValue::Int(i as i32), list)).unwrap());
                    for _ in 0..garbage {
                        h.alloc(cell(HValue::Int(-1), HValue::Int(-1))).unwrap();
                    }
                }
                let report = h.collect(&mut [list], &CostModel::default()).unwrap();
                let at = format!("live {live}, garbage {garbage}x");
                assert_eq!(report.cycles, cycles, "{at}");
                assert_eq!(report.objects_copied, live, "{at}");
                assert_eq!(report.words_copied, 4 * live, "{at}");
                assert_eq!(report.words_reclaimed, 4 * live * garbage, "{at}");
            }
        }
    }

    #[test]
    fn app_targets_are_scanned() {
        let mut h = heap();
        let pap = h
            .alloc(HeapObj::App {
                target: AppTarget::Global(0x005),
                args: vec![HValue::Int(1)],
            })
            .unwrap();
        let app = h
            .alloc(HeapObj::App {
                target: AppTarget::Value(HValue::Ref(pap)),
                args: vec![HValue::Int(2)],
            })
            .unwrap();
        let mut roots = [HValue::Ref(app)];
        let report = h.collect(&mut roots, &CostModel::default()).unwrap();
        assert_eq!(report.objects_copied, 2, "the target closure must survive");
    }

    #[test]
    fn cyclic_structures_survive() {
        // App can reference itself through args (built by knot-tying in
        // the machine); the collector must terminate and preserve it.
        let mut h = heap();
        let r = h
            .alloc(HeapObj::App {
                target: AppTarget::Global(0x100),
                args: vec![HValue::Int(0)],
            })
            .unwrap();
        if let HeapObj::App { args, .. } = h.get_mut(r).unwrap() {
            args[0] = HValue::Ref(r);
        }
        let mut roots = [HValue::Ref(r)];
        let report = h.collect(&mut roots, &CostModel::default()).unwrap();
        assert_eq!(report.objects_copied, 1);
        let nr = match roots[0] {
            HValue::Ref(x) => x,
            _ => panic!(),
        };
        match h.get(nr).unwrap() {
            HeapObj::App { args, .. } => assert_eq!(args[0], HValue::Ref(nr)),
            other => panic!("unexpected {other:?}"),
        }
    }
}
