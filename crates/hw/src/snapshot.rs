//! Crash-consistent machine snapshots.
//!
//! A [`MachineSnapshot`] is a GC-style compacting copy of everything the
//! λ-machine needs to resume at a quiescent point: the validated binary
//! image, the retained symbol table, the live heap (compacted exactly the
//! way [`Heap::collect`](crate::Heap) would lay it out), the host roots,
//! and the cycle accounting. Restoring one yields a machine that is
//! *trace-equivalent going forward* — the event stream it produces from
//! the resume point is byte-identical to what the uninterrupted machine
//! would have produced.
//!
//! The byte format is deliberately dumb: a magic/version header followed
//! by tagged sections, each independently CRC-32 checksummed. Sections
//! with tags below [`FIRST_EMBEDDER_TAG`] belong to the machine layer;
//! embedders (the kernel) append their own sections above it in the same
//! container. Every decode path returns a typed [`SnapshotError`] — a
//! corrupt snapshot is an *expected input*, never a panic.
//!
//! Trust comes from the auditor, not the checksum: a snapshot heap is
//! strictly audited (see [`crate::audit`]) both when captured and before
//! it is allowed to overwrite a live machine.

use std::fmt;
use std::rc::Rc;

use zarf_core::codec::{
    crc32, put_i32, put_string, put_u32, put_u64, put_words, CodecError, Reader,
};
use zarf_core::Word;

use crate::audit::{audit_objects, AuditError};
use crate::heap::{Heap, MAX_HEAP_WORDS};
use crate::machine::{Hw, HwConfig, HwError};
use crate::obj::{AppTarget, HValue, HeapObj, HeapRef};
use crate::stats::{Class, ClassStats, Stats};

/// First four bytes of every snapshot container.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"ZSNP";
/// Current container format version.
pub const SNAPSHOT_VERSION: u32 = 1;
/// Section tags at or above this value belong to the embedder (the
/// kernel); the machine layer ignores them when decoding.
pub const FIRST_EMBEDDER_TAG: u32 = 16;

/// Machine-layer section tags.
const TAG_CODE: u32 = 1;
const TAG_NAMES: u32 = 2;
const TAG_HEAP: u32 = 3;
const TAG_ROOTS: u32 = 4;
const TAG_STATS: u32 = 5;
const TAG_CONTROL: u32 = 6;

/// Why a snapshot could not be captured, decoded, or restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Capture requires quiescence: no call may be in flight.
    MachineBusy,
    /// Capture followed a reference that points outside the heap.
    Dangling(HeapRef),
    /// Capture found a GC forwarding pointer in a supposedly stable heap.
    ForwardedLive(HeapRef),
    /// The byte stream ended before the structure it promised.
    Truncated,
    /// The container does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The container's version is not [`SNAPSHOT_VERSION`].
    BadVersion(u32),
    /// A section tag this decoder does not recognise.
    UnknownSection(u32),
    /// The same section tag appeared twice.
    DuplicateSection(u32),
    /// A required section is absent.
    MissingSection(u32),
    /// A section's payload does not match its checksum.
    CrcMismatch {
        /// Tag of the damaged section.
        section: u32,
    },
    /// A section's payload decoded to something structurally impossible.
    Malformed(&'static str),
    /// The decoded heap failed its structural audit.
    Audit(AuditError),
    /// The embedded binary image failed re-validation at restore.
    Load(String),
    /// In-place restore was asked to overwrite a machine running a
    /// different binary image.
    CodeMismatch,
}

impl SnapshotError {
    /// Stable short name, used in trace events and CLI output.
    pub fn kind(&self) -> &'static str {
        match self {
            SnapshotError::MachineBusy => "machine-busy",
            SnapshotError::Dangling(_) => "dangling",
            SnapshotError::ForwardedLive(_) => "forwarded",
            SnapshotError::Truncated => "truncated",
            SnapshotError::BadMagic => "bad-magic",
            SnapshotError::BadVersion(_) => "bad-version",
            SnapshotError::UnknownSection(_) => "unknown-section",
            SnapshotError::DuplicateSection(_) => "duplicate-section",
            SnapshotError::MissingSection(_) => "missing-section",
            SnapshotError::CrcMismatch { .. } => "crc-mismatch",
            SnapshotError::Malformed(_) => "malformed",
            SnapshotError::Audit(e) => e.kind(),
            SnapshotError::Load(_) => "load",
            SnapshotError::CodeMismatch => "code-mismatch",
        }
    }
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::MachineBusy => write!(f, "machine has a call in flight"),
            SnapshotError::Dangling(r) => write!(f, "dangling reference {r:#x}"),
            SnapshotError::ForwardedLive(r) => {
                write!(f, "forwarding pointer at {r:#x} outside GC")
            }
            SnapshotError::Truncated => write!(f, "byte stream truncated"),
            SnapshotError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            SnapshotError::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::UnknownSection(t) => write!(f, "unknown section tag {t}"),
            SnapshotError::DuplicateSection(t) => write!(f, "duplicate section tag {t}"),
            SnapshotError::MissingSection(t) => write!(f, "missing section tag {t}"),
            SnapshotError::CrcMismatch { section } => {
                write!(f, "checksum mismatch in section {section}")
            }
            SnapshotError::Malformed(what) => write!(f, "malformed snapshot: {what}"),
            SnapshotError::Audit(e) => write!(f, "snapshot heap failed audit: {e}"),
            SnapshotError::Load(e) => write!(f, "embedded image rejected: {e}"),
            SnapshotError::CodeMismatch => {
                write!(f, "snapshot was captured from a different binary image")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<AuditError> for SnapshotError {
    fn from(e: AuditError) -> Self {
        SnapshotError::Audit(e)
    }
}

impl From<CodecError> for SnapshotError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Truncated => SnapshotError::Truncated,
            CodecError::TrailingBytes => SnapshotError::Malformed("trailing bytes in section"),
            CodecError::Malformed(what) => SnapshotError::Malformed(what),
            // Sections are not frames; only the three above can occur.
            _ => SnapshotError::Malformed("section encoding"),
        }
    }
}

/// Incremental builder for a snapshot container: header, then one call to
/// [`SectionWriter::section`] per section, then [`SectionWriter::finish`].
#[derive(Debug)]
pub struct SectionWriter {
    buf: Vec<u8>,
    count: u32,
}

impl SectionWriter {
    /// Start a container: magic, version, and a count patched by `finish`.
    pub fn new() -> Self {
        let mut buf = SNAPSHOT_MAGIC.to_vec();
        put_u32(&mut buf, SNAPSHOT_VERSION);
        put_u32(&mut buf, 0);
        SectionWriter { buf, count: 0 }
    }

    /// Append one section: tag, length, payload, CRC-32 of the payload.
    pub fn section(&mut self, tag: u32, payload: &[u8]) {
        self.section_with(tag, None, |buf| buf.extend_from_slice(payload));
    }

    /// Append one section whose payload `put` writes in place. `crc` is
    /// the payload's CRC-32 when the caller already knows it (the image
    /// sections, fixed at load); otherwise it is computed here.
    fn section_with(&mut self, tag: u32, crc: Option<u32>, put: impl FnOnce(&mut Vec<u8>)) {
        put_u32(&mut self.buf, tag);
        let at = self.buf.len();
        put_u32(&mut self.buf, 0);
        put(&mut self.buf);
        let payload = &self.buf[at + 4..];
        let len = payload.len() as u32;
        debug_assert!(
            crc.is_none_or(|c| c == crc32(&[payload])),
            "stale CRC for section {tag}"
        );
        let crc = crc.unwrap_or_else(|| crc32(&[payload]));
        self.buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
        put_u32(&mut self.buf, crc);
        self.count += 1;
    }

    /// Seal the container and return its bytes.
    pub fn finish(mut self) -> Vec<u8> {
        self.buf[8..12].copy_from_slice(&self.count.to_le_bytes());
        self.buf
    }
}

impl Default for SectionWriter {
    fn default() -> Self {
        Self::new()
    }
}

/// One section of a container, as [`split_sections`] verified it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Section<'a> {
    /// The section tag.
    pub tag: u32,
    /// The payload bytes.
    pub payload: &'a [u8],
    /// The payload's CRC-32, already checked against the payload.
    pub crc: u32,
}

/// Split a container into its sections, verifying the magic, version,
/// per-section checksums, and that no bytes trail the last section.
/// Duplicate tags are rejected; unknown tags are the *caller's* concern
/// (the kernel stores its sections next to the machine's).
pub fn split_sections(bytes: &[u8]) -> Result<Vec<Section<'_>>, SnapshotError> {
    let mut r = Reader::new(bytes);
    if r.take(4)? != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = r.u32()?;
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::BadVersion(version));
    }
    let count = r.u32()?;
    let mut sections = Vec::new();
    for _ in 0..count {
        let tag = r.u32()?;
        let len = r.u32()? as usize;
        let payload = r.take(len)?;
        let crc = r.u32()?;
        if crc32(&[payload]) != crc {
            return Err(SnapshotError::CrcMismatch { section: tag });
        }
        if sections.iter().any(|s: &Section<'_>| s.tag == tag) {
            return Err(SnapshotError::DuplicateSection(tag));
        }
        sections.push(Section { tag, payload, crc });
    }
    r.finish()
        .map_err(|_| SnapshotError::Malformed("trailing bytes"))?;
    Ok(sections)
}

/// [`split_sections`] as `(tag, payload)` pairs.
pub fn read_sections(bytes: &[u8]) -> Result<Vec<(u32, &[u8])>, SnapshotError> {
    Ok(split_sections(bytes)?
        .into_iter()
        .map(|s| (s.tag, s.payload))
        .collect())
}

/// Cheap structural check of a `ZSNP` container: magic, version, section
/// framing, per-section CRCs, no trailing bytes. The transport seam for
/// snapshot movers (durable stores, fleet-to-fleet sync): verify bytes on
/// arrival without paying for a full decode.
pub fn verify_container(bytes: &[u8]) -> Result<(), SnapshotError> {
    split_sections(bytes).map(|_| ())
}

fn put_hvalue(buf: &mut Vec<u8>, v: HValue) {
    match v {
        HValue::Int(n) => {
            buf.push(0);
            put_i32(buf, n);
        }
        HValue::Ref(r) => {
            buf.push(1);
            put_u32(buf, r);
        }
    }
}

fn get_hvalue(r: &mut Reader<'_>) -> Result<HValue, SnapshotError> {
    match r.u8()? {
        0 => Ok(HValue::Int(r.i32()?)),
        1 => Ok(HValue::Ref(r.u32()?)),
        _ => Err(SnapshotError::Malformed("value tag")),
    }
}

fn put_obj(buf: &mut Vec<u8>, obj: &HeapObj) -> Result<(), SnapshotError> {
    let put_list = |buf: &mut Vec<u8>, vs: &[HValue]| -> Result<(), SnapshotError> {
        let n = u32::try_from(vs.len()).map_err(|_| SnapshotError::Malformed("payload width"))?;
        put_u32(buf, n);
        for &v in vs {
            put_hvalue(buf, v);
        }
        Ok(())
    };
    match obj {
        HeapObj::App {
            target: AppTarget::Global(id),
            args,
        } => {
            buf.push(0);
            put_u32(buf, *id);
            put_list(buf, args)?;
        }
        HeapObj::App {
            target: AppTarget::Value(v),
            args,
        } => {
            buf.push(1);
            put_hvalue(buf, *v);
            put_list(buf, args)?;
        }
        HeapObj::Con { id, fields } => {
            buf.push(2);
            put_u32(buf, *id);
            put_list(buf, fields)?;
        }
        HeapObj::Ind(v) => {
            buf.push(3);
            put_hvalue(buf, *v);
        }
        HeapObj::BlackHole => buf.push(4),
        HeapObj::Forwarded(_) => return Err(SnapshotError::Malformed("forwarded object")),
    }
    Ok(())
}

fn get_obj(r: &mut Reader<'_>) -> Result<HeapObj, SnapshotError> {
    // Every value takes at least a byte.
    let get_list = |r: &mut Reader<'_>| r.list(1, get_hvalue);
    match r.u8()? {
        0 => {
            let id = r.u32()?;
            let args = get_list(r)?;
            Ok(HeapObj::App {
                target: AppTarget::Global(id),
                args,
            })
        }
        1 => {
            let v = get_hvalue(r)?;
            let args = get_list(r)?;
            Ok(HeapObj::App {
                target: AppTarget::Value(v),
                args,
            })
        }
        2 => {
            let id = r.u32()?;
            let fields = get_list(r)?;
            Ok(HeapObj::Con { id, fields })
        }
        3 => Ok(HeapObj::Ind(get_hvalue(r)?)),
        4 => Ok(HeapObj::BlackHole),
        _ => Err(SnapshotError::Malformed("object tag")),
    }
}

fn class_code(c: Class) -> u8 {
    match c {
        Class::Let => 0,
        Class::Case => 1,
        Class::Result => 2,
        Class::BranchHead => 3,
    }
}

fn class_from(code: u8) -> Result<Class, SnapshotError> {
    match code {
        0 => Ok(Class::Let),
        1 => Ok(Class::Case),
        2 => Ok(Class::Result),
        3 => Ok(Class::BranchHead),
        _ => Err(SnapshotError::Malformed("class code")),
    }
}

/// Copy a value into the snapshot heap, replicating the traversal order
/// of [`Heap::collect`] exactly — indirections are short-circuited, so a
/// capture taken right after a collection reproduces the live heap's
/// layout index for index. `fwd` has one slot per source object.
fn evacuate(
    v: HValue,
    src: &[HeapObj],
    fwd: &mut [Option<HValue>],
    out: &mut Vec<HeapObj>,
) -> Result<HValue, SnapshotError> {
    let HValue::Ref(r) = v else { return Ok(v) };
    let obj = src.get(r as usize).ok_or(SnapshotError::Dangling(r))?;
    if let Some(dest) = fwd[r as usize] {
        return Ok(dest);
    }
    let dest = match obj {
        HeapObj::Forwarded(_) => return Err(SnapshotError::ForwardedLive(r)),
        HeapObj::Ind(inner) => evacuate(*inner, src, fwd, out)?,
        _ => {
            out.push(obj.clone());
            HValue::Ref((out.len() - 1) as HeapRef)
        }
    };
    fwd[r as usize] = Some(dest);
    Ok(dest)
}

/// The program half of a snapshot: the validated binary image and its
/// retained symbols, with both sections' checksums. It is fixed from
/// load on, so a machine computes it once and every capture shares it
/// instead of copying and re-checksumming the image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Image {
    words: Rc<[Word]>,
    /// CRC-32 of the code section's payload.
    code_crc: u32,
    names: Rc<NameTable>,
}

/// Retained symbols, identifier-sorted so snapshot bytes are
/// deterministic, with their section payload and its CRC-32.
#[derive(Debug, PartialEq, Eq)]
struct NameTable {
    rows: Vec<(u32, String)>,
    payload: Vec<u8>,
    crc: u32,
}

impl Image {
    /// The image `words` with the symbols `rows`, checksummed once here.
    pub(crate) fn new(words: Vec<Word>, mut rows: Vec<(u32, String)>) -> Image {
        rows.sort();
        let mut code = Vec::new();
        put_words(&mut code, &words);
        let mut payload = Vec::new();
        put_u32(&mut payload, rows.len() as u32);
        for (id, name) in &rows {
            put_u32(&mut payload, *id);
            put_string(&mut payload, name);
        }
        Image {
            code_crc: crc32(&[&code]),
            words: words.into(),
            names: Rc::new(NameTable {
                rows,
                crc: crc32(&[&payload]),
                payload,
            }),
        }
    }

    /// The binary image.
    pub fn words(&self) -> &[Word] {
        &self.words
    }

    /// Retained symbols as `(identifier, name)`, identifier-sorted.
    pub fn names(&self) -> &[(u32, String)] {
        &self.names.rows
    }

    /// Both image sections, written with the checksums computed at load.
    fn write_sections(&self, w: &mut SectionWriter) {
        w.section_with(TAG_CODE, Some(self.code_crc), |buf| {
            put_words(buf, &self.words)
        });
        let names = &self.names;
        w.section_with(TAG_NAMES, Some(names.crc), |buf| {
            buf.extend_from_slice(&names.payload)
        });
    }
}

/// A self-contained, restorable copy of a quiescent λ-machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineSnapshot {
    /// The validated binary image and its symbols, shared with the
    /// machine it was captured from.
    pub image: Image,
    /// Semispace capacity of the captured machine, in words.
    pub heap_capacity: usize,
    /// The compacted live heap.
    pub objects: Vec<HeapObj>,
    /// Host root slots, rewritten into the compacted heap.
    pub roots: Vec<HValue>,
    /// Cycle accounting at the capture point.
    pub stats: Stats,
    /// Instruction class cycles were being attributed to.
    pub class: Class,
}

impl MachineSnapshot {
    /// Capture a quiescent machine. The live heap is compacted with a
    /// non-destructive copy of the collector's traversal, then strictly
    /// audited — a snapshot that cannot pass its own audit is refused at
    /// birth rather than discovered dead at rollback.
    pub fn capture(hw: &Hw) -> Result<Self, SnapshotError> {
        if !hw.is_quiescent() {
            return Err(SnapshotError::MachineBusy);
        }
        let src = hw.heap().objects();
        let mut fwd = vec![None; src.len()];
        let mut objects: Vec<HeapObj> = Vec::new();
        let mut roots = Vec::with_capacity(hw.host_roots().len());
        for &r in hw.host_roots() {
            roots.push(evacuate(r, src, &mut fwd, &mut objects)?);
        }
        // Breadth-first scan, same as the collector: rewrite each copied
        // object's children in place, evacuating as we go.
        let mut scan = 0;
        while scan < objects.len() {
            let mut obj = std::mem::replace(&mut objects[scan], HeapObj::BlackHole);
            match &mut obj {
                HeapObj::App { target, args } => {
                    if let AppTarget::Value(v) = target {
                        *v = evacuate(*v, src, &mut fwd, &mut objects)?;
                    }
                    for a in args.iter_mut() {
                        *a = evacuate(*a, src, &mut fwd, &mut objects)?;
                    }
                }
                HeapObj::Con { fields, .. } => {
                    for fv in fields.iter_mut() {
                        *fv = evacuate(*fv, src, &mut fwd, &mut objects)?;
                    }
                }
                // Indirections are never copied (short-circuited above);
                // black holes have no children; forwarding pointers were
                // already rejected during evacuation.
                HeapObj::Ind(_) | HeapObj::BlackHole | HeapObj::Forwarded(_) => {}
            }
            objects[scan] = obj;
            scan += 1;
        }

        let snapshot = MachineSnapshot {
            image: hw.image().clone(),
            heap_capacity: hw.heap().capacity_words(),
            objects,
            roots,
            stats: hw.stats().clone(),
            class: hw.accounting_class(),
        };
        snapshot.audit(&|id| hw.item_shape(id))?;
        Ok(snapshot)
    }

    /// Strictly audit the snapshot heap: structure, bounds, arity, and
    /// full reachability (a compacted heap *is* the live set).
    pub fn audit(
        &self,
        item_shape: &dyn Fn(u32) -> Option<(usize, bool)>,
    ) -> Result<crate::audit::AuditReport, SnapshotError> {
        audit_objects(&self.objects, &self.roots, item_shape, true).map_err(SnapshotError::Audit)
    }

    /// Audit against the snapshot's *own* embedded code image, rescanning
    /// its item headers for constructor/function shapes. This is how a
    /// snapshot decoded from untrusted bytes is vetted without a machine.
    pub fn audit_self_contained(&self) -> Result<crate::audit::AuditReport, SnapshotError> {
        let shapes = scan_item_shapes(self.image.words())?;
        self.audit(&|id| {
            id.checked_sub(zarf_core::prim::FIRST_USER_INDEX)
                .and_then(|i| shapes.get(i as usize).copied())
        })
    }

    /// Serialize into a fresh single-snapshot container.
    pub fn to_bytes(&self) -> Result<Vec<u8>, SnapshotError> {
        let mut w = SectionWriter::new();
        self.write_sections(&mut w)?;
        Ok(w.finish())
    }

    /// Append this snapshot's sections to a container under construction
    /// (the kernel adds its own sections to the same writer).
    pub fn write_sections(&self, w: &mut SectionWriter) -> Result<(), SnapshotError> {
        self.image.write_sections(w);

        let mut heap = Ok(());
        w.section_with(TAG_HEAP, None, |buf| {
            put_u32(buf, self.objects.len() as u32);
            heap = self.objects.iter().try_for_each(|obj| put_obj(buf, obj));
        });
        heap?;

        w.section_with(TAG_ROOTS, None, |buf| {
            put_u32(buf, self.roots.len() as u32);
            for &r in &self.roots {
                put_hvalue(buf, r);
            }
        });

        w.section_with(TAG_STATS, None, |buf| {
            for n in stats_words(&self.stats) {
                put_u64(buf, n);
            }
        });

        w.section_with(TAG_CONTROL, None, |buf| {
            put_u64(buf, self.heap_capacity as u64);
            buf.push(class_code(self.class));
        });
        Ok(())
    }

    /// Decode a single-snapshot container produced by
    /// [`MachineSnapshot::to_bytes`]. Unknown machine-layer tags are an
    /// error; embedder tags (≥ [`FIRST_EMBEDDER_TAG`]) are ignored.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        Self::from_sections(&split_sections(bytes)?)
    }

    /// Decode from already-split container sections. The image keeps
    /// the checksums [`split_sections`] verified, so re-encoding it
    /// costs no CRC pass over the code.
    pub fn from_sections(sections: &[Section<'_>]) -> Result<Self, SnapshotError> {
        let mut code = None;
        let mut names = None;
        let mut objects = None;
        let mut roots = None;
        let mut stats = None;
        let mut control = None;
        for &Section { tag, payload, crc } in sections {
            match tag {
                TAG_CODE => {
                    let words = section(payload, "code section length", |r| Ok(r.words()?))?;
                    code = Some((words, crc));
                }
                TAG_NAMES => {
                    let rows = section(payload, "names section length", |r| {
                        r.list(1, |r| Ok((r.u32()?, r.string()?)))
                    })?;
                    names = Some(NameTable {
                        rows,
                        payload: payload.to_vec(),
                        crc,
                    });
                }
                TAG_HEAP => {
                    objects = Some(section(payload, "heap section length", |r| {
                        r.list(1, get_obj)
                    })?);
                }
                TAG_ROOTS => {
                    roots = Some(section(payload, "roots section length", |r| {
                        r.list(1, get_hvalue)
                    })?);
                }
                TAG_STATS => {
                    stats = Some(section(payload, "stats section length", |r| {
                        let mut words = [0u64; STATS_WORDS];
                        for w in words.iter_mut() {
                            *w = r.u64()?;
                        }
                        Ok(stats_from_words(&words))
                    })?);
                }
                TAG_CONTROL => {
                    control = Some(section(payload, "control section length", |r| {
                        Ok((r.u64()? as usize, class_from(r.u8()?)?))
                    })?);
                }
                t if t >= FIRST_EMBEDDER_TAG => {}
                t => return Err(SnapshotError::UnknownSection(t)),
            }
        }
        let (heap_capacity, class) = control.ok_or(SnapshotError::MissingSection(TAG_CONTROL))?;
        check_capacity(heap_capacity)?;
        let (words, code_crc) = code.ok_or(SnapshotError::MissingSection(TAG_CODE))?;
        Ok(MachineSnapshot {
            image: Image {
                words: words.into(),
                code_crc,
                names: Rc::new(names.ok_or(SnapshotError::MissingSection(TAG_NAMES))?),
            },
            heap_capacity,
            objects: objects.ok_or(SnapshotError::MissingSection(TAG_HEAP))?,
            roots: roots.ok_or(SnapshotError::MissingSection(TAG_ROOTS))?,
            stats: stats.ok_or(SnapshotError::MissingSection(TAG_STATS))?,
            class,
        })
    }

    /// Overwrite a live machine's mutable state with this snapshot, which
    /// is moved in. The machine must be running the same binary image;
    /// the snapshot heap is strictly audited first, so a corrupt
    /// checkpoint can never replace a healthy machine.
    pub fn restore_into(self, hw: &mut Hw) -> Result<(), SnapshotError> {
        if hw.image().words() != self.image.words() {
            return Err(SnapshotError::CodeMismatch);
        }
        check_capacity(self.heap_capacity)?;
        self.audit(&|id| hw.item_shape(id))?;
        let heap = Heap::from_parts(self.heap_capacity, self.objects);
        hw.restore_parts(heap, self.roots, self.stats, self.class);
        Ok(())
    }

    /// Build a fresh machine from the snapshot alone: re-validate the
    /// embedded image and load it with its symbols, then restore.
    /// `config`'s heap size is overridden by the snapshot's capacity.
    pub fn to_hw(self, mut config: HwConfig) -> Result<Hw, SnapshotError> {
        config.heap_words = self.heap_capacity;
        let mut hw = Hw::load_image(self.image.clone(), config)
            .map_err(|e: HwError| SnapshotError::Load(e.to_string()))?;
        self.restore_into(&mut hw)?;
        Ok(hw)
    }
}

/// Refuse a semispace no machine can be built with (see
/// [`MAX_HEAP_WORDS`]).
fn check_capacity(words: usize) -> Result<(), SnapshotError> {
    if words as u64 > MAX_HEAP_WORDS {
        return Err(SnapshotError::Malformed("heap capacity"));
    }
    Ok(())
}

/// Decode one section payload with `read`, which must consume all of
/// it; leftover bytes are `Malformed(what)`.
fn section<T>(
    payload: &[u8],
    what: &'static str,
    read: impl FnOnce(&mut Reader<'_>) -> Result<T, SnapshotError>,
) -> Result<T, SnapshotError> {
    let mut r = Reader::new(payload);
    let value = read(&mut r)?;
    r.finish().map_err(|_| SnapshotError::Malformed(what))?;
    Ok(value)
}

const STATS_WORDS: usize = 17;

fn stats_words(s: &Stats) -> [u64; STATS_WORDS] {
    [
        s.lets.count,
        s.lets.cycles,
        s.cases.count,
        s.cases.cycles,
        s.results.count,
        s.results.cycles,
        s.branch_heads.count,
        s.branch_heads.cycles,
        s.let_args,
        s.gc_cycles,
        s.gc_runs,
        s.gc_objects_copied,
        s.gc_words_copied,
        s.load_cycles,
        s.allocations,
        s.words_allocated,
        s.peak_live_words,
    ]
}

fn stats_from_words(w: &[u64; STATS_WORDS]) -> Stats {
    Stats {
        lets: ClassStats {
            count: w[0],
            cycles: w[1],
        },
        cases: ClassStats {
            count: w[2],
            cycles: w[3],
        },
        results: ClassStats {
            count: w[4],
            cycles: w[5],
        },
        branch_heads: ClassStats {
            count: w[6],
            cycles: w[7],
        },
        let_args: w[8],
        gc_cycles: w[9],
        gc_runs: w[10],
        gc_objects_copied: w[11],
        gc_words_copied: w[12],
        load_cycles: w[13],
        allocations: w[14],
        words_allocated: w[15],
        peak_live_words: w[16],
    }
}

/// Re-derive `(arity, is_constructor)` per item by scanning the image's
/// item headers — the same scan [`Hw::load_with`] performs, made total.
fn scan_item_shapes(words: &[Word]) -> Result<Vec<(usize, bool)>, SnapshotError> {
    let count = *words
        .get(1)
        .ok_or(SnapshotError::Malformed("image header"))? as usize;
    if count > words.len() {
        return Err(SnapshotError::Malformed("image item count"));
    }
    let mut shapes = Vec::with_capacity(count);
    let mut pos = 2usize;
    for _ in 0..count {
        let fp = *words
            .get(pos)
            .ok_or(SnapshotError::Malformed("item header"))?;
        let body_len = *words
            .get(pos + 1)
            .ok_or(SnapshotError::Malformed("item header"))? as usize;
        shapes.push((((fp >> 16) & 0xFF) as usize, fp >> 31 == 1));
        pos = pos
            .checked_add(2)
            .and_then(|p| p.checked_add(body_len))
            .ok_or(SnapshotError::Malformed("item body length"))?;
    }
    Ok(shapes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use zarf_asm::{lower, parse};
    use zarf_core::io::NullPorts;

    fn machine_with_state(src: &str) -> Hw {
        let mut hw = Hw::from_machine(&lower(&parse(src).unwrap()).unwrap()).unwrap();
        let v = hw.run(&mut NullPorts).unwrap();
        hw.push_root(v);
        hw
    }

    const LIST_SRC: &str = r#"
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
  let l = upto 6 in
  result l
"#;

    /// A snapshot whose semispace could hold more objects than a 32-bit
    /// reference can name is refused by type, at decode and at restore.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn oversized_heap_capacity_is_refused() {
        let hw = machine_with_state(LIST_SRC);
        let mut snap = MachineSnapshot::capture(&hw).unwrap();
        snap.heap_capacity = 1 << 34;
        let bytes = snap.to_bytes().unwrap();
        let capacity = SnapshotError::Malformed("heap capacity");
        assert_eq!(MachineSnapshot::from_bytes(&bytes), Err(capacity.clone()));
        assert_eq!(
            Hw::rehydrate(&bytes, HwConfig::default()).err(),
            Some(capacity.clone())
        );
        let mut live = machine_with_state(LIST_SRC);
        assert_eq!(snap.clone().restore_into(&mut live), Err(capacity));
        assert!(matches!(
            snap.to_hw(HwConfig::default()),
            Err(SnapshotError::Load(_))
        ));
        // The largest semispace still round-trips.
        let mut snap = MachineSnapshot::capture(&hw).unwrap();
        snap.heap_capacity = MAX_HEAP_WORDS as usize;
        let back = MachineSnapshot::from_bytes(&snap.to_bytes().unwrap()).unwrap();
        assert_eq!(
            back.to_hw(HwConfig::default())
                .unwrap()
                .heap()
                .capacity_words(),
            1 << 33
        );
    }

    #[test]
    fn capture_round_trips_through_bytes() {
        let hw = machine_with_state(LIST_SRC);
        let snap = MachineSnapshot::capture(&hw).unwrap();
        assert!(!snap.objects.is_empty());
        let bytes = snap.to_bytes().unwrap();
        let back = MachineSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(snap, back);
        back.audit_self_contained().unwrap();
    }

    #[test]
    fn restored_machine_reads_the_same_value() {
        let mut hw = machine_with_state(LIST_SRC);
        let snap = MachineSnapshot::capture(&hw).unwrap();
        let want = format!("{:?}", hw.deep_value(hw.root(0), &mut NullPorts).unwrap());
        let bytes = snap.to_bytes().unwrap();
        let mut restored = MachineSnapshot::from_bytes(&bytes)
            .unwrap()
            .to_hw(HwConfig::default())
            .unwrap();
        let root = restored.root(0);
        let got = format!("{:?}", restored.deep_value(root, &mut NullPorts).unwrap());
        assert_eq!(want, got);
        // Restored accounting matches the original exactly.
        assert_eq!(hw.stats(), restored.stats());
    }

    #[test]
    fn capture_compacts_garbage_away() {
        let mut hw = machine_with_state(LIST_SRC);
        // The run left thunk garbage behind; compare against a real GC.
        let before = hw.heap().object_count();
        let snap = MachineSnapshot::capture(&hw).unwrap();
        hw.collect_garbage().unwrap();
        assert_eq!(snap.objects.len(), hw.heap().object_count());
        assert!(snap.objects.len() <= before);
        // Post-GC capture is layout-identical to the live heap.
        let again = MachineSnapshot::capture(&hw).unwrap();
        assert_eq!(again.objects, hw.heap().objects());
    }

    #[test]
    fn fresh_machines_are_quiescent_and_capturable() {
        let src = "fun main =\n let a = add 1 2 in\n result a";
        let hw = Hw::from_machine(&lower(&parse(src).unwrap()).unwrap()).unwrap();
        assert!(hw.is_quiescent());
        assert!(MachineSnapshot::capture(&hw).is_ok());
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let hw = machine_with_state(LIST_SRC);
        let bytes = MachineSnapshot::capture(&hw).unwrap().to_bytes().unwrap();
        // Flip each bit of the container in turn: decode+audit must fail
        // or (for bits in lengths/header) produce a structural error —
        // never silently accept.
        let mut undetected = 0usize;
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[byte] ^= 1 << bit;
                let verdict = MachineSnapshot::from_bytes(&corrupt)
                    .and_then(|s| s.audit_self_contained().map(|_| s));
                if verdict.is_ok() {
                    undetected += 1;
                }
            }
        }
        assert_eq!(undetected, 0, "corruptions slipped past CRC + audit");
    }

    #[test]
    fn truncation_and_magic_damage_are_typed_errors() {
        let hw = machine_with_state(LIST_SRC);
        let bytes = MachineSnapshot::capture(&hw).unwrap().to_bytes().unwrap();
        assert_eq!(
            MachineSnapshot::from_bytes(&bytes[..bytes.len() - 1]),
            Err(SnapshotError::Truncated)
        );
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(
            MachineSnapshot::from_bytes(&bad),
            Err(SnapshotError::BadMagic)
        );
        let mut extra = bytes.clone();
        extra.push(0);
        assert_eq!(
            MachineSnapshot::from_bytes(&extra),
            Err(SnapshotError::Malformed("trailing bytes"))
        );
    }

    #[test]
    fn restore_refuses_a_different_image() {
        let hw = machine_with_state(LIST_SRC);
        let snap = MachineSnapshot::capture(&hw).unwrap();
        let other_src = "fun main =\n let a = add 1 2 in\n result a";
        let mut other = Hw::from_machine(&lower(&parse(other_src).unwrap()).unwrap()).unwrap();
        assert_eq!(
            snap.restore_into(&mut other),
            Err(SnapshotError::CodeMismatch)
        );
    }
}
