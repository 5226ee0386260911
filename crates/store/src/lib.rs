//! `zarf-store` — a crash-consistent, content-addressed chunk store
//! beneath ZSNP snapshots.
//!
//! The fleet's invariant is "the committed snapshot *is* the session";
//! this crate makes that invariant durable. Snapshots are split into
//! content-defined chunks ([`chunk`]), keyed by a 128-bit content hash
//! ([`hash`]) so identical bytes are stored once no matter which
//! session or commit seq produced them, and persisted in append-only
//! CRC/hash-guarded segment files ([`segment`]). Session metadata
//! reaches disk through a commit journal plus an atomically-replaced
//! manifest checkpoint ([`manifest`]), and hot chunks stay a memcpy
//! away in a byte-budgeted LRU ([`tier`]) whose evictions fall back to
//! verified disk reads.
//!
//! The trust contract, in the spirit of the paper's end-to-end
//! verification story:
//!
//! * **Crash consistency.** Kill the process at any byte of any write
//!   — mid-chunk, mid-journal-record, mid-manifest-swap — and
//!   [`Store::open`] recovers a consistent *prefix* of the commit
//!   history: every recovered session is byte-identical to a state the
//!   fleet actually committed, never a blend.
//! * **End-to-end integrity.** Every byte read back is CRC-checked
//!   *and* content-hash-verified; a session snapshot is additionally
//!   verified whole against its recorded hash. Corruption is always a
//!   typed [`StoreError`] naming the damaged chunk — never a silently
//!   wrong session.
//! * **Typed degradation.** A failed write (real, or injected through
//!   the `zarf-chaos` disk-fault axis) stalls the store: mutations
//!   return [`StoreError::Stalled`] and the fleet sheds load, while
//!   reads keep serving verified bytes.
//!
//! Offline, [`fsck`] sweeps every record and every session for damage
//! and [`gc`] rewrites live chunks into fresh segments, dropping
//! unreferenced ones. Both, like [`Store::open`], stream each segment one
//! record at a time and keep only the chunk index; payloads are read on
//! demand, so their memory is the index plus one session, not the data
//! directory.

mod chunk;
mod hash;
mod manifest;
mod segment;
mod store;
mod tier;

pub use crate::hash::{content_hash, ChunkId};
pub use crate::manifest::SessionRecord;
pub use crate::store::{
    fsck, gc, FsckReport, GcReport, SessionMeta, Store, StoreConfig, StoreStats,
};

/// Every way the store can fail, each naming what was damaged.
///
/// The variants are the fault taxonomy of DESIGN.md §13: I/O errors
/// carry the failing operation, corruption carries the chunk it hit,
/// and a stalled store says why it stalled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The operating system refused an I/O operation.
    Io {
        /// Which store operation failed (e.g. `"open segment"`).
        op: &'static str,
        /// The OS error text.
        detail: String,
    },
    /// The manifest checkpoint or commit journal is structurally
    /// damaged beyond the crash-boundary shapes recovery tolerates.
    ManifestCorrupt { detail: String },
    /// A chunk's on-disk record failed its CRC or content-hash check.
    ChunkCorrupt { chunk: ChunkId, detail: String },
    /// A chunk referenced by a session has no (valid) record on disk.
    MissingChunk { chunk: ChunkId },
    /// A reassembled snapshot disagreed with its recorded length or
    /// whole-snapshot hash.
    SnapshotMismatch { session: u64, detail: String },
    /// No such session in the manifest.
    UnknownSession(u64),
    /// A write failed (for real or by injection); the store accepts no
    /// further mutations until it is reopened.
    Stalled { detail: String },
}

impl StoreError {
    /// Stable short name for logs, metrics, and tests.
    pub fn kind(&self) -> &'static str {
        match self {
            StoreError::Io { .. } => "io",
            StoreError::ManifestCorrupt { .. } => "manifest_corrupt",
            StoreError::ChunkCorrupt { .. } => "chunk_corrupt",
            StoreError::MissingChunk { .. } => "missing_chunk",
            StoreError::SnapshotMismatch { .. } => "snapshot_mismatch",
            StoreError::UnknownSession(_) => "unknown_session",
            StoreError::Stalled { .. } => "stalled",
        }
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { op, detail } => write!(f, "store i/o failure during {op}: {detail}"),
            StoreError::ManifestCorrupt { detail } => {
                write!(f, "store manifest corrupt: {detail}")
            }
            StoreError::ChunkCorrupt { chunk, detail } => {
                write!(f, "chunk {chunk} corrupt: {detail}")
            }
            StoreError::MissingChunk { chunk } => write!(f, "chunk {chunk} missing from store"),
            StoreError::SnapshotMismatch { session, detail } => {
                write!(f, "session {session} snapshot mismatch: {detail}")
            }
            StoreError::UnknownSession(id) => write!(f, "unknown session {id} in store"),
            StoreError::Stalled { detail } => write!(f, "store stalled: {detail}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Decode failures in the manifest and journal codecs.
impl From<zarf_core::codec::CodecError> for StoreError {
    fn from(e: zarf_core::codec::CodecError) -> Self {
        StoreError::ManifestCorrupt {
            detail: e.to_string(),
        }
    }
}
