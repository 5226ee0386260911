//! The `ZFLT` binary wire protocol.
//!
//! ## Frame layout
//!
//! | offset | size | field                                |
//! |--------|------|--------------------------------------|
//! | 0      | 4    | magic `"ZFLT"`                       |
//! | 4      | 1    | version (currently 1)                |
//! | 5      | 4    | payload length `L`, u32 LE           |
//! | 9      | `L`  | payload: opcode byte + message body  |
//! | 9+L    | 4    | CRC-32 of the payload, u32 LE        |
//!
//! This is [`ZFLT`], one constant of the shared
//! [`zarf_core::codec::Frame`]; the layout, the CRC-32 and the
//! little-endian [`Reader`] are the ones every framed format uses.
//! Decoding is exact: a frame must consume its entire buffer and a
//! message its entire payload, so *any* single-bit corruption of a
//! serialized frame is rejected — magic and version flips by field
//! checks, length flips by the total-length equation, payload and CRC
//! flips by CRC-32's guaranteed detection of 1-bit errors (pinned by the
//! property suite in `tests/proptest_zflt.rs`).

use std::fmt;
use std::io::Read;
use std::time::Duration;

use zarf_core::codec::{
    put_bytes, put_i32, put_ints, put_string, put_u32, put_u64, put_words, CodecError, Frame,
    Reader,
};
use zarf_core::{Int, Word};

use crate::fleet::SessionConfig;
use crate::op::{Op, PortFeed};

/// Upper bound on payload length (16 MiB) — snapshots of default-sized
/// machines are well under this; anything bigger is a corrupt length
/// field or a hostile peer.
pub const MAX_FRAME_PAYLOAD: usize = 1 << 24;
/// The `ZFLT` frame: magic `"ZFLT"`, version 1, payloads up to
/// [`MAX_FRAME_PAYLOAD`].
pub const ZFLT: Frame<WireError> = Frame::new(*b"ZFLT", &[1], MAX_FRAME_PAYLOAD);
/// Bytes of framing around a payload (magic + version + length + CRC).
pub const FRAME_OVERHEAD: usize = ZFLT.overhead();

/// Error code carried by [`Response::Error`]: unknown session.
pub const ERR_UNKNOWN_SESSION: u32 = 1;
/// Error code: session poisoned.
pub const ERR_POISONED: u32 = 2;
/// Error code: snapshot decode/audit/capture failure.
pub const ERR_SNAPSHOT: u32 = 3;
/// Error code: program load failure.
pub const ERR_LOAD: u32 = 4;
/// Error code: fleet shutting down.
pub const ERR_SHUTDOWN: u32 = 5;
/// Error code: anything else.
pub const ERR_INTERNAL: u32 = 6;
/// Error code: verified load rejected the program (certification failed)
/// or an op fell outside a verified session's certificate.
pub const ERR_CERTIFICATION: u32 = 7;
/// Error code: the fleet is shedding work (its durable store has
/// stalled or its replication link is too far behind). Transient by
/// design — the client should back off and retry, or reconnect after
/// the operator restarts the server.
pub const ERR_OVERLOADED: u32 = 8;
/// Error code: the session is frozen for migration — no new ops are
/// admitted until the migration releases or closes it.
pub const ERR_FROZEN: u32 = 9;

/// Wire-protocol failures. Typed and total: malformed input from the
/// network can never panic the server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the field being read.
    Truncated,
    /// The frame does not start with `"ZFLT"`.
    BadMagic,
    /// The version byte is not [`VERSION`].
    BadVersion(u8),
    /// The declared payload length exceeds [`MAX_FRAME_PAYLOAD`].
    Oversize(u64),
    /// The declared payload length disagrees with the buffer length.
    LengthMismatch {
        /// Payload length declared in the header.
        declared: u64,
        /// Payload length implied by the buffer.
        actual: u64,
    },
    /// The payload failed its CRC-32 check.
    CrcMismatch,
    /// The payload's first byte is not a known opcode.
    UnknownOpcode(u8),
    /// A message body was structurally invalid (bad tag, count, …).
    Malformed(&'static str),
    /// A message decoded but left unconsumed payload bytes.
    TrailingBytes,
    /// Transport failure (socket read/write).
    Io(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => f.write_str("truncated frame"),
            WireError::BadMagic => f.write_str("bad frame magic"),
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::Oversize(n) => write!(f, "payload length {n} exceeds maximum"),
            WireError::LengthMismatch { declared, actual } => {
                write!(
                    f,
                    "declared payload {declared} bytes, buffer holds {actual}"
                )
            }
            WireError::CrcMismatch => f.write_str("payload CRC mismatch"),
            WireError::UnknownOpcode(op) => write!(f, "unknown opcode {op:#x}"),
            WireError::Malformed(what) => write!(f, "malformed message: {what}"),
            WireError::TrailingBytes => f.write_str("trailing bytes after message"),
            WireError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<CodecError> for WireError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Truncated => WireError::Truncated,
            CodecError::TrailingBytes => WireError::TrailingBytes,
            CodecError::Malformed(what) => WireError::Malformed(what),
            CodecError::BadMagic => WireError::BadMagic,
            CodecError::BadVersion(v) => WireError::BadVersion(v as u8),
            CodecError::Oversize(n) => WireError::Oversize(n),
            CodecError::LengthMismatch { declared, actual } => {
                WireError::LengthMismatch { declared, actual }
            }
            CodecError::CrcMismatch => WireError::CrcMismatch,
            CodecError::Io(e) => WireError::Io(e),
        }
    }
}

/// Client → server messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Load a program image as a new session.
    LoadProgram {
        /// Per-session execution parameters.
        config: SessionConfig,
        /// The encoded program.
        program: Vec<Word>,
    },
    /// Resume a session from `ZSNP` snapshot bytes.
    Restore {
        /// Per-session execution parameters.
        config: SessionConfig,
        /// The snapshot.
        snapshot: Vec<u8>,
    },
    /// Queue one op on a session.
    Inject {
        /// Target session.
        session: u64,
        /// The op.
        op: Op,
    },
    /// Drain a session's committed output.
    Poll {
        /// Target session.
        session: u64,
    },
    /// Fetch a session's last committed snapshot.
    Snapshot {
        /// Target session.
        session: u64,
    },
    /// Fleet-wide statistics (`session` 0) or one session's.
    Stats {
        /// Target session, or 0 for the fleet.
        session: u64,
    },
    /// Close a session.
    Close {
        /// Target session.
        session: u64,
    },
    /// Stop the server.
    Shutdown,
    /// Queue many ops on a session in one frame. Pipelining amortizes
    /// framing and dispatch; admission is atomic — either every op passes
    /// the certificate gate and all are queued, or none are.
    InjectBatch {
        /// Target session.
        session: u64,
        /// The ops, queued in order.
        ops: Vec<Op>,
    },
    /// Freeze a session at its next slice boundary for migration: new
    /// ops are rejected with [`ERR_FROZEN`] and the reply carries the
    /// commit sequence the session quiesced at.
    Quiesce {
        /// Target session.
        session: u64,
    },
    /// Fetch a frozen session's durable manifest record (its chunk list
    /// and commit metadata) so a migration can plan a chunk-sync.
    SessionManifest {
        /// Target session.
        session: u64,
    },
    /// Fetch one content-addressed chunk from the server's store.
    FetchChunk {
        /// The chunk's content address.
        id: [u8; 16],
    },
    /// End a migration: either resume the frozen session (`resume` —
    /// the migration failed and the source stays authoritative) or
    /// close it (`!resume` — the destination acknowledged the cutover).
    Release {
        /// Target session.
        session: u64,
        /// Resume instead of close.
        resume: bool,
    },
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Session created.
    Opened {
        /// Its id.
        session: u64,
    },
    /// Op queued.
    Accepted {
        /// The session.
        session: u64,
        /// Ops now pending.
        pending: u64,
    },
    /// A whole [`Request::InjectBatch`] queued.
    AcceptedBatch {
        /// The session.
        session: u64,
        /// Ops queued by this batch.
        accepted: u64,
        /// Ops now pending.
        pending: u64,
    },
    /// Drained output.
    Output {
        /// The session.
        session: u64,
        /// Ops committed so far.
        ops_done: u64,
        /// Ops still pending.
        pending: u64,
        /// The output words.
        words: Vec<Int>,
    },
    /// A session snapshot.
    SnapshotData {
        /// The session.
        session: u64,
        /// `ZSNP` bytes.
        bytes: Vec<u8>,
    },
    /// Statistics as `(name, value)` pairs.
    StatsData {
        /// The pairs, in a stable order.
        pairs: Vec<(String, u64)>,
    },
    /// Session closed.
    Closed {
        /// The session.
        session: u64,
    },
    /// The server acknowledges shutdown and will close the connection.
    Bye,
    /// The request failed.
    Error {
        /// Machine-readable code (`ERR_*`).
        code: u32,
        /// Human-readable cause.
        message: String,
    },
    /// The session is frozen at a slice boundary.
    Quiesced {
        /// The session.
        session: u64,
        /// The commit sequence it quiesced at.
        commit_seq: u64,
    },
    /// A session's durable manifest record, encoded by the `ZREP`
    /// record codec (opaque at this layer).
    ManifestData {
        /// The session.
        session: u64,
        /// The encoded record.
        record: Vec<u8>,
    },
    /// One content-addressed chunk's bytes.
    ChunkData {
        /// The chunk payload.
        bytes: Vec<u8>,
    },
    /// A migration ended; the session was resumed or closed.
    Released {
        /// The session.
        session: u64,
        /// True when the session resumed on the source.
        resumed: bool,
    },
}

// -- op and config codecs -----------------------------------------------------

fn put_config(out: &mut Vec<u8>, c: &SessionConfig) {
    put_u64(out, c.heap_words as u64);
    put_u64(out, c.op_budget);
    put_u64(out, c.fuel_slice);
    out.push(c.verified as u8);
}

fn read_config(r: &mut Reader<'_>) -> Result<SessionConfig, WireError> {
    let heap_words = r.u64()?;
    let heap_words = usize::try_from(heap_words).map_err(|_| WireError::Malformed("heap size"))?;
    let op_budget = r.u64()?;
    let fuel_slice = r.u64()?;
    let verified = r.flag("verified flag")?;
    Ok(SessionConfig {
        heap_words,
        op_budget,
        fuel_slice,
        verified,
    })
}

fn put_op(out: &mut Vec<u8>, op: &Op) {
    let (tag, item, args, inputs) = match op {
        Op::Eval { item, args, inputs } => (0u8, *item, args, inputs),
        Op::Step { item, args, inputs } => (1u8, *item, args, inputs),
    };
    out.push(tag);
    put_u32(out, item);
    put_ints(out, args);
    put_u32(out, inputs.len() as u32);
    for feed in inputs {
        put_i32(out, feed.port);
        put_ints(out, &feed.words);
    }
}

fn read_op(r: &mut Reader<'_>) -> Result<Op, WireError> {
    let tag = r.u8()?;
    let item = r.u32()?;
    let args = r.ints()?;
    // Each feed is at least port (4) + count (4).
    let inputs = r.list(8, |r| {
        Ok::<_, WireError>(PortFeed {
            port: r.i32()?,
            words: r.ints()?,
        })
    })?;
    match tag {
        0 => Ok(Op::Eval { item, args, inputs }),
        1 => Ok(Op::Step { item, args, inputs }),
        _ => Err(WireError::Malformed("op tag")),
    }
}

// -- message codecs -----------------------------------------------------------

const OP_LOAD_PROGRAM: u8 = 1;
const OP_RESTORE: u8 = 2;
const OP_INJECT: u8 = 3;
const OP_POLL: u8 = 4;
const OP_SNAPSHOT: u8 = 5;
const OP_STATS: u8 = 6;
const OP_CLOSE: u8 = 7;
const OP_SHUTDOWN: u8 = 8;
const OP_INJECT_BATCH: u8 = 9;
const OP_QUIESCE: u8 = 10;
const OP_SESSION_MANIFEST: u8 = 11;
const OP_FETCH_CHUNK: u8 = 12;
const OP_RELEASE: u8 = 13;

const OP_OPENED: u8 = 16;
const OP_ACCEPTED: u8 = 17;
const OP_OUTPUT: u8 = 18;
const OP_SNAPSHOT_DATA: u8 = 19;
const OP_STATS_DATA: u8 = 20;
const OP_CLOSED: u8 = 21;
const OP_BYE: u8 = 22;
const OP_ERROR: u8 = 23;
const OP_ACCEPTED_BATCH: u8 = 24;
const OP_QUIESCED: u8 = 25;
const OP_MANIFEST_DATA: u8 = 26;
const OP_CHUNK_DATA: u8 = 27;
const OP_RELEASED: u8 = 28;

impl Request {
    /// Serialize to a payload (opcode + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::LoadProgram { config, program } => {
                out.push(OP_LOAD_PROGRAM);
                put_config(&mut out, config);
                put_words(&mut out, program);
            }
            Request::Restore { config, snapshot } => {
                out.push(OP_RESTORE);
                put_config(&mut out, config);
                put_bytes(&mut out, snapshot);
            }
            Request::Inject { session, op } => {
                out.push(OP_INJECT);
                put_u64(&mut out, *session);
                put_op(&mut out, op);
            }
            Request::Poll { session } => {
                out.push(OP_POLL);
                put_u64(&mut out, *session);
            }
            Request::Snapshot { session } => {
                out.push(OP_SNAPSHOT);
                put_u64(&mut out, *session);
            }
            Request::Stats { session } => {
                out.push(OP_STATS);
                put_u64(&mut out, *session);
            }
            Request::Close { session } => {
                out.push(OP_CLOSE);
                put_u64(&mut out, *session);
            }
            Request::Shutdown => out.push(OP_SHUTDOWN),
            Request::InjectBatch { session, ops } => {
                out.push(OP_INJECT_BATCH);
                put_u64(&mut out, *session);
                put_u32(&mut out, ops.len() as u32);
                for op in ops {
                    put_op(&mut out, op);
                }
            }
            Request::Quiesce { session } => {
                out.push(OP_QUIESCE);
                put_u64(&mut out, *session);
            }
            Request::SessionManifest { session } => {
                out.push(OP_SESSION_MANIFEST);
                put_u64(&mut out, *session);
            }
            Request::FetchChunk { id } => {
                out.push(OP_FETCH_CHUNK);
                out.extend_from_slice(id);
            }
            Request::Release { session, resume } => {
                out.push(OP_RELEASE);
                put_u64(&mut out, *session);
                out.push(*resume as u8);
            }
        }
        out
    }

    /// Deserialize from a payload; the whole payload must be consumed.
    pub fn decode(payload: &[u8]) -> Result<Request, WireError> {
        let mut r = Reader::new(payload);
        let req = match r.u8()? {
            OP_LOAD_PROGRAM => Request::LoadProgram {
                config: read_config(&mut r)?,
                program: r.words()?,
            },
            OP_RESTORE => Request::Restore {
                config: read_config(&mut r)?,
                snapshot: r.bytes()?,
            },
            OP_INJECT => Request::Inject {
                session: r.u64()?,
                op: read_op(&mut r)?,
            },
            OP_POLL => Request::Poll { session: r.u64()? },
            OP_SNAPSHOT => Request::Snapshot { session: r.u64()? },
            OP_STATS => Request::Stats { session: r.u64()? },
            OP_CLOSE => Request::Close { session: r.u64()? },
            OP_SHUTDOWN => Request::Shutdown,
            OP_INJECT_BATCH => {
                let session = r.u64()?;
                // Each op is at least tag + item + arg count + feed count.
                let ops = r.list(13, read_op)?;
                Request::InjectBatch { session, ops }
            }
            OP_QUIESCE => Request::Quiesce { session: r.u64()? },
            OP_SESSION_MANIFEST => Request::SessionManifest { session: r.u64()? },
            OP_FETCH_CHUNK => Request::FetchChunk { id: r.array()? },
            OP_RELEASE => Request::Release {
                session: r.u64()?,
                resume: r.flag("resume flag")?,
            },
            op => return Err(WireError::UnknownOpcode(op)),
        };
        r.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Serialize to a payload (opcode + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::Opened { session } => {
                out.push(OP_OPENED);
                put_u64(&mut out, *session);
            }
            Response::Accepted { session, pending } => {
                out.push(OP_ACCEPTED);
                put_u64(&mut out, *session);
                put_u64(&mut out, *pending);
            }
            Response::AcceptedBatch {
                session,
                accepted,
                pending,
            } => {
                out.push(OP_ACCEPTED_BATCH);
                put_u64(&mut out, *session);
                put_u64(&mut out, *accepted);
                put_u64(&mut out, *pending);
            }
            Response::Output {
                session,
                ops_done,
                pending,
                words,
            } => {
                out.push(OP_OUTPUT);
                put_u64(&mut out, *session);
                put_u64(&mut out, *ops_done);
                put_u64(&mut out, *pending);
                put_ints(&mut out, words);
            }
            Response::SnapshotData { session, bytes } => {
                out.push(OP_SNAPSHOT_DATA);
                put_u64(&mut out, *session);
                put_bytes(&mut out, bytes);
            }
            Response::StatsData { pairs } => {
                out.push(OP_STATS_DATA);
                put_u32(&mut out, pairs.len() as u32);
                for (name, value) in pairs {
                    put_string(&mut out, name);
                    put_u64(&mut out, *value);
                }
            }
            Response::Closed { session } => {
                out.push(OP_CLOSED);
                put_u64(&mut out, *session);
            }
            Response::Bye => out.push(OP_BYE),
            Response::Error { code, message } => {
                out.push(OP_ERROR);
                put_u32(&mut out, *code);
                put_string(&mut out, message);
            }
            Response::Quiesced {
                session,
                commit_seq,
            } => {
                out.push(OP_QUIESCED);
                put_u64(&mut out, *session);
                put_u64(&mut out, *commit_seq);
            }
            Response::ManifestData { session, record } => {
                out.push(OP_MANIFEST_DATA);
                put_u64(&mut out, *session);
                put_bytes(&mut out, record);
            }
            Response::ChunkData { bytes } => {
                out.push(OP_CHUNK_DATA);
                put_bytes(&mut out, bytes);
            }
            Response::Released { session, resumed } => {
                out.push(OP_RELEASED);
                put_u64(&mut out, *session);
                out.push(*resumed as u8);
            }
        }
        out
    }

    /// Deserialize from a payload; the whole payload must be consumed.
    pub fn decode(payload: &[u8]) -> Result<Response, WireError> {
        let mut r = Reader::new(payload);
        let resp = match r.u8()? {
            OP_OPENED => Response::Opened { session: r.u64()? },
            OP_ACCEPTED => Response::Accepted {
                session: r.u64()?,
                pending: r.u64()?,
            },
            OP_ACCEPTED_BATCH => Response::AcceptedBatch {
                session: r.u64()?,
                accepted: r.u64()?,
                pending: r.u64()?,
            },
            OP_OUTPUT => Response::Output {
                session: r.u64()?,
                ops_done: r.u64()?,
                pending: r.u64()?,
                words: r.ints()?,
            },
            OP_SNAPSHOT_DATA => Response::SnapshotData {
                session: r.u64()?,
                bytes: r.bytes()?,
            },
            // Each pair is at least a name length prefix and a value.
            OP_STATS_DATA => Response::StatsData {
                pairs: r.list(12, |r| Ok::<_, WireError>((r.string()?, r.u64()?)))?,
            },
            OP_CLOSED => Response::Closed { session: r.u64()? },
            OP_BYE => Response::Bye,
            OP_ERROR => Response::Error {
                code: r.u32()?,
                message: r.string()?,
            },
            OP_QUIESCED => Response::Quiesced {
                session: r.u64()?,
                commit_seq: r.u64()?,
            },
            OP_MANIFEST_DATA => Response::ManifestData {
                session: r.u64()?,
                record: r.bytes()?,
            },
            OP_CHUNK_DATA => Response::ChunkData { bytes: r.bytes()? },
            OP_RELEASED => Response::Released {
                session: r.u64()?,
                resumed: r.flag("resumed flag")?,
            },
            op => return Err(WireError::UnknownOpcode(op)),
        };
        r.finish()?;
        Ok(resp)
    }
}

// -- framing ------------------------------------------------------------------

/// Wrap a payload in a `ZFLT` frame. A payload over
/// [`MAX_FRAME_PAYLOAD`] has no valid frame and yields an empty `Vec`;
/// `ZFLT.encode` reports it as [`WireError::Oversize`].
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    ZFLT.encode(payload).unwrap_or_default()
}

/// Reclaim consumed-prefix space once it dominates the buffer.
const FRAME_BUFFER_COMPACT_AT: usize = 64 * 1024;

/// A growable receive buffer that yields `ZFLT` payloads **borrowed in
/// place** — the zero-copy, nonblocking face of the frame layer. Bytes
/// arrive in arbitrary slices ([`FrameBuffer::extend_from_slice`] or
/// [`FrameBuffer::fill_from`]); [`FrameBuffer::next_frame`] hands back
/// each complete verified payload as a slice of the buffer itself, with
/// no per-frame allocation.
#[derive(Debug)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    /// Bytes before this offset belong to already-consumed frames.
    start: usize,
    /// [`ZFLT`] under the per-connection payload ceiling: frames
    /// declaring more are rejected and [`FrameBuffer::fill_from`] never
    /// buffers beyond `ceiling + FRAME_OVERHEAD` unconsumed bytes.
    frame: Frame<WireError>,
}

impl Default for FrameBuffer {
    fn default() -> Self {
        FrameBuffer {
            buf: Vec::new(),
            start: 0,
            frame: ZFLT,
        }
    }
}

impl FrameBuffer {
    /// An empty buffer accepting payloads up to [`MAX_FRAME_PAYLOAD`].
    pub fn new() -> Self {
        FrameBuffer::default()
    }

    /// An empty buffer that rejects frames declaring more than
    /// `max_payload` bytes (clamped to [`MAX_FRAME_PAYLOAD`]) and whose
    /// growth is bounded accordingly.
    pub fn with_max_payload(max_payload: usize) -> Self {
        FrameBuffer {
            frame: ZFLT.with_cap(max_payload),
            ..FrameBuffer::default()
        }
    }

    /// The payload ceiling this buffer enforces.
    pub fn max_payload(&self) -> usize {
        self.frame.cap()
    }

    /// Unconsumed bytes currently buffered.
    pub fn len(&self) -> usize {
        self.buf.len() - self.start
    }

    /// True when no unconsumed bytes are buffered.
    pub fn is_empty(&self) -> bool {
        self.start == self.buf.len()
    }

    /// Drop the consumed prefix when it is large (or the buffer is fully
    /// drained, which makes it free).
    fn compact(&mut self) {
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start >= FRAME_BUFFER_COMPACT_AT {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }

    /// Append raw stream bytes.
    pub fn extend_from_slice(&mut self, bytes: &[u8]) {
        self.compact();
        self.buf.extend_from_slice(bytes);
    }

    /// Read up to `max` bytes from `r` directly into the buffer tail (one
    /// syscall, no intermediate copy). Returns the byte count; `Ok(0)`
    /// means EOF — or that the buffer already holds a full ceiling-sized
    /// frame's worth of unconsumed bytes, in which case
    /// [`FrameBuffer::next_frame`] will either yield that frame or report
    /// the damage. The clamp makes memory growth per connection provably
    /// bounded by `max_payload + FRAME_OVERHEAD` no matter what the peer
    /// sends.
    pub fn fill_from<R: Read>(&mut self, r: &mut R, max: usize) -> std::io::Result<usize> {
        self.compact();
        let budget = (self.max_payload() + FRAME_OVERHEAD).saturating_sub(self.len());
        let max = max.min(budget);
        if max == 0 {
            return Ok(0);
        }
        let old = self.buf.len();
        self.buf.resize(old + max, 0);
        match r.read(&mut self.buf[old..]) {
            Ok(n) => {
                self.buf.truncate(old + n);
                Ok(n)
            }
            Err(e) => {
                self.buf.truncate(old);
                Err(e)
            }
        }
    }

    /// The next complete frame's payload, borrowed from the buffer, or
    /// `Ok(None)` when more bytes are needed. Errors are sticky in
    /// practice: a damaged stream cannot be resynchronized, so the caller
    /// should drop the connection.
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>, WireError> {
        let rest = &self.buf[self.start..];
        let Some(span) = self.frame.scan(rest)? else {
            return Ok(None);
        };
        self.start += span.frame_len;
        Ok(Some(span.payload(rest)))
    }
}

/// Client-side robustness knobs: a per-operation deadline plus bounded
/// exponential backoff for reconnects. Used by the blocking
/// [`crate::server::Client`] so that a stalled or restarting server
/// fails a driver thread with a typed error after a bounded wait —
/// never a hang — and transient connection kills are retried instead of
/// surfacing as load-generator failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Wall-clock bound on any single blocking send or receive; applied
    /// as the socket read/write timeout.
    pub op_deadline: Duration,
    /// Total connection attempts (first try included) before giving up.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles each further attempt.
    pub backoff_floor: Duration,
    /// Ceiling the doubling saturates at.
    pub backoff_ceiling: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            op_deadline: Duration::from_secs(10),
            max_attempts: 5,
            backoff_floor: Duration::from_millis(50),
            backoff_ceiling: Duration::from_secs(2),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries and never waits — the pre-policy
    /// behaviour, useful in tests that want a failure to be immediate.
    pub fn immediate() -> Self {
        RetryPolicy {
            op_deadline: Duration::from_secs(10),
            max_attempts: 1,
            backoff_floor: Duration::ZERO,
            backoff_ceiling: Duration::ZERO,
        }
    }

    /// Sleep duration before retry number `attempt` (1-based: the wait
    /// after the first failure is `backoff(1)`). Bounded exponential:
    /// `floor * 2^(attempt-1)`, saturating at the ceiling.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let shift = attempt.saturating_sub(1).min(20);
        let raw = self
            .backoff_floor
            .saturating_mul(1u32.checked_shl(shift).unwrap_or(u32::MAX));
        raw.min(self.backoff_ceiling)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::LoadProgram {
                config: SessionConfig::default(),
                program: vec![1, 2, 3, 0xFFFF_FFFF],
            },
            Request::Restore {
                config: SessionConfig {
                    heap_words: 4096,
                    op_budget: 7,
                    fuel_slice: 9,
                    verified: true,
                },
                snapshot: vec![0, 1, 2, 255],
            },
            Request::Inject {
                session: 42,
                op: Op::Step {
                    item: 0x101,
                    args: vec![-1, 0, i32::MAX],
                    inputs: vec![PortFeed {
                        port: 2,
                        words: vec![10, -20],
                    }],
                },
            },
            Request::Poll { session: 1 },
            Request::Snapshot { session: u64::MAX },
            Request::Stats { session: 0 },
            Request::Close { session: 9 },
            Request::Shutdown,
            Request::InjectBatch {
                session: 3,
                ops: vec![
                    Op::eval(0x100, vec![], vec![]),
                    Op::step(
                        0x102,
                        vec![9],
                        vec![PortFeed {
                            port: 1,
                            words: vec![4, 5],
                        }],
                    ),
                ],
            },
            Request::InjectBatch {
                session: 4,
                ops: vec![],
            },
            Request::Quiesce { session: 11 },
            Request::SessionManifest { session: 11 },
            Request::FetchChunk {
                id: [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 255],
            },
            Request::Release {
                session: 11,
                resume: true,
            },
            Request::Release {
                session: 12,
                resume: false,
            },
        ]
    }

    fn sample_responses() -> Vec<Response> {
        vec![
            Response::Opened { session: 7 },
            Response::Accepted {
                session: 7,
                pending: 3,
            },
            Response::Output {
                session: 7,
                ops_done: 12,
                pending: 0,
                words: vec![1, -2, i32::MIN],
            },
            Response::SnapshotData {
                session: 7,
                bytes: vec![90, 83, 78, 80],
            },
            Response::StatsData {
                pairs: vec![("ops_done".into(), 64), ("workers".into(), 2)],
            },
            Response::AcceptedBatch {
                session: 7,
                accepted: 16,
                pending: 19,
            },
            Response::Closed { session: 7 },
            Response::Bye,
            Response::Error {
                code: ERR_POISONED,
                message: "boom".into(),
            },
            Response::Quiesced {
                session: 11,
                commit_seq: 40,
            },
            Response::ManifestData {
                session: 11,
                record: vec![1, 2, 3, 4],
            },
            Response::ChunkData { bytes: vec![9; 33] },
            Response::Released {
                session: 11,
                resumed: false,
            },
        ]
    }

    #[test]
    fn requests_round_trip() {
        for req in sample_requests() {
            let payload = req.encode();
            let frame = encode_frame(&payload);
            let back = ZFLT.decode(&frame).unwrap();
            assert_eq!(Request::decode(back).unwrap(), req);
        }
    }

    #[test]
    fn responses_round_trip() {
        for resp in sample_responses() {
            let payload = resp.encode();
            let frame = encode_frame(&payload);
            let back = ZFLT.decode(&frame).unwrap();
            assert_eq!(Response::decode(back).unwrap(), resp);
        }
    }

    #[test]
    fn every_single_bit_flip_is_rejected_on_a_sample_frame() {
        let frame = encode_frame(&Request::Poll { session: 3 }.encode());
        for byte in 0..frame.len() {
            for bit in 0..8 {
                let mut dam = frame.clone();
                dam[byte] ^= 1 << bit;
                let verdict = ZFLT
                    .decode(&dam)
                    .and_then(|p| Request::decode(p).map(|_| ()));
                assert!(
                    verdict.is_err(),
                    "flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn stream_framing_round_trips() {
        let payload = Request::Stats { session: 0 }.encode();
        let mut buf = Vec::new();
        ZFLT.write(&mut buf, &payload).unwrap();
        let mut cursor = &buf[..];
        assert_eq!(ZFLT.read(&mut cursor).unwrap(), payload);
        assert!(cursor.is_empty());
    }

    #[test]
    fn frame_buffer_matches_one_shot_decoding_at_every_split() {
        let frames: Vec<Vec<u8>> = sample_requests()
            .iter()
            .map(|r| encode_frame(&r.encode()))
            .collect();
        let stream: Vec<u8> = frames.concat();
        let payloads: Vec<Vec<u8>> = frames
            .iter()
            .map(|f| ZFLT.decode(f).unwrap().to_vec())
            .collect();
        // Feed the coalesced stream one byte at a time; the borrowed
        // payloads must come out identical to one-shot decoding.
        let mut fb = FrameBuffer::new();
        let mut got = Vec::new();
        for &b in &stream {
            fb.extend_from_slice(&[b]);
            while let Some(p) = fb.next_frame().unwrap() {
                got.push(p.to_vec());
            }
        }
        assert_eq!(got, payloads);
        assert!(fb.is_empty());
    }

    #[test]
    fn scan_frame_reports_damage_as_soon_as_it_is_visible() {
        assert_eq!(ZFLT.scan(b"ZF"), Ok(None));
        assert_eq!(ZFLT.scan(b"ZX"), Err(WireError::BadMagic));
        assert_eq!(ZFLT.scan(b"ZFLT\x07"), Err(WireError::BadVersion(7)));
        let mut oversize = b"ZFLT\x01".to_vec();
        oversize.extend_from_slice(&(MAX_FRAME_PAYLOAD as u32 + 1).to_le_bytes());
        assert!(matches!(ZFLT.scan(&oversize), Err(WireError::Oversize(_))));
    }

    #[test]
    fn decoder_rejects_structural_damage() {
        assert_eq!(ZFLT.decode(&[]), Err(WireError::Truncated));
        let frame = encode_frame(b"x");
        assert_eq!(
            ZFLT.decode(&frame[..frame.len() - 1]),
            Err(WireError::LengthMismatch {
                declared: 1,
                actual: 0
            })
        );
        let mut extra = frame.clone();
        extra.push(0);
        assert!(ZFLT.decode(&extra).is_err());
        // Unknown opcode payloads decode as frames but not as messages.
        let odd = encode_frame(&[0xEE]);
        let payload = ZFLT.decode(&odd).unwrap();
        assert_eq!(
            Request::decode(payload),
            Err(WireError::UnknownOpcode(0xEE))
        );
        // Trailing bytes inside the payload are caught by finish().
        let padded = encode_frame(&{
            let mut p = Request::Shutdown.encode();
            p.push(0);
            p
        });
        assert_eq!(
            Request::decode(ZFLT.decode(&padded).unwrap()),
            Err(WireError::TrailingBytes)
        );
    }

    #[test]
    fn bounded_frame_buffer_rejects_hostile_length_before_buffering_it() {
        // A peer declares a 12 MiB payload against a 4 KiB ceiling: the
        // rejection must come from the 9 header bytes alone.
        let mut fb = FrameBuffer::with_max_payload(4096);
        let mut header = b"ZFLT\x01".to_vec();
        header.extend_from_slice(&(12u32 << 20).to_le_bytes());
        fb.extend_from_slice(&header);
        assert!(matches!(fb.next_frame(), Err(WireError::Oversize(n)) if n == 12 << 20));
        // An in-bound frame on a fresh buffer with the same ceiling works.
        let mut fb = FrameBuffer::with_max_payload(4096);
        fb.extend_from_slice(&encode_frame(&[7u8; 4096]));
        assert_eq!(fb.next_frame().unwrap().unwrap(), &[7u8; 4096][..]);
        // One past the ceiling is rejected even though the protocol-wide
        // MAX_FRAME_PAYLOAD would accept it.
        let mut fb = FrameBuffer::with_max_payload(4096);
        fb.extend_from_slice(&encode_frame(&[7u8; 4097]));
        assert!(matches!(fb.next_frame(), Err(WireError::Oversize(4097))));
    }

    #[test]
    fn bounded_fill_from_never_buffers_past_the_ceiling() {
        // A peer that streams unbounded garbage after a valid header must
        // not grow the buffer past max_payload + FRAME_OVERHEAD.
        let mut fb = FrameBuffer::with_max_payload(1024);
        let mut flood = encode_frame(&[1u8; 1024]);
        flood.extend_from_slice(&vec![0xAA; 1 << 20]);
        let mut cursor = &flood[..];
        let mut drained = Vec::new();
        loop {
            let n = fb.fill_from(&mut cursor, 64 * 1024).unwrap();
            assert!(fb.len() <= 1024 + FRAME_OVERHEAD, "buffer grew past cap");
            match fb.next_frame() {
                Ok(Some(p)) => drained.push(p.to_vec()),
                Ok(None) => {
                    if n == 0 {
                        // Budget exhausted with no frame: the stream is
                        // damaged or stalled — caller drops it. Here the
                        // garbage tail trips BadMagic first, so reaching
                        // this branch with bytes left would be a bug.
                        assert!(cursor.is_empty(), "clamp starved a live stream");
                        break;
                    }
                }
                Err(e) => {
                    assert_eq!(e, WireError::BadMagic);
                    break;
                }
            }
        }
        assert_eq!(drained, vec![vec![1u8; 1024]]);
    }

    #[test]
    fn a_payload_one_past_the_cap_is_refused_on_write() {
        let over = vec![0u8; MAX_FRAME_PAYLOAD + 1];
        let oversize = Err(WireError::Oversize(over.len() as u64));
        let mut sink = Vec::new();
        assert_eq!(ZFLT.write(&mut sink, &over), oversize);
        assert_eq!(ZFLT.encode(&over).map(|_| ()), oversize);
        assert!(sink.is_empty(), "nothing of a refused frame is written");
        assert!(encode_frame(&over).is_empty());
        assert!(ZFLT.write(&mut sink, &over[1..]).is_ok());
    }

    #[test]
    fn retry_policy_backoff_is_bounded_exponential() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff(1), Duration::from_millis(50));
        assert_eq!(p.backoff(2), Duration::from_millis(100));
        assert_eq!(p.backoff(3), Duration::from_millis(200));
        // Saturates at the ceiling rather than growing without bound.
        assert_eq!(p.backoff(20), p.backoff_ceiling);
        assert_eq!(p.backoff(u32::MAX), p.backoff_ceiling);
        assert_eq!(RetryPolicy::immediate().backoff(3), Duration::ZERO);
    }
}
