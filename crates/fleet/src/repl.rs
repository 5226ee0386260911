//! `ZREP` — chunk-sync replication and migration over the snapshot store.
//!
//! The durable store already makes one fleet crash-recoverable: every
//! slice commit is a content-addressed manifest record whose chunks
//! reassemble the committed snapshot byte-identically. This module
//! moves those records between *machines* with the same end-to-end
//! discipline:
//!
//! * **Replication** ([`spawn_replicator`] / [`ReplSink`]): a primary
//!   fleet notes every committed slice in a [`ReplSink`]; a pump thread
//!   drains the dirty set and ships each session's latest record to a
//!   standby running [`serve_repl`], sending only the chunks the
//!   standby does not already hold. Ack lag is bounded: when the
//!   standby falls more than `lag_cap` commits behind, the primary
//!   sheds new injects with `ERR_OVERLOADED` instead of silently
//!   widening the failover loss window. On primary death the standby's
//!   store *is* a recoverable fleet directory — promotion is just
//!   `Fleet::start` (or `zarf serve`) over it, and every acknowledged
//!   session resumes byte-identical to a standalone run.
//! * **Migration** ([`migrate_session`]): move one live session from a
//!   serving fleet onto a `ZREP` receiver (a standby) with exactly-once
//!   cutover. The source quiesces the session at a slice boundary (new
//!   ops are shed typed), the destination receives only the chunks it
//!   is missing, verifies the reassembled snapshot end-to-end (length,
//!   whole-snapshot hash, and a structural `ZSNP` audit), and only
//!   after its acknowledgement does the source release the session.
//!   Any failure resumes the session on the source — it is never lost
//!   in the middle. Promoting the destination store serves it there.
//!
//! Each side of the protocol is one code path. The sender is one link
//! type whose `ship` step (Offer → Need → Chunks → Commit → CommitAck)
//! serves the pump and migration alike; they differ only in where
//! chunk bytes come from (the local store, or the source fleet over
//! `ZFLT`). The receiver answers each message in one function, and its
//! connection loop alone turns a typed reject into an `Err` frame.
//!
//! ## Frame layout
//!
//! [`ZREP`] is the shared [`zarf_core::codec::Frame`] under its own
//! magic — the same frame, CRC-32 and exact-consume [`Reader`] as
//! `ZFLT` — so every transport guarantee (single-bit-flip rejection,
//! truncation rejection, exact consume) is the same code. Messages:
//!
//! | opcode | message     | body                                        |
//! |--------|-------------|---------------------------------------------|
//! | 1      | `Hello`     | —                                           |
//! | 2      | `HelloAck`  | —                                           |
//! | 3      | `Offer`     | session record (the store's codec)          |
//! | 4      | `Need`      | already u8, count, then chunk ids ×16 bytes |
//! | 5      | `Chunk`     | id 16 bytes, length-prefixed payload        |
//! | 6      | `Commit`    | session u64, commit_seq u64                 |
//! | 7      | `CommitAck` | session u64, commit_seq u64                 |
//! | 8      | `Close`     | session u64                                 |
//! | 9      | `CloseAck`  | session u64                                 |
//! | 10     | `Err`       | code u32, message string                    |
//!
//! The receiver is idempotent by construction: chunks are
//! content-addressed (a duplicate write is a no-op), an `Offer` of the
//! exact record the receiver holds answers `already` (an older held
//! record is the base of a delta; a newer or different one under the
//! same id is rejected typed), and a `Commit` for a
//! record already adopted at that sequence re-acks instead of failing —
//! so duplicated or replayed frames after a reconnect converge on the
//! same store state. The `FaultSite::Repl` chaos axis (link drop,
//! stall, reorder, truncated stream, duplicated delivery) exercises
//! exactly these paths.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::ops::Bound;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use zarf_chaos::{FaultKind, FaultPlan, FaultSite};
use zarf_core::codec::{put_bytes, put_string, put_u32, put_u64, Frame, Reader};
use zarf_hw::verify_container;
use zarf_store::{content_hash, ChunkId, SessionRecord, Store};

use crate::poll::{wait, Interest, Watch, MAX_WAIT};
use crate::wire::{RetryPolicy, WireError, MAX_FRAME_PAYLOAD};
use crate::{FleetError, Request, Response};

/// The `ZREP` frame: magic `"ZREP"`, version 1, payloads up to
/// [`MAX_FRAME_PAYLOAD`].
pub const ZREP: Frame<WireError> = Frame::new(*b"ZREP", &[1], MAX_FRAME_PAYLOAD);

/// Error code carried by [`ReplMsg::Err`]: the receiver's store failed.
pub const REPL_ERR_STORE: u32 = 1;
/// Error code: a message violated the protocol (bad sequence, unknown
/// commit, …).
pub const REPL_ERR_PROTOCOL: u32 = 2;
/// Error code: a chunk's bytes did not hash to its claimed id.
pub const REPL_ERR_HASH: u32 = 3;

// -- message codec ------------------------------------------------------------

const OP_HELLO: u8 = 1;
const OP_HELLO_ACK: u8 = 2;
const OP_OFFER: u8 = 3;
const OP_NEED: u8 = 4;
const OP_CHUNK: u8 = 5;
const OP_COMMIT: u8 = 6;
const OP_COMMIT_ACK: u8 = 7;
const OP_CLOSE: u8 = 8;
const OP_CLOSE_ACK: u8 = 9;
const OP_ERR: u8 = 10;

/// The `ZREP` replication messages. The pump speaks request/response
/// except for [`ReplMsg::Chunk`], which is pipelined with no reply —
/// the following `Commit`'s ack covers the whole batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplMsg {
    /// Link open; the receiver answers [`ReplMsg::HelloAck`].
    Hello,
    /// The receiver is ready. It carries nothing: each `Offer` learns
    /// what is held, hash-exact, through `Need`.
    HelloAck,
    /// A session record the sender wants durable on the receiver.
    Offer {
        /// The record (complete ordered chunk list).
        rec: SessionRecord,
    },
    /// The receiver's delta plan for an offer.
    Need {
        /// The receiver already holds exactly the offered record (same
        /// commit sequence and snapshot hash); nothing to ship.
        already: bool,
        /// Chunk ids the receiver is missing (deduplicated).
        chunks: Vec<ChunkId>,
    },
    /// One content-addressed chunk. Pipelined: no reply.
    Chunk {
        /// The claimed content address (re-verified on arrival).
        id: ChunkId,
        /// The chunk payload.
        bytes: Vec<u8>,
    },
    /// All chunks for an offer have been sent; adopt the record.
    Commit {
        /// The session.
        session: u64,
        /// The commit sequence being adopted.
        commit_seq: u64,
    },
    /// The record is durable and end-to-end verified on the receiver.
    CommitAck {
        /// The session.
        session: u64,
        /// The acknowledged commit sequence.
        commit_seq: u64,
    },
    /// The session closed on the primary; drop it on the standby.
    Close {
        /// The session.
        session: u64,
    },
    /// The close is durable on the receiver.
    CloseAck {
        /// The session.
        session: u64,
    },
    /// The receiver rejected a message (`REPL_ERR_*`).
    Err {
        /// Machine-readable code.
        code: u32,
        /// Human-readable cause.
        message: String,
    },
}

impl ReplMsg {
    /// Serialize to a payload (opcode + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            ReplMsg::Hello => out.push(OP_HELLO),
            ReplMsg::HelloAck => out.push(OP_HELLO_ACK),
            ReplMsg::Offer { rec } => {
                out.push(OP_OFFER);
                rec.put(&mut out);
            }
            ReplMsg::Need { already, chunks } => {
                out.push(OP_NEED);
                out.push(*already as u8);
                put_u32(&mut out, chunks.len() as u32);
                for c in chunks {
                    out.extend_from_slice(&c.0);
                }
            }
            ReplMsg::Chunk { id, bytes } => {
                out.push(OP_CHUNK);
                out.extend_from_slice(&id.0);
                put_bytes(&mut out, bytes);
            }
            ReplMsg::Commit {
                session,
                commit_seq,
            } => {
                out.push(OP_COMMIT);
                put_u64(&mut out, *session);
                put_u64(&mut out, *commit_seq);
            }
            ReplMsg::CommitAck {
                session,
                commit_seq,
            } => {
                out.push(OP_COMMIT_ACK);
                put_u64(&mut out, *session);
                put_u64(&mut out, *commit_seq);
            }
            ReplMsg::Close { session } => {
                out.push(OP_CLOSE);
                put_u64(&mut out, *session);
            }
            ReplMsg::CloseAck { session } => {
                out.push(OP_CLOSE_ACK);
                put_u64(&mut out, *session);
            }
            ReplMsg::Err { code, message } => {
                out.push(OP_ERR);
                put_u32(&mut out, *code);
                put_string(&mut out, message);
            }
        }
        out
    }

    /// Deserialize from a payload; the whole payload must be consumed.
    pub fn decode(payload: &[u8]) -> Result<ReplMsg, WireError> {
        let mut r = Reader::new(payload);
        let msg = match r.u8()? {
            OP_HELLO => ReplMsg::Hello,
            OP_HELLO_ACK => ReplMsg::HelloAck,
            OP_OFFER => ReplMsg::Offer {
                rec: SessionRecord::read(&mut r)?,
            },
            OP_NEED => {
                let already = r.flag("already flag")?;
                let chunks = r.list(16, |r| r.array().map(ChunkId))?;
                ReplMsg::Need { already, chunks }
            }
            OP_CHUNK => ReplMsg::Chunk {
                id: ChunkId(r.array()?),
                bytes: r.bytes()?,
            },
            OP_COMMIT => ReplMsg::Commit {
                session: r.u64()?,
                commit_seq: r.u64()?,
            },
            OP_COMMIT_ACK => ReplMsg::CommitAck {
                session: r.u64()?,
                commit_seq: r.u64()?,
            },
            OP_CLOSE => ReplMsg::Close { session: r.u64()? },
            OP_CLOSE_ACK => ReplMsg::CloseAck { session: r.u64()? },
            OP_ERR => ReplMsg::Err {
                code: r.u32()?,
                message: r.string()?,
            },
            op => return Err(WireError::UnknownOpcode(op)),
        };
        r.finish()?;
        Ok(msg)
    }
}

// -- the sink: what the fleet notes, what the pump drains ---------------------

/// Work the pump owes the standby.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplWork {
    /// Ship the session's latest committed record.
    Commit(u64),
    /// Propagate a session close.
    Close(u64),
}

#[derive(Debug, Default)]
struct SinkState {
    /// Sessions with a committed record the standby has not acked.
    dirty: BTreeSet<u64>,
    /// The session drained last; the drain resumes after it, so a
    /// session that keeps failing cannot starve the ones behind it.
    cursor: u64,
    /// Sessions whose latest record the standby refused: the refused
    /// commit sequence and the standby's reason. Each stays parked
    /// until its next commit.
    parked: BTreeMap<u64, (u64, String)>,
    /// Session closes not yet propagated.
    closed: VecDeque<u64>,
    /// Latest committed sequence per session.
    latest: BTreeMap<u64, u64>,
    /// Latest sequence the standby acknowledged per session.
    acked: BTreeMap<u64, u64>,
    shutdown: bool,
}

impl SinkState {
    /// Commits the standby has not acknowledged: Σ (latest − acked)
    /// plus the unpropagated-close backlog. A dead link keeps growing
    /// this even with few sessions, which is what trips load shedding.
    fn lag(&self) -> u64 {
        let commits: u64 = self
            .latest
            .iter()
            .map(|(id, &seq)| seq.saturating_sub(self.acked.get(id).copied().unwrap_or(0)))
            .sum();
        commits + self.closed.len() as u64
    }
}

/// The coordination point between a primary fleet and its replication
/// pump. The fleet's commit path calls [`ReplSink::note_commit`] (cheap:
/// a map insert under one mutex); the pump drains coalesced work with
/// [`ReplSink::next_work`]. Only the *latest* record per session ships —
/// intermediate commits superseded before the pump got to them are
/// skipped, which is what keeps a slow link from unbounded queueing.
#[derive(Debug)]
pub struct ReplSink {
    state: Mutex<SinkState>,
    work: Condvar,
    /// Unacknowledged-commit ceiling before injects are shed.
    lag_cap: u64,
}

impl ReplSink {
    /// A sink shedding injects once the standby is more than `lag_cap`
    /// commits behind (0 is treated as 1: fully synchronous).
    pub fn new(lag_cap: u64) -> Arc<ReplSink> {
        Arc::new(ReplSink {
            state: Mutex::new(SinkState::default()),
            work: Condvar::new(),
            lag_cap: lag_cap.max(1),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SinkState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// A slice commit landed durably on the primary (a parked session
    /// is offered again).
    pub fn note_commit(&self, session: u64, commit_seq: u64) {
        let mut s = self.lock();
        let e = s.latest.entry(session).or_insert(commit_seq);
        *e = (*e).max(commit_seq);
        s.parked.remove(&session);
        s.dirty.insert(session);
        drop(s);
        self.work.notify_all();
    }

    /// A session closed on the primary.
    pub fn note_close(&self, session: u64) {
        let mut s = self.lock();
        s.dirty.remove(&session);
        s.parked.remove(&session);
        s.latest.remove(&session);
        s.acked.remove(&session);
        s.closed.push_back(session);
        drop(s);
        self.work.notify_all();
    }

    /// The standby acknowledged a commit end-to-end.
    pub fn note_acked(&self, session: u64, commit_seq: u64) {
        let mut s = self.lock();
        let e = s.acked.entry(session).or_insert(commit_seq);
        *e = (*e).max(commit_seq);
    }

    /// Re-queue a session whose ship attempt failed (the pump calls
    /// this before reconnecting so nothing is lost across link faults).
    pub fn mark_dirty(&self, session: u64) {
        let mut s = self.lock();
        if s.latest.contains_key(&session) {
            s.dirty.insert(session);
        }
        drop(s);
        self.work.notify_all();
    }

    /// The standby refused `session`'s record at `commit_seq` with
    /// `reason`. The session stays unacked, and so counts toward lag,
    /// but is not offered again until its next commit.
    pub fn park(&self, session: u64, commit_seq: u64, reason: String) {
        let mut s = self.lock();
        if s.latest.contains_key(&session) {
            s.dirty.remove(&session);
            s.parked.insert(session, (commit_seq, reason));
        }
    }

    /// Parked sessions as `(session, commit_seq, reason)`.
    pub fn parked(&self) -> Vec<(u64, u64, String)> {
        self.lock()
            .parked
            .iter()
            .map(|(&id, (seq, reason))| (id, *seq, reason.clone()))
            .collect()
    }

    /// Everything the standby has acknowledged, per session. A failover
    /// proof compares the promoted standby against exactly this map.
    pub fn acked(&self) -> BTreeMap<u64, u64> {
        self.lock().acked.clone()
    }

    /// `Some(detail)` when unacknowledged replication lag exceeds the
    /// cap — the primary's inject paths shed with that detail, which
    /// names every parked session and the standby's reason.
    pub fn overloaded(&self) -> Option<String> {
        let s = self.lock();
        let lag = s.lag();
        (lag > self.lag_cap).then(|| {
            let mut detail = format!(
                "replication lag {lag} commit(s) exceeds cap {}",
                self.lag_cap
            );
            for (id, (seq, reason)) in &s.parked {
                detail.push_str(&format!(
                    "; session {id} parked at seq {seq}: standby refused it ({reason})"
                ));
            }
            detail
        })
    }

    /// Stop the pump (it exits after its current exchange).
    pub fn shutdown(&self) {
        self.lock().shutdown = true;
        self.work.notify_all();
    }

    /// True once [`ReplSink::shutdown`] was called.
    pub fn is_shutdown(&self) -> bool {
        self.lock().shutdown
    }

    /// Next unit of work, blocking up to `timeout`. Closes drain before
    /// commits (a close supersedes any pending commit for the session),
    /// and commits drain round-robin by session id; `None` means no work
    /// arrived in time or the sink shut down.
    pub fn next_work(&self, timeout: Duration) -> Option<ReplWork> {
        let mut s = self.lock();
        let mut timed_out = false;
        loop {
            if let Some(id) = s.closed.pop_front() {
                return Some(ReplWork::Close(id));
            }
            let after = (Bound::Excluded(s.cursor), Bound::Unbounded);
            if let Some(id) = s.dirty.range(after).next().or(s.dirty.first()).copied() {
                s.dirty.remove(&id);
                s.cursor = id;
                return Some(ReplWork::Commit(id));
            }
            // A timeout still drains once more above, so a notify racing
            // it wins.
            if s.shutdown || timed_out {
                return None;
            }
            let (guard, wait) = self
                .work
                .wait_timeout(s, timeout)
                .unwrap_or_else(|e| e.into_inner());
            s = guard;
            timed_out = wait.timed_out();
        }
    }
}

// -- the pump: primary side ---------------------------------------------------

/// Configuration for [`spawn_replicator`].
#[derive(Debug, Clone, Default)]
pub struct ReplicatorConfig {
    /// The standby's `ZREP` listen address.
    pub target: String,
    /// Socket deadlines and reconnect backoff.
    pub policy: RetryPolicy,
    /// Deterministic link-fault plan; consulted at
    /// (`FaultSite::Repl`, frame index) for every frame the pump sends,
    /// where the frame index is the pump's own monotone send counter.
    pub chaos: Option<FaultPlan>,
}

/// The sender's end of a `ZREP` link, used by the replication pump and
/// by migration alike. It injects `FaultSite::Repl` faults on the frames
/// it sends when given a plan.
struct ChaosLink<'a> {
    stream: TcpStream,
    chaos: Option<&'a FaultPlan>,
    /// The sender's monotone send counter (the pump's persists across
    /// reconnects so a plan's later coordinates stay reachable).
    frames_sent: &'a mut u64,
    /// A frame held back by a `Reorder` fault, sent after the next one.
    held: Option<Vec<u8>>,
}

impl<'a> ChaosLink<'a> {
    /// Connect to the receiver at `target` under `policy` and open the
    /// link with `Hello`.
    fn open(
        target: &str,
        policy: &RetryPolicy,
        chaos: Option<&'a FaultPlan>,
        frames_sent: &'a mut u64,
    ) -> Result<ChaosLink<'a>, FleetError> {
        let mut link = ChaosLink {
            stream: crate::server::connect(target, policy)?,
            chaos,
            frames_sent,
            held: None,
        };
        match link.call(&ReplMsg::Hello)? {
            ReplMsg::HelloAck => Ok(link),
            other => Err(refused(other)),
        }
    }

    fn raw_send(&mut self, frame: &[u8]) -> Result<(), WireError> {
        self.stream
            .write_all(frame)
            .map_err(|e| WireError::Io(e.to_string()))
    }

    fn send(&mut self, msg: &ReplMsg) -> Result<(), WireError> {
        let frame = ZREP.encode(&msg.encode())?;
        let fault = self
            .chaos
            .and_then(|p| p.at(FaultSite::Repl, *self.frames_sent));
        *self.frames_sent += 1;
        match fault {
            None => {
                self.raw_send(&frame)?;
                if let Some(held) = self.held.take() {
                    self.raw_send(&held)?;
                }
                Ok(())
            }
            Some(FaultKind::LinkDrop) => {
                let _ = self.stream.shutdown(std::net::Shutdown::Both);
                Err(WireError::Io("chaos: link drop".into()))
            }
            Some(FaultKind::ReplStall) => {
                std::thread::sleep(Duration::from_millis(40));
                self.raw_send(&frame)
            }
            Some(FaultKind::TruncatedStream) => {
                let cut = frame.len() / 2;
                let _ = self.stream.write_all(&frame[..cut]);
                let _ = self.stream.shutdown(std::net::Shutdown::Both);
                Err(WireError::Io("chaos: truncated stream".into()))
            }
            Some(FaultKind::DupDeliver) => {
                self.raw_send(&frame)?;
                self.raw_send(&frame)
            }
            Some(FaultKind::Reorder) => {
                // Hold this frame; it goes out after the next send. The
                // receiver's idempotence (or the exchange's timeout +
                // reconnect) absorbs the inversion.
                if let Some(prev) = self.held.replace(frame) {
                    self.raw_send(&prev)?;
                }
                Ok(())
            }
            // Foreign-site kinds in a mixed plan are ignored.
            Some(_) => self.raw_send(&frame),
        }
    }

    fn recv(&mut self) -> Result<ReplMsg, WireError> {
        let payload = ZREP.read(&mut self.stream)?;
        ReplMsg::decode(&payload)
    }

    /// Request/response exchange.
    fn call(&mut self, msg: &ReplMsg) -> Result<ReplMsg, WireError> {
        self.send(msg)?;
        self.recv()
    }

    /// Make `rec` durable on the receiver: `Offer`, then every chunk its
    /// `Need` names (read through `fetch_chunk`), then `Commit`, which
    /// the receiver acknowledges only after verifying the reassembled
    /// snapshot. The replication pump and migration differ only in
    /// where `fetch_chunk` reads from.
    ///
    /// A typed reject of the `Offer` is the receiver's verdict on the
    /// record itself: it comes back as `Ok(Err((code, message)))`, and
    /// the link stays usable. Every other failure, a typed reject later
    /// in the exchange included, is the outer `Err`: the exchange broke
    /// (a reordered chunk can make a healthy receiver refuse the
    /// `Commit`), and a fresh link may succeed where this one failed.
    fn ship(
        &mut self,
        rec: SessionRecord,
        mut fetch_chunk: impl FnMut(ChunkId) -> Result<Vec<u8>, FleetError>,
    ) -> Result<Result<MigrateReport, (u32, String)>, FleetError> {
        let mut report = MigrateReport {
            session: rec.id,
            commit_seq: rec.commit_seq,
            already: false,
            chunks_shipped: 0,
            bytes_shipped: 0,
            snap_len: rec.snap_len,
        };
        let need = match self.call(&ReplMsg::Offer { rec })? {
            ReplMsg::Need { already: true, .. } => {
                report.already = true;
                return Ok(Ok(report));
            }
            ReplMsg::Need { chunks, .. } => chunks,
            ReplMsg::Err { code, message } => return Ok(Err((code, message))),
            other => return Err(refused(other)),
        };
        for id in need {
            let bytes = fetch_chunk(id)?;
            report.chunks_shipped += 1;
            report.bytes_shipped += bytes.len() as u64;
            self.send(&ReplMsg::Chunk { id, bytes })?;
        }
        match self.call(&ReplMsg::Commit {
            session: report.session,
            commit_seq: report.commit_seq,
        })? {
            ReplMsg::CommitAck {
                session,
                commit_seq,
            } if session == report.session && commit_seq == report.commit_seq => Ok(Ok(report)),
            other => Err(refused(other)),
        }
    }
}

/// The error for a reply an exchange did not expect: the receiver's
/// typed reject, or a protocol violation.
fn refused(reply: ReplMsg) -> FleetError {
    match reply {
        ReplMsg::Err { code, message } => FleetError::Remote { code, message },
        other => FleetError::Wire(WireError::Malformed(msg_name(&other))),
    }
}

fn msg_name(m: &ReplMsg) -> &'static str {
    match m {
        ReplMsg::Hello => "unexpected Hello",
        ReplMsg::HelloAck => "unexpected HelloAck",
        ReplMsg::Offer { .. } => "unexpected Offer",
        ReplMsg::Need { .. } => "unexpected Need",
        ReplMsg::Chunk { .. } => "unexpected Chunk",
        ReplMsg::Commit { .. } => "unexpected Commit",
        ReplMsg::CommitAck { .. } => "unexpected CommitAck",
        ReplMsg::Close { .. } => "unexpected Close",
        ReplMsg::CloseAck { .. } => "unexpected CloseAck",
        ReplMsg::Err { .. } => "unexpected Err",
    }
}

/// Start the replication pump: a thread that drains `sink` and ships
/// every noted commit and close to `cfg.target`, reconnecting with the
/// policy's bounded exponential backoff on any link fault. Each
/// acknowledged commit is noted back into the sink (releasing lag) and
/// logged as `repl-ack session=<id> seq=<n>` on stderr, which is what a
/// failover harness keys on. The thread exits after
/// [`ReplSink::shutdown`].
pub fn spawn_replicator(
    store: Arc<Store>,
    sink: Arc<ReplSink>,
    cfg: ReplicatorConfig,
) -> Result<std::thread::JoinHandle<()>, FleetError> {
    std::thread::Builder::new()
        .name("zarf-repl-pump".into())
        .spawn(move || {
            let mut frames_sent = 0u64;
            // Links in a row that failed before moving any work. A link
            // that opens but has its first exchange rejected counts too,
            // so a standby refusing a record is not redialled in a hot
            // loop.
            let mut fruitless = 0u32;
            while !sink.is_shutdown() {
                if fruitless > 0 {
                    std::thread::sleep(cfg.policy.backoff(fruitless));
                }
                let progressed = match ChaosLink::open(
                    &cfg.target,
                    &cfg.policy,
                    cfg.chaos.as_ref(),
                    &mut frames_sent,
                ) {
                    Ok(mut link) => pump(&mut link, &store, &sink),
                    Err(_) => false,
                };
                fruitless = if progressed {
                    0
                } else {
                    fruitless.saturating_add(1)
                };
            }
        })
        .map_err(|e| FleetError::Load(format!("spawn replication pump: {e}")))
}

/// Drain `sink` over an open link until the sink shuts down or the link
/// fails; a failed unit of work is requeued before returning, and a
/// record the standby refuses is parked in the sink while the drain
/// goes on. Returns whether any unit of work completed on this link.
fn pump(link: &mut ChaosLink<'_>, store: &Store, sink: &ReplSink) -> bool {
    let mut progressed = false;
    loop {
        let Some(work) = sink.next_work(Duration::from_millis(50)) else {
            if sink.is_shutdown() {
                return progressed;
            }
            continue;
        };
        match work {
            ReplWork::Commit(id) => {
                // The record is read at ship time, so coalesced commits
                // ship once.
                let Some(rec) = store.session(id) else {
                    continue; // closed since noted; the close will follow
                };
                let seq = rec.commit_seq;
                match link.ship(rec, |c| store.get_chunk_bytes(c).map_err(FleetError::Store)) {
                    Ok(Ok(_)) => {
                        sink.note_acked(id, seq);
                        eprintln!("zarf-repl: repl-ack session={id} seq={seq}");
                    }
                    Ok(Err((_, reason))) => {
                        eprintln!("zarf-repl: repl-refused session={id} seq={seq}: {reason}");
                        sink.park(id, seq, reason);
                    }
                    Err(_) => {
                        sink.mark_dirty(id);
                        return progressed;
                    }
                }
            }
            ReplWork::Close(id) => match link.call(&ReplMsg::Close { session: id }) {
                Ok(ReplMsg::CloseAck { session }) if session == id => {
                    eprintln!("zarf-repl: repl-close session={id}");
                }
                _ => {
                    // Requeue the close, reconnect.
                    sink.note_close(id);
                    return progressed;
                }
            },
        }
        progressed = true;
    }
}

// -- the receiver: standby side -----------------------------------------------

/// What a standby receiver processed over its lifetime.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplReceiverStats {
    /// Records adopted and end-to-end verified.
    pub commits: u64,
    /// Chunks written into the standby store.
    pub chunks: u64,
    /// Chunk payload bytes received (the wire cost of replication).
    pub bytes: u64,
    /// Session closes propagated.
    pub closes: u64,
    /// Messages rejected with a typed `Err` frame.
    pub rejects: u64,
}

/// Serve the `ZREP` protocol on `listener`, writing every verified
/// record into `store`, until `stop` is set. Connections are handled
/// one at a time (a standby has one primary); a damaged stream drops
/// the connection and the next accept resyncs via `Hello`.
///
/// Every chunk is re-hashed on arrival and every committed record is
/// reassembled, length- and hash-verified by the store's adoption path,
/// and structurally audited as a `ZSNP` container before it is acked —
/// the standby never acknowledges bytes it could not serve.
pub fn serve_repl(
    listener: TcpListener,
    store: Arc<Store>,
    stop: Arc<AtomicBool>,
) -> Result<ReplReceiverStats, FleetError> {
    listener
        .set_nonblocking(true)
        .map_err(|e| FleetError::Wire(WireError::Io(e.to_string())))?;
    let mut stats = ReplReceiverStats::default();
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nonblocking(false);
                let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
                let _ = stream.set_nodelay(true);
                serve_repl_conn(stream, &store, &stop, &mut stats);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                // Wake on the next connection, or re-check `stop`.
                let mut w = [Watch::new(listener.as_raw_fd(), Interest::READ)];
                wait(&mut w, MAX_WAIT)
                    .map_err(|e| FleetError::Wire(WireError::Io(e.to_string())))?;
            }
            Err(e) => return Err(FleetError::Wire(WireError::Io(e.to_string()))),
        }
    }
    Ok(stats)
}

fn serve_repl_conn(
    mut stream: TcpStream,
    store: &Store,
    stop: &AtomicBool,
    stats: &mut ReplReceiverStats,
) {
    // Records offered but not yet committed on this connection.
    let mut pending: HashMap<u64, SessionRecord> = HashMap::new();
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        // Idle probe: a read-timeout here just re-checks `stop`; once a
        // frame has started arriving, a stall mid-frame is damage and
        // drops the link (there is no resync point mid-stream).
        match stream.peek(&mut [0u8; 1]) {
            Ok(0) => return, // EOF
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return,
        }
        let Ok(payload) = ZREP.read(&mut stream) else {
            return; // EOF or damaged stream: back to accept
        };
        // A whole frame arrived, so the stream is still in step: a typed
        // reject answers like any reply and the link stays up. Only a
        // frame whose message cannot be decoded drops it.
        let (decoded, reply) = match ReplMsg::decode(&payload) {
            Ok(msg) => (true, answer(msg, store, &mut pending, stats)),
            Err(_) => (
                false,
                Err((REPL_ERR_PROTOCOL, "undecodable message".into())),
            ),
        };
        let reply = match reply {
            Ok(None) => continue,
            Ok(Some(reply)) => reply,
            Err((code, message)) => {
                stats.rejects += 1;
                ReplMsg::Err { code, message }
            }
        };
        if ZREP.write(&mut stream, &reply.encode()).is_err() || !decoded {
            return;
        }
    }
}

/// The receiver's answer to one message: a reply (`None` for a
/// pipelined `Chunk`), or a typed `(code, message)` reject.
fn answer(
    msg: ReplMsg,
    store: &Store,
    pending: &mut HashMap<u64, SessionRecord>,
    stats: &mut ReplReceiverStats,
) -> Result<Option<ReplMsg>, (u32, String)> {
    let reply = match msg {
        ReplMsg::Hello => ReplMsg::HelloAck,
        ReplMsg::Offer { rec } => {
            if let Some(held) = store.session(rec.id) {
                // `already` only for the very record offered. Ids are
                // per-fleet counters, so a held record that is newer, or
                // at the same sequence with other bytes, is another
                // session: acking it would retire the offered one onto
                // nothing.
                if held.commit_seq == rec.commit_seq && held.snap_hash == rec.snap_hash {
                    return Ok(Some(ReplMsg::Need {
                        already: true,
                        chunks: vec![],
                    }));
                }
                if held.commit_seq >= rec.commit_seq {
                    return Err((
                        REPL_ERR_PROTOCOL,
                        format!(
                            "session {} is held at seq {} ({}); offered seq {} ({}) is not its successor",
                            rec.id,
                            held.commit_seq,
                            held.snap_hash.to_hex(),
                            rec.commit_seq,
                            rec.snap_hash.to_hex()
                        ),
                    ));
                }
            }
            let mut seen = BTreeSet::new();
            let chunks = rec
                .chunks
                .iter()
                .copied()
                .filter(|c| seen.insert(c.0) && !store.has_chunk(*c))
                .collect();
            pending.insert(rec.id, rec);
            ReplMsg::Need {
                already: false,
                chunks,
            }
        }
        ReplMsg::Chunk { id, bytes } => {
            // Re-hash before the store sees it: a chunk that does not
            // match its claimed address is rejected typed.
            if content_hash(&bytes) != id {
                return Err((
                    REPL_ERR_HASH,
                    format!("chunk {} does not hash to its id", id.to_hex()),
                ));
            }
            store
                .put_chunk(&bytes)
                .map_err(|e| (REPL_ERR_STORE, format!("store chunk: {e}")))?;
            stats.chunks += 1;
            stats.bytes += bytes.len() as u64;
            return Ok(None);
        }
        ReplMsg::Commit {
            session,
            commit_seq,
        } => {
            match pending.remove(&session) {
                Some(rec) if rec.commit_seq == commit_seq => {
                    store
                        .adopt_session(&rec)
                        .map_err(|e| format!("adopt: {e}"))
                        .and_then(|()| {
                            // Structural audit on top of the store's
                            // length + whole-snapshot-hash checks.
                            let bytes = store
                                .get_snapshot(session)
                                .map_err(|e| format!("read back: {e}"))?;
                            verify_container(&bytes).map_err(|e| format!("audit: {e}"))
                        })
                        .map_err(|e| (REPL_ERR_STORE, e))?;
                }
                Some(rec) => {
                    return Err((
                        REPL_ERR_STORE,
                        format!(
                            "commit seq {commit_seq} does not match offered {}",
                            rec.commit_seq
                        ),
                    ))
                }
                // Duplicate commit after a reconnect: re-ack if the store
                // already holds that state (idempotence).
                None if store
                    .session(session)
                    .is_some_and(|held| held.commit_seq >= commit_seq) => {}
                None => return Err((REPL_ERR_STORE, "commit without an offer".into())),
            }
            stats.commits += 1;
            ReplMsg::CommitAck {
                session,
                commit_seq,
            }
        }
        ReplMsg::Close { session } => {
            // Best-effort: an unknown session is already "closed".
            let _ = store.remove_session(session);
            pending.remove(&session);
            stats.closes += 1;
            ReplMsg::CloseAck { session }
        }
        other => return Err((REPL_ERR_PROTOCOL, msg_name(&other).into())),
    };
    Ok(Some(reply))
}

// -- migration ----------------------------------------------------------------

/// What a completed migration moved (what one `ship` of a record moved).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrateReport {
    /// The migrated session.
    pub session: u64,
    /// The commit sequence it moved at.
    pub commit_seq: u64,
    /// The destination already held the state (warm standby); no
    /// chunks crossed the wire.
    pub already: bool,
    /// Chunks shipped source → destination.
    pub chunks_shipped: u64,
    /// Chunk payload bytes shipped (the wire cost; compare against
    /// `snap_len` for the delta ratio).
    pub bytes_shipped: u64,
    /// The full snapshot length, for the delta ratio.
    pub snap_len: u64,
}

/// Move one session from the serving fleet at `from` onto the `ZREP`
/// receiver at `to`, with exactly-once cutover:
///
/// 1. `Quiesce` freezes the session on the source at a slice boundary
///    (new injects are shed with `ERR_FROZEN` while queued ops drain).
/// 2. The source's manifest record is fetched and shipped to `to`
///    exactly as the replication pump ships a commit, with chunks read
///    from the source over `ZFLT` (`FetchChunk`). The destination asks
///    only for the chunks it is missing — a warm destination (prior
///    commit already replicated) typically needs under 10% of the
///    snapshot — and acks the commit only after verifying length,
///    whole-snapshot hash and a structural `ZSNP` audit.
/// 3. Only after that ack does `Release { resume: false }` retire the
///    session on the source. Any earlier failure, including a
///    destination that holds a different record under the same id,
///    releases with `resume: true` instead — the session thaws and
///    keeps serving on the source, never lost in between.
///
/// `from` is the source's `ZFLT` address; `to` is a `ZREP` listener
/// ([`serve_repl`], e.g. `zarf standby --listen`). Promoting the
/// destination store (`Fleet::start` or `zarf serve` over it) serves
/// the moved session.
pub fn migrate_session(
    from: &str,
    to: &str,
    session: u64,
    policy: &RetryPolicy,
) -> Result<MigrateReport, FleetError> {
    let unexpected = |what: &str, reply: Response| {
        FleetError::Wire(WireError::Io(format!("unexpected {what} reply: {reply:?}")))
    };
    let mut src = crate::server::Client::connect_with(from, *policy)?;
    let commit_seq = match src.call(&Request::Quiesce { session })? {
        Response::Quiesced {
            session: s,
            commit_seq,
        } if s == session => commit_seq,
        other => return Err(unexpected("quiesce", other)),
    };
    // From here on, any failure must thaw the session on the source.
    let result = (|| -> Result<MigrateReport, FleetError> {
        let record = match src.call(&Request::SessionManifest { session })? {
            Response::ManifestData { session: s, record } if s == session => record,
            other => return Err(unexpected("manifest", other)),
        };
        let rec = SessionRecord::decode(&record).map_err(WireError::from)?;
        if (rec.id, rec.commit_seq) != (session, commit_seq) {
            return Err(FleetError::Wire(WireError::Io(format!(
                "manifest names session {} at seq {}, not the quiesced {session} at {commit_seq}",
                rec.id, rec.commit_seq
            ))));
        }
        let mut frames_sent = 0;
        let mut dst = ChaosLink::open(to, policy, None, &mut frames_sent)?;
        dst.ship(rec, |id| {
            match src.call(&Request::FetchChunk { id: id.0 })? {
                Response::ChunkData { bytes } => Ok(bytes),
                other => Err(unexpected("chunk", other)),
            }
        })?
        .map_err(|(code, message)| FleetError::Remote { code, message })
    })();
    // Cutover only once the destination verified and acked; otherwise
    // thaw the session on the source. The thaw is best-effort: a source
    // that is gone stays authoritative once restarted, because the
    // destination never acked.
    let release = src.call(&Request::Release {
        session,
        resume: result.is_err(),
    });
    match result {
        Ok(report) => release.map(|_| report),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record() -> SessionRecord {
        SessionRecord {
            id: 7,
            commit_seq: 12,
            ops_done: 40,
            heap_words: 65536,
            op_budget: 1000,
            fuel_slice: 9000,
            verified: true,
            snap_len: 4096,
            snap_hash: ChunkId([1; 16]),
            chunks: vec![ChunkId([2; 16]), ChunkId([3; 16]), ChunkId([2; 16])],
        }
    }

    fn sample_msgs() -> Vec<ReplMsg> {
        vec![
            ReplMsg::Hello,
            ReplMsg::HelloAck,
            ReplMsg::Offer {
                rec: sample_record(),
            },
            ReplMsg::Need {
                already: false,
                chunks: vec![ChunkId([4; 16])],
            },
            ReplMsg::Need {
                already: true,
                chunks: vec![],
            },
            ReplMsg::Chunk {
                id: ChunkId([5; 16]),
                bytes: vec![0, 1, 2, 255],
            },
            ReplMsg::Commit {
                session: 7,
                commit_seq: 12,
            },
            ReplMsg::CommitAck {
                session: 7,
                commit_seq: 12,
            },
            ReplMsg::Close { session: 7 },
            ReplMsg::CloseAck { session: 7 },
            ReplMsg::Err {
                code: REPL_ERR_HASH,
                message: "bad chunk".into(),
            },
        ]
    }

    #[test]
    fn messages_round_trip_through_frames() {
        for msg in sample_msgs() {
            let payload = msg.encode();
            let frame = ZREP.encode(&payload).unwrap();
            let back = ZREP.decode(&frame).unwrap();
            assert_eq!(ReplMsg::decode(back).unwrap(), msg);
        }
    }

    #[test]
    fn records_round_trip_exactly() {
        let rec = sample_record();
        let bytes = rec.encode();
        assert_eq!(SessionRecord::decode(&bytes).unwrap(), rec);
        // Exact consume: a trailing byte is rejected.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(SessionRecord::decode(&padded).is_err());
        // And a truncated record is rejected.
        assert!(SessionRecord::decode(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn every_single_bit_flip_is_rejected_on_a_sample_frame() {
        let frame = ZREP
            .encode(
                &ReplMsg::Commit {
                    session: 3,
                    commit_seq: 9,
                }
                .encode(),
            )
            .unwrap();
        for byte in 0..frame.len() {
            for bit in 0..8 {
                let mut dam = frame.clone();
                dam[byte] ^= 1 << bit;
                let verdict = ZREP
                    .decode(&dam)
                    .and_then(|p| ReplMsg::decode(p).map(|_| ()));
                assert!(
                    verdict.is_err(),
                    "flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn zrep_frames_are_not_zflt_frames() {
        let frame = ZREP.encode(&ReplMsg::Hello.encode()).unwrap();
        assert_eq!(
            crate::wire::ZFLT.decode(&frame),
            Err(WireError::BadMagic),
            "a ZREP frame must never decode as ZFLT"
        );
    }

    #[test]
    fn a_payload_one_past_the_cap_is_refused_on_write() {
        let over = vec![0u8; MAX_FRAME_PAYLOAD + 1];
        let mut sink = Vec::new();
        assert_eq!(
            ZREP.write(&mut sink, &over),
            Err(WireError::Oversize(over.len() as u64))
        );
        assert!(sink.is_empty(), "nothing of a refused frame is written");
        assert!(ZREP.write(&mut sink, &over[1..]).is_ok());
    }

    #[test]
    fn sink_tracks_lag_and_sheds_past_the_cap() {
        let sink = ReplSink::new(2);
        assert!(sink.overloaded().is_none());
        sink.note_commit(1, 1);
        sink.note_commit(1, 2);
        sink.note_commit(2, 1);
        // Lag 3 > cap 2.
        assert!(sink.overloaded().is_some());
        sink.note_acked(1, 2);
        // Lag 1 <= cap.
        assert!(sink.overloaded().is_none());
        // Acks never regress.
        sink.note_acked(1, 1);
        assert_eq!(sink.acked().get(&1), Some(&2));
    }

    #[test]
    fn sink_coalesces_commits_and_orders_closes_first() {
        let sink = ReplSink::new(64);
        sink.note_commit(5, 1);
        sink.note_commit(5, 2);
        sink.note_commit(5, 3);
        // Three commits, one unit of work (the latest record ships).
        assert_eq!(sink.next_work(Duration::ZERO), Some(ReplWork::Commit(5)));
        assert_eq!(sink.next_work(Duration::ZERO), None);
        sink.note_commit(6, 1);
        sink.note_close(6);
        // The close superseded the commit entirely.
        assert_eq!(sink.next_work(Duration::ZERO), Some(ReplWork::Close(6)));
        assert_eq!(sink.next_work(Duration::ZERO), None);
        sink.shutdown();
        assert!(sink.is_shutdown());
        assert_eq!(sink.next_work(Duration::from_millis(10)), None);
    }

    #[test]
    fn offers_answer_already_only_for_the_held_record() {
        let dir = std::env::temp_dir().join(format!("zarf_repl_offer_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(&dir, zarf_store::StoreConfig::default()).unwrap();
        let meta = zarf_store::SessionMeta {
            id: 1,
            commit_seq: 4,
            ops_done: 4,
            heap_words: 4096,
            op_budget: 100,
            fuel_slice: 1000,
            verified: false,
        };
        store.put_session(&meta, &[7u8; 300]).unwrap();
        let held = store.session(1).unwrap();
        let mut pending = HashMap::new();
        let mut stats = ReplReceiverStats::default();
        let mut offer = |rec| answer(ReplMsg::Offer { rec }, &store, &mut pending, &mut stats);
        let need = |already| {
            Ok(Some(ReplMsg::Need {
                already,
                chunks: vec![],
            }))
        };

        assert_eq!(offer(held.clone()), need(true));
        // The same seq with other bytes, or an older seq, is another
        // session under the same id.
        for foreign in [
            SessionRecord {
                snap_hash: ChunkId([9; 16]),
                ..held.clone()
            },
            SessionRecord {
                commit_seq: 3,
                ..held.clone()
            },
        ] {
            assert!(matches!(offer(foreign), Err((REPL_ERR_PROTOCOL, _))));
        }
        // A successor ships as a delta against the held chunks.
        let next = SessionRecord {
            commit_seq: 5,
            ..held.clone()
        };
        assert_eq!(offer(next), need(false));
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_parked_session_waits_for_its_next_commit_and_commits_drain_round_robin() {
        let sink = ReplSink::new(1);
        let next = || sink.next_work(Duration::ZERO);
        sink.note_commit(1, 1);
        sink.note_commit(2, 1);
        assert_eq!(next(), Some(ReplWork::Commit(1)));
        // A requeued session goes behind the others.
        sink.mark_dirty(1);
        assert_eq!(next(), Some(ReplWork::Commit(2)));
        assert_eq!(next(), Some(ReplWork::Commit(1)));
        sink.park(1, 1, "held elsewhere".into());
        assert_eq!(sink.parked(), vec![(1, 1, "held elsewhere".to_string())]);
        sink.mark_dirty(2);
        assert_eq!(next(), Some(ReplWork::Commit(2)));
        assert_eq!(next(), None);
        // Still unacked: lag 2 > cap 1, and the detail says why.
        let detail = sink.overloaded().unwrap();
        assert!(
            detail.contains("session 1 parked at seq 1") && detail.contains("held elsewhere"),
            "{detail}"
        );
        sink.note_commit(1, 2);
        assert!(sink.parked().is_empty());
        assert_eq!(next(), Some(ReplWork::Commit(1)));
    }

    #[test]
    fn mark_dirty_requeues_only_live_sessions() {
        let sink = ReplSink::new(64);
        sink.note_commit(3, 1);
        assert_eq!(sink.next_work(Duration::ZERO), Some(ReplWork::Commit(3)));
        // A failed ship requeues.
        sink.mark_dirty(3);
        assert_eq!(sink.next_work(Duration::ZERO), Some(ReplWork::Commit(3)));
        // A closed session does not.
        sink.note_close(3);
        assert_eq!(sink.next_work(Duration::ZERO), Some(ReplWork::Close(3)));
        sink.mark_dirty(3);
        assert_eq!(sink.next_work(Duration::ZERO), None);
    }
}
