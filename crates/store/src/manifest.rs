//! Manifest checkpoint and commit journal codecs — pure byte-level
//! encode/decode, no I/O, so every crash shape is testable on slices.
//!
//! Durable session metadata lives in two files:
//!
//! * **`store.zman`** — the checkpoint: every live session's record
//!   plus the id high-water mark, one CRC over the whole body,
//!   replaced atomically (write `store.zman.tmp`, fsync, rename).
//! * **`store.jrnl`** — the commit journal: one self-delimiting,
//!   CRC-guarded record appended per commit or close since the last
//!   checkpoint. Replay is idempotent (commits are keyed by
//!   `(id, commit_seq)` and applied only forward), so a checkpoint
//!   that crashed *after* the rename but *before* the journal
//!   truncation merely replays records that are already folded in.
//!
//! Recovery = decode checkpoint, replay journal prefix. A torn journal
//! tail — a record the frame scan reports as an incomplete prefix — is
//! the expected crash boundary and is ignored; damage earlier in the
//! journal stops the replay at the last consistent prefix and is
//! reported, never skipped over.
//!
//! Both files use the shared frame of `zarf_core::codec` (DESIGN.md,
//! "Framing and checksums"):
//!
//! ```text
//! store.zman:  "ZMAN" | version u32 | body len u32 | body | crc32(body)
//!   body: max_id u64 | count u32 | session record...
//! store.jrnl record: "ZJRN" | body len u32 | body | crc32(body)
//!   body: type u8 (1=commit, 2=close) | ...
//! session record: id u64 | commit_seq u64 | ops_done u64 |
//!   heap_words u64 | op_budget u64 | fuel_slice u64 | verified u8 |
//!   snap_len u64 | snap_hash [16] | chunk count u32 | chunk ids [16]...
//! ```
//!
//! The session record codec here is the only one: the `ZREP` `Offer`
//! and the `ZFLT` `ManifestData` response carry the same bytes.

use std::collections::BTreeMap;

use zarf_core::codec::{put_u32, put_u64, CodecError, Frame, Reader};

use crate::hash::ChunkId;
use crate::StoreError;

/// The `store.zman` checkpoint frame: magic `"ZMAN"`, version 1 as a
/// u32, at most 64 MiB of body.
pub const ZMAN: Frame<CodecError> = Frame::new(*b"ZMAN", &[1, 0, 0, 0], 1 << 26);
/// One `store.jrnl` record frame: magic `"ZJRN"`, no version, at most
/// 64 MiB of body.
pub const ZJRN: Frame<CodecError> = Frame::new(*b"ZJRN", &[], 1 << 26);

/// Everything the store must remember about one committed session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionRecord {
    pub id: u64,
    pub commit_seq: u64,
    pub ops_done: u64,
    pub heap_words: u64,
    pub op_budget: u64,
    pub fuel_slice: u64,
    pub verified: bool,
    /// Total snapshot length — the concatenation of chunks must equal it.
    pub snap_len: u64,
    /// Content hash of the whole snapshot: the end-to-end read check.
    pub snap_hash: ChunkId,
    /// Ordered chunk ids whose concatenation is the snapshot.
    pub chunks: Vec<ChunkId>,
}

/// In-memory image of the durable manifest.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Manifest {
    /// Highest session id ever issued — recovery seeds id allocation
    /// *above* this so a recovered fleet never reuses an id.
    pub max_id: u64,
    pub sessions: BTreeMap<u64, SessionRecord>,
}

impl Manifest {
    /// Fold one journal record in. Idempotent: replaying an
    /// already-applied record is a no-op.
    pub fn apply(&mut self, rec: &JournalRecord) {
        match rec {
            JournalRecord::Commit(s) => {
                self.max_id = self.max_id.max(s.id);
                match self.sessions.get(&s.id) {
                    Some(old) if old.commit_seq >= s.commit_seq => {}
                    _ => {
                        self.sessions.insert(s.id, s.clone());
                    }
                }
            }
            JournalRecord::Close { id } => {
                self.max_id = self.max_id.max(*id);
                self.sessions.remove(id);
            }
        }
    }
}

/// One durable event appended to `store.jrnl`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalRecord {
    Commit(SessionRecord),
    Close { id: u64 },
}

impl SessionRecord {
    /// Append this record's bytes to `out`.
    pub fn put(&self, out: &mut Vec<u8>) {
        put_u64(out, self.id);
        put_u64(out, self.commit_seq);
        put_u64(out, self.ops_done);
        put_u64(out, self.heap_words);
        put_u64(out, self.op_budget);
        put_u64(out, self.fuel_slice);
        out.push(self.verified as u8);
        put_u64(out, self.snap_len);
        out.extend_from_slice(&self.snap_hash.0);
        put_u32(out, self.chunks.len() as u32);
        for c in &self.chunks {
            out.extend_from_slice(&c.0);
        }
    }

    /// Read one record; `verified` must be 0 or 1 and the chunk count
    /// must fit in the remaining input.
    pub fn read(r: &mut Reader<'_>) -> Result<SessionRecord, CodecError> {
        let id = r.u64()?;
        let commit_seq = r.u64()?;
        let ops_done = r.u64()?;
        let heap_words = r.u64()?;
        let op_budget = r.u64()?;
        let fuel_slice = r.u64()?;
        let verified = r.flag("verified flag")?;
        let snap_len = r.u64()?;
        let snap_hash = ChunkId(r.array()?);
        let chunks = r.list(16, |r| r.array().map(ChunkId))?;
        Ok(SessionRecord {
            id,
            commit_seq,
            ops_done,
            heap_words,
            op_budget,
            fuel_slice,
            verified,
            snap_len,
            snap_hash,
            chunks,
        })
    }

    /// This record alone, as bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(77 + 16 * self.chunks.len());
        self.put(&mut out);
        out
    }

    /// Decode a record that must span `buf` exactly.
    pub fn decode(buf: &[u8]) -> Result<SessionRecord, CodecError> {
        let mut r = Reader::new(buf);
        let rec = SessionRecord::read(&mut r)?;
        r.finish()?;
        Ok(rec)
    }
}

/// Serialise the whole manifest to the `store.zman` checkpoint format;
/// a body over the frame cap is refused.
pub fn encode_manifest(m: &Manifest) -> Result<Vec<u8>, CodecError> {
    let mut body = Vec::new();
    put_u64(&mut body, m.max_id);
    put_u32(&mut body, m.sessions.len() as u32);
    for s in m.sessions.values() {
        s.put(&mut body);
    }
    ZMAN.encode(&body)
}

/// Decode a `store.zman` checkpoint. Any structural problem is a
/// typed [`StoreError::ManifestCorrupt`] — a manifest is either fully
/// valid or rejected whole.
pub fn decode_manifest(bytes: &[u8]) -> Result<Manifest, StoreError> {
    let mut r = Reader::new(ZMAN.decode(bytes)?);
    let mut m = Manifest {
        max_id: r.u64()?,
        sessions: BTreeMap::new(),
    };
    for _ in 0..r.u32()? {
        let s = SessionRecord::read(&mut r)?;
        if m.sessions.insert(s.id, s).is_some() {
            return Err(StoreError::ManifestCorrupt {
                detail: "duplicate session id".to_string(),
            });
        }
    }
    r.finish()?;
    Ok(m)
}

/// Encode one journal record, framed and CRC-guarded.
pub fn encode_journal_record(rec: &JournalRecord) -> Result<Vec<u8>, CodecError> {
    let mut body = Vec::new();
    match rec {
        JournalRecord::Commit(s) => {
            body.push(1);
            s.put(&mut body);
        }
        JournalRecord::Close { id } => {
            body.push(2);
            put_u64(&mut body, *id);
        }
    }
    ZJRN.encode(&body)
}

fn decode_journal_body(body: &[u8]) -> Result<JournalRecord, CodecError> {
    let mut r = Reader::new(body);
    let rec = match r.u8()? {
        1 => JournalRecord::Commit(SessionRecord::read(&mut r)?),
        2 => JournalRecord::Close { id: r.u64()? },
        _ => return Err(CodecError::Malformed("journal record type")),
    };
    r.finish()?;
    Ok(rec)
}

/// Result of walking the commit journal.
#[derive(Debug, Default)]
pub struct JournalScan {
    /// Verified records in append order.
    pub records: Vec<JournalRecord>,
    /// Bytes covered by verified records.
    pub valid_len: u64,
    /// True when the file ends inside a record — the benign crash shape.
    pub torn: bool,
    /// First structural damage (offset, reason); the scan stops there.
    pub damage: Option<(u64, String)>,
}

/// Walk the journal, verifying every record. Stops at a torn tail
/// (benign) or at damage (reported); either way the returned prefix is
/// fully verified.
pub fn scan_journal(bytes: &[u8]) -> JournalScan {
    let mut scan = JournalScan::default();
    let mut at = 0usize;
    while at < bytes.len() {
        let rest = &bytes[at..];
        let verdict = ZJRN.scan(rest).and_then(|span| match span {
            Some(span) => decode_journal_body(span.payload(rest)).map(|rec| Some((rec, span))),
            None => Ok(None),
        });
        match verdict {
            Ok(Some((rec, span))) => {
                scan.records.push(rec);
                at += span.frame_len;
                scan.valid_len = at as u64;
            }
            Ok(None) => {
                scan.torn = true;
                break;
            }
            Err(e) => {
                scan.damage = Some((at as u64, format!("journal record: {e}")));
                break;
            }
        }
    }
    scan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::content_hash;

    fn record(id: u64, seq: u64) -> SessionRecord {
        let payload = vec![id as u8; 64];
        SessionRecord {
            id,
            commit_seq: seq,
            ops_done: seq * 3,
            heap_words: 4096,
            op_budget: 1 << 20,
            fuel_slice: 64,
            verified: id.is_multiple_of(2),
            snap_len: payload.len() as u64,
            snap_hash: content_hash(&payload),
            chunks: vec![content_hash(&payload), content_hash(b"tail")],
        }
    }

    fn manifest_with(ids: &[u64]) -> Manifest {
        let mut m = Manifest::default();
        for &id in ids {
            m.apply(&JournalRecord::Commit(record(id, 1)));
        }
        m
    }

    #[test]
    fn manifest_round_trips() {
        for m in [
            Manifest::default(),
            manifest_with(&[1]),
            manifest_with(&[1, 2, 9]),
        ] {
            assert_eq!(decode_manifest(&encode_manifest(&m).unwrap()), Ok(m));
        }
    }

    #[test]
    fn every_manifest_corruption_is_typed_never_wrong() {
        let good = encode_manifest(&manifest_with(&[1, 2, 3])).unwrap();
        let decoded = decode_manifest(&good).unwrap();
        for cut in 0..good.len() {
            match decode_manifest(&good[..cut]) {
                Err(StoreError::ManifestCorrupt { .. }) => {}
                other => panic!("truncation at {cut}: {other:?}"),
            }
        }
        for i in 0..good.len() {
            for bit in [0, 3, 7] {
                let mut m = good.clone();
                m[i] ^= 1 << bit;
                match decode_manifest(&m) {
                    Ok(d) => assert_eq!(d, decoded, "flip at {i}.{bit} changed the decode"),
                    Err(StoreError::ManifestCorrupt { .. }) => {}
                    Err(e) => panic!("flip at {i}.{bit}: unexpected error {e:?}"),
                }
            }
        }
    }

    #[test]
    fn journal_replay_is_idempotent_and_ordered() {
        let mut journal = Vec::new();
        let records = [
            JournalRecord::Commit(record(1, 1)),
            JournalRecord::Commit(record(2, 1)),
            JournalRecord::Commit(record(1, 2)),
            JournalRecord::Close { id: 2 },
        ];
        for r in &records {
            journal.extend_from_slice(&encode_journal_record(r).unwrap());
        }
        let scan = scan_journal(&journal);
        assert_eq!(scan.records.len(), 4);
        assert!(!scan.torn && scan.damage.is_none());
        assert_eq!(scan.valid_len, journal.len() as u64);

        let mut m = Manifest::default();
        for r in &scan.records {
            m.apply(r);
        }
        // Replaying the whole journal again must change nothing.
        let once = m.clone();
        for r in &scan.records {
            m.apply(r);
        }
        assert_eq!(m, once);
        assert_eq!(m.sessions.len(), 1);
        assert_eq!(m.sessions[&1].commit_seq, 2);
        assert_eq!(m.max_id, 2, "closed ids still hold the high-water mark");
        // A stale commit arriving after a newer one is ignored.
        m.apply(&JournalRecord::Commit(record(1, 1)));
        assert_eq!(m.sessions[&1].commit_seq, 2);
    }

    #[test]
    fn torn_journal_tail_yields_the_verified_prefix() {
        let mut journal = Vec::new();
        journal.extend_from_slice(
            &encode_journal_record(&JournalRecord::Commit(record(1, 1))).unwrap(),
        );
        let first = journal.len();
        journal.extend_from_slice(
            &encode_journal_record(&JournalRecord::Commit(record(1, 2))).unwrap(),
        );
        for cut in 0..journal.len() {
            let scan = scan_journal(&journal[..cut]);
            assert!(scan.damage.is_none(), "cut at {cut}");
            if cut < first {
                assert!(scan.records.is_empty(), "cut at {cut}");
                assert!(scan.torn || cut == 0);
            } else {
                assert_eq!(scan.records.len(), 1, "cut at {cut}");
                assert!(scan.torn || cut == first);
            }
        }
    }

    #[test]
    fn mid_journal_damage_stops_replay_and_is_reported() {
        let mut journal = Vec::new();
        journal.extend_from_slice(
            &encode_journal_record(&JournalRecord::Commit(record(1, 1))).unwrap(),
        );
        let first = journal.len();
        journal.extend_from_slice(&encode_journal_record(&JournalRecord::Close { id: 1 }).unwrap());
        journal[first + 10] ^= 0x40; // rot inside the second record body
        let scan = scan_journal(&journal);
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.damage.as_ref().map(|d| d.0), Some(first as u64));
        assert_eq!(scan.valid_len, first as u64);
    }

    #[test]
    fn a_verified_byte_other_than_0_or_1_is_journal_damage() {
        let mut body = vec![1];
        record(1, 1).put(&mut body);
        body[1 + 6 * 8] = 2; // type byte, six u64 fields, then `verified`
        let journal = ZJRN.encode(&body).unwrap();
        let scan = scan_journal(&journal);
        assert!(scan.records.is_empty());
        assert_eq!(scan.damage.as_ref().map(|d| d.0), Some(0));
        assert_eq!(scan.valid_len, 0);
    }
}
