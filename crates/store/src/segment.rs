//! Append-only segment files: the disk tier of the chunk store.
//!
//! A segment (`seg-NNNNNN.zseg`) is an 8-byte header followed by chunk
//! records, each self-describing and independently verifiable:
//!
//! ```text
//! header:  "ZSEG" | version u32-LE
//! record:  "ZCHK" | payload len u32-LE | content hash [16] |
//!          payload | crc32(hash || payload) u32-LE
//! ```
//!
//! Records are only ever appended; nothing in a segment is updated in
//! place, so the only two failure shapes a crash can leave are a
//! *torn tail* (the file ends inside the last record — the clean crash
//! boundary, silently ignored by recovery) and *damage* (bytes that
//! fail magic/CRC checks with more data after them — reported, and the
//! scan stops so nothing unverified is ever indexed).
//!
//! A segment is scanned as a stream, one record at a time through one
//! reused buffer, so a scan never holds more than one record in memory.

use std::io::{self, Read};

use zarf_core::codec::{crc32, put_u32, Reader};

use crate::hash::{content_hash, ChunkId};

pub const SEGMENT_MAGIC: [u8; 4] = *b"ZSEG";
pub const SEGMENT_VERSION: u32 = 1;
pub const CHUNK_MAGIC: [u8; 4] = *b"ZCHK";

/// Bytes before the first record.
pub const SEGMENT_HEADER_LEN: u64 = 8;
/// Fixed bytes around a record's payload: magic + len + hash + crc.
pub const RECORD_OVERHEAD: usize = 4 + 4 + 16 + 4;
/// Hard ceiling on a single record payload — far above [`crate::chunk::MAX_CHUNK`],
/// present so a rotted length field cannot drive an absurd allocation.
pub const MAX_RECORD_PAYLOAD: u32 = 1 << 22;

/// Where a chunk's record lives on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkLoc {
    /// Segment file index (the `NNNNNN` in `seg-NNNNNN.zseg`).
    pub segment: u32,
    /// Byte offset of the record (its magic) within the segment.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u32,
}

impl ChunkLoc {
    /// Bytes of the whole record on disk.
    pub fn record_len(&self) -> u64 {
        self.len as u64 + RECORD_OVERHEAD as u64
    }
}

/// File name for segment index `n`.
pub fn segment_name(n: u32) -> String {
    format!("seg-{n:06}.zseg")
}

/// Parse a segment file name back to its index.
pub fn parse_segment_name(name: &str) -> Option<u32> {
    let digits = name.strip_prefix("seg-")?.strip_suffix(".zseg")?;
    if digits.len() != 6 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// The 8-byte segment header.
pub fn encode_header() -> [u8; 8] {
    let mut h = [0u8; 8];
    h[..4].copy_from_slice(&SEGMENT_MAGIC);
    h[4..].copy_from_slice(&SEGMENT_VERSION.to_le_bytes());
    h
}

/// Encode one chunk record for `payload` under its content hash `id`.
pub fn encode_record(id: ChunkId, payload: &[u8]) -> Vec<u8> {
    let mut rec = Vec::with_capacity(RECORD_OVERHEAD + payload.len());
    rec.extend_from_slice(&CHUNK_MAGIC);
    put_u32(&mut rec, payload.len() as u32);
    rec.extend_from_slice(&id.0);
    rec.extend_from_slice(payload);
    put_u32(&mut rec, crc32(&[&id.0, payload]));
    rec
}

/// Validate the record that `rec` starts with (found at `offset` in its
/// segment) and return its id and payload. `Ok(None)` means a torn
/// tail: `rec` ends inside the record. `Err` is structural damage with
/// a reason. The scan and every on-demand chunk read decode here.
pub fn decode_record(rec: &[u8], offset: u64) -> Result<Option<(ChunkId, &[u8])>, String> {
    let mut r = Reader::new(rec);
    // Each part is checked only once all of it is present; a record the
    // file ends inside is a torn tail.
    let (Ok(magic), Ok(len), Ok(id)) = (r.array::<4>(), r.u32(), r.array().map(ChunkId)) else {
        return Ok(None);
    };
    if magic != CHUNK_MAGIC {
        return Err(format!("bad record magic at offset {offset}"));
    }
    if len > MAX_RECORD_PAYLOAD {
        return Err(format!(
            "implausible record length {len} at offset {offset}"
        ));
    }
    let (Ok(payload), Ok(crc)) = (r.take(len as usize), r.u32()) else {
        return Ok(None);
    };
    if crc32(&[&id.0, payload]) != crc {
        return Err(format!("record CRC mismatch at offset {offset}"));
    }
    if content_hash(payload) != id {
        return Err(format!("record content hash mismatch at offset {offset}"));
    }
    Ok(Some((id, payload)))
}

/// Result of walking a whole segment file.
#[derive(Debug, Default)]
pub struct SegmentScan {
    /// Fully-verified records.
    pub records: u64,
    /// Offset where a torn tail begins (crash boundary), if any.
    pub torn_at: Option<u64>,
    /// Offset and reason of the first structurally damaged record; the
    /// scan stops there — nothing beyond damage is trusted.
    pub damage: Option<(u64, String)>,
    /// Bytes covered by verified records (header included).
    pub valid_len: u64,
}

/// Walk one segment file from its first byte, validating every record
/// and handing each verified one to `each` in file order. Only one
/// record is held at a time; `Err` is a failed read, never damage.
pub fn scan_segment(
    mut src: impl Read,
    segment: u32,
    mut each: impl FnMut(ChunkId, ChunkLoc),
) -> io::Result<SegmentScan> {
    let mut scan = SegmentScan::default();
    let mut rec = Vec::new();
    // Append up to `n` more bytes, stopping short only where `src` ends.
    let mut read = |rec: &mut Vec<u8>, n: u64| src.by_ref().take(n).read_to_end(rec);
    read(&mut rec, SEGMENT_HEADER_LEN)?;
    if rec.len() < SEGMENT_HEADER_LEN as usize {
        if !rec.is_empty() {
            scan.torn_at = Some(0);
        }
        return Ok(scan);
    }
    if rec != encode_header() {
        scan.damage = Some((0, "bad segment header".to_string()));
        return Ok(scan);
    }
    let mut offset = SEGMENT_HEADER_LEN;
    scan.valid_len = offset;
    loop {
        rec.clear();
        // The head: magic, length and hash, all but the trailing CRC.
        if read(&mut rec, RECORD_OVERHEAD as u64 - 4)? == 0 {
            return Ok(scan);
        }
        // Then the payload and CRC it claims. A length past the ceiling
        // is damage whatever follows it, so nothing more is read then.
        if let [_, _, _, _, a, b, c, d, ..] = rec[..] {
            let len = u32::from_le_bytes([a, b, c, d]);
            if len <= MAX_RECORD_PAYLOAD {
                read(&mut rec, u64::from(len) + 4)?;
            }
        }
        match decode_record(&rec, offset) {
            Ok(Some((id, payload))) => {
                let len = payload.len() as u32;
                each(
                    id,
                    ChunkLoc {
                        segment,
                        offset,
                        len,
                    },
                );
                scan.records += 1;
                offset += rec.len() as u64;
                scan.valid_len = offset;
            }
            Ok(None) => {
                scan.torn_at = Some(offset);
                return Ok(scan);
            }
            Err(reason) => {
                scan.damage = Some((offset, reason));
                return Ok(scan);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn segment_with(payloads: &[&[u8]]) -> Vec<u8> {
        let mut seg = encode_header().to_vec();
        for p in payloads {
            seg.extend_from_slice(&encode_record(content_hash(p), p));
        }
        seg
    }

    /// Stream `bytes` through the scanner, collecting every record it
    /// verifies.
    fn scan_bytes(bytes: &[u8], segment: u32) -> (SegmentScan, Vec<(ChunkId, ChunkLoc)>) {
        let mut chunks = Vec::new();
        let scan = scan_segment(bytes, segment, |id, loc| chunks.push((id, loc)))
            .expect("a slice never fails to read");
        (scan, chunks)
    }

    #[test]
    fn scan_recovers_every_record() {
        let seg = segment_with(&[b"alpha", b"beta", &[0u8; 5000]]);
        let (scan, chunks) = scan_bytes(&seg, 3);
        assert_eq!((chunks.len(), scan.records), (3, 3));
        assert!(scan.torn_at.is_none() && scan.damage.is_none());
        assert_eq!(scan.valid_len, seg.len() as u64);
        let (id, loc) = chunks[2];
        assert_eq!(id, content_hash(&[0u8; 5000]));
        assert_eq!((loc.segment, loc.len), (3, 5000));
        let (rid, payload) = decode_record(&seg[loc.offset as usize..], loc.offset)
            .unwrap()
            .unwrap();
        assert_eq!(rid, id);
        assert_eq!(payload, &[0u8; 5000][..]);
    }

    #[test]
    fn truncation_anywhere_is_a_torn_tail_never_a_wrong_record() {
        let seg = segment_with(&[b"first", b"second record body"]);
        let (_, chunks) = scan_bytes(&seg, 0);
        let first_end = chunks[0].1.offset + (RECORD_OVERHEAD + 5) as u64;
        for cut in SEGMENT_HEADER_LEN as usize..seg.len() {
            let (scan, chunks) = scan_bytes(&seg[..cut], 0);
            assert!(scan.damage.is_none(), "cut at {cut} misread as damage");
            if cut as u64 == SEGMENT_HEADER_LEN {
                // A bare header is a clean empty segment, not a tear.
                assert!(chunks.is_empty() && scan.torn_at.is_none());
            } else if (cut as u64) < first_end {
                assert!(chunks.is_empty(), "cut at {cut}");
                assert_eq!(scan.torn_at, Some(SEGMENT_HEADER_LEN));
            } else {
                assert_eq!(chunks.len(), 1, "cut at {cut}");
                if cut as u64 == first_end {
                    assert!(scan.torn_at.is_none());
                } else {
                    assert_eq!(scan.torn_at, Some(first_end));
                }
            }
        }
    }

    #[test]
    fn payload_bit_rot_is_reported_as_damage_at_the_offset() {
        let seg = segment_with(&[b"intact", b"victim victim victim"]);
        let victim = scan_bytes(&seg, 0).1[1].1.offset;
        let mut rotted = seg.clone();
        rotted[victim as usize + 24] ^= 0x10; // flip a payload bit
        let (scan, chunks) = scan_bytes(&rotted, 0);
        assert_eq!(chunks.len(), 1, "record before damage survives");
        assert_eq!(scan.damage.as_ref().map(|d| d.0), Some(victim));
    }

    #[test]
    fn bad_header_and_implausible_length_are_damage() {
        let (scan, _) = scan_bytes(b"NOTASEGMENT", 0);
        assert!(scan.damage.is_some());
        let mut seg = segment_with(&[b"x"]);
        let base = SEGMENT_HEADER_LEN as usize;
        seg[base + 4..base + 8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(scan_bytes(&seg, 0).0.damage.is_some());
    }

    #[test]
    fn a_failed_read_is_an_error_not_damage() {
        struct FailsAfter(usize);
        impl Read for FailsAfter {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                let header = encode_header();
                match header.get(self.0..) {
                    Some(rest) if !rest.is_empty() => {
                        let n = rest.len().min(buf.len());
                        buf[..n].copy_from_slice(&rest[..n]);
                        self.0 += n;
                        Ok(n)
                    }
                    _ => Err(io::Error::other("disk gone")),
                }
            }
        }
        let err = scan_segment(FailsAfter(0), 0, |_, _| {}).expect_err("read error");
        assert_eq!(err.to_string(), "disk gone");
    }

    /// Flip every byte of a small two-segment store, one at a time. Each
    /// flip must surface in `fsck` as damage, a torn tail or a bad
    /// session. `Store::open` must index exactly the chunks a scan
    /// verifies and read each back, `fsck` must count garbage over the
    /// same index, and a session must read back byte-exact exactly when
    /// `fsck` calls it good.
    #[test]
    fn every_byte_flip_surfaces_and_open_agrees_with_fsck() {
        use std::collections::{HashMap, HashSet};
        use std::fs;

        use crate::store::tests::{meta, snapshot, TempDir};
        use crate::{fsck, Store, StoreConfig};

        let dir = TempDir::new("flip_sweep");
        let cfg = StoreConfig {
            segment_bytes: 1 << 10,
            fsync: false,
            ..StoreConfig::default()
        };
        let snaps: Vec<(u64, Vec<u8>)> = [200, 300, 700, 250]
            .iter()
            .enumerate()
            .map(|(i, len)| (i as u64 + 1, snapshot(60 + i as u64, *len)))
            .collect();
        {
            let store = Store::open(dir.path(), cfg.clone()).expect("open");
            for (id, snap) in &snaps {
                store.put_session(&meta(*id, 1), snap).expect("put");
            }
            store.remove_session(2).expect("close"); // leaves garbage
        }
        let segments: Vec<_> = (1..)
            .map(|n| dir.path().join(segment_name(n)))
            .take_while(|p| p.exists())
            .collect();
        assert_eq!(segments.len(), 2, "the sweep wants two segments");
        let mut files = segments.clone();
        files.push(dir.path().join("store.zman"));

        for file in &files {
            let pristine = fs::read(file).expect("read");
            for at in 0..pristine.len() {
                let mut flipped = pristine.clone();
                flipped[at] ^= 0xFF;
                fs::write(file, &flipped).expect("flip");
                let seen = format!("{} byte {at}", file.display());

                // What a streamed scan verifies, first record winning.
                let mut index = HashMap::new();
                let mut records = 0;
                for seg in &segments {
                    let (scan, chunks) = scan_bytes(&fs::read(seg).expect("read"), 0);
                    records += scan.records;
                    for (id, loc) in chunks {
                        index.entry(id).or_insert(loc);
                    }
                }

                let report = fsck(dir.path()).expect("fsck reads");
                assert!(
                    !report.damaged_segments.is_empty()
                        || report.torn_segments > 0
                        || !report.bad_sessions.is_empty()
                        || report.manifest_error.is_some(),
                    "{seen}: flip went unseen: {}",
                    report.to_json()
                );
                assert_eq!(report.records, records, "{seen}");

                let store = match Store::open(dir.path(), cfg.clone()) {
                    Ok(store) => store,
                    Err(e) => {
                        assert_eq!(e.kind(), "manifest_corrupt", "{seen}: {e}");
                        assert!(report.manifest_error.is_some(), "{seen}");
                        assert_eq!(report.unreferenced_chunks, index.len() as u64);
                        fs::write(file, &pristine).expect("restore");
                        continue;
                    }
                };
                assert_eq!(store.stats().chunks, index.len() as u64, "{seen}");
                for id in index.keys() {
                    let bytes = store.get_chunk_bytes(*id).expect("indexed chunk reads");
                    assert_eq!(content_hash(&bytes), *id, "{seen}");
                }
                let referenced: HashSet<_> = store
                    .sessions()
                    .iter()
                    .flat_map(|s| s.chunks.clone())
                    .collect();
                let garbage = index.keys().filter(|id| !referenced.contains(id)).count();
                assert_eq!(report.unreferenced_chunks, garbage as u64, "{seen}");
                for (id, snap) in &snaps {
                    if store.session(*id).is_none() {
                        continue;
                    }
                    let bad = report.bad_sessions.iter().any(|(b, _)| b == id);
                    match store.get_snapshot(*id) {
                        Ok(bytes) => {
                            assert!(!bad, "{seen}: fsck calls session {id} bad");
                            assert_eq!(&bytes, snap, "{seen}");
                        }
                        Err(e) => assert!(bad, "{seen}: fsck missed session {id}: {e}"),
                    }
                }
                drop(store);
                fs::write(file, &pristine).expect("restore");
            }
        }
        let report = fsck(dir.path()).expect("fsck");
        assert!(report.clean(), "{}", report.to_json());
    }

    #[test]
    fn segment_names_round_trip() {
        assert_eq!(segment_name(7), "seg-000007.zseg");
        assert_eq!(parse_segment_name("seg-000007.zseg"), Some(7));
        assert_eq!(parse_segment_name("seg-7.zseg"), None);
        assert_eq!(parse_segment_name("store.zman"), None);
    }
}
