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

/// Validate one record at `offset` in `bytes` and return its id, loc
/// and payload. `Ok(None)` means a torn tail: the record is cut off by
/// the end of the file. `Err` is structural damage with a reason.
type RecordHit<'a> = (ChunkId, ChunkLoc, &'a [u8]);

pub fn read_record(
    bytes: &[u8],
    segment: u32,
    offset: u64,
) -> Result<Option<RecordHit<'_>>, String> {
    let mut r = Reader::new(bytes.get(offset as usize..).unwrap_or_default());
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
    Ok(Some((
        id,
        ChunkLoc {
            segment,
            offset,
            len,
        },
        payload,
    )))
}

/// Result of walking a whole segment file.
#[derive(Debug, Default)]
pub struct SegmentScan {
    /// Every fully-verified record, in file order.
    pub chunks: Vec<(ChunkId, ChunkLoc, u32)>,
    /// Offset where a torn tail begins (crash boundary), if any.
    pub torn_at: Option<u64>,
    /// Offset and reason of the first structurally damaged record; the
    /// scan stops there — nothing beyond damage is trusted.
    pub damage: Option<(u64, String)>,
    /// Bytes covered by verified records (header included).
    pub valid_len: u64,
}

/// Walk `bytes` (one whole segment file) validating every record.
pub fn scan_segment(bytes: &[u8], segment: u32) -> SegmentScan {
    let mut scan = SegmentScan::default();
    if bytes.len() < SEGMENT_HEADER_LEN as usize {
        if !bytes.is_empty() {
            scan.torn_at = Some(0);
        }
        return scan;
    }
    if bytes[..4] != SEGMENT_MAGIC
        || u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]) != SEGMENT_VERSION
    {
        scan.damage = Some((0, "bad segment header".to_string()));
        return scan;
    }
    let mut offset = SEGMENT_HEADER_LEN;
    scan.valid_len = offset;
    while (offset as usize) < bytes.len() {
        match read_record(bytes, segment, offset) {
            Ok(Some((id, loc, payload))) => {
                offset += (RECORD_OVERHEAD + payload.len()) as u64;
                scan.valid_len = offset;
                scan.chunks.push((id, loc, loc.len));
            }
            Ok(None) => {
                scan.torn_at = Some(offset);
                return scan;
            }
            Err(reason) => {
                scan.damage = Some((offset, reason));
                return scan;
            }
        }
    }
    scan
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

    #[test]
    fn scan_recovers_every_record() {
        let seg = segment_with(&[b"alpha", b"beta", &[0u8; 5000]]);
        let scan = scan_segment(&seg, 3);
        assert_eq!(scan.chunks.len(), 3);
        assert!(scan.torn_at.is_none() && scan.damage.is_none());
        assert_eq!(scan.valid_len, seg.len() as u64);
        let (id, loc, len) = scan.chunks[2];
        assert_eq!(id, content_hash(&[0u8; 5000]));
        assert_eq!((loc.segment, len), (3, 5000));
        let (rid, _, payload) = read_record(&seg, 3, loc.offset).unwrap().unwrap();
        assert_eq!(rid, id);
        assert_eq!(payload, &[0u8; 5000][..]);
    }

    #[test]
    fn truncation_anywhere_is_a_torn_tail_never_a_wrong_record() {
        let seg = segment_with(&[b"first", b"second record body"]);
        let scan = scan_segment(&seg, 0);
        let first_end = scan.chunks[0].1.offset + (RECORD_OVERHEAD + 5) as u64;
        for cut in SEGMENT_HEADER_LEN as usize..seg.len() {
            let scan = scan_segment(&seg[..cut], 0);
            assert!(scan.damage.is_none(), "cut at {cut} misread as damage");
            if cut as u64 == SEGMENT_HEADER_LEN {
                // A bare header is a clean empty segment, not a tear.
                assert!(scan.chunks.is_empty() && scan.torn_at.is_none());
            } else if (cut as u64) < first_end {
                assert!(scan.chunks.is_empty(), "cut at {cut}");
                assert_eq!(scan.torn_at, Some(SEGMENT_HEADER_LEN));
            } else {
                assert_eq!(scan.chunks.len(), 1, "cut at {cut}");
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
        let victim = scan_segment(&seg, 0).chunks[1].1.offset;
        let mut rotted = seg.clone();
        rotted[victim as usize + 24] ^= 0x10; // flip a payload bit
        let scan = scan_segment(&rotted, 0);
        assert_eq!(scan.chunks.len(), 1, "record before damage survives");
        assert_eq!(scan.damage.as_ref().map(|d| d.0), Some(victim));
    }

    #[test]
    fn bad_header_and_implausible_length_are_damage() {
        let scan = scan_segment(b"NOTASEGMENT", 0);
        assert!(scan.damage.is_some());
        let mut seg = segment_with(&[b"x"]);
        let base = SEGMENT_HEADER_LEN as usize;
        seg[base + 4..base + 8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(scan_segment(&seg, 0).damage.is_some());
    }

    #[test]
    fn segment_names_round_trip() {
        assert_eq!(segment_name(7), "seg-000007.zseg");
        assert_eq!(parse_segment_name("seg-000007.zseg"), Some(7));
        assert_eq!(parse_segment_name("seg-7.zseg"), None);
        assert_eq!(parse_segment_name("store.zman"), None);
    }
}
