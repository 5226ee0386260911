//! The byte codec every framed and checksummed format in the workspace
//! is built from. Each piece is defined once here:
//!
//! * [`crc32`] — CRC-32 (IEEE 802.3 polynomial, reflected) over one or
//!   more slices, eight bytes per step from slicing-by-8 tables built at
//!   compile time. It detects every single-bit error by construction.
//! * [`Reader`] and the `put_*` writers — bounds-checked little-endian
//!   primitives. Decoding is exact-consume: a decoder ends with
//!   [`Reader::finish`], so trailing bytes are an error.
//! * [`Frame`] — `tag | payload length u32 | payload | crc32(payload)`,
//!   where the tag is the format's magic followed by its version bytes,
//!   and a declared length above the frame's cap is rejected before
//!   anything is allocated. `ZFLT`, `ZREP`, `ZMAN` and `ZJRN` are four
//!   constants of it (DESIGN.md, "Framing and checksums").
//!
//! Errors are a [`CodecError`]. Each format maps it into its own error
//! type with `From`, and a [`Frame`] carries that type as its parameter,
//! so `ZFLT.decode(..)` already returns the wire protocol's error.

use std::fmt;
use std::io::{Read, Write};
use std::marker::PhantomData;

use crate::{Int, Word};

/// The reflected CRC-32 polynomial (IEEE 802.3).
const CRC_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 tables, built at compile time. `CRC_TABLES[0]` is the
/// classic byte-at-a-time table; `CRC_TABLES[k][b]` is the CRC of byte
/// `b` followed by `k` zero bytes, so eight table lookups fold eight
/// input bytes into the register at once.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 of the concatenation of `parts`, without building it:
/// `crc32(&[bytes])` for one slice.
#[inline]
pub fn crc32(parts: &[&[u8]]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    for part in parts {
        let (blocks, rest) = part.as_chunks::<8>();
        for b in blocks {
            let lo = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][b[4] as usize]
                ^ t[2][b[5] as usize]
                ^ t[1][b[6] as usize]
                ^ t[0][b[7] as usize];
        }
        for &b in rest {
            crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
        }
    }
    !crc
}

/// Why bytes failed to decode (or a frame failed to encode).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the field being read.
    Truncated,
    /// A decoder finished with unconsumed input.
    TrailingBytes,
    /// A field held a value its format forbids.
    Malformed(&'static str),
    /// A frame does not start with its magic.
    BadMagic,
    /// A frame's version bytes (little-endian) are not its version.
    BadVersion(u32),
    /// A payload length exceeds the frame's cap.
    Oversize(u64),
    /// An exact frame's declared length disagrees with its buffer.
    LengthMismatch {
        /// Payload length declared in the header.
        declared: u64,
        /// Payload length implied by the buffer.
        actual: u64,
    },
    /// A frame's payload failed its CRC-32.
    CrcMismatch,
    /// The stream under a frame read or write failed.
    Io(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => f.write_str("truncated input"),
            CodecError::TrailingBytes => f.write_str("trailing bytes"),
            CodecError::Malformed(what) => write!(f, "malformed {what}"),
            CodecError::BadMagic => f.write_str("bad frame magic"),
            CodecError::BadVersion(v) => write!(f, "unsupported frame version {v}"),
            CodecError::Oversize(n) => write!(f, "payload length {n} exceeds the frame cap"),
            CodecError::LengthMismatch { declared, actual } => {
                write!(
                    f,
                    "declared payload {declared} bytes, buffer holds {actual}"
                )
            }
            CodecError::CrcMismatch => f.write_str("payload CRC mismatch"),
            CodecError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Exact-consume little-endian cursor over a byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).ok_or(CodecError::Truncated)?;
        let s = self.buf.get(self.pos..end).ok_or(CodecError::Truncated)?;
        self.pos = end;
        Ok(s)
    }

    /// The next `N` bytes, by value.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.array::<1>()?[0])
    }

    /// A flag byte that must be 0 or 1; anything else is
    /// [`CodecError::Malformed`]`(what)`.
    pub fn flag(&mut self, what: &'static str) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Malformed(what)),
        }
    }

    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    pub fn i32(&mut self) -> Result<i32, CodecError> {
        Ok(i32::from_le_bytes(self.array()?))
    }

    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A u32 count of elements at least `elem_bytes` long each, rejected
    /// when the rest of the input cannot hold them — a hostile or rotted
    /// count never drives an allocation.
    fn count(&mut self, elem_bytes: usize) -> Result<usize, CodecError> {
        let n = self.u32()? as usize;
        let need = n.checked_mul(elem_bytes).ok_or(CodecError::Truncated)?;
        if need > self.remaining() {
            return Err(CodecError::Truncated);
        }
        Ok(n)
    }

    /// A u32-length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<Vec<u8>, CodecError> {
        let n = self.count(1)?;
        Ok(self.take(n)?.to_vec())
    }

    /// A u32-length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, CodecError> {
        String::from_utf8(self.bytes()?).map_err(|_| CodecError::Malformed("UTF-8 string"))
    }

    /// A u32-counted list of items, each at least `min_bytes` long and
    /// read by `item`. A count the rest of the input cannot hold is
    /// refused before anything is reserved.
    pub fn list<T, E: From<CodecError>>(
        &mut self,
        min_bytes: usize,
        mut item: impl FnMut(&mut Self) -> Result<T, E>,
    ) -> Result<Vec<T>, E> {
        let n = self.count(min_bytes)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(item(self)?);
        }
        Ok(out)
    }

    /// A u32-counted list of signed words.
    pub fn ints(&mut self) -> Result<Vec<Int>, CodecError> {
        self.list(4, Self::i32)
    }

    /// A u32-counted list of words, read as one block.
    pub fn words(&mut self) -> Result<Vec<Word>, CodecError> {
        let n = self.count(4)?;
        let (words, _) = self.take(4 * n)?.as_chunks::<4>();
        Ok(words.iter().map(|&w| u32::from_le_bytes(w)).collect())
    }

    /// End of input: every byte must have been consumed.
    pub fn finish(self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes)
        }
    }
}

pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub fn put_i32(out: &mut Vec<u8>, v: i32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// The inverse of [`Reader::bytes`].
pub fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

/// The inverse of [`Reader::string`].
pub fn put_string(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// The inverse of [`Reader::ints`].
pub fn put_ints(out: &mut Vec<u8>, xs: &[Int]) {
    put_u32(out, xs.len() as u32);
    for &x in xs {
        put_i32(out, x);
    }
}

/// The inverse of [`Reader::words`], written as one block.
pub fn put_words(out: &mut Vec<u8>, xs: &[Word]) {
    put_u32(out, xs.len() as u32);
    let at = out.len();
    out.resize(at + 4 * xs.len(), 0);
    let (block, _) = out[at..].as_chunks_mut::<4>();
    for (dst, x) in block.iter_mut().zip(xs) {
        *dst = x.to_le_bytes();
    }
}

/// Longest frame header [`Frame::read`] accepts: magic, up to 8
/// version bytes, length.
const MAX_HEADER: usize = 16;

/// One framed format: `magic | version | payload length u32 | payload |
/// crc32(payload)`, with a cap on the payload length. `E` is the error
/// type the format reports.
#[derive(Debug)]
pub struct Frame<E> {
    magic: [u8; 4],
    version: &'static [u8],
    cap: usize,
    error: PhantomData<fn() -> E>,
}

/// Where a complete frame sits at the front of a scanned buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameSpan {
    payload_start: usize,
    payload_len: usize,
    /// Total bytes the frame occupies (consume this many to advance).
    pub frame_len: usize,
}

impl FrameSpan {
    /// The payload within the scanned buffer.
    pub fn payload<'a>(&self, buf: &'a [u8]) -> &'a [u8] {
        &buf[self.payload_start..self.payload_start + self.payload_len]
    }
}

impl<E> Frame<E> {
    /// A format tagged `magic` then `version` (written verbatim; at most
    /// 8 bytes), carrying payloads of at most `cap` bytes (below 4 GiB).
    pub const fn new(magic: [u8; 4], version: &'static [u8], cap: usize) -> Self {
        Frame {
            magic,
            version,
            cap,
            error: PhantomData,
        }
    }

    /// The same format with its cap lowered to `cap`.
    pub const fn with_cap(self, cap: usize) -> Self {
        Frame {
            cap: if cap < self.cap { cap } else { self.cap },
            ..self
        }
    }

    /// The payload cap.
    pub const fn cap(&self) -> usize {
        self.cap
    }

    /// Bytes before the payload: magic, version, length.
    const fn header_len(&self) -> usize {
        4 + self.version.len() + 4
    }

    /// Bytes of framing around a payload.
    pub const fn overhead(&self) -> usize {
        self.header_len() + 4
    }

    /// Validate the visible part of a header at the front of `buf`:
    /// tag bytes are checked as soon as they arrive. `Ok(None)` means
    /// the header is still incomplete; otherwise the declared length.
    fn header(&self, buf: &[u8]) -> Result<Option<usize>, CodecError> {
        let magic = buf.len().min(4);
        if buf[..magic] != self.magic[..magic] {
            return Err(CodecError::BadMagic);
        }
        let tag = buf.len().min(4 + self.version.len());
        if let Some(seen) = buf.get(4..tag) {
            if seen != &self.version[..seen.len()] {
                let v = seen.iter().rev().fold(0u32, |v, &b| (v << 8) | b as u32);
                return Err(CodecError::BadVersion(v));
            }
        }
        let Some(len) = buf.get(tag..tag + 4) else {
            return Ok(None);
        };
        let len = u32::from_le_bytes([len[0], len[1], len[2], len[3]]) as usize;
        if len > self.cap {
            return Err(CodecError::Oversize(len as u64));
        }
        Ok(Some(len))
    }
}

fn check_crc(payload: &[u8], crc: &[u8]) -> Result<(), CodecError> {
    if crc.len() == 4 && crc32(&[payload]).to_le_bytes() == crc {
        Ok(())
    } else {
        Err(CodecError::CrcMismatch)
    }
}

impl<E: From<CodecError>> Frame<E> {
    /// One frame around `payload`. A payload over the cap has no frame
    /// and is refused with [`CodecError::Oversize`].
    pub fn encode(&self, payload: &[u8]) -> Result<Vec<u8>, E> {
        if payload.len() > self.cap {
            return Err(CodecError::Oversize(payload.len() as u64).into());
        }
        let mut out = Vec::with_capacity(self.overhead() + payload.len());
        out.extend_from_slice(&self.magic);
        out.extend_from_slice(self.version);
        put_u32(&mut out, payload.len() as u32);
        out.extend_from_slice(payload);
        put_u32(&mut out, crc32(&[payload]));
        Ok(out)
    }

    /// Unwrap a frame that must span `buf` exactly, returning the
    /// verified payload.
    pub fn decode<'a>(&self, buf: &'a [u8]) -> Result<&'a [u8], E> {
        if buf.len() < self.overhead() {
            return Err(CodecError::Truncated.into());
        }
        let declared = self.header(buf)?.ok_or(CodecError::Truncated)?;
        let actual = buf.len() - self.overhead();
        if declared != actual {
            return Err(CodecError::LengthMismatch {
                declared: declared as u64,
                actual: actual as u64,
            }
            .into());
        }
        let (payload, crc) = buf[self.header_len()..].split_at(actual);
        check_crc(payload, crc)?;
        Ok(payload)
    }

    /// Scan the front of `buf` for one complete frame, without copying.
    ///
    /// * `Ok(None)` — `buf` is a valid prefix of a frame; read more.
    /// * `Ok(Some(span))` — a whole verified frame starts at offset 0.
    /// * `Err(_)` — the bytes at the front are damaged, as soon as the
    ///   damage is visible. Frames carry no resync point.
    ///
    /// For a `buf` holding exactly one frame, `scan` accepts iff
    /// [`Frame::decode`] does, and yields the same payload.
    pub fn scan(&self, buf: &[u8]) -> Result<Option<FrameSpan>, E> {
        let Some(len) = self.header(buf)? else {
            return Ok(None);
        };
        let start = self.header_len();
        let Some(frame) = buf.get(..start + len + 4) else {
            return Ok(None);
        };
        let (payload, crc) = frame[start..].split_at(len);
        check_crc(payload, crc)?;
        Ok(Some(FrameSpan {
            payload_start: start,
            payload_len: len,
            frame_len: frame.len(),
        }))
    }

    /// Read one frame from a stream and return its verified payload.
    /// The declared length is checked against the cap before the
    /// payload buffer is allocated.
    pub fn read<R: Read>(&self, r: &mut R) -> Result<Vec<u8>, E> {
        let io = |e: std::io::Error| CodecError::Io(e.to_string());
        let mut head = [0u8; MAX_HEADER];
        let head = head
            .get_mut(..self.header_len())
            .ok_or(CodecError::Malformed("frame tag length"))?;
        r.read_exact(head).map_err(io)?;
        let len = self.header(head)?.ok_or(CodecError::Truncated)?;
        let mut payload = vec![0u8; len + 4];
        r.read_exact(&mut payload).map_err(io)?;
        let (body, crc) = payload.split_at(len);
        check_crc(body, crc)?;
        payload.truncate(len);
        Ok(payload)
    }

    /// Write one frame around `payload` to a stream; over-cap payloads
    /// are refused as by [`Frame::encode`].
    pub fn write<W: Write>(&self, w: &mut W, payload: &[u8]) -> Result<(), E> {
        w.write_all(&self.encode(payload)?)
            .map_err(|e| CodecError::Io(e.to_string()).into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEST: Frame<CodecError> = Frame::new(*b"TEST", &[2, 0], 8);

    #[test]
    fn checksum_matches_the_crc32_reference_vector() {
        assert_eq!(crc32(&[b"123456789"]), 0xCBF4_3926);
        assert_eq!(crc32(&[b""]), 0);
        assert_eq!(crc32(&[]), 0);
        assert_eq!(crc32(&[b"1234", b"", b"56789"]), 0xCBF4_3926);
    }

    /// The textbook bitwise CRC-32: the definition the table-driven
    /// kernel must agree with.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    /// A SplitMix64 byte stream: deterministic, and every byte value
    /// occurs.
    fn splitmix_bytes(seed: u64, n: usize) -> Vec<u8> {
        let mut state = seed;
        let mut out = Vec::with_capacity(n + 8);
        while out.len() < n {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            out.extend_from_slice(&(z ^ (z >> 31)).to_le_bytes());
        }
        out.truncate(n);
        out
    }

    #[test]
    fn sliced_checksum_agrees_with_the_bitwise_definition_at_every_length() {
        let bytes = splitmix_bytes(0x5EED, 1100);
        for len in 0..=bytes.len() {
            let want = crc32_bitwise(&bytes[..len]);
            assert_eq!(crc32(&[&bytes[..len]]), want, "length {len}");
        }
    }

    #[test]
    fn sliced_checksum_streams_across_parts_cut_at_every_residue() {
        let bytes = splitmix_bytes(0xC0FFEE, 1100);
        let want = crc32_bitwise(&bytes);
        for parts in 2..=9usize {
            for residue in 0..8usize {
                // `parts - 1` cut points, each ≡ `residue + i` (mod 8),
                // spread over the buffer so parts span 0 to many blocks.
                let step = bytes.len() / parts;
                let mut cuts: Vec<usize> = (1..parts)
                    .map(|i| (i * step) / 8 * 8 + (residue + i) % 8)
                    .collect();
                cuts.sort_unstable();
                let mut slices = Vec::with_capacity(parts);
                let mut from = 0;
                for &cut in &cuts {
                    slices.push(&bytes[from..cut]);
                    from = cut;
                }
                slices.push(&bytes[from..]);
                assert_eq!(crc32(&slices), want, "{parts} parts, residue {residue}");
            }
        }
    }

    #[test]
    fn frames_round_trip_through_every_face() {
        let frame = TEST.encode(b"abc").unwrap();
        assert_eq!(frame.len(), 3 + TEST.overhead());
        assert_eq!(&frame[..6], b"TEST\x02\x00");
        assert_eq!(TEST.decode(&frame), Ok(&b"abc"[..]));
        let span = TEST.scan(&frame).unwrap().unwrap();
        assert_eq!(span.payload(&frame), b"abc");
        assert_eq!(span.frame_len, frame.len());
        for cut in 0..frame.len() {
            assert_eq!(TEST.scan(&frame[..cut]), Ok(None), "prefix of {cut}");
        }
        assert_eq!(TEST.read(&mut &frame[..]), Ok(b"abc".to_vec()));
        let mut written = Vec::new();
        TEST.write(&mut written, b"abc").unwrap();
        assert_eq!(written, frame);
    }

    #[test]
    fn damage_is_typed_on_every_face() {
        assert_eq!(TEST.scan(b"TX"), Err(CodecError::BadMagic));
        assert_eq!(
            TEST.scan(b"TEST\x02\x01"),
            Err(CodecError::BadVersion(0x0102))
        );
        let mut oversize = b"TEST\x02\x00".to_vec();
        put_u32(&mut oversize, 9);
        assert_eq!(TEST.scan(&oversize), Err(CodecError::Oversize(9)));
        assert_eq!(TEST.read(&mut &oversize[..]), Err(CodecError::Oversize(9)));
        assert_eq!(TEST.encode(&[0; 9]), Err(CodecError::Oversize(9)));
        assert_eq!(
            TEST.with_cap(2).scan(&oversize[..]),
            Err(CodecError::Oversize(9))
        );
        let mut frame = TEST.encode(b"abc").unwrap();
        assert_eq!(
            TEST.decode(&frame[..frame.len() - 1]),
            Err(CodecError::LengthMismatch {
                declared: 3,
                actual: 2
            })
        );
        frame[11] ^= 1;
        assert_eq!(TEST.decode(&frame), Err(CodecError::CrcMismatch));
        assert_eq!(TEST.scan(&frame), Err(CodecError::CrcMismatch));
        assert_eq!(TEST.read(&mut &frame[..]), Err(CodecError::CrcMismatch));
    }

    #[test]
    fn reader_is_exact_and_bounded() {
        let mut out = Vec::new();
        put_u64(&mut out, 7);
        put_ints(&mut out, &[-1, 2]);
        put_string(&mut out, "hi");
        out.push(1);
        let mut r = Reader::new(&out);
        assert_eq!(r.u64(), Ok(7));
        assert_eq!(r.ints(), Ok(vec![-1, 2]));
        assert_eq!(r.string(), Ok("hi".to_string()));
        assert_eq!(r.flag("flag"), Ok(true));
        r.finish().unwrap();

        // A count the remaining input cannot hold is refused up front.
        let mut r = Reader::new(&[0xFF, 0xFF, 0xFF, 0xFF, 0]);
        assert_eq!(r.count(1), Err(CodecError::Truncated));
        let mut r = Reader::new(&[2]);
        assert_eq!(r.flag("flag"), Err(CodecError::Malformed("flag")));
        assert_eq!(Reader::new(&[0]).finish(), Err(CodecError::TrailingBytes));
    }
}
