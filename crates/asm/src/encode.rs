//! Binary encoding of machine programs (paper Figure 4(c–d)).
//!
//! Every binary is a sequence of 32-bit words:
//!
//! ```text
//! word 0        MAGIC = 0x5A415246  ("ZARF")
//! word 1        N — number of items (functions + constructors)
//! per item:
//!   fingerprint  bit 31 = constructor flag, bits 23..16 = arity,
//!                bits 15..0 = local-slot count
//!   M            body length in words (0 for constructors)
//!   M body words
//! ```
//!
//! Body words carry a tag in their top byte:
//!
//! | tag  | word                | fields                                        |
//! |------|---------------------|-----------------------------------------------|
//! | 0x10 | `let` head          | 23..16 argument count, 15..12 callee source, 11..0 callee index |
//! | 0x11 | `let` argument      | 23..20 source, 19..0 index (Imm: 20-bit signed) |
//! | 0x20 | `case` head         | 23..20 source, 19..0 index (the scrutinee)     |
//! | 0x21 | literal pattern     | 23..0 skip (branch body word count); next word = raw value |
//! | 0x22 | constructor pattern | 23..0 skip; next word = constructor identifier |
//! | 0x23 | `else` marker       | —                                              |
//! | 0x30 | `result`            | 23..20 source, 19..0 index                     |
//!
//! Source codes: 0 = local, 1 = arg, 2 = immediate, 3 = global.
//!
//! On a pattern mismatch the hardware advances past the pattern's value word
//! and then skips `skip` words, landing on the next pattern head (or the
//! `else` marker); on a match it falls through into the branch body. Every
//! structure is word-aligned and self-delimiting, so decoding is a single
//! forward pass; the decoder additionally *verifies* each skip field against
//! the actual branch length, rejecting inconsistent binaries.
//!
//! **Deviation note:** the paper's figure shows the field layout
//! photographically but does not give bit positions; the packing above is
//! our concretization and is documented here as the normative format for
//! this implementation.

use std::fmt;

use zarf_core::machine::{
    MBranch, MExpr, MItem, MItemKind, MPattern, MProgram, MachineError, Operand, Source,
};
use zarf_core::{Int, Word};

/// The magic word beginning every Zarf binary: "ZARF" in ASCII.
pub const MAGIC: Word = 0x5A41_5246;

/// Tag byte of a `let` head word.
pub const TAG_LET: Word = 0x10;
/// Tag byte of a `let` argument word.
pub const TAG_ARG: Word = 0x11;
/// Tag byte of a `case` head word.
pub const TAG_CASE: Word = 0x20;
/// Tag byte of a literal-pattern word.
pub const TAG_PAT_LIT: Word = 0x21;
/// Tag byte of a constructor-pattern word.
pub const TAG_PAT_CON: Word = 0x22;
/// Tag byte of the `else` marker word.
pub const TAG_ELSE: Word = 0x23;
/// Tag byte of a `result` word.
pub const TAG_RESULT: Word = 0x30;

/// The tag byte (bits 31..24) of a body word.
#[inline]
pub fn word_tag(w: Word) -> Word {
    w >> 24
}

/// Decode the operand packed in the low 24 bits of an arg/case/result word.
#[inline]
pub fn unpack_operand_word(w: Word) -> Option<Operand> {
    unpack_operand(w & 0x00FF_FFFF)
}

/// Decode a `let` head word into (argument count, callee operand).
#[inline]
pub fn unpack_let_head(w: Word) -> Option<(usize, Operand)> {
    if word_tag(w) != TAG_LET {
        return None;
    }
    let nargs = ((w >> 16) & 0xFF) as usize;
    let source = source_from_code((w >> 12) & 0xF)?;
    Some((
        nargs,
        Operand {
            source,
            index: (w & 0xFFF) as i32,
        },
    ))
}

/// Decode a pattern word into its skip field.
#[inline]
pub fn unpack_pattern_skip(w: Word) -> usize {
    (w & 0x00FF_FFFF) as usize
}

/// Largest positive immediate representable in an operand word.
pub const IMM_MAX: Int = (1 << 19) - 1;
/// Smallest negative immediate representable in an operand word.
pub const IMM_MIN: Int = -(1 << 19);

/// Encoding failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    /// Immediate outside the 20-bit signed operand field.
    ImmOutOfRange(Int),
    /// A local/arg/global index outside its field width.
    IndexOutOfRange(Operand),
    /// A `let` with more than 255 arguments.
    TooManyArgs(usize),
    /// Arity above 255 cannot be fingerprinted.
    ArityTooLarge(usize),
    /// More than 65,535 local slots.
    LocalsTooLarge(usize),
    /// A branch body longer than the 24-bit skip field.
    SkipTooLarge(usize),
    /// An immediate in callee position (never produced by lowering).
    ImmCallee,
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::ImmOutOfRange(n) => {
                write!(f, "immediate {n} outside 20-bit operand range")
            }
            EncodeError::IndexOutOfRange(op) => {
                write!(f, "operand `{op}` index outside its encoding field")
            }
            EncodeError::TooManyArgs(n) => write!(f, "let with {n} arguments (max 255)"),
            EncodeError::ArityTooLarge(n) => write!(f, "arity {n} exceeds 255"),
            EncodeError::LocalsTooLarge(n) => write!(f, "{n} locals exceed 65535"),
            EncodeError::SkipTooLarge(n) => {
                write!(f, "branch body of {n} words exceeds the 24-bit skip field")
            }
            EncodeError::ImmCallee => write!(f, "immediate used in callee position"),
        }
    }
}

impl std::error::Error for EncodeError {}

/// Decoding failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// First word is not [`MAGIC`].
    BadMagic(Word),
    /// The words end mid-structure.
    Truncated,
    /// An unknown tag byte at the given word offset.
    BadTag {
        /// The full offending word.
        word: Word,
        /// Word offset in the binary.
        offset: usize,
    },
    /// A pattern's skip field disagrees with the actual branch length.
    SkipMismatch {
        /// Value in the binary.
        stored: usize,
        /// Length implied by the decoded structure.
        actual: usize,
    },
    /// An item's declared body length disagrees with its decoded length.
    LengthMismatch {
        /// Value in the header.
        stored: usize,
        /// Decoded length.
        actual: usize,
    },
    /// Structurally decoded but semantically invalid machine code.
    Machine(MachineError),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadMagic(w) => write!(f, "bad magic word {w:#010x}"),
            DecodeError::Truncated => write!(f, "binary truncated mid-structure"),
            DecodeError::BadTag { word, offset } => {
                write!(f, "unknown tag in word {word:#010x} at offset {offset}")
            }
            DecodeError::SkipMismatch { stored, actual } => {
                write!(f, "skip field says {stored} words but branch is {actual}")
            }
            DecodeError::LengthMismatch { stored, actual } => {
                write!(f, "header says {stored} body words but decoded {actual}")
            }
            DecodeError::Machine(e) => write!(f, "decoded machine code invalid: {e}"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<MachineError> for DecodeError {
    fn from(e: MachineError) -> Self {
        DecodeError::Machine(e)
    }
}

fn source_code(s: Source) -> Word {
    match s {
        Source::Local => 0,
        Source::Arg => 1,
        Source::Imm => 2,
        Source::Global => 3,
    }
}

#[inline]
fn source_from_code(c: Word) -> Option<Source> {
    Some(match c {
        0 => Source::Local,
        1 => Source::Arg,
        2 => Source::Imm,
        3 => Source::Global,
        _ => return None,
    })
}

/// Pack an operand into the 24 low bits shared by arg/case/result words.
fn pack_operand(op: &Operand) -> Result<Word, EncodeError> {
    let field: Word = match op.source {
        Source::Imm => {
            if op.index < IMM_MIN || op.index > IMM_MAX {
                return Err(EncodeError::ImmOutOfRange(op.index));
            }
            (op.index as Word) & 0xF_FFFF
        }
        _ => {
            if op.index < 0 || op.index > 0xF_FFFF {
                return Err(EncodeError::IndexOutOfRange(*op));
            }
            op.index as Word
        }
    };
    Ok((source_code(op.source) << 20) | field)
}

#[inline]
fn unpack_operand(word: Word) -> Option<Operand> {
    let source = source_from_code((word >> 20) & 0xF)?;
    let raw = word & 0xF_FFFF;
    let index = match source {
        Source::Imm => {
            // Sign-extend from 20 bits.
            ((raw << 12) as i32) >> 12
        }
        _ => raw as i32,
    };
    Some(Operand { source, index })
}

/// Encode a machine program into its binary word stream.
pub fn encode(program: &MProgram) -> Result<Vec<Word>, EncodeError> {
    let mut out = vec![MAGIC, program.items().len() as Word];
    for item in program.items() {
        if item.arity > 0xFF {
            return Err(EncodeError::ArityTooLarge(item.arity));
        }
        if item.locals > 0xFFFF {
            return Err(EncodeError::LocalsTooLarge(item.locals));
        }
        let con_flag = if item.is_con() { 1u32 << 31 } else { 0 };
        out.push(con_flag | ((item.arity as Word) << 16) | item.locals as Word);
        match &item.kind {
            MItemKind::Con => out.push(0),
            MItemKind::Fun { body } => {
                let mut words = Vec::new();
                encode_expr(body, &mut words)?;
                out.push(words.len() as Word);
                out.extend(words);
            }
        }
    }
    Ok(out)
}

fn encode_expr(expr: &MExpr, out: &mut Vec<Word>) -> Result<(), EncodeError> {
    match expr {
        MExpr::Let { callee, args, body } => {
            if args.len() > 0xFF {
                return Err(EncodeError::TooManyArgs(args.len()));
            }
            if callee.source == Source::Imm {
                return Err(EncodeError::ImmCallee);
            }
            if callee.index < 0 || callee.index > 0xFFF {
                return Err(EncodeError::IndexOutOfRange(*callee));
            }
            out.push(
                (TAG_LET << 24)
                    | ((args.len() as Word) << 16)
                    | (source_code(callee.source) << 12)
                    | callee.index as Word,
            );
            for a in args {
                out.push((TAG_ARG << 24) | pack_operand(a)?);
            }
            encode_expr(body, out)
        }
        MExpr::Case {
            scrutinee,
            branches,
            default,
        } => {
            out.push((TAG_CASE << 24) | pack_operand(scrutinee)?);
            for MBranch { pattern, body } in branches {
                let mut body_words = Vec::new();
                encode_expr(body, &mut body_words)?;
                if body_words.len() > 0xFF_FFFF {
                    return Err(EncodeError::SkipTooLarge(body_words.len()));
                }
                let skip = body_words.len() as Word;
                match pattern {
                    MPattern::Lit(n) => {
                        out.push((TAG_PAT_LIT << 24) | skip);
                        out.push(*n as Word);
                    }
                    MPattern::Con(id) => {
                        out.push((TAG_PAT_CON << 24) | skip);
                        out.push(*id);
                    }
                }
                out.extend(body_words);
            }
            out.push(TAG_ELSE << 24);
            encode_expr(default, out)
        }
        MExpr::Result(op) => {
            out.push((TAG_RESULT << 24) | pack_operand(op)?);
            Ok(())
        }
    }
}

/// Decode a binary word stream back into a validated machine program.
pub fn decode(words: &[Word]) -> Result<MProgram, DecodeError> {
    let mut pos = 0usize;
    let next = |pos: &mut usize| -> Result<Word, DecodeError> {
        let w = *words.get(*pos).ok_or(DecodeError::Truncated)?;
        *pos += 1;
        Ok(w)
    };

    if next(&mut pos)? != MAGIC {
        return Err(DecodeError::BadMagic(words[0]));
    }
    let count = next(&mut pos)? as usize;
    // The count is untrusted until the items decode; never pre-allocate
    // more than the words remaining could possibly describe.
    let mut items = Vec::with_capacity(count.min(words.len() / 2 + 1));
    for _ in 0..count {
        let fp = next(&mut pos)?;
        let is_con = fp >> 31 == 1;
        let arity = ((fp >> 16) & 0xFF) as usize;
        let locals = (fp & 0xFFFF) as usize;
        let body_len = next(&mut pos)? as usize;
        if is_con {
            if body_len != 0 {
                return Err(DecodeError::LengthMismatch {
                    stored: body_len,
                    actual: 0,
                });
            }
            items.push(MItem {
                arity,
                locals,
                kind: MItemKind::Con,
                name: None,
            });
        } else {
            let start = pos;
            let body = decode_expr(words, &mut pos)?;
            let actual = pos - start;
            if actual != body_len {
                return Err(DecodeError::LengthMismatch {
                    stored: body_len,
                    actual,
                });
            }
            items.push(MItem {
                arity,
                locals,
                kind: MItemKind::Fun { body },
                name: None,
            });
        }
    }
    Ok(MProgram::new(items)?)
}

fn decode_expr(words: &[Word], pos: &mut usize) -> Result<MExpr, DecodeError> {
    let offset = *pos;
    let w = *words.get(*pos).ok_or(DecodeError::Truncated)?;
    *pos += 1;
    match w >> 24 {
        TAG_LET => {
            let nargs = ((w >> 16) & 0xFF) as usize;
            let source =
                source_from_code((w >> 12) & 0xF).ok_or(DecodeError::BadTag { word: w, offset })?;
            let callee = Operand {
                source,
                index: (w & 0xFFF) as i32,
            };
            let mut args = Vec::with_capacity(nargs);
            for _ in 0..nargs {
                let aw = *words.get(*pos).ok_or(DecodeError::Truncated)?;
                if aw >> 24 != TAG_ARG {
                    return Err(DecodeError::BadTag {
                        word: aw,
                        offset: *pos,
                    });
                }
                args.push(unpack_operand(aw & 0x00FF_FFFF).ok_or(DecodeError::BadTag {
                    word: aw,
                    offset: *pos,
                })?);
                *pos += 1;
            }
            let body = decode_expr(words, pos)?;
            Ok(MExpr::Let {
                callee,
                args,
                body: Box::new(body),
            })
        }
        TAG_CASE => {
            let scrutinee =
                unpack_operand(w & 0x00FF_FFFF).ok_or(DecodeError::BadTag { word: w, offset })?;
            let mut branches = Vec::new();
            loop {
                let pw = *words.get(*pos).ok_or(DecodeError::Truncated)?;
                let poffset = *pos;
                *pos += 1;
                match pw >> 24 {
                    TAG_ELSE => break,
                    TAG_PAT_LIT | TAG_PAT_CON => {
                        let skip = (pw & 0x00FF_FFFF) as usize;
                        let value = *words.get(*pos).ok_or(DecodeError::Truncated)?;
                        *pos += 1;
                        let start = *pos;
                        let body = decode_expr(words, pos)?;
                        let actual = *pos - start;
                        if actual != skip {
                            return Err(DecodeError::SkipMismatch {
                                stored: skip,
                                actual,
                            });
                        }
                        let pattern = if pw >> 24 == TAG_PAT_LIT {
                            MPattern::Lit(value as i32)
                        } else {
                            MPattern::Con(value)
                        };
                        branches.push(MBranch { pattern, body });
                    }
                    _ => {
                        return Err(DecodeError::BadTag {
                            word: pw,
                            offset: poffset,
                        })
                    }
                }
            }
            let default = decode_expr(words, pos)?;
            Ok(MExpr::Case {
                scrutinee,
                branches,
                default: Box::new(default),
            })
        }
        TAG_RESULT => {
            let op =
                unpack_operand(w & 0x00FF_FFFF).ok_or(DecodeError::BadTag { word: w, offset })?;
            Ok(MExpr::Result(op))
        }
        _ => Err(DecodeError::BadTag { word: w, offset }),
    }
}

/// Render the binary as annotated hex lines (one word per line), in the
/// spirit of the paper's Figure 4(c). Intended for humans and the encoding
/// demo; not machine-readable.
pub fn hexdump(words: &[Word]) -> String {
    let mut out = String::new();
    for (i, w) in words.iter().enumerate() {
        let note = match i {
            0 => "  ; magic \"ZARF\"",
            1 => "  ; item count",
            _ => match w >> 24 {
                TAG_LET => "  ; let",
                TAG_ARG => "  ; arg",
                TAG_CASE => "  ; case",
                TAG_PAT_LIT => "  ; pattern literal",
                TAG_PAT_CON => "  ; pattern cons",
                TAG_ELSE => "  ; pattern else",
                TAG_RESULT => "  ; result",
                _ => "",
            },
        };
        out.push_str(&format!("{i:04}: {w:#010x}{note}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;
    use crate::parser::parse;

    fn roundtrip(src: &str) -> (MProgram, MProgram) {
        let m = lower(&parse(src).unwrap()).unwrap();
        let words = encode(&m).unwrap();
        let d = decode(&words).unwrap();
        (m, d)
    }

    /// Structural equality ignoring retained names.
    fn strip_names(m: &MProgram) -> MProgram {
        let items = m
            .items()
            .iter()
            .map(|i| MItem {
                name: None,
                ..i.clone()
            })
            .collect();
        MProgram::new(items).unwrap()
    }

    const MAP_SRC: &str = r#"
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
    let list' = Cons x' rest' in
    result list'
  else
    let e = Nil in
    result e
fun main =
  let nil = Nil in
  result nil
"#;

    #[test]
    fn magic_and_count() {
        let m = lower(&parse("fun main = result 0").unwrap()).unwrap();
        let words = encode(&m).unwrap();
        assert_eq!(words[0], MAGIC);
        assert_eq!(words[1], 1);
    }

    #[test]
    fn encode_decode_round_trip_map() {
        let (m, d) = roundtrip(MAP_SRC);
        assert_eq!(strip_names(&m), d);
    }

    #[test]
    fn body_length_matches_word_count() {
        let m = lower(&parse(MAP_SRC).unwrap()).unwrap();
        let words = encode(&m).unwrap();
        // Walk the items and compare header M with MExpr::word_count.
        let mut pos = 2;
        for item in m.items() {
            let _fp = words[pos];
            let len = words[pos + 1] as usize;
            match item.body() {
                Some(b) => assert_eq!(len, b.word_count()),
                None => assert_eq!(len, 0),
            }
            pos += 2 + len;
        }
        assert_eq!(pos, words.len());
    }

    #[test]
    fn truncated_binary_rejected() {
        let m = lower(&parse(MAP_SRC).unwrap()).unwrap();
        let mut words = encode(&m).unwrap();
        words.pop();
        assert!(matches!(
            decode(&words),
            Err(DecodeError::Truncated | DecodeError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(
            decode(&[0xDEAD_BEEF, 0]),
            Err(DecodeError::BadMagic(0xDEAD_BEEF))
        );
    }

    #[test]
    fn corrupted_skip_rejected() {
        let m = lower(&parse(MAP_SRC).unwrap()).unwrap();
        let mut words = encode(&m).unwrap();
        // Find a pattern word and corrupt its skip field.
        let idx = words
            .iter()
            .position(|w| w >> 24 == TAG_PAT_CON)
            .expect("map has constructor patterns");
        words[idx] += 1;
        assert!(matches!(
            decode(&words),
            Err(DecodeError::SkipMismatch { .. }
                | DecodeError::Truncated
                | DecodeError::LengthMismatch { .. }
                | DecodeError::BadTag { .. })
        ));
    }

    #[test]
    fn negative_immediates_survive() {
        let src = "fun main =\n let x = add -7 -500000 in\n result x";
        let (m, d) = roundtrip(src);
        assert_eq!(strip_names(&m), d);
    }

    #[test]
    fn imm_out_of_range_rejected() {
        use zarf_core::machine::{MExpr, MItem, MItemKind, Operand};
        use zarf_core::prim::PrimOp;
        let body = MExpr::Let {
            callee: Operand::global(PrimOp::Add.index()),
            args: vec![Operand::imm(1 << 20), Operand::imm(0)],
            body: Box::new(MExpr::Result(Operand::local(0))),
        };
        let m = MProgram::new(vec![MItem {
            arity: 0,
            locals: 1,
            kind: MItemKind::Fun { body },
            name: None,
        }])
        .unwrap();
        assert_eq!(encode(&m), Err(EncodeError::ImmOutOfRange(1 << 20)));
    }

    #[test]
    fn constructor_items_have_zero_length_bodies() {
        let (_, d) = roundtrip(MAP_SRC);
        // Nil and Cons decode as constructor stubs with the right arity.
        let nil = d.lookup(0x101).unwrap();
        let cons = d.lookup(0x102).unwrap();
        assert!(nil.is_con() && nil.arity == 0);
        assert!(cons.is_con() && cons.arity == 2);
    }

    #[test]
    fn hexdump_annotates_tags() {
        let m = lower(&parse("fun main =\n let x = add 1 2 in\n result x").unwrap()).unwrap();
        let words = encode(&m).unwrap();
        let dump = hexdump(&words);
        assert!(dump.contains("magic"));
        assert!(dump.contains("; let"));
        assert!(dump.contains("; result"));
    }

    #[test]
    fn io_program_round_trips() {
        let (m, d) =
            roundtrip("fun main =\n let a = getint 0 in\n let b = putint 1 a in\n result b");
        assert_eq!(strip_names(&m), d);
    }
}
