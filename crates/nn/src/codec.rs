//! The binary layer shared by the `.qmcu` model format ([`crate::import`])
//! and `quantmcu`'s `.qplan` plan artifacts: a framed [`Writer`], a
//! bounds-checked [`Reader`], one [`FormatError`] and the [`fnv1a64`]
//! checksum. The codec knows nothing about either record layout; each
//! format module documents its own body.
//!
//! # Header
//!
//! Every file opens with the same 16-byte header:
//!
//! | offset | field | type |
//! |--------|-------|------|
//! | 0      | magic (fixed forever per format) | `[u8; 4]` |
//! | 4      | format version | `u32` |
//! | 8      | FNV-1a 64 checksum of every byte from offset 16 | `u64` |
//! | 16     | body … | format-specific |
//!
//! # Conventions
//!
//! * All integers are little-endian; `f32`/`f64` payloads are stored as
//!   their IEEE-754 bit patterns, so values round-trip bit-exactly.
//! * [`Reader::open`] checks the header in one fixed order — magic,
//!   header length, version, checksum — and verifies the checksum
//!   *before* any body byte is parsed, so random corruption surfaces as
//!   [`FormatError::ChecksumMismatch`] with both sums. A reader accepts
//!   exactly its own version; any other is
//!   [`FormatError::UnsupportedVersion`], never a best-effort parse.
//! * Every length field is validated against the bytes actually
//!   remaining ([`Reader::count`], [`Reader::edges`]) before anything is
//!   allocated, so decoding never allocates more than the input length.
//! * Structural errors carry the absolute byte offset of the field they
//!   occurred at, plus the field name or what was wrong. Decoding never
//!   panics.
//!
//! Shared record pieces: an input shape is `n, h, w, c` as `4 × u32`
//! ([`Writer::shape`]); an operator is an opcode `u8` followed by
//! `u32 × OpSpec::attr_count(opcode)` attributes ([`Writer::op`]); a
//! node's inputs are a `u16` count followed by `(tag u8, id u32)` pairs,
//! tag `0` for the image and `1` for a node ([`Writer::edges`]).

use std::fmt;
use std::path::Path;

use quantmcu_tensor::Shape;

use crate::analyze::RawInput;
use crate::OpSpec;

/// Length of the common header; the checksummed body starts here.
pub const HEADER_LEN: usize = 16;

/// FNV-1a 64-bit hash of `bytes`: the integrity checksum of both binary
/// formats, and the model fingerprint a plan artifact binds to.
///
/// ```
/// use quantmcu_nn::codec::fnv1a64;
///
/// assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
/// assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
/// ```
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Why a byte stream could not be read or written, independent of which
/// format it holds.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FormatError {
    /// The stream does not open with the format's magic.
    BadMagic {
        /// The first four bytes actually found, zero-padded.
        found: [u8; 4],
        /// The magic the reader expected.
        expected: [u8; 4],
    },
    /// The stream's format version is not the one this reader understands.
    UnsupportedVersion {
        /// Version stamped in the header.
        found: u32,
        /// The version this build reads.
        supported: u32,
    },
    /// The stored checksum does not match the body: the file is damaged.
    ChecksumMismatch {
        /// Checksum stamped in the header.
        stored: u64,
        /// Checksum computed over the body.
        computed: u64,
    },
    /// The stream ended in the middle of a field.
    Truncated {
        /// Byte offset where the field began.
        offset: usize,
        /// Name of the field being read.
        field: &'static str,
    },
    /// An operator record uses an opcode this version does not define.
    UnknownOpcode {
        /// Byte offset of the opcode byte.
        offset: usize,
        /// The unrecognized opcode value.
        opcode: u8,
    },
    /// The stream is structurally inconsistent (bad tag, impossible
    /// length, trailing garbage, …).
    Corrupted {
        /// Byte offset of the inconsistency.
        offset: usize,
        /// What was wrong.
        detail: &'static str,
    },
    /// Reading or writing the file failed.
    Io {
        /// The path involved.
        path: String,
        /// The OS error, stringified ([`std::io::Error`] is not `Clone`).
        detail: String,
    },
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatError::BadMagic { found, expected } => {
                write!(f, "bad magic {found:02x?}, expected {expected:02x?}")
            }
            FormatError::UnsupportedVersion { found, supported } => {
                write!(f, "format version {found} unsupported (this build reads <= {supported})")
            }
            FormatError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch: header {stored:#018x}, body {computed:#018x} — file damaged"
            ),
            FormatError::Truncated { offset, field } => {
                write!(f, "byte {offset}: stream ends inside {field}")
            }
            FormatError::UnknownOpcode { offset, opcode } => {
                write!(f, "byte {offset}: unknown opcode {opcode}")
            }
            FormatError::Corrupted { offset, detail } => write!(f, "byte {offset}: {detail}"),
            FormatError::Io { path, detail } => write!(f, "{path}: {detail}"),
        }
    }
}

impl std::error::Error for FormatError {}

impl FormatError {
    /// The [`FormatError::Io`] for a failed read or write of `path`.
    pub fn io(path: &Path, err: &std::io::Error) -> Self {
        FormatError::Io { path: path.display().to_string(), detail: err.to_string() }
    }
}

/// Builds one framed stream: header first, body appended through the
/// little-endian primitives, checksum patched in by [`Writer::finish`].
#[derive(Debug)]
pub struct Writer {
    out: Vec<u8>,
}

impl Writer {
    /// Starts a stream with `magic`, `version` and a zero checksum.
    pub fn new(magic: [u8; 4], version: u32) -> Self {
        let mut w = Writer { out: Vec::new() };
        w.bytes(&magic);
        w.u32(version);
        w.u64(0);
        w
    }

    /// Appends raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        self.out.extend_from_slice(b);
    }

    /// Appends a `u8`.
    pub fn u8(&mut self, v: u8) {
        self.out.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.bytes(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Appends an `f32` as its bit pattern.
    pub fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }

    /// Appends an `f64` as its bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a `u32` count, then each item through `item`.
    pub fn list<I: ExactSizeIterator>(
        &mut self,
        items: I,
        mut item: impl FnMut(&mut Self, I::Item),
    ) {
        self.u32(items.len() as u32);
        for it in items {
            item(self, it);
        }
    }

    /// Appends an input shape as `n, h, w, c`.
    pub fn shape(&mut self, s: Shape) {
        for v in [s.n, s.h, s.w, s.c] {
            self.u32(v as u32);
        }
    }

    /// Appends an operator: opcode, then its attributes.
    pub fn op(&mut self, code: u8, attrs: &[u32]) {
        self.u8(code);
        for &a in attrs {
            self.u32(a);
        }
    }

    /// Appends a node's inputs: `u16` count, then a `(tag, id)` pair each.
    pub fn edges(&mut self, inputs: impl ExactSizeIterator<Item = RawInput>) {
        self.u16(inputs.len() as u16);
        for inp in inputs {
            let (tag, id) = match inp {
                RawInput::Image => (0, 0),
                RawInput::Node(id) => (1, id as u32),
            };
            self.u8(tag);
            self.u32(id);
        }
    }

    /// Patches the body checksum into the header and returns the stream.
    pub fn finish(mut self) -> Vec<u8> {
        let sum = fnv1a64(&self.out[HEADER_LEN..]);
        self.out[8..HEADER_LEN].copy_from_slice(&sum.to_le_bytes());
        self.out
    }
}

/// A bounds-checked little-endian cursor over one framed stream.
///
/// Every read is checked against the bytes remaining: a read past the
/// end is [`FormatError::Truncated`] at the absolute offset where the
/// field began, naming the field. Decoding never panics.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Checks the header — magic, header length (a `Truncated` `"header"`),
    /// `version`, checksum, in that order, the first failure being the
    /// error — and positions the cursor at the start of the body.
    pub fn open(bytes: &'a [u8], magic: [u8; 4], version: u32) -> Result<Self, FormatError> {
        if bytes.get(..4) != Some(&magic[..]) {
            let mut found = [0u8; 4];
            for (d, s) in found.iter_mut().zip(bytes) {
                *d = *s;
            }
            return Err(FormatError::BadMagic { found, expected: magic });
        }
        if bytes.len() < HEADER_LEN {
            return Err(FormatError::Truncated { offset: 4, field: "header" });
        }
        let mut r = Reader { bytes, pos: 4 };
        let found = r.u32("header")?;
        if found != version {
            return Err(FormatError::UnsupportedVersion { found, supported: version });
        }
        let stored = r.u64("header")?;
        let computed = fnv1a64(&bytes[HEADER_LEN..]);
        if stored != computed {
            return Err(FormatError::ChecksumMismatch { stored, computed });
        }
        Ok(r)
    }

    /// Absolute offset of the next unread byte.
    pub fn offset(&self) -> usize {
        self.pos
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// The next `len` bytes.
    pub fn take(&mut self, len: usize, field: &'static str) -> Result<&'a [u8], FormatError> {
        if len > self.remaining() {
            return Err(FormatError::Truncated { offset: self.pos, field });
        }
        let s = &self.bytes[self.pos..self.pos + len];
        self.pos += len;
        Ok(s)
    }

    fn array<const N: usize>(&mut self, field: &'static str) -> Result<[u8; N], FormatError> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(N, field)?);
        Ok(a)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self, field: &'static str) -> Result<u8, FormatError> {
        Ok(self.take(1, field)?[0])
    }

    /// Reads a `u16`.
    pub fn u16(&mut self, field: &'static str) -> Result<u16, FormatError> {
        self.array(field).map(u16::from_le_bytes)
    }

    /// Reads a `u32`.
    pub fn u32(&mut self, field: &'static str) -> Result<u32, FormatError> {
        self.array(field).map(u32::from_le_bytes)
    }

    /// Reads a `u64`.
    pub fn u64(&mut self, field: &'static str) -> Result<u64, FormatError> {
        self.array(field).map(u64::from_le_bytes)
    }

    /// Reads an `f32` bit pattern.
    pub fn f32(&mut self, field: &'static str) -> Result<f32, FormatError> {
        self.u32(field).map(f32::from_bits)
    }

    /// Reads an `f64` bit pattern.
    pub fn f64(&mut self, field: &'static str) -> Result<f64, FormatError> {
        self.u64(field).map(f64::from_bits)
    }

    /// Reads a `u32` element count; when `count × min_bytes` exceeds the
    /// bytes remaining it is [`FormatError::Corrupted`] with `detail` at
    /// the count, so the caller may reserve `count` elements.
    pub fn count(
        &mut self,
        min_bytes: usize,
        field: &'static str,
        detail: &'static str,
    ) -> Result<usize, FormatError> {
        let at = self.pos;
        let n = self.u32(field)? as usize;
        if n.checked_mul(min_bytes).map_or(true, |need| need > self.remaining()) {
            return Err(FormatError::Corrupted { offset: at, detail });
        }
        Ok(n)
    }

    /// A [`Reader::count`]-checked count, then that many `item`s.
    pub fn list<T>(
        &mut self,
        min_bytes: usize,
        field: &'static str,
        detail: &'static str,
        mut item: impl FnMut(&mut Self) -> Result<T, FormatError>,
    ) -> Result<Vec<T>, FormatError> {
        let n = self.count(min_bytes, field, detail)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(item(self)?);
        }
        Ok(out)
    }

    /// Reads an input shape (`n, h, w, c`).
    pub fn shape(&mut self) -> Result<Shape, FormatError> {
        let n = self.u32("input shape n")? as usize;
        let h = self.u32("input shape h")? as usize;
        let w = self.u32("input shape w")? as usize;
        let c = self.u32("input shape c")? as usize;
        Ok(Shape::new(n, h, w, c))
    }

    /// Reads an opcode and its attributes and hands both to `decode`; a
    /// `None` (a code the format does not define) is
    /// [`FormatError::UnknownOpcode`] at the opcode.
    pub fn op<T>(
        &mut self,
        decode: impl FnOnce(u8, &[u32]) -> Option<T>,
    ) -> Result<T, FormatError> {
        let at = self.pos;
        let code = self.u8("opcode")?;
        let mut attrs = [0u32; 4];
        let n = OpSpec::attr_count(code);
        for a in &mut attrs[..n] {
            *a = self.u32("operator attribute")?;
        }
        decode(code, &attrs[..n]).ok_or(FormatError::UnknownOpcode { offset: at, opcode: code })
    }

    /// Reads a node's inputs: [`FormatError::Corrupted`] for a count the
    /// remaining bytes cannot hold, reported at `record` (the offset of the
    /// node record's opcode), or for a bad tag, at the tag.
    pub fn edges(&mut self, record: usize) -> Result<Vec<RawInput>, FormatError> {
        let n = usize::from(self.u16("input count")?);
        if n * 5 > self.remaining() {
            return Err(FormatError::Corrupted {
                offset: record,
                detail: "input count exceeds payload",
            });
        }
        let mut inputs = Vec::with_capacity(n);
        for _ in 0..n {
            let at = self.pos;
            let tag = self.u8("input tag")?;
            let id = self.u32("input id")? as usize;
            inputs.push(match tag {
                0 => RawInput::Image,
                1 => RawInput::Node(id),
                _ => return Err(FormatError::Corrupted { offset: at, detail: "bad input tag" }),
            });
        }
        Ok(inputs)
    }

    /// Ends the stream: [`FormatError::Corrupted`] with `detail` when
    /// bytes are left over.
    pub fn finish(&self, detail: &'static str) -> Result<(), FormatError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(FormatError::Corrupted { offset: self.pos, detail })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const M: [u8; 4] = *b"TEST";
    const V: u32 = 3;

    /// A framed stream whose body is written by `body`.
    fn stream(body: impl FnOnce(&mut Writer)) -> Vec<u8> {
        let mut w = Writer::new(M, V);
        body(&mut w);
        w.finish()
    }

    fn open(bytes: &[u8]) -> Reader<'_> {
        Reader::open(bytes, M, V).unwrap()
    }

    #[test]
    fn header_checks_run_in_one_order() {
        let good = stream(|w| w.u32(7));
        assert_eq!(open(&good).offset(), HEADER_LEN);
        let err = |b: &[u8]| Reader::open(b, M, V).unwrap_err();
        // Magic first, even on a stream shorter than the header.
        assert_eq!(err(b"TE"), FormatError::BadMagic { found: *b"TE\0\0", expected: M });
        // Then the header length, before the version is looked at.
        let mut bad = good.clone();
        bad[4] = 99;
        assert_eq!(err(&bad[..8]), FormatError::Truncated { offset: 4, field: "header" });
        // Then the version, before the checksum.
        bad[HEADER_LEN] ^= 1;
        assert_eq!(err(&bad), FormatError::UnsupportedVersion { found: 99, supported: V });
        // Last the checksum, before any body byte is parsed.
        bad[4] = V as u8;
        assert!(matches!(err(&bad), FormatError::ChecksumMismatch { stored, computed }
            if stored != computed));
    }

    #[test]
    fn impossible_counts_fail_without_overflow() {
        let corrupted = Err(FormatError::Corrupted { offset: HEADER_LEN, detail: "too many" });
        // Rejected before the caller could reserve u32::MAX × 8 bytes.
        let bytes = stream(|w| w.u32(u32::MAX));
        assert_eq!(open(&bytes).count(8, "items", "too many"), corrupted);
        let bytes = stream(|w| w.u32(2));
        assert_eq!(open(&bytes).count(usize::MAX, "items", "too many"), corrupted);
        let bytes = stream(|w| w.u64(2));
        assert_eq!(open(&bytes).list(2, "items", "too many", |r| r.u16("item")), Ok(vec![0, 0]));
    }

    #[test]
    fn reads_past_the_end_name_field_and_absolute_offset() {
        let bytes = stream(|w| w.u16(5));
        let mut r = open(&bytes);
        assert_eq!(r.take(3, "blob"), Err(FormatError::Truncated { offset: 16, field: "blob" }));
        assert_eq!(r.u16("small"), Ok(5));
        assert_eq!(r.u8("next"), Err(FormatError::Truncated { offset: 18, field: "next" }));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let bytes = stream(|w| w.u64(1));
        let mut r = open(&bytes);
        r.u32("half").unwrap();
        assert_eq!(r.finish("left"), Err(FormatError::Corrupted { offset: 20, detail: "left" }));
        r.u32("half").unwrap();
        assert_eq!(r.finish("left"), Ok(()));
    }

    #[test]
    fn record_pieces_round_trip() {
        let shape = Shape::new(1, 8, 6, 3);
        let op = OpSpec::Conv2d { out_ch: 4, kernel: 3, stride: 2, pad: 1 };
        let inputs = [RawInput::Image, RawInput::Node(41)];
        let bytes = stream(|w| {
            w.shape(shape);
            w.op(op.opcode(), &op.attrs());
            w.edges(inputs.iter().copied());
            w.f32(-0.5);
            w.f64(1e-9);
        });
        let mut r = open(&bytes);
        assert_eq!(r.shape(), Ok(shape));
        assert_eq!(r.op(OpSpec::from_code), Ok(op));
        assert_eq!(r.edges(0), Ok(inputs.to_vec()));
        assert_eq!((r.f32("f"), r.f64("d")), (Ok(-0.5), Ok(1e-9)));
        assert_eq!(r.finish("left"), Ok(()));
    }

    #[test]
    fn bad_opcodes_counts_and_tags_are_typed() {
        let bytes = stream(|w| w.op(200, &[]));
        let unknown = FormatError::UnknownOpcode { offset: 16, opcode: 200 };
        assert_eq!(open(&bytes).op(OpSpec::from_code), Err(unknown));
        // A u16 input count the body cannot hold is reported at the record.
        let bytes = stream(|w| w.u16(u16::MAX));
        let detail = "input count exceeds payload";
        assert_eq!(open(&bytes).edges(7), Err(FormatError::Corrupted { offset: 7, detail }));
        let bytes = stream(|w| {
            w.u16(1);
            w.u8(2);
            w.u32(0);
        });
        let detail = "bad input tag";
        assert_eq!(open(&bytes).edges(16), Err(FormatError::Corrupted { offset: 18, detail }));
    }
}
