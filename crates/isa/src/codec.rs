//! Byte-level (de)serialization substrate for portable snapshots.
//!
//! Every CABT engine keeps its resumable state in a crate-private
//! snapshot struct; the fleet layer needs those snapshots as *bytes* so
//! a session can be parked mid-run and resumed on another worker — or in
//! another process entirely. This module is the shared currency: a
//! little-endian [`ByteWriter`]/[`ByteReader`] pair plus the
//! [`CodecError`] every decoder funnels failures through. Each crate
//! implements `encode_into`/`decode` for its own snapshot types next to
//! their (private) field definitions, so the encoding never leaks a
//! crate's internals across module boundaries.
//!
//! Conventions, chosen for determinism and forward-compatibility:
//!
//! * all integers are little-endian, fixed width (no varints);
//! * collections are a `u32`/`u64` element count followed by the
//!   elements, in a deterministic order (sorted where the in-memory
//!   container is unordered);
//! * enums are a one-byte tag followed by the variant payload;
//! * `Option<T>` is a one-byte presence flag (0/1) then the payload.
//!
//! The version header and compatibility policy live one layer up, in
//! the `cabt-sim` park envelope (see `docs/snapshot-format.md`); this
//! module only moves raw fields.

use std::fmt;

/// Errors produced while decoding snapshot bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the field being decoded.
    Truncated {
        /// Byte offset at which the read was attempted.
        at: usize,
        /// Bytes the field needed.
        need: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// An enum/flag byte held a value no variant claims.
    BadTag {
        /// What was being decoded (static context string).
        what: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// The magic prefix of an envelope did not match.
    BadMagic,
    /// The envelope's format version is not the one this build decodes.
    Version {
        /// Version found in the header.
        found: u16,
        /// Version this decoder expects.
        expected: u16,
    },
    /// A length or count field was implausible (e.g. would overrun the
    /// remaining input) — corrupt bytes, caught before allocating.
    BadLength {
        /// What was being decoded (static context string).
        what: &'static str,
        /// The offending count.
        len: u64,
    },
    /// A UTF-8 string field held invalid UTF-8.
    BadUtf8,
    /// Decoding finished with unconsumed input — almost always a sign
    /// the bytes were produced by a different (newer) encoder.
    TrailingBytes {
        /// Bytes left over.
        remaining: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { at, need, have } => {
                write!(
                    f,
                    "snapshot truncated at byte {at}: need {need}, have {have}"
                )
            }
            CodecError::BadTag { what, tag } => {
                write!(f, "invalid tag byte {tag:#04x} while decoding {what}")
            }
            CodecError::BadMagic => write!(f, "not a CABT snapshot (bad magic)"),
            CodecError::Version { found, expected } => {
                write!(
                    f,
                    "unsupported snapshot format version {found} (this build reads version {expected})"
                )
            }
            CodecError::BadLength { what, len } => {
                write!(f, "implausible length {len} while decoding {what}")
            }
            CodecError::BadUtf8 => write!(f, "invalid UTF-8 in snapshot string field"),
            CodecError::TrailingBytes { remaining } => {
                write!(f, "{remaining} unconsumed bytes after decoding snapshot")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Little-endian append-only writer over a caller-owned buffer.
///
/// Borrowing the buffer (instead of owning a fresh `Vec`) is what makes
/// park/resume loops allocation-free: callers keep one scratch `Vec`
/// and re-encode into it every epoch.
#[derive(Debug)]
pub struct ByteWriter<'a> {
    out: &'a mut Vec<u8>,
}

impl<'a> ByteWriter<'a> {
    /// Wraps `out`; encoded bytes are appended (existing content is
    /// preserved, so envelopes can nest writers).
    pub fn new(out: &'a mut Vec<u8>) -> Self {
        ByteWriter { out }
    }

    /// Appends one byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.out.push(v);
    }

    /// Appends a bool as one byte (0/1).
    #[inline]
    pub fn bool(&mut self, v: bool) {
        self.out.push(v as u8);
    }

    /// Appends a little-endian `u16`.
    #[inline]
    pub fn u16(&mut self, v: u16) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i64`.
    pub fn i64(&mut self, v: i64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends raw bytes with no length prefix (fixed-size fields).
    #[inline]
    pub fn raw(&mut self, bytes: &[u8]) {
        self.out.extend_from_slice(bytes);
    }

    /// Appends a `u64` length prefix then the bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.u64(bytes.len() as u64);
        self.out.extend_from_slice(bytes);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }
}

/// Little-endian cursor over snapshot bytes. All reads bounds-check and
/// return [`CodecError::Truncated`] instead of panicking — snapshot
/// bytes cross process boundaries, so corrupt input is an error, never
/// a crash.
#[derive(Debug, Clone, Copy)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Current byte offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Errors unless every input byte was consumed — the final check of
    /// every top-level decode.
    pub fn finish(&self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes {
                remaining: self.remaining(),
            })
        }
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated {
                at: self.pos,
                need: n,
                have: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a 0/1 presence/flag byte; any other value is a
    /// [`CodecError::BadTag`].
    #[inline]
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(CodecError::BadTag { what: "bool", tag }),
        }
    }

    /// Reads a little-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads `n` raw bytes (fixed-size fields).
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        self.take(n)
    }

    /// Reads a `u64` length prefix, sanity-checks it against the
    /// remaining input, then reads that many bytes.
    pub fn bytes(&mut self, what: &'static str) -> Result<&'a [u8], CodecError> {
        let len = self.u64()?;
        if len > self.remaining() as u64 {
            return Err(CodecError::BadLength { what, len });
        }
        self.take(len as usize)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self, what: &'static str) -> Result<&'a str, CodecError> {
        std::str::from_utf8(self.bytes(what)?).map_err(|_| CodecError::BadUtf8)
    }

    /// Reads an element count for a collection whose elements occupy at
    /// least `min_elem_bytes` each, rejecting counts the remaining
    /// input cannot possibly satisfy (so corrupt bytes cannot trigger
    /// huge allocations).
    pub fn count(
        &mut self,
        what: &'static str,
        min_elem_bytes: usize,
    ) -> Result<usize, CodecError> {
        let len = self.u64()?;
        let cap = (self.remaining() as u64)
            .checked_div(min_elem_bytes as u64)
            .unwrap_or(u64::MAX);
        if len > cap {
            return Err(CodecError::BadLength { what, len });
        }
        Ok(len as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_primitive() {
        let mut buf = Vec::new();
        let mut w = ByteWriter::new(&mut buf);
        w.u8(0xab);
        w.bool(true);
        w.u16(0x1234);
        w.u32(0xdead_beef);
        w.u64(0x0123_4567_89ab_cdef);
        w.i64(-42);
        w.raw(&[1, 2, 3]);
        w.bytes(&[9, 9]);
        w.str("fleet");
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.u8().unwrap(), 0xab);
        assert!(r.bool().unwrap());
        assert_eq!(r.u16().unwrap(), 0x1234);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), 0x0123_4567_89ab_cdef);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.raw(3).unwrap(), &[1, 2, 3]);
        assert_eq!(r.bytes("blob").unwrap(), &[9, 9]);
        assert_eq!(r.str("name").unwrap(), "fleet");
        r.finish().unwrap();
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut r = ByteReader::new(&[1, 2]);
        assert!(matches!(
            r.u32(),
            Err(CodecError::Truncated {
                at: 0,
                need: 4,
                have: 2
            })
        ));
    }

    #[test]
    fn bad_flag_and_trailing_bytes_are_rejected() {
        let mut r = ByteReader::new(&[7]);
        assert!(matches!(r.bool(), Err(CodecError::BadTag { tag: 7, .. })));
        let r = ByteReader::new(&[0, 0]);
        assert!(matches!(
            r.finish(),
            Err(CodecError::TrailingBytes { remaining: 2 })
        ));
    }

    #[test]
    fn implausible_lengths_are_rejected_before_allocating() {
        // A length prefix claiming far more data than the input holds.
        let mut buf = Vec::new();
        ByteWriter::new(&mut buf).u64(u64::MAX);
        let mut r = ByteReader::new(&buf);
        assert!(matches!(
            r.bytes("blob"),
            Err(CodecError::BadLength { len: u64::MAX, .. })
        ));
        let mut r = ByteReader::new(&buf);
        assert!(matches!(
            r.count("words", 4),
            Err(CodecError::BadLength { .. })
        ));
    }

    #[test]
    fn writer_appends_without_clobbering() {
        let mut buf = vec![0xff];
        ByteWriter::new(&mut buf).u8(1);
        assert_eq!(buf, vec![0xff, 1]);
    }
}
