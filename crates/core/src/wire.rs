//! Dependency-free binary encoding helpers shared by the checkpoint
//! format and the `uov-service` wire protocol.
//!
//! Everything here is deliberately boring: little-endian fixed-width
//! integers, a bounds-checked cursor that can never read past its buffer,
//! a bitwise IEEE CRC-32, self-checking `tag ‖ len ‖ payload ‖ crc32`
//! sections ([`Encoder::section`], [`Decoder::section`]) and one durable
//! file writer ([`write_atomic`]). The checkpoint format
//! ([`crate::checkpoint`]) and the planning service's frames are both
//! built from these primitives, so a fuzzer that breaks one breaks both —
//! and the fault-injection suites hammer them.

use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

use uov_isg::IVec;

/// CRC-32 (IEEE 802.3, bitwise): poly `0xEDB88320`, init/final `!0`.
/// Bitwise rather than table-driven — frames and snapshots are small, and
/// 20 lines beat a 1 KiB table for auditability.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Decoding failed structurally: the buffer ended early or a declared
/// size is impossible. Semantic validation (CRCs, magics, versions) is
/// the caller's job — this type only covers what the cursor itself can
/// see.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ends before the declared structure does.
    Truncated,
    /// A declared count or length cannot fit in the remaining buffer (or
    /// in `usize`). Rejected *before* allocating, so a hostile length
    /// prefix cannot balloon memory.
    Oversized(&'static str),
    /// A self-checking section's stored CRC-32 does not match its bytes.
    Crc {
        /// Tag of the failing section.
        tag: u8,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "input is truncated"),
            WireError::Oversized(what) => write!(f, "{what} exceeds the input size"),
            WireError::Crc { tag } => write!(f, "section {tag} failed its CRC32 check"),
        }
    }
}

impl std::error::Error for WireError {}

/// Append-only little-endian encoder.
#[derive(Debug, Default)]
pub struct Encoder {
    /// The bytes written so far.
    pub buf: Vec<u8>,
}

impl Encoder {
    /// An empty encoder.
    pub fn new() -> Self {
        Encoder::default()
    }

    /// An empty encoder with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Encoder {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    /// Append a `u16`, little-endian.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Append a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Append a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Append a `u128`, little-endian.
    pub fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Append an `i64`, little-endian.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Append a vector's components, each as a little-endian `i64`.
    pub fn vec(&mut self, w: &IVec) {
        for &c in w.as_slice() {
            self.i64(c);
        }
    }

    /// Append `tag ‖ len ‖ payload ‖ crc32(tag ‖ len ‖ payload)` — the
    /// self-checking section framing of the checkpoint file, read back by
    /// [`Decoder::section`].
    pub fn section(&mut self, tag: u8, payload: &[u8]) {
        let start = self.buf.len();
        self.u8(tag);
        self.u64(payload.len() as u64);
        self.buf.extend_from_slice(payload);
        let crc = crc32(&self.buf[start..]);
        self.u32(crc);
    }
}

/// Bounds-checked little-endian decoding cursor.
#[derive(Debug)]
pub struct Decoder<'a> {
    /// The full input buffer.
    pub buf: &'a [u8],
    /// Cursor position within `buf`.
    pub pos: usize,
}

impl<'a> Decoder<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consume the next `n` bytes.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] if fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(WireError::Truncated)?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let slice = self.take(N)?;
        let mut out = [0u8; N];
        out.copy_from_slice(slice);
        Ok(out)
    }

    /// Consume one byte.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] at end of input.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.array::<1>()?[0])
    }
    /// Consume a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] if fewer than 2 bytes remain.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.array()?))
    }
    /// Consume a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] if fewer than 4 bytes remain.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.array()?))
    }
    /// Consume a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] if fewer than 8 bytes remain.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.array()?))
    }
    /// Consume a little-endian `u128`.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] if fewer than 16 bytes remain.
    pub fn u128(&mut self) -> Result<u128, WireError> {
        Ok(u128::from_le_bytes(self.array()?))
    }
    /// Consume a little-endian `i64`.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] if fewer than 8 bytes remain.
    pub fn i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.array()?))
    }

    /// Consume `dim` little-endian `i64` components as an [`IVec`].
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] if fewer than `8 × dim` bytes remain.
    pub fn vec(&mut self, dim: usize) -> Result<IVec, WireError> {
        let mut v = Vec::with_capacity(dim);
        for _ in 0..dim {
            v.push(self.i64()?);
        }
        Ok(IVec::from(v))
    }

    /// Consume one section written by [`Encoder::section`] and return its
    /// tag and payload, after checking the CRC-32 over `tag ‖ len ‖
    /// payload`.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] if the section runs past the input,
    /// [`WireError::Crc`] if its CRC-32 does not match.
    pub fn section(&mut self) -> Result<(u8, &'a [u8]), WireError> {
        let start = self.pos;
        let tag = self.u8()?;
        let len = usize::try_from(self.u64()?).map_err(|_| WireError::Truncated)?;
        let payload = self.take(len)?;
        let framed = &self.buf[start..self.pos];
        if crc32(framed) != self.u32()? {
            return Err(WireError::Crc { tag });
        }
        Ok((tag, payload))
    }

    /// Length-checked entry count: reads a `u64` count and verifies the
    /// remaining buffer can hold `count` entries of `entry_bytes` each —
    /// **before** any allocation sized by the count.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] if the count itself is missing,
    /// [`WireError::Oversized`] if the declared entries cannot fit.
    pub fn count(&mut self, entry_bytes: usize) -> Result<usize, WireError> {
        let n = self.u64()?;
        let remaining = self.remaining();
        let needed = usize::try_from(n)
            .ok()
            .and_then(|n| n.checked_mul(entry_bytes))
            .ok_or(WireError::Oversized("entry count"))?;
        if needed > remaining {
            return Err(WireError::Oversized("entry count"));
        }
        Ok(n as usize)
    }
}

/// Replace the file at `path` with `bytes` durably: write `<path>.tmp`,
/// fsync it and rename it over `path`, so a crash at any point leaves the
/// old file or the new one, never a torn one. On failure the scratch file
/// is removed (best effort) and `path` is untouched.
///
/// # Errors
///
/// The first filesystem failure: create, write, fsync or rename.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let result = (|| {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        drop(f);
        fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use uov_isg::ivec;

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn scalar_round_trip() {
        let mut e = Encoder::new();
        e.u8(7);
        e.u16(300);
        e.u32(70_000);
        e.u64(1 << 40);
        e.u128(1 << 90);
        e.i64(-42);
        e.vec(&ivec![3, -4]);
        let mut d = Decoder::new(&e.buf);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u16().unwrap(), 300);
        assert_eq!(d.u32().unwrap(), 70_000);
        assert_eq!(d.u64().unwrap(), 1 << 40);
        assert_eq!(d.u128().unwrap(), 1 << 90);
        assert_eq!(d.i64().unwrap(), -42);
        assert_eq!(d.vec(2).unwrap(), ivec![3, -4]);
        assert_eq!(d.remaining(), 0);
        assert_eq!(d.u8(), Err(WireError::Truncated));
    }

    #[test]
    fn oversized_count_is_rejected_before_allocation() {
        let mut e = Encoder::new();
        e.u64(u64::MAX); // count that would overflow usize × entry_bytes
        let mut d = Decoder::new(&e.buf);
        assert!(matches!(d.count(24), Err(WireError::Oversized(_))));
        // A count larger than the remaining payload is also rejected.
        let mut e = Encoder::new();
        e.u64(10);
        e.u64(0); // only 8 bytes of payload for 10 × 24-byte entries
        let mut d = Decoder::new(&e.buf);
        assert!(matches!(d.count(24), Err(WireError::Oversized(_))));
    }

    #[test]
    fn section_framing_detects_corruption() {
        let mut e = Encoder::new();
        e.section(3, b"payload");
        let body_len = e.buf.len() - 4;
        let crc = u32::from_le_bytes(e.buf[body_len..].try_into().unwrap());
        assert_eq!(crc, crc32(&e.buf[..body_len]));
        let mut d = Decoder::new(&e.buf);
        assert_eq!(d.section(), Ok((3, b"payload".as_slice())));
        assert_eq!(d.remaining(), 0);
        for at in 0..e.buf.len() {
            let mut flipped = e.buf.clone();
            flipped[at] ^= 1;
            let got = Decoder::new(&flipped).section();
            assert!(got != Ok((3, b"payload".as_slice())), "flip at {at}");
            let cut = Decoder::new(&e.buf[..at]).section();
            assert_eq!(cut, Err(WireError::Truncated), "cut at {at}");
        }
    }
}
