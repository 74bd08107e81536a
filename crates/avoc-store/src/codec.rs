//! Bounds-checked binary primitives shared by the segment format and the
//! WAL: LEB128 varints, zigzag deltas, a hand-rolled CRC-32 (IEEE), XOR-prev
//! float packing, and a cursor reader whose every method fails clean on
//! truncated or lying input — decode errors are values, never panics.

use std::io;

/// Maximum encoded length of a LEB128 `u64` (⌈64/7⌉ bytes).
pub const MAX_VARINT_LEN: usize = 10;

/// Appends `v` to `out` as an LEB128 varint.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Zigzag-encodes a signed delta so small magnitudes stay small varints.
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Appends `v` as a zigzag varint delta from `*prev`, then makes it the new
/// `*prev`. Deltas wrap, so every `u64` sequence round-trips exactly;
/// ascending rounds cost one byte each.
pub fn put_delta(out: &mut Vec<u8>, v: u64, prev: &mut u64) {
    put_varint(out, zigzag(v.wrapping_sub(*prev) as i64));
    *prev = v;
}

/// Appends `value`'s bit pattern XOR `*prev` as a varint, then makes it the
/// new `*prev`: a repeated value costs one byte, and a nearby one (same
/// sign, exponent and leading mantissa bits) fewer than eight.
pub fn put_xor_f64(out: &mut Vec<u8>, value: f64, prev: &mut u64) {
    let bits = value.to_bits();
    put_varint(out, bits ^ *prev);
    *prev = bits;
}

/// CRC-32 (IEEE 802.3, reflected) lookup table, built at compile time.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xedb8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xffff_ffffu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
}

/// A decode failure: where in the buffer and why. Converts to
/// [`io::ErrorKind::InvalidData`] at the API boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Byte offset the cursor had reached when decoding failed.
    pub at: usize,
    /// Human-readable reason.
    pub reason: &'static str,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "decode error at byte {}: {}", self.at, self.reason)
    }
}

impl std::error::Error for DecodeError {}

impl From<DecodeError> for io::Error {
    fn from(e: DecodeError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e.to_string())
    }
}

/// A bounds-checked forward cursor over a byte slice. Every read returns
/// `Err` on exhaustion or malformed input; nothing here indexes
/// unconditionally, so adversarial buffers cannot panic the decoder.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a buffer; the cursor starts at byte 0.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Current cursor offset.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes left after the cursor.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn fail(&self, reason: &'static str) -> DecodeError {
        DecodeError {
            at: self.pos,
            reason,
        }
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or_else(|| self.fail("unexpected end of input"))?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| self.fail("unexpected end of input"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Reads a little-endian `u32`.
    pub fn u32_le(&mut self) -> Result<u32, DecodeError> {
        let b = self.bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads an LEB128 varint, rejecting encodings longer than
    /// [`MAX_VARINT_LEN`] or overflowing 64 bits.
    pub fn varint(&mut self) -> Result<u64, DecodeError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            let payload = (byte & 0x7f) as u64;
            if shift == 63 && payload > 1 {
                return Err(self.fail("varint overflows u64"));
            }
            v |= payload << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(self.fail("varint too long"));
            }
        }
    }

    /// Reads a [`put_delta`] value relative to `*prev` and advances `*prev`.
    pub fn delta(&mut self, prev: &mut u64) -> Result<u64, DecodeError> {
        *prev = prev.wrapping_add(unzigzag(self.varint()?) as u64);
        Ok(*prev)
    }

    /// Reads a [`put_xor_f64`] value relative to `*prev` and advances
    /// `*prev`.
    pub fn xor_f64(&mut self, prev: &mut u64) -> Result<f64, DecodeError> {
        *prev ^= self.varint()?;
        Ok(f64::from_bits(*prev))
    }

    /// Reads a varint and checks it fits `usize` and is at most `cap` —
    /// the guard against lying element counts driving huge allocations.
    pub fn count(&mut self, cap: usize) -> Result<usize, DecodeError> {
        let v = self.varint()?;
        let n = usize::try_from(v).map_err(|_| self.fail("count overflows usize"))?;
        if n > cap {
            return Err(self.fail("count exceeds plausible bound"));
        }
        Ok(n)
    }
}

/// Appends `u32` little-endian.
pub fn put_u32_le(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trips_edge_values() {
        for v in [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert!(buf.len() <= MAX_VARINT_LEN);
            let mut r = Reader::new(&buf);
            assert_eq!(r.varint().unwrap(), v);
            assert_eq!(r.remaining(), 0);
        }
    }

    #[test]
    fn varint_rejects_overflow_and_overlength() {
        // 11 continuation bytes: too long.
        let buf = [0x80u8; 11];
        assert!(Reader::new(&buf).varint().is_err());
        // 10 bytes whose final payload pushes past 64 bits.
        let mut buf = vec![0xffu8; 9];
        buf.push(0x02);
        assert!(Reader::new(&buf).varint().is_err());
    }

    #[test]
    fn varint_truncation_is_an_error_not_a_panic() {
        let mut buf = Vec::new();
        put_varint(&mut buf, u64::MAX);
        for cut in 0..buf.len() {
            assert!(Reader::new(&buf[..cut]).varint().is_err());
        }
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        // Small magnitudes stay small.
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn deltas_and_xor_floats_round_trip() {
        let rounds = [0u64, 1, 2, 1, u64::MAX, 0, 7];
        let values = [0.75f64, 0.75, 0.7500001, -1.0, f64::NAN, 0.0];
        let mut buf = Vec::new();
        let mut prev = 0;
        for &v in &rounds {
            put_delta(&mut buf, v, &mut prev);
        }
        let mut prev = 0;
        for &v in &values {
            put_xor_f64(&mut buf, v, &mut prev);
        }
        let mut r = Reader::new(&buf);
        let mut prev = 0;
        for &v in &rounds {
            assert_eq!(r.delta(&mut prev).unwrap(), v);
        }
        let mut prev = 0;
        for &v in &values {
            assert_eq!(r.xor_f64(&mut prev).unwrap().to_bits(), v.to_bits());
        }
        assert_eq!(r.remaining(), 0);
        // A repeated value is one byte; an ascending round too.
        let (mut one, mut prev) = (Vec::new(), 0.5f64.to_bits());
        put_xor_f64(&mut one, 0.5, &mut prev);
        let mut prev = 9;
        put_delta(&mut one, 10, &mut prev);
        assert_eq!(one.len(), 2);
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn count_caps_lying_lengths() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 1_000_000);
        assert!(Reader::new(&buf).count(4096).is_err());
        assert_eq!(Reader::new(&buf).count(1_000_000).unwrap(), 1_000_000);
    }

    #[test]
    fn bytes_checks_bounds_without_overflow() {
        let buf = [1u8, 2, 3];
        let mut r = Reader::new(&buf);
        assert!(r.bytes(4).is_err());
        assert!(r.bytes(usize::MAX).is_err());
        assert_eq!(r.bytes(3).unwrap(), &[1, 2, 3]);
    }
}
