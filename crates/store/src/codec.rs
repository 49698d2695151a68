//! Minimal binary codec for durable payloads.
//!
//! All integers are little-endian. Floats are stored as raw IEEE-754
//! bits (`to_bits`/`from_bits`), so round-tripping is byte-exact —
//! the checkpoint/resume determinism guarantee depends on it.

use crate::StoreError;

/// Appends primitive values to a growing byte buffer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a bool as one byte (0/1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Writes a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Writes an `f32` as raw bits.
    pub fn put_f32(&mut self, v: f32) {
        self.put_u32(v.to_bits());
    }

    /// Writes an `f64` as raw bits.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_usize(v.len());
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// Writes a length-prefixed `f32` slice.
    pub fn put_f32_slice(&mut self, v: &[f32]) {
        self.put_usize(v.len());
        for &x in v {
            self.put_f32(x);
        }
    }

    /// Writes a length-prefixed `u32` slice.
    pub fn put_u32_slice(&mut self, v: &[u32]) {
        self.put_usize(v.len());
        for &x in v {
            self.put_u32(x);
        }
    }

    /// Writes a length-prefixed `usize` slice.
    pub fn put_usize_slice(&mut self, v: &[usize]) {
        self.put_usize(v.len());
        for &x in v {
            self.put_usize(x);
        }
    }

    /// Writes raw bytes without a length prefix.
    pub fn put_raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
}

/// Reads primitive values back out of an encoded buffer, surfacing a
/// typed [`StoreError::Decode`] on truncation instead of panicking.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        if self.remaining() < n {
            return Err(StoreError::decode(format!(
                "truncated payload: wanted {n} bytes at offset {}, {} remain",
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool, rejecting anything but 0/1.
    pub fn get_bool(&mut self) -> Result<bool, StoreError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(StoreError::decode(format!("invalid bool byte {v}"))),
        }
    }

    /// Reads a `u32`.
    pub fn get_u32(&mut self) -> Result<u32, StoreError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a `u64`.
    pub fn get_u64(&mut self) -> Result<u64, StoreError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Reads a `usize` stored as `u64`.
    pub fn get_usize(&mut self) -> Result<usize, StoreError> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| StoreError::decode(format!("usize overflow: {v}")))
    }

    /// Reads the length prefix of a list whose elements take at least
    /// `min_element_bytes` (> 0) each, refusing one the rest of the
    /// payload could not hold — so a corrupt prefix is a typed error
    /// where it is read, and a caller that reserves for the length it
    /// gets back never reserves on such a prefix's say-so.
    pub fn get_len(&mut self, min_element_bytes: usize) -> Result<usize, StoreError> {
        let n = self.get_usize()?;
        if n > self.remaining() / min_element_bytes {
            return Err(StoreError::decode(format!(
                "length prefix {n} exceeds what the remaining {} bytes could hold",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Reads an `f32` from raw bits.
    pub fn get_f32(&mut self) -> Result<f32, StoreError> {
        Ok(f32::from_bits(self.get_u32()?))
    }

    /// Reads an `f64` from raw bits.
    pub fn get_f64(&mut self) -> Result<f64, StoreError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, StoreError> {
        let n = self.get_usize()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| StoreError::decode(format!("invalid utf-8 string: {e}")))
    }

    /// Reads a length-prefixed `f32` vector.
    pub fn get_f32_vec(&mut self) -> Result<Vec<f32>, StoreError> {
        let n = self.get_len(4)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.get_f32()?);
        }
        Ok(v)
    }

    /// Reads a length-prefixed `u32` vector.
    pub fn get_u32_vec(&mut self) -> Result<Vec<u32>, StoreError> {
        let n = self.get_len(4)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.get_u32()?);
        }
        Ok(v)
    }

    /// Reads `n` raw bytes (no length prefix) — the counterpart of
    /// [`ByteWriter::put_raw`] for embedding nested payloads.
    pub fn get_raw(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        self.take(n)
    }

    /// Reads a length-prefixed `usize` vector.
    pub fn get_usize_vec(&mut self) -> Result<Vec<usize>, StoreError> {
        let n = self.get_len(8)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.get_usize()?);
        }
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_primitives() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_bool(true);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 3);
        w.put_f32(-0.0);
        w.put_f64(f64::MIN_POSITIVE);
        w.put_str("hëllo");
        w.put_f32_slice(&[1.5, -2.25]);
        w.put_usize_slice(&[10, 10]);
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.get_f32().unwrap().to_bits(), (-0.0f32).to_bits());
        assert_eq!(r.get_f64().unwrap(), f64::MIN_POSITIVE);
        assert_eq!(r.get_str().unwrap(), "hëllo");
        assert_eq!(r.get_f32_vec().unwrap(), vec![1.5, -2.25]);
        assert_eq!(r.get_usize_vec().unwrap(), vec![10, 10]);
        assert!(r.is_exhausted());
    }

    #[test]
    fn nan_bits_survive() {
        // A NaN payload must round-trip bit-exactly, not collapse to a
        // canonical NaN.
        let weird = f64::from_bits(0x7FF8_0000_0000_1234);
        let mut w = ByteWriter::new();
        w.put_f64(weird);
        let bytes = w.finish();
        assert_eq!(ByteReader::new(&bytes).get_f64().unwrap().to_bits(), weird.to_bits());
    }

    #[test]
    fn truncation_is_typed_not_panic() {
        let mut r = ByteReader::new(&[1, 2]);
        let err = r.get_u64().unwrap_err();
        assert!(err.to_string().contains("truncated"));
    }

    #[test]
    fn a_length_prefix_the_payload_cannot_hold_is_refused_where_it_is_read() {
        let mut w = ByteWriter::new();
        w.put_usize(3);
        w.put_raw(&[0; 24]);
        let bytes = w.finish();
        assert_eq!(ByteReader::new(&bytes).get_len(8).expect("3 x 8 bytes follow"), 3);
        let err = ByteReader::new(&bytes).get_len(9).unwrap_err();
        assert!(err.to_string().contains("length prefix 3"), "{err}");
        let huge = (1u64 << 40).to_le_bytes();
        assert!(ByteReader::new(&huge).get_len(1).is_err());
    }

    #[test]
    fn bad_bool_rejected() {
        assert!(ByteReader::new(&[9]).get_bool().is_err());
    }
}
