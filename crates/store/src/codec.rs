//! Minimal binary codec for durable payloads: [`ByteWriter`] and
//! [`ByteReader`] for primitives, and [`Wire`], the one trait every
//! persisted record implements on top of them.
//!
//! All integers are little-endian. Floats are stored as raw IEEE-754
//! bits (`to_bits`/`from_bits`), so round-tripping is byte-exact —
//! the checkpoint/resume determinism guarantee depends on it.

use crate::StoreError;
use std::sync::Arc;

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
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a bool as one byte (0/1).
    #[inline]
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Writes a `u32`, little-endian.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64`.
    #[inline]
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Writes an `f32` as raw bits.
    #[inline]
    pub fn put_f32(&mut self, v: f32) {
        self.put_u32(v.to_bits());
    }

    /// Writes an `f64` as raw bits.
    #[inline]
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_usize(v.len());
        self.buf.extend_from_slice(v.as_bytes());
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
    #[inline]
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub(crate) fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    #[inline]
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
    #[inline]
    pub fn get_u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool, rejecting anything but 0/1.
    #[inline]
    pub(crate) fn get_bool(&mut self) -> Result<bool, StoreError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(StoreError::decode(format!("invalid bool byte {v}"))),
        }
    }

    /// Reads a `u32`.
    #[inline]
    pub(crate) fn get_u32(&mut self) -> Result<u32, StoreError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a `u64`.
    #[inline]
    pub(crate) fn get_u64(&mut self) -> Result<u64, StoreError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Reads a `usize` stored as `u64`.
    #[inline]
    pub fn get_usize(&mut self) -> Result<usize, StoreError> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| StoreError::decode(format!("usize overflow: {v}")))
    }

    /// Reads an `f32` from raw bits.
    #[inline]
    pub(crate) fn get_f32(&mut self) -> Result<f32, StoreError> {
        Ok(f32::from_bits(self.get_u32()?))
    }

    /// Reads an `f64` from raw bits.
    #[inline]
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

    /// Reads `n` raw bytes (no length prefix) — the counterpart of
    /// [`ByteWriter::put_raw`] for embedding nested payloads.
    pub fn get_raw(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        self.take(n)
    }

    /// Reads the length prefix of a list whose elements take at least
    /// `min_element_bytes` (> 0) each, refusing one the rest of the
    /// payload could not hold — so a corrupt prefix is a typed error
    /// where it is read, and `Vec<T>::get`, the one caller, never
    /// reserves on such a prefix's say-so.
    fn get_len(&mut self, min_element_bytes: usize) -> Result<usize, StoreError> {
        let n = self.get_usize()?;
        if n > self.remaining() / min_element_bytes {
            return Err(StoreError::decode(format!(
                "length prefix {n} exceeds what the remaining {} bytes could hold",
                self.remaining()
            )));
        }
        Ok(n)
    }
}

/// A value with one durable encoding. `put` appends it, `get` reads it
/// back bit for bit, and `MIN_BYTES` is the fewest bytes any value's
/// encoding takes — what bounds a list of them: `Vec<T>::get` refuses a
/// length prefix the rest of the payload could not hold at
/// `T::MIN_BYTES` each, so no decoder reserves on a corrupt prefix.
///
/// Every record a store persists is a `Wire` impl composed field by
/// field from the impls below; [`crate::laws`] holds one to its laws.
/// A list of a type that takes no bytes does not compile:
///
/// ```compile_fail
/// # use gnnav_store::{ByteReader, Wire};
/// let _ = Vec::<[u8; 0]>::get(&mut ByteReader::new(&[0; 8]));
/// ```
pub trait Wire: Sized {
    /// Fewest bytes an encoded value takes (> 0 for a list element).
    const MIN_BYTES: usize;

    /// Appends the encoding of `self`.
    fn put(&self, w: &mut ByteWriter);

    /// Reads a value back, with a typed [`StoreError::Decode`] on
    /// truncated or invalid bytes.
    fn get(r: &mut ByteReader) -> Result<Self, StoreError>;
}

macro_rules! primitive_wire {
    ($($ty:ty: $bytes:expr, $put:ident, $get:ident;)+) => {$(
        impl Wire for $ty {
            const MIN_BYTES: usize = $bytes;
            #[inline]
            fn put(&self, w: &mut ByteWriter) {
                w.$put(*self);
            }
            #[inline]
            fn get(r: &mut ByteReader) -> Result<Self, StoreError> {
                r.$get()
            }
        }
    )+};
}

primitive_wire! {
    u8: 1, put_u8, get_u8;
    bool: 1, put_bool, get_bool;
    u32: 4, put_u32, get_u32;
    u64: 8, put_u64, get_u64;
    usize: 8, put_usize, get_usize;
    f32: 4, put_f32, get_f32;
    f64: 8, put_f64, get_f64;
}

/// A length-prefixed UTF-8 string.
impl Wire for String {
    const MIN_BYTES: usize = 8;
    fn put(&self, w: &mut ByteWriter) {
        w.put_str(self);
    }
    fn get(r: &mut ByteReader) -> Result<Self, StoreError> {
        r.get_str()
    }
}

/// A flag byte, then the value when there is one.
impl<T: Wire> Wire for Option<T> {
    const MIN_BYTES: usize = 1;
    fn put(&self, w: &mut ByteWriter) {
        self.is_some().put(w);
        if let Some(v) = self {
            v.put(w);
        }
    }
    fn get(r: &mut ByteReader) -> Result<Self, StoreError> {
        Ok(if bool::get(r)? { Some(T::get(r)?) } else { None })
    }
}

/// A `usize` length prefix, then each element.
impl<T: Wire> Wire for Vec<T> {
    const MIN_BYTES: usize = 8;
    fn put(&self, w: &mut ByteWriter) {
        self.len().put(w);
        self.iter().for_each(|x| x.put(w));
    }
    fn get(r: &mut ByteReader) -> Result<Self, StoreError> {
        const { assert!(T::MIN_BYTES > 0, "a list element must take at least one byte") };
        let n = r.get_len(T::MIN_BYTES)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(T::get(r)?);
        }
        Ok(v)
    }
}

/// Each element, no prefix.
impl<T: Wire, const N: usize> Wire for [T; N] {
    const MIN_BYTES: usize = N * T::MIN_BYTES;
    fn put(&self, w: &mut ByteWriter) {
        self.iter().for_each(|x| x.put(w));
    }
    fn get(r: &mut ByteReader) -> Result<Self, StoreError> {
        let v = (0..N).map(|_| T::get(r)).collect::<Result<Vec<T>, _>>()?;
        Ok(v.try_into().unwrap_or_else(|_| unreachable!("{N} elements were read")))
    }
}

/// The value itself: sharing is not persisted.
impl<T: Wire> Wire for Arc<T> {
    const MIN_BYTES: usize = T::MIN_BYTES;
    fn put(&self, w: &mut ByteWriter) {
        (**self).put(w);
    }
    fn get(r: &mut ByteReader) -> Result<Self, StoreError> {
        T::get(r).map(Arc::new)
    }
}

macro_rules! tuple_wire {
    ($($name:ident)+) => {
        /// Each field in order.
        impl<$($name: Wire),+> Wire for ($($name,)+) {
            const MIN_BYTES: usize = 0 $(+ $name::MIN_BYTES)+;
            #[allow(non_snake_case)]
            fn put(&self, w: &mut ByteWriter) {
                let ($($name,)+) = self;
                $($name.put(w);)+
            }
            fn get(r: &mut ByteReader) -> Result<Self, StoreError> {
                Ok(($($name::get(r)?,)+))
            }
        }
    };
}

tuple_wire!(A B);
tuple_wire!(A B C);

/// A whole payload: the leading byte `tag`, then `value`.
pub fn encode_tagged<T: Wire>(tag: u8, value: &T) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u8(tag);
    value.put(&mut w);
    w.finish()
}

/// Reads a payload [`encode_tagged`] wrote under `tag`, refusing another
/// leading byte and any byte left after the value; `what` names the
/// record in the error.
pub fn decode_tagged<T: Wire>(payload: &[u8], tag: u8, what: &str) -> Result<T, StoreError> {
    let mut r = ByteReader::new(payload);
    let found = r.get_u8()?;
    if found != tag {
        return Err(StoreError::decode(format!("payload tag {found} is not {what} (want {tag})")));
    }
    let value = T::get(&mut r)?;
    if !r.is_exhausted() {
        return Err(StoreError::decode(format!("{} trailing bytes after {what}", r.remaining())));
    }
    Ok(value)
}

/// Writes a struct's layout once, for both directions: its fields in
/// the order listed. For a struct of the calling crate it implements
/// [`Wire`] with the `MIN_BYTES` given (which [`crate::laws`] checks);
/// for a foreign struct, which the orphan rule keeps from implementing
/// it, it defines a `put(w, &value)` / `get(r)` pair of functions of
/// the visibility given. A field whose type cannot implement `Wire`
/// names the pair that encodes it after `with`.
///
/// ```
/// # use gnnav_store::{wire_struct, ByteReader, ByteWriter, StoreError, Wire};
/// #[derive(Debug, PartialEq)]
/// struct Range { start: u32, len: u32 }
/// #[derive(Debug, PartialEq)]
/// struct Span { range: Range, label: String }
///
/// wire_struct!(fn put_range, get_range for Range { start, len });
/// wire_struct!(Span, 4 + 4 + 8, { range with put_range, get_range, label });
///
/// let span = Span { range: Range { start: 3, len: 5 }, label: "a".into() };
/// let mut w = ByteWriter::new();
/// span.put(&mut w);
/// let bytes = w.finish();
/// assert_eq!(bytes.len(), 4 + 4 + 8 + 1);
/// assert_eq!(Span::get(&mut ByteReader::new(&bytes)).unwrap(), span);
/// ```
#[macro_export]
macro_rules! wire_struct {
    ($(#[$attr:meta])* $vis:vis fn $put:ident, $get:ident for $ty:ident {
        $($field:ident $(with $fput:ident, $fget:ident)?),+ $(,)?
    }) => {
        $(#[$attr])*
        $vis fn $put(w: &mut $crate::ByteWriter, v: &$ty) {
            $($crate::wire_struct!(@put w, &v.$field $(, $fput)?);)+
        }
        $(#[$attr])*
        $vis fn $get(r: &mut $crate::ByteReader) -> Result<$ty, $crate::StoreError> {
            Ok($ty { $($field: $crate::wire_struct!(@get r $(, $fget)?),)+ })
        }
    };
    ($ty:ident, $min:expr, { $($field:ident $(with $fput:ident, $fget:ident)?),+ $(,)? }) => {
        impl $crate::Wire for $ty {
            const MIN_BYTES: usize = $min;
            fn put(&self, w: &mut $crate::ByteWriter) {
                $($crate::wire_struct!(@put w, &self.$field $(, $fput)?);)+
            }
            fn get(r: &mut $crate::ByteReader) -> Result<Self, $crate::StoreError> {
                Ok($ty { $($field: $crate::wire_struct!(@get r $(, $fget)?),)+ })
            }
        }
    };
    (@put $w:ident, $v:expr) => { $crate::Wire::put($v, $w) };
    (@put $w:ident, $v:expr, $put:ident) => { $put($w, $v) };
    (@get $r:ident) => { $crate::Wire::get($r)? };
    (@get $r:ident, $get:ident) => { $get($r)? };
}

/// Writes an enum's tag table once. For an enum of the calling crate it
/// implements [`Wire`] (one byte); for a foreign enum, which the orphan
/// rule keeps from implementing it, it defines a private
/// `put(w, &value)` / `get(r)` pair of functions. An unknown tag is a
/// typed error naming the table: `unknown sampler tag 99`.
///
/// ```
/// # use gnnav_store::{wire_enum, ByteReader, ByteWriter, Wire};
/// #[derive(Debug, Clone, Copy, PartialEq)]
/// enum Dir { Up, Down }
/// wire_enum!(impl Wire for Dir as "direction" { Up = 0, Down = 1 });
///
/// let mut w = ByteWriter::new();
/// Dir::Down.put(&mut w);
/// let bytes = w.finish();
/// assert_eq!(bytes, [1]);
/// assert_eq!(Dir::get(&mut ByteReader::new(&bytes)).unwrap(), Dir::Down);
/// let err = Dir::get(&mut ByteReader::new(&[7])).unwrap_err();
/// assert!(err.to_string().contains("unknown direction tag 7"));
/// ```
#[macro_export]
macro_rules! wire_enum {
    (impl Wire for $ty:ident as $what:literal { $($variant:ident = $tag:literal),+ $(,)? }) => {
        impl $crate::Wire for $ty {
            const MIN_BYTES: usize = 1;
            fn put(&self, w: &mut $crate::ByteWriter) {
                $crate::wire_enum!(@put w, *self, $ty, $what, $($variant = $tag),+);
            }
            fn get(r: &mut $crate::ByteReader) -> Result<Self, $crate::StoreError> {
                $crate::wire_enum!(@get r, $ty, $what, $($variant = $tag),+)
            }
        }
    };
    (fn $put:ident, $get:ident for $ty:ident as $what:literal {
        $($variant:ident = $tag:literal),+ $(,)?
    }) => {
        fn $put(w: &mut $crate::ByteWriter, v: &$ty) {
            $crate::wire_enum!(@put w, *v, $ty, $what, $($variant = $tag),+);
        }
        fn $get(r: &mut $crate::ByteReader) -> Result<$ty, $crate::StoreError> {
            $crate::wire_enum!(@get r, $ty, $what, $($variant = $tag),+)
        }
    };
    (@put $w:ident, $v:expr, $ty:ident, $what:literal, $($variant:ident = $tag:literal),+) => {{
        let v = $v;
        #[allow(unreachable_patterns)] // a non-exhaustive enum from another crate
        let tag = match v {
            $($ty::$variant => $tag,)+
            _ => unreachable!("{v:?} needs a {} tag", $what),
        };
        $w.put_u8(tag)
    }};
    (@get $r:ident, $ty:ident, $what:literal, $($variant:ident = $tag:literal),+) => {
        match $r.get_u8()? {
            $($tag => Ok($ty::$variant),)+
            t => Err($crate::StoreError::decode(format!(concat!("unknown ", $what, " tag {}"), t))),
        }
    };
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
        vec![1.5f32, -2.25].put(&mut w);
        vec![10usize, 10].put(&mut w);
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.get_f32().unwrap().to_bits(), (-0.0f32).to_bits());
        assert_eq!(r.get_f64().unwrap(), f64::MIN_POSITIVE);
        assert_eq!(r.get_str().unwrap(), "hëllo");
        assert_eq!(Vec::<f32>::get(&mut r).unwrap(), vec![1.5, -2.25]);
        assert_eq!(Vec::<usize>::get(&mut r).unwrap(), vec![10, 10]);
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
