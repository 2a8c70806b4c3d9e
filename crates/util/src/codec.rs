//! Canonical portable binary wire format for control-plane messages.
//!
//! All fixed-width multi-byte integers are big-endian ("network order"); a
//! varint ([`Encoder::put_var`]) is LEB128, low seven bits first. Byte
//! strings and sequences are length-prefixed with a `u32`. The format is
//! deliberately simple and self-contained: the reproduction must not lean on
//! an external serialization framework for the parts of the system whose
//! *representation* is under study. It carries control messages, which the
//! paper sends through Ensemble, the MPI data envelope and the collectives'
//! frames; portable checkpoint images are written and read through it by an
//! arch layer (`starfish-checkpoint`'s `portable`) that swaps the bytes of a
//! little-endian machine's words.

use bytes::Bytes;

use crate::error::{Error, Result};

/// The longest varint [`Encoder::put_var`] writes: a `u64` in groups of seven bits.
pub const VAR_MAX_LEN: usize = 10;

/// Append-only encoder over a growable buffer.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    pub fn new() -> Self {
        Encoder { buf: Vec::new() }
    }

    pub fn with_capacity(cap: usize) -> Self {
        Encoder {
            buf: Vec::with_capacity(cap),
        }
    }

    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    #[inline]
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }
    #[inline]
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }
    #[inline]
    pub(crate) fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Write `v` as an unsigned LEB128 varint: seven bits per byte, low
    /// group first, the top bit set on every byte but the last. One byte
    /// below 128, at most [`VAR_MAX_LEN`] for any `u64`.
    #[inline]
    pub fn put_var(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// Write `v` zigzagged (0, -1, 1, -2, …) as a varint: a small value of
    /// either sign is one byte.
    #[inline]
    pub fn put_ivar(&mut self, v: i64) {
        self.put_var(((v << 1) ^ (v >> 63)) as u64);
    }

    /// Append `v` as it is, with no length prefix.
    pub fn put_raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    pub(crate) fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    pub fn into_bytes(self) -> Bytes {
        Bytes::from(self.buf)
    }

    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Cursor-based decoder over a byte slice. All reads are bounds-checked and
/// report [`Error::Codec`] on truncation.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// The next `n` bytes, uncopied.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        match self.rest().get(..n) {
            Some(s) => {
                self.pos += n;
                Ok(s)
            }
            None => Err(self.truncated(n)),
        }
    }

    /// The next `N` bytes, copied into an array.
    #[inline]
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N]> {
        match self.rest().first_chunk::<N>() {
            Some(a) => {
                self.pos += N;
                Ok(*a)
            }
            None => Err(self.truncated(N)),
        }
    }

    /// The bytes after the cursor.
    #[inline]
    fn rest(&self) -> &'a [u8] {
        self.buf.get(self.pos..).unwrap_or_default()
    }

    #[cold]
    fn truncated(&self, n: usize) -> Error {
        Error::codec(format!(
            "truncated: need {} bytes at offset {}, have {}",
            n,
            self.pos,
            self.remaining()
        ))
    }

    #[inline]
    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(u8::from_be_bytes(self.take_array()?))
    }
    #[inline]
    pub fn get_u16(&mut self) -> Result<u16> {
        Ok(u16::from_be_bytes(self.take_array()?))
    }
    #[inline]
    pub fn get_u32(&mut self) -> Result<u32> {
        Ok(u32::from_be_bytes(self.take_array()?))
    }
    #[inline]
    pub fn get_u64(&mut self) -> Result<u64> {
        Ok(u64::from_be_bytes(self.take_array()?))
    }
    #[inline]
    pub fn get_i64(&mut self) -> Result<i64> {
        Ok(i64::from_be_bytes(self.take_array()?))
    }
    #[inline]
    pub(crate) fn get_f64(&mut self) -> Result<f64> {
        Ok(f64::from_be_bytes(self.take_array()?))
    }

    /// Read a varint written by [`Encoder::put_var`]. A varint cut short,
    /// longer than [`VAR_MAX_LEN`] bytes or above `u64::MAX` is an error.
    #[inline]
    pub fn get_var(&mut self) -> Result<u64> {
        let mut v = 0u64;
        for i in 0..VAR_MAX_LEN {
            let b = self.get_u8()?;
            let group = u64::from(b & 0x7F);
            if i == VAR_MAX_LEN - 1 && group > 1 {
                return Err(Error::codec("varint overflows 64 bits"));
            }
            v |= group << (7 * i);
            if b < 0x80 {
                return Ok(v);
            }
        }
        Err(Error::codec(format!(
            "varint longer than {VAR_MAX_LEN} bytes"
        )))
    }

    /// Read a varint written by [`Encoder::put_ivar`].
    #[inline]
    pub fn get_ivar(&mut self) -> Result<i64> {
        let z = self.get_var()?;
        Ok((z >> 1) as i64 ^ -((z & 1) as i64))
    }

    /// Read a varint count of entries that take at least `min_entry` bytes
    /// each. A count the remaining bytes cannot hold is an error, so a
    /// count from the wire never sizes an allocation beyond them.
    pub fn get_len(&mut self, min_entry: usize) -> Result<usize> {
        let n = self.get_var()?;
        let fits = self.remaining() / min_entry.max(1);
        match usize::try_from(n) {
            Ok(n) if n <= fits => Ok(n),
            _ => Err(Error::codec(format!(
                "{n} entries of {min_entry}+ bytes in {} bytes",
                self.remaining()
            ))),
        }
    }

    pub(crate) fn get_bytes(&mut self) -> Result<Vec<u8>> {
        let n = self.get_u32()? as usize;
        Ok(self.take(n)?.to_vec())
    }

    pub fn get_str(&mut self) -> Result<String> {
        let b = self.get_bytes()?;
        String::from_utf8(b).map_err(|_| Error::codec("invalid utf-8 string"))
    }

    /// Bytes remaining after the cursor.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Check that every byte was consumed (catches forward-compat bugs).
    pub fn finish(&self) -> Result<()> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(Error::codec(format!(
                "{} trailing bytes after message",
                self.remaining()
            )))
        }
    }
}

/// Types that can be written in canonical wire form.
pub trait Encode {
    fn encode(&self, enc: &mut Encoder);

    /// Convenience: encode into a fresh buffer.
    fn encode_to_bytes(&self) -> Bytes {
        let mut enc = Encoder::new();
        self.encode(&mut enc);
        enc.into_bytes()
    }
}

/// Types that can be parsed from canonical wire form.
pub trait Decode: Sized {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self>;

    /// Convenience: decode a complete buffer, requiring full consumption.
    fn decode_from_bytes(buf: &[u8]) -> Result<Self> {
        let mut dec = Decoder::new(buf);
        let v = Self::decode(&mut dec)?;
        dec.finish()?;
        Ok(v)
    }
}

/// Test helper: encode then decode, requiring full consumption.
pub fn roundtrip<T: Encode + Decode>(v: &T) -> Result<T> {
    T::decode_from_bytes(&v.encode_to_bytes())
}

// ---- impls for primitives and std containers ------------------------------

macro_rules! prim_codec {
    ($ty:ty, $put:ident, $get:ident) => {
        impl Encode for $ty {
            #[inline]
            fn encode(&self, enc: &mut Encoder) {
                enc.$put(*self);
            }
        }
        impl Decode for $ty {
            #[inline]
            fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
                dec.$get()
            }
        }
    };
}

prim_codec!(u8, put_u8, get_u8);
prim_codec!(u16, put_u16, get_u16);
prim_codec!(u32, put_u32, get_u32);
prim_codec!(u64, put_u64, get_u64);
prim_codec!(i64, put_i64, get_i64);
prim_codec!(f64, put_f64, get_f64);

impl Encode for bool {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(*self as u8);
    }
}

impl Decode for bool {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        match dec.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(Error::codec(format!("invalid bool byte {v}"))),
        }
    }
}

impl Encode for String {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_str(self);
    }
}

impl Decode for String {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        dec.get_str()
    }
}

impl Encode for Bytes {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_bytes(self);
    }
}

impl Decode for Bytes {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(Bytes::from(dec.get_bytes()?))
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            None => enc.put_u8(0),
            Some(v) => {
                enc.put_u8(1);
                v.encode(enc);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        match dec.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(dec)?)),
            v => Err(Error::codec(format!("invalid option tag {v}"))),
        }
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u32(self.len() as u32);
        for v in self {
            v.encode(enc);
        }
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        let n = dec.get_u32()? as usize;
        // Guard against absurd lengths from corrupt input: each element
        // occupies at least one byte on the wire.
        if n > dec.remaining() {
            return Err(Error::codec(format!(
                "sequence length {n} exceeds remaining {} bytes",
                dec.remaining()
            )));
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::decode(dec)?);
        }
        Ok(out)
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, enc: &mut Encoder) {
        self.0.encode(enc);
        self.1.encode(enc);
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok((A::decode(dec)?, B::decode(dec)?))
    }
}

impl<A: Encode, B: Encode, C: Encode> Encode for (A, B, C) {
    fn encode(&self, enc: &mut Encoder) {
        self.0.encode(enc);
        self.1.encode(enc);
        self.2.encode(enc);
    }
}

impl<A: Decode, B: Decode, C: Decode> Decode for (A, B, C) {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok((A::decode(dec)?, B::decode(dec)?, C::decode(dec)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        assert_eq!(roundtrip(&0xAB_u8).unwrap(), 0xAB);
        assert_eq!(roundtrip(&0xBEEF_u16).unwrap(), 0xBEEF);
        assert_eq!(roundtrip(&0xDEADBEEF_u32).unwrap(), 0xDEADBEEF);
        assert_eq!(roundtrip(&u64::MAX).unwrap(), u64::MAX);
        assert_eq!(roundtrip(&(-42_i64)).unwrap(), -42);
        assert_eq!(roundtrip(&3.5_f64).unwrap(), 3.5);
        assert!(roundtrip(&true).unwrap());
        assert_eq!(roundtrip(&"héllo".to_string()).unwrap(), "héllo");
    }

    #[test]
    fn big_endian_on_the_wire() {
        let b = 0x0102_0304_u32.encode_to_bytes();
        assert_eq!(&b[..], &[1, 2, 3, 4]);
    }

    #[test]
    fn containers_roundtrip() {
        let v: Vec<u32> = vec![1, 2, 3];
        assert_eq!(roundtrip(&v).unwrap(), v);
        let o: Option<String> = Some("x".into());
        assert_eq!(roundtrip(&o).unwrap(), o);
        let n: Option<u64> = None;
        assert_eq!(roundtrip(&n).unwrap(), n);
        let t = (7u32, "s".to_string(), false);
        assert_eq!(roundtrip(&t).unwrap(), t);
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let bytes = 0xDEADBEEF_u32.encode_to_bytes();
        let r = u64::decode_from_bytes(&bytes);
        assert!(matches!(r, Err(Error::Codec(_))));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut enc = Encoder::new();
        enc.put_u8(1);
        enc.put_u8(2);
        let b = enc.into_bytes();
        assert!(u8::decode_from_bytes(&b).is_err());
    }

    #[test]
    fn absurd_sequence_length_rejected() {
        let mut enc = Encoder::new();
        enc.put_u32(u32::MAX); // claims 4 billion elements
        let b = enc.into_bytes();
        assert!(Vec::<u8>::decode_from_bytes(&b).is_err());
    }

    #[test]
    fn varints_roundtrip_at_every_group_boundary() {
        let mut values = vec![0, 1, u64::MAX];
        for bits in (7..64).step_by(7) {
            values.extend([(1u64 << bits) - 1, 1u64 << bits]);
        }
        for v in values {
            let mut enc = Encoder::new();
            enc.put_var(v);
            let b = enc.into_vec();
            let groups = (64 - v.leading_zeros() as usize).div_ceil(7).max(1);
            assert_eq!(b.len(), groups, "{v:#x}");
            let mut dec = Decoder::new(&b);
            assert_eq!(dec.get_var().unwrap(), v);
            assert_eq!(dec.remaining(), 0);
            // Every strict prefix is truncated.
            for cut in 0..b.len() {
                assert!(Decoder::new(&b[..cut]).get_var().is_err(), "{v:#x}/{cut}");
            }
        }
    }

    #[test]
    fn zigzag_varints_keep_small_values_of_either_sign_short() {
        for (v, len) in [(0, 1), (-1, 1), (63, 1), (-64, 1), (64, 2), (i64::MIN, 10)] {
            let mut enc = Encoder::new();
            enc.put_ivar(v);
            let b = enc.into_vec();
            assert_eq!(b.len(), len, "{v}");
            assert_eq!(Decoder::new(&b).get_ivar().unwrap(), v);
        }
        let mut enc = Encoder::new();
        enc.put_ivar(i64::MAX);
        assert_eq!(Decoder::new(&enc.into_vec()).get_ivar().unwrap(), i64::MAX);
    }

    #[test]
    fn a_count_the_remaining_bytes_cannot_hold_is_an_error() {
        let mut enc = Encoder::new();
        enc.put_var(3);
        enc.put_raw(&[0; 6]);
        let b = enc.into_vec();
        assert_eq!(Decoder::new(&b).get_len(2).unwrap(), 3);
        assert!(Decoder::new(&b).get_len(3).is_err());
        assert!(Decoder::new(&b[..6]).get_len(2).is_err());
        let mut enc = Encoder::new();
        enc.put_var(u64::MAX);
        assert!(Decoder::new(&enc.into_vec()).get_len(1).is_err());
    }

    #[test]
    fn overlong_or_overflowing_varints_rejected() {
        // Eleven bytes: longer than any u64 needs.
        let mut long = vec![0x80; VAR_MAX_LEN];
        long.push(0);
        assert!(Decoder::new(&long).get_var().is_err());
        // Ten bytes whose last group carries more than the 64th bit.
        let mut over = vec![0xFF; VAR_MAX_LEN - 1];
        over.push(0x02);
        assert!(Decoder::new(&over).get_var().is_err());
        over[VAR_MAX_LEN - 1] = 0x01;
        assert_eq!(Decoder::new(&over).get_var().unwrap(), u64::MAX);
    }

    #[test]
    fn invalid_enum_tags_rejected() {
        assert!(bool::decode_from_bytes(&[9]).is_err());
        assert!(Option::<u8>::decode_from_bytes(&[7]).is_err());
    }
}
