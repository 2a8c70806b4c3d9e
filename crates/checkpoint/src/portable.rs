//! The heterogeneous (VM-level) checkpoint codec.
//!
//! The design follows the paper's §4 and its companion TR \[2\]: "in order
//! not to hurt the performance of heterogeneous checkpointing, data is saved
//! in the machine's native representation, with a concise indication of what
//! that representation is. During restart, the checkpointed data is
//! converted to the machine in which the application is restarted."
//!
//! Concretely:
//!
//! * the **header** is architecture-independent (fixed big-endian) and names
//!   the saving machine's representation ([`Arch`]);
//! * the **body** is written with the saving machine's byte order and word
//!   length — saving is a plain memory walk, no conversion;
//! * **restore** reads the header and converts: byte-swaps if endianness
//!   differs, widens/narrows machine words if the word length differs.
//!   Narrowing fails with [`Error::Checkpoint`] if a value does not fit the
//!   destination word — the failure mode real heterogeneous C/R must detect.

use starfish_util::{Error, Result};

use crate::arch::{Arch, Endianness};
use crate::value::CkptValue;

const MAGIC: u32 = 0x5346_564D; // "SFVM"
const VERSION: u8 = 1;

const T_UNIT: u8 = 0;
const T_BOOL: u8 = 1;
const T_INT: u8 = 2;
const T_FLOAT: u8 = 3;
const T_STR: u8 = 4;
const T_BYTES: u8 = 5;
const T_INT_ARR: u8 = 6;
const T_FLOAT_ARR: u8 = 7;
const T_LIST: u8 = 8;
const T_RECORD: u8 = 9;
const T_ZEROS: u8 = 10;

/// What restore had to do to the image (reported to EXPERIMENTS.md tables
/// and charged as conversion time by the runtime).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConversionReport {
    /// Endianness differed: every multi-byte scalar was byte-swapped.
    pub byte_swapped: bool,
    /// Words were widened 32→64.
    pub word_widened: bool,
    /// Words were narrowed 64→32 (each value range-checked).
    pub word_narrowed: bool,
    /// Number of scalar values that required conversion work.
    pub values_converted: u64,
    /// Total body bytes processed.
    pub body_bytes: u64,
}

impl ConversionReport {
    pub fn identical(&self) -> bool {
        !self.byte_swapped && !self.word_widened && !self.word_narrowed
    }
}

// ---- native-representation writer -----------------------------------------

struct NativeWriter {
    arch: Arch,
    buf: Vec<u8>,
}

impl NativeWriter {
    fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn put_u32_native(&mut self, v: u32) {
        match self.arch.endian {
            Endianness::Little => self.buf.extend_from_slice(&v.to_le_bytes()),
            Endianness::Big => self.buf.extend_from_slice(&v.to_be_bytes()),
        }
    }

    fn put_u64_native(&mut self, v: u64) {
        match self.arch.endian {
            Endianness::Little => self.buf.extend_from_slice(&v.to_le_bytes()),
            Endianness::Big => self.buf.extend_from_slice(&v.to_be_bytes()),
        }
    }

    /// A machine word: 4 or 8 bytes depending on the saving arch. Errors if
    /// the value cannot be represented on the saving machine at all.
    fn put_word_signed(&mut self, v: i64) -> Result<()> {
        if self.arch.word_bits == 32 {
            let narrowed = i32::try_from(v).map_err(|_| {
                Error::checkpoint(format!(
                    "value {v} does not fit the saving machine's 32-bit word"
                ))
            })?;
            self.put_u32_native(narrowed as u32);
        } else {
            self.put_u64_native(v as u64);
        }
        Ok(())
    }

    /// An unsigned word used for lengths.
    fn put_word_len(&mut self, v: u64) -> Result<()> {
        if self.arch.word_bits == 32 {
            let narrowed = u32::try_from(v)
                .map_err(|_| Error::checkpoint(format!("length {v} exceeds 32-bit word")))?;
            self.put_u32_native(narrowed);
        } else {
            self.put_u64_native(v);
        }
        Ok(())
    }

    fn put_f64_native(&mut self, v: f64) {
        self.put_u64_native(v.to_bits());
    }

    fn put_value(&mut self, v: &CkptValue) -> Result<()> {
        match v {
            CkptValue::Unit => self.put_u8(T_UNIT),
            CkptValue::Bool(b) => {
                self.put_u8(T_BOOL);
                self.put_u8(*b as u8);
            }
            CkptValue::Int(i) => {
                self.put_u8(T_INT);
                self.put_word_signed(*i)?;
            }
            CkptValue::Float(f) => {
                self.put_u8(T_FLOAT);
                self.put_f64_native(*f);
            }
            CkptValue::Str(s) => {
                self.put_u8(T_STR);
                self.put_word_len(s.len() as u64)?;
                self.buf.extend_from_slice(s.as_bytes());
            }
            CkptValue::Bytes(b) => {
                self.put_u8(T_BYTES);
                self.put_word_len(b.len() as u64)?;
                self.buf.extend_from_slice(b);
            }
            CkptValue::IntArray(xs) => {
                self.put_u8(T_INT_ARR);
                self.put_word_len(xs.len() as u64)?;
                for x in xs {
                    self.put_word_signed(*x)?;
                }
            }
            CkptValue::FloatArray(xs) => {
                self.put_u8(T_FLOAT_ARR);
                self.put_word_len(xs.len() as u64)?;
                for x in xs {
                    self.put_f64_native(*x);
                }
            }
            CkptValue::List(vs) => {
                self.put_u8(T_LIST);
                self.put_word_len(vs.len() as u64)?;
                for v in vs {
                    self.put_value(v)?;
                }
            }
            CkptValue::Record(fs) => {
                self.put_u8(T_RECORD);
                self.put_word_len(fs.len() as u64)?;
                for (k, v) in fs {
                    self.put_word_len(k.len() as u64)?;
                    self.buf.extend_from_slice(k.as_bytes());
                    self.put_value(v)?;
                }
            }
            CkptValue::Zeros(n) => {
                self.put_u8(T_ZEROS);
                // Always 8 bytes: region sizes can exceed a 32-bit word even
                // on 32-bit machines (file-backed regions).
                self.put_u64_native(*n);
            }
        }
        Ok(())
    }
}

// ---- converting reader -----------------------------------------------------

struct ConvertingReader<'a> {
    src: Arch,
    dst: Arch,
    buf: &'a [u8],
    pos: usize,
    report: ConversionReport,
}

impl<'a> ConvertingReader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(Error::checkpoint(format!(
                "truncated image: need {n} bytes at {}",
                self.pos
            )));
        }
        #[expect(clippy::indexing_slicing, reason = "checked just above")]
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    #[expect(clippy::indexing_slicing, reason = "`take(1)` returned one byte")]
    fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn get_u32_src(&mut self) -> Result<u32> {
        #[expect(clippy::unwrap_used, reason = "`take(4)` returned four bytes")]
        let b: [u8; 4] = self.take(4)?.try_into().unwrap();
        Ok(match self.src.endian {
            Endianness::Little => u32::from_le_bytes(b),
            Endianness::Big => u32::from_be_bytes(b),
        })
    }

    fn get_u64_src(&mut self) -> Result<u64> {
        #[expect(clippy::unwrap_used, reason = "`take(8)` returned eight bytes")]
        let b: [u8; 8] = self.take(8)?.try_into().unwrap();
        Ok(match self.src.endian {
            Endianness::Little => u64::from_le_bytes(b),
            Endianness::Big => u64::from_be_bytes(b),
        })
    }

    fn note_scalar(&mut self) {
        if !self.report.identical() {
            self.report.values_converted += 1;
        }
    }

    /// Read a machine word of the *source* arch as a signed value and check
    /// it fits the *destination* word.
    fn get_word_signed(&mut self) -> Result<i64> {
        let v = if self.src.word_bits == 32 {
            self.get_u32_src()? as i32 as i64
        } else {
            self.get_u64_src()? as i64
        };
        if self.dst.word_bits == 32 && i32::try_from(v).is_err() {
            return Err(Error::checkpoint(format!(
                "value {v} from a {}-bit image does not fit the destination's 32-bit word",
                self.src.word_bits
            )));
        }
        self.note_scalar();
        Ok(v)
    }

    fn get_word_len(&mut self) -> Result<u64> {
        let v = if self.src.word_bits == 32 {
            self.get_u32_src()? as u64
        } else {
            self.get_u64_src()?
        };
        self.note_scalar();
        Ok(v)
    }

    fn get_f64(&mut self) -> Result<f64> {
        let bits = self.get_u64_src()?;
        self.note_scalar();
        Ok(f64::from_bits(bits))
    }

    fn get_value(&mut self) -> Result<CkptValue> {
        Ok(match self.get_u8()? {
            T_UNIT => CkptValue::Unit,
            T_BOOL => CkptValue::Bool(match self.get_u8()? {
                0 => false,
                1 => true,
                b => return Err(Error::checkpoint(format!("bad bool byte {b}"))),
            }),
            T_INT => CkptValue::Int(self.get_word_signed()?),
            T_FLOAT => CkptValue::Float(self.get_f64()?),
            T_STR => {
                let n = self.get_word_len()? as usize;
                let raw = self.take(n)?.to_vec();
                CkptValue::Str(
                    String::from_utf8(raw)
                        .map_err(|_| Error::checkpoint("invalid utf-8 in image"))?,
                )
            }
            T_BYTES => {
                let n = self.get_word_len()? as usize;
                CkptValue::Bytes(self.take(n)?.to_vec())
            }
            T_INT_ARR => {
                let n = self.get_word_len()? as usize;
                if n > self.buf.len() - self.pos {
                    return Err(Error::checkpoint("array length exceeds image"));
                }
                let mut xs = Vec::with_capacity(n);
                for _ in 0..n {
                    xs.push(self.get_word_signed()?);
                }
                CkptValue::IntArray(xs)
            }
            T_FLOAT_ARR => {
                let n = self.get_word_len()? as usize;
                if n.saturating_mul(8) > self.buf.len() - self.pos {
                    return Err(Error::checkpoint("array length exceeds image"));
                }
                let mut xs = Vec::with_capacity(n);
                for _ in 0..n {
                    xs.push(self.get_f64()?);
                }
                CkptValue::FloatArray(xs)
            }
            T_LIST => {
                let n = self.get_word_len()? as usize;
                if n > self.buf.len() - self.pos {
                    return Err(Error::checkpoint("list length exceeds image"));
                }
                let mut vs = Vec::with_capacity(n);
                for _ in 0..n {
                    vs.push(self.get_value()?);
                }
                CkptValue::List(vs)
            }
            T_RECORD => {
                let n = self.get_word_len()? as usize;
                if n > self.buf.len() - self.pos {
                    return Err(Error::checkpoint("record length exceeds image"));
                }
                let mut fs = Vec::with_capacity(n);
                for _ in 0..n {
                    let klen = self.get_word_len()? as usize;
                    let k = String::from_utf8(self.take(klen)?.to_vec())
                        .map_err(|_| Error::checkpoint("invalid utf-8 field name"))?;
                    fs.push((k, self.get_value()?));
                }
                CkptValue::Record(fs)
            }
            T_ZEROS => CkptValue::Zeros(self.get_u64_src()?),
            t => return Err(Error::checkpoint(format!("unknown value tag {t}"))),
        })
    }
}

// ---- public API -------------------------------------------------------------

/// Serialize `value` in the native representation of `arch`, prefixed by the
/// architecture-independent header.
pub fn encode_portable(value: &CkptValue, arch: Arch) -> Result<Vec<u8>> {
    let mut w = NativeWriter {
        arch,
        buf: Vec::with_capacity(256),
    };
    // Header (always big-endian / fixed layout so any machine can read it).
    w.buf.extend_from_slice(&MAGIC.to_be_bytes());
    w.buf.push(VERSION);
    w.buf.push(match arch.endian {
        Endianness::Little => 0,
        Endianness::Big => 1,
    });
    w.buf.push(arch.word_bits);
    w.put_value(value)?;
    Ok(w.buf)
}

/// Read the representation header of an image without decoding the body.
#[expect(clippy::indexing_slicing, reason = "the 7-byte header is checked")]
#[expect(clippy::unwrap_used, reason = "the 7-byte header is checked")]
pub fn peek_arch(img: &[u8]) -> Result<Arch> {
    if img.len() < 7 {
        return Err(Error::checkpoint("image too short for header"));
    }
    let magic = u32::from_be_bytes(img[0..4].try_into().unwrap());
    if magic != MAGIC {
        return Err(Error::checkpoint("bad image magic"));
    }
    if img[4] != VERSION {
        return Err(Error::checkpoint(format!("unsupported version {}", img[4])));
    }
    let endian = match img[5] {
        0 => Endianness::Little,
        1 => Endianness::Big,
        b => return Err(Error::checkpoint(format!("bad endianness byte {b}"))),
    };
    let word_bits = img[6];
    if word_bits != 32 && word_bits != 64 {
        return Err(Error::checkpoint(format!("bad word bits {word_bits}")));
    }
    Ok(Arch::new("image", "image", endian, word_bits))
}

/// Decode an image on a machine of architecture `dst`, converting the
/// representation as needed.
pub fn decode_portable(img: &[u8], dst: Arch) -> Result<(CkptValue, ConversionReport)> {
    let src = peek_arch(img)?;
    let mut r = ConvertingReader {
        src,
        dst,
        buf: img,
        pos: 7,
        report: ConversionReport {
            byte_swapped: src.endian != dst.endian,
            word_widened: src.word_bits < dst.word_bits,
            word_narrowed: src.word_bits > dst.word_bits,
            values_converted: 0,
            body_bytes: (img.len() - 7) as u64,
        },
    };
    let v = r.get_value()?;
    if r.pos != r.buf.len() {
        return Err(Error::checkpoint(format!(
            "{} trailing bytes in image",
            r.buf.len() - r.pos
        )));
    }
    Ok((v, r.report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::MACHINES;

    fn sample() -> CkptValue {
        CkptValue::record(vec![
            ("step", CkptValue::Int(12345)),
            ("pi", CkptValue::Float(std::f64::consts::PI)),
            ("name", CkptValue::Str("jacobi".into())),
            ("flags", CkptValue::Bool(true)),
            ("grid", CkptValue::FloatArray(vec![0.5, -1.25, 1e300])),
            ("idx", CkptValue::IntArray(vec![-1, 0, 2_000_000_000])),
            (
                "nested",
                CkptValue::List(vec![CkptValue::Unit, CkptValue::Bytes(vec![1, 2, 3])]),
            ),
            ("heap", CkptValue::Zeros(1 << 20)),
        ])
    }

    #[test]
    fn same_arch_roundtrip_no_conversion() {
        for arch in MACHINES {
            let img = encode_portable(&sample(), arch).unwrap();
            let (v, rep) = decode_portable(&img, arch).unwrap();
            assert_eq!(v, sample());
            assert!(rep.identical(), "no conversion on {arch}");
            assert_eq!(rep.values_converted, 0);
        }
    }

    /// The Table 2 experiment: every ordered pair of machines can exchange
    /// checkpoints (as long as values fit the destination word).
    #[test]
    fn all_36_arch_pairs_roundtrip() {
        for src in MACHINES {
            let img = encode_portable(&sample(), src).unwrap();
            for dst in MACHINES {
                let (v, rep) = decode_portable(&img, dst).unwrap();
                assert_eq!(v, sample(), "{src} -> {dst}");
                assert_eq!(rep.byte_swapped, src.endian != dst.endian);
            }
        }
    }

    #[test]
    fn endianness_actually_differs_on_the_wire() {
        let le = encode_portable(&CkptValue::Int(0x01020304), MACHINES[0]).unwrap();
        let be = encode_portable(&CkptValue::Int(0x01020304), MACHINES[1]).unwrap();
        assert_ne!(le, be, "LE and BE bodies must differ");
        // Headers differ only in the endianness byte.
        assert_eq!(le[0..5], be[0..5]);
    }

    #[test]
    fn word_narrowing_fails_when_value_too_big() {
        let alpha = MACHINES[5]; // 64-bit
        let i686 = MACHINES[0]; // 32-bit
        let img = encode_portable(&CkptValue::Int(1 << 40), alpha).unwrap();
        let err = decode_portable(&img, i686).unwrap_err();
        assert!(matches!(err, Error::Checkpoint(_)));
        // But a fitting value narrows fine.
        let img = encode_portable(&CkptValue::Int(-5), alpha).unwrap();
        let (v, rep) = decode_portable(&img, i686).unwrap();
        assert_eq!(v, CkptValue::Int(-5));
        assert!(rep.word_narrowed);
        assert!(rep.values_converted > 0);
    }

    #[test]
    fn saving_oversized_int_on_32bit_machine_fails() {
        let err = encode_portable(&CkptValue::Int(1 << 40), MACHINES[0]).unwrap_err();
        assert!(matches!(err, Error::Checkpoint(_)));
    }

    #[test]
    fn corrupt_images_rejected() {
        assert!(decode_portable(b"shrt", MACHINES[0]).is_err());
        let mut img = encode_portable(&sample(), MACHINES[0]).unwrap();
        img[0] ^= 0xFF; // break magic
        assert!(decode_portable(&img, MACHINES[0]).is_err());
        let mut img = encode_portable(&sample(), MACHINES[0]).unwrap();
        img.truncate(img.len() - 3);
        assert!(decode_portable(&img, MACHINES[0]).is_err());
        let mut img = encode_portable(&sample(), MACHINES[0]).unwrap();
        img.push(0);
        assert!(decode_portable(&img, MACHINES[0]).is_err());
    }

    #[test]
    fn peek_arch_reads_header_only() {
        let img = encode_portable(&CkptValue::Unit, MACHINES[1]).unwrap();
        let a = peek_arch(&img).unwrap();
        assert_eq!(a.endian, Endianness::Big);
        assert_eq!(a.word_bits, 32);
    }

    #[test]
    fn negative_ints_survive_all_conversions() {
        for src in MACHINES {
            let img =
                encode_portable(&CkptValue::IntArray(vec![-1, i32::MIN as i64]), src).unwrap();
            for dst in MACHINES {
                let (v, _) = decode_portable(&img, dst).unwrap();
                assert_eq!(v, CkptValue::IntArray(vec![-1, i32::MIN as i64]));
            }
        }
    }

    #[test]
    fn floats_bit_exact_across_endianness() {
        let vals = vec![0.0, -0.0, f64::INFINITY, f64::MIN_POSITIVE, 1e-300];
        let img = encode_portable(&CkptValue::FloatArray(vals.clone()), MACHINES[1]).unwrap();
        let (v, rep) = decode_portable(&img, MACHINES[0]).unwrap();
        assert!(rep.byte_swapped);
        match v {
            CkptValue::FloatArray(xs) => {
                for (a, b) in xs.iter().zip(&vals) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
            _ => panic!("wrong shape"),
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::arch::MACHINES;
    use proptest::prelude::*;

    fn arb_value() -> impl Strategy<Value = CkptValue> {
        let leaf = prop_oneof![
            Just(CkptValue::Unit),
            any::<bool>().prop_map(CkptValue::Bool),
            // Stay within i32 so every arch can save/restore.
            (i32::MIN..=i32::MAX).prop_map(|v| CkptValue::Int(v as i64)),
            any::<f64>().prop_map(CkptValue::Float),
            ".{0,12}".prop_map(CkptValue::Str),
            proptest::collection::vec(any::<u8>(), 0..32).prop_map(CkptValue::Bytes),
            proptest::collection::vec(i32::MIN..=i32::MAX, 0..8)
                .prop_map(|v| CkptValue::IntArray(v.into_iter().map(|x| x as i64).collect())),
            (0u64..1 << 30).prop_map(CkptValue::Zeros),
        ];
        leaf.prop_recursive(3, 24, 4, |inner| {
            prop_oneof![
                proptest::collection::vec(inner.clone(), 0..4).prop_map(CkptValue::List),
                proptest::collection::vec(("[a-z]{1,6}", inner), 0..4)
                    .prop_map(|fs| { CkptValue::Record(fs) }),
            ]
        })
    }

    fn values_equal_mod_nan(a: &CkptValue, b: &CkptValue) -> bool {
        match (a, b) {
            (CkptValue::Float(x), CkptValue::Float(y)) => x.to_bits() == y.to_bits(),
            (CkptValue::FloatArray(xs), CkptValue::FloatArray(ys)) => {
                xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| x.to_bits() == y.to_bits())
            }
            (CkptValue::List(xs), CkptValue::List(ys)) => {
                xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| values_equal_mod_nan(x, y))
            }
            (CkptValue::Record(xs), CkptValue::Record(ys)) => {
                xs.len() == ys.len()
                    && xs
                        .iter()
                        .zip(ys)
                        .all(|((ka, va), (kb, vb))| ka == kb && values_equal_mod_nan(va, vb))
            }
            _ => a == b,
        }
    }

    proptest! {
        /// Portable round-trip through any pair of Table 2 machines
        /// preserves values exactly (bit-exact for floats).
        #[test]
        fn portable_roundtrip_any_pair(
            v in arb_value(),
            src_i in 0usize..6,
            dst_i in 0usize..6,
        ) {
            let src = MACHINES[src_i];
            let dst = MACHINES[dst_i];
            let img = encode_portable(&v, src).unwrap();
            let (got, _) = decode_portable(&img, dst).unwrap();
            prop_assert!(values_equal_mod_nan(&got, &v));
        }

        /// Decoding never panics on arbitrary garbage.
        #[test]
        fn decode_never_panics(data in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = decode_portable(&data, MACHINES[0]);
        }
    }
}
