//! Machine architecture descriptors (paper Table 2).
//!
//! Heterogeneous checkpointing must bridge differences in *data
//! representation* (byte order) and *word length* (paper §4). Each simulated
//! node is assigned an [`Arch`]; a VM-level image records the arch it was
//! saved on, and restore converts. A native image refuses to restore on any
//! arch but its own.

use std::fmt;

use starfish_util::codec::{Decode, Decoder, Encode, Encoder};
use starfish_util::{Error, Result};

/// Byte order of a machine's data representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Endianness {
    Little,
    Big,
}

impl Endianness {
    pub fn name(self) -> &'static str {
        match self {
            Endianness::Little => "little-endian",
            Endianness::Big => "big-endian",
        }
    }
}

/// One machine type: the tuple the paper's Table 2 lists per tested host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Arch {
    /// Architecture/CPU description, e.g. `"Intel P-II 350 MHz, i686"`.
    pub cpu: &'static str,
    /// Operating system, e.g. `"RedHat 6.1 Linux"`.
    pub os: &'static str,
    pub endian: Endianness,
    /// Machine word length in bits: 32 or 64.
    pub word_bits: u8,
}

impl Arch {
    pub(crate) const fn new(
        cpu: &'static str,
        os: &'static str,
        endian: Endianness,
        word_bits: u8,
    ) -> Self {
        Arch {
            cpu,
            os,
            endian,
            word_bits,
        }
    }

    /// Native representations identical? (Then no conversion is needed and
    /// even a native image can restore.)
    #[cfg(test)]
    fn same_representation(&self, other: &Arch) -> bool {
        self.endian == other.endian && self.word_bits == other.word_bits
    }

    /// Stable index into [`MACHINES`] if this is one of the Table 2 hosts.
    pub(crate) fn table2_index(&self) -> Option<usize> {
        MACHINES.iter().position(|m| m == self)
    }
}

impl fmt::Display for Arch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} / {} ({}, {}-bit)",
            self.cpu,
            self.os,
            self.endian.name(),
            self.word_bits
        )
    }
}

/// The six machine types of the paper's Table 2, in table order.
pub const MACHINES: [Arch; 6] = [
    Arch::new(
        "Intel P-II 350 MHz, i686",
        "RedHat 6.1 Linux",
        Endianness::Little,
        32,
    ),
    Arch::new(
        "Sun Ultra Enterprise 3000",
        "SunOS 5.7",
        Endianness::Big,
        32,
    ),
    Arch::new("RS/6000", "AIX 3.2", Endianness::Big, 32),
    Arch::new("Intel P-I, 160 MHz", "FreeBSD 3.2", Endianness::Little, 32),
    Arch::new("Intel P-II, 350 MHz", "Win NT", Endianness::Little, 32),
    Arch::new(
        "Dual Alpha DS20 500 MHz",
        "RedHat 6.2 Linux",
        Endianness::Little,
        64,
    ),
];

/// The default architecture for nodes that do not specify one (the paper's
/// measurement testbed: 300 MHz Pentium-II Linux boxes).
pub const DEFAULT_ARCH: Arch = MACHINES[0];

impl Encode for Arch {
    fn encode(&self, enc: &mut Encoder) {
        // Encoded by Table 2 index when possible, else by raw fields.
        match self.table2_index() {
            Some(i) => {
                enc.put_u8(1);
                enc.put_u8(i as u8);
            }
            None => {
                enc.put_u8(0);
                enc.put_u8(match self.endian {
                    Endianness::Little => 0,
                    Endianness::Big => 1,
                });
                enc.put_u8(self.word_bits);
            }
        }
    }
}

impl Decode for Arch {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        match dec.get_u8()? {
            1 => {
                let i = dec.get_u8()? as usize;
                MACHINES
                    .get(i)
                    .copied()
                    .ok_or_else(|| Error::codec(format!("bad arch index {i}")))
            }
            0 => {
                let endian = match dec.get_u8()? {
                    0 => Endianness::Little,
                    1 => Endianness::Big,
                    b => return Err(Error::codec(format!("bad endianness byte {b}"))),
                };
                let word_bits = dec.get_u8()?;
                if word_bits != 32 && word_bits != 64 {
                    return Err(Error::codec(format!("bad word bits {word_bits}")));
                }
                Ok(Arch::new("custom", "custom", endian, word_bits))
            }
            t => Err(Error::codec(format!("bad arch tag {t}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starfish_util::codec::roundtrip;

    #[test]
    fn table2_has_six_machines_with_expected_mix() {
        assert_eq!(MACHINES.len(), 6);
        let big = MACHINES
            .iter()
            .filter(|m| m.endian == Endianness::Big)
            .count();
        assert_eq!(big, 2, "SunOS and AIX are big-endian");
        let w64 = MACHINES.iter().filter(|m| m.word_bits == 64).count();
        assert_eq!(w64, 1, "only the Alpha is 64-bit");
    }

    #[test]
    fn representation_comparison() {
        let linux = MACHINES[0];
        let nt = MACHINES[4];
        let sun = MACHINES[1];
        let alpha = MACHINES[5];
        assert!(linux.same_representation(&nt)); // both LE 32
        assert!(!linux.same_representation(&sun)); // endianness differs
        assert!(!linux.same_representation(&alpha)); // word length differs
    }

    #[test]
    fn codec_roundtrip_table2_and_custom() {
        for m in MACHINES {
            assert_eq!(roundtrip(&m).unwrap(), m);
        }
        let custom = Arch::new("custom", "custom", Endianness::Big, 64);
        let got = roundtrip(&custom).unwrap();
        assert_eq!(got.endian, Endianness::Big);
        assert_eq!(got.word_bits, 64);
    }

    #[test]
    fn display_mentions_endianness_and_width() {
        let s = format!("{}", MACHINES[1]);
        assert!(s.contains("big-endian"));
        assert!(s.contains("32-bit"));
    }
}
