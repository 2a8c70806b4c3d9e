//! Virtual time.
//!
//! The reproduction runs real threads over an in-memory fabric, but *measures*
//! protocol time on a deterministic virtual timeline calibrated to the paper's
//! 1999 hardware (300 MHz Pentium-II, Myrinet/BIP, Fast Ethernet, IDE disks).
//!
//! Every actor (application process, daemon) owns a [`VClock`].
//! Local costs advance the clock; a message carries the sender's virtual
//! departure time plus wire latency, and the receiver *max-merges* it into its
//! own clock. Because `max` is commutative and associative, any protocol whose
//! communication pattern is deterministic yields a deterministic virtual
//! elapsed time regardless of OS thread scheduling — which is exactly what the
//! figure-reproduction harness needs.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

use crate::codec::{Decode, Decoder, Encode, Encoder};
use crate::error::Result;

/// A point (or span) on the virtual timeline, in nanoseconds.
///
/// `VirtualTime` doubles as an instant and a duration, like a plain number of
/// nanoseconds; the arithmetic is saturating on subtraction so clock skew
/// bugs degrade gracefully instead of panicking in release builds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtualTime(pub u64);

impl VirtualTime {
    pub const ZERO: VirtualTime = VirtualTime(0);

    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        VirtualTime(ns)
    }
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        VirtualTime(us * 1_000)
    }
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        VirtualTime(ms * 1_000_000)
    }
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        VirtualTime(s * 1_000_000_000)
    }
    /// Fractional seconds (used by calibration code); rounds to nanoseconds.
    #[inline]
    pub(crate) fn from_secs_f64(s: f64) -> Self {
        VirtualTime((s * 1e9).round().max(0.0) as u64)
    }

    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    #[inline]
    pub fn max_of(a: VirtualTime, b: VirtualTime) -> VirtualTime {
        if a >= b {
            a
        } else {
            b
        }
    }

    /// Time to move `bytes` at `bytes_per_sec` (pure bandwidth term).
    pub fn transfer(bytes: u64, bytes_per_sec: f64) -> VirtualTime {
        if bytes_per_sec <= 0.0 {
            return VirtualTime::ZERO;
        }
        VirtualTime::from_secs_f64(bytes as f64 / bytes_per_sec)
    }

    /// Saturating difference, `self - earlier`.
    #[inline]
    pub fn since(self, earlier: VirtualTime) -> VirtualTime {
        VirtualTime(self.0.saturating_sub(earlier.0))
    }
}

impl fmt::Debug for VirtualTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.6}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

impl fmt::Display for VirtualTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl Add for VirtualTime {
    type Output = VirtualTime;
    #[inline]
    fn add(self, rhs: VirtualTime) -> VirtualTime {
        VirtualTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for VirtualTime {
    #[inline]
    fn add_assign(&mut self, rhs: VirtualTime) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for VirtualTime {
    type Output = VirtualTime;
    #[inline]
    fn sub(self, rhs: VirtualTime) -> VirtualTime {
        VirtualTime(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for VirtualTime {
    type Output = VirtualTime;
    #[inline]
    fn mul(self, rhs: u64) -> VirtualTime {
        VirtualTime(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for VirtualTime {
    type Output = VirtualTime;
    #[inline]
    fn div(self, rhs: u64) -> VirtualTime {
        VirtualTime(self.0 / rhs.max(1))
    }
}

impl Sum for VirtualTime {
    fn sum<I: Iterator<Item = VirtualTime>>(iter: I) -> VirtualTime {
        iter.fold(VirtualTime::ZERO, Add::add)
    }
}

impl Encode for VirtualTime {
    fn encode(&self, enc: &mut Encoder) {
        self.0.encode(enc);
    }
}

impl Decode for VirtualTime {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(VirtualTime(u64::decode(dec)?))
    }
}

/// A per-actor logical clock on the virtual timeline.
///
/// Not shared between threads: each actor owns its clock and merges incoming
/// timestamps explicitly. (Sharing would re-introduce scheduling
/// nondeterminism into the measurements.)
#[derive(Debug, Clone, Default)]
pub struct VClock {
    now: VirtualTime,
}

impl VClock {
    pub fn new() -> Self {
        VClock {
            now: VirtualTime::ZERO,
        }
    }

    pub fn starting_at(t: VirtualTime) -> Self {
        VClock { now: t }
    }

    /// Current virtual instant.
    #[inline]
    pub fn now(&self) -> VirtualTime {
        self.now
    }

    /// Spend `cost` of local virtual time (CPU work, disk write, layer
    /// traversal...). Returns the new instant.
    #[inline]
    pub fn advance(&mut self, cost: VirtualTime) -> VirtualTime {
        self.now += cost;
        self.now
    }

    /// Merge an externally observed instant (e.g. a message's arrival time):
    /// the clock jumps forward if the event is in its future, and is
    /// unaffected otherwise. Returns the new instant.
    #[inline]
    pub fn merge(&mut self, observed: VirtualTime) -> VirtualTime {
        if observed > self.now {
            self.now = observed;
        }
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_conversion() {
        assert_eq!(VirtualTime::from_micros(86).as_nanos(), 86_000);
        assert_eq!(VirtualTime::from_millis(3).as_micros_f64(), 3_000.0);
        assert!((VirtualTime::from_secs_f64(0.104061).as_secs_f64() - 0.104061).abs() < 1e-9);
    }

    #[test]
    fn transfer_models_bandwidth() {
        // 1 MB at 10 MB/s = 0.1 s.
        let t = VirtualTime::transfer(1_000_000, 10e6);
        assert!((t.as_secs_f64() - 0.1).abs() < 1e-9);
        assert_eq!(VirtualTime::transfer(5, 0.0), VirtualTime::ZERO);
    }

    #[test]
    fn arithmetic_saturates() {
        let a = VirtualTime(5);
        let b = VirtualTime(9);
        assert_eq!(a - b, VirtualTime::ZERO);
        assert_eq!(b - a, VirtualTime(4));
        assert_eq!(b.since(a), VirtualTime(4));
    }

    #[test]
    fn clock_advance_and_merge() {
        let mut c = VClock::new();
        c.advance(VirtualTime::from_micros(10));
        assert_eq!(c.now(), VirtualTime::from_micros(10));
        // Merging a past instant does nothing.
        c.merge(VirtualTime::from_micros(5));
        assert_eq!(c.now(), VirtualTime::from_micros(10));
        // Merging a future instant jumps forward.
        c.merge(VirtualTime::from_micros(50));
        assert_eq!(c.now(), VirtualTime::from_micros(50));
    }

    #[test]
    fn merge_is_commutative_in_effect() {
        let times = [VirtualTime(5), VirtualTime(100), VirtualTime(42)];
        let mut a = VClock::new();
        let mut b = VClock::new();
        for t in times {
            a.merge(t);
        }
        for t in times.iter().rev() {
            b.merge(*t);
        }
        assert_eq!(a.now(), b.now());
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(format!("{}", VirtualTime::from_nanos(7)), "7ns");
        assert_eq!(format!("{}", VirtualTime::from_micros(86)), "86.000us");
        assert_eq!(format!("{}", VirtualTime::from_millis(12)), "12.000ms");
        assert_eq!(format!("{}", VirtualTime::from_secs(2)), "2.000000s");
    }
}
