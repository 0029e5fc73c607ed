//! Virtual time for the discrete-event engine.
//!
//! The engine keeps time as an unsigned number of **nanoseconds** since the start of the
//! simulation. Nanosecond resolution is enough to express both the microsecond-scale costs the
//! paper measures (syscall interception, firewall rule evaluation) and the multi-thousand-second
//! BitTorrent experiments without losing precision, while staying exactly reproducible (no
//! floating-point accumulation).

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in virtual time, measured in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time, measured in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of virtual time (simulation start).
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable instant; used as "never".
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from raw nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Creates a time from microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros * 1_000)
    }

    /// Creates a time from milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000_000)
    }

    /// Creates a time from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000_000)
    }

    /// Creates a time from fractional seconds. Panics on negative or non-finite input.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid time: {secs}");
        SimTime((secs * 1e9).round() as u64)
    }

    /// Raw nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Time elapsed since `earlier`, saturating to zero if `earlier` is later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// A zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The longest representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from raw nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Creates a duration from microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * 1_000)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000_000)
    }

    /// Creates a duration from fractional seconds. Panics on negative or non-finite input.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid duration: {secs}");
        SimDuration((secs * 1e9).round() as u64)
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// True if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating addition.
    pub fn saturating_add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(other.0))
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiplies by a float factor, rounding to the nearest nanosecond.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "invalid factor: {factor}"
        );
        SimDuration((self.0 as f64 * factor).round() as u64)
    }

    /// The time needed to transfer `bytes` at `bits_per_sec`, rounded up to the next nanosecond.
    ///
    /// This is the serialization delay used throughout the network substrate (dummynet pipes,
    /// physical NIC model). A zero or absurd rate yields `SimDuration::MAX`.
    pub fn transmission(bytes: u64, bits_per_sec: u64) -> SimDuration {
        if bits_per_sec == 0 {
            return SimDuration::MAX;
        }
        // Every packet on every shaped pipe comes through here: a 64-bit division whenever
        // the bit-nanoseconds fit (anything under 2.3 GB), the 128-bit one (`__udivti3`)
        // only beyond.
        match bytes.checked_mul(8 * 1_000_000_000) {
            Some(bit_nanos) => SimDuration(bit_nanos.div_ceil(bits_per_sec)),
            None => {
                let bit_nanos = bytes as u128 * (8 * 1_000_000_000);
                let nanos = bit_nanos.div_ceil(bits_per_sec as u128);
                SimDuration(u64::try_from(nanos).unwrap_or(u64::MAX))
            }
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000 {
            write!(f, "{}ns", self.0)
        } else if self.0 < 1_000_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else if self.0 < 1_000_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(2), SimTime::from_millis(2_000));
        assert_eq!(SimTime::from_millis(3), SimTime::from_micros(3_000));
        assert_eq!(SimTime::from_micros(5), SimTime::from_nanos(5_000));
        assert_eq!(SimDuration::from_secs(1).as_nanos(), 1_000_000_000);
    }

    #[test]
    fn from_secs_f64_rounds() {
        assert_eq!(SimTime::from_secs_f64(1.5), SimTime::from_millis(1500));
        assert_eq!(
            SimDuration::from_secs_f64(0.25),
            SimDuration::from_millis(250)
        );
    }

    #[test]
    fn arithmetic_is_saturating() {
        let t = SimTime::from_secs(1);
        assert_eq!(t - SimDuration::from_secs(5), SimTime::ZERO);
        assert_eq!(SimTime::MAX + SimDuration::from_secs(1), SimTime::MAX);
        assert_eq!(
            SimDuration::from_secs(1) - SimDuration::from_secs(2),
            SimDuration::ZERO
        );
    }

    #[test]
    fn time_difference() {
        let a = SimTime::from_millis(100);
        let b = SimTime::from_millis(350);
        assert_eq!(b - a, SimDuration::from_millis(250));
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
    }

    #[test]
    fn transmission_delay() {
        // 1500 bytes at 1 Mbps = 12 ms.
        let d = SimDuration::transmission(1500, 1_000_000);
        assert_eq!(d, SimDuration::from_millis(12));
        // 16 KiB block at 128 kbps ~ 1.024 s.
        let d = SimDuration::transmission(16 * 1024, 128_000);
        assert!((d.as_secs_f64() - 1.024).abs() < 1e-6);
        assert_eq!(SimDuration::transmission(100, 0), SimDuration::MAX);
    }

    /// The 128-bit formula `transmission` is defined by, whichever width it computes in.
    fn transmission_u128(bytes: u64, bits_per_sec: u64) -> SimDuration {
        if bits_per_sec == 0 {
            return SimDuration::MAX;
        }
        let nanos = (bytes as u128 * 8 * 1_000_000_000).div_ceil(bits_per_sec as u128);
        SimDuration(u64::try_from(nanos).unwrap_or(u64::MAX))
    }

    #[test]
    fn transmission_edges_match_the_u128_formula() {
        // `fits` is the last byte count whose bit-nanoseconds fit in 64 bits.
        let fits = u64::MAX / 8_000_000_000;
        let (k, g, max) = (1500, 1_000_000_000, u64::MAX);
        let edges = [
            0,
            1,
            2,
            7,
            k,
            g,
            8 * g,
            fits - 1,
            fits,
            fits + 1,
            max - 1,
            max,
        ];
        for bytes in edges {
            for bps in edges {
                assert_eq!(
                    SimDuration::transmission(bytes, bps),
                    transmission_u128(bytes, bps),
                    "{bytes} bytes at {bps} bps"
                );
            }
        }
        assert_eq!(SimDuration::transmission(u64::MAX, 1), SimDuration::MAX);
    }

    proptest! {
        /// Magnitudes from one bit to 64 on both arguments, so both widths and the saturating
        /// case are drawn about equally often.
        #[test]
        fn transmission_matches_the_u128_formula(
            bytes in any::<u64>(),
            bytes_shift in 0u32..64,
            bps in any::<u64>(),
            bps_shift in 0u32..64,
        ) {
            let (bytes, bps) = (bytes >> bytes_shift, bps >> bps_shift);
            prop_assert_eq!(
                SimDuration::transmission(bytes, bps),
                transmission_u128(bytes, bps),
                "{bytes} bytes at {bps} bps"
            );
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimDuration::from_nanos(10)), "10ns");
        assert_eq!(format!("{}", SimDuration::from_micros(10)), "10.000us");
        assert_eq!(format!("{}", SimDuration::from_millis(10)), "10.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(10)), "10.000s");
    }

    #[test]
    fn mul_div() {
        assert_eq!(SimDuration::from_secs(2) * 3, SimDuration::from_secs(6));
        assert_eq!(SimDuration::from_secs(6) / 3, SimDuration::from_secs(2));
        assert_eq!(
            SimDuration::from_secs(1).mul_f64(0.5),
            SimDuration::from_millis(500)
        );
    }
}
