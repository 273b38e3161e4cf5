//! Simulation clock types.
//!
//! The simulator measures time in integer **microseconds** since simulation
//! start. Integer ticks make event ordering exact and runs bit-reproducible,
//! which the scheduler tests rely on. [`SimTime`] is a point on the timeline
//! and [`SimDuration`] is a span; the two are kept distinct so that, e.g.,
//! adding two deadlines is a type error.
//!
//! # Examples
//!
//! ```
//! use tetriserve_simulator::time::{SimDuration, SimTime};
//!
//! let start = SimTime::ZERO;
//! let step = SimDuration::from_millis(95);
//! let after_ten = start + step * 10;
//! assert_eq!(after_ten.as_secs_f64(), 0.95);
//! ```

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Number of microsecond ticks per second.
pub const TICKS_PER_SEC: u64 = 1_000_000;

/// A point in simulated time, in microseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of the simulation timeline.
    pub const ZERO: SimTime = SimTime(0);
    /// A time later than any reachable simulation time.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from raw microsecond ticks.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Creates a time from whole milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000)
    }

    /// Creates a time from fractional seconds, rounding to the nearest tick.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "SimTime::from_secs_f64 requires a finite non-negative value, got {secs}"
        );
        SimTime((secs * TICKS_PER_SEC as f64).round() as u64)
    }

    /// Raw microsecond ticks since simulation start.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// This time expressed in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / TICKS_PER_SEC as f64
    }

    /// The span from `earlier` to `self`.
    ///
    /// Returns [`SimDuration::ZERO`] when `earlier` is after `self`, so the
    /// result is always a valid (non-negative) duration.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The span from `earlier` to `self`.
    ///
    /// Returns `None` when `earlier` is after `self`.
    pub fn checked_since(self, earlier: SimTime) -> Option<SimDuration> {
        self.0.checked_sub(earlier.0).map(SimDuration)
    }

    /// Whether this time is at or past `deadline`.
    pub fn is_past(self, deadline: SimTime) -> bool {
        self > deadline
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// A span longer than any reachable simulation interval.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from raw microsecond ticks.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros)
    }

    /// Creates a duration from whole milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * TICKS_PER_SEC)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// tick.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "SimDuration::from_secs_f64 requires a finite non-negative value, got {secs}"
        );
        SimDuration((secs * TICKS_PER_SEC as f64).round() as u64)
    }

    /// Raw microsecond ticks.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// This span expressed in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / TICKS_PER_SEC as f64
    }

    /// This span expressed in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Whether the span is empty.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Subtraction clamped at zero.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// How many whole copies of `step` fit in this span.
    ///
    /// This is the `⌊τ / T⌋` operation from Algorithm 1 of the paper.
    /// Returns `u64::MAX` when `step` is zero (an instantaneous step fits
    /// arbitrarily many times).
    pub fn div_floor(self, step: SimDuration) -> u64 {
        self.0.checked_div(step.0).unwrap_or(u64::MAX)
    }

    /// Multiplies by a floating-point factor, rounding to the nearest tick
    /// (halves away from zero, as `f64::round`), saturating at
    /// [`SimDuration::MAX`].
    ///
    /// The engine prices every jittered step through here, so it rounds
    /// without `f64::round`, a library call on targets without a rounding
    /// instruction. Below 2⁵² a product's fractional part is exact, so
    /// truncating and comparing that part with one half gives `round`'s
    /// answer; from 2⁵² up every `f64` is already an integer and the cast
    /// saturates as before.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "SimDuration::mul_f64 requires a finite non-negative factor, got {factor}"
        );
        /// 2⁵²: the least `f64` whose neighbours are all integers.
        const INTEGRAL_FROM: f64 = 4_503_599_627_370_496.0;
        let product = self.0 as f64 * factor;
        if product < INTEGRAL_FROM {
            // `product` is non-negative (or -0.0) here, so the cast
            // truncates it to its floor exactly.
            let whole = product as i64;
            let half_or_more = product - whole as f64 >= 0.5;
            SimDuration(whole as u64 + u64::from(half_or_more))
        } else {
            SimDuration(product as u64)
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
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimDuration subtraction underflow; use saturating_sub"),
        )
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

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |acc, d| acc + d)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000 {
            write!(f, "{}µs", self.0)
        } else if self.0 < TICKS_PER_SEC {
            write!(f, "{:.2}ms", self.as_millis_f64())
        } else {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_round_trips_through_seconds() {
        let t = SimTime::from_secs_f64(1.5);
        assert_eq!(t.as_micros(), 1_500_000);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn duration_round_trips_through_seconds() {
        let d = SimDuration::from_secs_f64(0.0321);
        assert_eq!(d.as_micros(), 32_100);
        assert!((d.as_millis_f64() - 32.1).abs() < 1e-9);
    }

    #[test]
    fn add_duration_to_time() {
        let t = SimTime::from_millis(100) + SimDuration::from_millis(50);
        assert_eq!(t, SimTime::from_millis(150));
    }

    #[test]
    fn saturating_since_clamps_at_zero() {
        let a = SimTime::from_millis(10);
        let b = SimTime::from_millis(20);
        assert_eq!(b.saturating_since(a), SimDuration::from_millis(10));
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
    }

    #[test]
    fn checked_since_detects_order() {
        let a = SimTime::from_millis(10);
        let b = SimTime::from_millis(20);
        assert_eq!(b.checked_since(a), Some(SimDuration::from_millis(10)));
        assert_eq!(a.checked_since(b), None);
    }

    #[test]
    fn div_floor_matches_algorithm_one() {
        // q = ⌊τ / T⌋ from Algorithm 1.
        let tau = SimDuration::from_millis(500);
        let step = SimDuration::from_millis(95);
        assert_eq!(tau.div_floor(step), 5);
        assert_eq!(tau.div_floor(SimDuration::ZERO), u64::MAX);
    }

    #[test]
    fn mul_and_div_scale_durations() {
        let d = SimDuration::from_millis(10);
        assert_eq!(d * 3, SimDuration::from_millis(30));
        assert_eq!(d / 2, SimDuration::from_millis(5));
        assert_eq!(d.mul_f64(1.5), SimDuration::from_millis(15));
    }

    /// `mul_f64` as it was written with `f64::round`: the reference its
    /// truncate-and-compare rounding must match bit for bit.
    fn mul_f64_rounding_reference(d: SimDuration, factor: f64) -> SimDuration {
        SimDuration((d.0 as f64 * factor).round() as u64)
    }

    #[test]
    fn mul_f64_rounds_as_f64_round_at_the_edges() {
        let two52 = 1u64 << 52;
        let two53 = 1u64 << 53;
        let mut ticks = vec![0, 1, 2, 3, 7, 1_000_001, u64::MAX, u64::MAX - 1];
        for edge in [two52, two53, 1 << 63] {
            ticks.extend([edge - 2, edge - 1, edge, edge + 1, edge + 2]);
        }
        let mut factors = vec![
            0.0,
            -0.0,
            0.5,
            1.0,
            1.5,
            2.5,
            0.499_999_999_999_999_94,
            0.500_000_000_000_000_1,
            1.0 + f64::EPSILON,
            1.0 - f64::EPSILON / 2.0,
            2.0,
            4_096.0,
            1e10,
            f64::MAX,
        ];
        // Products straddling 2⁵² and 2⁵³ from a one-tick duration.
        for edge in [two52, two53] {
            let e = edge as f64;
            factors.extend([e - 1.5, e - 1.0, e - 0.5, e, e + 1.0, e + 2.0]);
        }
        for &t in &ticks {
            for &f in &factors {
                let d = SimDuration(t);
                assert_eq!(
                    d.mul_f64(f),
                    mul_f64_rounding_reference(d, f),
                    "{t} µs × {f:e}"
                );
            }
        }
        // Ties at k + 0.5 round up, as `f64::round` does.
        for k in [0u64, 1, 2, 1_000, two52 / 2 - 1] {
            let d = SimDuration(2 * k + 1);
            assert_eq!(d.mul_f64(0.5), SimDuration(k + 1), "({} / 2)", 2 * k + 1);
            assert_eq!(mul_f64_rounding_reference(d, 0.5), SimDuration(k + 1));
        }
        // Saturation: past `u64::MAX` both give `SimDuration::MAX`.
        assert_eq!(SimDuration(u64::MAX).mul_f64(2.0), SimDuration::MAX);
        assert_eq!(SimDuration(1).mul_f64(f64::MAX), SimDuration::MAX);
        assert_eq!(SimDuration(7).mul_f64(-0.0), SimDuration::ZERO);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4000))]

        /// Random durations × factors give `f64::round`'s tick: jitter-
        /// and slowdown-sized factors on step-sized durations; factors of
        /// every binade from 2⁻⁶⁴ to 2⁶³ on durations of every width, so
        /// products fall on both sides of 2⁵² and 2⁵³ and past
        /// `u64::MAX`; and any finite non-negative bit pattern.
        #[test]
        fn prop_mul_f64_matches_the_rounding_reference(
            step_us in 0u64..10_000_000,
            jitter in 0.0f64..8.0,
            ticks in proptest::prelude::any::<u64>(),
            shift in 0u32..64,
            mantissa in proptest::prelude::any::<u64>(),
            binade in -64i32..64,
            bits in proptest::prelude::any::<u64>(),
        ) {
            let d = SimDuration(step_us);
            proptest::prop_assert_eq!(d.mul_f64(jitter), mul_f64_rounding_reference(d, jitter));
            let d = SimDuration(ticks >> shift);
            let exponent = u64::from((1023 + binade).unsigned_abs());
            let factor = f64::from_bits(exponent << 52 | mantissa >> 12);
            proptest::prop_assert_eq!(d.mul_f64(factor), mul_f64_rounding_reference(d, factor));
            let any = f64::from_bits(bits >> 1);
            if any.is_finite() {
                proptest::prop_assert_eq!(d.mul_f64(any), mul_f64_rounding_reference(d, any));
            }
        }
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_millis).sum();
        assert_eq!(total, SimDuration::from_millis(10));
    }

    #[test]
    fn display_picks_reasonable_units() {
        assert_eq!(SimDuration::from_micros(12).to_string(), "12µs");
        assert_eq!(SimDuration::from_millis(12).to_string(), "12.00ms");
        assert_eq!(SimDuration::from_secs(2).to_string(), "2.000s");
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn duration_sub_underflow_panics() {
        let _ = SimDuration::from_millis(1) - SimDuration::from_millis(2);
    }

    #[test]
    fn is_past_is_strict() {
        let d = SimTime::from_millis(5);
        assert!(!d.is_past(d));
        assert!((d + SimDuration::from_micros(1)).is_past(d));
    }
}
