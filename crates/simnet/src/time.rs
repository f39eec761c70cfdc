//! Virtual time for the discrete-event simulation.
//!
//! All simulated clocks in the workspace are expressed in [`Nanos`] — an
//! integer count of nanoseconds since simulation start. Integer nanoseconds
//! keep the simulation exactly deterministic (no floating-point drift) while
//! being fine-grained enough to express sub-microsecond RDMA costs from the
//! paper (e.g. the 2.6 µs SoC DMA read, §4.1.1).

// A cost-model funnel: a bare truncating cast here corrupts virtual time,
// so conversions saturate (`Nanos::from_f64_saturating`, checked ops).
#![cfg_attr(
    not(test),
    deny(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_possible_wrap)
)]

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in (or span of) virtual time, in nanoseconds.
///
/// `Nanos` is deliberately a thin newtype: it is `Copy`, ordered, and
/// supports saturating arithmetic so cost-model code can never wrap.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nanos(pub u64);

impl Nanos {
    /// The zero instant (simulation start).
    pub const ZERO: Nanos = Nanos(0);
    /// The far future; used as an "inactive timer" sentinel.
    pub const MAX: Nanos = Nanos(u64::MAX);

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        Nanos(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        Nanos(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Nanos(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Nanos(s * 1_000_000_000)
    }

    /// Raw nanosecond count.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Value in microseconds (lossy).
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Value in milliseconds (lossy).
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Value in seconds (lossy).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Saturating addition; `MAX` is absorbing so timer sentinels stay put.
    #[inline]
    pub fn saturating_add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction (clamps at zero).
    #[inline]
    pub fn saturating_sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(rhs.0))
    }

    /// Scale a span by an integer factor.
    #[inline]
    pub fn saturating_mul(self, factor: u64) -> Nanos {
        Nanos(self.0.saturating_mul(factor))
    }

    /// Convert a floating-point nanosecond count to [`Nanos`] with
    /// explicit, platform-independent semantics: NaN and negative values
    /// (time cannot run backwards) clamp to [`Nanos::ZERO`]; values at or
    /// beyond the `u64` range saturate to [`Nanos::MAX`]. Every f64→ns
    /// conversion in the workspace funnels through here, so cost models
    /// fed degenerate parameters degrade to a deterministic clamp instead
    /// of whatever the platform's float-to-int cast produces.
    #[inline]
    pub fn from_f64_saturating(ns: f64) -> Nanos {
        // Ordered comparisons are false for NaN, so NaN falls through both
        // guards into the zero arm.
        if ns >= u64::MAX as f64 {
            Nanos::MAX
        } else if ns > 0.0 {
            #[expect(
                clippy::cast_possible_truncation,
                clippy::cast_sign_loss,
                reason = "this IS the saturating funnel: the range checks above guard the cast"
            )]
            let ns = ns as u64;
            Nanos(ns)
        } else {
            Nanos::ZERO
        }
    }

    /// Scale a span by a floating-point factor, rounding to the nearest
    /// nanosecond. Used by cost models (e.g. the DPU wimpy-core
    /// multiplier). NaN/negative factors clamp to zero and oversized
    /// products saturate, per [`Nanos::from_f64_saturating`].
    #[inline]
    pub fn scale(self, factor: f64) -> Nanos {
        Nanos::from_f64_saturating((self.0 as f64 * factor).round())
    }

    /// `max(self, other)`.
    #[inline]
    pub fn max(self, other: Nanos) -> Nanos {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// `min(self, other)`.
    #[inline]
    pub fn min(self, other: Nanos) -> Nanos {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// True if this is the zero span.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for Nanos {
    type Output = Nanos;
    #[inline]
    fn add(self, rhs: Nanos) -> Nanos {
        self.saturating_add(rhs)
    }
}

impl AddAssign for Nanos {
    #[inline]
    fn add_assign(&mut self, rhs: Nanos) {
        *self = *self + rhs;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    #[inline]
    fn sub(self, rhs: Nanos) -> Nanos {
        self.saturating_sub(rhs)
    }
}

impl SubAssign for Nanos {
    #[inline]
    fn sub_assign(&mut self, rhs: Nanos) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Nanos {
    type Output = Nanos;
    #[inline]
    fn mul(self, rhs: u64) -> Nanos {
        self.saturating_mul(rhs)
    }
}

impl Div<u64> for Nanos {
    type Output = Nanos;
    #[inline]
    fn div(self, rhs: u64) -> Nanos {
        Nanos(self.0 / rhs)
    }
}

impl Sum for Nanos {
    fn sum<I: Iterator<Item = Nanos>>(iter: I) -> Nanos {
        iter.fold(Nanos::ZERO, Add::add)
    }
}

impl fmt::Debug for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns == u64::MAX {
            write!(f, "∞")
        } else if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if ns >= 1_000 {
            write!(f, "{:.3}µs", self.as_micros_f64())
        } else {
            write!(f, "{}ns", ns)
        }
    }
}

/// A per-byte cost slope in fixed-point Q32.32 nanoseconds per byte.
///
/// The cost models charge `per_msg + bytes × slope` on every simulated
/// packet/message; doing that multiply in `f64` (as the seed did) put an
/// int→float→round→int round trip on the hottest paths (`TcpCosts::rx/tx`,
/// the RNIC per-byte DMA charge). `ByteCost` precomputes the slope once as
/// a Q32.32 integer so the per-call work is one widening multiply, an add
/// and a shift — no floating point, same round-half-up convention as
/// `f64::round` for non-negative values.
///
/// Quantization: slopes that are dyadic rationals (0.25, 0.5, 0.0625…) are
/// represented *exactly* and reproduce the f64 math bit-for-bit. Other
/// slopes (0.06, 0.35) are quantized to the nearest 2⁻³² ns/byte —
/// a relative error under 10⁻⁹, which can flip a result only when the true
/// product sits within that distance of a .5 boundary.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ByteCost {
    /// ns/byte in Q32.32.
    mul: u64,
}

impl ByteCost {
    /// A zero slope (per-byte cost disabled).
    pub const ZERO: ByteCost = ByteCost { mul: 0 };

    /// Build from a floating-point ns/byte slope (done once, at cost-table
    /// construction). NaN/negative slopes clamp to [`ByteCost::ZERO`] and
    /// slopes too large for Q32.32 saturate, mirroring
    /// [`Nanos::from_f64_saturating`]'s conversion contract.
    pub fn per_byte_ns(ns: f64) -> ByteCost {
        let q = (ns * (1u64 << 32) as f64).round();
        ByteCost {
            mul: Nanos::from_f64_saturating(q).0,
        }
    }

    /// Integer-ns cost of `bytes`: `round(bytes × slope)`, computed with a
    /// widening multiply. The `u128` product cannot overflow for any
    /// `bytes` × any Q32.32 slope; the final narrowing to integer
    /// nanoseconds *saturates* — a byte count large enough to exceed
    /// `u64::MAX` ns charges [`Nanos::MAX`] instead of silently wrapping
    /// to a near-zero cost (which would let an absurd transfer finish in
    /// no simulated time).
    #[inline]
    pub fn cost(self, bytes: u64) -> Nanos {
        let q = ((bytes as u128 * self.mul as u128) + (1u128 << 31)) >> 32;
        #[expect(
            clippy::cast_possible_truncation,
            reason = "the min() on the same expression clamps the narrowing"
        )]
        let ns = q.min(u64::MAX as u128) as u64;
        Nanos(ns)
    }
}

/// Transmission (serialization) time of `bytes` over a link of `gbps`
/// gigabits per second, rounded up to a whole nanosecond.
///
/// `wire_time(1_000_000, 200.0)` ≈ 40 µs: the time 1 MB occupies a 200 Gbps
/// port (the paper's testbed fabric speed). A non-positive/NaN rate is a
/// configuration error (asserted in debug builds); the conversion itself
/// is total — huge byte counts over slow links saturate to [`Nanos::MAX`]
/// instead of wrapping (see [`Nanos::from_f64_saturating`]).
#[inline]
pub fn wire_time(bytes: u64, gbps: f64) -> Nanos {
    debug_assert!(gbps > 0.0, "link rate must be positive");
    // bits / (gigabits/s) = nanoseconds.
    let ns = (bytes as f64 * 8.0) / gbps;
    Nanos::from_f64_saturating(ns.ceil())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_conversions() {
        assert_eq!(Nanos::from_micros(3).as_nanos(), 3_000);
        assert_eq!(Nanos::from_millis(2).as_nanos(), 2_000_000);
        assert_eq!(Nanos::from_secs(1).as_nanos(), 1_000_000_000);
        assert_eq!(Nanos::from_secs(1).as_millis_f64(), 1_000.0);
        assert_eq!(Nanos::from_micros(1500).as_millis_f64(), 1.5);
    }

    #[test]
    fn arithmetic_saturates() {
        assert_eq!(Nanos::MAX + Nanos(1), Nanos::MAX);
        assert_eq!(Nanos(5) - Nanos(10), Nanos::ZERO);
        assert_eq!(Nanos::MAX.saturating_mul(2), Nanos::MAX);
    }

    #[test]
    fn scaling() {
        // Wimpy-core multiplier: 1 µs of x86 work takes 2.2 µs on the DPU.
        assert_eq!(Nanos::from_micros(1).scale(2.2), Nanos(2_200));
        assert_eq!(Nanos(1000).scale(0.5), Nanos(500));
        assert_eq!(Nanos(3).scale(0.4), Nanos(1)); // rounds to nearest
    }

    #[test]
    fn min_max() {
        assert_eq!(Nanos(3).max(Nanos(7)), Nanos(7));
        assert_eq!(Nanos(3).min(Nanos(7)), Nanos(3));
    }

    #[test]
    fn wire_time_200gbps() {
        // 8 KB over 200 Gbps = 8192*8/200 = 327.68 ns -> 328 ns.
        assert_eq!(wire_time(8192, 200.0), Nanos(328));
        // 64 B over 200 Gbps = 2.56 ns -> 3 ns.
        assert_eq!(wire_time(64, 200.0), Nanos(3));
        // Zero bytes cost nothing.
        assert_eq!(wire_time(0, 200.0), Nanos(0));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Nanos(12)), "12ns");
        assert_eq!(format!("{}", Nanos(12_345)), "12.345µs");
        assert_eq!(format!("{}", Nanos(12_345_678)), "12.346ms");
        assert_eq!(format!("{}", Nanos::from_secs(2)), "2.000s");
        assert_eq!(format!("{}", Nanos::MAX), "∞");
    }

    #[test]
    fn sum_of_spans() {
        let total: Nanos = [Nanos(1), Nanos(2), Nanos(3)].into_iter().sum();
        assert_eq!(total, Nanos(6));
    }

    #[test]
    fn byte_cost_matches_f64_for_dyadic_slopes() {
        // 0.25 ns/B is exactly representable in both f64 and Q32.32: the
        // fixed-point path must be bit-identical to the seed's f64 math
        // over the whole byte range the stacks see.
        let c = ByteCost::per_byte_ns(0.25);
        for bytes in (0u64..=100_000).step_by(7) {
            assert_eq!(
                c.cost(bytes),
                Nanos((bytes as f64 * 0.25).round() as u64),
                "bytes={bytes}"
            );
        }
    }

    #[test]
    fn byte_cost_tracks_f64_for_decimal_slopes() {
        // 0.06 / 0.35 are not dyadic; fixed-point quantizes the slope to
        // the nearest 2^-32. Any divergence from the f64 product is at
        // most 1 ns and only at a .5 rounding boundary.
        for slope in [0.06f64, 0.35] {
            let c = ByteCost::per_byte_ns(slope);
            for bytes in 0u64..=65_536 {
                let f = (bytes as f64 * slope).round() as u64;
                let q = c.cost(bytes).as_nanos();
                assert!(
                    q.abs_diff(f) <= 1,
                    "slope {slope} bytes {bytes}: fixed {q} vs f64 {f}"
                );
            }
        }
    }

    #[test]
    fn byte_cost_zero() {
        assert_eq!(ByteCost::ZERO.cost(1_000_000), Nanos::ZERO);
        assert_eq!(ByteCost::per_byte_ns(0.0).cost(64), Nanos::ZERO);
    }

    #[test]
    fn byte_cost_saturates_at_the_overflow_boundary() {
        // Slope 2 ns/B (mul = 2^33): the charged nanoseconds are 2×bytes,
        // which exceeds u64 exactly at bytes = 2^63. Below the boundary
        // the exact product must come back; at and above it the cost must
        // saturate to Nanos::MAX — the pre-fix `as u64` truncation charged
        // ~0 ns here, letting enormous transfers finish instantly.
        let c = ByteCost::per_byte_ns(2.0);
        assert_eq!(c.cost((1 << 62) - 1), Nanos((1 << 63) - 2));
        assert_eq!(c.cost((1u64 << 63) - 1), Nanos(u64::MAX - 1));
        assert_eq!(c.cost(1u64 << 63), Nanos::MAX, "first overflowing input");
        assert_eq!(c.cost(u64::MAX), Nanos::MAX);
        // Slope 1: u64::MAX bytes lands exactly on u64::MAX ns (no wrap).
        assert_eq!(ByteCost::per_byte_ns(1.0).cost(u64::MAX), Nanos::MAX);
    }

    #[test]
    fn byte_cost_slope_construction_is_total() {
        assert_eq!(ByteCost::per_byte_ns(f64::NAN), ByteCost::ZERO);
        assert_eq!(ByteCost::per_byte_ns(-3.5), ByteCost::ZERO);
        let sat = ByteCost::per_byte_ns(f64::INFINITY);
        assert_eq!(sat.cost(0), Nanos::ZERO);
        assert_eq!(sat.cost(u64::MAX), Nanos::MAX);
    }

    #[test]
    fn f64_conversion_is_explicit_about_degenerate_inputs() {
        assert_eq!(Nanos::from_f64_saturating(f64::NAN), Nanos::ZERO);
        assert_eq!(Nanos::from_f64_saturating(-1.0), Nanos::ZERO);
        assert_eq!(Nanos::from_f64_saturating(-0.0), Nanos::ZERO);
        assert_eq!(Nanos::from_f64_saturating(f64::NEG_INFINITY), Nanos::ZERO);
        assert_eq!(Nanos::from_f64_saturating(f64::INFINITY), Nanos::MAX);
        assert_eq!(Nanos::from_f64_saturating(1e300), Nanos::MAX);
        // u64::MAX as f64 rounds up to 2^64, which does not fit: saturate.
        assert_eq!(Nanos::from_f64_saturating(u64::MAX as f64), Nanos::MAX);
        assert_eq!(Nanos::from_f64_saturating(42.0), Nanos(42));
    }

    #[test]
    fn scale_and_rate_conversions_saturate() {
        // scale: NaN/negative factors clamp, oversized products saturate.
        assert_eq!(Nanos(100).scale(f64::NAN), Nanos::ZERO);
        assert_eq!(Nanos(100).scale(-2.0), Nanos::ZERO);
        assert_eq!(Nanos::MAX.scale(2.0), Nanos::MAX);
        // A year of nanoseconds over a 1 bit/s-ish link must clamp, not
        // wrap.
        assert_eq!(wire_time(u64::MAX, 1e-9), Nanos::MAX);
    }
}
