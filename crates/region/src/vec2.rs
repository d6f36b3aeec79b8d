//! Planar points and vectors in kilometre coordinates.

use octant_geo::projection::PlanePoint;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A 2-D point or vector in the local projection plane, in kilometres.
///
/// This is the coordinate type all region geometry is expressed in. It is
/// interconvertible with [`octant_geo::projection::PlanePoint`], which is the
/// type the projections in `octant-geo` produce.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Vec2 {
    /// East-ish coordinate, kilometres.
    pub x: f64,
    /// North-ish coordinate, kilometres.
    pub y: f64,
}

impl Vec2 {
    /// The origin.
    pub const ZERO: Vec2 = Vec2 { x: 0.0, y: 0.0 };

    /// Creates a vector from components.
    pub fn new(x: f64, y: f64) -> Self {
        Vec2 { x, y }
    }

    /// Dot product.
    pub fn dot(self, other: Vec2) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// 2-D cross product (z component of the 3-D cross product).
    pub fn cross(self, other: Vec2) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Euclidean length.
    pub fn length(self) -> f64 {
        self.x.hypot(self.y)
    }

    /// Squared Euclidean length.
    pub fn length_squared(self) -> f64 {
        self.x * self.x + self.y * self.y
    }

    /// Distance to another point.
    pub fn distance(self, other: Vec2) -> f64 {
        (self - other).length()
    }

    /// Squared distance to another point.
    pub fn distance_squared(self, other: Vec2) -> f64 {
        (self - other).length_squared()
    }

    /// Unit vector in the same direction, or zero for the zero vector.
    pub fn normalized(self) -> Vec2 {
        let len = self.length();
        if len < 1e-15 {
            Vec2::ZERO
        } else {
            self / len
        }
    }

    /// The vector rotated 90° counter-clockwise.
    pub fn perp(self) -> Vec2 {
        Vec2::new(-self.y, self.x)
    }

    /// Linear interpolation: `self` at `t = 0`, `other` at `t = 1`.
    pub fn lerp(self, other: Vec2, t: f64) -> Vec2 {
        self + (other - self) * t
    }

    /// Component-wise minimum.
    pub fn min(self, other: Vec2) -> Vec2 {
        Vec2::new(self.x.min(other.x), self.y.min(other.y))
    }

    /// Component-wise maximum.
    pub fn max(self, other: Vec2) -> Vec2 {
        Vec2::new(self.x.max(other.x), self.y.max(other.y))
    }

    /// `true` when both components are finite.
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }

    /// Distance from this point to the segment `[a, b]`.
    pub fn distance_to_segment(self, a: Vec2, b: Vec2) -> f64 {
        self.offset_from_segment(a, b).length()
    }

    /// The vector from the point of the segment `[a, b]` nearest to this
    /// point to this point: its length is
    /// [`Vec2::distance_to_segment`], bit for bit.
    pub(crate) fn offset_from_segment(self, a: Vec2, b: Vec2) -> Vec2 {
        let ab = b - a;
        let len2 = ab.length_squared();
        if len2 < 1e-18 {
            return self - a;
        }
        let t = ((self - a).dot(ab) / len2).clamp(0.0, 1.0);
        self - (a + ab * t)
    }
}

/// The relative gap by which a squared length must clear a squared
/// threshold for [`order_from_squares`] to decide between them.
const SQUARED_MARGIN: f64 = 1e-9;

/// Orders a length against a threshold from their squares alone, or `None`
/// when the squares are too close to tell.
///
/// `value_sq` is the square of a non-negative value, normally a length
/// computed as `x * x + y * y` ([`Vec2::length_squared`]); `threshold_sq`
/// is the square of a non-negative threshold, or a product of a few such
/// squares. The answer is `Some(Less)` when `value_sq` lies below
/// `threshold_sq` by more than the relative margin of 10⁻⁹ and
/// `Some(Greater)` when it lies above it by more. A decided answer holds
/// for the caller's comparison of the unsquared values, `<` and `<=` alike,
/// and on `None` the caller evaluates that comparison itself, by the
/// `f64::hypot` expression ([`Vec2::length`]) the answer stands in for.
///
/// Why a decided answer is the hypot expression's answer: `f64::hypot` is
/// within 1 ulp of the true length, and the squared sum within about 2
/// ulps of the true square (two products and a sum, each rounded once),
/// as are `t * t` and the margin products. Each such error is near 10⁻¹⁶
/// relative, seven orders of magnitude under the margin, so squares that
/// are 10⁻⁹ apart belong to true lengths about 5·10⁻¹⁰ apart, and hypot
/// lands on the same side of the threshold. Underflow is the one place
/// where the squared sum has an absolute rather than a relative error:
/// the square of a component below about 10⁻¹⁵⁴ km rounds to a subnormal
/// or to zero. That error, under 2⁻¹⁰⁷⁴, is far below the margin of any
/// normal `threshold_sq`, so decisions are only taken for a normal, finite
/// `threshold_sq` (a threshold between about 10⁻¹⁵⁴ and 10¹⁵⁴ km). A zero,
/// subnormal, infinite or NaN `threshold_sq` and a NaN `value_sq` always
/// return `None`. An infinite `value_sq` (a component above about 10¹⁵⁴
/// km) decides `Greater`, which is right for every threshold whose margin
/// product stays finite.
///
/// The region engine runs every distance-against-a-threshold test of its
/// construction paths through here: Bézier flatness, [`crate::Ring::new`]'s
/// duplicate-vertex test, [`crate::Ring::simplified`]'s tolerance tests
/// and the sweep's zero-length-segment and collinearity tests. `hypot`
/// costs about ten times a squared sum, and there are one or two such
/// tests per vertex of every disk, ring and sweep.
pub(crate) fn order_from_squares(value_sq: f64, threshold_sq: f64) -> Option<Ordering> {
    if !(f64::MIN_POSITIVE..f64::INFINITY).contains(&threshold_sq) {
        None
    } else if value_sq < threshold_sq * (1.0 - SQUARED_MARGIN) {
        Some(Ordering::Less)
    } else if value_sq > threshold_sq * (1.0 + SQUARED_MARGIN) {
        Some(Ordering::Greater)
    } else {
        None
    }
}

impl From<PlanePoint> for Vec2 {
    fn from(p: PlanePoint) -> Self {
        Vec2::new(p.x, p.y)
    }
}

impl From<Vec2> for PlanePoint {
    fn from(v: Vec2) -> Self {
        PlanePoint::new(v.x, v.y)
    }
}

impl Add for Vec2 {
    type Output = Vec2;
    fn add(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign for Vec2 {
    fn add_assign(&mut self, rhs: Vec2) {
        *self = *self + rhs;
    }
}

impl Sub for Vec2 {
    type Output = Vec2;
    fn sub(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl SubAssign for Vec2 {
    fn sub_assign(&mut self, rhs: Vec2) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for Vec2 {
    type Output = Vec2;
    fn mul(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x * rhs, self.y * rhs)
    }
}

impl Div<f64> for Vec2 {
    type Output = Vec2;
    fn div(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x / rhs, self.y / rhs)
    }
}

impl Neg for Vec2 {
    type Output = Vec2;
    fn neg(self) -> Vec2 {
        Vec2::new(-self.x, -self.y)
    }
}

impl fmt::Display for Vec2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3}, {:.3})", self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The thresholds the region engine tests lengths against: ring
    /// cleaning and zero-length segments (10⁻¹²), exact collinearity
    /// (10⁻⁹), the least flattening tolerance (10⁻⁶), the solver's
    /// simplification tolerance and its ×4 escalations (0.25 to 16 km),
    /// the default flattening tolerance (1 km) and the largest tolerances a
    /// disk's flattening picks (10⁻⁴ of a 20,000 km radius).
    const THRESHOLDS: [f64; 9] = [1e-12, 1e-9, 1e-6, 0.25, 1.0, 4.0, 16.0, 64.0, 2.0];

    /// Asserts that every form callers build on [`order_from_squares`]
    /// (`<`, `<=` and `>` against the threshold) agrees with the hypot
    /// form, and returns whether the squares decided. The threshold is
    /// squared as `Ring::simplified` squares its caller's tolerance, with a
    /// negative or NaN one taken as zero.
    fn assert_agrees(v: Vec2, threshold: f64) -> bool {
        let t = threshold.max(0.0);
        let order = order_from_squares(v.length_squared(), t * t);
        let length = v.length();
        let lt = order.map_or_else(|| length < threshold, Ordering::is_lt);
        let le = order.map_or_else(|| length <= threshold, Ordering::is_lt);
        let gt = order.map_or_else(|| length > threshold, Ordering::is_gt);
        assert_eq!(lt, length < threshold, "{v:?} < {threshold:e} ({order:?})");
        assert_eq!(
            le,
            length <= threshold,
            "{v:?} <= {threshold:e} ({order:?})"
        );
        assert_eq!(gt, length > threshold, "{v:?} > {threshold:e} ({order:?})");
        order.is_some()
    }

    /// `x` moved by `ulps` units in the last place (towards +∞ for positive
    /// `ulps`); `x` is positive and finite.
    fn nudged(x: f64, ulps: i64) -> f64 {
        f64::from_bits((x.to_bits() as i64 + ulps) as u64)
    }

    #[test]
    fn squared_orders_agree_with_hypot_from_1e_minus_300_to_1e300() {
        let mut rng = StdRng::seed_from_u64(0x5eed_0001);
        let mut decided = 0;
        let trials = 200_000;
        for _ in 0..trials {
            let component = |rng: &mut StdRng| {
                let magnitude = 10f64.powf(rng.gen_range(-300.0..300.0));
                if rng.gen_bool(0.5) {
                    magnitude
                } else {
                    -magnitude
                }
            };
            let v = Vec2::new(component(&mut rng), component(&mut rng));
            let threshold = if rng.gen_bool(0.5) {
                THRESHOLDS[rng.gen_range(0..THRESHOLDS.len())]
            } else {
                10f64.powf(rng.gen_range(-300.0..300.0))
            };
            if assert_agrees(v, threshold) {
                decided += 1;
            }
            // The same vector against a threshold a relative 10⁻⁶ from
            // its length: the squares still decide, and decide right.
            let length = v.length();
            if length.is_finite() && length > 1e-150 && length < 1e150 {
                assert!(assert_agrees(v, length * (1.0 + 1e-6)));
                assert!(assert_agrees(v, length * (1.0 - 1e-6)));
            }
        }
        // Nearly every draw is far from its threshold, and the squares
        // decide all of those whose threshold squares to a normal number.
        assert!(decided > trials / 3, "only {decided} of {trials} decided");
    }

    #[test]
    fn subnormal_zero_and_non_finite_inputs_agree_with_hypot() {
        let tiny = [
            0.0,
            -0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE / 2.0,
            f64::MIN_POSITIVE,
            1e-160,
            1e-154,
            1e-150,
        ];
        let special = [f64::MAX, f64::INFINITY, f64::NAN, 1e154, 1e200];
        let thresholds = THRESHOLDS
            .iter()
            .copied()
            .chain([
                0.0,
                f64::from_bits(1),
                1e-160,
                1e-154,
                1e154,
                1e160,
                f64::MAX,
            ])
            .chain([f64::INFINITY, f64::NAN, -1.0]);
        for threshold in thresholds {
            for &x in tiny.iter().chain(&special) {
                for &y in tiny.iter().chain(&special) {
                    assert_agrees(Vec2::new(x, y), threshold);
                    assert_agrees(Vec2::new(-x, y), threshold);
                }
            }
        }
        // Components whose squares underflow still decide against a normal
        // squared threshold: they are far below it.
        assert_eq!(
            order_from_squares(Vec2::new(1e-170, 1e-160).length_squared(), 1e-24),
            Some(Ordering::Less)
        );
        // An overflowing square decides above every threshold whose
        // margin product is finite, and not against one whose is not.
        assert_eq!(
            order_from_squares(Vec2::new(1e200, 0.0).length_squared(), 1e300),
            Some(Ordering::Greater)
        );
        assert_eq!(
            order_from_squares(f64::INFINITY, f64::MAX),
            None,
            "the margin product overflows"
        );
        // A zero, subnormal, infinite or NaN squared threshold never decides.
        for threshold_sq in [0.0, f64::from_bits(7), f64::INFINITY, f64::NAN] {
            assert_eq!(order_from_squares(1.0, threshold_sq), None);
            assert_eq!(order_from_squares(0.0, threshold_sq), None);
        }
    }

    #[test]
    fn lengths_within_four_ulps_of_each_threshold_decide_like_hypot() {
        let mut rng = StdRng::seed_from_u64(0x5eed_0002);
        for &threshold in &THRESHOLDS {
            for ulps in -4..=4 {
                let length = nudged(threshold, ulps);
                // Axis-aligned: hypot returns the component exactly.
                assert_agrees(Vec2::new(length, 0.0), threshold);
                assert_agrees(Vec2::new(0.0, -length), threshold);
                // Rotated: hypot rounds, within an ulp of `length`.
                for _ in 0..64 {
                    let angle = rng.gen_range(0.0..std::f64::consts::TAU);
                    let v = Vec2::new(angle.cos(), angle.sin()) * length;
                    assert_agrees(v, threshold);
                }
                // The threshold itself nudged, against an exact length.
                assert_agrees(Vec2::new(threshold, 0.0), length);
            }
            // Just outside the margin the squares decide, and decide right.
            for factor in [1.0 - 2e-9, 1.0 + 2e-9, 0.5, 2.0] {
                assert!(assert_agrees(Vec2::new(threshold * factor, 0.0), threshold));
            }
        }
    }

    #[test]
    fn arithmetic() {
        let a = Vec2::new(1.0, 2.0);
        let b = Vec2::new(3.0, -1.0);
        assert_eq!(a + b, Vec2::new(4.0, 1.0));
        assert_eq!(a - b, Vec2::new(-2.0, 3.0));
        assert_eq!(a * 2.0, Vec2::new(2.0, 4.0));
        assert_eq!(a / 2.0, Vec2::new(0.5, 1.0));
        assert_eq!(-a, Vec2::new(-1.0, -2.0));
        let mut c = a;
        c += b;
        assert_eq!(c, Vec2::new(4.0, 1.0));
        c -= b;
        assert_eq!(c, a);
    }

    #[test]
    fn products_and_lengths() {
        let a = Vec2::new(3.0, 4.0);
        assert_eq!(a.length(), 5.0);
        assert_eq!(a.length_squared(), 25.0);
        assert_eq!(a.dot(Vec2::new(1.0, 0.0)), 3.0);
        assert_eq!(Vec2::new(1.0, 0.0).cross(Vec2::new(0.0, 1.0)), 1.0);
        assert_eq!(Vec2::new(0.0, 1.0).cross(Vec2::new(1.0, 0.0)), -1.0);
        assert!((a.normalized().length() - 1.0).abs() < 1e-12);
        assert_eq!(Vec2::ZERO.normalized(), Vec2::ZERO);
    }

    #[test]
    fn perp_is_counter_clockwise() {
        assert_eq!(Vec2::new(1.0, 0.0).perp(), Vec2::new(0.0, 1.0));
        assert_eq!(Vec2::new(0.0, 1.0).perp(), Vec2::new(-1.0, 0.0));
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Vec2::new(0.0, 0.0);
        let b = Vec2::new(10.0, 20.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Vec2::new(5.0, 10.0));
    }

    #[test]
    fn distance_to_segment_cases() {
        let a = Vec2::new(0.0, 0.0);
        let b = Vec2::new(10.0, 0.0);
        // Perpendicular foot inside the segment.
        assert!((Vec2::new(5.0, 3.0).distance_to_segment(a, b) - 3.0).abs() < 1e-12);
        // Beyond the endpoints.
        assert!((Vec2::new(-4.0, 3.0).distance_to_segment(a, b) - 5.0).abs() < 1e-12);
        assert!((Vec2::new(14.0, 3.0).distance_to_segment(a, b) - 5.0).abs() < 1e-12);
        // Degenerate segment.
        assert!((Vec2::new(3.0, 4.0).distance_to_segment(a, a) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn plane_point_round_trip() {
        let v = Vec2::new(12.5, -3.25);
        let p: PlanePoint = v.into();
        let back: Vec2 = p.into();
        assert_eq!(v, back);
    }

    #[test]
    fn min_max_and_finite() {
        let a = Vec2::new(1.0, 5.0);
        let b = Vec2::new(2.0, 3.0);
        assert_eq!(a.min(b), Vec2::new(1.0, 3.0));
        assert_eq!(a.max(b), Vec2::new(2.0, 5.0));
        assert!(a.is_finite());
        assert!(!Vec2::new(f64::NAN, 0.0).is_finite());
    }
}
