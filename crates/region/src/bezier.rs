//! Cubic Bézier curves and closed Bézier loops.
//!
//! Octant represents region boundaries with Bézier curves because they are
//! compact (a circle is four cubic segments) and because boolean operations
//! can be carried out on the flattened boundary without losing the
//! representational generality the paper needs (non-convex, disconnected
//! regions). This module provides the curve type, adaptive flattening and the
//! constructions constraint disks need (quarter arcs and full circles).

use crate::ring::Ring;
use crate::vec2::{order_from_squares, Vec2};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

/// The magic constant for approximating a quarter circle with a cubic Bézier
/// segment: `4/3 · (√2 − 1)`. The maximum radial error of the approximation
/// is ~0.027% of the radius, i.e. ~270 m for a 1000 km constraint disk —
/// negligible at Octant's scale.
pub const KAPPA: f64 = 0.552_284_749_830_793_4;

/// The subdivision depth at which flattening emits a sub-curve's end point
/// whatever its flatness.
const MAX_FLATTEN_DEPTH: u32 = 18;

/// A cubic Bézier segment defined by four control points.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CubicBezier {
    /// Start point.
    pub p0: Vec2,
    /// First control point.
    pub p1: Vec2,
    /// Second control point.
    pub p2: Vec2,
    /// End point.
    pub p3: Vec2,
}

impl CubicBezier {
    /// Creates a segment from its four control points.
    pub fn new(p0: Vec2, p1: Vec2, p2: Vec2, p3: Vec2) -> Self {
        CubicBezier { p0, p1, p2, p3 }
    }

    /// Evaluates the curve at parameter `t ∈ [0, 1]`.
    pub fn eval(&self, t: f64) -> Vec2 {
        let t = t.clamp(0.0, 1.0);
        let mt = 1.0 - t;
        let mt2 = mt * mt;
        let t2 = t * t;
        self.p0 * (mt2 * mt)
            + self.p1 * (3.0 * mt2 * t)
            + self.p2 * (3.0 * mt * t2)
            + self.p3 * (t2 * t)
    }

    /// Splits the curve at `t` into two sub-curves using de Casteljau's
    /// algorithm.
    pub fn split(&self, t: f64) -> (CubicBezier, CubicBezier) {
        let t = t.clamp(0.0, 1.0);
        let p01 = self.p0.lerp(self.p1, t);
        let p12 = self.p1.lerp(self.p2, t);
        let p23 = self.p2.lerp(self.p3, t);
        let p012 = p01.lerp(p12, t);
        let p123 = p12.lerp(p23, t);
        let mid = p012.lerp(p123, t);
        (
            CubicBezier::new(self.p0, p01, p012, mid),
            CubicBezier::new(mid, p123, p23, self.p3),
        )
    }

    /// Maximum distance from the control points `p1`, `p2` to the chord
    /// `p0→p3`; a standard flatness measure.
    pub fn flatness(&self) -> f64 {
        let d1 = self.p1.offset_from_segment(self.p0, self.p3);
        let d2 = self.p2.offset_from_segment(self.p0, self.p3);
        d1.length().max(d2.length())
    }

    /// `self.flatness() <= tolerance`, decided from the squared distances
    /// where they clear the squared tolerance ([`order_from_squares`]). The
    /// second control point is not measured when the first already decides
    /// against flatness.
    fn is_flat(&self, tolerance: f64) -> bool {
        let tolerance_sq = tolerance * tolerance;
        let d1 = self.p1.offset_from_segment(self.p0, self.p3);
        let first = order_from_squares(d1.length_squared(), tolerance_sq);
        if first == Some(Ordering::Greater) {
            return false;
        }
        let d2 = self.p2.offset_from_segment(self.p0, self.p3);
        match (first, order_from_squares(d2.length_squared(), tolerance_sq)) {
            (_, Some(Ordering::Greater)) => false,
            (Some(Ordering::Less), Some(Ordering::Less)) => true,
            _ => self.flatness() <= tolerance,
        }
    }

    /// Appends a polyline approximation of the curve to `out` (excluding the
    /// start point, including the end point), subdividing until the flatness
    /// measure drops below `tolerance`.
    ///
    /// The curve is halved (`split(0.5)`) until each piece is flat or 18
    /// halvings deep, and each piece's end point is emitted in curve order.
    /// The walk is depth-first, left half first, with the right halves
    /// still to visit on a fixed stack, one per depth at most.
    pub fn flatten_into(&self, tolerance: f64, out: &mut Vec<Vec2>) {
        let tolerance = tolerance.max(1e-6);
        let mut pending = [(*self, 0u32); MAX_FLATTEN_DEPTH as usize];
        let mut pending_len = 0;
        let (mut curve, mut depth) = (*self, 0);
        loop {
            if depth >= MAX_FLATTEN_DEPTH || curve.is_flat(tolerance) {
                out.push(curve.p3);
                if pending_len == 0 {
                    return;
                }
                pending_len -= 1;
                (curve, depth) = pending[pending_len];
            } else {
                let (left, right) = curve.split(0.5);
                depth += 1;
                pending[pending_len] = (right, depth);
                pending_len += 1;
                curve = left;
            }
        }
    }

    /// A quarter-circle arc (90°, counter-clockwise) of radius `r` around
    /// `center`, starting at angle `start_angle_rad`.
    pub fn quarter_arc(center: Vec2, r: f64, start_angle_rad: f64) -> Self {
        let (s, c) = start_angle_rad.sin_cos();
        let (s2, c2) = (start_angle_rad + std::f64::consts::FRAC_PI_2).sin_cos();
        let p0 = center + Vec2::new(c, s) * r;
        let p3 = center + Vec2::new(c2, s2) * r;
        let t0 = Vec2::new(-s, c) * (r * KAPPA);
        let t1 = Vec2::new(-s2, c2) * (r * KAPPA);
        CubicBezier::new(p0, p0 + t0, p3 - t1, p3)
    }
}

/// A closed loop of cubic Bézier segments, each segment's end point being the
/// next segment's start point (and the last feeding back into the first).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct BezierLoop {
    segments: Vec<CubicBezier>,
}

impl BezierLoop {
    /// Creates a loop from segments. The caller is responsible for the
    /// segments forming a closed chain; [`BezierLoop::is_closed`] checks it.
    pub fn new(segments: Vec<CubicBezier>) -> Self {
        BezierLoop { segments }
    }

    /// The segments of the loop.
    pub fn segments(&self) -> &[CubicBezier] {
        &self.segments
    }

    /// Number of segments.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// `true` when the loop has no segments.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Checks the chain is closed: each segment ends where the next starts
    /// (within `tol` km) and the last ends at the first's start.
    pub fn is_closed(&self, tol: f64) -> bool {
        if self.segments.is_empty() {
            return false;
        }
        let n = self.segments.len();
        (0..n).all(|i| {
            let end = self.segments[i].p3;
            let next_start = self.segments[(i + 1) % n].p0;
            end.distance(next_start) <= tol
        })
    }

    /// A circle of radius `r` around `center`, built from four quarter-arc
    /// cubic segments (the paper's canonical disk boundary).
    pub fn circle(center: Vec2, r: f64) -> Self {
        let r = r.max(0.0);
        BezierLoop::new(vec![
            CubicBezier::quarter_arc(center, r, 0.0),
            CubicBezier::quarter_arc(center, r, std::f64::consts::FRAC_PI_2),
            CubicBezier::quarter_arc(center, r, std::f64::consts::PI),
            CubicBezier::quarter_arc(center, r, 3.0 * std::f64::consts::FRAC_PI_2),
        ])
    }

    /// Flattens the loop into a closed polygon ([`Ring`]) with the given
    /// tolerance in km.
    pub fn flatten(&self, tolerance: f64) -> Ring {
        if self.segments.is_empty() {
            return Ring::new(Vec::new());
        }
        let mut pts = vec![self.segments[0].p0];
        for seg in &self.segments {
            seg.flatten_into(tolerance, &mut pts);
        }
        // The last point closes back onto the first; Ring treats the polygon
        // as implicitly closed, so drop the duplicate.
        if let [first, .., last] = pts[..] {
            let gap = first - last;
            if order_from_squares(gap.length_squared(), 1e-9 * 1e-9)
                .map_or_else(|| gap.length() < 1e-9, Ordering::is_lt)
            {
                pts.pop();
            }
        }
        Ring::new(pts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The recursive flattening with the hypot flatness test: the oracle
    /// [`CubicBezier::flatten_into`] must match bit for bit.
    fn flatten_reference(curve: &CubicBezier, tolerance: f64, out: &mut Vec<Vec2>, depth: u32) {
        if curve.flatness() <= tolerance || depth >= MAX_FLATTEN_DEPTH {
            out.push(curve.p3);
            return;
        }
        let (a, b) = curve.split(0.5);
        flatten_reference(&a, tolerance, out, depth + 1);
        flatten_reference(&b, tolerance, out, depth + 1);
    }

    /// Flattens `curve` both ways and asserts equal vertex bits; returns
    /// the vertex count.
    fn assert_flattens_like_reference(curve: &CubicBezier, tolerance: f64) -> usize {
        let mut fast = Vec::new();
        curve.flatten_into(tolerance, &mut fast);
        let mut reference = Vec::new();
        flatten_reference(curve, tolerance.max(1e-6), &mut reference, 0);
        let bits = |pts: &[Vec2]| -> Vec<(u64, u64)> {
            pts.iter().map(|p| (p.x.to_bits(), p.y.to_bits())).collect()
        };
        assert_eq!(bits(&fast), bits(&reference), "{curve:?} at {tolerance:e}");
        fast.len()
    }

    #[test]
    fn flattening_matches_the_recursive_hypot_reference() {
        let mut rng = StdRng::seed_from_u64(0x00be_71e5);
        let mut vertices = 0;
        for _ in 0..96 {
            let radius = 0.5 * 40_000f64.powf(rng.gen::<f64>());
            let center = Vec2::new(rng.gen_range(-2e4..2e4), rng.gen_range(-2e4..2e4));
            let tolerance = 1e-6 * 1e7f64.powf(rng.gen::<f64>());
            for segment in BezierLoop::circle(center, radius).segments() {
                vertices += assert_flattens_like_reference(segment, tolerance);
            }
        }
        assert!(vertices > 10_000, "only {vertices} vertices");
        // Tolerances right at the flatness of a sub-curve: the squared
        // test is undecided there and must fall back to the same answer.
        let arc = CubicBezier::quarter_arc(Vec2::new(1234.5, -678.25), 800.0, 0.3);
        let (left, _) = arc.split(0.5);
        for curve in [arc, left] {
            let flatness = curve.flatness();
            for ulps in -4i64..=4 {
                let tolerance = f64::from_bits((flatness.to_bits() as i64 + ulps) as u64);
                assert_flattens_like_reference(&curve, tolerance);
            }
        }
    }

    #[test]
    fn flattening_keeps_the_depth_cap_and_zero_length_chords() {
        // A radius no 18 halvings flatten to 10⁻⁶ km: every leaf sits at
        // the depth cap.
        let huge = CubicBezier::quarter_arc(Vec2::new(5.0, -3.0), 1e7, 0.1);
        assert_eq!(
            assert_flattens_like_reference(&huge, 1e-6),
            1 << MAX_FLATTEN_DEPTH
        );
        // Non-finite control points are never flat.
        let broken = CubicBezier::new(
            Vec2::ZERO,
            Vec2::new(f64::NAN, 1.0),
            Vec2::new(2.0, 1.0),
            Vec2::new(3.0, 0.0),
        );
        assert_flattens_like_reference(&broken, 1.0);
        // Closed loops (p0 == p3) measure flatness as distance to p0.
        let p = Vec2::new(-15_000.0, 12_000.0);
        for (d1, d2) in [
            (Vec2::new(40.0, 25.0), Vec2::new(-30.0, 45.0)),
            (Vec2::new(1e-7, 0.0), Vec2::new(0.0, -1e-7)),
            (Vec2::ZERO, Vec2::ZERO),
        ] {
            let closed = CubicBezier::new(p, p + d1, p + d2, p);
            for tolerance in [1e-6, 1e-3, 0.5, 10.0] {
                assert_flattens_like_reference(&closed, tolerance);
            }
        }
        // A zero-radius circle: every curve is one repeated point.
        for segment in BezierLoop::circle(p, 0.0).segments() {
            assert_eq!(assert_flattens_like_reference(segment, 1.0), 1);
        }
    }

    #[test]
    fn eval_endpoints_match_control_points() {
        let c = CubicBezier::new(
            Vec2::new(0.0, 0.0),
            Vec2::new(1.0, 2.0),
            Vec2::new(3.0, 2.0),
            Vec2::new(4.0, 0.0),
        );
        assert_eq!(c.eval(0.0), c.p0);
        assert_eq!(c.eval(1.0), c.p3);
        assert_eq!(c.eval(-0.5), c.p0, "t is clamped");
        assert_eq!(c.eval(1.5), c.p3, "t is clamped");
    }

    #[test]
    fn split_preserves_the_curve() {
        let c = CubicBezier::new(
            Vec2::new(0.0, 0.0),
            Vec2::new(0.0, 5.0),
            Vec2::new(10.0, 5.0),
            Vec2::new(10.0, 0.0),
        );
        let (a, b) = c.split(0.3);
        assert_eq!(a.p0, c.p0);
        assert_eq!(b.p3, c.p3);
        assert!(a.p3.distance(c.eval(0.3)) < 1e-12);
        // Points on the sub-curves must lie on the original curve.
        for i in 0..=10 {
            let t = i as f64 / 10.0;
            let on_a = a.eval(t);
            let orig = c.eval(0.3 * t);
            assert!(on_a.distance(orig) < 1e-9, "t={t}");
            let on_b = b.eval(t);
            let orig_b = c.eval(0.3 + 0.7 * t);
            assert!(on_b.distance(orig_b) < 1e-9, "t={t}");
        }
    }

    #[test]
    fn quarter_arc_stays_near_the_circle() {
        let arc = CubicBezier::quarter_arc(Vec2::new(3.0, -2.0), 100.0, 0.4);
        for i in 0..=50 {
            let t = i as f64 / 50.0;
            let r = arc.eval(t).distance(Vec2::new(3.0, -2.0));
            assert!(
                (r - 100.0).abs() < 0.05,
                "radius error {} at t={t}",
                (r - 100.0).abs()
            );
        }
    }

    #[test]
    fn circle_loop_is_closed_and_flattens_to_expected_area() {
        let c = BezierLoop::circle(Vec2::new(5.0, 5.0), 200.0);
        assert_eq!(c.len(), 4);
        assert!(c.is_closed(1e-9));
        let ring = c.flatten(0.5);
        let area = ring.area();
        let expected = std::f64::consts::PI * 200.0 * 200.0;
        assert!(
            (area - expected).abs() / expected < 0.005,
            "area {area} vs expected {expected}"
        );
    }

    #[test]
    fn flatten_respects_tolerance() {
        let c = BezierLoop::circle(Vec2::ZERO, 1000.0);
        let coarse = c.flatten(50.0);
        let fine = c.flatten(0.1);
        assert!(fine.points().len() > coarse.points().len());
        // The fine ring's area should be closer to the true circle area.
        let truth = std::f64::consts::PI * 1000.0f64.powi(2);
        assert!((fine.area() - truth).abs() < (coarse.area() - truth).abs() + 1e-9);
    }

    #[test]
    fn degenerate_loops() {
        let empty = BezierLoop::new(vec![]);
        assert!(empty.is_empty());
        assert!(!empty.is_closed(1.0));
        let ring = empty.flatten(1.0);
        assert_eq!(ring.points().len(), 0);
        let zero_circle = BezierLoop::circle(Vec2::ZERO, 0.0);
        let r = zero_circle.flatten(1.0);
        assert!(r.area() < 1e-9);
    }
}
