//! Cubic Bézier curves and closed Bézier loops.
//!
//! Octant represents region boundaries with Bézier curves because they are
//! compact (a circle is four cubic segments) and because boolean operations
//! can be carried out on the flattened boundary without losing the
//! representational generality the paper needs (non-convex, disconnected
//! regions). This module provides the curve type, adaptive flattening and the
//! constructions constraint disks need (quarter arcs and full circles).

use crate::ring::Ring;
use crate::vec2::Vec2;
use serde::{Deserialize, Serialize};

/// The magic constant for approximating a quarter circle with a cubic Bézier
/// segment: `4/3 · (√2 − 1)`. The maximum radial error of the approximation
/// is ~0.027% of the radius, i.e. ~270 m for a 1000 km constraint disk —
/// negligible at Octant's scale.
pub const KAPPA: f64 = 0.552_284_749_830_793_4;

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
        let d1 = self.p1.distance_to_segment(self.p0, self.p3);
        let d2 = self.p2.distance_to_segment(self.p0, self.p3);
        d1.max(d2)
    }

    /// Appends a polyline approximation of the curve to `out` (excluding the
    /// start point, including the end point), subdividing until the flatness
    /// measure drops below `tolerance`.
    pub fn flatten_into(&self, tolerance: f64, out: &mut Vec<Vec2>) {
        self.flatten_rec(tolerance.max(1e-6), out, 0);
    }

    fn flatten_rec(&self, tolerance: f64, out: &mut Vec<Vec2>, depth: u32) {
        if self.flatness() <= tolerance || depth >= 18 {
            out.push(self.p3);
            return;
        }
        let (a, b) = self.split(0.5);
        a.flatten_rec(tolerance, out, depth + 1);
        b.flatten_rec(tolerance, out, depth + 1);
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
        if pts.len() > 1 && pts[0].distance(*pts.last().unwrap()) < 1e-9 {
            pts.pop();
        }
        Ring::new(pts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
