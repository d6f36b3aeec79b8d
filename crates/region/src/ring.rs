//! Closed polygons ("rings") with the standard geometric queries.
//!
//! Rings are what Bézier loops flatten into and what the boolean-operation
//! engine consumes and produces. A [`Ring`] is a simple closed polygon stored
//! as an ordered vertex list (implicitly closed: the last vertex connects
//! back to the first).

use crate::vec2::{order_from_squares, Vec2};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

/// A closed polygon in the projection plane (kilometre coordinates).
///
/// The axis-aligned bounding box and the convexity flag are computed once at
/// construction and cached: the boolean engine consults both on every
/// operation (bbox-disjoint and absorption fast paths, convex dilation
/// specialization), so recomputing them per query would dominate the very
/// fast paths they enable.
// NOTE(serde): the cached fields below are derived data. When the serde
// stand-in is swapped for the real crate (no consumer serializes bytes
// today), they must be recomputed on deserialize — e.g. `#[serde(from =
// "...")]` over a points-only mirror — both for wire compatibility with
// points-only payloads and so a tampered `convex` flag can never steer the
// engine's convex fast paths.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Ring {
    points: Vec<Vec2>,
    /// Cached axis-aligned bounding box (`None` for empty rings).
    bbox: Option<(Vec2, Vec2)>,
    /// Cached convexity of the cleaned vertex list.
    convex: bool,
}

impl Ring {
    /// Creates a ring from a vertex list. Non-finite vertices and
    /// consecutive duplicates (closer than 10⁻¹² km) are removed, in place;
    /// the polygon is implicitly closed.
    pub fn new(mut points: Vec<Vec2>) -> Self {
        let mut last_kept: Option<Vec2> = None;
        points.retain(|&p| {
            let keep = p.is_finite() && !last_kept.is_some_and(|q| coincident(q, p));
            if keep {
                last_kept = Some(p);
            }
            keep
        });
        // Drop a trailing vertex that duplicates the first.
        if let [first, .., last] = points[..] {
            if coincident(first, last) {
                points.pop();
            }
        }
        Ring::from_cleaned(points)
    }

    /// Builds a ring from an already-cleaned vertex list, computing the
    /// cached bounding box and convexity flag.
    fn from_cleaned(points: Vec<Vec2>) -> Self {
        let bbox = if points.is_empty() {
            None
        } else {
            let mut min = points[0];
            let mut max = points[0];
            for &p in &points {
                min = min.min(p);
                max = max.max(p);
            }
            Some((min, max))
        };
        let convex = convexity(&points);
        Ring {
            points,
            bbox,
            convex,
        }
    }

    /// A rectangle ring from opposite corners.
    pub fn rectangle(min: Vec2, max: Vec2) -> Self {
        let lo = min.min(max);
        let hi = min.max(max);
        Ring::new(vec![
            Vec2::new(lo.x, lo.y),
            Vec2::new(hi.x, lo.y),
            Vec2::new(hi.x, hi.y),
            Vec2::new(lo.x, hi.y),
        ])
    }

    /// A regular polygon approximating a circle with `n` vertices.
    pub fn regular_polygon(center: Vec2, radius: f64, n: usize) -> Self {
        let n = n.max(3);
        let pts = (0..n)
            .map(|i| {
                let a = 2.0 * std::f64::consts::PI * i as f64 / n as f64;
                center + Vec2::new(a.cos(), a.sin()) * radius.max(0.0)
            })
            .collect();
        Ring::new(pts)
    }

    /// The vertices of the ring.
    pub fn points(&self) -> &[Vec2] {
        &self.points
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when the ring has fewer than 3 vertices (no interior).
    pub fn is_empty(&self) -> bool {
        self.points.len() < 3
    }

    /// Signed area (positive for counter-clockwise orientation), via the
    /// shoelace formula. Units: km².
    pub fn signed_area(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let n = self.points.len();
        let mut sum = 0.0;
        for i in 0..n {
            let a = self.points[i];
            let b = self.points[(i + 1) % n];
            sum += a.cross(b);
        }
        sum / 2.0
    }

    /// Absolute area in km².
    pub fn area(&self) -> f64 {
        self.signed_area().abs()
    }

    /// `true` when the vertices wind counter-clockwise.
    pub fn is_ccw(&self) -> bool {
        self.signed_area() > 0.0
    }

    /// A copy of the ring with counter-clockwise orientation.
    pub fn oriented_ccw(&self) -> Ring {
        if self.is_ccw() || self.is_empty() {
            self.clone()
        } else {
            let mut pts = self.points.clone();
            pts.reverse();
            Ring::from_cleaned(pts)
        }
    }

    /// Perimeter length in km.
    pub fn perimeter(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let n = self.points.len();
        (0..n)
            .map(|i| self.points[i].distance(self.points[(i + 1) % n]))
            .sum()
    }

    /// Area centroid of the polygon. Falls back to the vertex average for
    /// degenerate (zero-area) rings, and `Vec2::ZERO` for empty rings.
    pub fn centroid(&self) -> Vec2 {
        if self.points.is_empty() {
            return Vec2::ZERO;
        }
        let a = self.signed_area();
        if a.abs() < 1e-12 {
            let sum = self.points.iter().fold(Vec2::ZERO, |acc, &p| acc + p);
            return sum / self.points.len() as f64;
        }
        let n = self.points.len();
        let mut cx = 0.0;
        let mut cy = 0.0;
        for i in 0..n {
            let p = self.points[i];
            let q = self.points[(i + 1) % n];
            let cross = p.cross(q);
            cx += (p.x + q.x) * cross;
            cy += (p.y + q.y) * cross;
        }
        Vec2::new(cx / (6.0 * a), cy / (6.0 * a))
    }

    /// Axis-aligned bounding box `(min, max)`, cached at construction.
    /// Returns `None` for empty rings.
    pub fn bbox(&self) -> Option<(Vec2, Vec2)> {
        self.bbox
    }

    /// Even-odd (ray casting) point containment test. Points exactly on the
    /// boundary may be classified either way.
    ///
    /// Rejects through the cached bounding box first: a point outside the
    /// box crosses the boundary an even number of times by construction, so
    /// skipping the edge walk cannot change the answer — and multi-ring
    /// regions probe every ring for every query point, making the two
    /// comparisons the common case's entire cost.
    pub fn contains(&self, p: Vec2) -> bool {
        match self.bbox {
            None => return false,
            Some((lo, hi)) => {
                if p.x < lo.x || p.x > hi.x || p.y < lo.y || p.y > hi.y {
                    return false;
                }
            }
        }
        if self.is_empty() {
            return false;
        }
        let n = self.points.len();
        let mut inside = false;
        let mut j = n - 1;
        for i in 0..n {
            let a = self.points[i];
            let b = self.points[j];
            if ((a.y > p.y) != (b.y > p.y)) && (p.x < (b.x - a.x) * (p.y - a.y) / (b.y - a.y) + a.x)
            {
                inside = !inside;
            }
            j = i;
        }
        inside
    }

    /// Distance from `p` to the ring boundary (0 is *not* returned for
    /// interior points; use [`Ring::contains`] to distinguish).
    pub fn distance_to_boundary(&self, p: Vec2) -> f64 {
        if self.points.is_empty() {
            return f64::INFINITY;
        }
        if self.points.len() == 1 {
            return p.distance(self.points[0]);
        }
        let n = self.points.len();
        (0..n)
            .map(|i| p.distance_to_segment(self.points[i], self.points[(i + 1) % n]))
            .fold(f64::INFINITY, f64::min)
    }

    /// `true` when every interior angle turns the same way and the boundary
    /// turns exactly once (the ring is convex and simple). Cached at
    /// construction; rings of fewer than four vertices report `true`.
    pub fn is_convex(&self) -> bool {
        self.convex
    }

    /// Translates every vertex by `offset`.
    pub fn translated(&self, offset: Vec2) -> Ring {
        Ring::from_cleaned(self.points.iter().map(|&p| p + offset).collect())
    }

    /// Scales the ring about a centre point.
    pub fn scaled_about(&self, center: Vec2, factor: f64) -> Ring {
        Ring::from_cleaned(
            self.points
                .iter()
                .map(|&p| center + (p - center) * factor)
                .collect(),
        )
    }

    /// Removes vertices that are (nearly) collinear with their neighbours,
    /// reducing vertex count without changing the shape materially.
    ///
    /// **Shrink-only**: besides the distance tolerance, a vertex is only
    /// removed when the chord replacing it cuts *into* the ring (a convex
    /// corner relative to the ring's orientation) or the vertex is exactly
    /// collinear. Replacing a reflex corner would grow the ring outward by
    /// up to the tolerance, and a [`crate::Region`]'s interior-disjoint
    /// rings would then overlap at shared seams — breaking the even-odd
    /// containment rule. Shrink-only removals keep every ring inside its
    /// original footprint, so pairwise disjointness is preserved by
    /// construction.
    pub fn simplified(&self, tolerance: f64) -> Ring {
        let n = self.points.len();
        if n < 4 {
            return self.clone();
        }
        let orientation = self.signed_area().signum();
        let mut keep = Vec::with_capacity(n);
        // Adjacent non-collinear removals are disallowed within one pass:
        // the distance test uses the *original* neighbours, so removing a
        // whole run of vertices would compound into movement far beyond the
        // tolerance (e.g. a sampled arc collapsing to its chord). With the
        // guard, every replacement chord spans exactly one removed vertex —
        // except exactly-collinear runs, where chords coincide with the
        // boundary — keeping the per-call movement bound honest.
        let mut removed_prev = false;
        let mut removed_first_noncollinear = false;
        // A negative tolerance squares to zero, which `order_from_squares`
        // leaves to the hypot form like any other undecided test.
        let tolerance_sq = tolerance.max(0.0) * tolerance.max(0.0);
        for i in 0..n {
            let prev = self.points[(i + n - 1) % n];
            let cur = self.points[i];
            let next = self.points[(i + 1) % n];
            // `cur.distance_to_segment(prev, next) <= threshold`, from the
            // squares where they decide it.
            let offset = cur.offset_from_segment(prev, next);
            let offset_sq = offset.length_squared();
            let within = |threshold: f64, threshold_sq: f64| {
                order_from_squares(offset_sq, threshold_sq)
                    .map_or_else(|| offset.length() <= threshold, Ordering::is_lt)
            };
            let turn = (cur - prev).cross(next - cur);
            let exactly_collinear = within(1e-9, 1e-9 * 1e-9);
            let shrinks = orientation * turn >= 0.0 || exactly_collinear;
            // The adjacency guard must also span the ring wrap-around: the
            // last vertex is the first vertex's predecessor, so if vertex 0
            // was removed non-collinearly, vertex n−1 may not be.
            let wrap_blocked = i == n - 1 && removed_first_noncollinear;
            let removable = within(tolerance, tolerance_sq)
                && shrinks
                && (exactly_collinear || (!removed_prev && !wrap_blocked));
            if removable {
                removed_prev = true;
                if i == 0 && !exactly_collinear {
                    removed_first_noncollinear = true;
                }
            } else {
                keep.push(cur);
                removed_prev = false;
            }
        }
        if keep.len() < 3 {
            return self.clone();
        }
        Ring::new(keep)
    }

    /// The edges of the ring as `(start, end)` pairs.
    pub fn edges(&self) -> Vec<(Vec2, Vec2)> {
        let n = self.points.len();
        if n < 2 {
            return Vec::new();
        }
        (0..n)
            .map(|i| (self.points[i], self.points[(i + 1) % n]))
            .collect()
    }
}

/// `a.distance(b) < 1e-12`: the vertices [`Ring::new`] merges, decided
/// from the squared distance where it is clear of the squared threshold.
fn coincident(a: Vec2, b: Vec2) -> bool {
    let d = a - b;
    order_from_squares(d.length_squared(), 1e-12 * 1e-12)
        .map_or_else(|| d.length() < 1e-12, Ordering::is_lt)
}

/// Convexity of a cleaned vertex list: every turn has the same sign and the
/// boundary turns exactly once. Sharing a sign is not enough on its own: a
/// pentagram's turns all share one, but its boundary turns twice and its
/// centre lies outside it under the even-odd rule. Sub-quadrilateral lists
/// report `true`.
fn convexity(points: &[Vec2]) -> bool {
    let n = points.len();
    if n < 4 {
        return true;
    }
    let mut sign = 0.0;
    let (mut a, mut b) = (points[0], points[1]);
    for i in 0..n {
        let c = points[if i + 2 < n { i + 2 } else { i + 2 - n }];
        let cross = (b - a).cross(c - b);
        (a, b) = (b, c);
        if cross.abs() < 1e-12 {
            continue;
        }
        if sign == 0.0 {
            sign = cross.signum();
        } else if cross.signum() != sign {
            return false;
        }
    }
    // Four turns, none past a half turn, add up to two turns only when the
    // ring folds onto a segment, which has no interior.
    n == 4 || turns_once(points, sign)
}

/// `true` when the edge directions of the closed polygon turn once in
/// total, counted in quarter turns: each step between consecutive non-zero
/// edges adds the signed number of quadrant boundaries the direction
/// crosses. Exact sign tests on the edge vectors decide the quadrants, so
/// the count is exact: ±4 for a boundary that turns once, ±8 for a
/// pentagram. A step to the opposite quadrant is resolved by the sign of
/// the turn, or, below the convexity test's 1e-12 threshold, by `sign`, the
/// ring's common turn sign.
fn turns_once(points: &[Vec2], sign: f64) -> bool {
    let n = points.len();
    let edge = |i: usize| points[(i + 1) % n] - points[i];
    let mut prev = match (0..n).rev().map(edge).find(|&e| e != Vec2::ZERO) {
        Some(e) => e,
        None => return false,
    };
    let mut quarters = 0;
    for e in (0..n).map(edge).filter(|&e| e != Vec2::ZERO) {
        quarters += match (quadrant(e) - quadrant(prev)) & 3 {
            0 => 0,
            1 => 1,
            3 => -1,
            _ => {
                let cross = prev.cross(e);
                let turn = if cross.abs() < 1e-12 {
                    sign
                } else {
                    cross.signum()
                };
                if turn == 0.0 {
                    return false;
                }
                2 * turn as i32
            }
        };
        prev = e;
    }
    quarters.abs() == 4
}

/// The quadrant `0..4` of a non-zero direction, counter-clockwise from the
/// positive x axis; each quadrant holds its starting axis.
fn quadrant(e: Vec2) -> i32 {
    if e.y > 0.0 || (e.y == 0.0 && e.x > 0.0) {
        if e.x > 0.0 {
            0
        } else {
            1
        }
    } else if e.x < 0.0 {
        2
    } else {
        3
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn unit_square() -> Ring {
        Ring::rectangle(Vec2::new(0.0, 0.0), Vec2::new(1.0, 1.0))
    }

    #[test]
    fn square_properties() {
        let sq = unit_square();
        assert_eq!(sq.len(), 4);
        assert!((sq.area() - 1.0).abs() < 1e-12);
        assert!((sq.perimeter() - 4.0).abs() < 1e-12);
        assert!(sq.is_ccw());
        assert!(sq.is_convex());
        assert!((sq.centroid().x - 0.5).abs() < 1e-12);
        assert!((sq.centroid().y - 0.5).abs() < 1e-12);
        let (min, max) = sq.bbox().unwrap();
        assert_eq!(min, Vec2::new(0.0, 0.0));
        assert_eq!(max, Vec2::new(1.0, 1.0));
    }

    #[test]
    fn containment() {
        let sq = unit_square();
        assert!(sq.contains(Vec2::new(0.5, 0.5)));
        assert!(!sq.contains(Vec2::new(1.5, 0.5)));
        assert!(!sq.contains(Vec2::new(-0.1, 0.5)));
        assert!(!sq.contains(Vec2::new(0.5, 2.0)));
    }

    #[test]
    fn orientation_helpers() {
        let cw = Ring::new(vec![
            Vec2::new(0.0, 0.0),
            Vec2::new(0.0, 1.0),
            Vec2::new(1.0, 1.0),
            Vec2::new(1.0, 0.0),
        ]);
        assert!(!cw.is_ccw());
        assert!(cw.signed_area() < 0.0);
        let ccw = cw.oriented_ccw();
        assert!(ccw.is_ccw());
        assert!((ccw.area() - cw.area()).abs() < 1e-12);
    }

    #[test]
    fn non_convex_ring_detected() {
        let l_shape = Ring::new(vec![
            Vec2::new(0.0, 0.0),
            Vec2::new(2.0, 0.0),
            Vec2::new(2.0, 1.0),
            Vec2::new(1.0, 1.0),
            Vec2::new(1.0, 2.0),
            Vec2::new(0.0, 2.0),
        ]);
        assert!(!l_shape.is_convex());
        assert!((l_shape.area() - 3.0).abs() < 1e-12);
        assert!(l_shape.contains(Vec2::new(0.5, 1.5)));
        assert!(!l_shape.contains(Vec2::new(1.5, 1.5)));
    }

    /// The {5/2} star polygon: every turn is a left turn, but the boundary
    /// turns twice.
    pub(crate) fn pentagram(radius: f64) -> Ring {
        Ring::new(
            (0..5)
                .map(|k| {
                    let a =
                        std::f64::consts::FRAC_PI_2 + 4.0 * std::f64::consts::PI * k as f64 / 5.0;
                    Vec2::new(a.cos(), a.sin()) * radius
                })
                .collect(),
        )
    }

    #[test]
    fn self_intersecting_rings_are_not_convex() {
        let star = pentagram(100.0);
        assert_eq!(star.len(), 5);
        assert!(!star.is_convex());
        // Even-odd: the centre is wound twice, so it lies outside.
        assert!(!star.contains(Vec2::ZERO));
        let mut reversed = star.points().to_vec();
        reversed.reverse();
        assert!(!Ring::new(reversed).is_convex());
        // A convex ring traversed twice turns twice as well.
        let square = unit_square();
        let twice: Vec<Vec2> = square
            .points()
            .iter()
            .chain(square.points())
            .copied()
            .collect();
        assert!(!Ring::new(twice).is_convex());
        // Simple convex rings keep the flag in either orientation, with
        // axis-parallel edges and with collinear vertices.
        assert!(square.is_convex());
        assert!(Ring::new(square.points().iter().rev().copied().collect()).is_convex());
        assert!(Ring::new(vec![
            Vec2::new(0.0, 0.0),
            Vec2::new(0.5, 0.0),
            Vec2::new(1.0, 0.0),
            Vec2::new(1.0, 1.0),
            Vec2::new(0.0, 1.0),
        ])
        .is_convex());
        for n in [4, 5, 7, 64, 221] {
            assert!(Ring::regular_polygon(Vec2::new(3.0, -2.0), 50.0, n).is_convex());
        }
        // A nearly collinear vertex below the sign test's threshold wiggles
        // the bottom edge across the horizontal, one quarter turn back and
        // forth, but the boundary still turns once.
        let wiggle = Ring::new(vec![
            Vec2::new(-1.0, 0.0),
            Vec2::new(0.0, 1e-13),
            Vec2::new(1.0, 0.0),
            Vec2::new(1.0, 1.0),
            Vec2::new(-1.0, 1.0),
        ]);
        assert!(wiggle.is_convex());
    }

    #[test]
    fn regular_polygon_approximates_circle() {
        let r = Ring::regular_polygon(Vec2::new(10.0, -5.0), 100.0, 256);
        let truth = std::f64::consts::PI * 100.0 * 100.0;
        assert!((r.area() - truth).abs() / truth < 0.001);
        assert!(r.is_convex());
        assert!(r.contains(Vec2::new(10.0, -5.0)));
    }

    #[test]
    fn degenerate_rings() {
        let empty = Ring::new(vec![]);
        assert!(empty.is_empty());
        assert_eq!(empty.area(), 0.0);
        assert_eq!(empty.perimeter(), 0.0);
        assert!(!empty.contains(Vec2::ZERO));
        assert!(empty.bbox().is_none());
        assert_eq!(empty.centroid(), Vec2::ZERO);

        let two = Ring::new(vec![Vec2::new(0.0, 0.0), Vec2::new(1.0, 0.0)]);
        assert!(two.is_empty());
        assert_eq!(two.area(), 0.0);

        // Duplicate and closing vertices are removed.
        let dup = Ring::new(vec![
            Vec2::new(0.0, 0.0),
            Vec2::new(0.0, 0.0),
            Vec2::new(1.0, 0.0),
            Vec2::new(1.0, 1.0),
            Vec2::new(0.0, 0.0),
        ]);
        assert_eq!(dup.len(), 3);
    }

    #[test]
    fn distance_to_boundary() {
        let sq = unit_square();
        assert!((sq.distance_to_boundary(Vec2::new(0.5, 0.5)) - 0.5).abs() < 1e-12);
        assert!((sq.distance_to_boundary(Vec2::new(2.0, 0.5)) - 1.0).abs() < 1e-12);
        assert!(sq.distance_to_boundary(Vec2::new(1.0, 0.5)) < 1e-12);
    }

    #[test]
    fn transforms() {
        let sq = unit_square();
        let moved = sq.translated(Vec2::new(10.0, 20.0));
        assert!(moved.contains(Vec2::new(10.5, 20.5)));
        assert!((moved.area() - 1.0).abs() < 1e-12);
        let scaled = sq.scaled_about(Vec2::new(0.5, 0.5), 2.0);
        assert!((scaled.area() - 4.0).abs() < 1e-12);
        assert!((scaled.centroid().x - 0.5).abs() < 1e-12);
    }

    #[test]
    fn simplify_drops_collinear_points() {
        let r = Ring::new(vec![
            Vec2::new(0.0, 0.0),
            Vec2::new(0.5, 0.0),
            Vec2::new(1.0, 0.0),
            Vec2::new(1.0, 1.0),
            Vec2::new(0.0, 1.0),
        ]);
        let s = r.simplified(1e-9);
        assert_eq!(s.len(), 4);
        assert!((s.area() - r.area()).abs() < 1e-12);
    }

    /// `x` moved by `ulps` units in the last place; `x` is positive.
    fn nudged(x: f64, ulps: i64) -> f64 {
        f64::from_bits((x.to_bits() as i64 + ulps) as u64)
    }

    fn bits(points: &[Vec2]) -> Vec<(u64, u64)> {
        points
            .iter()
            .map(|p| (p.x.to_bits(), p.y.to_bits()))
            .collect()
    }

    /// [`Ring::new`]'s cleaning with the hypot duplicate test, into a new
    /// vector.
    fn cleaned_reference(points: &[Vec2]) -> Vec<Vec2> {
        let mut cleaned: Vec<Vec2> = Vec::new();
        for &p in points {
            if !p.is_finite() || cleaned.last().is_some_and(|q| q.distance(p) < 1e-12) {
                continue;
            }
            cleaned.push(p);
        }
        if cleaned.len() > 1 && cleaned[0].distance(*cleaned.last().unwrap()) < 1e-12 {
            cleaned.pop();
        }
        cleaned
    }

    #[test]
    fn cleaning_matches_the_hypot_reference() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xc1ea_0001);
        for _ in 0..2_000 {
            let mut points = Vec::new();
            let mut p = Vec2::new(rng.gen_range(-2e4..2e4), rng.gen_range(-2e4..2e4));
            for _ in 0..rng.gen_range(0..12) {
                points.push(p);
                // Steps from 0 to well over the threshold, many within a
                // few ulps of it.
                let step = match rng.gen_range(0..4) {
                    0 => 0.0,
                    1 => nudged(1e-12, rng.gen_range(-4..=4)),
                    2 => 1e-12 * rng.gen_range(0.5..2.0),
                    _ => rng.gen_range(0.0..100.0),
                };
                let angle = rng.gen_range(0.0..std::f64::consts::TAU);
                p = Vec2::new(p.x + step * angle.cos(), p.y + step * angle.sin());
                if rng.gen_bool(0.05) {
                    points.push(Vec2::new(f64::NAN, p.y));
                }
            }
            // Sometimes close the list onto (or right next to) its start.
            if let Some(&first) = points.first() {
                if rng.gen_bool(0.5) {
                    points.push(first + Vec2::new(nudged(1e-12, rng.gen_range(-4..=4)), 0.0));
                }
            }
            let ring = Ring::new(points.clone());
            assert_eq!(bits(ring.points()), bits(&cleaned_reference(&points)));
        }
    }

    /// [`Ring::simplified`] with the hypot distance tests.
    fn simplified_reference(ring: &Ring, tolerance: f64) -> Ring {
        let points = ring.points();
        let n = points.len();
        if n < 4 {
            return ring.clone();
        }
        let orientation = ring.signed_area().signum();
        let mut keep = Vec::with_capacity(n);
        let mut removed_prev = false;
        let mut removed_first_noncollinear = false;
        for i in 0..n {
            let prev = points[(i + n - 1) % n];
            let cur = points[i];
            let next = points[(i + 1) % n];
            let dist = cur.distance_to_segment(prev, next);
            let turn = (cur - prev).cross(next - cur);
            let exactly_collinear = dist <= 1e-9;
            let shrinks = orientation * turn >= 0.0 || exactly_collinear;
            let wrap_blocked = i == n - 1 && removed_first_noncollinear;
            let removable = dist <= tolerance
                && shrinks
                && (exactly_collinear || (!removed_prev && !wrap_blocked));
            if removable {
                removed_prev = true;
                if i == 0 && !exactly_collinear {
                    removed_first_noncollinear = true;
                }
            } else {
                keep.push(cur);
                removed_prev = false;
            }
        }
        if keep.len() < 3 {
            return ring.clone();
        }
        Ring::new(keep)
    }

    #[test]
    fn simplification_matches_the_hypot_reference() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5171_0001);
        for _ in 0..300 {
            let center = Vec2::new(rng.gen_range(-2e4..2e4), rng.gen_range(-2e4..2e4));
            let radius = 0.5 * 40_000f64.powf(rng.gen::<f64>());
            let n = rng.gen_range(4..64);
            // A wobbly polygon with some exactly and nearly collinear
            // vertices spliced in.
            let mut points: Vec<Vec2> = (0..n)
                .map(|i| {
                    let a = std::f64::consts::TAU * i as f64 / n as f64;
                    let r = radius * rng.gen_range(0.9..1.1);
                    center + Vec2::new(a.cos(), a.sin()) * r
                })
                .collect();
            for i in (0..points.len()).rev().step_by(3) {
                let next = points[(i + 1) % points.len()];
                let mid = points[i].lerp(next, 0.5);
                let off = (next - points[i]).perp().normalized()
                    * nudged(1e-9, rng.gen_range(-4..=4))
                    * rng.gen_range(0.0..2.0);
                points.insert(i + 1, mid + off);
            }
            if rng.gen_bool(0.5) {
                points.reverse();
            }
            let ring = Ring::new(points);
            // The escalated solver tolerances, and tolerances within a few
            // ulps of the distances the test measures.
            let mut tolerances = vec![0.25, 1.0, 4.0, 16.0, -1.0];
            let pts = ring.points();
            for i in 0..pts.len() {
                let prev = pts[(i + pts.len() - 1) % pts.len()];
                let next = pts[(i + 1) % pts.len()];
                let d = pts[i].distance_to_segment(prev, next);
                if d > 0.0 && rng.gen_bool(0.2) {
                    tolerances.push(nudged(d, rng.gen_range(-4..=4)));
                }
            }
            for tolerance in tolerances {
                assert_eq!(
                    bits(ring.simplified(tolerance).points()),
                    bits(simplified_reference(&ring, tolerance).points()),
                    "tolerance {tolerance:e}"
                );
            }
        }
    }

    #[test]
    fn edges_returns_closed_chain() {
        let sq = unit_square();
        let edges = sq.edges();
        assert_eq!(edges.len(), 4);
        assert_eq!(edges[3].1, edges[0].0);
    }

    #[test]
    fn non_finite_points_are_dropped() {
        let r = Ring::new(vec![
            Vec2::new(0.0, 0.0),
            Vec2::new(f64::NAN, 1.0),
            Vec2::new(1.0, 0.0),
            Vec2::new(1.0, 1.0),
            Vec2::new(0.0, 1.0),
        ]);
        assert_eq!(r.len(), 4);
        assert!(r.points().iter().all(|p| p.is_finite()));
    }
}
