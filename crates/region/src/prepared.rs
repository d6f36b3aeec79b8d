//! Point containment prepared once per region.
//!
//! Constraint scoring asks one region whether each of many points lies in
//! it, and for a flattened disk of a few hundred vertices every answer from
//! [`Region::contains`] is an even-odd walk over every edge.
//! [`PreparedContains`] answers most of those points from two radii about
//! the ring's centre instead, and the rest from the walk itself.

use crate::region::Region;
use crate::ring::Ring;
use crate::vec2::Vec2;

/// The radial margin, relative to the ring's coordinate scale (its centre's
/// largest coordinate plus its outer radius). It is about 10⁷ times the
/// rounding error of the even-odd walk's crossing abscissae, of the centre's
/// distances to the edge lines and of a query point's distance to the
/// centre, each of which is a few units in the last place of that scale.
const RELATIVE_MARGIN: f64 = 1e-9;

/// [`Region::contains`] prepared for many queries against one region, with
/// the same answer on every point. Built by [`Region::prepare_contains`].
///
/// For a region of one simple convex ring ([`Ring::is_convex`]), preparation
/// measures an inner radius (the least distance from the centre of the
/// ring's bounding box to an edge line, when the centre is inside every
/// edge's half-plane) and an outer radius (the greatest distance to a
/// vertex). A point closer to the centre than the inner radius less the
/// margin is inside the ring, and one farther than the outer radius plus
/// the margin is outside it. The even-odd walk agrees on both:
///
/// * Outside the outer radius, every crossing of the point's ray with an
///   edge lies at least the margin away from the point, so the walk counts
///   an even number of crossings to its right.
/// * Inside the inner radius, the point lies at least the margin inside
///   every edge's half-plane. The boundary then winds around it as often as
///   it turns, which for a ring that turns once is once: one crossing to
///   its right, each again at least the margin away from the point.
///
/// Every other point, every point of any other region (empty, several
/// rings, holes, a non-convex or self-intersecting ring) and every
/// non-finite point takes [`Region::contains`] itself.
#[derive(Debug, Clone, Copy)]
pub struct PreparedContains<'a> {
    region: &'a Region,
    radial: Option<Radial>,
}

/// The squared radii about `center` that answer without the walk.
#[derive(Debug, Clone, Copy)]
struct Radial {
    center: Vec2,
    /// Strictly closer than this (squared) is inside; `-∞` when the centre
    /// is not inside every edge's half-plane by the margin.
    inner_sq: f64,
    /// Strictly farther than this (squared) is outside.
    outer_sq: f64,
}

impl<'a> PreparedContains<'a> {
    pub(crate) fn new(region: &'a Region) -> Self {
        let radial = match region.rings() {
            [ring] if ring.is_convex() => radial_bounds(ring),
            _ => None,
        };
        PreparedContains { region, radial }
    }

    /// `region.contains(p)`.
    pub fn contains(&self, p: Vec2) -> bool {
        if let Some(radial) = &self.radial {
            let d = p - radial.center;
            let d_sq = d.x * d.x + d.y * d.y;
            if d_sq < radial.inner_sq {
                return true;
            }
            if d_sq > radial.outer_sq {
                return false;
            }
        }
        self.region.contains(p)
    }
}

/// The inner and outer radii of a ring that turns once, about its bounding
/// box's centre, each moved inward/outward by the margin. `None` for rings
/// with fewer than three vertices.
fn radial_bounds(ring: &Ring) -> Option<Radial> {
    let points = ring.points();
    let (lo, hi) = ring.bbox()?;
    if points.len() < 3 {
        return None;
    }
    let center = (lo + hi) * 0.5;
    // The inner side of each edge: left for a counter-clockwise ring.
    let side = if ring.is_ccw() { 1.0 } else { -1.0 };
    let mut inner = f64::INFINITY;
    let mut outer_sq = 0.0f64;
    for (i, &a) in points.iter().enumerate() {
        outer_sq = outer_sq.max((a - center).length_squared());
        let edge = points[(i + 1) % points.len()] - a;
        // `sqrt` of the squared length, not `hypot`: the two differ by a
        // few ulps, far under the margin the inner radius is moved by.
        let length = edge.length_squared().sqrt();
        if length > 0.0 {
            inner = inner.min(side * edge.cross(center - a) / length);
        }
    }
    let outer = outer_sq.sqrt();
    let margin = RELATIVE_MARGIN * (center.x.abs().max(center.y.abs()) + outer);
    let inner = inner - margin;
    Some(Radial {
        center,
        inner_sq: if inner > 0.0 {
            inner * inner
        } else {
            f64::NEG_INFINITY
        },
        outer_sq: (outer + margin) * (outer + margin),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::tests::pentagram;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Asserts the probe answers like `region.contains` on every point and
    /// returns how many it answered from its radii.
    fn assert_agrees(region: &Region, points: &[Vec2]) -> usize {
        let probe = region.prepare_contains();
        let mut radial = 0;
        for &p in points {
            assert_eq!(
                probe.contains(p),
                region.contains(p),
                "{p:?} in a region of {} rings",
                region.ring_count()
            );
            if let Some(r) = &probe.radial {
                let d = p - r.center;
                let d_sq = d.x * d.x + d.y * d.y;
                radial += usize::from(d_sq < r.inner_sq || d_sq > r.outer_sq);
            }
        }
        radial
    }

    /// Points within 1e-12–1e-3 km of every vertex and of every edge's
    /// midpoint, on both sides, and uniform points over a box twice the
    /// region's bounding box.
    fn probe_points(region: &Region, rng: &mut StdRng) -> (Vec<Vec2>, Vec<Vec2>) {
        let mut points = vec![Vec2::new(f64::NAN, 0.0), Vec2::new(f64::INFINITY, 0.0)];
        let offsets = [1e-12, 1e-9, 1e-6, 1e-3];
        for ring in region.rings() {
            let pts = ring.points();
            for (i, &a) in pts.iter().enumerate() {
                let b = pts[(i + 1) % pts.len()];
                let normal = (b - a).perp().normalized();
                let mid = (a + b) * 0.5;
                for &off in &offsets {
                    for s in [-1.0, 1.0] {
                        points.push(a + normal * (s * off));
                        points.push(mid + normal * (s * off));
                        let angle = rng.gen_range(0.0..std::f64::consts::TAU);
                        points.push(a + Vec2::new(angle.cos(), angle.sin()) * (s * off));
                    }
                }
            }
        }
        let mut uniform = Vec::new();
        if let Some((lo, hi)) = region.bbox() {
            let pad = (hi - lo) * 0.5;
            let (lo, hi) = (lo - pad, hi + pad);
            uniform.push((lo + hi) * 0.5);
            for _ in 0..2000 {
                uniform.push(Vec2::new(
                    rng.gen_range(lo.x..=hi.x),
                    rng.gen_range(lo.y..=hi.y),
                ));
            }
        }
        (points, uniform)
    }

    #[test]
    fn radial_answers_match_the_even_odd_walk_on_disks() {
        let mut rng = StdRng::seed_from_u64(0x9A0B);
        for _ in 0..60 {
            let radius = 10f64.powf(rng.gen_range(0.5f64.log10()..20_000f64.log10()));
            let distance = rng.gen_range(0.0..20_000.0);
            let angle = rng.gen_range(0.0..std::f64::consts::TAU);
            let center = Vec2::new(angle.cos(), angle.sin()) * distance;
            let disk = Region::disk(center, radius);
            assert!(disk.prepare_contains().radial.is_some());
            let (near, uniform) = probe_points(&disk, &mut rng);
            assert_agrees(&disk, &near);
            // Away from the boundary most points skip the walk. The share
            // is lowest for disks below the 1 km flattening tolerance, which
            // flatten to a few vertices and leave a wide annulus between
            // the radii.
            let radial = assert_agrees(&disk, &uniform);
            assert!(
                radial * 100 > uniform.len() * 85,
                "{radial} of {}",
                uniform.len()
            );
        }
    }

    #[test]
    fn radial_answers_match_the_even_odd_walk_on_convex_polygons() {
        let mut rng = StdRng::seed_from_u64(0x9A0C);
        for _ in 0..200 {
            // The convex hull of a point cloud, traced in either orientation.
            let center = Vec2::new(rng.gen_range(-2e4..2e4), rng.gen_range(-2e4..2e4));
            let spread = 10f64.powf(rng.gen_range(-1.0..4.0));
            let mut cloud: Vec<Vec2> = (0..rng.gen_range(3..40))
                .map(|_| {
                    center + Vec2::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)) * spread
                })
                .collect();
            let mut hull = convex_hull(&mut cloud);
            if rng.gen_bool(0.5) {
                hull.reverse();
            }
            let ring = Ring::new(hull);
            assert!(ring.is_convex());
            let region = Region::from_ring(ring);
            if region.is_empty() {
                continue;
            }
            assert!(region.prepare_contains().radial.is_some());
            let (near, uniform) = probe_points(&region, &mut rng);
            assert_agrees(&region, &near);
            assert_agrees(&region, &uniform);
        }
        // Rectangles: the bbox centre is the centre, edges axis-parallel.
        let rect = Region::rectangle(Vec2::new(-3.0, 5.0), Vec2::new(7.0, 5.5));
        let (near, uniform) = probe_points(&rect, &mut rng);
        assert_agrees(&rect, &near);
        assert!(assert_agrees(&rect, &uniform) > 0);
        // A right triangle: the bbox centre lies on the hypotenuse, so only
        // the outer radius answers.
        let triangle = Region::from_ring(Ring::new(vec![
            Vec2::new(0.0, 0.0),
            Vec2::new(10.0, 0.0),
            Vec2::new(10.0, 4.0),
        ]));
        let probe = triangle.prepare_contains();
        assert_eq!(probe.radial.map(|r| r.inner_sq), Some(f64::NEG_INFINITY));
        let (near, uniform) = probe_points(&triangle, &mut rng);
        assert_agrees(&triangle, &near);
        assert_agrees(&triangle, &uniform);
    }

    #[test]
    fn every_other_region_takes_the_walk() {
        let mut rng = StdRng::seed_from_u64(0x9A0D);
        let l_shape = Region::from_ring(Ring::new(vec![
            Vec2::new(0.0, 0.0),
            Vec2::new(20.0, 0.0),
            Vec2::new(20.0, 10.0),
            Vec2::new(10.0, 10.0),
            Vec2::new(10.0, 20.0),
            Vec2::new(0.0, 20.0),
        ]));
        let two_disks =
            Region::disk(Vec2::ZERO, 50.0).union(&Region::disk(Vec2::new(500.0, 0.0), 50.0));
        let lens = Region::disk(Vec2::new(-30.0, 0.0), 50.0)
            .intersect(&Region::disk(Vec2::new(30.0, 0.0), 50.0));
        let holed = Region::annulus(Vec2::new(100.0, -40.0), 30.0, 80.0);
        let star = Region::from_ring(pentagram(100.0));
        for (name, region) in [
            ("l-shape", l_shape),
            ("two disks", two_disks),
            ("lens", lens),
            ("annulus", holed),
            ("pentagram", star),
            ("empty", Region::empty()),
        ] {
            assert!(
                region.prepare_contains().radial.is_none(),
                "{name} must take the walk"
            );
            let (near, uniform) = probe_points(&region, &mut rng);
            assert_eq!(assert_agrees(&region, &near), 0, "{name}");
            assert_eq!(assert_agrees(&region, &uniform), 0, "{name}");
        }
        // The pentagram's centre is wound twice: outside under even-odd,
        // although it lies inside every edge's half-plane.
        let star = Region::from_ring(pentagram(100.0));
        assert!(!star.prepare_contains().contains(Vec2::ZERO));
    }

    /// Andrew's monotone chain, counter-clockwise, collinear points dropped.
    fn convex_hull(points: &mut [Vec2]) -> Vec<Vec2> {
        points.sort_by(|a, b| a.x.total_cmp(&b.x).then(a.y.total_cmp(&b.y)));
        let mut hull: Vec<Vec2> = Vec::new();
        for chain in [points.to_vec(), points.iter().rev().copied().collect()] {
            let start = hull.len();
            for p in chain {
                while hull.len() >= start + 2 {
                    let (a, b) = (hull[hull.len() - 2], hull[hull.len() - 1]);
                    if (b - a).cross(p - b) > 0.0 {
                        break;
                    }
                    hull.pop();
                }
                hull.push(p);
            }
            hull.pop();
        }
        hull
    }
}
