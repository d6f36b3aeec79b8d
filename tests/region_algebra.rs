//! Property tests locking down the n-ary region algebra added by the
//! region-engine overhaul.
//!
//! The chained pairwise sweeps (`a.intersect(&b).intersect(&c)…`) are the
//! behavioural reference: `Region::intersect_many` / `Region::union_many`
//! must be area-equivalent to the chain and membership-equivalent against
//! the analytic ground truth away from flattening-scale boundary bands,
//! across randomized disk/polygon operand sets. On top of the n-ary/pairwise
//! parity, the n-ary difference and xor of the raw sweep
//! (`scanline::boolean_op`) against chained two-operand ops, the classic
//! algebra identities (De Morgan, absorption) and the
//! morphological laws (dilation monotonicity and containment, the
//! `dilate(0)`/`erode(0)` clone short-circuits) are pinned here.
//!
//! The workspace's proptest stand-in generates cases from a fixed per-test
//! seed, so CI runs are reproducible by construction.

use octant_region::scanline::{boolean_op, BoolOp};
use octant_region::{BandedRegion, Region, Ring, Vec2};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// An analytically-known operand: a disk or an axis-aligned rectangle, at
/// the coordinate scale of real Octant constraints.
#[derive(Debug, Clone)]
struct Shape {
    region: Region,
    /// Analytic membership with a signed margin: `true` only when `p` is at
    /// least `margin` km inside, `false` only when at least `margin` outside.
    kind: ShapeKind,
}

#[derive(Debug, Clone, Copy)]
enum ShapeKind {
    Disk { c: Vec2, r: f64 },
    Rect { lo: Vec2, hi: Vec2 },
}

impl Shape {
    fn contains_analytic(&self, p: Vec2) -> bool {
        match self.kind {
            ShapeKind::Disk { c, r } => c.distance(p) <= r,
            ShapeKind::Rect { lo, hi } => p.x >= lo.x && p.x <= hi.x && p.y >= lo.y && p.y <= hi.y,
        }
    }

    /// Distance from `p` to the analytic boundary (used to skip the
    /// flattening-width band where exact and analytic may differ).
    fn boundary_distance(&self, p: Vec2) -> f64 {
        match self.kind {
            ShapeKind::Disk { c, r } => (c.distance(p) - r).abs(),
            ShapeKind::Rect { lo, hi } => {
                let dx = (lo.x - p.x).max(p.x - hi.x);
                let dy = (lo.y - p.y).max(p.y - hi.y);
                if dx <= 0.0 && dy <= 0.0 {
                    (-dx).min(-dy)
                } else {
                    Vec2::new(dx.max(0.0), dy.max(0.0)).length()
                }
            }
        }
    }
}

/// Builds a deterministic mixed disk/rectangle operand set from the raw
/// numbers a proptest case supplies.
fn shapes_from(seed: (f64, f64, f64, u64), count: usize) -> Vec<Shape> {
    let (x0, y0, r0, salt) = seed;
    let mut out = Vec::with_capacity(count);
    let mut h = salt;
    for i in 0..count {
        // Cheap deterministic scatter derived from the case inputs.
        h = h
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let fx = ((h >> 16) & 0xffff) as f64 / 65535.0 - 0.5;
        let fy = ((h >> 32) & 0xffff) as f64 / 65535.0 - 0.5;
        let fr = ((h >> 48) & 0xffff) as f64 / 65535.0;
        let c = Vec2::new(x0 + fx * 900.0, y0 + fy * 900.0);
        let r = r0 + fr * 400.0;
        if i % 3 == 2 {
            let half = Vec2::new(r, r * 0.7 + 40.0);
            out.push(Shape {
                region: Region::rectangle(c - half, c + half),
                kind: ShapeKind::Rect {
                    lo: c - half,
                    hi: c + half,
                },
            });
        } else {
            out.push(Shape {
                region: Region::disk(c, r),
                kind: ShapeKind::Disk { c, r },
            });
        }
    }
    out
}

/// Total area of a ring set.
fn rings_area(rings: &[Ring]) -> f64 {
    rings.iter().map(Ring::area).sum()
}

/// Even-odd membership over a ring set.
fn even_odd(rings: &[Ring], p: Vec2) -> bool {
    rings.iter().filter(|r| r.contains(p)).count() % 2 == 1
}

fn chained_intersection(shapes: &[Shape]) -> Region {
    let mut acc = shapes[0].region.clone();
    for s in &shapes[1..] {
        acc = acc.intersect(&s.region);
    }
    acc
}

fn chained_union(shapes: &[Shape]) -> Region {
    let mut acc = shapes[0].region.clone();
    for s in &shapes[1..] {
        acc = acc.union(&s.region);
    }
    acc
}

/// Grid membership check of `contains` against an analytic predicate,
/// skipping points within `margin` km of any analytic boundary.
fn assert_grid_membership(
    contains: impl Fn(Vec2) -> bool,
    shapes: &[Shape],
    margin: f64,
    want: impl Fn(&dyn Fn(usize, Vec2) -> bool, Vec2) -> bool,
) -> Result<(), proptest::TestCaseError> {
    let bbox = shapes.iter().fold(None::<(Vec2, Vec2)>, |acc, s| {
        let bb = s.region.bbox();
        match (acc, bb) {
            (None, b) => b,
            (a, None) => a,
            (Some((alo, ahi)), Some((blo, bhi))) => Some((alo.min(blo), ahi.max(bhi))),
        }
    });
    let (lo, hi) = match bbox {
        Some(b) => b,
        None => return Ok(()),
    };
    let member = |i: usize, p: Vec2| shapes[i].contains_analytic(p);
    for gx in 0..24 {
        for gy in 0..24 {
            let p = Vec2::new(
                lo.x + (hi.x - lo.x) * (gx as f64 + 0.5) / 24.0,
                lo.y + (hi.y - lo.y) * (gy as f64 + 0.5) / 24.0,
            );
            if shapes.iter().any(|s| s.boundary_distance(p) < margin) {
                continue;
            }
            let expected = want(&member, p);
            prop_assert_eq!(
                contains(p),
                expected,
                "membership mismatch at {} (expected {})",
                p,
                expected
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// `intersect_many` is area-equivalent to the chained pairwise reference
    /// and membership-equivalent to the analytic intersection on a grid.
    #[test]
    fn intersect_many_matches_chained_reference(
        x in -400.0f64..400.0,
        y in -400.0f64..400.0,
        r in 250.0f64..700.0,
        salt in 0u64..u64::MAX,
        count in 3usize..9,
    ) {
        let shapes = shapes_from((x, y, r, salt), count);
        let chained = chained_intersection(&shapes);
        let nary = Region::intersect_many(shapes.iter().map(|s| &s.region)).into_region();
        let (ca, na) = (chained.area(), nary.area());
        let scale = ca.max(na).max(1.0);
        prop_assert!((ca - na).abs() / scale < 1e-6, "chained {ca} vs n-ary {na}");
        assert_grid_membership(|p| nary.contains(p), &shapes, 3.0, |member, p| {
            (0..shapes.len()).all(|i| member(i, p))
        })?;
    }

    /// `union_many` is area-equivalent to the chained pairwise reference and
    /// membership-equivalent to the analytic union on a grid.
    #[test]
    fn union_many_matches_chained_reference(
        x in -400.0f64..400.0,
        y in -400.0f64..400.0,
        r in 150.0f64..500.0,
        salt in 0u64..u64::MAX,
        count in 3usize..9,
    ) {
        let shapes = shapes_from((x, y, r, salt), count);
        let chained = chained_union(&shapes);
        let nary = Region::union_many(shapes.iter().map(|s| &s.region));
        let (ca, na) = (chained.area(), nary.area());
        let scale = ca.max(na).max(1.0);
        prop_assert!((ca - na).abs() / scale < 1e-6, "chained {ca} vs n-ary {na}");
        assert_grid_membership(|p| nary.contains(p), &shapes, 3.0, |member, p| {
            (0..shapes.len()).any(|i| member(i, p))
        })?;
    }

    /// One n-ary difference sweep (a large minuend minus 2–4 disks and
    /// rectangles) is area-equivalent to the chain of two-operand
    /// subtractions and membership-equivalent to the analytic difference.
    #[test]
    fn nary_difference_matches_chained_reference(
        x in -300.0f64..300.0,
        y in -300.0f64..300.0,
        r in 125.0f64..300.0,
        salt in 0u64..u64::MAX,
        count in 3usize..6,
    ) {
        let c = Vec2::new(x, y);
        let mut shapes = vec![Shape {
            region: Region::disk(c, 4.0 * r),
            kind: ShapeKind::Disk { c, r: 4.0 * r },
        }];
        shapes.extend(shapes_from((x, y, r, salt), count - 1));
        let mut chained = shapes[0].region.clone();
        for s in &shapes[1..] {
            chained = chained.subtract(&s.region);
        }
        let operands: Vec<&[Ring]> = shapes.iter().map(|s| s.region.rings()).collect();
        let nary = boolean_op(&operands, BoolOp::Difference);
        let (ca, na) = (chained.area(), rings_area(&nary));
        prop_assert!((ca - na).abs() / ca.max(na).max(1.0) < 1e-6, "chained {ca} vs n-ary {na}");
        assert_grid_membership(|p| even_odd(&nary, p), &shapes, 3.0, |member, p| {
            member(0, p) && !(1..shapes.len()).any(|i| member(i, p))
        })?;
    }

    /// One n-ary xor sweep over 3–5 disks and rectangles (points covered
    /// an odd number of times) is area-equivalent to the chain of
    /// two-operand xors and membership-equivalent to the analytic parity.
    #[test]
    fn nary_xor_matches_chained_reference(
        x in -400.0f64..400.0,
        y in -400.0f64..400.0,
        r in 250.0f64..600.0,
        salt in 0u64..u64::MAX,
        count in 3usize..6,
    ) {
        let shapes = shapes_from((x, y, r, salt), count);
        let mut chained = shapes[0].region.clone();
        for s in &shapes[1..] {
            chained = chained.xor(&s.region);
        }
        let operands: Vec<&[Ring]> = shapes.iter().map(|s| s.region.rings()).collect();
        let nary = boolean_op(&operands, BoolOp::Xor);
        let (ca, na) = (chained.area(), rings_area(&nary));
        prop_assert!((ca - na).abs() / ca.max(na).max(1.0) < 1e-6, "chained {ca} vs n-ary {na}");
        assert_grid_membership(|p| even_odd(&nary, p), &shapes, 3.0, |member, p| {
            (0..shapes.len()).filter(|&i| member(i, p)).count() % 2 == 1
        })?;
    }

    /// De Morgan within a frame: `F \ (A ∪ B)` has the same area as
    /// `(F \ A) ∩ (F \ B)`.
    #[test]
    fn de_morgan_in_a_frame(
        x in -300.0f64..300.0,
        y in -300.0f64..300.0,
        r in 200.0f64..600.0,
        salt in 0u64..u64::MAX,
    ) {
        let shapes = shapes_from((x, y, r, salt), 2);
        let (a, b) = (&shapes[0].region, &shapes[1].region);
        let frame = Region::rectangle(Vec2::new(-2200.0, -2200.0), Vec2::new(2200.0, 2200.0));
        let lhs = frame.subtract(&a.union(b));
        let rhs = Region::intersect_many([&frame.subtract(a), &frame.subtract(b)]).into_region();
        let scale = lhs.area().max(rhs.area()).max(1.0);
        prop_assert!(
            (lhs.area() - rhs.area()).abs() / scale < 1e-4,
            "De Morgan violated: {} vs {}", lhs.area(), rhs.area()
        );
    }

    /// Absorption: `A ∪ (A ∩ B) = A` and `A ∩ (A ∪ B) = A` (in area).
    #[test]
    fn absorption_identities(
        x in -300.0f64..300.0,
        y in -300.0f64..300.0,
        r in 200.0f64..600.0,
        salt in 0u64..u64::MAX,
    ) {
        let shapes = shapes_from((x, y, r, salt), 2);
        let (a, b) = (&shapes[0].region, &shapes[1].region);
        let lhs1 = a.union(&a.intersect(b));
        prop_assert!((lhs1.area() - a.area()).abs() / a.area().max(1.0) < 1e-4,
            "A ∪ (A∩B) = {} vs |A| = {}", lhs1.area(), a.area());
        let lhs2 = a.intersect(&a.union(b));
        prop_assert!((lhs2.area() - a.area()).abs() / a.area().max(1.0) < 1e-4,
            "A ∩ (A∪B) = {} vs |A| = {}", lhs2.area(), a.area());
    }

    /// The banded-core round trip `Region → BandedRegion → contours →
    /// Region`: every representation is area-equal within 1e-9 (relative),
    /// grid membership agrees away from flattening-scale boundary bands,
    /// and contour extraction is bit-deterministic across calls.
    #[test]
    fn banded_contour_round_trip(
        x in -400.0f64..400.0,
        y in -400.0f64..400.0,
        r in 150.0f64..500.0,
        salt in 0u64..u64::MAX,
        count in 2usize..7,
    ) {
        let shapes = shapes_from((x, y, r, salt), count);
        let region = chained_union(&shapes);
        let area = region.area().max(1.0);

        // Region → BandedRegion.
        let banded = BandedRegion::from_region(&region);
        prop_assert!(
            (banded.area() - region.area()).abs() <= 1e-9 * area,
            "banded area {} vs region {}", banded.area(), region.area()
        );

        // BandedRegion → contours (signed areas sum to the banded area).
        let contours = banded.extract_contours();
        let contour_area = BandedRegion::contour_area(&contours);
        prop_assert!(
            (contour_area - banded.area()).abs() <= 1e-9 * area,
            "contour area {contour_area} vs banded {}", banded.area()
        );

        // Determinism pin: extraction is bit-identical across calls.
        let again = banded.extract_contours();
        prop_assert_eq!(contours.len(), again.len());
        for (a, b) in contours.iter().zip(&again) {
            prop_assert_eq!(a.points().len(), b.points().len());
            for (p, q) in a.points().iter().zip(b.points()) {
                prop_assert_eq!(p.x.to_bits(), q.x.to_bits());
                prop_assert_eq!(p.y.to_bits(), q.y.to_bits());
            }
        }

        // Contours → Region (re-normalized through the boolean engine).
        let rebuilt = Region::from_rings_even_odd(contours.clone());
        prop_assert!(
            (rebuilt.area() - region.area()).abs() <= 1e-9 * area,
            "rebuilt area {} vs region {}", rebuilt.area(), region.area()
        );

        // Grid-membership parity of all four representations, away from
        // the analytic boundaries.
        let even_odd = |p: Vec2| contours.iter().filter(|c| c.contains(p)).count() % 2 == 1;
        assert_grid_membership(|p| region.contains(p), &shapes, 3.0, |member, p| {
            (0..shapes.len()).any(|i| member(i, p))
        })?;
        if let Some((lo, hi)) = region.bbox() {
            for gx in 0..16 {
                for gy in 0..16 {
                    let p = Vec2::new(
                        lo.x + (hi.x - lo.x) * (gx as f64 + 0.5) / 16.0,
                        lo.y + (hi.y - lo.y) * (gy as f64 + 0.5) / 16.0,
                    );
                    if shapes.iter().any(|s| s.boundary_distance(p) < 3.0) {
                        continue;
                    }
                    let want = region.contains(p);
                    prop_assert_eq!(banded.contains(p), want, "banded at {}", p);
                    prop_assert_eq!(even_odd(p), want, "contours at {}", p);
                    prop_assert_eq!(rebuilt.contains(p), want, "rebuilt at {}", p);
                }
            }
        }
    }

    /// Dilation is monotone in the radius and contains the original region.
    #[test]
    fn dilation_monotonicity_and_containment(
        x in -300.0f64..300.0,
        y in -300.0f64..300.0,
        r in 150.0f64..450.0,
        salt in 0u64..u64::MAX,
        count in 1usize..4,
        r1 in 20.0f64..250.0,
        r2 in 10.0f64..250.0,
    ) {
        let shapes = shapes_from((x, y, r, salt), count);
        let region = chained_union(&shapes);
        let grown_small = region.dilate(r1);
        let grown_large = region.dilate(r1 + r2);
        // Monotonicity (a small slack absorbs arc-sampling differences
        // between the two radius classes).
        prop_assert!(
            grown_small.area() <= grown_large.area() * (1.0 + 1e-6) + 1.0,
            "dilate({r1}) = {} exceeds dilate({}) = {}",
            grown_small.area(), r1 + r2, grown_large.area()
        );
        prop_assert!(grown_small.area() >= region.area() - 1.0);
        // Containment of the original: sampled interior points stay inside.
        let mut rng = StdRng::seed_from_u64(salt ^ 0x9e3779b97f4a7c15);
        for _ in 0..40 {
            if let Some(p) = region.sample_point(&mut rng) {
                prop_assert!(grown_small.contains(p), "dilation lost interior point {p}");
            }
        }
    }
}

/// Contour extraction must preserve nested rings: a region with a hole
/// yields a counter-clockwise outer contour plus a clockwise hole contour,
/// membership excludes the hole, and the signed areas still sum to the
/// region's area within 1e-9.
#[test]
fn contour_extraction_preserves_holes() {
    let outer = Region::disk(Vec2::new(5.0, -3.0), 300.0);
    let hole = Region::disk(Vec2::new(20.0, 10.0), 120.0);
    let region = outer.subtract(&hole);
    let banded = BandedRegion::from_region(&region);
    let contours = banded.extract_contours();

    let ccw = contours.iter().filter(|r| r.is_ccw()).count();
    let cw = contours.len() - ccw;
    assert!(ccw >= 1, "an outer contour must wind counter-clockwise");
    assert!(cw >= 1, "the hole must survive as a clockwise contour");
    assert!(
        contours.len() < banded.to_region().ring_count(),
        "contours must be a strictly smaller representation than the soup"
    );

    let contour_area = BandedRegion::contour_area(&contours);
    assert!(
        (contour_area - region.area()).abs() <= 1e-9 * region.area(),
        "signed contour area {contour_area} vs region {}",
        region.area()
    );

    // Independent Monte-Carlo cross-check over the region's cached-bbox
    // sampling window: the annulus area (outer minus hole) is what both
    // the exact machinery and the contours must be describing.
    let mut rng = StdRng::seed_from_u64(17);
    let mc = octant_region::montecarlo::estimate_region_area(&mut rng, &region, 10.0, 30_000);
    let rel = (mc - region.area()).abs() / region.area();
    assert!(rel < 0.05, "Monte-Carlo area disagrees by {rel}");

    // Membership: even-odd over the contours and the re-normalized region
    // both exclude the hole and keep the annulus body.
    let even_odd = |p: Vec2| contours.iter().filter(|c| c.contains(p)).count() % 2 == 1;
    let rebuilt = Region::from_rings_even_odd(contours.clone());
    let in_hole = Vec2::new(20.0, 10.0);
    let in_body = Vec2::new(5.0, -250.0);
    assert!(!even_odd(in_hole) && !rebuilt.contains(in_hole));
    assert!(even_odd(in_body) && rebuilt.contains(in_body));
}

/// `dilate(0)` and `erode(0)` must short-circuit to a bit-identical clone —
/// no frame construction, no complement dilation, no sweep (the
/// `Region::erode` zero-radius pin from the region-engine overhaul).
#[test]
fn zero_radius_morphology_is_a_clone() {
    let shapes = shapes_from((25.0, -40.0, 300.0, 7), 3);
    let region = chained_union(&shapes);
    assert_eq!(region.dilate(0.0), region);
    assert_eq!(region.erode(0.0), region);
    assert_eq!(region.dilate(-5.0), region);
    assert_eq!(region.erode(-5.0), region);
    let empty = Region::empty();
    assert_eq!(empty.dilate(0.0), empty);
    assert_eq!(empty.erode(0.0), empty);
}

/// Erosion then dilation stays inside the original (morphological opening
/// is anti-extensive), pinning erode against the new dilation fast paths.
#[test]
fn erode_then_dilate_stays_inside() {
    let region = Region::disk(Vec2::new(10.0, -20.0), 400.0);
    let opened = region.erode(80.0).dilate(80.0);
    let mut rng = StdRng::seed_from_u64(11);
    for _ in 0..60 {
        if let Some(p) = opened.sample_point(&mut rng) {
            // Allow the flattening-scale boundary band.
            assert!(
                region.contains(p) || region.distance_to(p) < 5.0,
                "opening escaped the original at {p}"
            );
        }
    }
    assert!(opened.area() <= region.area() * 1.01);
}

/// The solver-facing simplification: vertex counts drop (or stay) while the
/// area moves by no more than the tolerance times the perimeter scale.
#[test]
fn simplify_reduces_vertices_without_moving_area() {
    let mut estimate = Region::disk(Vec2::ZERO, 900.0);
    for i in 0..8 {
        let c = Vec2::new((i as f64 - 4.0) * 120.0, (i as f64).sin() * 150.0);
        estimate = estimate.intersect(&Region::disk(c, 800.0));
    }
    let simplified = estimate.simplify(0.25);
    assert!(
        simplified.vertex_count() <= estimate.vertex_count(),
        "simplify grew the representation: {} -> {}",
        estimate.vertex_count(),
        simplified.vertex_count()
    );
    let rel = (simplified.area() - estimate.area()).abs() / estimate.area();
    assert!(rel < 1e-3, "simplification moved the area by {rel}");

    let budgeted = estimate.simplify_to_budget(0.25, 64);
    assert!(
        budgeted.vertex_count() < estimate.vertex_count(),
        "budgeted simplification must compress a fragmented estimate"
    );
    let rel = (budgeted.area() - estimate.area()).abs() / estimate.area();
    assert!(rel < 0.02, "budget escalation moved the area by {rel}");
}
