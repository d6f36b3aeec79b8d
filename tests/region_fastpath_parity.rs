//! Parity pins for the region-engine fast paths.
//!
//! Every fast path added by the region-engine overhaul must be
//! indistinguishable from the general construction it bypasses:
//!
//! * the **bbox fast paths** (disjoint-operand short-circuits, convex
//!   absorption) are pinned **area-equal within 1e-9 (relative)** and
//!   membership-equal on a point grid against the raw scanline sweep
//!   (`octant_region::scanline::boolean_op` over the two operands), which
//!   stays the general path;
//! * the **disk and convex dilation specializations** are pinned against
//!   [`Region::dilate_reference`] — the original Minkowski-by-capsules
//!   construction, kept as the exact reference — within the documented
//!   arc-sampling bound, against the *analytic* dilated area where one
//!   exists (tighter than the reference itself achieves), and bit-identical
//!   across repeated evaluation so end-to-end medians stay byte-stable;
//! * the **intersection-walking union** that merges the offset rings inside
//!   the general `dilate` is pinned against [`Region::dilate_reference`]
//!   for containment and radius-monotonicity, and its engagement is
//!   observable through the `region.walk_unions` / `region.walk_fallbacks`
//!   thread counters — "fast geometry or no geometry, never wrong geometry".

use octant_region::scanline::{boolean_op, stats, BoolOp};
use octant_region::{Region, Ring, Vec2};

fn sweep(a: &Region, b: &Region, op: BoolOp) -> Region {
    let rings = boolean_op(&[a.rings(), b.rings()], op);
    let mut acc = Region::empty();
    for r in rings {
        // Rebuild through the public even-odd constructor; sweep outputs are
        // interior-disjoint so xor-accumulation is plain set union.
        acc = acc.xor(&Region::from_ring(r));
    }
    acc
}

fn assert_area_parity(fast: &Region, general: &Region, what: &str) {
    let (fa, ga) = (fast.area(), general.area());
    let scale = fa.max(ga).max(1.0);
    assert!(
        (fa - ga).abs() / scale < 1e-9,
        "{what}: fast-path area {fa} vs general sweep {ga}"
    );
}

fn assert_membership_parity(fast: &Region, general: &Region, what: &str) {
    let bbox = match (fast.bbox(), general.bbox()) {
        (Some((flo, fhi)), Some((glo, ghi))) => (flo.min(glo), fhi.max(ghi)),
        (Some(b), None) | (None, Some(b)) => b,
        (None, None) => return,
    };
    let (lo, hi) = bbox;
    for gx in 0..32 {
        for gy in 0..32 {
            let p = Vec2::new(
                lo.x + (hi.x - lo.x) * (gx as f64 + 0.5) / 32.0,
                lo.y + (hi.y - lo.y) * (gy as f64 + 0.5) / 32.0,
            );
            // Skip the numeric boundary band: trapezoid seams and original
            // edges may classify boundary-hugging points differently.
            if fast.distance_to(p) < 1e-6 && !fast.contains(p) {
                continue;
            }
            if general.distance_to(p) < 1e-6 && !general.contains(p) {
                continue;
            }
            assert_eq!(
                fast.contains(p),
                general.contains(p),
                "{what}: membership mismatch at {p}"
            );
        }
    }
}

/// The seed topologies the pins run over: constraint-scale disks and a
/// trapezoid-decomposed lens, at continental coordinates.
fn seed_disks() -> (Region, Region, Region) {
    let a = Region::disk(Vec2::new(-180.0, 40.0), 420.0);
    let b = Region::disk(Vec2::new(310.0, -60.0), 380.0);
    let far = Region::disk(Vec2::new(2600.0, 1900.0), 350.0);
    (a, b, far)
}

#[test]
fn bbox_disjoint_union_matches_general_sweep() {
    let (a, _, far) = seed_disks();
    let fast = a.union(&far); // bbox-disjoint → ring concatenation
    let general = sweep(&a, &far, BoolOp::Union);
    assert_area_parity(&fast, &general, "disjoint union");
    assert_membership_parity(&fast, &general, "disjoint union");
}

#[test]
fn bbox_disjoint_intersection_is_exactly_empty() {
    let (a, _, far) = seed_disks();
    let fast = a.intersect(&far);
    let general = sweep(&a, &far, BoolOp::Intersection);
    assert!(fast.rings().is_empty(), "fast path must skip the sweep");
    assert_eq!(fast, Region::empty(), "bit-identical empty region");
    assert!(general.area() < 1e-9);
}

#[test]
fn bbox_disjoint_subtraction_returns_self_bit_identically() {
    let (a, _, far) = seed_disks();
    let fast = a.subtract(&far);
    assert_eq!(fast, a, "disjoint subtraction must clone the minuend");
    let general = sweep(&a, &far, BoolOp::Difference);
    assert_area_parity(&fast, &general, "disjoint subtraction");
}

#[test]
fn convex_absorption_matches_general_sweep() {
    let (a, _, _) = seed_disks();
    let huge = Region::disk(Vec2::new(0.0, 0.0), 6000.0);
    // a ∩ huge: the huge convex disk covers a's bbox, so the fast path
    // returns a clone of a.
    let fast = a.intersect(&huge);
    assert_eq!(
        fast, a,
        "absorbed intersection must be a bit-identical clone"
    );
    let general = sweep(&a, &huge, BoolOp::Intersection);
    assert_area_parity(&fast, &general, "absorbed intersection");
    assert_membership_parity(&fast, &general, "absorbed intersection");
    // a ∪ huge: the union is the huge disk.
    let fast = a.union(&huge);
    assert_eq!(fast, huge, "absorbed union must be a bit-identical clone");
    // a \ huge: empty.
    assert_eq!(a.subtract(&huge), Region::empty());
}

#[test]
fn intersect_many_absorbs_the_world_disk() {
    let (a, b, _) = seed_disks();
    let world = Region::disk_with_tolerance(Vec2::ZERO, 20_000.0, 50.0);
    let with_world = Region::intersect_many([&world, &a, &b]).into_region();
    let without = Region::intersect_many([&a, &b]).into_region();
    let scale = without.area().max(1.0);
    assert!(
        (with_world.area() - without.area()).abs() / scale < 1e-9,
        "world-disk absorption changed the intersection: {} vs {}",
        with_world.area(),
        without.area()
    );
    assert_membership_parity(&with_world, &without, "world absorption");
}

#[test]
fn disk_dilation_specialization_parity() {
    let small = Region::disk(Vec2::new(40.0, -25.0), 80.0);
    for radius in [60.0, 300.0, 900.0] {
        let fast = small.dilate(radius);
        let reference = small.dilate_reference(radius);
        // The fast path must match the analytic truth at least as tightly
        // as the fixed-resolution capsule reference is specified to
        // (π/8-arc sagitta ⇒ sub-percent area deficit).
        let truth = std::f64::consts::PI * (80.0 + radius) * (80.0 + radius);
        let fast_err = (fast.area() - truth).abs() / truth;
        // The specialization flattens a fresh Bézier circle at the adaptive
        // tolerance; its deficit is bounded by the same sub-percent error
        // `Region::disk` itself carries at constraint scale.
        assert!(
            fast_err < 0.01,
            "disk dilation by {radius}: fast area off the analytic truth by {fast_err}"
        );
        let ref_err = (reference.area() - truth).abs() / truth;
        assert!(
            (fast.area() - reference.area()).abs() / truth < ref_err + 5e-3,
            "disk dilation by {radius}: fast vs reference diverge beyond the sampling bound"
        );
        // Both contain the original region.
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..50 {
            if let Some(p) = small.sample_point(&mut rng) {
                assert!(fast.contains(p), "fast dilation lost {p}");
            }
        }
        // Determinism: repeated evaluation is bit-identical, so anything
        // derived from it (accuracy medians) is byte-stable.
        assert_eq!(fast, small.dilate(radius));
    }
}

#[test]
fn convex_dilation_specialization_parity() {
    // A convex but non-circular region: a lens-like convex polygon.
    let hull = Region::from_ring(Ring::new(vec![
        Vec2::new(-120.0, 0.0),
        Vec2::new(-40.0, -70.0),
        Vec2::new(80.0, -55.0),
        Vec2::new(130.0, 30.0),
        Vec2::new(20.0, 90.0),
        Vec2::new(-90.0, 60.0),
    ]));
    assert_eq!(hull.ring_count(), 1);
    assert!(hull.rings()[0].is_convex());
    for radius in [40.0, 250.0, 700.0] {
        let fast = hull.dilate(radius);
        let reference = hull.dilate_reference(radius);
        // Agreement within the combined arc-sampling bound: the reference
        // caps chord-sample at π/8 and the adaptive fast path at no coarser
        // than the π/4 clamp, so the boundary bands differ by at most the
        // sum of the two sagittas along the dilated perimeter.
        let sagitta = radius
            * ((1.0 - (std::f64::consts::PI / 16.0).cos())
                + (1.0 - (std::f64::consts::PI / 8.0).cos()));
        let perimeter: f64 = hull.rings()[0].perimeter() + 2.0 * std::f64::consts::PI * radius;
        let bound = (sagitta * perimeter) / reference.area() + 1e-6;
        let rel = (fast.area() - reference.area()).abs() / reference.area();
        assert!(
            rel < bound,
            "convex dilation by {radius}: fast vs reference relative gap {rel} exceeds bound {bound}"
        );
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for _ in 0..50 {
            if let Some(p) = hull.sample_point(&mut rng) {
                assert!(fast.contains(p), "fast dilation lost {p}");
            }
            if let Some(p) = reference.sample_point(&mut rng) {
                assert!(
                    fast.contains(p) || fast.distance_to(p) < sagitta + 1.0,
                    "reference point {p} escaped the fast dilation"
                );
            }
        }
        assert_eq!(
            fast,
            hull.dilate(radius),
            "fast dilation must be deterministic"
        );
    }
}

#[test]
fn general_dilation_path_parity_on_a_trapezoid_decomposition() {
    // A decomposed non-convex estimate: the kind of region a recursive
    // router sub-solve hands to the dilation.
    let (a, b, _) = seed_disks();
    let lens = a.intersect(&b);
    assert!(lens.ring_count() > 1, "seed lens should be decomposed");
    let radius = 200.0;
    let fast = lens.dilate(radius);
    let reference = lens.dilate_reference(radius);
    let rel = (fast.area() - reference.area()).abs() / reference.area();
    assert!(
        rel < 0.01,
        "general dilation fast path vs reference: relative gap {rel}"
    );
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    for _ in 0..60 {
        if let Some(p) = lens.sample_point(&mut rng) {
            assert!(fast.contains(p), "dilation lost interior point {p}");
        }
    }
    assert_eq!(
        fast,
        lens.dilate(radius),
        "general path must be deterministic"
    );
}

/// The intersection-walking union actually engages on the general dilation
/// path (walk counters move, no fallback on this clean fixture), and its
/// result contains everything the reference construction contains — up to
/// the arc-sampling band — while containing the original region exactly.
#[test]
fn walk_union_dilation_engages_and_contains_the_reference() {
    let (a, b, _) = seed_disks();
    let lens = a.intersect(&b);
    assert!(lens.ring_count() > 1, "seed lens should be decomposed");
    let radius = 150.0;

    let (walks_before, falls_before) = stats::thread_walk_counts();
    let fast = lens.dilate(radius);
    let (walks_after, falls_after) = stats::thread_walk_counts();
    assert!(
        walks_after > walks_before,
        "the general dilation path must route through the intersection walk"
    );
    assert_eq!(
        falls_after, falls_before,
        "a clean lens fixture must not trip the walk's anomaly fallback"
    );

    // Containment both ways, up to the documented sampling bands:
    // the original is contained exactly; reference-interior points may sit
    // in the fast path's slightly-different arc band near the boundary.
    let reference = lens.dilate_reference(radius);
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(23);
    for _ in 0..80 {
        if let Some(p) = lens.sample_point(&mut rng) {
            assert!(fast.contains(p), "walk dilation lost interior point {p}");
        }
        if let Some(p) = reference.sample_point(&mut rng) {
            assert!(
                fast.contains(p) || fast.distance_to(p) < 5.0,
                "reference point {p} escaped the walk dilation"
            );
        }
    }
}

/// Radius-monotonicity through the walk path: growing the radius never
/// shrinks the region, and every smaller dilation stays inside the larger
/// one pointwise (up to the arc-sampling band).
#[test]
fn walk_union_dilation_is_monotone_in_the_radius() {
    let (a, b, _) = seed_disks();
    let lens = a.intersect(&b);
    let radii = [40.0, 90.0, 180.0, 360.0];
    let grown: Vec<Region> = radii.iter().map(|&r| lens.dilate(r)).collect();
    use rand::SeedableRng;
    for w in grown.windows(2) {
        let (small, large) = (&w[0], &w[1]);
        assert!(
            small.area() <= large.area() * (1.0 + 1e-9),
            "dilation area shrank when the radius grew: {} vs {}",
            small.area(),
            large.area()
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(29);
        for _ in 0..60 {
            if let Some(p) = small.sample_point(&mut rng) {
                assert!(
                    large.contains(p) || large.distance_to(p) < 5.0,
                    "smaller dilation escaped the larger at {p}"
                );
            }
        }
    }
}

#[test]
fn dilation_with_holes_does_not_fill_them() {
    // An annulus (hole radius 150) dilated by less than the hole radius must
    // keep the hole's centre excluded — the nested-ring guard in the fast
    // path must reject solid per-ring offsets here.
    let annulus = Region::annulus(Vec2::ZERO, 150.0, 400.0);
    let grown = annulus.dilate(60.0);
    assert!(!grown.contains(Vec2::ZERO), "dilation filled the hole");
    assert!(grown.contains(Vec2::new(0.0, 430.0)));
    assert!(grown.contains(Vec2::new(0.0, 100.0)), "hole must shrink");
    let reference = annulus.dilate_reference(60.0);
    let rel = (grown.area() - reference.area()).abs() / reference.area();
    assert!(
        rel < 0.01,
        "holed dilation vs reference: relative gap {rel}"
    );
}
