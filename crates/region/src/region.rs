//! The planar region type: a set of interior-disjoint rings supporting the
//! boolean algebra Octant's constraint solver is built on.

use crate::banded::BandedRegion;
use crate::bezier::BezierLoop;
use crate::prepared::PreparedContains;
use crate::ring::Ring;
use crate::scanline::{self, boolean_op, BoolOp};
use crate::vec2::Vec2;
use crate::walk;
use crate::{AREA_EPSILON_KM2, DEFAULT_FLATTEN_TOLERANCE_KM};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A (possibly non-convex, possibly disconnected) area of the projection
/// plane.
///
/// Internally a region is a set of *interior-disjoint* rings; every public
/// constructor and operation maintains that invariant, which keeps area,
/// centroid and containment queries trivially correct. Regions are
/// constructed from Bézier loops (disks, annuli, polygons) and combined with
/// [`Region::union`], [`Region::intersect`] and [`Region::subtract`] (or
/// their single-sweep n-ary forms [`Region::union_many`] and
/// [`Region::intersect_many`]); the morphological operations
/// [`Region::dilate`] and [`Region::erode`] implement the paper's
/// secondary-landmark constraints.
///
/// The region-level bounding box is cached at construction and consulted by
/// every boolean operation: bbox-disjoint operands skip the sweep entirely
/// (empty intersection, concatenated union) and a convex operand covering
/// the other operand's bounding box absorbs the operation into a clone.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Region {
    rings: Vec<Ring>,
    bbox: Option<(Vec2, Vec2)>,
}

impl Region {
    /// The empty region.
    pub fn empty() -> Self {
        Region {
            rings: Vec::new(),
            bbox: None,
        }
    }

    /// Builds a region from rings that are already interior-disjoint (the
    /// boolean engine's output invariant), computing the cached bounding box.
    pub(crate) fn from_disjoint_rings(rings: Vec<Ring>) -> Self {
        let mut bbox: Option<(Vec2, Vec2)> = None;
        for r in &rings {
            if let Some((lo, hi)) = r.bbox() {
                bbox = Some(match bbox {
                    None => (lo, hi),
                    Some((alo, ahi)) => (alo.min(lo), ahi.max(hi)),
                });
            }
        }
        Region { rings, bbox }
    }

    /// A region from a single ring.
    pub fn from_ring(ring: Ring) -> Self {
        if ring.is_empty() || ring.area() < AREA_EPSILON_KM2 {
            Region::empty()
        } else {
            Region::from_disjoint_rings(vec![ring])
        }
    }

    /// A region from several rings interpreted with the even-odd rule
    /// (so a ring nested inside another punches a hole). The rings are
    /// normalized into the internal disjoint representation.
    pub fn from_rings_even_odd(rings: Vec<Ring>) -> Self {
        let mut acc = Region::empty();
        for ring in rings {
            let r = Region::from_ring(ring);
            acc = acc.xor(&r);
        }
        acc
    }

    /// A circular disk of radius `radius_km` centred at `center`, bounded by
    /// a four-segment cubic Bézier circle flattened at the default tolerance.
    pub fn disk(center: Vec2, radius_km: f64) -> Self {
        Region::disk_with_tolerance(center, radius_km, DEFAULT_FLATTEN_TOLERANCE_KM)
    }

    /// A disk with an explicit flattening tolerance (km).
    pub fn disk_with_tolerance(center: Vec2, radius_km: f64, tolerance_km: f64) -> Self {
        if radius_km <= 0.0 {
            return Region::empty();
        }
        let loop_ = BezierLoop::circle(center, radius_km);
        Region::from_ring(loop_.flatten(tolerance_km.max(radius_km * 1e-4)))
    }

    /// An annulus (ring-shaped region) between `inner_km` and `outer_km`
    /// around `center`: the shape a single landmark's positive + negative
    /// constraint pair produces in the paper.
    pub fn annulus(center: Vec2, inner_km: f64, outer_km: f64) -> Self {
        if outer_km <= 0.0 || outer_km <= inner_km {
            return Region::empty();
        }
        let outer = Region::disk(center, outer_km);
        if inner_km <= 0.0 {
            return outer;
        }
        let inner = Region::disk(center, inner_km);
        outer.subtract(&inner)
    }

    /// A rectangle region from opposite corners.
    pub fn rectangle(min: Vec2, max: Vec2) -> Self {
        Region::from_ring(Ring::rectangle(min, max))
    }

    /// The interior-disjoint rings making up the region.
    pub fn rings(&self) -> &[Ring] {
        &self.rings
    }

    /// `true` when the region has (practically) no area.
    pub fn is_empty(&self) -> bool {
        self.area() < AREA_EPSILON_KM2
    }

    /// Total area in km².
    pub fn area(&self) -> f64 {
        self.rings.iter().map(|r| r.area()).sum()
    }

    /// Area-weighted centroid. Returns `None` for empty regions.
    pub fn centroid(&self) -> Option<Vec2> {
        let total = self.area();
        if total < AREA_EPSILON_KM2 {
            return None;
        }
        let mut acc = Vec2::ZERO;
        for r in &self.rings {
            acc += r.centroid() * r.area();
        }
        Some(acc / total)
    }

    /// Axis-aligned bounding box `(min, max)`, cached at construction;
    /// `None` when the region has no rings.
    pub fn bbox(&self) -> Option<(Vec2, Vec2)> {
        self.bbox
    }

    /// `true` when the two regions' bounding boxes do not overlap (their
    /// interiors cannot intersect). Vacuously false when either is empty so
    /// the scanline fast paths keep handling empty operands.
    fn bbox_disjoint(&self, other: &Region) -> bool {
        match (self.bbox, other.bbox) {
            (Some((alo, ahi)), Some((blo, bhi))) => {
                ahi.x < blo.x || bhi.x < alo.x || ahi.y < blo.y || bhi.y < alo.y
            }
            _ => false,
        }
    }

    /// `true` when this region is a single convex ring containing all four
    /// corners of `bbox` — and therefore, by convexity, the whole box and
    /// anything inside it. The cheap sufficient condition behind the
    /// absorption fast paths.
    fn convex_covers_bbox(&self, bbox: (Vec2, Vec2)) -> bool {
        if self.rings.len() != 1 || !self.rings[0].is_convex() {
            return false;
        }
        let ring = &self.rings[0];
        let (lo, hi) = bbox;
        ring.contains(lo)
            && ring.contains(hi)
            && ring.contains(Vec2::new(lo.x, hi.y))
            && ring.contains(Vec2::new(hi.x, lo.y))
    }

    /// Point containment (even-odd over the disjoint rings, i.e. plain
    /// membership).
    ///
    /// A point outside the cached bounding box is outside every ring, so
    /// the per-ring even-odd walk is skipped entirely — pure pruning, the
    /// answer is unchanged. Constraint scoring and rejection sampling probe
    /// regions with mostly-missing points, which is what makes this check
    /// worth its two comparisons.
    pub fn contains(&self, p: Vec2) -> bool {
        match self.bbox {
            None => return false,
            Some((lo, hi)) => {
                if p.x < lo.x || p.x > hi.x || p.y < lo.y || p.y > hi.y {
                    return false;
                }
            }
        }
        let mut inside = false;
        for r in &self.rings {
            if r.contains(p) {
                inside = !inside;
            }
        }
        inside
    }

    /// [`Region::contains`] prepared once for many queries, answering every
    /// point exactly as it does. For a region of one convex ring most
    /// points are answered from two radii about the ring's centre instead
    /// of an edge walk; see [`PreparedContains`].
    pub fn prepare_contains(&self) -> PreparedContains<'_> {
        PreparedContains::new(self)
    }

    /// Distance from `p` to the region: 0 inside, otherwise the distance to
    /// the nearest boundary point. Infinite for the empty region.
    pub fn distance_to(&self, p: Vec2) -> f64 {
        if self.rings.is_empty() {
            return f64::INFINITY;
        }
        if self.contains(p) {
            return 0.0;
        }
        self.rings
            .iter()
            .map(|r| r.distance_to_boundary(p))
            .fold(f64::INFINITY, f64::min)
    }

    /// The largest distance from `p` to any vertex of the region boundary
    /// (an upper bound on the distance to any point of the region).
    pub fn max_distance_from(&self, p: Vec2) -> f64 {
        self.rings
            .iter()
            .flat_map(|r| r.points().iter())
            .map(|&q| p.distance(q))
            .fold(0.0, f64::max)
    }

    /// Union with another region.
    ///
    /// Bbox-disjoint operands are concatenated without a sweep: their rings
    /// cannot interact, so the interior-disjoint invariant already holds. A
    /// convex operand covering the other's bounding box absorbs it.
    pub fn union(&self, other: &Region) -> Region {
        if self.rings.is_empty() {
            return other.clone();
        }
        if other.rings.is_empty() {
            return self.clone();
        }
        if self.bbox_disjoint(other) {
            let mut rings = self.rings.clone();
            rings.extend_from_slice(&other.rings);
            return Region::from_disjoint_rings(rings);
        }
        if let Some(bb) = other.bbox {
            if self.convex_covers_bbox(bb) {
                return self.clone();
            }
        }
        if let Some(bb) = self.bbox {
            if other.convex_covers_bbox(bb) {
                return other.clone();
            }
        }
        Region::from_disjoint_rings(boolean_op(&[&self.rings, &other.rings], BoolOp::Union))
    }

    /// Intersection with another region.
    ///
    /// Bbox-disjoint operands short-circuit to the empty region; a convex
    /// operand covering the other's bounding box absorbs the operation into
    /// a clone of the smaller operand.
    pub fn intersect(&self, other: &Region) -> Region {
        if self.rings.is_empty() || other.rings.is_empty() || self.bbox_disjoint(other) {
            return Region::empty();
        }
        if let Some(bb) = self.bbox {
            if other.convex_covers_bbox(bb) {
                return self.clone();
            }
        }
        if let Some(bb) = other.bbox {
            if self.convex_covers_bbox(bb) {
                return other.clone();
            }
        }
        Region::from_disjoint_rings(boolean_op(
            &[&self.rings, &other.rings],
            BoolOp::Intersection,
        ))
    }

    /// Set difference (`self` minus `other`).
    ///
    /// Bbox-disjoint operands return `self` unchanged; a convex subtrahend
    /// covering `self`'s bounding box empties the result.
    pub fn subtract(&self, other: &Region) -> Region {
        if self.rings.is_empty() {
            return Region::empty();
        }
        if other.rings.is_empty() || self.bbox_disjoint(other) {
            return self.clone();
        }
        if let Some(bb) = self.bbox {
            if other.convex_covers_bbox(bb) {
                return Region::empty();
            }
        }
        Region::from_disjoint_rings(boolean_op(&[&self.rings, &other.rings], BoolOp::Difference))
    }

    /// Symmetric difference.
    pub fn xor(&self, other: &Region) -> Region {
        if self.bbox_disjoint(other) {
            let mut rings = self.rings.clone();
            rings.extend_from_slice(&other.rings);
            return Region::from_disjoint_rings(rings);
        }
        Region::from_disjoint_rings(boolean_op(&[&self.rings, &other.rings], BoolOp::Xor))
    }

    /// Intersection of many regions in **one scanline sweep** (instead of
    /// N−1 chained pairwise sweeps, each re-decomposing the accumulated
    /// intermediate result).
    ///
    /// Bbox pruning happens before the sweep: if the operands' bounding
    /// boxes have no common window the result is empty without any geometry
    /// work, and a convex operand covering the common window (e.g. the
    /// world disk around a tight constraint set) is dropped from the sweep
    /// because it cannot remove anything. Returns the empty region for an
    /// empty operand list.
    ///
    /// The result stays in the sweep's **banded** form: the caller reads
    /// the area (the §2.4 size-threshold gate) straight off the bands and
    /// only pays for ring construction when it keeps the result
    /// ([`BandedIntersection::into_region`]).
    pub fn intersect_many<'a, I>(operands: I) -> BandedIntersection
    where
        I: IntoIterator<Item = &'a Region>,
    {
        let ops: Vec<&Region> = operands.into_iter().collect();
        if ops.is_empty() {
            return BandedIntersection::Ready(Region::empty());
        }
        // Common bounding window of all operands.
        let mut common: Option<(Vec2, Vec2)> = None;
        for r in &ops {
            let (lo, hi) = match r.bbox {
                Some(b) => b,
                None => return BandedIntersection::Ready(Region::empty()),
            };
            common = Some(match common {
                None => (lo, hi),
                Some((clo, chi)) => (clo.max(lo), chi.min(hi)),
            });
        }
        let (clo, chi) = common.expect("non-empty operand list");
        if clo.x >= chi.x || clo.y >= chi.y {
            return BandedIntersection::Ready(Region::empty());
        }
        // Absorption: an operand that provably covers the common window is
        // replaced (collectively, with all other such operands) by the
        // window rectangle itself — the result always lies inside the
        // window, so `∩ all = ∩ kept ∩ window`, and a 4-segment rectangle
        // is far cheaper to sweep than a world-scale disk.
        let kept: Vec<&Region> = ops
            .iter()
            .filter(|r| !r.convex_covers_bbox((clo, chi)))
            .copied()
            .collect();
        if kept.is_empty() {
            // Every operand covers the common window, so the intersection
            // *is* the window.
            return BandedIntersection::Ready(Region::rectangle(clo, chi));
        }
        if kept.len() == ops.len() && kept.len() == 1 {
            return BandedIntersection::Ready(kept[0].clone());
        }
        let window_rect;
        let mut ring_sets: Vec<&[Ring]> = kept.iter().map(|r| r.rings.as_slice()).collect();
        if kept.len() != ops.len() {
            window_rect = Region::rectangle(clo, chi);
            ring_sets.push(window_rect.rings.as_slice());
        }
        let per_op = ring_sets
            .iter()
            .map(|rings| scanline::collect_segments(rings))
            .collect();
        match scanline::plan_nary(per_op, BoolOp::Intersection) {
            scanline::NaryPlan::Empty => BandedIntersection::Ready(Region::empty()),
            scanline::NaryPlan::Passthrough(i) => {
                BandedIntersection::Ready(Region::from_disjoint_rings(ring_sets[i].to_vec()))
            }
            scanline::NaryPlan::Sweep { per_op, window } => {
                BandedIntersection::Banded(BandedRegion::from_sweep(scanline::sweep_bands(
                    per_op,
                    BoolOp::Intersection,
                    window,
                )))
            }
        }
    }

    /// Union of many regions in **one scanline sweep**.
    ///
    /// Operands are first grouped into bbox-overlap clusters: clusters are
    /// mutually bbox-disjoint, so their results concatenate without any
    /// geometry work (the common case for landmass outlines), and each
    /// multi-operand cluster is merged in a single n-ary sweep. Returns the
    /// empty region for an empty operand list.
    pub fn union_many<'a, I>(operands: I) -> Region
    where
        I: IntoIterator<Item = &'a Region>,
    {
        let ops: Vec<&Region> = operands
            .into_iter()
            .filter(|r| !r.rings.is_empty())
            .collect();
        match ops.len() {
            0 => return Region::empty(),
            1 => return ops[0].clone(),
            _ => {}
        }
        // Union-find over bbox overlaps.
        let n = ops.len();
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], mut i: usize) -> usize {
            while parent[i] != i {
                parent[i] = parent[parent[i]];
                i = parent[i];
            }
            i
        }
        for i in 0..n {
            for j in (i + 1)..n {
                if !ops[i].bbox_disjoint(ops[j]) {
                    let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                    if ri != rj {
                        parent[ri] = rj;
                    }
                }
            }
        }
        // Clusters are gathered and processed in operand order (indexed by
        // root, members ascending) so the output ring order — and with it
        // `PartialEq`, float-summation order and sampling — is fully
        // deterministic across calls and processes.
        let mut members_of: Vec<Vec<usize>> = vec![Vec::new(); n];
        for i in 0..n {
            let root = find(&mut parent, i);
            members_of[root].push(i);
        }
        let mut rings: Vec<Ring> = Vec::new();
        for members in members_of.iter().filter(|m| !m.is_empty()) {
            if members.len() == 1 {
                rings.extend_from_slice(&ops[members[0]].rings);
            } else {
                let ring_sets: Vec<&[Ring]> =
                    members.iter().map(|&i| ops[i].rings.as_slice()).collect();
                rings.extend(boolean_op(&ring_sets, BoolOp::Union));
            }
        }
        Region::from_disjoint_rings(rings)
    }

    /// Morphological dilation by `radius_km`: every point within `radius_km`
    /// of the region. This realizes the paper's positive constraint from a
    /// *secondary* landmark whose own position is only known as a region
    /// (the union of disks centred at every point of that region).
    ///
    /// Dispatches to the cheapest applicable construction:
    ///
    /// * **disk** — a region that is a flattened circle dilates to a larger
    ///   disk around the same centre;
    /// * **convex ring** — the Minkowski sum of a convex polygon and a disk
    ///   is the polygon offset outward with circular arcs at the vertices,
    ///   built directly in `O(vertices + arc samples)` with no sweep;
    /// * **general** — the region's merged contours (genuine boundary, not
    ///   trapezoid seam edges) are offset — exact convex offsets where
    ///   sound, per-edge capsules otherwise — and merged by the
    ///   intersection walk of [`Region::dilate_with_contours`], with a
    ///   hierarchical n-ary sweep as the fallback when the walk declines.
    ///
    /// Arc sampling is adaptive: the flattening tolerance grows with the
    /// ratio of `radius_km` to the region's extent, because when the
    /// dilation dwarfs the region the result is within `O(extent)` of a
    /// plain disk and fine boundary detail cannot matter.
    ///
    /// Through PR 7 the general case kept a historical per-ring
    /// construction whose exact float stream the serving goldens pinned;
    /// that debt is retired — the goldens were re-captured once against the
    /// contour-fed stream (see the float-stream policy note in the crate
    /// docs).
    pub fn dilate(&self, radius_km: f64) -> Region {
        let _span = octant_telemetry::span("region.dilate");
        if radius_km <= 0.0 || self.rings.is_empty() {
            return self.clone();
        }
        let tol = self.dilation_tolerance(radius_km);
        if self.rings.len() == 1 && self.rings[0].is_convex() {
            let ring = &self.rings[0];
            if let Some((center, r)) = as_disk(ring) {
                return Region::disk_with_tolerance(center, r + radius_km, tol);
            }
            return Region::from_ring(convex_offset_ring(ring, radius_km, tol));
        }
        self.dilate_through(&self.contours(), radius_km, tol)
    }

    /// The merged outer contours of the region: its banded decomposition
    /// stitched into a few clean closed boundary rings (counter-clockwise
    /// outers, clockwise holes) instead of the internal trapezoid
    /// decomposition. Signed areas sum to the region's area within 1e-9
    /// (relative); see [`BandedRegion::extract_contours`].
    pub fn contours(&self) -> Vec<Ring> {
        BandedRegion::from_region(self).extract_contours()
    }

    /// [`Region::dilate`] driven by an explicit contour ring set (normally
    /// [`Region::contours`], possibly simplified by the caller): the result
    /// is the union of the region with offsets built around the **contour**
    /// edges only — genuine boundary, not the interior seam edges of the
    /// trapezoid decomposition — so the number of offset parts scales with
    /// the boundary complexity instead of the cell count.
    ///
    /// The offset rings are merged with the region by the
    /// intersection-walking union (`walk` module): ring-pair crossing
    /// points are computed directly and the alternating outside arcs are
    /// stitched into the union boundary, so the 100+ mutually-overlapping
    /// offset rings of a fragmented constraint region never pay for a full
    /// re-sweep of the soup. The walk refuses degenerate configurations
    /// (coincident boundaries, unstitchable chains, implausible net area)
    /// and this method then falls back to the historical hierarchical
    /// n-ary sweep — fast geometry or no geometry, never wrong geometry.
    /// `region.walk_unions` / `region.walk_fallbacks` count the outcomes.
    pub fn dilate_with_contours(&self, contours: &[Ring], radius_km: f64) -> Region {
        let _span = octant_telemetry::span("region.dilate");
        if radius_km <= 0.0 || self.rings.is_empty() {
            return self.clone();
        }
        self.dilate_through(contours, radius_km, self.dilation_tolerance(radius_km))
    }

    /// The general case shared by [`Region::dilate`] and
    /// [`Region::dilate_with_contours`], which each open the one
    /// `region.dilate` span of a dilation: offsets of `contours` at arc
    /// tolerance `tol`, merged with the region.
    fn dilate_through(&self, contours: &[Ring], radius_km: f64, tol: f64) -> Region {
        // A clockwise contour is a hole: solid offsets of the outer rings
        // would fill it, so holes force the per-edge capsule construction
        // (capsules only ever cover the boundary's neighbourhood).
        let solid_ok = contours.iter().all(|r| r.is_ccw());
        let cap_steps = ((std::f64::consts::PI / arc_step(radius_km, tol)).ceil() as usize).max(4);
        // Offset rings are kept **unoriented** in construction order: the
        // sweep fallback below must reproduce the historical float stream
        // exactly (orientation flips segment direction, which changes
        // `x_at` rounding), so only the walk's operand clones are oriented.
        let mut offset_rings: Vec<Ring> = Vec::new();
        for ring in contours {
            if solid_ok && ring.is_convex() {
                offset_rings.push(convex_offset_ring(ring, radius_km, tol));
            } else {
                for (a, b) in ring.edges() {
                    offset_rings.push(capsule_ring(a, b, radius_km, cap_steps));
                }
            }
        }
        // Walk operands: the contour set (already oriented CCW-outer /
        // CW-hole by extraction) plus each offset ring oriented CCW.
        let mut operands: Vec<Vec<Ring>> = Vec::with_capacity(offset_rings.len() + 1);
        operands.push(contours.to_vec());
        for ring in &offset_rings {
            operands.push(vec![ring.oriented_ccw()]);
        }
        if let Some(rings) = walk::union_walk_many(operands) {
            scanline::stats::add_walk_outcome(false);
            return materialize_walk(rings);
        }
        scanline::stats::add_walk_outcome(true);
        let mut parts: Vec<Region> = vec![self.clone()];
        parts.extend(offset_rings.into_iter().map(Region::from_ring));
        union_hierarchical(parts, 8)
    }

    /// The original Minkowski-by-capsules dilation, kept as the exact
    /// reference construction the fast paths in [`Region::dilate`] are
    /// validated against (`tests/region_fastpath_parity.rs`): the union of
    /// the region with a fixed-resolution stadium around every boundary
    /// edge, accumulated through chained pairwise sweeps.
    pub fn dilate_reference(&self, radius_km: f64) -> Region {
        if radius_km <= 0.0 || self.rings.is_empty() {
            return self.clone();
        }
        let mut acc = self.clone();
        // The dilation is the union of the region with a "capsule"
        // (stadium shape) around every boundary edge. Edges interior to the
        // region only add area already covered, so using all edges is
        // correct, just mildly wasteful.
        let mut capsules: Vec<Ring> = Vec::new();
        for ring in &self.rings {
            for (a, b) in ring.edges() {
                capsules.push(capsule_ring(a, b, radius_km, REFERENCE_CAP_STEPS));
            }
        }
        // Union the capsules in batches to keep intermediate sizes small.
        let mut batch = Region::empty();
        for (i, cap) in capsules.into_iter().enumerate() {
            batch = batch.union(&Region::from_ring(cap));
            if (i + 1) % 16 == 0 {
                acc = acc.union(&batch);
                batch = Region::empty();
            }
        }
        acc.union(&batch)
    }

    /// The adaptive boundary tolerance (km) used when sampling dilation
    /// arcs, keyed to the radius/extent ratio.
    ///
    /// Two effects compose: a floor relative to the radius (0.4 %, so large
    /// dilation arcs are not over-sampled to absolute-kilometre precision
    /// that downstream sweeps then pay for vertex by vertex), and a growth
    /// factor in the radius/extent ratio (when the dilation dwarfs the
    /// region the result is within `O(extent)` of a plain disk, so fine
    /// boundary detail cannot matter).
    fn dilation_tolerance(&self, radius_km: f64) -> f64 {
        let extent = match self.bbox {
            Some((lo, hi)) => (hi - lo).length(),
            None => 0.0,
        };
        let ratio = radius_km / extent.max(1e-9);
        DEFAULT_FLATTEN_TOLERANCE_KM.max(radius_km * 4e-3) * (1.0 + ratio / 4.0).min(8.0)
    }

    /// Reduces the vertex count by dropping boundary vertices whose removal
    /// moves the boundary by at most `tolerance_km`, and rings that collapse
    /// below the area epsilon. Chained boolean operations fragment ring
    /// boundaries at band seams (exactly collinear splits), so a tiny
    /// tolerance reclaims most of the fragmentation without measurably
    /// moving the boundary; applied between solver iterations it keeps the
    /// cost of later operations from growing with chain length.
    pub fn simplify(&self, tolerance_km: f64) -> Region {
        if tolerance_km <= 0.0 || self.rings.is_empty() {
            return self.clone();
        }
        let rings: Vec<Ring> = self
            .rings
            .iter()
            .map(|r| r.simplified(tolerance_km))
            .filter(|r| !r.is_empty() && r.area() >= AREA_EPSILON_KM2)
            .collect();
        Region::from_disjoint_rings(rings)
    }

    /// Vertex-budget form of [`Region::simplify`]: escalates the tolerance
    /// (×4 per round, up to three rounds) until the representation fits
    /// `max_vertices`. The budget bounds the cost of every later operation
    /// on the region regardless of how many operations produced it.
    ///
    /// Escalation is geometrically capped at 1 % of the region's bbox
    /// diagonal: an over-budget representation never buys compactness by
    /// carving more than a percent-scale band off the (shrink-only)
    /// boundary, no matter what the caller's base tolerance was.
    pub fn simplify_to_budget(&self, tolerance_km: f64, max_vertices: usize) -> Region {
        let mut out = self.simplify(tolerance_km);
        let mut tol = tolerance_km.max(1e-9);
        let tol_cap = match self.bbox {
            Some((lo, hi)) => (hi - lo).length() * 0.01,
            None => return out,
        };
        for _ in 0..3 {
            if out.vertex_count() <= max_vertices || tol >= tol_cap {
                break;
            }
            tol = (tol * 4.0).min(tol_cap.max(tolerance_km));
            out = out.simplify(tol);
        }
        out
    }

    /// Morphological erosion by `radius_km`: every point whose `radius_km`
    /// neighbourhood lies entirely inside the region. This realizes the
    /// paper's negative constraint from a secondary landmark (the
    /// intersection of disks centred at every point of that region).
    pub fn erode(&self, radius_km: f64) -> Region {
        if radius_km <= 0.0 || self.rings.is_empty() {
            return self.clone();
        }
        let (lo, hi) = match self.bbox() {
            Some(b) => b,
            None => return Region::empty(),
        };
        let pad = Vec2::new(radius_km * 2.0 + 1.0, radius_km * 2.0 + 1.0);
        let frame = Region::rectangle(lo - pad, hi + pad);
        // erode(A, r) = frame \ dilate(frame \ A, r), for any frame ⊇ A ⊕ r.
        let complement = frame.subtract(self);
        let grown = complement.dilate(radius_km);
        frame.subtract(&grown)
    }

    /// A conservative disk that contains the whole region: centred at the
    /// centroid with radius `max_distance_from(centroid)`. Used as a fast
    /// over-approximation when exact dilation is not required.
    pub fn bounding_disk(&self) -> Option<(Vec2, f64)> {
        let c = self.centroid()?;
        Some((c, self.max_distance_from(c)))
    }

    /// Draws a point uniformly at random from the region. Returns `None` for
    /// empty regions.
    pub fn sample_point<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<Vec2> {
        let total = self.area();
        if total < AREA_EPSILON_KM2 {
            return None;
        }
        // Pick a ring weighted by area.
        let mut pick = rng.gen_range(0.0..total);
        let mut chosen = &self.rings[0];
        for r in &self.rings {
            let a = r.area();
            if pick < a {
                chosen = r;
                break;
            }
            pick -= a;
        }
        // Rejection-sample within the ring's bounding box. The rings produced
        // by the boolean engine are convex quadrilaterals, so acceptance is
        // at worst ~50%.
        let (lo, hi) = chosen.bbox()?;
        for _ in 0..256 {
            let p = Vec2::new(rng.gen_range(lo.x..=hi.x), rng.gen_range(lo.y..=hi.y));
            if chosen.contains(p) {
                return Some(p);
            }
        }
        Some(chosen.centroid())
    }

    /// Number of rings in the internal decomposition (useful for asserting
    /// that simplification keeps representations compact).
    pub fn ring_count(&self) -> usize {
        self.rings.len()
    }

    /// Total number of vertices across all rings.
    pub fn vertex_count(&self) -> usize {
        self.rings.iter().map(|r| r.len()).sum()
    }
}

/// The outcome of [`Region::intersect_many`]: either a region the bbox
/// fast paths resolved without any sweep, or the banded decomposition the
/// sweep produced. Either way the area is available without stitching
/// rings, so a caller gating on area (the solver's §2.4 size threshold)
/// only polygonizes results it keeps.
#[derive(Debug, Clone)]
pub enum BandedIntersection {
    /// Resolved by a fast path — already in ring form.
    Ready(Region),
    /// A genuine sweep result, still banded.
    Banded(BandedRegion),
}

impl BandedIntersection {
    /// Total area in km², read off whichever form is held.
    pub fn area(&self) -> f64 {
        match self {
            BandedIntersection::Ready(r) => r.area(),
            BandedIntersection::Banded(b) => b.area(),
        }
    }

    /// Converts into a ring-form region, stitching the bands' trapezoids
    /// when the sweep ran.
    pub fn into_region(self) -> Region {
        match self {
            BandedIntersection::Ready(r) => r,
            BandedIntersection::Banded(b) => b.to_region(),
        }
    }
}

/// Merges many (heavily overlapping) part-regions by levels: operands are
/// sorted for spatial locality, fused in groups of `group` with one n-ary
/// sweep each, and the resulting blobs repeat the process until one region
/// remains. Overlap is absorbed inside the small group sweeps, keeping
/// every individual sweep's band × active-segment product bounded.
fn union_hierarchical(mut parts: Vec<Region>, group: usize) -> Region {
    let group = group.max(2);
    while parts.len() > 1 {
        parts.sort_by(|a, b| {
            let ax = a.bbox.map(|(lo, hi)| lo.x + hi.x).unwrap_or(f64::INFINITY);
            let bx = b.bbox.map(|(lo, hi)| lo.x + hi.x).unwrap_or(f64::INFINITY);
            ax.partial_cmp(&bx).unwrap_or(std::cmp::Ordering::Equal)
        });
        parts = parts
            .chunks(group)
            .map(|chunk| Region::union_many(chunk.iter()))
            .collect();
    }
    parts.pop().unwrap_or_default()
}

/// Turns the intersection walk's output boundary (CCW outers, CW holes,
/// mutually non-crossing) into a [`Region`].
///
/// `Region::area` sums **absolute** ring areas, so the walk's rings can only
/// be adopted verbatim when none is a hole. A hole-free union boundary never
/// nests one CCW ring inside another, so the all-CCW case is genuinely
/// disjoint and [`Region::from_disjoint_rings`] applies. Any CW ring means
/// even-odd nesting, which one single-operand sweep normalizes into the
/// engine's interior-disjoint trapezoid form.
fn materialize_walk(rings: Vec<Ring>) -> Region {
    if rings.iter().all(|r| r.is_ccw()) {
        Region::from_disjoint_rings(rings)
    } else {
        BandedRegion::from_rings(&rings).to_region()
    }
}

/// The fixed per-cap resolution of the reference Minkowski construction
/// ([`Region::dilate_reference`]); the fast path chooses its cap resolution
/// adaptively instead.
const REFERENCE_CAP_STEPS: usize = 8;

/// A stadium-shaped ring (rectangle with semicircular caps) of radius `r`
/// around the segment `[a, b]`, approximated with `cap_steps` points per cap.
fn capsule_ring(a: Vec2, b: Vec2, r: f64, cap_steps: usize) -> Ring {
    let cap_steps = cap_steps.max(2);
    let dir = (b - a).normalized();
    if dir == Vec2::ZERO {
        return Ring::regular_polygon(a, r, 2 * cap_steps);
    }
    let normal = dir.perp();
    let mut pts = Vec::with_capacity(2 * cap_steps + 2);
    // Cap around b: sweep from +normal to -normal going through +dir.
    let base_angle_b = normal.y.atan2(normal.x);
    for i in 0..=cap_steps {
        let ang = base_angle_b - std::f64::consts::PI * i as f64 / cap_steps as f64;
        pts.push(b + Vec2::new(ang.cos(), ang.sin()) * r);
    }
    // Cap around a: sweep from -normal to +normal going through -dir.
    let base_angle_a = (-normal.y).atan2(-normal.x);
    for i in 0..=cap_steps {
        let ang = base_angle_a - std::f64::consts::PI * i as f64 / cap_steps as f64;
        pts.push(a + Vec2::new(ang.cos(), ang.sin()) * r);
    }
    Ring::new(pts)
}

/// The largest arc step (radians) whose chord stays within `tol` of a circle
/// of radius `radius` (sagitta bound `r·(1 − cos(θ/2)) ≤ tol`), clamped to a
/// sane range.
fn arc_step(radius: f64, tol: f64) -> f64 {
    let c = (1.0 - tol / radius.max(1e-9)).clamp(-1.0, 1.0);
    (2.0 * c.acos()).clamp(std::f64::consts::PI / 128.0, std::f64::consts::PI / 4.0)
}

/// Detects a ring that is (within flattening precision) a circle: a convex
/// ring whose vertices are equidistant from its centroid. Returns the centre
/// and the **maximum** vertex radius, so a disk built from it contains the
/// original ring.
fn as_disk(ring: &Ring) -> Option<(Vec2, f64)> {
    let pts = ring.points();
    if pts.len() < 8 || !ring.is_convex() {
        return None;
    }
    let c = ring.centroid();
    let mut rmin = f64::INFINITY;
    let mut rmax = 0.0f64;
    for &p in pts {
        let d = c.distance(p);
        rmin = rmin.min(d);
        rmax = rmax.max(d);
    }
    if rmax <= 0.0 {
        return None;
    }
    // Flattened Bézier circles have sub-0.03% radial spread; anything
    // materially wider is a genuine polygon and takes the convex-offset path.
    if (rmax - rmin) <= (2e-3 * rmax).max(1e-6) {
        Some((c, rmax))
    } else {
        None
    }
}

/// The Minkowski sum of a convex ring and a disk of radius `r`, built
/// directly: every edge shifts outward along its normal and every vertex
/// grows a circular arc between the adjacent edge normals, sampled at the
/// sagitta-bounded step for `tol`. `O(vertices + arc samples)`, no sweep.
fn convex_offset_ring(ring: &Ring, r: f64, tol: f64) -> Ring {
    let ccw = ring.oriented_ccw();
    let pts = ccw.points();
    let n = pts.len();
    if n == 0 {
        return ccw;
    }
    if n == 1 {
        return Ring::regular_polygon(
            pts[0],
            r,
            16.max((std::f64::consts::TAU / arc_step(r, tol)) as usize),
        );
    }
    if n == 2 {
        let steps = ((std::f64::consts::PI / arc_step(r, tol)).ceil() as usize).max(4);
        return capsule_ring(pts[0], pts[1], r, steps);
    }
    let step = arc_step(r, tol);
    let mut out: Vec<Vec2> = Vec::with_capacity(2 * n + 8);
    for i in 0..n {
        let prev = pts[(i + n - 1) % n];
        let cur = pts[i];
        let next = pts[(i + 1) % n];
        // Outward normals of the incoming and outgoing edges (the interior
        // is to the left of a CCW boundary, so outward is the right-hand
        // perpendicular).
        let d_in = (cur - prev).normalized();
        let d_out = (next - cur).normalized();
        if d_in == Vec2::ZERO || d_out == Vec2::ZERO {
            continue;
        }
        let n_in = Vec2::new(d_in.y, -d_in.x);
        let n_out = Vec2::new(d_out.y, -d_out.x);
        out.push(cur + n_in * r);
        // Arc from n_in to n_out around the vertex (the exterior angle;
        // non-negative for a convex CCW ring up to collinear jitter).
        let a0 = n_in.y.atan2(n_in.x);
        let mut delta = n_out.y.atan2(n_out.x) - a0;
        if delta < 0.0 {
            delta += std::f64::consts::TAU;
        }
        if delta < std::f64::consts::PI {
            let k = (delta / step).ceil() as usize;
            for s in 1..k {
                let ang = a0 + delta * s as f64 / k as f64;
                out.push(cur + Vec2::new(ang.cos(), ang.sin()) * r);
            }
        }
        out.push(cur + n_out * r);
    }
    Ring::new(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn disk_area_and_containment() {
        let d = Region::disk(Vec2::new(10.0, -5.0), 300.0);
        let truth = std::f64::consts::PI * 300.0 * 300.0;
        assert!(
            (d.area() - truth).abs() / truth < 0.005,
            "area {}",
            d.area()
        );
        assert!(d.contains(Vec2::new(10.0, -5.0)));
        assert!(d.contains(Vec2::new(10.0 + 299.0, -5.0)));
        assert!(!d.contains(Vec2::new(10.0 + 301.0, -5.0)));
        assert!(!d.is_empty());
        assert_eq!(Region::disk(Vec2::ZERO, 0.0), Region::empty());
        assert!(Region::disk(Vec2::ZERO, -5.0).is_empty());
    }

    #[test]
    fn annulus_area_and_membership() {
        let a = Region::annulus(Vec2::ZERO, 100.0, 200.0);
        let truth = std::f64::consts::PI * (200.0f64.powi(2) - 100.0f64.powi(2));
        assert!((a.area() - truth).abs() / truth < 0.01, "area {}", a.area());
        assert!(!a.contains(Vec2::ZERO));
        assert!(!a.contains(Vec2::new(50.0, 0.0)));
        assert!(a.contains(Vec2::new(150.0, 0.0)));
        assert!(!a.contains(Vec2::new(250.0, 0.0)));
        // Degenerate annuli.
        assert!(Region::annulus(Vec2::ZERO, 200.0, 100.0).is_empty());
        let solid = Region::annulus(Vec2::ZERO, 0.0, 100.0);
        assert!((solid.area() - std::f64::consts::PI * 100.0 * 100.0).abs() < 300.0);
    }

    #[test]
    fn intersection_of_three_disks() {
        // Three disks arranged so they share a small common area around the origin.
        let a = Region::disk(Vec2::new(-80.0, 0.0), 100.0);
        let b = Region::disk(Vec2::new(80.0, 0.0), 100.0);
        let c = Region::disk(Vec2::new(0.0, 80.0), 100.0);
        let estimate = a.intersect(&b).intersect(&c);
        assert!(!estimate.is_empty());
        assert!(estimate.contains(Vec2::new(0.0, 10.0)));
        assert!(!estimate.contains(Vec2::new(-80.0, 0.0)));
        assert!(estimate.area() < a.area());
        // The intersection must be contained in each operand.
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..100 {
            let p = estimate.sample_point(&mut rng).unwrap();
            assert!(
                a.contains(p) && b.contains(p) && c.contains(p),
                "{p} escapes an operand"
            );
        }
    }

    #[test]
    fn subtract_creates_disconnected_regions() {
        // A long rectangle with a full-height bite removed from its middle
        // becomes two disjoint pieces.
        let bar = Region::rectangle(Vec2::new(0.0, 0.0), Vec2::new(10.0, 1.0));
        let bite = Region::rectangle(Vec2::new(4.0, -1.0), Vec2::new(6.0, 2.0));
        let result = bar.subtract(&bite);
        assert!((result.area() - 8.0).abs() < 1e-6);
        assert!(result.contains(Vec2::new(2.0, 0.5)));
        assert!(result.contains(Vec2::new(8.0, 0.5)));
        assert!(!result.contains(Vec2::new(5.0, 0.5)));
    }

    #[test]
    fn union_of_disjoint_disks_keeps_both() {
        let a = Region::disk(Vec2::new(0.0, 0.0), 50.0);
        let b = Region::disk(Vec2::new(500.0, 0.0), 50.0);
        let u = a.union(&b);
        assert!((u.area() - a.area() - b.area()).abs() / u.area() < 0.01);
        assert!(u.contains(Vec2::new(0.0, 0.0)));
        assert!(u.contains(Vec2::new(500.0, 0.0)));
        assert!(!u.contains(Vec2::new(250.0, 0.0)));
    }

    #[test]
    fn centroid_of_symmetric_shapes() {
        let d = Region::disk(Vec2::new(42.0, -17.0), 120.0);
        let c = d.centroid().unwrap();
        assert!(c.distance(Vec2::new(42.0, -17.0)) < 1.0);
        assert!(Region::empty().centroid().is_none());

        let lens = Region::disk(Vec2::new(-50.0, 0.0), 100.0)
            .intersect(&Region::disk(Vec2::new(50.0, 0.0), 100.0));
        let c = lens.centroid().unwrap();
        assert!(c.x.abs() < 1.0 && c.y.abs() < 1.0, "lens centroid {c}");
    }

    #[test]
    fn bbox_covers_the_region() {
        let d = Region::disk(Vec2::new(0.0, 0.0), 100.0);
        let (lo, hi) = d.bbox().unwrap();
        assert!(lo.x <= -99.0 && lo.y <= -99.0 && hi.x >= 99.0 && hi.y >= 99.0);
        assert!(Region::empty().bbox().is_none());
    }

    #[test]
    fn distance_to_region() {
        let d = Region::disk(Vec2::ZERO, 100.0);
        assert_eq!(d.distance_to(Vec2::new(10.0, 10.0)), 0.0);
        let outside = d.distance_to(Vec2::new(200.0, 0.0));
        assert!((outside - 100.0).abs() < 2.0, "distance {outside}");
        assert_eq!(Region::empty().distance_to(Vec2::ZERO), f64::INFINITY);
    }

    #[test]
    fn max_distance_and_bounding_disk() {
        let d = Region::disk(Vec2::ZERO, 100.0);
        let (c, r) = d.bounding_disk().unwrap();
        assert!(c.length() < 1.0);
        assert!((99.0..=101.0).contains(&r));
        assert!(Region::empty().bounding_disk().is_none());
    }

    #[test]
    fn dilation_grows_and_contains_original() {
        let sq = Region::rectangle(Vec2::new(0.0, 0.0), Vec2::new(10.0, 10.0));
        let grown = sq.dilate(5.0);
        // Area should approach (10+2*5)^2 − corner deficit = 400 − (4−π)·25 ≈ 378.5.
        let expected = 20.0 * 20.0 - (4.0 - std::f64::consts::PI) * 25.0;
        assert!(
            (grown.area() - expected).abs() / expected < 0.03,
            "area {} expected {expected}",
            grown.area()
        );
        assert!(grown.contains(Vec2::new(-3.0, 5.0)));
        assert!(grown.contains(Vec2::new(13.0, 5.0)));
        assert!(!grown.contains(Vec2::new(-6.0, 5.0)));
        // Original is a subset.
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..100 {
            let p = sq.sample_point(&mut rng).unwrap();
            assert!(grown.contains(p));
        }
        // Dilation by zero is the identity.
        assert_eq!(sq.dilate(0.0), sq);
    }

    #[test]
    fn erosion_shrinks_and_is_contained() {
        let sq = Region::rectangle(Vec2::new(0.0, 0.0), Vec2::new(20.0, 20.0));
        let shrunk = sq.erode(5.0);
        assert!(
            (shrunk.area() - 100.0).abs() < 5.0,
            "area {}",
            shrunk.area()
        );
        assert!(shrunk.contains(Vec2::new(10.0, 10.0)));
        assert!(!shrunk.contains(Vec2::new(2.0, 2.0)));
        // Eroding by more than the inradius empties the region.
        let gone = sq.erode(11.0);
        assert!(gone.is_empty(), "area {}", gone.area());
        assert_eq!(sq.erode(0.0), sq);
    }

    #[test]
    fn dilate_then_erode_roughly_recovers_a_convex_region() {
        let d = Region::disk(Vec2::ZERO, 100.0);
        let round_trip = d.dilate(20.0).erode(20.0);
        let rel = (round_trip.area() - d.area()).abs() / d.area();
        assert!(rel < 0.05, "relative area error {rel}");
    }

    #[test]
    fn sampling_stays_inside() {
        let region = Region::annulus(Vec2::ZERO, 50.0, 150.0);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..200 {
            let p = region.sample_point(&mut rng).unwrap();
            let r = p.length();
            assert!(r > 49.0 && r < 151.0, "sample at radius {r}");
        }
        assert!(Region::empty().sample_point(&mut rng).is_none());
    }

    #[test]
    fn from_rings_even_odd_handles_holes() {
        let outer = Ring::rectangle(Vec2::new(0.0, 0.0), Vec2::new(10.0, 10.0));
        let inner = Ring::rectangle(Vec2::new(3.0, 3.0), Vec2::new(7.0, 7.0));
        let region = Region::from_rings_even_odd(vec![outer, inner]);
        assert!((region.area() - (100.0 - 16.0)).abs() < 1e-5);
        assert!(region.contains(Vec2::new(1.0, 1.0)));
        assert!(!region.contains(Vec2::new(5.0, 5.0)));
    }

    #[test]
    fn a_self_intersecting_operand_is_never_absorbed() {
        // The star's ring contains the square's corners, but its centre is
        // wound twice and lies outside it: the square is not covered.
        let square = Region::rectangle(Vec2::new(-30.0, -30.0), Vec2::new(30.0, 30.0));
        let star = Region::from_ring(crate::ring::tests::pentagram(100.0));
        let (lo, hi) = square.bbox().unwrap();
        for corner in [lo, hi, Vec2::new(lo.x, hi.y), Vec2::new(hi.x, lo.y)] {
            assert!(star.contains(corner));
        }
        assert!(!star.contains(Vec2::ZERO));
        let inside = square.intersect(&star);
        let outside = square.subtract(&star);
        assert!(!inside.contains(Vec2::ZERO));
        assert!(outside.contains(Vec2::ZERO));
        assert!(inside.area() > 0.0 && inside.area() < square.area() - 1.0);
        assert!((inside.area() + outside.area() - square.area()).abs() < 1e-6);
        // Pointwise, away from the star's boundary.
        let edges = star.rings()[0].edges();
        for i in 0..=24 {
            for j in 0..=24 {
                let p = Vec2::new(-29.5 + 2.45 * i as f64, -29.5 + 2.45 * j as f64);
                if edges
                    .iter()
                    .any(|&(a, b)| p.distance_to_segment(a, b) < 1e-3)
                {
                    continue;
                }
                assert_eq!(inside.contains(p), star.contains(p), "{p}");
                assert_eq!(outside.contains(p), !star.contains(p), "{p}");
            }
        }
    }

    #[test]
    fn empty_region_algebra() {
        let d = Region::disk(Vec2::ZERO, 100.0);
        let e = Region::empty();
        assert!((d.union(&e).area() - d.area()).abs() < 1e-6);
        assert!(d.intersect(&e).is_empty());
        assert!((d.subtract(&e).area() - d.area()).abs() < 1e-6);
        assert!(e.subtract(&d).is_empty());
        assert!(e.is_empty());
        assert_eq!(e.dilate(10.0), e);
        assert_eq!(e.erode(10.0), e);
    }

    #[test]
    fn representation_stays_compact_across_chained_ops() {
        let mut region = Region::disk(Vec2::ZERO, 1000.0);
        for i in 0..10 {
            let c = Vec2::new((i as f64 - 5.0) * 100.0, (i as f64).sin() * 200.0);
            region = region.intersect(&Region::disk(c, 900.0));
        }
        assert!(!region.is_empty());
        assert!(
            region.vertex_count() < 5000,
            "representation blew up: {} vertices",
            region.vertex_count()
        );
    }
}
