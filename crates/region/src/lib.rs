//! # octant-region
//!
//! The geometric engine behind Octant's location estimates.
//!
//! The Octant paper (Wong, Stoyanov, Sirer — NSDI 2007) represents the set of
//! points where a target host may be located as a *region bounded by Bézier
//! curves*: positive constraints ("within `R(d)` km of landmark L") carve the
//! estimate down via intersection, negative constraints ("farther than `r(d)`
//! km from L") carve holes out of it via subtraction, and geographic
//! constraints (oceans, uninhabited areas) are folded in the same way. The
//! resulting region may be non-convex and even disconnected.
//!
//! This crate provides that machinery:
//!
//! * [`Vec2`] — planar points/vectors in kilometre coordinates,
//! * [`bezier::CubicBezier`] and [`bezier::BezierLoop`] — the curve
//!   representation used to *construct* region boundaries (disks are
//!   four-segment cubic Bézier circles, exactly as in the paper),
//! * [`ring::Ring`] — flattened closed polygons with area / containment /
//!   centroid queries (bounding box and convexity cached at construction),
//! * [`scanline`] — a robust band-sweep boolean-operation engine producing
//!   interior-disjoint trapezoid decompositions, with one entry point
//!   ([`scanline::boolean_op`]) that sweeps any number of operands once,
//! * [`Region`] — the public region type with union / intersection /
//!   difference / dilation / erosion, area, centroid, containment and
//!   sampling,
//! * [`georegion::GeoRegion`] — a [`Region`] anchored to the globe through an
//!   azimuthal-equidistant projection, with geodesic disk and annulus
//!   constructors,
//! * [`montecarlo`] — Monte-Carlo oracles used by the test-suite to validate
//!   the exact geometry.
//!
//! ## Representation notes
//!
//! Boolean operations flatten Bézier boundaries to polylines with a
//! configurable tolerance (default 1 km — far below the tens-of-miles
//! accuracy Octant achieves) and run a scanline decomposition that produces
//! interior-disjoint trapezoids. This keeps every operation robust — there is
//! no intersection-graph traversal to get wrong — while staying faithful to
//! the paper's representation: regions are constructed from Bézier curves,
//! may be non-convex and disconnected, and support cheap boolean algebra.
//!
//! ## Performance machinery
//!
//! The solver-facing hot paths are engineered around eight mechanisms
//! (pinned by `tests/region_algebra.rs` / `tests/region_fastpath_parity.rs`
//! and measured by `octant-bench`'s `region` binary):
//!
//! * **N-ary single sweeps** — [`Region::intersect_many`] /
//!   [`Region::union_many`] merge all operands' per-band interval lists in
//!   one scanline pass instead of re-decomposing an accumulator through
//!   N−1 chained pairwise sweeps. The two-operand ops are the same sweep
//!   over two operands. Every sweep ranks its segments **once**, by an
//!   integer sort of `(order-preserving bits of min_y + 0.0, index)`
//!   (adding +0.0 folds −0.0 onto +0.0, so the two tie as under
//!   `partial_cmp`); that ranking is both the crossing enumeration's order
//!   and the band loop's entry order. The crossing events come from one
//!   forward rescan over the ranked bounding boxes. In trapezoid soups
//!   nearly every crossing it meets is a touching corner whose y is
//!   bit-equal to an endpoint height, which is already an event; the
//!   rescan drops those before the sort, leaving the event list unchanged.
//!   A horizontal earlier-ranked segment (bit-equal endpoint heights, not
//!   −0.0) can only report `a.y + 0·t`, which is `a.y` bit for bit and
//!   always dropped, so its pairs are not scanned at all; at −0.0 the sum
//!   would be +0.0, so those stay scanned. The soup's internal horizontal
//!   edges are a large share of its segments. `region.crossing_scan_ops`
//!   counts the candidate pairs the rescan examines: only pairs with a
//!   non-horizontal first segment. Stitching compacts vertically stacked
//!   trapezoids and builds a new ring only for merged ones; every other
//!   trapezoid keeps the ring the band loop emitted, which is the ring a
//!   rebuild would give.
//! * **The banded core** — the sweep's native product is a
//!   [`banded::BandedRegion`]: a y-banded interval decomposition that
//!   answers area/bbox/containment without ring construction and converts
//!   at the edges — [`banded::BandedRegion::to_region`] stitches the
//!   trapezoid rings (bit-identical), and [`Region::intersect_many`]
//!   returns the banded result so callers gate on area (the solver's §2.4
//!   size threshold) before paying for any stitching. Inside
//!   the band loop the active list keeps its `(x, entry-order)`
//!   sorted order **incrementally** across bands (adjacent midlines only
//!   swap segments that actually cross between them, so an adaptive
//!   insertion pass beats a from-scratch per-operand sort), which is
//!   bit-identical because that order is a history-independent total
//!   order.
//! * **Contour extraction** — [`banded::BandedRegion::extract_contours`]
//!   stitches adjacent bands' cells into a few **merged outer contours**
//!   (counter-clockwise outers, clockwise holes; signed areas sum to the
//!   banded area within 1e-9) instead of trapezoid soup, so edge-scaling
//!   consumers — dilation, the service's radius-class dilation cache,
//!   budgeted simplification — touch boundary edges only. Extraction that
//!   cannot stitch cleanly falls back to the trapezoid rings, never to
//!   wrong geometry.
//! * **Bbox pruning** — ring- and region-level bounding boxes are cached at
//!   construction; bbox-disjoint operands skip the sweep entirely (empty
//!   intersection, concatenated union), a convex operand covering the other
//!   operand's box absorbs the operation into a clone, point containment
//!   rejects through the cached boxes before any edge walk, and
//!   intersections restrict the sweep to the operands' common y-window,
//!   dropping segments that cannot affect it (output-identical by
//!   construction). A ring is convex only if every turn shares a sign and
//!   its boundary turns exactly once ([`Ring::is_convex`]). For many
//!   queries against one region, [`Region::prepare_contains`] answers most
//!   points of a one-ring convex region from two radii about the ring's
//!   centre and walks the edges only between them
//!   ([`PreparedContains`], bit-identical to [`Region::contains`]).
//! * **Fast dilation** — [`Region::dilate`] dispatches to a disk
//!   specialization (a dilated disk is a disk), a direct convex polygon
//!   offset, or the contour-fed general path: the region's merged contours
//!   are offset (exact convex offsets or per-edge capsules) and merged by
//!   the intersection walk below, falling back to a hierarchical n-ary
//!   sweep when the walk declines. The original Minkowski-by-capsules
//!   construction survives as [`Region::dilate_reference`], the exact
//!   reference the fast paths are validated against.
//! * **Intersection-walking union** — the offset-ring merge inside
//!   dilation computes ring-pair intersection points and walks the
//!   alternating boundary arcs that lie outside every other operand
//!   (hierarchical pairwise folds over clean oriented boundaries), so the
//!   Minkowski union of 100+ mutually-overlapping offset rings never
//!   re-sweeps the whole soup. The walk refuses degenerate configurations
//!   (coincident boundaries, unstitchable chains, out-of-bounds net area)
//!   and falls back to the band sweep — fast geometry or no geometry,
//!   never wrong geometry; `region.walk_unions` / `region.walk_fallbacks`
//!   count the outcomes.
//! * **Vertex budgets** — [`Region::simplify`] /
//!   [`Region::simplify_to_budget`] reclaim the boundary fragmentation
//!   chained operations accumulate at band seams, so representation size
//!   (and with it the cost of the next operation) stays bounded across a
//!   solve.
//! * **Squared distance tests** — the distance-against-a-threshold tests
//!   of the construction and sweep paths (Bézier flatness,
//!   [`Ring::new`]'s duplicate-vertex test, [`Ring::simplified`]'s
//!   collinearity and tolerance tests, the sweep's zero-length-segment
//!   test and trapezoid compaction's collinearity test) are decided from
//!   squared lengths whenever those clear the squared threshold by a
//!   relative 10⁻⁹, and by their `f64::hypot` expression otherwise. The
//!   margin is ten million times the rounding error of either form, so
//!   every decision, and with it every output bit, is the hypot form's;
//!   the error argument sits on the one helper in `vec2.rs` that all of
//!   them call. Flattening walks its halving tree with a fixed stack.
//!   `hypot` still runs where a length is a value rather than a decision:
//!   [`Vec2::length`] and [`Vec2::distance`] themselves, perimeters,
//!   boundary distances, dilation tolerances, the intersection walk's edge
//!   tests, and every test too close to its threshold to call from the
//!   squares.
//!
//! ### Dilation float-stream policy
//!
//! Through PR 7 the default [`Region::dilate`] kept its historical
//! per-ring construction byte-for-byte because the serving goldens pinned
//! its exact float stream. That debt is now retired: the default general
//! path routes through [`Region::dilate_with_contours`] (boundary-only
//! offsets + intersection walk), the goldens were re-captured once against
//! the new stream, and `tests/pipeline_parity.rs` pins the new stream the
//! same way it pinned the old one. [`Region::dilate_reference`] remains
//! the slow exact-construction oracle, and the sampling-equivalence
//! envelope between the two is asserted in
//! `tests/region_fastpath_parity.rs`.
//!
//! ```
//! use octant_region::{Region, Vec2};
//!
//! // Positive information: the target is within 500 km of two landmarks.
//! let a = Region::disk(Vec2::new(0.0, 0.0), 500.0);
//! let b = Region::disk(Vec2::new(600.0, 0.0), 500.0);
//! let lens = a.intersect(&b);
//! assert!(!lens.is_empty());
//! // Negative information: it is farther than 150 km from a third landmark.
//! let hole = Region::disk(Vec2::new(300.0, 0.0), 150.0);
//! let estimate = lens.subtract(&hole);
//! assert!(estimate.area() < lens.area());
//! assert!(!estimate.contains(Vec2::new(300.0, 0.0)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod banded;
pub mod bezier;
mod contour;
pub mod georegion;
pub mod montecarlo;
pub mod prepared;
pub mod region;
pub mod ring;
pub mod scanline;
pub mod vec2;
mod walk;

pub use banded::BandedRegion;
pub use georegion::GeoRegion;
pub use prepared::PreparedContains;
pub use region::Region;
pub use ring::Ring;
pub use vec2::Vec2;

/// Default flattening tolerance (kilometres) used when converting Bézier
/// boundaries to polylines for boolean operations.
pub const DEFAULT_FLATTEN_TOLERANCE_KM: f64 = 1.0;

/// Areas (km²) below this threshold are treated as empty; boolean operations
/// drop slivers smaller than this.
pub const AREA_EPSILON_KM2: f64 = 1e-6;
