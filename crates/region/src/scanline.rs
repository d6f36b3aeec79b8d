//! Robust boolean operations on polygon sets via a band-sweep (scanline)
//! trapezoidal decomposition.
//!
//! ## Why this algorithm
//!
//! Octant performs long chains of boolean operations: dozens of positive
//! constraint disks are intersected, negative disks subtracted, landmass
//! polygons intersected, and the results of weighted combinations unioned.
//! Classic clipping algorithms (Weiler–Atherton, Greiner–Hormann) walk an
//! intersection graph and are notoriously fragile in degenerate
//! configurations. The band sweep used here trades a modest amount of output
//! verbosity (results are emitted as interior-disjoint trapezoids, later
//! merged) for unconditional robustness:
//!
//! 1. Collect every segment of every operand.
//! 2. Compute the set of *event* y-coordinates: all segment endpoints plus
//!    all pairwise segment intersections. Between two consecutive events no
//!    segment starts, ends, or crosses another, so within such a *band* the
//!    plane decomposes into vertical slabs bounded by straight segments.
//! 3. For the midline of each band, compute the x-intervals covered by each
//!    operand (even-odd rule), combine them with the requested boolean
//!    operation ([`BoolOp`], over any number of operands), and emit one
//!    trapezoid per resulting interval, bounded by the source segments
//!    evaluated at the band's bottom and top.
//! 4. Merge trapezoids that share the same bounding segments across
//!    consecutive bands, so simple results stay simple.
//!
//! The output is a set of interior-disjoint convex quadrilaterals whose union
//! is the exact (up to input flattening) result of the boolean operation.

use crate::ring::Ring;
use crate::vec2::{order_from_squares, Vec2};
use std::cmp::Ordering;

/// Cheap instrumentation of the sweep engine, used by the perf regression
/// guard (`octant-bench`'s `region` binary asserts that an n-ary sweep
/// processes fewer bands than the equivalent chain of pairwise sweeps) and
/// by micro-benchmarks. Band counts are kept in two places by one code
/// path: a **per-thread** monotone counter (callers measure deltas around
/// operations they ran on their own thread, unperturbed by concurrent
/// sweeps — e.g. parallel test harnesses or rayon batch workers) and the
/// process-wide `region.band_merges` counter in
/// [`octant_telemetry::MetricsRegistry::global`].
pub mod stats {
    use std::cell::Cell;
    use std::sync::OnceLock;

    thread_local! {
        static BAND_MERGES: Cell<u64> = const { Cell::new(0) };
        static CROSSING_SCAN_OPS: Cell<u64> = const { Cell::new(0) };
        static WALK_UNIONS: Cell<u64> = const { Cell::new(0) };
        static WALK_FALLBACKS: Cell<u64> = const { Cell::new(0) };
    }

    /// The process-wide `region.band_merges` counter in the unified
    /// metrics registry — the same bands the per-thread cell counts, summed
    /// across every thread.
    fn registry_counter() -> &'static octant_telemetry::Counter {
        static COUNTER: OnceLock<octant_telemetry::Counter> = OnceLock::new();
        COUNTER.get_or_init(|| {
            octant_telemetry::MetricsRegistry::global().counter("region.band_merges")
        })
    }

    /// `region.crossing_scan_ops`: candidate pairs examined while
    /// enumerating segment crossings. Only pairs whose earlier-ranked
    /// segment is not horizontal are examined, and so counted; a horizontal
    /// first segment's pairs are skipped unscanned.
    fn scan_ops_counter() -> &'static octant_telemetry::Counter {
        static COUNTER: OnceLock<octant_telemetry::Counter> = OnceLock::new();
        COUNTER.get_or_init(|| {
            octant_telemetry::MetricsRegistry::global().counter("region.crossing_scan_ops")
        })
    }

    /// `region.walk_unions` / `region.walk_fallbacks`: intersection-walking
    /// union attempts that produced a stitched result vs. those that
    /// declined and fell back to the band sweep.
    fn walk_counter(fallback: bool) -> &'static octant_telemetry::Counter {
        static UNIONS: OnceLock<octant_telemetry::Counter> = OnceLock::new();
        static FALLBACKS: OnceLock<octant_telemetry::Counter> = OnceLock::new();
        if fallback {
            FALLBACKS.get_or_init(|| {
                octant_telemetry::MetricsRegistry::global().counter("region.walk_fallbacks")
            })
        } else {
            UNIONS.get_or_init(|| {
                octant_telemetry::MetricsRegistry::global().counter("region.walk_unions")
            })
        }
    }

    /// Folds `n` merged bands into the **calling** thread's counter and the
    /// process-wide `region.band_merges` registry counter. Sweeps call this
    /// once per operation (the band loop counts locally), so the registry
    /// bump is one relaxed add per sweep, not per band.
    pub(crate) fn add_bands(n: u64) {
        if n == 0 {
            return;
        }
        BAND_MERGES.with(|c| c.set(c.get() + n));
        registry_counter().add(n);
    }

    /// Total scanline bands merged by the **calling thread** so far.
    /// Callers measure deltas around operations they ran on their own
    /// thread, unperturbed by concurrent sweeps. For the process-wide
    /// total, read `region.band_merges` from
    /// [`octant_telemetry::MetricsRegistry::global`].
    pub fn thread_band_merges() -> u64 {
        BAND_MERGES.with(|c| c.get())
    }

    /// Folds `n` examined crossing-candidate pairs (pairs with a
    /// non-horizontal first segment) into the calling thread's counter and
    /// the process-wide `region.crossing_scan_ops` registry counter. The
    /// crossing enumeration calls this once per sweep with its total, so
    /// the registry sees one relaxed add per sweep.
    pub(crate) fn add_crossing_scans(n: u64) {
        if n == 0 {
            return;
        }
        CROSSING_SCAN_OPS.with(|c| c.set(c.get() + n));
        scan_ops_counter().add(n);
    }

    /// Total crossing-scan candidate examinations performed by the calling
    /// thread so far: pairs whose earlier-ranked segment is not horizontal
    /// (see `add_crossing_scans`). The region bench reports this delta for
    /// its 16-way intersection and its subtract chain.
    pub fn thread_crossing_scan_ops() -> u64 {
        CROSSING_SCAN_OPS.with(|c| c.get())
    }

    /// Records one successful intersection-walking union (`fallback ==
    /// false`) or one attempt that declined to the band sweep.
    pub(crate) fn add_walk_outcome(fallback: bool) {
        if fallback {
            WALK_FALLBACKS.with(|c| c.set(c.get() + 1));
        } else {
            WALK_UNIONS.with(|c| c.set(c.get() + 1));
        }
        walk_counter(fallback).add(1);
    }

    /// `(walked, fell_back)` intersection-walk outcomes for the calling
    /// thread so far.
    pub fn thread_walk_counts() -> (u64, u64) {
        (
            WALK_UNIONS.with(|c| c.get()),
            WALK_FALLBACKS.with(|c| c.get()),
        )
    }
}

/// Boolean operations supported by [`boolean_op`], over any number of
/// operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoolOp {
    /// Points in at least one operand.
    Union,
    /// Points in every operand.
    Intersection,
    /// Points in the first operand and in none of the others.
    Difference,
    /// Points in an odd number of operands.
    Xor,
}

/// Tolerance for merging event y-coordinates and interval endpoints, in km.
const EPS: f64 = 1e-7;
/// Minimum band height considered, in km.
const MIN_BAND: f64 = 1e-7;
/// Trapezoids with area below this (km²) are dropped as slivers.
const SLIVER_AREA: f64 = 1e-9;

/// A boundary segment in the sweep's arena. Crate-visible so the banded
/// representation ([`crate::banded::BandedRegion`]) can carry its cells'
/// bounding segments without re-deriving them from rings.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Segment {
    a: Vec2,
    b: Vec2,
}

impl Segment {
    fn min_y(&self) -> f64 {
        self.a.y.min(self.b.y)
    }
    fn max_y(&self) -> f64 {
        self.a.y.max(self.b.y)
    }
    /// The x coordinate of the segment at height `y`; the caller guarantees
    /// the segment spans `y`.
    pub(crate) fn x_at(&self, y: f64) -> f64 {
        let dy = self.b.y - self.a.y;
        if dy.abs() < 1e-15 {
            return self.a.x.min(self.b.x);
        }
        let t = ((y - self.a.y) / dy).clamp(0.0, 1.0);
        self.a.x + (self.b.x - self.a.x) * t
    }
}

/// Collects the segments of a set of rings (iterating vertices in place —
/// `Ring::edges` would allocate a pair list per ring, and this runs once
/// per operand per sweep).
pub(crate) fn collect_segments(rings: &[Ring]) -> Vec<Segment> {
    let mut out = Vec::new();
    for ring in rings {
        let pts = ring.points();
        let n = pts.len();
        if n < 2 {
            continue;
        }
        out.reserve(n);
        for i in 0..n {
            let (a, b) = (pts[i], pts[(i + 1) % n]);
            // `a.distance(b) > 1e-12`, from the squares where they decide.
            let d = a - b;
            if order_from_squares(d.length_squared(), 1e-12 * 1e-12)
                .map_or_else(|| d.length() > 1e-12, Ordering::is_gt)
            {
                out.push(Segment { a, b });
            }
        }
    }
    out
}

/// The y-coordinate of the intersection point of two segments, if they
/// meet. Touching pairs count: a shared endpoint, or an endpoint lying on
/// the other segment, is reported (the enumeration drops those that repeat
/// an endpoint height). Parallel and collinear pairs are not — their
/// endpoints are already events.
fn crossing_y(s1: &Segment, s2: &Segment) -> Option<f64> {
    // Quick bounding-box rejection.
    if s1.max_y() < s2.min_y() - EPS
        || s2.max_y() < s1.min_y() - EPS
        || s1.a.x.max(s1.b.x) < s2.a.x.min(s2.b.x) - EPS
        || s2.a.x.max(s2.b.x) < s1.a.x.min(s1.b.x) - EPS
    {
        return None;
    }
    let r = s1.b - s1.a;
    let s = s2.b - s2.a;
    let denom = r.cross(s);
    if denom.abs() < 1e-15 {
        return None; // Parallel or collinear.
    }
    let qp = s2.a - s1.a;
    let t = qp.cross(s) / denom;
    let u = qp.cross(r) / denom;
    if (0.0..=1.0).contains(&t) && (0.0..=1.0).contains(&u) {
        Some(s1.a.y + r.y * t)
    } else {
        None
    }
}

/// The `[min_y, max_y]` range spanned by a segment set. Callers guarantee the
/// set is non-empty.
fn y_range(segs: &[Segment]) -> (f64, f64) {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for s in segs {
        lo = lo.min(s.min_y());
        hi = hi.max(s.max_y());
    }
    (lo, hi)
}

/// Sorts segment indices by `(min_y, index)`, once per sweep: the crossing
/// enumeration's rank order and the band loop's entry order. The
/// earlier-ranked segment of a pair is always [`crossing_y`]'s first
/// argument, and the tie on the original index keeps that orientation, and
/// with it the bits of every crossing y, fixed when segments start at
/// bit-equal heights.
///
/// The sort runs on integer keys: [`ordered_bits`] of `min_y`, then the
/// index. That is the order `partial_cmp` on `min_y` with an index
/// tie-break gives, ±0.0 tying included, because segment coordinates are
/// finite (`Ring::new` drops non-finite points).
fn rank_by_min_y(segs: &[Segment]) -> Vec<usize> {
    let mut keyed: Vec<(u64, u32)> = segs
        .iter()
        .enumerate()
        .map(|(i, s)| (ordered_bits(s.min_y()), i as u32))
        .collect();
    keyed.sort_unstable();
    keyed.into_iter().map(|(_, i)| i as usize).collect()
}

/// `y`'s bits mapped so that unsigned integer order is numeric order. `y +
/// 0.0` folds −0.0 onto +0.0 first, so the two tie as they do under
/// `partial_cmp`. `y` must not be NaN.
fn ordered_bits(y: f64) -> u64 {
    let bits = (y + 0.0).to_bits();
    if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
    }
}

/// Whether `y` is bit-equal to one of the segment's endpoint heights.
fn is_endpoint_height(s: &Segment, y: f64) -> bool {
    y.to_bits() == s.a.y.to_bits() || y.to_bits() == s.b.y.to_bits()
}

/// Whether every crossing [`crossing_y`] can report with `s` as its first
/// segment is bit-equal to `s`'s own height, so the enumeration would drop
/// it: `s` is horizontal (bit-equal endpoint heights) at a height other than
/// −0.0.
///
/// A reported crossing is `a.y + r.y·t` with `r.y = b.y − a.y = +0.0` and
/// `t` in `[0, 1]` (finite, since `|denom| ≥ 1e-15`), so `r.y·t` is ±0.0
/// and the sum is `a.y` bit for bit — except at `a.y = −0.0`, where adding
/// +0.0 gives +0.0, a value the endpoint check would not drop.
fn reports_only_own_height(s: &Segment) -> bool {
    s.a.y.to_bits() == s.b.y.to_bits() && s.a.y.to_bits() != (-0.0f64).to_bits()
}

/// Appends the y-coordinates of all pairwise segment crossings to `ys`: the
/// sweep's one crossing enumeration.
///
/// Takes the segments in `order` (the sweep's [`rank_by_min_y`] ranking)
/// and, for each segment, scans forward while candidates can still overlap
/// it vertically, skipping candidates whose x-span misses its own by more
/// than `EPS`. Every pair that can cross reaches [`crossing_y`], earlier
/// rank first — except the pairs whose earlier segment is horizontal
/// ([`reports_only_own_height`]), which are not scanned at all.
///
/// A crossing whose y is bit-equal to an endpoint height of either segment
/// of the pair is not pushed. The caller pushes every endpoint height, so
/// the value is already in `ys` and the sorted, deduplicated event list is
/// unchanged. In trapezoid soups nearly every reported crossing is such a
/// touching corner, and dropping them here keeps them out of the sort; a
/// horizontal first segment can report nothing else, and the soup's
/// internal horizontal edges are a large share of its segments.
fn pairwise_crossing_ys(segs: &[Segment], order: &[usize], ys: &mut Vec<f64>) {
    // Flat bbox arrays in rank order: the scan touches four contiguous f64
    // lanes instead of chasing `Segment`s, and the x-overlap reject runs
    // before any segment data is loaded.
    let n = order.len();
    let mut min_y = Vec::with_capacity(n);
    let mut max_y = Vec::with_capacity(n);
    let mut min_x = Vec::with_capacity(n);
    let mut max_x = Vec::with_capacity(n);
    for &i in order {
        let s = &segs[i];
        min_y.push(s.min_y());
        max_y.push(s.max_y());
        min_x.push(s.a.x.min(s.b.x));
        max_x.push(s.a.x.max(s.b.x));
    }
    let mut scan_ops = 0u64;
    for k in 0..n {
        let si = &segs[order[k]];
        if reports_only_own_height(si) {
            continue;
        }
        let top = max_y[k] + EPS;
        let (lo_x, hi_x) = (min_x[k] - EPS, max_x[k] + EPS);
        for j in (k + 1)..n {
            scan_ops += 1;
            if min_y[j] > top {
                break;
            }
            if min_x[j] > hi_x || max_x[j] < lo_x {
                continue;
            }
            let sj = &segs[order[j]];
            if let Some(y) = crossing_y(si, sj) {
                if !is_endpoint_height(si, y) && !is_endpoint_height(sj, y) {
                    ys.push(y);
                }
            }
        }
    }
    stats::add_crossing_scans(scan_ops);
}

/// The event heights of a sweep over `segs` (ranked by `order`): every
/// endpoint height plus every pairwise crossing, clipped to `window` when
/// one applies, sorted, with heights closer than `EPS` merged. Between two
/// consecutive events no segment starts, ends or crosses another.
fn event_ys(segs: &[Segment], order: &[usize], window: Option<(f64, f64)>) -> Vec<f64> {
    let mut ys: Vec<f64> = Vec::with_capacity(segs.len() * 2);
    for s in segs {
        ys.push(s.a.y);
        ys.push(s.b.y);
    }
    pairwise_crossing_ys(segs, order, &mut ys);
    sorted_events(ys, window)
}

/// Clips raw event heights to `window`, sorts them and merges heights
/// closer than `EPS`.
///
/// The sort is `f64::total_cmp`, which orders −0.0 before +0.0, so only
/// bit-equal heights tie and the unstable sort is output-identical. Each
/// merged run keeps its first height, the least in that order, so the list
/// depends on which heights occur and not on how many copies of each: a
/// crossing bit-equal to a height already in `ys` changes nothing, which is
/// what lets [`pairwise_crossing_ys`] drop those.
fn sorted_events(mut ys: Vec<f64>, window: Option<(f64, f64)>) -> Vec<f64> {
    if let Some((lo, hi)) = window {
        ys.retain(|y| *y >= lo && *y <= hi);
    }
    ys.sort_unstable_by(f64::total_cmp);
    ys.dedup_by(|x, y| (*x - *y).abs() < EPS);
    ys
}

/// An x-interval at the band midline, remembering which segments produced its
/// endpoints so the trapezoid corners can be evaluated at the band edges.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Interval {
    xl: f64,
    xr: f64,
    pub(crate) seg_l: usize,
    pub(crate) seg_r: usize,
}

/// Pairs sorted crossings into intervals under the even-odd rule, then merges
/// touching intervals (which arise from shared edges of adjacent trapezoids
/// in the operand's own decomposition). Writes into `out` (cleared first) so
/// the per-band loops reuse one buffer instead of allocating per band.
fn pair_intervals_into(xs: &[(f64, usize)], out: &mut Vec<Interval>) {
    out.clear();
    let mut i = 0;
    // An odd trailing crossing (numerically possible when a vertex grazes the
    // midline) is ignored; the affected sliver is below the area epsilon.
    // Pairing and touching-interval merging happen in one pass: a fresh pair
    // either extends the last interval (shared trapezoid seam) or opens a
    // new one.
    while i + 1 < xs.len() {
        let (xl, sl) = xs[i];
        let (xr, sr) = xs[i + 1];
        i += 2;
        if xr - xl <= EPS {
            continue;
        }
        match out.last_mut() {
            Some(last) if xl <= last.xr + EPS => {
                if xr > last.xr {
                    last.xr = xr;
                    last.seg_r = sr;
                }
            }
            _ => out.push(Interval {
                xl,
                xr,
                seg_l: sl,
                seg_r: sr,
            }),
        }
    }
}

/// A trapezoid being grown across consecutive bands.
#[derive(Debug, Clone, Copy)]
struct OpenTrapezoid {
    seg_l: usize,
    seg_r: usize,
    y_bottom: f64,
    y_top: f64,
}

fn emit(trap: &OpenTrapezoid, segs: &[Segment], out: &mut Vec<Ring>) {
    let sl = &segs[trap.seg_l];
    let sr = &segs[trap.seg_r];
    let bl = Vec2::new(sl.x_at(trap.y_bottom), trap.y_bottom);
    let br = Vec2::new(sr.x_at(trap.y_bottom), trap.y_bottom);
    let tr = Vec2::new(sr.x_at(trap.y_top), trap.y_top);
    let tl = Vec2::new(sl.x_at(trap.y_top), trap.y_top);
    let ring = Ring::new(vec![bl, br, tr, tl]);
    if ring.area() > SLIVER_AREA {
        out.push(ring);
    }
}

/// Computes a boolean combination of polygon sets, each interpreted with
/// the even-odd rule, in **one scanline sweep**, and returns the result as
/// a set of interior-disjoint rings (trapezoids merged vertically where
/// possible). This is the engine's one sweep entry point; the two-operand
/// ops of [`crate::Region`] call it with two operands.
///
/// Folding a two-operand op over N operands would re-decompose, re-cross
/// and re-merge the accumulated intermediate result N−1 times; one sweep
/// merges all N operands' interval lists band by band instead.
/// [`BoolOp::Difference`] is the first operand minus all the others, and
/// [`BoolOp::Xor`] keeps the points an odd number of operands cover.
/// Intersections are swept over the operands' common y-window and
/// differences over the first operand's y-range, with segments wholly
/// outside the window dropped up front: no point outside it can be in the
/// result.
pub fn boolean_op(operands: &[&[Ring]], op: BoolOp) -> Vec<Ring> {
    let per_op = operands
        .iter()
        .map(|rings| collect_segments(rings))
        .collect();
    match plan_nary(per_op, op) {
        NaryPlan::Empty => Vec::new(),
        NaryPlan::Passthrough(i) => operands[i].to_vec(),
        NaryPlan::Sweep { per_op, window } => stitch_sweep(&sweep_bands(per_op, op, window)),
    }
}

/// Folds one band's result intervals into the set of open trapezoids:
/// an interval whose bounding segments match an open trapezoid ending
/// exactly at `y0` extends it; everything else opens fresh, and open
/// trapezoids not extended into this band are emitted.
fn merge_band(
    open: &mut Vec<OpenTrapezoid>,
    scratch: &mut Vec<OpenTrapezoid>,
    res: &[Interval],
    y0: f64,
    y1: f64,
    segs: &[Segment],
    out: &mut Vec<Ring>,
) {
    scratch.clear();
    let next_open: &mut Vec<OpenTrapezoid> = scratch;
    // `(seg_l, seg_r)` pairs are unique within `open` (a band's intervals
    // are disjoint and each segment crosses the midline once), so *any*
    // search strategy finds the same unique match. In the steady state a
    // band repeats the previous band's intervals in the same positions, so
    // probe the positional candidate first and only fall back to the
    // linear scan on a miss.
    for (k, itv) in res.iter().enumerate() {
        let matches = |ot: &OpenTrapezoid| {
            ot.seg_l == itv.seg_l && ot.seg_r == itv.seg_r && (ot.y_top - y0).abs() < EPS
        };
        let found = match open.get(k) {
            Some(ot) if matches(ot) => Some(k),
            _ => open.iter().position(matches),
        };
        match found {
            Some(i) => {
                let ot = &mut open[i];
                next_open.push(OpenTrapezoid { y_top: y1, ..*ot });
                // Mark as consumed by moving its top below everything.
                ot.y_top = f64::NEG_INFINITY;
            }
            None => next_open.push(OpenTrapezoid {
                seg_l: itv.seg_l,
                seg_r: itv.seg_r,
                y_bottom: y0,
                y_top: y1,
            }),
        }
    }
    // Emit trapezoids that were not extended into this band.
    for ot in open.iter() {
        if ot.y_top.is_finite() {
            emit(ot, segs, out);
        }
    }
    std::mem::swap(open, next_open);
}

/// The resolved shape of a combination after operand triage: nothing to
/// do, a verbatim single-operand passthrough (by original operand index),
/// or a genuine sweep over the pruned segment lists.
pub(crate) enum NaryPlan {
    /// The result is the empty set.
    Empty,
    /// The result is exactly the operand at this (original) index.
    Passthrough(usize),
    /// A sweep is required.
    Sweep {
        /// Per-operand segment lists, pruned to the window when one
        /// applies, without the operands that cannot change the result (a
        /// difference's first operand stays first).
        per_op: Vec<Vec<Segment>>,
        /// The y-window the sweep is restricted to, when one applies.
        window: Option<(f64, f64)>,
    },
}

/// Triage of a combination from per-operand segment lists (aligned with
/// the caller's operand order; empty lists represent empty operands). This
/// is the front half of [`boolean_op`] and of
/// [`crate::Region::intersect_many`], so both resolve the fast paths
/// identically:
///
/// * union and xor drop empty operands, and a single one left is the
///   result;
/// * an empty operand empties an intersection, and a lone operand is the
///   result;
/// * an empty first operand empties a difference, and when every other
///   operand is empty or lies outside the first operand's y-range, the
///   first operand is the result.
pub(crate) fn plan_nary(mut per_op: Vec<Vec<Segment>>, op: BoolOp) -> NaryPlan {
    let (lo, hi) = match op {
        BoolOp::Union | BoolOp::Xor => {
            let mut kept: Vec<Vec<Segment>> = Vec::with_capacity(per_op.len());
            let mut last_non_empty = 0;
            for (i, segs) in per_op.into_iter().enumerate() {
                if !segs.is_empty() {
                    kept.push(segs);
                    last_non_empty = i;
                }
            }
            return match kept.len() {
                0 => NaryPlan::Empty,
                1 => NaryPlan::Passthrough(last_non_empty),
                _ => NaryPlan::Sweep {
                    per_op: kept,
                    window: None,
                },
            };
        }
        BoolOp::Intersection => {
            if per_op.is_empty() || per_op.iter().any(Vec::is_empty) {
                return NaryPlan::Empty;
            }
            if per_op.len() == 1 {
                return NaryPlan::Passthrough(0);
            }
            per_op.iter().map(|segs| y_range(segs)).fold(
                (f64::NEG_INFINITY, f64::INFINITY),
                |(lo, hi), (slo, shi)| (lo.max(slo), hi.min(shi)),
            )
        }
        BoolOp::Difference => {
            if per_op.first().is_none_or(Vec::is_empty) {
                return NaryPlan::Empty;
            }
            if per_op[1..].iter().all(Vec::is_empty) {
                return NaryPlan::Passthrough(0);
            }
            y_range(&per_op[0])
        }
    };
    if hi - lo < MIN_BAND {
        return NaryPlan::Empty;
    }
    for segs in &mut per_op {
        segs.retain(|s| s.max_y() > lo && s.min_y() < hi);
    }
    if op == BoolOp::Difference {
        let mut subtrahends = per_op.split_off(1);
        subtrahends.retain(|segs| !segs.is_empty());
        if per_op[0].is_empty() {
            return NaryPlan::Empty;
        }
        if subtrahends.is_empty() {
            return NaryPlan::Passthrough(0);
        }
        per_op.extend(subtrahends);
    } else if per_op.iter().any(Vec::is_empty) {
        return NaryPlan::Empty;
    }
    NaryPlan::Sweep {
        per_op,
        window: Some((lo, hi)),
    }
}

/// One processed scanline band: its y-extent and the range of its merged
/// result intervals inside the sweep's shared interval pool (possibly
/// empty — an empty band still closes any trapezoids open below it when
/// the bands are stitched). Pooling the intervals keeps the per-band work
/// allocation-free: thousands of tiny `Vec`s per sweep were a measurable
/// share of union-heavy workloads like dilation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BandData {
    pub(crate) y0: f64,
    pub(crate) y1: f64,
    start: usize,
    end: usize,
}

/// The banded outcome of a sweep: the segment arena the intervals index
/// into, the shared interval pool, plus the processed bands in ascending-y
/// order. This is the sweep's *native* output — [`stitch_sweep`] turns it
/// into rings, and [`crate::banded::BandedRegion`] keeps it as-is so
/// callers can read it without re-polygonizing.
#[derive(Debug, Clone)]
pub(crate) struct BandedSweep {
    pub(crate) segs: Vec<Segment>,
    pool: Vec<Interval>,
    pub(crate) bands: Vec<BandData>,
}

impl BandData {
    /// Number of result intervals in this band.
    pub(crate) fn len(&self) -> usize {
        self.end - self.start
    }
}

impl BandedSweep {
    /// An empty sweep result.
    pub(crate) fn empty() -> Self {
        BandedSweep {
            segs: Vec::new(),
            pool: Vec::new(),
            bands: Vec::new(),
        }
    }

    /// The result intervals of one band.
    pub(crate) fn intervals(&self, band: &BandData) -> &[Interval] {
        &self.pool[band.start..band.end]
    }
}

/// The one band sweep: a band decomposition over all operands that keeps,
/// in every band, the x-ranges `op` selects from the operands' coverage.
/// Returns the banded decomposition; callers stitch it into rings
/// ([`stitch_sweep`]) or keep it banded.
///
/// The active list is kept **sorted by `(x, seq)` across bands** instead of
/// being re-sorted per operand per band: consecutive midlines only swap the
/// segments that actually cross between them, so an adaptive insertion pass
/// (cost: active size + inversions) repairs the order, and entrants
/// binary-insert at their position. `(x, seq)` is a total order that does
/// not depend on the previous band's arrangement, so the maintained list
/// equals a from-scratch sort at every band.
pub(crate) fn sweep_bands(
    per_op: Vec<Vec<Segment>>,
    op: BoolOp,
    window: Option<(f64, f64)>,
) -> BandedSweep {
    let n_ops = per_op.len();
    // One segment arena (trapezoid corners index into it) plus the owning
    // operand of every segment.
    let mut segs: Vec<Segment> = Vec::new();
    let mut op_of: Vec<u32> = Vec::new();
    for (oi, list) in per_op.iter().enumerate() {
        for s in list {
            segs.push(*s);
            op_of.push(oi as u32);
        }
    }

    // One ranking serves both the crossing enumeration and the order in
    // which segments enter the active list.
    let by_min = rank_by_min_y(&segs);
    let ys = event_ys(&segs, &by_min, window);

    let mut next_in = 0usize;
    let mut ordered: Vec<ActiveSeg> = Vec::new();
    let mut xs_per_op: Vec<Vec<(f64, usize)>> = vec![Vec::new(); n_ops];
    let mut intervals_per_op: Vec<Vec<Interval>> = vec![Vec::new(); n_ops];
    let mut events: Vec<CountEvent> = Vec::new();
    let mut bands: Vec<BandData> = Vec::with_capacity(ys.len().saturating_sub(1));
    let mut pool: Vec<Interval> = Vec::new();

    for w in ys.windows(2) {
        let (y0, y1) = (w[0], w[1]);
        if y1 - y0 < MIN_BAND {
            continue;
        }
        let ym = 0.5 * (y0 + y1);

        // Drop dead segments and re-evaluate the survivors at the new
        // midline (entry/exit conditions guarantee each survivor spans ym).
        ordered.retain_mut(|e| {
            let s = &segs[e.idx as usize];
            if s.max_y() > ym {
                e.x = s.x_at(ym);
                true
            } else {
                false
            }
        });
        // Adjacent bands reorder only the segments that cross between
        // their midlines, so the list is near-sorted: one adaptive
        // insertion pass restores exact `(x, seq)` order.
        for i in 1..ordered.len() {
            let mut j = i;
            while j > 0 && active_before(&ordered[j], &ordered[j - 1]) {
                ordered.swap(j - 1, j);
                j -= 1;
            }
        }
        while next_in < by_min.len() && segs[by_min[next_in]].min_y() < ym {
            let idx = by_min[next_in] as u32;
            let s = &segs[by_min[next_in]];
            if s.max_y() > ym {
                let e = ActiveSeg {
                    x: s.x_at(ym),
                    seq: next_in as u32,
                    idx,
                };
                let at = ordered.partition_point(|o| active_before(o, &e));
                ordered.insert(at, e);
            }
            next_in += 1;
        }

        for xs in xs_per_op.iter_mut() {
            xs.clear();
        }
        for e in &ordered {
            xs_per_op[op_of[e.idx as usize] as usize].push((e.x, e.idx as usize));
        }
        let mut dead = false;
        let mut non_empty = 0usize;
        let mut last_non_empty = 0usize;
        for (oi, xs) in xs_per_op.iter().enumerate() {
            pair_intervals_into(xs, &mut intervals_per_op[oi]);
            if !intervals_per_op[oi].is_empty() {
                non_empty += 1;
                last_non_empty = oi;
            } else if op == BoolOp::Intersection || (op == BoolOp::Difference && oi == 0) {
                // An empty operand empties an intersection band, and an
                // empty first operand a difference band.
                dead = true;
                break;
            }
        }
        let pool_start = pool.len();
        if !dead {
            if non_empty == 1 {
                // Where one operand alone covers a band that is not dead,
                // every op keeps exactly its intervals: the per-operand
                // lists are already disjoint, sorted and EPS-filtered, so
                // the event merge would reproduce them verbatim.
                pool.extend_from_slice(&intervals_per_op[last_non_empty]);
            } else {
                interval_op_many(&intervals_per_op, op, &mut events, &mut pool);
            }
        }
        bands.push(BandData {
            y0,
            y1,
            start: pool_start,
            end: pool.len(),
        });
    }
    stats::add_bands(bands.len() as u64);
    BandedSweep { segs, pool, bands }
}

/// One entry of the incrementally ordered active list: the segment's x at
/// the current band midline, its position in the `by_min` entry order
/// (`seq`, the tie-break), and its arena index.
#[derive(Debug, Clone, Copy)]
struct ActiveSeg {
    x: f64,
    seq: u32,
    idx: u32,
}

/// Strict `(x, seq)` order of the active list: `x` compared through
/// `partial_cmp`, ties broken on the entry sequence.
fn active_before(a: &ActiveSeg, b: &ActiveSeg) -> bool {
    match a.x.partial_cmp(&b.x) {
        Some(std::cmp::Ordering::Less) => true,
        Some(std::cmp::Ordering::Equal) => a.seq < b.seq,
        _ => false,
    }
}

/// Stitches a banded sweep result into interior-disjoint rings: every band
/// folded through [`merge_band`] in order, trailing open trapezoids
/// emitted, and vertically mergeable quads compacted.
pub(crate) fn stitch_sweep(sweep: &BandedSweep) -> Vec<Ring> {
    compact_trapezoids(band_trapezoids(sweep))
}

/// The trapezoids of a banded sweep result, each grown across the bands
/// its bounding segments share, before compaction.
fn band_trapezoids(sweep: &BandedSweep) -> Vec<Ring> {
    let segs = &sweep.segs;
    let mut out: Vec<Ring> = Vec::new();
    let mut open: Vec<OpenTrapezoid> = Vec::new();
    let mut open_scratch: Vec<OpenTrapezoid> = Vec::new();
    for band in &sweep.bands {
        merge_band(
            &mut open,
            &mut open_scratch,
            sweep.intervals(band),
            band.y0,
            band.y1,
            segs,
            &mut out,
        );
    }
    for ot in &open {
        if ot.y_top.is_finite() {
            emit(ot, segs, &mut out);
        }
    }
    out
}

/// An interval endpoint event of the per-band combine.
#[derive(Clone, Copy)]
struct CountEvent {
    x: f64,
    /// `1` where an operand's interval starts, `-1` where it ends.
    delta: i32,
    /// Whether the interval is the first operand's.
    first: bool,
    seg: usize,
}

/// Merges N disjoint, sorted per-operand interval lists, keeping the
/// x-ranges `op` selects. `events` is a reusable scratch buffer (cleared
/// here); results are **appended** to `out` (the sweep's shared interval
/// pool), so the band loop performs no per-band allocation at all.
fn interval_op_many(
    per_op: &[Vec<Interval>],
    op: BoolOp,
    events: &mut Vec<CountEvent>,
    out: &mut Vec<Interval>,
) {
    type Event = CountEvent;
    events.clear();
    let total: usize = per_op.iter().map(|l| l.len()).sum();
    events.reserve(2 * total);
    for (oi, list) in per_op.iter().enumerate() {
        let first = oi == 0;
        for itv in list {
            events.push(Event {
                x: itv.xl,
                delta: 1,
                first,
                seg: itv.seg_l,
            });
            events.push(Event {
                x: itv.xr,
                delta: -1,
                first,
                seg: itv.seg_r,
            });
        }
    }
    // Starts before ends at equal x, so abutting intervals from different
    // operands neither open a phantom gap (union) nor a phantom overlap
    // wider than the EPS filter (intersection).
    events.sort_by(|a, b| {
        a.x.partial_cmp(&b.x)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| b.delta.cmp(&a.delta))
    });

    // An operand's own intervals are disjoint, so `count` is the number of
    // operands covering the current x.
    let n = per_op.len() as i32;
    let selected = |count: i32, in_first: bool| match op {
        BoolOp::Union => count >= 1,
        BoolOp::Intersection => count >= n,
        BoolOp::Difference => in_first && count == 1,
        BoolOp::Xor => count % 2 == 1,
    };
    let mut count = 0i32;
    let mut in_first = false;
    let mut open: Option<(f64, usize)> = None;
    for ev in events.iter() {
        let was = selected(count, in_first);
        count += ev.delta;
        if ev.first {
            in_first = ev.delta > 0;
        }
        let now = selected(count, in_first);
        if now && !was {
            open = Some((ev.x, ev.seg));
        } else if was && !now {
            if let Some((xl, seg_l)) = open.take() {
                if ev.x - xl > EPS {
                    out.push(Interval {
                        xl,
                        xr: ev.x,
                        seg_l,
                        seg_r: ev.seg,
                    });
                }
            }
        }
    }
}

/// Merges vertically stacked trapezoids whose shared edge is exact and whose
/// left/right boundaries are collinear. Chained boolean operations fragment
/// boundary segments at band boundaries; without this pass the representation
/// (and therefore the cost of subsequent operations) grows with every
/// operation in a solve.
///
/// Only merged quads are rebuilt with `Ring::new`; every other quad keeps
/// the ring [`emit`] built for it. That ring is the same one a rebuild would
/// give: a 4-point ring lost no vertex to cleaning, so cleaning its points
/// again keeps all four, and the bbox and convexity follow from the points.
fn compact_trapezoids(rings: Vec<Ring>) -> Vec<Ring> {
    use std::collections::HashMap;

    // The edge-key map is consulted a few times per trapezoid; SipHash on
    // the 32-byte keys was a measurable slice of union-heavy profiles, so
    // the map uses a trivial multiply-xor hasher instead. The hash only
    // steers bucket placement — lookups compare full keys — so the merge
    // result is unchanged.
    #[derive(Default)]
    struct QuadKeyHasher(u64);
    impl std::hash::Hasher for QuadKeyHasher {
        fn finish(&self) -> u64 {
            self.0
        }
        fn write(&mut self, bytes: &[u8]) {
            for chunk in bytes.chunks(8) {
                let mut buf = [0u8; 8];
                buf[..chunk.len()].copy_from_slice(chunk);
                self.0 = (self.0 ^ u64::from_le_bytes(buf)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            }
        }
        fn write_i64(&mut self, v: i64) {
            self.0 = (self.0 ^ v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }
    type QuadKeyState = std::hash::BuildHasherDefault<QuadKeyHasher>;

    // Only quads produced by `emit` are merged; anything else passes through.
    #[derive(Clone, Copy)]
    struct Quad {
        bl: Vec2,
        br: Vec2,
        tr: Vec2,
        tl: Vec2,
    }
    fn as_quad(r: &Ring) -> Option<Quad> {
        let p = r.points();
        if p.len() != 4 {
            return None;
        }
        // emit() pushes [bl, br, tr, tl]; Ring::new may have dropped
        // duplicates, so a 4-point ring here keeps that order.
        if (p[0].y - p[1].y).abs() > EPS || (p[2].y - p[3].y).abs() > EPS {
            return None;
        }
        if p[2].y <= p[0].y {
            return None;
        }
        Some(Quad {
            bl: p[0],
            br: p[1],
            tr: p[2],
            tl: p[3],
        })
    }
    fn key(a: Vec2, b: Vec2) -> (i64, i64, i64, i64) {
        let q = |v: f64| (v / (EPS * 10.0)).round() as i64;
        (q(a.x), q(a.y), q(b.x), q(b.y))
    }
    /// `|ab × ac| <= 1e-6 · max(|ab|, 1) · max(|ac|, 1)`, decided from
    /// the squared sides where they clear each other.
    fn collinear(a: Vec2, b: Vec2, c: Vec2) -> bool {
        let (ab, ac) = (b - a, c - a);
        let cross = ab.cross(ac);
        let bound_sq = 1e-6 * 1e-6 * ab.length_squared().max(1.0) * ac.length_squared().max(1.0);
        order_from_squares(cross * cross, bound_sq).map_or_else(
            || cross.abs() <= 1e-6 * ab.length().max(1.0) * ac.length().max(1.0),
            Ordering::is_lt,
        )
    }

    // `emitted[i]` is quad i's ring until another quad merges into it.
    let mut quads: Vec<Option<Quad>> = Vec::new();
    let mut emitted: Vec<Option<Ring>> = Vec::new();
    let mut passthrough: Vec<Ring> = Vec::new();
    for r in rings {
        match as_quad(&r) {
            Some(q) => {
                quads.push(Some(q));
                emitted.push(Some(r));
            }
            None => passthrough.push(r),
        }
    }

    // Map from a quad's bottom edge to its index, so the quad below can find
    // the one stacked on top of it.
    let mut by_bottom: HashMap<(i64, i64, i64, i64), usize, QuadKeyState> =
        HashMap::with_capacity_and_hasher(quads.len(), QuadKeyState::default());
    for (i, q) in quads.iter().enumerate() {
        if let Some(q) = q {
            by_bottom.insert(key(q.bl, q.br), i);
        }
    }

    let n = quads.len();
    for i in 0..n {
        // Repeatedly absorb the quad sitting directly on top of quad i.
        while let Some(base) = quads[i] {
            let top_key = key(base.tl, base.tr);
            let j = match by_bottom.get(&top_key) {
                Some(&j) if j != i && quads[j].is_some() => j,
                _ => break,
            };
            let upper = quads[j].expect("checked above");
            if collinear(base.bl, base.tl, upper.tl) && collinear(base.br, base.tr, upper.tr) {
                let merged = Quad {
                    bl: base.bl,
                    br: base.br,
                    tr: upper.tr,
                    tl: upper.tl,
                };
                by_bottom.remove(&key(upper.bl, upper.br));
                quads[j] = None;
                quads[i] = Some(merged);
                emitted[i] = None;
            } else {
                break;
            }
        }
    }

    let mut out = passthrough;
    for (q, ring) in quads.into_iter().zip(emitted) {
        if let Some(q) = q {
            out.push(ring.unwrap_or_else(|| Ring::new(vec![q.bl, q.br, q.tr, q.tl])));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::Region;

    fn square(x0: f64, y0: f64, x1: f64, y1: f64) -> Vec<Ring> {
        vec![Ring::rectangle(Vec2::new(x0, y0), Vec2::new(x1, y1))]
    }

    fn total_area(rings: &[Ring]) -> f64 {
        rings.iter().map(|r| r.area()).sum()
    }

    fn contains(rings: &[Ring], p: Vec2) -> bool {
        let mut inside = false;
        for r in rings {
            if r.contains(p) {
                inside = !inside;
            }
        }
        inside
    }

    #[test]
    fn disjoint_squares() {
        let a = square(0.0, 0.0, 1.0, 1.0);
        let b = square(5.0, 5.0, 6.0, 6.0);
        assert!((total_area(&boolean_op(&[&a, &b], BoolOp::Union)) - 2.0).abs() < 1e-6);
        assert!(total_area(&boolean_op(&[&a, &b], BoolOp::Intersection)) < 1e-9);
        assert!((total_area(&boolean_op(&[&a, &b], BoolOp::Difference)) - 1.0).abs() < 1e-6);
        assert!((total_area(&boolean_op(&[&a, &b], BoolOp::Xor)) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn overlapping_squares() {
        // Unit squares overlapping in a 0.5 x 1.0 strip.
        let a = square(0.0, 0.0, 1.0, 1.0);
        let b = square(0.5, 0.0, 1.5, 1.0);
        let union = boolean_op(&[&a, &b], BoolOp::Union);
        assert!((total_area(&union) - 1.5).abs() < 1e-6);
        let inter = boolean_op(&[&a, &b], BoolOp::Intersection);
        assert!((total_area(&inter) - 0.5).abs() < 1e-6);
        let diff = boolean_op(&[&a, &b], BoolOp::Difference);
        assert!((total_area(&diff) - 0.5).abs() < 1e-6);
        let xor = boolean_op(&[&a, &b], BoolOp::Xor);
        assert!((total_area(&xor) - 1.0).abs() < 1e-6);
        // Spot-check membership.
        assert!(contains(&inter, Vec2::new(0.75, 0.5)));
        assert!(!contains(&inter, Vec2::new(0.25, 0.5)));
        assert!(contains(&diff, Vec2::new(0.25, 0.5)));
        assert!(!contains(&diff, Vec2::new(0.75, 0.5)));
        assert!(contains(&union, Vec2::new(1.25, 0.5)));
    }

    #[test]
    fn nested_squares_difference_creates_a_hole() {
        let outer = square(0.0, 0.0, 4.0, 4.0);
        let inner = square(1.0, 1.0, 3.0, 3.0);
        let diff = boolean_op(&[&outer, &inner], BoolOp::Difference);
        assert!((total_area(&diff) - 12.0).abs() < 1e-6);
        assert!(contains(&diff, Vec2::new(0.5, 0.5)));
        assert!(contains(&diff, Vec2::new(3.5, 2.0)));
        assert!(
            !contains(&diff, Vec2::new(2.0, 2.0)),
            "the hole must be excluded"
        );
        // Intersection recovers the inner square.
        let inter = boolean_op(&[&outer, &inner], BoolOp::Intersection);
        assert!((total_area(&inter) - 4.0).abs() < 1e-6);
        // Union is just the outer square.
        let union = boolean_op(&[&outer, &inner], BoolOp::Union);
        assert!((total_area(&union) - 16.0).abs() < 1e-6);
    }

    #[test]
    fn identical_operands() {
        let a = square(0.0, 0.0, 2.0, 3.0);
        assert!((total_area(&boolean_op(&[&a, &a], BoolOp::Union)) - 6.0).abs() < 1e-5);
        assert!((total_area(&boolean_op(&[&a, &a], BoolOp::Intersection)) - 6.0).abs() < 1e-5);
        assert!(total_area(&boolean_op(&[&a, &a], BoolOp::Difference)) < 1e-5);
        assert!(total_area(&boolean_op(&[&a, &a], BoolOp::Xor)) < 1e-5);
    }

    #[test]
    fn empty_operands() {
        let a = square(0.0, 0.0, 1.0, 1.0);
        let empty: Vec<Ring> = Vec::new();
        assert!((total_area(&boolean_op(&[&a, &empty], BoolOp::Union)) - 1.0).abs() < 1e-9);
        assert!(total_area(&boolean_op(&[&a, &empty], BoolOp::Intersection)) < 1e-12);
        assert!((total_area(&boolean_op(&[&a, &empty], BoolOp::Difference)) - 1.0).abs() < 1e-9);
        assert!((total_area(&boolean_op(&[&empty, &a], BoolOp::Union)) - 1.0).abs() < 1e-9);
        assert!(total_area(&boolean_op(&[&empty, &a], BoolOp::Difference)) < 1e-12);
        assert!(total_area(&boolean_op(&[&empty, &empty], BoolOp::Union)) < 1e-12);
    }

    #[test]
    fn circle_circle_intersection_lens_area() {
        // Two unit-radius circles whose centres are 1 apart: the lens area is
        // 2r² cos⁻¹(d/2r) − (d/2)·√(4r²−d²) ≈ 1.2284.
        let a = vec![Ring::regular_polygon(Vec2::new(0.0, 0.0), 1.0, 256)];
        let b = vec![Ring::regular_polygon(Vec2::new(1.0, 0.0), 1.0, 256)];
        let lens = boolean_op(&[&a, &b], BoolOp::Intersection);
        let expected = 2.0 * (0.5f64).acos() - 0.5 * (4.0f64 - 1.0).sqrt();
        assert!(
            (total_area(&lens) - expected).abs() < 0.01,
            "lens area {} vs {}",
            total_area(&lens),
            expected
        );
        // Union area = 2πr² − lens.
        let union = boolean_op(&[&a, &b], BoolOp::Union);
        let expected_union = 2.0 * std::f64::consts::PI - expected;
        assert!((total_area(&union) - expected_union).abs() < 0.02);
    }

    #[test]
    fn chained_operations_remain_consistent() {
        // (A ∩ B) \ C where C sits inside the lens.
        let a = vec![Ring::regular_polygon(Vec2::new(0.0, 0.0), 100.0, 128)];
        let b = vec![Ring::regular_polygon(Vec2::new(80.0, 0.0), 100.0, 128)];
        let c = vec![Ring::regular_polygon(Vec2::new(40.0, 0.0), 20.0, 64)];
        let lens = boolean_op(&[&a, &b], BoolOp::Intersection);
        let lens_area = total_area(&lens);
        let result = boolean_op(&[&lens, &c], BoolOp::Difference);
        let expected = lens_area - std::f64::consts::PI * 20.0 * 20.0;
        assert!(
            (total_area(&result) - expected).abs() / expected < 0.01,
            "got {}, expected {}",
            total_area(&result),
            expected
        );
        assert!(!contains(&result, Vec2::new(40.0, 0.0)));
        assert!(contains(&result, Vec2::new(40.0, 50.0)));
    }

    #[test]
    fn difference_with_partially_overlapping_circle() {
        let a = vec![Ring::regular_polygon(Vec2::new(0.0, 0.0), 10.0, 128)];
        let b = vec![Ring::regular_polygon(Vec2::new(15.0, 0.0), 10.0, 128)];
        let diff = boolean_op(&[&a, &b], BoolOp::Difference);
        // Area = circle − lens; lens for r=10, d=15: 2r²cos⁻¹(d/2r) − (d/2)√(4r²−d²)
        let r: f64 = 10.0;
        let d: f64 = 15.0;
        let lens = 2.0 * r * r * (d / (2.0 * r)).acos() - (d / 2.0) * (4.0 * r * r - d * d).sqrt();
        let expected = std::f64::consts::PI * r * r - lens;
        assert!((total_area(&diff) - expected).abs() / expected < 0.01);
    }

    #[test]
    fn triangle_and_square() {
        let tri = vec![Ring::new(vec![
            Vec2::new(0.0, 0.0),
            Vec2::new(4.0, 0.0),
            Vec2::new(2.0, 4.0),
        ])];
        let sq = square(0.0, 0.0, 4.0, 2.0);
        let inter = boolean_op(&[&tri, &sq], BoolOp::Intersection);
        // The triangle below y=2 is a trapezoid with area 6 (bases 4 and 2, height 2).
        assert!(
            (total_area(&inter) - 6.0).abs() < 1e-5,
            "area {}",
            total_area(&inter)
        );
        let union = boolean_op(&[&tri, &sq], BoolOp::Union);
        // Union = triangle (8) + square (8) − intersection (6) = 10.
        assert!((total_area(&union) - 10.0).abs() < 1e-5);
    }

    #[test]
    fn nary_intersection_matches_chained_pairwise() {
        let disks: Vec<Vec<Ring>> = (0..6)
            .map(|i| {
                let a = i as f64 * 1.1;
                vec![Ring::regular_polygon(
                    Vec2::new(a.cos() * 30.0, a.sin() * 30.0),
                    80.0,
                    64,
                )]
            })
            .collect();
        let mut chained = disks[0].clone();
        for d in &disks[1..] {
            chained = boolean_op(&[&chained, d], BoolOp::Intersection);
        }
        let operands: Vec<&[Ring]> = disks.iter().map(|d| d.as_slice()).collect();
        let nary = boolean_op(&operands, BoolOp::Intersection);
        let (ca, na) = (total_area(&chained), total_area(&nary));
        assert!(
            (ca - na).abs() / ca.max(1.0) < 1e-6,
            "chained {ca} vs n-ary {na}"
        );
        // Membership parity on a grid.
        for i in 0..30 {
            for j in 0..30 {
                let p = Vec2::new(-60.0 + i as f64 * 4.0, -60.0 + j as f64 * 4.0);
                let want = disks.iter().all(|d| contains(d, p));
                // Skip points hugging a boundary, where either result may
                // legitimately classify them differently.
                let near_boundary = disks.iter().any(|d| {
                    d[0].points()
                        .iter()
                        .zip(d[0].points().iter().cycle().skip(1))
                        .any(|(&a, &b)| p.distance_to_segment(a, b) < 0.5)
                });
                if !near_boundary {
                    assert_eq!(contains(&nary, p), want, "membership mismatch at {p}");
                }
            }
        }
    }

    #[test]
    fn nary_union_matches_chained_pairwise() {
        let shapes: Vec<Vec<Ring>> = (0..5)
            .map(|i| {
                let x = i as f64 * 35.0;
                vec![Ring::regular_polygon(
                    Vec2::new(x, (i % 2) as f64 * 20.0),
                    40.0,
                    48,
                )]
            })
            .collect();
        let mut chained = shapes[0].clone();
        for s in &shapes[1..] {
            chained = boolean_op(&[&chained, s], BoolOp::Union);
        }
        let operands: Vec<&[Ring]> = shapes.iter().map(|s| s.as_slice()).collect();
        let nary = boolean_op(&operands, BoolOp::Union);
        let (ca, na) = (total_area(&chained), total_area(&nary));
        assert!(
            (ca - na).abs() / ca.max(1.0) < 1e-6,
            "chained {ca} vs n-ary {na}"
        );
    }

    #[test]
    fn nary_intersection_empty_and_degenerate_operands() {
        let a = square(0.0, 0.0, 1.0, 1.0);
        let empty: Vec<Ring> = Vec::new();
        assert!(boolean_op(&[], BoolOp::Intersection).is_empty());
        assert!(boolean_op(&[&a, &empty], BoolOp::Intersection).is_empty());
        let only = boolean_op(&[&a], BoolOp::Intersection);
        assert!((total_area(&only) - 1.0).abs() < 1e-9);
        assert!(boolean_op(&[], BoolOp::Union).is_empty());
        let u = boolean_op(&[&empty, &a, &empty], BoolOp::Union);
        assert!((total_area(&u) - 1.0).abs() < 1e-9);
        // Disjoint y-windows annihilate the intersection without a sweep.
        let b = square(0.0, 5.0, 1.0, 6.0);
        assert!(boolean_op(&[&a, &b], BoolOp::Intersection).is_empty());
    }

    /// Triage of the n-ary difference and xor: an empty first operand
    /// empties a difference; subtrahends that are all empty, or all outside
    /// the first operand's y-range, return it verbatim; xor drops empty
    /// operands as union does and keeps odd coverage.
    #[test]
    fn nary_difference_and_xor_triage() {
        let a = square(0.0, 0.0, 1.0, 1.0);
        let b = square(0.5, 0.0, 1.5, 1.0);
        let c = square(0.25, 0.0, 0.75, 1.0);
        let empty: Vec<Ring> = Vec::new();
        assert!(boolean_op(&[], BoolOp::Difference).is_empty());
        assert!(boolean_op(&[&empty, &a], BoolOp::Difference).is_empty());
        assert_eq!(boolean_op(&[&a], BoolOp::Difference), a);
        assert_eq!(boolean_op(&[&a, &empty, &empty], BoolOp::Difference), a);
        // Touching the first operand's y-range from outside is outside.
        let above = square(0.0, 1.0, 1.0, 2.0);
        let below = square(-1.0, -3.0, 2.0, -1.0);
        assert_eq!(boolean_op(&[&a, &above, &below], BoolOp::Difference), a);
        // Such subtrahends drop out of a sweep that still runs.
        let pair = boolean_op(&[&a, &b], BoolOp::Difference);
        assert_eq!(
            boolean_op(&[&a, &above, &b, &empty], BoolOp::Difference),
            pair
        );
        assert!((total_area(&pair) - 0.5).abs() < 1e-9);
        let triple = boolean_op(&[&a, &b, &c], BoolOp::Difference);
        assert!((total_area(&triple) - 0.25).abs() < 1e-9);
        assert!(contains(&triple, Vec2::new(0.1, 0.5)));
        assert!(!contains(&triple, Vec2::new(0.4, 0.5)));
        assert!(boolean_op(&[&c, &a], BoolOp::Difference).is_empty());

        assert!(boolean_op(&[], BoolOp::Xor).is_empty());
        assert!(boolean_op(&[&empty, &empty], BoolOp::Xor).is_empty());
        assert_eq!(boolean_op(&[&empty, &a, &empty], BoolOp::Xor), a);
        // Coverage 1, 2, 3, 2, 1 across x = 0, 0.25, 0.5, 0.75, 1, 1.5.
        let xor = boolean_op(&[&a, &b, &c], BoolOp::Xor);
        assert!((total_area(&xor) - 1.0).abs() < 1e-9);
        assert!(contains(&xor, Vec2::new(0.1, 0.5)));
        assert!(!contains(&xor, Vec2::new(0.4, 0.5)));
        assert!(contains(&xor, Vec2::new(0.6, 0.5)));
        assert!(!contains(&xor, Vec2::new(0.9, 0.5)));
        assert!(contains(&xor, Vec2::new(1.2, 0.5)));
    }

    #[test]
    fn nary_sweep_processes_fewer_bands_than_the_chain() {
        let disks: Vec<Vec<Ring>> = (0..16)
            .map(|i| {
                let a = i as f64 * 0.7;
                vec![Ring::regular_polygon(
                    Vec2::new(a.cos() * 150.0, a.sin() * 150.0),
                    500.0,
                    64,
                )]
            })
            .collect();
        let before_chain = stats::thread_band_merges();
        let mut chained = disks[0].clone();
        for d in &disks[1..] {
            chained = boolean_op(&[&chained, d], BoolOp::Intersection);
        }
        let chain_bands = stats::thread_band_merges() - before_chain;

        let operands: Vec<&[Ring]> = disks.iter().map(|d| d.as_slice()).collect();
        let before_nary = stats::thread_band_merges();
        let nary = boolean_op(&operands, BoolOp::Intersection);
        let nary_bands = stats::thread_band_merges() - before_nary;

        assert!(
            nary_bands < chain_bands,
            "n-ary sweep should merge fewer bands ({nary_bands}) than 15 chained sweeps ({chain_bands})"
        );
        let (ca, na) = (total_area(&chained), total_area(&nary));
        assert!((ca - na).abs() / ca.max(1.0) < 1e-6);
    }

    /// The crossing enumeration's rank order as the comparator sort that
    /// preceded the integer ranking computed it: unstable, on
    /// `(min_y via partial_cmp, index)`.
    fn comparator_rank(segs: &[Segment]) -> Vec<usize> {
        let mut order: Vec<usize> = (0..segs.len()).collect();
        order.sort_unstable_by(|&i, &j| {
            segs[i]
                .min_y()
                .partial_cmp(&segs[j].min_y())
                .unwrap_or(Ordering::Equal)
                .then_with(|| i.cmp(&j))
        });
        order
    }

    /// The band loop's entry order as the stable `partial_cmp` sort that
    /// preceded the integer ranking computed it.
    fn stable_rank(segs: &[Segment]) -> Vec<usize> {
        let mut order: Vec<usize> = (0..segs.len()).collect();
        order.sort_by(|&i, &j| {
            segs[i]
                .min_y()
                .partial_cmp(&segs[j].min_y())
                .unwrap_or(Ordering::Equal)
        });
        order
    }

    /// Seeded segment sets whose heights come mostly from a small pool
    /// (many equal `min_y`, ±0.0 among them) and otherwise log-uniformly
    /// from 1e-9 to 1e7 km of either sign: the integer ranking must give
    /// exactly the permutation of both comparator sorts. Sizes span both
    /// sides of the standard library's small-sort cut-off.
    #[test]
    fn integer_ranking_matches_the_comparator_sorts() {
        let pool = [
            0.0, -0.0, 1e-9, -1e-9, 2.5e-9, 0.125, -0.125, 1.0, -1.0, 42.0, 1e7, -1e7,
        ];
        fn unit(h: &mut u64) -> f64 {
            *h = h
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (*h >> 11) as f64 / (1u64 << 53) as f64
        }
        let height = |h: &mut u64| {
            if unit(h) < 0.7 {
                pool[(unit(h) * pool.len() as f64) as usize]
            } else {
                let sign = if unit(h) < 0.5 { -1.0 } else { 1.0 };
                sign * 1e-9 * 1e16f64.powf(unit(h))
            }
        };
        let mut h = 0x5eed_0f2a_u64;
        let mut zeros = 0;
        for n in [1usize, 2, 7, 19, 20, 33, 64, 257, 1000] {
            for _ in 0..8 {
                let segs: Vec<Segment> = (0..n)
                    .map(|_| Segment {
                        a: Vec2::new(unit(&mut h) * 100.0, height(&mut h)),
                        b: Vec2::new(unit(&mut h) * 100.0, height(&mut h)),
                    })
                    .collect();
                zeros += segs.iter().filter(|s| s.min_y() == 0.0).count();
                let rank = rank_by_min_y(&segs);
                assert_eq!(rank, comparator_rank(&segs), "unstable sort, n = {n}");
                assert_eq!(rank, stable_rank(&segs), "stable sort, n = {n}");
            }
        }
        assert!(
            zeros > 100,
            "the sets must tie on ±0.0 ({zeros} zero heights)"
        );
    }

    /// The all-pairs crossing oracle: every pair goes through `crossing_y`,
    /// earlier rank first as in the enumeration (ranked by its own
    /// comparator sort), with no bbox pre-filter and no horizontal skip.
    /// With `drop_endpoint_heights`, a crossing bit-equal to an endpoint
    /// height of its pair is not pushed, as in the enumeration; without it,
    /// every crossing is.
    fn all_pairs_crossing_ys(segs: &[Segment], drop_endpoint_heights: bool, ys: &mut Vec<f64>) {
        let order = comparator_rank(segs);
        for (k, &i) in order.iter().enumerate() {
            for &j in &order[k + 1..] {
                let (si, sj) = (&segs[i], &segs[j]);
                if let Some(y) = crossing_y(si, sj) {
                    if !drop_endpoint_heights
                        || !(is_endpoint_height(si, y) || is_endpoint_height(sj, y))
                    {
                        ys.push(y);
                    }
                }
            }
        }
    }

    /// Asserts that the sweep's event list over `segs` equals, bit for bit,
    /// the list built from every endpoint height and every oracle crossing.
    /// A sweep's output is a function of its segments and this list, so
    /// equal lists mean equal rings.
    fn assert_events_match_oracle(tag: &str, segs: &[Segment], window: Option<(f64, f64)>) {
        let mut raw: Vec<f64> = segs.iter().flat_map(|s| [s.a.y, s.b.y]).collect();
        all_pairs_crossing_ys(segs, false, &mut raw);
        let oracle = sorted_events(raw, window);
        let events = event_ys(segs, &rank_by_min_y(segs), window);
        assert_eq!(events.len(), oracle.len(), "{tag}: event counts");
        for (e, o) in events.iter().zip(&oracle) {
            assert_eq!(e.to_bits(), o.to_bits(), "{tag}: event {e} vs oracle {o}");
        }
    }

    /// A sweep's segment arena and its y-window.
    type Arena = (Vec<Segment>, Option<(f64, f64)>);

    /// The segment arena and window a sweep over `operands` runs on, or
    /// `None` when triage skips the sweep.
    fn nary_arena(operands: &[&Region], op: BoolOp) -> Option<Arena> {
        let per_op = operands
            .iter()
            .map(|r| collect_segments(r.rings()))
            .collect();
        match plan_nary(per_op, op) {
            NaryPlan::Sweep { per_op, window, .. } => Some((per_op.concat(), window)),
            _ => None,
        }
    }

    /// Checks the sweeps of every op over `operands` and each step of
    /// subtracting the rest from the first.
    fn assert_operand_set_matches_oracle(tag: &str, operands: &[Region]) {
        let refs: Vec<&Region> = operands.iter().collect();
        for (name, op) in [
            ("union", BoolOp::Union),
            ("intersect", BoolOp::Intersection),
            ("difference", BoolOp::Difference),
            ("xor", BoolOp::Xor),
        ] {
            if let Some((segs, window)) = nary_arena(&refs, op) {
                assert_events_match_oracle(&format!("{tag}/{name}"), &segs, window);
            }
        }
        let mut acc = operands[0].clone();
        for (i, r) in operands[1..].iter().enumerate() {
            if let Some((segs, window)) = nary_arena(&[&acc, r], BoolOp::Difference) {
                assert_events_match_oracle(&format!("{tag}/subtract{i}"), &segs, window);
            }
            acc = acc.subtract(r);
        }
    }

    /// Degenerate fixtures where sweep implementations classically
    /// diverge: collinear edge overlaps, shared endpoints, vertical
    /// tangencies, zero-area contacts and horizontal edges on band
    /// boundaries.
    #[test]
    fn event_list_matches_all_pairs_oracle_on_degenerates() {
        let rect = |x0, y0, x1, y1| Region::rectangle(Vec2::new(x0, y0), Vec2::new(x1, y1));
        let tri = |a: (f64, f64), b: (f64, f64), c: (f64, f64)| {
            Region::from_ring(Ring::new(vec![
                Vec2::new(a.0, a.1),
                Vec2::new(b.0, b.1),
                Vec2::new(c.0, c.1),
            ]))
        };
        let fixtures = [
            (
                "collinear-edge-overlap",
                vec![
                    rect(0.0, 0.0, 100.0, 80.0),
                    rect(100.0, 20.0, 200.0, 60.0),
                    rect(100.0, 40.0, 180.0, 120.0),
                ],
            ),
            (
                "shared-endpoints",
                vec![
                    tri((0.0, 0.0), (90.0, 10.0), (40.0, 80.0)),
                    tri((0.0, 0.0), (-70.0, 30.0), (-20.0, 90.0)),
                    tri((0.0, 0.0), (30.0, -80.0), (-50.0, -40.0)),
                ],
            ),
            (
                "vertical-tangency",
                vec![
                    Region::disk(Vec2::new(150.0, 40.0), 50.0),
                    rect(0.0, 0.0, 100.0, 80.0),
                    rect(100.0, -40.0, 140.0, 40.0),
                ],
            ),
            (
                "zero-area-contact",
                vec![rect(0.0, 0.0, 60.0, 60.0), rect(60.0, 60.0, 120.0, 120.0)],
            ),
            (
                "horizontal-edge-at-band-boundary",
                vec![
                    rect(0.0, 0.0, 100.0, 50.0),
                    rect(30.0, 50.0, 130.0, 100.0),
                    rect(-20.0, 25.0, 60.0, 75.0),
                ],
            ),
        ];
        for (tag, operands) in &fixtures {
            assert_operand_set_matches_oracle(tag, operands);
        }
    }

    /// Dense random operand sets: eight overlapping disks and rectangles
    /// per salt, from the scatter of `shapes_from` in
    /// `tests/region_algebra.rs`.
    #[test]
    fn event_list_matches_all_pairs_oracle_on_random_dense_sets() {
        for salt in [3u64, 17, 91, 404, 2026] {
            let mut h = salt;
            let shapes: Vec<Region> = (0..8)
                .map(|i| {
                    h = h
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let fx = ((h >> 16) & 0xffff) as f64 / 65535.0 - 0.5;
                    let fy = ((h >> 32) & 0xffff) as f64 / 65535.0 - 0.5;
                    let fr = ((h >> 48) & 0xffff) as f64 / 65535.0;
                    let c = Vec2::new(40.0 + fx * 900.0, -60.0 + fy * 900.0);
                    let r = 420.0 + fr * 400.0;
                    if i % 3 == 2 {
                        let half = Vec2::new(r, r * 0.7 + 40.0);
                        Region::rectangle(c - half, c + half)
                    } else {
                        Region::disk(c, r)
                    }
                })
                .collect();
            assert_operand_set_matches_oracle(&format!("salt{salt}"), &shapes);
        }
    }

    /// Trapezoid-soup operands built the way a solve builds them: an
    /// estimate intersected from 16 constraint disks, then disks subtracted
    /// one at a time. Soups are where touching corners dominate, so the
    /// test also demands that the duplicate filter fired.
    #[test]
    fn event_list_matches_all_pairs_oracle_on_trapezoid_soups() {
        let disks: Vec<Region> = (0..16)
            .map(|i| {
                let a = i as f64 * 0.7;
                Region::disk(
                    Vec2::new(a.cos() * 200.0, a.sin() * 200.0),
                    600.0 + 40.0 * (i % 5) as f64,
                )
            })
            .collect();
        let refs: Vec<&Region> = disks.iter().collect();
        let (segs, window) = nary_arena(&refs, BoolOp::Intersection).expect("a sweep");
        assert_events_match_oracle("intersect16", &segs, window);

        let mut estimate = Region::intersect_many(disks.iter()).into_region();
        let (mut oracle_crossings, mut pushed) = (0, 0);
        for i in 0..8 {
            let a = i as f64 * 2.3;
            let bite = Region::disk(
                Vec2::new(a.cos() * 350.0, a.sin() * 300.0),
                120.0 + 25.0 * (i % 3) as f64,
            );
            let (segs, window) =
                nary_arena(&[&estimate, &bite], BoolOp::Difference).expect("a sweep");
            assert_events_match_oracle(&format!("subtract{i}"), &segs, window);
            let mut ys = Vec::new();
            all_pairs_crossing_ys(&segs, false, &mut ys);
            oracle_crossings += ys.len();
            ys.clear();
            pairwise_crossing_ys(&segs, &rank_by_min_y(&segs), &mut ys);
            pushed += ys.len();
            estimate = estimate.subtract(&bite);
        }
        assert!(
            estimate.ring_count() > 16,
            "the estimate must be a trapezoid soup ({} rings)",
            estimate.ring_count()
        );
        assert!(
            pushed < oracle_crossings,
            "the duplicate filter never fired ({pushed} of {oracle_crossings} crossings kept)"
        );
    }

    /// A trapezoid soup split at y = 0 whose horizontal edges sit at −0.0
    /// in some columns and +0.0 in others, against triangles whose bottom
    /// vertices touch those edges at either sign of zero. A horizontal edge
    /// at −0.0 ranked before such a triangle's edge reports the crossing
    /// +0.0, which no endpoint of the pair carries, so the enumeration must
    /// still scan that pair.
    ///
    /// The crossings pushed are compared, in order, with an all-pairs scan
    /// that drops the same endpoint heights, and the event list with the
    /// unfiltered oracle's. With both signs of zero among the event
    /// heights, the second holds only because [`sorted_events`] orders
    /// −0.0 before +0.0: were they tied, the copy counts would pick the
    /// surviving zero, and on this soup the filtered list would keep −0.0
    /// where the unfiltered one keeps +0.0.
    #[test]
    fn crossing_pushes_match_the_oracle_on_signed_zero_soups() {
        let p = Vec2::new;
        let zero = |k: usize| if k.is_multiple_of(2) { -0.0 } else { 0.0 };
        let mut soup = Vec::new();
        let mut spikes = Vec::new();
        for k in 0..10 {
            let x = 30.0 * k as f64;
            let (zb, zt) = (zero(k), zero(k + 1));
            soup.push(Ring::new(vec![
                p(x, -40.0),
                p(x + 30.0, -40.0),
                p(x + 30.0, zb),
                p(x, zb),
            ]));
            soup.push(Ring::new(vec![
                p(x, zt),
                p(x + 30.0, zt),
                p(x + 25.0, 50.0),
                p(x + 5.0, 50.0),
            ]));
            spikes.push(Ring::new(vec![
                p(x + 12.0, zero(k / 2)),
                p(x + 20.0, 35.0),
                p(x + 4.0, 35.0),
            ]));
            spikes.push(Ring::new(vec![
                p(x + 18.0, zero(k / 3)),
                p(x + 26.0, -25.0),
                p(x + 10.0, -25.0),
            ]));
        }
        let soup = Region::from_disjoint_rings(soup);
        let spikes = Region::from_disjoint_rings(spikes);
        let bits = |ys: &[f64]| -> Vec<u64> { ys.iter().map(|y| y.to_bits()).collect() };
        let mut positive_zero_pushes = 0;
        for (tag, operands) in [
            ("soup-first", [&soup, &spikes]),
            ("spikes-first", [&spikes, &soup]),
        ] {
            for op in [
                BoolOp::Union,
                BoolOp::Intersection,
                BoolOp::Difference,
                BoolOp::Xor,
            ] {
                let Some((segs, window)) = nary_arena(&operands, op) else {
                    continue;
                };
                assert_events_match_oracle(&format!("{tag}/{op:?}"), &segs, window);
                let mut pushed = Vec::new();
                pairwise_crossing_ys(&segs, &rank_by_min_y(&segs), &mut pushed);
                let mut oracle = Vec::new();
                all_pairs_crossing_ys(&segs, true, &mut oracle);
                assert_eq!(
                    bits(&pushed),
                    bits(&oracle),
                    "{tag}/{op:?}: pushed crossings"
                );
                positive_zero_pushes += pushed.iter().filter(|y| y.to_bits() == 0).count();
            }
        }
        assert!(
            positive_zero_pushes > 0,
            "the fixture must make −0.0 edges report +0.0 crossings"
        );
    }

    /// Compaction hands back the rings `emit` built for quads nothing
    /// merged into. Each output ring must equal, in points, bbox and
    /// convexity, the ring a rebuild from its points gives, as every quad
    /// was rebuilt before; the fixture must exercise both merged and kept
    /// quads.
    #[test]
    fn compaction_output_equals_rebuilding_every_quad() {
        let disks: Vec<Region> = (0..16)
            .map(|i| {
                let a = i as f64 * 0.7;
                Region::disk(
                    Vec2::new(a.cos() * 200.0, a.sin() * 200.0),
                    600.0 + 40.0 * (i % 5) as f64,
                )
            })
            .collect();
        let mut estimate = Region::intersect_many(disks.iter()).into_region();
        let (mut merged, mut kept) = (0, 0);
        for i in 0..8 {
            let a = i as f64 * 2.3;
            let bite = Region::disk(Vec2::new(a.cos() * 350.0, a.sin() * 60.0), 90.0);
            let per_op = vec![
                collect_segments(estimate.rings()),
                collect_segments(bite.rings()),
            ];
            let NaryPlan::Sweep { per_op, window } = plan_nary(per_op, BoolOp::Difference) else {
                panic!("step {i} must sweep");
            };
            let quads = band_trapezoids(&sweep_bands(per_op, BoolOp::Difference, window));
            let out = compact_trapezoids(quads.clone());
            for ring in &out {
                let rebuilt = Ring::new(ring.points().to_vec());
                let bits = |r: &Ring| -> Vec<u64> {
                    r.points()
                        .iter()
                        .flat_map(|p| [p.x.to_bits(), p.y.to_bits()])
                        .collect()
                };
                assert_eq!(bits(ring), bits(&rebuilt), "step {i}: points");
                assert_eq!(ring.bbox(), rebuilt.bbox(), "step {i}: bbox");
                assert_eq!(ring.is_convex(), rebuilt.is_convex(), "step {i}: convexity");
            }
            let area = |rings: &[Ring]| rings.iter().map(Ring::area).sum::<f64>();
            let (before, after) = (area(&quads), area(&out));
            assert!(
                (before - after).abs() <= 1e-9 * before,
                "step {i}: area {before} -> {after}"
            );
            kept += out.iter().filter(|r| quads.contains(r)).count();
            merged += quads.len() - out.len();
            estimate = estimate.subtract(&bite);
        }
        assert!(merged > 0 && kept > 0, "{merged} merges, {kept} kept quads");
    }

    #[test]
    fn result_rings_are_disjoint_quads() {
        let a = vec![Ring::regular_polygon(Vec2::new(0.0, 0.0), 50.0, 64)];
        let b = vec![Ring::regular_polygon(Vec2::new(30.0, 10.0), 50.0, 64)];
        let u = boolean_op(&[&a, &b], BoolOp::Union);
        // Sample many points: even-odd count over result rings must be 0 or 1
        // (i.e. rings do not overlap).
        for i in 0..40 {
            for j in 0..40 {
                let p = Vec2::new(-70.0 + i as f64 * 4.0, -60.0 + j as f64 * 4.0);
                let count = u.iter().filter(|r| r.contains(p)).count();
                assert!(count <= 1, "point {p} covered by {count} rings");
            }
        }
    }
}
