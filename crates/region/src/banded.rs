//! The first-class y-banded interval decomposition behind the region
//! engine's hot paths.
//!
//! The scanline sweep's *native* product is not a set of rings — it is a
//! stack of horizontal bands, each holding the x-intervals covered by the
//! boolean combination at that height. Historically that decomposition was
//! stitched into trapezoid rings at the end of every operation and
//! re-derived from those rings by the next one; a solve chains dozens of
//! operations, so the same geometry was polygonized and re-decomposed over
//! and over. [`BandedRegion`] keeps the hot representation: a banded
//! decomposition that
//!
//! * is produced directly by the sweep (no stitching),
//! * answers area / bbox / containment queries without rings, and
//! * converts at the edges: [`BandedRegion::to_region`] stitches the exact
//!   trapezoid rings (bit-identical to what [`crate::scanline::boolean_op`]
//!   returns for the same operands), and
//!   [`BandedRegion::extract_contours`] stitches **merged outer
//!   contours** — a handful of clean closed rings (holes preserved,
//!   clockwise) instead of trapezoid soup — for consumers like dilation
//!   whose cost scales with ring and edge count.
//!
//! The conversion contract is pinned by `tests/region_algebra.rs`: both
//! ring forms are area-equal to the bands within 1e-9 (relative) and agree
//! on grid membership away from boundary bands.

use crate::contour;
use crate::region::Region;
use crate::ring::Ring;
use crate::scanline::{self, BandedSweep, BoolOp};
use crate::vec2::Vec2;
use crate::AREA_EPSILON_KM2;

/// A planar region held in scanline-banded form: horizontal bands in
/// ascending-y order, each a sorted list of trapezoidal cells bounded by
/// segments of the producing sweep's arena.
#[derive(Debug, Clone)]
pub struct BandedRegion {
    sweep: BandedSweep,
    area: f64,
    bbox: Option<(Vec2, Vec2)>,
}

/// One materialized trapezoidal cell of a band: the four corners in
/// `bl, br, tr, tl` order (the same order the ring stitcher emits).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Cell {
    pub(crate) bl: Vec2,
    pub(crate) br: Vec2,
    pub(crate) tr: Vec2,
    pub(crate) tl: Vec2,
}

impl Cell {
    /// The trapezoid's area (non-negative for well-formed cells).
    pub(crate) fn area(&self) -> f64 {
        0.5 * ((self.br.x - self.bl.x) + (self.tr.x - self.tl.x)) * (self.tr.y - self.br.y)
    }
}

impl BandedRegion {
    /// The empty decomposition.
    pub fn empty() -> Self {
        BandedRegion {
            sweep: BandedSweep::empty(),
            area: 0.0,
            bbox: None,
        }
    }

    /// Decomposes a region into banded form (one single-operand sweep over
    /// its rings).
    pub fn from_region(region: &Region) -> Self {
        BandedRegion::from_rings(region.rings())
    }

    /// Decomposes a set of interior-disjoint rings into banded form.
    pub fn from_rings(rings: &[Ring]) -> Self {
        let segs = scanline::collect_segments(rings);
        if segs.is_empty() {
            return BandedRegion::empty();
        }
        BandedRegion::from_sweep(scanline::sweep_bands(vec![segs], BoolOp::Union, None))
    }

    /// Wraps a sweep result, computing the cached aggregates.
    pub(crate) fn from_sweep(sweep: BandedSweep) -> Self {
        let mut area = 0.0;
        let mut bbox: Option<(Vec2, Vec2)> = None;
        for (band, itv) in cells_of(&sweep) {
            let cell = materialize(&sweep, band, itv);
            area += cell.area();
            let lo = cell.bl.min(cell.tl).min(cell.br.min(cell.tr));
            let hi = cell.bl.max(cell.tl).max(cell.br.max(cell.tr));
            bbox = Some(match bbox {
                None => (lo, hi),
                Some((alo, ahi)) => (alo.min(lo), ahi.max(hi)),
            });
        }
        BandedRegion { sweep, area, bbox }
    }

    /// Total area of the decomposition, km² (cached at construction).
    pub fn area(&self) -> f64 {
        self.area
    }

    /// Axis-aligned bounding box over all cells (cached at construction).
    pub fn bbox(&self) -> Option<(Vec2, Vec2)> {
        self.bbox
    }

    /// `true` when the decomposition has (practically) no area.
    pub fn is_empty(&self) -> bool {
        self.area < AREA_EPSILON_KM2
    }

    /// Number of bands.
    pub fn band_count(&self) -> usize {
        self.sweep.bands.len()
    }

    /// Number of trapezoidal cells across all bands.
    pub fn cell_count(&self) -> usize {
        self.sweep.bands.iter().map(|b| b.len()).sum()
    }

    /// Point containment: locate the band spanning `p.y` and test the
    /// x-intervals at that height.
    pub fn contains(&self, p: Vec2) -> bool {
        let bands = &self.sweep.bands;
        // Binary search for the first band with y1 > p.y.
        let idx = bands.partition_point(|b| b.y1 <= p.y);
        if idx >= bands.len() {
            return false;
        }
        let band = &bands[idx];
        if p.y < band.y0 {
            return false;
        }
        self.sweep.intervals(band).iter().any(|itv| {
            let xl = self.sweep.segs[itv.seg_l].x_at(p.y);
            let xr = self.sweep.segs[itv.seg_r].x_at(p.y);
            p.x >= xl && p.x <= xr
        })
    }

    /// Stitches the bands into interior-disjoint trapezoid rings —
    /// bit-identical to what [`crate::scanline::boolean_op`] returns for
    /// the same operands, so callers can leave and re-enter banded form
    /// without perturbing downstream geometry.
    pub fn to_region(&self) -> Region {
        Region::from_disjoint_rings(scanline::stitch_sweep(&self.sweep))
    }

    /// Extracts the **merged outer contours** of the decomposition:
    /// adjacent bands' cells are stitched into a few closed boundary rings
    /// (counter-clockwise outers, clockwise holes) instead of one quad per
    /// cell. The rings' even-odd interior is the banded region itself —
    /// signed areas sum to [`BandedRegion::area`] within 1e-9 (relative) —
    /// and they carry only genuine boundary vertices, so edge-scaling
    /// consumers (dilation capsules, budgeted simplification) touch far
    /// fewer elements than with trapezoid soup.
    ///
    /// Falls back to the trapezoid rings when the cell complex cannot be
    /// stitched into clean contours (or the stitched area drifts beyond the
    /// 1e-9 contract), so the result is always usable.
    pub fn extract_contours(&self) -> Vec<Ring> {
        if let Some(rings) = contour::extract_contours(self) {
            let stitched: f64 = rings.iter().map(|r| r.signed_area()).sum();
            if (stitched - self.area).abs() <= 1e-9 * self.area.abs().max(1.0) {
                return rings;
            }
        }
        scanline::stitch_sweep(&self.sweep)
    }

    /// The signed-area sum of a contour ring set — the even-odd geometric
    /// area when outers wind counter-clockwise and holes clockwise, exactly
    /// what [`BandedRegion::extract_contours`] produces.
    pub fn contour_area(rings: &[Ring]) -> f64 {
        rings.iter().map(|r| r.signed_area()).sum()
    }

    /// Materialized cells, band by band (used by the contour stitcher).
    pub(crate) fn cell_rows(&self) -> Vec<(f64, f64, Vec<Cell>)> {
        self.sweep
            .bands
            .iter()
            .enumerate()
            .map(|(bi, band)| {
                let cells = (0..band.len())
                    .map(|ii| materialize(&self.sweep, bi, ii))
                    .collect();
                (band.y0, band.y1, cells)
            })
            .collect()
    }
}

/// Iterates `(band index, interval index)` over all cells.
fn cells_of(sweep: &BandedSweep) -> impl Iterator<Item = (usize, usize)> + '_ {
    sweep
        .bands
        .iter()
        .enumerate()
        .flat_map(|(bi, band)| (0..band.len()).map(move |ii| (bi, ii)))
}

/// Evaluates one cell's corners from its bounding segments at the band
/// edges — the same evaluations the ring stitcher performs, so banded and
/// stitched geometry agree bit for bit.
fn materialize(sweep: &BandedSweep, band: usize, itv: usize) -> Cell {
    let b = &sweep.bands[band];
    let iv = &sweep.intervals(b)[itv];
    let sl = &sweep.segs[iv.seg_l];
    let sr = &sweep.segs[iv.seg_r];
    Cell {
        bl: Vec2::new(sl.x_at(b.y0), b.y0),
        br: Vec2::new(sr.x_at(b.y0), b.y0),
        tr: Vec2::new(sr.x_at(b.y1), b.y1),
        tl: Vec2::new(sl.x_at(b.y1), b.y1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk(cx: f64, cy: f64, r: f64) -> Region {
        Region::disk(Vec2::new(cx, cy), r)
    }

    #[test]
    fn round_trip_preserves_area_and_membership() {
        let region = disk(0.0, 0.0, 300.0).intersect(&disk(150.0, 40.0, 320.0));
        let banded = BandedRegion::from_region(&region);
        assert!(
            (banded.area() - region.area()).abs() <= 1e-9 * region.area(),
            "banded area {} vs region {}",
            banded.area(),
            region.area()
        );
        let back = banded.to_region();
        assert!((back.area() - region.area()).abs() <= 1e-9 * region.area());
        for i in 0..20 {
            for j in 0..20 {
                let p = Vec2::new(-350.0 + i as f64 * 40.0, -350.0 + j as f64 * 40.0);
                // Stay away from the flattening-scale boundary band, where
                // the two representations may legitimately disagree.
                let near_boundary = region
                    .rings()
                    .iter()
                    .any(|r| r.distance_to_boundary(p) < 3.0);
                if !near_boundary {
                    assert_eq!(banded.contains(p), region.contains(p), "at {p}");
                    assert_eq!(back.contains(p), region.contains(p), "stitched at {p}");
                }
            }
        }
    }

    #[test]
    fn empty_and_passthrough_cases() {
        let empty = BandedRegion::empty();
        assert!(empty.is_empty());
        assert_eq!(empty.band_count(), 0);
        assert!(empty.bbox().is_none());
        assert!(empty.to_region().is_empty());
        assert!(empty.extract_contours().is_empty());

        let a = disk(0.0, 0.0, 100.0);
        let only = Region::intersect_many([&a]);
        assert!((only.area() - a.area()).abs() <= 1e-9 * a.area());
        assert!(Region::intersect_many([]).area() == 0.0);
        let disjoint = Region::intersect_many([&a, &disk(500.0, 0.0, 100.0)]);
        assert!(disjoint.area() == 0.0);
    }
}
