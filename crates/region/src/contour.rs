//! Merged outer-contour extraction from a banded decomposition.
//!
//! A banded region is a stack of trapezoidal cells; its *boundary* is the
//! set of cell edges not shared with a neighbouring cell: every cell's two
//! sloped sides, plus the horizontal sub-spans of its bottom/top not
//! covered by the adjacent band. This module collects those edges —
//! directed so the region's interior lies to the **left** — and stitches
//! them into closed rings by walking endpoint-to-endpoint. The result is a
//! handful of clean boundary rings (counter-clockwise outers, clockwise
//! holes whose signed areas sum to the region's area) instead of one quad
//! per cell: exactly what edge-scaling consumers like dilation want to see.
//!
//! Robustness: endpoints of edges that meet at a shared sweep vertex can
//! differ by sub-tolerance amounts (different segments evaluated at the
//! same event height), so the walk matches endpoints through a quantized
//! key — original coordinates are kept in the output, only the *matching*
//! is fuzzy. Junctions where four cells meet are resolved by taking the
//! most-clockwise continuation, which traces each face separately instead
//! of producing self-crossing figure-eights. If any chain fails to close,
//! the extraction reports failure and the caller falls back to the
//! trapezoid rings, so contour extraction can never produce wrong geometry
//! — only decline to merge.

use crate::banded::{BandedRegion, Cell};
use crate::vec2::Vec2;
use crate::Ring;
use std::collections::HashMap;

/// Endpoint-matching quantum (km). Matches the vertical-merge key of the
/// trapezoid compactor: comfortably above float noise on evaluated
/// corners and computed intersection points, far below any real geometric
/// feature.
pub(crate) const QUANTUM: f64 = 1e-6;

/// A directed boundary edge (interior to the left).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Edge {
    pub(crate) a: Vec2,
    pub(crate) b: Vec2,
}

/// The quantized matching key of an endpoint.
pub(crate) fn key(p: Vec2) -> (i64, i64) {
    (
        (p.x / QUANTUM).round() as i64,
        (p.y / QUANTUM).round() as i64,
    )
}

/// Extracts the merged contours of `banded`, or `None` when the edge
/// complex cannot be stitched into closed rings.
pub(crate) fn extract_contours(banded: &BandedRegion) -> Option<Vec<Ring>> {
    let rows = banded.cell_rows();
    if rows.is_empty() {
        return Some(Vec::new());
    }

    let mut edges: Vec<Edge> = Vec::new();
    for (bi, (y0, y1, cells)) in rows.iter().enumerate() {
        for cell in cells {
            // Left side walks down, right side walks up: interior right of
            // a left boundary, left of a right boundary.
            edges.push(Edge {
                a: cell.tl,
                b: cell.bl,
            });
            edges.push(Edge {
                a: cell.br,
                b: cell.tr,
            });
        }
        // Exposed bottom spans (interior above → walk left-to-right).
        let below: &[Cell] = match bi.checked_sub(1) {
            // Bands produced by one sweep share event ys bit-for-bit when
            // adjacent; a skipped sliver window leaves a sub-tolerance gap,
            // in which case both sides are fully exposed.
            Some(pi) if rows[pi].1.to_bits() == y0.to_bits() => &rows[pi].2,
            _ => &[],
        };
        for cell in cells {
            for (x0, x1) in subtract_spans(
                (cell.bl.x, cell.br.x),
                below.iter().map(|c| (c.tl.x, c.tr.x)),
            ) {
                edges.push(Edge {
                    a: Vec2::new(x0, *y0),
                    b: Vec2::new(x1, *y0),
                });
            }
        }
        // Exposed top spans (interior below → walk right-to-left).
        let above: &[Cell] = match rows.get(bi + 1) {
            Some(next) if next.0.to_bits() == y1.to_bits() => &next.2,
            _ => &[],
        };
        for cell in cells {
            for (x0, x1) in subtract_spans(
                (cell.tl.x, cell.tr.x),
                above.iter().map(|c| (c.bl.x, c.br.x)),
            ) {
                edges.push(Edge {
                    a: Vec2::new(x1, *y1),
                    b: Vec2::new(x0, *y1),
                });
            }
        }
    }
    stitch(&edges)
}

/// Stitches directed edges into closed rings by walking quantized endpoint
/// keys, resolving junctions with the most-clockwise continuation (which
/// traces each face separately instead of producing self-crossing
/// figure-eights). Interior stays to the left throughout, so outputs keep
/// the CCW-outer/CW-hole orientation convention. `None` when any chain
/// fails to close.
pub(crate) fn stitch(edges: &[Edge]) -> Option<Vec<Ring>> {
    let mut by_start: HashMap<(i64, i64), Vec<usize>> = HashMap::new();
    for (i, e) in edges.iter().enumerate() {
        by_start.entry(key(e.a)).or_default().push(i);
    }

    let mut used = vec![false; edges.len()];
    let mut rings: Vec<Ring> = Vec::new();
    for start in 0..edges.len() {
        if used[start] {
            continue;
        }
        let start_key = key(edges[start].a);
        let mut pts: Vec<Vec2> = Vec::new();
        let mut current = start;
        loop {
            used[current] = true;
            pts.push(edges[current].a);
            if pts.len() > edges.len() + 1 {
                return None; // Walk failed to terminate.
            }
            let end_key = key(edges[current].b);
            if end_key == start_key {
                break; // Ring closed.
            }
            let candidates = by_start.get(&end_key)?;
            let dir_in = edges[current].b - edges[current].a;
            let mut next: Option<(f64, usize)> = None;
            for &c in candidates {
                if used[c] {
                    continue;
                }
                let turn = clockwise_turn(dir_in, edges[c].b - edges[c].a);
                if next.map(|(best, _)| turn < best).unwrap_or(true) {
                    next = Some((turn, c));
                }
            }
            current = next?.1;
        }
        let ring = Ring::new(pts);
        if ring.len() >= 3 {
            rings.push(ring);
        }
    }
    Some(rings)
}

/// The clockwise angle swept from the reverse of `dir_in` to `dir_out`, in
/// `(0, 2π]`: the candidate with the smallest value is the most-clockwise
/// continuation, i.e. the next edge of the face lying to the left of the
/// incoming edge. Doubling straight back (angle ≈ 0) is mapped to a full
/// turn so a degenerate spike is only taken as a last resort.
fn clockwise_turn(dir_in: Vec2, dir_out: Vec2) -> f64 {
    use std::f64::consts::TAU;
    let reverse = (-dir_in.y).atan2(-dir_in.x);
    let out = dir_out.y.atan2(dir_out.x);
    let turn = (reverse - out).rem_euclid(TAU);
    if turn < 1e-9 {
        TAU
    } else {
        turn
    }
}

/// Subtracts a sorted sequence of spans from one span, yielding the
/// surviving sub-spans (sub-`QUANTUM` slivers are dropped — the quantized
/// endpoint matching bridges them).
fn subtract_spans(
    span: (f64, f64),
    cover: impl Iterator<Item = (f64, f64)>,
) -> impl Iterator<Item = (f64, f64)> {
    let (lo, hi) = span;
    let mut cuts: Vec<(f64, f64)> = cover.filter(|&(c0, c1)| c1 > lo && c0 < hi).collect();
    cuts.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    let mut out: Vec<(f64, f64)> = Vec::new();
    let mut cursor = lo;
    for (c0, c1) in cuts {
        if c0 > cursor {
            out.push((cursor, c0));
        }
        cursor = cursor.max(c1);
        if cursor >= hi {
            break;
        }
    }
    if cursor < hi {
        out.push((cursor, hi));
    }
    out.into_iter().filter(|&(a, b)| b - a > QUANTUM)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::Region;

    #[test]
    fn span_subtraction_handles_overlap_shapes() {
        let subs = |s: (f64, f64), c: Vec<(f64, f64)>| {
            subtract_spans(s, c.into_iter()).collect::<Vec<_>>()
        };
        assert_eq!(subs((0.0, 10.0), vec![]), vec![(0.0, 10.0)]);
        assert_eq!(subs((0.0, 10.0), vec![(0.0, 10.0)]), vec![]);
        assert_eq!(
            subs((0.0, 10.0), vec![(2.0, 3.0)]),
            vec![(0.0, 2.0), (3.0, 10.0)]
        );
        assert_eq!(
            subs((0.0, 10.0), vec![(-5.0, 4.0), (6.0, 20.0)]),
            vec![(4.0, 6.0)]
        );
        // Sub-quantum slivers disappear.
        assert_eq!(subs((0.0, 10.0), vec![(1e-9, 10.0)]), vec![]);
    }

    #[test]
    fn contours_of_a_disk_are_one_ring() {
        let disk = Region::disk(Vec2::new(10.0, -4.0), 200.0);
        let banded = BandedRegion::from_region(&disk);
        let contours = banded.extract_contours();
        assert_eq!(contours.len(), 1, "a disk has a single outer contour");
        let area = BandedRegion::contour_area(&contours);
        assert!(
            (area - banded.area()).abs() <= 1e-9 * banded.area(),
            "contour area {area} vs banded {}",
            banded.area()
        );
        assert!(contours[0].is_ccw(), "outer contour winds CCW");
        // The contour has far fewer rings than the trapezoid soup.
        assert!(banded.to_region().ring_count() > 1);
    }

    #[test]
    fn contours_preserve_holes_as_clockwise_rings() {
        let outer = Region::rectangle(Vec2::new(0.0, 0.0), Vec2::new(100.0, 100.0));
        let hole = Region::rectangle(Vec2::new(30.0, 30.0), Vec2::new(70.0, 70.0));
        let annulus = outer.subtract(&hole);
        let banded = BandedRegion::from_region(&annulus);
        let contours = banded.extract_contours();
        assert_eq!(contours.len(), 2, "outer boundary plus one hole");
        let ccw = contours.iter().filter(|r| r.is_ccw()).count();
        let cw = contours.len() - ccw;
        assert_eq!((ccw, cw), (1, 1), "one CCW outer, one CW hole");
        let area = BandedRegion::contour_area(&contours);
        assert!(
            (area - banded.area()).abs() <= 1e-9 * banded.area(),
            "signed contour area {area} vs banded {}",
            banded.area()
        );
        // Membership: even-odd over the contour rings matches the region.
        let inside_hole = Vec2::new(50.0, 50.0);
        let in_body = Vec2::new(10.0, 50.0);
        let even_odd = |p: Vec2| contours.iter().filter(|r| r.contains(p)).count() % 2 == 1;
        assert!(!even_odd(inside_hole));
        assert!(even_odd(in_body));
    }

    #[test]
    fn disconnected_components_get_separate_contours() {
        let a = Region::disk(Vec2::new(0.0, 0.0), 50.0);
        let b = Region::disk(Vec2::new(500.0, 0.0), 60.0);
        let both = a.union(&b);
        let banded = BandedRegion::from_region(&both);
        let contours = banded.extract_contours();
        assert_eq!(contours.len(), 2);
        let area = BandedRegion::contour_area(&contours);
        assert!((area - banded.area()).abs() <= 1e-9 * banded.area());
    }
}
