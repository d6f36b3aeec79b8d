//! Intersection-walking boolean union for the offset-ring merge inside
//! dilation.
//!
//! The band sweep pays for operand overlap in full: a Minkowski union of
//! 100+ mutually-overlapping offset rings re-decomposes the whole soup
//! into bands whose active-segment lists grow with every operand. This
//! module implements the classic alternative for the *union* case —
//! compute the intersection points between operand boundaries, then walk
//! the alternating boundary arcs that lie outside every other operand
//! (the pattern of curvo's `boolean/mod.rs`): cost scales with the
//! boundary complexity and the number of genuine crossings, not with the
//! blown-up area of overlap.
//!
//! Operands are folded **hierarchically in pairs** (sorted by bounding-box
//! centre, like the sweep-based hierarchical union), so each pairwise walk
//! sees two already-merged clean boundaries: bbox-disjoint pairs
//! concatenate outright and rings that cannot touch the other operand
//! pass through whole, which makes the common dilation case — a long
//! contour plus many small offsets — near-linear.
//!
//! Robustness policy: the walk **never guesses**. Each operand must be an
//! even-odd-consistent set of non-crossing rings (counter-clockwise
//! outers, clockwise holes). Degenerate inputs — coincident boundaries,
//! unmatched stitch endpoints, a net signed area outside the provable
//! union bounds — make [`union_walk_many`] return `None` and the caller
//! falls back to the band sweep, so a walk can produce fast geometry or
//! no geometry, never wrong geometry.

use crate::contour::{key, stitch, Edge, QUANTUM};
use crate::ring::Ring;
use crate::vec2::Vec2;
use std::collections::HashSet;

/// Minimum surviving sub-edge length: cut points closer than this to a
/// neighbouring cut merge into it, so every stitched edge spans more than
/// the matching quantum (the contour extractor's) and endpoint keys stay
/// distinct.
const MIN_EDGE: f64 = 2.0 * QUANTUM;

/// Net signed area of a ring set: with CCW outers and CW holes this is the
/// true covered area.
fn net_area(rings: &[Ring]) -> f64 {
    rings.iter().map(|r| r.signed_area()).sum()
}

/// Even-odd membership of `p` over a full ring set.
fn even_odd(rings: &[Ring], p: Vec2) -> bool {
    rings.iter().filter(|r| r.contains(p)).count() % 2 == 1
}

/// The joint bounding box of a ring set.
fn operand_bbox(rings: &[Ring]) -> Option<(Vec2, Vec2)> {
    let mut acc: Option<(Vec2, Vec2)> = None;
    for r in rings {
        if let Some((lo, hi)) = r.bbox() {
            acc = Some(match acc {
                None => (lo, hi),
                Some((alo, ahi)) => (alo.min(lo), ahi.max(hi)),
            });
        }
    }
    acc
}

fn bboxes_overlap(a: (Vec2, Vec2), b: (Vec2, Vec2)) -> bool {
    a.0.x <= b.1.x && b.0.x <= a.1.x && a.0.y <= b.1.y && b.0.y <= a.1.y
}

/// Unions `operands` — each an even-odd-consistent set of oriented,
/// non-self-crossing boundary rings (CCW outers, CW holes) — by walking
/// intersection arcs, or returns `None` when any pairwise walk hits a
/// degeneracy it cannot resolve exactly. The result, when produced, is
/// again an oriented clean boundary set.
pub(crate) fn union_walk_many(mut operands: Vec<Vec<Ring>>) -> Option<Vec<Ring>> {
    operands.retain(|o| o.iter().any(|r| !r.is_empty()));
    if operands.is_empty() {
        return Some(Vec::new());
    }
    while operands.len() > 1 {
        // Sort by bbox centre so adjacent pairs are spatial neighbours:
        // overlap is absorbed low in the fold and far-apart blobs meet only
        // at the top, where bbox-disjoint pairs concatenate for free.
        operands.sort_by(|x, y| {
            let cx = operand_bbox(x)
                .map(|(lo, hi)| lo.x + hi.x)
                .unwrap_or(f64::INFINITY);
            let cy = operand_bbox(y)
                .map(|(lo, hi)| lo.x + hi.x)
                .unwrap_or(f64::INFINITY);
            cx.partial_cmp(&cy).unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut next: Vec<Vec<Ring>> = Vec::with_capacity(operands.len().div_ceil(2));
        let mut it = operands.into_iter();
        while let Some(x) = it.next() {
            match it.next() {
                Some(y) => next.push(union_pair(x, y)?),
                None => next.push(x),
            }
        }
        operands = next;
    }
    operands.pop()
}

/// The parameters `(t, u)` at which segments `[a0, a1]` and `[b0, b1]`
/// properly cross (parallel and collinear pairs return `None` — their
/// overlap is a degeneracy the duplicate-edge anomaly check owns).
fn seg_params(a0: Vec2, a1: Vec2, b0: Vec2, b1: Vec2) -> Option<(f64, f64)> {
    let r = a1 - a0;
    let s = b1 - b0;
    let denom = r.cross(s);
    if denom.abs() < 1e-15 {
        return None;
    }
    let qp = b0 - a0;
    let t = qp.cross(s) / denom;
    let u = qp.cross(r) / denom;
    let span = -1e-9..=1.0 + 1e-9;
    if span.contains(&t) && span.contains(&u) {
        Some((t.clamp(0.0, 1.0), u.clamp(0.0, 1.0)))
    } else {
        None
    }
}

/// Unions two clean boundary ring sets by intersection walking; `None` on
/// any degeneracy (the caller falls back to the band sweep).
fn union_pair(a: Vec<Ring>, b: Vec<Ring>) -> Option<Vec<Ring>> {
    if a.is_empty() {
        return Some(b);
    }
    if b.is_empty() {
        return Some(a);
    }
    let (abox, bbox) = match (operand_bbox(&a), operand_bbox(&b)) {
        (Some(x), Some(y)) => (x, y),
        // Area-less operands would make midpoint parity meaningless.
        _ => return None,
    };
    if !bboxes_overlap(abox, bbox) {
        let mut out = a;
        out.extend(b);
        return Some(out);
    }
    let expected_lo = net_area(&a).max(net_area(&b));
    let expected_hi = net_area(&a) + net_area(&b);
    if expected_lo <= 0.0 {
        // A non-positive net area means mis-oriented input; refuse.
        return None;
    }

    // Ring triage: a ring whose bbox misses every ring of the other
    // operand cannot be split or swallowed — it passes through whole.
    let interacts = |r: &Ring, other: &[Ring]| -> bool {
        match r.bbox() {
            Some(rb) => other
                .iter()
                .any(|o| o.bbox().is_some_and(|ob| bboxes_overlap(rb, ob))),
            None => false,
        }
    };
    let a_active: Vec<bool> = a.iter().map(|r| interacts(r, &b)).collect();
    let b_active: Vec<bool> = b.iter().map(|r| interacts(r, &a)).collect();

    let collect_edges = |rings: &[Ring], active: &[bool]| -> Vec<Edge> {
        let mut out = Vec::new();
        for (r, act) in rings.iter().zip(active) {
            if !*act {
                continue;
            }
            let pts = r.points();
            let n = pts.len();
            for i in 0..n {
                let (p, q) = (pts[i], pts[(i + 1) % n]);
                if p.distance(q) > 1e-12 {
                    out.push(Edge { a: p, b: q });
                }
            }
        }
        out
    };
    let ea = collect_edges(&a, &a_active);
    let eb = collect_edges(&b, &b_active);

    // All A-edge × B-edge crossings, pruned through B-edge bboxes sorted
    // by min-x (operand-internal crossings cannot exist in clean input).
    let eb_bbox: Vec<(Vec2, Vec2)> = eb.iter().map(|e| (e.a.min(e.b), e.a.max(e.b))).collect();
    let mut b_by_min_x: Vec<usize> = (0..eb.len()).collect();
    b_by_min_x.sort_unstable_by(|&i, &j| {
        eb_bbox[i]
            .0
            .x
            .partial_cmp(&eb_bbox[j].0.x)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let b_min_x: Vec<f64> = b_by_min_x.iter().map(|&i| eb_bbox[i].0.x).collect();

    let mut cuts_a: Vec<Vec<f64>> = vec![Vec::new(); ea.len()];
    let mut cuts_b: Vec<Vec<f64>> = vec![Vec::new(); eb.len()];
    for (i, e) in ea.iter().enumerate() {
        let elo = e.a.min(e.b);
        let ehi = e.a.max(e.b);
        let cut = b_min_x.partition_point(|&mx| mx <= ehi.x);
        for &j in &b_by_min_x[..cut] {
            if !bboxes_overlap((elo, ehi), eb_bbox[j]) {
                continue;
            }
            if let Some((t, u)) = seg_params(e.a, e.b, eb[j].a, eb[j].b) {
                cuts_a[i].push(t);
                cuts_b[j].push(u);
            }
        }
    }

    // Split each edge at its cut parameters and keep the sub-edges whose
    // midpoints lie outside the *other* operand (even-odd over its full
    // ring set, passthrough rings included).
    let mut kept: Vec<Edge> = Vec::new();
    let split_into =
        |edges: &[Edge], cuts: &mut [Vec<f64>], other: &[Ring], kept: &mut Vec<Edge>| {
            for (i, e) in edges.iter().enumerate() {
                let len = e.a.distance(e.b);
                let ts = &mut cuts[i];
                ts.sort_by(|x, y| x.partial_cmp(y).unwrap_or(std::cmp::Ordering::Equal));
                let mut prev = e.a;
                let dir = e.b - e.a;
                let emit = |p: Vec2, q: Vec2, kept: &mut Vec<Edge>| {
                    let mid = (p + q) * 0.5;
                    if !even_odd(other, mid) {
                        kept.push(Edge { a: p, b: q });
                    }
                };
                for &t in ts.iter() {
                    let p = e.a + dir * t;
                    // Merge cuts into a neighbouring cut or endpoint when they
                    // land within the stitch quantum, so every emitted edge's
                    // endpoints quantize distinctly.
                    if p.distance(prev) < MIN_EDGE || p.distance(e.b) < MIN_EDGE {
                        continue;
                    }
                    emit(prev, p, kept);
                    prev = p;
                }
                if len > 1e-12 {
                    emit(prev, e.b, kept);
                }
            }
        };
    split_into(&ea, &mut cuts_a, &b, &mut kept);
    split_into(&eb, &mut cuts_b, &a, &mut kept);

    // Coincident boundaries (identical or opposite directed edges between
    // the operands, or seam edges of an unclean operand) make midpoint
    // parity ill-defined; refuse and let the sweep handle them.
    let mut seen: HashSet<((i64, i64), (i64, i64))> = HashSet::with_capacity(kept.len());
    for e in &kept {
        let k = (key(e.a), key(e.b));
        if seen.contains(&(k.1, k.0)) || !seen.insert(k) {
            return None;
        }
    }

    let mut out: Vec<Ring> = Vec::new();
    for (r, act) in a.iter().zip(&a_active) {
        if !*act {
            out.push(r.clone());
        }
    }
    for (r, act) in b.iter().zip(&b_active) {
        if !*act {
            out.push(r.clone());
        }
    }
    out.extend(stitch(&kept)?);

    // The union's area is provably within [max(A, B), A + B]; a walked
    // result outside those bounds (plus float slack) means a degeneracy
    // slipped through the checks above.
    let tol = 1e-6 * (expected_lo.abs() + expected_hi.abs()) + 1e-3;
    let got = net_area(&out);
    if got < expected_lo - tol || got > expected_hi + tol {
        return None;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_ccw(x0: f64, y0: f64, x1: f64, y1: f64) -> Ring {
        Ring::new(vec![
            Vec2::new(x0, y0),
            Vec2::new(x1, y0),
            Vec2::new(x1, y1),
            Vec2::new(x0, y1),
        ])
    }

    #[test]
    fn disjoint_operands_concatenate() {
        let out = union_walk_many(vec![
            vec![square_ccw(0.0, 0.0, 1.0, 1.0)],
            vec![square_ccw(5.0, 5.0, 6.0, 6.0)],
        ])
        .expect("disjoint walk");
        assert_eq!(out.len(), 2);
        assert!((net_area(&out) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn overlapping_squares_walk_to_the_union_outline() {
        let out = union_walk_many(vec![
            vec![square_ccw(0.0, 0.0, 2.0, 2.0)],
            vec![square_ccw(1.0, 1.0, 3.0, 3.0)],
        ])
        .expect("overlap walk");
        // 4 + 4 − 1 overlap.
        assert!(
            (net_area(&out) - 7.0).abs() < 1e-9,
            "area {}",
            net_area(&out)
        );
        assert_eq!(out.len(), 1, "one merged outline");
        assert!(out[0].is_ccw());
        assert!(even_odd(&out, Vec2::new(1.5, 1.5)));
        assert!(even_odd(&out, Vec2::new(0.5, 0.5)));
        assert!(!even_odd(&out, Vec2::new(2.5, 0.5)));
    }

    #[test]
    fn swallowed_operand_disappears() {
        let out = union_walk_many(vec![
            vec![square_ccw(0.0, 0.0, 10.0, 10.0)],
            vec![square_ccw(4.0, 4.0, 5.0, 5.0)],
        ])
        .expect("nested walk");
        assert_eq!(out.len(), 1);
        assert!((net_area(&out) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn coincident_boundaries_decline() {
        // Identical squares share every boundary point: midpoint parity is
        // undefined, so the walk must refuse rather than guess.
        let out = union_walk_many(vec![
            vec![square_ccw(0.0, 0.0, 1.0, 1.0)],
            vec![square_ccw(0.0, 0.0, 1.0, 1.0)],
        ]);
        assert!(out.is_none());
    }

    #[test]
    fn union_with_a_hole_keeps_the_hole_boundary() {
        // An annulus (CCW outer + CW hole) unioned with a small square
        // inside the hole: the square must survive as its own component.
        let outer = square_ccw(0.0, 0.0, 10.0, 10.0);
        let hole = {
            let r = square_ccw(2.0, 2.0, 8.0, 8.0);
            // Clockwise hole.
            Ring::new(r.points().iter().rev().copied().collect())
        };
        let island = square_ccw(4.0, 4.0, 6.0, 6.0);
        let out = union_walk_many(vec![vec![outer, hole], vec![island]]).expect("hole walk");
        // 100 − 36 + 4.
        assert!(
            (net_area(&out) - 68.0).abs() < 1e-9,
            "area {}",
            net_area(&out)
        );
        assert!(even_odd(&out, Vec2::new(5.0, 5.0)), "island interior");
        assert!(!even_odd(&out, Vec2::new(3.0, 5.0)), "hole stays empty");
        assert!(even_odd(&out, Vec2::new(1.0, 5.0)), "annulus body");
    }

    #[test]
    fn crossing_hole_boundary_shrinks_the_hole() {
        let outer = square_ccw(0.0, 0.0, 10.0, 10.0);
        let hole = {
            let r = square_ccw(2.0, 2.0, 8.0, 8.0);
            Ring::new(r.points().iter().rev().copied().collect())
        };
        // A square straddling the hole's left boundary.
        let patch = square_ccw(1.0, 4.0, 5.0, 6.0);
        let out = union_walk_many(vec![vec![outer, hole], vec![patch]]).expect("patch walk");
        // 100 − 36 + (patch area inside the hole: x in [2,5], y in [4,6]).
        assert!(
            (net_area(&out) - 70.0).abs() < 1e-9,
            "area {}",
            net_area(&out)
        );
        assert!(even_odd(&out, Vec2::new(3.0, 5.0)), "patched strip");
        assert!(!even_odd(&out, Vec2::new(3.0, 7.0)), "rest of the hole");
    }
}
