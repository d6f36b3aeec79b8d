//! The weighted constraint solver (§2, §2.4).
//!
//! The paper's formal solution is `βᵢ = ⋂ positives \ ⋃ negatives`, but a
//! literal intersection is brittle: a single erroneous (overly aggressive)
//! constraint empties the estimate. Octant therefore weights constraints and
//! combines them so that high-weight constraints win conflicts and
//! low-weight constraints that would annihilate the estimate are set aside.
//!
//! This solver implements that policy as a greedy weighted combination:
//! constraints are applied in decreasing weight order, and a constraint that
//! would shrink the estimate below a configurable minimum area is skipped
//! (recorded in the [`SolveReport`]). The result is exactly the paper's
//! intersection when the constraints are consistent, and a maximal-weight
//! consistent subset when they are not.

use crate::constraint::{Constraint, ConstraintKind};
use octant_geo::point::GeoPoint;
use octant_geo::projection::AzimuthalEquidistant;
use octant_region::GeoRegion;
use serde::{Deserialize, Serialize};

/// Configuration of the constraint solver.
///
/// `#[non_exhaustive]`: construct via [`SolverConfig::default`] and the
/// builder-style `with_*` setters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub struct SolverConfig {
    /// A constraint is skipped when applying it would leave less than this
    /// much area (km²). This is the "desired size threshold" of §2.4.
    pub min_region_area_km2: f64,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            min_region_area_km2: 5_000.0,
        }
    }
}

crate::config_setters!(SolverConfig {
    /// Sets the minimum preserved estimate area (km², §2.4).
    with_min_region_area_km2: min_region_area_km2: f64,
});

/// A negative constraint is additionally skipped when it would remove more
/// than this fraction of the current estimate: a single exclusion that
/// wipes out most of what every positive constraint agreed on is far more
/// likely to be an over-aggressive lower bound than real information (the
/// weighted-combination rationale of §2.4).
const MAX_NEGATIVE_REMOVAL_FRAC: f64 = 0.6;

/// Boundary-simplification tolerance (km) applied to the running estimate
/// between solver iterations. Chained boolean operations fragment ring
/// boundaries at scanline band seams; reclaiming the (near-)collinear
/// vertices after each applied constraint keeps the cost of subsequent
/// operations from growing with chain length. It is far below both the
/// 1 km curve-flattening tolerance and any constraint radius, so it never
/// affects localization decisions.
const SIMPLIFY_TOLERANCE_KM: f64 = 0.25;

/// The estimate's representation is re-simplified with escalating tolerance
/// whenever it exceeds this many boundary vertices (see
/// [`octant_region::Region::simplify_to_budget`]).
const MAX_ESTIMATE_VERTICES: usize = 4096;

/// Bookkeeping of what the solver did — how many constraints were applied and
/// how many were skipped as inconsistent.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct SolveReport {
    /// Positive constraints applied.
    pub applied_positive: usize,
    /// Positive constraints skipped because they conflicted with
    /// higher-weight information.
    pub skipped_positive: usize,
    /// Negative constraints applied.
    pub applied_negative: usize,
    /// Negative constraints skipped.
    pub skipped_negative: usize,
    /// Area of the final estimated region, km².
    pub final_area_km2: f64,
}

impl SolveReport {
    /// Total constraints considered.
    pub fn total(&self) -> usize {
        self.applied_positive
            + self.skipped_positive
            + self.applied_negative
            + self.skipped_negative
    }
}

/// The weighted constraint solver.
#[derive(Debug, Clone, Copy, Default)]
pub struct Solver {
    config: SolverConfig,
}

impl Solver {
    /// Creates a solver with the given configuration.
    pub fn new(config: SolverConfig) -> Self {
        Solver { config }
    }

    /// The solver's configuration.
    pub fn config(&self) -> SolverConfig {
        self.config
    }

    /// Combines the constraints into an estimated location region.
    ///
    /// `projection` fixes the plane all regions are expressed in; it should
    /// be centred near the expected target position (any landmark-weighted
    /// centroid works — the azimuthal-equidistant distortion is negligible at
    /// constraint scale).
    pub fn solve(
        &self,
        projection: AzimuthalEquidistant,
        constraints: &[Constraint],
    ) -> (GeoRegion, SolveReport) {
        let (region, report, _) = self.solve_traced(projection, constraints);
        (region, report)
    }

    /// [`Solver::solve`] that additionally reports, per input constraint,
    /// whether it was applied (`true`) or set aside (`false`), aligned to
    /// `constraints` order. This is what attributes solver decisions back
    /// to the evidence source that emitted each constraint (the provenance
    /// report of the pipeline API). The region and [`SolveReport`] are
    /// identical to [`Solver::solve`]'s.
    pub fn solve_traced(
        &self,
        projection: AzimuthalEquidistant,
        constraints: &[Constraint],
    ) -> (GeoRegion, SolveReport, Vec<bool>) {
        let mut report = SolveReport::default();
        let mut applied = vec![false; constraints.len()];

        let positives_raw: Vec<(usize, &Constraint)> = constraints
            .iter()
            .enumerate()
            .filter(|(_, c)| c.kind == ConstraintKind::Positive)
            .collect();
        let mut negatives: Vec<(usize, &Constraint)> = constraints
            .iter()
            .enumerate()
            .filter(|(_, c)| c.kind == ConstraintKind::Negative)
            .collect();

        // Stable sorts on the weight alone, so ties keep input order — the
        // decision sequence matches the pre-traced solver exactly.
        let mut positives: Vec<(usize, &Constraint)> = positives_raw;
        positives.sort_by(|a, b| {
            b.1.weight
                .partial_cmp(&a.1.weight)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        negatives.sort_by(|a, b| {
            b.1.weight
                .partial_cmp(&a.1.weight)
                .unwrap_or(std::cmp::Ordering::Equal)
        });

        // §2.4 weighted combination, greedy form: seed the estimate with the
        // highest-weight positive constraint whose region is itself large
        // enough to be meaningful (a degenerate region would otherwise poison
        // the whole combination), then fold in the remaining constraints in
        // decreasing weight order, setting aside any that would shrink the
        // estimate below the size threshold.
        let simplify_tol = octant_geo::units::Distance::from_km(SIMPLIFY_TOLERANCE_KM);
        let mut estimate = GeoRegion::world(projection);
        let mut seeded = false;
        let mut pending: Vec<(usize, &Constraint)> = Vec::with_capacity(positives.len());
        for &(idx, c) in &positives {
            if !seeded {
                if c.region.area_km2() >= self.config.min_region_area_km2 {
                    estimate = c.region.reproject(projection);
                    report.applied_positive += 1;
                    applied[idx] = true;
                    seeded = true;
                } else {
                    report.skipped_positive += 1;
                }
                continue;
            }
            pending.push((idx, c));
        }

        // Chunked single-sweep application: along the greedy chain the
        // estimate's area only shrinks, so if a whole chunk of constraints
        // intersected at once (with the running estimate) clears the size
        // threshold, then every prefix inside the chunk did too and the
        // pairwise chain would have applied each of them — apply/skip
        // decisions match the pairwise chain (up to the tolerance-bounded,
        // shrink-only simplification the chain additionally applies between
        // steps, which the floor comfortably dominates), but N−1 pairwise
        // sweeps collapse into one n-ary sweep per chunk. A chunk that
        // fails the threshold is replayed pairwise (so conflict resolution
        // is unchanged) and the chunk size drops to 1 — single-constraint
        // "chunks" go straight to the pairwise op, so conflict-heavy
        // workloads degrade to the plain greedy chain with no wasted
        // sweeps; consistent stretches double the chunk back up. The
        // running estimate is an operand of every sweep, so its (small)
        // bounding box drives the sweep's y-window pruning.
        //
        // The chunk result stays **banded** across the §2.4 gate: the area
        // is read straight off the sweep's band decomposition, and rings
        // are only stitched at the simplify boundary of an *accepted*
        // chunk (the stitch itself reproduces the ring-form path's rings
        // bit for bit; a rejected chunk is discarded without ever
        // polygonizing). The gate *value* is the per-cell trapezoid sum
        // rather than the stitched rings' shoelace sum — equal to within
        // last-ulp rounding, ~12 orders of magnitude below the area
        // threshold — so decision identity is pinned empirically by the
        // parity goldens rather than holding bit-for-bit by construction.
        if seeded {
            let mut idx = 0;
            let mut chunk = 4usize;
            while idx < pending.len() {
                let end = (idx + chunk).min(pending.len());
                let batch = &pending[idx..end];
                let combined_ok = batch.len() > 1 && {
                    let _span = octant_telemetry::span("solver.intersect");
                    let combined = GeoRegion::intersect_many(
                        projection,
                        std::iter::once(&estimate).chain(batch.iter().map(|(_, c)| &c.region)),
                    );
                    if combined.area_km2() >= self.config.min_region_area_km2 {
                        report.applied_positive += batch.len();
                        for &(i, _) in batch {
                            applied[i] = true;
                        }
                        let _simplify = octant_telemetry::span("solver.simplify");
                        estimate = combined
                            .into_geo_region()
                            .simplify_to_budget(simplify_tol, MAX_ESTIMATE_VERTICES);
                        true
                    } else {
                        false
                    }
                };
                if combined_ok {
                    chunk = (chunk * 2).min(16);
                } else {
                    // Replay this chunk pairwise so individual conflicting
                    // constraints are skipped exactly as the greedy chain
                    // would have.
                    let _span = octant_telemetry::span("solver.fallback");
                    let mut any_skipped = false;
                    for &(i, c) in batch {
                        let candidate = estimate.intersect(&c.region);
                        if candidate.area_km2() >= self.config.min_region_area_km2 {
                            let _simplify = octant_telemetry::span("solver.simplify");
                            estimate =
                                candidate.simplify_to_budget(simplify_tol, MAX_ESTIMATE_VERTICES);
                            report.applied_positive += 1;
                            applied[i] = true;
                        } else {
                            report.skipped_positive += 1;
                            any_skipped = true;
                        }
                    }
                    chunk = if any_skipped { 1 } else { (chunk * 2).min(16) };
                }
                idx = end;
            }
        }

        let _subtract = octant_telemetry::span("solver.subtract");
        for &(i, c) in &negatives {
            let candidate = estimate.subtract(&c.region);
            let floor = (estimate.area_km2() * (1.0 - MAX_NEGATIVE_REMOVAL_FRAC))
                .max(self.config.min_region_area_km2);
            if candidate.area_km2() >= floor {
                estimate = candidate.simplify_to_budget(simplify_tol, MAX_ESTIMATE_VERTICES);
                report.applied_negative += 1;
                applied[i] = true;
            } else {
                report.skipped_negative += 1;
            }
        }

        report.final_area_km2 = estimate.area_km2();
        (estimate, report, applied)
    }

    /// Convenience: solve and return the centroid point estimate alongside
    /// the region.
    pub fn solve_with_point(
        &self,
        projection: AzimuthalEquidistant,
        constraints: &[Constraint],
    ) -> (GeoRegion, Option<GeoPoint>, SolveReport) {
        let (region, report) = self.solve(projection, constraints);
        let point = region.centroid();
        (region, point, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::Constraint;
    use octant_geo::cities;
    use octant_geo::distance::great_circle_km;
    use octant_geo::units::Distance;

    fn proj() -> AzimuthalEquidistant {
        AzimuthalEquidistant::new(cities::by_code("pit").unwrap().location())
    }

    fn disk_at(code: &str, km: f64) -> GeoRegion {
        let c = cities::by_code(code).unwrap().location();
        GeoRegion::disk(proj(), c, Distance::from_km(km))
    }

    #[test]
    fn consistent_positive_constraints_are_all_applied() {
        // Three landmark disks that genuinely contain Pittsburgh.
        let constraints = vec![
            Constraint::positive(disk_at("nyc", 600.0), 0.9, "nyc"),
            Constraint::positive(disk_at("chi", 750.0), 0.8, "chi"),
            Constraint::positive(disk_at("was", 500.0), 0.7, "was"),
        ];
        let solver = Solver::default();
        let (region, report) = solver.solve(proj(), &constraints);
        assert_eq!(report.applied_positive, 3);
        assert_eq!(report.skipped_positive, 0);
        assert!(region.contains(cities::by_code("pit").unwrap().location()));
        assert!(!region.contains(cities::by_code("den").unwrap().location()));
        assert!(report.final_area_km2 > 0.0);
    }

    #[test]
    fn conflicting_low_weight_constraint_is_skipped() {
        // Two consistent high-weight disks around Pittsburgh plus a bogus
        // low-weight disk around Los Angeles that intersects neither.
        let constraints = vec![
            Constraint::positive(disk_at("nyc", 600.0), 0.9, "nyc"),
            Constraint::positive(disk_at("was", 500.0), 0.8, "was"),
            Constraint::positive(disk_at("lax", 300.0), 0.1, "bogus"),
        ];
        let solver = Solver::default();
        let (region, report) = solver.solve(proj(), &constraints);
        assert_eq!(report.applied_positive, 2);
        assert_eq!(report.skipped_positive, 1);
        assert!(!region.is_empty());
        assert!(region.contains(cities::by_code("pit").unwrap().location()));
    }

    #[test]
    fn weights_determine_who_wins_a_conflict() {
        // Two mutually exclusive disks; the heavier one must survive.
        let constraints = vec![
            Constraint::positive(disk_at("lax", 300.0), 0.9, "lax"),
            Constraint::positive(disk_at("bos", 300.0), 0.2, "bos"),
        ];
        let (region, report) = Solver::default().solve(proj(), &constraints);
        assert_eq!(report.applied_positive, 1);
        assert_eq!(report.skipped_positive, 1);
        assert!(region.contains(cities::by_code("lax").unwrap().location()));
        assert!(!region.contains(cities::by_code("bos").unwrap().location()));
    }

    #[test]
    fn negative_constraints_carve_holes_but_cannot_empty_the_estimate() {
        let constraints = vec![
            Constraint::positive(disk_at("pit", 400.0), 1.0, "pos"),
            Constraint::negative(disk_at("pit", 100.0), 0.8, "ring"),
            // A negative constraint covering everything would empty the
            // estimate, so it must be skipped.
            Constraint::negative(disk_at("pit", 5000.0), 0.5, "too big"),
        ];
        let (region, report) = Solver::default().solve(proj(), &constraints);
        assert_eq!(report.applied_negative, 1);
        assert_eq!(report.skipped_negative, 1);
        let pit = cities::by_code("pit").unwrap().location();
        assert!(!region.contains(pit), "the inner disk is excluded");
        assert!(
            region.contains(cities::by_code("cle").unwrap().location()),
            "the annulus remains"
        );
    }

    #[test]
    fn no_constraints_yields_the_world() {
        let (region, report) = Solver::default().solve(proj(), &[]);
        assert_eq!(report.total(), 0);
        assert!(region.contains(cities::by_code("nrt").unwrap().location()));
        assert!(region.contains(cities::by_code("lax").unwrap().location()));
    }

    #[test]
    fn point_estimate_lands_between_consistent_landmarks() {
        let constraints = vec![
            Constraint::positive(disk_at("nyc", 620.0), 0.9, "nyc"),
            Constraint::positive(disk_at("chi", 780.0), 0.8, "chi"),
        ];
        let (region, point, _) = Solver::default().solve_with_point(proj(), &constraints);
        let p = point.unwrap();
        assert!(
            region.contains(p),
            "the centroid of the estimate lies inside it"
        );
        // Roughly between NYC and Chicago: within 600 km of Pittsburgh.
        assert!(great_circle_km(p, cities::by_code("pit").unwrap().location()) < 600.0);
    }

    #[test]
    fn min_area_threshold_is_respected() {
        let solver = Solver::new(SolverConfig::default().with_min_region_area_km2(1_000_000.0));
        let constraints = vec![
            Constraint::positive(disk_at("nyc", 600.0), 0.9, "nyc"),
            // Applying this would leave less than the (huge) minimum area.
            Constraint::positive(disk_at("chi", 750.0), 0.8, "chi"),
        ];
        let (region, report) = solver.solve(proj(), &constraints);
        assert_eq!(report.applied_positive, 1);
        assert_eq!(report.skipped_positive, 1);
        assert!(region.area_km2() >= 1_000_000.0);
    }

    #[test]
    fn traced_solve_attributes_decisions_to_input_order() {
        let constraints = vec![
            Constraint::positive(disk_at("nyc", 600.0), 0.9, "nyc"),
            Constraint::positive(disk_at("was", 500.0), 0.8, "was"),
            Constraint::positive(disk_at("lax", 300.0), 0.1, "bogus"),
            Constraint::negative(disk_at("pit", 5000.0), 0.5, "too big"),
        ];
        let (region, report, applied) = Solver::default().solve_traced(proj(), &constraints);
        assert_eq!(applied, vec![true, true, false, false]);
        assert_eq!(
            applied.iter().filter(|a| **a).count(),
            report.applied_positive + report.applied_negative
        );
        // Identical to the untraced entry point, bit for bit.
        let (r2, rep2) = Solver::default().solve(proj(), &constraints);
        assert_eq!(report, rep2);
        assert_eq!(region.area_km2().to_bits(), r2.area_km2().to_bits());
    }

    #[test]
    fn report_totals_add_up() {
        let constraints = vec![
            Constraint::positive(disk_at("nyc", 600.0), 0.9, "a"),
            Constraint::positive(disk_at("was", 600.0), 0.8, "b"),
            Constraint::negative(disk_at("nyc", 50.0), 0.5, "c"),
        ];
        let (_, report) = Solver::default().solve(proj(), &constraints);
        assert_eq!(report.total(), 3);
        assert!(report.final_area_km2 > 0.0);
    }
}
