//! Geographic and demographic constraints (§2.5).
//!
//! Beyond latency, Octant folds in any geographic knowledge available:
//! negative constraints removing oceans and other uninhabitable areas, and
//! positive constraints derived from the WHOIS record of the target's IP
//! prefix (a city/ZIP-level registration that is sometimes stale or wrong and
//! therefore enters with a modest weight).

use crate::constraint::Constraint;
use octant_geo::cities;
use octant_geo::landmass::LANDMASSES;
use octant_geo::point::GeoPoint;
use octant_geo::projection::AzimuthalEquidistant;
use octant_geo::units::Distance;
use octant_region::GeoRegion;

/// The union of all coarse landmass outlines, expressed in `projection`.
/// Intersecting an estimate with this region implements the paper's "the
/// target is not in an ocean" negative constraint.
///
/// The outlines are merged in a single n-ary sweep ([`GeoRegion::union_many`])
/// instead of a chain of pairwise unions; mutually bbox-disjoint continents
/// (the common case) concatenate without any sweep at all.
pub fn landmass_union(projection: AzimuthalEquidistant) -> GeoRegion {
    let regions: Vec<GeoRegion> = LANDMASSES
        .iter()
        .map(|lm| GeoRegion::from_landmass(projection, lm))
        .collect();
    GeoRegion::union_many(projection, regions.iter())
}

/// [`landmass_union`] behind a process-wide per-projection cache.
///
/// Every solve (and every recursive router sub-solve) folds the landmass
/// restriction in, and each used to rebuild the union — projecting every
/// outline vertex and re-running the union sweep — from scratch. The union
/// depends only on the projection centre, so it is cached in a
/// process-wide map keyed on the centre's coordinate bits, mirroring
/// [`population_prior_region_cached`]'s process-wide pattern. Unlike the
/// population prior the cached value is **built directly in the requested
/// projection** (not reprojected from a reference projection), so cache
/// hits are bit-identical to fresh builds — repeated solves of the same
/// target, replayed service requests and cache-backed router sub-solves
/// all reuse the exact region the uncached path would compute.
///
/// The map is bounded: when it exceeds a fixed cap (distinct projections
/// are as numerous as distinct targets) it is cleared wholesale — the next
/// build repopulates it, and correctness never depends on residency.
/// Hit/miss counters are published as `landmass_cache.hits` /
/// `landmass_cache.misses` in [`octant_telemetry::MetricsRegistry::global`].
pub fn landmass_union_cached(projection: AzimuthalEquidistant) -> std::sync::Arc<GeoRegion> {
    use std::collections::HashMap;
    use std::sync::{Arc, Mutex, OnceLock};

    type LandCache = Mutex<HashMap<(u64, u64), Arc<GeoRegion>>>;
    static CACHE: OnceLock<LandCache> = OnceLock::new();
    const MAX_ENTRIES: usize = 1024;

    let center = projection.center();
    let key = (center.lat.to_bits(), center.lon.to_bits());
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    {
        let map = cache.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(hit) = map.get(&key) {
            land_cache_hits().inc();
            return hit.clone();
        }
    }
    // Build outside the lock: concurrent misses may both build (identical
    // values — the build is deterministic), but neither blocks the other.
    land_cache_misses().inc();
    let built = Arc::new(landmass_union(projection));
    let mut map = cache.lock().unwrap_or_else(|e| e.into_inner());
    if map.len() >= MAX_ENTRIES {
        map.clear();
    }
    map.entry(key).or_insert_with(|| built.clone()).clone()
}

fn land_cache_hits() -> &'static octant_telemetry::Counter {
    static HITS: std::sync::OnceLock<octant_telemetry::Counter> = std::sync::OnceLock::new();
    HITS.get_or_init(|| octant_telemetry::MetricsRegistry::global().counter("landmass_cache.hits"))
}

fn land_cache_misses() -> &'static octant_telemetry::Counter {
    static MISSES: std::sync::OnceLock<octant_telemetry::Counter> = std::sync::OnceLock::new();
    MISSES.get_or_init(|| {
        octant_telemetry::MetricsRegistry::global().counter("landmass_cache.misses")
    })
}

/// Restricts `estimate` to land. When the intersection would wipe the
/// estimate out entirely (which can only happen if the estimate already
/// contradicts the latency constraints), the original estimate is returned
/// unchanged — geographic hints must never empty the solution (§2.4's
/// robustness principle).
pub fn restrict_to_land(estimate: &GeoRegion) -> GeoRegion {
    let land = landmass_union_cached(estimate.projection());
    let restricted = estimate.intersect(&land);
    if restricted.is_empty() {
        estimate.clone()
    } else {
        restricted
    }
}

/// A positive constraint from a WHOIS registration: the target is believed to
/// be within `radius` of the registered city. Returns `None` when the city
/// code is unknown to the city table.
pub fn whois_constraint(
    projection: AzimuthalEquidistant,
    city_code: &str,
    radius: Distance,
    weight: f64,
) -> Option<Constraint> {
    let city = cities::by_code(city_code)?;
    let region = GeoRegion::disk(projection, city.location(), radius);
    Some(Constraint::positive(
        region,
        weight,
        format!("whois:{}", city.code),
    ))
}

/// A positive constraint from a known city hint (e.g. a router whose DNS name
/// reveals its city), with an explicit radius and weight.
pub fn city_hint_constraint(
    projection: AzimuthalEquidistant,
    city: &cities::City,
    radius: Distance,
    weight: f64,
    label: impl Into<String>,
) -> Constraint {
    let region = GeoRegion::disk(projection, city.location(), radius);
    Constraint::positive(region, weight, label)
}

/// `true` when a point is on land according to the coarse landmass outlines
/// (re-exported convenience used by the evaluation and the examples).
pub fn is_plausible_host_location(p: GeoPoint) -> bool {
    octant_geo::landmass::is_on_land(p)
}

/// A coarse population-density prior region (§2.5's demographic
/// constraints): the city table is aggregated onto a `cell_deg`-degree
/// lat/lon grid, and every cell whose summed metro population clears
/// `min_cell_population_k` contributes a disk at its population-weighted
/// centroid, sized to cover the cell. The union of those disks is where
/// "most hosts plausibly are" — used by the `PopulationPrior` source as a
/// low-weight positive constraint.
///
/// Deterministic: cells are accumulated and unioned in sorted grid order,
/// so repeated calls produce bit-identical regions.
pub fn population_prior_region(
    projection: AzimuthalEquidistant,
    cell_deg: f64,
    min_cell_population_k: u32,
) -> GeoRegion {
    use std::collections::BTreeMap;
    let cell = cell_deg.clamp(1.0, 45.0);
    // (pop sum, pop-weighted lat sum, pop-weighted lon sum) per grid cell.
    let mut cells: BTreeMap<(i32, i32), (f64, f64, f64)> = BTreeMap::new();
    for city in cities::CITIES {
        let key = (
            (city.lat / cell).floor() as i32,
            (city.lon / cell).floor() as i32,
        );
        let pop = city.population_k as f64;
        let entry = cells.entry(key).or_insert((0.0, 0.0, 0.0));
        entry.0 += pop;
        entry.1 += pop * city.lat;
        entry.2 += pop * city.lon;
    }
    // A disk that covers the whole cell from its population-weighted
    // centroid: the centroid is only guaranteed to lie *somewhere* inside
    // the cell, so the radius must be the full equatorial cell diagonal
    // (the farthest any cell point can be from any interior point; cells
    // only shrink towards the poles). A tighter radius would let a metro
    // near the far corner of a qualifying cell fall outside the prior and
    // be wrongly excluded.
    let radius_km = cell * 111.32 * std::f64::consts::SQRT_2;
    let disks: Vec<GeoRegion> = cells
        .values()
        .filter(|(pop, _, _)| *pop >= min_cell_population_k as f64)
        .map(|(pop, lat_sum, lon_sum)| {
            let center = GeoPoint::new(lat_sum / pop, lon_sum / pop);
            // A planar circle in azimuthal-equidistant covers less *true*
            // tangential distance the farther its centre sits from the
            // projection origin (by sin(c)/c for angular distance c).
            // Inflate the radius by the inverse factor so the geodesic
            // cell-coverage guarantee holds wherever the projection is
            // centred — essential for the cached variant, which builds
            // the prior once in a fixed reference projection. Inflation
            // only loosens the prior, never tightens it. The factor is
            // clamped: near the antipode the projection degenerates, but
            // antipodal cells are ~20 000 km from the estimate and can
            // never interact with a solve's constraint region.
            let c_rad = octant_geo::distance::great_circle(projection.center(), center).km()
                / octant_geo::EARTH_RADIUS_KM;
            let inflate = if c_rad < 1e-6 {
                1.0
            } else {
                (c_rad / c_rad.sin().abs().max(1e-3)).min(4.0)
            };
            GeoRegion::disk(projection, center, Distance::from_km(radius_km * inflate))
        })
        .collect();
    GeoRegion::union_many(projection, disks.iter())
}

/// [`population_prior_region`] behind a process-wide cache: the aggregation
/// and union depend only on the two knobs, so they are computed **once** in
/// a fixed reference projection and reprojected onto each solve's
/// projection (the same reproject-per-target pattern the router-constraint
/// caches use). This is what the `PopulationPrior` source calls — without
/// it, every target solve (and every recursive router sub-solve inheriting
/// the flag) would rebuild the whole grid union from scratch.
pub fn population_prior_region_cached(
    projection: AzimuthalEquidistant,
    cell_deg: f64,
    min_cell_population_k: u32,
) -> GeoRegion {
    use std::collections::HashMap;
    use std::sync::{Arc, Mutex, OnceLock};

    type PriorCache = Mutex<HashMap<(u64, u32), Arc<GeoRegion>>>;
    static CACHE: OnceLock<PriorCache> = OnceLock::new();

    let key = (cell_deg.to_bits(), min_cell_population_k);
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let reference = {
        let mut map = cache.lock().unwrap_or_else(|e| e.into_inner());
        map.entry(key)
            .or_insert_with(|| {
                let reference_projection = AzimuthalEquidistant::new(GeoPoint::new(0.0, 0.0));
                Arc::new(population_prior_region(
                    reference_projection,
                    cell_deg,
                    min_cell_population_k,
                ))
            })
            .clone()
    };
    reference.reproject(projection)
}

#[cfg(test)]
mod tests {
    use super::*;
    use octant_geo::units::Distance;

    fn proj() -> AzimuthalEquidistant {
        AzimuthalEquidistant::new(GeoPoint::new(40.0, -75.0))
    }

    #[test]
    fn landmass_union_contains_major_cities_not_oceans() {
        let land = landmass_union(proj());
        for code in ["nyc", "chi", "lax", "mia"] {
            assert!(
                land.contains(cities::by_code(code).unwrap().location()),
                "{code} should be on land"
            );
        }
        assert!(
            !land.contains(GeoPoint::new(35.0, -45.0)),
            "mid-Atlantic is ocean"
        );
    }

    #[test]
    fn restricting_to_land_removes_ocean_area() {
        let nyc = cities::by_code("nyc").unwrap().location();
        let region = GeoRegion::disk(proj(), nyc, Distance::from_km(600.0));
        let restricted = restrict_to_land(&region);
        assert!(
            restricted.area_km2() < region.area_km2(),
            "the Atlantic part must disappear"
        );
        assert!(restricted.contains(cities::by_code("phl").unwrap().location()));
        assert!(!restricted.contains(GeoPoint::new(37.5, -68.0)));
    }

    #[test]
    fn restriction_never_empties_the_estimate() {
        // A disk entirely in the middle of the Pacific: restricting it to
        // land would empty it, so the original must be returned.
        let pacific = GeoPoint::new(30.0, -160.0);
        let region = GeoRegion::disk(
            AzimuthalEquidistant::new(pacific),
            pacific,
            Distance::from_km(300.0),
        );
        let restricted = restrict_to_land(&region);
        assert!(!restricted.is_empty());
        assert!((restricted.area_km2() - region.area_km2()).abs() < 1.0);
    }

    #[test]
    fn whois_constraints_resolve_known_cities() {
        let c = whois_constraint(proj(), "chi", Distance::from_km(200.0), 0.4).unwrap();
        assert!(c.is_positive());
        assert_eq!(c.weight, 0.4);
        assert!(c
            .region
            .contains(cities::by_code("chi").unwrap().location()));
        assert!(!c
            .region
            .contains(cities::by_code("nyc").unwrap().location()));
        assert!(whois_constraint(proj(), "not-a-city", Distance::from_km(200.0), 0.4).is_none());
    }

    #[test]
    fn city_hint_constraint_is_centred_on_the_city() {
        let city = cities::by_code("den").unwrap();
        let c = city_hint_constraint(proj(), city, Distance::from_km(150.0), 0.9, "router hint");
        assert!(c.region.contains(city.location()));
        assert_eq!(c.label, "router hint");
    }

    #[test]
    fn plausibility_check_delegates_to_landmass_data() {
        assert!(is_plausible_host_location(GeoPoint::new(40.71, -74.01)));
        assert!(!is_plausible_host_location(GeoPoint::new(0.0, -30.0)));
    }

    #[test]
    fn cached_landmass_union_is_bit_identical_and_counts_hits() {
        // Read hit/miss counters straight off the process-wide registry.
        let counters = || (land_cache_hits().get(), land_cache_misses().get());
        // A projection centre no other test uses, so the first call is a
        // genuine miss whatever the test interleaving.
        let p = AzimuthalEquidistant::new(GeoPoint::new(51.23456, -0.54321));
        let fresh = landmass_union(p);
        let (_, m0) = counters();
        let first = landmass_union_cached(p);
        let (h1, m1) = counters();
        // The counters are process-wide and other tests in this binary may
        // drive solves concurrently, so only *our* contribution is pinned:
        // a never-seen key must record at least one miss (ours).
        assert!(m1 - m0 >= 1, "first lookup builds");
        // The cached build runs in the requested projection directly, so it
        // is bit-identical to the uncached construction.
        assert_eq!(first.area_km2().to_bits(), fresh.area_km2().to_bits());
        assert_eq!(first.region().ring_count(), fresh.region().ring_count());

        let second = landmass_union_cached(p);
        let (h2, _) = counters();
        // The race-proof hit evidence: the same shared value comes back (a
        // pointer bump, not a rebuild), and at least our hit was counted.
        assert!(
            std::sync::Arc::ptr_eq(&first, &second),
            "second lookup must replay the cached Arc"
        );
        assert!(h2 - h1 >= 1, "second lookup hits");
        assert_eq!(second.area_km2().to_bits(), first.area_km2().to_bits());
    }

    #[test]
    fn cached_landmass_union_reprojection_parity() {
        // Membership agreement between unions built (and cached) under two
        // different projection centres, and against a reprojection of one
        // onto the other: the per-projection cache must behave exactly like
        // building in the target projection, including for consumers that
        // reproject regions across solves.
        let p_east = AzimuthalEquidistant::new(GeoPoint::new(40.7001, -74.0001));
        let p_west = AzimuthalEquidistant::new(GeoPoint::new(47.6001, -122.3001));
        let east = landmass_union_cached(p_east);
        let west = landmass_union_cached(p_west);
        let east_on_west = east.reproject(p_west);
        for code in ["nyc", "chi", "den", "sea", "mia"] {
            let city = cities::by_code(code).unwrap().location();
            assert!(east.contains(city), "{code} on land (east projection)");
            assert!(west.contains(city), "{code} on land (west projection)");
            assert!(
                east_on_west.contains(city),
                "{code} survives reprojection of the cached union"
            );
        }
        for ocean in [GeoPoint::new(35.0, -45.0), GeoPoint::new(30.0, -160.0)] {
            assert!(!east.contains(ocean));
            assert!(!west.contains(ocean));
            assert!(!east_on_west.contains(ocean));
        }
    }

    #[test]
    fn population_prior_covers_metros_and_skips_open_ocean() {
        let prior = population_prior_region(proj(), 7.5, 1500);
        assert!(!prior.is_empty());
        for code in ["nyc", "chi", "lhr", "nrt"] {
            assert!(
                prior.contains(cities::by_code(code).unwrap().location()),
                "{code} should be inside the population prior"
            );
        }
        assert!(
            !prior.contains(GeoPoint::new(35.0, -45.0)),
            "mid-Atlantic has no population"
        );
        // Deterministic across calls (bit-identical area).
        let again = population_prior_region(proj(), 7.5, 1500);
        assert_eq!(prior.area_km2().to_bits(), again.area_km2().to_bits());
    }

    #[test]
    fn population_prior_threshold_filters_cells() {
        let loose = population_prior_region(proj(), 7.5, 1000);
        let strict = population_prior_region(proj(), 7.5, 20_000);
        assert!(strict.area_km2() < loose.area_km2());
    }

    #[test]
    fn cached_population_prior_still_covers_metros_after_reprojection() {
        // The cached variant builds the prior once in a reference
        // projection centred at (0, 0) and reprojects — the tangential
        // compression of far-from-origin disks must not break the
        // cell-coverage guarantee (that is what the distortion inflation
        // in `population_prior_region` exists for).
        let prior = population_prior_region_cached(proj(), 7.5, 1500);
        for code in ["nyc", "chi", "lax", "sea", "lhr", "nrt"] {
            assert!(
                prior.contains(cities::by_code(code).unwrap().location()),
                "{code} must stay inside the cached, reprojected prior"
            );
        }
        // Second call hits the cache and reprojects identically.
        let again = population_prior_region_cached(proj(), 7.5, 1500);
        assert_eq!(prior.area_km2().to_bits(), again.area_km2().to_bits());
    }
}
