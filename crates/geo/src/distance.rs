//! Great-circle distance, bearing, destination and midpoint computations.
//!
//! All functions treat the Earth as a sphere of radius
//! [`crate::EARTH_RADIUS_KM`]. The haversine formulation is used throughout:
//! its worst-case error versus the ellipsoidal ground truth is ~0.5%, far
//! below the measurement noise Octant deals with, and it is numerically
//! stable for both tiny and antipodal separations.

use crate::point::GeoPoint;
use crate::units::Distance;
use crate::EARTH_RADIUS_KM;

/// A point with the per-point half of the haversine precomputed: its
/// coordinates in radians and the cosine of its latitude.
///
/// [`great_circle_km`] is [`HaversinePoint::distance_km`] between two fresh
/// `HaversinePoint`s, so a caller that measures one point against many
/// others can prepare each point once and get the same distances bit for
/// bit with two fewer trig calls per pair.
///
/// The distance is assembled from three pieces: a latitude term
/// ([`HaversinePoint::lat_term`]), which depends only on the two latitudes,
/// a longitude term ([`HaversinePoint::lon_term`]), which depends only on
/// the two longitudes, and [`HaversinePoint::distance_from_terms`]. A
/// caller measuring a grid of points against fixed sites can keep a row's
/// latitude terms and a column's longitude terms and still get the same
/// bits.
#[derive(Debug, Clone, Copy)]
pub struct HaversinePoint {
    lat_rad: f64,
    lon_rad: f64,
    cos_lat: f64,
}

impl HaversinePoint {
    /// Prepares `p`.
    pub fn new(p: GeoPoint) -> Self {
        let lat_rad = p.lat_rad();
        HaversinePoint {
            lat_rad,
            lon_rad: p.lon_rad(),
            cos_lat: lat_rad.cos(),
        }
    }

    /// Great-circle distance to `other`, in kilometers.
    pub fn distance_km(&self, other: &HaversinePoint) -> f64 {
        self.distance_from_terms(other, self.lat_term(other), self.lon_term(other))
    }

    /// `sin²(Δφ/2)` from this point to `other`: a function of the two
    /// latitudes alone.
    pub fn lat_term(&self, other: &HaversinePoint) -> f64 {
        ((other.lat_rad - self.lat_rad) / 2.0).sin().powi(2)
    }

    /// `sin²(Δλ/2)` from this point to `other`: a function of the two
    /// longitudes alone.
    pub fn lon_term(&self, other: &HaversinePoint) -> f64 {
        ((other.lon_rad - self.lon_rad) / 2.0).sin().powi(2)
    }

    /// Great-circle distance to `other`, in kilometers, from this point's
    /// [`HaversinePoint::lat_term`] and [`HaversinePoint::lon_term`] to it.
    pub fn distance_from_terms(&self, other: &HaversinePoint, lat_term: f64, lon_term: f64) -> f64 {
        let h = lat_term + self.cos_lat * other.cos_lat * lon_term;
        // Clamp to guard against floating-point drift just above 1.0.
        let h = h.clamp(0.0, 1.0);
        2.0 * EARTH_RADIUS_KM * h.sqrt().asin()
    }
}

/// Great-circle distance between two points, in kilometers.
pub fn great_circle_km(a: GeoPoint, b: GeoPoint) -> f64 {
    HaversinePoint::new(a).distance_km(&HaversinePoint::new(b))
}

/// Great-circle distance between two points as a [`Distance`].
pub fn great_circle(a: GeoPoint, b: GeoPoint) -> Distance {
    Distance::from_km(great_circle_km(a, b))
}

/// Initial bearing (forward azimuth) from `a` to `b`, in degrees clockwise
/// from true north, normalized into `[0, 360)`.
pub fn initial_bearing_deg(a: GeoPoint, b: GeoPoint) -> f64 {
    let (lat1, lon1) = (a.lat_rad(), a.lon_rad());
    let (lat2, lon2) = (b.lat_rad(), b.lon_rad());
    let dlon = lon2 - lon1;
    let y = dlon.sin() * lat2.cos();
    let x = lat1.cos() * lat2.sin() - lat1.sin() * lat2.cos() * dlon.cos();
    let mut bearing = y.atan2(x).to_degrees();
    if bearing < 0.0 {
        bearing += 360.0;
    }
    bearing % 360.0
}

/// The point reached by travelling `distance` from `start` along the great
/// circle with initial bearing `bearing_deg` (degrees clockwise from north).
pub fn destination(start: GeoPoint, bearing_deg: f64, distance: Distance) -> GeoPoint {
    let delta = distance.km() / EARTH_RADIUS_KM;
    let theta = bearing_deg.to_radians();
    let lat1 = start.lat_rad();
    let lon1 = start.lon_rad();
    let lat2 = (lat1.sin() * delta.cos() + lat1.cos() * delta.sin() * theta.cos()).asin();
    let lon2 = lon1
        + (theta.sin() * delta.sin() * lat1.cos()).atan2(delta.cos() - lat1.sin() * lat2.sin());
    GeoPoint::new(lat2.to_degrees(), lon2.to_degrees())
}

/// The midpoint of the great-circle segment between `a` and `b`.
pub fn midpoint(a: GeoPoint, b: GeoPoint) -> GeoPoint {
    let va = a.to_unit_vector();
    let vb = b.to_unit_vector();
    let sum = [va[0] + vb[0], va[1] + vb[1], va[2] + vb[2]];
    // Antipodal points have no unique midpoint; fall back to `a`'s meridian.
    if sum.iter().map(|x| x * x).sum::<f64>() < 1e-12 {
        return GeoPoint::new((a.lat + b.lat) / 2.0, a.lon);
    }
    GeoPoint::from_vector(sum)
}

/// Interpolates along the great circle from `a` to `b`; `t = 0` yields `a`,
/// `t = 1` yields `b`. `t` is clamped into `[0, 1]`.
pub fn interpolate(a: GeoPoint, b: GeoPoint, t: f64) -> GeoPoint {
    let t = t.clamp(0.0, 1.0);
    let d = great_circle_km(a, b) / EARTH_RADIUS_KM;
    if d < 1e-12 {
        return a;
    }
    let sin_d = d.sin();
    if sin_d.abs() < 1e-12 {
        return midpoint(a, b);
    }
    let fa = ((1.0 - t) * d).sin() / sin_d;
    let fb = (t * d).sin() / sin_d;
    let va = a.to_unit_vector();
    let vb = b.to_unit_vector();
    GeoPoint::from_vector([
        fa * va[0] + fb * vb[0],
        fa * va[1] + fb * vb[1],
        fa * va[2] + fb * vb[2],
    ])
}

/// Total length of a path (sequence of points) following great circles
/// between consecutive points.
pub fn path_length(points: &[GeoPoint]) -> Distance {
    let mut total = 0.0;
    for pair in points.windows(2) {
        total += great_circle_km(pair[0], pair[1]);
    }
    Distance::from_km(total)
}

/// Route-inflation factor of a path relative to the direct great-circle
/// distance between its endpoints. Returns 1.0 for degenerate paths.
///
/// This is the "circuitousness" that makes latency-derived constraints loose
/// in practice (§2.3 of the paper): policy routing inflates path length well
/// beyond the great-circle distance.
pub fn path_inflation(points: &[GeoPoint]) -> f64 {
    if points.len() < 2 {
        return 1.0;
    }
    let direct = great_circle_km(points[0], points[points.len() - 1]);
    if direct < 1e-9 {
        return 1.0;
    }
    (path_length(points).km() / direct).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EARTH_CIRCUMFERENCE_KM;

    fn ithaca() -> GeoPoint {
        GeoPoint::new(42.4440, -76.5019)
    }
    fn seattle() -> GeoPoint {
        GeoPoint::new(47.6062, -122.3321)
    }
    fn london() -> GeoPoint {
        GeoPoint::new(51.5074, -0.1278)
    }

    #[test]
    fn known_distances_are_close() {
        // Reference values computed with the haversine formula on a sphere.
        assert!((great_circle_km(ithaca(), seattle()) - 3540.0).abs() < 60.0);
        assert!((great_circle_km(london(), GeoPoint::new(48.8566, 2.3522)) - 344.0).abs() < 10.0);
        // New York - Sydney, a long-haul pair.
        let nyc = GeoPoint::new(40.7128, -74.0060);
        let syd = GeoPoint::new(-33.8688, 151.2093);
        assert!((great_circle_km(nyc, syd) - 15990.0).abs() < 150.0);
    }

    #[test]
    fn prepared_points_give_the_literal_haversine_bit_for_bit() {
        fn literal(a: GeoPoint, b: GeoPoint) -> f64 {
            let (lat1, lon1) = (a.lat_rad(), a.lon_rad());
            let (lat2, lon2) = (b.lat_rad(), b.lon_rad());
            let h = ((lat2 - lat1) / 2.0).sin().powi(2)
                + lat1.cos() * lat2.cos() * ((lon2 - lon1) / 2.0).sin().powi(2);
            2.0 * EARTH_RADIUS_KM * h.clamp(0.0, 1.0).sqrt().asin()
        }
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x4A5);
        let mut points = vec![
            GeoPoint::new(90.0, 0.0),
            GeoPoint::new(-90.0, 45.0),
            GeoPoint::new(0.0, 180.0),
            GeoPoint::new(-0.0, -179.999),
            ithaca(),
            ithaca().antipode(),
        ];
        points
            .extend((0..200).map(|_| {
                GeoPoint::new(rng.gen_range(-90.0..=90.0), rng.gen_range(-180.0..=180.0))
            }));
        for &a in &points {
            let prepared = HaversinePoint::new(a);
            for &b in &points {
                let expected = literal(a, b).to_bits();
                assert_eq!(great_circle_km(a, b).to_bits(), expected, "{a} -> {b}");
                let other = HaversinePoint::new(b);
                assert_eq!(prepared.distance_km(&other).to_bits(), expected);
            }
        }
        // The term-split path, with the terms computed from points that
        // share only a latitude (the row) or only a longitude (the column)
        // with the measured point, as a grid search keeps them. Grid
        // candidates come from `GeoPoint::new`, which wraps longitudes past
        // ±180° and clamps latitudes at ±90°.
        let lats = [
            -95.0, -90.0, -89.9, -45.0, -0.0, 0.0, 33.3, 89.999, 90.0, 120.0,
        ];
        let lons = [
            -540.0, -181.0, -180.0, -179.999, -0.0, 0.0, 77.7, 179.999, 180.0, 181.0, 359.0,
        ];
        let mut grid: Vec<GeoPoint> = lats
            .iter()
            .flat_map(|&lat| lons.iter().map(move |&lon| GeoPoint::new(lat, lon)))
            .collect();
        grid.extend(
            (0..200).map(|_| {
                GeoPoint::new(rng.gen_range(-100.0..=100.0), rng.gen_range(-400.0..=400.0))
            }),
        );
        for &a in &grid {
            let at = HaversinePoint::new(a);
            let row = HaversinePoint::new(GeoPoint::new(a.lat, 12.5));
            let column = HaversinePoint::new(GeoPoint::new(-7.25, a.lon));
            for &b in points.iter().chain(&grid) {
                let site = HaversinePoint::new(b);
                let split =
                    at.distance_from_terms(&site, row.lat_term(&site), column.lon_term(&site));
                assert_eq!(split.to_bits(), literal(a, b).to_bits(), "{a} -> {b}");
            }
        }
    }

    #[test]
    fn distance_is_symmetric_and_zero_on_identity() {
        let d1 = great_circle_km(ithaca(), london());
        let d2 = great_circle_km(london(), ithaca());
        assert!((d1 - d2).abs() < 1e-9);
        assert_eq!(great_circle_km(ithaca(), ithaca()), 0.0);
    }

    #[test]
    fn antipodal_distance_is_half_circumference() {
        let p = GeoPoint::new(10.0, 20.0);
        let d = great_circle_km(p, p.antipode());
        assert!((d - EARTH_CIRCUMFERENCE_KM / 2.0).abs() < 1.0);
    }

    #[test]
    fn destination_round_trips_with_distance_and_bearing() {
        let start = ithaca();
        for &(bearing, km) in &[
            (0.0, 100.0),
            (45.0, 800.0),
            (90.0, 2500.0),
            (200.0, 5000.0),
            (359.0, 42.0),
        ] {
            let end = destination(start, bearing, Distance::from_km(km));
            let measured = great_circle_km(start, end);
            assert!(
                (measured - km).abs() < 1e-6 * km.max(1.0),
                "bearing {bearing} km {km}: measured {measured}"
            );
            let back_bearing = initial_bearing_deg(start, end);
            let diff = (back_bearing - bearing).abs();
            let diff = diff.min(360.0 - diff);
            assert!(diff < 1e-6, "bearing {bearing} -> {back_bearing}");
        }
    }

    #[test]
    fn bearing_cardinal_directions() {
        let origin = GeoPoint::new(0.0, 0.0);
        assert!((initial_bearing_deg(origin, GeoPoint::new(1.0, 0.0)) - 0.0).abs() < 1e-6);
        assert!((initial_bearing_deg(origin, GeoPoint::new(0.0, 1.0)) - 90.0).abs() < 1e-6);
        assert!((initial_bearing_deg(origin, GeoPoint::new(-1.0, 0.0)) - 180.0).abs() < 1e-6);
        assert!((initial_bearing_deg(origin, GeoPoint::new(0.0, -1.0)) - 270.0).abs() < 1e-6);
    }

    #[test]
    fn midpoint_is_equidistant() {
        let m = midpoint(ithaca(), london());
        let da = great_circle_km(ithaca(), m);
        let db = great_circle_km(london(), m);
        assert!((da - db).abs() < 1.0, "da={da} db={db}");
    }

    #[test]
    fn midpoint_of_antipodes_is_defined() {
        let p = GeoPoint::new(30.0, 40.0);
        let m = midpoint(p, p.antipode());
        assert!(m.is_valid());
    }

    #[test]
    fn interpolation_endpoints_and_monotonicity() {
        let a = ithaca();
        let b = london();
        assert!(great_circle_km(interpolate(a, b, 0.0), a) < 1e-6);
        assert!(great_circle_km(interpolate(a, b, 1.0), b) < 1e-6);
        let total = great_circle_km(a, b);
        let mut prev = 0.0;
        for i in 1..=10 {
            let t = i as f64 / 10.0;
            let p = interpolate(a, b, t);
            let d = great_circle_km(a, p);
            assert!(d >= prev - 1e-6, "distance along path should be monotone");
            assert!(
                (d - t * total).abs() < 1.0,
                "t={t}: d={d}, expected {}",
                t * total
            );
            prev = d;
        }
    }

    #[test]
    fn interpolate_identical_points() {
        let a = ithaca();
        let p = interpolate(a, a, 0.5);
        assert!(great_circle_km(a, p) < 1e-9);
    }

    #[test]
    fn path_length_and_inflation() {
        let path = vec![ithaca(), GeoPoint::new(41.8781, -87.6298), seattle()];
        let len = path_length(&path);
        let direct = great_circle_km(ithaca(), seattle());
        assert!(len.km() > direct);
        let infl = path_inflation(&path);
        assert!(infl > 1.0 && infl < 1.5, "inflation {infl}");
        assert_eq!(path_inflation(&[ithaca()]), 1.0);
        assert_eq!(path_inflation(&[]), 1.0);
        assert_eq!(path_inflation(&[ithaca(), ithaca()]), 1.0);
    }
}
