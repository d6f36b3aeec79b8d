//! Regions anchored to the globe.
//!
//! Octant's constraints are geographic ("within 700 km of the landmark in
//! Rochester"), but all exact geometry happens in a projected plane. A
//! [`GeoRegion`] bundles a [`Region`] with the azimuthal-equidistant
//! projection it lives in, provides geodesic constructors (disks, annuli,
//! landmass polygons) and geographic queries (containment of a lat/lon
//! point, area in km², centroid as a [`GeoPoint`]).
//!
//! All regions participating in one localization must share a projection;
//! [`GeoRegion::reproject`] migrates a region between projections when
//! constraints built around different reference points need to be combined.

use crate::region::Region;
use crate::ring::Ring;
use crate::vec2::Vec2;
use octant_geo::distance::great_circle_km;
use octant_geo::landmass::Landmass;
use octant_geo::point::GeoPoint;
use octant_geo::projection::AzimuthalEquidistant;
use octant_geo::units::Distance;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// A planar [`Region`] together with the projection anchoring it to the
/// globe.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GeoRegion {
    projection: AzimuthalEquidistant,
    region: Region,
}

impl GeoRegion {
    /// An empty region anchored at `center`.
    pub fn empty(center: GeoPoint) -> Self {
        GeoRegion {
            projection: AzimuthalEquidistant::new(center),
            region: Region::empty(),
        }
    }

    /// Wraps an existing planar region in a projection.
    pub fn from_region(projection: AzimuthalEquidistant, region: Region) -> Self {
        GeoRegion { projection, region }
    }

    /// A geodesic disk: all points within `radius` of `center`, expressed in
    /// the projection centred at `projection_center`.
    ///
    /// Distances from the projection centre are exact under the azimuthal
    /// equidistant projection; disks centred elsewhere have a small
    /// distortion (≲1–2 % at continental scale) that is negligible relative
    /// to latency-derived constraint widths.
    pub fn disk(projection: AzimuthalEquidistant, center: GeoPoint, radius: Distance) -> Self {
        let c: Vec2 = projection.project(center).into();
        GeoRegion {
            projection,
            region: Region::disk(c, radius.km()),
        }
    }

    /// A geodesic annulus between `inner` and `outer` around `center`.
    pub fn annulus(
        projection: AzimuthalEquidistant,
        center: GeoPoint,
        inner: Distance,
        outer: Distance,
    ) -> Self {
        let c: Vec2 = projection.project(center).into();
        GeoRegion {
            projection,
            region: Region::annulus(c, inner.km(), outer.km()),
        }
    }

    /// The whole-world stand-in: a huge disk around the projection centre
    /// covering every point Octant could possibly care about (half the
    /// Earth's circumference in radius). Used as the starting estimate
    /// before any constraint is applied.
    pub fn world(projection: AzimuthalEquidistant) -> Self {
        let radius = octant_geo::EARTH_CIRCUMFERENCE_KM / 2.0;
        GeoRegion {
            projection,
            region: Region::disk_with_tolerance(Vec2::ZERO, radius, 50.0),
        }
    }

    /// Converts a landmass outline into a region under this projection.
    pub fn from_landmass(projection: AzimuthalEquidistant, landmass: &Landmass) -> Self {
        let pts: Vec<Vec2> = landmass
            .outline_points()
            .into_iter()
            .map(|p| Vec2::from(projection.project(p)))
            .collect();
        GeoRegion {
            projection,
            region: Region::from_ring(Ring::new(pts)),
        }
    }

    /// The projection this region is expressed in.
    pub fn projection(&self) -> AzimuthalEquidistant {
        self.projection
    }

    /// The underlying planar region.
    pub fn region(&self) -> &Region {
        &self.region
    }

    /// `true` when the region has no area.
    pub fn is_empty(&self) -> bool {
        self.region.is_empty()
    }

    /// Area in km².
    pub fn area_km2(&self) -> f64 {
        self.region.area()
    }

    /// Area in square miles (the paper reports region sizes in miles).
    pub fn area_mi2(&self) -> f64 {
        self.region.area() / (octant_geo::KM_PER_MILE * octant_geo::KM_PER_MILE)
    }

    /// Does the region contain this geographic point?
    pub fn contains(&self, p: GeoPoint) -> bool {
        self.region.contains(self.projection.project(p).into())
    }

    /// The geographic centroid of the region (the paper's "point estimate"
    /// for a target). `None` when empty.
    pub fn centroid(&self) -> Option<GeoPoint> {
        self.region
            .centroid()
            .map(|c| self.projection.unproject(c.into()))
    }

    /// Distance from a geographic point to the region (zero inside). For an
    /// empty region the Earth's circumference is returned, i.e. "farther than
    /// anything on the globe".
    pub fn distance_to(&self, p: GeoPoint) -> Distance {
        let d = self.region.distance_to(self.projection.project(p).into());
        if d.is_finite() {
            Distance::from_km(d)
        } else {
            Distance::from_km(octant_geo::EARTH_CIRCUMFERENCE_KM)
        }
    }

    /// Intersection, in this region's projection (the other region is
    /// reprojected if needed, and borrowed if not).
    pub fn intersect(&self, other: &GeoRegion) -> GeoRegion {
        GeoRegion {
            projection: self.projection,
            region: self.region.intersect(&other.planar_in(self.projection)),
        }
    }

    /// Union, in this region's projection.
    pub fn union(&self, other: &GeoRegion) -> GeoRegion {
        GeoRegion {
            projection: self.projection,
            region: self.region.union(&other.planar_in(self.projection)),
        }
    }

    /// Difference (`self` minus `other`), in this region's projection.
    pub fn subtract(&self, other: &GeoRegion) -> GeoRegion {
        GeoRegion {
            projection: self.projection,
            region: self.region.subtract(&other.planar_in(self.projection)),
        }
    }

    /// Union of many regions in one scanline sweep (see
    /// [`Region::union_many`]). Operands expressed in other projections are
    /// reprojected onto `projection` first; same-projection operands are
    /// borrowed rather than cloned.
    pub fn union_many<'a, I>(projection: AzimuthalEquidistant, operands: I) -> GeoRegion
    where
        I: IntoIterator<Item = &'a GeoRegion>,
    {
        let planar = Self::planar_operands(projection, operands);
        GeoRegion {
            projection,
            region: Region::union_many(planar.iter().map(|r| r.as_ref())),
        }
    }

    /// Intersection of many regions in one scanline sweep, kept in the
    /// sweep's banded form (see [`Region::intersect_many`]): the area is
    /// available immediately, and rings are only stitched when the caller
    /// keeps the result. This is what lets the solver hold its running
    /// estimate in banded form across a constraint chunk and extract rings
    /// only at the simplify boundary. Operands expressed in other
    /// projections are reprojected onto `projection` first; operands
    /// already anchored there (the common case — a solve shares one
    /// projection) are borrowed rather than cloned.
    pub fn intersect_many<'a, I>(projection: AzimuthalEquidistant, operands: I) -> BandedGeoRegion
    where
        I: IntoIterator<Item = &'a GeoRegion>,
    {
        let planar = Self::planar_operands(projection, operands);
        BandedGeoRegion {
            projection,
            inner: Region::intersect_many(planar.iter().map(|r| r.as_ref())),
        }
    }

    /// The merged outer contours of the underlying planar region, in this
    /// region's projection (see [`Region::contours`]).
    pub fn contours(&self) -> Vec<Ring> {
        self.region.contours()
    }

    /// Contour-fed dilation (see [`Region::dilate_with_contours`]): grows
    /// the region by `by` using an explicit contour ring set, expressed in
    /// this region's projection.
    pub fn dilate_with_contours(&self, contours: &[Ring], by: Distance) -> GeoRegion {
        GeoRegion {
            projection: self.projection,
            region: self.region.dilate_with_contours(contours, by.km()),
        }
    }

    /// The operands' planar forms in `projection` for the n-ary
    /// wrappers: same-projection operands borrowed, the rest reprojected.
    fn planar_operands<'a, I>(projection: AzimuthalEquidistant, operands: I) -> Vec<Cow<'a, Region>>
    where
        I: IntoIterator<Item = &'a GeoRegion>,
    {
        operands
            .into_iter()
            .map(|r| r.planar_in(projection))
            .collect()
    }

    /// This region's planar form in `target`'s projection: borrowed when
    /// the projections share a centre, reprojected otherwise.
    fn planar_in(&self, target: AzimuthalEquidistant) -> Cow<'_, Region> {
        if self.shares_projection(target) {
            Cow::Borrowed(&self.region)
        } else {
            Cow::Owned(self.reproject(target).region)
        }
    }

    /// Whether this region's projection centre is within 1e-6 km of
    /// `target`'s, which makes reprojection the identity.
    fn shares_projection(&self, target: AzimuthalEquidistant) -> bool {
        great_circle_km(self.projection.center(), target.center()) < 1e-6
    }

    /// Dilation by a geodesic distance (positive secondary-landmark
    /// constraint).
    pub fn dilate(&self, by: Distance) -> GeoRegion {
        GeoRegion {
            projection: self.projection,
            region: self.region.dilate(by.km()),
        }
    }

    /// Boundary simplification with a kilometre tolerance (see
    /// [`Region::simplify`]).
    pub fn simplify(&self, tolerance: Distance) -> GeoRegion {
        GeoRegion {
            projection: self.projection,
            region: self.region.simplify(tolerance.km()),
        }
    }

    /// Vertex-budget simplification (see [`Region::simplify_to_budget`]).
    pub fn simplify_to_budget(&self, tolerance: Distance, max_vertices: usize) -> GeoRegion {
        GeoRegion {
            projection: self.projection,
            region: self.region.simplify_to_budget(tolerance.km(), max_vertices),
        }
    }

    /// Total boundary vertex count of the underlying planar region.
    pub fn vertex_count(&self) -> usize {
        self.region.vertex_count()
    }

    /// Erosion by a geodesic distance (negative secondary-landmark
    /// constraint).
    pub fn erode(&self, by: Distance) -> GeoRegion {
        GeoRegion {
            projection: self.projection,
            region: self.region.erode(by.km()),
        }
    }

    /// Re-expresses the region in a different projection by mapping every
    /// ring vertex through globe coordinates. A no-op when the projections
    /// already share a centre.
    pub fn reproject(&self, target: AzimuthalEquidistant) -> GeoRegion {
        if self.shares_projection(target) {
            return self.clone();
        }
        let rings = self
            .region
            .rings()
            .iter()
            .map(|ring| {
                Ring::new(
                    ring.points()
                        .iter()
                        .map(|&v| {
                            let geo = self.projection.unproject(v.into());
                            Vec2::from(target.project(geo))
                        })
                        .collect(),
                )
            })
            .collect();
        GeoRegion {
            projection: target,
            region: Region::from_rings_raw(rings),
        }
    }

    /// Draws a random geographic point from the region.
    pub fn sample_point<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<GeoPoint> {
        self.region
            .sample_point(rng)
            .map(|v| self.projection.unproject(v.into()))
    }

    /// The farthest boundary vertex from a geographic point — an upper bound
    /// on how far inside the region the true position can be from `p`.
    pub fn max_distance_from(&self, p: GeoPoint) -> Distance {
        Distance::from_km(
            self.region
                .max_distance_from(self.projection.project(p).into()),
        )
    }
}

/// A banded intersection anchored to the globe: the projection plus the
/// (possibly still banded) planar result of [`GeoRegion::intersect_many`].
/// Area is readable without ring construction;
/// [`BandedGeoRegion::into_geo_region`] stitches the rings.
#[derive(Debug, Clone)]
pub struct BandedGeoRegion {
    projection: AzimuthalEquidistant,
    inner: crate::region::BandedIntersection,
}

impl BandedGeoRegion {
    /// Area in km², read off the bands (or the fast-path region).
    pub fn area_km2(&self) -> f64 {
        self.inner.area()
    }

    /// The projection the result is expressed in.
    pub fn projection(&self) -> AzimuthalEquidistant {
        self.projection
    }

    /// Stitches into an ordinary [`GeoRegion`].
    pub fn into_geo_region(self) -> GeoRegion {
        GeoRegion {
            projection: self.projection,
            region: self.inner.into_region(),
        }
    }
}

// A small internal helper so reproject can rebuild a region from rings that
// are already interior-disjoint (reprojection preserves disjointness).
trait FromRingsRaw {
    fn from_rings_raw(rings: Vec<Ring>) -> Region;
}

impl FromRingsRaw for Region {
    fn from_rings_raw(rings: Vec<Ring>) -> Region {
        // One n-ary sweep restores the invariant against the (rare) hairline
        // overlaps projection distortion can introduce, instead of N−1
        // chained pairwise unions.
        let regions: Vec<Region> = rings.into_iter().map(Region::from_ring).collect();
        Region::union_many(regions.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use octant_geo::cities;

    fn proj_at(lat: f64, lon: f64) -> AzimuthalEquidistant {
        AzimuthalEquidistant::new(GeoPoint::new(lat, lon))
    }

    #[test]
    fn geodesic_disk_contains_nearby_cities_only() {
        let ithaca = cities::by_code("ith").unwrap().location();
        let proj = AzimuthalEquidistant::new(ithaca);
        let d = GeoRegion::disk(proj, ithaca, Distance::from_km(400.0));
        // New York (~224 km away) is inside, Chicago (~960 km) is not.
        assert!(d.contains(cities::by_code("nyc").unwrap().location()));
        assert!(!d.contains(cities::by_code("chi").unwrap().location()));
        let truth = std::f64::consts::PI * 400.0 * 400.0;
        assert!((d.area_km2() - truth).abs() / truth < 0.01);
    }

    #[test]
    fn annulus_between_cities() {
        let roch = cities::by_code("roc").unwrap().location();
        let proj = AzimuthalEquidistant::new(roch);
        let ring = GeoRegion::annulus(
            proj,
            roch,
            Distance::from_km(200.0),
            Distance::from_km(800.0),
        );
        // Ithaca is ~125 km from Rochester: inside the hole, so excluded.
        assert!(!ring.contains(cities::by_code("ith").unwrap().location()));
        // Boston is ~600 km away: inside the annulus.
        assert!(ring.contains(cities::by_code("bos").unwrap().location()));
        // Denver is ~2400 km away: outside.
        assert!(!ring.contains(cities::by_code("den").unwrap().location()));
    }

    #[test]
    fn intersection_of_two_landmark_disks_localizes_between_them() {
        let nyc = cities::by_code("nyc").unwrap().location();
        let chi = cities::by_code("chi").unwrap().location();
        let proj = AzimuthalEquidistant::new(nyc);
        let a = GeoRegion::disk(proj, nyc, Distance::from_km(700.0));
        let b = GeoRegion::disk(proj, chi, Distance::from_km(700.0));
        let both = a.intersect(&b);
        assert!(!both.is_empty());
        // Pittsburgh sits between them and should be inside.
        assert!(both.contains(cities::by_code("pit").unwrap().location()));
        // Miami is far from both.
        assert!(!both.contains(cities::by_code("mia").unwrap().location()));
        // The centroid should be roughly midway, i.e. within a few hundred km
        // of Cleveland.
        let c = both.centroid().unwrap();
        assert!(great_circle_km(c, cities::by_code("cle").unwrap().location()) < 300.0);
    }

    #[test]
    fn area_in_miles_conversion() {
        let proj = proj_at(40.0, -75.0);
        let d = GeoRegion::disk(
            proj,
            GeoPoint::new(40.0, -75.0),
            Distance::from_miles(100.0),
        );
        let truth = std::f64::consts::PI * 100.0 * 100.0;
        assert!((d.area_mi2() - truth).abs() / truth < 0.01);
    }

    #[test]
    fn reprojection_preserves_membership_and_area() {
        let nyc = cities::by_code("nyc").unwrap().location();
        let sea = cities::by_code("sea").unwrap().location();
        let orig = GeoRegion::disk(
            AzimuthalEquidistant::new(nyc),
            nyc,
            Distance::from_km(500.0),
        );
        let moved = orig.reproject(AzimuthalEquidistant::new(sea));
        // The azimuthal projection stretches tangential distances ~7% at the
        // ~3900 km NYC-Seattle separation, so allow a generous area drift.
        let rel_area = (moved.area_km2() - orig.area_km2()).abs() / orig.area_km2();
        assert!(rel_area < 0.15, "area drift {rel_area}");
        for city in ["phl", "bos", "was", "pit"] {
            let p = cities::by_code(city).unwrap().location();
            assert_eq!(
                orig.contains(p),
                moved.contains(p),
                "membership changed for {city}"
            );
        }
        // Reprojecting onto the same centre is a no-op.
        let same = orig.reproject(AzimuthalEquidistant::new(nyc));
        assert_eq!(same.region().ring_count(), orig.region().ring_count());
    }

    #[test]
    fn world_region_covers_everything_relevant() {
        let proj = proj_at(40.0, -75.0);
        let world = GeoRegion::world(proj);
        for c in ["nyc", "lax", "lhr", "nrt", "syd", "gru"] {
            assert!(
                world.contains(cities::by_code(c).unwrap().location()),
                "{c} not in world"
            );
        }
    }

    #[test]
    fn landmass_region_membership() {
        let proj = proj_at(45.0, -95.0);
        let na = GeoRegion::from_landmass(proj, &octant_geo::landmass::NORTH_AMERICA);
        assert!(na.contains(cities::by_code("den").unwrap().location()));
        assert!(na.contains(cities::by_code("chi").unwrap().location()));
        assert!(!na.contains(cities::by_code("lhr").unwrap().location()));
        assert!(
            !na.contains(GeoPoint::new(35.0, -45.0)),
            "mid-Atlantic is not land"
        );
    }

    #[test]
    fn subtract_ocean_like_region() {
        let nyc = cities::by_code("nyc").unwrap().location();
        let proj = AzimuthalEquidistant::new(nyc);
        let disk = GeoRegion::disk(proj, nyc, Distance::from_km(500.0));
        let na = GeoRegion::from_landmass(proj, &octant_geo::landmass::NORTH_AMERICA);
        let on_land = disk.intersect(&na);
        assert!(
            on_land.area_km2() < disk.area_km2(),
            "the Atlantic part must be removed"
        );
        assert!(on_land.contains(cities::by_code("phl").unwrap().location()));
        assert!(
            !on_land.contains(GeoPoint::new(38.0, -68.0)),
            "open ocean excluded"
        );
    }

    #[test]
    fn sample_points_are_inside() {
        let nyc = cities::by_code("nyc").unwrap().location();
        let proj = AzimuthalEquidistant::new(nyc);
        let region = GeoRegion::annulus(
            proj,
            nyc,
            Distance::from_km(100.0),
            Distance::from_km(400.0),
        );
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for _ in 0..50 {
            let p = region.sample_point(&mut rng).unwrap();
            let d = great_circle_km(nyc, p);
            assert!(d > 95.0 && d < 410.0, "sample at {d} km");
        }
        assert!(GeoRegion::empty(nyc).sample_point(&mut rng).is_none());
    }

    #[test]
    fn distance_and_max_distance() {
        let nyc = cities::by_code("nyc").unwrap().location();
        let proj = AzimuthalEquidistant::new(nyc);
        let d = GeoRegion::disk(proj, nyc, Distance::from_km(100.0));
        assert_eq!(d.distance_to(nyc).km(), 0.0);
        let chi = cities::by_code("chi").unwrap().location();
        let dist = d.distance_to(chi).km();
        let direct = great_circle_km(nyc, chi);
        assert!(
            (dist - (direct - 100.0)).abs() < 30.0,
            "distance {dist} vs direct {direct}"
        );
        assert!(d.max_distance_from(nyc).km() <= 102.0);
        assert!(
            GeoRegion::empty(nyc).distance_to(chi).km() >= octant_geo::EARTH_CIRCUMFERENCE_KM - 1.0
        );
    }
}
