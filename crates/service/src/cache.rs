//! The shared router sub-localization cache.
//!
//! `RouterLocalization::Recursive` (§2.3 of the paper) localizes each
//! last-hop router with a full Octant sub-solve. The sub-solve depends only
//! on the landmark model and the router — never on the target — yet the
//! batch engine used to re-run it for every target that routed through the
//! router. [`RouterCache`] memoizes those solves under a `(model epoch,
//! router)` key, so a serving workload of `N` targets behind `R` shared
//! routers performs exactly `R` sub-localizations per model epoch, however
//! many requests arrive, however they are batched, and however many shards
//! serve them: the sharded service keeps one `RouterCache` for all shards.
//!
//! Each level is an epoch-keyed memo whose entries are `OnceLock`s: when
//! several worker threads miss the same key simultaneously, exactly one of
//! them runs the sub-solve while the others block on the result. That
//! in-flight deduplication is what makes the "exactly `R`" property hold
//! under concurrent serving, not just statistically.

use crate::memo::EpochMemo;
use octant::{Octant, RouterEstimate, RouterEstimateSource};
use octant_geo::units::Distance;
use octant_netsim::observation::ObservationProvider;
use octant_netsim::topology::NodeId;
use octant_region::GeoRegion;
use std::sync::Arc;

/// Soft entry cap of each cache level. Entries of retired epochs are
/// evicted past it; entries of the epoch being filled never are, so the
/// exactly-once property within an epoch is unconditional.
const LEVEL_CAP: usize = 4096;

/// Configuration of a [`RouterCache`].
///
/// `#[non_exhaustive]`: construct via [`RouterCacheConfig::default`] and
/// the builder-style `with_*` setters.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct RouterCacheConfig {
    /// Radius-class width (km) of the shared router-**dilation** cache.
    ///
    /// The §2.3 secondary-landmark constraint dilates a router's region by
    /// the calibrated residual radius — tens of milliseconds of CPU per
    /// fresh 100+-ring region, and the radius differs slightly for every
    /// `(landmark, target)` pair, so the inline path recomputes it
    /// constantly. With a positive step, dilation radii are rounded **up**
    /// to the next class boundary and the dilated region is cached per
    /// `(epoch, router, radius class)`: co-sited targets share classes, so
    /// a serving workload pays for each class once. Rounding up only ever
    /// *loosens* a positive constraint (soundness is preserved), but the
    /// results are no longer bit-identical to the step-`0.0` inline path.
    ///
    /// **Default: 25.0 km.** The accuracy envelope was characterized on
    /// the pipeline campaign (`octant-bench`'s `service` binary, dilation
    /// step-sweep stage). Point estimates *do* move — typically tens of
    /// km — but almost all of that shift comes from the cache's shared
    /// contour-simplification seam and is nearly independent of the step
    /// (step 1 km and step 25 km move points about equally). What the
    /// characterization gates on is **error against ground truth**: across
    /// the step sweep the median and p90 error stay within a few percent
    /// of the exact inline path's — inside run-to-run noise and far below
    /// the intrinsic error scale the paper reports. Set `0.0` (via
    /// [`RouterCacheConfig::with_dilation_radius_step_km`]) to opt out and
    /// recover the exact per-radius inline float stream.
    pub dilation_radius_step_km: f64,
}

impl Default for RouterCacheConfig {
    fn default() -> Self {
        RouterCacheConfig {
            dilation_radius_step_km: 25.0,
        }
    }
}

octant::config_setters!(RouterCacheConfig {
    /// Sets the dilation radius-class width (km); `0.0` disables the
    /// dilation cache.
    with_dilation_radius_step_km: dilation_radius_step_km: f64,
});

/// Counter snapshot of a [`RouterCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RouterCacheStats {
    /// Lookups answered from a completed entry (including lookups that
    /// waited on another thread's in-flight computation).
    pub hits: u64,
    /// Lookups that ran the router sub-solve — one per distinct
    /// `(epoch, router)` key ever inserted.
    pub misses: u64,
    /// Entries removed by epoch retirement or the capacity cap, across
    /// all three cache levels (estimates, contour bases and dilations).
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Dilation-cache lookups answered from a cached region.
    pub dilation_hits: u64,
    /// Dilation-cache lookups that ran a fresh dilation — one per distinct
    /// `(epoch, router, radius class)` key ever inserted.
    pub dilation_misses: u64,
    /// Dilated regions currently resident.
    pub dilation_entries: usize,
    /// Fresh contour-base extractions — one per distinct `(epoch, router)`
    /// whose dilation classes share the banded-contour intermediate.
    pub contour_bases: u64,
    /// Contour bases currently resident.
    pub contour_base_entries: usize,
}

impl RouterCacheStats {
    /// Fraction of lookups served without a sub-solve (0 when no lookups).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The banded intermediate every dilation class of one router shares: the
/// router's region together with its merged outer contours (planar rings
/// in the region's own projection). Extracting contours walks the banded
/// decomposition once; each radius class then only pays a linear
/// simplify-and-offset over genuine boundary edges instead of
/// re-simplifying and re-offsetting the full trapezoid soup
/// (see `octant::piecewise::class_dilated_router_region`).
#[derive(Debug)]
struct ContourBase {
    region: GeoRegion,
    contours: Vec<octant_region::Ring>,
}

/// A thread-safe, epoch-aware cache of recursive router location estimates,
/// with a second level caching the §2.3 dilations of those estimates per
/// radius class (see [`RouterCacheConfig::dilation_radius_step_km`]) and a
/// third holding the contour base those classes share.
///
/// Counters are [`octant_telemetry::Counter`] handles registered under
/// `router_cache.*` in [`octant_telemetry::MetricsRegistry::global`]:
/// [`RouterCache::stats`] reads this instance's own handles (exact
/// per-cache counts), while the registry sums every live cache — one bump,
/// two views.
#[derive(Debug)]
pub struct RouterCache {
    config: RouterCacheConfig,
    estimates: EpochMemo<NodeId, RouterEstimate>,
    contour_bases: EpochMemo<NodeId, ContourBase>,
    dilations: EpochMemo<(NodeId, u32), GeoRegion>,
}

impl Default for RouterCache {
    fn default() -> Self {
        RouterCache::new(RouterCacheConfig::default())
    }
}

impl RouterCache {
    /// Creates a cache with the given configuration.
    pub fn new(config: RouterCacheConfig) -> Self {
        let evictions = "router_cache.evictions";
        RouterCache {
            config,
            estimates: EpochMemo::new(
                LEVEL_CAP,
                "router_cache.hits",
                "router_cache.misses",
                evictions,
            ),
            contour_bases: EpochMemo::new(
                LEVEL_CAP,
                "router_cache.contour_base_hits",
                "router_cache.contour_bases",
                evictions,
            ),
            dilations: EpochMemo::new(
                LEVEL_CAP,
                "router_cache.dilation_hits",
                "router_cache.dilation_misses",
                evictions,
            ),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> RouterCacheConfig {
        self.config
    }

    /// Returns the estimate for `(epoch, router)`, running `compute` exactly
    /// once per key across all threads. Concurrent callers that lose the
    /// insertion race block until the winner's computation completes and
    /// then observe the identical value (counted as hits — their sub-solve
    /// was shared, not skipped). Hits hand back a shared `Arc`, not a deep
    /// clone of the router's region polygons.
    pub fn get_or_compute(
        &self,
        epoch: u64,
        router: NodeId,
        compute: impl FnOnce() -> RouterEstimate,
    ) -> Arc<RouterEstimate> {
        self.estimates.get_or_compute(epoch, router, compute)
    }

    /// Evicts every entry (estimates, contour bases **and** cached
    /// dilations) whose epoch is strictly below `min_epoch` (model-refresh
    /// maintenance). All three count towards the eviction counter; the
    /// return value is the number of estimate entries removed.
    pub fn retire_epochs_before(&self, min_epoch: u64) -> usize {
        self.dilations.retire_epochs_before(min_epoch);
        self.contour_bases.retire_epochs_before(min_epoch);
        self.estimates.retire_epochs_before(min_epoch)
    }

    /// Total router sub-solves this cache has performed — the quantity the
    /// cache exists to minimize. Equal to the number of distinct
    /// `(epoch, router)` keys ever computed (the miss counter).
    pub fn sub_localizations(&self) -> u64 {
        self.estimates.misses.get()
    }

    /// Total fresh §2.3 region dilations performed by the radius-class
    /// dilation cache — one per distinct `(epoch, router, radius class)`
    /// key ever computed. Always 0 while the dilation cache is disabled.
    pub fn fresh_dilations(&self) -> u64 {
        self.dilations.misses.get()
    }

    /// Number of resident entries belonging to `epoch`.
    pub fn entries_for_epoch(&self, epoch: u64) -> usize {
        self.estimates.entries_for_epoch(epoch)
    }

    /// Number of resident entries across all epochs.
    pub fn len(&self) -> usize {
        self.estimates.len()
    }

    /// `true` when no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A counter snapshot.
    pub fn stats(&self) -> RouterCacheStats {
        RouterCacheStats {
            hits: self.estimates.hits.get(),
            misses: self.estimates.misses.get(),
            evictions: self.estimates.evictions.get()
                + self.contour_bases.evictions.get()
                + self.dilations.evictions.get(),
            entries: self.estimates.len(),
            dilation_hits: self.dilations.hits.get(),
            dilation_misses: self.dilations.misses.get(),
            dilation_entries: self.dilations.len(),
            contour_bases: self.contour_bases.misses.get(),
            contour_base_entries: self.contour_bases.len(),
        }
    }

    /// Binds the cache to one model epoch, yielding the
    /// [`RouterEstimateSource`] the core framework consults during a solve.
    pub fn source(&self, epoch: u64) -> EpochRouterSource<'_> {
        EpochRouterSource { cache: self, epoch }
    }
}

/// A [`RouterCache`] bound to one model epoch — the adapter between the
/// epoch-agnostic [`RouterEstimateSource`] seam in `octant-core` and the
/// epoch-keyed cache. On a miss it delegates to
/// [`Octant::compute_router_estimate`], the uncached reference computation,
/// so cached solves are bit-identical to inline ones.
#[derive(Debug, Clone, Copy)]
pub struct EpochRouterSource<'a> {
    cache: &'a RouterCache,
    epoch: u64,
}

impl EpochRouterSource<'_> {
    /// The epoch this source reads and fills.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

impl RouterEstimateSource for EpochRouterSource<'_> {
    fn router_estimate(
        &self,
        octant: &Octant,
        provider: &dyn ObservationProvider,
        model: &octant::LandmarkModel,
        router: NodeId,
    ) -> Arc<RouterEstimate> {
        self.cache.get_or_compute(self.epoch, router, || {
            octant.compute_router_estimate(provider, model, router)
        })
    }

    /// The radius-class dilation cache, on by default at a 25 km step: with
    /// a positive `dilation_radius_step_km`, the requested radius is
    /// rounded **up** to the next class boundary and the dilation of the
    /// router's region — the dominant §2.3 cost — is computed once per
    /// `(epoch, router, class)` and shared. All classes of one router
    /// additionally share a **banded-contour intermediate** (the region's
    /// merged outer contours, extracted once per `(epoch, router)`), so a
    /// fresh class pays a linear offset over genuine boundary edges
    /// instead of re-simplifying and re-offsetting the full trapezoid
    /// soup. Constraints get (slightly) looser, never tighter. Setting the
    /// step to 0 disables the cache (`None`), which keeps solves
    /// bit-identical to the inline path (see
    /// [`RouterCacheConfig::dilation_radius_step_km`]).
    fn dilated_region(
        &self,
        router: NodeId,
        estimate: &RouterEstimate,
        radius: Distance,
    ) -> Option<Arc<GeoRegion>> {
        let step = self.cache.config.dilation_radius_step_km;
        if step <= 0.0 || !radius.km().is_finite() {
            return None;
        }
        let region = estimate.region.as_ref()?;
        let class = (radius.km() / step).ceil().max(1.0) as u32;
        let class_radius = Distance::from_km(class as f64 * step);
        Some(
            self.cache
                .dilations
                .get_or_compute(self.epoch, (router, class), || {
                    let base = self
                        .cache
                        .contour_bases
                        .get_or_compute(self.epoch, router, || ContourBase {
                            region: region.clone(),
                            contours: octant::piecewise::router_region_contours(region),
                        });
                    octant::piecewise::class_dilated_router_region(
                        &base.region,
                        &base.contours,
                        class_radius,
                    )
                }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn octant_geo_point(lat: f64) -> octant_geo::GeoPoint {
        octant_geo::GeoPoint::new(lat, 0.0)
    }

    #[test]
    fn compute_runs_once_per_key() {
        let cache = RouterCache::default();
        let calls = AtomicUsize::new(0);
        for _ in 0..5 {
            cache.get_or_compute(1, NodeId(7), || {
                calls.fetch_add(1, Ordering::SeqCst);
                RouterEstimate::default()
            });
        }
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 4);
        assert_eq!(stats.entries, 1);
        assert!((stats.hit_rate() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn distinct_epochs_are_distinct_keys() {
        let cache = RouterCache::default();
        cache.get_or_compute(1, NodeId(7), RouterEstimate::default);
        cache.get_or_compute(2, NodeId(7), RouterEstimate::default);
        assert_eq!(cache.sub_localizations(), 2);
        assert_eq!(cache.entries_for_epoch(1), 1);
        assert_eq!(cache.entries_for_epoch(2), 1);
    }

    #[test]
    fn retire_evicts_old_epochs_only() {
        let cache = RouterCache::default();
        for id in 0..4 {
            cache.get_or_compute(1, NodeId(id), RouterEstimate::default);
        }
        for id in 0..3 {
            cache.get_or_compute(2, NodeId(id), RouterEstimate::default);
        }
        let removed = cache.retire_epochs_before(2);
        assert_eq!(removed, 4);
        assert_eq!(cache.entries_for_epoch(1), 0);
        assert_eq!(cache.entries_for_epoch(2), 3);
        assert_eq!(cache.stats().evictions, 4);
    }

    #[test]
    fn capacity_cap_spares_the_current_epoch() {
        let cache = RouterCache::default();
        for id in 0..LEVEL_CAP as u32 {
            cache.get_or_compute(1, NodeId(id), RouterEstimate::default);
        }
        // The first epoch-2 insert at the cap evicts the retired epoch 1;
        // epoch-2 entries are never touched, even past the cap.
        for id in 0..LEVEL_CAP as u32 + 2 {
            cache.get_or_compute(2, NodeId(id), RouterEstimate::default);
        }
        assert_eq!(cache.entries_for_epoch(1), 0);
        assert_eq!(cache.entries_for_epoch(2), LEVEL_CAP + 2);
        assert_eq!(cache.stats().evictions, LEVEL_CAP as u64);
        assert_eq!(cache.sub_localizations(), 2 * LEVEL_CAP as u64 + 2);
    }

    #[test]
    fn dilation_cache_is_on_by_default_and_rounds_classes_up() {
        use octant_geo::projection::AzimuthalEquidistant;
        let proj = AzimuthalEquidistant::new(octant_geo_point(40.0));
        let region = GeoRegion::disk(proj, octant_geo_point(40.0), Distance::from_km(50.0));
        let estimate = RouterEstimate {
            region: Some(region),
            point: None,
        };

        // Characterized default: a positive step, so the hook serves
        // class-rounded dilations out of the box.
        assert_eq!(RouterCacheConfig::default().dilation_radius_step_km, 25.0);
        let on = RouterCache::default();
        assert!(on
            .source(1)
            .dilated_region(NodeId(1), &estimate, Distance::from_km(300.0))
            .is_some());
        assert_eq!(on.fresh_dilations(), 1);

        // Step 0 opts out: the hook declines and the framework dilates
        // inline, bit-identical to the uncached float stream.
        let off = RouterCache::new(RouterCacheConfig::default().with_dilation_radius_step_km(0.0));
        assert!(off
            .source(1)
            .dilated_region(NodeId(1), &estimate, Distance::from_km(300.0))
            .is_none());
        assert_eq!(off.fresh_dilations(), 0);

        // Step 50 km: radii 260 and 290 share class 6 (300 km), radius 301
        // opens class 7.
        let cache =
            RouterCache::new(RouterCacheConfig::default().with_dilation_radius_step_km(50.0));
        let source = cache.source(1);
        let a = source
            .dilated_region(NodeId(1), &estimate, Distance::from_km(260.0))
            .unwrap();
        let b = source
            .dilated_region(NodeId(1), &estimate, Distance::from_km(290.0))
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same class must share one dilation");
        assert_eq!(cache.fresh_dilations(), 1);
        assert_eq!(cache.stats().dilation_hits, 1);
        let c = source
            .dilated_region(NodeId(1), &estimate, Distance::from_km(301.0))
            .unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.fresh_dilations(), 2);
        // The class-rounded dilation is a superset of the exact one:
        // rounding up only loosens the positive constraint.
        let exact = estimate
            .region
            .as_ref()
            .unwrap()
            .simplify_to_budget(
                octant::piecewise::router_region_budget_tolerance(Distance::from_km(260.0)),
                octant::piecewise::ROUTER_REGION_VERTEX_BUDGET,
            )
            .dilate(Distance::from_km(260.0));
        assert!(a.area_km2() >= exact.area_km2());
        // Retirement clears dilations along with estimates.
        cache.retire_epochs_before(2);
        assert_eq!(cache.stats().dilation_entries, 0);
    }

    #[test]
    fn cached_value_is_replayed_verbatim() {
        let cache = RouterCache::default();
        let original = RouterEstimate {
            region: None,
            point: Some(octant_geo_point(42.0)),
        };
        let first = cache.get_or_compute(1, NodeId(9), || original.clone());
        let second = cache.get_or_compute(1, NodeId(9), || unreachable!("must be cached"));
        assert_eq!(*first, original);
        assert_eq!(*second, original);
        // A hit is a pointer bump, not a deep copy of the estimate.
        assert!(Arc::ptr_eq(&first, &second));
    }
}
