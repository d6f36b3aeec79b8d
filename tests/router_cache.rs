//! Pins the router-cache sharing win of `octant-service`:
//!
//! * localizing N targets behind R shared last-hop routers performs
//!   **exactly R** router sub-localizations per model epoch (the cache's
//!   miss counter), however many targets, requests, or repeat waves arrive;
//! * cached results are **bit-identical** to the uncached sequential
//!   `RouterLocalization::Recursive` path on a replay-stable dataset;
//! * a model refresh opens a new epoch: exactly R more sub-solves, and the
//!   retired epoch's entries are evicted.

use octant::{BatchGeolocator, Geolocator, Octant, OctantConfig, RouterLocalization};
use octant_bench::{service_campaign, BatchCampaign};
use octant_netsim::topology::NodeId;
use octant_netsim::ObservationProvider;
use octant_service::{GeolocationService, LocalizeOptions, RouterCache, ServiceConfig};
use std::collections::BTreeSet;

fn recursive_config() -> OctantConfig {
    OctantConfig::default().with_router_localization(RouterLocalization::Recursive)
}

/// A small serving campaign: targets co-sited behind shared metro access
/// routers (`service_campaign` enables the builder's sharing knob), small
/// enough for debug-mode test runs.
fn small_campaign() -> BatchCampaign {
    service_campaign(12, 2, 2, 42)
}

/// The number of distinct last-hop routers the `Recursive` mode will
/// sub-localize for these targets: for every (landmark, target) pair with a
/// usable RTT and a non-empty traceroute, the hop closest to the target.
/// This mirrors exactly the encounters `Octant::router_constraints` makes.
fn distinct_last_hop_routers(campaign: &BatchCampaign) -> BTreeSet<NodeId> {
    let mut routers = BTreeSet::new();
    for &target in &campaign.targets {
        for &lm in &campaign.landmarks {
            if campaign.dataset.ping(lm, target).min().is_none() {
                continue;
            }
            if let Some(last) = campaign.dataset.traceroute(lm, target).last() {
                routers.insert(last.node);
            }
        }
    }
    routers
}

#[test]
fn n_targets_behind_r_routers_cost_exactly_r_sub_localizations_per_epoch() {
    let campaign = small_campaign();
    let routers = distinct_last_hop_routers(&campaign);
    let r = routers.len();
    let n = campaign.targets.len();
    assert!(
        r < n,
        "the campaign must actually share routers (R = {r}, N = {n})"
    );

    let provider = campaign.dataset.clone().into_shared();
    // The (default-on) radius-class dilation cache is disabled: its entries
    // share the eviction counter this test asserts exact R-counts on.
    let service = GeolocationService::start(
        ServiceConfig::default()
            .with_octant(recursive_config())
            .with_cache(
                octant_service::RouterCacheConfig::default().with_dilation_radius_step_km(0.0),
            ),
        provider,
        &campaign.landmarks,
    );

    // Cold wave: every target, exactly R sub-solves.
    let cold = service.localize_blocking(&campaign.targets);
    assert_eq!(cold.len(), n);
    assert_eq!(
        service.cache().sub_localizations(),
        r as u64,
        "epoch 1 must perform exactly one sub-localization per shared router"
    );
    assert_eq!(service.cache().entries_for_epoch(1), r);

    // Repeat traffic: answered entirely from cache — counter unchanged. The
    // answer memo would absorb a plain repeat before it reaches the solver;
    // a profiled request bypasses the memo, so it reaches the router cache.
    let hits_before = service.cache().stats().hits;
    let repeat = service.localize_blocking_with_options(
        &campaign.targets[..1],
        LocalizeOptions::default().with_profiling(),
    );
    assert!(repeat[0].is_served());
    assert_eq!(service.cache().sub_localizations(), r as u64);
    assert!(service.cache().stats().hits > hits_before);

    // New epoch: exactly R more, and epoch 1 is retired.
    let epoch = service.refresh_model(&campaign.landmarks);
    assert_eq!(epoch, 2);
    service.localize_blocking(&campaign.targets);
    assert_eq!(
        service.cache().sub_localizations(),
        2 * r as u64,
        "each model epoch re-localizes each shared router exactly once"
    );
    assert_eq!(service.cache().entries_for_epoch(1), 0);
    assert_eq!(service.cache().entries_for_epoch(2), r);
    assert_eq!(service.cache().stats().evictions, r as u64);
    service.shutdown();
}

#[test]
fn cached_recursive_results_are_bit_identical_to_the_uncached_path() {
    let campaign = small_campaign();
    let provider = campaign.dataset.clone().into_shared();
    let octant = Octant::new(recursive_config());
    let batch = BatchGeolocator::new(recursive_config());
    let model = octant.prepare_landmarks(&provider, &campaign.landmarks);

    // Uncached reference: the sequential Recursive path.
    let uncached: Vec<_> = campaign
        .targets
        .iter()
        .map(|&t| octant.localize(&campaign.dataset, &campaign.landmarks, t))
        .collect();

    // Cached via the core seam directly (no service in the way). The
    // radius-class dilation cache (default-on) trades bit-identity for
    // shared dilations, so this bit-parity pin opts out with step 0.
    let cache = RouterCache::new(
        octant_service::RouterCacheConfig::default().with_dilation_radius_step_km(0.0),
    );
    let source = cache.source(1);
    let cached =
        batch.localize_batch_with_routers(&provider, &model, &campaign.targets, Some(&source));
    assert!(
        cache.sub_localizations() > 0,
        "the cache must have been used"
    );

    for ((&target, u), c) in campaign.targets.iter().zip(&uncached).zip(&cached) {
        assert_eq!(c.point, u.point, "point estimate diverged for {target:?}");
        assert_eq!(
            c.region.as_ref().map(|r| r.area_km2()),
            u.region.as_ref().map(|r| r.area_km2()),
            "region diverged for {target:?}"
        );
        assert_eq!(c.report, u.report, "solve report diverged for {target:?}");
        assert_eq!(c.target_height_ms, u.target_height_ms);
    }

    // And the full served path (queue + workers + registry) agrees too, on a
    // sample target (the service's own tests cover serving more broadly).
    let service = GeolocationService::start(
        ServiceConfig::default()
            .with_octant(recursive_config())
            .with_cache(
                octant_service::RouterCacheConfig::default().with_dilation_radius_step_km(0.0),
            ),
        provider,
        &campaign.landmarks,
    );
    let served = service.localize_blocking(&campaign.targets[..1]);
    assert_eq!(served[0].estimate.point, uncached[0].point);
    assert_eq!(served[0].estimate.report, uncached[0].report);
    service.shutdown();
}

#[test]
fn router_estimate_source_matches_the_inline_computation() {
    let campaign = small_campaign();
    let routers = distinct_last_hop_routers(&campaign);
    let octant = Octant::new(recursive_config());
    let model = octant.prepare_landmarks(&campaign.dataset, &campaign.landmarks);
    let cache = RouterCache::default();
    for &router in routers.iter().take(2) {
        let inline = octant.compute_router_estimate(&campaign.dataset, &model, router);
        let cached = cache.get_or_compute(1, router, || {
            octant.compute_router_estimate(&campaign.dataset, &model, router)
        });
        let replayed = cache.get_or_compute(1, router, || unreachable!("second lookup must hit"));
        assert_eq!(*cached, inline);
        assert_eq!(*replayed, inline);
    }
}

#[test]
fn dilation_cache_bounds_fresh_dilations_per_radius_class() {
    let campaign = small_campaign();
    let routers = distinct_last_hop_routers(&campaign);
    let r = routers.len();
    let n = campaign.targets.len();
    let provider = campaign.dataset.clone().into_shared();

    // A generous radius class (200 km) so co-sited targets — whose residual
    // radii differ by a few km — land in shared classes.
    let service = GeolocationService::start(
        ServiceConfig::default()
            .with_octant(recursive_config())
            .with_cache(
                octant_service::RouterCacheConfig::default().with_dilation_radius_step_km(200.0),
            ),
        provider,
        &campaign.landmarks,
    );

    // Cold wave: estimates exist, and the fresh-dilation counter is bounded
    // by distinct (router, class) pairs — far below the N*L dilations the
    // inline path performs.
    let cold = service.localize_blocking(&campaign.targets);
    assert_eq!(cold.len(), n);
    for s in &cold {
        assert!(s.estimate.point.is_some());
    }
    let stats = service.cache().stats();
    let fresh = service.cache().fresh_dilations();
    assert!(fresh > 0, "recursive serving must dilate router regions");
    assert!(
        stats.dilation_hits > 0,
        "co-sited targets must share radius classes (got {fresh} fresh, 0 hits)"
    );
    assert!(
        fresh <= (r as u64) * 8,
        "fresh dilations ({fresh}) must stay within a few classes per router (R = {r})"
    );
    assert_eq!(stats.dilation_entries as u64, fresh);

    // The banded-contour intermediate is shared across a router's radius
    // classes: one extraction per (epoch, router) with a region, never one
    // per class.
    assert!(
        stats.contour_bases > 0,
        "class dilations must flow through the shared contour base"
    );
    assert!(
        stats.contour_bases <= r as u64,
        "contour bases ({}) must be bounded by distinct routers (R = {r}), not classes ({fresh})",
        stats.contour_bases
    );
    assert_eq!(stats.contour_base_entries as u64, stats.contour_bases);

    // Repeat traffic: answered entirely from the dilation cache.
    service.localize_blocking(&campaign.targets);
    assert_eq!(
        service.cache().fresh_dilations(),
        fresh,
        "a repeat wave must not dilate anything anew"
    );

    // A model refresh opens a new epoch: the old epoch's dilations (and
    // contour bases) retire, and fresh traffic re-extracts.
    let bases_before = service.cache().stats().contour_bases;
    service.refresh_model(&campaign.landmarks);
    service.localize_blocking(&campaign.targets[..1]);
    assert!(service.cache().fresh_dilations() > fresh);
    assert!(service.cache().stats().contour_bases > bases_before);
    service.shutdown();
}

#[test]
fn class_rounded_dilations_stay_sound_and_close_to_exact() {
    use octant_geo::distance::great_circle_km;
    let campaign = small_campaign();
    let provider = campaign.dataset.clone().into_shared();

    // Exact reference: inline dilations (no dilation cache).
    let octant = Octant::new(recursive_config());
    let exact: Vec<_> = campaign
        .targets
        .iter()
        .map(|&t| octant.localize(&campaign.dataset, &campaign.landmarks, t))
        .collect();

    let service = GeolocationService::start(
        ServiceConfig::default()
            .with_octant(recursive_config())
            .with_cache(
                octant_service::RouterCacheConfig::default().with_dilation_radius_step_km(50.0),
            ),
        provider,
        &campaign.landmarks,
    );
    let rounded = service.localize_blocking(&campaign.targets);
    for (&target, (e, s)) in campaign.targets.iter().zip(exact.iter().zip(&rounded)) {
        let truth = campaign.dataset.true_location(target).unwrap();
        let exact_err = great_circle_km(e.point.unwrap(), truth);
        let rounded_err = great_circle_km(s.estimate.point.unwrap(), truth);
        // Rounding a positive constraint's radius up by < one class width
        // cannot blow the answer up: the class-rounded error stays within
        // the exact error plus a class-scale allowance.
        assert!(
            rounded_err <= exact_err + 150.0,
            "{target:?}: rounded {rounded_err:.0} km vs exact {exact_err:.0} km"
        );
    }
    service.shutdown();
}
