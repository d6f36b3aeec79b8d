//! Regression test for the batch engine's shared calibration cache.
//!
//! The entire point of `BatchGeolocator` is that the landmark-side state is
//! computed once per batch: exactly one `Calibration::from_samples` per
//! landmark plus one pooled calibration, *independent of the number of
//! targets*. The sequential loop pays that cost once per target. This test
//! pins both facts through the process-wide build counter, so a future
//! refactor that silently reintroduces per-target calibration will fail
//! loudly.
//!
//! `Recursive` router localization keeps the count: a router sub-solve
//! reads the batch's model instead of preparing the landmarks again,
//! inline and through the service's `RouterCache` alike.
//!
//! Kept in its own integration-test binary: the counter is process-wide,
//! so its tests take turns on one lock and no other test perturbs the
//! deltas.

use octant::{calibration, BatchGeolocator, Geolocator, Octant, OctantConfig, RouterLocalization};
use octant_bench::{batch_campaign, service_campaign};
use octant_service::{RouterCache, RouterCacheConfig};
use std::sync::{Mutex, MutexGuard};

/// Serializes the tests of this binary around the process-wide counter.
fn counter_turn() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[test]
fn batch_builds_the_calibrations_once_regardless_of_target_count() {
    let _turn = counter_turn();
    let campaign = batch_campaign(10, 40, 19);
    let landmark_count = campaign.landmarks.len() as u64;
    let batch = BatchGeolocator::new(OctantConfig::default());

    // Batch over a small prefix of the targets…
    let before_small = calibration::build_count();
    let small = batch.localize_batch(
        &campaign.dataset,
        &campaign.landmarks,
        &campaign.targets[..10],
    );
    let small_builds = calibration::build_count() - before_small;

    // …and over the full target set: the calibration work must not grow.
    let before_full = calibration::build_count();
    let full = batch.localize_batch(&campaign.dataset, &campaign.landmarks, &campaign.targets);
    let full_builds = calibration::build_count() - before_full;

    assert_eq!(small.len(), 10);
    assert_eq!(full.len(), campaign.targets.len());
    assert_eq!(
        small_builds,
        landmark_count + 1,
        "a batch must build exactly one calibration per landmark plus the pooled one"
    );
    assert_eq!(
        full_builds, small_builds,
        "calibration builds must be independent of the number of targets"
    );

    // The sequential loop, by contrast, rebuilds the model per target.
    let octant = Octant::new(OctantConfig::default());
    let before_seq = calibration::build_count();
    for &target in &campaign.targets[..10] {
        octant.localize(&campaign.dataset, &campaign.landmarks, target);
    }
    let seq_builds = calibration::build_count() - before_seq;
    assert_eq!(
        seq_builds,
        10 * (landmark_count + 1),
        "the sequential loop pays the calibration cost once per target"
    );
}

#[test]
fn recursive_batch_builds_the_calibrations_once() {
    let _turn = counter_turn();
    // Targets co-sited behind shared access routers, so sub-solves repeat.
    let campaign = service_campaign(12, 2, 2, 42);
    let landmark_count = campaign.landmarks.len() as u64;
    let batch = BatchGeolocator::new(
        OctantConfig::default().with_router_localization(RouterLocalization::Recursive),
    );

    // Inline: every router encounter runs its sub-solve in place.
    let before = calibration::build_count();
    let inline = batch.localize_batch(&campaign.dataset, &campaign.landmarks, &campaign.targets);
    assert_eq!(
        calibration::build_count() - before,
        landmark_count + 1,
        "inline router sub-solves must reuse the batch's calibrations"
    );

    // Through the router cache, without radius classes so the answers
    // stay bit-identical to the inline ones.
    let cache = RouterCache::new(RouterCacheConfig::default().with_dilation_radius_step_km(0.0));
    let before = calibration::build_count();
    let model = batch
        .octant()
        .prepare_landmarks(&campaign.dataset, &campaign.landmarks);
    let cached = batch.localize_batch_with_routers(
        &campaign.dataset,
        &model,
        &campaign.targets,
        Some(&cache.source(1)),
    );
    assert_eq!(
        calibration::build_count() - before,
        landmark_count + 1,
        "cached router sub-solves must reuse the batch's calibrations"
    );
    assert!(cache.sub_localizations() > 0, "no router was sub-solved");
    for (a, b) in inline.iter().zip(&cached) {
        assert_eq!(a.point, b.point);
        assert_eq!(a.report, b.report);
    }
}
