//! Pins the streaming-ingest contract end to end:
//!
//! * a store fed the same records **shuffled and re-batched arbitrarily**
//!   converges to the same merged state as the frozen capture — models
//!   prepared from either produce **bit-identical** estimates;
//! * [`Octant::prepare_landmarks_incremental`] after touching K landmarks
//!   matches a from-scratch [`Octant::prepare_landmarks`] over the same
//!   provider state, bit for bit, while re-measuring only the changed
//!   pairs — and the untouched-store case reuses the previous model
//!   wholesale;
//! * the serving tier's per-target-prefix **answer memo** replays
//!   bit-identical estimates on repeat traffic and is invalidated by a
//!   model-epoch refresh.
//!
//! [`Octant::prepare_landmarks`]: octant::Octant::prepare_landmarks
//! [`Octant::prepare_landmarks_incremental`]: octant::Octant::prepare_landmarks_incremental

use octant::{BatchGeolocator, LandmarkModel, Octant, OctantConfig};
use octant_bench::{service_campaign, BatchCampaign};
use octant_geo::units::Latency;
use octant_netsim::observation::PingObservation;
use octant_netsim::{
    MeasurementDataset, ObservationProvider, ObservationRecord, ObservationStore, StoreConfig,
};
use octant_service::{ServiceConfig, ShardedService};
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn campaign() -> BatchCampaign {
    service_campaign(10, 2, 2, 71)
}

/// Bit-identity oracle for two landmark models over one provider state:
/// localize the same targets against both and require byte-equal estimates
/// (the model's fields are crate-private; its estimates are its contract).
fn assert_models_equivalent(
    provider: &MeasurementDataset,
    a: &LandmarkModel,
    b: &LandmarkModel,
    targets: &[octant_netsim::NodeId],
    context: &str,
) {
    assert_eq!(a.landmark_ids(), b.landmark_ids(), "{context}: roster");
    let geo = BatchGeolocator::new(OctantConfig::default());
    let ea = geo.localize_batch_with_model(provider, a, targets);
    let eb = geo.localize_batch_with_model(provider, b, targets);
    for (x, y) in ea.iter().zip(&eb) {
        assert_eq!(x.point, y.point, "{context}: estimate point");
        assert_eq!(x.report, y.report, "{context}: estimate report");
    }
}

#[test]
fn shuffled_batched_ingest_prepares_a_bit_identical_model() {
    let campaign = campaign();
    let frozen = &campaign.dataset;

    // Stream the capture's records in a scrambled order, in odd-sized
    // batches.
    let mut records = ObservationRecord::from_dataset(frozen, 0);
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    records.shuffle(&mut rng);
    let store = ObservationStore::new();
    for chunk in records.chunks(41) {
        store.ingest(chunk.to_vec());
    }

    let octant = Octant::new(OctantConfig::default());
    let from_frozen = octant.prepare_landmarks(frozen, &campaign.landmarks);
    // Once directly against the store, once against its snapshot.
    let from_store = octant.prepare_landmarks(&store, &campaign.landmarks);
    let snapshot = store.snapshot_dataset();
    let from_snapshot = octant.prepare_landmarks(&snapshot, &campaign.landmarks);

    assert_models_equivalent(
        frozen,
        &from_frozen,
        &from_store,
        &campaign.targets,
        "store",
    );
    assert_models_equivalent(
        frozen,
        &from_frozen,
        &from_snapshot,
        &campaign.targets,
        "snapshot",
    );
}

#[test]
fn incremental_recalibration_matches_a_from_scratch_prepare() {
    let campaign = campaign();
    let store = ObservationStore::from_dataset(StoreConfig::default(), &campaign.dataset);
    let octant = Octant::new(OctantConfig::default());
    let baseline = octant.prepare_landmarks(&store, &campaign.landmarks);
    let v0 = store.version();

    // Nothing changed: the previous model must come back wholesale.
    let (unchanged, report) =
        octant.prepare_landmarks_incremental(&store, &campaign.landmarks, &baseline, &[]);
    assert!(!report.full_rebuild);
    assert_eq!(report.refreshed_pairs, 0);
    assert_eq!(report.changed_pairs, 0);
    assert!(report.heights_reused);
    assert_eq!(report.calibrations_rebuilt, 0);
    let snap = store.snapshot_dataset();
    assert_models_equivalent(&snap, &baseline, &unchanged, &campaign.targets, "no-op");

    // Two landmarks re-probe their peers and find strictly lower minima,
    // stamped at a later seq so they win the merge.
    let touched: Vec<_> = campaign.landmarks[..2].to_vec();
    let mut updates = Vec::new();
    for &lm in &touched {
        for &other in &campaign.landmarks {
            if other == lm {
                continue;
            }
            if let Some(min) = store.ping(lm, other).min() {
                updates.push(ObservationRecord::Ping {
                    from: lm,
                    to: other,
                    observation: PingObservation::new(vec![Latency::from_ms(min.ms() * 0.9)]),
                    seq: 1,
                });
            }
        }
    }
    store.ingest(updates);
    let changed = store.changed_since(v0);
    assert_eq!(changed.len(), touched.len(), "only the probers changed");
    for lm in &touched {
        assert!(changed.contains(lm), "touched landmark reported changed");
    }

    let (incremental, report) =
        octant.prepare_landmarks_incremental(&store, &campaign.landmarks, &baseline, &changed);
    let scratch = octant.prepare_landmarks(&store, &campaign.landmarks);
    let snap = store.snapshot_dataset();
    assert_models_equivalent(&snap, &scratch, &incremental, &campaign.targets, "delta");

    let total_pairs = baseline.landmark_count() * (baseline.landmark_count() - 1);
    assert!(!report.full_rebuild);
    assert!(report.changed_pairs > 0, "the lowered minima were noticed");
    assert!(
        report.refreshed_pairs < total_pairs,
        "only pairs with a changed endpoint were re-measured \
         ({} of {total_pairs})",
        report.refreshed_pairs,
    );
    assert_eq!(report.refreshed_pairs + report.reused_pairs, total_pairs);
}

#[test]
fn answer_memo_replays_bit_identical_estimates_until_epoch_refresh() {
    let campaign = campaign();
    let provider = campaign.dataset.clone().into_shared();
    let service = ShardedService::start(
        ServiceConfig::default().with_octant(OctantConfig::default()),
        provider,
        &campaign.landmarks,
    );

    let first = service.localize_blocking(&campaign.targets);
    let cold = service.stats().answers;
    assert_eq!(cold.hits, 0, "cold traffic cannot hit");
    assert_eq!(cold.insertions as usize, campaign.targets.len());

    // Repeat traffic replays the memo: every target hits (no misses, so no
    // target reached the solver) and estimates are bit-identical.
    let second = service.localize_blocking(&campaign.targets);
    let warm = service.stats().answers;
    assert_eq!(warm.hits as usize, campaign.targets.len());
    assert_eq!(warm.misses, cold.misses, "warm traffic never misses");
    assert_eq!(warm.insertions, cold.insertions);
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a.target, b.target);
        assert_eq!(a.estimate.point, b.estimate.point, "memo is bit-identical");
        assert_eq!(a.estimate.report, b.estimate.report);
    }

    // An epoch refresh invalidates the memo: same traffic misses again (and
    // re-solves), then converges to the same answers on the unchanged data.
    let epoch = service.refresh_model(&campaign.landmarks);
    assert_eq!(epoch, 2);
    let third = service.localize_blocking(&campaign.targets);
    let refreshed = service.stats().answers;
    assert_eq!(
        refreshed.hits, warm.hits,
        "post-refresh traffic must not hit stale epoch-1 entries"
    );
    assert_eq!(
        refreshed.misses as usize,
        warm.misses as usize + campaign.targets.len()
    );
    for (a, b) in first.iter().zip(&third) {
        assert_eq!(a.estimate.point, b.estimate.point);
        assert_eq!(a.estimate.report, b.estimate.report);
    }
    service.shutdown();
}
