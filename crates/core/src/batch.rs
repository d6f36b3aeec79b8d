//! Parallel batch geolocalization.
//!
//! The sequential [`Octant::localize`] entry point rebuilds the entire
//! landmark-side state — inter-landmark RTT collection, the §2.2 height
//! least-squares solve, and one §2.1 convex-hull [`Calibration`] per
//! landmark — for *every* target, even though none of it depends on the
//! target. For a production service localizing many hosts against one
//! landmark deployment that is the dominant waste: with `L` landmarks and
//! `N` targets, the landmark model costs `O(L²)` measurements and `L + 1`
//! hull builds, paid `N` times instead of once.
//!
//! [`BatchGeolocator`] fixes both axes:
//!
//! * **Shared landmark model** — [`Octant::prepare_landmarks`] captures the
//!   target-independent state once in a [`LandmarkModel`]; every target in
//!   the batch reuses it (the cache-regression test in
//!   `tests/batch_cache.rs` pins the "exactly `L + 1` hull builds per
//!   batch" property — which holds when no target is itself a landmark;
//!   such a target takes the leave-one-out path, which prepares a model
//!   excluding it). `Recursive` router sub-solves reuse the batch's model
//!   too.
//! * **Parallel fan-out** — targets are localized on a rayon parallel
//!   iterator with worker-local [`TargetScratch`] buffers (`map_init`), so
//!   per-target allocations are amortized across each worker's whole chunk.
//!
//! ## Exactness
//!
//! Against a *replay-stable* provider — one that answers the same query with
//! the same observation regardless of call order, like
//! [`octant_netsim::MeasurementDataset`] — `localize_batch` produces
//! estimates **bit-identical** to calling [`Octant::localize`] in a loop:
//! both paths run the same code over the same model (the sequential path is
//! itself implemented as "prepare, then localize against the model"). A
//! *live* [`octant_netsim::Prober`] draws probe jitter from one seeded
//! stream, so there the measurement draws themselves depend on call order —
//! exactly as two real measurement campaigns differ — and no two evaluation
//! orders agree, batched or not. The paper's methodology (and this repo's
//! harness) therefore always captures a dataset first.

use crate::calibration::Calibration;
use crate::constraint::Constraint;
use crate::framework::{Geolocator, LocationEstimate, Octant, OctantConfig, RouterEstimateSource};
use crate::heights::{Heights, PairMatrix};
use octant_geo::point::GeoPoint;
use octant_geo::units::Latency;
use octant_netsim::observation::ObservationProvider;
use octant_netsim::topology::NodeId;
use rayon::prelude::*;

/// The target-independent half of an Octant solve, computed once per
/// landmark set by [`Octant::prepare_landmarks`] and shared by every target
/// localized against it.
#[derive(Debug, Clone)]
pub struct LandmarkModel {
    /// Landmarks with a usable advertised location, in input order.
    pub(crate) lm_ids: Vec<NodeId>,
    /// Advertised positions, parallel to `lm_ids`.
    pub(crate) lm_pos: Vec<GeoPoint>,
    /// Per-landmark queuing delays solved from the inter-landmark RTTs.
    pub(crate) heights: Heights,
    /// Per-landmark latency→distance calibrations, parallel to `lm_ids`.
    pub(crate) calibrations: Vec<Calibration>,
    /// Calibration pooled over every landmark pair (used for router
    /// constraints, whose "landmark" is not in the calibrated set).
    pub(crate) global_calibration: Calibration,
    /// Minimum RTT observed for each ordered inter-landmark pair, indexed
    /// like `lm_ids` (`None` on the diagonal and for unmeasured pairs).
    /// Retained so an incremental re-prepare
    /// ([`Octant::prepare_landmarks_incremental`]) can reuse the
    /// measurements of unchanged pairs without re-querying the provider.
    pub(crate) inter_rtts: PairMatrix<Option<Latency>>,
    /// Landmarks that were supplied but dropped because they advertised no
    /// location (diagnosable via [`LandmarkModel::dropped_landmarks`] and
    /// every estimate's provenance report).
    pub(crate) dropped: Vec<NodeId>,
}

impl LandmarkModel {
    /// Number of usable landmarks in the model.
    pub fn landmark_count(&self) -> usize {
        self.lm_ids.len()
    }

    /// The landmark ids the model covers, in input order.
    pub fn landmark_ids(&self) -> &[NodeId] {
        &self.lm_ids
    }

    /// The solved landmark heights (§2.2).
    pub fn heights(&self) -> &Heights {
        &self.heights
    }

    /// The calibration of landmark `i` (§2.1).
    pub fn calibration(&self, i: usize) -> Option<&Calibration> {
        self.calibrations.get(i)
    }

    /// The calibration pooled across all landmark pairs.
    pub fn global_calibration(&self) -> &Calibration {
        &self.global_calibration
    }

    /// `true` when `id` is one of the model's landmarks (such targets need
    /// the leave-one-out slow path: their own measurements must not
    /// calibrate their own solve).
    pub fn contains_landmark(&self, id: NodeId) -> bool {
        self.lm_ids.contains(&id)
    }

    /// Landmarks the preparation dropped because the provider advertised no
    /// location for them, in input order. A non-empty list means the model
    /// covers fewer landmarks than the caller supplied — the classic
    /// partial-coverage-dataset surprise, now visible instead of silent.
    pub fn dropped_landmarks(&self) -> &[NodeId] {
        &self.dropped
    }
}

/// Reusable per-worker buffers for one target solve. `localize_batch` hands
/// one instance to each worker thread (`map_init`), so the buffers are
/// allocated once per worker and reused across all of that worker's
/// targets; capacity stays warm between solves.
#[derive(Debug, Default)]
pub struct TargetScratch {
    /// Minimum RTT from each landmark to the current target.
    pub(crate) target_rtts: Vec<Option<Latency>>,
    /// Constraint set under construction for the current target.
    pub(crate) constraints: Vec<Constraint>,
    /// Candidate points for the weighted point estimate (§2.4).
    pub(crate) candidates: Vec<GeoPoint>,
    /// Scored candidates, reused by the same estimate.
    pub(crate) scored: Vec<(f64, GeoPoint)>,
}

/// Localizes many targets against one landmark deployment, in parallel,
/// with the landmark-side state computed once.
///
/// ```
/// use octant::{BatchGeolocator, Octant, OctantConfig, Geolocator};
/// use octant_netsim::{MeasurementDataset, NetworkBuilder, NetworkConfig, Prober};
/// use octant_netsim::builder::HostSpec;
///
/// let mut builder = NetworkBuilder::new(NetworkConfig::default());
/// for site in octant_geo::sites::planetlab_51().iter().take(12) {
///     builder = builder.add_host(HostSpec::from_site(site));
/// }
/// let dataset = MeasurementDataset::capture(&Prober::new(builder.build(), 7));
/// let hosts = dataset.host_ids();
/// let (landmarks, targets) = hosts.split_at(8);
///
/// let batch = BatchGeolocator::new(OctantConfig::default());
/// let estimates = batch.localize_batch(&dataset, landmarks, targets);
/// assert_eq!(estimates.len(), targets.len());
///
/// // Bit-identical to the sequential path on a replay-stable provider:
/// let octant = Octant::new(OctantConfig::default());
/// let sequential = octant.localize(&dataset, landmarks, targets[0]);
/// assert_eq!(estimates[0].point, sequential.point);
/// ```
#[derive(Debug, Clone)]
pub struct BatchGeolocator {
    octant: Octant,
}

impl BatchGeolocator {
    /// Creates a batch geolocator with the given configuration and the
    /// standard evidence pipeline.
    pub fn new(config: OctantConfig) -> Self {
        BatchGeolocator {
            octant: Octant::new(config),
        }
    }

    /// Creates a batch geolocator with an explicit evidence pipeline (see
    /// [`crate::pipeline::EvidencePipeline`]).
    pub fn with_pipeline(
        config: OctantConfig,
        pipeline: crate::pipeline::EvidencePipeline,
    ) -> Self {
        BatchGeolocator {
            octant: Octant::with_pipeline(config, pipeline),
        }
    }

    /// Wraps an existing [`Octant`] instance.
    pub fn from_octant(octant: Octant) -> Self {
        BatchGeolocator { octant }
    }

    /// The underlying sequential framework.
    pub fn octant(&self) -> &Octant {
        &self.octant
    }

    /// Localizes every target in `targets`, reusing one [`LandmarkModel`]
    /// across the whole batch and fanning the per-target solves out over
    /// the available cores. Estimates are returned in `targets` order.
    ///
    /// Targets that are themselves landmarks take the sequential
    /// leave-one-out path (their measurements must not calibrate their own
    /// solve), so mixed batches remain exact.
    pub fn localize_batch<P>(
        &self,
        provider: &P,
        landmarks: &[NodeId],
        targets: &[NodeId],
    ) -> Vec<LocationEstimate>
    where
        P: ObservationProvider + Sync,
    {
        if targets.is_empty() {
            return Vec::new();
        }
        let model = self.octant.prepare_landmarks(provider, landmarks);
        self.localize_batch_with_model(provider, &model, targets)
    }

    /// Like [`BatchGeolocator::localize_batch`] but against a model the
    /// caller already prepared (for services that amortize one model across
    /// many batches). Targets that are landmarks of `model` take the
    /// leave-one-out slow path.
    pub fn localize_batch_with_model<P>(
        &self,
        provider: &P,
        model: &LandmarkModel,
        targets: &[NodeId],
    ) -> Vec<LocationEstimate>
    where
        P: ObservationProvider + Sync,
    {
        self.localize_batch_with_routers(provider, model, targets, None)
    }

    /// Like [`BatchGeolocator::localize_batch_with_model`] with an explicit
    /// [`RouterEstimateSource`] consulted by `Recursive` router localization
    /// instead of re-running each router's sub-solve inline per target. A
    /// caching source (see `octant-service`) makes a batch of `N` targets
    /// behind `R` shared routers pay for `R` sub-localizations instead of
    /// `O(N · L)`; results stay bit-identical to the uncached path on a
    /// replay-stable provider.
    pub fn localize_batch_with_routers<P>(
        &self,
        provider: &P,
        model: &LandmarkModel,
        targets: &[NodeId],
        routers: Option<&dyn RouterEstimateSource>,
    ) -> Vec<LocationEstimate>
    where
        P: ObservationProvider + Sync,
    {
        targets
            .par_iter()
            .map_init(TargetScratch::default, |scratch, &target| {
                if model.contains_landmark(target) {
                    self.octant.localize(provider, model.landmark_ids(), target)
                } else {
                    self.octant
                        .localize_prepared(provider, model, target, true, routers, scratch)
                }
            })
            .collect()
    }

    /// Like [`BatchGeolocator::localize_batch_with_model`] but with per-stage
    /// profiling enabled: each estimate carries a
    /// [`octant_telemetry::StageProfile`] in
    /// [`LocationEstimate::profile`] breaking its solve wall time down by
    /// evidence source and solver stage.
    pub fn localize_batch_profiled<P>(
        &self,
        provider: &P,
        model: &LandmarkModel,
        targets: &[NodeId],
    ) -> Vec<LocationEstimate>
    where
        P: ObservationProvider + Sync,
    {
        self.localize_batch_with_routers_profiled(provider, model, targets, None)
    }

    /// [`BatchGeolocator::localize_batch_with_routers`] with per-stage
    /// profiling. Each target's solve runs under a thread-local
    /// [`octant_telemetry::begin_capture`] with a top-level `solve` span, so
    /// the returned [`LocationEstimate::profile`] partitions that target's
    /// measured wall time across `source.*`, `solver.*` and `region.*`
    /// stages (uninstrumented time stays attributed to `solve` itself). The
    /// estimates are otherwise bit-identical to the unprofiled path.
    pub fn localize_batch_with_routers_profiled<P>(
        &self,
        provider: &P,
        model: &LandmarkModel,
        targets: &[NodeId],
        routers: Option<&dyn RouterEstimateSource>,
    ) -> Vec<LocationEstimate>
    where
        P: ObservationProvider + Sync,
    {
        targets
            .par_iter()
            .map_init(TargetScratch::default, |scratch, &target| {
                let capture = octant_telemetry::begin_capture();
                let mut estimate = {
                    let _solve = octant_telemetry::span("solve");
                    if model.contains_landmark(target) {
                        self.octant.localize(provider, model.landmark_ids(), target)
                    } else {
                        self.octant
                            .localize_prepared(provider, model, target, true, routers, scratch)
                    }
                };
                estimate.profile = Some(capture.finish());
                estimate
            })
            .collect()
    }
}

impl Geolocator for BatchGeolocator {
    fn name(&self) -> &str {
        "Octant"
    }

    fn localize(
        &self,
        provider: &dyn ObservationProvider,
        landmarks: &[NodeId],
        target: NodeId,
    ) -> LocationEstimate {
        self.octant.localize(provider, landmarks, target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use octant_netsim::builder::{HostSpec, NetworkBuilder, NetworkConfig};
    use octant_netsim::probe::Prober;
    use octant_netsim::MeasurementDataset;

    fn small_dataset(n: usize, seed: u64) -> MeasurementDataset {
        let mut builder = NetworkBuilder::new(NetworkConfig {
            seed,
            ..NetworkConfig::default()
        });
        for site in octant_geo::sites::planetlab_51().iter().take(n) {
            builder = builder.add_host(HostSpec::from_site(site));
        }
        MeasurementDataset::capture(&Prober::new(builder.build(), seed))
    }

    #[test]
    fn empty_batch_is_empty() {
        let ds = small_dataset(6, 3);
        let hosts = ds.host_ids();
        let batch = BatchGeolocator::new(OctantConfig::default());
        assert!(batch.localize_batch(&ds, &hosts, &[]).is_empty());
    }

    #[test]
    fn batch_matches_sequential_on_a_dataset() {
        let ds = small_dataset(10, 11);
        let hosts = ds.host_ids();
        let (landmarks, targets) = hosts.split_at(7);
        let batch = BatchGeolocator::new(OctantConfig::default());
        let octant = Octant::new(OctantConfig::default());
        let estimates = batch.localize_batch(&ds, landmarks, targets);
        for (&target, est) in targets.iter().zip(&estimates) {
            let seq = octant.localize(&ds, landmarks, target);
            assert_eq!(
                est.point, seq.point,
                "point estimates diverged for {target:?}"
            );
            assert_eq!(
                est.region.as_ref().map(|r| r.area_km2()),
                seq.region.as_ref().map(|r| r.area_km2()),
                "region areas diverged for {target:?}"
            );
        }
    }

    #[test]
    fn landmark_targets_take_the_leave_one_out_path() {
        let ds = small_dataset(8, 5);
        let hosts = ds.host_ids();
        // Every host is a landmark AND a target: classic leave-one-out.
        let batch = BatchGeolocator::new(OctantConfig::default());
        let octant = Octant::new(OctantConfig::default());
        let estimates = batch.localize_batch(&ds, &hosts, &hosts);
        for (&target, est) in hosts.iter().zip(&estimates) {
            let seq = octant.localize(&ds, &hosts, target);
            assert_eq!(
                est.point, seq.point,
                "leave-one-out parity broke for {target:?}"
            );
        }
    }

    #[test]
    fn prepared_model_exposes_landmark_state() {
        let ds = small_dataset(9, 13);
        let hosts = ds.host_ids();
        let octant = Octant::new(OctantConfig::default());
        let model = octant.prepare_landmarks(&ds, &hosts[..6]);
        assert_eq!(model.landmark_count(), 6);
        assert_eq!(model.landmark_ids(), &hosts[..6]);
        assert!(model.contains_landmark(hosts[0]));
        assert!(!model.contains_landmark(hosts[7]));
        assert!(model.calibration(0).is_some());
        assert!(model.calibration(6).is_none());
        assert!(model.global_calibration().is_data_driven());
        assert_eq!(model.heights().len(), 6);

        let batch = BatchGeolocator::new(OctantConfig::default());
        let via_model = batch.localize_batch_with_model(&ds, &model, &hosts[6..]);
        let direct = batch.localize_batch(&ds, &hosts[..6], &hosts[6..]);
        for (a, b) in via_model.iter().zip(&direct) {
            assert_eq!(a.point, b.point);
        }
    }

    #[test]
    fn localize_with_model_matches_localize_on_both_dispatch_paths() {
        let ds = small_dataset(10, 21);
        let hosts = ds.host_ids();
        let octant = Octant::new(OctantConfig::default());
        let model = octant.prepare_landmarks(&ds, &hosts[..7]);

        // Non-landmark target: the shared-model fast path.
        let via_model = octant.localize_with_model(&ds, &model, hosts[8]);
        let direct = octant.localize(&ds, &hosts[..7], hosts[8]);
        assert_eq!(via_model.point, direct.point);
        assert_eq!(via_model.report, direct.report);

        // Landmark target: must be routed through leave-one-out, never the
        // shared model (whose calibrations include the target's own pings).
        let lm_via_model = octant.localize_with_model(&ds, &model, hosts[0]);
        let lm_direct = octant.localize(&ds, &hosts[..7], hosts[0]);
        assert_eq!(lm_via_model.point, lm_direct.point);
        assert_eq!(lm_via_model.report, lm_direct.report);
    }

    #[test]
    fn batch_geolocator_implements_geolocator() {
        let ds = small_dataset(8, 17);
        let hosts = ds.host_ids();
        let batch = BatchGeolocator::new(OctantConfig::default());
        let geolocator: &dyn Geolocator = &batch;
        assert_eq!(geolocator.name(), "Octant");
        let est = geolocator.localize(&ds, &hosts[1..], hosts[0]);
        assert!(est.point.is_some());
    }
}
