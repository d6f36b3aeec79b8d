//! # octant-service
//!
//! The cache-backed geolocation **serving** subsystem of the Octant
//! reproduction: where `octant::BatchGeolocator` is the offline engine (one
//! batch, one model, run to completion), this crate hosts the long-lived
//! online layer a production deployment needs — and the cross-request
//! amortization that makes heavy traffic affordable.
//!
//! The tier is organized as a **control plane / data plane split**:
//!
//! * [`registry`] (control plane) — a versioned [`octant::LandmarkModel`]
//!   registry. Models are registered/refreshed by **epoch**; refresh
//!   prepares the new model outside the lock and swaps an `Arc`, so
//!   in-flight requests finish on the snapshot they started with.
//! * [`shard`] (control plane) — data-plane sizing ([`ShardConfig`]) and
//!   the deterministic target → /24 prefix table ([`ShardRouter`]) that
//!   picks each target's shard and keys its memoized answers.
//! * [`cache`] — a **shared router sub-localization cache** keyed by
//!   `(model epoch, router node)`. The §2.3
//!   `RouterLocalization::Recursive` mode localizes last-hop routers with
//!   full Octant sub-solves; those solves are target-independent, so the
//!   cache computes each one exactly once per epoch (thread-safe via
//!   per-entry `OnceLock` in-flight deduplication, with
//!   hit/miss/eviction counters) and replays it to every target, request
//!   and shard that shares the router — results bit-identical to the
//!   uncached path on a replay-stable provider.
//! * [`answer_cache`] — the per-/24 answer memo in front of the pipeline.
//!   It and the router cache's levels share one epoch-keyed memo type
//!   (get-or-compute, retirement and one capacity rule).
//! * [`service`] (data plane) — [`ShardedService`]: N shards, each owning
//!   its own request queue and worker pool, with per-request
//!   **deadlines**, bounded-queue **admission control / load shedding**,
//!   and per-shard **latency histograms** ([`LatencyHistogram`],
//!   [`stats`]). Workers micro-batch by a fixed policy: at most 64 targets
//!   per batch, and below 4 pending targets a wait of up to 2 ms for
//!   batch-mates. [`GeolocationService`] is the shards-of-one front door,
//!   bit-identical to the pre-sharding service.
//!
//! The seam into `octant-core` is [`octant::RouterEstimateSource`]: the
//! framework's recursive path consults the source instead of constructing a
//! fresh sub-`Octant` inline, and [`cache::EpochRouterSource`] is this
//! crate's caching implementation.
//!
//! ```
//! use octant::{OctantConfig, RouterLocalization};
//! use octant_netsim::builder::{HostSpec, NetworkBuilder, NetworkConfig};
//! use octant_netsim::{MeasurementDataset, Prober};
//! use octant_service::{GeolocationService, ServiceConfig};
//!
//! let mut builder = NetworkBuilder::new(NetworkConfig::default());
//! for site in octant_geo::sites::planetlab_51().iter().take(9) {
//!     builder = builder.add_host(HostSpec::from_site(site));
//! }
//! let dataset = MeasurementDataset::capture(&Prober::new(builder.build(), 7)).into_shared();
//! let hosts = dataset.host_ids();
//! let (landmarks, targets) = hosts.split_at(6);
//!
//! let config = ServiceConfig::default().with_octant(
//!     OctantConfig::default().with_router_localization(RouterLocalization::Recursive),
//! );
//! let service = GeolocationService::start(config, dataset, landmarks);
//! let served = service.localize_blocking(targets);
//! assert_eq!(served.len(), targets.len());
//! // Router sub-solves were computed once each and shared across targets:
//! assert!(service.cache().sub_localizations() > 0);
//!
//! // Per-request evidence selection: disable the router source for one
//! // request without touching the service or other requests. Outcomes are
//! // typed — under the default config (no deadline, unbounded queues)
//! // every target is Served.
//! use octant::SourceId;
//! use octant_service::LocalizeOptions;
//! let outcomes = service.localize_blocking_with_options(
//!     &targets[..1],
//!     LocalizeOptions::default().without_source(SourceId::Router),
//! );
//! let ablated = outcomes[0].served().unwrap();
//! assert!(!ablated.estimate.provenance.source(SourceId::Router).unwrap().enabled);
//! service.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod answer_cache;
pub mod cache;
mod memo;
pub mod registry;
pub mod service;
pub mod shard;
pub mod stats;

pub use answer_cache::{AnswerCache, AnswerCacheStats, AnswerKey, EvidenceKey, TargetKey};
pub use cache::{EpochRouterSource, RouterCache, RouterCacheConfig, RouterCacheStats};
pub use octant_telemetry::{LatencyHistogram, LatencySummary};
pub use registry::{ModelEpoch, ModelRegistry};
pub use service::{
    GeolocationService, LocalizeOptions, RequestHandle, ServeOutcome, ServedEstimate,
    ServiceConfig, ShardedService, ShedReason,
};
pub use shard::{ShardConfig, ShardRouter};
pub use stats::{
    QueueSnapshot, ServiceCounters, ServiceStats, ShardStats, StageBreakdown, StatsReport,
};

/// Shared fixtures for this crate's unit tests.
#[cfg(test)]
pub(crate) mod testutil {
    use octant_netsim::builder::{HostSpec, NetworkBuilder, NetworkConfig};
    use octant_netsim::{MeasurementDataset, Prober};

    /// Captures a small replay-stable campaign over the first `n` built-in
    /// PlanetLab-like sites.
    pub fn dataset(n: usize, seed: u64) -> MeasurementDataset {
        let mut builder = NetworkBuilder::new(NetworkConfig {
            seed,
            ..NetworkConfig::default()
        });
        for site in octant_geo::sites::planetlab_51().iter().take(n) {
            builder = builder.add_host(HostSpec::from_site(site));
        }
        MeasurementDataset::capture(&Prober::new(builder.build(), seed))
    }
}
