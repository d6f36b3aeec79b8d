//! Pins the sharded serving tier's contract:
//!
//! * a `shards = 1` service (the default — the pre-sharding front door) and
//!   a multi-shard service serve **bit-identical** estimates, both equal to
//!   the offline recursive batch engine on a replay-stable dataset, and
//!   make the same number of router sub-solves (one cache serves every
//!   shard);
//! * target → shard routing is deterministic across calls, traffic, and
//!   model epochs;
//! * deadlines and bounded queues shed with typed outcomes and correct
//!   per-reason accounting — and shed targets are **never solved**;
//! * aggregate stats sum counters across shards, keep queue gauges per
//!   shard, and merge latency histograms.

use octant::{BatchGeolocator, OctantConfig, RouterLocalization};
use octant_bench::{service_campaign, BatchCampaign};
use octant_geo::GeoPoint;
use octant_netsim::observation::{HostDescriptor, PingObservation, TracerouteHop};
use octant_netsim::{MeasurementDataset, NodeId, ObservationProvider};
use octant_service::{
    GeolocationService, LocalizeOptions, ServeOutcome, ServiceConfig, ShardConfig, ShardedService,
    ShedReason,
};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

fn recursive_config() -> OctantConfig {
    OctantConfig::default().with_router_localization(RouterLocalization::Recursive)
}

/// Small enough for debug-mode test runs, with router sharing enabled.
fn small_campaign() -> BatchCampaign {
    service_campaign(12, 2, 2, 42)
}

#[test]
fn one_shard_and_many_shards_match_the_offline_batch_engine_bit_for_bit() {
    let campaign = small_campaign();
    let provider = campaign.dataset.clone().into_shared();

    // Ground truth: the offline batch engine, inline (uncached) sub-solves.
    let offline = BatchGeolocator::new(recursive_config()).localize_batch(
        &provider,
        &campaign.landmarks,
        &campaign.targets,
    );

    // Services opt out of the (default-on) radius-class dilation cache:
    // this test pins bit-identity against the inline offline engine, and
    // class-rounded dilations are sampling-equivalent, not bit-identical.
    let exact_cache =
        octant_service::RouterCacheConfig::default().with_dilation_radius_step_km(0.0);

    // The front door: default shards = one shard, unbounded queue.
    let one = GeolocationService::start(
        ServiceConfig::default()
            .with_octant(recursive_config())
            .with_cache(exact_cache),
        provider.clone(),
        &campaign.landmarks,
    );
    assert_eq!(one.shard_count(), 1);
    let single = one.localize_blocking(&campaign.targets);
    let single_sub_solves = one.cache().sub_localizations();
    assert!(
        single_sub_solves > 0,
        "recursive serving sub-solves routers"
    );
    one.shutdown();

    // A 3-shard data plane over the same provider.
    let sharded = ShardedService::start(
        ServiceConfig::default()
            .with_octant(recursive_config())
            .with_shards(3)
            .with_cache(exact_cache),
        provider,
        &campaign.landmarks,
    );
    let multi = sharded.localize_blocking(&campaign.targets);

    for ((off, a), b) in offline.iter().zip(&single).zip(&multi) {
        assert_eq!(a.estimate.point, off.point, "shards=1 vs offline");
        assert_eq!(a.estimate.report, off.report, "shards=1 vs offline");
        assert_eq!(b.estimate.point, off.point, "multi-shard vs offline");
        assert_eq!(b.estimate.report, off.report, "multi-shard vs offline");
    }
    // Submission order is preserved end to end even when targets scatter
    // over shards.
    for (&t, s) in campaign.targets.iter().zip(&multi) {
        assert_eq!(s.target, t);
    }
    // Targets behind one router land on different shards, yet the shards
    // share one router cache: each router is still sub-solved once.
    assert_eq!(
        sharded.cache().sub_localizations(),
        single_sub_solves,
        "3 shards must make exactly the 1-shard service's router sub-solves"
    );
    sharded.shutdown();
}

#[test]
fn routing_is_deterministic_across_traffic_and_epochs() {
    let campaign = small_campaign();
    let provider = campaign.dataset.clone().into_shared();
    let service = ShardedService::start(
        ServiceConfig::default()
            .with_octant(OctantConfig::minimal())
            .with_shards(4),
        provider,
        &campaign.landmarks,
    );
    let before: Vec<usize> = campaign
        .targets
        .iter()
        .map(|&t| service.shard_for(t))
        .collect();
    assert!(before.iter().all(|&s| s < 4), "routing is total");
    service.localize_blocking(&campaign.targets);
    let epoch = service.refresh_model(&campaign.landmarks);
    assert_eq!(epoch, 2);
    service.localize_blocking(&campaign.targets);
    let after: Vec<usize> = campaign
        .targets
        .iter()
        .map(|&t| service.shard_for(t))
        .collect();
    assert_eq!(
        before, after,
        "traffic and epoch refreshes must not move targets between shards"
    );
    service.shutdown();
}

/// Holds the first ping to `blocker` until the test opens the gate, so a
/// one-worker service stays busy inside the blocker's solve without a
/// timer. Every other call passes straight through to the dataset.
struct GatedProvider {
    inner: MeasurementDataset,
    blocker: NodeId,
    /// `(entered, open)`.
    gate: Mutex<(bool, bool)>,
    changed: Condvar,
}

impl GatedProvider {
    fn new(inner: MeasurementDataset, blocker: NodeId) -> Arc<Self> {
        Arc::new(GatedProvider {
            inner,
            blocker,
            gate: Mutex::new((false, false)),
            changed: Condvar::new(),
        })
    }

    fn wait_entered(&self) {
        let mut gate = self.gate.lock().unwrap();
        while !gate.0 {
            gate = self.changed.wait(gate).unwrap();
        }
    }

    fn open(&self) {
        self.gate.lock().unwrap().1 = true;
        self.changed.notify_all();
    }
}

impl ObservationProvider for GatedProvider {
    fn hosts(&self) -> Vec<HostDescriptor> {
        self.inner.hosts()
    }
    fn ping(&self, from: NodeId, to: NodeId) -> PingObservation {
        if to == self.blocker {
            let mut gate = self.gate.lock().unwrap();
            if !gate.0 {
                gate.0 = true;
                self.changed.notify_all();
                while !gate.1 {
                    gate = self.changed.wait(gate).unwrap();
                }
            }
        }
        self.inner.ping(from, to)
    }
    fn traceroute(&self, from: NodeId, to: NodeId) -> Vec<TracerouteHop> {
        self.inner.traceroute(from, to)
    }
    fn node_by_ip(&self, ip: [u8; 4]) -> Option<NodeId> {
        self.inner.node_by_ip(ip)
    }
    fn reverse_dns(&self, ip: [u8; 4]) -> Option<String> {
        self.inner.reverse_dns(ip)
    }
    fn whois_city(&self, ip: [u8; 4]) -> Option<String> {
        self.inner.whois_city(ip)
    }
    fn advertised_location(&self, id: NodeId) -> Option<GeoPoint> {
        self.inner.advertised_location(id)
    }
}

#[test]
fn deadlines_and_bounded_queues_shed_with_typed_outcomes() {
    // Five targets: one holds the worker, four meet the bounded queue.
    let campaign = service_campaign(12, 5, 1, 42);
    let (blocker, targets) = (campaign.targets[0], &campaign.targets[1..5]);
    let provider = GatedProvider::new(campaign.dataset.clone(), blocker);
    // One shard with one worker and capacity 2. The worker is held inside
    // the blocker's solve, so admission and expiry are observable
    // deterministically.
    let service = ShardedService::start(
        ServiceConfig::default()
            .with_octant(OctantConfig::minimal())
            .with_workers(1)
            .with_shard(ShardConfig::default().with_queue_capacity(2)),
        provider.clone(),
        &campaign.landmarks,
    );
    let held = service.submit(&[blocker]);
    provider.wait_entered();

    // 4 targets into a capacity-2 queue: exactly 2 admitted, 2 shed — and
    // the shed slots resolve immediately, before any drain.
    let handle = service.submit_with_options(
        targets,
        LocalizeOptions::default().with_deadline(Duration::ZERO),
    );
    let early = service.stats();
    provider.open();
    assert_eq!(early.counters.shed_queue_full, 2);
    assert_eq!(early.queue_depth_total(), 2);
    assert!(held.wait_outcomes()[0].is_served());

    let outcomes = handle.wait_outcomes();
    let shed = outcomes
        .iter()
        .filter(|o| {
            matches!(
                o,
                ServeOutcome::Shed {
                    reason: ShedReason::QueueFull
                }
            )
        })
        .count();
    let expired = outcomes
        .iter()
        .filter(|o| matches!(o, ServeOutcome::DeadlineExceeded))
        .count();
    assert_eq!(shed, 2, "overflow slots report the queue-full reason");
    assert_eq!(
        expired, 2,
        "admitted slots expired in queue (zero deadline) and were never solved"
    );

    let stats = service.stats();
    assert_eq!(stats.counters.shed_queue_full, 2);
    assert_eq!(stats.counters.deadline_expired, 2);
    assert_eq!(stats.counters.shed(), 4);
    assert_eq!(
        stats.counters.targets_served, 1,
        "only the blocker was solved"
    );
    assert_eq!(stats.latency.count, 1, "only serves record latency");
    assert!((stats.shed_rate() - 0.8).abs() < 1e-12);
    service.shutdown();
}

#[test]
fn aggregate_stats_sum_counters_and_keep_gauges_per_shard() {
    let campaign = small_campaign();
    let provider = campaign.dataset.clone().into_shared();
    let service = ShardedService::start(
        ServiceConfig::default()
            .with_octant(OctantConfig::minimal())
            .with_shards(3),
        provider,
        &campaign.landmarks,
    );
    // Two waves so every touched shard has multiple batches to aggregate.
    service.localize_blocking(&campaign.targets);
    service.localize_blocking(&campaign.targets);

    let total = service.stats();
    let per_shard = service.shard_stats();
    assert_eq!(per_shard.len(), 3);
    assert_eq!(
        total.queues.len(),
        3,
        "one queue gauge per shard, never summed"
    );
    for (i, q) in total.queues.iter().enumerate() {
        assert_eq!(q.shard, i);
        assert_eq!(q.depth, 0, "drained service has empty queues");
    }

    let expected = (campaign.targets.len() * 2) as u64;
    assert_eq!(total.counters.targets_served, expected);
    assert_eq!(
        per_shard
            .iter()
            .map(|s| s.counters.targets_served)
            .sum::<u64>(),
        expected,
        "aggregate counters are the sum of the shards'"
    );
    assert_eq!(
        per_shard.iter().map(|s| s.counters.batches).sum::<u64>(),
        total.counters.batches
    );
    assert_eq!(
        per_shard
            .iter()
            .map(|s| s.counters.largest_batch)
            .max()
            .unwrap(),
        total.counters.largest_batch,
        "the high-water mark maxes across shards"
    );
    assert_eq!(
        per_shard.iter().map(|s| s.latency.count).sum::<u64>(),
        total.latency.count,
        "merged histogram holds every shard's observations"
    );
    assert_eq!(total.latency.count, expected);
    assert!(total.latency.p50 <= total.latency.p99);
    assert!(total.latency.p99 <= total.latency.p999);
    assert!(total.latency.p999 <= total.latency.max);
    // The aggregate p999 cannot undercut any shard's own median's lower
    // bucket... but it must at least reach every shard's max's bucket cap:
    // the merged max is the max of the shard maxes.
    let shard_max = per_shard.iter().map(|s| s.latency.max).max().unwrap();
    assert_eq!(total.latency.max, shard_max);
    service.shutdown();
}
