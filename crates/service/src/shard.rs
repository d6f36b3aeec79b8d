//! Data-plane shard configuration and request routing.
//!
//! The serving tier's data plane is `ShardConfig::count` independent shards,
//! each owning its own bounded request queue and worker pool. The control
//! plane routes every submitted target to a shard **deterministically by
//! the target's /24 IP prefix** ([`ShardRouter`]): the prefix → shard map is
//! a pure hash of static provider facts, so the same target lands on the
//! same shard on every call — no cross-shard coordination, no rebalancing
//! races, and repeat traffic for one prefix stays on one queue. The same
//! prefix table keys the answer memo ([`ShardRouter::target_key`]). Router
//! sub-localizations are *not* per-shard: they live in the one
//! [`crate::RouterCache`] shared by all shards, which is what keeps the
//! exactly-R-sub-solves property global after the split.

use crate::answer_cache::TargetKey;
use octant_netsim::observation::ObservationProvider;
use octant_netsim::topology::NodeId;
use std::collections::HashMap;

/// Data-plane sizing of a sharded service.
///
/// `#[non_exhaustive]`: construct via [`ShardConfig::default`] and the
/// builder-style `with_*` setters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct ShardConfig {
    /// Number of data-plane shards. Each shard owns a request queue and
    /// `ServiceConfig::workers` worker threads. The default of 1 reproduces
    /// the pre-sharding single-queue service exactly.
    pub count: usize,
    /// Bound on each shard's queue, in pending targets. Submissions beyond
    /// the bound are **shed** at admission (`ShedReason::QueueFull`) instead
    /// of queued. `0` (the default) means unbounded — no admission shedding,
    /// matching the pre-sharding service.
    pub queue_capacity: usize,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            count: 1,
            queue_capacity: 0,
        }
    }
}

octant::config_setters!(ShardConfig {
    /// Sets the number of data-plane shards.
    with_count: count: usize,
    /// Sets the per-shard queue bound (`0` = unbounded).
    with_queue_capacity: queue_capacity: usize,
});

/// SplitMix64 — the deterministic, platform-independent mixer behind shard
/// routing. Stable across runs and machines by construction, so shard
/// assignment is reproducible.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The control plane's target → /24 prefix table.
///
/// Built once from the provider's (static) host table. Each host's /24 IP
/// prefix is both its answer-memo identity ([`ShardRouter::target_key`])
/// and, hashed, its shard. Targets the provider does not list fall back to
/// their raw node id, so routing is total. Within a model epoch — in fact,
/// for the life of the provider — the assignment never changes.
#[derive(Debug)]
pub struct ShardRouter {
    shards: usize,
    prefixes: HashMap<NodeId, [u8; 3]>,
}

impl ShardRouter {
    /// Builds the routing table over `provider`'s hosts for `shards` shards.
    pub fn build(provider: &dyn ObservationProvider, shards: usize) -> Self {
        let prefixes = provider
            .hosts()
            .into_iter()
            .map(|h| (h.id, [h.ip[0], h.ip[1], h.ip[2]]))
            .collect();
        ShardRouter {
            shards: shards.max(1),
            prefixes,
        }
    }

    /// Number of shards this table routes over.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard serving `target`. Deterministic: the same target always
    /// maps to the same shard, and targets sharing a /24 prefix share a
    /// shard.
    pub fn shard_for(&self, target: NodeId) -> usize {
        let hash = match self.target_key(target) {
            TargetKey::Prefix([a, b, c]) => {
                mix64(u64::from(a) << 16 | u64::from(b) << 8 | u64::from(c))
            }
            TargetKey::Node(node) => mix64(node.0 as u64),
        };
        (hash % self.shards as u64) as usize
    }

    /// The answer-memo identity of `target`: its /24 prefix when the host
    /// table lists it, the node id otherwise.
    pub fn target_key(&self, target: NodeId) -> TargetKey {
        match self.prefixes.get(&target) {
            Some(&prefix) => TargetKey::Prefix(prefix),
            None => TargetKey::Node(target),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::dataset;

    #[test]
    fn default_shard_config_matches_the_pre_sharding_service() {
        let config = ShardConfig::default();
        assert_eq!(config.count, 1);
        assert_eq!(config.queue_capacity, 0, "unbounded by default");
        let built = ShardConfig::default()
            .with_count(4)
            .with_queue_capacity(128);
        assert_eq!(built.count, 4);
        assert_eq!(built.queue_capacity, 128);
    }

    #[test]
    fn routing_is_deterministic_and_total() {
        let ds = dataset(10, 11);
        let hosts = ds.host_ids();
        let router = ShardRouter::build(&ds, 4);
        let again = ShardRouter::build(&ds, 4);
        for &h in &hosts {
            let shard = router.shard_for(h);
            assert!(shard < 4);
            // Same table, repeat call: identical. Rebuilt table: identical.
            assert_eq!(router.shard_for(h), shard);
            assert_eq!(again.shard_for(h), shard);
        }
        // Unknown targets still route (by node id), inside range.
        let unknown = NodeId(9_999_999);
        assert!(router.shard_for(unknown) < 4);
        assert_eq!(router.shard_for(unknown), router.shard_for(unknown));
    }

    #[test]
    fn one_shard_routes_everything_to_shard_zero() {
        let ds = dataset(8, 13);
        let router = ShardRouter::build(&ds, 1);
        for &h in &ds.host_ids() {
            assert_eq!(router.shard_for(h), 0);
        }
        // A zero shard count is clamped to one, never a modulo-by-zero.
        let clamped = ShardRouter::build(&ds, 0);
        assert_eq!(clamped.shards(), 1);
    }

    #[test]
    fn target_keys_are_slash24_prefixes() {
        let ds = dataset(6, 7);
        let router = ShardRouter::build(&ds, 4);
        for h in ds.hosts() {
            assert_eq!(
                router.target_key(h.id),
                TargetKey::Prefix([h.ip[0], h.ip[1], h.ip[2]])
            );
        }
        let unknown = NodeId(987_654);
        assert_eq!(router.target_key(unknown), TargetKey::Node(unknown));
    }

    #[test]
    fn shards_see_a_spread_of_prefixes() {
        // With enough distinct prefixes, more than one shard gets traffic
        // (the hash must not collapse everything onto one shard).
        let ds = dataset(16, 17);
        let router = ShardRouter::build(&ds, 4);
        let mut used = std::collections::BTreeSet::new();
        for &h in &ds.host_ids() {
            used.insert(router.shard_for(h));
        }
        assert!(
            used.len() > 1,
            "16 hosts across 4 shards must not all hash together (got {used:?})"
        );
    }
}
