//! The per-target-prefix answer memo sitting **in front of** the pipeline.
//!
//! [`crate::RouterCache`] memoizes work *behind* the solve (router
//! sub-localizations shared by many targets); [`AnswerCache`] memoizes the
//! solve itself. Repeat lookups for the same target /24 — the dominant
//! pattern a production geolocation service sees, since a prefix's hosts
//! share routing and the same clients re-resolve the same prefixes — are
//! answered with the previously computed estimate, skipping the entire
//! constraint pipeline.
//!
//! ## Key and invalidation semantics
//!
//! Entries are keyed `(model epoch, target /24 prefix, evidence
//! selection)`:
//!
//! * **epoch** — answers are only ever replayed against the exact model
//!   that produced them. A [`crate::ModelRegistry`] refresh bumps the
//!   epoch, so every existing entry silently stops matching; refresh
//!   maintenance then drops every older epoch
//!   ([`AnswerCache::retire_epochs_before`], the router cache's retention).
//! * **/24 prefix** — targets whose IP the provider knows are keyed by
//!   their /24 ([`TargetKey::Prefix`]); unknown-IP targets fall back to
//!   their node id ([`TargetKey::Node`]). [`crate::ShardRouter`] derives
//!   the key from the same prefix table it routes shards by: a /24
//!   localizes as a unit (hosts of one /24 share access infrastructure).
//! * **evidence** — requests that disable pipeline sources run a different
//!   pipeline and get their own entries ([`EvidenceKey`]); source lists
//!   are compared verbatim, so two requests share an entry only when their
//!   adjusted pipelines are constructed identically. Profiled requests
//!   bypass the memo entirely (their estimates carry request-specific
//!   wall-time profiles).
//!
//! Against a replay-stable provider a hit is **bit-identical** to a fresh
//! solve (pinned by `tests/ingest_parity.rs`): same epoch means same
//! model, same evidence means same pipeline, and the solve is a pure
//! function of both.
//!
//! The memo holds at most 8,192 answers. An answer that finds it full
//! first evicts retired epochs; when every resident answer belongs to the
//! current epoch the new answer is not stored, so keys chosen by clients
//! cannot grow the memo without bound.
//!
//! Counters are registered under `answer_cache.*` in
//! [`octant_telemetry::MetricsRegistry::global`].

use crate::memo::EpochMemo;
use crate::service::LocalizeOptions;
use octant::{LocationEstimate, SourceId};
use octant_netsim::topology::NodeId;
use octant_telemetry::{Counter, MetricsRegistry};
use std::sync::Arc;

/// Entry cap of the answer memo (see the module docs).
const ANSWER_CAP: usize = 8192;

/// Counter snapshot of an [`AnswerCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct AnswerCacheStats {
    /// Lookups answered from a resident entry.
    pub hits: u64,
    /// Lookups that fell through to the solve pipeline.
    pub misses: u64,
    /// Entries written after a successful solve.
    pub insertions: u64,
    /// Entries removed by epoch retirement or the capacity cap.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

impl AnswerCacheStats {
    /// Fraction of lookups answered from the memo (0 when no lookups).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// How a target is identified in an answer key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TargetKey {
    /// The target's /24 IP prefix (the first three octets), for targets
    /// whose address the provider's host table lists.
    Prefix([u8; 3]),
    /// Fallback for targets with no known address: the node id itself.
    Node(NodeId),
}

/// The evidence selection of a request: the part of [`LocalizeOptions`]
/// that changes which pipeline answers the request. The disabled sources
/// keep their order (the adjusted pipeline is constructed from the options
/// verbatim, so only verbatim-equal options are guaranteed the same
/// pipeline).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EvidenceKey {
    disabled: Vec<SourceId>,
}

impl EvidenceKey {
    /// Builds the key for a request's options.
    pub fn from_options(options: &LocalizeOptions) -> Self {
        EvidenceKey {
            disabled: options.disabled_sources.clone(),
        }
    }
}

/// An answer-memo key within one model epoch.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AnswerKey {
    /// The target identity (prefix or node fallback).
    pub target: TargetKey,
    /// The request's evidence selection (`None` = the base pipeline).
    pub evidence: Option<EvidenceKey>,
}

/// The epoch-aware answer memo. See the module docs for semantics.
#[derive(Debug)]
pub struct AnswerCache {
    memo: EpochMemo<AnswerKey, LocationEstimate>,
    insertions: Counter,
}

impl Default for AnswerCache {
    fn default() -> Self {
        AnswerCache {
            memo: EpochMemo::new(
                ANSWER_CAP,
                "answer_cache.hits",
                "answer_cache.misses",
                "answer_cache.evictions",
            ),
            insertions: MetricsRegistry::global().counter("answer_cache.insertions"),
        }
    }
}

impl AnswerCache {
    /// Looks up the answer for `key` computed against model `epoch`,
    /// counting a hit or a miss.
    pub fn lookup(&self, epoch: u64, key: &AnswerKey) -> Option<Arc<LocationEstimate>> {
        self.memo.get(epoch, key)
    }

    /// Stores a freshly solved answer. Not stored (and not counted as an
    /// insertion) when the key is already resident or the memo is full of
    /// current-epoch answers.
    pub fn insert(&self, epoch: u64, key: AnswerKey, estimate: LocationEstimate) {
        if self.memo.insert(epoch, key, estimate) {
            self.insertions.inc();
        }
    }

    /// Drops every entry whose epoch is strictly below `min_epoch`
    /// (model-refresh maintenance). Returns the number removed.
    pub fn retire_epochs_before(&self, min_epoch: u64) -> usize {
        self.memo.retire_epochs_before(min_epoch)
    }

    /// A counter snapshot.
    pub fn stats(&self) -> AnswerCacheStats {
        AnswerCacheStats {
            hits: self.memo.hits.get(),
            misses: self.memo.misses.get(),
            insertions: self.insertions.get(),
            evictions: self.memo.evictions.get(),
            entries: self.memo.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(prefix: [u8; 3]) -> AnswerKey {
        AnswerKey {
            target: TargetKey::Prefix(prefix),
            evidence: None,
        }
    }

    #[test]
    fn lookup_miss_insert_hit_roundtrip() {
        let cache = AnswerCache::default();
        let k = key([128, 1, 13]);
        assert!(cache.lookup(1, &k).is_none());
        cache.insert(1, k.clone(), LocationEstimate::unknown());
        let back = cache.lookup(1, &k).expect("inserted answer is resident");
        let again = cache.lookup(1, &k).expect("inserted answer is resident");
        assert!(Arc::ptr_eq(&back, &again), "hits share the Arc");
        let stats = cache.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.insertions, 1);
        assert_eq!(stats.entries, 1);
        assert!((stats.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn epoch_is_part_of_the_key() {
        let cache = AnswerCache::default();
        cache.insert(1, key([128, 1, 13]), LocationEstimate::unknown());
        assert!(
            cache.lookup(2, &key([128, 1, 13])).is_none(),
            "a refreshed epoch must never replay an old answer"
        );
        assert_eq!(cache.retire_epochs_before(2), 1);
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn evidence_selection_partitions_entries() {
        let cache = AnswerCache::default();
        let base = key([10, 0, 0]);
        let ablated = AnswerKey {
            evidence: Some(EvidenceKey::from_options(
                &LocalizeOptions::default().without_source(SourceId::Router),
            )),
            ..base.clone()
        };
        cache.insert(1, base.clone(), LocationEstimate::unknown());
        assert!(cache.lookup(1, &ablated).is_none());
        cache.insert(1, ablated.clone(), LocationEstimate::unknown());
        assert_eq!(cache.stats().entries, 2);
        // A deadline does not change the evidence key.
        let with_deadline = AnswerKey {
            evidence: Some(EvidenceKey::from_options(
                &LocalizeOptions::default()
                    .without_source(SourceId::Router)
                    .with_deadline(std::time::Duration::from_secs(1)),
            )),
            ..base
        };
        assert!(cache.lookup(1, &with_deadline).is_some());
    }

    #[test]
    fn capacity_cap_evicts_retired_epochs_first() {
        let cache = AnswerCache::default();
        let node = |i: usize| AnswerKey {
            target: TargetKey::Node(NodeId(i as u32)),
            evidence: None,
        };
        for i in 0..ANSWER_CAP {
            cache.insert(1, node(i), LocationEstimate::unknown());
        }
        // At the cap, a current-epoch answer evicts the retired epoch.
        for i in 0..3 {
            cache.insert(2, node(i), LocationEstimate::unknown());
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 3);
        assert_eq!(stats.evictions, ANSWER_CAP as u64);
        // Full of current-epoch answers: the next one is neither stored
        // nor counted as an insertion.
        for i in 3..ANSWER_CAP + 1 {
            cache.insert(2, node(i), LocationEstimate::unknown());
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, ANSWER_CAP);
        assert_eq!(stats.insertions, 2 * ANSWER_CAP as u64);
        assert_eq!(stats.evictions, ANSWER_CAP as u64);
        assert!(cache.lookup(2, &node(ANSWER_CAP)).is_none());
    }
}
