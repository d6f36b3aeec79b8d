//! The epoch-keyed memo behind every serving-tier cache.
//!
//! The router cache's three levels (router estimates, contour bases and
//! dilation classes) and the answer memo in front of the pipeline all follow
//! the same rules, kept here once:
//!
//! * entries are keyed `(model epoch, key)`, and each is an
//!   `Arc<OnceLock<Arc<V>>>`: when several threads miss the same key at
//!   once, `OnceLock::get_or_init` runs exactly one computation and the
//!   others block on it and share its value;
//! * [`EpochMemo::retire_epochs_before`] drops whole epochs after a model
//!   refresh;
//! * one capacity rule: a new key that finds the memo at its cap first
//!   evicts **retired** epochs (those older than the key's own), oldest
//!   epoch first. The key's own epoch is never evicted. For
//!   [`EpochMemo::get_or_compute`] the cap is therefore soft, which keeps
//!   the router levels exactly-once per epoch; an [`EpochMemo::insert`]
//!   that still finds no room is dropped, so a memo whose keys come from
//!   clients stays bounded.
//!
//! One mutex guards the map. Computations run outside it.

use octant_telemetry::{Counter, MetricsRegistry};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::sync::{Arc, OnceLock};

type Slot<V> = Arc<OnceLock<Arc<V>>>;
type Epochs<K, V> = BTreeMap<u64, HashMap<K, Slot<V>>>;

/// An epoch-keyed memo with registry-backed hit, miss and eviction
/// counters. See the module docs for its rules.
#[derive(Debug)]
pub(crate) struct EpochMemo<K, V> {
    cap: usize,
    epochs: Mutex<Epochs<K, V>>,
    /// Lookups answered from an entry, including lookups that waited on
    /// another thread's computation.
    pub(crate) hits: Counter,
    /// Lookups that ran the computation (`get_or_compute`) or found nothing
    /// (`get`).
    pub(crate) misses: Counter,
    /// Entries removed by retirement or by the capacity rule.
    pub(crate) evictions: Counter,
}

impl<K: Hash + Eq, V> EpochMemo<K, V> {
    /// An empty memo of `cap` entries whose counters register under the
    /// given names in [`MetricsRegistry::global`].
    pub(crate) fn new(cap: usize, hits: &str, misses: &str, evictions: &str) -> Self {
        let registry = MetricsRegistry::global();
        EpochMemo {
            cap,
            epochs: Mutex::new(BTreeMap::new()),
            hits: registry.counter(hits),
            misses: registry.counter(misses),
            evictions: registry.counter(evictions),
        }
    }

    /// The value of `(epoch, key)`, running `compute` exactly once per key
    /// across all threads. A hit hands back the shared `Arc`, not a copy.
    pub(crate) fn get_or_compute(&self, epoch: u64, key: K, compute: impl FnOnce() -> V) -> Arc<V> {
        let slot = {
            let mut epochs = self.epochs.lock();
            match epochs.get(&epoch).and_then(|entries| entries.get(&key)) {
                Some(slot) => slot.clone(),
                None => {
                    self.make_room(&mut epochs, epoch);
                    let slot = Slot::default();
                    epochs.entry(epoch).or_default().insert(key, slot.clone());
                    slot
                }
            }
        };
        let mut computed = false;
        let value = slot
            .get_or_init(|| {
                computed = true;
                Arc::new(compute())
            })
            .clone();
        if computed {
            self.misses.inc();
        } else {
            self.hits.inc();
        }
        value
    }

    /// The stored value of `(epoch, key)`, counting a hit or a miss.
    pub(crate) fn get(&self, epoch: u64, key: &K) -> Option<Arc<V>> {
        let found = self
            .epochs
            .lock()
            .get(&epoch)
            .and_then(|entries| entries.get(key))
            .and_then(|slot| slot.get().cloned());
        match found {
            Some(_) => self.hits.inc(),
            None => self.misses.inc(),
        }
        found
    }

    /// Stores `value` under `(epoch, key)`. Returns `false`, storing
    /// nothing, when the key is already present or when the memo is full of
    /// entries no older than `epoch`.
    pub(crate) fn insert(&self, epoch: u64, key: K, value: V) -> bool {
        let mut epochs = self.epochs.lock();
        let present = epochs
            .get(&epoch)
            .is_some_and(|entries| entries.contains_key(&key));
        if present || !self.make_room(&mut epochs, epoch) {
            return false;
        }
        let slot = Arc::new(OnceLock::from(Arc::new(value)));
        epochs.entry(epoch).or_default().insert(key, slot);
        true
    }

    /// Drops every entry whose epoch is below `min_epoch`. Returns the
    /// number removed.
    pub(crate) fn retire_epochs_before(&self, min_epoch: u64) -> usize {
        let mut epochs = self.epochs.lock();
        let kept = epochs.split_off(&min_epoch);
        let removed = total(&epochs);
        *epochs = kept;
        self.evictions.add(removed as u64);
        removed
    }

    /// Number of resident entries of `epoch`.
    pub(crate) fn entries_for_epoch(&self, epoch: u64) -> usize {
        self.epochs.lock().get(&epoch).map_or(0, HashMap::len)
    }

    /// Number of resident entries across all epochs.
    pub(crate) fn len(&self) -> usize {
        total(&self.epochs.lock())
    }

    /// Evicts whole epochs older than `epoch`, oldest first, until one more
    /// entry fits under the cap. Returns whether it fits.
    fn make_room(&self, epochs: &mut Epochs<K, V>, epoch: u64) -> bool {
        let mut len = total(epochs);
        while len >= self.cap {
            match epochs.first_entry() {
                Some(oldest) if *oldest.key() < epoch => {
                    let evicted = oldest.remove().len();
                    self.evictions.add(evicted as u64);
                    len -= evicted;
                }
                _ => return false,
            }
        }
        true
    }
}

fn total<K, V>(epochs: &Epochs<K, V>) -> usize {
    epochs.values().map(HashMap::len).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    fn memo(cap: usize) -> EpochMemo<u32, u32> {
        EpochMemo::new(
            cap,
            "test.memo.hits",
            "test.memo.misses",
            "test.memo.evictions",
        )
    }

    #[test]
    fn over_cap_get_or_compute_never_evicts_the_current_epoch() {
        let memo = memo(4);
        for key in 0..4 {
            memo.get_or_compute(1, key, || key);
        }
        // The first epoch-2 key evicts the retired epoch 1 whole; the rest
        // of epoch 2 then overfills the cap instead of evicting its own.
        for key in 0..6 {
            memo.get_or_compute(2, key, || key);
        }
        assert_eq!(memo.entries_for_epoch(1), 0);
        assert_eq!(memo.entries_for_epoch(2), 6);
        assert_eq!(memo.evictions.get(), 4);
        assert_eq!(memo.misses.get(), 10, "every key computed exactly once");
        // A late key of an older epoch never evicts a newer one.
        memo.get_or_compute(1, 9, || 9);
        assert_eq!(memo.entries_for_epoch(2), 6);
    }

    #[test]
    fn insert_into_a_memo_full_of_current_entries_is_dropped() {
        let memo = memo(4);
        for key in 0..2 {
            assert!(memo.insert(1, key, key));
        }
        for key in 0..2 {
            assert!(memo.insert(2, key, key));
        }
        // Full: the retired epoch 1 makes room for the next epoch-2 entry.
        assert!(memo.insert(2, 2, 2));
        assert_eq!(memo.entries_for_epoch(1), 0);
        assert!(memo.insert(2, 3, 3));
        // Full of epoch-2 entries: dropped, nothing evicted.
        assert!(!memo.insert(2, 4, 4));
        assert!(memo.get(2, &4).is_none());
        assert_eq!(memo.len(), 4);
        assert_eq!(memo.evictions.get(), 2);
        // A resident key is not overwritten.
        assert!(!memo.insert(2, 0, 99));
        assert_eq!(*memo.get(2, &0).expect("resident"), 0);
    }

    #[test]
    fn concurrent_misses_on_one_key_compute_once() {
        let memo = memo(16);
        let calls = AtomicUsize::new(0);
        let threads = 8;
        let start = Barrier::new(threads);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    start.wait();
                    memo.get_or_compute(1, 3, || {
                        calls.fetch_add(1, Ordering::SeqCst);
                        // Keep the computation in flight while the other
                        // threads look the key up.
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        3
                    });
                });
            }
        });
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert_eq!((memo.misses.get(), memo.hits.get()), (1, 7));
    }
}
