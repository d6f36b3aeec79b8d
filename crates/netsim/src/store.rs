//! Streaming observation ingest: a write-optimized measurement store.
//!
//! [`crate::MeasurementDataset`] is a frozen snapshot — the paper's
//! collect-once, evaluate-forever shape. A production deployment looks
//! different: probe observations arrive *continuously*, and the serving
//! tier wants a consistent view of "everything observed so far" at model
//! refresh time without pausing ingest. [`ObservationStore`] is that write
//! path, organized the way TWIAD organizes its IP address database:
//!
//! * **appends are cheap** — [`ObservationStore::ingest`] pushes records
//!   into a small unsorted in-memory buffer and returns;
//! * **the buffer merges into a sorted per-pair index in amortized
//!   batches** — when the buffer exceeds [`StoreConfig::flush_threshold`],
//!   one linear merge folds it into the sorted run the lookups binary-search
//!   (so a lookup never scans more than one bounded buffer);
//! * **reads see every write** — the store implements
//!   [`ObservationProvider`] directly (lookups consult buffer + index), and
//!   [`ObservationStore::snapshot_dataset`] materializes a
//!   [`MeasurementDataset`] view of the current version for replay-stable
//!   model preparation.
//!
//! Every ingest batch bumps a monotonically increasing **version**; the
//! store remembers, per node, the last version that touched its observation
//! set, so a model-refresh loop can ask
//! [`ObservationStore::changed_since`] for exactly the landmarks whose
//! calibration inputs may have moved — the driver of
//! `Octant::prepare_landmarks_incremental` in `octant-core`.
//!
//! Conflicting observations of one key (the same directed pair probed
//! twice) resolve **last-writer-wins by the record's `seq`** — a
//! caller-supplied logical observation time — with a deterministic
//! value-based tie-break, so the merged state is a pure function of the
//! ingested record *set*, independent of batching and arrival order. That
//! order-independence is what makes "streaming ingest in shuffled batches"
//! bit-identical to a frozen capture.

use crate::dataset::{DatasetHost, MeasurementDataset};
use crate::observation::{HostDescriptor, ObservationProvider, PingObservation, TracerouteHop};
use crate::topology::NodeId;
use octant_geo::point::GeoPoint;
use octant_geo::units::Latency;
use parking_lot::RwLock;
use std::collections::HashMap;

/// Sizing knobs of an [`ObservationStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct StoreConfig {
    /// Buffered records that trigger an amortized merge into the sorted
    /// index. Larger values make ingest cheaper (fewer merges) and lookups
    /// slightly dearer (the unsorted buffer is scanned linearly).
    pub flush_threshold: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            flush_threshold: 256,
        }
    }
}

impl StoreConfig {
    /// Sets the buffered-record count that triggers an index merge.
    #[must_use]
    pub fn with_flush_threshold(mut self, flush_threshold: usize) -> Self {
        self.flush_threshold = flush_threshold;
        self
    }
}

/// One streamed observation. `seq` is the caller's logical observation time:
/// among records for the same key, the highest `seq` wins (ties resolve by a
/// deterministic value comparison), so ingest order never changes the merged
/// state.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ObservationRecord {
    /// A host announcement (or update) with its advertised location.
    Host {
        /// The host's descriptor (id, hostname, IP).
        descriptor: HostDescriptor,
        /// The host's advertised (ground-truth) location.
        location: GeoPoint,
        /// Logical observation time.
        seq: u64,
    },
    /// A ping observation for one directed pair.
    Ping {
        /// Probe source.
        from: NodeId,
        /// Probe destination.
        to: NodeId,
        /// The answered RTT samples.
        observation: PingObservation,
        /// Logical observation time.
        seq: u64,
    },
    /// A traceroute for one directed pair.
    Traceroute {
        /// Traceroute source.
        from: NodeId,
        /// Traceroute destination.
        to: NodeId,
        /// The intermediate hops.
        hops: Vec<TracerouteHop>,
        /// Logical observation time.
        seq: u64,
    },
    /// A reverse-DNS binding for an address.
    ReverseDns {
        /// The address.
        ip: [u8; 4],
        /// Its DNS name.
        hostname: String,
        /// Logical observation time.
        seq: u64,
    },
    /// A WHOIS registration row for an address.
    Whois {
        /// The address.
        ip: [u8; 4],
        /// The registered city code.
        city: String,
        /// Logical observation time.
        seq: u64,
    },
    /// An IP → node binding (normally implied by `Host`/`Traceroute`
    /// records, available standalone for replaying captures).
    IpBinding {
        /// The address.
        ip: [u8; 4],
        /// The node answering at it.
        node: NodeId,
        /// Logical observation time.
        seq: u64,
    },
}

impl ObservationRecord {
    /// Decomposes a frozen [`MeasurementDataset`] into the record stream
    /// that reproduces it, stamping every record with `seq`. Useful for
    /// seeding a store from a capture (and for ingest-parity tests, which
    /// shuffle and re-batch the result).
    pub fn from_dataset(dataset: &MeasurementDataset, seq: u64) -> Vec<ObservationRecord> {
        let mut records = Vec::new();
        for host in &dataset.hosts {
            records.push(ObservationRecord::Host {
                descriptor: host.descriptor.clone(),
                location: host.true_location,
                seq,
            });
        }
        for (&(from, to), recorded) in &dataset.pings {
            records.push(ObservationRecord::Ping {
                from,
                to,
                observation: recorded.observation(),
                seq,
            });
        }
        for (&(from, to), hops) in &dataset.traceroutes {
            records.push(ObservationRecord::Traceroute {
                from,
                to,
                hops: hops.clone(),
                seq,
            });
        }
        for (&ip, hostname) in &dataset.dns {
            records.push(ObservationRecord::ReverseDns {
                ip,
                hostname: hostname.clone(),
                seq,
            });
        }
        for (&ip, city) in &dataset.whois {
            records.push(ObservationRecord::Whois {
                ip,
                city: city.clone(),
                seq,
            });
        }
        for (&ip, &node) in &dataset.ip_to_node {
            records.push(ObservationRecord::IpBinding { ip, node, seq });
        }
        records
    }
}

/// A point-in-time gauge of the store's internals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct StoreStats {
    /// Current store version (bumped once per ingest batch).
    pub version: u64,
    /// Hosts known to the store.
    pub hosts: usize,
    /// Ping records resident in the sorted index.
    pub indexed_pings: usize,
    /// Ping records waiting in the unsorted write buffer.
    pub buffered_pings: usize,
    /// Traceroute records resident in the sorted index.
    pub indexed_traceroutes: usize,
    /// Traceroute records waiting in the unsorted write buffer.
    pub buffered_traceroutes: usize,
    /// Amortized buffer → index merges performed.
    pub merges: u64,
    /// Records folded into the index across all merges.
    pub merged_records: u64,
}

#[derive(Debug, Clone)]
struct PingEntry {
    from: NodeId,
    to: NodeId,
    seq: u64,
    observation: PingObservation,
}

#[derive(Debug, Clone)]
struct TraceEntry {
    from: NodeId,
    to: NodeId,
    seq: u64,
    hops: Vec<TracerouteHop>,
}

/// Total-order rank of a ping observation, used only to break exact `seq`
/// ties deterministically (so the winner is a function of the record set,
/// not of arrival order).
fn ping_rank(observation: &PingObservation) -> Vec<u64> {
    observation
        .samples
        .iter()
        .map(|l| l.ms().to_bits())
        .collect()
}

/// Same idea for traceroutes: rank by the hop walk.
fn trace_rank(hops: &[TracerouteHop]) -> Vec<u64> {
    hops.iter()
        .flat_map(|h| [h.node.0 as u64, h.rtt.ms().to_bits()])
        .collect()
}

#[derive(Debug, Default)]
struct StoreInner {
    version: u64,
    hosts: Vec<(u64, DatasetHost)>,
    host_slots: HashMap<NodeId, usize>,
    ping_index: Vec<PingEntry>,
    ping_buffer: Vec<PingEntry>,
    trace_index: Vec<TraceEntry>,
    trace_buffer: Vec<TraceEntry>,
    dns: HashMap<[u8; 4], (u64, String)>,
    whois: HashMap<[u8; 4], (u64, String)>,
    ip_to_node: HashMap<[u8; 4], (u64, NodeId)>,
    touched: HashMap<NodeId, u64>,
    merges: u64,
    merged_records: u64,
}

impl StoreInner {
    fn touch(&mut self, node: NodeId) {
        self.touched.insert(node, self.version);
    }

    /// Folds the write buffers into the sorted indexes: one sort of the
    /// buffer plus one linear merge with the (already sorted, unique-keyed)
    /// index — the amortized TWIAD-style batch write.
    fn flush(&mut self) {
        self.merged_records += (self.ping_buffer.len() + self.trace_buffer.len()) as u64;
        if !self.ping_buffer.is_empty() {
            let mut buffer = std::mem::take(&mut self.ping_buffer);
            buffer.sort_by(|a, b| {
                ((a.from, a.to), a.seq, ping_rank(&a.observation)).cmp(&(
                    (b.from, b.to),
                    b.seq,
                    ping_rank(&b.observation),
                ))
            });
            // Last entry per key is the winner within the buffer.
            buffer.reverse();
            buffer.dedup_by_key(|e| (e.from, e.to));
            buffer.reverse();
            self.ping_index = merge_runs(
                std::mem::take(&mut self.ping_index),
                buffer,
                |e| (e.from, e.to),
                |a, b| (a.seq, ping_rank(&a.observation)) >= (b.seq, ping_rank(&b.observation)),
            );
            self.merges += 1;
        }
        if !self.trace_buffer.is_empty() {
            let mut buffer = std::mem::take(&mut self.trace_buffer);
            buffer.sort_by(|a, b| {
                ((a.from, a.to), a.seq, trace_rank(&a.hops)).cmp(&(
                    (b.from, b.to),
                    b.seq,
                    trace_rank(&b.hops),
                ))
            });
            buffer.reverse();
            buffer.dedup_by_key(|e| (e.from, e.to));
            buffer.reverse();
            self.trace_index = merge_runs(
                std::mem::take(&mut self.trace_index),
                buffer,
                |e| (e.from, e.to),
                |a, b| (a.seq, trace_rank(&a.hops)) >= (b.seq, trace_rank(&b.hops)),
            );
            self.merges += 1;
        }
    }

    /// The winning ping entry for a key across index and buffer.
    fn ping_lookup(&self, from: NodeId, to: NodeId) -> Option<&PingEntry> {
        let mut best: Option<&PingEntry> = self
            .ping_index
            .binary_search_by(|e| (e.from, e.to).cmp(&(from, to)))
            .ok()
            .map(|i| &self.ping_index[i]);
        for e in self
            .ping_buffer
            .iter()
            .filter(|e| e.from == from && e.to == to)
        {
            best = Some(match best {
                Some(b)
                    if (b.seq, ping_rank(&b.observation)) >= (e.seq, ping_rank(&e.observation)) =>
                {
                    b
                }
                _ => e,
            });
        }
        best
    }

    /// The winning traceroute entry for a key across index and buffer.
    fn trace_lookup(&self, from: NodeId, to: NodeId) -> Option<&TraceEntry> {
        let mut best: Option<&TraceEntry> = self
            .trace_index
            .binary_search_by(|e| (e.from, e.to).cmp(&(from, to)))
            .ok()
            .map(|i| &self.trace_index[i]);
        for e in self
            .trace_buffer
            .iter()
            .filter(|e| e.from == from && e.to == to)
        {
            best = Some(match best {
                Some(b) if (b.seq, trace_rank(&b.hops)) >= (e.seq, trace_rank(&e.hops)) => b,
                _ => e,
            });
        }
        best
    }

    /// Hosts sorted by id — a deterministic, arrival-order-independent view.
    fn sorted_hosts(&self) -> Vec<DatasetHost> {
        let mut hosts: Vec<DatasetHost> = self.hosts.iter().map(|(_, h)| h.clone()).collect();
        hosts.sort_by_key(|h| h.descriptor.id);
        hosts
    }
}

/// Merges two sorted unique-keyed runs; on a shared key, `wins(a, b)` picks
/// whether the left (index) entry beats the right (buffer) one.
fn merge_runs<T, K: Ord>(
    left: Vec<T>,
    right: Vec<T>,
    key: impl Fn(&T) -> K,
    wins: impl Fn(&T, &T) -> bool,
) -> Vec<T> {
    let mut out = Vec::with_capacity(left.len() + right.len());
    let mut l = left.into_iter().peekable();
    let mut r = right.into_iter().peekable();
    loop {
        match (l.peek(), r.peek()) {
            (Some(a), Some(b)) => match key(a).cmp(&key(b)) {
                std::cmp::Ordering::Less => out.push(l.next().expect("peeked")),
                std::cmp::Ordering::Greater => out.push(r.next().expect("peeked")),
                std::cmp::Ordering::Equal => {
                    let a = l.next().expect("peeked");
                    let b = r.next().expect("peeked");
                    out.push(if wins(&a, &b) { a } else { b });
                }
            },
            (Some(_), None) => out.push(l.next().expect("peeked")),
            (None, Some(_)) => out.push(r.next().expect("peeked")),
            (None, None) => break,
        }
    }
    out
}

/// The streaming measurement store. See the module docs for the write-path
/// design; the store is an [`ObservationProvider`] (reads see every write)
/// and can materialize a frozen [`MeasurementDataset`] view at any version
/// via [`ObservationStore::snapshot_dataset`].
#[derive(Debug, Default)]
pub struct ObservationStore {
    config: StoreConfig,
    inner: RwLock<StoreInner>,
}

impl ObservationStore {
    /// Creates an empty store with the given configuration.
    pub fn new(config: StoreConfig) -> Self {
        ObservationStore {
            config,
            inner: RwLock::new(StoreInner::default()),
        }
    }

    /// Creates a store pre-seeded with a frozen capture (one ingest batch of
    /// the dataset's records at `seq` 0).
    pub fn from_dataset(config: StoreConfig, dataset: &MeasurementDataset) -> Self {
        let store = ObservationStore::new(config);
        store.ingest(ObservationRecord::from_dataset(dataset, 0));
        store
    }

    /// The configuration in use.
    pub fn config(&self) -> StoreConfig {
        self.config
    }

    /// Ingests one batch of records: appends into the write buffer (merging
    /// into the sorted index only when the buffer exceeds the flush
    /// threshold), records which nodes' observation sets the batch touched,
    /// and bumps the store version. Returns the new version.
    pub fn ingest(&self, records: impl IntoIterator<Item = ObservationRecord>) -> u64 {
        let mut inner = self.inner.write();
        inner.version += 1;
        for record in records {
            match record {
                ObservationRecord::Host {
                    descriptor,
                    location,
                    seq,
                } => {
                    let id = descriptor.id;
                    let host = DatasetHost {
                        descriptor,
                        true_location: location,
                    };
                    match inner.host_slots.get(&id).copied() {
                        Some(slot) => {
                            let (cur_seq, _) = inner.hosts[slot];
                            if seq >= cur_seq {
                                inner.hosts[slot] = (seq, host);
                            }
                        }
                        None => {
                            inner.hosts.push((seq, host));
                            let slot = inner.hosts.len() - 1;
                            inner.host_slots.insert(id, slot);
                        }
                    }
                    let ip = inner.hosts[inner.host_slots[&id]].1.descriptor.ip;
                    let entry = inner.ip_to_node.entry(ip).or_insert((seq, id));
                    if seq >= entry.0 {
                        *entry = (seq, id);
                    }
                    inner.touch(id);
                }
                ObservationRecord::Ping {
                    from,
                    to,
                    observation,
                    seq,
                } => {
                    inner.ping_buffer.push(PingEntry {
                        from,
                        to,
                        seq,
                        observation,
                    });
                    // The prober owns its measurements: a record under key
                    // (from, to) can only change lookups whose key starts at
                    // `from`, so marking `from` alone keeps `changed_since`
                    // tight enough for incremental recalibration to skip
                    // untouched landmarks' pairs.
                    inner.touch(from);
                }
                ObservationRecord::Traceroute {
                    from,
                    to,
                    hops,
                    seq,
                } => {
                    for hop in &hops {
                        let entry = inner.ip_to_node.entry(hop.ip).or_insert((seq, hop.node));
                        if seq >= entry.0 {
                            *entry = (seq, hop.node);
                        }
                        inner
                            .dns
                            .entry(hop.ip)
                            .or_insert_with(|| (seq, hop.hostname.clone()));
                    }
                    inner.trace_buffer.push(TraceEntry {
                        from,
                        to,
                        seq,
                        hops,
                    });
                    inner.touch(from);
                }
                ObservationRecord::ReverseDns { ip, hostname, seq } => {
                    let entry = inner.dns.entry(ip).or_insert((seq, hostname.clone()));
                    if seq >= entry.0 {
                        *entry = (seq, hostname);
                    }
                }
                ObservationRecord::Whois { ip, city, seq } => {
                    let entry = inner.whois.entry(ip).or_insert((seq, city.clone()));
                    if seq >= entry.0 {
                        *entry = (seq, city);
                    }
                }
                ObservationRecord::IpBinding { ip, node, seq } => {
                    let entry = inner.ip_to_node.entry(ip).or_insert((seq, node));
                    if seq >= entry.0 {
                        *entry = (seq, node);
                    }
                }
            }
        }
        if inner.ping_buffer.len() + inner.trace_buffer.len() >= self.config.flush_threshold {
            inner.flush();
        }
        inner.version
    }

    /// Forces the write buffers into the sorted indexes (benchmarks call
    /// this to measure steady-state lookups; correctness never needs it).
    pub fn flush(&self) {
        self.inner.write().flush();
    }

    /// The current store version (0 before the first ingest).
    pub fn version(&self) -> u64 {
        self.inner.read().version
    }

    /// Node ids whose observation set was touched by any ingest batch with a
    /// version **greater than** `version`, in ascending id order — the
    /// changed-landmark set an incremental recalibration feeds on. Pings and
    /// traceroutes are attributed to their **prober** (`from`): every stored
    /// key the batch may have changed starts at a returned node, so pair
    /// lookups from unreturned nodes are guaranteed unchanged.
    pub fn changed_since(&self, version: u64) -> Vec<NodeId> {
        let inner = self.inner.read();
        let mut changed: Vec<NodeId> = inner
            .touched
            .iter()
            .filter(|(_, &v)| v > version)
            .map(|(&id, _)| id)
            .collect();
        changed.sort_unstable();
        changed
    }

    /// Materializes a frozen [`MeasurementDataset`] view of the store's
    /// current state (hosts in ascending id order; per-key winners by
    /// `seq`). The view is replay-stable and independent of how the records
    /// were batched or ordered at ingest time.
    pub fn snapshot_dataset(&self) -> MeasurementDataset {
        let inner = self.inner.read();
        let mut ds = MeasurementDataset {
            hosts: inner.sorted_hosts(),
            ..MeasurementDataset::default()
        };
        for key_entry in &inner.ping_index {
            // Buffered entries may supersede indexed ones; route every key
            // through the winner lookup.
            let e = inner
                .ping_lookup(key_entry.from, key_entry.to)
                .expect("indexed key resolves");
            ds.insert_ping(e.from, e.to, e.observation.clone());
        }
        for e in &inner.ping_buffer {
            let w = inner
                .ping_lookup(e.from, e.to)
                .expect("buffered key resolves");
            ds.insert_ping(w.from, w.to, w.observation.clone());
        }
        for key_entry in &inner.trace_index {
            let e = inner
                .trace_lookup(key_entry.from, key_entry.to)
                .expect("indexed key resolves");
            ds.traceroutes.insert((e.from, e.to), e.hops.clone());
        }
        for e in &inner.trace_buffer {
            let w = inner
                .trace_lookup(e.from, e.to)
                .expect("buffered key resolves");
            ds.traceroutes.insert((w.from, w.to), w.hops.clone());
        }
        for (&ip, (_, name)) in &inner.dns {
            ds.dns.insert(ip, name.clone());
        }
        for (&ip, (_, city)) in &inner.whois {
            ds.whois.insert(ip, city.clone());
        }
        for (&ip, &(_, node)) in &inner.ip_to_node {
            ds.ip_to_node.insert(ip, node);
        }
        ds
    }

    /// A point-in-time gauge of the store internals.
    pub fn stats(&self) -> StoreStats {
        let inner = self.inner.read();
        StoreStats {
            version: inner.version,
            hosts: inner.hosts.len(),
            indexed_pings: inner.ping_index.len(),
            buffered_pings: inner.ping_buffer.len(),
            indexed_traceroutes: inner.trace_index.len(),
            buffered_traceroutes: inner.trace_buffer.len(),
            merges: inner.merges,
            merged_records: inner.merged_records,
        }
    }
}

impl ObservationProvider for ObservationStore {
    fn hosts(&self) -> Vec<HostDescriptor> {
        self.inner
            .read()
            .sorted_hosts()
            .into_iter()
            .map(|h| h.descriptor)
            .collect()
    }

    fn ping(&self, from: NodeId, to: NodeId) -> PingObservation {
        self.inner
            .read()
            .ping_lookup(from, to)
            .map(|e| e.observation.clone())
            .unwrap_or_default()
    }

    fn min_rtt(&self, from: NodeId, to: NodeId) -> Option<Latency> {
        self.inner
            .read()
            .ping_lookup(from, to)
            .and_then(|e| e.observation.min())
    }

    fn traceroute(&self, from: NodeId, to: NodeId) -> Vec<TracerouteHop> {
        self.inner
            .read()
            .trace_lookup(from, to)
            .map(|e| e.hops.clone())
            .unwrap_or_default()
    }

    fn node_by_ip(&self, ip: [u8; 4]) -> Option<NodeId> {
        self.inner.read().ip_to_node.get(&ip).map(|&(_, node)| node)
    }

    fn reverse_dns(&self, ip: [u8; 4]) -> Option<String> {
        self.inner.read().dns.get(&ip).map(|(_, name)| name.clone())
    }

    fn whois_city(&self, ip: [u8; 4]) -> Option<String> {
        self.inner
            .read()
            .whois
            .get(&ip)
            .map(|(_, city)| city.clone())
    }

    fn advertised_location(&self, id: NodeId) -> Option<GeoPoint> {
        let inner = self.inner.read();
        inner
            .host_slots
            .get(&id)
            .map(|&slot| inner.hosts[slot].1.true_location)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{HostSpec, NetworkBuilder, NetworkConfig};
    use crate::latency::LatencyModel;
    use crate::probe::Prober;
    use octant_geo::sites;
    use octant_geo::units::Latency;

    fn capture(n: usize, seed: u64) -> MeasurementDataset {
        let mut builder = NetworkBuilder::new(NetworkConfig {
            seed,
            ..NetworkConfig::default()
        });
        for site in sites::planetlab_51().iter().take(n) {
            builder = builder.add_host(HostSpec::from_site(site));
        }
        MeasurementDataset::capture(&Prober::with_options(
            builder.build(),
            LatencyModel::default(),
            0.1,
            5,
            seed,
        ))
    }

    #[test]
    fn streamed_capture_replays_identically() {
        let ds = capture(6, 11);
        let store = ObservationStore::from_dataset(StoreConfig::default(), &ds);
        let hosts = ds.host_ids();
        for &a in &hosts {
            for &b in &hosts {
                assert_eq!(store.ping(a, b), ds.ping(a, b));
                assert_eq!(store.traceroute(a, b), ds.traceroute(a, b));
            }
            assert_eq!(store.advertised_location(a), ds.advertised_location(a));
        }
        let snap = store.snapshot_dataset();
        assert_eq!(snap.ping_count(), ds.ping_count());
        assert_eq!(snap.traceroute_count(), ds.traceroute_count());
    }

    #[test]
    fn shuffled_batches_converge_to_the_same_state() {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let ds = capture(6, 13);
        let mut records = ObservationRecord::from_dataset(&ds, 0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        records.shuffle(&mut rng);
        // Tiny flush threshold: many amortized merges along the way.
        let store = ObservationStore::new(StoreConfig::default().with_flush_threshold(16));
        for chunk in records.chunks(37) {
            store.ingest(chunk.to_vec());
        }
        assert!(store.stats().merges > 1, "merges must amortize");
        let hosts = ds.host_ids();
        for &a in &hosts {
            for &b in &hosts {
                assert_eq!(store.ping(a, b), ds.ping(a, b));
            }
        }
        // The snapshot view carries the identical observation content.
        let snap = store.snapshot_dataset();
        for &a in &hosts {
            for &b in &hosts {
                assert_eq!(snap.ping(a, b), ds.ping(a, b));
                assert_eq!(snap.traceroute(a, b), ds.traceroute(a, b));
            }
        }
    }

    #[test]
    fn later_seq_wins_regardless_of_ingest_order() {
        let store = ObservationStore::new(StoreConfig::default().with_flush_threshold(2));
        let old = PingObservation::new(vec![Latency::from_ms(10.0)]);
        let new = PingObservation::new(vec![Latency::from_ms(20.0)]);
        let rec = |obs: &PingObservation, seq| ObservationRecord::Ping {
            from: NodeId(1),
            to: NodeId(2),
            observation: obs.clone(),
            seq,
        };
        // Newer first, older second: the older record must not clobber.
        store.ingest(vec![rec(&new, 5)]);
        store.ingest(vec![rec(&old, 3)]);
        assert_eq!(store.ping(NodeId(1), NodeId(2)), new);
        // And the reverse order lands in the same state.
        let store2 = ObservationStore::new(StoreConfig::default().with_flush_threshold(2));
        store2.ingest(vec![rec(&old, 3)]);
        store2.ingest(vec![rec(&new, 5)]);
        assert_eq!(store2.ping(NodeId(1), NodeId(2)), new);
    }

    #[test]
    fn changed_since_tracks_touched_nodes_per_version() {
        let store = ObservationStore::new(StoreConfig::default());
        let v1 = store.ingest(vec![ObservationRecord::Ping {
            from: NodeId(1),
            to: NodeId(2),
            observation: PingObservation::new(vec![Latency::from_ms(5.0)]),
            seq: 1,
        }]);
        let v2 = store.ingest(vec![ObservationRecord::Ping {
            from: NodeId(2),
            to: NodeId(3),
            observation: PingObservation::new(vec![Latency::from_ms(6.0)]),
            seq: 2,
        }]);
        assert!(v2 > v1);
        assert_eq!(store.changed_since(v2), vec![]);
        // Pings are attributed to the prober, not the destination.
        assert_eq!(store.changed_since(v1), vec![NodeId(2)]);
        assert_eq!(store.changed_since(0), vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn reads_see_buffered_writes_before_any_flush() {
        // Huge threshold: nothing ever merges, reads still see the write.
        let store = ObservationStore::new(StoreConfig::default().with_flush_threshold(1_000_000));
        store.ingest(vec![ObservationRecord::Ping {
            from: NodeId(7),
            to: NodeId(8),
            observation: PingObservation::new(vec![Latency::from_ms(9.0)]),
            seq: 1,
        }]);
        assert_eq!(store.stats().indexed_pings, 0);
        assert_eq!(store.stats().buffered_pings, 1);
        assert_eq!(
            store.ping(NodeId(7), NodeId(8)).min(),
            Some(Latency::from_ms(9.0))
        );
    }
}
