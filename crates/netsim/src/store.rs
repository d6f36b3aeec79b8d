//! Streaming observation ingest.
//!
//! [`MeasurementDataset`] is a frozen capture, the paper's collect-once,
//! evaluate-forever shape. In a deployment, probe observations arrive
//! *continuously* and the serving tier reads "everything observed so far"
//! while ingest goes on. [`ObservationStore`] is one [`MeasurementDataset`]
//! behind a read-write lock: [`ObservationStore::ingest`] applies each
//! record to it in place, every [`ObservationProvider`] read is the
//! dataset's own lookup, and [`ObservationStore::snapshot_dataset`] is a
//! clone of it. Seeding from a capture ([`ObservationStore::from_dataset`])
//! goes through the same ingest.
//!
//! Every ingest batch bumps a monotonically increasing **version**; the
//! store remembers, per node, the last version that touched its observation
//! set, so a model-refresh loop can ask [`ObservationStore::changed_since`]
//! for exactly the landmarks whose calibration inputs may have moved — the
//! driver of `Octant::prepare_landmarks_incremental` in `octant-core`.
//!
//! Each keyed entry (a host, a directed pair's ping or traceroute, an
//! address's DNS name, WHOIS city or node) holds the record with the
//! highest **`seq`**, the caller's logical observation time, and at equal
//! `seq` the greater value in a fixed order. A traceroute's hops are
//! DNS-name and IP-binding records, and a host record an IP-binding
//! record, at the record's own `seq`. The stored state is thus a pure
//! function of the ingested record *set*, independent of batching and
//! arrival order, so streaming ingest in shuffled batches is bit-identical
//! to a frozen capture.

use crate::dataset::{DatasetHost, MeasurementDataset};
use crate::observation::{HostDescriptor, ObservationProvider, PingObservation, TracerouteHop};
use crate::topology::NodeId;
use octant_geo::point::GeoPoint;
use octant_geo::units::Latency;
use parking_lot::RwLock;
use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};

/// The settings of an [`ObservationStore`], of which there are none; it
/// stays for callers that pass one to [`ObservationStore::from_dataset`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct StoreConfig {}

/// One streamed observation at `seq`, the caller's logical observation
/// time; the module docs give how records of one key resolve.
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

/// A point-in-time gauge of the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct StoreStats {
    /// Current store version (bumped once per ingest batch).
    pub version: u64,
    /// Hosts known to the store.
    pub hosts: usize,
    /// Directed pairs with a stored ping observation.
    pub pings: usize,
    /// Directed pairs with a stored traceroute.
    pub traceroutes: usize,
}

/// The key of one stored entry, under which the store keeps the `seq` of
/// the record the entry holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Key {
    Host(NodeId),
    Ping(NodeId, NodeId),
    Traceroute(NodeId, NodeId),
    Dns([u8; 4]),
    Whois([u8; 4]),
    Ip([u8; 4]),
}

/// The value order that breaks a `seq` tie between two ping observations
/// of one pair: their samples' bit patterns, compared lexicographically.
fn ping_order(a: &[Latency], b: &[Latency]) -> Ordering {
    a.iter()
        .map(|l| l.ms().to_bits())
        .cmp(b.iter().map(|l| l.ms().to_bits()))
}

/// The same for traceroutes: the hop walk (node, RTT bits), then the hops'
/// addresses and names.
fn trace_order(a: &[TracerouteHop], b: &[TracerouteHop]) -> Ordering {
    fn walk(hops: &[TracerouteHop]) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        hops.iter().map(|h| (h.node, h.rtt.ms().to_bits()))
    }
    fn names(hops: &[TracerouteHop]) -> impl Iterator<Item = ([u8; 4], &str)> + '_ {
        hops.iter().map(|h| (h.ip, h.hostname.as_str()))
    }
    walk(a).cmp(walk(b)).then_with(|| names(a).cmp(names(b)))
}

/// The same for two announcements of one host: address, name, then
/// location.
fn host_order(a: &DatasetHost, b: &DatasetHost) -> Ordering {
    (a.descriptor.ip, &a.descriptor.hostname)
        .cmp(&(b.descriptor.ip, &b.descriptor.hostname))
        .then(a.true_location.lat.total_cmp(&b.true_location.lat))
        .then(a.true_location.lon.total_cmp(&b.true_location.lon))
}

#[derive(Debug, Default)]
struct StoreInner {
    /// Every entry's winning record, hosts in ascending id order.
    dataset: MeasurementDataset,
    /// The `seq` of the record behind each entry of `dataset`.
    seqs: HashMap<Key, u64>,
    version: u64,
    /// The last version whose batch touched each node's observation set.
    touched: BTreeMap<NodeId, u64>,
}

impl StoreInner {
    fn touch(&mut self, node: NodeId) {
        self.touched.insert(node, self.version);
    }

    /// Whether a record of `key` at `seq` replaces the stored entry, and if
    /// so records its `seq`: a new key or a higher `seq` always does, an
    /// equal `seq` when `order` ranks the record's value above the stored
    /// one.
    fn replaces(
        &mut self,
        key: Key,
        seq: u64,
        order: impl FnOnce(&MeasurementDataset) -> Ordering,
    ) -> bool {
        match self.seqs.entry(key) {
            Entry::Vacant(slot) => {
                slot.insert(seq);
                true
            }
            Entry::Occupied(mut slot) => {
                let wins = match seq.cmp(slot.get()) {
                    Ordering::Equal => order(&self.dataset).is_gt(),
                    unequal => unequal.is_gt(),
                };
                if wins {
                    slot.insert(seq);
                }
                wins
            }
        }
    }

    fn bind_ip(&mut self, ip: [u8; 4], node: NodeId, seq: u64) {
        if self.replaces(Key::Ip(ip), seq, |ds| node.cmp(&ds.ip_to_node[&ip])) {
            self.dataset.ip_to_node.insert(ip, node);
        }
    }

    fn name(&mut self, ip: [u8; 4], hostname: &str, seq: u64) {
        if self.replaces(Key::Dns(ip), seq, |ds| hostname.cmp(&ds.dns[&ip])) {
            self.dataset.dns.insert(ip, hostname.to_owned());
        }
    }

    fn apply(&mut self, record: ObservationRecord) {
        match record {
            ObservationRecord::Host {
                descriptor,
                location,
                seq,
            } => {
                let id = descriptor.id;
                self.bind_ip(descriptor.ip, id, seq);
                let host = DatasetHost {
                    descriptor,
                    true_location: location,
                };
                let found = self
                    .dataset
                    .hosts
                    .binary_search_by_key(&id, |h| h.descriptor.id);
                let (Ok(slot) | Err(slot)) = found;
                if self.replaces(Key::Host(id), seq, |ds| host_order(&host, &ds.hosts[slot])) {
                    match found {
                        Ok(_) => self.dataset.hosts[slot] = host,
                        Err(_) => self.dataset.hosts.insert(slot, host),
                    }
                }
                self.touch(id);
            }
            ObservationRecord::Ping {
                from,
                to,
                observation,
                seq,
            } => {
                if self.replaces(Key::Ping(from, to), seq, |ds| {
                    ping_order(&observation.samples, ds.pings[&(from, to)].samples())
                }) {
                    self.dataset.insert_ping(from, to, observation);
                }
                // A record under (from, to) only changes lookups from
                // `from`, so marking the prober alone keeps `changed_since`
                // tight enough for incremental recalibration to skip
                // untouched landmarks' pairs.
                self.touch(from);
            }
            ObservationRecord::Traceroute {
                from,
                to,
                hops,
                seq,
            } => {
                for hop in &hops {
                    self.bind_ip(hop.ip, hop.node, seq);
                    self.name(hop.ip, &hop.hostname, seq);
                }
                if self.replaces(Key::Traceroute(from, to), seq, |ds| {
                    trace_order(&hops, &ds.traceroutes[&(from, to)])
                }) {
                    self.dataset.traceroutes.insert((from, to), hops);
                }
                self.touch(from);
            }
            ObservationRecord::ReverseDns { ip, hostname, seq } => self.name(ip, &hostname, seq),
            ObservationRecord::Whois { ip, city, seq } => {
                if self.replaces(Key::Whois(ip), seq, |ds| city.cmp(&ds.whois[&ip])) {
                    self.dataset.whois.insert(ip, city);
                }
            }
            ObservationRecord::IpBinding { ip, node, seq } => self.bind_ip(ip, node, seq),
        }
    }
}

/// The streaming measurement store (see the module docs): an
/// [`ObservationProvider`] whose reads see every ingested batch.
#[derive(Debug, Default)]
pub struct ObservationStore {
    inner: RwLock<StoreInner>,
}

impl ObservationStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        ObservationStore::default()
    }

    /// Creates a store seeded with a frozen capture: one ingest batch of the
    /// dataset's records at `seq` 0. The [`StoreConfig`] sets nothing.
    pub fn from_dataset(_config: StoreConfig, dataset: &MeasurementDataset) -> Self {
        let store = ObservationStore::new();
        store.ingest(ObservationRecord::from_dataset(dataset, 0));
        store
    }

    /// Ingests one batch of records: applies each to the stored dataset
    /// under the conflict rule of the module docs, records which nodes'
    /// observation sets the batch touched, and bumps the store version.
    /// Returns the new version.
    pub fn ingest(&self, records: impl IntoIterator<Item = ObservationRecord>) -> u64 {
        let mut inner = self.inner.write();
        inner.version += 1;
        for record in records {
            inner.apply(record);
        }
        inner.version
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
        let touched = inner.touched.iter().filter(|(_, &v)| v > version);
        touched.map(|(&id, _)| id).collect()
    }

    /// A copy of the store's current state (hosts in ascending id order,
    /// each key's winning record). It is replay-stable and independent of
    /// how the records were batched or ordered at ingest time.
    pub fn snapshot_dataset(&self) -> MeasurementDataset {
        self.inner.read().dataset.clone()
    }

    /// A point-in-time gauge of the store.
    pub fn stats(&self) -> StoreStats {
        let inner = self.inner.read();
        StoreStats {
            version: inner.version,
            hosts: inner.dataset.hosts.len(),
            pings: inner.dataset.ping_count(),
            traceroutes: inner.dataset.traceroute_count(),
        }
    }
}

impl ObservationProvider for ObservationStore {
    fn hosts(&self) -> Vec<HostDescriptor> {
        self.inner.read().dataset.hosts()
    }

    fn ping(&self, from: NodeId, to: NodeId) -> PingObservation {
        self.inner.read().dataset.ping(from, to)
    }

    fn min_rtt(&self, from: NodeId, to: NodeId) -> Option<Latency> {
        self.inner.read().dataset.min_rtt(from, to)
    }

    fn traceroute(&self, from: NodeId, to: NodeId) -> Vec<TracerouteHop> {
        self.inner.read().dataset.traceroute(from, to)
    }

    fn node_by_ip(&self, ip: [u8; 4]) -> Option<NodeId> {
        self.inner.read().dataset.node_by_ip(ip)
    }

    fn reverse_dns(&self, ip: [u8; 4]) -> Option<String> {
        self.inner.read().dataset.reverse_dns(ip)
    }

    fn whois_city(&self, ip: [u8; 4]) -> Option<String> {
        self.inner.read().dataset.whois_city(ip)
    }

    fn advertised_location(&self, id: NodeId) -> Option<GeoPoint> {
        self.inner.read().dataset.advertised_location(id)
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
        let store = ObservationStore::new();
        for chunk in records.chunks(37) {
            store.ingest(chunk.to_vec());
        }
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
        let store = ObservationStore::new();
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
        let store2 = ObservationStore::new();
        store2.ingest(vec![rec(&old, 3)]);
        store2.ingest(vec![rec(&new, 5)]);
        assert_eq!(store2.ping(NodeId(1), NodeId(2)), new);
    }

    #[test]
    fn changed_since_tracks_touched_nodes_per_version() {
        let store = ObservationStore::new();
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
    fn reads_see_every_ingested_batch() {
        let store = ObservationStore::new();
        assert_eq!(store.stats(), StoreStats::default());
        let version = store.ingest(vec![ObservationRecord::Ping {
            from: NodeId(7),
            to: NodeId(8),
            observation: PingObservation::new(vec![Latency::from_ms(9.0)]),
            seq: 1,
        }]);
        assert_eq!(
            store.stats(),
            StoreStats {
                version,
                pings: 1,
                ..StoreStats::default()
            }
        );
        assert_eq!(
            store.ping(NodeId(7), NodeId(8)).min(),
            Some(Latency::from_ms(9.0))
        );
    }

    /// Every answer `provider` gives about the given nodes and addresses,
    /// as one string, so two providers' states compare with `assert_eq!`.
    fn answers(provider: &dyn ObservationProvider, nodes: &[NodeId], ips: &[[u8; 4]]) -> String {
        let mut out = format!("{:?}\n", provider.hosts());
        for &a in nodes {
            out += &format!("{a}: {:?}\n", provider.advertised_location(a));
            for &b in nodes {
                out += &format!(
                    "{a}->{b}: {:?} {:?} {:?}\n",
                    provider.ping(a, b),
                    provider.min_rtt(a, b),
                    provider.traceroute(a, b)
                );
            }
        }
        for &ip in ips {
            out += &format!(
                "{ip:?}: {:?} {:?} {:?}\n",
                provider.node_by_ip(ip),
                provider.reverse_dns(ip),
                provider.whois_city(ip)
            );
        }
        out
    }

    #[test]
    fn equal_seq_conflicts_resolve_independently_of_arrival_order() {
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        let (a, b, c) = (NodeId(1), NodeId(2), NodeId(3));
        let (x, y, z) = ([10, 0, 0, 1], [10, 0, 0, 2], [10, 0, 0, 3]);
        let (h1, h2) = ([128, 0, 0, 1], [128, 0, 0, 2]);
        let host = |hostname: &str, ip, lat| ObservationRecord::Host {
            descriptor: HostDescriptor {
                id: a,
                hostname: hostname.into(),
                ip,
            },
            location: GeoPoint::new(lat, 10.0),
            seq: 1,
        };
        let ping = |ms| ObservationRecord::Ping {
            from: a,
            to: b,
            observation: PingObservation::new(vec![Latency::from_ms(ms)]),
            seq: 2,
        };
        let trace = |to, node, ip, hostname: &str, ms, seq| ObservationRecord::Traceroute {
            from: a,
            to,
            hops: vec![TracerouteHop {
                node: NodeId(node),
                ip,
                hostname: hostname.into(),
                rtt: Latency::from_ms(ms),
            }],
            seq,
        };
        let dns = |ip, hostname: &str, seq| ObservationRecord::ReverseDns {
            ip,
            hostname: hostname.into(),
            seq,
        };
        let whois = |city: &str| ObservationRecord::Whois {
            ip: x,
            city: city.into(),
            seq: 1,
        };
        let bind = |ip, node, seq| ObservationRecord::IpBinding {
            ip,
            node: NodeId(node),
            seq,
        };
        let records = vec![
            // One host announced with two names, addresses and places.
            host("a.example", h1, 1.0),
            host("b.example", h2, 2.0),
            host("a.example", h1, 3.0),
            ping(10.0),
            ping(20.0),
            // Two traceroutes of one pair that differ in an RTT, and one
            // that differs from the first only in its hop's address and name.
            trace(b, 7, x, "r7.example", 5.0, 2),
            trace(b, 7, x, "r7.example", 6.0, 2),
            trace(b, 7, y, "s7.example", 5.0, 2),
            // Names and bindings of one address from several kinds of
            // record at one `seq`, and a later traceroute hop against an
            // earlier reverse-DNS record.
            dns(x, "a.example.net", 2),
            dns(x, "b.example.net", 2),
            whois("nyc"),
            whois("sea"),
            bind(y, 9, 2),
            bind(h1, 4, 1),
            trace(c, 8, z, "t.example", 1.0, 5),
            dns(z, "r.example", 3),
        ];
        let nodes = [a, b, c, NodeId(7), NodeId(8)];
        let ips = [x, y, z, h1, h2];

        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut reference: Option<String> = None;
        for round in 0..24 {
            let mut shuffled = records.clone();
            shuffled.shuffle(&mut rng);
            let store = ObservationStore::new();
            let mut rest = &shuffled[..];
            while !rest.is_empty() {
                let take = rng.gen_range(1..=rest.len());
                store.ingest(rest[..take].to_vec());
                rest = &rest[take..];
            }
            let got = answers(&store, &nodes, &ips);
            assert_eq!(
                got,
                answers(&store.snapshot_dataset(), &nodes, &ips),
                "round {round}: snapshot"
            );
            match &reference {
                Some(first) => assert_eq!(&got, first, "round {round}"),
                None => reference = Some(got),
            }
        }

        // The highest `seq` wins across kinds, then the greater value.
        let store = ObservationStore::new();
        store.ingest(records);
        assert_eq!(store.reverse_dns(z).as_deref(), Some("t.example"));
        assert_eq!(store.min_rtt(a, b), Some(Latency::from_ms(20.0)));
        assert_eq!(store.traceroute(a, b)[0].rtt, Latency::from_ms(6.0));
        assert_eq!(store.whois_city(x).as_deref(), Some("sea"));
        assert_eq!(store.node_by_ip(y), Some(NodeId(9)));
    }
}
