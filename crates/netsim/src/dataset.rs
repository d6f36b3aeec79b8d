//! Recorded measurement campaigns.
//!
//! The paper's evaluation is a *dataset* experiment: all pairwise latency
//! measurements and traceroutes between 51 PlanetLab nodes are collected
//! once, then every localization technique is run over the same data.
//! [`MeasurementDataset::capture`] performs that collection against any
//! [`ObservationProvider`] (normally the live [`crate::Prober`]); the
//! resulting dataset is itself an [`ObservationProvider`], so the
//! localization code cannot tell the difference — and every algorithm sees
//! byte-identical measurements, exactly like in the paper.

use crate::observation::{HostDescriptor, ObservationProvider, PingObservation, TracerouteHop};
use crate::topology::{NodeId, NodeIdMap};
use octant_geo::point::GeoPoint;
use octant_geo::units::Latency;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A host in a recorded campaign, with its ground-truth location retained for
/// evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetHost {
    /// The host's descriptor (id, hostname, IP).
    pub descriptor: HostDescriptor,
    /// Ground-truth location (used to anchor the node when it serves as a
    /// landmark, and to score the estimate when it serves as a target).
    pub true_location: GeoPoint,
}

/// A fully recorded measurement campaign.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MeasurementDataset {
    /// The participating hosts.
    pub hosts: Vec<DatasetHost>,
    pub(crate) pings: NodeIdMap<(NodeId, NodeId), RecordedPing>,
    pub(crate) traceroutes: HashMap<(NodeId, NodeId), Vec<TracerouteHop>>,
    pub(crate) dns: HashMap<[u8; 4], String>,
    pub(crate) whois: HashMap<[u8; 4], String>,
    pub(crate) ip_to_node: HashMap<[u8; 4], NodeId>,
}

/// A recorded ping observation: its samples beside their minimum RTT, which
/// is taken once when the observation is recorded. Octant asks for the
/// minimum of every landmark pair of every prepare and of every
/// landmark-target pair of every solve, so [`MeasurementDataset::min_rtt`]
/// answers from here without scanning the samples. Boxing the samples
/// keeps an entry at three words, the size of a bare [`PingObservation`].
#[derive(Debug, Clone)]
pub(crate) struct RecordedPing {
    samples: Box<[Latency]>,
    /// `PingObservation::min` of the samples; unused when there are none.
    min: Latency,
}

impl RecordedPing {
    pub(crate) fn new(observation: PingObservation) -> Self {
        let min = observation.min().unwrap_or(Latency::ZERO);
        RecordedPing {
            samples: observation.samples.into_boxed_slice(),
            min,
        }
    }

    /// A copy of the recorded observation.
    pub(crate) fn observation(&self) -> PingObservation {
        PingObservation::new(self.samples.to_vec())
    }

    /// The recorded samples, in probe order.
    pub(crate) fn samples(&self) -> &[Latency] {
        &self.samples
    }

    /// The observation's minimum RTT, `None` when no probe was answered.
    fn min(&self) -> Option<Latency> {
        (!self.samples.is_empty()).then_some(self.min)
    }
}

impl MeasurementDataset {
    /// Records the ping observation of `(from, to)`, replacing any earlier
    /// one.
    pub(crate) fn insert_ping(&mut self, from: NodeId, to: NodeId, observation: PingObservation) {
        self.pings
            .insert((from, to), RecordedPing::new(observation));
    }

    /// Captures a full campaign: pairwise pings between all hosts, pairwise
    /// traceroutes, pings from each host to every router its traceroutes
    /// encountered, and DNS/WHOIS lookups for everything seen.
    pub fn capture<P: ObservationProvider + ?Sized>(provider: &P) -> Self {
        let descriptors = provider.hosts();
        let mut ds = MeasurementDataset::default();

        for d in &descriptors {
            let loc = provider
                .advertised_location(d.id)
                .unwrap_or_else(|| GeoPoint::new(0.0, 0.0));
            ds.ip_to_node.insert(d.ip, d.id);
            if let Some(name) = provider.reverse_dns(d.ip) {
                ds.dns.insert(d.ip, name);
            }
            if let Some(city) = provider.whois_city(d.ip) {
                ds.whois.insert(d.ip, city);
            }
            ds.hosts.push(DatasetHost {
                descriptor: d.clone(),
                true_location: loc,
            });
        }

        for a in &descriptors {
            for b in &descriptors {
                if a.id == b.id {
                    continue;
                }
                ds.insert_ping(a.id, b.id, provider.ping(a.id, b.id));
                let hops = provider.traceroute(a.id, b.id);
                for hop in &hops {
                    ds.ip_to_node.insert(hop.ip, hop.node);
                    ds.dns.entry(hop.ip).or_insert_with(|| hop.hostname.clone());
                    if let Some(city) = provider.whois_city(hop.ip) {
                        ds.whois.entry(hop.ip).or_insert(city);
                    }
                    // Latency from the landmark to the intermediate router,
                    // as collected in the paper's evaluation.
                    ds.pings
                        .entry((a.id, hop.node))
                        .or_insert_with(|| RecordedPing::new(provider.ping(a.id, hop.node)));
                }
                ds.traceroutes.insert((a.id, b.id), hops);
            }
        }
        ds
    }

    /// Number of recorded ping observations.
    pub fn ping_count(&self) -> usize {
        self.pings.len()
    }

    /// Number of recorded traceroutes.
    pub fn traceroute_count(&self) -> usize {
        self.traceroutes.len()
    }

    /// The ground-truth location of a host in the dataset.
    pub fn true_location(&self, id: NodeId) -> Option<GeoPoint> {
        self.hosts
            .iter()
            .find(|h| h.descriptor.id == id)
            .map(|h| h.true_location)
    }

    /// The host ids in the dataset, in capture order.
    pub fn host_ids(&self) -> Vec<NodeId> {
        self.hosts.iter().map(|h| h.descriptor.id).collect()
    }

    /// Wraps the dataset in an [`std::sync::Arc`] handle for concurrent
    /// serving: the dataset is replay-stable (same query → same observation,
    /// regardless of call order or thread), so one capture can safely back a
    /// long-lived service whose worker threads each hold a cheap clone of
    /// the handle. `Arc<MeasurementDataset>` is itself an
    /// [`ObservationProvider`] via the forwarding impl in
    /// [`crate::observation`].
    pub fn into_shared(self) -> std::sync::Arc<Self> {
        std::sync::Arc::new(self)
    }
}

impl ObservationProvider for MeasurementDataset {
    fn hosts(&self) -> Vec<HostDescriptor> {
        self.hosts.iter().map(|h| h.descriptor.clone()).collect()
    }

    fn ping(&self, from: NodeId, to: NodeId) -> PingObservation {
        self.pings
            .get(&(from, to))
            .map(RecordedPing::observation)
            .unwrap_or_default()
    }

    fn min_rtt(&self, from: NodeId, to: NodeId) -> Option<Latency> {
        self.pings.get(&(from, to)).and_then(RecordedPing::min)
    }

    fn traceroute(&self, from: NodeId, to: NodeId) -> Vec<TracerouteHop> {
        self.traceroutes
            .get(&(from, to))
            .cloned()
            .unwrap_or_default()
    }

    fn node_by_ip(&self, ip: [u8; 4]) -> Option<NodeId> {
        self.ip_to_node.get(&ip).copied()
    }

    fn reverse_dns(&self, ip: [u8; 4]) -> Option<String> {
        self.dns.get(&ip).cloned()
    }

    fn whois_city(&self, ip: [u8; 4]) -> Option<String> {
        self.whois.get(&ip).cloned()
    }

    fn advertised_location(&self, id: NodeId) -> Option<GeoPoint> {
        self.true_location(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{HostSpec, NetworkBuilder, NetworkConfig};
    use crate::latency::LatencyModel;
    use crate::probe::Prober;
    use octant_geo::sites;

    fn small_prober() -> Prober {
        // A small subset keeps the capture fast in unit tests.
        let mut builder = NetworkBuilder::new(NetworkConfig::default());
        for site in sites::planetlab_51().iter().take(8) {
            builder = builder.add_host(HostSpec::from_site(site));
        }
        Prober::with_options(builder.build(), LatencyModel::default(), 0.1, 5, 3)
    }

    #[test]
    fn capture_records_all_pairs() {
        let prober = small_prober();
        let ds = MeasurementDataset::capture(&prober);
        assert_eq!(ds.hosts.len(), 8);
        // 8*7 directed host pairs plus host-to-router pings.
        assert!(ds.ping_count() >= 56, "got {}", ds.ping_count());
        assert_eq!(ds.traceroute_count(), 56);
    }

    #[test]
    fn dataset_replays_identical_measurements() {
        let prober = small_prober();
        let ds = MeasurementDataset::capture(&prober);
        let hosts = ds.host_ids();
        let a = hosts[0];
        let b = hosts[3];
        // Replay is stable: the dataset returns the same observation every time.
        assert_eq!(ds.ping(a, b), ds.ping(a, b));
        assert!(!ds.ping(a, b).is_unreachable());
        // Traceroute hops resolve through the dataset's own IP table.
        for hop in ds.traceroute(a, b) {
            assert_eq!(ds.node_by_ip(hop.ip), Some(hop.node));
            assert_eq!(ds.reverse_dns(hop.ip).unwrap(), hop.hostname);
        }
    }

    #[test]
    fn unknown_pairs_report_unreachable() {
        let prober = small_prober();
        let ds = MeasurementDataset::capture(&prober);
        let bogus = NodeId(4242);
        assert!(ds.ping(bogus, ds.host_ids()[0]).is_unreachable());
        assert!(ds.traceroute(bogus, ds.host_ids()[0]).is_empty());
        assert!(ds.node_by_ip([1, 2, 3, 4]).is_none());
        assert!(ds.reverse_dns([1, 2, 3, 4]).is_none());
        assert!(ds.whois_city([1, 2, 3, 4]).is_none());
        assert!(ds.true_location(bogus).is_none());
    }

    #[test]
    fn ground_truth_locations_are_preserved() {
        let prober = small_prober();
        let ds = MeasurementDataset::capture(&prober);
        for (host, site) in ds.hosts.iter().zip(sites::planetlab_51().iter().take(8)) {
            assert_eq!(host.descriptor.hostname, site.hostname);
            let d = octant_geo::distance::great_circle_km(host.true_location, site.location());
            assert!(d < 1.0);
            assert_eq!(
                ds.advertised_location(host.descriptor.id),
                Some(host.true_location)
            );
        }
    }

    #[test]
    fn landmark_to_router_pings_are_captured() {
        let prober = small_prober();
        let ds = MeasurementDataset::capture(&prober);
        let hosts = ds.host_ids();
        let hops = ds.traceroute(hosts[0], hosts[1]);
        assert!(!hops.is_empty());
        for hop in hops {
            assert!(
                !ds.ping(hosts[0], hop.node).is_unreachable(),
                "expected a recorded ping from the landmark to router {}",
                hop.hostname
            );
        }
    }
}
