//! The live prober: an [`ObservationProvider`] backed by the simulated
//! network.
//!
//! A [`Prober`] owns the network, the routing table, the latency model and a
//! seeded RNG; every `ping` draws fresh probe samples (so repeated
//! measurements show realistic variation), while `traceroute` reports
//! per-hop minimum RTTs the way repeated ICMP time-exceeded probing would.

use crate::latency::LatencyModel;
use crate::observation::{HostDescriptor, ObservationProvider, PingObservation, TracerouteHop};
use crate::routing::{Path, RouteTable};
use crate::topology::{Network, NodeId, NodeKind};
use crate::whois::WhoisRegistry;
use octant_geo::point::GeoPoint;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Default number of time-dispersed probes per ping, matching the paper's
/// "10 time-dispersed round-trip measurements using ICMP ping probes".
pub const DEFAULT_PROBES_PER_PING: usize = 10;

/// A live measurement source over a simulated network.
#[derive(Debug)]
pub struct Prober {
    network: Network,
    model: LatencyModel,
    whois: WhoisRegistry,
    probes_per_ping: usize,
    routes: Mutex<RouteTable>,
    rng: Mutex<StdRng>,
}

impl Prober {
    /// Creates a prober with the default latency model, a WHOIS registry with
    /// a 15 % error rate and 10 probes per ping.
    pub fn new(network: Network, seed: u64) -> Self {
        Prober::with_options(
            network,
            LatencyModel::default(),
            0.15,
            DEFAULT_PROBES_PER_PING,
            seed,
        )
    }

    /// Creates a prober with full control over the measurement options.
    pub fn with_options(
        network: Network,
        model: LatencyModel,
        whois_error_rate: f64,
        probes_per_ping: usize,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0dd5);
        let whois = WhoisRegistry::generate(&network, whois_error_rate, &mut rng);
        let probes_per_ping = probes_per_ping.max(1);
        Prober {
            network,
            model: model.normalized(),
            whois,
            probes_per_ping,
            routes: Mutex::new(RouteTable::new()),
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
        }
    }

    /// The underlying network (ground truth — for evaluation only).
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// The latency model in use.
    pub fn model(&self) -> &LatencyModel {
        &self.model
    }

    /// The WHOIS registry in use.
    pub fn whois(&self) -> &WhoisRegistry {
        &self.whois
    }

    /// Number of probes each ping sends.
    pub fn probes_per_ping(&self) -> usize {
        self.probes_per_ping
    }

    fn route(&self, from: NodeId, to: NodeId) -> Option<Path> {
        self.routes.lock().route(&self.network, from, to)
    }
}

impl ObservationProvider for Prober {
    fn hosts(&self) -> Vec<HostDescriptor> {
        self.network
            .nodes()
            .iter()
            .filter(|n| n.kind == NodeKind::Host)
            .map(|n| HostDescriptor {
                id: n.id,
                hostname: n.hostname.clone(),
                ip: n.ip,
            })
            .collect()
    }

    fn ping(&self, from: NodeId, to: NodeId) -> PingObservation {
        let path = match self.route(from, to) {
            Some(p) => p,
            None => return PingObservation::default(),
        };
        let mut samples = Vec::with_capacity(self.probes_per_ping);
        let mut rng = self.rng.lock();
        for _ in 0..self.probes_per_ping {
            samples.extend(self.model.rtt_sample(&self.network, &path, &mut *rng));
        }
        PingObservation::new(samples)
    }

    fn traceroute(&self, from: NodeId, to: NodeId) -> Vec<TracerouteHop> {
        let path = match self.route(from, to) {
            Some(p) => p,
            None => return Vec::new(),
        };
        let mut rng = self.rng.lock();
        let mut hops = Vec::new();
        for &router in path.intermediate() {
            // RTT to the hop: probe the sub-path three times and keep the
            // minimum (traceroute implementations typically send 3 probes per
            // TTL).
            let sub = match self.routes.lock().route(&self.network, from, router) {
                Some(p) => p,
                None => continue,
            };
            let rtt = (0..3)
                .filter_map(|_| self.model.rtt_sample(&self.network, &sub, &mut *rng))
                .map(|l| l.ms())
                .fold(f64::INFINITY, f64::min);
            if !rtt.is_finite() {
                continue;
            }
            let node = self.network.node(router);
            hops.push(TracerouteHop {
                node: router,
                ip: node.ip,
                hostname: node.hostname.clone(),
                rtt: octant_geo::units::Latency::from_ms(rtt),
            });
        }
        hops
    }

    fn node_by_ip(&self, ip: [u8; 4]) -> Option<NodeId> {
        self.network.node_by_ip(ip).map(|n| n.id)
    }

    fn reverse_dns(&self, ip: [u8; 4]) -> Option<String> {
        self.network.node_by_ip(ip).map(|n| n.hostname.clone())
    }

    fn whois_city(&self, ip: [u8; 4]) -> Option<String> {
        self.whois.lookup(ip).map(|r| r.city_code.clone())
    }

    fn advertised_location(&self, id: NodeId) -> Option<GeoPoint> {
        let node = self.network.nodes().get(id.0 as usize)?;
        if node.kind == NodeKind::Host {
            Some(node.location)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{NetworkBuilder, NetworkConfig};
    use octant_geo::distance::great_circle_km;
    use octant_geo::units::{Distance, Latency};

    fn prober() -> Prober {
        let net = NetworkBuilder::planetlab(NetworkConfig::default()).build();
        Prober::new(net, 17)
    }

    #[test]
    fn hosts_are_exposed() {
        let p = prober();
        let hosts = p.hosts();
        assert_eq!(hosts.len(), 51);
        assert!(hosts.iter().all(|h| !h.hostname.is_empty()));
    }

    #[test]
    fn ping_returns_the_right_number_of_probes() {
        let p = prober();
        let hosts = p.hosts();
        let obs = p.ping(hosts[0].id, hosts[1].id);
        assert!(!obs.is_unreachable());
        assert!(obs.samples.len() <= DEFAULT_PROBES_PER_PING);
    }

    #[test]
    fn ping_rtt_respects_the_speed_of_light() {
        let p = prober();
        let hosts = p.hosts();
        for i in [1usize, 10, 25, 40] {
            let a = hosts[0].id;
            let b = hosts[i].id;
            let obs = p.ping(a, b);
            let min = obs.min().unwrap();
            let direct =
                great_circle_km(p.network().node(a).location, p.network().node(b).location);
            let sol_bound = Distance::max_fiber_distance_for_rtt(min).km();
            assert!(
                sol_bound >= direct * 0.999,
                "speed-of-light bound violated: rtt {min}, bound {sol_bound:.0} km, direct {direct:.0} km"
            );
        }
    }

    #[test]
    fn ping_to_self_is_fast() {
        let p = prober();
        let h = p.hosts()[0].id;
        let obs = p.ping(h, h);
        assert!(obs.min().unwrap() < Latency::from_ms(20.0));
    }

    #[test]
    fn traceroute_reports_monotone_intermediate_hops() {
        let p = prober();
        let hosts = p.hosts();
        let hops = p.traceroute(hosts[0].id, hosts[30].id);
        assert!(
            hops.len() >= 2,
            "host-to-host paths traverse at least access+backbone routers"
        );
        // Hops must all be routers and their floor RTTs should broadly increase.
        for h in &hops {
            let node = p.network().node(h.node);
            assert_ne!(node.kind, NodeKind::Host);
            assert_eq!(node.ip, h.ip);
        }
        let end_to_end = p.ping(hosts[0].id, hosts[30].id).min().unwrap();
        let last_hop = hops.last().unwrap().rtt;
        assert!(
            last_hop.ms() <= end_to_end.ms() + 40.0,
            "last hop should not hugely exceed the end-to-end RTT"
        );
    }

    #[test]
    fn traceroute_to_self_is_empty() {
        let p = prober();
        let h = p.hosts()[0].id;
        assert!(p.traceroute(h, h).is_empty());
    }

    #[test]
    fn dns_and_whois_lookups() {
        let p = prober();
        let hosts = p.hosts();
        let first = &hosts[0];
        assert_eq!(p.reverse_dns(first.ip).unwrap(), first.hostname);
        assert_eq!(p.node_by_ip(first.ip), Some(first.id));
        assert!(p.node_by_ip([9, 9, 9, 9]).is_none());
        assert!(p.whois_city(first.ip).is_some());
        assert!(p.whois_city([9, 9, 9, 9]).is_none());
    }

    #[test]
    fn advertised_locations_only_for_hosts() {
        let p = prober();
        let h = p.hosts()[0].id;
        assert!(p.advertised_location(h).is_some());
        let router = p.network().routers()[0];
        assert!(p.advertised_location(router).is_none());
        assert!(p.advertised_location(NodeId(9999)).is_none());
    }

    #[test]
    fn measurements_vary_between_probes_but_not_below_floor() {
        let p = prober();
        let hosts = p.hosts();
        let a = p.ping(hosts[2].id, hosts[7].id);
        let b = p.ping(hosts[2].id, hosts[7].id);
        // Different probe draws: with jitter the full sample vectors should differ.
        assert_ne!(a.samples, b.samples);
        // But the minimum is stable to within the jitter scale.
        assert!((a.min().unwrap().ms() - b.min().unwrap().ms()).abs() < 10.0);
    }

    #[test]
    fn noiseless_prober_is_fully_deterministic() {
        let net = NetworkBuilder::planetlab(NetworkConfig::default()).build();
        let p = Prober::with_options(net, LatencyModel::noiseless(), 0.0, 3, 1);
        let hosts = p.hosts();
        let a = p.ping(hosts[0].id, hosts[1].id);
        let b = p.ping(hosts[0].id, hosts[1].id);
        assert_eq!(a, b);
        assert_eq!(a.samples.len(), 3);
    }
}
