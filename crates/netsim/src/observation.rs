//! The observation interface Octant is allowed to use.
//!
//! The localization algorithms never see the simulated topology or any
//! ground-truth coordinates (except the landmarks' own advertised positions);
//! they interact with the network exclusively through this trait — pings,
//! traceroutes, reverse DNS and WHOIS — exactly the information the paper's
//! deployment had access to.

use crate::topology::NodeId;
use octant_geo::point::GeoPoint;
use octant_geo::units::Latency;
use serde::{Deserialize, Serialize};

/// A host visible to the measurement infrastructure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HostDescriptor {
    /// Node id of the host.
    pub id: NodeId,
    /// DNS hostname.
    pub hostname: String,
    /// IPv4 address.
    pub ip: [u8; 4],
}

/// The result of a `ping` measurement: the RTT of each probe that was
/// answered. An empty sample set means the target was unreachable.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct PingObservation {
    /// Round-trip times of the answered probes, in probe order.
    pub samples: Vec<Latency>,
}

impl PingObservation {
    /// Creates an observation from samples.
    pub fn new(samples: Vec<Latency>) -> Self {
        PingObservation { samples }
    }

    /// `true` when no probe was answered.
    pub fn is_unreachable(&self) -> bool {
        self.samples.is_empty()
    }

    /// The minimum RTT — the standard estimator for the propagation+floor
    /// component, used throughout Octant.
    pub fn min(&self) -> Option<Latency> {
        self.samples.iter().copied().reduce(Latency::min)
    }

    /// The median RTT.
    pub fn median(&self) -> Option<Latency> {
        if self.samples.is_empty() {
            return None;
        }
        let mut v: Vec<f64> = self.samples.iter().map(|l| l.ms()).collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        Some(Latency::from_ms(v[v.len() / 2]))
    }

    /// The mean RTT.
    pub fn mean(&self) -> Option<Latency> {
        if self.samples.is_empty() {
            return None;
        }
        Some(Latency::from_ms(
            self.samples.iter().map(|l| l.ms()).sum::<f64>() / self.samples.len() as f64,
        ))
    }
}

/// One hop of a traceroute: the router answering at that TTL, and the
/// (minimum) RTT observed to it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TracerouteHop {
    /// Node id of the router (resolvable via
    /// [`ObservationProvider::node_by_ip`] as well).
    pub node: NodeId,
    /// The router's IPv4 address.
    pub ip: [u8; 4],
    /// The router's DNS name (what a reverse lookup would return).
    pub hostname: String,
    /// Minimum RTT from the traceroute source to this hop.
    pub rtt: Latency,
}

/// The measurement interface available to geolocalization algorithms.
pub trait ObservationProvider {
    /// The hosts that can act as landmarks or targets.
    fn hosts(&self) -> Vec<HostDescriptor>;

    /// Sends a fixed number of time-dispersed probes from `from` to `to` and
    /// reports the answered RTTs.
    fn ping(&self, from: NodeId, to: NodeId) -> PingObservation;

    /// The minimum RTT of [`ObservationProvider::ping`], the estimator every
    /// Octant constraint uses. Must equal `self.ping(from, to).min()`;
    /// providers that store their observations override it to read the
    /// minimum without copying the samples.
    fn min_rtt(&self, from: NodeId, to: NodeId) -> Option<Latency> {
        self.ping(from, to).min()
    }

    /// Runs a traceroute from `from` to `to`, reporting each intermediate
    /// router hop (the destination itself is not included).
    fn traceroute(&self, from: NodeId, to: NodeId) -> Vec<TracerouteHop>;

    /// Resolves an IP address to the node id it belongs to (if the address is
    /// known to the measurement infrastructure).
    fn node_by_ip(&self, ip: [u8; 4]) -> Option<NodeId>;

    /// Reverse DNS lookup.
    fn reverse_dns(&self, ip: [u8; 4]) -> Option<String>;

    /// WHOIS lookup for the IP's prefix, returning the registered city code
    /// (which may be stale or wrong — exactly like the real database).
    fn whois_city(&self, ip: [u8; 4]) -> Option<String>;

    /// The advertised (ground-truth) location of a host used as a landmark.
    /// Returns `None` for nodes whose position is not published.
    ///
    /// In the paper's evaluation every PlanetLab node's true position is
    /// known externally but is *only* consulted when the node serves as a
    /// landmark — never when it is the current target.
    fn advertised_location(&self, id: NodeId) -> Option<GeoPoint>;
}

/// Forwarding impls so shared handles to a provider are providers
/// themselves. A long-lived serving layer keeps one replay-stable dataset
/// behind an [`std::sync::Arc`] and hands cheap clones to worker threads and
/// model-refresh tasks; `&P` forwarding additionally lets borrowed providers
/// flow through generic `P: ObservationProvider` entry points.
macro_rules! forward_observation_provider {
    ($($t:ty),+) => {$(
        impl<P: ObservationProvider + ?Sized> ObservationProvider for $t {
            fn hosts(&self) -> Vec<HostDescriptor> {
                (**self).hosts()
            }
            fn ping(&self, from: NodeId, to: NodeId) -> PingObservation {
                (**self).ping(from, to)
            }
            fn min_rtt(&self, from: NodeId, to: NodeId) -> Option<Latency> {
                (**self).min_rtt(from, to)
            }
            fn traceroute(&self, from: NodeId, to: NodeId) -> Vec<TracerouteHop> {
                (**self).traceroute(from, to)
            }
            fn node_by_ip(&self, ip: [u8; 4]) -> Option<NodeId> {
                (**self).node_by_ip(ip)
            }
            fn reverse_dns(&self, ip: [u8; 4]) -> Option<String> {
                (**self).reverse_dns(ip)
            }
            fn whois_city(&self, ip: [u8; 4]) -> Option<String> {
                (**self).whois_city(ip)
            }
            fn advertised_location(&self, id: NodeId) -> Option<GeoPoint> {
                (**self).advertised_location(id)
            }
        }
    )+};
}

forward_observation_provider!(&P, std::sync::Arc<P>);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ping_observation_statistics() {
        let obs = PingObservation::new(vec![
            Latency::from_ms(20.0),
            Latency::from_ms(12.0),
            Latency::from_ms(35.0),
            Latency::from_ms(13.0),
            Latency::from_ms(12.5),
        ]);
        assert!(!obs.is_unreachable());
        assert_eq!(obs.min().unwrap().ms(), 12.0);
        assert_eq!(obs.median().unwrap().ms(), 13.0);
        assert!((obs.mean().unwrap().ms() - 18.5).abs() < 1e-9);
    }

    #[test]
    fn empty_observation_is_unreachable() {
        let obs = PingObservation::default();
        assert!(obs.is_unreachable());
        assert!(obs.min().is_none());
        assert!(obs.median().is_none());
        assert!(obs.mean().is_none());
    }

    #[test]
    fn single_sample_statistics_coincide() {
        let obs = PingObservation::new(vec![Latency::from_ms(7.0)]);
        assert_eq!(obs.min(), obs.median());
        assert_eq!(obs.min(), obs.mean());
    }
}
