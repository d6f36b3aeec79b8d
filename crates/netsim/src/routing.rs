//! Policy-aware shortest-path routing.
//!
//! Routes are computed with Dijkstra's algorithm over a *routing weight* that
//! is the link's propagation delay multiplied by its policy cost (peering
//! links are penalized) plus a small per-hop charge. Because the weight is
//! not pure geographic distance, routes regularly deviate from great circles
//! — the route inflation Octant's piecewise localization (§2.3) exists to
//! cope with.

use crate::topology::{Network, NodeId, NodeIdMap};
use octant_geo::units::{Distance, Latency};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Per-hop routing charge in milliseconds, modelling lookup/serialization
/// costs and discouraging hop-maximizing paths.
const PER_HOP_COST_MS: f64 = 0.05;

/// A routed path through the network.
#[derive(Debug, Clone, PartialEq)]
pub struct Path {
    /// The node sequence, starting at the source and ending at the
    /// destination (inclusive).
    pub nodes: Vec<NodeId>,
    /// Total geographic fiber length of the path.
    pub length: Distance,
    /// Total one-way propagation delay of the path at 2/3 c.
    pub propagation: Latency,
}

impl Path {
    /// Number of hops (links) on the path.
    pub fn hop_count(&self) -> usize {
        self.nodes.len().saturating_sub(1)
    }

    /// The intermediate routers (every node except the two endpoints).
    pub fn intermediate(&self) -> &[NodeId] {
        if self.nodes.len() <= 2 {
            &[]
        } else {
            &self.nodes[1..self.nodes.len() - 1]
        }
    }

    /// Route inflation: path length relative to the great-circle distance
    /// between its endpoints.
    pub fn inflation(&self, net: &Network) -> f64 {
        if self.nodes.len() < 2 {
            return 1.0;
        }
        let a = net.node(self.nodes[0]).location;
        let b = net.node(*self.nodes.last().expect("non-empty")).location;
        let direct = octant_geo::distance::great_circle_km(a, b);
        if direct < 1e-9 {
            1.0
        } else {
            (self.length.km() / direct).max(1.0)
        }
    }
}

/// Shortest-path router with a per-source cache.
#[derive(Debug, Default)]
pub struct RouteTable {
    // For each source, predecessor tree and distances from one Dijkstra run.
    cache: NodeIdMap<NodeId, SourceTree>,
}

#[derive(Debug, Clone)]
struct SourceTree {
    predecessor: NodeIdMap<NodeId, NodeId>,
    cost: NodeIdMap<NodeId, f64>,
}

#[derive(Debug, PartialEq)]
struct HeapEntry {
    cost: f64,
    node: NodeId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on cost.
        other
            .cost
            .partial_cmp(&self.cost)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl RouteTable {
    /// Creates an empty route table.
    pub fn new() -> Self {
        RouteTable::default()
    }

    /// Computes (or returns the cached) route from `from` to `to`. Returns
    /// `None` when the destination is unreachable.
    pub fn route(&mut self, net: &Network, from: NodeId, to: NodeId) -> Option<Path> {
        if from == to {
            return Some(Path {
                nodes: vec![from],
                length: Distance::ZERO,
                propagation: Latency::ZERO,
            });
        }
        let tree = self
            .cache
            .entry(from)
            .or_insert_with(|| dijkstra(net, from));
        tree.cost.get(&to)?;
        // Reconstruct node sequence.
        let mut nodes = vec![to];
        let mut cur = to;
        while cur != from {
            cur = *tree.predecessor.get(&cur)?;
            nodes.push(cur);
        }
        nodes.reverse();
        // Accumulate geometry.
        let mut length = Distance::ZERO;
        for w in nodes.windows(2) {
            let link = net.find_link(w[0], w[1])?;
            length += link.length;
        }
        let propagation = Latency::from_ms(length.km() / octant_geo::units::FIBER_SPEED_KM_PER_MS);
        Some(Path {
            nodes,
            length,
            propagation,
        })
    }

    /// Drops all cached routes (e.g. after mutating the network).
    pub fn clear(&mut self) {
        self.cache.clear();
    }
}

fn dijkstra(net: &Network, source: NodeId) -> SourceTree {
    let mut cost: NodeIdMap<NodeId, f64> = NodeIdMap::default();
    let mut predecessor: NodeIdMap<NodeId, NodeId> = NodeIdMap::default();
    let mut heap = BinaryHeap::new();
    cost.insert(source, 0.0);
    heap.push(HeapEntry {
        cost: 0.0,
        node: source,
    });

    while let Some(HeapEntry { cost: c, node }) = heap.pop() {
        if c > *cost.get(&node).unwrap_or(&f64::INFINITY) {
            continue;
        }
        for &li in net.incident_links(node) {
            let link = net.links()[li];
            let other = if link.a == node { link.b } else { link.a };
            let w = link.propagation_delay().ms() * link.policy_cost + PER_HOP_COST_MS;
            let nc = c + w;
            if nc < *cost.get(&other).unwrap_or(&f64::INFINITY) {
                cost.insert(other, nc);
                predecessor.insert(other, node);
                heap.push(HeapEntry {
                    cost: nc,
                    node: other,
                });
            }
        }
    }
    SourceTree { predecessor, cost }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{NetworkBuilder, NetworkConfig};
    use crate::topology::NodeKind;
    use octant_geo::point::GeoPoint;

    fn planetlab() -> Network {
        NetworkBuilder::planetlab(NetworkConfig::default()).build()
    }

    #[test]
    fn routes_exist_between_all_host_pairs() {
        let net = planetlab();
        let mut table = RouteTable::new();
        let hosts = net.hosts();
        for &a in hosts.iter().take(10) {
            for &b in hosts.iter().rev().take(10) {
                if a == b {
                    continue;
                }
                let p = table
                    .route(&net, a, b)
                    .unwrap_or_else(|| panic!("no route {a}->{b}"));
                assert!(p.hop_count() >= 2, "host-to-host paths traverse routers");
                assert_eq!(p.nodes[0], a);
                assert_eq!(*p.nodes.last().unwrap(), b);
                // Every intermediate node is a router.
                for &r in p.intermediate() {
                    assert_ne!(
                        net.node(r).kind,
                        NodeKind::Host,
                        "hosts do not forward traffic"
                    );
                }
            }
        }
    }

    #[test]
    fn path_length_bounds() {
        let net = planetlab();
        let mut table = RouteTable::new();
        let hosts = net.hosts();
        for &a in hosts.iter().take(12) {
            for &b in hosts.iter().skip(12).take(12) {
                let p = table.route(&net, a, b).unwrap();
                let direct = octant_geo::distance::great_circle_km(
                    net.node(a).location,
                    net.node(b).location,
                );
                assert!(
                    p.length.km() >= direct * 0.99,
                    "path cannot be shorter than the geodesic"
                );
                let infl = p.inflation(&net);
                assert!(
                    infl < 6.0,
                    "inflation {infl} between {a} and {b} is implausibly large"
                );
            }
        }
    }

    #[test]
    fn same_node_route_is_trivial() {
        let net = planetlab();
        let mut table = RouteTable::new();
        let h = net.hosts()[0];
        let p = table.route(&net, h, h).unwrap();
        assert_eq!(p.nodes, vec![h]);
        assert_eq!(p.hop_count(), 0);
        assert_eq!(p.length, Distance::ZERO);
        assert_eq!(p.inflation(&net), 1.0);
    }

    #[test]
    fn unreachable_destination_returns_none() {
        let mut net = Network::new();
        let a = net.add_node(
            NodeKind::Host,
            GeoPoint::new(0.0, 0.0),
            "nyc",
            0,
            "a",
            [1, 0, 0, 1],
            1.0,
        );
        let b = net.add_node(
            NodeKind::Host,
            GeoPoint::new(1.0, 1.0),
            "nyc",
            0,
            "b",
            [1, 0, 0, 2],
            1.0,
        );
        let mut table = RouteTable::new();
        assert!(table.route(&net, a, b).is_none());
    }

    #[test]
    fn routes_are_cached_and_clearable() {
        let net = planetlab();
        let mut table = RouteTable::new();
        let hosts = net.hosts();
        let p1 = table.route(&net, hosts[0], hosts[1]).unwrap();
        let p2 = table.route(&net, hosts[0], hosts[1]).unwrap();
        assert_eq!(p1, p2);
        table.clear();
        let p3 = table.route(&net, hosts[0], hosts[1]).unwrap();
        assert_eq!(
            p1, p3,
            "routing is deterministic, so clearing must not change results"
        );
    }

    #[test]
    fn propagation_matches_length() {
        let net = planetlab();
        let mut table = RouteTable::new();
        let hosts = net.hosts();
        let p = table.route(&net, hosts[0], hosts[20]).unwrap();
        let expected = p.length.km() / octant_geo::units::FIBER_SPEED_KM_PER_MS;
        assert!((p.propagation.ms() - expected).abs() < 1e-9);
    }

    #[test]
    fn median_inflation_is_realistic() {
        // Across many host pairs, policy routing should inflate paths by a
        // noticeable but bounded factor (real-world studies report ~1.2-2x).
        let net = planetlab();
        let mut table = RouteTable::new();
        let hosts = net.hosts();
        let mut inflations = Vec::new();
        for (i, &a) in hosts.iter().enumerate() {
            for &b in hosts.iter().skip(i + 1) {
                let p = table.route(&net, a, b).unwrap();
                inflations.push(p.inflation(&net));
            }
        }
        inflations.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = inflations[inflations.len() / 2];
        // Provider backhaul plus policy routing inflates paths noticeably;
        // real-world studies put typical inflation at 1.2-2x, and the
        // simulator's regional-POP model sits a little above that. Anything
        // beyond 3x would indicate broken routing.
        assert!(median > 1.05 && median < 3.0, "median inflation {median}");
    }
}
