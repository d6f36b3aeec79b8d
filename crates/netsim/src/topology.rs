//! Router-level network topology: nodes, links and adjacency.

use octant_geo::distance::great_circle;
use octant_geo::point::GeoPoint;
use octant_geo::units::{Distance, Latency};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Identifier of a node (host or router) in the simulated network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A hash map keyed by node ids or pairs of them, under [`NodeIdHasher`]:
/// the adjacency index, the route tables and a dataset's pings.
pub(crate) type NodeIdMap<K, V> = HashMap<K, V, BuildHasherDefault<NodeIdHasher>>;

/// A multiply-xor hasher for node-id keys. A key hashes as its ids packed
/// into one word, multiplied by an odd constant, with the high half folded
/// into the low half (the table picks buckets from the low bits). The hash
/// only places entries in buckets, and lookups compare whole keys, so it
/// changes no answer, while SipHash was a measurable part of every route
/// and `min_rtt` lookup, more so where the compiler left it out of line.
/// The keys are node ids the network assigns, not input an adversary
/// picks, so there are no crafted collisions for SipHash to resist.
#[derive(Default)]
pub(crate) struct NodeIdHasher(u64);

impl Hasher for NodeIdHasher {
    fn finish(&self) -> u64 {
        let h = self.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^ (h >> 32)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(byte);
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.0 = self.0.rotate_left(32) ^ u64::from(v);
    }
}

/// The role a node plays in the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeKind {
    /// An end host (PlanetLab-like measurement node or target).
    Host,
    /// An access/aggregation router close to hosts.
    AccessRouter,
    /// A wide-area backbone router.
    BackboneRouter,
}

/// A node in the simulated network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Node {
    /// The node's identifier.
    pub id: NodeId,
    /// Host or router role.
    pub kind: NodeKind,
    /// Ground-truth physical location (never exposed to the localization
    /// algorithms except for designated landmarks).
    pub location: GeoPoint,
    /// Code of the city the node sits in (drives DNS naming and WHOIS).
    pub city_code: String,
    /// The provider ("AS") operating this node; hosts inherit their access
    /// provider.
    pub provider: u8,
    /// DNS hostname of the node.
    pub hostname: String,
    /// Synthetic IPv4 address.
    pub ip: [u8; 4],
    /// Minimum last-mile / processing delay attributable to this node in
    /// milliseconds (the quantity Octant's "height" estimation recovers).
    pub node_delay_ms: f64,
}

/// A bidirectional link between two nodes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Link {
    /// One endpoint.
    pub a: NodeId,
    /// Other endpoint.
    pub b: NodeId,
    /// Geographic length of the link (fiber path, slightly longer than the
    /// great-circle distance between the endpoints).
    pub length: Distance,
    /// Routing weight multiplier (inter-provider links are penalized, which
    /// produces policy-driven route inflation).
    pub policy_cost: f64,
}

impl Link {
    /// One-way propagation delay over this link at 2/3 c.
    pub fn propagation_delay(&self) -> Latency {
        Latency::from_ms(self.length.km() / octant_geo::units::FIBER_SPEED_KM_PER_MS)
    }
}

/// The full simulated network: nodes, links and adjacency index.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Network {
    nodes: Vec<Node>,
    links: Vec<Link>,
    #[serde(skip)]
    adjacency: NodeIdMap<NodeId, Vec<usize>>,
}

impl Network {
    /// Creates an empty network.
    pub fn new() -> Self {
        Network::default()
    }

    /// Adds a node and returns its id. Node ids are assigned densely in
    /// insertion order.
    #[allow(clippy::too_many_arguments)] // topology construction is inherently wide
    pub fn add_node(
        &mut self,
        kind: NodeKind,
        location: GeoPoint,
        city_code: impl Into<String>,
        provider: u8,
        hostname: impl Into<String>,
        ip: [u8; 4],
        node_delay_ms: f64,
    ) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            id,
            kind,
            location,
            city_code: city_code.into(),
            provider,
            hostname: hostname.into(),
            ip,
            node_delay_ms: node_delay_ms.max(0.0),
        });
        id
    }

    /// Adds a bidirectional link. The geographic length is the great-circle
    /// distance between the endpoints multiplied by `path_stretch` (real
    /// fiber never follows the geodesic exactly).
    pub fn add_link(&mut self, a: NodeId, b: NodeId, path_stretch: f64, policy_cost: f64) {
        if a == b || self.find_link(a, b).is_some() {
            return;
        }
        let length =
            great_circle(self.node(a).location, self.node(b).location) * path_stretch.max(1.0);
        let idx = self.links.len();
        self.links.push(Link {
            a,
            b,
            length,
            policy_cost: policy_cost.max(0.0),
        });
        self.adjacency.entry(a).or_default().push(idx);
        self.adjacency.entry(b).or_default().push(idx);
    }

    /// The node with the given id. Panics for unknown ids (ids are dense and
    /// only produced by [`Network::add_node`]).
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// All nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// All host nodes.
    pub fn hosts(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.kind == NodeKind::Host)
            .map(|n| n.id)
            .collect()
    }

    /// All router nodes (access + backbone).
    pub fn routers(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.kind != NodeKind::Host)
            .map(|n| n.id)
            .collect()
    }

    /// Indices (into [`Network::links`]) of the links incident to `id`.
    pub fn incident_links(&self, id: NodeId) -> &[usize] {
        self.adjacency.get(&id).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// The link between `a` and `b`, if one exists.
    pub fn find_link(&self, a: NodeId, b: NodeId) -> Option<&Link> {
        self.adjacency.get(&a).and_then(|idxs| {
            idxs.iter()
                .map(|&i| &self.links[i])
                .find(|l| (l.a == a && l.b == b) || (l.a == b && l.b == a))
        })
    }

    /// Looks up a host by hostname.
    pub fn host_by_name(&self, hostname: &str) -> Option<&Node> {
        self.nodes
            .iter()
            .find(|n| n.hostname.eq_ignore_ascii_case(hostname))
    }

    /// Looks up a node by IP address.
    pub fn node_by_ip(&self, ip: [u8; 4]) -> Option<&Node> {
        self.nodes.iter().find(|n| n.ip == ip)
    }

    /// Rebuilds the adjacency index; needed after deserializing a network
    /// (the index is not serialized).
    pub fn rebuild_index(&mut self) {
        self.adjacency.clear();
        for (idx, l) in self.links.iter().enumerate() {
            self.adjacency.entry(l.a).or_default().push(idx);
            self.adjacency.entry(l.b).or_default().push(idx);
        }
    }

    /// `true` when every node can reach every other node.
    pub fn is_connected(&self) -> bool {
        if self.nodes.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![self.nodes[0].id];
        seen[0] = true;
        let mut count = 1;
        while let Some(id) = stack.pop() {
            for &li in self.incident_links(id) {
                let l = self.links[li];
                let other = if l.a == id { l.b } else { l.a };
                let oi = other.0 as usize;
                if !seen[oi] {
                    seen[oi] = true;
                    count += 1;
                    stack.push(other);
                }
            }
        }
        count == self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_network() -> (Network, NodeId, NodeId, NodeId) {
        let mut net = Network::new();
        let a = net.add_node(
            NodeKind::Host,
            GeoPoint::new(42.44, -76.50),
            "ith",
            1,
            "host-a",
            [10, 0, 0, 1],
            3.0,
        );
        let b = net.add_node(
            NodeKind::BackboneRouter,
            GeoPoint::new(40.71, -74.01),
            "nyc",
            1,
            "r1.nyc",
            [10, 0, 0, 2],
            0.1,
        );
        let c = net.add_node(
            NodeKind::Host,
            GeoPoint::new(42.36, -71.06),
            "bos",
            2,
            "host-c",
            [10, 0, 1, 1],
            5.0,
        );
        net.add_link(a, b, 1.1, 1.0);
        net.add_link(b, c, 1.1, 1.0);
        (net, a, b, c)
    }

    #[test]
    fn nodes_and_links_are_registered() {
        let (net, a, b, c) = tiny_network();
        assert_eq!(net.node_count(), 3);
        assert_eq!(net.link_count(), 2);
        assert_eq!(net.hosts(), vec![a, c]);
        assert_eq!(net.routers(), vec![b]);
        assert_eq!(net.node(a).city_code, "ith");
        assert!(net.is_connected());
    }

    #[test]
    fn link_geometry_and_propagation() {
        let (net, a, b, _) = tiny_network();
        let l = net.find_link(a, b).unwrap();
        // Ithaca-NYC is ~280 km; with a 1.1 stretch the link is ~310 km.
        assert!(
            l.length.km() > 250.0 && l.length.km() < 350.0,
            "{}",
            l.length
        );
        let d = l.propagation_delay();
        assert!(d.ms() > 1.0 && d.ms() < 2.0, "{d}");
        // The link is registered in both directions.
        assert!(net.find_link(b, a).is_some());
        assert!(net.find_link(a, NodeId(2)).is_none());
    }

    #[test]
    fn duplicate_and_self_links_are_ignored() {
        let (mut net, a, b, _) = tiny_network();
        let before = net.link_count();
        net.add_link(a, b, 1.1, 1.0);
        net.add_link(a, a, 1.1, 1.0);
        assert_eq!(net.link_count(), before);
    }

    #[test]
    fn lookups() {
        let (net, a, _, _) = tiny_network();
        assert_eq!(net.host_by_name("HOST-A").unwrap().id, a);
        assert!(net.host_by_name("missing").is_none());
        assert_eq!(net.node_by_ip([10, 0, 0, 1]).unwrap().id, a);
        assert!(net.node_by_ip([8, 8, 8, 8]).is_none());
    }

    #[test]
    fn connectivity_detects_partitions() {
        let mut net = Network::new();
        let a = net.add_node(
            NodeKind::Host,
            GeoPoint::new(0.0, 0.0),
            "nyc",
            1,
            "a",
            [1, 1, 1, 1],
            1.0,
        );
        let b = net.add_node(
            NodeKind::Host,
            GeoPoint::new(1.0, 1.0),
            "nyc",
            1,
            "b",
            [1, 1, 1, 2],
            1.0,
        );
        let _c = net.add_node(
            NodeKind::Host,
            GeoPoint::new(2.0, 2.0),
            "nyc",
            1,
            "c",
            [1, 1, 1, 3],
            1.0,
        );
        net.add_link(a, b, 1.0, 1.0);
        assert!(!net.is_connected());
        assert!(
            Network::new().is_connected(),
            "the empty network is trivially connected"
        );
    }

    #[test]
    fn rebuild_index_restores_adjacency() {
        let (mut net, a, b, _) = tiny_network();
        net.adjacency.clear();
        assert!(net.incident_links(a).is_empty());
        net.rebuild_index();
        assert_eq!(net.incident_links(a).len(), 1);
        assert_eq!(net.incident_links(b).len(), 2);
    }

    #[test]
    fn negative_node_delay_is_clamped() {
        let mut net = Network::new();
        let id = net.add_node(
            NodeKind::Host,
            GeoPoint::new(0.0, 0.0),
            "nyc",
            1,
            "x",
            [1, 2, 3, 4],
            -5.0,
        );
        assert_eq!(net.node(id).node_delay_ms, 0.0);
    }
}
