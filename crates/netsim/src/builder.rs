//! Synthetic Internet topology generation.
//!
//! The generated network mirrors the structure that makes real-world
//! geolocation hard:
//!
//! * several competing backbone providers, each with routers in major cities,
//! * intra-provider links between nearby cities plus a handful of long-haul
//!   links, and inter-provider *peering* links only in some cities (which is
//!   what produces indirect, inflated routes — §2.3 of the paper),
//! * per-city access routers that hosts attach to through last-mile links
//!   with host-specific minimum queuing delays (what the paper's "height"
//!   computation recovers — §2.2).

use crate::dns;
use crate::topology::{Network, NodeId, NodeKind};
use octant_geo::cities::{self, City};
use octant_geo::distance::great_circle_km;
use octant_geo::point::GeoPoint;
use octant_geo::sites::Site;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Specification of a host to place in the network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HostSpec {
    /// DNS hostname for the host.
    pub hostname: String,
    /// True physical location of the host.
    pub location: GeoPoint,
    /// Code of the host's city (see [`octant_geo::cities`]).
    pub city_code: String,
}

impl HostSpec {
    /// Builds a host specification from a built-in measurement site.
    pub fn from_site(site: &Site) -> Self {
        HostSpec {
            hostname: site.hostname.to_string(),
            location: site.location(),
            city_code: site.city_code.to_string(),
        }
    }
}

/// Tunable parameters of the synthetic Internet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkConfig {
    /// RNG seed; the same seed reproduces the same network bit-for-bit.
    pub seed: u64,
    /// Number of backbone providers.
    pub providers: u8,
    /// Cities with at least this metro population (thousands) receive a
    /// backbone router from each provider that covers their continent.
    pub backbone_min_population_k: u32,
    /// How many nearest same-provider neighbours each backbone router links to.
    pub intra_provider_neighbors: usize,
    /// Fraction of backbone cities that host an inter-provider peering link.
    pub peering_city_fraction: f64,
    /// Policy-cost multiplier applied to inter-provider (peering) links.
    pub peering_penalty: f64,
    /// Physical fiber-path stretch applied to every link's great-circle length.
    pub link_stretch: (f64, f64),
    /// Range of per-host last-mile round-trip delays in milliseconds.
    pub host_delay_ms: (f64, f64),
    /// Range of per-router processing delays in milliseconds.
    pub router_delay_ms: (f64, f64),
    /// Fraction of *backbone* routers whose DNS name does not reveal their
    /// city.
    pub undns_miss_rate: f64,
    /// Fraction of *access* routers whose DNS name does not reveal their
    /// city. Real access/aggregation gear is named far less systematically
    /// than backbone interfaces, which is what keeps last-hop DNS hints from
    /// trivially giving away the target's metro area.
    pub access_undns_miss_rate: f64,
    /// Fraction of routers whose DNS name embeds the *wrong* city (stale or
    /// misleading naming), giving DNS-hint-based techniques a realistic error
    /// tail.
    pub undns_wrong_city_rate: f64,
    /// Access-router sharing radius in kilometres. `0.0` (the default) gives
    /// every host its own access router — byte-identical topology generation
    /// to earlier versions of this crate. A positive radius makes a host
    /// whose home is within the radius of an already-created access router
    /// attach through that router instead, modelling multiple customers
    /// behind one metro aggregation router. That is the serving-workload
    /// shape where traceroute last hops are *shared across targets* (the
    /// regime `octant-service`'s router sub-localization cache amortizes).
    pub access_share_radius_km: f64,
    /// Fraction of hosts whose DNS name is replaced by an ISP-customer-style
    /// name embedding the host's city code
    /// (`cpe-7.nyc.res.as64502.octantsim.net`) — the reverse-DNS convention
    /// Octant's `DnsNameSource` mines for §2.5 naming hints. `0.0` (the
    /// default) keeps the caller-supplied hostnames and consumes no RNG
    /// draws, so existing topologies are byte-identical.
    pub host_dns_city_rate: f64,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            seed: 42,
            providers: 4,
            backbone_min_population_k: 1200,
            intra_provider_neighbors: 3,
            peering_city_fraction: 0.35,
            peering_penalty: 2.0,
            link_stretch: (1.05, 1.35),
            host_delay_ms: (0.2, 4.0),
            router_delay_ms: (0.05, 0.5),
            undns_miss_rate: 0.45,
            access_undns_miss_rate: 0.9,
            undns_wrong_city_rate: 0.05,
            access_share_radius_km: 0.0,
            host_dns_city_rate: 0.0,
        }
    }
}

/// Builds [`Network`]s from a [`NetworkConfig`] and a list of hosts.
#[derive(Debug, Clone)]
pub struct NetworkBuilder {
    config: NetworkConfig,
    hosts: Vec<HostSpec>,
}

impl NetworkBuilder {
    /// Starts a builder with the given configuration.
    pub fn new(config: NetworkConfig) -> Self {
        NetworkBuilder {
            config,
            hosts: Vec::new(),
        }
    }

    /// A builder pre-populated with the paper-equivalent 51 PlanetLab sites.
    pub fn planetlab(config: NetworkConfig) -> Self {
        let mut b = NetworkBuilder::new(config);
        for site in octant_geo::sites::planetlab_51() {
            b = b.add_host(HostSpec::from_site(site));
        }
        b
    }

    /// Adds a host to the network.
    pub fn add_host(mut self, host: HostSpec) -> Self {
        self.hosts.push(host);
        self
    }

    /// Adds every host in the slice.
    pub fn add_hosts(mut self, hosts: &[HostSpec]) -> Self {
        self.hosts.extend_from_slice(hosts);
        self
    }

    /// The configured hosts.
    pub fn hosts(&self) -> &[HostSpec] {
        &self.hosts
    }

    /// Generates the network.
    pub fn build(&self) -> Network {
        let cfg = &self.config;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut net = Network::new();

        // --- Backbone routers -------------------------------------------------
        let backbone_cities: Vec<&City> = cities::CITIES
            .iter()
            .filter(|c| c.population_k >= cfg.backbone_min_population_k)
            .collect();
        let mut backbone: Vec<(NodeId, &City, u8)> = Vec::new();
        for (ci, city) in backbone_cities.iter().enumerate() {
            // One router per city per provider "present" in that city; each
            // provider covers roughly half the backbone cities.
            for p in 0..cfg.providers {
                let present = (ci + p as usize).is_multiple_of(2) || rng.gen_bool(0.3);
                if !present {
                    continue;
                }
                let delay = rng.gen_range(cfg.router_delay_ms.0..=cfg.router_delay_ms.1);
                let hostname = dns::router_hostname(
                    city.code,
                    p,
                    backbone.len() as u32,
                    true,
                    &mut rng,
                    cfg.undns_miss_rate,
                );
                let ip = [10, p + 1, (ci / 250) as u8, (ci % 250) as u8 + 1];
                let id = net.add_node(
                    NodeKind::BackboneRouter,
                    city.location(),
                    city.code,
                    p,
                    hostname,
                    ip,
                    delay,
                );
                backbone.push((id, city, p));
            }
        }

        // --- Backbone links ----------------------------------------------------
        // Intra-provider: each router links to its nearest same-provider peers.
        for (i, &(id, city, p)) in backbone.iter().enumerate() {
            let mut same: Vec<(f64, NodeId)> = backbone
                .iter()
                .enumerate()
                .filter(|&(j, &(_, _, q))| j != i && q == p)
                .map(|(_, &(other, ocity, _))| {
                    (great_circle_km(city.location(), ocity.location()), other)
                })
                .collect();
            same.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
            for &(_, other) in same.iter().take(cfg.intra_provider_neighbors) {
                let stretch = rng.gen_range(cfg.link_stretch.0..=cfg.link_stretch.1);
                net.add_link(id, other, stretch, 1.0);
            }
        }
        // Peering: in a fraction of cities, the providers present there peer.
        for (i, &(id, city, _)) in backbone.iter().enumerate() {
            if !rng.gen_bool(cfg.peering_city_fraction) {
                continue;
            }
            for &(other, ocity, _) in backbone.iter().skip(i + 1) {
                if ocity.code == city.code {
                    let stretch = rng.gen_range(cfg.link_stretch.0..=cfg.link_stretch.1);
                    net.add_link(id, other, stretch, cfg.peering_penalty);
                }
            }
        }
        // Connectivity patch-up: greedily connect components through their
        // geographically closest router pair (a cheap spanning structure).
        self.connect_components(&mut net, &mut rng);

        // --- Access routers and hosts ------------------------------------------
        // Access routers created so far, with the home location they serve,
        // for the opt-in sharing of access infrastructure between co-sited
        // hosts (see [`NetworkConfig::access_share_radius_km`]).
        let mut access_routers: Vec<(GeoPoint, NodeId, u8)> = Vec::new();
        for (hi, host) in self.hosts.iter().enumerate() {
            let home = cities::by_code(&host.city_code)
                .map(|c| c.location())
                .unwrap_or(host.location);
            // A host close enough to an existing access router attaches
            // through it (sharing disabled at the default radius of 0).
            // Reuse consumes no RNG draws, so topologies without co-sited
            // hosts are unaffected by the knob.
            let shared = if cfg.access_share_radius_km > 0.0 {
                access_routers
                    .iter()
                    .map(|&(loc, id, p)| (great_circle_km(home, loc), id, p))
                    .filter(|&(d, _, _)| d <= cfg.access_share_radius_km)
                    .min_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal))
            } else {
                None
            };
            if let Some((_, access, provider)) = shared {
                let host_delay = sample_last_mile(&mut rng, cfg.host_delay_ms);
                let hostname = host_dns_name(cfg, host, provider, hi, &mut rng);
                let host_ip = [128 + (hi / 200) as u8, (hi % 200) as u8 + 1, 13, 7];
                let host_id = net.add_node(
                    NodeKind::Host,
                    host.location,
                    host.city_code.clone(),
                    provider,
                    hostname,
                    host_ip,
                    host_delay,
                );
                let stretch = rng.gen_range(1.2..1.6);
                net.add_link(host_id, access, stretch, 1.0);
                continue;
            }
            // The host buys connectivity from one provider and its traffic is
            // backhauled to that provider's nearest point of presence — which
            // is why the last recognizable router on a path is frequently
            // *not* in the target's own city. Institutions usually pick a
            // provider with a nearby POP, so rank providers by how close
            // their nearest POP is and prefer (but don't guarantee) the
            // closest one.
            let mut provider_pops: Vec<(f64, NodeId, &City, u8)> = (0..cfg.providers.max(1))
                .filter_map(|p| {
                    backbone
                        .iter()
                        .filter(|&&(_, _, q)| q == p)
                        .map(|&(id, bcity, _)| {
                            (great_circle_km(home, bcity.location()), id, bcity, p)
                        })
                        .min_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal))
                })
                .collect();
            provider_pops
                .sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
            if provider_pops.is_empty() {
                provider_pops = backbone
                    .iter()
                    .map(|&(id, bcity, p)| (great_circle_km(home, bcity.location()), id, bcity, p))
                    .collect();
                provider_pops
                    .sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
            }
            let pick: f64 = rng.gen();
            let chosen = if pick < 0.7 || provider_pops.len() == 1 {
                0
            } else if pick < 0.92 || provider_pops.len() == 2 {
                1
            } else {
                2.min(provider_pops.len() - 1)
            };
            let (_, pop_router, pop_city, provider) = provider_pops[chosen];
            // Remaining POPs of the chosen provider, for the diversity uplink.
            let mut pops: Vec<(f64, NodeId, &City)> = backbone
                .iter()
                .filter(|&&(_, _, q)| q == provider)
                .map(|&(id, bcity, _)| (great_circle_km(home, bcity.location()), id, bcity))
                .collect();
            pops.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));

            let access_delay = rng.gen_range(cfg.router_delay_ms.0..=cfg.router_delay_ms.1) * 2.0;
            // Router names occasionally embed a wrong city (stale naming).
            let named_city = if rng.gen_bool(cfg.undns_wrong_city_rate.clamp(0.0, 1.0)) {
                cities::CITIES[rng.gen_range(0..cities::CITIES.len())].code
            } else {
                pop_city.code
            };
            let access_name = dns::router_hostname(
                named_city,
                provider,
                1000 + hi as u32,
                false,
                &mut rng,
                cfg.access_undns_miss_rate,
            );
            let access_ip = [10, 200, (hi / 250) as u8, (hi % 250) as u8 + 1];
            let access = net.add_node(
                NodeKind::AccessRouter,
                pop_city.location(),
                pop_city.code,
                provider,
                access_name,
                access_ip,
                access_delay,
            );
            // Uplinks: the co-located POP backbone router, plus a second
            // nearby POP for path diversity.
            let stretch = rng.gen_range(cfg.link_stretch.0..=cfg.link_stretch.1);
            net.add_link(access, pop_router, stretch, 1.0);
            if let Some(&(_, second, _)) = pops.get(1) {
                let stretch = rng.gen_range(cfg.link_stretch.0..=cfg.link_stretch.1);
                net.add_link(access, second, stretch, 1.0);
            }
            access_routers.push((home, access, provider));

            // The host itself.
            let host_delay = sample_last_mile(&mut rng, cfg.host_delay_ms);
            let hostname = host_dns_name(cfg, host, provider, hi, &mut rng);
            let host_ip = [128 + (hi / 200) as u8, (hi % 200) as u8 + 1, 13, 7];
            let host_id = net.add_node(
                NodeKind::Host,
                host.location,
                host.city_code.clone(),
                provider,
                hostname,
                host_ip,
                host_delay,
            );
            let stretch = rng.gen_range(1.2..1.6);
            net.add_link(host_id, access, stretch, 1.0);
        }

        // Make absolutely sure the final graph is connected (hosts in remote
        // regions might still be isolated if the backbone skipped their
        // continent).
        self.connect_components(&mut net, &mut rng);
        net
    }

    /// Connects disconnected components by adding links between their
    /// geographically closest node pairs until the network is connected.
    fn connect_components(&self, net: &mut Network, rng: &mut StdRng) {
        loop {
            let comps = components(net);
            if comps.len() <= 1 {
                return;
            }
            // Connect the first component to its nearest other component.
            let base = &comps[0];
            let mut best: Option<(f64, NodeId, NodeId)> = None;
            for other in &comps[1..] {
                for &a in base {
                    for &b in other {
                        let d = great_circle_km(net.node(a).location, net.node(b).location);
                        if best.map(|(bd, _, _)| d < bd).unwrap_or(true) {
                            best = Some((d, a, b));
                        }
                    }
                }
            }
            if let Some((_, a, b)) = best {
                let stretch =
                    rng.gen_range(self.config.link_stretch.0..=self.config.link_stretch.1);
                net.add_link(a, b, stretch, 1.0);
            } else {
                return;
            }
        }
    }
}

/// The DNS name a host is created with: the caller-supplied hostname, or —
/// with probability [`NetworkConfig::host_dns_city_rate`] — an
/// ISP-customer-style name embedding the host's city code. Consumes no RNG
/// draws when the knob is at its default of `0.0`, keeping old topologies
/// byte-identical.
fn host_dns_name(
    cfg: &NetworkConfig,
    host: &HostSpec,
    provider: u8,
    index: usize,
    rng: &mut StdRng,
) -> String {
    if cfg.host_dns_city_rate > 0.0 && rng.gen_bool(cfg.host_dns_city_rate.clamp(0.0, 1.0)) {
        dns::customer_hostname(&host.city_code, provider, index)
    } else {
        host.hostname.clone()
    }
}

/// Connected components of the network, as lists of node ids.
fn components(net: &Network) -> Vec<Vec<NodeId>> {
    let n = net.node_count();
    let mut seen = vec![false; n];
    let mut out = Vec::new();
    for start in 0..n {
        if seen[start] {
            continue;
        }
        let mut comp = Vec::new();
        let mut stack = vec![NodeId(start as u32)];
        seen[start] = true;
        while let Some(id) = stack.pop() {
            comp.push(id);
            for &li in net.incident_links(id) {
                let l = net.links()[li];
                let other = if l.a == id { l.b } else { l.a };
                if !seen[other.0 as usize] {
                    seen[other.0 as usize] = true;
                    stack.push(other);
                }
            }
        }
        out.push(comp);
    }
    out
}

/// Last-mile delays follow a skewed distribution: most hosts are close to the
/// low end (well-connected universities) with a long tail of slower access
/// links.
fn sample_last_mile(rng: &mut StdRng, range: (f64, f64)) -> f64 {
    let (lo, hi) = range;
    let u: f64 = rng.gen::<f64>();
    lo + (hi - lo) * u * u
}

#[cfg(test)]
mod tests {
    use super::*;
    use octant_geo::sites;

    fn default_net() -> Network {
        NetworkBuilder::planetlab(NetworkConfig::default()).build()
    }

    #[test]
    fn planetlab_network_has_expected_shape() {
        let net = default_net();
        assert_eq!(net.hosts().len(), 51);
        assert!(
            net.routers().len() > 60,
            "expected a substantial router backbone, got {}",
            net.routers().len()
        );
        assert!(
            net.link_count() > net.node_count(),
            "backbone should be more than a tree"
        );
        assert!(net.is_connected());
    }

    #[test]
    fn build_is_deterministic_for_a_seed() {
        let a = default_net();
        let b = default_net();
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.link_count(), b.link_count());
        assert_eq!(a.nodes()[10].hostname, b.nodes()[10].hostname);
        assert_eq!(a.nodes()[10].node_delay_ms, b.nodes()[10].node_delay_ms);
        // A different seed produces a different network.
        let other = NetworkBuilder::planetlab(NetworkConfig {
            seed: 7,
            ..NetworkConfig::default()
        })
        .build();
        let delays_a: Vec<f64> = a.hosts().iter().map(|&h| a.node(h).node_delay_ms).collect();
        let delays_c: Vec<f64> = other
            .hosts()
            .iter()
            .map(|&h| other.node(h).node_delay_ms)
            .collect();
        assert_ne!(delays_a, delays_c);
    }

    #[test]
    fn hosts_are_at_their_site_locations() {
        let net = default_net();
        for (host_id, site) in net.hosts().iter().zip(sites::planetlab_51()) {
            let node = net.node(*host_id);
            assert_eq!(node.hostname, site.hostname);
            assert!(great_circle_km(node.location, site.location()) < 1.0);
            assert_eq!(node.kind, NodeKind::Host);
        }
    }

    #[test]
    fn host_delays_are_within_configured_range() {
        let cfg = NetworkConfig::default();
        let net = default_net();
        for &h in &net.hosts() {
            let d = net.node(h).node_delay_ms;
            assert!(
                d >= cfg.host_delay_ms.0 - 1e-9 && d <= cfg.host_delay_ms.1 + 1e-9,
                "delay {d}"
            );
        }
    }

    #[test]
    fn co_sited_hosts_share_an_access_router_when_enabled() {
        let site = &sites::planetlab_51()[0];
        let co_sited = |share_km: f64| {
            let mut builder = NetworkBuilder::new(NetworkConfig {
                access_share_radius_km: share_km,
                ..NetworkConfig::default()
            });
            for i in 0..4 {
                builder = builder.add_host(HostSpec {
                    hostname: format!("host{i}.{}", site.hostname),
                    // A few km of scatter, like customers across one metro.
                    location: GeoPoint::new(site.lat + 0.02 * i as f64, site.lon),
                    city_code: site.city_code.to_string(),
                });
            }
            builder.build()
        };
        let access_of = |net: &Network, h: NodeId| {
            let li = net.incident_links(h)[0];
            let link = net.links()[li];
            if link.a == h {
                link.b
            } else {
                link.a
            }
        };

        // Default (0): every host gets its own access router.
        let isolated = co_sited(0.0);
        let mut accesses: Vec<NodeId> = isolated
            .hosts()
            .iter()
            .map(|&h| access_of(&isolated, h))
            .collect();
        accesses.dedup();
        assert_eq!(accesses.len(), 4, "no sharing at the default radius");

        // Sharing enabled: all four co-sited hosts attach through one router.
        let shared = co_sited(25.0);
        let accesses: Vec<NodeId> = shared
            .hosts()
            .iter()
            .map(|&h| access_of(&shared, h))
            .collect();
        assert!(
            accesses.iter().all(|&a| a == accesses[0]),
            "co-sited hosts must share the access router"
        );
        assert_eq!(
            shared.node_count() + 3,
            isolated.node_count(),
            "sharing saves exactly the three duplicate access routers"
        );
        assert!(shared.is_connected());
    }

    #[test]
    fn every_host_attaches_through_a_regional_access_router() {
        let net = default_net();
        for &h in &net.hosts() {
            let links = net.incident_links(h);
            assert_eq!(
                links.len(),
                1,
                "hosts attach through exactly one access link"
            );
            let l = net.links()[links[0]];
            let other = if l.a == h { l.b } else { l.a };
            assert_eq!(net.node(other).kind, NodeKind::AccessRouter);
            // The access POP is a regional backhaul target: in the same
            // region, not on another continent.
            assert!(
                l.length.km() < 3000.0,
                "access backhaul is {:.0} km",
                l.length.km()
            );
        }
    }

    #[test]
    fn host_dns_city_rate_rewrites_hostnames_to_parsable_names() {
        // Default: caller hostnames are kept verbatim (pinned by
        // `hosts_are_at_their_site_locations` too), and the generated
        // topology is byte-identical to the pre-knob builder.
        let plain = default_net();
        for (&h, site) in plain.hosts().iter().zip(sites::planetlab_51()) {
            assert_eq!(plain.node(h).hostname, site.hostname);
        }

        // Full rewrite: every host name embeds its own city code.
        let renamed = NetworkBuilder::planetlab(NetworkConfig {
            host_dns_city_rate: 1.0,
            ..NetworkConfig::default()
        })
        .build();
        for &h in &renamed.hosts() {
            let node = renamed.node(h);
            let city = dns::parse_router_city(&node.hostname)
                .unwrap_or_else(|| panic!("{} should parse", node.hostname));
            assert_eq!(city.code, node.city_code, "{}", node.hostname);
        }

        // A partial rate renames some hosts but not all.
        let partial = NetworkBuilder::planetlab(NetworkConfig {
            host_dns_city_rate: 0.5,
            ..NetworkConfig::default()
        })
        .build();
        let renamed_count = partial
            .hosts()
            .iter()
            .filter(|&&h| partial.node(h).hostname.starts_with("cpe-"))
            .count();
        assert!(renamed_count > 5 && renamed_count < 46, "{renamed_count}");
    }

    #[test]
    fn ips_are_unique() {
        let net = default_net();
        let mut seen = std::collections::HashSet::new();
        for n in net.nodes() {
            assert!(
                seen.insert(n.ip),
                "duplicate IP {:?} for {}",
                n.ip,
                n.hostname
            );
        }
    }

    #[test]
    fn custom_hosts_can_be_added() {
        let net = NetworkBuilder::new(NetworkConfig::default())
            .add_host(HostSpec {
                hostname: "target.example.net".into(),
                location: GeoPoint::new(39.74, -104.99),
                city_code: "den".into(),
            })
            .add_hosts(&[HostSpec {
                hostname: "other.example.net".into(),
                location: GeoPoint::new(47.61, -122.33),
                city_code: "sea".into(),
            }])
            .build();
        assert_eq!(net.hosts().len(), 2);
        assert!(net.host_by_name("target.example.net").is_some());
        assert!(net.is_connected());
    }

    #[test]
    fn larger_site_set_builds_a_connected_network() {
        let mut b = NetworkBuilder::new(NetworkConfig {
            seed: 3,
            ..NetworkConfig::default()
        });
        for site in sites::all_sites() {
            b = b.add_host(HostSpec::from_site(site));
        }
        let net = b.build();
        assert_eq!(net.hosts().len(), sites::all_sites().len());
        assert!(net.is_connected());
    }
}
