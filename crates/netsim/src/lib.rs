//! # octant-netsim
//!
//! A deterministic Internet measurement substrate for the Octant
//! geolocalization framework.
//!
//! The paper evaluates Octant on 51 PlanetLab hosts using ICMP pings,
//! traceroutes, router DNS names (via `undns`) and WHOIS records. This crate
//! reproduces that *observation interface* on top of a synthetic — but
//! structurally realistic — Internet:
//!
//! * [`topology`] / [`builder`] — a router-level topology with backbone
//!   routers at major cities, several competing providers, peering points,
//!   access routers and last-mile links to hosts placed at real PlanetLab-like
//!   site coordinates,
//! * [`routing`] — policy-aware shortest-path routing with the route
//!   inflation ("circuitousness") that makes latency-based geolocation hard,
//! * [`latency`] — a latency model combining fiber propagation delay
//!   (2/3 c over the routed path), per-hop processing, per-host last-mile
//!   queuing and per-probe jitter,
//! * [`probe`] — `ping` (n time-dispersed probes) and `traceroute`
//!   observations, the only way Octant is allowed to look at the network,
//! * [`dns`] — ISP-style router naming with embedded city codes and an
//!   `undns`-like parser (with a realistic failure rate),
//! * [`whois`] — an IP-prefix registry with a configurable fraction of stale
//!   or wrong entries,
//! * [`observation`] — the [`observation::ObservationProvider`] trait tying
//!   it all together, plus a recorded [`dataset::MeasurementDataset`] that
//!   can be captured once and replayed,
//! * [`store`] — a streaming [`store::ObservationStore`]: a
//!   [`dataset::MeasurementDataset`] that ingest updates in place, for
//!   serving deployments where probe observations arrive continuously
//!   instead of as one frozen capture,
//! * [`scenario`] — a hostile-network scenario engine: a
//!   [`scenario::ScenarioProvider`] wrapper layering seed-deterministic
//!   degradations (diurnal congestion, probe loss and timeouts, landmark
//!   failure windows, latency- and DNS-spoofing adversaries) over any
//!   provider, with every knob default-off and bit-identical passthrough.
//!
//! Everything is seeded: the same seed produces byte-identical measurements,
//! so every figure in the evaluation regenerates exactly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod dataset;
pub mod dns;
pub mod latency;
pub mod observation;
pub mod probe;
pub mod routing;
pub mod scenario;
pub mod store;
pub mod topology;
pub mod whois;

pub use builder::{NetworkBuilder, NetworkConfig};
pub use dataset::MeasurementDataset;
pub use observation::{ObservationProvider, TracerouteHop};
pub use probe::Prober;
pub use scenario::{FailureWindow, ScenarioConfig, ScenarioProvider};
pub use store::{ObservationRecord, ObservationStore, StoreConfig, StoreStats};
pub use topology::{Network, NodeId, NodeKind};
