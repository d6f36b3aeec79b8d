//! Record/replay integration tests: a captured campaign must be a faithful,
//! deterministic stand-in for the live network, because the paper's
//! methodology evaluates every technique over one shared dataset.

use octant::{Geolocator, Octant, OctantConfig};
use octant_netsim::builder::{HostSpec, NetworkBuilder, NetworkConfig};
use octant_netsim::latency::LatencyModel;
use octant_netsim::scenario::{ScenarioConfig, ScenarioProvider};
use octant_netsim::{MeasurementDataset, ObservationProvider, Prober};

fn noiseless_prober(n: usize, seed: u64) -> Prober {
    let mut builder = NetworkBuilder::new(NetworkConfig {
        seed,
        ..NetworkConfig::default()
    });
    for site in octant_geo::sites::planetlab_51().iter().take(n) {
        builder = builder.add_host(HostSpec::from_site(site));
    }
    Prober::with_options(builder.build(), LatencyModel::noiseless(), 0.1, 5, seed)
}

#[test]
fn replay_equals_live_when_the_latency_model_is_noiseless() {
    let prober = noiseless_prober(12, 21);
    let dataset = MeasurementDataset::capture(&prober);
    let hosts = dataset.host_ids();

    // Without stochastic jitter, the recorded observations must be identical
    // to what the live prober reports.
    for &a in &hosts {
        for &b in &hosts {
            if a == b {
                continue;
            }
            assert_eq!(
                prober.ping(a, b).min(),
                dataset.ping(a, b).min(),
                "ping {a}->{b}"
            );
            let live: Vec<_> = prober.traceroute(a, b).iter().map(|h| h.node).collect();
            let replay: Vec<_> = dataset.traceroute(a, b).iter().map(|h| h.node).collect();
            assert_eq!(live, replay, "traceroute {a}->{b}");
        }
    }
}

#[test]
fn octant_gives_identical_results_on_live_and_replayed_noiseless_measurements() {
    let prober = noiseless_prober(14, 33);
    let dataset = MeasurementDataset::capture(&prober);
    let hosts = dataset.host_ids();
    let target = hosts[0];
    let landmarks: Vec<_> = hosts[1..].to_vec();

    let octant = Octant::new(OctantConfig::default());
    let live = octant.localize(&prober, &landmarks, target);
    let replay = octant.localize(&dataset, &landmarks, target);

    let (lp, rp) = (live.point.unwrap(), replay.point.unwrap());
    assert!(
        octant_geo::distance::great_circle_km(lp, rp) < 1.0,
        "live {lp} vs replay {rp} point estimates diverged"
    );
    let (lr, rr) = (live.region.unwrap(), replay.region.unwrap());
    assert!(
        (lr.area_km2() - rr.area_km2()).abs() < 1.0,
        "region areas diverged"
    );
}

#[test]
fn capture_is_deterministic_for_a_seed() {
    let a = MeasurementDataset::capture(&noiseless_prober(10, 77));
    let b = MeasurementDataset::capture(&noiseless_prober(10, 77));
    assert_eq!(a.host_ids(), b.host_ids());
    assert_eq!(a.ping_count(), b.ping_count());
    assert_eq!(a.traceroute_count(), b.traceroute_count());
    for &x in &a.host_ids() {
        for &y in &a.host_ids() {
            if x != y {
                assert_eq!(a.ping(x, y), b.ping(x, y));
            }
        }
    }
}

/// Every scenario knob defaults to off, and off means *off*: wrapping a
/// dataset in a default [`ScenarioProvider`] must be bit-identical to the raw
/// dataset across every observation type. This pins the neutrality contract —
/// the scenario engine consumes no RNG draws and performs no re-rounding
/// until a knob is actually turned.
#[test]
fn default_scenario_wrapper_is_bit_identical_to_the_raw_dataset() {
    let dataset = MeasurementDataset::capture(&noiseless_prober(12, 21));
    let wrapped = ScenarioProvider::new(&dataset, ScenarioConfig::default());
    assert!(wrapped.config().is_passthrough());

    assert_eq!(wrapped.hosts(), dataset.hosts());
    let hosts = dataset.hosts();
    for a in &hosts {
        assert_eq!(wrapped.reverse_dns(a.ip), dataset.reverse_dns(a.ip));
        assert_eq!(wrapped.whois_city(a.ip), dataset.whois_city(a.ip));
        assert_eq!(wrapped.node_by_ip(a.ip), dataset.node_by_ip(a.ip));
        assert_eq!(
            wrapped.advertised_location(a.id),
            dataset.advertised_location(a.id)
        );
        for b in &hosts {
            if a.id == b.id {
                continue;
            }
            assert_eq!(
                wrapped.ping(a.id, b.id),
                dataset.ping(a.id, b.id),
                "ping {}->{}",
                a.id,
                b.id
            );
            assert_eq!(
                wrapped.traceroute(a.id, b.id),
                dataset.traceroute(a.id, b.id),
                "traceroute {}->{}",
                a.id,
                b.id
            );
        }
    }
}

/// Each degradation mode is a pure function of (seed, knobs, endpoints,
/// tick): two providers built the same way agree sample-for-sample, and the
/// loss pattern actually moves when the seed does.
#[test]
fn scenario_degradations_are_deterministic_per_seed() {
    let dataset = MeasurementDataset::capture(&noiseless_prober(10, 21));
    let hosts = dataset.host_ids();
    let modes: Vec<(&str, ScenarioConfig)> = vec![
        (
            "loss",
            ScenarioConfig::default().with_seed(9).with_probe_loss(0.3),
        ),
        (
            "timeout",
            ScenarioConfig::default()
                .with_seed(9)
                .with_probe_timeout_ms(60.0),
        ),
        (
            "diurnal",
            ScenarioConfig::default()
                .with_seed(9)
                .with_diurnal(25.0, 24),
        ),
        (
            "spoof",
            ScenarioConfig::default()
                .with_seed(9)
                .with_rtt_spoof(hosts[0], 20.0)
                .with_dns_spoof(hosts[0], "lhr"),
        ),
        (
            "failure",
            ScenarioConfig::default()
                .with_seed(9)
                .with_failure(hosts[1], 0, u64::MAX),
        ),
    ];
    for (name, cfg) in &modes {
        let x = ScenarioProvider::new(&dataset, cfg.clone());
        let y = ScenarioProvider::new(&dataset, cfg.clone());
        x.set_tick(5);
        y.set_tick(5);
        for &a in &hosts {
            for &b in &hosts {
                if a == b {
                    continue;
                }
                assert_eq!(x.ping(a, b), y.ping(a, b), "mode {name}: ping {a}->{b}");
                assert_eq!(
                    x.traceroute(a, b),
                    y.traceroute(a, b),
                    "mode {name}: traceroute {a}->{b}"
                );
            }
        }
    }

    // Reseeding relocates the loss pattern: at least one pair must observe a
    // different sample set under a different seed.
    let a = ScenarioProvider::new(
        &dataset,
        ScenarioConfig::default().with_seed(1).with_probe_loss(0.3),
    );
    let b = ScenarioProvider::new(
        &dataset,
        ScenarioConfig::default().with_seed(2).with_probe_loss(0.3),
    );
    let diverged = hosts.iter().any(|&x| {
        hosts
            .iter()
            .any(|&y| x != y && a.ping(x, y) != b.ping(x, y))
    });
    assert!(
        diverged,
        "the loss pattern must depend on the scenario seed"
    );
}

#[test]
fn replayed_dataset_supports_every_observation_type_octant_needs() {
    let prober = noiseless_prober(10, 5);
    let dataset = MeasurementDataset::capture(&prober);
    let hosts = dataset.hosts();
    assert_eq!(hosts.len(), 10);
    for h in &hosts {
        assert!(dataset.reverse_dns(h.ip).is_some());
        assert!(dataset.whois_city(h.ip).is_some());
        assert_eq!(dataset.node_by_ip(h.ip), Some(h.id));
        assert!(dataset.advertised_location(h.id).is_some());
    }
    // Router information discovered through traceroutes is also replayable.
    let hops = dataset.traceroute(hosts[0].id, hosts[5].id);
    assert!(!hops.is_empty());
    for hop in hops {
        assert_eq!(dataset.reverse_dns(hop.ip).unwrap(), hop.hostname);
    }
}

/// `min_rtt` is the copy-free read of `ping(..).min()`: every provider that
/// overrides it, and every forwarding handle, must answer exactly the full
/// observation's minimum — for measured pairs, host-to-router pairs,
/// missing pairs, pairs recorded with no samples and dark nodes alike. A
/// dataset records each pair's minimum when it records the observation, so
/// its captures, its clones, the store built on one and the store's
/// snapshots are all checked.
#[test]
fn min_rtt_equals_the_minimum_of_ping_for_every_provider() {
    use octant_netsim::observation::PingObservation;
    use octant_netsim::{NodeId, ObservationRecord, ObservationStore, StoreConfig};
    use std::sync::Arc;

    fn check<P: ObservationProvider + ?Sized>(name: &str, p: &P, pairs: &[(NodeId, NodeId)]) {
        for &(a, b) in pairs {
            assert_eq!(p.min_rtt(a, b), p.ping(a, b).min(), "{name}: {a}->{b}");
        }
    }

    let mut builder = NetworkBuilder::new(NetworkConfig {
        seed: 41,
        ..NetworkConfig::default()
    });
    for site in octant_geo::sites::planetlab_51().iter().take(10) {
        builder = builder.add_host(HostSpec::from_site(site));
    }
    let prober = Prober::with_options(builder.build(), LatencyModel::default(), 0.1, 5, 41);
    let dataset = MeasurementDataset::capture(&prober);
    let hosts = dataset.host_ids();
    let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
    for &a in &hosts {
        for &b in &hosts {
            pairs.push((a, b));
        }
        for hop in dataset.traceroute(a, hosts[3]) {
            pairs.push((a, hop.node));
        }
        pairs.push((a, NodeId(u32::MAX)));
    }

    check("dataset", &dataset, &pairs);
    check("&dataset", &&dataset, &pairs);
    check("Arc<dataset>", &Arc::new(dataset.clone()), &pairs);
    check("dyn provider", &dataset as &dyn ObservationProvider, &pairs);
    // A clone taken after the dataset has answered `min_rtt` answers alike.
    assert!(dataset.min_rtt(hosts[0], hosts[1]).is_some());
    check("clone after min_rtt", &dataset.clone(), &pairs);

    // A store that has ingested a newer, faster observation over the
    // capture's.
    let store = ObservationStore::from_dataset(StoreConfig::default(), &dataset);
    let mut faster = dataset.ping(hosts[0], hosts[1]);
    faster.samples.push(faster.min().unwrap() * 0.5);
    store.ingest(vec![ObservationRecord::Ping {
        from: hosts[0],
        to: hosts[1],
        observation: faster,
        seq: 1,
    }]);
    assert_ne!(
        store.min_rtt(hosts[0], hosts[1]),
        dataset.min_rtt(hosts[0], hosts[1])
    );
    check("store", &store, &pairs);
    // The snapshot records the newer observation's minimum, and a pair
    // recorded with no samples has none.
    store.ingest(vec![ObservationRecord::Ping {
        from: hosts[1],
        to: hosts[2],
        observation: PingObservation::default(),
        seq: 1,
    }]);
    let snapshot = store.snapshot_dataset();
    assert_eq!(snapshot.min_rtt(hosts[1], hosts[2]), None);
    assert_eq!(
        snapshot.min_rtt(hosts[0], hosts[1]),
        store.min_rtt(hosts[0], hosts[1])
    );
    check("store snapshot", &snapshot, &pairs);
    check("store", &store, &pairs);
    check("Arc<store>", &Arc::new(store), &pairs);

    let scenarios = [
        ("passthrough", ScenarioConfig::default()),
        (
            "loss",
            ScenarioConfig::default().with_seed(3).with_probe_loss(0.4),
        ),
        (
            "diurnal",
            ScenarioConfig::default()
                .with_seed(3)
                .with_diurnal(25.0, 24),
        ),
        (
            "failure",
            ScenarioConfig::default()
                .with_seed(3)
                .with_failure(hosts[2], 0, u64::MAX),
        ),
    ];
    for (name, cfg) in scenarios {
        let scenario = ScenarioProvider::new(&dataset, cfg);
        scenario.set_tick(7);
        check(name, &scenario, &pairs);
    }
}
