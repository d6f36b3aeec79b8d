//! Shared experiment harness for the Octant reproduction.
//!
//! The binaries in `src/bin/` regenerate the paper's figures; this library
//! holds the pieces they share: building the PlanetLab-like measurement
//! campaign, running a set of geolocalization techniques over it, and
//! printing the comparison tables. `EXPERIMENTS.md` at the workspace root
//! records the numbers these harnesses produce next to the paper's.
//!
//! ## Machine-readable bench summaries (`BENCH_*.json`)
//!
//! The throughput binaries (`batch`, `service`) accept `--json <path>` and
//! write a [`BenchSummary`] there, so CI and the perf-trajectory tooling can
//! consume the numbers without scraping stdout. The format is one flat JSON
//! object; fields whose value is unavailable for a run are **omitted**, not
//! null:
//!
//! ```json
//! {
//!   "bench": "service",            // binary name
//!   "scenario": "smoke",           // workload variant ("smoke" or "full")
//!   "landmarks": 10,               // landmark deployment size
//!   "targets": 48,                 // targets served by the measured run
//!   "elapsed_s": 1.52,             // wall-clock of the measured run
//!   "targets_per_sec": 31.5,       // targets / elapsed_s
//!   "baseline_elapsed_s": 11.8,    // (optional) uncached/sequential run
//!   "baseline_targets_per_sec": 4.1,
//!   "speedup": 7.7,                // baseline_elapsed_s / elapsed_s
//!   "cache_hits": 410,             // (optional) router-cache counters
//!   "cache_misses": 14,
//!   "cache_hit_rate": 0.967,      // hits / (hits + misses)
//!   "sub_localizations": 14,       // router sub-solves actually performed
//!   "shards": 4,                   // (optional) serving-tier sections: data-
//!   "requests": 100000,            // plane shard count, Zipf-stream targets
//!   "shed": 0,                     // submitted, targets shed (queue-full +
//!   "shed_rate": 0.000000,         // deadline-expired), shed / finished,
//!   "latency_p50_ms": 1.9,         // and enqueue → completion latency
//!   "latency_p99_ms": 6.2,         // quantiles from the service's merged
//!   "latency_p999_ms": 8.0,        // per-shard histograms
//!   "stage_breakdown": [           // (optional) per-stage wall-time rows
//!     {"name": "queue_wait", "count": 2000, "total_ms": 510.2,
//!      "p50_ms": 0.21, "p99_ms": 1.8},
//!     {"name": "solve", "count": 510, "total_ms": 890.0, ...}
//!   ],
//!   "telemetry_overhead_pct": 1.4, // (optional) median profiled-vs-
//!                                  // unprofiled wall-clock delta, percent
//!   "recursive_ms_per_target": 21.4,          // Recursive serving stage:
//!   "recursive_baseline_ms_per_target": 67.0, // default-config service vs
//!   "recursive_speedup": 3.1,                 // uncached inline batch
//!   "dilation_default_median_shift_km": 0.0,  // point-estimate shift of the
//!   "dilation_default_p90_shift_km": 0.1,     // default dilation step vs
//!                                             // the exact step-0 solve
//!   "dilation_step25_median_shift_km": 0.0,   // step-sweep envelope rows
//!   "dilation_step25_p90_shift_km": 0.1,      // (one triple per swept
//!   "dilation_step25_max_shift_km": 0.4       // class width)
//! }
//! ```
//!
//! For the `service` bench, `elapsed_s`/`targets_per_sec` measure the
//! sustained Zipf-distributed request stream against the sharded service,
//! and `baseline_elapsed_s`/`speedup` are the same stream against a
//! single-shard service — so `speedup` reports **shard scaling** (expect
//! ≈1× on one core; ≥2× needs a ≥4-core runner). The `recursive_*` fields
//! come from stage 1's Recursive campaign (the §3 hot path): ms/target of
//! the default-config service next to the uncached inline batch engine,
//! plus the dilation radius-class accuracy envelope behind the default
//! cache step ([`BenchSummary::metrics`] carries them).
//!
//! The conventional file name is `BENCH_<bench>.json` (e.g.
//! `BENCH_service.json`); the flag takes an explicit path so campaigns can
//! collect several variants side by side.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use octant::eval::{self, ErrorCdf, TargetOutcome};
use octant::framework::Geolocator;
use octant_netsim::builder::{HostSpec, NetworkBuilder, NetworkConfig};
use octant_netsim::latency::LatencyModel;
use octant_netsim::probe::Prober;
use octant_netsim::topology::NodeId;
use octant_netsim::{MeasurementDataset, ObservationProvider};

/// A recorded measurement campaign plus the list of hosts participating in
/// the evaluation.
pub struct Campaign {
    /// The captured dataset (every technique sees exactly these bytes).
    pub dataset: MeasurementDataset,
    /// The hosts, in site order.
    pub hosts: Vec<NodeId>,
}

/// Builds the paper-equivalent campaign: the 51 PlanetLab-like sites, the
/// default latency model, 10 probes per ping, and a full pairwise capture.
pub fn planetlab_campaign(seed: u64) -> Campaign {
    campaign_with_sites(octant_geo::sites::planetlab_51().len(), seed)
}

/// Builds a campaign over the first `n` built-in sites (useful for fast test
/// and benchmark runs).
pub fn campaign_with_sites(n: usize, seed: u64) -> Campaign {
    campaign_from_network_config(
        n,
        seed,
        NetworkConfig {
            seed,
            ..NetworkConfig::default()
        },
    )
}

/// The shared campaign recipe: the first `n` built-in sites on `config`'s
/// topology, the default latency model, 10 probes per ping, full pairwise
/// capture. Every site-table campaign goes through here so the recipe
/// cannot silently diverge between variants.
fn campaign_from_network_config(n: usize, seed: u64, config: NetworkConfig) -> Campaign {
    let sites = octant_geo::sites::all_sites();
    let n = n.min(sites.len());
    let mut builder = NetworkBuilder::new(config);
    for site in &sites[..n] {
        builder = builder.add_host(HostSpec::from_site(site));
    }
    let network = builder.build();
    let prober = Prober::with_options(network, LatencyModel::default(), 0.15, 10, seed);
    let dataset = MeasurementDataset::capture(&prober);
    let hosts = dataset.host_ids();
    Campaign { dataset, hosts }
}

/// Builds the campaign the evidence-pipeline mix experiments run on: the
/// first `n` built-in sites with every host renamed to an
/// ISP-customer-style hostname embedding its city code
/// (`host_dns_city_rate: 1.0`), so the `DnsNameSource` has §2.5 naming
/// hints to mine. Everything else matches [`campaign_with_sites`].
pub fn pipeline_campaign(n: usize, seed: u64) -> Campaign {
    campaign_from_network_config(
        n,
        seed,
        NetworkConfig {
            seed,
            host_dns_city_rate: 1.0,
            ..NetworkConfig::default()
        },
    )
}

/// A campaign purpose-built for batch-throughput experiments: a fixed
/// landmark deployment plus a (possibly much larger) population of target
/// hosts, captured into one replay-stable dataset.
pub struct BatchCampaign {
    /// The captured dataset (replay-stable, so batched and sequential
    /// localization see byte-identical measurements).
    pub dataset: MeasurementDataset,
    /// The landmark hosts (placed at the built-in sites).
    pub landmarks: Vec<NodeId>,
    /// The target hosts to localize.
    pub targets: Vec<NodeId>,
}

/// Builds a batch campaign: `landmark_count` hosts at the built-in sites
/// plus `target_count` extra hosts cycled over the sites with small
/// deterministic position offsets (so co-sited targets are distinct hosts a
/// few kilometres apart, like multiple customers behind one metro).
pub fn batch_campaign(landmark_count: usize, target_count: usize, seed: u64) -> BatchCampaign {
    let sites = octant_geo::sites::all_sites();
    let landmark_count = landmark_count.min(sites.len());
    let mut builder = NetworkBuilder::new(NetworkConfig {
        seed,
        ..NetworkConfig::default()
    });
    for site in &sites[..landmark_count] {
        builder = builder.add_host(HostSpec::from_site(site));
    }
    for i in 0..target_count {
        let site = &sites[i % sites.len()];
        // Deterministic scatter: each wave of targets around a site moves a
        // little farther out (0.02° ≈ 2 km), alternating quadrants.
        let wave = (i / sites.len() + 1) as f64;
        let dlat = 0.021 * wave * if i % 2 == 0 { 1.0 } else { -1.0 };
        let dlon = 0.017 * wave * if i % 3 == 0 { 1.0 } else { -1.0 };
        builder = builder.add_host(HostSpec {
            hostname: format!("target{i}.{}", site.hostname),
            location: octant_geo::GeoPoint::new(site.lat + dlat, site.lon + dlon),
            city_code: site.city_code.to_string(),
        });
    }
    let prober = Prober::with_options(builder.build(), LatencyModel::default(), 0.15, 10, seed);
    let dataset = MeasurementDataset::capture(&prober);
    let hosts = dataset.host_ids();
    BatchCampaign {
        landmarks: hosts[..landmark_count].to_vec(),
        targets: hosts[landmark_count..].to_vec(),
        dataset,
    }
}

/// Builds a serving campaign: `landmark_count` hosts at the built-in sites
/// plus `target_sites * targets_per_site` target hosts **concentrated
/// behind a handful of sites** (with small deterministic position offsets),
/// so co-sited targets reach the network through the same access
/// infrastructure and their traceroutes share last-hop routers.
///
/// This is the workload shape the `octant-service` router cache exists for:
/// co-sited targets share their metro's access router (the builder's
/// `access_share_radius_km` knob), so `N = target_sites * targets_per_site`
/// targets sit behind `R ≈ target_sites` shared last-hop routers and
/// recursive router localization does `R` sub-solves instead of `O(N)` —
/// the `N ≫ R` axis of the service bench. Target sites start right after
/// the landmark sites, so targets are never co-located with a landmark.
pub fn service_campaign(
    landmark_count: usize,
    target_sites: usize,
    targets_per_site: usize,
    seed: u64,
) -> BatchCampaign {
    let sites = octant_geo::sites::all_sites();
    let landmark_count = landmark_count.min(sites.len().saturating_sub(1));
    let target_sites = target_sites.max(1).min(sites.len() - landmark_count);
    let mut builder = NetworkBuilder::new(NetworkConfig {
        seed,
        // Customers a few km apart in one metro attach through the same
        // aggregation router — the sharing the serving cache amortizes.
        access_share_radius_km: 25.0,
        ..NetworkConfig::default()
    });
    for site in &sites[..landmark_count] {
        builder = builder.add_host(HostSpec::from_site(site));
    }
    let target_count = target_sites * targets_per_site;
    for i in 0..target_count {
        let site = &sites[landmark_count + i % target_sites];
        // Same deterministic scatter scheme as `batch_campaign`: each wave
        // of co-sited targets moves a couple of kilometres farther out.
        let wave = (i / target_sites + 1) as f64;
        let dlat = 0.021 * wave * if i % 2 == 0 { 1.0 } else { -1.0 };
        let dlon = 0.017 * wave * if i % 3 == 0 { 1.0 } else { -1.0 };
        builder = builder.add_host(HostSpec {
            hostname: format!("target{i}.{}", site.hostname),
            location: octant_geo::GeoPoint::new(site.lat + dlat, site.lon + dlon),
            city_code: site.city_code.to_string(),
        });
    }
    let prober = Prober::with_options(builder.build(), LatencyModel::default(), 0.15, 10, seed);
    let dataset = MeasurementDataset::capture(&prober);
    let hosts = dataset.host_ids();
    BatchCampaign {
        landmarks: hosts[..landmark_count].to_vec(),
        targets: hosts[landmark_count..].to_vec(),
        dataset,
    }
}

/// The outcome of running one technique over a campaign.
pub struct TechniqueResult {
    /// The technique's display name.
    pub name: String,
    /// Per-target outcomes.
    pub outcomes: Vec<TargetOutcome>,
    /// The error CDF (miles).
    pub cdf: ErrorCdf,
}

impl TechniqueResult {
    /// Median error in miles.
    pub fn median_miles(&self) -> f64 {
        self.cdf.median().unwrap_or(f64::NAN)
    }

    /// Worst-case error in miles.
    pub fn worst_miles(&self) -> f64 {
        self.cdf.max().unwrap_or(f64::NAN)
    }

    /// Fraction of targets whose true position is inside the estimated
    /// region (only meaningful for region-based techniques).
    pub fn hit_rate(&self) -> f64 {
        eval::region_hit_rate(&self.outcomes)
    }

    /// Fraction of targets that produced no point estimate (unreachable
    /// targets, empty constraint sets) — the robustness harness's "gave up"
    /// rate under degraded scenarios.
    pub fn unknown_rate(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.outcomes.iter().filter(|o| o.error.is_none()).count() as f64
            / self.outcomes.len() as f64
    }
}

/// Runs the full leave-one-out evaluation of one technique over a campaign.
pub fn run_technique(campaign: &Campaign, technique: &dyn Geolocator) -> TechniqueResult {
    let outcomes = eval::leave_one_out(&campaign.dataset, technique, &campaign.hosts);
    let cdf = ErrorCdf::from_outcomes(&outcomes);
    TechniqueResult {
        name: technique.name().to_string(),
        outcomes,
        cdf,
    }
}

/// Runs the full leave-one-out evaluation of one technique over an
/// arbitrary provider and host roster — the degraded-world entry point: the
/// robustness harness passes a [`octant_netsim::scenario::ScenarioProvider`]
/// wrapped around a campaign's dataset, so the same hosts are evaluated
/// under scenario degradations.
pub fn run_technique_on(
    provider: &dyn ObservationProvider,
    hosts: &[NodeId],
    technique: &dyn Geolocator,
) -> TechniqueResult {
    let outcomes = eval::leave_one_out(provider, technique, hosts);
    let cdf = ErrorCdf::from_outcomes(&outcomes);
    TechniqueResult {
        name: technique.name().to_string(),
        outcomes,
        cdf,
    }
}

/// Runs the leave-one-out evaluation with a fixed number of landmarks per
/// target (the Figure 4 sweep).
pub fn run_technique_with_landmarks(
    campaign: &Campaign,
    technique: &dyn Geolocator,
    landmark_count: usize,
    seed: u64,
) -> TechniqueResult {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let outcomes = eval::leave_one_out_with_landmark_count(
        &campaign.dataset,
        technique,
        &campaign.hosts,
        landmark_count,
        &mut rng,
    );
    let cdf = ErrorCdf::from_outcomes(&outcomes);
    TechniqueResult {
        name: technique.name().to_string(),
        outcomes,
        cdf,
    }
}

/// Prints the standard summary table (median / 90th percentile / worst error
/// and region hit rate) for a set of technique results.
pub fn print_summary_table(results: &[TechniqueResult]) {
    println!(
        "{:<14} {:>12} {:>12} {:>12} {:>10}",
        "technique", "median (mi)", "p90 (mi)", "worst (mi)", "hit rate"
    );
    for r in results {
        println!(
            "{:<14} {:>12.1} {:>12.1} {:>12.1} {:>9.0}%",
            r.name,
            r.median_miles(),
            r.cdf.percentile(0.9).unwrap_or(f64::NAN),
            r.worst_miles(),
            r.hit_rate() * 100.0
        );
    }
}

/// Prints CDF curves (one column of cumulative fractions per technique) at
/// the given error values in miles — the series Figure 3 plots.
pub fn print_cdf_series(results: &[TechniqueResult], error_grid_miles: &[f64]) {
    print!("{:>12}", "error (mi)");
    for r in results {
        print!(" {:>12}", r.name);
    }
    println!();
    for &e in error_grid_miles {
        print!("{:>12.0}", e);
        for r in results {
            print!(" {:>12.3}", r.cdf.fraction_within(e));
        }
        println!();
    }
}

/// One row of a bench summary's `stage_breakdown` array: a named serve
/// stage with its observation count, accumulated wall time, and latency
/// quantiles — pre-rendered in milliseconds so JSON consumers never see a
/// `Duration`.
#[derive(Debug, Clone)]
pub struct StageRow {
    /// The stage name (`queue_wait`, `solve`, `source.latency`, …).
    pub name: String,
    /// Number of observations folded in.
    pub count: u64,
    /// Total wall time across all observations, milliseconds.
    pub total_ms: f64,
    /// Median per-observation wall time, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile per-observation wall time, milliseconds.
    pub p99_ms: f64,
}

impl StageRow {
    /// Converts one serving-tier stage row (from
    /// `ShardedService::stats_report`) into the bench-summary shape.
    pub fn from_service(stage: &octant_service::StageBreakdown) -> StageRow {
        StageRow {
            name: stage.name.to_string(),
            count: stage.count,
            total_ms: stage.total.as_secs_f64() * 1e3,
            p50_ms: stage.latency.p50.as_secs_f64() * 1e3,
            p99_ms: stage.latency.p99.as_secs_f64() * 1e3,
        }
    }

    /// Aggregates per-request [`octant_telemetry::StageProfile`]s (one per
    /// profiled target, as returned in `LocationEstimate::profile`) into
    /// stage rows, in first-observed stage order. Each profile contributes
    /// one latency sample per stage it recorded.
    pub fn from_profiles<'a>(
        profiles: impl IntoIterator<Item = &'a octant_telemetry::StageProfile>,
    ) -> Vec<StageRow> {
        let mut stages: Vec<(&'static str, u64, octant_telemetry::LatencyHistogram)> = Vec::new();
        for profile in profiles {
            for stage in profile.stages() {
                let slot = match stages.iter_mut().find(|(name, _, _)| *name == stage.name) {
                    Some(slot) => slot,
                    None => {
                        stages.push((stage.name, 0, octant_telemetry::LatencyHistogram::default()));
                        stages.last_mut().expect("just pushed")
                    }
                };
                slot.1 += stage.calls;
                slot.2.record(stage.wall);
            }
        }
        stages
            .into_iter()
            .map(|(name, count, hist)| {
                let summary = hist.summary();
                StageRow {
                    name: name.to_string(),
                    count,
                    total_ms: hist.total().as_secs_f64() * 1e3,
                    p50_ms: summary.p50.as_secs_f64() * 1e3,
                    p99_ms: summary.p99.as_secs_f64() * 1e3,
                }
            })
            .collect()
    }
}

/// Renders a `stage_breakdown` array in the documented JSON shape.
fn stage_rows_json(rows: &[StageRow]) -> String {
    let items: Vec<String> = rows
        .iter()
        .map(|row| {
            format!(
                "{{\"name\": {}, \"count\": {}, \"total_ms\": {}, \"p50_ms\": {}, \"p99_ms\": {}}}",
                json_string(&row.name),
                row.count,
                json_f64(row.total_ms),
                json_f64(row.p50_ms),
                json_f64(row.p99_ms),
            )
        })
        .collect();
    format!("[{}]", items.join(", "))
}

/// A machine-readable throughput-bench summary — see the crate docs for the
/// on-disk JSON format. `None` fields are omitted from the output.
#[derive(Debug, Clone, Default)]
pub struct BenchSummary {
    /// Binary name (`"batch"`, `"service"`).
    pub bench: String,
    /// Workload variant (`"smoke"`, `"full"`).
    pub scenario: String,
    /// Landmark deployment size.
    pub landmarks: usize,
    /// Targets served by the measured run.
    pub targets: usize,
    /// Wall-clock seconds of the measured run.
    pub elapsed_s: f64,
    /// Wall-clock seconds of the baseline run, when one was measured.
    pub baseline_elapsed_s: Option<f64>,
    /// Router-cache hits, for cache-backed runs.
    pub cache_hits: Option<u64>,
    /// Router-cache misses (== router sub-solves performed).
    pub cache_misses: Option<u64>,
    /// Data-plane shard count of the measured serving run.
    pub shards: Option<usize>,
    /// Targets submitted by the sustained request stream (each target of
    /// each request counts once; ≥ `targets`, which is the population size).
    pub requests: Option<u64>,
    /// Targets shed by the measured run (admission + deadline).
    pub shed: Option<u64>,
    /// Shed fraction of finished targets of the measured run.
    pub shed_rate: Option<f64>,
    /// Median serve latency (enqueue → completion) in milliseconds.
    pub latency_p50_ms: Option<f64>,
    /// 99th-percentile serve latency in milliseconds.
    pub latency_p99_ms: Option<f64>,
    /// 99.9th-percentile serve latency in milliseconds.
    pub latency_p999_ms: Option<f64>,
    /// Per-stage wall-time rows of the profiled rerun (omitted when empty).
    pub stage_breakdown: Vec<StageRow>,
    /// Wall-clock cost of profiling, in percent: profiled vs unprofiled
    /// elapsed time over the same work (negative means the profiled side
    /// was faster — i.e. the overhead is below run-to-run noise).
    pub telemetry_overhead_pct: Option<f64>,
    /// Extra named metrics, emitted verbatim in insertion order (the
    /// `service` bench's `recursive_*_ms_per_target` and
    /// `dilation_step*_shift_km` fields live here).
    pub metrics: Vec<(String, f64)>,
}

impl BenchSummary {
    /// Targets per second of the measured run.
    pub fn targets_per_sec(&self) -> f64 {
        if self.elapsed_s > 0.0 {
            self.targets as f64 / self.elapsed_s
        } else {
            f64::INFINITY
        }
    }

    /// Cache hit rate, when cache counters were recorded.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        match (self.cache_hits, self.cache_misses) {
            (Some(h), Some(m)) if h + m > 0 => Some(h as f64 / (h + m) as f64),
            _ => None,
        }
    }

    /// Renders the summary as the documented flat JSON object.
    pub fn to_json(&self) -> String {
        // Hand-rolled: the workspace's serde stand-in has no serializer, and
        // the format is a flat object with a handful of fields.
        let mut fields: Vec<String> = vec![
            format!("\"bench\": {}", json_string(&self.bench)),
            format!("\"scenario\": {}", json_string(&self.scenario)),
            format!("\"landmarks\": {}", self.landmarks),
            format!("\"targets\": {}", self.targets),
            format!("\"elapsed_s\": {}", json_f64(self.elapsed_s)),
            format!("\"targets_per_sec\": {}", json_f64(self.targets_per_sec())),
        ];
        if let Some(base) = self.baseline_elapsed_s {
            fields.push(format!("\"baseline_elapsed_s\": {}", json_f64(base)));
            if base > 0.0 && self.elapsed_s > 0.0 {
                fields.push(format!(
                    "\"baseline_targets_per_sec\": {}",
                    json_f64(self.targets as f64 / base)
                ));
                fields.push(format!("\"speedup\": {}", json_f64(base / self.elapsed_s)));
            }
        }
        if let Some(hits) = self.cache_hits {
            fields.push(format!("\"cache_hits\": {hits}"));
        }
        if let Some(misses) = self.cache_misses {
            fields.push(format!("\"cache_misses\": {misses}"));
            fields.push(format!("\"sub_localizations\": {misses}"));
        }
        if let Some(rate) = self.cache_hit_rate() {
            fields.push(format!("\"cache_hit_rate\": {}", json_f64(rate)));
        }
        if let Some(shards) = self.shards {
            fields.push(format!("\"shards\": {shards}"));
        }
        if let Some(requests) = self.requests {
            fields.push(format!("\"requests\": {requests}"));
        }
        if let Some(shed) = self.shed {
            fields.push(format!("\"shed\": {shed}"));
        }
        if let Some(rate) = self.shed_rate {
            fields.push(format!("\"shed_rate\": {}", json_f64(rate)));
        }
        if let Some(ms) = self.latency_p50_ms {
            fields.push(format!("\"latency_p50_ms\": {}", json_f64(ms)));
        }
        if let Some(ms) = self.latency_p99_ms {
            fields.push(format!("\"latency_p99_ms\": {}", json_f64(ms)));
        }
        if let Some(ms) = self.latency_p999_ms {
            fields.push(format!("\"latency_p999_ms\": {}", json_f64(ms)));
        }
        if !self.stage_breakdown.is_empty() {
            fields.push(format!(
                "\"stage_breakdown\": {}",
                stage_rows_json(&self.stage_breakdown)
            ));
        }
        if let Some(pct) = self.telemetry_overhead_pct {
            fields.push(format!("\"telemetry_overhead_pct\": {}", json_f64(pct)));
        }
        for (name, value) in &self.metrics {
            fields.push(format!("{}: {}", json_string(name), json_f64(*value)));
        }
        format!("{{\n  {}\n}}\n", fields.join(",\n  "))
    }

    /// Writes the JSON summary to `path`.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

/// A machine-readable summary for micro-operation benches (the `region`
/// binary): a flat JSON object of named throughput/counter metrics instead
/// of the target-oriented fields of [`BenchSummary`].
///
/// ```json
/// {
///   "bench": "region",
///   "scenario": "smoke",
///   "intersect16_chained_ops_per_sec": 41.2,
///   "intersect16_nary_ops_per_sec": 213.0,     // intersect_many, stitched
///   "intersect16_banded_ops_per_sec": 260.0,   // intersect_many area only
///   "intersect16_speedup": 5.17,
///   "intersect16_chained_band_merges": 2150,
///   "intersect16_nary_band_merges": 310,
///   "crossing_scan_ops": 27000,                // candidate pairs the n-ary
///                                              // sweep's crossing
///                                              // enumeration examined
///                                              // (only pairs with a non-
///                                              // horizontal first segment)
///   "soup_subtract_ops_per_sec": 140.0,        // whole subtract chains/s:
///                                              // 16-disk intersect_many,
///                                              // then 24 subtract +
///                                              // simplify_to_budget steps
///   "soup_subtract_crossing_scan_ops": 180000, // one chain's crossing scan
///   "soup_subtract_band_merges": 4916,         // and band-merge counts
///   "contour_extract_ops_per_sec": 9500.0,     // BandedRegion -> contours
///   "contour_soup_rings": 37,                  // trapezoid rings going in
///   "contour_rings": 1,                        // merged contours coming out
///   "contour_area_rel_err": 1.2e-12,           // asserted <= 1e-9
///   "dilate_contoured_r300_ops_per_sec": 210.0,
///   "dilate_r60_ops_per_sec": 880.0,
///   "dilate_r60_reference_ops_per_sec": 95.0,
///   "dilate_r60_speedup": 9.3,
///   "disk_r60_ns_per_vertex": 40.0,            // Region::disk build time
///   "disk_r60_vertices": 32,                   // per flattened vertex, and
///   "disk_r1000_ns_per_vertex": 35.0,          // the vertex count, at 60,
///   "disk_r1000_vertices": 128,                // 1,000 and 6,000 km radii
///   "disk_r6000_ns_per_vertex": 35.0,
///   "disk_r6000_vertices": 256,
///   "walk_unions": 64,                         // intersection-walk dilation
///   "walk_fallbacks": 2,                       // merges vs sweep fallbacks
///   ...
/// }
/// ```
///
/// The region bench times every stage with [`round_robin_batch_secs`]: the
/// median of 7 batches of at least 20 ms each in `smoke` (15 of 100 ms in
/// `full`), so a short stall moves one batch, not the field. Batch `k` of
/// every stage runs in round `k`, so a drift in the host's speed during
/// the run moves every field alike; the drift from one run to the next,
/// which no in-run statistic removes, remains. `walk_unions` and
/// `walk_fallbacks` count one untimed call of each dilation stage.
///
/// The `pipeline` bench reports, next to its per-mix fields, the §2.2
/// target-height search over the 66 leave-one-out inputs of
/// `campaign_with_sites(66, 42)` ([`target_height_inputs`]):
///
/// ```json
/// {
///   "bench": "pipeline",
///   "scenario": "smoke",
///   "mix_default_median_mi": 80.5,
///   ...
///   "target_height_us_per_call": 740.0,  // median of 7 batches of one
///                                        // call per input
///   "target_height_exact_share": 0.056   // grid candidates the search's
///                                        // lower bound could not exclude
/// }
/// ```
#[derive(Debug, Clone, Default)]
pub struct OpsBenchSummary {
    /// Binary name (`"region"`).
    pub bench: String,
    /// Workload variant (`"smoke"`, `"full"`).
    pub scenario: String,
    /// Named metrics, emitted in insertion order.
    pub metrics: Vec<(String, f64)>,
    /// Per-stage wall-time rows of a profiled pass (omitted when empty).
    pub stage_breakdown: Vec<StageRow>,
}

impl OpsBenchSummary {
    /// Appends one named metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push((name.into(), value));
    }

    /// Renders the summary as a flat JSON object.
    pub fn to_json(&self) -> String {
        let mut fields: Vec<String> = vec![
            format!("\"bench\": {}", json_string(&self.bench)),
            format!("\"scenario\": {}", json_string(&self.scenario)),
        ];
        for (name, value) in &self.metrics {
            fields.push(format!("{}: {}", json_string(name), json_f64(*value)));
        }
        if !self.stage_breakdown.is_empty() {
            fields.push(format!(
                "\"stage_breakdown\": {}",
                stage_rows_json(&self.stage_breakdown)
            ));
        }
        format!("{{\n  {}\n}}\n", fields.join(",\n  "))
    }

    /// Writes the JSON summary to `path`.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        // Enough digits to round-trip the interesting range; trailing zeros
        // are harmless to every JSON consumer.
        format!("{v:.6}")
    } else {
        // JSON has no Infinity/NaN; null is the conventional stand-in.
        "null".to_string()
    }
}

/// A Zipf-distributed index sampler: index 0 is the most popular item,
/// popularity falls off as `1 / rank^s`. Serving benches use it to shape
/// sustained request streams the way real geolocation traffic looks — a
/// few hot targets dominating, a long tail of cold ones — which is the
/// regime that exercises per-shard queues and the shared router cache.
///
/// Sampling is inverse-CDF over precomputed cumulative weights (O(log n)
/// per draw), driven by any [`rand::Rng`], so streams are reproducible
/// from a seed.
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// A sampler over `n` items with exponent `s` (classic Zipf is
    /// `s = 1.0`; larger skews harder). `n` must be nonzero.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "ZipfSampler over an empty population");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        ZipfSampler { cdf }
    }

    /// Draws one index in `0..n`.
    pub fn sample(&self, rng: &mut impl rand::Rng) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        match self
            .cdf
            .binary_search_by(|c| c.partial_cmp(&u).expect("cdf weights are finite"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

/// Parses a `--json <path>` flag from a binary's argument list. Returns
/// `None` when the flag is absent; panics with a usage message when the flag
/// is present without a path (a misconfigured CI invocation should fail
/// loudly, not silently skip the artifact).
pub fn json_path_from_args(args: &[String]) -> Option<std::path::PathBuf> {
    let idx = args.iter().position(|a| a == "--json")?;
    match args.get(idx + 1) {
        Some(path) if !path.starts_with("--") => Some(std::path::PathBuf::from(path)),
        _ => panic!("--json requires a path argument (e.g. --json BENCH_batch.json)"),
    }
}

/// Convenience: the dataset's ground-truth location for a host (panics for
/// unknown hosts — evaluation hosts always have one).
pub fn truth_of(campaign: &Campaign, host: NodeId) -> octant_geo::GeoPoint {
    campaign
        .dataset
        .advertised_location(host)
        .expect("campaign hosts have ground truth")
}

/// Operands of a solver-style subtract chain: 16 constraint disks around
/// the origin, whose intersection is the starting estimate, and 24
/// negative-constraint disks to subtract from it one at a time. The
/// negative disks sit along the x-axis, a third of them centred exactly
/// on y = 0, so their edges and the estimate's cross that line.
///
/// The `region` bench times this chain and `tests/region_binary_golden.rs`
/// pins its output bits; changing the layout means re-capturing that
/// golden.
pub fn subtract_chain_operands() -> (Vec<octant_region::Region>, Vec<octant_region::Region>) {
    use octant_region::{Region, Vec2};
    let disks = (0..16)
        .map(|i| {
            let a = i as f64 * 0.7 + 0.05;
            Region::disk(
                Vec2::new(a.cos() * 200.0, a.sin() * 200.0),
                600.0 + 40.0 * (i % 5) as f64,
            )
        })
        .collect();
    let bites = (0..24)
        .map(|i| {
            let a = i as f64 * 2.3;
            let y = if i % 3 == 0 { 0.0 } else { a.sin() * 60.0 };
            Region::disk(Vec2::new(a.cos() * 380.0, y), 50.0 + 12.0 * (i % 4) as f64)
        })
        .collect();
    (disks, bites)
}

/// Wall seconds per call of `op`: the median over `batches` batches, each
/// timing enough calls to fill about `min_wall` (calibrated on one warm
/// call, at least one call). Short operations are timed over many calls,
/// and one slow batch (a descheduled thread, say) moves the result by one
/// rank, not by its whole excess.
pub fn median_batch_secs<T>(
    batches: usize,
    min_wall: std::time::Duration,
    mut op: impl FnMut() -> T,
) -> f64 {
    round_robin_batch_secs(
        batches,
        min_wall,
        &mut [Box::new(|| {
            std::hint::black_box(op());
        })],
    )[0]
}

/// [`median_batch_secs`] of several operations at once, timed round-robin:
/// each op's calls per batch are calibrated first, then round `k` runs
/// batch `k` of every op in turn, so a drift in the host's speed during
/// the run lands on every op alike. Returns each op's seconds per call, in
/// the order of `ops`.
pub fn round_robin_batch_secs(
    batches: usize,
    min_wall: std::time::Duration,
    ops: &mut [Box<dyn FnMut() + '_>],
) -> Vec<f64> {
    use std::time::Instant;
    let calls: Vec<u64> = ops
        .iter_mut()
        .map(|op| {
            op();
            let start = Instant::now();
            op();
            let once = start.elapsed().as_secs_f64();
            (min_wall.as_secs_f64() / once.max(1e-9)).ceil().max(1.0) as u64
        })
        .collect();
    let mut per_call = vec![Vec::with_capacity(batches.max(1)); ops.len()];
    for _ in 0..batches.max(1) {
        for ((op, &calls), times) in ops.iter_mut().zip(&calls).zip(&mut per_call) {
            let start = Instant::now();
            for _ in 0..calls {
                op();
            }
            times.push(start.elapsed().as_secs_f64() / calls as f64);
        }
    }
    per_call
        .into_iter()
        .map(|mut times| {
            times.sort_by(f64::total_cmp);
            times[times.len() / 2]
        })
        .collect()
}

/// One call's worth of input to the §2.2 target-height search
/// ([`octant::heights::estimate_target_height`]).
pub struct TargetHeightInput {
    /// The landmarks' advertised positions.
    pub positions: Vec<octant_geo::GeoPoint>,
    /// Their solved heights.
    pub heights: octant::heights::Heights,
    /// The target's minimum RTT to each landmark.
    pub rtts: Vec<Option<octant_geo::units::Latency>>,
}

impl TargetHeightInput {
    /// Runs the search on this input.
    pub fn estimate(&self) -> octant::heights::TargetHeight {
        octant::heights::estimate_target_height(&self.positions, &self.heights, &self.rtts)
    }
}

/// The target-height inputs of `campaign`'s leave-one-out evaluation under
/// the default configuration: for each host, the landmark model prepared
/// from every other host and the host's RTTs to those landmarks, as a
/// localization hands them to the search.
pub fn target_height_inputs(campaign: &Campaign) -> Vec<TargetHeightInput> {
    let octant = octant::Octant::new(octant::OctantConfig::default());
    campaign
        .hosts
        .iter()
        .map(|&target| {
            let landmarks: Vec<NodeId> = campaign
                .hosts
                .iter()
                .copied()
                .filter(|&h| h != target)
                .collect();
            let model = octant.prepare_landmarks(&campaign.dataset, &landmarks);
            let ids = model.landmark_ids();
            TargetHeightInput {
                positions: ids
                    .iter()
                    .map(|&lm| campaign.dataset.advertised_location(lm).unwrap())
                    .collect(),
                heights: model.heights().clone(),
                rtts: ids
                    .iter()
                    .map(|&lm| campaign.dataset.min_rtt(lm, target))
                    .collect(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use octant::{Octant, OctantConfig};

    #[test]
    fn small_campaign_builds_and_evaluates() {
        let campaign = campaign_with_sites(8, 3);
        assert_eq!(campaign.hosts.len(), 8);
        let octant = Octant::new(OctantConfig::minimal());
        let result = run_technique(&campaign, &octant);
        assert_eq!(result.outcomes.len(), 8);
        assert!(result.median_miles().is_finite());
        assert!(result.worst_miles() >= result.median_miles());
    }

    #[test]
    fn bench_summary_json_includes_and_omits_the_right_fields() {
        let mut summary = BenchSummary {
            bench: "service".into(),
            scenario: "smoke".into(),
            landmarks: 10,
            targets: 48,
            elapsed_s: 2.0,
            ..BenchSummary::default()
        };
        let json = summary.to_json();
        assert!(json.contains("\"bench\": \"service\""));
        assert!(json.contains("\"targets\": 48"));
        assert!(json.contains("\"targets_per_sec\": 24.000000"));
        assert!(!json.contains("baseline"), "absent fields are omitted");
        assert!(!json.contains("cache"), "absent fields are omitted");

        summary.baseline_elapsed_s = Some(8.0);
        summary.cache_hits = Some(30);
        summary.cache_misses = Some(10);
        summary
            .metrics
            .push(("recursive_ms_per_target".into(), 21.5));
        let json = summary.to_json();
        assert!(json.contains("\"speedup\": 4.000000"));
        assert!(json.contains("\"baseline_targets_per_sec\": 6.000000"));
        assert!(json.contains("\"cache_hit_rate\": 0.750000"));
        assert!(json.contains("\"sub_localizations\": 10"));
        assert!(json.contains("\"recursive_ms_per_target\": 21.500000"));
        assert_eq!(summary.cache_hit_rate(), Some(0.75));
    }

    #[test]
    fn zipf_sampler_skews_toward_low_ranks() {
        use rand::SeedableRng;
        let zipf = ZipfSampler::new(100, 1.0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut counts = vec![0usize; 100];
        for _ in 0..20_000 {
            let i = zipf.sample(&mut rng);
            assert!(i < 100);
            counts[i] += 1;
        }
        // Rank 1 under Zipf(1.0, n=100) carries ~19% of the mass; the tail
        // half carries ~13%. Loose bounds keep the test seed-robust.
        assert!(counts[0] > counts[9] && counts[9] > 0);
        assert!(
            counts[0] as f64 / 20_000.0 > 0.10,
            "head rank too cold: {}",
            counts[0]
        );
        let tail: usize = counts[50..].iter().sum();
        assert!((tail as f64) < 20_000.0 * 0.30, "tail too hot: {tail}");
        // Reproducible from the seed.
        let mut a = rand::rngs::StdRng::seed_from_u64(11);
        let mut b = rand::rngs::StdRng::seed_from_u64(11);
        for _ in 0..100 {
            assert_eq!(zipf.sample(&mut a), zipf.sample(&mut b));
        }
    }

    #[test]
    fn bench_summary_json_serving_fields() {
        let summary = BenchSummary {
            bench: "service".into(),
            scenario: "smoke".into(),
            landmarks: 10,
            targets: 48,
            elapsed_s: 2.0,
            shards: Some(4),
            requests: Some(2000),
            shed: Some(0),
            shed_rate: Some(0.0),
            latency_p50_ms: Some(1.5),
            latency_p99_ms: Some(6.25),
            latency_p999_ms: Some(8.0),
            ..BenchSummary::default()
        };
        let json = summary.to_json();
        assert!(json.contains("\"shards\": 4"));
        assert!(json.contains("\"requests\": 2000"));
        assert!(json.contains("\"shed\": 0"));
        assert!(json.contains("\"shed_rate\": 0.000000"));
        assert!(json.contains("\"latency_p99_ms\": 6.250000"));
        // And every serving field is omitted when absent.
        let bare = BenchSummary {
            bench: "service".into(),
            scenario: "smoke".into(),
            ..BenchSummary::default()
        };
        let json = bare.to_json();
        for field in ["shards", "requests", "shed", "latency"] {
            assert!(!json.contains(field), "{field} must be omitted");
        }
    }

    #[test]
    fn stage_breakdown_and_overhead_are_emitted_and_omitted() {
        let mut summary = BenchSummary {
            bench: "service".into(),
            scenario: "smoke".into(),
            elapsed_s: 2.0,
            ..BenchSummary::default()
        };
        let json = summary.to_json();
        assert!(
            !json.contains("stage_breakdown") && !json.contains("telemetry_overhead_pct"),
            "empty/absent observability fields must be omitted"
        );

        summary.stage_breakdown = vec![StageRow {
            name: "queue_wait".into(),
            count: 7,
            total_ms: 1.25,
            p50_ms: 0.125,
            p99_ms: 0.5,
        }];
        summary.telemetry_overhead_pct = Some(1.5);
        let json = summary.to_json();
        assert!(json.contains(
            "\"stage_breakdown\": [{\"name\": \"queue_wait\", \"count\": 7, \
             \"total_ms\": 1.250000, \"p50_ms\": 0.125000, \"p99_ms\": 0.500000}]"
        ));
        assert!(json.contains("\"telemetry_overhead_pct\": 1.500000"));

        let mut ops = OpsBenchSummary {
            bench: "pipeline".into(),
            scenario: "smoke".into(),
            ..OpsBenchSummary::default()
        };
        assert!(!ops.to_json().contains("stage_breakdown"));
        ops.stage_breakdown = summary.stage_breakdown.clone();
        assert!(ops.to_json().contains("\"name\": \"queue_wait\""));
    }

    #[test]
    fn stage_rows_aggregate_profiles_in_first_observed_order() {
        use std::time::Duration;
        let mut a = octant_telemetry::StageProfile::default();
        a.add("solve", Duration::from_millis(4), 1);
        a.add("solver.intersect", Duration::from_millis(3), 2);
        let mut b = octant_telemetry::StageProfile::default();
        b.add("solve", Duration::from_millis(6), 1);
        let rows = StageRow::from_profiles([&a, &b]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].name, "solve");
        assert_eq!(rows[0].count, 2);
        assert!(
            (rows[0].total_ms - 10.0).abs() < 1.0,
            "{}",
            rows[0].total_ms
        );
        assert_eq!(rows[1].name, "solver.intersect");
        assert_eq!(rows[1].count, 2, "calls sum, samples count per profile");
    }

    #[test]
    fn json_path_flag_parses() {
        let args: Vec<String> = vec!["--smoke".into(), "--json".into(), "out.json".into()];
        assert_eq!(
            json_path_from_args(&args),
            Some(std::path::PathBuf::from("out.json"))
        );
        let args: Vec<String> = vec!["--smoke".into()];
        assert_eq!(json_path_from_args(&args), None);
    }

    #[test]
    fn json_strings_are_escaped() {
        let summary = BenchSummary {
            bench: "a\"b\\c".into(),
            scenario: "s".into(),
            ..BenchSummary::default()
        };
        assert!(summary.to_json().contains("\"a\\\"b\\\\c\""));
    }

    #[test]
    fn landmark_limited_run_is_reproducible() {
        let campaign = campaign_with_sites(8, 3);
        let octant = Octant::new(OctantConfig::minimal());
        let a = run_technique_with_landmarks(&campaign, &octant, 4, 7);
        let b = run_technique_with_landmarks(&campaign, &octant, 4, 7);
        assert_eq!(a.cdf.points(), b.cdf.points());
    }
}
