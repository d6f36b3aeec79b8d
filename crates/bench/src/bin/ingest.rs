//! Streaming-ingest campaign binary: the write-path axis.
//!
//! Where the `batch` and `service` binaries measure a *frozen* capture, this
//! one measures the serving tier over a **churning**
//! `octant_netsim::ObservationStore`: rounds of landmark re-probes are
//! ingested while a Zipf lookup stream runs against the shared store, and
//! each round ends with a model refresh that is timed **both ways** —
//! a from-scratch `Octant::prepare_landmarks` and the delta
//! `Octant::prepare_landmarks_incremental` fed by
//! `ObservationStore::changed_since`. The incremental model is what gets
//! registered (after a first-round bit-identity spot check against the full
//! one), so the campaign also exercises epoch invalidation of the service's
//! per-target-prefix answer memo.
//!
//! Each round has four phases:
//!
//! 1. **churn** — K landmarks re-probe their peers; the fresh observations
//!    are ingested at a bumped `seq` (K/L stays well below 25%, the regime
//!    the incremental path is built for);
//! 2. **stale lookups** — a Zipf request stream served from the *previous*
//!    model (the staleness the artifact quantifies);
//! 3. **refresh** — both prepares timed, the incremental one registered
//!    (`ShardedService::register_model`, bumping the epoch and retiring
//!    stale answer-memo entries);
//! 4. **fresh lookups** — the same stream shape on the new epoch; repeat
//!    targets hit the answer memo.
//!
//! The `BENCH_ingest.json` artifact carries the staleness-vs-refresh-cost
//! tradeoff (`staleness_ms_median` against `refresh_incremental_ms_median` /
//! `refresh_full_ms_median`: refreshing more often shrinks the former at the
//! price of the latter) and the answer-memo counters
//! (`answer_cache_hit_rate` is asserted > 0 — Zipf repeats must hit).
//!
//! Run with `cargo run --release -p octant-bench --bin ingest`. Flags:
//! * `--smoke` — reduced problem size (CI's bench-smoke job).
//! * `--json <path>` — additionally write the machine-readable
//!   `BENCH_*.json` summary.

use octant::{BatchGeolocator, LandmarkModel, Octant, OctantConfig};
use octant_bench::{json_path_from_args, service_campaign, OpsBenchSummary, ZipfSampler};
use octant_netsim::observation::PingObservation;
use octant_netsim::topology::NodeId;
use octant_netsim::{ObservationProvider, ObservationRecord, ObservationStore, StoreConfig};
use octant_service::{RequestHandle, ServiceConfig, ShardedService};
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Targets per submitted request — the small-request shape real traffic has.
const REQUEST_SIZE: usize = 4;
/// In-flight request window: the client-side backpressure bound.
const WINDOW: usize = 32;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let json_path = json_path_from_args(&args);

    let (landmark_count, target_sites, per_site) = if smoke { (16, 3, 4) } else { (32, 4, 8) };
    let rounds: usize = if smoke { 4 } else { 12 };
    let lookups_per_phase: u64 = if smoke { 400 } else { 4_000 };

    let campaign = service_campaign(landmark_count, target_sites, per_site, 42);
    let landmarks = campaign.landmarks.clone();
    // An eighth of the landmarks (floored, min 1) re-probe each round:
    // squarely inside the < 25%-changed regime the incremental
    // recalibration targets.
    let churners = (landmarks.len() / 8).max(1);

    let store = Arc::new(ObservationStore::from_dataset(
        StoreConfig::default(),
        &campaign.dataset,
    ));
    let config = OctantConfig::default();
    let octant = Octant::new(config);
    let service = ShardedService::start(
        ServiceConfig::default().with_octant(config).with_shards(2),
        store.clone(),
        &landmarks,
    );
    println!(
        "# ingest bench: {} landmarks ({churners} churn per round), {} targets, {rounds} rounds, {lookups_per_phase} lookups per phase",
        landmarks.len(),
        campaign.targets.len(),
    );

    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    let mut previous: LandmarkModel = octant.prepare_landmarks(&store, &landmarks);
    let mut last_refresh_version = store.version();
    let mut ingest_records: u64 = 0;
    let mut ingest_elapsed = Duration::ZERO;
    let mut lookup_elapsed = Duration::ZERO;
    let mut full_ms: Vec<f64> = Vec::with_capacity(rounds);
    let mut incremental_ms: Vec<f64> = Vec::with_capacity(rounds);
    let mut staleness_ms: Vec<f64> = Vec::with_capacity(rounds);
    let mut refreshed_pairs: usize = 0;
    let mut reused_pairs: usize = 0;

    for round in 0..rounds {
        // ---- Phase 1: churn ------------------------------------------------
        let churn: Vec<NodeId> = (0..churners)
            .map(|k| landmarks[(round * churners + k) % landmarks.len()])
            .collect();
        let mut updates = Vec::new();
        for &lm in &churn {
            for &other in &landmarks {
                if other == lm {
                    continue;
                }
                if let Some(min) = store.ping(lm, other).min() {
                    // A fresh probe run lands near — but not exactly on —
                    // the previous floor.
                    let jitter = 0.95 + 0.1 * rng.gen::<f64>();
                    updates.push(ObservationRecord::Ping {
                        from: lm,
                        to: other,
                        observation: PingObservation::new(vec![
                            octant_geo::units::Latency::from_ms(min.ms() * jitter),
                        ]),
                        seq: round as u64 + 1,
                    });
                }
            }
        }
        ingest_records += updates.len() as u64;
        let ingest_start = Instant::now();
        store.ingest(updates);
        ingest_elapsed += ingest_start.elapsed();
        let stale_since = Instant::now();

        // ---- Phase 2: stale lookups ---------------------------------------
        lookup_elapsed += run_lookups(&service, &campaign.targets, lookups_per_phase, &mut rng);

        // ---- Phase 3: refresh (full timed, incremental timed + registered) -
        let full_start = Instant::now();
        let full = octant.prepare_landmarks(&store, &landmarks);
        full_ms.push(full_start.elapsed().as_secs_f64() * 1e3);

        let changed = store.changed_since(last_refresh_version);
        let inc_start = Instant::now();
        let (incremental, report) =
            octant.prepare_landmarks_incremental(&store, &landmarks, &previous, &changed);
        incremental_ms.push(inc_start.elapsed().as_secs_f64() * 1e3);
        last_refresh_version = store.version();

        assert!(!report.full_rebuild, "steady churn never forces a rebuild");
        let total_pairs = previous.landmark_count() * (previous.landmark_count() - 1);
        assert_eq!(report.refreshed_pairs + report.reused_pairs, total_pairs);
        assert!(
            report.refreshed_pairs <= total_pairs / 2,
            "churning {churners}/{} landmarks must re-measure at most half the pairs",
            landmarks.len(),
        );
        refreshed_pairs += report.refreshed_pairs;
        reused_pairs += report.reused_pairs;
        if round == 0 {
            // Bit-identity spot check: the delta model must answer exactly
            // like the from-scratch one (pinned in depth by
            // tests/ingest_parity.rs; re-asserted here on live churn).
            let geo = BatchGeolocator::new(config);
            let probe = &campaign.targets[..campaign.targets.len().min(4)];
            let a = geo.localize_batch_with_model(&store, &full, probe);
            let b = geo.localize_batch_with_model(&store, &incremental, probe);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.point, y.point, "incremental model diverged");
                assert_eq!(x.report, y.report, "incremental model diverged");
            }
        }
        service.register_model(incremental.clone(), landmarks.clone());
        staleness_ms.push(stale_since.elapsed().as_secs_f64() * 1e3);
        previous = incremental;

        // ---- Phase 4: fresh lookups ---------------------------------------
        lookup_elapsed += run_lookups(&service, &campaign.targets, lookups_per_phase, &mut rng);
    }

    let stats = service.stats();
    let answers = service.stats().answers;
    let store_stats = store.stats();
    let lookups_total = rounds as u64 * 2 * lookups_per_phase;
    assert_eq!(stats.counters.targets_served, lookups_total);
    assert!(
        answers.hits > 0,
        "Zipf repeats within an epoch must hit the answer memo"
    );

    let full_med = median(&mut full_ms);
    let inc_med = median(&mut incremental_ms);
    let stale_med = median(&mut staleness_ms);
    println!(
        "# ingest                     : {ingest_records} records in {ingest_elapsed:.1?} ({:.0} records/s), {} merges",
        ingest_records as f64 / ingest_elapsed.as_secs_f64(),
        store_stats.merges,
    );
    println!(
        "# lookups                    : {lookups_total} targets in {lookup_elapsed:.1?} ({:.1} targets/s), p50 {:?} p99 {:?}",
        lookups_total as f64 / lookup_elapsed.as_secs_f64(),
        stats.latency.p50,
        stats.latency.p99,
    );
    println!(
        "# refresh (median)           : full {full_med:.3} ms, incremental {inc_med:.3} ms ({:.2}x), {refreshed_pairs} pairs re-measured / {reused_pairs} reused",
        full_med / inc_med,
    );
    println!("# staleness (median)         : {stale_med:.3} ms on the old epoch per round");
    println!(
        "# answer memo                : {} hits / {} misses ({:.1}% hit rate), {} insertions, {} evictions",
        answers.hits,
        answers.misses,
        answers.hit_rate() * 100.0,
        answers.insertions,
        answers.evictions,
    );
    service.shutdown();

    let mut summary = OpsBenchSummary {
        bench: "ingest".into(),
        scenario: if smoke { "smoke".into() } else { "full".into() },
        ..OpsBenchSummary::default()
    };
    summary.push("rounds", rounds as f64);
    summary.push("landmarks", landmarks.len() as f64);
    summary.push("churned_per_round", churners as f64);
    summary.push("churned_fraction", churners as f64 / landmarks.len() as f64);
    summary.push("ingest_records", ingest_records as f64);
    summary.push(
        "ingest_records_per_sec",
        ingest_records as f64 / ingest_elapsed.as_secs_f64(),
    );
    summary.push("store_merges", store_stats.merges as f64);
    summary.push("lookups", lookups_total as f64);
    summary.push(
        "lookup_targets_per_sec",
        lookups_total as f64 / lookup_elapsed.as_secs_f64(),
    );
    summary.push(
        "lookup_latency_p50_ms",
        stats.latency.p50.as_secs_f64() * 1e3,
    );
    summary.push(
        "lookup_latency_p99_ms",
        stats.latency.p99.as_secs_f64() * 1e3,
    );
    summary.push("refresh_full_ms_median", full_med);
    summary.push("refresh_incremental_ms_median", inc_med);
    summary.push("refresh_speedup", full_med / inc_med);
    summary.push(
        "refreshed_pair_fraction",
        refreshed_pairs as f64 / (refreshed_pairs + reused_pairs) as f64,
    );
    summary.push("staleness_ms_median", stale_med);
    summary.push("answer_cache_hits", answers.hits as f64);
    summary.push("answer_cache_misses", answers.misses as f64);
    summary.push("answer_cache_insertions", answers.insertions as f64);
    summary.push("answer_cache_evictions", answers.evictions as f64);
    summary.push("answer_cache_hit_rate", answers.hit_rate());
    if let Some(path) = json_path {
        summary
            .write_json(&path)
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        println!("# wrote {}", path.display());
    }
}

/// Pushes one Zipf lookup phase through the service with a sliding
/// in-flight window and returns its wall time.
fn run_lookups(
    service: &ShardedService<Arc<ObservationStore>>,
    targets: &[NodeId],
    lookups: u64,
    rng: &mut rand::rngs::StdRng,
) -> Duration {
    let zipf = ZipfSampler::new(targets.len(), 1.0);
    let mut window: VecDeque<RequestHandle> = VecDeque::with_capacity(WINDOW);
    let start = Instant::now();
    let mut sent: u64 = 0;
    while sent < lookups {
        let take = REQUEST_SIZE.min((lookups - sent) as usize);
        let request: Vec<NodeId> = (0..take).map(|_| targets[zipf.sample(rng)]).collect();
        sent += take as u64;
        window.push_back(service.submit(&request));
        if window.len() >= WINDOW {
            let _ = window
                .pop_front()
                .expect("window is non-empty")
                .wait_outcomes();
        }
    }
    for handle in window {
        let _ = handle.wait_outcomes();
    }
    start.elapsed()
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    values[values.len() / 2]
}
