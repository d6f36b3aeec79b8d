//! Serving-tier campaign binary: the online engine's axis.
//!
//! Stages:
//!
//! 1. **Recursive parity + measured serving** — runs
//!    `RouterLocalization::Recursive` (the most expensive enrichment in the
//!    framework, §3's recursive router localization) over targets that
//!    share last-hop routers three ways: the offline batch engine with
//!    inline sub-solves (the `recursive_baseline_ms_per_target` reference),
//!    a service with the radius-class dilation cache opted **out**
//!    (asserted bit-identical to the batch run), and a default-config
//!    service with the dilation cache **on** — the measured
//!    `recursive_ms_per_target` run, asserted sampling-equivalent (point
//!    estimates within a small geodesic shift of the exact run).
//!
//! 1b. **Dilation step sweep** — re-solves the campaign through the router
//!    cache at several `dilation_radius_step_km` settings and reports the
//!    median/p90/max point-estimate shift vs the exact step-0 run — the
//!    accuracy envelope behind the default step
//!    (`dilation_step<step>_{median,p90,max}_shift_km` in the JSON).
//! 2. **Zipf sustained traffic** — the measured campaign: a long
//!    Zipf-distributed request stream (hot targets dominate, long cold
//!    tail) against the sharded service, first with one shard (the
//!    pre-sharding configuration — this is the `baseline_*` section of the
//!    JSON), then with a multi-shard data plane (the measured run). Reports
//!    throughput, p50/p99/p999 serve latency from the service's merged
//!    per-shard histograms, and the shed rate (bounded queues are sized so
//!    a healthy run sheds nothing; a nonzero shed rate in the artifact
//!    means the tier was overloaded).
//!
//! 3. **Telemetry overhead, like for like** — two multi-shard services,
//!    one serving every request with `LocalizeOptions::with_profiling()`,
//!    run alternating passes. A pass refreshes the model and then requests
//!    every target once, several times over: the epoch bump leaves the
//!    answer memo nothing to serve (profiled requests bypass it anyway), so
//!    both sides solve the same targets with the same cache warmth.
//!    `telemetry_overhead_pct` is the median of the per-pair wall-clock
//!    deltas, with `telemetry_overhead_{min,max}_pct` as its spread; the
//!    profiled service's merged per-stage histograms
//!    (`ShardedService::stats_report`) become the JSON's `stage_breakdown`
//!    section.
//!
//! The stream is submitted through a sliding window of in-flight requests,
//! so the client applies backpressure the way a real frontend does instead
//! of dumping the whole campaign into the queues at once.
//!
//! Run with `cargo run --release -p octant-bench --bin service`. Flags:
//! * `--smoke` — reduced problem size (CI's bench-smoke job).
//! * `--json <path>` — additionally write the machine-readable
//!   `BENCH_*.json` summary documented in `octant_bench`'s crate docs.

use octant::{BatchGeolocator, Octant, OctantConfig, RouterLocalization};
use octant_bench::{json_path_from_args, service_campaign, BenchSummary, StageRow, ZipfSampler};
use octant_netsim::topology::NodeId;
use octant_netsim::{MeasurementDataset, ObservationProvider};
use octant_service::{
    GeolocationService, LocalizeOptions, RequestHandle, RouterCache, RouterCacheConfig,
    ServiceConfig, ShardConfig,
};
use rand::SeedableRng;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Targets per submitted request — the small-request shape real traffic has.
const REQUEST_SIZE: usize = 4;
/// In-flight request window: the client-side backpressure bound.
const WINDOW: usize = 32;
/// Data-plane shards of the measured Zipf run and of stage 3.
const SHARDS: usize = 4;
/// Profiled/unprofiled pass pairs of stage 3, alternating which runs first.
const OVERHEAD_PAIRS: usize = 5;
/// Refresh-then-request-every-target rounds per stage-3 pass.
const OVERHEAD_SWEEPS: usize = 20;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let json_path = json_path_from_args(&args);
    // Targets concentrated behind a few sites, so they share last-hop
    // routers: the N ≫ R regime the router cache amortizes.
    let (landmark_count, target_sites, per_site) = if smoke { (16, 3, 4) } else { (16, 3, 16) };
    // The sustained stream: total targets pushed through the serving tier.
    let stream_len: u64 = if smoke { 2_000 } else { 120_000 };

    let campaign = service_campaign(landmark_count, target_sites, per_site, 42);
    let provider = campaign.dataset.into_shared();

    // ---- Stage 1: recursive parity (shared cache vs inline sub-solves) -----
    let octant_config =
        OctantConfig::default().with_router_localization(RouterLocalization::Recursive);
    println!(
        "# service bench: {landmark_count} landmarks, {} targets behind {target_sites} sites, recursive router localization",
        campaign.targets.len()
    );
    let batch = BatchGeolocator::new(octant_config);
    let base_start = Instant::now();
    let baseline = batch.localize_batch(&provider, &campaign.landmarks, &campaign.targets);
    let base_elapsed = base_start.elapsed();

    // Bit-parity run: dilation cache opted out (step 0), so serving must
    // reproduce the uncached batch engine byte for byte.
    let service = GeolocationService::start(
        ServiceConfig::default()
            .with_octant(octant_config)
            .with_cache(RouterCacheConfig::default().with_dilation_radius_step_km(0.0)),
        provider.clone(),
        &campaign.landmarks,
    );
    let serve_start = Instant::now();
    let handles: Vec<_> = campaign
        .targets
        .chunks(REQUEST_SIZE)
        .map(|chunk| service.submit(chunk))
        .collect();
    let served: Vec<_> = handles.into_iter().flat_map(|h| h.wait()).collect();
    let serve_elapsed = serve_start.elapsed();

    let identical = campaign
        .targets
        .iter()
        .zip(&baseline)
        .zip(&served)
        .all(|((&t, b), s)| s.target == t && s.estimate.point == b.point);
    assert!(
        identical,
        "cached serving (dilation cache off) must be bit-identical to the uncached recursive batch"
    );
    let stats = service.stats();
    service.shutdown();

    // Measured run: the characterized default config — radius-class
    // dilation cache on. Sampling-equivalent, not bit-identical: assert the
    // point estimates stay within a small geodesic shift of the exact run.
    let fast_service = GeolocationService::start(
        ServiceConfig::default().with_octant(octant_config),
        provider.clone(),
        &campaign.landmarks,
    );
    let fast_start = Instant::now();
    let handles: Vec<_> = campaign
        .targets
        .chunks(REQUEST_SIZE)
        .map(|chunk| fast_service.submit(chunk))
        .collect();
    let fast: Vec<_> = handles.into_iter().flat_map(|h| h.wait()).collect();
    let fast_elapsed = fast_start.elapsed();
    let fast_stats = fast_service.stats();
    fast_service.shutdown();
    let fast_points: Vec<_> = fast.iter().map(|s| s.estimate.point).collect();
    let base_points: Vec<_> = baseline.iter().map(|b| b.point).collect();
    let default_step_shift = quantiles(&point_shifts_km(&base_points, &fast_points));

    // The accuracy gate. Class-rounded dilation shifts point estimates
    // (tens of km on this campaign — the cached seam trades the exact float
    // stream for shared work), but what must hold for the default to be
    // safe is that accuracy against **ground truth** is preserved: the
    // shift sits far below the estimator's intrinsic error scale, so the
    // median error may move only by noise (±10% + a few km of quantile
    // granularity), not degrade outright.
    let truths: Vec<_> = campaign
        .targets
        .iter()
        .map(|&t| provider.advertised_location(t))
        .collect();
    let errors_km = |points: &[Option<octant_geo::GeoPoint>]| -> Vec<f64> {
        points
            .iter()
            .zip(&truths)
            .filter_map(|(p, t)| match (p, t) {
                (Some(p), Some(t)) => Some(octant_geo::distance::great_circle_km(*p, *t)),
                _ => None,
            })
            .collect()
    };
    let base_err = quantiles(&errors_km(&base_points));
    let fast_err = quantiles(&errors_km(&fast_points));
    assert!(
        fast_err.0 <= base_err.0 * 1.10 + 5.0,
        "default dilation step degraded the median error: {:.1} km vs exact {:.1} km",
        fast_err.0,
        base_err.0
    );

    let n = campaign.targets.len();
    let base_ms = base_elapsed.as_secs_f64() * 1e3 / n as f64;
    let fast_ms = fast_elapsed.as_secs_f64() * 1e3 / n as f64;
    println!(
        "# recursive batch (uncached) : {base_elapsed:>10.1?}  ({:.1} targets/s, {base_ms:.1} ms/target)",
        n as f64 / base_elapsed.as_secs_f64()
    );
    println!(
        "# service (exact, step 0)    : {serve_elapsed:>10.1?}  ({:.1} targets/s)",
        n as f64 / serve_elapsed.as_secs_f64()
    );
    println!(
        "# service (default config)   : {fast_elapsed:>10.1?}  ({:.1} targets/s, {fast_ms:.1} ms/target)",
        n as f64 / fast_elapsed.as_secs_f64()
    );
    println!(
        "# recursive speedup          : {:.2}x vs uncached batch (default-config shift: median {:.3} km, p90 {:.3} km, max {:.3} km)",
        base_elapsed.as_secs_f64() / fast_elapsed.as_secs_f64(),
        default_step_shift.0,
        default_step_shift.1,
        default_step_shift.2,
    );
    println!(
        "# accuracy vs ground truth   : median error {:.1} km (exact {:.1}), p90 {:.1} km (exact {:.1})",
        fast_err.0, base_err.0, fast_err.1, base_err.1
    );
    println!(
        "# router cache               : {} sub-localizations, {} hits, {:.1}% hit rate, {} micro-batches, {} fresh dilations",
        stats.cache.misses,
        stats.cache.hits,
        stats.cache.hit_rate() * 100.0,
        stats.counters.batches,
        fast_stats.cache.dilation_misses,
    );

    // ---- Stage 1b: dilation radius-class accuracy envelope ----------------
    // Re-solve the campaign through the router-cache seam at several class
    // widths: the characterization behind the 25 km default. Rounding
    // residual radii up only loosens positive constraints (soundness is
    // structural); these rows quantify how far the point estimates move vs
    // the exact step-0 solve and — the criterion that matters — how the
    // error against ground truth responds.
    let octant = Octant::new(octant_config);
    let model = octant.prepare_landmarks(&provider, &campaign.landmarks);
    let steps: &[f64] = if smoke {
        &[10.0, 25.0, 50.0]
    } else {
        &[12.5, 25.0, 50.0, 100.0]
    };
    let mut step_metrics: Vec<(String, f64)> = Vec::new();
    for &step in steps {
        let cache =
            RouterCache::new(RouterCacheConfig::default().with_dilation_radius_step_km(step));
        let source = cache.source(1);
        let run =
            batch.localize_batch_with_routers(&provider, &model, &campaign.targets, Some(&source));
        let run_points: Vec<_> = run.iter().map(|r| r.point).collect();
        let (median, p90, max) = quantiles(&point_shifts_km(&base_points, &run_points));
        let err = quantiles(&errors_km(&run_points));
        println!(
            "# dilation step {step:>5.1} km     : median shift {median:.3} km, p90 {p90:.3} km, max {max:.3} km | median error {:.1} km (exact {:.1}), p90 {:.1} km (exact {:.1}) | {} fresh dilations",
            err.0, base_err.0, err.1, base_err.1,
            cache.fresh_dilations()
        );
        let tag = if step.fract() == 0.0 {
            format!("{}", step as u64)
        } else {
            format!("{step}").replace('.', "p")
        };
        step_metrics.push((format!("dilation_step{tag}_median_shift_km"), median));
        step_metrics.push((format!("dilation_step{tag}_p90_shift_km"), p90));
        step_metrics.push((format!("dilation_step{tag}_max_shift_km"), max));
        step_metrics.push((format!("dilation_step{tag}_median_error_km"), err.0));
        step_metrics.push((format!("dilation_step{tag}_p90_error_km"), err.1));
    }

    // ---- Stage 2: Zipf sustained traffic, one shard vs a sharded plane -----
    println!(
        "# zipf stream: {stream_len} targets (zipf s=1.0 over {n} hosts), requests of {REQUEST_SIZE}, window {WINDOW}"
    );
    let one = run_zipf_stream(
        &provider,
        &campaign.landmarks,
        &campaign.targets,
        1,
        stream_len,
        42,
    );
    let multi = run_zipf_stream(
        &provider,
        &campaign.landmarks,
        &campaign.targets,
        SHARDS,
        stream_len,
        42,
    );
    for (label, r) in [("1 shard ", &one), ("4 shards", &multi)] {
        println!(
            "# {label} : {:>8.2?}  {:>9.1} targets/s  p50 {:?}  p99 {:?}  p999 {:?}  shed {}",
            r.elapsed,
            stream_len as f64 / r.elapsed.as_secs_f64(),
            r.stats.latency.p50,
            r.stats.latency.p99,
            r.stats.latency.p999,
            r.stats.counters.shed(),
        );
    }
    println!(
        "# shard scaling              : {:.2}x (expect ~1x on a single core, >=2x on >=4 cores)",
        one.elapsed.as_secs_f64() / multi.elapsed.as_secs_f64()
    );
    assert_eq!(
        multi.stats.counters.targets_served + multi.stats.counters.shed(),
        stream_len,
        "every streamed target must resolve"
    );

    // ---- Stage 3: telemetry overhead, like for like ------------------------
    let plain_service = zipf_service(&provider, &campaign.landmarks, SHARDS);
    let profiled_service = zipf_service(&provider, &campaign.landmarks, SHARDS);
    let mut overheads: Vec<f64> = (0..OVERHEAD_PAIRS)
        .map(|pair| {
            let pass = |profiled: bool| {
                let service = if profiled {
                    &profiled_service
                } else {
                    &plain_service
                };
                timed_sweeps(service, &campaign.landmarks, &campaign.targets, profiled)
            };
            let (plain, profiled) = if pair % 2 == 0 {
                let plain = pass(false);
                (plain, pass(true))
            } else {
                let profiled = pass(true);
                (pass(false), profiled)
            };
            (profiled.as_secs_f64() - plain.as_secs_f64()) / plain.as_secs_f64() * 100.0
        })
        .collect();
    plain_service.shutdown();
    let profiled_report = profiled_service.stats_report();
    profiled_service.shutdown();
    overheads.sort_by(|a, b| a.partial_cmp(b).expect("overheads are finite"));
    let overhead_pct = overheads[OVERHEAD_PAIRS / 2];
    let (overhead_min, overhead_max) = (overheads[0], overheads[OVERHEAD_PAIRS - 1]);
    println!(
        "# telemetry overhead         : median {overhead_pct:+.1}% (min {overhead_min:+.1}%, max {overhead_max:+.1}%) over {OVERHEAD_PAIRS} alternating pass pairs of {OVERHEAD_SWEEPS} x {n} solves"
    );
    println!("{profiled_report}");

    let mut metrics: Vec<(String, f64)> = vec![
        ("recursive_baseline_ms_per_target".into(), base_ms),
        ("recursive_ms_per_target".into(), fast_ms),
        (
            "recursive_speedup".into(),
            base_elapsed.as_secs_f64() / fast_elapsed.as_secs_f64(),
        ),
        (
            "dilation_default_median_shift_km".into(),
            default_step_shift.0,
        ),
        ("dilation_default_p90_shift_km".into(), default_step_shift.1),
        ("recursive_median_error_km".into(), fast_err.0),
        ("recursive_exact_median_error_km".into(), base_err.0),
        ("telemetry_overhead_min_pct".into(), overhead_min),
        ("telemetry_overhead_max_pct".into(), overhead_max),
    ];
    metrics.extend(step_metrics);

    let summary = BenchSummary {
        bench: "service".into(),
        scenario: if smoke { "smoke".into() } else { "full".into() },
        landmarks: campaign.landmarks.len(),
        targets: stream_len as usize,
        elapsed_s: multi.elapsed.as_secs_f64(),
        baseline_elapsed_s: Some(one.elapsed.as_secs_f64()),
        cache_hits: Some(stats.cache.hits),
        cache_misses: Some(stats.cache.misses),
        metrics,
        shards: Some(SHARDS),
        requests: Some(stream_len),
        shed: Some(multi.stats.counters.shed()),
        shed_rate: Some(multi.stats.shed_rate()),
        latency_p50_ms: Some(multi.stats.latency.p50.as_secs_f64() * 1e3),
        latency_p99_ms: Some(multi.stats.latency.p99.as_secs_f64() * 1e3),
        latency_p999_ms: Some(multi.stats.latency.p999.as_secs_f64() * 1e3),
        stage_breakdown: profiled_report
            .stage_breakdown
            .iter()
            .map(StageRow::from_service)
            .collect(),
        telemetry_overhead_pct: Some(overhead_pct),
    };
    if let Some(path) = json_path {
        summary
            .write_json(&path)
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        println!("# wrote {}", path.display());
    }
}

struct StreamResult {
    elapsed: Duration,
    stats: octant_service::ServiceStats,
}

/// Per-target geodesic shift (km) between two point-estimate vectors.
/// Presence must agree — a target resolving under one configuration but not
/// the other would mean the class rounding changed solvability, which the
/// soundness argument (rounding up only loosens constraints) rules out.
fn point_shifts_km(
    base: &[Option<octant_geo::GeoPoint>],
    run: &[Option<octant_geo::GeoPoint>],
) -> Vec<f64> {
    assert_eq!(base.len(), run.len());
    base.iter()
        .zip(run)
        .map(|(b, r)| match (b, r) {
            (Some(b), Some(r)) => octant_geo::distance::great_circle_km(*b, *r),
            (None, None) => 0.0,
            _ => panic!("point-estimate presence diverged between dilation steps"),
        })
        .collect()
}

/// `(median, p90, max)` of a shift vector (0s for an empty one).
fn quantiles(shifts: &[f64]) -> (f64, f64, f64) {
    if shifts.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let mut sorted = shifts.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("shifts are finite"));
    let at = |q: f64| sorted[((sorted.len() - 1) as f64 * q).round() as usize];
    (at(0.5), at(0.9), sorted[sorted.len() - 1])
}

/// A service with `shards` data-plane shards and a generous (but bounded)
/// per-shard queue, solving with the cheap minimal pipeline: stages 2 and
/// 3 measure the serving tier, not the solver.
fn zipf_service(
    provider: &Arc<MeasurementDataset>,
    landmarks: &[NodeId],
    shards: usize,
) -> GeolocationService<Arc<MeasurementDataset>> {
    GeolocationService::start(
        ServiceConfig::default()
            .with_octant(OctantConfig::minimal())
            .with_shard(
                ShardConfig::default()
                    .with_count(shards)
                    .with_queue_capacity(4096),
            ),
        provider.clone(),
        landmarks,
    )
}

/// One stage-3 pass: `OVERHEAD_SWEEPS` times, refresh the model (untimed)
/// and then request every target once (timed). The refresh opens a new
/// epoch, so no request of the pass can be answered from the memo. Returns
/// the timed total.
fn timed_sweeps(
    service: &GeolocationService<Arc<MeasurementDataset>>,
    landmarks: &[NodeId],
    targets: &[NodeId],
    profiled: bool,
) -> Duration {
    let options = if profiled {
        LocalizeOptions::default().with_profiling()
    } else {
        LocalizeOptions::default()
    };
    (0..OVERHEAD_SWEEPS)
        .map(|_| {
            service.refresh_model(landmarks);
            let start = Instant::now();
            let handles: Vec<RequestHandle> = targets
                .chunks(REQUEST_SIZE)
                .map(|chunk| service.submit_with_options(chunk, options.clone()))
                .collect();
            for handle in handles {
                handle.wait();
            }
            start.elapsed()
        })
        .sum()
}

/// Pushes a seeded Zipf request stream of `stream_len` targets through a
/// fresh [`zipf_service`] using a sliding in-flight window for client
/// backpressure.
fn run_zipf_stream(
    provider: &Arc<MeasurementDataset>,
    landmarks: &[NodeId],
    targets: &[NodeId],
    shards: usize,
    stream_len: u64,
    seed: u64,
) -> StreamResult {
    let service = zipf_service(provider, landmarks, shards);
    let zipf = ZipfSampler::new(targets.len(), 1.0);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut window: VecDeque<RequestHandle> = VecDeque::with_capacity(WINDOW);
    let start = Instant::now();
    let mut sent: u64 = 0;
    while sent < stream_len {
        let take = REQUEST_SIZE.min((stream_len - sent) as usize);
        let request: Vec<NodeId> = (0..take).map(|_| targets[zipf.sample(&mut rng)]).collect();
        sent += take as u64;
        window.push_back(service.submit(&request));
        if window.len() >= WINDOW {
            // Client-side backpressure: wait out the oldest in-flight
            // request before submitting more.
            let _ = window
                .pop_front()
                .expect("window is non-empty")
                .wait_outcomes();
        }
    }
    for handle in window {
        let _ = handle.wait_outcomes();
    }
    let elapsed = start.elapsed();
    let stats = service.stats();
    service.shutdown();
    StreamResult { elapsed, stats }
}
