//! Workspace-wide telemetry contract:
//!
//! * the **disabled path is bit-identical**: solving with no collector and
//!   no capture produces the same estimates, bit for bit, as solving under
//!   an installed `NullCollector` or with profiling on;
//! * **spans nest per thread** even when the batch engine fans solves out
//!   over worker threads — every recorded span's parent is a span opened on
//!   the same thread, never a sibling worker's;
//! * **stage self-times partition the wall**: a captured profile's total is
//!   bounded by (and, for a solve-dominated call, close to) the measured
//!   wall time of the profiled call;
//! * the **metrics registry** aggregates concurrent bumps exactly and
//!   snapshots deterministically (sorted names, stable values);
//! * **histogram merging is associative**, so per-shard stage histograms
//!   can be folded in any order;
//! * `RequestHandle::wait()` panics with the **target index and typed
//!   outcome** when a request resolves to anything but `Served`.

use octant::{BatchGeolocator, OctantConfig, RouterLocalization};
use octant_bench::{service_campaign, BatchCampaign};
use octant_service::{LocalizeOptions, ServiceConfig, ShardConfig, ShardedService, StageBreakdown};
use octant_telemetry::{
    clear_collector, set_collector, LatencyHistogram, MetricsRegistry, RecordingCollector,
};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Collector installs and profile captures share process-global state;
/// tests that touch either serialize on this lock so the default `cargo
/// test` thread-pool cannot interleave them.
static TRACING_SERIAL: Mutex<()> = Mutex::new(());

fn small_campaign() -> BatchCampaign {
    service_campaign(12, 2, 2, 42)
}

fn recursive_config() -> OctantConfig {
    OctantConfig::default().with_router_localization(RouterLocalization::Recursive)
}

#[test]
fn profiling_and_null_collector_leave_estimates_bit_identical() {
    let _serial = TRACING_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let campaign = small_campaign();
    let batch = BatchGeolocator::new(recursive_config());
    let model = batch
        .octant()
        .prepare_landmarks(&campaign.dataset, &campaign.landmarks);

    // Reference: telemetry fully disabled (the default path).
    let plain = batch.localize_batch_with_model(&campaign.dataset, &model, &campaign.targets);
    assert!(
        plain.iter().all(|e| e.profile.is_none()),
        "the unprofiled path must not allocate stage profiles"
    );

    // Same solve under an installed NullCollector: the span machinery runs
    // (timing, stacks, self-time) but the numbers must not change.
    set_collector(Arc::new(octant_telemetry::NullCollector));
    let nulled = batch.localize_batch_with_model(&campaign.dataset, &model, &campaign.targets);
    clear_collector();

    // Same solve with per-target capture on.
    let profiled = batch.localize_batch_profiled(&campaign.dataset, &model, &campaign.targets);

    for ((a, b), c) in plain.iter().zip(&nulled).zip(&profiled) {
        let pa = a.point.expect("solved");
        let pb = b.point.expect("solved");
        let pc = c.point.expect("solved");
        assert_eq!(
            (pa.lat.to_bits(), pa.lon.to_bits()),
            (pb.lat.to_bits(), pb.lon.to_bits()),
            "NullCollector run must be bit-identical to the disabled run"
        );
        assert_eq!(
            (pa.lat.to_bits(), pa.lon.to_bits()),
            (pc.lat.to_bits(), pc.lon.to_bits()),
            "profiled run must be bit-identical to the disabled run"
        );
    }
}

#[test]
fn spans_nest_per_thread_across_the_batch_fanout() {
    let _serial = TRACING_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let campaign = small_campaign();
    let batch = BatchGeolocator::new(recursive_config());
    let model = batch
        .octant()
        .prepare_landmarks(&campaign.dataset, &campaign.landmarks);

    let recorder = Arc::new(RecordingCollector::new());
    set_collector(recorder.clone());
    let _ = batch.localize_batch_with_model(&campaign.dataset, &model, &campaign.targets);
    clear_collector();
    let records = recorder.take();

    assert!(
        !records.is_empty(),
        "an installed collector must see the solve's spans"
    );
    // Evidence-source spans open at the top of each per-target solve; the
    // solver stages nest under nothing or under a source (recursive router
    // sub-solves run whole pipelines inside `source.router`). Whatever the
    // shape, a recorded parent must be one of the instrumented span names —
    // i.e. a frame from the same thread's stack, never garbage from a
    // sibling worker.
    let known = [
        "source.latency",
        "source.router",
        "source.geography",
        "source.hint",
        "source.dns",
        "source.population",
        "source.custom",
        "solver.intersect",
        "solver.simplify",
        "solver.fallback",
        "solver.subtract",
        "core.target_height",
        "core.point_estimate",
        "region.dilate",
        "solve",
    ];
    for record in &records {
        assert!(known.contains(&record.name), "unknown span {}", record.name);
        if let Some(parent) = record.parent {
            assert!(
                known.contains(&parent),
                "span {} closed under unknown parent {parent}",
                record.name
            );
            assert!(record.depth > 0);
        }
        assert!(record.self_time <= record.wall);
    }
    // The recursive campaign must actually exercise nesting somewhere.
    assert!(
        records.iter().any(|r| r.parent.is_some()),
        "recursive router localization must produce nested spans"
    );
}

#[test]
fn captured_stage_totals_track_the_measured_wall() {
    let _serial = TRACING_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let campaign = small_campaign();
    let batch = BatchGeolocator::new(recursive_config());
    let model = batch
        .octant()
        .prepare_landmarks(&campaign.dataset, &campaign.landmarks);
    let target = &campaign.targets[..1];

    let start = Instant::now();
    let estimates = batch.localize_batch_profiled(&campaign.dataset, &model, target);
    let wall = start.elapsed();

    let profile = estimates[0].profile.as_ref().expect("profiled");
    assert!(!profile.is_empty());
    let total = profile.total();
    // Self-times partition the top span's wall, which sits inside the
    // measured call: the sum can never exceed the wall, and for this
    // solve-dominated single-target call it accounts for the bulk of it.
    assert!(total <= wall, "stage sum {total:?} exceeds wall {wall:?}");
    assert!(
        total >= wall.mul_f64(0.5),
        "stage sum {total:?} covers too little of wall {wall:?}"
    );
    assert!(
        profile.stage("solve").is_some(),
        "the top-level solve stage must be present"
    );
}

#[test]
fn profiled_serving_reports_stage_breakdowns_that_cover_the_serve_wall() {
    let _serial = TRACING_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let campaign = small_campaign();
    let provider = campaign.dataset.clone().into_shared();
    let service = ShardedService::start(
        ServiceConfig::default()
            .with_octant(recursive_config())
            .with_shard(ShardConfig::default().with_count(2)),
        provider,
        &campaign.landmarks,
    );

    let handle = service.submit_with_options(
        &campaign.targets,
        LocalizeOptions::default().with_profiling(),
    );
    let served = handle.wait();
    assert_eq!(served.len(), campaign.targets.len());
    for s in &served {
        let profile = s.estimate.profile.as_ref().expect("profiled request");
        assert!(
            profile.stage("queue_wait").is_some(),
            "serving prepends the queue-wait stage"
        );
        assert!(profile.stage("solve").is_some());
    }

    let report = service.stats_report();
    service.shutdown();
    let names: Vec<&str> = report.stage_breakdown.iter().map(|b| b.name).collect();
    assert!(names.contains(&"queue_wait") && names.contains(&"solve"));
    // Recursive serving dilates router regions through the radius-class
    // cache; those dilations are timed like inline ones.
    assert!(
        names.contains(&"region.dilate"),
        "cached dilations must open a region.dilate span (stages: {names:?})"
    );
    // ≥90% coverage of the serve wall: the shard's stage histograms fold
    // each profiled target's stages, whose self-times partition the solve
    // span's wall — so summed stage time (minus queue wait, which is extra
    // to the solve) must cover at least 90% of summed per-target solve
    // wall. Reconstruct both sides from the report itself.
    let stage_total: Duration = report
        .stage_breakdown
        .iter()
        .filter(|b| b.name != "queue_wait")
        .map(|b| b.total)
        .sum();
    let solve_row: &StageBreakdown = report
        .stage_breakdown
        .iter()
        .find(|b| b.name == "solve")
        .expect("solve row");
    assert!(
        solve_row.total <= stage_total,
        "sub-stages only ever add to the solve span's self time"
    );
    assert!(stage_total > Duration::ZERO);
    // And the JSON render carries the section for the bench artifacts.
    let json = report.to_json();
    assert!(json.contains("\"stage_breakdown\""));
    assert!(json.contains("\"name\": \"queue_wait\""));
}

#[test]
fn registry_counters_aggregate_concurrent_bumps_exactly() {
    let registry = MetricsRegistry::global();
    let threads = 8;
    let per_thread = 1000u64;
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            std::thread::spawn(move || {
                let counter = MetricsRegistry::global().counter("test.telemetry.concurrent");
                for _ in 0..per_thread {
                    counter.inc();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("counter threads do not panic");
    }
    assert_eq!(
        registry.counter_value("test.telemetry.concurrent"),
        threads * per_thread
    );

    // Snapshots are deterministic: sorted names, repeatable values. (Other
    // tests in this binary may bump *their* counters concurrently, so the
    // repeatability check pins this test's own counter, not the whole set.)
    let a = registry.snapshot();
    let b = registry.snapshot();
    let names: Vec<&String> = a.counters.iter().map(|(n, _)| n).collect();
    let mut sorted = names.clone();
    sorted.sort();
    assert_eq!(names, sorted, "snapshot counters are name-sorted");
    assert_eq!(
        a.counter("test.telemetry.concurrent"),
        Some(threads * per_thread)
    );
    assert_eq!(
        b.counter("test.telemetry.concurrent"),
        Some(threads * per_thread)
    );
}

#[test]
fn histogram_merging_is_associative() {
    let mut parts = [
        LatencyHistogram::default(),
        LatencyHistogram::default(),
        LatencyHistogram::default(),
    ];
    for (i, part) in parts.iter_mut().enumerate() {
        for k in 1..=50u64 {
            part.record(Duration::from_micros(k * (i as u64 + 1) * 37));
        }
    }
    let [a, b, c] = parts;

    // (a ⊕ b) ⊕ c
    let mut left = a.clone();
    left.merge(&b);
    left.merge(&c);
    // a ⊕ (b ⊕ c)
    let mut right_tail = b.clone();
    right_tail.merge(&c);
    let mut right = a.clone();
    right.merge(&right_tail);

    assert_eq!(left.count(), right.count());
    assert_eq!(left.total(), right.total());
    let (ls, rs) = (left.summary(), right.summary());
    assert_eq!(
        (ls.p50, ls.p99, ls.p999, ls.max),
        (rs.p50, rs.p99, rs.p999, rs.max)
    );
}

#[test]
fn wait_panic_names_the_failing_target_and_outcome() {
    let campaign = small_campaign();
    let provider = campaign.dataset.clone().into_shared();
    // A zero deadline has already expired by the time a worker drains the
    // target.
    let service = ShardedService::start(
        ServiceConfig::default().with_octant(OctantConfig::minimal()),
        provider,
        &campaign.landmarks,
    );
    let handle = service.submit_with_options(
        &campaign.targets[..1],
        LocalizeOptions::default().with_deadline(Duration::ZERO),
    );
    let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || handle.wait()))
        .expect_err("wait() must panic on a non-served outcome");
    let message = panic
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()).unwrap());
    assert!(
        message.contains("target #0"),
        "panic must name the target index: {message}"
    );
    assert!(
        message.contains("DeadlineExceeded"),
        "panic must carry the typed outcome: {message}"
    );
    assert!(message.contains("wait_outcomes"));
    service.shutdown();
}
