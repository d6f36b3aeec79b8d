//! What every workload shares: the closed-loop client threads, the record
//! of a timed phase, set-up repetition, counter deltas, and the two metric
//! lists `BENCHMARK.json` names.

use crate::stats::{self, Metric};
use crate::trace::{self, Tracer};
use octant::LocationEstimate;
use octant_geo::GeoPoint;
use octant_netsim::topology::NodeId;
use octant_netsim::ObservationProvider;
use octant_service::ShardedService;
use octant_telemetry::{MetricsRegistry, StageProfile};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Closed-loop client threads per workload: fixed, not read from the
/// machine, so every machine runs the same load shape.
pub const CLIENTS: usize = 2;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// The end-to-end metrics, `(name, unit)`, in result-line order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("throughput_tps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("median_error_km", "km"),
    ("region_hit_rate", "fraction"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// The per-layer metrics, `(name, unit)`, in result-line order.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("service.queue_wait_p50_ms", "ms"),
    ("service.queue_wait_p99_ms", "ms"),
    ("service.solve_p50_ms", "ms"),
    ("service.solve_p99_ms", "ms"),
    ("service.batches", "count"),
    ("service.targets_per_batch", "targets"),
    ("service.largest_batch", "targets"),
    ("service.submit_us_p50", "us"),
    ("service.shed", "count"),
    ("service.deadline_expired", "count"),
    ("service.failed_batches", "count"),
    ("answer_cache.hits", "count"),
    ("answer_cache.misses", "count"),
    ("answer_cache.hit_rate", "fraction"),
    ("answer_cache.evictions", "count"),
    ("router_cache.sub_localizations", "count"),
    ("router_cache.hit_rate", "fraction"),
    ("router_cache.dilation_hits", "count"),
    ("router_cache.dilation_misses", "count"),
    ("router_cache.contour_bases", "count"),
    ("refresh.count", "count"),
    ("refresh.ms_p50", "ms"),
    ("refresh.refreshed_pairs", "count"),
    ("refresh.reused_pairs", "count"),
    ("refresh.full_rebuilds", "count"),
    ("refresh.misses_per_epoch", "count"),
    ("netsim.capture_s", "s"),
    ("netsim.ingest_ms_p50", "ms"),
    ("netsim.ingest_records", "count"),
    ("netsim.changed_nodes", "count"),
    ("calibration.builds", "count"),
    ("calibration.prepare_ms_p50", "ms"),
    ("core.localize_ms_p50", "ms"),
    ("source.latency_ms_p50", "ms"),
    ("source.router_ms_p50", "ms"),
    ("source.geography_ms_p50", "ms"),
    ("solver.intersect_ms_p50", "ms"),
    ("solver.simplify_ms_p50", "ms"),
    ("solver.fallback_ms_p50", "ms"),
    ("region.band_merges", "count"),
    ("region.crossing_scan_ops", "count"),
    ("region.sweep_mode.eventq", "count"),
    ("region.sweep_mode.rescan", "count"),
    ("region.walk_unions", "count"),
    ("region.walk_fallbacks", "count"),
    ("region.walk_fallback_ratio", "fraction"),
    ("landmass_cache.hits", "count"),
    ("landmass_cache.misses", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.coverage_p50", "fraction"),
];

/// Profile stages reported as `<stage>_ms_p50`.
const STAGES: [(&str, &str); 6] = [
    ("source.latency", "source.latency_ms_p50"),
    ("source.router", "source.router_ms_p50"),
    ("source.geography", "source.geography_ms_p50"),
    ("solver.intersect", "solver.intersect_ms_p50"),
    ("solver.simplify", "solver.simplify_ms_p50"),
    ("solver.fallback", "solver.fallback_ms_p50"),
];

/// Registry counters read as deltas over the timed phase. Those that are
/// also per-layer metric names are reported as they are.
const COUNTERS: [&str; 21] = [
    "service.batches",
    "service.targets_served",
    "service.shed_queue_full",
    "service.deadline_expired",
    "service.failed_batches",
    "answer_cache.hits",
    "answer_cache.misses",
    "answer_cache.evictions",
    "router_cache.hits",
    "router_cache.misses",
    "router_cache.dilation_hits",
    "router_cache.dilation_misses",
    "router_cache.contour_bases",
    "region.band_merges",
    "region.crossing_scan_ops",
    "region.sweep_mode.eventq",
    "region.sweep_mode.rescan",
    "region.walk_unions",
    "region.walk_fallbacks",
    "landmass_cache.hits",
    "landmass_cache.misses",
];

/// One answered target: the estimate and the model epoch that produced it
/// (0 outside the service).
pub struct Answer {
    pub epoch: u64,
    pub estimate: LocationEstimate,
}

/// Answers are keyed by `(campaign, target)`; serving workloads have one
/// campaign.
pub type AnswerKey = (usize, NodeId);

/// One incremental model refresh of `serve-refresh`.
pub struct Refresh {
    pub ingest_ms: f64,
    pub refresh_ms: f64,
    pub records: usize,
    pub changed_nodes: usize,
    pub report: octant::RecalibrationReport,
}

/// One completed request: when it ended, how long it took, and how many
/// of its targets were answered with a point estimate.
pub struct Sample {
    pub end: Instant,
    pub latency_ms: f64,
    pub answered: u32,
}

/// What the client threads recorded during a timed phase.
#[derive(Default)]
pub struct ClientLog {
    /// Every completed request.
    pub requests: Vec<Sample>,
    /// Wall time of each `submit` call, in microseconds.
    pub submit_us: Vec<f64>,
    /// Targets answered with a point estimate.
    pub succeeded: u64,
    /// Targets shed, expired, failed or left without a point estimate.
    pub failed: u64,
    /// The latest answer per target.
    pub answers: HashMap<AnswerKey, Answer>,
    pub refreshes: Vec<Refresh>,
    /// Stage profiles of profiled targets.
    pub profiles: Vec<StageProfile>,
}

impl ClientLog {
    /// Records a request that ran from `begin` to `end`.
    pub fn request(&mut self, begin: Instant, end: Instant, answered: u32) {
        self.requests.push(Sample {
            end,
            latency_ms: (end - begin).as_secs_f64() * 1e3,
            answered,
        });
    }

    /// Counts `estimate` and records it for `key`.
    pub fn answer(&mut self, key: AnswerKey, epoch: u64, estimate: LocationEstimate) {
        if estimate.point.is_some() {
            self.succeeded += 1;
        } else {
            self.failed += 1;
        }
        self.keep_latest(key, Answer { epoch, estimate });
    }

    /// Keeps the answer of the later epoch.
    fn keep_latest(&mut self, key: AnswerKey, answer: Answer) {
        if self
            .answers
            .get(&key)
            .is_none_or(|a| a.epoch <= answer.epoch)
        {
            self.answers.insert(key, answer);
        }
    }

    fn merge(&mut self, other: ClientLog) {
        self.requests.extend(other.requests);
        self.submit_us.extend(other.submit_us);
        self.succeeded += other.succeeded;
        self.failed += other.failed;
        for (key, answer) in other.answers {
            self.keep_latest(key, answer);
        }
        self.refreshes.extend(other.refreshes);
        self.profiles.extend(other.profiles);
    }
}

/// Runs `CLIENTS` client threads, each executing `client(index)`, and
/// merges their logs.
pub fn clients(client: impl Fn(usize) -> ClientLog + Sync) -> ClientLog {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let client = &client;
                scope.spawn(move || client(c))
            })
            .collect();
        let mut log = ClientLog::default();
        for handle in handles {
            log.merge(handle.join().expect("a client thread panicked"));
        }
        log
    })
}

/// The serving tier's own view at the end of a phase. Its stage histograms
/// cover the service's lifetime, including any warm-up.
#[derive(Default)]
pub struct ServiceView {
    pub largest_batch: usize,
    /// `(p50, p99)` of each served target's queue wait, in milliseconds.
    pub queue_wait_ms: (f64, f64),
    /// `(p50, p99)` of each unprofiled micro-batch's solve, in milliseconds.
    pub solve_ms: (f64, f64),
}

impl ServiceView {
    pub fn of<P>(service: &ShardedService<P>) -> Self
    where
        P: ObservationProvider + Send + Sync + 'static,
    {
        let report = service.stats_report();
        let stage_ms = |name: &str| {
            report
                .stage_breakdown
                .iter()
                .find(|s| s.name == name)
                .map_or((0.0, 0.0), |s| {
                    (
                        s.latency.p50.as_secs_f64() * 1e3,
                        s.latency.p99.as_secs_f64() * 1e3,
                    )
                })
        };
        ServiceView {
            largest_batch: report.stats.counters.largest_batch,
            queue_wait_ms: stage_ms("queue_wait"),
            solve_ms: stage_ms("solve"),
        }
    }
}

/// The record of one timed phase.
#[derive(Default)]
pub struct Phase {
    pub elapsed: Duration,
    pub log: ClientLog,
    /// The phase cut into `Workload::WINDOWS` equal windows.
    pub windows: Vec<Window>,
    pub service: Option<ServiceView>,
    /// Registry counter deltas over the phase.
    pub counters: HashMap<String, u64>,
    /// Calibration hulls built during the phase.
    pub calibration_builds: u64,
}

impl Phase {
    /// The median over windows of `f`.
    pub fn median(&self, f: fn(&Window) -> f64) -> f64 {
        stats::median(self.windows.iter().map(f))
    }

    pub fn throughput(&self) -> f64 {
        self.median(|w| w.throughput)
    }

    fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }
}

/// One equal slice of a timed phase: the requests that ended inside it.
#[derive(Debug, Clone, PartialEq)]
pub struct Window {
    pub requests: usize,
    /// Targets answered per second.
    pub throughput: f64,
    pub p50_ms: f64,
    pub tail_ms: f64,
}

/// Cuts `seconds` after `start` into `count` equal windows and summarizes
/// the requests that ended in each. Requests ending after the last window
/// (the ones in flight at the deadline) are left out.
pub fn windows(
    requests: &[Sample],
    start: Instant,
    seconds: f64,
    count: usize,
    tail: f64,
) -> Vec<Window> {
    let length = seconds / count as f64;
    let mut slices: Vec<Vec<&Sample>> = vec![Vec::new(); count];
    for r in requests {
        let index = (r.end.saturating_duration_since(start).as_secs_f64() / length) as usize;
        if index < count {
            slices[index].push(r);
        }
    }
    slices
        .into_iter()
        .map(|mut slice| {
            slice.sort_by_key(|r| r.end);
            // The rate between the window's first and last completion keeps
            // every digit a count over the window's length would round off.
            let throughput = match (slice.first(), slice.last()) {
                (Some(first), Some(last)) if last.end > first.end => {
                    let answered: u32 = slice[1..].iter().map(|r| r.answered).sum();
                    answered as f64 / (last.end - first.end).as_secs_f64()
                }
                _ => 0.0,
            };
            let mut latencies: Vec<f64> = slice.iter().map(|r| r.latency_ms).collect();
            stats::sort(&mut latencies);
            Window {
                requests: latencies.len(),
                throughput,
                p50_ms: stats::quantile(&latencies, 0.5),
                tail_ms: stats::quantile(&latencies, tail),
            }
        })
        .collect()
}

/// A workload: how to set it up, drive it, check it and score it.
pub trait Workload: Sync {
    /// Everything the timed phase needs, built by set-up.
    type State: Sync;

    /// The percentile reported as `latency_tail_ms`: the highest one a
    /// window's request count supports (see [`stats::highest_supported`]).
    const TAIL: f64;

    /// Equal windows a timed phase is cut into. Throughput and latency are
    /// the median over windows, so a burst of interference from outside the
    /// benchmark spoils one window rather than the run.
    const WINDOWS: usize;

    /// Builds the campaign, starts the service and warms it, recording
    /// set-up spans when traced.
    fn setup(&self, tracer: Option<&Tracer>) -> Self::State;

    /// Wall time of the campaign capture inside the last set-up.
    fn capture_time(state: &Self::State) -> Duration;

    /// Runs the closed loop until `deadline`.
    fn measure(&self, state: &Self::State, deadline: Instant, tracer: Option<&Tracer>) -> Phase;

    /// Extra profiled requests after a traced phase, so every workload
    /// reports stage self-times. Not part of the phase's throughput.
    fn probe(&self, _state: &Self::State, _tracer: &Tracer, _phase: &mut Phase) {}

    /// The correctness checks; each returned line is a failed check.
    fn check(&self, state: &Self::State, phase: &Phase) -> Vec<String>;

    /// `(median error km, region hit rate)` against ground truth over the
    /// workload's accuracy set.
    fn accuracy(&self, state: &Self::State, phase: &Phase) -> (f64, f64);
}

/// The outcome of one benchmark run.
pub struct Report {
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed above the result line.
    pub notes: Vec<String>,
}

/// One untraced run: `SETUP_REPS` set-ups, then a timed phase of
/// `seconds`, then the checks. Reports the end-to-end metrics.
pub fn run_untraced<W: Workload>(workload: &W, seconds: f64) -> Report {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut state = None;
    for _ in 0..SETUP_REPS {
        drop(state.take());
        let start = Instant::now();
        state = Some(workload.setup(None));
        setups.push(start.elapsed().as_secs_f64());
    }
    let state = state.expect("SETUP_REPS is positive");
    let phase = timed_phase(workload, &state, seconds, None);
    let mut problems = workload.check(&state, &phase);
    let (median_error_km, hit_rate) = workload.accuracy(&state, &phase);
    drop(state);

    let mut notes = vec![format!(
        "{} requests in {:.3} s; setups {} s",
        phase.log.requests.len(),
        phase.elapsed.as_secs_f64(),
        setups
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(", ")
    )];
    for (i, w) in phase.windows.iter().enumerate() {
        notes.push(format!(
            "window {i}: {} requests, {:.1} targets/s, p50 {:.3} ms, p{} {:.3} ms",
            w.requests,
            w.throughput,
            w.p50_ms,
            W::TAIL * 100.0,
            w.tail_ms
        ));
    }
    // The tail rule: every window must have ten samples beyond `TAIL`.
    let fewest = phase.windows.iter().map(|w| w.requests).min().unwrap_or(0);
    if stats::highest_supported(fewest).is_none_or(|q| q < W::TAIL) {
        notes.push(format!(
            "warning: a window of {fewest} requests has fewer than 10 beyond p{}",
            W::TAIL * 100.0
        ));
    }
    let values = [
        phase.throughput(),
        phase.median(|w| w.p50_ms),
        phase.median(|w| w.tail_ms),
        median_error_km,
        hit_rate,
        peak_rss_mb(),
        stats::median(setups.iter().copied()),
    ];
    let metrics = named(&END_TO_END, &values);
    problems.extend(non_zero(&metrics));
    Report {
        problems,
        attempted: phase.log.succeeded + phase.log.failed,
        failed: phase.log.failed,
        metrics,
        notes,
    }
}

/// One traced run, three phases on fresh set-ups of the same workload and
/// seed: untraced (counters and service statistics, from a process as
/// cold as the end-to-end run's), traced (spans and stage profiles), and
/// untraced again, whose throughput the traced phase is compared with at
/// the same warmth of process-wide caches. Writes the spans to
/// `spans_path` and reports the per-layer metrics.
pub fn run_traced<W: Workload>(workload: &W, seconds: f64, spans_path: &std::path::Path) -> Report {
    let mut problems = Vec::new();
    let untraced = |problems: &mut Vec<String>| {
        let state = workload.setup(None);
        let phase = timed_phase(workload, &state, seconds, None);
        problems.extend(workload.check(&state, &phase));
        (phase, W::capture_time(&state))
    };
    let (plain, capture) = untraced(&mut problems);

    let tracer = Tracer::new();
    let state = workload.setup(Some(&tracer));
    let mut traced = timed_phase(workload, &state, seconds, Some(&tracer));
    problems.extend(workload.check(&state, &traced));
    workload.probe(&state, &tracer, &mut traced);
    drop(state);
    let (warm, _) = untraced(&mut problems);

    let spans = tracer.spans();
    let mut notes = vec![format!(
        "{} spans written to {}",
        spans.len(),
        spans_path.display()
    )];
    if let Err(e) = tracer.write_jsonl(spans_path) {
        problems.push(format!("writing {}: {e}", spans_path.display()));
    }
    notes.push(format!(
        "untraced {:.1} targets/s, traced {:.1} targets/s, untraced again {:.1} targets/s",
        plain.throughput(),
        traced.throughput(),
        warm.throughput()
    ));
    notes.extend(self_time_table(&spans));
    let phases = [&plain, &traced, &warm];
    Report {
        problems,
        attempted: phases.iter().map(|p| p.log.succeeded + p.log.failed).sum(),
        failed: phases.iter().map(|p| p.log.failed).sum(),
        metrics: layer_metrics(&plain, &traced, &warm, &spans, capture),
        notes,
    }
}

/// Runs `measure` until `seconds` from now and records the counter deltas.
fn timed_phase<W: Workload>(
    workload: &W,
    state: &W::State,
    seconds: f64,
    tracer: Option<&Tracer>,
) -> Phase {
    let registry = MetricsRegistry::global();
    let before = COUNTERS.map(|name| registry.counter_value(name));
    let builds = octant::calibration::build_count();
    let start = Instant::now();
    let mut phase = workload.measure(state, start + Duration::from_secs_f64(seconds), tracer);
    phase.elapsed = start.elapsed();
    // A fixed job may finish before the deadline; windows then cover it.
    let covered = seconds.min(phase.elapsed.as_secs_f64());
    phase.windows = windows(&phase.log.requests, start, covered, W::WINDOWS, W::TAIL);
    phase.calibration_builds = octant::calibration::build_count() - builds;
    phase.counters = COUNTERS
        .iter()
        .zip(before)
        .map(|(name, before)| (name.to_string(), registry.counter_value(name) - before))
        .collect();
    phase
}

/// The per-layer metrics: counters and service statistics from the first
/// untraced phase, span and profile timings from the traced one, tracing
/// overhead against the second untraced phase.
fn layer_metrics(
    plain: &Phase,
    traced: &Phase,
    warm: &Phase,
    spans: &[trace::Span],
    capture: Duration,
) -> Vec<Metric> {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let mut values: HashMap<&str, f64> = HashMap::new();
    for name in COUNTERS {
        if PER_LAYER.iter().any(|(n, _)| *n == name) {
            values.insert(name, plain.counter(name));
        }
    }

    let service = plain.service.as_ref();
    let (queue_wait, solve) =
        service.map_or(((0.0, 0.0), (0.0, 0.0)), |s| (s.queue_wait_ms, s.solve_ms));
    values.insert("service.queue_wait_p50_ms", queue_wait.0);
    values.insert("service.queue_wait_p99_ms", queue_wait.1);
    values.insert("service.solve_p50_ms", solve.0);
    values.insert("service.solve_p99_ms", solve.1);
    values.insert(
        "service.targets_per_batch",
        stats::ratio(
            plain.counter("service.targets_served"),
            plain.counter("service.batches"),
        ),
    );
    values.insert(
        "service.largest_batch",
        service.map_or(0.0, |s| s.largest_batch as f64),
    );
    values.insert(
        "service.submit_us_p50",
        stats::median(plain.log.submit_us.iter().copied()),
    );
    values.insert("service.shed", plain.counter("service.shed_queue_full"));

    let hits = plain.counter("answer_cache.hits");
    let misses = plain.counter("answer_cache.misses");
    values.insert("answer_cache.hit_rate", stats::ratio(hits, hits + misses));
    let router_hits = plain.counter("router_cache.hits");
    let router_misses = plain.counter("router_cache.misses");
    values.insert("router_cache.sub_localizations", router_misses);
    values.insert(
        "router_cache.hit_rate",
        stats::ratio(router_hits, router_hits + router_misses),
    );

    let refreshes = &plain.log.refreshes;
    let sum = |f: &dyn Fn(&Refresh) -> usize| refreshes.iter().map(f).sum::<usize>() as f64;
    values.insert("refresh.count", refreshes.len() as f64);
    values.insert(
        "refresh.ms_p50",
        stats::median(refreshes.iter().map(|r| r.refresh_ms)),
    );
    values.insert(
        "refresh.refreshed_pairs",
        sum(&|r| r.report.refreshed_pairs),
    );
    values.insert("refresh.reused_pairs", sum(&|r| r.report.reused_pairs));
    values.insert(
        "refresh.full_rebuilds",
        sum(&|r| usize::from(r.report.full_rebuild)),
    );
    values.insert(
        "refresh.misses_per_epoch",
        misses / (refreshes.len() + 1) as f64,
    );
    values.insert("netsim.capture_s", capture.as_secs_f64());
    values.insert(
        "netsim.ingest_ms_p50",
        stats::median(refreshes.iter().map(|r| r.ingest_ms)),
    );
    values.insert("netsim.ingest_records", sum(&|r| r.records));
    values.insert("netsim.changed_nodes", sum(&|r| r.changed_nodes));

    values.insert("calibration.builds", plain.calibration_builds as f64);
    let span_p50 = |name: &str| {
        stats::median(
            spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| ms(s.duration())),
        )
    };
    values.insert("calibration.prepare_ms_p50", span_p50("prepare_landmarks"));
    let localize = if spans.iter().any(|s| s.name == "localize_with_model") {
        span_p50("localize_with_model")
    } else {
        // A served target's profile is its queue wait followed by its
        // solve span's partition.
        stats::median(traced.log.profiles.iter().map(|p| {
            ms(p.total()
                .saturating_sub(p.stage("queue_wait").map_or(Duration::ZERO, |s| s.wall)))
        }))
    };
    values.insert("core.localize_ms_p50", localize);
    for (stage, metric) in STAGES {
        let walls = traced.log.profiles.iter().filter_map(|p| p.stage(stage));
        values.insert(metric, stats::median(walls.map(|s| ms(s.wall))));
    }

    let unions = plain.counter("region.walk_unions");
    let fallbacks = plain.counter("region.walk_fallbacks");
    values.insert(
        "region.walk_fallback_ratio",
        stats::ratio(fallbacks, unions + fallbacks),
    );

    let untraced_tps = warm.throughput();
    values.insert(
        "trace.overhead_pct",
        stats::ratio(untraced_tps - traced.throughput(), untraced_tps) * 100.0,
    );
    values.insert("trace.coverage_p50", stats::median(trace::coverage(spans)));

    let ordered: Vec<f64> = PER_LAYER
        .iter()
        .map(|(name, _)| {
            *values
                .get(name)
                .unwrap_or_else(|| panic!("per-layer metric {name} has no value"))
        })
        .collect();
    assert_eq!(
        values.len(),
        PER_LAYER.len(),
        "every computed per-layer value is listed"
    );
    named(&PER_LAYER, &ordered)
}

/// One line per span name, in first-recorded order: count, median and
/// total self time.
fn self_time_table(spans: &[trace::Span]) -> Vec<String> {
    let self_times = trace::self_times(spans);
    let mut rows: Vec<(&str, Vec<f64>)> = Vec::new();
    for span in spans {
        let ms = self_times[&span.id].as_secs_f64() * 1e3;
        match rows.iter_mut().find(|(name, _)| *name == span.name) {
            Some((_, samples)) => samples.push(ms),
            None => rows.push((span.name, vec![ms])),
        }
    }
    let mut lines = vec![format!(
        "{:<28} {:>8} {:>14} {:>14}",
        "span (self time)", "count", "p50 ms", "total ms"
    )];
    for (name, samples) in rows {
        let total: f64 = samples.iter().sum();
        lines.push(format!(
            "{name:<28} {:>8} {:>14.4} {total:>14.3}",
            samples.len(),
            stats::median(samples.iter().copied())
        ));
    }
    lines
}

fn named(list: &[(&'static str, &'static str)], values: &[f64]) -> Vec<Metric> {
    list.iter()
        .zip(values)
        .map(|(&(name, unit), &value)| Metric { name, unit, value })
        .collect()
}

/// End-to-end metrics must be measured and never zero.
fn non_zero(metrics: &[Metric]) -> Vec<String> {
    metrics
        .iter()
        .filter(|m| !m.value.is_finite() || m.value <= 0.0)
        .map(|m| format!("{} is {} {}; it must be positive", m.name, m.value, m.unit))
        .collect()
}

/// Median great-circle error (km) and region hit rate of estimates against
/// their ground-truth positions. An estimate without a region misses.
pub fn accuracy<'a>(
    scored: impl IntoIterator<Item = (GeoPoint, &'a LocationEstimate)>,
) -> (f64, f64) {
    let mut errors = Vec::new();
    let mut hits = 0usize;
    let mut count = 0usize;
    for (truth, estimate) in scored {
        count += 1;
        if let Some(point) = estimate.point {
            errors.push(octant_geo::distance::great_circle_km(point, truth));
        }
        if estimate.region.as_ref().is_some_and(|r| r.contains(truth)) {
            hits += 1;
        }
    }
    (
        stats::median(errors),
        stats::ratio(hits as f64, count as f64),
    )
}

/// A campaign host's ground-truth position.
pub fn truth(provider: &dyn ObservationProvider, target: NodeId) -> GeoPoint {
    provider
        .advertised_location(target)
        .expect("campaign hosts have ground truth")
}

/// The process's peak resident set size (`VmHWM`) in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(0.0)
}

/// Runs `f`, recording it as a root call span named `name` when traced.
pub fn span<T>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    if let Some(tracer) = tracer {
        let id = tracer.reserve();
        tracer.call(id, name, None, None, start, Instant::now());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(section, name, unit)` triples of `BENCHMARK.json`, one metric object
    /// per line as the file is laid out.
    fn declared() -> Vec<(String, String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let field = |line: &str, key: &str| -> Option<String> {
            let rest = &line[line.find(&format!("\"{key}\": \""))? + key.len() + 5..];
            Some(rest[..rest.find('"')?].to_string())
        };
        let mut section = String::new();
        let mut out = Vec::new();
        for line in text.lines() {
            for key in ["end_to_end", "per_layer", "workloads"] {
                if line.contains(&format!("\"{key}\"")) {
                    section = key.to_string();
                }
            }
            if let (Some(name), Some(unit)) = (field(line, "name"), field(line, "unit")) {
                out.push((section.clone(), name, unit));
            }
        }
        out
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let declared = declared();
        let pick = |section: &str| -> Vec<(String, String)> {
            declared
                .iter()
                .filter(|(s, _, _)| s == section)
                .map(|(_, n, u)| (n.clone(), u.clone()))
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(pick("end_to_end"), own(&END_TO_END));
        assert_eq!(pick("per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn windows_split_requests_by_end_time_and_drop_late_ones() {
        let start = Instant::now();
        let at = |ms: u64, latency_ms: f64, answered: u32| Sample {
            end: start + Duration::from_millis(ms),
            latency_ms,
            answered,
        };
        let requests = [
            at(900, 3.0, 4),
            at(100, 1.0, 4),
            at(1500, 2.0, 2),
            at(2500, 9.0, 4),
        ];
        let w = windows(&requests, start, 2.0, 2, 0.9);
        assert_eq!(w.len(), 2);
        // Window 0: 4 targets answered in the 0.8 s after its first completion.
        assert_eq!((w[0].requests, w[0].p50_ms, w[0].tail_ms), (2, 1.0, 3.0));
        assert!((w[0].throughput - 5.0).abs() < 1e-9, "{}", w[0].throughput);
        // Window 1 has one completion, so no rate; the request ending at
        // 2.5 s falls after the last window.
        assert_eq!((w[1].requests, w[1].throughput, w[1].p50_ms), (1, 0.0, 2.0));
    }

    #[test]
    fn stage_metrics_are_listed() {
        for (_, metric) in STAGES {
            assert!(PER_LAYER.iter().any(|(n, _)| *n == metric), "{metric}");
        }
    }
}
