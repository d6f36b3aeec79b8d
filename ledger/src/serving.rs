//! The three serving workloads: `serve-hot`, `serve-refresh` and
//! `serve-recursive`. Each drives one `ShardedService` through
//! `submit_with_options` / `wait_outcomes` from closed-loop clients.

use crate::harness::{self, span, ClientLog, Phase, Refresh, ServiceView, Workload, CLIENTS};
use crate::trace::Tracer;
use octant::{BatchGeolocator, LocationEstimate, OctantConfig, RouterLocalization};
use octant_bench::ZipfSampler;
use octant_geo::units::Latency;
use octant_netsim::observation::PingObservation;
use octant_netsim::topology::NodeId;
use octant_netsim::{
    MeasurementDataset, ObservationProvider, ObservationRecord, ObservationStore, StoreConfig,
};
use octant_service::{LocalizeOptions, ServiceConfig, ShardConfig, ShardedService};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Capture seed of every campaign. The measured network is the benchmark's
/// fixed scenario, so accuracy is comparable across commits; `--seed`
/// drives the traffic.
pub const CAMPAIGN_SEED: u64 = 42;
/// `service_campaign(16, 50, 4)`: 16 landmarks, 200 targets behind 50 sites.
const LANDMARKS: usize = 16;
const TARGET_SITES: usize = 50;
const TARGETS_PER_SITE: usize = 4;
const SHARDS: usize = 2;
const QUEUE_BOUND: usize = 4096;
/// Targets per `serve-hot` / `serve-refresh` request.
const REQUEST_TARGETS: usize = 4;
const ZIPF_EXPONENT: f64 = 1.0;
const HOT_DEADLINE: Duration = Duration::from_secs(2);
const RECURSIVE_DEADLINE: Duration = Duration::from_secs(5);
/// Targets whose served answers the correctness checks compare.
const SAMPLE: usize = 16;
/// `serve-recursive`'s job: the first targets of the campaign, about 7 s of
/// work on two cores, so the deadline rarely cuts it.
const RECURSIVE_JOB: usize = 128;
/// Refreshes run 0.5 s, 1.5 s, 2.5 s, ... into the phase: a count fixed by
/// the phase length, none at a window's edge.
const REFRESH_EVERY: Duration = Duration::from_secs(1);
const FIRST_REFRESH: Duration = Duration::from_millis(500);
/// Landmarks re-probed before each refresh.
const CHURN_LANDMARKS: usize = 2;

/// `ServiceConfig::default()` with two shards, a bounded queue, and the
/// given solve configuration: a change to a default is measured.
fn service_config(octant: OctantConfig) -> ServiceConfig {
    ServiceConfig::default().with_octant(octant).with_shard(
        ShardConfig::default()
            .with_count(SHARDS)
            .with_queue_capacity(QUEUE_BOUND),
    )
}

/// A client's own stream, derived from the run seed.
fn client_rng(seed: u64, client: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ ((client as u64 + 1) << 40))
}

/// What every serving workload holds after set-up.
pub struct Serving<P: ObservationProvider + Send + Sync + 'static> {
    capture: Duration,
    landmarks: Vec<NodeId>,
    targets: Vec<NodeId>,
    provider: P,
    service: ShardedService<P>,
}

/// Captures the serving campaign, returning `(landmarks, targets, dataset,
/// capture time)`.
fn capture(tracer: Option<&Tracer>) -> (Vec<NodeId>, Vec<NodeId>, MeasurementDataset, Duration) {
    let start = Instant::now();
    let campaign = span(tracer, "setup.capture", || {
        octant_bench::service_campaign(LANDMARKS, TARGET_SITES, TARGETS_PER_SITE, CAMPAIGN_SEED)
    });
    (
        campaign.landmarks,
        campaign.targets,
        campaign.dataset,
        start.elapsed(),
    )
}

fn start<P>(
    tracer: Option<&Tracer>,
    octant: OctantConfig,
    provider: P,
    landmarks: &[NodeId],
) -> ShardedService<P>
where
    P: ObservationProvider + Send + Sync + 'static,
{
    span(tracer, "setup.start", || {
        ShardedService::start(service_config(octant), provider, landmarks)
    })
}

/// Submits one request, waits for it, and logs latency, outcomes and (when
/// traced) the request's spans.
fn request<P>(
    service: &ShardedService<P>,
    targets: &[NodeId],
    options: &LocalizeOptions,
    tracer: Option<&Tracer>,
    log: &mut ClientLog,
) where
    P: ObservationProvider + Send + Sync + 'static,
{
    let begin = Instant::now();
    let handle = service.submit_with_options(targets, options.clone());
    let submitted = Instant::now();
    let outcomes = handle.wait_outcomes();
    let end = Instant::now();
    log.submit_us.push((submitted - begin).as_secs_f64() * 1e6);
    let traced = tracer.map(|t| (t, t.reserve(), t.reserve()));
    let mut answered = 0;
    for (&target, outcome) in targets.iter().zip(outcomes) {
        let Some(mut served) = outcome.into_served() else {
            log.failed += 1;
            continue;
        };
        answered += u32::from(served.estimate.point.is_some());
        if let Some(profile) = served.estimate.profile.take() {
            if let Some((tracer, request, wait)) = traced {
                tracer.stages(wait, Some(request), submitted, &profile);
            }
            log.profiles.push(profile);
        }
        log.answer((0, target), served.epoch, served.estimate);
    }
    log.request(begin, end, answered);
    if let Some((tracer, request, wait)) = traced {
        tracer.call(request, "request", None, Some(request), begin, end);
        tracer.call(
            wait,
            "wait_outcomes",
            Some(request),
            Some(request),
            submitted,
            end,
        );
        tracer.call(
            tracer.reserve(),
            "submit_with_options",
            Some(request),
            Some(request),
            begin,
            submitted,
        );
    }
}

/// One closed-loop client: asks `next` for a request until the deadline
/// passes or `next` has none left.
fn serve<P>(
    service: &ShardedService<P>,
    options: &LocalizeOptions,
    deadline: Instant,
    tracer: Option<&Tracer>,
    mut next: impl FnMut(&mut ClientLog) -> Option<Vec<NodeId>>,
) -> ClientLog
where
    P: ObservationProvider + Send + Sync + 'static,
{
    let mut log = ClientLog::default();
    while Instant::now() < deadline {
        let Some(targets) = next(&mut log) else { break };
        request(service, &targets, options, tracer, &mut log);
    }
    log
}

/// Requests of `REQUEST_TARGETS` Zipf-distributed targets; which targets
/// are hot is a seeded permutation.
fn zipf_requests(targets: &[NodeId], seed: u64, client: usize) -> impl FnMut() -> Vec<NodeId> {
    let mut order = targets.to_vec();
    order.shuffle(&mut StdRng::seed_from_u64(seed));
    let zipf = ZipfSampler::new(order.len(), ZIPF_EXPONENT);
    let mut rng = client_rng(seed, client);
    move || {
        (0..REQUEST_TARGETS)
            .map(|_| order[zipf.sample(&mut rng)])
            .collect()
    }
}

/// Runs the phase's closed loop and takes the service's view at its end.
fn serving_phase<P>(
    service: &ShardedService<P>,
    client: impl Fn(usize) -> ClientLog + Sync,
) -> Phase
where
    P: ObservationProvider + Send + Sync + 'static,
{
    let log = harness::clients(client);
    Phase {
        log,
        service: Some(ServiceView::of(service)),
        ..Phase::default()
    }
}

/// Solves every target once before timing, so the timed phase starts with
/// warm caches, as a long-running service has. The warm-up has the timed
/// phase's shape: closed-loop clients sending requests of the same size.
fn warm_up<P>(
    tracer: Option<&Tracer>,
    service: &ShardedService<P>,
    targets: &[NodeId],
) -> HashMap<NodeId, LocationEstimate>
where
    P: ObservationProvider + Send + Sync + 'static,
{
    span(tracer, "setup.warmup", || {
        let options = LocalizeOptions::default();
        let log = harness::clients(|c| {
            let mut log = ClientLog::default();
            for chunk in targets.chunks(REQUEST_TARGETS).skip(c).step_by(CLIENTS) {
                request(service, chunk, &options, None, &mut log);
            }
            log
        });
        log.answers
            .into_iter()
            .map(|((_, target), answer)| (target, answer.estimate))
            .collect()
    })
}

/// Profiles the check sample as 1-target requests, after the timed phase.
fn probe<P>(serving: &Serving<P>, tracer: &Tracer, phase: &mut Phase)
where
    P: ObservationProvider + Send + Sync + 'static,
{
    let options = LocalizeOptions::default().with_profiling();
    let mut log = ClientLog::default();
    for &target in serving.targets.iter().take(SAMPLE) {
        request(
            &serving.service,
            &[target],
            &options,
            Some(tracer),
            &mut log,
        );
    }
    phase.log.profiles.extend(log.profiles);
}

/// Served points of the check sample must equal the offline batch engine's
/// on the current model, bit for bit: both those served during the phase
/// at the current epoch and a fresh request after it.
fn check_against_batch<P>(serving: &Serving<P>, octant: OctantConfig, phase: &Phase) -> Vec<String>
where
    P: ObservationProvider + Send + Sync + 'static,
{
    let current = serving.service.registry().current();
    let sample = &serving.targets[..SAMPLE];
    let expected = BatchGeolocator::new(octant).localize_batch_with_model(
        &serving.provider,
        &current.model,
        sample,
    );
    let after = serving.service.submit(sample).wait_outcomes();
    let mut problems = Vec::new();
    for ((&target, want), outcome) in sample.iter().zip(&expected).zip(after) {
        match outcome.served() {
            Some(s) if s.epoch == current.epoch && s.estimate.point == want.point => {}
            other => problems.push(format!(
                "target {target:?}: served {:?} at epoch {:?}, batch engine gives {:?} at epoch {}",
                other.map(|s| s.estimate.point),
                other.map(|s| s.epoch),
                want.point,
                current.epoch
            )),
        }
        if let Some(answer) = phase.log.answers.get(&(0, target)) {
            if answer.epoch == current.epoch && answer.estimate.point != want.point {
                problems.push(format!(
                    "target {target:?}: answered {:?} during the phase, batch engine gives {:?}",
                    answer.estimate.point, want.point
                ));
            }
        }
    }
    problems
}

/// [`harness::accuracy`] of `(target, estimate)` pairs on one provider.
fn accuracy<'a>(
    provider: &dyn ObservationProvider,
    estimates: impl IntoIterator<Item = (NodeId, &'a LocationEstimate)>,
) -> (f64, f64) {
    harness::accuracy(
        estimates
            .into_iter()
            .map(|(t, e)| (harness::truth(provider, t), e)),
    )
}

// ---- serve-hot ---------------------------------------------------------------

/// `serve-hot`: every target solved once during set-up, then Zipf lookups
/// answered from the answer memo.
pub struct ServeHot {
    pub seed: u64,
}

/// `serve-hot`'s set-up also keeps the warm-up answers.
pub struct HotState {
    serving: Serving<Arc<MeasurementDataset>>,
    warm: HashMap<NodeId, LocationEstimate>,
}

impl Workload for ServeHot {
    type State = HotState;
    const TAIL: f64 = 0.99;
    const WINDOWS: usize = 5;

    fn setup(&self, tracer: Option<&Tracer>) -> HotState {
        let (landmarks, targets, dataset, capture) = capture(tracer);
        let provider = dataset.into_shared();
        let service = start(
            tracer,
            OctantConfig::default(),
            provider.clone(),
            &landmarks,
        );
        let warm = warm_up(tracer, &service, &targets);
        HotState {
            serving: Serving {
                capture,
                landmarks,
                targets,
                provider,
                service,
            },
            warm,
        }
    }

    fn capture_time(state: &HotState) -> Duration {
        state.serving.capture
    }

    fn measure(&self, state: &HotState, deadline: Instant, tracer: Option<&Tracer>) -> Phase {
        let serving = &state.serving;
        let options = LocalizeOptions::default().with_deadline(HOT_DEADLINE);
        serving_phase(&serving.service, |c| {
            let mut next = zipf_requests(&serving.targets, self.seed, c);
            serve(&serving.service, &options, deadline, tracer, |_| {
                Some(next())
            })
        })
    }

    fn probe(&self, state: &HotState, tracer: &Tracer, phase: &mut Phase) {
        probe(&state.serving, tracer, phase);
    }

    fn check(&self, state: &HotState, phase: &Phase) -> Vec<String> {
        let mut problems = check_against_batch(&state.serving, OctantConfig::default(), phase);
        if state.warm.len() != state.serving.targets.len() {
            problems.push(format!(
                "warm-up answered {} of {} targets",
                state.warm.len(),
                state.serving.targets.len()
            ));
        }
        problems
    }

    fn accuracy(&self, state: &HotState, phase: &Phase) -> (f64, f64) {
        // Every target: its phase answer, else its warm-up answer.
        let estimates = state.serving.targets.iter().filter_map(|&t| {
            let estimate = phase
                .log
                .answers
                .get(&(0, t))
                .map(|a| &a.estimate)
                .or_else(|| state.warm.get(&t))?;
            Some((t, estimate))
        });
        accuracy(&state.serving.provider, estimates)
    }
}

// ---- serve-refresh -----------------------------------------------------------

/// `serve-refresh`: the `serve-hot` stream on a cold memo over a streaming
/// observation store, while client 0 re-probes two landmarks and refreshes
/// the model incrementally once a second.
pub struct ServeRefresh {
    pub seed: u64,
}

/// `serve-refresh`'s set-up keeps the captured dataset the re-probes
/// jitter.
pub struct RefreshState {
    serving: Serving<Arc<ObservationStore>>,
    dataset: MeasurementDataset,
}

/// Client 0's writer: once a second, ingests jittered re-probes of
/// `CHURN_LANDMARKS` landmarks and refreshes the model incrementally.
struct Refresher<'a> {
    state: &'a RefreshState,
    rng: StdRng,
    round: u64,
    next_at: Instant,
    last_version: u64,
}

impl Refresher<'_> {
    fn tick(&mut self, tracer: Option<&Tracer>, log: &mut ClientLog) {
        if Instant::now() < self.next_at {
            return;
        }
        self.next_at += REFRESH_EVERY;
        self.round += 1;
        let serving = &self.state.serving;
        let landmarks = &serving.landmarks;
        let mut records = Vec::new();
        for k in 0..CHURN_LANDMARKS {
            let lm = landmarks[(self.round as usize * CHURN_LANDMARKS + k) % landmarks.len()];
            for &other in landmarks.iter().filter(|&&o| o != lm) {
                if let Some(min) = self.state.dataset.ping(lm, other).min() {
                    // A fresh probe run lands near, not on, the captured floor.
                    let jitter = 0.95 + 0.1 * self.rng.gen::<f64>();
                    records.push(ObservationRecord::Ping {
                        from: lm,
                        to: other,
                        observation: PingObservation::new(vec![Latency::from_ms(
                            min.ms() * jitter,
                        )]),
                        seq: self.round,
                    });
                }
            }
        }
        let count = records.len();
        let store = &serving.provider;
        let begin = Instant::now();
        span(tracer, "store.ingest", || store.ingest(records));
        let ingested = Instant::now();
        let changed = store.changed_since(self.last_version);
        self.last_version = store.version();
        let (_, report) = span(tracer, "refresh_model_incremental", || {
            serving
                .service
                .refresh_model_incremental(landmarks, &changed)
        });
        log.refreshes.push(Refresh {
            ingest_ms: (ingested - begin).as_secs_f64() * 1e3,
            refresh_ms: ingested.elapsed().as_secs_f64() * 1e3,
            records: count,
            changed_nodes: changed.len(),
            report,
        });
    }
}

impl Workload for ServeRefresh {
    type State = RefreshState;
    const TAIL: f64 = 0.99;
    const WINDOWS: usize = 5;

    fn setup(&self, tracer: Option<&Tracer>) -> RefreshState {
        let (landmarks, targets, dataset, capture) = capture(tracer);
        let store = span(tracer, "setup.store", || {
            Arc::new(ObservationStore::from_dataset(
                StoreConfig::default(),
                &dataset,
            ))
        });
        let service = start(tracer, OctantConfig::default(), store.clone(), &landmarks);
        warm_up(tracer, &service, &targets);
        RefreshState {
            serving: Serving {
                capture,
                landmarks,
                targets,
                provider: store,
                service,
            },
            dataset,
        }
    }

    fn capture_time(state: &RefreshState) -> Duration {
        state.serving.capture
    }

    fn measure(&self, state: &RefreshState, deadline: Instant, tracer: Option<&Tracer>) -> Phase {
        let serving = &state.serving;
        let options = LocalizeOptions::default().with_deadline(HOT_DEADLINE);
        serving_phase(&serving.service, |c| {
            let mut next = zipf_requests(&serving.targets, self.seed, c);
            // The re-probe stream is part of the fixed scenario, so the
            // model every run ends on is the same.
            let mut refresher = (c == 0).then(|| Refresher {
                state,
                rng: StdRng::seed_from_u64(CAMPAIGN_SEED),
                round: 0,
                next_at: Instant::now() + FIRST_REFRESH,
                last_version: serving.provider.version(),
            });
            serve(&serving.service, &options, deadline, tracer, |log| {
                if let Some(refresher) = refresher.as_mut() {
                    refresher.tick(tracer, log);
                }
                Some(next())
            })
        })
    }

    fn probe(&self, state: &RefreshState, tracer: &Tracer, phase: &mut Phase) {
        probe(&state.serving, tracer, phase);
    }

    fn check(&self, state: &RefreshState, phase: &Phase) -> Vec<String> {
        check_against_batch(&state.serving, OctantConfig::default(), phase)
    }

    fn accuracy(&self, state: &RefreshState, _phase: &Phase) -> (f64, f64) {
        // Answers during the phase depend on which epoch served them; what
        // the service serves once the refreshes are done does not.
        let serving = &state.serving;
        let served: Vec<_> = serving
            .targets
            .chunks(REQUEST_TARGETS)
            .flat_map(|chunk| serving.service.submit(chunk).wait())
            .collect();
        accuracy(
            &serving.provider,
            served.iter().map(|s| (s.target, &s.estimate)),
        )
    }
}

// ---- serve-recursive ---------------------------------------------------------

/// `serve-recursive`: §3 recursive router localization, each target
/// requested once, so every request solves and the memo never hits. The
/// phase is a fixed job of `RECURSIVE_JOB` targets: it ends when all are
/// answered, or at the deadline if that comes first.
pub struct ServeRecursive {
    pub seed: u64,
}

fn recursive_config() -> OctantConfig {
    OctantConfig::default().with_router_localization(RouterLocalization::Recursive)
}

impl Workload for ServeRecursive {
    type State = Serving<Arc<MeasurementDataset>>;
    const TAIL: f64 = 0.9;
    // Not stationary: routers are first met, and sub-localized, early on.
    // Statistics cover the whole job.
    const WINDOWS: usize = 1;

    fn setup(&self, tracer: Option<&Tracer>) -> Self::State {
        let (landmarks, targets, dataset, capture) = capture(tracer);
        let provider = dataset.into_shared();
        let service = start(tracer, recursive_config(), provider.clone(), &landmarks);
        Serving {
            capture,
            landmarks,
            targets,
            provider,
            service,
        }
    }

    fn capture_time(state: &Self::State) -> Duration {
        state.capture
    }

    fn measure(&self, state: &Self::State, deadline: Instant, tracer: Option<&Tracer>) -> Phase {
        let mut order = state.targets[..RECURSIVE_JOB].to_vec();
        order.shuffle(&mut StdRng::seed_from_u64(self.seed));
        // The traced phase profiles every request: profiling bypasses the
        // memo, which never hits here anyway.
        let mut options = LocalizeOptions::default().with_deadline(RECURSIVE_DEADLINE);
        if tracer.is_some() {
            options = options.with_profiling();
        }
        let next = AtomicUsize::new(0);
        serving_phase(&state.service, |_| {
            serve(&state.service, &options, deadline, tracer, |_| {
                order
                    .get(next.fetch_add(1, Ordering::Relaxed))
                    .map(|&t| vec![t])
            })
        })
    }

    fn check(&self, state: &Self::State, phase: &Phase) -> Vec<String> {
        // The radius-class dilation cache moves points, so the gate is
        // ground-truth accuracy against the uncached inline path, as the
        // `service` bench binary gates it.
        let sample = &state.targets[..SAMPLE];
        let exact = BatchGeolocator::new(recursive_config()).localize_batch(
            &state.provider,
            &state.landmarks,
            sample,
        );
        let (exact_km, _) = accuracy(&state.provider, sample.iter().copied().zip(&exact));
        let served = every_answer(state, phase);
        let (served_km, _) = accuracy(
            &state.provider,
            served[..SAMPLE].iter().map(|(t, e)| (*t, e)),
        );
        if served_km > exact_km * 1.10 + 5.0 {
            return vec![format!(
                "sample median error {served_km:.1} km exceeds the uncached path's {exact_km:.1} km by more than 10% + 5 km"
            )];
        }
        Vec::new()
    }

    fn accuracy(&self, state: &Self::State, phase: &Phase) -> (f64, f64) {
        let served = every_answer(state, phase);
        accuracy(&state.provider, served.iter().map(|(t, e)| (*t, e)))
    }
}

/// Every job target's estimate, in target order: the phase's answer, or
/// for a target the phase did not reach before its deadline, one served
/// after it. Answers do not depend on the order targets are served in, so
/// the set scored is the same on every run.
fn every_answer(
    state: &Serving<Arc<MeasurementDataset>>,
    phase: &Phase,
) -> Vec<(NodeId, LocationEstimate)> {
    let job = &state.targets[..RECURSIVE_JOB];
    let missing: Vec<NodeId> = job
        .iter()
        .copied()
        .filter(|t| !phase.log.answers.contains_key(&(0, *t)))
        .collect();
    let mut late: HashMap<NodeId, LocationEstimate> = state
        .service
        .submit(&missing)
        .wait()
        .into_iter()
        .map(|s| (s.target, s.estimate))
        .collect();
    job.iter()
        .map(|&t| {
            let estimate = match phase.log.answers.get(&(0, t)) {
                Some(answer) => answer.estimate.clone(),
                None => late.remove(&t).expect("every missing target was served"),
            };
            (t, estimate)
        })
        .collect()
}
