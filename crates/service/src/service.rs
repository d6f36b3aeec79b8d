//! The long-lived geolocation serving engine: a control-plane /
//! data-plane split.
//!
//! [`ShardedService`] turns the offline [`BatchGeolocator`] into an online
//! server shaped like a production serving tier:
//!
//! * the **control plane** owns the slow-changing shared state — the
//!   [`ModelRegistry`] (epoch refresh), the configuration, the
//!   target → shard routing table ([`crate::ShardRouter`]), and stats
//!   aggregation;
//! * the **data plane** is [`ShardConfig::count`] independent shards, each
//!   owning its own bounded request queue, its own worker pool, and its own
//!   latency histogram. Targets route to shards deterministically by /24 IP
//!   prefix, so repeat traffic for a prefix stays on one queue;
//! * router sub-localizations live in one [`RouterCache`] shared by **all**
//!   shards, so the exactly-once-per-router property (and the cache
//!   locality it buys) survives the split.
//!
//! [`GeolocationService`] — the pre-sharding name — is a type alias for
//! [`ShardedService`]; with the default [`ShardConfig`] (`count = 1`,
//! unbounded queue) the service is the old single-queue engine exactly, and
//! serves bit-identical results.
//!
//! ## SLOs: deadlines, admission control, and shedding
//!
//! Submission never blocks on a full queue. Instead each target's slot
//! resolves to a typed [`ServeOutcome`]:
//!
//! * [`ServeOutcome::Served`] — solved and delivered;
//! * [`ServeOutcome::Shed`] — refused at **admission** because the shard's
//!   bounded queue ([`ShardConfig::queue_capacity`]) was full;
//! * [`ServeOutcome::DeadlineExceeded`] — the request's
//!   [`LocalizeOptions::deadline`] expired while the target waited in the
//!   queue; expired targets are shed at drain time and **never solved**, so
//!   a backed-up shard spends no work on answers nobody is waiting for.
//!
//! [`RequestHandle::wait_outcomes`] returns the typed outcomes;
//! [`RequestHandle::wait`] keeps the legacy always-served signature for
//! callers that configure neither deadlines nor bounded queues.
//!
//! ## Micro-batching policy (per shard)
//!
//! The policy is three constants. A worker that finds its shard's queue
//! non-empty drains up to `MAX_BATCH` (64) targets — under load, batches
//! grow to the ceiling on their own. When fewer than `MIN_BATCH` (4)
//! targets are pending, the worker waits up to `MAX_WAIT` (2 ms, measured
//! from the oldest pending enqueue) for more to arrive before serving a
//! small batch, trading a bounded latency bump for much better
//! amortization under trickle load.

use crate::answer_cache::{AnswerCache, AnswerKey, EvidenceKey};
use crate::cache::{RouterCache, RouterCacheConfig};
use crate::registry::ModelRegistry;
use crate::shard::{ShardConfig, ShardRouter};
use crate::stats::{
    QueueSnapshot, ServiceCounters, ServiceStats, ShardStats, StageBreakdown, StatsReport,
};
use octant::{
    BatchGeolocator, EvidencePipeline, LandmarkModel, LocationEstimate, Octant, OctantConfig,
    RecalibrationReport, SourceId,
};
use octant_netsim::observation::ObservationProvider;
use octant_netsim::topology::NodeId;
use octant_telemetry::{Counter, Gauge, LatencyHistogram, MetricsRegistry};
use parking_lot::Mutex as PlMutex;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration of a [`ShardedService`].
///
/// `#[non_exhaustive]`: construct via [`ServiceConfig::default`] and the
/// builder-style `with_*` setters.
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub struct ServiceConfig {
    /// The Octant pipeline configuration used for model preparation and
    /// every solve.
    pub octant: OctantConfig,
    /// Worker threads **per shard** draining that shard's queue. Each worker
    /// serves one micro-batch at a time (the batch itself fans out over
    /// rayon).
    pub workers: usize,
    /// Router sub-localization cache configuration (the dilation radius
    /// class).
    pub cache: RouterCacheConfig,
    /// Data-plane sizing: shard count and per-shard queue bound. The
    /// default (`count = 1`, unbounded) reproduces the pre-sharding
    /// single-queue service exactly.
    pub shard: ShardConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            octant: OctantConfig::default(),
            workers: 2,
            cache: RouterCacheConfig::default(),
            shard: ShardConfig::default(),
        }
    }
}

octant::config_setters!(ServiceConfig {
    /// Sets the Octant configuration used for models and solves.
    with_octant: octant: OctantConfig,
    /// Sets the worker thread count per shard.
    with_workers: workers: usize,
    /// Sets the router cache configuration.
    with_cache: cache: RouterCacheConfig,
    /// Sets the data-plane shard configuration.
    with_shard: shard: ShardConfig,
});

impl ServiceConfig {
    /// Convenience: sets the data-plane shard **count**, keeping the rest
    /// of the shard configuration.
    #[must_use]
    pub fn with_shards(mut self, count: usize) -> Self {
        self.shard.count = count;
        self
    }
}

/// Per-request options: evidence selection (which pipeline sources to
/// disable relative to the service's base pipeline) plus an optional
/// **deadline**. The default (empty) options run the base pipeline
/// untouched with no deadline.
///
/// Evidence options affect only the **target** solves of the request;
/// cached router sub-localizations are shared across requests and always
/// use the standard source mix (see
/// [`octant::Octant::compute_router_estimate`]), so one request's ablation
/// cannot skew another's answers.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LocalizeOptions {
    /// Sources to disable for this request.
    pub disabled_sources: Vec<SourceId>,
    /// Time budget for this request, measured from submission. Targets
    /// whose deadline expires while they wait in a shard queue resolve to
    /// [`ServeOutcome::DeadlineExceeded`] without being solved. `None` (the
    /// default) never expires. A deadline does **not** prevent targets from
    /// coalescing into shared engine runs — only evidence selection
    /// partitions batches.
    pub deadline: Option<Duration>,
    /// Record a per-stage wall-time profile for each of this request's
    /// targets: served estimates carry
    /// `Some(`[`octant_telemetry::StageProfile`]`)` in
    /// [`octant::LocationEstimate::profile`], led by a `queue_wait` stage
    /// (drain start − enqueue). Profiled targets batch separately from
    /// unprofiled ones (profiling is part of the batch-group key), so the
    /// default path stays bit-identical and profiling-free.
    pub profiling: bool,
}

impl LocalizeOptions {
    /// `true` when the evidence selection (sources disabled) is untouched,
    /// regardless of any deadline.
    pub fn evidence_is_default(&self) -> bool {
        self.disabled_sources.is_empty()
    }

    /// Disables a source for this request.
    #[must_use]
    pub fn without_source(mut self, id: SourceId) -> Self {
        self.disabled_sources.push(id);
        self
    }

    /// Sets the request's deadline (time budget from submission).
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Requests a per-stage wall-time profile for each served target (see
    /// [`LocalizeOptions::profiling`]).
    #[must_use]
    pub fn with_profiling(mut self) -> Self {
        self.profiling = true;
        self
    }

    /// The evidence selection plus the profiling flag (deadline stripped) —
    /// the part of the options that partitions micro-batches into engine
    /// runs.
    fn evidence(&self) -> LocalizeOptions {
        LocalizeOptions {
            disabled_sources: self.disabled_sources.clone(),
            deadline: None,
            profiling: self.profiling,
        }
    }
}

/// One served target: the estimate plus the model epoch that produced it.
#[derive(Debug, Clone)]
pub struct ServedEstimate {
    /// The target that was localized.
    pub target: NodeId,
    /// The model epoch the solve ran against.
    pub epoch: u64,
    /// The location estimate.
    pub estimate: LocationEstimate,
}

/// Why a target was refused instead of queued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ShedReason {
    /// The target's shard had [`ShardConfig::queue_capacity`] targets
    /// pending; admitting more would only grow latency past any SLO.
    QueueFull,
}

/// The typed resolution of one submitted target.
//
// `Served` dwarfs the other variants, but outcomes live one-per-slot in the
// request's completion vector where served is the common case — boxing the
// estimate would cost an allocation per served target to shrink the rare
// shed/expired slots that share the vector anyway.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum ServeOutcome {
    /// The target was solved and delivered.
    Served(ServedEstimate),
    /// The target was shed at admission and never queued.
    Shed {
        /// Why admission refused the target.
        reason: ShedReason,
    },
    /// The request's deadline expired while the target waited in its shard
    /// queue; it was dropped at drain time without being solved.
    DeadlineExceeded,
}

impl ServeOutcome {
    /// `true` for [`ServeOutcome::Served`].
    pub fn is_served(&self) -> bool {
        matches!(self, ServeOutcome::Served(_))
    }

    /// The served estimate, when there is one.
    pub fn served(&self) -> Option<&ServedEstimate> {
        match self {
            ServeOutcome::Served(s) => Some(s),
            _ => None,
        }
    }

    /// Consumes the outcome into its served estimate, when there is one.
    pub fn into_served(self) -> Option<ServedEstimate> {
        match self {
            ServeOutcome::Served(s) => Some(s),
            _ => None,
        }
    }
}

/// Shared completion state of one submitted request.
struct RequestState {
    /// `(remaining, outcomes)` — `outcomes` is in submission order and
    /// filled as targets resolve (a request may be split across shards and
    /// micro-batches).
    slots: Mutex<(usize, Vec<Option<ServeOutcome>>)>,
    done: Condvar,
}

impl RequestState {
    fn complete(&self, slot: usize, outcome: ServeOutcome) {
        let mut guard = self.slots.lock().unwrap_or_else(|e| e.into_inner());
        guard.1[slot] = Some(outcome);
        guard.0 -= 1;
        if guard.0 == 0 {
            self.done.notify_all();
        }
    }
}

/// A handle on a submitted request; wait with
/// [`RequestHandle::wait_outcomes`] (typed) or [`RequestHandle::wait`]
/// (legacy, served-only).
pub struct RequestHandle {
    state: Arc<RequestState>,
}

impl RequestHandle {
    /// Blocks until every target of the request has resolved and returns
    /// the typed outcomes in submission order.
    pub fn wait_outcomes(self) -> Vec<ServeOutcome> {
        let mut guard = self.state.slots.lock().unwrap_or_else(|e| e.into_inner());
        while guard.0 > 0 {
            guard = self
                .state
                .done
                .wait(guard)
                .unwrap_or_else(|e| e.into_inner());
        }
        guard
            .1
            .drain(..)
            .map(|r| r.expect("completed request has every slot filled"))
            .collect()
    }

    /// Blocks until the request completes and returns the served estimates
    /// in submission order — the pre-SLO signature.
    ///
    /// # Panics
    ///
    /// Panics if any target was shed or missed its deadline, which can only
    /// happen when the caller configured a bounded queue or a deadline;
    /// such callers must use [`RequestHandle::wait_outcomes`]. Under the
    /// default configuration every target is served and this never panics.
    pub fn wait(self) -> Vec<ServedEstimate> {
        self.wait_outcomes()
            .into_iter()
            .enumerate()
            .map(|(index, o)| match o {
                ServeOutcome::Served(s) => s,
                other => panic!(
                    "target #{index} of the request was not served (outcome: {other:?}); \
                     requests with deadlines or bounded queues must use wait_outcomes()"
                ),
            })
            .collect()
    }

    /// `true` when every target of the request has resolved (non-blocking).
    pub fn is_done(&self) -> bool {
        self.state.slots.lock().unwrap_or_else(|e| e.into_inner()).0 == 0
    }
}

/// One queued target with its delivery slot, the request's evidence
/// selection (`None` = the service's base pipeline), its deadline, and its
/// enqueue instant (the latency-histogram clock starts here).
struct PendingTarget {
    target: NodeId,
    request: Arc<RequestState>,
    slot: usize,
    options: Option<Arc<LocalizeOptions>>,
    deadline: Option<Instant>,
    enqueued_at: Instant,
}

/// Micro-batch ceiling: a worker never drains more targets than this.
const MAX_BATCH: usize = 64;

/// Below this many pending targets a worker waits (up to [`MAX_WAIT`]) for
/// more before serving.
const MIN_BATCH: usize = 4;

/// Longest time the oldest pending target may wait for batch-mates.
const MAX_WAIT: Duration = Duration::from_millis(2);

/// Queue state behind the std mutex paired with the drain condvar.
struct QueueState {
    pending: VecDeque<PendingTarget>,
    /// When the oldest currently-pending target was enqueued (None when
    /// empty). Deliberately left untouched by partial drains, so leftovers
    /// are served promptly on the next pass instead of re-waiting.
    oldest_since: Option<Instant>,
    shutdown: bool,
}

/// Counters, latency histogram, and per-stage histograms of one shard,
/// behind that shard's lock.
#[derive(Debug, Default)]
struct ShardLocal {
    counters: ServiceCounters,
    latency: LatencyHistogram,
    /// Per-stage wall-time histograms, in first-observed order: `queue_wait`
    /// for every served target, `solve` at micro-batch granularity for
    /// unprofiled groups, and every captured stage of profiled targets.
    stages: Vec<(&'static str, LatencyHistogram)>,
}

impl ShardLocal {
    fn record_stage(&mut self, name: &'static str, wall: Duration) {
        match self.stages.iter_mut().find(|(n, _)| *n == name) {
            Some((_, hist)) => hist.record(wall),
            None => {
                let mut hist = LatencyHistogram::new();
                hist.record(wall);
                self.stages.push((name, hist));
            }
        }
    }
}

/// One shard's handles into [`MetricsRegistry::global`]: a per-shard queue
/// gauge (`service.shard{i}.queue_depth`) plus counters mirroring the
/// [`ServiceCounters`] under `service.*` names, bumped alongside the
/// shard-local counters so external observers see the same numbers.
#[derive(Debug)]
struct ShardMetrics {
    queue_depth: Gauge,
    batches: Counter,
    targets_served: Counter,
    failed_batches: Counter,
    shed_queue_full: Counter,
    deadline_expired: Counter,
}

impl ShardMetrics {
    fn new(shard_idx: usize) -> Self {
        let registry = MetricsRegistry::global();
        ShardMetrics {
            queue_depth: registry.gauge(&format!("service.shard{shard_idx}.queue_depth")),
            batches: registry.counter("service.batches"),
            targets_served: registry.counter("service.targets_served"),
            failed_batches: registry.counter("service.failed_batches"),
            shed_queue_full: registry.counter("service.shed_queue_full"),
            deadline_expired: registry.counter("service.deadline_expired"),
        }
    }
}

/// One data-plane shard: its queue, its drain condvar, its local stats, and
/// its registry handles.
struct Shard {
    queue: Mutex<QueueState>,
    queue_cv: Condvar,
    local: PlMutex<ShardLocal>,
    metrics: ShardMetrics,
}

impl Shard {
    fn new(shard_idx: usize) -> Self {
        Shard {
            queue: Mutex::new(QueueState {
                pending: VecDeque::new(),
                oldest_since: None,
                shutdown: false,
            }),
            queue_cv: Condvar::new(),
            local: PlMutex::new(ShardLocal::default()),
            metrics: ShardMetrics::new(shard_idx),
        }
    }
}

struct ServiceInner<P> {
    provider: P,
    config: ServiceConfig,
    batch: BatchGeolocator,
    registry: ModelRegistry,
    cache: RouterCache,
    answers: AnswerCache,
    router: ShardRouter,
    shards: Vec<Shard>,
}

impl<P: ObservationProvider + Sync> ServiceInner<P> {
    fn serve_batch(&self, shard_idx: usize, batch: Vec<PendingTarget>) {
        let shard = &self.shards[shard_idx];
        let epoch_model = self.registry.current();
        let source = self.cache.source(epoch_model.epoch);

        // Deadline-aware shedding at drain time: targets whose deadline
        // expired while they queued are dropped unsolved — a backed-up
        // shard spends no work on answers nobody is waiting for.
        let now = Instant::now();
        let (expired, live): (Vec<PendingTarget>, Vec<PendingTarget>) = batch
            .into_iter()
            .partition(|p| p.deadline.is_some_and(|d| d <= now));
        let total = live.len();

        // Partition the drained batch by evidence selection: targets with
        // the same options (by value) share one engine run. The common case
        // — every target on the base pipeline — stays a single group.
        let mut groups: Vec<(Option<Arc<LocalizeOptions>>, Vec<PendingTarget>)> = Vec::new();
        for pending in live {
            let found = groups.iter_mut().find(|(opts, _)| {
                match (opts.as_deref(), pending.options.as_deref()) {
                    (None, None) => true,
                    (Some(a), Some(b)) => a == b,
                    _ => false,
                }
            });
            match found {
                Some((_, members)) => members.push(pending),
                None => groups.push((pending.options.clone(), vec![pending])),
            }
        }

        // Counters are bumped before any completion is delivered: a caller
        // woken by its last completion must observe the batch in the stats.
        {
            let mut local = shard.local.lock();
            local.counters.deadline_expired += expired.len() as u64;
            if total > 0 {
                local.counters.batches += 1;
                local.counters.targets_served += total as u64;
                local.counters.largest_batch = local.counters.largest_batch.max(total);
            }
        }
        shard.metrics.deadline_expired.add(expired.len() as u64);
        if total > 0 {
            shard.metrics.batches.inc();
            shard.metrics.targets_served.add(total as u64);
        }
        for pending in expired {
            pending
                .request
                .complete(pending.slot, ServeOutcome::DeadlineExceeded);
        }

        for (options, mut members) in groups {
            let profiled = options.as_deref().is_some_and(|o| o.profiling);
            // ---- Answer memo (front cache) --------------------------------
            // Keyed (epoch, /24 prefix, evidence): a hit replays the exact
            // estimate this model+pipeline already produced for the prefix,
            // skipping the solve entirely. Profiled requests bypass (their
            // estimates carry request-specific wall-time profiles). Hits
            // still count as served and record latency/queue_wait — they are
            // served requests, just cheap ones.
            let evidence = options.as_deref().map(EvidenceKey::from_options);
            let answer_key = |target| AnswerKey {
                target: self.router.target_key(target),
                evidence: evidence.clone(),
            };
            if !profiled {
                let mut misses = Vec::with_capacity(members.len());
                for pending in members {
                    let key = answer_key(pending.target);
                    let Some(estimate) = self.answers.lookup(epoch_model.epoch, &key) else {
                        misses.push(pending);
                        continue;
                    };
                    {
                        let mut local = shard.local.lock();
                        local.latency.record(pending.enqueued_at.elapsed());
                        local.record_stage(
                            "queue_wait",
                            now.saturating_duration_since(pending.enqueued_at),
                        );
                    }
                    pending.request.complete(
                        pending.slot,
                        ServeOutcome::Served(ServedEstimate {
                            target: pending.target,
                            epoch: epoch_model.epoch,
                            estimate: (*estimate).clone(),
                        }),
                    );
                }
                members = misses;
                if members.is_empty() {
                    continue;
                }
            }

            let targets: Vec<NodeId> = members.iter().map(|p| p.target).collect();
            let solve_started = Instant::now();
            // A panicking solve must neither kill the worker (the pool
            // would silently shrink) nor leave the batch's requests waiting
            // forever: catch the unwind, answer every slot with an unknown
            // estimate, and count the failure.
            let solved = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                // Per-request pipeline: the base pipeline with the
                // request's sources disabled. The model and the router
                // cache are shared untouched. Profiled requests with
                // default evidence reuse the base engine directly.
                let adjusted;
                let engine = match options.as_deref() {
                    None => &self.batch,
                    Some(opts) if opts.evidence_is_default() => &self.batch,
                    Some(opts) => {
                        adjusted = BatchGeolocator::from_octant(Octant::with_pipeline(
                            *self.batch.octant().config(),
                            self.batch
                                .octant()
                                .pipeline()
                                .adjusted(&opts.disabled_sources, &[]),
                        ));
                        &adjusted
                    }
                };
                if profiled {
                    engine.localize_batch_with_routers_profiled(
                        &self.provider,
                        &epoch_model.model,
                        &targets,
                        Some(&source),
                    )
                } else {
                    engine.localize_batch_with_routers(
                        &self.provider,
                        &epoch_model.model,
                        &targets,
                        Some(&source),
                    )
                }
            }));
            let estimates = match solved {
                Ok(estimates) => {
                    // Freshly solved answers enter the memo; a panicked
                    // group's unknown placeholders never do (the next
                    // request for the prefix deserves a real attempt).
                    if !profiled {
                        for (pending, estimate) in members.iter().zip(&estimates) {
                            self.answers.insert(
                                epoch_model.epoch,
                                answer_key(pending.target),
                                estimate.clone(),
                            );
                        }
                    }
                    estimates
                }
                Err(_) => {
                    shard.local.lock().counters.failed_batches += 1;
                    shard.metrics.failed_batches.inc();
                    targets
                        .iter()
                        .map(|_| LocationEstimate::unknown())
                        .collect()
                }
            };
            let solve_wall = solve_started.elapsed();
            // Record the group's latencies (enqueue → resolution) and stage
            // histograms before delivering its completions, so a woken
            // caller observes stats that include its own targets.
            {
                let mut local = shard.local.lock();
                for pending in &members {
                    local.latency.record(pending.enqueued_at.elapsed());
                    local.record_stage(
                        "queue_wait",
                        now.saturating_duration_since(pending.enqueued_at),
                    );
                }
                if profiled {
                    // Profiled targets contribute their captured stages
                    // (whose `solve` self-time plus sub-stages partition
                    // the solve wall), not the group-level wall — folding
                    // both in would double-count.
                    for estimate in &estimates {
                        if let Some(profile) = &estimate.profile {
                            for stage in profile.stages() {
                                local.record_stage(stage.name, stage.wall);
                            }
                        }
                    }
                } else {
                    local.record_stage("solve", solve_wall);
                }
            }
            for (pending, mut estimate) in members.into_iter().zip(estimates) {
                if let Some(profile) = estimate.profile.as_mut() {
                    profile.prepend(
                        "queue_wait",
                        now.saturating_duration_since(pending.enqueued_at),
                        1,
                    );
                }
                pending.request.complete(
                    pending.slot,
                    ServeOutcome::Served(ServedEstimate {
                        target: pending.target,
                        epoch: epoch_model.epoch,
                        estimate,
                    }),
                );
            }
        }
    }

    /// Blocks until a micro-batch is ready on `shard_idx` (or shutdown
    /// drains the rest) and returns it; `None` means shut down with an
    /// empty queue.
    fn next_batch(&self, shard_idx: usize) -> Option<Vec<PendingTarget>> {
        let shard = &self.shards[shard_idx];
        let mut queue = shard.queue.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if queue.pending.is_empty() {
                if queue.shutdown {
                    return None;
                }
                queue = shard
                    .queue_cv
                    .wait(queue)
                    .unwrap_or_else(|e| e.into_inner());
                continue;
            }
            let waited = queue
                .oldest_since
                .map(|t| t.elapsed())
                .unwrap_or(Duration::ZERO);
            let ready = queue.shutdown || queue.pending.len() >= MIN_BATCH || waited >= MAX_WAIT;
            if ready {
                let n = queue.pending.len().min(MAX_BATCH);
                let batch: Vec<PendingTarget> = queue.pending.drain(..n).collect();
                if queue.pending.is_empty() {
                    queue.oldest_since = None;
                }
                shard.metrics.queue_depth.set(queue.pending.len() as i64);
                return Some(batch);
            }
            let remaining = MAX_WAIT.saturating_sub(waited);
            let (guard, _) = shard
                .queue_cv
                .wait_timeout(queue, remaining)
                .unwrap_or_else(|e| e.into_inner());
            queue = guard;
        }
    }
}

/// The sharded, SLO-aware serving engine. See the module docs for the
/// architecture; construct with [`ShardedService::start`].
pub struct ShardedService<P: ObservationProvider + Send + Sync + 'static> {
    inner: Arc<ServiceInner<P>>,
    workers: Vec<JoinHandle<()>>,
}

/// The pre-sharding name of the serving engine, kept as the front door:
/// a [`ShardedService`] whose default [`ShardConfig`] (`count = 1`,
/// unbounded queue) reproduces the single-queue service bit-identically.
pub type GeolocationService<P> = ShardedService<P>;

impl<P: ObservationProvider + Send + Sync + 'static> ShardedService<P> {
    /// Prepares the initial landmark model (epoch 1), builds the routing
    /// table, spawns each shard's worker pool, and starts serving with the
    /// standard evidence pipeline.
    pub fn start(config: ServiceConfig, provider: P, landmarks: &[NodeId]) -> Self {
        ShardedService::start_with_pipeline(
            config,
            EvidencePipeline::standard(),
            provider,
            landmarks,
        )
    }

    /// [`ShardedService::start`] with an explicit base evidence pipeline;
    /// per-request [`LocalizeOptions`] adjust relative to it.
    pub fn start_with_pipeline(
        config: ServiceConfig,
        pipeline: EvidencePipeline,
        provider: P,
        landmarks: &[NodeId],
    ) -> Self {
        let shard_count = config.shard.count.max(1);
        let octant = Octant::with_pipeline(config.octant, pipeline);
        let registry = ModelRegistry::bootstrap(octant.clone(), &provider, landmarks);
        let router = ShardRouter::build(&provider, shard_count);
        let inner = Arc::new(ServiceInner {
            batch: BatchGeolocator::from_octant(octant),
            registry,
            cache: RouterCache::new(config.cache),
            answers: AnswerCache::default(),
            router,
            shards: (0..shard_count).map(Shard::new).collect(),
            provider,
            config,
        });
        let workers = (0..shard_count)
            .flat_map(|shard_idx| {
                (0..config.workers.max(1)).map({
                    let inner = &inner;
                    move |w| {
                        let inner = inner.clone();
                        std::thread::Builder::new()
                            .name(format!("octant-serve-{shard_idx}-{w}"))
                            .spawn(move || {
                                while let Some(batch) = inner.next_batch(shard_idx) {
                                    inner.serve_batch(shard_idx, batch);
                                }
                            })
                            .expect("spawning a service worker thread")
                    }
                })
            })
            .collect();
        ShardedService { inner, workers }
    }

    /// Enqueues `targets` for localization and returns a handle to wait on.
    /// Targets from concurrent requests coalesce into shared micro-batches
    /// on their shard.
    pub fn submit(&self, targets: &[NodeId]) -> RequestHandle {
        self.enqueue(targets, None, None)
    }

    /// [`ShardedService::submit`] with per-request options: evidence
    /// selection (the request's targets run on the base pipeline adjusted
    /// by `options`; targets from requests with identical evidence
    /// selections still coalesce into shared engine runs) and/or a
    /// deadline. Slots of targets shed at admission resolve immediately.
    pub fn submit_with_options(
        &self,
        targets: &[NodeId],
        options: LocalizeOptions,
    ) -> RequestHandle {
        let deadline = options.deadline;
        // Profiled requests always carry their options: profiling is part
        // of the batch-group key, so they never coalesce into (and never
        // slow down) the default-path groups.
        let evidence = if options.evidence_is_default() && !options.profiling {
            None
        } else {
            Some(Arc::new(options.evidence()))
        };
        self.enqueue(targets, evidence, deadline)
    }

    fn enqueue(
        &self,
        targets: &[NodeId],
        options: Option<Arc<LocalizeOptions>>,
        deadline: Option<Duration>,
    ) -> RequestHandle {
        let state = Arc::new(RequestState {
            slots: Mutex::new((targets.len(), vec![None; targets.len()])),
            done: Condvar::new(),
        });
        if targets.is_empty() {
            return RequestHandle { state };
        }
        // Route each slot to its shard (deterministic by target prefix),
        // preserving submission order within each shard.
        let mut by_shard: Vec<(usize, Vec<(usize, NodeId)>)> = Vec::new();
        for (slot, &target) in targets.iter().enumerate() {
            let shard = self.inner.router.shard_for(target);
            match by_shard.iter_mut().find(|(s, _)| *s == shard) {
                Some((_, slots)) => slots.push((slot, target)),
                None => by_shard.push((shard, vec![(slot, target)])),
            }
        }
        // One admission instant per request: the deadline arithmetic, the
        // queue-wait clock, and the shed decisions below all read this
        // single timestamp, so a served request's reported queue_wait can
        // never exceed its deadline budget (served ⇒ drained before
        // `admitted + budget` ⇒ drain − admitted < budget).
        let admitted = Instant::now();
        let deadline = deadline.map(|d| admitted + d);
        let cap = self.inner.config.shard.queue_capacity;
        for (shard_idx, slots) in by_shard {
            let shard = &self.inner.shards[shard_idx];
            let mut shed: Vec<usize> = Vec::new();
            {
                let mut queue = shard.queue.lock().unwrap_or_else(|e| e.into_inner());
                for (slot, target) in slots {
                    // Admission control: a full bounded queue sheds the
                    // target instead of growing latency past any SLO.
                    if cap > 0 && queue.pending.len() >= cap {
                        shed.push(slot);
                        continue;
                    }
                    queue.pending.push_back(PendingTarget {
                        target,
                        request: state.clone(),
                        slot,
                        options: options.clone(),
                        deadline,
                        enqueued_at: admitted,
                    });
                    if queue.oldest_since.is_none() {
                        queue.oldest_since = Some(admitted);
                    }
                }
                shard.metrics.queue_depth.set(queue.pending.len() as i64);
            }
            self.inner.shards[shard_idx].queue_cv.notify_all();
            if !shed.is_empty() {
                shard.local.lock().counters.shed_queue_full += shed.len() as u64;
                shard.metrics.shed_queue_full.add(shed.len() as u64);
                for slot in shed {
                    state.complete(
                        slot,
                        ServeOutcome::Shed {
                            reason: ShedReason::QueueFull,
                        },
                    );
                }
            }
        }
        RequestHandle { state }
    }

    /// Convenience: [`ShardedService::submit`] + [`RequestHandle::wait`].
    pub fn localize_blocking(&self, targets: &[NodeId]) -> Vec<ServedEstimate> {
        self.submit(targets).wait()
    }

    /// Convenience: [`ShardedService::submit_with_options`] +
    /// [`RequestHandle::wait_outcomes`].
    pub fn localize_blocking_with_options(
        &self,
        targets: &[NodeId],
        options: LocalizeOptions,
    ) -> Vec<ServeOutcome> {
        self.submit_with_options(targets, options).wait_outcomes()
    }

    /// Prepares a fresh model from `landmarks`, makes it the current epoch
    /// without interrupting in-flight batches, and retires cache entries of
    /// older epochs. Returns the new epoch.
    pub fn refresh_model(&self, landmarks: &[NodeId]) -> u64 {
        let epoch = self.inner.registry.refresh(&self.inner.provider, landmarks);
        self.retire_caches(epoch);
        epoch
    }

    /// Registers a caller-prepared model as the new current epoch and runs
    /// the same cache retirement as [`ShardedService::refresh_model`] — the
    /// serving end of an incremental-recalibration loop, where a refresh
    /// task prepares the model with
    /// [`octant::Octant::prepare_landmarks_incremental`] and hands it over.
    /// The model must come from an [`Octant`] configured identically to the
    /// service's.
    pub fn register_model(&self, model: LandmarkModel, landmarks: Vec<NodeId>) -> u64 {
        let epoch = self.inner.registry.register(model, landmarks);
        self.retire_caches(epoch);
        epoch
    }

    /// The refresh-under-fire path: delta-recalibrates the *current* epoch's
    /// model against `landmarks`, re-probing only the calibration state
    /// touched by `changed` nodes (a roster change — a landmark appearing,
    /// vanishing, or moving — falls back to a full rebuild), then registers
    /// the result as the new epoch and retires stale cache entries. Batches
    /// already in flight keep serving from their own epoch snapshot for
    /// their whole lifetime, so no request ever observes a half-swapped
    /// model. Returns the new epoch and the recalibration cost breakdown.
    pub fn refresh_model_incremental(
        &self,
        landmarks: &[NodeId],
        changed: &[NodeId],
    ) -> (u64, RecalibrationReport) {
        let previous = self.inner.registry.current();
        let (model, report) = self.inner.registry.octant().prepare_landmarks_incremental(
            &self.inner.provider,
            landmarks,
            &previous.model,
            changed,
        );
        let epoch = self.register_model(model, landmarks.to_vec());
        (epoch, report)
    }

    /// Epoch retirement shared by refresh and registration: both the router
    /// cache (behind the pipeline) and the answer memo (in front of it)
    /// keep only the current epoch. The epoch bump alone already
    /// *invalidates* stale answers — epoch leads every key — so retirement
    /// is about reclaiming memory promptly, not correctness.
    fn retire_caches(&self, epoch: u64) {
        self.inner.cache.retire_epochs_before(epoch);
        self.inner.answers.retire_epochs_before(epoch);
    }

    /// The current model epoch.
    pub fn epoch(&self) -> u64 {
        self.inner.registry.epoch()
    }

    /// The shard serving `target` — the control plane's routing decision,
    /// deterministic within (and across) epochs.
    pub fn shard_for(&self, target: NodeId) -> usize {
        self.inner.router.shard_for(target)
    }

    /// Number of data-plane shards.
    pub fn shard_count(&self) -> usize {
        self.inner.shards.len()
    }

    /// The router sub-localization cache every shard shares (counters,
    /// eviction).
    pub fn cache(&self) -> &RouterCache {
        &self.inner.cache
    }

    /// The model registry (snapshots, external registration).
    pub fn registry(&self) -> &ModelRegistry {
        &self.inner.registry
    }

    /// The aggregate statistics snapshot: counters summed over shards,
    /// per-shard queue gauges, merged latency quantiles.
    pub fn stats(&self) -> ServiceStats {
        let mut counters = ServiceCounters::default();
        let mut latency = LatencyHistogram::new();
        let mut queues = Vec::with_capacity(self.inner.shards.len());
        for (i, shard) in self.inner.shards.iter().enumerate() {
            {
                let local = shard.local.lock();
                counters.absorb(&local.counters);
                latency.merge(&local.latency);
            }
            queues.push(QueueSnapshot {
                shard: i,
                depth: shard
                    .queue
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .pending
                    .len(),
            });
        }
        ServiceStats {
            epoch: self.inner.registry.epoch(),
            counters,
            queues,
            latency: latency.summary(),
            cache: self.inner.cache.stats(),
            answers: self.inner.answers.stats(),
        }
    }

    /// Per-shard statistics, in shard order: each shard's own counters,
    /// queue gauge, and latency quantiles.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.inner
            .shards
            .iter()
            .enumerate()
            .map(|(i, shard)| {
                let (counters, latency) = {
                    let local = shard.local.lock();
                    (local.counters, local.latency.summary())
                };
                ShardStats {
                    shard: i,
                    counters,
                    queue: QueueSnapshot {
                        shard: i,
                        depth: shard
                            .queue
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .pending
                            .len(),
                    },
                    latency,
                }
            })
            .collect()
    }

    /// The full observability export: [`ShardedService::stats`] plus the
    /// per-stage wall-time breakdown merged over every shard and a snapshot
    /// of [`MetricsRegistry::global`]. Render with [`StatsReport::to_json`]
    /// (machine-readable, consumed by the bench bins' `stage_breakdown`
    /// section) or via `Display` (a TWIAD-style text table).
    pub fn stats_report(&self) -> StatsReport {
        let mut stages: Vec<(&'static str, LatencyHistogram)> = Vec::new();
        for shard in &self.inner.shards {
            let local = shard.local.lock();
            for (name, hist) in &local.stages {
                match stages.iter_mut().find(|(n, _)| n == name) {
                    Some((_, merged)) => merged.merge(hist),
                    None => stages.push((name, hist.clone())),
                }
            }
        }
        StatsReport {
            stats: self.stats(),
            stage_breakdown: stages
                .into_iter()
                .map(|(name, hist)| StageBreakdown {
                    name,
                    count: hist.count(),
                    total: hist.total(),
                    latency: hist.summary(),
                })
                .collect(),
            registry: MetricsRegistry::global().snapshot(),
        }
    }

    /// Drains every shard's queue, stops the workers, and joins them.
    /// Pending requests are served before the workers exit (expired
    /// deadlines are still shed, never solved).
    pub fn shutdown(mut self) {
        self.stop_workers();
    }

    fn stop_workers(&mut self) {
        for shard in &self.inner.shards {
            {
                let mut queue = shard.queue.lock().unwrap_or_else(|e| e.into_inner());
                queue.shutdown = true;
            }
            shard.queue_cv.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl<P: ObservationProvider + Send + Sync + 'static> Drop for ShardedService<P> {
    fn drop(&mut self) {
        self.stop_workers();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::dataset;
    use octant::{Geolocator, RouterLocalization};
    use octant_netsim::observation::{HostDescriptor, PingObservation, TracerouteHop};
    use octant_netsim::MeasurementDataset;

    #[test]
    fn serves_submitted_targets_in_order() {
        let ds = dataset(10, 7).into_shared();
        let hosts = ds.host_ids();
        let (landmarks, targets) = hosts.split_at(7);
        let service = GeolocationService::start(ServiceConfig::default(), ds.clone(), landmarks);
        let served = service.localize_blocking(targets);
        assert_eq!(served.len(), targets.len());
        for (&target, s) in targets.iter().zip(&served) {
            assert_eq!(s.target, target);
            assert_eq!(s.epoch, 1);
            assert!(s.estimate.point.is_some());
        }
        let stats = service.stats();
        assert_eq!(stats.counters.targets_served, targets.len() as u64);
        assert!(stats.counters.batches >= 1);
        assert_eq!(stats.counters.shed(), 0);
        assert_eq!(stats.shed_rate(), 0.0);
        // Every served target left a latency observation.
        assert_eq!(stats.latency.count, targets.len() as u64);
        assert!(stats.latency.p50 <= stats.latency.p999);
        service.shutdown();
    }

    #[test]
    fn served_estimates_match_the_offline_batch_engine() {
        let ds = dataset(10, 13).into_shared();
        let hosts = ds.host_ids();
        let (landmarks, targets) = hosts.split_at(7);
        let service = GeolocationService::start(ServiceConfig::default(), ds.clone(), landmarks);
        let served = service.localize_blocking(targets);
        let octant = Octant::new(OctantConfig::default());
        for s in &served {
            let direct = octant.localize(ds.as_ref(), landmarks, s.target);
            assert_eq!(s.estimate.point, direct.point);
            assert_eq!(s.estimate.report, direct.report);
        }
        service.shutdown();
    }

    #[test]
    fn multi_shard_serving_is_bit_identical_to_one_shard() {
        let ds = dataset(12, 13).into_shared();
        let hosts = ds.host_ids();
        let (landmarks, targets) = hosts.split_at(8);

        let one = ShardedService::start(ServiceConfig::default(), ds.clone(), landmarks);
        let single = one.localize_blocking(targets);
        one.shutdown();

        let sharded = ShardedService::start(
            ServiceConfig::default().with_shards(3),
            ds.clone(),
            landmarks,
        );
        assert_eq!(sharded.shard_count(), 3);
        let multi = sharded.localize_blocking(targets);
        for (a, b) in single.iter().zip(&multi) {
            assert_eq!(a.target, b.target, "submission order is preserved");
            assert_eq!(a.estimate.point, b.estimate.point);
            assert_eq!(a.estimate.report, b.estimate.report);
        }
        // Counters aggregate across shards; gauges stay per shard.
        let stats = sharded.stats();
        assert_eq!(stats.counters.targets_served, targets.len() as u64);
        assert_eq!(stats.queues.len(), 3);
        assert_eq!(stats.queue_depth_total(), 0);
        let per_shard = sharded.shard_stats();
        assert_eq!(per_shard.len(), 3);
        let summed: u64 = per_shard.iter().map(|s| s.counters.targets_served).sum();
        assert_eq!(summed, stats.counters.targets_served);
        sharded.shutdown();
    }

    #[test]
    fn shard_routing_is_deterministic_across_calls() {
        let ds = dataset(12, 19).into_shared();
        let hosts = ds.host_ids();
        let (landmarks, targets) = hosts.split_at(8);
        let service = ShardedService::start(ServiceConfig::default().with_shards(4), ds, landmarks);
        let first: Vec<usize> = targets.iter().map(|&t| service.shard_for(t)).collect();
        // Serving traffic does not perturb routing.
        service.localize_blocking(targets);
        let second: Vec<usize> = targets.iter().map(|&t| service.shard_for(t)).collect();
        assert_eq!(first, second);
        // Routing survives an epoch refresh (the table is static provider
        // state, not per-epoch state).
        service.refresh_model(landmarks);
        let third: Vec<usize> = targets.iter().map(|&t| service.shard_for(t)).collect();
        assert_eq!(first, third);
        service.shutdown();
    }

    #[test]
    fn expired_deadlines_are_shed_and_never_solved() {
        let ds = dataset(10, 23).into_shared();
        let hosts = ds.host_ids();
        let (landmarks, targets) = hosts.split_at(7);
        // A zero deadline has already expired by the time a worker drains
        // the target, however promptly it does.
        let service = ShardedService::start(ServiceConfig::default(), ds, landmarks);
        let outcomes = service.localize_blocking_with_options(
            &targets[..2],
            LocalizeOptions::default().with_deadline(Duration::ZERO),
        );
        assert_eq!(outcomes.len(), 2);
        for o in &outcomes {
            assert!(
                matches!(o, ServeOutcome::DeadlineExceeded),
                "zero-deadline target must expire in queue, got {o:?}"
            );
        }
        let stats = service.stats();
        assert_eq!(stats.counters.deadline_expired, 2);
        assert_eq!(
            stats.counters.targets_served, 0,
            "expired targets are never solved"
        );
        assert_eq!(
            stats.latency.count, 0,
            "expired targets leave no latency observation"
        );
        assert!(stats.shed_rate() > 0.99);

        // A deadline that cannot expire serves normally.
        let ok = service.localize_blocking_with_options(
            &targets[..1],
            LocalizeOptions::default().with_deadline(Duration::from_secs(3600)),
        );
        assert!(ok[0].is_served());
        service.shutdown();
    }

    #[test]
    fn full_bounded_queue_sheds_at_admission() {
        let ds = dataset(11, 29);
        let hosts = ds.host_ids();
        let (landmarks, targets) = hosts.split_at(7);
        // The one worker is held inside the blocker's solve until the gate
        // opens, so the queue cannot drain between the submissions below.
        let blocker = targets[3];
        let gate = Arc::new(Gate::default());
        let provider = HookedProvider {
            inner: ds,
            on_ping: {
                let gate = gate.clone();
                move |_, to| {
                    if to == blocker {
                        gate.hold();
                    }
                }
            },
        };
        let service = ShardedService::start(
            ServiceConfig::default()
                .with_workers(1)
                .with_shard(ShardConfig::default().with_queue_capacity(2)),
            provider,
            landmarks,
        );
        let held = service.submit(&[blocker]);
        gate.wait_entered();
        // 3 targets into a capacity-2 queue: the third is shed immediately,
        // without blocking, while the first two wait behind the held worker.
        let handle = service.submit(&targets[..3]);
        let stats = service.stats();
        gate.open();
        assert_eq!(stats.counters.shed_queue_full, 1);
        assert_eq!(stats.queue_depth_total(), 2);
        assert!(held.wait_outcomes()[0].is_served());
        // Shutdown drains the queue, serving the two admitted targets; only
        // then does the handle resolve fully.
        service.shutdown();
        let outcomes = handle.wait_outcomes();
        assert!(outcomes[0].is_served(), "admitted slot is served on drain");
        assert!(outcomes[1].is_served(), "admitted slot is served on drain");
        assert!(
            matches!(
                outcomes[2],
                ServeOutcome::Shed {
                    reason: ShedReason::QueueFull
                }
            ),
            "the overflow slot reports the queue-full reason, got {:?}",
            outcomes[2]
        );
    }

    #[test]
    fn empty_request_completes_immediately() {
        let ds = dataset(8, 3).into_shared();
        let hosts = ds.host_ids();
        let service = GeolocationService::start(ServiceConfig::default(), ds, &hosts[..6]);
        let handle = service.submit(&[]);
        assert!(handle.is_done());
        assert!(handle.wait().is_empty());
        service.shutdown();
    }

    #[test]
    fn concurrent_requests_all_complete() {
        let ds = dataset(12, 17).into_shared();
        let hosts = ds.host_ids();
        let (landmarks, targets) = hosts.split_at(8);
        let service = Arc::new(GeolocationService::start(
            ServiceConfig::default().with_workers(3),
            ds,
            landmarks,
        ));
        std::thread::scope(|scope| {
            for i in 0..6 {
                let service = &service;
                let targets = &targets;
                scope.spawn(move || {
                    let pick = [targets[i % targets.len()], targets[(i + 1) % targets.len()]];
                    let served = service.localize_blocking(&pick);
                    assert_eq!(served.len(), 2);
                    assert_eq!(served[0].target, pick[0]);
                    assert_eq!(served[1].target, pick[1]);
                });
            }
        });
        assert_eq!(service.stats().counters.targets_served, 12);
    }

    #[test]
    fn per_request_options_select_sources_without_disturbing_others() {
        let ds = dataset(10, 19).into_shared();
        let hosts = ds.host_ids();
        let (landmarks, targets) = hosts.split_at(7);
        let service = GeolocationService::start(ServiceConfig::default(), ds.clone(), landmarks);

        // Baseline request on the default pipeline.
        let base = service.localize_blocking(&targets[..2]);
        // Same targets with the router + hint sources disabled.
        let ablated: Vec<ServedEstimate> = service
            .localize_blocking_with_options(
                &targets[..2],
                LocalizeOptions::default()
                    .without_source(SourceId::Router)
                    .without_source(SourceId::Hint),
            )
            .into_iter()
            .map(|o| o.into_served().expect("no deadline, no bound: served"))
            .collect();
        for (b, a) in base.iter().zip(&ablated) {
            assert_eq!(b.target, a.target);
            assert!(a.estimate.point.is_some());
            // The ablated run's provenance shows the disabled sources.
            let prov = &a.estimate.provenance;
            assert!(!prov.source(SourceId::Router).unwrap().enabled);
            assert!(!prov.source(SourceId::Hint).unwrap().enabled);
            assert_eq!(prov.source(SourceId::Router).unwrap().emitted(), 0);
            assert!(prov.source(SourceId::Latency).unwrap().enabled);
            assert!(
                b.estimate
                    .provenance
                    .source(SourceId::Router)
                    .unwrap()
                    .enabled
            );
        }

        // A repeat default-pipeline request is unaffected by the ablation.
        let again = service.localize_blocking(&targets[..2]);
        for (b, a) in base.iter().zip(&again) {
            assert_eq!(b.estimate.point, a.estimate.point);
        }

        // Empty options behave exactly like plain submit.
        let plain =
            service.localize_blocking_with_options(&targets[..1], LocalizeOptions::default());
        assert_eq!(
            plain[0].served().unwrap().estimate.point,
            base[0].estimate.point
        );
        // A deadline alone neither blocks coalescing nor changes answers.
        let with_deadline = service.localize_blocking_with_options(
            &targets[..1],
            LocalizeOptions::default().with_deadline(Duration::from_secs(3600)),
        );
        assert_eq!(
            with_deadline[0].served().unwrap().estimate.point,
            base[0].estimate.point
        );
        service.shutdown();
    }

    #[test]
    fn refresh_mid_stream_bumps_epoch_without_breaking_requests() {
        let ds = dataset(10, 23).into_shared();
        let hosts = ds.host_ids();
        let (landmarks, targets) = hosts.split_at(7);
        let service = GeolocationService::start(ServiceConfig::default(), ds, landmarks);
        let first = service.localize_blocking(&targets[..1]);
        assert_eq!(first[0].epoch, 1);
        let epoch = service.refresh_model(landmarks);
        assert_eq!(epoch, 2);
        let second = service.localize_blocking(&targets[..1]);
        assert_eq!(second[0].epoch, 2);
        // Same landmarks, replay-stable provider → identical estimates
        // across epochs.
        assert_eq!(first[0].estimate.point, second[0].estimate.point);
        service.shutdown();
    }

    #[test]
    fn incremental_refresh_reuses_unchanged_calibration() {
        let ds = dataset(10, 31).into_shared();
        let hosts = ds.host_ids();
        let (landmarks, targets) = hosts.split_at(7);
        let service = GeolocationService::start(ServiceConfig::default(), ds.clone(), landmarks);
        let first = service.localize_blocking(&targets[..1]);
        // Nothing changed: wholesale reuse, no rebuild, epoch still bumps.
        let (epoch, report) = service.refresh_model_incremental(landmarks, &[]);
        assert_eq!(epoch, 2);
        assert!(!report.full_rebuild);
        assert_eq!(report.changed_pairs, 0);
        let second = service.localize_blocking(&targets[..1]);
        assert_eq!(second[0].epoch, 2);
        assert_eq!(first[0].estimate.point, second[0].estimate.point);
        // A changed landmark refreshes its pairs and reuses the rest.
        let (epoch, report) = service.refresh_model_incremental(landmarks, &landmarks[..1]);
        assert_eq!(epoch, 3);
        assert!(!report.full_rebuild);
        assert!(report.refreshed_pairs > 0);
        assert!(report.reused_pairs > 0);
        // Replay-stable provider → re-probing changes nothing downstream.
        let third = service.localize_blocking(&targets[..1]);
        assert_eq!(first[0].estimate.point, third[0].estimate.point);
        service.shutdown();
    }

    #[test]
    fn recursive_mode_fills_the_router_cache() {
        let ds = dataset(8, 29).into_shared();
        let hosts = ds.host_ids();
        let (landmarks, targets) = hosts.split_at(6);
        let service = GeolocationService::start(
            ServiceConfig::default().with_octant(
                OctantConfig::default()
                    .with_router_localization(RouterLocalization::Recursive)
                    .with_max_router_constraints(3),
            ),
            ds,
            landmarks,
        );
        let served = service.localize_blocking(targets);
        assert_eq!(served.len(), targets.len());
        let stats = service.stats();
        assert!(
            stats.cache.misses > 0,
            "recursive solves must fill the cache"
        );
        assert_eq!(
            stats.cache.misses,
            service.cache().sub_localizations(),
            "misses count the sub-localizations"
        );
        // Serving the same targets again is answered entirely from cache.
        let before = service.cache().sub_localizations();
        service.localize_blocking(targets);
        assert_eq!(service.cache().sub_localizations(), before);
        service.shutdown();
    }

    /// Wraps a dataset and runs `on_ping(from, to)` before every ping.
    struct HookedProvider<F> {
        inner: MeasurementDataset,
        on_ping: F,
    }

    impl<F: Fn(NodeId, NodeId) + Send + Sync> ObservationProvider for HookedProvider<F> {
        fn hosts(&self) -> Vec<HostDescriptor> {
            self.inner.hosts()
        }
        fn ping(&self, from: NodeId, to: NodeId) -> PingObservation {
            (self.on_ping)(from, to);
            self.inner.ping(from, to)
        }
        fn traceroute(&self, from: NodeId, to: NodeId) -> Vec<TracerouteHop> {
            self.inner.traceroute(from, to)
        }
        fn node_by_ip(&self, ip: [u8; 4]) -> Option<NodeId> {
            self.inner.node_by_ip(ip)
        }
        fn reverse_dns(&self, ip: [u8; 4]) -> Option<String> {
            self.inner.reverse_dns(ip)
        }
        fn whois_city(&self, ip: [u8; 4]) -> Option<String> {
            self.inner.whois_city(ip)
        }
        fn advertised_location(&self, id: NodeId) -> Option<octant_geo::GeoPoint> {
            self.inner.advertised_location(id)
        }
    }

    /// Holds the first caller of [`Gate::hold`] until the test opens the
    /// gate: a ping hook that holds a worker inside one target's solve
    /// keeps the worker busy without a timer.
    #[derive(Default)]
    struct Gate {
        /// `(entered, open)`.
        state: Mutex<(bool, bool)>,
        changed: Condvar,
    }

    impl Gate {
        fn hold(&self) {
            let mut state = self.state.lock().unwrap();
            if state.0 {
                return;
            }
            state.0 = true;
            self.changed.notify_all();
            while !state.1 {
                state = self.changed.wait(state).unwrap();
            }
        }

        fn wait_entered(&self) {
            let mut state = self.state.lock().unwrap();
            while !state.0 {
                state = self.changed.wait(state).unwrap();
            }
        }

        fn open(&self) {
            self.state.lock().unwrap().1 = true;
            self.changed.notify_all();
        }
    }

    #[test]
    fn panicking_solve_answers_unknown_instead_of_hanging() {
        let ds = dataset(10, 31);
        let hosts = ds.host_ids();
        let (landmarks, targets) = hosts.split_at(7);
        let poison = targets[0];
        let provider = std::sync::Arc::new(HookedProvider {
            inner: ds,
            on_ping: move |from, to| {
                assert!(
                    from != poison && to != poison,
                    "simulated measurement failure"
                );
            },
        });
        let service = GeolocationService::start(
            ServiceConfig::default().with_workers(1),
            provider,
            landmarks,
        );
        // The poisoned target's batch must complete (with unknown results),
        // not hang the caller or kill the worker.
        let served = service.localize_blocking(&[poison]);
        assert_eq!(served.len(), 1);
        assert!(served[0].estimate.point.is_none());
        assert!(service.stats().counters.failed_batches >= 1);
        // The single worker survived and keeps serving healthy targets.
        let healthy = service.localize_blocking(&targets[1..2]);
        assert!(healthy[0].estimate.point.is_some());
        service.shutdown();
    }
}
