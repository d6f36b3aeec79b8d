//! `batch-loo`: the paper's leave-one-out evaluation, run offline through
//! `Geolocator::localize`, with no service.

use crate::harness::{self, span, ClientLog, Phase, Workload};
use crate::serving::CAMPAIGN_SEED;
use crate::trace::Tracer;
use octant::{Geolocator, Octant, OctantConfig};
use octant_bench::Campaign;
use octant_netsim::topology::NodeId;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Campaigns evaluated, each over every built-in site.
const CAMPAIGNS: usize = 4;
const SITES: usize = 66;
/// Jobs whose traced split is compared against `Geolocator::localize`.
const SPLIT_SAMPLE: usize = 8;

pub struct BatchLoo {
    pub seed: u64,
}

pub struct LooState {
    capture: Duration,
    campaigns: Vec<Campaign>,
    /// Every `(campaign, host)` leave-one-out job.
    jobs: Vec<(usize, NodeId)>,
}

impl LooState {
    /// The job's campaign and its landmarks: every other host.
    fn job(&self, (c, target): (usize, NodeId)) -> (&Campaign, Vec<NodeId>) {
        let campaign = &self.campaigns[c];
        let landmarks = campaign
            .hosts
            .iter()
            .copied()
            .filter(|&h| h != target)
            .collect();
        (campaign, landmarks)
    }
}

impl Workload for BatchLoo {
    type State = LooState;
    const TAIL: f64 = 0.9;
    const WINDOWS: usize = 5;

    fn setup(&self, tracer: Option<&Tracer>) -> LooState {
        let start = Instant::now();
        let campaigns: Vec<Campaign> = span(tracer, "setup.capture", || {
            (0..CAMPAIGNS)
                .map(|c| octant_bench::campaign_with_sites(SITES, CAMPAIGN_SEED + c as u64))
                .collect()
        });
        let capture = start.elapsed();
        let jobs = campaigns
            .iter()
            .enumerate()
            .flat_map(|(c, campaign)| campaign.hosts.iter().map(move |&h| (c, h)))
            .collect();
        LooState {
            capture,
            campaigns,
            jobs,
        }
    }

    fn capture_time(state: &LooState) -> Duration {
        state.capture
    }

    fn measure(&self, state: &LooState, deadline: Instant, tracer: Option<&Tracer>) -> Phase {
        let octant = Octant::new(OctantConfig::default());
        let mut order = state.jobs.clone();
        order.shuffle(&mut StdRng::seed_from_u64(self.seed));
        // Jobs cycle: the evaluation keeps no per-target state, so a repeat
        // costs what the first run did, apart from the landmass cache.
        let next = AtomicUsize::new(0);
        let log = harness::clients(|_| {
            let mut log = ClientLog::default();
            while Instant::now() < deadline {
                let (c, target) = order[next.fetch_add(1, Ordering::Relaxed) % order.len()];
                let (campaign, landmarks) = state.job((c, target));
                let begin = Instant::now();
                let estimate = match tracer {
                    None => octant.localize(&campaign.dataset, &landmarks, target),
                    Some(tracer) => {
                        traced_split(&octant, tracer, campaign, &landmarks, target, &mut log)
                    }
                };
                log.request(begin, Instant::now(), u32::from(estimate.point.is_some()));
                log.answer((c, target), 0, estimate);
            }
            log
        });
        Phase {
            log,
            ..Phase::default()
        }
    }

    fn check(&self, state: &LooState, phase: &Phase) -> Vec<String> {
        let mut problems = Vec::new();
        let attempted = (phase.log.succeeded + phase.log.failed) as usize;
        if phase.log.answers.len() != attempted.min(state.jobs.len()) {
            problems.push(format!(
                "{} distinct outcomes for {attempted} attempted leave-one-out jobs",
                phase.log.answers.len()
            ));
        }
        // The traced run splits each job into `prepare_landmarks` and
        // `localize_with_model`; that split must be `localize` bit for bit.
        let octant = Octant::new(OctantConfig::default());
        for &(c, target) in state.jobs.iter().take(SPLIT_SAMPLE) {
            let (campaign, landmarks) = state.job((c, target));
            let whole = octant.localize(&campaign.dataset, &landmarks, target);
            let model = octant.prepare_landmarks(&campaign.dataset, &landmarks);
            let split = octant.localize_with_model(&campaign.dataset, &model, target);
            if whole.point != split.point || whole.report != split.report {
                problems.push(format!(
                    "campaign {c} target {target:?}: prepare_landmarks + localize_with_model gives {:?}, localize gives {:?}",
                    split.point, whole.point
                ));
            }
        }
        problems
    }

    fn accuracy(&self, state: &LooState, phase: &Phase) -> (f64, f64) {
        harness::accuracy(phase.log.answers.iter().map(|(&(c, host), answer)| {
            (
                harness::truth(&state.campaigns[c].dataset, host),
                &answer.estimate,
            )
        }))
    }
}

/// One job as the traced run splits it: the model preparation and the
/// solve as separate spans, the solve's stage self-times captured through
/// the program's own `begin_capture`.
fn traced_split(
    octant: &Octant,
    tracer: &Tracer,
    campaign: &Campaign,
    landmarks: &[NodeId],
    target: NodeId,
    log: &mut ClientLog,
) -> octant::LocationEstimate {
    let request = tracer.reserve();
    let localize = tracer.reserve();
    let begin = Instant::now();
    let model = octant.prepare_landmarks(&campaign.dataset, landmarks);
    let prepared = Instant::now();
    let capture = octant_telemetry::begin_capture();
    let estimate = octant.localize_with_model(&campaign.dataset, &model, target);
    let profile = capture.finish();
    let end = Instant::now();
    tracer.call(request, "request", None, Some(request), begin, end);
    tracer.call(
        tracer.reserve(),
        "prepare_landmarks",
        Some(request),
        Some(request),
        begin,
        prepared,
    );
    tracer.call(
        localize,
        "localize_with_model",
        Some(request),
        Some(request),
        prepared,
        end,
    );
    tracer.stages(localize, Some(request), prepared, &profile);
    log.profiles.push(profile);
    estimate
}
