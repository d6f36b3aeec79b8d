//! The pluggable evidence pipeline (§2, §2.5, §3).
//!
//! Octant's headline contribution is a *comprehensive* framework: any kind
//! of evidence — latency, indirect-route router constraints, oceans and
//! landmass outlines, WHOIS registrations, DNS naming hints, demographic
//! priors — reduces to weighted positive/negative geometric constraints
//! over one solver. This module makes that composition a first-class API
//! instead of logic hardwired into [`Octant`]:
//!
//! * [`ConstraintSource`] — one kind of evidence. A source converts a
//!   [`TargetContext`] (the per-target measurement view) into weighted
//!   [`Constraint`]s, and may additionally *refine* the solved region
//!   (the §2.5 landmass restriction is a refinement, not a solver
//!   constraint, so a single erroneous outline can never empty the
//!   estimate).
//! * [`EvidencePipeline`] — an ordered set of sources, each with an
//!   enable switch and a weight scale. [`EvidencePipeline::standard`]
//!   reproduces the classic Octant mix **bit-identically**; disabling,
//!   re-weighting, or appending sources is a configuration change, not a
//!   code change — exactly how the paper's §3 ablations toggle constraint
//!   families.
//! * [`ProvenanceReport`] — every [`LocationEstimate`] records, per
//!   source, how many constraints it emitted, how the solver disposed of
//!   them (applied vs. skipped, by kind), the total weight it contributed,
//!   and — for refining sources — the estimate area before and after the
//!   refinement. Ablation studies and debugging fall out of the API.
//!
//! The built-in sources map to the paper as follows:
//!
//! | Source | Paper | Default |
//! |---|---|---|
//! | [`LatencySource`] | §2.1/§2.2 positive + negative latency shells | on |
//! | [`RouterSource`] | §2.3 piecewise secondary landmarks | on (per [`OctantConfig::router_localization`]) |
//! | [`HintSource`] | §2.5 WHOIS registration hints | on (per [`OctantConfig::use_whois`]) |
//! | [`DnsNameSource`] | §2.5 `undns`-style names of the *target itself* | off ([`OctantConfig::use_dns_hints`]) |
//! | [`PopulationPrior`] | §2.5 demographic prior | off ([`OctantConfig::use_population_prior`]) |
//! | [`GeographySource`] | §2.5 oceans/uninhabitable exclusion | on (per [`OctantConfig::use_landmass_constraint`]) |
//!
//! [`LocationEstimate`]: crate::framework::LocationEstimate

use crate::batch::LandmarkModel;
use crate::constraint::{latency_weight, Constraint, DEFAULT_WEIGHT_DECAY_MS};
use crate::framework::{
    host_descriptor, host_ip, Octant, OctantConfig, RouterEstimateSource, RouterLocalization,
};
use crate::geography;
use octant_geo::projection::AzimuthalEquidistant;
use octant_geo::units::{Distance, Latency};
use octant_netsim::dns;
use octant_netsim::observation::ObservationProvider;
use octant_netsim::topology::NodeId;
use octant_region::GeoRegion;
use std::sync::Arc;

/// Stable identity of a [`ConstraintSource`], used for per-request source
/// selection, weight scaling, and provenance reporting. The `Ord` is the
/// declaration order (with `Custom` labels last, ordered by label) — used to
/// canonicalize source lists into deterministic cache keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SourceId {
    /// Direct landmark latency constraints (§2.1/§2.2).
    Latency,
    /// Piecewise router-derived constraints (§2.3).
    Router,
    /// Landmass/ocean restriction (§2.5).
    Geography,
    /// WHOIS registration hints (§2.5).
    Hint,
    /// `undns`-style city codes parsed from the target's own hostname.
    DnsName,
    /// Coarse population-density prior.
    PopulationPrior,
    /// A user-supplied source, identified by a static label.
    Custom(&'static str),
}

impl SourceId {
    /// A short stable label for tables and JSON output.
    pub fn as_str(&self) -> &'static str {
        match self {
            SourceId::Latency => "latency",
            SourceId::Router => "router",
            SourceId::Geography => "geography",
            SourceId::Hint => "hint",
            SourceId::DnsName => "dns",
            SourceId::PopulationPrior => "population",
            SourceId::Custom(s) => s,
        }
    }

    /// The telemetry span/stage name for this source (`source.latency`,
    /// `source.router`, …). Custom sources share one `source.custom` stage:
    /// span names must be `'static` and known up front, and per-request
    /// stage tables stay bounded that way.
    pub fn span_name(&self) -> &'static str {
        match self {
            SourceId::Latency => "source.latency",
            SourceId::Router => "source.router",
            SourceId::Geography => "source.geography",
            SourceId::Hint => "source.hint",
            SourceId::DnsName => "source.dns",
            SourceId::PopulationPrior => "source.population",
            SourceId::Custom(_) => "source.custom",
        }
    }
}

impl std::fmt::Display for SourceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The per-target measurement view a [`ConstraintSource`] works from: the
/// shared landmark model, the target's RTT vector, the height estimate, and
/// the projection the solve runs in. Sources must treat it as read-only.
pub struct TargetContext<'a> {
    /// The observation interface (pings, traceroutes, WHOIS, reverse DNS).
    pub provider: &'a dyn ObservationProvider,
    /// The prepared target-independent landmark state.
    pub model: &'a LandmarkModel,
    /// The framework instance running the solve (configuration plus the
    /// recursive sub-solve entry points the router source needs).
    pub octant: &'a Octant,
    /// Shorthand for `octant.config()`.
    pub config: &'a OctantConfig,
    /// The target being localized.
    pub target: NodeId,
    /// Minimum RTT from each model landmark to the target (parallel to
    /// `model.landmark_ids()`; `None` = unreachable).
    pub target_rtts: &'a [Option<Latency>],
    /// The target's estimated queuing delay (0 when heights are disabled).
    pub target_height_ms: f64,
    /// The projection every constraint region must be expressed in.
    pub projection: AzimuthalEquidistant,
    /// `false` for recursive router sub-solves, which must not recurse
    /// further (§2.3's one-level construction).
    pub allow_router_constraints: bool,
    /// Shared router estimate source (e.g. `octant-service`'s cache), when
    /// the caller supplied one.
    pub routers: Option<&'a dyn RouterEstimateSource>,
}

/// One kind of localization evidence, reduced to weighted geometric
/// constraints (§2's unifying idea).
///
/// Implementations must be deterministic functions of the context: the
/// batch engine and the serving layer call them from multiple threads and
/// rely on replayed calls producing identical constraints.
pub trait ConstraintSource: Send + Sync {
    /// The source's stable identity.
    fn id(&self) -> SourceId;

    /// Converts the target's evidence into weighted constraints. Constraint
    /// order within one source is preserved into the solver (which breaks
    /// weight ties by arrival order), so implementations should emit in a
    /// stable order.
    fn constraints(&self, ctx: &TargetContext<'_>) -> Vec<Constraint>;

    /// Post-solve refinement of the estimate (applied in pipeline order
    /// after the solver ran). The default is the identity. Refinements must
    /// never empty a non-empty estimate — prefer returning it unchanged
    /// (the §2.4 robustness principle).
    fn refine(&self, ctx: &TargetContext<'_>, estimate: GeoRegion) -> GeoRegion {
        let _ = ctx;
        estimate
    }

    /// `true` when [`ConstraintSource::refine`] is overridden, so the
    /// pipeline records before/after areas only where they are meaningful.
    fn refines(&self) -> bool {
        false
    }
}

/// One pipeline slot: a source plus its enable switch and weight scale.
#[derive(Clone)]
pub struct PipelineEntry {
    source: Arc<dyn ConstraintSource>,
    enabled: bool,
    weight_scale: f64,
}

impl PipelineEntry {
    /// The source's identity.
    pub fn id(&self) -> SourceId {
        self.source.id()
    }

    /// Whether the source participates in solves.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The multiplier applied to every constraint weight the source emits.
    pub fn weight_scale(&self) -> f64 {
        self.weight_scale
    }

    /// The source itself.
    pub fn source(&self) -> &Arc<dyn ConstraintSource> {
        &self.source
    }
}

impl std::fmt::Debug for PipelineEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelineEntry")
            .field("id", &self.id())
            .field("enabled", &self.enabled)
            .field("weight_scale", &self.weight_scale)
            .finish()
    }
}

/// An ordered, configurable set of [`ConstraintSource`]s feeding the
/// weighted solver. See the module docs for the built-in sources and
/// [`EvidencePipeline::standard`] for the default mix.
#[derive(Clone, Debug)]
pub struct EvidencePipeline {
    entries: Vec<PipelineEntry>,
}

impl Default for EvidencePipeline {
    fn default() -> Self {
        EvidencePipeline::standard()
    }
}

impl EvidencePipeline {
    /// A pipeline with no sources (solves yield the whole world).
    pub fn empty() -> Self {
        EvidencePipeline {
            entries: Vec::new(),
        }
    }

    /// The classic Octant evidence mix, in the order the pre-pipeline
    /// framework hardcoded it: latency shells, router constraints, WHOIS
    /// hints, then the (default-off) DNS-name and population sources, and
    /// finally the landmass refinement. With a default [`OctantConfig`]
    /// this pipeline is bit-identical to the historical behaviour.
    pub fn standard() -> Self {
        EvidencePipeline::empty()
            .with_source(Arc::new(LatencySource))
            .with_source(Arc::new(RouterSource))
            .with_source(Arc::new(HintSource))
            .with_source(Arc::new(DnsNameSource))
            .with_source(Arc::new(PopulationPrior))
            .with_source(Arc::new(GeographySource))
    }

    /// Appends a source (enabled, weight scale 1).
    pub fn with_source(mut self, source: Arc<dyn ConstraintSource>) -> Self {
        self.entries.push(PipelineEntry {
            source,
            enabled: true,
            weight_scale: 1.0,
        });
        self
    }

    /// The pipeline's slots, in application order.
    pub fn entries(&self) -> &[PipelineEntry] {
        &self.entries
    }

    /// Number of sources (enabled or not).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the pipeline has no sources.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Enables or disables every source with the given id. Returns `true`
    /// when at least one entry matched.
    pub fn set_enabled(&mut self, id: SourceId, enabled: bool) -> bool {
        let mut found = false;
        for e in &mut self.entries {
            if e.id() == id {
                e.enabled = enabled;
                found = true;
            }
        }
        found
    }

    /// Sets the weight scale of every source with the given id. Returns
    /// `true` when at least one entry matched.
    pub fn set_weight_scale(&mut self, id: SourceId, scale: f64) -> bool {
        let mut found = false;
        for e in &mut self.entries {
            if e.id() == id {
                e.weight_scale = scale;
                found = true;
            }
        }
        found
    }

    /// Whether any source with the given id is present and enabled.
    pub fn enabled(&self, id: SourceId) -> bool {
        self.entries.iter().any(|e| e.id() == id && e.enabled)
    }

    /// A copy with the listed sources disabled and the listed weight scales
    /// applied — the one-call form behind the offline ablations and
    /// per-request source selection (`octant-service`'s `LocalizeOptions`).
    /// Unknown ids are ignored.
    pub fn adjusted(&self, disabled: &[SourceId], weight_scales: &[(SourceId, f64)]) -> Self {
        let mut out = self.clone();
        for id in disabled {
            out.set_enabled(*id, false);
        }
        for (id, scale) in weight_scales {
            out.set_weight_scale(*id, *scale);
        }
        out
    }
}

/// Per-source accounting of one solve — what the source contributed and how
/// the solver disposed of it.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceReport {
    /// The source's identity.
    pub id: SourceId,
    /// Whether the source was enabled for this solve.
    pub enabled: bool,
    /// The weight scale that was applied to its constraints.
    pub weight_scale: f64,
    /// Positive constraints the source emitted.
    pub emitted_positive: usize,
    /// Negative constraints the source emitted.
    pub emitted_negative: usize,
    /// Positive constraints the solver applied.
    pub applied_positive: usize,
    /// Positive constraints the solver set aside as conflicting (§2.4).
    pub skipped_positive: usize,
    /// Negative constraints the solver applied.
    pub applied_negative: usize,
    /// Negative constraints the solver set aside.
    pub skipped_negative: usize,
    /// Sum of the (scaled) weights the source contributed.
    pub total_weight: f64,
    /// Estimate area (km²) entering the source's post-solve refinement
    /// (refining sources only).
    pub area_before_km2: Option<f64>,
    /// Estimate area (km²) after the refinement (refining sources only).
    pub area_after_km2: Option<f64>,
}

impl SourceReport {
    /// A zeroed report for one pipeline slot.
    pub(crate) fn for_entry(entry: &PipelineEntry) -> Self {
        SourceReport::new(entry.id(), entry.enabled(), entry.weight_scale())
    }

    fn new(id: SourceId, enabled: bool, weight_scale: f64) -> Self {
        SourceReport {
            id,
            enabled,
            weight_scale,
            emitted_positive: 0,
            emitted_negative: 0,
            applied_positive: 0,
            skipped_positive: 0,
            applied_negative: 0,
            skipped_negative: 0,
            total_weight: 0.0,
            area_before_km2: None,
            area_after_km2: None,
        }
    }

    /// Total constraints the source emitted.
    pub fn emitted(&self) -> usize {
        self.emitted_positive + self.emitted_negative
    }

    /// Total constraints the solver applied from this source.
    pub fn applied(&self) -> usize {
        self.applied_positive + self.applied_negative
    }
}

/// The per-estimate provenance record: one [`SourceReport`] per pipeline
/// slot (disabled sources included, with zero counts), plus diagnostics of
/// the landmark model the solve ran against.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProvenanceReport {
    /// Per-source accounting, in pipeline order.
    pub sources: Vec<SourceReport>,
    /// Landmarks the model dropped because they advertised no location
    /// (see [`LandmarkModel::dropped_landmarks`]) — the estimate used
    /// fewer landmarks than the caller supplied.
    pub dropped_landmarks: usize,
}

impl ProvenanceReport {
    /// The report of one source, when present in the pipeline.
    pub fn source(&self, id: SourceId) -> Option<&SourceReport> {
        self.sources.iter().find(|s| s.id == id)
    }

    /// Total constraints emitted across all sources.
    pub fn total_emitted(&self) -> usize {
        self.sources.iter().map(|s| s.emitted()).sum()
    }
}

// ---------------------------------------------------------------------------
// Built-in sources
// ---------------------------------------------------------------------------

/// §2.1/§2.2: per-landmark positive shells `R(d)` and (optionally) negative
/// shells `r(d)` from the height-adjusted minimum RTTs, weighted by the
/// exponential latency decay of §2.4.
#[derive(Debug, Clone, Copy, Default)]
pub struct LatencySource;

/// Floor on positive-constraint radii (km): even a vanishing adjusted
/// latency cannot claim better-than-metro accuracy.
const MIN_POSITIVE_RADIUS_KM: f64 = 50.0;

impl ConstraintSource for LatencySource {
    fn id(&self) -> SourceId {
        SourceId::Latency
    }

    fn constraints(&self, ctx: &TargetContext<'_>) -> Vec<Constraint> {
        let model = ctx.model;
        let cfg = ctx.config;
        let mut out = Vec::new();
        for i in 0..model.lm_ids.len() {
            let raw = match ctx.target_rtts[i] {
                Some(r) => r,
                None => continue,
            };
            let adjusted = if cfg.use_heights {
                ctx.octant
                    .bounded_adjust(raw, model.heights.get_ms(i), ctx.target_height_ms)
            } else {
                raw
            };
            let weight = latency_weight(adjusted, DEFAULT_WEIGHT_DECAY_MS);
            let r_max = model.calibrations[i]
                .max_distance(adjusted)
                .max(Distance::from_km(MIN_POSITIVE_RADIUS_KM));
            let region = GeoRegion::disk(ctx.projection, model.lm_pos[i], r_max);
            out.push(Constraint::positive(region, weight, format!("lm{}+", i)));

            if cfg.use_negative_constraints {
                let r_min = model.calibrations[i].min_distance(adjusted);
                if r_min.km() > 1.0 {
                    let region = GeoRegion::disk(ctx.projection, model.lm_pos[i], r_min);
                    out.push(Constraint::negative(region, weight, format!("lm{}-", i)));
                }
            }
        }
        out
    }
}

/// §2.3: piecewise constraints from on-path routers promoted to secondary
/// landmarks, under the configured [`RouterLocalization`] strategy. The
/// tightest (smallest-region) constraints win when more than
/// [`OctantConfig::max_router_constraints`] are available.
#[derive(Debug, Clone, Copy, Default)]
pub struct RouterSource;

impl ConstraintSource for RouterSource {
    fn id(&self) -> SourceId {
        SourceId::Router
    }

    fn constraints(&self, ctx: &TargetContext<'_>) -> Vec<Constraint> {
        if !ctx.allow_router_constraints
            || ctx.config.router_localization == RouterLocalization::Off
        {
            return Vec::new();
        }
        let mut out = ctx.octant.router_constraints(
            ctx.provider,
            ctx.model,
            ctx.target_rtts,
            ctx.target,
            ctx.target_height_ms,
            ctx.projection,
            ctx.routers,
        );
        // Keep the tightest (smallest-region) router constraints.
        out.sort_by(|a, b| {
            a.region
                .area_km2()
                .partial_cmp(&b.region.area_km2())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        out.truncate(ctx.config.max_router_constraints);
        out
    }
}

/// §2.5: the WHOIS registration of the target's prefix as a modest-weight
/// positive hint.
#[derive(Debug, Clone, Copy, Default)]
pub struct HintSource;

/// Radius (km) of the positive constraint derived from a WHOIS city record.
const WHOIS_RADIUS_KM: f64 = 250.0;

/// Weight of the WHOIS constraint (kept modest: records are often stale).
const WHOIS_WEIGHT: f64 = 0.25;

impl ConstraintSource for HintSource {
    fn id(&self) -> SourceId {
        SourceId::Hint
    }

    fn constraints(&self, ctx: &TargetContext<'_>) -> Vec<Constraint> {
        if !ctx.config.use_whois {
            return Vec::new();
        }
        let ip = match host_ip(ctx.provider, ctx.target) {
            Some(ip) => ip,
            None => return Vec::new(),
        };
        let city = match ctx.provider.whois_city(ip) {
            Some(city) => city,
            None => return Vec::new(),
        };
        geography::whois_constraint(
            ctx.projection,
            &city,
            Distance::from_km(WHOIS_RADIUS_KM),
            WHOIS_WEIGHT,
        )
        .into_iter()
        .collect()
    }
}

/// §2.5: `undns`-style city/airport codes parsed from the **target's own**
/// hostname (real ISPs frequently embed the customer's metro into reverse
/// DNS). Off by default ([`OctantConfig::use_dns_hints`]): hostnames that
/// merely *contain* a code-like label would otherwise inject spurious
/// hints. The netsim builder's `host_dns_city_rate` knob generates
/// ISP-style customer names this source can parse.
#[derive(Debug, Clone, Copy, Default)]
pub struct DnsNameSource;

/// Radius (km) of the positive constraint derived from a target DNS hint.
const DNS_HINT_RADIUS_KM: f64 = 150.0;

/// Weight of the target DNS hint (names are sometimes stale or wrong).
const DNS_HINT_WEIGHT: f64 = 0.35;

impl ConstraintSource for DnsNameSource {
    fn id(&self) -> SourceId {
        SourceId::DnsName
    }

    fn constraints(&self, ctx: &TargetContext<'_>) -> Vec<Constraint> {
        if !ctx.config.use_dns_hints {
            return Vec::new();
        }
        let hostname = host_descriptor(ctx.provider, ctx.target).map(|h| h.hostname);
        let city = match hostname.as_deref().and_then(dns::parse_router_city) {
            Some(city) => city,
            None => return Vec::new(),
        };
        let region = GeoRegion::disk(
            ctx.projection,
            city.location(),
            Distance::from_km(DNS_HINT_RADIUS_KM),
        );
        vec![Constraint::positive(
            region,
            DNS_HINT_WEIGHT,
            format!("dns:{}", city.code),
        )]
    }
}

/// §2.5: a coarse population-density prior — people (and therefore hosts)
/// cluster in metropolitan areas, so a low-weight positive constraint over
/// the populated cells nudges the estimate away from empty countryside the
/// latency shells cannot exclude. Off by default
/// ([`OctantConfig::use_population_prior`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct PopulationPrior;

/// Grid cell size (degrees) of the population prior.
const POPULATION_CELL_DEG: f64 = 7.5;

/// Minimum summed metro population (thousands) for a grid cell to count as
/// populated.
const POPULATION_MIN_CELL_K: u32 = 1500;

/// Weight of the population prior (kept low: it is a prior, not a
/// measurement).
const POPULATION_WEIGHT: f64 = 0.15;

impl ConstraintSource for PopulationPrior {
    fn id(&self) -> SourceId {
        SourceId::PopulationPrior
    }

    fn constraints(&self, ctx: &TargetContext<'_>) -> Vec<Constraint> {
        if !ctx.config.use_population_prior {
            return Vec::new();
        }
        let region = geography::population_prior_region_cached(
            ctx.projection,
            POPULATION_CELL_DEG,
            POPULATION_MIN_CELL_K,
        );
        if region.is_empty() {
            return Vec::new();
        }
        vec![Constraint::positive(
            region,
            POPULATION_WEIGHT,
            "population",
        )]
    }
}

/// §2.5: the oceans/uninhabitable-area restriction, applied as a post-solve
/// refinement (never as a solver constraint) so it can never empty the
/// estimate.
#[derive(Debug, Clone, Copy, Default)]
pub struct GeographySource;

impl ConstraintSource for GeographySource {
    fn id(&self) -> SourceId {
        SourceId::Geography
    }

    fn constraints(&self, _ctx: &TargetContext<'_>) -> Vec<Constraint> {
        Vec::new()
    }

    fn refine(&self, ctx: &TargetContext<'_>, estimate: GeoRegion) -> GeoRegion {
        if !ctx.config.use_landmass_constraint || estimate.is_empty() {
            return estimate;
        }
        geography::restrict_to_land(&estimate)
    }

    fn refines(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_pipeline_lists_the_paper_sources_in_order() {
        let p = EvidencePipeline::standard();
        let ids: Vec<SourceId> = p.entries().iter().map(|e| e.id()).collect();
        assert_eq!(
            ids,
            vec![
                SourceId::Latency,
                SourceId::Router,
                SourceId::Hint,
                SourceId::DnsName,
                SourceId::PopulationPrior,
                SourceId::Geography,
            ]
        );
        assert!(p.entries().iter().all(|e| e.enabled()));
        assert!(p.entries().iter().all(|e| e.weight_scale() == 1.0));
    }

    #[test]
    fn enable_and_scale_knobs_find_their_source() {
        let mut p = EvidencePipeline::standard();
        assert!(p.set_enabled(SourceId::Router, false));
        assert!(!p.enabled(SourceId::Router));
        assert!(p.enabled(SourceId::Latency));
        assert!(p.set_weight_scale(SourceId::Hint, 0.5));
        assert!(!p.set_enabled(SourceId::Custom("nope"), false));

        let adjusted = EvidencePipeline::standard()
            .adjusted(&[SourceId::Geography], &[(SourceId::Latency, 2.0)]);
        assert!(!adjusted.enabled(SourceId::Geography));
        let latency = adjusted
            .entries()
            .iter()
            .find(|e| e.id() == SourceId::Latency)
            .unwrap();
        assert_eq!(latency.weight_scale(), 2.0);
    }

    #[test]
    fn source_ids_have_stable_labels() {
        assert_eq!(SourceId::Latency.as_str(), "latency");
        assert_eq!(SourceId::PopulationPrior.as_str(), "population");
        assert_eq!(SourceId::Custom("mine").as_str(), "mine");
        assert_eq!(format!("{}", SourceId::DnsName), "dns");
    }

    #[test]
    fn provenance_report_lookup_and_totals() {
        let mut report = ProvenanceReport::default();
        let mut s = SourceReport::new(SourceId::Latency, true, 1.0);
        s.emitted_positive = 3;
        s.applied_positive = 2;
        s.skipped_positive = 1;
        s.emitted_negative = 1;
        s.applied_negative = 1;
        report.sources.push(s);
        assert_eq!(report.total_emitted(), 4);
        let lat = report.source(SourceId::Latency).unwrap();
        assert_eq!(lat.emitted(), 4);
        assert_eq!(lat.applied(), 3);
        assert!(report.source(SourceId::Router).is_none());
    }
}
