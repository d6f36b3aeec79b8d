//! Evidence-pipeline mix campaign: runs the leave-one-out evaluation under
//! several source mixes — each a **configuration-only** change to the same
//! framework — and reports accuracy, region quality, and the per-source
//! constraint activity aggregated from the provenance reports.
//!
//! This is the §3-ablation axis the pipeline redesign exists for: toggling
//! or re-weighting a constraint family is one `EvidencePipeline::adjusted`
//! call (or one `OctantConfig` switch), never a code change.
//!
//! Usage: `pipeline [--smoke] [--json BENCH_pipeline.json]`
//!
//! The JSON summary is an [`octant_bench::OpsBenchSummary`]: per mix,
//! `mix_<name>_median_mi` / `_p90_mi` / `_hit_rate` / `_mean_area_mi2`,
//! plus `mix_<name>_applied_<source>` for every source that contributed,
//! and the §2.2 target-height search's cost per call and exact share over
//! the 66 leave-one-out inputs of `campaign_with_sites(66, 42)`.

use octant::{BatchGeolocator, EvidencePipeline, Octant, OctantConfig, SourceId};
use octant_bench::{
    campaign_with_sites, median_batch_secs, pipeline_campaign, run_technique, target_height_inputs,
    OpsBenchSummary, StageRow, TechniqueResult,
};
use octant_telemetry::MetricsRegistry;
use std::time::Duration;

const SOURCES: &[SourceId] = &[
    SourceId::Latency,
    SourceId::Router,
    SourceId::Hint,
    SourceId::DnsName,
    SourceId::PopulationPrior,
    SourceId::Geography,
];

struct Mix {
    name: &'static str,
    octant: Octant,
}

fn mixes() -> Vec<Mix> {
    let default_cfg = OctantConfig::default();
    // Every source on, including the default-off DNS and population ones.
    let everything_cfg = OctantConfig::default()
        .with_use_dns_hints(true)
        .with_use_population_prior(true);
    vec![
        Mix {
            name: "default",
            octant: Octant::new(default_cfg),
        },
        Mix {
            name: "latency_only",
            octant: Octant::with_pipeline(
                default_cfg,
                EvidencePipeline::standard().adjusted(
                    &[SourceId::Router, SourceId::Hint, SourceId::Geography],
                    &[],
                ),
            ),
        },
        Mix {
            name: "no_router",
            octant: Octant::with_pipeline(
                default_cfg,
                EvidencePipeline::standard().adjusted(&[SourceId::Router], &[]),
            ),
        },
        Mix {
            name: "everything",
            octant: Octant::new(everything_cfg),
        },
        Mix {
            name: "router_downweighted",
            octant: Octant::with_pipeline(
                default_cfg,
                EvidencePipeline::standard().adjusted(&[], &[(SourceId::Router, 0.25)]),
            ),
        },
    ]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let json_path = octant_bench::json_path_from_args(&args);
    let sites = if smoke { 12 } else { 28 };

    println!("# pipeline bench: {sites}-site leave-one-out under evidence-source mixes");
    let campaign = pipeline_campaign(sites, 42);

    // A cheap redesign guard: the implicit default pipeline and an explicit
    // standard pipeline must agree bit-for-bit (the full pin lives in
    // tests/pipeline_parity.rs; this keeps the bench honest on its own).
    {
        let implicit = Octant::new(OctantConfig::default());
        let explicit = Octant::with_pipeline(OctantConfig::default(), EvidencePipeline::standard());
        let model = implicit.prepare_landmarks(&campaign.dataset, &campaign.hosts[1..]);
        let a = implicit.localize_with_model(&campaign.dataset, &model, campaign.hosts[0]);
        let b = explicit.localize_with_model(&campaign.dataset, &model, campaign.hosts[0]);
        let (pa, pb) = (a.point.unwrap(), b.point.unwrap());
        assert_eq!(
            (pa.lat.to_bits(), pa.lon.to_bits()),
            (pb.lat.to_bits(), pb.lon.to_bits()),
            "default pipeline must equal the explicit standard pipeline"
        );
    }

    let mut summary = OpsBenchSummary {
        bench: "pipeline".to_string(),
        scenario: if smoke { "smoke" } else { "full" }.to_string(),
        ..OpsBenchSummary::default()
    };

    println!(
        "{:<20} {:>11} {:>9} {:>9} {:>14}  applied by source",
        "mix", "median (mi)", "p90 (mi)", "hit rate", "area (mi²)"
    );
    let all = mixes();
    assert!(all.len() >= 4, "the campaign must cover at least 4 mixes");
    for mix in &all {
        let result: TechniqueResult = run_technique(&campaign, &mix.octant);
        let mean_area = {
            let areas: Vec<f64> = result
                .outcomes
                .iter()
                .filter_map(|o| o.region_area_mi2)
                .collect();
            if areas.is_empty() {
                f64::NAN
            } else {
                areas.iter().sum::<f64>() / areas.len() as f64
            }
        };
        // Aggregate per-source applied-constraint counts from provenance.
        let mut applied: Vec<(SourceId, u64)> = SOURCES.iter().map(|&s| (s, 0)).collect();
        for outcome in &result.outcomes {
            for sr in &outcome.estimate.provenance.sources {
                if let Some(slot) = applied.iter_mut().find(|(id, _)| *id == sr.id) {
                    slot.1 += sr.applied() as u64;
                }
            }
        }
        let applied_str: Vec<String> = applied
            .iter()
            .filter(|(_, n)| *n > 0)
            .map(|(id, n)| format!("{id}:{n}"))
            .collect();
        println!(
            "{:<20} {:>11.1} {:>9.1} {:>8.0}% {:>14.0}  {}",
            mix.name,
            result.median_miles(),
            result.cdf.percentile(0.9).unwrap_or(f64::NAN),
            result.hit_rate() * 100.0,
            mean_area,
            applied_str.join(" ")
        );
        summary.push(format!("mix_{}_median_mi", mix.name), result.median_miles());
        summary.push(
            format!("mix_{}_p90_mi", mix.name),
            result.cdf.percentile(0.9).unwrap_or(f64::NAN),
        );
        summary.push(format!("mix_{}_hit_rate", mix.name), result.hit_rate());
        summary.push(format!("mix_{}_mean_area_mi2", mix.name), mean_area);
        for (id, n) in &applied {
            summary.push(format!("mix_{}_applied_{}", mix.name, id), *n as f64);
        }
    }

    // ---- Profiled pass: per-target stage breakdown of the default mix ------
    // Re-solves every host through the batch engine's profiled entry point
    // (`localize_batch_profiled`), aggregating each target's captured
    // `StageProfile` into the summary's `stage_breakdown` section — the
    // where-does-the-solve-wall-go view next to the accuracy numbers above.
    {
        let batch = BatchGeolocator::new(OctantConfig::default());
        let model = batch
            .octant()
            .prepare_landmarks(&campaign.dataset, &campaign.hosts[1..]);
        let estimates = batch.localize_batch_profiled(&campaign.dataset, &model, &campaign.hosts);
        let profiles: Vec<_> = estimates
            .iter()
            .filter_map(|e| e.profile.as_ref())
            .collect();
        assert_eq!(
            profiles.len(),
            estimates.len(),
            "every profiled estimate must carry a stage profile"
        );
        summary.stage_breakdown = StageRow::from_profiles(profiles);
        println!(
            "{:<18} {:>8} {:>12} {:>10} {:>10}",
            "stage", "count", "total ms", "p50 ms", "p99 ms"
        );
        for row in &summary.stage_breakdown {
            println!(
                "{:<18} {:>8} {:>12.3} {:>10.3} {:>10.3}",
                row.name, row.count, row.total_ms, row.p50_ms, row.p99_ms
            );
        }
    }

    // ---- §2.2 target-height search ----------------------------------------
    // The leave-one-out inputs of the benchmark's campaign size, timed as
    // the median of 7 batches of one call per input, and the share of grid
    // candidates the search's lower bound left to its exact evaluation.
    {
        let inputs = target_height_inputs(&campaign_with_sites(66, 42));
        let registry = MetricsRegistry::global();
        let read = || {
            (
                registry.counter_value("target_height.candidates"),
                registry.counter_value("target_height.exact"),
            )
        };
        let (candidates, exact) = read();
        let run_all = || {
            for input in &inputs {
                std::hint::black_box(input.estimate());
            }
        };
        run_all();
        let (candidates_after, exact_after) = read();
        let share = (exact_after - exact) as f64 / (candidates_after - candidates) as f64;
        let us_per_call =
            median_batch_secs(7, Duration::from_millis(50), run_all) * 1e6 / inputs.len() as f64;
        println!(
            "# target height: {us_per_call:.1} us/call over {} inputs, {:.1}% of grid candidates evaluated exactly",
            inputs.len(),
            share * 100.0
        );
        summary.push("target_height_us_per_call", us_per_call);
        summary.push("target_height_exact_share", share);
    }

    if let Some(path) = json_path {
        summary
            .write_json(&path)
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        println!("# wrote {}", path.display());
    }
}
