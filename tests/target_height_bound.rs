//! The §2.2 grid search's lower bound, measured where it matters: on the
//! leave-one-out inputs of a 66-site campaign, the share of grid
//! candidates the bound cannot exclude, which the search then evaluates
//! exactly. A bound loosened by mistake still returns the same bits (the
//! exact path decides every survivor), so only this share shows it.
//!
//! The `target_height.*` counters are process-wide, so this file holds one
//! test: no other test of this binary runs the search concurrently.

use octant_telemetry::MetricsRegistry;

#[test]
fn the_bound_leaves_few_grid_candidates_to_the_exact_path() {
    let campaign = octant_bench::campaign_with_sites(66, 42);
    let inputs = octant_bench::target_height_inputs(&campaign);
    assert_eq!(inputs.len(), 66);
    let registry = MetricsRegistry::global();
    let read = || {
        (
            registry.counter_value("target_height.candidates"),
            registry.counter_value("target_height.exact"),
        )
    };
    let (candidates_before, exact_before) = read();
    for input in &inputs {
        input.estimate();
    }
    let (candidates_after, exact_after) = read();
    let candidates = candidates_after - candidates_before;
    let exact = exact_after - exact_before;
    // Every call's first pass alone scores 15 × 15 candidates.
    assert!(candidates >= 66 * 225, "{candidates} candidates");
    let share = exact as f64 / candidates as f64;
    assert!(
        share < 0.15,
        "{exact} of {candidates} candidates ({:.1}%) went to the exact path",
        share * 100.0
    );
}
