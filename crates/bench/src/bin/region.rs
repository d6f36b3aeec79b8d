//! Region-engine micro-bench binary: the perf-regression guard for the
//! n-ary sweep, bbox pruning and fast dilation paths.
//!
//! Measures, with wall-clock throughput (ops/sec):
//!
//! * a 16-way constraint-disk intersection — the chained pairwise reference
//!   (`acc.intersect(d)` fifteen times) against `Region::intersect_many`'s
//!   single sweep stitched into rings, also comparing the scanline
//!   **band-merge counters** and asserting the n-ary sweep merges strictly
//!   fewer bands than the chain; the same call read as a **banded** area
//!   (no ring stitching — the solver's chunk-gate path) is timed
//!   alongside, and the n-ary sweep's crossing-enumeration work
//!   (`crossing_scan_ops`) is reported;
//! * a **solver-style subtract chain** (`octant_bench::subtract_chain_operands`,
//!   pinned bit for bit by `tests/region_binary_golden.rs`): a 16-disk
//!   `intersect_many`, then 24 disk subtractions each followed by
//!   `simplify_to_budget(0.25, 4096)` — one op is the whole chain, and its
//!   band merges and crossing-enumeration work are reported;
//! * the intersection-walk dilation outcomes (`walk_unions` /
//!   `walk_fallbacks`) over the whole run;
//! * **contour extraction** from a router-like trapezoid soup — ring-count
//!   reduction and area parity (1e-9) are asserted, extraction throughput
//!   and the contoured dilation variant are timed;
//! * dilation of a trapezoid-decomposed router-like region at three radius
//!   classes (60 / 300 / 900 km) — the fast dispatch (`Region::dilate`)
//!   against the capsule reference (`Region::dilate_reference`);
//! * the landmass-style union of disjoint outlines — `Region::union_many`
//!   against the chained pairwise fold;
//! * **disk construction** (`Region::disk`: Bézier flattening, ring
//!   cleaning, convexity) at three constraint radii (60 / 1,000 /
//!   6,000 km), in nanoseconds per output vertex.
//!
//! Run with `cargo run --release -p octant-bench --bin region`. Flags:
//! * `--smoke` — reduced iteration counts (CI's bench-smoke job).
//! * `--json <path>` — write the machine-readable `BENCH_region.json`
//!   summary ([`octant_bench::OpsBenchSummary`] format).

use octant_bench::{json_path_from_args, OpsBenchSummary};
use octant_region::scanline::stats;
use octant_region::{BandedRegion, Region, Vec2};
use std::time::Instant;

/// The 16 constraint-scale disks every intersection measurement uses
/// (same layout as the `region_ops` criterion bench).
fn constraint_disks(n: usize) -> Vec<Region> {
    (0..n)
        .map(|i| {
            let angle = i as f64 * 0.7;
            let center = Vec2::new(angle.cos() * 200.0, angle.sin() * 200.0);
            Region::disk(center, 600.0 + 40.0 * (i % 5) as f64)
        })
        .collect()
}

/// A router-like region: a trapezoid-decomposed, non-convex estimate of the
/// kind a recursive sub-solve produces. Kept vertex-for-vertex identical to
/// the `decomposed` fixture in `benches/region_ops.rs` so the criterion
/// bench and this perf guard measure the same workload — change both
/// together.
fn router_region() -> Region {
    let a = Region::disk(Vec2::new(0.0, 0.0), 140.0);
    let b = Region::disk(Vec2::new(110.0, 20.0), 130.0);
    let bite = Region::disk(Vec2::new(40.0, -60.0), 70.0);
    a.intersect(&b).subtract(&bite)
}

/// Landmass-like outlines: mostly disjoint continents plus one connected
/// pair (the Eurasia/Africa shape), so the union exercises both the
/// bbox-cluster concatenation and a genuine merge sweep.
fn outlines() -> Vec<Region> {
    let mut out: Vec<Region> = (0..5)
        .map(|i| {
            let c = Vec2::new(i as f64 * 3600.0 - 9000.0, (i % 3) as f64 * 2600.0 - 4000.0);
            Region::disk(c, 900.0 + 120.0 * (i % 4) as f64)
        })
        .collect();
    out.push(Region::disk(Vec2::new(7000.0, 5200.0), 1100.0));
    out.push(Region::disk(Vec2::new(7900.0, 4400.0), 950.0));
    out
}

/// Times `iters` runs of `f` and returns ops/sec.
fn ops_per_sec<T>(iters: usize, mut f: impl FnMut() -> T) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    iters as f64 / start.elapsed().as_secs_f64()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let json_path = json_path_from_args(&args);
    let iters = if smoke { 5 } else { 40 };

    let mut summary = OpsBenchSummary {
        bench: "region".into(),
        scenario: if smoke { "smoke".into() } else { "full".into() },
        ..OpsBenchSummary::default()
    };

    // ---- 16-way intersection: chained pairwise vs one n-ary sweep ----------
    let disks = constraint_disks(16);
    let chained = |disks: &[Region]| {
        let mut acc = disks[0].clone();
        for d in &disks[1..] {
            acc = acc.intersect(d);
        }
        acc
    };
    let before = stats::thread_band_merges();
    let chained_result = chained(&disks);
    let chained_bands = stats::thread_band_merges() - before;
    let before = stats::thread_band_merges();
    let before_scans = stats::thread_crossing_scan_ops();
    let nary_result = Region::intersect_many(disks.iter()).into_region();
    let nary_bands = stats::thread_band_merges() - before;
    let crossing_scan_ops = stats::thread_crossing_scan_ops() - before_scans;

    // The perf-regression guard: one fused sweep must merge strictly fewer
    // bands than the 15 chained sweeps it replaces, and agree on the area.
    assert!(
        nary_bands < chained_bands,
        "n-ary sweep merged {nary_bands} bands, chained pairwise {chained_bands}"
    );
    let (ca, na) = (chained_result.area(), nary_result.area());
    assert!(
        (ca - na).abs() / ca.max(1.0) < 1e-6,
        "chained area {ca} vs n-ary {na}"
    );

    let chained_ops = ops_per_sec(iters, || chained(&disks));
    let nary_ops = ops_per_sec(iters, || Region::intersect_many(disks.iter()).into_region());
    let banded_ops = ops_per_sec(iters, || Region::intersect_many(disks.iter()).area());
    println!("# intersect16 chained : {chained_ops:>10.1} ops/s  ({chained_bands} band merges)");
    println!("# intersect16 n-ary   : {nary_ops:>10.1} ops/s  ({nary_bands} band merges)");
    println!("# intersect16 banded  : {banded_ops:>10.1} ops/s  (area gate, no stitch)");
    println!("# intersect16 speedup : {:.2}x", nary_ops / chained_ops);
    println!("# crossing scan ops   : {crossing_scan_ops} candidate pairs (n-ary sweep)");
    summary.push("intersect16_chained_ops_per_sec", chained_ops);
    summary.push("intersect16_nary_ops_per_sec", nary_ops);
    summary.push("intersect16_banded_ops_per_sec", banded_ops);
    summary.push("intersect16_speedup", nary_ops / chained_ops);
    summary.push("intersect16_chained_band_merges", chained_bands as f64);
    summary.push("intersect16_nary_band_merges", nary_bands as f64);
    summary.push("crossing_scan_ops", crossing_scan_ops as f64);

    // ---- Solver-style subtract chain over a trapezoid soup ----------------
    // The solver's refinement as one op: a 16-disk intersection, then 24
    // disk subtractions, each re-budgeted as the solver does. Every
    // subtraction sweeps the estimate's soup of trapezoids, internal
    // horizontal edges included.
    let (chain_disks, bites) = octant_bench::subtract_chain_operands();
    let subtract_chain = || {
        let mut estimate = Region::intersect_many(chain_disks.iter()).into_region();
        for bite in &bites {
            estimate = estimate.subtract(bite).simplify_to_budget(0.25, 4096);
        }
        estimate
    };
    let before = stats::thread_band_merges();
    let before_scans = stats::thread_crossing_scan_ops();
    let chain_result = subtract_chain();
    let chain_bands = stats::thread_band_merges() - before;
    let chain_scans = stats::thread_crossing_scan_ops() - before_scans;
    let chain_ops = ops_per_sec(iters, subtract_chain);
    println!(
        "# soup subtract chain : {chain_ops:>10.1} ops/s  ({} rings out, {chain_bands} band merges, {chain_scans} crossing scan ops)",
        chain_result.ring_count()
    );
    summary.push("soup_subtract_ops_per_sec", chain_ops);
    summary.push("soup_subtract_crossing_scan_ops", chain_scans as f64);
    summary.push("soup_subtract_band_merges", chain_bands as f64);

    // ---- Contour extraction from router-like trapezoid soup ----------------
    let soup = router_region();
    let banded = BandedRegion::from_region(&soup);
    let contours = banded.extract_contours();
    let contour_area = BandedRegion::contour_area(&contours);
    let rel_err = (contour_area - banded.area()).abs() / banded.area().max(1.0);
    assert!(
        rel_err <= 1e-9,
        "contour area must match the bands within 1e-9 (got {rel_err:.2e})"
    );
    assert!(
        contours.len() < soup.ring_count(),
        "contours ({}) must merge the trapezoid soup ({} rings)",
        contours.len(),
        soup.ring_count()
    );
    let extract_ops = ops_per_sec(iters, || {
        BandedRegion::from_region(&soup).extract_contours()
    });
    println!(
        "# contour extraction  : {extract_ops:>10.1} ops/s  ({} soup rings -> {} contours)",
        soup.ring_count(),
        contours.len()
    );
    summary.push("contour_extract_ops_per_sec", extract_ops);
    summary.push("contour_soup_rings", soup.ring_count() as f64);
    summary.push("contour_rings", contours.len() as f64);
    summary.push("contour_area_rel_err", rel_err);

    let contoured_ops = ops_per_sec(iters, || soup.dilate_with_contours(&contours, 300.0));
    let contoured = soup.dilate_with_contours(&contours, 300.0);
    let fast = soup.dilate(300.0);
    let rel = (contoured.area() - fast.area()).abs() / fast.area();
    assert!(
        rel < 0.02,
        "contoured dilation diverges from the fast dispatch by {rel}"
    );
    println!("# dilate via contours : {contoured_ops:>10.1} ops/s  (r=300, {rel:.2e} area delta)");
    summary.push("dilate_contoured_r300_ops_per_sec", contoured_ops);

    // ---- Dilation: fast dispatch vs capsule reference, 3 radius classes ----
    let region = router_region();
    for radius in [60.0f64, 300.0, 900.0] {
        let fast = region.dilate(radius);
        let reference = region.dilate_reference(radius);
        let rel = (fast.area() - reference.area()).abs() / reference.area();
        assert!(
            rel < 0.02,
            "dilate({radius}) diverges from the reference by {rel}"
        );
        let fast_ops = ops_per_sec(iters, || region.dilate(radius));
        let ref_iters = (iters / 2).max(2);
        let ref_ops = ops_per_sec(ref_iters, || region.dilate_reference(radius));
        let label = format!("dilate_r{radius:.0}");
        println!(
            "# {label:<20}: {fast_ops:>10.1} ops/s fast, {ref_ops:>8.1} ops/s reference ({:.2}x)",
            fast_ops / ref_ops
        );
        summary.push(format!("{label}_ops_per_sec"), fast_ops);
        summary.push(format!("{label}_reference_ops_per_sec"), ref_ops);
        summary.push(format!("{label}_speedup"), fast_ops / ref_ops);
    }

    // ---- Landmass-style union of disjoint outlines -------------------------
    let lands = outlines();
    let chained_union = |lands: &[Region]| {
        let mut acc = lands[0].clone();
        for l in &lands[1..] {
            acc = acc.union(l);
        }
        acc
    };
    let union_chained_ops = ops_per_sec(iters, || chained_union(&lands));
    let union_nary_ops = ops_per_sec(iters, || Region::union_many(lands.iter()));
    println!("# union7 chained      : {union_chained_ops:>10.1} ops/s");
    println!("# union7 n-ary        : {union_nary_ops:>10.1} ops/s");
    summary.push("union7_chained_ops_per_sec", union_chained_ops);
    summary.push("union7_nary_ops_per_sec", union_nary_ops);
    summary.push("union7_speedup", union_nary_ops / union_chained_ops);

    // ---- Disk construction at three constraint radii -----------------------
    // Every solve builds one disk per landmark measurement, so the cost per
    // flattened vertex is the unit the flattening and cleaning paths are
    // judged by.
    let builds = if smoke { 2_000 } else { 20_000 };
    for radius in [60.0f64, 1_000.0, 6_000.0] {
        let center = Vec2::new(120.0, -80.0);
        let vertices = Region::disk(center, radius).vertex_count();
        let start = Instant::now();
        for _ in 0..builds {
            std::hint::black_box(Region::disk(std::hint::black_box(center), radius));
        }
        let ns_per_vertex = start.elapsed().as_nanos() as f64 / (builds * vertices) as f64;
        let label = format!("disk_r{radius:.0}");
        println!("# {label:<20}: {ns_per_vertex:>10.1} ns/vertex  ({vertices} vertices)");
        summary.push(format!("{label}_ns_per_vertex"), ns_per_vertex);
        summary.push(format!("{label}_vertices"), vertices as f64);
    }

    // ---- Walk tallies over the whole bench run -----------------------------
    // Thread-cumulative counters: how the intersection-walking dilation
    // merge fared. The walk must have engaged — a bench run where every
    // dilation fell back to the sweep means the fast path regressed.
    let (walk_unions, walk_fallbacks) = stats::thread_walk_counts();
    assert!(
        walk_unions > 0,
        "the intersection-walking dilation merge never engaged"
    );
    println!("# walk outcomes       : {walk_unions} walk unions, {walk_fallbacks} fallbacks");
    summary.push("walk_unions", walk_unions as f64);
    summary.push("walk_fallbacks", walk_fallbacks as f64);

    if let Some(path) = json_path {
        summary
            .write_json(&path)
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        println!("# wrote {}", path.display());
    }
}
