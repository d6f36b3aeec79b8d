//! Microbenchmarks of the Bézier-region engine (supports the paper's claim
//! that boolean operations on region estimates are cheap — "solution times
//! under a few seconds" end to end).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use octant_region::{Region, Vec2};

fn disks(n: usize) -> Vec<Region> {
    (0..n)
        .map(|i| {
            let angle = i as f64 * 0.7;
            let center = Vec2::new(angle.cos() * 200.0, angle.sin() * 200.0);
            Region::disk(center, 600.0 + 40.0 * (i % 5) as f64)
        })
        .collect()
}

fn bench_region_ops(c: &mut Criterion) {
    let a = Region::disk(Vec2::new(0.0, 0.0), 800.0);
    let b = Region::disk(Vec2::new(500.0, 200.0), 700.0);

    c.bench_function("region/intersect_two_disks", |bench| {
        bench.iter(|| black_box(a.intersect(&b)))
    });
    c.bench_function("region/union_two_disks", |bench| {
        bench.iter(|| black_box(a.union(&b)))
    });
    c.bench_function("region/subtract_two_disks", |bench| {
        bench.iter(|| black_box(a.subtract(&b)))
    });

    // The shape of a full positive-constraint combination: intersect 20
    // disks — the chained pairwise reference against the single n-ary sweep.
    let twenty = disks(20);
    c.bench_function("region/intersect_20_constraint_disks", |bench| {
        bench.iter(|| {
            let mut acc = twenty[0].clone();
            for d in &twenty[1..] {
                acc = acc.intersect(d);
            }
            black_box(acc)
        })
    });
    c.bench_function("region/intersect_many_20_constraint_disks", |bench| {
        bench.iter(|| black_box(Region::intersect_many(twenty.iter()).into_region()))
    });

    // Secondary-landmark constraint: dilate a small region (the disk
    // specialization) and a trapezoid-decomposed router region (the general
    // hierarchical path), against the capsule reference.
    let small = Region::disk(Vec2::new(0.0, 0.0), 80.0);
    c.bench_function("region/dilate_router_region_300km", |bench| {
        bench.iter(|| black_box(small.dilate(300.0)))
    });
    c.bench_function("region/dilate_router_region_300km_reference", |bench| {
        bench.iter(|| black_box(small.dilate_reference(300.0)))
    });
    // Same fixture as `router_region()` in `src/bin/region.rs` (the perf
    // guard); keep the two in lockstep so their numbers stay comparable.
    let decomposed = Region::disk(Vec2::new(0.0, 0.0), 140.0)
        .intersect(&Region::disk(Vec2::new(110.0, 20.0), 130.0))
        .subtract(&Region::disk(Vec2::new(40.0, -60.0), 70.0));
    c.bench_function("region/dilate_decomposed_region_300km", |bench| {
        bench.iter(|| black_box(decomposed.dilate(300.0)))
    });

    // The landmass-union shape: mostly disjoint outlines, one sweep.
    let continents: Vec<Region> = (0..7)
        .map(|i| {
            let c = Vec2::new(i as f64 * 2600.0 - 9000.0, (i % 3) as f64 * 1800.0);
            Region::disk(c, 900.0)
        })
        .collect();
    c.bench_function("region/union_many_7_outlines", |bench| {
        bench.iter(|| black_box(Region::union_many(continents.iter())))
    });

    // Membership and area queries on a non-trivial estimate.
    let estimate = {
        let mut acc = twenty[0].clone();
        for d in &twenty[1..] {
            acc = acc.intersect(d);
        }
        acc.subtract(&Region::disk(Vec2::new(100.0, 0.0), 120.0))
    };
    c.bench_function("region/contains_query", |bench| {
        bench.iter(|| black_box(estimate.contains(Vec2::new(50.0, 50.0))))
    });
    c.bench_function("region/area_and_centroid", |bench| {
        bench.iter(|| black_box((estimate.area(), estimate.centroid())))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_region_ops
}
criterion_main!(benches);
