//! Benchmarks of the Figure 2 machinery: building a landmark's convex-hull
//! calibration from peer measurements and querying the derived bounds, plus
//! the height (queuing delay) solve of §2.2.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use octant::calibration::{Calibration, CalibrationConfig, CalibrationSample};
use octant::heights::{Heights, PairMatrix};
use octant_geo::sites;
use octant_geo::units::{Distance, Latency};

fn synthetic_samples(n: usize) -> Vec<CalibrationSample> {
    (1..=n)
        .map(|i| {
            let latency = Latency::from_ms(i as f64 * 2.0);
            let distance = Distance::from_km(i as f64 * 2.0 * (55.0 + (i % 7) as f64 * 8.0));
            CalibrationSample { latency, distance }
        })
        .collect()
}

fn bench_calibration(c: &mut Criterion) {
    let samples = synthetic_samples(50);
    c.bench_function("calibration/build_from_50_peers", |b| {
        b.iter(|| {
            black_box(Calibration::from_samples(
                samples.clone(),
                CalibrationConfig::default(),
            ))
        })
    });

    let cal = Calibration::from_samples(samples, CalibrationConfig::default());
    c.bench_function("calibration/query_bounds", |b| {
        b.iter(|| {
            let rtt = Latency::from_ms(37.0);
            black_box((cal.max_distance(rtt), cal.min_distance(rtt)))
        })
    });

    // Height solve over the 51-site landmark set (the §2.2 least squares).
    let positions: Vec<_> = sites::planetlab_51().iter().map(|s| s.location()).collect();
    let distance = PairMatrix::great_circle(&positions);
    let rtts = PairMatrix::from_fn(positions.len(), |i, j| {
        (i != j).then(|| {
            let base = distance.get(i, j).min_rtt_over_fiber().ms();
            Latency::from_ms(base + 2.0 + (i % 5) as f64 + (j % 3) as f64)
        })
    });
    c.bench_function("heights/solve_51_landmarks", |b| {
        b.iter(|| black_box(Heights::solve_landmarks(&rtts, &distance)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_calibration
}
criterion_main!(benches);
