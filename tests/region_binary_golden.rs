//! Golden pin of the two-operand boolean ops' output bits.
//!
//! `Region::{union, intersect, subtract, xor}` and the raw sweep
//! (`scanline::boolean_op` over two operands) run on seeded inputs of three
//! kinds:
//!
//! * a solver-style soup: 16 disks intersected one at a time, then 8 disks
//!   subtracted one at a time;
//! * strips of abutting rectangles of different heights and bottoms, whose
//!   shared vertical edges tie in x at the band midlines, and whose tied
//!   edges start at different heights (so ordering them by arena index and
//!   by `min_y` rank disagree);
//! * holed regions from `Region::from_rings_even_odd`, and their raw
//!   even-odd ring sets.
//!
//! Every call folds its output ring count, every output vertex's
//! coordinate bits and the call's `thread_band_merges` delta into an FNV-1a
//! digest. The constants were captured by running this test against the
//! dedicated two-operand band loop that preceded the single n-ary sweep, so
//! a pass means every binary op still produces the same bits and merges the
//! same bands.
//!
//! A fourth digest pins disk construction (`Region::disk` and
//! `Region::disk_with_tolerance`: Bézier flattening, ring cleaning and the
//! convexity flag) over seeded disks. Its constant was captured with the
//! recursive flattening and the `f64::hypot` distance tests that preceded
//! the iterative flattening and the squared-distance decisions.
//!
//! A fifth digest pins a solver-style subtract chain whose soup has
//! horizontal edges on y = 0. Its constant was captured with the sweep
//! that still sorted its segments twice (comparator sorts), scanned every
//! pair of a horizontal first segment and rebuilt every compacted quad.

use octant_region::scanline::{boolean_op, stats, BoolOp};
use octant_region::{Region, Ring, Vec2};

const OPS: [BoolOp; 4] = [
    BoolOp::Union,
    BoolOp::Intersection,
    BoolOp::Difference,
    BoolOp::Xor,
];

/// The raw sweep over two operands.
fn sweep(a: &[Ring], b: &[Ring], op: BoolOp) -> Vec<Ring> {
    boolean_op(&[a, b], op)
}

/// An FNV-1a digest over little-endian `u64` words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn rings(&mut self, rings: &[Ring]) {
        self.word(rings.len() as u64);
        for ring in rings {
            self.word(ring.len() as u64);
            for p in ring.points() {
                self.word(p.x.to_bits());
                self.word(p.y.to_bits());
            }
        }
    }

    /// Runs a raw sweep, folding its band-merge delta and its rings in.
    fn sweep(&mut self, f: impl FnOnce() -> Vec<Ring>) {
        let before = stats::thread_band_merges();
        let rings = f();
        self.word(stats::thread_band_merges() - before);
        self.rings(&rings);
    }

    /// Runs a `Region` op, folding its band-merge delta and its rings in.
    fn region(&mut self, f: impl FnOnce() -> Region) -> Region {
        let before = stats::thread_band_merges();
        let region = f();
        self.word(stats::thread_band_merges() - before);
        self.rings(region.rings());
        region
    }
}

/// A seeded linear congruential generator yielding uniform `[0, 1)`.
struct Lcg(u64);

impl Lcg {
    fn unit(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Folds all four ops on `(a, b)` into `region` (through `Region`) and
/// `raw` (through the raw sweep on the same rings).
fn all_ops(region: &mut Digest, raw: &mut Digest, a: &Region, b: &Region) {
    for (op, f) in [
        (
            BoolOp::Union,
            Region::union as fn(&Region, &Region) -> Region,
        ),
        (BoolOp::Intersection, Region::intersect),
        (BoolOp::Difference, Region::subtract),
        (BoolOp::Xor, Region::xor),
    ] {
        region.region(|| f(a, b));
        raw.sweep(|| sweep(a.rings(), b.rings(), op));
    }
}

#[test]
fn solver_style_soup_ops_keep_their_bits() {
    let mut rng = Lcg(0x0c7a_4701);
    let (mut region, mut raw) = (Digest::new(), Digest::new());
    let disks: Vec<Region> = (0..16)
        .map(|i| {
            let a = i as f64 * 0.7 + 0.1 * rng.unit();
            let c = Vec2::new(a.cos() * 200.0, a.sin() * 200.0);
            Region::disk(c, 600.0 + 40.0 * (i % 5) as f64 + 25.0 * rng.unit())
        })
        .collect();
    let mut estimate = disks[0].clone();
    for disk in &disks[1..] {
        all_ops(&mut region, &mut raw, &estimate, disk);
        estimate = estimate.intersect(disk);
    }
    for i in 0..8 {
        let a = i as f64 * 2.3 + 0.2 * rng.unit();
        let bite = Region::disk(
            Vec2::new(a.cos() * 350.0, a.sin() * 300.0),
            120.0 + 25.0 * (i % 3) as f64 + 10.0 * rng.unit(),
        );
        all_ops(&mut region, &mut raw, &estimate, &bite);
        estimate = estimate.subtract(&bite);
    }
    assert!(estimate.ring_count() > 16, "the estimate must be a soup");
    assert_eq!(
        (region.0, raw.0),
        (0x99e1_543e_d918_b68c, 0x99e1_543e_d918_b68c),
        "soup digests (Region, raw sweep)"
    );
}

/// Rectangles `[x0 + 40k, x0 + 40(k+1)] × [bottom_k, top_k]` side by side,
/// each sharing its vertical edges with its neighbours.
fn strip(rng: &mut Lcg, x0: f64, count: usize) -> Vec<Ring> {
    (0..count)
        .map(|k| {
            let x = x0 + 40.0 * k as f64;
            let bottom = (rng.unit() * 6.0).floor() * 10.0;
            let top = 90.0 + (rng.unit() * 6.0).floor() * 15.0;
            Ring::rectangle(Vec2::new(x, bottom), Vec2::new(x + 40.0, top))
        })
        .collect()
}

#[test]
fn abutting_rectangle_strips_keep_their_bits() {
    let mut rng = Lcg(0x5791_95ee);
    let (mut region, mut raw) = (Digest::new(), Digest::new());
    for _ in 0..4 {
        let a = strip(&mut rng, 0.0, 7);
        let b = strip(&mut rng, 20.0, 6);
        for op in OPS {
            raw.sweep(|| sweep(&a, &b, op));
        }
        let ra = region.region(|| Region::from_rings_even_odd(a.clone()));
        let rb = region.region(|| Region::from_rings_even_odd(b.clone()));
        all_ops(&mut region, &mut raw, &ra, &rb);
    }
    assert_eq!(
        (region.0, raw.0),
        (0xb918_5d94_bff9_7569, 0x1fda_9217_722c_add1),
        "strip digests (Region, raw sweep)"
    );
}

/// An outer polygon with `holes` polygon holes, as raw even-odd rings.
fn holed_rings(rng: &mut Lcg, center: Vec2, holes: usize) -> Vec<Ring> {
    let radius = 300.0 + 60.0 * rng.unit();
    let mut rings = vec![Ring::regular_polygon(center, radius, 48)];
    for h in 0..holes {
        let a = h as f64 * std::f64::consts::TAU / holes as f64 + rng.unit();
        let c = center + Vec2::new(a.cos(), a.sin()) * (radius * 0.45);
        rings.push(Ring::regular_polygon(
            c,
            radius * (0.15 + 0.1 * rng.unit()),
            24,
        ));
    }
    rings
}

#[test]
fn holed_regions_keep_their_bits() {
    let mut rng = Lcg(0x401e_d123);
    let (mut region, mut raw) = (Digest::new(), Digest::new());
    for i in 0..4 {
        let a = holed_rings(&mut rng, Vec2::new(0.0, 0.0), 2 + i % 2);
        let offset = 180.0 + 40.0 * rng.unit();
        let b = holed_rings(&mut rng, Vec2::new(offset, 90.0), 3);
        for op in OPS {
            raw.sweep(|| sweep(&a, &b, op));
        }
        let ra = region.region(|| Region::from_rings_even_odd(a.clone()));
        let rb = region.region(|| Region::from_rings_even_odd(b.clone()));
        all_ops(&mut region, &mut raw, &ra, &rb);
    }
    assert_eq!(
        (region.0, raw.0),
        (0x7327_e8ab_2796_1fdb, 0x88b8_a511_4fd6_9901),
        "holed digests (Region, raw sweep)"
    );
}

/// The solver's estimate refinement as one chain
/// (`octant_bench::subtract_chain_operands`): a 16-disk
/// `Region::intersect_many(..).into_region()`, then 24 disk subtractions,
/// each followed by `simplify_to_budget(0.25, 4096)` as the solver
/// re-budgets its estimate. Every step folds its band-merge delta, ring
/// count and vertex bits into the digest.
#[test]
fn solver_subtract_chain_keeps_its_bits() {
    let (disks, bites) = octant_bench::subtract_chain_operands();
    let mut digest = Digest::new();
    let mut estimate = digest.region(|| Region::intersect_many(disks.iter()).into_region());
    let on_axis = |r: &Ring| r.points().iter().any(|p| p.y == 0.0);
    let mut steps_with_axis_vertices = 0;
    for bite in &bites {
        estimate = digest.region(|| estimate.subtract(bite).simplify_to_budget(0.25, 4096));
        steps_with_axis_vertices += estimate.rings().iter().any(on_axis) as usize;
    }
    assert!(estimate.ring_count() > 16, "the estimate must be a soup");
    assert!(
        steps_with_axis_vertices > 0,
        "the chain must leave horizontal edges on y = 0"
    );
    assert_eq!(digest.0, 0xceb3_e36a_9294_874c, "subtract-chain digest");
}

/// Seeded disks across the scales constraint disks take: radii from 0.5
/// to 20,000 km (log-uniform), centres up to ±2·10⁴ km from the origin,
/// at the default flattening tolerance and at tolerances from 10⁻⁶ to
/// 10 km (log-uniform; `Region::disk_with_tolerance` floors them at
/// 10⁻⁴ of the radius). Every disk folds its rings' vertex bits, each
/// ring's convexity flag and the region's area bits into the digest, so
/// the constant pins Bézier flattening, ring cleaning and convexity
/// together.
#[test]
fn flattened_disks_keep_their_bits() {
    let mut rng = Lcg(0xd15c_0b17);
    let mut digest = Digest::new();
    for i in 0..4_000 {
        let radius = 0.5 * 40_000f64.powf(rng.unit());
        let center = Vec2::new(
            (2.0 * rng.unit() - 1.0) * 2e4,
            (2.0 * rng.unit() - 1.0) * 2e4,
        );
        let tolerance = 1e-6 * 1e7f64.powf(rng.unit());
        let disk = if i % 2 == 0 {
            Region::disk(center, radius)
        } else {
            Region::disk_with_tolerance(center, radius, tolerance)
        };
        digest.rings(disk.rings());
        for ring in disk.rings() {
            digest.word(ring.is_convex() as u64);
        }
        digest.word(disk.area().to_bits());
    }
    assert_eq!(digest.0, 0x3a0c_b312_2cb6_5124, "disk digest");
}
