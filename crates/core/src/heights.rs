//! Queuing-delay ("height") estimation (§2.2).
//!
//! Latency measurements include an inelastic component — last-mile and
//! processing delays — that has nothing to do with geographic distance.
//! Octant captures each node's minimum queuing delay in a single scalar, its
//! *height*, in the spirit of Vivaldi's height vectors but derived
//! differently: landmark heights are solved directly from the inter-landmark
//! measurements (whose mutual distances are known), and a target's height is
//! estimated together with a coarse position by minimising the residual of
//! the height-adjusted measurements.
//!
//! Adjusted latencies (`raw RTT − landmark height − target height`) are then
//! used everywhere a latency is mapped to a distance, which removes a
//! systematic positive bias from the constraints.
//!
//! # Why the sparse normal equations are bit-identical
//!
//! Each observed pair `(i, j)` is a row with a 1 in columns `i` and `j`.
//! [`Heights::solve_landmarks`] accumulates AᵀA and Aᵀb straight from the
//! rows in row-major pair order and equals the dense `Aᵀ·A`, `Aᵀ·b` bit for
//! bit: every AᵀA entry is a count of rows, exact in `f64` in any order;
//! every Aᵀb entry adds the same non-negative queuing terms in the same row
//! order, which the dense product only interleaves with `0 · b = +0` terms
//! that change no sum. The dense construction survives as the tests'
//! oracle.

use crate::linalg::{solve_square, Matrix};
use octant_geo::distance::HaversinePoint;
use octant_geo::point::GeoPoint;
use octant_geo::units::{Distance, Latency};

/// A row-major `n × n` matrix over ordered landmark pairs: cell `(i, j)`
/// belongs to the pair from landmark `i` to landmark `j`. Row-major order is
/// the order the heights solve adds its rows in.
#[derive(Debug, Clone, PartialEq)]
pub struct PairMatrix<T> {
    n: usize,
    cells: Vec<T>,
}

impl<T: Copy> PairMatrix<T> {
    /// Builds the matrix from `cell(i, j)`, called in row-major order.
    pub fn from_fn(n: usize, mut cell: impl FnMut(usize, usize) -> T) -> Self {
        let mut cells = Vec::with_capacity(n * n);
        for i in 0..n {
            for j in 0..n {
                cells.push(cell(i, j));
            }
        }
        PairMatrix { n, cells }
    }

    /// The number of landmarks (rows, and columns).
    pub fn landmarks(&self) -> usize {
        self.n
    }

    /// Cell `(i, j)`.
    pub fn get(&self, i: usize, j: usize) -> T {
        self.cells[i * self.n + j]
    }

    /// Every cell in row-major order.
    pub fn cells(&self) -> &[T] {
        &self.cells
    }
}

impl PairMatrix<Distance> {
    /// The great-circle distance of every ordered pair of `positions`
    /// (zero on the diagonal), each position prepared once: cell `(i, j)`
    /// is `great_circle(positions[i], positions[j])` bit for bit.
    pub fn great_circle(positions: &[GeoPoint]) -> Self {
        let prepared: Vec<HaversinePoint> =
            positions.iter().map(|&p| HaversinePoint::new(p)).collect();
        PairMatrix::from_fn(positions.len(), |i, j| {
            if i == j {
                Distance::from_km(0.0)
            } else {
                Distance::from_km(prepared[i].distance_km(&prepared[j]))
            }
        })
    }
}

/// Heights (minimum attributable queuing delay, in milliseconds) for a set of
/// landmarks, keyed by an opaque landmark index chosen by the caller.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Heights {
    values_ms: Vec<f64>,
}

impl Heights {
    /// Solves the landmark-height system from pairwise observations.
    ///
    /// `rtt` holds the minimum observed RTT from landmark `i` to landmark
    /// `j` and `distance` the great-circle distance between their
    /// (approximately) known locations ([`PairMatrix::great_circle`]).
    /// Missing pairs and the diagonal are skipped. With fewer than two
    /// usable pairs all heights are zero.
    ///
    /// The rows are added in row-major pair order: the solve is sensitive
    /// to row order in its floating-point rounding, and a fixed order makes
    /// the heights — and everything derived from them — bit-reproducible,
    /// in particular between the batch engine's shared landmark model and a
    /// per-target sequential solve.
    pub fn solve_landmarks(
        rtt: &PairMatrix<Option<Latency>>,
        distance: &PairMatrix<Distance>,
    ) -> Heights {
        let n = rtt.landmarks();
        debug_assert_eq!(distance.landmarks(), n);
        if n == 0 {
            return Heights {
                values_ms: Vec::new(),
            };
        }
        // Each observation is the row `h_i + h_j = queuing`; accumulate the
        // normal equations AᵀA·h = Aᵀb straight from those rows.
        let mut ata = Matrix::zeros(n, n);
        let mut atb = vec![0.0; n];
        let mut rows = 0usize;
        for (cell, lat) in rtt.cells().iter().enumerate() {
            let (i, j) = (cell / n, cell % n);
            let Some(lat) = lat.filter(|_| i != j) else {
                continue;
            };
            let transmission = distance.get(i, j).min_rtt_over_fiber();
            let queuing = (lat.ms() - transmission.ms()).max(0.0);
            ata[(i, i)] += 1.0;
            ata[(j, j)] += 1.0;
            ata[(i, j)] += 1.0;
            ata[(j, i)] += 1.0;
            atb[i] += queuing;
            atb[j] += queuing;
            rows += 1;
        }
        if rows < 2 {
            return Heights {
                values_ms: vec![0.0; n],
            };
        }
        for i in 0..n {
            // Ridge: a landmark with no usable pair leaves it solvable.
            ata[(i, i)] += 1e-9;
        }
        let mut values = solve_square(&ata, &atb).unwrap_or_else(|| vec![0.0; n]);
        for v in &mut values {
            if !v.is_finite() || *v < 0.0 {
                *v = 0.0;
            }
        }
        Heights { values_ms: values }
    }

    /// The height of landmark `i`, in milliseconds (zero for unknown
    /// indices).
    pub fn get_ms(&self, i: usize) -> f64 {
        self.values_ms.get(i).copied().unwrap_or(0.0)
    }

    /// Number of landmarks covered.
    pub fn len(&self) -> usize {
        self.values_ms.len()
    }

    /// `true` when no landmark heights are known.
    pub fn is_empty(&self) -> bool {
        self.values_ms.is_empty()
    }

    /// All heights in milliseconds.
    pub fn as_slice(&self) -> &[f64] {
        &self.values_ms
    }
}

/// The result of estimating a target's height.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TargetHeight {
    /// Estimated target height in milliseconds.
    pub height_ms: f64,
    /// The coarse position estimate produced as a by-product (the paper notes
    /// it "has relatively high error and is not used in the later stages" —
    /// it exists for diagnostics and for the Vivaldi-style comparison).
    pub coarse_position: GeoPoint,
    /// Root-mean-square residual of the fit, in milliseconds.
    pub residual_ms: f64,
}

/// Estimates a target's height from its measurements to landmarks with known
/// heights, per §2.2: find the height `t'` and coarse coordinates minimising
/// the residual of `a' + t' + (a,t) = [a,t]` over all landmarks `a`.
///
/// The minimisation alternates between (a) a grid-refined position search and
/// (b) the closed-form optimal `t'` for a fixed position (the mean positive
/// residual). Both steps are deterministic.
///
/// The grid search measures hundreds of candidates against every landmark,
/// so each landmark is prepared once ([`HaversinePoint`]), one residual
/// buffer serves every candidate, and each landmark's haversine latitude
/// terms are kept per grid row and its longitude terms per grid column;
/// distances stay `great_circle`'s bits.
pub fn estimate_target_height(
    landmark_positions: &[GeoPoint],
    landmark_heights: &Heights,
    target_rtts: &[Option<Latency>],
) -> TargetHeight {
    // Collect usable observations.
    let obs: Vec<Observation> = landmark_positions
        .iter()
        .zip(target_rtts.iter())
        .enumerate()
        .filter_map(|(i, (&pos, rtt))| {
            rtt.map(|r| Observation {
                pos,
                site: HaversinePoint::new(pos),
                rtt_ms: r.ms(),
                excess_ms: r.ms() - landmark_heights.get_ms(i),
            })
        })
        .collect();
    if obs.is_empty() {
        return TargetHeight {
            height_ms: 0.0,
            coarse_position: GeoPoint::new(0.0, 0.0),
            residual_ms: 0.0,
        };
    }
    let mut residuals = Vec::with_capacity(obs.len());

    // Initial position: landmarks weighted by inverse squared latency.
    let mut best = weighted_centroid(&obs);
    residuals_at(best, &obs, &mut residuals);
    let mut best_cost = cost_of(&mut residuals).0;

    // Coarse-to-fine grid search around the current best position.
    const STEPS: i32 = 7;
    let mut terms = GridTerms::new(obs.len(), 2 * STEPS as usize + 1);
    let mut span_deg = 20.0;
    for _ in 0..5 {
        let mut improved = false;
        for dy in -STEPS..=STEPS {
            for (column, dx) in (-STEPS..=STEPS).enumerate() {
                let cand = GeoPoint::new(
                    best.lat + span_deg * dy as f64 / STEPS as f64,
                    best.lon + span_deg * dx as f64 / STEPS as f64,
                );
                terms.residuals(cand, column, &obs, &mut residuals);
                let (cost, _) = cost_of(&mut residuals);
                if cost < best_cost {
                    best_cost = cost;
                    best = cand;
                    improved = true;
                }
            }
        }
        span_deg /= 3.0;
        if !improved && span_deg < 0.5 {
            break;
        }
    }

    residuals_at(best, &obs, &mut residuals);
    let (_, height) = cost_of(&mut residuals);
    let at = HaversinePoint::new(best);
    let rms = (obs
        .iter()
        .map(|o| {
            let r = o.excess_ms - height - transmission_ms(at.distance_km(&o.site));
            r * r
        })
        .sum::<f64>()
        / obs.len() as f64)
        .sqrt();
    TargetHeight {
        height_ms: height,
        coarse_position: best,
        residual_ms: rms,
    }
}

/// Adjusts a raw RTT by removing the landmark's and target's heights, never
/// going below zero.
pub fn adjust_rtt(raw: Latency, landmark_height_ms: f64, target_height_ms: f64) -> Latency {
    Latency::from_ms((raw.ms() - landmark_height_ms - target_height_ms).max(0.0))
}

/// One usable target measurement of [`estimate_target_height`]: the
/// landmark's position (also prepared for the haversine), the target's
/// minimum RTT to it, and that RTT less the landmark's height.
struct Observation {
    pos: GeoPoint,
    site: HaversinePoint,
    rtt_ms: f64,
    excess_ms: f64,
}

/// `Distance::from_km(km).min_rtt_over_fiber()` in milliseconds.
fn transmission_ms(km: f64) -> f64 {
    Distance::from_km(km).min_rtt_over_fiber().ms()
}

/// Fills `residuals` with each landmark's residual for a target at
/// `candidate`: `rtt − landmark height − transmission`.
fn residuals_at(candidate: GeoPoint, obs: &[Observation], residuals: &mut Vec<f64>) {
    let at = HaversinePoint::new(candidate);
    residuals.clear();
    residuals.extend(
        obs.iter()
            .map(|o| o.excess_ms - transmission_ms(at.distance_km(&o.site))),
    );
}

/// Every landmark's haversine terms for the grid candidates of
/// [`estimate_target_height`]. A candidate's latitude changes only from row
/// to row and its longitude only from column to column, so the latitude
/// terms are kept for one latitude and the longitude terms for one
/// longitude per column.
///
/// The slots are keyed by the candidate's coordinate bits rather than by
/// grid position: `best` can move mid-pass, which shifts every later
/// candidate, and `GeoPoint::new` clamps the latitude and wraps the
/// longitude independently, so a coordinate's bits are exactly what its
/// terms depend on.
struct GridTerms {
    lat_key: Option<u64>,
    lat: Vec<f64>,
    lon_keys: Vec<Option<u64>>,
    /// Column `k`'s terms at `k * landmarks..(k + 1) * landmarks`.
    lon: Vec<f64>,
}

impl GridTerms {
    fn new(landmarks: usize, columns: usize) -> Self {
        GridTerms {
            lat_key: None,
            lat: vec![0.0; landmarks],
            lon_keys: vec![None; columns],
            lon: vec![0.0; landmarks * columns],
        }
    }

    /// [`residuals_at`] for a candidate in grid column `column`, refreshing
    /// the terms whose key moved.
    fn residuals(
        &mut self,
        candidate: GeoPoint,
        column: usize,
        obs: &[Observation],
        residuals: &mut Vec<f64>,
    ) {
        let at = HaversinePoint::new(candidate);
        let lat_key = Some(candidate.lat.to_bits());
        if self.lat_key != lat_key {
            self.lat_key = lat_key;
            for (term, o) in self.lat.iter_mut().zip(obs) {
                *term = at.lat_term(&o.site);
            }
        }
        let lon = &mut self.lon[column * obs.len()..(column + 1) * obs.len()];
        let lon_key = Some(candidate.lon.to_bits());
        if self.lon_keys[column] != lon_key {
            self.lon_keys[column] = lon_key;
            for (term, o) in lon.iter_mut().zip(obs) {
                *term = at.lon_term(&o.site);
            }
        }
        residuals.clear();
        residuals.extend(
            obs.iter()
                .zip(&self.lat)
                .zip(&*lon)
                .map(|((o, &lat), &lon)| {
                    o.excess_ms - transmission_ms(at.distance_from_terms(&o.site, lat, lon))
                }),
        );
    }
}

/// Picks the height that explains one candidate's residuals and returns
/// (sum of squared residuals with that height, height). Sorts `residuals`.
///
/// The residual of each landmark is `rtt − landmark height − transmission`,
/// which still contains that path's route inflation. A mean estimator would
/// absorb the *average* inflation into the target height and over-correct
/// every subsequent constraint, so the height is taken from the lower
/// quartile of the residuals: the least-inflated paths are the ones whose
/// residual is closest to the pure queuing component.
fn cost_of(residuals: &mut [f64]) -> (f64, f64) {
    // The full sort, not a selection: the cost below is summed in sorted
    // order, and that order fixes its rounding. An unstable sort leaves the
    // same sequence: keys that compare equal are bit-equal or ±0.0, and
    // either zero squares to +0.0 in the sum and clamps to +0.0 as the
    // height.
    residuals.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let q25 = residuals[(residuals.len() - 1) / 4];
    let height = q25.max(0.0);
    let cost = residuals
        .iter()
        .map(|r| (r - height) * (r - height))
        .sum::<f64>();
    (cost, height)
}

fn weighted_centroid(obs: &[Observation]) -> GeoPoint {
    let mut sum = [0.0f64; 3];
    let mut total = 0.0;
    for o in obs {
        let w = 1.0 / (o.rtt_ms * o.rtt_ms).max(1e-6);
        let v = o.pos.to_unit_vector();
        sum[0] += v[0] * w;
        sum[1] += v[1] * w;
        sum[2] += v[2] * w;
        total += w;
    }
    if total <= 0.0 {
        return obs[0].pos;
    }
    GeoPoint::from_vector(sum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::dense;
    use octant_geo::cities;
    use octant_geo::distance::{great_circle, great_circle_km};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The dense construction of [`Heights::solve_landmarks`]: one explicit
    /// row per observation, each pair measured with `great_circle`, then
    /// `dense::solve_least_squares`.
    fn dense_heights(positions: &[GeoPoint], rtt: &PairMatrix<Option<Latency>>) -> Heights {
        let n = positions.len();
        if n == 0 {
            return Heights::default();
        }
        let mut rows: Vec<Vec<f64>> = Vec::new();
        let mut rhs: Vec<f64> = Vec::new();
        for (i, j) in (0..n).flat_map(|i| (0..n).map(move |j| (i, j))) {
            let Some(lat) = rtt.get(i, j).filter(|_| i != j) else {
                continue;
            };
            let transmission = great_circle(positions[i], positions[j]).min_rtt_over_fiber();
            let mut row = vec![0.0; n];
            row[i] = 1.0;
            row[j] = 1.0;
            rows.push(row);
            rhs.push((lat.ms() - transmission.ms()).max(0.0));
        }
        if rows.len() < 2 {
            return Heights {
                values_ms: vec![0.0; n],
            };
        }
        let a = dense::from_rows(&rows);
        let mut values = dense::solve_least_squares(&a, &rhs).unwrap_or_else(|| vec![0.0; n]);
        for v in &mut values {
            if !v.is_finite() || *v < 0.0 {
                *v = 0.0;
            }
        }
        Heights { values_ms: values }
    }

    /// [`estimate_target_height`] as first written: every candidate calls
    /// [`great_circle`] per landmark and collects a fresh residual vector.
    fn reference_target_height(
        landmark_positions: &[GeoPoint],
        landmark_heights: &Heights,
        target_rtts: &[Option<Latency>],
    ) -> TargetHeight {
        fn cost_at(candidate: GeoPoint, obs: &[(GeoPoint, f64, f64)]) -> (f64, f64) {
            let mut residuals: Vec<f64> = obs
                .iter()
                .map(|&(pos, h, rtt)| {
                    let trans = great_circle(candidate, pos).min_rtt_over_fiber().ms();
                    rtt - h - trans
                })
                .collect();
            residuals.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            let height = residuals[(residuals.len() - 1) / 4].max(0.0);
            let cost = residuals
                .iter()
                .map(|r| (r - height) * (r - height))
                .sum::<f64>();
            (cost, height)
        }
        let obs: Vec<(GeoPoint, f64, f64)> = landmark_positions
            .iter()
            .zip(target_rtts.iter())
            .enumerate()
            .filter_map(|(i, (&pos, rtt))| rtt.map(|r| (pos, landmark_heights.get_ms(i), r.ms())))
            .collect();
        if obs.is_empty() {
            return TargetHeight {
                height_ms: 0.0,
                coarse_position: GeoPoint::new(0.0, 0.0),
                residual_ms: 0.0,
            };
        }
        let mut sum = [0.0f64; 3];
        let mut total = 0.0;
        for &(pos, _, rtt) in &obs {
            let w = 1.0 / (rtt * rtt).max(1e-6);
            let v = pos.to_unit_vector();
            sum[0] += v[0] * w;
            sum[1] += v[1] * w;
            sum[2] += v[2] * w;
            total += w;
        }
        let mut best = if total <= 0.0 {
            obs[0].0
        } else {
            GeoPoint::from_vector(sum)
        };
        let mut best_cost = cost_at(best, &obs).0;
        let mut span_deg = 20.0;
        for _ in 0..5 {
            let steps = 7;
            let mut improved = false;
            for dy in -steps..=steps {
                for dx in -steps..=steps {
                    let cand = GeoPoint::new(
                        best.lat + span_deg * dy as f64 / steps as f64,
                        best.lon + span_deg * dx as f64 / steps as f64,
                    );
                    let (cost, _) = cost_at(cand, &obs);
                    if cost < best_cost {
                        best_cost = cost;
                        best = cand;
                        improved = true;
                    }
                }
            }
            span_deg /= 3.0;
            if !improved && span_deg < 0.5 {
                break;
            }
        }
        let (_, height) = cost_at(best, &obs);
        let residuals: Vec<f64> = obs
            .iter()
            .map(|&(pos, h, rtt)| {
                let trans = great_circle(best, pos).min_rtt_over_fiber().ms();
                rtt - h - height - trans
            })
            .collect();
        let rms = (residuals.iter().map(|r| r * r).sum::<f64>() / residuals.len() as f64).sqrt();
        TargetHeight {
            height_ms: height,
            coarse_position: best,
            residual_ms: rms,
        }
    }

    fn height_bits(h: &Heights) -> Vec<u64> {
        h.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    fn target_bits(t: &TargetHeight) -> [u64; 4] {
        [
            t.height_ms.to_bits(),
            t.coarse_position.lat.to_bits(),
            t.coarse_position.lon.to_bits(),
            t.residual_ms.to_bits(),
        ]
    }

    /// `n` landmarks scattered around `(lat, lon)` within `spread` degrees.
    fn scattered(rng: &mut StdRng, n: usize, lat: f64, lon: f64, spread: f64) -> Vec<GeoPoint> {
        (0..n)
            .map(|_| {
                GeoPoint::new(
                    lat + rng.gen_range(-spread..spread),
                    lon + rng.gen_range(-spread..spread),
                )
            })
            .collect()
    }

    /// [`Heights::solve_landmarks`] over `positions`' distances.
    fn solve(positions: &[GeoPoint], rtt: &PairMatrix<Option<Latency>>) -> Heights {
        Heights::solve_landmarks(rtt, &PairMatrix::great_circle(positions))
    }

    /// Inter-landmark RTTs over fiber plus per-node heights and inflation
    /// noise, with some pairs missing altogether and some observed one way
    /// only.
    fn seeded_rtts(rng: &mut StdRng, positions: &[GeoPoint]) -> PairMatrix<Option<Latency>> {
        let heights: Vec<f64> = positions.iter().map(|_| rng.gen_range(0.0..6.0)).collect();
        let n = positions.len();
        let mut cells = vec![None; n * n];
        for i in 0..n {
            for j in (i + 1)..positions.len() {
                let trans = great_circle(positions[i], positions[j])
                    .min_rtt_over_fiber()
                    .ms();
                let rtt = |rng: &mut StdRng| {
                    let inflation = 1.0 + rng.gen_range(0.0..0.8);
                    Latency::from_ms(trans * inflation + heights[i] + heights[j])
                };
                // 0: pair missing; 1 and 2: one direction only; else both.
                let shape = rng.gen_range(0..10u32);
                if shape == 1 || shape > 2 {
                    cells[i * n + j] = Some(rtt(rng));
                }
                if shape >= 2 {
                    cells[j * n + i] = Some(rtt(rng));
                }
            }
        }
        PairMatrix::from_fn(n, |i, j| cells[i * n + j])
    }

    #[test]
    fn sparse_normal_equations_match_the_dense_solve_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(0x4E16);
        for (case, &(n, lat, lon, spread)) in [
            (2, 40.0, -90.0, 10.0),
            (3, 40.0, -90.0, 10.0),
            (12, 45.0, 10.0, 15.0),
            (40, 38.0, -95.0, 25.0),
            (65, 20.0, 0.0, 60.0),
        ]
        .iter()
        .enumerate()
        {
            for round in 0..3 {
                let positions = scattered(&mut rng, n, lat, lon, spread);
                let seeded = seeded_rtts(&mut rng, &positions);
                // Self pairs are skipped by both solves.
                let rtt = PairMatrix::from_fn(n, |i, j| {
                    if (i, j) == (0, 0) {
                        Some(Latency::from_ms(1.0))
                    } else {
                        seeded.get(i, j)
                    }
                });
                let distance = PairMatrix::great_circle(&positions);
                for (i, j) in (0..n).flat_map(|i| (0..n).map(move |j| (i, j))) {
                    let literal = great_circle(positions[i], positions[j]).km();
                    assert_eq!(distance.get(i, j).km().to_bits(), literal.to_bits());
                }
                let sparse = Heights::solve_landmarks(&rtt, &distance);
                let dense = dense_heights(&positions, &rtt);
                assert_eq!(
                    height_bits(&sparse),
                    height_bits(&dense),
                    "case {case} round {round}: {} landmarks",
                    n
                );
            }
        }
        // A landmark with no usable pair at all: both solves lean on the ridge.
        let positions = positions();
        let all = synthetic_rtts(&positions, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let rtt = PairMatrix::from_fn(6, |i, j| all.get(i, j).filter(|_| i != 5 && j != 5));
        assert_eq!(
            height_bits(&solve(&positions, &rtt)),
            height_bits(&dense_heights(&positions, &rtt))
        );
    }

    #[test]
    fn target_height_matches_the_reference_search_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(0x7A26);
        // Landmarks spread over a continent, straddling the antimeridian
        // (longitude wrap at ±180°), and near the pole (the grid clamps
        // candidate latitudes at ±90°).
        let layouts = [
            (38.0, -95.0, 20.0),
            (0.0, 179.0, 8.0),
            (-20.0, -178.0, 12.0),
            (86.0, 30.0, 4.0),
            (-84.0, -120.0, 6.0),
        ];
        for (case, &(lat, lon, spread)) in layouts.iter().enumerate() {
            for round in 0..3 {
                let n = rng.gen_range(3..30usize);
                let positions = scattered(&mut rng, n, lat, lon, spread);
                let rtt = seeded_rtts(&mut rng, &positions);
                let heights = solve(&positions, &rtt);
                let target = GeoPoint::new(
                    lat + rng.gen_range(-spread..spread),
                    lon + rng.gen_range(-spread..spread),
                );
                let target_rtts: Vec<Option<Latency>> = positions
                    .iter()
                    .map(|&p| {
                        (!rng.gen_bool(0.15)).then(|| {
                            let trans = great_circle(target, p).min_rtt_over_fiber().ms();
                            Latency::from_ms(trans * rng.gen_range(1.0..1.6) + 3.0)
                        })
                    })
                    .collect();
                let fast = estimate_target_height(&positions, &heights, &target_rtts);
                let reference = reference_target_height(&positions, &heights, &target_rtts);
                assert_eq!(
                    target_bits(&fast),
                    target_bits(&reference),
                    "case {case} round {round}: {fast:?} vs {reference:?}"
                );
            }
        }
        // No usable measurement at all.
        let none = vec![None; 4];
        let positions = scattered(&mut rng, 4, 0.0, 0.0, 1.0);
        assert_eq!(
            target_bits(&estimate_target_height(
                &positions,
                &Heights::default(),
                &none
            )),
            target_bits(&reference_target_height(
                &positions,
                &Heights::default(),
                &none
            ))
        );
    }

    fn positions() -> Vec<GeoPoint> {
        ["nyc", "chi", "den", "sea", "atl", "bos"]
            .iter()
            .map(|c| cities::by_code(c).unwrap().location())
            .collect()
    }

    /// Builds an RTT matrix from positions and per-node heights with no
    /// noise.
    fn synthetic_rtts(positions: &[GeoPoint], heights: &[f64]) -> PairMatrix<Option<Latency>> {
        PairMatrix::from_fn(positions.len(), |i, j| {
            (i != j).then(|| {
                let trans = great_circle(positions[i], positions[j])
                    .min_rtt_over_fiber()
                    .ms();
                Latency::from_ms(trans + heights[i] + heights[j])
            })
        })
    }

    #[test]
    fn landmark_heights_are_recovered_exactly_without_noise() {
        let pos = positions();
        let true_heights = [2.0, 5.0, 1.0, 8.0, 3.0, 0.5];
        let rtts = synthetic_rtts(&pos, &true_heights);
        let solved = solve(&pos, &rtts);
        assert_eq!(solved.len(), pos.len());
        for (i, &truth) in true_heights.iter().enumerate() {
            assert!(
                (solved.get_ms(i) - truth).abs() < 0.05,
                "height {i}: solved {} vs true {truth}",
                solved.get_ms(i)
            );
        }
    }

    #[test]
    fn landmark_heights_tolerate_noise_and_stay_nonnegative() {
        let pos = positions();
        let true_heights = [2.0, 5.0, 1.0, 8.0, 3.0, 0.0];
        let exact = synthetic_rtts(&pos, &true_heights);
        // Perturb every measurement by a deterministic pseudo-noise.
        let rtts = PairMatrix::from_fn(pos.len(), |i, j| {
            let bump = ((i * 7 + j * 13) % 5) as f64 * 0.3;
            exact.get(i, j).map(|v| Latency::from_ms(v.ms() + bump))
        });
        let solved = solve(&pos, &rtts);
        for (i, &truth) in true_heights.iter().enumerate() {
            assert!(solved.get_ms(i) >= 0.0);
            assert!(
                (solved.get_ms(i) - truth).abs() < 1.5,
                "height {i}: {} vs {truth}",
                solved.get_ms(i)
            );
        }
    }

    #[test]
    fn degenerate_height_systems() {
        let empty = solve(&[], &PairMatrix::from_fn(0, |_, _| None));
        assert!(empty.is_empty());
        assert_eq!(empty.get_ms(3), 0.0);

        let pos = positions();
        let too_few = solve(&pos, &PairMatrix::from_fn(pos.len(), |_, _| None));
        assert_eq!(too_few.len(), pos.len());
        assert!(too_few.as_slice().iter().all(|&h| h == 0.0));
    }

    #[test]
    fn target_height_recovers_synthetic_target() {
        let pos = positions();
        let true_heights = [2.0, 5.0, 1.0, 8.0, 3.0, 0.5];
        let rtts = synthetic_rtts(&pos, &true_heights);
        let heights = solve(&pos, &rtts);

        // A target in Pittsburgh with a 6 ms last-mile delay.
        let target = cities::by_code("pit").unwrap().location();
        let target_height = 6.0;
        let target_rtts: Vec<Option<Latency>> = pos
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let trans = great_circle(target, p).min_rtt_over_fiber().ms();
                Some(Latency::from_ms(trans + true_heights[i] + target_height))
            })
            .collect();

        let est = estimate_target_height(&pos, &heights, &target_rtts);
        assert!(
            (est.height_ms - target_height).abs() < 1.5,
            "estimated height {}",
            est.height_ms
        );
        // The coarse position should land within a few hundred km of Pittsburgh.
        let err = great_circle_km(est.coarse_position, target);
        assert!(err < 500.0, "coarse position error {err} km");
        assert!(est.residual_ms < 2.0, "residual {}", est.residual_ms);
    }

    #[test]
    fn target_height_with_missing_measurements() {
        let pos = positions();
        let heights = solve(&pos, &synthetic_rtts(&pos, &[1.0; 6]));
        let mut target_rtts: Vec<Option<Latency>> = vec![None; pos.len()];
        target_rtts[0] = Some(Latency::from_ms(20.0));
        target_rtts[2] = Some(Latency::from_ms(30.0));
        let est = estimate_target_height(&pos, &heights, &target_rtts);
        assert!(est.height_ms >= 0.0);
        assert!(est.coarse_position.is_valid());
        // With no measurements at all the estimate degrades gracefully.
        let none = estimate_target_height(&pos, &heights, &vec![None; pos.len()]);
        assert_eq!(none.height_ms, 0.0);
    }

    #[test]
    fn rtt_adjustment_clamps_at_zero() {
        let adjusted = adjust_rtt(Latency::from_ms(30.0), 4.0, 6.0);
        assert!((adjusted.ms() - 20.0).abs() < 1e-9);
        assert_eq!(adjust_rtt(Latency::from_ms(5.0), 4.0, 6.0), Latency::ZERO);
    }

    #[test]
    fn paper_example_three_landmark_system() {
        // The 3x3 system shown in §2.2 of the paper: heights are solvable
        // exactly from the three pairwise queuing observations.
        let pos = vec![
            cities::by_code("nyc").unwrap().location(),
            cities::by_code("chi").unwrap().location(),
            cities::by_code("den").unwrap().location(),
        ];
        let truth = [4.0, 1.0, 2.5];
        let rtts = synthetic_rtts(&pos, &truth);
        let h = solve(&pos, &rtts);
        for (i, &t) in truth.iter().enumerate() {
            assert!((h.get_ms(i) - t).abs() < 0.05);
        }
    }
}
