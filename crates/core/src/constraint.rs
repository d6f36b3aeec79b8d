//! Constraints and their weights (§2, §2.4).
//!
//! A constraint is a region of the globe in which the target is believed to
//! reside (positive) or believed *not* to reside (negative), together with a
//! weight expressing the strength of that belief. Latency-derived constraints
//! get weights that decay exponentially with the measured latency, because
//! distant landmarks' measurements are empirically less trustworthy (§2.4).

use octant_geo::units::Latency;
use octant_region::GeoRegion;

/// Whether a constraint asserts presence or absence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstraintKind {
    /// The target lies inside the region.
    Positive,
    /// The target lies outside the region.
    Negative,
}

/// A weighted geographic constraint on the target's position.
#[derive(Debug, Clone)]
pub struct Constraint {
    /// Positive or negative.
    pub kind: ConstraintKind,
    /// The region the constraint refers to.
    pub region: GeoRegion,
    /// Strength of the belief; higher weights are applied first and win
    /// conflicts.
    pub weight: f64,
    /// Human-readable provenance (landmark hostname, "whois", "landmass", …)
    /// for diagnostics.
    pub label: String,
}

impl Constraint {
    /// A positive constraint.
    pub fn positive(region: GeoRegion, weight: f64, label: impl Into<String>) -> Self {
        Constraint {
            kind: ConstraintKind::Positive,
            region,
            weight: sanitize(weight),
            label: label.into(),
        }
    }

    /// A negative constraint.
    pub fn negative(region: GeoRegion, weight: f64, label: impl Into<String>) -> Self {
        Constraint {
            kind: ConstraintKind::Negative,
            region,
            weight: sanitize(weight),
            label: label.into(),
        }
    }

    /// `true` for positive constraints.
    pub fn is_positive(&self) -> bool {
        self.kind == ConstraintKind::Positive
    }
}

fn sanitize(weight: f64) -> f64 {
    if weight.is_finite() {
        weight.max(0.0)
    } else {
        0.0
    }
}

/// Clamps a weight to the valid range (finite, non-negative). Used by the
/// evidence pipeline when applying per-source weight scales.
pub(crate) fn sanitize_weight(weight: f64) -> f64 {
    sanitize(weight)
}

/// The decay constant (ms) of the exponential latency weighting — the
/// single place the paper's §2.4 weighting constant lives.
pub const DEFAULT_WEIGHT_DECAY_MS: f64 = 80.0;

/// The exponential latency weighting of §2.4: `exp(-latency / decay)`.
/// Nearby landmarks (small latency) approach weight 1, far landmarks decay
/// towards 0 and lose conflicts against nearby ones.
pub fn latency_weight(latency: Latency, decay_ms: f64) -> f64 {
    let decay = decay_ms.max(1e-6);
    (-latency.ms() / decay).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use octant_geo::point::GeoPoint;
    use octant_geo::projection::AzimuthalEquidistant;
    use octant_geo::units::Distance;

    fn disk(radius_km: f64) -> GeoRegion {
        let c = GeoPoint::new(40.0, -75.0);
        GeoRegion::disk(
            AzimuthalEquidistant::new(c),
            c,
            Distance::from_km(radius_km),
        )
    }

    #[test]
    fn constructors_set_kind_and_sanitize_weight() {
        let p = Constraint::positive(disk(100.0), 0.7, "landmark a");
        assert!(p.is_positive());
        assert_eq!(p.kind, ConstraintKind::Positive);
        assert_eq!(p.weight, 0.7);
        assert_eq!(p.label, "landmark a");

        let n = Constraint::negative(disk(50.0), -3.0, "landmark b");
        assert!(!n.is_positive());
        assert_eq!(n.weight, 0.0, "negative weights are clamped");

        let nan = Constraint::positive(disk(10.0), f64::NAN, "broken");
        assert_eq!(nan.weight, 0.0);
    }

    #[test]
    fn latency_weight_decays_monotonically() {
        let decay = DEFAULT_WEIGHT_DECAY_MS;
        let w0 = latency_weight(Latency::ZERO, decay);
        let w1 = latency_weight(Latency::from_ms(40.0), decay);
        let w2 = latency_weight(Latency::from_ms(80.0), decay);
        let w3 = latency_weight(Latency::from_ms(400.0), decay);
        assert!((w0 - 1.0).abs() < 1e-12);
        assert!(w0 > w1 && w1 > w2 && w2 > w3);
        assert!((w2 - (-1.0f64).exp()).abs() < 1e-12);
        assert!(w3 < 0.01);
    }

    #[test]
    fn latency_weight_handles_degenerate_decay() {
        let w = latency_weight(Latency::from_ms(10.0), 0.0);
        assert!(w.is_finite());
        assert!((0.0..=1.0).contains(&w));
    }
}
