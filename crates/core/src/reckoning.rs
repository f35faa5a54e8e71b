//! Motion reckoning primitives (paper §4.4): turning alignment delays into
//! speed, heading, rotation and integrated trajectories.

use rim_dsp::geom::{Point2, Vec2};
use rim_dsp::stats::wrap_angle;

/// Speed from a *fractional* (sub-sample refined) alignment delay.
/// Returns `None` when the delay magnitude is below half a sample (the
/// implied speed would be unresolvable).
pub fn speed_from_frac_lag(
    separation_m: f64,
    lag_samples: f64,
    sample_rate_hz: f64,
) -> Option<f64> {
    if lag_samples.abs() < 0.5 || !lag_samples.is_finite() {
        return None;
    }
    Some(separation_m * sample_rate_hz / lag_samples.abs())
}

/// Device-frame heading from a fractional delay's sign.
pub fn heading_from_frac_lag(pair_direction: f64, lag_samples: f64) -> Option<f64> {
    if lag_samples.abs() < 0.5 || !lag_samples.is_finite() {
        return None;
    }
    if lag_samples > 0.0 {
        Some(wrap_angle(pair_direction))
    } else {
        Some(wrap_angle(pair_direction + std::f64::consts::PI))
    }
}

/// Signed angular rate from a fractional ring-pair delay.
pub fn angular_rate_from_frac_lag(
    arc_separation_m: f64,
    radius_m: f64,
    lag_samples: f64,
    sample_rate_hz: f64,
) -> Option<f64> {
    if lag_samples.abs() < 0.5 || !lag_samples.is_finite() || radius_m <= 0.0 {
        return None;
    }
    Some(arc_separation_m * sample_rate_hz / lag_samples / radius_m)
}

/// Integrates a per-sample speed series into travelled distance, counting
/// only samples flagged as moving. `d = ∫ v dτ` (§4.4 (1)).
pub fn integrate_distance(speed_mps: &[f64], moving: &[bool], sample_rate_hz: f64) -> f64 {
    assert_eq!(speed_mps.len(), moving.len(), "series must align");
    let dt = 1.0 / sample_rate_hz;
    speed_mps
        .iter()
        .zip(moving)
        .filter(|(v, &m)| m && v.is_finite())
        .map(|(v, _)| v * dt)
        .sum()
}

/// Fraction of a series that carries a finite value — the
/// alignment-coverage ratio behind [`crate::pipeline::Confidence`]
/// (per-sample estimates use `NaN` for "unresolved"). Empty series
/// cover nothing.
pub fn fraction_finite(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().filter(|v| v.is_finite()).count() as f64 / xs.len() as f64
}

/// Integrates per-sample speed and *world-frame* heading into a position
/// track starting at `start`. Samples with no heading hold position.
pub fn integrate_trajectory(
    speed_mps: &[f64],
    heading_world: &[Option<f64>],
    sample_rate_hz: f64,
    start: Point2,
) -> Vec<Point2> {
    assert_eq!(speed_mps.len(), heading_world.len(), "series must align");
    let dt = 1.0 / sample_rate_hz;
    let mut pos = start;
    let mut out = Vec::with_capacity(speed_mps.len());
    for (&v, h) in speed_mps.iter().zip(heading_world) {
        if let Some(theta) = h {
            if v.is_finite() && v > 0.0 {
                pos += Vec2::from_angle(*theta) * (v * dt);
            }
        }
        out.push(pos);
    }
    out
}

/// The theoretical maximum deviation angle tolerated by virtual antenna
/// alignment: `α_max = arcsin(δ / Δd)` with ambiguity-free TRRS peak width
/// `δ ≈ 0.2 λ` (paper §3.2, "Deviated retracing") — ≈24° at Δd = λ/2.
pub fn max_deviation_angle(wavelength_m: f64, separation_m: f64) -> f64 {
    let ratio = (0.2 * wavelength_m / separation_m).clamp(-1.0, 1.0);
    ratio.asin()
}

/// The distance overestimation factor `1 / cos α` caused by approximating
/// the deviated separation `Δd·cos α` with `Δd` (§3.2).
pub fn deviation_overestimate(alpha: f64) -> f64 {
    1.0 / alpha.cos()
}

/// Mean distance overestimate over uniformly distributed headings for an
/// array with angular resolution `resolution` (deviations spread over
/// `±resolution/2`): 1.20 % for the hexagonal array's 30° (paper §3.2).
pub fn mean_deviation_overestimate(resolution: f64) -> f64 {
    // Average of 1/cos α over α ∈ [-res/2, res/2]:
    // (1/res)·∫ dα/cos α = ln|sec α + tan α| / α evaluated at res/2.
    let a = resolution / 2.0;
    if a <= 0.0 {
        return 1.0;
    }
    ((1.0 / a.cos() + a.tan()).ln()) / a
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn fraction_finite_counts_nan_as_uncovered() {
        assert_eq!(fraction_finite(&[]), 0.0);
        assert_eq!(fraction_finite(&[1.0, 2.0]), 1.0);
        let half = fraction_finite(&[1.0, f64::NAN, f64::INFINITY, 0.0]);
        assert!((half - 0.5).abs() < 1e-12, "{half}");
    }

    #[test]
    fn speed_basic() {
        // Δd = 2.58 cm retraced in 5 samples at 200 Hz → ~1.03 m/s.
        let v = speed_from_frac_lag(0.0258, 5.0, 200.0).unwrap();
        assert!((v - 1.032).abs() < 1e-3);
        // Negative lag gives the same magnitude.
        assert_eq!(
            speed_from_frac_lag(0.0258, -5.0, 200.0),
            speed_from_frac_lag(0.0258, 5.0, 200.0)
        );
        // Under half a sample, or no delay at all, is unresolvable.
        for lag in [0.0, 0.49, -0.49, f64::NAN] {
            assert_eq!(speed_from_frac_lag(0.0258, lag, 200.0), None, "{lag}");
        }
    }

    #[test]
    fn heading_follows_lag_sign() {
        assert_eq!(heading_from_frac_lag(0.3, 4.0), Some(0.3));
        let back = heading_from_frac_lag(0.3, -4.0).unwrap();
        assert!((back - wrap_angle(0.3 + PI)).abs() < 1e-12);
        assert_eq!(heading_from_frac_lag(0.3, 0.0), None);
    }

    #[test]
    fn angular_rate_sign_and_magnitude() {
        // Hexagon: r = Δd = λ/2, arc = π/3·Δd. 10-sample delay at 200 Hz.
        let d = 0.0258;
        let arc = std::f64::consts::FRAC_PI_3 * d;
        let w = angular_rate_from_frac_lag(arc, d, 10.0, 200.0).unwrap();
        // v = arc·200/10; ω = v / r = π/3·200/10 ≈ 20.9 rad/s.
        assert!((w - std::f64::consts::FRAC_PI_3 * 20.0).abs() < 1e-9);
        let w_cw = angular_rate_from_frac_lag(arc, d, -10.0, 200.0).unwrap();
        assert!((w + w_cw).abs() < 1e-12, "opposite lag, opposite sign");
        assert_eq!(angular_rate_from_frac_lag(arc, d, 0.0, 200.0), None);
        assert_eq!(angular_rate_from_frac_lag(arc, 0.0, 5.0, 200.0), None);
    }

    #[test]
    fn distance_integration_gates_on_movement() {
        let speed = vec![1.0; 100];
        let mut moving = vec![true; 100];
        for m in moving.iter_mut().skip(50) {
            *m = false;
        }
        let d = integrate_distance(&speed, &moving, 100.0);
        assert!((d - 0.5).abs() < 1e-12, "only the moving half counts");
    }

    #[test]
    fn distance_ignores_nan() {
        let speed = vec![1.0, f64::NAN, 1.0];
        let moving = vec![true, true, true];
        let d = integrate_distance(&speed, &moving, 1.0);
        assert!((d - 2.0).abs() < 1e-12);
    }

    #[test]
    fn trajectory_integration_square() {
        // 1 m east then 1 m north at 1 m/s, 100 Hz.
        let n = 100;
        let mut speed = vec![1.0; 2 * n];
        speed[0] = 0.0; // first sample has no displacement yet
        let mut heading: Vec<Option<f64>> = vec![Some(0.0); n];
        heading.extend(vec![Some(FRAC_PI_2); n]);
        let track = integrate_trajectory(&speed, &heading, 100.0, Point2::ORIGIN);
        let end = *track.last().unwrap();
        assert!((end.x - 0.99).abs() < 0.02, "{end:?}");
        assert!((end.y - 1.0).abs() < 0.02, "{end:?}");
    }

    #[test]
    fn trajectory_holds_without_heading() {
        let speed = vec![1.0; 10];
        let heading = vec![None; 10];
        let track = integrate_trajectory(&speed, &heading, 10.0, Point2::new(2.0, 3.0));
        assert!(track
            .iter()
            .all(|p| p.distance(Point2::new(2.0, 3.0)) < 1e-12));
    }

    #[test]
    fn deviation_angles_match_paper() {
        // δ = 0.2λ, Δd = λ/2 → α_max = arcsin(0.4) ≈ 23.6° (paper: "approximately 24°").
        let lambda = 0.0517;
        let a = max_deviation_angle(lambda, lambda / 2.0);
        assert!((a.to_degrees() - 23.58).abs() < 0.1, "{}", a.to_degrees());
        // Worst-case overestimate at 15°: 3.53 % (paper §3.2).
        let worst = deviation_overestimate(15f64.to_radians());
        assert!(((worst - 1.0) * 100.0 - 3.53).abs() < 0.02, "{worst}");
        // Mean over ±15°: 1.20 % (paper §3.2).
        let mean = mean_deviation_overestimate(30f64.to_radians());
        assert!(((mean - 1.0) * 100.0 - 1.15).abs() < 0.1, "{mean}");
    }

    #[test]
    #[should_panic(expected = "align")]
    fn mismatched_lengths_panic() {
        let _ = integrate_distance(&[1.0], &[true, false], 1.0);
    }
}
