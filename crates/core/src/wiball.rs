//! WiBall-style single-antenna speed estimation (paper §7, "Incorporating
//! existing techniques such as WiBall \[46\], which is based on TRRS as
//! well, may offer (less accurate) distance estimation in arbitrary
//! directions, without the need of a 3D array").
//!
//! In a rich scattering field the spatial autocorrelation of the channel
//! follows `J₀(2πd/λ)`, so the *self*-TRRS of one moving antenna decays
//! with travelled distance `d` in a known shape regardless of direction.
//! Measuring how many samples the TRRS needs to fall to the `J₀` first
//! zero gives speed from a single antenna — no retracing geometry at all.
//! It is less accurate than RIM's virtual antenna alignment (the decay
//! shape is statistical, not a sharp alignment peak) but works for any
//! motion direction, including out-of-plane; the ablation harness
//! compares the two.

use crate::trrs::{trrs_massive, NormSnapshot};

/// The first zero of `J₀(x)` is at x ≈ 2.4048, so the self-TRRS
/// (amplitude correlation squared) first vanishes at
/// `d₀ = 2.4048·λ/(2π) ≈ 0.3827·λ`.
pub const J0_FIRST_ZERO_DISTANCE_WAVELENGTHS: f64 = 2.404_825 / std::f64::consts::TAU;

/// Configuration of the WiBall-style estimator.
#[derive(Debug, Clone, Copy)]
pub struct WiballConfig {
    /// Carrier wavelength, metres.
    pub wavelength: f64,
    /// Virtual-massive block length for the self-TRRS.
    pub virtual_antennas: usize,
    /// Maximum TRRS the first valley may have: a genuine `J₀` zero dips
    /// well below the static value of ≈1, so a "minimum" above this is
    /// treated as no-motion.
    pub max_valley_level: f64,
    /// Minimum drop from the lag-1 TRRS down to the valley. A genuine
    /// `J₀` zero sits far below the adjacent-sample correlation, while a
    /// static antenna's noise plateau is flat — its wiggles can cross
    /// `max_valley_level` when the SNR puts the plateau near that line,
    /// but they never have contrast.
    pub min_valley_contrast: f64,
    /// Maximum lag searched, samples.
    pub max_lag: usize,
}

impl WiballConfig {
    /// Defaults for a sample rate at 5.8 GHz.
    pub fn for_sample_rate(sample_rate_hz: f64) -> Self {
        Self {
            wavelength: 299_792_458.0 / 5.8e9,
            virtual_antennas: ((0.1 * sample_rate_hz).round() as usize).clamp(3, 30),
            max_valley_level: 0.8,
            min_valley_contrast: 0.1,
            max_lag: ((0.5 * sample_rate_hz).round() as usize).max(8),
        }
    }
}

/// Instantaneous speed at sample `t` from one antenna's self-TRRS decay.
///
/// Against a finite-bandwidth floor the `J₀` first zero appears as the
/// curve's *first local minimum* rather than a zero crossing, so we locate
/// that valley (with parabolic sub-sample refinement) and map its lag to
/// the theoretical distance `d₀ ≈ 0.383 λ`. Returns `None` when no valley
/// exists within the search window (static or too slow).
pub fn speed_at(
    series: &[NormSnapshot],
    t: usize,
    config: &WiballConfig,
    sample_rate_hz: f64,
) -> Option<f64> {
    let d0 = J0_FIRST_ZERO_DISTANCE_WAVELENGTHS * config.wavelength;
    let max_lag = config.max_lag.min(t);
    if max_lag < 3 {
        return None;
    }
    let curve: Vec<f64> = (0..=max_lag)
        .map(|lag| trrs_massive(series, series, t, t - lag, config.virtual_antennas))
        .collect();
    // First local minimum after the initial descent.
    for lag in 2..max_lag {
        if curve[lag] <= curve[lag - 1] && curve[lag] < curve[lag + 1] {
            if curve[lag] > config.max_valley_level {
                return None; // Shallow wiggle near 1: not a J₀ zero.
            }
            if curve[1] - curve[lag] < config.min_valley_contrast {
                return None; // Flat noise plateau, not a J₀ descent.
            }
            // Parabolic refinement of the valley position.
            let g_m = curve[lag - 1];
            let g_0 = curve[lag];
            let g_p = curve[lag + 1];
            let denom = g_m - 2.0 * g_0 + g_p;
            let delta = if denom > 1e-12 {
                (0.5 * (g_m - g_p) / denom).clamp(-0.5, 0.5)
            } else {
                0.0
            };
            let lag_f = lag as f64 + delta;
            return Some(d0 * sample_rate_hz / lag_f);
        }
    }
    None
}

/// Per-sample speed series (NaN where unresolvable) from one antenna.
pub fn speed_series(
    series: &[NormSnapshot],
    config: &WiballConfig,
    sample_rate_hz: f64,
) -> Vec<f64> {
    (0..series.len())
        .map(|t| speed_at(series, t, config, sample_rate_hz).unwrap_or(f64::NAN))
        .collect()
}

/// Distance over a range by integrating the speed series, bridging
/// unresolved samples with the last known speed.
pub fn integrate_distance(speeds: &[f64], sample_rate_hz: f64) -> f64 {
    let dt = 1.0 / sample_rate_hz;
    let mut last = 0.0;
    let mut total = 0.0;
    for &v in speeds {
        let use_v = if v.is_finite() { v } else { last };
        total += use_v * dt;
        if v.is_finite() {
            last = v;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use rim_array::HALF_WAVELENGTH;
    use rim_channel::simulator::{ApConfig, ChannelSimulator};
    use rim_channel::trajectory::{dwell, line, OrientationMode};
    use rim_channel::{uniform_field, Floorplan, RayTracer, SubcarrierLayout, TracerConfig};
    use rim_csi::recorder::{CsiRecorder, DeviceConfig, RecorderConfig};
    use rim_dsp::geom::{Point2, Vec2};

    fn sim() -> ChannelSimulator {
        let scat = uniform_field(
            Point2::new(-12.0, -12.0),
            Point2::new(12.0, 12.0),
            120,
            0.35,
            5,
        );
        let tracer = RayTracer::new(
            Floorplan::empty(),
            scat,
            Vec::new(),
            TracerConfig::default(),
        );
        ChannelSimulator::new(
            tracer,
            SubcarrierLayout::ht40_5ghz(),
            ApConfig::standard(Point2::new(-6.0, 0.0)),
        )
    }

    fn record_single_antenna(traj: &rim_channel::Trajectory) -> Vec<NormSnapshot> {
        let s = sim();
        let dense = CsiRecorder::new(
            &s,
            DeviceConfig::single_nic(vec![Vec2::ZERO]),
            RecorderConfig::default(),
        )
        .record(traj)
        .interpolated()
        .unwrap();
        NormSnapshot::series(&dense.antennas[0])
    }

    #[test]
    fn estimates_speed_scale_from_one_antenna() {
        let fs = 200.0;
        let traj = line(
            Point2::new(0.0, 2.0),
            0.35, // arbitrary direction — WiBall does not care
            1.0,
            1.0,
            fs,
            OrientationMode::FollowPath,
        );
        let series = record_single_antenna(&traj);
        let cfg = WiballConfig::for_sample_rate(fs);
        let speeds = speed_series(&series, &cfg, fs);
        let valid: Vec<f64> = speeds[40..160]
            .iter()
            .copied()
            .filter(|v| v.is_finite())
            .collect();
        assert!(valid.len() > 60, "mostly resolvable: {}", valid.len());
        let med = rim_dsp::stats::median(&valid);
        // Decimeter-class accuracy (the paper calls WiBall "less accurate").
        assert!((med - 1.0).abs() < 0.45, "median speed {med} vs 1.0 m/s");
    }

    #[test]
    fn static_antenna_gives_no_speed() {
        let fs = 200.0;
        let traj = dwell(Point2::new(0.5, 1.5), 0.0, 0.8, fs);
        let series = record_single_antenna(&traj);
        let cfg = WiballConfig::for_sample_rate(fs);
        let speeds = speed_series(&series, &cfg, fs);
        let resolved = speeds.iter().filter(|v| v.is_finite()).count();
        assert!(
            resolved < speeds.len() / 10,
            "static: almost nothing resolves ({resolved}/{})",
            speeds.len()
        );
    }

    #[test]
    fn integrate_bridges_gaps() {
        let v = [f64::NAN, 1.0, f64::NAN, 1.0, f64::NAN];
        let d = integrate_distance(&v, 1.0);
        // 0 (no last) + 1 + 1 (bridge) + 1 + 1 (bridge) = 4.
        assert!((d - 4.0).abs() < 1e-12);
    }

    #[test]
    fn collapse_distance_constant_matches_theory() {
        let d0 = J0_FIRST_ZERO_DISTANCE_WAVELENGTHS;
        assert!((d0 - 0.3827).abs() < 1e-3, "{d0}");
        let lambda = 2.0 * HALF_WAVELENGTH;
        assert!((d0 * lambda - 0.0198).abs() < 3e-4, "≈2 cm at 5.8 GHz");
    }
}
