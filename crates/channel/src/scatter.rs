//! Point scatterer fields.
//!
//! Indoor channels at 5 GHz contain tens of significant multipath
//! components arriving from diverse directions (paper §6.2.8 cites \[8\]).
//! Beyond the specular wall reflections handled by the image method, we
//! model the diffuse part as a field of point scatterers (furniture,
//! shelves, people at rest), each re-radiating with a fixed complex gain.
//! A *dynamic* scatterer drifts along a slow path, standing in for walking
//! humans when reproducing the environmental-dynamics robustness results.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rim_dsp::complex::Complex64;
use rim_dsp::geom::{Point2, Vec2};

/// A static point scatterer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scatterer {
    /// Scatterer position, metres.
    pub pos: Point2,
    /// Complex re-radiation gain (dimensionless; applied on top of the
    /// two-leg path loss).
    pub gain: Complex64,
}

/// A scatterer that moves over time — used to emulate walking humans and
/// other environmental dynamics (paper §6.2.8).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynamicScatterer {
    /// Position at `t = 0`.
    pub start: Point2,
    /// Constant drift velocity, m/s.
    pub velocity: Vec2,
    /// Complex re-radiation gain.
    pub gain: Complex64,
}

impl DynamicScatterer {
    /// Position at time `t` seconds.
    pub fn pos_at(&self, t: f64) -> Point2 {
        self.start + self.velocity * t
    }
}

/// Generates `count` static scatterers uniformly over the rectangle
/// `lo..hi`, with log-normal amplitude (median `median_gain`) and uniform
/// random phase. Deterministic for a given `seed`.
///
/// # Panics
/// Panics if the rectangle is inverted.
pub fn uniform_field(
    lo: Point2,
    hi: Point2,
    count: usize,
    median_gain: f64,
    seed: u64,
) -> Vec<Scatterer> {
    assert!(hi.x >= lo.x && hi.y >= lo.y, "inverted scatterer region");
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let x = rng.gen_range(lo.x..=hi.x);
            let y = rng.gen_range(lo.y..=hi.y);
            // Log-normal amplitude: ±~4 dB spread around the median.
            let ln_sigma = 0.5;
            let z: f64 = sample_standard_normal(&mut rng);
            let amp = median_gain * (ln_sigma * z).exp();
            let phase = rng.gen_range(0.0..std::f64::consts::TAU);
            Scatterer {
                pos: Point2::new(x, y),
                gain: Complex64::from_polar(amp, phase),
            }
        })
        .collect()
}

/// Generates `count` dynamic scatterers ("walking humans") inside the
/// rectangle with speeds up to `max_speed` m/s.
pub fn walking_humans(
    lo: Point2,
    hi: Point2,
    count: usize,
    max_speed: f64,
    gain: f64,
    seed: u64,
) -> Vec<DynamicScatterer> {
    assert!(hi.x >= lo.x && hi.y >= lo.y, "inverted region");
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let x = rng.gen_range(lo.x..=hi.x);
            let y = rng.gen_range(lo.y..=hi.y);
            let speed = rng.gen_range(0.2..=max_speed.max(0.2));
            let dir = rng.gen_range(0.0..std::f64::consts::TAU);
            let phase = rng.gen_range(0.0..std::f64::consts::TAU);
            DynamicScatterer {
                start: Point2::new(x, y),
                velocity: Vec2::from_angle(dir) * speed,
                gain: Complex64::from_polar(gain, phase),
            }
        })
        .collect()
}

/// Samples a standard normal via Box–Muller (keeps us off rand_distr).
pub(crate) fn sample_standard_normal<R: Rng>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        if z.is_finite() {
            return z;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_field_deterministic() {
        let lo = Point2::new(0.0, 0.0);
        let hi = Point2::new(10.0, 10.0);
        let a = uniform_field(lo, hi, 20, 1.0, 42);
        let b = uniform_field(lo, hi, 20, 1.0, 42);
        assert_eq!(a, b);
        let c = uniform_field(lo, hi, 20, 1.0, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn uniform_field_within_bounds() {
        let lo = Point2::new(-5.0, 2.0);
        let hi = Point2::new(5.0, 8.0);
        for s in uniform_field(lo, hi, 100, 1.0, 7) {
            assert!(s.pos.x >= lo.x && s.pos.x <= hi.x);
            assert!(s.pos.y >= lo.y && s.pos.y <= hi.y);
            assert!(s.gain.abs() > 0.0);
        }
    }

    #[test]
    fn field_count_and_empty() {
        let lo = Point2::new(0.0, 0.0);
        let hi = Point2::new(1.0, 1.0);
        assert_eq!(uniform_field(lo, hi, 0, 1.0, 1).len(), 0);
        assert_eq!(uniform_field(lo, hi, 33, 1.0, 1).len(), 33);
    }

    #[test]
    fn dynamic_scatterer_moves_linearly() {
        let d = DynamicScatterer {
            start: Point2::new(1.0, 1.0),
            velocity: Vec2::new(0.5, -0.25),
            gain: Complex64::from_re(1.0),
        };
        let p = d.pos_at(4.0);
        assert!((p.x - 3.0).abs() < 1e-12);
        assert!((p.y - 0.0).abs() < 1e-12);
        assert_eq!(d.pos_at(0.0), d.start);
    }

    #[test]
    fn walking_humans_speed_bounds() {
        let lo = Point2::new(0.0, 0.0);
        let hi = Point2::new(30.0, 30.0);
        for h in walking_humans(lo, hi, 50, 1.5, 0.3, 99) {
            let v = h.velocity.norm();
            assert!((0.2..=1.5 + 1e-12).contains(&v));
        }
    }

    #[test]
    fn normal_sampler_moments() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples
            .iter()
            .map(|&x| (x - mean) * (x - mean))
            .sum::<f64>()
            / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
