//! OFDM channel frequency response (CFR) synthesis.
//!
//! Converts a set of propagation rays into the per-subcarrier complex
//! channel a WiFi NIC would report as CSI:
//! `H(f_k) = Σ_p a_p · e^{-j2π f_k τ_p}` over the subcarrier grid of the
//! configured channel (paper §5: 40 MHz channel in the 5 GHz band).

use crate::propagation::Ray;
use rim_dsp::complex::{Complex64, ZERO};
use serde::{Deserialize, Serialize};

/// An OFDM subcarrier grid: centre frequency, subcarrier spacing and the
/// list of populated subcarrier indices (relative to the centre).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubcarrierLayout {
    /// Carrier (centre) frequency in Hz.
    pub center_hz: f64,
    /// Subcarrier spacing in Hz.
    pub spacing_hz: f64,
    /// Populated subcarrier indices relative to the centre (DC = 0 is
    /// normally absent).
    pub indices: Vec<i32>,
}

impl SubcarrierLayout {
    /// 802.11n HT40 layout in the 5 GHz band: 114 subcarriers at indices
    /// ±2..±58, 312.5 kHz spacing, 5.8 GHz carrier — the Atheros CSI
    /// configuration the paper's prototype uses (λ/2 ≈ 2.58 cm).
    pub fn ht40_5ghz() -> Self {
        let mut indices: Vec<i32> = (-58..=-2).collect();
        indices.extend(2..=58);
        Self {
            center_hz: 5.8e9,
            spacing_hz: 312_500.0,
            indices,
        }
    }

    /// 802.11n HT20 layout: 56 subcarriers at indices ±1..±28.
    pub fn ht20_5ghz() -> Self {
        let mut indices: Vec<i32> = (-28..=-1).collect();
        indices.extend(1..=28);
        Self {
            center_hz: 5.8e9,
            spacing_hz: 312_500.0,
            indices,
        }
    }

    /// 802.11ac VHT80 layout: 242 subcarriers at indices ±2..±122,
    /// 312.5 kHz spacing, 5.8 GHz carrier — the widest grid a COTS
    /// 5 GHz NIC reports, used by the heterogeneity scenarios to stress
    /// non-default subcarrier counts.
    pub fn vht80_5ghz() -> Self {
        let mut indices: Vec<i32> = (-122..=-2).collect();
        indices.extend(2..=122);
        Self {
            center_hz: 5.8e9,
            spacing_hz: 312_500.0,
            indices,
        }
    }

    /// Intel 5300 grouped CSI on HT40: 30 subcarriers, every fourth index
    /// from −58 to +58 — the layout of the 802.11 CSI Tool \[10\].
    pub fn intel5300_ht40() -> Self {
        let indices: Vec<i32> = (0..30).map(|k| -58 + 4 * k).collect();
        Self {
            center_hz: 5.8e9,
            spacing_hz: 312_500.0,
            indices,
        }
    }

    /// Number of populated subcarriers.
    pub fn n_subcarriers(&self) -> usize {
        self.indices.len()
    }

    /// Absolute frequency of the `k`-th populated subcarrier.
    pub fn freq(&self, k: usize) -> f64 {
        self.center_hz + self.indices[k] as f64 * self.spacing_hz
    }

    /// Carrier wavelength in metres.
    pub fn wavelength(&self) -> f64 {
        crate::propagation::SPEED_OF_LIGHT / self.center_hz
    }
}

/// Synthesizes the CFR of a ray set over a subcarrier layout.
///
/// Uses a per-ray phasor recurrence over the dense index range so only two
/// trigonometric evaluations are needed per ray regardless of subcarrier
/// count.
pub fn synthesize_cfr(rays: &[Ray], layout: &SubcarrierLayout) -> Vec<Complex64> {
    let n = layout.n_subcarriers();
    let mut out = vec![ZERO; n];
    if rays.is_empty() || n == 0 {
        return out;
    }
    let lo = *layout.indices.iter().min().unwrap();
    let hi = *layout.indices.iter().max().unwrap();
    let span = (hi - lo) as usize + 1;
    // Map dense offset -> output slot.
    let mut slot = vec![usize::MAX; span];
    for (k, &idx) in layout.indices.iter().enumerate() {
        slot[(idx - lo) as usize] = k;
    }
    let f_lo = layout.center_hz + lo as f64 * layout.spacing_hz;
    for ray in rays {
        let tau = ray.delay_s;
        // Phase at the lowest index, then a constant step per index.
        let mut cur = ray.amp * Complex64::cis(-std::f64::consts::TAU * f_lo * tau);
        let step = Complex64::cis(-std::f64::consts::TAU * layout.spacing_hz * tau);
        for s in &slot {
            if *s != usize::MAX {
                out[*s] += cur;
            }
            cur *= step;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propagation::SPEED_OF_LIGHT;

    #[test]
    fn ht40_layout_shape() {
        let l = SubcarrierLayout::ht40_5ghz();
        assert_eq!(l.n_subcarriers(), 114);
        assert!(!l.indices.contains(&0), "no DC subcarrier");
        assert!(!l.indices.contains(&1) && !l.indices.contains(&-1));
        assert_eq!(l.indices[0], -58);
        assert_eq!(*l.indices.last().unwrap(), 58);
        assert!((l.wavelength() - SPEED_OF_LIGHT / 5.8e9).abs() < 1e-12);
        // Half wavelength matches the paper's 2.58 cm antenna spacing.
        assert!((l.wavelength() / 2.0 - 0.0258).abs() < 3e-4);
    }

    #[test]
    fn ht20_and_intel_layouts() {
        assert_eq!(SubcarrierLayout::ht20_5ghz().n_subcarriers(), 56);
        let i = SubcarrierLayout::intel5300_ht40();
        assert_eq!(i.n_subcarriers(), 30);
        assert_eq!(i.indices[0], -58);
        assert_eq!(*i.indices.last().unwrap(), 58);
    }

    #[test]
    fn vht80_layout_shape() {
        let l = SubcarrierLayout::vht80_5ghz();
        assert_eq!(l.n_subcarriers(), 242);
        assert!(!l.indices.contains(&0), "no DC subcarrier");
        assert!(!l.indices.contains(&1) && !l.indices.contains(&-1));
        assert_eq!(l.indices[0], -122);
        assert_eq!(*l.indices.last().unwrap(), 122);
        // Same carrier as HT40: antenna spacing stays λ/2 ≈ 2.58 cm
        // across bandwidths, so array geometry is bandwidth-independent.
        assert!((l.wavelength() - SPEED_OF_LIGHT / 5.8e9).abs() < 1e-12);
    }

    #[test]
    fn single_ray_has_unit_magnitude_profile() {
        let l = SubcarrierLayout::ht40_5ghz();
        let ray = Ray {
            delay_s: 30e-9,
            amp: Complex64::from_re(0.7),
        };
        let cfr = synthesize_cfr(&[ray], &l);
        assert_eq!(cfr.len(), 114);
        for h in &cfr {
            assert!((h.abs() - 0.7).abs() < 1e-9, "flat magnitude for one path");
        }
    }

    #[test]
    fn single_ray_phase_slope_matches_delay() {
        let l = SubcarrierLayout::ht40_5ghz();
        let tau = 50e-9;
        let ray = Ray {
            delay_s: tau,
            amp: Complex64::from_re(1.0),
        };
        let cfr = synthesize_cfr(&[ray], &l);
        // Between adjacent populated indices the phase advances by
        // -2π·Δidx·spacing·τ.
        let dphi_expect = -std::f64::consts::TAU * l.spacing_hz * tau;
        for k in 1..20 {
            let didx = (l.indices[k] - l.indices[k - 1]) as f64;
            let measured = (cfr[k] * cfr[k - 1].conj()).arg();
            assert!(
                (measured - dphi_expect * didx).abs() < 1e-9,
                "k={k}: {measured} vs {}",
                dphi_expect * didx
            );
        }
    }

    #[test]
    fn recurrence_matches_direct_evaluation() {
        let l = SubcarrierLayout::ht40_5ghz();
        let rays = vec![
            Ray {
                delay_s: 20e-9,
                amp: Complex64::new(0.5, 0.2),
            },
            Ray {
                delay_s: 95e-9,
                amp: Complex64::new(-0.1, 0.4),
            },
            Ray {
                delay_s: 210e-9,
                amp: Complex64::new(0.05, -0.03),
            },
        ];
        let fast = synthesize_cfr(&rays, &l);
        for (k, h) in fast.iter().enumerate() {
            let f = l.freq(k);
            let direct: Complex64 = rays
                .iter()
                .map(|r| r.amp * Complex64::cis(-std::f64::consts::TAU * f * r.delay_s))
                .sum();
            assert!((*h - direct).abs() < 1e-6, "subcarrier {k}");
        }
    }

    #[test]
    fn superposition_is_linear() {
        let l = SubcarrierLayout::ht20_5ghz();
        let r1 = Ray {
            delay_s: 10e-9,
            amp: Complex64::from_re(1.0),
        };
        let r2 = Ray {
            delay_s: 60e-9,
            amp: Complex64::from_re(0.3),
        };
        let both = synthesize_cfr(&[r1, r2], &l);
        let a = synthesize_cfr(&[r1], &l);
        let b = synthesize_cfr(&[r2], &l);
        for k in 0..l.n_subcarriers() {
            assert!((both[k] - (a[k] + b[k])).abs() < 1e-9);
        }
    }

    #[test]
    fn empty_rays_give_zero_cfr() {
        let l = SubcarrierLayout::ht40_5ghz();
        let cfr = synthesize_cfr(&[], &l);
        assert!(cfr.iter().all(|&h| h == ZERO));
    }
}
