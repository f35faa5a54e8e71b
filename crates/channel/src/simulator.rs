//! End-to-end channel simulation: an AP with a small transmit array, a ray
//! tracer and a subcarrier layout, sampled along a receiver trajectory.
//!
//! This is the boundary the CSI layer consumes: for every (time, RX
//! antenna, TX antenna) triple it yields the noiseless CFR vector; the CSI
//! layer then adds the hardware impairments a real NIC would introduce.

use crate::cfr::{synthesize_cfr, SubcarrierLayout};
use crate::propagation::{RayTracer, TxContext};
use rim_dsp::complex::Complex64;
use rim_dsp::geom::{Point2, Vec2};

/// Access-point configuration: position and transmit antenna arrangement.
///
/// The paper's AP has 3 antennas (§3.2 uses TX spatial diversity to enlarge
/// effective bandwidth); we model them as a short linear array around the
/// AP position.
#[derive(Debug, Clone, Copy)]
pub struct ApConfig {
    /// AP reference position.
    pub pos: Point2,
    /// Number of transmit antennas.
    pub n_antennas: usize,
    /// Spacing between adjacent TX antennas, metres.
    pub antenna_spacing: f64,
    /// Orientation of the TX array, radians.
    pub orientation: f64,
}

impl ApConfig {
    /// A 3-antenna AP at `pos` with λ/2 spacing for the 5.8 GHz band.
    pub fn standard(pos: Point2) -> Self {
        Self {
            pos,
            n_antennas: 3,
            antenna_spacing: 0.0258,
            orientation: 0.0,
        }
    }

    /// World positions of the TX antennas.
    pub fn antenna_positions(&self) -> Vec<Point2> {
        let dir = Vec2::from_angle(self.orientation);
        let mid = (self.n_antennas as f64 - 1.0) / 2.0;
        (0..self.n_antennas)
            .map(|k| self.pos + dir * ((k as f64 - mid) * self.antenna_spacing))
            .collect()
    }
}

/// A noiseless MIMO channel snapshot: one CFR vector per TX antenna, for a
/// single RX antenna at a single instant.
#[derive(Debug, Clone, PartialEq)]
pub struct MimoCfr {
    /// `per_tx[k]` is the CFR between TX antenna `k` and this RX antenna.
    pub per_tx: Vec<Vec<Complex64>>,
}

/// Median scatterer gain producing a realistically rich indoor field: with
/// ~150 scatterers the diffuse energy dominates the direct ray and the
/// V-averaged TRRS reproduces the paper's Fig. 4 decay (≈0.3 drop within a
/// few mm, floor ≈0.3 beyond 2 cm).
pub const TYPICAL_SCATTERER_GAIN: f64 = 0.35;

/// Scatterer count used by the canonical environments.
pub const TYPICAL_SCATTERER_COUNT: usize = 150;

/// Channel simulator: ray tracer + AP + subcarrier grid.
///
/// ```
/// use rim_channel::ChannelSimulator;
/// use rim_dsp::geom::Point2;
///
/// let sim = ChannelSimulator::open_lab(7);
/// let sampler = sim.sampler();
/// let cfr = sampler.cfr(0, Point2::new(0.5, 2.0), 0.0);
/// assert_eq!(cfr.len(), 114); // HT40: 114 subcarriers
/// // The channel is a deterministic function of position.
/// assert_eq!(cfr, sampler.cfr(0, Point2::new(0.5, 2.0), 99.0));
/// ```
#[derive(Debug, Clone)]
pub struct ChannelSimulator {
    tracer: RayTracer,
    layout: SubcarrierLayout,
    ap: ApConfig,
}

impl ChannelSimulator {
    /// Creates a simulator.
    ///
    /// # Panics
    /// Panics if the AP has no antennas.
    pub fn new(tracer: RayTracer, layout: SubcarrierLayout, ap: ApConfig) -> Self {
        assert!(ap.n_antennas > 0, "AP needs at least one antenna");
        Self { tracer, layout, ap }
    }

    /// The paper's office testbed (Fig. 10) with a dense scatterer field
    /// and the AP at marked location `ap_idx` (`0..=6`, #0 = far corner).
    ///
    /// # Panics
    /// Panics if `ap_idx` is out of range.
    pub fn office(ap_idx: usize, seed: u64) -> Self {
        use crate::floorplan::office_floorplan;
        use crate::propagation::TracerConfig;
        use crate::scatter::uniform_field;
        let (fp, aps) = office_floorplan();
        assert!(ap_idx < aps.len(), "AP location index out of range");
        let (lo, hi) = fp.bounds().expect("office floorplan has walls");
        let scat = uniform_field(
            lo,
            hi,
            TYPICAL_SCATTERER_COUNT,
            TYPICAL_SCATTERER_GAIN,
            seed,
        );
        let tracer = RayTracer::new(fp, scat, Vec::new(), TracerConfig::default());
        Self::new(
            tracer,
            SubcarrierLayout::ht40_5ghz(),
            ApConfig::standard(aps[ap_idx]),
        )
    }

    /// A free-space environment with a rich scatterer field centred on the
    /// working area — the fast, deterministic default for micro-benchmarks
    /// and tests that do not need walls.
    pub fn open_lab(seed: u64) -> Self {
        use crate::propagation::TracerConfig;
        use crate::scatter::uniform_field;
        let scat = uniform_field(
            Point2::new(-15.0, -15.0),
            Point2::new(15.0, 15.0),
            TYPICAL_SCATTERER_COUNT,
            TYPICAL_SCATTERER_GAIN,
            seed,
        );
        let tracer = RayTracer::new(
            crate::floorplan::Floorplan::empty(),
            scat,
            Vec::new(),
            TracerConfig::default(),
        );
        Self::new(
            tracer,
            SubcarrierLayout::ht40_5ghz(),
            ApConfig::standard(Point2::new(-8.0, 0.0)),
        )
    }

    /// Replaces the subcarrier layout, keeping the environment and AP.
    ///
    /// The canned environments ([`Self::office`], [`Self::open_lab`])
    /// default to HT40; the heterogeneity scenarios rebind them to
    /// HT20/VHT80 grids with this builder. Ray geometry is
    /// layout-independent, so the swap is free.
    pub fn with_layout(mut self, layout: SubcarrierLayout) -> Self {
        self.layout = layout;
        self
    }

    /// The subcarrier layout in use.
    pub fn layout(&self) -> &SubcarrierLayout {
        &self.layout
    }

    /// The AP configuration.
    pub fn ap(&self) -> &ApConfig {
        &self.ap
    }

    /// The underlying ray tracer.
    pub fn tracer(&self) -> &RayTracer {
        &self.tracer
    }

    /// Prepares a sampler (precomputes per-TX-antenna image sources).
    pub fn sampler(&self) -> Sampler<'_> {
        let contexts = self
            .ap
            .antenna_positions()
            .into_iter()
            .map(|p| self.tracer.at_tx(p))
            .collect();
        Sampler {
            sim: self,
            contexts,
        }
    }
}

/// A prepared sampler; cheap to query per receiver position.
#[derive(Debug, Clone)]
pub struct Sampler<'a> {
    sim: &'a ChannelSimulator,
    contexts: Vec<TxContext<'a>>,
}

impl Sampler<'_> {
    /// Noiseless CFR from TX antenna `tx_idx` to a receiver at `rx` at time
    /// `t` seconds.
    pub fn cfr(&self, tx_idx: usize, rx: Point2, t: f64) -> Vec<Complex64> {
        let rays = self.contexts[tx_idx].rays_at(rx, t);
        synthesize_cfr(&rays, &self.sim.layout)
    }

    /// Full MIMO snapshot (all TX antennas) for one RX antenna position.
    pub fn mimo_cfr(&self, rx: Point2, t: f64) -> MimoCfr {
        MimoCfr {
            per_tx: (0..self.contexts.len())
                .map(|k| self.cfr(k, rx, t))
                .collect(),
        }
    }

    /// Number of TX antennas.
    pub fn n_tx(&self) -> usize {
        self.contexts.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_sim() -> ChannelSimulator {
        ChannelSimulator::open_lab(7)
    }

    #[test]
    fn ap_antenna_positions_centred() {
        let ap = ApConfig::standard(Point2::new(2.0, 3.0));
        let pos = ap.antenna_positions();
        assert_eq!(pos.len(), 3);
        // Centre antenna at the AP position; ends symmetric.
        assert!(pos[1].distance(Point2::new(2.0, 3.0)) < 1e-12);
        assert!((pos[0].distance(pos[1]) - 0.0258).abs() < 1e-12);
        assert!((pos[2].distance(pos[0]) - 2.0 * 0.0258).abs() < 1e-12);
    }

    #[test]
    fn snapshot_dimensions() {
        let sim = test_sim();
        let s = sim.sampler();
        let snap = s.mimo_cfr(Point2::new(1.0, 1.0), 0.0);
        assert_eq!(snap.per_tx.len(), 3);
        for cfr in &snap.per_tx {
            assert_eq!(cfr.len(), 114);
        }
    }

    #[test]
    fn same_position_same_channel() {
        // The physical basis of virtual antenna retracing: the channel is a
        // function of position only (in a static environment).
        let sim = test_sim();
        let s = sim.sampler();
        let p = Point2::new(0.5, 2.0);
        let a = s.cfr(0, p, 0.0);
        let b = s.cfr(0, p, 10.0);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn nearby_positions_decorrelate() {
        // Moving a fraction of a wavelength must change the channel while
        // micro-displacements must not. A single snapshot of a finite-band
        // channel has realization noise (the cross-term floor the paper
        // suppresses by virtual-massive-antenna averaging), so assert on
        // the mean over positions and TX antennas.
        let sim = test_sim();
        let s = sim.sampler();
        let lambda = sim.layout().wavelength();
        let corr = |u: &[Complex64], v: &[Complex64]| {
            let ip = rim_dsp::inner_product(u, v).abs();
            ip * ip / (rim_dsp::norm_sqr(u) * rim_dsp::norm_sqr(v))
        };
        let mean_corr_at = |frac: f64| {
            let mut acc = 0.0;
            let mut n = 0usize;
            for k in 0..8 {
                let p = Point2::new(0.3 * k as f64 - 1.0, 1.5 + 0.4 * k as f64);
                for tx in 0..3 {
                    let a = s.cfr(tx, p, 0.0);
                    let b = s.cfr(tx, Point2::new(p.x + lambda * frac, p.y), 0.0);
                    acc += corr(&a, &b);
                    n += 1;
                }
            }
            acc / n as f64
        };
        let c_micro = mean_corr_at(0.01);
        let c_step = mean_corr_at(0.2);
        let c_wave = mean_corr_at(1.0);
        assert!(
            c_micro > 0.98,
            "1% λ displacement keeps correlation: {c_micro}"
        );
        assert!(
            c_step < c_micro - 0.05,
            "0.2 λ drops: {c_step} vs {c_micro}"
        );
        assert!(c_wave < 0.8, "1 λ decorrelates on average: {c_wave}");
    }

    #[test]
    fn different_tx_antennas_differ() {
        let sim = test_sim();
        let s = sim.sampler();
        let p = Point2::new(1.0, 1.0);
        let a = s.cfr(0, p, 0.0);
        let b = s.cfr(2, p, 0.0);
        let diff: f64 = a.iter().zip(&b).map(|(x, y)| (*x - *y).abs()).sum();
        assert!(diff > 1e-6, "TX antennas see different channels");
    }

    #[test]
    #[should_panic(expected = "at least one antenna")]
    fn zero_antenna_ap_rejected() {
        let tracer = RayTracer::free_space_with_scatterers(Vec::new());
        let mut ap = ApConfig::standard(Point2::ORIGIN);
        ap.n_antennas = 0;
        let _ = ChannelSimulator::new(tracer, SubcarrierLayout::ht20_5ghz(), ap);
    }
}
