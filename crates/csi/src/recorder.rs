//! CSI recording: drives the channel simulator along a device trajectory
//! and produces what the paper's modified drivers deliver — per-antenna,
//! per-packet, impairment-laden, optionally sanitised CSI series.
//!
//! The device model mirrors the prototype (§5): one or two NICs, each with
//! up to three antennas at fixed offsets in the device frame. Packets are
//! AP broadcasts at the trajectory's sample rate; each NIC loses packets
//! according to its loss model; antennas on one NIC share per-packet clock
//! impairments.

use crate::frame::{CsiFrame, CsiSnapshot};
use crate::impairments::{HardwareProfile, ImpairmentModel};
use crate::loss::{LossModel, LossProcess};
use crate::sanitize::sanitize_snapshot;
use rim_channel::simulator::ChannelSimulator;
use rim_channel::trajectory::Trajectory;
use rim_dsp::complex::Complex64;
use rim_dsp::geom::Vec2;
use rim_dsp::interp::fill_gaps_complex;

/// Configuration of one NIC on the tracked device.
#[derive(Debug, Clone)]
pub struct NicConfig {
    /// Antenna offsets in the device frame, metres.
    pub antenna_offsets: Vec<Vec2>,
    /// Front-end impairment profile.
    pub profile: HardwareProfile,
    /// Packet-loss behaviour.
    pub loss: LossModel,
}

/// The tracked device: one or more NICs.
#[derive(Debug, Clone)]
pub struct DeviceConfig {
    /// NICs in antenna-numbering order.
    pub nics: Vec<NicConfig>,
}

impl DeviceConfig {
    /// Single-NIC device with the given antenna offsets and a commodity
    /// front-end without packet loss.
    pub fn single_nic(antenna_offsets: Vec<Vec2>) -> Self {
        Self {
            nics: vec![NicConfig {
                antenna_offsets,
                profile: HardwareProfile::commodity(),
                loss: LossModel::None,
            }],
        }
    }

    /// Two-NIC device splitting `antenna_offsets` evenly (first half on
    /// NIC 0) — the hexagonal-array arrangement of the prototype.
    ///
    /// # Panics
    /// Panics if the offset count is odd.
    pub fn dual_nic(antenna_offsets: Vec<Vec2>) -> Self {
        assert!(
            antenna_offsets.len().is_multiple_of(2),
            "dual-NIC device needs an even antenna count"
        );
        let half = antenna_offsets.len() / 2;
        let (a, b) = antenna_offsets.split_at(half);
        Self {
            nics: vec![
                NicConfig {
                    antenna_offsets: a.to_vec(),
                    profile: HardwareProfile::commodity(),
                    loss: LossModel::None,
                },
                NicConfig {
                    antenna_offsets: b.to_vec(),
                    profile: HardwareProfile::commodity(),
                    loss: LossModel::None,
                },
            ],
        }
    }

    /// Total antenna count across NICs.
    pub fn n_antennas(&self) -> usize {
        self.nics.iter().map(|n| n.antenna_offsets.len()).sum()
    }

    /// Sets every NIC's impairment profile.
    pub fn with_profile(mut self, profile: HardwareProfile) -> Self {
        for nic in &mut self.nics {
            nic.profile = profile;
        }
        self
    }

    /// Sets every NIC's loss model.
    pub fn with_loss(mut self, loss: LossModel) -> Self {
        for nic in &mut self.nics {
            nic.loss = loss;
        }
        self
    }
}

/// Recorder options.
#[derive(Debug, Clone, Copy)]
pub struct RecorderConfig {
    /// Apply linear phase sanitation to every CFR (as the paper does before
    /// computing TRRS).
    pub sanitize: bool,
    /// Seed for impairments and loss processes.
    pub seed: u64,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        Self {
            sanitize: true,
            seed: 0,
        }
    }
}

/// A recorded CSI time series for the whole device.
#[derive(Debug, Clone)]
pub struct CsiRecording {
    /// Packet / sample rate, Hz.
    pub sample_rate_hz: f64,
    /// Subcarrier indices of every CFR.
    pub subcarrier_indices: Vec<i32>,
    /// `antennas[a][i]` — antenna `a` at sample `i`; `None` when the
    /// carrying NIC lost that packet.
    pub antennas: Vec<Vec<Option<CsiSnapshot>>>,
}

impl CsiRecording {
    /// Number of antennas.
    pub fn n_antennas(&self) -> usize {
        self.antennas.len()
    }

    /// Number of time samples.
    pub fn n_samples(&self) -> usize {
        self.antennas.first().map_or(0, Vec::len)
    }

    /// Fraction of antenna-samples lost to packet loss.
    pub fn loss_rate(&self) -> f64 {
        let total: usize = self.antennas.iter().map(Vec::len).sum();
        if total == 0 {
            return 0.0;
        }
        let lost: usize = self
            .antennas
            .iter()
            .map(|s| s.iter().filter(|v| v.is_none()).count())
            .sum();
        lost as f64 / total as f64
    }

    /// Applies a loss model to an already-recorded series, dropping whole
    /// device samples (every antenna at once, like a lost broadcast
    /// packet). Lets a fault harness record one clean capture and derive
    /// arbitrarily many seeded loss scenarios from it without re-running
    /// the channel simulator.
    pub fn degrade(&self, model: LossModel, seed: u64) -> CsiRecording {
        let mut process = LossProcess::new(model, seed);
        let lost: Vec<bool> = (0..self.n_samples()).map(|_| process.next_lost()).collect();
        CsiRecording {
            sample_rate_hz: self.sample_rate_hz,
            subcarrier_indices: self.subcarrier_indices.clone(),
            antennas: self
                .antennas
                .iter()
                .map(|series| {
                    series
                        .iter()
                        .zip(&lost)
                        .map(|(s, &l)| if l { None } else { s.clone() })
                        .collect()
                })
                .collect(),
        }
    }

    /// Repairs packet loss by per-subcarrier linear interpolation (paper
    /// §5/§7), producing a gap-free series. Returns `None` if any antenna
    /// lost *every* packet, or if the series is ragged: an antenna with
    /// another sample count than the first, or a snapshot whose TX count
    /// or CFR lengths differ from its antenna's first present snapshot's.
    pub fn interpolated(&self) -> Option<DenseCsi> {
        let n_samples = self.n_samples();
        let mut antennas = Vec::with_capacity(self.antennas.len());
        for series in &self.antennas {
            // Establish dimensions from the first present snapshot.
            let proto = series.iter().flatten().next()?;
            let n_tx = proto.n_tx();
            let n_sc = proto.n_subcarriers();
            let rectangular = series.len() == n_samples
                && series.iter().flatten().all(|snap| {
                    snap.per_tx.len() == n_tx && snap.per_tx.iter().all(|cfr| cfr.len() == n_sc)
                });
            if !rectangular {
                return None;
            }
            let mut dense: Vec<CsiSnapshot> = (0..n_samples)
                .map(|_| CsiSnapshot {
                    per_tx: vec![vec![rim_dsp::complex::ZERO; n_sc]; n_tx],
                })
                .collect();
            let mut lane = Vec::with_capacity(n_samples);
            for tx in 0..n_tx {
                for sc in 0..n_sc {
                    lane.clear();
                    lane.extend(
                        series
                            .iter()
                            .map(|s| s.as_ref().map(|snap| snap.per_tx[tx][sc])),
                    );
                    let filled = fill_gaps_complex(&lane)?;
                    for (i, v) in filled.into_iter().enumerate() {
                        dense[i].per_tx[tx][sc] = v;
                    }
                }
            }
            antennas.push(dense);
        }
        Some(DenseCsi {
            sample_rate_hz: self.sample_rate_hz,
            subcarrier_indices: self.subcarrier_indices.clone(),
            antennas,
        })
    }
}

/// A gap-free CSI series (after interpolation), the input the RIM core
/// consumes.
#[derive(Debug, Clone)]
pub struct DenseCsi {
    /// Packet / sample rate, Hz.
    pub sample_rate_hz: f64,
    /// Subcarrier indices of every CFR.
    pub subcarrier_indices: Vec<i32>,
    /// `antennas[a][i]` — antenna `a` at sample `i`.
    pub antennas: Vec<Vec<CsiSnapshot>>,
}

impl DenseCsi {
    /// Number of antennas.
    pub fn n_antennas(&self) -> usize {
        self.antennas.len()
    }

    /// Number of time samples.
    pub fn n_samples(&self) -> usize {
        self.antennas.first().map_or(0, Vec::len)
    }

    /// Keeps every `factor`-th sample — used for the sampling-rate sweep
    /// (paper Fig. 16).
    pub fn decimate(&self, factor: usize) -> DenseCsi {
        assert!(factor > 0, "decimation factor must be positive");
        DenseCsi {
            sample_rate_hz: self.sample_rate_hz / factor as f64,
            subcarrier_indices: self.subcarrier_indices.clone(),
            antennas: self
                .antennas
                .iter()
                .map(|s| s.iter().step_by(factor).cloned().collect())
                .collect(),
        }
    }
}

/// Records CSI along trajectories against a channel simulator.
pub struct CsiRecorder<'a> {
    sim: &'a ChannelSimulator,
    device: DeviceConfig,
    config: RecorderConfig,
}

impl<'a> CsiRecorder<'a> {
    /// Creates a recorder.
    ///
    /// # Panics
    /// Panics if the device has no antennas.
    pub fn new(sim: &'a ChannelSimulator, device: DeviceConfig, config: RecorderConfig) -> Self {
        assert!(device.n_antennas() > 0, "device needs antennas");
        Self {
            sim,
            device,
            config,
        }
    }

    /// The device configuration.
    pub fn device(&self) -> &DeviceConfig {
        &self.device
    }

    /// Records the full trajectory into a [`CsiRecording`].
    pub fn record(&self, traj: &Trajectory) -> CsiRecording {
        self.record_probed(traj, &rim_obs::NullProbe)
    }

    /// [`CsiRecorder::record`] with an observability probe: acquisition
    /// reports snapshots ingested/dropped and sanitize rejections
    /// (snapshots left with non-finite values) under
    /// [`rim_obs::stage::CSI_INGEST`].
    pub fn record_probed<P: rim_obs::Probe + ?Sized>(
        &self,
        traj: &Trajectory,
        probe: &P,
    ) -> CsiRecording {
        let ingest_span = probe.span(rim_obs::stage::CSI_INGEST);
        let mut ingested = 0u64;
        let mut dropped = 0u64;
        let mut rejected = 0u64;
        let sampler = self.sim.sampler();
        let indices = self.sim.layout().indices.clone();
        let n_ant = self.device.n_antennas();
        let mut antennas: Vec<Vec<Option<CsiSnapshot>>> =
            vec![Vec::with_capacity(traj.len()); n_ant];
        let mut impairments: Vec<ImpairmentModel> = self
            .device
            .nics
            .iter()
            .enumerate()
            .map(|(n, nic)| {
                ImpairmentModel::new(
                    nic.profile,
                    nic.antenna_offsets.len(),
                    self.config
                        .seed
                        .wrapping_add(n as u64)
                        .wrapping_mul(0x9E37_79B9),
                )
            })
            .collect();
        let mut losses: Vec<LossProcess> = self
            .device
            .nics
            .iter()
            .enumerate()
            .map(|(n, nic)| {
                LossProcess::new(nic.loss, self.config.seed.wrapping_add(77 + n as u64))
            })
            .collect();

        for i in 0..traj.len() {
            let t = traj.time(i);
            let mut ant_base = 0usize;
            for (n, nic) in self.device.nics.iter().enumerate() {
                let n_rx = nic.antenna_offsets.len();
                if losses[n].next_lost() {
                    for a in 0..n_rx {
                        antennas[ant_base + a].push(None);
                    }
                    dropped += n_rx as u64;
                    ant_base += n_rx;
                    continue;
                }
                // Noiseless MIMO CSI for this NIC's antennas.
                let mut csi: Vec<Vec<Vec<Complex64>>> = nic
                    .antenna_offsets
                    .iter()
                    .map(|&off| {
                        let pos = traj.antenna_position(i, off);
                        sampler.mimo_cfr(pos, t).per_tx
                    })
                    .collect();
                impairments[n].apply(&mut csi, &indices, t);
                for (a, mut snap) in csi.into_iter().enumerate() {
                    ingested += 1;
                    if self.config.sanitize {
                        if sanitize_snapshot(&mut snap, &indices).is_err() {
                            // Non-finite CSI is indistinguishable from a
                            // corrupt report; record it as loss so the
                            // interpolation layer repairs it instead of
                            // TRRS silently absorbing NaN.
                            rejected += 1;
                            antennas[ant_base + a].push(None);
                            continue;
                        }
                    } else if snap.iter().any(|cfr| cfr.iter().any(|h| !h.is_finite())) {
                        rejected += 1;
                        antennas[ant_base + a].push(None);
                        continue;
                    }
                    antennas[ant_base + a].push(Some(CsiSnapshot { per_tx: snap }));
                }
                ant_base += n_rx;
            }
        }
        drop(ingest_span);
        probe.count(rim_obs::stage::CSI_INGEST, "snapshots_ingested", ingested);
        probe.count(rim_obs::stage::CSI_INGEST, "snapshots_dropped", dropped);
        probe.count(rim_obs::stage::CSI_INGEST, "sanitize_rejections", rejected);
        CsiRecording {
            sample_rate_hz: traj.sample_rate_hz(),
            subcarrier_indices: indices,
            antennas,
        }
    }

    /// Records the trajectory as per-NIC frame streams (the wire-level
    /// view; lost packets are simply absent from a stream).
    pub fn record_frames(&self, traj: &Trajectory) -> Vec<Vec<CsiFrame>> {
        let recording = self.record(traj);
        let mut out = Vec::with_capacity(self.device.nics.len());
        let mut ant_base = 0usize;
        for nic in &self.device.nics {
            let n_rx = nic.antenna_offsets.len();
            let mut stream = Vec::new();
            for i in 0..recording.n_samples() {
                let rx: Option<Vec<CsiSnapshot>> = (0..n_rx)
                    .map(|a| recording.antennas[ant_base + a][i].clone())
                    .collect();
                if let Some(rx) = rx {
                    stream.push(CsiFrame {
                        seq: i as u64,
                        timestamp_s: i as f64 / recording.sample_rate_hz,
                        rx,
                    });
                }
            }
            out.push(stream);
            ant_base += n_rx;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rim_channel::trajectory::{line, OrientationMode};
    use rim_dsp::geom::Point2;

    fn device3() -> DeviceConfig {
        let d = 0.0258;
        DeviceConfig::single_nic(vec![
            Vec2::new(-d, 0.0),
            Vec2::new(0.0, 0.0),
            Vec2::new(d, 0.0),
        ])
    }

    fn short_traj() -> Trajectory {
        line(
            Point2::new(0.0, 2.0),
            0.0,
            0.25,
            1.0,
            200.0,
            OrientationMode::FollowPath,
        )
    }

    #[test]
    fn recording_dimensions() {
        let sim = ChannelSimulator::open_lab(7);
        let rec = CsiRecorder::new(&sim, device3(), RecorderConfig::default());
        let r = rec.record(&short_traj());
        assert_eq!(r.n_antennas(), 3);
        assert_eq!(r.n_samples(), short_traj().len());
        assert_eq!(r.loss_rate(), 0.0);
        let snap = r.antennas[0][0].as_ref().unwrap();
        assert_eq!(snap.n_tx(), 3);
        assert_eq!(snap.n_subcarriers(), 114);
    }

    #[test]
    fn recording_is_deterministic() {
        let sim = ChannelSimulator::open_lab(7);
        let rec = CsiRecorder::new(&sim, device3(), RecorderConfig::default());
        let a = rec.record(&short_traj());
        let b = rec.record(&short_traj());
        assert_eq!(a.antennas[1][5], b.antennas[1][5]);
    }

    #[test]
    fn loss_produces_gaps_and_interpolation_repairs() {
        let sim = ChannelSimulator::open_lab(7);
        let device = device3().with_loss(LossModel::Iid { p: 0.2 });
        let rec = CsiRecorder::new(&sim, device, RecorderConfig::default());
        let r = rec.record(&short_traj());
        assert!(r.loss_rate() > 0.05, "losses happened: {}", r.loss_rate());
        let dense = r.interpolated().expect("interpolable");
        assert_eq!(dense.n_samples(), r.n_samples());
        assert!(dense.antennas.iter().flatten().all(|s| s.is_finite()));
    }

    #[test]
    fn dual_nic_loses_independently() {
        let sim = ChannelSimulator::open_lab(7);
        let d = 0.0258;
        let offsets: Vec<Vec2> = (0..6)
            .map(|k| {
                let ang = k as f64 * std::f64::consts::FRAC_PI_3;
                Vec2::from_angle(ang) * d
            })
            .collect();
        let device = DeviceConfig::dual_nic(offsets).with_loss(LossModel::Iid { p: 0.3 });
        let rec = CsiRecorder::new(&sim, device, RecorderConfig::default());
        let r = rec.record(&short_traj());
        // Find a sample where NIC 0 lost and NIC 1 did not.
        let independent =
            (0..r.n_samples()).any(|i| r.antennas[0][i].is_none() && r.antennas[3][i].is_some());
        assert!(independent, "NICs lose packets independently");
        // Antennas within one NIC lose together.
        for i in 0..r.n_samples() {
            assert_eq!(r.antennas[0][i].is_none(), r.antennas[1][i].is_none());
            assert_eq!(r.antennas[0][i].is_none(), r.antennas[2][i].is_none());
        }
    }

    #[test]
    fn record_frames_matches_sync_contract() {
        let sim = ChannelSimulator::open_lab(7);
        let device = device3().with_loss(LossModel::Iid { p: 0.15 });
        let rec = CsiRecorder::new(&sim, device, RecorderConfig::default());
        let traj = short_traj();
        let streams = rec.record_frames(&traj);
        assert_eq!(streams.len(), 1);
        // Streams are strictly increasing and synchronizable.
        let synced = crate::sync::synchronize(&streams, &[3]);
        assert!(!synced.is_empty());
        assert!(synced.len() <= traj.len());
    }

    #[test]
    fn degrade_applies_seeded_whole_device_loss() {
        let sim = ChannelSimulator::open_lab(7);
        let rec = CsiRecorder::new(&sim, device3(), RecorderConfig::default());
        let clean = rec.record(&short_traj());
        assert_eq!(clean.loss_rate(), 0.0);
        let lossy = rec
            .record(&short_traj())
            .degrade(LossModel::Iid { p: 0.3 }, 11);
        assert!(lossy.loss_rate() > 0.1, "{}", lossy.loss_rate());
        // Whole-device: all antennas drop together.
        for i in 0..lossy.n_samples() {
            let n_lost = lossy.antennas.iter().filter(|a| a[i].is_none()).count();
            assert!(n_lost == 0 || n_lost == lossy.n_antennas());
        }
        // Seeded: same seed reproduces, different seed differs.
        let again = clean.degrade(LossModel::Iid { p: 0.3 }, 11);
        let other = clean.degrade(LossModel::Iid { p: 0.3 }, 12);
        let mask = |r: &CsiRecording| -> Vec<bool> {
            (0..r.n_samples())
                .map(|i| r.antennas[0][i].is_none())
                .collect()
        };
        assert_eq!(mask(&lossy), mask(&again));
        assert_ne!(mask(&again), mask(&other));
        // Surviving samples are untouched.
        for i in 0..clean.n_samples() {
            if again.antennas[0][i].is_some() {
                assert_eq!(again.antennas[0][i], clean.antennas[0][i]);
            }
        }
    }

    #[test]
    fn decimation_halves_rate() {
        let sim = ChannelSimulator::open_lab(7);
        let rec = CsiRecorder::new(&sim, device3(), RecorderConfig::default());
        let dense = rec.record(&short_traj()).interpolated().unwrap();
        let half = dense.decimate(2);
        assert_eq!(half.sample_rate_hz, 100.0);
        assert_eq!(half.n_samples(), dense.n_samples().div_ceil(2));
    }

    #[test]
    fn sanitation_flattens_linear_phase() {
        // With sanitize on, the per-packet STO slope is removed: TRRS of
        // consecutive static samples stays ~1 even with heavy impairments.
        let sim = ChannelSimulator::open_lab(7);
        let device = device3().with_profile(HardwareProfile {
            snr_db: f64::INFINITY,
            sto_slope_std: 0.2,
            residual_cfo_hz: 200.0,
            agc_std: 0.0,
            chain_phase_std: 2.0,
        });
        let rec = CsiRecorder::new(&sim, device, RecorderConfig::default());
        let traj = rim_channel::trajectory::dwell(Point2::new(1.0, 2.0), 0.0, 0.1, 200.0);
        let r = rec.record(&traj);
        let a = r.antennas[0][0].as_ref().unwrap();
        let b = r.antennas[0][10].as_ref().unwrap();
        let trrs = {
            let ip = rim_dsp::inner_product(&a.per_tx[0], &b.per_tx[0]).abs();
            ip * ip / (rim_dsp::norm_sqr(&a.per_tx[0]) * rim_dsp::norm_sqr(&b.per_tx[0]))
        };
        assert!(trrs > 0.99, "static + sanitised => TRRS ≈ 1, got {trrs}");
    }
}
