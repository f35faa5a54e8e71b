//! RIM + inertial-sensor fusion (paper §6.3.3, Fig. 21).
//!
//! With a single 3-antenna NIC, RIM's distance estimates are excellent
//! but its heading resolution is limited, and a CSI outage stops the
//! estimate cold; an IMU is the complement on both axes. This module
//! fuses the two at two granularities:
//!
//! * **Batch** — [`Fuser::fuse`] combines a finished
//!   [`rim_core::MotionEstimate`] with a gyroscope track into a world
//!   trajectory, confidence-weighted per segment, and
//!   [`Fuser::fuse_with_map`] additionally runs the map-constrained
//!   particle filter (Fig. 21 shows both).
//! * **Streaming** — [`Fuser::stream`] wraps a [`rim_core::RimStream`]
//!   in a 2D error-state Kalman filter ([`FusedStream`]): IMU batches
//!   propagate position/heading/velocity/gyro-bias between RIM's
//!   segment and provisional corrections, zero-velocity updates clamp
//!   drift whenever the stance detector fires, and the filter keeps
//!   emitting [`rim_core::StreamEvent::Fused`] estimates through CSI
//!   gaps and blackouts. See DESIGN.md for the filter derivation.
//!
//! Everything is configured through [`Fuser::builder`], which validates
//! the full [`FusionConfig`] up front.

mod config;
mod engine;
mod eskf;
mod zupt;

pub use config::{FusionConfig, MapFusionConfig};
pub use engine::{FusedSession, FusedStream, Fuser, FuserBuilder};
pub use zupt::ZuptDetector;

use rim_core::SegmentEstimate;
use rim_dsp::geom::Point2;

/// A fused trajectory: per-sample positions plus the raw inputs used.
#[derive(Debug, Clone)]
pub struct FusedTrack {
    /// Dead-reckoned positions (RIM distance + gyro heading).
    pub dead_reckoned: Vec<Point2>,
    /// Particle-filter corrected positions (empty if no filter was used).
    pub filtered: Vec<Point2>,
}

/// Down-weight factor for one segment given a minimum acceptable
/// confidence: 1.0 at or above `min_confidence`, scaling linearly down
/// to 0.0 for a segment whose [`rim_core::Confidence::score`] is 0
/// (a degraded stretch contributes proportionally less displacement
/// instead of diverging the fused track).
pub fn segment_weight(segment: &SegmentEstimate, min_confidence: f64) -> f64 {
    if min_confidence <= 0.0 {
        return 1.0;
    }
    (segment.confidence.score() / min_confidence).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rim_channel::floorplan::Floorplan;
    use rim_core::pipeline::{Confidence, MotionEstimate, SegmentEstimate, SegmentKind};
    use rim_core::Error;

    /// Builds a synthetic estimate: constant speed, no rotation, fully
    /// confident.
    fn synthetic_estimate(n: usize, fs: f64, v: f64) -> MotionEstimate {
        MotionEstimate {
            sample_rate_hz: fs,
            movement_indicator: vec![0.0; n],
            moving: vec![true; n],
            speed_mps: vec![v; n],
            heading_device: vec![Some(0.0); n],
            angular_rate: vec![0.0; n],
            segments: vec![SegmentEstimate {
                start: 0,
                end: n,
                kind: SegmentKind::Translation,
                distance_m: v * n as f64 / fs,
                heading_device: Some(0.0),
                rotation_rad: 0.0,
                confidence: Confidence {
                    peak_margin: 0.2,
                    interpolated_fraction: 0.0,
                    alignment_coverage: 1.0,
                },
            }],
        }
    }

    fn unweighted() -> Fuser {
        Fuser::builder().confidence_floor(0.0).build().unwrap()
    }

    #[test]
    fn fuse_straight_line() {
        let est = synthetic_estimate(200, 100.0, 1.0);
        let gyro = vec![0.0; 200];
        let track = unweighted().fuse(&est, &gyro).unwrap();
        let end = *track.last().unwrap();
        assert!((end.x - 2.0).abs() < 1e-9, "{end:?}");
        assert!(end.y.abs() < 1e-12);
    }

    #[test]
    fn fuse_quarter_turn() {
        // Constant gyro rate turning 90° over the trace: the track curves.
        let n = 200;
        let fs = 100.0;
        let est = synthetic_estimate(n, fs, 1.0);
        let w = std::f64::consts::FRAC_PI_2 / (n as f64 / fs);
        let gyro = vec![w; n];
        let track = unweighted().fuse(&est, &gyro).unwrap();
        let end = *track.last().unwrap();
        // An arc of length 2 with 90° net turn: endpoint at (R, R) with
        // R = 2/(π/2) ≈ 1.27.
        let r = 2.0 / std::f64::consts::FRAC_PI_2;
        assert!((end.x - r).abs() < 0.05, "{end:?}");
        assert!((end.y - r).abs() < 0.05, "{end:?}");
    }

    #[test]
    fn stationary_samples_do_not_move() {
        let mut est = synthetic_estimate(100, 100.0, 1.0);
        for m in est.moving.iter_mut() {
            *m = false;
        }
        let start = Point2::new(1.0, 1.0);
        let fuser = Fuser::builder()
            .confidence_floor(0.0)
            .initial_position(start)
            .build()
            .unwrap();
        let track = fuser.fuse(&est, &vec![0.0; 100]).unwrap();
        assert!(track.iter().all(|p| p.distance(start) < 1e-12));
    }

    #[test]
    fn map_fusion_outputs_both_tracks() {
        let est = synthetic_estimate(400, 100.0, 0.5);
        let gyro = vec![0.0; 400];
        let fp = Floorplan::empty();
        let out = unweighted()
            .fuse_with_map(&est, &gyro, &fp, &MapFusionConfig::default())
            .unwrap();
        assert_eq!(out.dead_reckoned.len(), 400);
        assert_eq!(out.filtered.len(), 400);
        let dr_end = out.dead_reckoned.last().unwrap();
        let pf_end = out.filtered.last().unwrap();
        assert!((dr_end.x - 2.0).abs() < 1e-6);
        assert!(pf_end.distance(*dr_end) < 0.3, "filter tracks the motion");
    }

    #[test]
    fn weighted_fusion_downweights_low_confidence_segments() {
        // Two back-to-back 1 m segments; the second is badly degraded.
        let n = 200;
        let fs = 100.0;
        let mut est = synthetic_estimate(n, fs, 1.0);
        let good = est.segments[0].clone();
        est.segments[0].end = n / 2;
        est.segments[0].distance_m = 1.0;
        est.segments.push(SegmentEstimate {
            start: n / 2,
            end: n,
            distance_m: 1.0,
            confidence: Confidence {
                peak_margin: 0.02,
                interpolated_fraction: 0.8,
                alignment_coverage: 0.3,
            },
            ..good
        });
        let gyro = vec![0.0; n];
        let full = unweighted().fuse(&est, &gyro).unwrap();
        let weighted = Fuser::builder()
            .confidence_floor(0.5)
            .build()
            .unwrap()
            .fuse(&est, &gyro)
            .unwrap();
        let (full_end, wtd_end) = (full.last().unwrap(), weighted.last().unwrap());
        assert!((full_end.x - 2.0).abs() < 1e-9, "{full_end:?}");
        assert!(
            (wtd_end.x - 1.0).abs() < 0.1,
            "degraded second metre nearly vanishes: {wtd_end:?}"
        );
        // Confident segments are untouched.
        assert_eq!(full[n / 2 - 1], weighted[n / 2 - 1]);
    }

    #[test]
    fn mismatched_gyro_length_is_a_typed_error() {
        let est = synthetic_estimate(10, 100.0, 1.0);
        let mismatch = Error::GyroLengthMismatch {
            estimate: 10,
            gyro: 5,
        };
        let err = unweighted().fuse(&est, &[0.0; 5]).unwrap_err();
        assert_eq!(err, mismatch);
        let err = unweighted()
            .fuse_with_map(
                &est,
                &[0.0; 5],
                &Floorplan::empty(),
                &MapFusionConfig::default(),
            )
            .unwrap_err();
        assert_eq!(err, mismatch);
    }
}
