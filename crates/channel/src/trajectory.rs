//! Ground-truth motion: device poses over time and workload generators.
//!
//! A [`Trajectory`] is the uniformly-sampled pose (position + device
//! orientation) of the tracked device. The generators produce the motion
//! patterns of the paper's evaluation: straight desktop/cart pushes
//! (Fig. 11), direction sweeps (Fig. 12), in-place rotations (Fig. 13),
//! stop-and-go traces (Fig. 7), back-and-forth moves (Fig. 8) and polyline
//! floor traces with *sideway* segments where the heading changes while the
//! device orientation does not (Fig. 20).
//!
//! Device orientation is tracked separately from heading precisely because
//! RIM distinguishes them: a magnetometer reports orientation, RIM reports
//! heading.

use rim_dsp::geom::{Point2, Vec2};

/// Pose of the device at one sample instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pose {
    /// Device reference-point position, metres.
    pub pos: Point2,
    /// Device orientation (rotation of the device frame relative to the
    /// world frame), radians.
    pub orientation: f64,
}

/// A uniformly-sampled device trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    sample_rate_hz: f64,
    poses: Vec<Pose>,
}

impl Trajectory {
    /// Creates a trajectory from raw poses.
    ///
    /// # Panics
    /// Panics if the sample rate is not positive and finite.
    pub fn new(sample_rate_hz: f64, poses: Vec<Pose>) -> Self {
        assert!(
            sample_rate_hz > 0.0 && sample_rate_hz.is_finite(),
            "sample rate must be positive"
        );
        Self {
            sample_rate_hz,
            poses,
        }
    }

    /// Sampling rate in Hz.
    pub fn sample_rate_hz(&self) -> f64 {
        self.sample_rate_hz
    }

    /// Sample interval in seconds.
    pub fn dt(&self) -> f64 {
        1.0 / self.sample_rate_hz
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.poses.len()
    }

    /// True when there are no samples.
    pub fn is_empty(&self) -> bool {
        self.poses.is_empty()
    }

    /// Pose at sample index `i`.
    pub fn pose(&self, i: usize) -> Pose {
        self.poses[i]
    }

    /// All poses.
    pub fn poses(&self) -> &[Pose] {
        &self.poses
    }

    /// Time of sample `i`, seconds.
    pub fn time(&self, i: usize) -> f64 {
        i as f64 / self.sample_rate_hz
    }

    /// Total duration, seconds.
    pub fn duration(&self) -> f64 {
        if self.poses.is_empty() {
            0.0
        } else {
            (self.poses.len() - 1) as f64 / self.sample_rate_hz
        }
    }

    /// Total path length, metres.
    pub fn total_distance(&self) -> f64 {
        self.poses
            .windows(2)
            .map(|w| w[0].pos.distance(w[1].pos))
            .sum()
    }

    /// Cumulative travelled distance at every sample, metres.
    pub fn cumulative_distance(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.poses.len());
        let mut acc = 0.0;
        for (i, p) in self.poses.iter().enumerate() {
            if i > 0 {
                acc += self.poses[i - 1].pos.distance(p.pos);
            }
            out.push(acc);
        }
        out
    }

    /// Instantaneous ground-truth speed at each sample (central
    /// differences; one-sided at the ends), m/s.
    pub fn speeds(&self) -> Vec<f64> {
        let n = self.poses.len();
        let dt = self.dt();
        (0..n)
            .map(|i| {
                let (a, b, span) = if n < 2 {
                    return 0.0;
                } else if i == 0 {
                    (0, 1, dt)
                } else if i == n - 1 {
                    (n - 2, n - 1, dt)
                } else {
                    (i - 1, i + 1, 2.0 * dt)
                };
                self.poses[a].pos.distance(self.poses[b].pos) / span
            })
            .collect()
    }

    /// Ground-truth heading (direction of motion) at each sample, or `None`
    /// while stationary.
    pub fn headings(&self) -> Vec<Option<f64>> {
        let n = self.poses.len();
        (0..n)
            .map(|i| {
                if n < 2 {
                    return None;
                }
                let (a, b) = if i == 0 {
                    (0, 1)
                } else if i == n - 1 {
                    (n - 2, n - 1)
                } else {
                    (i - 1, i + 1)
                };
                let v = self.poses[a].pos.to(self.poses[b].pos);
                if v.norm() < 1e-9 {
                    None
                } else {
                    Some(v.angle())
                }
            })
            .collect()
    }

    /// Appends another trajectory (sample rates must match).
    ///
    /// # Panics
    /// Panics on sample-rate mismatch.
    pub fn extend(&mut self, other: &Trajectory) {
        assert!(
            (self.sample_rate_hz - other.sample_rate_hz).abs() < 1e-9,
            "sample-rate mismatch"
        );
        self.poses.extend_from_slice(&other.poses);
    }

    /// World position of an antenna mounted at a device-frame offset.
    pub fn antenna_position(&self, i: usize, offset: Vec2) -> Point2 {
        let p = self.poses[i];
        p.pos + offset.rotate(p.orientation)
    }
}

/// How device orientation evolves along a generated path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OrientationMode {
    /// Orientation follows the direction of motion (normal push).
    FollowPath,
    /// Orientation stays fixed at the given angle — produces the *sideway*
    /// movements of paper §6.3.3 whenever the path direction differs.
    Fixed(f64),
}

/// Straight-line move of `distance` metres in direction `heading` at
/// constant `speed`, starting at `start`; the device is oriented per
/// `orientation`.
pub fn line(
    start: Point2,
    heading: f64,
    distance: f64,
    speed: f64,
    sample_rate_hz: f64,
    orientation: OrientationMode,
) -> Trajectory {
    assert!(distance >= 0.0 && speed > 0.0, "invalid line parameters");
    let n = ((distance / speed) * sample_rate_hz).round() as usize + 1;
    let dir = Vec2::from_angle(heading);
    let step = speed / sample_rate_hz;
    let orient = match orientation {
        OrientationMode::FollowPath => heading,
        OrientationMode::Fixed(a) => a,
    };
    let poses = (0..n)
        .map(|k| Pose {
            pos: start + dir * (step * k as f64),
            orientation: orient,
        })
        .collect();
    Trajectory::new(sample_rate_hz, poses)
}

/// Straight-line move with a trapezoidal speed profile: accelerate at
/// `accel` m/s² to at most `peak_speed`, cruise, then decelerate to stop
/// exactly after `distance` metres (triangular profile when the distance
/// is too short to reach `peak_speed`). This is how physical carts and
/// hands actually move, and it is what gives inertial sensors something
/// to measure.
pub fn line_ramped(
    start: Point2,
    heading: f64,
    distance: f64,
    peak_speed: f64,
    accel: f64,
    sample_rate_hz: f64,
    orientation: OrientationMode,
) -> Trajectory {
    assert!(
        distance >= 0.0 && peak_speed > 0.0 && accel > 0.0,
        "invalid ramped-line parameters"
    );
    let dir = Vec2::from_angle(heading);
    let orient = match orientation {
        OrientationMode::FollowPath => heading,
        OrientationMode::Fixed(a) => a,
    };
    let dt = 1.0 / sample_rate_hz;
    let mut poses = vec![Pose {
        pos: start,
        orientation: orient,
    }];
    let mut s = 0.0;
    let mut v = 0.0;
    while s < distance {
        // Speed ceiling imposed by the need to stop in the remaining
        // distance.
        let remaining = distance - s;
        let v_stop = (2.0 * accel * remaining).sqrt();
        let v_target = peak_speed.min(v_stop);
        if v < v_target {
            v = (v + accel * dt).min(v_target);
        } else {
            v = (v - accel * dt).max(v_target.min(v));
        }
        // Guarantee forward progress so the loop terminates even when the
        // commanded speed underflows near the stop point.
        let step = (v * dt).max(1e-6);
        s += step;
        poses.push(Pose {
            pos: start + dir * s.min(distance),
            orientation: orient,
        });
    }
    Trajectory::new(sample_rate_hz, poses)
}

/// Constant-speed traversal of a waypoint polyline.
pub fn polyline(
    waypoints: &[Point2],
    speed: f64,
    sample_rate_hz: f64,
    orientation: OrientationMode,
) -> Trajectory {
    assert!(speed > 0.0, "speed must be positive");
    assert!(
        waypoints.len() >= 2,
        "polyline needs at least two waypoints"
    );
    let mut poses = Vec::new();
    let step = speed / sample_rate_hz;
    let mut leftover = 0.0;
    for w in waypoints.windows(2) {
        let seg_vec = w[0].to(w[1]);
        let seg_len = seg_vec.norm();
        if seg_len < 1e-12 {
            continue;
        }
        let dir = seg_vec.normalize();
        let heading = dir.angle();
        let orient = match orientation {
            OrientationMode::FollowPath => heading,
            OrientationMode::Fixed(a) => a,
        };
        let mut s = leftover;
        while s < seg_len {
            poses.push(Pose {
                pos: w[0] + dir * s,
                orientation: orient,
            });
            s += step;
        }
        leftover = s - seg_len;
    }
    // Always land exactly on the final waypoint.
    let last = *waypoints.last().unwrap();
    let final_heading = waypoints[waypoints.len() - 2].to(last).angle();
    poses.push(Pose {
        pos: last,
        orientation: match orientation {
            OrientationMode::FollowPath => final_heading,
            OrientationMode::Fixed(a) => a,
        },
    });
    Trajectory::new(sample_rate_hz, poses)
}

/// Forward `distance`, pause, then backward to the start — the Fig. 8
/// back-and-forth workload. The device orientation stays fixed throughout
/// (at `heading` for [`OrientationMode::FollowPath`], which here means
/// "face the outbound direction", or at the given fixed angle) — the
/// device never turns around between the phases.
pub fn back_and_forth(
    start: Point2,
    heading: f64,
    distance: f64,
    speed: f64,
    pause_s: f64,
    sample_rate_hz: f64,
    orientation: OrientationMode,
) -> Trajectory {
    let orient = match orientation {
        OrientationMode::FollowPath => heading,
        OrientationMode::Fixed(a) => a,
    };
    let mut t = line(
        start,
        heading,
        distance,
        speed,
        sample_rate_hz,
        OrientationMode::Fixed(orient),
    );
    let end = t.poses().last().unwrap().pos;
    let hold = dwell(end, orient, pause_s, sample_rate_hz);
    t.extend(&hold);
    let back = line(
        end,
        heading + std::f64::consts::PI,
        distance,
        speed,
        sample_rate_hz,
        OrientationMode::Fixed(orient),
    );
    t.extend(&back);
    t
}

/// Arc motion: the device translates along a circular arc of `radius`
/// metres while its orientation follows the tangent — the *swinging turn*
/// (move while turning) that paper §7 lists as an open problem for RIM's
/// rotation sensing. Positive `arc_angle` turns counter-clockwise.
///
/// # Panics
/// Panics for non-positive radius/speed or zero angle.
pub fn arc(
    centre: Point2,
    radius: f64,
    start_angle: f64,
    arc_angle: f64,
    speed: f64,
    sample_rate_hz: f64,
) -> Trajectory {
    assert!(radius > 0.0 && speed > 0.0, "invalid arc parameters");
    assert!(arc_angle != 0.0, "zero arc");
    let arc_len = radius * arc_angle.abs();
    let n = ((arc_len / speed) * sample_rate_hz).round() as usize + 1;
    let poses = (0..n)
        .map(|k| {
            let t = k as f64 / (n.max(2) - 1) as f64;
            let ang = start_angle + arc_angle * t;
            let pos = centre + Vec2::from_angle(ang) * radius;
            // Tangent direction: +90° off the radius for CCW, −90° for CW.
            let orientation = ang + std::f64::consts::FRAC_PI_2 * arc_angle.signum();
            Pose { pos, orientation }
        })
        .collect();
    Trajectory::new(sample_rate_hz, poses)
}

/// Stationary dwell of `duration_s` seconds.
pub fn dwell(pos: Point2, orientation: f64, duration_s: f64, sample_rate_hz: f64) -> Trajectory {
    let n = (duration_s * sample_rate_hz).round() as usize;
    Trajectory::new(
        sample_rate_hz,
        (0..n).map(|_| Pose { pos, orientation }).collect(),
    )
}

/// Stop-and-go: alternating moves of `move_dist` and dwells of `pause_s`
/// along a fixed direction (the Fig. 7 movement-detection workload).
pub fn stop_and_go(
    start: Point2,
    heading: f64,
    move_dist: f64,
    pause_s: f64,
    segments: usize,
    speed: f64,
    sample_rate_hz: f64,
) -> Trajectory {
    let mut t = Trajectory::new(sample_rate_hz, Vec::new());
    let mut cur = start;
    for k in 0..segments {
        let seg = line(
            cur,
            heading,
            move_dist,
            speed,
            sample_rate_hz,
            OrientationMode::Fixed(heading),
        );
        cur = seg.poses().last().unwrap().pos;
        t.extend(&seg);
        if k + 1 < segments {
            t.extend(&dwell(cur, heading, pause_s, sample_rate_hz));
        }
    }
    t
}

/// The gait shape for [`gait_line`]: mean speed, step length, and the
/// per-step surge fraction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gait {
    /// Mean forward speed, m/s.
    pub speed: f64,
    /// Metres per step — one surge/ease alternation per step.
    pub step_len: f64,
    /// Fractional speed modulation in `[0, 1)`: the walk alternates
    /// `speed·(1+surge)` and `speed·(1−surge)`.
    pub surge: f64,
}

/// Gait-modulated straight walk: like [`line()`] but the speed surges and
/// eases once per step — the push-off/heel-strike cadence of a walking
/// or running human. A higher speed/surge with a longer step models
/// running; the surge transients are what a body-worn IMU actually
/// measures, and the inter-step lulls are the stance-detector trap the
/// ZUPT arbitration has to survive.
///
/// # Panics
/// Panics for negative distance, non-positive speed/step length, or a
/// surge outside `[0, 1)`.
pub fn gait_line(
    start: Point2,
    heading: f64,
    distance: f64,
    gait: Gait,
    sample_rate_hz: f64,
    orientation: OrientationMode,
) -> Trajectory {
    assert!(
        distance >= 0.0 && gait.speed > 0.0 && gait.step_len > 0.0,
        "invalid gait parameters"
    );
    assert!((0.0..1.0).contains(&gait.surge), "surge must be in [0, 1)");
    let dir = Vec2::from_angle(heading);
    let orient = match orientation {
        OrientationMode::FollowPath => heading,
        OrientationMode::Fixed(a) => a,
    };
    let dt = 1.0 / sample_rate_hz;
    let mut poses = vec![Pose {
        pos: start,
        orientation: orient,
    }];
    let mut s = 0.0;
    while s < distance {
        let step_idx = (s / gait.step_len) as usize;
        let v = if step_idx.is_multiple_of(2) {
            gait.speed * (1.0 + gait.surge)
        } else {
            gait.speed * (1.0 - gait.surge)
        };
        s += v * dt;
        poses.push(Pose {
            pos: start + dir * s.min(distance),
            orientation: orient,
        });
    }
    Trajectory::new(sample_rate_hz, poses)
}

/// Random hand shake: the device lurches between seeded random targets
/// inside a disc of `amplitude` metres around `centre`, a few times per
/// second, for `duration_s` seconds — the adversarial no-net-motion
/// workload of the scenario zoo. Orientation stays fixed. Deterministic
/// for a given seed.
///
/// # Panics
/// Panics for non-positive amplitude/duration.
pub fn shake(
    centre: Point2,
    orientation: f64,
    amplitude: f64,
    duration_s: f64,
    sample_rate_hz: f64,
    seed: u64,
) -> Trajectory {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    assert!(
        amplitude > 0.0 && duration_s > 0.0,
        "invalid shake parameters"
    );
    const TWITCH_HZ: f64 = 4.0;
    let mut rng = StdRng::seed_from_u64(seed);
    let n_way = (duration_s * TWITCH_HZ).ceil() as usize + 1;
    let mut way = vec![centre];
    for _ in 1..=n_way {
        // √u radius for a uniform draw over the disc.
        let r = amplitude * rng.gen_range(0.0f64..=1.0).sqrt();
        let a = rng.gen_range(0.0..std::f64::consts::TAU);
        way.push(centre + Vec2::from_angle(a) * r);
    }
    let n = (duration_s * sample_rate_hz).round() as usize + 1;
    let poses = (0..n)
        .map(|k| {
            let t = k as f64 / sample_rate_hz * TWITCH_HZ;
            let i = (t as usize).min(way.len() - 2);
            let frac = (t - i as f64).clamp(0.0, 1.0);
            Pose {
                pos: way[i] + way[i].to(way[i + 1]) * frac,
                orientation,
            }
        })
        .collect();
    Trajectory::new(sample_rate_hz, poses)
}

/// In-place rotation about `centre` by `total_angle` radians (sign gives
/// direction) at `angular_speed` rad/s. The device reference point stays at
/// `centre`; antennas sweep circles around it.
pub fn rotate_in_place(
    centre: Point2,
    start_orientation: f64,
    total_angle: f64,
    angular_speed: f64,
    sample_rate_hz: f64,
) -> Trajectory {
    assert!(angular_speed > 0.0, "angular speed must be positive");
    let n = ((total_angle.abs() / angular_speed) * sample_rate_hz).round() as usize + 1;
    let step = total_angle / (n.max(2) - 1) as f64;
    Trajectory::new(
        sample_rate_hz,
        (0..n)
            .map(|k| Pose {
                pos: centre,
                orientation: start_orientation + step * k as f64,
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn line_distance_and_speed() {
        let t = line(
            Point2::ORIGIN,
            0.0,
            2.0,
            1.0,
            100.0,
            OrientationMode::FollowPath,
        );
        assert!((t.total_distance() - 2.0).abs() < 1e-9);
        assert!((t.duration() - 2.0).abs() < 1e-9);
        let speeds = t.speeds();
        for &v in &speeds[1..speeds.len() - 1] {
            assert!((v - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn line_heading_and_orientation() {
        let t = line(
            Point2::ORIGIN,
            FRAC_PI_2,
            1.0,
            1.0,
            50.0,
            OrientationMode::FollowPath,
        );
        for h in t.headings().into_iter().flatten() {
            assert!((h - FRAC_PI_2).abs() < 1e-9);
        }
        let t2 = line(
            Point2::ORIGIN,
            FRAC_PI_2,
            1.0,
            1.0,
            50.0,
            OrientationMode::Fixed(0.3),
        );
        assert!(t2
            .poses()
            .iter()
            .all(|p| (p.orientation - 0.3).abs() < 1e-12));
    }

    #[test]
    fn line_ramped_profile() {
        let t = line_ramped(
            Point2::ORIGIN,
            0.0,
            2.0,
            1.0,
            2.0,
            200.0,
            OrientationMode::FollowPath,
        );
        assert!((t.total_distance() - 2.0).abs() < 0.01);
        let speeds = t.speeds();
        // Starts and ends slow, cruises at the peak in the middle.
        assert!(speeds[1] < 0.3, "starts slow: {}", speeds[1]);
        let mid = speeds[speeds.len() / 2];
        assert!((mid - 1.0).abs() < 0.05, "cruise at peak: {mid}");
        assert!(*speeds.last().unwrap() < 0.3, "ends slow");
        // Monotone position progress.
        for w in t.poses().windows(2) {
            assert!(w[1].pos.x >= w[0].pos.x);
        }
    }

    #[test]
    fn line_ramped_short_distance_is_triangular() {
        // Too short to reach 2 m/s at 1 m/s²: peak speed stays below.
        let t = line_ramped(
            Point2::ORIGIN,
            0.0,
            0.5,
            2.0,
            1.0,
            200.0,
            OrientationMode::FollowPath,
        );
        assert!((t.total_distance() - 0.5).abs() < 0.01);
        let peak = t.speeds().into_iter().fold(0.0f64, f64::max);
        assert!(peak < 1.2, "triangular profile peak {peak}");
    }

    #[test]
    fn polyline_hits_waypoints() {
        let wps = [
            Point2::new(0.0, 0.0),
            Point2::new(2.0, 0.0),
            Point2::new(2.0, 3.0),
        ];
        let t = polyline(&wps, 1.0, 100.0, OrientationMode::FollowPath);
        assert!((t.total_distance() - 5.0).abs() < 0.05);
        let last = t.poses().last().unwrap().pos;
        assert!(last.distance(wps[2]) < 1e-9);
    }

    #[test]
    fn polyline_sideway_keeps_orientation() {
        let wps = [
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(1.0, 1.0),
        ];
        let t = polyline(&wps, 0.5, 100.0, OrientationMode::Fixed(0.0));
        assert!(t.poses().iter().all(|p| p.orientation == 0.0));
        // Heading changes to +90° in the second leg even though orientation
        // does not — a sideway movement.
        let hs = t.headings();
        let late = hs[t.len() - 2].unwrap();
        assert!((late - FRAC_PI_2).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "two waypoints")]
    fn polyline_rejects_single_point() {
        let _ = polyline(&[Point2::ORIGIN], 1.0, 100.0, OrientationMode::FollowPath);
    }

    #[test]
    fn back_and_forth_returns_to_start() {
        let t = back_and_forth(
            Point2::ORIGIN,
            0.0,
            1.0,
            0.5,
            0.5,
            100.0,
            OrientationMode::Fixed(0.0),
        );
        let last = t.poses().last().unwrap().pos;
        assert!(last.distance(Point2::ORIGIN) < 1e-6);
        assert!((t.total_distance() - 2.0).abs() < 0.02);
    }

    #[test]
    fn dwell_is_static() {
        let t = dwell(Point2::new(1.0, 2.0), 0.5, 1.0, 200.0);
        assert_eq!(t.len(), 200);
        assert_eq!(t.total_distance(), 0.0);
        assert!(t.speeds().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn stop_and_go_structure() {
        let t = stop_and_go(Point2::ORIGIN, 0.0, 1.0, 0.5, 3, 1.0, 100.0);
        // 3 moves of 1 m with 2 pauses in between.
        assert!((t.total_distance() - 3.0).abs() < 0.05);
        let speeds = t.speeds();
        let stationary = speeds.iter().filter(|&&v| v < 1e-9).count();
        assert!(
            stationary >= 90,
            "two 0.5 s pauses at 100 Hz, got {stationary}"
        );
    }

    #[test]
    fn arc_follows_circle_with_tangent_orientation() {
        let t = arc(Point2::ORIGIN, 2.0, 0.0, FRAC_PI_2, 1.0, 100.0);
        // Path length = r·θ = π.
        assert!((t.total_distance() - std::f64::consts::PI).abs() < 0.02);
        // Every pose stays on the circle.
        for p in t.poses() {
            assert!((p.pos.distance(Point2::ORIGIN) - 2.0).abs() < 1e-9);
        }
        // Orientation is tangent: at the start (angle 0, CCW) it points +y.
        assert!((t.pose(0).orientation - FRAC_PI_2).abs() < 1e-9);
        // Net orientation change equals the arc angle.
        let net = t.poses().last().unwrap().orientation - t.pose(0).orientation;
        assert!((net - FRAC_PI_2).abs() < 1e-9);
    }

    #[test]
    fn rotation_holds_position_and_sweeps_orientation() {
        let t = rotate_in_place(Point2::new(3.0, 3.0), 0.0, PI, 1.0, 100.0);
        assert!(t
            .poses()
            .iter()
            .all(|p| p.pos.distance(Point2::new(3.0, 3.0)) < 1e-12));
        let last = t.poses().last().unwrap().orientation;
        assert!((last - PI).abs() < 1e-9);
    }

    #[test]
    fn antenna_position_rotates_with_device() {
        let t = rotate_in_place(Point2::ORIGIN, 0.0, FRAC_PI_2, 1.0, 10.0);
        let offset = Vec2::new(0.1, 0.0);
        let p0 = t.antenna_position(0, offset);
        let p_end = t.antenna_position(t.len() - 1, offset);
        assert!((p0.x - 0.1).abs() < 1e-12);
        assert!(
            (p_end.y - 0.1).abs() < 1e-9,
            "antenna swung to +y: {p_end:?}"
        );
        // Radius preserved.
        assert!((p_end.distance(Point2::ORIGIN) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn cumulative_distance_monotone() {
        let t = line(
            Point2::ORIGIN,
            1.0,
            3.0,
            1.5,
            60.0,
            OrientationMode::FollowPath,
        );
        let cum = t.cumulative_distance();
        assert_eq!(cum.len(), t.len());
        assert_eq!(cum[0], 0.0);
        for w in cum.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert!((cum.last().unwrap() - t.total_distance()).abs() < 1e-9);
    }

    #[test]
    fn extend_panics_on_rate_mismatch() {
        let mut a = dwell(Point2::ORIGIN, 0.0, 0.1, 100.0);
        let b = dwell(Point2::ORIGIN, 0.0, 0.1, 200.0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| a.extend(&b)));
        assert!(result.is_err());
    }

    #[test]
    fn gait_line_surges_around_the_mean_speed() {
        let t = gait_line(
            Point2::ORIGIN,
            0.0,
            4.0,
            Gait {
                speed: 1.0,
                step_len: 0.5,
                surge: 0.25,
            },
            200.0,
            OrientationMode::FollowPath,
        );
        assert!((t.total_distance() - 4.0).abs() < 0.02);
        let speeds = t.speeds();
        let max = speeds.iter().cloned().fold(0.0, f64::max);
        let min = speeds[1..speeds.len() - 1]
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        assert!(max > 1.2 && max < 1.3, "push-off surge present: {max}");
        assert!(min < 0.8, "inter-step ease present: {min}");
        // Never moves backwards.
        for s in &speeds {
            assert!(*s >= 0.0);
        }
    }

    #[test]
    fn shake_is_seeded_and_bounded() {
        let a = shake(Point2::new(1.0, 2.0), 0.3, 0.08, 2.0, 100.0, 9);
        let b = shake(Point2::new(1.0, 2.0), 0.3, 0.08, 2.0, 100.0, 9);
        let c = shake(Point2::new(1.0, 2.0), 0.3, 0.08, 2.0, 100.0, 10);
        assert_eq!(a.len(), b.len());
        for (pa, pb) in a.poses().iter().zip(b.poses()) {
            assert_eq!(pa.pos.x, pb.pos.x);
            assert_eq!(pa.pos.y, pb.pos.y);
        }
        assert!(
            a.poses()
                .iter()
                .zip(c.poses())
                .any(|(pa, pc)| pa.pos.x != pc.pos.x),
            "different seed, different jitter"
        );
        for p in a.poses() {
            assert!(
                p.pos.distance(Point2::new(1.0, 2.0)) <= 0.08 + 1e-9,
                "excursion stays inside the amplitude disc"
            );
            assert_eq!(p.orientation, 0.3);
        }
        // Net displacement is (near) zero but plenty of path is covered.
        assert!(a.total_distance() > 0.3);
    }
}
