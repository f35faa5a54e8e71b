//! The scenario zoo: a named, seeded corpus of motion workloads.
//!
//! Every bench and CLI entry point used to exercise the same straight
//! open-lab walk, which leaves the paper's device-agnostic claim
//! untested. This module fixes the *motion* axis of that matrix: seven
//! canonical workloads — walking, running, stop-and-go, stairs-like
//! pauses, a cart push, random shaking, and a rotation-while-translating
//! swinging turn — each a named spec with a default seed, buildable at
//! any sample rate. The device axis (bandwidth, antenna count, sample
//! rate) is orthogonal and lives with the consumers: the CLI's
//! `--array`/`--bandwidth`/`--rate` options, `perfbench`'s device
//! shapes, and the device table of rim-bench's scenario-zoo gate test.
//!
//! Determinism contract: `build(name, start, fs, seed)` is a pure
//! function of its arguments. Only `shaking` consumes the seed (its
//! waypoints are drawn from a seeded RNG); every other scenario is
//! seed-independent, and the seed instead feeds the CSI/IMU recorders
//! layered on top.

use crate::trajectory::{
    arc, dwell, gait_line, line_ramped, shake, stop_and_go, Gait, OrientationMode, Trajectory,
};
use rim_dsp::geom::Point2;

/// One named motion workload of the corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioSpec {
    /// Stable name, accepted by `rim simulate --scenario NAME` and used
    /// as the cell key of the scenario-zoo gate.
    pub name: &'static str,
    /// One-line description for usage text and reports.
    pub summary: &'static str,
    /// Default RNG seed (only `shaking` draws from it directly; the
    /// rest pass it on to the recorder).
    pub default_seed: u64,
}

/// The seven zoo motions, in canonical order.
pub const ZOO: &[ScenarioSpec] = &[
    ScenarioSpec {
        name: "walking",
        summary: "8 m straight walk, per-step speed surges at ~2 Hz cadence",
        default_seed: 21,
    },
    ScenarioSpec {
        name: "running",
        summary: "12 m run, strong push-off surges with sub-0.3 s lulls",
        default_seed: 22,
    },
    ScenarioSpec {
        name: "stop_and_go",
        summary: "three 2 m moves separated by 1.5 s standstills",
        default_seed: 23,
    },
    ScenarioSpec {
        name: "stairs_pause",
        summary: "eight 0.5 m risers with a 1 s pause on every step",
        default_seed: 24,
    },
    ScenarioSpec {
        name: "cart_push",
        summary: "6 m trapezoidal cart push (ramp up, cruise, ramp down)",
        default_seed: 25,
    },
    ScenarioSpec {
        name: "shaking",
        summary: "4 s random hand shake inside a 12 cm disc",
        default_seed: 26,
    },
    ScenarioSpec {
        name: "rotation_while_translating",
        summary: "quarter-circle swinging turn, 1.5 m radius at 0.8 m/s",
        default_seed: 27,
    },
];

/// Looks a scenario up by name.
pub fn spec(name: &str) -> Option<&'static ScenarioSpec> {
    ZOO.iter().find(|s| s.name == name)
}

/// The `|`-joined name list for usage text and error messages.
pub fn name_list() -> String {
    ZOO.iter().map(|s| s.name).collect::<Vec<_>>().join(" | ")
}

/// Builds the named scenario's ground-truth trajectory starting at
/// `start`, sampled at `sample_rate_hz`. Returns `None` for a name the
/// zoo does not know (the caller owns the error message). `seed` only
/// affects `shaking`; see the module docs for the determinism contract.
pub fn build(name: &str, start: Point2, sample_rate_hz: f64, seed: u64) -> Option<Trajectory> {
    let fs = sample_rate_hz;
    match name {
        // Gait surges at walking cadence: alternating 1.25x/0.75x the
        // 1 m/s mean every half-metre step.
        "walking" => Some(gait_line(
            start,
            0.0,
            8.0,
            Gait {
                speed: 1.0,
                step_len: 0.5,
                surge: 0.25,
            },
            fs,
            OrientationMode::FollowPath,
        )),
        // Running: 2.4 m/s mean with 40 % surges every 0.4 m. The slow
        // phase lasts 0.4/(2.4*0.6) ≈ 0.28 s — a quiet accelerometer
        // lull long enough to fool a bare stance window but shorter
        // than the arbitrated window+sustain span (0.32 s at 200 Hz),
        // which is exactly the ZUPT trap this scenario guards.
        "running" => Some(gait_line(
            start,
            0.2,
            12.0,
            Gait {
                speed: 2.4,
                step_len: 0.4,
                surge: 0.4,
            },
            fs,
            OrientationMode::FollowPath,
        )),
        "stop_and_go" => Some(stop_and_go(start, 0.0, 2.0, 1.5, 3, 1.0, fs)),
        // Stairs-like rhythm: short risers at climbing speed, a genuine
        // pause on every step (long enough for stance even at reduced
        // sample rates).
        "stairs_pause" => Some(stop_and_go(start, 0.4, 0.5, 1.0, 8, 0.7, fs)),
        "cart_push" => Some(line_ramped(
            start,
            0.0,
            6.0,
            0.9,
            0.4,
            fs,
            OrientationMode::Fixed(0.0),
        )),
        // A second of settling before the shake so the pipeline's
        // movement detector sees the transition both ways.
        "shaking" => {
            let mut t = dwell(start, 0.0, 1.0, fs);
            t.extend(&shake(start, 0.0, 0.12, 4.0, fs, seed));
            Some(t)
        }
        // The swinging turn of paper §7: translate along a circle while
        // the orientation follows the tangent. Starts at `start` moving
        // along +x, curving counter-clockwise around a centre 1.5 m to
        // the left.
        "rotation_while_translating" => Some(arc(
            Point2::new(start.x, start.y + 1.5),
            1.5,
            -std::f64::consts::FRAC_PI_2,
            std::f64::consts::FRAC_PI_2,
            0.8,
            fs,
        )),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_zoo_name_builds_and_is_deterministic() {
        let start = Point2::new(0.5, 1.0);
        for s in ZOO {
            let a = build(s.name, start, 100.0, s.default_seed).expect(s.name);
            let b = build(s.name, start, 100.0, s.default_seed).expect(s.name);
            assert!(!a.is_empty(), "{} is non-empty", s.name);
            assert_eq!(a, b, "{} is deterministic", s.name);
            assert!(
                a.poses()
                    .iter()
                    .all(|p| p.pos.x.is_finite() && p.pos.y.is_finite()),
                "{} stays finite",
                s.name
            );
        }
        assert!(build("bogus", start, 100.0, 0).is_none());
    }

    #[test]
    fn scenarios_start_where_asked() {
        let start = Point2::new(-1.0, 2.0);
        for s in ZOO {
            let t = build(s.name, start, 100.0, s.default_seed).expect(s.name);
            assert!(
                t.pose(0).pos.distance(start) < 1e-9,
                "{} starts at the requested point",
                s.name
            );
        }
    }

    #[test]
    fn moving_scenarios_cover_ground_and_shaking_stays_put() {
        let start = Point2::ORIGIN;
        for s in ZOO {
            let t = build(s.name, start, 100.0, s.default_seed).expect(s.name);
            let net = t.pose(t.len() - 1).pos.distance(start);
            if s.name == "shaking" {
                assert!(net < 0.2, "shaking stays inside its disc, net {net}");
            } else {
                assert!(net > 1.0, "{} covers ground, net {net}", s.name);
            }
        }
    }

    #[test]
    fn spec_lookup_and_name_list_agree() {
        assert_eq!(spec("running").unwrap().default_seed, 22);
        assert!(spec("nope").is_none());
        for s in ZOO {
            assert!(name_list().contains(s.name));
        }
    }
}
