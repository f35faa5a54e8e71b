//! Fig. 12 — accuracy of heading direction.
//!
//! Paper: sweeping a 90° range in 10° steps (plus opposites) with the
//! hexagonal array, most headings resolve to the nearest multiple of 30°;
//! overall mean error 6.1°, >90 % within 10°.

use crate::env::{self, hexagonal_array};
use crate::report::{ErrorStats, Report};
use rim_channel::trajectory::{line, OrientationMode};
use rim_channel::ChannelSimulator;
use rim_core::{Rim, RimConfig};
use rim_csi::LossModel;
use rim_dsp::stats::angle_diff;

/// Runs the experiment.
pub fn run(fast: bool) -> Report {
    let mut report = Report::new(
        "Fig. 12",
        "Accuracy of heading direction",
        "mean error 6.1°, >90% within 10° (discrete 30° direction set)",
    );
    let fs = env::SAMPLE_RATE;
    let geo = hexagonal_array();

    // The paper's direction set: −90°..0° in 10° steps and each opposite.
    let step = if fast { 30 } else { 10 };
    let mut directions: Vec<f64> = (-90..=0).step_by(step).map(|d| d as f64).collect();
    let opposites: Vec<f64> = directions.iter().map(|d| d + 180.0).collect();
    directions.extend(opposites);

    let mut errors = Vec::new();
    let mut aligned_errors = Vec::new();
    let mut deviated_errors = Vec::new();
    let mut per_direction = Vec::new();
    for (k, &dir) in directions.iter().enumerate() {
        let sim = ChannelSimulator::open_lab(7 + (k % 3) as u64);
        let traj = line(
            env::lab_start(k),
            dir.to_radians(),
            1.0,
            1.0,
            fs,
            OrientationMode::Fixed(0.0),
        );
        let dense = env::record(&sim, &geo, &traj, k as u64, LossModel::None, None);
        let est = Rim::new(geo.clone(), RimConfig::for_sample_rate(fs))
            .unwrap()
            .analyze(&dense)
            .unwrap();
        let err = match est.segments.first().and_then(|s| s.heading_device) {
            Some(h) => angle_diff(h, dir.to_radians()),
            None => std::f64::consts::PI, // total miss
        };
        errors.push(err);
        // "Well-aligned" = the direction is a multiple of 30°.
        if (dir.rem_euclid(30.0)).abs() < 1e-9 {
            aligned_errors.push(err);
        } else {
            deviated_errors.push(err);
        }
        per_direction.push((dir, err.to_degrees()));
    }

    for (dir, err) in &per_direction {
        report.row(format!("heading {dir:>6.0}°"), format!("error {err:>5.1}°"));
    }
    let stats = ErrorStats::of(&errors);
    report.row("overall", stats.fmt_deg());
    let within10 = errors
        .iter()
        .filter(|&&e| e <= 10f64.to_radians() + 1e-9)
        .count() as f64
        / errors.len() as f64;
    report.row("within 10°", format!("{:.0} %", within10 * 100.0));
    if !aligned_errors.is_empty() {
        report.row(
            "well-aligned directions",
            ErrorStats::of(&aligned_errors).fmt_deg(),
        );
    }
    if !deviated_errors.is_empty() {
        report.row(
            "deviated directions",
            ErrorStats::of(&deviated_errors).fmt_deg(),
        );
    }

    // Extension (paper §7 future work): continuous heading refinement by
    // prominence-weighted interpolation between adjacent directions.
    let mut cont_errors = Vec::new();
    for (k, &dir) in directions.iter().enumerate() {
        let sim = ChannelSimulator::open_lab(7 + (k % 3) as u64);
        let traj = line(
            env::lab_start(k),
            dir.to_radians(),
            1.0,
            1.0,
            fs,
            OrientationMode::Fixed(0.0),
        );
        let dense = env::record(&sim, &geo, &traj, k as u64, LossModel::None, None);
        let mut config = RimConfig::for_sample_rate(fs);
        config.continuous_heading = true;
        let est = Rim::new(geo.clone(), config)
            .unwrap()
            .analyze(&dense)
            .unwrap();
        let err = match est.segments.first().and_then(|s| s.heading_device) {
            Some(h) => angle_diff(h, dir.to_radians()),
            None => std::f64::consts::PI,
        };
        cont_errors.push(err);
    }
    report.row(
        "with continuous refinement (§7 ext.)",
        ErrorStats::of(&cont_errors).fmt_deg(),
    );
    report
}

#[cfg(test)]
mod tests {
    #[test]
    fn aligned_headings_resolve_exactly() {
        let r = super::run(true);
        let overall = r.rows.iter().find(|(l, _)| l == "overall").unwrap();
        let mean: f64 = overall
            .1
            .split("mean ")
            .nth(1)
            .unwrap()
            .split('°')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!(mean < 15.0, "mean heading error {mean}°");
    }
}
