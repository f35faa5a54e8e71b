//! Diagnostics: terminal renderings of the pipeline's internal state.
//!
//! The paper's figures are heatmaps of alignment matrices (Fig. 5, Fig. 8)
//! and indicator traces (Fig. 7); when deploying RIM somewhere new, being
//! able to *look* at those same artifacts is how one debugs a bad antenna,
//! a mis-specified lag window or a quiet channel. Everything here renders
//! to plain text.

use crate::alignment::AlignmentMatrix;

/// Intensity ramp used by the heatmap, dark to bright.
const RAMP: &[u8] = b" .:-=+*#%@";

/// Renders an alignment matrix as an ASCII heatmap: lags on the vertical
/// axis (positive up, zero marked), time left to right, downsampled to at
/// most `max_cols` columns and `max_rows` lag rows. Each cell maps the
/// TRRS onto a 10-step brightness ramp after a per-matrix min/max
/// normalisation.
pub fn render_matrix(m: &AlignmentMatrix, max_cols: usize, max_rows: usize) -> String {
    let t_len = m.n_times();
    let n_lags = m.n_lags();
    if t_len == 0 || max_cols == 0 || max_rows == 0 {
        return String::from("(empty matrix)\n");
    }
    let col_stride = t_len.div_ceil(max_cols);
    let row_stride = n_lags.div_ceil(max_rows);

    // Render *prominence above each column's floor* — the quantity the
    // ridge detector uses — rather than raw TRRS, whose environment-
    // dependent floor would wash the ridge into the background.
    let prominence: Vec<Vec<f64>> = (0..t_len)
        .map(|t| {
            let floor = m.column_floor(t);
            m.row(t).iter().map(|&v| (v - floor).max(0.0)).collect()
        })
        .collect();
    let mut hi = f64::NEG_INFINITY;
    for row in &prominence {
        for &v in row {
            hi = hi.max(v);
        }
    }
    let lo = 0.0;
    let span = (hi - lo).max(1e-12);

    let mut out = String::new();
    // Render from the largest lag (top) downwards.
    let mut k = n_lags;
    while k > 0 {
        let kk = k - 1;
        if !kk.is_multiple_of(row_stride) {
            k -= 1;
            continue;
        }
        let lag = m.lag_of(kk);
        out.push_str(&format!("{lag:>5} |"));
        let mut t = 0;
        while t < t_len {
            // Average the block for stability.
            let mut acc = 0.0;
            let mut n = 0;
            for row in &prominence[t..(t + col_stride).min(t_len)] {
                acc += row[kk];
                n += 1;
            }
            let v = (acc / n as f64 - lo) / span;
            let idx = ((v * (RAMP.len() - 1) as f64).round() as usize).min(RAMP.len() - 1);
            out.push(RAMP[idx] as char);
            t += col_stride;
        }
        out.push('\n');
        k -= 1;
    }
    out.push_str(&format!(
        "      +{}\n       lag (samples) vertical, time → ({} columns ≈ {} samples each); prominence 0..{:.2}\n",
        "-".repeat(t_len.div_ceil(col_stride)),
        t_len.div_ceil(col_stride),
        col_stride,
        hi
    ));
    out
}

/// Renders a scalar trace (movement indicator, speed profile) as a
/// fixed-height ASCII sparkline with min/max annotations.
pub fn render_trace(values: &[f64], width: usize, height: usize) -> String {
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if finite.is_empty() || width == 0 || height == 0 {
        return String::from("(empty trace)\n");
    }
    let lo = finite.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = finite.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo).max(1e-12);
    let stride = values.len().div_ceil(width);
    let cols: Vec<Option<f64>> = (0..values.len())
        .step_by(stride)
        .map(|t| {
            let block: Vec<f64> = values[t..(t + stride).min(values.len())]
                .iter()
                .copied()
                .filter(|v| v.is_finite())
                .collect();
            if block.is_empty() {
                None
            } else {
                Some(block.iter().sum::<f64>() / block.len() as f64)
            }
        })
        .collect();
    let mut out = String::new();
    for row in (0..height).rev() {
        // A single row cannot show a gradient: previously every finite
        // cell cleared the row-0 threshold of 0, drawing a solid bar under
        // a max-only label. Use the mid-scale threshold instead and label
        // with the full range.
        let threshold = if height == 1 {
            0.5
        } else {
            row as f64 / (height - 1) as f64
        };
        let label = if height == 1 {
            format!("{lo:>8.3}..{hi:.3} ")
        } else if row == height - 1 {
            format!("{hi:>8.3} ")
        } else if row == 0 {
            format!("{lo:>8.3} ")
        } else {
            String::from("         ")
        };
        out.push_str(&label);
        for c in &cols {
            match c {
                Some(v) => {
                    let norm = (v - lo) / span;
                    out.push(if norm >= threshold { '█' } else { ' ' });
                }
                None => out.push('·'),
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ridge_matrix() -> AlignmentMatrix {
        // Ridge at lag +1 (index 3, W = 2).
        AlignmentMatrix::from_rows(2, &vec![vec![0.1, 0.2, 0.3, 0.9, 0.2]; 30])
    }

    #[test]
    fn heatmap_highlights_ridge() {
        let m = ridge_matrix();
        let art = render_matrix(&m, 20, 5);
        // The +1 lag row must be the brightest (all '@' after
        // normalisation).
        let ridge_line = art
            .lines()
            .find(|l| l.trim_start().starts_with("1 |"))
            .expect("+1 lag row present");
        assert!(ridge_line.contains('@'), "{ridge_line}");
        // A floor row contains no bright cells.
        let floor_line = art
            .lines()
            .find(|l| l.trim_start().starts_with("-2 |"))
            .expect("-2 lag row present");
        assert!(!floor_line.contains('@'), "{floor_line}");
    }

    #[test]
    fn heatmap_handles_empty_and_downsampling() {
        let empty = AlignmentMatrix::from_rows(1, &[]);
        assert!(render_matrix(&empty, 10, 5).contains("empty"));
        // Wide matrix downsampled to ≤ 8 columns.
        let m = ridge_matrix();
        let art = render_matrix(&m, 8, 5);
        let data_line = art.lines().next().unwrap();
        let cells = data_line.split('|').nth(1).unwrap().len();
        assert!(cells <= 8, "{cells} columns");
    }

    #[test]
    fn trace_sparkline_shape() {
        let vals: Vec<f64> = (0..100).map(|k| (k as f64 / 15.0).sin()).collect();
        let art = render_trace(&vals, 40, 6);
        assert_eq!(art.lines().count(), 6);
        assert!(art.contains('█'));
        // Annotated bounds present.
        assert!(art.contains("1.000") || art.contains("0.99"), "{art}");
    }

    #[test]
    fn single_row_trace_uses_mid_threshold_and_range_label() {
        let vals = [0.0, 0.0, 1.0, 1.0];
        let art = render_trace(&vals, 4, 1);
        assert_eq!(art.lines().count(), 1);
        // Both bounds are annotated and only above-mid cells fill.
        assert!(art.contains("0.000..1.000"), "{art}");
        let cells: String = art.trim_end().chars().rev().take(4).collect();
        assert_eq!(cells, "██  ", "low half blank, high half filled: {art}");
    }

    #[test]
    fn trace_handles_gaps_and_empty() {
        let vals = [1.0, f64::NAN, 0.5];
        let art = render_trace(&vals, 3, 3);
        assert!(art.contains('·'), "NaN column marked: {art}");
        assert!(render_trace(&[], 5, 3).contains("empty"));
    }
}
