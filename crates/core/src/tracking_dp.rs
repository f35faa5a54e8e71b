//! Dynamic-programming peak tracking through alignment matrices
//! (paper §4.2, Eqns. 6–8).
//!
//! The true alignment delays form a ridge of large TRRS values through the
//! matrix, but the per-column maxima can jump to spurious peaks under
//! noise, packet loss or wagging motion. Following the paper we find the
//! lag path maximising the accumulated TRRS minus a cost `ω·C` on lag
//! jumps, `C(l → n) = |l − n| / (2W)` (Eqn. 7), which "punishes jumpy
//! peaks" because true alignment delays vary slowly.
//!
//! Implementation notes: the paper's score sums both endpoint TRRS values
//! per transition, which counts interior nodes twice; that is equivalent
//! (same argmax) to the standard Viterbi form used here — each node's
//! value counted once and `ω` halved. Because the transition cost is
//! linear in `|l − n|`, the per-column maximisation is computed with a
//! two-pass distance transform, making the whole tracking `O(T·W)` rather
//! than `O(T·W²)`.

use crate::alignment::AlignmentMatrix;

/// Peak-tracking parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DpConfig {
    /// Negative weight `ω` on the jump cost `|Δlag| / (2W)`. More negative
    /// ⇒ smoother paths.
    pub omega: f64,
}

impl Default for DpConfig {
    fn default() -> Self {
        Self { omega: -4.0 }
    }
}

/// A tracked lag path through an alignment matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct TrackedPath {
    /// Signed lag (samples) per time column.
    pub lags: Vec<isize>,
    /// Total DP score of the path.
    pub score: f64,
    /// Mean TRRS along the path — used by post-detection.
    pub mean_trrs: f64,
    /// Mean absolute lag change per step — the smoothness statistic used
    /// by post-detection (§4.3).
    pub jumpiness: f64,
}

/// Per-step cost of one lag of jump. ω is halved relative to the paper's
/// double-counting form (see module docs). Shared by the batch tracker
/// and the incremental provisional tracker so both price jumps
/// identically.
///
/// # Panics
/// Panics if `omega` is positive (the weight must be a cost).
pub(crate) fn dp_jump_cost(omega: f64, window: usize) -> f64 {
    let c = (-omega) * 0.5 / (2.0 * window as f64).max(1.0);
    assert!(c >= 0.0, "omega must be negative (a cost)");
    c
}

/// One DP relaxation step: advances `score` from the previous column to
/// the column whose TRRS values are `row`, under jump cost `c` per lag of
/// movement, and returns the chosen parent lag index per lag. The
/// distance transform is the exact two-sweep arithmetic of
/// [`track_peaks`] (extracted so the incremental forward pass in
/// [`crate::incremental`] is bit-identical to the batch pass);
/// `best_prev` / `best_parent` are caller-provided scratch, fully
/// overwritten here.
pub(crate) fn dp_advance_column(
    score: &mut [f64],
    row: &[f64],
    c: f64,
    best_prev: &mut [f64],
    best_parent: &mut [u32],
) -> Vec<u32> {
    let n_lags = score.len();
    // Distance transform: best_prev[l] = max_n score[n] − c·|l − n|,
    // with the achieving n recorded.
    // Left-to-right sweep.
    best_prev[0] = score[0];
    best_parent[0] = 0;
    for l in 1..n_lags {
        let carried = best_prev[l - 1] - c;
        if score[l] >= carried {
            best_prev[l] = score[l];
            best_parent[l] = l as u32;
        } else {
            best_prev[l] = carried;
            best_parent[l] = best_parent[l - 1];
        }
    }
    // Right-to-left sweep.
    for l in (0..n_lags - 1).rev() {
        let carried = best_prev[l + 1] - c;
        if carried > best_prev[l] {
            best_prev[l] = carried;
            best_parent[l] = best_parent[l + 1];
        }
    }
    let mut parent_row = vec![0u32; n_lags];
    for l in 0..n_lags {
        parent_row[l] = best_parent[l];
        score[l] = row[l] + best_prev[l];
    }
    parent_row
}

/// Tracks the optimal lag path over the whole matrix.
///
/// # Panics
/// Panics on a matrix with no time columns.
pub fn track_peaks(m: &AlignmentMatrix, config: DpConfig) -> TrackedPath {
    let steps = m.n_times();
    assert!(steps > 0, "empty alignment matrix");
    let n_lags = m.n_lags();
    let c = dp_jump_cost(config.omega, m.window);

    let mut score: Vec<f64> = m.row(0).to_vec();
    let mut parents: Vec<Vec<u32>> = Vec::with_capacity(steps.saturating_sub(1));
    let mut best_prev = vec![0.0f64; n_lags];
    let mut best_parent = vec![0u32; n_lags];

    for row in m.rows().skip(1) {
        parents.push(dp_advance_column(
            &mut score,
            row,
            c,
            &mut best_prev,
            &mut best_parent,
        ));
    }

    // Best terminal lag (Eqn. 8) and backtrack.
    let (mut l, _) = score
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .expect("non-empty lag axis");
    let final_score = score[l];
    let mut lags = Vec::with_capacity(steps);
    lags.push(m.lag_of(l));
    for parent_row in parents.iter().rev() {
        l = parent_row[l] as usize;
        lags.push(m.lag_of(l));
    }
    lags.reverse();

    let mean_trrs = lags
        .iter()
        .enumerate()
        .map(|(t, &lag)| m.at(t, lag))
        .sum::<f64>()
        / steps as f64;
    let jumpiness = if steps > 1 {
        lags.windows(2)
            .map(|w| (w[1] - w[0]).abs() as f64)
            .sum::<f64>()
            / (steps - 1) as f64
    } else {
        0.0
    };
    TrackedPath {
        lags,
        score: final_score,
        mean_trrs,
        jumpiness,
    }
}

/// Exhaustive-search reference (exponential; tests only).
#[cfg(test)]
fn track_exhaustive(m: &AlignmentMatrix, config: DpConfig) -> (Vec<isize>, f64) {
    fn recurse(
        m: &AlignmentMatrix,
        c: f64,
        t: usize,
        path: &mut Vec<usize>,
        best: &mut (Vec<usize>, f64),
    ) {
        if t == m.n_times() {
            let score: f64 = path
                .iter()
                .enumerate()
                .map(|(i, &l)| m.row(i)[l])
                .sum::<f64>()
                - path
                    .windows(2)
                    .map(|w| c * (w[1] as isize - w[0] as isize).unsigned_abs() as f64)
                    .sum::<f64>();
            if score > best.1 {
                *best = (path.clone(), score);
            }
            return;
        }
        for l in 0..m.n_lags() {
            path.push(l);
            recurse(m, c, t + 1, path, best);
            path.pop();
        }
    }
    let c = (-config.omega) * 0.5 / (2.0 * m.window as f64).max(1.0);
    let mut best = (Vec::new(), f64::NEG_INFINITY);
    recurse(m, c, 0, &mut Vec::new(), &mut best);
    (best.0.iter().map(|&l| m.lag_of(l)).collect(), best.1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix(window: usize, rows: Vec<Vec<f64>>) -> AlignmentMatrix {
        AlignmentMatrix::from_rows(window, &rows)
    }

    #[test]
    fn follows_clean_ridge() {
        // Ridge at lag +1 (index 3 with W=2).
        let rows: Vec<Vec<f64>> = (0..10).map(|_| vec![0.1, 0.2, 0.3, 0.9, 0.2]).collect();
        let m = matrix(2, rows);
        let p = track_peaks(&m, DpConfig::default());
        assert!(p.lags.iter().all(|&l| l == 1), "{:?}", p.lags);
        assert!((p.mean_trrs - 0.9).abs() < 1e-12);
        assert_eq!(p.jumpiness, 0.0);
    }

    #[test]
    fn bridges_outlier_column() {
        // One column's max is a far-away spurious spike; the path must not
        // jump to it.
        let mut rows: Vec<Vec<f64>> = (0..9)
            .map(|_| vec![0.1, 0.2, 0.8, 0.2, 0.1, 0.1, 0.1])
            .collect();
        rows[4] = vec![0.1, 0.2, 0.55, 0.2, 0.1, 0.1, 0.95];
        let m = matrix(3, rows);
        let p = track_peaks(&m, DpConfig { omega: -4.0 });
        assert!(
            p.lags.iter().all(|&l| l == -1),
            "stays on the ridge: {:?}",
            p.lags
        );
    }

    #[test]
    fn follows_slowly_moving_ridge() {
        // Ridge drifts one lag every three columns.
        let w = 4;
        let n = 12;
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|t| {
                let ridge = t / 3; // 0..4 — lag index offset from W.
                let mut row = vec![0.1; 2 * w + 1];
                row[w + ridge] = 0.9;
                row
            })
            .collect();
        let m = matrix(w, rows);
        let p = track_peaks(&m, DpConfig::default());
        for (t, &lag) in p.lags.iter().enumerate() {
            assert_eq!(lag, (t / 3) as isize, "t={t}");
        }
    }

    #[test]
    fn matches_exhaustive_search() {
        // Pseudo-random small matrices: DP must equal brute force.
        let w = 2;
        for seed in 0..5u64 {
            let rows: Vec<Vec<f64>> = (0..5)
                .map(|t| {
                    (0..2 * w + 1)
                        .map(|l| {
                            let h = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(
                                ((t * 31 + l) as u64).wrapping_mul(0xBF58476D1CE4E5B9),
                            );
                            ((h >> 12) as f64 / (1u64 << 52) as f64).fract()
                        })
                        .collect()
                })
                .collect();
            let m = matrix(w, rows);
            let cfg = DpConfig { omega: -3.0 };
            let dp = track_peaks(&m, cfg);
            let (ex_lags, ex_score) = track_exhaustive(&m, cfg);
            assert!(
                (dp.score - ex_score).abs() < 1e-9,
                "seed {seed}: DP {} vs exhaustive {ex_score}",
                dp.score
            );
            assert_eq!(dp.lags, ex_lags, "seed {seed}");
        }
    }

    #[test]
    fn strong_smoothing_flattens_path() {
        // With a huge |ω|, the path refuses to move even for a better
        // ridge elsewhere.
        let mut rows: Vec<Vec<f64>> = (0..6).map(|_| vec![0.1, 0.8, 0.1, 0.1, 0.75]).collect();
        rows[3] = vec![0.1, 0.1, 0.1, 0.1, 0.9];
        let m = matrix(2, rows);
        let p = track_peaks(&m, DpConfig { omega: -100.0 });
        assert_eq!(p.jumpiness, 0.0, "{:?}", p.lags);
    }

    #[test]
    #[should_panic(expected = "empty alignment matrix")]
    fn empty_range_panics() {
        let m = matrix(1, Vec::new());
        let _ = track_peaks(&m, DpConfig::default());
    }

    #[test]
    fn single_column_path() {
        let m = matrix(2, vec![vec![0.1, 0.2, 0.9, 0.3, 0.1]]);
        let p = track_peaks(&m, DpConfig::default());
        assert_eq!(p.lags, vec![0]);
        assert_eq!(p.jumpiness, 0.0);
    }
}
