//! Packet-loss models.
//!
//! The paper's prototype receives AP broadcasts on two unsynchronised NICs
//! and loses packets independently on each (§5, Fig. 4b shows the missing
//! values); RIM tolerates loss "to a certain extent by interpolation" (§7).
//! We model both i.i.d. loss and bursty loss (Gilbert–Elliott), the latter
//! standing in for the contended-channel conditions §7 warns about.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A packet-loss model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LossModel {
    /// No loss.
    None,
    /// Each packet lost independently with probability `p`.
    Iid {
        /// Loss probability in `[0, 1)`.
        p: f64,
    },
    /// Two-state Gilbert–Elliott burst model.
    GilbertElliott {
        /// Probability of moving good → bad per packet.
        p_enter_bad: f64,
        /// Probability of moving bad → good per packet.
        p_exit_bad: f64,
        /// Loss probability while in the good state.
        loss_good: f64,
        /// Loss probability while in the bad state.
        loss_bad: f64,
    },
}

impl LossModel {
    /// Parses a CLI-style loss specification:
    ///
    /// * `none` — no loss;
    /// * a bare probability like `0.1` — i.i.d. loss (back-compatible
    ///   with the old numeric `--loss` flag);
    /// * `iid:P` — i.i.d. loss with probability `P`;
    /// * `ge:ENTER,EXIT,GOOD,BAD` — Gilbert–Elliott with the four
    ///   probabilities (good→bad, bad→good, loss in good, loss in bad),
    ///   e.g. `ge:0.05,0.2,0.01,0.8`.
    ///
    /// # Errors
    /// A message naming the offending field and the accepted forms.
    pub fn parse(spec: &str) -> Result<LossModel, String> {
        let spec = spec.trim();
        let prob = |label: &str, s: &str, range_end: f64| -> Result<f64, String> {
            let v: f64 = s
                .trim()
                .parse()
                .map_err(|_| format!("loss spec: {label} `{s}` is not a number"))?;
            if !(0.0..=range_end).contains(&v) {
                return Err(format!(
                    "loss spec: {label} {v} outside [0, {range_end}{}",
                    if range_end < 1.0 { ")" } else { "]" }
                ));
            }
            Ok(v)
        };
        if spec.eq_ignore_ascii_case("none") {
            return Ok(LossModel::None);
        }
        if let Some(p) = spec.strip_prefix("iid:") {
            return Ok(LossModel::Iid {
                p: prob("iid probability", p, 0.999)?,
            });
        }
        if let Some(rest) = spec.strip_prefix("ge:") {
            let parts: Vec<&str> = rest.split(',').collect();
            if parts.len() != 4 {
                return Err(format!(
                    "loss spec: `ge:` needs 4 comma-separated probabilities \
                     (enter_bad,exit_bad,loss_good,loss_bad), got {}",
                    parts.len()
                ));
            }
            return Ok(LossModel::GilbertElliott {
                p_enter_bad: prob("ge enter_bad", parts[0], 1.0)?,
                p_exit_bad: prob("ge exit_bad", parts[1], 1.0)?,
                loss_good: prob("ge loss_good", parts[2], 1.0)?,
                loss_bad: prob("ge loss_bad", parts[3], 1.0)?,
            });
        }
        if let Ok(p) = spec.parse::<f64>() {
            if (0.0..1.0).contains(&p) {
                return Ok(if p == 0.0 {
                    LossModel::None
                } else {
                    LossModel::Iid { p }
                });
            }
            return Err(format!("loss spec: bare probability {p} outside [0, 1)"));
        }
        Err(format!(
            "loss spec `{spec}` not understood; use `none`, a probability, \
             `iid:P`, or `ge:ENTER,EXIT,GOOD,BAD`"
        ))
    }
}

/// A stateful loss process: deterministic per seed.
#[derive(Debug, Clone)]
pub struct LossProcess {
    model: LossModel,
    rng: StdRng,
    in_bad_state: bool,
}

impl LossProcess {
    /// Creates a loss process.
    ///
    /// # Panics
    /// Panics if any probability lies outside `[0, 1]` or an i.i.d. loss
    /// probability equals 1 (which would lose every packet).
    pub fn new(model: LossModel, seed: u64) -> Self {
        match model {
            LossModel::None => {}
            LossModel::Iid { p } => {
                assert!((0.0..1.0).contains(&p), "iid loss probability in [0,1)");
            }
            LossModel::GilbertElliott {
                p_enter_bad,
                p_exit_bad,
                loss_good,
                loss_bad,
            } => {
                for v in [p_enter_bad, p_exit_bad, loss_good, loss_bad] {
                    assert!((0.0..=1.0).contains(&v), "probability in [0,1]");
                }
            }
        }
        Self {
            model,
            rng: StdRng::seed_from_u64(seed),
            in_bad_state: false,
        }
    }

    /// Advances the process one packet; returns true if that packet is
    /// lost.
    pub fn next_lost(&mut self) -> bool {
        match self.model {
            LossModel::None => false,
            LossModel::Iid { p } => self.rng.gen::<f64>() < p,
            LossModel::GilbertElliott {
                p_enter_bad,
                p_exit_bad,
                loss_good,
                loss_bad,
            } => {
                let flip: f64 = self.rng.gen();
                if self.in_bad_state {
                    if flip < p_exit_bad {
                        self.in_bad_state = false;
                    }
                } else if flip < p_enter_bad {
                    self.in_bad_state = true;
                }
                let p = if self.in_bad_state {
                    loss_bad
                } else {
                    loss_good
                };
                self.rng.gen::<f64>() < p
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_loses() {
        let mut p = LossProcess::new(LossModel::None, 1);
        assert!((0..1000).all(|_| !p.next_lost()));
    }

    #[test]
    fn iid_rate_matches() {
        let mut p = LossProcess::new(LossModel::Iid { p: 0.1 }, 2);
        let lost = (0..20_000).filter(|_| p.next_lost()).count();
        let rate = lost as f64 / 20_000.0;
        assert!((rate - 0.1).abs() < 0.01, "measured {rate}");
    }

    #[test]
    fn iid_deterministic_per_seed() {
        let mut a = LossProcess::new(LossModel::Iid { p: 0.3 }, 7);
        let mut b = LossProcess::new(LossModel::Iid { p: 0.3 }, 7);
        for _ in 0..500 {
            assert_eq!(a.next_lost(), b.next_lost());
        }
    }

    #[test]
    fn gilbert_elliott_bursts() {
        let model = LossModel::GilbertElliott {
            p_enter_bad: 0.01,
            p_exit_bad: 0.2,
            loss_good: 0.001,
            loss_bad: 0.8,
        };
        let mut p = LossProcess::new(model, 3);
        let outcomes: Vec<bool> = (0..50_000).map(|_| p.next_lost()).collect();
        let lost = outcomes.iter().filter(|&&l| l).count();
        assert!(lost > 0);
        // Burstiness: probability of loss given previous loss far exceeds
        // the marginal rate.
        let pairs = outcomes.windows(2).filter(|w| w[0]).count();
        let both = outcomes.windows(2).filter(|w| w[0] && w[1]).count();
        let cond = both as f64 / pairs as f64;
        let marginal = lost as f64 / outcomes.len() as f64;
        assert!(
            cond > 3.0 * marginal,
            "bursty: P(loss|loss)={cond} vs marginal={marginal}"
        );
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn invalid_probability_rejected() {
        let _ = LossProcess::new(LossModel::Iid { p: 1.5 }, 0);
    }

    #[test]
    fn parse_accepts_all_forms() {
        assert_eq!(LossModel::parse("none"), Ok(LossModel::None));
        assert_eq!(LossModel::parse("NONE"), Ok(LossModel::None));
        assert_eq!(LossModel::parse("0"), Ok(LossModel::None));
        assert_eq!(LossModel::parse("0.1"), Ok(LossModel::Iid { p: 0.1 }));
        assert_eq!(LossModel::parse("iid:0.25"), Ok(LossModel::Iid { p: 0.25 }));
        assert_eq!(
            LossModel::parse("ge:0.05,0.2,0.01,0.8"),
            Ok(LossModel::GilbertElliott {
                p_enter_bad: 0.05,
                p_exit_bad: 0.2,
                loss_good: 0.01,
                loss_bad: 0.8,
            })
        );
        assert_eq!(LossModel::parse(" iid:0.25 "), LossModel::parse("iid:0.25"));
    }

    #[test]
    fn parse_rejects_with_actionable_messages() {
        let e = LossModel::parse("1.5").unwrap_err();
        assert!(e.contains("1.5"), "{e}");
        let e = LossModel::parse("iid:nope").unwrap_err();
        assert!(e.contains("nope"), "{e}");
        let e = LossModel::parse("ge:0.1,0.2").unwrap_err();
        assert!(e.contains('4'), "{e}");
        let e = LossModel::parse("ge:0.1,0.2,0.3,1.7").unwrap_err();
        assert!(e.contains("1.7"), "{e}");
        let e = LossModel::parse("burst").unwrap_err();
        assert!(e.contains("burst"), "{e}");
    }

    #[test]
    fn mean_loss_rate_matches_measured() {
        let measured = |model: LossModel| {
            let mut p = LossProcess::new(model, 9);
            (0..100_000).filter(|_| p.next_lost()).count() as f64 / 100_000.0
        };
        // Gilbert–Elliott's stationary rate: the bad state holds
        // 0.05 / (0.05 + 0.2) = 20 % of the time.
        let predicted = 0.8 * 0.01 + 0.2 * 0.8;
        let ge = measured(LossModel::GilbertElliott {
            p_enter_bad: 0.05,
            p_exit_bad: 0.2,
            loss_good: 0.01,
            loss_bad: 0.8,
        });
        assert!(
            (ge - predicted).abs() < 0.02,
            "predicted {predicted}, measured {ge}"
        );
        assert_eq!(measured(LossModel::None), 0.0);
        assert!((measured(LossModel::Iid { p: 0.3 }) - 0.3).abs() < 0.01);
    }
}
