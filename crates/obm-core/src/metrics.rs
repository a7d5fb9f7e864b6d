//! Latency-balance metrics (paper §III.A).
//!
//! The paper examines three candidate objectives — standard deviation of
//! the per-application APLs, the min-to-max APL ratio, and the maximum APL
//! — and shows by the Figure 5 example that only max-APL simultaneously
//! rewards balance *and* low absolute latency. All three are provided here;
//! the algorithms optimize [`BalanceMetric::MaxApl`], the others are
//! reported for evaluation (Table 4 uses dev-APL).

use crate::eval::AplReport;

/// A scalar balance metric over per-application APLs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BalanceMetric {
    /// `max_i d_i` — the OBM objective (lower is better).
    MaxApl,
    /// Population standard deviation of the `d_i` (lower is better).
    DevApl,
    /// `min_i d_i / max_i d_i` (higher is better; 1 = perfectly equal).
    MinToMaxRatio,
}

impl BalanceMetric {
    /// Evaluate the metric on a report.
    pub fn value(self, report: &AplReport) -> f64 {
        match self {
            BalanceMetric::MaxApl => report.max_apl,
            BalanceMetric::DevApl => report.dev_apl,
            BalanceMetric::MinToMaxRatio => {
                if report.max_apl == 0.0 {
                    1.0
                } else {
                    report.min_apl / report.max_apl
                }
            }
        }
    }

    /// Whether a lower value of the metric is better.
    pub fn lower_is_better(self) -> bool {
        !matches!(self, BalanceMetric::MinToMaxRatio)
    }

    /// `true` if `a` is strictly better than `b` under this metric.
    pub fn better(self, a: f64, b: f64) -> bool {
        if self.lower_is_better() {
            a < b
        } else {
            a > b
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(per_app: &[f64]) -> AplReport {
        let max = per_app.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let min = per_app.iter().cloned().fold(f64::INFINITY, f64::min);
        let mean = per_app.iter().sum::<f64>() / per_app.len() as f64;
        let dev =
            (per_app.iter().map(|d| (d - mean).powi(2)).sum::<f64>() / per_app.len() as f64).sqrt();
        AplReport {
            per_app: per_app.to_vec(),
            max_apl: max,
            min_apl: min,
            argmax: 0,
            dev_apl: dev,
            g_apl: mean,
        }
    }

    #[test]
    fn fig5_style_tie_under_dev_but_not_max() {
        // Two perfectly balanced outcomes: APLs all 10.3375 vs all 11.5375.
        // dev-APL and min-to-max cannot tell them apart; max-APL can.
        let good = report(&[10.3375; 4]);
        let bad = report(&[11.5375; 4]);
        assert_eq!(
            BalanceMetric::DevApl.value(&good),
            BalanceMetric::DevApl.value(&bad)
        );
        assert_eq!(
            BalanceMetric::MinToMaxRatio.value(&good),
            BalanceMetric::MinToMaxRatio.value(&bad)
        );
        assert!(BalanceMetric::MaxApl.better(
            BalanceMetric::MaxApl.value(&good),
            BalanceMetric::MaxApl.value(&bad)
        ));
    }

    #[test]
    fn directionality() {
        assert!(BalanceMetric::MaxApl.lower_is_better());
        assert!(BalanceMetric::DevApl.lower_is_better());
        assert!(!BalanceMetric::MinToMaxRatio.lower_is_better());
        assert!(BalanceMetric::MinToMaxRatio.better(0.9, 0.5));
    }

    #[test]
    fn ratio_of_degenerate_zero_max() {
        let r = report(&[0.0, 0.0]);
        assert_eq!(BalanceMetric::MinToMaxRatio.value(&r), 1.0);
    }
}
