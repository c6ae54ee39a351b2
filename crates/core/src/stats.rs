//! Campaign statistics: confidence intervals for outcome fractions.
//!
//! §IV-B: "100 injections provide results with 90% confidence intervals and
//! ±8% error margins; 1000 injections are necessary to obtain results with
//! 95% confidence intervals and ±3% error margins." Both follow from the
//! normal approximation at worst case `p = 0.5`; these helpers reproduce
//! that arithmetic.

/// Two-sided z-score for a confidence level in `(0, 1)`.
///
/// Uses the Beasley-Springer-Moro rational approximation of the inverse
/// normal CDF (accurate to ~1e-7 over the range campaigns use).
///
/// # Panics
///
/// Panics if `confidence` is not in `(0, 1)`.
pub fn z_score(confidence: f64) -> f64 {
    assert!(confidence > 0.0 && confidence < 1.0, "confidence must be in (0,1)");
    let p = 0.5 + confidence / 2.0; // upper-tail quantile of the two-sided interval
    inverse_normal_cdf(p)
}

fn inverse_normal_cdf(p: f64) -> f64 {
    // Beasley-Springer-Moro.
    const A: [f64; 4] = [2.50662823884, -18.61500062529, 41.39119773534, -25.44106049637];
    const B: [f64; 4] = [-8.47351093090, 23.08336743743, -21.06224101826, 3.13082909833];
    const C: [f64; 9] = [
        0.3374754822726147,
        0.9761690190917186,
        0.1607979714918209,
        0.0276438810333863,
        0.0038405729373609,
        0.0003951896511919,
        0.0000321767881768,
        0.0000002888167364,
        0.0000003960315187,
    ];
    let y = p - 0.5;
    if y.abs() < 0.42 {
        let r = y * y;
        y * (((A[3] * r + A[2]) * r + A[1]) * r + A[0])
            / ((((B[3] * r + B[2]) * r + B[1]) * r + B[0]) * r + 1.0)
    } else {
        let r = if y > 0.0 { 1.0 - p } else { p };
        let r = (-r.ln()).ln();
        let mut x = C[0];
        let mut rk = 1.0;
        for c in &C[1..] {
            rk *= r;
            x += c * rk;
        }
        if y < 0.0 {
            -x
        } else {
            x
        }
    }
}

/// Worst-case (`p = 0.5`) error margin for an outcome fraction estimated
/// from `n` injections at the given confidence level.
///
/// # Panics
///
/// Panics if `n` is zero or `confidence` is not in `(0, 1)`.
pub fn error_margin(n: usize, confidence: f64) -> f64 {
    assert!(n > 0, "need at least one injection");
    z_score(confidence) * (0.25 / n as f64).sqrt()
}

/// Minimum injections for a worst-case error margin at a confidence level.
///
/// # Panics
///
/// Panics if `margin` is not positive or `confidence` is not in `(0, 1)`.
pub fn injections_needed(margin: f64, confidence: f64) -> usize {
    assert!(margin > 0.0, "margin must be positive");
    let z = z_score(confidence);
    (0.25 * (z / margin).powi(2)).ceil() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn z_scores_match_tables() {
        assert!((z_score(0.90) - 1.6449).abs() < 1e-3);
        assert!((z_score(0.95) - 1.9600).abs() < 1e-3);
        assert!((z_score(0.99) - 2.5758).abs() < 1e-3);
    }

    #[test]
    fn paper_claim_100_injections() {
        // "100 injections provide results with 90% confidence intervals and
        // ±8% error margins"
        let m = error_margin(100, 0.90);
        assert!((0.078..0.086).contains(&m), "got {m}");
    }

    #[test]
    fn paper_claim_1000_injections() {
        // "1000 injections ... 95% confidence ... ±3% error margins"
        let m = error_margin(1000, 0.95);
        assert!((0.029..0.032).contains(&m), "got {m}");
    }

    #[test]
    fn needed_inverts_margin() {
        let n = injections_needed(0.031, 0.95);
        assert!((900..=1100).contains(&n), "got {n}");
        let n = injections_needed(0.0823, 0.90);
        assert!((95..=105).contains(&n), "got {n}");
    }

    #[test]
    #[should_panic(expected = "confidence")]
    fn bad_confidence_panics() {
        let _ = z_score(1.5);
    }
}
