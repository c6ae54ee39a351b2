//! Architectural vulnerability factor (AVF) estimation.
//!
//! The paper's motivation (§I): "The architectural vulnerability factor is
//! the probability that a fault will result in a visible error in the final
//! output of a program. The product of the raw error rate and the AVF
//! results in the visible error rate." A fault-injection campaign estimates
//! AVF directly: the fraction of injected faults that are *not* masked,
//! split into SDC-AVF and DUE-AVF.
//!
//! Campaigns target one instruction group at a time; [`combine`] merges
//! per-group estimates into a whole-program AVF by weighting each group by
//! its share of the dynamic instruction population.

use crate::campaign::TransientCampaign;
use crate::igid::InstrGroup;
use crate::stats;
use std::fmt;

/// An AVF estimate with its sampling error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AvfEstimate {
    /// Number of injections behind the estimate.
    pub injections: usize,
    /// P(fault → silent data corruption).
    pub sdc: f64,
    /// P(fault → detected unrecoverable error).
    pub due: f64,
    /// Error margin at 90% confidence for the SDC and DUE fractions
    /// (worst-case binomial).
    pub margin90: f64,
}

impl AvfEstimate {
    /// Total AVF: the probability a fault is architecturally visible at all
    /// (`1 − masked`).
    pub fn total(&self) -> f64 {
        self.sdc + self.due
    }
}

impl fmt::Display for AvfEstimate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "AVF {:.1}% (SDC {:.1}%, DUE {:.1}%) ±{:.1}% @90% over {} injections",
            self.total() * 100.0,
            self.sdc * 100.0,
            self.due * 100.0,
            self.margin90 * 100.0,
            self.injections
        )
    }
}

/// Estimate the AVF of the campaign's instruction group from its outcomes.
pub fn from_campaign(c: &TransientCampaign) -> AvfEstimate {
    let n = c.counts.total().max(1) as usize;
    let (sdc, due, _) = c.counts.fractions();
    AvfEstimate { injections: n, sdc, due, margin90: stats::error_margin(n, 0.90) }
}

/// One group's contribution to a whole-program AVF.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupAvf {
    /// The instruction group sampled.
    pub group: InstrGroup,
    /// The group's dynamic-instruction population in the profile.
    pub population: u64,
    /// The group's AVF estimate.
    pub estimate: AvfEstimate,
}

/// Combine per-group AVF estimates into a whole-program AVF, weighting each
/// group by its dynamic-instruction share. Groups must partition the
/// population (use the six base groups of Table II, not the derived ones).
///
/// Returns `None` when the total population is zero.
pub fn combine(groups: &[GroupAvf]) -> Option<AvfEstimate> {
    let total: u64 = groups.iter().map(|g| g.population).sum();
    if total == 0 {
        return None;
    }
    let mut sdc = 0.0;
    let mut due = 0.0;
    let mut margin = 0.0;
    let mut injections = 0usize;
    for g in groups {
        let w = g.population as f64 / total as f64;
        sdc += w * g.estimate.sdc;
        due += w * g.estimate.due;
        margin += w * g.estimate.margin90;
        injections += g.estimate.injections;
    }
    Some(AvfEstimate { injections, sdc, due, margin90: margin })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::{DueKind, Outcome, OutcomeClass, OutcomeCounts};

    fn estimate(n: usize, sdc_n: u64, due_n: u64) -> AvfEstimate {
        let mut counts = OutcomeCounts::default();
        for _ in 0..sdc_n {
            counts.add(&Outcome { class: OutcomeClass::Sdc(vec![]), potential_due: false });
        }
        for _ in 0..due_n {
            counts
                .add(&Outcome { class: OutcomeClass::Due(DueKind::Timeout), potential_due: false });
        }
        for _ in 0..(n as u64 - sdc_n - due_n) {
            counts.add(&Outcome { class: OutcomeClass::Masked, potential_due: false });
        }
        let (sdc, due, _) = counts.fractions();
        AvfEstimate { injections: n, sdc, due, margin90: stats::error_margin(n, 0.90) }
    }

    #[test]
    fn total_is_one_minus_masked() {
        let e = estimate(100, 30, 10);
        assert!((e.total() - 0.4).abs() < 1e-12);
        assert!((e.sdc - 0.3).abs() < 1e-12);
    }

    #[test]
    fn combine_weights_by_population() {
        let groups = vec![
            GroupAvf { group: InstrGroup::Fp32, population: 900, estimate: estimate(100, 50, 0) },
            GroupAvf { group: InstrGroup::Ld, population: 100, estimate: estimate(100, 0, 100) },
        ];
        let c = combine(&groups).expect("populated");
        assert!((c.sdc - 0.45).abs() < 1e-12, "0.9*0.5");
        assert!((c.due - 0.10).abs() < 1e-12, "0.1*1.0");
        assert_eq!(c.injections, 200);
    }

    #[test]
    fn combine_empty_population() {
        assert!(combine(&[]).is_none());
        let g = GroupAvf { group: InstrGroup::Fp64, population: 0, estimate: estimate(10, 1, 1) };
        assert!(combine(&[g]).is_none());
    }

    #[test]
    fn display_is_informative() {
        let s = estimate(100, 20, 5).to_string();
        assert!(s.contains("AVF 25.0%"), "{s}");
        assert!(s.contains("SDC 20.0%"), "{s}");
        assert!(s.contains("100 injections"), "{s}");
    }
}
