//! Plain-text reporting helpers used by the benchmark harness and examples.

use crate::campaign::{PermanentCampaign, TransientCampaign};
use crate::outcome::OutcomeCounts;
use std::fmt::Write as _;

/// Render rows as a fixed-width text table. The first row is the header.
///
/// ```
/// let t = nvbitfi::report::table(&[
///     vec!["program".into(), "SDC".into()],
///     vec!["303.ostencil".into(), "32.5%".into()],
/// ]);
/// assert!(t.contains("303.ostencil"));
/// ```
pub fn table(rows: &[Vec<String>]) -> String {
    if rows.is_empty() {
        return String::new();
    }
    let cols = rows.iter().map(|r| r.len()).max().unwrap_or(0);
    let mut widths = vec![0usize; cols];
    for row in rows {
        for (c, cell) in row.iter().enumerate() {
            widths[c] = widths[c].max(cell.len());
        }
    }
    let mut out = String::new();
    for (i, row) in rows.iter().enumerate() {
        for (c, cell) in row.iter().enumerate() {
            let pad = widths[c];
            if c + 1 == row.len() {
                let _ = write!(out, "{cell:<pad$}");
            } else {
                let _ = write!(out, "{cell:<pad$}  ");
            }
        }
        out.push('\n');
        if i == 0 {
            let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
            out.push_str(&"-".repeat(total));
            out.push('\n');
        }
    }
    out
}

/// Percentage with one decimal, e.g. `32.5%`.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// An `OutcomeCounts` row: `[sdc, due, masked]` percentages.
pub fn outcome_cells(c: &OutcomeCounts) -> Vec<String> {
    let (sdc, due, masked) = c.fractions();
    vec![pct(sdc), pct(due), pct(masked)]
}

/// One-paragraph summary of a transient campaign, followed by the
/// robustness line from [`robustness_line`] and the per-phase wall-clock
/// breakdown from [`phase_breakdown`].
pub fn transient_summary(c: &TransientCampaign) -> String {
    let injected = c.runs.iter().filter(|r| r.injected).count();
    format!(
        "{}: {} over {} injections ({} fired, {} statically pruned); profile: {} dynamic \
         kernels, {} dynamic instructions ({} profiling); median injection run {:?}, \
         campaign total {:?}\n{}\n{}",
        c.program,
        c.counts,
        c.runs.len(),
        injected,
        c.statically_pruned(),
        c.profile.kernels.len(),
        c.profile.total(),
        c.profile.mode,
        c.median_injection(),
        c.total_time(),
        robustness_line(c),
        phase_breakdown(c),
    )
}

/// One-line robustness accounting for a campaign: how many verdicts were
/// executed fresh vs reloaded by `resume`, how many runs needed retries,
/// how many ended as infrastructure errors (and of those, how many were
/// worker-process deaths), and whether the campaign was interrupted before
/// covering every selected site.
pub fn robustness_line(c: &TransientCampaign) -> String {
    let resumed = c.resumed_runs();
    let mut line = format!(
        "robustness: {} fresh, {} resumed, {} retried, {} infra errors, {} worker deaths",
        c.runs.len() - resumed,
        resumed,
        c.retried_runs(),
        c.counts.infra,
        c.worker_deaths(),
    );
    if c.interrupted {
        line.push_str(" — INTERRUPTED (partial results)");
    }
    line
}

/// Per-phase wall-clock table for a campaign (golden / profiling / static
/// analysis / injections), plus the dynamic instructions the injection
/// runs avoided by replaying from checkpoints: their pre-injection
/// prefixes, and the tail launches their faults never reached.
pub fn phase_breakdown(c: &TransientCampaign) -> String {
    let t = &c.timing;
    let injections: std::time::Duration = c.runs.iter().map(|r| r.wall).sum();
    let mut out = table(&[
        vec!["phase".into(), "wall-clock".into()],
        vec!["golden run".into(), format!("{:?}", t.golden)],
        vec!["profiling".into(), format!("{:?}", t.profiling)],
        vec!["static analysis".into(), format!("{:?}", t.analysis)],
        vec![format!("injections (x{})", c.runs.len()), format!("{injections:?}")],
    ]);
    let skipped: u64 = c.runs.iter().map(|r| r.prefix_instrs_skipped).sum();
    let _ = writeln!(out, "prefix instructions skipped via checkpoints: {skipped}");
    let mut tail = gpu_runtime::TailReplay::default();
    for r in &c.runs {
        tail += r.tail_replayed;
    }
    let _ = write!(
        out,
        "tail instructions replayed via checkpoints: {} ({} launches)",
        tail.instrs, tail.launches
    );
    out
}

/// One-paragraph summary of a permanent campaign, followed by how many
/// experiments were answered from the golden run without simulation.
pub fn permanent_summary(c: &PermanentCampaign) -> String {
    let answered = c.answered();
    let share = if c.runs.is_empty() { 0.0 } else { answered as f64 / c.runs.len() as f64 };
    format!(
        "{}: weighted SDC {} DUE {} Masked {} over {} opcode experiments; \
         unweighted {}; campaign total {:?}\n\
         answered from golden: {} of {} experiments could never activate \
         ({} golden instructions not simulated, {} of the campaign's)",
        c.program,
        pct(c.weighted.sdc),
        pct(c.weighted.due),
        pct(c.weighted.masked),
        c.runs.len(),
        c.counts,
        c.total_time(),
        answered,
        c.runs.len(),
        answered as u64 * c.golden_instrs,
        pct(share),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t =
            table(&[vec!["a".into(), "long-header".into()], vec!["wider-cell".into(), "x".into()]]);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[1].starts_with("---"));
        // Both data columns start at the same offset.
        assert_eq!(lines[0].find("long-header"), lines[2].find("x"));
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.325), "32.5%");
        assert_eq!(pct(0.0), "0.0%");
        assert_eq!(pct(1.0), "100.0%");
    }

    #[test]
    fn empty_table() {
        assert_eq!(table(&[]), "");
    }

    fn run(resumed: bool, attempts: u32, infra: bool) -> crate::campaign::InjectionRun {
        use crate::outcome::{InfraKind, Outcome, OutcomeClass};
        crate::campaign::InjectionRun {
            params: crate::params::TransientParams {
                group: crate::igid::InstrGroup::Gp,
                bit_flip: crate::bitflip::BitFlipModel::FlipSingleBit,
                kernel_name: "k".into(),
                kernel_count: 0,
                instruction_count: 0,
                destination_register: 0.1,
                bit_pattern: 0.1,
            },
            outcome: if infra {
                Outcome {
                    class: OutcomeClass::InfraError(InfraKind::WorkerPanic),
                    potential_due: false,
                }
            } else {
                Outcome { class: OutcomeClass::Masked, potential_due: false }
            },
            injected: !infra,
            wall: std::time::Duration::ZERO,
            prefix_instrs_skipped: 0,
            tail_replayed: Default::default(),
            pruned: false,
            attempts,
            resumed,
        }
    }

    fn campaign(runs: Vec<crate::campaign::InjectionRun>) -> TransientCampaign {
        let mut counts = OutcomeCounts::default();
        for r in &runs {
            counts.add(&r.outcome);
        }
        TransientCampaign {
            program: "p".into(),
            profile: crate::profile::Profile {
                mode: crate::profile::ProfilingMode::Exact,
                kernels: vec![],
            },
            golden: crate::golden::GoldenOutput {
                stdout: String::new(),
                files: Default::default(),
                summary: Default::default(),
            },
            counts,
            runs,
            timing: Default::default(),
            interrupted: false,
        }
    }

    #[test]
    fn robustness_line_counts_resume_retry_and_infra() {
        use crate::outcome::{InfraKind, OutcomeClass};
        let mut runs = vec![run(false, 1, false), run(true, 1, false), run(false, 3, true)];
        let mut died = run(false, 2, true);
        died.outcome.class = OutcomeClass::InfraError(InfraKind::WorkerDied);
        runs.push(died);
        let c = campaign(runs);
        let line = robustness_line(&c);
        assert!(line.contains("3 fresh"), "{line}");
        assert!(line.contains("1 resumed"), "{line}");
        assert!(line.contains("2 retried"), "{line}");
        assert!(line.contains("2 infra errors"), "{line}");
        assert!(line.contains("1 worker deaths"), "{line}");
        assert!(!line.contains("INTERRUPTED"), "{line}");

        let mut c = c;
        c.interrupted = true;
        assert!(robustness_line(&c).contains("INTERRUPTED"));
        assert!(transient_summary(&c).contains("robustness:"));
    }

    #[test]
    fn phase_breakdown_reports_all_phases_and_skips() {
        use std::time::Duration;
        let mut c = campaign(vec![run(false, 1, false); 4]);
        c.timing = crate::campaign::CampaignTiming {
            golden: Duration::from_millis(5),
            profiling: Duration::from_millis(7),
            analysis: Duration::from_millis(3),
        };
        // (prefix skipped, tail launches, tail instructions) per run.
        let replays = [(1000, 1, 5000), (200, 1, 600), (30, 1, 78), (4, 0, 0)];
        for (r, (skipped, launches, instrs)) in c.runs.iter_mut().zip(replays) {
            r.wall = Duration::from_millis(2);
            r.prefix_instrs_skipped = skipped;
            r.tail_replayed = gpu_runtime::TailReplay { launches, instrs };
        }
        let text = phase_breakdown(&c);
        assert!(text.contains("golden run"), "{text}");
        assert!(text.contains("profiling"), "{text}");
        assert!(text.contains("static analysis"), "{text}");
        assert!(text.contains("injections (x4)"), "{text}");
        assert!(text.contains("8ms"), "sums the injection phase: {text}");
        assert!(text.contains("skipped via checkpoints: 1234"), "{text}");
        assert!(text.contains("replayed via checkpoints: 5678 (3 launches)"), "{text}");
    }
}
