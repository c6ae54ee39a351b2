//! Outcome classification — Table V.
//!
//! Every injection run is classified against the golden run:
//!
//! * **SDC** — the user-provided check fails: standard output differs,
//!   an output file differs, or an application-specific check (e.g. a
//!   numeric-tolerance comparison) fails (§IV-A),
//! * **DUE** — the run was visibly interrupted: hang (monitor detection),
//!   process crash (OS detection), or non-zero exit status (application
//!   detection),
//! * **Masked** — no difference detected,
//! * **potential DUE** — an SDC or Masked outcome where the device latched
//!   an anomaly (a non-fatal CUDA error / dmesg entry) the host never acted
//!   on. As in §IV-A, headline numbers fold potential DUEs into SDC/Masked;
//!   the flag is reported separately,
//! * **infrastructure error** — the *harness* failed the run (a worker
//!   panicked, or the run outlived its wall-clock deadline), so no verdict
//!   about the fault's effect exists. Infrastructure errors are recorded —
//!   they must survive a resume so the site is not silently dropped — but
//!   they are excluded from SDC/DUE/Masked rate denominators
//!   ([`OutcomeCounts::classified`]).

use crate::golden::GoldenOutput;
use gpu_runtime::{ProgramOutput, Termination};
use std::fmt;

/// Why a run was declared SDC.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SdcReason {
    /// Standard output differs from golden.
    Stdout,
    /// A named output file differs from golden (or is missing/extra).
    File(String),
    /// The application-specific check failed.
    AppCheck(String),
}

impl fmt::Display for SdcReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SdcReason::Stdout => write!(f, "standard output differs"),
            SdcReason::File(name) => write!(f, "output file `{name}` differs"),
            SdcReason::AppCheck(msg) => write!(f, "application check failed: {msg}"),
        }
    }
}

/// How a DUE was detected (Table V's DUE symptoms).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DueKind {
    /// Timeout, indicating a hang (monitor detection).
    Timeout,
    /// Process crash (OS detection).
    Crash,
    /// Non-zero exit status (application detection).
    NonZeroExit,
}

impl fmt::Display for DueKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DueKind::Timeout => write!(f, "timeout (hang)"),
            DueKind::Crash => write!(f, "process crash"),
            DueKind::NonZeroExit => write!(f, "non-zero exit status"),
        }
    }
}

/// Why the harness — not the program — failed an injection run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InfraKind {
    /// The injection worker panicked while driving the run.
    WorkerPanic,
    /// The run outlived its wall-clock deadline and was killed
    /// ([`gpu_runtime::RuntimeConfig::wall_deadline`]).
    Deadline,
    /// A process-isolated worker died (segfault, abort, OOM-kill, or
    /// protocol corruption) and kept dying after respawn retries. Unlike
    /// [`InfraKind::WorkerPanic`] — a caught Rust panic inside a live
    /// worker — this is the supervisor's verdict on a worker whose process
    /// vanished mid-run.
    WorkerDied,
}

impl fmt::Display for InfraKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InfraKind::WorkerPanic => write!(f, "worker panic"),
            InfraKind::Deadline => write!(f, "wall-clock deadline exceeded"),
            InfraKind::WorkerDied => write!(f, "worker process died"),
        }
    }
}

/// The top-level outcome class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OutcomeClass {
    /// No difference detected.
    Masked,
    /// Silent data corruption.
    Sdc(Vec<SdcReason>),
    /// Detected, unrecoverable error.
    Due(DueKind),
    /// The harness failed the run after exhausting retries; no verdict about
    /// the fault exists. Never folded into the DUE taxonomy.
    InfraError(InfraKind),
}

/// A classified run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// The outcome class.
    pub class: OutcomeClass,
    /// `true` when an SDC/Masked run carried an unhandled device anomaly.
    pub potential_due: bool,
}

impl Outcome {
    /// `true` for a masked outcome.
    pub fn is_masked(&self) -> bool {
        matches!(self.class, OutcomeClass::Masked)
    }

    /// `true` for an SDC outcome.
    pub fn is_sdc(&self) -> bool {
        matches!(self.class, OutcomeClass::Sdc(_))
    }

    /// `true` for a DUE outcome.
    pub fn is_due(&self) -> bool {
        matches!(self.class, OutcomeClass::Due(_))
    }

    /// `true` for an infrastructure-error outcome.
    pub fn is_infra(&self) -> bool {
        matches!(self.class, OutcomeClass::InfraError(_))
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.class {
            OutcomeClass::Masked => write!(f, "Masked")?,
            OutcomeClass::Sdc(reasons) => {
                write!(f, "SDC")?;
                if let Some(r) = reasons.first() {
                    write!(f, " ({r})")?;
                }
            }
            OutcomeClass::Due(kind) => write!(f, "DUE ({kind})")?,
            OutcomeClass::InfraError(kind) => write!(f, "InfraError ({kind})")?,
        }
        if self.potential_due {
            write!(f, " [potential DUE]")?;
        }
        Ok(())
    }
}

/// The verdict of an SDC-checking script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SdcVerdict {
    /// Outputs acceptable.
    Pass,
    /// Outputs corrupted, for these reasons.
    Fail(Vec<SdcReason>),
}

/// An application's SDC-checking script.
///
/// "The determination of what constitutes an SDC is both application and
/// user dependent, so SDC checking scripts must always be provided by the
/// user" (§IV-A). [`ExactDiff`] is the generic byte-exact script; programs
/// with tolerance-based acceptance provide their own.
pub trait SdcCheck: Sync {
    /// Compare a run's outputs against golden.
    fn check(&self, golden: &GoldenOutput, run: &ProgramOutput) -> SdcVerdict;
}

/// Byte-exact comparison of standard output and every output file.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExactDiff;

impl SdcCheck for ExactDiff {
    fn check(&self, golden: &GoldenOutput, run: &ProgramOutput) -> SdcVerdict {
        let mut reasons = Vec::new();
        if run.stdout != golden.stdout {
            reasons.push(SdcReason::Stdout);
        }
        for (name, bytes) in &golden.files {
            if run.files.get(name) != Some(bytes) {
                reasons.push(SdcReason::File(name.clone()));
            }
        }
        for name in run.files.keys() {
            if !golden.files.contains_key(name) {
                reasons.push(SdcReason::File(name.clone()));
            }
        }
        if reasons.is_empty() {
            SdcVerdict::Pass
        } else {
            SdcVerdict::Fail(reasons)
        }
    }
}

/// Classify one injection run against the golden run (Figure 1, step 4).
pub fn classify(golden: &GoldenOutput, run: &ProgramOutput, check: &dyn SdcCheck) -> Outcome {
    let class = match &run.termination {
        Termination::Hang => OutcomeClass::Due(DueKind::Timeout),
        Termination::Crash => OutcomeClass::Due(DueKind::Crash),
        // The harness gave up, the program didn't fail: without the run's
        // natural ending there is no Table V verdict to assign.
        Termination::DeadlineExceeded => OutcomeClass::InfraError(InfraKind::Deadline),
        Termination::Normal { exit_code } if *exit_code != 0 => {
            OutcomeClass::Due(DueKind::NonZeroExit)
        }
        Termination::Normal { .. } => match check.check(golden, run) {
            SdcVerdict::Pass => OutcomeClass::Masked,
            SdcVerdict::Fail(reasons) => OutcomeClass::Sdc(reasons),
        },
    };
    let potential_due =
        matches!(class, OutcomeClass::Masked | OutcomeClass::Sdc(_)) && run.has_anomaly();
    Outcome { class, potential_due }
}

/// Aggregated outcome counts for a campaign.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutcomeCounts {
    /// Masked runs.
    pub masked: u64,
    /// SDC runs.
    pub sdc: u64,
    /// DUEs detected by timeout.
    pub due_timeout: u64,
    /// DUEs detected by crash.
    pub due_crash: u64,
    /// DUEs detected by non-zero exit.
    pub due_nonzero: u64,
    /// SDC/Masked runs flagged as potential DUEs.
    pub potential_due: u64,
    /// Runs the harness failed (worker panic, deadline) after retries.
    /// Counted in [`OutcomeCounts::total`] but excluded from
    /// [`OutcomeCounts::classified`] and every rate denominator.
    pub infra: u64,
}

impl OutcomeCounts {
    /// Record one outcome.
    pub fn add(&mut self, o: &Outcome) {
        match &o.class {
            OutcomeClass::Masked => self.masked += 1,
            OutcomeClass::Sdc(_) => self.sdc += 1,
            OutcomeClass::Due(DueKind::Timeout) => self.due_timeout += 1,
            OutcomeClass::Due(DueKind::Crash) => self.due_crash += 1,
            OutcomeClass::Due(DueKind::NonZeroExit) => self.due_nonzero += 1,
            OutcomeClass::InfraError(_) => self.infra += 1,
        }
        if o.potential_due {
            self.potential_due += 1;
        }
    }

    /// Total DUEs of any kind.
    pub fn due(&self) -> u64 {
        self.due_timeout + self.due_crash + self.due_nonzero
    }

    /// Total recorded runs, including infrastructure errors.
    pub fn total(&self) -> u64 {
        self.classified() + self.infra
    }

    /// Runs with a real Table V verdict — the denominator for every
    /// SDC/DUE/Masked rate. Infrastructure errors carry no verdict and would
    /// bias the rates toward zero if counted.
    pub fn classified(&self) -> u64 {
        self.masked + self.sdc + self.due()
    }

    /// `(sdc, due, masked)` fractions of the classified runs.
    pub fn fractions(&self) -> (f64, f64, f64) {
        let t = self.classified() as f64;
        if t == 0.0 {
            return (0.0, 0.0, 0.0);
        }
        (self.sdc as f64 / t, self.due() as f64 / t, self.masked as f64 / t)
    }

    /// Merge another tally into this one.
    pub fn merge(&mut self, other: &OutcomeCounts) {
        self.masked += other.masked;
        self.sdc += other.sdc;
        self.due_timeout += other.due_timeout;
        self.due_crash += other.due_crash;
        self.due_nonzero += other.due_nonzero;
        self.potential_due += other.potential_due;
        self.infra += other.infra;
    }
}

impl fmt::Display for OutcomeCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (sdc, due, masked) = self.fractions();
        write!(
            f,
            "SDC {:.1}%, DUE {:.1}%, Masked {:.1}% ({} classified runs, {} potential DUEs",
            sdc * 100.0,
            due * 100.0,
            masked * 100.0,
            self.classified(),
            self.potential_due
        )?;
        if self.infra > 0 {
            write!(f, ", {} infra errors excluded", self.infra)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_runtime::RunSummary;
    use gpu_sim::{TrapInfo, TrapKind};
    use std::collections::BTreeMap;

    fn golden() -> GoldenOutput {
        let mut files = BTreeMap::new();
        files.insert("out.dat".to_string(), vec![1, 2, 3]);
        GoldenOutput { stdout: "hello\n".into(), files, summary: RunSummary::default() }
    }

    fn run(stdout: &str, termination: Termination) -> ProgramOutput {
        let mut files = BTreeMap::new();
        files.insert("out.dat".to_string(), vec![1, 2, 3]);
        ProgramOutput {
            stdout: stdout.into(),
            files,
            termination,
            anomalies: Vec::new(),
            summary: RunSummary::default(),
            prefix_instrs_skipped: 0,
            tail_replayed: Default::default(),
        }
    }

    fn anomaly() -> TrapInfo {
        TrapInfo {
            kind: TrapKind::IllegalInstruction,
            kernel: "k".into(),
            pc: None,
            block: None,
            thread: None,
        }
    }

    #[test]
    fn masked_when_identical() {
        let o =
            classify(&golden(), &run("hello\n", Termination::Normal { exit_code: 0 }), &ExactDiff);
        assert!(o.is_masked());
        assert!(!o.potential_due);
    }

    #[test]
    fn sdc_on_stdout_diff() {
        let o =
            classify(&golden(), &run("helXo\n", Termination::Normal { exit_code: 0 }), &ExactDiff);
        assert!(o.is_sdc());
        match &o.class {
            OutcomeClass::Sdc(r) => assert_eq!(r, &vec![SdcReason::Stdout]),
            _ => unreachable!(),
        }
    }

    #[test]
    fn sdc_on_file_diff_missing_and_extra() {
        let g = golden();
        let mut r = run("hello\n", Termination::Normal { exit_code: 0 });
        r.files.insert("out.dat".into(), vec![9, 9, 9]);
        assert!(classify(&g, &r, &ExactDiff).is_sdc());

        let mut r = run("hello\n", Termination::Normal { exit_code: 0 });
        r.files.clear();
        assert!(classify(&g, &r, &ExactDiff).is_sdc());

        let mut r = run("hello\n", Termination::Normal { exit_code: 0 });
        r.files.insert("extra.dat".into(), vec![1]);
        assert!(classify(&g, &r, &ExactDiff).is_sdc());
    }

    #[test]
    fn due_on_hang_and_exit() {
        let o = classify(&golden(), &run("hello\n", Termination::Hang), &ExactDiff);
        assert_eq!(o.class, OutcomeClass::Due(DueKind::Timeout));
        let o = classify(&golden(), &run("x\n", Termination::Normal { exit_code: 1 }), &ExactDiff);
        assert_eq!(o.class, OutcomeClass::Due(DueKind::NonZeroExit));
    }

    #[test]
    fn potential_due_flags_unhandled_anomaly() {
        let mut r = run("hello\n", Termination::Normal { exit_code: 0 });
        r.anomalies.push(anomaly());
        let o = classify(&golden(), &r, &ExactDiff);
        assert!(o.is_masked(), "folded into Masked per §IV-A");
        assert!(o.potential_due);

        // A DUE is never also a potential DUE.
        let mut r = run("hello\n", Termination::Normal { exit_code: 2 });
        r.anomalies.push(anomaly());
        let o = classify(&golden(), &r, &ExactDiff);
        assert!(o.is_due());
        assert!(!o.potential_due);
    }

    #[test]
    fn deadline_classifies_as_infra_error_not_due() {
        let o = classify(&golden(), &run("hello\n", Termination::DeadlineExceeded), &ExactDiff);
        assert_eq!(o.class, OutcomeClass::InfraError(InfraKind::Deadline));
        assert!(o.is_infra());
        assert!(!o.is_due());
        assert!(o.to_string().contains("InfraError"));

        // Even with a latched anomaly, an infra error is not a potential
        // DUE — the run never reached a verdict the flag could qualify.
        let mut r = run("hello\n", Termination::DeadlineExceeded);
        r.anomalies.push(anomaly());
        let o = classify(&golden(), &r, &ExactDiff);
        assert!(o.is_infra());
        assert!(!o.potential_due);
    }

    #[test]
    fn infra_errors_excluded_from_rate_denominators() {
        let mut c = OutcomeCounts::default();
        c.add(&Outcome { class: OutcomeClass::Masked, potential_due: false });
        c.add(&Outcome { class: OutcomeClass::Sdc(vec![SdcReason::Stdout]), potential_due: false });
        c.add(&Outcome {
            class: OutcomeClass::InfraError(InfraKind::WorkerPanic),
            potential_due: false,
        });
        c.add(&Outcome {
            class: OutcomeClass::InfraError(InfraKind::Deadline),
            potential_due: false,
        });
        assert_eq!(c.total(), 4);
        assert_eq!(c.classified(), 2);
        assert_eq!(c.infra, 2);
        let (sdc, due, masked) = c.fractions();
        assert_eq!(sdc, 0.5, "denominator is classified runs, not total");
        assert_eq!(due, 0.0);
        assert_eq!(masked, 0.5);
        assert!(c.to_string().contains("2 infra errors excluded"));

        let mut d = OutcomeCounts::default();
        d.merge(&c);
        assert_eq!(d.infra, 2);
    }

    #[test]
    fn custom_check_overrides_byte_diff() {
        struct Tolerant;
        impl SdcCheck for Tolerant {
            fn check(&self, _g: &GoldenOutput, _r: &ProgramOutput) -> SdcVerdict {
                SdcVerdict::Pass
            }
        }
        // Different bytes, but the app's checker accepts them.
        let o = classify(
            &golden(),
            &run("close enough\n", Termination::Normal { exit_code: 0 }),
            &Tolerant,
        );
        assert!(o.is_masked());
    }

    #[test]
    fn counts_aggregate_and_fraction() {
        let mut c = OutcomeCounts::default();
        c.add(&Outcome { class: OutcomeClass::Masked, potential_due: false });
        c.add(&Outcome { class: OutcomeClass::Sdc(vec![SdcReason::Stdout]), potential_due: true });
        c.add(&Outcome { class: OutcomeClass::Due(DueKind::Timeout), potential_due: false });
        c.add(&Outcome { class: OutcomeClass::Due(DueKind::NonZeroExit), potential_due: false });
        assert_eq!(c.total(), 4);
        assert_eq!(c.due(), 2);
        assert_eq!(c.potential_due, 1);
        let (sdc, due, masked) = c.fractions();
        assert_eq!(sdc, 0.25);
        assert_eq!(due, 0.5);
        assert_eq!(masked, 0.25);

        let mut d = OutcomeCounts::default();
        d.merge(&c);
        d.merge(&c);
        assert_eq!(d.total(), 8);
    }
}
