//! Campaign log files — the analog of the upstream scripts' `logs/`
//! directory: an *injection list* enumerating the selected faults before a
//! campaign runs, and a *results log* with one line per classified run.
//!
//! Both formats are plain text, tab-separated, order-preserving, and
//! round-trip exactly, so campaigns can be split across machines (ship the
//! injection list, gather the result logs) the way the paper's
//! `run_injections.py` does.
//!
//! A campaign's results log is its journal: `# meta` lines record its
//! [`CampaignSettings`], the analog of the upstream `params.py`. Each value
//! syntax they share with flags and worker frames has one parser here.

use crate::bitflip::BitFlipModel;
use crate::campaign::{CampaignConfig, InjectionRun};
use crate::error::FiError;
use crate::igid::InstrGroup;
use crate::outcome::{DueKind, InfraKind, Outcome, OutcomeClass, OutcomeCounts, SdcReason};
use crate::params::TransientParams;
use crate::profile::ProfilingMode;
use std::collections::BTreeMap;
use std::time::Duration;

/// A Table II *arch state id* (`--group`, `# meta igid=`, parameter files).
pub fn parse_group(s: &str) -> Option<InstrGroup> {
    InstrGroup::from_id(s.parse().ok()?)
}

/// A Table II bit-flip model id (`--bitflip`, `# meta bfm=`, parameter files).
pub fn parse_bit_flip(s: &str) -> Option<BitFlipModel> {
    BitFlipModel::from_id(s.parse().ok()?)
}

/// A profiling mode name: `exact`, `approx` or `approximate` (`--mode`,
/// `# meta mode=`).
pub fn parse_mode(s: &str) -> Option<ProfilingMode> {
    match s {
        "exact" => Some(ProfilingMode::Exact),
        "approx" | "approximate" => Some(ProfilingMode::Approximate),
        _ => None,
    }
}

/// A `1`/`0` flag (`# meta checkpoints=` and `prune=`, the results log's
/// `fired` column, worker frames).
pub fn parse_flag(s: &str) -> Option<bool> {
    match s {
        "1" => Some(true),
        "0" => Some(false),
        _ => None,
    }
}

/// A deadline in milliseconds, or `-` for none (`--deadline-ms`,
/// `# meta deadline_ms=`, the worker `init` frame).
pub fn parse_deadline_ms(s: &str) -> Option<Option<u64>> {
    match s {
        "-" => Some(None),
        ms => Some(Some(ms.parse().ok()?)),
    }
}

/// Serialize an injection list: a header plus one fault per line.
pub fn write_injection_list(sites: &[TransientParams]) -> String {
    let mut out = String::from(
        "# nvbitfi injection list v1\n# igid\tbfm\tkernel\tkcount\ticount\tdreg\tbitpat\n",
    );
    for p in sites {
        out.push_str(&p.write_fields('\t'));
        out.push('\n');
    }
    out
}

/// Parse an injection list produced by [`write_injection_list`].
///
/// # Errors
///
/// Returns [`FiError::BadParamFile`] naming the first offending line.
pub fn read_injection_list(text: &str) -> Result<Vec<TransientParams>, FiError> {
    let mut sites = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        if fields.len() != 7 {
            return Err(FiError::BadParamFile {
                line: lineno,
                reason: format!("expected 7 fields, got {}", fields.len()),
            });
        }
        sites.push(TransientParams::parse_fields(fields, |_| lineno)?);
    }
    Ok(sites)
}

/// The compact outcome code a results-log row (and the worker protocol's
/// `done` frame) carries, e.g. `MASKED`, `SDC:stdout`, `DUE:crash+pdue`.
pub fn outcome_code(o: &Outcome) -> String {
    let base = match &o.class {
        OutcomeClass::Masked => "MASKED".to_string(),
        OutcomeClass::Sdc(reasons) => {
            let tag = match reasons.first() {
                Some(SdcReason::Stdout) => "stdout",
                Some(SdcReason::File(_)) => "file",
                Some(SdcReason::AppCheck(_)) => "appcheck",
                None => "unspecified",
            };
            format!("SDC:{tag}")
        }
        OutcomeClass::Due(DueKind::Timeout) => "DUE:timeout".to_string(),
        OutcomeClass::Due(DueKind::Crash) => "DUE:crash".to_string(),
        OutcomeClass::Due(DueKind::NonZeroExit) => "DUE:exit".to_string(),
        OutcomeClass::InfraError(InfraKind::WorkerPanic) => "INFRA:panic".to_string(),
        OutcomeClass::InfraError(InfraKind::Deadline) => "INFRA:deadline".to_string(),
        OutcomeClass::InfraError(InfraKind::WorkerDied) => "INFRA:died".to_string(),
    };
    if o.potential_due {
        format!("{base}+pdue")
    } else {
        base
    }
}

/// Parse an [`outcome_code`] back into an [`Outcome`] (SDC reasons carry
/// placeholder payloads — the code stores only the reason *kind*).
pub fn parse_outcome(code: &str) -> Option<Outcome> {
    let (base, potential_due) = match code.strip_suffix("+pdue") {
        Some(b) => (b, true),
        None => (code, false),
    };
    let class = match base {
        "MASKED" => OutcomeClass::Masked,
        "SDC:stdout" => OutcomeClass::Sdc(vec![SdcReason::Stdout]),
        "SDC:file" => OutcomeClass::Sdc(vec![SdcReason::File("<from-log>".into())]),
        "SDC:appcheck" => OutcomeClass::Sdc(vec![SdcReason::AppCheck("<from-log>".into())]),
        "SDC:unspecified" => OutcomeClass::Sdc(vec![]),
        "DUE:timeout" => OutcomeClass::Due(DueKind::Timeout),
        "DUE:crash" => OutcomeClass::Due(DueKind::Crash),
        "DUE:exit" => OutcomeClass::Due(DueKind::NonZeroExit),
        "INFRA:panic" => OutcomeClass::InfraError(InfraKind::WorkerPanic),
        "INFRA:deadline" => OutcomeClass::InfraError(InfraKind::Deadline),
        "INFRA:died" => OutcomeClass::InfraError(InfraKind::WorkerDied),
        _ => return None,
    };
    Some(Outcome { class, potential_due })
}

/// Parsed results-log header: the program name and any `# meta key=value`
/// lines recorded when the log was started.
///
/// A campaign journal's meta lines carry its [`CampaignSettings`]; this
/// reader treats keys as opaque and [`CampaignSettings::from_meta`] reads
/// them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LogHeader {
    /// `program=` from the version line, if present.
    pub program: Option<String>,
    /// `key=value` pairs from `# meta` lines, in first-seen order per key.
    pub meta: BTreeMap<String, String>,
}

/// The settings a campaign journal records in its `# meta` lines: what
/// `resume` needs to rebuild the identical, seed-deterministic campaign.
#[derive(Debug, Clone)]
pub struct CampaignSettings {
    /// Workload scale name (`paper` or `test`).
    pub scale: String,
    /// Isolation name (`thread` or `process`). Only the binary can name a
    /// worker command, so it turns this into `config.isolation`.
    pub isolation: String,
    /// The campaign. A journal records its selection and run options; the
    /// other fields (`isolation` among them) read back as defaults.
    pub config: CampaignConfig,
}

impl Default for CampaignSettings {
    fn default() -> Self {
        CampaignSettings {
            scale: "paper".into(),
            isolation: "thread".into(),
            config: CampaignConfig::default(),
        }
    }
}

impl CampaignSettings {
    /// The `# meta` pairs, in the order a journal writes them.
    pub fn meta(&self) -> Vec<(&'static str, String)> {
        let c = &self.config;
        let mode = match c.profiling {
            ProfilingMode::Exact => "exact",
            ProfilingMode::Approximate => "approx",
        };
        vec![
            ("scale", self.scale.clone()),
            ("igid", c.group.id().to_string()),
            ("bfm", c.bit_flip.id().to_string()),
            ("injections", c.injections.to_string()),
            ("seed", c.seed.to_string()),
            ("mode", mode.to_string()),
            ("checkpoints", u8::from(c.use_checkpoints).to_string()),
            ("prune", u8::from(c.use_static_prune).to_string()),
            ("max_retries", c.max_retries.to_string()),
            ("deadline_ms", c.run_deadline.map_or("-".into(), |d| d.as_millis().to_string())),
            ("isolation", self.isolation.clone()),
        ]
    }

    /// Read the settings [`CampaignSettings::meta`] wrote back from a parsed
    /// header. `igid`, `bfm`, `injections` and `seed` are required; the
    /// other keys default as a campaign's flags do.
    ///
    /// # Errors
    ///
    /// Returns [`FiError::BadLogMeta`] naming the first key that is
    /// missing or whose value does not parse.
    pub fn from_meta(header: &LogHeader) -> Result<CampaignSettings, FiError> {
        fn parsed<T: std::str::FromStr>(s: &str) -> Option<T> {
            s.parse().ok()
        }
        let d = CampaignSettings::default();
        let c = &d.config;
        let deadline = |s: &str| Some(parse_deadline_ms(s)?.map(Duration::from_millis));
        Ok(CampaignSettings {
            scale: header.value("scale", Some(d.scale), parsed)?,
            config: CampaignConfig {
                group: header.value("igid", None, parse_group)?,
                bit_flip: header.value("bfm", None, parse_bit_flip)?,
                injections: header.value("injections", None, parsed)?,
                seed: header.value("seed", None, parsed)?,
                profiling: header.value("mode", Some(c.profiling), parse_mode)?,
                use_checkpoints: header.value(
                    "checkpoints",
                    Some(c.use_checkpoints),
                    parse_flag,
                )?,
                use_static_prune: header.value("prune", Some(c.use_static_prune), parse_flag)?,
                max_retries: header.value("max_retries", Some(c.max_retries), parsed)?,
                run_deadline: header.value("deadline_ms", Some(c.run_deadline), deadline)?,
                ..d.config
            },
            isolation: header.value("isolation", Some(d.isolation), parsed)?,
        })
    }
}

impl LogHeader {
    /// The value of `# meta key=` parsed by `parse`, or `default` when the
    /// line is absent (`None`: the key is required).
    fn value<T>(
        &self,
        key: &'static str,
        default: Option<T>,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<T, FiError> {
        let bad = |reason: String| FiError::BadLogMeta { key, reason };
        match (self.meta.get(key), default) {
            (Some(v), _) => parse(v).ok_or_else(|| bad(format!("bad value `{v}`"))),
            (None, Some(d)) => Ok(d),
            (None, None) => {
                Err(bad("missing; only a `campaign --log` journal can be resumed".into()))
            }
        }
    }
}

/// Parse the comment header of a results log (version line and `# meta`
/// lines). Data rows are ignored; unknown comment lines are skipped.
pub fn parse_log_header(text: &str) -> LogHeader {
    let mut header = LogHeader::default();
    for line in text.lines() {
        let Some(comment) = line.strip_prefix('#') else { continue };
        let comment = comment.trim();
        if let Some(rest) = comment.strip_prefix("nvbitfi results log ") {
            if let Some(program) = rest.split_whitespace().find_map(|w| w.strip_prefix("program="))
            {
                header.program = Some(program.to_string());
            }
        } else if let Some(pair) = comment.strip_prefix("meta ") {
            if let Some((k, v)) = pair.split_once('=') {
                header.meta.entry(k.trim().to_string()).or_insert_with(|| v.trim().to_string());
            }
        }
    }
    header
}

/// The results-log header: version line, one `# meta key=value` line per
/// pair, and the column-name comment. This is what a journaling campaign
/// writes before its first row; a `run-list` journal writes it with empty
/// meta.
///
/// Keys and values must not contain newlines (they are written verbatim).
pub fn results_log_header(program: &str, meta: &[(&str, String)]) -> String {
    let mut out = format!("# nvbitfi results log v5 program={program}\n");
    for (k, v) in meta {
        out.push_str(&format!("# meta {k}={v}\n"));
    }
    out.push_str(
        "# igid\tbfm\tkernel\tkcount\ticount\tdreg\tbitpat\tfired\toutcome\twall_us\tskip_instrs\tpruned\tattempts\n",
    );
    out
}

/// One newline-terminated v5 results row — the unit a durable journal
/// appends and flushes as each run completes. v5 rows have 13 fields: the
/// seven parameter-file values, then `fired`, `outcome`, `wall_us`,
/// `skip_instrs` (dynamic instructions skipped by checkpoint
/// fast-forward), `pruned` (`static` for statically-pruned sites, `-` for
/// simulated runs) and `attempts` (executions the verdict took, counting
/// retries).
pub fn results_log_row(run: &InjectionRun) -> String {
    format!(
        "{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
        run.params.write_fields('\t'),
        u8::from(run.injected),
        outcome_code(&run.outcome),
        run.wall.as_micros(),
        run.prefix_instrs_skipped,
        if run.pruned { "static" } else { "-" },
        run.attempts
    )
}

/// Parse a results log: a [`results_log_header`] followed by
/// [`results_log_row`] lines. Only v5 rows are accepted; the older 10- to
/// 12-field layouts are rejected.
///
/// Each row comes back as the [`InjectionRun`] it records, with `wall` at
/// microsecond granularity, SDC reasons carrying placeholder payloads (the
/// log stores only the reason *kind*), and `resumed` false.
///
/// # Errors
///
/// Returns [`FiError::BadParamFile`] naming the first offending line.
pub fn read_results_log(text: &str) -> Result<Vec<InjectionRun>, FiError> {
    let bad = |line: usize, reason: String| FiError::BadParamFile { line, reason };
    let mut rows = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        if fields.len() != 13 {
            return Err(bad(lineno, format!("expected 13 fields, got {}", fields.len())));
        }
        let params = TransientParams::parse_fields(fields[..7].iter().copied(), |_| lineno)?;
        let injected = parse_flag(fields[7])
            .ok_or_else(|| bad(lineno, format!("bad fired flag `{}`", fields[7])))?;
        let outcome = parse_outcome(fields[8])
            .ok_or_else(|| bad(lineno, format!("bad outcome `{}`", fields[8])))?;
        let wall_us =
            fields[9].parse::<u64>().map_err(|e| bad(lineno, format!("bad wall_us: {e}")))?;
        let prefix_instrs_skipped =
            fields[10].parse::<u64>().map_err(|e| bad(lineno, format!("bad skip_instrs: {e}")))?;
        let pruned = match fields[11] {
            "static" => true,
            "-" => false,
            other => return Err(bad(lineno, format!("bad pruned flag `{other}`"))),
        };
        let attempts =
            fields[12].parse::<u32>().map_err(|e| bad(lineno, format!("bad attempts: {e}")))?;
        if attempts == 0 {
            return Err(bad(lineno, "attempts must be >= 1".into()));
        }
        rows.push(InjectionRun {
            params,
            outcome,
            injected,
            wall: Duration::from_micros(wall_us),
            prefix_instrs_skipped,
            tail_replayed: Default::default(),
            pruned,
            attempts,
            resumed: false,
        });
    }
    Ok(rows)
}

/// Parse a possibly crash-truncated results log, tolerating a torn final
/// line.
///
/// A journaling campaign appends each row as one newline-terminated write,
/// so only the *last* line of a crashed campaign's log can be incomplete —
/// recognizable by the missing terminator. The torn tail is dropped (its run
/// simply re-executes on resume) and reported via the second return value.
///
/// # Errors
///
/// Returns [`FiError::BadParamFile`] for malformed *complete* lines — those
/// indicate real corruption, not a crash mid-append.
pub fn recover_results_log(text: &str) -> Result<(Vec<InjectionRun>, bool), FiError> {
    let (intact, torn) = match text.rfind('\n') {
        _ if text.is_empty() || text.ends_with('\n') => (text, false),
        Some(last) => (&text[..=last], true),
        None => ("", true),
    };
    Ok((read_results_log(intact)?, torn))
}

/// Aggregate outcome counts over runs — a campaign's own, or rows parsed
/// from results logs (the gather step of a split campaign).
pub fn tally(runs: &[InjectionRun]) -> OutcomeCounts {
    let mut counts = OutcomeCounts::default();
    for r in runs {
        counts.add(&r.outcome);
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitflip::BitFlipModel;
    use crate::igid::InstrGroup;

    fn site(i: u64) -> TransientParams {
        TransientParams {
            group: InstrGroup::Gp,
            bit_flip: BitFlipModel::FlipTwoBits,
            kernel_name: format!("kern_{}", i % 3),
            kernel_count: i % 5,
            instruction_count: i * 97,
            destination_register: (i as f64 * 0.37) % 1.0,
            bit_pattern: (i as f64 * 0.61) % 1.0,
        }
    }

    #[test]
    fn injection_list_roundtrips() {
        let sites: Vec<_> = (0..20).map(site).collect();
        let text = write_injection_list(&sites);
        assert_eq!(read_injection_list(&text).expect("parse"), sites);
    }

    #[test]
    fn injection_list_rejects_garbage() {
        assert!(matches!(
            read_injection_list("1\t2\tk"),
            Err(FiError::BadParamFile { line: 1, .. })
        ));
        assert!(matches!(
            read_injection_list("9\t1\tk\t0\t0\t0.5\t0.5"),
            Err(FiError::BadParamFile { .. })
        ));
        // out-of-range float caught by validation
        assert!(read_injection_list("1\t1\tk\t0\t0\t1.5\t0.5").is_err());
    }

    #[test]
    fn outcome_codes_roundtrip() {
        let outcomes = [
            Outcome { class: OutcomeClass::Masked, potential_due: false },
            Outcome { class: OutcomeClass::Masked, potential_due: true },
            Outcome { class: OutcomeClass::Sdc(vec![SdcReason::Stdout]), potential_due: false },
            Outcome {
                class: OutcomeClass::Sdc(vec![SdcReason::File("x".into())]),
                potential_due: true,
            },
            Outcome { class: OutcomeClass::Due(DueKind::Timeout), potential_due: false },
            Outcome { class: OutcomeClass::Due(DueKind::Crash), potential_due: false },
            Outcome { class: OutcomeClass::Due(DueKind::NonZeroExit), potential_due: false },
            Outcome {
                class: OutcomeClass::InfraError(InfraKind::WorkerPanic),
                potential_due: false,
            },
            Outcome { class: OutcomeClass::InfraError(InfraKind::Deadline), potential_due: false },
            Outcome {
                class: OutcomeClass::InfraError(InfraKind::WorkerDied),
                potential_due: false,
            },
        ];
        for o in outcomes {
            let code = outcome_code(&o);
            let back = parse_outcome(&code).expect("parse");
            assert_eq!(back.potential_due, o.potential_due, "{code}");
            // class kinds survive (payload strings are placeholders)
            assert_eq!(
                std::mem::discriminant(&back.class),
                std::mem::discriminant(&o.class),
                "{code}"
            );
        }
        assert!(parse_outcome("NONSENSE").is_none());
    }

    #[test]
    fn results_log_roundtrips_and_tallies() {
        let runs: Vec<InjectionRun> = (0..10)
            .map(|i| InjectionRun {
                params: site(i),
                outcome: if i % 3 == 0 {
                    Outcome {
                        class: OutcomeClass::Sdc(vec![SdcReason::Stdout]),
                        potential_due: false,
                    }
                } else {
                    Outcome { class: OutcomeClass::Masked, potential_due: i % 4 == 1 }
                },
                injected: i % 7 != 0,
                wall: std::time::Duration::from_micros(1000 + i),
                prefix_instrs_skipped: i * 1000,
                tail_replayed: Default::default(),
                pruned: i == 4,
                attempts: 1 + (i % 3) as u32,
                resumed: false,
            })
            .collect();
        let mut text = results_log_header("test.prog", &[]);
        for run in &runs {
            text.push_str(&results_log_row(run));
        }
        assert!(text.starts_with("# nvbitfi results log v5 program=test.prog"));
        let rows = read_results_log(&text).expect("parse");
        assert_eq!(rows.len(), 10);
        let mut counts = OutcomeCounts::default();
        for r in &runs {
            counts.add(&r.outcome);
        }
        assert_eq!(tally(&rows), counts);
        for (a, b) in rows.iter().zip(&runs) {
            assert_eq!(a.params, b.params);
            assert_eq!(a.injected, b.injected);
            assert_eq!(a.wall, b.wall);
            assert_eq!(a.prefix_instrs_skipped, b.prefix_instrs_skipped);
            assert_eq!(a.pruned, b.pruned);
            assert_eq!(a.attempts, b.attempts);
        }
    }

    #[test]
    fn header_meta_roundtrips() {
        let header = results_log_header(
            "p.x",
            &[("seed", "42".to_string()), ("injections", "100".to_string())],
        );
        let parsed = parse_log_header(&header);
        assert_eq!(parsed.program.as_deref(), Some("p.x"));
        assert_eq!(parsed.meta.get("seed").map(String::as_str), Some("42"));
        assert_eq!(parsed.meta.get("injections").map(String::as_str), Some("100"));
        // Headers without meta lines parse to an empty map; data rows and
        // unknown comments are ignored.
        let plain = format!(
            "{}1\t1\tk\t0\t0\t0.1\t0.1\t1\tMASKED\t5\n# random note\n",
            results_log_header("q", &[])
        );
        let parsed = parse_log_header(&plain);
        assert_eq!(parsed.program.as_deref(), Some("q"));
        assert!(parsed.meta.is_empty());
    }

    #[test]
    fn campaign_settings_read_back_what_they_wrote() {
        let mut grid = Vec::new();
        for (i, (group, bit_flip)) in
            InstrGroup::ALL.into_iter().zip(BitFlipModel::ALL.into_iter().cycle()).enumerate()
        {
            for profiling in [ProfilingMode::Exact, ProfilingMode::Approximate] {
                let flags = i % 4;
                grid.push(CampaignSettings {
                    scale: ["paper", "test"][i % 2].into(),
                    isolation: ["thread", "process"][flags % 2].into(),
                    config: CampaignConfig {
                        injections: 1 + i * 37,
                        group,
                        bit_flip,
                        profiling,
                        seed: u64::MAX - i as u64,
                        use_checkpoints: flags & 1 == 0,
                        use_static_prune: flags & 2 == 0,
                        max_retries: i as u32,
                        run_deadline: (i % 3 > 0).then(|| Duration::from_millis(i as u64 * 250)),
                        ..CampaignConfig::default()
                    },
                });
            }
        }
        for settings in grid {
            let meta = settings.meta();
            let header = parse_log_header(&results_log_header("p", &meta));
            let back = CampaignSettings::from_meta(&header).expect("read back");
            assert_eq!(back.meta(), meta);
        }
    }

    #[test]
    fn campaign_settings_reject_bad_or_missing_meta_by_key() {
        let text = results_log_header("p", &CampaignSettings::default().meta());
        let header = parse_log_header(&text);
        assert!(CampaignSettings::from_meta(&header).is_ok());
        for (key, value) in [
            ("igid", "9"),
            ("bfm", "x"),
            ("injections", "-1"),
            ("seed", ""),
            ("mode", "fast"),
            ("checkpoints", "banana"),
            ("prune", "2"),
            ("max_retries", "many"),
            ("deadline_ms", "soon"),
        ] {
            let mut bad = header.clone();
            bad.meta.insert(key.to_string(), value.to_string());
            let err = CampaignSettings::from_meta(&bad).unwrap_err().to_string();
            assert!(err.contains(&format!("`# meta {key}=`")), "{key}: {err}");
        }
        for key in ["igid", "bfm", "injections", "seed"] {
            let mut missing = header.clone();
            missing.meta.remove(key);
            let err = CampaignSettings::from_meta(&missing).unwrap_err().to_string();
            assert!(err.contains(&format!("`# meta {key}=`")), "{key}: {err}");
        }
        // Optional keys default as a campaign's flags do; both mode
        // spellings read.
        let mut sparse = LogHeader::default();
        for (k, v) in [("igid", "7"), ("bfm", "1"), ("injections", "2"), ("seed", "7")] {
            sparse.meta.insert(k.into(), v.into());
        }
        let read = CampaignSettings::from_meta(&sparse).expect("sparse");
        assert_eq!(
            read.meta(),
            CampaignSettings {
                config: CampaignConfig { injections: 2, seed: 7, ..CampaignConfig::default() },
                ..CampaignSettings::default()
            }
            .meta()
        );
        for mode in ["approx", "approximate"] {
            sparse.meta.insert("mode".into(), mode.into());
            let read = CampaignSettings::from_meta(&sparse).expect(mode);
            assert_eq!(read.config.profiling, ProfilingMode::Approximate);
        }
    }

    #[test]
    fn recovery_drops_torn_final_line_only() {
        let mut text = results_log_header("p", &[]);
        text.push_str("1\t1\tk\t0\t0\t0.1\t0.1\t1\tMASKED\t5\t0\t-\t1\n");
        text.push_str("1\t1\tk\t0\t1\t0.1\t0.1\t1\tSDC:stdout\t6\t0\t-\t1\n");

        let (rows, torn) = recover_results_log(&text).expect("clean log");
        assert_eq!(rows.len(), 2);
        assert!(!torn);

        // A crash mid-append leaves an unterminated fragment: dropped.
        let torn_text = format!("{text}1\t1\tk\t0\t2\t0.1\t0.1\t1\tMAS");
        let (rows, torn) = recover_results_log(&torn_text).expect("torn log");
        assert_eq!(rows.len(), 2);
        assert!(torn);

        // Header-only fragment (crash before the first complete row).
        let (rows, torn) = recover_results_log("# nvbitfi results").expect("fragment");
        assert!(rows.is_empty());
        assert!(torn);

        // A malformed *complete* line is corruption, not a torn tail.
        let corrupt = format!("{text}1\tgarbage\n");
        assert!(recover_results_log(&corrupt).is_err());
    }

    #[test]
    fn results_log_rejects_bad_rows() {
        let header = "# nvbitfi results log v5 program=x\n";
        let good = "1\t1\tk\t0\t0\t0.1\t0.1\t1\tINFRA:panic\t5\t42\tstatic\t3";
        let row = &read_results_log(&format!("{header}{good}")).expect("v5 row parses")[0];
        assert!(row.outcome.is_infra() && row.pruned);
        assert_eq!((row.prefix_instrs_skipped, row.attempts), (42, 3));
        for bad in [
            "1\t1\tk\t0\t0\t0.1\t0.1\t2\tMASKED\t5\t0\t-\t1", // fired flag
            "1\t1\tk\t0\t0\t0.1\t0.1\t1\tWAT\t5\t0\t-\t1",    // outcome
            "1\t1\tk\t0\t0\t0.1\t0.1\t1\tMASKED\t5\t0\tmaybe\t1", // pruned flag
            "1\t1\tk\t0\t0\t0.1\t0.1\t1\tMASKED\t5\t0\t-\t0", // attempts
            "1\t1\tk\t0\t0\t0.1\t0.1\t1\tMASKED\t5\t0\t-",    // 12 fields
        ] {
            assert!(read_results_log(&format!("{header}{bad}")).is_err(), "{bad}");
        }
        // A v1 row (10 fields, no skip/pruned/attempts columns) is rejected
        // and named by its line.
        let v1 = format!("{header}1\t1\tk\t0\t0\t0.1\t0.1\t1\tMASKED\t5");
        assert!(matches!(
            read_results_log(&v1),
            Err(FiError::BadParamFile { line: 2, reason }) if reason == "expected 13 fields, got 10"
        ));
    }
}
