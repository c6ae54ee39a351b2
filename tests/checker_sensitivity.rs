//! SDC-checker sensitivity: every program's checking script must (a) pass
//! its own golden output, (b) catch corrupted output files, (c) catch
//! corrupted stdout, and — for tolerance-based checkers — (d) accept
//! last-ulp drift. "SDC checking scripts must always be provided by the
//! user" (§IV-A); these tests are the contract those scripts satisfy.

use gpu_runtime::{ProgramOutput, RuntimeConfig, Termination};
use nvbitfi::{golden_run, GoldenOutput, SdcVerdict};
use workloads::Scale;

fn as_output(g: &GoldenOutput) -> ProgramOutput {
    ProgramOutput {
        stdout: g.stdout.clone(),
        files: g.files.clone(),
        termination: Termination::Normal { exit_code: 0 },
        anomalies: Vec::new(),
        summary: g.summary.clone(),
        prefix_instrs_skipped: 0,
        tail_replayed: Default::default(),
    }
}

#[test]
fn every_checker_passes_its_own_golden() {
    for entry in workloads::suite(Scale::Test) {
        let golden = golden_run(entry.program.as_ref(), RuntimeConfig::default())
            .unwrap_or_else(|e| panic!("{}: {e}", entry.name));
        let verdict = entry.check.check(&golden, &as_output(&golden));
        assert_eq!(verdict, SdcVerdict::Pass, "{}", entry.name);
    }
}

#[test]
fn every_checker_catches_file_corruption() {
    for entry in workloads::suite(Scale::Test) {
        let golden = golden_run(entry.program.as_ref(), RuntimeConfig::default())
            .unwrap_or_else(|e| panic!("{}: {e}", entry.name));
        let mut run = as_output(&golden);
        let (name, bytes) = run.files.iter_mut().next().unwrap_or_else(|| {
            panic!("{} writes no output file", entry.name);
        });
        // Corrupt the exponent byte of an element-aligned slot in the
        // middle: a change no numeric tolerance can absorb. (Element width
        // is 4 or 8 bytes; 8-byte alignment lands on an element start for
        // both, and the last byte of an 8-byte window is an exponent byte
        // for f64 while offset +3 is the exponent byte for f32.)
        let start = (bytes.len() / 2) & !7;
        let hi = if matches!(entry.name, "350.md") { start + 7 } else { start + 3 };
        bytes[hi] ^= 0x7F;
        let name = name.clone();
        let verdict = entry.check.check(&golden, &run);
        assert!(
            matches!(verdict, SdcVerdict::Fail(_)),
            "{}: corrupting {name} must be an SDC",
            entry.name
        );
    }
}

#[test]
fn every_checker_catches_stdout_corruption() {
    for entry in workloads::suite(Scale::Test) {
        let golden = golden_run(entry.program.as_ref(), RuntimeConfig::default())
            .unwrap_or_else(|e| panic!("{}: {e}", entry.name));
        let mut run = as_output(&golden);
        // Multiply the first numeric token by 10 (shift its decimal point):
        // far outside any checker's tolerance.
        let corrupted: Vec<String> = golden
            .stdout
            .split_whitespace()
            .map(|tok| match tok.parse::<f64>() {
                Ok(v) if v != 0.0 => format!("{}", v * 10.0),
                _ => tok.to_string(),
            })
            .collect();
        run.stdout = corrupted.join(" ");
        assert_ne!(run.stdout, golden.stdout, "{}: corruption must change stdout", entry.name);
        let verdict = entry.check.check(&golden, &run);
        assert!(
            matches!(verdict, SdcVerdict::Fail(_)),
            "{}: corrupted stdout must be an SDC",
            entry.name
        );
    }
}

#[test]
fn tolerant_checkers_accept_last_ulp_drift() {
    // FP programs' checkers must not flag sub-tolerance drift (the reason
    // user-provided scripts exist at all: bit-exact comparison would flag
    // benign reassociation differences on real GPUs).
    for name in ["303.ostencil", "355.seismic", "363.swim"] {
        let entry = workloads::find(Scale::Test, name).expect("suite entry");
        let golden = golden_run(entry.program.as_ref(), RuntimeConfig::default())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let mut run = as_output(&golden);
        // Nudge every f32 element by one ulp.
        let bytes = run.files.values_mut().next().expect("an output file");
        for chunk in bytes.chunks_exact_mut(4) {
            let v = f32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
            let nudged = f32::from_bits(v.to_bits().wrapping_add(1));
            if nudged.is_finite() {
                chunk.copy_from_slice(&nudged.to_le_bytes());
            }
        }
        let verdict = entry.check.check(&golden, &run);
        assert_eq!(verdict, SdcVerdict::Pass, "{name}: one-ulp drift is not an SDC");
    }
}
