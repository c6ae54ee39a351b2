//! Shared host-side helpers: problem scaling, module assembly, and the
//! tolerance-based SDC checker the FP programs use.

use gpu_isa::{encode, Kernel, Module};
use gpu_runtime::{ModuleId, ProgramOutput, Runtime, RuntimeError};
use nvbitfi::{GoldenOutput, SdcCheck, SdcReason, SdcVerdict};

/// Problem scale: `Test` keeps runs tiny for debug-build unit tests;
/// `Paper` mirrors Table IV's kernel structure (scaled to simulator size).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Scale {
    /// Tiny inputs for fast (debug-build) testing.
    Test,
    /// The Table IV-shaped configuration used by the benchmark harness.
    #[default]
    Paper,
}

impl Scale {
    /// Pick a value by scale.
    pub fn pick<T>(self, test: T, paper: T) -> T {
        match self {
            Scale::Test => test,
            Scale::Paper => paper,
        }
    }
}

/// Assemble kernels into a module *binary* and load it — the only way
/// programs hand code to the runtime (no source crosses the boundary).
pub(crate) fn load_kernels(
    rt: &mut Runtime,
    name: &str,
    kernels: Vec<Kernel>,
) -> Result<ModuleId, RuntimeError> {
    let bytes = encode::encode_module(&Module::new(name, kernels));
    rt.load_module(&bytes)
}

/// Format a float for stdout so golden comparison is deterministic.
pub(crate) fn fmt_f(v: f64) -> String {
    format!("{v:.6e}")
}

/// Element type of a program's output files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileElem {
    /// Little-endian `f32` array.
    F32,
    /// Little-endian `f64` array.
    F64,
    /// Raw bytes (compared exactly).
    Bytes,
}

/// The SpecACCEL-style numeric checker: stdout tokens and output-file
/// elements must match golden within a relative tolerance; non-numeric
/// stdout tokens must match exactly.
#[derive(Debug, Clone, Copy)]
pub struct TolerantCheck {
    /// Relative tolerance (against `max(1, |golden|)`).
    pub rel_tol: f64,
    /// How output files are interpreted.
    pub file_elem: FileElem,
}

impl TolerantCheck {
    /// A checker with the given relative tolerance over `f32` files.
    pub fn f32(rel_tol: f64) -> TolerantCheck {
        TolerantCheck { rel_tol, file_elem: FileElem::F32 }
    }

    /// A checker with the given relative tolerance over `f64` files.
    pub fn f64(rel_tol: f64) -> TolerantCheck {
        TolerantCheck { rel_tol, file_elem: FileElem::F64 }
    }

    fn close(&self, golden: f64, got: f64) -> bool {
        let scale = golden.abs().max(1.0);
        // Written so a NaN on either side fails the comparison.
        (got - golden).abs() <= self.rel_tol * scale
    }

    fn check_stdout(&self, golden: &str, got: &str) -> bool {
        let gt: Vec<&str> = golden.split_whitespace().collect();
        let rt: Vec<&str> = got.split_whitespace().collect();
        if gt.len() != rt.len() {
            return false;
        }
        gt.iter().zip(&rt).all(|(g, r)| match (g.parse::<f64>(), r.parse::<f64>()) {
            (Ok(gv), Ok(rv)) => self.close(gv, rv),
            _ => g == r,
        })
    }

    fn check_file(&self, golden: &[u8], got: &[u8]) -> bool {
        if golden.len() != got.len() {
            return false;
        }
        match self.file_elem {
            FileElem::Bytes => golden == got,
            FileElem::F32 => golden.chunks_exact(4).zip(got.chunks_exact(4)).all(|(g, r)| {
                let gv = f32::from_le_bytes([g[0], g[1], g[2], g[3]]) as f64;
                let rv = f32::from_le_bytes([r[0], r[1], r[2], r[3]]) as f64;
                self.close(gv, rv)
            }),
            FileElem::F64 => golden.chunks_exact(8).zip(got.chunks_exact(8)).all(|(g, r)| {
                let gv = f64::from_le_bytes([g[0], g[1], g[2], g[3], g[4], g[5], g[6], g[7]]);
                let rv = f64::from_le_bytes([r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7]]);
                self.close(gv, rv)
            }),
        }
    }
}

impl SdcCheck for TolerantCheck {
    fn check(&self, golden: &GoldenOutput, run: &ProgramOutput) -> SdcVerdict {
        let mut reasons = Vec::new();
        if !self.check_stdout(&golden.stdout, &run.stdout) {
            reasons.push(SdcReason::Stdout);
        }
        for (name, bytes) in &golden.files {
            match run.files.get(name) {
                Some(got) if self.check_file(bytes, got) => {}
                _ => reasons.push(SdcReason::File(name.clone())),
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

/// Serialize an `f32` slice as little-endian bytes (for output files).
pub(crate) fn f32_bytes(v: &[f32]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_le_bytes()).collect()
}

/// Serialize an `f64` slice as little-endian bytes (for output files).
pub(crate) fn f64_bytes(v: &[f64]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_le_bytes()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_runtime::RunSummary;
    use std::collections::BTreeMap;

    fn golden(stdout: &str, file: Vec<u8>) -> GoldenOutput {
        let mut files = BTreeMap::new();
        files.insert("out.dat".to_string(), file);
        GoldenOutput { stdout: stdout.into(), files, summary: RunSummary::default() }
    }

    fn run(stdout: &str, file: Vec<u8>) -> ProgramOutput {
        let mut files = BTreeMap::new();
        files.insert("out.dat".to_string(), file);
        ProgramOutput {
            stdout: stdout.into(),
            files,
            termination: gpu_runtime::Termination::Normal { exit_code: 0 },
            anomalies: Vec::new(),
            summary: RunSummary::default(),
            prefix_instrs_skipped: 0,
            tail_replayed: Default::default(),
        }
    }

    #[test]
    fn tolerant_stdout_accepts_small_drift() {
        let c = TolerantCheck::f32(1e-4);
        let g = golden("checksum 1.000000e0 cells 64", f32_bytes(&[1.0]));
        let ok = run("checksum 1.000050e0 cells 64", f32_bytes(&[1.0]));
        assert_eq!(c.check(&g, &ok), SdcVerdict::Pass);
        let bad = run("checksum 1.100000e0 cells 64", f32_bytes(&[1.0]));
        assert!(matches!(c.check(&g, &bad), SdcVerdict::Fail(_)));
    }

    #[test]
    fn tolerant_rejects_token_changes() {
        let c = TolerantCheck::f32(1e-4);
        let g = golden("checksum 1.0", f32_bytes(&[1.0]));
        assert!(matches!(
            c.check(&g, &run("checksum 1.0 extra", f32_bytes(&[1.0]))),
            SdcVerdict::Fail(_)
        ));
        assert!(matches!(
            c.check(&g, &run("CHECKSUM 1.0", f32_bytes(&[1.0]))),
            SdcVerdict::Fail(_)
        ));
    }

    #[test]
    fn tolerant_file_comparison() {
        let c = TolerantCheck::f32(1e-3);
        let g = golden("x", f32_bytes(&[1.0, 2.0, 3.0]));
        assert_eq!(c.check(&g, &run("x", f32_bytes(&[1.0005, 2.0, 3.0]))), SdcVerdict::Pass);
        assert!(matches!(c.check(&g, &run("x", f32_bytes(&[1.5, 2.0, 3.0]))), SdcVerdict::Fail(_)));
        // length change fails
        assert!(matches!(c.check(&g, &run("x", f32_bytes(&[1.0, 2.0]))), SdcVerdict::Fail(_)));
    }

    #[test]
    fn nan_always_fails() {
        let c = TolerantCheck::f32(1e-3);
        let g = golden("v 1.0", f32_bytes(&[1.0]));
        assert!(matches!(c.check(&g, &run("v NaN", f32_bytes(&[1.0]))), SdcVerdict::Fail(_)));
        assert!(matches!(c.check(&g, &run("v 1.0", f32_bytes(&[f32::NAN]))), SdcVerdict::Fail(_)));
    }

    #[test]
    fn f64_files() {
        let c = TolerantCheck::f64(1e-9);
        let g = golden("x", f64_bytes(&[1.0, -2.0]));
        assert_eq!(c.check(&g, &run("x", f64_bytes(&[1.0, -2.0]))), SdcVerdict::Pass);
        assert!(matches!(c.check(&g, &run("x", f64_bytes(&[1.0, -2.1]))), SdcVerdict::Fail(_)));
    }

    #[test]
    fn missing_and_extra_files_fail() {
        let c = TolerantCheck::f32(1e-3);
        let g = golden("x", f32_bytes(&[1.0]));
        let mut r = run("x", f32_bytes(&[1.0]));
        r.files.insert("stray.dat".into(), vec![1]);
        assert!(matches!(c.check(&g, &r), SdcVerdict::Fail(_)));
        let mut r = run("x", f32_bytes(&[1.0]));
        r.files.clear();
        assert!(matches!(c.check(&g, &r), SdcVerdict::Fail(_)));
    }

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::Test.pick(1, 2), 1);
        assert_eq!(Scale::Paper.pick(1, 2), 2);
    }
}
