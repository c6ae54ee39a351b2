//! Every suite kernel must pass the static linter.
//!
//! The campaign's dead-fault pruning trusts the analyses behind `fi lint`,
//! so the suite's own kernels are held to the zero-defect bar: no
//! uninitialized reads, no unreachable code, no missing `EXIT`, no dead
//! writes. Modules are linted as the runtime loaded them — decoded from
//! their binaries — so the encode/decode round-trip is linted, not the
//! builder output.

use gpu_analysis::{lint_module, render_text, Severity};
use gpu_runtime::{run_program_golden, RuntimeConfig};
use workloads::{suite, Scale};

#[test]
fn all_suite_kernels_lint_clean() {
    let mut failures = String::new();
    for entry in suite(Scale::Test) {
        let (out, capture) =
            run_program_golden(entry.program.as_ref(), RuntimeConfig::default(), false);
        assert!(
            out.termination.is_clean(),
            "{}: golden run failed: {:?}",
            entry.name,
            out.termination
        );
        let modules = capture.modules;
        assert!(!modules.is_empty(), "{}: no modules captured", entry.name);
        for module in modules.iter() {
            let findings = lint_module(module);
            if !findings.is_empty() {
                failures.push_str(&format!(
                    "\n== {} module `{}` ==\n{}",
                    entry.name,
                    module.name(),
                    render_text(&findings)
                ));
            }
            assert!(
                !findings.iter().any(|f| f.severity == Severity::Error),
                "linter errors in suite kernels:{failures}"
            );
        }
    }
    assert!(failures.is_empty(), "linter findings in suite kernels:{failures}");
}
