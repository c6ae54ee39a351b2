//! Opcode coverage of the suite — supporting data for §IV-C's observation
//! that "the number of executed opcodes for our programs ranges from 16 to
//! 41 opcodes per program (out of the total possible 171)", which is what
//! makes profile-pruned permanent campaigns cheap.

use gpu_isa::InstrClass;
use gpu_runtime::RuntimeConfig;
use nvbitfi::{PreparedGolden, ProfilingMode};
use std::collections::BTreeSet;

fn main() {
    let args = bench::BenchArgs::from_env();
    let mut rows = vec![vec![
        "Program".to_string(),
        "opcodes".to_string(),
        "FP32".to_string(),
        "FP64".to_string(),
        "LD".to_string(),
        "PR".to_string(),
        "NODEST".to_string(),
        "OTHER".to_string(),
        "top-3 by dynamic count".to_string(),
    ]];
    let mut union: BTreeSet<gpu_isa::Opcode> = BTreeSet::new();
    for entry in args.programs() {
        let profile = PreparedGolden::new(entry.program.as_ref(), RuntimeConfig::default(), false)
            .expect("golden run")
            .profile(ProfilingMode::Approximate);
        let executed = profile.executed_opcodes();
        union.extend(executed.iter().copied());
        let by_class = |c: InstrClass| executed.iter().filter(|o| o.class() == c).count();
        let hot = profile.hottest_opcodes();
        let top: Vec<&str> = hot.iter().take(3).map(|(op, _)| op.mnemonic()).collect();
        rows.push(vec![
            entry.name.to_string(),
            format!("{}/171", executed.len()),
            by_class(InstrClass::Fp32).to_string(),
            by_class(InstrClass::Fp64).to_string(),
            by_class(InstrClass::Ld).to_string(),
            by_class(InstrClass::Pr).to_string(),
            by_class(InstrClass::NoDest).to_string(),
            by_class(InstrClass::Other).to_string(),
            top.join(" "),
        ]);
    }
    println!("OPCODE COVERAGE — executed opcodes per program (§IV-C supporting data)\n");
    print!("{}", nvbitfi::report::table(&rows));
    println!(
        "\nsuite-wide union: {} of 171 opcodes exercised; the paper reports 16-41 per program",
        union.len()
    );
}
