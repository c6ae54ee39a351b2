//! Ablation for the §V *intermittent fault* extension: sweep the activation
//! probability of an intermittent fault from "almost transient" (one in a
//! thousand activations) to "permanent" (always active) and watch the
//! outcome distribution interpolate between the transient-like and
//! permanent-like regimes of Figures 2 and 3.

use gpu_runtime::{run_program, RuntimeConfig};
use nvbitfi::ext::{ActivationPattern, CorruptionFn, ExtFault};
use nvbitfi::{classify, golden_run, report, OutcomeCounts, PermanentInjector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let args = bench::BenchArgs::from_env();
    // One arithmetic-heavy program keeps the sweep readable.
    let entry = workloads::find(args.scale, "303.ostencil").expect("suite program");
    let program = entry.program.as_ref();
    let check = entry.check.as_ref();

    let golden = golden_run(program, RuntimeConfig::default()).expect("golden");
    let cfg =
        RuntimeConfig { instr_budget: Some(golden.suggested_budget()), ..RuntimeConfig::default() };

    let trials = 24usize;
    println!(
        "§V ABLATION — intermittent FADD fault on {}, {} (SM, lane, bit) samples per rate\n",
        entry.name, trials
    );
    let mut rows = vec![vec![
        "activation".to_string(),
        "SDC".to_string(),
        "DUE".to_string(),
        "Masked".to_string(),
        "mean activations".to_string(),
    ]];
    for (label, pattern) in [
        ("p=0.001", Some(0.001)),
        ("p=0.01", Some(0.01)),
        ("p=0.1", Some(0.1)),
        ("p=0.5", Some(0.5)),
        ("always (permanent)", None),
    ] {
        let mut counts = OutcomeCounts::default();
        let mut activations = 0u64;
        let mut rng = StdRng::seed_from_u64(args.seed);
        for t in 0..trials {
            let activation = match pattern {
                Some(p) => ActivationPattern::Random { prob: p, seed: args.seed ^ (t as u64) },
                None => ActivationPattern::Always,
            };
            let fault = ExtFault {
                opcodes: vec![gpu_isa::Opcode::FADD],
                sm_id: rng.gen_range(0..6),
                lane_id: rng.gen_range(0..16),
                corruption: CorruptionFn::Xor(1u32 << rng.gen_range(0u32..32)),
                activation,
            };
            let (tool, handle) = PermanentInjector::extended(fault);
            let out = run_program(program, cfg.clone(), Some(Box::new(tool)));
            counts.add(&classify(&golden, &out, check));
            activations += handle.get().activations;
        }
        let mut row = vec![label.to_string()];
        row.extend(report::outcome_cells(&counts));
        row.push(format!("{:.1}", activations as f64 / trials as f64));
        rows.push(row);
        eprintln!("  done {label}");
    }
    print!("{}", report::table(&rows));
    println!("\nexpected shape: masking falls monotonically as the activation rate rises —");
    println!("the §V intermittent model interpolates between the transient regime");
    println!("(rare activation, Fig. 2-like masking) and the permanent regime (Fig. 3).");
}
