//! Regenerates **Figure 5**: total campaign times — a transient campaign of
//! N faults (N injection runs, profile taken from the golden run's
//! counters) against a permanent campaign that uses the same kind of
//! profile to skip unused opcodes (one run per executed opcode). Neither
//! total contains a profiler run. The paper's shape: transient campaigns
//! typically take about twice as long as permanent ones, ranging from ~5×
//! down to slightly faster, with programs executing 16-41 of the 171
//! opcodes.

use nvbitfi::{run_permanent_campaign, run_transient_campaign, ProfilingMode};

fn main() {
    let args = bench::BenchArgs::from_env();
    println!(
        "FIGURE 5 — total campaign times ({} transient faults vs per-opcode permanent)\n",
        args.injections
    );
    let mut rows = vec![vec![
        "Program".to_string(),
        "transient total".to_string(),
        "permanent total".to_string(),
        "opcodes".to_string(),
        "transient/permanent".to_string(),
    ]];
    for entry in args.programs() {
        let transient = run_transient_campaign(
            entry.program.as_ref(),
            entry.check.as_ref(),
            &args.campaign(ProfilingMode::Approximate),
        )
        .expect("transient campaign");
        let permanent =
            run_permanent_campaign(entry.program.as_ref(), entry.check.as_ref(), &args.permanent())
                .expect("permanent campaign");
        let t = transient.total_time();
        let p = permanent.total_time();
        rows.push(vec![
            entry.name.to_string(),
            bench::dur(t),
            bench::dur(p),
            format!("{}/171", permanent.runs.len()),
            bench::ratio(t.as_secs_f64(), p.as_secs_f64()),
        ]);
        eprintln!("  done {}", entry.name);
    }
    print!("{}", nvbitfi::report::table(&rows));
    println!("\npaper (Fig. 5): transient campaigns typically ~2x the permanent campaign");
    println!("time, at most ~5x, occasionally slightly faster; executed opcodes per");
    println!("program range 16-41 of 171.");
}
