//! Steadiness mode: run each workload N times, in alternating order and
//! with seeds 1..=N, and report every end-to-end metric's median,
//! quartiles and spread, then one traced run per workload. Every
//! repetition is a fresh process. Its output is the evidence behind the
//! bounds in `BENCHMARK.json`.

use crate::spec::WORKLOADS;
use crate::stats::{median, quartiles, spread};
use crate::{measure, Args, Measured};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One measured run of `workload`, exactly as the benchmark command makes it.
fn run_once(workload: &str, seed: u64, seconds: u64, trace: bool) -> Result<Measured, String> {
    let args = Args(BTreeMap::from([
        ("workload".to_string(), workload.to_string()),
        ("seed".to_string(), seed.to_string()),
        ("seconds".to_string(), seconds.to_string()),
        ("trace".to_string(), if trace { "1" } else { "0" }.to_string()),
    ]));
    let m = measure(&args)?;
    if !m.correct {
        return Err(format!("{workload} seed {seed}: verdicts incorrect"));
    }
    Ok(m)
}

pub fn run(args: &Args) -> Result<(), String> {
    let runs: u64 = args.num("runs", Some(10))?;
    let seconds: u64 = args.num("seconds", Some(30))?;

    // (workload, metric) → (unit, values in round order)
    let mut values: BTreeMap<(&str, &str), (&str, Vec<f64>)> = BTreeMap::new();
    for seed in 1..=runs {
        let mut order = WORKLOADS;
        if seed % 2 == 0 {
            order.reverse();
        }
        for w in order {
            for (name, unit, v) in run_once(w, seed, seconds, false)?.metrics {
                values.entry((w, name)).or_insert((unit, Vec::new())).1.push(v);
            }
            eprintln!("steady: round {seed} {w} done");
        }
    }

    let mut report = format!(
        "# perfbench steadiness: {runs} runs per workload, {seconds} s each, seeds 1..{runs}, \
         alternating workload order, fresh processes\n"
    );
    for w in WORKLOADS {
        let _ = writeln!(report, "\n## {w}\n");
        let _ = writeln!(report, "| metric | unit | median | q1 | q3 | (q3-q1)/median | values |");
        let _ = writeln!(report, "|---|---|---|---|---|---|---|");
        for ((_, name), (unit, v)) in values.iter().filter(|((vw, _), _)| *vw == w) {
            let med = median(v).unwrap_or(0.0);
            let (q1, q3) = quartiles(v).unwrap_or((med, med));
            let sp = spread(v).map_or("-".to_string(), |s| format!("{s:.4}"));
            let all: Vec<String> = v.iter().map(|x| format!("{x:.5}")).collect();
            if v.iter().all(|x| *x == v[0]) {
                let _ = writeln!(
                    report,
                    "| {name} | {unit} | {med} (count: repeats exactly) | | | | |"
                );
            } else {
                let _ = writeln!(
                    report,
                    "| {name} | {unit} | {med:.5} | {q1:.5} | {q3:.5} | {sp} | {} |",
                    all.join(" ")
                );
            }
        }
    }
    for w in WORKLOADS {
        let m = run_once(w, 1, seconds, true)?;
        let _ = writeln!(report, "\n## {w}: traced run (seed 1)\n\n```\n{}```", m.report);
    }
    print!("{report}");
    if let Some(out) = args.get("out") {
        std::fs::write(out, &report).map_err(|e| format!("cannot write {out}: {e}"))?;
    }
    Ok(())
}
