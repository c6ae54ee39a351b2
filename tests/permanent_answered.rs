//! A permanent experiment whose (opcode, SM, lane) never executes in the
//! golden run is answered from golden without simulation. These tests
//! check that answer against simulating the same fault: on every
//! experiment of every suite program, and on a program whose clock read
//! would tell the two apart.

use gpu_isa::asm::KernelBuilder;
use gpu_isa::{encode, Module, Opcode, Reg, SpecialReg};
use gpu_runtime::{Program, Runtime, RuntimeConfig, RuntimeError};
use nvbitfi::{
    run_permanent_campaign, ExactDiff, PermanentCampaign, PermanentCampaignConfig,
    PermanentInjector, PreparedGolden, SdcCheck,
};
use workloads::Scale;

/// Run `program`'s permanent campaign, then simulate each of its
/// experiments directly, and assert the two agree on outcome and
/// activations. Returns the campaign and, per experiment, the simulated
/// run's opportunity count.
fn campaign_matches_simulation(
    program: &dyn Program,
    check: &dyn SdcCheck,
    seed: u64,
) -> (PermanentCampaign, Vec<u64>) {
    let cfg = PermanentCampaignConfig { seed, workers: 2, ..PermanentCampaignConfig::default() };
    let campaign = run_permanent_campaign(program, check, &cfg).expect("campaign");
    let golden = PreparedGolden::new(program, RuntimeConfig::default(), false).expect("golden run");
    let mut opportunities = Vec::new();
    for run in &campaign.runs {
        let (tool, handle) = PermanentInjector::new(run.params);
        let (outcome, _) = golden.inject(program, check, Box::new(tool));
        let rec = handle.get();
        let what = format!("{} {:?}", program.name(), run.params);
        assert_eq!(run.outcome, outcome, "{what}: outcome");
        assert_eq!(run.activations, rec.activations, "{what}: activations");
        if !run.simulated {
            assert_eq!(rec.opportunities, 0, "{what}: answered, yet it had an opportunity");
            assert_eq!((run.attempts, run.wall), (0, std::time::Duration::ZERO), "{what}");
        }
        opportunities.push(rec.opportunities);
    }
    (campaign, opportunities)
}

#[test]
fn answered_experiments_match_simulation_on_every_suite_program() {
    let mut answered = 0;
    for entry in workloads::suite(Scale::Test) {
        let (c, opportunities) =
            campaign_matches_simulation(entry.program.as_ref(), entry.check.as_ref(), 0x5EED);
        // No suite program reads the clock, so the lane table is exact both
        // ways: an experiment simulates iff its fault has an opportunity.
        for (run, n) in c.runs.iter().zip(opportunities) {
            assert_eq!(run.simulated, n > 0, "{} {:?}", entry.name, run.params);
        }
        answered += c.answered();
    }
    assert!(answered > 0, "the suite has experiments that cannot activate");
}

/// A wide kernel that every SM and lane of the draw runs, then a
/// one-thread kernel whose `FMUL` only SM 0 lane 0 executes and which,
/// if `read_clock`, stores `SR_CLOCKLO` for the host to print.
struct ClockProbe {
    read_clock: bool,
}

impl Program for ClockProbe {
    fn name(&self) -> &str {
        "clock-probe"
    }

    fn run(&self, rt: &mut Runtime) -> Result<(), RuntimeError> {
        let mut wide = KernelBuilder::new("wide");
        wide.ldc(Reg(4), 0);
        wide.s2r(Reg(0), SpecialReg::GlobalTidX);
        wide.iaddi(Reg(2), Reg(0), 1);
        wide.shli(Reg(1), Reg(0), 2);
        wide.iadd(Reg(4), Reg(4), Reg(1));
        wide.stg(Reg(4), 0, Reg(2));
        wide.exit();
        let mut probe = KernelBuilder::new("probe");
        probe.ldc(Reg(4), 0);
        probe.fmul(Reg(1), Reg(0), Reg(0));
        let sr = if self.read_clock { SpecialReg::ClockLo } else { SpecialReg::LaneId };
        probe.s2r(Reg(2), sr);
        probe.stg(Reg(4), 0, Reg(2));
        probe.exit();
        let module = Module::new("m", vec![wide.finish(), probe.finish()]);
        let m = rt.load_module(&encode::encode_module(&module))?;
        let (wide, probe) = (rt.get_kernel(m, "wide")?, rt.get_kernel(m, "probe")?);
        let out = rt.alloc(4 * 32 * 4)?;
        let clock = rt.alloc(4)?;
        rt.launch(wide, 4u32, 32u32, &[out.addr()])?;
        rt.launch(probe, 1u32, 1u32, &[clock.addr()])?;
        rt.synchronize()?;
        let sum: u64 = rt.read_u32s(out, 4 * 32)?.iter().map(|&v| u64::from(v)).sum();
        rt.println(format!("sum {sum} probe {}", rt.read_u32s(clock, 1)?[0]));
        Ok(())
    }
}

#[test]
fn a_program_that_reads_the_clock_simulates_every_experiment() {
    let fmul = |c: &PermanentCampaign| {
        c.runs.iter().find(|r| r.params.opcode() == Opcode::FMUL).cloned().expect("FMUL runs")
    };

    // Without the clock read, the FMUL fault's placement misses SM 0 lane
    // 0 and the experiment is answered from golden.
    let (plain, _) = campaign_matches_simulation(&ClockProbe { read_clock: false }, &ExactDiff, 1);
    let run = fmul(&plain);
    assert!(!run.simulated && run.outcome.is_masked(), "{run:?}");

    // With it, the same placement still never activates, but the
    // injector's hook on the probe's FMUL delays the clock the host prints:
    // the run differs from golden, and so every experiment simulates.
    let (clocked, _) = campaign_matches_simulation(&ClockProbe { read_clock: true }, &ExactDiff, 1);
    let run = fmul(&clocked);
    assert_eq!(run.params, fmul(&plain).params);
    assert_eq!(run.activations, 0);
    assert!(run.outcome.is_sdc(), "a clock shifted by hooks is an SDC: {run:?}");
    assert_eq!(clocked.answered(), 0);
    assert!(clocked.runs.iter().all(|r| r.simulated && r.attempts == 1));
}
