//! Campaign setup simulates the program once: the golden run yields the
//! profile, and the static-pruning resolver runs only when a kernel the
//! sites target could prune. These tests hold the pre-check that skips the
//! resolver to its claim (it never hides a pruned site) and count the
//! simulations a campaign makes before its first injection.

use gpu_isa::asm::KernelBuilder;
use gpu_isa::{encode, Module, Reg, SpecialReg};
use gpu_runtime::{Program, Runtime, RuntimeConfig, RuntimeError};
use nvbitfi::{
    prune_dead_sites, run_transient_campaign_with, select_campaign, BitFlipModel, CampaignConfig,
    CampaignHooks, ExactDiff, InstrGroup, PreparedGolden, ProfilingMode, SdcCheck,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use workloads::Scale;

#[test]
fn pre_check_never_hides_a_prunable_site() {
    let (mut skipped, mut resolved) = (0, 0);
    for entry in workloads::suite(Scale::Test) {
        let program = entry.program.as_ref();
        let cfg = RuntimeConfig::default();
        let golden = PreparedGolden::new(program, cfg.clone(), false).expect(entry.name);
        let profile = golden.profile(ProfilingMode::Exact);
        for group in InstrGroup::ALL {
            let mut rng = StdRng::seed_from_u64(23);
            let Ok(sites) =
                select_campaign(&profile, group, BitFlipModel::FlipSingleBit, 50, &mut rng)
            else {
                continue; // the program executes nothing in this group
            };
            if golden.may_prune(&sites) {
                resolved += 1;
                continue;
            }
            skipped += 1;
            let flags = prune_dead_sites(program, cfg.clone(), group, &sites);
            assert!(
                flags.iter().all(|f| !f),
                "{} {group}: a skipped resolver would prune",
                entry.name
            );
        }
    }
    assert!(
        skipped > 0 && resolved > 0,
        "both branches exercised: {skipped} skipped, {resolved} resolved"
    );
}

/// A program that counts how often it is run.
struct Counted<'a> {
    inner: &'a dyn Program,
    runs: AtomicUsize,
}

impl Program for Counted<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn run(&self, rt: &mut Runtime) -> Result<(), RuntimeError> {
        self.runs.fetch_add(1, Ordering::SeqCst);
        self.inner.run(rt)
    }
}

/// Records the program's run count when the campaign first polls
/// `should_stop`, which it does before dispatching its first injection.
struct AtFirstPoll<'a> {
    program: &'a Counted<'a>,
    runs: OnceLock<usize>,
}

impl CampaignHooks for AtFirstPoll<'_> {
    fn should_stop(&self) -> bool {
        self.runs.get_or_init(|| self.program.runs.load(Ordering::SeqCst));
        false
    }
}

/// Program runs a default transient campaign makes before its first
/// injection.
fn setup_runs(program: &dyn Program, check: &dyn SdcCheck) -> usize {
    let counted = Counted { inner: program, runs: AtomicUsize::new(0) };
    let hooks = AtFirstPoll { program: &counted, runs: OnceLock::new() };
    let cfg = CampaignConfig { injections: 4, workers: 1, ..CampaignConfig::default() };
    run_transient_campaign_with(&counted, check, &cfg, Vec::new(), &hooks).expect("campaign");
    *hooks.runs.get().expect("the campaign dispatched")
}

/// A kernel with dead writes (R10, R11 and R13 are never read), so static
/// pruning has sites to prune.
struct DeadWrites;

impl Program for DeadWrites {
    fn name(&self) -> &str {
        "dead-writes"
    }
    fn run(&self, rt: &mut Runtime) -> Result<(), RuntimeError> {
        let mut k = KernelBuilder::new("deadw");
        let (out, tid, off, v) = (Reg(4), Reg(0), Reg(1), Reg(2));
        k.ldc(out, 0);
        k.s2r(tid, SpecialReg::TidX);
        k.shli(off, tid, 2);
        k.iadd(out, out, off);
        k.movi(Reg(10), 0xDEAD);
        k.iaddi(Reg(11), tid, 3);
        k.movi(v, 5);
        k.iadd(v, v, tid);
        k.shli(Reg(13), v, 1);
        k.stg(out, 0, v);
        k.exit();
        let bytes = encode::encode_module(&Module::new("m", vec![k.finish()]));
        let m = rt.load_module(&bytes)?;
        let k = rt.get_kernel(m, "deadw")?;
        let buf = rt.alloc(32 * 4)?;
        rt.launch(k, 1u32, 32u32, &[buf.addr()])?;
        rt.synchronize()?;
        let v = rt.read_u32s(buf, 32)?;
        rt.println(format!("sum={}", v.iter().sum::<u32>()));
        Ok(())
    }
}

#[test]
fn campaign_setup_simulates_once_unless_it_can_prune() {
    let entry = workloads::find(Scale::Test, "303.ostencil").expect("suite program");
    assert_eq!(setup_runs(entry.program.as_ref(), entry.check.as_ref()), 1, "golden run only");
    assert_eq!(setup_runs(&DeadWrites, &ExactDiff), 2, "golden run and resolver run");
}
