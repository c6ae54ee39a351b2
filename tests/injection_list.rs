//! A given injection list runs through the same site-running path as a
//! campaign's own selection: the list entry on the sites a campaign would
//! select reproduces that campaign site for site, and a list that mixes
//! instruction groups prunes each site in its own group.

use gpu_isa::asm::KernelBuilder;
use gpu_isa::{encode, Module, Reg, SpecialReg};
use gpu_runtime::{Program, Runtime, RuntimeConfig, RuntimeError};
use nvbitfi::{
    run_injection_list, run_transient_campaign, select_campaign, CampaignConfig, ExactDiff,
    InstrGroup, NoHooks, PreparedGolden, ProfilingMode, TransientCampaign,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// out[tid] = 3 * (tid + 1), with two dead writes (R9 and R12 are never
/// read) and a store, whose G_NODEST sites write nothing — so both G_GP and
/// G_NODEST campaigns have sites static pruning can classify.
struct TwoDeadWrites;

impl Program for TwoDeadWrites {
    fn name(&self) -> &str {
        "two-dead-writes"
    }
    fn run(&self, rt: &mut Runtime) -> Result<(), RuntimeError> {
        let mut k = KernelBuilder::new("twodead");
        let (out, tid, off, v) = (Reg(4), Reg(0), Reg(1), Reg(2));
        k.ldc(out, 0);
        k.s2r(tid, SpecialReg::TidX);
        k.iaddi(Reg(9), tid, 7); // dead: R9 never read
        k.iaddi(v, tid, 1);
        k.shli(off, tid, 2);
        k.iadd(out, out, off);
        k.movi(Reg(12), 0x5A); // dead: R12 never read
        k.iadd(Reg(3), v, v);
        k.iadd(v, Reg(3), v);
        k.stg(out, 0, v);
        k.exit();
        let bytes = encode::encode_module(&Module::new("m", vec![k.finish()]));
        let m = rt.load_module(&bytes)?;
        let k = rt.get_kernel(m, "twodead")?;
        let buf = rt.alloc(32 * 4)?;
        rt.launch(k, 1u32, 32u32, &[buf.addr()])?;
        rt.synchronize()?;
        let v = rt.read_u32s(buf, 32)?;
        rt.println(format!("sum={}", v.iter().sum::<u32>()));
        Ok(())
    }
}

fn cfg(group: InstrGroup, seed: u64, use_static_prune: bool) -> CampaignConfig {
    CampaignConfig {
        injections: 40,
        group,
        seed,
        workers: 2,
        profiling: ProfilingMode::Exact,
        use_static_prune,
        ..CampaignConfig::default()
    }
}

/// Same sites in the same order, each with the same verdict, firing and
/// pruning.
fn assert_same_runs(list: &TransientCampaign, campaign: &TransientCampaign) {
    assert_eq!(list.runs.len(), campaign.runs.len());
    assert_eq!(list.counts, campaign.counts);
    for (a, b) in list.runs.iter().zip(&campaign.runs) {
        assert_eq!(a.params, b.params, "list order is the selection order");
        assert_eq!(a.outcome, b.outcome, "{}", a.params);
        assert_eq!(a.injected, b.injected, "{}", a.params);
        assert_eq!(a.pruned, b.pruned, "{}", a.params);
    }
}

#[test]
fn list_of_selected_sites_matches_the_campaign() {
    let entry = workloads::find(workloads::Scale::Test, "314.omriq").expect("known program");
    let programs: [(&dyn Program, &dyn nvbitfi::SdcCheck); 2] =
        [(&TwoDeadWrites, &ExactDiff), (entry.program.as_ref(), entry.check.as_ref())];
    for (program, check) in programs {
        for prune in [true, false] {
            let cfg = cfg(InstrGroup::Gp, 5, prune);
            let campaign = run_transient_campaign(program, check, &cfg).expect("campaign");

            let golden =
                PreparedGolden::new(program, RuntimeConfig::default(), false).expect("golden run");
            let mut rng = StdRng::seed_from_u64(cfg.seed);
            let sites = select_campaign(
                &golden.profile(cfg.profiling),
                cfg.group,
                cfg.bit_flip,
                cfg.injections,
                &mut rng,
            )
            .expect("sites");
            let list = run_injection_list(program, check, &cfg, sites, &NoHooks).expect("list");

            assert_same_runs(&list, &campaign);
            assert!(!list.interrupted);
            if program.name() == TwoDeadWrites.name() {
                assert_eq!(list.statically_pruned() > 0, prune, "prune={prune}");
            }
        }
    }
}

#[test]
fn mixed_group_list_prunes_each_site_in_its_own_group() {
    // Two campaigns, one per group, each pruning in its own group; their
    // sites interleaved into one list run under a third group.
    let gp = run_transient_campaign(&TwoDeadWrites, &ExactDiff, &cfg(InstrGroup::Gp, 7, true))
        .expect("G_GP campaign");
    let nodest =
        run_transient_campaign(&TwoDeadWrites, &ExactDiff, &cfg(InstrGroup::NoDest, 8, true))
            .expect("G_NODEST campaign");
    assert!(gp.statically_pruned() > 0 && nodest.statically_pruned() > 0);

    let expected: Vec<_> = gp.runs.iter().zip(&nodest.runs).flat_map(|(a, b)| [a, b]).collect();
    let sites = expected.iter().map(|r| r.params.clone()).collect();
    let list_cfg = cfg(InstrGroup::GpPr, 9, true);
    let list =
        run_injection_list(&TwoDeadWrites, &ExactDiff, &list_cfg, sites, &NoHooks).expect("list");

    assert_eq!(list.runs.len(), expected.len());
    for (a, b) in list.runs.iter().zip(expected) {
        assert_eq!(a.params, b.params);
        assert_eq!(a.pruned, b.pruned, "{} judged outside its own group", a.params);
        assert_eq!(a.outcome, b.outcome, "{}", a.params);
    }
}
