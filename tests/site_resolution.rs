//! The static-pruning site resolver and the transient injector must agree
//! on where every fault site lands: the pc the resolver maps a site to is
//! the pc the injector corrupts.

use gpu_runtime::RuntimeConfig;
use nvbitfi::{
    profile_program, resolve_sites, select_campaign, BitFlipModel, InstrGroup, PreparedGolden,
    ProfilingMode, TransientInjector,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use workloads::Scale;

#[test]
fn resolver_pc_equals_injected_pc_for_every_site() {
    // 303.ostencil launches its stencil kernel once per time step.
    for name in ["303.ostencil", "314.omriq"] {
        let entry = workloads::find(Scale::Test, name).expect("suite program");
        let (program, check) = (entry.program.as_ref(), entry.check.as_ref());
        let cfg = RuntimeConfig::default();
        let golden = PreparedGolden::new(program, cfg.clone(), true).expect("golden");
        let profile = profile_program(program, cfg.clone(), ProfilingMode::Exact).expect("profile");
        let mut rng = StdRng::seed_from_u64(17);
        let sites =
            select_campaign(&profile, InstrGroup::GpPr, BitFlipModel::FlipSingleBit, 100, &mut rng)
                .expect("select");
        let pcs = resolve_sites(program, cfg, &sites);
        assert!(pcs.iter().all(Option::is_some), "{name}: exact-profile sites all resolve");
        if name == "303.ostencil" {
            assert!(sites.iter().any(|s| s.kernel_count > 0), "sites in later instances");
        }
        for (site, pc) in sites.iter().zip(pcs) {
            let (tool, handle) = TransientInjector::new(site.clone());
            let upto = golden.target_launch(std::slice::from_ref(site));
            golden.inject(program, check, Box::new(tool), upto);
            assert_eq!(handle.get().detail.map(|d| d.pc), pc, "{name}: {site}");
        }
    }
}
