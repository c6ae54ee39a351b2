//! The profile a campaign builds from its golden run's opcode counters must
//! be the profile NVBitFI's `profiler.so` would measure: on every suite
//! program at both scales, in both profiling modes, it equals
//! `profile_program`'s output exactly.

use gpu_runtime::RuntimeConfig;
use nvbitfi::{profile_program, PreparedGolden, ProfilingMode};
use workloads::Scale;

#[test]
fn golden_counters_reproduce_the_profiler_on_every_workload() {
    for scale in [Scale::Test, Scale::Paper] {
        let suite = workloads::suite(scale);
        // Two threads halve the wall time of the paper-scale sweep.
        std::thread::scope(|s| {
            for half in suite.chunks(suite.len().div_ceil(2)) {
                s.spawn(move || {
                    for entry in half {
                        let program = entry.program.as_ref();
                        let cfg = RuntimeConfig::default();
                        let golden =
                            PreparedGolden::new(program, cfg.clone(), false).expect(entry.name);
                        for mode in [ProfilingMode::Exact, ProfilingMode::Approximate] {
                            let measured =
                                profile_program(program, cfg.clone(), mode).expect(entry.name);
                            assert_eq!(
                                golden.profile(mode),
                                measured,
                                "{} at {scale:?}, {mode} profile",
                                entry.name
                            );
                        }
                    }
                });
            }
        });
    }
}
