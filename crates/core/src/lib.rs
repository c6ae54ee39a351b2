#![warn(missing_docs)]

//! # nvbitfi — dynamic fault injection for (simulated) GPUs
//!
//! A Rust reproduction of **"NVBitFI: Dynamic Fault Injection for GPUs"**
//! (Tsai, Hari, Sullivan, Villa, Keckler — DSN 2021), built on the
//! workspace's NVBit-analog instrumentation stack ([`nvbit`],
//! [`gpu_runtime`], [`gpu_sim`], [`gpu_isa`]).
//!
//! The crate implements the complete injection pipeline of the paper's
//! Figure 1:
//!
//! 1. **Profile** ([`profile`]) — attach the profiler to an unmodified
//!    program binary and count every dynamic instruction per opcode per
//!    dynamic kernel, exactly (`profiler.so`) or approximately (first
//!    instance of each static kernel),
//! 2. **Select** ([`select_transient`]) — draw fault sites uniformly over
//!    the profiled population of an instruction group ([`InstrGroup`],
//!    Table II),
//! 3. **Inject** — run the program with the transient injector
//!    ([`transient`], `injector.so`) or the permanent injector
//!    ([`permanent`], `pf_injector.so`) attached; corruption follows the
//!    bit-flip models of Table II ([`BitFlipModel`]) or the XOR mask of
//!    Table III,
//! 4. **Classify** ([`outcome`]) — compare against the golden run
//!    ([`golden_run`]) and classify SDC / DUE / Masked / potential DUE
//!    (Table V).
//!
//! [`campaign`] orchestrates all four steps across many injections through
//! one dispatcher that fans runs out to worker threads or worker
//! processes; [`stats`] provides the confidence-interval
//! arithmetic behind the paper's 100- vs 1000-injection guidance; [`ext`]
//! implements the §V extensions (intermittent faults, richer corruption
//! functions, multi-opcode permanent faults, and a fault dictionary).
//!
//! ## Quick start
//!
//! ```
//! use nvbitfi::{
//!     run_transient_campaign, CampaignConfig, ExactDiff, InstrGroup, ProfilingMode,
//! };
//! use gpu_runtime::{Program, Runtime, RuntimeError};
//!
//! // A trivial GPU program (real workloads live in the `workloads` crate).
//! struct Saxpy;
//! impl Program for Saxpy {
//!     fn name(&self) -> &str { "saxpy" }
//!     fn run(&self, rt: &mut Runtime) -> Result<(), RuntimeError> {
//!         use gpu_isa::{asm::KernelBuilder, encode, Module, Reg, SpecialReg};
//!         let mut k = KernelBuilder::new("saxpy");
//!         let (out, tid, off) = (Reg(4), Reg(0), Reg(1));
//!         k.ldc(out, 0);
//!         k.s2r(tid, SpecialReg::GlobalTidX);
//!         k.i2f(Reg(2), tid);
//!         k.fmuli(Reg(2), Reg(2), 2.0);
//!         k.shli(off, tid, 2);
//!         k.iadd(out, out, off);
//!         k.stg(out, 0, Reg(2));
//!         k.exit();
//!         let bytes = encode::encode_module(&Module::new("m", vec![k.finish()]));
//!         let m = rt.load_module(&bytes)?;
//!         let h = rt.get_kernel(m, "saxpy")?;
//!         let buf = rt.alloc(64 * 4)?;
//!         rt.launch(h, 2u32, 32u32, &[buf.addr()])?;
//!         rt.synchronize()?;
//!         let sum: f32 = rt.read_f32s(buf, 64)?.iter().sum();
//!         rt.println(format!("checksum {sum}"));
//!         Ok(())
//!     }
//! }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = CampaignConfig {
//!     injections: 10,
//!     group: InstrGroup::Gp,
//!     profiling: ProfilingMode::Exact,
//!     workers: 2,
//!     ..CampaignConfig::default()
//! };
//! let result = run_transient_campaign(&Saxpy, &ExactDiff, &cfg)?;
//! assert_eq!(result.counts.total(), 10);
//! println!("{}", result.counts);
//! # Ok(())
//! # }
//! ```

pub mod avf;
mod bitflip;
pub mod campaign;
mod dispatch;
mod error;
pub mod ext;
mod golden;
mod igid;
pub mod journal;
pub mod logfile;
pub mod multi;
pub mod outcome;
mod params;
pub mod permanent;
pub mod pool;
pub mod profile;
pub mod prune;
pub mod report;
mod select;
pub mod stats;
pub mod transient;
pub mod worker;

pub use avf::{AvfEstimate, GroupAvf};
pub use bitflip::BitFlipModel;
pub use campaign::{
    run_permanent_campaign, run_transient_campaign, run_transient_campaign_with, CampaignConfig,
    CampaignHooks, CampaignTiming, FaultHook, InjectionRun, NoHooks, PermanentCampaign,
    PermanentCampaignConfig, PermanentRun, TransientCampaign, WeightedOutcomes,
};
pub use error::FiError;
pub use golden::{golden_run, golden_run_recording, GoldenOutput, PreparedGolden};
pub use igid::InstrGroup;
pub use journal::{atomic_write, Journal};
pub use multi::{earliest_target_launch, MultiHandle, MultiRecord, MultiTransientInjector};
pub use outcome::{
    classify, DueKind, ExactDiff, InfraKind, Outcome, OutcomeClass, OutcomeCounts, SdcCheck,
    SdcReason, SdcVerdict,
};
pub use params::{PermanentParams, TransientParams};
pub use permanent::{PermanentHandle, PermanentInjector, PermanentRecord};
pub use pool::{IsolationMode, ProcessIsolation};
pub use profile::{
    profile_program, FaultSite, KernelProfile, Profile, ProfileHandle, Profiler, ProfilingMode,
};
pub use prune::{prune_dead_sites, KernelAnalysis};
pub use select::{select_campaign, select_transient};
pub use transient::{
    select_destination, CorruptedTarget, InjectionDetail, InjectionHandle, InjectionRecord,
    TransientInjector,
};
pub use worker::{serve, Msg, WorkerInit, MAX_FRAME};
