//! The instruction profiler — NVBitFI's `profiler.so`.
//!
//! The profiler builds "a profile containing one line for every dynamic
//! kernel and the total dynamic instruction counts for every opcode in every
//! thread in that dynamic kernel" (§III-A). Predicated-off instructions are
//! excluded (the simulator never delivers callbacks for them). The profile
//! is the uniform population transient fault sites are drawn from, and it
//! also tells permanent campaigns which opcodes a program actually executes.
//!
//! Two modes, as in the paper:
//!
//! * **exact** — instruments every dynamic kernel (expensive, Figure 4),
//! * **approximate** — instruments only the *first* instance of each static
//!   kernel and assumes later instances repeat its counts (cheap, but the
//!   profile can drift from reality — the divergence studied in Figure 2).
//!
//! A real GPU cannot report per-opcode counts, which is why NVBitFI needs
//! the profiler run at all. The simulator can: a campaign's golden run
//! counts opcodes as it executes, and [`crate::PreparedGolden::profile`]
//! builds either mode's profile from them, for campaigns, `profile` and
//! `trace`. [`Profiler`] and [`profile_program`] remain as the paper's
//! `profiler.so`, for Figure 4's overhead and the parity tests' reference.

use crate::error::FiError;
use crate::igid::InstrGroup;
use gpu_isa::{Kernel, Opcode, OPCODE_COUNT};
use gpu_runtime::{
    run_program, KernelLaunchInfo, LaunchRecord, Program, RunSummary, RuntimeConfig,
};
use nvbit::{CallSite, Inserter, NvBit, NvBitTool, When};
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// Exact or approximate profiling (§III-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProfilingMode {
    /// Count every dynamic instruction of every dynamic kernel.
    Exact,
    /// Count only the first instance of each static kernel; extrapolate.
    Approximate,
}

impl std::fmt::Display for ProfilingMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ProfilingMode::Exact => "exact",
            ProfilingMode::Approximate => "approximate",
        })
    }
}

/// Per-opcode dynamic instruction counts of one dynamic kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelProfile {
    /// Kernel name.
    pub kernel: String,
    /// 0-based dynamic instance of the kernel name.
    pub instance: u64,
    /// Thread-level dynamic instruction counts per opcode.
    pub counts: BTreeMap<Opcode, u64>,
}

impl KernelProfile {
    /// Total dynamic instructions in this dynamic kernel.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Dynamic instructions belonging to `group`.
    pub fn total_in_group(&self, group: InstrGroup) -> u64 {
        self.counts.iter().filter(|(op, _)| group.contains(**op)).map(|(_, n)| n).sum()
    }
}

/// A program's instruction profile: one entry per dynamic kernel, in launch
/// order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Profile {
    /// How the profile was produced.
    pub mode: ProfilingMode,
    /// Per-dynamic-kernel counts, in launch order.
    pub kernels: Vec<KernelProfile>,
}

impl Profile {
    /// Total dynamic instructions across the program.
    pub fn total(&self) -> u64 {
        self.kernels.iter().map(|k| k.total()).sum()
    }

    /// Total dynamic instructions in `group` across the program — the `N`
    /// that transient fault selection draws from.
    pub fn total_in_group(&self, group: InstrGroup) -> u64 {
        self.kernels.iter().map(|k| k.total_in_group(group)).sum()
    }

    /// Opcodes with a nonzero dynamic count — the set a permanent-fault
    /// campaign needs to cover (§III-A: unused opcodes can be skipped).
    pub fn executed_opcodes(&self) -> BTreeSet<Opcode> {
        let mut set = BTreeSet::new();
        for k in &self.kernels {
            for (op, n) in &k.counts {
                if *n > 0 {
                    set.insert(*op);
                }
            }
        }
        set
    }

    /// Total dynamic count of one opcode across the program.
    pub fn opcode_total(&self, op: Opcode) -> u64 {
        self.kernels.iter().map(|k| k.counts.get(&op).copied().unwrap_or(0)).sum()
    }

    /// Each executed opcode with its [`Profile::opcode_total`], in
    /// descending count, ties in opcode order.
    pub fn hottest_opcodes(&self) -> Vec<(Opcode, u64)> {
        let mut hot: Vec<_> =
            self.executed_opcodes().into_iter().map(|op| (op, self.opcode_total(op))).collect();
        hot.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
        hot
    }

    /// The profile `mode` would measure, from each launch's record and
    /// executed-opcode counts, in launch order: exact keeps every launch's
    /// own counts; approximate gives every later instance of a kernel its
    /// instance 0's counts. [`Profiler`] and
    /// [`crate::PreparedGolden::profile`] (from the golden ledger) both
    /// build their profiles here.
    pub(crate) fn from_counts<'a>(
        mode: ProfilingMode,
        launches: impl IntoIterator<Item = (&'a LaunchRecord, &'a [(Opcode, u64)])>,
    ) -> Profile {
        let mut first: HashMap<&str, &[(Opcode, u64)]> = HashMap::new();
        let kernels = launches
            .into_iter()
            .map(|(launch, own)| {
                let counts = match mode {
                    ProfilingMode::Exact => own,
                    ProfilingMode::Approximate => {
                        *first.entry(launch.kernel.as_str()).or_insert(own)
                    }
                };
                KernelProfile {
                    kernel: launch.kernel.clone(),
                    instance: launch.instance,
                    counts: counts.iter().copied().collect(),
                }
            })
            .collect();
        Profile { mode, kernels }
    }

    // --- file format --------------------------------------------------------

    /// Serialize in the profiler's text format: a header followed by one
    /// line per dynamic kernel.
    pub fn to_file(&self) -> String {
        let mut out = format!("# nvbitfi profile mode={}\n", self.mode);
        for k in &self.kernels {
            let counts: Vec<String> = k
                .counts
                .iter()
                .filter(|(_, n)| **n > 0)
                .map(|(op, n)| format!("{op}={n}"))
                .collect();
            out.push_str(&format!("{}:{}: {}\n", k.kernel, k.instance, counts.join(",")));
        }
        out
    }

    /// Parse the text format produced by [`Profile::to_file`].
    ///
    /// # Errors
    ///
    /// Returns [`FiError::BadProfileFile`] naming the offending line.
    pub fn from_file(text: &str) -> Result<Profile, FiError> {
        let bad = |line: usize, reason: String| FiError::BadProfileFile { line, reason };
        let mut lines = text.lines().enumerate();
        let (_, header) = lines.next().ok_or_else(|| bad(1, "empty profile".into()))?;
        let mode = header
            .strip_prefix("# nvbitfi profile mode=")
            .and_then(|name| crate::logfile::parse_mode(name.trim()))
            .ok_or_else(|| bad(1, format!("bad header `{header}`")))?;
        let mut kernels = Vec::new();
        for (idx, line) in lines {
            let lineno = idx + 1;
            if line.trim().is_empty() {
                continue;
            }
            // kernel:instance: OP=count,OP=count
            let (head, rest) = line
                .rsplit_once(": ")
                .ok_or_else(|| bad(lineno, "missing `: ` separator".into()))?;
            let (kernel, instance_s) = head
                .rsplit_once(':')
                .ok_or_else(|| bad(lineno, "missing kernel:instance".into()))?;
            let instance =
                instance_s.parse::<u64>().map_err(|e| bad(lineno, format!("bad instance: {e}")))?;
            let mut counts = BTreeMap::new();
            for item in rest.split(',').filter(|s| !s.trim().is_empty()) {
                let (op_s, n_s) = item
                    .split_once('=')
                    .ok_or_else(|| bad(lineno, format!("bad count `{item}`")))?;
                let op = Opcode::from_mnemonic(op_s.trim())
                    .ok_or_else(|| bad(lineno, format!("unknown opcode `{op_s}`")))?;
                let n = n_s
                    .trim()
                    .parse::<u64>()
                    .map_err(|e| bad(lineno, format!("bad count for {op_s}: {e}")))?;
                counts.insert(op, n);
            }
            kernels.push(KernelProfile { kernel: kernel.to_string(), instance, counts });
        }
        Ok(Profile { mode, kernels })
    }
}

/// The profiler tool (attachable via [`nvbit::NvBit`]).
pub struct Profiler {
    mode: ProfilingMode,
    current: Box<[u64; OPCODE_COUNT]>,
    /// Completed launches, in launch order.
    launches: Vec<LaunchRecord>,
    /// Per completed launch, the nonzero counts it drained (none for the
    /// instances approximate mode does not instrument).
    counts: Vec<Vec<(Opcode, u64)>>,
    sink: Arc<Mutex<Option<Profile>>>,
}

/// Handle to retrieve the [`Profile`] after the profiled run exits.
#[derive(Debug, Clone)]
pub struct ProfileHandle(Arc<Mutex<Option<Profile>>>);

impl ProfileHandle {
    /// Take the finished profile (available after the program exits).
    pub fn take(&self) -> Option<Profile> {
        self.0.lock().take()
    }
}

impl Profiler {
    /// Create a profiler and the handle its profile will be delivered to.
    pub fn new(mode: ProfilingMode) -> (NvBit<Profiler>, ProfileHandle) {
        let sink = Arc::new(Mutex::new(None));
        let p = Profiler {
            mode,
            current: Box::new([0; OPCODE_COUNT]),
            launches: Vec::new(),
            counts: Vec::new(),
            sink: Arc::clone(&sink),
        };
        (NvBit::new(p), ProfileHandle(sink))
    }

    fn drain_current(&mut self) -> Vec<(Opcode, u64)> {
        let mut counts = Vec::new();
        for (idx, n) in self.current.iter_mut().enumerate() {
            if *n > 0 {
                counts.push((Opcode::decode(idx as u16).expect("valid index"), *n));
                *n = 0;
            }
        }
        counts
    }
}

impl NvBitTool for Profiler {
    fn instrument_kernel(&mut self, _kernel: &Kernel, inserter: &mut Inserter<'_>) {
        inserter.insert_call_everywhere(When::Before, 0);
    }

    fn launch_enabled(&mut self, info: &KernelLaunchInfo<'_>) -> bool {
        match self.mode {
            ProfilingMode::Exact => true,
            ProfilingMode::Approximate => info.instance == 0,
        }
    }

    fn device_call(&mut self, site: &CallSite<'_>, _t: &mut gpu_sim::ThreadCtx<'_>) {
        self.current[site.instr.opcode().encode() as usize] += 1;
    }

    fn on_kernel_complete(&mut self, record: &LaunchRecord) {
        let counts = self.drain_current();
        self.launches.push(record.clone());
        self.counts.push(counts);
    }

    fn on_exit(&mut self, _summary: &RunSummary) {
        let launches = self.launches.iter().zip(self.counts.iter().map(Vec::as_slice));
        *self.sink.lock() = Some(Profile::from_counts(self.mode, launches));
    }
}

/// Run `program` under the profiler and return its profile (Figure 1,
/// step 1).
///
/// # Errors
///
/// Returns [`FiError::GoldenRunFailed`] if the profiled run does not
/// terminate cleanly (profiling assumes a fault-free program).
pub fn profile_program(
    program: &dyn Program,
    cfg: RuntimeConfig,
    mode: ProfilingMode,
) -> Result<Profile, FiError> {
    let (tool, handle) = Profiler::new(mode);
    let out = run_program(program, cfg, Some(Box::new(tool)));
    if !out.termination.is_clean() {
        return Err(FiError::GoldenRunFailed {
            program: program.name().to_string(),
            reason: format!("profiled run ended with {:?}", out.termination),
        });
    }
    handle.take().ok_or_else(|| FiError::GoldenRunFailed {
        program: program.name().to_string(),
        reason: "profiler produced no profile".into(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kp(kernel: &str, instance: u64, counts: &[(&str, u64)]) -> KernelProfile {
        KernelProfile {
            kernel: kernel.into(),
            instance,
            counts: counts.iter().map(|(m, n)| (Opcode::from_mnemonic(m).expect(m), *n)).collect(),
        }
    }

    fn sample() -> Profile {
        Profile {
            mode: ProfilingMode::Exact,
            kernels: vec![
                kp("alpha", 0, &[("FADD", 100), ("LDG", 50), ("EXIT", 32)]),
                kp("beta", 0, &[("DFMA", 10), ("ISETP", 20)]),
                kp("alpha", 1, &[("FADD", 80), ("LDG", 40), ("EXIT", 32)]),
            ],
        }
    }

    #[test]
    fn totals() {
        let p = sample();
        assert_eq!(p.total(), 100 + 50 + 32 + 10 + 20 + 80 + 40 + 32);
        assert_eq!(p.total_in_group(InstrGroup::Fp32), 180);
        assert_eq!(p.total_in_group(InstrGroup::Ld), 90);
        assert_eq!(p.total_in_group(InstrGroup::Fp64), 10);
        assert_eq!(p.total_in_group(InstrGroup::Pr), 20);
        assert_eq!(p.total_in_group(InstrGroup::NoDest), 64);
        assert_eq!(p.total_in_group(InstrGroup::GpPr), p.total() - 64);
        assert_eq!(p.total_in_group(InstrGroup::Gp), p.total() - 64 - 20);
    }

    #[test]
    fn executed_opcodes_and_totals() {
        let p = sample();
        let ops = p.executed_opcodes();
        assert_eq!(ops.len(), 5);
        assert_eq!(p.opcode_total(Opcode::from_mnemonic("FADD").expect("op")), 180);
        assert_eq!(p.opcode_total(Opcode::from_mnemonic("HMMA").expect("op")), 0);
    }

    #[test]
    fn file_roundtrip() {
        let p = sample();
        let text = p.to_file();
        assert!(text.starts_with("# nvbitfi profile mode=exact"));
        assert_eq!(Profile::from_file(&text).expect("parse"), p);
    }

    #[test]
    fn file_parse_errors_name_lines() {
        assert!(matches!(Profile::from_file(""), Err(FiError::BadProfileFile { line: 1, .. })));
        assert!(matches!(
            Profile::from_file("# nvbitfi profile mode=exact\ngarbage-without-separator"),
            Err(FiError::BadProfileFile { line: 2, .. })
        ));
        assert!(matches!(
            Profile::from_file("# nvbitfi profile mode=exact\nk:0: NOTANOP=5"),
            Err(FiError::BadProfileFile { line: 2, .. })
        ));
    }

    #[test]
    fn empty_kernel_line_roundtrips() {
        let p = Profile { mode: ProfilingMode::Approximate, kernels: vec![kp("quiet", 0, &[])] };
        let back = Profile::from_file(&p.to_file()).expect("parse");
        assert_eq!(back, p);
    }
}
