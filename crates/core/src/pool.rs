//! Supervisor half of the process-isolation protocol.
//!
//! Thread-mode campaigns isolate runs with `catch_unwind`, which contains
//! Rust panics but nothing stronger: a run that segfaults, aborts, or gets
//! OOM-killed takes the whole campaign process with it. Process mode
//! ([`IsolationMode::Process`]) restores the paper's deployment shape —
//! every injection executes in a disposable child process, so the blast
//! radius of the nastiest fault is one worker, never the campaign.
//!
//! Process mode is an attempt closure for the campaign dispatcher
//! (`dispatch.rs`): each dispatcher slot owns at most one child process
//! speaking the [`crate::worker`] protocol, spawned on the slot's first
//! live site, and `attempt` ships one site to it while watching the
//! child's frame stream with a liveness timeout derived from the heartbeat
//! interval. A worker that dies — killed by a signal, crashed, wedged past
//! the liveness window, or emitting protocol garbage — is killed for
//! certain and the attempt is lost; the dispatcher's retry loop backs off
//! and re-dispatches the site, which respawns a worker. A site whose
//! attempts run out is recorded as [`InfraKind::WorkerDied`]: excluded from
//! the paper's outcome denominators, and re-run by `resume` like every
//! infrastructure verdict.

use crate::campaign::CampaignConfig;
use crate::dispatch::Attempt;
use crate::logfile::parse_outcome;
use crate::outcome::InfraKind;
use crate::params::TransientParams;
use crate::worker::{read_frame, write_frame, Msg, WorkerInit};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{channel, Receiver};
use std::time::{Duration, Instant};

/// How a campaign executes its injection runs.
#[derive(Debug, Clone, Default)]
pub enum IsolationMode {
    /// In-process worker threads with `catch_unwind` isolation (the
    /// default): fastest, but only panic-safe.
    #[default]
    Thread,
    /// One disposable child process per worker slot, supervised over the
    /// [`crate::worker`] frame protocol: survives segfaults, aborts,
    /// OOM-kills, and protocol corruption.
    Process(ProcessIsolation),
}

/// Configuration of the process-isolation backend.
#[derive(Debug, Clone)]
pub struct ProcessIsolation {
    /// The worker command line — typically `[<current exe>, "worker"]`.
    pub command: Vec<String>,
    /// Workload scale name forwarded to the worker's suite lookup.
    pub scale: String,
    /// Worker heartbeat interval; the supervisor's liveness window is a
    /// multiple of it (see [`ProcessIsolation::liveness`]).
    pub heartbeat: Duration,
    /// How long a fresh worker may take to replay its golden run and
    /// answer [`Msg::Ready`].
    pub ready_timeout: Duration,
}

impl ProcessIsolation {
    /// A process-isolation config with default heartbeat and timeouts.
    pub fn new(command: Vec<String>, scale: impl Into<String>) -> ProcessIsolation {
        ProcessIsolation {
            command,
            scale: scale.into(),
            heartbeat: Duration::from_millis(100),
            ready_timeout: Duration::from_secs(120),
        }
    }

    /// The session setup every worker of campaign `cfg` on `program` gets.
    pub(crate) fn init(&self, cfg: &CampaignConfig, program: &str) -> WorkerInit {
        WorkerInit {
            program: program.to_string(),
            scale: self.scale.clone(),
            use_checkpoints: cfg.use_checkpoints,
            deadline_ms: cfg.run_deadline.map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX)),
            heartbeat_ms: u64::try_from(self.heartbeat.as_millis()).unwrap_or(u64::MAX).max(1),
        }
    }

    /// The liveness window: a dispatched worker silent (no heartbeat, no
    /// verdict) for this long is declared dead. Generous — 20 heartbeat
    /// intervals, floored at one second — because a false positive costs a
    /// respawn and a retry, while detection latency costs nothing (real
    /// deaths close the pipe and are noticed immediately).
    pub fn liveness(&self) -> Duration {
        self.heartbeat.saturating_mul(20).max(Duration::from_secs(1))
    }
}

const SIGTERM: i32 = 15;
const SIGKILL: i32 = 9;

#[cfg(unix)]
fn send_signal(pid: u32, sig: i32) {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    if let Ok(pid) = i32::try_from(pid) {
        // Best effort: the worker may already be gone, which is fine.
        unsafe {
            kill(pid, sig);
        }
    }
}

#[cfg(not(unix))]
fn send_signal(_pid: u32, _sig: i32) {}

/// One live child process plus the thread draining its stdout — a
/// dispatcher slot's state in process mode. Dropping it retires the child.
pub(crate) struct Worker {
    child: Child,
    stdin: ChildStdin,
    /// Messages read from the worker's stdout; `None` ends the stream.
    events: Receiver<Option<Msg>>,
    reader: Option<std::thread::JoinHandle<()>>,
}

impl Worker {
    fn dispatch(&mut self, id: u64, site: &str) -> bool {
        write_frame(&mut self.stdin, &Msg::Run { id, site: site.to_string() }.to_json()).is_ok()
    }

    /// The worker's next message other than a heartbeat, or `None` if its
    /// stream ended or it stayed silent for `timeout`.
    fn reply(&self, timeout: Duration) -> Option<Msg> {
        loop {
            match self.events.recv_timeout(timeout) {
                Ok(Some(Msg::Heartbeat)) => {}
                Ok(msg) => return msg,
                Err(_) => return None,
            }
        }
    }

    /// Hard-kill the worker — the path for a worker declared dead (it may
    /// in fact be wedged rather than gone). Dropping it then reaps it.
    fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Worker {
    /// Graceful drain: shutdown frame, then SIGTERM, then SIGKILL, each
    /// with a short grace window. A killed worker passes straight through.
    fn drop(&mut self) {
        const GRACE: Duration = Duration::from_millis(500);
        let _ = write_frame(&mut self.stdin, &Msg::Shutdown.to_json());
        if !wait_with_grace(&mut self.child, GRACE) {
            send_signal(self.child.id(), SIGTERM);
            if !wait_with_grace(&mut self.child, GRACE) {
                let _ = self.child.kill();
            }
        }
        let _ = self.child.wait();
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
    }
}

fn wait_with_grace(child: &mut Child, grace: Duration) -> bool {
    let deadline = Instant::now() + grace;
    loop {
        match child.try_wait() {
            Ok(Some(_)) | Err(_) => return true,
            Ok(None) => {}
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Spawn one worker, run the init handshake, and wait for [`Msg::Ready`].
/// Returns `None` on any failure (command missing, instant exit, handshake
/// timeout) — the caller treats it as a worker death.
fn spawn_worker(iso: &ProcessIsolation, init: &WorkerInit) -> Option<Worker> {
    let (exe, args) = iso.command.split_first()?;
    let mut child = Command::new(exe)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .ok()?;
    let stdin = child.stdin.take()?;
    let mut stdout = child.stdout.take()?;
    let (tx, events) = channel();
    let reader = std::thread::spawn(move || loop {
        // Clean EOF, a torn frame and a frame that is no protocol message all
        // end the stream the same way: the supervisor cannot tell a crash
        // from corruption, and respawning is the right answer to both.
        let msg = read_frame(&mut stdout).ok().flatten().and_then(|text| Msg::parse(&text));
        let ended = msg.is_none();
        if tx.send(msg).is_err() || ended {
            break;
        }
    });
    let mut worker = Worker { child, stdin, events, reader: Some(reader) };

    if write_frame(&mut worker.stdin, &Msg::Init(init.clone()).to_json()).is_err() {
        worker.kill();
        return None;
    }
    if let Some(Msg::Ready) = worker.reply(iso.ready_timeout) {
        return Some(worker);
    }
    worker.kill();
    None
}

/// One attempt at `params` on this slot's worker, spawning one first if the
/// slot has none. `kill` is the harness-fault hook firing: the worker is
/// SIGKILLed right after dispatch. A worker that dies trying is killed for
/// certain and cleared from the slot, so the next attempt respawns; the
/// detail is `(injected, prefix_instrs_skipped)`, as in thread mode.
pub(crate) fn attempt(
    iso: &ProcessIsolation,
    init: &WorkerInit,
    slot: &mut Option<Worker>,
    index: usize,
    params: &TransientParams,
    kill: bool,
) -> Attempt<(bool, u64)> {
    let verdict = run_on_worker(iso, init, slot, index as u64, params, kill);
    verdict.unwrap_or_else(|| {
        if let Some(w) = slot.take() {
            w.kill();
        }
        Attempt::Lost(InfraKind::WorkerDied)
    })
}

/// Ship one site to the slot's (possibly fresh) worker and wait for its
/// verdict. `None` means the worker died trying.
fn run_on_worker(
    iso: &ProcessIsolation,
    init: &WorkerInit,
    slot: &mut Option<Worker>,
    id: u64,
    params: &TransientParams,
    kill: bool,
) -> Option<Attempt<(bool, u64)>> {
    if slot.is_none() {
        *slot = spawn_worker(iso, init);
    }
    let w = slot.as_mut()?;
    if !w.dispatch(id, &params.to_file()) {
        return None;
    }
    if kill {
        send_signal(w.child.id(), SIGKILL);
    }
    // Anything but the matching verdict — an Error frame, a mismatched id,
    // corruption, EOF, or liveness timeout — is a dead worker.
    match w.reply(iso.liveness())? {
        Msg::Done { id: done, outcome, injected, wall_us, skip_instrs } if done == id => {
            parse_outcome(&outcome).map(|outcome| Attempt::Ran {
                outcome,
                wall: Duration::from_micros(wall_us),
                detail: (injected, skip_instrs),
            })
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitflip::BitFlipModel;
    use crate::dispatch::{dispatch, Job, Plan, Settled};
    use crate::igid::InstrGroup;
    use crate::outcome::OutcomeClass;

    fn site(i: u64) -> TransientParams {
        TransientParams {
            group: InstrGroup::Gp,
            bit_flip: BitFlipModel::FlipSingleBit,
            kernel_name: "k".into(),
            kernel_count: 0,
            instruction_count: i,
            destination_register: 0.5,
            bit_pattern: 0.5,
        }
    }

    /// Dispatch `sites` sites to workers started by `command`.
    fn run_sites(
        command: &str,
        workers: usize,
        max_retries: u32,
        sites: u64,
    ) -> Vec<Settled<(bool, u64)>> {
        let iso = ProcessIsolation::new(vec![command.into()], "test");
        let init = iso.init(&CampaignConfig::default(), "tiny");
        let plan = Plan { workers, max_retries, backoff: Duration::ZERO, fault_hook: None };
        let jobs = (0..sites).map(|i| (i as usize, Job::Run(site(i)))).collect();
        let (out, stopped) = dispatch(
            &plan,
            jobs,
            &|| false,
            |slot: &mut Option<Worker>, index, params, kill| {
                attempt(&iso, &init, slot, index, params, kill)
            },
            |_, settled| settled,
            |_| {},
        );
        assert!(!stopped);
        out.into_iter().map(|(_, settled)| settled).collect()
    }

    /// A worker command that exits immediately can never produce verdicts:
    /// every site must come back as InfraError(WorkerDied) with the full
    /// retry budget spent — and the dispatcher itself must not hang.
    #[test]
    #[cfg(unix)]
    fn dead_worker_command_degrades_to_infra_verdicts() {
        let out = run_sites("/bin/false", 2, 1, 3);
        assert_eq!(out.len(), 3);
        for settled in &out {
            assert_eq!(settled.outcome.class, OutcomeClass::InfraError(InfraKind::WorkerDied));
            assert_eq!(settled.attempts, 2, "retry budget spent before giving up");
            assert!(settled.detail.is_none());
        }
    }

    /// A missing worker binary is the same story via the spawn-failure path.
    #[test]
    fn missing_worker_binary_degrades_to_infra_verdicts() {
        let out = run_sites("/nonexistent/nvbitfi-worker-binary", 1, 0, 1);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].outcome.class, OutcomeClass::InfraError(InfraKind::WorkerDied));
        assert_eq!(out[0].attempts, 1);
    }

    #[test]
    fn liveness_window_scales_with_heartbeat() {
        let mut iso = ProcessIsolation::new(vec!["x".into()], "test");
        assert_eq!(iso.liveness(), Duration::from_secs(2), "20 × 100ms default");
        iso.heartbeat = Duration::from_millis(10);
        assert_eq!(iso.liveness(), Duration::from_secs(1), "floored at 1s");
    }
}
