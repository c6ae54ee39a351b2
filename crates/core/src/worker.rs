//! Worker half of the process-isolation protocol.
//!
//! A process-isolated campaign ([`crate::pool`]) runs each injection in a
//! child process — the paper's actual deployment shape, where every
//! experiment is its own CUDA process and a fault that kills the victim
//! (segfault, abort, OOM-kill) cannot take the campaign down with it. The
//! supervisor and its workers speak a minimal framed protocol over the
//! child's stdin/stdout:
//!
//! * **Framing** — each message is a 4-byte big-endian length prefix
//!   followed by that many bytes of UTF-8 text ([`write_frame`],
//!   [`read_frame`]). Frames are capped at [`MAX_FRAME`] bytes; a longer
//!   prefix is protocol corruption, not a large message.
//! * **Messages** — one line of tab-separated text, the same style as the
//!   results log ([`Msg`]): the message tag (`init`, `ready`, `run`,
//!   `heartbeat`, `done`, `error`, `shutdown`), then that message's fields.
//!   Numbers are decimal, flags `1`/`0` (as in the log's `fired` column), a
//!   missing deadline `-`; strings escape `\`, tab and newline, so any
//!   string round-trips. A `run` frame carries the site as its parameter
//!   file text.
//! * **Session** — supervisor sends [`Msg::Init`]; the worker resolves the
//!   workload, replays its own golden run (simulation is deterministic, so
//!   the worker's golden is bit-identical to the supervisor's) and answers
//!   [`Msg::Ready`]. Each [`Msg::Run`] is answered by one [`Msg::Done`];
//!   while a run is executing the worker emits [`Msg::Heartbeat`] frames so
//!   the supervisor can tell a long simulation from a wedged process.
//!   [`Msg::Shutdown`] (or stdin EOF) ends the session.
//!
//! Anything unexpected — an unparseable frame, an unknown workload, a
//! malformed site — earns a [`Msg::Error`] reply and a clean exit: the
//! supervisor treats the worker as dead and respawns, which is exactly the
//! recovery path real corruption would need anyway.

use crate::campaign::{attempt_transient, RunDetail};
use crate::dispatch::Attempt;
use crate::golden::PreparedGolden;
use crate::logfile::{outcome_code, parse_deadline_ms, parse_flag};
use crate::outcome::{Outcome, OutcomeClass, SdcCheck};
use crate::params::TransientParams;
use gpu_runtime::{Program, RuntimeConfig};
use std::io::{self, Read, Write};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

/// Maximum frame payload size. Frames are small control messages; a length
/// prefix beyond this is protocol corruption (e.g. a worker that wrote raw
/// text into the frame stream) and fails the read immediately instead of
/// attempting a giant allocation.
pub const MAX_FRAME: u32 = 1 << 20;

/// Write one length-prefixed frame and flush it.
///
/// # Errors
///
/// Returns an [`io::Error`] if the payload exceeds [`MAX_FRAME`] or the
/// underlying write fails (e.g. the peer closed the pipe).
pub fn write_frame(w: &mut impl Write, payload: &str) -> io::Result<()> {
    let bytes = payload.as_bytes();
    if bytes.len() > MAX_FRAME as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame payload of {} bytes exceeds the {MAX_FRAME}-byte cap", bytes.len()),
        ));
    }
    w.write_all(&(bytes.len() as u32).to_be_bytes())?;
    w.write_all(bytes)?;
    w.flush()
}

/// Read one length-prefixed frame. Returns `Ok(None)` on clean EOF at a
/// frame boundary (the peer hung up between messages).
///
/// # Errors
///
/// Returns an [`io::Error`] on a torn frame (EOF mid-prefix or mid-payload),
/// an oversized length prefix, or payload bytes that are not UTF-8 — all
/// treated by the supervisor as worker death.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<String>> {
    let mut len = [0u8; 4];
    let mut filled = 0;
    while filled < len.len() {
        match r.read(&mut len[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "torn frame: EOF inside the length prefix",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let n = u32::from_be_bytes(len);
    if n > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {n} exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    let mut buf = vec![0u8; n as usize];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame payload is not UTF-8"))
}

/// Everything a worker needs to set itself up: which workload to load and
/// the knobs that must match the supervisor's campaign configuration so the
/// worker's runs are bit-identical to thread-mode runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerInit {
    /// Workload name (e.g. `"314.omriq"`), resolved by the worker's own
    /// suite lookup.
    pub program: String,
    /// Workload scale name (e.g. `"test"`).
    pub scale: String,
    /// Mirror of [`crate::CampaignConfig::use_checkpoints`]: the worker
    /// records its own checkpoint store during its golden run.
    pub use_checkpoints: bool,
    /// Per-run wall-clock deadline in milliseconds (`None` disables it).
    pub deadline_ms: Option<u64>,
    /// Heartbeat interval in milliseconds while a run executes.
    pub heartbeat_ms: u64,
}

/// One protocol message. See the module docs for the session shape.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// Supervisor → worker: session setup. Answered by [`Msg::Ready`] or
    /// [`Msg::Error`].
    Init(WorkerInit),
    /// Worker → supervisor: golden run complete, ready for work.
    Ready,
    /// Supervisor → worker: execute one injection. `site` is the 7-line
    /// parameter-file serialization ([`TransientParams::to_file`]).
    Run {
        /// Supervisor-side site index, echoed back in [`Msg::Done`].
        id: u64,
        /// The fault parameters, in parameter-file form.
        site: String,
    },
    /// Worker → supervisor: still alive, run in progress.
    Heartbeat,
    /// Worker → supervisor: one injection's verdict.
    Done {
        /// The site index from the matching [`Msg::Run`].
        id: u64,
        /// The verdict as an [`outcome_code`] string (carries `+pdue`).
        outcome: String,
        /// Whether the fault actually fired.
        injected: bool,
        /// Run duration in microseconds, measured worker-side.
        wall_us: u64,
        /// Dynamic instructions of the prefix replayed from checkpoints.
        skip_instrs: u64,
        /// Tail launches replayed from checkpoints.
        tail_launches: u64,
        /// Their dynamic instructions.
        tail_instrs: u64,
    },
    /// Worker → supervisor: the session is broken (unknown workload, failed
    /// golden run, corrupt frame). The worker exits after sending it.
    Error {
        /// Human-readable diagnosis.
        message: String,
    },
    /// Supervisor → worker: drain and exit cleanly.
    Shutdown,
}

/// Escape `\`, tab and newline so a string fits in one tab-separated field.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Invert [`escape`]; `None` for any other escape or a trailing `\`.
fn unescape(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        out.push(match c {
            '\\' => match chars.next()? {
                '\\' => '\\',
                't' => '\t',
                'n' => '\n',
                _ => return None,
            },
            c => c,
        });
    }
    Some(out)
}

/// A decimal `u64`: digits only (`str::parse` alone also takes a `+`).
fn num(s: &str) -> Option<u64> {
    s.bytes().all(|b| b.is_ascii_digit()).then(|| s.parse().ok())?
}

impl Msg {
    /// Serialize to the wire text: one line holding the message tag and
    /// then its fields, tab-separated. Numbers are decimal, flags `1`/`0`,
    /// a missing deadline `-`, and strings escape `\`, tab and newline.
    /// (The name predates the text format.)
    pub fn to_json(&self) -> String {
        match self {
            Msg::Init(i) => format!(
                "init\t{}\t{}\t{}\t{}\t{}",
                escape(&i.program),
                escape(&i.scale),
                u8::from(i.use_checkpoints),
                i.deadline_ms.map_or("-".into(), |d| d.to_string()),
                i.heartbeat_ms
            ),
            Msg::Ready => "ready".into(),
            Msg::Run { id, site } => format!("run\t{id}\t{}", escape(site)),
            Msg::Heartbeat => "heartbeat".into(),
            Msg::Done {
                id,
                outcome,
                injected,
                wall_us,
                skip_instrs,
                tail_launches,
                tail_instrs,
            } => {
                format!(
                    "done\t{id}\t{}\t{}\t{wall_us}\t{skip_instrs}\t{tail_launches}\t{tail_instrs}",
                    escape(outcome),
                    u8::from(*injected)
                )
            }
            Msg::Error { message } => format!("error\t{}", escape(message)),
            Msg::Shutdown => "shutdown".into(),
        }
    }

    /// Parse the wire text written by [`Msg::to_json`]. Returns `None` for
    /// anything that is not a well-formed protocol message (unknown tag,
    /// wrong field count, bad number, flag or escape); the caller treats
    /// that as corruption.
    pub fn parse(text: &str) -> Option<Msg> {
        let mut fields = text.split('\t');
        let tag = fields.next()?;
        let fields: Vec<&str> = fields.collect();
        Some(match (tag, fields.as_slice()) {
            ("init", [program, scale, ckpt, deadline, heartbeat]) => Msg::Init(WorkerInit {
                program: unescape(program)?,
                scale: unescape(scale)?,
                use_checkpoints: parse_flag(ckpt)?,
                deadline_ms: parse_deadline_ms(deadline)?,
                heartbeat_ms: num(heartbeat)?,
            }),
            ("ready", []) => Msg::Ready,
            ("run", [id, site]) => Msg::Run { id: num(id)?, site: unescape(site)? },
            ("heartbeat", []) => Msg::Heartbeat,
            ("done", [id, outcome, injected, wall_us, skip_instrs, tail_launches, tail_instrs]) => {
                Msg::Done {
                    id: num(id)?,
                    outcome: unescape(outcome)?,
                    injected: parse_flag(injected)?,
                    wall_us: num(wall_us)?,
                    skip_instrs: num(skip_instrs)?,
                    tail_launches: num(tail_launches)?,
                    tail_instrs: num(tail_instrs)?,
                }
            }
            ("error", [message]) => Msg::Error { message: unescape(message)? },
            ("shutdown", []) => Msg::Shutdown,
            _ => return None,
        })
    }
}

/// A workload resolver: `(program name, scale name)` → the program and its
/// SDC check. The CLI wires this to the workload suite; tests wire it to
/// whatever program they need.
pub type Resolver =
    dyn Fn(&str, &str) -> Option<(Box<dyn Program + Send + Sync>, Box<dyn SdcCheck + Send + Sync>)>;

/// Serve one worker session: read frames from `input`, write replies to
/// `output`, executing injections for the workload named by the
/// [`Msg::Init`] frame. This is the body of the hidden `nvbitfi worker`
/// subcommand; it returns when the supervisor shuts the session down (or
/// the session breaks, after a best-effort [`Msg::Error`] reply).
///
/// The worker replays its own golden run (and checkpoint store) at init
/// time: simulation is deterministic, so the result is identical to the
/// supervisor's and nothing large ever crosses the pipe. Runs execute on
/// one run thread per session; this thread keeps both pipes and writes one
/// [`Msg::Heartbeat`] per interval while a run is in flight — proof of life
/// during a long (or fault-wedged-but-progressing) simulation.
///
/// # Errors
///
/// Returns an [`io::Error`] only for transport failures; protocol-level
/// problems are reported in-band via [`Msg::Error`].
pub fn serve<R: Read, W: Write>(mut input: R, mut output: W, resolve: &Resolver) -> io::Result<()> {
    let bail = |output: &mut W, message: String| -> io::Result<()> {
        write_frame(output, &Msg::Error { message }.to_json())
    };

    let init = match read_frame(&mut input)? {
        None => return Ok(()),
        Some(text) => match Msg::parse(&text) {
            Some(Msg::Init(init)) => init,
            _ => return bail(&mut output, "expected an init frame".into()),
        },
    };
    let Some((program, check)) = resolve(&init.program, &init.scale) else {
        return bail(
            &mut output,
            format!("unknown workload `{}` at scale `{}`", init.program, init.scale),
        );
    };

    let mut golden =
        match PreparedGolden::new(&*program, RuntimeConfig::default(), init.use_checkpoints) {
            Ok(g) => g,
            Err(e) => return bail(&mut output, format!("golden run failed: {e}")),
        };
    golden.config.wall_deadline = init.deadline_ms.map(Duration::from_millis);
    let heartbeat = Duration::from_millis(init.heartbeat_ms.max(1));

    write_frame(&mut output, &Msg::Ready.to_json())?;

    let (golden, program, check) = (&golden, &*program, &*check);
    std::thread::scope(|s| {
        let (sites, site_rx) = mpsc::channel::<TransientParams>();
        let (attempt_tx, attempts) = mpsc::channel();
        // The channel closes when this closure returns, ending the thread.
        s.spawn(move || {
            for params in site_rx {
                let _ = attempt_tx.send(attempt_transient(golden, program, check, &params, false));
            }
        });
        loop {
            let Some(text) = read_frame(&mut input)? else { return Ok(()) };
            match Msg::parse(&text) {
                Some(Msg::Shutdown) => return Ok(()),
                Some(Msg::Run { id, site }) => {
                    let params = match TransientParams::from_file(&site) {
                        Ok(p) => p,
                        Err(e) => return bail(&mut output, format!("bad site parameters: {e}")),
                    };
                    let t = Instant::now();
                    sites.send(params).expect("the run thread catches its runs' panics");
                    let attempt = loop {
                        match attempts.recv_timeout(heartbeat) {
                            Err(RecvTimeoutError::Timeout) => {
                                write_frame(&mut output, &Msg::Heartbeat.to_json())?;
                            }
                            done => break done.expect("the run thread catches its runs' panics"),
                        }
                    };
                    // The run's own timing, as in thread mode; only a lost
                    // attempt, which has none, is timed from here.
                    let (outcome, detail, wall) = match attempt {
                        Attempt::Ran { outcome, wall, detail } => (outcome, detail, wall),
                        // A panic inside the run stays inside the worker:
                        // report it as the same infra verdict thread-mode
                        // isolation uses and keep serving (the supervisor
                        // decides about retries).
                        Attempt::Lost(kind) => (
                            Outcome { class: OutcomeClass::InfraError(kind), potential_due: false },
                            RunDetail::default(),
                            t.elapsed(),
                        ),
                    };
                    let wall_us = u64::try_from(wall.as_micros()).unwrap_or(u64::MAX);
                    let done = Msg::Done {
                        id,
                        outcome: outcome_code(&outcome),
                        injected: detail.injected,
                        wall_us,
                        skip_instrs: detail.prefix_instrs_skipped,
                        tail_launches: detail.tail_replayed.launches,
                        tail_instrs: detail.tail_replayed.instrs,
                    };
                    write_frame(&mut output, &done.to_json())?;
                }
                // A stray heartbeat is harmless; anything else means the two
                // sides disagree about the protocol — stop before guessing.
                Some(Msg::Heartbeat) => {}
                _ => return bail(&mut output, "unexpected or unparseable frame".into()),
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitflip::BitFlipModel;
    use crate::igid::InstrGroup;
    use crate::outcome::ExactDiff;
    use gpu_runtime::{Runtime, RuntimeError};
    use std::io::Cursor;

    #[test]
    fn frames_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "hello").unwrap();
        write_frame(&mut buf, "").unwrap();
        let mut r = Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap(), Some("hello".into()));
        assert_eq!(read_frame(&mut r).unwrap(), Some("".into()));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF at boundary");
    }

    #[test]
    fn torn_and_oversized_frames_error() {
        // EOF inside the length prefix.
        let mut r = Cursor::new(vec![0u8, 0]);
        assert!(read_frame(&mut r).is_err());
        // EOF inside the payload.
        let mut r = Cursor::new(vec![0, 0, 0, 10, b'x']);
        assert!(read_frame(&mut r).is_err());
        // Length prefix beyond the cap.
        let mut r = Cursor::new((MAX_FRAME + 1).to_be_bytes().to_vec());
        assert!(read_frame(&mut r).is_err());
        // Writing an oversized payload is refused up front.
        let huge = "x".repeat(MAX_FRAME as usize + 1);
        assert!(write_frame(&mut Vec::new(), &huge).is_err());
    }

    #[test]
    fn messages_roundtrip() {
        let msgs = [
            Msg::Init(WorkerInit {
                program: "314.omriq".into(),
                scale: "test".into(),
                use_checkpoints: true,
                deadline_ms: Some(5000),
                heartbeat_ms: 100,
            }),
            Msg::Init(WorkerInit {
                program: "weird \"name\"\n\twith\\escapes\u{1}".into(),
                scale: "test".into(),
                use_checkpoints: false,
                deadline_ms: None,
                heartbeat_ms: 1,
            }),
            Msg::Ready,
            Msg::Run { id: 7, site: "1\n0\nkernel\n0\n42\n0.5\n0.25\n".into() },
            Msg::Heartbeat,
            Msg::Done {
                id: 7,
                outcome: "SDC:stdout+pdue".into(),
                injected: true,
                wall_us: 1234,
                skip_instrs: 99,
                tail_launches: 3,
                tail_instrs: 4567,
            },
            Msg::Error { message: "golden run failed: boom".into() },
            Msg::Shutdown,
        ];
        for m in msgs {
            let json = m.to_json();
            assert_eq!(Msg::parse(&json), Some(m.clone()), "roundtrip of {json}");
        }
    }

    #[test]
    fn garbage_never_parses_as_a_message() {
        for text in [
            "",
            "{",
            "nonsense",
            "{\"type\":\"run\"}",                     // missing fields
            "{\"type\":\"launch-missiles\"}",         // unknown type
            "{\"type\":\"done\",\"id\":\"seven\"}",   // wrong field type
            "{\"type\":\"ready\"} trailing",          // trailing garbage
            "{\"type\":\"ready\",\"x\":{\"y\":1}}",   // nested object
            "{\"type\":\"ready\",\"x\":\"\\ud800\"}", // lone surrogate
            "run\t7",                                 // wrong field count
            "done\tseven\tMASKED\t1\t5\t0",           // id not a number
            "done\t7\tMASKED\ttrue\t5\t0",            // bad flag
            "error\tbad \\q escape",                  // unknown escape
            "ready\t",                                // trailing field
        ] {
            assert_eq!(Msg::parse(text), None, "must reject: {text}");
        }
    }

    struct Tiny;
    impl Program for Tiny {
        fn name(&self) -> &str {
            "tiny"
        }
        fn run(&self, rt: &mut Runtime) -> Result<(), RuntimeError> {
            rt.println("result 42");
            Ok(())
        }
    }

    /// Like [`Tiny`], but each run takes about 20 ms of host time.
    struct Sleepy;
    impl Program for Sleepy {
        fn name(&self) -> &str {
            "sleepy"
        }
        fn run(&self, rt: &mut Runtime) -> Result<(), RuntimeError> {
            std::thread::sleep(Duration::from_millis(20));
            Tiny.run(rt)
        }
    }

    fn resolve_tiny(
        program: &str,
        scale: &str,
    ) -> Option<(Box<dyn Program + Send + Sync>, Box<dyn SdcCheck + Send + Sync>)> {
        let p: Box<dyn Program + Send + Sync> = match (program, scale) {
            ("tiny", "test") => Box::new(Tiny),
            ("sleepy", "test") => Box::new(Sleepy),
            _ => return None,
        };
        let c: Box<dyn SdcCheck + Send + Sync> = Box::new(ExactDiff);
        Some((p, c))
    }

    fn session(frames: &[Msg]) -> Vec<Msg> {
        let mut input = Vec::new();
        for m in frames {
            write_frame(&mut input, &m.to_json()).unwrap();
        }
        let mut output = Vec::new();
        serve(Cursor::new(input), &mut output, &resolve_tiny).unwrap();
        let mut r = Cursor::new(output);
        let mut replies = Vec::new();
        while let Some(text) = read_frame(&mut r).unwrap() {
            replies.push(Msg::parse(&text).expect("worker emits well-formed frames"));
        }
        replies
    }

    /// A site whose kernel never launches: the run is always Masked.
    fn unreachable_site() -> String {
        TransientParams {
            group: InstrGroup::Gp,
            bit_flip: BitFlipModel::FlipSingleBit,
            kernel_name: "nonexistent".into(),
            kernel_count: 0,
            instruction_count: 0,
            destination_register: 0.5,
            bit_pattern: 0.5,
        }
        .to_file()
    }

    /// The replies to one session running `program` once per id in `ids`,
    /// with the given heartbeat.
    fn runs(program: &str, heartbeat_ms: u64, ids: &[u64]) -> Vec<Msg> {
        let init = Msg::Init(WorkerInit {
            program: program.into(),
            scale: "test".into(),
            use_checkpoints: true,
            deadline_ms: None,
            heartbeat_ms,
        });
        let runs = ids.iter().map(|&id| Msg::Run { id, site: unreachable_site() });
        let frames: Vec<Msg> = std::iter::once(init).chain(runs).chain([Msg::Shutdown]).collect();
        session(&frames)
    }

    #[test]
    fn serve_runs_a_session_end_to_end() {
        let replies = runs("tiny", 1000, &[3]);
        assert_eq!(replies[0], Msg::Ready);
        // The target kernel never launches, so the fault cannot fire and the
        // run is Masked — what matters here is the protocol, not the fault.
        match &replies[1] {
            Msg::Done { id: 3, outcome, injected: false, .. } => assert_eq!(outcome, "MASKED"),
            other => panic!("expected a Done frame, got {other:?}"),
        }
        assert_eq!(replies.len(), 2, "an instant run sends no heartbeat");
    }

    #[test]
    fn serve_sends_heartbeats_while_a_run_is_in_flight() {
        let replies = runs("sleepy", 1, &[3]);
        assert_eq!(replies[0], Msg::Ready);
        let (done, beats) = replies[1..].split_last().expect("a Done frame");
        assert!(matches!(done, Msg::Done { id: 3, .. }), "got {done:?}");
        assert!(!beats.is_empty(), "a 20 ms run with a 1 ms heartbeat must beat");
        assert!(beats.iter().all(|m| *m == Msg::Heartbeat), "got {beats:?}");
    }

    #[test]
    fn serve_answers_each_run_of_a_session_in_order() {
        let replies = runs("tiny", 1000, &[3, 4, 5]);
        let ids: Vec<u64> = replies[1..]
            .iter()
            .map(|m| match m {
                Msg::Done { id, .. } => *id,
                other => panic!("expected only Done frames after Ready, got {other:?}"),
            })
            .collect();
        assert_eq!(replies[0], Msg::Ready);
        assert_eq!(ids, [3, 4, 5]);
    }

    #[test]
    fn serve_rejects_unknown_workloads_and_bad_frames() {
        let replies = session(&[Msg::Init(WorkerInit {
            program: "no-such-benchmark".into(),
            scale: "test".into(),
            use_checkpoints: false,
            deadline_ms: None,
            heartbeat_ms: 1000,
        })]);
        assert!(matches!(&replies[0], Msg::Error { message } if message.contains("unknown")));

        // A non-init first frame is an immediate protocol error.
        let replies = session(&[Msg::Heartbeat]);
        assert!(matches!(&replies[0], Msg::Error { .. }));

        // A malformed site is reported in-band, after Ready.
        let replies = session(&[
            Msg::Init(WorkerInit {
                program: "tiny".into(),
                scale: "test".into(),
                use_checkpoints: false,
                deadline_ms: None,
                heartbeat_ms: 1000,
            }),
            Msg::Run { id: 0, site: "not a parameter file".into() },
        ]);
        assert_eq!(replies[0], Msg::Ready);
        assert!(matches!(&replies[1], Msg::Error { .. }));
    }
}
