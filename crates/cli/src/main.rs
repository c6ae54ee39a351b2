//! `nvbitfi` — command-line driver, the analog of the upstream NVBitFI
//! convenience scripts (`test.sh`, `run_profiler.py`, `run_injections.py`).
//!
//! `nvbitfi help` prints every command with the flags it accepts.

mod args;
mod commands;
mod sigint;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
