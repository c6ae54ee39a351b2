//! Graceful Ctrl-C handling.
//!
//! The first SIGINT only raises a flag — campaign code polls it (via
//! `CampaignHooks::should_stop`) to stop dispatching new runs, let in-flight
//! runs finish, and flush the journal. The handler then restores the default
//! disposition, so a second Ctrl-C kills the process immediately (the
//! journal is crash-safe by design, so even that loses at most a torn final
//! line).
//!
//! No external signal crate is used: the handler goes through the C
//! `signal()` entry point libstd already links.

use std::sync::atomic::{AtomicBool, Ordering};

static INTERRUPTED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod imp {
    use super::INTERRUPTED;
    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;
    const SIG_DFL: usize = 0;
    const SIG_IGN: usize = 1;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_sigint(_signum: i32) {
        INTERRUPTED.store(true, Ordering::SeqCst);
        // Second Ctrl-C terminates immediately: restore the default
        // disposition from inside the (async-signal-safe) handler.
        unsafe {
            signal(SIGINT, SIG_DFL);
        }
    }

    pub fn install() {
        let handler = on_sigint as extern "C" fn(i32) as *const ();
        unsafe {
            signal(SIGINT, handler as usize);
        }
    }

    pub fn ignore() {
        unsafe {
            signal(SIGINT, SIG_IGN);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    /// Non-Unix builds run campaigns without interrupt support; Ctrl-C
    /// falls back to the platform default (terminate).
    pub fn install() {}

    pub fn ignore() {}
}

/// Install the SIGINT handler. Call once, before starting a campaign.
pub fn install() {
    imp::install();
}

/// Ignore SIGINT entirely. Worker processes use this: a terminal Ctrl-C is
/// aimed at the supervising campaign, which lets in-flight runs finish and
/// then drains its workers over the protocol (shutdown frame, then a kill
/// after a grace window) — a worker that died to the shared SIGINT would instead burn a retry and
/// leave its in-flight site as an infra error.
pub fn ignore() {
    imp::ignore();
}

/// `true` once the user has pressed Ctrl-C.
pub fn interrupted() -> bool {
    INTERRUPTED.load(Ordering::SeqCst)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_starts_clear_and_install_is_idempotent() {
        install();
        install();
        assert!(!interrupted());
    }
}
