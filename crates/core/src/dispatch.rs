//! The campaign dispatcher: one work queue, one retry loop, one fan-out.
//!
//! Thread-mode, process-mode and permanent campaigns all hand their sites to
//! [`dispatch`] with a per-slot attempt closure. The dispatcher owns the
//! rest: the queue, the `should_stop` poll before each dispatch, the
//! harness-fault hook, retry with linear backoff ending in
//! [`OutcomeClass::InfraError`], and the completion callback. It sees only
//! sites that run: verdicts known without execution (statically pruned
//! sites, permanent experiments answered from golden, resumed rows) are
//! merged by index after the fan-out returns.

use crate::campaign::FaultHook;
use crate::outcome::{InfraKind, Outcome, OutcomeClass};
use parking_lot::Mutex;
use std::time::{Duration, Instant};

/// One execution attempt's result, as seen through the isolation boundary.
pub(crate) enum Attempt<D> {
    /// The run completed and was classified, in `wall` as its executor
    /// measured it; `detail` is what the run reports besides its outcome.
    /// An infra outcome (deadline overrun) is retried.
    Ran { outcome: Outcome, wall: Duration, detail: D },
    /// The harness lost the attempt: the worker thread panicked or the
    /// worker process died.
    Lost(InfraKind),
}

/// A site's verdict once the retry loop is done with it: the final
/// attempt's outcome, details (`None` if the harness lost it) and duration,
/// plus the attempts spent.
pub(crate) struct Settled<D> {
    pub outcome: Outcome,
    pub detail: Option<D>,
    pub attempts: u32,
    pub wall: Duration,
}

/// Slot count and retry policy. The hook is consulted once per `(site,
/// attempt)`; the attempt closure decides what a firing hook means.
pub(crate) struct Plan<'a> {
    pub workers: usize,
    pub max_retries: u32,
    pub backoff: Duration,
    pub fault_hook: Option<&'a FaultHook>,
}

/// Run one attempt in this thread behind a `catch_unwind` boundary: a panic
/// — including the one a firing harness-fault hook injects — loses the
/// attempt instead of the fan-out scope and every in-flight run with it.
pub(crate) fn attempt_here<D>(
    harness_fault: bool,
    run: impl FnOnce() -> (Outcome, D),
) -> Attempt<D> {
    let t = Instant::now();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if harness_fault {
            panic!("fault-hook: injected worker panic");
        }
        run()
    }));
    match result {
        Ok((outcome, detail)) => Attempt::Ran { outcome, wall: t.elapsed(), detail },
        Err(_) => Attempt::Lost(InfraKind::WorkerPanic),
    }
}

/// Attempt one site until it yields a verdict or `plan.max_retries` extra
/// attempts are spent, pausing `backoff × attempt` between attempts.
fn retry<D>(
    plan: &Plan<'_>,
    index: usize,
    mut attempt: impl FnMut(bool) -> Attempt<D>,
) -> Settled<D> {
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        let harness_fault = plan.fault_hook.is_some_and(|hook| (hook.0)(index, attempts));
        let t = Instant::now();
        let (outcome, wall, detail) = match attempt(harness_fault) {
            Attempt::Ran { outcome, wall, detail } => (outcome, wall, Some(detail)),
            Attempt::Lost(kind) => {
                let outcome =
                    Outcome { class: OutcomeClass::InfraError(kind), potential_due: false };
                (outcome, t.elapsed(), None)
            }
        };
        if !outcome.is_infra() || attempts > plan.max_retries {
            return Settled { outcome, detail, attempts, wall };
        }
        if !plan.backoff.is_zero() {
            std::thread::sleep(plan.backoff * attempts);
        }
    }
}

/// Fan `items` — `(selection index, site)` pairs in dispatch order — out over
/// `plan.workers` slots. Each slot owns an `S`, default-constructed and
/// dropped when the slot retires, that `attempt` may keep a worker in.
/// `stop` is polled before every dispatch, so nothing — not even a worker
/// spawn — precedes the first poll; a stopped fan-out still finishes its
/// in-flight sites. `settle` turns a site and its verdict into the caller's
/// record, and `on_done` sees every record as it completes.
///
/// Returns the completed `(selection index, record)` pairs in index order,
/// plus whether `stop` cut the fan-out short.
pub(crate) fn dispatch<T: Send, D, R: Send, S: Default>(
    plan: &Plan<'_>,
    items: Vec<(usize, T)>,
    stop: &(dyn Fn() -> bool + Sync),
    attempt: impl Fn(&mut S, usize, &T, bool) -> Attempt<D> + Sync,
    settle: impl Fn(T, Settled<D>) -> R + Sync,
    on_done: impl Fn(&R) + Sync,
) -> (Vec<(usize, R)>, bool) {
    let total = items.len();
    let queue = Mutex::new(items.into_iter());
    let done = Mutex::new(Vec::with_capacity(total));
    std::thread::scope(|s| {
        for _ in 0..plan.workers.max(1).min(total.max(1)) {
            s.spawn(|| {
                let mut slot = S::default();
                while !stop() {
                    let next = queue.lock().next();
                    let Some((index, item)) = next else { break };
                    let settled =
                        retry(plan, index, |fault| attempt(&mut slot, index, &item, fault));
                    let record = settle(item, settled);
                    on_done(&record);
                    done.lock().push((index, record));
                }
            });
        }
    });
    let mut done = done.into_inner();
    done.sort_by_key(|&(index, _)| index);
    let stopped = done.len() < total;
    (done, stopped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn plan(workers: usize, max_retries: u32) -> Plan<'static> {
        Plan { workers, max_retries, backoff: Duration::ZERO, fault_hook: None }
    }

    fn masked() -> Outcome {
        Outcome { class: OutcomeClass::Masked, potential_due: false }
    }

    /// A fake attempt that completes cleanly, echoing its item.
    fn echo(_: &mut (), _: usize, item: &i32, _: bool) -> Attempt<i32> {
        Attempt::Ran { outcome: masked(), wall: Duration::ZERO, detail: *item }
    }

    fn items(items: impl IntoIterator<Item = i32>) -> Vec<(usize, i32)> {
        items.into_iter().enumerate().collect()
    }

    #[test]
    fn results_come_back_in_selection_order() {
        // Dispatched in reverse over four slots.
        let (out, stopped) = dispatch(
            &plan(4, 0),
            (0..100).rev().map(|i| (i, i as i32)).collect(),
            &|| false,
            echo,
            |item, s| {
                assert_eq!((s.attempts, s.detail), (1, Some(item)));
                item
            },
            |_| {},
        );
        assert!(!stopped);
        let expected: Vec<_> = (0..100).map(|i| (i, i as i32)).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn stop_between_items_keeps_the_completed_prefix() {
        // One slot, stop after three completions: the rest never run.
        let completed = AtomicUsize::new(0);
        let (out, stopped) = dispatch(
            &plan(1, 0),
            items(0..10),
            &|| completed.load(Ordering::SeqCst) >= 3,
            echo,
            |item, _| item * 10,
            |_| {
                completed.fetch_add(1, Ordering::SeqCst);
            },
        );
        assert_eq!(out, vec![(0, 0), (1, 10), (2, 20)]);
        assert!(stopped);
    }

    #[test]
    fn failed_attempts_retry_until_the_budget_is_spent() {
        // The hook panics every attempt at site 1 and the first at site 2;
        // site 3's run always overruns its deadline.
        let hook = FaultHook::new(|site, attempt| site == 1 || (site == 2 && attempt == 1));
        let plan = Plan { fault_hook: Some(&hook), ..plan(2, 2) };
        let deadline =
            Outcome { class: OutcomeClass::InfraError(InfraKind::Deadline), potential_due: false };
        let (out, _) = dispatch(
            &plan,
            items(0..4),
            &|| false,
            |_: &mut (), i, item: &i32, fault| {
                let outcome = if i == 3 { deadline.clone() } else { masked() };
                attempt_here(fault, || (outcome, *item))
            },
            |_, s| (s.outcome, s.attempts, s.detail),
            |_| {},
        );
        let panic = Outcome {
            class: OutcomeClass::InfraError(InfraKind::WorkerPanic),
            potential_due: false,
        };
        assert_eq!(out[0].1, (masked(), 1, Some(0)));
        assert_eq!(out[1].1, (panic, 3, None), "max_retries = 2: three attempts, no details");
        assert_eq!(out[2].1, (masked(), 2, Some(2)));
        assert_eq!(out[3].1, (deadline, 3, Some(3)), "the final attempt's details are kept");
    }

    #[test]
    fn slot_state_persists_across_a_slots_sites() {
        let (out, _) = dispatch(
            &plan(1, 0),
            items(0..3),
            &|| false,
            |seen: &mut i32, _, _: &i32, _| {
                *seen += 1;
                Attempt::Ran { outcome: masked(), wall: Duration::ZERO, detail: *seen }
            },
            |_, s| s.detail,
            |_| {},
        );
        assert_eq!(out, vec![(0, Some(1)), (1, Some(2)), (2, Some(3))]);
    }
}
