//! The campaign scheduler and its in-process transport.
//!
//! Every cell of the 25 x 25 heatmap (and every point of the scalability
//! and sensitivity sweeps) is an independent simulation. One scheduler,
//! the [`CellBook`], decides each cell's fate: it hands out claims, turns
//! a panicked attempt into a retry or a final [`CellFailure`], skips the
//! rest under fail-fast, and returns the results in input order. Two
//! transports drain it: [`supervised_map`] runs claims on host threads,
//! each under `catch_unwind` so one panicking simulation cannot take down
//! the other 624 cells, and the fabric coordinator (`cochar-fabric`)
//! leases them to worker processes over TCP.
//!
//! Workers pin themselves round-robin onto the host CPUs the process is
//! allowed to run on (see [`affinity`]): sweep cells are themselves
//! timing-sensitive simulations, and keeping each worker on one core
//! avoids migration-induced wall-clock noise in the measured cells. Set
//! `COCHAR_NO_PIN` to leave scheduling to the OS.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// One cell that exhausted its attempts (or was skipped by fail-fast).
#[derive(Clone, Debug)]
pub struct CellFailure {
    /// Position of the cell in the input slice.
    pub index: usize,
    /// Human-readable cell label (e.g. `"fluidanimate/stream"`).
    pub spec: String,
    /// The final panic message, or a skip marker.
    pub cause: String,
    /// Attempts actually made (0 when skipped by fail-fast).
    pub attempts: u32,
}

/// Failure-handling policy for a supervised sweep.
#[derive(Clone, Copy, Debug)]
pub struct SweepPolicy {
    /// Retries after the first failed attempt (so a cell runs at most
    /// `max_retries + 1` times). The attempt index reaches the cell
    /// function, which is expected to reseed deterministically.
    pub max_retries: u32,
    /// With `true` (the default), a failed cell becomes a hole and the
    /// sweep continues; with `false`, remaining unclaimed cells are
    /// skipped once any cell fails.
    pub keep_going: bool,
}

impl Default for SweepPolicy {
    fn default() -> Self {
        SweepPolicy { max_retries: 0, keep_going: true }
    }
}

/// One cell's state in a [`CellBook`].
enum Slot<R> {
    /// Queued or in flight at this attempt; outcomes of any other attempt
    /// are stale.
    Open { attempt: u32 },
    /// Settled with a value.
    Done(R),
    /// Settled as a final failure or a fail-fast skip.
    Failed { cause: String, attempts: u32 },
}

/// What [`CellBook::settle`] or [`CellBook::fail`] made of an outcome.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Settled {
    /// The cell had already settled; the outcome is dismissed.
    Duplicate,
    /// A panic within the retry budget: the cell is queued again, first
    /// in line, with `attempt + 1`.
    Retry,
    /// The cell settled for good, as a value or a final failure.
    Final {
        /// Cells settled so far, not counting fail-fast skips: the
        /// `on_done(done, total)` progress tick.
        done: usize,
    },
}

/// The campaign scheduler: which `(index, attempt)` claims are still to
/// run, and how each cell ended.
///
/// Only the book applies the [`SweepPolicy`]: a panic within budget is
/// queued again with `attempt + 1`, any other outcome is final, and under
/// fail-fast the first final failure skips every queued cell and stops
/// further claims. A cell settles exactly once, and only an outcome of
/// its current attempt counts: late, duplicate, and stale outcomes are
/// dismissed, so no cell runs more than `max_retries + 1` distinct
/// attempts. Transports report lost claims through
/// [`release`](CellBook::release) and give up on a cell through
/// [`fail`](CellBook::fail).
pub struct CellBook<R> {
    policy: SweepPolicy,
    /// Claimable `(index, attempt)` pairs. Entries that went stale while
    /// they waited (the cell settled or moved on) are dropped by `claim`.
    queue: VecDeque<(usize, u32)>,
    slots: Vec<Slot<R>>,
    /// Settled cells, skips included.
    settled: usize,
    /// Settled cells, skips excluded.
    done: usize,
    /// Fail-fast has tripped: nothing is queued any more.
    stopped: bool,
}

impl<R> CellBook<R> {
    /// A book of `total` cells, all queued at attempt 0 in index order.
    pub fn new(total: usize, policy: SweepPolicy) -> Self {
        CellBook {
            policy,
            queue: (0..total).map(|i| (i, 0)).collect(),
            slots: (0..total).map(|_| Slot::Open { attempt: 0 }).collect(),
            settled: 0,
            done: 0,
            stopped: false,
        }
    }

    /// Number of cells in the book.
    pub fn total(&self) -> usize {
        self.slots.len()
    }

    /// Cells not yet settled (queued or in flight).
    pub fn unsettled(&self) -> usize {
        self.total() - self.settled
    }

    /// True once every cell has settled.
    pub fn is_done(&self) -> bool {
        self.unsettled() == 0
    }

    /// True if cell `index` has settled (value, failure, or skip).
    pub fn is_settled(&self, index: usize) -> bool {
        !matches!(self.slots[index], Slot::Open { .. })
    }

    /// True if `attempt` is cell `index`'s current attempt and the cell
    /// has not settled: the only claim whose outcome or loss still counts.
    pub fn is_current(&self, index: usize, attempt: u32) -> bool {
        matches!(self.slots[index], Slot::Open { attempt: a } if a == attempt)
    }

    /// The next cell to run, or `None` when nothing is claimable right
    /// now: other cells may still be in flight, and a panic among them
    /// can requeue one. Once fail-fast stops the sweep the queue stays
    /// empty, so no claim succeeds.
    pub fn claim(&mut self) -> Option<(usize, u32)> {
        while let Some((index, attempt)) = self.queue.pop_front() {
            if self.is_current(index, attempt) {
                return Some((index, attempt));
            }
        }
        None
    }

    /// Settles one attempt of cell `index`: `Ok` with its value, or `Err`
    /// with the panic message. An outcome for any attempt but the cell's
    /// current one is a [`Settled::Duplicate`].
    pub fn settle(&mut self, index: usize, attempt: u32, outcome: Result<R, String>) -> Settled {
        if !self.is_current(index, attempt) {
            return Settled::Duplicate;
        }
        match outcome {
            Ok(value) => self.finish(index, Slot::Done(value)),
            Err(_) if attempt < self.policy.max_retries && !self.stopped => {
                self.slots[index] = Slot::Open { attempt: attempt + 1 };
                self.queue.push_front((index, attempt + 1));
                Settled::Retry
            }
            Err(cause) => self.fail(index, cause, attempt + 1),
        }
    }

    /// Records a final failure for cell `index` after `attempts`
    /// attempts. Under fail-fast this stops the sweep: every queued cell
    /// is skipped and no further claim succeeds.
    pub fn fail(&mut self, index: usize, cause: String, attempts: u32) -> Settled {
        if self.is_settled(index) {
            return Settled::Duplicate;
        }
        let settled = self.finish(index, Slot::Failed { cause, attempts });
        if !self.policy.keep_going && !self.stopped {
            self.stopped = true;
            while let Some((queued, _)) = self.queue.pop_front() {
                self.skip(queued);
            }
        }
        settled
    }

    /// Hands back a claimed cell whose attempt produced no outcome (its
    /// lease was lost). It is queued again at the same attempt — or
    /// skipped, if fail-fast has stopped the sweep meanwhile. Releasing a
    /// claim that is no longer [current](CellBook::is_current) is a no-op.
    pub fn release(&mut self, index: usize, attempt: u32) {
        if !self.is_current(index, attempt) {
            return;
        }
        if self.stopped {
            self.skip(index);
        } else {
            self.queue.push_back((index, attempt));
        }
    }

    /// The per-cell results in index order, naming failed cells with
    /// `label(index)`. Call once every cell has settled.
    pub fn results(self, label: impl Fn(usize) -> String) -> Vec<Result<R, CellFailure>> {
        self.slots
            .into_iter()
            .enumerate()
            .map(|(index, slot)| match slot {
                Slot::Done(value) => Ok(value),
                Slot::Failed { cause, attempts } => {
                    Err(CellFailure { index, spec: label(index), cause, attempts })
                }
                Slot::Open { .. } => unreachable!("cell {index} never settled"),
            })
            .collect()
    }

    fn finish(&mut self, index: usize, slot: Slot<R>) -> Settled {
        self.slots[index] = slot;
        self.settled += 1;
        self.done += 1;
        Settled::Final { done: self.done }
    }

    fn skip(&mut self, index: usize) {
        if !self.is_settled(index) {
            self.slots[index] =
                Slot::Failed { cause: "skipped (fail-fast)".to_string(), attempts: 0 };
            self.settled += 1;
        }
    }
}

/// Renders an unwind payload; panics almost always carry a message.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Locks ignoring poison: the book holds plain data, and the panic that
/// poisoned a lock has already been converted to a [`CellFailure`].
fn lock_tolerant<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Maps `f` over `items` under panic isolation with retries, on up to
/// `available_parallelism` host threads draining one [`CellBook`]. With
/// one thread (or one item) the cells run inline on the calling thread.
///
/// `spec_label(i, item)` names cell `i` for failure records;
/// `f(item, attempt)` runs one attempt (attempt 0 first); `on_done`
/// ticks after every *settled* cell — success or final failure, but not
/// fail-fast skips, so progress counts real work. With a store-backed
/// study each tick marks durable progress: a killed sweep restarts from
/// roughly the last tick printed, not from zero.
pub fn supervised_map<T, R, L, F, P>(
    items: &[T],
    policy: SweepPolicy,
    spec_label: L,
    f: F,
    on_done: P,
) -> Vec<Result<R, CellFailure>>
where
    T: Sync,
    R: Send,
    L: Fn(usize, &T) -> String + Sync,
    F: Fn(&T, u32) -> R + Sync,
    P: Fn(usize, usize) + Sync,
{
    let total = items.len();
    let book = Mutex::new(CellBook::new(total, policy));
    // Signalled on every settle: a retry made a cell claimable, or the
    // last cell settled.
    let settled = Condvar::new();
    let work = || loop {
        let claimed = {
            let mut b = lock_tolerant(&book);
            loop {
                if let Some(claim) = b.claim() {
                    break Some(claim);
                }
                if b.is_done() {
                    break None;
                }
                b = settled.wait(b).unwrap_or_else(PoisonError::into_inner);
            }
        };
        let Some((i, attempt)) = claimed else { return };
        let outcome = catch_unwind(AssertUnwindSafe(|| f(&items[i], attempt)));
        let mut b = lock_tolerant(&book);
        if let Settled::Final { done } = b.settle(i, attempt, outcome.map_err(panic_message)) {
            on_done(done, total);
        }
        settled.notify_all();
    };

    let workers = std::thread::available_parallelism()
        .map(|x| x.get())
        .unwrap_or(1)
        .min(total.max(1));
    if workers <= 1 {
        work();
    } else {
        let cpus = if std::env::var_os("COCHAR_NO_PIN").is_none() {
            affinity::allowed_cpus()
        } else {
            Vec::new()
        };
        std::thread::scope(|s| {
            for w in 0..workers {
                let (cpus, work) = (&cpus, &work);
                s.spawn(move || {
                    if let Some(&cpu) = cpus.get(w % cpus.len().max(1)) {
                        // Best-effort: an unpinnable worker still sweeps.
                        affinity::pin_to(cpu);
                    }
                    work();
                });
            }
        });
    }
    let book = book.into_inner().unwrap_or_else(PoisonError::into_inner);
    book.results(|i| spec_label(i, &items[i]))
}

/// Maps `f` over `items` using up to `available_parallelism` host threads,
/// preserving order. Runs inline for one item or one host CPU.
///
/// A panicking item still fails the whole map (callers of this simple
/// API expect infallible cells), but only after every other cell has
/// settled — completed cells reach the run store either way.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let label = |i, _: &T| format!("cell {i}");
    supervised_map(items, SweepPolicy::default(), label, |item, _| f(item), |_, _| {})
        .into_iter()
        .map(|r| {
            r.unwrap_or_else(|f| {
                panic!("sweep cell {} failed after {} attempt(s): {}", f.spec, f.attempts, f.cause)
            })
        })
        .collect()
}

/// Worker→CPU pinning through `sched_{get,set}affinity(2)`, declared
/// directly against the C library (the workspace deliberately carries no
/// `libc` crate). Best-effort everywhere: any failure — syscall error,
/// restricted cpuset, non-Linux host — degrades to unpinned workers.
#[cfg(target_os = "linux")]
pub mod affinity {
    /// Bits in a kernel `cpu_set_t` (glibc default: 1024 CPUs).
    const SET_WORDS: usize = 1024 / 64;

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    /// CPU indices the calling process may run on, in ascending order.
    /// Empty when the query fails (callers then skip pinning).
    pub fn allowed_cpus() -> Vec<usize> {
        let mut mask = [0u64; SET_WORDS];
        let rc = unsafe {
            sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr())
        };
        if rc != 0 {
            return Vec::new();
        }
        (0..SET_WORDS * 64).filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1).collect()
    }

    /// Pins the calling thread to `cpu`. Returns whether the kernel
    /// accepted the new mask.
    pub fn pin_to(cpu: usize) -> bool {
        if cpu >= SET_WORDS * 64 {
            return false;
        }
        let mut mask = [0u64; SET_WORDS];
        mask[cpu / 64] |= 1 << (cpu % 64);
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
    }
}

/// Stub for non-Linux hosts: nothing is ever pinned.
#[cfg(not(target_os = "linux"))]
pub mod affinity {
    /// Always empty: pinning is unsupported here.
    pub fn allowed_cpus() -> Vec<usize> {
        Vec::new()
    }

    /// Always `false`: pinning is unsupported here.
    pub fn pin_to(_cpu: usize) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};

    use proptest::prelude::*;

    use super::*;

    /// The failed cells of a sweep, in input order.
    fn failures<R>(results: &[Result<R, CellFailure>]) -> Vec<&CellFailure> {
        results.iter().filter_map(|r| r.as_ref().err()).collect()
    }

    /// On Linux the process must be allowed on at least one CPU, and
    /// pinning a thread to an allowed CPU must succeed. Run on a scratch
    /// thread so the pin does not outlive the test.
    #[test]
    #[cfg(target_os = "linux")]
    fn pinning_to_an_allowed_cpu_succeeds() {
        let cpus = affinity::allowed_cpus();
        assert!(!cpus.is_empty(), "process has no allowed CPUs?");
        let first = cpus[0];
        let pinned = std::thread::spawn(move || affinity::pin_to(first))
            .join()
            .expect("pin thread panicked");
        assert!(pinned, "pinning to allowed CPU {first} failed");
        assert!(!affinity::pin_to(usize::MAX), "out-of-range CPU must be rejected");
    }

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(&items, |&x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input() {
        let items: Vec<u64> = vec![];
        let out = parallel_map(&items, |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item() {
        let out = parallel_map(&[7], |&x| x + 1);
        assert_eq!(out, vec![8]);
    }

    #[test]
    fn progress_ticks_once_per_item_and_reaches_total() {
        let max_seen = AtomicUsize::new(0);
        let ticks = AtomicUsize::new(0);
        let items: Vec<u64> = (0..53).collect();
        let report = supervised_map(
            &items,
            SweepPolicy::default(),
            |i, _| format!("cell {i}"),
            |&x, _| x + 1,
            |completed, total| {
                assert_eq!(total, 53);
                assert!(completed >= 1 && completed <= total);
                ticks.fetch_add(1, Ordering::Relaxed);
                max_seen.fetch_max(completed, Ordering::Relaxed);
            },
        );
        assert!(report.iter().all(Result::is_ok));
        assert_eq!(report.len(), 53);
        assert_eq!(ticks.load(Ordering::Relaxed), 53);
        assert_eq!(max_seen.load(Ordering::Relaxed), 53);
    }

    #[test]
    fn progress_sequential_path_matches() {
        let ticks = AtomicUsize::new(0);
        let report = supervised_map(
            &[9u64],
            SweepPolicy::default(),
            |i, _| format!("cell {i}"),
            |&x, _| x,
            |c, t| {
                assert_eq!((c, t), (1, 1));
                ticks.fetch_add(1, Ordering::Relaxed);
            },
        );
        assert_eq!(*report[0].as_ref().unwrap(), 9);
        assert_eq!(ticks.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn heavy_closure_runs_once_per_item() {
        let calls = AtomicUsize::new(0);
        let items: Vec<u64> = (0..37).collect();
        let out = parallel_map(&items, |&x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out.len(), 37);
        assert_eq!(calls.load(Ordering::Relaxed), 37);
    }

    #[test]
    fn one_panicking_cell_does_not_sink_the_sweep() {
        let items: Vec<u64> = (0..40).collect();
        let report = supervised_map(
            &items,
            SweepPolicy::default(),
            |_, &x| format!("item {x}"),
            |&x, _| {
                if x == 13 {
                    panic!("unlucky cell");
                }
                x * 2
            },
            |_, _| {},
        );
        assert_eq!(failures(&report).len(), 1);
        let fail = failures(&report)[0];
        assert_eq!((fail.index, fail.attempts), (13, 1));
        assert_eq!(fail.spec, "item 13");
        assert!(fail.cause.contains("unlucky"), "{}", fail.cause);
        for (i, r) in report.iter().enumerate() {
            if i != 13 {
                assert_eq!(*r.as_ref().unwrap(), items[i] * 2);
            }
        }
    }

    #[test]
    fn retries_rerun_the_cell_with_the_attempt_number() {
        let calls = AtomicUsize::new(0);
        let report = supervised_map(
            &[5u64],
            SweepPolicy { max_retries: 2, keep_going: true },
            |i, _| format!("cell {i}"),
            |&x, attempt| {
                calls.fetch_add(1, Ordering::Relaxed);
                if attempt < 2 {
                    panic!("flaky (attempt {attempt})");
                }
                x + u64::from(attempt)
            },
            |_, _| {},
        );
        assert_eq!(calls.load(Ordering::Relaxed), 3);
        assert_eq!(*report[0].as_ref().unwrap(), 7);
    }

    #[test]
    fn exhausted_retries_report_the_last_cause_and_attempt_count() {
        let report = supervised_map(
            &[1u64],
            SweepPolicy { max_retries: 1, keep_going: true },
            |i, _| format!("cell {i}"),
            |_, attempt| -> u64 { panic!("always broken (attempt {attempt})") },
            |_, _| {},
        );
        let fail = failures(&report)[0];
        assert_eq!(fail.attempts, 2);
        assert!(fail.cause.contains("attempt 1"), "{}", fail.cause);
    }

    #[test]
    fn fail_fast_skips_unclaimed_cells() {
        // Every cell fails, so under fail-fast the sweep must stop early;
        // cells are either real failures (attempts 1) or skips
        // (attempts 0), never successes.
        let items: Vec<u64> = (0..200).collect();
        let report = supervised_map(
            &items,
            SweepPolicy { max_retries: 0, keep_going: false },
            |i, _| format!("cell {i}"),
            |_, _| -> u64 { panic!("doomed") },
            |_, _| {},
        );
        assert_eq!(failures(&report).len(), 200);
        let skipped = failures(&report).iter().filter(|f| f.cause.contains("skipped")).count();
        assert!(skipped > 0, "fail-fast never engaged over 200 doomed cells");
        for f in failures(&report) {
            assert!(f.attempts <= 1);
        }
    }

    #[test]
    fn progress_ticks_count_failures_but_not_skips() {
        let ticks = AtomicUsize::new(0);
        let items: Vec<u64> = (0..30).collect();
        let report = supervised_map(
            &items,
            SweepPolicy::default(),
            |i, _| format!("cell {i}"),
            |&x, _| {
                if x % 3 == 0 {
                    panic!("every third");
                }
                x
            },
            |_, _| {
                ticks.fetch_add(1, Ordering::Relaxed);
            },
        );
        assert_eq!(failures(&report).len(), 10);
        assert_eq!(ticks.load(Ordering::Relaxed), 30, "every settled cell ticks");
    }

    #[test]
    #[should_panic(expected = "sweep cell cell 3 failed")]
    fn simple_api_still_fails_loudly_on_a_panicking_cell() {
        let items: Vec<u64> = (0..8).collect();
        let _ = parallel_map(&items, |&x| {
            if x == 3 {
                panic!("boom");
            }
            x
        });
    }

    #[test]
    fn released_claims_requeue_until_fail_fast_skips_them() {
        let mut book: CellBook<()> =
            CellBook::new(3, SweepPolicy { max_retries: 0, keep_going: false });
        let (a, b, c) = (book.claim().unwrap(), book.claim().unwrap(), book.claim().unwrap());
        assert_eq!((a, b, c), ((0, 0), (1, 0), (2, 0)));
        book.release(1, 0);
        assert_eq!(book.claim(), Some((1, 0)), "a lost lease is claimable again");
        // A transport-level failure is final and trips fail-fast.
        assert_eq!(book.fail(0, "lease lost".into(), 0), Settled::Final { done: 1 });
        assert_eq!(book.claim(), None);
        // Claims still in flight when the sweep stopped: one is lost (a
        // skip), the other reports late and still counts.
        book.release(1, 0);
        assert_eq!(book.settle(2, 0, Ok(())), Settled::Final { done: 2 });
        assert_eq!(book.settle(2, 0, Ok(())), Settled::Duplicate);
        assert!(book.is_done());
        let results = book.results(|i| format!("cell {i}"));
        let skipped = results[1].as_ref().unwrap_err();
        assert_eq!((skipped.cause.as_str(), skipped.attempts), ("skipped (fail-fast)", 0));
        assert!(results[2].is_ok());
    }

    #[test]
    fn a_cell_settled_while_queued_is_never_claimed() {
        let mut book = CellBook::new(2, SweepPolicy::default());
        assert_eq!(book.settle(0, 0, Ok(7u8)), Settled::Final { done: 1 });
        assert_eq!(book.claim(), Some((1, 0)));
        assert_eq!(book.claim(), None);
        assert_eq!(book.unsettled(), 1);
    }

    #[test]
    fn stale_panic_outcomes_are_dismissed() {
        let mut book: CellBook<()> =
            CellBook::new(1, SweepPolicy { max_retries: 2, keep_going: true });
        assert_eq!(book.claim(), Some((0, 0)));
        assert_eq!(book.settle(0, 0, Err("boom".into())), Settled::Retry);
        // A duplicated panic frame, or the late report of a lost lease.
        assert_eq!(book.settle(0, 0, Err("boom".into())), Settled::Duplicate);
        book.release(0, 0);
        assert!(!book.is_current(0, 0) && book.is_current(0, 1));
        assert_eq!(book.claim(), Some((0, 1)));
        assert_eq!(book.claim(), None, "the retry is queued once");
    }

    /// Whether attempt `attempt` of cell `i` panics in [`drive_book`]: a
    /// pure function of its inputs, like a reseeded simulation.
    fn panics(seed: u64, i: usize, attempt: u32) -> bool {
        let mut h = seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^= u64::from(attempt).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 31)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (h ^ (h >> 29)).is_multiple_of(3)
    }

    /// Drives one book through a random interleaving from `lanes`
    /// concurrent claimants, checking the scheduler contract at every
    /// step. Besides claims and settles, a claim can be lost (released)
    /// and still report late, and any outcome already delivered can be
    /// delivered again, as a duplicated frame or an unacked resend would.
    fn drive_book(seed: u64, total: usize, lanes: usize, policy: SweepPolicy) {
        let mut rng = proptest::TestRng::from_label(&format!("{seed}"));
        let mut book = CellBook::new(total, policy);
        let mut in_flight: Vec<(usize, u32)> = Vec::new();
        // Claims released as lost whose worker may still report.
        let mut lost: Vec<(usize, u32)> = Vec::new();
        // Outcomes delivered so far, for replays.
        let mut delivered: Vec<(usize, u32)> = Vec::new();
        // Each cell's current attempt, as the book should see it.
        let mut current = vec![0u32; total];
        let mut finals = vec![0u32; total];
        let mut ticks = 0;
        let mut stopped = false;
        while !book.is_done() {
            let roll = rng.below(8);
            if in_flight.len() < lanes && (in_flight.is_empty() || roll < 3) {
                match book.claim() {
                    Some((i, attempt)) => {
                        assert!(!stopped, "cell {i} claimed after fail-fast stopped the sweep");
                        assert_eq!(attempt, current[i], "only the current attempt is claimed");
                        assert!(!in_flight.contains(&(i, attempt)), "claim handed out twice");
                        in_flight.push((i, attempt));
                    }
                    // Lost claims were requeued, so they count as claimable.
                    None => assert!(
                        !in_flight.is_empty(),
                        "nothing claimable and nothing in flight, yet not done"
                    ),
                }
                continue;
            }
            let (i, attempt) = match roll {
                3 if !in_flight.is_empty() => {
                    let claim = in_flight.swap_remove(rng.below(in_flight.len() as u64) as usize);
                    book.release(claim.0, claim.1);
                    lost.push(claim);
                    continue;
                }
                4 if !lost.is_empty() => lost.swap_remove(rng.below(lost.len() as u64) as usize),
                5 if !delivered.is_empty() => {
                    let (i, attempt) = delivered[rng.below(delivered.len() as u64) as usize];
                    assert!(!book.is_current(i, attempt), "a delivered outcome stays stale");
                    book.release(i, attempt);
                    (i, attempt)
                }
                _ if !in_flight.is_empty() => {
                    in_flight.swap_remove(rng.below(in_flight.len() as u64) as usize)
                }
                _ => lost.swap_remove(rng.below(lost.len() as u64) as usize),
            };
            let counts = book.is_current(i, attempt);
            let failed = panics(seed, i, attempt);
            let outcome = if failed { Err(format!("panic {attempt}")) } else { Ok(i) };
            delivered.push((i, attempt));
            match book.settle(i, attempt, outcome) {
                Settled::Final { done } => {
                    assert!(counts, "cell {i} settled by stale attempt {attempt}");
                    finals[i] += 1;
                    ticks += 1;
                    assert_eq!(done, ticks, "ticks count settles one by one");
                    stopped |= failed && !policy.keep_going;
                }
                Settled::Retry => {
                    assert!(counts && failed && attempt < policy.max_retries);
                    current[i] += 1;
                }
                Settled::Duplicate => assert!(!counts, "cell {i} attempt {attempt} dismissed"),
            }
        }
        let results = book.results(|i| format!("cell {i}"));
        assert_eq!(results.len(), total);
        let mut non_skip = 0;
        for (i, r) in results.iter().enumerate() {
            assert!(current[i] <= policy.max_retries, "cell {i} ran too many attempts");
            match r {
                Ok(v) => assert_eq!(*v, i, "results come back in input order"),
                Err(f) => {
                    assert_eq!(f.index, i);
                    assert_eq!(f.spec, format!("cell {i}"));
                    if f.attempts == 0 {
                        assert_eq!(f.cause, "skipped (fail-fast)");
                        assert!(!policy.keep_going, "keep-going never skips");
                        assert_eq!(finals[i], 0);
                        continue;
                    }
                    assert_eq!(f.attempts, current[i] + 1);
                }
            }
            assert_eq!(finals[i], 1, "cell {i} settles exactly once");
            non_skip += 1;
        }
        assert_eq!(ticks, non_skip, "one on_done tick per non-skip settle");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn book_settles_every_cell_once_under_random_interleavings(
            seed in any::<u64>(),
            total in 0usize..40,
            lanes in 1usize..6,
            max_retries in 0u32..4,
        ) {
            for keep_going in [true, false] {
                drive_book(seed, total, lanes, SweepPolicy { max_retries, keep_going });
            }
        }
    }
}
