//! Crash-proof campaign runtime: silent panic capture and a work-stealing
//! scheduler whose results stay index-ordered.
//!
//! Long differential campaigns (FP4's line-rate fuzzing, Gauntlet's
//! overnight runs) win by *surviving*: a backend crash on one mutant must
//! not unwind the whole process, and a slow shard must not idle every
//! other worker. This module supplies the two mechanisms the campaign
//! layers build on:
//!
//! - [`catch_silent`] runs one closure under `catch_unwind` with the
//!   default panic-hook output suppressed, returning the payload as a
//!   per-item [`WorkerPanic`] instead of aborting — the primitive behind
//!   the `backend_panic` verdict class.
//! - [`run_stealing`] / [`run_stealing_observed`] replace fixed-chunk
//!   sharding with a chunked-deque stealing pool. Each worker starts with
//!   a contiguous chunk, pops from its own front, and steals the back
//!   half of a victim's deque when idle. **Scheduling is dynamic but the
//!   result is not**: every item's output is written into the slot of its
//!   original index, so any report that is a pure function of the ordered
//!   results is identical across worker counts and steal interleavings.
//!
//! [`RuntimeOptions`] carries the crash-proofing knobs (checkpoint
//! directory and cadence, resume, wall-clock budget) from the CLI down
//! into the campaign drivers, and [`run_resumable`] is the one
//! resume/checkpoint/budget loop every per-task campaign runs on.

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Mutex, Once};
use std::time::{Duration, Instant};

use crate::snapshot;

/// A panic captured from one work item: the stringified payload, which for
/// the deterministic hostile trap (and any `panic!` with a message) is a
/// stable, replayable description of the crash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPanic {
    /// The panic payload rendered as text (`String` / `&str` payloads
    /// verbatim; anything else becomes a fixed placeholder).
    pub payload: String,
}

/// Render a panic payload as text.
pub fn panic_payload(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "non-string panic payload".to_string()
    }
}

thread_local! {
    /// True while this thread is inside [`catch_silent`]: the chained
    /// panic hook stays quiet so an *expected* backend crash does not spam
    /// stderr with a captured-and-handled backtrace.
    static SUPPRESS_PANIC_OUTPUT: Cell<bool> = const { Cell::new(false) };
}

/// Install (once, process-wide) a panic hook that suppresses output for
/// panics captured by [`catch_silent`] and defers to the previous hook for
/// everything else — a genuine crash still prints normally.
fn install_silent_hook() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !SUPPRESS_PANIC_OUTPUT.with(Cell::get) {
                prev(info);
            }
        }));
    });
}

/// Run `f` under `catch_unwind`, capturing a panic as [`WorkerPanic`]
/// without letting the panic hook print.
///
/// The `AssertUnwindSafe` is a contract with the caller: everything `f`
/// touches must either be owned by this one invocation or be discarded by
/// the caller on `Err` (campaign drivers treat a panicking evaluation as
/// terminal for the state it touched — e.g. a cached pipeline is never
/// reused after its backend panicked).
pub fn catch_silent<R>(f: impl FnOnce() -> R) -> Result<R, WorkerPanic> {
    install_silent_hook();
    SUPPRESS_PANIC_OUTPUT.with(|s| s.set(true));
    let out = catch_unwind(AssertUnwindSafe(f));
    SUPPRESS_PANIC_OUTPUT.with(|s| s.set(false));
    out.map_err(|p| WorkerPanic {
        payload: panic_payload(p),
    })
}

/// Crash-proofing options threaded from the CLI into campaign drivers.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RuntimeOptions {
    /// Directory for checkpoint snapshots and the heartbeat file
    /// (`--checkpoint DIR` / `--resume DIR`). `None` disables
    /// checkpointing.
    pub checkpoint_dir: Option<PathBuf>,
    /// Checkpoint cadence (`--every N`): a snapshot every N completed
    /// units (evaluations for campaigns, merge rounds for greybox).
    /// `0` is normalized to 1.
    pub checkpoint_every: usize,
    /// True for `--resume DIR`: load the latest good snapshot from
    /// `checkpoint_dir` before starting, degrading gracefully (fall back
    /// to the previous snapshot, then to a fresh start) on corruption.
    pub resume: bool,
    /// Wall-clock budget in seconds (`--budget-secs S`). When it expires
    /// the round ends cleanly and the report is marked truncated.
    pub budget_secs: Option<u64>,
}

/// The default pool size: the machine's available parallelism (4 when it
/// cannot be queried).
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4)
}

impl RuntimeOptions {
    /// The checkpoint cadence with `0` normalized to 1.
    pub fn effective_every(&self) -> usize {
        self.checkpoint_every.max(1)
    }

    /// The absolute deadline implied by the budget, anchored at `start`.
    pub fn deadline(&self, start: Instant) -> Option<Instant> {
        self.budget_secs.map(|s| start + Duration::from_secs(s))
    }
}

/// Steal the back half of the first non-empty victim deque (scanning
/// cyclically from `me + 1`), queue all but the first stolen item locally,
/// and return that first item.
fn steal<T>(deques: &[Mutex<VecDeque<(usize, T)>>], me: usize) -> Option<(usize, T)> {
    let n = deques.len();
    for off in 1..n {
        let victim = (me + off) % n;
        let stolen = {
            let mut v = deques[victim].lock().expect("deque lock");
            let len = v.len();
            if len == 0 {
                continue;
            }
            // Owner pops from the front; we take the back half, keeping
            // contention windows short and work contiguous on both sides.
            v.split_off(len - len.div_ceil(2))
        };
        let mut it = stolen.into_iter();
        let first = it.next();
        deques[me].lock().expect("deque lock").extend(it);
        return first;
    }
    None
}

/// Run every item through `f` on a work-stealing pool, writing each result
/// into the slot of the item's original index and invoking `observe` on
/// the coordinating thread as each item completes (the checkpoint hook).
///
/// - A panicking `f` yields `Some(Err(WorkerPanic))` for that item only;
///   all other items still run.
/// - When `deadline` passes, workers stop cleanly between items; items
///   that never started stay `None` (the budget-truncation signal).
/// - `observe(index, &result)` is called exactly once per completed item,
///   in **completion** order (not index order) — callers that persist
///   progress must key by index, as the campaign checkpoints do.
pub fn run_stealing_observed<T, R, F, O>(
    items: Vec<T>,
    workers: usize,
    deadline: Option<Instant>,
    f: F,
    mut observe: O,
) -> Vec<Option<Result<R, WorkerPanic>>>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
    O: FnMut(usize, &Result<R, WorkerPanic>),
{
    let total = items.len();
    let mut results: Vec<Option<Result<R, WorkerPanic>>> = Vec::new();
    results.resize_with(total, || None);
    if total == 0 {
        return results;
    }
    let workers = workers.clamp(1, total);

    // Seed each deque with a contiguous chunk — the same initial split the
    // legacy fixed sharder used, so the no-steal fast path touches each
    // cache line once.
    let chunk = total.div_ceil(workers);
    let mut deques: Vec<Mutex<VecDeque<(usize, T)>>> = Vec::with_capacity(workers);
    let mut numbered: VecDeque<(usize, T)> = items.into_iter().enumerate().collect();
    for _ in 0..workers {
        let rest = numbered.split_off(chunk.min(numbered.len()));
        deques.push(Mutex::new(std::mem::replace(&mut numbered, rest)));
    }

    let stop = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel::<(usize, Result<R, WorkerPanic>)>();
    std::thread::scope(|scope| {
        for w in 0..workers {
            let tx = tx.clone();
            let deques = &deques;
            let stop = &stop;
            let f = &f;
            scope.spawn(move || loop {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                if let Some(dl) = deadline {
                    if Instant::now() >= dl {
                        stop.store(true, Ordering::Relaxed);
                        break;
                    }
                }
                // Pop under a scoped lock: the guard must drop before
                // `steal` runs, which re-locks this worker's own deque to
                // stash the stolen surplus.
                let own = deques[w].lock().expect("deque lock").pop_front();
                let job = own.or_else(|| steal(deques, w));
                let Some((idx, item)) = job else { break };
                let out = catch_silent(|| f(idx, item));
                if tx.send((idx, out)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        for (idx, res) in rx {
            observe(idx, &res);
            results[idx] = Some(res);
        }
    });
    results
}

/// [`run_stealing_observed`] without a deadline or observer: every item
/// runs, so the result vector is dense — index-ordered per-item
/// `Result`s.
pub fn run_stealing<T, R, F>(items: Vec<T>, workers: usize, f: F) -> Vec<Result<R, WorkerPanic>>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    run_stealing_observed(items, workers, None, f, |_, _| {})
        .into_iter()
        .map(|slot| slot.expect("no deadline: every item completes"))
        .collect()
}

/// The checkpoint codec of one campaign's per-task record. The engine
/// never builds or parses a snapshot line itself, so each campaign kind
/// keeps its own on-disk line format.
pub trait RecordCodec: Sized {
    /// The snapshot line for this record of task `idx`; `None` leaves the
    /// task out of the checkpoint, so a resumed run re-evaluates it.
    fn encode(&self, idx: usize) -> Option<String>;

    /// Inverse of [`RecordCodec::encode`]: the task index and record, or
    /// `None` for a malformed or foreign line.
    fn decode(line: &str) -> Option<(usize, Self)>;
}

/// The identity of one resumable campaign: snapshot kind, configuration
/// fingerprint, task count, pool size, and the crash-proofing options.
#[derive(Debug, Clone, Copy)]
pub struct Campaign<'a> {
    /// Snapshot kind (`<dir>/<kind>.snapshot`, `status.json`'s `kind`).
    pub kind: &'a str,
    /// Fingerprint of the result-relevant configuration.
    pub fingerprint: u64,
    /// Number of tasks, indexed `0..total`.
    pub total: usize,
    /// Worker threads.
    pub workers: usize,
    /// Checkpoint directory and cadence, resume flag, wall-clock budget.
    pub runtime: &'a RuntimeOptions,
}

/// What [`run_resumable`] hands back.
#[derive(Debug)]
pub struct Resumed<R, O> {
    /// The record of every completed task (restored or fresh), in task
    /// index order.
    pub records: Vec<R>,
    /// The outcomes this process evaluated, in task index order.
    pub fresh: Vec<O>,
    /// Tasks left unstarted because the wall-clock budget expired.
    pub truncated: usize,
}

/// Run a campaign's tasks crash-proof: restore completed records from the
/// latest good snapshot (malformed lines are warned about and re-run),
/// evaluate the rest on the work-stealing pool under the budget deadline,
/// and checkpoint plus heartbeat every `effective_every()` completions and
/// once more at the end.
///
/// `evaluate(idx)` computes task `idx`; `record` projects an outcome onto
/// its checkpointed record; `death(idx, payload)` stands in for a task
/// whose worker panicked past every per-case guard.
pub fn run_resumable<R, O, E, P, D>(
    campaign: &Campaign<'_>,
    evaluate: E,
    record: P,
    death: D,
) -> Resumed<R, O>
where
    R: RecordCodec,
    O: Send,
    E: Fn(usize) -> O + Sync,
    P: Fn(&O) -> R,
    D: Fn(usize, &str) -> O,
{
    let Campaign {
        kind,
        fingerprint,
        total,
        workers,
        runtime,
    } = *campaign;
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(total).collect();
    if let (true, Some(dir)) = (runtime.resume, &runtime.checkpoint_dir) {
        let loaded = snapshot::load_latest(dir, kind, fingerprint);
        for w in &loaded.warnings {
            eprintln!("warning: {w}");
        }
        for line in loaded.lines.unwrap_or_default() {
            match R::decode(&line) {
                Some((idx, r)) if idx < total => slots[idx] = Some(r),
                _ => eprintln!("warning: ignoring malformed {kind} checkpoint line"),
            }
        }
    }
    let pending: Vec<usize> = (0..total).filter(|&i| slots[i].is_none()).collect();

    let every = runtime.effective_every();
    let mut since_save = 0usize;
    let results = run_stealing_observed(
        pending.clone(),
        workers,
        runtime.deadline(Instant::now()),
        |_, idx| evaluate(idx),
        |i, result| {
            let idx = pending[i];
            slots[idx] = Some(match result {
                Ok(outcome) => record(outcome),
                Err(p) => record(&death(idx, &p.payload)),
            });
            since_save += 1;
            if since_save >= every {
                since_save = 0;
                checkpoint(campaign, &slots, false);
            }
        },
    );

    let mut fresh = Vec::new();
    let mut truncated = 0usize;
    for (i, result) in results.into_iter().enumerate() {
        match result {
            Some(Ok(outcome)) => fresh.push(outcome),
            Some(Err(p)) => fresh.push(death(pending[i], &p.payload)),
            None => truncated += 1,
        }
    }
    checkpoint(campaign, &slots, truncated > 0);
    Resumed {
        records: slots.into_iter().flatten().collect(),
        fresh,
        truncated,
    }
}

/// Save every encodable completed record (atomic write + rotation happen
/// inside [`snapshot::save`]) and refresh the heartbeat; a no-op without a
/// checkpoint directory.
fn checkpoint<R: RecordCodec>(campaign: &Campaign<'_>, slots: &[Option<R>], truncated: bool) {
    let Some(dir) = campaign.runtime.checkpoint_dir.as_deref() else {
        return;
    };
    let lines: Vec<String> = slots
        .iter()
        .enumerate()
        .filter_map(|(i, r)| r.as_ref()?.encode(i))
        .collect();
    if let Err(e) = snapshot::save(dir, campaign.kind, campaign.fingerprint, &lines) {
        eprintln!("warning: failed to write {} checkpoint: {e}", campaign.kind);
    }
    let completed = slots.iter().flatten().count();
    snapshot::write_heartbeat(dir, campaign.kind, completed, campaign.total, truncated);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_index_ordered_for_any_worker_count() {
        let expected: Vec<usize> = (0..97).map(|i| i * 3).collect();
        for workers in [1, 2, 3, 8, 97, 200] {
            let got: Vec<usize> = run_stealing((0..97).collect(), workers, |_, i: usize| i * 3)
                .into_iter()
                .map(|r| r.expect("no panics"))
                .collect();
            assert_eq!(got, expected, "workers={workers}");
        }
    }

    #[test]
    fn a_panicking_item_fails_alone() {
        let results = run_stealing((0..16).collect(), 4, |_, i: usize| {
            if i == 5 {
                panic!("boom at {i}");
            }
            i
        });
        for (i, r) in results.iter().enumerate() {
            if i == 5 {
                let p = r.as_ref().expect_err("item 5 panicked");
                assert_eq!(p.payload, "boom at 5");
            } else {
                assert_eq!(*r.as_ref().expect("others complete"), i);
            }
        }
    }

    #[test]
    fn an_expired_deadline_leaves_items_unstarted() {
        let past = Instant::now() - Duration::from_secs(1);
        let results =
            run_stealing_observed((0..8).collect(), 2, Some(past), |_, i: usize| i, |_, _| {});
        assert!(results.iter().all(Option::is_none), "budget already spent");
    }

    #[test]
    fn observer_sees_every_item_exactly_once() {
        let mut seen = vec![0usize; 40];
        run_stealing_observed(
            (0..40).collect(),
            3,
            None,
            |_, i: usize| i,
            |idx, res| {
                assert!(res.is_ok());
                seen[idx] += 1;
            },
        );
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn uneven_items_still_fill_every_slot() {
        // Items with wildly different costs exercise the steal path.
        let results = run_stealing((0..64).collect(), 4, |_, i: usize| {
            if i < 4 {
                std::thread::sleep(Duration::from_millis(20));
            }
            i + 1
        });
        let got: Vec<usize> = results.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(got, (1..=64).collect::<Vec<_>>());
    }

    /// A toy record: `"<idx> <value>"`, odd values never checkpointed.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Square(usize);

    impl RecordCodec for Square {
        fn encode(&self, idx: usize) -> Option<String> {
            self.0
                .is_multiple_of(2)
                .then(|| format!("{idx} {}", self.0))
        }
        fn decode(line: &str) -> Option<(usize, Self)> {
            let (idx, value) = line.split_once(' ')?;
            Some((idx.parse().ok()?, Square(value.parse().ok()?)))
        }
    }

    fn campaign_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("druzhba-engine-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn malformed_checkpoint_lines_are_rerun_not_trusted() {
        let dir = campaign_dir("malformed");
        let lines = ["0 0", "1 one", "garbage", "9 81"].map(String::from);
        snapshot::save(&dir, "toy", 7, &lines).unwrap();
        let runtime = RuntimeOptions {
            checkpoint_dir: Some(dir.clone()),
            resume: true,
            ..RuntimeOptions::default()
        };
        let campaign = Campaign {
            kind: "toy",
            fingerprint: 7,
            total: 4,
            workers: 2,
            runtime: &runtime,
        };
        let evaluated = Mutex::new(Vec::new());
        let out = run_resumable(
            &campaign,
            |i| {
                evaluated.lock().unwrap().push(i);
                i * i
            },
            |&v| Square(v),
            |_, _| unreachable!("no worker dies"),
        );
        let mut evaluated = evaluated.into_inner().unwrap();
        evaluated.sort_unstable();
        // Only task 0 had a well-formed in-range line; task 1's corrupt
        // value and the out-of-range task 9 are recomputed, not trusted.
        assert_eq!(evaluated, vec![1, 2, 3]);
        assert_eq!(out.records, [0, 1, 4, 9].map(Square));
        assert_eq!(out.fresh, vec![1, 4, 9]);
        assert_eq!(out.truncated, 0);
        // The final checkpoint holds exactly the encodable records.
        let saved = snapshot::load_latest(&dir, "toy", 7).lines.unwrap();
        assert_eq!(saved, ["0 0", "2 4"].map(String::from));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_dead_worker_becomes_the_death_outcome() {
        let runtime = RuntimeOptions::default();
        let campaign = Campaign {
            kind: "toy",
            fingerprint: 0,
            total: 3,
            workers: 2,
            runtime: &runtime,
        };
        let out = run_resumable(
            &campaign,
            |i| if i == 1 { panic!("boom") } else { i },
            |&v| Square(v),
            |i, payload| {
                assert_eq!(payload, "boom");
                100 + i
            },
        );
        assert_eq!(out.fresh, vec![0, 101, 2]);
        assert_eq!(out.records, [0, 101, 2].map(Square));
    }
}
