//! Deterministic parallel execution for the analyzer's refresh path.
//!
//! The online analyzer's dominant per-refresh cost is advancing one
//! incremental correlator per `(client, candidate-edge)` pair and then
//! exploring each root's graph. The items of either phase are
//! independent — each owns its state (a pair its accumulator, a root its
//! correlators) and only *reads* shared data — so a [`Pool`] can process
//! them in any order. Their costs are far from equal (a pair with nothing
//! to multiply costs microseconds, a live one a hundred times that, and a
//! root's live pairs sit next to each other in the queue), so the workers
//! do not own fixed parts of the input: each takes the next item from one
//! shared queue until none is left.
//!
//! The pool stands: its helper threads are started once, on the first job
//! worth them, park on a condition variable between jobs and are joined
//! when the pool is dropped. A job's items are *moved* into it and its
//! function owns what it reads (`'static`), so a helper that wakes late
//! holds nothing the caller still needs — which is what lets the caller
//! return without waiting for it, and what keeps this module free of
//! `unsafe`: nothing borrowed ever crosses to a helper.
//!
//! Determinism contract: [`Pool::run`] yields results **bitwise
//! identical** for any worker count, including 1. The order of
//! *execution* is free: an item's computation touches its own state and
//! shared read-only data, so which worker runs it, and when, cannot reach
//! its result (scratch carries no information between uses). The order of
//! *placement* is not: every output lands at its item's input index,
//! never in completion order. Nothing in this module introduces
//! cross-item reductions.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// The number of workers to use when a configuration asks for "all cores".
///
/// Falls back to 1 when the platform cannot report its parallelism.
pub fn available_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Splits `len` items into at most `num_shards` contiguous index ranges
/// whose sizes differ by at most one (earlier shards get the remainder).
/// The distributed analyzer tier assigns each shard a contiguous chunk of
/// the global root order this way: the chunks' concatenation, in shard
/// order, is then the single-analyzer order.
///
/// When `len < num_shards` only `len` non-empty ranges are returned.
pub fn shard_ranges(len: usize, num_shards: usize) -> Vec<std::ops::Range<usize>> {
    let shards = num_shards.max(1).min(len);
    let mut start = 0;
    (0..shards)
        .map(|i| {
            let n = len / shards + usize::from(i < len % shards);
            let range = start..start + n;
            start += n;
            range
        })
        .collect()
}

/// Locks `mutex`, recovering the guard from a thread that panicked while
/// holding it. Every critical section here leaves its state consistent
/// (items run outside the locks, and their panics are caught), so the
/// state behind a poisoned lock is as good as any.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Waits on `condvar`, recovering the guard as [`lock`] does.
fn wait<'a, T>(condvar: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    condvar.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// The payload of an item's panic, caught on its worker.
type Panic = Box<dyn Any + Send>;

/// A posted job as the helpers see it: something to help drain.
trait Drain: Send + Sync {
    /// Takes and runs items until the queue is empty.
    fn drain(&self);
}

/// One [`Pool::run`]: its queue, its outputs and its function.
struct Job<T, R, F> {
    state: Mutex<JobState<T, R, F>>,
    /// Signalled when the last item in flight is done and none is queued.
    settled: Condvar,
}

struct JobState<T, R, F> {
    /// The items no worker has taken yet, with their input indices.
    queue: std::iter::Enumerate<std::vec::IntoIter<T>>,
    /// Each finished item's output, at its input index.
    outputs: Vec<Option<R>>,
    /// The function, until the caller takes it back. A worker holds a
    /// clone only while it runs an item and drops it before reporting the
    /// item done, so once nothing is in flight the caller's is the last.
    f: Option<Arc<F>>,
    /// Items taken and not yet reported done.
    in_flight: usize,
    /// The first panic an item raised.
    panic: Option<Panic>,
}

impl<T, R, F> Drain for Job<T, R, F>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Send + Sync,
{
    fn drain(&self) {
        let mut finished: Option<(usize, std::thread::Result<R>)> = None;
        loop {
            let (i, item, f) = {
                let mut guard = lock(&self.state);
                let state = &mut *guard;
                if let Some((i, out)) = finished.take() {
                    state.in_flight -= 1;
                    match out {
                        Ok(out) => state.outputs[i] = Some(out),
                        Err(panic) => {
                            state.panic.get_or_insert(panic);
                        }
                    }
                }
                let next = match &state.f {
                    Some(f) => state.queue.next().map(|(i, item)| (i, item, Arc::clone(f))),
                    None => None,
                };
                let Some(next) = next else {
                    if state.in_flight == 0 {
                        self.settled.notify_all();
                    }
                    return;
                };
                state.in_flight += 1;
                next
            };
            let out = panic::catch_unwind(AssertUnwindSafe(|| f(item)));
            drop(f);
            finished = Some((i, out));
        }
    }
}

impl<T, R, F> Job<T, R, F> {
    /// Waits until no item is in flight — the queue is empty by then —
    /// drops the function, whose last reference this is, and takes the
    /// outputs and the first panic out of the job.
    fn settle(&self) -> (Vec<Option<R>>, Option<Panic>) {
        let mut state = lock(&self.state);
        while state.in_flight > 0 {
            state = wait(&self.settled, state);
        }
        state.f = None;
        (std::mem::take(&mut state.outputs), state.panic.take())
    }
}

/// What the caller and its helpers share.
#[derive(Default)]
struct Shared {
    posted: Mutex<Posted>,
    /// Signalled when a job is posted and when the pool closes.
    wake: Condvar,
    /// Holds the helpers between taking a job and draining it.
    #[cfg(test)]
    gate: tests::Gate,
}

#[derive(Default)]
struct Posted {
    /// The job being drained, while its queue may still hold items.
    job: Option<Arc<dyn Drain>>,
    /// How many jobs were ever posted: a helper drains each at most once.
    serial: u64,
    /// The pool is being dropped.
    closing: bool,
}

/// What a helper thread does for its whole life: parks until a job it has
/// not drained is posted, drains it, and parks again.
fn help(shared: &Shared) {
    let mut drained = 0;
    loop {
        let job = {
            let mut posted = lock(&shared.posted);
            loop {
                if posted.closing {
                    return;
                }
                match &posted.job {
                    Some(job) if posted.serial != drained => {
                        drained = posted.serial;
                        break Arc::clone(job);
                    }
                    _ => posted = wait(&shared.wake, posted),
                }
            }
        };
        #[cfg(test)]
        shared.gate.pass();
        job.drain();
    }
}

/// A standing pool of `num_workers − 1` helper threads and the thread that
/// calls [`run`](Pool::run).
///
/// The helpers are started by the first `run` that has two or more items
/// on a pool of two or more workers; they park on a condition variable
/// between jobs — they never spin — and are joined when the pool is
/// dropped. A `run` posts its items, wakes as many helpers as there are
/// items beyond the first, and drains the queue itself alongside whichever
/// helpers wake in time. Once the queue is empty the job is withdrawn, so
/// a helper that has not woken yet finds nothing; the caller waits only
/// for the items helpers have already taken, never for a helper that has
/// yet to be scheduled.
pub struct Pool {
    workers: usize,
    shared: Arc<Shared>,
    helpers: Vec<JoinHandle<()>>,
    started: bool,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("workers", &self.workers)
            .field("helpers", &self.helpers.len())
            .finish()
    }
}

impl Pool {
    /// A pool of `num_workers` workers, the calling thread among them
    /// (`0` counts as `1`: everything runs on the calling thread). No
    /// thread is started until a job needs one.
    pub fn new(num_workers: usize) -> Self {
        Pool {
            workers: num_workers.max(1),
            shared: Arc::default(),
            helpers: Vec::new(),
            started: false,
        }
    }

    /// Maps every item to `f(item)` on the pool; `out[i]` is `f(items[i])`
    /// whichever worker computed it.
    ///
    /// With one worker, or fewer than two items, everything runs on the
    /// calling thread and no helper is started. Otherwise the calling
    /// thread and the helpers that wake in time each take the next item
    /// until the queue is empty; the call then returns as soon as the
    /// items helpers took are done.
    ///
    /// # Panics
    ///
    /// An item that panics — on any worker — does not stop the others: the
    /// job drains, and the first panic is then raised again on the calling
    /// thread. The pool serves later calls as before.
    pub fn run<T, R, F>(&mut self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send + 'static,
        R: Send + 'static,
        F: Fn(T) -> R + Send + Sync + 'static,
    {
        if self.workers <= 1 || items.len() <= 1 {
            return items.into_iter().map(f).collect();
        }
        self.start();
        let len = items.len();
        let job = Arc::new(Job {
            state: Mutex::new(JobState {
                queue: items.into_iter().enumerate(),
                outputs: std::iter::repeat_with(|| None).take(len).collect(),
                f: Some(Arc::new(f)),
                in_flight: 0,
                panic: None,
            }),
            settled: Condvar::new(),
        });
        self.post(Some(Arc::clone(&job) as Arc<dyn Drain>), len - 1);
        job.drain();
        self.post(None, 0);
        let (outputs, panic) = job.settle();
        if let Some(panic) = panic {
            panic::resume_unwind(panic);
        }
        outputs.into_iter().flatten().collect()
    }

    /// Makes `job` the posted one (`None` withdraws it) and wakes up to
    /// `wake` helpers.
    fn post(&self, job: Option<Arc<dyn Drain>>, wake: usize) {
        let mut posted = lock(&self.shared.posted);
        posted.serial += u64::from(job.is_some());
        posted.job = job;
        drop(posted);
        for _ in 0..wake.min(self.helpers.len()) {
            self.shared.wake.notify_one();
        }
    }

    /// Starts the helpers, once. A helper the platform refuses to start
    /// is done without: the calling thread drains whatever is left.
    fn start(&mut self) {
        if std::mem::replace(&mut self.started, true) {
            return;
        }
        for _ in 1..self.workers {
            let shared = Arc::clone(&self.shared);
            let spawned = std::thread::Builder::new()
                .name("e2eprof-refresh".into())
                .spawn(move || help(&shared));
            match spawned {
                Ok(helper) => self.helpers.push(helper),
                Err(_) => break,
            }
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        lock(&self.shared.posted).closing = true;
        self.shared.wake.notify_all();
        for helper in self.helpers.drain(..) {
            // Items' panics are caught inside `drain`: a helper returns.
            let _ = helper.join();
        }
    }
}

/// Scratch values that outlive the pooled calls using them.
///
/// The pool hands each item to whichever worker is free and keeps no
/// per-worker state between calls. Work that needs a sizeable scratch
/// buffer per item borrows one here for the duration of that item
/// ([`with`](ScratchPool::with)) and gives it back, so at most one value
/// per concurrently running worker ever exists, and a value that has
/// grown to its working size is reused by every later item and refresh
/// instead of being reallocated. Which value an item gets never affects
/// its result — scratch carries no information between uses.
#[derive(Debug)]
pub struct ScratchPool<T> {
    idle: Mutex<Vec<T>>,
}

impl<T> Default for ScratchPool<T> {
    fn default() -> Self {
        ScratchPool {
            idle: Mutex::new(Vec::new()),
        }
    }
}

impl<T: Default> ScratchPool<T> {
    /// Runs `f` with an idle scratch value — a fresh `T::default()` when
    /// every pooled one is in use — and returns the value to the pool.
    pub fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        // The lock is held only to pop and to push, never across `f`.
        let mut value = lock(&self.idle).pop().unwrap_or_default();
        let out = f(&mut value);
        lock(&self.idle).push(value);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::thread::ThreadId;
    use std::time::{Duration, Instant};

    /// Holds helpers between taking a job and draining it, while shut.
    #[derive(Default)]
    pub(super) struct Gate {
        state: Mutex<(bool, usize)>,
        moved: Condvar,
    }

    impl Gate {
        /// Waits while the gate is shut, counted among the waiting.
        pub(super) fn pass(&self) {
            let mut state = lock(&self.state);
            state.1 += 1;
            self.moved.notify_all();
            while state.0 {
                state = wait(&self.moved, state);
            }
            state.1 -= 1;
        }

        fn shut(&self, shut: bool) {
            lock(&self.state).0 = shut;
            self.moved.notify_all();
        }

        /// Waits until `n` helpers wait at the gate.
        fn await_waiting(&self, n: usize) {
            let mut state = lock(&self.state);
            while state.1 < n {
                let (next, timeout) = self
                    .moved
                    .wait_timeout(state, Duration::from_secs(30))
                    .unwrap_or_else(PoisonError::into_inner);
                assert!(!timeout.timed_out(), "no helper reached the gate");
                state = next;
            }
        }
    }

    #[test]
    fn shard_ranges_cover_and_balance() {
        let lengths = |len, shards| -> Vec<usize> {
            shard_ranges(len, shards)
                .into_iter()
                .map(|r| r.len())
                .collect()
        };
        assert_eq!(lengths(10, 3), vec![4, 3, 3]);
        assert_eq!(lengths(2, 8), vec![1, 1]);
        assert_eq!(lengths(0, 4), Vec::<usize>::new());
        assert_eq!(lengths(7, 1), vec![7]);
        for (len, w) in [(1, 1), (5, 2), (16, 4), (17, 4), (3, 100)] {
            let ranges = shard_ranges(len, w);
            assert!(ranges.len() <= w.max(1));
            // Contiguous from 0 to `len`.
            let mut next = 0;
            for r in ranges {
                assert_eq!(r.start, next, "len={len} w={w}");
                next = r.end;
            }
            assert_eq!(next, len, "len={len} w={w}");
        }
    }

    #[test]
    fn run_preserves_input_order_for_any_worker_count() {
        let expect: Vec<u64> = (0..37).map(|i| i * i + 1).collect();
        for workers in [1, 2, 3, 8, 64] {
            let mut pool = Pool::new(workers);
            for _ in 0..3 {
                let items: Vec<u64> = (0..37).collect();
                assert_eq!(pool.run(items, |v| v * v + 1), expect, "workers={workers}");
            }
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let mut pool = Pool::new(4);
        let empty: Vec<u8> = pool.run(Vec::<u8>::new(), |_| unreachable!());
        assert!(empty.is_empty());
        assert_eq!(pool.run(vec![5u8], |v| v + 1), vec![6]);
        assert!(pool.helpers.is_empty(), "no job needed a helper");
    }

    /// The limit of skewed costs: the first item cannot finish until
    /// every other item has. A worker that owned a fixed part of the
    /// input would strand the items queued behind it; workers that pull
    /// from one queue drain them while it waits.
    #[test]
    fn a_stuck_item_does_not_hold_back_the_items_behind_it() {
        use std::sync::mpsc::{channel, Receiver, Sender};
        struct Item {
            index: usize,
            done: Sender<()>,
            /// The stuck item waits here for every other item's `done`.
            others: Option<(Receiver<()>, usize)>,
        }
        for workers in 2..=8 {
            let mut pool = Pool::new(workers);
            for len in [2usize, 3, 9, 40] {
                let (done, all_done) = channel();
                let mut items: Vec<Item> = (0..len)
                    .map(|index| Item {
                        index,
                        done: done.clone(),
                        others: None,
                    })
                    .collect();
                items[0].others = Some((all_done, len - 1));
                let ran = pool.run(items, |item| {
                    match &item.others {
                        Some((others, count)) => (0..*count).for_each(|_| {
                            others
                                .recv_timeout(Duration::from_secs(30))
                                .expect("items behind the stuck one never ran");
                        }),
                        None => item.done.send(()).expect("receiver outlives the call"),
                    }
                    item.index
                });
                assert_eq!(
                    ran,
                    (0..len).collect::<Vec<_>>(),
                    "len={len} workers={workers}"
                );
            }
        }
    }

    #[test]
    fn skewed_costs_keep_once_each_and_input_order() {
        // One item a hundred times the rest, anywhere in the input.
        fn spin(rounds: u64) -> u64 {
            (0..rounds).fold(1u64, |h, i| std::hint::black_box(h ^ i).rotate_left(7))
        }
        fn cost(heavy: usize, i: usize) -> u64 {
            if i == heavy {
                200_000
            } else {
                2_000
            }
        }
        for heavy in [0usize, 5, 16] {
            let expect: Vec<(usize, u64)> = (0..17).map(|i| (i, spin(cost(heavy, i)))).collect();
            for workers in 1..=8 {
                let mut pool = Pool::new(workers);
                let runs = Arc::new((0..17).map(|_| AtomicUsize::new(0)).collect::<Vec<_>>());
                let counted = Arc::clone(&runs);
                let mapped = pool.run((0..17).collect(), move |i: usize| {
                    counted[i].fetch_add(1, Ordering::Relaxed);
                    (i, spin(cost(heavy, i)))
                });
                assert_eq!(mapped, expect, "heavy={heavy} workers={workers}");
                let runs: Vec<usize> = runs.iter().map(|r| r.load(Ordering::Relaxed)).collect();
                assert_eq!(runs, vec![1; 17], "heavy={heavy} workers={workers}");
            }
        }
    }

    #[test]
    fn one_worker_or_fewer_stays_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let on = |_: usize| std::thread::current().id();
        for workers in [0, 1] {
            let mut pool = Pool::new(workers);
            let ids = pool.run((0..9).collect(), on);
            assert!(ids.iter().all(|&id| id == caller));
            assert!(pool.helpers.is_empty(), "workers={workers}");
        }
        // A single item needs no second thread whatever was asked for.
        let mut pool = Pool::new(8);
        assert_eq!(pool.run(vec![0], on), [caller]);
        assert!(pool.helpers.is_empty());
    }

    /// Helpers that have not reached the queue hold nothing up: with every
    /// helper held back, each call still runs all of its items on the
    /// calling thread and returns.
    #[test]
    fn the_caller_never_waits_for_a_helper_that_has_not_started() {
        let caller = std::thread::current().id();
        for workers in [2, 4] {
            let mut pool = Pool::new(workers);
            pool.shared.gate.shut(true);
            for len in [2, 5, 40] {
                let ids: Vec<ThreadId> =
                    pool.run((0..len).collect(), |_: usize| std::thread::current().id());
                assert_eq!(ids, vec![caller; len], "workers={workers} len={len}");
            }
            pool.shared.gate.shut(false);
        }
    }

    /// A helper that took the job but reached its queue only after the
    /// call returned finds it empty: it runs no item, and it keeps none of
    /// the items' data alive.
    #[test]
    fn a_late_helper_takes_no_item_and_keeps_nothing_alive() {
        let caller = std::thread::current().id();
        let mut pool = Pool::new(2);
        let token = Arc::new(());
        let shared = Arc::clone(&pool.shared);
        shared.gate.shut(true);
        let items: Vec<(usize, Arc<()>)> = (0..8).map(|i| (i, Arc::clone(&token))).collect();
        let ids = pool.run(items, move |(i, token)| {
            if i == 0 {
                // The helper has taken the job and waits at the gate.
                shared.gate.await_waiting(1);
            }
            drop(token);
            std::thread::current().id()
        });
        assert_eq!(ids, vec![caller; 8]);
        assert_eq!(Arc::strong_count(&token), 1, "an item outlived the call");
        pool.shared.gate.shut(false);
        // Joins the helper, after it has drained the (empty) job.
        drop(pool);
        assert_eq!(Arc::strong_count(&token), 1);
    }

    /// A panic on a helper reaches the caller once every other item has
    /// run, and the pool serves the next call.
    #[test]
    fn a_panic_on_a_helper_is_raised_on_the_caller_and_the_pool_serves_on() {
        let caller = std::thread::current().id();
        let mut pool = Pool::new(2);
        let ran = Arc::new(AtomicUsize::new(0));
        let helped = Arc::new(AtomicBool::new(false));
        let (ran_in, helped_in) = (Arc::clone(&ran), Arc::clone(&helped));
        let job = AssertUnwindSafe(|| {
            pool.run((0..6).collect(), move |i: usize| {
                if std::thread::current().id() != caller {
                    helped_in.store(true, Ordering::SeqCst);
                    ran_in.fetch_add(1, Ordering::SeqCst);
                    panic!("item {i} failed on a helper");
                }
                if i == 0 {
                    // Hold the caller until a helper has taken an item.
                    let deadline = Instant::now() + Duration::from_secs(30);
                    while !helped_in.load(Ordering::SeqCst) {
                        assert!(Instant::now() < deadline, "no helper ever took an item");
                        std::thread::yield_now();
                    }
                }
                ran_in.fetch_add(1, Ordering::SeqCst);
                i
            })
        });
        let raised = panic::catch_unwind(job).expect_err("the helper's panic was swallowed");
        let message = raised
            .downcast_ref::<String>()
            .expect("a formatted panic message");
        assert!(message.ends_with("failed on a helper"), "{message}");
        assert_eq!(ran.load(Ordering::SeqCst), 6, "the job did not drain");
        assert_eq!(
            pool.run((0..6).collect(), |i: usize| i * 2),
            [0, 2, 4, 6, 8, 10]
        );
    }

    #[test]
    fn scratch_pool_reuses_returned_values() {
        let pool: ScratchPool<Vec<u8>> = ScratchPool::default();
        pool.with(|v| v.reserve(64));
        // The grown value comes back; a nested borrow gets a fresh one.
        pool.with(|outer| {
            assert!(outer.capacity() >= 64);
            pool.with(|inner| assert_eq!(inner.capacity(), 0));
        });
    }

    #[test]
    fn available_workers_is_positive() {
        assert!(available_workers() >= 1);
    }
}
