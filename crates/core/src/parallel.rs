//! Deterministic parallel execution for the analyzer's refresh path.
//!
//! The online analyzer's dominant per-refresh cost is advancing one
//! incremental correlator per `(client, candidate-edge)` pair, in place in
//! its root's map, and then exploring each root's graph. The items of
//! either phase are independent — each owns its state (a pair its
//! accumulator, a root its correlators) and only *reads* the shared
//! sliding windows — so a small scoped worker pool can process them in
//! any order. Their costs are far from equal (a pair with nothing to
//! multiply costs microseconds, a live one a hundred times that, and a
//! root's live pairs sit next to each other in the queue), so the workers
//! do not own fixed parts of the input: each takes the next item from one
//! shared queue until none is left.
//!
//! Determinism contract: every function here yields results **bitwise
//! identical** for any worker count, including 1. The order of
//! *execution* is free: an item's computation touches its own state and
//! shared read-only data, so which worker runs it, and when, cannot reach
//! its result (scratch carries no information between uses). The order of
//! *placement* is not: every output lands at its item's input index,
//! never in completion order. Nothing in this module introduces
//! cross-item reductions.
//!
//! Whether a call is worth its threads is the caller's question, and the
//! helpers return what answers it: the time the workers spent on the
//! items, summed. A fork-join of fresh threads costs tens of microseconds
//! on an idle host and a scheduler time slice on a busy one, so the
//! analyzer forks a recurring phase only while that figure says the
//! phase repays it (`analyzer::FORK_WORTH`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

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

/// Applies `f` to every item, mutating in place, on `min(num_workers,
/// items)` scoped threads — the calling one included — that each take the
/// next item from a shared queue until it is empty.
///
/// With `num_workers <= 1` (or a single item) everything runs on the
/// calling thread — no threads are spawned. Results are bitwise identical
/// for any worker count: items are independent and each is processed by
/// exactly one worker.
///
/// Returns the time the workers spent draining the queue, summed over
/// workers: what the items cost one thread, whatever the number that
/// shared them. Waiting for a worker to be scheduled or joined is not in
/// it, so the figure says what the work is worth, not what the fork cost
/// (the analyzer's [`FORK_WORTH`](crate::analyzer::FORK_WORTH) is its use).
pub fn for_each_mut<T, F>(items: &mut [T], num_workers: usize, f: F) -> Duration
where
    T: Send,
    F: Fn(&mut T) + Sync,
{
    let workers = num_workers.min(items.len());
    if workers <= 1 {
        let started = Instant::now();
        items.iter_mut().for_each(f);
        return started.elapsed();
    }
    // One uncontended lock per item, against items of microseconds to
    // milliseconds. It is held only to take the next item, never across
    // `f`, so a panicking item cannot poison it.
    let queue = Mutex::new(items.iter_mut());
    let busy_ns = AtomicU64::new(0);
    let work = || {
        let started = Instant::now();
        loop {
            let next = queue.lock().expect("work queue lock poisoned").next();
            match next {
                Some(item) => f(item),
                None => break,
            }
        }
        busy_ns.fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        work();
        for h in handles {
            h.join().expect("refresh worker panicked");
        }
    });
    Duration::from_nanos(busy_ns.into_inner())
}

/// Maps every item to an output on the same self-scheduled workers as
/// [`for_each_mut`]; `out[i]` is `f(&items[i])` whichever worker
/// computed it. The outputs come with [`for_each_mut`]'s summed worker
/// time.
pub fn map<T, R, F>(items: &[T], num_workers: usize, f: F) -> (Vec<R>, Duration)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let mut slots: Vec<(&T, Option<R>)> = items.iter().map(|item| (item, None)).collect();
    let busy = for_each_mut(&mut slots, num_workers, |(item, out)| *out = Some(f(item)));
    let out = slots
        .into_iter()
        .map(|(_, out)| out.expect("every queued item ran"))
        .collect();
    (out, busy)
}

/// Scratch values that outlive the sharded calls using them.
///
/// The helpers above hand each item to whichever worker is free and keep
/// no per-worker state between calls. Work that needs a sizeable
/// scratch buffer per item borrows one here for the duration of that item
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
        // The lock is held only to pop and to push, never across `f`, so
        // it can only be poisoned by a panic inside `Vec` itself.
        let mut value = self
            .idle
            .lock()
            .expect("scratch pool lock poisoned")
            .pop()
            .unwrap_or_default();
        let out = f(&mut value);
        self.idle
            .lock()
            .expect("scratch pool lock poisoned")
            .push(value);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn for_each_mutates_every_item_identically_for_any_worker_count() {
        let baseline: Vec<u64> = (0..37).map(|i| i * i + 1).collect();
        for workers in [1, 2, 3, 8, 64] {
            let mut items: Vec<u64> = (0..37).collect();
            for_each_mut(&mut items, workers, |v| *v = *v * *v + 1);
            assert_eq!(items, baseline, "workers={workers}");
        }
    }

    #[test]
    fn map_preserves_input_order() {
        let items: Vec<usize> = (0..23).collect();
        let expect: Vec<usize> = items.iter().map(|i| i * 3).collect();
        for workers in [1, 2, 5, 23, 99] {
            assert_eq!(map(&items, workers, |i| i * 3).0, expect);
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let mut empty: Vec<u8> = vec![];
        for_each_mut(&mut empty, 4, |_| unreachable!());
        assert!(map(&empty, 4, |v: &u8| *v).0.is_empty());
        let mut one = vec![5u8];
        for_each_mut(&mut one, 4, |v| *v += 1);
        assert_eq!(one, vec![6]);
    }

    /// The limit of skewed costs: the first item cannot finish until
    /// every other item has. A worker that owned a fixed part of the
    /// input would strand the items queued behind it; workers that pull
    /// from one queue drain them while it waits.
    #[test]
    fn a_stuck_item_does_not_hold_back_the_items_behind_it() {
        use std::sync::mpsc::{channel, Receiver, Sender};
        use std::time::Duration;
        struct Item {
            done: Sender<()>,
            /// The stuck item waits here for every other item's `done`.
            others: Option<(Receiver<()>, usize)>,
            runs: u32,
        }
        for len in [2usize, 3, 9, 40] {
            for workers in 2..=8 {
                let (done, all_done) = channel();
                let mut items: Vec<Item> = (0..len)
                    .map(|_| Item {
                        done: done.clone(),
                        others: None,
                        runs: 0,
                    })
                    .collect();
                items[0].others = Some((all_done, len - 1));
                for_each_mut(&mut items, workers, |item| {
                    item.runs += 1;
                    match &item.others {
                        Some((others, count)) => (0..*count).for_each(|_| {
                            others
                                .recv_timeout(Duration::from_secs(30))
                                .expect("items behind the stuck one never ran");
                        }),
                        None => item.done.send(()).expect("receiver outlives the call"),
                    }
                });
                assert!(
                    items.iter().all(|item| item.runs == 1),
                    "len={len} workers={workers}: an item ran twice or never"
                );
            }
        }
    }

    #[test]
    fn skewed_costs_keep_once_each_and_input_order() {
        // One item a hundred times the rest, anywhere in the input.
        let spin =
            |rounds: u64| (0..rounds).fold(1u64, |h, i| std::hint::black_box(h ^ i).rotate_left(7));
        for heavy in [0usize, 5, 16] {
            let cost = |i: usize| if i == heavy { 200_000 } else { 2_000 };
            let expect: Vec<(usize, u64)> = (0..17).map(|i| (i, spin(cost(i)))).collect();
            for workers in 1..=8 {
                let mut runs = vec![0u32; 17];
                let mut items: Vec<(usize, &mut u32)> = runs.iter_mut().enumerate().collect();
                for_each_mut(&mut items, workers, |(i, runs)| {
                    spin(cost(*i));
                    **runs += 1;
                });
                assert_eq!(runs, vec![1; 17], "heavy={heavy} workers={workers}");
                let inputs: Vec<usize> = (0..17).collect();
                let (mapped, _) = map(&inputs, workers, |&i| (i, spin(cost(i))));
                assert_eq!(mapped, expect, "heavy={heavy} workers={workers}");
            }
        }
    }

    #[test]
    fn one_worker_or_fewer_stays_on_the_calling_thread() {
        let caller = std::thread::current().id();
        for workers in [0, 1] {
            let mut items = vec![None; 9];
            for_each_mut(&mut items, workers, |slot| {
                *slot = Some(std::thread::current().id());
            });
            assert!(items.iter().all(|&id| id == Some(caller)));
            let (ids, _) = map(&items, workers, |_| std::thread::current().id());
            assert!(ids.iter().all(|&id| id == caller));
        }
        // A single item needs no second thread whatever was asked for.
        let mut one = [None];
        for_each_mut(&mut one, 8, |slot| {
            *slot = Some(std::thread::current().id())
        });
        assert_eq!(one, [Some(caller)]);
    }

    /// The returned figure is the items' cost, not the call's: it adds up
    /// over workers, and a worker that arrives to an empty queue adds
    /// (next to) nothing.
    #[test]
    fn reported_time_is_the_work_not_the_wall() {
        use std::time::{Duration, Instant};
        let nap = Duration::from_millis(5);
        for workers in [1, 2, 4] {
            let mut items = vec![(); 4];
            let started = Instant::now();
            let busy = for_each_mut(&mut items, workers, |_| std::thread::sleep(nap));
            let wall = started.elapsed();
            assert!(busy >= 4 * nap, "workers={workers}: {busy:?}");
            // A sleep may overrun, but not by the items other workers took.
            assert!(busy <= wall * workers as u32, "workers={workers}");
        }
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
