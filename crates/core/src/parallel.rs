//! Deterministic sharded execution for the analyzer's refresh path.
//!
//! The online analyzer's dominant per-refresh cost is advancing one
//! incremental correlator per `(client, candidate-edge)` pair. The pairs
//! are independent — each owns its accumulator and only *reads* the shared
//! sliding windows — so the map can be partitioned into contiguous shards
//! of its stable key order and processed by a small scoped worker pool.
//!
//! Determinism contract: every function here yields results **bitwise
//! identical** for any worker count, including 1. This holds because
//! (a) shards are contiguous slices of the caller-ordered input, so each
//! item's computation touches exactly the same data in the same order
//! regardless of which worker runs it, and (b) outputs are merged back in
//! input order, never in completion order. Nothing in this module
//! introduces cross-item reductions.

/// The number of workers to use when a configuration asks for "all cores".
///
/// Falls back to 1 when the platform cannot report its parallelism.
pub fn available_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Splits `len` items into at most `num_shards` contiguous index ranges
/// whose sizes differ by at most one (earlier shards get the remainder) —
/// the same partition the sharded refresh uses internally, exposed so the
/// distributed analyzer tier can assign each shard a contiguous chunk of
/// the global root order (their concatenation, in shard order, is then
/// the single-analyzer order).
///
/// When `len < num_shards` only `len` non-empty ranges are returned.
pub fn shard_ranges(len: usize, num_shards: usize) -> Vec<std::ops::Range<usize>> {
    let mut start = 0;
    shard_lengths(len, num_shards)
        .into_iter()
        .map(|n| {
            let range = start..start + n;
            start += n;
            range
        })
        .collect()
}

/// Splits `len` items into at most `num_workers` contiguous shard lengths
/// whose sizes differ by at most one (earlier shards get the remainder).
fn shard_lengths(len: usize, num_workers: usize) -> Vec<usize> {
    let shards = num_workers.max(1).min(len.max(1));
    let base = len / shards;
    let extra = len % shards;
    (0..shards)
        .map(|i| base + usize::from(i < extra))
        .filter(|&n| n > 0)
        .collect()
}

/// Applies `f` to every item, mutating in place, using up to
/// `num_workers` scoped threads over contiguous shards.
///
/// With `num_workers <= 1` (or a single item) everything runs on the
/// calling thread — no threads are spawned. Results are bitwise identical
/// for any worker count: items are independent and each is processed by
/// exactly one worker.
pub fn for_each_sharded_mut<T, F>(items: &mut [T], num_workers: usize, f: F)
where
    T: Send,
    F: Fn(&mut T) + Sync,
{
    if num_workers <= 1 || items.len() <= 1 {
        for item in items {
            f(item);
        }
        return;
    }
    let lengths = shard_lengths(items.len(), num_workers);
    std::thread::scope(|scope| {
        let mut rest = items;
        let mut handles = Vec::with_capacity(lengths.len());
        for (i, &n) in lengths.iter().enumerate() {
            // The final shard runs on the calling thread.
            if i + 1 == lengths.len() {
                for item in rest.iter_mut() {
                    f(item);
                }
                rest = &mut [];
            } else {
                let (shard, tail) = rest.split_at_mut(n);
                rest = tail;
                let f = &f;
                handles.push(scope.spawn(move || {
                    for item in shard {
                        f(item);
                    }
                }));
            }
        }
        for h in handles {
            h.join().expect("shard worker panicked");
        }
    });
}

/// Maps every item to an output, preserving input order, using up to
/// `num_workers` scoped threads over contiguous shards.
pub fn map_sharded<T, R, F>(items: &[T], num_workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if num_workers <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let lengths = shard_lengths(items.len(), num_workers);
    std::thread::scope(|scope| {
        let mut rest = items;
        let mut handles = Vec::with_capacity(lengths.len());
        let mut last = Vec::new();
        for (i, &n) in lengths.iter().enumerate() {
            let (shard, tail) = rest.split_at(n);
            rest = tail;
            if i + 1 == lengths.len() {
                last = shard.iter().map(&f).collect();
            } else {
                let f = &f;
                handles.push(scope.spawn(move || shard.iter().map(f).collect::<Vec<R>>()));
            }
        }
        let mut out = Vec::with_capacity(items.len());
        for h in handles {
            out.extend(h.join().expect("shard worker panicked"));
        }
        out.extend(last);
        out
    })
}

/// Scratch values that outlive the sharded calls using them.
///
/// The helpers above hand each item to whichever worker owns its shard
/// and keep no per-worker state between calls. Work that needs a sizeable
/// scratch buffer per item borrows one here for the duration of that item
/// ([`with`](ScratchPool::with)) and gives it back, so at most one value
/// per concurrently running worker ever exists, and a value that has
/// grown to its working size is reused by every later item and refresh
/// instead of being reallocated. Which value an item gets never affects
/// its result — scratch carries no information between uses.
#[derive(Debug)]
pub struct ScratchPool<T> {
    idle: std::sync::Mutex<Vec<T>>,
}

impl<T> Default for ScratchPool<T> {
    fn default() -> Self {
        ScratchPool {
            idle: std::sync::Mutex::new(Vec::new()),
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
    fn shard_lengths_cover_and_balance() {
        assert_eq!(shard_lengths(10, 3), vec![4, 3, 3]);
        assert_eq!(shard_lengths(2, 8), vec![1, 1]);
        assert_eq!(shard_lengths(0, 4), Vec::<usize>::new());
        assert_eq!(shard_lengths(7, 1), vec![7]);
        for (len, w) in [(1, 1), (5, 2), (16, 4), (17, 4), (3, 100)] {
            let lens = shard_lengths(len, w);
            assert_eq!(lens.iter().sum::<usize>(), len, "len={len} w={w}");
            assert!(lens.len() <= w.max(1));
        }
    }

    #[test]
    fn for_each_mutates_every_item_identically_for_any_worker_count() {
        let baseline: Vec<u64> = (0..37).map(|i| i * i + 1).collect();
        for workers in [1, 2, 3, 8, 64] {
            let mut items: Vec<u64> = (0..37).collect();
            for_each_sharded_mut(&mut items, workers, |v| *v = *v * *v + 1);
            assert_eq!(items, baseline, "workers={workers}");
        }
    }

    #[test]
    fn map_preserves_input_order() {
        let items: Vec<usize> = (0..23).collect();
        let expect: Vec<usize> = items.iter().map(|i| i * 3).collect();
        for workers in [1, 2, 5, 23, 99] {
            assert_eq!(map_sharded(&items, workers, |i| i * 3), expect);
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let mut empty: Vec<u8> = vec![];
        for_each_sharded_mut(&mut empty, 4, |_| unreachable!());
        assert!(map_sharded(&empty, 4, |v: &u8| *v).is_empty());
        let mut one = vec![5u8];
        for_each_sharded_mut(&mut one, 4, |v| *v += 1);
        assert_eq!(one, vec![6]);
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
