//! A minimal scoped fan-out for the racked round's independent pieces.
//!
//! [`parallel_map`] hands the items of an iterator out to `workers`
//! threads — the calling thread is one of them — each pulling the next
//! item from a shared queue, then reassembles the results **in item
//! order**. Determinism is therefore the caller's only obligation: as
//! long as `f(item)` depends only on the item (and not on which worker
//! runs it, or when), the output is identical for every worker count —
//! including the `workers <= 1` serial fallback, which runs inline
//! without spawning.

use std::sync::Mutex;

/// Maps `f` over `items` on up to `workers` threads, the calling
/// thread included: `workers − 1` are spawned and the caller takes a
/// share itself, so two workers cost one spawn.
///
/// Items are owned by the call that receives them, so an item may
/// carry `&mut` borrows (the racked round hands each rack the rows of
/// the result matrix it fills). Results are returned in item order
/// regardless of completion order. With `workers <= 1` (or at most one
/// item) no thread is spawned and `f` is applied serially in order —
/// the results are identical either way provided `f(item)` is a pure
/// function of the item and captured state.
///
/// # Panics
///
/// Re-raises a panic of `f` with its original payload, whichever
/// thread it ran on.
pub fn parallel_map<I, T, F>(items: I, workers: usize, f: F) -> Vec<T>
where
    I: ExactSizeIterator + Send,
    I::Item: Send,
    T: Send,
    F: Fn(I::Item) -> T + Sync,
{
    let workers = workers.min(items.len());
    if workers <= 1 {
        return items.map(f).collect();
    }

    let queue = Mutex::new(items.enumerate());
    let drain = || {
        let mut out: Vec<(usize, T)> = Vec::new();
        loop {
            // The guard is dropped before `f` runs, so a panic in `f`
            // cannot poison the queue.
            let next = queue.lock().expect("queue lock never poisoned").next();
            let Some((i, item)) = next else { break };
            out.push((i, f(item)));
        }
        out
    };
    let mut indexed = std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..workers).map(|_| scope.spawn(drain)).collect();
        let mut indexed = drain();
        for handle in spawned {
            match handle.join() {
                Ok(part) => indexed.extend(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        indexed
    });
    indexed.sort_unstable_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, v)| v).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;
    use std::thread::ThreadId;

    #[test]
    fn preserves_item_order_for_every_worker_count() {
        let expect: Vec<usize> = (0..257).map(|i| i * 3).collect();
        for workers in [0, 1, 2, 4, 8, 300] {
            assert_eq!(parallel_map(0..257, workers, |i| i * 3), expect);
        }
    }

    #[test]
    fn handles_empty_and_single_item_ranges() {
        assert_eq!(parallel_map(0..0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(parallel_map(0..1, 4, |i| i + 7), vec![7]);
    }

    #[test]
    fn items_may_carry_mutable_borrows() {
        for workers in [1usize, 2, 3, 300] {
            let mut cells = vec![0usize; 257];
            let sums = parallel_map(cells.chunks_mut(10).enumerate(), workers, |(c, chunk)| {
                chunk.iter_mut().for_each(|cell| *cell = c);
                chunk.len()
            });
            assert_eq!(sums.iter().sum::<usize>(), 257);
            assert!(cells.iter().enumerate().all(|(i, &cell)| cell == i / 10));
        }
    }

    /// Runs two items that rendezvous on a barrier — a single thread
    /// would deadlock holding one side, so one item runs on the
    /// calling thread and one on the spawned worker — and returns the
    /// thread each ran on, after giving `then` the chance to panic.
    fn one_item_per_thread(then: impl Fn(ThreadId) + Sync) -> Vec<ThreadId> {
        let barrier = Barrier::new(2);
        parallel_map(0..2, 2, |_| {
            barrier.wait();
            let id = std::thread::current().id();
            then(id);
            id
        })
    }

    #[test]
    fn the_caller_takes_a_share_beside_one_spawned_worker() {
        let ran_on = one_item_per_thread(|_| {});
        let caller = std::thread::current().id();
        assert_eq!(ran_on.iter().filter(|&&id| id == caller).count(), 1);
        assert_ne!(ran_on[0], ran_on[1]);
    }

    #[test]
    fn a_panic_message_reaches_the_caller_from_either_thread() {
        let caller = std::thread::current().id();
        for on_caller in [true, false] {
            let payload = std::panic::catch_unwind(|| {
                one_item_per_thread(|id| {
                    assert!((id == caller) != on_caller, "boom {on_caller}");
                })
            })
            .expect_err("one item panics");
            let message = payload.downcast_ref::<String>().expect("a formatted panic");
            assert!(message.contains(&format!("boom {on_caller}")), "{message}");
        }
    }

    /// Recorder counters must be *exact* (not approximate) under
    /// concurrent workers: each increment is one `fetch_add`, so the
    /// sum over any interleaving equals the serial sum.
    #[test]
    fn telemetry_counters_are_exact_under_workers() {
        use pollux_telemetry::{NullSink, Recorder};
        use std::sync::Arc;
        let rec = Recorder::new(Arc::new(NullSink));
        let counter = rec.counter("par", "work");
        let hist = rec.histogram("par", "values");
        let n = 10_000usize;
        for workers in [1, 2, 4, 8] {
            parallel_map(0..n, workers, |i| {
                counter.add(i as u64);
                hist.observe(i as u64);
                rec.incr("par", "items", 1);
            });
        }
        let expected = (n as u64 * (n as u64 - 1) / 2) * 4;
        assert_eq!(rec.counter_value("par", "work"), expected);
        assert_eq!(rec.counter_value("par", "items"), 4 * n as u64);
    }
}
