//! A minimal scoped worker pool for data-parallel fitness evaluation.
//!
//! [`parallel_map`] fans an index range out over `threads` scoped
//! workers pulling from a shared atomic counter (work stealing by
//! index), then reassembles results **in index order**. Determinism is
//! therefore the caller's only obligation: as long as `f(i)` depends
//! only on `i` (and not on which worker runs it, or when), the output
//! is identical for every thread count — including the `threads <= 1`
//! serial fallback, which runs inline without spawning.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Maps `f` over `0..n`, running on up to `threads` worker threads.
///
/// Results are returned in index order regardless of completion order.
/// With `threads <= 1` (or `n <= 1`) no threads are spawned and `f` is
/// applied serially in index order — the results are identical either
/// way provided `f(i)` is a pure function of `i` and captured state.
///
/// # Panics
///
/// Propagates the first panic from any worker.
pub fn parallel_map<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = threads.min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, T)> = Vec::with_capacity(n);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut out: Vec<(usize, T)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        out.push((i, f(i)));
                    }
                    out
                })
            })
            .collect();
        for handle in handles {
            indexed.extend(handle.join().expect("worker panicked"));
        }
    });
    indexed.sort_unstable_by_key(|&(i, _)| i);
    debug_assert_eq!(indexed.len(), n);
    indexed.into_iter().map(|(_, v)| v).collect()
}

/// Runs `f(state, i, &mut items[i])` for every item, on one worker per
/// element of `states` (at most one per item), each owning its state
/// for the whole call — the GA hands every worker a scratch workspace
/// this way. Workers pull the next item from a shared queue. With one
/// state (or one item) everything runs inline, in index order; the
/// results are identical either way provided `f` treats its state as
/// scratch and otherwise depends only on `i` and the item.
///
/// # Panics
///
/// Panics when `states` is empty, and propagates a worker's panic.
pub fn parallel_for_each_mut<T, S, F>(items: &mut [T], states: &mut [S], f: F)
where
    T: Send,
    S: Send,
    F: Fn(&mut S, usize, &mut T) + Sync,
{
    let workers = states.len().min(items.len());
    if workers <= 1 {
        let state = states.first_mut().expect("at least one worker state");
        for (i, item) in items.iter_mut().enumerate() {
            f(state, i, item);
        }
        return;
    }
    let queue = Mutex::new(items.iter_mut().enumerate());
    std::thread::scope(|scope| {
        for state in &mut states[..workers] {
            scope.spawn(|| loop {
                // The guard is dropped before `f` runs, so a panic in
                // `f` cannot poison the queue.
                let next = queue.lock().expect("queue lock never poisoned").next();
                let Some((i, item)) = next else { break };
                f(state, i, item);
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_index_order_for_every_thread_count() {
        let expect: Vec<usize> = (0..257).map(|i| i * 3).collect();
        for threads in [0, 1, 2, 4, 8, 300] {
            assert_eq!(parallel_map(257, threads, |i| i * 3), expect);
        }
    }

    #[test]
    fn for_each_mut_visits_every_item_once_with_a_private_state() {
        for threads in [1usize, 2, 4, 300] {
            let mut items = vec![0usize; 257];
            let mut visits = vec![0usize; threads];
            parallel_for_each_mut(&mut items, &mut visits, |seen, i, item| {
                *item += i * 3 + 1;
                *seen += 1;
            });
            let expect: Vec<usize> = (0..257).map(|i| i * 3 + 1).collect();
            assert_eq!(items, expect);
            assert_eq!(visits.iter().sum::<usize>(), 257);
        }
        parallel_for_each_mut(&mut [] as &mut [usize], &mut [()], |_, _, _| {});
    }

    #[test]
    fn handles_empty_and_single_item_ranges() {
        assert_eq!(parallel_map(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(parallel_map(1, 4, |i| i + 7), vec![7]);
    }

    #[test]
    fn actually_uses_multiple_threads() {
        use std::collections::HashSet;
        use std::sync::{Barrier, Mutex};
        let seen = Mutex::new(HashSet::new());
        // Items 0 and 1 rendezvous on a barrier: a single worker would
        // deadlock holding one side, so passing proves two distinct
        // threads pulled from the queue concurrently.
        let barrier = Barrier::new(2);
        parallel_map(4, 4, |i| {
            if i < 2 {
                barrier.wait();
            }
            seen.lock().unwrap().insert(std::thread::current().id());
            i
        });
        assert!(seen.lock().unwrap().len() > 1, "ran on a single thread");
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
        for threads in [1, 2, 4, 8] {
            parallel_map(n, threads, |i| {
                counter.add(i as u64);
                hist.observe(i as u64);
                rec.incr("par", "items", 1);
            });
        }
        let expected = (n as u64 * (n as u64 - 1) / 2) * 4;
        assert_eq!(rec.counter_value("par", "work"), expected);
        assert_eq!(rec.counter_value("par", "items"), 4 * n as u64);
    }

    #[test]
    #[should_panic(expected = "worker panicked")]
    fn worker_panics_propagate() {
        parallel_map(8, 2, |i| {
            if i == 3 {
                panic!("boom");
            }
            i
        });
    }
}
