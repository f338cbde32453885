//! Deterministic multi-trace sweep runner.
//!
//! Every table/figure experiment averages several independently-seeded
//! traces, and each `(policy, trace)` cell is an isolated simulation:
//! it builds its own trace, policy, and RNG from the trace index alone.
//! That makes the sweep embarrassingly parallel, and the macro-stepped
//! engine makes individual runs cheap enough that the sweep — not the
//! single run — is now the wall-clock unit worth parallelizing.
//!
//! Parallelism here is purely a wall-clock knob: cells are computed by
//! [`pollux_sched::parallel_map`], which preserves item order, so the
//! collected results are byte-identical to the serial loop at any
//! thread count.

use pollux_sched::parallel_map;
use std::sync::OnceLock;

/// Worker threads used by [`sweep`]: `POLLUX_SWEEP_THREADS` when set
/// to a positive integer, otherwise the machine's available
/// parallelism. Read once and cached for the process lifetime.
pub fn sweep_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::env::var("POLLUX_SWEEP_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
    })
}

/// Runs `f(0), f(1), …, f(n-1)` on a worker pool and returns the
/// results in index order. Results are a pure function of `f` — never
/// of the thread count — provided each call is independent (true for
/// all `run_one`-style experiment cells, which derive everything from
/// the index).
pub fn sweep<T, F>(n: u64, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    sweep_with_threads(n, sweep_threads(), f)
}

/// [`sweep`] with an explicit thread count (1 = fully serial).
pub fn sweep_with_threads<T, F>(n: u64, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    parallel_map(0..n as usize, threads, |i| f(i as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cheap stand-in for a simulation cell: a seeded mix so wrong
    /// ordering or wrong indices produce different values.
    fn cell(i: u64) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ i;
        for _ in 0..8 {
            h = h.wrapping_mul(0x0000_0100_0000_01b3).rotate_left(17);
        }
        h
    }

    #[test]
    fn sweep_preserves_index_order() {
        let serial: Vec<u64> = (0..64).map(cell).collect();
        for threads in [1, 2, 4, 8] {
            assert_eq!(
                sweep_with_threads(64, threads, cell),
                serial,
                "order broken at {threads} threads"
            );
        }
    }

    #[test]
    fn sweep_handles_empty_and_single() {
        assert!(sweep_with_threads(0, 4, cell).is_empty());
        assert_eq!(sweep_with_threads(1, 4, cell), vec![cell(0)]);
    }

    #[test]
    fn sweep_threads_is_positive() {
        assert!(sweep_threads() >= 1);
    }
}
