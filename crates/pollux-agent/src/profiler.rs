//! Iteration-time profiling (Sec. 4.1).
//!
//! `PolluxAgent` records the measured time per training iteration for
//! every `(placement shape, batch size)` configuration its job runs
//! under. Samples for the same configuration are averaged, which both
//! denoises the fit inputs and keeps the observation set small no
//! matter how long the job runs.

use pollux_models::{FitObservation, FitPriors, PlacementShape};
use std::collections::BTreeMap;

/// Aggregated iteration-time samples keyed by configuration.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ThroughputProfiler {
    samples: BTreeMap<(PlacementShape, u64), SampleAgg>,
    max_gpus_seen: u32,
    max_nodes_seen: u32,
}

#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct SampleAgg {
    sum: f64,
    count: u64,
}

/// An in-flight batch of iteration-time samples under one fixed
/// `(shape, batch_size)` configuration, opened by
/// [`ThroughputProfiler::begin_run`]. Holds the configuration's
/// aggregate by value so the per-sample hot path is two adds with no
/// map lookup.
#[derive(Debug, Clone)]
pub struct ObservationRun {
    shape: PlacementShape,
    batch_size: u64,
    agg: SampleAgg,
    added: u64,
}

impl ObservationRun {
    /// Accumulates one measurement, applying the same validity filter
    /// as [`ThroughputProfiler::record`] (and its `sum += t` addition
    /// order, so a committed run is bit-identical to per-sample
    /// recording).
    #[inline]
    pub fn observe(&mut self, t_iter: f64) {
        if !t_iter.is_finite() || t_iter <= 0.0 || self.batch_size == 0 {
            return;
        }
        self.agg.sum += t_iter;
        self.agg.count += 1;
        self.added += 1;
    }

    /// Number of samples this run has accepted since it was opened or
    /// last committed.
    pub fn accepted(&self) -> u64 {
        self.added
    }

    /// The configuration this run profiles.
    pub fn shape(&self) -> PlacementShape {
        self.shape
    }
}

impl ThroughputProfiler {
    /// Creates an empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one measured iteration time (seconds) under the given
    /// configuration. Non-finite or non-positive measurements are
    /// ignored (e.g. timer glitches across suspensions).
    pub fn record(&mut self, shape: PlacementShape, batch_size: u64, t_iter: f64) {
        if !t_iter.is_finite() || t_iter <= 0.0 || batch_size == 0 {
            return;
        }
        let agg = self.samples.entry((shape, batch_size)).or_default();
        agg.sum += t_iter;
        agg.count += 1;
        self.max_gpus_seen = self.max_gpus_seen.max(shape.gpus);
        self.max_nodes_seen = self.max_nodes_seen.max(shape.nodes);
    }

    /// Opens a batched observation run for one fixed configuration:
    /// the tree lookup happens once here instead of once per sample.
    /// Feed measurements to [`ObservationRun::observe`] and commit with
    /// [`ThroughputProfiler::record_run`].
    ///
    /// Equivalence contract: a run behaves exactly like calling
    /// [`record`](Self::record) per sample — same validity filtering,
    /// same `sum += t` addition order, same "no entry is created until
    /// a sample is accepted" rule — **provided** nothing else writes
    /// the same `(shape, batch_size)` key while the run is open (the
    /// run snapshots the aggregate and writes it back absolutely).
    pub fn begin_run(&self, shape: PlacementShape, batch_size: u64) -> ObservationRun {
        let agg = self
            .samples
            .get(&(shape, batch_size))
            .copied()
            .unwrap_or_default();
        ObservationRun {
            shape,
            batch_size,
            agg,
            added: 0,
        }
    }

    /// Commits a batched observation run opened by
    /// [`begin_run`](Self::begin_run) and returns whether there was
    /// anything to write. A run that accepted no samples leaves the
    /// profiler untouched (no empty entry, no prior update), exactly
    /// as a sequence of rejected [`record`](Self::record) calls would.
    ///
    /// The run stays open: it goes on from the aggregate it now shares
    /// with the profiler, under the same contract as `begin_run`, so a
    /// caller may keep one run per configuration and commit it only
    /// when the profiler is about to be read.
    pub fn record_run(&mut self, run: &mut ObservationRun) -> bool {
        if run.added == 0 {
            return false;
        }
        *self.samples.entry((run.shape, run.batch_size)).or_default() = run.agg;
        self.max_gpus_seen = self.max_gpus_seen.max(run.shape.gpus);
        self.max_nodes_seen = self.max_nodes_seen.max(run.shape.nodes);
        run.added = 0;
        true
    }

    /// Number of distinct configurations with at least one sample.
    pub fn num_configurations(&self) -> usize {
        self.samples.len()
    }

    /// Total number of recorded samples.
    pub fn num_samples(&self) -> u64 {
        self.samples.values().map(|a| a.count).sum()
    }

    /// The mean iteration time of a configuration, if sampled.
    pub fn mean_t_iter(&self, shape: PlacementShape, batch_size: u64) -> Option<f64> {
        self.samples
            .get(&(shape, batch_size))
            .map(|a| a.sum / a.count as f64)
    }

    /// The per-configuration mean observations, ready for θsys fitting.
    pub fn observations(&self) -> Vec<FitObservation> {
        self.samples
            .iter()
            .map(|(&(shape, batch_size), agg)| FitObservation {
                shape,
                batch_size,
                t_iter: agg.sum / agg.count as f64,
            })
            .collect()
    }

    /// The exploration priors implied by the recorded data.
    pub fn priors(&self) -> FitPriors {
        FitPriors {
            max_gpus_seen: self.max_gpus_seen,
            max_nodes_seen: self.max_nodes_seen,
        }
    }

    /// Largest GPU count this job has ever run with.
    pub fn max_gpus_seen(&self) -> u32 {
        self.max_gpus_seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(g: u32, n: u32) -> PlacementShape {
        PlacementShape::new(g, n).unwrap()
    }

    #[test]
    fn records_and_averages() {
        let mut p = ThroughputProfiler::new();
        p.record(shape(1, 1), 128, 0.2);
        p.record(shape(1, 1), 128, 0.4);
        p.record(shape(2, 1), 128, 0.15);
        assert_eq!(p.num_configurations(), 2);
        assert_eq!(p.num_samples(), 3);
        assert!((p.mean_t_iter(shape(1, 1), 128).unwrap() - 0.3).abs() < 1e-12);
        assert!((p.mean_t_iter(shape(2, 1), 128).unwrap() - 0.15).abs() < 1e-12);
        assert_eq!(p.mean_t_iter(shape(4, 1), 128), None);
    }

    #[test]
    fn ignores_bogus_measurements() {
        let mut p = ThroughputProfiler::new();
        p.record(shape(1, 1), 128, f64::NAN);
        p.record(shape(1, 1), 128, -1.0);
        p.record(shape(1, 1), 128, 0.0);
        p.record(shape(1, 1), 0, 1.0);
        assert_eq!(p.num_samples(), 0);
    }

    #[test]
    fn priors_track_exploration() {
        let mut p = ThroughputProfiler::new();
        assert_eq!(
            p.priors(),
            FitPriors {
                max_gpus_seen: 0,
                max_nodes_seen: 0
            }
        );
        p.record(shape(1, 1), 128, 0.1);
        p.record(shape(4, 2), 128, 0.1);
        let pr = p.priors();
        assert_eq!(pr.max_gpus_seen, 4);
        assert_eq!(pr.max_nodes_seen, 2);
        assert_eq!(p.max_gpus_seen(), 4);
    }

    /// Bitwise check that a batched run equals per-sample recording:
    /// same entries, same sums (identical addition order), same priors.
    #[test]
    fn batched_run_matches_per_sample_recording() {
        let samples = [0.21, 0.19, f64::NAN, -0.5, 0.0, 0.2, 0.23];
        let mut per_sample = ThroughputProfiler::new();
        // Pre-existing data under the same key and another key.
        per_sample.record(shape(2, 1), 256, 0.4);
        per_sample.record(shape(1, 1), 128, 0.5);
        let mut batched = per_sample.clone();

        for &t in &samples {
            per_sample.record(shape(2, 1), 256, t);
        }
        let mut run = batched.begin_run(shape(2, 1), 256);
        for &t in &samples {
            run.observe(t);
        }
        assert_eq!(run.accepted(), 4);
        batched.record_run(&mut run);

        assert_eq!(per_sample, batched);
        assert_eq!(
            per_sample.mean_t_iter(shape(2, 1), 256).unwrap().to_bits(),
            batched.mean_t_iter(shape(2, 1), 256).unwrap().to_bits(),
        );
    }

    /// A run kept open across commits (the engine holds one per
    /// running job, across chunks) ends with the bits of per-sample
    /// recording, whether or not a commit falls between two samples.
    #[test]
    fn run_left_open_across_commits_matches_per_sample_recording() {
        let samples = [0.21, 0.19, f64::NAN, 0.2, 0.23, 0.18];
        let mut per_sample = ThroughputProfiler::new();
        per_sample.record(shape(2, 1), 256, 0.4);
        let mut batched = per_sample.clone();
        let mut run = batched.begin_run(shape(2, 1), 256);
        assert!(!batched.record_run(&mut run), "nothing to write yet");
        for (i, &t) in samples.iter().enumerate() {
            per_sample.record(shape(2, 1), 256, t);
            run.observe(t);
            // Commit after the second sample only: the third to sixth
            // stay uncommitted across the boundary in between.
            if i == 1 {
                assert!(batched.record_run(&mut run));
                assert_eq!(run.accepted(), 0);
                assert_eq!(per_sample, batched);
            }
        }
        assert_ne!(per_sample, batched, "four samples are still in the run");
        assert!(batched.record_run(&mut run));
        assert_eq!(per_sample, batched);
        assert_eq!(
            per_sample.mean_t_iter(shape(2, 1), 256).unwrap().to_bits(),
            batched.mean_t_iter(shape(2, 1), 256).unwrap().to_bits(),
        );
    }

    #[test]
    fn empty_run_creates_no_entry() {
        let mut p = ThroughputProfiler::new();
        let mut run = p.begin_run(shape(4, 2), 512);
        run.observe(f64::INFINITY);
        run.observe(-1.0);
        assert_eq!(run.accepted(), 0);
        p.record_run(&mut run);
        assert_eq!(p.num_configurations(), 0);
        assert_eq!(
            p.priors().max_gpus_seen,
            0,
            "no prior update without samples"
        );

        // batch_size == 0 disables the run entirely.
        let mut run = p.begin_run(shape(1, 1), 0);
        run.observe(0.3);
        assert_eq!(run.accepted(), 0);
        p.record_run(&mut run);
        assert_eq!(p.num_samples(), 0);
    }

    #[test]
    fn committed_run_updates_priors() {
        let mut p = ThroughputProfiler::new();
        let mut run = p.begin_run(shape(8, 2), 1024);
        run.observe(0.12);
        assert_eq!(run.shape(), shape(8, 2));
        p.record_run(&mut run);
        assert_eq!(p.priors().max_gpus_seen, 8);
        assert_eq!(p.priors().max_nodes_seen, 2);
        assert_eq!(p.num_samples(), 1);
    }

    #[test]
    fn observations_reflect_means() {
        let mut p = ThroughputProfiler::new();
        p.record(shape(1, 1), 128, 0.1);
        p.record(shape(1, 1), 256, 0.2);
        p.record(shape(1, 1), 256, 0.3);
        let obs = p.observations();
        assert_eq!(obs.len(), 2);
        let o256 = obs.iter().find(|o| o.batch_size == 256).unwrap();
        assert!((o256.t_iter - 0.25).abs() < 1e-12);
    }
}
