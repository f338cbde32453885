//! The per-job `PolluxAgent` (Sec. 4.1).
//!
//! The agent owns everything job-local: the iteration-time profiler,
//! the gradient-statistics snapshot, the fitted θsys model, and the
//! AdaScale state. At every reporting interval (30 s in the paper) it
//! re-fits θsys and produces an [`AgentReport`] — the goodput model
//! plus scheduling constraints — for `PolluxSched`. Between reports it
//! re-tunes its own batch size and learning rate for whatever
//! allocation it currently holds.

use crate::profiler::{ObservationRun, ThroughputProfiler};
use pollux_models::{
    fit_throughput_params_counted, AdaScale, BatchSizeLimits, EfficiencyModel, FitReport,
    GoodputModel, GradientStats, PlacementShape, ThroughputParams,
};
use pollux_telemetry::Recorder;

/// What the agent reports to `PolluxSched` (the `(θsys, φ_t, m0)`
/// triple of Sec. 4.1, packaged as a ready-to-query goodput model,
/// plus allocation constraints).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgentReport {
    /// The job's goodput model at its current training progress.
    pub model: GoodputModel,
    /// Scale-out cap: at most twice the GPUs ever held (Sec. 4.1's
    /// guard against being "immediately scaled out to arbitrarily many
    /// GPUs").
    pub gpu_cap: u32,
    /// Minimum GPUs on which the initial batch size fits.
    pub min_gpus: u32,
}

/// The agent's job-level tuning decision after a (re-)allocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TuningDecision {
    /// The most efficient batch size `m*` (Eqn 13).
    pub batch_size: u64,
    /// The AdaScale-adapted learning rate for `m*`.
    pub learning_rate: f64,
    /// The AdaScale gain `r_t(m*)`.
    pub gain: f64,
    /// Predicted goodput at `m*` (useful examples/s).
    pub goodput: f64,
}

/// Job-level profiling, model fitting, and tuning.
///
/// # Examples
///
/// ```
/// use pollux_agent::PolluxAgent;
/// use pollux_models::{BatchSizeLimits, GradientStats, PlacementShape};
///
/// let limits = BatchSizeLimits::new(128, 8192, 1024).unwrap();
/// let mut agent = PolluxAgent::new(128, 0.1, limits).unwrap();
///
/// // Training code reports measured iteration times...
/// for (gpus, nodes, t_iter) in [(1, 1, 0.14), (2, 1, 0.09), (4, 1, 0.06)] {
///     let shape = PlacementShape::new(gpus, nodes).unwrap();
///     agent.observe_iteration(shape, 128, t_iter);
/// }
/// // ...and gradient statistics (variance, |grad|²) at m0.
/// agent.observe_gradient_stats(GradientStats::new(12.0, 1.0).unwrap());
///
/// // The agent fits θsys and can now tune (m*, η) for any placement
/// // and report its goodput model to the scheduler.
/// assert!(agent.refit());
/// let tuning = agent.tune(PlacementShape::new(4, 1).unwrap()).unwrap();
/// assert!(tuning.batch_size >= 128);
/// let report = agent.report().unwrap();
/// assert!(report.gpu_cap >= 8); // twice the 4 GPUs it has held
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PolluxAgent {
    limits: BatchSizeLimits,
    adascale: AdaScale,
    profiler: ThroughputProfiler,
    latest_stats: Option<GradientStats>,
    fitted: Option<FitReport>,
    max_gpus_allocated: u32,
}

impl PolluxAgent {
    /// Creates an agent for a job submitted with `(m0, η0)` and the
    /// given batch-size limits (`limits.min` must equal `m0`).
    pub fn new(m0: u64, eta0: f64, limits: BatchSizeLimits) -> Option<Self> {
        if limits.min != m0 {
            return None;
        }
        Some(Self {
            limits,
            adascale: AdaScale::new(eta0, m0)?,
            profiler: ThroughputProfiler::new(),
            latest_stats: None,
            fitted: None,
            max_gpus_allocated: 0,
        })
    }

    /// The job's initial batch size.
    pub fn m0(&self) -> u64 {
        self.adascale.m0()
    }

    /// The job's batch-size limits.
    pub fn limits(&self) -> BatchSizeLimits {
        self.limits
    }

    /// Read access to the profiler (e.g. for diagnostics).
    pub fn profiler(&self) -> &ThroughputProfiler {
        &self.profiler
    }

    /// The most recent θsys fit, if any.
    pub fn fit(&self) -> Option<&FitReport> {
        self.fitted.as_ref()
    }

    /// Notes that the scheduler granted this job `shape` (even before
    /// any iteration completes), feeding the lifetime scale-out cap.
    pub fn note_allocation(&mut self, shape: PlacementShape) {
        self.max_gpus_allocated = self.max_gpus_allocated.max(shape.gpus);
    }

    /// Records one measured training iteration.
    pub fn observe_iteration(&mut self, shape: PlacementShape, batch_size: u64, t_iter: f64) {
        self.note_allocation(shape);
        self.profiler.record(shape, batch_size, t_iter);
    }

    /// Opens a batched observation run for a stretch of iterations
    /// under one fixed configuration (see
    /// [`ThroughputProfiler::begin_run`] for the equivalence contract).
    /// Like [`observe_iteration`](Self::observe_iteration) this notes
    /// the allocation up front; `note_allocation` is an idempotent max,
    /// so noting once per run equals noting once per iteration.
    pub fn begin_observation_run(
        &mut self,
        shape: PlacementShape,
        batch_size: u64,
    ) -> ObservationRun {
        self.note_allocation(shape);
        self.profiler.begin_run(shape, batch_size)
    }

    /// Commits a batched observation run opened by
    /// [`begin_observation_run`](Self::begin_observation_run); the run
    /// stays open (see [`ThroughputProfiler::record_run`]). Returns
    /// whether there was anything to write.
    pub fn record_observation_run(&mut self, run: &mut ObservationRun) -> bool {
        self.profiler.record_run(run)
    }

    /// Records the latest smoothed gradient statistics (from a
    /// [`crate::gns`] estimator, or replayed by the simulator).
    pub fn observe_gradient_stats(&mut self, stats: GradientStats) {
        self.latest_stats = Some(stats);
    }

    /// Re-fits θsys to all profiled data, warm-starting from the
    /// previous fit when one exists (consecutive refits usually share a
    /// basin, so the expensive multi-start restarts are skipped —
    /// [`FitReport::used_warm_start`]). Returns `true` when a fit was
    /// produced (needs at least one valid observation).
    pub fn refit(&mut self) -> bool {
        self.refit_recorded(&Recorder::disabled())
    }

    /// [`refit`](Self::refit) under a recorder: times the fit as an
    /// `agent/refit` span and records fit quality (an `agent/rmsle_1e6`
    /// histogram of `RMSLE · 10⁶`, since histogram buckets are integer
    /// powers of two), the outcome counters (`agent/refits` =
    /// `agent/refit_warm_accepted` + `agent/refit_cold` +
    /// `agent/refit_failed`) and the solver work (`agent/refit_evals`,
    /// `agent/refit_iters` histograms: value-and-gradient evaluations
    /// and quasi-Newton iterations per refit). Recording only reads the
    /// fit's outcome.
    pub fn refit_recorded(&mut self, recorder: &Recorder) -> bool {
        let warm = self.fitted.as_ref().map(|f| &f.params);
        let span = recorder.span("agent", "refit");
        let fitted = fit_throughput_params_counted(
            &self.profiler.observations(),
            self.profiler.priors(),
            warm,
        );
        drop(span);
        recorder.incr("agent", "refits", 1);
        let Some((report, work)) = fitted else {
            recorder.incr("agent", "refit_failed", 1);
            return false;
        };
        recorder.observe("agent", "rmsle_1e6", (report.rmsle.max(0.0) * 1e6) as u64);
        recorder.observe("agent", "refit_evals", work.evals);
        recorder.observe("agent", "refit_iters", work.iters);
        if report.used_warm_start {
            recorder.incr("agent", "refit_warm_accepted", 1);
        } else {
            recorder.incr("agent", "refit_cold", 1);
        }
        self.fitted = Some(report);
        true
    }

    /// The fitted throughput parameters, or `None` before any fit.
    pub fn throughput_params(&self) -> Option<ThroughputParams> {
        self.fitted.as_ref().map(|f| f.params)
    }

    /// The current statistical-efficiency snapshot.
    ///
    /// Before any gradient statistics arrive the agent is maximally
    /// conservative: `φ_t = 0`, i.e. no batch size above `m0` gains
    /// anything, so tuning stays at `m0` until evidence arrives.
    pub fn efficiency_model(&self) -> EfficiencyModel {
        let phi = self
            .latest_stats
            .map(|s| s.noise_scale(self.m0()))
            .unwrap_or(0.0);
        EfficiencyModel::from_noise_scale(self.m0(), phi.max(0.0))
            .expect("m0 >= 1 and phi >= 0 by construction")
    }

    /// The combined goodput model, or `None` before the first θsys fit.
    pub fn goodput_model(&self) -> Option<GoodputModel> {
        let params = self.throughput_params()?;
        GoodputModel::new(params, self.efficiency_model(), self.limits)
    }

    /// Builds the periodic report for `PolluxSched`, or `None` before
    /// the first fit.
    pub fn report(&self) -> Option<AgentReport> {
        let model = self.goodput_model()?;
        let min_gpus = self.limits.min_gpus().max(1);
        // The cap starts at 2 (a fresh single-GPU job may grow to two
        // GPUs) and always admits the minimum feasible allocation.
        let gpu_cap = (self.max_gpus_allocated * 2).max(2).max(min_gpus);
        Some(AgentReport {
            model,
            gpu_cap,
            min_gpus,
        })
    }

    /// Determines `(m*, η)` for the given allocation (Eqn 13 +
    /// AdaScale), or `None` when no fit exists yet or the allocation
    /// cannot fit `m0`.
    pub fn tune(&self, shape: PlacementShape) -> Option<TuningDecision> {
        let model = self.goodput_model()?;
        let (m_star, goodput) = model.optimal_batch_size(shape)?;
        let eff = self.efficiency_model();
        Some(TuningDecision {
            batch_size: m_star,
            learning_rate: self.adascale.learning_rate(&eff, m_star),
            gain: self.adascale.gain(&eff, m_star),
            goodput,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn true_params() -> ThroughputParams {
        ThroughputParams::new(0.06, 6.0e-4, 0.04, 0.002, 0.18, 0.006, 2.0).unwrap()
    }

    fn agent() -> PolluxAgent {
        let limits = BatchSizeLimits::new(128, 32_768, 512).unwrap();
        PolluxAgent::new(128, 0.1, limits).unwrap()
    }

    fn feed_profile(a: &mut PolluxAgent, configs: &[(u32, u32, u64)]) {
        let p = true_params();
        for &(gpus, nodes, m) in configs {
            let shape = PlacementShape::new(gpus, nodes).unwrap();
            for _ in 0..3 {
                a.observe_iteration(shape, m, p.t_iter(shape, m));
            }
        }
    }

    #[test]
    fn construction_validates_m0_consistency() {
        let limits = BatchSizeLimits::new(128, 1024, 512).unwrap();
        assert!(PolluxAgent::new(128, 0.1, limits).is_some());
        assert!(PolluxAgent::new(64, 0.1, limits).is_none());
        assert!(PolluxAgent::new(128, 0.0, limits).is_none());
    }

    #[test]
    fn no_report_before_first_fit() {
        let a = agent();
        assert!(a.report().is_none());
        assert!(a.tune(PlacementShape::single()).is_none());
    }

    #[test]
    fn conservative_efficiency_before_gradient_stats() {
        let mut a = agent();
        feed_profile(&mut a, &[(1, 1, 128), (1, 1, 256)]);
        assert!(a.refit());
        // φ defaults to 0: tuning sticks to m0.
        let d = a.tune(PlacementShape::single()).unwrap();
        assert_eq!(d.batch_size, 128);
        assert!((d.learning_rate - 0.1).abs() < 1e-9);
        assert!((d.gain - 1.0).abs() < 1e-9);
    }

    #[test]
    fn high_noise_scale_grows_batch_and_lr() {
        let mut a = agent();
        feed_profile(
            &mut a,
            &[
                (1, 1, 128),
                (2, 1, 256),
                (4, 1, 512),
                (4, 2, 512),
                (8, 2, 1024),
            ],
        );
        assert!(a.refit());
        a.observe_gradient_stats(GradientStats::new(40.0, 1.0).unwrap());
        // φ = 128·40 = 5120 examples: large batches stay efficient.
        let shape = PlacementShape::new(8, 2).unwrap();
        let d = a.tune(shape).unwrap();
        assert!(d.batch_size > 512, "m* = {}", d.batch_size);
        assert!(d.learning_rate > 0.1, "lr = {}", d.learning_rate);
        assert!(d.gain > 1.0);
        assert!(d.goodput > 0.0);
    }

    #[test]
    fn gpu_cap_is_twice_lifetime_max() {
        let mut a = agent();
        feed_profile(&mut a, &[(1, 1, 128)]);
        a.refit();
        let r = a.report().unwrap();
        assert_eq!(r.gpu_cap, 2);
        a.note_allocation(PlacementShape::new(6, 2).unwrap());
        let r = a.report().unwrap();
        assert_eq!(r.gpu_cap, 12);
        // The cap never shrinks when the job later runs smaller.
        a.note_allocation(PlacementShape::single());
        assert_eq!(a.report().unwrap().gpu_cap, 12);
    }

    #[test]
    fn min_gpus_respects_memory_limits() {
        // m0 = 1024 at 256 per GPU requires 4 GPUs.
        let limits = BatchSizeLimits::new(1024, 32_768, 256).unwrap();
        let mut a = PolluxAgent::new(1024, 0.1, limits).unwrap();
        let shape = PlacementShape::new(4, 1).unwrap();
        let p = true_params();
        a.observe_iteration(shape, 1024, p.t_iter(shape, 1024));
        a.refit();
        let r = a.report().unwrap();
        assert_eq!(r.min_gpus, 4);
        assert!(r.gpu_cap >= 4);
        // Tuning on an infeasible shape returns None.
        assert!(a.tune(PlacementShape::single()).is_none());
    }

    #[test]
    fn report_model_predicts_reasonable_throughput() {
        let mut a = agent();
        feed_profile(
            &mut a,
            &[
                (1, 1, 128),
                (1, 1, 256),
                (2, 1, 256),
                (4, 1, 512),
                (4, 2, 512),
                (8, 2, 1024),
                (16, 4, 2048),
            ],
        );
        assert!(a.refit());
        a.observe_gradient_stats(GradientStats::new(10.0, 1.0).unwrap());
        let r = a.report().unwrap();
        let truth = true_params();
        for (g, n, m) in [(2u32, 1u32, 256u64), (8, 2, 1024)] {
            let shape = PlacementShape::new(g, n).unwrap();
            let pred = r.model.throughput.throughput(shape, m);
            let actual = truth.throughput(shape, m);
            assert!(
                (pred - actual).abs() / actual < 0.25,
                "({g},{n},{m}): pred {pred} vs actual {actual}"
            );
        }
    }

    #[test]
    fn refit_fails_gracefully_without_data() {
        let mut a = agent();
        assert!(!a.refit());
        assert!(a.fit().is_none());
    }

    #[test]
    fn second_refit_warm_starts_from_first() {
        let mut a = agent();
        feed_profile(&mut a, &[(1, 1, 128), (2, 1, 256), (4, 1, 512)]);
        assert!(a.refit());
        assert!(!a.fit().unwrap().used_warm_start, "first fit is cold");
        // A few more observations under the same prior mask: the warm
        // solve from the previous optimum converges immediately.
        feed_profile(&mut a, &[(4, 1, 1024), (2, 1, 512)]);
        assert!(a.refit());
        let fit = a.fit().unwrap();
        assert!(fit.used_warm_start, "rmsle = {}", fit.rmsle);
    }

    #[test]
    fn recorded_refits_are_the_same_fits_and_count_solver_work() {
        use pollux_telemetry::{Event, MemorySink};
        use std::sync::Arc;

        let sink = Arc::new(MemorySink::new(64));
        let recorder = Recorder::new(sink.clone());
        let mut plain = agent();
        feed_profile(&mut plain, &[(1, 1, 128), (2, 1, 256), (4, 1, 512)]);
        let mut recorded = plain.clone();

        // A cold refit, then a warm one: the recorder changes neither.
        for _ in 0..2 {
            assert!(plain.refit());
            assert!(recorded.refit_recorded(&recorder));
            assert_eq!(recorded, plain);
        }

        recorder.flush();
        let events = sink.drain();
        let hist = |name: &str| {
            events.iter().find_map(|e| match e {
                Event::Hist { count, buckets, .. }
                    if e.subsystem() == "agent" && e.name() == name =>
                {
                    Some((*count, buckets.clone()))
                }
                _ => None,
            })
        };
        for name in ["refit_evals", "refit_iters", "rmsle_1e6"] {
            let (count, _) = hist(name).unwrap_or_else(|| panic!("no agent/{name} histogram"));
            assert_eq!(count, 2, "agent/{name}");
        }
        // The cold fit runs four solves, so at least four evaluations
        // (log₂ bucket 3 or above); no refit evaluates zero times.
        let (_, evals) = hist("refit_evals").unwrap();
        assert!(evals.iter().all(|&(bucket, _)| bucket >= 1), "{evals:?}");
        assert!(evals.iter().any(|&(bucket, _)| bucket >= 3), "{evals:?}");
        assert_eq!(recorder.counter_value("agent", "refits"), 2);
        assert_eq!(recorder.counter_value("agent", "refit_cold"), 1);
        assert_eq!(recorder.counter_value("agent", "refit_warm_accepted"), 1);
    }
}
