//! The single home for converting policy job views into scheduler
//! jobs: fairness weights (Eqn 16) and the prior-driven exploration
//! bootstrap (Sec. 4.1). Previously duplicated between the simulator
//! policy wrapper and the live service's round loop.

use crate::policy::PolicyJobView;
use pollux_cluster::JobId;
use pollux_models::{BatchSizeLimits, EfficiencyModel, GoodputModel, ThroughputParams};
use pollux_sched::{job_weight, SchedJob, WeightConfig};

/// Builds the prior-driven bootstrap [`SchedJob`] for a job that has
/// not produced an agent report yet.
///
/// A fresh job has no throughput observations, so its bootstrap model
/// assumes *perfect scaling* (`T_grad ∝ m/K`, no sync cost) and zero
/// noise scale (no batch-size benefit), with the scale-out cap
/// starting at 2 — the paper's exploration behavior (Sec. 4.1,
/// "Prior-driven exploration"): new jobs start small and are grown as
/// their agents learn.
pub fn bootstrap_sched_job(
    id: JobId,
    limits: BatchSizeLimits,
    weight: f64,
    current_placement: Vec<u32>,
) -> SchedJob {
    let params = ThroughputParams::new(0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0)
        .expect("static bootstrap params are valid");
    let eff = EfficiencyModel::from_noise_scale(limits.min, 0.0).expect("limits.min >= 1");
    let model = GoodputModel::new(params, eff, limits).expect("eff.m0 == limits.min");
    let min_gpus = limits.min_gpus().max(1);
    SchedJob {
        id,
        model,
        min_gpus,
        gpu_cap: min_gpus.max(2),
        weight,
        current_placement,
    }
}

/// Converts policy views into scheduler jobs: the fairness weight from
/// attained GPU-time, the agent's fitted goodput model when a report
/// exists, and the bootstrap prior ([`bootstrap_sched_job`])
/// otherwise.
pub fn sched_jobs_from_views(weights: &WeightConfig, jobs: &[PolicyJobView<'_>]) -> Vec<SchedJob> {
    jobs.iter()
        .map(|view| sched_job(view, job_weight(weights, view.gputime)))
        .collect()
}

/// One view's scheduler job at fairness weight `weight`.
fn sched_job(view: &PolicyJobView<'_>, weight: f64) -> SchedJob {
    let current_placement = view.current_placement.to_vec();
    match &view.report {
        Some(report) => SchedJob {
            id: view.id,
            model: report.model,
            min_gpus: report.min_gpus,
            gpu_cap: report.gpu_cap,
            weight,
            current_placement,
        },
        None => bootstrap_sched_job(view.id, view.limits, weight, current_placement),
    }
}

/// Cross-round cache of the view → [`SchedJob`] conversion, so a quiet
/// round (no arrivals, finishes, refits, or placement changes) reuses
/// every entry instead of re-deriving models and re-allocating
/// placement rows.
///
/// Entries are keyed by *position*: job `k` this round is compared
/// against entry `k` from the previous round, which matches how
/// drivers present views (stable submission order with finished jobs
/// removed). An entry is reused when the id matches and its
/// model-defining inputs are unchanged — for reported jobs the fitted
/// model/caps, for bootstrap jobs the batch-size limits. Fairness
/// weights are always refreshed in place (attained service grows every
/// round) and do not count as a rebuild; a placement change is applied
/// in place but *does* count as rebuilt, since downstream consumers
/// key warm-start state off placement stability.
///
/// Correctness never depends on the cache: `refresh` is
/// `debug_assert`-cross-checked against [`sched_jobs_from_views`] and
/// is bit-identical to it by construction.
#[derive(Debug, Default)]
pub struct SchedJobCache {
    jobs: Vec<SchedJob>,
    /// Whether entry `k` was derived from an agent report (vs the
    /// bootstrap prior). A job crossing that boundary is always
    /// rebuilt.
    from_report: Vec<bool>,
    /// The limits a bootstrap entry was derived from.
    limits: Vec<BatchSizeLimits>,
    last_rebuilt: u64,
}

impl SchedJobCache {
    /// Brings the cache in line with this round's views and returns
    /// the scheduler jobs. Equivalent to [`sched_jobs_from_views`].
    pub fn refresh(&mut self, weights: &WeightConfig, views: &[PolicyJobView<'_>]) -> &[SchedJob] {
        let prior = self.jobs.len().min(views.len());
        self.jobs.truncate(views.len());
        self.from_report.truncate(views.len());
        self.limits.truncate(views.len());
        let mut rebuilt = 0u64;
        for (k, view) in views.iter().enumerate() {
            let weight = job_weight(weights, view.gputime);
            if k < prior && self.entry_matches(k, view) {
                let job = &mut self.jobs[k];
                job.weight = weight;
                if job.current_placement.as_slice() != view.current_placement {
                    job.current_placement.clear();
                    job.current_placement
                        .extend_from_slice(view.current_placement);
                    rebuilt += 1;
                }
                continue;
            }
            let entry = sched_job(view, weight);
            let from_report = view.report.is_some();
            if k < self.jobs.len() {
                self.jobs[k] = entry;
                self.from_report[k] = from_report;
                self.limits[k] = view.limits;
            } else {
                self.jobs.push(entry);
                self.from_report.push(from_report);
                self.limits.push(view.limits);
            }
            rebuilt += 1;
        }
        self.last_rebuilt = rebuilt;
        debug_assert_eq!(
            self.jobs,
            sched_jobs_from_views(weights, views),
            "SchedJobCache diverged from a fresh conversion"
        );
        &self.jobs
    }

    fn entry_matches(&self, k: usize, view: &PolicyJobView<'_>) -> bool {
        let job = &self.jobs[k];
        if job.id != view.id {
            return false;
        }
        match &view.report {
            Some(r) => {
                self.from_report[k]
                    && job.model == r.model
                    && job.min_gpus == r.min_gpus
                    && job.gpu_cap == r.gpu_cap
            }
            None => !self.from_report[k] && self.limits[k] == view.limits,
        }
    }

    /// The jobs produced by the most recent [`Self::refresh`]
    /// (immutable re-borrow, for callers that need the rebuild counts
    /// between refreshing and consuming).
    pub fn jobs(&self) -> &[SchedJob] {
        &self.jobs
    }

    /// Entries rebuilt by the most recent [`Self::refresh`] (a policy
    /// reports them as `control/views_rebuilt`); the rest were reused.
    pub fn last_rebuilt(&self) -> u64 {
        self.last_rebuilt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bootstrap_caps_fresh_jobs_at_two_gpus() {
        let limits = BatchSizeLimits::new(128, 4096, 512).unwrap();
        let j = bootstrap_sched_job(JobId(7), limits, 1.0, vec![0, 0]);
        assert_eq!(j.id, JobId(7));
        assert_eq!(j.min_gpus, 1);
        assert_eq!(j.gpu_cap, 2);
        assert_eq!(j.weight, 1.0);
        // Perfect scaling, zero noise: goodput is defined at the
        // minimum batch and the model is usable by the GA.
        assert!(
            j.model
                .goodput(pollux_models::PlacementShape::single(), limits.min)
                > 0.0
        );
    }

    #[test]
    fn views_with_reports_use_the_fitted_model() {
        use pollux_agent::PolluxAgent;
        use pollux_models::PlacementShape;
        use pollux_workload::{ModelKind, UserConfig};

        let profile = ModelKind::ResNet18Cifar10.profile();
        let mut agent = PolluxAgent::new(profile.m0, profile.eta0, profile.limits).unwrap();
        for (g, n) in [(1u32, 1u32), (2, 1), (4, 1), (8, 2)] {
            let shape = PlacementShape::new(g, n).unwrap();
            agent.observe_iteration(shape, profile.m0, profile.params.t_iter(shape, profile.m0));
        }
        assert!(agent.refit());
        let report = agent.report();
        assert!(report.is_some());

        let placement = vec![0u32; 4];
        let mk_view = |report| PolicyJobView {
            id: JobId(0),
            user: UserConfig {
                gpus: 1,
                batch_size: profile.m0,
            },
            profile: Some(&profile),
            limits: profile.limits,
            report,
            gputime: 3600.0,
            submit_time: 0.0,
            current_placement: &placement,
            started: false,
            batch_size: profile.m0,
            remaining_work: 1e6,
        };
        let weights = WeightConfig::default();
        let fitted = sched_jobs_from_views(&weights, &[mk_view(report)]);
        let fresh = sched_jobs_from_views(&weights, &[mk_view(None)]);
        assert_eq!(fitted.len(), 1);
        // The fitted job inherits the agent's cap; the fresh one is
        // bootstrapped to the exploration cap of 2.
        assert!(fitted[0].gpu_cap >= fresh[0].gpu_cap);
        assert_eq!(fresh[0].gpu_cap, 2);
        // Both carry the same attained-service weight.
        assert_eq!(fitted[0].weight, job_weight(&weights, 3600.0));
        assert_eq!(fitted[0].weight, fresh[0].weight);
    }

    fn bare_view<'a>(id: u32, placement: &'a [u32], gputime: f64) -> PolicyJobView<'a> {
        use pollux_workload::UserConfig;
        PolicyJobView {
            id: JobId(id),
            user: UserConfig {
                gpus: 1,
                batch_size: 128,
            },
            profile: None,
            limits: BatchSizeLimits::new(128, 4096, 512).unwrap(),
            report: None,
            gputime,
            submit_time: 0.0,
            current_placement: placement,
            started: false,
            batch_size: 128,
            remaining_work: 1e6,
        }
    }

    #[test]
    fn cache_reuses_quiet_rounds_and_matches_fresh_conversion() {
        let weights = WeightConfig::default();
        let mut cache = SchedJobCache::default();
        let p0 = vec![2u32, 0];
        let p1 = vec![0u32, 2];
        let views = [bare_view(1, &p0, 0.0), bare_view(2, &p1, 0.0)];
        // Round 1: everything is new.
        cache.refresh(&weights, &views);
        assert_eq!(cache.last_rebuilt(), 2);
        // Round 2: same views but more attained service — a weight
        // update is not a rebuild.
        let views = [bare_view(1, &p0, 60.0), bare_view(2, &p1, 60.0)];
        let jobs = cache.refresh(&weights, &views).to_vec();
        assert_eq!(cache.last_rebuilt(), 0);
        assert_eq!(jobs, sched_jobs_from_views(&weights, &views));
        assert_eq!(jobs[0].weight, job_weight(&weights, 60.0));
    }

    #[test]
    fn cache_rebuilds_on_placement_change_arrival_and_departure() {
        let weights = WeightConfig::default();
        let mut cache = SchedJobCache::default();
        let idle = vec![0u32, 0];
        let views = [bare_view(1, &idle, 0.0), bare_view(2, &idle, 0.0)];
        cache.refresh(&weights, &views);
        // Job 1's placement changed; job 2 departed; job 3 arrived in
        // its position (id mismatch at index 1 forces a rebuild there).
        let moved = vec![2u32, 0];
        let views = [bare_view(1, &moved, 0.0), bare_view(3, &idle, 0.0)];
        cache.refresh(&weights, &views);
        assert_eq!(cache.last_rebuilt(), 2);
        assert_eq!(cache.jobs(), &sched_jobs_from_views(&weights, &views)[..]);
        // Shrink: only job 1 remains, untouched since last round.
        let views = [bare_view(1, &moved, 0.0)];
        cache.refresh(&weights, &views);
        assert_eq!(cache.last_rebuilt(), 0);
        assert_eq!(cache.jobs().len(), 1);
    }

    #[test]
    fn cache_rebuilds_when_a_job_gains_a_report() {
        use pollux_agent::PolluxAgent;
        use pollux_models::PlacementShape;
        use pollux_workload::{ModelKind, UserConfig};

        let profile = ModelKind::ResNet18Cifar10.profile();
        let mut agent = PolluxAgent::new(profile.m0, profile.eta0, profile.limits).unwrap();
        for (g, n) in [(1u32, 1u32), (2, 1), (4, 1), (8, 2)] {
            let shape = PlacementShape::new(g, n).unwrap();
            agent.observe_iteration(shape, profile.m0, profile.params.t_iter(shape, profile.m0));
        }
        assert!(agent.refit());
        let report = agent.report();
        assert!(report.is_some());

        let placement = vec![1u32, 0];
        let mk_view = |report| PolicyJobView {
            id: JobId(1),
            user: UserConfig {
                gpus: 1,
                batch_size: profile.m0,
            },
            profile: Some(&profile),
            limits: profile.limits,
            report,
            gputime: 0.0,
            submit_time: 0.0,
            current_placement: &placement,
            started: true,
            batch_size: profile.m0,
            remaining_work: 1e6,
        };
        let weights = WeightConfig::default();
        let mut cache = SchedJobCache::default();
        // Bootstrap entry first, then the agent's first refit lands:
        // crossing the bootstrap → report boundary is a rebuild.
        cache.refresh(&weights, &[mk_view(None)]);
        let views = [mk_view(report)];
        cache.refresh(&weights, &views);
        assert_eq!(cache.last_rebuilt(), 1);
        assert_eq!(cache.jobs(), &sched_jobs_from_views(&weights, &views)[..]);
        // The refit is sticky: the next round reuses the entry.
        cache.refresh(&weights, &views);
        assert_eq!(cache.last_rebuilt(), 0);
    }
}
