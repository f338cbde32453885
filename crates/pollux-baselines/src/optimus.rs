//! Optimus (Peng et al., EuroSys '18), as idealized in the Pollux
//! evaluation ("Optimus+Oracle", Sec. 5.2).
//!
//! Only-resource-adaptive: GPUs are assigned by greedy marginal
//! reduction of estimated remaining time, but the batch size stays
//! user-fixed. Following the paper's concessions:
//!
//! - Optimus's parameter-server-specific performance model is replaced
//!   by the same throughput model Pollux uses (the agent's fit);
//! - remaining work is an **oracle** (`PolicyJobView::remaining_work`)
//!   rather than a convergence-curve extrapolation;
//! - a minimum GPU count is enforced so the user batch size fits in
//!   GPU memory.
//!
//! Decomposed Blox-style (DESIGN.md §10): [`OptimusAdmission`] owns
//! the minimum-allocation pass and the marginal-gain GPU auction;
//! placement is the shared [`ConsolidatedPlacement`] packing largest
//! jobs first; preemption is [`Preemption::All`]. [`optimus`] composes the
//! three. The staged form is pinned byte-identical to the
//! pre-decomposition monolith by
//! `pollux-core/tests/baseline_golden.rs`.

use pollux_cluster::ClusterSpec;
use pollux_control::{
    ranked_backfill, AdmissionPolicy, Admitted, ConsolidatedPlacement, PolicyJobView, Preemption,
    StagedScheduler,
};
use pollux_models::PlacementShape;
use rand::rngs::StdRng;

/// The Optimus+Oracle admission stage: every job gets the fewest GPUs
/// its user batch size fits on (in submission order while capacity
/// lasts), then spare GPUs go one at a time to the job with the best
/// marginal remaining-time reduction. Marginal gains assume a K-GPU
/// job is packed onto the cluster's widest nodes.
#[derive(Debug, Clone, Copy, Default)]
pub struct OptimusAdmission;

impl OptimusAdmission {
    /// Estimated time to completion with `k` GPUs at the user batch
    /// size on `gpus_per_node`-GPU nodes, or `f64::INFINITY` when
    /// infeasible/unknown.
    fn remaining_time(&self, job: &PolicyJobView<'_>, k: u32, gpus_per_node: u32) -> f64 {
        if k == 0 {
            return f64::INFINITY;
        }
        let Some(report) = &job.report else {
            // No model yet: pretend 1 GPU is as good as it gets, which
            // makes marginal gains zero and keeps the job at its
            // minimum allocation until a report exists.
            return job.remaining_work;
        };
        let nodes = k.div_ceil(gpus_per_node).max(1);
        let Some(shape) = PlacementShape::new(k, nodes.min(k)) else {
            return f64::INFINITY;
        };
        let m = job.batch_size;
        let tput = report.model.raw_throughput(shape, m);
        let eff = report.model.efficiency.efficiency(m);
        let goodput = tput * eff;
        if goodput <= 0.0 {
            f64::INFINITY
        } else {
            job.remaining_work / goodput
        }
    }

    /// The fewest GPUs on which the job's user batch size fits.
    fn min_gpus(&self, job: &PolicyJobView<'_>) -> u32 {
        job.batch_size
            .div_ceil(job.limits.max_per_gpu)
            .clamp(1, u32::MAX as u64) as u32
    }
}

impl AdmissionPolicy for OptimusAdmission {
    fn name(&self) -> &'static str {
        "marginal-gain"
    }

    fn admit(
        &mut self,
        _now: f64,
        jobs: &[PolicyJobView<'_>],
        held: &[bool],
        free: &[u32],
        spec: &ClusterSpec,
        _rng: &mut StdRng,
    ) -> Vec<Admitted> {
        let gpus_per_node = spec.iter().map(|(_, s)| s.gpus).max().unwrap_or(1);

        // Give every job its minimum (the shared backfill, every job
        // ranked alike, so in submission order while capacity lasts),
        // then add GPUs one at a time to the job with the best marginal
        // remaining-time reduction.
        let mut assigned: Vec<u32> = vec![0; jobs.len()];
        let mut budget: u32 = free.iter().sum();
        let minimums = ranked_backfill(jobs, held, |_| 0.0, |j| self.min_gpus(j), &mut budget);
        for a in minimums {
            assigned[a.row] = a.gpus;
        }
        while budget > 0 {
            let mut best: Option<(usize, f64)> = None;
            for (j, view) in jobs.iter().enumerate() {
                if assigned[j] == 0 {
                    continue; // Held, or didn't even fit its minimum.
                }
                let cur = self.remaining_time(view, assigned[j], gpus_per_node);
                let next = self.remaining_time(view, assigned[j] + 1, gpus_per_node);
                let gain = cur - next;
                if gain > 1e-9 && best.is_none_or(|(_, g)| gain > g) {
                    best = Some((j, gain));
                }
            }
            match best {
                Some((j, _)) => {
                    assigned[j] += 1;
                    budget -= 1;
                }
                None => break,
            }
        }

        // Row order: the largest-first placement stage re-sorts, so the
        // admitted order only breaks its ties — exactly as the
        // monolith's stable sort over row-ordered candidates did.
        (0..jobs.len())
            .filter(|&j| assigned[j] > 0)
            .map(|j| Admitted {
                row: j,
                gpus: assigned[j],
            })
            .collect()
    }
}

/// The Optimus+Oracle scheduling policy: marginal-gain admission,
/// consolidated placement largest-first, full preemption.
pub fn optimus() -> StagedScheduler {
    StagedScheduler::new(
        "optimus+oracle",
        OptimusAdmission,
        ConsolidatedPlacement::largest_first(),
        Preemption::All,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pollux_agent::PolluxAgent;
    use pollux_cluster::JobId;
    use pollux_control::SchedulingPolicy;
    use pollux_models::GradientStats;
    use pollux_workload::{ModelKind, ModelProfile, UserConfig};
    use rand::SeedableRng;

    /// Builds a job view with a real fitted agent report.
    struct Owned {
        profile: ModelProfile,
        agent: PolluxAgent,
        placement: Vec<u32>,
    }

    impl Owned {
        fn new(kind: ModelKind, phi: f64, num_nodes: usize) -> Self {
            let profile = kind.profile();
            let mut agent = PolluxAgent::new(profile.m0, profile.eta0, profile.limits).unwrap();
            for (g, n) in [(1u32, 1u32), (2, 1), (4, 1), (4, 2), (8, 2), (16, 4)] {
                let shape = PlacementShape::new(g, n).unwrap();
                for mult in [1u64, 2, 4] {
                    let m = profile.m0 * mult;
                    if profile
                        .limits
                        .range(shape)
                        .is_some_and(|(lo, hi)| m >= lo && m <= hi)
                    {
                        agent.observe_iteration(shape, m, profile.params.t_iter(shape, m));
                    }
                }
            }
            assert!(agent.refit());
            agent.observe_gradient_stats(GradientStats::new(phi / profile.m0 as f64, 1.0).unwrap());
            Self {
                profile,
                agent,
                placement: vec![0; num_nodes],
            }
        }

        fn view(&self, id: u32, remaining: f64, batch: u64) -> PolicyJobView<'_> {
            PolicyJobView {
                id: JobId(id),
                user: UserConfig {
                    gpus: 1,
                    batch_size: batch,
                },
                profile: Some(&self.profile),
                limits: self.profile.limits,
                report: self.agent.report(),
                gputime: 0.0,
                submit_time: id as f64,
                current_placement: &self.placement,
                started: false,
                batch_size: batch,
                remaining_work: remaining,
            }
        }
    }

    #[test]
    fn gives_more_gpus_to_longer_jobs() {
        // Two identical models with a large batch that scales well; the
        // one with 10x remaining work gets more GPUs.
        let a = Owned::new(ModelKind::ResNet18Cifar10, 4000.0, 2);
        let b = Owned::new(ModelKind::ResNet18Cifar10, 4000.0, 2);
        let jobs = vec![a.view(0, 2.0e6, 1024), b.view(1, 2.0e5, 1024)];
        let spec = ClusterSpec::homogeneous(2, 4).unwrap();
        let mut opt = optimus();
        let mut rng = StdRng::seed_from_u64(0);
        let m = opt.schedule(0.0, &jobs, &spec, &mut rng);
        assert!(
            m.gpus_of(0) > m.gpus_of(1),
            "long job {} vs short job {}\n{m}",
            m.gpus_of(0),
            m.gpus_of(1)
        );
        assert!(m.gpus_of(1) >= 1);
        assert!(m.is_feasible(&spec));
    }

    #[test]
    fn respects_batch_memory_minimum() {
        // DeepSpeech2 with batch 256 at 64/GPU needs >= 4 GPUs.
        let a = Owned::new(ModelKind::DeepSpeech2Arctic, 300.0, 2);
        let jobs = vec![a.view(0, 1e6, 256)];
        let spec = ClusterSpec::homogeneous(2, 4).unwrap();
        let mut opt = optimus();
        let mut rng = StdRng::seed_from_u64(0);
        let m = opt.schedule(0.0, &jobs, &spec, &mut rng);
        assert!(m.gpus_of(0) >= 4, "got {} GPUs", m.gpus_of(0));
    }

    #[test]
    fn stops_adding_gpus_without_marginal_gain() {
        // A job with a small fixed batch saturates quickly: Optimus
        // should not hand it the whole cluster.
        let a = Owned::new(ModelKind::Yolov3Voc, 100.0, 4);
        let jobs = vec![a.view(0, 1e6, 8)];
        let spec = ClusterSpec::homogeneous(4, 4).unwrap();
        let mut opt = optimus();
        let mut rng = StdRng::seed_from_u64(0);
        let m = opt.schedule(0.0, &jobs, &spec, &mut rng);
        assert!(
            m.gpus_of(0) < 16,
            "saturated job got the whole cluster:\n{m}"
        );
        assert!(m.gpus_of(0) >= 1);
    }

    #[test]
    fn jobs_without_report_get_minimum() {
        let profile = ModelKind::ResNet18Cifar10.profile();
        let placement = vec![0u32; 2];
        let jobs = vec![PolicyJobView {
            id: JobId(0),
            user: UserConfig {
                gpus: 1,
                batch_size: profile.m0,
            },
            profile: Some(&profile),
            limits: profile.limits,
            report: None,
            gputime: 0.0,
            submit_time: 0.0,
            current_placement: &placement,
            started: false,
            batch_size: profile.m0,
            remaining_work: 1e6,
        }];
        let spec = ClusterSpec::homogeneous(2, 4).unwrap();
        let mut opt = optimus();
        let mut rng = StdRng::seed_from_u64(0);
        let m = opt.schedule(0.0, &jobs, &spec, &mut rng);
        assert_eq!(m.gpus_of(0), 1);
    }

    #[test]
    fn keeps_placement_when_count_unchanged() {
        let mut a = Owned::new(ModelKind::Yolov3Voc, 100.0, 2);
        // Pretend the job currently runs with the count Optimus would
        // assign; its placement must be preserved.
        let spec = ClusterSpec::homogeneous(2, 4).unwrap();
        let mut opt = optimus();
        let mut rng = StdRng::seed_from_u64(0);
        let first = {
            let jobs = vec![a.view(0, 1e6, 8)];
            opt.schedule(0.0, &jobs, &spec, &mut rng)
        };
        a.placement = first.row(0).to_vec();
        let second = {
            let jobs = vec![a.view(0, 9e5, 8)];
            opt.schedule(60.0, &jobs, &spec, &mut rng)
        };
        assert_eq!(second.row(0), first.row(0));
    }

    #[test]
    fn stage_names_identify_the_decomposition() {
        let opt = optimus();
        assert_eq!(opt.name(), "optimus+oracle");
        assert_eq!(
            opt.stage_names(),
            ("marginal-gain", "consolidated-largest-first", "preempt-all")
        );
    }
}
