//! Or et al.'s throughput-based autoscaler ("Resource Elasticity in
//! Distributed Deep Learning", MLSys '20), the Fig 10 comparison point.
//!
//! The autoscaler allows the batch size to grow with the number of
//! workers (linear scaling, capped by memory and the global limit) and
//! provisions nodes while the **system-throughput** scaling efficiency
//! stays above a threshold. Because throughput does not depend on
//! training progress, the recommended size is reached quickly and then
//! stays flat (Fig 10a) — it cannot know that large batches are
//! statistically wasteful early in training.
//!
//! Decomposed Blox-style (DESIGN.md §10): [`OrEtAlAdmission`] owns
//! the single-tenant whole-cluster grant plus the `desired_nodes` /
//! `choose_batch_size` autoscaling hooks (admission controls cluster
//! entry, so it owns sizing too); placement is the shared
//! [`ConsolidatedPlacement`] (a whole-cluster grant packs to every
//! node's full capacity); preemption is [`Preemption::All`]. [`or_etal`]
//! composes the three. The staged form is pinned byte-identical to the
//! pre-decomposition monolith by
//! `pollux-core/tests/baseline_golden.rs`.

use pollux_cluster::{ClusterSpec, NodeId};
use pollux_control::{
    AdmissionPolicy, Admitted, ConsolidatedPlacement, PolicyJobView, Preemption, StagedScheduler,
};
use pollux_models::PlacementShape;
use rand::rngs::StdRng;

/// Minimum acceptable throughput-scaling efficiency
/// `THROUGHPUT(K·g) / (K · THROUGHPUT(g))`.
const SCALING_THRESHOLD: f64 = 0.7;
/// Smallest cluster size recommended (nodes).
const MIN_NODES: u32 = 1;

/// The Or et al. admission stage: single-tenant — the first job gets
/// every free GPU — plus the throughput-driven node recommendation and
/// linear batch scaling hooks.
#[derive(Debug, Clone)]
pub struct OrEtAlAdmission {
    /// Largest allowed cluster size (nodes).
    max_nodes: u32,
}

impl OrEtAlAdmission {
    /// Creates the stage with a budget of `max_nodes` nodes.
    pub fn new(max_nodes: u32) -> Self {
        Self { max_nodes }
    }

    /// The batch size the policy would use on `gpus` GPUs: linear
    /// scaling of the per-GPU maximum, capped by the global limit.
    fn batch_for(&self, job: &PolicyJobView<'_>, gpus: u32) -> u64 {
        (job.limits.max_per_gpu * gpus as u64)
            .min(job.limits.max_global)
            .max(job.limits.min)
    }

    /// Throughput at `nodes` nodes of `gpus_per_node` GPUs with the
    /// scaled batch, from the job's fitted model (or `None` before a
    /// report exists).
    fn throughput_at(
        &self,
        job: &PolicyJobView<'_>,
        nodes: u32,
        gpus_per_node: u32,
    ) -> Option<f64> {
        let report = job.report.as_ref()?;
        let gpus = nodes * gpus_per_node;
        let shape = PlacementShape::new(gpus, nodes)?;
        let m = self.batch_for(job, gpus);
        Some(report.model.throughput.throughput(shape, m))
    }

    /// The largest count of `gpus_per_node`-GPU nodes whose
    /// throughput-scaling efficiency versus one node stays above the
    /// threshold.
    fn recommend_nodes(&self, job: &PolicyJobView<'_>, gpus_per_node: u32) -> u32 {
        let Some(base) = self.throughput_at(job, 1, gpus_per_node) else {
            return MIN_NODES;
        };
        if base <= 0.0 {
            return MIN_NODES;
        }
        let mut best = MIN_NODES;
        for n in MIN_NODES..=self.max_nodes {
            match self.throughput_at(job, n, gpus_per_node) {
                Some(t) if t / (n as f64 * base) >= SCALING_THRESHOLD => best = n,
                _ => {}
            }
        }
        best
    }
}

impl AdmissionPolicy for OrEtAlAdmission {
    fn name(&self) -> &'static str {
        "single-tenant"
    }

    fn admit(
        &mut self,
        _now: f64,
        jobs: &[PolicyJobView<'_>],
        held: &[bool],
        free: &[u32],
        _spec: &ClusterSpec,
        _rng: &mut StdRng,
    ) -> Vec<Admitted> {
        // Hand every free GPU to the (first) job — the single-tenant
        // scenario of Fig 10.
        let total: u32 = free.iter().sum();
        if jobs.is_empty() || held.first() == Some(&true) || total == 0 {
            return Vec::new();
        }
        vec![Admitted {
            row: 0,
            gpus: total,
        }]
    }

    fn desired_nodes(
        &mut self,
        _now: f64,
        jobs: &[PolicyJobView<'_>],
        spec: &ClusterSpec,
        _rng: &mut StdRng,
    ) -> Option<u32> {
        // Single-tenant: size the cluster for the (first) job, in nodes
        // as wide as the ones the round resizes to.
        jobs.first()
            .map(|j| self.recommend_nodes(j, spec.gpus_on(NodeId(0))))
    }

    fn choose_batch_size(&self, job: &PolicyJobView<'_>) -> Option<u64> {
        let gpus: u32 = job.current_placement.iter().sum();
        if gpus == 0 {
            None
        } else {
            Some(self.batch_for(job, gpus))
        }
    }
}

/// The Or et al. policy: single-tenant throughput-driven autoscaling
/// up to `max_nodes` nodes.
pub fn or_etal(max_nodes: u32) -> StagedScheduler {
    StagedScheduler::new(
        "or-etal",
        OrEtAlAdmission::new(max_nodes),
        ConsolidatedPlacement::admitted_order(),
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

    struct Owned {
        profile: ModelProfile,
        agent: PolluxAgent,
        placement: Vec<u32>,
    }

    impl Owned {
        fn new(num_nodes: usize) -> Self {
            let profile = ModelKind::ResNet50ImageNet.profile();
            let mut agent = PolluxAgent::new(profile.m0, profile.eta0, profile.limits).unwrap();
            for (g, n) in [
                (1u32, 1u32),
                (2, 1),
                (4, 1),
                (8, 2),
                (16, 4),
                (32, 8),
                (64, 16),
            ] {
                let shape = PlacementShape::new(g, n).unwrap();
                for mult in [1u64, 4, 16] {
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
            agent.observe_gradient_stats(
                GradientStats::new(600.0 / profile.m0 as f64, 1.0).unwrap(),
            );
            Self {
                profile,
                agent,
                placement: vec![0; num_nodes],
            }
        }

        fn view(&self) -> PolicyJobView<'_> {
            PolicyJobView {
                id: JobId(0),
                user: UserConfig {
                    gpus: 4,
                    batch_size: self.profile.m0,
                },
                profile: Some(&self.profile),
                limits: self.profile.limits,
                report: self.agent.report(),
                gputime: 0.0,
                submit_time: 0.0,
                current_placement: &self.placement,
                started: false,
                batch_size: self.profile.m0,
                remaining_work: 1e8,
            }
        }
    }

    #[test]
    fn recommends_many_nodes_for_scalable_throughput() {
        // With linear batch scaling, throughput keeps scaling well, so
        // the recommendation lands near the maximum — Fig 10a's flat
        // high line.
        let owned = Owned::new(16);
        let stage = OrEtAlAdmission::new(16);
        let n = stage.recommend_nodes(&owned.view(), 4);
        assert!(n >= 8, "recommended only {n} nodes");
    }

    #[test]
    fn recommendation_is_constant_over_progress() {
        // Throughput-based scaling ignores training progress by
        // construction: same report, same recommendation.
        let owned = Owned::new(16);
        let stage = OrEtAlAdmission::new(16);
        let a = stage.recommend_nodes(&owned.view(), 4);
        let b = stage.recommend_nodes(&owned.view(), 4);
        assert_eq!(a, b);
    }

    #[test]
    fn no_report_keeps_minimum() {
        let profile = ModelKind::ResNet50ImageNet.profile();
        let placement = vec![0u32; 4];
        let view = PolicyJobView {
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
            remaining_work: 1e8,
        };
        let stage = OrEtAlAdmission::new(16);
        assert_eq!(stage.recommend_nodes(&view, 4), 1);
    }

    #[test]
    fn batch_scales_linearly_with_gpus_up_to_cap() {
        let owned = Owned::new(4);
        let stage = OrEtAlAdmission::new(16);
        let v = owned.view();
        assert_eq!(stage.batch_for(&v, 1), v.limits.max_per_gpu);
        assert_eq!(stage.batch_for(&v, 4), v.limits.max_per_gpu * 4);
        // Capped at the global limit for very large clusters.
        let huge = stage.batch_for(&v, 100_000);
        assert_eq!(huge, v.limits.max_global);
    }

    #[test]
    fn schedule_gives_job_the_whole_cluster() {
        let owned = Owned::new(2);
        let mut policy = or_etal(16);
        let spec = ClusterSpec::homogeneous(2, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let views = vec![owned.view()];
        let m = policy.schedule(0.0, &views, &spec, &mut rng);
        assert_eq!(m.gpus_of(0), 8);
        assert!(m.is_feasible(&spec));
    }

    #[test]
    fn choose_batch_size_uses_current_gpus() {
        let mut owned = Owned::new(2);
        owned.placement = vec![4, 4];
        let policy = or_etal(16);
        let v = owned.view();
        assert_eq!(policy.choose_batch_size(&v), Some(v.limits.max_per_gpu * 8));
        // Unplaced jobs: no choice.
        owned.placement = vec![0, 0];
        let v = owned.view();
        assert_eq!(policy.choose_batch_size(&v), None);
    }

    #[test]
    fn desired_nodes_sizes_for_the_first_job() {
        let owned = Owned::new(16);
        let mut policy = or_etal(16);
        let spec = ClusterSpec::homogeneous(16, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let views = vec![owned.view()];
        let n = policy.desired_nodes(0.0, &views, &spec, &mut rng).unwrap();
        assert!(n >= 8, "recommended only {n} nodes");
        assert!(policy.desired_nodes(0.0, &[], &spec, &mut rng).is_none());
    }

    #[test]
    fn desired_nodes_prices_the_clusters_node_width() {
        // On 8-GPU nodes, n nodes are 8n GPUs: the recommendation is the
        // largest n whose 8n-GPU throughput keeps the scaling threshold.
        let owned = Owned::new(1);
        let view = owned.view();
        let stage = OrEtAlAdmission::new(16);
        let model = &view.report.as_ref().unwrap().model.throughput;
        let tput = |n: u32| {
            let gpus = 8 * n;
            model.throughput(
                PlacementShape::new(gpus, n).unwrap(),
                stage.batch_for(&view, gpus),
            )
        };
        let expected = (1..=16)
            .filter(|&n| tput(n) / (f64::from(n) * tput(1)) >= SCALING_THRESHOLD)
            .max()
            .unwrap();
        let mut policy = or_etal(16);
        let spec = ClusterSpec::homogeneous(1, 8).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let views = std::slice::from_ref(&view);
        assert_eq!(
            policy.desired_nodes(0.0, views, &spec, &mut rng),
            Some(expected)
        );
    }
}
