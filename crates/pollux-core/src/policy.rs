//! `PolluxPolicy`: the co-adaptive scheduler behind the
//! `SchedulingPolicy` interface.

use pollux_cluster::{AllocationMatrix, ClusterSpec, Topology};
use pollux_control::{PolicyJobView, SchedJobCache, SchedulingPolicy};
use pollux_sched::{AutoscaleConfig, Autoscaler, PolluxSched, SchedConfig, WeightConfig};
use rand::rngs::StdRng;

/// Configuration of the full Pollux policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolluxConfig {
    /// Scheduler settings (GA, weights, interval).
    pub sched: SchedConfig,
    /// Cloud auto-scaling; `None` keeps a fixed cluster.
    pub autoscale: Option<AutoscaleConfig>,
    /// Let agents re-tune batch sizes and learning rates (the paper's
    /// co-adaptation). Disabling this yields an *only-resource-adaptive*
    /// Pollux — the GA allocator over fixed user batch sizes — used by
    /// the co-adaptation ablation.
    pub adapt_batch_size: bool,
}

impl Default for PolluxConfig {
    fn default() -> Self {
        Self {
            sched: SchedConfig::default(),
            autoscale: None,
            adapt_batch_size: true,
        }
    }
}

/// The Pollux scheduling policy.
pub struct PolluxPolicy {
    sched: PolluxSched,
    weights: WeightConfig,
    autoscaler: Option<Autoscaler>,
    adapt_batch_size: bool,
    /// Cross-round view → `SchedJob` cache, read by both the autoscaler
    /// and the scheduler: a quiet round reuses every entry instead of
    /// re-deriving models and re-allocating placement rows.
    /// Bit-identical to a fresh conversion by construction.
    cache: SchedJobCache,
    /// Hoisted `control/views_rebuilt` counter (no-op until telemetry
    /// is attached).
    views_rebuilt_ctr: pollux_telemetry::Counter,
}

impl PolluxPolicy {
    /// Creates the policy. Returns `None` when the autoscale
    /// configuration is invalid.
    pub fn new(config: PolluxConfig) -> Option<Self> {
        let autoscaler = match config.autoscale {
            Some(c) => Some(Autoscaler::new(c)?),
            None => None,
        };
        Some(Self {
            sched: PolluxSched::new(config.sched),
            weights: config.sched.weights,
            autoscaler,
            adapt_batch_size: config.adapt_batch_size,
            cache: SchedJobCache::default(),
            views_rebuilt_ctr: pollux_telemetry::Recorder::disabled()
                .counter("control", "views_rebuilt"),
        })
    }

    /// Brings the view → `SchedJob` cache in line with `jobs` (jobs
    /// without an agent report get the prior-driven bootstrap model,
    /// [`pollux_control::bootstrap_sched_job`]) and counts the entries
    /// it rebuilt. Read the result back with `self.cache.jobs()`.
    fn refresh_cache(&mut self, jobs: &[PolicyJobView<'_>]) {
        self.cache.refresh(&self.weights, jobs);
        self.views_rebuilt_ctr.add(self.cache.last_rebuilt());
    }
}

impl SchedulingPolicy for PolluxPolicy {
    fn name(&self) -> &'static str {
        if self.adapt_batch_size {
            "pollux"
        } else {
            "pollux-fixed-batch"
        }
    }

    fn adapts_batch_size(&self) -> bool {
        self.adapt_batch_size
    }

    fn schedule(
        &mut self,
        _now: f64,
        jobs: &[PolicyJobView<'_>],
        spec: &ClusterSpec,
        rng: &mut StdRng,
    ) -> AllocationMatrix {
        // The cached conversion is bit-identical to a fresh one
        // (debug_assert-checked inside `refresh`); a quiet round
        // rebuilds zero entries.
        self.refresh_cache(jobs);
        self.sched.schedule(self.cache.jobs(), spec, rng)
    }

    fn configure_parallelism(&mut self, threads: usize) {
        self.sched.set_threads(threads);
    }

    fn configure_topology(&mut self, topology: Option<&Topology>) {
        self.sched.set_topology(topology.cloned());
    }

    fn take_round_explain(&mut self) -> Option<pollux_telemetry::RoundExplain> {
        // Built by PolluxSched only while an enabled recorder is
        // attached; the driver stamps time and co-residents.
        self.sched.take_round_explain()
    }

    fn attach_telemetry(&mut self, recorder: pollux_telemetry::Recorder) {
        // Hoist the counter handle once; `schedule` then pays one
        // atomic add per round instead of a registry lookup.
        self.views_rebuilt_ctr = recorder.counter("control", "views_rebuilt");
        self.sched.set_recorder(recorder);
    }

    fn desired_nodes(
        &mut self,
        _now: f64,
        jobs: &[PolicyJobView<'_>],
        spec: &ClusterSpec,
        rng: &mut StdRng,
    ) -> Option<u32> {
        if self.autoscaler.is_none() || jobs.is_empty() {
            return None;
        }
        self.refresh_cache(jobs);
        let autoscaler = self.autoscaler.as_ref()?;
        Some(autoscaler.recommend(self.cache.jobs(), spec, rng).nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pollux_agent::PolluxAgent;
    use pollux_cluster::JobId;
    use pollux_models::{GradientStats, PlacementShape};
    use pollux_sched::GaConfig;
    use pollux_workload::{ModelKind, ModelProfile, UserConfig};
    use rand::SeedableRng;

    fn quick_config() -> PolluxConfig {
        let mut c = PolluxConfig::default();
        c.sched.ga = GaConfig {
            population: 20,
            generations: 10,
            ..Default::default()
        };
        c
    }

    struct Owned {
        profile: ModelProfile,
        agent: Option<PolluxAgent>,
        placement: Vec<u32>,
        gputime: f64,
    }

    impl Owned {
        fn fresh(kind: ModelKind, nodes: usize) -> Self {
            Self {
                profile: kind.profile(),
                agent: None,
                placement: vec![0; nodes],
                gputime: 0.0,
            }
        }

        fn fitted(kind: ModelKind, phi: f64, nodes: usize) -> Self {
            let profile = kind.profile();
            let mut agent = PolluxAgent::new(profile.m0, profile.eta0, profile.limits).unwrap();
            for (g, n) in [(1u32, 1u32), (2, 1), (4, 1), (8, 2)] {
                let shape = PlacementShape::new(g, n).unwrap();
                agent.observe_iteration(
                    shape,
                    profile.m0,
                    profile.params.t_iter(shape, profile.m0),
                );
            }
            assert!(agent.refit());
            agent.observe_gradient_stats(GradientStats::new(phi / profile.m0 as f64, 1.0).unwrap());
            Self {
                profile,
                agent: Some(agent),
                placement: vec![0; nodes],
                gputime: 0.0,
            }
        }

        fn view(&self, id: u32) -> PolicyJobView<'_> {
            PolicyJobView {
                id: JobId(id),
                user: UserConfig {
                    gpus: 1,
                    batch_size: self.profile.m0,
                },
                profile: Some(&self.profile),
                limits: self.profile.limits,
                report: self.agent.as_ref().and_then(|a| a.report()),
                gputime: self.gputime,
                submit_time: id as f64,
                current_placement: &self.placement,
                started: false,
                batch_size: self.profile.m0,
                remaining_work: 1e6,
            }
        }
    }

    #[test]
    fn fresh_jobs_start_small() {
        // Two brand-new jobs on a big cluster: the bootstrap cap of 2
        // keeps each at 1-2 GPUs.
        let a = Owned::fresh(ModelKind::ResNet18Cifar10, 4);
        let b = Owned::fresh(ModelKind::NeuMFMovieLens, 4);
        let jobs = vec![a.view(0), b.view(1)];
        let spec = ClusterSpec::homogeneous(4, 4).unwrap();
        let mut p = PolluxPolicy::new(quick_config()).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let m = p.schedule(0.0, &jobs, &spec, &mut rng);
        for j in 0..2 {
            let g = m.gpus_of(j);
            assert!((1..=2).contains(&g), "job {j} got {g} GPUs:\n{m}");
        }
    }

    #[test]
    fn fitted_scalable_jobs_grow() {
        let mut owned = Owned::fitted(ModelKind::ResNet18Cifar10, 4000.0, 4);
        // The job has held 8 GPUs before: cap is 16.
        owned
            .agent
            .as_mut()
            .unwrap()
            .note_allocation(PlacementShape::new(8, 2).unwrap());
        let jobs = vec![owned.view(0)];
        let spec = ClusterSpec::homogeneous(4, 4).unwrap();
        let mut p = PolluxPolicy::new(quick_config()).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let m = p.schedule(0.0, &jobs, &spec, &mut rng);
        assert!(
            m.gpus_of(0) >= 8,
            "scalable job got {} GPUs:\n{m}",
            m.gpus_of(0)
        );
    }

    #[test]
    fn respects_agent_scale_cap() {
        // Fitted job that has only ever held 1 GPU: cap 2.
        let owned = Owned::fitted(ModelKind::ResNet18Cifar10, 50_000.0, 4);
        // note_allocation was called with up to 8 GPUs inside fitted();
        // build a fresh one with a single observation instead.
        let profile = ModelKind::ResNet18Cifar10.profile();
        let mut agent = PolluxAgent::new(profile.m0, profile.eta0, profile.limits).unwrap();
        let s1 = PlacementShape::single();
        agent.observe_iteration(s1, profile.m0, profile.params.t_iter(s1, profile.m0));
        assert!(agent.refit());
        agent.observe_gradient_stats(GradientStats::new(400.0, 1.0).unwrap());
        let small = Owned {
            profile,
            agent: Some(agent),
            placement: vec![0; 4],
            gputime: 0.0,
        };
        let jobs = vec![small.view(0)];
        let spec = ClusterSpec::homogeneous(4, 4).unwrap();
        let mut p = PolluxPolicy::new(quick_config()).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let m = p.schedule(0.0, &jobs, &spec, &mut rng);
        assert!(m.gpus_of(0) <= 2, "cap violated: {} GPUs", m.gpus_of(0));
        drop(owned);
    }

    #[test]
    fn weights_decay_with_gputime() {
        // A job far past the GPU-time threshold gets a lower weight,
        // shifting allocations toward the fresh job when both compete.
        let mut old = Owned::fitted(ModelKind::ResNet18Cifar10, 4000.0, 1);
        old.gputime = 100.0 * 3600.0;
        old.agent
            .as_mut()
            .unwrap()
            .note_allocation(PlacementShape::new(8, 2).unwrap());
        let mut fresh = Owned::fitted(ModelKind::ResNet18Cifar10, 4000.0, 1);
        fresh
            .agent
            .as_mut()
            .unwrap()
            .note_allocation(PlacementShape::new(8, 2).unwrap());
        let jobs = vec![old.view(0), fresh.view(1)];
        let spec = ClusterSpec::homogeneous(1, 4).unwrap();
        let mut p = PolluxPolicy::new(quick_config()).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let m = p.schedule(0.0, &jobs, &spec, &mut rng);
        assert!(
            m.gpus_of(1) >= m.gpus_of(0),
            "fresh {} vs old {}\n{m}",
            m.gpus_of(1),
            m.gpus_of(0)
        );
    }

    #[test]
    fn autoscaling_hook_recommends_nodes() {
        let mut config = quick_config();
        config.autoscale = Some(AutoscaleConfig {
            max_nodes: 8,
            ga: GaConfig {
                population: 16,
                generations: 8,
                ..Default::default()
            },
        });
        let owned = Owned::fitted(ModelKind::ResNet18Cifar10, 100_000.0, 4);
        let jobs = vec![owned.view(0)];
        let spec = ClusterSpec::homogeneous(4, 4).unwrap();
        let mut p = PolluxPolicy::new(config).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let n = p.desired_nodes(0.0, &jobs, &spec, &mut rng);
        assert!(n.is_some());
        assert!((1..=8).contains(&n.unwrap()));
        // Without autoscale config, the hook declines.
        let mut p2 = PolluxPolicy::new(quick_config()).unwrap();
        assert_eq!(p2.desired_nodes(0.0, &jobs, &spec, &mut rng), None);
    }

    #[test]
    fn invalid_autoscale_config_rejected() {
        let mut config = quick_config();
        config.autoscale = Some(AutoscaleConfig {
            max_nodes: 0,
            ..Default::default()
        });
        assert!(PolluxPolicy::new(config).is_none());
    }
}
