//! Tiresias (Gu et al., NSDI '19), as idealized in the Pollux
//! evaluation (Sec. 5.2).
//!
//! Non-resource-adaptive: every job runs with its user-submitted GPU
//! count for its whole lifetime. Scheduling follows discretized
//! least-attained-service: jobs below an attained-GPU-time threshold
//! form the high-priority queue, the rest the low-priority queue;
//! within each queue jobs are served FIFO by submission time. Jobs are
//! preempted when higher-priority jobs need their GPUs, and replicas
//! are placed consolidated (fewest nodes).
//!
//! Decomposed Blox-style (DESIGN.md §10): admission is the shared
//! [`Admission::Ranked`] ranked by [`las_two_queue`]'s two queues;
//! placement is [`Placement::FullestFirst`] in admitted order;
//! preemption is [`Preemption::All`] (any running job yields to a
//! higher priority). [`tiresias`] composes the three. The staged form
//! is pinned byte-identical to the pre-decomposition monolith by
//! `pollux-core/tests/baseline_golden.rs`.

use crate::stages::{Admission, Placement, Preemption, StagedScheduler};

/// Attained-service threshold (GPU-seconds) splitting the two priority
/// queues: one GPU-hour, so small jobs finish entirely in the high
/// priority queue.
const QUEUE_THRESHOLD: f64 = 3600.0;

/// The Tiresias admission stage: discretized least-attained-service
/// priorities — the high queue (attained service below the threshold)
/// ranks 0, the low queue 1, FIFO within each — then the backfilled
/// jobs whose user GPU counts fit the free capacity.
pub(crate) fn las_two_queue() -> Admission {
    Admission::Ranked {
        name: "las-two-queue",
        rank: |j| f64::from(u8::from(j.gputime >= QUEUE_THRESHOLD)),
    }
}

/// The Tiresias scheduling policy: LAS two-queue admission,
/// consolidated placement in priority order, full preemption.
pub fn tiresias() -> StagedScheduler {
    StagedScheduler::new(
        "tiresias",
        las_two_queue(),
        Placement::FullestFirst,
        Preemption::All,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PolicyJobView, SchedulingPolicy};
    use pollux_cluster::{ClusterSpec, JobId};
    use pollux_models::BatchSizeLimits;
    use pollux_workload::{ModelKind, UserConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct Ctx {
        profile: pollux_workload::ModelProfile,
    }

    impl Ctx {
        fn new() -> Self {
            Self {
                profile: ModelKind::ResNet18Cifar10.profile(),
            }
        }

        fn view<'a>(
            &'a self,
            id: u32,
            gpus: u32,
            gputime: f64,
            submit: f64,
            placement: &'a [u32],
        ) -> PolicyJobView<'a> {
            PolicyJobView {
                id: JobId(id),
                user: UserConfig {
                    gpus,
                    batch_size: self.profile.m0,
                },
                profile: Some(&self.profile),
                limits: BatchSizeLimits::new(
                    self.profile.m0,
                    self.profile.limits.max_global,
                    self.profile.limits.max_per_gpu,
                )
                .unwrap(),
                report: None,
                gputime,
                submit_time: submit,
                current_placement: placement,
                started: false,
                batch_size: self.profile.m0,
                remaining_work: 1e6,
            }
        }
    }

    #[test]
    fn allocates_user_gpu_counts() {
        let ctx = Ctx::new();
        let empty = vec![0u32; 2];
        let jobs = vec![
            ctx.view(0, 2, 0.0, 0.0, &empty),
            ctx.view(1, 4, 0.0, 10.0, &empty),
        ];
        let spec = ClusterSpec::homogeneous(2, 4).unwrap();
        let mut t = tiresias();
        let mut rng = StdRng::seed_from_u64(0);
        let m = t.schedule(0.0, &jobs, &spec, &mut rng);
        assert_eq!(m.gpus_of(0), 2);
        assert_eq!(m.gpus_of(1), 4);
        assert!(m.is_feasible(&spec));
    }

    #[test]
    fn high_queue_preempts_long_running_jobs() {
        let ctx = Ctx::new();
        // Job 0 has exceeded the queue threshold and holds all GPUs;
        // job 1 is new. Job 1 should win the GPUs.
        let holding = vec![4u32];
        let empty = vec![0u32];
        let jobs = vec![
            ctx.view(0, 4, 10_000.0, 0.0, &holding),
            ctx.view(1, 4, 0.0, 100.0, &empty),
        ];
        let spec = ClusterSpec::homogeneous(1, 4).unwrap();
        let mut t = tiresias();
        let mut rng = StdRng::seed_from_u64(0);
        let m = t.schedule(200.0, &jobs, &spec, &mut rng);
        assert_eq!(m.gpus_of(1), 4, "new job should preempt:\n{m}");
        assert_eq!(m.gpus_of(0), 0);
    }

    #[test]
    fn fifo_within_queue() {
        let ctx = Ctx::new();
        let empty = vec![0u32];
        let jobs = vec![
            ctx.view(0, 4, 0.0, 50.0, &empty),
            ctx.view(1, 4, 0.0, 10.0, &empty),
        ];
        let spec = ClusterSpec::homogeneous(1, 4).unwrap();
        let mut t = tiresias();
        let mut rng = StdRng::seed_from_u64(0);
        let m = t.schedule(100.0, &jobs, &spec, &mut rng);
        // Earlier submission wins.
        assert_eq!(m.gpus_of(1), 4);
        assert_eq!(m.gpus_of(0), 0);
    }

    #[test]
    fn keeps_running_placement_when_possible() {
        let ctx = Ctx::new();
        let placed = vec![0u32, 2];
        let jobs = vec![ctx.view(0, 2, 100.0, 0.0, &placed)];
        let spec = ClusterSpec::homogeneous(2, 4).unwrap();
        let mut t = tiresias();
        let mut rng = StdRng::seed_from_u64(0);
        let m = t.schedule(60.0, &jobs, &spec, &mut rng);
        assert_eq!(m.row(0), &[0, 2], "placement should be preserved");
    }

    #[test]
    fn backfills_small_jobs_past_big_ones() {
        let ctx = Ctx::new();
        let empty = vec![0u32];
        // Job 0 wants 8 GPUs (doesn't fit on a 4-GPU cluster); job 1
        // wants 2 and should run anyway.
        let jobs = vec![
            ctx.view(0, 8, 0.0, 0.0, &empty),
            ctx.view(1, 2, 0.0, 10.0, &empty),
        ];
        let spec = ClusterSpec::homogeneous(1, 4).unwrap();
        let mut t = tiresias();
        let mut rng = StdRng::seed_from_u64(0);
        let m = t.schedule(0.0, &jobs, &spec, &mut rng);
        assert_eq!(m.gpus_of(0), 0);
        assert_eq!(m.gpus_of(1), 2);
    }

    #[test]
    fn consolidates_multi_gpu_jobs() {
        let ctx = Ctx::new();
        let empty = vec![0u32; 4];
        let jobs = vec![ctx.view(0, 4, 0.0, 0.0, &empty)];
        let spec = ClusterSpec::homogeneous(4, 4).unwrap();
        let mut t = tiresias();
        let mut rng = StdRng::seed_from_u64(0);
        let m = t.schedule(0.0, &jobs, &spec, &mut rng);
        // All 4 GPUs on one node.
        assert_eq!(m.nodes_of(0), 1);
        assert_eq!(m.gpus_of(0), 4);
    }

    #[test]
    fn stage_names_identify_the_decomposition() {
        let t = tiresias();
        assert_eq!(t.name(), "tiresias");
        assert_eq!(
            t.stage_names(),
            ("las-two-queue", "consolidated", "preempt-all")
        );
    }
}
