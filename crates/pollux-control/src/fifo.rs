//! Gang-scheduled FIFO with backfill.
//!
//! The classic HPC baseline: jobs start in arrival order, each as an
//! all-or-nothing gang of its requested GPU count, and once running
//! are never preempted ([`Preemption::Never`] — the only non-preemptive
//! policy in the zoo). When the head of the queue does not fit the
//! free GPUs, later jobs that do fit backfill around it, which keeps
//! utilization up at the cost of possibly delaying the head further
//! (no reservation). Admission is the shared [`Admission::Ranked`]
//! with every job ranked alike, so submission time alone orders it.

use crate::stages::{Admission, Placement, Preemption, StagedScheduler};

/// Gang-scheduled FIFO with backfill: arrival-order admission over the
/// free GPUs, consolidated placement, and no preemption.
pub fn fifo_backfill() -> StagedScheduler {
    StagedScheduler::new(
        "fifo+backfill",
        Admission::Ranked {
            name: "fifo-backfill",
            rank: |_| 0.0,
        },
        Placement::FullestFirst,
        Preemption::Never,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PolicyJobView, SchedulingPolicy};
    use pollux_cluster::{ClusterSpec, JobId};
    use pollux_models::BatchSizeLimits;
    use pollux_workload::UserConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn view<'a>(id: u32, gpus: u32, submit: f64, placement: &'a [u32]) -> PolicyJobView<'a> {
        PolicyJobView {
            id: JobId(id),
            user: UserConfig {
                gpus,
                batch_size: 128,
            },
            profile: None,
            limits: BatchSizeLimits::new(128, 1024, 512).unwrap(),
            report: None,
            gputime: 0.0,
            submit_time: submit,
            current_placement: placement,
            started: false,
            batch_size: 128,
            remaining_work: 1e6,
        }
    }

    #[test]
    fn runs_in_arrival_order() {
        let empty = vec![0u32];
        let jobs = vec![view(0, 4, 50.0, &empty), view(1, 4, 10.0, &empty)];
        let spec = ClusterSpec::homogeneous(1, 4).unwrap();
        let mut p = fifo_backfill();
        let mut rng = StdRng::seed_from_u64(0);
        let m = p.schedule(100.0, &jobs, &spec, &mut rng);
        assert_eq!(m.gpus_of(1), 4, "earlier arrival runs first");
        assert_eq!(m.gpus_of(0), 0);
    }

    #[test]
    fn never_preempts_running_jobs() {
        // A running job keeps its GPUs even when an earlier-submitted
        // job shows up (e.g. after a restart-requeue).
        let holding = vec![4u32];
        let empty = vec![0u32];
        let jobs = vec![view(0, 4, 50.0, &holding), view(1, 4, 10.0, &empty)];
        let spec = ClusterSpec::homogeneous(1, 4).unwrap();
        let mut p = fifo_backfill();
        let mut rng = StdRng::seed_from_u64(0);
        let m = p.schedule(100.0, &jobs, &spec, &mut rng);
        assert_eq!(m.row(0), &[4], "running gang is never disturbed");
        assert_eq!(m.gpus_of(1), 0);
    }

    #[test]
    fn backfills_around_a_blocked_head() {
        let running = vec![2u32];
        let empty = vec![0u32];
        let jobs = vec![
            view(0, 2, 0.0, &running), // running, holds 2 of 4
            view(1, 4, 10.0, &empty),  // head of queue, needs 4 > 2 free
            view(2, 2, 20.0, &empty),  // fits the remaining 2
        ];
        let spec = ClusterSpec::homogeneous(1, 4).unwrap();
        let mut p = fifo_backfill();
        let mut rng = StdRng::seed_from_u64(0);
        let m = p.schedule(100.0, &jobs, &spec, &mut rng);
        assert_eq!(m.gpus_of(0), 2);
        assert_eq!(m.gpus_of(1), 0, "head waits for a full gang");
        assert_eq!(m.gpus_of(2), 2, "later small job backfills");
    }
}
