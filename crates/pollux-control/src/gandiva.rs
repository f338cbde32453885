//! Gandiva-style best-fit packing (Xiao et al., OSDI '18).
//!
//! Gandiva's introspective scheduler packs jobs onto the *tightest*
//! node that fits ("bin packing with best-fit") to keep whole nodes
//! free for incoming multi-GPU jobs, where the Tiresias/Optimus
//! heuristic grabs the *fullest-free* node first. That choice is the
//! best-fit packing of the shared keep-then-pack placement
//! ([`Placement::BestFit`]), so it composes with any
//! admission stage; [`gandiva_packing`] pairs it with Tiresias's LAS
//! admission, isolating the placement-stage difference in head-to-head
//! sweeps (the whole point of the Blox decomposition — the two zoo
//! entries differ in exactly one stage).
//!
//! Jobs wider than any single node fall back to the consolidated
//! fullest-first spread; affinity (keeping an exact-count placement)
//! is preserved like the default packing to avoid gratuitous restarts.

use crate::stages::{Placement, Preemption, StagedScheduler};
use crate::tiresias::las_two_queue;

/// Gandiva-style packing over Tiresias's LAS admission: differs from
/// [`crate::baselines::tiresias()`] in the placement stage only.
pub fn gandiva_packing() -> StagedScheduler {
    StagedScheduler::new(
        "gandiva-packing",
        las_two_queue(),
        Placement::BestFit,
        Preemption::All,
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
    fn composes_with_las_admission() {
        let empty = vec![0u32; 2];
        let jobs = vec![view(0, 2, 0.0, &empty), view(1, 4, 10.0, &empty)];
        let spec = ClusterSpec::homogeneous(2, 4).unwrap();
        let mut p = gandiva_packing();
        let mut rng = StdRng::seed_from_u64(0);
        let m = p.schedule(0.0, &jobs, &spec, &mut rng);
        assert_eq!(m.gpus_of(0), 2);
        assert_eq!(m.gpus_of(1), 4);
        assert!(m.is_feasible(&spec));
        assert_eq!(
            p.stage_names(),
            ("las-two-queue", "best-fit-packing", "preempt-all")
        );
    }

    #[test]
    fn packs_tightest_node_first_where_tiresias_packs_fullest() {
        // A 1-GPU job runs on node 0; a new 1-GPU job arrives. Tiresias
        // puts it on the emptier node 1, Gandiva beside the running job.
        let running = vec![1u32, 0];
        let empty = vec![0u32; 2];
        let jobs = vec![view(0, 1, 0.0, &running), view(1, 1, 10.0, &empty)];
        let spec = ClusterSpec::homogeneous(2, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let m = gandiva_packing().schedule(0.0, &jobs, &spec, &mut rng);
        assert_eq!((m.row(0), m.row(1)), (&[1, 0][..], &[1, 0][..]));
        let m = crate::baselines::tiresias().schedule(0.0, &jobs, &spec, &mut rng);
        assert_eq!((m.row(0), m.row(1)), (&[1, 0][..], &[0, 1][..]));
    }
}
