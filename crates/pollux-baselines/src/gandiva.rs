//! A Gandiva-style best-fit packing placement stage (Xiao et al.,
//! OSDI '18).
//!
//! Gandiva's introspective scheduler packs jobs onto the *tightest*
//! node that fits ("bin packing with best-fit") to keep whole nodes
//! free for incoming multi-GPU jobs, where the Tiresias/Optimus
//! heuristic grabs the *fullest-free* node first. [`BestFitPacking`]
//! implements that choice as a [`pollux_simulator::PlacementPolicy`],
//! so it composes with any admission stage; [`gandiva_packing`] pairs
//! it with Tiresias's LAS admission, isolating the placement-stage
//! difference in head-to-head sweeps (the whole point of the Blox
//! decomposition — the two zoo entries differ in exactly one stage).
//!
//! Jobs wider than any single node fall back to the consolidated
//! fullest-first spread; affinity (keeping an exact-count placement)
//! is preserved like the default stage to avoid gratuitous restarts.

use pollux_cluster::AllocationMatrix;
use pollux_control::{keep_placement, pack_consolidated};
use pollux_simulator::{Admitted, PlacementPolicy, PolicyJobView, PreemptAll, StagedScheduler};
use rand::rngs::StdRng;

use crate::tiresias::TiresiasAdmission;

/// Best-fit single-node packing: each admitted job goes to the node
/// with the *least* free capacity that still fits it whole (ties to
/// the lowest index); multi-node jobs spread fullest-first.
#[derive(Debug, Clone, Copy, Default)]
pub struct BestFitPacking;

impl PlacementPolicy for BestFitPacking {
    fn name(&self) -> &'static str {
        "best-fit-packing"
    }

    fn place(
        &mut self,
        _now: f64,
        jobs: &[PolicyJobView<'_>],
        admitted: &[Admitted],
        free: &mut [u32],
        matrix: &mut AllocationMatrix,
        _rng: &mut StdRng,
    ) {
        // Keep exact-count placements first, like the default stage.
        let mut needs_placing: Vec<Admitted> = Vec::new();
        for &a in admitted {
            let Some(view) = jobs.get(a.row) else {
                continue;
            };
            let current: u32 = view.current_placement.iter().sum();
            if a.gpus > 0 && current == a.gpus && keep_placement(view.current_placement, free) {
                matrix.copy_row(a.row, view.current_placement);
            } else if a.gpus > 0 {
                needs_placing.push(a);
            }
        }

        for a in needs_placing {
            // Best fit: tightest node that fits the whole gang.
            let best = free
                .iter()
                .enumerate()
                .filter(|&(_, &f)| f >= a.gpus)
                .min_by(|&(i, &fa), &(j, &fb)| fa.cmp(&fb).then(i.cmp(&j)))
                .map(|(n, _)| n);
            match best {
                Some(n) => {
                    let mut row = vec![0u32; free.len()];
                    row[n] = a.gpus;
                    free[n] -= a.gpus;
                    matrix.copy_row(a.row, &row);
                }
                None => {
                    // Wider than any node: consolidated spread.
                    if let Some(row) = pack_consolidated(a.gpus, free) {
                        matrix.copy_row(a.row, &row);
                    }
                }
            }
        }
    }
}

/// Gandiva-style packing over Tiresias's LAS admission: differs from
/// [`crate::tiresias()`] in the placement stage only.
pub fn gandiva_packing() -> StagedScheduler {
    StagedScheduler::new(
        "gandiva-packing",
        TiresiasAdmission,
        BestFitPacking,
        PreemptAll,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pollux_cluster::{ClusterSpec, JobId};
    use pollux_models::BatchSizeLimits;
    use pollux_simulator::SchedulingPolicy;
    use pollux_workload::UserConfig;
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
    fn picks_the_tightest_fitting_node() {
        let spec = ClusterSpec::homogeneous(3, 4).unwrap();
        let mut free = vec![4u32, 2, 3];
        let idle = vec![0u32, 0, 0];
        let views = [view(0, 2, 0.0, &idle)];
        let admitted = [Admitted { row: 0, gpus: 2 }];
        let mut matrix = AllocationMatrix::zeros(1, spec.num_nodes());
        let mut rng = StdRng::seed_from_u64(0);
        BestFitPacking.place(0.0, &views, &admitted, &mut free, &mut matrix, &mut rng);
        // Node 1 (2 free) is the tightest fit — NOT the fullest (node 0).
        assert_eq!(matrix.row(0), &[0, 2, 0]);
        assert_eq!(free, vec![4, 0, 3]);
    }

    #[test]
    fn keeps_whole_nodes_free_for_wide_jobs() {
        // Consolidated placement would drop the 1-GPU job onto the
        // empty node (fullest-free) and then fail the 4-GPU job;
        // best-fit tucks it next to the running job instead.
        let spec = ClusterSpec::homogeneous(2, 4).unwrap();
        let mut free = vec![1u32, 4];
        let idle = vec![0u32, 0];
        let views = [view(0, 1, 0.0, &idle), view(1, 4, 1.0, &idle)];
        let admitted = [Admitted { row: 0, gpus: 1 }, Admitted { row: 1, gpus: 4 }];
        let mut matrix = AllocationMatrix::zeros(2, spec.num_nodes());
        let mut rng = StdRng::seed_from_u64(0);
        BestFitPacking.place(0.0, &views, &admitted, &mut free, &mut matrix, &mut rng);
        assert_eq!(matrix.row(0), &[1, 0]);
        assert_eq!(matrix.row(1), &[0, 4], "whole node preserved for the gang");
    }

    #[test]
    fn spreads_jobs_wider_than_a_node() {
        let spec = ClusterSpec::homogeneous(2, 4).unwrap();
        let mut free = vec![4u32, 4];
        let idle = vec![0u32, 0];
        let views = [view(0, 6, 0.0, &idle)];
        let admitted = [Admitted { row: 0, gpus: 6 }];
        let mut matrix = AllocationMatrix::zeros(1, spec.num_nodes());
        let mut rng = StdRng::seed_from_u64(0);
        BestFitPacking.place(0.0, &views, &admitted, &mut free, &mut matrix, &mut rng);
        assert_eq!(matrix.gpus_of(0), 6);
        assert_eq!(matrix.nodes_of(0), 2);
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
}
