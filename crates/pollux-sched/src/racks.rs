//! Phase 1 of the rack-aware two-phase placement search: assign jobs
//! to racks.
//!
//! At datacenter scale the flat GA's chromosome (one GPU count per
//! (job, node) cell) grows with the full node count, even though a
//! job's placement only ever touches a handful of nodes. The
//! two-phase decomposition first picks a *rack* per job (this module),
//! then runs the existing placement GA independently inside each rack
//! over only that rack's nodes and jobs — shrinking the per-job search
//! space from O(nodes) to O(racks) + O(nodes/rack).
//!
//! The pick is goodput-free (no table solves) and searches nothing: a
//! greedy capacity-aware packing that keeps running jobs on their
//! *home* rack (the rack holding most of their current GPUs), or the
//! previous interval's assignment where that scores at least as high.
//! The score packs rack demand under rack capacity and pays a
//! keep-bonus for leaving a running job on its home rack, mirroring the
//! placement GA's restart penalty at rack granularity. The expensive
//! goodput modeling happens only inside the per-rack phase-2 searches.
//!
//! Determinism: the pick draws no RNG and is a pure function of its
//! inputs. Only its input scan (`demand_and_home`, a pure function of
//! one job) fans out over the round's workers, in job-order chunks
//! reassembled in order — so assignments are bit-identical at any
//! worker count. With a single rack the phase is skipped entirely (the
//! caller never invokes it), which is what keeps the degenerate
//! topology byte-identical to the flat search.

use crate::par::parallel_map;
use crate::speedup::SchedJob;
use pollux_cluster::{row_is_empty, ClusterSpec, JobId, NodeId, Topology};
use std::collections::HashMap;

/// Keep-bonus weight per demanded GPU for staying on the home rack —
/// the rack-level analogue of the placement fitness's 0.25 restart
/// penalty.
const KEEP_BONUS: f64 = 0.25;
/// Jobs one worker scans at a time.
const SCAN_CHUNK: usize = 256;
/// Placement cells tested for "all zero" at once: a cache line, which
/// the compiler folds a vector at a time.
const CELL_BLOCK: usize = 16;

/// What phase 1 needs of a job, from one pass over its placement row:
/// the GPU demand it packs (what the job currently holds, at least its
/// minimum, at most its cap) and the job's [`home_rack`]. `held` is
/// scratch, one slot per rack. Sums are `u64`, so no incumbent row
/// overflows them, however hostile its cells.
fn demand_and_home(job: &SchedJob, topo: &Topology, held: &mut [u64]) -> (u64, Option<u32>) {
    let racked = job.current_placement.len() == topo.num_nodes();
    held.fill(0);
    let mut total = 0u64;
    // A placement row is almost all zeros (a job holds a few nodes of
    // a thousand), so empty blocks are skipped whole.
    for (b, block) in job.current_placement.chunks(CELL_BLOCK).enumerate() {
        if row_is_empty(block) {
            continue;
        }
        for (i, &g) in block.iter().enumerate() {
            if g > 0 {
                total += u64::from(g);
                if racked {
                    let n = NodeId((b * CELL_BLOCK + i) as u32);
                    held[topo.rack_of(n) as usize] += u64::from(g);
                }
            }
        }
    }
    let floor = u64::from(job.min_gpus.max(1));
    let demand = total.max(floor).min(u64::from(job.gpu_cap.max(1)));
    let home = held
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
        .filter(|&(_, &most)| most > 0)
        .map(|(best, _)| best as u32);
    (demand, home)
}

/// The rack holding the most of the job's current GPUs (ties to the
/// lowest rack index), or `None` for an idle job or a placement whose
/// width does not match the topology.
pub fn home_rack(job: &SchedJob, topo: &Topology) -> Option<u32> {
    demand_and_home(job, topo, &mut vec![0; topo.num_racks() as usize]).1
}

/// Assigns each job to a rack: `result[j]` is the rack of `jobs[j]`.
///
/// The greedy packing: a running job goes to its home rack, any other
/// job to the rack with the most capacity left (ties to the lowest
/// index), in job order. With one rack (or no jobs) the answer is
/// trivially all-zeros.
///
/// `prev` carries the previous interval's assignment keyed by job id:
/// when given, surviving jobs keep their old rack and arrivals take
/// the greedy choice, and that carried assignment is the answer unless
/// the greedy packing scores strictly higher. Winning ties is what
/// keeps idle jobs (which have no home-rack keep-bonus anchoring them)
/// from reshuffling between racks from round to round — and so keeps
/// the phase-2 per-rack carries valid.
///
/// `workers` bounds the threads that scan the jobs' placement rows for
/// their demand and home rack; the assignment does not depend on it.
pub fn assign_racks(
    jobs: &[SchedJob],
    spec: &ClusterSpec,
    topo: &Topology,
    prev: Option<&HashMap<JobId, u32>>,
    workers: usize,
) -> Vec<u32> {
    let num_racks = topo.num_racks() as usize;
    if jobs.is_empty() || num_racks <= 1 {
        return vec![0; jobs.len()];
    }
    let caps: Vec<u64> = (0..topo.num_racks())
        .map(|r| {
            topo.nodes_in(r)
                .map(|n| u64::from(spec.gpus_on(NodeId(n))))
                .sum()
        })
        .collect();
    let scanned = parallel_map(jobs.chunks(SCAN_CHUNK), workers, |chunk| {
        let mut held = vec![0u64; num_racks];
        let scan = chunk
            .iter()
            .map(|job| demand_and_home(job, topo, &mut held));
        scan.collect::<Vec<_>>()
    });
    let (demands, homes): (Vec<u64>, Vec<Option<u32>>) = scanned.into_iter().flatten().unzip();

    let mut remaining = caps.clone();
    let greedy: Vec<u32> = homes
        .iter()
        .zip(&demands)
        .map(|(&home, &demand)| {
            let r = home.unwrap_or_else(|| {
                let (best, _) = remaining
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
                    .expect("num_racks >= 2");
                best as u32
            });
            remaining[r as usize] = remaining[r as usize].saturating_sub(demand);
            r
        })
        .collect();
    let Some(prev) = prev else {
        return greedy;
    };

    // Deterministic score: integer capacity packing summed in rack
    // order plus f64 keep-bonuses summed in job order.
    let score = |assign: &[u32]| -> f64 {
        let mut load = vec![0u64; num_racks];
        for (j, &r) in assign.iter().enumerate() {
            load[r as usize] += demands[j];
        }
        let served: u64 = load.iter().zip(&caps).map(|(&l, &c)| l.min(c)).sum();
        let mut bonus = 0.0;
        for (j, &r) in assign.iter().enumerate() {
            if homes[j] == Some(r) {
                bonus += KEEP_BONUS * demands[j] as f64;
            }
        }
        served as f64 + bonus
    };
    // Stale rack indices only survive a topology change the caller
    // failed to clear; they fall back to the greedy choice too.
    let carried: Vec<u32> = greedy
        .iter()
        .zip(jobs)
        .map(|(&g, job)| match prev.get(&job.id) {
            Some(&r) if (r as usize) < num_racks => r,
            _ => g,
        })
        .collect();
    if score(&carried) >= score(&greedy) {
        carried
    } else {
        greedy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pollux_cluster::JobId;
    use pollux_models::{BatchSizeLimits, EfficiencyModel, GoodputModel, ThroughputParams};

    fn model() -> GoodputModel {
        let tp = ThroughputParams::new(0.05, 5.0e-4, 0.05, 0.002, 0.2, 0.01, 2.0).unwrap();
        let eff = EfficiencyModel::from_noise_scale(128, 3000.0).unwrap();
        let limits = BatchSizeLimits::new(128, 65_536, 512).unwrap();
        GoodputModel::new(tp, eff, limits).unwrap()
    }

    fn job(id: u32, placement: Vec<u32>) -> SchedJob {
        SchedJob {
            id: JobId(id),
            model: model(),
            min_gpus: 1,
            gpu_cap: 8,
            weight: 1.0,
            current_placement: placement,
        }
    }

    #[test]
    fn home_rack_follows_the_gpu_majority() {
        let topo = Topology::grouped(4, 2).unwrap();
        assert_eq!(home_rack(&job(0, vec![1, 0, 2, 1]), &topo), Some(1));
        assert_eq!(home_rack(&job(0, vec![2, 1, 0, 1]), &topo), Some(0));
        assert_eq!(home_rack(&job(0, vec![0, 0, 0, 0]), &topo), None);
        assert_eq!(
            home_rack(&job(0, vec![1, 1]), &topo),
            None,
            "width mismatch"
        );
        // Hostile cells sum without overflowing.
        let hostile = job(0, vec![u32::MAX, 1, u32::MAX, u32::MAX]);
        assert_eq!(home_rack(&hostile, &topo), Some(1));
    }

    #[test]
    fn single_rack_assigns_without_drawing() {
        // No RNG to draw from: one rack takes every job.
        let topo = Topology::single_rack(4).unwrap();
        let spec = ClusterSpec::homogeneous(4, 4).unwrap();
        let jobs: Vec<SchedJob> = (0..3).map(|i| job(i, vec![])).collect();
        assert_eq!(assign_racks(&jobs, &spec, &topo, None, 1), vec![0, 0, 0]);
    }

    #[test]
    fn assignment_is_deterministic_and_respects_capacity() {
        let topo = Topology::grouped(4, 2).unwrap();
        let spec = ClusterSpec::homogeneous(4, 4).unwrap();
        // Demand 1 each against two racks of 8 GPUs: each job takes the
        // rack with more room, ties to rack 0, at any worker count.
        let jobs: Vec<SchedJob> = (0..6).map(|i| job(i, vec![])).collect();
        for workers in [1, 2] {
            let assign = assign_racks(&jobs, &spec, &topo, None, workers);
            assert_eq!(assign, vec![0, 1, 0, 1, 0, 1], "{workers} workers");
        }
    }

    #[test]
    fn running_jobs_prefer_their_home_rack() {
        let topo = Topology::grouped(4, 2).unwrap();
        let spec = ClusterSpec::homogeneous(4, 4).unwrap();
        // Two running jobs, one per rack, each holding 2 GPUs; demand
        // fits everywhere, so the keep-bonus should pin them home.
        let jobs = vec![job(0, vec![2, 0, 0, 0]), job(1, vec![0, 0, 2, 0])];
        assert_eq!(assign_racks(&jobs, &spec, &topo, None, 1), vec![0, 1]);
    }

    #[test]
    fn carried_assignment_wins_score_ties() {
        let topo = Topology::grouped(4, 2).unwrap();
        let spec = ClusterSpec::homogeneous(4, 4).unwrap();
        // Six idle jobs (no home rack, no keep-bonus): every split
        // that fits scores identically, so without a carry the
        // assignment is free to drift between intervals. With one,
        // the previous assignment must win the ties verbatim.
        let jobs: Vec<SchedJob> = (0..6).map(|i| job(i, vec![])).collect();
        let prev: HashMap<JobId, u32> = (0..6u32)
            .map(|i| (JobId(i), u32::from(i % 2 == 0)))
            .collect();
        let assign = assign_racks(&jobs, &spec, &topo, Some(&prev), 1);
        let want: Vec<u32> = (0..6u32).map(|i| u32::from(i % 2 == 0)).collect();
        assert_eq!(assign, want, "carried assignment must survive ties");
    }

    #[test]
    fn carried_assignment_loses_to_a_better_packing() {
        let topo = Topology::grouped(4, 2).unwrap();
        let spec = ClusterSpec::homogeneous(4, 4).unwrap();
        // Four idle jobs of demand 4 carried onto one rack of 8 GPUs
        // serve 8; the greedy packing serves all 16.
        let jobs: Vec<SchedJob> = (0..4)
            .map(|i| SchedJob {
                min_gpus: 4,
                ..job(i, vec![])
            })
            .collect();
        let prev: HashMap<JobId, u32> = (0..4).map(|i| (JobId(i), 0)).collect();
        let assign = assign_racks(&jobs, &spec, &topo, Some(&prev), 1);
        assert_eq!(assign, vec![0, 1, 0, 1]);
    }

    #[test]
    fn carried_arrivals_fall_back_to_greedy() {
        let topo = Topology::grouped(4, 2).unwrap();
        let spec = ClusterSpec::homogeneous(4, 4).unwrap();
        let jobs: Vec<SchedJob> = (0..3).map(|i| job(i, vec![])).collect();
        // The carry only knows job 0 (plus a stale out-of-range rack
        // for job 1, which must be ignored); jobs 1 and 2 are new.
        let mut prev = HashMap::new();
        prev.insert(JobId(0), 1u32);
        prev.insert(JobId(1), 7u32);
        let assign = assign_racks(&jobs, &spec, &topo, Some(&prev), 1);
        assert_eq!(assign, vec![1, 1, 0], "job 0 kept, jobs 1 and 2 greedy");
    }

    /// A job of the scaled `sched_rounds` fixture: minimums and caps
    /// cycle through fixed patterns.
    fn fixture_job(id: u32, placement: Vec<u32>) -> SchedJob {
        let i = id as usize;
        let min_gpus = [1, 1, 2, 1, 4, 1, 2][i % 7];
        SchedJob {
            min_gpus,
            gpu_cap: min_gpus.max([1, 2, 4, 8][i % 4]),
            ..job(id, placement)
        }
    }

    fn fnv(assign: &[u32]) -> u64 {
        let bytes = assign.iter().flat_map(|r| r.to_le_bytes());
        bytes.fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    #[test]
    fn scaled_rounds_assignments_match_the_assignment_search() {
        // `sched_rounds`' standing jobs at an eighth of the scale, built
        // without an RNG: 128 nodes of 4 GPUs in 16-node racks, and
        // 1 250 jobs of which the first 512 hold one GPU each, packed
        // node by node. The digests are what the GA-based phase 1 this
        // module replaced returned on the same inputs under every seed
        // tried: the pick changes no assignment it made.
        const NODES: u32 = 128;
        const STANDING: u32 = 1_250;
        let spec = ClusterSpec::homogeneous(NODES, 4).unwrap();
        let topo = Topology::grouped(NODES, 16).unwrap();
        let mut jobs: Vec<SchedJob> = (0..STANDING)
            .map(|i| {
                let mut placement = vec![0; NODES as usize];
                if i < NODES * 4 {
                    placement[(i / 4) as usize] = 1;
                }
                fixture_job(i, placement)
            })
            .collect();
        let cold = assign_racks(&jobs, &spec, &topo, None, 2);
        assert_eq!(fnv(&cold), 0x79c9_c5b7_e3e5_e7c5, "cold");

        // The next round: the cold assignment carried, 100 standing
        // jobs replaced by idle arrivals.
        let carry: HashMap<JobId, u32> = jobs.iter().zip(&cold).map(|(j, &r)| (j.id, r)).collect();
        for k in 0..100 {
            let slot = ((k * 12 + 5) % STANDING) as usize;
            jobs[slot] = fixture_job(STANDING + k, vec![0; NODES as usize]);
        }
        let warm = assign_racks(&jobs, &spec, &topo, Some(&carry), 2);
        assert_eq!(fnv(&warm), 0xfb52_3157_cbe0_cc90, "warm");
    }
}
