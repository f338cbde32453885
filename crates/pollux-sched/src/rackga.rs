//! Phase 1 of the rack-aware two-phase placement search: assign jobs
//! to racks.
//!
//! At datacenter scale the flat GA's chromosome (one GPU count per
//! (job, node) cell) grows with the full node count, even though a
//! job's placement only ever touches a handful of nodes. The
//! two-phase decomposition first picks a *rack* per job with a cheap
//! assignment GA (this module), then runs the existing placement GA
//! independently inside each rack over only that rack's nodes and
//! jobs — shrinking the per-job search space from O(nodes) to
//! O(racks) + O(nodes/rack).
//!
//! The assignment fitness is deliberately goodput-free (no table
//! solves): it packs rack demand under rack capacity and pays a
//! keep-bonus for leaving a running job on its *home* rack (the rack
//! holding most of its current GPUs), mirroring the placement GA's
//! restart penalty at rack granularity. The expensive goodput modeling
//! happens only inside the per-rack phase-2 searches.
//!
//! Determinism: the search itself is serial — one RNG stream, draws
//! in member/gene order. Only its input scan (`demand_and_home`, a
//! pure function of one job) fans out over the round's workers, in
//! job-order chunks reassembled in order — so assignments are
//! bit-identical for a fixed seed at any worker count. With a single
//! rack the phase is skipped entirely (the caller never invokes it),
//! which is what keeps the degenerate topology byte-identical to the
//! flat search.

use crate::par::parallel_map;
use crate::speedup::SchedJob;
use pollux_cluster::{ClusterSpec, JobId, NodeId, Topology};
use rand::Rng;
use std::collections::HashMap;

/// Population size of the assignment GA.
const POPULATION: usize = 16;
/// Generations evolved per interval.
const GENERATIONS: usize = 12;
/// Consecutive generations without a strict best-score improvement
/// before the search stops early. A warm interval seeded with the
/// previous assignment (see [`assign_racks`]'s `prev`) usually starts
/// at the optimum and stops here instead of running all
/// [`GENERATIONS`].
const EARLY_STOP_GENS: usize = 3;
/// Per-gene mutation probability.
const MUTATION_PROB: f64 = 0.125;
/// Tournament size for parent selection.
const TOURNAMENT: usize = 3;
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
/// scratch, one slot per rack.
fn demand_and_home(job: &SchedJob, topo: &Topology, held: &mut [u64]) -> (u64, Option<u32>) {
    let racked = job.current_placement.len() == topo.num_nodes();
    held.fill(0);
    let mut total = 0u32;
    // A placement row is almost all zeros (a job holds a few nodes of
    // a thousand), so empty blocks are skipped whole.
    for (b, block) in job.current_placement.chunks(CELL_BLOCK).enumerate() {
        if block.iter().fold(0, |any, &g| any | g) == 0 {
            continue;
        }
        for (i, &g) in block.iter().enumerate() {
            if g > 0 {
                total += g;
                if racked {
                    let n = NodeId((b * CELL_BLOCK + i) as u32);
                    held[topo.rack_of(n) as usize] += u64::from(g);
                }
            }
        }
    }
    let demand = u64::from(total.max(job.min_gpus.max(1)).min(job.gpu_cap.max(1)));
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
/// A small serial GA over assignment vectors, seeded with a greedy
/// capacity-aware packing that respects home racks. With one rack (or
/// no jobs) the answer is trivially all-zeros without touching `rng`.
///
/// `prev` carries the previous interval's assignment keyed by job id:
/// when given, it seeds a second population member (surviving jobs
/// keep their old rack, arrivals fall back to the greedy choice). On
/// a quiet interval that member already scores at the previous
/// optimum, so the search early-stops after `EARLY_STOP_GENS` stale
/// generations — and, just as importantly, idle jobs (which have no
/// home-rack keep-bonus anchoring them) stop reshuffling between
/// racks from round to round, which is what keeps the phase-2
/// per-rack carries valid.
///
/// `workers` bounds the threads that scan the jobs' placement rows for
/// their demand and home rack; the assignment does not depend on it.
pub fn assign_racks<R: Rng>(
    jobs: &[SchedJob],
    spec: &ClusterSpec,
    topo: &Topology,
    prev: Option<&HashMap<JobId, u32>>,
    workers: usize,
    rng: &mut R,
) -> Vec<u32> {
    let num_racks = topo.num_racks() as usize;
    if jobs.is_empty() || num_racks <= 1 {
        return vec![0; jobs.len()];
    }
    let caps: Vec<u64> = (0..topo.num_racks())
        .map(|r| {
            topo.nodes_in(r)
                .iter()
                .map(|&n| u64::from(spec.gpus_on(NodeId(n))))
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

    // Greedy seed: home rack when one exists, otherwise the rack with
    // the most remaining capacity (ties to the lowest index).
    let mut remaining = caps.clone();
    let seed: Vec<u32> = jobs
        .iter()
        .enumerate()
        .map(|(j, _)| {
            let r = match homes[j] {
                Some(h) => h,
                None => {
                    let (best, _) = remaining
                        .iter()
                        .enumerate()
                        .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
                        .expect("num_racks >= 2");
                    best as u32
                }
            };
            remaining[r as usize] = remaining[r as usize].saturating_sub(demands[j]);
            r
        })
        .collect();

    let mutate = |assign: &mut Vec<u32>, rng: &mut R| {
        for gene in assign.iter_mut() {
            if rng.gen_bool(MUTATION_PROB) {
                *gene = rng.gen_range(0..num_racks as u32);
            }
        }
    };

    // Carried seed: the previous interval's rack per surviving job,
    // greedy fallback for arrivals (and for stale rack indices, which
    // only survive a topology change the caller failed to clear).
    let carried: Option<Vec<u32>> = prev.map(|prev| {
        seed.iter()
            .enumerate()
            .map(|(j, &g)| match prev.get(&jobs[j].id) {
                Some(&r) if (r as usize) < num_racks => r,
                _ => g,
            })
            .collect()
    });

    // Seed order matters: ranking sorts are stable and the final pick
    // takes the sorted-first best, so among equal scores the carried
    // assignment wins over the greedy re-derivation and both win over
    // mutated children — quiet intervals keep the previous assignment
    // instead of drifting through score ties.
    let mut population: Vec<(Vec<u32>, f64)> = Vec::with_capacity(POPULATION * 2);
    if let Some(carried) = carried {
        let s = score(&carried);
        population.push((carried, s));
    }
    if population.is_empty() || population[0].0 != seed {
        let s = score(&seed);
        population.push((seed, s));
    }
    // Mutants spread from the better seed.
    let base = (population.len() > 1 && population[1].1 > population[0].1) as usize;
    while population.len() < POPULATION {
        let mut member = population[base].0.clone();
        mutate(&mut member, rng);
        let s = score(&member);
        population.push((member, s));
    }

    let mut best_score = population
        .iter()
        .map(|m| m.1)
        .fold(f64::NEG_INFINITY, f64::max);
    let mut stale = 0usize;
    for _ in 0..GENERATIONS {
        // Parent selection draws by index into the *current* ranking;
        // the offspring are appended and the combined pool is ranked.
        let pool = population.len();
        for _ in 0..POPULATION {
            let pick = |rng: &mut R| {
                (0..TOURNAMENT)
                    .map(|_| rng.gen_range(0..pool))
                    .min_by(|&a, &b| {
                        population[a]
                            .1
                            .total_cmp(&population[b].1)
                            .reverse()
                            .then(a.cmp(&b))
                    })
                    .expect("tournament size > 0")
            };
            let (a, b) = (pick(rng), pick(rng));
            // Uniform crossover, then mutation.
            let mut child: Vec<u32> = (0..jobs.len())
                .map(|j| {
                    if rng.gen_bool(0.5) {
                        population[a].0[j]
                    } else {
                        population[b].0[j]
                    }
                })
                .collect();
            mutate(&mut child, rng);
            let s = score(&child);
            population.push((child, s));
        }
        population.sort_by(|x, y| y.1.total_cmp(&x.1));
        population.truncate(POPULATION);
        if population[0].1 > best_score {
            best_score = population[0].1;
            stale = 0;
        } else {
            stale += 1;
            if stale >= EARLY_STOP_GENS {
                break;
            }
        }
    }

    // The population is sorted best-first after every generation;
    // taking the front (not `max_by`, whose tie-break prefers the
    // *last* maximum) keeps seed-order priority under score ties.
    population
        .into_iter()
        .next()
        .expect("non-empty population")
        .0
}

#[cfg(test)]
mod tests {
    use super::*;
    use pollux_cluster::JobId;
    use pollux_models::{BatchSizeLimits, EfficiencyModel, GoodputModel, ThroughputParams};
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

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
    }

    #[test]
    fn single_rack_assigns_without_drawing() {
        let topo = Topology::single_rack(4).unwrap();
        let spec = ClusterSpec::homogeneous(4, 4).unwrap();
        let jobs: Vec<SchedJob> = (0..3).map(|i| job(i, vec![])).collect();
        let mut rng = StdRng::seed_from_u64(1);
        let before = rng.clone().next_u64();
        let assign = assign_racks(&jobs, &spec, &topo, None, 1, &mut rng);
        assert_eq!(assign, vec![0, 0, 0]);
        assert_eq!(rng.next_u64(), before, "single rack must not draw");
    }

    #[test]
    fn assignment_is_deterministic_and_respects_capacity() {
        let topo = Topology::grouped(4, 2).unwrap();
        let spec = ClusterSpec::homogeneous(4, 4).unwrap();
        let jobs: Vec<SchedJob> = (0..6).map(|i| job(i, vec![])).collect();
        let a1 = assign_racks(&jobs, &spec, &topo, None, 1, &mut StdRng::seed_from_u64(7));
        let a2 = assign_racks(&jobs, &spec, &topo, None, 1, &mut StdRng::seed_from_u64(7));
        assert_eq!(a1, a2, "same seed, same assignment");
        assert!(a1.iter().all(|&r| r < topo.num_racks()));
        // 6 jobs of demand 1 against two racks of 8 GPUs each: both
        // racks can serve everything, so no rack should be starved of
        // all jobs only if capacity forced it — just check validity.
        assert_eq!(a1.len(), 6);
    }

    #[test]
    fn running_jobs_prefer_their_home_rack() {
        let topo = Topology::grouped(4, 2).unwrap();
        let spec = ClusterSpec::homogeneous(4, 4).unwrap();
        // Two running jobs, one per rack, each holding 2 GPUs; demand
        // fits everywhere, so the keep-bonus should pin them home.
        let jobs = vec![job(0, vec![2, 0, 0, 0]), job(1, vec![0, 0, 2, 0])];
        let assign = assign_racks(&jobs, &spec, &topo, None, 1, &mut StdRng::seed_from_u64(3));
        assert_eq!(assign, vec![0, 1]);
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
        let assign = assign_racks(
            &jobs,
            &spec,
            &topo,
            Some(&prev),
            1,
            &mut StdRng::seed_from_u64(9),
        );
        let want: Vec<u32> = (0..6u32).map(|i| u32::from(i % 2 == 0)).collect();
        assert_eq!(assign, want, "carried assignment must survive ties");
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
        let assign = assign_racks(
            &jobs,
            &spec,
            &topo,
            Some(&prev),
            1,
            &mut StdRng::seed_from_u64(9),
        );
        assert_eq!(assign.len(), 3);
        assert_eq!(assign[0], 1, "surviving job keeps its carried rack");
        assert!(assign.iter().all(|&r| r < topo.num_racks()));
    }
}
