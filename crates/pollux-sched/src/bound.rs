//! The separable bound on Eqn 14, and its optimum packed onto the nodes.
//!
//! `FITNESS(A) = Σ_j c_j / Σ_j w_j` with `c_j = w_j (SPEEDUP_j −
//! penalty_j)` a function of row `j` alone ([`mod@crate::fitness`]): jobs
//! couple only through node capacity and interference avoidance. Relax
//! both to a budget on the total GPU count and the numerator's maximum
//! is a multiple-choice knapsack. Each job picks one option at the cost
//! of its GPU count:
//!
//! - no GPUs, worth `−w · penalty` if the job is running and 0 if not;
//! - its current row, clamped to the node capacities, with no penalty;
//! - `K` GPUs for each `K` in `min_gpus..=min(gpu_cap, total)`, worth
//!   the larger of the co-located value (if `K` fits one node) and the
//!   distributed one, minus the penalty.
//!
//! [`solve`] finds the best pick with a DP over the budget, in
//! O(jobs × GPUs × options). Options that cost more and are worth no
//! more than a cheaper one never win and are dropped before the DP, and
//! budgets no prefix of the jobs can fill are never visited.
//!
//! # An exact upper bound
//!
//! The DP sums the picks' values in job order from `0.0`, as
//! [`crate::fitness::fitness_of`] sums contributions, and float addition
//! is monotone in each argument. Every feasible matrix's row `j` is
//! worth at most one of job `j`'s options, and its GPUs fit the budget,
//! so by induction over the jobs its numerator is at most the DP's, bit
//! for bit. [`Bound::value`] is therefore ≥ the fitness of every matrix
//! repair can return, and [`Bound::certifies`] is an exact comparison
//! with no tolerance.
//!
//! # The packing
//!
//! The pick is placed onto the nodes in four steps:
//!
//! 1. kept rows, as they are;
//! 2. distributed picks, largest first, on nodes that host no
//!    distributed job (any node with interference avoidance off): the
//!    emptiest whole, until the rest fits one, taken by best fit — one
//!    node, co-located after all, if the pick fits it;
//! 3. co-located picks, largest first, on the fullest node they fit;
//! 4. a pick that does not fit its locality tries the other, and one
//!    that fits neither takes the most GPUs left that it can use, or
//!    none.
//!
//! The result is feasible — repair returns it unchanged and draws
//! nothing — and when every pick fits with the locality it was priced
//! at, it reaches the bound and so is a proven optimum.

use crate::fitness::{fitness, row_contribution, weight_sum};
use crate::ga::{incumbents, GaConfig};
use crate::speedup::{SchedJob, SpeedupTable};
use pollux_cluster::{row_shape, AllocationMatrix, ClusterSpec};
use pollux_models::PlacementShape;
use std::cmp::Reverse;

/// What [`solve`] finds for one round.
#[derive(Debug, Clone)]
pub struct Bound {
    /// An upper bound on the fitness of every feasible matrix.
    pub value: f64,
    /// The DP's pick packed onto the nodes: a feasible matrix that
    /// repair returns unchanged.
    pub packed: AllocationMatrix,
    /// The fitness of [`Self::packed`], as the GA scores it.
    pub packed_fitness: f64,
}

impl Bound {
    /// Whether the packed matrix reaches the bound, and so is optimal.
    pub fn certifies(&self) -> bool {
        self.packed_fitness == self.value
    }
}

/// One job's choice in the relaxed problem.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Pick {
    Idle,
    /// The job's clamped current row.
    Keep,
    /// `gpus` GPUs, priced on several nodes if `spread`, else on one.
    Gpus {
        gpus: u32,
        spread: bool,
    },
}

/// A pick, its GPU cost and its contribution to the numerator.
#[derive(Debug, Clone, Copy)]
struct Opt {
    cost: u32,
    value: f64,
    pick: Pick,
}

/// The separable bound on Eqn 14 for `jobs` on `spec`, priced from
/// `table` (built from the same jobs and nodes) under `config`'s
/// restart penalty and interference-avoidance setting, and its pick
/// packed onto the nodes. Draws nothing.
pub fn solve(
    jobs: &[SchedJob],
    spec: &ClusterSpec,
    table: &SpeedupTable,
    config: &GaConfig,
) -> Bound {
    let kept = incumbents(jobs, spec);
    let total = spec.total_gpus();
    let widest = spec.iter().map(|(_, node)| node.gpus).max().unwrap_or(0);
    let multi_node = spec.num_nodes() >= 2;

    // Every job's undominated options, in ascending cost.
    let mut opts: Vec<Opt> = Vec::new();
    let mut ends = Vec::with_capacity(jobs.len());
    for (j, job) in jobs.iter().enumerate() {
        let running = job.is_running();
        let start = opts.len();
        opts.push(Opt {
            cost: 0,
            value: job.weight
                * if running {
                    -config.fitness.restart_penalty
                } else {
                    0.0
                },
            pick: Pick::Idle,
        });
        let mut offer = |opt: Opt| {
            let last = opts.last().expect("idle comes first");
            if opt.value > last.value {
                if last.cost == opt.cost {
                    opts.pop();
                }
                opts.push(opt);
            }
        };
        let (lo, hi) = (job.min_gpus.max(1), job.gpu_cap.min(total));
        let keep = row_shape(kept.row(j)).filter(|shape| (lo..=hi).contains(&shape.gpus));
        for gpus in lo..=hi {
            if let Some(shape) = keep.filter(|shape| shape.gpus == gpus) {
                let speedup = |shape| table.speedup(j, shape);
                let value = row_contribution(
                    job,
                    kept.row(j),
                    Some(shape),
                    running,
                    &config.fitness,
                    speedup,
                );
                offer(Opt {
                    cost: gpus,
                    value,
                    pick: Pick::Keep,
                });
            }
            let shape = |nodes| PlacementShape::new(gpus, nodes).expect("gpus >= nodes");
            let one = (gpus <= widest).then(|| table.speedup(j, shape(1)));
            let many = (multi_node && gpus >= 2).then(|| table.speedup(j, shape(2)));
            let (speedup, spread) = match (one, many) {
                (Some(one), Some(many)) if many > one => (many, true),
                (Some(one), _) => (one, false),
                (None, Some(many)) => (many, true),
                (None, None) => continue,
            };
            let mut s = speedup;
            if running {
                s -= config.fitness.restart_penalty;
            }
            offer(Opt {
                cost: gpus,
                value: job.weight * s,
                pick: Pick::Gpus { gpus, spread },
            });
        }
        ends.push((start, opts.len()));
    }

    // The DP: row `j` of `dp` holds, for each budget `b` up to the most
    // the first `j` jobs can use, their largest numerator on at most
    // `b` GPUs, and starts at `rows[j]`. A pure max per cell, so the
    // loops vectorize; the argmax is recovered on the way back.
    let mut dp: Vec<f64> = vec![0.0];
    let mut rows = Vec::with_capacity(jobs.len() + 2);
    rows.push(0);
    for &(start, end) in &ends {
        let at = rows[rows.len() - 1];
        let reach = dp.len() - at - 1;
        let most = opts[end - 1].cost as usize;
        let new_reach = (reach + most).min(total as usize);
        let row_at = dp.len();
        dp.resize(row_at + new_reach + 1, f64::NEG_INFINITY);
        let (done, next) = dp.split_at_mut(row_at);
        let prev = &done[at..];
        for opt in &opts[start..end] {
            let cost = opt.cost as usize;
            let (spanned, beyond) =
                next[cost..].split_at_mut((reach + 1).min(new_reach + 1 - cost));
            for (cell, &p) in spanned.iter_mut().zip(prev) {
                *cell = cell.max(p + opt.value);
            }
            let full = prev[reach] + opt.value;
            for cell in beyond {
                *cell = cell.max(full);
            }
        }
        rows.push(row_at);
    }
    rows.push(dp.len());
    let row = |j: usize| &dp[rows[j]..rows[j + 1]];
    let last = row(jobs.len());
    let den = weight_sum(jobs);
    let value = if den > 0.0 {
        last[last.len() - 1] / den
    } else {
        0.0
    };

    // The argmax, walked back from the last job: an option whose
    // candidate is the cell's value, recomputed with the same bits.
    // Only a NaN value finds none; the job then idles.
    let mut picks = vec![Pick::Idle; jobs.len()];
    let mut b = last.len() - 1;
    for j in (0..jobs.len()).rev() {
        let (prev, here) = (row(j), row(j + 1));
        let target = here[b];
        let (start, end) = ends[j];
        let opt = opts[start..end]
            .iter()
            .find(|opt| {
                let cost = opt.cost as usize;
                cost <= b && prev[(b - cost).min(prev.len() - 1)] + opt.value == target
            })
            .unwrap_or(&opts[start]);
        picks[j] = opt.pick;
        b = (b - opt.cost as usize).min(prev.len() - 1);
    }

    let packed = pack(jobs, spec, &kept, &picks, config.interference_avoidance);
    let packed_fitness = fitness(jobs, &packed, table, &config.fitness);
    debug_assert!(
        packed_fitness <= value,
        "a feasible matrix beat the separable bound: {packed_fitness} > {value}"
    );
    Bound {
        value,
        packed,
        packed_fitness,
    }
}

/// Places `picks` onto `spec`'s nodes (see the module docs); `kept`
/// holds the clamped current rows.
fn pack(
    jobs: &[SchedJob],
    spec: &ClusterSpec,
    kept: &AllocationMatrix,
    picks: &[Pick],
    avoid: bool,
) -> AllocationMatrix {
    let mut room = Room {
        free: spec.iter().map(|(_, node)| node.gpus).collect(),
        spread: vec![false; spec.num_nodes()],
        avoid,
    };
    let mut m = AllocationMatrix::zeros(picks.len(), spec.num_nodes());

    for (j, _) in picks.iter().enumerate().filter(|(_, &p)| p == Pick::Keep) {
        let row = kept.row(j);
        let wide = row_shape(row).is_some_and(|shape| shape.nodes >= 2);
        let fits = row.iter().zip(&room.free).all(|(&g, &f)| g <= f);
        let clash = || row.iter().zip(&room.spread).any(|(&g, &s)| g > 0 && s);
        if fits && !(avoid && wide && clash()) {
            room.take(row);
            m.copy_row(j, row);
        }
    }

    let largest_first = |spread_picks: bool| {
        let mut order: Vec<(u32, usize)> = picks
            .iter()
            .enumerate()
            .filter_map(|(j, &p)| match p {
                Pick::Gpus { gpus, spread } if spread == spread_picks => Some((gpus, j)),
                _ => None,
            })
            .collect();
        order.sort_by_key(|&(gpus, j)| (Reverse(gpus), j));
        order
    };
    // A pick that does not fit its locality tries the other, and one
    // that fits neither takes the most of what is left, from its
    // minimum up: any placement of a job's GPUs is worth at least none.
    let place = |room: &mut Room, gpus: u32, spread: bool, row: &mut [u32]| {
        if spread {
            room.distribute(gpus, row) || room.colocate(gpus, row)
        } else {
            room.colocate(gpus, row) || (gpus >= 2 && room.distribute(gpus, row))
        }
    };
    let mut unplaced = Vec::new();
    for spread in [true, false] {
        for (gpus, j) in largest_first(spread) {
            if !place(&mut room, gpus, spread, m.row_mut(j)) {
                unplaced.push((gpus, spread, j));
            }
        }
    }
    for (gpus, spread, j) in unplaced {
        let least = jobs[j].min_gpus.max(1);
        let row = m.row_mut(j);
        let _ = (least..gpus)
            .rev()
            .any(|fewer| place(&mut room, fewer, spread, row));
    }
    m
}

/// What the packing has left: free GPUs per node, and the nodes that
/// host a distributed job, which interference avoidance keeps from
/// hosting another.
struct Room {
    free: Vec<u32>,
    spread: Vec<bool>,
    avoid: bool,
}

impl Room {
    /// Removes `row`'s GPUs from the free ones.
    fn take(&mut self, row: &[u32]) {
        let wide = row_shape(row).is_some_and(|shape| shape.nodes >= 2);
        for ((free, spread), &g) in self.free.iter_mut().zip(&mut self.spread).zip(row) {
            *free -= g;
            *spread |= wide && g > 0;
        }
    }

    /// The fullest node with at least `gpus` free that `row` does not
    /// use yet and, if `open_only`, no distributed job holds.
    fn best_fit(&self, gpus: u32, row: &[u32], open_only: bool) -> Option<usize> {
        (0..self.free.len())
            .filter(|&n| self.free[n] >= gpus && row[n] == 0 && !(open_only && self.spread[n]))
            .min_by_key(|&n| (self.free[n], n))
    }

    /// Places `gpus` on one node, by best fit, into the empty `row`.
    fn colocate(&mut self, gpus: u32, row: &mut [u32]) -> bool {
        let Some(n) = self.best_fit(gpus, row, false) else {
            return false;
        };
        row[n] = gpus;
        self.free[n] -= gpus;
        true
    }

    /// Places `gpus` into the empty `row` on nodes no distributed job
    /// holds (any node with interference avoidance off): the emptiest
    /// whole, until the rest fits one, which takes it by best fit. A
    /// pick that fits one node lands there, co-located after all.
    fn distribute(&mut self, gpus: u32, row: &mut [u32]) -> bool {
        let open = |room: &Self, n: usize| !(room.avoid && room.spread[n]);
        let free: u32 = (0..self.free.len())
            .filter(|&n| open(self, n))
            .map(|n| self.free[n])
            .sum();
        if free < gpus {
            return false;
        }
        let mut left = gpus;
        let n = loop {
            if let Some(n) = self.best_fit(left, row, self.avoid) {
                break n;
            }
            let n = (0..self.free.len())
                .filter(|&n| open(self, n) && row[n] == 0)
                .max_by_key(|&n| (self.free[n], Reverse(n)))
                .expect("the open nodes hold the pick");
            row[n] = self.free[n];
            left -= self.free[n];
            self.free[n] = 0;
        };
        row[n] = left;
        self.free[n] -= left;
        let wide = left < gpus;
        for (spread, &g) in self.spread.iter_mut().zip(row.iter()) {
            *spread |= wide && g > 0;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ga::{repair_matrix, GaWorkspace};
    use pollux_cluster::JobId;
    use pollux_models::{BatchSizeLimits, EfficiencyModel, GoodputModel, ThroughputParams};
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    fn model(phi: f64) -> GoodputModel {
        let tp = ThroughputParams::new(0.05, 5.0e-4, 0.05, 0.002, 0.2, 0.01, 2.0).unwrap();
        let eff = EfficiencyModel::from_noise_scale(128, phi).unwrap();
        let limits = BatchSizeLimits::new(128, 65_536, 512).unwrap();
        GoodputModel::new(tp, eff, limits).unwrap()
    }

    fn job(id: u32, phi: f64, cap: u32, current: Vec<u32>) -> SchedJob {
        SchedJob {
            id: JobId(id),
            model: model(phi),
            min_gpus: 1,
            gpu_cap: cap,
            weight: 1.0,
            current_placement: current,
        }
    }

    #[test]
    fn an_uncontended_cluster_is_certified_at_every_cap() {
        // Two jobs that each fit a node: each takes its best shape.
        let spec = ClusterSpec::homogeneous(2, 4).unwrap();
        let jobs = vec![job(0, 3000.0, 4, vec![]), job(1, 300.0, 2, vec![])];
        let table = SpeedupTable::build(&jobs, &spec, 1);
        let bound = solve(&jobs, &spec, &table, &GaConfig::default());
        assert!(bound.certifies(), "{bound:?}");
        assert!(bound.packed.is_feasible(&spec));
        assert_eq!(bound.packed.gpus_of(0), 4);
        assert_eq!(bound.packed.gpus_of(1), 2);
    }

    #[test]
    fn the_packing_is_a_repaired_matrix_and_never_beats_the_bound() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..200 {
            let nodes = rng.gen_range(1..=5u32);
            let spec = ClusterSpec::homogeneous(nodes, rng.gen_range(1..=4)).unwrap();
            let num_jobs = rng.gen_range(0..=7);
            let mut jobs: Vec<SchedJob> = (0..num_jobs)
                .map(|j| {
                    let mut job = job(
                        j,
                        rng.gen_range(100.0..5000.0),
                        rng.gen_range(1..=12),
                        vec![],
                    );
                    job.min_gpus = rng.gen_range(0..=2);
                    job.weight = rng.gen_range(0.0..2.0);
                    job
                })
                .collect();
            // Incumbents from a repaired random matrix.
            let mut carried = AllocationMatrix::zeros(jobs.len(), spec.num_nodes());
            for j in 0..jobs.len() {
                for n in 0..spec.num_nodes() {
                    carried.set(j, n, rng.gen_range(0..=2));
                }
            }
            let mut ws = GaWorkspace::default();
            repair_matrix(&mut carried, &jobs, &spec, true, &mut rng, &mut ws);
            for (j, job) in jobs.iter_mut().enumerate() {
                job.current_placement = carried.row(j).to_vec();
            }
            for avoid in [true, false] {
                let config = GaConfig {
                    interference_avoidance: avoid,
                    ..Default::default()
                };
                let table = SpeedupTable::build(&jobs, &spec, 1);
                let bound = solve(&jobs, &spec, &table, &config);
                assert!(bound.packed_fitness <= bound.value);
                // Keeping the incumbents is one feasible matrix.
                assert!(fitness(&jobs, &carried, &table, &config.fitness) <= bound.value);
                let mut repaired = bound.packed.clone();
                let mut draws = rng.clone();
                ws.track(jobs.len());
                repair_matrix(&mut repaired, &jobs, &spec, avoid, &mut draws, &mut ws);
                assert_eq!(repaired, bound.packed, "repair leaves the packing as it is");
                assert!(ws.touched().iter().all(|&t| !t));
                assert_eq!(
                    draws.next_u64(),
                    rng.clone().next_u64(),
                    "and draws nothing"
                );
            }
        }
    }

    #[test]
    fn a_distributed_pick_fills_the_emptiest_nodes_no_other_spans() {
        // Six GPUs do not fit a 4-GPU node: the pick fills the emptiest
        // node and spills onto the next. A second spread pick avoids
        // both and fits one node, where it runs co-located.
        let spec = ClusterSpec::homogeneous(4, 4).unwrap();
        let picks = [
            Pick::Gpus {
                gpus: 6,
                spread: true,
            },
            Pick::Gpus {
                gpus: 3,
                spread: true,
            },
            Pick::Gpus {
                gpus: 2,
                spread: false,
            },
        ];
        let kept = AllocationMatrix::zeros(3, 4);
        let jobs: Vec<SchedJob> = (0..3).map(|j| job(j, 1000.0, 64, vec![])).collect();
        let m = pack(&jobs, &spec, &kept, &picks, true);
        assert_eq!(m.row(0), [4, 2, 0, 0]);
        assert_eq!(m.row(1), [0, 0, 3, 0]);
        assert_eq!(
            m.row(2),
            [0, 2, 0, 0],
            "best fit: the fullest node that holds it"
        );
        assert!(m.is_feasible(&spec) && m.satisfies_interference_avoidance());
        // A spread pick with no GPU left stays unallocated.
        let m = pack(
            &jobs,
            &spec,
            &kept,
            &[Pick::Gpus {
                gpus: 16,
                spread: true,
            }; 2],
            true,
        );
        assert_eq!((m.gpus_of(0), m.gpus_of(1)), (16, 0));
    }
}
