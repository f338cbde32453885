//! The genetic algorithm over allocation matrices (Sec. 4.2.1, Fig 5).
//!
//! Each generation:
//!
//! 1. **Mutation** — every element `A[j][n]` of every member mutates
//!    with probability `1/N` (one expected mutation per job row) to a
//!    uniform random GPU count in `[0, capacity(n)]`.
//! 2. **Crossover** — offspring rows are mixed from two parents chosen
//!    by tournament selection.
//! 3. **Repair** — offspring are made feasible: node capacities
//!    (random decrements within over-capacity columns), per-job
//!    minimums and scale caps, and (optionally) the
//!    interference-avoidance constraint that at most one *distributed*
//!    job occupies any node.
//! 4. **Survival** — the population is truncated back to its constant
//!    size by discarding the lowest-fitness members.
//!
//! # Incremental fitness evaluation
//!
//! Eqn 14 is a weighted mean of independent per-job terms, so each
//! chromosome carries its per-job **contribution vector**
//! `c_j = w_j (SPEEDUP_j − penalty_j)` alongside the matrix. Mutation,
//! crossover, and repair report which rows they touched; only those
//! contributions are recomputed against the dense [`SpeedupTable`],
//! and crossover copies each row's contribution from the parent that
//! supplied the row (a contribution is a pure function of its row).
//! [`crate::fitness::fitness_of`] folds the vector in index order with
//! the exact arithmetic of a full pass, so the incremental fitness is
//! bit-identical to a from-scratch evaluation — an invariant checked
//! by a `debug_assert` full recompute on every offspring in debug
//! builds and pinned by the determinism test suite.
//!
//! # Seed-per-slot determinism
//!
//! `evolve` is serial: one thread builds every member of a generation
//! (a generation is ≈ 80 members of ≈ 1.4 µs each, less than two
//! thread spawns — fanning it out measured +55 % wall time, DESIGN §8).
//! Its RNG contract is **seed-per-slot splitting**: the master RNG is
//! advanced once per population slot, drawing one `u64` seed; each
//! slot then derives its own private `StdRng` from that seed and
//! performs every random decision for that slot locally. No slot
//! observes another slot's RNG stream, so a member is a pure function
//! of `(slot index, master seed)` — the draw order the golden digests
//! pin. The racked round runs whole `evolve` calls side by side, one
//! per rack ([`crate::scheduler`]); nothing inside a call is shared.

use crate::fitness::{fitness_of, row_contribution, weight_sum, FitnessConfig};
use crate::speedup::{SchedJob, SpeedupTable};
use pollux_cluster::{row_shape, AllocationMatrix, ClusterSpec, NodeId};
use pollux_models::PlacementShape;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Members drawn per crossover parent selection (Sec. 4.2.1's
/// tournament).
const TOURNAMENT_SIZE: usize = 2;

/// Configuration of the genetic algorithm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaConfig {
    /// Constant population size (the paper uses 100).
    pub population: usize,
    /// Generations per scheduling interval (the paper uses 100).
    pub generations: usize,
    /// Enforce the interference-avoidance constraint during repair.
    pub interference_avoidance: bool,
    /// Stop early after this many generations without improvement of
    /// the best fitness (0 = always run all `generations`, like the
    /// paper's fixed 100-generation budget).
    pub early_stop_gens: usize,
    /// Fitness evaluation settings (restart penalty).
    pub fitness: FitnessConfig,
}

impl Default for GaConfig {
    fn default() -> Self {
        Self {
            population: 100,
            generations: 100,
            interference_avoidance: true,
            early_stop_gens: 8,
            fitness: FitnessConfig::default(),
        }
    }
}

/// Evaluation counters of one `evolve` call, a function of the master
/// seed alone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GaRunStats {
    /// Generations actually executed (≤ `GaConfig::generations` when
    /// early stopping triggers).
    pub generations_run: u64,
    /// Chromosome fitness evaluations, full and incremental.
    pub fitness_evals: u64,
    /// The subset of `fitness_evals` served by patching a parent's
    /// contribution vector instead of recomputing every row.
    pub incremental_evals: u64,
    /// Per-job contribution rows recomputed across all evaluations
    /// (`jobs × full evals + touched rows of incremental evals`).
    pub rows_recomputed: u64,
}

/// Outcome of one `evolve` call.
#[derive(Debug, Clone)]
pub struct GaOutcome {
    /// The highest-fitness allocation matrix found.
    pub best: AllocationMatrix,
    /// Its fitness value.
    pub best_fitness: f64,
    /// Evaluation counters for this run.
    pub stats: GaRunStats,
}

/// The genetic optimizer. Stateless between calls; population
/// persistence is handled by the caller (see `scheduler`).
#[derive(Debug, Clone)]
pub struct GeneticAlgorithm {
    config: GaConfig,
}

/// Borrowed inputs shared by every population slot of one round,
/// handed to the per-slot builder as one reference.
struct EvalCtx<'a> {
    jobs: &'a [SchedJob],
    spec: &'a ClusterSpec,
    table: &'a SpeedupTable,
    weight_sum: f64,
    /// [`SchedJob::is_running`] of every job, fixed for the round.
    running: &'a [bool],
    /// First initial-population slot built by mutating an empty matrix.
    first_fresh: usize,
    /// The population offspring are bred from (empty while the initial
    /// population is being built) and its fitnesses.
    parents: &'a [Member],
    fitnesses: &'a [f64],
    slot_seeds: &'a [u64],
}

/// One chromosome with its cached per-job fitness contributions.
/// `evolve` recycles these buffers: a member that loses survival is
/// overwritten by an offspring of the next generation.
#[derive(Debug, Default)]
struct Member {
    matrix: AllocationMatrix,
    contrib: Vec<f64>,
    fitness: f64,
}

/// Scratch that mutation and repair reuse from call to call, so that
/// building a member allocates nothing once the buffers have grown.
/// One per `evolve` call; what carries meaning between calls is
/// [`Self::touched`], which the caller resets with [`Self::track`],
/// and the tally `evolve` reads at its end.
#[derive(Debug, Default)]
pub struct GaWorkspace {
    touched: Vec<bool>,
    /// Contribution rows recomputed.
    rows_recomputed: u64,
    /// `K_j` and `N_j`: GPUs and occupied nodes of each row, current
    /// when repair returns, so the caller need not rescan the rows.
    row_gpus: Vec<u32>,
    row_nodes: Vec<u32>,
    /// Column sums, and per column the rows holding GPUs on it in
    /// ascending row order: `holders[n * num_jobs..][..col_jobs[n]]`.
    col_gpus: Vec<u32>,
    col_jobs: Vec<usize>,
    holders: Vec<u32>,
    /// Per column, the holders that were distributed when their row
    /// was entered. Later steps only take GPUs away, so it bounds the
    /// distributed jobs interference avoidance can find there.
    col_spread: Vec<u32>,
    /// The list a random pick is drawn from: a row's occupied nodes,
    /// an over-full column's holders, a node's distributed jobs.
    picks: Vec<usize>,
    order: Vec<usize>,
}

impl GaWorkspace {
    /// Starts tracking `num_jobs` rows with no row marked.
    pub fn track(&mut self, num_jobs: usize) {
        self.touched.clear();
        self.touched.resize(num_jobs, false);
    }

    /// The rows that mutation and repair rewrote since [`Self::track`]
    /// (conservatively: a cell rewritten to its old value still marks
    /// the row — recomputing an unchanged row yields the same
    /// contribution bits). Rows beyond the tracked count go unmarked.
    pub fn touched(&self) -> &[bool] {
        &self.touched
    }
}

#[inline]
fn mark(touched: &mut [bool], j: usize) {
    if let Some(t) = touched.get_mut(j) {
        *t = true;
    }
}

impl GeneticAlgorithm {
    /// Creates the optimizer with the given configuration.
    pub fn new(config: GaConfig) -> Self {
        Self { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &GaConfig {
        &self.config
    }

    /// Mutates `m` in place: each element flips with probability `1/N`
    /// to a uniform GPU count within the node's capacity. Every row
    /// that had a cell rewritten is marked in `ws`.
    fn mutate<R: Rng>(
        &self,
        m: &mut AllocationMatrix,
        spec: &ClusterSpec,
        rng: &mut R,
        ws: &mut GaWorkspace,
    ) {
        let p = 1.0 / m.num_nodes().max(1) as f64;
        for j in 0..m.num_jobs() {
            for node in 0..m.num_nodes() {
                if rng.gen_bool(p) {
                    let cap = spec.gpus_on(NodeId(node as u32));
                    m.set(j, node, rng.gen_range(0..=cap));
                    mark(&mut ws.touched, j);
                }
            }
        }
    }

    /// Writes into `child` an offspring whose rows are randomly mixed
    /// from the two parents, one `gen_bool` per row. Each row's cached
    /// contribution comes along from the parent supplying the row (a
    /// contribution is a pure function of its row), so the child needs
    /// no evaluation for rows repair leaves untouched.
    fn crossover<R: Rng>(a: &Member, b: &Member, child: &mut Member, rng: &mut R) {
        debug_assert_eq!(a.matrix.num_jobs(), b.matrix.num_jobs());
        debug_assert_eq!(a.matrix.num_nodes(), b.matrix.num_nodes());
        for j in 0..a.matrix.num_jobs() {
            let src = if rng.gen_bool(0.5) { a } else { b };
            child.matrix.copy_row(j, src.matrix.row(j));
            child.contrib[j] = src.contrib[j];
        }
    }

    /// Tournament selection: returns the index of the best of
    /// two uniformly sampled members.
    fn tournament_select<R: Rng>(fitnesses: &[f64], rng: &mut R) -> usize {
        let mut best = rng.gen_range(0..fitnesses.len());
        for _ in 1..TOURNAMENT_SIZE {
            let c = rng.gen_range(0..fitnesses.len());
            if fitnesses[c] > fitnesses[best] {
                best = c;
            }
        }
        best
    }

    /// Builds the member of one population slot into `child` from the
    /// slot's seed. With no parents it is an initial member: `child`
    /// holds its template (mutated first from `ctx.first_fresh` on)
    /// and every row is evaluated. Otherwise slots below
    /// `parents.len()` are mutated copies of the same-index parent and
    /// the rest are crossover children of tournament-selected parents;
    /// either way only the rows mutation and repair touched have their
    /// contributions recomputed, the others keep the parent's.
    fn build_member(
        &self,
        slot: usize,
        ctx: &EvalCtx<'_>,
        ws: &mut GaWorkspace,
        child: &mut Member,
    ) {
        let parents = ctx.parents;
        let mut rng = StdRng::seed_from_u64(ctx.slot_seeds[slot]);
        ws.track(ctx.jobs.len());
        child.contrib.resize(ctx.jobs.len(), 0.0);
        let initial = parents.is_empty();
        let mutated = if initial {
            slot >= ctx.first_fresh
        } else if let Some(parent) = parents.get(slot) {
            for j in 0..parent.matrix.num_jobs() {
                child.matrix.copy_row(j, parent.matrix.row(j));
            }
            child.contrib.copy_from_slice(&parent.contrib);
            true
        } else {
            let a = Self::tournament_select(ctx.fitnesses, &mut rng);
            let b = Self::tournament_select(ctx.fitnesses, &mut rng);
            Self::crossover(&parents[a], &parents[b], child, &mut rng);
            false
        };
        if mutated {
            self.mutate(&mut child.matrix, ctx.spec, &mut rng, ws);
        }
        let avoid = self.config.interference_avoidance;
        repair_matrix(&mut child.matrix, ctx.jobs, ctx.spec, avoid, &mut rng, ws);

        let evaluate = |j: usize, shape: Option<PlacementShape>, row: &[u32]| {
            row_contribution(
                &ctx.jobs[j],
                row,
                shape,
                ctx.running[j],
                &self.config.fitness,
                |shape| ctx.table.speedup(j, shape),
            )
        };
        // Repair left every row's `K` and `N` in the workspace.
        for j in (0..ctx.jobs.len()).filter(|&j| initial || ws.touched[j]) {
            let shape = PlacementShape::new(ws.row_gpus[j], ws.row_nodes[j]);
            child.contrib[j] = evaluate(j, shape, child.matrix.row(j));
            ws.rows_recomputed += 1;
        }
        debug_assert!(
            (0..ctx.jobs.len()).all(|j| {
                let row = child.matrix.row(j);
                evaluate(j, row_shape(row), row).to_bits() == child.contrib[j].to_bits()
            }),
            "incremental contributions diverged from a full recompute"
        );
        child.fitness = fitness_of(&child.contrib, ctx.weight_sum);
    }

    /// Runs the genetic algorithm from a seed population.
    ///
    /// Seed members with mismatched dimensions are discarded; the
    /// population is refilled with repaired random members. All members
    /// are repaired before evaluation, so the returned best matrix is
    /// always feasible.
    ///
    /// Speedup lookups go through `table`, which the caller builds once
    /// per scheduling interval via [`SpeedupTable::build`] from the
    /// same `jobs` slice (and a spec with the same nodes) passed here.
    ///
    /// `rng` is the master RNG: it is advanced by exactly one seed
    /// draw per population slot, so the outcome — and the stream a
    /// later consumer of `rng` sees — depends only on the master seed.
    ///
    /// Returns the outcome and, beside it, the final population, for
    /// bootstrapping the next interval (Sec. 4.3: "the entire
    /// population is saved and used to bootstrap the genetic algorithm
    /// in the next scheduling interval").
    pub fn evolve<R: Rng>(
        &self,
        jobs: &[SchedJob],
        spec: &ClusterSpec,
        seed: Vec<AllocationMatrix>,
        table: &SpeedupTable,
        rng: &mut R,
    ) -> (GaOutcome, Vec<AllocationMatrix>) {
        let num_jobs = jobs.len();
        let num_nodes = spec.num_nodes();
        let pop_size = self.config.population.max(2);

        // The initial population, built in place from its templates:
        // retained seed members, the "current allocations" member (so
        // doing nothing is representable), and fresh random members
        // (mutated from zero) to fill up to `pop_size`.
        let template = |matrix| Member {
            matrix,
            ..Default::default()
        };
        let mut members: Vec<Member> = seed
            .into_iter()
            .filter(|m| m.num_jobs() == num_jobs && m.num_nodes() == num_nodes)
            .take(pop_size)
            .map(template)
            .collect();
        members.push(template(incumbents(jobs, spec)));
        let first_fresh = members.len();
        while members.len() < pop_size {
            members.push(template(AllocationMatrix::zeros(num_jobs, num_nodes)));
        }

        let weight_sum = weight_sum(jobs);
        let running: Vec<bool> = jobs.iter().map(SchedJob::is_running).collect();
        let mut ws = GaWorkspace::default();
        let mut run_stats = GaRunStats::default();
        // `members[..live]` is the population; the buffers behind it
        // are last generation's losers, overwritten by the offspring.
        let mut live = 0;
        let mut fitnesses: Vec<f64> = Vec::new();
        let mut slot_seeds: Vec<u64> = Vec::new();
        let mut order: Vec<usize> = Vec::new();
        let mut ranked: Vec<Member> = Vec::new();
        let mut best_so_far = f64::NEG_INFINITY;
        let mut stale_gens = 0usize;
        // Round 0 builds the initial population; every later round is
        // a generation: one mutated copy per member plus `pop_size`
        // crossover children, then survival.
        for generation in 0..=self.config.generations {
            let num_slots = if generation == 0 {
                members.len()
            } else {
                run_stats.generations_run += 1;
                run_stats.incremental_evals += (live + pop_size) as u64;
                live + pop_size
            };
            // One seed per slot, drawn serially from the master RNG.
            slot_seeds.clear();
            slot_seeds.extend((0..num_slots).map(|_| rng.next_u64()));
            members.resize_with(live + num_slots, || {
                template(AllocationMatrix::zeros(num_jobs, num_nodes))
            });
            let (parents, slots) = members.split_at_mut(live);
            let ctx = EvalCtx {
                jobs,
                spec,
                table,
                weight_sum,
                running: &running,
                first_fresh,
                parents,
                fitnesses: &fitnesses,
                slot_seeds: &slot_seeds,
            };
            for (i, child) in slots.iter_mut().enumerate() {
                self.build_member(i, &ctx, &mut ws, child);
            }
            run_stats.fitness_evals += num_slots as u64;
            fitnesses.extend(slots.iter().map(|m| m.fitness));
            if generation == 0 {
                live = members.len();
                best_so_far = fitnesses.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                continue;
            }

            // Survival: the top `pop_size` move to the front. Fitter
            // first, NaN last, ties by slot index: a total order, and
            // for finite fitnesses that of a stable descending sort.
            order.clear();
            order.extend(0..members.len());
            order.sort_unstable_by(|&a, &b| {
                let (fa, fb) = (fitnesses[a], fitnesses[b]);
                fb.partial_cmp(&fa)
                    .unwrap_or_else(|| fa.is_nan().cmp(&fb.is_nan()))
                    .then(a.cmp(&b))
            });
            ranked.clear();
            ranked.extend(order.iter().map(|&i| std::mem::take(&mut members[i])));
            std::mem::swap(&mut members, &mut ranked);
            live = pop_size;
            fitnesses.clear();
            fitnesses.extend(members[..live].iter().map(|m| m.fitness));

            if self.config.early_stop_gens > 0 {
                let best_now = fitnesses.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                if best_now > best_so_far + 1e-12 {
                    best_so_far = best_now;
                    stale_gens = 0;
                } else {
                    stale_gens += 1;
                    if stale_gens >= self.config.early_stop_gens {
                        break;
                    }
                }
            }
        }
        run_stats.rows_recomputed = ws.rows_recomputed;

        let best_idx = fitnesses
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0);
        members.truncate(live);
        let outcome = GaOutcome {
            best: members[best_idx].matrix.clone(),
            best_fitness: fitnesses[best_idx],
            stats: run_stats,
        };
        (outcome, members.into_iter().map(|m| m.matrix).collect())
    }
}

/// The "current allocations" matrix: row `j` is `jobs[j]`'s current
/// placement with each cell clamped to its node's GPUs, or empty when
/// the placement's width is not the cluster's.
pub(crate) fn incumbents(jobs: &[SchedJob], spec: &ClusterSpec) -> AllocationMatrix {
    let caps: Vec<u32> = spec.iter().map(|(_, node)| node.gpus).collect();
    let mut m = AllocationMatrix::zeros(jobs.len(), caps.len());
    for (row, job) in m.rows_mut().zip(jobs) {
        if job.current_placement.len() == caps.len() {
            for ((cell, &g), &cap) in row.iter_mut().zip(&job.current_placement).zip(&caps) {
                *cell = g.min(cap);
            }
        }
    }
    m
}

/// Repairs `m` into a feasible allocation (the Fig 5 repair step),
/// shared by the genetic algorithm and the local-search backend:
///
/// 1. per-job scale caps — random decrements until `K ≤ gpu_cap`;
/// 2. node capacities — random decrements within over-capacity
///    columns;
/// 3. optionally, interference avoidance — on every node hosting two
///    or more distributed jobs, one random one keeps its GPUs there
///    and the others lose theirs (Sec. 4.2.1), nodes in random order.
///    Evicting a distributed job's GPUs from a node never creates a
///    *new* distributed job, so one pass suffices;
/// 4. per-job minimums — rows left with `0 < K < min_gpus` are zeroed
///    (the job stays pending rather than holding useless GPUs).
///
/// One row-major pass gathers `K_j`, `N_j`, the column sums and each
/// column's holders; every later decrement keeps them current, so no
/// step rescans the matrix — nor does the caller, who finds `K_j` and
/// `N_j` of the repaired rows in `ws`. The random draws — which, in
/// which order, from lists in which order — are the contract
/// (DESIGN.md §3.1). Rows the repair rewrites are marked in `ws`.
pub fn repair_matrix<R: Rng>(
    m: &mut AllocationMatrix,
    jobs: &[SchedJob],
    spec: &ClusterSpec,
    interference_avoidance: bool,
    rng: &mut R,
    ws: &mut GaWorkspace,
) {
    let (num_jobs, num_nodes) = (m.num_jobs(), m.num_nodes());
    assert!(jobs.len() <= num_jobs, "allocation matrix too small");
    ws.row_gpus.clear();
    ws.row_nodes.clear();
    ws.col_gpus.clear();
    ws.col_gpus.resize(num_nodes, 0);
    ws.col_jobs.clear();
    ws.col_jobs.resize(num_nodes, 0);
    ws.col_spread.clear();
    ws.col_spread.resize(num_nodes, 0);
    if ws.holders.len() < num_jobs * num_nodes {
        ws.holders.resize(num_jobs * num_nodes, 0);
    }

    // The pass, with step 1 applied to each row before it is entered
    // into the column sums: single-GPU decrements at random occupied
    // nodes, O(excess + nodes) per job.
    for j in 0..num_jobs {
        ws.picks.clear();
        let mut k = 0;
        for (n, &g) in m.row(j).iter().enumerate() {
            if g > 0 {
                k += g;
                ws.picks.push(n);
            }
        }
        let cap = jobs.get(j).map_or(u32::MAX, |job| job.gpu_cap);
        if k > cap {
            mark(&mut ws.touched, j);
            for _ in cap..k {
                let pick = rng.gen_range(0..ws.picks.len());
                let n = ws.picks[pick];
                let left = m.get(j, n) - 1;
                m.set(j, n, left);
                if left == 0 {
                    ws.picks.swap_remove(pick);
                }
            }
            k = cap;
        }
        ws.row_gpus.push(k);
        ws.row_nodes.push(ws.picks.len() as u32);
        let spread = u32::from(ws.picks.len() > 1);
        let row = m.row(j);
        for &n in ws.picks.iter() {
            ws.col_gpus[n] += row[n];
            ws.holders[n * num_jobs + ws.col_jobs[n]] = j as u32;
            ws.col_jobs[n] += 1;
            ws.col_spread[n] += spread;
        }
    }

    // Step 2. A holder decremented to zero stays in its column's list
    // (step 3 rechecks the cell), so the lists stay in row order.
    for n in 0..num_nodes.min(spec.num_nodes()) {
        let cap = spec.gpus_on(NodeId(n as u32));
        if ws.col_gpus[n] <= cap {
            continue;
        }
        let column = &ws.holders[n * num_jobs..][..ws.col_jobs[n]];
        ws.picks.clear();
        ws.picks.extend(column.iter().map(|&j| j as usize));
        for _ in cap..ws.col_gpus[n] {
            let pick = rng.gen_range(0..ws.picks.len());
            let j = ws.picks[pick];
            let left = m.get(j, n) - 1;
            m.set(j, n, left);
            mark(&mut ws.touched, j);
            ws.row_gpus[j] -= 1;
            if left == 0 {
                ws.picks.swap_remove(pick);
                ws.row_nodes[j] -= 1;
            }
        }
    }

    // Step 3. A node that fewer than two distributed jobs entered
    // cannot host two now; skipping it draws nothing, as finding at
    // most one distributed job on it never did. With no node to visit
    // the visiting order is not drawn either: nothing would read it.
    if interference_avoidance && ws.col_spread.iter().any(|&spread| spread >= 2) {
        ws.order.clear();
        ws.order.extend(0..num_nodes);
        ws.order.shuffle(rng);
        for &n in ws.order.iter().filter(|&&n| ws.col_spread[n] >= 2) {
            let column = ws.holders[n * num_jobs..][..ws.col_jobs[n]].iter();
            ws.picks.clear();
            ws.picks.extend(
                column
                    .map(|&j| j as usize)
                    .filter(|&j| ws.row_nodes[j] > 1 && m.get(j, n) > 0),
            );
            if ws.picks.len() <= 1 {
                continue;
            }
            let keep = rng.gen_range(0..ws.picks.len());
            ws.picks.swap_remove(keep);
            for &j in ws.picks.iter() {
                ws.row_gpus[j] -= m.get(j, n);
                ws.row_nodes[j] -= 1;
                m.set(j, n, 0);
                mark(&mut ws.touched, j);
            }
        }
    }

    // Step 4, last: earlier decrements can leave a row below minimum.
    for (j, job) in jobs.iter().enumerate() {
        if ws.row_gpus[j] > 0 && ws.row_gpus[j] < job.min_gpus {
            m.clear_row(j);
            mark(&mut ws.touched, j);
            (ws.row_gpus[j], ws.row_nodes[j]) = (0, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pollux_cluster::JobId;
    use pollux_models::{BatchSizeLimits, EfficiencyModel, GoodputModel, ThroughputParams};

    fn model(phi: f64) -> GoodputModel {
        let tp = ThroughputParams::new(0.05, 5.0e-4, 0.05, 0.002, 0.2, 0.01, 2.0).unwrap();
        let eff = EfficiencyModel::from_noise_scale(128, phi).unwrap();
        let limits = BatchSizeLimits::new(128, 65_536, 512).unwrap();
        GoodputModel::new(tp, eff, limits).unwrap()
    }

    fn job(id: u32, phi: f64) -> SchedJob {
        SchedJob {
            id: JobId(id),
            model: model(phi),
            min_gpus: 1,
            gpu_cap: 64,
            weight: 1.0,
            current_placement: vec![],
        }
    }

    fn ga(gens: usize) -> GeneticAlgorithm {
        GeneticAlgorithm::new(GaConfig {
            population: 30,
            generations: gens,
            ..Default::default()
        })
    }

    fn table(jobs: &[SchedJob], spec: &ClusterSpec) -> SpeedupTable {
        SpeedupTable::build(jobs, spec, 1)
    }

    fn repair(
        g: &GeneticAlgorithm,
        m: &mut AllocationMatrix,
        jobs: &[SchedJob],
        spec: &ClusterSpec,
        rng: &mut StdRng,
    ) {
        let avoid = g.config().interference_avoidance;
        repair_matrix(m, jobs, spec, avoid, rng, &mut GaWorkspace::default());
    }

    #[test]
    fn repair_enforces_node_capacity() {
        let spec = ClusterSpec::homogeneous(4, 4).unwrap();
        let jobs: Vec<SchedJob> = (0..3).map(|i| job(i, 1000.0)).collect();
        let mut rng = StdRng::seed_from_u64(1);
        let mut m = AllocationMatrix::zeros(3, 4);
        m.set(0, 0, 4);
        m.set(1, 0, 4);
        m.set(2, 0, 4);
        repair(&ga(0), &mut m, &jobs, &spec, &mut rng);
        assert!(m.is_feasible(&spec));
    }

    #[test]
    fn repair_enforces_gpu_cap() {
        let spec = ClusterSpec::homogeneous(4, 4).unwrap();
        let mut j = job(0, 1000.0);
        j.gpu_cap = 2;
        let jobs = vec![j];
        let mut rng = StdRng::seed_from_u64(2);
        let mut m = AllocationMatrix::zeros(1, 4);
        for n in 0..4 {
            m.set(0, n, 4);
        }
        repair(&ga(0), &mut m, &jobs, &spec, &mut rng);
        assert!(m.gpus_of(0) <= 2);
    }

    #[test]
    fn repair_zeroes_below_minimum_rows() {
        let spec = ClusterSpec::homogeneous(4, 4).unwrap();
        let mut j = job(0, 1000.0);
        j.min_gpus = 4;
        let jobs = vec![j];
        let mut rng = StdRng::seed_from_u64(3);
        let mut m = AllocationMatrix::zeros(1, 4);
        m.set(0, 0, 2);
        repair(&ga(0), &mut m, &jobs, &spec, &mut rng);
        assert_eq!(m.gpus_of(0), 0);
    }

    #[test]
    fn repair_enforces_interference_avoidance() {
        let spec = ClusterSpec::homogeneous(4, 4).unwrap();
        let jobs: Vec<SchedJob> = (0..2).map(|i| job(i, 1000.0)).collect();
        let mut rng = StdRng::seed_from_u64(4);
        let mut m = AllocationMatrix::zeros(2, 4);
        // Both jobs distributed and sharing nodes 1.
        m.set(0, 0, 2);
        m.set(0, 1, 2);
        m.set(1, 1, 2);
        m.set(1, 2, 2);
        repair(&ga(0), &mut m, &jobs, &spec, &mut rng);
        assert!(m.satisfies_interference_avoidance());
        assert!(m.is_feasible(&spec));
    }

    #[test]
    fn repair_keeps_interference_when_disabled() {
        let spec = ClusterSpec::homogeneous(4, 4).unwrap();
        let jobs: Vec<SchedJob> = (0..2).map(|i| job(i, 1000.0)).collect();
        let mut rng = StdRng::seed_from_u64(5);
        let cfg = GaConfig {
            interference_avoidance: false,
            ..Default::default()
        };
        let g = GeneticAlgorithm::new(cfg);
        let mut m = AllocationMatrix::zeros(2, 4);
        m.set(0, 0, 2);
        m.set(0, 1, 2);
        m.set(1, 1, 2);
        m.set(1, 2, 2);
        repair(&g, &mut m, &jobs, &spec, &mut rng);
        // Feasible but interference untouched.
        assert!(m.is_feasible(&spec));
        assert!(!m.satisfies_interference_avoidance());
    }

    fn member(matrix: AllocationMatrix) -> Member {
        Member {
            contrib: vec![0.0; matrix.num_jobs()],
            matrix,
            ..Default::default()
        }
    }

    #[test]
    fn crossover_rows_come_from_parents() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut a = member(AllocationMatrix::zeros(3, 2));
        let mut b = member(AllocationMatrix::zeros(3, 2));
        for j in 0..3 {
            a.matrix.set(j, 0, 1);
            a.contrib[j] = 1.0;
            b.matrix.set(j, 1, 2);
            b.contrib[j] = 2.0;
        }
        let mut c = member(AllocationMatrix::zeros(3, 2));
        GeneticAlgorithm::crossover(&a, &b, &mut c, &mut rng);
        for j in 0..3 {
            let from = if c.matrix.row(j) == a.matrix.row(j) {
                &a
            } else {
                &b
            };
            assert_eq!(c.matrix.row(j), from.matrix.row(j));
            assert_eq!(
                c.contrib[j], from.contrib[j],
                "contribution follows its row"
            );
        }
    }

    #[test]
    fn tournament_prefers_fitter_members() {
        let mut rng = StdRng::seed_from_u64(7);
        let fit = vec![0.1, 0.9, 0.2, 0.3];
        let mut wins = [0usize; 4];
        for _ in 0..500 {
            wins[GeneticAlgorithm::tournament_select(&fit, &mut rng)] += 1;
        }
        assert!(wins[1] > wins[0] && wins[1] > wins[2] && wins[1] > wins[3]);
    }

    #[test]
    fn evolve_allocates_everything_useful() {
        // Two scalable jobs, 2 nodes x 4 GPUs: the GA should allocate
        // most GPUs and give every job at least one.
        let spec = ClusterSpec::homogeneous(2, 4).unwrap();
        let jobs: Vec<SchedJob> = (0..2).map(|i| job(i, 5000.0)).collect();
        let mut rng = StdRng::seed_from_u64(8);
        let t = table(&jobs, &spec);
        let (out, population) = ga(30).evolve(&jobs, &spec, vec![], &t, &mut rng);
        assert!(out.best.is_feasible(&spec));
        assert!(out.best_fitness > 1.0, "fitness = {}", out.best_fitness);
        for j in 0..2 {
            assert!(out.best.gpus_of(j) >= 1, "job {j} starved:\n{}", out.best);
        }
        assert_eq!(population.len(), 30);
    }

    #[test]
    fn evolve_prefers_scalable_jobs() {
        // One job scales well (huge φ), one barely (φ ≈ 0): with 1 node
        // of 4 GPUs the scalable job should get strictly more.
        let spec = ClusterSpec::homogeneous(1, 4).unwrap();
        let scalable = job(0, 50_000.0);
        let mut rigid = job(1, 0.0);
        rigid.model = model(1e-6);
        let jobs = vec![scalable, rigid];
        let mut rng = StdRng::seed_from_u64(9);
        let t = table(&jobs, &spec);
        let (out, _) = ga(40).evolve(&jobs, &spec, vec![], &t, &mut rng);
        assert!(
            out.best.gpus_of(0) > out.best.gpus_of(1),
            "scalable {} vs rigid {}\n{}",
            out.best.gpus_of(0),
            out.best.gpus_of(1),
            out.best
        );
        assert!(out.best.gpus_of(1) >= 1, "rigid job should still run");
    }

    #[test]
    fn evolve_respects_interference_avoidance() {
        let spec = ClusterSpec::homogeneous(4, 2).unwrap();
        let jobs: Vec<SchedJob> = (0..3).map(|i| job(i, 20_000.0)).collect();
        let mut rng = StdRng::seed_from_u64(10);
        let t = table(&jobs, &spec);
        let (out, _) = ga(30).evolve(&jobs, &spec, vec![], &t, &mut rng);
        assert!(out.best.satisfies_interference_avoidance());
    }

    #[test]
    fn evolve_with_seed_population_not_worse() {
        let spec = ClusterSpec::homogeneous(2, 4).unwrap();
        let jobs: Vec<SchedJob> = (0..2).map(|i| job(i, 5000.0)).collect();
        let t = table(&jobs, &spec);

        let mut rng = StdRng::seed_from_u64(11);
        let (first, population) = ga(20).evolve(&jobs, &spec, vec![], &t, &mut rng);
        let (resumed, _) = ga(5).evolve(&jobs, &spec, population, &t, &mut rng);
        assert!(
            resumed.best_fitness >= first.best_fitness - 1e-9,
            "resumed {} < first {}",
            resumed.best_fitness,
            first.best_fitness
        );
    }

    #[test]
    fn evolve_is_deterministic_given_seed() {
        let spec = ClusterSpec::homogeneous(2, 4).unwrap();
        let jobs: Vec<SchedJob> = (0..2).map(|i| job(i, 5000.0)).collect();
        let t1 = table(&jobs, &spec);
        let t2 = table(&jobs, &spec);
        let mut r1 = StdRng::seed_from_u64(42);
        let mut r2 = StdRng::seed_from_u64(42);
        let (o1, _) = ga(10).evolve(&jobs, &spec, vec![], &t1, &mut r1);
        let (o2, _) = ga(10).evolve(&jobs, &spec, vec![], &t2, &mut r2);
        assert_eq!(o1.best, o2.best);
        assert_eq!(o1.best_fitness, o2.best_fitness);
        assert_eq!(o1.stats, o2.stats);
    }

    #[test]
    fn best_fitness_matches_full_recompute() {
        // `best_fitness` is produced by chains of incremental updates
        // across generations; it must equal a from-scratch evaluation
        // of the winning matrix to the bit.
        let spec = ClusterSpec::homogeneous(3, 4).unwrap();
        let jobs: Vec<SchedJob> = (0..5)
            .map(|i| {
                let mut j = job(i, 2000.0 + 700.0 * i as f64);
                if i % 2 == 0 {
                    j.current_placement = vec![1, 0, 0];
                }
                j.weight = 1.0 + 0.25 * i as f64;
                j
            })
            .collect();
        let t = table(&jobs, &spec);
        let g = ga(15);
        let mut rng = StdRng::seed_from_u64(13);
        let (out, _) = g.evolve(&jobs, &spec, vec![], &t, &mut rng);
        let full = crate::fitness::fitness(&jobs, &out.best, &t, &g.config().fitness);
        assert_eq!(out.best_fitness.to_bits(), full.to_bits());
        assert!(out.stats.fitness_evals > 0);
        assert!(
            out.stats.incremental_evals > 0,
            "offspring must evaluate incrementally"
        );
        assert!(out.stats.generations_run >= 1);
        // Incremental evaluation must actually skip rows: strictly
        // fewer rows recomputed than full recomputes would need.
        assert!(
            out.stats.rows_recomputed < out.stats.fitness_evals * jobs.len() as u64,
            "rows {} evals {}",
            out.stats.rows_recomputed,
            out.stats.fitness_evals
        );
    }

    #[test]
    fn restart_penalty_discourages_gratuitous_moves() {
        // A single job already running on 4 GPUs of node 0. An
        // equivalent placement on node 1 is available; the GA should
        // keep the current placement rather than pay the restart.
        let spec = ClusterSpec::homogeneous(2, 4).unwrap();
        let mut j = job(0, 3000.0);
        j.current_placement = vec![4, 0];
        let jobs = vec![j];
        let mut rng = StdRng::seed_from_u64(12);
        let t = table(&jobs, &spec);
        let (out, _) = ga(30).evolve(&jobs, &spec, vec![], &t, &mut rng);
        assert_eq!(
            out.best.row(0),
            &[4, 0],
            "moved without benefit:\n{}",
            out.best
        );
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Rows, per-job `(min, cap)` bounds, node count, GPUs per
        /// node, and RNG seed.
        type World = (Vec<Vec<u32>>, Vec<(u32, u32)>, u32, u32, u64);

        /// Strategy: an arbitrary (possibly wildly infeasible) matrix
        /// plus per-job caps/minimums.
        fn arbitrary_world() -> impl Strategy<Value = World> {
            (2usize..6, 2usize..6).prop_flat_map(|(num_jobs, num_nodes)| {
                (
                    proptest::collection::vec(
                        proptest::collection::vec(0u32..10, num_nodes),
                        num_jobs,
                    ),
                    proptest::collection::vec((1u32..4, 1u32..32), num_jobs),
                    Just(num_nodes as u32),
                    2u32..6,
                    proptest::num::u64::ANY,
                )
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            #[test]
            fn mutation_stays_within_node_capacity(
                (rows, _caps, num_nodes, gpus_per_node, seed) in arbitrary_world()
            ) {
                // Mutation may only write values in [0, capacity(n)]:
                // it never manufactures a per-cell value a node cannot
                // hold (feasibility across jobs is repair's duty).
                let spec = ClusterSpec::homogeneous(num_nodes, gpus_per_node).unwrap();
                let mut m =
                    AllocationMatrix::from_rows(rows, num_nodes as usize).unwrap();
                // Start from a clamped matrix so pre-existing excess
                // cannot mask a mutation bug.
                for j in 0..m.num_jobs() {
                    for n in 0..m.num_nodes() {
                        m.set(j, n, m.get(j, n).min(gpus_per_node));
                    }
                }
                let mut rng = StdRng::seed_from_u64(seed);
                ga(0).mutate(&mut m, &spec, &mut rng, &mut GaWorkspace::default());
                for j in 0..m.num_jobs() {
                    for n in 0..m.num_nodes() {
                        prop_assert!(m.get(j, n) <= gpus_per_node);
                    }
                }
            }

            #[test]
            fn crossover_preserves_feasibility_of_feasible_parents(
                (rows_a, caps, num_nodes, gpus_per_node, seed) in arbitrary_world()
            ) {
                // Row-wise crossover of two *repaired* parents, then
                // repair, is always feasible — the GA's generation
                // invariant.
                let spec = ClusterSpec::homogeneous(num_nodes, gpus_per_node).unwrap();
                let jobs: Vec<SchedJob> = caps
                    .iter()
                    .enumerate()
                    .map(|(i, &(min_gpus, cap))| {
                        let mut j = job(i as u32, 1000.0);
                        j.min_gpus = min_gpus;
                        j.gpu_cap = cap.max(min_gpus);
                        j
                    })
                    .collect();
                let mut rng = StdRng::seed_from_u64(seed);
                let g = ga(0);
                let mut a =
                    AllocationMatrix::from_rows(rows_a, num_nodes as usize).unwrap();
                repair(&g, &mut a, &jobs, &spec, &mut rng);
                let mut b = a.clone();
                g.mutate(&mut b, &spec, &mut rng, &mut GaWorkspace::default());
                repair(&g, &mut b, &jobs, &spec, &mut rng);
                let (a, b) = (member(a), member(b));
                let mut child = member(AllocationMatrix::zeros(jobs.len(), num_nodes as usize));
                GeneticAlgorithm::crossover(&a, &b, &mut child, &mut rng);
                let mut child = child.matrix;
                repair(&g, &mut child, &jobs, &spec, &mut rng);
                prop_assert!(child.is_feasible(&spec), "infeasible child:\n{child}");
                prop_assert!(child.satisfies_interference_avoidance());
                for (j, job) in jobs.iter().enumerate() {
                    let k = child.gpus_of(j);
                    prop_assert!(k == 0 || (k >= job.min_gpus && k <= job.gpu_cap));
                }
            }

            #[test]
            fn evolve_best_is_always_feasible(
                seed in proptest::num::u64::ANY,
                num_jobs in 1usize..5,
                num_nodes in 1u32..4,
            ) {
                let spec = ClusterSpec::homogeneous(num_nodes, 4).unwrap();
                let jobs: Vec<SchedJob> =
                    (0..num_jobs).map(|i| job(i as u32, 2000.0)).collect();
                let t = SpeedupTable::build(&jobs, &spec, 1);
                let mut rng = StdRng::seed_from_u64(seed);
                let (out, _) = ga(5).evolve(&jobs, &spec, vec![], &t, &mut rng);
                prop_assert!(out.best.is_feasible(&spec));
                prop_assert!(out.best.satisfies_interference_avoidance());
                prop_assert!(out.best_fitness.is_finite());
            }
        }
    }
}
