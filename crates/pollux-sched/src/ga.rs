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
//! # Parallel evaluation and determinism
//!
//! With [`GaConfig::threads`] > 1, member construction (mutate,
//! crossover, repair) and fitness evaluation fan out over a scoped
//! worker pool ([`crate::par::parallel_map`]). Determinism across
//! thread counts is achieved by **seed-per-slot RNG splitting**: the
//! master RNG is only ever advanced serially, drawing one `u64` seed
//! per population slot; each slot then derives its own private
//! `StdRng` from that seed and performs every random decision for that
//! slot locally. No slot observes another slot's RNG stream, so the
//! result is a pure function of `(slot index, master seed)` and is
//! bit-identical whether slots run on 1 thread or 8 — a property
//! pinned by this crate's determinism tests. `threads == 1` runs the
//! identical per-slot code inline without spawning any threads.

use crate::fitness::{
    contribution, contributions, fitness_of, row_contribution, weight_sum, FitnessConfig,
};
use crate::par::parallel_map;
use crate::speedup::{SchedJob, SpeedupTable};
use pollux_cluster::{AllocationMatrix, ClusterSpec, NodeId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration of the genetic algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GaConfig {
    /// Constant population size (the paper uses 100).
    pub population: usize,
    /// Generations per scheduling interval (the paper uses 100).
    pub generations: usize,
    /// Tournament size for crossover parent selection.
    pub tournament_size: usize,
    /// Enforce the interference-avoidance constraint during repair.
    pub interference_avoidance: bool,
    /// Stop early after this many generations without improvement of
    /// the best fitness (0 = always run all `generations`, like the
    /// paper's fixed 100-generation budget).
    pub early_stop_gens: usize,
    /// Worker threads for member construction and fitness evaluation.
    /// `1` (the default) runs fully serially without spawning; any
    /// value yields bit-identical results for a fixed master seed (see
    /// the module docs).
    pub threads: usize,
    /// Fitness evaluation settings (restart penalty).
    pub fitness: FitnessConfig,
}

impl Default for GaConfig {
    fn default() -> Self {
        Self {
            population: 100,
            generations: 100,
            tournament_size: 2,
            interference_avoidance: true,
            early_stop_gens: 8,
            threads: 1,
            fitness: FitnessConfig::default(),
        }
    }
}

/// Evaluation counters of one `evolve` call, accumulated in
/// deterministic slot order (thread-count-invariant for a fixed seed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
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

impl GaRunStats {
    fn absorb(&mut self, slot: SlotStats) {
        self.fitness_evals += slot.fitness_evals;
        self.incremental_evals += slot.incremental_evals;
        self.rows_recomputed += slot.rows_recomputed;
    }
}

/// Outcome of one `evolve` call.
#[derive(Debug, Clone)]
pub struct GaOutcome {
    /// The highest-fitness allocation matrix found.
    pub best: AllocationMatrix,
    /// Its fitness value.
    pub best_fitness: f64,
    /// The final population, for bootstrapping the next interval
    /// (Sec. 4.3: "the entire population is saved and used to
    /// bootstrap the genetic algorithm in the next scheduling
    /// interval").
    pub population: Vec<AllocationMatrix>,
    /// Evaluation counters for this run.
    pub stats: GaRunStats,
}

/// The genetic optimizer. Stateless between calls; population
/// persistence is handled by the caller (see `scheduler`).
#[derive(Debug, Clone)]
pub struct GeneticAlgorithm {
    config: GaConfig,
}

/// Borrowed evaluation inputs shared by every population slot; handed
/// to the per-slot builders so worker closures capture one reference.
struct EvalCtx<'a> {
    jobs: &'a [SchedJob],
    spec: &'a ClusterSpec,
    table: &'a SpeedupTable,
    weight_sum: f64,
}

/// One chromosome with its cached per-job fitness contributions.
#[derive(Debug, Clone)]
struct Member {
    matrix: AllocationMatrix,
    contrib: Vec<f64>,
    fitness: f64,
}

/// Per-slot evaluation counters, merged into [`GaRunStats`] in slot
/// order.
#[derive(Debug, Clone, Copy, Default)]
struct SlotStats {
    fitness_evals: u64,
    incremental_evals: u64,
    rows_recomputed: u64,
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
    /// to a uniform GPU count within the node's capacity.
    pub fn mutate<R: Rng>(&self, m: &mut AllocationMatrix, spec: &ClusterSpec, rng: &mut R) {
        self.mutate_impl(m, spec, rng, None);
    }

    /// Mutation core; when `touched` is provided, every row that had a
    /// cell rewritten is marked (conservatively: a cell rewritten to
    /// its old value still marks the row — recomputing an unchanged
    /// row yields the same contribution bits).
    fn mutate_impl<R: Rng>(
        &self,
        m: &mut AllocationMatrix,
        spec: &ClusterSpec,
        rng: &mut R,
        mut touched: Option<&mut [bool]>,
    ) {
        let n = m.num_nodes().max(1);
        let p = 1.0 / n as f64;
        for j in 0..m.num_jobs() {
            for node in 0..m.num_nodes() {
                if rng.gen_bool(p) {
                    let cap = spec.gpus_on(NodeId(node as u32));
                    m.set(j, node, rng.gen_range(0..=cap));
                    if let Some(t) = touched.as_deref_mut() {
                        if j < t.len() {
                            t[j] = true;
                        }
                    }
                }
            }
        }
    }

    /// Produces an offspring whose rows are randomly mixed from the
    /// two parents.
    pub fn crossover<R: Rng>(
        &self,
        a: &AllocationMatrix,
        b: &AllocationMatrix,
        rng: &mut R,
    ) -> AllocationMatrix {
        debug_assert_eq!(a.num_jobs(), b.num_jobs());
        debug_assert_eq!(a.num_nodes(), b.num_nodes());
        let mut child = AllocationMatrix::zeros(a.num_jobs(), a.num_nodes());
        for j in 0..a.num_jobs() {
            let src = if rng.gen_bool(0.5) { a } else { b };
            child.set_row(j, src.row(j).to_vec());
        }
        child
    }

    /// Crossover that also carries contributions: each row's cached
    /// contribution is copied from the parent supplying the row (a
    /// contribution is a pure function of its row), so the child needs
    /// no evaluation for rows repair leaves untouched. Draws the same
    /// one `gen_bool` per row as [`Self::crossover`].
    fn crossover_members<R: Rng>(&self, a: &Member, b: &Member, rng: &mut R) -> Member {
        debug_assert_eq!(a.matrix.num_jobs(), b.matrix.num_jobs());
        debug_assert_eq!(a.matrix.num_nodes(), b.matrix.num_nodes());
        let num_jobs = a.matrix.num_jobs();
        let mut matrix = AllocationMatrix::zeros(num_jobs, a.matrix.num_nodes());
        let mut contrib = Vec::with_capacity(a.contrib.len());
        for j in 0..num_jobs {
            let src = if rng.gen_bool(0.5) { a } else { b };
            matrix.set_row(j, src.matrix.row(j).to_vec());
            if j < src.contrib.len() {
                contrib.push(src.contrib[j]);
            }
        }
        Member {
            matrix,
            contrib,
            fitness: 0.0,
        }
    }

    /// Tournament selection: returns the index of the best of
    /// `tournament_size` uniformly sampled members.
    pub fn tournament_select<R: Rng>(&self, fitnesses: &[f64], rng: &mut R) -> usize {
        let k = self.config.tournament_size.max(1);
        let mut best = rng.gen_range(0..fitnesses.len());
        for _ in 1..k {
            let c = rng.gen_range(0..fitnesses.len());
            if fitnesses[c] > fitnesses[best] {
                best = c;
            }
        }
        best
    }

    /// Repairs `m` into a feasible allocation:
    ///
    /// 1. per-job scale caps — random decrements until `K ≤ gpu_cap`;
    /// 2. per-job minimums — rows with `0 < K < min_gpus` are zeroed
    ///    (the job stays pending rather than holding useless GPUs);
    /// 3. node capacities — random decrements within over-capacity
    ///    columns (Fig 5's repair step);
    /// 4. optionally, interference avoidance — while any node hosts two
    ///    or more distributed jobs, one of the extras loses its GPUs on
    ///    that node (Sec. 4.2.1).
    ///
    /// Steps interleave because each can re-trigger another; the loop
    /// terminates since every action strictly decreases total GPUs.
    pub fn repair<R: Rng>(
        &self,
        m: &mut AllocationMatrix,
        jobs: &[SchedJob],
        spec: &ClusterSpec,
        rng: &mut R,
    ) {
        repair_matrix(m, jobs, spec, self.config.interference_avoidance, rng);
    }

    /// Builds one initial-population member from its slot seed:
    /// optionally mutated from its template, repaired, and evaluated
    /// with a full contribution pass.
    fn init_member(
        &self,
        template: &AllocationMatrix,
        fresh: bool,
        slot_seed: u64,
        ctx: &EvalCtx<'_>,
    ) -> (Member, SlotStats) {
        let mut rng = StdRng::seed_from_u64(slot_seed);
        let mut matrix = template.clone();
        if fresh {
            self.mutate(&mut matrix, ctx.spec, &mut rng);
        }
        self.repair(&mut matrix, ctx.jobs, ctx.spec, &mut rng);
        let contrib = contributions(ctx.jobs, &matrix, ctx.table, &self.config.fitness);
        let fitness = fitness_of(&contrib, ctx.weight_sum);
        let stats = SlotStats {
            fitness_evals: 1,
            incremental_evals: 0,
            rows_recomputed: ctx.jobs.len() as u64,
        };
        (
            Member {
                matrix,
                contrib,
                fitness,
            },
            stats,
        )
    }

    /// Builds one offspring from its slot seed. Slots below
    /// `population.len()` are mutated copies of the same-index member;
    /// the rest are crossover children of tournament-selected parents.
    /// Either way only the rows touched by mutation/crossover/repair
    /// have their contributions recomputed.
    fn offspring_member(
        &self,
        slot: usize,
        slot_seed: u64,
        population: &[Member],
        fitnesses: &[f64],
        ctx: &EvalCtx<'_>,
    ) -> (Member, SlotStats) {
        let mut rng = StdRng::seed_from_u64(slot_seed);
        let mut touched = vec![false; ctx.jobs.len()];
        let mut member = if slot < population.len() {
            let mut c = population[slot].clone();
            self.mutate_impl(&mut c.matrix, ctx.spec, &mut rng, Some(&mut touched));
            c
        } else {
            let a = self.tournament_select(fitnesses, &mut rng);
            let b = self.tournament_select(fitnesses, &mut rng);
            self.crossover_members(&population[a], &population[b], &mut rng)
        };
        repair_matrix_tracked(
            &mut member.matrix,
            ctx.jobs,
            ctx.spec,
            self.config.interference_avoidance,
            &mut rng,
            &mut touched,
        );
        let mut stats = SlotStats {
            fitness_evals: 1,
            incremental_evals: 1,
            rows_recomputed: 0,
        };
        for (j, &dirty) in touched.iter().enumerate() {
            if dirty {
                member.contrib[j] =
                    contribution(ctx.jobs, j, &member.matrix, ctx.table, &self.config.fitness);
                stats.rows_recomputed += 1;
            }
        }
        member.fitness = fitness_of(&member.contrib, ctx.weight_sum);
        // Uncounted reads: a debug-only check must leave the table's
        // hit counter — part of the serialized `SimResult` — alone.
        debug_assert!(
            ctx.jobs.iter().enumerate().all(|(j, job)| {
                let full = row_contribution(job, member.matrix.row(j), &self.config.fitness, |s| {
                    ctx.table.lookup(j, s).unwrap_or(0.0)
                });
                full.to_bits() == member.contrib[j].to_bits()
            }),
            "incremental contributions diverged from a full recompute"
        );
        (member, stats)
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
    /// `rng` is the master RNG: it is advanced serially (one seed draw
    /// per population slot) regardless of [`GaConfig::threads`], so
    /// the outcome depends only on the master seed, never on the
    /// thread count.
    pub fn evolve<R: Rng>(
        &self,
        jobs: &[SchedJob],
        spec: &ClusterSpec,
        seed: Vec<AllocationMatrix>,
        table: &SpeedupTable,
        rng: &mut R,
    ) -> GaOutcome {
        let num_jobs = jobs.len();
        let num_nodes = spec.num_nodes();
        let pop_size = self.config.population.max(2);
        let threads = self.config.threads.max(1);
        let mut run_stats = GaRunStats::default();

        // Templates for the initial population: retained seed members,
        // the "current allocations" member (so doing nothing is
        // representable), and fresh random members (mutated from zero)
        // to fill up to `pop_size`.
        let mut templates: Vec<(AllocationMatrix, bool)> = seed
            .into_iter()
            .filter(|m| m.num_jobs() == num_jobs && m.num_nodes() == num_nodes)
            .take(pop_size)
            .map(|m| (m, false))
            .collect();
        let mut current = AllocationMatrix::zeros(num_jobs, num_nodes);
        for (j, job) in jobs.iter().enumerate() {
            if job.current_placement.len() == num_nodes {
                current.set_row(j, job.current_placement.clone());
            }
        }
        templates.push((current, false));
        while templates.len() < pop_size {
            templates.push((AllocationMatrix::zeros(num_jobs, num_nodes), true));
        }

        // One seed per slot, drawn serially from the master RNG.
        let ctx = EvalCtx {
            jobs,
            spec,
            table,
            weight_sum: weight_sum(jobs),
        };
        let slot_seeds: Vec<u64> = (0..templates.len()).map(|_| rng.next_u64()).collect();
        let built = parallel_map(templates.len(), threads, |i| {
            let (template, fresh) = &templates[i];
            self.init_member(template, *fresh, slot_seeds[i], &ctx)
        });
        let mut members = Vec::with_capacity(built.len());
        let mut fitnesses = Vec::with_capacity(built.len());
        for (m, s) in built {
            run_stats.absorb(s);
            fitnesses.push(m.fitness);
            members.push(m);
        }

        let mut best_so_far = fitnesses.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut stale_gens = 0usize;
        for _gen in 0..self.config.generations {
            run_stats.generations_run += 1;
            // One mutated copy per member plus `pop_size` crossover
            // children; again one serial seed draw per slot.
            let num_offspring = members.len() + pop_size;
            let slot_seeds: Vec<u64> = (0..num_offspring).map(|_| rng.next_u64()).collect();
            let offspring = parallel_map(num_offspring, threads, |i| {
                self.offspring_member(i, slot_seeds[i], &members, &fitnesses, &ctx)
            });
            for (m, s) in offspring {
                run_stats.absorb(s);
                fitnesses.push(m.fitness);
                members.push(m);
            }

            // Survival: keep the top `pop_size`. The sort is stable, so
            // fitness ties break by slot index — deterministically.
            let mut idx: Vec<usize> = (0..members.len()).collect();
            idx.sort_by(|&a, &b| {
                fitnesses[b]
                    .partial_cmp(&fitnesses[a])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            idx.truncate(pop_size);
            let mut new_members = Vec::with_capacity(pop_size);
            let mut new_fit = Vec::with_capacity(pop_size);
            for &i in &idx {
                new_members.push(members[i].clone());
                new_fit.push(fitnesses[i]);
            }
            members = new_members;
            fitnesses = new_fit;

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

        let best_idx = fitnesses
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0);
        GaOutcome {
            best: members[best_idx].matrix.clone(),
            best_fitness: fitnesses[best_idx],
            population: members.into_iter().map(|m| m.matrix).collect(),
            stats: run_stats,
        }
    }
}

/// Repairs `m` into a feasible allocation (the Fig 5 repair step),
/// shared by the genetic algorithm and the local-search backend. See
/// [`GeneticAlgorithm::repair`] for the step-by-step description.
pub fn repair_matrix<R: Rng>(
    m: &mut AllocationMatrix,
    jobs: &[SchedJob],
    spec: &ClusterSpec,
    interference_avoidance: bool,
    rng: &mut R,
) {
    repair_matrix_impl(m, jobs, spec, interference_avoidance, rng, None);
}

/// [`repair_matrix`] that additionally marks every row it modifies in
/// `touched` (rows at indices ≥ `touched.len()` are repaired but not
/// marked). Draws the identical RNG stream as the untracked variant,
/// so swapping between them never changes the repair outcome.
pub fn repair_matrix_tracked<R: Rng>(
    m: &mut AllocationMatrix,
    jobs: &[SchedJob],
    spec: &ClusterSpec,
    interference_avoidance: bool,
    rng: &mut R,
    touched: &mut [bool],
) {
    repair_matrix_impl(m, jobs, spec, interference_avoidance, rng, Some(touched));
}

fn repair_matrix_impl<R: Rng>(
    m: &mut AllocationMatrix,
    jobs: &[SchedJob],
    spec: &ClusterSpec,
    interference_avoidance: bool,
    rng: &mut R,
    mut touched: Option<&mut [bool]>,
) {
    let num_nodes = m.num_nodes();
    let mark = |t: &mut Option<&mut [bool]>, j: usize| {
        if let Some(t) = t.as_deref_mut() {
            if j < t.len() {
                t[j] = true;
            }
        }
    };

    // Step 1: per-job scale caps. Random single-GPU decrements, but
    // batched so the whole step is O(excess + nodes) per job.
    for (j, job) in jobs.iter().enumerate() {
        let k = m.gpus_of(j);
        if k <= job.gpu_cap {
            continue;
        }
        mark(&mut touched, j);
        let mut excess = k - job.gpu_cap;
        let mut occupied: Vec<usize> = (0..num_nodes).filter(|&n| m.get(j, n) > 0).collect();
        while excess > 0 {
            let pick = rng.gen_range(0..occupied.len());
            let n = occupied[pick];
            let left = m.get(j, n) - 1;
            m.set(j, n, left);
            if left == 0 {
                occupied.swap_remove(pick);
            }
            excess -= 1;
        }
    }

    // Step 3: node capacities — random decrements within
    // over-capacity columns (Fig 5's repair step), batched the same
    // way.
    for node in m.over_capacity_nodes(spec) {
        let n = node.index();
        let cap = spec.gpus_on(node);
        let mut excess = m.gpus_used_on(n) - cap;
        let mut holders: Vec<usize> = (0..m.num_jobs()).filter(|&j| m.get(j, n) > 0).collect();
        while excess > 0 {
            let pick = rng.gen_range(0..holders.len());
            let j = holders[pick];
            let left = m.get(j, n) - 1;
            m.set(j, n, left);
            mark(&mut touched, j);
            if left == 0 {
                holders.swap_remove(pick);
            }
            excess -= 1;
        }
    }

    // Step 4: interference avoidance in a single random-order pass.
    // Evicting a distributed job's GPUs from a node never creates a
    // *new* distributed job, so one pass suffices.
    if interference_avoidance {
        let mut nodes_of: Vec<u32> = (0..m.num_jobs()).map(|j| m.nodes_of(j)).collect();
        let mut order: Vec<usize> = (0..num_nodes).collect();
        order.shuffle(rng);
        for &n in &order {
            let mut distributed: Vec<usize> = (0..m.num_jobs())
                .filter(|&j| m.get(j, n) > 0 && nodes_of[j] > 1)
                .collect();
            if distributed.len() <= 1 {
                continue;
            }
            // Keep one random distributed job on this node; evict
            // the others' GPUs from it.
            let keep = rng.gen_range(0..distributed.len());
            distributed.swap_remove(keep);
            for j in distributed {
                m.set(j, n, 0);
                nodes_of[j] -= 1;
                mark(&mut touched, j);
            }
        }
    }

    // Step 2 last: zero rows that ended up below their minimum
    // (possibly due to the earlier decrements).
    for (j, job) in jobs.iter().enumerate() {
        let k = m.gpus_of(j);
        if k > 0 && k < job.min_gpus {
            m.set_row(j, vec![0; num_nodes]);
            mark(&mut touched, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pollux_cluster::JobId;
    use pollux_models::{BatchSizeLimits, EfficiencyModel, GoodputModel, ThroughputParams};
    use rand::RngCore;

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

    #[test]
    fn repair_enforces_node_capacity() {
        let spec = ClusterSpec::homogeneous(4, 4).unwrap();
        let jobs: Vec<SchedJob> = (0..3).map(|i| job(i, 1000.0)).collect();
        let mut rng = StdRng::seed_from_u64(1);
        let mut m = AllocationMatrix::zeros(3, 4);
        m.set(0, 0, 4);
        m.set(1, 0, 4);
        m.set(2, 0, 4);
        ga(0).repair(&mut m, &jobs, &spec, &mut rng);
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
        ga(0).repair(&mut m, &jobs, &spec, &mut rng);
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
        ga(0).repair(&mut m, &jobs, &spec, &mut rng);
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
        ga(0).repair(&mut m, &jobs, &spec, &mut rng);
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
        g.repair(&mut m, &jobs, &spec, &mut rng);
        // Feasible but interference untouched.
        assert!(m.is_feasible(&spec));
        assert!(!m.satisfies_interference_avoidance());
    }

    #[test]
    fn tracked_repair_matches_untracked_and_marks_modified_rows() {
        let spec = ClusterSpec::homogeneous(3, 4).unwrap();
        let jobs: Vec<SchedJob> = (0..4).map(|i| job(i, 1000.0)).collect();
        let mut wild = AllocationMatrix::zeros(4, 3);
        for j in 0..4 {
            for n in 0..3 {
                wild.set(j, n, 3);
            }
        }
        let mut plain = wild.clone();
        let mut tracked = wild.clone();
        let mut touched = vec![false; 4];
        let mut rng_a = StdRng::seed_from_u64(21);
        let mut rng_b = StdRng::seed_from_u64(21);
        repair_matrix(&mut plain, &jobs, &spec, true, &mut rng_a);
        repair_matrix_tracked(&mut tracked, &jobs, &spec, true, &mut rng_b, &mut touched);
        assert_eq!(
            plain, tracked,
            "tracked repair must not change the RNG path"
        );
        // Every row that differs from the input must be marked.
        for (j, &mark) in touched.iter().enumerate() {
            if tracked.row(j) != wild.row(j) {
                assert!(mark, "row {j} modified but unmarked");
            }
        }
        assert!(touched.iter().any(|&t| t), "the wild matrix needed repair");
    }

    #[test]
    fn crossover_rows_come_from_parents() {
        let g = ga(0);
        let mut rng = StdRng::seed_from_u64(6);
        let mut a = AllocationMatrix::zeros(3, 2);
        let mut b = AllocationMatrix::zeros(3, 2);
        for j in 0..3 {
            a.set(j, 0, 1);
            b.set(j, 1, 2);
        }
        let c = g.crossover(&a, &b, &mut rng);
        for j in 0..3 {
            let row = c.row(j);
            assert!(row == a.row(j) || row == b.row(j));
        }
    }

    #[test]
    fn tournament_prefers_fitter_members() {
        let g = GeneticAlgorithm::new(GaConfig {
            tournament_size: 4,
            ..Default::default()
        });
        let mut rng = StdRng::seed_from_u64(7);
        let fit = vec![0.1, 0.9, 0.2, 0.3];
        let mut wins = [0usize; 4];
        for _ in 0..500 {
            wins[g.tournament_select(&fit, &mut rng)] += 1;
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
        let out = ga(30).evolve(&jobs, &spec, vec![], &t, &mut rng);
        assert!(out.best.is_feasible(&spec));
        assert!(out.best_fitness > 1.0, "fitness = {}", out.best_fitness);
        for j in 0..2 {
            assert!(out.best.gpus_of(j) >= 1, "job {j} starved:\n{}", out.best);
        }
        assert_eq!(out.population.len(), 30);
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
        let out = ga(40).evolve(&jobs, &spec, vec![], &t, &mut rng);
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
        let out = ga(30).evolve(&jobs, &spec, vec![], &t, &mut rng);
        assert!(out.best.satisfies_interference_avoidance());
    }

    #[test]
    fn evolve_with_seed_population_not_worse() {
        let spec = ClusterSpec::homogeneous(2, 4).unwrap();
        let jobs: Vec<SchedJob> = (0..2).map(|i| job(i, 5000.0)).collect();
        let t = table(&jobs, &spec);

        let mut rng = StdRng::seed_from_u64(11);
        let first = ga(20).evolve(&jobs, &spec, vec![], &t, &mut rng);
        let resumed = ga(5).evolve(&jobs, &spec, first.population.clone(), &t, &mut rng);
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
        let o1 = ga(10).evolve(&jobs, &spec, vec![], &t1, &mut r1);
        let o2 = ga(10).evolve(&jobs, &spec, vec![], &t2, &mut r2);
        assert_eq!(o1.best, o2.best);
        assert_eq!(o1.best_fitness, o2.best_fitness);
        assert_eq!(o1.stats, o2.stats);
    }

    #[test]
    fn evolve_is_identical_across_thread_counts() {
        // The core determinism contract: for a fixed master seed the
        // full outcome (best, fitness, final population, counters) is
        // bit-identical at every thread count.
        let spec = ClusterSpec::homogeneous(4, 4).unwrap();
        let jobs: Vec<SchedJob> = (0..6).map(|i| job(i, 3000.0 + 500.0 * i as f64)).collect();
        let outcomes: Vec<GaOutcome> = [1usize, 2, 4, 8]
            .iter()
            .map(|&threads| {
                let g = GeneticAlgorithm::new(GaConfig {
                    population: 24,
                    generations: 12,
                    threads,
                    ..Default::default()
                });
                let t = SpeedupTable::build(&jobs, &spec, threads);
                let mut rng = StdRng::seed_from_u64(77);
                g.evolve(&jobs, &spec, vec![], &t, &mut rng)
            })
            .collect();
        for o in &outcomes[1..] {
            assert_eq!(o.best, outcomes[0].best);
            assert_eq!(o.best_fitness.to_bits(), outcomes[0].best_fitness.to_bits());
            assert_eq!(o.population, outcomes[0].population);
            assert_eq!(o.stats, outcomes[0].stats);
        }
    }

    #[test]
    fn evolve_leaves_master_rng_in_same_state_for_any_thread_count() {
        // The master RNG must advance by exactly one draw per slot, so
        // downstream consumers of the same RNG see identical streams.
        let spec = ClusterSpec::homogeneous(2, 4).unwrap();
        let jobs: Vec<SchedJob> = (0..3).map(|i| job(i, 4000.0)).collect();
        let after: Vec<u64> = [1usize, 4]
            .iter()
            .map(|&threads| {
                let g = GeneticAlgorithm::new(GaConfig {
                    population: 12,
                    generations: 6,
                    threads,
                    ..Default::default()
                });
                let t = table(&jobs, &spec);
                let mut rng = StdRng::seed_from_u64(5);
                g.evolve(&jobs, &spec, vec![], &t, &mut rng);
                rng.next_u64()
            })
            .collect();
        assert_eq!(after[0], after[1]);
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
        let out = g.evolve(&jobs, &spec, vec![], &t, &mut rng);
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
        let out = ga(30).evolve(&jobs, &spec, vec![], &t, &mut rng);
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
            fn repair_always_produces_feasible_matrices(
                (rows, caps, num_nodes, gpus_per_node, seed) in arbitrary_world()
            ) {
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
                let mut m =
                    AllocationMatrix::from_rows(rows, num_nodes as usize).unwrap();
                let mut rng = StdRng::seed_from_u64(seed);
                ga(0).repair(&mut m, &jobs, &spec, &mut rng);

                // 1. Node capacities hold.
                prop_assert!(m.is_feasible(&spec), "infeasible:\n{m}");
                // 2. Interference avoidance holds.
                prop_assert!(m.satisfies_interference_avoidance(), "interference:\n{m}");
                // 3. Per-job bounds hold: K = 0 or min <= K <= cap.
                for (j, job) in jobs.iter().enumerate() {
                    let k = m.gpus_of(j);
                    prop_assert!(
                        k == 0 || (k >= job.min_gpus && k <= job.gpu_cap),
                        "job {j}: K = {k}, min = {}, cap = {}",
                        job.min_gpus,
                        job.gpu_cap
                    );
                }
            }

            #[test]
            fn repair_never_adds_gpus(
                (rows, caps, num_nodes, gpus_per_node, seed) in arbitrary_world()
            ) {
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
                let m0 = AllocationMatrix::from_rows(rows, num_nodes as usize).unwrap();
                let mut m = m0.clone();
                let mut rng = StdRng::seed_from_u64(seed);
                ga(0).repair(&mut m, &jobs, &spec, &mut rng);
                // Repair only removes GPUs, never grants new ones.
                for j in 0..m.num_jobs() {
                    for n in 0..m.num_nodes() {
                        prop_assert!(m.get(j, n) <= m0.get(j, n));
                    }
                }
            }

            #[test]
            fn tracked_repair_is_bit_identical_and_conservative(
                (rows, caps, num_nodes, gpus_per_node, seed) in arbitrary_world()
            ) {
                // The tracked variant must repair to the identical
                // matrix (same RNG stream) and mark every modified row.
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
                let wild = AllocationMatrix::from_rows(rows, num_nodes as usize).unwrap();
                let mut plain = wild.clone();
                let mut tracked = wild.clone();
                let mut touched = vec![false; jobs.len()];
                let mut rng_a = StdRng::seed_from_u64(seed);
                let mut rng_b = StdRng::seed_from_u64(seed);
                repair_matrix(&mut plain, &jobs, &spec, true, &mut rng_a);
                repair_matrix_tracked(
                    &mut tracked, &jobs, &spec, true, &mut rng_b, &mut touched,
                );
                prop_assert_eq!(&plain, &tracked);
                for (j, &mark) in touched.iter().enumerate() {
                    if tracked.row(j) != wild.row(j) {
                        prop_assert!(mark, "row {} modified but unmarked", j);
                    }
                }
            }

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
                ga(0).mutate(&mut m, &spec, &mut rng);
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
                g.repair(&mut a, &jobs, &spec, &mut rng);
                let mut b = a.clone();
                g.mutate(&mut b, &spec, &mut rng);
                g.repair(&mut b, &jobs, &spec, &mut rng);
                let mut child = g.crossover(&a, &b, &mut rng);
                g.repair(&mut child, &jobs, &spec, &mut rng);
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
                let out = ga(5).evolve(&jobs, &spec, vec![], &t, &mut rng);
                prop_assert!(out.best.is_feasible(&spec));
                prop_assert!(out.best.satisfies_interference_avoidance());
                prop_assert!(out.best_fitness.is_finite());
            }
        }
    }
}
