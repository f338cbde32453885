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
//! A crossover child of two parents with one matrix — the same parent
//! drawn twice, or two equal ones — is a copy of that parent: every
//! row comes from one repaired matrix, and repair returns a repaired
//! matrix unchanged without drawing. Such a clone skips the crossover
//! draws (the slot's own stream, which nothing reads afterwards),
//! repair and evaluation; debug builds build it the long way too and
//! compare.
//!
//! # Seed-per-slot determinism
//!
//! The RNG contract is **seed-per-slot splitting**: the master RNG is
//! advanced once per population slot, drawing one `u64` seed; each
//! slot then derives its own private `StdRng` from that seed and
//! performs every random decision for that slot locally. No slot
//! observes another slot's RNG stream, so a member is a pure function
//! of its slot seed and the generation's parents — the draw order the
//! golden digests pin. Every generation's slots are built in one loop
//! on the calling thread; the racked round runs whole searches side by
//! side, one per rack ([`crate::scheduler`]).

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

/// What one search optimizes: the jobs, the cluster, and the speedup
/// table built from them.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Problem<'a> {
    pub(crate) jobs: &'a [SchedJob],
    pub(crate) spec: &'a ClusterSpec,
    pub(crate) table: &'a SpeedupTable,
}

/// What every population slot of one round reads, borrowed.
struct EvalCtx<'a> {
    config: &'a GaConfig,
    jobs: &'a [SchedJob],
    spec: &'a ClusterSpec,
    /// GPUs of each node, in node order.
    caps: &'a [u32],
    table: &'a SpeedupTable,
    weight_sum: f64,
    /// [`SchedJob::is_running`] of every job, fixed for the round.
    running: &'a [bool],
    /// First initial-population slot built by mutating an empty matrix.
    first_fresh: usize,
}

/// What the slots of one generation are bred from.
#[derive(Debug, Default)]
struct Generation {
    /// The population (empty while the initial population is built).
    parents: Vec<Member>,
    /// The parents' fitnesses, which the tournament reads; `evolve`
    /// appends the offspring's for survival.
    fitnesses: Vec<f64>,
    /// One seed per slot, drawn serially from the master RNG.
    slot_seeds: Vec<u64>,
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

/// Copies into the existing buffers: overwriting a member of the same
/// round allocates nothing.
impl Clone for Member {
    fn clone(&self) -> Self {
        Self {
            matrix: self.matrix.clone(),
            contrib: self.contrib.clone(),
            fitness: self.fitness,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.matrix.clone_from(&source.matrix);
        self.contrib.clone_from(&source.contrib);
        self.fitness = source.fitness;
    }
}

/// Scratch that mutation and repair reuse from call to call, so that
/// building a member allocates nothing once the buffers have grown.
/// What carries meaning between calls is [`Self::touched`], which the
/// caller resets with [`Self::track`], and the tally `evolve` reads at
/// its end.
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
        let problem = Problem { jobs, spec, table };
        self.evolve_on(problem, seed, None, rng)
    }

    /// [`Self::evolve`], ending at the first generation — the initial
    /// population included — whose best reaches `bound`, an upper
    /// bound on every feasible fitness ([`crate::bound`]).
    pub(crate) fn evolve_on<R: Rng>(
        &self,
        problem: Problem<'_>,
        seed: Vec<AllocationMatrix>,
        bound: Option<f64>,
        rng: &mut R,
    ) -> (GaOutcome, Vec<AllocationMatrix>) {
        let Problem { jobs, spec, table } = problem;
        let num_jobs = jobs.len();
        let num_nodes = spec.num_nodes();
        let pop_size = self.config.population.max(2);

        // The initial population's slots, built in place from their
        // templates: retained seed members, the "current allocations"
        // member (so doing nothing is representable), and fresh random
        // members (mutated from zero) to fill up to `pop_size`.
        let template = |matrix| Member {
            matrix,
            contrib: vec![0.0; num_jobs],
            fitness: 0.0,
        };
        let mut slots: Vec<Member> = seed
            .into_iter()
            .filter(|m| m.num_jobs() == num_jobs && m.num_nodes() == num_nodes)
            .take(pop_size)
            .map(template)
            .collect();
        slots.push(template(incumbents(jobs, spec)));
        let first_fresh = slots.len();
        while slots.len() < pop_size {
            slots.push(template(AllocationMatrix::zeros(num_jobs, num_nodes)));
        }

        let caps: Vec<u32> = spec.iter().map(|(_, node)| node.gpus).collect();
        let running: Vec<bool> = jobs.iter().map(SchedJob::is_running).collect();
        let ctx = EvalCtx {
            config: &self.config,
            jobs,
            spec,
            caps: &caps,
            table,
            weight_sum: weight_sum(jobs),
            running: &running,
            first_fresh,
        };
        let mut ws = GaWorkspace::default();
        let mut run_stats = GaRunStats::default();
        let mut gen = Generation::default();
        let mut live = 0;
        let mut order: Vec<usize> = Vec::new();
        let mut ranked: Vec<Member> = Vec::new();
        let max_of = |f: &[f64]| f.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut best_so_far = f64::NEG_INFINITY;
        let mut stale_gens = 0usize;
        let certified = |best: f64| bound.is_some_and(|bound| best >= bound);
        // Round 0 builds the initial population; every later round is
        // a generation: one mutated copy per member plus `pop_size`
        // crossover children, then survival. `slots` holds last
        // generation's losers between generations, overwritten by the
        // offspring.
        for generation in 0..=self.config.generations {
            let num_slots = if generation == 0 {
                slots.len()
            } else {
                run_stats.generations_run += 1;
                run_stats.incremental_evals += (live + pop_size) as u64;
                live + pop_size
            };
            gen.slot_seeds.clear();
            gen.slot_seeds
                .extend((0..num_slots).map(|_| rng.next_u64()));
            slots.resize_with(num_slots, || {
                template(AllocationMatrix::zeros(num_jobs, num_nodes))
            });
            for (i, child) in slots.iter_mut().enumerate() {
                build_member(i, &ctx, &gen, &mut ws, child);
            }
            run_stats.fitness_evals += num_slots as u64;
            gen.fitnesses.extend(slots.iter().map(|m| m.fitness));
            if generation == 0 {
                std::mem::swap(&mut gen.parents, &mut slots);
                live = gen.parents.len();
                best_so_far = max_of(&gen.fitnesses);
                if certified(best_so_far) {
                    break;
                }
                continue;
            }

            // Survival: the top `pop_size` become the parents, in rank
            // order. Fitter first, NaN last, ties by slot index (parents
            // before offspring): a total order, and for finite
            // fitnesses that of a stable descending sort. Only the
            // survivors are sorted; the losers are buffers to overwrite.
            let fitnesses = &gen.fitnesses;
            let by_rank = |&a: &usize, &b: &usize| {
                let (fa, fb) = (fitnesses[a], fitnesses[b]);
                fb.partial_cmp(&fa)
                    .unwrap_or_else(|| fa.is_nan().cmp(&fb.is_nan()))
                    .then(a.cmp(&b))
            };
            order.clear();
            order.extend(0..live + num_slots);
            order.select_nth_unstable_by(pop_size - 1, by_rank);
            order[..pop_size].sort_unstable_by(by_rank);
            ranked.clear();
            ranked.extend(order.iter().map(|&i| match i.checked_sub(live) {
                None => std::mem::take(&mut gen.parents[i]),
                Some(slot) => std::mem::take(&mut slots[slot]),
            }));
            gen.parents.clear();
            slots.clear();
            let mut rest = ranked.drain(..);
            gen.parents.extend(rest.by_ref().take(pop_size));
            slots.extend(rest);
            live = pop_size;
            gen.fitnesses.clear();
            gen.fitnesses.extend(gen.parents.iter().map(|m| m.fitness));

            // Survival ranks the best first.
            if certified(gen.fitnesses[0]) {
                break;
            }
            if self.config.early_stop_gens > 0 {
                let best_now = max_of(&gen.fitnesses);
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

        let best_idx = gen
            .fitnesses
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0);
        let outcome = GaOutcome {
            best: gen.parents[best_idx].matrix.clone(),
            best_fitness: gen.fitnesses[best_idx],
            stats: run_stats,
        };
        let population = std::mem::take(&mut gen.parents);
        (outcome, population.into_iter().map(|m| m.matrix).collect())
    }
}

/// Mutates `m` in place: each element flips with probability `1/N` to
/// a uniform GPU count within its node's capacity `caps[n]`. Every row
/// that had a cell rewritten is marked in `ws`.
///
/// The flip is `gen_bool(1/N)` without the float: `gen_bool(p)` draws
/// `u = next_u64() >> 11` and tests `u · 2⁻⁵³ < p`, where both sides
/// are exact (`u < 2⁵³`, and `p · 2⁵³` only shifts the exponent), so
/// it is `u < ⌈p · 2⁵³⌉` — the same draws, the same answers.
fn mutate<R: Rng>(m: &mut AllocationMatrix, caps: &[u32], rng: &mut R, ws: &mut GaWorkspace) {
    let p = 1.0 / m.num_nodes().max(1) as f64;
    let threshold = (p * (1u64 << 53) as f64).ceil() as u64;
    for j in 0..m.num_jobs() {
        let row = m.row_mut(j);
        debug_assert_eq!(row.len(), caps.len(), "one capacity per node");
        let mut hit = false;
        for (cell, &cap) in row.iter_mut().zip(caps) {
            if rng.next_u64() >> 11 < threshold {
                *cell = rng.gen_range(0..=cap);
                hit = true;
            }
        }
        if hit {
            mark(&mut ws.touched, j);
        }
    }
}

/// Writes into `child` an offspring whose rows are randomly mixed from
/// the two parents, one `gen_bool` per row. Each row's cached
/// contribution comes along from the parent supplying the row (a
/// contribution is a pure function of its row), so the child needs no
/// evaluation for rows repair leaves untouched.
fn crossover<R: Rng>(a: &Member, b: &Member, child: &mut Member, rng: &mut R) {
    debug_assert_eq!(a.matrix.num_jobs(), b.matrix.num_jobs());
    debug_assert_eq!(a.matrix.num_nodes(), b.matrix.num_nodes());
    for j in 0..a.matrix.num_jobs() {
        let src = if rng.gen_bool(0.5) { a } else { b };
        child.matrix.copy_row(j, src.matrix.row(j));
        child.contrib[j] = src.contrib[j];
    }
}

/// Tournament selection: returns the index of the best of two
/// uniformly sampled members.
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

/// Builds the member of population slot `slot` into `child` from the
/// slot's seed. With no parents it is an initial member: `child` holds
/// its template (mutated first from `ctx.first_fresh` on) and every
/// row is evaluated. Otherwise slots below `parents.len()` are mutated
/// copies of the same-index parent and the rest are crossover children
/// of tournament-selected parents; either way only the rows mutation
/// and repair touched have their contributions recomputed, the others
/// keep the parent's. A crossover child of two parents with one matrix
/// is that parent, copied.
fn build_member(
    slot: usize,
    ctx: &EvalCtx<'_>,
    gen: &Generation,
    ws: &mut GaWorkspace,
    child: &mut Member,
) {
    let parents = &gen.parents;
    let mut rng = StdRng::seed_from_u64(gen.slot_seeds[slot]);
    ws.track(ctx.jobs.len());
    child.contrib.resize(ctx.jobs.len(), 0.0);
    let initial = parents.is_empty();
    let mut clone_of = None;
    let mutated = if initial {
        slot >= ctx.first_fresh
    } else if let Some(parent) = parents.get(slot) {
        child.clone_from(parent);
        true
    } else {
        let a = &parents[tournament_select(&gen.fitnesses, &mut rng)];
        let b = &parents[tournament_select(&gen.fitnesses, &mut rng)];
        if std::ptr::eq(a, b) || a.matrix == b.matrix {
            if !cfg!(debug_assertions) {
                child.clone_from(a);
                return;
            }
            clone_of = Some(a);
        }
        crossover(a, b, child, &mut rng);
        false
    };
    if mutated {
        mutate(&mut child.matrix, ctx.caps, &mut rng, ws);
    }
    let avoid = ctx.config.interference_avoidance;
    repair_matrix(&mut child.matrix, ctx.jobs, ctx.spec, avoid, &mut rng, ws);

    let evaluate = |j: usize, shape: Option<PlacementShape>, row: &[u32]| {
        row_contribution(
            &ctx.jobs[j],
            row,
            shape,
            ctx.running[j],
            &ctx.config.fitness,
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
    if let Some(parent) = clone_of {
        let same = |x: &f64, y: &f64| x.to_bits() == y.to_bits();
        assert!(
            child.matrix == parent.matrix
                && child
                    .contrib
                    .iter()
                    .zip(&parent.contrib)
                    .all(|(x, y)| same(x, y))
                && same(&child.fitness, &parent.fitness),
            "a crossover of one matrix with itself is not a copy of it"
        );
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

/// Repairs `m` into a feasible allocation (the Fig 5 repair step):
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
/// A matrix that already satisfies all four — any matrix this function
/// returned for the same jobs, cluster and setting — comes back
/// unchanged, with no row marked and no draw taken.
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
    // nodes, O(excess + nodes) per job. A row's occupied nodes are
    // read off a bitmask of its non-zero cells, 64 at a time, in
    // ascending order.
    for j in 0..num_jobs {
        let row = m.row_mut(j);
        ws.picks.clear();
        let mut k = 0;
        for (block, cells) in row.chunks(64).enumerate() {
            let mut occupied = 0u64;
            for (bit, &g) in cells.iter().enumerate() {
                k += g;
                occupied |= u64::from(g != 0) << bit;
            }
            while occupied != 0 {
                ws.picks
                    .push(block * 64 + occupied.trailing_zeros() as usize);
                occupied &= occupied - 1;
            }
        }
        let cap = jobs.get(j).map_or(u32::MAX, |job| job.gpu_cap);
        if k > cap {
            mark(&mut ws.touched, j);
            for _ in cap..k {
                let pick = rng.gen_range(0..ws.picks.len());
                let cell = &mut row[ws.picks[pick]];
                *cell -= 1;
                if *cell == 0 {
                    ws.picks.swap_remove(pick);
                }
            }
            k = cap;
        }
        ws.row_gpus.push(k);
        ws.row_nodes.push(ws.picks.len() as u32);
        let spread = u32::from(ws.picks.len() > 1);
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
            let cell = &mut m.row_mut(j)[n];
            *cell -= 1;
            mark(&mut ws.touched, j);
            ws.row_gpus[j] -= 1;
            if *cell == 0 {
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
                    .filter(|&j| ws.row_nodes[j] > 1 && m.row(j)[n] > 0),
            );
            if ws.picks.len() <= 1 {
                continue;
            }
            let keep = rng.gen_range(0..ws.picks.len());
            ws.picks.swap_remove(keep);
            for &j in ws.picks.iter() {
                let cell = &mut m.row_mut(j)[n];
                ws.row_gpus[j] -= *cell;
                ws.row_nodes[j] -= 1;
                *cell = 0;
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

    fn node_caps(spec: &ClusterSpec) -> Vec<u32> {
        spec.iter().map(|(_, node)| node.gpus).collect()
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
        crossover(&a, &b, &mut c, &mut rng);
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

    /// `mutate`'s threshold test against the `gen_bool(1/N)` and
    /// `set` it replaced: the same matrix, the same marked rows and the
    /// same stream left behind, at every width from 1 to 17.
    #[test]
    fn threshold_mutation_draws_as_gen_bool_does() {
        for nodes in 1..=17u32 {
            let spec = ClusterSpec::new(
                (0..nodes)
                    .map(|n| pollux_cluster::NodeSpec { gpus: 1 + n % 5 })
                    .collect(),
            )
            .unwrap();
            for seed in 0..24u64 {
                let jobs = 1 + (seed % 7) as usize;
                let mut start = AllocationMatrix::zeros(jobs, nodes as usize);
                for j in 0..jobs {
                    start.set(j, (seed as usize + j) % nodes as usize, 1);
                }
                let mut reference = start.clone();
                let mut want = StdRng::seed_from_u64(seed);
                let mut want_ws = GaWorkspace::default();
                want_ws.track(jobs);
                let p = 1.0 / nodes as f64;
                for j in 0..jobs {
                    for n in 0..nodes as usize {
                        if want.gen_bool(p) {
                            let cap = spec.gpus_on(NodeId(n as u32));
                            reference.set(j, n, want.gen_range(0..=cap));
                            mark(&mut want_ws.touched, j);
                        }
                    }
                }
                let mut got = StdRng::seed_from_u64(seed);
                let mut ws = GaWorkspace::default();
                ws.track(jobs);
                mutate(&mut start, &node_caps(&spec), &mut got, &mut ws);
                assert_eq!(start, reference, "{nodes} nodes, seed {seed}");
                assert_eq!(
                    ws.touched(),
                    want_ws.touched(),
                    "{nodes} nodes, seed {seed}"
                );
                assert_eq!(
                    got, want,
                    "{nodes} nodes, seed {seed}: the stream moved on alike"
                );
            }
        }
    }

    #[test]
    fn tournament_prefers_fitter_members() {
        let mut rng = StdRng::seed_from_u64(7);
        let fit = vec![0.1, 0.9, 0.2, 0.3];
        let mut wins = [0usize; 4];
        for _ in 0..500 {
            wins[tournament_select(&fit, &mut rng)] += 1;
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
                mutate(&mut m, &node_caps(&spec), &mut rng, &mut GaWorkspace::default());
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
                mutate(&mut b, &node_caps(&spec), &mut rng, &mut GaWorkspace::default());
                repair(&g, &mut b, &jobs, &spec, &mut rng);
                let (a, b) = (member(a), member(b));
                let mut child = member(AllocationMatrix::zeros(jobs.len(), num_nodes as usize));
                crossover(&a, &b, &mut child, &mut rng);
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
