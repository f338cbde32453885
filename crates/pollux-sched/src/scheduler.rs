//! The top-level `PolluxSched` service logic.
//!
//! Owns the genetic algorithm and the population persisted across
//! scheduling intervals (Sec. 4.3). At each interval the caller passes
//! the current set of [`SchedJob`]s (models refreshed by their agents);
//! the scheduler reconciles the saved population with job arrivals and
//! completions, solves the separable bound ([`crate::bound`]), evolves
//! the population from the bound's packed matrix unless that matrix is
//! already proven optimal, and returns the best allocation matrix.

use crate::bound;
use crate::fitness::FitnessConfig;
use crate::ga::{GaConfig, GaOutcome, GaRunStats, GeneticAlgorithm, Problem};
use crate::par::parallel_map;
use crate::racks;
use crate::speedup::{pure_speedup, SchedJob, SpeedupTable, SpeedupTableStats};
use crate::weights::WeightConfig;
use pollux_cluster::{row_shape, AllocationMatrix, ClusterSpec, JobId, NodeId, NodeSpec, Topology};
use pollux_models::PlacementShape;
use pollux_telemetry::{JobExplain, Recorder, RoundExplain};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::borrow::Cow;
use std::collections::HashMap;
use std::time::Instant;

/// Configuration of the scheduler. How often it runs is its driver's
/// business (the simulator's `SCHED_INTERVAL`, the live service's
/// `ServiceConfig::interval`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SchedConfig {
    /// Genetic-algorithm settings.
    pub ga: GaConfig,
    /// Job-weight decay settings (Eqn 16).
    pub weights: WeightConfig,
}

/// Cluster-wide resource optimizer with population persistence.
#[derive(Debug)]
pub struct PolluxSched {
    config: SchedConfig,
    ga: GeneticAlgorithm,
    recorder: Recorder,
    /// The decision audit of the most recent interval, built only
    /// while a recorder is attached (see [`Self::take_round_explain`]).
    last_explain: Option<RoundExplain>,
    /// Rack layout for the two-phase (rack, then GPU) search. `None`
    /// or a single rack → the flat search, bit for bit.
    topology: Option<Topology>,
    /// What each rack's search saved for the next interval, indexed by
    /// rack; the flat round searches one rack of every node and keeps
    /// entry 0. Dropped when the number of racks searched changes —
    /// switching paths starts cold (only warmth depends on the carry) —
    /// and when the topology changes under a racked carry.
    carry: Vec<RackCarry>,
    /// The previous interval's phase-1 rack assignment keyed by job
    /// id. The next interval's rack pick ([`racks::assign_racks`])
    /// keeps it wherever it scores no worse, so quiet intervals keep
    /// rack memberships stable — the precondition for the per-rack
    /// carries above to hit. Cleared together with `carry`.
    assign_carry: HashMap<JobId, u32>,
    /// Most threads a racked interval works on, the calling one included
    /// ([`Self::set_threads`]).
    threads: usize,
}

/// What one [`search`] saves for the next interval: the evolved
/// population (keyed by the member job ids for reconciliation after
/// arrivals, departures and rack reshuffles), the dense speedup table
/// (for row-level reuse), and — on the racked path — the exact
/// subproblem it solved plus its answer, which lets a *quiet* rack
/// (identical member jobs, models, weights, and rack-local placements
/// next interval) replay it. The flat round never replays: its answer
/// leaves with the [`GaOutcome`] and `sub_jobs` stays empty.
#[derive(Debug, Default)]
struct RackCarry {
    job_ids: Vec<JobId>,
    population: Vec<AllocationMatrix>,
    table: Option<SpeedupTable>,
    /// The rack-local subproblem of the previous interval, compared
    /// verbatim against the next interval's to detect a quiet rack.
    sub_jobs: Vec<SchedJob>,
    /// The previous best rack-local matrix and its fitness.
    best: Option<(AllocationMatrix, f64)>,
}

/// What either round hands the shared tail of [`PolluxSched::optimize`].
struct Round {
    best: AllocationMatrix,
    best_fitness: f64,
    stats: GaRunStats,
    speedup: SpeedupTableStats,
    carry: Vec<RackCarry>,
    /// The racked round's phase-1 assignment, rack per job; `None` for
    /// the flat round.
    assignment: Option<Vec<u32>>,
}

/// One occupied rack's share of a racked interval, owned by the
/// worker that takes it.
struct RackTask<'a> {
    rack: usize,
    /// The rack-local subproblem.
    sub_jobs: Vec<SchedJob>,
    /// What the rack saved last interval.
    carry: RackCarry,
    /// The rack's private RNG seed when it searches; `None` replays
    /// the carried answer (a quiet rack).
    seed: Option<u64>,
    /// The member jobs' rows of the interval's result matrix, in member
    /// order: the worker writes the rack's answer straight into them.
    rows: Vec<&'a mut [u32]>,
}

/// What a worker hands back for the caller to fold in rack order.
struct RackDone {
    rack: usize,
    carry: RackCarry,
    /// What the search of a rack that evolved did.
    evolved: Option<Searched>,
}

impl PolluxSched {
    /// Creates a scheduler with the given configuration.
    pub fn new(config: SchedConfig) -> Self {
        Self {
            config,
            ga: GeneticAlgorithm::new(config.ga),
            recorder: Recorder::disabled(),
            last_explain: None,
            topology: None,
            carry: Vec::new(),
            assign_carry: HashMap::new(),
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }

    /// Sets (or clears) the rack topology. With `None` or a
    /// single-rack topology the scheduler runs the flat search
    /// unchanged — same RNG draws, same schedule, bit for bit; with
    /// ≥ 2 racks each interval runs the two-phase search: a cheap
    /// rack pick ([`crate::racks`]) followed by the placement GA
    /// independently inside each rack.
    ///
    /// Changing the topology drops a racked round's carry-over state
    /// (saved populations and tables): rack indices renumber, so the
    /// old carry would warm-start the wrong node columns. The flat
    /// round's one entry is keyed by job id and reconciles to any
    /// cluster width, so it stays.
    pub fn set_topology(&mut self, topology: Option<Topology>) {
        if self.topology != topology && self.carry.len() > 1 {
            self.carry.clear();
            self.assign_carry.clear();
        }
        self.topology = topology;
    }

    /// Attaches a telemetry recorder: each interval emits its
    /// wall-clock spans (`sched/table_build`, `sched/bound` and
    /// `sched/ga_evolve` on the flat path, `sched/rack_assign`,
    /// `sched/rack_evolve` and the racks' summed `sched/bound` on the
    /// racked path) and its counters through it — the one way the
    /// scheduler's counts leave it: `sched/intervals`, the
    /// [`GaRunStats`] sums (`sched/generations`, `fitness_evals`,
    /// `incremental_evals`, `rows_recomputed`), the table builds'
    /// `sched/table_solves` and `table_rows_reused`, the searches the
    /// bound certified (`sched/rounds_certified`) and each search's
    /// bound minus its best (the `sched/bound_gap` histogram, in 10⁻⁹
    /// fitness), and on the racked path `sched/racks_evolved` and
    /// `racks_reused`. Telemetry is observational only — schedules are
    /// bit-identical with or without a recorder.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// Caps the threads a racked interval works on (`1` = nothing is
    /// ever spawned); a new scheduler starts at the host's
    /// [`std::thread::available_parallelism`]. Only the racked round
    /// spawns: its rack pick and its racks fan out over
    /// [`crate::par::parallel_map`] on up to that many workers. The
    /// flat round runs on the calling thread whatever the cap. Safe to
    /// change between intervals: for a fixed seed the schedule is
    /// identical at every worker count (see `racked_round`'s
    /// determinism notes).
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// Runs one full optimization for this interval and returns the
    /// [`GaOutcome`] (best matrix, fitness, counters). The population
    /// stays inside the scheduler, where it bootstraps the next
    /// interval.
    ///
    /// `jobs[i]` is row `i` of the best matrix. The caller applies the
    /// matrix (starting, stopping and restarting jobs) and sets each
    /// job's `current_placement` and `weight` before the next call.
    pub fn optimize<R: Rng>(
        &mut self,
        jobs: &[SchedJob],
        spec: &ClusterSpec,
        rng: &mut R,
    ) -> GaOutcome {
        let jobs = &*with_usable_weights(jobs);
        // Two-phase rack search only when a real (multi-rack) topology
        // matching the cluster width is configured; everything else is
        // the flat round: one rack, every node.
        let topo = self
            .topology
            .as_ref()
            .filter(|topo| topo.num_racks() > 1 && topo.num_nodes() == spec.num_nodes());
        let num_racks = topo.map_or(1, |topo| topo.num_racks() as usize);
        let mut prev_carry = std::mem::take(&mut self.carry);
        if prev_carry.len() != num_racks {
            prev_carry.clear();
            self.assign_carry.clear();
        }
        prev_carry.resize_with(num_racks, RackCarry::default);
        let Round {
            best,
            best_fitness,
            stats,
            speedup,
            carry,
            assignment,
        } = match topo {
            Some(topo) => self.racked_round(topo, jobs, spec, prev_carry, rng),
            None => {
                // The flat round: one search over every node on the
                // caller's thread and stream; never replayed, so its
                // answer leaves.
                let prev = prev_carry.pop().expect("one entry per rack searched");
                let (mut carry, searched) = search(&self.ga, jobs, spec, prev, rng);
                let rec = &self.recorder;
                let [build_nanos, bound_nanos, evolve_nanos] = searched.nanos;
                rec.record_duration_ns("sched", "table_build", build_nanos);
                rec.record_duration_ns("sched", "bound", bound_nanos);
                rec.record_duration_ns("sched", "ga_evolve", evolve_nanos);
                searched.record_bound(rec);
                let (best, best_fitness) = carry.best.take().expect("searched");
                Round {
                    best,
                    best_fitness,
                    stats: searched.stats,
                    speedup: searched.table,
                    carry: vec![carry],
                    assignment: None,
                }
            }
        };
        let rec = &self.recorder;
        rec.incr("sched", "intervals", 1);
        rec.incr("sched", "generations", stats.generations_run);
        rec.incr("sched", "fitness_evals", stats.fitness_evals);
        rec.incr("sched", "incremental_evals", stats.incremental_evals);
        rec.incr("sched", "rows_recomputed", stats.rows_recomputed);
        rec.incr("sched", "table_solves", speedup.solves);
        rec.incr("sched", "table_rows_reused", speedup.rows_reused);
        let outcome = GaOutcome {
            best,
            best_fitness,
            stats,
        };
        self.last_explain = self.recorder.is_enabled().then(|| {
            // Each job's rack (the flat round's one rack is 0) and its
            // row in that rack's table: its rank among the members.
            let rack_of = |j: usize| assignment.as_ref().map_or(0, |a| a[j] as usize);
            let mut members = vec![0usize; carry.len()];
            let row_in_rack: Vec<usize> = (0..jobs.len())
                .map(|j| {
                    members[rack_of(j)] += 1;
                    members[rack_of(j)] - 1
                })
                .collect();
            // `assign_carry` still holds the previous interval's rack
            // assignment here (the new one lands below) and is empty on
            // the flat round, which ran no rack phase: both rack
            // columns then carry the −1 sentinel.
            build_explain(
                &self.config.ga.fitness,
                jobs,
                spec,
                &outcome,
                assignment.is_some(),
                |j, job| {
                    let before = self.assign_carry.get(&job.id).map_or(-1, |&r| r as i64);
                    (before, assignment.as_ref().map_or(-1, |a| a[j] as i64))
                },
                |j, job, shape| {
                    let table = carry[rack_of(j)].table.as_ref();
                    stored_speedup(table, row_in_rack[j], job, shape)
                },
            )
        });
        self.carry = carry;
        if let Some(assignment) = assignment {
            self.assign_carry = jobs
                .iter()
                .zip(&assignment)
                .map(|(j, &r)| (j.id, r))
                .collect();
        }
        outcome
    }

    /// The two-phase rack search: assign jobs to racks with the cheap
    /// rack pick ([`racks::assign_racks`]), then evolve the placement
    /// GA independently per rack over only that rack's nodes and jobs,
    /// and stitch the sub-matrices back into a cluster-width
    /// allocation.
    ///
    /// Feasibility and interference avoidance compose: racks partition
    /// the nodes, so per-rack-feasible sub-matrices are globally
    /// feasible and distributed jobs from different racks can never
    /// share a node. The combined fitness is the weight-average of the
    /// per-rack fitnesses (exactly the global fitness of the stitched
    /// matrix, since fitness is a weighted mean of per-job
    /// contributions and every job lives in exactly one rack).
    ///
    /// One approximation is inherent: a running job reassigned to a
    /// different rack sees an empty `current_placement` in its
    /// sub-problem, so the placement GA's restart penalty does not
    /// fire for it — the rack phase's keep-bonus prices the move at
    /// rack granularity instead. Per-rack speedup tables replace the
    /// single dense table (whose size grows with total cluster GPUs).
    ///
    /// # Parallelism and determinism
    ///
    /// The rack is the racked round's grain of parallelism. The
    /// per-rack phase-2 searches are independent (racks partition both
    /// nodes and jobs), so they fan out over
    /// [`crate::par::parallel_map`] on up to [`Self::threads`] workers
    /// — by default the host's cores — of which the calling thread is
    /// one. Determinism uses the same seed-splitting discipline as the
    /// GA's seed-per-slot: phase 1 draws nothing (its input scan fans
    /// out the same way), and the master RNG is advanced once per
    /// *evolved* rack (in rack order) and nowhere else; each such rack
    /// evolves under a private `StdRng` derived from its seed. A
    /// worker owns everything it writes: its rack's carry and its
    /// member jobs' rows of the result matrix, which are disjoint from
    /// every other rack's. Workers never touch the recorder; their
    /// counters and fitness terms are folded by the caller in rack
    /// order. So the result is bit-identical at every worker count.
    ///
    /// # Cross-interval carry-over
    ///
    /// Each rack that evolves warm-starts from its own [`RackCarry`]
    /// through the same [`search`] step as the flat round, so the
    /// paper's Sec. 4.3 warm start applies per rack. Phase 1 keeps the
    /// previous interval's assignment unless the greedy packing scores
    /// higher, so quiet intervals keep rack memberships stable; a rack
    /// whose subproblem is then verbatim unchanged replays last
    /// interval's answer without re-searching at all — interval cost
    /// scales with the racks that changed (`sched/racks_evolved`,
    /// `sched/racks_reused`).
    fn racked_round<R: Rng>(
        &self,
        topo: &Topology,
        jobs: &[SchedJob],
        spec: &ClusterSpec,
        mut prev_carry: Vec<RackCarry>,
        rng: &mut R,
    ) -> Round {
        let assignment = {
            let _span = self.recorder.span("sched", "rack_assign");
            let prev = (!self.assign_carry.is_empty()).then_some(&self.assign_carry);
            racks::assign_racks(jobs, spec, topo, prev, self.threads)
        };

        let num_racks = topo.num_racks() as usize;
        let mut members_of: Vec<Vec<usize>> = vec![Vec::new(); num_racks];
        for (j, &r) in assignment.iter().enumerate() {
            members_of[r as usize].push(j);
        }
        // Every job lives in exactly one rack, so the result's rows
        // split among the racks: each rack's worker fills its own
        // (and pays the first touch of their pages), in member order.
        let mut best = AllocationMatrix::zeros(jobs.len(), spec.num_nodes());
        let mut rows_of: Vec<Vec<&mut [u32]>> = Vec::new();
        rows_of.resize_with(num_racks, Vec::new);
        for (row, &r) in best.rows_mut().zip(&assignment) {
            rows_of[r as usize].push(row);
        }

        // Serial pre-pass: each occupied rack's local subproblem —
        // needed both by the workers and to detect quiet racks.
        let mut tasks: Vec<RackTask<'_>> = (0..num_racks)
            .filter(|&r| !members_of[r].is_empty())
            .map(|r| {
                let rack_nodes = topo.nodes_in(r as u32);
                let sub_jobs = members_of[r]
                    .iter()
                    .map(|&j| {
                        let job = &jobs[j];
                        // Slice the placement to the rack's columns,
                        // clamped (see `with_usable_weights`); a job
                        // currently placed elsewhere sees an empty row.
                        let placement: Vec<u32> = if job.current_placement.len() == spec.num_nodes()
                        {
                            rack_nodes
                                .clone()
                                .map(|n| {
                                    let g = job.current_placement[n as usize];
                                    g.min(spec.gpus_on(NodeId(n)))
                                })
                                .collect()
                        } else {
                            Vec::new()
                        };
                        SchedJob {
                            id: job.id,
                            model: job.model,
                            min_gpus: job.min_gpus,
                            gpu_cap: job.gpu_cap,
                            weight: job.weight,
                            current_placement: placement,
                        }
                    })
                    .collect();
                RackTask {
                    rack: r,
                    sub_jobs,
                    carry: std::mem::take(&mut prev_carry[r]),
                    seed: None,
                    rows: std::mem::take(&mut rows_of[r]),
                }
            })
            .collect();

        // Quiet-rack fast path: a rack whose subproblem is verbatim
        // the one it solved last interval replays its carry. The
        // decision is a pure function of the inputs and the carry, so
        // it is identical at every worker count. One serial master-RNG
        // draw per *evolved* rack, in rack order; quiet racks draw
        // nothing (their result is already fixed).
        let mut racks_evolved = 0;
        for task in &mut tasks {
            if task.carry.best.is_none() || task.carry.sub_jobs != task.sub_jobs {
                task.seed = Some(rng.next_u64());
                racks_evolved += 1;
            }
        }

        // No more workers than racks that search: an interval of
        // quiet racks only copies rows and spawns nothing.
        let workers = self.threads.min(racks_evolved);
        let racks_reused = (tasks.len() - racks_evolved) as u64;
        let ga = &self.ga;
        let evolve_start = Instant::now();
        let done = parallel_map(tasks.into_iter(), workers, |task| {
            run_rack(ga, topo, spec, task)
        });
        let ga_evolve_nanos = evolve_start.elapsed().as_nanos() as u64;

        // Fold in rack order (parallel_map preserves it): the fitness
        // sum is a float sum, and workers touch no shared counter.
        let mut stats = GaRunStats::default();
        let mut speedup = SpeedupTableStats::default();
        let mut fitness_weighted = 0.0;
        let mut weight_total = 0.0;
        let mut bound_nanos = 0;
        let mut new_carry: Vec<_> = (0..num_racks).map(|_| RackCarry::default()).collect();
        for rack in done {
            match rack.evolved {
                Some(searched) => {
                    let search = searched.stats;
                    speedup.accumulate(searched.table);
                    stats.generations_run += search.generations_run;
                    stats.fitness_evals += search.fitness_evals;
                    stats.incremental_evals += search.incremental_evals;
                    stats.rows_recomputed += search.rows_recomputed;
                    bound_nanos += searched.nanos[1];
                    searched.record_bound(&self.recorder);
                }
                // A quiet rack's rows were all reused (nothing was
                // solved this interval).
                None => speedup.rows_reused += rack.carry.sub_jobs.len() as u64,
            }
            let (_, fitness) = rack.carry.best.as_ref().expect("searched or carried");
            let weight_sum: f64 = rack.carry.sub_jobs.iter().map(|j| j.weight).sum();
            fitness_weighted += fitness * weight_sum;
            weight_total += weight_sum;
            new_carry[rack.rack] = rack.carry;
        }

        let best_fitness = if weight_total > 0.0 {
            fitness_weighted / weight_total
        } else {
            0.0
        };
        let rec = &self.recorder;
        rec.record_duration_ns("sched", "rack_evolve", ga_evolve_nanos);
        // The racks' bound time, summed over the workers that ran them.
        rec.record_duration_ns("sched", "bound", bound_nanos);
        rec.incr("sched", "racks_evolved", racks_evolved as u64);
        rec.incr("sched", "racks_reused", racks_reused);
        Round {
            best,
            best_fitness,
            stats,
            speedup,
            carry: new_carry,
            assignment: Some(assignment),
        }
    }

    /// Drains the decision audit of the most recent
    /// [`Self::optimize`] call. Built only while an *enabled* recorder
    /// is attached ([`Self::set_recorder`]) so the audit costs nothing
    /// otherwise; the construction itself draws no RNG and touches no
    /// cached state, so schedules are bit-identical either way. The
    /// caller (the round pipeline) stamps `time` and `co_residents`
    /// before emitting the record.
    pub fn take_round_explain(&mut self) -> Option<RoundExplain> {
        self.last_explain.take()
    }
}

/// What one [`search`] did, for the caller to report.
#[derive(Debug, Clone, Copy, Default)]
struct Searched {
    stats: GaRunStats,
    table: SpeedupTableStats,
    /// Wall-clock nanoseconds of the table build, the bound and the
    /// evolve.
    nanos: [u64; 3],
    /// The bound minus the best fitness found.
    gap: f64,
    /// Whether the DP's packed matrix met the bound, so no GA ran.
    certified: bool,
}

impl Searched {
    /// Reports the bound's share of a search: `sched/rounds_certified`,
    /// and `sched/bound_gap` in units of 10⁻⁹ fitness.
    fn record_bound(&self, rec: &Recorder) {
        rec.incr("sched", "rounds_certified", u64::from(self.certified));
        rec.observe("sched", "bound_gap", (self.gap * 1e9).round() as u64);
    }
}

/// The one search step, of the flat round and of every rack that
/// evolves: reconcile the carried population onto `jobs`, build the
/// table copying forward the carried table's clean rows, and solve the
/// separable bound ([`bound::solve`]). If the bound's packed matrix
/// meets it, that is the answer: no generation runs and `rng` is not
/// drawn. Otherwise the GA evolves on `rng` from the packed matrix and
/// the carried population and stops early once its best reaches the
/// bound. Returns the next carry (`sub_jobs` left to a caller that
/// replays) and what the search did.
fn search<R: Rng>(
    ga: &GeneticAlgorithm,
    jobs: &[SchedJob],
    spec: &ClusterSpec,
    prev: RackCarry,
    rng: &mut R,
) -> (RackCarry, Searched) {
    let reconciled = reconcile_population(&prev.population, &prev.job_ids, jobs, spec.num_nodes());
    let build_start = Instant::now();
    let table = SpeedupTable::build_reusing(jobs, spec, 1, prev.table.as_ref());
    let build_nanos = build_start.elapsed().as_nanos() as u64;
    let bound_start = Instant::now();
    let bound = bound::solve(jobs, spec, &table, ga.config());
    let bound_nanos = bound_start.elapsed().as_nanos() as u64;
    let certified = bound.certifies();
    let mut population = Vec::with_capacity(reconciled.len() + 1);
    population.push(bound.packed);
    population.extend(reconciled);
    let evolve_start = Instant::now();
    let (outcome, population) = if certified {
        population.truncate(ga.config().population.max(2));
        let outcome = GaOutcome {
            best: population[0].clone(),
            best_fitness: bound.packed_fitness,
            stats: GaRunStats::default(),
        };
        (outcome, population)
    } else {
        let problem = Problem {
            jobs,
            spec,
            table: &table,
        };
        ga.evolve_on(problem, population, Some(bound.value), rng)
    };
    let evolve_nanos = evolve_start.elapsed().as_nanos() as u64;
    debug_assert!(
        outcome.best_fitness <= bound.value && outcome.best_fitness >= bound.packed_fitness,
        "the search left [{}, {}]: {}",
        bound.packed_fitness,
        bound.value,
        outcome.best_fitness
    );
    let searched = Searched {
        stats: outcome.stats,
        table: table.stats(),
        nanos: [build_nanos, bound_nanos, evolve_nanos],
        gap: bound.value - outcome.best_fitness,
        certified,
    };
    let carry = RackCarry {
        job_ids: jobs.iter().map(|j| j.id).collect(),
        population,
        table: Some(table),
        sub_jobs: Vec::new(),
        best: Some((outcome.best, outcome.best_fitness)),
    };
    (carry, searched)
}

/// One rack's phase 2: [`search`] the rack-local subproblem under the
/// rack's private seed — or, for a quiet rack, take the carried answer
/// as it is — and write the answer into the rack's rows of the
/// interval's result. Runs on whichever worker takes the task: it
/// touches nothing but its arguments and emits no telemetry (the
/// caller folds the counters, in rack order).
fn run_rack(
    ga: &GeneticAlgorithm,
    topo: &Topology,
    spec: &ClusterSpec,
    task: RackTask<'_>,
) -> RackDone {
    let rack_nodes = topo.nodes_in(task.rack as u32);
    let (carry, evolved) = match task.seed {
        None => (task.carry, None),
        Some(seed) => {
            let sub_spec = ClusterSpec::new(
                rack_nodes
                    .clone()
                    .map(|n| NodeSpec {
                        gpus: spec.gpus_on(NodeId(n)),
                    })
                    .collect(),
            )
            .expect("racks are non-empty and rack nodes have GPUs");
            let mut rack_rng = StdRng::seed_from_u64(seed);
            let (mut carry, searched) =
                search(ga, &task.sub_jobs, &sub_spec, task.carry, &mut rack_rng);
            carry.sub_jobs = task.sub_jobs;
            (carry, Some(searched))
        }
    };
    let (best, _) = carry.best.as_ref().expect("searched or carried");
    for (row, (_, answer)) in task.rows.into_iter().zip(best.iter_rows()) {
        for (n, &g) in rack_nodes.clone().zip(answer) {
            if g > 0 {
                row[n as usize] = g;
            }
        }
    }
    RackDone {
        rack: task.rack,
        carry,
        evolved,
    }
}

/// [`pure_speedup`] of `job` — row `row` of `table` — under `shape`,
/// read from the table where it holds the value
/// ([`SpeedupTable::stored`]: the same bits, no solve) and solved only
/// where it does not. This is how the audit prices placements: a round
/// of 10 000 jobs does not pay 40 000 batch-size solves to be
/// explained.
fn stored_speedup(
    table: Option<&SpeedupTable>,
    row: usize,
    job: &SchedJob,
    shape: PlacementShape,
) -> f64 {
    table
        .and_then(|table| table.stored(row, shape))
        .unwrap_or_else(|| pure_speedup(job, shape))
}

/// Assembles the per-round decision audit of `outcome`: for every job,
/// the SPEEDUP of its currently applied placement vs. the one chosen, its
/// fairness weight, the restart penalty the fitness function charged
/// (running jobs whose row changed — the same condition as
/// [`crate::fitness::contribution`]), and the rack assignment diff
/// supplied by `rack_of` (−1 = flat search / previously unassigned).
/// Incumbents are read clamped, as the search reads them (see
/// [`with_usable_weights`]); a cell past `spec`'s last node counts as
/// zero. `fitness_before` is the weighted mean SPEEDUP of the
/// *incumbent* placements — keeping them charges no penalty — so
/// `fitness − fitness_before` is the value the round's moves bought. `time` and
/// `co_residents` are left for the driver, which knows the clock and
/// the node occupancies. `speedup(j, job, shape)` is [`pure_speedup`]
/// or anything with its bits ([`stored_speedup`]); unallocated rows
/// score 0 without asking, mirroring [`crate::fitness::contribution`].
fn build_explain(
    fitness_config: &FitnessConfig,
    jobs: &[SchedJob],
    spec: &ClusterSpec,
    outcome: &GaOutcome,
    racked: bool,
    rack_of: impl Fn(usize, &SchedJob) -> (i64, i64),
    speedup: impl Fn(usize, &SchedJob, PlacementShape) -> f64,
) -> RoundExplain {
    let mut weight_total = 0.0;
    let mut before_weighted = 0.0;
    let mut rows = Vec::with_capacity(jobs.len());
    let caps: Vec<u32> = spec.iter().map(|(_, node)| node.gpus).collect();
    let mut current = Vec::new();
    for (j, job) in jobs.iter().enumerate() {
        let new_row = outcome.best.row(j);
        let placed = &job.current_placement;
        let width = placed.len().min(caps.len());
        current.clear();
        current.extend(
            placed[..width]
                .iter()
                .zip(&caps)
                .map(|(&g, &cap)| g.min(cap)),
        );
        current.resize(placed.len(), 0);
        // One pass over each row: its shape carries its GPU count.
        let (before, after) = (row_shape(&current), row_shape(new_row));
        let row_speedup =
            |shape: Option<PlacementShape>| shape.map_or(0.0, |shape| speedup(j, job, shape));
        let speedup_before = row_speedup(before);
        let speedup_after = row_speedup(after);
        let moved = before.is_some() && new_row != current.as_slice();
        let (rack_before, rack_after) = rack_of(j, job);
        weight_total += job.weight;
        before_weighted += job.weight * speedup_before;
        rows.push(JobExplain {
            job: job.id.0 as u64,
            weight: job.weight,
            speedup_before,
            speedup_after,
            restart_penalty: if moved {
                fitness_config.restart_penalty
            } else {
                0.0
            },
            rack_before,
            rack_after,
            gpus_before: before.map_or(0, |shape| shape.gpus),
            gpus_after: after.map_or(0, |shape| shape.gpus),
            co_residents: Vec::new(),
        });
    }
    let fitness_before = if weight_total > 0.0 {
        before_weighted / weight_total
    } else {
        0.0
    };
    RoundExplain {
        time: 0.0,
        fitness: outcome.best_fitness,
        fitness_before,
        racked,
        jobs: rows,
    }
}

/// `jobs` with fairness weights the Eqn 14 mean can digest. One `∞`
/// makes every fitness NaN and one NaN zeroes the weight sum, either
/// of which silently turns the round's "best" into an arbitrary
/// member; so a non-finite weight counts as 1 (what [`job_weight`]
/// gives a job whose GPU-time is non-finite) and a negative one as 0.
/// Finite non-negative weights — every round but a hostile one — are
/// borrowed as they are.
///
/// Incumbent placements are the other hostile input, and they are
/// clamped where the round already copies them rather than here, which
/// would cost a pass over every cell of every row: the search's
/// "current allocations" member ([`GeneticAlgorithm::evolve`]), each
/// rack's slice of a row and the audit ([`build_explain`]) read a cell
/// as at most its node's GPUs. A row of `u32::MAX` cells then neither
/// overflows a GPU sum nor walks a wrapped column one GPU at a time;
/// phase 1 ([`racks::assign_racks`]) sums rows in `u64`.
///
/// [`job_weight`]: crate::weights::job_weight
fn with_usable_weights(jobs: &[SchedJob]) -> Cow<'_, [SchedJob]> {
    let usable = |w: f64| w.is_finite() && w >= 0.0;
    if jobs.iter().all(|job| usable(job.weight)) {
        return Cow::Borrowed(jobs);
    }
    let clamped = jobs.iter().cloned().map(|mut job| {
        if !usable(job.weight) {
            job.weight = if job.weight.is_finite() { 0.0 } else { 1.0 };
        }
        job
    });
    Cow::Owned(clamped.collect())
}

/// Adapts a saved population to a new job set and cluster width:
/// surviving jobs keep their evolved rows (truncated or zero-padded to
/// `num_nodes`), new jobs start with empty rows, and departed jobs'
/// rows are dropped — which also remaps rows after rack reshuffles.
fn reconcile_population(
    saved: &[AllocationMatrix],
    saved_ids: &[JobId],
    jobs: &[SchedJob],
    num_nodes: usize,
) -> Vec<AllocationMatrix> {
    if saved.is_empty() {
        return Vec::new();
    }
    let old_index: HashMap<JobId, usize> = saved_ids
        .iter()
        .enumerate()
        .map(|(i, &id)| (id, i))
        .collect();
    // Every saved member keeps a job in the same row.
    let old_rows: Vec<Option<usize>> = jobs
        .iter()
        .map(|job| old_index.get(&job.id).copied())
        .collect();
    saved
        .iter()
        .map(|old| {
            let mut m = AllocationMatrix::zeros(jobs.len(), num_nodes);
            let kept = old.num_nodes().min(num_nodes);
            for (j, oj) in old_rows.iter().enumerate() {
                if let Some(oj) = oj.filter(|&oj| oj < old.num_jobs()) {
                    for (n, &g) in old.row(oj)[..kept].iter().enumerate() {
                        m.set(j, n, g);
                    }
                }
            }
            m
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pollux_models::{BatchSizeLimits, EfficiencyModel, GoodputModel, ThroughputParams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model(phi: f64) -> GoodputModel {
        let tp = ThroughputParams::new(0.05, 5.0e-4, 0.05, 0.002, 0.2, 0.01, 2.0).unwrap();
        let eff = EfficiencyModel::from_noise_scale(128, phi).unwrap();
        let limits = BatchSizeLimits::new(128, 65_536, 512).unwrap();
        GoodputModel::new(tp, eff, limits).unwrap()
    }

    fn job(id: u32) -> SchedJob {
        SchedJob {
            id: JobId(id),
            model: model(3000.0),
            min_gpus: 1,
            gpu_cap: 64,
            weight: 1.0,
            current_placement: vec![],
        }
    }

    /// Jobs of exactly 3, 3 and 2 GPUs, repeating: on 4-GPU nodes the
    /// relaxed optimum gives every job its GPUs co-located, but a 2-GPU
    /// job fits one node only where the 3-GPU ones left a pair free,
    /// and spread over two it is worth less than the relaxation priced
    /// it. Such a round is never certified ([`bound`]) and evolves.
    fn fragmented(n: u32) -> Vec<SchedJob> {
        (0..n)
            .map(|j| {
                let gpus = if j % 3 == 2 { 2 } else { 3 };
                SchedJob {
                    min_gpus: gpus,
                    gpu_cap: gpus,
                    ..job(j)
                }
            })
            .collect()
    }

    fn sched() -> PolluxSched {
        let mut config = SchedConfig::default();
        config.ga.population = 24;
        config.ga.generations = 15;
        PolluxSched::new(config)
    }

    /// Attaches a recorder to `s` and returns it, to read the counters.
    fn record(s: &mut PolluxSched) -> Recorder {
        let rec = Recorder::new(std::sync::Arc::new(pollux_telemetry::MemorySink::new(64)));
        s.set_recorder(rec.clone());
        rec
    }

    /// The table counters `rec` has summed so far: solves, rows reused.
    fn table_counts(rec: &Recorder) -> [u64; 2] {
        ["table_solves", "table_rows_reused"].map(|name| rec.counter_value("sched", name))
    }

    #[test]
    fn schedules_feasible_allocations() {
        let spec = ClusterSpec::homogeneous(4, 4).unwrap();
        let jobs: Vec<SchedJob> = (0..3).map(job).collect();
        let mut s = sched();
        let mut rng = StdRng::seed_from_u64(1);
        let a = s.optimize(&jobs, &spec, &mut rng).best;
        assert_eq!(a.num_jobs(), 3);
        assert!(a.is_feasible(&spec));
        assert!(a.satisfies_interference_avoidance());
        // Everything useful gets allocated.
        for j in 0..3 {
            assert!(a.gpus_of(j) >= 1, "job {j} starved:\n{a}");
        }
    }

    #[test]
    fn a_certified_round_runs_no_generation_and_draws_nothing() {
        use rand::RngCore;

        // Two jobs that fit a node each: the packed relaxed optimum is
        // feasible, so it is the answer, proven optimal.
        let spec = ClusterSpec::homogeneous(2, 4).unwrap();
        let jobs: Vec<SchedJob> = (0..2)
            .map(|j| SchedJob {
                gpu_cap: 4,
                ..job(j)
            })
            .collect();
        let mut s = sched();
        let rec = record(&mut s);
        let mut rng = StdRng::seed_from_u64(14);
        let mut untouched = rng.clone();
        let out = s.optimize(&jobs, &spec, &mut rng);
        assert_eq!(rec.counter_value("sched", "rounds_certified"), 1);
        assert_eq!(out.stats, GaRunStats::default(), "no generation ran");
        assert_eq!(rng.next_u64(), untouched.next_u64(), "no draw was taken");
        assert_eq!((out.best.gpus_of(0), out.best.gpus_of(1)), (4, 4));
        let table = SpeedupTable::build(&jobs, &spec, 1);
        let fitness = crate::fitness::fitness(&jobs, &out.best, &table, &s.config.ga.fitness);
        assert_eq!(out.best_fitness.to_bits(), fitness.to_bits());
        // The carry is the answer, then the reconciled population.
        assert_eq!(s.carry[0].population, [out.best]);
    }

    #[test]
    fn hostile_weights_are_clamped_not_propagated() {
        let spec = ClusterSpec::homogeneous(4, 4).unwrap();
        for topology in [None, Some(Topology::grouped(4, 2).unwrap())] {
            for weight in [f64::INFINITY, f64::NAN, f64::NEG_INFINITY, -1.0] {
                let mut jobs: Vec<SchedJob> = (0..4).map(job).collect();
                jobs[1].weight = weight;
                let mut s = sched();
                s.set_topology(topology.clone());
                let mut rng = StdRng::seed_from_u64(6);
                let out = s.optimize(&jobs, &spec, &mut rng);
                assert!(
                    out.best_fitness.is_finite() && out.best_fitness > 0.0,
                    "weight {weight}: fitness {}",
                    out.best_fitness
                );
                assert!(out.best.is_feasible(&spec));
                assert!(out.best.satisfies_interference_avoidance());
            }
        }
        // Usable weights, signed zero included, pass through as they are.
        let mut jobs: Vec<SchedJob> = (0..2).map(job).collect();
        jobs[0].weight = -0.0;
        jobs[1].weight = 2.5;
        assert!(matches!(with_usable_weights(&jobs), Cow::Borrowed(_)));
    }

    #[test]
    fn hostile_placements_are_clamped_not_overflowed() {
        // One incumbent cell of u32::MAX GPUs on a 4-GPU node: read as
        // 4, it neither overflows a GPU sum nor leaves repair a column
        // to walk down one GPU at a time.
        let spec = ClusterSpec::homogeneous(4, 4).unwrap();
        let mut jobs: Vec<SchedJob> = (0..2).map(job).collect();
        jobs[0].current_placement = vec![u32::MAX, 1, 0, 0];
        jobs[1].current_placement = vec![0, 0, 2, 0];
        for topology in [None, Some(Topology::grouped(4, 2).unwrap())] {
            let mut s = PolluxSched::new(SchedConfig::default());
            s.set_topology(topology.clone());
            record(&mut s);
            let out = s.optimize(&jobs, &spec, &mut StdRng::seed_from_u64(13));
            assert!(out.best.is_feasible(&spec), "{topology:?}:\n{}", out.best);
            assert!(out.best.satisfies_interference_avoidance());
            assert!(out.best_fitness.is_finite() && out.best_fitness > 0.0);
            let audit = s.take_round_explain().expect("recording");
            let gpus_before: Vec<u32> = audit.jobs.iter().map(|je| je.gpus_before).collect();
            assert_eq!(
                gpus_before,
                [5, 2],
                "{topology:?}: the audit reads clamped rows"
            );
        }
    }

    #[test]
    fn racked_round_draws_the_master_rng_only_to_seed_racks() {
        use rand::RngCore;

        let spec = ClusterSpec::homogeneous(8, 4).unwrap();
        let mut s = sched();
        s.set_topology(Some(Topology::grouped(8, 2).unwrap()));
        let rec = record(&mut s);
        let count = |name| rec.counter_value("sched", name);
        let mut rng = StdRng::seed_from_u64(12);
        let mut jobs: Vec<SchedJob> = (0..8).map(job).collect();
        // A cold round, then two with one job replaced each: the racks
        // the churn misses replay, the others search.
        for round in 0..3u32 {
            let (evolved, reused) = (count("racks_evolved"), count("racks_reused"));
            let mut expected = rng.clone();
            s.optimize(&jobs, &spec, &mut rng);
            let evolved = count("racks_evolved") - evolved;
            assert!(evolved > 0, "round {round}: something changed");
            if round > 0 {
                assert!(
                    count("racks_reused") > reused,
                    "round {round}: a rack replays"
                );
            }
            for _ in 0..evolved {
                expected.next_u64();
            }
            assert_eq!(rng.next_u64(), expected.next_u64(), "round {round}");
            jobs[round as usize] = job(100 + round);
        }
    }

    #[test]
    fn quiet_racks_replay_without_searching() {
        let spec = ClusterSpec::homogeneous(4, 4).unwrap();
        let topo = Topology::grouped(4, 2).unwrap();
        let mut s = sched();
        s.set_topology(Some(topo));
        let rec = record(&mut s);
        let mut rng = StdRng::seed_from_u64(5);
        let jobs = fragmented(6);

        let cold = s.optimize(&jobs, &spec, &mut rng);
        assert!(cold.stats.generations_run > 0);
        assert_eq!(rec.counter_value("sched", "rounds_certified"), 0);
        let [solves, reused] = table_counts(&rec);

        // Identical inputs: every rack replays its carried answer —
        // same plan, zero generations, zero solves, every row reused.
        let quiet = s.optimize(&jobs, &spec, &mut rng);
        assert_eq!(
            quiet.best, cold.best,
            "a quiet interval must replay the plan"
        );
        assert_eq!(quiet.stats, GaRunStats::default());
        assert_eq!(table_counts(&rec), [solves, reused + jobs.len() as u64]);

        // Touch one job's weight: its rack re-searches, work resumes.
        let mut churned = jobs.clone();
        churned[0].weight = 2.0;
        let out = s.optimize(&churned, &spec, &mut rng);
        assert!(out.best.is_feasible(&spec));
        assert!(
            out.stats.generations_run > 0,
            "a changed rack must re-search"
        );
        assert_eq!(rec.counter_value("sched", "rounds_certified"), 0);
    }

    /// The thread cap never reaches the flat round: over rounds with
    /// arrivals, departures, moved incumbents and re-weighted jobs, one
    /// and two threads give the same answer, population, counters and
    /// master stream.
    #[test]
    fn a_flat_round_is_the_same_on_one_thread_and_two() {
        use rand::RngCore;

        let spec = ClusterSpec::homogeneous(6, 4).unwrap();
        let mut serial = sched();
        serial.set_threads(1);
        let mut paired = sched();
        paired.set_threads(2);
        let rec = record(&mut paired);
        let (mut rng1, mut rng2) = (StdRng::seed_from_u64(21), StdRng::seed_from_u64(21));
        let mut jobs = fragmented(9);
        for round in 0..6u32 {
            let one = serial.optimize(&jobs, &spec, &mut rng1);
            let two = paired.optimize(&jobs, &spec, &mut rng2);
            assert!(two.stats.generations_run > 0, "round {round} evolves");
            assert_eq!(one.best, two.best, "round {round}");
            assert_eq!(
                one.best_fitness.to_bits(),
                two.best_fitness.to_bits(),
                "round {round}"
            );
            assert_eq!(one.stats, two.stats, "round {round}");
            assert_eq!(
                serial.carry[0].population, paired.carry[0].population,
                "round {round}"
            );
            assert_eq!(rng1.next_u64(), rng2.next_u64(), "round {round}");
            // Churn: one job leaves, one of its size arrives, the rest
            // keep the answer as their incumbents and one of them is
            // re-weighted.
            let gone = jobs.remove(0);
            jobs.push(SchedJob {
                id: JobId(10 + round),
                current_placement: Vec::new(),
                ..gone
            });
            for (j, job) in jobs.iter_mut().enumerate().take(3) {
                job.current_placement = one.best.row(j + 1).to_vec();
            }
            jobs[1].weight = 1.0 + 0.5 * f64::from(round);
        }
        assert_eq!(rec.counter_value("sched", "rounds_certified"), 0);
    }

    #[test]
    fn switching_between_flat_and_racked_starts_cold() {
        use rand::RngCore;

        let spec4 = ClusterSpec::homogeneous(4, 4).unwrap();
        let spec6 = ClusterSpec::homogeneous(6, 4).unwrap();
        let two_racks = Some(Topology::grouped(4, 2).unwrap());
        let jobs = fragmented(9);
        let mut s = sched();
        let mut rng = StdRng::seed_from_u64(8);
        // Flat, racked, flat, racked — and flat again, because the
        // 4-node topology no longer fits a cluster grown to 6 nodes.
        // Every round switches paths, so every round must be the round
        // a scheduler with no history runs from the same RNG state.
        let rounds = [
            (None, &spec4),
            (two_racks.clone(), &spec4),
            (None, &spec4),
            (two_racks.clone(), &spec4),
            (two_racks, &spec6),
        ];
        for (i, (topology, spec)) in rounds.into_iter().enumerate() {
            s.set_topology(topology.clone());
            let mut fresh = sched();
            fresh.set_topology(topology);
            let (rec, fresh_rec) = (record(&mut s), record(&mut fresh));
            let mut fresh_rng = rng.clone();
            let cold = fresh.optimize(&jobs, spec, &mut fresh_rng);
            let out = s.optimize(&jobs, spec, &mut rng);
            assert_eq!(out.best, cold.best, "round {i}");
            assert_eq!(out.best_fitness.to_bits(), cold.best_fitness.to_bits());
            assert_eq!(out.stats, cold.stats, "round {i}");
            assert_eq!(table_counts(&rec), table_counts(&fresh_rec), "round {i}");
            assert_eq!(rng.next_u64(), fresh_rng.next_u64(), "round {i}");
            assert!(out.stats.generations_run > 0, "round {i} evolves");
            assert_eq!(rec.counter_value("sched", "rounds_certified"), 0);
        }

        // Flat → flat keeps its carry, across a cluster resize and a
        // topology that was never searched: the next round is seeded
        // from the population reconciled to the new width.
        s.set_topology(None);
        let [carry] = &s.carry[..] else {
            panic!("a flat round carries one entry");
        };
        let seed = reconcile_population(&carry.population, &carry.job_ids, &jobs, 4);
        assert_eq!(seed.len(), s.config.ga.population);
        assert!(seed.iter().all(|m| m.num_nodes() == 4));
        assert!(
            seed.iter().any(|m| m.total_gpus_used() > 0),
            "evolved rows kept"
        );
        let mut fresh_rng = rng.clone();
        sched().optimize(&jobs, &spec4, &mut fresh_rng);
        s.optimize(&jobs, &spec4, &mut rng);
        assert_ne!(rng.next_u64(), fresh_rng.next_u64(), "a warm round");
    }

    #[test]
    fn population_persists_and_reconciles_arrivals() {
        let spec = ClusterSpec::homogeneous(4, 4).unwrap();
        let mut s = sched();
        let mut rng = StdRng::seed_from_u64(2);

        let jobs2: Vec<SchedJob> = (0..2).map(job).collect();
        s.optimize(&jobs2, &spec, &mut rng);
        assert_eq!(s.carry[0].job_ids.len(), 2);

        // A third job arrives; the first departs.
        let jobs_next = vec![job(1), job(2)];
        let a = s.optimize(&jobs_next, &spec, &mut rng).best;
        assert_eq!(a.num_jobs(), 2);
        assert!(a.is_feasible(&spec));
        assert_eq!(s.carry[0].job_ids, vec![JobId(1), JobId(2)]);
    }

    #[test]
    fn reconciles_cluster_resizes() {
        let mut s = sched();
        let mut rng = StdRng::seed_from_u64(3);
        let jobs: Vec<SchedJob> = (0..2).map(job).collect();

        let spec4 = ClusterSpec::homogeneous(4, 4).unwrap();
        s.optimize(&jobs, &spec4, &mut rng);

        // Cluster shrinks to 2 nodes: allocations must stay feasible.
        let spec2 = ClusterSpec::homogeneous(2, 4).unwrap();
        let a = s.optimize(&jobs, &spec2, &mut rng).best;
        assert_eq!(a.num_nodes(), 2);
        assert!(a.is_feasible(&spec2));

        // And grows to 6.
        let spec6 = ClusterSpec::homogeneous(6, 4).unwrap();
        let a = s.optimize(&jobs, &spec6, &mut rng).best;
        assert_eq!(a.num_nodes(), 6);
        assert!(a.is_feasible(&spec6));
    }

    #[test]
    fn interval_counters_reach_the_recorder() {
        let spec = ClusterSpec::homogeneous(2, 4).unwrap();
        let jobs = fragmented(3);
        let mut s = sched();
        let rec = record(&mut s);
        let count = |name| rec.counter_value("sched", name);
        let mut rng = StdRng::seed_from_u64(9);
        let mut outcomes = Vec::new();
        for interval in 1..=2 {
            outcomes.push(s.optimize(&jobs, &spec, &mut rng).stats);
            assert_eq!(count("intervals"), interval);
        }
        let sum = |f: fn(&GaRunStats) -> u64| outcomes.iter().map(f).sum::<u64>();
        assert!(sum(|s| s.fitness_evals) > 0 && sum(|s| s.generations_run) > 0);
        assert_eq!(count("rounds_certified"), 0);
        assert_eq!(count("fitness_evals"), sum(|s| s.fitness_evals));
        assert_eq!(count("generations"), sum(|s| s.generations_run));
        assert_eq!(count("incremental_evals"), sum(|s| s.incremental_evals));
        assert_eq!(count("rows_recomputed"), sum(|s| s.rows_recomputed));
        // The second interval copies every row forward: same jobs, same
        // models.
        let [solves, reused] = table_counts(&rec);
        assert!(solves > 0);
        assert_eq!(reused, jobs.len() as u64);
    }

    #[test]
    fn round_explain_audits_flat_and_racked_intervals() {
        use pollux_telemetry::MemorySink;
        use std::sync::Arc;

        let spec = ClusterSpec::homogeneous(4, 4).unwrap();
        let jobs: Vec<SchedJob> = (0..3).map(job).collect();
        let mut s = sched();
        let mut rng = StdRng::seed_from_u64(7);

        // No recorder → no audit is built.
        let first = s.optimize(&jobs, &spec, &mut rng).best;
        assert!(s.take_round_explain().is_none());

        s.set_recorder(Recorder::new(Arc::new(MemorySink::new(64))));
        let mut jobs2 = jobs.clone();
        for (j, job) in jobs2.iter_mut().enumerate() {
            job.current_placement = first.row(j).to_vec();
        }
        let second = s.optimize(&jobs2, &spec, &mut rng).best;
        let explain = s.take_round_explain().expect("audit built when recording");
        assert!(!explain.racked);
        assert_eq!(explain.jobs.len(), jobs2.len());
        assert!(s.take_round_explain().is_none(), "audit drains once");
        for (j, je) in explain.jobs.iter().enumerate() {
            assert_eq!(je.job, u64::from(jobs2[j].id.0));
            assert_eq!(je.weight, 1.0);
            assert_eq!(je.rack_before, -1, "flat path has no racks");
            assert_eq!(je.rack_after, -1);
            assert_eq!(
                je.gpus_before,
                jobs2[j].current_placement.iter().sum::<u32>()
            );
            assert_eq!(je.gpus_after, second.row(j).iter().sum::<u32>());
            assert!(je.speedup_before > 0.0, "incumbents were allocated");
            let moved = second.row(j) != jobs2[j].current_placement.as_slice();
            assert_eq!(je.restart_penalty, if moved { 0.25 } else { 0.0 });
            assert_eq!(je.co_residents, Vec::<u64>::new(), "driver fills these");
        }
        assert_eq!(explain.time, 0.0, "driver stamps the clock");
        assert!(explain.fitness_before > 0.0);

        // Racked path: rack columns carry the phase-1 assignment.
        s.set_topology(Some(Topology::grouped(4, 2).unwrap()));
        s.optimize(&jobs2, &spec, &mut rng);
        let racked = s.take_round_explain().expect("racked audit");
        assert!(racked.racked);
        for je in &racked.jobs {
            assert_eq!(je.rack_before, -1, "first racked interval has no carry");
            assert!((0..2).contains(&je.rack_after), "assigned to a real rack");
        }
        s.optimize(&jobs2, &spec, &mut rng);
        let again = s.take_round_explain().expect("second racked audit");
        for (prev, cur) in racked.jobs.iter().zip(&again.jobs) {
            assert_eq!(
                cur.rack_before, prev.rack_after,
                "rack_before is last interval's assignment"
            );
        }
    }

    #[test]
    fn round_explain_read_from_tables_equals_the_solved_one() {
        use pollux_telemetry::MemorySink;
        use std::sync::Arc;

        // Six nodes: three 2-node racks, or six 1-node racks whose
        // tables hold no cross-node values at all.
        let spec = ClusterSpec::homogeneous(6, 4).unwrap();
        let mut jobs: Vec<SchedJob> = (0..7).map(job).collect();
        for (j, job) in jobs.iter_mut().enumerate() {
            job.model = model(300.0 + 900.0 * j as f64);
            job.min_gpus = 1 + (j % 3) as u32;
            job.gpu_cap = [2, 4, 6, 24][j % 4];
            job.weight = 1.0 + 0.5 * j as f64;
        }
        // Incumbents inside a rack, across racks, wider than any rack,
        // below `min_gpus`, above `gpu_cap` — and two idle jobs.
        jobs[0].current_placement = vec![2, 0, 0, 0, 0, 0];
        jobs[1].current_placement = vec![0, 1, 1, 0, 0, 0];
        jobs[2].current_placement = vec![0, 0, 2, 2, 2, 3];
        jobs[3].current_placement = vec![1, 1, 1, 1, 1, 1];
        jobs[4].current_placement = vec![0, 0, 0, 0, 1, 0];
        for topology in [None, Some((6, 2)), Some((6, 1))] {
            let mut s = sched();
            s.set_topology(topology.map(|(n, per)| Topology::grouped(n, per).unwrap()));
            s.set_recorder(Recorder::new(Arc::new(MemorySink::new(64))));
            let mut rng = StdRng::seed_from_u64(11);
            // The second round replays quiet racks from their carry.
            for _ in 0..2 {
                let outcome = s.optimize(&jobs, &spec, &mut rng);
                let read = s.take_round_explain().expect("recording");
                let solved = build_explain(
                    &s.config.ga.fitness,
                    &jobs,
                    &spec,
                    &outcome,
                    topology.is_some(),
                    |j, _| (read.jobs[j].rack_before, read.jobs[j].rack_after),
                    |_, job, shape| pure_speedup(job, shape),
                );
                assert_eq!(read, solved, "{topology:?}");
                for (a, b) in read.jobs.iter().zip(&solved.jobs) {
                    assert_eq!(a.speedup_before.to_bits(), b.speedup_before.to_bits());
                    assert_eq!(a.speedup_after.to_bits(), b.speedup_after.to_bits());
                }
                assert_eq!(
                    read.fitness_before.to_bits(),
                    solved.fitness_before.to_bits()
                );
                assert!(read.jobs.iter().any(|je| je.speedup_before > 0.0));
                assert!(read.jobs.iter().any(|je| je.speedup_after > 0.0));
            }
        }
    }

    #[test]
    fn keeps_stable_placements_across_intervals() {
        // With an unchanged world, re-scheduling should not shuffle a
        // running job gratuitously (restart penalty; Sec. 4.2.1).
        let spec = ClusterSpec::homogeneous(2, 4).unwrap();
        let mut s = sched();
        let mut rng = StdRng::seed_from_u64(4);
        let jobs = vec![job(0)];
        let first = s.optimize(&jobs, &spec, &mut rng).best;

        let mut jobs2 = vec![job(0)];
        jobs2[0].current_placement = first.row(0).to_vec();
        let second = s.optimize(&jobs2, &spec, &mut rng).best;
        assert_eq!(second.row(0), first.row(0));
    }
}
