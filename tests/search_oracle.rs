//! How far from the optimum the allocation searches land, on instances
//! small enough to enumerate.
//!
//! Each instance is a handful of jobs drawn from the Table-1 profiles
//! — random training progress, GPU caps and weights, and carried
//! placements that went through `repair_matrix` — on 2 nodes (3–5
//! jobs) or 3 nodes (3 jobs) of 4 GPUs. The oracle is the best
//! `fitness::fitness` over every matrix that satisfies what repair
//! enforces: node capacity, each row empty or within `[min_gpus,
//! gpu_cap]`, and no node hosting two distributed jobs.
//!
//! No arm may score above the oracle: each returns a repaired matrix,
//! which lies inside the enumerated set. The separable bound
//! (`pollux::sched::bound`) may never score below it. How often the GA
//! at 40 × 20 and the bound's packed matrix miss the optimum is pinned,
//! one-sided, as the bar a change to the search must hold; the GA must
//! land closer to the optimum on average than random search given the
//! same number of fitness evaluations, and seeded with the packed
//! matrix it must never score below it.

use pollux::cluster::{row_shape, AllocationMatrix, ClusterSpec, JobId};
use pollux::models::{EfficiencyModel, GoodputModel};
use pollux::sched::{
    bound, contribution, fitness, repair_matrix, FitnessConfig, GaConfig, GaWorkspace,
    GeneticAlgorithm, SchedJob, SpeedupTable,
};
use pollux::workload::ModelKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const GPUS_PER_NODE: u32 = 4;
const INSTANCES: u64 = 64;
/// Instances on which the GA at 40 × 20 missed the optimum when this
/// test was written; a change to the search may lower it, never raise
/// it.
const GA_40X20_MISSES: usize = 14;
/// Instances on which the bound's packed matrix, and the GA at 40 × 20
/// seeded with it, missed the optimum when the bound was added; pinned
/// the same way.
const PACKED_MISSES: usize = 5;
const SEEDED_GA_MISSES: usize = 1;
/// A score this far below the oracle is a miss.
const MISS: f64 = 1e-9;

/// Instance `i`: every fourth is 3 nodes × 3 jobs, the rest 2 nodes ×
/// 3–5 jobs.
fn instance(i: u64) -> (Vec<SchedJob>, ClusterSpec) {
    let mut rng = StdRng::seed_from_u64(0x0AC1E ^ i);
    let (nodes, num_jobs) = if i.is_multiple_of(4) {
        (3, 3)
    } else {
        (2, rng.gen_range(3..=5))
    };
    let spec = ClusterSpec::homogeneous(nodes, GPUS_PER_NODE).unwrap();
    let mut jobs: Vec<SchedJob> = (0..num_jobs)
        .map(|j| {
            let profile = ModelKind::ALL[rng.gen_range(0..ModelKind::ALL.len())].profile();
            let phi = profile.phi_at(rng.gen_range(0.0..1.0));
            let eff = EfficiencyModel::from_noise_scale(profile.m0, phi).unwrap();
            let model = GoodputModel::new(profile.params, eff, profile.limits).unwrap();
            let min_gpus = profile.limits.min_gpus().max(1);
            SchedJob {
                id: JobId(j as u32),
                model,
                min_gpus,
                gpu_cap: rng.gen_range(min_gpus..=2 * GPUS_PER_NODE),
                weight: rng.gen_range(0.25..1.0),
                current_placement: vec![0; nodes as usize],
            }
        })
        .collect();
    // Carried placements: about half the jobs held GPUs, repaired into
    // an allocation the scheduler could have made.
    let mut carried = AllocationMatrix::zeros(jobs.len(), spec.num_nodes());
    for j in 0..jobs.len() {
        if rng.gen_bool(0.5) {
            for n in 0..spec.num_nodes() {
                carried.set(j, n, rng.gen_range(0..=GPUS_PER_NODE));
            }
        }
    }
    let mut ws = GaWorkspace::default();
    repair_matrix(&mut carried, &jobs, &spec, true, &mut rng, &mut ws);
    for (j, job) in jobs.iter_mut().enumerate() {
        job.current_placement = carried.row(j).to_vec();
    }
    (jobs, spec)
}

/// The best fitness over every matrix repair could return, summed in
/// job order exactly as `fitness` sums, so equal matrices score equal
/// bits.
fn oracle(jobs: &[SchedJob], spec: &ClusterSpec, table: &SpeedupTable) -> f64 {
    struct Search<'a> {
        jobs: &'a [SchedJob],
        table: &'a SpeedupTable,
        rows: &'a [Vec<u32>],
        matrix: AllocationMatrix,
        free: Vec<u32>,
        /// Nodes that host a distributed job.
        spread: Vec<bool>,
        den: f64,
        best: f64,
    }
    impl Search<'_> {
        fn visit(&mut self, j: usize, num: f64) {
            if j == self.jobs.len() {
                self.best = self.best.max(num / self.den);
                return;
            }
            let (jobs, rows) = (self.jobs, self.rows);
            let job = &jobs[j];
            for row in rows {
                let fits = row.iter().zip(&self.free).all(|(&g, &f)| g <= f);
                let k: u32 = row.iter().sum();
                let sized = k == 0 || (job.min_gpus..=job.gpu_cap).contains(&k);
                let distributed = row_shape(row).is_some_and(|s| s.nodes >= 2);
                let clash = || row.iter().zip(&self.spread).any(|(&g, &s)| g > 0 && s);
                if fits && sized && !(distributed && clash()) {
                    self.matrix.copy_row(j, row);
                    let c =
                        contribution(jobs, j, &self.matrix, self.table, &FitnessConfig::default());
                    for (n, &g) in row.iter().enumerate() {
                        self.free[n] -= g;
                        self.spread[n] |= distributed && g > 0;
                    }
                    self.visit(j + 1, num + c);
                    for (n, &g) in row.iter().enumerate() {
                        self.free[n] += g;
                        self.spread[n] &= !(distributed && g > 0);
                    }
                }
            }
        }
    }
    let nodes = spec.num_nodes();
    let per_cell = GPUS_PER_NODE as usize + 1;
    let rows: Vec<Vec<u32>> = (0..per_cell.pow(nodes as u32))
        .map(|code| {
            (0..nodes)
                .map(|n| (code / per_cell.pow(n as u32) % per_cell) as u32)
                .collect()
        })
        .collect();
    let mut search = Search {
        jobs,
        table,
        rows: &rows,
        matrix: AllocationMatrix::zeros(jobs.len(), nodes),
        free: vec![GPUS_PER_NODE; nodes],
        spread: vec![false; nodes],
        den: jobs.iter().map(|j| j.weight).sum(),
        best: f64::NEG_INFINITY,
    };
    search.visit(0, 0.0);
    search.best
}

/// Whether `m` is a matrix the oracle enumerated.
fn feasible(m: &AllocationMatrix, jobs: &[SchedJob], spec: &ClusterSpec) -> bool {
    let sized = jobs.iter().enumerate().all(|(j, job)| {
        let k = m.gpus_of(j);
        k == 0 || (job.min_gpus..=job.gpu_cap).contains(&k)
    });
    let nodes_ok = (0..spec.num_nodes()).all(|n| {
        let holders = (0..jobs.len()).filter(|&j| m.get(j, n) > 0);
        let used: u32 = holders.clone().map(|j| m.get(j, n)).sum();
        let spread = holders.filter(|&j| m.nodes_of(j) >= 2).count();
        used <= GPUS_PER_NODE && spread <= 1
    });
    sized && nodes_ok
}

/// One search arm: a name and the matrix it returns for an instance.
type Arm = (
    &'static str,
    fn(&[SchedJob], &ClusterSpec, &SpeedupTable, u64) -> AllocationMatrix,
);

fn ga(population: usize, generations: usize, early_stop_gens: usize) -> GeneticAlgorithm {
    GeneticAlgorithm::new(GaConfig {
        population,
        generations,
        early_stop_gens,
        ..Default::default()
    })
}

/// Fitness evaluations of the GA at 40 × 20 run to the end.
const BUDGET: usize = 40 + 20 * 2 * 40;

const ARMS: [Arm; 6] = [
    ("GA 40x20", |jobs, spec, table, seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        let default_stop = GaConfig::default().early_stop_gens;
        let ga = ga(40, 20, default_stop);
        ga.evolve(jobs, spec, vec![], table, &mut rng).0.best
    }),
    ("GA 40x20, no early stop", |jobs, spec, table, seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        ga(40, 20, 0)
            .evolve(jobs, spec, vec![], table, &mut rng)
            .0
            .best
    }),
    ("GA 100x100", |jobs, spec, table, seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        let default_stop = GaConfig::default().early_stop_gens;
        let ga = ga(100, 100, default_stop);
        ga.evolve(jobs, spec, vec![], table, &mut rng).0.best
    }),
    ("random search", |jobs, spec, table, seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ws = GaWorkspace::default();
        let config = FitnessConfig::default();
        let mut best = (
            AllocationMatrix::zeros(jobs.len(), spec.num_nodes()),
            f64::MIN,
        );
        for _ in 0..BUDGET {
            let mut m = AllocationMatrix::zeros(jobs.len(), spec.num_nodes());
            for j in 0..jobs.len() {
                for n in 0..spec.num_nodes() {
                    m.set(j, n, rng.gen_range(0..=GPUS_PER_NODE));
                }
            }
            repair_matrix(&mut m, jobs, spec, true, &mut rng, &mut ws);
            let f = fitness(jobs, &m, table, &config);
            if f > best.1 {
                best = (m, f);
            }
        }
        best.0
    }),
    ("DP + packing", |jobs, spec, table, _| {
        bound::solve(jobs, spec, table, &GaConfig::default()).packed
    }),
    (
        "GA 40x20 seeded with DP + packing",
        |jobs, spec, table, seed| {
            let packed = bound::solve(jobs, spec, table, &GaConfig::default()).packed;
            let mut rng = StdRng::seed_from_u64(seed);
            let default_stop = GaConfig::default().early_stop_gens;
            let ga = ga(40, 20, default_stop);
            ga.evolve(jobs, spec, vec![packed], table, &mut rng).0.best
        },
    ),
];

#[test]
fn no_search_beats_the_exhaustive_optimum_and_the_ga_misses_it_rarely() {
    let config = FitnessConfig::default();
    // The arm of each name, in `ARMS` order.
    let arm = |wanted: &str| {
        ARMS.iter()
            .position(|&(name, _)| name == wanted)
            .expect("an arm of that name")
    };
    let ga_40x20 = arm("GA 40x20");
    let random = arm("random search");
    let packed = arm("DP + packing");
    let seeded = arm("GA 40x20 seeded with DP + packing");
    // Per arm: instances missed and the summed gap to the oracle.
    let mut misses = [(0usize, 0.0f64); ARMS.len()];
    for i in 0..INSTANCES {
        let (jobs, spec) = instance(i);
        let table = SpeedupTable::build(&jobs, &spec, 1);
        let best = oracle(&jobs, &spec, &table);
        let bound = bound::solve(&jobs, &spec, &table, &GaConfig::default()).value;
        assert!(
            bound >= best,
            "the bound is below the optimum on instance {i}: {bound} < {best}"
        );
        let mut scores = [0.0; ARMS.len()];
        for ((name, arm), score) in ARMS.iter().zip(&mut scores) {
            let m = arm(&jobs, &spec, &table, i);
            assert!(feasible(&m, &jobs, &spec), "{name}, instance {i}: {m:?}");
            *score = fitness(&jobs, &m, &table, &config);
            assert!(
                *score <= best,
                "{name} beat the oracle on instance {i}: {score} > {best}"
            );
        }
        for (&score, (missed, gap)) in scores.iter().zip(&mut misses) {
            if score < best - MISS {
                *missed += 1;
                *gap += best - score;
            }
        }
        assert!(
            scores[seeded] >= scores[packed],
            "the seeded GA fell below its seed on instance {i}: {} < {}",
            scores[seeded],
            scores[packed]
        );
    }
    let report: Vec<String> = ARMS
        .iter()
        .zip(&misses)
        .map(|((name, _), &(missed, gap))| {
            let mean = gap / INSTANCES as f64;
            format!("{name}: missed {missed} of {INSTANCES}, mean gap {mean:.4}")
        })
        .collect();
    assert!(
        misses[ga_40x20].0 <= GA_40X20_MISSES,
        "the GA at 40 x 20 missed the optimum more often than {GA_40X20_MISSES} times\n{}",
        report.join("\n")
    );
    assert!(
        misses[packed].0 <= PACKED_MISSES,
        "DP + packing missed the optimum more often than {PACKED_MISSES} times\n{}",
        report.join("\n")
    );
    assert!(
        misses[seeded].0 <= SEEDED_GA_MISSES,
        "the seeded GA missed the optimum more often than {SEEDED_GA_MISSES} times\n{}",
        report.join("\n")
    );
    assert!(
        misses[ga_40x20].1 < misses[random].1,
        "the GA at 40 x 20 is no closer to the optimum than random search\n{}",
        report.join("\n")
    );
}
