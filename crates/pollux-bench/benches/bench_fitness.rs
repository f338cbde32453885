//! Head-to-head comparison of the three fitness-evaluation strategies
//! on the paper-scale problem (64 jobs on 16 nodes × 4 GPUs):
//!
//! 1. `hash_cache` — the legacy sharded-HashMap [`SpeedupCache`]: every
//!    `SPEEDUP` lookup hashes a `(job, shape)` key and takes a shard
//!    lock (PR 1's design);
//! 2. `dense_table` — full-chromosome [`fitness`] over the precomputed
//!    dense [`SpeedupTable`]: each lookup is an unsynchronized array
//!    index (this PR's design);
//! 3. `incremental` — [`contribution`]/[`fitness_of`] recomputing only
//!    the rows a GA operator touched (two rows here, a typical
//!    crossover/mutation footprint).
//!
//! Not a criterion bench: a custom `main` so the measured numbers land
//! in machine-readable form at `BENCH_fitness.json` in the repo root.
//! Set `BENCH_FITNESS_QUICK=1` (CI does) for a fast smoke run —
//! fewer repetitions, same arms, same output file schema.

use pollux_cluster::{AllocationMatrix, ClusterSpec, JobId};
use pollux_models::{BatchSizeLimits, EfficiencyModel, GoodputModel, ThroughputParams};
use pollux_sched::{
    contribution, contributions, fitness, fitness_of, fitness_with_cache, repair_matrix,
    weight_sum, FitnessConfig, GaWorkspace, SchedJob, SpeedupCache, SpeedupTable,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

const NUM_JOBS: u32 = 64;
const NUM_NODES: usize = 16;
const GPUS_PER_NODE: u32 = 4;
const POOL: usize = 64;

fn goodput_model(phi: f64) -> GoodputModel {
    let tp = ThroughputParams::new(0.05, 5.0e-4, 0.05, 0.002, 0.2, 0.01, 2.0).unwrap();
    let eff = EfficiencyModel::from_noise_scale(128, phi).unwrap();
    let limits = BatchSizeLimits::new(128, 65_536, 512).unwrap();
    GoodputModel::new(tp, eff, limits).unwrap()
}

fn sched_jobs() -> Vec<SchedJob> {
    (0..NUM_JOBS)
        .map(|i| {
            let mut current = vec![0u32; NUM_NODES];
            if i % 3 == 0 {
                // Some jobs hold GPUs so the restart penalty is live.
                current[i as usize % NUM_NODES] = 2;
            }
            SchedJob {
                id: JobId(i),
                model: goodput_model(800.0 + 150.0 * i as f64),
                min_gpus: 1,
                gpu_cap: 64,
                weight: 1.0 + (i % 5) as f64 * 0.2,
                current_placement: current,
            }
        })
        .collect()
}

/// Pool of feasible allocation matrices, repaired the same way GA
/// offspring are, so every arm prices the identical lookup mix.
fn matrix_pool(jobs: &[SchedJob], spec: &ClusterSpec) -> Vec<AllocationMatrix> {
    let mut rng = StdRng::seed_from_u64(42);
    let mut ws = GaWorkspace::default();
    (0..POOL)
        .map(|_| {
            let mut m = AllocationMatrix::zeros(jobs.len(), NUM_NODES);
            for j in 0..jobs.len() {
                let n = rng.gen_range(0..NUM_NODES);
                m.set(j, n, rng.gen_range(0..=GPUS_PER_NODE));
            }
            repair_matrix(&mut m, jobs, spec, true, &mut rng, &mut ws);
            m
        })
        .collect()
}

struct ArmResult {
    name: &'static str,
    evals: u64,
    best_total_ns: u128,
}

impl ArmResult {
    fn ns_per_eval(&self) -> f64 {
        self.best_total_ns as f64 / self.evals as f64
    }
}

/// Runs `work` `reps` times (after one untimed warmup) and keeps the
/// fastest repetition — the standard way to strip scheduler noise on a
/// loaded single-core container.
fn measure(name: &'static str, evals: u64, reps: usize, mut work: impl FnMut()) -> ArmResult {
    work();
    let mut best = u128::MAX;
    for _ in 0..reps {
        let start = Instant::now();
        work();
        best = best.min(start.elapsed().as_nanos());
    }
    ArmResult {
        name,
        evals,
        best_total_ns: best,
    }
}

fn main() {
    let quick = std::env::var("BENCH_FITNESS_QUICK").is_ok_and(|v| v != "0");
    let (passes, reps) = if quick { (2, 2) } else { (50, 7) };

    let spec = ClusterSpec::homogeneous(NUM_NODES as u32, GPUS_PER_NODE).unwrap();
    let jobs = sched_jobs();
    let pool = matrix_pool(&jobs, &spec);
    let config = FitnessConfig::default();
    let evals = (passes * pool.len()) as u64;

    // Arm 1: sharded-HashMap cache, pre-populated by a warmup pass so
    // the steady-state (all hits) path is what gets measured.
    let cache = SpeedupCache::new();
    let hash_cache = measure("hash_cache", evals, reps, || {
        for _ in 0..passes {
            for m in &pool {
                black_box(fitness_with_cache(&jobs, m, &cache, &config));
            }
        }
    });

    // Arm 2: dense table, full-chromosome recompute per evaluation.
    // Built once per interval in production; build cost is reported
    // separately below so the lookup comparison stays clean.
    let build_start = Instant::now();
    let table = SpeedupTable::build(&jobs, &spec, 1);
    let table_build_ns = build_start.elapsed().as_nanos();
    let dense_table = measure("dense_table", evals, reps, || {
        for _ in 0..passes {
            for m in &pool {
                black_box(fitness(&jobs, m, &table, &config));
            }
        }
    });

    // Arm 3: incremental — carry per-job contributions and recompute
    // only the two rows a GA operator touched.
    let wsum = weight_sum(&jobs);
    let base_contrib = contributions(&jobs, &pool[0], &table, &config);
    let incremental = measure("incremental", evals, reps, || {
        let mut contrib = base_contrib.clone();
        for p in 0..passes {
            for (i, m) in pool.iter().enumerate() {
                let a = (i + p) % jobs.len();
                let b = (i * 7 + p + 1) % jobs.len();
                contrib[a] = contribution(&jobs, a, m, &table, &config);
                contrib[b] = contribution(&jobs, b, m, &table, &config);
                black_box(fitness_of(&contrib, wsum));
            }
        }
    });

    let arms = [&hash_cache, &dense_table, &incremental];
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"bench\": \"bench_fitness\",\n  \"quick\": {quick},\n  \"num_jobs\": {NUM_JOBS},\n  \"num_nodes\": {NUM_NODES},\n  \"gpus_per_node\": {GPUS_PER_NODE},\n  \"pool\": {POOL},\n  \"passes\": {passes},\n  \"reps\": {reps},\n  \"table_build_ns\": {table_build_ns},\n  \"arms\": [\n"
    ));
    for (i, arm) in arms.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"name\": \"{}\", \"evals\": {}, \"best_total_ns\": {}, \"ns_per_eval\": {:.1} }}{}\n",
            arm.name,
            arm.evals,
            arm.best_total_ns,
            arm.ns_per_eval(),
            if i + 1 < arms.len() { "," } else { "" }
        ));
    }
    out.push_str(&format!(
        "  ],\n  \"speedup_dense_vs_cache\": {:.2},\n  \"speedup_incremental_vs_cache\": {:.2}\n}}\n",
        hash_cache.ns_per_eval() / dense_table.ns_per_eval(),
        hash_cache.ns_per_eval() / incremental.ns_per_eval()
    ));

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fitness.json");
    std::fs::write(path, &out).expect("write BENCH_fitness.json");
    print!("{out}");

    assert!(
        dense_table.ns_per_eval() < hash_cache.ns_per_eval(),
        "dense table ({:.1} ns/eval) must beat the sharded-HashMap cache ({:.1} ns/eval)",
        dense_table.ns_per_eval(),
        hash_cache.ns_per_eval()
    );
}
