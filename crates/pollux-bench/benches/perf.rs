//! Criterion micro-benchmarks of Pollux's hot paths:
//!
//! - goodput evaluation (`GOODPUT(a, m)`);
//! - golden-section batch-size optimization (Eqn 13);
//! - θsys model fitting (Sec. 4.1);
//! - one genetic-algorithm generation (Sec. 4.2.1);
//! - one simulator scheduling interval end-to-end.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use pollux_cluster::{ClusterSpec, JobId};
use pollux_models::{
    fit_throughput_params, BatchSizeLimits, EfficiencyModel, FitObservation, FitPriors,
    GoodputModel, PlacementShape, ThroughputParams,
};
use pollux_sched::{GaConfig, GeneticAlgorithm, SchedJob, SpeedupTable};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn goodput_model(phi: f64) -> GoodputModel {
    let tp = ThroughputParams::new(0.05, 5.0e-4, 0.05, 0.002, 0.2, 0.01, 2.0).unwrap();
    let eff = EfficiencyModel::from_noise_scale(128, phi).unwrap();
    let limits = BatchSizeLimits::new(128, 65_536, 512).unwrap();
    GoodputModel::new(tp, eff, limits).unwrap()
}

fn bench_goodput_eval(c: &mut Criterion) {
    let g = goodput_model(2000.0);
    let shape = PlacementShape::new(8, 2).unwrap();
    c.bench_function("goodput_eval", |b| {
        b.iter(|| black_box(g.goodput(black_box(shape), black_box(1024))))
    });
}

fn bench_optimal_batch_size(c: &mut Criterion) {
    let g = goodput_model(2000.0);
    let shape = PlacementShape::new(8, 2).unwrap();
    c.bench_function("optimal_batch_size_golden_section", |b| {
        b.iter(|| black_box(g.optimal_batch_size(black_box(shape))))
    });
}

fn bench_theta_sys_fit(c: &mut Criterion) {
    let truth = ThroughputParams::new(0.08, 8.0e-4, 0.05, 0.002, 0.25, 0.008, 1.8).unwrap();
    let mut obs = Vec::new();
    for (gpus, nodes) in [(1u32, 1u32), (2, 1), (4, 1), (4, 2), (8, 2), (16, 4)] {
        for m in [128u64, 256, 512, 1024] {
            let shape = PlacementShape::new(gpus, nodes).unwrap();
            obs.push(FitObservation {
                shape,
                batch_size: m,
                t_iter: truth.t_iter(shape, m),
            });
        }
    }
    let priors = FitPriors::from_observations(&obs);
    c.bench_function("theta_sys_fit_24_observations", |b| {
        b.iter(|| black_box(fit_throughput_params(black_box(&obs), priors)))
    });
}

fn sched_jobs(n: u32) -> Vec<SchedJob> {
    (0..n)
        .map(|i| SchedJob {
            id: JobId(i),
            model: goodput_model(1000.0 + 200.0 * i as f64),
            min_gpus: 1,
            gpu_cap: 64,
            weight: 1.0,
            current_placement: vec![],
        })
        .collect()
}

fn bench_ga_generation(c: &mut Criterion) {
    let spec = ClusterSpec::homogeneous(16, 4).unwrap();
    let jobs = sched_jobs(32);
    let ga = GeneticAlgorithm::new(GaConfig {
        population: 40,
        generations: 1,
        ..Default::default()
    });
    c.bench_function("ga_one_generation_32_jobs_16_nodes", |b| {
        b.iter_batched(
            || {
                (
                    SpeedupTable::build(&jobs, &spec, 1),
                    StdRng::seed_from_u64(7),
                )
            },
            |(table, mut rng)| black_box(ga.evolve(&jobs, &spec, vec![], &table, &mut rng)),
            BatchSize::SmallInput,
        )
    });
}

fn bench_speedup_table_build(c: &mut Criterion) {
    let jobs = sched_jobs(16);
    let spec = ClusterSpec::homogeneous(4, 4).unwrap();
    c.bench_function("speedup_table_build_16_jobs", |b| {
        b.iter(|| black_box(SpeedupTable::build(&jobs, &spec, 1)))
    });
}

criterion_group!(
    benches,
    bench_goodput_eval,
    bench_optimal_batch_size,
    bench_theta_sys_fit,
    bench_ga_generation,
    bench_speedup_table_build,
);
criterion_main!(benches);
