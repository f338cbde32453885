//! Identity tests for the GA's memory layout: the flat
//! `AllocationMatrix` and the single-pass repair may change how a
//! generation is computed, never what it computes.
//!
//! - `evolve_outcomes_match_pinned_digests`: FNV-1a64 digests of whole
//!   `evolve` outcomes over a grid, captured at the commit before the
//!   flat matrix landed (release build — debug builds inflated the
//!   table hit counter there) and asserted unchanged.
//! - `debug_text_matches_the_derived_rendering`: `SimResult::digest`
//!   hashes `Debug` text, so every golden digests this rendering.
//! - `matrix_ops_match_the_nested_vec_model`: the flat storage against
//!   a `Vec<Vec<u32>>` model under random op streams.
//! - `repair_output_is_feasible_and_tracked`: what repair promises.

use pollux::cluster::{AllocationMatrix, ClusterSpec, JobId};
use pollux::models::{BatchSizeLimits, EfficiencyModel, GoodputModel, ThroughputParams};
use pollux::sched::{GaConfig, GeneticAlgorithm, SchedJob, SpeedupTable};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn matrix(&mut self, m: &AllocationMatrix) {
        self.u64(m.num_jobs() as u64);
        self.u64(m.num_nodes() as u64);
        for j in 0..m.num_jobs() {
            for &g in m.row(j) {
                self.u64(u64::from(g));
            }
        }
    }
}

/// A small deterministic generator for test inputs (kept apart from
/// `StdRng` so the inputs do not depend on the vendored stream).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self, bound: u32) -> u32 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((self.0 >> 33) % u64::from(bound)) as u32
    }
}

const GPUS_PER_NODE: u32 = 4;

fn model(phi: f64) -> GoodputModel {
    let tp = ThroughputParams::new(0.05, 5.0e-4, 0.05, 0.002, 0.2, 0.01, 2.0).unwrap();
    let eff = EfficiencyModel::from_noise_scale(128, phi).unwrap();
    let limits = BatchSizeLimits::new(128, 65_536, 512).unwrap();
    GoodputModel::new(tp, eff, limits).unwrap()
}

/// Jobs with mixed minimums, caps, weights and incumbents: every third
/// job is running, some need ≥ 2 or 3 GPUs, some are capped at 2–5.
fn jobs(num_jobs: usize, num_nodes: usize) -> Vec<SchedJob> {
    (0..num_jobs)
        .map(|i| {
            let mut current = vec![0u32; num_nodes];
            if i % 3 == 0 {
                current[i % num_nodes] = 1 + (i % 2) as u32;
            }
            SchedJob {
                id: JobId(i as u32),
                model: model(400.0 + 350.0 * i as f64),
                min_gpus: 1 + (i % 3) as u32,
                gpu_cap: if i % 4 == 1 { 2 + (i % 4) as u32 } else { 64 },
                weight: 1.0 + (i % 5) as f64 * 0.2,
                current_placement: current,
            }
        })
        .collect()
}

/// Warm seed members that need every repair step: columns over
/// capacity, rows above `gpu_cap` and rows below `min_gpus`, plus one
/// member of the wrong shape (discarded by `evolve`).
fn wild_population(num_jobs: usize, num_nodes: usize, count: usize) -> Vec<AllocationMatrix> {
    let mut lcg = Lcg(0x5eed ^ ((num_jobs as u64) << 8) ^ num_nodes as u64);
    let mut pop: Vec<AllocationMatrix> = (0..count)
        .map(|k| {
            let mut m = AllocationMatrix::zeros(num_jobs, num_nodes);
            for j in 0..num_jobs {
                for n in 0..num_nodes {
                    // Sparse members stay mostly below `min_gpus`,
                    // dense ones overflow every column.
                    let dense = k % 2 == 0;
                    if dense || lcg.next(4) == 0 {
                        m.set(j, n, lcg.next(GPUS_PER_NODE + 3));
                    }
                }
            }
            m
        })
        .collect();
    pop.push(AllocationMatrix::zeros(num_jobs + 1, num_nodes));
    pop
}

fn evolve_digest(
    num_jobs: usize,
    num_nodes: usize,
    interference_avoidance: bool,
    warm: bool,
) -> u64 {
    let spec = ClusterSpec::homogeneous(num_nodes as u32, GPUS_PER_NODE).unwrap();
    let jobs = jobs(num_jobs, num_nodes);
    let ga = GeneticAlgorithm::new(GaConfig {
        population: 10,
        generations: 5,
        interference_avoidance,
        ..Default::default()
    });
    let seed = if warm {
        wild_population(num_jobs, num_nodes, 6)
    } else {
        Vec::new()
    };
    let table = SpeedupTable::build(&jobs, &spec, 1);
    let mut rng = StdRng::seed_from_u64(0xa11c ^ (num_jobs * 31 + num_nodes) as u64);
    let out = ga.evolve(&jobs, &spec, seed, &table, &mut rng);

    let mut h = Fnv::new();
    h.matrix(&out.best);
    h.u64(out.best_fitness.to_bits());
    h.u64(out.population.len() as u64);
    for m in &out.population {
        h.matrix(m);
    }
    h.u64(out.stats.generations_run);
    h.u64(out.stats.fitness_evals);
    h.u64(out.stats.incremental_evals);
    h.u64(out.stats.rows_recomputed);
    let stats = table.stats();
    h.u64(stats.hits);
    h.u64(stats.misses);
    h.u64(rng.next_u64());
    h.0
}

/// `(jobs, nodes, interference avoidance, warm seed population)` →
/// digest, in grid order.
const PINNED: [(usize, usize, bool, bool, u64); 36] = [
    (1, 1, true, false, 0xb23d_69ea_58b6_e0b9),
    (1, 1, true, true, 0x8a92_a8b0_d71c_c958),
    (1, 1, false, false, 0xb23d_69ea_58b6_e0b9),
    (1, 1, false, true, 0x8a92_a8b0_d71c_c958),
    (1, 4, true, false, 0xa4e7_413f_062d_868a),
    (1, 4, true, true, 0xa410_e392_4adb_3f24),
    (1, 4, false, false, 0xa4e7_413f_062d_868a),
    (1, 4, false, true, 0xa410_e392_4adb_3f24),
    (1, 16, true, false, 0x89ab_bdab_df0e_dca7),
    (1, 16, true, true, 0xd7c6_f9b1_6d8c_f263),
    (1, 16, false, false, 0x89ab_bdab_df0e_dca7),
    (1, 16, false, true, 0xd7c6_f9b1_6d8c_f263),
    (13, 1, true, false, 0x8522_461a_03d5_4bdd),
    (13, 1, true, true, 0x7c34_b875_91ac_947f),
    (13, 1, false, false, 0x8522_461a_03d5_4bdd),
    (13, 1, false, true, 0x7c34_b875_91ac_947f),
    (13, 4, true, false, 0xd1b7_ed5c_b086_2141),
    (13, 4, true, true, 0xce07_f904_f1d7_80e2),
    (13, 4, false, false, 0xd743_cb16_a78a_d3f6),
    (13, 4, false, true, 0x61ad_ebab_7a0e_a55f),
    (13, 16, true, false, 0xd0f0_abe5_f707_4cb2),
    (13, 16, true, true, 0x192c_0c74_98f7_b7eb),
    (13, 16, false, false, 0x1fde_890b_8adb_f3fe),
    (13, 16, false, true, 0xb936_9ef2_9ed5_0da3),
    (60, 1, true, false, 0xaf02_2565_f3a9_6d37),
    (60, 1, true, true, 0x7200_6777_b42a_4a3a),
    (60, 1, false, false, 0xaf02_2565_f3a9_6d37),
    (60, 1, false, true, 0x7200_6777_b42a_4a3a),
    (60, 4, true, false, 0x9401_c514_4e8b_18e7),
    (60, 4, true, true, 0x2669_bfd6_6067_d5b2),
    (60, 4, false, false, 0x3c88_e133_f2dc_a8a7),
    (60, 4, false, true, 0xfc8f_f7a0_c651_4aa7),
    (60, 16, true, false, 0x1b7b_ca73_3129_a484),
    (60, 16, true, true, 0xbd35_2c27_c75e_f298),
    (60, 16, false, false, 0xd555_6a7e_024f_8b79),
    (60, 16, false, true, 0x135f_7240_c981_61a6),
];

#[test]
fn evolve_outcomes_match_pinned_digests() {
    for &(num_jobs, num_nodes, avoid, warm, want) in &PINNED {
        let got = evolve_digest(num_jobs, num_nodes, avoid, warm);
        assert_eq!(
            got, want,
            "J={num_jobs} N={num_nodes} avoid={avoid} warm={warm}: 0x{got:016x}"
        );
    }
}

/// Pinned against the text `#[derive(Debug)]` rendered for the former
/// `{ num_nodes, rows: Vec<Vec<u32>> }` layout.
#[test]
fn debug_text_matches_the_derived_rendering() {
    let m = AllocationMatrix::from_rows(vec![vec![0, 3], vec![1, 0]], 2).unwrap();
    assert_eq!(
        format!("{m:?}"),
        "AllocationMatrix { num_nodes: 2, rows: [[0, 3], [1, 0]] }"
    );
    assert_eq!(
        format!("{m:#?}"),
        "AllocationMatrix {\n    num_nodes: 2,\n    rows: [\n        [\n            0,\n            \
         3,\n        ],\n        [\n            1,\n            0,\n        ],\n    ],\n}"
    );
    let no_jobs = AllocationMatrix::zeros(0, 3);
    assert_eq!(
        format!("{no_jobs:?}"),
        "AllocationMatrix { num_nodes: 3, rows: [] }"
    );
    assert_eq!(
        format!("{no_jobs:#?}"),
        "AllocationMatrix {\n    num_nodes: 3,\n    rows: [],\n}"
    );
    let no_nodes = AllocationMatrix::zeros(2, 0);
    assert_eq!(
        format!("{no_nodes:?}"),
        "AllocationMatrix { num_nodes: 0, rows: [[], []] }"
    );
    assert_eq!(
        format!("{no_nodes:#?}"),
        "AllocationMatrix {\n    num_nodes: 0,\n    rows: [\n        [],\n        [],\n    ],\n}"
    );
}

mod properties {
    use super::*;
    use pollux::sched::{repair_matrix, GaWorkspace};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn matrix_ops_match_the_nested_vec_model(
            num_nodes in 0usize..5,
            ops in proptest::collection::vec((0usize..5, 0usize..8, 0usize..8, 0u32..9), 1..60),
        ) {
            let mut width = num_nodes;
            let mut m = AllocationMatrix::zeros(2, width);
            let mut model: Vec<Vec<u32>> = vec![vec![0; width]; 2];
            for (kind, a, b, g) in ops {
                match kind {
                    0 if !model.is_empty() && width > 0 => {
                        let (j, n) = (a % model.len(), b % width);
                        m.set(j, n, g);
                        model[j][n] = g;
                    }
                    1 if !model.is_empty() => {
                        let j = a % model.len();
                        let row: Vec<u32> = (0..width).map(|n| (n + b) as u32 * g % 7).collect();
                        m.copy_row(j, &row);
                        model[j] = row;
                    }
                    2 => {
                        prop_assert_eq!(m.push_job(), model.len());
                        model.push(vec![0; width]);
                    }
                    3 if !model.is_empty() => {
                        m.remove_job(a % model.len());
                        model.remove(a % model.len());
                    }
                    4 => {
                        width = b % 6;
                        m.resize_nodes(width);
                        for row in &mut model {
                            row.resize(width, 0);
                        }
                    }
                    _ => {}
                }
                prop_assert_eq!(m.num_jobs(), model.len());
                prop_assert_eq!(m.num_nodes(), width);
                for (j, row) in model.iter().enumerate() {
                    prop_assert_eq!(m.row(j), row.as_slice());
                    prop_assert_eq!(m.gpus_of(j), row.iter().sum::<u32>());
                }
                for n in 0..width {
                    prop_assert_eq!(m.gpus_used_on(n), model.iter().map(|r| r[n]).sum::<u32>());
                }
                prop_assert_eq!(&m, &AllocationMatrix::from_rows(model.clone(), width).unwrap());
            }
            if let Some(last) = model.len().checked_sub(1) {
                m.clear_row(last);
                prop_assert!(m.row(last).iter().all(|&g| g == 0));
            }
        }

        #[test]
        fn repair_output_is_feasible_and_tracked(
            (rows, bounds, gpus_per_node) in (1usize..7, 1usize..6).prop_flat_map(|(j, n)| (
                proptest::collection::vec(proptest::collection::vec(0u32..10, n), j),
                proptest::collection::vec((1u32..4, 1u32..32), j),
                2u32..6,
            )),
            avoid in 0u8..2,
            seed in proptest::num::u64::ANY,
        ) {
            let avoid = avoid == 1;
            let num_nodes = rows[0].len();
            let spec = ClusterSpec::homogeneous(num_nodes as u32, gpus_per_node).unwrap();
            let mut jobs = jobs(rows.len(), num_nodes);
            for (job, &(min_gpus, cap)) in jobs.iter_mut().zip(&bounds) {
                job.min_gpus = min_gpus;
                job.gpu_cap = cap.max(min_gpus);
            }
            let wild = AllocationMatrix::from_rows(rows, num_nodes).unwrap();
            let mut m = wild.clone();
            let mut ws = GaWorkspace::default();
            ws.track(jobs.len());
            repair_matrix(&mut m, &jobs, &spec, avoid, &mut StdRng::seed_from_u64(seed), &mut ws);

            prop_assert!(m.is_feasible(&spec), "over capacity:\n{m}");
            prop_assert!(!avoid || m.satisfies_interference_avoidance(), "interference:\n{m}");
            for (j, job) in jobs.iter().enumerate() {
                let k = m.gpus_of(j);
                prop_assert!(
                    k == 0 || (job.min_gpus..=job.gpu_cap).contains(&k),
                    "job {j}: K = {k} outside {}..={}", job.min_gpus, job.gpu_cap
                );
                // Repair only ever removes GPUs, and owns up to it.
                prop_assert!(m.row(j).iter().zip(wild.row(j)).all(|(after, before)| after <= before));
                prop_assert!(ws.touched()[j] || m.row(j) == wild.row(j), "row {j} changed unmarked");
            }
        }
    }
}
