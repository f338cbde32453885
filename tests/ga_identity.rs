//! Identity tests for the GA's memory layout: the flat
//! `AllocationMatrix` and the single-pass repair may change how a
//! generation is computed, never what it computes.
//!
//! - `evolve_outcomes_match_pinned_digests`: FNV-1a64 digests of whole
//!   `evolve` outcomes over a grid, captured at the commit before the
//!   flat matrix landed and asserted unchanged since. All 36 were
//!   re-pinned once, with no outcome moving, when the speedup table
//!   stopped counting its reads: the digests no longer hash the
//!   table's hit and miss counts, and each new constant is what the old
//!   code hashed for the same grid point without them. The four 1 × 1
//!   points now share one value: the hit count was all that told them
//!   apart.
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
    let (out, population) = ga.evolve(&jobs, &spec, seed, &table, &mut rng);

    let mut h = Fnv::new();
    h.matrix(&out.best);
    h.u64(out.best_fitness.to_bits());
    h.u64(population.len() as u64);
    for m in &population {
        h.matrix(m);
    }
    h.u64(out.stats.generations_run);
    h.u64(out.stats.fitness_evals);
    h.u64(out.stats.incremental_evals);
    h.u64(out.stats.rows_recomputed);
    h.u64(rng.next_u64());
    h.0
}

/// `(jobs, nodes, interference avoidance, warm seed population)` →
/// digest, in grid order.
const PINNED: [(usize, usize, bool, bool, u64); 36] = [
    (1, 1, true, false, 0x13e1_9833_77f7_5648),
    (1, 1, true, true, 0x13e1_9833_77f7_5648),
    (1, 1, false, false, 0x13e1_9833_77f7_5648),
    (1, 1, false, true, 0x13e1_9833_77f7_5648),
    (1, 4, true, false, 0x6e6e_fce8_1c11_ddaa),
    (1, 4, true, true, 0x0eb9_56f4_5396_76a0),
    (1, 4, false, false, 0x6e6e_fce8_1c11_ddaa),
    (1, 4, false, true, 0x0eb9_56f4_5396_76a0),
    (1, 16, true, false, 0xa194_b85f_a3cd_c86a),
    (1, 16, true, true, 0xac65_20ba_3c8c_086a),
    (1, 16, false, false, 0xa194_b85f_a3cd_c86a),
    (1, 16, false, true, 0xac65_20ba_3c8c_086a),
    (13, 1, true, false, 0xc3fb_f7a6_adda_2bcc),
    (13, 1, true, true, 0xad53_dfe9_7a0a_7124),
    (13, 1, false, false, 0xc3fb_f7a6_adda_2bcc),
    (13, 1, false, true, 0xad53_dfe9_7a0a_7124),
    (13, 4, true, false, 0x98d4_1907_0269_83d2),
    (13, 4, true, true, 0x412d_daec_1f1d_9a5a),
    (13, 4, false, false, 0xeaf6_6cc4_43a0_5b6a),
    (13, 4, false, true, 0x6efb_8151_085d_7125),
    (13, 16, true, false, 0x8545_92f5_b344_bf56),
    (13, 16, true, true, 0x579e_5f61_bd8f_2c02),
    (13, 16, false, false, 0xe5c6_dece_f76b_b6fe),
    (13, 16, false, true, 0x41f3_eeaf_7aa1_23dc),
    (60, 1, true, false, 0x7634_5aaa_6dc6_2031),
    (60, 1, true, true, 0x79e5_9f14_24b8_0df5),
    (60, 1, false, false, 0x7634_5aaa_6dc6_2031),
    (60, 1, false, true, 0x79e5_9f14_24b8_0df5),
    (60, 4, true, false, 0x7b32_a08a_b2cf_b867),
    (60, 4, true, true, 0x02d4_82bb_9527_259e),
    (60, 4, false, false, 0x0954_11e1_885d_c5cf),
    (60, 4, false, true, 0xe5e5_8046_45db_9f75),
    (60, 16, true, false, 0x5604_76d8_22b2_9ea1),
    (60, 16, true, true, 0xb522_48ea_6481_4906),
    (60, 16, false, false, 0xb3e9_3d8c_0441_68d5),
    (60, 16, false, true, 0xcd56_fd6c_b116_806a),
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
