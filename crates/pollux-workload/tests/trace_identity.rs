//! Trace generation asks each Eqn-13 question once per model, and the
//! traces it writes are the ones it wrote when every job asked again.

use pollux_workload::{JobSpec, ModelKind, TraceConfig, TraceGenerator};

/// FNV-1a64 over every field of every job, floats by their bits.
fn digest(jobs: &[JobSpec]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for job in jobs {
        mix(u64::from(job.id.0));
        mix(ModelKind::ALL
            .iter()
            .position(|kind| *kind == job.kind)
            .expect("a Table-1 model") as u64);
        mix(job.submit_time.to_bits());
        mix(job.work.to_bits());
        mix(u64::from(job.tuned.gpus));
        mix(job.tuned.batch_size);
        mix(u64::from(job.realistic.gpus));
        mix(job.realistic.batch_size);
    }
    h
}

/// The benchmark's three `TraceConfig`s at its seed 1: `paper_trace`
/// and `dc_tiresias` draw traces `2 × seed + i`, `sched_rounds` its
/// standing jobs and arrivals from the seed itself.
fn benchmark_configs() -> [TraceConfig; 3] {
    [
        TraceConfig {
            seed: 2,
            ..Default::default()
        },
        TraceConfig {
            num_jobs: 5_000,
            duration_hours: 24.0,
            max_gpus: 8,
            seed: 2,
            ..Default::default()
        },
        TraceConfig {
            num_jobs: 11_200,
            duration_hours: 720.0,
            max_gpus: 8,
            seed: 1,
            ..Default::default()
        },
    ]
}

/// Captured at the commit before `UserConfigTable`, where every job
/// re-derived its model's validity set with `max_gpus + 2` solves.
const PINNED: [u64; 3] = [
    0xd6d5_8693_1c5d_e27c,
    0x8b4d_42fe_daba_fee5,
    0x094a_6806_a913_64cc,
];

#[test]
fn benchmark_traces_match_pinned_digests() {
    for (config, want) in benchmark_configs().into_iter().zip(PINNED) {
        let jobs = TraceGenerator::new(config).unwrap().generate();
        let got = digest(&jobs);
        assert_eq!(got, want, "{config:?}: 0x{got:016x}");
    }
}

#[test]
fn solves_grow_with_models_and_gpu_counts_not_with_jobs() {
    let config = benchmark_configs()[1];
    let (jobs, solves) = TraceGenerator::new(config).unwrap().generate_counted();
    assert_eq!(jobs.len(), 5_000);
    // Per model: the reference shape and 2..=max_gpus for the validity
    // set (one GPU is the reference), plus the trace GPU counts beyond
    // max_gpus (16, XLarge only).
    let per_model = u64::from(config.max_gpus) + 1;
    assert!(
        (1..=ModelKind::ALL.len() as u64 * per_model).contains(&solves),
        "{solves} solves for {} jobs",
        jobs.len()
    );
    // Ten times the jobs, not one more question.
    let longer = TraceConfig {
        num_jobs: 50_000,
        ..config
    };
    let (_, more) = TraceGenerator::new(longer).unwrap().generate_counted();
    assert_eq!(more, solves);
}
