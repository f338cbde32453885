//! Integration of the training substrate with the agent's adaptation
//! loop: real measured gradient statistics drive batch-size tuning.

use pollux::agent::PolluxAgent;
use pollux::models::{GradientStats, PlacementShape};
use pollux::trainer::{AdaptiveTrainer, Dataset, LinearModel, TrainerConfig};
use pollux::workload::ModelKind;

/// Runs the trainer for a while and returns its measured (variance,
/// |grad|²) statistics normalized to m0.
fn measured_stats(batch: u64, steps: usize) -> GradientStats {
    let data = Dataset::linear_regression(3000, 8, 0.6, 7).unwrap().0;
    let mut t = AdaptiveTrainer::new(
        LinearModel::new(8),
        data,
        TrainerConfig {
            replicas: 4,
            batch_size: batch,
            m0: 32,
            eta0: 0.03,
            use_adascale: true,
            seed: 9,
        },
    )
    .unwrap();
    for _ in 0..steps {
        t.step();
    }
    // Near convergence the measured φ legitimately diverges; clamp to
    // a large finite value for the agent handoff.
    let phi = t.phi().expect("phi available").min(1e9);
    GradientStats::new(phi / 32.0, 1.0).expect("phi >= 0")
}

#[test]
fn real_gradient_stats_drive_batch_tuning() {
    // Wire a trainer's *measured* noise scale into a PolluxAgent whose
    // throughput model comes from the ResNet18 profile (m0 = 128
    // scaled: use the trainer's m0 = 32 against a custom agent).
    let profile = ModelKind::ResNet18Cifar10.profile();
    let stats = measured_stats(128, 300);

    // Build an agent with matching m0 = 32 limits.
    let limits = pollux::models::BatchSizeLimits::new(32, 8192, 1024).unwrap();
    let mut agent = PolluxAgent::new(32, 0.05, limits).unwrap();
    for (g, n) in [(1u32, 1u32), (2, 1), (4, 1), (8, 2)] {
        let shape = PlacementShape::new(g, n).unwrap();
        for m in [32u64, 64, 128, 512] {
            agent.observe_iteration(shape, m, profile.params.t_iter(shape, m));
        }
    }
    assert!(agent.refit());
    agent.observe_gradient_stats(stats);

    let shape = PlacementShape::new(8, 2).unwrap();
    let d = agent.tune(shape).expect("tunable");
    // The measured phi is well above m0 = 32, so the agent should ask
    // for a batch above m0, with a learning rate scaled above eta0 but
    // below linear scaling.
    assert!(d.batch_size > 32, "m* = {}", d.batch_size);
    assert!(d.learning_rate >= 0.05);
    let linear = 0.05 * d.batch_size as f64 / 32.0;
    assert!(d.learning_rate <= linear * (1.0 + 1e-9));
}

#[test]
fn efficiency_prediction_consistency_between_crates() {
    // pollux-models' EfficiencyModel and the trainer's internal
    // efficiency snapshot must agree on the same phi.
    let data = Dataset::linear_regression(2000, 6, 0.5, 11).unwrap().0;
    let mut t = AdaptiveTrainer::new(
        LinearModel::new(6),
        data,
        TrainerConfig {
            replicas: 4,
            batch_size: 64,
            m0: 32,
            eta0: 0.03,
            use_adascale: true,
            seed: 13,
        },
    )
    .unwrap();
    for _ in 0..200 {
        t.step();
    }
    let phi = t.phi().unwrap();
    let external = pollux::models::EfficiencyModel::from_noise_scale(32, phi).unwrap();
    let internal = t.efficiency_model();
    for m in [32u64, 64, 256, 2048] {
        assert!((external.efficiency(m) - internal.efficiency(m)).abs() < 1e-12);
    }
}
