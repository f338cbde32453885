//! Job-level adaptation on real gradients: measure the gradient noise
//! scale while training, scale the learning rate with AdaScale, and
//! check Eqn 7's efficiency prediction against reality.
//!
//! Statistical efficiency is an *instantaneous* quantity — φ_t changes
//! over training — so the comparison follows the paper's Fig 2b
//! methodology: train to a fixed checkpoint, measure φ̂ there, then
//! descend a fixed loss interval from that same checkpoint at every
//! batch size and compare examples consumed.
//!
//! ```sh
//! cargo run --release --example adaptive_training
//! ```

use pollux::models::EfficiencyModel;
use pollux::trainer::{AdaptiveTrainer, Dataset, LinearModel, TrainerConfig};

fn main() {
    let m0 = 32u64;
    let checkpoint_loss = 0.5;
    let target_loss = 0.3;

    // 1. Train the reference model to the checkpoint at m0.
    let data = Dataset::linear_regression(4000, 8, 0.5, 99)
        .expect("valid dataset parameters")
        .0;
    let mut reference = AdaptiveTrainer::new(
        LinearModel::new(8),
        data,
        TrainerConfig {
            replicas: 4,
            batch_size: m0,
            m0,
            eta0: 0.04,
            use_adascale: true,
            seed: 1,
        },
    )
    .expect("valid trainer config");
    reference
        .train_until_loss(checkpoint_loss, 400_000, 5)
        .expect("checkpoint reachable");
    println!(
        "checkpoint: loss {checkpoint_loss} after {} steps ({} examples)",
        reference.steps(),
        reference.total_examples()
    );

    // 2. Measure the gradient noise scale at the frozen checkpoint.
    let phi = {
        let mut probe = reference.clone();
        probe
            .measure_phi_static(400, 128)
            .expect("estimates available")
            .max(0.0)
    };
    println!("measured gradient noise scale at checkpoint: φ ≈ {phi:.1} examples");
    let eff_model = EfficiencyModel::from_noise_scale(m0, phi).expect("phi >= 0");

    // 3. Descend checkpoint → target at each batch size with AdaScale.
    let examples_to_target = |m: u64| -> Option<(u64, f64)> {
        let mut t = reference.clone();
        assert!(t.set_batch_size(m), "batch below replica count");
        let before = t.total_examples();
        let (_, ex) = t.train_until_loss(target_loss, 400_000, 5)?;
        let last = t.step();
        Some((ex - before, last.lr))
    };
    let (base_examples, _) = examples_to_target(m0).expect("m0 descent converges");
    println!("reference descent ({checkpoint_loss} → {target_loss}): {base_examples} examples\n");

    println!(
        "{:<8} {:>10} {:>12} {:>10} {:>10}",
        "batch", "predicted", "examples", "actual", "lr"
    );
    for batch in [64u64, 128, 256, 512] {
        match examples_to_target(batch) {
            Some((ex, lr)) => {
                let actual = base_examples as f64 / ex as f64;
                let predicted = eff_model.efficiency(batch);
                println!(
                    "{:<8} {:>10.3} {:>12} {:>10.3} {:>10.4}",
                    batch, predicted, ex, actual, lr
                );
            }
            None => println!("{batch:<8} did not converge in budget"),
        }
    }
    println!(
        "\nEqn 7: EFFICIENCY(m) = (φ + m0) / (φ + m); AdaScale sets η = r_t·η0, so one \
         batch-m step makes r_t iterations' worth of progress."
    );
}
