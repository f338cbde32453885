//! Cloud auto-scaling for one large training job: goodput-driven
//! (Pollux) vs throughput-driven (Or et al.) provisioning — the
//! paper's Fig 10 scenario at reduced scale.
//!
//! ```sh
//! cargo run --release --example autoscaling
//! ```

use pollux::experiments::fig10;

fn main() {
    // A quarter-size ImageNet job keeps the example fast; pass 1.0 in
    // fig10::run for the full-size experiment.
    let result = fig10::run(0.15);
    println!("{result}");

    println!();
    println!(
        "Pollux provisions few nodes while the gradient noise scale is low (large batches \
         would be statistically wasteful), then scales out as training progresses; the \
         throughput-based autoscaler jumps to a large flat cluster immediately and pays \
         for GPUs that contribute little statistical progress early on."
    );
}
