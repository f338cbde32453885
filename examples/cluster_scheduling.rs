//! Compare Pollux against the baseline schedulers (Tiresias,
//! Optimus+Oracle) on the same workload — a small-scale version of the
//! paper's Table 2.
//!
//! ```sh
//! cargo run --release --example cluster_scheduling
//! ```

use pollux::cluster::ClusterSpec;
use pollux::control::baselines::{optimus, tiresias};
use pollux::core::{run_trace, ConfigChoice, PolluxConfig, PolluxPolicy};
use pollux::sched::GaConfig;
use pollux::simulator::{SchedulingPolicy, SimConfig, SimResult};
use pollux::workload::{JobSpec, TraceConfig, TraceGenerator};

fn workload() -> Vec<JobSpec> {
    TraceGenerator::new(TraceConfig {
        num_jobs: 60,
        duration_hours: 4.0,
        seed: 11,
        ..Default::default()
    })
    .expect("valid trace config")
    .generate()
}

fn simulate(policy: Box<dyn SchedulingPolicy>, trace: &[JobSpec]) -> SimResult {
    let cluster = ClusterSpec::homogeneous(8, 4).expect("valid cluster");
    let sim = SimConfig {
        max_sim_time: 48.0 * 3600.0,
        seed: 11,
        ..Default::default()
    };
    run_trace(policy, trace, ConfigChoice::Tuned, cluster, sim).expect("valid inputs")
}

fn main() {
    let trace = workload();
    println!(
        "workload: {} jobs over 4 h on 8 nodes x 4 GPUs (ideally tuned configs)\n",
        trace.len()
    );

    let mut pollux_cfg = PolluxConfig::default();
    pollux_cfg.sched.ga = GaConfig {
        population: 32,
        generations: 15,
        ..Default::default()
    };
    let policies: Vec<Box<dyn SchedulingPolicy>> = vec![
        Box::new(PolluxPolicy::new(pollux_cfg).expect("valid config")),
        Box::new(optimus()),
        Box::new(tiresias()),
    ];

    println!(
        "{:<16} {:>12} {:>12} {:>12} {:>10} {:>11}",
        "policy", "avg JCT (h)", "p99 JCT (h)", "makespan (h)", "eff (%)", "unfinished"
    );
    let mut rows = Vec::new();
    for policy in policies {
        let name = policy.name();
        let res = simulate(policy, &trace);
        println!(
            "{:<16} {:>12.2} {:>12.2} {:>12.2} {:>10.1} {:>11}",
            name,
            res.avg_jct().unwrap_or(0.0) / 3600.0,
            res.percentile_jct(99.0).unwrap_or(0.0) / 3600.0,
            res.makespan() / 3600.0,
            res.avg_cluster_efficiency().unwrap_or(0.0) * 100.0,
            res.unfinished(),
        );
        rows.push((name, res.avg_jct().unwrap_or(f64::INFINITY)));
    }

    if let Some(pollux) = rows.iter().find(|(n, _)| *n == "pollux") {
        println!();
        for (name, jct) in &rows {
            if name != &"pollux" && jct.is_finite() && *jct > 0.0 {
                println!(
                    "Pollux reduces average JCT by {:.0}% vs {}",
                    (1.0 - pollux.1 / jct) * 100.0,
                    name
                );
            }
        }
    }
}
