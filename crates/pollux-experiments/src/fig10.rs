//! Fig 10: goodput-based vs throughput-based cloud auto-scaling for a
//! single large ImageNet training job (Sec. 5.3.3).
//!
//! Pollux provisions few nodes early (large batches are statistically
//! wasteful while the gradient noise scale is low) and grows the
//! cluster as training progresses; Or et al.'s throughput-based
//! autoscaler jumps to a large, flat cluster immediately. The paper
//! reports Pollux trains ImageNet ~25 % cheaper at ~6 % longer
//! completion time.

use crate::cell::simulate;
use crate::common::{recorder, render_table};
use pollux_cluster::{ClusterSpec, JobId};
use pollux_control::baselines::or_etal;
use pollux_core::{ConfigChoice, PolluxConfig, PolluxPolicy};
use pollux_sched::{AutoscaleConfig, GaConfig};
use pollux_simulator::{SimConfig, SimResult};
use pollux_workload::{JobSpec, ModelKind, UserConfig};

/// The node budget of both autoscalers.
const MAX_NODES: u32 = 16;

/// One time-series sample.
#[derive(Debug, Clone, Copy)]
pub struct ScalePoint {
    /// Simulation time (s).
    pub time: f64,
    /// Cluster size (nodes).
    pub nodes: u32,
    /// Statistical efficiency of the running job.
    pub efficiency: f64,
}

/// One autoscaler's outcome.
#[derive(Debug, Clone)]
pub struct AutoscaleOutcome {
    /// Policy name.
    pub policy: String,
    /// Job completion time (s), or `None` if it hit the horizon.
    pub completion_seconds: Option<f64>,
    /// Cost proxy: integral of cluster size (node-seconds).
    pub node_seconds: f64,
    /// Time-averaged statistical efficiency.
    pub avg_efficiency: f64,
    /// Downsampled (time, nodes, efficiency) series.
    pub series: Vec<ScalePoint>,
}

/// The full Fig 10 comparison.
#[derive(Debug, Clone)]
pub struct Fig10Result {
    /// Goodput-based (Pollux) outcome.
    pub pollux: AutoscaleOutcome,
    /// Throughput-based (Or et al.) outcome.
    pub or_etal: AutoscaleOutcome,
}

impl Fig10Result {
    /// Cost saving of Pollux relative to Or et al. (positive = Pollux
    /// cheaper).
    pub fn cost_saving(&self) -> f64 {
        1.0 - self.pollux.node_seconds / self.or_etal.node_seconds.max(1e-9)
    }

    /// Relative completion-time overhead of Pollux (positive =
    /// slower).
    pub fn time_overhead(&self) -> Option<f64> {
        let a = self.pollux.completion_seconds?;
        let b = self.or_etal.completion_seconds?;
        Some(a / b - 1.0)
    }
}

/// The single-job ImageNet workload.
fn imagenet_job(work_scale: f64) -> JobSpec {
    let profile = ModelKind::ResNet50ImageNet.profile();
    JobSpec {
        id: JobId(0),
        kind: ModelKind::ResNet50ImageNet,
        submit_time: 0.0,
        work: profile.total_work * work_scale,
        tuned: UserConfig {
            gpus: 4,
            batch_size: profile.m0,
        },
        realistic: UserConfig {
            gpus: 4,
            batch_size: profile.m0,
        },
    }
}

fn extract(res: SimResult) -> AutoscaleOutcome {
    let completion = res.records.first().and_then(|r| r.finish_time);
    let samples = res.series.len();
    let stride = (samples / 60).max(1);
    let series = res
        .series
        .iter()
        .step_by(stride)
        .map(|s| ScalePoint {
            time: s.time,
            nodes: s.nodes,
            efficiency: s.mean_efficiency,
        })
        .collect();
    AutoscaleOutcome {
        policy: res.policy.clone(),
        completion_seconds: completion,
        node_seconds: res.node_seconds,
        avg_efficiency: res.avg_cluster_efficiency().unwrap_or(0.0),
        series,
    }
}

/// Runs the comparison. `work_scale` shrinks the ImageNet job for
/// faster experimentation (1.0 = the full ~130 M effective examples).
pub fn run(work_scale: f64) -> Fig10Result {
    let job = imagenet_job(work_scale);
    let sim = SimConfig {
        max_sim_time: 48.0 * 3600.0,
        seed: 42,
        ..Default::default()
    };
    // Both start from a single 4-GPU node; autoscaling takes it from
    // there.
    let start = ClusterSpec::homogeneous(1, 4).expect("static");

    let pollux = {
        let mut cfg = PolluxConfig::default();
        cfg.sched.ga = GaConfig {
            population: 30,
            generations: 15,
            ..Default::default()
        };
        cfg.autoscale = Some(AutoscaleConfig {
            max_nodes: MAX_NODES,
            ga: GaConfig {
                population: 20,
                generations: 10,
                ..Default::default()
            },
        });
        let policy = PolluxPolicy::new(cfg).expect("valid config");
        extract(
            simulate(
                policy,
                std::slice::from_ref(&job),
                ConfigChoice::Tuned,
                start.clone(),
                sim,
                recorder(),
            )
            .expect("valid inputs"),
        )
    };

    let or_etal = {
        let policy = or_etal(MAX_NODES);
        extract(
            simulate(
                policy,
                std::slice::from_ref(&job),
                ConfigChoice::Tuned,
                start,
                sim,
                recorder(),
            )
            .expect("valid inputs"),
        )
    };

    Fig10Result { pollux, or_etal }
}

impl std::fmt::Display for Fig10Result {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Fig 10: auto-scaling ImageNet — goodput (Pollux) vs throughput (Or et al.)"
        )?;
        let fmt_one = |o: &AutoscaleOutcome| {
            vec![
                o.policy.clone(),
                o.completion_seconds
                    .map(|s| format!("{:.2}h", s / 3600.0))
                    .unwrap_or_else(|| "horizon".into()),
                format!("{:.0}", o.node_seconds / 3600.0),
                format!("{:.1}%", o.avg_efficiency * 100.0),
            ]
        };
        let rows = vec![fmt_one(&self.pollux), fmt_one(&self.or_etal)];
        write!(
            f,
            "{}",
            render_table(
                &["policy", "completion", "node-hours", "avg stat. eff."],
                &rows
            )
        )?;
        writeln!(
            f,
            "\ncost saving: {:.0}%   time overhead: {}",
            self.cost_saving() * 100.0,
            self.time_overhead()
                .map(|t| format!("{:.0}%", t * 100.0))
                .unwrap_or_else(|| "n/a".into())
        )?;
        let nodes_series = |o: &AutoscaleOutcome| -> Vec<(f64, f64)> {
            o.series
                .iter()
                .map(|p| (p.time / 3600.0, p.nodes as f64))
                .collect()
        };
        let eff_series = |o: &AutoscaleOutcome| -> Vec<(f64, f64)> {
            o.series
                .iter()
                .map(|p| (p.time / 3600.0, p.efficiency))
                .collect()
        };
        let pn = nodes_series(&self.pollux);
        let on = nodes_series(&self.or_etal);
        writeln!(
            f,
            "\n{}",
            crate::common::render_chart(
                "Fig 10a: nodes over time (hours)",
                &[("pollux", &pn), ("or-etal", &on)],
                60,
                12,
            )
        )?;
        let pe = eff_series(&self.pollux);
        let oe = eff_series(&self.or_etal);
        write!(
            f,
            "{}",
            crate::common::render_chart(
                "Fig 10b: statistical efficiency over time (hours)",
                &[("pollux", &pe), ("or-etal", &oe)],
                60,
                12,
            )
        )
    }
}
