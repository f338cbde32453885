//! One-call simulation drivers used by the examples and experiments.

use pollux_cluster::ClusterSpec;
use pollux_simulator::{SchedulingPolicy, SimBuildError, SimConfig, SimResult, Simulation};
use pollux_telemetry::Recorder;
use pollux_workload::JobSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which user configuration each job is submitted with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigChoice {
    /// Every job uses its idealized TunedJobs configuration (Sec. 5.2).
    Tuned,
    /// Every job uses its realistic trace-derived configuration
    /// (Sec. 5.3.1).
    Realistic,
    /// A random `fraction` of jobs are user-configured (realistic),
    /// the rest tuned — the Fig 7 sweep.
    Mixed {
        /// Fraction of realistic (user-configured) jobs in [0, 1].
        fraction: f64,
        /// Seed for the per-job choice.
        seed: u64,
    },
}

/// Runs one `trace` under `policy` on `spec`, selecting per-job user
/// configurations per `choice`.
///
/// # Errors
///
/// [`SimBuildError`] when the simulation inputs are invalid (empty
/// trace, bad config, non-finite submit time).
pub fn run_trace<P: SchedulingPolicy>(
    policy: P,
    trace: &[JobSpec],
    choice: ConfigChoice,
    spec: ClusterSpec,
    sim: SimConfig,
) -> Result<SimResult, SimBuildError> {
    run_trace_recorded(policy, trace, choice, spec, sim, Recorder::disabled())
}

/// [`run_trace`] with a telemetry recorder attached to the simulation
/// (and, through it, the policy and every job agent). Recording is
/// observational only: the returned `SimResult` is bit-identical to a
/// recorder-free run with the same inputs.
///
/// # Errors
///
/// [`SimBuildError`] when the simulation inputs are invalid.
pub fn run_trace_recorded<P: SchedulingPolicy>(
    policy: P,
    trace: &[JobSpec],
    choice: ConfigChoice,
    spec: ClusterSpec,
    sim: SimConfig,
    recorder: Recorder,
) -> Result<SimResult, SimBuildError> {
    let submissions = match choice {
        ConfigChoice::Tuned => trace.iter().map(|j| (j.clone(), j.tuned)).collect(),
        ConfigChoice::Realistic => trace.iter().map(|j| (j.clone(), j.realistic)).collect(),
        ConfigChoice::Mixed { fraction, seed } => {
            let mut rng = StdRng::seed_from_u64(seed);
            trace
                .iter()
                .map(|j| {
                    let user = if rng.gen_bool(fraction.clamp(0.0, 1.0)) {
                        j.realistic
                    } else {
                        j.tuned
                    };
                    (j.clone(), user)
                })
                .collect()
        }
    };
    Ok(Simulation::try_new(sim, spec, policy, submissions)?
        .with_recorder(recorder)
        .run())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pollux_workload::{TraceConfig, TraceGenerator};

    use crate::policy::{PolluxConfig, PolluxPolicy};
    use pollux_sched::GaConfig;

    fn tiny_trace() -> Vec<JobSpec> {
        TraceGenerator::new(TraceConfig {
            num_jobs: 6,
            duration_hours: 0.5,
            seed: 9,
            ..Default::default()
        })
        .unwrap()
        .generate()
        .into_iter()
        .filter(|j| {
            matches!(
                j.kind,
                pollux_workload::ModelKind::ResNet18Cifar10
                    | pollux_workload::ModelKind::NeuMFMovieLens
            )
        })
        .collect()
    }

    fn quick_pollux() -> PolluxPolicy {
        let mut c = PolluxConfig::default();
        c.sched.ga = GaConfig {
            population: 16,
            generations: 8,
            ..Default::default()
        };
        PolluxPolicy::new(c).unwrap()
    }

    #[test]
    fn pollux_end_to_end_completes_small_jobs() {
        let trace = tiny_trace();
        assert!(!trace.is_empty());
        let spec = ClusterSpec::homogeneous(4, 4).unwrap();
        let sim = SimConfig {
            max_sim_time: 10.0 * 3600.0,
            ..Default::default()
        };
        let res = run_trace(quick_pollux(), &trace, ConfigChoice::Tuned, spec, sim).unwrap();
        assert_eq!(res.policy, "pollux");
        assert_eq!(res.records.len(), trace.len());
        assert_eq!(res.unfinished(), 0, "unfinished jobs: {:#?}", res.records);
        // Pollux adapts batch sizes, so processed examples can greatly
        // exceed useful examples; sanity-check the ratio.
        let eff = res.avg_cluster_efficiency().unwrap();
        assert!(eff > 0.5 && eff <= 1.0, "cluster efficiency = {eff}");
    }

    #[test]
    fn mixed_choice_is_deterministic_per_seed() {
        let trace = tiny_trace();
        let spec = ClusterSpec::homogeneous(2, 4).unwrap();
        let sim = SimConfig {
            max_sim_time: 10.0 * 3600.0,
            ..Default::default()
        };
        let choice = ConfigChoice::Mixed {
            fraction: 0.5,
            seed: 7,
        };
        let a = run_trace(quick_pollux(), &trace, choice, spec.clone(), sim).unwrap();
        let b = run_trace(quick_pollux(), &trace, choice, spec, sim).unwrap();
        let jcts = |r: &SimResult| r.jcts();
        assert_eq!(jcts(&a), jcts(&b));
    }

    #[test]
    fn invalid_inputs_surface_typed_errors() {
        let spec = ClusterSpec::homogeneous(2, 4).unwrap();
        let err = run_trace(
            quick_pollux(),
            &[],
            ConfigChoice::Tuned,
            spec.clone(),
            SimConfig::default(),
        )
        .err();
        assert_eq!(err, Some(SimBuildError::EmptyWorkload));

        let bad = SimConfig {
            max_sim_time: 0.0,
            ..Default::default()
        };
        let err = run_trace(
            quick_pollux(),
            &tiny_trace(),
            ConfigChoice::Tuned,
            spec,
            bad,
        )
        .err();
        assert_eq!(err, Some(SimBuildError::InvalidConfig));
    }
}
