//! `TimedPolicy`: the one layer boundary the program's own telemetry
//! does not mark — the engine's call into `SchedulingPolicy::schedule`.
//!
//! The wrapper times every `schedule` call with its own clock (the
//! end-to-end round latency, measured with telemetry off), and the
//! stretch of engine work before it, so that a run splits into pieces
//! that add up to its wall time. While a live recorder is attached it
//! also brackets the call with a `bench/policy_schedule` span on the
//! recorder's clock, so the span nests between `engine/reschedule` and
//! the `sched/*` spans of the capture. Every other trait method
//! forwards unchanged: a missed forward would silently turn Pollux
//! into a non-adaptive baseline.

use pollux_cluster::{AllocationMatrix, ClusterSpec, Topology};
use pollux_control::{PlacementDelta, PolicyJobView, SchedIntervalSample, SchedulingPolicy};
use pollux_telemetry::{Recorder, RoundExplain};
use rand::rngs::StdRng;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// What the wrapper saw, shared with the harness (the simulation
/// consumes the policy, so the log outlives it through the `Rc`).
#[derive(Debug)]
pub struct RoundLog {
    /// When the latest `schedule` call returned; before the first,
    /// when the wrapper was made (the harness starts the run there).
    pub last_exit: Instant,
    /// Wall time from `last_exit` to each `schedule` call, in call
    /// order (ns): the engine's work.
    pub between_ns: Vec<u64>,
    /// Wall time of each `schedule` call, in call order (ns).
    pub schedule_ns: Vec<u64>,
    /// Rounds whose returned matrix was infeasible for the cluster.
    /// Checked only while a live recorder is attached, after the timed
    /// region, so timed repetitions never pay for it.
    pub infeasible_rounds: u64,
}

/// Forwarding wrapper around any policy; see the module docs.
pub struct TimedPolicy {
    inner: Box<dyn SchedulingPolicy>,
    recorder: Recorder,
    log: Rc<RefCell<RoundLog>>,
}

impl TimedPolicy {
    /// Wraps `inner`; the returned handle reads the log after the run.
    pub fn new(inner: Box<dyn SchedulingPolicy>) -> (Self, Rc<RefCell<RoundLog>>) {
        let log = Rc::new(RefCell::new(RoundLog {
            last_exit: Instant::now(),
            between_ns: Vec::new(),
            schedule_ns: Vec::new(),
            infeasible_rounds: 0,
        }));
        let policy = Self {
            inner,
            recorder: Recorder::disabled(),
            log: Rc::clone(&log),
        };
        (policy, log)
    }
}

impl SchedulingPolicy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn adapts_batch_size(&self) -> bool {
        self.inner.adapts_batch_size()
    }

    fn schedule(
        &mut self,
        now: f64,
        jobs: &[PolicyJobView<'_>],
        spec: &ClusterSpec,
        rng: &mut StdRng,
    ) -> AllocationMatrix {
        let span = self.recorder.span("bench", "policy_schedule");
        let entered = Instant::now();
        let matrix = self.inner.schedule(now, jobs, spec, rng);
        let exited = Instant::now();
        drop(span);
        let mut log = self.log.borrow_mut();
        let between = entered.duration_since(log.last_exit);
        log.between_ns.push(between.as_nanos() as u64);
        log.schedule_ns
            .push(exited.duration_since(entered).as_nanos() as u64);
        log.last_exit = exited;
        if self.recorder.is_enabled() && !matrix.is_feasible(spec) {
            log.infeasible_rounds += 1;
        }
        matrix
    }

    fn schedule_sparse(
        &mut self,
        now: f64,
        jobs: &[PolicyJobView<'_>],
        spec: &ClusterSpec,
        rng: &mut StdRng,
    ) -> Option<Vec<PlacementDelta>> {
        self.inner.schedule_sparse(now, jobs, spec, rng)
    }

    fn desired_nodes(
        &mut self,
        now: f64,
        jobs: &[PolicyJobView<'_>],
        spec: &ClusterSpec,
        rng: &mut StdRng,
    ) -> Option<u32> {
        self.inner.desired_nodes(now, jobs, spec, rng)
    }

    fn choose_batch_size(&self, job: &PolicyJobView<'_>) -> Option<u64> {
        self.inner.choose_batch_size(job)
    }

    fn configure_parallelism(&mut self, threads: usize) {
        self.inner.configure_parallelism(threads)
    }

    fn configure_topology(&mut self, topology: Option<&Topology>) {
        self.inner.configure_topology(topology)
    }

    fn take_interval_stats(&mut self) -> Option<SchedIntervalSample> {
        self.inner.take_interval_stats()
    }

    fn attach_telemetry(&mut self, recorder: Recorder) {
        self.recorder = recorder.clone();
        self.inner.attach_telemetry(recorder)
    }

    fn take_round_explain(&mut self) -> Option<RoundExplain> {
        self.inner.take_round_explain()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pollux_cluster::ClusterSpec;
    use pollux_core::{run_trace, ConfigChoice, PolluxConfig, PolluxPolicy};
    use pollux_experiments::zoo;
    use pollux_sched::GaConfig;
    use pollux_simulator::SimConfig;
    use pollux_workload::{TraceConfig, TraceGenerator};

    fn policy(name: &str) -> Box<dyn SchedulingPolicy> {
        if name == "pollux" {
            let mut config = PolluxConfig::default();
            config.sched.ga = GaConfig {
                population: 12,
                generations: 6,
                ..Default::default()
            };
            Box::new(PolluxPolicy::new(config).unwrap())
        } else {
            zoo::lookup(name).unwrap().build().into_policy()
        }
    }

    fn digest(policy: impl SchedulingPolicy) -> u64 {
        let trace = TraceGenerator::new(TraceConfig {
            num_jobs: 12,
            duration_hours: 1.0,
            seed: 5,
            ..Default::default()
        })
        .unwrap()
        .generate();
        let sim = SimConfig {
            max_sim_time: 6.0 * 3600.0,
            // Racks, so a dropped `configure_topology` would show too.
            nodes_per_rack: 2,
            seed: 5,
            ..Default::default()
        };
        let spec = ClusterSpec::homogeneous(4, 4).unwrap();
        let result = run_trace(policy, &trace, ConfigChoice::Tuned, spec, sim).unwrap();
        crate::stats::fnv1a64(serde_json::to_string(&result).unwrap().as_bytes())
    }

    /// A wrapper that forgot to forward, say, `adapts_batch_size`
    /// would silently turn Pollux into a non-adaptive baseline; the
    /// result digest catches any missed forward that matters.
    #[test]
    fn wrapping_changes_no_result_bit() {
        for name in ["pollux", "tiresias"] {
            let (wrapped, log) = TimedPolicy::new(policy(name));
            assert_eq!(digest(wrapped), digest(policy(name)), "{name}");
            let log = log.borrow();
            assert!(!log.schedule_ns.is_empty(), "{name} never scheduled");
            assert_eq!(log.infeasible_rounds, 0);
        }
    }
}
