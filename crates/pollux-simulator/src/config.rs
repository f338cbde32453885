//! Simulation parameters.

/// Global simulation parameters, defaulting to the paper's setup
/// (Sec. 5.1 / 5.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Simulation tick in seconds.
    pub tick_seconds: f64,
    /// Scheduling interval in seconds (the paper uses 60 s).
    pub sched_interval: f64,
    /// Agent reporting/refit interval in seconds (the paper uses 30 s).
    pub report_interval: f64,
    /// Checkpoint-restart delay injected on re-allocation (30 s).
    pub restart_delay: f64,
    /// Fractional slowdown applied to distributed jobs sharing a node
    /// (0.0 = none, 0.5 = Fig 9's worst case).
    pub interference_slowdown: f64,
    /// Relative (uniform ±) measurement noise on iteration times.
    pub measurement_noise: f64,
    /// Relative (uniform ±) noise on the measured gradient noise scale.
    pub phi_noise: f64,
    /// Hard stop for the simulation clock (seconds).
    pub max_sim_time: f64,
    /// Record per-job `(time, gpus, batch, progress)` samples at every
    /// scheduling interval (off by default; adds memory proportional
    /// to jobs × intervals).
    pub record_job_series: bool,
    /// Rack width handed to the policy at simulation start (and again
    /// after every resize) via `SchedulingPolicy::configure_topology`:
    /// nodes `[0, n)`, `[n, 2n)`, … form racks (the last may be
    /// smaller). `0` (the default) keeps the cluster flat — no
    /// topology is configured and results are byte-identical to
    /// builds that predate the knob. Any value ≥ the node count yields
    /// a single rack, which rack-aware policies must treat exactly
    /// like the flat search.
    pub nodes_per_rack: u32,
    /// RNG seed for measurement noise and policy randomness.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            tick_seconds: 1.0,
            sched_interval: 60.0,
            report_interval: 30.0,
            restart_delay: 30.0,
            interference_slowdown: 0.0,
            measurement_noise: 0.05,
            phi_noise: 0.10,
            max_sim_time: 7.0 * 24.0 * 3600.0,
            record_job_series: false,
            nodes_per_rack: 0,
            seed: 0,
        }
    }
}

impl SimConfig {
    /// Validates parameter sanity. Returns `None` for non-finite or
    /// non-positive intervals or out-of-range noise/slowdown
    /// fractions. (Finiteness matters: the engine computes event
    /// horizons as tick indices from these times, and a NaN/∞ interval
    /// has no meaningful tick.)
    pub fn validated(self) -> Option<Self> {
        let ok = self.tick_seconds > 0.0
            && self.tick_seconds.is_finite()
            && self.sched_interval >= self.tick_seconds
            && self.sched_interval.is_finite()
            && self.report_interval >= self.tick_seconds
            && self.report_interval.is_finite()
            && self.restart_delay >= 0.0
            && self.restart_delay.is_finite()
            && (0.0..1.0).contains(&self.interference_slowdown)
            && (0.0..1.0).contains(&self.measurement_noise)
            && (0.0..1.0).contains(&self.phi_noise)
            && self.max_sim_time > 0.0
            && self.max_sim_time.is_finite();
        if ok {
            Some(self)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(SimConfig::default().validated().is_some());
    }

    #[test]
    fn rejects_bad_parameters() {
        let cases = [
            SimConfig {
                tick_seconds: 0.0,
                ..Default::default()
            },
            SimConfig {
                sched_interval: 0.5,
                ..Default::default()
            },
            SimConfig {
                interference_slowdown: 1.0,
                ..Default::default()
            },
            SimConfig {
                measurement_noise: -0.1,
                ..Default::default()
            },
            SimConfig {
                max_sim_time: f64::INFINITY,
                ..Default::default()
            },
            SimConfig {
                restart_delay: f64::NAN,
                ..Default::default()
            },
            SimConfig {
                sched_interval: f64::INFINITY,
                ..Default::default()
            },
        ];
        for c in cases {
            assert!(c.validated().is_none(), "accepted {c:?}");
        }
    }
}
