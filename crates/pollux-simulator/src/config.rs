//! Simulation parameters.

/// Simulation tick in seconds: the engine's time resolution.
pub const TICK_SECONDS: f64 = 1.0;
/// Scheduling interval in seconds (Sec. 5.1: PolluxSched re-optimizes
/// every 60 s).
pub const SCHED_INTERVAL: f64 = 60.0;
/// Agent reporting/refit interval in seconds (Sec. 4.3: agents report
/// every 30 s).
pub const REPORT_INTERVAL: f64 = 30.0;
/// Relative (uniform ±) noise on the measured gradient noise scale.
pub const PHI_NOISE: f64 = 0.10;

/// Global simulation parameters, defaulting to the paper's setup
/// (Sec. 5.1 / 5.3). The cadences and the φ noise are the constants
/// above.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Checkpoint-restart delay injected on re-allocation (30 s).
    pub restart_delay: f64,
    /// Fractional slowdown applied to distributed jobs sharing a node
    /// (0.0 = none, 0.5 = Fig 9's worst case).
    pub interference_slowdown: f64,
    /// Relative (uniform ±) measurement noise on iteration times.
    pub measurement_noise: f64,
    /// Hard stop for the simulation clock (seconds).
    pub max_sim_time: f64,
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
            restart_delay: 30.0,
            interference_slowdown: 0.0,
            measurement_noise: 0.05,
            max_sim_time: 7.0 * 24.0 * 3600.0,
            nodes_per_rack: 0,
            seed: 0,
        }
    }
}

impl SimConfig {
    /// Validates parameter sanity. Returns `None` for a negative or
    /// non-finite restart delay, out-of-range noise/slowdown fractions,
    /// or a non-positive or non-finite horizon. (Finiteness matters:
    /// the engine computes event horizons as tick indices from these
    /// times, and a NaN/∞ time has no meaningful tick.)
    pub fn validated(self) -> Option<Self> {
        let ok = self.restart_delay >= 0.0
            && self.restart_delay.is_finite()
            && (0.0..1.0).contains(&self.interference_slowdown)
            && (0.0..1.0).contains(&self.measurement_noise)
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
        ];
        for c in cases {
            assert!(c.validated().is_none(), "accepted {c:?}");
        }
    }
}
