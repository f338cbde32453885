//! The one experiment cell: `Cell → SimResult → Summary`.
//!
//! The paper's evaluation is one kind of run — a policy on a seeded
//! trace on the 16 × 4 testbed, averaged over several traces
//! (Sec. 5.3). A [`Cell`] is that run as plain data, [`run_cells`]
//! simulates a whole `(point × policy × trace)` grid of them on one
//! worker pool, and [`Summary::mean_of`] averages the traces of one
//! table cell. Table 2, Figs 7–9, Table 3, the
//! policy zoo and `pollux-sim` declare their cells and format the
//! summaries; experiments that bring their own cluster and trace
//! (Fig 10, the ablations) enter one level lower, at [`simulate`],
//! which holds the crate's only call into the simulator.

use crate::common::{experiment_pollux, experiment_sim, recorder, testbed_cluster};
use crate::zoo::{self, UnknownPolicy};
use pollux_cluster::ClusterSpec;
use pollux_core::{ConfigChoice, PolluxConfig};
use pollux_sched::parallel_map;
use pollux_simulator::{SchedulingPolicy, SimBuildError, SimConfig, SimResult};
use pollux_telemetry::Recorder;
use pollux_workload::{JobSpec, TraceConfig, TraceGenerator};

/// One simulation of the evaluation: a registered policy on a seeded
/// trace of the standard workload, on the paper's testbed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// Zoo registry name of the policy ([`zoo::lookup`]).
    pub policy: &'static str,
    /// Seed of the generated trace; each seed is one of the paper's
    /// "traces with the same distributions".
    pub trace_seed: u64,
    /// Seed of the simulator's measurement noise.
    pub sim_seed: u64,
    /// Jobs per trace before the load multiplier (the paper's 160).
    pub jobs: usize,
    /// Workload scale (1.0 = the paper's 160 jobs over 8 hours).
    pub load: f64,
    /// Per-job configuration source.
    pub choice: ConfigChoice,
    /// Slowdown injected on distributed jobs sharing a node, in [0, 1).
    pub interference: f64,
    /// What the `pollux` entry is built from (λ for Table 3, the
    /// avoidance constraint for Fig 9); the baselines ignore it.
    pub pollux: PolluxConfig,
}

impl Cell {
    /// `policy` on the `i`-th evaluation trace: tuned jobs at the
    /// paper's load, no interference, the default Pollux.
    pub fn evaluation(policy: &'static str, i: u64) -> Self {
        Self {
            policy,
            trace_seed: 0,
            sim_seed: 0,
            jobs: TraceConfig::default().num_jobs,
            load: 1.0,
            choice: ConfigChoice::Tuned,
            interference: 0.0,
            pollux: experiment_pollux(),
        }
        .at(policy, i)
    }

    /// This cell's workload and settings, under `policy` on the `i`-th
    /// evaluation trace (the seed pair every sweep uses).
    pub fn at(self, policy: &'static str, i: u64) -> Self {
        Self {
            policy,
            trace_seed: 1000 + i,
            sim_seed: i,
            ..self
        }
    }

    /// Generates the cell's trace.
    ///
    /// # Errors
    ///
    /// [`CellError::Workload`] when `jobs` / `load` describe no trace.
    pub fn trace(&self) -> Result<Vec<JobSpec>, CellError> {
        TraceGenerator::new(TraceConfig {
            num_jobs: self.jobs,
            load_multiplier: self.load,
            seed: self.trace_seed,
            ..Default::default()
        })
        .map(|generator| generator.generate())
        .ok_or(CellError::Workload {
            jobs: self.jobs,
            load: self.load,
        })
    }

    fn policy(&self) -> Result<Box<dyn SchedulingPolicy>, CellError> {
        let entry = zoo::lookup(self.policy)
            .ok_or_else(|| CellError::UnknownPolicy(UnknownPolicy(self.policy.into())))?;
        let policy = entry.build_with(&self.pollux);
        Ok(policy.ok_or(CellError::PolluxConfig)?.into_policy())
    }

    fn sim(&self) -> Result<SimConfig, CellError> {
        let mut sim = experiment_sim(self.sim_seed);
        sim.interference_slowdown = self.interference;
        sim.validated()
            .ok_or(CellError::Interference(self.interference))
    }
}

/// Why a cell could not be simulated. Cells reach the binaries from
/// flags, so this is user input: one line on stderr, exit 2.
#[derive(Debug, Clone, PartialEq)]
pub enum CellError {
    /// The policy name is not in the zoo registry.
    UnknownPolicy(UnknownPolicy),
    /// A run's policy list names this policy twice.
    RepeatedPolicy(&'static str),
    /// `jobs` / `load` describe no trace (zero, negative, NaN, ∞).
    Workload {
        /// Jobs per trace asked for.
        jobs: usize,
        /// Load multiplier asked for.
        load: f64,
    },
    /// The interference slowdown is outside [0, 1).
    Interference(f64),
    /// [`Cell::pollux`] is refused by `PolluxPolicy::new`.
    PolluxConfig,
    /// A table cell must average at least one trace.
    NoTraces,
    /// The simulator refused the inputs.
    Simulation(SimBuildError),
}

impl std::fmt::Display for CellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnknownPolicy(e) => e.fmt(f),
            Self::RepeatedPolicy(name) => write!(f, "policy {name:?} is named twice"),
            Self::Workload { jobs, load } => {
                write!(f, "no trace has {jobs} jobs at {load}x load")
            }
            Self::Interference(v) => write!(f, "interference {v} is outside [0, 1)"),
            Self::PolluxConfig => f.write_str("invalid Pollux configuration"),
            Self::NoTraces => f.write_str("a cell averages at least one trace"),
            Self::Simulation(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for CellError {}

/// One simulation on a cluster and trace the caller brings: the entry
/// below the grid, and the crate's only call into the simulator.
///
/// # Errors
///
/// [`CellError::Simulation`] when the simulator refuses the inputs.
pub fn simulate<P: SchedulingPolicy>(
    policy: P,
    trace: &[JobSpec],
    choice: ConfigChoice,
    cluster: ClusterSpec,
    sim: SimConfig,
    recorder: Recorder,
) -> Result<SimResult, CellError> {
    pollux_core::run_trace_recorded(policy, trace, choice, cluster, sim, recorder)
        .map_err(CellError::Simulation)
}

/// Simulates every cell and returns the results in cell order.
///
/// Each cell is an isolated simulation — its trace, policy and RNG
/// come from its own fields — so the whole grid runs on one
/// order-preserving worker pool and the results are those of a serial
/// loop at any worker count. `recorder` names the capture each cell's
/// telemetry goes to; cells sharing a recorder append into one capture.
///
/// # Errors
///
/// The first [`CellError`] in cell order. Every cell is checked before
/// any is simulated, so a refused grid has run nothing.
pub fn run_cells(
    cells: &[Cell],
    recorder: impl Fn(&Cell) -> Recorder + Sync,
) -> Result<Vec<SimResult>, CellError> {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    run_cells_on(workers, cells, recorder)
}

fn run_cells_on(
    workers: usize,
    cells: &[Cell],
    recorder: impl Fn(&Cell) -> Recorder + Sync,
) -> Result<Vec<SimResult>, CellError> {
    // A policy is not `Send`: each is checked here and built again on
    // the worker that runs it.
    let runs = cells
        .iter()
        .map(|cell| {
            cell.policy()?;
            Ok((cell, cell.trace()?, cell.sim()?))
        })
        .collect::<Result<Vec<_>, _>>()?;
    parallel_map(runs.into_iter(), workers, |(cell, trace, sim)| {
        simulate(
            cell.policy()?,
            &trace,
            cell.choice,
            testbed_cluster(),
            sim,
            recorder(cell),
        )
    })
    .into_iter()
    .collect()
}

/// Simulates a grid declared group-major — `traces` consecutive cells
/// per table cell — into the process capture, and averages each group.
///
/// # Errors
///
/// [`CellError::NoTraces`] for `traces == 0`, else as [`run_cells`].
pub fn run_averaged(cells: &[Cell], traces: u64) -> Result<Vec<Summary>, CellError> {
    if traces == 0 {
        return Err(CellError::NoTraces);
    }
    let results = run_cells(cells, |_| recorder())?;
    Ok(results
        .chunks(traces as usize)
        .map(Summary::mean_of)
        .collect())
}

/// One table cell: per-trace metrics averaged over the traces that
/// have them (a trace where no job finished has no JCT). Every column
/// Table 2, Table 3, Figs 7–9 and the zoo print.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    /// Mean of per-trace average JCTs (hours).
    pub avg_jct_hours: f64,
    /// Mean median JCT (hours).
    pub p50_jct_hours: f64,
    /// Mean 95th-percentile JCT (hours).
    pub p95_jct_hours: f64,
    /// Mean 99th-percentile JCT (hours).
    pub p99_jct_hours: f64,
    /// Mean queueing delay (hours).
    pub avg_wait_hours: f64,
    /// Mean 99th-percentile queueing delay (hours).
    pub p99_wait_hours: f64,
    /// Mean makespan (hours).
    pub makespan_hours: f64,
    /// Mean time-averaged cluster statistical efficiency.
    pub avg_efficiency: f64,
    /// Mean per-job lifetime throughput (examples/s).
    pub job_throughput: f64,
    /// Mean per-job lifetime goodput (useful examples/s).
    pub job_goodput: f64,
    /// Jobs unfinished at the horizon, summed over traces.
    pub unfinished: usize,
}

impl Summary {
    /// Averages per-trace results into one table cell (zeros for a
    /// metric no trace has).
    pub fn mean_of(results: &[SimResult]) -> Self {
        let mean = |f: &dyn Fn(&SimResult) -> Option<f64>| -> f64 {
            let vals: Vec<f64> = results.iter().filter_map(f).collect();
            crate::common::mean(&vals).unwrap_or(0.0)
        };
        let h = 1.0 / 3600.0;
        Self {
            avg_jct_hours: mean(&|r| r.avg_jct().map(|v| v * h)),
            p50_jct_hours: mean(&|r| r.percentile_jct(50.0).map(|v| v * h)),
            p95_jct_hours: mean(&|r| r.percentile_jct(95.0).map(|v| v * h)),
            p99_jct_hours: mean(&|r| r.percentile_jct(99.0).map(|v| v * h)),
            avg_wait_hours: mean(&|r| r.summary().avg_wait.map(|v| v * h)),
            p99_wait_hours: mean(&|r| r.summary().p99_wait.map(|v| v * h)),
            makespan_hours: mean(&|r| Some(r.makespan() * h)),
            avg_efficiency: mean(&|r| r.avg_cluster_efficiency()),
            job_throughput: mean(&|r| r.mean_job_throughput()),
            job_goodput: mean(&|r| r.mean_job_goodput()),
            unfinished: results.iter().map(|r| r.unfinished()).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-node-minute cell: `jobs` sets its cost.
    fn tiny(policy: &'static str, i: u64, jobs: usize) -> Cell {
        Cell {
            jobs,
            ..Cell::evaluation(policy, i)
        }
    }

    #[test]
    fn traces_differ_by_index_and_scale_with_load() {
        let a = Cell::evaluation("pollux", 0).trace().unwrap();
        let b = Cell::evaluation("pollux", 1).trace().unwrap();
        assert_ne!(a, b);
        assert_eq!(a.len(), 160);
        let half = Cell {
            load: 0.5,
            ..Cell::evaluation("pollux", 0)
        };
        assert_eq!(half.trace().unwrap().len(), 80);
    }

    #[test]
    fn the_grid_keeps_cell_order_at_any_worker_count() {
        // Cells of unequal cost, so completion order differs from cell
        // order whenever there is more than one worker.
        let cells: Vec<Cell> = [
            (6, "tiresias"),
            (1, "fifo+backfill"),
            (3, "srtf"),
            (2, "srsf"),
        ]
        .iter()
        .zip(0..)
        .map(|(&(jobs, policy), i)| tiny(policy, i, jobs))
        .collect();
        let digests = |workers| -> Vec<u64> {
            run_cells_on(workers, &cells, |_| Recorder::disabled())
                .unwrap()
                .iter()
                .map(SimResult::digest)
                .collect()
        };
        let serial = digests(1);
        for (cell, digest) in cells.iter().zip(&serial) {
            let alone = run_cells_on(1, &[*cell], |_| Recorder::disabled()).unwrap();
            assert_eq!(alone[0].digest(), *digest, "{cell:?}");
        }
        for workers in [2, 8] {
            assert_eq!(
                digests(workers),
                serial,
                "order broken at {workers} workers"
            );
        }
        assert!(run_cells_on(8, &[], |_| Recorder::disabled())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn a_bad_cell_refuses_the_whole_grid_before_simulating() {
        let good = tiny("tiresias", 0, 2);
        let refused = |bad: Cell| {
            let simulated = std::sync::atomic::AtomicUsize::new(0);
            let err = run_cells_on(2, &[good, bad], |_| {
                simulated.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                Recorder::disabled()
            })
            .unwrap_err();
            assert_eq!(simulated.into_inner(), 0, "{err}");
            assert_eq!(err.to_string().lines().count(), 1, "{err}");
            err
        };
        assert_eq!(
            refused(Cell {
                policy: "nope",
                ..good
            }),
            CellError::UnknownPolicy(UnknownPolicy("nope".into()))
        );
        for load in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = refused(Cell { load, ..good });
            assert!(matches!(err, CellError::Workload { jobs: 2, .. }), "{err}");
        }
        assert!(matches!(
            refused(Cell { jobs: 0, ..good }),
            CellError::Workload { jobs: 0, .. }
        ));
        for interference in [2.0, 1.0, -0.1, f64::NAN] {
            let err = refused(Cell {
                interference,
                ..good
            });
            assert!(matches!(err, CellError::Interference(_)), "{err}");
        }
        assert_eq!(run_averaged(&[good], 0).unwrap_err(), CellError::NoTraces);
    }

    #[test]
    fn summary_of_nothing_is_zeros() {
        assert_eq!(Summary::mean_of(&[]), Summary::default());
        assert_eq!(Summary::mean_of(&[SimResult::default()]).avg_jct_hours, 0.0);
    }
}
