//! The three workloads: what each one builds from the seed (set-up) and
//! what one repetition runs.
//!
//! Every repetition of a workload does identical work for a fixed
//! seed, so its result digest must repeat exactly — with telemetry on
//! or off — and round `i` of one repetition is the same computation
//! as round `i` of the next.
//!
//! Sizes: cluster and job counts are the ones the issue names; the
//! simulated horizons and the `sched_rounds` round count are cut so
//! that one repetition takes 2–4 s on a 2-vCPU shared host and ten
//! or more fit in one run.

use crate::stats::Fnv1a64;
use crate::timed_policy::TimedPolicy;
use pollux_cluster::{ClusterSpec, Topology};
use pollux_control::{bootstrap_sched_job, SchedulingPolicy};
use pollux_core::{run_trace_recorded, ConfigChoice, PolluxConfig, PolluxPolicy};
use pollux_experiments::zoo;
use pollux_sched::{GaConfig, PolluxSched, SchedConfig, SchedJob};
use pollux_simulator::{SimConfig, SimResult};
use pollux_telemetry::Recorder;
use pollux_workload::{JobSpec, TraceConfig, TraceGenerator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// GPUs per node on every cluster of the benchmark.
const GPUS_PER_NODE: u32 = 4;
/// Nodes per rack of `sched_rounds`.
const NODES_PER_RACK: u32 = 16;

/// `sched_rounds`: standing jobs, cluster width, warm rounds after the
/// cold one, and jobs replaced by fresh arrivals after every round.
const SCHED_JOBS: usize = 10_000;
const SCHED_NODES: u32 = 1_024;
const SCHED_WARM_ROUNDS: usize = 12;
const SCHED_CHURN: usize = 100;

/// Traces a repetition of a simulated workload replays, one after
/// another. A 160-job trace is a small sample: how many heavy jobs its
/// first hours hold moves a repetition's cost by a tenth either way from
/// seed to seed, and two traces drawn from the seed move it less.
const TRACES_PER_REP: u64 = 2;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperTrace,
    DcTiresias,
    SchedRounds,
}

impl Workload {
    /// Every workload, in the order the suite runs them.
    pub const ALL: [Workload; 3] = [
        Workload::PaperTrace,
        Workload::DcTiresias,
        Workload::SchedRounds,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperTrace => "paper_trace",
            Workload::DcTiresias => "dc_tiresias",
            Workload::SchedRounds => "sched_rounds",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What one repetition runs, for the printed report.
    pub fn sizes(self) -> &'static str {
        match self {
            Workload::PaperTrace => {
                "2 traces of 160 jobs / 8 h window, 16 nodes x 4 GPUs, PolluxPolicy GA 40x20, tuned configs, horizon 4 h"
            }
            Workload::DcTiresias => {
                "2 traces of 5000 jobs / 24 h window (max 8 GPUs), 256 nodes x 4 GPUs, zoo policy tiresias, interference 0.1, horizon 8 h"
            }
            Workload::SchedRounds => {
                "10000 standing bootstrap jobs, 1024 nodes x 4 GPUs, 16-node racks, PolluxSched GA 12x8 early-stop 2, 1 cold + 12 warm rounds, 100 jobs replaced per round"
            }
        }
    }
}

/// Scheduling outcome of one repetition. Exact for a fixed seed, so
/// two commits compare exactly; a field a workload has no notion of
/// is 0.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Quality {
    /// Mean completion time of the jobs finished by the horizon (h).
    pub avg_jct_h: f64,
    /// Jobs finished by the horizon.
    pub finished_jobs: f64,
    /// Jobs submitted but not finished by the horizon.
    pub unfinished_jobs: f64,
    /// Jobs submitted but never started by the horizon.
    pub never_started_jobs: f64,
    /// `sched_rounds`: mean over the rounds of the best fitness.
    pub mean_utility: f64,
}

/// What one repetition measured.
#[derive(Debug, Clone)]
pub struct Rep {
    /// The repetition's wall time (the `run_trace_recorded` calls, or
    /// the `optimize` calls) in consecutive pieces: the engine's work up
    /// to a round, the round, ..., the work after the last round. The
    /// pieces are the same computations in every repetition.
    pub pieces_ns: Vec<u64>,
    /// Wall time of each scheduling round, in order: every
    /// `SchedulingPolicy::schedule` call as the engine sees it, or
    /// every warm `optimize` call.
    pub round_ns: Vec<u64>,
    /// `sched_rounds`: the first (cold) `optimize` call.
    pub cold_round_ns: u64,
    /// FNV-1a64 of the result.
    pub digest: u64,
    /// Operations attempted: jobs simulated, or rounds optimized.
    pub ops: u64,
    /// Rounds whose matrix was infeasible (checked while tracing).
    pub infeasible_rounds: u64,
    pub quality: Quality,
}

/// The inputs of a workload, built once from the seed.
pub enum Inputs {
    Sim(SimInputs),
    Sched(SchedInputs),
}

/// Inputs of the three simulated workloads: one or more independent
/// traces, replayed one after another on clusters of their own.
pub struct SimInputs {
    workload: Workload,
    /// Each trace with its simulation config (the seeds differ).
    traces: Vec<(Vec<JobSpec>, SimConfig)>,
    spec: ClusterSpec,
}

/// Inputs of `sched_rounds`.
pub struct SchedInputs {
    standing: Vec<SchedJob>,
    /// Fresh jobs, `SCHED_CHURN` of which replace standing ones after
    /// every round.
    arrivals: Vec<SchedJob>,
    spec: ClusterSpec,
    topology: Topology,
    seed: u64,
}

fn trace(config: TraceConfig) -> Vec<JobSpec> {
    TraceGenerator::new(config)
        .expect("static trace sizes are valid")
        .generate()
}

/// `PolluxPolicy` with the GA of `pollux-sim`: 40 members, 20 generations.
fn pollux() -> Box<dyn SchedulingPolicy> {
    let mut config = PolluxConfig::default();
    config.sched.ga = GaConfig {
        population: 40,
        generations: 20,
        ..Default::default()
    };
    Box::new(PolluxPolicy::new(config).expect("no autoscaler configured"))
}

impl Rep {
    /// The repetition's wall time, ns.
    pub fn wall_ns(&self) -> u64 {
        self.pieces_ns.iter().sum()
    }
}

impl Inputs {
    /// Set-up: everything a repetition needs that depends only on the
    /// seed. This is what `setup_s` times.
    pub fn build(workload: Workload, seed: u64) -> Self {
        let (nodes, trace_config, sim) = match workload {
            Workload::PaperTrace => (
                16,
                TraceConfig::default(),
                SimConfig {
                    max_sim_time: 4.0 * 3600.0,
                    ..Default::default()
                },
            ),
            Workload::DcTiresias => (
                256,
                TraceConfig {
                    num_jobs: 5_000,
                    duration_hours: 24.0,
                    max_gpus: 2 * GPUS_PER_NODE,
                    ..Default::default()
                },
                SimConfig {
                    max_sim_time: 8.0 * 3600.0,
                    interference_slowdown: 0.1,
                    ..Default::default()
                },
            ),
            Workload::SchedRounds => return Inputs::Sched(SchedInputs::build(seed)),
        };
        let traces = (0..TRACES_PER_REP)
            .map(|i| {
                // No two runs share a trace.
                let seed = seed.wrapping_mul(TRACES_PER_REP).wrapping_add(i);
                (
                    trace(TraceConfig {
                        seed,
                        ..trace_config
                    }),
                    SimConfig { seed, ..sim },
                )
            })
            .collect();
        Inputs::Sim(SimInputs {
            workload,
            traces,
            spec: ClusterSpec::homogeneous(nodes, GPUS_PER_NODE).expect("static cluster size"),
        })
    }

    /// Runs one repetition. With a live `recorder` the program's spans
    /// and counters land in its sink, under one `bench/run` root span
    /// per simulation, or one `bench/policy_schedule` span per round
    /// (`sched_rounds`).
    pub fn rep(&self, recorder: &Recorder) -> Rep {
        match self {
            Inputs::Sim(inputs) => inputs.rep(recorder),
            Inputs::Sched(inputs) => inputs.rep(recorder),
        }
    }
}

impl SimInputs {
    fn rep(&self, recorder: &Recorder) -> Rep {
        let mut rep = Rep {
            pieces_ns: Vec::new(),
            round_ns: Vec::new(),
            cold_round_ns: 0,
            digest: 0,
            ops: 0,
            infeasible_rounds: 0,
            quality: Quality::default(),
        };
        let mut digest = Fnv1a64::default();
        let mut jct_hours = 0.0;
        for (trace, sim) in &self.traces {
            let policy = match self.workload {
                Workload::PaperTrace => pollux(),
                _ => zoo::lookup("tiresias")
                    .expect("tiresias is a registered zoo policy")
                    .build()
                    .into_policy(),
            };
            let (policy, log) = TimedPolicy::new(policy);
            let root = recorder.span("bench", "run");
            let result = run_trace_recorded(
                policy,
                trace,
                ConfigChoice::Tuned,
                self.spec.clone(),
                *sim,
                recorder.clone(),
            )
            .expect("generated workloads are valid simulation inputs");
            let ended = Instant::now();
            drop(root);

            let log = log.borrow();
            for (between, round) in log.between_ns.iter().zip(&log.schedule_ns) {
                rep.pieces_ns.extend([between, round]);
            }
            rep.pieces_ns
                .push(ended.duration_since(log.last_exit).as_nanos() as u64);
            rep.round_ns.extend(&log.schedule_ns);
            rep.infeasible_rounds += log.infeasible_rounds;
            rep.ops += result.records.len() as u64;
            digest.write_u64(sim_digest(&result));
            let summary = result.summary();
            jct_hours += summary.avg_jct.unwrap_or(0.0) / 3600.0 * summary.finished as f64;
            rep.quality.finished_jobs += summary.finished as f64;
            rep.quality.unfinished_jobs += summary.unfinished as f64;
            rep.quality.never_started_jobs += summary.never_started as f64;
        }
        rep.digest = digest.finish();
        if rep.quality.finished_jobs > 0.0 {
            rep.quality.avg_jct_h = jct_hours / rep.quality.finished_jobs;
        }
        rep
    }
}

/// FNV-1a64 of the serialized `SimResult` (the vendored `serde_json`
/// writes `Debug` text, which is all a digest needs).
fn sim_digest(result: &SimResult) -> u64 {
    let text = serde_json::to_string(result).expect("SimResult serializes");
    crate::stats::fnv1a64(text.as_bytes())
}

impl SchedInputs {
    fn build(seed: u64) -> Self {
        let specs = trace(TraceConfig {
            num_jobs: SCHED_JOBS + SCHED_WARM_ROUNDS * SCHED_CHURN,
            duration_hours: 720.0,
            max_gpus: 2 * GPUS_PER_NODE,
            seed,
            ..Default::default()
        });
        let nodes = SCHED_NODES as usize;
        // One GPU per standing job, packed node by node until the
        // cluster is full; later jobs wait. Rack-local and feasible, so
        // the keep and home-rack machinery engages from round one.
        let mut free = SCHED_NODES * GPUS_PER_NODE;
        let mut jobs = specs.iter().enumerate().map(|(i, job)| {
            let mut placement = vec![0u32; nodes];
            if i < SCHED_JOBS && free > 0 {
                placement[i / GPUS_PER_NODE as usize] = 1;
                free -= 1;
            }
            let mut sched_job =
                bootstrap_sched_job(job.id, job.kind.profile().limits, 1.0, placement);
            sched_job.gpu_cap = job.tuned.gpus.clamp(1, 2 * GPUS_PER_NODE);
            sched_job
        });
        let standing = jobs.by_ref().take(SCHED_JOBS).collect();
        Self {
            standing,
            arrivals: jobs.collect(),
            spec: ClusterSpec::homogeneous(SCHED_NODES, GPUS_PER_NODE)
                .expect("static cluster size"),
            topology: Topology::grouped(SCHED_NODES, NODES_PER_RACK).expect("static rack size"),
            seed,
        }
    }

    fn rep(&self, recorder: &Recorder) -> Rep {
        let mut sched = PolluxSched::new(SchedConfig {
            ga: GaConfig {
                population: 12,
                generations: 8,
                // Two stale generations end a rack's search: the
                // default (equal to `generations`) never fires.
                early_stop_gens: 2,
                ..Default::default()
            },
            ..Default::default()
        });
        sched.set_topology(Some(self.topology.clone()));
        sched.set_recorder(recorder.clone());
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut churn_rng = StdRng::seed_from_u64(self.seed ^ 0x9e37_79b9_7f4a_7c15);
        let mut jobs = self.standing.clone();
        let mut arrivals = self.arrivals.iter();

        let mut rep = Rep {
            pieces_ns: Vec::with_capacity(1 + SCHED_WARM_ROUNDS),
            round_ns: Vec::with_capacity(SCHED_WARM_ROUNDS),
            cold_round_ns: 0,
            digest: 0,
            ops: 1 + SCHED_WARM_ROUNDS as u64,
            infeasible_rounds: 0,
            quality: Quality::default(),
        };
        let mut digest = Fnv1a64::default();
        let mut utility = 0.0;
        for round in 0..=SCHED_WARM_ROUNDS {
            let span = recorder.span("bench", "policy_schedule");
            let start = Instant::now();
            let outcome = sched.optimize(&jobs, &self.spec, &mut rng);
            let ns = start.elapsed().as_nanos() as u64;
            drop(span);
            rep.pieces_ns.push(ns);
            if round == 0 {
                rep.cold_round_ns = ns;
            } else {
                rep.round_ns.push(ns);
            }

            if recorder.is_enabled() && !outcome.best.is_feasible(&self.spec) {
                rep.infeasible_rounds += 1;
            }
            utility += outcome.best_fitness;
            digest.write_u64(outcome.best_fitness.to_bits());
            // The returned matrix becomes the applied placement.
            for (job, (j, row)) in jobs.iter_mut().zip(outcome.best.iter_rows()) {
                for (n, &gpus) in row.iter().enumerate() {
                    if gpus > 0 {
                        digest.write_u64((j as u64) << 32 | n as u64);
                        digest.write_u64(u64::from(gpus));
                    }
                }
                if job.current_placement != row {
                    job.current_placement.copy_from_slice(row);
                }
            }
            // 1 % of the standing jobs leave; fresh arrivals take
            // their rows.
            let mut replaced = 0;
            while replaced < SCHED_CHURN && round < SCHED_WARM_ROUNDS {
                let slot = churn_rng.gen_range(0..jobs.len());
                if jobs[slot].id.0 as usize >= SCHED_JOBS + round * SCHED_CHURN {
                    continue; // Arrived this very round.
                }
                jobs[slot] = arrivals.next().expect("one arrival per slot").clone();
                replaced += 1;
            }
        }
        rep.digest = digest.finish();
        rep.quality.mean_utility = utility / rep.ops as f64;
        rep
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
