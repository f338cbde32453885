//! Simulation metrics: per-job completion records and cluster time
//! series.

use pollux_cluster::JobId;
use pollux_workload::ModelKind;

/// Per-job outcome record.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Job identifier.
    pub id: JobId,
    /// Model trained.
    pub kind: ModelKind,
    /// Submission time (s).
    pub submit_time: f64,
    /// First allocation time, if ever started.
    pub start_time: Option<f64>,
    /// Completion time, if finished within the simulation horizon.
    pub finish_time: Option<f64>,
    /// Attained GPU-seconds.
    pub gputime: f64,
    /// Checkpoint-restarts suffered.
    pub num_restarts: u32,
    /// Raw examples processed over the job's lifetime.
    pub examples_processed: f64,
    /// Useful examples (progress at m0-efficiency).
    pub useful_examples: f64,
}

impl JobRecord {
    /// Job completion time (finish − submit), if finished.
    pub fn jct(&self) -> Option<f64> {
        self.finish_time.map(|f| f - self.submit_time)
    }

    /// Queue time (first start − submit): how long the job waited for
    /// its first allocation. `None` for jobs that never started within
    /// the horizon; a job that started but did not finish still has a
    /// queue time.
    pub fn queue_time(&self) -> Option<f64> {
        self.start_time.map(|s| s - self.submit_time)
    }

    /// Lifetime average statistical efficiency: useful / processed.
    pub fn avg_efficiency(&self) -> Option<f64> {
        if self.examples_processed > 0.0 {
            Some(self.useful_examples / self.examples_processed)
        } else {
            None
        }
    }
}

/// One cluster-state sample (taken every scheduling interval).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterSample {
    /// Sample time (s).
    pub time: f64,
    /// Nodes in the cluster.
    pub nodes: u32,
    /// Total GPUs in the cluster.
    pub total_gpus: u32,
    /// GPUs currently allocated.
    pub used_gpus: u32,
    /// Jobs currently running.
    pub running_jobs: u32,
    /// Jobs currently pending.
    pub pending_jobs: u32,
    /// Mean true statistical efficiency across running jobs at their
    /// current batch sizes (the Sec. 5.2.1 "≈91 % vs ≈74 %" metric).
    pub mean_efficiency: f64,
    /// Aggregate true throughput (examples/s).
    pub total_throughput: f64,
    /// Aggregate true goodput (useful examples/s).
    pub total_goodput: f64,
}

/// Percentile summary of a run's completion and waiting behavior
/// ([`SimResult::summary`]). Percentiles are nearest-rank; wait-time
/// statistics cover every job that started (finished or not), while
/// never-started jobs appear only in `never_started`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MetricsSummary {
    /// Jobs that finished within the horizon.
    pub finished: usize,
    /// Jobs that did not finish within the horizon.
    pub unfinished: usize,
    /// Jobs that never received a first allocation.
    pub never_started: usize,
    /// Mean JCT over finished jobs (s).
    pub avg_jct: Option<f64>,
    /// Median JCT (s).
    pub p50_jct: Option<f64>,
    /// 95th-percentile JCT (s).
    pub p95_jct: Option<f64>,
    /// 99th-percentile JCT (s).
    pub p99_jct: Option<f64>,
    /// Mean queue wait over started jobs (s).
    pub avg_wait: Option<f64>,
    /// Median queue wait (s).
    pub p50_wait: Option<f64>,
    /// 95th-percentile queue wait (s).
    pub p95_wait: Option<f64>,
    /// 99th-percentile queue wait (s).
    pub p99_wait: Option<f64>,
}

/// Nearest-rank percentile of an unsorted sample (`None` when empty or
/// `p` is outside `[0, 100]`).
fn percentile_of(mut vals: Vec<f64>, p: f64) -> Option<f64> {
    if vals.is_empty() || !(0.0..=100.0).contains(&p) {
        return None;
    }
    vals.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let rank = ((p / 100.0 * vals.len() as f64).ceil() as usize).clamp(1, vals.len());
    Some(vals[rank - 1])
}

/// Complete result of one simulation run. The allocation timeline —
/// arrivals, starts, restarts, preemptions, finishes and placement
/// diffs — is not part of it: that is the telemetry capture's
/// `lifecycle/*` and `round/placement` events
/// ([`Simulation::with_recorder`](crate::Simulation::with_recorder)).
#[derive(Debug, Clone, Default)]
pub struct SimResult {
    /// Policy name the run used.
    pub policy: String,
    /// Per-job records (submission order).
    pub records: Vec<JobRecord>,
    /// Cluster time series.
    pub series: Vec<ClusterSample>,
    /// Simulation end time (s).
    pub end_time: f64,
    /// Integral of cluster size over time, in node-seconds (cloud cost
    /// proxy for the Fig 10 experiment).
    pub node_seconds: f64,
}

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl SimResult {
    /// The text every golden pins: the pretty `Debug` rendering with
    /// each run of whitespace collapsed to one space. It carries every
    /// field, and every `f64` in shortest round-trip form, so equal
    /// text means results equal bit for bit.
    pub fn canonical_text(&self) -> String {
        format!("{self:#?}")
            .split_whitespace()
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// FNV-1a64 of [`canonical_text`](Self::canonical_text): the one
    /// answer to "did these two runs diverge".
    pub fn digest(&self) -> u64 {
        fnv1a64(self.canonical_text().as_bytes())
    }

    /// JCTs of all finished jobs.
    pub fn jcts(&self) -> Vec<f64> {
        self.records.iter().filter_map(JobRecord::jct).collect()
    }

    /// Number of jobs that did not finish within the horizon.
    pub fn unfinished(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.finish_time.is_none())
            .count()
    }

    /// Average JCT in seconds over finished jobs.
    pub fn avg_jct(&self) -> Option<f64> {
        let j = self.jcts();
        if j.is_empty() {
            None
        } else {
            Some(j.iter().sum::<f64>() / j.len() as f64)
        }
    }

    /// The `p`-th percentile JCT (0 < p ≤ 100), nearest-rank.
    pub fn percentile_jct(&self, p: f64) -> Option<f64> {
        percentile_of(self.jcts(), p)
    }

    /// Queue waits (first start − submit) of all jobs that started.
    pub fn wait_times(&self) -> Vec<f64> {
        self.records
            .iter()
            .filter_map(JobRecord::queue_time)
            .collect()
    }

    /// The `p`-th percentile queue wait (0 < p ≤ 100), nearest-rank,
    /// over jobs that started. `None` when no job ever started.
    pub fn percentile_wait(&self, p: f64) -> Option<f64> {
        percentile_of(self.wait_times(), p)
    }

    /// Percentile summary of completions and queue waits.
    pub fn summary(&self) -> MetricsSummary {
        let waits = self.wait_times();
        let avg_wait = if waits.is_empty() {
            None
        } else {
            Some(waits.iter().sum::<f64>() / waits.len() as f64)
        };
        MetricsSummary {
            finished: self.records.len() - self.unfinished(),
            unfinished: self.unfinished(),
            never_started: self
                .records
                .iter()
                .filter(|r| r.start_time.is_none())
                .count(),
            avg_jct: self.avg_jct(),
            p50_jct: self.percentile_jct(50.0),
            p95_jct: self.percentile_jct(95.0),
            p99_jct: self.percentile_jct(99.0),
            avg_wait,
            p50_wait: self.percentile_wait(50.0),
            p95_wait: self.percentile_wait(95.0),
            p99_wait: self.percentile_wait(99.0),
        }
    }

    /// Makespan: last finish time minus first submission, if all jobs
    /// finished; otherwise the simulation end time is used.
    pub fn makespan(&self) -> f64 {
        let first_submit = self
            .records
            .iter()
            .map(|r| r.submit_time)
            .fold(f64::INFINITY, f64::min);
        let last_finish = self
            .records
            .iter()
            .map(|r| r.finish_time.unwrap_or(self.end_time))
            .fold(0.0f64, f64::max);
        if first_submit.is_finite() {
            (last_finish - first_submit).max(0.0)
        } else {
            0.0
        }
    }

    /// Time-averaged mean statistical efficiency across running jobs,
    /// weighted by the number of running jobs at each sample.
    pub fn avg_cluster_efficiency(&self) -> Option<f64> {
        let mut num = 0.0;
        let mut den = 0.0;
        for s in &self.series {
            if s.running_jobs > 0 {
                num += s.mean_efficiency * s.running_jobs as f64;
                den += s.running_jobs as f64;
            }
        }
        if den > 0.0 {
            Some(num / den)
        } else {
            None
        }
    }

    /// Mean per-job lifetime throughput (examples/s of wall-clock
    /// lifetime), over finished jobs.
    pub fn mean_job_throughput(&self) -> Option<f64> {
        let vals: Vec<f64> = self
            .records
            .iter()
            .filter_map(|r| r.jct().map(|t| r.examples_processed / t.max(1e-9)))
            .collect();
        if vals.is_empty() {
            None
        } else {
            Some(vals.iter().sum::<f64>() / vals.len() as f64)
        }
    }

    /// Mean per-job lifetime goodput (useful examples/s), over
    /// finished jobs.
    pub fn mean_job_goodput(&self) -> Option<f64> {
        let vals: Vec<f64> = self
            .records
            .iter()
            .filter_map(|r| r.jct().map(|t| r.useful_examples / t.max(1e-9)))
            .collect();
        if vals.is_empty() {
            None
        } else {
            Some(vals.iter().sum::<f64>() / vals.len() as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u32, submit: f64, finish: Option<f64>) -> JobRecord {
        JobRecord {
            id: JobId(id),
            kind: ModelKind::ResNet18Cifar10,
            submit_time: submit,
            start_time: finish.map(|_| submit),
            finish_time: finish,
            gputime: 100.0,
            num_restarts: 0,
            examples_processed: 1000.0,
            useful_examples: 900.0,
        }
    }

    #[test]
    fn jct_and_efficiency() {
        let r = record(0, 10.0, Some(110.0));
        assert_eq!(r.jct(), Some(100.0));
        assert!((r.avg_efficiency().unwrap() - 0.9).abs() < 1e-12);
        let r = record(1, 10.0, None);
        assert_eq!(r.jct(), None);
    }

    #[test]
    fn digest_is_fnv1a64_of_the_canonical_text() {
        // The published FNV-1a64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);

        let empty = SimResult::default();
        assert_eq!(
            empty.canonical_text(),
            "SimResult { policy: \"\", records: [], series: [], end_time: 0.0, \
             node_seconds: 0.0, }"
        );
        let one = SimResult {
            records: vec![record(0, 10.0, Some(110.0))],
            ..Default::default()
        };
        for res in [&empty, &one] {
            assert!(!res.canonical_text().contains('\n'));
            assert_eq!(res.digest(), fnv1a64(res.canonical_text().as_bytes()));
        }
        assert_ne!(empty.digest(), one.digest());
    }

    #[test]
    fn aggregates() {
        let res = SimResult {
            end_time: 1000.0,
            records: vec![
                record(0, 0.0, Some(100.0)),
                record(1, 0.0, Some(300.0)),
                record(2, 50.0, None),
            ],
            ..Default::default()
        };
        assert_eq!(res.jcts().len(), 2);
        assert_eq!(res.unfinished(), 1);
        assert!((res.avg_jct().unwrap() - 200.0).abs() < 1e-9);
        // Makespan falls back to end_time for unfinished jobs.
        assert!((res.makespan() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let res = SimResult {
            records: (0..100)
                .map(|i| record(i, 0.0, Some((i + 1) as f64)))
                .collect(),
            ..Default::default()
        };
        assert_eq!(res.percentile_jct(50.0), Some(50.0));
        assert_eq!(res.percentile_jct(99.0), Some(99.0));
        assert_eq!(res.percentile_jct(100.0), Some(100.0));
        assert_eq!(res.percentile_jct(1.0), Some(1.0));
        assert_eq!(res.percentile_jct(150.0), None);
    }

    #[test]
    fn queue_time_handles_never_started_and_unfinished_jobs() {
        // Finished job: waited 25 s for its first allocation.
        let mut finished = record(0, 10.0, Some(110.0));
        finished.start_time = Some(35.0);
        assert_eq!(finished.queue_time(), Some(25.0));

        // Started but unfinished: queue time exists, JCT does not.
        let started_unfinished = JobRecord {
            start_time: Some(50.0),
            ..record(1, 10.0, None)
        };
        assert_eq!(started_unfinished.queue_time(), Some(40.0));
        assert_eq!(started_unfinished.jct(), None);

        // Never started: no queue time at all.
        let never_started = record(2, 10.0, None);
        assert_eq!(never_started.start_time, None);
        assert_eq!(never_started.queue_time(), None);

        let res = SimResult {
            records: vec![finished, started_unfinished, never_started],
            ..Default::default()
        };
        // Wait percentiles cover the two started jobs only.
        assert_eq!(res.wait_times(), vec![25.0, 40.0]);
        assert_eq!(res.percentile_wait(50.0), Some(25.0));
        assert_eq!(res.percentile_wait(99.0), Some(40.0));
        let s = res.summary();
        assert_eq!(s.finished, 1);
        assert_eq!(s.unfinished, 2);
        assert_eq!(s.never_started, 1);
        assert_eq!(s.avg_wait, Some(32.5));
        assert_eq!(s.p50_jct, Some(100.0));
        assert_eq!(s.p99_wait, Some(40.0));
    }

    #[test]
    fn summary_of_unstarted_workload_is_all_none() {
        let res = SimResult {
            records: vec![record(0, 0.0, None), record(1, 5.0, None)],
            ..Default::default()
        };
        let s = res.summary();
        assert_eq!(s.finished, 0);
        assert_eq!(s.unfinished, 2);
        assert_eq!(s.never_started, 2);
        assert_eq!(s.avg_jct, None);
        assert_eq!(s.p99_jct, None);
        assert_eq!(s.avg_wait, None);
        assert_eq!(s.p50_wait, None);
    }

    #[test]
    fn empty_result_is_graceful() {
        let res = SimResult::default();
        assert_eq!(res.avg_jct(), None);
        assert_eq!(res.percentile_jct(50.0), None);
        assert_eq!(res.makespan(), 0.0);
        assert_eq!(res.avg_cluster_efficiency(), None);
        assert_eq!(res.mean_job_throughput(), None);
    }

    #[test]
    fn cluster_efficiency_weighted_by_running_jobs() {
        let res = SimResult {
            series: vec![
                ClusterSample {
                    time: 0.0,
                    nodes: 4,
                    total_gpus: 16,
                    used_gpus: 4,
                    running_jobs: 1,
                    pending_jobs: 0,
                    mean_efficiency: 1.0,
                    total_throughput: 0.0,
                    total_goodput: 0.0,
                },
                ClusterSample {
                    time: 60.0,
                    nodes: 4,
                    total_gpus: 16,
                    used_gpus: 12,
                    running_jobs: 3,
                    pending_jobs: 1,
                    mean_efficiency: 0.6,
                    total_throughput: 0.0,
                    total_goodput: 0.0,
                },
            ],
            ..Default::default()
        };
        // (1.0·1 + 0.6·3) / 4 = 0.7.
        assert!((res.avg_cluster_efficiency().unwrap() - 0.7).abs() < 1e-12);
    }
}
