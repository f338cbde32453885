//! Microsoft-trace-like workload generation (Sec. 5.1, Fig 6).
//!
//! The paper samples 160 job submissions from an 8-hour window of the
//! Microsoft (Philly) cluster trace whose submission rate peaks in the
//! fourth hour at ~3× the first hour's rate, and maps each trace job to
//! a Table-1 model in the same GPU-time category (38 % / 38 % / 17 % /
//! 5 % / 2 %). We reproduce those published statistics directly.

use crate::configs::{UserConfig, UserConfigTable};
use crate::models::{ModelKind, ModelProfile, SizeCategory};
use pollux_cluster::JobId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, LogNormal};

/// Hourly submission-rate weights over the 8-hour window (Fig 6: the
/// fourth hour peaks at 3× the first).
const HOURLY_WEIGHTS: [f64; 8] = [1.0, 1.5, 2.2, 3.0, 2.6, 2.0, 1.5, 1.2];

/// Model mix matching the trace's category fractions (Table 1).
const MODEL_MIX: [(ModelKind, f64); 5] = [
    (ModelKind::ResNet18Cifar10, 0.38),
    (ModelKind::NeuMFMovieLens, 0.38),
    (ModelKind::DeepSpeech2Arctic, 0.17),
    (ModelKind::Yolov3Voc, 0.05),
    (ModelKind::ResNet50ImageNet, 0.02),
];

/// GPUs per node the users' configurations are tuned for: the paper's
/// 4-GPU nodes.
const GPUS_PER_NODE: u32 = 4;

/// Log-normal σ of per-job work-size variation.
const WORK_SIGMA: f64 = 0.45;

/// Configuration of the trace generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceConfig {
    /// Base number of job submissions (the paper uses 160).
    pub num_jobs: usize,
    /// Window length in hours (the paper uses 8).
    pub duration_hours: f64,
    /// Load multiplier: scales the number of jobs (Fig 8 sweeps
    /// 0.5×–2×).
    pub load_multiplier: f64,
    /// Largest GPU count considered when tuning configs.
    pub max_gpus: u32,
    /// RNG seed; each seed is one "trace" (the paper averages 8).
    pub seed: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self {
            num_jobs: 160,
            duration_hours: 8.0,
            load_multiplier: 1.0,
            max_gpus: 16,
            seed: 0,
        }
    }
}

/// One synthetic job submission.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Stable identifier (submission order).
    pub id: JobId,
    /// Which Table-1 model the job trains.
    pub kind: ModelKind,
    /// Submission time in seconds from the window start.
    pub submit_time: f64,
    /// Total work in examples at m0-efficiency (profile work × a
    /// per-job size factor).
    pub work: f64,
    /// Idealized TunedJobs configuration (Sec. 5.2).
    pub tuned: UserConfig,
    /// Realistic trace-derived configuration (Sec. 5.3.1).
    pub realistic: UserConfig,
}

/// Deterministic trace generator.
///
/// # Examples
///
/// ```
/// use pollux_workload::{TraceConfig, TraceGenerator};
///
/// let gen = TraceGenerator::new(TraceConfig { seed: 7, ..Default::default() }).unwrap();
/// let jobs = gen.generate();
/// assert_eq!(jobs.len(), 160);                       // the paper's workload size
/// assert!(jobs.windows(2).all(|w| w[0].submit_time <= w[1].submit_time));
/// // Same seed, same trace.
/// assert_eq!(jobs, gen.generate());
/// ```
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    config: TraceConfig,
}

impl TraceGenerator {
    /// Creates a generator. Returns `None` for degenerate configs: a
    /// zero count, or a window or load that is not positive and finite
    /// (a NaN load would round to a one-job trace, an infinite one to
    /// `usize::MAX` jobs).
    pub fn new(config: TraceConfig) -> Option<Self> {
        let positive = |v: f64| v > 0.0 && v.is_finite();
        if config.num_jobs == 0
            || !positive(config.duration_hours)
            || !positive(config.load_multiplier)
            || config.max_gpus == 0
        {
            None
        } else {
            Some(Self { config })
        }
    }

    /// The effective number of jobs after the load multiplier.
    pub fn effective_num_jobs(&self) -> usize {
        ((self.config.num_jobs as f64 * self.config.load_multiplier).round() as usize).max(1)
    }

    /// Generates the full trace, sorted by submission time.
    pub fn generate(&self) -> Vec<JobSpec> {
        self.generate_counted().0
    }

    /// [`Self::generate`], and the Eqn-13 solves its user configurations
    /// took: what the users of one model know is solved once for all
    /// its jobs ([`UserConfigTable`]), so the count grows with the
    /// models and GPU counts of the trace, not with its length.
    pub fn generate_counted(&self) -> (Vec<JobSpec>, u64) {
        // The models met so far, in order of first appearance.
        let mut models: Vec<(ModelProfile, UserConfigTable)> = Vec::new();
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let n = self.effective_num_jobs();
        let total_weight: f64 = HOURLY_WEIGHTS.iter().sum();
        let window = self.config.duration_hours * 3600.0;
        let hour_len = window / HOURLY_WEIGHTS.len() as f64;
        let work_dist = LogNormal::new(0.0, WORK_SIGMA).expect("a positive constant sigma");

        let mut jobs: Vec<JobSpec> = (0..n)
            .map(|i| {
                // Submission hour by the diurnal weights, uniform within.
                // Falls back to the *last* hour on floating-point
                // exhaustion, not hour 0 (which has the lowest weight).
                let mut pick = rng.gen_range(0.0..total_weight);
                let mut hour = HOURLY_WEIGHTS.len() - 1;
                for (h, &w) in HOURLY_WEIGHTS.iter().enumerate() {
                    if pick < w {
                        hour = h;
                        break;
                    }
                    pick -= w;
                }
                let submit_time = hour as f64 * hour_len + rng.gen_range(0.0..hour_len);

                // Model by category mix (same last-entry fallback).
                let mut pick = rng.gen_range(0.0..1.0);
                let mut kind = MODEL_MIX[MODEL_MIX.len() - 1].0;
                for &(k, f) in &MODEL_MIX {
                    if pick < f {
                        kind = k;
                        break;
                    }
                    pick -= f;
                }
                let known = models.iter().position(|(profile, _)| profile.kind == kind);
                let (profile, configs) = match known {
                    Some(at) => &mut models[at],
                    None => {
                        let profile = kind.profile();
                        let configs =
                            UserConfigTable::new(&profile, self.config.max_gpus, GPUS_PER_NODE);
                        models.push((profile, configs));
                        models.last_mut().expect("just pushed")
                    }
                };

                let scale = work_dist.sample(&mut rng).clamp(0.3, 3.0);
                let tuned = configs.tuned(&mut rng);
                let trace_gpus = sample_trace_gpus(profile.category, &mut rng);
                let realistic = configs.realistic(trace_gpus, &mut rng);

                JobSpec {
                    id: JobId(i as u32),
                    kind,
                    submit_time,
                    work: profile.total_work * scale,
                    tuned,
                    realistic,
                }
            })
            .collect();

        jobs.sort_by(|a, b| {
            a.submit_time
                .partial_cmp(&b.submit_time)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        // Re-number in submission order so JobId increases with time.
        for (i, job) in jobs.iter_mut().enumerate() {
            job.id = JobId(i as u32);
        }
        let solves = models.iter().map(|(_, configs)| configs.solves()).sum();
        (jobs, solves)
    }

    /// Histogram of submissions per hour (the Fig 6 series).
    pub fn hourly_counts(&self, jobs: &[JobSpec]) -> Vec<usize> {
        let hours = HOURLY_WEIGHTS.len();
        let hour_len = self.config.duration_hours * 3600.0 / hours as f64;
        let mut counts = vec![0usize; hours];
        for j in jobs {
            let h = ((j.submit_time / hour_len) as usize).min(hours - 1);
            counts[h] += 1;
        }
        counts
    }
}

/// Samples a user-requested GPU count per the Microsoft-trace
/// distributions. Philly users under-request heavily — most jobs,
/// including large ones, ask for one or two GPUs (Sec. 5.3.1: "many
/// users requested a small number of GPUs, when they could still have
/// efficiently utilized more — especially in the later stages of each
/// job").
fn sample_trace_gpus<R: Rng>(category: SizeCategory, rng: &mut R) -> u32 {
    let table: &[(u32, f64)] = match category {
        SizeCategory::Small => &[(1, 0.85), (2, 0.15)],
        SizeCategory::Medium => &[(1, 0.60), (2, 0.25), (4, 0.15)],
        SizeCategory::Large => &[(1, 0.30), (2, 0.35), (4, 0.25), (8, 0.10)],
        SizeCategory::XLarge => &[(2, 0.25), (4, 0.40), (8, 0.25), (16, 0.10)],
    };
    let mut pick = rng.gen_range(0.0..1.0);
    for &(g, f) in table {
        if pick < f {
            return g;
        }
        pick -= f;
    }
    table.last().expect("tables are non-empty").0
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn generator(seed: u64) -> TraceGenerator {
        TraceGenerator::new(TraceConfig {
            seed,
            ..Default::default()
        })
        .unwrap()
    }

    #[test]
    fn config_validation() {
        assert!(TraceGenerator::new(TraceConfig {
            num_jobs: 0,
            ..Default::default()
        })
        .is_none());
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(TraceGenerator::new(TraceConfig {
                duration_hours: bad,
                ..Default::default()
            })
            .is_none());
            assert!(TraceGenerator::new(TraceConfig {
                load_multiplier: bad,
                ..Default::default()
            })
            .is_none());
        }
        assert!(TraceGenerator::new(TraceConfig::default()).is_some());
    }

    #[test]
    fn generates_requested_count_sorted() {
        let g = generator(1);
        let jobs = g.generate();
        assert_eq!(jobs.len(), 160);
        for w in jobs.windows(2) {
            assert!(w[0].submit_time <= w[1].submit_time);
        }
        // Ids follow submission order.
        for (i, j) in jobs.iter().enumerate() {
            assert_eq!(j.id, JobId(i as u32));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(generator(7).generate(), generator(7).generate());
        assert_ne!(generator(7).generate(), generator(8).generate());
    }

    #[test]
    fn submission_times_inside_window() {
        let jobs = generator(2).generate();
        for j in &jobs {
            assert!(j.submit_time >= 0.0 && j.submit_time < 8.0 * 3600.0);
        }
    }

    #[test]
    fn category_mix_approximately_matches() {
        // Aggregate across several seeds for a tight estimate.
        let mut counts: HashMap<ModelKind, usize> = HashMap::new();
        let mut total = 0usize;
        for seed in 0..8 {
            for j in generator(seed).generate() {
                *counts.entry(j.kind).or_default() += 1;
                total += 1;
            }
        }
        let frac = |k: ModelKind| *counts.get(&k).unwrap_or(&0) as f64 / total as f64;
        assert!((frac(ModelKind::ResNet18Cifar10) - 0.38).abs() < 0.06);
        assert!((frac(ModelKind::NeuMFMovieLens) - 0.38).abs() < 0.06);
        assert!((frac(ModelKind::DeepSpeech2Arctic) - 0.17).abs() < 0.05);
        assert!((frac(ModelKind::Yolov3Voc) - 0.05).abs() < 0.03);
        assert!((frac(ModelKind::ResNet50ImageNet) - 0.02).abs() < 0.02);
    }

    #[test]
    fn diurnal_peak_in_fourth_hour() {
        // Aggregate over seeds; the 4th hour (index 3) must be the
        // modal submission hour and ~3x the first hour.
        let mut totals = vec![0usize; 8];
        for seed in 0..16 {
            let g = generator(seed);
            let jobs = g.generate();
            for (h, c) in g.hourly_counts(&jobs).iter().enumerate() {
                totals[h] += c;
            }
        }
        let max_hour = totals
            .iter()
            .enumerate()
            .max_by_key(|&(_, c)| *c)
            .unwrap()
            .0;
        assert_eq!(max_hour, 3, "histogram: {totals:?}");
        let ratio = totals[3] as f64 / totals[0] as f64;
        assert!((2.0..4.5).contains(&ratio), "peak ratio = {ratio:.2}");
    }

    #[test]
    fn load_multiplier_scales_job_count() {
        let half = TraceGenerator::new(TraceConfig {
            load_multiplier: 0.5,
            ..Default::default()
        })
        .unwrap();
        let double = TraceGenerator::new(TraceConfig {
            load_multiplier: 2.0,
            ..Default::default()
        })
        .unwrap();
        assert_eq!(half.effective_num_jobs(), 80);
        assert_eq!(double.effective_num_jobs(), 320);
        assert_eq!(half.generate().len(), 80);
        assert_eq!(double.generate().len(), 320);
    }

    #[test]
    fn work_sizes_are_scaled_around_profile() {
        let jobs = generator(3).generate();
        for j in &jobs {
            let base = j.kind.profile().total_work;
            assert!(j.work >= base * 0.3 - 1e-9 && j.work <= base * 3.0 + 1e-9);
        }
    }

    #[test]
    fn user_gpu_requests_match_category_skew() {
        let mut small_gpus = Vec::new();
        let mut xlarge_gpus = Vec::new();
        for seed in 0..8 {
            for j in generator(seed).generate() {
                match j.kind.profile().category {
                    SizeCategory::Small => small_gpus.push(j.realistic.gpus),
                    SizeCategory::XLarge => xlarge_gpus.push(j.realistic.gpus),
                    _ => {}
                }
            }
        }
        let avg = |v: &[u32]| v.iter().sum::<u32>() as f64 / v.len().max(1) as f64;
        assert!(avg(&small_gpus) < 2.0, "small avg = {}", avg(&small_gpus));
        assert!(
            avg(&xlarge_gpus) > 4.0,
            "xlarge avg = {}",
            avg(&xlarge_gpus)
        );
    }
}
