//! Simulated job state.

use crate::policy::PolicyJobView;
use pollux_agent::PolluxAgent;
use pollux_models::{EfficiencyModel, PlacementShape};
use pollux_workload::{JobSpec, ModelProfile, UserConfig};

pub use pollux_control::{JobLifecycle, JobState};

/// One job inside the simulation: ground truth + the agent's noisy view.
///
/// Lifecycle state (pending/running/restarting/finished, restart and
/// GPU-time accounting) lives in the shared control-plane
/// [`JobLifecycle`] — the same state machine the live `ClusterService`
/// drives — while this struct adds the simulation-only ground truth:
/// the model profile, training progress, and the noisy-profiled agent.
#[derive(Debug, Clone)]
pub struct SimJob {
    /// The submission record (model, submit time, total work, user
    /// configurations).
    pub spec: JobSpec,
    /// The user configuration in effect for this run (tuned or
    /// realistic, chosen by the experiment).
    pub user: UserConfig,
    /// Ground-truth model profile. **Scheduler code must not read
    /// this**; it exists for the simulator to generate measurements.
    pub profile: ModelProfile,
    /// The job's `PolluxAgent` (profiles, fits, tunes).
    pub agent: PolluxAgent,
    /// Shared lifecycle state machine (state, start time, restarts,
    /// attained GPU-time).
    pub lifecycle: JobLifecycle,
    /// Current placement row (GPUs per node), cluster-width. Private
    /// so that [`Self::edit_placement`] is the only writer and `held`
    /// can never go stale.
    placement: Vec<u32>,
    /// `(gpus, nodes)` of `placement`, kept by
    /// [`Self::edit_placement`].
    held: (u32, u32),
    /// Current total batch size.
    pub batch_size: u64,
    /// Accumulated useful work (examples at m0-efficiency).
    pub progress: f64,
    /// Accumulated raw examples processed (for throughput accounting).
    pub examples_processed: f64,
    /// Fit bookkeeping: configurations seen at the last refit.
    pub(crate) last_fit_configs: usize,
    /// Fit bookkeeping: samples seen at the last refit.
    pub(crate) last_fit_samples: u64,
}

impl SimJob {
    /// Creates a pending job from its submission spec and the chosen
    /// user configuration.
    pub fn new(spec: JobSpec, user: UserConfig, num_nodes: usize) -> Self {
        let profile = spec.kind.profile();
        let agent = PolluxAgent::new(profile.m0, profile.eta0, profile.limits)
            .expect("profile constants are valid");
        let batch_size = user.batch_size.max(profile.m0);
        Self {
            spec,
            user,
            profile,
            agent,
            lifecycle: JobLifecycle::new(),
            placement: vec![0; num_nodes],
            held: (0, 0),
            batch_size,
            progress: 0.0,
            examples_processed: 0.0,
            last_fit_configs: 0,
            last_fit_samples: 0,
        }
    }

    /// Current lifecycle state.
    pub fn state(&self) -> JobState {
        self.lifecycle.state()
    }

    /// Attained GPU-time in GPU-seconds.
    pub fn gputime(&self) -> f64 {
        self.lifecycle.gputime()
    }

    /// First time the job received GPUs.
    pub fn start_time(&self) -> Option<f64> {
        self.lifecycle.start_time()
    }

    /// Number of checkpoint-restarts suffered.
    pub fn num_restarts(&self) -> u32 {
        self.lifecycle.num_restarts()
    }

    /// Whether the job has finished.
    pub fn is_finished(&self) -> bool {
        self.lifecycle.is_finished()
    }

    /// Whether the job is actively making progress.
    pub fn is_running(&self) -> bool {
        self.lifecycle.is_running()
    }

    /// The read-only view of this job handed to scheduling policies.
    pub fn policy_view(&self) -> PolicyJobView<'_> {
        PolicyJobView {
            id: self.spec.id,
            user: self.user,
            profile: Some(&self.profile),
            limits: self.profile.limits,
            report: self.agent.report(),
            gputime: self.lifecycle.gputime(),
            submit_time: self.spec.submit_time,
            current_placement: &self.placement,
            started: self.lifecycle.has_started(),
            batch_size: self.batch_size,
            remaining_work: self.remaining_work(),
        }
    }

    /// Current placement row (GPUs per node), cluster-width.
    pub fn placement(&self) -> &[u32] {
        &self.placement
    }

    /// The one placement writer: applies `edit` to the row and
    /// re-derives the `(gpus, nodes)` that [`Self::shape`] and
    /// [`Self::gpus`] serve, so neither rescans the row per call.
    pub fn edit_placement(&mut self, edit: impl FnOnce(&mut Vec<u32>)) {
        edit(&mut self.placement);
        self.held = scan_placement(&self.placement);
    }

    /// The job's current placement shape, if it holds any GPUs.
    pub fn shape(&self) -> Option<PlacementShape> {
        debug_assert_eq!(self.held, scan_placement(&self.placement));
        PlacementShape::new(self.held.0, self.held.1)
    }

    /// GPUs currently held.
    pub fn gpus(&self) -> u32 {
        debug_assert_eq!(self.held, scan_placement(&self.placement));
        self.held.0
    }

    /// Normalized training progress in [0, 1].
    pub fn progress_fraction(&self) -> f64 {
        (self.progress / self.spec.work).clamp(0.0, 1.0)
    }

    /// Remaining work in examples at m0-efficiency (oracle quantity,
    /// exposed to Optimus+Oracle per Sec. 5.2).
    pub fn remaining_work(&self) -> f64 {
        (self.spec.work - self.progress).max(0.0)
    }

    /// The **true** gradient noise scale at the current progress.
    pub fn true_phi(&self) -> f64 {
        self.profile.phi_at(self.progress_fraction())
    }

    /// The **true** statistical efficiency at batch size `m` right now.
    pub fn true_efficiency(&self, m: u64) -> f64 {
        self.true_efficiency_at(self.progress, m)
    }

    /// [`true_efficiency`](Self::true_efficiency) evaluated at a
    /// caller-supplied progress value instead of the stored one.
    /// The engine's hoisted `EfficiencyStepper` is pinned against this
    /// bit for bit.
    pub fn true_efficiency_at(&self, progress: f64, m: u64) -> f64 {
        let frac = (progress / self.spec.work).clamp(0.0, 1.0);
        EfficiencyModel::from_noise_scale(self.profile.m0, self.profile.phi_at(frac))
            .expect("phi > 0 from the profile")
            .efficiency(m)
    }

    /// The **true** iteration time under `shape` at batch `m`
    /// (before any interference slowdown).
    pub fn true_t_iter(&self, shape: PlacementShape, m: u64) -> f64 {
        self.profile.params.t_iter(shape, m)
    }

    /// The **true** throughput (examples/s) under `shape` at batch `m`.
    pub fn true_throughput(&self, shape: PlacementShape, m: u64) -> f64 {
        self.profile.params.throughput(shape, m)
    }
}

/// `(gpus, nodes)` of a placement row by a full scan.
fn scan_placement(row: &[u32]) -> (u32, u32) {
    let gpus = row.iter().sum();
    let nodes = row.iter().filter(|&&g| g > 0).count() as u32;
    (gpus, nodes)
}

/// [`SimJob::true_efficiency_at`] for one job at one batch size, with
/// everything that does not depend on the progress hoisted: the
/// engine's run contexts evaluate it once per tick. The per-tick
/// expression keeps the operations of the unhoisted chain
/// (`GnsProfile::phi` → `EfficiencyModel::efficiency`) on the same
/// operands, so the two agree to the bit.
#[derive(Debug, Clone)]
pub(crate) struct EfficiencyStepper {
    work: f64,
    phi_start: f64,
    /// `phi_end / phi_start`.
    growth: f64,
    boosts: Vec<(f64, f64)>,
    /// `m0` and `max(m, m0)` as the `f64`s `efficiency` adds to φ.
    m0: f64,
    m: f64,
}

impl EfficiencyStepper {
    pub(crate) fn new(job: &SimJob, batch_size: u64) -> Self {
        let gns = &job.profile.gns;
        Self {
            work: job.spec.work,
            phi_start: gns.phi_start,
            growth: gns.phi_end / gns.phi_start,
            boosts: gns.boosts.clone(),
            m0: job.profile.m0 as f64,
            m: batch_size.max(job.profile.m0) as f64,
        }
    }

    /// The true statistical efficiency at `progress`.
    #[inline]
    pub(crate) fn at(&self, progress: f64) -> f64 {
        let p = (progress / self.work).clamp(0.0, 1.0);
        let base = self.phi_start * self.growth.powf(p);
        let mut boost = 1.0;
        for &(threshold, multiplier) in &self.boosts {
            if p >= threshold {
                boost *= multiplier;
            }
        }
        let phi = base * boost;
        assert!(!(phi.is_nan() || phi < 0.0), "phi > 0 from the profile");
        if phi.is_infinite() {
            return 1.0;
        }
        (phi + self.m0) / (phi + self.m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pollux_cluster::JobId;
    use pollux_workload::{ModelKind, TraceConfig, TraceGenerator};

    fn sample_job() -> SimJob {
        let trace = TraceGenerator::new(TraceConfig::default())
            .unwrap()
            .generate();
        let spec = trace
            .iter()
            .find(|j| j.kind == ModelKind::ResNet18Cifar10)
            .unwrap()
            .clone();
        let user = spec.tuned;
        SimJob::new(spec, user, 4)
    }

    #[test]
    fn new_job_is_pending_and_unplaced() {
        let j = sample_job();
        assert_eq!(j.state(), JobState::Pending);
        assert_eq!(j.shape(), None);
        assert_eq!(j.gpus(), 0);
        assert_eq!(j.progress_fraction(), 0.0);
        assert!(!j.is_finished());
        assert!(!j.is_running());
        assert!(j.remaining_work() > 0.0);
        assert_eq!(j.spec.id, JobId(j.spec.id.0)); // id round-trips
    }

    #[test]
    fn shape_tracks_placement() {
        let mut j = sample_job();
        j.edit_placement(|row| *row = vec![2, 0, 1, 0]);
        assert_eq!(j.shape(), PlacementShape::new(3, 2));
        assert_eq!(j.gpus(), 3);
        j.edit_placement(|row| row.truncate(2));
        assert_eq!(j.shape(), PlacementShape::new(2, 1));
        j.edit_placement(|row| row.fill(0));
        assert_eq!((j.shape(), j.gpus()), (None, 0));
    }

    /// The hoisted stepper must return the bits of the unhoisted
    /// chain for every model, below, at and above `m0`, across the
    /// whole trajectory including the boost thresholds and the clamps.
    #[test]
    fn efficiency_stepper_matches_true_efficiency_bitwise() {
        let template = TraceGenerator::new(TraceConfig::default())
            .unwrap()
            .generate()
            .swap_remove(0);
        for kind in ModelKind::ALL {
            let mut spec = template.clone();
            spec.kind = kind;
            spec.work = kind.profile().total_work * 0.37;
            let user = spec.tuned;
            let job = SimJob::new(spec, user, 2);
            let m0 = job.profile.m0;
            for m in [1, m0, m0 + 1, 3 * m0, 100 * m0] {
                let stepper = EfficiencyStepper::new(&job, m);
                let mut fractions: Vec<f64> = (0..=1000).map(|i| i as f64 / 1000.0).collect();
                fractions.extend(job.profile.gns.boosts.iter().map(|&(thr, _)| thr));
                fractions.extend([-0.5, 1.0 + 1e-12, 7.0]);
                for f in fractions {
                    let progress = f * job.spec.work;
                    assert_eq!(
                        stepper.at(progress).to_bits(),
                        job.true_efficiency_at(progress, m).to_bits(),
                        "{kind:?} m={m} progress fraction {f}"
                    );
                }
            }
        }
    }

    #[test]
    fn batch_size_never_below_m0() {
        let trace = TraceGenerator::new(TraceConfig::default())
            .unwrap()
            .generate();
        let spec = trace[0].clone();
        let m0 = spec.kind.profile().m0;
        let user = UserConfig {
            gpus: 1,
            batch_size: 1,
        };
        let j = SimJob::new(spec, user, 4);
        assert_eq!(j.batch_size, m0);
    }

    #[test]
    fn true_phi_rises_with_progress() {
        let mut j = sample_job();
        let early = j.true_phi();
        j.progress = j.spec.work * 0.9;
        let late = j.true_phi();
        assert!(late > early);
        // Efficiency at a big batch improves accordingly.
        assert!(j.true_efficiency(4096) > 0.0);
    }

    #[test]
    fn progress_fraction_clamps() {
        let mut j = sample_job();
        j.progress = j.spec.work * 2.0;
        assert_eq!(j.progress_fraction(), 1.0);
        assert_eq!(j.remaining_work(), 0.0);
    }

    #[test]
    fn truth_matches_profile_params() {
        let j = sample_job();
        let shape = PlacementShape::new(4, 1).unwrap();
        assert_eq!(
            j.true_t_iter(shape, 512),
            j.profile.params.t_iter(shape, 512)
        );
        assert_eq!(
            j.true_throughput(shape, 512),
            j.profile.params.throughput(shape, 512)
        );
    }

    #[test]
    fn view_reflects_job_state() {
        let mut job = sample_job();
        job.edit_placement(|row| *row = vec![0, 2, 0, 0]);
        job.lifecycle.accrue_gputime(120.0);
        job.progress = job.spec.work / 2.0;

        let v = job.policy_view();
        assert_eq!(v.id, job.spec.id);
        assert!(v.is_running());
        assert!(!v.started, "GPUs held but never granted through a round");
        assert_eq!(v.gputime, 120.0);
        assert!((v.remaining_work - job.spec.work / 2.0).abs() < 1e-6);
        assert!(v.report.is_none(), "no fit yet");
    }

    #[test]
    fn view_report_appears_after_fit() {
        let mut job = sample_job();
        let shape = PlacementShape::single();
        let t = job.true_t_iter(shape, job.profile.m0);
        job.agent.observe_iteration(shape, job.profile.m0, t);
        assert!(job.agent.refit());
        let v = job.policy_view();
        assert!(v.report.is_some());
    }
}
