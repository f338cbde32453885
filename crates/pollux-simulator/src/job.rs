//! Simulated job state.

use pollux_agent::PolluxAgent;
use pollux_cluster::row_shape;
use pollux_models::{EfficiencyModel, PlacementShape};
use pollux_workload::{GnsProfile, JobSpec, ModelProfile, UserConfig};

pub use pollux_control::{JobLifecycle, JobState};
use pollux_control::{JobMut, PolicyJobView};

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
    /// [`row_shape`] of `placement`, kept by [`Self::edit_placement`].
    held: Option<PlacementShape>,
    /// Current total batch size.
    pub batch_size: u64,
    /// Accumulated useful work (examples at m0-efficiency).
    pub progress: f64,
    /// Accumulated raw examples processed (for throughput accounting).
    pub examples_processed: f64,
    /// The φ that drives progress, held over a sub-interval of it (see
    /// [`Self::held_efficiency_at`]). It lives on the job, not in an
    /// engine context, so that it outlasts whatever the engine rebuilds
    /// around a reallocation, a new batch size or a changed slowdown.
    hold: PhiHold,
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
            held: None,
            batch_size,
            progress: 0.0,
            examples_processed: 0.0,
            hold: PhiHold::EXPIRED,
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

    /// The one placement writer: lends the row, with the agent and the
    /// lifecycle, to `edit` (a scheduling round's resize or apply rule)
    /// and re-derives the `(gpus, nodes)` that [`Self::shape`] and
    /// [`Self::gpus`] serve, so neither rescans the row per call.
    pub fn edit<R>(&mut self, edit: impl FnOnce(JobMut<'_>) -> R) -> R {
        let out = edit(JobMut {
            placement: &mut self.placement,
            agent: &mut self.agent,
            lifecycle: &mut self.lifecycle,
        });
        self.held = row_shape(&self.placement);
        out
    }

    /// [`Self::edit`] of the placement row alone.
    pub fn edit_placement(&mut self, edit: impl FnOnce(&mut Vec<u32>)) {
        self.edit(|job| edit(job.placement));
    }

    /// The job's current placement shape, if it holds any GPUs.
    pub fn shape(&self) -> Option<PlacementShape> {
        debug_assert_eq!(self.held, row_shape(&self.placement));
        self.held
    }

    /// GPUs currently held.
    pub fn gpus(&self) -> u32 {
        debug_assert_eq!(self.held, row_shape(&self.placement));
        self.held.map_or(0, |shape| shape.gpus)
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
    /// caller-supplied progress value instead of the stored one: the
    /// tick-exact curve, which samples and reports read and which the
    /// held φ that drives progress (`held_efficiency_at`) is bounded
    /// against.
    pub fn true_efficiency_at(&self, progress: f64, m: u64) -> f64 {
        let frac = (progress / self.spec.work).clamp(0.0, 1.0);
        self.efficiency_under(self.profile.phi_at(frac), m)
    }

    /// The statistical efficiency at batch size `m` that **drives
    /// progress**: [`true_efficiency_at`](Self::true_efficiency_at)
    /// with φ piecewise constant in progress. φ is taken at the
    /// midpoint of a sub-interval `[p, p + δp)` of normalized progress
    /// across which it moves by at most [`PHI_HOLD_DRIFT`], cut short
    /// at the next boost threshold, and kept until `progress` reaches
    /// the end of that sub-interval ([`Self::hold_end`]); the call that
    /// finds it there starts the next one. Both engine steppers advance
    /// through this one function, and a caller that caches its value
    /// must refresh on the same comparison, `progress >= hold_end()`.
    pub(crate) fn held_efficiency_at(&mut self, progress: f64, m: u64) -> f64 {
        if progress >= self.hold.until {
            self.hold = PhiHold::starting_at(&self.profile.gns, self.spec.work, progress);
        }
        self.efficiency_under(self.hold.phi, m)
    }

    /// The progress (examples) at which the current hold ends.
    pub(crate) fn hold_end(&self) -> f64 {
        self.hold.until
    }

    fn efficiency_under(&self, phi: f64, m: u64) -> f64 {
        EfficiencyModel::from_noise_scale(self.profile.m0, phi)
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

/// φ may move by at most this factor across one hold, so the held
/// value (taken at the midpoint in progress, the geometric mean in φ)
/// is within `√1.01 − 1 ≈ 0.5 %` of the true one at either end, with
/// the sign of the error flipping half way: the errors in progress
/// cancel to second order within every hold (DESIGN §5.1).
const PHI_HOLD_DRIFT: f64 = 1.01;

/// Ground-truth φ held constant over a sub-interval of progress.
#[derive(Debug, Clone, Copy)]
struct PhiHold {
    /// φ at the midpoint of the sub-interval.
    phi: f64,
    /// Progress (examples) at which the sub-interval ends.
    until: f64,
}

impl PhiHold {
    /// Ends before any progress: the first use starts a real hold.
    const EXPIRED: Self = Self {
        phi: f64::NAN,
        until: f64::NEG_INFINITY,
    };

    /// The hold that starts at `progress`. φ grows geometrically in
    /// normalized progress, `φ(p) = φ_start · growth^p`, so it moves by
    /// the factor `PHI_HOLD_DRIFT` over `δp = ln(PHI_HOLD_DRIFT) /
    /// |ln growth|` wherever the hold starts; a constant φ (`growth =
    /// 1`, `δp = ∞`) is held to the end of training. A boost multiplies
    /// φ at its threshold, so no hold reaches across one.
    fn starting_at(gns: &GnsProfile, work: f64, progress: f64) -> Self {
        let p = (progress / work).clamp(0.0, 1.0);
        let dp = PHI_HOLD_DRIFT.ln() / (gns.phi_end / gns.phi_start).ln().abs();
        let mut end = (p + dp).min(1.0);
        for &(threshold, _) in &gns.boosts {
            if p < threshold {
                end = end.min(threshold);
            }
        }
        Self {
            phi: gns.phi(0.5 * (p + end)),
            until: end * work,
        }
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

    /// A job of `kind` with the model's whole work ahead of it.
    fn whole_job(kind: ModelKind) -> SimJob {
        let mut spec = TraceGenerator::new(TraceConfig::default())
            .unwrap()
            .generate()
            .swap_remove(0);
        spec.kind = kind;
        spec.work = kind.profile().total_work;
        let user = spec.tuned;
        SimJob::new(spec, user, 1)
    }

    /// The hold's contract against the tick-exact curve, on a fixed
    /// 4-GPU allocation with 1 s ticks, for every model at a small, a
    /// medium and a large batch: at every tick the held φ is within
    /// 0.5 % of the true one — which a hold reaching across a boost
    /// (× 1.5 to × 3) could not be on the first tick past it — and the
    /// progress within 0.5 % of a run advanced by `true_efficiency_at`;
    /// the two finish within a tick of each other, on a few hundred
    /// holds a lifetime.
    #[test]
    fn held_phi_stays_within_its_contract_of_the_tick_exact_curve() {
        let shape = PlacementShape::new(4, 1).unwrap();
        for kind in ModelKind::ALL {
            for scale in [1, 4, 16] {
                let mut held = whole_job(kind);
                let oracle = held.clone();
                let (work, m) = (held.spec.work, scale * held.profile.m0);
                let rate = held.true_throughput(shape, m);
                let label = format!("{kind:?} m = {scale} m0");

                let mut exact = 0.0;
                let mut exact_finish = None;
                let mut boosts_crossed = 0;
                let (mut holds, mut hold_end) = (0, held.hold_end());
                let mut tick = 0u64;
                while held.progress < work {
                    let before = held.progress / work;
                    let eff = held.held_efficiency_at(held.progress, m);
                    if held.hold_end() != hold_end {
                        holds += 1;
                        hold_end = held.hold_end();
                    }
                    let drift = held.hold.phi / held.true_phi();
                    assert!(
                        (1.0 / 1.005..=1.005).contains(&drift),
                        "{label}: held φ is {drift} × the true one at tick {tick}"
                    );
                    held.progress += rate * eff;
                    if exact < work {
                        exact += rate * oracle.true_efficiency_at(exact, m);
                        assert!(
                            (held.progress - exact).abs() <= 0.005 * exact,
                            "{label}: progress {} against {exact} at tick {tick}",
                            held.progress
                        );
                        if exact >= work {
                            exact_finish = Some(tick);
                        }
                    }
                    let after = held.progress / work;
                    boosts_crossed += oracle
                        .profile
                        .gns
                        .boosts
                        .iter()
                        .filter(|&&(threshold, _)| before < threshold && threshold <= after)
                        .count();
                    tick += 1;
                }
                let held_finish = tick - 1;
                let exact_finish = exact_finish.unwrap_or_else(|| {
                    assert!(exact + rate * oracle.true_efficiency_at(exact, m) >= work);
                    tick
                });
                assert!(
                    held_finish.abs_diff(exact_finish) <= 1,
                    "{label}: held run finishes at tick {held_finish}, exact at {exact_finish}"
                );
                assert!(holds <= 320, "{label}: {holds} holds");
                assert_eq!(boosts_crossed, oracle.profile.gns.boosts.len(), "{label}");
            }
        }
    }

    /// A constant φ is held from the first tick to the last and gives
    /// the bits of the unheld expression.
    #[test]
    fn constant_phi_is_one_hold_with_the_unheld_bits() {
        let mut job = whole_job(ModelKind::NeuMFMovieLens);
        job.profile.gns = GnsProfile::constant(1234.5).unwrap();
        let m = 3 * job.profile.m0;
        for k in 0..=1000 {
            let progress = job.spec.work * f64::from(k) / 1000.0;
            assert_eq!(
                job.held_efficiency_at(progress, m).to_bits(),
                job.true_efficiency_at(progress, m).to_bits()
            );
            assert_eq!(job.hold_end(), job.spec.work, "one hold to the end");
        }
    }

    /// Within a hold the efficiency follows the batch size asked about,
    /// not the one the hold was started under.
    #[test]
    fn a_hold_serves_every_batch_size() {
        let mut job = whole_job(ModelKind::ResNet18Cifar10);
        let m0 = job.profile.m0;
        let at_m0 = job.held_efficiency_at(0.0, m0);
        let end = job.hold_end();
        let at_8m0 = job.held_efficiency_at(0.5 * end, 8 * m0);
        assert_eq!(job.hold_end(), end, "still the first hold");
        assert_eq!(at_m0, 1.0);
        let phi = job.hold.phi;
        assert_eq!(at_8m0, (phi + m0 as f64) / (phi + (8 * m0) as f64));
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
