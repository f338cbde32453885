//! The per-job lifecycle state machine.
//!
//! Exactly one place owns the `Pending → Running → Restarting →
//! Finished` transitions and the bookkeeping that hangs off them
//! (first-start time, restart count, attained GPU-time). The simulator
//! engine and the live `ClusterService` both hold one [`JobLifecycle`]
//! per job and apply the same transitions through the same methods.
//!
//! A lifecycle can carry a timeline emitter
//! ([`JobLifecycle::attach_telemetry`]): each successful transition
//! then emits one `Event::Timeline` instant — `"start"`, `"restart"`,
//! `"wake"`, `"preempt"`, `"finish"` — stamped with the caller's
//! simulation time. Emission is observational only: it never touches
//! the state machine, so runs with and without an emitter are
//! bit-identical. Drivers on wall-clock time (the live service) simply
//! never attach one.

use pollux_telemetry::Recorder;

/// Lifecycle of a job under the control plane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JobState {
    /// Submitted but not yet (or currently not) allocated GPUs.
    Pending,
    /// Training on its current placement.
    Running,
    /// Checkpoint-restarting after a re-allocation; resumes at `until`.
    Restarting {
        /// Time at which training resumes.
        until: f64,
    },
    /// Reached its total work at time `at`.
    Finished {
        /// Completion time.
        at: f64,
    },
}

/// The per-job state machine plus the accounting it owns.
///
/// Fields are private on purpose: every mutation goes through a named
/// transition, so restart/queue-time/GPU-time semantics exist in one
/// place instead of being re-implemented by each driver.
#[derive(Debug, Clone)]
pub struct JobLifecycle {
    state: JobState,
    /// First time the job received GPUs.
    start_time: Option<f64>,
    /// Number of checkpoint-restarts suffered.
    num_restarts: u32,
    /// Attained GPU-time in GPU-seconds.
    gputime: f64,
    /// Timeline emitter: the job's id plus a recorder. `None` until
    /// [`Self::attach_telemetry`]; excluded from equality (two
    /// lifecycles in the same state are equal regardless of who is
    /// listening).
    emitter: Option<(u64, Recorder)>,
}

impl PartialEq for JobLifecycle {
    fn eq(&self, other: &Self) -> bool {
        self.state == other.state
            && self.start_time == other.start_time
            && self.num_restarts == other.num_restarts
            && self.gputime == other.gputime
    }
}

impl Default for JobLifecycle {
    fn default() -> Self {
        Self::new()
    }
}

impl JobLifecycle {
    /// A freshly submitted job: pending, never started, zero service.
    pub fn new() -> Self {
        Self {
            state: JobState::Pending,
            start_time: None,
            num_restarts: 0,
            gputime: 0.0,
            emitter: None,
        }
    }

    /// Attaches a timeline emitter: every subsequent transition emits
    /// an `Event::Timeline` instant tagged with `job` (the job's
    /// numeric id). Disabled recorders cost one branch per
    /// transition.
    pub fn attach_telemetry(&mut self, job: u64, recorder: Recorder) {
        self.emitter = Some((job, recorder));
    }

    #[inline]
    fn emit(&self, kind: &'static str, time: f64) {
        if let Some((job, recorder)) = &self.emitter {
            recorder.timeline("lifecycle", kind, time, *job, &[], &[]);
        }
    }

    /// Current lifecycle state.
    pub fn state(&self) -> JobState {
        self.state
    }

    /// Whether the job has finished.
    pub fn is_finished(&self) -> bool {
        matches!(self.state, JobState::Finished { .. })
    }

    /// Whether the job is actively making progress.
    pub fn is_running(&self) -> bool {
        matches!(self.state, JobState::Running)
    }

    /// Whether the job has ever started training. Drives restart
    /// semantics: any re-allocation after the first start pays the
    /// checkpoint-restart delay (Sec. 5.3), including resuming from a
    /// preempted (checkpointed) state.
    pub fn has_started(&self) -> bool {
        self.start_time.is_some()
    }

    /// First time the job received GPUs, if it ever did.
    pub fn start_time(&self) -> Option<f64> {
        self.start_time
    }

    /// Completion time, if the job finished.
    pub fn finish_time(&self) -> Option<f64> {
        match self.state {
            JobState::Finished { at } => Some(at),
            _ => None,
        }
    }

    /// Number of checkpoint-restarts suffered.
    pub fn num_restarts(&self) -> u32 {
        self.num_restarts
    }

    /// Attained service in GPU-seconds (drives the fairness weight).
    pub fn gputime(&self) -> f64 {
        self.gputime
    }

    /// Time spent queued before the first start, or `None` while the
    /// job has not started.
    pub fn queue_time(&self, submit_time: f64) -> Option<f64> {
        self.start_time.map(|s| s - submit_time)
    }

    /// Accrues attained service. One plain `+=` so drivers that demand
    /// bit-identical f64 accumulation (the simulator) keep their exact
    /// addition order.
    #[inline]
    pub fn accrue_gputime(&mut self, gpu_seconds: f64) {
        self.gputime += gpu_seconds;
    }

    /// Overwrites attained service with a value the caller accumulated
    /// out of band. The simulator engine advances a running job's
    /// gputime in that job's run context (seeded from
    /// [`Self::gputime`], advanced by the same `+=` sequence
    /// [`Self::accrue_gputime`] would have applied) and commits the
    /// result absolutely here, so the stored bits are identical to the
    /// incremental path.
    #[inline]
    pub fn set_gputime(&mut self, gpu_seconds: f64) {
        self.gputime = gpu_seconds;
    }

    /// Applies a GPU grant from a [`crate::Reallocation`] with
    /// `gpus > 0`. `triggers_restart` is the planner's decision: a job
    /// that had already started pays the checkpoint-restart delay and
    /// resumes at `now + restart_delay`; a first start runs
    /// immediately and stamps the start time. No-op on finished jobs
    /// (a round planned before the finish may apply after it).
    pub fn grant(&mut self, triggers_restart: bool, now: f64, restart_delay: f64) {
        if self.is_finished() {
            return;
        }
        if triggers_restart {
            self.state = JobState::Restarting {
                until: now + restart_delay,
            };
            self.num_restarts += 1;
            self.emit("restart", now);
        } else {
            self.state = JobState::Running;
            self.start_time = Some(now);
            self.emit("start", now);
        }
    }

    /// Takes all GPUs away at time `now`: progress is checkpointed,
    /// the job waits. Returns whether the job was active (running or
    /// restarting); pending and finished jobs are unaffected.
    pub fn preempt(&mut self, now: f64) -> bool {
        match self.state {
            JobState::Running | JobState::Restarting { .. } => {
                self.state = JobState::Pending;
                self.emit("preempt", now);
                true
            }
            JobState::Pending | JobState::Finished { .. } => false,
        }
    }

    /// Wakes the job if its restart delay has elapsed. Returns whether
    /// it transitioned to running.
    pub fn wake(&mut self, now: f64) -> bool {
        if let JobState::Restarting { until } = self.state {
            if now >= until {
                self.state = JobState::Running;
                self.emit("wake", now);
                return true;
            }
        }
        false
    }

    /// Marks the job finished at `at`. Valid from any non-finished
    /// state — in particular from `Restarting`, since a job can cross
    /// its work threshold on the very tick it was re-allocated.
    /// Returns `false` (and changes nothing) when already finished, so
    /// a duplicate completion can never move the finish time.
    pub fn finish(&mut self, at: f64) -> bool {
        if self.is_finished() {
            return false;
        }
        self.state = JobState::Finished { at };
        self.emit("finish", at);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_lifecycle_is_pending() {
        let l = JobLifecycle::new();
        assert_eq!(l.state(), JobState::Pending);
        assert!(!l.has_started());
        assert!(!l.is_running());
        assert!(!l.is_finished());
        assert_eq!(l.num_restarts(), 0);
        assert_eq!(l.gputime(), 0.0);
        assert_eq!(l.queue_time(0.0), None);
    }

    #[test]
    fn first_grant_starts_and_stamps_queue_time() {
        let mut l = JobLifecycle::new();
        l.grant(false, 90.0, 30.0);
        assert_eq!(l.state(), JobState::Running);
        assert_eq!(l.start_time(), Some(90.0));
        assert_eq!(l.queue_time(60.0), Some(30.0));
        assert_eq!(l.num_restarts(), 0);
    }

    #[test]
    fn regrant_after_start_pays_restart_delay() {
        let mut l = JobLifecycle::new();
        l.grant(false, 0.0, 30.0);
        l.grant(true, 120.0, 30.0);
        assert_eq!(l.state(), JobState::Restarting { until: 150.0 });
        assert_eq!(l.num_restarts(), 1);
        // Start time is the *first* start only.
        assert_eq!(l.start_time(), Some(0.0));
        // Not yet due.
        assert!(!l.wake(149.0));
        assert!(l.wake(150.0));
        assert!(l.is_running());
    }

    #[test]
    fn finish_inside_restart_delay_sticks() {
        // A job can complete while still waiting out its restart
        // delay (its finish was decided before the re-allocation was
        // applied). The finish must win and the stale wake-up must
        // not resurrect it.
        let mut l = JobLifecycle::new();
        l.grant(false, 0.0, 30.0);
        l.grant(true, 60.0, 30.0);
        assert_eq!(l.state(), JobState::Restarting { until: 90.0 });
        assert!(l.finish(75.0));
        assert_eq!(l.state(), JobState::Finished { at: 75.0 });
        assert!(!l.wake(90.0), "wake must not resurrect a finished job");
        assert_eq!(l.state(), JobState::Finished { at: 75.0 });
        // A duplicate completion cannot move the finish time.
        assert!(!l.finish(80.0));
        assert_eq!(l.finish_time(), Some(75.0));
        // Nor can a stale grant or preemption.
        l.grant(true, 91.0, 30.0);
        assert_eq!(l.state(), JobState::Finished { at: 75.0 });
        assert!(!l.preempt(92.0));
        assert_eq!(l.state(), JobState::Finished { at: 75.0 });
    }

    #[test]
    fn preempt_then_resume_counts_a_restart() {
        let mut l = JobLifecycle::new();
        l.grant(false, 0.0, 30.0);
        assert!(l.preempt(200.0));
        assert_eq!(l.state(), JobState::Pending);
        assert_eq!(l.num_restarts(), 0, "preemption itself is free");
        assert!(l.has_started(), "start survives preemption");
        // Resuming from the checkpoint pays the restart delay.
        l.grant(true, 300.0, 30.0);
        assert_eq!(l.state(), JobState::Restarting { until: 330.0 });
        assert_eq!(l.num_restarts(), 1);
        // Preempting a pending job is a no-op.
        let mut p = JobLifecycle::new();
        assert!(!p.preempt(0.0));
        assert_eq!(p.state(), JobState::Pending);
    }

    #[test]
    fn transitions_emit_timeline_instants() {
        use pollux_telemetry::{Event, MemorySink};
        use std::sync::Arc;

        let sink = Arc::new(MemorySink::new(64));
        let mut l = JobLifecycle::new();
        l.attach_telemetry(17, Recorder::new(sink.clone()));
        l.grant(false, 5.0, 30.0); // start
        l.grant(true, 60.0, 30.0); // restart
        assert!(l.wake(90.0)); // wake
        assert!(l.preempt(120.0)); // preempt
        l.grant(true, 150.0, 30.0); // restart again
        assert!(l.finish(170.0)); // finish (wins over the restart)
        assert!(!l.finish(180.0), "duplicate finish must not re-emit");

        let seen: Vec<(String, f64)> = sink
            .drain()
            .into_iter()
            .filter_map(|e| match e {
                Event::Timeline {
                    name, time, job, ..
                } => {
                    assert_eq!(job, 17);
                    Some((name.to_string(), time))
                }
                _ => None,
            })
            .collect();
        assert_eq!(
            seen,
            vec![
                ("start".to_string(), 5.0),
                ("restart".to_string(), 60.0),
                ("wake".to_string(), 90.0),
                ("preempt".to_string(), 120.0),
                ("restart".to_string(), 150.0),
                ("finish".to_string(), 170.0),
            ]
        );
    }

    #[test]
    fn equality_ignores_the_emitter() {
        let mut a = JobLifecycle::new();
        let b = JobLifecycle::new();
        a.attach_telemetry(1, Recorder::disabled());
        assert_eq!(a, b);
    }

    #[test]
    fn gputime_accrues_in_any_active_state() {
        let mut l = JobLifecycle::new();
        l.grant(false, 0.0, 30.0);
        l.accrue_gputime(4.0);
        l.grant(true, 10.0, 30.0);
        l.accrue_gputime(4.0); // Restarting jobs still hold GPUs.
        assert_eq!(l.gputime(), 8.0);
    }
}
