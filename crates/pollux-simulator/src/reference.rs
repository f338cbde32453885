//! The per-tick oracle the engine is checked against.
//!
//! [`Simulation::run_reference`] advances one tick at a time with no
//! run contexts, no event horizons and no cached products: every tick
//! it rescans the placements for interference, walks every job, and
//! recomputes iteration time, throughput and efficiency from the job
//! itself. It shares the boundary code (`tick_boundaries`) and the
//! model of a tick with [`Simulation::run`] — including the φ each job
//! holds over a sub-interval of its progress, asked of the job afresh
//! every tick — and none of the bookkeeping that makes `run` fast,
//! which is what `tests/macro_step.rs` and the root
//! `tests/engine_identity.rs` compare byte for byte.

use super::{remove_finished_from_active, Simulation};
use crate::config::TICK_SECONDS;
use crate::job::{JobState, SimJob};
use crate::metrics::SimResult;
use pollux_cluster::row_shape;
use pollux_control::SchedulingPolicy;
use rand::Rng;

impl<P: SchedulingPolicy> Simulation<P> {
    /// Runs the simulation through the per-tick reference stepper.
    /// Same result as [`Self::run`], bit for bit, for any fixed seed.
    pub fn run_reference(mut self) -> SimResult {
        self.table.contexts_live = false;
        let dt = TICK_SECONDS;
        let max_ticks = (self.config.max_sim_time / dt).ceil() as u64;

        let mut now = 0.0;
        for tick in 0..max_ticks {
            now = tick as f64 * dt;
            self.tick_boundaries(tick, now);
            self.advance_tick_reference(now);
            self.node_seconds += self.spec.num_nodes() as f64 * dt;

            if self.arrivals.is_empty() && self.table.jobs.iter().all(SimJob::is_finished) {
                now += dt;
                break;
            }
        }

        self.sample(now);
        self.finalize(now)
    }

    /// Advances training for one tick by a scan over every job.
    ///
    /// Finished jobs are also pruned from the active list, which the
    /// shared boundary code iterates; that runs only on finish ticks
    /// and never changes the trajectory.
    pub(super) fn advance_tick_reference(&mut self, now: f64) {
        let dt = TICK_SECONDS;
        let slowdown = self.interference_slowdowns_reference();
        let noise = self.config.measurement_noise;
        let mut finished = Vec::new();
        let t = &mut self.table;
        for (idx, job) in t.jobs.iter_mut().enumerate() {
            match job.state() {
                JobState::Running => {}
                JobState::Restarting { .. } => {
                    let gpu_dt = job.gpus() as f64 * dt;
                    job.lifecycle.accrue_gputime(gpu_dt);
                    continue;
                }
                _ => continue,
            }
            let Some(shape) = job.shape() else { continue };
            let m = job.batch_size;
            let slow = slowdown.get(idx).copied().unwrap_or(0.0);
            let t_iter = job.true_t_iter(shape, m);
            let throughput = (m as f64 / t_iter) * (1.0 - slow);
            let eff = job.held_efficiency_at(job.progress, m);
            job.progress += throughput * eff * dt;
            job.examples_processed += throughput * dt;
            job.lifecycle.accrue_gputime(shape.gpus as f64 * dt);

            // The agent observes a noisy iteration time (including any
            // interference slowdown, which it cannot distinguish).
            let eps: f64 = self.rng.gen_range(-noise..=noise);
            let t_obs = t_iter / (1.0 - slow) * (1.0 + eps);
            job.agent.observe_iteration(shape, m, t_obs);

            if job.progress >= job.spec.work {
                job.lifecycle.finish(now + dt);
                t.interference.clear_job(idx, job.placement());
                job.edit_placement(|row| row.fill(0));
                finished.push(idx);
            }
        }
        if !finished.is_empty() {
            remove_finished_from_active(&mut t.active, &finished);
        }
    }

    /// The interference slowdowns by a full rescan: per node, every
    /// job's placement (recounting its node spread each time) —
    /// O(nodes · jobs · nodes). Produces exactly the values of
    /// [`Self::refresh_slowdowns`], whose outcome
    /// `assert_contexts_current` checks against this in debug builds.
    pub(super) fn interference_slowdowns_reference(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.table.jobs.len()];
        let factor = self.config.interference_slowdown;
        if factor <= 0.0 {
            return out;
        }
        let n = self.spec.num_nodes();
        for node in 0..n {
            let mut distributed = Vec::new();
            for (i, job) in self.table.jobs.iter().enumerate() {
                let row = job.placement();
                if job.is_finished() || node >= row.len() {
                    continue;
                }
                if row[node] > 0 && row_shape(row).is_some_and(|s| s.is_distributed()) {
                    distributed.push(i);
                }
            }
            if distributed.len() > 1 {
                for i in distributed {
                    out[i] = factor;
                }
            }
        }
        out
    }
}
