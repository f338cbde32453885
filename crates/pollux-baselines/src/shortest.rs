//! Shortest-remaining-work admission: SRTF and SRSF.
//!
//! Two classic preemptive size-based disciplines, built on the same
//! oracle the Pollux evaluation grants Optimus
//! (`PolicyJobView::remaining_work`):
//!
//! - **SRTF** (shortest remaining time first) ranks jobs by remaining
//!   work alone — the JCT-optimal single-server discipline;
//! - **SRSF** (shortest remaining *service* first, Tiresias's Gittins
//!   flavor) ranks by remaining work × requested GPUs, so a short but
//!   wide job does not starve many narrow ones.
//!
//! Both are the shared [`RankedBackfill`] admission under their own
//! rank (ties break by submission time, then row), preempt freely, and
//! place consolidated — i.e. they differ from Tiresias only in the
//! rank, which is exactly the kind of one-stage-at-a-time comparison
//! the Blox decomposition exists for.

use pollux_control::{ConsolidatedPlacement, Preemption, RankedBackfill, StagedScheduler};

/// Shortest-remaining-time-first: oracle SRTF admission, consolidated
/// placement, full preemption.
pub fn srtf() -> StagedScheduler {
    StagedScheduler::new(
        "srtf",
        RankedBackfill::new("srtf", |j| j.remaining_work),
        ConsolidatedPlacement::admitted_order(),
        Preemption::All,
    )
}

/// Shortest-remaining-service-first: oracle SRSF admission (remaining
/// work × requested GPUs), consolidated placement, full preemption.
pub fn srsf() -> StagedScheduler {
    StagedScheduler::new(
        "srsf",
        RankedBackfill::new("srsf", |j| j.remaining_work * j.user.gpus.max(1) as f64),
        ConsolidatedPlacement::admitted_order(),
        Preemption::All,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pollux_cluster::{ClusterSpec, JobId};
    use pollux_control::{PolicyJobView, SchedulingPolicy};
    use pollux_models::BatchSizeLimits;
    use pollux_workload::UserConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn view<'a>(
        id: u32,
        gpus: u32,
        remaining: f64,
        submit: f64,
        placement: &'a [u32],
    ) -> PolicyJobView<'a> {
        PolicyJobView {
            id: JobId(id),
            user: UserConfig {
                gpus,
                batch_size: 128,
            },
            profile: None,
            limits: BatchSizeLimits::new(128, 1024, 512).unwrap(),
            report: None,
            gputime: 0.0,
            submit_time: submit,
            current_placement: placement,
            started: false,
            batch_size: 128,
            remaining_work: remaining,
        }
    }

    #[test]
    fn srtf_runs_the_shortest_job_first() {
        let empty = vec![0u32];
        let jobs = vec![view(0, 4, 1e6, 0.0, &empty), view(1, 4, 1e3, 50.0, &empty)];
        let spec = ClusterSpec::homogeneous(1, 4).unwrap();
        let mut p = srtf();
        let mut rng = StdRng::seed_from_u64(0);
        let m = p.schedule(100.0, &jobs, &spec, &mut rng);
        assert_eq!(m.gpus_of(1), 4, "short job wins despite later arrival");
        assert_eq!(m.gpus_of(0), 0);
    }

    #[test]
    fn srtf_preempts_running_longer_jobs() {
        let holding = vec![4u32];
        let empty = vec![0u32];
        let jobs = vec![
            view(0, 4, 1e6, 0.0, &holding),
            view(1, 4, 1e3, 50.0, &empty),
        ];
        let spec = ClusterSpec::homogeneous(1, 4).unwrap();
        let mut p = srtf();
        let mut rng = StdRng::seed_from_u64(0);
        let m = p.schedule(100.0, &jobs, &spec, &mut rng);
        assert_eq!(m.gpus_of(1), 4);
        assert_eq!(m.gpus_of(0), 0);
    }

    #[test]
    fn srsf_weights_by_width() {
        // Same remaining time, but job 0 wants 4 GPUs and job 1 wants
        // 1: SRSF ranks the narrow job's service shorter.
        let empty = vec![0u32];
        let jobs = vec![view(0, 4, 1e4, 0.0, &empty), view(1, 1, 9e3, 50.0, &empty)];
        let spec = ClusterSpec::homogeneous(1, 4).unwrap();
        let mut p = srsf();
        let mut rng = StdRng::seed_from_u64(0);
        let m = p.schedule(100.0, &jobs, &spec, &mut rng);
        // service(0) = 4e4 > service(1) = 9e3: job 1 admitted first;
        // job 0 no longer fits and waits.
        assert_eq!(m.gpus_of(1), 1);
        assert_eq!(m.gpus_of(0), 0);

        // SRTF on the same input runs the wide job (1e4 > 9e3 — no:
        // 9e3 < 1e4, so job 1 still first, but then job 0 does not
        // fit either way). Use reversed remaining works instead:
        let jobs = vec![view(0, 4, 8e3, 0.0, &empty), view(1, 1, 9e3, 50.0, &empty)];
        let mut p = srtf();
        let m = p.schedule(100.0, &jobs, &spec, &mut rng);
        assert_eq!(m.gpus_of(0), 4, "SRTF prefers the shorter wide job");
        let mut p = srsf();
        let m = p.schedule(100.0, &jobs, &spec, &mut rng);
        assert_eq!(m.gpus_of(1), 1, "SRSF prefers the smaller service");
        assert_eq!(m.gpus_of(0), 0);
    }

    #[test]
    fn backfills_past_too_wide_jobs() {
        let empty = vec![0u32];
        let jobs = vec![
            view(0, 8, 1e3, 0.0, &empty), // shortest but too wide
            view(1, 2, 1e6, 10.0, &empty),
        ];
        let spec = ClusterSpec::homogeneous(1, 4).unwrap();
        let mut p = srtf();
        let mut rng = StdRng::seed_from_u64(0);
        let m = p.schedule(0.0, &jobs, &spec, &mut rng);
        assert_eq!(m.gpus_of(0), 0);
        assert_eq!(m.gpus_of(1), 2);
    }
}
