//! End-to-end integration tests: workload generation → simulation →
//! the Pollux policy and baselines, across crate boundaries.

use pollux::cluster::ClusterSpec;
use pollux::control::baselines::tiresias;
use pollux::core::{run_trace, ConfigChoice, PolluxConfig, PolluxPolicy};
use pollux::sched::GaConfig;
use pollux::simulator::SimConfig;
use pollux::workload::{JobSpec, ModelKind, TraceConfig, TraceGenerator};

fn small_trace(num_jobs: usize, seed: u64) -> Vec<JobSpec> {
    TraceGenerator::new(TraceConfig {
        num_jobs,
        duration_hours: 1.0,
        seed,
        ..Default::default()
    })
    .unwrap()
    .generate()
    .into_iter()
    .filter(|j| {
        matches!(
            j.kind,
            ModelKind::ResNet18Cifar10 | ModelKind::NeuMFMovieLens
        )
    })
    .collect()
}

fn quick_pollux() -> PolluxPolicy {
    let mut c = PolluxConfig::default();
    c.sched.ga = GaConfig {
        population: 16,
        generations: 8,
        ..Default::default()
    };
    PolluxPolicy::new(c).unwrap()
}

fn quick_sim(seed: u64) -> SimConfig {
    SimConfig {
        max_sim_time: 16.0 * 3600.0,
        seed,
        ..Default::default()
    }
}

#[test]
fn pollux_finishes_small_workload_and_respects_invariants() {
    let trace = small_trace(10, 21);
    assert!(trace.len() >= 5, "trace too small: {}", trace.len());
    let spec = ClusterSpec::homogeneous(4, 4).unwrap();
    let res = run_trace(
        quick_pollux(),
        &trace,
        ConfigChoice::Tuned,
        spec,
        quick_sim(1),
    )
    .unwrap();

    assert_eq!(res.records.len(), trace.len());
    assert_eq!(res.unfinished(), 0);
    for r in &res.records {
        let jct = r.jct().expect("all jobs finish");
        assert!(jct > 0.0);
        // A job can't finish before it was submitted + some work.
        assert!(r.finish_time.unwrap() > r.submit_time);
        assert!(r.start_time.unwrap() >= r.submit_time);
        assert!(r.gputime > 0.0);
        // Useful examples never exceed raw examples processed.
        assert!(r.useful_examples <= r.examples_processed * (1.0 + 1e-9));
    }
    // The series never oversubscribes the cluster.
    for s in &res.series {
        assert!(s.used_gpus <= s.total_gpus);
    }
}

#[test]
fn pollux_beats_tiresias_on_scalable_workload() {
    // Medium-sized workload of scalable small jobs: Pollux should show
    // a clear advantage in average JCT over the non-adaptive baseline.
    let trace = small_trace(16, 33);
    let spec = ClusterSpec::homogeneous(4, 4).unwrap();
    let pollux = run_trace(
        quick_pollux(),
        &trace,
        ConfigChoice::Tuned,
        spec.clone(),
        quick_sim(2),
    )
    .unwrap();
    let tiresias = run_trace(tiresias(), &trace, ConfigChoice::Tuned, spec, quick_sim(2)).unwrap();
    assert_eq!(pollux.unfinished(), 0);
    assert_eq!(tiresias.unfinished(), 0);
    let pj = pollux.avg_jct().unwrap();
    let tj = tiresias.avg_jct().unwrap();
    assert!(
        pj < tj * 1.05,
        "pollux {:.2}h should not lose to tiresias {:.2}h",
        pj / 3600.0,
        tj / 3600.0
    );
}

#[test]
fn pollux_is_robust_to_user_misconfiguration() {
    // The Fig 7 property: realistic (poor) user configs should barely
    // change Pollux's outcome, because it ignores them.
    let trace = small_trace(12, 44);
    let spec = ClusterSpec::homogeneous(4, 4).unwrap();
    let tuned = run_trace(
        quick_pollux(),
        &trace,
        ConfigChoice::Tuned,
        spec.clone(),
        quick_sim(3),
    )
    .unwrap();
    let realistic = run_trace(
        quick_pollux(),
        &trace,
        ConfigChoice::Realistic,
        spec,
        quick_sim(3),
    )
    .unwrap();
    let a = tuned.avg_jct().unwrap();
    let b = realistic.avg_jct().unwrap();
    let ratio = b / a;
    assert!(
        (0.7..1.3).contains(&ratio),
        "pollux JCT changed {ratio:.2}x with user configs"
    );
}

#[test]
fn restarts_stay_bounded() {
    // The restart penalty must prevent continual reshuffling: on a
    // stable workload, jobs should restart only a handful of times.
    let trace = small_trace(8, 55);
    let spec = ClusterSpec::homogeneous(4, 4).unwrap();
    let res = run_trace(
        quick_pollux(),
        &trace,
        ConfigChoice::Tuned,
        spec,
        quick_sim(4),
    )
    .unwrap();
    for r in &res.records {
        let jct_hours = r.jct().unwrap() / 3600.0;
        // Allow generous slack: a few restarts per job-hour, plus a
        // base that tolerates reallocations forced by arrivals and
        // departures of the other jobs (with a 60 s interval, a short
        // job sees its whole queue turn over within a handful of
        // rounds). Unbounded churn would blow well past this.
        let budget = 6.0 + 8.0 * jct_hours;
        assert!(
            (r.num_restarts as f64) <= budget,
            "job {} restarted {} times in {:.2}h",
            r.id,
            r.num_restarts,
            jct_hours
        );
    }
}

/// The allocation timeline is the telemetry capture's `lifecycle/*`
/// and `round/placement` events; they must tell each job's story as
/// its record does.
#[test]
fn event_timeline_is_consistent() {
    use pollux::core::run_trace_recorded;
    use pollux_telemetry::{Event, MemorySink, Recorder};
    use std::collections::HashMap;
    use std::sync::Arc;

    let trace = small_trace(8, 77);
    let spec = ClusterSpec::homogeneous(4, 4).unwrap();
    let sink = Arc::new(MemorySink::new(1 << 20));
    let res = run_trace_recorded(
        quick_pollux(),
        &trace,
        ConfigChoice::Tuned,
        spec,
        quick_sim(6),
        Recorder::new(sink.clone()),
    )
    .unwrap();

    // (time, subsystem, name, GPUs held after) of every timeline event
    // but the arrivals, which carry the submit time rather than the
    // boundary that spawned the job.
    let mut per_job: HashMap<u64, Vec<(f64, &str, &str, u32)>> = HashMap::new();
    let mut last = f64::NEG_INFINITY;
    let events = sink.drain();
    for e in &events {
        let Event::Timeline {
            subsystem,
            name,
            time,
            job,
            new,
            ..
        } = e
        else {
            continue;
        };
        if name == "arrival" {
            continue;
        }
        // Events are time-ordered.
        assert!(last <= *time, "{name} of job {job} at {time} after {last}");
        last = *time;
        let gpus = new.iter().sum();
        per_job
            .entry(*job)
            .or_default()
            .push((*time, subsystem.as_ref(), name.as_ref(), gpus));
    }
    assert!(!per_job.is_empty());

    for r in &res.records {
        let events = per_job
            .get(&u64::from(r.id.0))
            .expect("every job has events");
        let lifecycle: Vec<_> = events
            .iter()
            .filter(|&&(_, subsystem, _, _)| subsystem == "lifecycle")
            .collect();
        let count = |kind: &str| lifecycle.iter().filter(|e| e.2 == kind).count();
        // Exactly one start, as the first transition; one finish, as
        // the last.
        assert_eq!(lifecycle.first().unwrap().2, "start", "job {}", r.id);
        assert_eq!(lifecycle.last().unwrap().2, "finish", "job {}", r.id);
        assert_eq!(count("start"), 1, "job {}", r.id);
        assert_eq!(count("finish"), 1, "job {}", r.id);
        // The restart count matches the record.
        assert_eq!(count("restart") as u32, r.num_restarts, "job {}", r.id);
        // Timestamps line up with the record.
        assert_eq!(Some(lifecycle.first().unwrap().0), r.start_time);
        assert_eq!(Some(lifecycle.last().unwrap().0), r.finish_time);
        // The job's first placement diff is the one that started it.
        let placed = events.iter().find(|e| e.1 == "round").unwrap();
        assert_eq!(Some(placed.0), r.start_time, "job {}", r.id);
        assert!(placed.3 > 0, "job {} started on no GPUs", r.id);
    }
}

#[test]
fn deterministic_given_seeds() {
    let trace = small_trace(6, 66);
    let spec = ClusterSpec::homogeneous(2, 4).unwrap();
    let a = run_trace(
        quick_pollux(),
        &trace,
        ConfigChoice::Tuned,
        spec.clone(),
        quick_sim(5),
    )
    .unwrap();
    let b = run_trace(
        quick_pollux(),
        &trace,
        ConfigChoice::Tuned,
        spec,
        quick_sim(5),
    )
    .unwrap();
    assert_eq!(a.jcts(), b.jcts());
    assert_eq!(a.node_seconds, b.node_seconds);
}
