//! Timeline fidelity: the lifecycle/round events captured by a live
//! recorder must reconstruct, on their own, exactly the per-job facts
//! the engine serializes into `SimResult` — submit, start, and finish
//! times, queue times, and restart counts. The reconstruction uses
//! *only* the event stream (no peeking at engine state), so it pins
//! the contract that a Chrome-trace export or an external audit tool
//! reading the JSONL capture sees the same run the digested result
//! describes.

use std::collections::BTreeMap;
use std::sync::Arc;

use pollux_cluster::{AllocationMatrix, ClusterSpec, JobId};
use pollux_simulator::{PolicyJobView, SchedulingPolicy, SimConfig, Simulation, REPORT_INTERVAL};
use pollux_telemetry::{chrome, Event, MemorySink, Recorder, Sink};
use pollux_workload::{JobSpec, ModelKind, TraceConfig, TraceGenerator, UserConfig};
use rand::rngs::StdRng;

/// 64 staggered jobs drawn from the trace generator, work scaled down
/// so a healthy fraction crosses the finish line inside the horizon
/// (finish instants must be exercised, not just starts).
fn workload_64() -> Vec<(JobSpec, UserConfig)> {
    let trace = TraceGenerator::new(TraceConfig {
        num_jobs: 200,
        seed: 13,
        ..Default::default()
    })
    .unwrap()
    .generate();
    let wl: Vec<(JobSpec, UserConfig)> = trace
        .into_iter()
        .filter(|j| j.kind == ModelKind::ResNet18Cifar10 || j.kind == ModelKind::NeuMFMovieLens)
        .take(64)
        .enumerate()
        .map(|(i, mut spec)| {
            spec.id = JobId(i as u32);
            spec.submit_time = i as f64 * 90.0;
            spec.work *= 0.05;
            let user = spec.tuned;
            (spec, user)
        })
        .collect();
    assert_eq!(wl.len(), 64, "trace filter must yield 64 jobs");
    wl
}

/// Churny rotation policy (the macro_step idiom): placements rotate
/// with a slow phase so the run exercises restarts, preemptions, and
/// co-located distributed jobs.
#[derive(Clone, Copy)]
struct Churn;

impl SchedulingPolicy for Churn {
    fn name(&self) -> &'static str {
        "churn"
    }

    fn adapts_batch_size(&self) -> bool {
        true
    }

    fn schedule(
        &mut self,
        now: f64,
        jobs: &[PolicyJobView<'_>],
        spec: &ClusterSpec,
        _rng: &mut StdRng,
    ) -> AllocationMatrix {
        let nodes = spec.num_nodes();
        let phase = (now / 600.0) as usize;
        let mut m = AllocationMatrix::zeros(jobs.len(), nodes);
        for (j, _) in jobs.iter().enumerate() {
            let start = (j + phase) % nodes;
            if (j + phase).is_multiple_of(3) {
                m.set(j, start, 1);
                m.set(j, (start + 1) % nodes, 1);
            } else {
                m.set(j, start, 1);
            }
        }
        m
    }
}

/// Per-job facts rebuilt purely from the event stream.
#[derive(Default, Debug, PartialEq)]
struct Rebuilt {
    submit_time: Option<f64>,
    start_time: Option<f64>,
    finish_time: Option<f64>,
    num_restarts: u32,
}

fn reconstruct(events: &[Event]) -> BTreeMap<u64, Rebuilt> {
    let mut jobs: BTreeMap<u64, Rebuilt> = BTreeMap::new();
    for e in events {
        let Event::Timeline {
            subsystem,
            name,
            time,
            job,
            ..
        } = e
        else {
            continue;
        };
        if subsystem != "lifecycle" {
            continue;
        }
        let entry = jobs.entry(*job).or_default();
        match name.as_ref() {
            "arrival" => entry.submit_time = Some(*time),
            // The planner grants a non-restart start exactly once per
            // job; keep the first defensively so a duplicate would
            // fail the comparison rather than mask itself.
            "start" => entry.start_time = entry.start_time.or(Some(*time)),
            "finish" => entry.finish_time = Some(*time),
            "restart" => entry.num_restarts += 1,
            _ => {}
        }
    }
    jobs
}

#[test]
fn timeline_events_reconstruct_sim_result() {
    let spec = ClusterSpec::homogeneous(16, 4).unwrap();
    let cfg = SimConfig {
        max_sim_time: 3.0 * 3600.0,
        interference_slowdown: 0.3,
        seed: 42,
        ..Default::default()
    };
    let sink = Arc::new(MemorySink::new(1 << 20));
    let recorder = Recorder::new(sink.clone() as Arc<dyn Sink>);
    let result = Simulation::try_new(cfg, spec, Churn, workload_64())
        .unwrap()
        .with_recorder(recorder)
        .run();
    let events = sink.drain();

    // The capture must be complete: a lossy sink cannot prove
    // fidelity (the flush marker surfaces any eviction).
    assert!(
        !events
            .iter()
            .any(|e| matches!(e, Event::Count { name, .. } if name == "dropped_events")),
        "the sink dropped events"
    );

    let rebuilt = reconstruct(&events);
    assert_eq!(
        rebuilt.len(),
        result.records.len(),
        "every job must appear on the timeline"
    );
    let mut finished = 0usize;
    let mut restarts = 0u32;
    for record in &result.records {
        let got = rebuilt
            .get(&u64::from(record.id.0))
            .unwrap_or_else(|| panic!("job {:?} missing from the timeline", record.id));
        assert_eq!(
            got.submit_time,
            Some(record.submit_time),
            "submit time of {:?}",
            record.id
        );
        assert_eq!(
            got.start_time, record.start_time,
            "start time of {:?}",
            record.id
        );
        assert_eq!(
            got.finish_time, record.finish_time,
            "finish time of {:?}",
            record.id
        );
        assert_eq!(
            got.num_restarts, record.num_restarts,
            "restart count of {:?}",
            record.id
        );
        // Queue time is derived, so it matches by construction —
        // assert anyway to pin the definition.
        let queue = got.start_time.map(|s| s - got.submit_time.unwrap());
        assert_eq!(
            queue,
            record.start_time.map(|s| s - record.submit_time),
            "queue time of {:?}",
            record.id
        );
        finished += usize::from(record.finish_time.is_some());
        restarts += record.num_restarts;
    }
    assert!(
        finished >= 16,
        "workload too idle ({finished} finishes) to pin fidelity"
    );
    assert!(restarts > 0, "churn policy must cause restarts");

    // Placement occupancy slices (the Chrome exporter's input)
    // must stay inside each job's active window.
    let by_id: BTreeMap<u64, &pollux_simulator::JobRecord> = result
        .records
        .iter()
        .map(|r| (u64::from(r.id.0), r))
        .collect();
    let slices = chrome::node_slices(&events);
    assert!(!slices.is_empty(), "placement diffs must open node slices");
    for s in &slices {
        let record = by_id[&s.job];
        let started = record.start_time.expect("sliced jobs were placed");
        assert!(
            s.start >= started - 1e-9,
            "job {} occupies node {} at {} before its start {}",
            s.job,
            s.node,
            s.start,
            started
        );
        if let Some(finish) = record.finish_time {
            assert!(
                s.end <= finish + 1e-9,
                "job {} occupies node {} until {} after its finish {}",
                s.job,
                s.node,
                s.end,
                finish
            );
        }
        assert!((s.node as usize) < 16, "slice on a nonexistent node");
        assert!(s.gpus > 0 && s.gpus <= 4, "per-node GPU count in range");
    }
}

/// The serial report round's telemetry contract, which span
/// reconciliation downstream relies on: a round opens one
/// `engine/report_round` span at its first refit and closes it at its
/// end, so the span encloses every `agent/refit` of the round, rounds
/// without a refit emit none, every refit is counted under exactly one
/// outcome — and none of it reaches the `SimResult`.
#[test]
fn report_rounds_emit_one_span_around_their_refits() {
    let run = |recorder: Option<Recorder>| {
        let cfg = SimConfig {
            max_sim_time: 3.0 * 3600.0,
            seed: 7,
            ..Default::default()
        };
        let workload = workload_64().into_iter().take(6).collect();
        let sim = Simulation::try_new(
            cfg,
            ClusterSpec::homogeneous(4, 4).unwrap(),
            Churn,
            workload,
        )
        .unwrap();
        let result = match recorder {
            Some(r) => sim.with_recorder(r).run(),
            None => sim.run(),
        };
        result.canonical_text()
    };
    let sink = Arc::new(MemorySink::new(1 << 20));
    let recorder = Recorder::new(sink.clone() as Arc<dyn Sink>);
    assert_eq!(run(Some(recorder.clone())), run(None), "recorder on vs off");

    // Spans reach the sink when they close, so a round reads
    // `refit+ report_round` in the span stream, nothing in between.
    let mut open_refits: Vec<(u64, u64)> = Vec::new();
    let (mut rounds, mut refits) = (0u64, 0u64);
    for e in sink.drain() {
        let Event::Span {
            subsystem,
            name,
            start_ns,
            dur_ns,
        } = e
        else {
            continue;
        };
        match (subsystem.as_ref(), name.as_ref()) {
            ("agent", "refit") => {
                refits += 1;
                open_refits.push((start_ns, start_ns + dur_ns));
            }
            ("engine", "report_round") => {
                rounds += 1;
                assert!(
                    !open_refits.is_empty(),
                    "a round without a refit emitted a span"
                );
                for (start, end) in open_refits.drain(..) {
                    assert!(
                        start_ns <= start && end <= start_ns + dur_ns,
                        "refit [{start}, {end}) outside its round [{start_ns}, +{dur_ns})"
                    );
                }
            }
            other => assert!(
                open_refits.is_empty(),
                "{other:?} closed between a refit and its round's span"
            ),
        }
    }
    assert!(open_refits.is_empty(), "refits after the last round span");
    let report_ticks = (3.0 * 3600.0 / REPORT_INTERVAL) as u64;
    assert!(
        0 < rounds && rounds < report_ticks,
        "{rounds} spans over {report_ticks} rounds: quiet rounds must emit none"
    );

    let count = |name| recorder.counter_value("agent", name);
    assert_eq!(count("refits"), refits);
    assert_eq!(
        count("refits"),
        count("refit_cold") + count("refit_warm_accepted") + count("refit_failed")
    );
    assert!(count("refit_cold") > 0 && count("refit_warm_accepted") > 0);
}
