//! Chrome-trace (Perfetto) export of a telemetry capture.
//!
//! [`chrome_trace`] converts a captured event stream into the Chrome
//! trace-event JSON format (`{"traceEvents":[...]}`), loadable in
//! `ui.perfetto.dev` or `chrome://tracing`:
//!
//! - one *process* per rack holding one *thread* (track) per node;
//!   complete (`"ph":"X"`) slices on a node track are job occupancies
//!   derived from `"placement"` timeline diffs, with held-GPU counts
//!   in `args`;
//! - a `cluster` process carrying counter (`"ph":"C"`) tracks —
//!   goodput, used GPUs, queue depth — from the engine's
//!   `cluster_sample` points, plus instant (`"ph":"i"`) markers for
//!   job arrivals, restarts, and finishes;
//! - a `host (wall clock)` process with the recorder's wall-clock
//!   spans, one track per subsystem. Its timebase is nanoseconds from
//!   recorder creation, unrelated to simulation time; it lives in a
//!   separate process so the tracks are never visually conflated.
//!
//! Timestamps are microseconds: simulation seconds × 10⁶ for the sim
//! processes, `start_ns` / 10³ for the wall-clock process. The export
//! is a pure function of the event multiset — rows are sorted before
//! rendering, so thread-interleaved captures of the same run produce
//! byte-identical traces.

use crate::event::Event;
use crate::json;
use std::collections::{BTreeMap, BTreeSet};

/// Process id for cluster-wide counter tracks and instant markers.
const CLUSTER_PID: u64 = 0;
/// Process id of the first rack; rack `r` maps to `RACK_PID0 + r`.
const RACK_PID0: u64 = 1;
/// Process id for wall-clock span tracks.
const WALL_PID: u64 = 9_999;

/// One output row: a sort key plus the rendered JSON object.
struct Row {
    pid: u64,
    tid: u64,
    ts: f64,
    body: String,
}

/// Counts of the interesting phases in a rendered trace, used by CI
/// smoke checks and tests (see [`stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChromeStats {
    /// Complete (`"ph":"X"`) slices.
    pub slices: usize,
    /// Counter (`"ph":"C"`) samples.
    pub counters: usize,
    /// Instant (`"ph":"i"`) markers.
    pub instants: usize,
}

/// Parses a rendered Chrome trace back and tallies its phases.
/// Returns `None` if `text` is not valid JSON of the expected shape —
/// which is exactly what a CI smoke check wants to detect.
pub fn stats(text: &str) -> Option<ChromeStats> {
    let v = json::parse(text)?;
    let events = v.get("traceEvents")?.as_arr()?;
    let mut out = ChromeStats::default();
    for e in events {
        match e.get("ph")?.as_str()? {
            "X" => out.slices += 1,
            "C" => out.counters += 1,
            "i" => out.instants += 1,
            _ => {}
        }
    }
    Some(out)
}

/// A job occupancy interval on one node, reconstructed from the
/// placement timeline (also the unit the fidelity tests compare
/// against `SimResult` records).
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSlice {
    /// Node index (cluster-wide).
    pub node: u32,
    /// Job identifier.
    pub job: u64,
    /// GPUs the job held on this node over the interval.
    pub gpus: u32,
    /// Interval start (simulation seconds).
    pub start: f64,
    /// Interval end (simulation seconds).
    pub end: f64,
}

/// Reconstructs per-node job occupancy intervals from the timeline
/// events in `events`. Slices still open at the last observed
/// timestamp are closed there. Output is sorted by
/// `(node, start, job)`.
pub fn node_slices(events: &[Event]) -> Vec<NodeSlice> {
    // Open slice per (job, node): (gpus, start).
    let mut open: BTreeMap<(u64, u32), (u32, f64)> = BTreeMap::new();
    let mut done: Vec<NodeSlice> = Vec::new();
    let mut end_time: f64 = 0.0;
    let close = |open: &mut BTreeMap<(u64, u32), (u32, f64)>,
                 done: &mut Vec<NodeSlice>,
                 job: u64,
                 node: u32,
                 at: f64| {
        if let Some((gpus, start)) = open.remove(&(job, node)) {
            done.push(NodeSlice {
                node,
                job,
                gpus,
                start,
                end: at,
            });
        }
    };
    // Process timeline events in simulation-time order: captures from
    // multi-threaded runs interleave lifecycle events arbitrarily, and
    // the open/close bookkeeping below needs per-(job, node) diffs in
    // causal order. The sort key is total, so any permutation of the
    // same events yields the same slices.
    type TimelineRow<'a> = (&'a f64, &'a str, &'a u64, &'a Vec<u32>, &'a Vec<u32>);
    let mut timeline: Vec<TimelineRow<'_>> = Vec::new();
    for e in events {
        match e {
            Event::Timeline {
                name,
                time,
                job,
                old,
                new,
                ..
            } => timeline.push((time, name.as_ref(), job, old, new)),
            Event::Point { time, .. } => end_time = end_time.max(*time),
            _ => {}
        }
    }
    timeline.sort_by(|a, b| {
        a.0.total_cmp(b.0)
            .then_with(|| (a.1, a.2, a.3, a.4).cmp(&(b.1, b.2, b.3, b.4)))
    });
    for (time, name, job, old, new) in timeline {
        end_time = end_time.max(*time);
        match name {
            "placement" => {
                let width = old.len().max(new.len());
                for n in 0..width {
                    let was = old.get(n).copied().unwrap_or(0);
                    let now = new.get(n).copied().unwrap_or(0);
                    if was == now {
                        continue;
                    }
                    if was > 0 {
                        close(&mut open, &mut done, *job, n as u32, *time);
                    }
                    if now > 0 {
                        open.insert((*job, n as u32), (now, *time));
                    }
                }
            }
            "finish" | "preempt" => {
                let nodes: Vec<u32> = open
                    .keys()
                    .filter(|(j, _)| j == job)
                    .map(|&(_, n)| n)
                    .collect();
                for n in nodes {
                    close(&mut open, &mut done, *job, n, *time);
                }
            }
            _ => {}
        }
    }
    let still_open: Vec<(u64, u32)> = open.keys().copied().collect();
    for (job, node) in still_open {
        close(&mut open, &mut done, job, node, end_time);
    }
    done.sort_by(|a, b| {
        (a.node, a.job)
            .cmp(&(b.node, b.job))
            .then(a.start.total_cmp(&b.start))
    });
    done
}

impl Row {
    /// A row whose body opens with the `ph`, `pid` and `tid` every row
    /// carries; `members` writes the phase's own members after them.
    fn new(ph: &str, pid: u64, tid: u64, ts: f64, members: impl FnOnce(&mut json::Obj<'_>)) -> Row {
        let mut body = String::with_capacity(96);
        json::write_obj(&mut body, |o| {
            members(o.field("ph", ph).field("pid", pid).field("tid", tid));
        });
        Row { pid, tid, ts, body }
    }
}

fn push_meta(rows: &mut Vec<Row>, pid: u64, tid: u64, which: &str, name: &str) {
    rows.push(Row::new("M", pid, tid, -1.0, |o| {
        o.field("name", which).obj("args", |args| {
            args.field("name", name);
        });
    }));
}

/// Renders `events` as Chrome trace JSON. Pure and deterministic: the
/// output depends only on the multiset of events, not their order.
pub fn chrome_trace(events: &[Event]) -> String {
    // Topology, if the engine stamped one: nodes_per_rack for the
    // rack grouping. Fallback: every node in one rack.
    let mut num_nodes: u32 = 0;
    let mut nodes_per_rack: u32 = 0;
    for e in events {
        if let Event::Point {
            subsystem,
            name,
            fields,
            ..
        } = e
        {
            if subsystem == "engine" && name == "topology" {
                for (k, v) in fields {
                    match k.as_ref() {
                        "num_nodes" => num_nodes = *v as u32,
                        "nodes_per_rack" => nodes_per_rack = *v as u32,
                        _ => {}
                    }
                }
            }
        }
        if let Event::Timeline { old, new, .. } = e {
            num_nodes = num_nodes.max(old.len().max(new.len()) as u32);
        }
    }
    let rack_of = |node: u32| -> u64 { node.checked_div(nodes_per_rack).unwrap_or(0) as u64 };

    // Scheduler identity, if the run stamped any (`sched/*` metas):
    // the policy names the cluster process so zoo traces are
    // self-describing in the Perfetto process list, and every meta is
    // echoed under `otherData`. Values are deduplicated and joined
    // sorted, so a capture holding several sequential runs stays
    // order-independent.
    let mut meta_values: BTreeMap<(String, String), BTreeSet<String>> = BTreeMap::new();
    for e in events {
        if let Event::Meta {
            subsystem,
            name,
            value,
        } = e
        {
            meta_values
                .entry((subsystem.to_string(), name.to_string()))
                .or_default()
                .insert(value.to_string());
        }
    }
    let metas: BTreeMap<(String, String), String> = meta_values
        .into_iter()
        .map(|(key, vs)| (key, vs.into_iter().collect::<Vec<_>>().join(", ")))
        .collect();
    let cluster_name = match metas.get(&("sched".into(), "policy".into())) {
        Some(p) => format!("cluster ({p})"),
        None => "cluster".to_string(),
    };

    let mut rows: Vec<Row> = Vec::new();

    // Process / thread names.
    push_meta(&mut rows, CLUSTER_PID, 0, "process_name", &cluster_name);
    let num_racks = if num_nodes == 0 {
        0
    } else {
        rack_of(num_nodes - 1) + 1
    };
    for r in 0..num_racks {
        push_meta(
            &mut rows,
            RACK_PID0 + r,
            0,
            "process_name",
            &format!("rack {r}"),
        );
    }
    for n in 0..num_nodes {
        let pid = RACK_PID0 + rack_of(n);
        push_meta(
            &mut rows,
            pid,
            n.into(),
            "thread_name",
            &format!("node {n}"),
        );
    }

    // Job occupancy slices.
    for s in node_slices(events) {
        let pid = RACK_PID0 + rack_of(s.node);
        let ts = s.start * 1e6;
        let dur = (s.end - s.start).max(0.0) * 1e6;
        rows.push(Row::new("X", pid, s.node.into(), ts, |o| {
            o.field("ts", ts)
                .field("dur", dur)
                .field("name", format!("job {}", s.job).as_str())
                .field("cat", "placement")
                .obj("args", |args| {
                    args.field("job", s.job).field("gpus", s.gpus);
                });
        }));
    }

    // Cluster counter tracks + instant markers.
    for e in events {
        match e {
            Event::Point {
                subsystem,
                name,
                time,
                fields,
            } if subsystem == "engine" && name == "cluster_sample" => {
                let ts = *time * 1e6;
                for &(counter, field) in &[
                    ("goodput", "goodput"),
                    ("used GPUs", "used_gpus"),
                    ("queue depth", "pending_jobs"),
                ] {
                    let Some(v) = fields.iter().find(|(k, _)| k == field).map(|&(_, v)| v) else {
                        continue;
                    };
                    rows.push(Row::new("C", CLUSTER_PID, 0, ts, |o| {
                        o.field("ts", ts)
                            .field("name", counter)
                            .obj("args", |args| {
                                args.field(field, v);
                            });
                    }));
                }
            }
            Event::Timeline {
                name, time, job, ..
            } if matches!(name.as_ref(), "arrival" | "restart" | "finish") => {
                let ts = *time * 1e6;
                rows.push(Row::new("i", CLUSTER_PID, 0, ts, |o| {
                    o.field("ts", ts)
                        .field("s", "p")
                        .field("name", format!("{name} job {job}").as_str());
                }));
            }
            _ => {}
        }
    }

    // Wall-clock spans, one track per subsystem.
    let mut span_tids: BTreeMap<String, u64> = BTreeMap::new();
    for e in events {
        if let Event::Span { subsystem, .. } = e {
            let next = span_tids.len() as u64;
            span_tids.entry(subsystem.to_string()).or_insert(next);
        }
    }
    if !span_tids.is_empty() {
        push_meta(&mut rows, WALL_PID, 0, "process_name", "host (wall clock)");
        for (sub, tid) in &span_tids {
            push_meta(&mut rows, WALL_PID, *tid, "thread_name", sub);
        }
        for e in events {
            if let Event::Span {
                subsystem,
                name,
                start_ns,
                dur_ns,
            } = e
            {
                let tid = span_tids[subsystem.as_ref()];
                let ts = *start_ns as f64 / 1e3;
                rows.push(Row::new("X", WALL_PID, tid, ts, |o| {
                    o.field("ts", ts)
                        .field("dur", *dur_ns as f64 / 1e3)
                        .field("name", &**name);
                }));
            }
        }
    }

    // Deterministic render order regardless of capture interleaving.
    rows.sort_by(|a, b| {
        (a.pid, a.tid)
            .cmp(&(b.pid, b.tid))
            .then(a.ts.total_cmp(&b.ts))
            .then_with(|| a.body.cmp(&b.body))
    });

    let mut out = String::with_capacity(rows.len() * 96 + 32);
    json::write_obj(&mut out, |o| {
        o.lines("traceEvents", rows.iter().map(|row| row.body.as_str()));
        if !metas.is_empty() {
            o.obj("otherData", |other| {
                for ((sub, name), joined) in &metas {
                    other.field(&format!("{sub}/{name}"), joined.as_str());
                }
            });
        }
    });
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;

    fn tl(kind: &'static str, time: f64, job: u64, old: &[u32], new: &[u32]) -> Event {
        Event::Timeline {
            subsystem: Cow::Borrowed("round"),
            name: Cow::Borrowed(kind),
            time,
            job,
            old: old.to_vec(),
            new: new.to_vec(),
        }
    }

    fn sample(time: f64, goodput: f64) -> Event {
        Event::Point {
            subsystem: "engine".into(),
            name: "cluster_sample".into(),
            time,
            fields: vec![
                ("goodput".into(), goodput),
                ("used_gpus".into(), 4.0),
                ("pending_jobs".into(), 1.0),
            ],
        }
    }

    fn topology(num_nodes: f64, nodes_per_rack: f64) -> Event {
        Event::Point {
            subsystem: "engine".into(),
            name: "topology".into(),
            time: 0.0,
            fields: vec![
                ("num_nodes".into(), num_nodes),
                ("nodes_per_rack".into(), nodes_per_rack),
            ],
        }
    }

    #[test]
    fn placement_diffs_become_node_slices() {
        let events = [
            tl("placement", 10.0, 1, &[0, 0], &[2, 2]),
            tl("placement", 50.0, 1, &[2, 2], &[4, 0]),
            tl("finish", 90.0, 1, &[], &[]),
        ];
        let slices = node_slices(&events);
        assert_eq!(
            slices,
            vec![
                NodeSlice {
                    node: 0,
                    job: 1,
                    gpus: 2,
                    start: 10.0,
                    end: 50.0
                },
                NodeSlice {
                    node: 0,
                    job: 1,
                    gpus: 4,
                    start: 50.0,
                    end: 90.0
                },
                NodeSlice {
                    node: 1,
                    job: 1,
                    gpus: 2,
                    start: 10.0,
                    end: 50.0
                },
            ]
        );
    }

    #[test]
    fn unclosed_slices_end_at_last_timestamp() {
        let events = [
            tl("placement", 5.0, 3, &[0], &[1]),
            sample(40.0, 1.0), // run keeps going past the last diff
        ];
        let slices = node_slices(&events);
        assert_eq!(slices.len(), 1);
        assert_eq!(slices[0].end, 40.0);
    }

    #[test]
    fn trace_parses_and_counts_phases() {
        let events = [
            topology(4.0, 2.0),
            tl("arrival", 0.0, 7, &[], &[]),
            tl("placement", 10.0, 7, &[0, 0, 0, 0], &[0, 0, 2, 0]),
            tl("restart", 60.0, 7, &[], &[]),
            tl("placement", 60.0, 7, &[0, 0, 2, 0], &[4, 0, 0, 0]),
            sample(30.0, 2.5),
            sample(90.0, 3.5),
            tl("finish", 100.0, 7, &[], &[]),
            Event::Span {
                subsystem: "engine".into(),
                name: "reschedule".into(),
                start_ns: 1_000,
                dur_ns: 5_000,
            },
        ];
        let text = chrome_trace(&events);
        let s = stats(&text).expect("trace is valid JSON");
        assert_eq!(s.slices, 3, "2 sim occupancies + 1 wall span:\n{text}");
        assert_eq!(s.counters, 6, "3 counters × 2 samples");
        assert_eq!(s.instants, 3, "arrival + restart + finish");
        // Rack grouping: node 2 sits in rack 1 → pid 2.
        let v = json::parse(&text).expect("trace is valid JSON");
        let slices: Vec<_> = v
            .get("traceEvents")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .filter(|e| e.get("cat").is_some())
            .collect();
        assert_eq!(slices[0].get("pid").unwrap().as_u64(), Some(1));
        assert_eq!(slices[0].get("tid").unwrap().as_u64(), Some(0));
        assert_eq!(slices[1].get("pid").unwrap().as_u64(), Some(2));
        assert_eq!(slices[1].get("tid").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn export_is_order_insensitive() {
        let mut events = vec![
            topology(2.0, 0.0),
            tl("placement", 1.0, 1, &[0, 0], &[1, 0]),
            tl("placement", 2.0, 2, &[0, 0], &[0, 1]),
            sample(3.0, 1.0),
            tl("finish", 4.0, 1, &[], &[]),
            tl("finish", 5.0, 2, &[], &[]),
        ];
        let a = chrome_trace(&events);
        events.reverse();
        let b = chrome_trace(&events);
        assert_eq!(a, b);
    }
}
