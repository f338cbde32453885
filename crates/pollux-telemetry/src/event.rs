//! The telemetry event vocabulary and its JSONL form.

use crate::histogram::NUM_BUCKETS;
use crate::json::{self, JsonValue};
use std::borrow::Cow;

/// One telemetry event. Every variant carries a `(subsystem, name)`
/// pair — e.g. `("engine", "chunk_ticks")` — that report tooling
/// groups by.
///
/// Names are `Cow<'static, str>` so the recorder's hot path (span
/// drops, per-sample points) borrows the `&'static str` literals at
/// call sites instead of allocating; only [`Event::parse_jsonl`]
/// produces owned strings.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A closed wall-clock span. `start_ns` is relative to the
    /// recorder's creation; both fields are machine-dependent and must
    /// never feed back into deterministic state.
    Span {
        /// Subsystem that opened the span.
        subsystem: Cow<'static, str>,
        /// Span name.
        name: Cow<'static, str>,
        /// Nanoseconds from recorder creation to span start.
        start_ns: u64,
        /// Span duration in nanoseconds.
        dur_ns: u64,
    },
    /// A counter snapshot (cumulative value at flush time).
    Count {
        /// Subsystem owning the counter.
        subsystem: Cow<'static, str>,
        /// Counter name.
        name: Cow<'static, str>,
        /// Cumulative value.
        value: u64,
    },
    /// A histogram snapshot: total observation count plus sparse
    /// `(bucket_index, count)` pairs (see [`crate::Histogram`] for the
    /// bucket-to-range mapping).
    Hist {
        /// Subsystem owning the histogram.
        subsystem: Cow<'static, str>,
        /// Histogram name.
        name: Cow<'static, str>,
        /// Total observations.
        count: u64,
        /// Non-empty `(bucket, count)` pairs, ascending by bucket.
        buckets: Vec<(u8, u64)>,
    },
    /// One time-series point: a simulation-time stamp plus named `f64`
    /// fields (e.g. the per-interval cluster goodput sample).
    Point {
        /// Subsystem emitting the series.
        subsystem: Cow<'static, str>,
        /// Series name.
        name: Cow<'static, str>,
        /// Simulation time of the point (seconds; *not* wall clock).
        time: f64,
        /// Named values, in emission order.
        fields: Vec<(Cow<'static, str>, f64)>,
    },
    /// A placement-timeline event: a job lifecycle transition
    /// (`"arrival"`, `"start"`, `"restart"`, `"wake"`, `"preempt"`,
    /// `"finish"` — `old`/`new` empty) or a placement diff
    /// (`"placement"` — `old`/`new` are cluster-width GPUs-per-node
    /// rows). Timestamps are simulation seconds; wall clock never
    /// enters this variant.
    Timeline {
        /// Subsystem emitting the event (`"lifecycle"` or `"round"`).
        subsystem: Cow<'static, str>,
        /// Event kind (doubles as the event name).
        name: Cow<'static, str>,
        /// Simulation time of the transition (seconds).
        time: f64,
        /// Job identifier (`JobId.0` widened).
        job: u64,
        /// Previous GPUs-per-node row (empty for instants).
        old: Vec<u32>,
        /// New GPUs-per-node row (empty for instants).
        new: Vec<u32>,
    },
    /// A string-valued metadata record, e.g. `("sched", "policy")` =
    /// `"tiresias"` so report tooling and the Chrome trace can say
    /// which policy (and which stages) produced a capture. Unlike
    /// [`Event::Point`] fields, the value is text, not `f64`.
    Meta {
        /// Subsystem owning the metadata.
        subsystem: Cow<'static, str>,
        /// Metadata key.
        name: Cow<'static, str>,
        /// Metadata value.
        value: Cow<'static, str>,
    },
    /// One scheduling round's decision audit (see [`RoundExplain`]).
    /// Fixed `("sched", "round_explain")` identity.
    Round(RoundExplain),
}

/// Why one scheduling round decided what it did: the fitness the
/// optimizer achieved, the fitness of leaving every job where it was,
/// and a per-job breakdown ([`JobExplain`]). Written out as
/// [`Event::Round`]; all quantities are derived from scheduler state
/// without touching its RNG or cached counters, so emitting (or not
/// emitting) a `RoundExplain` never perturbs the simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundExplain {
    /// Simulation time of the round (seconds).
    pub time: f64,
    /// Weighted-average SPEEDUP fitness of the chosen allocation
    /// (restart penalties included).
    pub fitness: f64,
    /// Fitness of the status-quo allocation (no penalties — nothing
    /// would move), for the round's fitness delta.
    pub fitness_before: f64,
    /// Whether the rack-decomposed GA path produced this round.
    pub racked: bool,
    /// Per-job decisions, in scheduler row order.
    pub jobs: Vec<JobExplain>,
}

/// One job's slice of a [`RoundExplain`].
#[derive(Debug, Clone, PartialEq)]
pub struct JobExplain {
    /// Job identifier (`JobId.0` widened).
    pub job: u64,
    /// Fairness weight used by the fitness function.
    pub weight: f64,
    /// SPEEDUP of the job's placement entering the round.
    pub speedup_before: f64,
    /// SPEEDUP of the placement the round chose.
    pub speedup_after: f64,
    /// Restart penalty charged against this job in the chosen
    /// allocation (0 when it did not move or had not started).
    pub restart_penalty: f64,
    /// Rack assigned in the previous racked round (-1 if none).
    pub rack_before: i64,
    /// Rack assigned this round (-1 for the flat path).
    pub rack_after: i64,
    /// GPUs held entering the round.
    pub gpus_before: u32,
    /// GPUs granted by the round.
    pub gpus_after: u32,
    /// Jobs sharing at least one node with this one after the round
    /// (interference co-residents), ascending.
    pub co_residents: Vec<u64>,
}

fn parse_u32_arr(v: &JsonValue) -> Option<Vec<u32>> {
    v.as_arr()?
        .iter()
        .map(|x| x.as_u64().map(|n| n.min(u32::MAX as u64) as u32))
        .collect()
}

/// An `f64` slot: a number, or `null` — the writer's spelling of a
/// non-finite value — as NaN, so a line rewrites to itself.
fn f64_of(v: &JsonValue) -> Option<f64> {
    match v {
        JsonValue::Null => Some(f64::NAN),
        v => v.as_f64(),
    }
}

impl Event {
    /// Every [`Event::kind`], in variant order.
    pub const KINDS: [&'static str; 7] = [
        "span", "count", "hist", "point", "timeline", "meta", "round",
    ];

    /// The event's kind: its variant, as the capture's `"t"` tag
    /// spells it and report tooling filters by it.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::Span { .. } => "span",
            Event::Count { .. } => "count",
            Event::Hist { .. } => "hist",
            Event::Point { .. } => "point",
            Event::Timeline { .. } => "timeline",
            Event::Meta { .. } => "meta",
            Event::Round(_) => "round",
        }
    }

    /// The subsystem this event belongs to.
    pub fn subsystem(&self) -> &str {
        match self {
            Event::Span { subsystem, .. }
            | Event::Count { subsystem, .. }
            | Event::Hist { subsystem, .. }
            | Event::Point { subsystem, .. }
            | Event::Timeline { subsystem, .. }
            | Event::Meta { subsystem, .. } => subsystem,
            Event::Round(_) => "sched",
        }
    }

    /// The event name within its subsystem.
    pub fn name(&self) -> &str {
        match self {
            Event::Span { name, .. }
            | Event::Count { name, .. }
            | Event::Hist { name, .. }
            | Event::Point { name, .. }
            | Event::Timeline { name, .. }
            | Event::Meta { name, .. } => name,
            Event::Round(_) => "round_explain",
        }
    }

    /// Renders the event as one JSONL line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(96);
        json::write_obj(&mut out, |o| {
            o.field("t", self.kind())
                .field("sub", self.subsystem())
                .field("name", self.name());
            match self {
                Event::Span {
                    start_ns, dur_ns, ..
                } => o.field("start_ns", start_ns).field("dur_ns", dur_ns),
                Event::Count { value, .. } => o.field("value", value),
                Event::Hist { count, buckets, .. } => {
                    o.field("count", count).arr("buckets", |arr| {
                        for &(bucket, n) in buckets {
                            arr.item([u64::from(bucket), n]);
                        }
                    })
                }
                Event::Point { time, fields, .. } => o.field("time", time).obj("fields", |o| {
                    for (key, v) in fields {
                        o.field(key, v);
                    }
                }),
                Event::Timeline {
                    time,
                    job,
                    old,
                    new,
                    ..
                } => o
                    .field("time", time)
                    .field("job", job)
                    .field("old", old.as_slice())
                    .field("new", new.as_slice()),
                Event::Meta { value, .. } => o.field("value", &**value),
                Event::Round(ex) => o
                    .field("time", ex.time)
                    .field("fitness", ex.fitness)
                    .field("fitness_before", ex.fitness_before)
                    .field("racked", ex.racked)
                    .arr("jobs", |arr| {
                        for j in &ex.jobs {
                            arr.obj(|o| {
                                o.field("job", j.job)
                                    .field("weight", j.weight)
                                    .field("su_before", j.speedup_before)
                                    .field("su_after", j.speedup_after)
                                    .field("penalty", j.restart_penalty)
                                    .field("rack_before", j.rack_before)
                                    .field("rack_after", j.rack_after)
                                    .field("gpus_before", j.gpus_before)
                                    .field("gpus_after", j.gpus_after)
                                    .field("co", j.co_residents.as_slice());
                            });
                        }
                    }),
            };
        });
        out
    }

    /// Parses one JSONL line produced by [`Self::to_jsonl`]. Returns
    /// `None` for blank lines, malformed JSON, or unknown event types
    /// (callers should skip those rather than abort a whole capture).
    pub fn parse_jsonl(line: &str) -> Option<Event> {
        let line = line.trim();
        if line.is_empty() {
            return None;
        }
        let v = json::parse(line)?;
        let sub: Cow<'static, str> = Cow::Owned(v.get("sub")?.as_str()?.to_string());
        let name: Cow<'static, str> = Cow::Owned(v.get("name")?.as_str()?.to_string());
        match v.get("t")?.as_str()? {
            "span" => Some(Event::Span {
                subsystem: sub,
                name,
                start_ns: v.get("start_ns")?.as_u64()?,
                dur_ns: v.get("dur_ns")?.as_u64()?,
            }),
            "count" => Some(Event::Count {
                subsystem: sub,
                name,
                value: v.get("value")?.as_u64()?,
            }),
            "hist" => {
                let mut buckets = Vec::new();
                for pair in v.get("buckets")?.as_arr()? {
                    let pair = pair.as_arr()?;
                    if pair.len() != 2 {
                        return None;
                    }
                    // Only buckets below `NUM_BUCKETS` exist; a line naming
                    // another is not one this writer wrote.
                    let bucket = pair[0].as_u64().filter(|&b| b < NUM_BUCKETS as u64)?;
                    buckets.push((bucket as u8, pair[1].as_u64()?));
                }
                Some(Event::Hist {
                    subsystem: sub,
                    name,
                    count: v.get("count")?.as_u64()?,
                    buckets,
                })
            }
            "point" => {
                let fields = match v.get("fields")? {
                    JsonValue::Obj(pairs) => pairs
                        .iter()
                        .map(|(k, val)| (Cow::Owned(k.clone()), f64_of(val).unwrap_or(0.0)))
                        .collect(),
                    _ => return None,
                };
                Some(Event::Point {
                    subsystem: sub,
                    name,
                    time: f64_of(v.get("time")?).unwrap_or(0.0),
                    fields,
                })
            }
            "timeline" => Some(Event::Timeline {
                subsystem: sub,
                name,
                time: f64_of(v.get("time")?).unwrap_or(0.0),
                job: v.get("job")?.as_u64()?,
                old: parse_u32_arr(v.get("old")?)?,
                new: parse_u32_arr(v.get("new")?)?,
            }),
            "meta" => Some(Event::Meta {
                subsystem: sub,
                name,
                value: Cow::Owned(v.get("value")?.as_str()?.to_string()),
            }),
            "round" => {
                let mut jobs = Vec::new();
                for j in v.get("jobs")?.as_arr()? {
                    let mut co = Vec::new();
                    for c in j.get("co")?.as_arr()? {
                        co.push(c.as_u64()?);
                    }
                    jobs.push(JobExplain {
                        job: j.get("job")?.as_u64()?,
                        weight: f64_of(j.get("weight")?)?,
                        speedup_before: f64_of(j.get("su_before")?)?,
                        speedup_after: f64_of(j.get("su_after")?)?,
                        restart_penalty: f64_of(j.get("penalty")?)?,
                        rack_before: j.get("rack_before")?.as_f64()? as i64,
                        rack_after: j.get("rack_after")?.as_f64()? as i64,
                        gpus_before: j.get("gpus_before")?.as_u64()?.min(u32::MAX as u64) as u32,
                        gpus_after: j.get("gpus_after")?.as_u64()?.min(u32::MAX as u64) as u32,
                        co_residents: co,
                    });
                }
                Some(Event::Round(RoundExplain {
                    time: f64_of(v.get("time")?).unwrap_or(0.0),
                    fitness: f64_of(v.get("fitness")?).unwrap_or(0.0),
                    fitness_before: f64_of(v.get("fitness_before")?).unwrap_or(0.0),
                    racked: matches!(v.get("racked")?, JsonValue::Bool(true)),
                    jobs,
                }))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variant_round_trips() {
        let events = [
            Event::Span {
                subsystem: "engine".into(),
                name: "reschedule".into(),
                start_ns: 12,
                dur_ns: 34_000,
            },
            Event::Count {
                subsystem: "sched".into(),
                name: "fitness_evals".into(),
                // Integers round-trip exactly through the reader's f64
                // representation up to 2^53 — far above any real count.
                value: (1 << 53) - 1,
            },
            Event::Hist {
                subsystem: "engine".into(),
                name: "chunk_ticks".into(),
                count: 18,
                buckets: vec![(0, 1), (6, 17)],
            },
            Event::Point {
                subsystem: "engine".into(),
                name: "cluster_sample".into(),
                time: 3600.0,
                fields: vec![("goodput".into(), 120.5), ("used_gpus".into(), 14.0)],
            },
            Event::Timeline {
                subsystem: "round".into(),
                name: "placement".into(),
                time: 120.0,
                job: 7,
                old: vec![0, 0, 2, 0],
                new: vec![4, 4, 0, 0],
            },
            Event::Timeline {
                subsystem: "lifecycle".into(),
                name: "finish".into(),
                time: 9000.25,
                job: 3,
                old: vec![],
                new: vec![],
            },
            Event::Meta {
                subsystem: "sched".into(),
                name: "policy".into(),
                value: "tiresias \"quoted\"".into(),
            },
            Event::Round(RoundExplain {
                time: 60.0,
                fitness: 0.83,
                fitness_before: 0.79,
                racked: true,
                jobs: vec![JobExplain {
                    job: 7,
                    weight: 1.0,
                    speedup_before: 0.5,
                    speedup_after: 0.75,
                    restart_penalty: 0.25,
                    rack_before: -1,
                    rack_after: 2,
                    gpus_before: 2,
                    gpus_after: 8,
                    co_residents: vec![3, 9],
                }],
            }),
        ];
        let mut kinds: Vec<&str> = events.iter().map(Event::kind).collect();
        kinds.dedup();
        assert_eq!(kinds, Event::KINDS, "one sample per kind, in variant order");
        for e in events {
            let line = e.to_jsonl();
            let tag = json::parse(&line).and_then(|v| v.get("t")?.as_str().map(String::from));
            assert_eq!(tag.as_deref(), Some(e.kind()));
            assert_eq!(Event::parse_jsonl(&line).as_ref(), Some(&e), "{line}");
        }
    }

    #[test]
    fn skips_blanks_and_garbage() {
        assert_eq!(Event::parse_jsonl(""), None);
        assert_eq!(Event::parse_jsonl("   "), None);
        assert_eq!(Event::parse_jsonl("not json"), None);
        assert_eq!(
            Event::parse_jsonl(r#"{"t":"mystery","sub":"a","name":"b"}"#),
            None
        );
    }
}
