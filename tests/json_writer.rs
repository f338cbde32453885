//! The one JSON writer's bytes, pinned against text the previous,
//! hand-placed writers produced, plus the reader's two guards against
//! hostile capture lines.
//!
//! `data/capture_excerpt.jsonl` holds one capture line per event kind —
//! quotes, backslashes, control and astral-plane characters, a NaN point
//! field written as `null`, a negative `rack_before`, empty rows — and
//! `data/capture_excerpt.trace.json` the Chrome trace of those events.
//! Both were written by the hand-placed writers the codec replaced; so
//! was the zoo table pinned below.

use pollux::experiments::cell::Summary;
use pollux::experiments::zoo::{ZooResult, ZooRow};
use pollux_telemetry::json::{self, JsonValue, ToJson};
use pollux_telemetry::{chrome, Event};
use proptest::collection::vec;
use proptest::prelude::*;

const EXCERPT: &str = include_str!("data/capture_excerpt.jsonl");
const EXCERPT_TRACE: &str = include_str!("data/capture_excerpt.trace.json");

fn excerpt_events() -> Vec<Event> {
    EXCERPT
        .lines()
        .map(|line| Event::parse_jsonl(line).unwrap_or_else(|| panic!("unparsed: {line}")))
        .collect()
}

#[test]
fn every_excerpt_line_rewrites_to_itself() {
    for line in EXCERPT.lines() {
        let event = Event::parse_jsonl(line).unwrap_or_else(|| panic!("unparsed: {line}"));
        assert_eq!(event.to_jsonl(), line);
    }
    let mut kinds: Vec<&str> = excerpt_events().iter().map(Event::kind).collect();
    kinds.sort_unstable();
    kinds.dedup();
    let mut every = Event::KINDS.to_vec();
    every.sort_unstable();
    assert_eq!(kinds, every, "one line per event kind at least");
}

#[test]
fn chrome_trace_of_the_excerpt_is_pinned() {
    assert_eq!(chrome::chrome_trace(&excerpt_events()), EXCERPT_TRACE);
}

#[test]
fn zoo_table_json_is_pinned() {
    let result = ZooResult {
        rows: vec![
            ZooRow {
                policy: "optimus+oracle",
                stages: Some(("marginal-gain", "consolidated-largest-first", "preempt-all")),
                summary: Summary {
                    avg_jct_hours: 0.5,
                    p50_jct_hours: 0.25,
                    p95_jct_hours: 1.5,
                    p99_jct_hours: 2.0,
                    avg_wait_hours: 0.1,
                    p99_wait_hours: 0.4,
                    makespan_hours: 6.0,
                    avg_efficiency: 0.9,
                    job_throughput: 2345.6,
                    job_goodput: 1234.5,
                    unfinished: 3,
                },
            },
            ZooRow {
                policy: "pollux",
                stages: None,
                summary: Summary {
                    avg_jct_hours: 1.0 / 3.0,
                    p99_jct_hours: f64::NAN,
                    makespan_hours: 1e21,
                    avg_efficiency: f64::INFINITY,
                    job_goodput: -0.0,
                    ..Summary::default()
                },
            },
        ],
        traces: 2,
        jobs: 64,
    };
    assert_eq!(
        result.to_json(),
        concat!(
            r#"{"rows":[{"policy":"optimus+oracle","stages":["marginal-gain","consolidated-largest-first","preempt-all"],"#,
            r#""avg_jct_hours":0.5,"p50_jct_hours":0.25,"p95_jct_hours":1.5,"p99_jct_hours":2,"avg_wait_hours":0.1,"#,
            r#""p99_wait_hours":0.4,"makespan_hours":6,"avg_efficiency":0.9,"job_goodput":1234.5,"unfinished":3},"#,
            r#"{"policy":"pollux","stages":null,"avg_jct_hours":0.3333333333333333,"p50_jct_hours":0,"p95_jct_hours":0,"#,
            r#""p99_jct_hours":null,"avg_wait_hours":0,"p99_wait_hours":0,"makespan_hours":1000000000000000000000,"#,
            r#""avg_efficiency":null,"job_goodput":-0,"unfinished":0}],"traces":2,"jobs":64}"#,
            "\n"
        )
    );
}

#[test]
fn histogram_buckets_past_the_last_are_rejected() {
    // Only buckets 0..=64 exist; bucket 200 once clamped to 200 and
    // made `HistogramSnapshot::percentile` shift past 64 bits.
    let line = r#"{"t":"hist","sub":"a","name":"b","count":1,"buckets":[[200,1]]}"#;
    assert_eq!(Event::parse_jsonl(line), None);
    let last = r#"{"t":"hist","sub":"a","name":"b","count":1,"buckets":[[64,1]]}"#;
    assert!(Event::parse_jsonl(last).is_some());
}

#[test]
fn deep_nesting_is_rejected_not_a_stack_overflow() {
    let depth = 1_000_000;
    assert_eq!(json::parse(&"[".repeat(depth)), None);
    let closed = "[".repeat(depth) + &"]".repeat(depth);
    assert_eq!(json::parse(&closed), None);
    let line = format!(r#"{{"t":"meta","sub":"a","name":"b","value":{closed}}}"#);
    assert_eq!(Event::parse_jsonl(&line), None);
    // Nesting far beyond the four levels the workspace writes still parses.
    let deep_enough = "[".repeat(64) + &"]".repeat(64);
    assert!(json::parse(&deep_enough).is_some());
}

/// Characters that stress escaping: both escape introducers, the named
/// escapes, raw control characters, multi-byte and astral-plane UTF-8.
const PALETTE: &[char] = &[
    'a',
    'Z',
    ' ',
    '"',
    '\\',
    '/',
    '\n',
    '\t',
    '\r',
    '\u{1}',
    '\u{1f}',
    '\u{7f}',
    'é',
    '☃',
    '😀',
    '\u{10fffd}',
];

fn nasty_string() -> impl Strategy<Value = String> {
    vec(0usize..PALETTE.len(), 0..12).prop_map(|idx| idx.into_iter().map(|i| PALETTE[i]).collect())
}

/// One scalar the writer writes, and the value it must read back as.
#[derive(Debug, Clone)]
enum Scalar {
    Str(String),
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
}

impl ToJson for Scalar {
    fn write_json(&self, out: &mut String) {
        match self {
            Scalar::Str(s) => s.as_str().write_json(out),
            Scalar::U64(v) => v.write_json(out),
            Scalar::I64(v) => v.write_json(out),
            Scalar::F64(v) => v.write_json(out),
            Scalar::Bool(v) => v.write_json(out),
        }
    }
}

impl Scalar {
    fn expected(&self) -> JsonValue {
        match self {
            Scalar::Str(s) => JsonValue::Str(s.clone()),
            Scalar::U64(v) => JsonValue::Num(*v as f64),
            Scalar::I64(v) => JsonValue::Num(*v as f64),
            Scalar::F64(v) if v.is_finite() => JsonValue::Num(*v),
            Scalar::F64(_) => JsonValue::Null,
            Scalar::Bool(v) => JsonValue::Bool(*v),
        }
    }
}

fn scalar() -> impl Strategy<Value = Scalar> {
    (
        0u8..6,
        nasty_string(),
        0u64..(1 << 53),
        -(1i64 << 53)..(1i64 << 53),
        -1e12f64..1e12,
    )
        .prop_map(|(kind, s, u, i, f)| match kind {
            0 => Scalar::Str(s),
            1 => Scalar::U64(u),
            2 => Scalar::I64(i),
            3 => Scalar::F64(f),
            4 => Scalar::Bool(u % 2 == 1),
            _ => Scalar::F64([f64::NAN, f64::INFINITY, f64::NEG_INFINITY][(u % 3) as usize]),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn whatever_the_writer_writes_reads_back(
        members in vec((nasty_string(), scalar()), 0..8),
        ints in vec(0u64..(1 << 53), 0..6),
        absent in 0u8..2,
    ) {
        let rendered: Vec<String> = members
            .iter()
            .map(|(_, v)| {
                let mut text = String::new();
                v.write_json(&mut text);
                text
            })
            .collect();
        let mut out = String::new();
        json::write_obj(&mut out, |o| {
            for (key, v) in &members {
                o.field(key, v);
            }
            o.arr("items", |arr| {
                for (_, v) in &members {
                    arr.item(v);
                }
                arr.obj(|o| {
                    for (key, v) in &members {
                        o.field(key, v);
                    }
                });
            })
            .field("ints", ints.as_slice())
            .field("maybe", (absent == 0).then_some(ints.len()))
            .lines("lines", rendered.iter().map(String::as_str));
        });

        let fields: Vec<(String, JsonValue)> =
            members.iter().map(|(k, v)| (k.clone(), v.expected())).collect();
        let values: Vec<JsonValue> = members.iter().map(|(_, v)| v.expected()).collect();
        let mut items = values.clone();
        items.push(JsonValue::Obj(fields.clone()));
        let mut expected = fields;
        expected.push(("items".into(), JsonValue::Arr(items)));
        expected.push((
            "ints".into(),
            JsonValue::Arr(ints.iter().map(|&n| JsonValue::Num(n as f64)).collect()),
        ));
        expected.push((
            "maybe".into(),
            if absent == 0 { JsonValue::Num(ints.len() as f64) } else { JsonValue::Null },
        ));
        expected.push(("lines".into(), JsonValue::Arr(values)));
        prop_assert_eq!(json::parse(&out), Some(JsonValue::Obj(expected)), "through {}", out);
    }
}
