//! Structured telemetry for the Pollux reproduction: RAII wall-clock
//! spans, exact atomic counters, deterministic log-bucket histograms,
//! and per-interval time-series points, draining into a pluggable
//! [`Sink`] (in-memory ring buffer, JSONL file, or nothing).
//!
//! # Determinism contract
//!
//! The simulation engine's golden-digest suite requires that attaching
//! a recorder *cannot* change a `SimResult` bit. Every API here is
//! therefore observational only:
//!
//! - recording never draws from any RNG and never reorders caller
//!   arithmetic — values are copied out, not computed;
//! - wall-clock readings (`Instant`) stay inside [`Event`]s and never
//!   flow back to the caller;
//! - a disabled recorder (the [`Default`]) skips all work, so code
//!   paths are identical whether telemetry is captured or not.
//!
//! # Example
//!
//! ```
//! use pollux_telemetry::{MemorySink, Recorder};
//! use std::sync::Arc;
//!
//! let sink = Arc::new(MemorySink::new(1024));
//! let rec = Recorder::new(sink.clone());
//!
//! {
//!     let _span = rec.span("engine", "reschedule");
//!     rec.incr("engine", "chunks", 1);
//!     rec.observe("engine", "chunk_ticks", 60);
//! } // span emitted here
//! rec.point("engine", "cluster_sample", 60.0, &[("goodput", 123.4)]);
//! rec.flush(); // counter + histogram snapshots
//!
//! assert!(sink.len() >= 4);
//! ```

pub mod chrome;
mod event;
mod histogram;
pub mod json;
mod recorder;
mod sink;

pub use event::{Event, JobExplain, RoundExplain};
pub use histogram::{Histogram, HistogramSnapshot, NUM_BUCKETS};
pub use recorder::{Counter, HistogramHandle, Recorder, SpanGuard};
pub use sink::{JsonlSink, MemorySink, NullSink, Sink};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        let _span = rec.span("a", "b");
        rec.incr("a", "c", 5);
        rec.observe("a", "h", 7);
        rec.point("a", "p", 1.0, &[("x", 2.0)]);
        rec.flush();
        assert_eq!(rec.counter_value("a", "c"), 0);
    }

    #[test]
    fn spans_counters_and_points_reach_the_sink() {
        let sink = Arc::new(MemorySink::new(64));
        let rec = Recorder::new(sink.clone());
        assert!(rec.is_enabled());
        {
            let _span = rec.span("engine", "chunk");
        }
        rec.incr("engine", "ticks", 3);
        rec.incr("engine", "ticks", 4);
        rec.observe("engine", "len", 16);
        rec.point("engine", "sample", 2.5, &[("goodput", 9.0), ("eff", 0.5)]);
        rec.flush();

        assert_eq!(rec.counter_value("engine", "ticks"), 7);
        let events = sink.drain();
        let mut spans = 0;
        let mut counts = 0;
        let mut hists = 0;
        let mut points = 0;
        for e in &events {
            match e {
                Event::Span { name, .. } => {
                    assert_eq!(name, "chunk");
                    spans += 1;
                }
                Event::Count { name, value, .. } => {
                    assert_eq!(name, "ticks");
                    assert_eq!(*value, 7);
                    counts += 1;
                }
                Event::Hist { count, .. } => {
                    assert_eq!(*count, 1);
                    hists += 1;
                }
                Event::Point { time, fields, .. } => {
                    assert_eq!(*time, 2.5);
                    assert_eq!(fields.len(), 2);
                    points += 1;
                }
                other => panic!("unexpected event {other:?}"),
            }
        }
        assert_eq!((spans, counts, hists, points), (1, 1, 1, 1));
    }

    #[test]
    fn cloned_recorders_share_counters() {
        let rec = Recorder::new(Arc::new(NullSink));
        let dup = rec.clone();
        rec.incr("x", "n", 1);
        dup.incr("x", "n", 2);
        assert_eq!(rec.counter_value("x", "n"), 3);
        assert_eq!(dup.counter_value("x", "n"), 3);
    }

    #[test]
    fn hoisted_counter_handles_are_shared_and_exact() {
        let rec = Recorder::new(Arc::new(NullSink));
        let c1 = rec.counter("hot", "adds");
        let c2 = rec.counter("hot", "adds");
        for _ in 0..100 {
            c1.add(1);
            c2.add(2);
        }
        assert_eq!(rec.counter_value("hot", "adds"), 300);
        assert_eq!(c1.value(), 300);
    }

    #[test]
    fn jsonl_events_round_trip() {
        let sink = Arc::new(MemorySink::new(64));
        let rec = Recorder::new(sink.clone());
        {
            let _s = rec.span("sub", "name");
        }
        rec.incr("sub", "c", 41);
        rec.observe("sub", "h", 1023);
        rec.point("sub", "p", -1.5, &[("a", 0.25)]);
        rec.flush();
        for e in sink.drain() {
            let line = e.to_jsonl();
            let back =
                Event::parse_jsonl(&line).unwrap_or_else(|| panic!("line must parse back: {line}"));
            assert_eq!(back, e, "round trip of {line}");
        }
    }
}
