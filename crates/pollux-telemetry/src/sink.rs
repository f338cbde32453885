//! Event sinks: where a [`crate::Recorder`] drains its events.

use crate::event::Event;
use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A destination for telemetry events. Implementations must tolerate
/// concurrent `record` calls (recorders are cloned across threads).
/// Events arrive by value so sinks that retain them (e.g.
/// [`MemorySink`]) never clone on the hot path.
pub trait Sink: Send + Sync + std::fmt::Debug {
    /// Accepts one event.
    fn record(&self, event: Event);

    /// Flushes any buffering. The default is a no-op.
    fn flush(&self) {}
}

/// Discards everything. Useful when only the recorder's live
/// counters are wanted.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl Sink for NullSink {
    fn record(&self, _event: Event) {}
}

/// A bounded in-memory ring buffer: keeps the most recent `capacity`
/// events, counting (rather than blocking on) overflow.
#[derive(Debug)]
pub struct MemorySink {
    capacity: usize,
    events: Mutex<VecDeque<Event>>,
    dropped: AtomicU64,
}

impl MemorySink {
    /// Creates a ring buffer holding at most `capacity` events
    /// (`capacity` is clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            events: Mutex::new(VecDeque::new()),
            dropped: AtomicU64::new(0),
        }
    }

    /// Removes and returns all buffered events, oldest first.
    pub fn drain(&self) -> Vec<Event> {
        self.events.lock().expect("sink lock").drain(..).collect()
    }

    /// The number of currently buffered events.
    pub fn len(&self) -> usize {
        self.events.lock().expect("sink lock").len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

impl Sink for MemorySink {
    fn record(&self, event: Event) {
        let mut q = self.events.lock().expect("sink lock");
        if q.len() == self.capacity {
            q.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        q.push_back(event);
    }

    /// If any events were evicted, appends a
    /// `("telemetry", "dropped_events")` count so report tooling can
    /// warn that the capture is incomplete. Pushed directly into the
    /// queue — the drop marker itself never evicts (or counts as) a
    /// dropped event.
    fn flush(&self) {
        let dropped = self.dropped.load(Ordering::Relaxed);
        if dropped > 0 {
            self.events
                .lock()
                .expect("sink lock")
                .push_back(Event::Count {
                    subsystem: "telemetry".into(),
                    name: "dropped_events".into(),
                    value: dropped,
                });
        }
    }
}

/// Appends each event as one JSONL line to a file, buffered.
#[derive(Debug)]
pub struct JsonlSink {
    /// The file, and the first write or flush error it returned.
    out: Mutex<(BufWriter<File>, Option<io::Error>)>,
}

impl JsonlSink {
    /// Creates (truncating) the capture file at `path`.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        Ok(Self {
            out: Mutex::new((BufWriter::new(File::create(path)?), None)),
        })
    }

    /// Flushes the file, then returns the first write or flush error
    /// since the last call, if there was one.
    pub fn finish(&self) -> io::Result<()> {
        self.flush();
        self.out
            .lock()
            .expect("sink lock")
            .1
            .take()
            .map_or(Ok(()), Err)
    }
}

impl Sink for JsonlSink {
    fn record(&self, event: Event) {
        let (file, error) = &mut *self.out.lock().expect("sink lock");
        // Capture files are best-effort: a full disk must not take the
        // simulation down with it. `finish` reports it afterwards.
        if let Err(e) = writeln!(file, "{}", event.to_jsonl()) {
            error.get_or_insert(e);
        }
    }

    fn flush(&self) {
        let (file, error) = &mut *self.out.lock().expect("sink lock");
        if let Err(e) = file.flush() {
            error.get_or_insert(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count(v: u64) -> Event {
        Event::Count {
            subsystem: "t".into(),
            name: "n".into(),
            value: v,
        }
    }

    #[test]
    fn memory_sink_drops_oldest_on_overflow() {
        let sink = MemorySink::new(3);
        for v in 0..5 {
            sink.record(count(v));
        }
        assert_eq!(sink.dropped(), 2);
        let kept: Vec<u64> = sink
            .drain()
            .iter()
            .map(|e| match e {
                Event::Count { value, .. } => *value,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(kept, vec![2, 3, 4]);
        assert!(sink.is_empty());
    }

    #[test]
    fn memory_sink_flush_surfaces_dropped_count() {
        let sink = MemorySink::new(2);
        for v in 0..5 {
            sink.record(count(v));
        }
        sink.flush();
        let events = sink.drain();
        assert_eq!(
            events.last(),
            Some(&Event::Count {
                subsystem: "telemetry".into(),
                name: "dropped_events".into(),
                value: 3,
            })
        );
        // No drops → no marker.
        let quiet = MemorySink::new(8);
        quiet.record(count(0));
        quiet.flush();
        assert_eq!(quiet.len(), 1);
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let path = std::env::temp_dir().join("pollux-telemetry-sink-test.jsonl");
        let sink = JsonlSink::create(&path).unwrap();
        sink.record(count(7));
        sink.record(count(8));
        sink.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        let parsed: Vec<Event> = text.lines().filter_map(Event::parse_jsonl).collect();
        assert_eq!(parsed, vec![count(7), count(8)]);
        assert!(sink.finish().is_ok());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn jsonl_sink_keeps_its_first_write_error() {
        let Ok(sink) = JsonlSink::create("/dev/full") else {
            return; // No such device on this platform.
        };
        sink.record(count(7));
        let error = sink.finish().expect_err("a write to a full device fails");
        assert_eq!(error.raw_os_error(), Some(28), "{error}");
        assert!(sink.finish().is_err(), "the flush fails again");
    }
}
