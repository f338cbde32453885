//! The recorder: the single handle instrumented code holds.
//!
//! A [`Recorder`] routes events to a [`Sink`]; the [`Default`] one is
//! disabled and every method on it is one `None` check, so the
//! instrumentation in the engine, scheduler, agent and service runs
//! unconditionally.

use crate::event::{Event, RoundExplain};
use crate::histogram::Histogram;
use crate::sink::Sink;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

type Key = (&'static str, &'static str);

#[derive(Debug)]
struct Inner {
    sink: Arc<dyn Sink>,
    epoch: Instant,
    // BTreeMaps so flush order (and therefore capture files) is
    // independent of registration order.
    counters: Mutex<BTreeMap<Key, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<Key, Arc<Histogram>>>,
}

/// A cloneable telemetry handle. The [`Default`] is disabled: all
/// methods early-out, so unconditionally instrumented code costs
/// one branch when nobody is listening.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Deliberately opaque: a recorder may sit inside structs
        // whose Debug form is digested by a golden, and wall-clock
        // state must never leak there.
        f.debug_struct("Recorder")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Recorder {
    /// A recorder that records nothing (same as [`Default`]).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Creates a recorder draining into `sink`.
    pub fn new(sink: Arc<dyn Sink>) -> Self {
        Self {
            inner: Some(Arc::new(Inner {
                sink,
                epoch: Instant::now(),
                counters: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
            })),
        }
    }

    /// Whether events are being captured.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a wall-clock span; the event is emitted when the
    /// returned guard drops.
    pub fn span(&self, subsystem: &'static str, name: &'static str) -> SpanGuard {
        SpanGuard {
            active: self
                .inner
                .as_ref()
                .map(|i| (Arc::clone(i), subsystem, name, Instant::now())),
        }
    }

    /// Emits a span for a duration measured by the caller (used
    /// where an `Instant` pair already exists).
    pub fn record_duration_ns(&self, subsystem: &'static str, name: &'static str, ns: u64) {
        if let Some(inner) = &self.inner {
            let end = inner.epoch.elapsed().as_nanos() as u64;
            inner.sink.record(Event::Span {
                subsystem: subsystem.into(),
                name: name.into(),
                start_ns: end.saturating_sub(ns),
                dur_ns: ns,
            });
        }
    }

    /// Adds to a named counter. For hot paths prefer hoisting a
    /// [`Counter`] handle via [`Self::counter`].
    pub fn incr(&self, subsystem: &'static str, name: &'static str, delta: u64) {
        self.counter(subsystem, name).add(delta);
    }

    /// A shared handle to a named counter: one atomic add per
    /// `add` call, no locking.
    pub fn counter(&self, subsystem: &'static str, name: &'static str) -> Counter {
        Counter {
            cell: self.inner.as_ref().map(|inner| {
                Arc::clone(
                    inner
                        .counters
                        .lock()
                        .expect("counter registry")
                        .entry((subsystem, name))
                        .or_default(),
                )
            }),
        }
    }

    /// The current value of a counter (0 when disabled or never
    /// touched). Primarily for tests and reports.
    pub fn counter_value(&self, subsystem: &'static str, name: &'static str) -> u64 {
        match &self.inner {
            Some(inner) => inner
                .counters
                .lock()
                .expect("counter registry")
                .get(&(subsystem, name))
                .map(|c| c.load(Ordering::Relaxed))
                .unwrap_or(0),
            None => 0,
        }
    }

    /// Records one observation into a named histogram.
    pub fn observe(&self, subsystem: &'static str, name: &'static str, value: u64) {
        self.histogram(subsystem, name).observe(value);
    }

    /// A shared handle to a named histogram.
    pub fn histogram(&self, subsystem: &'static str, name: &'static str) -> HistogramHandle {
        HistogramHandle {
            hist: self.inner.as_ref().map(|inner| {
                Arc::clone(
                    inner
                        .histograms
                        .lock()
                        .expect("histogram registry")
                        .entry((subsystem, name))
                        .or_default(),
                )
            }),
        }
    }

    /// Emits one time-series point.
    pub fn point(
        &self,
        subsystem: &'static str,
        name: &'static str,
        time: f64,
        fields: &[(&'static str, f64)],
    ) {
        if let Some(inner) = &self.inner {
            inner.sink.record(Event::Point {
                subsystem: subsystem.into(),
                name: name.into(),
                time,
                fields: fields.iter().map(|&(k, v)| (k.into(), v)).collect(),
            });
        }
    }

    /// Emits one string-valued metadata record (e.g.
    /// `("sched", "policy")` = `"tiresias"`). Report tooling keeps
    /// the latest value per `(subsystem, name)`.
    pub fn meta(&self, subsystem: &'static str, name: &'static str, value: &str) {
        if let Some(inner) = &self.inner {
            inner.sink.record(Event::Meta {
                subsystem: subsystem.into(),
                name: name.into(),
                value: std::borrow::Cow::Owned(value.to_string()),
            });
        }
    }

    /// Emits one placement-timeline event (see
    /// [`Event::Timeline`]). The placement slices are cloned only
    /// when a sink is attached, so disabled recorders pay one
    /// branch.
    pub fn timeline(
        &self,
        subsystem: &'static str,
        kind: &'static str,
        time: f64,
        job: u64,
        old: &[u32],
        new: &[u32],
    ) {
        if let Some(inner) = &self.inner {
            inner.sink.record(Event::Timeline {
                subsystem: subsystem.into(),
                name: kind.into(),
                time,
                job,
                old: old.to_vec(),
                new: new.to_vec(),
            });
        }
    }

    /// Emits one scheduling-round audit record. Callers should
    /// build the [`RoundExplain`] only when [`Self::is_enabled`]
    /// to keep the disabled path free.
    pub fn round_explain(&self, explain: RoundExplain) {
        if let Some(inner) = &self.inner {
            inner.sink.record(Event::Round(explain));
        }
    }

    /// Emits cumulative snapshots of every counter and histogram,
    /// then flushes the sink. Call at the end of a run; repeated
    /// flushes re-emit the (monotone) cumulative values, and
    /// report tooling keeps the latest snapshot per name.
    pub fn flush(&self) {
        let Some(inner) = &self.inner else { return };
        for (&(sub, name), cell) in inner.counters.lock().expect("counter registry").iter() {
            inner.sink.record(Event::Count {
                subsystem: sub.into(),
                name: name.into(),
                value: cell.load(Ordering::Relaxed),
            });
        }
        for (&(sub, name), hist) in inner.histograms.lock().expect("histogram registry").iter() {
            let snap = hist.snapshot();
            inner.sink.record(Event::Hist {
                subsystem: sub.into(),
                name: name.into(),
                count: snap.count,
                buckets: snap.buckets,
            });
        }
        inner.sink.flush();
    }
}

/// RAII span guard: emits a [`Event::Span`] on drop.
#[must_use = "a span measures until the guard drops; bind it to a variable"]
#[derive(Debug)]
pub struct SpanGuard {
    active: Option<(Arc<Inner>, &'static str, &'static str, Instant)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((inner, subsystem, name, start)) = self.active.take() {
            let start_ns = start.duration_since(inner.epoch).as_nanos() as u64;
            let dur_ns = start.elapsed().as_nanos() as u64;
            inner.sink.record(Event::Span {
                subsystem: subsystem.into(),
                name: name.into(),
                start_ns,
                dur_ns,
            });
        }
    }
}

/// Hoisted counter handle: a bare `AtomicU64::fetch_add(Relaxed)`
/// per call, exact under any number of concurrent writers.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Option<Arc<AtomicU64>>,
}

impl Counter {
    /// A detached handle that records nothing until replaced by a
    /// live one from [`Recorder::counter`].
    pub fn detached() -> Self {
        Counter { cell: None }
    }

    /// Adds `delta` to the counter.
    #[inline]
    pub fn add(&self, delta: u64) {
        if let Some(cell) = &self.cell {
            cell.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// The current value (0 when disabled).
    pub fn value(&self) -> u64 {
        self.cell
            .as_ref()
            .map(|c| c.load(Ordering::Relaxed))
            .unwrap_or(0)
    }
}

/// Hoisted histogram handle.
#[derive(Debug, Clone, Default)]
pub struct HistogramHandle {
    hist: Option<Arc<Histogram>>,
}

impl HistogramHandle {
    /// Records one observation.
    #[inline]
    pub fn observe(&self, value: u64) {
        if let Some(hist) = &self.hist {
            hist.observe(value);
        }
    }
}
