//! Self time from a flat span capture.
//!
//! The program's spans carry `start_ns`/`dur_ns` on one clock and no
//! parent link, and the benchmark runs everything on one thread, so a
//! span's parent is the innermost *container* span whose interval
//! contains it. Self time is a span's duration minus its direct
//! children's, which makes the self times of a capture sum to the
//! duration of its root spans exactly.
//!
//! Only container spans can be parents. The scheduler reports
//! `sched/table_build`, `sched/ga_evolve` and `sched/rack_evolve`
//! through `Recorder::record_duration_ns` after the fact, all ending
//! "now": their synthetic intervals overlap each other although the
//! phases ran one after another, so those (and `agent/refit`, which
//! has no children) are leaves and never adopt one another.

use std::collections::BTreeMap;

/// One closed span of a capture.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `subsystem/name`.
    pub key: String,
    /// Start, ns on the recorder's clock.
    pub start_ns: u64,
    /// Duration, ns.
    pub dur_ns: u64,
    /// Leaves never become parents (see the module docs).
    pub leaf: bool,
}

/// Per-name totals over one capture.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Sum of their durations, ns.
    pub total_ns: u64,
    /// Sum of their self times, ns. Signed so that an inconsistent
    /// capture shows as a negative value instead of wrapping.
    pub self_ns: i128,
}

/// The self-time breakdown of one capture.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SelfTimes {
    /// Totals per `subsystem/name`.
    pub by_name: BTreeMap<String, NameTotals>,
    /// Summed duration of the spans no container contains.
    pub roots_ns: u64,
    /// Spans whose children outlast them.
    pub negative_spans: u64,
}

impl SelfTimes {
    /// Summed self time of `key`, seconds (0 when absent).
    pub fn self_s(&self, key: &str) -> f64 {
        self.by_name
            .get(key)
            .map_or(0.0, |t| t.self_ns as f64 / 1e9)
    }

    /// Summed duration of `key`, seconds (0 when absent).
    pub fn total_s(&self, key: &str) -> f64 {
        self.by_name
            .get(key)
            .map_or(0.0, |t| t.total_ns as f64 / 1e9)
    }

    /// Whether every self time is non-negative and they sum to the
    /// root spans' duration.
    pub fn reconciles(&self) -> bool {
        let sum: i128 = self.by_name.values().map(|t| t.self_ns).sum();
        self.negative_spans == 0 && sum == i128::from(self.roots_ns)
    }
}

/// Computes the breakdown; see the module docs.
pub fn self_times(mut spans: Vec<Span>) -> SelfTimes {
    // Parents before children: earlier start first, then the longer
    // span, then containers before leaves of the very same interval.
    spans.sort_by(|a, b| {
        a.start_ns
            .cmp(&b.start_ns)
            .then(b.dur_ns.cmp(&a.dur_ns))
            .then(a.leaf.cmp(&b.leaf))
    });
    let mut children_ns = vec![0u64; spans.len()];
    let mut open: Vec<usize> = Vec::new();
    let mut out = SelfTimes::default();
    for (i, span) in spans.iter().enumerate() {
        let end = span.start_ns + span.dur_ns;
        // Sorted by start, so an open container contains this span
        // exactly when it ends no earlier.
        while open
            .last()
            .is_some_and(|&p| spans[p].start_ns + spans[p].dur_ns < end)
        {
            open.pop();
        }
        match open.last() {
            Some(&p) => children_ns[p] += span.dur_ns,
            None => out.roots_ns += span.dur_ns,
        }
        if !span.leaf {
            open.push(i);
        }
    }
    for (span, &children) in spans.iter().zip(&children_ns) {
        let own = i128::from(span.dur_ns) - i128::from(children);
        if own < 0 {
            out.negative_spans += 1;
        }
        let totals = out.by_name.entry(span.key.clone()).or_default();
        totals.total_ns += span.dur_ns;
        totals.self_ns += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(key: &str, start_ns: u64, dur_ns: u64, leaf: bool) -> Span {
        Span {
            key: key.into(),
            start_ns,
            dur_ns,
            leaf,
        }
    }

    #[test]
    fn self_times_follow_containment_and_sum_to_the_root() {
        // run [0,1000) ⊃ report_round [100,300) ⊃ refit [120,200), [210,290)
        //             ⊃ reschedule [400,900) ⊃ policy [450,850)
        //                  ⊃ table_build and ga_evolve, both reported
        //                    after the fact and so both ending at 840.
        let spans = vec![
            span("sched/ga_evolve", 540, 300, true),
            span("bench/run", 0, 1000, false),
            span("agent/refit", 210, 80, true),
            span("engine/reschedule", 400, 500, false),
            span("sched/table_build", 790, 50, true),
            span("engine/report_round", 100, 200, false),
            span("bench/policy_schedule", 450, 400, false),
            span("agent/refit", 120, 80, true),
        ];
        let st = self_times(spans);
        assert!(st.reconciles());
        assert_eq!(st.roots_ns, 1000);
        let own = |k: &str| st.by_name[k].self_ns;
        assert_eq!(own("bench/run"), 1000 - 200 - 500);
        assert_eq!(own("engine/report_round"), 200 - 160);
        assert_eq!(own("agent/refit"), 160);
        assert_eq!(own("engine/reschedule"), 100);
        // table_build lies inside ga_evolve's synthetic interval but
        // is its sibling: both come off the policy span.
        assert_eq!(own("bench/policy_schedule"), 400 - 300 - 50);
        assert_eq!(own("sched/ga_evolve"), 300);
        assert_eq!(own("sched/table_build"), 50);
        assert_eq!(st.by_name["agent/refit"].total_ns, 160);
    }

    #[test]
    fn several_roots_and_overrunning_children() {
        let st = self_times(vec![
            span("bench/policy_schedule", 0, 100, false),
            span("bench/policy_schedule", 200, 100, false),
            span("sched/rack_evolve", 210, 60, true),
        ]);
        assert!(st.reconciles());
        assert_eq!(st.roots_ns, 200);
        assert_eq!(st.by_name["bench/policy_schedule"].self_ns, 140);

        // Two leaves that together outlast their container cannot have
        // run one after another inside it: flagged, not wrapped.
        let bad = self_times(vec![
            span("bench/policy_schedule", 0, 100, false),
            span("sched/ga_evolve", 10, 90, true),
            span("sched/table_build", 40, 60, true),
        ]);
        assert_eq!(bad.negative_spans, 1);
        assert!(!bad.reconciles());
    }

    #[test]
    fn a_span_that_only_overlaps_a_container_is_not_its_child() {
        let st = self_times(vec![
            span("engine/reschedule", 0, 100, false),
            span("agent/refit", 50, 100, true),
        ]);
        assert_eq!(st.roots_ns, 200);
        assert_eq!(st.by_name["engine/reschedule"].self_ns, 100);
        assert!(st.reconciles());
    }
}
