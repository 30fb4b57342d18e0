//! In-memory span recording for the traced run.
//!
//! A span covers one call into a layer's public entry point: its layer
//! name, the entry point, start, end, the span it was opened inside (its
//! parent) and an id that every span of one envelope shares.  Spans are
//! kept in memory and written out once the run's checks have passed.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `vmi.aggregate`.
    pub name: &'static str,
    /// Entry point called, e.g. `send_with`.
    pub op: &'static str,
    /// Envelope (or other unit of work) the call served.
    pub id: u64,
    /// Index of the enclosing span in the same recorder, if any.
    pub parent: Option<usize>,
    /// Start, in ns since the recorder's epoch.
    pub start: u64,
    /// End, in ns since the recorder's epoch.
    pub end: u64,
}

/// Handle for an open span (see [`Recorder::begin`]).
#[must_use = "an open span must be closed with Recorder::end"]
pub struct Open(Option<usize>);

/// A per-thread span recorder.  When disabled, `begin`/`end` read no
/// clock and record nothing, which is how the untraced replay runs.
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    /// A recorder timing from `epoch`; `enabled = false` records nothing.
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        Recorder { epoch, enabled, spans: Vec::new(), stack: Vec::new() }
    }

    /// Whether this recorder records.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span inside the innermost open one.
    pub fn begin(&mut self, name: &'static str, op: &'static str, id: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        let parent = self.stack.last().copied();
        let start = self.now();
        self.spans.push(Span { name, op, id, parent, start, end: start });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Close a span opened by [`Recorder::begin`] (innermost first).
    pub fn end(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let end = self.now();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(idx), "spans close innermost first");
        self.spans[idx].end = end;
    }

    /// Close a span whose envelope id became known only during the call.
    pub fn end_as(&mut self, open: Open, id: u64) {
        if let Some(idx) = open.0 {
            self.spans[idx].id = id;
        }
        self.end(open);
    }

    /// Drop a childless span that turned out to serve nothing (a poll
    /// that found no packet).
    pub fn discard(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(idx), "spans close innermost first");
        debug_assert_eq!(idx + 1, self.spans.len(), "only a childless span can be discarded");
        self.spans.truncate(idx);
    }

    /// Record `f` as one span.
    pub fn span<R>(&mut self, name: &'static str, op: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name, op, id);
        let out = f();
        self.end(open);
        out
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the part of it that its
/// children cover.  Children may overlap one another or stick out of the
/// parent; only the union of their overlap with the parent is removed.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

/// Spans as CSV (`index,id,layer,op,parent,start_ns,end_ns`; parent is
/// the index of the enclosing span, empty at the root).
pub fn to_csv(spans: &[Span]) -> String {
    let mut out = String::from("index,id,layer,op,parent,start_ns,end_ns\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
        writeln!(out, "{i},{},{},{},{parent},{},{}", s.id, s.name, s.op, s.start, s.end).expect("write to String");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span { name, op: "call", id: 1, parent, start, end }
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        assert_eq!(self_times(&[span("a", None, 10, 35)]), vec![25]);
    }

    #[test]
    fn nested_children_are_subtracted_once() {
        // root [0,100) with child [10,40) which has grandchild [20,30):
        // the grandchild counts against the child only.
        let spans = [span("root", None, 0, 100), span("child", Some(0), 10, 40), span("grand", Some(1), 20, 30)];
        assert_eq!(self_times(&spans), vec![70, 20, 10]);
    }

    #[test]
    fn overlapping_children_are_covered_by_their_union() {
        // children [10,50) and [30,70) overlap on [30,50): union is 60.
        let spans = [span("root", None, 0, 100), span("a", Some(0), 10, 50), span("b", Some(0), 30, 70)];
        assert_eq!(self_times(&spans)[0], 40);
        // a child contained in another adds nothing.
        let spans = [span("root", None, 0, 100), span("a", Some(0), 10, 90), span("b", Some(0), 20, 30)];
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn children_sticking_out_of_the_parent_are_clipped() {
        let spans = [span("root", None, 10, 50), span("a", Some(0), 0, 20), span("b", Some(0), 40, 90)];
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn recorder_links_parents_and_disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(Instant::now(), true);
        let outer = rec.begin("outer", "call", 7);
        rec.span("inner", "call", 7, || ());
        rec.end(outer);
        rec.span("after", "call", 8, || ());
        let polled = rec.begin("poll", "call", 0);
        rec.discard(polled);
        let late = rec.begin("late", "call", 0);
        rec.end_as(late, 9);
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 4);
        assert_eq!((spans[0].parent, spans[1].parent, spans[2].parent), (None, Some(0), None));
        assert_eq!((spans[3].name, spans[3].id), ("late", 9));
        assert!(spans.iter().all(|s| s.end >= s.start));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);

        let mut off = Recorder::new(Instant::now(), false);
        let o = off.begin("outer", "call", 1);
        off.end(o);
        assert!(off.into_spans().is_empty());
    }
}
