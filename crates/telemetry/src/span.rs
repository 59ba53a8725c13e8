//! Causal spans on the simulated clock.
//!
//! A span is one named interval of simulated time, correlated to the
//! admission ticket whose request it served. Spans form trees via
//! parent/child links, and retries/hedges additionally carry a
//! *follows-from* link to the attempt they supersede — the same two edge
//! kinds OpenTelemetry distinguishes, because a hedge is caused by its
//! primary without being nested inside it.
//!
//! Spans are recorded whole (start and end both known at emission): the
//! simulation always knows a stage's duration by the time the stage
//! returns, so there is no open/close lifecycle to leak or mismatch.

use guillotine_types::{SimInstant, TicketId};
use std::collections::HashSet;
use std::fmt;

/// Identifies one recorded span within a [`Tracer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The raw id.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

/// One completed interval of simulated time, with its causal links.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id within the owning tracer.
    pub id: SpanId,
    /// Enclosing span, if any (`None` marks a root).
    pub parent: Option<SpanId>,
    /// Causal predecessor for retries and hedges: the attempt this span
    /// supersedes or races, without being nested inside it.
    pub follows: Option<SpanId>,
    /// The admission ticket this span serves, when known.
    pub ticket: Option<TicketId>,
    /// The shard the work ran on, when the stage is shard-local.
    pub shard: Option<usize>,
    /// Hierarchical stage name, e.g. `serve.shield` or `recovery.hedge`.
    /// Static because every stage name in the system is a literal; this
    /// keeps the record path allocation-free for unannotated spans.
    pub name: &'static str,
    /// When the interval began, on the fleet clock.
    pub start: SimInstant,
    /// When the interval ended.
    pub end: SimInstant,
    /// Freeform detail: outcome, fault id, shed victim, etc.
    pub note: String,
}

impl Span {
    /// The span's duration.
    pub fn elapsed(&self) -> guillotine_types::SimDuration {
        self.end.duration_since(self.start)
    }
}

/// Everything needed to record one span; built by callers with struct
/// update syntax against [`NewSpan::default`] so call sites only name the
/// fields they set.
#[derive(Debug, Clone, Default)]
pub struct NewSpan {
    /// Hierarchical stage name.
    pub name: &'static str,
    /// The admission ticket this span serves.
    pub ticket: Option<TicketId>,
    /// The shard the work ran on.
    pub shard: Option<usize>,
    /// Enclosing span.
    pub parent: Option<SpanId>,
    /// Causal predecessor (retry/hedge).
    pub follows: Option<SpanId>,
    /// Interval start.
    pub start: SimInstant,
    /// Interval end.
    pub end: SimInstant,
    /// Freeform detail.
    pub note: String,
}

/// Collects spans for one run, assigning ids and answering causal queries.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    enabled: bool,
    next_id: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records nothing; [`Tracer::record`] returns `None`.
    pub fn disabled() -> Self {
        Tracer::default()
    }

    /// A tracer that records every span offered to it.
    pub fn enabled() -> Self {
        Tracer {
            enabled: true,
            next_id: 0,
            spans: Vec::new(),
        }
    }

    /// Whether recording is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records a completed span and returns its id, or `None` when the
    /// tracer is disabled (so callers thread `Option<SpanId>` parents
    /// without branching on the enabled flag).
    pub fn record(&mut self, span: NewSpan) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let id = SpanId(self.next_id);
        self.next_id += 1;
        self.spans.push(Span {
            id,
            parent: span.parent,
            follows: span.follows,
            ticket: span.ticket,
            shard: span.shard,
            name: span.name,
            start: span.start,
            end: span.end,
            note: span.note,
        });
        Some(id)
    }

    /// All recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no spans have been recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Spans correlated to one ticket, in recording order.
    pub fn spans_for(&self, ticket: TicketId) -> Vec<&Span> {
        self.spans
            .iter()
            .filter(|s| s.ticket == Some(ticket))
            .collect()
    }

    /// Whether `link`, if set, names a recorded span. Ids are assigned
    /// densely from zero in recording order, so this is a bounds check.
    fn resolves(&self, link: Option<SpanId>) -> bool {
        link.is_none_or(|id| id.0 < self.next_id)
    }

    /// Spans whose parent or follows link names an id that was never
    /// recorded — the broken-causality witness the observability bench
    /// asserts is empty.
    pub fn orphans(&self) -> Vec<&Span> {
        self.spans
            .iter()
            .filter(|s| !self.resolves(s.parent) || !self.resolves(s.follows))
            .collect()
    }

    /// Whether a ticket has a complete span tree: at least one root span
    /// (no parent) carries the ticket, and every span carrying the ticket
    /// has resolvable parent and follows links.
    pub fn has_complete_tree(&self, ticket: TicketId) -> bool {
        let mut rooted = false;
        for span in self.spans.iter().filter(|s| s.ticket == Some(ticket)) {
            if !self.resolves(span.parent) || !self.resolves(span.follows) {
                return false;
            }
            rooted |= span.parent.is_none();
        }
        rooted
    }

    /// Distinct tickets that have at least one span.
    pub fn traced_tickets(&self) -> Vec<TicketId> {
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for span in &self.spans {
            if let Some(t) = span.ticket {
                if seen.insert(t) {
                    out.push(t);
                }
            }
        }
        out
    }
}

/// A span observed inside a shard deployment, before global ids exist.
///
/// A deployment has no handle on the fleet's [`Tracer`] — it is a machine
/// of its own that the fleet only calls into — so it buffers raw spans
/// locally and the fleet drains them with [`ShardTracer::take`] after each
/// batch, assigning ids and parent links at collection time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawSpan {
    /// Stage name, e.g. `serve.prefill` or `stream.chunk`.
    pub name: &'static str,
    /// The ticket the stage served, when the request carried one.
    pub ticket: Option<TicketId>,
    /// Interval start on the shard's clock.
    pub start: SimInstant,
    /// Interval end.
    pub end: SimInstant,
    /// Freeform detail.
    pub note: String,
}

/// Per-shard raw-span buffer; a no-op unless enabled.
#[derive(Debug, Clone, Default)]
pub struct ShardTracer {
    enabled: bool,
    spans: Vec<RawSpan>,
}

impl ShardTracer {
    /// A buffer that records nothing.
    pub fn new() -> Self {
        ShardTracer::default()
    }

    /// Turns recording on or off.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether recording is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Buffers one raw span (dropped when disabled). The note is formatted
    /// only when recording is on: `format_args!("")` for none.
    pub fn push(
        &mut self,
        name: &'static str,
        ticket: Option<TicketId>,
        start: SimInstant,
        end: SimInstant,
        note: fmt::Arguments<'_>,
    ) {
        if self.enabled {
            self.spans.push(RawSpan {
                name,
                ticket,
                start,
                end,
                note: fmt::format(note),
            });
        }
    }

    /// Drains the buffered spans, leaving the buffer empty — and sized for
    /// as many again, since one batch's span count predicts the next's.
    pub fn take(&mut self) -> Vec<RawSpan> {
        let refill = Vec::with_capacity(self.spans.len());
        std::mem::replace(&mut self.spans, refill)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ns: u64) -> SimInstant {
        SimInstant::from_nanos(ns)
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        let id = t.record(NewSpan {
            name: "request",
            ..NewSpan::default()
        });
        assert_eq!(id, None);
        assert!(t.is_empty());
    }

    #[test]
    fn parent_and_follows_links_build_complete_trees() {
        let mut t = Tracer::enabled();
        let ticket = TicketId::new(3);
        let root = t.record(NewSpan {
            name: "request",
            ticket: Some(ticket),
            start: at(0),
            end: at(100),
            ..NewSpan::default()
        });
        let first = t.record(NewSpan {
            name: "serve.dispatch",
            ticket: Some(ticket),
            parent: root,
            start: at(10),
            end: at(40),
            ..NewSpan::default()
        });
        t.record(NewSpan {
            name: "recovery.retry",
            ticket: Some(ticket),
            parent: root,
            follows: first,
            start: at(50),
            end: at(90),
            ..NewSpan::default()
        });
        assert_eq!(t.len(), 3);
        assert!(t.orphans().is_empty());
        assert!(t.has_complete_tree(ticket));
        assert_eq!(t.traced_tickets(), vec![ticket]);
        assert_eq!(t.spans_for(ticket).len(), 3);
    }

    #[test]
    fn dangling_links_are_reported_as_orphans() {
        let mut t = Tracer::enabled();
        let ticket = TicketId::new(9);
        t.record(NewSpan {
            name: "request",
            ticket: Some(ticket),
            ..NewSpan::default()
        });
        t.record(NewSpan {
            name: "serve.dispatch",
            ticket: Some(ticket),
            parent: Some(SpanId(999)),
            ..NewSpan::default()
        });
        assert_eq!(t.orphans().len(), 1);
        assert!(!t.has_complete_tree(ticket));
        // A ticket with no root at all is also incomplete.
        let mut only_child = Tracer::enabled();
        let anchor = only_child.record(NewSpan {
            name: "request",
            ..NewSpan::default()
        });
        only_child.record(NewSpan {
            name: "serve.dispatch",
            ticket: Some(TicketId::new(1)),
            parent: anchor,
            ..NewSpan::default()
        });
        assert!(!only_child.has_complete_tree(TicketId::new(1)));
    }

    #[test]
    fn shard_tracer_buffers_and_drains() {
        let mut s = ShardTracer::new();
        s.push("serve.shield", None, at(0), at(5), format_args!(""));
        assert!(s.take().is_empty(), "disabled buffer stays empty");
        s.set_enabled(true);
        s.push(
            "serve.shield",
            Some(TicketId::new(2)),
            at(0),
            at(5),
            format_args!(""),
        );
        s.push(
            "serve.prefill",
            Some(TicketId::new(2)),
            at(5),
            at(9),
            format_args!("tokens={}", 4),
        );
        let drained = s.take();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].name, "serve.shield");
        assert_eq!(drained[0].note, "");
        assert_eq!(drained[1].note, "tokens=4");
        assert!(s.take().is_empty());
        assert_eq!(
            drained[1].end.duration_since(drained[1].start).as_nanos(),
            4
        );
    }
}
