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
//!
//! # How spans are held
//!
//! Every interposition leaves a span and tracing is meant to stay fully
//! on, so a span is stored once (a shard stage span is written twice: its
//! shard's buffer, then here) and its history costs nothing afterwards:
//!
//! - A stored [`Span`] is 64 bytes (asserted at compile time): `u32` ids,
//!   a narrow shard index, and the freeform note — empty on everything but
//!   recovery, sever and crash spans — held out of line behind
//!   [`Tracer::note`].
//! - The [`Tracer`] appends into fixed-size segments. Growth allocates one
//!   more segment; nothing recorded earlier is ever re-reserved or moved.
//!   [`Tracer::spans`] lends a view over the segments in recording order.
//! - Each span links to the previous span of its ticket and the tracer
//!   keeps every ticket's newest span, so [`Tracer::spans_for`] and
//!   [`Tracer::has_complete_tree`] walk the ticket's own chain — O(own
//!   spans), whatever else the store holds. Beside it sits the ticket's
//!   most recent root: [`Tracer::root_of`] is the parent of whatever is
//!   recorded for the ticket next, so no caller carries a map of roots.
//!
//! # One timebase per tree
//!
//! A deployment serves on its own clock, which counts only that shard's
//! serving time, so the [`RawSpan`]s a [`ShardTracer`] buffers carry
//! shard-clock instants. The fleet rebases them onto its own clock when it
//! drains the buffer — `fleet clock at batch start + (instant − shard clock
//! at batch start)`, an offset that leaves every duration untouched — so
//! every [`Span`] in a [`Tracer`] is on the fleet clock and a stage span
//! lies inside the `fleet.subbatch` and `fleet.batch` that caused it.

use guillotine_types::{SimInstant, TicketId};
use std::collections::BTreeMap;
use std::fmt;
use std::num::NonZeroU32;

/// Spans per storage segment (256 KiB of 64-byte spans): large enough that
/// segment allocations are rare, small enough that the unused tail of the
/// newest segment is noise next to a fleet's other buffers.
const SEGMENT_SPANS: usize = 4096;

/// Tickets per page of the ticket index (8 KiB pages).
const TICKETS_PER_PAGE: usize = 1024;

/// One run of spans, allocated whole at its full capacity and never regrown.
type Segment = Vec<Span>;

/// Identifies one recorded span within a [`Tracer`]: a `u32`, assigned
/// densely from zero in recording order. (Held as `raw + 1` so an absent
/// link costs no extra bytes in a [`Span`].)
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(NonZeroU32);

impl SpanId {
    /// The id whose raw value is `raw`; `None` for `u32::MAX`, which no
    /// tracer ever assigns (recording stops there instead of wrapping).
    pub const fn new(raw: u32) -> Option<SpanId> {
        match NonZeroU32::new(raw.wrapping_add(1)) {
            Some(held) => Some(SpanId(held)),
            None => None,
        }
    }

    /// The raw id.
    pub const fn raw(self) -> u32 {
        self.0.get() - 1
    }
}

impl fmt::Debug for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SpanId({})", self.raw())
    }
}

/// One completed interval of simulated time, with its causal links. Its
/// freeform note, if it has one, is read through [`Tracer::note`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
    pub shard: Option<u16>,
    /// Hierarchical stage name, e.g. `serve.shield` or `recovery.hedge`.
    /// Static because every stage name in the system is a literal.
    pub name: &'static str,
    /// When the interval began, on the fleet clock.
    pub start: SimInstant,
    /// When the interval ended, on the fleet clock.
    pub end: SimInstant,
    /// The previous span recorded for the same ticket: the per-ticket chain
    /// the tracer's ticket queries walk.
    pub(crate) earlier: Option<SpanId>,
}

const _: () = assert!(std::mem::size_of::<Span>() <= 64);

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
    /// Freeform detail: outcome, fault id, shed victim, etc.
    pub note: String,
}

/// What the index keeps per ticket.
#[derive(Debug, Clone, Copy, Default)]
struct TicketSlot {
    /// The ticket's newest span: the head of its `earlier` chain.
    newest: Option<SpanId>,
    /// The ticket's most recent parentless span. Most recent, not first: a
    /// ticket id minted again after a torn enqueue lost its first admission
    /// is a new request, and its spans belong under the new root.
    root: Option<SpanId>,
}

/// Each ticket's newest span and root: a page table over raw ticket ids,
/// which the admission queue mints densely, so a page is allocated once per
/// [`TICKETS_PER_PAGE`] tickets and never moved.
#[derive(Debug, Default)]
struct TicketIndex {
    pages: BTreeMap<u32, Box<[TicketSlot; TICKETS_PER_PAGE]>>,
}

impl TicketIndex {
    fn locate(ticket: TicketId) -> (u32, usize) {
        let per_page = TICKETS_PER_PAGE as u32;
        (ticket.raw() / per_page, (ticket.raw() % per_page) as usize)
    }

    fn slot(&self, ticket: TicketId) -> Option<&TicketSlot> {
        let (page, slot) = Self::locate(ticket);
        Some(&self.pages.get(&page)?[slot])
    }

    /// Makes `id` the ticket's newest span — and its root, if `is_root` —
    /// and returns the newest span it replaces.
    fn replace(&mut self, ticket: TicketId, id: SpanId, is_root: bool) -> Option<SpanId> {
        let (page, slot) = Self::locate(ticket);
        let slot = &mut self
            .pages
            .entry(page)
            .or_insert_with(|| Box::new([TicketSlot::default(); TICKETS_PER_PAGE]))[slot];
        if is_root {
            slot.root = Some(id);
        }
        slot.newest.replace(id)
    }
}

/// Collects spans for one run, assigning ids and answering causal queries.
///
/// Spans are appended into fixed-size segments — growth allocates one more
/// segment and never re-reserves or moves what is already recorded — and
/// each span links to the previous span of its ticket, so a ticket query
/// walks the ticket's own spans only.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    /// Capacity of every segment: [`SEGMENT_SPANS`] outside tests.
    segment_len: usize,
    /// Every segment but the last is full, so span `i` is at
    /// `segments[i / segment_len][i % segment_len]`.
    segments: Vec<Segment>,
    /// Spans recorded, which is also the next raw id.
    len: u32,
    /// The non-empty notes, ascending by span id.
    notes: Vec<(SpanId, String)>,
    tickets: TicketIndex,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::disabled()
    }
}

impl Tracer {
    pub(crate) fn new(enabled: bool, segment_len: usize) -> Self {
        Tracer {
            enabled,
            segment_len,
            segments: Vec::new(),
            len: 0,
            notes: Vec::new(),
            tickets: TicketIndex::default(),
        }
    }

    /// A tracer that records nothing; [`Tracer::record`] returns `None`.
    pub fn disabled() -> Self {
        Tracer::new(false, SEGMENT_SPANS)
    }

    /// A tracer that records every span offered to it. Nothing is
    /// allocated until the first one arrives.
    pub fn enabled() -> Self {
        Tracer::new(true, SEGMENT_SPANS)
    }

    /// Whether recording is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records a completed span and returns its id, or `None` when the
    /// tracer is disabled (so callers thread `Option<SpanId>` parents
    /// without branching on the enabled flag) — and once the `u32` ids are
    /// used up, where recording stops rather than wrap.
    pub fn record(&mut self, span: NewSpan) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let id = SpanId::new(self.len)?;
        let stored = Span {
            id,
            parent: span.parent,
            follows: span.follows,
            ticket: span.ticket,
            shard: span.shard.and_then(|shard| u16::try_from(shard).ok()),
            name: span.name,
            start: span.start,
            end: span.end,
            earlier: span
                .ticket
                .and_then(|ticket| self.tickets.replace(ticket, id, span.parent.is_none())),
        };
        match self.segments.last_mut() {
            Some(segment) if segment.len() < self.segment_len => segment.push(stored),
            _ => {
                let mut segment = Segment::with_capacity(self.segment_len);
                segment.push(stored);
                self.segments.push(segment);
            }
        }
        if !span.note.is_empty() {
            self.notes.push((id, span.note));
        }
        self.len += 1;
        Some(id)
    }

    /// All recorded spans, in recording order.
    pub fn spans(&self) -> Spans<'_> {
        Spans { tracer: self }
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether no spans have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The freeform detail recorded with span `id`; empty when it had none
    /// (or `id` names no span).
    pub fn note(&self, id: SpanId) -> &str {
        self.notes
            .binary_search_by_key(&id, |(noted, _)| *noted)
            .ok()
            .and_then(|at| self.notes.get(at))
            .map_or("", |(_, note)| note)
    }

    /// A ticket's spans, newest first, by its chain of `earlier` links.
    fn chain(&self, ticket: TicketId) -> impl Iterator<Item = &Span> {
        let spans = self.spans();
        let at = move |link: Option<SpanId>| link.and_then(|id| spans.get(id));
        let newest = self.tickets.slot(ticket).and_then(|slot| slot.newest);
        std::iter::successors(at(newest), move |span| at(span.earlier))
    }

    /// The ticket's most recent root (parentless) span: the parent of
    /// whatever is recorded for the ticket next. O(1).
    pub fn root_of(&self, ticket: TicketId) -> Option<SpanId> {
        self.tickets.slot(ticket)?.root
    }

    /// Spans correlated to one ticket, in recording order.
    pub fn spans_for(&self, ticket: TicketId) -> Vec<&Span> {
        let mut own: Vec<&Span> = self.chain(ticket).collect();
        own.reverse();
        own
    }

    /// Whether `link`, if set, names a recorded span. Ids are assigned
    /// densely from zero in recording order, so this is a bounds check.
    fn resolves(&self, link: Option<SpanId>) -> bool {
        link.is_none_or(|id| id.raw() < self.len)
    }

    /// Spans whose parent or follows link names an id that was never
    /// recorded — the broken-causality witness the observability bench
    /// asserts is empty.
    pub fn orphans(&self) -> Vec<&Span> {
        self.spans()
            .iter()
            .filter(|s| !self.resolves(s.parent) || !self.resolves(s.follows))
            .collect()
    }

    /// Whether a ticket has a complete span tree: at least one root span
    /// (no parent) carries the ticket, and every span carrying the ticket
    /// has resolvable parent and follows links.
    pub fn has_complete_tree(&self, ticket: TicketId) -> bool {
        let mut rooted = false;
        for span in self.chain(ticket) {
            if !self.resolves(span.parent) || !self.resolves(span.follows) {
                return false;
            }
            rooted |= span.parent.is_none();
        }
        rooted
    }

    /// Distinct tickets that have at least one span, in order of first
    /// appearance: the heads of the per-ticket chains.
    pub fn traced_tickets(&self) -> Vec<TicketId> {
        self.spans()
            .iter()
            .filter(|span| span.earlier.is_none())
            .filter_map(|span| span.ticket)
            .collect()
    }
}

/// A borrowed view of a [`Tracer`]'s spans, in recording order.
#[derive(Debug, Clone, Copy)]
pub struct Spans<'a> {
    tracer: &'a Tracer,
}

impl<'a> Spans<'a> {
    /// The spans, oldest first.
    pub fn iter(self) -> impl DoubleEndedIterator<Item = &'a Span> {
        self.tracer.segments.iter().flatten()
    }

    /// Number of spans.
    pub fn len(self) -> usize {
        self.tracer.len()
    }

    /// Whether there are none.
    pub fn is_empty(self) -> bool {
        self.tracer.is_empty()
    }

    /// The span recorded under `id`.
    pub fn get(self, id: SpanId) -> Option<&'a Span> {
        let at = id.raw() as usize;
        let segment_len = self.tracer.segment_len;
        self.tracer
            .segments
            .get(at / segment_len)?
            .get(at % segment_len)
    }
}

/// A span observed inside a shard deployment, before global ids exist.
///
/// A deployment has no handle on the fleet's [`Tracer`] — it is a machine
/// of its own that the fleet only calls into — so it buffers raw spans
/// locally and the fleet drains them with [`ShardTracer::drain`] after each
/// batch, assigning ids and parent links and rebasing the instants onto the
/// fleet clock at collection time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawSpan {
    /// Stage name, e.g. `serve.prefill` or `stream.chunk`.
    pub name: &'static str,
    /// The ticket the stage served, when the request carried one.
    pub ticket: Option<TicketId>,
    /// Interval start on the *shard's* clock, which counts only that
    /// shard's serving time; the fleet rebases it at collection.
    pub start: SimInstant,
    /// Interval end, on the same clock.
    pub end: SimInstant,
    /// Freeform detail.
    pub note: String,
}

/// Per-shard raw-span buffer; a no-op unless enabled. It grows to the
/// largest batch it has held and keeps that capacity across drains.
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
                // audit:allow(no-string-alloc, annotated spans only: the empty note allocates nothing)
                note: fmt::format(note),
            });
        }
    }

    /// Drains the buffered spans in push order. The buffer is empty once
    /// the drain is dropped and keeps its capacity for the next batch.
    pub fn drain(&mut self) -> std::vec::Drain<'_, RawSpan> {
        self.spans.drain(..)
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
            parent: SpanId::new(999),
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
        assert_eq!(s.drain().len(), 0, "disabled buffer stays empty");
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
        let drained: Vec<RawSpan> = s.drain().collect();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].name, "serve.shield");
        assert_eq!(drained[0].note, "");
        assert_eq!(drained[1].note, "tokens=4");
        assert_eq!(s.drain().len(), 0);
        assert_eq!(
            drained[1].end.duration_since(drained[1].start).as_nanos(),
            4
        );
    }

    #[test]
    fn notes_are_held_out_of_line_and_read_back_by_id() {
        let mut t = Tracer::enabled();
        let plain = t.record(NewSpan {
            name: "serve.dispatch",
            ..NewSpan::default()
        });
        let noted = t.record(NewSpan {
            name: "recovery.retry",
            note: "round 2".to_string(),
            ..NewSpan::default()
        });
        assert_eq!(t.note(plain.unwrap()), "");
        assert_eq!(t.note(noted.unwrap()), "round 2");
        assert_eq!(t.note(SpanId::new(77).unwrap()), "", "never recorded");
    }

    #[test]
    fn a_reused_ticket_id_parents_under_its_newer_root() {
        // A torn enqueue loses ticket 7's first admission; the door mints 7
        // again for the next arrival. The first root stays in the store,
        // and everything recorded afterwards belongs to the second.
        let mut t = Tracer::enabled();
        let ticket = TicketId::new(7);
        let span = |name, parent, at_ns| NewSpan {
            name,
            ticket: Some(ticket),
            parent,
            start: at(at_ns),
            end: at(at_ns),
            ..NewSpan::default()
        };
        assert_eq!(t.root_of(ticket), None);
        let lost = t.record(span("request", None, 0));
        assert_eq!(t.root_of(ticket), lost);
        let readmitted = t.record(span("request", None, 50));
        assert_ne!(lost, readmitted);
        assert_eq!(t.root_of(ticket), readmitted);
        let dispatch = t.record(span("serve.dispatch", t.root_of(ticket), 60));
        // A child is not a root: the answer does not move.
        assert_eq!(t.root_of(ticket), readmitted);
        assert_eq!(t.spans().get(dispatch.unwrap()).unwrap().parent, readmitted);
        assert!(t.has_complete_tree(ticket) && t.orphans().is_empty());
        assert_eq!(t.spans_for(ticket).len(), 3);
        // A neighbour on the same index page is untouched.
        assert_eq!(t.root_of(TicketId::new(8)), None);
    }

    #[test]
    fn recording_stops_at_id_exhaustion_and_never_wraps() {
        let mut t = Tracer::enabled();
        // Stand in for four billion recorded spans.
        t.len = u32::MAX - 1;
        let last = t.record(NewSpan::default());
        assert_eq!(last.map(SpanId::raw), Some(u32::MAX - 1));
        assert_eq!(t.record(NewSpan::default()), None);
        assert_eq!(t.len(), u32::MAX as usize);
        assert_eq!(SpanId::new(u32::MAX), None);
    }

    #[test]
    fn an_unused_tracer_holds_no_storage() {
        let t = Tracer::enabled();
        assert!(t.segments.is_empty() && t.tickets.pages.is_empty());
        assert!(t.spans().is_empty());
        assert_eq!(t.spans().iter().next_back(), None);
        assert_eq!(t.spans().iter().count(), 0);
    }

    /// The representation this store replaced, kept as the oracle: one
    /// `Vec` of spans that own their notes, every ticket query a filter
    /// over the whole store.
    mod oracle {
        use super::super::{NewSpan, RawSpan};
        use guillotine_types::TicketId;
        use std::collections::HashSet;

        pub struct VecTracer {
            pub spans: Vec<NewSpan>,
        }

        impl VecTracer {
            fn resolves(&self, link: Option<super::SpanId>) -> bool {
                link.is_none_or(|id| (id.raw() as usize) < self.spans.len())
            }

            /// Raw ids of a ticket's spans, in recording order.
            pub fn spans_for(&self, ticket: TicketId) -> Vec<usize> {
                (0..self.spans.len())
                    .filter(|&i| self.spans[i].ticket == Some(ticket))
                    .collect()
            }

            pub fn orphans(&self) -> Vec<usize> {
                (0..self.spans.len())
                    .filter(|&i| {
                        let s = &self.spans[i];
                        !self.resolves(s.parent) || !self.resolves(s.follows)
                    })
                    .collect()
            }

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

            /// Raw id of the ticket's most recent parentless span.
            pub fn root_of(&self, ticket: TicketId) -> Option<usize> {
                self.spans
                    .iter()
                    .rposition(|s| s.ticket == Some(ticket) && s.parent.is_none())
            }

            pub fn traced_tickets(&self) -> Vec<TicketId> {
                let mut seen = HashSet::new();
                self.spans
                    .iter()
                    .filter_map(|s| s.ticket)
                    .filter(|t| seen.insert(*t))
                    .collect()
            }
        }

        /// `ShardTracer::take` as it was: hand the buffer over whole and
        /// leave a fresh one sized for as many again.
        pub fn take(buffer: &mut Vec<RawSpan>) -> Vec<RawSpan> {
            let refill = Vec::with_capacity(buffer.len());
            std::mem::replace(buffer, refill)
        }
    }

    /// Ticket ids the differential test draws from: a few neighbours, one
    /// on a far page of the ticket index, and the largest id there is.
    const TICKETS: [u32; 6] = [0, 1, 2, 3, 5_000_000, u32::MAX];

    /// A link drawn for span number `at`: absent, an earlier span, the span
    /// itself, or an id never recorded.
    fn link(choice: u8, pick: u32, at: u32) -> Option<SpanId> {
        match choice {
            0 | 1 => None,
            2 | 3 if at > 0 => SpanId::new(pick % at),
            4 => SpanId::new(at),
            _ => SpanId::new(at.saturating_add(1 + pick % 1000)),
        }
    }

    use proptest::prelude::*;

    proptest! {
        /// The segmented, ticket-chained store answers every query exactly
        /// as the one-`Vec`, filter-everything representation did.
        #[test]
        fn the_store_matches_the_vec_it_replaced(
            segment_len in 1usize..=17,
            steps in collection::vec(
                (0usize..8, 0u8..6, 0u8..6, any::<u32>(), any::<bool>(), 0usize..70_000),
                0..=40,
            ),
        ) {
            let mut store = Tracer::new(true, segment_len);
            let mut vec = oracle::VecTracer { spans: Vec::new() };
            for (at, &(ticket, parent, follows, pick, noted, shard)) in steps.iter().enumerate() {
                let at = at as u32;
                let new = NewSpan {
                    name: if noted { "recovery.retry" } else { "serve.dispatch" },
                    // Two draws in eight are ticketless.
                    ticket: TICKETS.get(ticket).copied().map(TicketId::new),
                    shard: (shard % 3 != 0).then_some(shard),
                    parent: link(parent, pick, at),
                    follows: link(follows, pick.rotate_left(7), at),
                    start: SimInstant::from_nanos(u64::from(pick)),
                    end: SimInstant::from_nanos(u64::from(pick) + u64::from(at)),
                    note: if noted { format!("round {pick}") } else { String::new() },
                };
                vec.spans.push(new.clone());
                let id = store.record(new);
                prop_assert_eq!(id.map(SpanId::raw), Some(at));
                prop_assert_eq!(store.len(), vec.spans.len());
                prop_assert_eq!(store.spans().iter().next_back().map(|s| s.id), id);
            }
            // Same spans, same order, same contents.
            prop_assert_eq!(store.spans().len(), vec.spans.len());
            prop_assert_eq!(store.spans().iter().count(), vec.spans.len());
            prop_assert!(store.segments.iter().all(|s| s.capacity() == segment_len));
            for (at, (held, expected)) in store.spans().iter().zip(&vec.spans).enumerate() {
                prop_assert_eq!(held.id.raw() as usize, at);
                prop_assert_eq!(store.spans().get(held.id), Some(held));
                prop_assert_eq!(held.name, expected.name);
                prop_assert_eq!(held.ticket, expected.ticket);
                prop_assert_eq!(held.parent, expected.parent);
                prop_assert_eq!(held.follows, expected.follows);
                prop_assert_eq!(held.shard.map(usize::from), expected.shard.filter(|&s| s <= 0xFFFF));
                prop_assert_eq!((held.start, held.end), (expected.start, expected.end));
                prop_assert_eq!(store.note(held.id), expected.note.as_str());
            }
            prop_assert_eq!(store.spans().get(SpanId::new(vec.spans.len() as u32).unwrap()), None);
            // Same answers.
            let raw_ids = |spans: Vec<&Span>| -> Vec<usize> {
                spans.iter().map(|s| s.id.raw() as usize).collect()
            };
            prop_assert_eq!(raw_ids(store.orphans()), vec.orphans());
            prop_assert_eq!(store.traced_tickets(), vec.traced_tickets());
            // Including for a ticket that was never traced.
            for ticket in TICKETS.iter().copied().chain([4]).map(TicketId::new) {
                prop_assert_eq!(raw_ids(store.spans_for(ticket)), vec.spans_for(ticket));
                prop_assert_eq!(store.has_complete_tree(ticket), vec.has_complete_tree(ticket));
                prop_assert_eq!(
                    store.root_of(ticket).map(|id| id.raw() as usize),
                    vec.root_of(ticket)
                );
            }
        }

        /// Draining a shard buffer yields what `take` yielded, and the
        /// buffer never gives capacity back.
        #[test]
        fn a_drained_shard_buffer_yields_what_take_did_and_keeps_its_capacity(
            batches in collection::vec(collection::vec((0u32..4, any::<bool>()), 0..=20), 1..=8),
        ) {
            let mut buffer = ShardTracer::new();
            buffer.set_enabled(true);
            let mut taken_from: Vec<RawSpan> = Vec::new();
            let mut capacity = 0;
            let mut clock = 0u64;
            for batch in &batches {
                for &(ticket, noted) in batch {
                    let ticket = (ticket > 0).then(|| TicketId::new(ticket));
                    let (start, end) = (at(clock), at(clock + 5));
                    clock += 7;
                    let note = if noted { format!("at_token={clock}") } else { String::new() };
                    buffer.push("stream.chunk", ticket, start, end, format_args!("{note}"));
                    taken_from.push(RawSpan { name: "stream.chunk", ticket, start, end, note });
                }
                prop_assert!(buffer.spans.capacity() >= capacity);
                capacity = buffer.spans.capacity();
                let drained: Vec<RawSpan> = buffer.drain().collect();
                prop_assert_eq!(drained, oracle::take(&mut taken_from));
                prop_assert!(buffer.spans.is_empty());
                prop_assert_eq!(buffer.spans.capacity(), capacity);
            }
        }
    }
}
