//! Flight recorder: incident dumps over the tail of the span store.
//!
//! The tracer keeps every span; a post-mortem wants the last few. When
//! something goes wrong — an escalation, a mid-stream sever, a shard or
//! control-plane crash, a deadline miss — the tail-triggered incident dump
//! copies the newest spans of the store *at that instant*, bounded by the
//! configured capacity and optionally head-sampled by ticket, so the
//! post-mortem sees what the fleet was doing right before the event,
//! cross-referenced to the chaos schedule's fault ids and the WAL offset
//! the journal had reached. Between incidents the recorder holds no spans:
//! the window is a view of the store.

use crate::span::{Span, Tracer};
use guillotine_types::encode::{json_escape, ticket_field};
use guillotine_types::{SimInstant, TicketId};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// What triggered an incident dump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncidentKind {
    /// A detector escalated a request to human review.
    Escalation,
    /// A live stream was severed mid-flight by the shield.
    SeveredStream,
    /// A serving shard crashed.
    ShardCrash,
    /// The admission control plane crashed.
    ControlPlaneCrash,
    /// A deadline-carrying request finished late.
    DeadlineMiss,
}

impl fmt::Display for IncidentKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            IncidentKind::Escalation => "escalation",
            IncidentKind::SeveredStream => "severed-stream",
            IncidentKind::ShardCrash => "shard-crash",
            IncidentKind::ControlPlaneCrash => "control-plane-crash",
            IncidentKind::DeadlineMiss => "deadline-miss",
        };
        f.write_str(name)
    }
}

/// One tail-triggered dump: the trigger plus the window of recent spans.
/// The chaos fault it is attributed to is resolved when read, by
/// [`FlightRecorder::fault_at`].
#[derive(Debug, Clone)]
pub struct Incident {
    /// What fired.
    pub kind: IncidentKind,
    /// When it fired, on the fleet clock.
    pub at: SimInstant,
    /// The ticket involved, when the trigger is request-scoped.
    pub ticket: Option<TicketId>,
    /// The shard involved, when the trigger is shard-scoped.
    pub shard: Option<usize>,
    /// WAL records committed when the incident fired; replay from here to
    /// see the control plane's view.
    pub wal_offset: u64,
    /// Freeform trigger detail.
    pub detail: String,
    /// The last-N sampled spans the store held when the incident fired,
    /// oldest first, copied as recorded (a span's note stays with the
    /// tracer, under its id).
    pub spans: Vec<Span>,
}

/// One injected fault noted by the chaos engine, for cross-referencing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultNote {
    /// Index of the fault in the chaos trace (its stable id).
    pub fault_id: usize,
    /// Injection instant.
    pub at: SimInstant,
    /// The fault kind's display form, e.g. `shard-crash(2)`.
    pub kind: String,
}

/// A fault joined to the tickets whose service it delayed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultCorrelation {
    /// The fault's stable id.
    pub fault_id: usize,
    /// The fault kind's display form.
    pub kind: String,
    /// Injection instant.
    pub at: SimInstant,
    /// Tickets that needed recovery actions attributable to this fault.
    pub delayed_tickets: Vec<TicketId>,
}

/// The incident window's bounds plus incident and fault bookkeeping.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    capacity: usize,
    sample_every: u64,
    incidents: Vec<Incident>,
    faults: Vec<FaultNote>,
    delays: Vec<(u32, SimInstant)>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(256)
    }
}

impl FlightRecorder {
    /// A recorder whose incidents carry at most `capacity` spans (minimum
    /// 1).
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            capacity: capacity.max(1),
            sample_every: 1,
            incidents: Vec::new(),
            faults: Vec::new(),
            delays: Vec::new(),
        }
    }

    /// Head sampling: an incident window keeps only spans whose ticket id
    /// is divisible by `every` (spans without a ticket are always kept,
    /// since they are fleet-scoped and rare). `every = 1` keeps everything.
    pub fn set_head_sampling(&mut self, every: u64) {
        self.sample_every = every.max(1);
    }

    fn sampled(&self, span: &Span) -> bool {
        self.sample_every == 1
            || span
                .ticket
                .is_none_or(|ticket| u64::from(ticket.raw()) % self.sample_every == 0)
    }

    /// Notes an injected fault and returns its id (its index in the chaos
    /// trace, which grows in injection order).
    pub fn note_fault(&mut self, at: SimInstant, kind: &str) -> usize {
        let fault_id = self.faults.len();
        self.faults.push(FaultNote {
            fault_id,
            at,
            kind: kind.to_string(),
        });
        fault_id
    }

    /// Notes that a recovery action (retry, hedge, re-queue) delayed
    /// `ticket` at fleet instant `at`. Attribution to a fault happens at
    /// [`FlightRecorder::correlations`] time, by injection timestamp: some
    /// faults (pre-armed crashes) land mid-serving-window, so the recovery
    /// they provoke can be recorded before the chaos engine's note of the
    /// fault arrives — joining lazily keeps those attributions correct.
    pub fn note_delay(&mut self, ticket: TicketId, at: SimInstant) {
        self.delays.push((ticket.raw(), at));
    }

    /// Fires an incident: records `trigger` with the incident window as
    /// its spans — the newest `capacity` spans of `tracer` that head
    /// sampling keeps, oldest first. Reached through
    /// [`Telemetry::incident`](crate::Telemetry::incident).
    pub(crate) fn fire(&mut self, tracer: &Tracer, trigger: Incident) {
        let newest_first = tracer.spans().iter().rev();
        let mut spans: Vec<Span> = newest_first
            .filter(|span| self.sampled(span))
            .take(self.capacity)
            .copied()
            .collect();
        spans.reverse();
        self.incidents.push(Incident { spans, ..trigger });
    }

    /// Incidents fired so far, in firing order.
    pub fn incidents(&self) -> &[Incident] {
        &self.incidents
    }

    /// Faults noted so far, in injection order.
    pub fn faults(&self) -> &[FaultNote] {
        &self.faults
    }

    /// The fault an event at `at` is attributed to: the latest fault
    /// injected at or before it (ties to the later id) — the fault a
    /// retry, hedge, re-queue or incident at that instant was reacting to.
    /// Resolved when asked, never when the event is noted: a pre-armed
    /// crash fires inside a serving window, before the chaos engine's note
    /// of it arrives. `None` for an event preceding every fault.
    pub fn fault_at(&self, at: SimInstant) -> Option<&FaultNote> {
        self.faults
            .iter()
            .filter(|f| f.at <= at)
            .max_by_key(|f| (f.at, f.fault_id))
    }

    /// Every noted fault joined to the tickets it delayed (possibly none),
    /// each delay attributed by [`FlightRecorder::fault_at`]. Delays
    /// preceding every fault stay unattributed.
    pub fn correlations(&self) -> Vec<FaultCorrelation> {
        let mut delayed: BTreeMap<usize, BTreeSet<u32>> = BTreeMap::new();
        for &(ticket, at) in &self.delays {
            if let Some(fault) = self.fault_at(at) {
                delayed.entry(fault.fault_id).or_default().insert(ticket);
            }
        }
        self.faults
            .iter()
            .map(|f| FaultCorrelation {
                fault_id: f.fault_id,
                kind: f.kind.clone(),
                at: f.at,
                delayed_tickets: delayed
                    .get(&f.fault_id)
                    .map(|set| set.iter().map(|&raw| TicketId::new(raw)).collect())
                    .unwrap_or_default(),
            })
            .collect()
    }

    /// Serializes the incident dump as stable JSON — the flight-recorder
    /// artifact CI uploads next to `BENCH_*.json`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"schema\": \"guillotine-flight-recorder-v1\",\n");
        out.push_str("  \"incidents\": [");
        let mut first = true;
        for incident in &self.incidents {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\n    {{\"kind\": \"{}\", \"at_ns\": {}, \"ticket\": {}, \"shard\": {}, \"wal_offset\": {}, \"fault_id\": {}, \"detail\": \"{}\", \"spans\": [",
                incident.kind,
                incident.at.as_nanos(),
                opt_str(incident.ticket.map(ticket_field)),
                opt_num(incident.shard),
                incident.wal_offset,
                opt_num(self.fault_at(incident.at).map(|f| f.fault_id)),
                json_escape(&incident.detail),
            ));
            let mut first_span = true;
            for span in &incident.spans {
                if !first_span {
                    out.push_str(", ");
                }
                first_span = false;
                out.push_str(&format!(
                    "{{\"name\": \"{}\", \"ticket\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                    json_escape(span.name),
                    opt_str(span.ticket.map(ticket_field)),
                    span.start.as_nanos(),
                    span.end.as_nanos(),
                ));
            }
            out.push_str("]}");
        }
        out.push_str(if first { "],\n" } else { "\n  ],\n" });
        out.push_str("  \"fault_correlations\": [");
        first = true;
        for c in self.correlations() {
            if !first {
                out.push(',');
            }
            first = false;
            let tickets: Vec<String> = c
                .delayed_tickets
                .iter()
                .map(|t| format!("\"{}\"", ticket_field(*t)))
                .collect();
            out.push_str(&format!(
                "\n    {{\"fault_id\": {}, \"kind\": \"{}\", \"at_ns\": {}, \"delayed_tickets\": [{}]}}",
                c.fault_id,
                json_escape(&c.kind),
                c.at.as_nanos(),
                tickets.join(", "),
            ));
        }
        out.push_str(if first { "]\n" } else { "\n  ]\n" });
        out.push_str("}\n");
        out
    }
}

fn opt_num<T: fmt::Display>(v: Option<T>) -> String {
    match v {
        Some(v) => v.to_string(),
        None => "null".to_string(),
    }
}

fn opt_str(v: Option<String>) -> String {
    match v {
        Some(v) => format!("\"{}\"", json_escape(&v)),
        None => "null".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::NewSpan;
    use std::collections::VecDeque;

    /// Records span number `n` (ten nanoseconds apart) for `ticket`.
    fn record(tracer: &mut Tracer, n: u32, ticket: Option<u32>) {
        tracer.record(NewSpan {
            name: "serve.dispatch",
            ticket: ticket.map(TicketId::new),
            start: SimInstant::from_nanos(u64::from(n) * 10),
            end: SimInstant::from_nanos(u64::from(n) * 10 + 5),
            ..NewSpan::default()
        });
    }

    fn trigger(kind: IncidentKind, at_ns: u64, wal_offset: u64) -> Incident {
        Incident {
            kind,
            at: SimInstant::from_nanos(at_ns),
            ticket: None,
            shard: None,
            wal_offset,
            detail: String::new(),
            spans: Vec::new(),
        }
    }

    #[test]
    fn ring_is_bounded_and_incident_snapshots_it() {
        let mut tracer = Tracer::enabled();
        let mut r = FlightRecorder::new(3);
        for i in 0..10 {
            record(&mut tracer, i, Some(i));
        }
        r.fire(&tracer, trigger(IncidentKind::ShardCrash, 500, 42));
        let dump = &r.incidents()[0];
        assert_eq!(dump.spans.len(), 3);
        assert_eq!(dump.spans[0].id.raw(), 7, "oldest span of the window");
        assert_eq!(dump.spans[2].id.raw(), 9);
        assert_eq!(dump.wal_offset, 42);
        assert!(r.fault_at(dump.at).is_none());
        // The window is read when the incident fires, not kept: a later
        // incident sees later spans, the earlier dump is unchanged.
        record(&mut tracer, 10, None);
        r.fire(&tracer, trigger(IncidentKind::ShardCrash, 600, 42));
        assert_eq!(r.incidents()[0].spans[2].id.raw(), 9);
        assert_eq!(r.incidents()[1].spans[2].id.raw(), 10);
    }

    #[test]
    fn head_sampling_keeps_every_kth_ticket_and_all_fleet_spans() {
        let mut tracer = Tracer::enabled();
        let mut r = FlightRecorder::new(100);
        r.set_head_sampling(4);
        for i in 0..16 {
            record(&mut tracer, i, Some(i));
        }
        record(&mut tracer, 99, None);
        r.fire(&tracer, trigger(IncidentKind::DeadlineMiss, 1_000, 0));
        let tickets: Vec<Option<u32>> = r.incidents()[0]
            .spans
            .iter()
            .map(|span| span.ticket.map(TicketId::raw))
            .collect();
        assert_eq!(
            tickets,
            vec![Some(0), Some(4), Some(8), Some(12), None],
            "tickets 0,4,8,12 plus the fleet span"
        );
    }

    #[test]
    fn faults_correlate_to_delayed_tickets() {
        let mut r = FlightRecorder::new(8);
        // The recovery for ticket 7 lands before the chaos engine notes
        // the fault (a pre-armed crash firing mid-window); attribution is
        // by timestamp, so it still joins to fault 0.
        r.note_delay(TicketId::new(7), SimInstant::from_nanos(150));
        let f0 = r.note_fault(SimInstant::from_nanos(100), "shard-crash(0)");
        r.note_delay(TicketId::new(7), SimInstant::from_nanos(160));
        r.note_delay(TicketId::new(9), SimInstant::from_nanos(170));
        let f1 = r.note_fault(SimInstant::from_nanos(200), "slowdown(1)");
        r.note_delay(TicketId::new(11), SimInstant::from_nanos(250));
        // Predates every fault: stays unattributed.
        r.note_delay(TicketId::new(5), SimInstant::from_nanos(50));
        let cs = r.correlations();
        assert_eq!(cs.len(), 2);
        assert_eq!(cs[0].fault_id, f0);
        assert_eq!(
            cs[0].delayed_tickets,
            vec![TicketId::new(7), TicketId::new(9)]
        );
        assert_eq!(cs[1].fault_id, f1);
        assert_eq!(cs[1].delayed_tickets, vec![TicketId::new(11)]);
        // An incident is attributed the same way, when read: one fired at
        // 100 before fault 0 was noted (the first line above) names it.
        let fault_at = |ns| r.fault_at(SimInstant::from_nanos(ns)).map(|f| f.fault_id);
        assert_eq!(
            [fault_at(99), fault_at(100), fault_at(199), fault_at(200)],
            [None, Some(f0), Some(f0), Some(f1)]
        );
    }

    #[test]
    fn dump_json_lists_incidents_and_correlations() {
        let mut tracer = Tracer::enabled();
        let mut r = FlightRecorder::new(4);
        record(&mut tracer, 1, Some(3));
        r.note_fault(SimInstant::from_nanos(10), "control-plane-crash");
        r.note_delay(TicketId::new(3), SimInstant::from_nanos(12));
        r.fire(
            &tracer,
            Incident {
                detail: "armed".to_string(),
                ..trigger(IncidentKind::ControlPlaneCrash, 11, 5)
            },
        );
        let json = r.to_json();
        assert!(json.contains("guillotine-flight-recorder-v1"));
        assert!(json.contains("\"kind\": \"control-plane-crash\""));
        assert!(json.contains("\"wal_offset\": 5"));
        assert!(
            json.contains("\"fault_id\": 0, \"detail\": \"armed\""),
            "{json}"
        );
        assert!(json.contains("\"name\": \"serve.dispatch\", \"ticket\": \"3\""));
        assert!(json.contains("\"delayed_tickets\": [\"3\"]"), "{json}");
        // Empty recorder still emits both sections.
        let empty = FlightRecorder::new(1).to_json();
        assert!(empty.contains("\"incidents\": []"));
        assert!(empty.contains("\"fault_correlations\": []"));
    }

    /// The bounded ring the recorder used to fill span by span, kept as the
    /// oracle for the window it now reads off the store.
    struct Ring {
        capacity: usize,
        sample_every: u64,
        ring: VecDeque<Span>,
    }

    impl Ring {
        fn offer(&mut self, span: &Span) {
            if self.sample_every > 1 {
                if let Some(ticket) = span.ticket {
                    if u64::from(ticket.raw()) % self.sample_every != 0 {
                        return;
                    }
                }
            }
            if self.ring.len() == self.capacity {
                self.ring.pop_front();
            }
            self.ring.push_back(*span);
        }
    }

    use proptest::prelude::*;

    proptest! {
        /// An incident's window over the store is the sequence the ring
        /// held at that instant — whatever the sampling modulus, wherever
        /// the window crosses segment seams, whenever the incidents fire.
        #[test]
        fn the_incident_window_is_what_the_ring_held(
            segment_len in 1usize..=9,
            capacity in 1usize..=20,
            sample_every in 1u64..8,
            // Ticket draws of 12 and up are ticketless spans.
            steps in collection::vec((0u32..16, any::<bool>()), 0..=80),
        ) {
            let mut tracer = Tracer::new(true, segment_len);
            let mut recorder = FlightRecorder::new(capacity);
            recorder.set_head_sampling(sample_every);
            let mut oracle = Ring { capacity, sample_every, ring: VecDeque::new() };
            let mut expected: Vec<Vec<Span>> = Vec::new();
            for (n, &(ticket, fires)) in steps.iter().enumerate() {
                record(&mut tracer, n as u32, (ticket < 12).then_some(ticket));
                oracle.offer(tracer.spans().iter().next_back().expect("just recorded"));
                if fires {
                    recorder.fire(&tracer, trigger(IncidentKind::DeadlineMiss, n as u64, 0));
                    expected.push(oracle.ring.iter().copied().collect());
                }
            }
            // One more on the finished store (and the only one on an empty
            // store, when no step was drawn).
            recorder.fire(&tracer, trigger(IncidentKind::ShardCrash, 0, 0));
            expected.push(oracle.ring.iter().copied().collect());
            let windows: Vec<&Vec<Span>> =
                recorder.incidents().iter().map(|incident| &incident.spans).collect();
            prop_assert_eq!(windows, expected.iter().collect::<Vec<_>>());
        }
    }
}
