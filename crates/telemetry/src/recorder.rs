//! Bounded ring-buffer flight recorder with incident dumps.
//!
//! Steady-state tracing would grow without bound on a long-lived fleet, so
//! the recorder keeps only a bounded ring of recent spans, optionally
//! head-sampled by ticket. When something goes wrong — an escalation, a
//! mid-stream sever, a shard or control-plane crash, a deadline miss — the
//! tail-triggered incident dump snapshots the ring *at that instant*, so
//! the post-mortem sees what the fleet was doing right before the event,
//! cross-referenced to the chaos schedule's fault ids and the WAL offset
//! the journal had reached.

use crate::span::Span;
use guillotine_types::encode::{json_escape, ticket_field};
use guillotine_types::{SimInstant, TicketId};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
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

/// One tail-triggered dump: the trigger plus the ring snapshot.
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
    /// The chaos-schedule fault most recently injected before the
    /// incident, when a chaos engine is attached.
    pub fault_id: Option<usize>,
    /// Freeform trigger detail.
    pub detail: String,
    /// The last-N spans the ring held when the incident fired, copied as
    /// recorded (a span's note stays with the tracer, under its id).
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

/// The bounded span ring plus incident and fault bookkeeping.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    capacity: usize,
    sample_every: u64,
    ring: VecDeque<Span>,
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
    /// A recorder holding at most `capacity` spans (minimum 1).
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            capacity: capacity.max(1),
            sample_every: 1,
            ring: VecDeque::new(),
            incidents: Vec::new(),
            faults: Vec::new(),
            delays: Vec::new(),
        }
    }

    /// Head sampling: keep only spans whose ticket id is divisible by
    /// `every` (spans without a ticket are always kept, since they are
    /// fleet-scoped and rare). `every = 1` keeps everything.
    pub fn set_head_sampling(&mut self, every: u64) {
        self.sample_every = every.max(1);
    }

    /// Offers a span to the ring, honoring head sampling and capacity.
    pub fn offer(&mut self, span: &Span) {
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

    /// Fires an incident: snapshots the ring and records the trigger.
    pub fn incident(
        &mut self,
        kind: IncidentKind,
        at: SimInstant,
        ticket: Option<TicketId>,
        shard: Option<usize>,
        wal_offset: u64,
        detail: String,
    ) {
        self.incidents.push(Incident {
            kind,
            at,
            ticket,
            shard,
            wal_offset,
            fault_id: self.faults.last().map(|f| f.fault_id),
            detail,
            spans: self.ring.iter().copied().collect(),
        });
    }

    /// Incidents fired so far, in firing order.
    pub fn incidents(&self) -> &[Incident] {
        &self.incidents
    }

    /// Faults noted so far, in injection order.
    pub fn faults(&self) -> &[FaultNote] {
        &self.faults
    }

    /// Spans currently held by the ring.
    pub fn ring_len(&self) -> usize {
        self.ring.len()
    }

    /// Every noted fault joined to the tickets it delayed (possibly none).
    /// Each delay is attributed to the latest fault injected at or before
    /// it — the fault a retry/hedge/re-queue at that instant was reacting
    /// to. Delays preceding every fault stay unattributed.
    pub fn correlations(&self) -> Vec<FaultCorrelation> {
        let mut delayed: BTreeMap<usize, BTreeSet<u32>> = BTreeMap::new();
        for &(ticket, at) in &self.delays {
            let blamed = self
                .faults
                .iter()
                .filter(|f| f.at <= at)
                .max_by_key(|f| (f.at, f.fault_id));
            if let Some(fault) = blamed {
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
                opt_num(incident.fault_id),
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
    use crate::span::SpanId;

    fn span(id: u32, ticket: Option<u32>) -> Span {
        Span {
            id: SpanId::new(id).expect("a small id"),
            parent: None,
            follows: None,
            ticket: ticket.map(TicketId::new),
            shard: None,
            name: "serve.dispatch",
            start: SimInstant::from_nanos(u64::from(id) * 10),
            end: SimInstant::from_nanos(u64::from(id) * 10 + 5),
            earlier: None,
        }
    }

    #[test]
    fn ring_is_bounded_and_incident_snapshots_it() {
        let mut r = FlightRecorder::new(3);
        for i in 0..10 {
            r.offer(&span(i, Some(i)));
        }
        assert_eq!(r.ring_len(), 3);
        r.incident(
            IncidentKind::ShardCrash,
            SimInstant::from_nanos(500),
            None,
            Some(1),
            42,
            "window crash".to_string(),
        );
        let dump = &r.incidents()[0];
        assert_eq!(dump.spans.len(), 3);
        assert_eq!(dump.spans[0].id.raw(), 7, "oldest surviving span");
        assert_eq!(dump.wal_offset, 42);
        assert_eq!(dump.fault_id, None);
    }

    #[test]
    fn head_sampling_keeps_every_kth_ticket_and_all_fleet_spans() {
        let mut r = FlightRecorder::new(100);
        r.set_head_sampling(4);
        for i in 0..16 {
            r.offer(&span(i, Some(i)));
        }
        r.offer(&span(99, None));
        assert_eq!(r.ring_len(), 4 + 1, "tickets 0,4,8,12 plus the fleet span");
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
        r.incident(
            IncidentKind::DeadlineMiss,
            SimInstant::from_nanos(300),
            Some(TicketId::new(11)),
            None,
            7,
            String::new(),
        );
        assert_eq!(r.incidents()[0].fault_id, Some(f1));
    }

    #[test]
    fn dump_json_lists_incidents_and_correlations() {
        let mut r = FlightRecorder::new(4);
        r.offer(&span(1, Some(3)));
        r.note_fault(SimInstant::from_nanos(10), "control-plane-crash");
        r.note_delay(TicketId::new(3), SimInstant::from_nanos(12));
        r.incident(
            IncidentKind::ControlPlaneCrash,
            SimInstant::from_nanos(11),
            None,
            None,
            5,
            "armed".to_string(),
        );
        let json = r.to_json();
        assert!(json.contains("guillotine-flight-recorder-v1"));
        assert!(json.contains("\"kind\": \"control-plane-crash\""));
        assert!(json.contains("\"wal_offset\": 5"));
        assert!(json.contains("\"delayed_tickets\": [\"3\"]"), "{json}");
        // Empty recorder still emits both sections.
        let empty = FlightRecorder::new(1).to_json();
        assert!(empty.contains("\"incidents\": []"));
        assert!(empty.contains("\"fault_correlations\": []"));
    }
}
