//! The bounded admission queue and its batch-forming controller.

use crate::policy::BatchPolicy;
use crate::stats::AdmissionStats;
use guillotine_types::{SessionId, SimInstant, TicketId};
use std::cmp::Reverse;

/// The admission stamp carried by every queued request: who it is, how
/// urgent it is, when it arrived and when it must be done.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryStamp {
    /// The queue's receipt for this request.
    pub ticket: TicketId,
    /// The requester's session (drives affinity grouping and ordering).
    pub session: SessionId,
    /// Priority class; higher classes are served and retained first.
    pub class: u8,
    /// Simulated instant the request arrived at the queue.
    pub arrival: SimInstant,
    /// Completion deadline, if the request carries one.
    pub deadline: Option<SimInstant>,
}

impl EntryStamp {
    /// The deadline for ordering purposes: a request without one sorts
    /// after every real deadline (it is never urgent). Shed-victim
    /// selection and batch-urgency ranking share this sentinel so the two
    /// orderings can never silently diverge.
    pub fn effective_deadline(&self) -> SimInstant {
        self.deadline.unwrap_or(SimInstant::from_nanos(u64::MAX))
    }
}

/// One request leaving the queue in a formed batch: its admission stamp
/// plus the moment it was dispatched (`wait = dispatched - arrival`).
#[derive(Debug, Clone)]
pub struct Admitted<T> {
    /// The stamp the request was admitted with.
    pub stamp: EntryStamp,
    /// When the batch former dispatched it.
    pub dispatched: SimInstant,
    /// The request itself.
    pub payload: T,
}

/// What the queue decided about one submitted request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionDecision {
    /// The request is queued; `ticket` is its receipt.
    Enqueued {
        /// Receipt for the queued request.
        ticket: TicketId,
        /// Queue depth right after the enqueue.
        depth: usize,
    },
    /// The shed policy dropped a request to cope with the full queue:
    /// either a weaker queued victim (making room for the newcomer) or the
    /// newcomer itself, when *it* was the weakest. `admitted` tells the
    /// producer which happened.
    Shed {
        /// Ticket of the dropped request.
        victim: TicketId,
        /// Session of the dropped request.
        victim_session: SessionId,
        /// The submitted request's ticket when it got in (a queued victim
        /// was dropped instead); `None` when the submitted request was the
        /// one shed.
        admitted: Option<TicketId>,
    },
    /// The queue is full and fails closed: the request was turned away and
    /// nothing already queued was touched. The producer should back off.
    Refused {
        /// Queue depth at refusal (the configured capacity).
        depth: usize,
    },
}

impl AdmissionDecision {
    /// True when the submitted request made it into the queue.
    pub fn admitted(&self) -> bool {
        match self {
            AdmissionDecision::Enqueued { .. } => true,
            AdmissionDecision::Shed { admitted, .. } => admitted.is_some(),
            AdmissionDecision::Refused { .. } => false,
        }
    }
}

/// How a full queue treats the next arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShedPolicy {
    /// Drop the lowest-priority request — the newcomer or a queued victim,
    /// whichever is weaker (lower class, then latest deadline, then newest
    /// arrival). Keeps the queue loaded with the most urgent work.
    DropLowestPriority,
    /// Never drop queued work: refuse the newcomer. The queue fails
    /// closed and the producer sees the backpressure directly.
    #[default]
    FailClosed,
}

struct Entry<T> {
    stamp: EntryStamp,
    payload: T,
}

/// A bounded admission queue plus its batch former.
///
/// Requests are `submit`ted one at a time as they arrive and leave in
/// batches formed by the configured [`BatchPolicy`]. Capacity overflow is
/// resolved by the [`ShedPolicy`] and reported through typed
/// [`AdmissionDecision`]s, so producers see backpressure instead of silent
/// drops.
///
/// # Ordering invariant
///
/// Whatever the policy selects, requests of the same session leave the
/// queue in arrival order — the controller deselects any entry whose
/// earlier same-session sibling would be left behind. Batches therefore
/// never reorder a conversation (property-tested in `tests/admission.rs`).
pub struct AdmissionController<T> {
    entries: Vec<Entry<T>>,
    capacity: usize,
    shed: ShedPolicy,
    policy: Box<dyn BatchPolicy>,
    next_ticket: u32,
    stats: AdmissionStats,
}

impl<T> AdmissionController<T> {
    /// Creates a controller with the given capacity, shed policy and batch
    /// former. Capacity is clamped to at least 1.
    pub fn new(capacity: usize, shed: ShedPolicy, policy: Box<dyn BatchPolicy>) -> Self {
        AdmissionController {
            entries: Vec::new(),
            capacity: capacity.max(1),
            shed,
            policy,
            next_ticket: 0,
            stats: AdmissionStats::default(),
        }
    }

    /// Current queue depth.
    pub fn depth(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Admission statistics so far.
    pub fn stats(&self) -> &AdmissionStats {
        &self.stats
    }

    /// The queued stamps, in arrival order.
    pub fn stamps(&self) -> Vec<EntryStamp> {
        self.entries.iter().map(|e| e.stamp).collect()
    }

    /// The queued entries (stamp plus payload), in arrival order — what a
    /// snapshot of the queue must capture.
    pub fn entries(&self) -> impl Iterator<Item = (&EntryStamp, &T)> {
        self.entries.iter().map(|e| (&e.stamp, &e.payload))
    }

    /// The most recently admitted entry still queued. `submit` appends, so
    /// right after a decision that admitted a request this is that request
    /// — how a journal encodes an acked enqueue from the queue's own copy.
    pub fn newest(&self) -> Option<(&EntryStamp, &T)> {
        self.entries.last().map(|e| (&e.stamp, &e.payload))
    }

    /// The raw counter the next [`TicketId`] will be minted from. Durable
    /// recovery snapshots this so a rebuilt queue never re-issues a ticket
    /// that was already acknowledged before the crash.
    pub fn next_ticket_raw(&self) -> u32 {
        self.next_ticket
    }

    /// Replaces the queue wholesale from recovered state. `entries` must
    /// already be in the order they should dispatch (recovery sorts by
    /// arrival, then ticket), `next_ticket` continues the pre-crash ticket
    /// counter, and `stats` carries the replayed statistics. The restored
    /// depth may transiently exceed capacity — re-admitting already-acked
    /// work must never shed it — so new submissions are refused or shed
    /// until the backlog drains below capacity again.
    pub fn restore(
        &mut self,
        entries: Vec<(EntryStamp, T)>,
        next_ticket: u32,
        mut stats: AdmissionStats,
    ) {
        self.entries = entries
            .into_iter()
            .map(|(stamp, payload)| Entry { stamp, payload })
            .collect();
        self.next_ticket = next_ticket;
        stats.depth.set(self.entries.len() as u64);
        self.stats = stats;
    }

    fn fresh_ticket(&mut self) -> TicketId {
        let ticket = TicketId::new(self.next_ticket);
        self.next_ticket = self.next_ticket.wrapping_add(1);
        ticket
    }

    /// Weakness key: the entry that sorts *first* is the shed victim
    /// (lowest class, then latest deadline, then newest arrival; ticket
    /// breaks exact ties deterministically).
    fn weakness(
        stamp: &EntryStamp,
    ) -> (u8, Reverse<SimInstant>, Reverse<SimInstant>, Reverse<u32>) {
        (
            stamp.class,
            Reverse(stamp.effective_deadline()),
            Reverse(stamp.arrival),
            Reverse(stamp.ticket.raw()),
        )
    }

    /// Offers one request to the queue at simulated time `now`.
    pub fn submit(
        &mut self,
        payload: T,
        session: SessionId,
        class: u8,
        deadline: Option<SimInstant>,
        now: SimInstant,
    ) -> AdmissionDecision {
        self.stats.submitted += 1;
        let stamp = EntryStamp {
            ticket: self.fresh_ticket(),
            session,
            class,
            arrival: now,
            deadline,
        };
        if self.entries.len() < self.capacity {
            self.entries.push(Entry { stamp, payload });
            self.stats.enqueued += 1;
            self.stats.depth.raise(1);
            return AdmissionDecision::Enqueued {
                ticket: stamp.ticket,
                depth: self.entries.len(),
            };
        }
        match self.shed {
            ShedPolicy::FailClosed => {
                self.stats.refused += 1;
                AdmissionDecision::Refused {
                    depth: self.entries.len(),
                }
            }
            ShedPolicy::DropLowestPriority => {
                self.stats.shed += 1;
                let weakest_queued = self
                    .entries
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| Self::weakness(&e.stamp))
                    .map(|(i, _)| i)
                    .expect("capacity >= 1, so a full queue is non-empty");
                if Self::weakness(&stamp) <= Self::weakness(&self.entries[weakest_queued].stamp) {
                    // The newcomer is the weakest: it is the one shed.
                    AdmissionDecision::Shed {
                        victim: stamp.ticket,
                        victim_session: stamp.session,
                        admitted: None,
                    }
                } else {
                    let victim = self.entries.remove(weakest_queued).stamp;
                    self.entries.push(Entry { stamp, payload });
                    self.stats.enqueued += 1;
                    AdmissionDecision::Shed {
                        victim: victim.ticket,
                        victim_session: victim.session,
                        admitted: Some(stamp.ticket),
                    }
                }
            }
        }
    }

    /// Forms and dispatches one batch if the policy says it is time.
    pub fn form(&mut self, now: SimInstant) -> Option<Vec<Admitted<T>>> {
        if self.entries.is_empty() {
            return None;
        }
        let stamps = self.stamps();
        if !self.policy.ready(&stamps, now) {
            return None;
        }
        Some(self.dispatch(self.policy.select(&stamps, now), now))
    }

    /// Forms one batch regardless of the policy's timing gate — used to
    /// drain the queue at shutdown or at the end of a trace. Returns `None`
    /// only when the queue is empty.
    pub fn flush(&mut self, now: SimInstant) -> Option<Vec<Admitted<T>>> {
        if self.entries.is_empty() {
            return None;
        }
        let stamps = self.stamps();
        Some(self.dispatch(self.policy.select(&stamps, now), now))
    }

    /// Removes the selected entries and hands them out in arrival order,
    /// enforcing the intra-session ordering invariant.
    fn dispatch(&mut self, selection: Vec<usize>, now: SimInstant) -> Vec<Admitted<T>> {
        let mut selected = vec![false; self.entries.len()];
        for index in selection {
            if index < selected.len() {
                selected[index] = true;
            }
        }
        // Intra-session closure: an entry may only leave if every earlier
        // entry of its session leaves with it.
        let mut blocked: std::collections::HashSet<u32> = std::collections::HashSet::new();
        for (i, entry) in self.entries.iter().enumerate() {
            let session = entry.stamp.session.raw();
            if !selected[i] {
                blocked.insert(session);
            } else if blocked.contains(&session) {
                selected[i] = false;
            }
        }
        // A policy that selected nothing usable degrades to FIFO: take the
        // oldest entry so draining always makes progress.
        if !selected.iter().any(|&s| s) {
            selected[0] = true;
        }
        let mut batch = Vec::new();
        let mut keep = Vec::with_capacity(self.entries.len());
        for (i, entry) in self.entries.drain(..).enumerate() {
            if selected[i] {
                self.stats.dispatched += 1;
                let wait = now.duration_since(entry.stamp.arrival);
                self.stats.wait_total = self.stats.wait_total.saturating_add(wait);
                self.stats.wait_max = self.stats.wait_max.max(wait);
                self.stats.wait_hist.record(wait.as_nanos());
                batch.push(Admitted {
                    stamp: entry.stamp,
                    dispatched: now,
                    payload: entry.payload,
                });
            } else {
                keep.push(entry);
            }
        }
        self.entries = keep;
        self.stats.batches += 1;
        self.stats.depth.lower(batch.len() as u64);
        batch
    }

    /// Records the completion of one dispatched request for SLO accounting.
    /// `completed` is the instant the deadline protects: completion time
    /// under a completion target, the first-token instant under a TTFT
    /// target (the caller decides, since only it knows the policy's
    /// [`crate::policy::DeadlineTarget`]).
    pub fn record_served(&mut self, stamp: &EntryStamp, completed: SimInstant) {
        if let Some(deadline) = stamp.deadline {
            self.stats.deadlines_tracked += 1;
            if completed <= deadline {
                self.stats.deadlines_met += 1;
            } else {
                self.stats.deadlines_missed += 1;
            }
        }
    }

    /// Records one served request's submission-to-first-token time (queue
    /// wait plus the serving pipeline up to its first streamed chunk).
    /// Callers skip requests that never emitted a token.
    pub fn record_ttft(&mut self, ttft: guillotine_types::SimDuration) {
        self.stats.ttft_samples += 1;
        self.stats.ttft_total = self.stats.ttft_total.saturating_add(ttft);
        self.stats.ttft_max = self.stats.ttft_max.max(ttft);
        self.stats.ttft_hist.record(ttft.as_nanos());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{DeadlinePolicy, FifoWavePolicy};
    use guillotine_types::SimDuration;

    fn controller(capacity: usize, shed: ShedPolicy) -> AdmissionController<&'static str> {
        AdmissionController::new(capacity, shed, Box::new(FifoWavePolicy { wave: 2 }))
    }

    #[test]
    fn enqueue_until_full_then_fail_closed() {
        let mut q = controller(2, ShedPolicy::FailClosed);
        let now = SimInstant::ZERO;
        assert!(matches!(
            q.submit("a", SessionId::new(0), 1, None, now),
            AdmissionDecision::Enqueued { depth: 1, .. }
        ));
        assert!(matches!(
            q.submit("b", SessionId::new(1), 1, None, now),
            AdmissionDecision::Enqueued { depth: 2, .. }
        ));
        let refused = q.submit("c", SessionId::new(2), 2, None, now);
        assert_eq!(refused, AdmissionDecision::Refused { depth: 2 });
        assert!(!refused.admitted());
        assert_eq!(q.stats().refused, 1);
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn shed_drops_the_lowest_priority_victim() {
        let mut q = controller(2, ShedPolicy::DropLowestPriority);
        let now = SimInstant::ZERO;
        q.submit("low", SessionId::new(0), 0, None, now);
        q.submit("high", SessionId::new(1), 2, None, now);
        // A mid-class arrival displaces the queued low-class victim.
        let decision = q.submit("mid", SessionId::new(2), 1, None, now);
        match decision {
            AdmissionDecision::Shed {
                victim_session,
                admitted,
                ..
            } => {
                assert_eq!(victim_session, SessionId::new(0));
                assert!(admitted.is_some());
            }
            other => panic!("expected shed, got {other:?}"),
        }
        // A bottom-class arrival into the same full queue sheds itself.
        let decision = q.submit("bottom", SessionId::new(3), 0, None, now);
        match decision {
            AdmissionDecision::Shed {
                victim_session,
                admitted,
                ..
            } => {
                assert_eq!(victim_session, SessionId::new(3));
                assert!(admitted.is_none());
            }
            other => panic!("expected shed, got {other:?}"),
        }
        let classes: Vec<u8> = q.stamps().iter().map(|s| s.class).collect();
        assert_eq!(classes, vec![2, 1]);
        assert_eq!(q.stats().shed, 2);
    }

    #[test]
    fn form_respects_the_policy_gate_and_flush_ignores_it() {
        let mut q = controller(8, ShedPolicy::FailClosed);
        let now = SimInstant::ZERO;
        q.submit("a", SessionId::new(0), 1, None, now);
        assert!(q.form(now).is_none(), "wave of 2 not reached");
        let batch = q.flush(now).unwrap();
        assert_eq!(batch.len(), 1);
        assert!(q.is_empty());
        assert!(q.flush(now).is_none());
    }

    #[test]
    fn dispatch_preserves_intra_session_arrival_order() {
        // An EDF policy that would pick a later same-session entry first.
        let mut q: AdmissionController<u32> = AdmissionController::new(
            8,
            ShedPolicy::FailClosed,
            Box::new(DeadlinePolicy {
                max_batch: 1,
                max_wait: SimDuration::ZERO,
                session_affinity: false,
                ..DeadlinePolicy::default()
            }),
        );
        let s = SessionId::new(9);
        q.submit(
            0,
            s,
            1,
            Some(SimInstant::from_nanos(9_000)),
            SimInstant::ZERO,
        );
        q.submit(
            1,
            s,
            1,
            Some(SimInstant::from_nanos(1_000)),
            SimInstant::from_nanos(10),
        );
        // The policy prefers entry 1 (tighter deadline), but dispatching it
        // would overtake its session sibling: the controller falls back to
        // the session head.
        let batch = q.form(SimInstant::from_nanos(20)).unwrap();
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].payload, 0);
    }

    #[test]
    fn wait_and_deadline_accounting_flow_into_stats() {
        let mut q = controller(8, ShedPolicy::FailClosed);
        q.submit(
            "a",
            SessionId::new(0),
            1,
            Some(SimInstant::from_nanos(100_000)),
            SimInstant::ZERO,
        );
        q.submit(
            "b",
            SessionId::new(1),
            1,
            Some(SimInstant::from_nanos(1_000)),
            SimInstant::ZERO,
        );
        let now = SimInstant::from_nanos(10_000);
        let batch = q.form(now).unwrap();
        assert_eq!(batch.len(), 2);
        for admitted in &batch {
            q.record_served(&admitted.stamp, SimInstant::from_nanos(15_000));
        }
        let stats = q.stats();
        assert_eq!(stats.dispatched, 2);
        assert_eq!(stats.mean_wait(), SimDuration::from_micros(10));
        assert_eq!(stats.wait_max, SimDuration::from_micros(10));
        assert_eq!(stats.deadlines_tracked, 2);
        assert_eq!(stats.deadlines_met, 1);
        assert_eq!(stats.deadlines_missed, 1);
        assert_eq!(stats.depth.high_water(), 2);
    }
}
