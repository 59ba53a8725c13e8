//! Deterministic replay: folds a recovered snapshot and WAL suffix back
//! into control-plane state.
//!
//! The reconstruction invariant: after replay, the queue holds exactly the
//! acked-but-uncompleted tickets — entries still queued at the crash plus
//! dispatched-but-uncompleted in-flight work — sorted by `(arrival,
//! ticket)` so per-session prefix order is preserved across the crash
//! boundary. The completed set holds every ticket whose response was ever
//! released to a caller, keyed by `TicketId`, guaranteeing exactly-once
//! completion.

use crate::store::Recovered;
use crate::ticket_set::TicketSet;
use crate::wal::WalRecord;
use guillotine_admit::{AdmissionStats, EntryStamp};

/// Control-plane state rebuilt by [`rebuild`].
#[derive(Debug, Clone, Default)]
pub struct ReplayState {
    /// Acked-but-uncompleted entries, sorted by `(arrival, ticket)`.
    pub queue: Vec<(EntryStamp, String)>,
    /// Tickets whose completion was committed before the crash (raw ids).
    pub completed: TicketSet,
    /// Per-session order witness: `(session raw, latest completed arrival
    /// ns)`.
    pub progress: Vec<(u32, u64)>,
    /// The ticket counter to resume minting from.
    pub next_ticket: u32,
    /// The degradation-ladder mode rank at the last snapshot.
    pub mode_rank: u8,
    /// Replayed admission statistics.
    pub stats: AdmissionStats,
    /// WAL records applied on top of the snapshot.
    pub replayed: u64,
    /// Dispatched-but-uncompleted tickets the crash stranded in flight,
    /// now re-queued.
    pub requeued_in_flight: u64,
}

/// Folds the recovered snapshot + suffix into a [`ReplayState`].
pub fn rebuild(recovered: &Recovered) -> ReplayState {
    let mut state = ReplayState::default();
    // Queue and in-flight tracking both preserve stamps and payloads; the
    // vectors stay small (bounded by queue capacity), so linear scans keep
    // the replay allocation-light and deterministic.
    let mut queued: Vec<(EntryStamp, String)> = Vec::new();
    let mut in_flight: Vec<(EntryStamp, String)> = Vec::new();
    if let Some(snapshot) = &recovered.snapshot {
        queued = snapshot.queue.clone();
        state.completed = snapshot.completed.clone();
        state.progress = snapshot.progress.clone();
        state.next_ticket = snapshot.next_ticket;
        state.mode_rank = snapshot.mode_rank;
        state.stats = snapshot.stats.clone();
    }
    for record in &recovered.suffix {
        state.replayed += 1;
        match record {
            WalRecord::Enqueue { stamp, payload } => {
                let raw = stamp.ticket.raw();
                // Replay is idempotent against the snapshot boundary: an
                // enqueue already captured by the snapshot or already
                // completed never re-enters the queue.
                let known = state.completed.contains(raw)
                    || queued.iter().any(|(s, _)| s.ticket == stamp.ticket);
                if !known {
                    queued.push((*stamp, payload.clone()));
                }
                if raw >= state.next_ticket {
                    state.next_ticket = raw.wrapping_add(1);
                }
                state.stats.submitted += 1;
                state.stats.enqueued += 1;
                state.stats.depth.raise(1);
            }
            WalRecord::Shed { ticket } => {
                if let Some(index) = queued.iter().position(|(s, _)| s.ticket == *ticket) {
                    queued.remove(index);
                    state.stats.shed += 1;
                    state.stats.depth.lower(1);
                }
            }
            WalRecord::Dispatch { at, tickets } => {
                let mut moved = 0u64;
                for ticket in tickets {
                    if let Some(index) = queued.iter().position(|(s, _)| s.ticket == *ticket) {
                        let (stamp, payload) = queued.remove(index);
                        let wait = at.duration_since(stamp.arrival);
                        state.stats.wait_total = state.stats.wait_total.saturating_add(wait);
                        state.stats.wait_max = state.stats.wait_max.max(wait);
                        in_flight.push((stamp, payload));
                        moved += 1;
                    }
                }
                state.stats.dispatched += moved;
                state.stats.batches += 1;
                state.stats.depth.lower(moved);
            }
            WalRecord::Complete {
                ticket,
                session,
                arrival,
                ..
            } => {
                state.completed.insert(ticket.raw());
                if let Some(index) = in_flight.iter().position(|(s, _)| s.ticket == *ticket) {
                    in_flight.remove(index);
                } else if let Some(index) = queued.iter().position(|(s, _)| s.ticket == *ticket) {
                    queued.remove(index);
                }
                let arrival_ns = arrival.as_nanos();
                match state.progress.iter_mut().find(|(s, _)| *s == session.raw()) {
                    Some((_, latest)) => *latest = (*latest).max(arrival_ns),
                    None => state.progress.push((session.raw(), arrival_ns)),
                }
            }
        }
    }
    // Whatever is still in flight was dispatched but never completed: the
    // crash stranded it. Re-queue it alongside the untouched queue.
    state.requeued_in_flight = in_flight.len() as u64;
    queued.append(&mut in_flight);
    // Arrival-then-ticket order restores per-session prefix order: within
    // a session, arrivals are strictly ordered by (arrival, ticket).
    queued.sort_by_key(|(stamp, _)| (stamp.arrival, stamp.ticket.raw()));
    state.stats.depth.set(queued.len() as u64);
    state.queue = queued;
    state
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SnapshotData;
    use crate::store::JournalStore;
    use crate::wal::CompletionKind;
    use guillotine_types::{SessionId, SimInstant, TicketId};

    fn stamp(ticket: u32, session: u32, arrival: u64) -> EntryStamp {
        EntryStamp {
            ticket: TicketId::new(ticket),
            session: SessionId::new(session),
            class: 1,
            arrival: SimInstant::from_nanos(arrival),
            deadline: None,
        }
    }

    fn enqueue(ticket: u32, session: u32, arrival: u64) -> WalRecord {
        WalRecord::Enqueue {
            stamp: stamp(ticket, session, arrival),
            payload: format!("req {ticket}"),
        }
    }

    fn complete(ticket: u32, session: u32, arrival: u64) -> WalRecord {
        WalRecord::Complete {
            ticket: TicketId::new(ticket),
            at: SimInstant::from_nanos(arrival + 1_000),
            outcome: CompletionKind::Delivered,
            session: SessionId::new(session),
            arrival: SimInstant::from_nanos(arrival),
        }
    }

    #[test]
    fn stranded_in_flight_work_is_requeued_in_arrival_order() {
        let mut store = JournalStore::new();
        store.append(&enqueue(0, 0, 100));
        store.append(&enqueue(1, 1, 200));
        store.append(&enqueue(2, 0, 300));
        store.append(&WalRecord::Dispatch {
            at: SimInstant::from_nanos(400),
            tickets: vec![TicketId::new(0), TicketId::new(1)],
        });
        store.append(&complete(0, 0, 100));
        // Crash: ticket 1 dispatched but never completed; ticket 2 queued.
        let state = rebuild(&store.recover());
        assert_eq!(state.completed.ranges(), &[(0, 0)]);
        assert_eq!(state.requeued_in_flight, 1);
        let tickets: Vec<u32> = state.queue.iter().map(|(s, _)| s.ticket.raw()).collect();
        assert_eq!(tickets, vec![1, 2], "arrival order restored");
        assert_eq!(state.next_ticket, 3);
        assert_eq!(state.replayed, 5);
        assert_eq!(state.stats.depth.current(), 2);
    }

    #[test]
    fn snapshot_plus_suffix_equals_full_replay() {
        // Build the same history twice: once with a mid-way snapshot, once
        // replaying from scratch. Recovery must converge to the same queue.
        let mut plain = JournalStore::new();
        let mut snapped = JournalStore::new();
        let history: Vec<WalRecord> = vec![
            enqueue(0, 0, 100),
            enqueue(1, 1, 150),
            WalRecord::Dispatch {
                at: SimInstant::from_nanos(200),
                tickets: vec![TicketId::new(0)],
            },
            complete(0, 0, 100),
        ];
        for record in &history {
            plain.append(record);
            snapped.append(record);
        }
        let boundary = rebuild(&plain.recover());
        let boundary_snapshot = SnapshotData {
            at: SimInstant::from_nanos(300),
            wal_offset: snapped.wal_len(),
            next_ticket: boundary.next_ticket,
            mode_rank: 0,
            queue: boundary.queue.clone(),
            completed: boundary.completed.clone(),
            progress: boundary.progress.clone(),
            quarantined: vec![false; 2],
            kv_invalidated: vec![false; 2],
            stats: boundary.stats,
        };
        snapped.take_snapshot(boundary_snapshot.view());
        let tail: Vec<WalRecord> = vec![
            enqueue(2, 0, 400),
            WalRecord::Dispatch {
                at: SimInstant::from_nanos(450),
                tickets: vec![TicketId::new(1), TicketId::new(2)],
            },
            complete(1, 1, 150),
        ];
        for record in &tail {
            plain.append(record);
            snapped.append(record);
        }
        let full = rebuild(&plain.recover());
        let suffix = rebuild(&snapped.recover());
        assert_eq!(full.queue, suffix.queue);
        assert_eq!(full.completed.len(), suffix.completed.len());
        assert_eq!(full.next_ticket, suffix.next_ticket);
        assert!(suffix.replayed < full.replayed, "suffix replay is shorter");
    }

    #[test]
    fn shed_entries_never_come_back() {
        let mut store = JournalStore::new();
        store.append(&enqueue(0, 0, 100));
        store.append(&WalRecord::Shed {
            ticket: TicketId::new(0),
        });
        let state = rebuild(&store.recover());
        assert!(state.queue.is_empty());
        assert!(state.completed.is_empty());
    }

    #[test]
    fn completion_of_queued_entry_removes_it() {
        // Defensive path: a Complete whose Dispatch fell in the truncated
        // tail still clears the queue copy.
        let mut store = JournalStore::new();
        store.append(&enqueue(0, 0, 100));
        store.append(&complete(0, 0, 100));
        let state = rebuild(&store.recover());
        assert!(state.queue.is_empty());
        assert_eq!(state.completed.ranges(), &[(0, 0)]);
        assert_eq!(state.progress, vec![(0, 100)]);
    }
}
