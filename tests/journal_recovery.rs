//! Integration and property tests for the crash-consistent control plane:
//! the write-ahead admission log, fleet snapshots, and deterministic
//! replay recovery behind [`FrontDoor::enable_journal`].
//!
//! The durability contract under test: once an enqueue is acked, the
//! request is never lost and never served twice, across arbitrary
//! control-plane crashes — including crashes landing mid-batch, torn WAL
//! tails, and corrupt snapshots.

use guillotine::admission::{AdmissionConfig, FrontDoor, JournalConfig, TimedArrival};
use guillotine::chaos::{ChaosDoor, FaultKind, FaultPlan};
use guillotine::fleet::GuillotineFleet;
use guillotine::recovery::RecoveryConfig;
use guillotine::serve::ServeRequest;
use guillotine::{AdmissionDecision, DeadlinePolicy, KvCacheConfig, ShedPolicy};
use guillotine_types::{SessionId, SimDuration, SimInstant};
use proptest::prelude::*;

fn benign(i: u32, session: u32) -> ServeRequest {
    ServeRequest::new(format!("Summarize item {i} of the quarterly report."))
        .with_session(SessionId::new(session))
}

fn fleet(shards: usize) -> GuillotineFleet {
    GuillotineFleet::builder()
        .with_shards(shards)
        .with_kv_cache(KvCacheConfig::default())
        .with_probation(2, 1)
        .build()
        .unwrap()
}

fn door(shards: usize) -> FrontDoor {
    FrontDoor::new(
        fleet(shards),
        AdmissionConfig {
            capacity: 256,
            shed: ShedPolicy::FailClosed,
            default_deadline: Some(SimDuration::from_secs(5)),
        },
        Box::new(DeadlinePolicy {
            max_batch: 4,
            max_wait: SimDuration::from_micros(10),
            ..DeadlinePolicy::default()
        }),
    )
    .with_recovery(RecoveryConfig::default())
}

fn journaled_door(shards: usize) -> FrontDoor {
    door(shards).with_journal(JournalConfig::default())
}

fn arrivals(n: u32, sessions: u32) -> Vec<TimedArrival> {
    (0..n)
        .map(|i| TimedArrival {
            at: SimInstant::from_nanos(u64::from(i) * 200_000),
            request: benign(i, i % sessions.max(1)),
            deadline: None,
        })
        .collect()
}

fn admitted_count(decisions: &[AdmissionDecision]) -> usize {
    decisions.iter().filter(|d| d.admitted()).count()
}

// ---------------------------------------------------------------------
// Deterministic crash/recovery scenarios.
// ---------------------------------------------------------------------

/// The tentpole guarantee in one scenario: a control-plane crash between
/// ack and dispatch loses nothing — recovery replays the WAL, re-queues
/// every acked request, and the drain answers all of them exactly once.
#[test]
fn journaled_crash_loses_no_acked_work() {
    let mut d = journaled_door(2);
    for i in 0..12 {
        assert!(d.submit(benign(i, i % 3)).admitted());
    }
    d.schedule_control_crash(d.now());
    let responses = d.drain().unwrap();
    assert_eq!(responses.len(), 12, "{}", d.report().render());
    let recovery = d.last_control_recovery().expect("crash must have fired");
    assert_eq!(recovery.lost, 0);
    assert_eq!(recovery.requeued, 12);
    assert!(recovery.wal_replayed >= 12, "{recovery:?}");
    assert!(recovery.replay_time > SimDuration::ZERO);
    let stats = d.stats();
    assert_eq!(stats.recovery.control_plane_crashes, 1);
    assert_eq!(stats.recovery.acked_lost, 0);
    assert_eq!(stats.recovery.double_serves, 0);
    assert_eq!(stats.recovery.session_reorderings, 0);
    let rendered = d.report().render();
    assert!(rendered.contains("control-plane durability"), "{rendered}");
}

/// The baseline the WAL exists to eliminate: the same crash without a
/// journal loses the entire acked queue, and the report says so.
#[test]
fn crash_without_journal_loses_the_queue() {
    let mut d = door(2);
    for i in 0..8 {
        assert!(d.submit(benign(i, i % 2)).admitted());
    }
    d.schedule_control_crash(d.now());
    let responses = d.drain().unwrap();
    assert!(responses.is_empty(), "amnesia must lose the queue");
    let recovery = d.last_control_recovery().expect("crash must have fired");
    assert_eq!(recovery.lost, 8);
    let stats = d.stats();
    assert_eq!(stats.recovery.acked_lost, 8);
    assert_eq!(stats.recovery.control_plane_crashes, 1);
    let rendered = d.report().render();
    assert!(rendered.contains("8 acked lost"), "{rendered}");
}

/// A crash landing while a batch is in flight: the responses are never
/// released, no Complete records exist, and recovery re-queues the whole
/// dispatched batch — served exactly once on the second attempt.
#[test]
fn mid_flight_crash_requeues_the_dispatched_batch() {
    let mut d = journaled_door(2);
    for i in 0..4 {
        assert!(d.submit(benign(i, i)).admitted());
    }
    // Due strictly after the pump boundary: serving advances the clock
    // past it, so the crash fires with the batch in flight.
    d.schedule_control_crash(d.now() + SimDuration::from_nanos(1));
    let responses = d.drain().unwrap();
    assert_eq!(responses.len(), 4);
    let recovery = d.last_control_recovery().expect("crash must have fired");
    assert_eq!(recovery.requeued, 4, "{recovery:?}");
    let stats = d.stats();
    assert_eq!(stats.recovery.journal_requeued, 4);
    assert_eq!(stats.recovery.acked_lost, 0);
    assert_eq!(stats.recovery.double_serves, 0);
}

/// A torn WAL tail (crash mid-append) is truncated at the first bad
/// checksum; every committed — and therefore acked — record survives.
#[test]
fn torn_tail_is_truncated_without_losing_acked_work() {
    let mut d = journaled_door(2);
    for i in 0..6 {
        assert!(d.submit(benign(i, i % 2)).admitted());
    }
    assert!(d.tear_wal());
    d.schedule_control_crash(d.now());
    let responses = d.drain().unwrap();
    assert_eq!(responses.len(), 6);
    let recovery = d.last_control_recovery().expect("crash must have fired");
    assert_eq!(recovery.torn_truncated, 1);
    assert_eq!(recovery.lost, 0);
    let stats = d.stats();
    assert_eq!(stats.recovery.torn_truncated, 1);
    assert_eq!(stats.recovery.acked_lost, 0);
}

/// A snapshot corrupted at rest is detected by checksum and skipped;
/// recovery falls back to full WAL replay and still loses nothing.
#[test]
fn corrupt_snapshot_falls_back_to_full_wal_replay() {
    let mut d = journaled_door(2);
    for i in 0..6 {
        assert!(d.submit(benign(i, i % 2)).admitted());
    }
    // The only snapshot is the initial checkpoint; corrupting it forces
    // replay from the beginning of the log.
    assert!(d.corrupt_latest_snapshot());
    d.schedule_control_crash(d.now());
    let responses = d.drain().unwrap();
    assert_eq!(responses.len(), 6);
    let recovery = d.last_control_recovery().expect("crash must have fired");
    assert_eq!(recovery.snapshots_skipped, 1);
    assert!(!recovery.used_snapshot);
    assert_eq!(recovery.lost, 0);
    let stats = d.stats();
    assert_eq!(stats.recovery.snapshots_skipped, 1);
    assert_eq!(stats.recovery.acked_lost, 0);
}

/// Replay cost is proportional to the WAL suffix after the last valid
/// snapshot, not to total history: a snapshotting door recovers faster
/// than one replaying its whole log, over the identical trace.
#[test]
fn snapshots_bound_recovery_by_the_wal_suffix() {
    let run = |interval: Option<SimDuration>| {
        let mut d = door(2).with_journal(JournalConfig {
            snapshot_interval: interval,
        });
        let (decisions, mut responses) = d.play(arrivals(40, 4)).unwrap();
        // Crash after the full history is on the log; recovery has only
        // the post-snapshot suffix to replay when snapshots were taken.
        d.schedule_control_crash(d.now());
        responses.extend(d.drain().unwrap());
        assert_eq!(responses.len(), admitted_count(&decisions));
        d.last_control_recovery().expect("crash must have fired")
    };
    let snapshotted = run(Some(SimDuration::from_millis(1)));
    let unsnapshotted = run(None);
    assert!(snapshotted.used_snapshot);
    assert!(!unsnapshotted.used_snapshot);
    assert!(
        snapshotted.wal_replayed < unsnapshotted.wal_replayed,
        "suffix replay must be shorter: {} vs {}",
        snapshotted.wal_replayed,
        unsnapshotted.wal_replayed
    );
    assert!(
        snapshotted.replay_time < unsnapshotted.replay_time,
        "snapshotted recovery must be faster: {} vs {}",
        snapshotted.replay_time,
        unsnapshotted.replay_time
    );
}

/// The journal's cost follows outstanding work, not history: with every
/// ticket completing in order the idempotency set is one range, so the
/// latest snapshot after 4096 requests is the size it was after 256 (give
/// or take a few digits) — it used to carry one entry per ticket ever
/// served. And the ranged set still does its job: a control-plane crash
/// at that point recovers it, and every acked ticket is answered exactly
/// once.
#[test]
fn snapshot_size_is_independent_of_completed_history() {
    let run = |n: u32| {
        let mut d = journaled_door(2);
        // Slow enough that the queue never fills: nothing refused or shed,
        // so tickets 0..n all complete.
        let trace: Vec<TimedArrival> = (0..n)
            .map(|i| TimedArrival {
                at: SimInstant::from_nanos(u64::from(i) * 3_000_000),
                request: benign(i, i % 8),
                deadline: None,
            })
            .collect();
        let (decisions, mut responses) = d.play(trace).unwrap();
        assert_eq!(admitted_count(&decisions), n as usize, "shed-free");
        assert_eq!(responses.len(), n as usize);
        let store = d.journal_store().expect("journaled door");
        let snapshot = store.latest_snapshot().expect("snapshots were taken");
        let bytes = snapshot.len();
        // Crash with acked work outstanding on top of the long history.
        for i in n..n + 12 {
            assert!(d.submit(benign(i, i % 8)).admitted());
        }
        d.schedule_control_crash(d.now());
        responses.extend(d.drain().unwrap());
        assert_eq!(responses.len(), n as usize + 12);
        let recovery = d.last_control_recovery().expect("crash must have fired");
        assert!(recovery.used_snapshot);
        assert_eq!(recovery.requeued, 12);
        assert_eq!(recovery.lost, 0);
        let stats = d.stats();
        assert_eq!(stats.recovery.acked_lost, 0);
        assert_eq!(stats.recovery.double_serves, 0);
        assert_eq!(stats.recovery.session_reorderings, 0);
        bytes
    };
    let short = run(256);
    let long = run(4096);
    assert!(
        long <= short + 256,
        "snapshot grew with history: {short} bytes after 256 requests, {long} after 4096"
    );
}

/// Ticket ids stay unique across an amnesia crash: the counter survives
/// even when the queue does not, so later admissions never collide with
/// earlier (lost) ones.
#[test]
fn ticket_ids_stay_unique_across_amnesia_crash() {
    let mut d = door(2);
    let mut tickets = Vec::new();
    for i in 0..3 {
        match d.submit(benign(i, i)) {
            AdmissionDecision::Enqueued { ticket, .. } => tickets.push(ticket.raw()),
            other => panic!("expected enqueue, got {other:?}"),
        }
    }
    d.schedule_control_crash(d.now());
    d.drain().unwrap();
    for i in 3..6 {
        match d.submit(benign(i, i)) {
            AdmissionDecision::Enqueued { ticket, .. } => tickets.push(ticket.raw()),
            other => panic!("expected enqueue, got {other:?}"),
        }
    }
    let mut unique = tickets.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), tickets.len(), "{tickets:?}");
}

/// The chaos driver interprets all three durability faults and records
/// their consequences in the trace.
#[test]
fn chaos_trace_records_durability_fault_consequences() {
    let plan = FaultPlan::new()
        .with(SimInstant::from_nanos(400_000), FaultKind::TornWrite)
        .with(
            SimInstant::from_nanos(500_000),
            FaultKind::SnapshotCorruption,
        )
        .with(
            SimInstant::from_nanos(600_000),
            FaultKind::ControlPlaneCrash,
        );
    let mut chaos = ChaosDoor::new(journaled_door(2), plan);
    let (decisions, responses) = chaos.play(arrivals(16, 4)).unwrap();
    assert_eq!(responses.len(), admitted_count(&decisions));
    let (d, trace) = chaos.into_parts();
    assert_eq!(trace.len(), 3);
    let rendered = trace.to_string();
    assert!(rendered.contains("torn-write"), "{rendered}");
    assert!(rendered.contains("snapshot-corruption"), "{rendered}");
    assert!(rendered.contains("control-plane-crash"), "{rendered}");
    assert!(rendered.contains("WAL tail torn"), "{rendered}");
    let stats = d.stats();
    assert_eq!(stats.recovery.acked_lost, 0);
    assert_eq!(stats.recovery.double_serves, 0);
}

// ---------------------------------------------------------------------
// The acceptance property: exactly-once and session order hold across
// ANY seeded durability fault plan.
// ---------------------------------------------------------------------

proptest! {
    /// Any seeded fault plan with control-plane crashes, torn tails and
    /// snapshot corruption layered over shard churn: every acked ticket
    /// reaches exactly one terminal outcome, per-session prefix order is
    /// preserved, and no acked work is ever lost.
    #[test]
    fn any_durability_fault_plan_preserves_exactly_once_and_order(
        seed in 0u64..400,
        shards in 2usize..4,
        n in 8u32..24,
        sessions in 1u32..5,
    ) {
        let horizon = SimDuration::from_millis(8);
        let plan = FaultPlan::seeded_durability(seed, shards, horizon);
        let mut chaos = ChaosDoor::new(journaled_door(shards), plan);
        let (decisions, responses) = chaos.play(arrivals(n, sessions)).unwrap();
        // Every admitted request is answered (Delivered / Sanitized /
        // Refused / Escalated): count equality plus zero double-serves is
        // exactly-once.
        prop_assert_eq!(responses.len(), admitted_count(&decisions));
        let (d, _trace) = chaos.into_parts();
        let stats = d.stats();
        prop_assert!(stats.recovery.control_plane_crashes >= 1);
        prop_assert_eq!(stats.recovery.acked_lost, 0);
        prop_assert_eq!(stats.recovery.double_serves, 0);
        prop_assert_eq!(stats.recovery.session_reorderings, 0);
    }
}
