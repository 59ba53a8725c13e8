//! E20: crash recovery — control-plane durability under a seeded crash
//! schedule, with the write-ahead journal at different snapshot cadences.
//!
//! One deterministic [`FaultPlan::seeded_durability`] schedule (the full
//! e19 shard-fault layer plus two control-plane crashes, a torn WAL
//! append just before the second and a snapshot corrupted at it) is
//! played against the same bursty arrival trace through four identical
//! doors:
//!
//! * **journal, fine snapshots** — checkpoint every 250 simulated µs;
//! * **journal, coarse snapshots** — checkpoint every 2 ms;
//! * **journal, no snapshots** — WAL only, full-log replay on crash;
//! * **no journal** — the amnesia baseline the WAL exists to eliminate.
//!
//! Headline assertions: every journaled run answers every acked request
//! exactly once (zero acked-lost, zero double-serves, zero session
//! reorderings) across both crashes, the no-journal baseline measurably
//! loses acked work, and replay cost is proportional to the WAL suffix
//! after the last valid snapshot — not to total history — so finer
//! checkpoints mean strictly less replay than no checkpoints at all.
//! The fine run's WAL and snapshot chain are dumped as `WAL_e20.log` and
//! `SNAPSHOTS_e20.log` next to `BENCH_e20.json` so CI can archive what
//! recovery actually replayed.

use super::fixtures::{self, chaos_door, incident_trace, Played, SHARDS};
use guillotine::admission::{JournalConfig, TimedArrival};
use guillotine::chaos::FaultPlan;
use guillotine::recovery::RecoveryConfig;
use guillotine_bench::{measure, time, BenchJson};
use guillotine_types::{SimDuration, SimInstant};

const SEED: u64 = 0x0E20;
/// Bursty open-loop load: `BURSTS` waves of `BURST_SIZE` arrivals.
const BURSTS: u32 = 12;
const BURST_SIZE: u32 = 16;
/// Wave spacing; 12 bursts span ~8.8 simulated milliseconds.
const BURST_SPACING_NS: u64 = 800_000;
/// Within-wave spacing: near-simultaneous arrivals.
const INTRA_SPACING_NS: u64 = 5_000;
/// Serving the full trace takes ~240 simulated ms (simulated serve time
/// dominates arrival spacing), so the fault horizon is sized against the
/// serve timeline, not the arrival span: crashes land at ~27-53 ms and
/// ~80-120 ms, with most of the history on the log and a deep backlog
/// queued.
const HORIZON: SimDuration = SimDuration::from_millis(160);
/// Snapshot cadences under comparison. A pump boundary passes roughly
/// every 10 simulated ms (one 8-request batch), so the fine cadence
/// checkpoints at every boundary and the coarse one every few.
const FINE_INTERVAL: SimDuration = SimDuration::from_millis(1);
const COARSE_INTERVAL: SimDuration = SimDuration::from_millis(50);

/// Slack for the history-independence bar: the counters and instants in
/// a snapshot gain digits as a run goes on; the idempotency set must not.
const SNAPSHOT_GROWTH_SLACK_BYTES: u64 = 128;

fn requests() -> u32 {
    BURSTS * BURST_SIZE
}

/// The first `bursts` waves of the arrival trace.
fn trace(bursts: u32) -> Vec<TimedArrival> {
    incident_trace((0..u64::from(bursts)).flat_map(|burst| {
        (0..u64::from(BURST_SIZE))
            .map(move |j| SimInstant::from_nanos(burst * BURST_SPACING_NS + j * INTRA_SPACING_NS))
    }))
}

fn play(journal: Option<JournalConfig>) -> Played {
    play_bursts(journal, BURSTS)
}

fn play_bursts(journal: Option<JournalConfig>, bursts: u32) -> Played {
    let mut door = chaos_door(RecoveryConfig::default());
    if let Some(config) = journal {
        door.enable_journal(config);
    }
    let plan = FaultPlan::seeded_durability(SEED, SHARDS, HORIZON);
    fixtures::play(door, plan, trace(bursts))
}

/// Size of the newest snapshot at the end of the run.
fn snapshot_bytes_last(run: &Played) -> u64 {
    let newest = run.door.journal_store().and_then(|s| s.latest_snapshot());
    newest.map_or(0, |blob| blob.len() as u64)
}

fn journaled(interval: Option<SimDuration>) -> Option<JournalConfig> {
    Some(JournalConfig {
        snapshot_interval: interval,
    })
}

pub fn run() {
    let fine = play(journaled(Some(FINE_INTERVAL)));
    let fine_half = play_bursts(journaled(Some(FINE_INTERVAL)), BURSTS / 2);
    let coarse = play(journaled(Some(COARSE_INTERVAL)));
    let unsnapshotted = play(journaled(None));
    let amnesia = play(None);
    let store = fine
        .door
        .journal_store()
        .expect("the fine run is journaled");
    let snapshot_bytes = snapshot_bytes_last(&fine);
    let half_snapshot_bytes = snapshot_bytes_last(&fine_half);
    // Host wall time of one `JournalStore::recover` on the final store
    // (fastest of several).
    let recover_host = measure(16, || store.recover()).1;

    // The durability contract, across both crashes, the torn tail and the
    // corrupt snapshot: with a journal, every acked request reaches exactly
    // one terminal outcome — nothing lost, nothing double-served, no
    // session reordered.
    for (name, outcome) in [
        ("fine", &fine),
        ("coarse", &coarse),
        ("unsnapshotted", &unsnapshotted),
    ] {
        assert_eq!(
            outcome.answered(),
            outcome.admitted(),
            "{name}: every acked request must be answered"
        );
        assert_eq!(outcome.recovery.acked_lost, 0, "{name}: acked work lost");
        assert_eq!(
            outcome.recovery.double_serves, 0,
            "{name}: double-served tickets"
        );
        assert_eq!(
            outcome.recovery.session_reorderings, 0,
            "{name}: session reorderings"
        );
        assert!(
            outcome.recovery.control_plane_crashes >= 2,
            "{name}: the seeded plan must land both crashes, saw {}",
            outcome.recovery.control_plane_crashes
        );
        assert!(
            outcome.recovery.wal_replayed > 0,
            "{name}: recovery must replay"
        );
    }
    // The amnesia baseline loses the acked queue on crash — that gap is
    // what the journal buys back.
    assert!(
        amnesia.recovery.acked_lost > 0,
        "the baseline must lose acked work: {} crashes, {} answered / {} admitted",
        amnesia.recovery.control_plane_crashes,
        amnesia.answered(),
        amnesia.admitted()
    );
    assert!(
        fine.availability() > amnesia.availability(),
        "the journal must beat amnesia on availability: {:.3} vs {:.3}",
        fine.availability(),
        amnesia.availability()
    );
    // Replay cost is proportional to the WAL suffix, not total history:
    // snapshots bound it, and finer snapshots bound it tighter than none.
    assert!(
        fine.recovery.wal_replayed <= coarse.recovery.wal_replayed,
        "finer snapshots cannot replay more: {} vs {}",
        fine.recovery.wal_replayed,
        coarse.recovery.wal_replayed
    );
    assert!(
        coarse.recovery.wal_replayed <= unsnapshotted.recovery.wal_replayed,
        "any snapshot bounds replay below full history: {} vs {}",
        coarse.recovery.wal_replayed,
        unsnapshotted.recovery.wal_replayed
    );
    assert!(
        fine.recovery.wal_replayed < unsnapshotted.recovery.wal_replayed,
        "snapshots must strictly shorten replay: {} vs {}",
        fine.recovery.wal_replayed,
        unsnapshotted.recovery.wal_replayed
    );
    assert!(
        fine.recovery.replay_time < unsnapshotted.recovery.replay_time,
        "snapshotted recovery must be strictly faster: {} vs {}",
        fine.recovery.replay_time,
        unsnapshotted.recovery.replay_time
    );

    // Snapshot size follows outstanding work, not completed history: both
    // runs end drained, one with twice the completed tickets.
    assert!(fine_half.answered() * 2 == fine.answered() && half_snapshot_bytes > 0);
    let snapshot_bound = half_snapshot_bytes + SNAPSHOT_GROWTH_SLACK_BYTES;
    assert!(
        snapshot_bytes <= snapshot_bound,
        "snapshots must not grow with completed history: {} bytes after {} tickets vs {} after {}",
        snapshot_bytes,
        fine.answered(),
        half_snapshot_bytes,
        fine_half.answered()
    );

    let requests = requests();
    println!(
        "e20: {requests} bursty arrivals / {SHARDS} shards under durability plan {SEED:#x} -> \
         journal+fine {:.1}% available ({} replayed, {} re-queued, {} torn truncated, \
         {} snapshots skipped, downtime {})",
        fine.availability() * 100.0,
        fine.recovery.wal_replayed,
        fine.recovery.journal_requeued,
        fine.recovery.torn_truncated,
        fine.recovery.snapshots_skipped,
        fine.recovery.replay_time,
    );
    println!(
        "e20: coarse {:.1}% ({} replayed, downtime {}), unsnapshotted {:.1}% \
         ({} replayed, downtime {}), amnesia {:.1}% ({} acked lost)",
        coarse.availability() * 100.0,
        coarse.recovery.wal_replayed,
        coarse.recovery.replay_time,
        unsnapshotted.availability() * 100.0,
        unsnapshotted.recovery.wal_replayed,
        unsnapshotted.recovery.replay_time,
        amnesia.availability() * 100.0,
        amnesia.recovery.acked_lost,
    );

    println!(
        "e20: last snapshot {} bytes after {} tickets ({} after {}), host recover {:.1} us",
        snapshot_bytes,
        fine.answered(),
        half_snapshot_bytes,
        fine_half.answered(),
        recover_host.as_secs_f64() * 1e6,
    );

    std::fs::write("WAL_e20.log", store.dump_wal()).expect("write WAL dump");
    std::fs::write("SNAPSHOTS_e20.log", store.dump_snapshots()).expect("write snapshot dump");
    println!("e20: wrote WAL_e20.log and SNAPSHOTS_e20.log");

    let us = |d: SimDuration| d.as_secs_f64() * 1e6;
    BenchJson::new("e20", "recovery")
        .metric("availability_journal_fine", fine.availability())
        .metric("availability_journal_coarse", coarse.availability())
        .metric(
            "availability_journal_unsnapshotted",
            unsnapshotted.availability(),
        )
        .metric("availability_no_journal", amnesia.availability())
        .metric("acked_lost_journal", fine.recovery.acked_lost as f64)
        .metric("acked_lost_no_journal", amnesia.recovery.acked_lost as f64)
        .metric("double_serves_journal", fine.recovery.double_serves as f64)
        .metric("wal_replayed_fine", fine.recovery.wal_replayed as f64)
        .metric("wal_replayed_coarse", coarse.recovery.wal_replayed as f64)
        .metric(
            "wal_replayed_unsnapshotted",
            unsnapshotted.recovery.wal_replayed as f64,
        )
        .metric("replay_downtime_fine_us", us(fine.recovery.replay_time))
        .metric("replay_downtime_coarse_us", us(coarse.recovery.replay_time))
        .metric(
            "replay_downtime_unsnapshotted_us",
            us(unsnapshotted.recovery.replay_time),
        )
        .metric("journal_requeued", fine.recovery.journal_requeued as f64)
        .metric("torn_truncated", fine.recovery.torn_truncated as f64)
        .metric("snapshots_skipped", fine.recovery.snapshots_skipped as f64)
        .metric("snapshot_bytes_last", snapshot_bytes as f64)
        .metric(
            "snapshot_bytes_last_half_history",
            half_snapshot_bytes as f64,
        )
        .metric("recover_host_us", recover_host.as_secs_f64() * 1e6)
        .bar(
            "availability_journal_vs_amnesia",
            fine.availability(),
            amnesia.availability(),
        )
        .bar(
            "replay_bounded_by_suffix",
            fine.recovery.wal_replayed as f64,
            unsnapshotted.recovery.wal_replayed as f64,
        )
        .holds("no_acked_loss", fine.recovery.acked_lost == 0)
        .holds("no_double_serves", fine.recovery.double_serves == 0)
        .bar(
            "snapshot_bytes_independent_of_history",
            snapshot_bound as f64,
            snapshot_bytes as f64,
        )
        .write();

    // Wall-clock: the full durability replay with fine snapshots.
    time("e20_recovery/crash_replay_with_journal", 10, || {
        play(journaled(Some(FINE_INTERVAL))).delivered()
    });
}
