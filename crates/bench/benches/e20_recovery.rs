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

use criterion::{criterion_group, criterion_main, Criterion};
use guillotine::admission::{AdmissionConfig, FrontDoor, JournalConfig, TimedArrival};
use guillotine::chaos::{ChaosDoor, FaultPlan};
use guillotine::fleet::GuillotineFleet;
use guillotine::recovery::RecoveryConfig;
use guillotine::serve::{ServePriority, ServeRequest};
use guillotine::{DeadlinePolicy, KvCacheConfig, ShedPolicy};
use guillotine_types::{SessionId, SimDuration, SimInstant};

const SHARDS: usize = 4;
const SESSIONS: u32 = 24;
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
    (0..bursts)
        .flat_map(|burst| {
            (0..BURST_SIZE).map(move |j| {
                let i = burst * BURST_SIZE + j;
                let (priority, deadline) = match i % 3 {
                    0 => (
                        ServePriority::Interactive,
                        Some(SimDuration::from_millis(150)),
                    ),
                    1 => (ServePriority::Normal, Some(SimDuration::from_millis(600))),
                    _ => (ServePriority::Batch, None),
                };
                TimedArrival {
                    at: SimInstant::from_nanos(
                        u64::from(burst) * BURST_SPACING_NS + u64::from(j) * INTRA_SPACING_NS,
                    ),
                    request: ServeRequest::new(format!(
                        "Please summarize item {i} of the incident report."
                    ))
                    .with_session(SessionId::new(i % SESSIONS))
                    .with_priority(priority),
                    deadline,
                }
            })
        })
        .collect()
}

fn door(journal: Option<JournalConfig>) -> FrontDoor {
    let fleet = GuillotineFleet::builder()
        .with_shards(SHARDS)
        .with_kv_cache(KvCacheConfig::default())
        .with_probation(3, 2)
        .build()
        .unwrap();
    let mut door = FrontDoor::new(
        fleet,
        AdmissionConfig {
            capacity: 512,
            shed: ShedPolicy::FailClosed,
            default_deadline: Some(SimDuration::from_secs(5)),
        },
        Box::new(DeadlinePolicy {
            max_batch: 8,
            max_wait: SimDuration::from_micros(100),
            ..DeadlinePolicy::default()
        }),
    )
    .with_recovery(RecoveryConfig::default());
    if let Some(config) = journal {
        door.enable_journal(config);
    }
    door
}

struct Outcome {
    admitted: u64,
    answered: u64,
    delivered: u64,
    crashes: u64,
    wal_replayed: u64,
    requeued: u64,
    snapshots_skipped: u64,
    torn_truncated: u64,
    acked_lost: u64,
    double_serves: u64,
    session_reorderings: u64,
    replay_downtime: SimDuration,
    /// Size of the newest snapshot at the end of the run.
    snapshot_bytes_last: u64,
    /// Host wall time of one `JournalStore::recover` on the final store
    /// (fastest of several).
    recover_host: std::time::Duration,
    wal_dump: Option<String>,
    snapshot_dump: Option<String>,
}

impl Outcome {
    /// Delivered fraction of admitted requests.
    fn availability(&self) -> f64 {
        if self.admitted == 0 {
            return 0.0;
        }
        self.delivered as f64 / self.admitted as f64
    }
}

fn run(journal: Option<JournalConfig>) -> Outcome {
    run_bursts(journal, BURSTS)
}

fn run_bursts(journal: Option<JournalConfig>, bursts: u32) -> Outcome {
    let plan = FaultPlan::seeded_durability(SEED, SHARDS, HORIZON);
    let mut chaos = ChaosDoor::new(door(journal), plan);
    let (decisions, responses) = chaos.play(trace(bursts)).unwrap();
    let (door, _trace) = chaos.into_parts();
    let stats = door.stats();
    let recovery = &stats.recovery;
    let store = door.journal_store();
    let recover_host = store
        .map(|store| {
            (0..16)
                .map(|_| {
                    let start = std::time::Instant::now();
                    std::hint::black_box(store.recover());
                    start.elapsed()
                })
                .min()
                .unwrap_or_default()
        })
        .unwrap_or_default();
    Outcome {
        admitted: decisions.iter().filter(|d| d.admitted()).count() as u64,
        answered: responses.len() as u64,
        delivered: responses.iter().filter(|r| r.delivered()).count() as u64,
        crashes: recovery.control_plane_crashes,
        wal_replayed: recovery.wal_replayed,
        requeued: recovery.journal_requeued,
        snapshots_skipped: recovery.snapshots_skipped,
        torn_truncated: recovery.torn_truncated,
        acked_lost: recovery.acked_lost,
        double_serves: recovery.double_serves,
        session_reorderings: recovery.session_reorderings,
        replay_downtime: recovery.replay_time,
        snapshot_bytes_last: store
            .and_then(|store| store.latest_snapshot())
            .map_or(0, |blob| blob.len() as u64),
        recover_host,
        wal_dump: store.map(|store| store.dump_wal()),
        snapshot_dump: store.map(|store| store.dump_snapshots()),
    }
}

fn journaled(interval: Option<SimDuration>) -> Option<JournalConfig> {
    Some(JournalConfig {
        snapshot_interval: interval,
    })
}

fn bench(c: &mut Criterion) {
    let fine = run(journaled(Some(FINE_INTERVAL)));
    let fine_half = run_bursts(journaled(Some(FINE_INTERVAL)), BURSTS / 2);
    let coarse = run(journaled(Some(COARSE_INTERVAL)));
    let unsnapshotted = run(journaled(None));
    let amnesia = run(None);

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
            outcome.answered, outcome.admitted,
            "{name}: every acked request must be answered"
        );
        assert_eq!(outcome.acked_lost, 0, "{name}: acked work lost");
        assert_eq!(outcome.double_serves, 0, "{name}: double-served tickets");
        assert_eq!(
            outcome.session_reorderings, 0,
            "{name}: session reorderings"
        );
        assert!(
            outcome.crashes >= 2,
            "{name}: the seeded plan must land both crashes, saw {}",
            outcome.crashes
        );
        assert!(outcome.wal_replayed > 0, "{name}: recovery must replay");
    }
    // The amnesia baseline loses the acked queue on crash — that gap is
    // what the journal buys back.
    assert!(
        amnesia.acked_lost > 0,
        "the baseline must lose acked work: {} crashes, {} answered / {} admitted",
        amnesia.crashes,
        amnesia.answered,
        amnesia.admitted
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
        fine.wal_replayed <= coarse.wal_replayed,
        "finer snapshots cannot replay more: {} vs {}",
        fine.wal_replayed,
        coarse.wal_replayed
    );
    assert!(
        coarse.wal_replayed <= unsnapshotted.wal_replayed,
        "any snapshot bounds replay below full history: {} vs {}",
        coarse.wal_replayed,
        unsnapshotted.wal_replayed
    );
    assert!(
        fine.wal_replayed < unsnapshotted.wal_replayed,
        "snapshots must strictly shorten replay: {} vs {}",
        fine.wal_replayed,
        unsnapshotted.wal_replayed
    );
    assert!(
        fine.replay_downtime < unsnapshotted.replay_downtime,
        "snapshotted recovery must be strictly faster: {} vs {}",
        fine.replay_downtime,
        unsnapshotted.replay_downtime
    );

    // Snapshot size follows outstanding work, not completed history: both
    // runs end drained, one with twice the completed tickets.
    assert!(fine_half.answered * 2 == fine.answered && fine_half.snapshot_bytes_last > 0);
    let snapshot_bound = fine_half.snapshot_bytes_last + SNAPSHOT_GROWTH_SLACK_BYTES;
    assert!(
        fine.snapshot_bytes_last <= snapshot_bound,
        "snapshots must not grow with completed history: {} bytes after {} tickets vs {} after {}",
        fine.snapshot_bytes_last,
        fine.answered,
        fine_half.snapshot_bytes_last,
        fine_half.answered
    );

    let requests = requests();
    println!(
        "e20: {requests} bursty arrivals / {SHARDS} shards under durability plan {SEED:#x} -> \
         journal+fine {:.1}% available ({} replayed, {} re-queued, {} torn truncated, \
         {} snapshots skipped, downtime {})",
        fine.availability() * 100.0,
        fine.wal_replayed,
        fine.requeued,
        fine.torn_truncated,
        fine.snapshots_skipped,
        fine.replay_downtime,
    );
    println!(
        "e20: coarse {:.1}% ({} replayed, downtime {}), unsnapshotted {:.1}% \
         ({} replayed, downtime {}), amnesia {:.1}% ({} acked lost)",
        coarse.availability() * 100.0,
        coarse.wal_replayed,
        coarse.replay_downtime,
        unsnapshotted.availability() * 100.0,
        unsnapshotted.wal_replayed,
        unsnapshotted.replay_downtime,
        amnesia.availability() * 100.0,
        amnesia.acked_lost,
    );

    println!(
        "e20: last snapshot {} bytes after {} tickets ({} after {}), host recover {:.1} us",
        fine.snapshot_bytes_last,
        fine.answered,
        fine_half.snapshot_bytes_last,
        fine_half.answered,
        fine.recover_host.as_secs_f64() * 1e6,
    );

    if let (Some(wal), Some(snapshots)) = (&fine.wal_dump, &fine.snapshot_dump) {
        std::fs::write("WAL_e20.log", wal).expect("write WAL dump");
        std::fs::write("SNAPSHOTS_e20.log", snapshots).expect("write snapshot dump");
        println!("e20: wrote WAL_e20.log and SNAPSHOTS_e20.log");
    }

    guillotine_bench::BenchJson::new("e20", "recovery")
        .metric("availability_journal_fine", fine.availability())
        .metric("availability_journal_coarse", coarse.availability())
        .metric(
            "availability_journal_unsnapshotted",
            unsnapshotted.availability(),
        )
        .metric("availability_no_journal", amnesia.availability())
        .metric("acked_lost_journal", fine.acked_lost as f64)
        .metric("acked_lost_no_journal", amnesia.acked_lost as f64)
        .metric("double_serves_journal", fine.double_serves as f64)
        .metric("wal_replayed_fine", fine.wal_replayed as f64)
        .metric("wal_replayed_coarse", coarse.wal_replayed as f64)
        .metric(
            "wal_replayed_unsnapshotted",
            unsnapshotted.wal_replayed as f64,
        )
        .metric(
            "replay_downtime_fine_us",
            fine.replay_downtime.as_secs_f64() * 1e6,
        )
        .metric(
            "replay_downtime_coarse_us",
            coarse.replay_downtime.as_secs_f64() * 1e6,
        )
        .metric(
            "replay_downtime_unsnapshotted_us",
            unsnapshotted.replay_downtime.as_secs_f64() * 1e6,
        )
        .metric("journal_requeued", fine.requeued as f64)
        .metric("torn_truncated", fine.torn_truncated as f64)
        .metric("snapshots_skipped", fine.snapshots_skipped as f64)
        .metric("snapshot_bytes_last", fine.snapshot_bytes_last as f64)
        .metric(
            "snapshot_bytes_last_half_history",
            fine_half.snapshot_bytes_last as f64,
        )
        .metric("recover_host_us", fine.recover_host.as_secs_f64() * 1e6)
        .bar(
            "availability_journal_vs_amnesia",
            fine.availability(),
            amnesia.availability(),
        )
        .bar(
            "replay_bounded_by_suffix",
            fine.wal_replayed as f64,
            unsnapshotted.wal_replayed as f64,
        )
        .bar(
            "no_acked_loss",
            if fine.acked_lost == 0 { 1.0 } else { 0.0 },
            1.0,
        )
        .bar(
            "no_double_serves",
            if fine.double_serves == 0 { 1.0 } else { 0.0 },
            1.0,
        )
        .bar(
            "snapshot_bytes_independent_of_history",
            snapshot_bound as f64,
            fine.snapshot_bytes_last as f64,
        )
        .write();

    // Wall-clock: the full durability replay with fine snapshots.
    let mut group = c.benchmark_group("e20_recovery");
    group.sample_size(10);
    group.bench_function("crash_replay_with_journal", |b| {
        b.iter(|| run(journaled(Some(FINE_INTERVAL))).delivered)
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
