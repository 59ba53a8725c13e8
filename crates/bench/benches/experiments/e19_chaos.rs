//! E19: chaos — fleet availability and deadline-keeping under a seeded
//! fault schedule, with the self-healing recovery stack on vs off.
//!
//! One deterministic [`FaultPlan::seeded`] schedule (shard crashes and
//! recoveries, slowdowns, console partitions and heals, lossy and
//! duplicating links, one KV eviction storm) is played against the same
//! arrival trace through two identical fleets behind a `FrontDoor`:
//!
//! * **recovery on** — bounded-backoff retry, latency-quantile hedging,
//!   serve timeouts, ticket idempotency, crash re-queue, cold-KV
//!   probation, and the graceful-degradation ladder;
//! * **recovery off** — `RecoveryConfig::disabled()`: no retries, no
//!   hedges, no ladder; a failed sub-batch is refused on the spot.
//!
//! Headline assertions: recovery must beat recovery-off on availability
//! (delivered fraction of admitted requests), and the safety witnesses
//! must both read zero — no ticket double-served by a retry or hedge, no
//! session's responses reordered by a re-queue. The chaos trace is
//! written as `CHAOS_TRACE_e19.json` next to `BENCH_e19.json` so CI can
//! archive exactly what broke and what the fleet did about it.

use super::fixtures::{
    self, chaos_door as door, e19_plan, e19_trace, Played, E19_REQUESTS as REQUESTS,
    E19_SEED as SEED, SHARDS,
};
use guillotine::recovery::RecoveryConfig;
use guillotine::serve::ServeRequest;
use guillotine_bench::{time, BenchJson};
use guillotine_types::SessionId;

fn play(recovery: RecoveryConfig) -> Played {
    fixtures::play(door(recovery), e19_plan(), e19_trace())
}

/// Delivered fraction of *offered* load — ladder sheds count against this
/// one.
fn goodput(run: &Played) -> f64 {
    run.delivered() as f64 / f64::from(REQUESTS)
}

/// A latency-aware recovery config: hedge past 4x and time out past 32x a
/// healthy single-request baseline measured on an unfaulted fleet.
fn tuned_recovery() -> RecoveryConfig {
    let mut probe = door(RecoveryConfig::disabled());
    probe.submit(ServeRequest::new("Baseline latency probe.").with_session(SessionId::new(0)));
    let baseline = probe.drain().unwrap()[0].latency.total();
    RecoveryConfig {
        hedge_threshold: Some(baseline.saturating_mul(4)),
        serve_timeout: Some(baseline.saturating_mul(32)),
        // Retries and re-routing absorb a two-shard outage on a
        // four-shard fleet; the ladder steps in only when three are gone.
        shed_health: 0.3,
        streaming_health: 0.15,
        ..RecoveryConfig::default()
    }
}

pub fn run() {
    let with = play(tuned_recovery());
    let without = play(RecoveryConfig::disabled());

    // Every admitted request is answered in both modes — recovery changes
    // *what* the answer is (delivered vs refused), never whether one comes.
    assert_eq!(with.answered(), with.admitted());
    assert_eq!(without.answered(), without.admitted());
    // The safety witnesses: retry/hedge/re-queue never double-serves a
    // ticket and never reorders a session, under the full fault schedule.
    assert_eq!(with.recovery.double_serves, 0, "double-served tickets");
    assert_eq!(with.recovery.session_reorderings, 0, "session reorderings");
    assert_eq!(without.recovery.double_serves, 0);
    assert_eq!(without.recovery.session_reorderings, 0);

    let gain = with.availability() - without.availability();
    println!(
        "e19: {REQUESTS} arrivals / {SHARDS} shards under seeded fault plan {SEED:#x} -> \
         recovery ON  {:.1}% available ({} delivered / {} admitted, {} misses, \
         {} retries, {} re-queued, {} hedges ({} won), {} timeouts, {} ladder-shed, \
         mean MTTR {}, degraded {})",
        with.availability() * 100.0,
        with.delivered(),
        with.admitted(),
        with.deadlines_missed,
        with.recovery.retries,
        with.recovery.requeued_in_flight,
        with.recovery.hedges,
        with.recovery.hedges_won,
        with.recovery.timeouts,
        with.recovery.ladder_shed,
        with.recovery.mean_mttr(),
        with.recovery.degraded_time(),
    );
    println!(
        "e19: recovery OFF {:.1}% available ({} delivered / {} admitted, {} misses) \
         -> recovery worth +{:.1} points of availability",
        without.availability() * 100.0,
        without.delivered(),
        without.admitted(),
        without.deadlines_missed,
        gain * 100.0,
    );
    assert!(
        with.availability() > without.availability(),
        "recovery must beat recovery-off on availability: {:.3} vs {:.3}",
        with.availability(),
        without.availability()
    );
    assert!(
        goodput(&with) >= goodput(&without),
        "recovery must not trade availability for goodput: {:.3} vs {:.3}",
        goodput(&with),
        goodput(&without)
    );
    assert!(
        with.recovery.retries + with.recovery.requeued_in_flight > 0,
        "the seeded plan must actually exercise the retry/re-queue path"
    );

    std::fs::write("CHAOS_TRACE_e19.json", with.faults.to_json()).expect("write chaos trace");
    println!("e19: wrote CHAOS_TRACE_e19.json");

    let recovery = with.recovery;
    BenchJson::new("e19", "chaos")
        .metric("availability_with_recovery", with.availability())
        .metric("availability_without_recovery", without.availability())
        .metric("goodput_with_recovery", goodput(&with))
        .metric("goodput_without_recovery", goodput(&without))
        .metric(
            "deadline_misses_with_recovery",
            with.deadlines_missed as f64,
        )
        .metric(
            "deadline_misses_without_recovery",
            without.deadlines_missed as f64,
        )
        .metric("retries", recovery.retries as f64)
        .metric("requeued_in_flight", recovery.requeued_in_flight as f64)
        .metric("hedges", recovery.hedges as f64)
        .metric("hedges_won", recovery.hedges_won as f64)
        .metric("timeouts", recovery.timeouts as f64)
        .metric("ladder_shed", recovery.ladder_shed as f64)
        .metric("mean_mttr_ms", recovery.mean_mttr().as_secs_f64() * 1e3)
        .metric("degraded_ms", recovery.degraded_time().as_secs_f64() * 1e3)
        .bar(
            "availability_recovery_vs_off",
            with.availability(),
            without.availability(),
        )
        .holds("no_double_serves", recovery.double_serves == 0)
        .holds("no_session_reorderings", recovery.session_reorderings == 0)
        .write();

    // Wall-clock: the full chaos replay with recovery on.
    time("e19_chaos/chaos_replay_with_recovery", 10, || {
        play(tuned_recovery()).delivered()
    });
}
