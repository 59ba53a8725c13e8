//! `--cliff <name>`: reproductions of the cliffs found while sizing the
//! canonical workloads. Recorded, not fixed; perf/README.md lists them.

use crate::meter;
use crate::workload::{self, Features, Spec};
use guillotine::chaos::{ChaosDoor, FaultPlan};
use guillotine::DeadlinePolicy;
use guillotine_types::SimDuration;

/// The cliffs, by name.
pub const CLIFFS: [&str; 3] = ["ttft_former", "history", "chaos_plan"];

/// Runs one cliff reproduction and prints what it shows.
pub fn run(name: &str, seed: u64) -> Result<(), String> {
    match name {
        "ttft_former" => ttft_former(seed),
        "history" => history(seed),
        "chaos_plan" => chaos_plan(seed),
        other => Err(format!(
            "unknown cliff {other}; known: {}",
            CLIFFS.join(", ")
        )),
    }
}

fn spec(name: &str) -> Spec {
    *workload::find(name).expect("cliffs name canonical workloads only")
}

/// The first-token former on an 8-shard fleet: class-pure batches stay
/// near one request, each paying a whole 5 ms launch, so the door refuses
/// or misses deadlines at rates the completion former serves comfortably.
fn ttft_former(seed: u64) -> Result<(), String> {
    println!("mixed_8shard traffic, completion former vs first-token former:");
    for gap_us in [800u64, 1_200, 4_000] {
        for first_token in [false, true] {
            let spec = Spec {
                mean_gap_us: gap_us,
                ..spec("mixed_8shard")
            };
            let policy = if first_token {
                DeadlinePolicy::targeting_first_token()
            } else {
                DeadlinePolicy::default()
            };
            let mut door =
                workload::build_door_with(&spec, Features::canonical(&spec), policy, first_token)
                    .map_err(|e| e.to_string())?;
            let episode = workload::generate(&spec, seed, spec.requests);
            door.play(episode.trace).map_err(|e| e.to_string())?;
            let stats = door.admission_stats();
            println!(
                "  {:>5.0} req/s  {:<12} mean_batch {:>5.2}  refused {:>5.1}%  deadline misses {:>5.1}%  ttft p95 {}",
                1e6 / gap_us as f64,
                if first_token { "first-token" } else { "completion" },
                stats.mean_batch(),
                100.0 * stats.refused as f64 / stats.submitted.max(1) as f64,
                100.0 * stats.miss_rate(),
                stats.ttft_quantile(0.95),
            );
        }
    }
    Ok(())
}

/// Recovery + journal throughput against history length: every snapshot
/// re-encodes the whole idempotency set, so cost per request grows with
/// the requests already served.
fn history(seed: u64) -> Result<(), String> {
    println!("soak_1shard traffic, one door, by episode length:");
    for requests in [4_096usize, 16_384, 32_768] {
        let spec = spec("soak_1shard");
        let mut door =
            workload::build_door(&spec, Features::canonical(&spec)).map_err(|e| e.to_string())?;
        let episode = workload::generate(&spec, seed, requests);
        let (played, cost) = meter::measure(|| door.play(episode.trace));
        played.map_err(|e| e.to_string())?;
        println!(
            "  {requests:>6} requests  {:>8.0} req/s  {:>7.1} allocs/req  peak {:>6.1} MB",
            requests as f64 / (cost.wall_ns as f64 / 1e9),
            cost.allocs as f64 / requests as f64,
            cost.peak_live as f64 / 1e6,
        );
    }
    Ok(())
}

/// Most seeded durability plans slow one shard several-fold; every fleet
/// batch then waits for it, the 512-deep queue fills, and the door refuses
/// a share of the trace that swings with the traffic seed.
fn chaos_plan(seed: u64) -> Result<(), String> {
    println!("chaos_8shard traffic under other durability plan seeds:");
    let spec = spec("chaos_8shard");
    for plan_seed in [8u64, 34, 84, 21] {
        for traffic in 0..3u64 {
            let episode = workload::generate(&spec, seed + traffic, spec.requests);
            let span = episode.trace.last().map_or(0, |a| a.at.as_nanos());
            let plan = FaultPlan::seeded_durability(
                plan_seed,
                spec.shards,
                SimDuration::from_nanos(span / 10 * 9),
            );
            let door = workload::build_door(&spec, Features::canonical(&spec))
                .map_err(|e| e.to_string())?;
            let mut chaos = ChaosDoor::new(door, plan);
            let (decisions, responses) = chaos.play(episode.trace).map_err(|e| e.to_string())?;
            let refused = decisions.iter().filter(|d| !d.admitted()).count();
            let delivered = responses.iter().filter(|r| r.delivered()).count();
            let stats = chaos.door().admission_stats();
            println!(
                "  plan {plan_seed:>3} traffic {:>6}  refused at the door {refused:>4}  delivered {delivered:>4}/{}  queue high-water {:>3}  ttft p95 {}",
                seed + traffic,
                spec.requests,
                stats.depth.high_water(),
                stats.ttft_quantile(0.95),
            );
        }
    }
    Ok(())
}
