//! E14: fleet serving throughput.
//!
//! Serves the same request stream through `GuillotineFleet`s of 1, 2 and 8
//! shards. Shards are independent machines serving concurrently, so the
//! honest scaling metric is the fleet's *simulated* serving time (each wave
//! completes when its slowest shard finishes): per wave of W requests a
//! single shard pays `launch + W × per-request`, while S shards pay
//! `launch + (W/S) × per-request` — the acceptance bar is ≥1.5x simulated
//! throughput at 8 shards vs 1. Per-shard `forward_launches()` witness the
//! amortization: one launch per shard per wave.
//!
//! In wall-clock the fleet's one serve driver overlaps the shards' forward
//! sweeps on the host's cores (control work stays serial), so host req/s
//! for the same three fleets is recorded beside the simulated figures,
//! together with the `available_parallelism` it was measured at. It carries
//! no bar — CI runner core counts vary, and on one CPU the driver is the
//! serial one. Splitting a wave over more shards also *adds* sweeps (one
//! launch per live shard), so wall-clock only wins once there are cores to
//! overlap them on. The closing timings measure the same serve path.
//!
//! The sweep pool time-slices, so a wave's sweep phase costs
//! Σ sweeps ÷ threads rather than ⌈live shards ÷ threads⌉ whole sweeps. The
//! place that shows is an odd live-shard count, so host ms per wave is also
//! recorded (again no bar) for waves that reach only 4, 5 and 6 shards of
//! the 8-shard fleet. Expected shape on 2 cores: 5 live shards cost about
//! midway between 4 and 6 (2, 2½ and 3 sweeps); under a run-to-completion
//! pool 5 cost the same as 6, the control thread idling through the helper's
//! odd sweep.

use guillotine::fleet::GuillotineFleet;
use guillotine::serve::ServeRequest;
use guillotine_bench::{time, BenchJson};
use guillotine_types::SessionId;
use std::time::Instant;

const WAVES: usize = 4;
const WAVE_SIZE: usize = 64;

/// One session per wave slot, `WAVE_SIZE / 8` of them homed on each shard of
/// an 8-shard fleet. The home shard is the session hash modulo the shard
/// count, so the same sessions split exactly evenly over 2 shards and 1 as
/// well: sub-batches are even and the launch-count witness below is exact,
/// one forward launch per shard per wave.
fn sessions() -> Vec<SessionId> {
    let widest = fleet(8);
    let mut room = [WAVE_SIZE / 8; 8];
    (0..)
        .map(SessionId::new)
        .filter(|s| {
            let home = &mut room[widest.home_shard(*s)];
            *home > 0 && {
                *home -= 1;
                true
            }
        })
        .take(WAVE_SIZE)
        .collect()
}

fn stream(sessions: &[SessionId]) -> Vec<Vec<ServeRequest>> {
    (0..WAVES)
        .map(|wave| {
            sessions
                .iter()
                .enumerate()
                .map(|(i, session)| {
                    ServeRequest::new(format!(
                        "Wave {wave}: summarize change {i} in the release notes."
                    ))
                    .with_session(*session)
                })
                .collect()
        })
        .collect()
}

fn fleet(shards: usize) -> GuillotineFleet {
    GuillotineFleet::builder()
        .with_shards(shards)
        .build()
        .unwrap()
}

/// Host ms per wave, best of five fresh 8-shard fleets, when the wave holds
/// only the sessions homed on the first `live` shards.
fn live_shard_wave_ms(sessions: &[SessionId], live: usize) -> f64 {
    let widest = fleet(8);
    let reached: Vec<SessionId> = sessions
        .iter()
        .copied()
        .filter(|s| widest.home_shard(*s) < live)
        .collect();
    let host = (0..5)
        .map(|_| serve_waves(&mut fleet(8), stream(&reached)).1)
        .fold(f64::INFINITY, f64::min);
    host * 1e3 / WAVES as f64
}

/// Serves `waves` and returns (simulated, host) elapsed seconds.
fn serve_waves(fleet: &mut GuillotineFleet, waves: Vec<Vec<ServeRequest>>) -> (f64, f64) {
    let started = Instant::now();
    for wave in waves {
        let responses = fleet.serve_batch(wave).unwrap();
        assert!(responses.iter().all(|r| r.delivered()));
    }
    let host = started.elapsed().as_secs_f64();
    (fleet.stats().elapsed.as_nanos() as f64 / 1e9, host)
}

pub fn run() {
    // Headline: deterministic simulated throughput scaling, 1 vs 2 vs 8
    // shards on the same stream.
    let requests = (WAVES * WAVE_SIZE) as f64;
    let sessions = sessions();
    let mut throughput = Vec::new();
    let mut wall = Vec::new();
    for shards in [1usize, 2, 8] {
        let mut f = fleet(shards);
        let (elapsed, mut host) = serve_waves(&mut f, stream(&sessions));
        // The amortization witness: every shard launched its forward pass
        // exactly once per wave it participated in.
        for stats in f.stats().shards {
            assert_eq!(
                stats.routed,
                (WAVES * WAVE_SIZE / shards) as u64,
                "every shard gets its share of every wave"
            );
            assert_eq!(
                stats.forward_launches, WAVES as u64,
                "each shard must launch exactly once per fleet wave"
            );
        }
        throughput.push((shards, requests / elapsed));
        // Host time: best of three fresh fleets on a pre-built stream.
        for _ in 0..2 {
            host = host.min(serve_waves(&mut fleet(shards), stream(&sessions)).1);
        }
        wall.push((shards, requests / host, host * 1e3 / WAVES as f64));
    }
    let live_ms = [4usize, 5, 6].map(|live| (live, live_shard_wave_ms(&sessions, live)));
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    for &(shards, tput) in &throughput {
        println!("e14: {shards} shard(s) -> {tput:.0} req/simulated-sec");
    }
    let speedup_8 = throughput[2].1 / throughput[0].1;
    let speedup_2 = throughput[1].1 / throughput[0].1;
    println!(
        "e14: simulated throughput speedup vs 1 shard: 2 shards {speedup_2:.2}x, 8 shards {speedup_8:.2}x"
    );
    for &(shards, req_per_s, ms_per_wave) in &wall {
        println!(
            "e14: {shards} shard(s) -> {req_per_s:.0} req/host-sec ({ms_per_wave:.1} ms per {WAVE_SIZE}-request wave, {cpus} CPU(s))"
        );
    }
    for &(live, ms) in &live_ms {
        println!(
            "e14: {live} of 8 shards live -> {ms:.2} ms per {}-request wave ({cpus} CPU(s))",
            live * WAVE_SIZE / 8
        );
    }
    assert!(
        speedup_8 >= 1.5,
        "8 shards must give >=1.5x simulated throughput over 1 (got {speedup_8:.2}x)"
    );
    let mut report = BenchJson::new("e14", "fleet_throughput");
    for &(shards, tput) in &throughput {
        report.metric(&format!("throughput_{shards}_shards_req_per_s"), tput);
    }
    for &(shards, req_per_s, _) in &wall {
        report.metric(&format!("wall_{shards}_shards_req_per_s"), req_per_s);
    }
    for &(live, ms) in &live_ms {
        report.metric(&format!("wall_{live}_of_8_live_shards_ms_per_wave"), ms);
    }
    report
        .metric("available_parallelism", cpus as f64)
        .metric("speedup_2_shards", speedup_2)
        .bar("speedup_8_shards", speedup_8, 1.5)
        .write();

    // Wall-clock side: the same serve path, fleet build included.
    for shards in [1usize, 2, 8] {
        time(
            &format!("e14_fleet_throughput/serve_batch/{shards}"),
            10,
            || serve_waves(&mut fleet(shards), stream(&sessions)),
        );
    }
}
