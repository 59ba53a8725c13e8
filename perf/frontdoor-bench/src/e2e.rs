//! The end-to-end run of one workload: `S` episode seeds × `R` rounds,
//! rounds interleaved across seeds, tracing off.

use crate::episode::{self, Plan};
use crate::meter::Cost;
use crate::metrics::{Values, FAIL_FRAC};
use crate::stats;
use crate::workload::Spec;
use guillotine_detect::CompiledCategories;
use std::time::Instant;

/// Requests in a warm-up episode: enough to touch every code path and
/// lazy static, a small share of the measured episode.
const WARMUP_REQUESTS: usize = 256;

/// Set-up samples per seed behind `setup_s`: rounds supply the first ones,
/// set-up-only repeats the rest, so a two-round run still reports a median
/// worth the name.
const SETUP_SAMPLES: usize = 9;

/// How many rounds to run.
#[derive(Debug, Clone, Copy)]
pub enum Rounds {
    /// Keep starting rounds while the next one is expected to finish within
    /// this many seconds of measuring; never fewer than two, so the
    /// simulated-clock digest has something to be compared with.
    Timed(f64),
    /// Exactly this many.
    Fixed(usize),
}

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Base seed; episode `i` uses `seed + i`.
    pub seed: u64,
    /// Round rule.
    pub rounds: Rounds,
    /// Overrides the workload's `S` (`--check`).
    pub seeds: Option<usize>,
    /// Overrides the workload's episode size (`--check`).
    pub requests: Option<usize>,
}

/// What an end-to-end run found.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// End-to-end metrics, `fail_frac`, and the harness's own `bench.*`
    /// diagnostics that an untraced run can compute.
    pub values: Values,
    /// Requests submitted over every measured episode.
    pub submitted: u64,
    /// Of those, served as their class expects.
    pub succeeded: u64,
    /// Of those, not.
    pub failed: u64,
    /// Rounds run.
    pub rounds: usize,
    /// Episode seeds run.
    pub seeds: usize,
    /// Round-0 simulated-clock digest per seed, as hex.
    pub digests: Vec<String>,
    /// Outputs that are wrong; non-empty fails the run.
    pub violations: Vec<String>,
}

#[derive(Default)]
struct SeedRuns {
    wall_ns: Vec<f64>,
    cpu_ns: Vec<f64>,
    setup_ns: Vec<f64>,
    digest: u64,
    ttft_p95_ns: u64,
    submitted: u64,
    failed: u64,
    good: u64,
}

/// Runs `spec` end to end.
pub fn run(spec: &Spec, options: Options) -> Result<Outcome, String> {
    let forbidden = CompiledCategories::standard();
    let seeds = options.seeds.unwrap_or(spec.seeds);
    let requests = options.requests.unwrap_or(spec.requests);
    let plan = Plan::canonical(spec, requests);

    // Warm-up: a prefix of every seed's episode, so first-touch costs
    // (lazy statics, allocator growth, page faults) land outside the
    // measured rounds.
    for slot in 0..seeds {
        let warmup = Plan {
            requests: requests.min(WARMUP_REQUESTS),
            ..plan
        };
        episode::play(warmup, options.seed, slot, &forbidden)?;
    }

    let mut outcome = Outcome {
        seeds,
        ..Outcome::default()
    };
    let mut runs: Vec<SeedRuns> = (0..seeds).map(|_| SeedRuns::default()).collect();
    let mut total = Cost::default();
    let mut digest_stable = true;
    let measuring = Instant::now();
    loop {
        let round_started = Instant::now();
        for (slot, seed_runs) in runs.iter_mut().enumerate() {
            let played = episode::play(plan, options.seed, slot, &forbidden)?;
            total.add(&played.cost);
            seed_runs.wall_ns.push(played.cost.wall_ns as f64);
            seed_runs.cpu_ns.push(played.cost.cpu_ns as f64);
            seed_runs.setup_ns.push(played.setup_ns as f64);
            let verdict = played.verdict;
            outcome.submitted += verdict.submitted;
            outcome.succeeded += verdict.succeeded;
            outcome.failed += verdict.failed;
            for violation in verdict.violations {
                outcome
                    .violations
                    .push(format!("{} seed {slot}: {violation}", spec.name));
            }
            if outcome.rounds == 0 {
                seed_runs.digest = verdict.digest;
                seed_runs.submitted = verdict.submitted;
                seed_runs.failed = verdict.failed;
                seed_runs.good = verdict.good;
                seed_runs.ttft_p95_ns =
                    played.door.admission_stats().ttft_quantile(0.95).as_nanos();
            } else if verdict.digest != seed_runs.digest {
                digest_stable = false;
            }
        }
        outcome.rounds += 1;
        let done = match options.rounds {
            Rounds::Fixed(rounds) => outcome.rounds >= rounds,
            Rounds::Timed(seconds) => {
                let next_ends =
                    measuring.elapsed().as_secs_f64() + round_started.elapsed().as_secs_f64();
                outcome.rounds >= 2 && next_ends > seconds
            }
        };
        if done {
            break;
        }
    }

    if matches!(options.rounds, Rounds::Timed(_)) {
        for (slot, seed_runs) in runs.iter_mut().enumerate() {
            while seed_runs.setup_ns.len() < SETUP_SAMPLES {
                let elapsed = episode::time_set_up(plan, options.seed, slot)?;
                seed_runs.setup_ns.push(elapsed as f64);
            }
        }
    }

    let submitted_round0: u64 = runs.iter().map(|r| r.submitted).sum();
    let failed_round0: u64 = runs.iter().map(|r| r.failed).sum();
    if !digest_stable {
        outcome.violations.push(format!(
            "{}: the simulated-clock digest changed between rounds of one seed",
            spec.name
        ));
    }
    if !spec.chaos && failed_round0 != 0 {
        outcome.violations.push(format!(
            "{}: {failed_round0} requests not served as their class expects on a fault-free workload",
            spec.name
        ));
    }
    outcome.digests = runs.iter().map(|r| format!("{:016x}", r.digest)).collect();

    // Best-of-R per seed for both clocks: on a shared host the minimum of a
    // seed's rounds moves far less from run to run than their mean.
    let best_wall_ns: f64 = runs.iter().map(|r| stats::best_of(&r.wall_ns)).sum();
    let best_cpu_ns: f64 = runs.iter().map(|r| stats::best_of(&r.cpu_ns)).sum();
    let setup_ns: f64 = runs.iter().map(|r| stats::median(&r.setup_ns)).sum();
    let ttft_ns: f64 = runs.iter().map(|r| r.ttft_p95_ns as f64).sum::<f64>() / seeds.max(1) as f64;
    let good: u64 = runs.iter().map(|r| r.good).sum();
    let measured_requests = outcome.submitted as f64;
    let walls_ms: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.wall_ns.iter().map(|ns| ns / 1e6))
        .collect();
    let spreads: Vec<f64> = runs
        .iter()
        .map(|r| stats::iqr_over_median(&r.wall_ns))
        .collect();

    let values = &mut outcome.values;
    values.insert("req_per_s", submitted_round0 as f64 / (best_wall_ns / 1e9));
    values.insert(
        "cpu_us_per_req",
        best_cpu_ns / 1e3 / submitted_round0.max(1) as f64,
    );
    values.insert("allocs_per_req", total.allocs as f64 / measured_requests);
    values.insert(
        "alloc_bytes_per_req",
        total.alloc_bytes as f64 / measured_requests,
    );
    values.insert("peak_live_mb", total.peak_live as f64 / 1e6);
    values.insert("setup_s", setup_ns / 1e9);
    values.insert("sim_ttft_p95_ms", ttft_ns / 1e6);
    values.insert(
        "sim_goodput_frac",
        good as f64 / submitted_round0.max(1) as f64,
    );
    values.insert("sim_digest_stable", f64::from(u8::from(digest_stable)));
    values.insert(
        FAIL_FRAC,
        failed_round0 as f64 / submitted_round0.max(1) as f64,
    );
    values.insert("bench.samples", walls_ms.len() as f64);
    values.insert("bench.episode_ms_p50", stats::percentile(&walls_ms, 50.0));
    values.insert("bench.episode_ms_p90", stats::percentile(&walls_ms, 90.0));
    values.insert("bench.round_spread", stats::median(&spreads));
    Ok(outcome)
}
