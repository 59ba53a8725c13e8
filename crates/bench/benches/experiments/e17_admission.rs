//! E17: admission control — deadline/priority batch forming vs naive
//! admission on the same seeded arrival trace.
//!
//! The admission tier exists to turn individually-arriving requests into
//! good fleet batches. This bench replays one deterministic bursty
//! (on-off) arrival trace through three identical fleets that differ only
//! in their admission policy:
//!
//! * **per-request** — every arrival is served alone (`FifoWavePolicy`
//!   with wave 1): the no-batching baseline, one weight sweep per request;
//! * **fixed waves** — naive FIFO waves of 16, blind to priority,
//!   deadlines and sessions;
//! * **deadline-aware** — the `DeadlinePolicy` former: earliest deadline
//!   first within priority class, session-affinity grouping, max-wait
//!   dispatch.
//!
//! Headline assertion: deadline-aware batch forming is **>=1.5x** the
//! simulated serve throughput of per-request admission on the same trace.
//! The SLO table must also tell the truth: deadline misses are reported,
//! the deadline-aware former misses no more than the blind fixed wave,
//! and an overloaded bounded queue reports its shed counts in the
//! `FleetReport` render.

use super::fixtures::bursty_arrivals;
use guillotine::admission::{AdmissionConfig, FrontDoor, TimedArrival};
use guillotine::fleet::GuillotineFleet;
use guillotine::serve::{ServePriority, ServeRequest};
use guillotine::{BatchPolicy, DeadlinePolicy, FifoWavePolicy, ShedPolicy};
use guillotine_bench::{time, BenchJson};
use guillotine_types::{SessionId, SimDuration};

const REQUESTS: usize = 192;
const SEED: u64 = 0x17AD;

/// The deterministic workload: bursty arrivals, 24 sessions, a priority
/// mix with tiered deadlines (interactive requests are latency-sensitive,
/// batch-class requests carry none).
fn trace() -> Vec<TimedArrival> {
    bursty_arrivals(SEED, REQUESTS)
        .into_iter()
        .enumerate()
        .map(|(i, at)| {
            let (priority, deadline) = match i % 3 {
                0 => (
                    ServePriority::Interactive,
                    Some(SimDuration::from_millis(150)),
                ),
                1 => (ServePriority::Normal, Some(SimDuration::from_millis(600))),
                _ => (ServePriority::Batch, None),
            };
            TimedArrival {
                at,
                request: ServeRequest::new(format!(
                    "Please summarize item {i} of the deployment report."
                ))
                .with_session(SessionId::new((i % 24) as u32))
                .with_priority(priority),
                deadline,
            }
        })
        .collect()
}

struct Outcome {
    served: u64,
    elapsed: SimDuration,
    misses: u64,
    shed: u64,
    report: String,
}

/// Simulated requests per second.
fn throughput(o: &Outcome) -> f64 {
    o.served as f64 / o.elapsed.as_secs_f64()
}

/// The deadline-aware former under test.
fn deadline_former() -> Box<dyn BatchPolicy> {
    Box::new(DeadlinePolicy {
        max_batch: 16,
        max_wait: SimDuration::from_micros(200),
        session_affinity: true,
        ..DeadlinePolicy::default()
    })
}

fn replay(policy: Box<dyn BatchPolicy>, capacity: usize, shed: ShedPolicy) -> Outcome {
    let fleet = GuillotineFleet::builder().with_shards(2).build().unwrap();
    let mut door = FrontDoor::new(
        fleet,
        AdmissionConfig {
            capacity,
            shed,
            default_deadline: None,
        },
        policy,
    );
    let (_, responses) = door.play(trace()).unwrap();
    let stats = door.stats();
    let admission = stats.admission.unwrap();
    Outcome {
        served: responses.len() as u64,
        elapsed: stats.elapsed,
        misses: admission.deadlines_missed,
        shed: admission.shed,
        report: door.report().render(),
    }
}

pub fn run() {
    let per_request = replay(
        Box::new(FifoWavePolicy::per_request()),
        1024,
        ShedPolicy::FailClosed,
    );
    let fixed_wave = replay(
        Box::new(FifoWavePolicy { wave: 16 }),
        1024,
        ShedPolicy::FailClosed,
    );
    let deadline = replay(deadline_former(), 1024, ShedPolicy::FailClosed);
    assert_eq!(per_request.served, REQUESTS as u64);
    assert_eq!(fixed_wave.served, REQUESTS as u64);
    assert_eq!(deadline.served, REQUESTS as u64);

    let speedup = throughput(&deadline) / throughput(&per_request);
    println!(
        "e17: {REQUESTS} bursty arrivals -> per-request {} ({:.0} req/s, {} deadline misses), \
         fixed wave 16 {} ({:.0} req/s, {} misses), deadline-aware {} ({:.0} req/s, {} misses) \
         -> {speedup:.1}x over per-request admission",
        per_request.elapsed,
        throughput(&per_request),
        per_request.misses,
        fixed_wave.elapsed,
        throughput(&fixed_wave),
        fixed_wave.misses,
        deadline.elapsed,
        throughput(&deadline),
        deadline.misses,
    );
    assert!(
        speedup >= 1.5,
        "deadline-aware batch forming must be >=1.5x per-request admission, got {speedup:.2}x"
    );
    assert!(
        deadline.misses <= fixed_wave.misses,
        "EDF-within-priority must not miss more deadlines than a blind fixed wave \
         ({} vs {})",
        deadline.misses,
        fixed_wave.misses
    );
    assert!(
        deadline.misses < per_request.misses,
        "deadline-aware batching must beat the overloaded per-request baseline on misses \
         ({} vs {})",
        deadline.misses,
        per_request.misses
    );
    // The SLO table tells the truth in the rendered report.
    assert!(deadline.report.contains("deadlines"));
    assert!(deadline.report.contains("admission queue"));

    // Overload a bounded shedding queue with the same trace: the shed
    // counts must be non-zero and reported in the render.
    let overloaded = replay(deadline_former(), 24, ShedPolicy::DropLowestPriority);
    let shed_line = overloaded
        .report
        .lines()
        .find(|l| l.starts_with("backpressure"))
        .expect("report must carry the backpressure line")
        .to_string();
    println!("e17: overloaded capacity-24 queue -> {shed_line}");
    assert!(
        overloaded.shed > 0,
        "the overloaded bounded queue must shed ({shed_line})"
    );
    assert!(
        shed_line.contains(&format!("{} shed", overloaded.shed)),
        "the rendered report must carry the shed count: {shed_line}"
    );
    BenchJson::new("e17", "admission")
        .metric("per_request_req_per_s", throughput(&per_request))
        .metric("fixed_wave_req_per_s", throughput(&fixed_wave))
        .metric("deadline_req_per_s", throughput(&deadline))
        .metric("per_request_misses", per_request.misses as f64)
        .metric("fixed_wave_misses", fixed_wave.misses as f64)
        .metric("deadline_misses", deadline.misses as f64)
        .metric("overloaded_shed", overloaded.shed as f64)
        .bar("deadline_vs_per_request_speedup", speedup, 1.5)
        .write();

    // Wall-clock: the full open-loop replay through the deadline former.
    time("e17_admission/replay_deadline_former", 10, || {
        replay(deadline_former(), 1024, ShedPolicy::FailClosed)
    });
    time("e17_admission/replay_per_request", 10, || {
        replay(
            Box::new(FifoWavePolicy::per_request()),
            1024,
            ShedPolicy::FailClosed,
        )
    });
}
