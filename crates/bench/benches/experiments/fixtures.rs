//! What experiments share. Mostly the chaos three (e19, e20, e21): one
//! 4-shard fleet, one front door, one incident-report arrival cycle and one
//! way to play a fault plan, so they fault literally the same system. Also
//! the workloads one experiment borrows from another (e21 traces e13's
//! prompts; e18 replays e17's arrival process).

use guillotine::admission::{AdmissionConfig, FrontDoor, TimedArrival};
use guillotine::chaos::{ChaosDoor, ChaosTrace, FaultPlan};
use guillotine::fleet::{GuillotineFleet, RecoveryStats};
use guillotine::recovery::RecoveryConfig;
use guillotine::serve::{ServePriority, ServeRequest, ServeResponse};
use guillotine::{
    AdmissionDecision, ArrivalGen, ArrivalProcess, DeadlinePolicy, KvCacheConfig, ShedPolicy,
};
use guillotine_types::{SessionId, SimDuration, SimInstant};

pub const SHARDS: usize = 4;
const SESSIONS: u32 = 24;

/// e19's steady arrival trace and seeded fault schedule; e21 replays both
/// under full tracing.
pub const E19_REQUESTS: u32 = 192;
pub const E19_SEED: u64 = 0x5EED;
/// Arrival spacing; 192 arrivals span ~9.6 simulated milliseconds.
const E19_SPACING_NS: u64 = 50_000;
/// Every fault in the seeded plan fires inside the arrival span.
const E19_HORIZON: SimDuration = SimDuration::from_millis(8);

/// `n` short benign prompts: the e13 batch workload (e21 traces it).
pub fn release_note_prompts(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| format!("Summarize change number {i} in the release notes."))
        .collect()
}

/// The seeded bursty (on-off) arrival instants e17 and e18 replay: bursts
/// of 16 at 50 µs spacing, 1 ms idle gaps.
pub fn bursty_arrivals(seed: u64, requests: usize) -> Vec<SimInstant> {
    let process = ArrivalProcess::OnOff {
        burst_len: 16,
        burst_gap: SimDuration::from_micros(50),
        idle_gap: SimDuration::from_millis(1),
    };
    ArrivalGen::trace(process, seed, requests)
}

/// Four shards over the default shared KV tier, recovered shards rejoining
/// through a 3-batch, 2-per-batch probation.
pub fn fleet4() -> GuillotineFleet {
    GuillotineFleet::builder()
        .with_shards(SHARDS)
        .with_kv_cache(KvCacheConfig::default())
        .with_probation(3, 2)
        .build()
        .unwrap()
}

/// [`fleet4`] behind a fail-closed 512-deep door forming batches of up to 8
/// with a 100 µs max wait and a 5 s default deadline.
pub fn chaos_door(recovery: RecoveryConfig) -> FrontDoor {
    FrontDoor::new(
        fleet4(),
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
    .with_recovery(recovery)
}

/// One incident-report request per arrival instant: 24 sessions, cycling
/// interactive (150 ms deadline) / normal (600 ms) / batch (none).
pub fn incident_trace(arrivals: impl Iterator<Item = SimInstant>) -> Vec<TimedArrival> {
    arrivals
        .zip(0u32..)
        .map(|(at, i)| {
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
                    "Please summarize item {i} of the incident report."
                ))
                .with_session(SessionId::new(i % SESSIONS))
                .with_priority(priority),
                deadline,
            }
        })
        .collect()
}

pub fn e19_trace() -> Vec<TimedArrival> {
    incident_trace((0..u64::from(E19_REQUESTS)).map(|i| SimInstant::from_nanos(i * E19_SPACING_NS)))
}

pub fn e19_plan() -> FaultPlan {
    FaultPlan::seeded(E19_SEED, SHARDS, E19_HORIZON)
}

/// One trace played through one door under one fault plan, and what came
/// of it.
pub struct Played {
    pub decisions: Vec<AdmissionDecision>,
    pub responses: Vec<ServeResponse>,
    pub door: FrontDoor,
    pub faults: ChaosTrace,
    /// The door's recovery-side counters once the trace drained.
    pub recovery: RecoveryStats,
    pub deadlines_missed: u64,
}

pub fn play(door: FrontDoor, plan: FaultPlan, trace: Vec<TimedArrival>) -> Played {
    let mut chaos = ChaosDoor::new(door, plan);
    let (decisions, responses) = chaos.play(trace).unwrap();
    let (door, faults) = chaos.into_parts();
    let stats = door.stats();
    Played {
        decisions,
        responses,
        door,
        faults,
        recovery: stats.recovery,
        deadlines_missed: stats.admission.map_or(0, |a| a.deadlines_missed),
    }
}

impl Played {
    pub fn admitted(&self) -> u64 {
        self.decisions.iter().filter(|d| d.admitted()).count() as u64
    }

    pub fn answered(&self) -> u64 {
        self.responses.len() as u64
    }

    pub fn delivered(&self) -> u64 {
        self.responses.iter().filter(|r| r.delivered()).count() as u64
    }

    /// Delivered fraction of admitted requests: did admitted work get a
    /// real answer, or a refusal?
    pub fn availability(&self) -> f64 {
        match self.admitted() {
            0 => 0.0,
            admitted => self.delivered() as f64 / admitted as f64,
        }
    }
}
