//! One episode: build a fresh door (untimed), one timed `play` of a
//! generated trace, verify (untimed).

use crate::meter::{self, Cost};
use crate::oracle::{self, Verdict};
use crate::workload::{self, Episode, Features, Spec};
use guillotine::admission::{FrontDoor, TimedArrival};
use guillotine::chaos::ChaosDoor;
use guillotine_detect::CompiledCategories;
use std::time::Instant;

/// One played and verified episode.
pub struct Played {
    /// What the timed `play` cost the host.
    pub cost: Cost,
    /// Untimed set-up before it: trace generation plus fleet and door build.
    pub setup_ns: u64,
    /// What verification found.
    pub verdict: Verdict,
    /// The door after the episode, for reading its statistics.
    pub door: FrontDoor,
}

/// What to play: which workload, through which layers, how much of it.
#[derive(Debug, Clone, Copy)]
pub struct Plan<'a> {
    /// The workload.
    pub spec: &'a Spec,
    /// Door layers to enable.
    pub features: Features,
    /// Whether to inject the workload's fault plan (chaos workloads only).
    pub faults: bool,
    /// Requests in the episode (a prefix of the full trace when smaller).
    pub requests: usize,
}

impl<'a> Plan<'a> {
    /// The workload's canonical episode.
    pub fn canonical(spec: &'a Spec, requests: usize) -> Self {
        Plan {
            spec,
            features: Features::canonical(spec),
            faults: spec.chaos,
            requests,
        }
    }
}

/// A door ready to play its episode.
enum Ready {
    Plain(Box<FrontDoor>),
    Chaos(Box<ChaosDoor>),
}

/// The untimed set-up of one episode: generate the trace, build the fleet
/// and the door, arm the fault plan. Returns what it took in nanoseconds.
fn set_up(
    plan: Plan<'_>,
    base_seed: u64,
    slot: usize,
) -> Result<(Episode, Vec<TimedArrival>, Ready, u64), String> {
    let spec = plan.spec;
    let started = Instant::now();
    let episode = workload::generate(spec, base_seed + slot as u64, plan.requests);
    let door = workload::build_door(spec, plan.features)
        .map_err(|e| format!("{}: door build failed: {e}", spec.name))?;
    // `play` consumes the trace; verification needs the prompts afterwards.
    let trace = episode.trace.clone();
    let ready = if plan.faults {
        let faults = workload::fault_plan(spec, slot, &trace);
        Ready::Chaos(Box::new(ChaosDoor::new(door, faults)))
    } else {
        Ready::Plain(Box::new(door))
    };
    let elapsed = started.elapsed().as_nanos() as u64;
    Ok((episode, trace, ready, elapsed))
}

/// One more sample of an episode's set-up time, nothing played.
pub fn time_set_up(plan: Plan<'_>, base_seed: u64, slot: usize) -> Result<u64, String> {
    set_up(plan, base_seed, slot).map(|(_, _, _, elapsed)| elapsed)
}

/// Plays episode `slot` of `plan`: the trace comes from episode seed
/// `base_seed + slot`, the fault plan (if any) from the workload's fixed
/// schedule for that slot.
pub fn play(
    plan: Plan<'_>,
    base_seed: u64,
    slot: usize,
    forbidden: &CompiledCategories,
) -> Result<Played, String> {
    let spec = plan.spec;
    let (episode, trace, ready, setup_ns) = set_up(plan, base_seed, slot)?;
    let (outcome, cost, door) = match ready {
        Ready::Chaos(mut chaos) => {
            let (outcome, cost) = meter::measure(|| chaos.play(trace));
            (outcome, cost, chaos.into_parts().0)
        }
        Ready::Plain(mut door) => {
            let (outcome, cost) = meter::measure(|| door.play(trace));
            (outcome, cost, *door)
        }
    };
    let (decisions, responses) = outcome.map_err(|e| format!("{}: play failed: {e}", spec.name))?;
    let verdict = oracle::verify(
        &episode,
        &decisions,
        &responses,
        &door,
        forbidden,
        !plan.faults,
    );
    Ok(Played {
        cost,
        setup_ns,
        verdict,
        door,
    })
}
