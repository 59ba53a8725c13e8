//! The traced run: where an episode's wall time goes, layer by layer,
//! measured from outside only.
//!
//! One *pass* has three parts, all on episode slot 0 of the workload:
//!
//! * **door pass** — the `play` loop re-implemented over the public
//!   `submit_at` / `pump` / `drain`, one span per call;
//! * **feature deltas** — the same episode played with one optional layer
//!   flipped at a time (journal, telemetry, recovery) and with none of them;
//!   a layer's `delta_*` is on minus off;
//! * **rung replays** — the episode's requests, in the batches the door
//!   pass's pumps answered them in, replayed one layer deeper each time,
//!   each on fresh state. A rung's `self_*` is its time
//!   minus the rungs below it.
//!
//! Passes repeat while the time budget allows (at most five); every timing
//! reported is the minimum over passes, every count comes from the first
//! pass, and the span file holds the first pass.

use crate::episode::{self, Plan};
use crate::meter::Lap;
use crate::metrics::{Values, FAIL_FRAC};
use crate::oracle::{self, Verdict};
use crate::stats;
use crate::trace::{Recorder, Span};
use crate::workload::{self, Class, Episode, Features, Spec};
use guillotine::admission::{FrontDoor, TimedArrival};
use guillotine::chaos::ChaosDoor;
use guillotine::fleet::GuillotineFleet;
use guillotine::serve::{ServeRequest, ServeResponse};
use guillotine::{AdmissionDecision, DeadlinePolicy, KvCacheConfig, KvTier, DEFAULT_CHUNK_TOKENS};
use guillotine_admit::AdmissionController;
use guillotine_detect::{
    CompiledCategories, CompiledShieldRules, InputShield, OutputSanitizer, StreamingSanitizer,
};
use guillotine_journal::{rebuild, JournalStore, WalRecord};
use guillotine_model::forward::{
    decode_byte_target, decode_tokens, BatchedForwardPass, PrefillJob, PREFILL_WORDS_PER_TOKEN,
    WEIGHT_SWEEP_WORDS,
};
use guillotine_types::{SimDuration, SimInstant};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Most passes a traced run makes.
const MAX_PASSES: usize = 5;

/// What to trace.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Base seed (slot 0 of the workload is traced).
    pub seed: u64,
    /// Time budget: another pass starts only if it is expected to end
    /// within this many seconds.
    pub seconds: f64,
    /// Overrides the workload's episode size (`--check`).
    pub requests: Option<usize>,
    /// Overrides the pass limit (`--check`).
    pub max_passes: Option<usize>,
}

/// What a traced run found.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Every per-layer metric.
    pub values: Values,
    /// The first pass's spans.
    pub spans: Vec<Span>,
    /// Requests submitted in the door pass.
    pub submitted: u64,
    /// Of those, served as their class expects.
    pub succeeded: u64,
    /// Of those, not.
    pub failed: u64,
    /// Passes made.
    pub passes: usize,
    /// Outputs that are wrong; non-empty fails the run.
    pub violations: Vec<String>,
}

/// What the passes measured, by internal key: minimum-over-passes
/// timings, first-pass allocator calls and counts, and the wall time of
/// every canonical episode played.
#[derive(Default)]
struct Tally {
    min_ns: BTreeMap<&'static str, f64>,
    allocs: BTreeMap<&'static str, f64>,
    counts: BTreeMap<&'static str, f64>,
    episode_ms: Vec<f64>,
}

impl Tally {
    fn time(&mut self, key: &'static str, ns: u64) {
        let slot = self.min_ns.entry(key).or_insert(f64::INFINITY);
        *slot = slot.min(ns as f64);
    }

    fn count(&mut self, key: &'static str, value: f64) {
        self.counts.entry(key).or_insert(value);
    }

    fn lap(&mut self, key: &'static str, lap: Lap) {
        self.time(key, lap.ns);
        self.allocs.entry(key).or_insert(lap.allocs as f64);
    }

    fn ns(&self, key: &str) -> f64 {
        self.min_ns.get(key).copied().unwrap_or(0.0)
    }

    fn allocs(&self, key: &str) -> f64 {
        self.allocs.get(key).copied().unwrap_or(0.0)
    }

    fn n(&self, key: &str) -> f64 {
        self.counts.get(key).copied().unwrap_or(0.0)
    }
}

/// Runs the traced passes of `spec`.
pub fn run(spec: &Spec, options: Options) -> Result<Outcome, String> {
    let forbidden = CompiledCategories::standard();
    let requests = options.requests.unwrap_or(spec.requests);
    let max_passes = options.max_passes.unwrap_or(MAX_PASSES);
    let mut recorder = Recorder::new("trace");
    let mut tally = Tally::default();
    let mut outcome = Outcome::default();
    let started = Instant::now();
    loop {
        let pass_started = Instant::now();
        recorder.recording = outcome.passes == 0;
        let door = door_pass(
            spec,
            options.seed,
            requests,
            &mut recorder,
            &mut tally,
            &forbidden,
        )?;
        if outcome.passes == 0 {
            outcome.submitted = door.verdict.submitted;
            outcome.succeeded = door.verdict.succeeded;
            outcome.failed = door.verdict.failed;
            outcome.violations.extend(
                door.verdict
                    .violations
                    .iter()
                    .map(|v| format!("{} door pass: {v}", spec.name)),
            );
            if !spec.chaos && door.verdict.failed != 0 {
                outcome.violations.push(format!(
                    "{} door pass: {} requests not served as their class expects",
                    spec.name, door.verdict.failed
                ));
            }
        }
        feature_deltas(
            spec,
            options.seed,
            requests,
            &mut tally,
            &forbidden,
            &mut outcome,
        )?;
        rung_replays(spec, &door, &mut recorder, &mut tally)?;
        outcome.passes += 1;
        let next_ends = started.elapsed().as_secs_f64() + pass_started.elapsed().as_secs_f64();
        if outcome.passes >= max_passes || next_ends > options.seconds {
            break;
        }
    }
    outcome.spans = recorder.finish();
    let unresolved = crate::trace::unresolved(&outcome.spans);
    if unresolved != 0 {
        outcome.violations.push(format!(
            "{}: {unresolved} spans without a resolvable parent",
            spec.name
        ));
    }
    outcome.values = derive(spec, requests, &tally);
    Ok(outcome)
}

// ----------------------------------------------------------------------
// (a) The door pass.
// ----------------------------------------------------------------------

/// What the admit replay needs to know about one door-pass call.
enum DoorEvent {
    /// `submit_at` of request `index`.
    Submit(usize),
    /// One `pump`: the door's clock before and after, and how many
    /// responses it returned.
    Pump {
        before: SimInstant,
        after: SimInstant,
        served: usize,
    },
}

/// What the door pass leaves for the rungs.
struct DoorPass {
    episode: Episode,
    events: Vec<DoorEvent>,
    /// The requests each pump answered, cut to the former's batch limit.
    batches: Vec<Vec<usize>>,
    door: FrontDoor,
    verdict: Verdict,
}

/// A plain door, or one under its workload's fault plan.
enum Driven {
    Plain(Box<FrontDoor>),
    Chaos {
        chaos: Box<ChaosDoor>,
        /// Fire times of the plan's events, ascending.
        fault_times: Vec<SimInstant>,
    },
}

impl Driven {
    fn door(&mut self) -> &mut FrontDoor {
        match self {
            Driven::Plain(door) => door,
            Driven::Chaos { chaos, .. } => chaos.door_mut(),
        }
    }

    /// Fires every fault due at or before `floor` or the door's clock,
    /// whichever is later — what `ChaosDoor::play` does at the same points.
    fn inject_due(&mut self, floor: SimInstant) {
        if let Driven::Chaos { chaos, .. } = self {
            let now = chaos.door().now().max(floor);
            chaos.inject_due(now);
        }
    }

    /// Fire time of the next fault not yet injected.
    fn next_fault(&self) -> Option<SimInstant> {
        match self {
            Driven::Plain(_) => None,
            Driven::Chaos { chaos, fault_times } => {
                let remaining = chaos.remaining_faults();
                fault_times.get(fault_times.len() - remaining).copied()
            }
        }
    }
}

/// The door pass's running record: decisions, the event log the admit
/// replay follows, and where in the episode the time went.
struct PassLog {
    root: u32,
    requests: usize,
    decisions: Vec<AdmissionDecision>,
    events: Vec<DoorEvent>,
    submit: Lap,
    first_quarter_ns: u64,
    last_quarter_ns: u64,
    /// Admitted, not yet answered request indices per session, in arrival
    /// order — the order a session's responses come back in.
    waiting: HashMap<u32, VecDeque<usize>>,
    /// The request indices each `pump` / `drain` call answered, in dispatch
    /// order: the door's batches, as far as they can be seen from outside.
    groups: Vec<Vec<usize>>,
}

impl PassLog {
    /// Attributes a call to the quarter of the episode it ran in, by how
    /// many requests had been submitted when it started.
    fn charge(&mut self, at: usize, ns: u64) {
        if at < self.requests / 4 {
            self.first_quarter_ns += ns;
        } else if at >= self.requests - self.requests / 4 {
            self.last_quarter_ns += ns;
        }
    }

    fn offer(&mut self, arrival: TimedArrival, driven: &mut Driven, recorder: &mut Recorder) {
        let index = self.decisions.len();
        let arrival_session = arrival.request.session;
        let (decision, lap) = recorder.call("door.submit_at", self.root, 0, index as u32, || {
            driven
                .door()
                .submit_at(arrival.request, arrival.deadline, arrival.at)
        });
        if decision.admitted() {
            self.waiting
                .entry(arrival_session.raw())
                .or_default()
                .push_back(index);
        }
        self.decisions.push(decision);
        self.events.push(DoorEvent::Submit(index));
        self.submit.add(lap);
        self.charge(index, lap.ns);
    }

    /// Records which requests one `pump` / `drain` call answered.
    fn answered(&mut self, served: &[ServeResponse]) {
        let group: Vec<usize> = served
            .iter()
            .filter_map(|response| {
                self.waiting
                    .get_mut(&response.session.raw())
                    .and_then(VecDeque::pop_front)
            })
            .collect();
        if !group.is_empty() {
            self.groups.push(group);
        }
    }
}

fn door_pass(
    spec: &Spec,
    seed: u64,
    requests: usize,
    recorder: &mut Recorder,
    tally: &mut Tally,
    forbidden: &CompiledCategories,
) -> Result<DoorPass, String> {
    let episode = workload::generate(spec, seed, requests);
    let door = workload::build_door(spec, Features::canonical(spec))
        .map_err(|e| format!("{}: door build failed: {e}", spec.name))?;
    let mut driven = if spec.chaos {
        let plan = workload::fault_plan(spec, 0, &episode.trace);
        let fault_times = plan.events().iter().map(|event| event.at).collect();
        Driven::Chaos {
            chaos: Box::new(ChaosDoor::new(door, plan)),
            fault_times,
        }
    } else {
        Driven::Plain(Box::new(door))
    };

    let root = recorder.open("door_pass", Some(0), 0);
    let mut pass = PassLog {
        root,
        requests,
        decisions: Vec::with_capacity(requests),
        events: Vec::with_capacity(2 * requests),
        submit: Lap::default(),
        first_quarter_ns: 0,
        last_quarter_ns: 0,
        waiting: HashMap::new(),
        groups: Vec::new(),
    };
    let mut responses: Vec<ServeResponse> = Vec::new();
    let mut pump = Lap::default();
    let failure = |e| format!("{}: door pass failed: {e}", spec.name);

    let mut pending = episode.trace.clone().into_iter().peekable();
    while let Some(arrival) = pending.next() {
        driven.inject_due(arrival.at);
        pass.offer(arrival, &mut driven, recorder);
        loop {
            while let Some(arrival) = pending.next_if(|next| next.at <= driven.door().now()) {
                pass.offer(arrival, &mut driven, recorder);
            }
            driven.inject_due(SimInstant::ZERO);
            let at = pass.decisions.len();
            let before = driven.door().now();
            let (served, lap) =
                recorder.call("door.pump", root, 0, at as u32, || driven.door().pump());
            let served = served.map_err(failure)?;
            pump.add(lap);
            pass.charge(at - 1, lap.ns);
            pass.events.push(DoorEvent::Pump {
                before,
                after: driven.door().now(),
                served: served.len(),
            });
            if served.is_empty() {
                break;
            }
            pass.answered(&served);
            responses.extend(served);
        }
    }
    // Faults still scheduled fire before the final drain, as in
    // `ChaosDoor::play`.
    let mut drain = Lap::default();
    let mut drains = 0u32;
    loop {
        let next = driven.next_fault();
        if let Some(at) = next {
            driven.inject_due(at);
        }
        let (served, lap) = recorder.call("door.drain", root, 0, drains, || driven.door().drain());
        let served = served.map_err(failure)?;
        pass.answered(&served);
        responses.extend(served);
        drain.add(lap);
        drains += 1;
        if next.is_none() {
            break;
        }
    }
    recorder.close(root);

    let (door, faults_injected) = match driven {
        Driven::Plain(door) => (*door, 0),
        Driven::Chaos { chaos, .. } => {
            let (door, injected) = chaos.into_parts();
            (door, injected.records().len())
        }
    };
    let verdict = oracle::verify(
        &episode,
        &pass.decisions,
        &responses,
        &door,
        forbidden,
        !spec.chaos,
    );

    tally.lap("door.submit", pass.submit);
    tally.lap("door.pump", pump);
    tally.lap("door.drain", drain);
    tally.time("door.total", pass.submit.ns + pump.ns + drain.ns);
    tally.time("door.first_quarter", pass.first_quarter_ns);
    tally.time("door.last_quarter", pass.last_quarter_ns);
    let admission = door.admission_stats();
    let stats = door.stats();
    let recovery = &stats.recovery;
    let telemetry = door.fleet().telemetry();
    let elapsed_ns = stats.elapsed.as_nanos().max(1) as f64;
    let launches = stats.forward_launches() as f64;
    let prefilled: u64 = (0..spec.shards)
        .map(|shard| door.fleet().shard(shard).prefilled_tokens())
        .sum();
    for (key, value) in [
        (
            FAIL_FRAC,
            verdict.failed as f64 / verdict.submitted.max(1) as f64,
        ),
        ("batches", admission.batches as f64),
        ("mean_batch", admission.mean_batch()),
        ("refused", admission.refused as f64),
        (
            "wait_p95_ms",
            admission.wait_quantile(0.95).as_nanos() as f64 / 1e6,
        ),
        ("spans", telemetry.tracer().len() as f64),
        ("orphans", telemetry.tracer().orphans().len() as f64),
        ("incidents", telemetry.recorder().incidents().len() as f64),
        ("retries", recovery.retries as f64),
        ("hedges", recovery.hedges as f64),
        (
            "requeued",
            (recovery.requeued_in_flight + recovery.journal_requeued) as f64,
        ),
        ("control_crashes", recovery.control_plane_crashes as f64),
        ("wal_replayed", recovery.wal_replayed as f64),
        ("mttr_ms", recovery.mean_mttr().as_nanos() as f64 / 1e6),
        (
            "degraded_frac",
            recovery.degraded_time().as_nanos() as f64 / elapsed_ns,
        ),
        ("faults_injected", faults_injected as f64),
        ("launches", launches),
        ("prefilled_tokens", prefilled as f64),
    ] {
        tally.count(key, value);
    }
    Ok(DoorPass {
        episode,
        events: pass.events,
        batches: {
            let limit = DeadlinePolicy::default().max_batch.max(1);
            pass.groups
                .iter()
                .flat_map(|group| group.chunks(limit).map(<[usize]>::to_vec))
                .collect()
        },
        door,
        verdict,
    })
}

// ----------------------------------------------------------------------
// (b) Feature deltas.
// ----------------------------------------------------------------------

fn feature_deltas(
    spec: &Spec,
    seed: u64,
    requests: usize,
    tally: &mut Tally,
    forbidden: &CompiledCategories,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let canonical = Features::canonical(spec);
    let configs: [(&'static str, Features, bool); 6] = [
        // The end-to-end reference: the canonical episode, faults and all.
        ("cfg.e2e", canonical, spec.chaos),
        // The same door without faults: the base every delta is taken from.
        ("cfg.base", canonical, false),
        (
            "cfg.no_journal",
            Features {
                journal: false,
                ..canonical
            },
            false,
        ),
        (
            "cfg.no_telemetry",
            Features {
                telemetry: false,
                ..canonical
            },
            false,
        ),
        (
            "cfg.recovery_flipped",
            Features {
                recovery: !canonical.recovery,
                ..canonical
            },
            false,
        ),
        ("cfg.bare", Features::bare(), false),
    ];
    for (key, features, faults) in configs {
        if key == "cfg.base" && !spec.chaos {
            // Without a fault plan the base *is* the end-to-end episode.
            continue;
        }
        let plan = Plan {
            spec,
            features,
            faults,
            requests,
        };
        let played = episode::play(plan, seed, 0, forbidden)?;
        tally.lap(
            key,
            Lap {
                ns: played.cost.wall_ns,
                allocs: played.cost.allocs,
            },
        );
        if key == "cfg.e2e" {
            tally.episode_ms.push(played.cost.wall_ns as f64 / 1e6);
        }
        outcome.violations.extend(
            played
                .verdict
                .violations
                .iter()
                .map(|v| format!("{} {key}: {v}", spec.name)),
        );
    }
    Ok(())
}

// ----------------------------------------------------------------------
// (c) Rung replays.
// ----------------------------------------------------------------------

/// The episode's requests grouped the way each fleet batch splits them:
/// per chunk of arrivals, one sub-batch per shard.
fn sub_batches<'a>(
    fleet: &GuillotineFleet,
    chunk: &'a [(ServeRequest, Class)],
) -> Vec<(usize, Vec<&'a (ServeRequest, Class)>)> {
    let mut by_shard: BTreeMap<usize, Vec<&(ServeRequest, Class)>> = BTreeMap::new();
    for entry in chunk {
        by_shard
            .entry(fleet.shard_for_session(entry.0.session))
            .or_default()
            .push(entry);
    }
    by_shard.into_iter().collect()
}

fn rung_replays(
    spec: &Spec,
    door: &DoorPass,
    recorder: &mut Recorder,
    tally: &mut Tally,
) -> Result<(), String> {
    let failure = |what: &str, e| format!("{}: {what} replay failed: {e}", spec.name);
    // The door's own batches, as its pumps revealed them: replaying those
    // (not arrival-order slices) keeps batch composition, and so launches
    // and KV reuse, what the door saw.
    let batches: Vec<Vec<(ServeRequest, Class)>> = door
        .batches
        .iter()
        .map(|batch| {
            batch
                .iter()
                .map(|&index| {
                    (
                        door.episode.trace[index].request.clone(),
                        door.episode.classes[index],
                    )
                })
                .collect()
        })
        .collect();
    let chunks: Vec<&[(ServeRequest, Class)]> = batches.iter().map(Vec::as_slice).collect();

    // Rung 1: the fleet's scatter/gather.
    let mut fleet = workload::build_fleet(spec).map_err(|e| failure("fleet", e))?;
    let root = recorder.open("rung.fleet", Some(0), 1);
    let mut serve = Lap::default();
    let mut sub_batch_count = 0usize;
    for (index, chunk) in chunks.iter().enumerate() {
        sub_batch_count += sub_batches(&fleet, chunk).len();
        let batch: Vec<ServeRequest> = chunk.iter().map(|(request, _)| request.clone()).collect();
        let (served, lap) = recorder.call("fleet.serve_batch", root, 1, index as u32, || {
            fleet.serve_batch(batch)
        });
        black_box(served.map_err(|e| failure("fleet", e))?);
        serve.add(lap);
    }
    recorder.close(root);
    tally.lap("fleet.serve", serve);
    tally.count(
        "sub_batches_per_batch",
        sub_batch_count as f64 / chunks.len().max(1) as f64,
    );

    // Rung 2: each shard's deployment, on the sub-batches the fleet would
    // have handed it.
    let mut fleet = workload::build_fleet(spec).map_err(|e| failure("deployment", e))?;
    let root = recorder.open("rung.deployment", Some(0), 2);
    let mut serve = Lap::default();
    let mut per_shard = vec![0u64; spec.shards];
    let mut stream_chunks = 0usize;
    for (index, chunk) in chunks.iter().enumerate() {
        for (shard, entries) in sub_batches(&fleet, chunk) {
            let batch: Vec<ServeRequest> =
                entries.iter().map(|(request, _)| request.clone()).collect();
            let (served, lap) = recorder.call(
                "deployment.serve_batch_streaming",
                root,
                2,
                index as u32,
                || fleet.shard_mut(shard).serve_batch_streaming(batch),
            );
            let served = served.map_err(|e| failure("deployment", e))?;
            stream_chunks += served.iter().map(|s| s.chunks.len()).sum::<usize>();
            serve.add(lap);
            per_shard[shard] += lap.ns;
        }
    }
    recorder.close(root);
    tally.lap("deployment.serve", serve);
    tally.count("stream_chunks", stream_chunks as f64);
    tally.count(
        "busiest_shard_share",
        per_shard.iter().copied().max().unwrap_or(0) as f64 / serve.ns.max(1) as f64,
    );

    // Rung 3 and below: what a deployment calls per request, one span per
    // call kind per sub-batch (the calls themselves take well under a
    // microsecond each, less than the timer).
    let mut fleet = workload::build_fleet(spec).map_err(|e| failure("inner", e))?;
    let shield = InputShield::new();
    let shield_rules = CompiledShieldRules::standard();
    let sanitizer = OutputSanitizer::new();
    let categories = Arc::new(CompiledCategories::standard());
    let tier = KvTier::new(KvCacheConfig::default());
    let mut engines: Vec<BatchedForwardPass> = (0..spec.shards)
        .map(|_| BatchedForwardPass::new())
        .collect();
    let root = recorder.open("rung.inner", Some(0), 3);
    let mut laps: BTreeMap<&'static str, Lap> = BTreeMap::new();
    let (mut prompt_bytes, mut answer_bytes) = (0usize, 0usize);
    let (mut flagged, mut redacted, mut launches) = (0usize, 0usize, 0usize);
    for (index, chunk) in chunks.iter().enumerate() {
        let batch = index as u32;
        for (shard, entries) in sub_batches(&fleet, chunk) {
            let now = SimInstant::from_nanos(index as u64);
            let mut timed = |name: &'static str, recorder: &mut Recorder, f: &mut dyn FnMut()| {
                let ((), lap) = recorder.call(name, root, 3, batch, f);
                laps.entry(name).or_default().add(lap);
            };
            prompt_bytes += entries.iter().map(|(r, _)| r.prompt.len()).sum::<usize>();
            timed("hv.screen_prompt", recorder, &mut || {
                let hypervisor = fleet.shard_mut(shard).hypervisor_mut();
                for (request, _) in &entries {
                    black_box(hypervisor.screen_prompt(&request.prompt, now));
                }
            });
            timed("detect.shield_scan", recorder, &mut || {
                for (request, _) in &entries {
                    if black_box(shield.scan(&request.prompt)).score >= 0.5 {
                        flagged += 1;
                    }
                }
            });
            timed("scan.matcher_scan", recorder, &mut || {
                for (request, _) in &entries {
                    shield_rules.matcher().scan(&request.prompt, |m| {
                        black_box(m);
                        true
                    });
                }
            });
            // Flagged prompts are refused at input: they never reach the
            // forward pass or the output stage.
            let survivors: Vec<&ServeRequest> = entries
                .iter()
                .filter(|(_, class)| *class != Class::Flagged)
                .map(|(request, _)| request)
                .collect();
            if survivors.is_empty() {
                continue;
            }
            let shard_tag = fleet.shard(shard).config().machine.raw();
            let mut lookups = Vec::with_capacity(survivors.len());
            timed("model.kv_lookup_insert", recorder, &mut || {
                for request in &survivors {
                    lookups.push(tier.lookup_insert(request.session, shard_tag, &request.prompt));
                }
            });
            let jobs: Vec<PrefillJob> = survivors
                .iter()
                .zip(&lookups)
                .map(|(request, lookup)| PrefillJob {
                    prompt: request.prompt.as_str(),
                    prefill_tokens: lookup.uncached_tokens(),
                })
                .collect();
            let mut answers = Vec::new();
            timed("model.run_prefill_decode", recorder, &mut || {
                answers = engines[shard].run_prefill_decode(&jobs);
            });
            launches += 1;
            answer_bytes += answers.iter().map(String::len).sum::<usize>();
            timed("detect.stream_sanitize", recorder, &mut || {
                for answer in &answers {
                    let mut stream = StreamingSanitizer::new(Arc::clone(&categories));
                    let total = decode_tokens(answer);
                    let (mut decoded, mut cursor) = (0u64, 0usize);
                    while decoded < total {
                        decoded += DEFAULT_CHUNK_TOKENS.min(total - decoded);
                        let target = decode_byte_target(answer, decoded, total);
                        black_box(stream.push(&answer[cursor..target]));
                        cursor = target;
                    }
                    black_box(stream.finish());
                }
            });
            timed("hv.screen_response", recorder, &mut || {
                let hypervisor = fleet.shard_mut(shard).hypervisor_mut();
                for answer in &answers {
                    black_box(hypervisor.screen_response(answer, now));
                }
            });
            timed("detect.sanitize", recorder, &mut || {
                for answer in &answers {
                    let (clean, _, _) = sanitizer.sanitize(answer);
                    if clean != *answer {
                        redacted += 1;
                    }
                    black_box(clean);
                }
            });
            timed("scan.matcher_scan", recorder, &mut || {
                for answer in &answers {
                    categories.matcher().scan(answer, |m| {
                        black_box(m);
                        true
                    });
                }
            });
        }
    }
    recorder.close(root);
    for (name, lap) in laps {
        tally.lap(name, lap);
    }
    let kv = tier.stats();
    for (key, value) in [
        ("prompt_bytes", prompt_bytes as f64),
        ("answer_bytes", answer_bytes as f64),
        ("flagged", flagged as f64),
        ("redacted", redacted as f64),
        ("replay_launches", launches as f64),
        ("kv_hit_frac", kv.hit_rate()),
        ("kv_token_reuse_frac", kv.token_reuse_rate()),
    ] {
        tally.count(key, value);
    }
    admit_replay(door, recorder, tally);
    journal_replay(door, recorder, tally);
    Ok(())
}

/// `AdmissionController::submit` / `form` alone, on the stamps the door
/// pass submitted and at the instants it pumped.
fn admit_replay(door: &DoorPass, recorder: &mut Recorder, tally: &mut Tally) {
    let config = workload::admission_config();
    let mut controller: AdmissionController<u32> = AdmissionController::new(
        config.capacity,
        config.shed,
        Box::new(DeadlinePolicy::default()),
    );
    let default_deadline = config.default_deadline.unwrap_or(SimDuration::from_secs(5));
    let root = recorder.open("rung.admit", Some(0), 4);
    let (mut submit, mut form) = (Lap::default(), Lap::default());
    let mut batches = 0u32;
    for event in &door.events {
        match event {
            DoorEvent::Submit(index) => {
                let arrival = &door.episode.trace[*index];
                let deadline = arrival
                    .at
                    .saturating_add(arrival.deadline.unwrap_or(default_deadline));
                let (_, lap) = recorder.call("admit.submit", root, 4, *index as u32, || {
                    controller.submit(
                        *index as u32,
                        arrival.request.session,
                        arrival.request.priority.class(),
                        Some(deadline),
                        arrival.at,
                    )
                });
                submit.add(lap);
            }
            DoorEvent::Pump {
                before,
                after,
                served,
            } => {
                // The door formed its batches somewhere in [before, after];
                // forming at `before` and, if that comes up short, at
                // `after` keeps the queue depth close to the door's.
                let mut dispatched = 0usize;
                for now in [*before, *after] {
                    loop {
                        let (formed, lap) =
                            recorder.call("admit.form", root, 4, batches, || controller.form(now));
                        form.add(lap);
                        let Some(formed) = formed else { break };
                        batches += 1;
                        dispatched += formed.len();
                        if dispatched >= *served {
                            break;
                        }
                    }
                    if dispatched >= *served {
                        break;
                    }
                }
            }
        }
    }
    recorder.close(root);
    tally.time("admit.submit", submit.ns);
    tally.time("admit.form", form.ns);
    tally.count("admit.batches", f64::from(batches.max(1)));
    tally.count(
        "admit.depth_max",
        controller.stats().depth.high_water() as f64,
    );
}

/// `JournalStore::append` on the records decoded from the door's own WAL,
/// and `recover` + `rebuild` on the door's own store.
fn journal_replay(door: &DoorPass, recorder: &mut Recorder, tally: &mut Tally) {
    let Some(store) = door.door.journal_store() else {
        return;
    };
    let records: Vec<WalRecord> = store.wal().replay_from(0).records;
    let root = recorder.open("rung.journal", Some(0), 5);
    let mut replica = JournalStore::new();
    let (_, lap) = recorder.call("journal.append", root, 5, 0, || {
        for record in &records {
            replica.append(record);
        }
    });
    tally.time("journal.append", lap.ns);
    let (replayed, lap) = recorder.call("journal.recover", root, 5, 0, || {
        let recovered = store.recover();
        rebuild(&recovered).replayed
    });
    black_box(replayed);
    tally.time("journal.recover", lap.ns);
    recorder.close(root);

    // Sizes are counts (first pass only), and on `soak_1shard` the dump is
    // over a hundred megabytes: do not rebuild it every pass.
    if !recorder.recording {
        return;
    }
    // `dump_snapshots` frames each blob as "--- snapshot N ---\n<blob>\n".
    let dump = store.dump_snapshots();
    let sizes: Vec<f64> = dump
        .split("--- snapshot ")
        .skip(1)
        .filter_map(|framed| framed.split_once(" ---\n"))
        .map(|(_, blob)| blob.len().saturating_sub(1) as f64)
        .collect();
    for (key, value) in [
        ("wal_records", records.len() as f64),
        ("wal_bytes", store.dump_wal().len() as f64),
        ("snapshots", store.snapshot_count() as f64),
        (
            "snapshot_bytes_mean",
            sizes.iter().sum::<f64>() / sizes.len().max(1) as f64,
        ),
        ("snapshot_bytes_last", sizes.last().copied().unwrap_or(0.0)),
    ] {
        tally.count(key, value);
    }
}

// ----------------------------------------------------------------------
// From the tally to the named metrics.
// ----------------------------------------------------------------------

fn derive(spec: &Spec, requests: usize, tally: &Tally) -> Values {
    let n = requests.max(1) as f64;
    let per_req = |key: &str| tally.ns(key) / n;
    let allocs_per_req = |key: &str| tally.allocs(key) / n;
    let kb = |key: &str| (tally.n(key) / 1024.0).max(f64::MIN_POSITIVE);
    let base = if spec.chaos { "cfg.base" } else { "cfg.e2e" };
    let e2e = per_req("cfg.e2e");

    let journal_delta = per_req(base) - per_req("cfg.no_journal");
    let telemetry_delta = per_req(base) - per_req("cfg.no_telemetry");
    // Recovery on minus recovery off, whichever of the two the base is.
    let sign = if spec.recovery { 1.0 } else { -1.0 };
    let recovery_delta = sign * (per_req(base) - per_req("cfg.recovery_flipped"));
    let recovery_delta_allocs =
        sign * (allocs_per_req(base) - allocs_per_req("cfg.recovery_flipped"));

    let fleet = per_req("fleet.serve");
    let deployment = per_req("deployment.serve");
    let hv_prompt = per_req("hv.screen_prompt");
    let hv_response = per_req("hv.screen_response");
    let stream = per_req("detect.stream_sanitize");
    let kv = per_req("model.kv_lookup_insert");
    let forward = per_req("model.run_prefill_decode");
    let door_total = per_req("door.total");

    // What the canonical door has on top of the bare one, by construction.
    let attributed = per_req("cfg.bare")
        + journal_delta
        + telemetry_delta
        + if spec.recovery { recovery_delta } else { 0.0 };

    let mut values = Values::new();
    let mut put = |name: &'static str, value: f64| {
        values.insert(name, if value.is_finite() { value } else { 0.0 });
    };
    put(FAIL_FRAC, tally.n(FAIL_FRAC));

    put("core.admission.submit_ns_per_req", per_req("door.submit"));
    put("core.admission.pump_ns_per_req", per_req("door.pump"));
    put(
        "core.admission.self_ns_per_req",
        per_req("cfg.bare") - fleet,
    );
    put(
        "core.admission.self_allocs_per_req",
        allocs_per_req("cfg.bare") - allocs_per_req("fleet.serve"),
    );
    put("core.admission.batches", tally.n("batches"));
    put("core.admission.mean_batch", tally.n("mean_batch"));
    put("core.admission.refused", tally.n("refused"));
    put(
        "core.admission.sim_queue_wait_p95_ms",
        tally.n("wait_p95_ms"),
    );
    put(
        "core.admission.last_quarter_over_first",
        tally.ns("door.last_quarter") / tally.ns("door.first_quarter").max(1.0),
    );

    put("admit.submit_ns_per_req", per_req("admit.submit"));
    put(
        "admit.form_ns_per_batch",
        tally.ns("admit.form") / tally.n("admit.batches").max(1.0),
    );
    put("admit.depth_max", tally.n("admit.depth_max"));

    put("journal.delta_ns_per_req", journal_delta);
    put(
        "journal.delta_allocs_per_req",
        allocs_per_req(base) - allocs_per_req("cfg.no_journal"),
    );
    put(
        "journal.append_ns_per_record",
        tally.ns("journal.append") / tally.n("wal_records").max(1.0),
    );
    put("journal.wal_records_per_req", tally.n("wal_records") / n);
    put("journal.wal_bytes_per_req", tally.n("wal_bytes") / n);
    put("journal.snapshots", tally.n("snapshots"));
    put(
        "journal.snapshot_bytes_mean",
        tally.n("snapshot_bytes_mean"),
    );
    put(
        "journal.snapshot_bytes_last",
        tally.n("snapshot_bytes_last"),
    );
    put("journal.recover_ms", tally.ns("journal.recover") / 1e6);

    put("telemetry.delta_ns_per_req", telemetry_delta);
    put(
        "telemetry.delta_allocs_per_req",
        allocs_per_req(base) - allocs_per_req("cfg.no_telemetry"),
    );
    put("telemetry.spans_per_req", tally.n("spans") / n);
    put("telemetry.orphans", tally.n("orphans"));
    put("telemetry.incidents", tally.n("incidents"));

    put("core.recovery.delta_ns_per_req", recovery_delta);
    put("core.recovery.delta_allocs_per_req", recovery_delta_allocs);
    put("core.recovery.retries", tally.n("retries"));
    put("core.recovery.hedges", tally.n("hedges"));
    put("core.recovery.requeued", tally.n("requeued"));
    put("core.recovery.control_crashes", tally.n("control_crashes"));
    put("core.recovery.wal_replayed", tally.n("wal_replayed"));
    put("core.recovery.sim_mttr_ms", tally.n("mttr_ms"));
    put("core.recovery.sim_degraded_frac", tally.n("degraded_frac"));
    put("chaos.faults_injected", tally.n("faults_injected"));

    put("core.fleet.serve_ns_per_req", fleet);
    put("core.fleet.self_ns_per_req", fleet - deployment);
    put(
        "core.fleet.self_allocs_per_req",
        allocs_per_req("fleet.serve") - allocs_per_req("deployment.serve"),
    );
    put("core.fleet.launches_per_req", tally.n("launches") / n);
    put(
        "core.fleet.sub_batches_per_batch",
        tally.n("sub_batches_per_batch"),
    );
    put(
        "core.fleet.busiest_shard_share",
        tally.n("busiest_shard_share"),
    );

    put("core.deployment.serve_ns_per_req", deployment);
    put(
        "core.deployment.self_ns_per_req",
        deployment - (hv_prompt + hv_response + stream + kv + forward),
    );
    put(
        "core.deployment.self_allocs_per_req",
        allocs_per_req("deployment.serve")
            - [
                "hv.screen_prompt",
                "hv.screen_response",
                "detect.stream_sanitize",
                "model.kv_lookup_insert",
                "model.run_prefill_decode",
            ]
            .iter()
            .map(|rung| allocs_per_req(rung))
            .sum::<f64>(),
    );
    put(
        "core.deployment.chunks_per_req",
        tally.n("stream_chunks") / n,
    );

    put("hv.screen_prompt_ns_per_req", hv_prompt);
    put("hv.screen_response_ns_per_req", hv_response);
    put(
        "hv.self_ns_per_kb",
        (tally.ns("hv.screen_prompt") + tally.ns("hv.screen_response")
            - tally.ns("detect.shield_scan")
            - tally.ns("detect.sanitize"))
            / (kb("prompt_bytes") + kb("answer_bytes")),
    );

    put(
        "detect.shield_ns_per_kb",
        tally.ns("detect.shield_scan") / kb("prompt_bytes"),
    );
    put(
        "detect.sanitize_ns_per_kb",
        tally.ns("detect.sanitize") / kb("answer_bytes"),
    );
    put(
        "detect.stream_sanitize_ns_per_kb",
        tally.ns("detect.stream_sanitize") / kb("answer_bytes"),
    );
    put("detect.flagged_frac", tally.n("flagged") / n);
    put("detect.redacted_frac", tally.n("redacted") / n);
    put(
        "scan.ns_per_kb",
        tally.ns("scan.matcher_scan") / (kb("prompt_bytes") + kb("answer_bytes")),
    );

    put(
        "model.forward_ns_per_launch",
        tally.ns("model.run_prefill_decode") / tally.n("replay_launches").max(1.0),
    );
    put("model.forward_ns_per_req", forward);
    put("model.forward_share", forward / e2e.max(1.0));
    // Computed, not measured: every launch sweeps the weight store once,
    // plus a fixed number of words per prefilled token.
    put(
        "model.sweep_words_per_req",
        (tally.n("launches") * WEIGHT_SWEEP_WORDS as f64
            + tally.n("prefilled_tokens") * PREFILL_WORDS_PER_TOKEN as f64)
            / n,
    );
    put(
        "model.prefilled_tokens_per_req",
        tally.n("prefilled_tokens") / n,
    );
    put("model.kv_lookup_ns_per_req", kv);
    put("model.kv_hit_frac", tally.n("kv_hit_frac"));
    put("model.kv_token_reuse_frac", tally.n("kv_token_reuse_frac"));

    // The traced run's own canonical episodes (one per pass) are its
    // samples.
    put("bench.samples", tally.episode_ms.len() as f64);
    put(
        "bench.episode_ms_p50",
        stats::percentile(&tally.episode_ms, 50.0),
    );
    put(
        "bench.episode_ms_p90",
        stats::percentile(&tally.episode_ms, 90.0),
    );
    put(
        "bench.round_spread",
        stats::iqr_over_median(&tally.episode_ms),
    );
    put("bench.trace_overhead_frac", 1.0 - e2e / door_total.max(1.0));
    put("bench.unattributed_frac", (e2e - attributed) / e2e.max(1.0));
    values
}
