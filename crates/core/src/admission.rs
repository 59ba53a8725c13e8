//! The admission tier: an asynchronous front door for a [`GuillotineFleet`].
//!
//! Until this module, the fleet only saw pre-formed synchronous
//! `serve_batch` waves. A [`FrontDoor`] puts the `guillotine-admit`
//! subsystem in front of it:
//!
//! ```text
//!             submit / submit_at                    pump / drain
//! producers ───────────────────▶ admission queue ───────────────▶ fleet
//!             ◀── AdmissionDecision   │  batch former             shards
//!                 (Enqueued /         │  (BatchPolicy:            │
//!                  Shed /             │   deadline + priority +   ▼
//!                  Refused)           │   session affinity)    responses
//! ```
//!
//! Requests arrive **individually**, stamped at the door with arrival
//! time, priority class (from [`ServePriority`]) and an optional deadline.
//! The batch former turns the queue into fleet batches continuously; a
//! full queue backpressures producers through typed
//! [`AdmissionDecision`]s. Deadline hits/misses, queue waits, depth and
//! shed counts flow into [`AdmissionStats`], surfaced via
//! [`FleetStats::admission`](crate::fleet::FleetStats) and rendered by
//! `FleetReport`.
//!
//! Serving through the front door is **byte-identical** to calling
//! `serve_batch` directly with the same requests (property-tested in
//! `tests/admission.rs`): batch forming decides grouping and timing, never
//! content. There is one settle path: a door without recovery enabled runs
//! it on [`RecoveryConfig::disabled`] (no retries, no hedges), so a request
//! a crashed or erroring shard strands is answered with an explicit
//! refusal, never dropped. The real queue wait is added to each response's
//! `latency.queue`.

use crate::fleet::{add_counted, BatchAttempt, FleetReport, FleetStats, GuillotineFleet};
use crate::recovery::{DegradationMode, RecoveryConfig};
use crate::serve::{
    LatencyBreakdown, ServeOutcomeKind, ServePriority, ServeRequest, ServeResponse,
};
use guillotine_admit::{
    AdmissionController, AdmissionDecision, AdmissionStats, Admitted, BatchPolicy, DeadlinePolicy,
    EntryStamp, ShedPolicy,
};
use guillotine_journal::{rebuild, CompletionKind, SnapshotView, TicketSet, WalRecord};
use guillotine_telemetry::{IncidentKind, MetricsRegistry, NewSpan, SpanId, TelemetryConfig};
use guillotine_types::{DetRng, Result, SimDuration, SimInstant, TicketId};

pub use guillotine_journal::{JournalConfig, JournalStore};
use std::collections::HashMap;

/// Base of the exponential backoff between retry rounds
/// (`base * 2^(round-1)`), burned on the fleet clock.
const BACKOFF_BASE: SimDuration = SimDuration::from_millis(1);
/// Upper bound of the deterministic jitter added to each backoff.
const BACKOFF_JITTER: SimDuration = SimDuration::from_micros(250);
/// Seed of the door's deterministic jitter RNG.
const JITTER_SEED: u64 = 0x5E1F_4EA1;

/// Sizing and backpressure configuration of a [`FrontDoor`].
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Queue capacity: arrivals beyond it are resolved by `shed`.
    pub capacity: usize,
    /// What a full queue does with the next arrival.
    pub shed: ShedPolicy,
    /// Deadline stamped on requests submitted without an explicit one
    /// (`None` leaves them deadline-free).
    pub default_deadline: Option<SimDuration>,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            capacity: 256,
            shed: ShedPolicy::FailClosed,
            default_deadline: None,
        }
    }
}

/// Something that acts on the door between the steps of an open-loop
/// play — the chaos harness's fault schedule.
pub(crate) trait Interposer {
    /// Acts on `door` as of `now`, the instant it is about to act at.
    fn interpose(&mut self, door: &mut FrontDoor, now: SimInstant);

    /// When the earliest action still pending is due, if any is.
    fn pending(&self) -> Option<SimInstant>;
}

/// [`FrontDoor::play`]'s interposer: nothing rides along.
struct Uninterposed;

impl Interposer for Uninterposed {
    fn interpose(&mut self, _: &mut FrontDoor, _: SimInstant) {}

    fn pending(&self) -> Option<SimInstant> {
        None
    }
}

/// One arrival of an open-loop trace: a request, when it reaches the door,
/// and the completion deadline it carries.
#[derive(Debug, Clone)]
pub struct TimedArrival {
    /// Simulated arrival instant (traces must be non-decreasing; the clock
    /// never moves backwards regardless).
    pub at: SimInstant,
    /// The arriving request.
    pub request: ServeRequest,
    /// Completion budget measured from arrival (`None` falls back to the
    /// door's default deadline).
    pub deadline: Option<SimDuration>,
}

/// What one control-plane crash recovery did: how state was rebuilt, what
/// it cost, and what (if anything) was lost. Returned by
/// [`FrontDoor::last_control_recovery`] after a scheduled crash fires.
#[derive(Debug, Clone, Copy)]
pub struct ControlRecovery {
    /// Fleet-clock instant the crash landed.
    pub at: SimInstant,
    /// Whether a valid snapshot seeded the rebuild (false means the whole
    /// WAL was replayed from the beginning).
    pub used_snapshot: bool,
    /// Corrupt snapshots skipped before a valid one decoded.
    pub snapshots_skipped: u64,
    /// WAL records replayed on top of the snapshot.
    pub wal_replayed: u64,
    /// Acked-but-uncompleted entries re-queued (still-queued plus stranded
    /// in flight).
    pub requeued: u64,
    /// Torn WAL tail lines truncated at the first bad checksum.
    pub torn_truncated: u64,
    /// Acked tickets lost: zero with a journal, the whole queue without.
    pub lost: u64,
    /// Simulated downtime charged to the fleet clock for the rebuild.
    pub replay_time: SimDuration,
}

/// The durable side of a journaled door: the WAL + snapshot store and the
/// snapshot cadence state.
struct JournalState {
    store: JournalStore,
    config: JournalConfig,
    /// Fleet-clock instant of the last snapshot (interval gate).
    last_snapshot: SimInstant,
}

/// A [`GuillotineFleet`] behind an admission queue and batch former.
pub struct FrontDoor {
    fleet: GuillotineFleet,
    controller: AdmissionController<ServeRequest>,
    default_deadline: Option<SimDuration>,
    /// When set, deadlines are judged against each request's *first-token*
    /// instant instead of batch completion — the streaming SLO. Paired
    /// with [`DeadlinePolicy::targeting_first_token`] by
    /// [`FrontDoor::ttft_deadline_aware`], but independently toggleable.
    ttft_deadlines: bool,
    /// Self-healing budget; `None` serves on [`RecoveryConfig::disabled`]
    /// (stranded requests are refused at once) and keeps the ladder and
    /// the idempotency/session-order witnesses off.
    recovery: Option<RecoveryConfig>,
    /// Deterministic backoff-jitter source (re-seeded by `enable_recovery`).
    recovery_rng: DetRng,
    /// Tickets that have completed, by raw id — the idempotency layer: a
    /// ticket can complete toward the caller at most once, however many
    /// retries and hedges raced for it. Held as ranges, so its size (and
    /// every snapshot's) follows the gaps in the ticket sequence, not how
    /// many requests the door has ever served.
    completed_tickets: TicketSet,
    /// Per-session arrival stamp of the most recently delivered response —
    /// the session-order witness. Recovery must never let a later arrival
    /// overtake an earlier one within a session.
    session_progress: HashMap<u32, SimInstant>,
    /// Where the door currently sits on the degradation ladder.
    mode: DegradationMode,
    /// Fleet-clock instant the current mode was entered (for per-mode
    /// duration accounting).
    mode_since: SimInstant,
    /// Write-ahead journal and snapshot chain; `None` keeps the door
    /// memory-only, so a control-plane crash loses the queue.
    journal: Option<JournalState>,
    /// Scheduled control-plane crash instants, ascending.
    pending_control_crashes: Vec<SimInstant>,
    /// Report of the most recent control-plane crash recovery.
    last_control_recovery: Option<ControlRecovery>,
}

impl FrontDoor {
    /// Puts `fleet` behind an admission queue with the given sizing and
    /// batch former.
    pub fn new(
        fleet: GuillotineFleet,
        config: AdmissionConfig,
        policy: Box<dyn BatchPolicy>,
    ) -> Self {
        FrontDoor {
            fleet,
            controller: AdmissionController::new(config.capacity, config.shed, policy),
            default_deadline: config.default_deadline,
            ttft_deadlines: false,
            recovery: None,
            recovery_rng: DetRng::seed(JITTER_SEED),
            completed_tickets: TicketSet::new(),
            session_progress: HashMap::new(),
            mode: DegradationMode::Normal,
            mode_since: SimInstant::ZERO,
            journal: None,
            pending_control_crashes: Vec::new(),
            last_control_recovery: None,
        }
    }

    /// Turns on end-to-end telemetry: per-ticket span trees across
    /// admission, dispatch, per-shard serve stages and recovery actions,
    /// the stage-latency histograms [`FrontDoor::metrics`] folds from
    /// them, and the incident flight recorder. Delegates to the fleet,
    /// which owns the [`guillotine_telemetry::Telemetry`] facade.
    pub fn enable_telemetry(&mut self, config: TelemetryConfig) {
        self.fleet.enable_telemetry(config);
    }

    /// Builder-style [`FrontDoor::enable_telemetry`].
    pub fn with_telemetry(mut self, config: TelemetryConfig) -> Self {
        self.enable_telemetry(config);
        self
    }

    /// The default front door: deadline/priority batch forming with
    /// session affinity ([`DeadlinePolicy::default`]) over the default
    /// [`AdmissionConfig`].
    pub fn deadline_aware(fleet: GuillotineFleet) -> Self {
        FrontDoor::new(
            fleet,
            AdmissionConfig::default(),
            Box::new(DeadlinePolicy::default()),
        )
    }

    /// A front door tuned for streaming SLOs: batches are formed
    /// class-pure ([`DeadlinePolicy::targeting_first_token`]) so an urgent
    /// request's time-to-first-token never includes prefill for
    /// lower-class prompts sharing its batch, and deadlines are judged
    /// against each request's first-token instant rather than batch
    /// completion.
    pub fn ttft_deadline_aware(fleet: GuillotineFleet) -> Self {
        let mut door = FrontDoor::new(
            fleet,
            AdmissionConfig::default(),
            Box::new(DeadlinePolicy::targeting_first_token()),
        );
        door.ttft_deadlines = true;
        door
    }

    /// Switches deadline accounting between batch completion (`false`,
    /// the default) and first-token instants (`true`).
    pub fn set_ttft_deadlines(&mut self, on: bool) {
        self.ttft_deadlines = on;
    }

    /// Turns on the self-healing layer: stranded requests are retried with
    /// bounded jittered backoff, stragglers are timed out / hedged onto
    /// another shard, ticket idempotency suppresses duplicate completions,
    /// and the door walks the graceful-degradation ladder as fleet health
    /// changes. Without this, the door serves the same path with every
    /// budget at zero: a stranded request is refused, not retried.
    pub fn enable_recovery(&mut self, config: RecoveryConfig) {
        self.recovery_rng = DetRng::seed(JITTER_SEED);
        self.recovery = Some(config);
        self.mode = DegradationMode::Normal;
        self.mode_since = self.fleet.clock.now();
    }

    /// Builder-style [`FrontDoor::enable_recovery`].
    pub fn with_recovery(mut self, config: RecoveryConfig) -> Self {
        self.enable_recovery(config);
        self
    }

    /// Turns on crash consistency: every admission lifecycle transition
    /// (acked enqueue, shed, batch dispatch, completion) is committed to a
    /// checksummed write-ahead log *before* it is acknowledged, and the
    /// control plane snapshots itself at quiescent points on the
    /// configured interval. A crash scheduled with
    /// [`FrontDoor::schedule_control_crash`] then recovers by loading the
    /// latest valid snapshot and replaying the WAL suffix — instead of
    /// losing the queue.
    pub fn enable_journal(&mut self, config: JournalConfig) {
        self.journal = Some(JournalState {
            store: JournalStore::new(),
            config,
            last_snapshot: self.fleet.clock.now(),
        });
        // An initial checkpoint, so recovery always has a base snapshot
        // before the first interval elapses. Skipped when snapshotting is
        // disabled outright — that mode exists to measure full-WAL replay.
        if config.snapshot_interval.is_some() {
            self.snapshot_now();
        }
    }

    /// Builder-style [`FrontDoor::enable_journal`].
    pub fn with_journal(mut self, config: JournalConfig) -> Self {
        self.enable_journal(config);
        self
    }

    /// The journal store, if crash consistency is on — for inspection and
    /// CI artifact dumps.
    pub fn journal_store(&self) -> Option<&JournalStore> {
        self.journal.as_ref().map(|journal| &journal.store)
    }

    /// Report of the most recent control-plane crash recovery, if one has
    /// fired.
    pub fn last_control_recovery(&self) -> Option<ControlRecovery> {
        self.last_control_recovery
    }

    /// Schedules a control-plane crash at `at` on the fleet clock. The
    /// first pump boundary (or in-flight batch settlement) at or past that
    /// instant loses all volatile door state — queue, ticket stamps,
    /// idempotency set, session-order witness, ladder mode — and recovers
    /// from the journal, or from nothing.
    pub fn schedule_control_crash(&mut self, at: SimInstant) {
        self.pending_control_crashes.push(at);
        self.pending_control_crashes.sort();
    }

    /// Fires at most one due scheduled control-plane crash; true when one
    /// landed. Called at every pump boundary and after every fleet batch;
    /// also the chaos driver's entry point for `ControlPlaneCrash` faults.
    pub fn fire_due_control_crash(&mut self) -> bool {
        let now = self.fleet.clock.now();
        match self.pending_control_crashes.first() {
            Some(&armed) if armed <= now => {
                self.pending_control_crashes.remove(0);
                self.crash_control_plane(armed);
                true
            }
            _ => false,
        }
    }

    /// Corrupts the latest snapshot at rest (chaos `SnapshotCorruption`):
    /// recovery must detect the damage by checksum and fall back to an
    /// older snapshot or full WAL replay. False when there is no journal
    /// or no snapshot yet.
    pub fn corrupt_latest_snapshot(&mut self) -> bool {
        self.journal
            .as_mut()
            .is_some_and(|journal| journal.store.corrupt_latest_snapshot())
    }

    /// Tears the WAL tail mid-append (chaos `TornWrite`): the last line is
    /// left half-written, as a crash between `write` and `fsync` would.
    /// False without a journal.
    pub fn tear_wal(&mut self) -> bool {
        match self.journal.as_mut() {
            Some(journal) => {
                journal.store.tear_wal();
                true
            }
            None => false,
        }
    }

    /// Where the door currently sits on the degradation ladder (always
    /// `Normal` without recovery enabled).
    pub fn degradation_mode(&self) -> DegradationMode {
        self.mode
    }

    /// True when the degradation ladder has suspended streaming SLOs
    /// (deadlines revert to completion-judged, TTFT samples pause).
    pub fn streaming_suspended(&self) -> bool {
        self.recovery.is_some() && self.mode >= DegradationMode::DisableStreaming
    }

    /// The fleet behind the door.
    pub fn fleet(&self) -> &GuillotineFleet {
        &self.fleet
    }

    /// Mutable access to the fleet (console interventions, fault
    /// injection).
    pub fn fleet_mut(&mut self) -> &mut GuillotineFleet {
        &mut self.fleet
    }

    /// Current queue depth.
    pub fn queue_depth(&self) -> usize {
        self.controller.depth()
    }

    /// Admission statistics so far.
    pub fn admission_stats(&self) -> AdmissionStats {
        self.controller.stats().clone()
    }

    /// The current simulated time at the door (the fleet clock).
    pub fn now(&self) -> SimInstant {
        self.fleet.clock.now()
    }

    /// Offers one request to the queue at the current simulated time, with
    /// the door's default deadline.
    pub fn submit(&mut self, request: ServeRequest) -> AdmissionDecision {
        self.submit_with_deadline(request, None)
    }

    /// Offers one request with an explicit completion budget measured from
    /// now; `None` falls back to the door's default deadline (so a
    /// configured default applies through every submission entry point).
    pub fn submit_with_deadline(
        &mut self,
        request: ServeRequest,
        deadline: Option<SimDuration>,
    ) -> AdmissionDecision {
        let now = self.fleet.clock.now();
        self.submit_at(request, deadline, now)
    }

    /// Submits a request that arrived at `arrival` — the open-loop entry
    /// point for arrival traces. An idle fleet's clock advances to the
    /// arrival; a fleet already busy *past* it keeps its clock, and the
    /// request is stamped with its true arrival anyway: it has been
    /// waiting since then, its queue wait includes the time the server was
    /// busy, and its deadline budget runs from when it arrived — not from
    /// when the server got around to looking.
    pub fn submit_at(
        &mut self,
        request: ServeRequest,
        deadline: Option<SimDuration>,
        arrival: SimInstant,
    ) -> AdmissionDecision {
        self.fleet.clock.advance_to(arrival);
        self.fire_due_control_crash();
        if self.recovery.is_some() {
            self.update_ladder();
            let refuse = match self.mode {
                DegradationMode::FailClosed => true,
                DegradationMode::ShedLowPriority | DegradationMode::DisableStreaming => {
                    request.priority == ServePriority::Batch
                }
                DegradationMode::Normal => false,
            };
            if refuse {
                self.fleet.recovery_mut().ladder_shed += 1;
                return AdmissionDecision::Refused {
                    depth: self.controller.depth(),
                };
            }
        }
        let session = request.session;
        let class = request.priority.class();
        let deadline = deadline
            .or(self.default_deadline)
            .map(|budget| arrival.saturating_add(budget));
        let decision = self
            .controller
            .submit(request, session, class, deadline, arrival);
        // WAL records are committed here, before the decision is returned
        // — the fsync-before-ack contract: an acked enqueue is always on
        // durable storage, so a torn tail is only ever un-acked garbage.
        match decision {
            AdmissionDecision::Enqueued { ticket, .. } => {
                self.telemetry_admit(ticket, arrival);
                self.journal_enqueue();
            }
            AdmissionDecision::Shed {
                victim, admitted, ..
            } => {
                if let Some(ticket) = admitted {
                    // The victim's tree closes with an explicit shed
                    // marker instead of dangling open.
                    let now = self.fleet.clock.now();
                    let telemetry = self.fleet.telemetry_mut();
                    telemetry.span(NewSpan {
                        name: "admission.shed",
                        ticket: Some(victim),
                        parent: telemetry.tracer().root_of(victim),
                        start: now,
                        end: now,
                        ..NewSpan::default()
                    });
                    self.telemetry_admit(ticket, arrival);
                    self.journal_append(&WalRecord::Shed { ticket: victim });
                    self.journal_enqueue();
                }
            }
            AdmissionDecision::Refused { .. } => {}
        }
        decision
    }

    /// Lets the batch former dispatch every batch it considers ready,
    /// serving each through the fleet. Returns the responses in dispatch
    /// order (correlate by session). Call after submissions and whenever
    /// simulated time has advanced.
    pub fn pump(&mut self) -> Result<Vec<ServeResponse>> {
        let mut responses = Vec::new();
        while let Some(batch) = self.step()? {
            responses.extend(batch);
        }
        Ok(responses)
    }

    /// Forms and serves at most one batch; `None` when the former is not
    /// ready. [`FrontDoor::play`] uses this to interleave newly-passed
    /// arrivals between consecutive batches, and the chaos driver
    /// (`crate::chaos`) to interleave fault injections.
    pub(crate) fn step(&mut self) -> Result<Option<Vec<ServeResponse>>> {
        // Pump boundary: a due control-plane crash lands here, between
        // batches. The moment before the former runs is also the quiescent
        // point — no batch in flight, the queue alone holds every
        // acked-uncompleted request — so it is where snapshots are taken.
        self.fire_due_control_crash();
        self.maybe_snapshot();
        match self.controller.form(self.fleet.clock.now()) {
            Some(batch) => Ok(Some(self.serve(batch))),
            None => Ok(None),
        }
    }

    /// Serves everything still queued, ignoring the batch former's timing
    /// gate (it still shapes batch composition). The queue is empty
    /// afterwards.
    pub fn drain(&mut self) -> Result<Vec<ServeResponse>> {
        let mut responses = Vec::new();
        loop {
            // Same boundary duties as `step`: crashes land and snapshots
            // are taken between batches, never inside one.
            self.fire_due_control_crash();
            self.maybe_snapshot();
            let Some(batch) = self.controller.flush(self.fleet.clock.now()) else {
                break;
            };
            responses.extend(self.serve(batch));
        }
        Ok(responses)
    }

    /// Plays an open-loop arrival trace end to end and returns every
    /// admission decision (in arrival order) plus every response (in
    /// dispatch order).
    ///
    /// Arrivals are delivered in timestamp order, but serving takes
    /// simulated time — so between any two formed batches, every request
    /// whose arrival time has passed joins the queue first. That is what
    /// makes the trace genuinely open-loop: a burst that lands while the
    /// fleet is mid-batch is waiting in the queue when the batch finishes,
    /// exactly as it would with real concurrent producers, instead of
    /// trickling in one per serve call.
    pub fn play(
        &mut self,
        trace: Vec<TimedArrival>,
    ) -> Result<(Vec<AdmissionDecision>, Vec<ServeResponse>)> {
        self.play_interposed(trace, &mut Uninterposed)
    }

    /// The one open-loop driver: [`FrontDoor::play`] with `interposer`
    /// given the door before the first submission of every round (at the
    /// later of now and the arrival), before every `step`, and — for
    /// whatever it still has pending when the trace ends — before a drain
    /// of its own ahead of the final one.
    pub(crate) fn play_interposed(
        &mut self,
        trace: Vec<TimedArrival>,
        interposer: &mut impl Interposer,
    ) -> Result<(Vec<AdmissionDecision>, Vec<ServeResponse>)> {
        let mut decisions = Vec::with_capacity(trace.len());
        let mut responses = Vec::with_capacity(trace.len());
        let mut pending = trace.into_iter().peekable();
        while let Some(arrival) = pending.next() {
            let at = self.now().max(arrival.at);
            interposer.interpose(self, at);
            decisions.push(self.submit_at(arrival.request, arrival.deadline, arrival.at));
            loop {
                // Everything that has arrived by now joins the queue
                // before the former runs again.
                while let Some(arrival) = pending.next_if(|next| next.at <= self.now()) {
                    decisions.push(self.submit_at(arrival.request, arrival.deadline, arrival.at));
                }
                let now = self.now();
                interposer.interpose(self, now);
                match self.step()? {
                    Some(batch) => responses.extend(batch),
                    None => break,
                }
            }
        }
        while let Some(at) = interposer.pending() {
            let at = self.now().max(at);
            interposer.interpose(self, at);
            responses.extend(self.drain()?);
        }
        responses.extend(self.drain()?);
        Ok((decisions, responses))
    }

    /// Serves one formed batch through the fleet and settles accounting —
    /// the one settle path of every door. The door keeps the batch and the
    /// fleet borrows it, so a stranded request is still here to retry:
    /// stranded requests are retried with bounded jittered backoff *inside
    /// the batch* (no later batch can overtake them — per-session prefix
    /// order is preserved by construction), timed-out/straggling responses
    /// are re-dispatched to a hedge shard, and what exhausts its budget is
    /// refused (never lost). A door without recovery enabled runs the same
    /// path on [`RecoveryConfig::disabled`]: no retries, no hedges, so a
    /// stranded request becomes an explicit refusal at once.
    ///
    /// Settling is: queue wait added to each response's latency,
    /// submission-to-first-token recording for streams that emitted a
    /// token, deadline hit/miss recording (against batch
    /// completion, or the first-token instant when the door judges TTFT
    /// deadlines), the WAL completion record, and — on recovery-enabled
    /// doors — the idempotency and session-order witnesses.
    fn serve(&mut self, batch: Vec<Admitted<ServeRequest>>) -> Vec<ServeResponse> {
        let cfg = self.recovery.unwrap_or_else(RecoveryConfig::disabled);
        let mut stamps = Vec::with_capacity(batch.len());
        let mut requests = Vec::with_capacity(batch.len());
        for admitted in batch {
            let ticket = admitted.stamp.ticket;
            stamps.push((admitted.stamp, admitted.dispatched));
            // The ticket rides the request into the fleet so shard-local
            // stage spans correlate back to this admission. Not part of
            // the wire form, so journal round-trips stay byte-identical.
            requests.push(admitted.payload.with_ticket(ticket));
        }
        self.journal_dispatch(&stamps);
        let borrowed: Vec<&ServeRequest> = requests.iter().collect();
        let mut attempt = self.fleet.scatter_gather(&borrowed, None);
        // Span id of each slot's latest attempt, so retries and hedges can
        // carry a follows-from link to the attempt they supersede.
        let mut attempt_spans: Vec<Option<SpanId>> = vec![None; requests.len()];
        if self.fleet.telemetry().is_enabled() {
            let end = self.fleet.clock.now();
            let telemetry = self.fleet.telemetry_mut();
            for (slot, (stamp, dispatched)) in stamps.iter().enumerate() {
                attempt_spans[slot] = telemetry.span(NewSpan {
                    name: "serve.dispatch",
                    ticket: Some(stamp.ticket),
                    shard: attempt.shards[slot],
                    parent: telemetry.tracer().root_of(stamp.ticket),
                    start: *dispatched,
                    end,
                    ..NewSpan::default()
                });
            }
        }
        let mut failed = std::mem::take(&mut attempt.failed);
        let mut round = 0u32;
        while !failed.is_empty() && round < cfg.max_retries {
            round += 1;
            self.fleet.recovery_mut().retries += failed.len() as u64;
            let backoff = BACKOFF_BASE.saturating_mul(1u64 << (round - 1).min(16));
            let jitter =
                SimDuration::from_nanos(self.recovery_rng.below(BACKOFF_JITTER.as_nanos() + 1));
            let round_start = self.fleet.clock.now();
            self.fleet.clock.advance(backoff.saturating_add(jitter));
            let slots = failed;
            let stranded: Vec<&ServeRequest> = slots.iter().map(|&slot| &requests[slot]).collect();
            let retry = self.fleet.scatter_gather(&stranded, None);
            for (j, (response, shard)) in retry.responses.into_iter().zip(retry.shards).enumerate()
            {
                if let Some(response) = response {
                    attempt.responses[slots[j]] = Some(response);
                    attempt.shards[slots[j]] = shard;
                }
            }
            failed = retry.failed.into_iter().map(|j| slots[j]).collect();
            if self.fleet.telemetry().is_enabled() {
                let end = self.fleet.clock.now();
                let telemetry = self.fleet.telemetry_mut();
                for &slot in &slots {
                    let ticket = stamps[slot].0.ticket;
                    let follows = attempt_spans[slot];
                    let shard = attempt.shards[slot];
                    // This retry is the fleet reacting to whatever fault
                    // was injected last — correlate the ticket to it.
                    telemetry.recorder_mut().note_delay(ticket, end);
                    attempt_spans[slot] = telemetry.span(NewSpan {
                        name: "recovery.retry",
                        ticket: Some(ticket),
                        shard,
                        parent: telemetry.tracer().root_of(ticket),
                        follows,
                        start: round_start,
                        end,
                        note: format!("round {round}"),
                    });
                }
            }
        }
        if !failed.is_empty() {
            // Retry budget exhausted: fail closed with an explicit refusal
            // — the request is answered, never silently dropped.
            self.fleet.recovery_mut().retries_exhausted += failed.len() as u64;
            for slot in failed {
                attempt.responses[slot] = Some(self.refusal_for(&requests[slot]));
            }
        }
        // Re-dispatch stragglers: past the serve timeout the original is
        // considered failed and unconditionally replaced by a re-serve on
        // the hedge shard; past the (smaller) hedge threshold the faster
        // of the two completions wins. Either way exactly one completion
        // reaches the caller — the loser is suppressed.
        for (slot, request) in requests.iter().enumerate() {
            let Some((target, timed_out, latency)) = self.straggler(&cfg, &attempt, slot) else {
                continue;
            };
            {
                let recovery = self.fleet.recovery_mut();
                if timed_out {
                    recovery.timeouts += 1;
                } else {
                    recovery.hedges += 1;
                }
            }
            let hedge_start = self.fleet.clock.now();
            // A hedge is a one-request plan pinned to the target shard,
            // through the same driver as every other serve.
            let mut hedged = self.fleet.scatter_gather(&[request], Some(target));
            let Some(second) = hedged.responses.pop().flatten() else {
                continue;
            };
            let faster = second.latency.total() < latency;
            let recovery = self.fleet.recovery_mut();
            recovery.duplicates_suppressed += 1;
            if timed_out || faster {
                if !timed_out {
                    recovery.hedges_won += 1;
                }
                attempt.responses[slot] = Some(second);
                attempt.shards[slot] = Some(target);
            }
            if self.fleet.telemetry().is_enabled() {
                // The hedge races its primary rather than nesting inside
                // it: a follows-from link, same parent.
                let end = self.fleet.clock.now();
                let ticket = stamps[slot].0.ticket;
                let follows = attempt_spans[slot];
                let telemetry = self.fleet.telemetry_mut();
                telemetry.recorder_mut().note_delay(ticket, end);
                attempt_spans[slot] = telemetry.span(NewSpan {
                    name: if timed_out {
                        "recovery.timeout"
                    } else {
                        "recovery.hedge"
                    },
                    ticket: Some(ticket),
                    shard: Some(target),
                    parent: telemetry.tracer().root_of(ticket),
                    follows,
                    start: hedge_start,
                    end,
                    note: if timed_out || faster {
                        "won".to_string()
                    } else {
                        "suppressed".to_string()
                    },
                });
            }
        }
        if self.fire_due_control_crash() {
            // The crash landed while the batch was in flight (or retries,
            // backoffs or hedges carried the clock past it): the batch
            // dies un-released, with no Complete record committed, so
            // recovery re-queued it from the journal — or, without one,
            // lost it along with the queue.
            if self.journal.is_none() {
                self.fleet.recovery_mut().acked_lost += stamps.len() as u64;
            }
            return Vec::new();
        }
        self.update_ladder();
        let completed = self.fleet.clock.now();
        let streaming = !self.streaming_suspended();
        let mut responses = Vec::with_capacity(attempt.responses.len());
        for (slot, maybe) in attempt.responses.into_iter().enumerate() {
            responses.push(match maybe {
                Some(response) => response,
                // Unreachable (every slot is served, retried into, or
                // refused above); a refusal keeps the path panic-free.
                None => self.refusal_for(&requests[slot]),
            });
        }
        for ((stamp, dispatched), response) in stamps.iter().zip(responses.iter_mut()) {
            let wait = dispatched.duration_since(stamp.arrival);
            response.latency.queue = response.latency.queue.saturating_add(wait);
            // The pipeline stamps time-to-first-token from batch entry;
            // the submission-to-first-token the producer experienced adds
            // the queue wait in front of it. Refused/never-streamed
            // responses carry no sample.
            let ttft = response.latency.time_to_first_token;
            if streaming && ttft > SimDuration::ZERO {
                self.controller.record_ttft(wait.saturating_add(ttft));
            }
            let achieved = if self.ttft_deadlines && streaming && ttft > SimDuration::ZERO {
                dispatched.saturating_add(ttft)
            } else {
                completed
            };
            self.controller.record_served(stamp, achieved);
            // The two recovery witnesses, kept only on recovery-enabled
            // doors (so a plain door's snapshots do not grow with history).
            if self.recovery.is_some() {
                // Ticket idempotency: a ticket completes toward the caller
                // at most once. The insert returning false would mean a
                // second completion slipped through — counted, asserted
                // zero by the e19 bench and the chaos proptests.
                if !self.completed_tickets.insert(stamp.ticket.raw()) {
                    self.fleet.recovery_mut().double_serves += 1;
                }
                // Session-order witness: within a session, delivery order
                // must follow arrival order, whatever re-queueing and
                // hedging did.
                let session = response.session.raw();
                match self.session_progress.get(&session) {
                    Some(&last) if stamp.arrival < last => {
                        self.fleet.recovery_mut().session_reorderings += 1;
                    }
                    _ => {
                        self.session_progress.insert(session, stamp.arrival);
                    }
                }
            }
            self.journal_complete(stamp, response);
            self.telemetry_settle(stamp, *dispatched, completed, achieved, response.outcome);
        }
        responses
    }

    /// Whether `slot`'s response is a straggler to re-dispatch, and where:
    /// the hedge target shard, whether the serve timeout (rather than just
    /// the hedge threshold) was crossed, and the straggler's latency.
    fn straggler(
        &self,
        cfg: &RecoveryConfig,
        attempt: &BatchAttempt,
        slot: usize,
    ) -> Option<(usize, bool, SimDuration)> {
        let primary = attempt.shards[slot]?;
        // Refusals and escalations are verdicts, not stragglers.
        let current = attempt.responses[slot].as_ref().filter(|r| r.delivered())?;
        let latency = current.latency.total();
        let timed_out = cfg.serve_timeout.is_some_and(|t| latency > t);
        let hedge = cfg.hedge_threshold.is_some_and(|t| latency > t);
        if !timed_out && !hedge {
            return None;
        }
        Some((self.fleet.hedge_target(primary)?, timed_out, latency))
    }

    /// A synthesized fail-closed refusal for a request whose retry budget
    /// ran out: typed outcome, the home shard's current isolation, no
    /// content.
    fn refusal_for(&self, request: &ServeRequest) -> ServeResponse {
        let home = self.fleet.home_shard(request.session);
        ServeResponse {
            session: request.session,
            outcome: ServeOutcomeKind::Refused,
            response: String::new(),
            verdicts: Vec::new(),
            latency: LatencyBreakdown::default(),
            kv_hit: false,
            isolation: self.fleet.shard(home).isolation_level(),
        }
    }

    /// Commits one WAL record, when journaling is on.
    fn journal_append(&mut self, record: &WalRecord) {
        if let Some(journal) = self.journal.as_mut() {
            journal.store.append(record);
        }
    }

    /// Commits the enqueue record of the request `submit` just admitted,
    /// when journaling is on. The controller consumed the request, so the
    /// record is encoded from the queue's own entry — stamp and wire form
    /// written once, straight into the log's buffer.
    fn journal_enqueue(&mut self) {
        if let (Some(journal), Some((stamp, request))) =
            (self.journal.as_mut(), self.controller.newest())
        {
            journal.store.append_enqueue(stamp, request.wire());
        }
    }

    /// Commits a batch-dispatch record: these tickets are leaving the
    /// queue for the fleet. Recovery treats dispatched-but-uncompleted
    /// tickets as stranded in flight and re-queues them.
    fn journal_dispatch(&mut self, stamps: &[(EntryStamp, SimInstant)]) {
        if self.journal.is_none() || stamps.is_empty() {
            return;
        }
        let record = WalRecord::Dispatch {
            at: self.fleet.clock.now(),
            tickets: stamps.iter().map(|(stamp, _)| stamp.ticket).collect(),
        };
        self.journal_append(&record);
    }

    /// Commits a completion record — *before* the response is released to
    /// the caller, so "completed toward the caller" and "Complete in the
    /// WAL" can never disagree across a crash. Carries the session and
    /// arrival stamps recovery needs to restore the order witness.
    fn journal_complete(&mut self, stamp: &EntryStamp, response: &ServeResponse) {
        if self.journal.is_none() {
            return;
        }
        let outcome = match response.outcome {
            ServeOutcomeKind::Delivered => CompletionKind::Delivered,
            ServeOutcomeKind::Sanitized => CompletionKind::Sanitized,
            ServeOutcomeKind::Refused => CompletionKind::Refused,
            ServeOutcomeKind::Escalated => CompletionKind::Escalated,
        };
        let record = WalRecord::Complete {
            ticket: stamp.ticket,
            at: self.fleet.clock.now(),
            outcome,
            session: stamp.session,
            arrival: stamp.arrival,
        };
        self.journal_append(&record);
    }

    /// Takes a snapshot when the configured interval has elapsed. Only
    /// called at quiescent points (before the batch former runs), so no
    /// batch is in flight and the queue alone captures every
    /// acked-uncompleted request.
    fn maybe_snapshot(&mut self) {
        let now = self.fleet.clock.now();
        let due = self.journal.as_ref().is_some_and(|journal| {
            journal
                .config
                .snapshot_interval
                .is_some_and(|interval| now.duration_since(journal.last_snapshot) >= interval)
        });
        if due {
            self.snapshot_now();
        }
    }

    /// Unconditionally snapshots the control plane (quiescent call sites
    /// only), encoding straight from the live queue and idempotency set.
    /// The session-order map is sorted first so the snapshot bytes are
    /// deterministic across runs.
    fn snapshot_now(&mut self) {
        let Some(journal) = self.journal.as_mut() else {
            return;
        };
        let now = self.fleet.clock.now();
        let mut progress: Vec<(u32, u64)> = self
            .session_progress
            .iter()
            .map(|(&session, &at)| (session, at.as_nanos()))
            .collect();
        progress.sort_unstable();
        let shard_count = self.fleet.shard_count();
        let quarantined: Vec<bool> = (0..shard_count)
            .map(|index| self.fleet.is_quarantined(index))
            .collect();
        let kv_invalidated: Vec<bool> = (0..shard_count)
            .map(|index| self.fleet.kv_invalidated(index))
            .collect();
        journal.store.take_snapshot(SnapshotView {
            at: now,
            wal_offset: journal.store.wal_len(),
            next_ticket: self.controller.next_ticket_raw(),
            mode_rank: self.mode.rank() as u8,
            queue: self
                .controller
                .entries()
                .map(|(stamp, request)| (stamp, request.wire())),
            completed: &self.completed_tickets,
            progress: &progress,
            quarantined: &quarantined,
            kv_invalidated: &kv_invalidated,
            stats: self.controller.stats(),
        });
        journal.last_snapshot = now;
    }

    /// The control plane dies and restarts: every volatile structure —
    /// queue, ticket stamps, idempotency set, session-order witness,
    /// ladder mode — is gone at the crash instant,
    /// then rebuilt from the journal (latest valid snapshot plus WAL
    /// suffix replay, torn tail truncated) or, without one, from nothing.
    /// Replay work is charged to the fleet clock as downtime.
    ///
    /// `armed` is the instant the crash was scheduled for. It lands later,
    /// at the first boundary past it, but its incident is stamped `armed`
    /// (as a shard crash's is): an incident is attributed to a fault by
    /// instant, and that is the one the chaos schedule knows the fault by.
    fn crash_control_plane(&mut self, armed: SimInstant) {
        let now = self.fleet.clock.now();
        if self.fleet.telemetry().is_enabled() {
            let queued = self.controller.depth();
            let wal_offset = self.wal_offset();
            self.fleet.telemetry_mut().incident(
                IncidentKind::ControlPlaneCrash,
                armed,
                None,
                None,
                wal_offset,
                format!("{queued} queued at crash"),
            );
        }
        // Settle the open residence in the current ladder mode before the
        // crash wipes it, so per-mode durations keep summing to elapsed
        // time across the boundary.
        if self.recovery.is_some() {
            let held = now.duration_since(self.mode_since);
            let rank = self.mode.rank();
            let recovery = self.fleet.recovery_mut();
            recovery.degraded[rank] = recovery.degraded[rank].saturating_add(held);
        }
        let queued_before = self.controller.depth() as u64;
        self.completed_tickets.clear();
        self.session_progress.clear();
        self.fleet.recovery_mut().control_plane_crashes += 1;
        let mut summary = ControlRecovery {
            at: now,
            used_snapshot: false,
            snapshots_skipped: 0,
            wal_replayed: 0,
            requeued: 0,
            torn_truncated: 0,
            lost: 0,
            replay_time: SimDuration::ZERO,
        };
        match self.journal.as_mut() {
            None => {
                // Amnesia: the ticket counter survives (ids stay unique
                // across the restart) but every acked-unserved request is
                // gone — the baseline loss the WAL exists to eliminate.
                let next_ticket = self.controller.next_ticket_raw();
                self.controller
                    .restore(Vec::new(), next_ticket, AdmissionStats::default());
                summary.lost = queued_before;
                self.fleet.recovery_mut().acked_lost += queued_before;
                if self.recovery.is_some() {
                    self.mode = DegradationMode::Normal;
                    self.mode_since = now;
                }
            }
            Some(journal) => {
                let recovered = journal.store.recover();
                // The recovery checkpoint cadence restarts here.
                journal.last_snapshot = now;
                let replay = rebuild(&recovered);
                let mut entries = Vec::with_capacity(replay.queue.len());
                let mut undecodable = 0u64;
                for (stamp, wire) in &replay.queue {
                    match ServeRequest::from_wire(wire) {
                        Some(request) => entries.push((*stamp, request)),
                        None => undecodable += 1,
                    }
                }
                summary.used_snapshot = recovered.snapshot.is_some();
                summary.snapshots_skipped = recovered.snapshots_skipped;
                summary.wal_replayed = replay.replayed;
                summary.requeued = entries.len() as u64;
                summary.torn_truncated = recovered.torn_truncated;
                summary.lost = undecodable;
                summary.replay_time = recovered.replay_cost;
                self.controller
                    .restore(entries, replay.next_ticket, replay.stats);
                self.completed_tickets = replay.completed;
                self.session_progress = replay
                    .progress
                    .iter()
                    .map(|&(session, at)| (session, SimInstant::from_nanos(at)))
                    .collect();
                if self.recovery.is_some() {
                    self.mode = DegradationMode::from_rank(replay.mode_rank);
                    // `mode_since` stays at the crash instant: the replay
                    // window below is charged to the restored mode.
                    self.mode_since = now;
                }
                {
                    let recovery = self.fleet.recovery_mut();
                    recovery.wal_replayed += replay.replayed;
                    recovery.journal_requeued += summary.requeued;
                    recovery.snapshots_skipped += recovered.snapshots_skipped;
                    recovery.torn_truncated += recovered.torn_truncated;
                    recovery.acked_lost += undecodable;
                    recovery.replay_time =
                        recovery.replay_time.saturating_add(recovered.replay_cost);
                }
                // Recovery work is downtime: the clock pays for every
                // snapshot byte loaded and WAL record replayed.
                self.fleet.clock.advance(recovered.replay_cost);
                if self.fleet.telemetry().is_enabled() {
                    let end = self.fleet.clock.now();
                    self.fleet.telemetry_mut().span(NewSpan {
                        name: "journal.replay",
                        start: now,
                        end,
                        note: format!(
                            "snapshot={} wal_replayed={} requeued={}",
                            summary.used_snapshot, summary.wal_replayed, summary.requeued
                        ),
                        ..NewSpan::default()
                    });
                }
            }
        }
        if self.fleet.telemetry().is_enabled() {
            // A re-queued ticket was delayed by whatever fault forced the
            // crash — feed the correlation table. (Its root span is still
            // there when it settles: the span store is observer state and
            // survives a crash of the control plane it diagnoses.)
            let restored_at = self.fleet.clock.now();
            let recorder = self.fleet.telemetry_mut().recorder_mut();
            for (stamp, _) in self.controller.entries() {
                recorder.note_delay(stamp.ticket, restored_at);
            }
        }
        self.last_control_recovery = Some(summary);
    }

    /// Re-derives the degradation mode from live fleet health and settles
    /// per-mode time accounting on transitions.
    fn update_ladder(&mut self) {
        let Some(cfg) = self.recovery else {
            return;
        };
        let mode = DegradationMode::from_health(
            self.fleet.healthy_count(),
            self.fleet.shard_count(),
            &cfg,
        );
        if mode != self.mode {
            let now = self.fleet.clock.now();
            let held = now.duration_since(self.mode_since);
            let rank = self.mode.rank();
            let recovery = self.fleet.recovery_mut();
            recovery.degraded[rank] = recovery.degraded[rank].saturating_add(held);
            self.mode = mode;
            self.mode_since = now;
        }
    }

    /// WAL records committed so far — the offset incidents carry, so a
    /// post-mortem can line the flight recorder up against the journal.
    fn wal_offset(&self) -> u64 {
        self.journal
            .as_ref()
            .map(|journal| journal.store.wal_len())
            .unwrap_or(0)
    }

    /// Opens the per-ticket root span at admission. The root is a
    /// zero-width anchor at the arrival instant: spans are recorded whole,
    /// so the lifecycle it anchors is told by its children (queue wait,
    /// dispatch, retries) rather than by a mutable open interval. It is the
    /// ticket's only parentless span, so `Tracer::root_of` finds it when
    /// those children are recorded.
    fn telemetry_admit(&mut self, ticket: TicketId, arrival: SimInstant) {
        self.fleet.telemetry_mut().span(NewSpan {
            name: "request",
            ticket: Some(ticket),
            start: arrival,
            end: arrival,
            ..NewSpan::default()
        });
    }

    /// Emits the door-side spans and incidents for one settled request:
    /// the queue-wait span (per-attempt dispatch spans were recorded as the
    /// attempts ran) and deadline-miss / escalation incident dumps stamped
    /// with the WAL offset at settlement.
    fn telemetry_settle(
        &mut self,
        stamp: &EntryStamp,
        dispatched: SimInstant,
        completed: SimInstant,
        achieved: SimInstant,
        outcome: ServeOutcomeKind,
    ) {
        if !self.fleet.telemetry().is_enabled() {
            return;
        }
        let wal_offset = self.wal_offset();
        let ticket = stamp.ticket;
        let missed = stamp.deadline.is_some_and(|deadline| achieved > deadline);
        let telemetry = self.fleet.telemetry_mut();
        telemetry.span(NewSpan {
            name: "admission.queue",
            ticket: Some(ticket),
            parent: telemetry.tracer().root_of(ticket),
            start: stamp.arrival,
            end: dispatched,
            ..NewSpan::default()
        });
        if missed {
            let late = stamp
                .deadline
                .map(|deadline| achieved.duration_since(deadline))
                .unwrap_or_default();
            telemetry.incident(
                IncidentKind::DeadlineMiss,
                achieved,
                Some(ticket),
                None,
                wal_offset,
                format!("late by {late}"),
            );
        }
        if outcome == ServeOutcomeKind::Escalated {
            telemetry.incident(
                IncidentKind::Escalation,
                completed,
                Some(ticket),
                None,
                wal_offset,
                String::new(),
            );
        }
    }

    /// [`GuillotineFleet::metrics`] plus the admission tier: its counts
    /// from [`AdmissionStats`] (`admission.refused` is the queue's refusals
    /// and the degradation ladder's) and, with telemetry on, its queue-wait
    /// histogram. Serialized, this is the `METRICS.json` artifact.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut metrics = self.fleet.metrics();
        let admission = self.controller.stats();
        let ladder_shed = self.fleet.recovery_stats().ladder_shed;
        add_counted(
            &mut metrics,
            &[
                ("admission.enqueued", admission.enqueued),
                ("admission.refused", admission.refused + ladder_shed),
                ("admission.shed", admission.shed),
                ("slo.deadline_missed", admission.deadlines_missed),
            ],
        );
        if self.fleet.telemetry().is_enabled() && admission.wait_hist.count() > 0 {
            *metrics.histogram("admission.queue_wait") = admission.wait_hist.clone();
        }
        metrics
    }

    /// Fleet statistics with the admission tier filled in.
    pub fn stats(&self) -> FleetStats {
        let mut stats = self.fleet.stats_from(&self.metrics());
        stats.admission = Some(self.controller.stats().clone());
        if self.recovery.is_some() {
            // Charge the still-open residence in the current mode, so
            // per-mode durations always sum to elapsed time.
            let held = self.fleet.clock.now().duration_since(self.mode_since);
            let rank = self.mode.rank();
            stats.recovery.degraded[rank] = stats.recovery.degraded[rank].saturating_add(held);
        }
        stats
    }

    /// A rendered fleet report including the admission/SLO section.
    pub fn report(&self) -> FleetReport {
        FleetReport {
            stats: self.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::ServePriority;
    use guillotine_types::SessionId;

    fn benign(i: u32) -> ServeRequest {
        ServeRequest::new(format!("Summarize item {i}.")).with_session(SessionId::new(i))
    }

    fn door(capacity: usize, shed: ShedPolicy) -> FrontDoor {
        let fleet = GuillotineFleet::builder().with_shards(2).build().unwrap();
        FrontDoor::new(
            fleet,
            AdmissionConfig {
                capacity,
                shed,
                default_deadline: None,
            },
            Box::new(DeadlinePolicy {
                max_batch: 4,
                max_wait: SimDuration::from_millis(1),
                session_affinity: true,
                ..DeadlinePolicy::default()
            }),
        )
    }

    #[test]
    fn submissions_queue_until_the_former_is_ready() {
        let mut d = door(16, ShedPolicy::FailClosed);
        for i in 0..3 {
            assert!(d.submit(benign(i)).admitted());
        }
        assert_eq!(d.queue_depth(), 3);
        // Three queued, batch of four not reached, nothing has aged: the
        // pump serves nothing yet.
        assert!(d.pump().unwrap().is_empty());
        assert!(d.submit(benign(3)).admitted());
        let responses = d.pump().unwrap();
        assert_eq!(responses.len(), 4);
        assert!(responses.iter().all(|r| r.delivered()));
        assert_eq!(d.queue_depth(), 0);
        let stats = d.stats();
        let admission = stats.admission.unwrap();
        assert_eq!(admission.dispatched, 4);
        assert_eq!(admission.batches, 1);
    }

    #[test]
    fn queue_wait_joins_the_latency_breakdown() {
        let mut d = door(16, ShedPolicy::FailClosed);
        d.submit(benign(0));
        // Advance the fleet clock past max_wait, then pump: the response
        // must carry the real queue wait on top of the fixed batch latency.
        d.fleet_mut().clock.advance(SimDuration::from_millis(5));
        let responses = d.pump().unwrap();
        assert_eq!(responses.len(), 1);
        assert!(responses[0].latency.queue >= SimDuration::from_millis(5));
    }

    #[test]
    fn full_queue_fails_closed_or_sheds_by_policy() {
        let mut closed = door(2, ShedPolicy::FailClosed);
        assert!(closed.submit(benign(0)).admitted());
        assert!(closed.submit(benign(1)).admitted());
        assert!(matches!(
            closed.submit(benign(2)),
            AdmissionDecision::Refused { depth: 2 }
        ));

        let mut shedding = door(2, ShedPolicy::DropLowestPriority);
        shedding.submit(benign(0).with_priority(ServePriority::Batch));
        shedding.submit(benign(1).with_priority(ServePriority::Interactive));
        let decision = shedding.submit(benign(2));
        assert!(matches!(
            decision,
            AdmissionDecision::Shed {
                admitted: Some(_),
                victim_session,
                ..
            } if victim_session == SessionId::new(0)
        ));
        assert_eq!(shedding.admission_stats().shed, 1);
    }

    #[test]
    fn deadline_misses_are_tracked_against_completion() {
        let mut d = door(16, ShedPolicy::FailClosed);
        // A deadline far too tight to survive even one batch: miss.
        d.submit_with_deadline(benign(0), Some(SimDuration::from_nanos(1)));
        // A generous deadline: met.
        d.submit_with_deadline(benign(1), Some(SimDuration::from_secs(60)));
        let responses = d.drain().unwrap();
        assert_eq!(responses.len(), 2);
        let stats = d.admission_stats();
        assert_eq!(stats.deadlines_tracked, 2);
        assert_eq!(stats.deadlines_missed, 1);
        assert_eq!(stats.deadlines_met, 1);
    }

    #[test]
    fn served_streams_record_submission_to_first_token() {
        let mut d = door(16, ShedPolicy::FailClosed);
        d.submit(benign(0));
        d.fleet_mut().clock.advance(SimDuration::from_millis(2));
        let responses = d.pump().unwrap();
        assert_eq!(responses.len(), 1);
        let stats = d.admission_stats();
        assert_eq!(stats.ttft_samples, 1);
        // Submission-to-first-token is the admission wait (the 2ms the
        // request sat queued) plus the pipeline-side TTFT.
        let pipeline_ttft = responses[0].latency.time_to_first_token;
        assert!(pipeline_ttft > SimDuration::ZERO);
        assert_eq!(
            stats.ttft_max,
            SimDuration::from_millis(2).saturating_add(pipeline_ttft)
        );
        assert_eq!(stats.mean_ttft(), stats.ttft_max);
    }

    #[test]
    fn ttft_deadlines_are_judged_at_the_first_token() {
        let run = |deadline: Option<SimDuration>, ttft_mode: bool| {
            let fleet = GuillotineFleet::builder().with_shards(1).build().unwrap();
            let mut d = if ttft_mode {
                FrontDoor::ttft_deadline_aware(fleet)
            } else {
                FrontDoor::deadline_aware(fleet)
            };
            for i in 0..8 {
                d.submit_with_deadline(benign(i), deadline);
            }
            let responses = d.drain().unwrap();
            assert_eq!(responses.len(), 8);
            let max_ttft = responses
                .iter()
                .map(|r| r.latency.time_to_first_token)
                .max()
                .unwrap();
            (max_ttft, d.now(), d.admission_stats())
        };
        // Measure the gap between the last first-token instant and batch
        // completion, then pick a deadline budget between the two: the
        // batch misses it at completion but makes it at the first token.
        let (max_ttft, completion, _) = run(None, false);
        let completed = completion.duration_since(SimInstant::from_nanos(0));
        assert!(max_ttft < completed);
        let budget = SimDuration::from_nanos((max_ttft.as_nanos() + completed.as_nanos()) / 2);
        let (_, _, stats) = run(Some(budget), false);
        assert_eq!(stats.deadlines_missed, 8);
        let (_, _, stats) = run(Some(budget), true);
        assert_eq!(stats.deadlines_met, 8);
        assert_eq!(stats.ttft_samples, 8);
    }

    #[test]
    fn play_runs_an_open_loop_trace_to_completion() {
        let mut d = door(16, ShedPolicy::FailClosed);
        let trace: Vec<TimedArrival> = (0..10)
            .map(|i| TimedArrival {
                at: SimInstant::from_nanos(i as u64 * 1_000),
                request: benign(i),
                deadline: Some(SimDuration::from_secs(1)),
            })
            .collect();
        let (decisions, responses) = d.play(trace).unwrap();
        assert_eq!(decisions.len(), 10);
        assert!(decisions.iter().all(|d| d.admitted()));
        assert_eq!(responses.len(), 10);
        assert_eq!(d.queue_depth(), 0);
        let rendered = d.report().render();
        assert!(rendered.contains("admission queue"));
        assert!(rendered.contains("deadlines"));
    }
}
