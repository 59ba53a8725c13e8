//! Layer 2: a bounded model checker for the fleet containment state
//! machine.
//!
//! The fleet's containment argument rests on a handful of invariants spread
//! across `guillotine::fleet` (quarantine, fail-closed routing, re-home),
//! `guillotine::deployment` (mid-batch `Sever`, stream cutting),
//! `guillotine-model`'s KV tier (invalidation generations) and the console
//! quorum. Unit tests exercise chosen paths; this module exhaustively
//! explores **every** interleaving of a small abstract model of those
//! mechanisms, up to a bounded depth, and proves the named
//! [`INVARIANTS`] hold — or produces a minimal counterexample trace.
//!
//! The model is deliberately tiny (2 shards, 2 sessions, bounded
//! sequence/generation/chunk counters) and dependency-free: states are
//! plain hashable values, exploration is a breadth-first search with a
//! visited set, so the first violation found is a shortest one.
//!
//! # Fault injection
//!
//! [`ModelFault`] deliberately re-introduces one historical (or feared)
//! bug into the transition function — skip the fail-closed check, serve
//! from a quarantined shard, drop queued work instead of re-homing it,
//! serve a stale KV generation, emit into a severed stream, reinstate
//! without a console quorum. `check` with a fault must produce a
//! counterexample naming the matching invariant; the mutant tests in
//! `crates/audit/tests/model.rs` pin that down, which is the evidence the
//! checker actually checks something.

use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;

/// Number of shards in the abstract fleet.
const N_SHARDS: usize = 2;
/// Number of client sessions.
const N_SESSIONS: usize = 2;
/// Most requests one session submits in an exploration.
const MAX_SEQ: u8 = 2;
/// Most chunks one stream emits.
const MAX_CHUNKS: u8 = 1;
/// KV invalidation generations are bounded (a shard can be quarantined at
/// most this many times per exploration).
const MAX_GEN: u8 = 2;
/// Console votes required to reinstate a quarantined shard.
const QUORUM: u8 = 2;
/// Per-shard queue bound.
const MAX_QUEUE: usize = 2;

/// The named containment invariants the checker proves, in the order they
/// are reported.
///
/// Each name is documented next to the production code it guards:
///
/// * `fail-closed-when-fully-quarantined` — `GuillotineFleet::affinity_route`
/// * `no-serve-from-quarantined-shard` — `GuillotineFleet::scatter_gather`
/// * `session-order-preserved-across-rehome` — `GuillotineFleet::contain`
/// * `no-kv-from-invalidated-generation` — `guillotine_model::kv::KvTier`
/// * `no-chunk-after-severed-stream` —
///   `GuillotineDeployment::serve_batch_streaming_with_chunk`
/// * `no-reinstate-without-quorum` — `GuillotineDeployment::console_transition`
/// * `no-double-serve-under-retry` — `FrontDoor::serve`'s ticket
///   idempotency (a retry/hedge duplicate of an already-served request must
///   be suppressed, never served again)
/// * `no-relax-while-partitioned` — `FleetConsole::bulk_relax` (a quorum
///   reached while the fleet console is partitioned from its machines must
///   not reinstate anything: split-brain fails closed)
/// * `no-acked-loss-across-recovery` — `FrontDoor::crash_control_plane` /
///   `guillotine_journal::rebuild` (every acked-but-uncompleted admission
///   is committed to the WAL before its ack, so a control-plane crash
///   recovery must re-queue all of it — never lose acked work)
/// * `no-double-serve-across-recovery` — the journal's Complete records
///   plus ticket idempotency (a completion is committed before its response
///   is released, so replay must never re-release an already-completed
///   response after a crash)
pub const INVARIANTS: [&str; 10] = [
    "fail-closed-when-fully-quarantined",
    "no-serve-from-quarantined-shard",
    "session-order-preserved-across-rehome",
    "no-kv-from-invalidated-generation",
    "no-chunk-after-severed-stream",
    "no-reinstate-without-quorum",
    "no-double-serve-under-retry",
    "no-relax-while-partitioned",
    "no-acked-loss-across-recovery",
    "no-double-serve-across-recovery",
];

/// One deliberately-injected bug in the transition function, for mutant
/// testing the checker itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ModelFault {
    /// The faithful model: every invariant must hold.
    #[default]
    None,
    /// Admission stops failing closed: a request arriving while every shard
    /// is quarantined is enqueued on its home shard anyway.
    SkipFailClosed,
    /// Dispatch ignores the quarantine flag and serves from a quarantined
    /// shard when a live one exists.
    ServeFromQuarantined,
    /// Quarantine drops the shard's queued requests instead of re-homing
    /// them — the "skip quarantine re-home" bug.
    DropQueueOnQuarantine,
    /// Dispatch reuses any cached KV block, even from an invalidated
    /// generation.
    ServeStaleKv,
    /// The decode loop keeps emitting chunks into a stream that was severed
    /// mid-flight.
    EmitAfterSever,
    /// The console reinstates a shard without a vote quorum.
    ReinstateWithoutQuorum,
    /// Dispatch serves a retry/hedge duplicate of an already-delivered
    /// request instead of suppressing it — the double-serve bug the
    /// front door's ticket idempotency exists to prevent.
    ServeDuplicate,
    /// The console honours a reinstate quorum even while partitioned from
    /// its machines — the split-brain relax bug `FleetConsole::bulk_relax`
    /// fails closed against.
    RelaxWhilePartitioned,
    /// Control-plane crash recovery forgets the WAL: acked-but-uncompleted
    /// admissions die with the in-memory queue instead of being replayed.
    LoseAckedOnRecovery,
    /// Control-plane crash recovery replays completed records too: a
    /// response already released to its caller is released again.
    ReplayCompletedOnRecovery,
}

/// Per-stream lifecycle in the abstract model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Stream {
    /// No stream opened yet (or the previous one closed cleanly).
    Idle,
    /// Live stream decoding on `shard`, `chunks` emitted so far.
    Open { shard: u8, chunks: u8 },
    /// Cut mid-flight by a quarantine; nothing may be emitted again.
    Severed,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Shard {
    quarantined: bool,
    /// Console votes toward reinstatement (only meaningful while
    /// quarantined).
    votes: u8,
    /// KV invalidation generation; bumped when the shard is quarantined.
    kv_gen: u8,
    /// FIFO of admitted-but-unserved requests: `(session, seq)`.
    queue: Vec<(u8, u8)>,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Session {
    /// Sequence number the next submission will carry (1-based).
    next_seq: u8,
    /// Highest sequence number served so far.
    delivered: u8,
    /// Cached KV block generation per shard (`None` = cold).
    kv: [Option<u8>; N_SHARDS],
    stream: Stream,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct State {
    shards: [Shard; N_SHARDS],
    sessions: [Session; N_SESSIONS],
    /// True while the fleet console is partitioned from its machines (the
    /// datacenter-level split-brain flag `FleetConsole::split_brain`
    /// models; reinstatement must fail closed while it is set).
    partitioned: bool,
    /// The write-ahead admission log: every acked enqueue `(session, seq)`
    /// in commit order. Append-only and durable — a control-plane crash
    /// clears the volatile queues but never the WAL; recovery replays the
    /// acked-but-uncompleted suffix (completion is witnessed by each
    /// session's `delivered` watermark).
    wal: Vec<(u8, u8)>,
}

impl State {
    fn initial() -> State {
        State {
            shards: std::array::from_fn(|_| Shard {
                quarantined: false,
                votes: 0,
                kv_gen: 0,
                queue: Vec::new(),
            }),
            sessions: std::array::from_fn(|_| Session {
                next_seq: 1,
                delivered: 0,
                kv: [None; N_SHARDS],
                stream: Stream::Idle,
            }),
            partitioned: false,
            wal: Vec::new(),
        }
    }

    /// The fleet's deterministic affinity route: linear probe from the
    /// session's home shard over live shards; `None` when every shard is
    /// quarantined (the fail-closed case).
    fn route(&self, session: u8) -> Option<usize> {
        let home = session as usize % N_SHARDS;
        (0..N_SHARDS)
            .map(|probe| (home + probe) % N_SHARDS)
            .find(|&shard| !self.shards[shard].quarantined)
    }

    /// True when an earlier sequence number of `session` is still queued
    /// anywhere — the model of the batch former's intra-session ordering
    /// closure (it always pulls a session's earlier work first).
    fn earlier_queued(&self, session: u8, seq: u8) -> bool {
        self.shards
            .iter()
            .flat_map(|shard| shard.queue.iter())
            .any(|&(s, q)| s == session && q < seq)
    }
}

/// One transition of the abstract containment machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    /// A session offers a request to the admission door.
    Submit { session: u8 },
    /// A shard dispatches (serves) the head of its queue, opening a stream.
    Dispatch { shard: u8 },
    /// The console severs a shard's ports: quarantine, KV invalidation,
    /// stream cutting, queue re-home.
    Quarantine { shard: u8 },
    /// One console member votes to reinstate a quarantined shard.
    Vote { shard: u8 },
    /// The console reinstates a quarantined shard.
    Reinstate { shard: u8 },
    /// A live stream emits one chunk.
    EmitChunk { session: u8 },
    /// A live stream finishes cleanly.
    CloseStream { session: u8 },
    /// The recovery layer re-enqueues a duplicate of the session's most
    /// recently delivered request (a retry racing its original, or a hedge
    /// losing after the primary completed).
    RetryEnqueue { session: u8 },
    /// The fleet console loses contact with its machines (split-brain).
    Partition,
    /// The console partition heals.
    Heal,
    /// The control plane crashes and recovers: every volatile queue is
    /// lost, then rebuilt by replaying the WAL's acked-but-uncompleted
    /// suffix through the current routing.
    ControlCrash,
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Submit { session } => write!(f, "Submit(session {session})"),
            Action::Dispatch { shard } => write!(f, "Dispatch(shard {shard})"),
            Action::Quarantine { shard } => write!(f, "Quarantine(shard {shard})"),
            Action::Vote { shard } => write!(f, "ConsoleVote(shard {shard})"),
            Action::Reinstate { shard } => write!(f, "Reinstate(shard {shard})"),
            Action::EmitChunk { session } => write!(f, "EmitChunk(session {session})"),
            Action::CloseStream { session } => write!(f, "CloseStream(session {session})"),
            Action::RetryEnqueue { session } => write!(f, "RetryEnqueue(session {session})"),
            Action::Partition => write!(f, "ConsolePartition"),
            Action::Heal => write!(f, "ConsoleHeal"),
            Action::ControlCrash => write!(f, "ControlPlaneCrash"),
        }
    }
}

/// Result of applying one enabled action.
enum Step {
    /// The machine moved to a new state.
    Next(State),
    /// The action itself witnessed an invariant violation.
    Violation(&'static str),
}

/// Applies `action` to `state` under `fault`, or `None` if the action is
/// not enabled there.
fn apply(state: &State, action: Action, fault: ModelFault) -> Option<Step> {
    let mut next = state.clone();
    match action {
        Action::Submit { session } => {
            let s = session as usize;
            if state.sessions[s].next_seq > MAX_SEQ {
                return None;
            }
            let seq = state.sessions[s].next_seq;
            match state.route(session) {
                Some(shard) => {
                    if state.shards[shard].queue.len() >= MAX_QUEUE {
                        return None;
                    }
                    // WAL-before-ack: the enqueue is committed to the log
                    // in the same transition that acks it.
                    next.wal.push((session, seq));
                    next.shards[shard].queue.push((session, seq));
                    next.sessions[s].next_seq += 1;
                }
                None => {
                    // Every shard quarantined: the door must refuse.
                    if fault != ModelFault::SkipFailClosed {
                        return None; // refused; no state change worth exploring
                    }
                    let home = s % N_SHARDS;
                    if state.shards[home].queue.len() >= MAX_QUEUE {
                        return None;
                    }
                    // The faulty door admits into a fully-quarantined fleet.
                    return Some(Step::Violation(INVARIANTS[0]));
                }
            }
        }
        Action::Dispatch { shard } => {
            let i = shard as usize;
            let &(session, seq) = state.shards[i].queue.first()?;
            if state.shards[i].quarantined {
                match fault {
                    ModelFault::ServeFromQuarantined => {
                        return Some(Step::Violation(INVARIANTS[1]));
                    }
                    _ => return None,
                }
            }
            // Intra-session ordering closure: the former never dispatches a
            // request while an earlier one of the same session is queued.
            if state.earlier_queued(session, seq) {
                return None;
            }
            let s = session as usize;
            // A sequence number at or below the delivered watermark is a
            // retry/hedge duplicate of something already served. The
            // idempotency layer must suppress it (dequeue without serving);
            // serving it again is the double-serve bug.
            if seq <= state.sessions[s].delivered {
                if fault == ModelFault::ServeDuplicate {
                    return Some(Step::Violation(INVARIANTS[6]));
                }
                next.shards[i].queue.remove(0);
                return Some(Step::Next(next));
            }
            // Session order: served strictly in submission order, nothing
            // admitted ever skipped. A gap here means an admitted request
            // was lost (e.g. dropped instead of re-homed).
            if seq != state.sessions[s].delivered + 1 {
                return Some(Step::Violation(INVARIANTS[2]));
            }
            // KV reuse: a cached block is only valid at the generation it
            // was cut; quarantine bumps the shard generation.
            if let Some(gen) = state.sessions[s].kv[i] {
                let fresh = gen == state.shards[i].kv_gen;
                if !fresh && fault == ModelFault::ServeStaleKv {
                    return Some(Step::Violation(INVARIANTS[3]));
                }
                // The faithful tier treats a stale generation as a miss and
                // re-prefills; either way the block is re-cut below.
            }
            next.shards[i].queue.remove(0);
            next.sessions[s].delivered = seq;
            next.sessions[s].kv[i] = Some(state.shards[i].kv_gen);
            if state.sessions[s].stream == Stream::Idle {
                next.sessions[s].stream = Stream::Open { shard, chunks: 0 };
            }
        }
        Action::Quarantine { shard } => {
            let i = shard as usize;
            if state.shards[i].quarantined || state.shards[i].kv_gen >= MAX_GEN {
                return None;
            }
            next.shards[i].quarantined = true;
            next.shards[i].votes = 0;
            // KV invalidation generation bump: every block cut on this
            // shard before the sever is now poisoned.
            next.shards[i].kv_gen += 1;
            // Mid-batch sever: live streams decoding on this shard are cut.
            for session in next.sessions.iter_mut() {
                if matches!(session.stream, Stream::Open { shard: on, .. } if on as usize == i) {
                    session.stream = Stream::Severed;
                }
            }
            // Re-home: queued work moves, in order, to each request's new
            // route (or stays stranded under total quarantine, where
            // dispatch is blocked anyway).
            let queued = std::mem::take(&mut next.shards[i].queue);
            if fault == ModelFault::DropQueueOnQuarantine {
                // The bug: forget the queue instead of re-homing it.
            } else {
                for (session, seq) in queued {
                    match next.route(session) {
                        Some(target) => next.shards[target].queue.push((session, seq)),
                        None => next.shards[i].queue.push((session, seq)),
                    }
                }
            }
        }
        Action::Vote { shard } => {
            let i = shard as usize;
            if !state.shards[i].quarantined || state.shards[i].votes >= QUORUM {
                return None;
            }
            next.shards[i].votes += 1;
        }
        Action::Reinstate { shard } => {
            let i = shard as usize;
            if !state.shards[i].quarantined {
                return None;
            }
            if state.shards[i].votes < QUORUM {
                if fault == ModelFault::ReinstateWithoutQuorum {
                    return Some(Step::Violation(INVARIANTS[5]));
                }
                return None;
            }
            // Even a full quorum must not act while the console cannot see
            // its machines: the votes may be the minority side of a split
            // brain. Relaxation fails closed until the partition heals.
            if state.partitioned {
                if fault == ModelFault::RelaxWhilePartitioned {
                    return Some(Step::Violation(INVARIANTS[7]));
                }
                return None;
            }
            next.shards[i].quarantined = false;
            next.shards[i].votes = 0;
            // Stranded work (total quarantine) re-homes onto the freshly
            // live shard.
            for other in 0..N_SHARDS {
                if other == i || !next.shards[other].quarantined {
                    continue;
                }
                let stranded = std::mem::take(&mut next.shards[other].queue);
                for (session, seq) in stranded {
                    match next.route(session) {
                        Some(target) => next.shards[target].queue.push((session, seq)),
                        None => next.shards[other].queue.push((session, seq)),
                    }
                }
            }
        }
        Action::EmitChunk { session } => {
            let s = session as usize;
            match state.sessions[s].stream {
                Stream::Open { shard, chunks } if chunks < MAX_CHUNKS => {
                    next.sessions[s].stream = Stream::Open {
                        shard,
                        chunks: chunks + 1,
                    };
                }
                Stream::Severed if fault == ModelFault::EmitAfterSever => {
                    // The bug: the decode loop keeps writing into a stream
                    // the sever already cut.
                    return Some(Step::Violation(INVARIANTS[4]));
                }
                _ => return None,
            }
        }
        Action::CloseStream { session } => {
            let s = session as usize;
            match state.sessions[s].stream {
                Stream::Open { .. } => next.sessions[s].stream = Stream::Idle,
                _ => return None,
            }
        }
        Action::RetryEnqueue { session } => {
            let s = session as usize;
            // Only meaningful once something was delivered, and one
            // duplicate in flight at a time bounds the state space.
            let seq = state.sessions[s].delivered;
            if seq == 0 {
                return None;
            }
            let duplicate_queued = state
                .shards
                .iter()
                .flat_map(|shard| shard.queue.iter())
                .any(|&(who, q)| who == session && q <= seq);
            if duplicate_queued {
                return None;
            }
            let shard = state.route(session)?;
            if state.shards[shard].queue.len() >= MAX_QUEUE {
                return None;
            }
            next.shards[shard].queue.push((session, seq));
        }
        Action::Partition => {
            if state.partitioned {
                return None;
            }
            next.partitioned = true;
        }
        Action::Heal => {
            if !state.partitioned {
                return None;
            }
            next.partitioned = false;
        }
        Action::ControlCrash => {
            // Everything in flight at the door is volatile: the acked-but
            // -uncompleted entries (by each session's delivered watermark)
            // are what recovery owes the callers.
            let outstanding: Vec<(u8, u8)> = state
                .wal
                .iter()
                .copied()
                .filter(|&(session, seq)| seq > state.sessions[session as usize].delivered)
                .collect();
            if fault == ModelFault::LoseAckedOnRecovery && !outstanding.is_empty() {
                // The bug: recovery comes back with empty queues while the
                // WAL still owes acked work.
                return Some(Step::Violation(INVARIANTS[8]));
            }
            if fault == ModelFault::ReplayCompletedOnRecovery
                && state
                    .wal
                    .iter()
                    .any(|&(session, seq)| seq <= state.sessions[session as usize].delivered)
            {
                // The bug: replay walks the whole log and re-releases a
                // response some caller already received.
                return Some(Step::Violation(INVARIANTS[9]));
            }
            for shard in next.shards.iter_mut() {
                shard.queue.clear();
            }
            // Faithful replay: re-queue the outstanding suffix in log
            // order through the current routing; under total quarantine
            // the entry stays stranded on its home shard (dispatch is
            // blocked there anyway), exactly like the quarantine re-home.
            for (session, seq) in outstanding {
                match next.route(session) {
                    Some(target) => next.shards[target].queue.push((session, seq)),
                    None => {
                        let home = session as usize % N_SHARDS;
                        next.shards[home].queue.push((session, seq));
                    }
                }
            }
        }
    }
    Some(Step::Next(next))
}

/// Every syntactically possible action (enabledness is `apply`'s business).
fn all_actions() -> Vec<Action> {
    let mut actions = Vec::new();
    for shard in 0..N_SHARDS as u8 {
        actions.push(Action::Dispatch { shard });
        actions.push(Action::Quarantine { shard });
        actions.push(Action::Vote { shard });
        actions.push(Action::Reinstate { shard });
    }
    for session in 0..N_SESSIONS as u8 {
        actions.push(Action::Submit { session });
        actions.push(Action::EmitChunk { session });
        actions.push(Action::CloseStream { session });
        actions.push(Action::RetryEnqueue { session });
    }
    actions.push(Action::Partition);
    actions.push(Action::Heal);
    actions.push(Action::ControlCrash);
    actions
}

/// A successful bounded proof.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Proof {
    /// Distinct states visited.
    pub states_explored: usize,
    /// The depth bound the proof holds up to.
    pub depth: usize,
}

/// A violation witness: the shortest action sequence (BFS order) from the
/// initial state to a state/transition breaking `invariant`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// The violated invariant (one of [`INVARIANTS`]).
    pub invariant: &'static str,
    /// Rendered actions, first to last; the final action is the violating
    /// one.
    pub trace: Vec<String>,
    /// Distinct states visited before the violation surfaced.
    pub states_explored: usize,
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "invariant violated: {}", self.invariant)?;
        writeln!(f, "minimal counterexample ({} steps):", self.trace.len())?;
        for (i, action) in self.trace.iter().enumerate() {
            writeln!(f, "  {:>2}. {action}", i + 1)?;
        }
        write!(f, "({} states explored)", self.states_explored)
    }
}

/// Exhaustively explores the containment machine to `max_depth` under
/// `fault`, checking every invariant at every transition.
///
/// Breadth-first with a visited set: the returned counterexample (if any)
/// is a shortest violating trace. With [`ModelFault::None`] this is the
/// bounded proof CI runs; with any other fault the mutant tests demand a
/// counterexample naming the matching invariant.
pub fn check(fault: ModelFault, max_depth: usize) -> Result<Proof, Counterexample> {
    let actions = all_actions();
    let initial = State::initial();
    let mut visited: HashSet<State> = HashSet::new();
    // Parent links for trace reconstruction: state → (previous state,
    // action taken). The initial state has no parent.
    let mut parents: HashMap<State, (State, Action)> = HashMap::new();
    let mut frontier: VecDeque<(State, usize)> = VecDeque::new();
    visited.insert(initial.clone());
    frontier.push_back((initial, 0));
    while let Some((state, depth)) = frontier.pop_front() {
        if depth >= max_depth {
            continue;
        }
        for &action in &actions {
            match apply(&state, action, fault) {
                None => {}
                Some(Step::Violation(invariant)) => {
                    let mut trace = vec![action.to_string()];
                    let mut cursor = state.clone();
                    while let Some((previous, step)) = parents.get(&cursor) {
                        trace.push(step.to_string());
                        cursor = previous.clone();
                    }
                    trace.reverse();
                    return Err(Counterexample {
                        invariant,
                        trace,
                        states_explored: visited.len(),
                    });
                }
                Some(Step::Next(next)) if visited.insert(next.clone()) => {
                    parents.insert(next.clone(), (state.clone(), action));
                    frontier.push_back((next, depth + 1));
                }
                Some(Step::Next(_)) => {}
            }
        }
    }
    Ok(Proof {
        states_explored: visited.len(),
        depth: max_depth,
    })
}

/// The depth CI proves the invariants to. Deep enough to contain every
/// interesting composite scenario the faults target (quarantine → votes →
/// reinstate → resubmit → redispatch is 8 actions), shallow enough to
/// explore in well under a second.
pub const DEFAULT_DEPTH: usize = 12;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faithful_model_proves_all_invariants() {
        let proof = check(ModelFault::None, DEFAULT_DEPTH).expect("faithful model must hold");
        assert!(proof.states_explored > 1_000, "{proof:?}");
    }

    #[test]
    fn route_fails_closed() {
        let mut state = State::initial();
        assert_eq!(state.route(0), Some(0));
        assert_eq!(state.route(1), Some(1));
        state.shards[1].quarantined = true;
        assert_eq!(state.route(1), Some(0));
        state.shards[0].quarantined = true;
        assert_eq!(state.route(0), None);
    }

    #[test]
    fn counterexamples_are_minimal_prefix_closed() {
        // The stale-KV bug needs the full quarantine/reinstate cycle; its
        // shortest witness is strictly longer than the emit-after-sever
        // one, which BFS should find in about four steps.
        let sever = check(ModelFault::EmitAfterSever, DEFAULT_DEPTH).unwrap_err();
        let stale = check(ModelFault::ServeStaleKv, DEFAULT_DEPTH).unwrap_err();
        assert!(sever.trace.len() < stale.trace.len(), "{sever} vs {stale}");
    }
}
