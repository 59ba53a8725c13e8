//! Tier-1 allocation budget for the serve path, needing nothing under
//! `perf/`: a counting global allocator around `FrontDoor::play` and around
//! a clean detector pass.
//!
//! Allocator calls are a count the program makes of itself and they repeat
//! exactly, so unlike a wall-clock bar this gate cannot flake: a change
//! that brings back a `String` per verdict, per chunk or per text copy
//! moves the number and fails here. The budgets sit about 25 % above the
//! values measured when they were set (stated at each), so ordinary churn
//! elsewhere on the path has room and a per-request regression of a few
//! allocations does not.
//!
//! The counter is per thread, and a one-shard fleet never leaves the
//! calling thread (the sweep pool starts helpers only when two sweeps are
//! in flight), so the tests do not see each other under `cargo test`'s
//! parallel harness; CI still runs them with `--test-threads=1`.

use guillotine::admission::{AdmissionConfig, FrontDoor, JournalConfig, TimedArrival};
use guillotine::fleet::GuillotineFleet;
use guillotine::serve::{ServePriority, ServeRequest};
use guillotine::{
    ArrivalGen, ArrivalProcess, DeadlinePolicy, KvCacheConfig, ShedPolicy, TelemetryConfig,
};
use guillotine_detect::{CompositeDetector, Detector, ModelObservation, Verdict};
use guillotine_types::{ModelId, SessionId, SimDuration};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocator calls (alloc + alloc_zeroed + realloc) made by this thread.
    /// Const-initialised and without a destructor, so touching it from
    /// inside the allocator allocates nothing and registers nothing.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread that is tearing down its locals still allocates.
    let _ = CALLS.try_with(|calls| calls.set(calls.get() + 1));
}

/// `System`, with every call on the current thread counted.
struct CountingAllocator;

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged; the counter never influences what is returned.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocator calls `f` makes on this thread, and what it returned.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = CALLS.with(Cell::get);
    let value = f();
    (CALLS.with(Cell::get) - before, value)
}

const BENIGN: [&str; 6] = [
    "Summarize the quarterly sales figures for the EMEA region.",
    "Translate 'good morning' into French and Spanish.",
    "What is the capital of Australia, and when was it founded?",
    "Draft a polite reminder email about tomorrow's team meeting.",
    "Explain how a binary search works in two sentences.",
    "List three tips for keeping houseplants healthy in winter.",
];

const WARM_UP: usize = 64;
const MEASURED: usize = 512;

/// A benign open-loop trace over 16 sessions, each prompt prefixed with
/// `context_bytes` of per-session filler (tripping no rule and no marker).
fn benign_trace(context_bytes: usize, mean_gap: SimDuration) -> Vec<TimedArrival> {
    let arrivals = ArrivalGen::trace(
        ArrivalProcess::Poisson { mean_gap },
        0x000A_110C,
        WARM_UP + MEASURED,
    );
    arrivals
        .into_iter()
        .enumerate()
        .map(|(index, at)| {
            let session = (index % 16) as u32;
            let mut prompt = String::new();
            if context_bytes > 0 {
                prompt.push_str(&format!("Context for conversation {session}:"));
                while prompt.len() < context_bytes {
                    prompt.push_str(" weekly planning notes");
                }
                prompt.truncate(context_bytes);
                prompt.push(' ');
            }
            prompt.push_str(&format!("{} #{index}", BENIGN[index % BENIGN.len()]));
            TimedArrival {
                at,
                request: ServeRequest::new(prompt)
                    .with_session(SessionId::new(session))
                    .with_priority(ServePriority::Normal),
                deadline: None,
            }
        })
        .collect()
}

/// Allocator calls per request of `FrontDoor::play` on a one-shard door
/// with journal and telemetry on, after a warm-up play on the same door.
fn play_allocs_per_request(context_bytes: usize, mean_gap: SimDuration) -> f64 {
    let fleet = GuillotineFleet::builder()
        .with_shards(1)
        .with_kv_cache(KvCacheConfig::default())
        .build()
        .unwrap();
    let mut door = FrontDoor::new(
        fleet,
        AdmissionConfig {
            capacity: 512,
            shed: ShedPolicy::FailClosed,
            default_deadline: Some(SimDuration::from_secs(5)),
        },
        Box::new(DeadlinePolicy::default()),
    );
    door.enable_journal(JournalConfig::default());
    door.enable_telemetry(TelemetryConfig::full());
    let mut measured = benign_trace(context_bytes, mean_gap);
    let warm_up: Vec<TimedArrival> = measured.drain(..WARM_UP).collect();
    let (_, served) = door.play(warm_up).unwrap();
    assert_eq!(served.len(), WARM_UP);
    let (calls, played) = allocations(|| door.play(measured));
    let (_, served) = played.unwrap();
    assert_eq!(served.len(), MEASURED);
    assert!(served.iter().all(|response| response.delivered()));
    calls as f64 / MEASURED as f64
}

#[test]
fn a_clean_verdict_allocates_nothing_and_a_clean_composite_pass_one_vec() {
    let (calls, verdict) = allocations(|| Verdict::clean("probe"));
    assert!(!verdict.flagged);
    assert_eq!(calls, 0, "Verdict::clean must not allocate");

    let mut composite = CompositeDetector::standard();
    let observation = ModelObservation::Prompt {
        model: ModelId::new(0),
        text: BENIGN[0].into(),
    };
    let (calls, verdict) = allocations(|| composite.inspect(&observation));
    assert!(!verdict.flagged);
    assert_eq!(verdict.contributors.len(), 5);
    assert!(
        calls <= 1,
        "an unflagged composite pass may allocate its contributors Vec and nothing else, \
         made {calls} allocator calls"
    );
}

#[test]
fn a_benign_one_shard_trace_stays_under_its_allocation_budget() {
    // Measured 16.3 allocator calls per request when the budget was set
    // (59.7 at the commit before).
    const BUDGET: f64 = 20.5;
    let per_request = play_allocs_per_request(0, SimDuration::from_micros(2_500));
    assert!(
        per_request <= BUDGET,
        "{per_request:.1} allocator calls per request, budget {BUDGET}"
    );
}

#[test]
fn a_long_context_trace_stays_under_its_allocation_budget() {
    // 1.6 KB prompts echo into 1.6 KB answers of ~48 chunks each: the trace
    // on which a `String` per chunk costs the most. Measured 35.0 allocator
    // calls per request when the budget was set (131.6 at the commit
    // before).
    const BUDGET: f64 = 44.0;
    let per_request = play_allocs_per_request(1536, SimDuration::from_micros(16_000));
    assert!(
        per_request <= BUDGET,
        "{per_request:.1} allocator calls per request, budget {BUDGET}"
    );
}
