//! Tier-1 allocation budget for the serve path, needing nothing under
//! `perf/`: a counting global allocator around `FrontDoor::play`, around a
//! clean detector pass and around the span store.
//!
//! Allocator calls and the bytes they request are counts the program makes
//! of itself and they repeat exactly, so unlike a wall-clock bar this gate
//! cannot flake: a change that brings back a `String` per verdict, per
//! chunk or per text copy moves the calls, one that brings back a buffer
//! grown by doubling (every span re-copied as history grows) moves the
//! bytes, and either fails here. The budgets sit about 25 % above the
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
use guillotine_telemetry::{NewSpan, Tracer};
use guillotine_types::{ModelId, SessionId, SimDuration, SimInstant, TicketId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// What one thread has asked of the allocator.
#[derive(Debug, Clone, Copy)]
struct Tally {
    /// Allocator calls: alloc + alloc_zeroed + realloc.
    calls: u64,
    /// Bytes those calls requested (a realloc requests its new size).
    bytes: u64,
    /// The largest single request.
    largest: usize,
}

thread_local! {
    /// This thread's tally. Const-initialised and without a destructor, so
    /// touching it from inside the allocator allocates nothing and
    /// registers nothing.
    static TALLY: Cell<Tally> = const { Cell::new(Tally { calls: 0, bytes: 0, largest: 0 }) };
}

fn count(size: usize) {
    // `try_with`: a thread that is tearing down its locals still allocates.
    let _ = TALLY.try_with(|tally| {
        let so_far = tally.get();
        tally.set(Tally {
            calls: so_far.calls + 1,
            bytes: so_far.bytes + size as u64,
            largest: so_far.largest.max(size),
        });
    });
}

/// `System`, with every call on the current thread counted.
struct CountingAllocator;

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged; the counter never influences what is returned.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// What `f` asks of the allocator on this thread (`largest` is of `f`'s own
/// requests), and what it returned.
fn allocations<T>(f: impl FnOnce() -> T) -> (Tally, T) {
    let before = TALLY.with(Cell::get);
    TALLY.with(|tally| {
        tally.set(Tally {
            largest: 0,
            ..before
        })
    });
    let value = f();
    let after = TALLY.with(Cell::get);
    let during = Tally {
        calls: after.calls - before.calls,
        bytes: after.bytes - before.bytes,
        largest: after.largest,
    };
    (during, value)
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

/// Allocator calls and requested bytes per request of `FrontDoor::play` on
/// a one-shard door with journal and telemetry on, after a warm-up play on
/// the same door.
fn play_allocs_per_request(context_bytes: usize, mean_gap: SimDuration) -> (f64, f64) {
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
    let (tally, played) = allocations(|| door.play(measured));
    let (_, served) = played.unwrap();
    assert_eq!(served.len(), MEASURED);
    assert!(served.iter().all(|response| response.delivered()));
    (
        tally.calls as f64 / MEASURED as f64,
        tally.bytes as f64 / MEASURED as f64,
    )
}

#[test]
fn a_clean_verdict_allocates_nothing_and_a_clean_composite_pass_one_vec() {
    let (tally, verdict) = allocations(|| Verdict::clean("probe"));
    assert!(!verdict.flagged);
    assert_eq!(tally.calls, 0, "Verdict::clean must not allocate");

    let mut composite = CompositeDetector::standard();
    let observation = ModelObservation::Prompt {
        model: ModelId::new(0),
        text: BENIGN[0].into(),
    };
    let (tally, verdict) = allocations(|| composite.inspect(&observation));
    assert!(!verdict.flagged);
    assert_eq!(verdict.contributors.len(), 5);
    assert!(
        tally.calls <= 1,
        "an unflagged composite pass may allocate its contributors Vec and nothing else, \
         made {} allocator calls",
        tally.calls
    );
}

#[test]
fn a_benign_one_shard_trace_stays_under_its_allocation_budget() {
    // Calls: measured 16.3 per request when the budget was set (59.7 at the
    // commit before). Bytes: measured 4 954 per request when the budget was
    // set (8 838 at the commit before).
    const CALLS_BUDGET: f64 = 20.5;
    const BYTES_BUDGET: f64 = 6_200.0;
    let (calls, bytes) = play_allocs_per_request(0, SimDuration::from_micros(2_500));
    assert!(
        calls <= CALLS_BUDGET,
        "{calls:.1} allocator calls per request, budget {CALLS_BUDGET}"
    );
    assert!(
        bytes <= BYTES_BUDGET,
        "{bytes:.0} bytes requested per request, budget {BYTES_BUDGET}"
    );
}

#[test]
fn a_long_context_trace_stays_under_its_allocation_budget() {
    // 1.6 KB prompts echo into 1.6 KB answers of ~48 chunks each: the trace
    // on which a `String` per chunk costs the most calls and a span buffer
    // grown by doubling the most bytes. Calls: measured 35.0 per request
    // when the budget was set (131.6 at the commit before). Bytes: measured
    // 17 858 per request when the budget was set (50 389 at the commit
    // before).
    const CALLS_BUDGET: f64 = 44.0;
    const BYTES_BUDGET: f64 = 22_300.0;
    let (calls, bytes) = play_allocs_per_request(1536, SimDuration::from_micros(16_000));
    assert!(
        calls <= CALLS_BUDGET,
        "{calls:.1} allocator calls per request, budget {CALLS_BUDGET}"
    );
    assert!(
        bytes <= BYTES_BUDGET,
        "{bytes:.0} bytes requested per request, budget {BYTES_BUDGET}"
    );
}

#[test]
fn the_span_store_writes_a_span_once_and_never_re_reserves_history() {
    // No door: 100 000 spans over 10 000 tickets straight into the store.
    // A span is 64 bytes and the store keeps it in segments of 4 096.
    const SPANS: u32 = 100_000;
    const TICKETS: u32 = 10_000;
    const SEGMENT_BYTES: usize = 4096 * 64;
    let mut tracer = Tracer::enabled();
    let (tally, ()) = allocations(|| {
        for i in 0..SPANS {
            let at = SimInstant::from_nanos(u64::from(i));
            let recorded = tracer.record(NewSpan {
                name: "stream.chunk",
                ticket: Some(TicketId::new(i % TICKETS)),
                start: at,
                end: at,
                ..NewSpan::default()
            });
            assert!(recorded.is_some());
        }
    });
    assert_eq!(tracer.len(), SPANS as usize);
    // 64 stored, the rest the unused tail of the last segment and the
    // ticket index's share. Measured 66.0 (314.6 at the commit before,
    // whose last regrowth alone asked for 15.7 MB).
    let per_span = tally.bytes as f64 / f64::from(SPANS);
    assert!(
        per_span <= 80.0,
        "{per_span:.1} bytes requested per span, budget 80"
    );
    assert!(
        tally.largest <= SEGMENT_BYTES,
        "one request of {} bytes: growth must allocate one segment, never re-reserve history",
        tally.largest
    );
    // O(own spans): every ticket's chain is its ten spans.
    assert_eq!(tracer.spans_for(TicketId::new(TICKETS - 1)).len(), 10);
}
