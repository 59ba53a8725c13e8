//! The host-side meters a timed window reads: wall clock, process CPU time
//! and a counting global allocator.
//!
//! The allocator is always on (relaxed atomics, no branches), so timed and
//! untimed code run on the same allocator and the counts repeat exactly for
//! a deterministic program.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// `System`, with every alloc/realloc counted. The counters are statistics
/// that publish no other data, hence `Relaxed`.
pub struct CountingAllocator;

fn grew(bytes: u64) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged; the counters never influence what is returned.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        grew(layout.size() as u64);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        grew(layout.size() as u64);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        BYTES.fetch_add(new_size as u64, Relaxed);
        let old = layout.size() as u64;
        let new = new_size as u64;
        if new >= old {
            grew(new - old);
        } else {
            LIVE.fetch_sub(old - new, Relaxed);
        }
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Process CPU time (user + system, all threads) in nanoseconds.
#[cfg(target_os = "linux")]
fn process_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux target) for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

#[cfg(not(target_os = "linux"))]
compile_error!("frontdoor-bench reads CLOCK_PROCESS_CPUTIME_ID and is Linux-only");

/// What one timed window cost the host.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Cost {
    /// Wall-clock nanoseconds.
    pub wall_ns: u64,
    /// Process CPU nanoseconds (all threads).
    pub cpu_ns: u64,
    /// Allocator calls (alloc + alloc_zeroed + realloc).
    pub allocs: u64,
    /// Bytes requested from the allocator.
    pub alloc_bytes: u64,
    /// High-water mark of live heap bytes above the window's start level.
    pub peak_live: u64,
}

impl Cost {
    /// Field-wise sum; `peak_live` takes the larger.
    pub fn add(&mut self, other: &Cost) {
        self.wall_ns += other.wall_ns;
        self.cpu_ns += other.cpu_ns;
        self.allocs += other.allocs;
        self.alloc_bytes += other.alloc_bytes;
        self.peak_live = self.peak_live.max(other.peak_live);
    }
}

/// An open timed window. Windows do not nest: opening one resets the peak
/// tracker.
pub struct Window {
    wall: Instant,
    cpu: u64,
    calls: u64,
    bytes: u64,
    live: u64,
}

impl Window {
    /// Opens a window now.
    pub fn open() -> Self {
        let live = LIVE.load(Relaxed);
        PEAK.store(live, Relaxed);
        Window {
            calls: CALLS.load(Relaxed),
            bytes: BYTES.load(Relaxed),
            live,
            cpu: process_cpu_ns(),
            wall: Instant::now(),
        }
    }

    /// Closes the window and returns what it cost.
    pub fn close(self) -> Cost {
        let wall_ns = self.wall.elapsed().as_nanos() as u64;
        Cost {
            wall_ns,
            cpu_ns: process_cpu_ns() - self.cpu,
            allocs: CALLS.load(Relaxed) - self.calls,
            alloc_bytes: BYTES.load(Relaxed) - self.bytes,
            peak_live: PEAK.load(Relaxed).saturating_sub(self.live),
        }
    }
}

/// Runs `f` inside a timed window.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, Cost) {
    let window = Window::open();
    let out = f();
    (out, window.close())
}

/// A cheap timed call for the ladder's spans: wall time and allocator
/// calls only, no CPU clock and no peak tracking, so it can wrap calls that
/// take a microsecond without drowning them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Lap {
    /// Wall-clock nanoseconds.
    pub ns: u64,
    /// Allocator calls.
    pub allocs: u64,
}

impl Lap {
    /// Field-wise sum.
    pub fn add(&mut self, other: Lap) {
        self.ns += other.ns;
        self.allocs += other.allocs;
    }
}

/// Times `f` as a [`Lap`]; also returns when it started and ended.
pub fn lap<T>(f: impl FnOnce() -> T) -> (T, Lap, Instant, Instant) {
    let calls = CALLS.load(Relaxed);
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    let lap = Lap {
        ns: end.duration_since(start).as_nanos() as u64,
        allocs: CALLS.load(Relaxed) - calls,
    };
    (out, lap, start, end)
}
