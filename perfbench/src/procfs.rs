//! Process-wide resource readings: peak RSS for every run, and — in the
//! traced run only — context switches and the counting allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// CPU time consumed so far by the calling thread. Unlike wall time it
/// does not grow while the thread waits for a core, so other load on the
/// host moves it far less.
pub fn thread_cpu_time() -> std::time::Duration {
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut [i64; 2]) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = [0i64; 2];
    // SAFETY: `ts` is a writable `struct timespec` (two 64-bit fields on
    // this target); clock_gettime only writes into it.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_THREAD_CPUTIME_ID is always available on Linux");
    std::time::Duration::new(ts[0] as u64, ts[1] as u32)
}

/// A snapshot of the process-wide counters the traced run differences.
///
/// Syscall and byte counts are not among them: `/proc/self/io` counts
/// `read`/`write` but not the `send`/`recv` calls the standard library
/// uses on sockets, so it reads zero for all link traffic.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Voluntary plus involuntary context switches of every thread
    /// (`getrusage(RUSAGE_SELF)`).
    pub ctxsw: u64,
    /// Allocations made (counting allocator; 0 when it is not installed).
    pub allocs: u64,
    /// Bytes allocated minus bytes freed (counting allocator).
    pub live_bytes: i64,
}

impl Counters {
    /// Reads every counter now.
    pub fn now() -> Counters {
        Counters {
            ctxsw: context_switches(),
            // ordering: Relaxed — statistics counters, no data published.
            allocs: ALLOCS.load(Ordering::Relaxed),
            live_bytes: LIVE_BYTES.load(Ordering::Relaxed) as i64,
        }
    }

    /// Counter growth from `earlier` to `self`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            ctxsw: self.ctxsw.saturating_sub(earlier.ctxsw),
            allocs: self.allocs.saturating_sub(earlier.allocs),
            live_bytes: self.live_bytes - earlier.live_bytes,
        }
    }

    /// Sum of two counter deltas.
    pub fn plus(&self, other: &Counters) -> Counters {
        Counters {
            ctxsw: self.ctxsw + other.ctxsw,
            allocs: self.allocs + other.allocs,
            live_bytes: self.live_bytes + other.live_bytes,
        }
    }
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen longs.
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    longs: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

fn context_switches() -> u64 {
    const RUSAGE_SELF: i32 = 0;
    let mut u = RUsage { utime: [0; 2], stime: [0; 2], longs: [0; 14] };
    // SAFETY: `u` is a properly sized, writable `struct rusage` for this
    // target; getrusage only writes into it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
    if rc != 0 {
        return 0;
    }
    // ru_nvcsw and ru_nivcsw are the last two longs.
    (u.longs[12] + u.longs[13]) as u64
}

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

/// A global allocator that counts allocations and live bytes. Only the
/// traced binary installs it; the untraced binary runs on the plain system
/// allocator.
pub struct CountingAlloc;

// SAFETY: every method forwards to the system allocator unchanged; the
// counters are side effects only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // ordering: Relaxed — statistics counters, no data published.
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: forwarded with the caller's layout.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `alloc`/`realloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
