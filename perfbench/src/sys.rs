//! Process resource usage and small statistics helpers.

use std::os::raw::{c_int, c_long};

#[repr(C)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage` as Linux lays it out: two timevals, then fourteen
/// `long` counters of which only `ru_maxrss` is read here.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: c_long,
    _rest: [c_long; 13],
}

const RUSAGE_SELF: c_int = 0;

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

/// One `getrusage(RUSAGE_SELF)` reading: CPU seconds (user + system,
/// all threads) and peak resident set size.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
}

pub fn usage() -> Usage {
    let mut ru = Rusage {
        ru_utime: Timeval { tv_sec: 0, tv_usec: 0 },
        ru_stime: Timeval { tv_sec: 0, tv_usec: 0 },
        ru_maxrss: 0,
        _rest: [0; 13],
    };
    // SAFETY: `ru` is a live, writable `struct rusage` with the C layout
    // of the Linux ABI, and `RUSAGE_SELF` is a valid `who` argument.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    Usage {
        cpu_s: secs(&ru.ru_utime) + secs(&ru.ru_stime),
        // Linux reports ru_maxrss in KiB.
        peak_rss_mb: ru.ru_maxrss as f64 / 1024.0,
    }
}

/// CPU seconds the process used since `since`.
pub fn cpu_since(since: &Usage) -> f64 {
    usage().cpu_s - since.cpu_s
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0..=100) of an ascending-sorted sample;
/// 0 for an empty one.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}
