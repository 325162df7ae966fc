//! Host-side readings: CPU count, CPU time, memory high-water mark and
//! context switches of this process. `/proc` is parsed by hand — the
//! benchmark takes no dependency beyond the repository's own crates.

use std::fs;

/// Clock ticks per second behind `/proc/self/stat` (`USER_HZ`, fixed at
/// 100 on every Linux ABI this repository builds for).
const USER_HZ: f64 = 100.0;

/// Cores available to this process.
pub fn cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// `utime + stime` in seconds out of a `/proc/<pid>/stat` line. The
/// command name (field 2) may itself hold spaces and parentheses, so the
/// fields are counted from the last `)`.
pub fn parse_stat_cpu_s(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// A `Key:   <n> kB`-style integer out of `/proc/<pid>/status`.
pub fn parse_status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
}

/// User + system CPU seconds this process (all threads, including ones
/// that already exited) has consumed. 0 where `/proc` is unavailable.
pub fn cpu_s() -> f64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_s(&s))
        .unwrap_or(0.0)
}

/// Resident-set high-water mark of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_field(&s, "VmHWM"))
        .map(|kb| kb as f64 / 1024.0)
        .unwrap_or(0.0)
}

/// Voluntary context switches of the whole process. `/proc/self/status`
/// reports the calling thread only, and the sharded executor's workers are
/// scoped threads that are gone (with their counters) once a run returns,
/// so the only place the process-wide sum survives is `getrusage`.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn voluntary_ctx_switches() -> u64 {
    // `struct rusage` on 64-bit Linux: two `timeval`s (4 longs) followed
    // by 14 longs; `ru_nvcsw` is the 17th long.
    const RU_NVCSW: usize = 16;
    extern "C" {
        fn getrusage(who: i32, usage: *mut [i64; 18]) -> i32;
    }
    let mut usage = [0i64; 18];
    // SAFETY: `usage` is a live, writable buffer of exactly
    // `sizeof(struct rusage)` = 144 bytes with 8-byte alignment, which is
    // all `getrusage(RUSAGE_SELF = 0, ..)` requires; it writes nothing else.
    let rc = unsafe { getrusage(0, &mut usage) };
    if rc == 0 {
        usage[RU_NVCSW] as u64
    } else {
        0
    }
}

/// Not measurable on this platform.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn voluntary_ctx_switches() -> u64 {
    0
}
