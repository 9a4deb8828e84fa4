//! Host and process measurements: CPU count, a fixed CPU probe, steal
//! share, and `/proc` readers for the server child and this process.

use std::time::Instant;

/// Logical CPUs available to this process.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Milliseconds a fixed integer loop takes: a probe of host speed, taken
/// at the start and end of every run.
pub fn cpu_probe_ms() -> f64 {
    let t = Instant::now();
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    for i in 0..20_000_000u64 {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        x ^= x >> 29;
    }
    std::hint::black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

/// Milliseconds a fixed allocation-heavy loop takes (a million small
/// boxes built, summed and freed, in rounds): the interpreter's kind of
/// work, which slows with memory contention that [`cpu_probe_ms`] does not
/// see.
pub fn memory_probe_ms() -> f64 {
    let t = Instant::now();
    let mut sum = 0u64;
    for round in 0..4u64 {
        let boxes: Vec<Box<u64>> = (0..250_000u64).map(|i| Box::new(i ^ round)).collect();
        sum = sum.wrapping_add(boxes.iter().map(|b| **b).sum::<u64>());
    }
    std::hint::black_box(sum);
    t.elapsed().as_secs_f64() * 1e3
}

/// Cumulative (steal, total) jiffies from the first line of `/proc/stat`.
pub fn steal_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Steal share between two [`steal_jiffies`] samples.
pub fn steal_share(a: (u64, u64), b: (u64, u64)) -> f64 {
    let total = b.1.saturating_sub(a.1);
    if total == 0 {
        0.0
    } else {
        b.0.saturating_sub(a.0) as f64 / total as f64
    }
}

/// `USER_HZ`: the unit of the `/proc/<pid>/stat` CPU fields, fixed at
/// 100 by the Linux user-space ABI.
const USER_HZ: u64 = 100;

/// utime + stime of process `pid`, in nanoseconds.
pub fn proc_cpu_ns(pid: u32) -> u64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // Fields after the parenthesized command name start at field 3.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<u64> = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|x| x.parse().ok())
        .collect();
    f.iter().sum::<u64>() * (1_000_000_000 / USER_HZ)
}

/// `VmHWM` (peak resident set) of process `pid`, in MB.
pub fn peak_rss_mb(pid: u32) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on), and both
    // CPU-time clocks passed here are always supported on Linux.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time of this whole process (all threads), in nanoseconds.
pub fn self_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}
