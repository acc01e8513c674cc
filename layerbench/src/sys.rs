//! Host probes: process CPU time, peak memory, steal time and the
//! machine fingerprint every result carries.

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed so far by every thread of this process, exited
/// threads included.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on x86-64 and aarch64 Linux) that outlives the call, and
    // the clock id is a constant the kernel always accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") as f64 / 1024.0
}

fn status_kb(key: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Aggregate CPU tick counters from `/proc/stat`: `(busy, steal)`,
/// where busy counts every non-idle state including steal.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostTicks {
    busy: u64,
    steal: u64,
}

impl HostTicks {
    /// Reads the current counters (zeros where `/proc/stat` is missing).
    pub fn now() -> Self {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
            return Self::default();
        };
        let f: Vec<u64> = line.split_whitespace().skip(1).filter_map(|v| v.parse().ok()).collect();
        // user nice system idle iowait irq softirq steal ...
        let get = |i: usize| f.get(i).copied().unwrap_or(0);
        Self { busy: get(0) + get(1) + get(2) + get(5) + get(6) + get(7), steal: get(7) }
    }

    /// Steal time as a share of busy vCPU time since `start`.
    pub fn steal_frac_since(&self, start: &HostTicks) -> f64 {
        let busy = self.busy.saturating_sub(start.busy);
        if busy == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(start.steal) as f64 / busy as f64
    }
}

/// Available parallelism (the `nproc` the pools are pinned to).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU model string from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name").map(|v| v.trim_start_matches([' ', '\t', ':'])))
        .unwrap_or("unknown")
        .to_owned()
}
