//! Host-side readings: the wall clock and the process's peak memory.
//!
//! These are the benchmark's only nondeterministic reads. They time the
//! simulator from the outside; nothing read here is ever passed into it,
//! so every simulated output stays a pure function of the seed.

use std::time::Instant;

/// Monotonic host clock counting nanoseconds from its creation.
#[derive(Debug, Clone, Copy)]
pub struct HostClock {
    origin: Instant,
}

impl HostClock {
    /// A clock whose zero is now.
    pub fn start() -> HostClock {
        HostClock {
            // catalint: allow(determinism) — benchmark-owned host clock; it times the simulator and never feeds it.
            origin: Instant::now(),
        }
    }

    /// Host nanoseconds since the clock started.
    pub fn now_ns(&self) -> u64 {
        // catalint: allow(determinism) — benchmark-owned host clock; it times the simulator and never feeds it.
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Nanoseconds as seconds.
pub fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Peak resident set size of this process (`VmHWM`) in MiB, or `None`
/// where `/proc` does not provide it.
pub fn peak_rss_mib() -> Option<f64> {
    // catalint: allow(determinism) — benchmark-owned /proc read of this process's own peak memory; never fed to the simulator.
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}
