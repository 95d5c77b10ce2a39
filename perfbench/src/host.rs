//! What the benchmark reads about its own process and the host it ran on.
//! Linux only: the figures come from `/proc`.

use std::time::Duration;

/// Kernel clock ticks per second of `/proc/<pid>/stat` (`USER_HZ`, 100 on
/// every Linux architecture the benchmark targets).
const USER_HZ: f64 = 100.0;

/// CPU time (user + system) consumed by every thread of this process so far,
/// including threads that already exited. 10 ms resolution.
pub fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    Duration::from_secs_f64(ticks as f64 / USER_HZ)
}

/// CPU time the hypervisor has taken from this machine's CPUs so far
/// (the `steal` column of `/proc/stat`, summed over CPUs; 10 ms resolution).
/// On a shared host it is the part of a wall-clock interval the program
/// never had.
pub fn steal() -> Duration {
    let stat = std::fs::read_to_string("/proc/stat").expect("read /proc/stat");
    let ticks: u64 = stat
        .lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|steal| steal.parse().ok())
        .expect("steal column in /proc/stat");
    Duration::from_secs_f64(ticks as f64 / USER_HZ)
}

/// Wall time of `f` less the time the hypervisor stole meanwhile; `None`
/// when the steal covered the whole interval.
pub fn unstolen<R>(f: impl FnOnce() -> R) -> (R, Option<Duration>) {
    let stolen = steal();
    let start = std::time::Instant::now();
    let result = f();
    let wall = start.elapsed();
    let busy = wall
        .checked_sub(steal().saturating_sub(stolen))
        .filter(|d| !d.is_zero());
    (result, busy)
}

/// The process's resident-set high-water mark in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|value| value.split_whitespace().next())
        .and_then(|kib| kib.parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// The host a result was measured on.
pub struct HostRecord {
    /// Logical CPUs this process may run on.
    pub cpus: usize,
    /// The CPU model string.
    pub cpu_model: String,
    /// The compiler that built the benchmark.
    pub rustc: &'static str,
}

impl HostRecord {
    /// Reads the record of the current host.
    pub fn current() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find_map(|line| line.strip_prefix("model name"))
                    .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Self {
            cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            rustc: env!("PERFBENCH_RUSTC_VERSION"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_counters_are_readable_and_move() {
        let before = process_cpu();
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed() < Duration::from_millis(60) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(process_cpu() > before);
        assert!(peak_rss_mb() > 0.0);
        let host = HostRecord::current();
        assert!(host.cpus >= 1);
        assert!(host.rustc.starts_with("rustc"));
    }
}
