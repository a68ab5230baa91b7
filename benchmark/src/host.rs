//! The noise guard's view of the host: cores, load, and the CPU time the
//! process got beside the wall time it took.

/// Cores available to the process; the benchmark never runs more threads.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `/proc/loadavg` (1, 5 and 15 minute averages), or `None` off Linux.
pub fn loadavg() -> Option<[f64; 3]> {
    let text = std::fs::read_to_string("/proc/loadavg").ok()?;
    let mut it = text.split_whitespace().map(|f| f.parse::<f64>());
    Some([it.next()?.ok()?, it.next()?.ok()?, it.next()?.ok()?])
}

/// User + system CPU seconds of the whole process (all threads) from
/// `/proc/self/stat`; 0 when the file is missing. The kernel reports these
/// fields in `USER_HZ` ticks, which is 100 on every Linux ABI.
pub fn process_cpu_seconds() -> f64 {
    const USER_HZ: f64 = 100.0;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The second field is the command in parentheses and may itself hold
    // spaces or parentheses: count fields from the last ')'.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let ticks: f64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks / USER_HZ
}

/// What the guard recorded around a run.
#[derive(Debug, Clone, Copy)]
pub struct HostNote {
    /// Cores.
    pub nproc: usize,
    /// Load averages when the run began.
    pub loadavg_start: Option<[f64; 3]>,
    /// Load averages when it ended.
    pub loadavg_end: Option<[f64; 3]>,
}

/// Floor on CPU ÷ wall of a timed rep, per active thread, below which the
/// host evidently ran something else on the benchmark's cores.
pub const MIN_CPU_SHARE: f64 = 0.9;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let c0 = process_cpu_seconds();
        let t0 = std::time::Instant::now();
        let mut x = 1u64;
        while t0.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let used = process_cpu_seconds() - c0;
        if loadavg().is_some() {
            assert!(used > 0.02, "cpu seconds {used}");
        }
        assert!(nproc() >= 1);
    }
}
