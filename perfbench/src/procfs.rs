//! Process and host counters read from Linux `/proc`.
//!
//! CPU and steal times are in `USER_HZ` ticks, which the kernel fixes at
//! 100 per second for every `/proc` reader.

const TICKS_PER_S: f64 = 100.0;

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// User + system CPU seconds this process has used, all threads included.
pub fn process_cpu_s() -> f64 {
    let stat = read("/proc/self/stat");
    // the command name (field 2) may hold spaces; fields resume after ')'
    let rest = &stat[stat.rfind(')').expect("malformed /proc/self/stat") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15, i.e. 11 and 12 after ')'
    let ticks = |i: usize| -> f64 { fields[i].parse().expect("non-numeric CPU time") };
    (ticks(11) + ticks(12)) / TICKS_PER_S
}

/// Host-wide steal seconds summed over all CPUs: time a virtual CPU was
/// ready to run but the hypervisor ran someone else.
pub fn host_steal_s() -> f64 {
    let stat = read("/proc/stat");
    let cpu = stat
        .lines()
        .find(|l| l.starts_with("cpu "))
        .expect("/proc/stat has no cpu line");
    // cpu user nice system idle iowait irq softirq steal ...
    cpu.split_whitespace()
        .nth(8)
        .and_then(|s| s.parse::<f64>().ok())
        .map_or(0.0, |t| t / TICKS_PER_S)
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = read("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status has no VmHWM");
    kb / 1024.0
}

/// Reset this process's `VmHWM` to its current resident set, so the next
/// [`peak_rss_mb`] covers only what runs from here on.
pub fn reset_peak_rss() {
    let path = "/proc/self/clear_refs";
    std::fs::write(path, "5").unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_readable_and_sane() {
        let before = process_cpu_s();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(process_cpu_s() >= before);
        let big = std::hint::black_box(vec![1u8; 64 << 20]);
        let peak = peak_rss_mb();
        assert!(peak >= 64.0);
        drop(big);
        reset_peak_rss();
        assert!(peak_rss_mb() < peak - 32.0);
        assert!(host_steal_s() >= 0.0);
    }
}
