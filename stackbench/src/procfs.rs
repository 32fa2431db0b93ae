//! Process CPU time and peak resident memory, read from `/proc/self`.

/// Clock ticks per second of the `utime`/`stime` fields of `/proc/<pid>/stat`
/// (`USER_HZ`, fixed at 100 by the Linux user-space ABI).
pub const USER_HZ: u64 = 100;

/// User plus system CPU time, in clock ticks, from the text of a
/// `/proc/<pid>/stat` file (all threads of the process).
///
/// The command name (field 2) is parenthesised and may itself hold spaces or
/// parentheses, so fields are counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    // Field 3 (state) is the first after the command name; utime and stime
    // are fields 14 and 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// The `VmHWM` (peak resident set) line of a `/proc/<pid>/status` file, in
/// KiB.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let value: u64 = parts.next()?.parse().ok()?;
    (parts.next()? == "kB").then_some(value)
}

/// This process's CPU time so far, in milliseconds.
///
/// # Panics
///
/// Panics when `/proc/self/stat` is unreadable or malformed: the benchmark's
/// CPU metrics cannot be measured without it.
pub fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    let ticks = parse_stat_cpu_ticks(&stat).expect("parse /proc/self/stat");
    ticks as f64 * 1000.0 / USER_HZ as f64
}

/// This process's peak resident set size so far, in MiB.
///
/// # Panics
///
/// Panics when `/proc/self/status` is unreadable or has no `VmHWM` line.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_hwm_kib(&status).expect("VmHWM in /proc/self/status") as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_ticks_sum_utime_and_stime() {
        let stat = "4242 (stack bench) R 1 4242 4242 0 -1 4194304 1234 0 0 0 \
                    517 83 0 0 20 0 3 0 99 123456 789 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(600));
    }

    #[test]
    fn stat_command_names_may_hold_parentheses() {
        let stat = "7 (a) b (c)) S 1 7 7 0 -1 0 0 0 0 0 12 3 0 0 20 0 1 0 5 1 1";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(15));
    }

    #[test]
    fn truncated_stat_is_rejected() {
        assert_eq!(parse_stat_cpu_ticks("1 (x) R 1 2 3"), None);
        assert_eq!(parse_stat_cpu_ticks("no parenthesis"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status =
            "Name:\tstackbench\nVmPeak:\t  200000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 40000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(51200));
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t 12 MB\n"), None);
    }

    #[test]
    fn live_readings_are_positive() {
        assert!(peak_rss_mb() > 0.0);
        let spin: u64 = (0..2_000_000u64).fold(0, |acc, x| acc.wrapping_add(x * x));
        std::hint::black_box(spin);
        assert!(cpu_ms() >= 0.0);
    }
}
