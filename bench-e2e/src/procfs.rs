//! Process accounting from `/proc/self`: CPU time, peak RSS, context
//! switches, thread count. Parsers take the file text so they can be tested
//! on fixed samples; a field that fails to parse reads as `None`, never 0.

/// Kernel clock ticks per second for `utime`/`stime` in `/proc/*/stat`.
/// `USER_HZ` is 100 on every Linux ABI; it is not readable without libc.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds of the whole process, from `/proc/self/stat`.
/// The command name (field 2) may contain spaces and parentheses, so fields
/// are counted from the *last* `)`.
pub fn parse_stat_cpu_s(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // After the command: state is field 3, utime 14, stime 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// A `Key:   <n> [kB]` line of `/proc/self/status`.
pub fn parse_status_field(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_ascii_whitespace().next()?.parse().ok()
    })
}

#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    pub cpu_s: f64,
    /// Peak resident set (`VmHWM`), MiB. Monotone over the process's life.
    pub peak_rss_mib: f64,
    pub ctx_switches: u64,
    pub threads: u64,
}

/// Voluntary + involuntary context switches summed over every thread
/// (`/proc/self/status` alone reports only the main thread's).
fn ctx_switches_all_threads() -> u64 {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    dir.flatten()
        .filter_map(|e| std::fs::read_to_string(e.path().join("status")).ok())
        .map(|s| {
            parse_status_field(&s, "voluntary_ctxt_switches").unwrap_or(0)
                + parse_status_field(&s, "nonvoluntary_ctxt_switches").unwrap_or(0)
        })
        .sum()
}

pub fn sample() -> ProcSample {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    ProcSample {
        cpu_s: parse_stat_cpu_s(&stat).unwrap_or(f64::NAN),
        peak_rss_mib: parse_status_field(&status, "VmHWM")
            .map_or(f64::NAN, |kb| kb as f64 / 1024.0),
        ctx_switches: ctx_switches_all_threads(),
        threads: parse_status_field(&status, "Threads").unwrap_or(0),
    }
}

/// Live threads of this process right now.
pub fn threads() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    parse_status_field(&status, "Threads").unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (e2e (x) y) S 1 4242 4242 0 -1 4194304 1234 0 0 0 \
        1500 250 0 0 20 0 9 0 123456 1000000 2000 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";

    #[test]
    fn stat_cpu_skips_hostile_command_names() {
        assert_eq!(parse_stat_cpu_s(STAT), Some(17.5));
        assert_eq!(parse_stat_cpu_s("1 (a) S 1 2"), None);
        assert_eq!(parse_stat_cpu_s("garbage"), None);
    }

    #[test]
    fn status_fields_parse_with_units_and_reject_prefix_matches() {
        let status = "Name:\te2e\nVmHWM:\t  204800 kB\nVmHWMx:\t7 kB\nThreads:\t11\n\
                      voluntary_ctxt_switches:\t42\nnonvoluntary_ctxt_switches:\t8\n";
        assert_eq!(parse_status_field(status, "VmHWM"), Some(204800));
        assert_eq!(parse_status_field(status, "Threads"), Some(11));
        assert_eq!(
            parse_status_field(status, "voluntary_ctxt_switches"),
            Some(42)
        );
        assert_eq!(
            parse_status_field(status, "nonvoluntary_ctxt_switches"),
            Some(8)
        );
        assert_eq!(parse_status_field(status, "VmRSS"), None);
        assert_eq!(parse_status_field(status, "Name"), None);
    }

    #[test]
    fn live_sample_is_sane() {
        let s = sample();
        assert!(s.cpu_s >= 0.0 && s.peak_rss_mib > 0.0 && s.threads >= 1);
    }
}
