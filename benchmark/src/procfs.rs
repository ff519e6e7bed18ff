//! `/proc` text parsing: a child's resident-set high-water mark and the
//! CPU time of reaped children. Pure functions over the file text, so the
//! parsing is testable without a live process.

/// Kernel clock ticks per second as `/proc/*/stat` reports CPU time
/// (`USER_HZ`, 100 on every Linux ABI; `getconf CLK_TCK`).
pub const TICKS_PER_S: f64 = 100.0;

/// `VmHWM` ("high-water mark" of the resident set) in kB from the text of
/// `/proc/<pid>/status`. `None` when the line is absent — a zombie has no
/// `Vm*` lines — or malformed.
pub fn vm_hwm_kb(status: &str) -> Option<u64> {
    let rest = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim();
    rest.strip_suffix("kB")?.trim().parse().ok()
}

/// `cutime + cstime` in ticks from the text of `/proc/self/stat`: the
/// user + system CPU time of every child this process has waited for.
/// Sampled before a spawn and after the `wait`, the difference is that
/// child's whole CPU time — exact, where polling `/proc/<pid>/stat` of a
/// live child would miss its last slice.
///
/// The command name (field 2) may itself contain spaces and parentheses,
/// so fields are counted from the *last* `)`.
pub fn children_cpu_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // `after_comm` starts at field 3 (state); cutime and cstime are
    // fields 16 and 17.
    let mut fields = after_comm.split_ascii_whitespace().skip(16 - 3);
    let cutime: u64 = fields.next()?.parse().ok()?;
    let cstime: u64 = fields.next()?.parse().ok()?;
    Some(cutime + cstime)
}

/// [`children_cpu_ticks`] of this process, in seconds (0 off Linux).
pub fn children_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| children_cpu_ticks(&s))
        .map_or(0.0, |t| t as f64 / TICKS_PER_S)
}

/// [`vm_hwm_kb`] of a live process (`None` once it is gone or a zombie).
pub fn peak_rss_kb(pid: u32) -> Option<u64> {
    vm_hwm_kb(&std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_parses_the_status_line() {
        let status = "Name:\trepro\nVmPeak:\t  20000 kB\nVmHWM:\t    1664 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(vm_hwm_kb(status), Some(1664));
    }

    #[test]
    fn vm_hwm_absent_for_a_zombie_or_garbage() {
        assert_eq!(vm_hwm_kb("Name:\trepro\nState:\tZ (zombie)\n"), None);
        assert_eq!(vm_hwm_kb("VmHWM:\t lots kB\n"), None);
        assert_eq!(vm_hwm_kb("VmHWM:\t 12 MB\n"), None);
    }

    #[test]
    fn children_cpu_reads_fields_16_and_17() {
        // utime 11 stime 12 cutime 345 cstime 67 (fields 14..=17).
        let stat =
            "9747 (jigbench) S 9702 9747 9702 0 -1 4194304 83 0 0 0 11 12 345 67 20 0 1 0 212702";
        assert_eq!(children_cpu_ticks(stat), Some(412));
    }

    #[test]
    fn children_cpu_survives_a_hostile_command_name() {
        let stat = "1 (a b) c) 9) R 2 3 4 0 -1 0 0 0 0 0 1 2 30 4 20 0 1 0 5";
        assert_eq!(children_cpu_ticks(stat), Some(34));
        assert_eq!(children_cpu_ticks("no parens here"), None);
        assert_eq!(children_cpu_ticks("1 (x) R 2 3"), None);
    }

    #[test]
    fn live_readers_work_on_this_process() {
        assert!(peak_rss_kb(std::process::id()).is_some_and(|kb| kb > 0));
        assert!(children_cpu_s() >= 0.0);
    }
}
