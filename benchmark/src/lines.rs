//! The machine lines of a `repro` run and how far two runs' lines drift.
//!
//! `repro analyze`/`tail` end with stable `record <figure>.<key> <value>`
//! lines and `repro diagnose` with `diagnosis|detector|incident …` lines;
//! everything else on stdout (banners, rendered figures, timings) is for
//! people and changes freely. Correctness of a benchmark operation is
//! judged on the machine lines alone.

use std::collections::BTreeMap;

/// Which machine lines a subcommand prints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineKind {
    /// `record …` (analyze, tail).
    Record,
    /// `diagnosis …`, `detector …`, `incident …` (diagnose).
    Diagnosis,
}

impl LineKind {
    fn admits(self, line: &str) -> bool {
        let prefixes: &[&str] = match self {
            LineKind::Record => &["record "],
            LineKind::Diagnosis => &["diagnosis ", "detector ", "incident "],
        };
        prefixes.iter().any(|p| line.starts_with(p))
    }
}

/// The machine lines of one run's stdout, in order.
pub fn machine_lines(stdout: &str, kind: LineKind) -> Vec<String> {
    stdout
        .lines()
        .filter(|l| kind.admits(l))
        .map(str::to_string)
        .collect()
}

/// How many machine lines differ between a reference run and another:
/// lines are matched as a multiset, and the drift is the larger of the
/// unmatched counts on either side — so one changed value counts once
/// (one reference line lost, one new line gained), as does one dropped
/// or one extra line. 0 iff the runs printed the same lines.
pub fn drift(reference: &[String], got: &[String]) -> usize {
    let mut balance: BTreeMap<&str, i64> = BTreeMap::new();
    for l in reference {
        *balance.entry(l).or_default() += 1;
    }
    for l in got {
        *balance.entry(l).or_default() -= 1;
    }
    let missing: i64 = balance.values().filter(|&&n| n > 0).sum();
    let extra: i64 = -balance.values().filter(|&&n| n < 0).sum::<i64>();
    missing.max(extra) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    const ANALYZE: &str = "\
== ANALYZE — stream the figure suite off a recorded corpus
analyzed 10 events -> 4 jframes in 1.2ms (serial)
recorded nothing, this line only looks like a record
record table1.jframes 4
 record indented.is.not 1
record fig4.p99_us 12.5000
";

    const DIAGNOSE: &str = "\
diagnose tiny: span 1 9 detectors 5 triggered 1 (4.8s)
  retry-storm in [1, 5): severity 0.50 reliability 0.90
diagnosis span 1 9 detectors 5 windows_analyzed 4 incidents 1
detector retry-storm triggered 1 incidents 1
incident 0 detector retry-storm window 1 5 severity 0.5000 reliability 0.9000
incident 0 evidence fig9.loss 0.0300
";

    fn owned(lines: &[&str]) -> Vec<String> {
        lines.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn record_lines_are_extracted_by_exact_prefix() {
        assert_eq!(
            machine_lines(ANALYZE, LineKind::Record),
            owned(&["record table1.jframes 4", "record fig4.p99_us 12.5000"])
        );
        assert!(machine_lines(DIAGNOSE, LineKind::Record).is_empty());
    }

    #[test]
    fn diagnosis_lines_skip_the_human_summary() {
        let lines = machine_lines(DIAGNOSE, LineKind::Diagnosis);
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("diagnosis span"));
        assert!(lines.iter().all(|l| !l.starts_with("diagnose ")));
    }

    #[test]
    fn drift_counts_changed_dropped_and_extra_lines_once_each() {
        let reference = owned(&["record a 1", "record b 2", "record c 3"]);
        assert_eq!(drift(&reference, &reference), 0);
        // One value changed.
        assert_eq!(
            drift(
                &reference,
                &owned(&["record a 1", "record b 9", "record c 3"])
            ),
            1
        );
        // One line dropped, one extra line.
        assert_eq!(drift(&reference, &owned(&["record a 1", "record c 3"])), 1);
        assert_eq!(drift(&reference[..2], &reference), 1);
        // Order alone is not drift; multiplicity is.
        assert_eq!(
            drift(
                &reference,
                &owned(&["record c 3", "record a 1", "record b 2"])
            ),
            0
        );
        assert_eq!(drift(&owned(&["x", "x"]), &owned(&["x"])), 1);
        assert_eq!(drift(&[], &reference), 3);
    }
}
