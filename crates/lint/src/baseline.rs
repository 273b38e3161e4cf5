//! Baseline mode: snapshot today's findings, fail only on *new* ones.
//!
//! Large triage efforts land incrementally — a freshly tightened rule can
//! surface dozens of pre-existing sites that are real debt but not *this*
//! PR's debt. `tetrilint --write-baseline lint.baseline` snapshots the
//! current findings as sorted `file\trule\tcount` lines; a later
//! `tetrilint --baseline lint.baseline` run subtracts the snapshot and
//! fails only when a (file, rule) pair exceeds its recorded count.
//!
//! The key is `(file, rule)` with a count, not `(file, line)`: unrelated
//! edits shift line numbers constantly, and a baseline that rots on every
//! rebase gets deleted instead of burned down. Counts still ratchet — fix
//! one of three baselined `unwrap`s and the next regression at that
//! (file, rule) is caught. Within a group, the *highest-line* violations
//! are reported as the new ones (later additions sit below older code
//! more often than not; the choice only affects which site is shown, not
//! whether the excess fails).

use std::collections::BTreeMap;

use crate::report::LintReport;
use crate::rules::Violation;

/// Render the report's findings as a baseline snapshot: sorted
/// `file\trule\tcount` lines, one per (file, rule) pair, trailing
/// newline. Byte-stable for a given report.
pub fn snapshot(report: &LintReport) -> String {
    let mut counts: BTreeMap<(&str, &str), usize> = BTreeMap::new();
    for v in &report.violations {
        *counts.entry((v.file.as_str(), v.rule)).or_insert(0) += 1;
    }
    let mut s = String::new();
    for ((file, rule), n) in counts {
        s.push_str(&format!("{}\t{}\t{}\n", file, rule, n));
    }
    s
}

/// Parse a baseline file back into `(file, rule) → count`. Blank lines
/// and `#` comments are skipped; a malformed line is an error naming it.
pub fn parse(text: &str) -> Result<BTreeMap<(String, String), usize>, String> {
    let mut out = BTreeMap::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split('\t');
        let (Some(file), Some(rule), Some(count)) = (parts.next(), parts.next(), parts.next())
        else {
            return Err(format!(
                "baseline line {}: expected `file\\trule\\tcount`, got `{}`",
                i + 1,
                raw
            ));
        };
        let n: usize = count
            .parse()
            .map_err(|_| format!("baseline line {}: bad count `{}`", i + 1, count))?;
        out.insert((file.to_string(), rule.to_string()), n);
    }
    Ok(out)
}

/// Subtract the baseline: keep only violations in excess of each
/// (file, rule) group's recorded count. Within a group the lowest-line
/// `allowance` violations are forgiven and the rest (highest lines)
/// returned, preserving the report's canonical order.
pub fn diff(report: &LintReport, baseline: &BTreeMap<(String, String), usize>) -> Vec<Violation> {
    // Count per group first so we forgive from the front of each group.
    let mut remaining: BTreeMap<(&str, &str), usize> = BTreeMap::new();
    for v in &report.violations {
        remaining
            .entry((v.file.as_str(), v.rule))
            .or_insert_with(|| {
                baseline
                    .get(&(v.file.clone(), v.rule.to_string()))
                    .copied()
                    .unwrap_or(0)
            });
    }
    let mut out = Vec::new();
    for v in &report.violations {
        let slot = remaining
            .get_mut(&(v.file.as_str(), v.rule))
            .expect("seeded above");
        if *slot > 0 {
            *slot -= 1;
        } else {
            out.push(v.clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Violation;

    fn viol(file: &str, line: u32, rule: &'static str) -> Violation {
        Violation {
            file: file.to_string(),
            line,
            rule,
            message: String::new(),
            chain: Vec::new(),
        }
    }

    fn report(violations: Vec<Violation>) -> LintReport {
        let mut r = LintReport {
            files_scanned: 1,
            violations,
            allows: Vec::new(),
        };
        r.finish();
        r
    }

    #[test]
    fn snapshot_groups_and_sorts() {
        let r = report(vec![
            viol("b.rs", 9, "unwrap"),
            viol("a.rs", 3, "unwrap"),
            viol("a.rs", 1, "unwrap"),
            viol("a.rs", 2, "wall-clock"),
        ]);
        assert_eq!(
            snapshot(&r),
            "a.rs\tunwrap\t2\na.rs\twall-clock\t1\nb.rs\tunwrap\t1\n"
        );
    }

    #[test]
    fn parse_round_trips_and_skips_comments() {
        let text = "# written by tetrilint --write-baseline\n\na.rs\tunwrap\t2\n";
        let map = parse(text).unwrap();
        assert_eq!(map.len(), 1);
        assert_eq!(map[&("a.rs".to_string(), "unwrap".to_string())], 2);
        assert!(parse("a.rs only-two-fields\n").is_err());
        assert!(parse("a.rs\tunwrap\tmany\n").is_err());
    }

    #[test]
    fn diff_forgives_up_to_count_keeps_excess() {
        let r = report(vec![
            viol("a.rs", 1, "unwrap"),
            viol("a.rs", 5, "unwrap"),
            viol("a.rs", 9, "unwrap"),
        ]);
        let base = parse("a.rs\tunwrap\t2\n").unwrap();
        let new = diff(&r, &base);
        // Two forgiven (lowest lines), the excess one reported.
        assert_eq!(new.len(), 1);
        assert_eq!(new[0].line, 9);
    }

    #[test]
    fn diff_flags_unlisted_groups_entirely() {
        let r = report(vec![viol("a.rs", 1, "unwrap"), viol("b.rs", 2, "unwrap")]);
        let base = parse("a.rs\tunwrap\t1\n").unwrap();
        let new = diff(&r, &base);
        assert_eq!(new.len(), 1);
        assert_eq!(new[0].file, "b.rs");
    }

    #[test]
    fn diff_is_empty_when_baseline_covers_everything() {
        let r = report(vec![viol("a.rs", 1, "unwrap")]);
        let base = parse("a.rs\tunwrap\t5\n").unwrap();
        assert!(diff(&r, &base).is_empty());
        // A shrunken workspace never fails against a generous baseline.
        assert!(diff(&report(Vec::new()), &base).is_empty());
    }
}
