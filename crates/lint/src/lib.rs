//! # tetriserve-lint
//!
//! `tetrilint`: a pure-std, zero-dependency static analyzer that holds the
//! workspace to the invariants the reproduction depends on — determinism
//! (no wall-clock, no ambient RNG, no unordered map iteration in decision
//! paths), panic discipline in the per-round hot path, and float
//! discipline (no `==` on floats, `total_cmp` over
//! `partial_cmp().unwrap()`).
//!
//! The container the repo builds in is offline, so there is no `syn` and
//! no `clippy-driver` to lean on; [`tokenizer`] is a small hand-rolled
//! lexer that strips comments and string literals (so their contents can
//! never trip a rule) and [`rules`] is a per-file pattern engine over the
//! resulting token stream. Legitimate exceptions are silenced — and
//! counted — via inline annotations:
//!
//! ```text
//! // tetrilint: allow(wall-clock) -- host control-plane cost measurement
//! // tetrilint: allow-file(slice-index) -- DP buffers sized at entry
//! ```
//!
//! See DESIGN.md §11 for the rule catalogue and the annotation grammar.

#![warn(missing_docs)]

pub mod graph;
pub mod parser;
pub mod report;
pub mod rules;
mod taint;
pub mod tokenizer;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use report::LintReport;
use rules::FileScan;

/// Scan one source string under a workspace-relative label (the label
/// drives path-scoped rules: decision-path crates, hot-path basenames).
/// Per-file rules only — the interprocedural passes need the whole
/// workspace; see [`analyze_sources`].
pub fn scan_source(file_label: &str, source: &str) -> FileScan {
    rules::check(file_label, &tokenizer::lex(source))
}

/// Full analysis over a set of labelled sources: per-file rules, then
/// the workspace symbol graph and the two interprocedural taint passes
/// (DESIGN.md §16). This is `scan_workspace` minus the filesystem, so
/// fixtures can exercise cross-file chains in-memory.
pub fn analyze_sources(files: &[(String, String)]) -> LintReport {
    let lexed: Vec<(String, tokenizer::Lexed)> = files
        .iter()
        .map(|(label, src)| (label.replace('\\', "/"), tokenizer::lex(src)))
        .collect();

    // Per-file pass, keeping each file's allow table alive for taint.
    let mut allows: Vec<rules::Allows> = lexed
        .iter()
        .map(|(norm, lx)| rules::Allows::new(lx, norm))
        .collect();
    let mut violations: Vec<rules::Violation> = Vec::new();
    for ((norm, lx), al) in lexed.iter().zip(allows.iter_mut()) {
        violations.extend(rules::check_file(norm, lx, al));
    }

    // Workspace pass: items → symbol graph → taint chains.
    let items: Vec<parser::FileItems> = lexed
        .iter()
        .map(|(norm, lx)| parser::parse(norm, lx))
        .collect();
    let wg = graph::build(&items);
    violations.extend(taint::run(&wg, &lexed, &mut allows));

    let mut rep = LintReport {
        files_scanned: lexed.len(),
        violations,
        allows: allows.into_iter().flat_map(|a| a.into_records()).collect(),
    };
    rep.finish();
    rep
}

/// Scan every `.rs` file under `<root>/src` and `<root>/crates/*/src`,
/// running both the per-file rules and the interprocedural taint passes.
///
/// Files are visited in sorted path order so the report is byte-stable —
/// the linter holds itself to the determinism bar it enforces.
pub fn scan_workspace(root: &Path) -> io::Result<LintReport> {
    Ok(analyze_sources(&workspace_sources(root)?))
}

/// Collect the workspace's labelled sources — every `.rs` file under
/// `<root>/src` and `<root>/crates/*/src` in sorted path order, each
/// paired with its workspace-relative label. This is the exact input
/// [`scan_workspace`] analyzes; the graph self-check test reuses it to
/// assert the symbol graph covers every file the linter sees.
pub fn workspace_sources(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut files: Vec<PathBuf> = Vec::new();
    let root_src = root.join("src");
    if root_src.is_dir() {
        collect_rs_files(&root_src, &mut files)?;
    }
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        crate_dirs.sort();
        for dir in crate_dirs {
            let src = dir.join("src");
            if src.is_dir() {
                collect_rs_files(&src, &mut files)?;
            }
        }
    }
    files.sort();

    let mut sources: Vec<(String, String)> = Vec::with_capacity(files.len());
    for path in &files {
        let bytes = fs::read(path)?;
        let label = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        sources.push((label, String::from_utf8_lossy(&bytes).into_owned()));
    }
    Ok(sources)
}

/// Recursively gather `.rs` files under `dir`.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Shorthand: scan a fixture under the given label and return the
    /// fired rule names in order.
    fn fired(label: &str, src: &str) -> Vec<&'static str> {
        scan_source(label, src)
            .violations
            .iter()
            .map(|v| v.rule)
            .collect()
    }

    const CORE: &str = "crates/core/src/policy.rs"; // decision path, not hot
    const HOT: &str = "crates/core/src/dp.rs"; // decision path + hot path
    const BENCH: &str = "crates/bench/src/util.rs"; // neither

    // ---- wall-clock ----------------------------------------------------

    #[test]
    fn wall_clock_bad() {
        let src = "fn t() { let s = std::time::Instant::now(); let _ = s; }";
        assert_eq!(fired(BENCH, src), vec!["wall-clock"]);
        let src = "fn t() -> std::time::SystemTime { std::time::SystemTime::now() }";
        assert!(fired(BENCH, src).iter().all(|&r| r == "wall-clock"));
    }

    #[test]
    fn wall_clock_good() {
        // Importing the type or naming it in strings/comments is fine.
        let src = "use std::time::Instant;\n// Instant::now is banned\nfn t(x: &str) -> bool { x == \"Instant::now\" }";
        assert_eq!(fired(BENCH, src), Vec::<&str>::new());
    }

    #[test]
    fn wall_clock_allowed_inline() {
        let src = "fn t() {\n    // tetrilint: allow(wall-clock) -- host-side measurement\n    let s = std::time::Instant::now();\n    let _ = s;\n}";
        let scan = scan_source(BENCH, src);
        assert!(scan.violations.is_empty(), "{:?}", scan.violations);
        assert_eq!(scan.allows.len(), 1);
        assert!(scan.allows[0].used);
    }

    #[test]
    fn wall_clock_allowed_trailing() {
        let src = "fn t() {\n    let s = std::time::Instant::now(); // tetrilint: allow(wall-clock) -- timeout guard\n    let _ = s;\n}";
        let scan = scan_source(BENCH, src);
        assert!(scan.violations.is_empty(), "{:?}", scan.violations);
        assert!(scan.allows[0].used);
    }

    // ---- ambient-rng ---------------------------------------------------

    #[test]
    fn ambient_rng_bad() {
        let src = "fn t() -> u64 { let mut r = rand::thread_rng(); r.gen() }";
        assert_eq!(fired(BENCH, src), vec!["ambient-rng"]);
    }

    #[test]
    fn ambient_rng_good() {
        let src = "fn t(rng: &mut SimRng) -> u64 { rng.next_u64() }";
        assert_eq!(fired(BENCH, src), Vec::<&str>::new());
    }

    // ---- unordered-iter ------------------------------------------------

    #[test]
    fn unordered_iter_bad_method() {
        let src = "use std::collections::HashMap;\nfn t() {\n    let groups: HashMap<u64, Vec<usize>> = HashMap::new();\n    for idxs in groups.into_values() { let _ = idxs; }\n}";
        assert_eq!(fired(CORE, src), vec!["unordered-iter"]);
    }

    #[test]
    fn unordered_iter_bad_for_loop() {
        let src =
            "fn t(live: &std::collections::HashSet<u64>) {\n    for id in live { let _ = id; }\n}";
        // Binding comes from the `live: &HashSet` param ascription.
        let src2 = src.replace("std::collections::HashSet<u64>", "HashSet<u64>");
        assert_eq!(fired(CORE, &src2), vec!["unordered-iter"]);
        assert_eq!(fired(CORE, src), vec!["unordered-iter"]);
    }

    #[test]
    fn unordered_iter_good_btreemap() {
        let src = "use std::collections::BTreeMap;\nfn t() {\n    let groups: BTreeMap<u64, Vec<usize>> = BTreeMap::new();\n    for idxs in groups.into_values() { let _ = idxs; }\n}";
        assert_eq!(fired(CORE, src), Vec::<&str>::new());
    }

    #[test]
    fn unordered_iter_good_lookup_only() {
        // get/insert/remove never observe hash order.
        let src = "use std::collections::HashMap;\nfn t(m: &mut HashMap<u64, u64>) -> Option<u64> {\n    m.insert(1, 2);\n    m.remove(&3);\n    m.get(&1).copied()\n}";
        assert_eq!(fired(CORE, src), Vec::<&str>::new());
    }

    #[test]
    fn unordered_iter_not_in_decision_path() {
        // Outside decision paths the *iteration* is legal, but collecting
        // hash order into a Vec still fires `unordered-collect`; inside a
        // decision path the same line fires `unordered-iter` only (one
        // site, one rule — the collect hit defers).
        let src = "use std::collections::HashMap;\nfn t(m: &HashMap<u64, u64>) -> Vec<u64> {\n    m.values().copied().collect()\n}";
        assert_eq!(fired(BENCH, src), vec!["unordered-collect"]);
        assert_eq!(fired(CORE, src), vec!["unordered-iter"]);
    }

    // ---- unordered-collect ---------------------------------------------

    #[test]
    fn unordered_collect_bad_let_binding() {
        let src = "use std::collections::HashMap;\nfn t(m: &HashMap<u64, u64>) {\n    let ids: Vec<u64> = m.keys().copied().collect();\n    let _ = ids;\n}";
        assert_eq!(fired(BENCH, src), vec!["unordered-collect"]);
    }

    #[test]
    fn unordered_collect_bad_turbofish_tail() {
        let src = "use std::collections::HashSet;\nfn t(s: &HashSet<u64>) -> Vec<u64> {\n    s.iter().copied().collect::<Vec<u64>>()\n}";
        assert_eq!(fired(BENCH, src), vec!["unordered-collect"]);
    }

    #[test]
    fn unordered_collect_good_sorted_after() {
        // Collect-and-sort is the sanctioned idiom.
        let src = "use std::collections::HashMap;\nfn t(m: &HashMap<u64, u64>) -> Vec<u64> {\n    let mut ids: Vec<u64> = m.keys().copied().collect();\n    ids.sort_unstable();\n    ids\n}";
        assert_eq!(fired(BENCH, src), Vec::<&str>::new());
    }

    #[test]
    fn unordered_collect_good_btree_and_hash_targets() {
        // A BTree target re-sorts; a hash target materializes no order.
        let src = "use std::collections::{BTreeMap, HashMap, HashSet};\nfn t(m: &HashMap<u64, u64>) -> usize {\n    let sorted: BTreeMap<u64, u64> = m.iter().map(|(k, v)| (*k, *v)).collect();\n    let live: HashSet<u64> = m.keys().copied().collect();\n    sorted.len() + live.len()\n}";
        assert_eq!(fired(BENCH, src), Vec::<&str>::new());
    }

    #[test]
    fn unordered_collect_good_point_access() {
        let src = "use std::collections::HashMap;\nfn t(m: &HashMap<u64, u64>) -> Vec<u64> {\n    vec![m.get(&1).copied().unwrap_or(0)]\n}";
        assert_eq!(fired(BENCH, src), Vec::<&str>::new());
    }

    #[test]
    fn unordered_collect_allowed_inline() {
        let src = "use std::collections::HashMap;\nfn t(m: &HashMap<u64, u64>) -> Vec<u64> {\n    // tetrilint: allow(unordered-collect) -- order re-established by caller\n    m.keys().copied().collect()\n}";
        let scan = scan_source(BENCH, src);
        assert!(scan.violations.is_empty(), "{:?}", scan.violations);
        assert!(scan.allows[0].used);
    }

    // ---- strict mode ---------------------------------------------------

    #[test]
    fn strict_promotes_unused_allows_to_violations() {
        let src = "fn t() {\n    // tetrilint: allow(wall-clock) -- stale: the clock read was removed\n    let x = 1;\n    let _ = x;\n}";
        let mut rep = report::LintReport::default();
        rep.absorb(scan_source(BENCH, src));
        rep.finish();
        // Lenient: the unused allow is counted but not fatal.
        assert!(rep.is_clean());
        assert_eq!(rep.unused_allows(), 1);
        // Strict: it becomes an `unused-allow` violation at the
        // annotation's own line.
        rep.enforce_unused_allows();
        assert!(!rep.is_clean());
        assert_eq!(rep.violations.len(), 1);
        assert_eq!(rep.violations[0].rule, "unused-allow");
        assert_eq!(rep.violations[0].line, 2);
        assert!(
            rep.render_text().contains("unused-allow"),
            "{}",
            rep.render_text()
        );
    }

    #[test]
    fn strict_is_a_no_op_when_every_allow_is_used() {
        let src = "fn t() {\n    // tetrilint: allow(wall-clock) -- host-side measurement\n    let s = std::time::Instant::now();\n    let _ = s;\n}";
        let mut rep = report::LintReport::default();
        rep.absorb(scan_source(BENCH, src));
        rep.finish();
        rep.enforce_unused_allows();
        assert!(rep.is_clean(), "{:?}", rep.violations);
    }

    // ---- unwrap --------------------------------------------------------

    #[test]
    fn unwrap_bad_in_hot_path() {
        let src = "fn t(x: Option<u32>) -> u32 { x.unwrap() }";
        assert_eq!(fired(HOT, src), vec!["unwrap"]);
        let src = "fn t(x: Option<u32>) -> u32 { x.expect(\"set\") }";
        assert_eq!(fired(HOT, src), vec!["unwrap"]);
    }

    #[test]
    fn unwrap_good_outside_hot_path_and_in_tests() {
        let src = "fn t(x: Option<u32>) -> u32 { x.unwrap() }";
        assert_eq!(fired(CORE, src), Vec::<&str>::new());
        // #[cfg(test)] items are skipped even in hot-path files.
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn u() { Some(1u32).unwrap(); }\n}";
        assert_eq!(fired(HOT, src), Vec::<&str>::new());
    }

    #[test]
    fn unwrap_allowed_with_reason() {
        let src = "fn t(x: Option<u32>) -> u32 {\n    // tetrilint: allow(unwrap) -- tracker invariant: id is always present\n    x.expect(\"tracked\")\n}";
        let scan = scan_source(HOT, src);
        assert!(scan.violations.is_empty(), "{:?}", scan.violations);
        assert!(scan.allows[0].used);
    }

    // ---- slice-index ---------------------------------------------------

    #[test]
    fn slice_index_bad_in_hot_path() {
        let src = "fn t(xs: &[u32], i: usize) -> u32 { xs[i] }";
        assert_eq!(fired(HOT, src), vec!["slice-index"]);
    }

    #[test]
    fn slice_index_good_forms() {
        // get(), macros, attributes and array types must not trip it.
        let src = "#[derive(Clone)]\nstruct S { a: [u64; 4] }\nfn t(xs: &[u32], i: usize) -> Option<u32> {\n    let v = vec![0u32; 4];\n    let _ = v;\n    xs.get(i).copied()\n}";
        assert_eq!(fired(HOT, src), Vec::<&str>::new());
    }

    #[test]
    fn slice_index_file_scope_allow() {
        let src = "// tetrilint: allow-file(slice-index) -- buffers sized to capacity at entry\nfn t(xs: &[u32]) -> u32 { xs[0] + xs[1] }";
        let scan = scan_source(HOT, src);
        assert!(scan.violations.is_empty(), "{:?}", scan.violations);
        assert!(scan.allows[0].used && scan.allows[0].file_scope);
    }

    // ---- sim-time-monotonicity ----------------------------------------

    #[test]
    fn sim_time_monotonicity_bad_minuend() {
        let src = "fn t(a: SimTime, n: u64) -> u64 { a.as_micros() - n }";
        assert_eq!(fired(BENCH, src), vec!["sim-time-monotonicity"]);
    }

    #[test]
    fn sim_time_monotonicity_bad_subtrahend() {
        let src = "fn t(a: SimTime, n: u64) -> u64 { n - a.as_micros() }";
        assert_eq!(fired(BENCH, src), vec!["sim-time-monotonicity"]);
        // Chained receivers are still caught.
        let src = "fn t(s: &Server, n: u64) -> u64 { n - s.cursor.as_micros() }";
        assert_eq!(fired(BENCH, src), vec!["sim-time-monotonicity"]);
    }

    #[test]
    fn sim_time_monotonicity_good_forms() {
        // Additions, saturating/checked arithmetic and comparisons on the
        // raw micros never underflow; `-` nowhere near as_micros is fine.
        let src = "fn t(a: SimTime, b: SimTime, n: u64) -> u64 {\n    let x = a.as_micros() + n;\n    let y = a.as_micros().saturating_sub(n);\n    let z = b.saturating_since(a).as_micros();\n    let w = n - 1;\n    x + y + z + w\n}";
        assert_eq!(fired(BENCH, src), Vec::<&str>::new());
    }

    #[test]
    fn sim_time_monotonicity_allowed_with_reason() {
        let src = "fn t(at: SimTime) -> u64 {\n    // tetrilint: allow(sim-time-monotonicity) -- at != ZERO checked above\n    at.as_micros() - 1\n}";
        let scan = scan_source(BENCH, src);
        assert!(scan.violations.is_empty(), "{:?}", scan.violations);
        assert!(scan.allows[0].used);
    }

    // ---- nominal-step-time ---------------------------------------------

    #[test]
    fn nominal_step_time_fires_in_speed_aware_modules() {
        let src = "fn t(c: &CostTable) -> SimDuration { c.step_time(res, 8, 1) }";
        assert_eq!(
            fired("crates/core/src/feasibility.rs", src),
            vec!["nominal-step-time"]
        );
        let src = "fn t(c: &CostTable) -> SimDuration { c.t_min(res) }";
        assert_eq!(
            fired("crates/core/src/scheduler.rs", src),
            vec!["nominal-step-time"]
        );
        let src = "fn t(c: &CostTable) -> f64 { c.row(res).fastest().gpu_seconds }";
        assert_eq!(
            fired("crates/core/src/scheduler.rs", src),
            vec!["nominal-step-time"]
        );
    }

    #[test]
    fn nominal_step_time_scoped_to_speed_aware_files() {
        // dp.rs packs pre-sized options and never reads the cost table
        // directly; bench code measures whatever it likes.
        let src = "fn t(c: &CostTable) -> SimDuration { c.step_time(res, 8, 1) }";
        assert_eq!(fired(HOT, src), Vec::<&str>::new());
        assert_eq!(fired(BENCH, src), Vec::<&str>::new());
        // Definitions and non-method mentions are not reads.
        let src = "fn step_time(res: Resolution) -> SimDuration { todo(res) }";
        assert_eq!(fired("crates/core/src/policy.rs", src), Vec::<&str>::new());
    }

    #[test]
    fn nominal_step_time_allowed_with_reason() {
        let src = "fn t(c: &CostTable) -> f64 {\n    // tetrilint: allow(nominal-step-time) -- demand side is nominal by convention\n    c.step_time(res, 1, 1).as_secs_f64()\n}";
        let scan = scan_source("crates/core/src/feasibility.rs", src);
        assert!(scan.violations.is_empty(), "{:?}", scan.violations);
        assert!(scan.allows[0].used);
    }

    // ---- units-of-measure ----------------------------------------------

    #[test]
    fn units_of_measure_bad_mixed_statement() {
        // Integer microseconds and float seconds priced into one value.
        let src = "fn t(d: SimDuration, s: SimDuration) -> f64 {\n    d.as_micros() as f64 * s.as_secs_f64()\n}";
        assert_eq!(
            fired("crates/core/src/feasibility.rs", src),
            vec!["units-of-measure"]
        );
        // The constructor direction is just as wrong.
        let src = "fn t(d: SimDuration) -> SimDuration {\n    SimDuration::from_secs_f64(d.as_micros() as f64)\n}";
        assert_eq!(
            fired("crates/costmodel/src/steptime.rs", src),
            vec!["units-of-measure"]
        );
    }

    #[test]
    fn units_of_measure_good_single_unit_statements() {
        // One unit per statement is the sanctioned shape, and the scope
        // is the three units-sensitive basenames only.
        let src = "fn t(d: SimDuration, s: SimDuration) -> f64 {\n    let micros = d.as_micros();\n    let secs = s.as_secs_f64();\n    micros as f64 / 1e6 + secs\n}";
        assert_eq!(
            fired("crates/costmodel/src/interconnect.rs", src),
            Vec::<&str>::new()
        );
        let src = "fn t(d: SimDuration, s: SimDuration) -> f64 {\n    d.as_micros() as f64 * s.as_secs_f64()\n}";
        assert_eq!(fired(BENCH, src), Vec::<&str>::new());
        assert_eq!(fired(CORE, src), Vec::<&str>::new());
    }

    #[test]
    fn units_of_measure_allowed_with_reason() {
        let src = "fn t(d: SimDuration) -> f64 {\n    // tetrilint: allow(units-of-measure) -- result is µs², fed to the µs-domain digest\n    d.as_micros() as f64 * d.as_secs_f64() * 1e6\n}";
        let scan = scan_source("crates/core/src/feasibility.rs", src);
        assert!(scan.violations.is_empty(), "{:?}", scan.violations);
        assert!(scan.allows[0].used);
    }

    // ---- unordered-iter: inferred bindings -----------------------------

    #[test]
    fn unordered_iter_bad_inferred_let_binding() {
        // No type ascription anywhere: the binding is inferred from the
        // `HashMap::new()` initializer.
        let src = "use std::collections::HashMap;\nfn t() {\n    let mut groups = HashMap::new();\n    groups.insert(1u64, 2u64);\n    for v in groups.values() { let _ = v; }\n}";
        assert_eq!(fired(CORE, src), vec!["unordered-iter"]);
        // Same for HashSet::with_capacity.
        let src = "use std::collections::HashSet;\nfn t(n: usize) {\n    let live = HashSet::with_capacity(n);\n    for id in live.iter() { let _ = id; }\n}";
        assert_eq!(fired(CORE, src), vec!["unordered-iter"]);
    }

    #[test]
    fn unordered_iter_good_inferred_btree_binding() {
        let src = "use std::collections::BTreeMap;\nfn t() {\n    let mut groups = BTreeMap::new();\n    groups.insert(1u64, 2u64);\n    for v in groups.values() { let _ = v; }\n}";
        assert_eq!(fired(CORE, src), Vec::<&str>::new());
    }

    #[test]
    fn unordered_collect_bad_inferred_binding() {
        // The inferred binding set feeds unordered-collect too.
        let src = "use std::collections::HashMap;\nfn t() -> Vec<u64> {\n    let mut m = HashMap::new();\n    m.insert(1u64, 2u64);\n    let ids: Vec<u64> = m.keys().copied().collect();\n    ids\n}";
        assert_eq!(fired(BENCH, src), vec!["unordered-collect"]);
    }

    // ---- float-eq ------------------------------------------------------

    #[test]
    fn float_eq_bad() {
        let src = "fn t(x: f64) -> bool { x == 1.0 }";
        assert_eq!(fired(BENCH, src), vec!["float-eq"]);
        let src = "fn t(x: f64, y: u64) -> bool { x != y as f64 }";
        assert_eq!(fired(BENCH, src), vec!["float-eq"]);
        let src = "fn t(x: f64) -> bool { 0.5 == x }";
        assert_eq!(fired(BENCH, src), vec!["float-eq"]);
    }

    #[test]
    fn float_eq_good() {
        // Integer comparisons and ranges must not trip it.
        let src = "fn t(x: u64) -> bool { let mut n = 0u64; for i in 0..x { n += i; } n == 10 }";
        assert_eq!(fired(BENCH, src), Vec::<&str>::new());
    }

    // ---- partial-cmp-unwrap -------------------------------------------

    #[test]
    fn partial_cmp_unwrap_bad() {
        let src = "fn t(v: &mut Vec<f64>) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }";
        assert_eq!(fired(BENCH, src), vec!["partial-cmp-unwrap"]);
        let src =
            "fn t(v: &mut Vec<f64>) { v.sort_by(|a, b| a.partial_cmp(b).expect(\"finite\")); }";
        assert_eq!(fired(BENCH, src), vec!["partial-cmp-unwrap"]);
    }

    #[test]
    fn partial_cmp_unwrap_good() {
        let src = "fn t(v: &mut Vec<f64>) { v.sort_by(|a, b| a.total_cmp(b)); }";
        assert_eq!(fired(BENCH, src), Vec::<&str>::new());
        // Un-unwrapped partial_cmp (Option handled) is fine, as are
        // PartialOrd impls that *define* partial_cmp.
        let src = "fn t(a: f64, b: f64) -> std::cmp::Ordering {\n    a.partial_cmp(&b).unwrap_or(std::cmp::Ordering::Equal)\n}";
        assert_eq!(fired(BENCH, src), Vec::<&str>::new());
    }

    // ---- annotation grammar -------------------------------------------

    #[test]
    fn annotation_missing_reason_is_bad() {
        let src = "// tetrilint: allow(wall-clock)\nfn t() {}";
        assert_eq!(fired(BENCH, src), vec!["bad-annotation"]);
    }

    #[test]
    fn annotation_unknown_rule_is_bad() {
        let src = "// tetrilint: allow(wal-clock) -- typo\nfn t() {}";
        assert_eq!(fired(BENCH, src), vec!["bad-annotation"]);
    }

    #[test]
    fn annotation_prose_mention_is_fine() {
        let src = "// run tetrilint before pushing\nfn t() {}";
        assert_eq!(fired(BENCH, src), Vec::<&str>::new());
    }

    #[test]
    fn annotation_wrong_rule_does_not_silence() {
        let src = "fn t(x: Option<u32>) -> u32 {\n    // tetrilint: allow(wall-clock) -- wrong rule for this site\n    x.unwrap()\n}";
        let scan = scan_source(HOT, src);
        assert_eq!(
            scan.violations.iter().map(|v| v.rule).collect::<Vec<_>>(),
            vec!["unwrap"]
        );
        assert!(!scan.allows[0].used);
    }

    // ---- tokenizer robustness -----------------------------------------

    #[test]
    fn strings_comments_and_chars_never_fire() {
        let src = r##"
fn t() -> (String, char, &'static str) {
    // Instant::now() in a comment
    /* thread_rng() in a /* nested */ block comment */
    let s = "Instant::now() and x.unwrap() and 1.0 == 2.0".to_string();
    let r = r#"SystemTime and groups.into_values()"#;
    (s, 'x', r)
}
"##;
        assert_eq!(fired(HOT, src), Vec::<&str>::new());
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "struct W<'a> { s: &'a str }\nfn t<'b>(w: &'b W<'b>) -> &'b str { w.s }";
        assert_eq!(fired(BENCH, src), Vec::<&str>::new());
    }

    #[test]
    fn report_renders_json_and_text() {
        let mut rep = report::LintReport::default();
        rep.absorb(scan_source(
            HOT,
            "fn t(x: Option<u32>) -> u32 { x.unwrap() }",
        ));
        rep.finish();
        assert!(!rep.is_clean());
        let json = rep.render_json();
        assert!(json.contains("\"schema\": \"tetrilint/v2\""));
        assert!(json.contains("\"rule\": \"unwrap\""));
        let text = rep.render_text();
        assert!(text.contains("crates/core/src/dp.rs:1: unwrap:"), "{text}");
    }
}
