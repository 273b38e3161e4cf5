//! Acceptance tests for the workspace-level analysis (DESIGN.md §16).
//!
//! Two invariants are pinned here:
//!
//! 1. **The fixture pair** — a sink the per-file engine is blind to
//!    (an `unwrap` outside the hot-path basenames) must be caught by the
//!    interprocedural pass once a hot-path entry reaches it, and the
//!    finding must carry the full ≥2-edge call chain.
//! 2. **The graph self-check** — the symbol graph must cover every file
//!    the linter scans, and every structural entry-point class must be
//!    discovered in the real workspace. Discovery is by name (`Policy::
//!    schedule`, `Router::route`, `Rebalancer::plan`, the admission
//!    coordinator, the stage dispatcher `plan_stage_dispatch`, the
//!    round-loop files), so a rename that orphans an entry point fails
//!    here instead of silently hollowing the analysis.

use std::collections::BTreeSet;
use std::path::Path;

use tetriserve_lint::{analyze_sources, graph, parser, scan_source, tokenizer, workspace_sources};

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint has a workspace root two levels up")
}

/// The entry lives in a hot-path file but contains no sink; the sink
/// lives two call edges away in a file the per-file `unwrap` rule does
/// not cover. Per-file: 0 findings on both. Interprocedural: exactly one
/// `taint-panic` with the `plan_round → resolve → lookup` chain.
#[test]
fn fixture_pair_per_file_blind_interprocedural_sees() {
    let hot_label = "crates/core/src/dp.rs";
    let hot_src = "pub fn plan_round(xs: &[u32]) -> u32 {\n    resolve(xs)\n}\n";
    let cold_label = "crates/core/src/support.rs";
    let cold_src = "pub fn resolve(xs: &[u32]) -> u32 {\n    lookup(xs)\n}\n\nfn lookup(xs: &[u32]) -> u32 {\n    xs.first().copied().unwrap()\n}\n";

    // The old per-file engine finds nothing in either file on its own.
    let hot_scan = scan_source(hot_label, hot_src);
    assert!(
        hot_scan.violations.is_empty(),
        "per-file engine should be clean on the entry file: {:?}",
        hot_scan.violations
    );
    let cold_scan = scan_source(cold_label, cold_src);
    assert!(
        cold_scan.violations.is_empty(),
        "per-file engine should be blind to the off-hot-path unwrap: {:?}",
        cold_scan.violations
    );

    // The workspace analysis connects entry to sink across the files.
    let report = analyze_sources(&[
        (hot_label.to_owned(), hot_src.to_owned()),
        (cold_label.to_owned(), cold_src.to_owned()),
    ]);
    assert_eq!(
        report.violations.len(),
        1,
        "expected exactly the interprocedural finding:\n{}",
        report.render_text()
    );
    let v = &report.violations[0];
    assert_eq!(v.rule, "taint-panic");
    assert_eq!(v.file, cold_label);
    assert!(
        v.chain.len() >= 3,
        "chain must span at least two call edges (entry, mid, sink), got {:?}",
        v.chain
    );
    let hops: Vec<&str> = v.chain.iter().map(|h| h.func.as_str()).collect();
    assert_eq!(hops, vec!["plan_round", "resolve", "lookup"]);
    assert_eq!(v.chain[0].file, hot_label);
    assert_eq!(v.chain[2].file, cold_label);
    // The chain also survives the JSON round into `tetrilint/v2`.
    let json = report.render_json();
    assert!(json.contains("\"tetrilint/v2\""), "schema tag missing");
    assert!(json.contains("\"chain\""), "chain field missing from JSON");
    assert!(
        json.contains("\"plan_round\""),
        "entry hop missing from JSON"
    );
}

/// The symbol graph must be built from exactly the files the linter
/// scans, every load-bearing module must contribute nodes, and both
/// entry-point classes must be non-empty with their structural anchors
/// present by name.
#[test]
fn workspace_graph_covers_every_file_and_all_entry_classes() {
    let sources = workspace_sources(repo_root()).expect("workspace sources readable");
    assert!(sources.len() > 20, "source sweep looks truncated");

    let lexed: Vec<(String, tokenizer::Lexed)> = sources
        .iter()
        .map(|(label, src)| (label.clone(), tokenizer::lex(src)))
        .collect();
    let items: Vec<parser::FileItems> = lexed
        .iter()
        .map(|(label, lx)| parser::parse(label, lx))
        .collect();
    // One item table per scanned file, labels in lockstep.
    assert_eq!(items.len(), sources.len());
    for (it, (label, _)) in items.iter().zip(&sources) {
        assert_eq!(&it.file, label);
    }

    let wg = graph::build(&items);
    assert!(!wg.nodes.is_empty());
    assert_eq!(wg.edges.len(), wg.nodes.len());

    // Every file that defines functions must contribute graph nodes —
    // a file the parser silently fails on would vanish from the
    // analysis without this.
    let files_with_nodes: BTreeSet<&str> = (0..wg.nodes.len()).map(|n| wg.file_of(n)).collect();
    for (it, (label, src)) in items.iter().zip(&sources) {
        if it.fns.is_empty() {
            assert!(
                !src.contains("fn "),
                "{label}: parser found no functions but the source has `fn` items"
            );
        } else {
            assert!(
                files_with_nodes.contains(label.as_str()),
                "{label}: parsed functions but contributed no graph nodes"
            );
        }
    }
    // The modules the taint passes exist to police must all be present.
    for must in [
        "crates/core/src/scheduler.rs",
        "crates/core/src/dp.rs",
        "crates/core/src/batching.rs",
        "crates/core/src/server.rs",
        "crates/core/src/stage.rs",
        "crates/simulator/src/engine.rs",
        "crates/fleet/src/driver.rs",
        "crates/fleet/src/router.rs",
        "crates/fleet/src/rebalance.rs",
        "crates/traffic/src/source.rs",
        "crates/traffic/src/coupler.rs",
    ] {
        assert!(
            files_with_nodes.contains(must),
            "{must} contributed no graph nodes"
        );
    }

    // Both entry classes discovered, with their anchors by name. A
    // rename (e.g. `schedule` → `plan_round`) must fail one of these.
    let ep = wg.entry_points();
    assert!(!ep.determinism.is_empty(), "no determinism entry points");
    assert!(!ep.panic.is_empty(), "no panic entry points");

    let det: BTreeSet<String> = ep.determinism.iter().map(|&n| wg.label_of(n)).collect();
    assert!(
        det.contains("TetriServePolicy::schedule"),
        "Policy::schedule root missing: {det:?}"
    );
    assert!(
        det.contains("RoundRobinRouter::route") && det.contains("PowerOfTwoRouter::route"),
        "Router::route roots missing: {det:?}"
    );
    assert!(
        det.contains("EdfRebalancer::plan"),
        "Rebalancer::plan root missing: {det:?}"
    );
    assert!(
        det.contains("ReplaySource::next_spec") && det.contains("StreamingArrivals::next_spec"),
        "ArrivalSource::next_spec streaming-pull roots missing: {det:?}"
    );
    assert!(
        det.contains("plan_stage_dispatch"),
        "stage dispatcher root missing: {det:?}"
    );

    // Every hot-path basename present in the workspace roots the panic
    // pass.
    let panic_files: BTreeSet<&str> = ep
        .panic
        .iter()
        .map(|&n| {
            let f = wg.file_of(n);
            f.rsplit('/').next().unwrap_or(f)
        })
        .collect();
    for base in graph::ROUND_LOOP_FILES {
        assert!(
            panic_files.contains(base),
            "hot-path file {base} roots no panic entry: {panic_files:?}"
        );
    }
}
