//! Interprocedural taint: two sink classes propagated along call edges.
//!
//! The per-file engine ([`crate::rules`]) polices each rule inside a
//! fixed file scope — `unwrap` in hot-path modules, `unordered-iter` in
//! decision-path crates. A decision-path function that *calls* into a
//! helper outside that scope sails straight through it. These passes
//! close that hole: walk the workspace call graph from the entry points
//! that carry each invariant and flag sinks the per-file scoping misses,
//! reporting the full `entry → f → g → sink @ file:line` chain.
//!
//! | rule                | entries                                  | sinks |
//! |---------------------|------------------------------------------|-------|
//! | `taint-determinism` | `Policy::schedule`, `Router::route`, `Rebalancer::plan`, `ArrivalSource::next_spec`, `stage::plan_stage_dispatch` | hash-order iteration in non-decision-path files |
//! | `taint-panic`       | hot-path fns                             | `unwrap`/`expect`/bare index in non-hot files |
//!
//! Sinks the per-file engine already covers in that file are skipped —
//! one site, one rule (wall-clock and ambient-rng fire everywhere
//! per-file, so they never re-fire here; an allowed sink stays allowed,
//! because the taint passes honor the sink's per-file allow as well as
//! their own rule name). Findings are byte-stable: entries and sinks are
//! visited in sorted order and the shortest chain (BFS) is reported.

use std::collections::BTreeSet;

use crate::graph::WorkspaceGraph;
use crate::rules::{self, Allows, ChainHop, Violation};
use crate::tokenizer::Lexed;

/// Run both passes. `files` and `allows` are parallel to `graph.items`;
/// taint findings consume allows at the sink line.
pub(crate) fn run(
    graph: &WorkspaceGraph<'_>,
    files: &[(String, Lexed)],
    allows: &mut [Allows],
) -> Vec<Violation> {
    let ep = graph.entry_points();
    let det_parent = graph.reach(&ep.determinism);
    let panic_parent = graph.reach(&ep.panic);

    // Per file: (line range → node) lookup for sink attribution.
    // Innermost fn wins (smallest line span) for nested items.
    let mut fn_spans: Vec<Vec<(u32, u32, usize)>> = vec![Vec::new(); files.len()];
    for (n, &(fi, xi)) in graph.nodes.iter().enumerate() {
        let f = &graph.items[fi].fns[xi];
        let toks = &files[fi].1.tokens;
        if f.body.0 >= f.body.1 {
            continue; // bodyless trait declaration
        }
        let start = f.line;
        let end = toks
            .get(f.body.1.saturating_sub(1))
            .or_else(|| toks.last())
            .map_or(start, |t| t.line);
        fn_spans[fi].push((start, end, n));
    }

    let mut out: Vec<Violation> = Vec::new();
    let mut seen: BTreeSet<(usize, u32, &'static str)> = BTreeSet::new();

    for (fi, (norm, lexed)) in files.iter().enumerate() {
        let basename = norm.rsplit('/').next().unwrap_or(norm);
        let decision_path = rules::DECISION_PATHS.iter().any(|p| norm.contains(p));
        let hot_path = rules::HOT_FILES.contains(&basename);
        let live = rules::live_tokens(lexed);

        // -- taint-determinism: hash-order iteration beyond the per-file
        //    decision-path scope.
        if !decision_path {
            let mut hits: Vec<(u32, &'static str, String)> = Vec::new();
            rules::rule_unordered_iter(&live, &mut hits);
            for (line, _, msg) in hits {
                emit(
                    graph,
                    &fn_spans[fi],
                    &det_parent,
                    fi,
                    line,
                    "taint-determinism",
                    &["taint-determinism", "unordered-iter"],
                    &msg,
                    "a deterministic-scheduling entry point",
                    allows,
                    &mut seen,
                    &mut out,
                );
            }
        }

        // -- taint-panic: unwrap/expect/bare-index beyond the hot files.
        if !hot_path {
            let mut hits: Vec<(u32, &'static str, String)> = Vec::new();
            rules::rule_unwrap(&live, &mut hits);
            for (line, _, msg) in hits {
                emit(
                    graph,
                    &fn_spans[fi],
                    &panic_parent,
                    fi,
                    line,
                    "taint-panic",
                    &["taint-panic", "unwrap"],
                    &msg,
                    "the per-round hot path",
                    allows,
                    &mut seen,
                    &mut out,
                );
            }
            let mut hits: Vec<(u32, &'static str, String)> = Vec::new();
            rules::rule_slice_index(&live, &mut hits);
            for (line, _, msg) in hits {
                emit(
                    graph,
                    &fn_spans[fi],
                    &panic_parent,
                    fi,
                    line,
                    "taint-panic",
                    &["taint-panic", "slice-index"],
                    &msg,
                    "the per-round hot path",
                    allows,
                    &mut seen,
                    &mut out,
                );
            }
        }
    }
    out
}

/// Attribute one sink hit to its enclosing fn, test reachability, apply
/// allows, and push the chain finding.
#[allow(clippy::too_many_arguments)]
fn emit(
    graph: &WorkspaceGraph<'_>,
    spans: &[(u32, u32, usize)],
    parent: &std::collections::BTreeMap<usize, Option<usize>>,
    fi: usize,
    line: u32,
    rule: &'static str,
    allow_names: &[&str],
    sink_msg: &str,
    from_what: &str,
    allows: &mut [Allows],
    seen: &mut BTreeSet<(usize, u32, &'static str)>,
    out: &mut Vec<Violation>,
) {
    // Innermost enclosing fn (smallest span containing the line).
    let Some(&(_, _, node)) = spans
        .iter()
        .filter(|&&(s, e, _)| s <= line && line <= e)
        .min_by_key(|&&(s, e, _)| e - s)
    else {
        return; // module-level code (consts, statics) — not a call target
    };
    if !parent.contains_key(&node) {
        return; // not reachable from this pass's entries
    }
    if !seen.insert((fi, line, rule)) {
        return; // one finding per sink site per pass
    }
    if allows[fi].covers_any(line, allow_names) {
        return;
    }
    let chain: Vec<ChainHop> = graph
        .chain_to(parent, node)
        .into_iter()
        .map(|n| ChainHop {
            func: graph.label_of(n),
            file: graph.file_of(n).to_string(),
            line: graph.fn_item(n).line,
        })
        .collect();
    let via: Vec<String> = chain.iter().map(|h| h.func.clone()).collect();
    let file = graph.items[fi].file.clone();
    // Per-file sink messages assume their own file scope ("in a hot-path
    // module"); here the sink is *outside* that scope by construction.
    let sink_clause = sink_msg
        .split(';')
        .next()
        .unwrap_or(sink_msg)
        .replace(" in a hot-path module", "")
        .replace(" in a decision path", "");
    out.push(Violation {
        message: format!(
            "{} — reachable from {} via `{}` ({} call edge{})",
            sink_clause,
            from_what,
            via.join(" → "),
            chain.len().saturating_sub(1),
            if chain.len() == 2 { "" } else { "s" },
        ),
        file,
        line,
        rule,
        chain,
    });
}
