//! Workspace symbol table and conservative call graph.
//!
//! Nodes are every non-test `fn` the parser found anywhere in the
//! workspace. Edges come from call sites, resolved by *name* with a
//! little context — there is no type inference here, so resolution
//! over-approximates on purpose (DESIGN.md §16 documents the blind
//! spots):
//!
//! * `self.name(…)` resolves to methods named `name` on the enclosing
//!   impl type first, falling back to every method of that name in the
//!   workspace (trait default methods live on the trait, not the impl).
//! * `recv.name(…)` resolves to **every** workspace method named `name`
//!   — the receiver's type is unknown, and dyn-trait dispatch
//!   (`Box<dyn Policy>`, `Box<dyn Router>`) must reach every impl anyway.
//! * `Type::name(…)` resolves to methods of `Type` when such an impl
//!   exists, else to free fns named `name` in files whose stem is
//!   `type`'s snake case (module calls like `admission::coordinate`).
//! * `name(…)` resolves to every free fn named `name`.
//!
//! All resolution is additionally gated by **import visibility**: a call
//! in file `F` can only resolve into crate `C` when `C` is `F`'s own
//! crate or `F` has a `use tetriserve_<c>::…` edge. Without the gate,
//! common method names (`next`, `parse`, `get`) would weld every crate
//! to every other and the chains would be noise; with it, the fan-out
//! stays honest to what the code can actually name.
//!
//! Calls that resolve to nothing are external (std or shims) and create
//! no edge. The over-approximation direction is deliberate: a missing
//! edge hides a real taint path, a spurious edge only costs a reviewed
//! allow at a sink that needed one anyway.

use std::collections::BTreeMap;

use crate::parser::{CallTarget, FileItems, FnItem};

/// Round-loop basenames that root the panic pass. A superset of the
/// per-file hot-file scope ([`crate::rules`]): the fleet driver's event
/// loop (`driver.rs`) is the per-round hot path of the fleet layer even
/// though the per-file `unwrap`/`slice-index` rules don't police it —
/// its panic sinks are exactly what the interprocedural pass exists to
/// catch.
pub const ROUND_LOOP_FILES: &[&str] = &[
    "dp.rs",
    "scheduler.rs",
    "batching.rs",
    "engine.rs",
    "driver.rs",
];

/// The workspace call graph over `items` (one entry per scanned file).
#[derive(Debug)]
pub struct WorkspaceGraph<'a> {
    /// The per-file item lists the graph was built from.
    pub items: &'a [FileItems],
    /// Graph nodes as `(file index, fn index)` pairs, in file/source
    /// order — node ids are indices into this vec.
    pub nodes: Vec<(usize, usize)>,
    /// Adjacency: `edges[n]` is the sorted, deduped callee set of node
    /// `n`.
    pub edges: Vec<Vec<usize>>,
}

/// Entry-point sets for the two taint passes.
#[derive(Debug, Default)]
pub struct EntryPoints {
    /// Decision-path roots: `Policy::schedule` impls, `Router::route`
    /// impls, `Rebalancer::plan` impls, and the fleet admission
    /// coordinator.
    pub determinism: Vec<usize>,
    /// Per-round hot-path roots: every fn defined in a hot-path module.
    pub panic: Vec<usize>,
}

impl<'a> WorkspaceGraph<'a> {
    /// The `FnItem` behind node `n`.
    pub fn fn_item(&self, n: usize) -> &'a FnItem {
        let (fi, xi) = self.nodes[n];
        &self.items[fi].fns[xi]
    }

    /// Workspace-relative file of node `n`.
    pub fn file_of(&self, n: usize) -> &'a str {
        &self.items[self.nodes[n].0].file
    }

    /// Human label for node `n` (`Type::name` or bare `name`).
    pub fn label_of(&self, n: usize) -> String {
        let f = self.fn_item(n);
        match &f.owner {
            Some(o) => format!("{o}::{}", f.name),
            None => f.name.clone(),
        }
    }

    /// Discover the taint entry points. Discovery is structural (trait
    /// names, hot basenames), so a rename that orphans an entry point
    /// empties the set — the `workspace_graph` self-check fails rather
    /// than silently passing a hollow analysis.
    pub fn entry_points(&self) -> EntryPoints {
        let mut ep = EntryPoints::default();
        for n in 0..self.nodes.len() {
            let f = self.fn_item(n);
            let file = self.file_of(n);
            let basename = file.rsplit('/').next().unwrap_or(file);
            let in_trait =
                |t: &str| f.trait_name.as_deref() == Some(t) || f.owner.as_deref() == Some(t);
            let deterministic_root = (f.name == "schedule" && in_trait("Policy"))
                || (f.name == "route" && in_trait("Router"))
                || (f.name == "plan" && in_trait("Rebalancer"))
                || (f.name == "coordinate" && f.owner.is_none() && basename == "admission.rs")
                || (f.name == "next_spec" && in_trait("ArrivalSource"))
                || (f.name == "plan_stage_dispatch" && f.owner.is_none() && basename == "stage.rs");
            if deterministic_root {
                ep.determinism.push(n);
            }
            if ROUND_LOOP_FILES.contains(&basename) {
                ep.panic.push(n);
            }
        }
        ep
    }

    /// BFS over call edges from `entries` (processed in order), returning
    /// `parent[n] = Some(caller)` for every reachable node (`None` for
    /// the entries themselves). Deterministic: adjacency is sorted and
    /// entries are visited in the given order.
    pub fn reach(&self, entries: &[usize]) -> BTreeMap<usize, Option<usize>> {
        let mut parent: BTreeMap<usize, Option<usize>> = BTreeMap::new();
        let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        for &e in entries {
            if !parent.contains_key(&e) {
                parent.insert(e, None);
                queue.push_back(e);
            }
        }
        while let Some(n) = queue.pop_front() {
            for &m in &self.edges[n] {
                if !parent.contains_key(&m) {
                    parent.insert(m, Some(n));
                    queue.push_back(m);
                }
            }
        }
        parent
    }

    /// Reconstruct the entry→…→`node` chain from a [`Self::reach`] map.
    pub fn chain_to(&self, parent: &BTreeMap<usize, Option<usize>>, node: usize) -> Vec<usize> {
        let mut chain = vec![node];
        let mut cur = node;
        while let Some(Some(p)) = parent.get(&cur) {
            chain.push(*p);
            cur = *p;
        }
        chain.reverse();
        chain
    }
}

/// The workspace crate a file belongs to (`crates/<name>/…` → `name`,
/// anything else → the root pseudo-crate `""`).
fn crate_key(file: &str) -> &str {
    file.strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("")
}

/// Build the symbol table and resolve every call site into edges.
pub fn build(items: &[FileItems]) -> WorkspaceGraph<'_> {
    let mut nodes: Vec<(usize, usize)> = Vec::new();
    for (fi, file) in items.iter().enumerate() {
        for (xi, f) in file.fns.iter().enumerate() {
            if !f.is_test {
                nodes.push((fi, xi));
            }
        }
    }

    // Import visibility: which crates each file can resolve into — its
    // own, plus every `tetriserve_<c>` its `use` list names.
    let mut visible: Vec<std::collections::BTreeSet<&str>> = Vec::with_capacity(items.len());
    for file in items {
        let mut vis = std::collections::BTreeSet::new();
        vis.insert(crate_key(&file.file));
        for u in &file.uses {
            let first = u.split("::").next().unwrap_or("");
            if let Some(c) = first.strip_prefix("tetriserve_") {
                vis.insert(c);
            }
        }
        visible.push(vis);
    }
    let node_crate: Vec<&str> = nodes
        .iter()
        .map(|&(fi, _)| crate_key(&items[fi].file))
        .collect();

    // Symbol table: free fns, methods, and (owner, method) pairs.
    let mut free: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut methods: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut owned: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    // File stem → free fns, for `module::func` calls.
    let mut by_stem: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    for (n, &(fi, xi)) in nodes.iter().enumerate() {
        let f = &items[fi].fns[xi];
        match &f.owner {
            Some(owner) => {
                methods.entry(&f.name).or_default().push(n);
                owned.entry((owner, &f.name)).or_default().push(n);
            }
            None => {
                free.entry(&f.name).or_default().push(n);
                let file = &items[fi].file;
                let stem = file
                    .rsplit('/')
                    .next()
                    .unwrap_or(file)
                    .trim_end_matches(".rs");
                by_stem.entry((stem, &f.name)).or_default().push(n);
            }
        }
    }

    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for (n, &(fi, xi)) in nodes.iter().enumerate() {
        let f = &items[fi].fns[xi];
        let vis = &visible[fi];
        let out = &mut edges[n];
        // Candidates survive only if the calling file imports (or owns)
        // their crate; returns whether anything landed.
        let push = |out: &mut Vec<usize>, t: &[usize]| -> bool {
            let before = out.len();
            out.extend(t.iter().filter(|&&m| vis.contains(node_crate[m])));
            out.len() > before
        };
        for call in &f.calls {
            match &call.target {
                CallTarget::Free(name) => {
                    if let Some(t) = free.get(name.as_str()) {
                        push(out, t);
                    }
                }
                CallTarget::Method { name, on_self } => {
                    let own_hit = *on_self
                        && f.owner.as_deref().is_some_and(|o| {
                            owned.get(&(o, name.as_str())).is_some_and(|t| push(out, t))
                        });
                    if !own_hit {
                        if let Some(t) = methods.get(name.as_str()) {
                            push(out, t);
                        }
                    }
                }
                CallTarget::Qualified { qualifier, name } => {
                    if let Some(t) = owned.get(&(qualifier.as_str(), name.as_str())) {
                        push(out, t);
                    } else if let Some(t) = by_stem.get(&(qualifier.as_str(), name.as_str())) {
                        push(out, t);
                    } else if qualifier == "Self" {
                        if let Some(t) = methods.get(name.as_str()) {
                            push(out, t);
                        }
                    }
                }
            }
        }
        out.sort_unstable();
        out.dedup();
    }

    WorkspaceGraph {
        items,
        nodes,
        edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::tokenizer::lex;

    fn graph_of(srcs: &[(&str, &str)]) -> (Vec<FileItems>, ()) {
        let items: Vec<FileItems> = srcs.iter().map(|(l, s)| parse(l, &lex(s))).collect();
        (items, ())
    }

    #[test]
    fn free_call_edges_cross_files() {
        let (items, _) = graph_of(&[
            (
                "crates/a/src/one.rs",
                "use tetriserve_b::two::helper;\nfn caller() { helper(); }",
            ),
            (
                "crates/b/src/two.rs",
                "fn helper() { leaf(); }\nfn leaf() {}",
            ),
        ]);
        let g = build(&items);
        assert_eq!(g.nodes.len(), 3);
        let caller = 0;
        let helper = 1;
        let leaf = 2;
        assert_eq!(g.edges[caller], vec![helper]);
        assert_eq!(g.edges[helper], vec![leaf]);
        let reach = g.reach(&[caller]);
        assert_eq!(g.chain_to(&reach, leaf), vec![caller, helper, leaf]);
    }

    #[test]
    fn unimported_crates_are_not_resolution_targets() {
        // Same call, no `use tetriserve_b` edge: the candidate is
        // invisible and no edge forms — common names (`next`, `get`)
        // must not weld unrelated crates together.
        let (items, _) = graph_of(&[
            ("crates/a/src/one.rs", "fn caller() { helper(); }"),
            ("crates/b/src/two.rs", "fn helper() {}"),
        ]);
        let g = build(&items);
        assert_eq!(g.edges[0], Vec::<usize>::new());
        // Within one crate, sibling modules resolve without imports.
        let (items, _) = graph_of(&[
            ("crates/a/src/one.rs", "fn caller() { helper(); }"),
            ("crates/a/src/two.rs", "fn helper() {}"),
        ]);
        let g = build(&items);
        assert_eq!(g.edges[0], vec![1]);
    }

    #[test]
    fn self_method_resolves_to_own_impl_first() {
        let (items, _) = graph_of(&[(
            "crates/a/src/one.rs",
            "impl A {\n    fn go(&self) { self.helper(); }\n    fn helper(&self) {}\n}\nimpl B {\n    fn helper(&self) {}\n}",
        )]);
        let g = build(&items);
        // A::go → A::helper only (not B::helper).
        assert_eq!(g.edges[0], vec![1]);
    }

    #[test]
    fn unqualified_method_fans_out_to_all_impls() {
        let (items, _) = graph_of(&[(
            "crates/a/src/one.rs",
            "fn drive(p: &mut dyn Policy) { p.schedule(); }\nimpl Policy for X {\n    fn schedule(&mut self) {}\n}\nimpl Policy for Y {\n    fn schedule(&mut self) {}\n}",
        )]);
        let g = build(&items);
        assert_eq!(g.edges[0], vec![1, 2]);
    }

    #[test]
    fn module_qualified_call_resolves_by_file_stem() {
        let (items, _) = graph_of(&[
            (
                "crates/f/src/driver.rs",
                "fn route_or_shed() { admission::coordinate(); }",
            ),
            ("crates/f/src/admission.rs", "pub fn coordinate() {}"),
        ]);
        let g = build(&items);
        assert_eq!(g.edges[0], vec![1]);
    }

    #[test]
    fn entry_points_discovered_structurally() {
        let (items, _) = graph_of(&[
            (
                "crates/core/src/scheduler.rs",
                "impl Policy for TetriServePolicy {\n    fn schedule(&mut self) {}\n}",
            ),
            (
                "crates/fleet/src/router.rs",
                "impl Router for RoundRobinRouter {\n    fn route(&mut self) {}\n}",
            ),
            (
                "crates/fleet/src/rebalance.rs",
                "impl Rebalancer for EdfRebalancer {\n    fn plan(&mut self) {}\n}",
            ),
            ("crates/fleet/src/admission.rs", "pub fn coordinate() {}"),
            (
                "crates/core/src/stage.rs",
                "pub fn plan_stage_dispatch() {}",
            ),
            (
                "crates/fleet/src/driver.rs",
                "impl FleetSim {\n    fn run(&mut self) {}\n}",
            ),
            (
                "crates/bench/src/experiment.rs",
                "fn run_policies() { std::thread::scope(|s| { s.spawn(|| {}); }); }",
            ),
        ]);
        let g = build(&items);
        let ep = g.entry_points();
        assert_eq!(ep.determinism.len(), 5); // schedule, route, plan, coordinate, plan_stage_dispatch

        // The round-loop files' fns (scheduler.rs, driver.rs); spawning
        // threads elsewhere roots nothing.
        assert_eq!(ep.panic.len(), 2);
    }

    #[test]
    fn test_fns_are_not_nodes() {
        let (items, _) = graph_of(&[(
            "crates/a/src/one.rs",
            "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn helper() { live(); }\n}",
        )]);
        let g = build(&items);
        assert_eq!(g.nodes.len(), 1);
    }
}
