//! The rule engine: three rule families over the token stream.
//!
//! Every rule exists because the reproduction's headline claim — the
//! simulator is a faithful, *deterministic* substrate and the perf
//! harness's FNV-1a decision digests are comparable across runs — is a
//! property of the whole codebase, not of any one module. See DESIGN.md
//! §11 for the rule-by-rule rationale.
//!
//! | rule                   | family            | scope                      |
//! |------------------------|-------------------|----------------------------|
//! | `wall-clock`           | determinism       | every scanned file         |
//! | `ambient-rng`          | determinism       | every scanned file         |
//! | `unordered-iter`       | determinism       | decision-path crates       |
//! | `unordered-collect`    | determinism       | every scanned file         |
//! | `unwrap`               | panic-discipline  | hot-path modules           |
//! | `slice-index`          | panic-discipline  | hot-path modules           |
//! | `sim-time-monotonicity`| panic-discipline  | every scanned file         |
//! | `nominal-step-time`    | fault-discipline  | speed-aware core modules   |
//! | `units-of-measure`     | unit-discipline   | time-unit-sensitive files  |
//! | `float-eq`             | float-discipline  | every scanned file         |
//! | `partial-cmp-unwrap`   | float-discipline  | every scanned file         |
//! | `bad-annotation`       | (meta)            | every scanned file         |
//! | `unused-allow`         | (meta, `--strict`)| every scanned file         |
//!
//! Decision-path crates are the ones whose control flow picks schedules:
//! `core`, `simulator`, `metrics`, `costmodel`, `baselines`, `fleet`.
//! Hot-path modules are the per-round inner loop: `dp.rs`, `scheduler.rs`,
//! `batching.rs`, `engine.rs`. `#[cfg(test)]` items are skipped — tests
//! are not decision paths and `unwrap` is idiomatic there.

use crate::tokenizer::{AllowScope, Lexed, Tok, TokKind};

/// Every rule name the annotation grammar accepts.
pub const RULE_NAMES: &[&str] = &[
    "wall-clock",
    "ambient-rng",
    "unordered-iter",
    "unordered-collect",
    "unwrap",
    "slice-index",
    "sim-time-monotonicity",
    "nominal-step-time",
    "units-of-measure",
    "float-eq",
    "partial-cmp-unwrap",
    "taint-determinism",
    "taint-panic",
    "bad-annotation",
    "unused-allow",
];

/// Crate sub-paths whose files count as scheduling decision paths.
pub(crate) const DECISION_PATHS: &[&str] = &[
    "crates/core/src/",
    "crates/simulator/src/",
    "crates/metrics/src/",
    "crates/costmodel/src/",
    "crates/baselines/src/",
    "crates/fleet/src/",
    "crates/traffic/src/",
];

/// Per-round inner-loop modules held to panic discipline.
pub(crate) const HOT_FILES: &[&str] = &["dp.rs", "scheduler.rs", "batching.rs", "engine.rs"];

/// Modules that reason about step durations while GPUs may be slowed by
/// perf faults. A raw `CostTable::step_time`/`t_min` read there assumes
/// nominal speed; sites that *mean* nominal (e.g. demand accounting in
/// nominal GPU-seconds) must say so with an allow annotation.
const SPEED_AWARE_FILES: &[&str] = &[
    "scheduler.rs",
    "feasibility.rs",
    "policy.rs",
    "server.rs",
    "quality.rs",
];

/// Modules whose arithmetic spans three time units — integer microseconds
/// (`SimTime`/`SimDuration::as_micros`), float wall-seconds
/// (`as_secs_f64`/`from_secs_f64`), and float GPU-seconds (demand) —
/// where a missed 1e6 scale factor produces numbers that look plausible
/// per-term and are silently wrong in aggregate.
const UNITS_FILES: &[&str] = &["feasibility.rs", "steptime.rs", "interconnect.rs"];

/// Unordered-collection methods whose yield order is the RandomState hash
/// order (`retain`/`drain` visit in that order too).
const UNORDERED_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
    "retain",
];

/// One hop of an interprocedural taint chain (`entry → … → sink`).
#[derive(Debug, Clone)]
pub struct ChainHop {
    /// `Type::name` or bare `name` of the function.
    pub func: String,
    /// Workspace-relative file the function is defined in.
    pub file: String,
    /// 1-based line of the `fn` item.
    pub line: u32,
}

/// One rule hit, after allow-annotation filtering.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Workspace-relative path (or the fixture label in unit tests).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule name from [`RULE_NAMES`].
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
    /// For `taint-*` rules: the entry→…→sink call chain (the violation's
    /// own `file:line` locates the sink). Empty for per-file rules.
    pub chain: Vec<ChainHop>,
}

/// One `tetrilint: allow` annotation, with whether anything used it.
#[derive(Debug, Clone)]
pub struct AllowRecord {
    /// Workspace-relative path.
    pub file: String,
    /// Line of the annotation comment.
    pub line: u32,
    /// Rule it silences.
    pub rule: String,
    /// Justification text after `--`.
    pub reason: String,
    /// `allow-file` vs. line-scoped `allow`.
    pub file_scope: bool,
    /// Whether at least one would-be violation matched it.
    pub used: bool,
}

/// Result of scanning one file.
#[derive(Debug, Default)]
pub struct FileScan {
    /// Violations surviving allow filtering, sorted by (line, rule).
    pub violations: Vec<Violation>,
    /// Every annotation in the file.
    pub allows: Vec<AllowRecord>,
}

/// Run every rule against one lexed file.
pub fn check(file_label: &str, lexed: &Lexed) -> FileScan {
    let norm = file_label.replace('\\', "/");
    let mut allows = Allows::new(lexed, &norm);
    let violations = check_file(&norm, lexed, &mut allows);
    FileScan {
        violations,
        allows: allows.into_records(),
    }
}

/// Per-file rule pass only; the caller owns `allows` so the workspace
/// taint pass can consult (and mark used) the same annotations later.
pub(crate) fn check_file(norm: &str, lexed: &Lexed, allows: &mut Allows) -> Vec<Violation> {
    let basename = norm.rsplit('/').next().unwrap_or(norm);
    let decision_path = DECISION_PATHS.iter().any(|p| norm.contains(p));
    let hot_path = HOT_FILES.contains(&basename);
    let speed_aware = decision_path && SPEED_AWARE_FILES.contains(&basename);
    let units_scoped = UNITS_FILES.contains(&basename);

    let live = live_tokens(lexed);
    let mut raw: Vec<(u32, &'static str, String)> = Vec::new();

    // Malformed or unknown-rule annotations are violations themselves:
    // a typo must not silently disable a rule.
    for m in &lexed.malformed {
        raw.push((m.line, "bad-annotation", m.message.clone()));
    }
    for a in &lexed.annotations {
        if !RULE_NAMES.contains(&a.rule.as_str()) {
            raw.push((
                a.line,
                "bad-annotation",
                format!(
                    "unknown rule `{}` (known: {})",
                    a.rule,
                    RULE_NAMES.join(", ")
                ),
            ));
        }
    }

    rule_wall_clock(&live, &mut raw);
    rule_ambient_rng(&live, &mut raw);
    if decision_path {
        rule_unordered_iter(&live, &mut raw);
    }
    // `unordered-collect` runs everywhere, but defers to `unordered-iter`
    // where both fire on the same line — decision paths already ban the
    // iteration itself, and one site should not cost two annotations.
    let iter_lines: Vec<u32> = raw
        .iter()
        .filter(|(_, rule, _)| *rule == "unordered-iter")
        .map(|(line, _, _)| *line)
        .collect();
    let mut collect_hits: Vec<(u32, &'static str, String)> = Vec::new();
    rule_unordered_collect(&live, &mut collect_hits);
    raw.extend(
        collect_hits
            .into_iter()
            .filter(|(line, _, _)| !iter_lines.contains(line)),
    );
    if hot_path {
        rule_unwrap(&live, &mut raw);
        rule_slice_index(&live, &mut raw);
    }
    rule_sim_time_monotonicity(&live, &mut raw);
    if speed_aware {
        rule_nominal_step_time(&live, &mut raw);
    }
    if units_scoped {
        rule_units_of_measure(&live, &mut raw);
    }
    rule_float_eq(&live, &mut raw);
    rule_partial_cmp_unwrap(&live, &mut raw);

    let mut violations: Vec<Violation> = raw
        .into_iter()
        .filter(|(line, rule, _)| !allows.covers(*line, rule))
        .map(|(line, rule, message)| Violation {
            file: norm.to_string(),
            line,
            rule,
            message,
            chain: Vec::new(),
        })
        .collect();
    violations.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    violations
}

/// The file's token stream with `#[cfg(test)]` items filtered out.
pub(crate) fn live_tokens(lexed: &Lexed) -> Vec<&Tok> {
    let mask = test_mask(&lexed.tokens);
    lexed
        .tokens
        .iter()
        .zip(&mask)
        .filter(|(_, &m)| !m)
        .map(|(t, _)| t)
        .collect()
}

/// Marks tokens covered by a `#[cfg(test)]` attribute and the item that
/// follows it (to the matching close brace, or `;` for brace-less items).
/// Shared with the item parser, which excludes test fns from the graph.
pub(crate) fn test_mask_of(toks: &[Tok]) -> Vec<bool> {
    test_mask(toks)
}

fn test_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0;
    while i + 6 < toks.len() {
        let attr = toks[i].text == "#"
            && toks[i + 1].text == "["
            && toks[i + 2].text == "cfg"
            && toks[i + 3].text == "("
            && toks[i + 4].text == "test"
            && toks[i + 5].text == ")"
            && toks[i + 6].text == "]";
        if !attr {
            i += 1;
            continue;
        }
        let mut depth = 0usize;
        let mut j = i + 7;
        let end = loop {
            let Some(t) = toks.get(j) else {
                break toks.len();
            };
            match t.text.as_str() {
                "{" => depth += 1,
                "}" => {
                    if depth <= 1 {
                        break j + 1;
                    }
                    depth -= 1;
                }
                ";" if depth == 0 => break j + 1,
                _ => {}
            }
            j += 1;
        };
        for m in &mut mask[i..end] {
            *m = true;
        }
        i = end;
    }
    mask
}

/// Allow-annotation bookkeeping: file-scoped and line-scoped silencers.
pub(crate) struct Allows {
    records: Vec<AllowRecord>,
    /// Per line-scoped record, the set of lines it silences: its own line
    /// (trailing comment) and the next line containing code (standalone
    /// comment above the offending statement).
    targets: Vec<Option<(u32, u32)>>,
}

impl Allows {
    pub(crate) fn new(lexed: &Lexed, file: &str) -> Allows {
        let mut records = Vec::new();
        let mut targets = Vec::new();
        for a in &lexed.annotations {
            let file_scope = a.scope == AllowScope::File;
            records.push(AllowRecord {
                file: file.to_string(),
                line: a.line,
                rule: a.rule.clone(),
                reason: a.reason.clone(),
                file_scope,
                used: false,
            });
            if file_scope {
                targets.push(None);
            } else {
                let next_code_line = lexed
                    .tokens
                    .iter()
                    .map(|t| t.line)
                    .find(|&l| l > a.line)
                    .unwrap_or(a.line);
                targets.push(Some((a.line, next_code_line)));
            }
        }
        Allows { records, targets }
    }

    /// True (and marks the annotation used) if some allow covers the hit.
    fn covers(&mut self, line: u32, rule: &str) -> bool {
        for (rec, target) in self.records.iter_mut().zip(&self.targets) {
            if rec.rule != rule {
                continue;
            }
            let hit = match target {
                None => true, // file scope
                Some((own, next)) => line == *own || line == *next,
            };
            if hit {
                rec.used = true;
                return true;
            }
        }
        false
    }

    /// Like [`Self::covers`] for any of several rule names — the taint
    /// passes accept both their own name and the sink's per-file rule
    /// name (a sink justified for the per-file rule is justified for
    /// every chain that ends on it).
    pub(crate) fn covers_any(&mut self, line: u32, rules: &[&str]) -> bool {
        rules.iter().any(|r| self.covers(line, r))
    }

    pub(crate) fn into_records(self) -> Vec<AllowRecord> {
        self.records
    }
}

/// `.step_time(` / `.t_min(` in speed-aware modules: a nominal per-step
/// estimate sizes dispatches as if every GPU ran at profiled speed, so a
/// straggler or throttle overruns the round boundary (and EDF admits work
/// the derated node cannot finish). Decision code must route through
/// `SchedContext::effective_step_time` / effective capacity; sites that
/// genuinely mean nominal work (demand in nominal GPU-seconds, quality
/// debt) annotate why.
fn rule_nominal_step_time(toks: &[&Tok], out: &mut Vec<(u32, &'static str, String)>) {
    for (k, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || (t.text != "step_time" && t.text != "t_min") {
            continue;
        }
        // Method call only: `. step_time (` / `. t_min (`.
        if k == 0 || toks[k - 1].text != "." || toks.get(k + 1).is_none_or(|t| t.text != "(") {
            continue;
        }
        out.push((
            t.line,
            "nominal-step-time",
            format!(
                "`.{}()` reads the nominal (fault-free) step time; under slowdown \
                 faults use `effective_step_time`/effective capacity, or annotate \
                 why nominal is correct here",
                t.text
            ),
        ));
    }
}

/// `.as_micros()` (integer microseconds) and `as_secs_f64`/
/// `from_secs_f64` (float seconds, the unit GPU-second demand is priced
/// in) mixed inside one statement in a units-sensitive module: the
/// hidden 1e6 scale factor is the classic silent unit bug — each term
/// looks plausible alone and the sum is wrong by six orders of
/// magnitude. Convert to one unit at the statement boundary, or
/// annotate the site stating which unit the result carries.
fn rule_units_of_measure(toks: &[&Tok], out: &mut Vec<(u32, &'static str, String)>) {
    let mut hit_lines: Vec<u32> = Vec::new();
    for (k, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || t.text != "as_micros" {
            continue;
        }
        // Method call only: `. as_micros (`.
        if k == 0 || toks[k - 1].text != "." || toks.get(k + 1).is_none_or(|t| t.text != "(") {
            continue;
        }
        // Statement window: back to the previous `;`/`{`/`}`, forward to
        // the next `;` (or EOF for tail expressions).
        let stmt_start = (0..k)
            .rev()
            .find(|&j| matches!(toks[j].text.as_str(), ";" | "{" | "}"))
            .map_or(0, |j| j + 1);
        let stmt_end = (k..toks.len())
            .find(|&j| toks[j].text == ";")
            .unwrap_or(toks.len());
        let seconds_site = (stmt_start..stmt_end).find(|&j| {
            toks[j].kind == TokKind::Ident
                && (toks[j].text == "as_secs_f64" || toks[j].text == "from_secs_f64")
        });
        let Some(s) = seconds_site else { continue };
        if hit_lines.contains(&t.line) {
            continue; // one hit per line, however many calls share it
        }
        hit_lines.push(t.line);
        out.push((
            t.line,
            "units-of-measure",
            format!(
                "`.as_micros()` (integer µs) mixed with `{}` (float seconds) in one \
                 statement; convert to a single unit first or annotate which unit \
                 the result carries",
                toks[s].text
            ),
        ));
    }
}

/// `Instant::now()` / `SystemTime`: wall-clock reads make runs
/// non-reproducible; simulated components must use `SimTime`.
fn rule_wall_clock(toks: &[&Tok], out: &mut Vec<(u32, &'static str, String)>) {
    for (k, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        if t.text == "Instant"
            && toks.get(k + 1).is_some_and(|t| t.text == "::")
            && toks.get(k + 2).is_some_and(|t| t.text == "now")
        {
            out.push((
                t.line,
                "wall-clock",
                "`Instant::now()` reads host wall-clock; simulated paths must use SimTime"
                    .to_string(),
            ));
        }
        if t.text == "SystemTime" {
            out.push((
                t.line,
                "wall-clock",
                "`SystemTime` reads host wall-clock; simulated paths must use SimTime".to_string(),
            ));
        }
    }
}

/// `thread_rng()` / `ThreadRng`: ambient OS-seeded randomness breaks
/// same-seed reproducibility; draw from the run's seeded `SimRng`.
fn rule_ambient_rng(toks: &[&Tok], out: &mut Vec<(u32, &'static str, String)>) {
    for t in toks {
        if t.kind == TokKind::Ident && (t.text == "thread_rng" || t.text == "ThreadRng") {
            out.push((
                t.line,
                "ambient-rng",
                "ambient OS-seeded RNG; draw from the run's seeded SimRng instead".to_string(),
            ));
        }
    }
}

/// Unordered `HashMap`/`HashSet` iteration in decision-path crates: std's
/// RandomState is seeded per map instance, so iteration order differs
/// between same-seed runs — the exact bug class behind the PR-2 digest
/// mismatches. Bindings are found lexically: any identifier declared with
/// a `HashMap`/`HashSet` type ascription in this file.
pub(crate) fn rule_unordered_iter(toks: &[&Tok], out: &mut Vec<(u32, &'static str, String)>) {
    let bindings = hash_bindings(toks);
    if bindings.is_empty() {
        return;
    }
    for (k, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || !bindings.contains(&t.text.as_str()) {
            continue;
        }
        let name = &t.text;
        // `name.iter()` / `.values()` / `.into_values()` / `.drain()` …
        if toks.get(k + 1).is_some_and(|t| t.text == ".")
            && toks
                .get(k + 2)
                .is_some_and(|t| UNORDERED_METHODS.contains(&t.text.as_str()))
            && toks.get(k + 3).is_some_and(|t| t.text == "(")
        {
            let method = &toks[k + 2].text;
            out.push((
                t.line,
                "unordered-iter",
                format!(
                    "`{name}.{method}()` iterates a std HashMap/HashSet in hash order \
                     (randomized per map); use BTreeMap/BTreeSet or collect-and-sort"
                ),
            ));
            continue;
        }
        // `for x in &name {` / `for x in name {`
        let mut p = k;
        while p >= 1 && (toks[p - 1].text == "&" || toks[p - 1].text == "mut") {
            p -= 1;
        }
        if p >= 1
            && toks[p - 1].text == "in"
            && toks[p - 1].kind == TokKind::Ident
            && toks.get(k + 1).is_some_and(|t| t.text == "{")
        {
            out.push((
                t.line,
                "unordered-iter",
                format!(
                    "`for … in {name}` iterates a std HashMap/HashSet in hash order \
                     (randomized per map); use BTreeMap/BTreeSet or collect-and-sort"
                ),
            ));
        }
    }
}

/// Identifiers declared with a `HashMap`/`HashSet` type ascription in
/// this file (let bindings, fn params, struct fields), plus let bindings
/// whose *initializer* mentions `HashMap`/`HashSet` with no ascription at
/// all (`let m = HashMap::new()`, `let s = HashSet::with_capacity(8)` —
/// type inference hides the container but not the hash order) — the
/// lexical binding set shared by `unordered-iter` and `unordered-collect`.
fn hash_bindings<'a>(toks: &[&'a Tok]) -> Vec<&'a str> {
    let mut bindings: Vec<&str> = Vec::new();
    for (k, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || (t.text != "HashMap" && t.text != "HashSet") {
            continue;
        }
        // Walk back over `std :: collections ::` path segments…
        let mut p = k;
        while p >= 2 && toks[p - 1].text == "::" {
            p -= 2;
        }
        // …and over `&`, `mut` and lifetimes in the type position…
        while p >= 1
            && (toks[p - 1].text == "&"
                || toks[p - 1].text == "mut"
                || toks[p - 1].kind == TokKind::Lifetime)
        {
            p -= 1;
        }
        // …to a `name :` type ascription (let binding, fn param, field).
        if p >= 2 && toks[p - 1].text == ":" && toks[p - 2].kind == TokKind::Ident {
            bindings.push(&toks[p - 2].text);
        }
    }
    // Ascription-free let bindings: `let [mut] name = …HashMap/HashSet…;`
    // — the initializer names the container even when the type is
    // inferred. Scanning stops at the statement's `;` (tracking nesting so
    // a closure body's semicolons don't end it early).
    for (k, t) in toks.iter().enumerate() {
        if t.text != "let" {
            continue;
        }
        let mut p = k + 1;
        if toks.get(p).is_some_and(|t| t.text == "mut") {
            p += 1;
        }
        let Some(name) = toks.get(p).filter(|t| t.kind == TokKind::Ident) else {
            continue;
        };
        if toks.get(p + 1).is_none_or(|t| t.text != "=") {
            continue;
        }
        let mut depth = 0usize;
        for j in p + 2..toks.len() {
            match toks[j].text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth = depth.saturating_sub(1),
                ";" if depth == 0 => break,
                _ => {
                    if toks[j].kind == TokKind::Ident
                        && (toks[j].text == "HashMap" || toks[j].text == "HashSet")
                        && !bindings.contains(&name.text.as_str())
                    {
                        bindings.push(&name.text);
                    }
                }
            }
        }
    }
    bindings
}

/// `map.iter()…collect()` into a `Vec` with no subsequent sort: the Vec
/// freezes the per-instance hash order, so two same-seed runs hold the
/// same elements in different positions. Unlike `unordered-iter` this
/// fires in *every* file — a bench or workload crate that collects hash
/// order into a report poisons digest comparisons just as surely as a
/// scheduler would. Collecting into `BTreeMap`/`BTreeSet` (re-sorts) or
/// `HashMap`/`HashSet` (no materialized order) is fine, as is a
/// `sort*()` call on the collected binding later in the file.
fn rule_unordered_collect(toks: &[&Tok], out: &mut Vec<(u32, &'static str, String)>) {
    let bindings = hash_bindings(toks);
    if bindings.is_empty() {
        return;
    }
    for (k, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || !bindings.contains(&t.text.as_str()) {
            continue;
        }
        let unordered_site = toks.get(k + 1).is_some_and(|t| t.text == ".")
            && toks
                .get(k + 2)
                .is_some_and(|t| UNORDERED_METHODS.contains(&t.text.as_str()))
            && toks.get(k + 3).is_some_and(|t| t.text == "(");
        if !unordered_site {
            continue;
        }
        // Statement window: back to the previous `;`/`{`/`}`, forward to
        // the next `;` (or EOF for tail expressions).
        let stmt_start = (0..k)
            .rev()
            .find(|&j| matches!(toks[j].text.as_str(), ";" | "{" | "}"))
            .map_or(0, |j| j + 1);
        let stmt_end = (k..toks.len())
            .find(|&j| toks[j].text == ";")
            .unwrap_or(toks.len());
        let Some(c) = (k + 3..stmt_end)
            .find(|&j| toks[j].kind == TokKind::Ident && toks[j].text == "collect")
        else {
            continue;
        };
        // The collect target, where lexically visible (turbofish after
        // `collect`, or the let-ascription ahead of the chain). A BTree
        // target re-sorts; a hash target materializes no order. Anything
        // else — Vec, or inferred — freezes hash order.
        let target_ordered = (stmt_start..k).chain(c..stmt_end.min(c + 8)).any(|j| {
            toks[j].text.starts_with("BTree")
                || toks[j].text == "HashMap"
                || toks[j].text == "HashSet"
        });
        if target_ordered {
            continue;
        }
        // A later `sort*()` on the collected binding restores a canonical
        // order, which is the sanctioned collect-and-sort idiom.
        let bound = if toks.get(stmt_start).is_some_and(|t| t.text == "let") {
            let p = if toks.get(stmt_start + 1).is_some_and(|t| t.text == "mut") {
                stmt_start + 2
            } else {
                stmt_start + 1
            };
            toks.get(p)
                .filter(|t| t.kind == TokKind::Ident)
                .map(|t| t.text.as_str())
        } else {
            None
        };
        let sorted_later = bound.is_some_and(|name| {
            (stmt_end..toks.len()).any(|j| {
                toks[j].kind == TokKind::Ident
                    && toks[j].text == name
                    && toks.get(j + 1).is_some_and(|t| t.text == ".")
                    && toks.get(j + 2).is_some_and(|t| t.text.starts_with("sort"))
            })
        });
        if sorted_later {
            continue;
        }
        let name = &t.text;
        let method = &toks[k + 2].text;
        out.push((
            t.line,
            "unordered-collect",
            format!(
                "`{name}.{method}()…collect` freezes std HashMap/HashSet hash order \
                 into the result; sort the collected Vec or collect into a BTree container"
            ),
        ));
    }
}

/// `unwrap()`/`expect()` in hot-path modules: a panic mid-round kills the
/// whole serve; either handle the case or justify the invariant inline.
pub(crate) fn rule_unwrap(toks: &[&Tok], out: &mut Vec<(u32, &'static str, String)>) {
    for (k, t) in toks.iter().enumerate() {
        if t.text == "."
            && toks.get(k + 1).is_some_and(|t| {
                t.kind == TokKind::Ident && (t.text == "unwrap" || t.text == "expect")
            })
            && toks.get(k + 2).is_some_and(|t| t.text == "(")
        {
            out.push((
                toks[k + 1].line,
                "unwrap",
                format!(
                    "`.{}()` in a hot-path module can panic mid-round; handle the case or \
                     annotate the invariant",
                    toks[k + 1].text
                ),
            ));
        }
    }
}

/// Bare indexing in hot-path modules: `xs[i]` panics on out-of-bounds;
/// pervasive DP-buffer indexing earns a justified `allow-file`.
pub(crate) fn rule_slice_index(toks: &[&Tok], out: &mut Vec<(u32, &'static str, String)>) {
    for (k, t) in toks.iter().enumerate() {
        if t.text != "[" || k == 0 {
            continue;
        }
        let prev = toks[k - 1];
        // Keywords before `[` mean a slice *type* (`&mut [T]`) or other
        // non-index position, never an indexing expression.
        let keyword = matches!(
            prev.text.as_str(),
            "mut" | "dyn" | "in" | "as" | "return" | "else" | "match" | "if" | "const"
        );
        let indexable =
            (prev.kind == TokKind::Ident && !keyword) || prev.text == ")" || prev.text == "]";
        // `vec![…]` and attributes `#[…]` have `!`/`#` before the bracket
        // and are already excluded by the `indexable` test.
        if indexable {
            out.push((
                t.line,
                "slice-index",
                "bare index can panic on out-of-bounds in a hot-path module; use get() or \
                 annotate the sizing invariant"
                    .to_string(),
            ));
        }
    }
}

/// Bare subtraction on raw `.as_micros()` values: `SimTime` itself has no
/// `Sub<SimTime>` (by design — `saturating_since` is the sanctioned
/// difference), so the way underflow sneaks in is dropping to the raw u64
/// microsecond count and subtracting there. `t.as_micros() - n` (and
/// `n - t.as_micros()`) panics in debug builds and wraps to ~u64::MAX in
/// release — a silently corrupted timestamp in a digest-bearing run. Use
/// `saturating_since` / `saturating_sub`, or `checked_sub` with an
/// explicit decision; a genuinely un-underflowable probe earns a justified
/// allow.
fn rule_sim_time_monotonicity(toks: &[&Tok], out: &mut Vec<(u32, &'static str, String)>) {
    for (k, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || t.text != "as_micros" {
            continue;
        }
        // Method call only: `. as_micros ( )`.
        if k == 0
            || toks[k - 1].text != "."
            || toks.get(k + 1).is_none_or(|t| t.text != "(")
            || toks.get(k + 2).is_none_or(|t| t.text != ")")
        {
            continue;
        }
        // `….as_micros() - …`: the call result is the minuend.
        if toks.get(k + 3).is_some_and(|t| t.text == "-") {
            out.push((
                t.line,
                "sim-time-monotonicity",
                "raw `.as_micros()` subtraction can underflow (wraps in release); use \
                 saturating_since/saturating_sub or checked_sub"
                    .to_string(),
            ));
            continue;
        }
        // `… - recv.chain.as_micros()`: walk the receiver chain (an
        // `ident(.ident)*` path) back to the operator ahead of it and
        // check it is a *binary* minus — the token before it is
        // value-like, ruling out unary negation.
        let mut p = k - 1; // the `.` of `.as_micros`
        while p >= 2 && toks[p].text == "." && toks[p - 1].kind == TokKind::Ident {
            p -= 2;
        }
        if toks[p].text == "-" && p > 0 && matches!(toks[p - 1].kind, TokKind::Ident | TokKind::Int)
        {
            out.push((
                t.line,
                "sim-time-monotonicity",
                "raw `.as_micros()` as a subtrahend can underflow (wraps in release); use \
                 saturating_since/saturating_sub or checked_sub"
                    .to_string(),
            ));
        }
    }
}

/// `==`/`!=` where either side is lexically a float (literal, `f64`/`f32`
/// cast): exact float equality is almost never the intended comparison.
fn rule_float_eq(toks: &[&Tok], out: &mut Vec<(u32, &'static str, String)>) {
    for (k, t) in toks.iter().enumerate() {
        if t.text != "==" && t.text != "!=" {
            continue;
        }
        let float_before = k > 0
            && (toks[k - 1].kind == TokKind::Float
                || toks[k - 1].text == "f64"
                || toks[k - 1].text == "f32");
        let float_after = {
            // Skip a unary minus, then look for a float literal or an
            // `as f64` / `as f32` cast within the next few tokens.
            let start = if toks.get(k + 1).is_some_and(|t| t.text == "-") {
                k + 2
            } else {
                k + 1
            };
            toks.get(start).is_some_and(|t| t.kind == TokKind::Float)
                || (start..start + 4).any(|j| {
                    toks.get(j).is_some_and(|t| t.text == "as")
                        && toks
                            .get(j + 1)
                            .is_some_and(|t| t.text == "f64" || t.text == "f32")
                })
        };
        if float_before || float_after {
            out.push((
                t.line,
                "float-eq",
                format!(
                    "`{}` on a float expression; use total_cmp, an epsilon helper, or \
                     integer units",
                    t.text
                ),
            ));
        }
    }
}

/// `.partial_cmp(..).unwrap()/expect()`: panics on NaN and encodes an
/// unchecked finiteness assumption; `f64::total_cmp` is total and free.
fn rule_partial_cmp_unwrap(toks: &[&Tok], out: &mut Vec<(u32, &'static str, String)>) {
    for (k, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || t.text != "partial_cmp" {
            continue;
        }
        // Method call only — skip `fn partial_cmp` definitions in Ord/
        // PartialOrd impls.
        if k == 0 || toks[k - 1].text != "." {
            continue;
        }
        if toks.get(k + 1).is_none_or(|t| t.text != "(") {
            continue;
        }
        let mut depth = 1usize;
        let mut j = k + 2;
        while depth > 0 {
            let Some(t) = toks.get(j) else { break };
            match t.text.as_str() {
                "(" => depth += 1,
                ")" => depth -= 1,
                _ => {}
            }
            j += 1;
        }
        if toks.get(j).is_some_and(|t| t.text == ".")
            && toks
                .get(j + 1)
                .is_some_and(|t| t.text == "unwrap" || t.text == "expect")
        {
            out.push((
                t.line,
                "partial-cmp-unwrap",
                "`.partial_cmp(..).unwrap()/expect()` panics on NaN; use f64::total_cmp"
                    .to_string(),
            ));
        }
    }
}
