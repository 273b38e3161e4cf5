//! Workspace-level report: human text and a machine-readable JSON form
//! (`tetrilint/v2` — v1 plus a per-violation `chain` field for the
//! interprocedural taint findings) that CI archives as a build
//! artifact.

use crate::rules::{AllowRecord, Violation};

/// Aggregated result of scanning the workspace (or a fixture set).
#[derive(Debug, Default)]
pub struct LintReport {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// All violations, sorted by (file, line, rule).
    pub violations: Vec<Violation>,
    /// All allow annotations, sorted by (file, line).
    pub allows: Vec<AllowRecord>,
}

impl LintReport {
    /// True when no rule fired anywhere.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Annotations no violation matched — stale justifications worth
    /// pruning. Always counted in the report; fatal under `--strict`
    /// (see [`LintReport::enforce_unused_allows`]).
    pub fn unused_allows(&self) -> usize {
        self.allows.iter().filter(|a| !a.used).count()
    }

    /// `--strict` mode: promote every unused allow annotation to an
    /// `unused-allow` violation. An allow that silences nothing is a
    /// stale justification — the code it excused was fixed or deleted —
    /// and leaving it in place pre-authorizes a future regression at
    /// that site. Call after all files are absorbed; re-sorts the report.
    pub fn enforce_unused_allows(&mut self) {
        for a in &self.allows {
            if !a.used {
                self.violations.push(Violation {
                    file: a.file.clone(),
                    line: a.line,
                    rule: "unused-allow",
                    message: format!(
                        "allow({}) matched no violation; delete the stale annotation",
                        a.rule
                    ),
                    chain: Vec::new(),
                });
            }
        }
        self.finish();
    }

    /// Merge one file's scan into the report.
    pub fn absorb(&mut self, scan: crate::rules::FileScan) {
        self.files_scanned += 1;
        self.violations.extend(scan.violations);
        self.allows.extend(scan.allows);
    }

    /// Canonical ordering so output is diffable run-to-run.
    pub fn finish(&mut self) {
        self.violations
            .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
        self.allows
            .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    }

    /// `file:line: rule: message` lines (taint findings add an indented
    /// `chain:` line, `entry → … → sink @ file:line`) plus a summary
    /// trailer.
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        for v in &self.violations {
            s.push_str(&format!(
                "{}:{}: {}: {}\n",
                v.file, v.line, v.rule, v.message
            ));
            if !v.chain.is_empty() {
                let hops: Vec<&str> = v.chain.iter().map(|h| h.func.as_str()).collect();
                s.push_str(&format!(
                    "    chain: {} @ {}:{}\n",
                    hops.join(" → "),
                    v.file,
                    v.line
                ));
            }
        }
        s.push_str(&format!(
            "tetrilint: {} violation{}, {} allow{} ({} unused) across {} files\n",
            self.violations.len(),
            if self.violations.len() == 1 { "" } else { "s" },
            self.allows.len(),
            if self.allows.len() == 1 { "" } else { "s" },
            self.unused_allows(),
            self.files_scanned,
        ));
        s
    }

    /// The `tetrilint/v2` JSON document (hand-rolled — zero deps).
    /// v2 = v1 plus a `chain` array on taint violations, each hop
    /// `{fn, file, line}` from entry point to sink-bearing function.
    pub fn render_json(&self) -> String {
        let mut s = String::from("{\n  \"schema\": \"tetrilint/v2\",\n");
        s.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        s.push_str("  \"violations\": [");
        for (i, v) in self.violations.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            let mut chain = String::new();
            if !v.chain.is_empty() {
                chain.push_str(", \"chain\": [");
                for (j, h) in v.chain.iter().enumerate() {
                    if j > 0 {
                        chain.push_str(", ");
                    }
                    chain.push_str(&format!(
                        "{{\"fn\": \"{}\", \"file\": \"{}\", \"line\": {}}}",
                        esc(&h.func),
                        esc(&h.file),
                        h.line
                    ));
                }
                chain.push(']');
            }
            s.push_str(&format!(
                "    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"{}}}",
                esc(&v.file),
                v.line,
                v.rule,
                esc(&v.message),
                chain
            ));
        }
        s.push_str("\n  ],\n  \"allows\": [");
        for (i, a) in self.allows.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            s.push_str(&format!(
                "    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \
                 \"file_scope\": {}, \"used\": {}, \"reason\": \"{}\"}}",
                esc(&a.file),
                a.line,
                esc(&a.rule),
                a.file_scope,
                a.used,
                esc(&a.reason)
            ));
        }
        s.push_str(&format!(
            "\n  ],\n  \"summary\": {{\"violations\": {}, \"allows\": {}, \
             \"unused_allows\": {}}}\n}}\n",
            self.violations.len(),
            self.allows.len(),
            self.unused_allows()
        ));
        s
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
