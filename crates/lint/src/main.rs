//! `tetrilint` — scan the workspace and exit non-zero on any violation.
//!
//! ```text
//! tetrilint [--json] [--strict] [ROOT]
//! ```
//!
//! With no `ROOT`, walks up from the current directory to the first
//! ancestor containing a `Cargo.toml` with a `[workspace]` section (so
//! `cargo run -p tetriserve-lint` works from any crate dir). `--json`
//! emits the `tetrilint/v2` document instead of `file:line:` text;
//! `--strict` additionally promotes unused allow annotations to
//! `unused-allow` violations. The exit code is 1 whenever violations
//! exist, so CI can gate on it.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut json = false;
    let mut strict = false;
    let mut root: Option<PathBuf> = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--json" => json = true,
            "--strict" => strict = true,
            "--help" | "-h" => {
                println!("usage: tetrilint [--json] [--strict] [ROOT]");
                return ExitCode::SUCCESS;
            }
            other if root.is_none() && !other.starts_with('-') => {
                root = Some(PathBuf::from(other));
            }
            other => {
                eprintln!("tetrilint: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    let root = match root.or_else(find_workspace_root) {
        Some(r) => r,
        None => {
            eprintln!("tetrilint: no workspace root found (pass it explicitly)");
            return ExitCode::from(2);
        }
    };

    match tetriserve_lint::scan_workspace(&root) {
        Ok(mut report) => {
            if strict {
                report.enforce_unused_allows();
            }
            if json {
                print!("{}", report.render_json());
            } else {
                print!("{}", report.render_text());
            }
            if report.is_clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("tetrilint: scan failed: {e}");
            ExitCode::from(2)
        }
    }
}

/// Nearest ancestor whose `Cargo.toml` declares `[workspace]`.
fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
