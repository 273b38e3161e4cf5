//! `tetrictl serve --trace` end to end: a generated trace replays cleanly,
//! and every malformed trace is rejected with exit code 1 and a
//! `bad trace` message instead of a panic.

use std::path::Path;
use std::process::{Command, Output};

const TETRICTL: &str = env!("CARGO_BIN_EXE_tetrictl");

fn tetrictl(args: &[&str]) -> Output {
    Command::new(TETRICTL)
        .args(args)
        .output()
        .expect("tetrictl runs")
}

/// A three-request trace from `tetrictl gen`, split into its lines.
fn generated_trace() -> Vec<String> {
    let out = tetrictl(&["gen", "--requests", "3"]);
    assert!(out.status.success(), "gen failed: {out:?}");
    let text = String::from_utf8(out.stdout).expect("utf-8 trace");
    let lines: Vec<String> = text.lines().map(str::to_owned).collect();
    assert_eq!(lines.len(), 4, "header + 3 requests: {text}");
    lines
}

/// Writes `lines` as a trace file named `name` and replays it.
fn serve_trace(name: &str, lines: &[String]) -> Output {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, lines.join("\n") + "\n").expect("write trace");
    let out = tetrictl(&["serve", "--trace", path.to_str().expect("utf-8 path")]);
    std::fs::remove_file(&path).expect("remove trace");
    out
}

/// Replaces field `field` of data line `line` (1 = first request).
fn with_field(lines: &[String], line: usize, field: usize, value: &str) -> Vec<String> {
    let mut out = lines.to_vec();
    let mut fields: Vec<&str> = lines[line].split(',').collect();
    fields[field] = value;
    out[line] = fields.join(",");
    out
}

#[test]
fn replay_serves_a_generated_trace_and_rejects_malformed_ones() {
    let lines = generated_trace();
    let out = serve_trace("cli_replay_ok.csv", &lines);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("served 3 requests"), "{stdout}");

    let first_id = lines[1].split(',').next().expect("id field").to_owned();
    let cases = [
        ("nan_arrival", with_field(&lines, 2, 1, "NaN")),
        ("inf_deadline", with_field(&lines, 2, 3, "inf")),
        ("negative_arrival", with_field(&lines, 2, 1, "-1.0")),
        ("negative_deadline", with_field(&lines, 2, 3, "-0.5")),
        ("duplicate_id", with_field(&lines, 2, 0, &first_id)),
        // 9 tokens is a square 48×48 image the cost table does not profile.
        ("unprofiled_resolution", with_field(&lines, 2, 2, "9")),
    ];
    for (name, trace) in cases {
        let out = serve_trace(&format!("cli_replay_{name}.csv"), &trace);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {stderr}");
        assert!(stderr.starts_with("bad trace"), "{name}: {stderr}");
    }
}
