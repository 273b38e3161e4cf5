//! Simulator throughput harness — produces `BENCH_sim.json` at the
//! repository root (schema `tetriserve-bench-sim/v1`, documented in
//! DESIGN.md): one million synthetic requests (full mode) driven through
//! the heterogeneous three-cluster fleet on the serial fleet driver,
//! reporting simulated requests per host second, the fleet-wide peak live
//! backlog, the feasibility-scratch counters and the per-seed routing and
//! outcome digests.
//!
//! Run modes:
//!
//! * `cargo bench --bench perf_sim` — full run (1M requests);
//! * `... -- --smoke` (or env `PERF_SMOKE=1`) — the CI-sized smoke run
//!   (20k requests).
//!
//! The process exits non-zero if either gate trips: the throughput floor
//! (a conservative fraction of the measured steady-state rate, so only a
//! real regression — e.g. reintroducing the O(total-ever-admitted)
//! feasibility scan — fires it) or the zero-allocation steady state
//! (`feas_grow_events` must be exactly 0 after the pre-run warm-up).

use std::path::PathBuf;

use tetriserve_bench::sim::{run_sim_perf, SimPerfConfig};

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke")
        || std::env::var("PERF_SMOKE")
            .map(|v| v == "1")
            .unwrap_or(false);
    let (config, mode) = if smoke {
        (SimPerfConfig::smoke(), "smoke")
    } else {
        (SimPerfConfig::full(), "full")
    };

    let report = run_sim_perf(&config, mode);

    println!(
        "simulator throughput harness ({mode}, seed {:#x}): {} requests in {:.2} host s \
         ({:.0} requests/s, floor {:.0})",
        report.seed,
        report.requests,
        report.host_seconds,
        report.sim_requests_per_sec,
        report.floor_rps
    );
    println!(
        "  horizon {:.0} sim s, {} events, peak backlog {}, sar {:.4}, \
         completed {}, shed {}",
        report.sim_horizon_s,
        report.events,
        report.peak_backlog,
        report.sar,
        report.completed,
        report.shed
    );
    println!(
        "  feasibility scratch: {} fills, {} grow events, {} allocations avoided",
        report.feas_calls, report.feas_grow_events, report.feas_allocations_avoided
    );
    println!(
        "  digests: routing {:#018x}, outcome {:#018x}",
        report.routing_digest, report.outcome_digest
    );

    // Repo root: crates/bench/ -> crates/ -> root.
    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_sim.json");
    std::fs::write(&out, report.to_json()).expect("write BENCH_sim.json");
    println!("wrote {}", out.display());

    if let Err(e) = report.check_gates() {
        eprintln!("FAIL: {e}");
        std::process::exit(1);
    }
}
