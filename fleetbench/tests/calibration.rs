//! Calibration: each workload must keep exercising the layer it exists
//! for, on the default seed and on the held-out seed. A change to the
//! library that silently moves a workload off its operating point fails
//! here instead of quietly changing what the benchmark measures.
//!
//! Run with `cargo test --release --manifest-path fleetbench/Cargo.toml`.

use fleetbench::rep::{self, Rep};
use fleetbench::workloads::{Workload, DEFAULT_SEED, HELDOUT_SEED};

fn full_run(workload: Workload, seed: u64) -> Rep {
    rep::run(workload, seed, workload.requests(), false, false)
        .expect("a full-size repetition passes its correctness checks")
}

#[test]
fn near_capacity_sits_just_below_capacity() {
    for seed in [DEFAULT_SEED, HELDOUT_SEED] {
        let sar = full_run(Workload::NearCapacity, seed).summary.sar;
        assert!((0.85..=0.92).contains(&sar), "seed {seed:#x}: SAR {sar}");
    }
}

#[test]
fn overload_sheds_most_requests() {
    for seed in [DEFAULT_SEED, HELDOUT_SEED] {
        let s = full_run(Workload::Overload, seed).summary;
        let shed = s.shed as f64 / s.sent as f64;
        assert!(shed >= 0.9, "seed {seed:#x}: shed fraction {shed}");
    }
}

#[test]
fn tenants_video_serves_every_tenant() {
    for seed in [DEFAULT_SEED, HELDOUT_SEED] {
        let r = full_run(Workload::TenantsVideo, seed);
        let sars = &r.summary.tenant_sars;
        assert_eq!(sars.len(), 5, "seed {seed:#x}: every tenant sends traffic");
        assert!(
            sars.iter().all(|&s| s > 0.5),
            "seed {seed:#x}: tenant SARs {sars:?}"
        );
        assert!(
            r.totals.encode_util > 0.0 && r.totals.decode_util > 0.0,
            "seed {seed:#x}: the stage pools must run"
        );
    }
}

#[test]
fn chaos_fleet_degrades_migrates_and_aborts() {
    for seed in [DEFAULT_SEED, HELDOUT_SEED] {
        let t = full_run(Workload::ChaosFleet, seed).totals;
        assert!(t.rescued >= 1, "seed {seed:#x}: no degraded request");
        assert!(t.migrations >= 1, "seed {seed:#x}: no migration");
        assert!(t.aborted >= 1, "seed {seed:#x}: no aborted dispatch");
    }
}

#[test]
fn traced_runs_reproduce_untraced_outputs_and_pass_the_audit() {
    for workload in Workload::ALL {
        let small = 2_000;
        let plain = rep::run(workload, DEFAULT_SEED, small, false, true)
            .expect("the untraced run passes the audit");
        let traced = rep::run(workload, DEFAULT_SEED, small, true, false)
            .expect("the traced run passes its checks");
        assert_eq!(plain.digests, traced.digests, "{}", workload.name());
        assert_eq!(plain.summary, traced.summary, "{}", workload.name());
        let profile = traced.profile.expect("traced runs carry a profile");
        assert_eq!(profile.counts.sent, small as u64);
        assert!(profile.seam_ns() as f64 <= traced.run_s * 1e9);
    }
}
