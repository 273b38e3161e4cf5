//! Unified vs disaggregated stage-pool layouts on a mixed video + image
//! workload, and the one decode discipline both share.
//!
//! Video requests multiply denoise *and* decode cost by the frame count
//! and pay a conditioning-encode stage up front. Under either layout a
//! denoise gang frees its GPUs at its last step, and each request's
//! decode then queues on the decode pool's earliest-free slot, in
//! completion order, at its own frame count. The layouts differ only in
//! the pool sizes. Under the unified layout the denoise packer keeps all
//! eight GPUs and decodes drain through one virtual slot that holds no
//! GPU. The disaggregated layout carves one encode GPU and two decode
//! GPUs out of the node: the packer keeps five, and decodes drain two at
//! a time. So the gate compares two parallel decode slots that cost
//! three GPUs with one serial slot that costs none. On the identical
//! request stream disaggregated must strictly beat unified on SAR, and
//! both layouts' outcome digests are pinned as literals.

use tetriserve::baselines::FixedSpPolicy;
use tetriserve::core::{
    PoolLayout, RequestSpec, ServeReport, Server, ServerConfig, TetriServePolicy,
};
use tetriserve::costmodel::{ClusterSpec, DitModel, Profiler, Resolution, StageProfile};
use tetriserve::metrics::{pool_utilization, stage_slo_share};
use tetriserve::simulator::digest::{fnv1a, FNV_OFFSET};
use tetriserve::simulator::time::SimTime;
use tetriserve::simulator::trace::{RequestId, TenantId};
use tetriserve::traffic::{to_spec, PriorityTier, TenantSpec, TrafficModel};
use tetriserve::workload::{ResolutionMix, SloPolicy};

/// Frames per video clip: the denoise and decode cost multiplier.
const FRAMES: u32 = 12;

/// Two interactive video tenants and one flat image tenant, 40 requests
/// each at 8 req/min, all on a small-resolution clip mix, 20 denoising
/// steps per request.
fn workload() -> Vec<RequestSpec> {
    const SEED: u64 = 0x57_a9e5;
    // Scales are baked into the *base targets* (not SloPolicy::scaled)
    // because the tier multiplier in `effective_slo` replaces the policy
    // scale — Interactive would silently reset it to 1.0. Video budgets
    // scale with the frame count, so the per-frame SLO is the image SLO.
    let targets = |scale: f64| {
        SloPolicy::from_targets([
            (Resolution::R256, 1.5 * scale),
            (Resolution::R512, 2.0 * scale),
            (Resolution::R1024, 3.0 * scale),
            (Resolution::R2048, 5.0 * scale),
        ])
    };
    let clip_mix =
        || ResolutionMix::weighted("Clip", [(Resolution::R256, 1.0), (Resolution::R512, 1.0)]);
    let video = |name: &str, seed: u64| {
        TenantSpec::new(name, 8.0, seed)
            .with_mix(clip_mix())
            .with_slo(targets(0.85 * f64::from(FRAMES)))
            .with_tier(PriorityTier::Interactive)
            .video(FRAMES)
    };
    TrafficModel::new(vec![
        video("video-a", SEED ^ 1),
        video("video-b", SEED ^ 2),
        TenantSpec::new("image", 8.0, SEED ^ 3)
            .with_mix(clip_mix())
            .with_slo(targets(0.85))
            .with_tier(PriorityTier::Interactive),
    ])
    .offline(40)
    .iter()
    .map(|r| to_spec(r, 20))
    .collect()
}

/// Serves [`workload`] on one 8×H100 node under `layout`.
fn serve(layout: PoolLayout) -> ServeReport {
    let costs = Profiler::new(DitModel::flux_dev(), ClusterSpec::h100x8()).analytic();
    let policy = TetriServePolicy::with_defaults(&costs);
    let config = ServerConfig {
        pool: layout,
        ..ServerConfig::default()
    };
    Server::with_config(costs, policy, config).run(workload())
}

/// FNV-1a over per-request (id, completion, encode done, denoise done,
/// executed steps), so a change anywhere in the stage pipeline shows up.
fn stage_digest(report: &ServeReport) -> u64 {
    let mut d = FNV_OFFSET;
    for o in &report.outcomes {
        d = fnv1a(d, o.id.0);
        d = fnv1a(d, o.completion.map_or(u64::MAX, |t| t.as_micros()));
        d = fnv1a(d, o.encode_done.map_or(u64::MAX, |t| t.as_micros()));
        d = fnv1a(d, o.denoise_done.map_or(u64::MAX, |t| t.as_micros()));
        d = fnv1a(d, u64::from(o.steps_executed));
    }
    d
}

fn met_slo(report: &ServeReport) -> usize {
    report.outcomes.iter().filter(|o| o.met_slo()).count()
}

#[test]
fn disaggregated_pools_strictly_beat_unified_on_the_video_mix() {
    let unified = serve(PoolLayout::Unified);
    let disaggregated = serve(PoolLayout::disaggregated_default());
    assert!(
        disaggregated.sar() > unified.sar(),
        "disaggregated SAR {} must strictly beat unified {}",
        disaggregated.sar(),
        unified.sar()
    );
    // Both layouts accrue stage busy time, but the unified slots hold no
    // GPU, so only the dedicated pools report a utilisation.
    assert!(unified.encode_busy_seconds > 0.0 && unified.decode_busy_seconds > 0.0);
    assert_eq!(pool_utilization(&unified), (0.0, 0.0));
    assert!(pool_utilization(&disaggregated).1 > 0.0);

    assert_eq!(stage_digest(&unified), 0x19b8_d9b4_e278_5f98);
    assert_eq!((met_slo(&unified), unified.outcomes.len()), (117, 120));
    assert_eq!(stage_digest(&disaggregated), 0x3efc_c6ab_b8f6_ccef);
    assert_eq!(
        (met_slo(&disaggregated), disaggregated.outcomes.len()),
        (118, 120)
    );
}

#[test]
fn stage_layout_runs_are_bit_identical_in_process() {
    for layout in [PoolLayout::Unified, PoolLayout::disaggregated_default()] {
        let summary = |r: &ServeReport| {
            (
                stage_digest(r),
                met_slo(r),
                pool_utilization(r),
                stage_slo_share(&r.outcomes),
            )
        };
        assert_eq!(
            summary(&serve(layout)),
            summary(&serve(layout)),
            "{layout:?}"
        );
    }
}

#[test]
fn a_small_image_decodes_when_its_own_denoise_ends() {
    // Under xDiT SP=1 the 256² image denoises on its own GPU in under a
    // second, while the 2048² request submitted just before it runs for
    // about 30 s. The image's decode queues when its denoise ends, not
    // behind the 2048² request's, so it meets its 5 s SLO.
    let costs = Profiler::new(DitModel::flux_dev(), ClusterSpec::h100x8()).analytic();
    let decode = costs.decode_time(Resolution::R256, 1);
    let request = |id: u64, resolution: Resolution| RequestSpec {
        tenant: TenantId::UNTAGGED,
        id: RequestId(id),
        resolution,
        arrival: SimTime::ZERO,
        deadline: SimTime::from_secs_f64(5.0),
        total_steps: 50,
        stages: StageProfile::FLAT,
    };
    let specs = [request(0, Resolution::R2048), request(1, Resolution::R256)];
    let report = Server::new(costs, FixedSpPolicy::new(1)).run(specs);
    let image = &report.outcomes[1];
    assert_eq!(image.resolution, Resolution::R256);
    let denoised = image.denoise_done.expect("the image denoised");
    assert_eq!(image.completion, Some(denoised + decode), "{image:?}");
    assert!(image.met_slo(), "{image:?}");
}
