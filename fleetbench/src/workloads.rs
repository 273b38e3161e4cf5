//! The four open-loop workloads and the fleet they run on.
//!
//! Every input is generated here, through the library crates' public API
//! (`SplitMix`, `TrafficModel`/`TenantSpec`, `FailurePlan`, ...), so edits
//! to the library's own bench helpers never move the benchmark's inputs.
//! Each workload is a pure function of `(seed, requests)`: arrivals follow
//! a seeded schedule that never looks at the system (open loop), and
//! latency is timed from each request's scheduled arrival instant.
//!
//! All four run on the same heterogeneous fleet — two 8×H100 nodes and one
//! 4×A40 node, TetriServe policy on each — under the deadline-aware router.

use tetriserve_core::{
    AdmissionPolicy, DegradePolicy, Policy, PoolLayout, RequestSpec, ServerConfig,
    TetriServeConfig, TetriServePolicy,
};
use tetriserve_costmodel::{ClusterSpec, DitModel, Profiler, Resolution, StageProfile};
use tetriserve_fleet::{ArrivalSource, EdfRebalancer, FleetCluster, Rebalancer, ReplaySource};
use tetriserve_simulator::digest::SplitMix;
use tetriserve_simulator::failure::{ClusterOutage, FailurePlan, GpuFault, PerfFault};
use tetriserve_simulator::gpuset::GpuId;
use tetriserve_simulator::time::SimTime;
use tetriserve_simulator::trace::{RequestId, TenantId};
use tetriserve_traffic::{
    ArrivalShape, CouplingSpec, PriorityTier, StreamingArrivals, TenantSpec, TrafficModel,
};
use tetriserve_workload::mix::ResolutionMix;
use tetriserve_workload::slo::SloPolicy;

/// The seed a run uses when none is given.
pub const DEFAULT_SEED: u64 = 0x51be7c;
/// A seed never used while tuning the workloads; calibration must hold on
/// it as well as on [`DEFAULT_SEED`].
pub const HELDOUT_SEED: u64 = 0x2026_0bad_5eed;

/// Live requests each cluster's feasibility scratch is pre-sized for, so
/// the steady-state event loop does not grow it mid-run.
pub const SCRATCH_WARM: usize = 1 << 14;

/// SLO scale over the paper's base targets for the image tenants.
const SLO_SCALE: f64 = 1.2;
/// Fleet-wide arrival rate of `near-capacity` and `chaos-fleet`, req/s.
const NEAR_CAPACITY_RATE: f64 = 1.0;
/// Fleet-wide arrival rate of `overload`, req/s.
const OVERLOAD_RATE: f64 = 50.0;
/// Frames per request of the video tenant.
const VIDEO_FRAMES: u32 = 8;
/// Hard GPU faults per cluster in `chaos-fleet`, one per equal slot of the
/// horizon so windows on one GPU never overlap.
const HARD_FAULTS: usize = 16;
/// Slowdown faults per cluster in `chaos-fleet`.
const SLOWDOWNS: usize = 16;
/// Length of the whole-cluster outage of cluster 0 in `chaos-fleet`.
const OUTAGE_SECS: f64 = 120.0;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Flat uniform Poisson mix at ~1 req/s with `ShedInfeasible`
    /// admission, SAR ≈ 0.88: the DP packer and the event loop dominate.
    NearCapacity,
    /// The same fleet and mix at 50 req/s, ~93% shed: the arrival source,
    /// admission views and the router's shed path dominate.
    Overload,
    /// Five tenants generated online from a `TrafficModel`, one of them
    /// video (`CondEncode → Denoise → VaeDecode{frames}`) on disaggregated
    /// stage pools.
    TenantsVideo,
    /// `near-capacity` traffic under seeded GPU faults and slowdowns on
    /// every cluster, a 2-minute outage of cluster 0, the degrade ladder
    /// and the EDF rebalancer.
    ChaosFleet,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 4] = [
        Workload::NearCapacity,
        Workload::Overload,
        Workload::TenantsVideo,
        Workload::ChaosFleet,
    ];

    /// The name the command line and the metrics use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::NearCapacity => "near-capacity",
            Workload::Overload => "overload",
            Workload::TenantsVideo => "tenants-video",
            Workload::ChaosFleet => "chaos-fleet",
        }
    }

    /// Looks a workload up by [`name`](Self::name).
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Requests one repetition sends: about a host second of simulation,
    /// with thousands of completions beyond the p99 latency.
    pub fn requests(self) -> usize {
        match self {
            Workload::NearCapacity | Workload::ChaosFleet => 25_000,
            Workload::Overload => 100_000,
            Workload::TenantsVideo => 16_000,
        }
    }
}

/// Everything one repetition hands to the fleet driver. Building it is the
/// set-up work (`setup_s`): cost tables, policies, fault plans and, for the
/// replayed workloads, the whole arrival trace.
pub struct Inputs {
    /// The clusters, in fleet-index order.
    pub clusters: Vec<FleetCluster>,
    /// Fresh arrivals.
    pub source: Box<dyn ArrivalSource>,
    /// Whole-cluster outages.
    pub outages: Vec<ClusterOutage>,
    /// The periodic rebalancer, when the workload runs one.
    pub rebalancer: Option<Box<dyn Rebalancer>>,
}

/// Builds `requests` requests' worth of `workload` from `seed`.
pub fn build(workload: Workload, seed: u64, requests: usize) -> Inputs {
    let shed_infeasible = ServerConfig {
        admission: AdmissionPolicy::ShedInfeasible,
        ..ServerConfig::default()
    };
    match workload {
        Workload::NearCapacity | Workload::Overload => {
            let rate = if workload == Workload::Overload {
                OVERLOAD_RATE
            } else {
                NEAR_CAPACITY_RATE
            };
            Inputs {
                clusters: fleet(|_, _| shed_infeasible.clone()),
                source: Box::new(ReplaySource::new(poisson_flat(seed, requests, rate))),
                outages: Vec::new(),
                rebalancer: None,
            }
        }
        Workload::TenantsVideo => Inputs {
            // One 8×H100 node carves out 1 encode + 2 decode GPUs. Its
            // denoise gang is then at most 4 wide, too narrow for 2048²
            // deadlines, so the other nodes stay unified and take those.
            clusters: fleet(|i, _| ServerConfig {
                pool: if i == 1 {
                    PoolLayout::disaggregated_default()
                } else {
                    PoolLayout::Unified
                },
                ..shed_infeasible.clone()
            }),
            source: Box::new(StreamingArrivals::new(
                tenants_model(seed).online(requests),
                DitModel::flux_dev().steps,
            )),
            outages: Vec::new(),
            rebalancer: None,
        },
        Workload::ChaosFleet => {
            let horizon_s = requests as f64 / NEAR_CAPACITY_RATE;
            let outage = cluster_outage(seed, horizon_s);
            Inputs {
                clusters: fleet(|i, n_gpus| {
                    let mut config = shed_infeasible.clone();
                    config.degrade = Some(DegradePolicy::paper_classes());
                    config.engine.failures = fault_plan(
                        seed,
                        i,
                        n_gpus,
                        horizon_s,
                        (outage.cluster == i).then_some(outage),
                    );
                    config
                }),
                source: Box::new(ReplaySource::new(poisson_flat(
                    seed,
                    requests,
                    NEAR_CAPACITY_RATE,
                ))),
                outages: vec![outage],
                rebalancer: Some(Box::new(EdfRebalancer::new())),
            }
        }
    }
}

/// The heterogeneous fleet; `config(index, n_gpus)` gives each cluster its
/// server knobs.
fn fleet(config: impl Fn(usize, usize) -> ServerConfig) -> Vec<FleetCluster> {
    let nodes = [
        ("h100x8-a", ClusterSpec::h100x8()),
        ("h100x8-b", ClusterSpec::h100x8()),
        ("a40x4", ClusterSpec::a40x4()),
    ];
    nodes
        .into_iter()
        .enumerate()
        .map(|(i, (name, spec))| {
            let costs = Profiler::new(DitModel::flux_dev(), spec).analytic();
            let n_gpus = costs.cluster().topology().n_gpus();
            let policy: Box<dyn Policy> =
                Box::new(TetriServePolicy::new(TetriServeConfig::default(), &costs));
            FleetCluster {
                name: name.to_owned(),
                costs,
                policy,
                config: config(i, n_gpus),
            }
        })
        .collect()
}

/// A uniform draw in `[0, 1)` from the next word's top 53 bits.
fn unit(rng: &mut SplitMix) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

fn at_secs(s: f64) -> SimTime {
    SimTime::from_secs_f64(s)
}

/// Flat single-image requests: exponential interarrivals at
/// `rate_per_sec`, a uniform mix over the four production resolutions,
/// and the paper's per-resolution SLO budgets at [`SLO_SCALE`].
fn poisson_flat(seed: u64, requests: usize, rate_per_sec: f64) -> Vec<RequestSpec> {
    let slo = SloPolicy::paper_targets().scaled(SLO_SCALE);
    let steps = DitModel::flux_dev().steps;
    let mut rng = SplitMix(seed ^ 0xf1a7_0000_0000);
    let mut t = 0.0f64;
    (0..requests)
        .map(|id| {
            let resolution = Resolution::PRODUCTION[(rng.next_u64() % 4) as usize];
            // 1 − u lies in (0, 1], so the log stays finite.
            t += -(1.0 - unit(&mut rng)).ln() / rate_per_sec;
            let arrival = at_secs(t);
            RequestSpec {
                tenant: TenantId::UNTAGGED,
                id: RequestId(id as u64),
                resolution,
                arrival,
                deadline: arrival + slo.budget(resolution),
                total_steps: steps,
                stages: StageProfile::FLAT,
            }
        })
        .collect()
}

/// The per-resolution paper targets with `scale` baked into the base
/// seconds. `TenantSpec::effective_slo` *replaces* any
/// `SloPolicy::scaled` factor with the tier multiplier, so a scale set
/// with `scaled()` would be silently lost.
fn targets(scale: f64) -> SloPolicy {
    SloPolicy::from_targets([
        (Resolution::R256, 1.5 * scale),
        (Resolution::R512, 2.0 * scale),
        (Resolution::R1024, 3.0 * scale),
        (Resolution::R2048, 5.0 * scale),
    ])
}

/// The five tenants of `tenants-video`: an interactive Poisson tenant, an
/// MMPP-bursty batch tenant on the skewed mix, a pair of flash tenants
/// surging together on one shared burst coupler, and a video tenant whose
/// budgets stretch with its frame count.
fn tenants_model(seed: u64) -> TrafficModel {
    let mut seeds = SplitMix(seed ^ 0x7e7a_0000_0000);
    let mut next = || seeds.next_u64();
    let image = targets(SLO_SCALE);
    let clips = ResolutionMix::weighted("Clip", [(Resolution::R256, 1.0), (Resolution::R512, 1.0)]);
    TrafficModel::new(vec![
        TenantSpec::new("interactive", 9.0, next())
            .with_tier(PriorityTier::Interactive)
            .with_slo(image.clone()),
        TenantSpec::new("batch", 5.0, next())
            .with_shape(ArrivalShape::Bursty {
                mean_rate_per_min: 5.0,
            })
            .with_mix(ResolutionMix::skewed())
            .with_tier(PriorityTier::Batch)
            .with_slo(image.clone()),
        TenantSpec::new("flash-a", 4.0, next())
            .with_slo(image.clone())
            .coupled(),
        TenantSpec::new("flash-b", 4.0, next())
            .with_slo(image)
            .coupled(),
        TenantSpec::new("video", 1.5, next())
            .with_mix(clips)
            .with_tier(PriorityTier::Interactive)
            .with_slo(targets(SLO_SCALE * f64::from(VIDEO_FRAMES)))
            .video(VIDEO_FRAMES),
    ])
    .with_coupling(CouplingSpec::standard(next()))
}

/// The transient outage of cluster 0, placed somewhere in the middle of
/// the run.
fn cluster_outage(seed: u64, horizon_s: f64) -> ClusterOutage {
    let mut rng = SplitMix(seed ^ 0x07a9_e000_0000);
    let from = horizon_s * (0.2 + 0.4 * unit(&mut rng));
    ClusterOutage::transient(0, at_secs(from), at_secs(from + OUTAGE_SECS))
}

/// One cluster's fault plan: [`HARD_FAULTS`] transient GPU losses, each
/// inside its own slot of the horizon (so windows on one GPU never
/// overlap), skipping the cluster's own outage window, plus
/// [`SLOWDOWNS`] straggler/throttle windows anywhere in the run.
fn fault_plan(
    seed: u64,
    cluster: usize,
    n_gpus: usize,
    horizon_s: f64,
    outage: Option<ClusterOutage>,
) -> FailurePlan {
    let mut rng = SplitMix(seed ^ 0xfa17_0000_0000 ^ cluster as u64);
    let mut plan = FailurePlan::none();
    let slot = horizon_s / HARD_FAULTS as f64;
    for k in 0..HARD_FAULTS {
        let gpu = GpuId((rng.next_u64() % n_gpus as u64) as usize);
        let from = at_secs(slot * (k as f64 + 0.5 * unit(&mut rng)));
        let until = at_secs(from.as_secs_f64() + slot * (0.02 + 0.08 * unit(&mut rng)));
        let overlaps_outage =
            outage.is_some_and(|o| o.up_at.is_none_or(|up| from < up) && o.down_from < until);
        if !overlaps_outage {
            plan = plan.with_fault(GpuFault::transient(gpu, from, until));
        }
    }
    for k in 0..SLOWDOWNS {
        let gpu = GpuId((rng.next_u64() % n_gpus as u64) as usize);
        let from = at_secs(horizon_s * unit(&mut rng));
        let until = at_secs(from.as_secs_f64() + horizon_s * (0.005 + 0.02 * unit(&mut rng)));
        let factor = 1.2 + 1.3 * unit(&mut rng);
        plan = plan.with_perf_fault(if k % 2 == 0 {
            PerfFault::straggler(gpu, factor, from, until)
        } else {
            PerfFault::throttle(gpu, factor, from, until)
        });
    }
    plan
}
