//! The scheduler-visible per-step latency model `T(k)`.
//!
//! Combines the FLOPs law, the hardware's effective throughput, the
//! occupancy curve and the communication model into the single function the
//! paper's cost model exposes: execution time of one diffusion step as a
//! function of resolution, sequence-parallel degree, batch size and
//! placement.
//!
//! Calibration sanity (FLUX on H100, batch 1, 50-step schedule):
//!
//! | Resolution | SP=1    | SP=8     | request @SP1 |
//! |------------|---------|----------|--------------|
//! | 256²       | ~15 ms  | ~7 ms    | ~0.8 s       |
//! | 512²       | ~36 ms  | —        | ~1.8 s       |
//! | 1024²      | ~128 ms | ~20 ms   | ~6.4 s       |
//! | 2048²      | ~632 ms | ~89 ms   | ~32 s        |
//!
//! matching the paper's anchor that a 2048² image takes "up to a minute" on
//! a single H100 and making the published SLOs (1.5/2/3/5 s) tight at scale
//! 1.0: 512² just fits on one GPU, 1024² needs SP≥4, 2048² needs SP=8.

use crate::comm::{step_comm_time, CommScheme};
use crate::efficiency::occupancy;
use crate::hardware::ClusterSpec;
use crate::model::DitModel;
use crate::profiler::CostTable;
use crate::resolution::Resolution;

use tetriserve_simulator::gpuset::GpuSet;
use tetriserve_simulator::time::SimDuration;
use tetriserve_simulator::topology::{LinkKind, Topology};

/// Compute-only time of one step at degree `k` and batch `batch`.
///
/// # Panics
///
/// Panics if `k` or `batch` is zero.
pub fn step_compute_time(
    model: &DitModel,
    res: Resolution,
    k: usize,
    batch: u32,
    cluster: &ClusterSpec,
) -> SimDuration {
    assert!(k > 0 && batch > 0, "degree and batch must be positive");
    let shard_tokens = res.tokens() as f64 * f64::from(batch) / k as f64;
    let eff_tflops = cluster.gpu.effective_tflops() * occupancy(shard_tokens);
    let per_gpu_tflop = model.step_tflops(res) * f64::from(batch) / k as f64;
    SimDuration::from_secs_f64(per_gpu_tflop / eff_tflops)
}

/// Full per-step latency on a *specific* GPU set: compute + communication
/// over the set's bottleneck bandwidth.
///
/// This is what the engine experiences. On the A40 node it is placement
/// sensitive: a pair-aligned SP=2 group communicates over NVLink, a
/// misaligned one over PCIe.
///
/// # Panics
///
/// Panics if `gpus` is empty or not a subset of the topology.
pub fn step_time_on(
    model: &DitModel,
    res: Resolution,
    gpus: GpuSet,
    batch: u32,
    cluster: &ClusterSpec,
    topology: &Topology,
    scheme: CommScheme,
) -> SimDuration {
    assert!(!gpus.is_empty(), "gpu set must be non-empty");
    let k = gpus.len();
    let bw = topology.group_bandwidth_gbps(gpus);
    let bw = if bw.is_infinite() { 1e9 } else { bw };
    step_compute_time(model, res, k, batch, cluster)
        + step_comm_time(model, res, k, batch, bw, scheme)
}

/// Link kinds a [`PlacedStepTimes`] cell key distinguishes.
const LINK_KINDS: usize = 4;

/// One cluster's placed per-step times: [`step_time_on`] remembered per
/// (profiled resolution, degree, batch, slowest link).
///
/// A step's time depends on its GPU set only through the set's size and
/// its slowest link ([`Topology::group_link`], whose bandwidth
/// `step_time_on` reads), so those four values key it exactly. The table
/// is sized when it is built but prices nothing then: each cell is filled
/// the first time it is asked for. A resolution the cost table did not
/// profile, a set wider than the cluster or a batch wider than the table
/// falls back to `step_time_on`.
#[derive(Debug, Clone)]
pub struct PlacedStepTimes {
    /// `cells[((ri · n_gpus + k − 1) · max_batch + batch − 1) · LINK_KINDS
    /// + link]`, with `ri` the resolution's index in the table;
    /// `SimDuration::MAX` until priced.
    cells: Vec<SimDuration>,
    n_gpus: usize,
    max_batch: usize,
}

impl PlacedStepTimes {
    /// An unpriced table over `costs`' resolutions, cluster and batches.
    pub fn new(costs: &CostTable) -> PlacedStepTimes {
        let n_gpus = costs.cluster().n_gpus;
        let max_batch = costs.max_batch() as usize;
        let len = costs.resolutions().len() * n_gpus * max_batch * LINK_KINDS;
        PlacedStepTimes {
            cells: vec![SimDuration::MAX; len],
            n_gpus,
            max_batch,
        }
    }

    /// [`step_time_on`] of `res` on `gpus` at `batch`, with the model,
    /// cluster and scheme of `costs`, which must be the table this was
    /// built from.
    ///
    /// # Panics
    ///
    /// Panics if `gpus` is empty or not a subset of `topology`.
    pub fn get(
        &mut self,
        costs: &CostTable,
        topology: &Topology,
        res: Resolution,
        gpus: GpuSet,
        batch: u32,
    ) -> SimDuration {
        let price = || {
            step_time_on(
                costs.model(),
                res,
                gpus,
                batch,
                costs.cluster(),
                topology,
                costs.scheme(),
            )
        };
        let (k, b) = (gpus.len(), batch as usize);
        let Some(ri) = costs.resolutions().iter().position(|&r| r == res) else {
            return price();
        };
        if k == 0 || k > self.n_gpus || b == 0 || b > self.max_batch {
            return price();
        }
        let link = match topology.group_link(gpus) {
            LinkKind::NvSwitch => 0,
            LinkKind::NvLinkBridge => 1,
            LinkKind::Pcie => 2,
            LinkKind::Local => 3,
        };
        let i = ((ri * self.n_gpus + k - 1) * self.max_batch + b - 1) * LINK_KINDS + link;
        let Some(cell) = self.cells.get_mut(i) else {
            return price();
        };
        if *cell == SimDuration::MAX {
            *cell = price();
        }
        *cell
    }
}

/// Full per-step latency at degree `k` assuming the *canonical* (aligned,
/// best-case) placement for that degree — what offline profiling measures.
///
/// # Panics
///
/// Panics if `k` is zero, not a power of two, or exceeds the node size.
pub fn step_time_canonical(
    model: &DitModel,
    res: Resolution,
    k: usize,
    batch: u32,
    cluster: &ClusterSpec,
    scheme: CommScheme,
) -> SimDuration {
    assert!(
        k > 0 && k.is_power_of_two() && k <= cluster.n_gpus,
        "degree {k} invalid for {} GPUs",
        cluster.n_gpus
    );
    let topo = cluster.topology();
    let gpus = GpuSet::contiguous(0, k);
    step_time_on(model, res, gpus, batch, cluster, &topo, scheme)
}

/// GPU-seconds consumed per step at degree `k`: `k · T(k)` (§4.2.1).
pub fn gpu_seconds_per_step(
    model: &DitModel,
    res: Resolution,
    k: usize,
    batch: u32,
    cluster: &ClusterSpec,
    scheme: CommScheme,
) -> f64 {
    k as f64 * step_time_canonical(model, res, k, batch, cluster, scheme).as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flux_h100() -> (DitModel, ClusterSpec) {
        (DitModel::flux_dev(), ClusterSpec::h100x8())
    }

    #[test]
    fn calibration_anchors_flux_h100() {
        let (m, c) = flux_h100();
        let t = |res, k| {
            step_time_canonical(&m, res, k, 1, &c, CommScheme::Ulysses).as_secs_f64() * 1e3
        };
        // Table in module docs, ±15% tolerance.
        let anchors = [
            (Resolution::R256, 1, 15.4),
            (Resolution::R512, 1, 35.9),
            (Resolution::R1024, 1, 128.0),
            (Resolution::R2048, 1, 632.0),
            (Resolution::R2048, 8, 89.0),
        ];
        for (res, k, expect_ms) in anchors {
            let got = t(res, k);
            assert!(
                (got - expect_ms).abs() / expect_ms < 0.15,
                "{res} SP={k}: {got:.1} ms, expected ≈{expect_ms} ms"
            );
        }
    }

    #[test]
    fn request_fits_paper_slos_at_the_right_degrees() {
        let (m, c) = flux_h100();
        let request_secs = |res, k| {
            step_time_canonical(&m, res, k, 1, &c, CommScheme::Ulysses).as_secs_f64()
                * f64::from(m.steps)
        };
        // 256² fits 1.5 s on one GPU.
        assert!(request_secs(Resolution::R256, 1) < 1.5);
        // 512² just fits 2.0 s on one GPU.
        let r512 = request_secs(Resolution::R512, 1);
        assert!(r512 < 2.0 && r512 > 1.5, "512 @SP1 = {r512}");
        // 1024² misses 3.0 s at SP≤2 but fits at SP=4.
        assert!(request_secs(Resolution::R1024, 2) > 3.0);
        assert!(request_secs(Resolution::R1024, 4) < 3.0);
        // 2048² misses 5.0 s at SP=4 but (barely) fits at SP=8.
        assert!(request_secs(Resolution::R2048, 4) > 5.0);
        let r2048 = request_secs(Resolution::R2048, 8);
        assert!(r2048 < 4.7 && r2048 > 4.0, "2048 @SP8 = {r2048}");
    }

    #[test]
    fn single_h100_2048_takes_tens_of_seconds() {
        // Paper §1: "generating a high-resolution 2048×2048 image on a
        // single H100 GPU can take up to a minute".
        let (m, c) = flux_h100();
        let total = step_time_canonical(&m, Resolution::R2048, 1, 1, &c, CommScheme::Ulysses)
            .as_secs_f64()
            * f64::from(m.steps);
        assert!(total > 25.0 && total < 60.0, "total {total}");
    }

    #[test]
    fn latency_decreases_with_degree_but_gpu_hours_increase() {
        let (m, c) = flux_h100();
        for res in Resolution::PRODUCTION {
            let mut prev_t = f64::INFINITY;
            let mut prev_gs = 0.0;
            for k in [1usize, 2, 4, 8] {
                let t = step_time_canonical(&m, res, k, 1, &c, CommScheme::Ulysses).as_secs_f64();
                let gs = gpu_seconds_per_step(&m, res, k, 1, &c, CommScheme::Ulysses);
                assert!(t < prev_t, "{res}: T({k}) should fall");
                assert!(gs > prev_gs, "{res}: k·T(k) should rise");
                prev_t = t;
                prev_gs = gs;
            }
        }
    }

    #[test]
    fn comm_share_matches_figure_2_shape() {
        // Small resolutions: >30% comm at SP=8. Large: <15%.
        let (m, c) = flux_h100();
        let share = |res| {
            let total = step_time_canonical(&m, res, 8, 4, &c, CommScheme::Ulysses).as_secs_f64();
            let comm = step_comm_time(&m, res, 8, 4, 400.0, CommScheme::Ulysses).as_secs_f64();
            comm / total
        };
        assert!(
            share(Resolution::R256) > 0.30,
            "256: {}",
            share(Resolution::R256)
        );
        assert!(
            share(Resolution::R2048) < 0.15,
            "2048: {}",
            share(Resolution::R2048)
        );
    }

    #[test]
    fn a40_placement_sensitivity() {
        let m = DitModel::sd3_medium();
        let c = ClusterSpec::a40x4();
        let topo = c.topology();
        let aligned = GpuSet::contiguous(0, 2);
        let crossed = GpuSet::from_mask(0b0101);
        let t_good = step_time_on(
            &m,
            Resolution::R1024,
            aligned,
            1,
            &c,
            &topo,
            CommScheme::Ulysses,
        );
        let t_bad = step_time_on(
            &m,
            Resolution::R1024,
            crossed,
            1,
            &c,
            &topo,
            CommScheme::Ulysses,
        );
        assert!(
            t_bad > t_good,
            "PCIe crossing must cost: {t_good} vs {t_bad}"
        );
    }

    #[test]
    fn batching_improves_throughput_for_small_inputs() {
        // Batched steps take longer than single steps but less than
        // `batch ×` as long (better occupancy) — the premise of selective
        // continuous batching (§5).
        let (m, c) = flux_h100();
        let t1 = step_time_canonical(&m, Resolution::R256, 1, 1, &c, CommScheme::Ulysses);
        let t4 = step_time_canonical(&m, Resolution::R256, 1, 4, &c, CommScheme::Ulysses);
        assert!(t4 > t1);
        assert!(t4.as_secs_f64() < 4.0 * t1.as_secs_f64() * 0.95);
    }

    #[test]
    fn placed_step_times_equal_step_time_on_in_any_order() {
        // Every (profiled resolution, GPU set, batch) of each node, asked
        // twice in shuffled order: a first ask prices a cell, a repeat
        // reads it, and both must be `step_time_on`'s answer to the bit.
        // Batches one past the table and an unprofiled resolution take
        // the fallback.
        use crate::profiler::Profiler;
        use tetriserve_simulator::rng::SimRng;

        for cluster in [ClusterSpec::h100x8(), ClusterSpec::a40x4()] {
            let costs = Profiler::new(DitModel::flux_dev(), cluster).analytic();
            let topo = cluster.topology();
            let mut queries = Vec::new();
            let resolutions = costs.resolutions().iter().copied();
            for res in resolutions.chain([Resolution::square(768)]) {
                for mask in 1..1u64 << cluster.n_gpus {
                    for batch in 1..=costs.max_batch() + 1 {
                        queries.extend([(res, GpuSet::from_mask(mask), batch); 2]);
                    }
                }
            }
            let mut rng = SimRng::seed_from_u64(0x5eed);
            for i in (1..queries.len()).rev() {
                queries.swap(i, rng.below(i + 1));
            }
            let mut table = PlacedStepTimes::new(&costs);
            for (res, gpus, batch) in queries {
                let want = step_time_on(
                    costs.model(),
                    res,
                    gpus,
                    batch,
                    &cluster,
                    &topo,
                    costs.scheme(),
                );
                let got = table.get(&costs, &topo, res, gpus, batch);
                assert_eq!(got, want, "{res} on {gpus:?} at batch {batch}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "invalid")]
    fn canonical_rejects_oversized_degree() {
        let (m, c) = flux_h100();
        let _ = step_time_canonical(&m, Resolution::R256, 16, 1, &c, CommScheme::Ulysses);
    }
}
