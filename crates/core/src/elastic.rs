//! Work-conserving elastic scale-up (§4.2.3).
//!
//! After placement, any GPUs still idle within the round are reclaimed:
//! assignments whose per-step latency improves at double the degree
//! (`T(k') < T(k)`) are granted extra GPUs, prioritised by the absolute
//! time they save. Scale-up changes the request's GPU set, so the engine
//! will charge a remap stall; the pass therefore requires the estimated
//! saving to clear a configurable threshold — this is the "requests with
//! sufficient remaining steps" condition of the paper.

use tetriserve_costmodel::CostTable;
use tetriserve_simulator::gpuset::GpuSet;
use tetriserve_simulator::time::SimDuration;
use tetriserve_simulator::topology::Topology;

use crate::placement::Assignment;

/// Grants idle GPUs to the assignments that benefit most. Mutates
/// `assignments` (GPU sets, step counts) and `free`, returning the number
/// of doublings applied.
///
/// `tau` is the round length (step counts are re-derived for the faster
/// step time) and `min_benefit` the saving a doubling must achieve to be
/// worth the remap cost.
pub fn elastic_scale_up(
    assignments: &mut [Assignment],
    free: &mut GpuSet,
    costs: &CostTable,
    topology: &Topology,
    tau: SimDuration,
    min_benefit: SimDuration,
) -> usize {
    let n_gpus = topology.n_gpus();
    let mut doublings = 0;
    loop {
        // Find the doubling with the largest estimated saving.
        let mut best: Option<(usize, SimDuration)> = None;
        for (i, a) in assignments.iter().enumerate() {
            let k = a.gpus.len();
            let k2 = k * 2;
            if k2 > n_gpus || free.len() < k {
                continue;
            }
            let batch = a.requests.len() as u32;
            let Some(t_old) = costs.try_step_time(a.resolution, k, batch) else {
                continue;
            };
            let Some(t_new) = costs.try_step_time(a.resolution, k2, batch) else {
                continue;
            };
            if t_new >= t_old {
                continue; // no latency benefit at the wider degree
            }
            // Latency saved on this round's planned work; the extra steps
            // that now fit in the round are a further (uncounted) bonus.
            let saving = (t_old - t_new) * u64::from(a.steps);
            if saving < min_benefit {
                continue;
            }
            match best {
                Some((_, s)) if s >= saving => {}
                _ => best = Some((i, saving)),
            }
        }
        let Some((idx, _)) = best else { break };

        // `idx` came from this loop's own enumeration, so the lookup
        // cannot miss; `get_mut` keeps the hot path panic-free anyway.
        let Some(a) = assignments.get_mut(idx) else {
            break;
        };
        let k = a.gpus.len();
        // Prefer extras completing the aligned block around the current
        // set; otherwise take the lowest free ids.
        let extras = pick_extras(a.gpus, k, *free, topology);
        let t_new = costs.step_time(a.resolution, 2 * k, a.requests.len() as u32);
        let q_new = (tau.div_floor(t_new) as u32).min(a.remaining_before).max(1);
        *free = free.difference(extras);
        doublings += 1;
        a.gpus = a.gpus.union(extras);
        a.steps = q_new.max(a.steps).min(a.remaining_before);
    }
    doublings
}

/// Chooses `extra_count` GPUs from `free` to widen `current`, preferring
/// the aligned block of the doubled size that contains `current`.
fn pick_extras(current: GpuSet, extra_count: usize, free: GpuSet, topology: &Topology) -> GpuSet {
    let k2 = current.len() + extra_count;
    if k2.is_power_of_two() {
        for block in topology.aligned_blocks(k2) {
            if block.is_superset_of(current) && free.is_superset_of(block.difference(current)) {
                return block.difference(current);
            }
        }
    }
    free.take_lowest(extra_count)
        // tetrilint: allow(taint-panic) -- elastic_scale_up only offers extras it counted in `free` above
        .expect("caller checked free capacity")
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetriserve_costmodel::{ClusterSpec, DitModel, Profiler, Resolution};
    use tetriserve_simulator::topology::Topology;
    use tetriserve_simulator::trace::{Batch, RequestId};

    fn fixture() -> (CostTable, Topology, SimDuration) {
        let costs = Profiler::new(DitModel::flux_dev(), ClusterSpec::h100x8()).analytic();
        let tau = costs.t_min(Resolution::R2048) * 5;
        (costs, Topology::h100_nvlink(8), tau)
    }

    fn assignment(
        id: u64,
        res: Resolution,
        gpus: GpuSet,
        steps: u32,
        remaining: u32,
    ) -> Assignment {
        Assignment {
            requests: Batch::one(RequestId(id)),
            resolution: res,
            gpus,
            steps,
            remaining_before: remaining,
        }
    }

    #[test]
    fn scales_up_the_big_request() {
        let (costs, topo, tau) = fixture();
        let mut assignments = vec![assignment(
            1,
            Resolution::R2048,
            GpuSet::contiguous(0, 4),
            2,
            50,
        )];
        let mut free = GpuSet::contiguous(4, 4);
        let ups = elastic_scale_up(
            &mut assignments,
            &mut free,
            &costs,
            &topo,
            tau,
            SimDuration::from_millis(30),
        );
        assert_eq!(ups, 1, "one doubling, 4 → 8");
        assert_eq!(assignments[0].gpus, GpuSet::first_n(8));
        assert!(free.is_empty());
        // Faster steps => at least as many steps fit in the round.
        assert!(assignments[0].steps >= 2);
    }

    #[test]
    fn no_scale_up_without_benefit() {
        let (costs, topo, tau) = fixture();
        // A 256² request gains little from doubling — savings per round are
        // tiny, below the remap threshold.
        let mut assignments = vec![assignment(
            1,
            Resolution::R256,
            GpuSet::contiguous(0, 1),
            5,
            50,
        )];
        let mut free = GpuSet::contiguous(1, 7);
        let ups = elastic_scale_up(
            &mut assignments,
            &mut free,
            &costs,
            &topo,
            tau,
            SimDuration::from_millis(30),
        );
        assert_eq!(ups, 0);
        assert_eq!(assignments[0].gpus.len(), 1);
        assert_eq!(free.len(), 7);
    }

    #[test]
    fn prioritises_the_biggest_saver() {
        let (costs, topo, tau) = fixture();
        let mut assignments = vec![
            assignment(1, Resolution::R1024, GpuSet::contiguous(0, 2), 5, 50),
            assignment(2, Resolution::R2048, GpuSet::contiguous(2, 4), 2, 50),
        ];
        // Only 2 free GPUs: enough to double the 1024² request but not the
        // 2048² one; 1024² must win despite 2048² saving more in absolute
        // terms per doubling (it cannot fit).
        let mut free = GpuSet::contiguous(6, 2);
        let ups = elastic_scale_up(
            &mut assignments,
            &mut free,
            &costs,
            &topo,
            tau,
            SimDuration::from_millis(30),
        );
        assert_eq!(ups, 1);
        assert_eq!(assignments[0].gpus.len(), 4, "the 1024² request doubled");
        assert_eq!(assignments[1].gpus.len(), 4, "the 2048² request did not");
    }

    #[test]
    fn cascades_until_gpus_or_benefit_run_out() {
        let (costs, topo, tau) = fixture();
        let mut assignments = vec![assignment(
            1,
            Resolution::R2048,
            GpuSet::contiguous(0, 2),
            1,
            50,
        )];
        let mut free = GpuSet::contiguous(2, 6);
        let ups = elastic_scale_up(
            &mut assignments,
            &mut free,
            &costs,
            &topo,
            tau,
            SimDuration::from_millis(30),
        );
        // 2 -> 4 -> 8.
        assert_eq!(ups, 2);
        assert_eq!(assignments[0].gpus.len(), 8);
    }

    #[test]
    fn respects_node_capacity() {
        let (costs, topo, tau) = fixture();
        let mut assignments = vec![assignment(1, Resolution::R2048, GpuSet::first_n(8), 5, 50)];
        let mut free = GpuSet::EMPTY;
        let ups = elastic_scale_up(
            &mut assignments,
            &mut free,
            &costs,
            &topo,
            tau,
            SimDuration::ZERO,
        );
        assert_eq!(ups, 0);
    }

    #[test]
    fn extras_prefer_completing_the_aligned_block() {
        let (costs, topo, tau) = fixture();
        let mut assignments = vec![assignment(
            1,
            Resolution::R2048,
            GpuSet::contiguous(4, 2), // block {4,5}
            2,
            50,
        )];
        // Free: {0,1} and {6,7}. The aligned 4-block containing {4,5} is
        // {4..8}, so extras should be {6,7} rather than {0,1}.
        let mut free = GpuSet::from_mask(0b1100_0011);
        let ups = elastic_scale_up(
            &mut assignments,
            &mut free,
            &costs,
            &topo,
            tau,
            SimDuration::from_millis(30),
        );
        assert_eq!(ups, 1);
        assert!(assignments[0].gpus.is_superset_of(GpuSet::contiguous(4, 4)));
    }
}
