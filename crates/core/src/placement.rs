//! GPU placement with preservation (§4.2.3).
//!
//! The DP packer decides *widths*; this module maps widths to concrete GPU
//! sets. TetriServe's placement-aware policy keeps a request on the same
//! GPUs across consecutive rounds whenever possible, eliminating the
//! state-transfer and remap stalls the engine would otherwise charge, and
//! places fresh requests on topology-aligned blocks (which on the A40 node
//! is the difference between NVLink and PCIe collectives).

// tetrilint: allow-file(taint-panic) -- placement runs under the scheduler's demand pre-check (total requested width never exceeds free GPUs) and every index comes from a local enumeration; the expect messages name the violated pre-check
use tetriserve_costmodel::Resolution;
use tetriserve_simulator::gpuset::GpuSet;
use tetriserve_simulator::topology::Topology;
use tetriserve_simulator::trace::{Batch, RequestId};

/// A width-only placement request coming out of the packer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacementRequest {
    /// The request to place.
    pub id: RequestId,
    /// Its resolution.
    pub resolution: Resolution,
    /// GPUs required (a power of two).
    pub width: usize,
    /// Steps to run this round.
    pub steps: u32,
    /// Remaining steps before this round's dispatch.
    pub remaining_before: u32,
    /// The GPU set of the previous dispatch, if any.
    pub previous: Option<GpuSet>,
}

/// A concrete single-request assignment (batching may merge these later).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    /// Requests sharing the dispatch (starts as one; batching may add more).
    pub requests: Batch,
    /// Resolution of every member.
    pub resolution: Resolution,
    /// Concrete GPU set.
    pub gpus: GpuSet,
    /// Steps to run this round.
    pub steps: u32,
    /// Minimum remaining steps (before dispatch) across members.
    pub remaining_before: u32,
}

/// Places each request on a concrete GPU set drawn from `free`, replacing
/// the contents of `out` with one assignment per request, in request
/// order. A caller that reuses `out` across calls allocates only when a
/// placement outgrows it.
///
/// With `preserve` set, requests that previously ran on a still-free set of
/// the same width keep it (first pass); everyone else prefers aligned
/// blocks, then maximal overlap with their previous set. With `preserve`
/// unset — the Table 5 ablation — placement is a naive lowest-ids-first
/// fill, which moves requests around and triggers engine remap stalls.
///
/// # Panics
///
/// Panics if the requested widths exceed the free pool (a packer bug) or
/// there are more than [`GpuSet::MAX_GPUS`] requests.
pub fn place(
    requests: &[PlacementRequest],
    mut free: GpuSet,
    preserve: bool,
    topology: &Topology,
    out: &mut Vec<Assignment>,
) {
    let demand: usize = requests.iter().map(|r| r.width).sum();
    assert!(
        demand <= free.len(),
        "placement demand {demand} exceeds free pool {}",
        free.len()
    );
    // Every request takes at least one GPU of a node, so the per-request
    // scratch fits on the stack.
    let n = requests.len();
    assert!(
        n <= GpuSet::MAX_GPUS,
        "placement of {n} requests exceeds {} GPUs",
        GpuSet::MAX_GPUS
    );
    let mut placed = [None::<GpuSet>; GpuSet::MAX_GPUS];

    if preserve {
        // Pass 1: exact preservation.
        for (i, r) in requests.iter().enumerate() {
            if let Some(prev) = r.previous {
                if prev.len() == r.width && free.is_superset_of(prev) {
                    placed[i] = Some(prev);
                    free = free.difference(prev);
                }
            }
        }
    }

    // Pass 2: everyone else, widest first so big aligned blocks are still
    // available for wide requests; equal widths keep request order.
    let mut order: [usize; GpuSet::MAX_GPUS] = std::array::from_fn(|i| i);
    let order = &mut order[..n];
    order.sort_unstable_by_key(|&i| (std::cmp::Reverse(requests[i].width), i));
    for &i in order.iter() {
        if placed[i].is_some() {
            continue; // kept its previous set in pass 1
        }
        let r = &requests[i];
        let set = if preserve {
            choose_set(r.width, r.previous, free, topology)
        } else {
            free.take_lowest(r.width).expect("demand checked above")
        };
        debug_assert_eq!(set.len(), r.width);
        placed[i] = Some(set);
        free = free.difference(set);
    }

    out.clear();
    out.extend(requests.iter().zip(placed).map(|(r, set)| Assignment {
        requests: Batch::one(r.id),
        resolution: r.resolution,
        gpus: set.expect("every request is placed"),
        steps: r.steps,
        remaining_before: r.remaining_before,
    }));
}

/// Picks a `width`-GPU set from `free`: an aligned block when one is fully
/// free (preferring the block overlapping `previous`), otherwise the set
/// maximising overlap with `previous`, padded with the lowest free ids.
fn choose_set(width: usize, previous: Option<GpuSet>, free: GpuSet, topology: &Topology) -> GpuSet {
    let prev = previous.unwrap_or(GpuSet::EMPTY);
    let mut best_block: Option<GpuSet> = None;
    let mut best_overlap = usize::MAX; // sentinel: unset
    for block in topology.aligned_blocks(width) {
        if free.is_superset_of(block) {
            let overlap = block.intersection(prev).len();
            if best_overlap == usize::MAX || overlap > best_overlap {
                best_block = Some(block);
                best_overlap = overlap;
            }
        }
    }
    if let Some(block) = best_block {
        return block;
    }
    // No free aligned block: keep whatever previous GPUs are free, fill the
    // rest with the lowest free ids.
    let keep = prev.intersection(free);
    let keep = if keep.len() > width {
        keep.take_lowest(width).expect("len checked")
    } else {
        keep
    };
    let need = width - keep.len();
    let filler = free
        .difference(keep)
        .take_lowest(need)
        .expect("demand checked by caller");
    keep.union(filler)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetriserve_costmodel::Resolution;
    use tetriserve_simulator::topology::Topology;

    fn preq(id: u64, width: usize, previous: Option<GpuSet>) -> PlacementRequest {
        PlacementRequest {
            id: RequestId(id),
            resolution: Resolution::R512,
            width,
            steps: 5,
            remaining_before: 40,
            previous,
        }
    }

    fn h100() -> Topology {
        Topology::h100_nvlink(8)
    }

    fn placed(
        requests: &[PlacementRequest],
        free: GpuSet,
        preserve: bool,
        topology: &Topology,
    ) -> Vec<Assignment> {
        let mut out = vec![Assignment {
            requests: Batch::one(RequestId(99)),
            resolution: Resolution::R256,
            gpus: GpuSet::EMPTY,
            steps: 1,
            remaining_before: 1,
        }];
        place(requests, free, preserve, topology, &mut out);
        out
    }

    #[test]
    fn preservation_keeps_previous_sets() {
        let prev = GpuSet::contiguous(2, 2);
        let out = placed(&[preq(1, 2, Some(prev))], GpuSet::first_n(8), true, &h100());
        assert_eq!(out[0].gpus, prev);
    }

    #[test]
    fn without_preservation_requests_move() {
        let prev = GpuSet::contiguous(2, 2);
        let out = placed(
            &[preq(1, 2, Some(prev))],
            GpuSet::first_n(8),
            false,
            &h100(),
        );
        assert_eq!(
            out[0].gpus,
            GpuSet::contiguous(0, 2),
            "naive fill moves the request"
        );
    }

    #[test]
    fn no_overlap_between_assignments() {
        let reqs = vec![preq(1, 4, None), preq(2, 2, None), preq(3, 2, None)];
        let out = placed(&reqs, GpuSet::first_n(8), true, &h100());
        let mut union = GpuSet::EMPTY;
        for a in &out {
            assert!(union.is_disjoint(a.gpus), "{a:?}");
            union = union.union(a.gpus);
        }
        assert_eq!(union.len(), 8);
    }

    #[test]
    fn preserved_and_fresh_requests_coexist() {
        let prev = GpuSet::contiguous(4, 4);
        let reqs = vec![preq(1, 4, Some(prev)), preq(2, 4, None)];
        let out = placed(&reqs, GpuSet::first_n(8), true, &h100());
        assert_eq!(out[0].gpus, prev);
        assert_eq!(out[1].gpus, GpuSet::contiguous(0, 4));
    }

    #[test]
    fn width_change_falls_back_to_overlap() {
        // Request previously on {2,3} now needs 4 GPUs; with only a
        // fragmented pool no aligned 4-block is free, so it keeps {2,3}.
        let prev = GpuSet::contiguous(2, 2);
        let free = GpuSet::from_mask(0b0111_1100); // {2..6}
        let out = placed(&[preq(1, 4, Some(prev))], free, true, &h100());
        assert!(out[0].gpus.is_superset_of(prev), "{:?}", out[0].gpus);
        assert_eq!(out[0].gpus.len(), 4);
    }

    #[test]
    fn a40_prefers_aligned_pairs() {
        let topo = Topology::a40_paired(4);
        let out = placed(&[preq(1, 2, None)], GpuSet::first_n(4), true, &topo);
        // {0,1} is an NVLink pair; a naive scatter like {0,2} would cross
        // PCIe.
        assert!(topo.group_is_nvlink_only(out[0].gpus), "{:?}", out[0].gpus);
    }

    #[test]
    fn stale_previous_set_is_ignored_when_busy() {
        let prev = GpuSet::contiguous(0, 2);
        let free = GpuSet::contiguous(2, 6); // previous set not free
        let out = placed(&[preq(1, 2, Some(prev))], free, true, &h100());
        assert!(free.is_superset_of(out[0].gpus));
        assert!(out[0].gpus.is_disjoint(prev));
    }

    #[test]
    fn placement_replaces_the_buffer_contents() {
        // `placed` seeds the buffer with a stale assignment; only the
        // placed requests come back, one single-request batch each.
        let out = placed(
            &[preq(1, 2, None), preq(2, 1, None)],
            GpuSet::first_n(8),
            true,
            &h100(),
        );
        assert_eq!(out.len(), 2);
        assert_eq!(*out[0].requests, [RequestId(1)]);
        assert_eq!(*out[1].requests, [RequestId(2)]);
    }

    #[test]
    #[should_panic(expected = "exceeds free pool")]
    fn overcommitted_demand_panics() {
        placed(&[preq(1, 8, None)], GpuSet::first_n(4), true, &h100());
    }
}
