//! GPU interconnect topology.
//!
//! The two testbeds evaluated in the paper are modelled explicitly:
//!
//! * **8×H100 (NVLink 4.0)** — every GPU pair is connected through the
//!   NVSwitch fabric at full bandwidth (900 GB/s aggregate per GPU).
//! * **4×A40 (paired NVLink + PCIe 4.0)** — GPUs are NVLink-bridged in pairs
//!   `(0,1)` and `(2,3)`; any traffic crossing pairs goes over PCIe 4.0
//!   (≈32 GB/s per direction).
//!
//! Collective cost models ask a topology for the *bottleneck per-GPU
//! bandwidth* of a group: the slowest link any member of the group must use
//! to reach another member. On the A40 box this is what makes a poorly
//! placed SP=2 group (one GPU from each pair) dramatically slower than an
//! aligned one — the effect §6.4 of the paper attributes to PCIe crossings.
//!
//! # Examples
//!
//! ```
//! use tetriserve_simulator::gpuset::GpuSet;
//! use tetriserve_simulator::topology::Topology;
//!
//! let a40 = Topology::a40_paired(4);
//! let aligned = GpuSet::contiguous(0, 2);   // {0,1}: NVLink pair
//! let crossed = GpuSet::from_mask(0b0101);  // {0,2}: crosses PCIe
//! assert!(a40.group_bandwidth_gbps(aligned) > a40.group_bandwidth_gbps(crossed));
//! ```

use crate::gpuset::{GpuId, GpuSet};

/// Kind of link between two GPUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkKind {
    /// NVLink through an NVSwitch fabric (H100-class, all-to-all).
    NvSwitch,
    /// A direct NVLink bridge between two GPUs (A40-class pairs).
    NvLinkBridge,
    /// Host PCIe path between GPUs without a direct NVLink.
    Pcie,
    /// The GPU itself (no transfer needed).
    Local,
}

impl LinkKind {
    /// Effective per-direction bandwidth usable by a collective, in GB/s.
    ///
    /// These are *achievable* collective bandwidths, not marketing peaks:
    /// NVSwitch H100 collectives (with NVLS/SHARP offload) sustain a bit
    /// under half the 900 GB/s aggregate per GPU; a two-GPU NVLink bridge
    /// on A40 sustains ≈ 50 GB/s; PCIe 4.0 x16 ≈ 22 GB/s after protocol
    /// overhead.
    pub fn effective_bandwidth_gbps(self) -> f64 {
        match self {
            LinkKind::NvSwitch => 400.0,
            LinkKind::NvLinkBridge => 50.0,
            LinkKind::Pcie => 22.0,
            LinkKind::Local => f64::INFINITY,
        }
    }
}

/// Interconnect layout of a single multi-GPU node.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    n_gpus: usize,
    layout: Layout,
}

#[derive(Debug, Clone, PartialEq)]
enum Layout {
    /// All pairs connected through a switch fabric.
    Switched,
    /// GPUs `2i` and `2i+1` share an NVLink bridge; other pairs use PCIe.
    Paired,
}

impl Topology {
    /// An H100-style node: `n` GPUs, full NVSwitch connectivity.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds [`GpuSet::MAX_GPUS`].
    pub fn h100_nvlink(n: usize) -> Self {
        Self::new(n, Layout::Switched)
    }

    /// An A40-style node: `n` GPUs NVLink-bridged in adjacent pairs,
    /// PCIe 4.0 between pairs.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds [`GpuSet::MAX_GPUS`].
    pub fn a40_paired(n: usize) -> Self {
        Self::new(n, Layout::Paired)
    }

    fn new(n: usize, layout: Layout) -> Self {
        assert!(
            n > 0 && n <= GpuSet::MAX_GPUS,
            "topology size {n} out of range 1..={}",
            GpuSet::MAX_GPUS
        );
        Topology { n_gpus: n, layout }
    }

    /// Number of GPUs in the node.
    pub fn n_gpus(&self) -> usize {
        self.n_gpus
    }

    /// The set of all GPUs in the node.
    pub fn all_gpus(&self) -> GpuSet {
        GpuSet::first_n(self.n_gpus)
    }

    /// The link kind between two GPUs.
    ///
    /// # Panics
    ///
    /// Panics if either id is outside the node.
    pub fn link(&self, a: GpuId, b: GpuId) -> LinkKind {
        assert!(
            a.0 < self.n_gpus && b.0 < self.n_gpus,
            "gpu id out of range for {}-GPU node",
            self.n_gpus
        );
        if a == b {
            return LinkKind::Local;
        }
        match self.layout {
            Layout::Switched => LinkKind::NvSwitch,
            Layout::Paired => {
                if a.0 / 2 == b.0 / 2 {
                    LinkKind::NvLinkBridge
                } else {
                    LinkKind::Pcie
                }
            }
        }
    }

    /// Bottleneck per-GPU collective bandwidth over `group`, in GB/s: the
    /// bandwidth of its [`group_link`](Topology::group_link).
    ///
    /// Defined as the minimum effective bandwidth over every pair of group
    /// members: an all-to-all over the group can progress no faster than its
    /// slowest required link. Single-GPU (or empty) groups report infinite
    /// bandwidth since no transfer occurs.
    ///
    /// # Panics
    ///
    /// Panics if the group contains GPUs outside the node.
    pub fn group_bandwidth_gbps(&self, group: GpuSet) -> f64 {
        self.group_link(group).effective_bandwidth_gbps()
    }

    /// The slowest link any member of `group` uses to reach another:
    /// [`LinkKind::Local`] for a single-GPU (or empty) group.
    ///
    /// The layout fixes it without visiting the pairs. On a switched node
    /// every pair shares the switch. On a paired node a bridge joins
    /// exactly two GPUs, so the group's links are all NVLink only when it
    /// is one whole pair; any other group of two or more has a member pair
    /// that crosses PCIe, the slowest link.
    ///
    /// # Panics
    ///
    /// Panics if the group contains GPUs outside the node.
    pub fn group_link(&self, group: GpuSet) -> LinkKind {
        assert!(
            self.all_gpus().is_superset_of(group),
            "group {group:?} contains GPUs outside the {}-GPU node",
            self.n_gpus
        );
        if group.len() < 2 {
            return LinkKind::Local;
        }
        match self.layout {
            Layout::Switched => LinkKind::NvSwitch,
            Layout::Paired => {
                // The pair of the group's lowest GPU, as a mask.
                let pair = 0b11 << (group.mask().trailing_zeros() & !1);
                if group.mask() == pair {
                    LinkKind::NvLinkBridge
                } else {
                    LinkKind::Pcie
                }
            }
        }
    }

    /// Whether a group avoids every PCIe crossing (A40 "good placement").
    pub fn group_is_nvlink_only(&self, group: GpuSet) -> bool {
        pairs(group).all(|(a, b)| self.link(a, b) != LinkKind::Pcie)
    }

    /// Enumerates the *aligned* candidate placements of size `k` (a power of
    /// two): blocks `{0..k}`, `{k..2k}`, …
    ///
    /// On the paired layout these blocks are exactly the placements that
    /// maximise NVLink usage for their size; on a switched layout alignment
    /// is irrelevant but harmless.
    ///
    /// # Panics
    ///
    /// Panics (when called, not when iterated) if `k` is not a power of two.
    pub fn aligned_blocks(&self, k: usize) -> impl Iterator<Item = GpuSet> {
        assert!(
            k > 0 && k.is_power_of_two(),
            "block size {k} must be a power of two"
        );
        (0..self.n_gpus / k).map(move |i| GpuSet::contiguous(i * k, k))
    }
}

/// Every unordered pair `(a, b)` of distinct group members, `a < b`.
fn pairs(group: GpuSet) -> impl Iterator<Item = (GpuId, GpuId)> {
    group
        .iter()
        .enumerate()
        .flat_map(move |(i, a)| group.iter().skip(i + 1).map(move |b| (a, b)))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bandwidth as the minimum over every member pair's link: the
    /// definition [`Topology::group_bandwidth_gbps`] computes in closed
    /// form.
    fn pairwise_bandwidth_gbps(t: &Topology, group: GpuSet) -> f64 {
        pairs(group).fold(f64::INFINITY, |min_bw, (a, b)| {
            min_bw.min(t.link(a, b).effective_bandwidth_gbps())
        })
    }

    #[test]
    fn closed_form_bandwidth_is_the_pairwise_minimum_on_every_small_group() {
        // Every group of both layouts up to 12 GPUs; odd sizes leave the
        // last GPU of a paired node without a partner.
        for n in 1..=12 {
            for t in [Topology::h100_nvlink(n), Topology::a40_paired(n)] {
                for mask in 0..1u64 << n {
                    let group = GpuSet::from_mask(mask);
                    let want = pairwise_bandwidth_gbps(&t, group);
                    let got = t.group_bandwidth_gbps(group);
                    assert_eq!(got.to_bits(), want.to_bits(), "{t:?} {group:?}");
                }
            }
        }
    }

    proptest::proptest! {
        /// Random groups on nodes up to the 64-GPU limit: sparse and dense
        /// masks, and groups of two (one whole pair or not).
        #[test]
        fn prop_closed_form_bandwidth_is_the_pairwise_minimum(
            n in 1usize..=GpuSet::MAX_GPUS,
            paired in proptest::prelude::any::<bool>(),
            masks in (proptest::prelude::any::<u64>(), proptest::prelude::any::<u64>()),
            two in (0usize..GpuSet::MAX_GPUS, 0usize..GpuSet::MAX_GPUS, 0u32..3),
        ) {
            let t = if paired {
                Topology::a40_paired(n)
            } else {
                Topology::h100_nvlink(n)
            };
            let (a, b) = masks;
            let (x, y, kind) = two;
            let group = match kind {
                0 => GpuSet::from_mask(a & b),
                1 => GpuSet::from_mask(a | b),
                _ => GpuSet::single(GpuId(x % n)).with(GpuId(y % n)),
            }
            .intersection(t.all_gpus());
            let want = pairwise_bandwidth_gbps(&t, group);
            proptest::prop_assert_eq!(t.group_bandwidth_gbps(group).to_bits(), want.to_bits());
        }
    }

    #[test]
    fn bandwidth_at_the_gpu_limit() {
        let a40 = Topology::a40_paired(GpuSet::MAX_GPUS);
        let h100 = Topology::h100_nvlink(GpuSet::MAX_GPUS);
        assert_eq!(a40.group_bandwidth_gbps(a40.all_gpus()), 22.0);
        assert_eq!(a40.group_bandwidth_gbps(GpuSet::contiguous(62, 2)), 50.0);
        assert_eq!(a40.group_bandwidth_gbps(GpuSet::contiguous(61, 2)), 22.0);
        assert_eq!(h100.group_bandwidth_gbps(h100.all_gpus()), 400.0);
    }

    #[test]
    #[should_panic(expected = "outside the 4-GPU node")]
    fn group_bandwidth_rejects_foreign_gpus() {
        Topology::a40_paired(4).group_bandwidth_gbps(GpuSet::contiguous(3, 2));
    }

    #[test]
    fn h100_is_uniform() {
        let t = Topology::h100_nvlink(8);
        assert_eq!(t.link(GpuId(0), GpuId(7)), LinkKind::NvSwitch);
        assert_eq!(t.link(GpuId(3), GpuId(3)), LinkKind::Local);
        let any_group = GpuSet::from_mask(0b1010_0101);
        assert_eq!(t.group_bandwidth_gbps(any_group), 400.0);
        assert!(t.group_is_nvlink_only(any_group));
    }

    #[test]
    fn a40_pairs_are_nvlink_crossings_are_pcie() {
        let t = Topology::a40_paired(4);
        assert_eq!(t.link(GpuId(0), GpuId(1)), LinkKind::NvLinkBridge);
        assert_eq!(t.link(GpuId(2), GpuId(3)), LinkKind::NvLinkBridge);
        assert_eq!(t.link(GpuId(1), GpuId(2)), LinkKind::Pcie);
        assert_eq!(t.link(GpuId(0), GpuId(3)), LinkKind::Pcie);
    }

    #[test]
    fn a40_group_bandwidth_depends_on_placement() {
        let t = Topology::a40_paired(4);
        let aligned = GpuSet::contiguous(0, 2);
        let crossed = GpuSet::from_mask(0b0101);
        assert_eq!(t.group_bandwidth_gbps(aligned), 50.0);
        assert_eq!(t.group_bandwidth_gbps(crossed), 22.0);
        assert_eq!(t.group_link(aligned), LinkKind::NvLinkBridge);
        assert_eq!(t.group_link(crossed), LinkKind::Pcie);
        assert_eq!(t.group_link(GpuSet::single(GpuId(3))), LinkKind::Local);
        // Any 4-GPU group on a 4-GPU paired node must cross PCIe.
        assert_eq!(t.group_bandwidth_gbps(t.all_gpus()), 22.0);
        assert!(!t.group_is_nvlink_only(t.all_gpus()));
    }

    #[test]
    fn single_gpu_group_needs_no_bandwidth() {
        let t = Topology::a40_paired(4);
        assert!(t
            .group_bandwidth_gbps(GpuSet::single(GpuId(2)))
            .is_infinite());
        assert!(t.group_bandwidth_gbps(GpuSet::EMPTY).is_infinite());
    }

    #[test]
    fn aligned_blocks_tile_the_node() {
        let t = Topology::h100_nvlink(8);
        let blocks: Vec<GpuSet> = t.aligned_blocks(2).collect();
        assert_eq!(blocks.len(), 4);
        assert_eq!(blocks[0], GpuSet::contiguous(0, 2));
        assert_eq!(blocks[3], GpuSet::contiguous(6, 2));
        let union = blocks.iter().fold(GpuSet::EMPTY, |acc, b| acc.union(*b));
        assert_eq!(union, t.all_gpus());
        assert_eq!(t.aligned_blocks(8).count(), 1);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn aligned_blocks_rejects_non_power_of_two() {
        let _ = Topology::h100_nvlink(8).aligned_blocks(3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn link_rejects_foreign_gpu() {
        Topology::a40_paired(4).link(GpuId(0), GpuId(4));
    }
}
