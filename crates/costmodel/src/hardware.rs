//! GPU hardware descriptions for the two paper testbeds.

use tetriserve_simulator::topology::Topology;

/// A GPU product with serving-relevant characteristics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum GpuKind {
    /// NVIDIA H100-80GB SXM (NVLink 4.0 / NVSwitch node).
    H100,
    /// NVIDIA A40-48GB (NVLink bridges in pairs, PCIe 4.0 across pairs).
    A40,
}

impl GpuKind {
    /// Dense BF16 tensor-core peak throughput, TFLOPS.
    pub fn peak_tflops(self) -> f64 {
        match self {
            GpuKind::H100 => 989.0,
            GpuKind::A40 => 149.7,
        }
    }

    /// Best-case model FLOPs utilisation of a well-tuned DiT kernel stack
    /// at full occupancy.
    pub fn mfu_max(self) -> f64 {
        match self {
            GpuKind::H100 => 0.80,
            GpuKind::A40 => 0.60,
        }
    }

    /// Effective sustained TFLOPS at full occupancy.
    pub fn effective_tflops(self) -> f64 {
        self.peak_tflops() * self.mfu_max()
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            GpuKind::H100 => "H100-80GB",
            GpuKind::A40 => "A40-48GB",
        }
    }
}

impl std::fmt::Display for GpuKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A single serving node: a GPU kind plus device count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct ClusterSpec {
    /// GPU product installed in the node.
    pub gpu: GpuKind,
    /// Number of GPUs.
    pub n_gpus: usize,
}

impl ClusterSpec {
    /// The paper's primary testbed: 8 × H100 with NVSwitch.
    pub fn h100x8() -> ClusterSpec {
        ClusterSpec {
            gpu: GpuKind::H100,
            n_gpus: 8,
        }
    }

    /// The paper's secondary testbed: 4 × A40, NVLink in pairs.
    pub fn a40x4() -> ClusterSpec {
        ClusterSpec {
            gpu: GpuKind::A40,
            n_gpus: 4,
        }
    }

    /// Builds the interconnect topology for this node.
    pub fn topology(&self) -> Topology {
        match self.gpu {
            GpuKind::H100 => Topology::h100_nvlink(self.n_gpus),
            GpuKind::A40 => Topology::a40_paired(self.n_gpus),
        }
    }

    /// The power-of-two sequence-parallel degrees available on this node:
    /// `{1, 2, 4, …, n_gpus}`.
    pub fn sp_degrees(&self) -> Vec<usize> {
        let mut k = 1;
        let mut out = Vec::new();
        while k <= self.n_gpus {
            out.push(k);
            k *= 2;
        }
        out
    }
}

impl std::fmt::Display for ClusterSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}×{}", self.n_gpus, self.gpu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetriserve_simulator::gpuset::GpuSet;

    #[test]
    fn h100_beats_a40_substantially() {
        let ratio = GpuKind::H100.effective_tflops() / GpuKind::A40.effective_tflops();
        assert!(ratio > 5.0 && ratio < 12.0, "ratio {ratio}");
    }

    #[test]
    fn testbeds_match_the_paper() {
        let h = ClusterSpec::h100x8();
        assert_eq!(h.n_gpus, 8);
        assert_eq!(h.sp_degrees(), vec![1, 2, 4, 8]);
        let a = ClusterSpec::a40x4();
        assert_eq!(a.n_gpus, 4);
        assert_eq!(a.sp_degrees(), vec![1, 2, 4]);
    }

    #[test]
    fn topologies_reflect_interconnect() {
        let h = ClusterSpec::h100x8().topology();
        let a = ClusterSpec::a40x4().topology();
        // Full-node group bandwidth: NVSwitch ≫ PCIe-crossed pairs.
        assert!(
            h.group_bandwidth_gbps(GpuSet::first_n(8))
                > a.group_bandwidth_gbps(GpuSet::first_n(4)) * 10.0
        );
    }

    #[test]
    fn display_labels() {
        assert_eq!(ClusterSpec::h100x8().to_string(), "8×H100-80GB");
        assert_eq!(GpuKind::A40.to_string(), "A40-48GB");
    }
}
