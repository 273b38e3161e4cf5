//! DiT model descriptions.
//!
//! The paper evaluates FLUX.1-dev (12 B parameters, served on H100s) and
//! Stable Diffusion 3 Medium (2 B parameters, served on A40s). A
//! [`DitModel`] carries everything the cost model needs: transformer shape
//! (for communication volume), the FLOPs law, the denoising schedule length,
//! latent geometry and VAE decode cost.

use crate::flops::FlopsModel;
use crate::resolution::Resolution;

use tetriserve_simulator::time::SimDuration;

/// Bytes per latent-space token (16 channels × 2×2 latent patch × bf16).
pub const LATENT_BYTES_PER_TOKEN: u64 = 128;

/// A diffusion-transformer model.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DitModel {
    /// Model name for reports.
    pub name: String,
    /// Parameter count in billions (weights footprint: 2 bytes/param).
    pub params_b: f64,
    /// Transformer hidden dimension (drives all-to-all volume).
    pub hidden: u64,
    /// Number of transformer blocks (drives collective count per step).
    pub layers: u32,
    /// Default denoising schedule length.
    pub steps: u32,
    /// Request FLOPs law for the default schedule.
    pub flops: FlopsModel,
}

impl DitModel {
    /// FLUX.1-dev: 12 B parameters, 19 joint + 38 single transformer blocks
    /// (57 attention layers), hidden 3072, 50-step schedule. The FLOPs law
    /// is fitted exactly to Table 1.
    pub fn flux_dev() -> DitModel {
        DitModel {
            name: "FLUX.1-dev".to_owned(),
            params_b: 12.0,
            hidden: 3072,
            layers: 57,
            steps: 50,
            flops: FlopsModel::flux_dev(),
        }
    }

    /// Stable Diffusion 3 Medium: 2 B parameters, 24 blocks, hidden 1536,
    /// 28-step schedule. Its FLOPs law is the FLUX law scaled by the
    /// parameter ratio — per-token compute in a transformer is proportional
    /// to parameter count at fixed sequence length.
    pub fn sd3_medium() -> DitModel {
        DitModel {
            name: "SD3-Medium".to_owned(),
            params_b: 2.0,
            hidden: 1536,
            layers: 24,
            steps: 28,
            flops: FlopsModel::flux_dev().scaled(2.0 / 12.0),
        }
    }

    /// Builder for custom models (used by tests and extensions).
    pub fn builder(name: impl Into<String>) -> DitModelBuilder {
        DitModelBuilder {
            name: name.into(),
            params_b: 1.0,
            hidden: 1024,
            layers: 16,
            steps: 20,
            flops: FlopsModel::flux_dev().scaled(1.0 / 12.0),
        }
    }

    /// Per-step TFLOPs at a resolution, for the default schedule.
    pub fn step_tflops(&self, res: Resolution) -> f64 {
        self.flops.per_step_tflops(res.tokens(), self.steps)
    }

    /// Latent tensor size for a resolution.
    pub fn latent_bytes(&self, res: Resolution) -> u64 {
        res.tokens() * LATENT_BYTES_PER_TOKEN
    }

    /// VAE decode latency for one image, scaled to the hardware's effective
    /// throughput (`hw_effective_tflops`).
    ///
    /// Calibrated so a 1024² decode on H100 is ≈ 15 ms — small relative to
    /// diffusion, as §5 of the paper requires ("largely off the critical
    /// path").
    pub fn decode_time(&self, res: Resolution, hw_effective_tflops: f64) -> SimDuration {
        let h100_effective = 989.0 * 0.80;
        let scale = h100_effective / hw_effective_tflops;
        let us = (5_000.0 + res.tokens() as f64 * 2.5) * scale;
        SimDuration::from_micros(us.round() as u64)
    }

    /// VAE decode latency for `frames` output frames: one
    /// [`decode_time`](Self::decode_time) per frame, serialized on the
    /// decoder. Integer scaling on the microsecond grid, so `frames == 1`
    /// is bit-identical to the single-image decode.
    pub fn decode_time_frames(
        &self,
        res: Resolution,
        hw_effective_tflops: f64,
        frames: u32,
    ) -> SimDuration {
        crate::stage::frame_scaled(self.decode_time(res, hw_effective_tflops), frames)
    }

    /// Condition-encode latency for one request at a resolution — the
    /// text encoder plus latent preparation, run once per request
    /// regardless of frame count.
    pub fn encode_time(&self, res: Resolution, hw_effective_tflops: f64) -> SimDuration {
        crate::stage::encode_time(res, hw_effective_tflops)
    }
}

/// Incremental builder for a custom [`DitModel`].
#[derive(Debug, Clone)]
pub struct DitModelBuilder {
    name: String,
    params_b: f64,
    hidden: u64,
    layers: u32,
    steps: u32,
    flops: FlopsModel,
}

impl DitModelBuilder {
    /// Sets the parameter count in billions and rescales the FLOPs law to
    /// match (relative to FLUX.1-dev's 12 B).
    pub fn params_b(mut self, params_b: f64) -> Self {
        assert!(params_b > 0.0, "parameter count must be positive");
        self.params_b = params_b;
        self.flops = FlopsModel::flux_dev().scaled(params_b / 12.0);
        self
    }

    /// Sets the transformer hidden dimension.
    pub fn hidden(mut self, hidden: u64) -> Self {
        self.hidden = hidden;
        self
    }

    /// Sets the number of transformer blocks.
    pub fn layers(mut self, layers: u32) -> Self {
        self.layers = layers;
        self
    }

    /// Sets the denoising schedule length.
    pub fn steps(mut self, steps: u32) -> Self {
        assert!(steps > 0, "schedule must have at least one step");
        self.steps = steps;
        self
    }

    /// Overrides the FLOPs law entirely.
    pub fn flops(mut self, flops: FlopsModel) -> Self {
        self.flops = flops;
        self
    }

    /// Finalises the model.
    pub fn build(self) -> DitModel {
        DitModel {
            name: self.name,
            params_b: self.params_b,
            hidden: self.hidden,
            layers: self.layers,
            steps: self.steps,
            flops: self.flops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flux_spec_matches_paper() {
        let m = DitModel::flux_dev();
        assert_eq!(m.steps, 50);
        // 2048² per-step compute ≈ 24 964.72 / 50 TFLOPs.
        let s = m.step_tflops(Resolution::R2048);
        assert!((s - 24_964.72 / 50.0).abs() / s < 1e-3, "step tflops {s}");
    }

    #[test]
    fn sd3_is_six_times_lighter() {
        let flux = DitModel::flux_dev();
        let sd3 = DitModel::sd3_medium();
        let ratio = flux.flops.request_tflops(4096) / sd3.flops.request_tflops(4096);
        assert!((ratio - 6.0).abs() < 1e-9, "ratio {ratio}");
        assert_eq!(sd3.steps, 28);
    }

    #[test]
    fn latent_bytes_are_compact() {
        let m = DitModel::flux_dev();
        // 2048²: 16 384 tokens × 128 B = 2 MiB — tiny, per §5/Table 4.
        assert_eq!(m.latent_bytes(Resolution::R2048), 2 << 20);
    }

    #[test]
    fn decode_is_off_the_critical_path() {
        let m = DitModel::flux_dev();
        let h100 = 989.0 * 0.80;
        let decode = m.decode_time(Resolution::R1024, h100);
        assert!(decode < SimDuration::from_millis(80), "decode {decode}");
        // Diffusion at 1024² is ≈ 100 TFLOPs/step × 50 steps; decode must be
        // well under 5% of it even at SP=8.
        let a40_decode = m.decode_time(Resolution::R1024, 149.7 * 0.6);
        assert!(a40_decode > decode);
    }

    #[test]
    fn frame_decode_is_exact_integer_scaling() {
        let m = DitModel::flux_dev();
        let h100 = 989.0 * 0.80;
        let one = m.decode_time(Resolution::R1024, h100);
        assert_eq!(m.decode_time_frames(Resolution::R1024, h100, 1), one);
        assert_eq!(m.decode_time_frames(Resolution::R1024, h100, 8), one * 8);
    }

    #[test]
    fn builder_customises_models() {
        let m = DitModel::builder("tiny")
            .params_b(0.6)
            .hidden(768)
            .layers(12)
            .steps(10)
            .build();
        assert_eq!(m.name, "tiny");
        assert_eq!(m.layers, 12);
        let flux = DitModel::flux_dev();
        let ratio = flux.flops.request_tflops(1024) / m.flops.request_tflops(1024);
        assert!((ratio - 20.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn builder_rejects_nonpositive_params() {
        let _ = DitModel::builder("bad").params_b(0.0);
    }
}
