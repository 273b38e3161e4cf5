//! The stage axis of a DiT request: condition encode → denoise → VAE
//! decode.
//!
//! The paper's serving model treats a request as a flat denoise-step
//! sequence with a hard-coded tail decode. Real DiT pipelines are
//! stage-structured — a lightweight condition encode (text encoder +
//! latent preparation), the heavy iterative denoise, and the VAE decode —
//! and video DiT adds a *frames* axis that multiplies the denoise and
//! decode cost while leaving the condition encode untouched (the prompt
//! is encoded once per request, not per frame).
//!
//! [`StageProfile`] is the compact, copyable descriptor carried on every
//! `RequestSpec`: together with the request's resolution and step count
//! it fully determines the request's stages, encode? → denoise{steps} →
//! decode{frames}, and the cost table prices each. The flat single-image
//! profile ([`StageProfile::FLAT`]) is the identity element of every
//! cost formula in this crate — frame scaling multiplies by exactly 1
//! and the encode stage contributes exactly 0 seconds — so pre-stage
//! workloads price (and therefore schedule) bit-identically.

use crate::resolution::Resolution;

use tetriserve_simulator::time::SimDuration;

/// The per-request stage descriptor: whether the request carries an
/// explicit condition-encode stage, and how many output frames it
/// renders (1 for images; > 1 for video DiT, multiplying denoise and
/// decode cost).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StageProfile {
    /// Whether a condition-encode stage must complete before the first
    /// denoise step may be scheduled. Flat image workloads fold the
    /// (tiny) encode into arrival and carry `false` here.
    pub encode: bool,
    /// Output frames: every denoise step and the VAE decode scale
    /// linearly with this count. Always ≥ 1.
    pub frames: u32,
}

impl StageProfile {
    /// The flat single-image profile — the identity element: no encode
    /// stage, one frame. Pre-stage workloads carry exactly this and
    /// price bit-identically to the pre-stage cost formulas.
    pub const FLAT: StageProfile = StageProfile {
        encode: false,
        frames: 1,
    };

    /// A video profile: explicit condition encode plus `frames` output
    /// frames.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is zero.
    pub fn video(frames: u32) -> StageProfile {
        assert!(frames > 0, "a request renders at least one frame");
        StageProfile {
            encode: true,
            frames,
        }
    }

    /// An image profile with an explicit condition-encode stage.
    pub fn with_encode() -> StageProfile {
        StageProfile {
            encode: true,
            frames: 1,
        }
    }

    /// Whether this is the flat single-image profile.
    pub fn is_flat(&self) -> bool {
        *self == StageProfile::FLAT
    }

    /// The frame count as an `f64` multiplier. Exactly `1.0` for flat
    /// profiles, so `x * profile.frame_factor()` is bit-identical to `x`
    /// on pre-stage workloads.
    pub fn frame_factor(&self) -> f64 {
        f64::from(self.frames)
    }
}

impl Default for StageProfile {
    fn default() -> Self {
        StageProfile::FLAT
    }
}

/// Scales a per-frame duration by a profile's frame count. Integer
/// multiplication on the microsecond grid, so `frames == 1` is exactly
/// the identity — the bit-identity anchor for flat workloads.
pub fn frame_scaled(per_frame: SimDuration, frames: u32) -> SimDuration {
    per_frame * u64::from(frames)
}

/// The condition-encode latency for one request at a resolution, scaled
/// to the hardware's effective throughput — the same shape as
/// [`crate::model::DitModel::decode_time`] but cheaper: the text encoder
/// and latent preparation are a fixed small cost plus a mild per-token
/// term, and run once per request regardless of frame count.
pub fn encode_time(res: Resolution, hw_effective_tflops: f64) -> SimDuration {
    let h100_effective = 989.0 * 0.80;
    let scale = h100_effective / hw_effective_tflops;
    let us = (3_000.0 + res.tokens() as f64 * 0.8) * scale;
    SimDuration::from_micros(us.round() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_is_the_identity_profile() {
        let flat = StageProfile::FLAT;
        assert!(flat.is_flat());
        assert!(!flat.encode);
        assert_eq!(flat.frames, 1);
        assert_eq!(flat.frame_factor().to_bits(), 1.0f64.to_bits());
        let d = SimDuration::from_micros(12_345);
        assert_eq!(frame_scaled(d, 1), d);
        assert_eq!(StageProfile::default(), flat);
    }

    #[test]
    fn video_profiles_scale_frames() {
        let v = StageProfile::video(8);
        assert!(v.encode && v.frames == 8);
        assert!(!v.is_flat());
        let d = SimDuration::from_micros(1_000);
        assert_eq!(frame_scaled(d, 8), SimDuration::from_micros(8_000));
    }

    #[test]
    fn encode_is_cheaper_than_decode() {
        let h100 = 989.0 * 0.80;
        for res in [Resolution::R256, Resolution::R1024, Resolution::R2048] {
            let enc = encode_time(res, h100);
            let dec = crate::model::DitModel::flux_dev().decode_time(res, h100);
            assert!(enc < dec, "{res}: encode {enc} >= decode {dec}");
        }
    }

    #[test]
    fn encode_scales_with_hardware() {
        let fast = encode_time(Resolution::R1024, 989.0 * 0.80);
        let slow = encode_time(Resolution::R1024, 149.7 * 0.6);
        assert!(slow > fast);
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn zero_frames_rejected() {
        let _ = StageProfile::video(0);
    }
}
