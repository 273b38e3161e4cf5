//! The latent transfer-time model.
//!
//! TetriServe executes at step granularity, so when the scheduler changes a
//! request's parallel degree (or GPU set) between rounds, the intermediate
//! latent tensor must move to the new group. The paper hands it over as a
//! *Future-like* value whose transfer cost is negligible because latents
//! live in the compressed latent space (§5 "Latent Transfer", Table 4:
//! < 0.05% of step latency). The engine reproduces that overlap inline: a
//! moved request's next dispatch starts once both the synchronous stall
//! and the asynchronous [`transfer_time`] have elapsed.
//!
//! # Examples
//!
//! ```
//! use tetriserve_simulator::latent::transfer_time;
//! use tetriserve_simulator::time::SimDuration;
//!
//! // A 2 MiB latent over a 300 GB/s NVSwitch path is ready in microseconds.
//! let d = transfer_time(2 << 20, 300.0);
//! assert!(d < SimDuration::from_millis(1));
//! ```

use crate::time::SimDuration;

/// Transfer latency of `bytes` over a path with the given bandwidth.
///
/// Adds a fixed 5 µs launch latency for the copy kernel / NCCL send, which
/// dominates for the tiny latents of small resolutions.
///
/// # Panics
///
/// Panics if `bandwidth_gbps` is not positive.
pub fn transfer_time(bytes: u64, bandwidth_gbps: f64) -> SimDuration {
    assert!(
        bandwidth_gbps > 0.0,
        "latent transfer bandwidth must be positive, got {bandwidth_gbps}"
    );
    if bandwidth_gbps.is_infinite() {
        return SimDuration::from_micros(5);
    }
    let secs = bytes as f64 / (bandwidth_gbps * 1e9);
    SimDuration::from_secs_f64(secs) + SimDuration::from_micros(5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_scales_with_bytes() {
        let small = transfer_time(1 << 10, 300.0);
        let large = transfer_time(64 << 20, 300.0);
        assert!(large > small);
        // 64 MiB at 300 GB/s ≈ 224 µs + launch.
        assert!(large < SimDuration::from_millis(1));
    }

    #[test]
    fn transfer_time_has_launch_floor() {
        assert!(transfer_time(0, 300.0) >= SimDuration::from_micros(5));
        assert_eq!(
            transfer_time(1 << 30, f64::INFINITY),
            SimDuration::from_micros(5)
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn transfer_rejects_zero_bandwidth() {
        transfer_time(1, 0.0);
    }
}
