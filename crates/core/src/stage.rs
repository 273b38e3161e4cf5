//! Stage-level planning: pool layouts and the deterministic stage
//! dispatcher.
//!
//! A request's stages (encode? → denoise{steps} → decode{frames}, see
//! `tetriserve_costmodel::stage`) turn the serving problem into a small
//! pipeline. Planning and EDF pricing read the request's
//! `StageProfile` and the cost table's stage times directly; there are
//! no per-stage deadlines. This module holds the pieces the scheduler and
//! simulator share:
//!
//! * [`PoolLayout`] — whether a cluster runs every stage on one GPU pool
//!   (unified, the paper's layout) or dedicates small GPU subsets to the
//!   lightweight encode/decode stages so the heavy denoise gang never
//!   waits behind a VAE decode (disaggregated, GENSERVE-style);
//! * [`plan_stage_dispatch`] — the deterministic earliest-free-slot rule
//!   used for both the encode and decode pools. Pure, allocation-free,
//!   and input-ordered: the structural determinism anchor for the stage
//!   planner in `tetrilint`'s interprocedural self-check.

use tetriserve_simulator::time::{SimDuration, SimTime};

/// How a cluster assigns GPUs to pipeline stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PoolLayout {
    /// Every stage shares the full GPU set: the denoise packer owns all
    /// GPUs and the VAE decode runs fused on the finishing gang (the
    /// paper's layout, and the pre-stage behaviour bit-for-bit).
    #[default]
    Unified,
    /// Dedicated encode and decode pools carved out of the cluster; the
    /// denoise packer plans over the remaining GPUs, and finished
    /// requests hand off to a decode slot instead of serializing on the
    /// fused engine decoder.
    Disaggregated {
        /// GPUs dedicated to condition encode. May be zero when the mix
        /// has no explicit encode stages.
        encode_gpus: usize,
        /// GPUs dedicated to VAE decode. Must be at least one.
        decode_gpus: usize,
    },
}

impl PoolLayout {
    /// A standard disaggregated carve-out: one encode GPU and two decode
    /// GPUs — sized for mixes where decode pressure, not encode, is the
    /// bottleneck.
    pub fn disaggregated_default() -> PoolLayout {
        PoolLayout::Disaggregated {
            encode_gpus: 1,
            decode_gpus: 2,
        }
    }

    /// The number of GPUs left for the denoise packer out of `n_gpus`.
    ///
    /// # Panics
    ///
    /// Panics if a disaggregated carve-out leaves no denoise GPUs.
    pub fn denoise_gpus(&self, n_gpus: usize) -> usize {
        match *self {
            PoolLayout::Unified => n_gpus,
            PoolLayout::Disaggregated {
                encode_gpus,
                decode_gpus,
            } => {
                assert!(
                    encode_gpus + decode_gpus < n_gpus,
                    "pool carve-out ({encode_gpus} encode + {decode_gpus} decode) \
                     must leave at least one of {n_gpus} GPUs for denoise"
                );
                n_gpus - encode_gpus - decode_gpus
            }
        }
    }

    /// Whether this layout runs dedicated stage pools.
    pub fn is_disaggregated(&self) -> bool {
        matches!(self, PoolLayout::Disaggregated { .. })
    }

    /// The dedicated stage-pool sizes `(encode, decode)`; `(0, 0)` for
    /// the unified layout.
    pub fn pool_sizes(&self) -> (usize, usize) {
        match *self {
            PoolLayout::Unified => (0, 0),
            PoolLayout::Disaggregated {
                encode_gpus,
                decode_gpus,
            } => (encode_gpus, decode_gpus),
        }
    }
}

/// Picks a slot in a stage pool for a unit of work arriving at `now`
/// with the given `duration`, and returns `(slot, start, done)`.
///
/// Deterministic earliest-free-slot: the slot whose `free_at` is
/// smallest wins, ties broken by lowest index — a pure function of the
/// pool vector and the inputs, with no clock or randomness. Both the
/// encode and decode pools dispatch through here; the caller writes
/// `done` back into `pool[slot]`.
///
/// # Panics
///
/// Panics if the pool is empty.
pub fn plan_stage_dispatch(
    pool: &[SimTime],
    now: SimTime,
    duration: SimDuration,
) -> (usize, SimTime, SimTime) {
    assert!(!pool.is_empty(), "stage pool must have at least one slot");
    let mut slot = 0;
    let mut earliest = SimTime::MAX;
    for (i, &free_at) in pool.iter().enumerate() {
        if free_at < earliest {
            slot = i;
            earliest = free_at;
        }
    }
    let start = earliest.max(now);
    (slot, start, start + duration)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs_f64(s as f64)
    }

    fn d(s: u64) -> SimDuration {
        SimDuration::from_secs_f64(s as f64)
    }

    #[test]
    fn unified_keeps_all_gpus_for_denoise() {
        assert_eq!(PoolLayout::Unified.denoise_gpus(8), 8);
        assert_eq!(PoolLayout::Unified.pool_sizes(), (0, 0));
        assert!(!PoolLayout::Unified.is_disaggregated());
        assert_eq!(PoolLayout::default(), PoolLayout::Unified);
    }

    #[test]
    fn disaggregated_carves_out_pools() {
        let layout = PoolLayout::disaggregated_default();
        assert_eq!(layout.denoise_gpus(8), 5);
        assert_eq!(layout.pool_sizes(), (1, 2));
        assert!(layout.is_disaggregated());
    }

    #[test]
    #[should_panic(expected = "leave at least one")]
    fn carve_out_must_leave_denoise_gpus() {
        let _ = PoolLayout::Disaggregated {
            encode_gpus: 4,
            decode_gpus: 4,
        }
        .denoise_gpus(8);
    }

    #[test]
    fn dispatch_picks_earliest_free_slot() {
        let pool = [t(10), t(3), t(7)];
        let (slot, start, done) = plan_stage_dispatch(&pool, t(5), d(2));
        assert_eq!(slot, 1);
        assert_eq!(start, t(5)); // arrived after the slot freed
        assert_eq!(done, t(7));
    }

    #[test]
    fn dispatch_waits_for_busy_slots() {
        let pool = [t(10), t(8)];
        let (slot, start, done) = plan_stage_dispatch(&pool, t(5), d(1));
        assert_eq!(slot, 1);
        assert_eq!(start, t(8));
        assert_eq!(done, t(9));
    }

    #[test]
    fn dispatch_breaks_ties_by_lowest_index() {
        let pool = [t(4), t(4), t(4)];
        let (slot, _, _) = plan_stage_dispatch(&pool, t(1), d(1));
        assert_eq!(slot, 0);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn dispatch_rejects_empty_pool() {
        let _ = plan_stage_dispatch(&[], SimTime::ZERO, SimDuration::ZERO);
    }
}
