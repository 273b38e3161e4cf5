//! Communication process-group lifecycle.
//!
//! Mirrors §5 "Communication Process Groups Warmup" of the paper: creating a
//! group is free, but the *first* collective on a group initialises NCCL
//! channels (a latency cost). TetriServe pre-warms a compact set of commonly
//! used groups and defers the rest to on-demand warm-up; both behaviours are
//! reproduced here.

use crate::gpuset::GpuSet;
use crate::time::SimDuration;

/// Tracks which process groups have been warmed and charges warm-up costs.
#[derive(Debug, Clone)]
pub struct ProcessGroupCache {
    /// Masks of the warmed groups, ascending: a lookup is one binary
    /// search, and a node has few distinct groups, so inserts stay cheap.
    warmed: Vec<u64>,
    warmup_cost: SimDuration,
}

impl ProcessGroupCache {
    /// Creates a cache with the given first-use warm-up latency.
    pub fn new(warmup_cost: SimDuration) -> Self {
        ProcessGroupCache {
            warmed: Vec::new(),
            warmup_cost,
        }
    }

    /// Marks `groups` as pre-warmed (start-up warm-up, off the serving path).
    pub fn prewarm<I: IntoIterator<Item = GpuSet>>(&mut self, groups: I) {
        for g in groups {
            if g.len() >= 2 {
                self.warm(g);
            }
        }
    }

    /// Ensures `group` is warm, returning the latency charged to the first
    /// collective (zero when already warm or when the group has fewer than
    /// two members, which needs no communicator).
    pub fn ensure(&mut self, group: GpuSet) -> SimDuration {
        if group.len() < 2 {
            return SimDuration::ZERO;
        }
        if self.warm(group) {
            self.warmup_cost
        } else {
            SimDuration::ZERO
        }
    }

    /// Marks `group` warm; `true` when it was cold.
    fn warm(&mut self, group: GpuSet) -> bool {
        match self.warmed.binary_search(&group.mask()) {
            Ok(_) => false,
            Err(at) => {
                self.warmed.insert(at, group.mask());
                true
            }
        }
    }

    /// Whether `group` is already warm.
    pub fn is_warm(&self, group: GpuSet) -> bool {
        group.len() < 2 || self.warmed.binary_search(&group.mask()).is_ok()
    }

    /// Number of warmed multi-GPU groups.
    pub fn warmed_count(&self) -> usize {
        self.warmed.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpuset::GpuSet;

    fn cache() -> ProcessGroupCache {
        ProcessGroupCache::new(SimDuration::from_millis(150))
    }

    #[test]
    fn first_use_pays_then_free() {
        let mut c = cache();
        let g = GpuSet::contiguous(0, 4);
        assert_eq!(c.ensure(g), SimDuration::from_millis(150));
        assert_eq!(c.ensure(g), SimDuration::ZERO);
        assert!(c.is_warm(g));
    }

    #[test]
    fn single_gpu_groups_are_free() {
        let mut c = cache();
        let g = GpuSet::contiguous(3, 1);
        assert_eq!(c.ensure(g), SimDuration::ZERO);
        assert!(c.is_warm(g));
        assert_eq!(c.warmed_count(), 0);
    }

    #[test]
    fn prewarm_warms_each_group_once() {
        let mut c = cache();
        let g2 = GpuSet::contiguous(0, 2);
        let g4 = GpuSet::contiguous(0, 4);
        c.prewarm([g2, g4, g2]);
        assert_eq!(c.ensure(g2), SimDuration::ZERO);
        assert_eq!(c.warmed_count(), 2);
    }

    #[test]
    fn groups_warmed_in_any_order_stay_warm() {
        let mut c = cache();
        let groups = [0b1100_0000, 0b0011, 0b0110, 0b1111_0000, 0b0101].map(GpuSet::from_mask);
        for g in groups {
            assert!(!c.ensure(g).is_zero(), "{g} was cold");
        }
        assert!(groups
            .iter()
            .all(|&g| c.is_warm(g) && c.ensure(g).is_zero()));
        assert!(!c.is_warm(GpuSet::from_mask(0b1001)));
        assert_eq!(c.warmed_count(), groups.len());
    }

    #[test]
    fn distinct_groups_warm_independently() {
        let mut c = cache();
        assert!(!c.ensure(GpuSet::contiguous(0, 2)).is_zero());
        assert!(!c.ensure(GpuSet::contiguous(2, 2)).is_zero());
        assert_eq!(c.warmed_count(), 2);
    }
}
