//! Selective-batching statistics mined from execution traces (§5).

use tetriserve_simulator::trace::{Trace, TraceEvent};

/// Aggregate statistics of batched execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchingStats {
    /// Dispatches that executed a single request.
    pub solo_dispatches: u64,
    /// Dispatches that merged two or more requests.
    pub batched_dispatches: u64,
    /// Largest batch observed.
    pub max_batch: u32,
    /// Total request-steps executed inside batched dispatches.
    pub batched_request_steps: u64,
}

impl BatchingStats {
    /// Fraction of dispatches that were batched.
    pub fn batched_fraction(&self) -> f64 {
        let total = self.solo_dispatches + self.batched_dispatches;
        if total == 0 {
            0.0
        } else {
            self.batched_dispatches as f64 / total as f64
        }
    }
}

/// Scans a trace for batching behaviour.
pub fn batching_stats(trace: &Trace) -> BatchingStats {
    let mut stats = BatchingStats::default();
    for e in trace.events() {
        if let TraceEvent::DispatchStart {
            requests, steps, ..
        } = e
        {
            let b = requests.len() as u32;
            if b >= 2 {
                stats.batched_dispatches += 1;
                stats.batched_request_steps += u64::from(*steps) * u64::from(b);
            } else {
                stats.solo_dispatches += 1;
            }
            stats.max_batch = stats.max_batch.max(b);
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetriserve_simulator::gpuset::GpuSet;
    use tetriserve_simulator::time::SimTime;
    use tetriserve_simulator::trace::RequestId;

    fn dispatch(n_reqs: u64, steps: u32) -> TraceEvent {
        TraceEvent::DispatchStart {
            time: SimTime::ZERO,
            end: SimTime::from_millis(u64::from(steps)),
            requests: (0..n_reqs).map(RequestId).collect(),
            gpus: GpuSet::contiguous(0, 1),
            down: GpuSet::EMPTY,
            steps,
            wasted_gpu_seconds: 0.0,
        }
    }

    #[test]
    fn counts_solo_and_batched() {
        let mut t = Trace::new();
        t.record(dispatch(1, 10));
        t.record(dispatch(3, 5));
        t.record(dispatch(2, 4));
        let s = batching_stats(&t);
        assert_eq!(s.solo_dispatches, 1);
        assert_eq!(s.batched_dispatches, 2);
        assert_eq!(s.max_batch, 3);
        assert_eq!(s.batched_request_steps, 3 * 5 + 2 * 4);
        assert!((s.batched_fraction() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_has_no_batches() {
        let s = batching_stats(&Trace::new());
        assert_eq!(s.batched_fraction(), 0.0);
        assert_eq!(s.max_batch, 0);
    }
}
