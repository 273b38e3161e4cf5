//! Per-stage SLO-budget shares and stage-pool utilisation.
//!
//! The stage pipeline (`CondEncode → Denoise → VaeDecode`) makes "where
//! did the SLO budget go?" a first-class question: a request that misses
//! its deadline may have lost the time queueing for a saturated encode
//! pool rather than denoising. This module aggregates the per-request
//! stage timestamps ([`RequestOutcome::stage_breakdown`]) into run-level
//! views:
//!
//! * [`stage_slo_share`] — the mean *fraction of each request's SLO
//!   budget* consumed per stage, the normalised view that compares
//!   across resolutions with very different budgets;
//! * [`pool_utilization`] — busy fractions of the encode/decode pools'
//!   GPUs from a [`ServeReport`]'s accumulated busy-seconds.

use tetriserve_core::{RequestOutcome, ServeReport};

/// Mean fraction of each completed request's SLO budget spent per stage
/// `(encode, denoise, decode)`. A sum above 1.0 means the average
/// completed request blew its budget. Requests with a zero budget are
/// skipped; with no eligible requests the shares are all zero.
pub fn stage_slo_share(outcomes: &[RequestOutcome]) -> (f64, f64, f64) {
    let mut n = 0usize;
    let (mut e, mut d, mut v) = (0.0f64, 0.0f64, 0.0f64);
    for o in outcomes {
        let budget = o.deadline.saturating_since(o.arrival).as_secs_f64();
        if budget <= 0.0 {
            continue;
        }
        if let Some((encode, denoise, decode)) = o.stage_breakdown() {
            n += 1;
            e += encode.as_secs_f64() / budget;
            d += denoise.as_secs_f64() / budget;
            v += decode.as_secs_f64() / budget;
        }
    }
    if n == 0 {
        return (0.0, 0.0, 0.0);
    }
    let nf = n as f64;
    (e / nf, d / nf, v / nf)
}

/// Busy fractions of the stage pools' GPUs over the run's makespan:
/// `(encode_util, decode_util)`, each normalised by the pool's GPU count
/// so 1.0 means every GPU was busy for the whole run. A pool that holds
/// no GPU (both pools under the unified layout, whose work queues on one
/// GPU-less slot each) or a zero makespan reports 0.0.
pub fn pool_utilization(report: &ServeReport) -> (f64, f64) {
    let span = report.makespan.as_secs_f64();
    let util = |busy: f64, gpus: usize| {
        if gpus == 0 || span <= 0.0 {
            0.0
        } else {
            busy / (gpus as f64 * span)
        }
    };
    let (encode_gpus, decode_gpus) = report.pool.pool_sizes();
    (
        util(report.encode_busy_seconds, encode_gpus),
        util(report.decode_busy_seconds, decode_gpus),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetriserve_costmodel::Resolution;
    use tetriserve_simulator::time::SimTime;
    use tetriserve_simulator::trace::{RequestId, TenantId};

    fn outcome(
        id: u64,
        arrival_s: f64,
        budget_s: f64,
        encode_done_s: Option<f64>,
        denoise_done_s: Option<f64>,
        completion_s: Option<f64>,
    ) -> RequestOutcome {
        RequestOutcome {
            tenant: TenantId::UNTAGGED,
            id: RequestId(id),
            resolution: Resolution::R512,
            arrival: SimTime::from_secs_f64(arrival_s),
            deadline: SimTime::from_secs_f64(arrival_s + budget_s),
            completion: completion_s.map(SimTime::from_secs_f64),
            gpu_seconds: 1.0,
            steps_executed: 50,
            sp_degree_step_sum: 50,
            retries: 0,
            shed: false,
            steps_shed: 0,
            encode_done: encode_done_s.map(SimTime::from_secs_f64),
            denoise_done: denoise_done_s.map(SimTime::from_secs_f64),
        }
    }

    #[test]
    fn empty_and_unserved_runs_are_all_zero() {
        assert_eq!(stage_slo_share(&[]), (0.0, 0.0, 0.0));
    }

    #[test]
    fn slo_share_normalises_by_each_budget() {
        let outcomes = vec![outcome(0, 0.0, 4.0, Some(1.0), Some(3.0), Some(4.0))];
        let (e, d, v) = stage_slo_share(&outcomes);
        assert!((e - 0.25).abs() < 1e-9);
        assert!((d - 0.5).abs() < 1e-9);
        assert!((v - 0.25).abs() < 1e-9);
    }
}
