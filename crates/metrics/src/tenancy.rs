//! Per-tenant accounting and fleet fairness.
//!
//! Tenant identity rides every [`RequestOutcome`] from generation through
//! routing to completion, so a fleet run can be sliced per tenant:
//! SAR, goodput and shed counts for each tenant, plus the worst-tenant
//! SAR over them (the paper's "nobody left behind" gate). Untagged
//! outcomes group under [`TenantId::UNTAGGED`] so legacy replay traces
//! still report.

use std::collections::BTreeMap;

use tetriserve_core::RequestOutcome;
use tetriserve_simulator::time::SimTime;
use tetriserve_simulator::trace::TenantId;

/// One tenant's slice of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSummary {
    /// The tenant (stream index; `UNTAGGED` for unattributed requests).
    pub tenant: TenantId,
    /// Requests attributed to this tenant (including shed ones).
    pub requests: usize,
    /// Requests shed before execution.
    pub shed: usize,
    /// SLO attainment over the tenant's requests.
    pub sar: f64,
    /// SLO-met completions per second over the run's makespan.
    pub goodput: f64,
    /// GPU-seconds consumed by the tenant's requests.
    pub gpu_seconds: f64,
}

/// Slices `outcomes` by tenant, computing goodput against the provided
/// run makespan. Tenants appear in ascending id order (with
/// `UNTAGGED` — `u32::MAX` — last).
pub fn tenant_summaries(outcomes: &[RequestOutcome], makespan: SimTime) -> Vec<TenantSummary> {
    let mut by_tenant: BTreeMap<u32, Vec<&RequestOutcome>> = BTreeMap::new();
    for o in outcomes {
        by_tenant.entry(o.tenant.0).or_default().push(o);
    }
    let span = makespan.as_secs_f64().max(f64::MIN_POSITIVE);
    by_tenant
        .into_iter()
        .map(|(tenant, slice)| {
            let met = slice.iter().filter(|o| o.met_slo()).count();
            TenantSummary {
                tenant: TenantId(tenant),
                requests: slice.len(),
                shed: slice.iter().filter(|o| o.shed).count(),
                sar: met as f64 / slice.len() as f64,
                goodput: met as f64 / span,
                gpu_seconds: slice.iter().map(|o| o.gpu_seconds).sum(),
            }
        })
        .collect()
}

/// The minimum per-tenant SAR — the fairness floor a router is judged
/// on. Empty input counts as perfect attainment.
pub fn worst_tenant_sar(summaries: &[TenantSummary]) -> f64 {
    summaries
        .iter()
        .map(|s| s.sar)
        .min_by(|a, b| a.total_cmp(b))
        .unwrap_or(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetriserve_costmodel::Resolution;
    use tetriserve_simulator::trace::RequestId;

    fn outcome(tenant: u32, id: u64, met: bool, shed: bool) -> RequestOutcome {
        RequestOutcome {
            tenant: TenantId(tenant),
            id: RequestId(id),
            resolution: Resolution::R512,
            arrival: SimTime::ZERO,
            deadline: SimTime::from_secs_f64(2.0),
            completion: if shed {
                None
            } else {
                Some(SimTime::from_secs_f64(if met { 1.0 } else { 3.0 }))
            },
            gpu_seconds: 1.5,
            steps_executed: if shed { 0 } else { 50 },
            sp_degree_step_sum: if shed { 0 } else { 50 },
            retries: 0,
            shed,
            steps_shed: 0,
            encode_done: None,
            denoise_done: None,
        }
    }

    #[test]
    fn summaries_slice_by_tenant_in_id_order() {
        let outcomes = vec![
            outcome(1, 0, true, false),
            outcome(0, 1, true, false),
            outcome(1, 2, false, false),
            outcome(0, 3, true, false),
            outcome(1, 4, false, true),
        ];
        let s = tenant_summaries(&outcomes, SimTime::from_secs_f64(10.0));
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].tenant, TenantId(0));
        assert_eq!(s[0].requests, 2);
        assert!((s[0].sar - 1.0).abs() < 1e-12);
        assert!((s[0].goodput - 0.2).abs() < 1e-12);
        assert_eq!(s[1].tenant, TenantId(1));
        assert_eq!(s[1].requests, 3);
        assert_eq!(s[1].shed, 1);
        assert!((s[1].sar - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn untagged_outcomes_group_last() {
        let outcomes = vec![
            outcome(u32::MAX, 0, true, false),
            outcome(2, 1, true, false),
        ];
        let s = tenant_summaries(&outcomes, SimTime::from_secs_f64(1.0));
        assert_eq!(s[0].tenant, TenantId(2));
        assert_eq!(s[1].tenant, TenantId::UNTAGGED);
    }

    #[test]
    fn worst_tenant_sar_is_the_floor() {
        let outcomes = vec![
            outcome(0, 0, true, false),
            outcome(1, 1, false, false),
            outcome(1, 2, true, false),
        ];
        let s = tenant_summaries(&outcomes, SimTime::from_secs_f64(1.0));
        assert!((worst_tenant_sar(&s) - 0.5).abs() < 1e-12);
        assert!(worst_tenant_sar(&[]) == 1.0);
    }
}
