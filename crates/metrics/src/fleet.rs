//! Fleet-level aggregation of per-cluster serving reports.
//!
//! A fleet run produces one [`ServeReport`] per cluster plus the routing
//! decisions that shaped them. [`FleetReport`] folds those into the
//! fleet-wide view the paper's production framing calls for: overall SLO
//! attainment (counting fleet-shed requests), goodput over the fleet
//! makespan, per-cluster routing counts and cross-cluster load imbalance.

use tetriserve_core::{RequestOutcome, ServeReport};
use tetriserve_simulator::time::{SimDuration, SimTime};

/// One cluster's contribution to a fleet run.
#[derive(Debug)]
pub struct ClusterReport {
    /// Human-readable cluster label (e.g. `"h100x8-a"`).
    pub name: String,
    /// GPUs in the cluster, for capacity-normalised comparisons.
    pub n_gpus: usize,
    /// Requests the router sent to this cluster at arrival time.
    pub routed: usize,
    /// Requests re-routed *onto* this cluster after another cluster's
    /// outage.
    pub rerouted_in: usize,
    /// Requests the rebalancer migrated *onto* this cluster (each paid
    /// its latent hand-off delay first).
    pub migrated_in: usize,
    /// The cluster's own serving report.
    pub report: ServeReport,
}

/// Upper edges of the hand-off delay histogram buckets, in ascending
/// order; the final bucket is unbounded. See
/// [`FleetReport::handoff_delay_histogram`].
pub const HANDOFF_HISTOGRAM_EDGES: [SimDuration; 4] = [
    SimDuration::from_millis(1),
    SimDuration::from_millis(10),
    SimDuration::from_millis(100),
    SimDuration::from_secs(1),
];

/// The aggregated result of a fleet run.
#[derive(Debug)]
pub struct FleetReport {
    /// Router (plus rebalancer, when one is attached) that produced this
    /// run — e.g. `"deadline-aware"` or `"deadline-aware+edf-rebalance"`.
    pub router: String,
    /// Per-cluster reports, in cluster-index order.
    pub clusters: Vec<ClusterReport>,
    /// Requests shed at the fleet level (no cluster was feasible, or none
    /// was up). These never reached any cluster.
    pub fleet_shed: Vec<RequestOutcome>,
    /// Requests re-routed between clusters after outages.
    pub rerouted: usize,
    /// Migrations the rebalancer enacted (periodic ticks plus rescue
    /// moves).
    pub migrations: usize,
    /// Requests the router would have shed that coordinated admission
    /// placed instead.
    pub rescues: usize,
    /// GPU-seconds of already-executed work carried across clusters by
    /// migrations (partially-denoised requests keep their progress).
    pub migrated_gpu_seconds: f64,
    /// Every enacted migration's latent hand-off delay, in enactment
    /// order.
    pub handoff_delays: Vec<SimDuration>,
    /// FNV-1a digest over the routing-decision stream.
    pub routing_digest: u64,
    /// FNV-1a digest over per-request outcomes fleet-wide.
    pub outcome_digest: u64,
    /// FNV-1a digest over the enacted-migration stream
    /// (time, id, from, to, delay per migration); 0 when no rebalancer
    /// ran or it never migrated.
    pub migration_digest: u64,
    /// High-water mark of the fleet-wide live backlog (admitted requests
    /// queued or running across all clusters), sampled at every routing
    /// instant.
    pub peak_backlog: usize,
}

impl FleetReport {
    /// Every outcome in the fleet — cluster outcomes plus fleet-level
    /// sheds — sorted by request id.
    pub fn all_outcomes(&self) -> Vec<RequestOutcome> {
        let mut out: Vec<RequestOutcome> = self
            .clusters
            .iter()
            .flat_map(|c| c.report.outcomes.iter().copied())
            .chain(self.fleet_shed.iter().copied())
            .collect();
        out.sort_by_key(|o| o.id);
        out
    }

    /// Requests that met their SLO, counted in place over the clusters'
    /// outcomes and the fleet-level sheds.
    fn met_slo_count(&self) -> usize {
        self.clusters
            .iter()
            .flat_map(|c| &c.report.outcomes)
            .chain(&self.fleet_shed)
            .filter(|o| o.met_slo())
            .count()
    }

    /// Fleet-wide SLO attainment: met-SLO requests over *all* requests,
    /// including fleet-shed ones (they count against attainment exactly
    /// like cluster-shed requests do in [`ServeReport::sar`]).
    pub fn sar(&self) -> f64 {
        let total = self.total_requests();
        if total == 0 {
            return 1.0;
        }
        self.met_slo_count() as f64 / total as f64
    }

    /// The fleet makespan: the latest cluster makespan (all clusters share
    /// one virtual clock).
    pub fn makespan(&self) -> SimTime {
        self.clusters
            .iter()
            .map(|c| c.report.makespan)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Fleet goodput: SLO-met requests per second of fleet makespan.
    pub fn goodput(&self) -> f64 {
        self.met_slo_count() as f64 / self.makespan().as_secs_f64().max(f64::MIN_POSITIVE)
    }

    /// Per-tenant slices of the fleet run, in ascending tenant-id order.
    /// Reads the id-sorted [`all_outcomes`](FleetReport::all_outcomes):
    /// the per-tenant GPU-second sums are float sums, so their bits depend
    /// on that order.
    pub fn tenant_summaries(&self) -> Vec<crate::tenancy::TenantSummary> {
        crate::tenancy::tenant_summaries(&self.all_outcomes(), self.makespan())
    }

    /// The minimum per-tenant SAR — the fairness floor.
    pub fn worst_tenant_sar(&self) -> f64 {
        crate::tenancy::worst_tenant_sar(&self.tenant_summaries())
    }

    /// Jain's fairness index over the per-tenant SAR vector.
    pub fn sar_fairness(&self) -> f64 {
        crate::tenancy::sar_fairness(&self.tenant_summaries())
    }

    /// Total requests that entered the fleet.
    pub fn total_requests(&self) -> usize {
        self.clusters
            .iter()
            .map(|c| c.report.outcomes.len())
            .sum::<usize>()
            + self.fleet_shed.len()
    }

    /// Requests shed anywhere: at the fleet router or by per-cluster
    /// admission control.
    pub fn total_shed(&self) -> usize {
        self.fleet_shed.len()
            + self
                .clusters
                .iter()
                .map(|c| c.report.shed_requests)
                .sum::<usize>()
    }

    /// Histogram of enacted migrations' hand-off delays over the
    /// [`HANDOFF_HISTOGRAM_EDGES`] buckets: counts for `< 1 ms`,
    /// `< 10 ms`, `< 100 ms`, `< 1 s` and a final unbounded `≥ 1 s`
    /// bucket (five counts total, summing to `migrations`).
    pub fn handoff_delay_histogram(&self) -> [usize; 5] {
        let mut buckets = [0usize; 5];
        for &d in &self.handoff_delays {
            let i = HANDOFF_HISTOGRAM_EDGES
                .iter()
                .position(|&edge| d < edge)
                .unwrap_or(HANDOFF_HISTOGRAM_EDGES.len());
            buckets[i] += 1;
        }
        buckets
    }

    /// Cross-cluster load imbalance: the coefficient of variation of
    /// per-cluster busy GPU-seconds *per GPU* (capacity-normalised so an
    /// 8-GPU and a 4-GPU cluster compare fairly). 0 = perfectly balanced.
    pub fn load_imbalance(&self) -> f64 {
        let per_gpu: Vec<f64> = self
            .clusters
            .iter()
            .map(|c| {
                let busy: f64 = c.report.outcomes.iter().map(|o| o.gpu_seconds).sum();
                busy / c.n_gpus.max(1) as f64
            })
            .collect();
        load_imbalance(&per_gpu)
    }
}

/// Coefficient of variation (σ/μ) over per-cluster normalised loads.
/// Returns 0 for fewer than two clusters or an all-idle fleet.
pub fn load_imbalance(loads: &[f64]) -> f64 {
    if loads.len() < 2 {
        return 0.0;
    }
    let mean = loads.iter().sum::<f64>() / loads.len() as f64;
    if mean <= 0.0 {
        return 0.0;
    }
    let var = loads.iter().map(|l| (l - mean) * (l - mean)).sum::<f64>() / loads.len() as f64;
    var.sqrt() / mean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn imbalance_of_equal_loads_is_zero() {
        assert_eq!(load_imbalance(&[3.0, 3.0, 3.0]), 0.0);
        assert_eq!(load_imbalance(&[]), 0.0);
        assert_eq!(
            load_imbalance(&[5.0]),
            0.0,
            "one cluster is trivially balanced"
        );
        assert_eq!(
            load_imbalance(&[0.0, 0.0]),
            0.0,
            "an idle fleet is balanced"
        );
    }

    #[test]
    fn imbalance_grows_with_skew() {
        let mild = load_imbalance(&[4.0, 5.0, 6.0]);
        let severe = load_imbalance(&[0.5, 5.0, 9.5]);
        assert!(mild > 0.0);
        assert!(severe > mild, "{severe} vs {mild}");
    }

    #[test]
    fn imbalance_is_scale_invariant() {
        let a = load_imbalance(&[1.0, 2.0, 3.0]);
        let b = load_imbalance(&[10.0, 20.0, 30.0]);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn handoff_histogram_buckets_and_conserves_counts() {
        let report = FleetReport {
            router: "test".to_owned(),
            clusters: Vec::new(),
            fleet_shed: Vec::new(),
            rerouted: 0,
            migrations: 6,
            rescues: 0,
            migrated_gpu_seconds: 0.0,
            handoff_delays: vec![
                SimDuration::from_micros(250), // < 1 ms
                SimDuration::from_millis(1),   // edge: lands in < 10 ms
                SimDuration::from_millis(5),   // < 10 ms
                SimDuration::from_millis(50),  // < 100 ms
                SimDuration::from_millis(500), // < 1 s
                SimDuration::from_secs(2),     // ≥ 1 s
            ],
            routing_digest: 0,
            outcome_digest: 0,
            migration_digest: 0,
            peak_backlog: 0,
        };
        let hist = report.handoff_delay_histogram();
        assert_eq!(hist, [1, 2, 1, 1, 1]);
        assert_eq!(hist.iter().sum::<usize>(), report.handoff_delays.len());
    }
}
