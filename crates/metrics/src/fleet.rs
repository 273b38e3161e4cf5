//! Fleet-level aggregation of per-cluster serving reports.
//!
//! A fleet run produces one [`ServeReport`] per cluster plus the routing
//! decisions that shaped them. [`FleetReport`] folds those into the
//! fleet-wide view the paper's production framing calls for: overall SLO
//! attainment (counting fleet-shed requests), goodput over the fleet
//! makespan and per-cluster routing counts.

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
}
