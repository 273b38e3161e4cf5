//! Cross-cluster routing policies.
//!
//! At every arrival the fleet driver snapshots each cluster into a
//! [`ClusterView`] and asks the [`Router`] where the request should go.
//! Routers are deliberately *stateful* (round-robin counters, seeded
//! tie-break RNGs) but must be deterministic functions of their state and
//! the views — the fleet digest pins their decision stream.
//!
//! Four routers ship with the crate, spanning the classic load-balancing
//! spectrum plus the paper-aligned deadline-aware policy:
//!
//! * [`RoundRobinRouter`] — cycles over *up* clusters, blind to load and
//!   heterogeneity;
//! * [`JoinShortestQueueRouter`] — fewest live requests wins;
//! * [`PowerOfTwoRouter`] — classic power-of-two-choices: sample two up
//!   clusters with a seeded PRNG, send to the less loaded of the pair;
//! * [`DeadlineAwareRouter`] — only considers clusters whose cost table +
//!   live backlog pass the EDF feasibility test for this request's
//!   deadline, then picks the least-pressured; sheds fleet-wide **only**
//!   when no cluster is feasible.

use tetriserve_core::{ClusterLoad, RequestSpec};
use tetriserve_simulator::digest::SplitMix;

/// What the router may know about one cluster at decision time.
#[derive(Debug, Clone, Copy)]
pub struct ClusterView {
    /// Cluster index in the fleet.
    pub index: usize,
    /// Whether the cluster is up (not inside a whole-cluster outage).
    pub up: bool,
    /// Whether the cluster passes the EDF admission test for the request
    /// being routed, on top of its live backlog (see
    /// `tetriserve_core::feasibility`).
    pub feasible: bool,
    /// The cluster's load snapshot.
    pub load: ClusterLoad,
}

/// Where an arrival goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteDecision {
    /// Send to the given cluster index.
    To(usize),
    /// Shed fleet-wide: no cluster can (or should) take it.
    Shed,
}

/// A cross-cluster routing policy.
pub trait Router {
    /// Short name for reports (e.g. `"round-robin"`).
    fn name(&self) -> String;

    /// Decides where `spec` goes given the per-cluster views. Views are
    /// always presented in cluster-index order and cover every cluster.
    fn route(&mut self, spec: &RequestSpec, views: &[ClusterView]) -> RouteDecision;
}

/// Boxed routers forward to the inner router.
impl<R: Router + ?Sized> Router for Box<R> {
    fn name(&self) -> String {
        (**self).name()
    }

    fn route(&mut self, spec: &RequestSpec, views: &[ClusterView]) -> RouteDecision {
        (**self).route(spec, views)
    }
}

/// Cycles over up clusters in index order, ignoring load entirely.
#[derive(Debug, Default)]
pub struct RoundRobinRouter {
    next: usize,
}

impl RoundRobinRouter {
    /// A router starting at cluster 0.
    pub fn new() -> Self {
        RoundRobinRouter::default()
    }
}

impl Router for RoundRobinRouter {
    fn name(&self) -> String {
        "round-robin".to_owned()
    }

    fn route(&mut self, _spec: &RequestSpec, views: &[ClusterView]) -> RouteDecision {
        if views.is_empty() {
            return RouteDecision::Shed;
        }
        for offset in 0..views.len() {
            let i = (self.next + offset) % views.len();
            // tetrilint: allow(taint-panic) -- `i` is reduced modulo views.len() on the line above
            if views[i].up {
                self.next = i + 1;
                return RouteDecision::To(i);
            }
        }
        RouteDecision::Shed
    }
}

/// Sends each arrival to the up cluster with the fewest live requests
/// (queued + running); ties break to the lowest index.
#[derive(Debug, Default)]
pub struct JoinShortestQueueRouter;

impl JoinShortestQueueRouter {
    /// A JSQ router.
    pub fn new() -> Self {
        JoinShortestQueueRouter
    }
}

impl Router for JoinShortestQueueRouter {
    fn name(&self) -> String {
        "join-shortest-queue".to_owned()
    }

    fn route(&mut self, _spec: &RequestSpec, views: &[ClusterView]) -> RouteDecision {
        views
            .iter()
            .filter(|v| v.up)
            .min_by_key(|v| (v.load.depth(), v.index))
            .map_or(RouteDecision::Shed, |v| RouteDecision::To(v.index))
    }
}

/// Power-of-two-choices: sample two distinct up clusters with a seeded
/// PRNG and send to the one with the shorter queue (tie → lower index).
/// With a single up cluster it degenerates to direct routing.
#[derive(Debug)]
pub struct PowerOfTwoRouter {
    rng: SplitMix,
}

impl PowerOfTwoRouter {
    /// A router whose sampling stream is derived from `seed`.
    pub fn new(seed: u64) -> Self {
        PowerOfTwoRouter {
            rng: SplitMix(seed),
        }
    }
}

impl Router for PowerOfTwoRouter {
    fn name(&self) -> String {
        "power-of-two".to_owned()
    }

    fn route(&mut self, _spec: &RequestSpec, views: &[ClusterView]) -> RouteDecision {
        // Picks by position among the up clusters without collecting them.
        let nth_up = |j: usize| views.iter().filter(|v| v.up).nth(j);
        match views.iter().filter(|v| v.up).count() {
            0 => RouteDecision::Shed,
            1 => nth_up(0).map_or(RouteDecision::Shed, |v| RouteDecision::To(v.index)),
            n => {
                let a = (self.rng.next_u64() % n as u64) as usize;
                // Sample the second choice from the remaining n−1 slots so
                // the pair is always distinct.
                let mut b = (self.rng.next_u64() % (n - 1) as u64) as usize;
                if b >= a {
                    b += 1;
                }
                // `a` and `b` are reduced modulo `n` above and the shift
                // keeps `b` < n and distinct from `a`, so both exist.
                let (Some(x), Some(y)) = (nth_up(a), nth_up(b)) else {
                    return RouteDecision::Shed;
                };
                let pick = if (x.load.depth(), x.index) <= (y.load.depth(), y.index) {
                    x
                } else {
                    y
                };
                RouteDecision::To(pick.index)
            }
        }
    }
}

/// Deadline-aware routing on top of the PR 1 admission machinery: a
/// cluster is a candidate only if it is up **and** the EDF
/// cumulative-demand test says it can absorb this request without
/// endangering any live deadline. Among candidates the least-pressured
/// cluster (outstanding GPU-seconds per healthy GPU — capacity-normalised,
/// so a lightly-loaded 4×A40 node is not mistaken for more headroom than a
/// busy 8×H100 node) wins. The request is shed fleet-wide only when *no*
/// cluster is feasible — the fleet analogue of `ShedInfeasible`.
#[derive(Debug, Default)]
pub struct DeadlineAwareRouter;

impl DeadlineAwareRouter {
    /// A deadline-aware router.
    pub fn new() -> Self {
        DeadlineAwareRouter
    }
}

impl Router for DeadlineAwareRouter {
    fn name(&self) -> String {
        "deadline-aware".to_owned()
    }

    fn route(&mut self, _spec: &RequestSpec, views: &[ClusterView]) -> RouteDecision {
        views
            .iter()
            .filter(|v| v.up && v.feasible)
            .min_by(|a, b| {
                a.load
                    .pressure()
                    .total_cmp(&b.load.pressure())
                    .then(a.index.cmp(&b.index))
            })
            .map_or(RouteDecision::Shed, |v| RouteDecision::To(v.index))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetriserve_costmodel::Resolution;
    use tetriserve_simulator::time::SimTime;
    use tetriserve_simulator::trace::{RequestId, TenantId};

    fn spec() -> RequestSpec {
        RequestSpec {
            tenant: TenantId::UNTAGGED,
            id: RequestId(0),
            resolution: Resolution::R1024,
            arrival: SimTime::ZERO,
            deadline: SimTime::from_secs_f64(3.0),
            total_steps: 50,
            stages: tetriserve_costmodel::StageProfile::FLAT,
        }
    }

    fn view(index: usize, up: bool, feasible: bool, depth: usize, pressure: f64) -> ClusterView {
        ClusterView {
            index,
            up,
            feasible,
            load: ClusterLoad {
                effective_gpus: 8.0,
                queued: depth,
                running: 0,
                backlog_gpu_seconds: pressure * 8.0,
            },
        }
    }

    #[test]
    fn round_robin_cycles_and_skips_down_clusters() {
        let mut r = RoundRobinRouter::new();
        let views = vec![
            view(0, true, true, 0, 0.0),
            view(1, false, true, 0, 0.0),
            view(2, true, true, 0, 0.0),
        ];
        assert_eq!(r.route(&spec(), &views), RouteDecision::To(0));
        assert_eq!(r.route(&spec(), &views), RouteDecision::To(2), "1 is down");
        assert_eq!(r.route(&spec(), &views), RouteDecision::To(0));
        let all_down: Vec<ClusterView> = (0..3).map(|i| view(i, false, true, 0, 0.0)).collect();
        assert_eq!(r.route(&spec(), &all_down), RouteDecision::Shed);
    }

    #[test]
    fn jsq_prefers_the_shortest_queue() {
        let mut r = JoinShortestQueueRouter::new();
        let views = vec![
            view(0, true, true, 5, 1.0),
            view(1, true, true, 2, 1.0),
            view(2, true, true, 9, 1.0),
        ];
        assert_eq!(r.route(&spec(), &views), RouteDecision::To(1));
        // Ties break to the lowest index.
        let tied = vec![view(0, true, true, 3, 1.0), view(1, true, true, 3, 1.0)];
        assert_eq!(r.route(&spec(), &tied), RouteDecision::To(0));
    }

    #[test]
    fn power_of_two_is_deterministic_and_avoids_down_clusters() {
        let views = vec![
            view(0, true, true, 4, 1.0),
            view(1, false, true, 0, 0.0),
            view(2, true, true, 1, 1.0),
        ];
        let run = |seed| {
            let mut r = PowerOfTwoRouter::new(seed);
            (0..16)
                .map(|_| r.route(&spec(), &views))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7), "same seed, same stream");
        for d in run(7) {
            assert_ne!(d, RouteDecision::To(1), "never routes to a down cluster");
            assert_ne!(d, RouteDecision::Shed);
        }
        // Both candidates have unequal depth, so every pair containing
        // cluster 2 picks it; cluster 0 can only win a (0, 0) pair, which
        // cannot happen — all decisions hit cluster 2.
        assert!(run(7).iter().all(|d| *d == RouteDecision::To(2)));
    }

    #[test]
    fn deadline_aware_sheds_only_when_no_cluster_is_feasible() {
        let mut r = DeadlineAwareRouter::new();
        let views = vec![
            view(0, true, false, 0, 0.5),
            view(1, true, true, 9, 2.0),
            view(2, true, true, 1, 1.0),
        ];
        // Cluster 0 is infeasible despite being idle; among 1 and 2 the
        // lower pressure wins.
        assert_eq!(r.route(&spec(), &views), RouteDecision::To(2));
        let none_feasible = vec![view(0, true, false, 0, 0.0), view(1, false, true, 0, 0.0)];
        assert_eq!(r.route(&spec(), &none_feasible), RouteDecision::Shed);
    }
}
