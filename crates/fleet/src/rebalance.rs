//! Periodic cross-cluster rebalancing.
//!
//! PR 4's fleet router decides each request's placement exactly once, at
//! arrival. A cluster that backlogs or loses GPUs a moment later strands
//! the work already routed to it. The rebalancer closes that gap: on a
//! deterministic fleet-clock cadence it scans every cluster's queued
//! backlog through the same EDF cumulative-demand lens the router uses,
//! finds requests the owning cluster can no longer deliver by their
//! deadlines (the *at-risk* EDF prefix — during a whole-cluster outage,
//! that is the entire queue), and migrates them to clusters where the
//! feasibility check still passes **after charging the cross-cluster
//! latent hand-off delay** (see `tetriserve_costmodel::interconnect`).
//!
//! Migration is only taken when it beats waiting, by construction:
//!
//! * a candidate must be *at risk* at its source — staying put means the
//!   EDF scan already predicts a deadline miss there;
//! * the target must pass the EDF test with the candidate's deadline
//!   tightened by the hand-off delay — moving (and paying the transfer)
//!   still makes the deadline.
//!
//! The planner sees the fleet only through the [`FleetOracle`] trait,
//! which the driver implements over its live `ClusterSim`s; this keeps
//! rebalancing policies pluggable and unit-testable against mock fleets.

use tetriserve_core::RequestSpec;
use tetriserve_simulator::time::{SimDuration, SimTime};
use tetriserve_simulator::trace::RequestId;

/// A queued request the rebalancer may move: its spec plus where it lives
/// and how much work remains. Progress stays with the request — moving a
/// partially-denoised candidate ships its latent (and is charged for it).
#[derive(Debug, Clone, Copy)]
pub struct MigrationCandidate {
    /// The request (original arrival and deadline).
    pub spec: RequestSpec,
    /// Index of the cluster currently holding it.
    pub from: usize,
    /// Diffusion steps still to execute.
    pub remaining_steps: u32,
}

impl MigrationCandidate {
    /// Whether the request has executed no steps yet (fresh candidates
    /// ship no latent and pay only the hand-off launch latency).
    pub fn is_fresh(&self) -> bool {
        self.remaining_steps == self.spec.total_steps
    }
}

/// One migration the planner wants enacted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationDecision {
    /// The request to move.
    pub id: RequestId,
    /// Source cluster index.
    pub from: usize,
    /// Target cluster index.
    pub to: usize,
}

/// The fleet state a rebalancing policy may query. Implemented by the
/// fleet driver over its live clusters; every method is a pure read at
/// the planner's `now`, so planning never mutates the simulation.
pub trait FleetOracle {
    /// Number of clusters in the fleet.
    fn clusters(&self) -> usize;

    /// Whether cluster `i` is outside any whole-cluster outage window.
    fn up(&self, i: usize) -> bool;

    /// Cluster `i`'s capacity-normalised backlog pressure (outstanding
    /// GPU-seconds per healthy GPU).
    fn pressure(&self, i: usize) -> f64;

    /// Every queued request with work remaining on cluster `i`, in id
    /// order (running requests are pinned to their dispatch).
    fn queued_movable(&self, i: usize) -> Vec<MigrationCandidate>;

    /// Queued requests inside cluster `i`'s violating EDF prefix — the
    /// backlog it cannot deliver under current healthy capacity.
    fn at_risk(&self, i: usize) -> Vec<RequestId>;

    /// Whether cluster `to` passes the EDF feasibility test with `c`
    /// added — `c`'s deadline tightened by the hand-off delay — on top of
    /// `extra_gpu_seconds` of demand already committed to `to` this tick.
    fn candidate_feasible_on(
        &self,
        to: usize,
        c: &MigrationCandidate,
        extra_gpu_seconds: f64,
    ) -> bool;

    /// `c`'s cheapest deadline-respecting GPU-second demand priced on
    /// cluster `to` (the amount to accumulate into `extra_gpu_seconds`).
    fn candidate_demand_on(&self, to: usize, c: &MigrationCandidate) -> f64;
}

/// A pluggable rebalancing policy: called on every fleet-clock tick with
/// a read-only oracle, returns the migrations to enact at that instant.
pub trait Rebalancer {
    /// Display name, folded into report labels.
    fn name(&self) -> String;

    /// The deterministic fleet-clock period between planning ticks.
    fn cadence(&self) -> SimDuration;

    /// Plans this tick's migrations. Decisions are enacted in return
    /// order at `now`; each target is charged the hand-off delay before
    /// the work re-enters its queue.
    fn plan(&mut self, now: SimTime, oracle: &dyn FleetOracle) -> Vec<MigrationDecision>;
}

/// Default rebalancing cadence: once per simulated second. Coarse enough
/// that planning cost is negligible next to multi-second request service
/// times, fine enough to catch an outage within one SLO's slack.
pub const DEFAULT_CADENCE: SimDuration = SimDuration::from_secs(1);

/// The EDF-driven rebalancer: migrates each source cluster's at-risk
/// queued requests — earliest deadline first — to the least-pressured up
/// cluster that still passes the feasibility check after the hand-off
/// charge. Demand committed to a target earlier in the same tick counts
/// against later candidates, so one underloaded cluster is never
/// dog-piled past its own feasibility edge within a tick.
#[derive(Debug)]
pub struct EdfRebalancer {
    cadence: SimDuration,
}

impl EdfRebalancer {
    /// A rebalancer on the default 1 s cadence.
    pub fn new() -> Self {
        EdfRebalancer {
            cadence: DEFAULT_CADENCE,
        }
    }

    /// A rebalancer with an explicit planning cadence.
    ///
    /// # Panics
    ///
    /// Panics if `cadence` is zero (the fleet clock could never advance).
    pub fn with_cadence(cadence: SimDuration) -> Self {
        assert!(
            cadence > SimDuration::ZERO,
            "rebalance cadence must be positive"
        );
        EdfRebalancer { cadence }
    }
}

impl Default for EdfRebalancer {
    fn default() -> Self {
        EdfRebalancer::new()
    }
}

impl Rebalancer for EdfRebalancer {
    fn name(&self) -> String {
        "edf-rebalance".to_owned()
    }

    fn cadence(&self) -> SimDuration {
        self.cadence
    }

    fn plan(&mut self, _now: SimTime, oracle: &dyn FleetOracle) -> Vec<MigrationDecision> {
        let n = oracle.clusters();
        // Each source cluster with at-risk work, read lazily. Most ticks
        // find none anywhere: such a tick prices no target and allocates
        // nothing.
        let mut sources = (0..n)
            .map(|i| (i, oracle.at_risk(i)))
            .filter(|(_, risk)| !risk.is_empty())
            .peekable();
        if sources.peek().is_none() {
            return Vec::new();
        }
        // Target preference: up clusters, least backlog pressure first,
        // index breaking ties. Each target's pressure is read once per
        // tick; the per-target `extra` accumulator accounts for demand
        // this tick has already committed.
        let mut targets: Vec<(f64, usize)> = (0..n)
            .filter(|&i| oracle.up(i))
            .map(|i| (oracle.pressure(i), i))
            .collect();
        targets.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut extra = vec![0.0f64; n];
        let mut decisions = Vec::new();
        for (from, risk) in sources {
            let mut movable: Vec<MigrationCandidate> = oracle
                .queued_movable(from)
                .into_iter()
                .filter(|c| risk.contains(&c.spec.id))
                .collect();
            // EDF priority: the tightest-deadline at-risk request gets
            // first pick of the targets.
            movable.sort_by_key(|c| (c.spec.deadline, c.spec.id));
            for c in movable {
                for &(_, to) in &targets {
                    if to == from {
                        continue;
                    }
                    // tetrilint: allow(taint-panic) -- targets enumerate cluster indices 0..n and `extra` is sized n at entry
                    if oracle.candidate_feasible_on(to, &c, extra[to]) {
                        // tetrilint: allow(taint-panic) -- same bound: `to` < n and `extra` is sized n
                        extra[to] += oracle.candidate_demand_on(to, &c);
                        decisions.push(MigrationDecision {
                            id: c.spec.id,
                            from,
                            to,
                        });
                        break;
                    }
                }
            }
        }
        decisions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use tetriserve_costmodel::Resolution;
    use tetriserve_simulator::trace::TenantId;

    /// A mock fleet with scalar demand accounting: each candidate costs
    /// `remaining_steps` GPU-seconds everywhere, and cluster `i` is
    /// feasible while committed demand stays within `cap[i]`.
    struct MockFleet {
        up: Vec<bool>,
        pressure: Vec<f64>,
        used: Vec<f64>,
        cap: Vec<f64>,
        movable: Vec<Vec<MigrationCandidate>>,
        at_risk: Vec<Vec<RequestId>>,
    }

    impl MockFleet {
        fn idle(n: usize, cap: f64) -> Self {
            MockFleet {
                up: vec![true; n],
                pressure: vec![0.0; n],
                used: vec![0.0; n],
                cap: vec![cap; n],
                movable: vec![Vec::new(); n],
                at_risk: vec![Vec::new(); n],
            }
        }
    }

    fn cand(id: u64, from: usize, deadline_s: f64, remaining: u32) -> MigrationCandidate {
        MigrationCandidate {
            spec: RequestSpec {
                tenant: TenantId::UNTAGGED,
                id: RequestId(id),
                resolution: Resolution::R1024,
                arrival: SimTime::ZERO,
                deadline: SimTime::from_secs_f64(deadline_s),
                total_steps: remaining, // fresh unless stated otherwise
                stages: tetriserve_costmodel::StageProfile::FLAT,
            },
            from,
            remaining_steps: remaining,
        }
    }

    impl FleetOracle for MockFleet {
        fn clusters(&self) -> usize {
            self.up.len()
        }
        fn up(&self, i: usize) -> bool {
            self.up[i]
        }
        fn pressure(&self, i: usize) -> f64 {
            self.pressure[i]
        }
        fn queued_movable(&self, i: usize) -> Vec<MigrationCandidate> {
            self.movable[i].clone()
        }
        fn at_risk(&self, i: usize) -> Vec<RequestId> {
            self.at_risk[i].clone()
        }
        fn candidate_feasible_on(
            &self,
            to: usize,
            c: &MigrationCandidate,
            extra_gpu_seconds: f64,
        ) -> bool {
            self.used[to] + extra_gpu_seconds + f64::from(c.remaining_steps) <= self.cap[to]
        }
        fn candidate_demand_on(&self, _to: usize, c: &MigrationCandidate) -> f64 {
            f64::from(c.remaining_steps)
        }
    }

    /// Counts the planner's calls into a [`MockFleet`], by method.
    struct Counted<'a> {
        fleet: &'a MockFleet,
        at_risk: Cell<usize>,
        pressure: Cell<usize>,
        movable: Cell<usize>,
        candidate: Cell<usize>,
    }

    impl<'a> Counted<'a> {
        fn new(fleet: &'a MockFleet) -> Self {
            Counted {
                fleet,
                at_risk: Cell::new(0),
                pressure: Cell::new(0),
                movable: Cell::new(0),
                candidate: Cell::new(0),
            }
        }
    }

    fn bump(calls: &Cell<usize>) {
        calls.set(calls.get() + 1);
    }

    impl FleetOracle for Counted<'_> {
        fn clusters(&self) -> usize {
            self.fleet.clusters()
        }
        fn up(&self, i: usize) -> bool {
            self.fleet.up(i)
        }
        fn pressure(&self, i: usize) -> f64 {
            bump(&self.pressure);
            self.fleet.pressure(i)
        }
        fn queued_movable(&self, i: usize) -> Vec<MigrationCandidate> {
            bump(&self.movable);
            self.fleet.queued_movable(i)
        }
        fn at_risk(&self, i: usize) -> Vec<RequestId> {
            bump(&self.at_risk);
            self.fleet.at_risk(i)
        }
        fn candidate_feasible_on(
            &self,
            to: usize,
            c: &MigrationCandidate,
            extra_gpu_seconds: f64,
        ) -> bool {
            bump(&self.candidate);
            self.fleet.candidate_feasible_on(to, c, extra_gpu_seconds)
        }
        fn candidate_demand_on(&self, to: usize, c: &MigrationCandidate) -> f64 {
            bump(&self.candidate);
            self.fleet.candidate_demand_on(to, c)
        }
    }

    #[test]
    fn an_empty_tick_reads_only_the_at_risk_lists() {
        let mut fleet = MockFleet::idle(3, 100.0);
        fleet.movable[0] = vec![cand(1, 0, 10.0, 50)];
        fleet.pressure = vec![2.0, 1.0, 3.0];
        let counted = Counted::new(&fleet);
        assert!(EdfRebalancer::new()
            .plan(SimTime::ZERO, &counted)
            .is_empty());
        assert_eq!(counted.at_risk.get(), 3);
        assert_eq!(counted.pressure.get(), 0, "an empty tick priced a target");
        assert_eq!(counted.movable.get(), 0);
        assert_eq!(counted.candidate.get(), 0);
    }

    #[test]
    fn an_at_risk_tick_reads_each_up_targets_pressure_once() {
        // Four clusters, one down; two sources with at-risk work. The
        // decisions are the plain mock's, and each up cluster's pressure
        // is read exactly once however the targets sort.
        let mut fleet = MockFleet::idle(4, 60.0);
        fleet.up[3] = false;
        fleet.pressure = vec![5.0, 1.0, 1.0, 0.0];
        fleet.movable[0] = vec![cand(1, 0, 5.0, 50), cand(2, 0, 10.0, 50)];
        fleet.movable[3] = vec![cand(3, 3, 8.0, 40)];
        fleet.at_risk[0] = vec![RequestId(1), RequestId(2)];
        fleet.at_risk[3] = vec![RequestId(3)];
        let counted = Counted::new(&fleet);
        let plan = EdfRebalancer::new().plan(SimTime::ZERO, &counted);
        assert_eq!(counted.pressure.get(), 3);
        assert_eq!(counted.at_risk.get(), 4);
        assert_eq!(plan, EdfRebalancer::new().plan(SimTime::ZERO, &fleet));
        let moves: Vec<(u64, usize, usize)> = plan.iter().map(|d| (d.id.0, d.from, d.to)).collect();
        // Pressure ties break by index: cluster 1 takes id 1 (cap 60), id
        // 2 spills to cluster 2, and id 3 finds both full and cluster 0
        // (cap 60, nothing committed) free.
        assert_eq!(moves, vec![(1, 0, 1), (2, 0, 2), (3, 3, 0)]);
    }

    #[test]
    fn no_risk_no_migrations() {
        let mut fleet = MockFleet::idle(3, 100.0);
        fleet.movable[0] = vec![cand(1, 0, 10.0, 50)];
        let mut rb = EdfRebalancer::new();
        assert!(rb.plan(SimTime::ZERO, &fleet).is_empty());
    }

    #[test]
    fn at_risk_work_moves_to_least_pressured_feasible_target() {
        let mut fleet = MockFleet::idle(3, 100.0);
        fleet.movable[0] = vec![cand(1, 0, 10.0, 50), cand(2, 0, 5.0, 50)];
        fleet.at_risk[0] = vec![RequestId(1), RequestId(2)];
        fleet.pressure = vec![9.0, 3.0, 1.0];
        let mut rb = EdfRebalancer::new();
        let plan = rb.plan(SimTime::ZERO, &fleet);
        // EDF order: id 2 (deadline 5 s) plans first; both fit on the
        // least-pressured cluster 2 (50 + 50 ≤ 100).
        assert_eq!(
            plan,
            vec![
                MigrationDecision {
                    id: RequestId(2),
                    from: 0,
                    to: 2
                },
                MigrationDecision {
                    id: RequestId(1),
                    from: 0,
                    to: 2
                },
            ]
        );
    }

    #[test]
    fn per_tick_extra_demand_prevents_target_dogpiling() {
        let mut fleet = MockFleet::idle(3, 60.0);
        fleet.movable[0] = vec![cand(1, 0, 5.0, 50), cand(2, 0, 10.0, 50)];
        fleet.at_risk[0] = vec![RequestId(1), RequestId(2)];
        fleet.pressure = vec![9.0, 1.0, 2.0];
        let mut rb = EdfRebalancer::new();
        let plan = rb.plan(SimTime::ZERO, &fleet);
        // Cluster 1 is preferred but only fits one 50-step candidate
        // (cap 60); the second must spill to cluster 2.
        assert_eq!(plan.len(), 2);
        assert_eq!(plan[0].to, 1);
        assert_eq!(plan[1].to, 2);
    }

    #[test]
    fn down_clusters_are_never_targets_but_may_be_sources() {
        let mut fleet = MockFleet::idle(2, 100.0);
        fleet.up[0] = false; // whole-cluster outage: everything at risk
        fleet.movable[0] = vec![cand(7, 0, 30.0, 40)];
        fleet.at_risk[0] = vec![RequestId(7)];
        let mut rb = EdfRebalancer::new();
        let plan = rb.plan(SimTime::ZERO, &fleet);
        assert_eq!(
            plan,
            vec![MigrationDecision {
                id: RequestId(7),
                from: 0,
                to: 1
            }]
        );
    }

    #[test]
    fn infeasible_everywhere_means_the_work_stays_put() {
        // Waiting is never beaten if no target passes the post-hand-off
        // feasibility test: the candidate stays where it is.
        let mut fleet = MockFleet::idle(2, 10.0);
        fleet.movable[0] = vec![cand(1, 0, 1.0, 50)];
        fleet.at_risk[0] = vec![RequestId(1)];
        let mut rb = EdfRebalancer::new();
        assert!(rb.plan(SimTime::ZERO, &fleet).is_empty());
    }

    #[test]
    #[should_panic(expected = "cadence must be positive")]
    fn zero_cadence_panics() {
        let _ = EdfRebalancer::with_cadence(SimDuration::ZERO);
    }
}
