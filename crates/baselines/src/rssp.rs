//! Resolution-Specific SP (RSSP) — the oracle static baseline.
//!
//! §6.1: *"Selects the best SP degree per resolution via offline profiling
//! … Represents an oracle static configuration."* On our calibrated cost
//! model the profiled choices are derived rather than hard-coded: for each
//! resolution, the smallest degree whose isolated request latency fits the
//! resolution's base SLO (falling back to the fastest degree when nothing
//! fits). Requests are admitted FIFO; each runs non-preemptively at its
//! resolution's degree on an aligned GPU block. Like xDiT, RSSP is blind to
//! deadlines and cannot adapt at runtime — which is exactly why TetriServe
//! beats it (§6.2: "RSSP is a restricted variant of TetriServe").

use std::collections::BTreeMap;

use tetriserve_core::policy::{DispatchPlan, Policy, PolicyEvent, SchedContext};
use tetriserve_costmodel::{CostTable, Resolution};
use tetriserve_simulator::time::{SimDuration, SimTime};
use tetriserve_simulator::trace::Batch;

/// The RSSP baseline policy.
#[derive(Debug, Clone)]
pub struct RsspPolicy {
    degree_by_tokens: BTreeMap<u64, usize>,
}

impl RsspPolicy {
    /// Derives the per-resolution degree table by offline profiling: the
    /// smallest degree whose isolated latency (steps × T(k) + decode) fits
    /// the resolution's base SLO from `slo_targets`; if none fits, the
    /// fastest degree.
    ///
    /// # Panics
    ///
    /// Panics if `slo_targets` misses a profiled resolution.
    pub fn from_profile(
        costs: &CostTable,
        slo_targets: &BTreeMap<Resolution, SimDuration>,
    ) -> Self {
        let steps = costs.model().steps;
        let mut degree_by_tokens = BTreeMap::new();
        for &res in costs.resolutions() {
            let slo = *slo_targets
                .get(&res)
                .unwrap_or_else(|| panic!("no SLO target for {res}"));
            let decode = costs.decode_time(res, 1);
            let chosen = costs
                .degrees()
                .iter()
                .copied()
                .find(|&k| costs.step_time(res, k, 1) * u64::from(steps) + decode <= slo)
                .unwrap_or_else(|| costs.fastest_degree(res));
            degree_by_tokens.insert(res.tokens(), chosen);
        }
        RsspPolicy { degree_by_tokens }
    }

    /// Builds RSSP with an explicit per-resolution degree table.
    ///
    /// # Panics
    ///
    /// Panics if any degree is not a positive power of two.
    pub fn with_table<I: IntoIterator<Item = (Resolution, usize)>>(table: I) -> Self {
        let degree_by_tokens = table
            .into_iter()
            .map(|(res, k)| {
                assert!(
                    k > 0 && k.is_power_of_two(),
                    "degree {k} for {res} must be a positive power of two"
                );
                (res.tokens(), k)
            })
            .collect();
        RsspPolicy { degree_by_tokens }
    }

    /// The degree chosen for `res`.
    ///
    /// # Panics
    ///
    /// Panics if the resolution is not in the table.
    pub fn degree_for(&self, res: Resolution) -> usize {
        *self
            .degree_by_tokens
            .get(&res.tokens())
            .unwrap_or_else(|| panic!("RSSP has no degree for {res}"))
    }
}

impl Policy for RsspPolicy {
    fn name(&self) -> String {
        "RSSP".to_owned()
    }

    fn reacts_to(&self, event: PolicyEvent) -> bool {
        matches!(event, PolicyEvent::Arrival | PolicyEvent::DispatchDone)
    }

    fn next_tick(&self, _now: SimTime) -> Option<SimTime> {
        None
    }

    fn schedule(&mut self, ctx: &SchedContext<'_>) -> Vec<DispatchPlan> {
        let mut plans = Vec::new();
        let mut free = ctx.free;
        let mut queue = Vec::new();
        ctx.tracker.schedulable_ids_into(ctx.now, &mut queue);
        for id in queue {
            let r = ctx.tracker.get(id).expect("schedulable id is tracked");
            let k = self.degree_for(r.spec.resolution);
            // Aligned block of the needed size; FIFO blocks if the head's
            // block size is unavailable (no skipping).
            let topo = ctx.costs.cluster().topology();
            let Some(block) = topo.aligned_blocks(k).find(|b| free.is_superset_of(*b)) else {
                break;
            };
            free = free.difference(block);
            plans.push(DispatchPlan {
                requests: Batch::one(id),
                gpus: block,
                steps: r.remaining_steps,
            });
        }
        plans
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetriserve_core::request::RequestSpec;
    use tetriserve_core::server::Server;
    use tetriserve_costmodel::{ClusterSpec, DitModel, Profiler};
    use tetriserve_simulator::trace::{RequestId, TenantId};

    fn costs() -> CostTable {
        Profiler::new(DitModel::flux_dev(), ClusterSpec::h100x8()).analytic()
    }

    /// The paper's base SLO targets (§6.1).
    fn slo_targets() -> BTreeMap<Resolution, SimDuration> {
        BTreeMap::from([
            (Resolution::R256, SimDuration::from_secs_f64(1.5)),
            (Resolution::R512, SimDuration::from_secs_f64(2.0)),
            (Resolution::R1024, SimDuration::from_secs_f64(3.0)),
            (Resolution::R2048, SimDuration::from_secs_f64(5.0)),
        ])
    }

    #[test]
    fn profiled_table_matches_calibration() {
        let p = RsspPolicy::from_profile(&costs(), &slo_targets());
        // On the calibrated FLUX/H100 model: 256 and 512 fit on one GPU,
        // 1024 needs SP=4, 2048 needs SP=8.
        assert_eq!(p.degree_for(Resolution::R256), 1);
        assert_eq!(p.degree_for(Resolution::R512), 1);
        assert_eq!(p.degree_for(Resolution::R1024), 4);
        assert_eq!(p.degree_for(Resolution::R2048), 8);
    }

    #[test]
    fn explicit_table_round_trips() {
        let p = RsspPolicy::with_table([(Resolution::R256, 1), (Resolution::R2048, 8)]);
        assert_eq!(p.degree_for(Resolution::R256), 1);
        assert_eq!(p.degree_for(Resolution::R2048), 8);
    }

    #[test]
    fn isolated_requests_meet_their_base_slos() {
        let c = costs();
        let p = RsspPolicy::from_profile(&c, &slo_targets());
        let specs: Vec<RequestSpec> = [
            (0u64, Resolution::R256, 1.5),
            (1, Resolution::R512, 2.0),
            (2, Resolution::R1024, 3.0),
            (3, Resolution::R2048, 5.0),
        ]
        .into_iter()
        .map(|(id, res, slo)| RequestSpec {
            tenant: TenantId::UNTAGGED,
            id: RequestId(id),
            resolution: res,
            arrival: SimTime::from_secs_f64(id as f64 * 40.0), // well spaced
            deadline: SimTime::from_secs_f64(id as f64 * 40.0 + slo),
            total_steps: 50,
            stages: tetriserve_costmodel::StageProfile::FLAT,
        })
        .collect();
        let report = Server::new(c, p).run(specs);
        assert_eq!(report.sar(), 1.0, "{:#?}", report.outcomes);
    }

    #[test]
    fn no_runtime_adaptation_under_pressure() {
        // Two simultaneous 2048² requests both "need" SP=8; RSSP serialises
        // them and the second misses — TetriServe would have split 4+4 or
        // reordered. This is the rigidity §6.2 describes.
        let c = costs();
        let p = RsspPolicy::from_profile(&c, &slo_targets());
        let mk = |id, slo: f64| RequestSpec {
            tenant: TenantId::UNTAGGED,
            id: RequestId(id),
            resolution: Resolution::R2048,
            arrival: SimTime::ZERO,
            deadline: SimTime::from_secs_f64(slo),
            total_steps: 50,
            stages: tetriserve_costmodel::StageProfile::FLAT,
        };
        let report = Server::new(c, p).run(vec![mk(0, 5.0), mk(1, 5.0)]);
        let met = report.outcomes.iter().filter(|o| o.met_slo()).count();
        assert_eq!(met, 1);
    }

    #[test]
    #[should_panic(expected = "no degree for")]
    fn unknown_resolution_panics() {
        RsspPolicy::with_table([(Resolution::R256, 1)]).degree_for(Resolution::R2048);
    }
}
