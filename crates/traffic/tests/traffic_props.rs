//! Property tests for the traffic frontend's statistical contracts.
//!
//! The burst coupler's calm-factor construction promises that warping a
//! tenant's arrivals through the shared modulating timeline changes the
//! *shape* of the stream (correlated surges) but not its long-run mean
//! rate; and the online merged stream must stay a bit-identical prefix
//! of the offline generate-then-merge path for arbitrary tenant layouts.

use proptest::prelude::*;

use tetriserve_fleet::ArrivalSource;
use tetriserve_simulator::rng::SimRng;
use tetriserve_traffic::coupler::{CoupledProcess, CouplingSpec};
use tetriserve_traffic::tenant::{ArrivalShape, TenantSpec};
use tetriserve_traffic::{to_spec, BurstCoupler, StreamingArrivals, TrafficModel};
use tetriserve_workload::arrival::{ArrivalProcess, PoissonProcess};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For arbitrary (tame) coupling profiles and tenant rates, the
    /// coupled process keeps the base long-run mean rate: the calm
    /// factor is chosen so the modulating multiplier has unit mean, so
    /// over many bursts the warped clock tracks the base clock.
    #[test]
    fn coupler_preserves_long_run_mean_rate(
        rate_per_min in 4.0f64..30.0,
        // Keep burst_factor · burst_fraction < 1 so some calm traffic
        // remains (the spec's validity constraint).
        burst_factor in 1.5f64..3.5,
        burst_fraction in 0.05f64..0.25,
        seed in 0u64..1000,
    ) {
        let spec = CouplingSpec {
            burst_factor,
            burst_time_fraction: burst_fraction,
            mean_burst_secs: 20.0,
            seed,
        };
        let coupler = BurstCoupler::new(spec);
        let mut p = CoupledProcess::new(PoissonProcess::new(rate_per_min), coupler);
        let mut rng = SimRng::seed_from_u64(seed ^ 0xabcd);
        let n = 40_000usize;
        let total: f64 = (0..n).map(|_| p.next_gap(&mut rng)).sum();
        let mean_gap = total / n as f64;
        let expected = 60.0 / rate_per_min;
        // Burst sojourns induce heavy correlation, so the tolerance is
        // loose; a broken calm factor is off by the burst factor itself.
        prop_assert!(
            (mean_gap - expected).abs() / expected < 0.15,
            "mean gap {mean_gap} vs expected {expected}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The specs the fleet streams == `to_spec` of the offline
    /// generate-then-merge path, for arbitrary tenant counts, rates,
    /// seeds, arrival shapes (Poisson, uniform, MMPP), coupling opt-ins
    /// and 8-frame video tenants.
    #[test]
    fn online_is_always_a_prefix_of_offline(
        layout in proptest::collection::vec(
            (4.0f64..20.0, 0u64..500, 0u8..3, any::<bool>(), any::<bool>()),
            1..5,
        ),
        total in 1usize..120,
    ) {
        let tenants: Vec<TenantSpec> = layout
            .iter()
            .enumerate()
            .map(|(i, &(rate, seed, shape, coupled, video))| {
                let shape = match shape {
                    0 => ArrivalShape::Poisson { rate_per_min: rate },
                    1 => ArrivalShape::Uniform { rate_per_min: rate },
                    _ => ArrivalShape::Bursty { mean_rate_per_min: rate },
                };
                let spec = TenantSpec::new(&format!("t{i}"), rate, seed).with_shape(shape);
                let spec = if video { spec.video(8) } else { spec };
                if coupled { spec.coupled() } else { spec }
            })
            .collect();
        let model = TrafficModel::new(tenants).with_coupling(CouplingSpec::standard(7));
        let mut streamed = StreamingArrivals::new(model.online(total), 50);
        let offline = model.offline(total);
        for want in offline.iter().take(total) {
            let want = to_spec(want, 50);
            prop_assert_eq!(streamed.peek_time(), Some(want.arrival));
            // The whole spec: id, tenant, resolution, stages, steps, and
            // arrival and deadline to the microsecond.
            prop_assert_eq!(streamed.next_spec(), Some(want));
        }
        prop_assert!(streamed.next_spec().is_none());
    }
}
