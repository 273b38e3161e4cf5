//! Criterion microbenchmarks of TetriServe's control-plane primitives: the
//! group-knapsack DP (Algorithm 1), the deadline-aware allocator and a
//! full per-round planning pass. Complements Table 6's wall-clock
//! comparison with statistically sound timings.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use tetriserve_core::allocation::min_gpu_hour_plan;
use tetriserve_core::dp::pack_round;
use tetriserve_core::options::{build_options, RequestOptions};
use tetriserve_costmodel::{ClusterSpec, CostTable, DitModel, Profiler, Resolution};
use tetriserve_simulator::time::{SimDuration, SimTime};
use tetriserve_simulator::trace::RequestId;

fn costs() -> CostTable {
    Profiler::new(DitModel::flux_dev(), ClusterSpec::h100x8()).analytic()
}

fn make_options(costs: &CostTable, queue: usize) -> Vec<RequestOptions> {
    let tau = costs.t_min(Resolution::R2048) * 5;
    (0..queue)
        .map(|i| {
            let res = Resolution::PRODUCTION[i % 4];
            let plan = min_gpu_hour_plan(res, 50, SimDuration::from_secs_f64(5.0), costs);
            build_options(
                RequestId(i as u64),
                res,
                SimTime::from_secs_f64(5.0),
                &plan,
                tau,
                SimTime::ZERO + tau,
                costs,
                8,
                None,
                SimDuration::ZERO,
                true,
                Vec::new(),
            )
        })
        .collect()
}

fn bench_dp(c: &mut Criterion) {
    let costs = costs();
    for queue in [8usize, 32, 128] {
        let options = make_options(&costs, queue);
        c.bench_function(&format!("pack_round/queue={queue}"), |b| {
            b.iter_batched(
                || options.clone(),
                |opts| black_box(pack_round(&opts, 8)),
                BatchSize::SmallInput,
            )
        });
    }
}

fn bench_allocator(c: &mut Criterion) {
    let costs = costs();
    c.bench_function("min_gpu_hour_plan/2048_tight", |b| {
        b.iter(|| {
            black_box(min_gpu_hour_plan(
                Resolution::R2048,
                black_box(50),
                SimDuration::from_secs_f64(5.0),
                &costs,
            ))
        })
    });
}

criterion_group!(benches, bench_dp, bench_allocator);
criterion_main!(benches);
