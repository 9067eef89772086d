//! F2 bench: cooperative vs independent multi-client graph evaluation
//! through the DARR.

use coda_bench::small_graph;
use coda_cluster::run_cooperative;
use coda_data::{synth, CvStrategy, Metric};
use coda_obs::WallClock;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_coop(c: &mut Criterion) {
    let ds = synth::friedman1(120, 6, 0.5, 1);
    let graph = small_graph();
    let mut group = c.benchmark_group("darr/4_clients_8_pipelines");
    group.sample_size(10);
    let clock = WallClock::new();
    for (name, use_darr) in [("independent", false), ("cooperative", true)] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &use_darr, |b, &d| {
            b.iter(|| {
                run_cooperative(&graph, &ds, CvStrategy::kfold(3), Metric::Rmse, 4, d, &clock)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_coop);
criterion_main!(benches);
