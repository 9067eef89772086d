//! D1 bench: delta encoding/decoding throughput and wire size across update
//! fractions, plus the object sizes the serving benchmark stores: 256 B
//! versions that are unrelated or identical, and 4 KiB versions with a
//! contiguous 1–5% rewrite.

use coda_bench::{mutate_fraction, patterned_bytes};
use coda_store::DeltaCodec;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn bench_encode(c: &mut Criterion) {
    let size = 262_144usize;
    let base = patterned_bytes(size, 1);
    let mut group = c.benchmark_group("delta/encode_256KiB");
    group.throughput(Throughput::Bytes(size as u64));
    for fraction in [0.01f64, 0.1, 0.5] {
        let target = mutate_fraction(&base, fraction);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{}pct", (fraction * 100.0) as u32)),
            &target,
            |b, t| b.iter(|| DeltaCodec::encode(&base, t, 1, 2)),
        );
    }
    group.finish();
}

/// `n` seeded pseudo-random bytes (splitmix64): no block of one seed's
/// output recurs in another's, the encoder's worst case.
fn unrelated(n: usize, seed: u64) -> Vec<u8> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) as u8
        })
        .collect()
}

fn bench_encode_small(c: &mut Criterion) {
    let base = unrelated(256, 1);
    let mut group = c.benchmark_group("delta/encode_256B");
    group.throughput(Throughput::Bytes(256));
    for (name, target) in [("unrelated", unrelated(256, 2)), ("identical", base.clone())] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &target, |b, t| {
            b.iter(|| DeltaCodec::encode(&base, t, 1, 2))
        });
    }
    group.finish();

    let base = unrelated(4096, 3);
    let mut group = c.benchmark_group("delta/encode_4KiB_region");
    group.throughput(Throughput::Bytes(4096));
    for fraction in [0.01f64, 0.05] {
        let target = mutate_fraction(&base, fraction);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{}pct", (fraction * 100.0) as u32)),
            &target,
            |b, t| b.iter(|| DeltaCodec::encode(&base, t, 1, 2)),
        );
    }
    group.finish();
}

fn bench_apply(c: &mut Criterion) {
    let size = 262_144usize;
    let base = patterned_bytes(size, 1);
    let target = mutate_fraction(&base, 0.05);
    let delta = DeltaCodec::encode(&base, &target, 1, 2);
    let mut group = c.benchmark_group("delta/apply_256KiB");
    group.throughput(Throughput::Bytes(size as u64));
    group.bench_function("5pct", |b| b.iter(|| DeltaCodec::apply(&base, &delta).unwrap()));
    group.finish();
}

criterion_group!(benches, bench_encode, bench_encode_small, bench_apply);
criterion_main!(benches);
