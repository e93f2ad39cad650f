//! The max-concurrency kernel (windowed Eq. 16, exact sweep and
//! distinct cases from one sort), across interval counts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use st_core::concurrency::max_concurrency;
use st_model::Micros;

const CASES: usize = 32;

fn intervals(n: usize, seed: u64) -> Vec<(Micros, Micros, usize)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let s = rng.gen_range(0..1_000_000u64);
            let d = rng.gen_range(1..5_000u64);
            (Micros(s), Micros(s + d), rng.gen_range(0..CASES))
        })
        .collect()
}

fn bench_concurrency(c: &mut Criterion) {
    let mut group = c.benchmark_group("concurrency");
    group.sample_size(20);
    let mut open = vec![0; CASES];
    for n in [1_000usize, 10_000, 100_000] {
        let ivs = intervals(n, 7);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("kernel", n), &ivs, |b, ivs| {
            b.iter(|| max_concurrency(&mut ivs.clone(), &mut open))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_concurrency);
criterion_main!(benches);
