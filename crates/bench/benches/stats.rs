//! Statistics computation scaling in n (events) and m (activities).
//!
//! The paper's complexity claim (Sec. V "Implementation", step 4) is
//! O(mn); this implementation is one pass plus one interval sort per
//! activity, O(n log n) in the events.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use st_bench::synth::{generate, SynthSpec};
use st_core::prelude::*;

fn bench_stats_vs_n(c: &mut Criterion) {
    let mut group = c.benchmark_group("stats/vs_events");
    group.sample_size(15);
    for events in [10_000usize, 50_000, 200_000] {
        let spec = SynthSpec {
            cases: 32,
            events_per_case: events / 32,
            paths: 64,
            seed: 4,
        };
        let log = generate(&spec);
        let mapped = MappedLog::new(&log, &CallTopDirs::new(2));
        group.throughput(Throughput::Elements(log.total_events() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(events), &mapped, |b, mapped| {
            b.iter(|| IoStatistics::compute(mapped).len())
        });
    }
    group.finish();
}

fn bench_stats_vs_m(c: &mut Criterion) {
    let mut group = c.benchmark_group("stats/vs_activities");
    group.sample_size(15);
    for paths in [8usize, 64, 512] {
        let spec = SynthSpec {
            cases: 32,
            events_per_case: 2_000,
            paths,
            seed: 5,
        };
        let log = generate(&spec);
        let mapped = MappedLog::new(&log, &CallTopDirs::new(4));
        group.bench_with_input(
            BenchmarkId::from_parameter(mapped.activity_count()),
            &mapped,
            |b, mapped| b.iter(|| IoStatistics::compute(mapped).len()),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_stats_vs_n, bench_stats_vs_m);
criterion_main!(benches);
