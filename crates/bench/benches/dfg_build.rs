//! Mapping and DFG construction scaling.
//!
//! Complexity claims (Sec. V "Implementation"): applying the mapping is
//! O(n) (step 2) and DFG construction is a single O(n) pass over the
//! activity log (step 3).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use st_bench::synth::{generate, SynthSpec};
use st_core::prelude::*;

fn bench_mapping(c: &mut Criterion) {
    let mut group = c.benchmark_group("mapping/apply");
    group.sample_size(15);
    for events in [10_000usize, 50_000, 200_000] {
        let spec = SynthSpec {
            cases: 32,
            events_per_case: events / 32,
            paths: 64,
            seed: 1,
        };
        let log = generate(&spec);
        group.throughput(Throughput::Elements(log.total_events() as u64));
        group.bench_with_input(BenchmarkId::new("sequential", events), &log, |b, log| {
            b.iter(|| MappedLog::new(log, &CallTopDirs::new(2)).mapped_events())
        });
    }
    group.finish();
}

fn bench_dfg_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("dfg/construct");
    group.sample_size(15);
    for events in [10_000usize, 50_000, 200_000] {
        let spec = SynthSpec {
            cases: 32,
            events_per_case: events / 32,
            paths: 64,
            seed: 2,
        };
        let log = generate(&spec);
        let mapped = MappedLog::new(&log, &CallTopDirs::new(2));
        group.throughput(Throughput::Elements(log.total_events() as u64));
        group.bench_with_input(
            BenchmarkId::new("sequential", events),
            &mapped,
            |b, mapped| b.iter(|| Dfg::from_mapped(mapped).total_edge_observations()),
        );
    }
    group.finish();
}

fn bench_activity_log(c: &mut Criterion) {
    let mut group = c.benchmark_group("dfg/activity_log_multiset");
    group.sample_size(15);
    let spec = SynthSpec {
        cases: 64,
        events_per_case: 1_000,
        paths: 32,
        seed: 3,
    };
    let log = generate(&spec);
    let mapped = MappedLog::new(&log, &CallTopDirs::new(2));
    group.bench_function("from_mapped_64x1000", |b| {
        b.iter(|| ActivityLog::from_mapped(&mapped).distinct_traces())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_mapping,
    bench_dfg_construction,
    bench_activity_log
);
criterion_main!(benches);
