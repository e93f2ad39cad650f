//! Property suite for the hot re-query engine: the decoded-block cache
//! ([`BlockCache`]) and [`Session::refilter`] must be **pure
//! accelerations** — observably identical to cold evaluation, only
//! cheaper. Four laws:
//!
//! 1. **Refilter ≡ fresh session** — for random logs and predicate
//!    pairs, narrowing a re-query session produces byte-identical
//!    events (symbol ids included) to a fresh `Inspector` session over
//!    the same container with the refinement as its filter;
//! 2. **Hit ≡ miss ≡ full-load** — a pruned read served from the cache
//!    equals the same read decoded cold, and both equal a full load
//!    followed by `scan`, at every decode worker count;
//! 3. **The budget is a hard invariant** — resident bytes never exceed
//!    the configured budget, under any decode sequence, and eviction
//!    never corrupts what a later lookup returns;
//! 4. **Counters reconcile with real I/O** — re-running a query through
//!    the cache performs zero additional disk fetches (pinned by the
//!    [`CountingSegment`] test double), and the cache's hit count
//!    equals the blocks the plan admitted.

use std::sync::Arc;

use proptest::prelude::*;
use st_inspector::prelude::*;
use st_inspector::query::pushdown::{read_pruned, read_pruned_par, ColumnSet};
use st_inspector::query::Cmp;
use st_inspector::store::{
    to_bytes_blocked, BlockCache, BlockRead, BytesSegment, CachedBlockRead, CountingSegment,
    IoCounters, SegmentReader, SegmentSource, DEFAULT_CACHE_BUDGET,
};

mod common;
use common::{build_log, log_strategy};

/// Wraps an in-memory image in a counting source and opens a seek
/// reader over it, returning the reader and its counters.
fn counting_reader(image: bytes::Bytes) -> (SegmentReader, Arc<IoCounters>) {
    let counting = CountingSegment::new(Arc::new(BytesSegment::new(image)));
    let counters = counting.counters();
    let source: Arc<dyn SegmentSource> = Arc::new(counting);
    (SegmentReader::from_source(source).unwrap(), counters)
}

/// Predicates spanning the pruning spectrum, so refinements admit
/// anything from no block to every block.
fn predicate_strategy() -> impl Strategy<Value = Predicate> {
    prop_oneof![
        Just(Predicate::True),
        Just(Predicate::False),
        Just(Predicate::Ok(false)),
        Just(Predicate::Ok(true)),
        Just(Predicate::Cid("a".to_string())),
        Just(Predicate::PathGlob("/usr/*".to_string())),
        (100u32..110).prop_map(Predicate::Pid),
        (0u64..60_000).prop_map(|n| Predicate::Size(Cmp::Ge, n)),
    ]
}

/// Writes `log` as a v2 container under a test-unique path.
fn write_container(log: &EventLog, block_events: usize, tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("st-props-requery-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}.stlog"));
    std::fs::write(&path, to_bytes_blocked(log, block_events).unwrap()).unwrap();
    path
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Law 1: `Session::refilter` is observably a fresh session. The
    /// broad session runs with predicate `a`, the refinement replaces
    /// it with `a ∧ b`; a cold `Inspector` with the same conjunction
    /// must produce the identical event log — cases, events, symbol
    /// ids — and chaining a second refinement must too.
    #[test]
    fn refilter_equals_fresh_session(
        specs in log_strategy(5, 30),
        a in predicate_strategy(),
        b in predicate_strategy(),
        block_events in prop_oneof![Just(1usize), Just(4usize), Just(64usize)],
    ) {
        let log = build_log(&specs);
        let path = write_container(&log, block_events, "law1");
        let spec = path.to_str().unwrap();

        let broad = Inspector::open(spec).unwrap()
            .requery(true)
            .filter(a.clone())
            .session()
            .unwrap();
        prop_assert!(broad.can_refilter());
        let combined = a.clone().and(b.clone());
        let refined = broad.refilter(combined.clone()).unwrap();

        let fresh = Inspector::open(spec).unwrap()
            .filter(combined.clone())
            .session()
            .unwrap();
        prop_assert_eq!(fresh.log().cases(), refined.log().cases());
        prop_assert_eq!(fresh.events_matched(), refined.events_matched());
        prop_assert_eq!(fresh.events_total(), refined.events_total());

        // Refinements chain without drifting from cold evaluation.
        let chained = refined.refilter(b.clone()).unwrap();
        let fresh_b = Inspector::open(spec).unwrap().filter(b).session().unwrap();
        prop_assert_eq!(fresh_b.log().cases(), chained.log().cases());
    }

    /// Law 2: a cache hit is byte-identical to a cache miss, and both
    /// to a full load + scan — same events, same symbol ids — at every
    /// decode worker count: cold and warm reads at 1, 2 and 8 workers
    /// return the sequential read's log and `PushdownStats` and leave
    /// the cache with the same hit, miss and resident-byte totals.
    #[test]
    fn hit_equals_miss_equals_full_load(
        specs in log_strategy(5, 30),
        pred in predicate_strategy(),
        block_events in prop_oneof![Just(1usize), Just(4usize), Just(64usize)],
        threads in prop_oneof![Just(1usize), Just(2usize), Just(8usize)],
    ) {
        let log = build_log(&specs);
        let image = to_bytes_blocked(&log, block_events).unwrap();
        // The full load reads through its own reader: `bytes_read` in
        // `PushdownStats` is cumulative per reader.
        let full = scan(&counting_reader(image.clone()).0.read().unwrap(), &pred).to_event_log();
        let (seq_reader, _) = counting_reader(image.clone());
        let seq_cache = BlockCache::with_budget(DEFAULT_CACHE_BUDGET);
        let seq_cached = CachedBlockRead::new(&seq_reader, &seq_cache, seq_cache.register());
        let (reader, _) = counting_reader(image);
        let cache = BlockCache::with_budget(DEFAULT_CACHE_BUDGET);
        let cached = CachedBlockRead::new(&reader, &cache, cache.register());

        for pass in ["cold", "warm"] {
            let seq = read_pruned(&seq_cached, &pred, ColumnSet::ALL).unwrap();
            let par = read_pruned_par(&cached, &pred, ColumnSet::ALL, threads).unwrap();
            prop_assert_eq!(full.cases(), seq.log.cases(), "{} x{}", pass, threads);
            prop_assert_eq!(full.cases(), par.log.cases(), "{} x{}", pass, threads);
            prop_assert_eq!(
                format!("{:?}", seq.stats),
                format!("{:?}", par.stats),
                "{} x{}", pass, threads
            );
            prop_assert_eq!(seq_cache.stats(), cache.stats(), "{} x{}", pass, threads);
        }
        prop_assert_eq!(cache.stats().hits, cache.stats().misses);
    }

    /// Law 3: resident bytes never exceed the budget — after every
    /// single insertion, not just at quiescence — and entries that
    /// survive eviction still decode correctly.
    #[test]
    fn budget_is_never_exceeded(
        specs in log_strategy(4, 40),
        budget in prop_oneof![Just(64u64), Just(2_048u64), Just(16_384u64), Just(1u64 << 20)],
        block_events in prop_oneof![Just(1usize), Just(4usize), Just(16usize)],
    ) {
        let log = build_log(&specs);
        let image = to_bytes_blocked(&log, block_events).unwrap();
        let (reader, _) = counting_reader(image);
        let cache = BlockCache::with_budget(budget);
        let token = cache.register();
        let cached = CachedBlockRead::new(&reader, &cache, token);

        let blocks: Vec<_> = reader
            .directory()
            .iter()
            .flat_map(|case| case.blocks.iter().cloned())
            .collect();
        // Two passes: the second revisits under whatever eviction state
        // the first left behind.
        for block in blocks.iter().chain(blocks.iter()) {
            let mut out = Vec::new();
            cached.decode_block(block, ColumnSet::ALL, &mut out).unwrap();
            prop_assert!(
                cache.stats().bytes <= budget,
                "resident {} exceeds budget {}",
                cache.stats().bytes,
                budget
            );
            let mut direct = Vec::new();
            reader.decode_block(block, ColumnSet::ALL, &mut direct).unwrap();
            prop_assert_eq!(&out, &direct);
        }
    }

    /// Law 4: cached blocks cost zero disk fetches on the second query,
    /// and the cache's counters reconcile with the plan — hits on the
    /// warm pass equal decodes on the cold pass equal the blocks the
    /// plan admitted.
    #[test]
    fn warm_queries_do_no_disk_io(
        specs in log_strategy(5, 30),
        pred in predicate_strategy(),
        block_events in prop_oneof![Just(1usize), Just(4usize), Just(64usize)],
    ) {
        let log = build_log(&specs);
        let image = to_bytes_blocked(&log, block_events).unwrap();
        let (reader, counters) = counting_reader(image);
        let cache = BlockCache::with_budget(DEFAULT_CACHE_BUDGET);
        let token = cache.register();
        let cached = CachedBlockRead::new(&reader, &cache, token);

        let cold = read_pruned(&cached, &pred, ColumnSet::ALL).unwrap();
        let bytes_cold = counters.bytes();
        let fetches_cold = counters.fetches();
        let admitted = (cold.stats.blocks_total - cold.stats.blocks_pruned) as u64;
        prop_assert_eq!(cache.stats().misses, admitted);
        prop_assert_eq!(cache.stats().hits, 0);

        let warm = read_pruned(&cached, &pred, ColumnSet::ALL).unwrap();
        prop_assert_eq!(counters.bytes(), bytes_cold, "warm pass fetched bytes");
        prop_assert_eq!(counters.fetches(), fetches_cold, "warm pass issued fetches");
        prop_assert_eq!(cache.stats().hits, admitted);
        prop_assert_eq!(warm.stats.bytes_decoded, 0,
            "cache-served blocks must report zero decoded bytes");
    }
}
