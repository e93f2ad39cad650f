//! The I/O-accounting harness for the out-of-core store path: every
//! byte the seek reader touches is counted by a [`CountingSegment`]
//! test double, and the counts are pinned to **no-false-I/O laws**:
//!
//! 1. **Reads are exact** — a pruned read fetches exactly the head
//!    plus the decoded blocks' bytes: rejected blocks contribute zero
//!    disk reads, and total I/O never exceeds the container size;
//! 2. **Pass-all reads the image** — a predicate that rejects nothing
//!    fetches exactly the container's bytes, no more (no duplicate
//!    fetches), no fewer (nothing skipped);
//! 3. **Both encoder drivers agree** — [`StoreBuilder`] (to disk)
//!    produces bit-identical containers to [`to_bytes_blocked`] (to
//!    memory) for random logs and block sizes — they share one case
//!    and one head encoder, so this pins the drivers' framing — with
//!    its encode buffer bounded by the block size, not the log size;
//! 4. **fsck never slurps** — vetting a clean multi-block container
//!    through the seek path fetches each section and block by its
//!    exact extent: the largest single fetch stays below the image
//!    size (the regression guard for the old whole-file read), and the
//!    total equals the image (every byte is CRC-covered exactly once).
//!
//! A golden fixture (`tests/fixtures/v2_streamed.stlog`) pins the
//! streaming writer's output across releases; regenerate with
//! `UPDATE_FIXTURE=1 cargo test --test props_store_io` only after an
//! intentional v2 format change.

use std::path::PathBuf;
use std::sync::Arc;

use proptest::prelude::*;
use st_inspector::prelude::*;
use st_inspector::query::pushdown::{read_pruned, ColumnSet};
use st_inspector::query::Cmp;
use st_inspector::store::{
    to_bytes_blocked, BytesSegment, CountingSegment, IoCounters, SegmentReader, SegmentSource,
    StoreBuilder,
};
use st_model::Syscall;

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

/// Predicates spanning the pruning spectrum: reject-everything,
/// pass-everything, and selective shapes the zone maps can act on.
fn predicate_strategy() -> impl Strategy<Value = Predicate> {
    prop_oneof![
        Just(Predicate::True),
        Just(Predicate::False),
        Just(Predicate::Ok(false)),
        Just(Predicate::Cid("a".to_string())),
        Just(Predicate::PathGlob("/usr/*".to_string())),
        (100u32..110).prop_map(Predicate::Pid),
        (0u64..60_000).prop_map(|n| Predicate::Size(Cmp::Ge, n)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Laws 1 + 2: disk I/O is exactly head + decoded blocks — for any
    /// predicate, rejected blocks are never fetched; for a pass-all
    /// predicate, the fetch total is exactly the container size.
    #[test]
    fn pruned_reads_fetch_exactly_the_surviving_bytes(
        specs in log_strategy(6, 40),
        pred in predicate_strategy(),
        block_events in prop_oneof![Just(1usize), Just(3usize), Just(16usize), Just(4096usize)],
    ) {
        let log = build_log(&specs);
        let image = to_bytes_blocked(&log, block_events).unwrap();
        let image_len = image.len() as u64;

        let (reader, counters) = counting_reader(image);
        let head_bytes = counters.bytes();
        prop_assert!(head_bytes < image_len || log.total_events() == 0);

        let pruned = read_pruned(&reader, &pred, ColumnSet::ALL).unwrap();

        // Law 1: no false I/O. Every surviving block is fetched once by
        // its exact extent (its parsed column bytes plus its 4-byte CRC
        // trailer); rejected blocks contribute nothing.
        let decoded_blocks =
            (pruned.stats.blocks_total - pruned.stats.blocks_pruned) as u64;
        prop_assert_eq!(
            counters.bytes(),
            head_bytes + pruned.stats.bytes_decoded + 4 * decoded_blocks,
            "fetched bytes must be head + surviving block extents exactly"
        );
        prop_assert_eq!(pruned.stats.bytes_read, counters.bytes());
        prop_assert!(counters.bytes() <= image_len);

        // Law 2: a pass-all read fetches exactly the image — the head
        // sections plus every block body, each exactly once.
        if pruned.stats.blocks_pruned == 0 {
            prop_assert_eq!(counters.bytes(), image_len);
        } else {
            prop_assert!(counters.bytes() < image_len);
        }
    }

    /// Law 3: the streaming driver's container is bit-identical to the
    /// in-memory driver's for random logs and block sizes, and its
    /// encode buffer never holds more than one block.
    #[test]
    fn streamed_container_matches_resident_writer(
        specs in log_strategy(6, 40),
        block_events in prop_oneof![Just(1usize), Just(2usize), Just(7usize), Just(64usize)],
        tag in 0u32..u32::MAX,
    ) {
        let log = build_log(&specs);
        let resident = to_bytes_blocked(&log, block_events).unwrap();

        let dir = std::env::temp_dir().join(format!(
            "st-props-io-{}-{tag}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.stlog");
        let mut builder =
            StoreBuilder::create_blocked(&path, Arc::clone(log.interner()), block_events).unwrap();
        builder.push_log(&log).unwrap();
        let peak = builder.peak_buffer_bytes();
        builder.finish().unwrap();
        let streamed = std::fs::read(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();

        prop_assert_eq!(&resident[..], &streamed[..], "streamed bytes diverge");

        // Bounded memory: the encode buffer high-water mark is one
        // block, so with per-event blocks it stays far below a
        // many-block blocks section.
        let blocks_total: usize =
            log.cases().iter().map(|c| c.events.len().div_ceil(block_events)).sum();
        if blocks_total >= 4 {
            prop_assert!(
                (peak as u64) < image_blocks_len(&streamed),
                "peak buffer {} vs blocks section {}",
                peak,
                image_blocks_len(&streamed)
            );
        }
    }
}

/// Length of the blocks bodies in a v2 image (everything after the
/// head), from the documented layout.
fn image_blocks_len(image: &[u8]) -> u64 {
    let mut off = 12usize;
    for _ in 0..2 {
        let len = u64::from_le_bytes(image[off..off + 8].try_into().unwrap()) as usize;
        off += 8 + len + 4;
    }
    u64::from_le_bytes(image[off..off + 8].try_into().unwrap())
}

/// A deterministic multi-block reference log exercising every column
/// shape (named + `Other` calls, failures, sizes, short reads,
/// offsets), blocked small enough that the fixture holds several
/// blocks per case.
fn reference_log() -> EventLog {
    let mut log = EventLog::with_new_interner();
    let i = Arc::clone(log.interner());
    let lib = i.intern("/usr/lib/libc.so.6");
    let out = i.intern("/scratch/run/out.h5");
    for (cid, host, rid, pid) in [("a", "h1", 1u32, 100u32), ("b", "h2", 2, 105)] {
        let meta = CaseMeta {
            cid: i.intern(cid),
            host: i.intern(host),
            rid,
        };
        let mut events = Vec::new();
        for k in 0..9u64 {
            let path = if k % 2 == 0 { lib } else { out };
            let mut e = Event::new(
                Pid(pid + (k % 3) as u32),
                match k % 4 {
                    0 => Syscall::Openat,
                    1 => Syscall::Read,
                    2 => Syscall::Write,
                    _ => Syscall::Close,
                },
                Micros(1_000 * k),
                Micros(10 + k),
                path,
            );
            if k % 4 == 1 || k % 4 == 2 {
                e = e.with_size(512 * k).with_requested(512 * k + 8);
            }
            if k == 5 {
                e = e.failed();
            }
            events.push(e);
        }
        log.push_case(Case::from_events(meta, events));
    }
    log
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v2_streamed.stlog")
}

/// The golden pin for the streaming writer: its bytes over the
/// reference log must match the checked-in fixture (and the in-memory
/// driver) exactly, release after release.
#[test]
fn streaming_writer_output_is_pinned_by_golden_fixture() {
    const BLOCK_EVENTS: usize = 4;
    let log = reference_log();

    let dir = std::env::temp_dir().join(format!("st-io-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("golden.stlog");
    let mut builder =
        StoreBuilder::create_blocked(&path, Arc::clone(log.interner()), BLOCK_EVENTS).unwrap();
    builder.push_log(&log).unwrap();
    builder.finish().unwrap();
    let streamed = std::fs::read(&path).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();

    // Both drivers, one byte sequence.
    let in_memory = to_bytes_blocked(&log, BLOCK_EVENTS).unwrap();
    assert_eq!(&streamed[..], &in_memory[..]);

    if std::env::var("UPDATE_FIXTURE").is_ok() {
        std::fs::write(fixture_path(), &streamed).unwrap();
    }
    let pinned = std::fs::read(fixture_path()).expect(
        "missing tests/fixtures/v2_streamed.stlog — run \
         UPDATE_FIXTURE=1 cargo test --test props_store_io",
    );
    assert_eq!(
        streamed, pinned,
        "streaming writer output diverged from the pinned fixture"
    );

    // The fixture is genuinely multi-block (the laws above exercise
    // block-granular I/O against it).
    let (reader, _) = counting_reader(bytes::Bytes::from(pinned));
    let blocks: usize = reader.directory().iter().map(|c| c.blocks.len()).sum();
    assert!(blocks >= 4, "fixture holds {blocks} blocks");
}

/// Law 4: vetting a clean multi-block container through the seek path
/// (what `fsck` runs) fetches block-granular extents — the regression
/// guard against the old whole-file slurp.
#[test]
fn fsck_vetting_fetches_block_extents_not_the_whole_file() {
    let log = reference_log();
    let image = to_bytes_blocked(&log, 2).unwrap();
    let image_len = image.len() as u64;

    let counting = CountingSegment::new(Arc::new(BytesSegment::new(image)));
    let counters = counting.counters();
    let source: Arc<dyn SegmentSource> = Arc::new(counting);
    let salvaged = st_inspector::store::salvage_source(source).unwrap();
    assert!(salvaged.report.is_clean());

    // Never a whole-file read: the largest single fetch is one section
    // or one block, strictly below the image.
    assert!(
        counters.max_fetch() < image_len,
        "single fetch of {} on a {image_len}-byte image",
        counters.max_fetch()
    );
    // Every byte is CRC-covered, so full vetting reads the image
    // exactly once — no more (no duplicate fetches), no fewer.
    assert_eq!(counters.bytes(), image_len);
    assert_eq!(salvaged.reader.bytes_read(), counters.bytes());
}
