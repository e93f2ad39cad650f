//! Streaming (bounded-memory) STLOG v2 writer.
//!
//! [`StoreBuilder`] writes a container case-by-case: block bodies
//! stream into a same-directory spill file as cases are pushed (the
//! head cannot be written first — string-table and directory lengths
//! are unknown until the last case), and `finish()` assembles the final
//! container by writing the head into an atomic temp file, splicing the
//! spill in with a file-to-file copy (`copy_file_range` on Linux, so
//! the blocks never pass through user space), and renaming over the
//! target. Peak memory is one block's encoding plus the directory
//! metadata — never the event payload.
//!
//! It shares its case and head encoders with [`crate::to_bytes_blocked`]
//! (module [`crate::writer`]), so both produce the same bytes for the
//! same events, interner and block size; a golden fixture in
//! `tests/props_store_io.rs` pins the streamed output.
//!
//! Crash behaviour matches [`crate::write_atomic`] (both publish
//! through one helper): an interrupted build leaves the target
//! untouched and cleans up both the temp file and the spill; a reader
//! never sees a torn container.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use st_model::{CaseMeta, Event, EventLog, Interner};

use crate::error::StoreError;
use crate::format::{CaseDir, DEFAULT_BLOCK_EVENTS};
use crate::writer::{encode_case, encode_head, io_error, publish_atomic, scratch_path};

/// Streams an STLOG v2 container to disk with bounded memory.
///
/// ```no_run
/// # use std::sync::Arc;
/// # use st_model::{Case, Interner};
/// # use st_store::StoreBuilder;
/// # fn cases() -> Vec<Case> { Vec::new() }
/// let interner = Interner::new_shared();
/// let mut builder =
///     StoreBuilder::create(std::path::Path::new("out.stlog"), Arc::clone(&interner))?;
/// for case in cases() {
///     builder.push_case(case.meta, &case.events)?;
/// }
/// builder.finish()?;
/// # Ok::<(), st_store::StoreError>(())
/// ```
///
/// The interner is taken at construction so `push_case` can label
/// unsorted-case errors; its snapshot is taken at `finish()`, so every
/// symbol interned before then lands in the string table.
#[derive(Debug)]
pub struct StoreBuilder {
    path: PathBuf,
    interner: Arc<Interner>,
    block_events: usize,
    spill_path: PathBuf,
    spill: std::io::BufWriter<std::fs::File>,
    directory: Vec<CaseDir>,
    blocks_offset: u64,
    buf: Vec<u8>,
    peak_buffer: usize,
}

impl StoreBuilder {
    /// Starts a streaming build of `path` with the default block size.
    pub fn create(path: &Path, interner: Arc<Interner>) -> Result<StoreBuilder, StoreError> {
        Self::create_blocked(path, interner, DEFAULT_BLOCK_EVENTS)
    }

    /// [`StoreBuilder::create`] with an explicit block size (events per
    /// block, ≥ 1).
    pub fn create_blocked(
        path: &Path,
        interner: Arc<Interner>,
        block_events: usize,
    ) -> Result<StoreBuilder, StoreError> {
        assert!(block_events >= 1, "blocks hold at least one event");
        let spill_path = scratch_path(path, "spill")?;
        let spill = std::fs::File::create(&spill_path).map_err(io_error(path))?;
        Ok(StoreBuilder {
            path: path.to_path_buf(),
            interner,
            block_events,
            spill_path,
            spill: std::io::BufWriter::new(spill),
            directory: Vec::new(),
            blocks_offset: 0,
            buf: Vec::new(),
            peak_buffer: 0,
        })
    }

    /// Appends one case: encodes its events into blocks and streams the
    /// block bodies to the spill file. Events must be start-sorted
    /// (they are delta-encoded), as with [`crate::to_bytes`].
    pub fn push_case(&mut self, meta: CaseMeta, events: &[Event]) -> Result<(), StoreError> {
        let spill = &mut self.spill;
        let spill_err = io_error(&self.spill_path);
        let peak = &mut self.peak_buffer;
        let entry = encode_case(
            meta,
            events,
            self.block_events,
            &self.interner,
            &mut self.buf,
            &mut self.blocks_offset,
            |block| {
                *peak = (*peak).max(block.len());
                spill.write_all(block).map_err(&spill_err)?;
                block.clear();
                Ok(())
            },
        )?;
        self.directory.push(entry);
        Ok(())
    }

    /// High-water mark of the block-encoding buffer in bytes — the
    /// working memory proportional to event payload (the directory
    /// metadata is excluded; it is O(blocks), not O(events)).
    pub fn peak_buffer_bytes(&self) -> usize {
        self.peak_buffer
    }

    /// Durably publishes the container as built so far **without
    /// ending the stream**: flushes the spill, then runs the same
    /// head-assembly + splice + fsync + atomic-rename sequence as
    /// [`StoreBuilder::finish`]. The builder stays usable — more cases
    /// can be pushed and checkpointed again (each checkpoint republishes
    /// the whole container), or `finish()` called to end the build.
    ///
    /// A failed or interrupted checkpoint leaves the previously
    /// published container intact: the rename is the last step, and on
    /// error only the temp file is removed — never the target, never
    /// the spill.
    pub fn checkpoint(&mut self) -> Result<(), StoreError> {
        let _span = st_obs::span!("store.stream.checkpoint");
        self.publish()
    }

    /// Assembles and atomically publishes the container: head (magic,
    /// strings, directory) into a temp file, spill spliced after it,
    /// fsync, rename over the target. On error the target is untouched
    /// and both scratch files are removed.
    pub fn finish(mut self) -> Result<(), StoreError> {
        let _span = st_obs::span!("store.stream.finish");
        st_obs::add("bytes_written", self.blocks_offset);
        self.publish()
    }

    /// Shared publish path of `checkpoint()` and `finish()`: flushes the
    /// spill without ending the stream, writes the head into a temp
    /// file, splices exactly `blocks_offset` bytes of spill after it,
    /// then fsyncs and renames over the target.
    ///
    /// The spill itself is never fsynced. It is scratch: `Drop` deletes
    /// it and nothing reads it after a crash. The published bytes are
    /// made durable by the temp file's fsync, the rename and the
    /// directory fsync in `publish_atomic`; the flush only has to
    /// hand the buffered blocks to the kernel so the splice sees them.
    fn publish(&mut self) -> Result<(), StoreError> {
        let spill_err = io_error(&self.spill_path);
        self.spill.flush().map_err(&spill_err)?;
        publish_atomic(&self.path, |out, tmp| {
            let head = encode_head(
                &self.interner.snapshot(),
                &self.directory,
                self.blocks_offset,
            );
            out.write_all(&head).map_err(io_error(tmp))?;
            let mut spill = std::fs::File::open(&self.spill_path).map_err(&spill_err)?;
            let copied = std::io::copy(&mut spill, out).map_err(io_error(tmp))?;
            if copied != self.blocks_offset {
                return Err(spill_err(std::io::Error::other(format!(
                    "spill holds {copied} bytes, directory describes {}",
                    self.blocks_offset
                ))));
            }
            Ok(())
        })
    }

    /// Streams every case of `log` (convenience for the
    /// materialized-log callers).
    pub fn push_log(&mut self, log: &EventLog) -> Result<(), StoreError> {
        for case in log.cases() {
            self.push_case(case.meta, &case.events)?;
        }
        Ok(())
    }
}

impl Drop for StoreBuilder {
    fn drop(&mut self) {
        // The spill is scratch whether the build finished or was
        // abandoned (error or early return before finish): it never
        // outlives the builder.
        let _ = std::fs::remove_file(&self.spill_path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CorruptKind;
    use crate::writer::tests::sample_log;
    use crate::writer::to_bytes_blocked;
    use crate::SegmentReader;

    fn tempdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("st-stream-{}-{}", name, std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn scratch_files(dir: &Path) -> Vec<String> {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(".tmp.") || n.contains(".spill."))
            .collect()
    }

    #[test]
    fn unsorted_case_is_rejected_with_its_label() {
        let log = sample_log();
        let mut events = log.cases()[0].events.clone();
        events.reverse();
        let dir = tempdir("unsorted");
        let path = dir.join("out.stlog");
        let mut b = StoreBuilder::create(&path, Arc::clone(log.interner())).unwrap();
        let err = b.push_case(log.cases()[0].meta, &events).unwrap_err();
        assert!(
            matches!(err, StoreError::Corrupt(CorruptKind::UnsortedCase { ref label }) if label.contains("a")),
            "{err:?}"
        );
        drop(b);
        assert!(scratch_files(&dir).is_empty(), "{:?}", scratch_files(&dir));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn abandoned_builder_removes_spill_and_never_creates_target() {
        let dir = tempdir("abandoned");
        let path = dir.join("out.stlog");
        let log = sample_log();
        let mut b = StoreBuilder::create(&path, Arc::clone(log.interner())).unwrap();
        b.push_log(&log).unwrap();
        assert_eq!(scratch_files(&dir).len(), 1, "spill exists mid-build");
        drop(b); // no finish()
        assert!(!path.exists(), "target must not exist");
        assert!(scratch_files(&dir).is_empty(), "{:?}", scratch_files(&dir));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_finish_cleans_up_and_leaves_target_untouched() {
        let dir = tempdir("failfinish");
        // A directory at the target path makes the final rename fail.
        let path = dir.join("occupied");
        std::fs::create_dir_all(&path).unwrap();
        let log = sample_log();
        let mut b = StoreBuilder::create(&path, Arc::clone(log.interner())).unwrap();
        b.push_log(&log).unwrap();
        assert!(b.finish().is_err());
        assert!(path.is_dir(), "target must be untouched");
        assert!(scratch_files(&dir).is_empty(), "{:?}", scratch_files(&dir));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_publishes_readable_container_and_stream_continues() {
        let log = sample_log();
        let dir = tempdir("checkpoint");
        let path = dir.join("out.stlog");
        let mut b = StoreBuilder::create_blocked(&path, Arc::clone(log.interner()), 2).unwrap();

        // Checkpoint after the first case: the published container is a
        // complete, readable v2 store holding exactly that case.
        b.push_case(log.cases()[0].meta, &log.cases()[0].events)
            .unwrap();
        b.checkpoint().unwrap();
        let reader = SegmentReader::open(&path).unwrap();
        let partial = reader.read().unwrap();
        assert_eq!(partial.case_count(), 1);
        assert_eq!(partial.cases()[0].events, log.cases()[0].events);

        // The stream continues: push the rest, checkpoint again, and the
        // republished container covers everything so far.
        for case in &log.cases()[1..] {
            b.push_case(case.meta, &case.events).unwrap();
        }
        b.checkpoint().unwrap();
        let full = SegmentReader::open(&path).unwrap().read().unwrap();
        assert_eq!(full.case_count(), log.case_count());

        // finish() after checkpoints is bit-identical to the one-shot
        // writers — a reader cannot tell checkpoints ever happened.
        b.finish().unwrap();
        let streamed = std::fs::read(&path).unwrap();
        let in_memory = to_bytes_blocked(&log, 2).unwrap();
        assert_eq!(&in_memory[..], &streamed[..]);
        assert!(scratch_files(&dir).is_empty(), "{:?}", scratch_files(&dir));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn interrupted_checkpoint_leaves_previous_container_intact() {
        let log = sample_log();
        let dir = tempdir("ckpt-interrupt");
        let path = dir.join("out.stlog");
        let mut b = StoreBuilder::create(&path, Arc::clone(log.interner())).unwrap();
        b.push_case(log.cases()[0].meta, &log.cases()[0].events)
            .unwrap();
        b.checkpoint().unwrap();
        let published = std::fs::read(&path).unwrap();

        // Interrupt the next checkpoint deterministically: the spill
        // vanishes mid-stream (the worst spot — data pushed but not
        // publishable), so the splice step must fail.
        let second = CaseMeta {
            cid: log.interner().intern("b"),
            ..log.cases()[0].meta
        };
        b.push_case(second, &log.cases()[0].events).unwrap();
        let spill = scratch_files(&dir)
            .into_iter()
            .find(|n| n.contains(".spill."))
            .expect("spill exists mid-build");
        std::fs::remove_file(dir.join(&spill)).unwrap();
        assert!(b.checkpoint().is_err());

        // The previously published container is byte-for-byte intact and
        // no temp file is left behind.
        assert_eq!(std::fs::read(&path).unwrap(), published);
        assert!(
            !scratch_files(&dir).iter().any(|n| n.contains(".tmp.")),
            "{:?}",
            scratch_files(&dir)
        );
        let recovered = SegmentReader::open(&path).unwrap().read().unwrap();
        assert_eq!(recovered.case_count(), 1);
        drop(b);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_log_streams_to_a_valid_container() {
        let dir = tempdir("empty");
        let path = dir.join("out.stlog");
        let interner = Interner::new_shared();
        let b = StoreBuilder::create(&path, interner).unwrap();
        b.finish().unwrap();
        let reader = SegmentReader::open(&path).unwrap();
        assert_eq!(reader.read().unwrap().case_count(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
