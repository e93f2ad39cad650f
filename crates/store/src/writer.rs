//! Serializing an [`EventLog`] into the STLOG v2 container format.
//!
//! One encoder, two thin drivers. A case encoder turns a case into
//! block bodies plus its [`CaseDir`] entry, and a head encoder writes
//! the magic, string table, directory and blocks length that precede
//! the bodies. [`to_bytes_blocked`] drives them into memory;
//! [`crate::StoreBuilder`] drives them into a spill file and publishes
//! through the same temp → fsync → rename → dir-fsync helper
//! [`write_atomic`] uses. Both drivers therefore emit the same
//! bytes for the same events, interner and block size. The legacy v1
//! encoder lives in [`crate::legacy`].

use std::io::Write;
use std::path::{Path, PathBuf};

use bytes::Bytes;
use st_model::{CaseMeta, Event, EventLog, Interner, InternerSnapshot, Micros, Symbol, Syscall};

use crate::crc::crc32;
use crate::error::{CorruptKind, StoreError};
use crate::format::{BlockDir, CaseDir, ZoneMap, DEFAULT_BLOCK_EVENTS, NCOLS};
use crate::varint::{put_opt_u64, put_u64};

/// v2 container magic.
pub(crate) const MAGIC_V2: &[u8; 8] = b"STLOG2\0\0";
/// The block-chunked format version.
pub(crate) const VERSION_V2: u32 = 2;
/// Call-column tag marking a [`Syscall::Other`] entry (followed by the
/// interned-name symbol).
pub(crate) const CALL_OTHER_TAG: u8 = 0xFF;

/// Rough per-event byte cost used to pre-size the output buffer: nine
/// columns, most of them single-byte varints, plus delta-encoded
/// timestamps that occasionally spill to 2–3 bytes.
pub(crate) const EST_BYTES_PER_EVENT: usize = 14;

/// Serializes `log` as STLOG v2 with the default block size
/// ([`DEFAULT_BLOCK_EVENTS`] events per block).
///
/// Cases are written in log order; events must already be start-sorted
/// (they are delta-encoded). Unsorted cases are rejected rather than
/// silently producing a corrupt delta stream.
pub fn to_bytes(log: &EventLog) -> Result<Bytes, StoreError> {
    to_bytes_blocked(log, DEFAULT_BLOCK_EVENTS)
}

/// [`to_bytes`] with an explicit block size (events per block). Small
/// blocks exercise multi-block layouts on small logs in tests; readers
/// handle any block size ≥ 1.
pub fn to_bytes_blocked(log: &EventLog, block_events: usize) -> Result<Bytes, StoreError> {
    let _span = st_obs::span!("store.encode");
    assert!(block_events >= 1, "blocks hold at least one event");
    // The directory precedes the bodies but depends on their offsets,
    // so the bodies stream into their own buffer and are appended once
    // at the end — no per-case or per-column allocations.
    let mut blocks = Vec::with_capacity(log.total_events() * EST_BYTES_PER_EVENT);
    let mut next_offset = 0u64;
    let mut directory = Vec::with_capacity(log.case_count());
    for case in log.cases() {
        directory.push(encode_case(
            case.meta,
            &case.events,
            block_events,
            log.interner(),
            &mut blocks,
            &mut next_offset,
            |_| Ok(()),
        )?);
    }
    let mut out = encode_head(&log.snapshot(), &directory, next_offset);
    out.extend_from_slice(&blocks);
    Ok(Bytes::from(out))
}

/// Rejects a case whose events are not start-sorted, naming it by its
/// `cid_host_rid` label.
pub(crate) fn ensure_sorted(
    meta: CaseMeta,
    events: &[Event],
    interner: &Interner,
) -> Result<(), StoreError> {
    if events.windows(2).all(|w| w[0].start <= w[1].start) {
        Ok(())
    } else {
        Err(CorruptKind::UnsortedCase {
            label: meta.label(interner),
        }
        .into())
    }
}

/// Encodes one start-sorted case into blocks of `block_events` and
/// returns its directory entry. Each block body is appended to `buf`,
/// placed at blocks-section offset `*next_offset` (which advances past
/// it), and then handed to `flush` — a no-op for the in-memory driver,
/// which keeps appending, and a spill write + clear for the streaming
/// one. `flush` is generic, so neither driver pays a dynamic call.
pub(crate) fn encode_case(
    meta: CaseMeta,
    events: &[Event],
    block_events: usize,
    interner: &Interner,
    buf: &mut Vec<u8>,
    next_offset: &mut u64,
    mut flush: impl FnMut(&mut Vec<u8>) -> Result<(), StoreError>,
) -> Result<CaseDir, StoreError> {
    ensure_sorted(meta, events, interner)?;
    let mut entry = CaseDir {
        cid: meta.cid,
        host: meta.host,
        rid: meta.rid,
        events: events.len() as u64,
        start_min: events.first().map(|e| e.start).unwrap_or(Micros::ZERO),
        start_max: events.last().map(|e| e.start).unwrap_or(Micros::ZERO),
        blocks: Vec::with_capacity(events.len().div_ceil(block_events)),
    };
    for chunk in events.chunks(block_events) {
        let mut block = write_block(buf, chunk);
        block.offset = *next_offset;
        *next_offset += u64::from(block.len);
        flush(buf)?;
        entry.blocks.push(block);
    }
    Ok(entry)
}

/// Encodes everything that precedes the block bodies: magic, version,
/// the strings section, the directory section, and the blocks
/// section's length prefix. Block bodies carry their own
/// CRCs, so a pruning reader verifies exactly the blocks it touches.
pub(crate) fn encode_head(
    snap: &InternerSnapshot,
    directory: &[CaseDir],
    blocks_len: u64,
) -> Vec<u8> {
    let mut head = Vec::with_capacity(64 + snap.len() * 24 + directory.len() * 96);
    head.extend_from_slice(MAGIC_V2);
    head.extend_from_slice(&VERSION_V2.to_le_bytes());
    write_section(&mut head, |body| encode_strings(body, snap));
    write_section(&mut head, |body| {
        put_u64(body, directory.len() as u64);
        for entry in directory {
            entry.encode(body);
        }
    });
    head.extend_from_slice(&blocks_len.to_le_bytes());
    head
}

/// Encodes a string-table body (v1 and v2 alike): the interner snapshot
/// in insertion order, so symbol ids are reproduced exactly on read.
pub(crate) fn encode_strings(body: &mut Vec<u8>, snap: &InternerSnapshot) {
    put_u64(body, snap.len() as u64);
    for idx in 0..snap.len() {
        let s = snap.resolve(Symbol(idx as u32));
        put_u64(body, s.len() as u64);
        body.extend_from_slice(s.as_bytes());
    }
}

/// Writes one block body (nine column segments + CRC-32) into `out` and
/// returns its directory entry (offset relative to `out`).
fn write_block(out: &mut Vec<u8>, chunk: &[Event]) -> BlockDir {
    let body_start = out.len();
    let col_lens = encode_columns(out, chunk);
    let crc = crc32(&out[body_start..]);
    out.extend_from_slice(&crc.to_le_bytes());
    BlockDir {
        events: chunk.len() as u32,
        offset: body_start as u64,
        len: (out.len() - body_start) as u32,
        col_lens,
        zone: ZoneMap::from_events(chunk),
    }
}

/// Appends the nine column segments of `events` to `out` (the layout
/// of a v2 block body and of a v1 case alike) and returns each
/// segment's byte length.
pub(crate) fn encode_columns(out: &mut Vec<u8>, events: &[Event]) -> [u32; NCOLS] {
    let mut col_lens = [0u32; NCOLS];
    let mut col_start = out.len();
    let mut finish_col = |out: &mut Vec<u8>, idx: usize| {
        col_lens[idx] = (out.len() - col_start) as u32;
        col_start = out.len();
    };

    // pid column
    for e in events {
        put_u64(out, u64::from(e.pid.0));
    }
    finish_col(out, 0);
    // call column
    for e in events {
        match e.call {
            Syscall::Other(sym) => {
                out.push(CALL_OTHER_TAG);
                put_u64(out, u64::from(sym.0));
            }
            named => out.push(named.named_index().expect("named syscall")),
        }
    }
    finish_col(out, 1);
    // start column: first event absolute, rest delta-encoded, so every
    // block decodes independently of its predecessors.
    let mut prev = Micros::ZERO;
    for e in events {
        put_u64(out, (e.start - prev).as_micros());
        prev = e.start;
    }
    finish_col(out, 2);
    // dur column
    for e in events {
        put_u64(out, e.dur.as_micros());
    }
    finish_col(out, 3);
    // path column
    for e in events {
        put_u64(out, u64::from(e.path.0));
    }
    finish_col(out, 4);
    // size / requested / offset columns (option-shifted)
    for e in events {
        put_opt_u64(out, e.size);
    }
    finish_col(out, 5);
    for e in events {
        put_opt_u64(out, e.requested);
    }
    finish_col(out, 6);
    for e in events {
        put_opt_u64(out, e.offset);
    }
    finish_col(out, 7);
    // ok column
    for e in events {
        out.push(u8::from(e.ok));
    }
    finish_col(out, 8);
    col_lens
}

/// Appends a v2 section: fixed 8-byte LE length prefix, body, CRC-32.
/// The fixed prefix lets the body stream straight into `out` (the
/// length is patched afterwards) — no intermediate section buffer.
fn write_section(out: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) {
    let len_pos = out.len();
    out.extend_from_slice(&[0u8; 8]);
    let body_start = out.len();
    body(out);
    let body_len = (out.len() - body_start) as u64;
    out[len_pos..len_pos + 8].copy_from_slice(&body_len.to_le_bytes());
    let crc = crc32(&out[body_start..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Writes `log` to `path` (STLOG v2), atomically: readers and crashes
/// see either the complete old file or the complete new one, never a
/// torn container.
///
/// Routes through the streaming [`crate::StoreBuilder`], so the full
/// container byte image is never materialized in memory — working
/// memory stays at one block plus the directory metadata.
pub fn write_store(log: &EventLog, path: &Path) -> Result<(), StoreError> {
    let mut builder =
        crate::stream::StoreBuilder::create(path, std::sync::Arc::clone(log.interner()))?;
    builder.push_log(log)?;
    builder.finish()
}

/// Durably replaces `path` with `bytes`: write to a same-directory temp
/// file, `fsync` it, `rename` over the target (atomic on POSIX), then
/// fsync the directory best-effort. On any error the temp file is
/// removed and the target is untouched.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    let _span = st_obs::span!("store.write", len = bytes.len());
    st_obs::add("bytes_written", bytes.len() as u64);
    publish_atomic(path, |file, tmp| {
        file.write_all(bytes).map_err(io_error(tmp))
    })
}

/// Maps an I/O error to [`StoreError::Io`] against `path`.
pub(crate) fn io_error(path: &Path) -> impl Fn(std::io::Error) -> StoreError + '_ {
    move |source| StoreError::Io {
        path: path.to_path_buf(),
        source,
    }
}

/// A pid-salted scratch file next to `path` (`.<name>.<tag>.<pid>`):
/// same directory, because rename cannot cross filesystems, and
/// pid-salted so concurrent writers never share one.
pub(crate) fn scratch_path(path: &Path, tag: &str) -> Result<PathBuf, StoreError> {
    let name = path
        .file_name()
        .ok_or_else(|| io_error(path)(std::io::Error::other("path has no file name")))?;
    Ok(path.with_file_name(format!(
        ".{}.{tag}.{}",
        name.to_string_lossy(),
        std::process::id()
    )))
}

/// Durably replaces `path` with whatever `fill` writes: into a
/// same-directory temp file, `fsync` it, then `rename` over the target
/// (atomic on POSIX). The directory itself is fsynced best-effort so
/// the rename survives a crash too. On any error the temp file is
/// removed and the target is untouched — an interrupted write leaves no
/// partial container behind. `fill` gets the temp file and its path
/// (for error context).
pub(crate) fn publish_atomic(
    path: &Path,
    fill: impl FnOnce(&mut std::fs::File, &Path) -> Result<(), StoreError>,
) -> Result<(), StoreError> {
    let tmp = scratch_path(path, "tmp")?;
    let result = (|| {
        let mut file = std::fs::File::create(&tmp).map_err(io_error(&tmp))?;
        fill(&mut file, &tmp)?;
        file.sync_all().map_err(io_error(&tmp))?;
        drop(file);
        std::fs::rename(&tmp, path).map_err(io_error(path))
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
        return result;
    }
    // Make the rename itself durable. Failure here (exotic filesystems)
    // costs durability of the *name*, not integrity of the data, so it
    // is not propagated.
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    if let Ok(d) = std::fs::File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use st_model::{Case, Pid};
    use std::sync::Arc;

    pub(crate) fn sample_log() -> EventLog {
        let mut log = EventLog::with_new_interner();
        let i = Arc::clone(log.interner());
        let meta = CaseMeta {
            cid: i.intern("a"),
            host: i.intern("host1"),
            rid: 9042,
        };
        let p = i.intern("/usr/lib/libc.so.6");
        let events = vec![
            Event::new(Pid(9054), Syscall::Openat, Micros(100), Micros(12), p),
            Event::new(Pid(9054), Syscall::Read, Micros(200), Micros(203), p)
                .with_size(832)
                .with_requested(832),
            Event::new(
                Pid(9054),
                Syscall::Other(i.intern("statx")),
                Micros(300),
                Micros(4),
                p,
            ),
            Event::new(Pid(9054), Syscall::Pwrite64, Micros(400), Micros(300), p)
                .with_size(1024)
                .with_requested(1024)
                .with_offset(4096),
            Event::new(
                Pid(9054),
                Syscall::Openat,
                Micros(500),
                Micros(7),
                i.intern("/missing"),
            )
            .failed(),
        ];
        log.push_case(Case::from_events(meta, events));
        log
    }

    #[test]
    fn serializes_with_magic_and_version() {
        let bytes = to_bytes(&sample_log()).unwrap();
        assert_eq!(&bytes[..8], MAGIC_V2);
        assert_eq!(
            u32::from_le_bytes(bytes[8..12].try_into().unwrap()),
            VERSION_V2
        );
    }

    #[test]
    fn rejects_unsorted_case() {
        let mut log = sample_log();
        log.cases_mut()[0].events.reverse();
        assert!(matches!(to_bytes(&log), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn empty_log_serializes() {
        let log = EventLog::with_new_interner();
        let bytes = to_bytes(&log).unwrap();
        assert!(bytes.len() >= 12);
    }

    #[test]
    fn atomic_write_replaces_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join(format!("st-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let target = dir.join("out.stlog");
        // First write creates; second write replaces the full content.
        write_atomic(&target, b"first image").unwrap();
        assert_eq!(std::fs::read(&target).unwrap(), b"first image");
        write_atomic(&target, b"second, longer image").unwrap();
        assert_eq!(std::fs::read(&target).unwrap(), b"second, longer image");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n.to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_atomic_write_leaves_target_and_no_temp() {
        let dir = std::env::temp_dir().join(format!("st-atomic-fail-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // A directory at the target path makes the final rename fail
        // after the temp file was written — the interruption point the
        // protocol must clean up after.
        let target = dir.join("occupied");
        std::fs::create_dir_all(&target).unwrap();
        assert!(write_atomic(&target, b"doomed").is_err());
        assert!(target.is_dir(), "target must be untouched");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n.to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn block_size_changes_block_count_not_content() {
        let log = sample_log();
        let one = to_bytes_blocked(&log, 1).unwrap();
        let all = to_bytes_blocked(&log, 1024).unwrap();
        assert_ne!(one.len(), all.len()); // more blocks, more directory
        let read = |image| {
            crate::SegmentReader::from_source(Arc::new(crate::BytesSegment::new(image)))
                .unwrap()
                .read()
                .unwrap()
        };
        assert_eq!(read(one).cases(), read(all).cases());
    }
}
