//! Format-level decoders — string table, block directory, one block
//! extent, one column — shared by [`crate::SegmentReader`], salvage
//! vetting and the legacy v1 decoder.

use bytes::{Buf, Bytes};
use st_model::{Event, Micros, Pid, Symbol, Syscall};

use crate::crc::crc32;
use crate::error::{CorruptKind, StoreError};
use crate::format::{BlockDir, CaseDir, ColumnSet, NCOLS};
use crate::varint::get_u64;
use crate::writer::CALL_OTHER_TAG;

/// Validates a raw symbol reference against a string table.
pub(crate) fn symbol_in(strings: &[String], raw: u64) -> Result<Symbol, StoreError> {
    let idx = usize::try_from(raw).map_err(|_| CorruptKind::ValueOverflow {
        what: "symbol",
        ty: "usize",
    })?;
    if idx >= strings.len() {
        return Err(CorruptKind::SymbolOutOfRange {
            symbol: raw,
            strings: strings.len(),
        }
        .into());
    }
    Ok(Symbol(idx as u32))
}

/// The event a column decode starts from: every field a projected-away
/// column leaves untouched keeps this neutral value.
pub(crate) const BLANK_EVENT: Event = Event {
    pid: Pid(0),
    call: Syscall::Read,
    start: Micros::ZERO,
    dur: Micros::ZERO,
    path: Symbol(0),
    size: None,
    requested: None,
    offset: None,
    ok: true,
};

/// Decodes one v2 block from its raw extent bytes (body + CRC-32
/// trailer, exactly `block.len` bytes), appending events to `out` and
/// returning the column-segment bytes parsed. Shared by the reader
/// (which fetches exactly this extent from its source) and salvage
/// vetting (whose trial decode therefore proves a later read succeeds).
pub(crate) fn decode_block_bytes(
    raw: &[u8],
    block: &BlockDir,
    cols: ColumnSet,
    strings: &[String],
    out: &mut Vec<Event>,
) -> Result<usize, StoreError> {
    debug_assert_eq!(raw.len(), block.len as usize);
    debug_assert!(raw.len() >= 4, "caller bounds-checks the extent");
    let cols = cols.union(ColumnSet::IDENTITY);
    let body = &raw[..raw.len() - 4];
    let crc_raw: [u8; 4] = raw[raw.len() - 4..].try_into().expect("4 trailer bytes");
    if crc32(body) != u32::from_le_bytes(crc_raw) {
        return Err(StoreError::ChecksumMismatch { section: "block" });
    }

    let n = block.events as usize;
    let base = out.len();
    out.resize(base + n, BLANK_EVENT);
    let events = &mut out[base..];

    let mut decoded = 0usize;
    let mut seg_start = 0usize;
    for col in 0..NCOLS {
        let seg_len = block.col_lens[col] as usize;
        if seg_start + seg_len > body.len() {
            return Err(CorruptKind::SegmentOutOfBounds.into());
        }
        if cols.contains(ColumnSet::nth(col)) {
            let mut seg = &body[seg_start..seg_start + seg_len];
            decode_column(col, &mut seg, events, strings)?;
            if !seg.is_empty() {
                return Err(CorruptKind::TrailingBytes {
                    after: "column segment",
                }
                .into());
            }
            decoded += seg_len;
        }
        seg_start += seg_len;
    }
    Ok(decoded)
}

/// Decodes column `col` of a block (or of a v1 case) into the event
/// slots, advancing `seg` past it.
///
/// Inner loops use the slice-specialized varint readers
/// ([`varint::get_u64_slice`]) whose one-byte fast path covers the
/// common case (delta timestamps, dense symbols, small durations), and
/// the fixed-width columns (`call` tags, `ok` flags) split the segment
/// once instead of bounds-checking per event — this is the hottest loop
/// in the whole query path (~120 ns/event full scan before this
/// rewrite). Always inlined, so the block decoder keeps its own copy
/// of the loops however many callers share them.
#[inline(always)]
pub(crate) fn decode_column(
    col: usize,
    seg: &mut &[u8],
    events: &mut [Event],
    strings: &[String],
) -> Result<(), StoreError> {
    use crate::varint::{get_opt_u64_slice, get_u64_slice};
    match col {
        0 => {
            for e in events.iter_mut() {
                let pid =
                    u32::try_from(get_u64_slice(seg)?).map_err(|_| CorruptKind::ValueOverflow {
                        what: "pid",
                        ty: "u32",
                    })?;
                e.pid = Pid(pid);
            }
        }
        1 => {
            for e in events.iter_mut() {
                let Some((&tag, rest)) = seg.split_first() else {
                    return Err(CorruptKind::Truncated {
                        what: "call column",
                    }
                    .into());
                };
                *seg = rest;
                e.call = if tag == CALL_OTHER_TAG {
                    Syscall::Other(symbol_in(strings, get_u64_slice(seg)?)?)
                } else {
                    Syscall::from_named_index(tag)
                        .ok_or_else(|| StoreError::from(CorruptKind::UnknownCallTag { tag }))?
                };
            }
        }
        2 => {
            let mut acc: u64 = 0;
            for e in events.iter_mut() {
                acc += get_u64_slice(seg)?;
                e.start = Micros(acc);
            }
        }
        3 => {
            for e in events.iter_mut() {
                e.dur = Micros(get_u64_slice(seg)?);
            }
        }
        4 => {
            let limit = strings.len() as u64;
            for e in events.iter_mut() {
                let raw = get_u64_slice(seg)?;
                if raw >= limit {
                    return Err(CorruptKind::SymbolOutOfRange {
                        symbol: raw,
                        strings: strings.len(),
                    }
                    .into());
                }
                e.path = Symbol(raw as u32);
            }
        }
        5 => {
            for e in events.iter_mut() {
                e.size = get_opt_u64_slice(seg)?;
            }
        }
        6 => {
            for e in events.iter_mut() {
                e.requested = get_opt_u64_slice(seg)?;
            }
        }
        7 => {
            for e in events.iter_mut() {
                e.offset = get_opt_u64_slice(seg)?;
            }
        }
        8 => {
            let Some((flags, rest)) = seg.split_at_checked(events.len()) else {
                return Err(CorruptKind::Truncated { what: "ok column" }.into());
            };
            for (e, &flag) in events.iter_mut().zip(flags) {
                e.ok = flag != 0;
            }
            *seg = rest;
        }
        _ => unreachable!("NCOLS columns"),
    }
    Ok(())
}

/// Parses the directory section and validates it against the blocks
/// section: block extents must be contiguous, in order, and cover the
/// section exactly (the directory itself is CRC-protected, so any
/// mismatch here means a corrupt or inconsistent container).
pub(crate) fn decode_directory(
    mut body: Bytes,
    blocks_len: u64,
) -> Result<Vec<CaseDir>, StoreError> {
    let case_count = get_u64(&mut body)? as usize;
    if case_count > body.len() + 1 {
        return Err(CorruptKind::ImplausibleCount { what: "case" }.into());
    }
    // Each encoded case entry is ≥ 7 bytes; cap the reservation so a
    // crafted count cannot reserve memory disproportionate to the
    // directory's actual size (entries are ~10–25x their encoded form).
    let mut directory = Vec::with_capacity(case_count.min(body.len() / 7 + 1));
    let mut next_offset = 0u64;
    for _ in 0..case_count {
        let remaining = body.len();
        let entry = CaseDir::decode(&mut body, remaining)?;
        for block in &entry.blocks {
            if block.offset != next_offset {
                return Err(CorruptKind::NonContiguousBlocks.into());
            }
            next_offset += u64::from(block.len);
        }
        directory.push(entry);
    }
    if body.has_remaining() {
        return Err(CorruptKind::TrailingBytes { after: "directory" }.into());
    }
    if next_offset != blocks_len {
        return Err(CorruptKind::DirectoryCoverage {
            expected: blocks_len,
            got: next_offset,
        }
        .into());
    }
    Ok(directory)
}

pub(crate) fn decode_strings(mut body: Bytes) -> Result<Vec<String>, StoreError> {
    let count = get_u64(&mut body)? as usize;
    if count > body.len() + 1 {
        return Err(CorruptKind::ImplausibleCount { what: "string" }.into());
    }
    let mut strings = Vec::with_capacity(count);
    for _ in 0..count {
        let len = get_u64(&mut body)? as usize;
        if body.remaining() < len {
            return Err(CorruptKind::Truncated { what: "string" }.into());
        }
        let raw = body.split_to(len);
        let s = std::str::from_utf8(&raw).map_err(|_| CorruptKind::NonUtf8String)?;
        strings.push(s.to_string());
    }
    Ok(strings)
}
