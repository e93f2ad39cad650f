//! The legacy STLOG **v1** layout: flat whole-case columns, varint
//! section framing, magic `STLOG1`, no block directory.
//!
//! v1 has nothing to seek through and no zone maps to prune with, so it
//! has no reader handle: [`decode_v1`] goes straight from the image to
//! an [`EventLog`], and sessions treat the result like any other
//! materialized log (full decode, then a scan). [`to_bytes_v1`] keeps
//! the frozen encoder so the pinned fixture and the compatibility tests
//! can cross-check the decoder byte-for-byte. The layout: magic
//! `STLOG1`, then a strings section and a cases section, each framed
//! as varint length + body + CRC-32; a case is its cid, host, rid and
//! event count followed by the nine columns of a v2 block body.

use std::path::Path;

use bytes::{Buf, Bytes};
use st_model::{Case, CaseMeta, EventLog, Interner, Symbol};

use crate::crc::crc32;
use crate::decode::{decode_column, decode_strings, symbol_in, BLANK_EVENT};
use crate::error::{CorruptKind, StoreError};
use crate::format::NCOLS;
use crate::varint::{get_u64, put_u64};
use crate::writer::{encode_columns, encode_strings, ensure_sorted, EST_BYTES_PER_EVENT};

/// v1 container magic.
pub(crate) const MAGIC_V1: &[u8; 8] = b"STLOG1\0\0";
/// The legacy flat format version.
pub(crate) const VERSION_V1: u32 = 1;

/// Serializes `log` in the **legacy v1** flat layout (whole-case
/// columns, no block directory). New stores should use
/// [`crate::to_bytes`]; this encoder is retained so the pinned v1
/// fixtures and compatibility property tests can cross-check the v1
/// decoder byte-for-byte.
pub fn to_bytes_v1(log: &EventLog) -> Result<Bytes, StoreError> {
    for case in log.cases() {
        ensure_sorted(case.meta, &case.events, log.interner())?;
    }

    let snap = log.snapshot();
    let strings_est: usize = (0..snap.len())
        .map(|idx| snap.resolve(Symbol(idx as u32)).len() + 5)
        .sum();
    let cases_est = 16 + log.case_count() * 16 + log.total_events() * EST_BYTES_PER_EVENT;

    let mut out = Vec::with_capacity(24 + strings_est + cases_est);
    out.extend_from_slice(MAGIC_V1);
    out.extend_from_slice(&VERSION_V1.to_le_bytes());

    // One scratch buffer serves both sections (v1 frames sections with a
    // varint length, which cannot be patched in place), pre-sized for
    // the larger of the two so the hot loop never reallocates.
    let mut scratch: Vec<u8> = Vec::with_capacity(strings_est.max(cases_est));

    encode_strings(&mut scratch, &snap);
    put_v1_section(&mut out, &scratch);
    scratch.clear();

    // Cases section: one columnar table per case, its columns laid
    // out exactly like a v2 block body (without the CRC trailer).
    put_u64(&mut scratch, log.case_count() as u64);
    for case in log.cases() {
        put_u64(&mut scratch, u64::from(case.meta.cid.0));
        put_u64(&mut scratch, u64::from(case.meta.host.0));
        put_u64(&mut scratch, u64::from(case.meta.rid));
        put_u64(&mut scratch, case.events.len() as u64);
        encode_columns(&mut scratch, &case.events);
    }
    put_v1_section(&mut out, &scratch);

    Ok(Bytes::from(out))
}

/// Appends a v1 length-prefixed, CRC-trailed section.
fn put_v1_section(out: &mut Vec<u8>, body: &[u8]) {
    put_u64(out, body.len() as u64);
    out.extend_from_slice(body);
    out.extend_from_slice(&crc32(body).to_le_bytes());
}

/// Reads and decodes the v1 container at `path` (see [`decode_v1`]).
pub fn read_v1(path: &Path) -> Result<EventLog, StoreError> {
    let _span = st_obs::span!("store.read.v1");
    let data = std::fs::read(path).map_err(|source| StoreError::Io {
        path: path.to_path_buf(),
        source,
    })?;
    st_obs::add("bytes_read", data.len() as u64);
    decode_v1(Bytes::from(data))
}

/// Decodes a whole v1 image into an [`EventLog`], validating magic,
/// version and both section CRCs. Symbols are re-interned in insertion
/// order, reproducing the original ids exactly.
///
/// Only v1 images decode here: any other `STLOG` header fails with
/// [`StoreError::UnsupportedVersion`] (v2 containers open through
/// [`crate::SegmentReader`]), and anything else with
/// [`StoreError::BadMagic`].
pub fn decode_v1(mut data: Bytes) -> Result<EventLog, StoreError> {
    if data.len() < MAGIC_V1.len() + 4 {
        return Err(StoreError::BadMagic);
    }
    let magic: [u8; 8] = data[..8].try_into().expect("length checked");
    data.advance(8);
    let version = data.get_u32_le();
    match (&magic, version) {
        (MAGIC_V1, VERSION_V1) => {}
        _ if magic.starts_with(b"STLOG") => return Err(StoreError::UnsupportedVersion(version)),
        _ => return Err(StoreError::BadMagic),
    }
    let strings = decode_strings(get_v1_section(&mut data, "strings")?)?;
    let mut buf = get_v1_section(&mut data, "cases")?;

    let interner = Interner::new_shared();
    for s in &strings {
        interner.intern(s);
    }
    let mut log = EventLog::new(interner);
    let case_count = get_u64(&mut buf)? as usize;
    if case_count > buf.len() + 1 {
        return Err(CorruptKind::ImplausibleCount { what: "case" }.into());
    }
    for _ in 0..case_count {
        let cid = symbol_in(&strings, get_u64(&mut buf)?)?;
        let host = symbol_in(&strings, get_u64(&mut buf)?)?;
        let rid = u32::try_from(get_u64(&mut buf)?).map_err(|_| CorruptKind::ValueOverflow {
            what: "rid",
            ty: "u32",
        })?;
        let n = get_u64(&mut buf)? as usize;
        if n > buf.len() {
            return Err(CorruptKind::ImplausibleCount { what: "event" }.into());
        }
        // The columns run back to back with no length prefixes, so each
        // one is decoded from where the previous one ended.
        let mut events = vec![BLANK_EVENT; n];
        let mut columns: &[u8] = &buf;
        for col in 0..NCOLS {
            decode_column(col, &mut columns, &mut events, &strings)?;
        }
        buf.advance(buf.len() - columns.len());
        if !events.is_empty() {
            log.push_case(Case {
                meta: CaseMeta { cid, host, rid },
                events,
            });
        }
    }
    if buf.has_remaining() {
        return Err(CorruptKind::TrailingBytes { after: "cases" }.into());
    }
    Ok(log)
}

fn get_v1_section(data: &mut Bytes, section: &'static str) -> Result<Bytes, StoreError> {
    let len = get_u64(data)? as usize;
    if len
        .checked_add(4)
        .is_none_or(|need| data.remaining() < need)
    {
        return Err(CorruptKind::TruncatedSection { section }.into());
    }
    let body = data.split_to(len);
    let stored_crc = data.get_u32_le();
    if crc32(&body) != stored_crc {
        return Err(StoreError::ChecksumMismatch { section });
    }
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::tests::sample_log;
    use crate::writer::to_bytes;

    #[test]
    fn empty_and_unsorted_logs() {
        let empty = EventLog::with_new_interner();
        assert!(decode_v1(to_bytes_v1(&empty).unwrap()).unwrap().is_empty());
        let mut log = sample_log();
        log.cases_mut()[0].events.reverse();
        assert!(matches!(to_bytes_v1(&log), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn non_v1_headers_are_rejected() {
        let err = decode_v1(Bytes::from_static(b"NOTSTLOG....")).unwrap_err();
        assert!(matches!(err, StoreError::BadMagic), "{err:?}");
        let err = decode_v1(to_bytes(&sample_log()).unwrap()).unwrap_err();
        assert!(matches!(err, StoreError::UnsupportedVersion(2)), "{err:?}");
    }

    #[test]
    fn huge_section_length_is_corrupt_not_panic() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC_V1);
        bytes.extend_from_slice(&VERSION_V1.to_le_bytes());
        put_u64(&mut bytes, u64::MAX - 3);
        bytes.extend_from_slice(&[0u8; 16]);
        let err = decode_v1(Bytes::from(bytes)).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)), "{err:?}");
    }
}
