//! LEB128 variable-length integers.
//!
//! Event attributes are small most of the time (delta-encoded timestamps,
//! dense symbols, sub-megabyte sizes); LEB128 keeps the container compact
//! without a compression dependency.

use bytes::{Buf, BufMut};

use crate::error::{CorruptKind, StoreError};

/// Appends `value` as LEB128.
pub fn put_u64<B: BufMut>(buf: &mut B, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

/// Reads a LEB128 value, failing on truncation or overlong encodings.
pub fn get_u64<B: Buf>(buf: &mut B) -> Result<u64, StoreError> {
    let mut value: u64 = 0;
    let mut shift = 0u32;
    loop {
        if !buf.has_remaining() {
            return Err(CorruptKind::Truncated { what: "varint" }.into());
        }
        let byte = buf.get_u8();
        if shift == 63 && byte > 1 {
            return Err(CorruptKind::VarintOverflow.into());
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
        if shift > 63 {
            return Err(CorruptKind::VarintTooLong.into());
        }
    }
}

/// Reads a LEB128 value from a byte slice, advancing it past the
/// encoding. Semantically identical to [`get_u64`] (same truncation /
/// overflow / overlong errors) but specialized for the block-decode hot
/// loop: the one-byte case — the overwhelming majority for
/// delta-encoded timestamps, dense symbols and small durations — is a
/// single compare-and-advance with no loop state.
#[inline]
pub fn get_u64_slice(seg: &mut &[u8]) -> Result<u64, StoreError> {
    if let Some((&first, rest)) = seg.split_first() {
        if first < 0x80 {
            *seg = rest;
            return Ok(u64::from(first));
        }
    }
    get_u64_slice_multi(seg)
}

/// Multi-byte (and empty-input) tail of [`get_u64_slice`]; kept out of
/// line so the fast path stays small enough to inline everywhere.
fn get_u64_slice_multi(seg: &mut &[u8]) -> Result<u64, StoreError> {
    let mut value: u64 = 0;
    let mut shift = 0u32;
    let mut used = 0usize;
    loop {
        let Some(&byte) = seg.get(used) else {
            return Err(CorruptKind::Truncated { what: "varint" }.into());
        };
        used += 1;
        if shift == 63 && byte > 1 {
            return Err(CorruptKind::VarintOverflow.into());
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            *seg = &seg[used..];
            return Ok(value);
        }
        shift += 7;
        if shift > 63 {
            return Err(CorruptKind::VarintTooLong.into());
        }
    }
}

/// Inverse of [`put_opt_u64`], built on [`get_u64_slice`].
#[inline]
pub fn get_opt_u64_slice(seg: &mut &[u8]) -> Result<Option<u64>, StoreError> {
    let raw = get_u64_slice(seg)?;
    Ok(if raw == 0 { None } else { Some(raw - 1) })
}

/// Encodes an `Option<u64>` with a +1 shift: `None` ↦ 0, `Some(v)` ↦ v+1.
pub fn put_opt_u64<B: BufMut>(buf: &mut B, value: Option<u64>) {
    match value {
        None => put_u64(buf, 0),
        Some(v) => put_u64(buf, v.checked_add(1).expect("option-shift overflow")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    fn roundtrip(v: u64) -> u64 {
        let mut buf = BytesMut::new();
        put_u64(&mut buf, v);
        let mut slice = buf.freeze();
        get_u64(&mut slice).unwrap()
    }

    #[test]
    fn roundtrips_boundaries() {
        for v in [0, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            assert_eq!(roundtrip(v), v);
        }
    }

    #[test]
    fn single_byte_for_small_values() {
        let mut buf = BytesMut::new();
        put_u64(&mut buf, 127);
        assert_eq!(buf.len(), 1);
        put_u64(&mut buf, 128);
        assert_eq!(buf.len(), 3);
    }

    #[test]
    fn truncated_is_error() {
        let mut buf = BytesMut::new();
        put_u64(&mut buf, u64::MAX);
        let bytes = buf.freeze();
        let mut partial = bytes.slice(0..bytes.len() - 1);
        assert!(get_u64(&mut partial).is_err());
        let mut empty = bytes.slice(0..0);
        assert!(get_u64(&mut empty).is_err());
    }

    #[test]
    fn overlong_is_error() {
        // Eleven continuation bytes can never be a valid u64.
        let raw = [
            0x80u8, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01,
        ];
        let mut buf = &raw[..];
        assert!(get_u64(&mut buf).is_err());
    }

    #[test]
    fn option_shift() {
        let mut buf = BytesMut::new();
        put_opt_u64(&mut buf, None);
        put_opt_u64(&mut buf, Some(0));
        put_opt_u64(&mut buf, Some(u64::MAX - 1));
        let mut bytes = &buf[..];
        assert_eq!(get_opt_u64_slice(&mut bytes).unwrap(), None);
        assert_eq!(get_opt_u64_slice(&mut bytes).unwrap(), Some(0));
        assert_eq!(get_opt_u64_slice(&mut bytes).unwrap(), Some(u64::MAX - 1));
    }

    #[test]
    #[should_panic(expected = "option-shift overflow")]
    fn option_shift_rejects_max() {
        let mut buf = BytesMut::new();
        put_opt_u64(&mut buf, Some(u64::MAX));
    }

    #[test]
    fn slice_decoder_matches_buf_decoder() {
        for v in [
            0,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX,
        ] {
            let mut buf = BytesMut::new();
            put_u64(&mut buf, v);
            let encoded = buf.freeze();
            let mut slice: &[u8] = &encoded;
            assert_eq!(get_u64_slice(&mut slice).unwrap(), v);
            assert!(slice.is_empty(), "consumed exactly the encoding of {v}");
        }
        let mut empty: &[u8] = &[];
        assert!(get_u64_slice(&mut empty).is_err());
        let mut truncated: &[u8] = &[0x80];
        assert!(get_u64_slice(&mut truncated).is_err());
        let overlong = [
            0x80u8, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01,
        ];
        let mut seg: &[u8] = &overlong;
        assert!(get_u64_slice(&mut seg).is_err());
        // Overflow: ten bytes whose top byte exceeds the u64 range.
        let overflow = [0xffu8, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02];
        let mut seg: &[u8] = &overflow;
        assert!(get_u64_slice(&mut seg).is_err());
    }

    #[test]
    fn slice_option_shift() {
        let mut buf = BytesMut::new();
        put_opt_u64(&mut buf, None);
        put_opt_u64(&mut buf, Some(0));
        put_opt_u64(&mut buf, Some(500));
        let encoded = buf.freeze();
        let mut slice: &[u8] = &encoded;
        assert_eq!(get_opt_u64_slice(&mut slice).unwrap(), None);
        assert_eq!(get_opt_u64_slice(&mut slice).unwrap(), Some(0));
        assert_eq!(get_opt_u64_slice(&mut slice).unwrap(), Some(500));
        assert!(slice.is_empty());
    }
}
