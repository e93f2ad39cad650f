//! CRC-32 laws: the sliced implementation equals the byte-at-a-time
//! reference on arbitrary input and under any split into `update` calls.

use proptest::prelude::*;
use st_inspector::store::crc::{crc32, Crc32};

/// The classic one-table, byte-at-a-time CRC-32 (IEEE 802.3), with the
/// table bits computed inline.
fn reference(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in data {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

fn bytes_strategy() -> impl Strategy<Value = Vec<u8>> {
    // Lengths past several 16-byte strides, so both the sliced body and
    // the byte-wise tail run.
    prop::collection::vec(0u8..=255, 0..200)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn crc32_equals_bytewise_reference(data in bytes_strategy()) {
        prop_assert_eq!(crc32(&data), reference(&data));
    }

    /// Feeding the input in pieces — including empty ones — reaches the
    /// one-shot value, and reading the value mid-stream disturbs nothing.
    #[test]
    fn update_is_split_invariant(
        data in bytes_strategy(),
        cuts in prop::collection::vec(0usize..200, 0..8),
    ) {
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(data.len())).collect();
        cuts.sort_unstable();
        let mut crc = Crc32::new();
        let mut from = 0;
        for cut in cuts.into_iter().chain([data.len()]) {
            crc.update(&data[from..cut]);
            let _ = crc.value();
            from = cut;
        }
        prop_assert_eq!(crc.value(), reference(&data));
    }
}
