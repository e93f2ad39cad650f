//! CRC-32 (IEEE 802.3) for container-section integrity.
//!
//! Implemented locally to keep the offline dependency set minimal:
//! slicing-by-16, which folds 16 input bytes per step through 16
//! lookup tables built at compile time. The polynomial and the checksums
//! are those of the classic one-table, byte-at-a-time loop.

const POLY: u32 = 0xEDB8_8320;

/// `TABLES[k][b]` is the CRC state after byte `b` and `k` zero bytes
/// (`TABLES[0]` is the byte-at-a-time table).
static TABLES: [[u32; 256]; 16] = tables();

const fn tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 * 16 {
        let mut crc = (i % 256) as u32;
        let mut bit = 0;
        while bit < 8 * (i / 256 + 1) {
            // One shift-register step: xor POLY in when the low bit is set.
            crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[i / 256][i % 256] = crc;
        i += 1;
    }
    t
}

/// Computes the CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(data);
    crc.value()
}

/// Incremental CRC-32: feed bytes as they arrive, read the running
/// value at any point. The salvage reader's frame resync uses this to
/// test every candidate block end against the 4 bytes that follow it
/// in one O(n) pass instead of re-hashing each prefix. Any split of the
/// input into `update` calls gives the same value.
#[derive(Clone, Copy, Debug)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Starts a fresh checksum.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Crc32 {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feeds `data` into the checksum.
    pub fn update(&mut self, data: &[u8]) {
        let t = &TABLES;
        let mut crc = self.state;
        let mut chunks = data.chunks_exact(16);
        for c in &mut chunks {
            let a = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
            crc = t[15][(a & 0xFF) as usize]
                ^ t[14][((a >> 8) & 0xFF) as usize]
                ^ t[13][((a >> 16) & 0xFF) as usize]
                ^ t[12][(a >> 24) as usize];
            for (k, &byte) in c[4..].iter().enumerate() {
                crc ^= t[11 - k][usize::from(byte)];
            }
        }
        for &byte in chunks.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// The CRC-32 of everything fed so far (does not consume; more
    /// bytes may follow).
    pub fn value(&self) -> u32 {
        !self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let mut crc = Crc32::new();
        for chunk in data.chunks(5) {
            crc.update(chunk);
        }
        assert_eq!(crc.value(), crc32(data));
        // Reading the value mid-stream must not disturb the state.
        let mut crc = Crc32::new();
        crc.update(b"1234");
        let _ = crc.value();
        crc.update(b"56789");
        assert_eq!(crc.value(), 0xCBF4_3926);
    }

    #[test]
    fn detects_single_bit_flip() {
        let a = crc32(b"hello world");
        let b = crc32(b"hello worle");
        assert_ne!(a, b);
    }
}
