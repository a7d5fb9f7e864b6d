//! Helpers shared by the integration-test crates (`mod common;`).

/// FNV-1a over a stream of 64-bit words, each hashed as its eight
/// little-endian bytes.
pub fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}
