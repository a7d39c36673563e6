//! Stable, dependency-free content hashing for cache keys.
//!
//! The daemon's content-addressed job cache needs a hash that is stable
//! across processes, platforms, and releases (unlike `DefaultHasher`,
//! whose output is explicitly unspecified). FNV-1a is tiny, has no
//! dependencies, and is plenty for cache addressing — collisions are a
//! correctness non-event here because cached payloads carry their own
//! checksums and the full key is verified on load.

/// FNV-1a 64-bit over `bytes`, starting from `seed` instead of the
/// standard offset basis. Different seeds give independent-enough streams
/// to build a wider key from one pass-per-seed.
#[must_use]
pub fn fnv1a_64(bytes: &[u8], seed: u64) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// The standard FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// A 128-bit content key as 32 lowercase hex characters: two FNV-1a
/// passes from unrelated seeds. Stable across processes and platforms —
/// safe to use as an on-disk cache filename.
#[must_use]
pub fn content_key(bytes: &[u8]) -> String {
    // Two `fnv1a_64` passes, run in one loop: the chains are independent,
    // so the CPU overlaps their multiplies (the area store hashes ~10 MiB
    // per write). Second seed: the offset basis scrambled by a SplitMix64
    // round, so the two passes disagree on everything but the empty
    // string length.
    let mut a = FNV_OFFSET;
    let mut b = 0x9E37_79B9_7F4A_7C15 ^ FNV_OFFSET.rotate_left(31);
    for &byte in bytes {
        a = (a ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        b = (b ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
    }
    format!("{a:016x}{b:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_key_is_stable_and_hex() {
        let k = content_key(b"hsyn job");
        assert_eq!(k.len(), 32);
        assert!(k.bytes().all(|b| b.is_ascii_hexdigit()));
        assert_eq!(k, content_key(b"hsyn job"), "same bytes, same key");
        assert_ne!(k, content_key(b"hsyn job2"));
        assert_ne!(k, content_key(b""));
    }

    #[test]
    fn content_key_is_two_fnv_passes() {
        for bytes in [&b""[..], b"a", b"hsyn job", &[0xFF; 300]] {
            let a = fnv1a_64(bytes, FNV_OFFSET);
            let b = fnv1a_64(bytes, 0x9E37_79B9_7F4A_7C15 ^ FNV_OFFSET.rotate_left(31));
            assert_eq!(content_key(bytes), format!("{a:016x}{b:016x}"));
        }
    }

    #[test]
    fn fnv_matches_known_vector() {
        // FNV-1a 64 of "a" from the standard offset basis.
        assert_eq!(fnv1a_64(b"a", FNV_OFFSET), 0xAF63_DC4C_8601_EC8C);
    }
}
