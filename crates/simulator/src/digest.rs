//! Deterministic digests and seed expansion shared by the tests, the
//! benches and the fleet layer.
//!
//! Every reproducibility check in this workspace pins behaviour to a
//! 64-bit FNV-1a digest over the decision stream (scheduling choices,
//! routing decisions, per-request completions). Keeping the algorithm in
//! one place guarantees the single-cluster and fleet digests pinned by the
//! determinism tests use byte-for-byte the same hash.

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x100_0000_01b3;

/// Incremental FNV-1a over 64-bit words (little-endian byte order).
pub fn fnv1a(hash: u64, word: u64) -> u64 {
    let mut h = hash;
    for byte in word.to_le_bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Running FNV-1a digest with the conventional seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Digest {
    /// Starts a digest at the FNV offset basis.
    pub fn new() -> Self {
        Digest(FNV_OFFSET)
    }

    /// Folds one word into the digest.
    pub fn push(&mut self, word: u64) {
        self.0 = fnv1a(self.0, word);
    }

    /// The current digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

impl Default for Digest {
    fn default() -> Self {
        Digest::new()
    }
}

/// Minimal deterministic PRNG (splitmix64) for workload shaping and
/// routing tie-breaks — harnesses must not depend on `rand`'s stability
/// guarantees.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    /// The next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_matches_raw_fold() {
        let mut d = Digest::new();
        let mut raw = FNV_OFFSET;
        for w in [0u64, 1, 42, u64::MAX, 0xdead_beef] {
            d.push(w);
            raw = fnv1a(raw, w);
        }
        assert_eq!(d.value(), raw);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = Digest::new();
        a.push(1);
        a.push(2);
        let mut b = Digest::new();
        b.push(2);
        b.push(1);
        assert_ne!(a.value(), b.value());
    }

    #[test]
    fn fnv_empty_input_is_the_offset_basis() {
        assert_eq!(Digest::new().value(), FNV_OFFSET);
        // One-word golden vector: 8 zero bytes folded into the basis.
        let mut expect = FNV_OFFSET;
        for _ in 0..8 {
            expect = expect.wrapping_mul(FNV_PRIME);
        }
        assert_eq!(fnv1a(FNV_OFFSET, 0), expect);
    }

    #[test]
    fn splitmix_is_deterministic_per_seed() {
        let mut a = SplitMix(0xd17);
        let mut b = SplitMix(0xd17);
        let mut c = SplitMix(0xd18);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }
}
