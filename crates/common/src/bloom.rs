//! Minimal deterministic bloom filter guarding the closed epochs of a
//! store partition.
//!
//! A store closes the epochs that lag the stream clock and keeps, per
//! partition and indexed attribute, one filter over the index keys of all
//! of them. A probe against a key no closed epoch holds would otherwise
//! pay one index lookup per epoch — for low-match-rate workloads over long
//! windows that is most probes and most epochs. The filter answers those
//! in `O(1)` for every closed epoch at once.
//!
//! The filter is keyed on `fx_hash` values, uses a power-of-two bit array
//! sized at roughly eight bits per distinct key, and derives its two probe
//! positions from the one 64-bit hash (low and mixed-high halves).
//! Everything is arithmetic on the hash — no per-process seed, no
//! randomness — so identical insert sequences produce bit-identical
//! filters in any process.

/// Bits per distinct key; ~8 gives a false-positive rate of about 2% with
/// two probe functions, plenty for a guard whose misses merely walk the
/// epochs (correctness never depends on the filter).
const BITS_PER_KEY: usize = 8;
/// Floor on the bit-array size so tiny key sets still get a real filter.
const MIN_BITS: usize = 64;

/// A fixed-size, insert-only bloom filter over 64-bit hashes.
///
/// No false negatives: a hash that was inserted always reports present.
/// False positives are possible and expected — callers must verify hits
/// against the backing data.
#[derive(Debug, Clone)]
pub struct BloomFilter {
    /// Bit array packed into words; length is a power of two.
    words: Box<[u64]>,
    /// `bit_count - 1`, valid because `bit_count` is a power of two.
    mask: u64,
}

impl BloomFilter {
    /// Creates a filter sized for `expected_keys` distinct hashes.
    pub fn with_capacity(expected_keys: usize) -> BloomFilter {
        let bits = (expected_keys * BITS_PER_KEY)
            .max(MIN_BITS)
            .next_power_of_two();
        BloomFilter {
            words: vec![0u64; bits / 64].into_boxed_slice(),
            mask: (bits - 1) as u64,
        }
    }

    /// The two probe positions for `hash`: the low bits directly, and the
    /// high half remixed so the two indexes are decorrelated even when the
    /// mask is narrow. Purely a function of `hash` — deterministic across
    /// processes.
    #[inline]
    fn positions(&self, hash: u64) -> (u64, u64) {
        let first = hash & self.mask;
        // Multiply-shift mix of the high half (SplitMix64 finalizer
        // constant) so filters narrower than 32 bits still see
        // independent second positions.
        let second = (hash >> 32).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32 & self.mask;
        (first, second)
    }

    /// Marks `hash` present.
    pub fn insert_hash(&mut self, hash: u64) {
        let (a, b) = self.positions(hash);
        self.words[(a / 64) as usize] |= 1 << (a % 64);
        self.words[(b / 64) as usize] |= 1 << (b % 64);
    }

    /// Returns false if `hash` was definitely never inserted; true means
    /// "possibly present" and the caller must check the backing data.
    #[inline]
    pub fn contains_hash(&self, hash: u64) -> bool {
        let (a, b) = self.positions(hash);
        self.words[(a / 64) as usize] & (1 << (a % 64)) != 0
            && self.words[(b / 64) as usize] & (1 << (b % 64)) != 0
    }

    /// Memory footprint of the bit array in bytes.
    pub fn bytes(&self) -> usize {
        self.words.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fx_hash;

    /// The filter may err only toward false positives: every inserted hash
    /// must report present, and absent keys must be *mostly* rejected.
    #[test]
    fn errors_are_false_positives_only() {
        let mut bloom = BloomFilter::with_capacity(512);
        let inserted: Vec<u64> = (0..512i64).map(|i| fx_hash(&(i * 7 + 1))).collect();
        for &h in &inserted {
            bloom.insert_hash(h);
        }
        // No false negatives, ever.
        for &h in &inserted {
            assert!(bloom.contains_hash(h), "false negative for {h:#x}");
        }
        // Absent keys: false positives allowed but must stay rare. With
        // ~8 bits/key and k=2 the theoretical rate is ~2%; assert a loose
        // 10% bound so the test is robust, not flaky.
        let absent = (10_000..20_000i64)
            .map(|i| fx_hash(&i))
            .filter(|h| !inserted.contains(h));
        let (mut total, mut fp) = (0u32, 0u32);
        for h in absent {
            total += 1;
            if bloom.contains_hash(h) {
                fp += 1;
            }
        }
        assert!(
            fp * 10 < total,
            "false-positive rate too high: {fp}/{total}"
        );
    }

    /// Identical insert sequences produce identical filters: no
    /// per-process seed enters them.
    #[test]
    fn deterministic_across_builds() {
        let build = || {
            let mut b = BloomFilter::with_capacity(64);
            for i in 0..64i64 {
                b.insert_hash(fx_hash(&i));
            }
            b
        };
        assert_eq!(build().words, build().words);
    }

    #[test]
    fn tiny_filters_round_up_to_min_bits() {
        let bloom = BloomFilter::with_capacity(0);
        assert!(bloom.bytes() * 8 >= MIN_BITS);
    }
}
