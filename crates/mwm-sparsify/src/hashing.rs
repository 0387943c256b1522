//! Seeded pairwise-independent hash functions.
//!
//! The streaming sparsifier ([`crate::streaming`]) decides each edge's
//! geometric subsampling level by hashing its id, so every decision is a pure
//! function of a `u64` seed: two runs over the same stream, or two machines
//! over disjoint parts of it, subsample identically.

/// A 2-universal style hash from `u64` keys to `u64` values, implemented with
/// the multiply-shift family plus a splitmix finalizer. Deterministic in the
/// seed, cheap, and good enough for the sub-sampling decisions made by the
/// streaming sparsifier (the paper only needs pairwise independence / limited
/// randomness).
#[derive(Clone, Copy, Debug)]
pub struct PairwiseHash {
    a: u64,
    b: u64,
}

/// SplitMix64 step; used for seed expansion and as a finalizer.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl PairwiseHash {
    /// Derives a hash function from a seed and a stream index (so that many
    /// independent functions can be drawn from one master seed).
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut s = seed ^ stream.wrapping_mul(0xA24BAED4963EE407);
        let mut a = splitmix64(&mut s) | 1; // odd multiplier
        if a == 1 {
            a = 0x9E3779B97F4A7C15 | 1;
        }
        let b = splitmix64(&mut s);
        PairwiseHash { a, b }
    }

    /// Hashes a key to a full 64-bit value.
    #[inline]
    pub fn hash(&self, key: u64) -> u64 {
        let mut z = key.wrapping_mul(self.a).wrapping_add(self.b);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Hashes a key to a uniform float in `[0, 1)`.
    #[inline]
    pub fn hash_unit(&self, key: u64) -> f64 {
        // 53 bits of mantissa.
        (self.hash(key) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// The sub-sampling *level* of a key: the number of leading zeros of its
    /// hash, i.e. key survives level `j` with probability `2^{-j}`.
    #[inline]
    pub fn level(&self, key: u64) -> u32 {
        self.hash(key).leading_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_in_seed() {
        let h1 = PairwiseHash::new(42, 7);
        let h2 = PairwiseHash::new(42, 7);
        let h3 = PairwiseHash::new(43, 7);
        for k in 0..100u64 {
            assert_eq!(h1.hash(k), h2.hash(k));
        }
        assert!((0..100u64).any(|k| h1.hash(k) != h3.hash(k)));
    }

    #[test]
    fn unit_hash_in_range() {
        let h = PairwiseHash::new(1, 0);
        for k in 0..1000u64 {
            let u = h.hash_unit(k);
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn levels_follow_geometric_distribution() {
        let h = PairwiseHash::new(7, 3);
        let n = 100_000u64;
        let level_ge_3 = (0..n).filter(|&k| h.level(k) >= 3).count() as f64;
        let frac = level_ge_3 / n as f64;
        // Pr[level >= 3] = 1/8; allow generous slack.
        assert!((frac - 0.125).abs() < 0.02, "fraction at level>=3 was {frac}");
    }

    #[test]
    fn hash_distribution_is_roughly_uniform() {
        let h = PairwiseHash::new(99, 1);
        let buckets = 16usize;
        let mut counts = vec![0usize; buckets];
        let n = 64_000u64;
        for k in 0..n {
            counts[(h.hash(k) % buckets as u64) as usize] += 1;
        }
        let expected = n as f64 / buckets as f64;
        for &c in &counts {
            assert!((c as f64 - expected).abs() < expected * 0.1, "bucket count {c} vs {expected}");
        }
    }
}
