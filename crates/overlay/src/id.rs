//! 128-bit node identifiers and digit arithmetic for prefix routing.

/// Number of bits per digit (`b = 4` as in the Pastry paper, base 16).
pub const DIGIT_BITS: u32 = 4;

/// Digits per 128-bit id.
pub const N_DIGITS: usize = (128 / DIGIT_BITS) as usize;

/// Radix of a digit (`2^b = 16`).
pub const RADIX: usize = 1 << DIGIT_BITS;

/// A 128-bit overlay node identifier.
///
/// Ids are compared as plain unsigned integers; prefix routing reads them as
/// 32 hexadecimal digits from the most significant end, exactly as Pastry
/// does with `b = 4`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u128);

impl NodeId {
    /// Derives an id by hashing an arbitrary `u64` seed (two SplitMix64
    /// rounds for the two halves). Deterministic — the same logical node
    /// always receives the same id.
    #[must_use]
    pub fn from_seed(seed: u64) -> Self {
        let hi = splitmix64(seed ^ 0xA5A5_A5A5_A5A5_A5A5);
        let lo = splitmix64(seed.wrapping_add(0x1234_5678_9ABC_DEF0));
        NodeId((u128::from(hi) << 64) | u128::from(lo))
    }

    /// The `i`-th digit (0 = most significant).
    #[must_use]
    pub fn digit(self, i: usize) -> usize {
        debug_assert!(i < N_DIGITS);
        let shift = 128 - DIGIT_BITS as usize * (i + 1);
        ((self.0 >> shift) as usize) & (RADIX - 1)
    }

    /// Length of the common digit prefix with `other` (the Pastry `shl`
    /// function). Equal ids share all [`N_DIGITS`] digits.
    #[must_use]
    pub fn shared_prefix_len(self, other: NodeId) -> usize {
        if self.0 == other.0 {
            return N_DIGITS;
        }
        let diff = self.0 ^ other.0;
        (diff.leading_zeros() / DIGIT_BITS) as usize
    }

    /// Absolute numeric distance `|a − b|` (Pastry's closeness measure).
    #[must_use]
    pub fn distance(self, other: NodeId) -> u128 {
        self.0.abs_diff(other.0)
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Abbreviate for logs: first 8 digits.
        write!(f, "{:08x}…", (self.0 >> 96) as u32)
    }
}

/// SplitMix64 mixer (same algorithm as `dpr-graph`; duplicated to keep the
/// overlay crate dependency-free).
#[must_use]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Derives a 128-bit DHT key from a `u64` (e.g. a page-group id). Same
/// construction as [`NodeId::from_seed`] but domain-separated so groups and
/// nodes never collide structurally.
#[must_use]
pub fn key_from_u64(x: u64) -> u128 {
    let hi = splitmix64(x ^ 0x0FF1_CE00_0FF1_CE00);
    let lo = splitmix64(x.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ 0xDEAD_BEEF_CAFE_F00D);
    (u128::from(hi) << 64) | u128::from(lo)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digit_extraction() {
        let id = NodeId(0x0123_4567_89AB_CDEF_0000_0000_0000_0000);
        assert_eq!(id.digit(0), 0x0);
        assert_eq!(id.digit(1), 0x1);
        assert_eq!(id.digit(7), 0x7);
        assert_eq!(id.digit(15), 0xF);
        assert_eq!(id.digit(16), 0x0);
        assert_eq!(id.digit(31), 0x0);
    }

    #[test]
    fn shared_prefix() {
        let a = NodeId(0xAAAA_0000_0000_0000_0000_0000_0000_0000);
        let b = NodeId(0xAAAB_0000_0000_0000_0000_0000_0000_0000);
        assert_eq!(a.shared_prefix_len(b), 3);
        assert_eq!(a.shared_prefix_len(a), N_DIGITS);
        let c = NodeId(0x0AAA_0000_0000_0000_0000_0000_0000_0000);
        assert_eq!(a.shared_prefix_len(c), 0);
    }

    #[test]
    fn prefix_consistency_with_digits() {
        let a = NodeId::from_seed(1);
        let b = NodeId::from_seed(2);
        let l = a.shared_prefix_len(b);
        for i in 0..l {
            assert_eq!(a.digit(i), b.digit(i));
        }
        if l < N_DIGITS {
            assert_ne!(a.digit(l), b.digit(l));
        }
    }

    #[test]
    fn distance_symmetry() {
        let a = NodeId(100);
        let b = NodeId(250);
        assert_eq!(a.distance(b), 150);
        assert_eq!(b.distance(a), 150);
        assert_eq!(a.distance(a), 0);
    }

    #[test]
    fn seeded_ids_unique() {
        let mut seen = std::collections::HashSet::new();
        for s in 0..100_000u64 {
            assert!(seen.insert(NodeId::from_seed(s)), "collision at seed {s}");
        }
    }

    #[test]
    fn keys_well_spread() {
        // First digit of derived keys should hit all 16 values over a small
        // sample — a weak but fast uniformity check.
        let mut seen = [false; RADIX];
        for x in 0..256u64 {
            seen[NodeId(key_from_u64(x)).digit(0)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
