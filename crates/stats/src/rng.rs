//! Deterministic, splittable random-number plumbing.
//!
//! Every experiment in the paper is defined by a tuple of discrete choices —
//! array size, number of ICL examples, dataset replica, sampling seed. To
//! make every table and figure regenerate bit-identically, all randomness in
//! the workspace flows through [`ChaCha8Rng`] streams derived from a root
//! seed and a structured [`SeedDomain`] label via a stable 64-bit hash
//! (FNV-1a). Two different domains never collide in practice, and the same
//! domain always yields the same stream — independent of rand's unstable
//! `StdRng` internals and of platform endianness.

use lmpeel_recover::{fnv1a64_extend, FNV1A64_OFFSET};
use rand_chacha::rand_core::SeedableRng;
pub use rand_chacha::ChaCha8Rng;

/// Structured label identifying an independent randomness consumer.
///
/// The variants cover the experiment axes of the paper; `Custom` is an
/// escape hatch for tests and tools.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SeedDomain {
    /// Dataset-level measurement jitter for a given array-size tag.
    DatasetNoise(u64),
    /// Selection of in-context examples: (replica index, icl count).
    IclSelection(u64, u64),
    /// Query-configuration selection for a replica.
    QuerySelection(u64),
    /// LLM sampling for a given experiment seed index.
    Sampling(u64),
    /// GBDT training internals (subsampling, column sampling).
    GbdtTraining(u64),
    /// Randomized hyperparameter search draw.
    HyperSearch(u64),
    /// Train/test splitting.
    Split(u64),
    /// Anything else; pick a unique tag.
    Custom(u64),
}

impl SeedDomain {
    fn tag(&self) -> (u64, u64, u64) {
        match *self {
            SeedDomain::DatasetNoise(a) => (1, a, 0),
            SeedDomain::IclSelection(a, b) => (2, a, b),
            SeedDomain::QuerySelection(a) => (3, a, 0),
            SeedDomain::Sampling(a) => (4, a, 0),
            SeedDomain::GbdtTraining(a) => (5, a, 0),
            SeedDomain::HyperSearch(a) => (6, a, 0),
            SeedDomain::Split(a) => (7, a, 0),
            SeedDomain::Custom(a) => (8, a, 0),
        }
    }
}

/// Derive a child seed from a root seed and a domain label.
///
/// Stable across releases: the mapping is pure FNV-1a over the little-endian
/// bytes of `(root, discriminant, a, b)`.
fn derive_seed(root: u64, domain: SeedDomain) -> u64 {
    let (d, a, b) = domain.tag();
    [root, d, a, b]
        .iter()
        .fold(FNV1A64_OFFSET, |h, w| fnv1a64_extend(h, &w.to_le_bytes()))
}

/// A ChaCha8 RNG for the given root seed and domain.
pub fn seeded_rng(root: u64, domain: SeedDomain) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(derive_seed(root, domain))
}

/// Map a 64-bit hash to a uniform f64 in `[0, 1)`.
pub fn hash_to_unit(h: u64) -> f64 {
    // Use the top 53 bits for a dyadic uniform in [0,1).
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmpeel_recover::fnv1a64;
    use rand::RngExt;

    #[test]
    fn derivation_is_deterministic() {
        let a = derive_seed(42, SeedDomain::Sampling(3));
        let b = derive_seed(42, SeedDomain::Sampling(3));
        assert_eq!(a, b);
    }

    #[test]
    fn domains_do_not_collide() {
        use SeedDomain::*;
        let domains = [
            DatasetNoise(0),
            IclSelection(0, 0),
            IclSelection(0, 1),
            IclSelection(1, 0),
            QuerySelection(0),
            Sampling(0),
            GbdtTraining(0),
            HyperSearch(0),
            Split(0),
            Custom(0),
        ];
        let mut seen = std::collections::HashSet::new();
        for d in domains {
            assert!(seen.insert(derive_seed(7, d)), "collision for {d:?}");
        }
    }

    #[test]
    fn root_seed_changes_stream() {
        assert_ne!(
            derive_seed(1, SeedDomain::Sampling(0)),
            derive_seed(2, SeedDomain::Sampling(0))
        );
    }

    #[test]
    fn rng_streams_are_reproducible() {
        let mut r1 = seeded_rng(9, SeedDomain::Split(4));
        let mut r2 = seeded_rng(9, SeedDomain::Split(4));
        for _ in 0..16 {
            assert_eq!(r1.random::<u64>(), r2.random::<u64>());
        }
    }

    #[test]
    fn known_answer_guard() {
        // Guards against accidental changes to the hash; update deliberately.
        // FNV-1a over the LE bytes of the words (0, 8, 0, 0).
        assert_eq!(derive_seed(0, SeedDomain::Custom(0)), 0x41bf_5a56_38da_48ad);
    }

    #[test]
    fn hash_to_unit_in_range() {
        for i in 0..1000u64 {
            let u = hash_to_unit(fnv1a64(&i.to_le_bytes()));
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn hash_to_unit_looks_uniform() {
        let n = 10_000u64;
        let mean: f64 = (0..n)
            .map(|i| hash_to_unit(fnv1a64(&i.to_le_bytes())))
            .sum::<f64>()
            / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} too far from 0.5");
    }
}
