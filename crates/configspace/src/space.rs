//! Configuration spaces: cross products of parameters with a mixed-radix
//! index bijection, enumeration and sampling.

use crate::param::{Config, ParamDef, ParamValue};
use rand::seq::SliceRandom;
use rand::RngExt;

/// A configuration space: an ordered list of parameters whose cross product
/// forms the search space.
///
/// Configurations are indexable: `index ∈ [0, cardinality)` maps bijectively
/// to a [`Config`] via mixed-radix decomposition with the *last* parameter
/// varying fastest (row-major, matching nested-loop enumeration order).
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigSpace {
    params: Vec<ParamDef>,
}

impl ConfigSpace {
    /// Build a space from parameter definitions.
    ///
    /// # Panics
    /// Panics if `params` is empty or contains duplicate names.
    pub fn new(params: Vec<ParamDef>) -> Self {
        assert!(!params.is_empty(), "a configuration space needs parameters");
        for i in 0..params.len() {
            for j in (i + 1)..params.len() {
                assert_ne!(
                    params[i].name(),
                    params[j].name(),
                    "duplicate parameter name {:?}",
                    params[i].name()
                );
            }
        }
        Self { params }
    }

    /// The parameter definitions, in declaration order.
    pub fn params(&self) -> &[ParamDef] {
        &self.params
    }

    /// Number of parameters.
    pub fn num_params(&self) -> usize {
        self.params.len()
    }

    /// Position of a parameter by name.
    pub fn param_index(&self, name: &str) -> Option<usize> {
        self.params.iter().position(|p| p.name() == name)
    }

    /// Total number of distinct configurations (product of cardinalities).
    pub fn cardinality(&self) -> u64 {
        self.params.iter().map(|p| p.cardinality() as u64).product()
    }

    /// The configuration at a given flat index.
    ///
    /// # Panics
    /// Panics if `index >= cardinality()`.
    pub fn config_at(&self, index: u64) -> Config {
        assert!(
            index < self.cardinality(),
            "config index {index} out of range"
        );
        let mut rem = index;
        let mut choices = vec![0u16; self.params.len()];
        for (i, p) in self.params.iter().enumerate().rev() {
            let card = p.cardinality() as u64;
            choices[i] = (rem % card) as u16;
            rem /= card;
        }
        Config::from_choices(choices)
    }

    /// The flat index of a configuration.
    ///
    /// # Panics
    /// Panics if the configuration's arity or any choice index is
    /// incompatible with this space.
    pub fn index_of(&self, config: &Config) -> u64 {
        assert_eq!(
            config.len(),
            self.params.len(),
            "configuration arity mismatch"
        );
        let mut index = 0u64;
        for (i, p) in self.params.iter().enumerate() {
            let c = config.choice(i);
            assert!(
                c < p.cardinality(),
                "choice {c} out of range for parameter {:?}",
                p.name()
            );
            index = index * p.cardinality() as u64 + c as u64;
        }
        index
    }

    /// Typed value of parameter `i` in a configuration.
    pub fn value(&self, config: &Config, i: usize) -> ParamValue {
        self.params[i].value_of(config.choice(i))
    }

    /// Build a configuration from typed values in declaration order.
    ///
    /// # Panics
    /// Panics if arity mismatches or a value is outside its domain.
    pub fn config_from_values(&self, values: &[ParamValue]) -> Config {
        assert_eq!(values.len(), self.params.len(), "value arity mismatch");
        let choices = self
            .params
            .iter()
            .zip(values)
            .map(|(p, v)| {
                p.index_of(v).unwrap_or_else(|| {
                    panic!("value {v:?} not in domain of parameter {:?}", p.name())
                }) as u16
            })
            .collect();
        Config::from_choices(choices)
    }

    /// Numeric feature vector for surrogate models (see
    /// [`ParamDef::feature_of`]).
    pub fn featurize(&self, config: &Config) -> Vec<f64> {
        self.params
            .iter()
            .enumerate()
            .map(|(i, p)| p.feature_of(config.choice(i)))
            .collect()
    }

    /// Iterate over every configuration in index order.
    pub fn enumerate(&self) -> impl Iterator<Item = Config> + '_ {
        (0..self.cardinality()).map(move |i| self.config_at(i))
    }

    /// Sample one configuration uniformly at random.
    pub fn sample<R: RngExt + ?Sized>(&self, rng: &mut R) -> Config {
        let choices = self
            .params
            .iter()
            .map(|p| rng.random_range(0..p.cardinality()) as u16)
            .collect();
        Config::from_choices(choices)
    }

    /// Sample `n` *distinct* configurations uniformly without replacement.
    ///
    /// Uses index-set sampling (Floyd's algorithm) so it is O(n) even for
    /// huge spaces.
    ///
    /// # Panics
    /// Panics if `n` exceeds the space cardinality.
    pub fn sample_distinct<R: RngExt + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<Config> {
        let card = self.cardinality();
        assert!(
            (n as u64) <= card,
            "cannot sample {n} distinct configs from a space of {card}"
        );
        // BTreeSet so the pre-shuffle order is the sorted index order, not
        // hash order: the shuffle below must start from the same
        // permutation in every process for seed-stable sampling.
        let mut picked = std::collections::BTreeSet::new();
        // Floyd's algorithm for a uniform n-subset of [0, card).
        for j in (card - n as u64)..card {
            let t = rng.random_range(0..=j);
            if !picked.insert(t) {
                picked.insert(j);
            }
        }
        let mut indices: Vec<u64> = picked.into_iter().collect();
        indices.shuffle(rng);
        indices.into_iter().map(|i| self.config_at(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmpeel_stats::{seeded_rng, SeedDomain};

    fn small_space() -> ConfigSpace {
        ConfigSpace::new(vec![
            ParamDef::boolean("a"),
            ParamDef::ordinal("t", &[4, 8, 16]),
            ParamDef::categorical("s", &["x", "y"]),
        ])
    }

    #[test]
    fn cardinality_is_product() {
        assert_eq!(small_space().cardinality(), 2 * 3 * 2);
    }

    #[test]
    fn index_bijection_roundtrips_everywhere() {
        let s = small_space();
        for i in 0..s.cardinality() {
            let c = s.config_at(i);
            assert_eq!(s.index_of(&c), i);
        }
    }

    #[test]
    fn last_parameter_varies_fastest() {
        let s = small_space();
        let c0 = s.config_at(0);
        let c1 = s.config_at(1);
        assert_eq!(c0.choice(0), c1.choice(0));
        assert_eq!(c0.choice(1), c1.choice(1));
        assert_ne!(c0.choice(2), c1.choice(2));
    }

    #[test]
    fn enumerate_visits_every_config_once() {
        let s = small_space();
        let all: Vec<Config> = s.enumerate().collect();
        assert_eq!(all.len() as u64, s.cardinality());
        let set: std::collections::HashSet<_> = all.iter().collect();
        assert_eq!(set.len(), all.len());
    }

    #[test]
    fn config_from_values_roundtrip() {
        let s = small_space();
        let c = s.config_from_values(&[
            ParamValue::Bool(true),
            ParamValue::Int(8),
            ParamValue::Cat("y".into()),
        ]);
        assert_eq!(s.value(&c, 0), ParamValue::Bool(true));
        assert_eq!(s.value(&c, 1), ParamValue::Int(8));
        assert_eq!(s.value(&c, 2), ParamValue::Cat("y".into()));
    }

    #[test]
    fn featurize_encodes_types() {
        let s = small_space();
        let c = s.config_from_values(&[
            ParamValue::Bool(true),
            ParamValue::Int(16),
            ParamValue::Cat("x".into()),
        ]);
        assert_eq!(s.featurize(&c), vec![1.0, 16.0, 0.0]);
    }

    #[test]
    fn sample_distinct_yields_unique_configs() {
        let s = small_space();
        let mut rng = seeded_rng(1, SeedDomain::Custom(1));
        let picks = s.sample_distinct(10, &mut rng);
        let set: std::collections::HashSet<_> = picks.iter().collect();
        assert_eq!(set.len(), 10);
    }

    #[test]
    fn sample_distinct_full_space_is_a_permutation() {
        let s = small_space();
        let mut rng = seeded_rng(2, SeedDomain::Custom(2));
        let picks = s.sample_distinct(12, &mut rng);
        let mut idx: Vec<u64> = picks.iter().map(|c| s.index_of(c)).collect();
        idx.sort_unstable();
        assert_eq!(idx, (0..12).collect::<Vec<u64>>());
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn sample_distinct_overflow_panics() {
        let s = small_space();
        let mut rng = seeded_rng(3, SeedDomain::Custom(3));
        let _ = s.sample_distinct(13, &mut rng);
    }

    #[test]
    #[should_panic(expected = "duplicate parameter name")]
    fn duplicate_names_rejected() {
        let _ = ConfigSpace::new(vec![ParamDef::boolean("a"), ParamDef::boolean("a")]);
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let s = small_space();
        let a = s.sample(&mut seeded_rng(5, SeedDomain::Custom(5)));
        let b = s.sample(&mut seeded_rng(5, SeedDomain::Custom(5)));
        assert_eq!(a, b);
    }
}
