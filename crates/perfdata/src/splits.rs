//! In-context-learning replica construction (§III-B).
//!
//! The paper evaluates the LLM with 1–100 in-context examples. For each ICL
//! count it forms "five disjoint datasets with the same number of in-context
//! learning examples to limit the possibility of poor examples biasing the
//! results", each paired with a randomly selected query configuration that
//! appears in none of the example sets. A separate *curated* setting selects
//! examples with minimal configuration edit distance from the query.

use crate::dataset::PerfDataset;
use lmpeel_configspace::{curated_neighborhood, Config};
use lmpeel_stats::{seeded_rng, SeedDomain};
use rand::RngExt;

/// One in-context learning task: labelled examples plus a held-out query.
#[derive(Debug, Clone, PartialEq)]
pub struct IclSet {
    /// Labelled `(configuration, runtime)` examples shown to the model.
    pub examples: Vec<(Config, f64)>,
    /// The query configuration whose runtime must be predicted.
    pub query: Config,
    /// Ground-truth runtime of the query.
    pub truth: f64,
}

/// Build `replicas` disjoint random ICL sets of `n_examples` each; every
/// replica also draws its own query configuration, distinct from all
/// examples and all other queries. Per-setting metrics (R² "on the SM
/// dataset with 50 in-context learning examples") are computed across the
/// replicas' (and sampling seeds') predictions.
///
/// # Panics
/// Panics if the dataset cannot supply `replicas * (n_examples + 1)`
/// distinct configurations.
pub fn icl_replicas(
    dataset: &PerfDataset,
    n_examples: usize,
    replicas: usize,
    seed: u64,
) -> Vec<IclSet> {
    let space = dataset.space();
    let need = replicas * (n_examples + 1);
    let mut rng = seeded_rng(
        seed,
        SeedDomain::IclSelection(dataset.size().tag(), n_examples as u64),
    );
    let picks = space.sample_distinct(need, &mut rng);
    let (queries, examples_pool) = picks.split_at(replicas);
    (0..replicas)
        .map(|r| {
            let examples = examples_pool[r * n_examples..(r + 1) * n_examples]
                .iter()
                .map(|c| (c.clone(), dataset.runtime_of(c)))
                .collect();
            let query = queries[r].clone();
            let truth = dataset.runtime_of(&query);
            IclSet {
                examples,
                query,
                truth,
            }
        })
        .collect()
}

/// Build `replicas` *curated* ICL sets: each replica draws its own random
/// query and takes that query's minimal-edit-distance neighbourhood as its
/// examples, so "all configurations are nearly identical to one another"
/// and "the query is as well-defined by the ICL as possible".
pub fn curated_icl_replicas(
    dataset: &PerfDataset,
    n_examples: usize,
    replicas: usize,
    seed: u64,
) -> Vec<IclSet> {
    let space = dataset.space();
    let mut rng = seeded_rng(seed, SeedDomain::QuerySelection(dataset.size().tag()));
    (0..replicas)
        .map(|_| {
            let query = space.config_at(rng.random_range(0..space.cardinality()));
            let truth = dataset.runtime_of(&query);
            let examples = curated_neighborhood(space, &query, n_examples)
                .into_iter()
                .map(|c| {
                    let r = dataset.runtime_of(&c);
                    (c, r)
                })
                .collect();
            IclSet {
                examples,
                query,
                truth,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costmodel::CostModel;
    use lmpeel_configspace::{edit_distance, ArraySize};

    fn sm() -> PerfDataset {
        PerfDataset::generate(&CostModel::paper(), ArraySize::SM)
    }

    /// Whether the query configuration leaks into the examples.
    fn leaks_query(s: &IclSet) -> bool {
        s.examples.iter().any(|(c, _)| c == &s.query)
    }

    #[test]
    fn replicas_are_disjoint_and_sized() {
        let d = sm();
        let sets = icl_replicas(&d, 10, 5, 7);
        assert_eq!(sets.len(), 5);
        let mut seen = std::collections::HashSet::new();
        for s in &sets {
            assert_eq!(s.examples.len(), 10);
            assert!(!leaks_query(s), "query must not appear in examples");
            for (c, r) in &s.examples {
                assert!(
                    seen.insert(d.space().index_of(c)),
                    "example reused across replicas"
                );
                assert_eq!(*r, d.runtime_of(c), "labels come from the dataset");
            }
        }
    }

    #[test]
    fn each_replica_has_its_own_query() {
        let d = sm();
        let sets = icl_replicas(&d, 5, 3, 9);
        let queries: std::collections::HashSet<_> =
            sets.iter().map(|s| d.space().index_of(&s.query)).collect();
        assert_eq!(queries.len(), 3, "queries must be distinct");
        for s in &sets {
            assert_eq!(s.truth, d.runtime_of(&s.query));
        }
        // queries never collide with any replica's examples either
        for s in &sets {
            for other in &sets {
                assert!(!other.examples.iter().any(|(c, _)| c == &s.query));
            }
        }
    }

    #[test]
    fn selection_is_seeded() {
        let d = sm();
        assert_eq!(icl_replicas(&d, 5, 2, 1), icl_replicas(&d, 5, 2, 1));
        assert_ne!(icl_replicas(&d, 5, 2, 1), icl_replicas(&d, 5, 2, 2));
    }

    #[test]
    fn different_icl_counts_draw_different_pools() {
        let d = sm();
        let a = icl_replicas(&d, 5, 1, 1);
        let b = icl_replicas(&d, 10, 1, 1);
        assert_ne!(a[0].examples, b[0].examples[..5].to_vec());
    }

    #[test]
    fn curated_sets_are_near_the_query() {
        let d = sm();
        let sets = curated_icl_replicas(&d, 10, 3, 5);
        for s in &sets {
            assert!(!leaks_query(s));
            for (c, _) in &s.examples {
                assert!(
                    edit_distance(c, &s.query) <= 2,
                    "curated examples must be nearly identical to the query"
                );
            }
        }
    }

    #[test]
    fn curated_replicas_have_distinct_queries_and_unique_examples() {
        let d = sm();
        let sets = curated_icl_replicas(&d, 8, 4, 11);
        let queries: std::collections::HashSet<_> =
            sets.iter().map(|s| d.space().index_of(&s.query)).collect();
        assert!(queries.len() >= 3, "queries should (almost) always differ");
        for s in &sets {
            let uniq: std::collections::HashSet<_> = s
                .examples
                .iter()
                .map(|(c, _)| d.space().index_of(c))
                .collect();
            assert_eq!(uniq.len(), s.examples.len(), "no duplicate examples");
        }
    }
}
