//! Configuration edit distance and curated neighbourhood selection.
//!
//! §III-B: "we also evaluate the LLM's performance where all examples and
//! the prediction task have minimal configuration-space editing distance.
//! That is to say, all configurations are nearly identical to one another so
//! that the query is as well-defined by the ICL as possible."
//!
//! We define the primary edit distance as the Hamming distance over
//! parameters (the number of components one would have to edit), with a
//! secondary *ordinal distance* — the sum of normalized rank differences on
//! ordinal parameters — used to break ties so that, e.g., changing a tile
//! from 64 to 80 is considered a smaller edit than 64 to 4.

use crate::param::Config;
use crate::space::ConfigSpace;

/// Hamming edit distance: the number of parameters whose choices differ.
///
/// # Panics
/// Panics if the configurations have different arity.
pub fn edit_distance(a: &Config, b: &Config) -> usize {
    assert_eq!(a.len(), b.len(), "configuration arity mismatch");
    a.choices()
        .iter()
        .zip(b.choices())
        .filter(|(x, y)| x != y)
        .count()
}

/// Secondary ordinal distance: sum over parameters of the absolute choice
/// rank difference normalized by the parameter's cardinality minus one.
/// Boolean and categorical parameters contribute 0 or 1.
///
/// The result lies in `[0, num_params]` and refines [`edit_distance`]:
/// `ordinal_distance(a, b) <= edit_distance(a, b)` always holds.
///
/// # Panics
/// Panics if the configurations have different arity or do not belong to
/// `space`.
fn ordinal_distance(space: &ConfigSpace, a: &Config, b: &Config) -> f64 {
    assert_eq!(a.len(), b.len(), "configuration arity mismatch");
    assert_eq!(
        a.len(),
        space.num_params(),
        "configuration does not match space"
    );
    space
        .params()
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let (x, y) = (a.choice(i) as f64, b.choice(i) as f64);
            let denom = (p.cardinality().saturating_sub(1)).max(1) as f64;
            (x - y).abs() / denom
        })
        .sum()
}

/// Select the `n` configurations in the space closest to `center`, excluding
/// `center` itself, ordered by `(edit_distance, ordinal_distance, index)`.
///
/// This is the curated ICL neighbourhood of §III-B: the returned
/// configurations are "nearly identical" to the query at the center.
/// Deterministic: ties are broken by flat configuration index.
///
/// # Panics
/// Panics if `n` is not smaller than the space cardinality.
pub fn curated_neighborhood(space: &ConfigSpace, center: &Config, n: usize) -> Vec<Config> {
    let card = space.cardinality();
    assert!(
        (n as u64) < card,
        "neighbourhood of {n} too large for space of {card}"
    );
    let mut scored: Vec<(usize, f64, u64)> = Vec::with_capacity(card as usize - 1);
    for idx in 0..card {
        let c = space.config_at(idx);
        if &c == center {
            continue;
        }
        scored.push((
            edit_distance(center, &c),
            ordinal_distance(space, center, &c),
            idx,
        ));
    }
    scored.sort_by(|a, b| {
        a.0.cmp(&b.0)
            .then(a.1.partial_cmp(&b.1).unwrap())
            .then(a.2.cmp(&b.2))
    });
    scored
        .into_iter()
        .take(n)
        .map(|(_, _, idx)| space.config_at(idx))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::ParamDef;
    use crate::syr2k::syr2k_space;

    fn tiny() -> ConfigSpace {
        ConfigSpace::new(vec![
            ParamDef::boolean("a"),
            ParamDef::ordinal("t", &[4, 8, 16, 32]),
        ])
    }

    #[test]
    fn edit_distance_is_a_metric() {
        let s = tiny();
        let all: Vec<Config> = s.enumerate().collect();
        for x in &all {
            assert_eq!(edit_distance(x, x), 0, "identity");
            for y in &all {
                assert_eq!(edit_distance(x, y), edit_distance(y, x), "symmetry");
                for z in &all {
                    assert!(
                        edit_distance(x, z) <= edit_distance(x, y) + edit_distance(y, z),
                        "triangle inequality"
                    );
                }
            }
        }
    }

    #[test]
    fn ordinal_distance_refines_hamming() {
        let s = tiny();
        let all: Vec<Config> = s.enumerate().collect();
        for x in &all {
            for y in &all {
                let h = edit_distance(x, y) as f64;
                let o = ordinal_distance(&s, x, y);
                assert!(o <= h + 1e-12, "ordinal {o} must not exceed hamming {h}");
                assert_eq!(o == 0.0, h == 0.0);
            }
        }
    }

    #[test]
    fn ordinal_distance_ranks_nearby_tiles_closer() {
        let s = tiny();
        let base = s.config_from_values(&[
            crate::param::ParamValue::Bool(false),
            crate::param::ParamValue::Int(8),
        ]);
        let near = base.with_choice(1, 2); // 16 (one rank away)
        let far = base.with_choice(1, 3); // 32 (two ranks away)
        assert_eq!(edit_distance(&base, &near), edit_distance(&base, &far));
        assert!(ordinal_distance(&s, &base, &near) < ordinal_distance(&s, &base, &far));
    }

    #[test]
    fn neighborhood_excludes_center_and_is_sorted() {
        let s = tiny();
        let center = s.config_at(3);
        let hood = curated_neighborhood(&s, &center, 5);
        assert_eq!(hood.len(), 5);
        assert!(!hood.contains(&center));
        let dists: Vec<usize> = hood.iter().map(|c| edit_distance(&center, c)).collect();
        assert!(
            dists.windows(2).all(|w| w[0] <= w[1]),
            "sorted by distance: {dists:?}"
        );
    }

    #[test]
    fn neighborhood_is_deterministic() {
        let s = tiny();
        let center = s.config_at(0);
        assert_eq!(
            curated_neighborhood(&s, &center, 4),
            curated_neighborhood(&s, &center, 4)
        );
    }

    #[test]
    fn syr2k_neighborhood_is_compact() {
        let s = syr2k_space();
        let center = s.config_at(5_000);
        let hood = curated_neighborhood(&s, &center, 50);
        // 50 nearest neighbours in a 6-parameter space should all be within
        // 2 edits of the center, so no pair is more than 4 edits apart.
        assert!(hood.iter().all(|c| edit_distance(&center, c) <= 2));
        for (i, a) in hood.iter().enumerate() {
            assert!(hood[i + 1..].iter().all(|b| edit_distance(a, b) <= 4));
        }
    }
}
