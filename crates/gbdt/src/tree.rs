//! Histogram-split regression trees.
//!
//! Standard CART-style squared-error trees over binned features: at each
//! node, for every candidate feature, accumulate per-bin `(sum, count)`
//! histograms of the targets and pick the split maximizing the variance
//! -reduction gain `sum_L²/n_L + sum_R²/n_R − sum²/n`.

use crate::data::{DMatrix, MAX_BINS};

/// Tree growth constraints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeParams {
    /// Maximum depth (root = depth 0; depth 1 tree has one split).
    pub max_depth: usize,
    /// Minimum training rows in a leaf.
    pub min_samples_leaf: usize,
    /// Minimum gain to accept a split.
    pub min_gain: f64,
}

impl Default for TreeParams {
    fn default() -> Self {
        Self {
            max_depth: 6,
            min_samples_leaf: 1,
            min_gain: 1e-12,
        }
    }
}

/// Tree node: either an internal binary split or a leaf prediction.
#[derive(Debug, Clone, PartialEq)]
enum Node {
    Split {
        feature: usize,
        /// `value <= threshold` goes left.
        threshold: f64,
        /// Variance-reduction gain this split achieved at fit time (the
        /// raw material of gain-based feature importance).
        gain: f64,
        left: usize,
        right: usize,
    },
    Leaf {
        value: f64,
    },
}

/// A fitted regression tree.
#[derive(Debug, Clone, PartialEq)]
pub struct Tree {
    nodes: Vec<Node>,
}

struct BestSplit {
    feature: usize,
    bin: usize,
    gain: f64,
}

impl Tree {
    /// Fit to `targets` on the rows listed in `rows`, considering only the
    /// features in `features`.
    ///
    /// # Panics
    /// Panics if `rows` is empty or `targets` is shorter than the data.
    pub fn fit(
        data: &DMatrix,
        targets: &[f64],
        rows: &[usize],
        features: &[usize],
        params: TreeParams,
    ) -> Self {
        assert!(!rows.is_empty(), "cannot fit a tree on zero rows");
        assert!(targets.len() >= data.n_rows(), "targets shorter than data");
        assert!(!features.is_empty(), "need at least one candidate feature");
        let mut grower = Grower {
            data,
            targets,
            features,
            params,
            nodes: Vec::new(),
            spill: Vec::with_capacity(rows.len()),
        };
        grower.grow(&mut rows.to_vec(), 0);
        Tree {
            nodes: grower.nodes,
        }
    }

    /// Predict one feature row.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        let mut i = 0;
        loop {
            match &self.nodes[i] {
                Node::Leaf { value } => return *value,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                    ..
                } => {
                    i = if row[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree is a single leaf.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// Accumulate this tree's gain-based feature importance into `acc`
    /// (one slot per feature).
    ///
    /// # Panics
    /// Panics if `acc` is shorter than the largest feature index used.
    pub fn accumulate_importance(&self, acc: &mut [f64]) {
        for n in &self.nodes {
            if let Node::Split { feature, gain, .. } = n {
                acc[*feature] += gain.max(0.0);
            }
        }
    }
}

/// One tree fit in progress: its fixed inputs, the nodes grown so far and
/// the partition scratch that every node reuses.
struct Grower<'a> {
    data: &'a DMatrix,
    targets: &'a [f64],
    features: &'a [usize],
    params: TreeParams,
    nodes: Vec<Node>,
    spill: Vec<usize>,
}

impl Grower<'_> {
    /// Recursively grow; `rows` is reordered in place (partitioned).
    /// Returns the index of the created node.
    fn grow(&mut self, rows: &mut [usize], depth: usize) -> usize {
        let sum: f64 = rows.iter().map(|&r| self.targets[r]).sum();
        let n = rows.len();
        let mean = sum / n as f64;
        let make_leaf = |nodes: &mut Vec<Node>| {
            nodes.push(Node::Leaf { value: mean });
            nodes.len() - 1
        };

        let params = self.params;
        if depth >= params.max_depth || n < 2 * params.min_samples_leaf {
            return make_leaf(&mut self.nodes);
        }

        let best = self.find_best_split(rows, sum);
        let Some(best) = best else {
            return make_leaf(&mut self.nodes);
        };
        if best.gain < params.min_gain {
            return make_leaf(&mut self.nodes);
        }

        // Partition rows around the winning bin.
        let data = self.data;
        let mid = partition(rows, &mut self.spill, |&r| {
            data.bin(r, best.feature) <= best.bin
        });
        debug_assert!(mid > 0 && mid < rows.len(), "degenerate partition");

        let node_idx = self.nodes.len();
        self.nodes.push(Node::Leaf { value: mean }); // placeholder
        let (left_rows, right_rows) = rows.split_at_mut(mid);
        let left = self.grow(left_rows, depth + 1);
        let right = self.grow(right_rows, depth + 1);
        self.nodes[node_idx] = Node::Split {
            feature: best.feature,
            threshold: data.threshold(best.feature, best.bin),
            gain: best.gain,
            left,
            right,
        };
        node_idx
    }

    fn find_best_split(&self, rows: &[usize], total_sum: f64) -> Option<BestSplit> {
        let (data, targets, params) = (self.data, self.targets, self.params);
        let n = rows.len() as f64;
        let parent_score = total_sum * total_sum / n;
        // Per-bin histograms, cleared per feature (`DMatrix` caps bins at
        // `MAX_BINS`).
        let mut sums = [0.0f64; MAX_BINS];
        let mut counts = [0usize; MAX_BINS];
        self.features
            .iter()
            .filter_map(|&f| {
                let n_bins = data.n_bins(f);
                if n_bins < 2 {
                    return None;
                }
                sums[..n_bins].fill(0.0);
                counts[..n_bins].fill(0);
                for &r in rows {
                    let b = data.bin(r, f);
                    sums[b] += targets[r];
                    counts[b] += 1;
                }
                let total_count: usize = rows.len();
                let mut best: Option<BestSplit> = None;
                let mut left_sum = 0.0;
                let mut left_count = 0usize;
                for b in 0..n_bins - 1 {
                    left_sum += sums[b];
                    left_count += counts[b];
                    let right_count = total_count - left_count;
                    if left_count < params.min_samples_leaf
                        || right_count < params.min_samples_leaf
                        || left_count == 0
                        || right_count == 0
                    {
                        continue;
                    }
                    let right_sum = total_sum - left_sum;
                    let gain = left_sum * left_sum / left_count as f64
                        + right_sum * right_sum / right_count as f64
                        - parent_score;
                    if best.as_ref().is_none_or(|s| gain > s.gain) {
                        best = Some(BestSplit {
                            feature: f,
                            bin: b,
                            gain,
                        });
                    }
                }
                best
            })
            .max_by(|a, b| {
                a.gain
                    .partial_cmp(&b.gain)
                    .unwrap()
                    // deterministic tie-break on feature index
                    .then(b.feature.cmp(&a.feature))
            })
    }
}

/// Stable partition in place: rows satisfying the predicate first, each
/// side in its original order. The rest wait in `spill` (cleared first).
/// Returns the number of satisfying rows.
fn partition<F: Fn(&usize) -> bool>(rows: &mut [usize], spill: &mut Vec<usize>, pred: F) -> usize {
    spill.clear();
    let mut mid = 0;
    for i in 0..rows.len() {
        let r = rows[i];
        if pred(&r) {
            rows[mid] = r;
            mid += 1;
        } else {
            spill.push(r);
        }
    }
    rows[mid..].copy_from_slice(spill);
    mid
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fit_all(rows: &[Vec<f64>], y: &[f64], params: TreeParams) -> Tree {
        let data = DMatrix::from_rows(rows);
        let all_rows: Vec<usize> = (0..rows.len()).collect();
        let feats: Vec<usize> = (0..rows[0].len()).collect();
        Tree::fit(&data, y, &all_rows, &feats, params)
    }

    fn depth(t: &Tree) -> usize {
        fn depth_of(nodes: &[Node], i: usize) -> usize {
            match &nodes[i] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => {
                    1 + depth_of(nodes, *left).max(depth_of(nodes, *right))
                }
            }
        }
        depth_of(&t.nodes, 0)
    }

    fn leaf_count(t: &Tree) -> usize {
        t.nodes
            .iter()
            .filter(|n| matches!(n, Node::Leaf { .. }))
            .count()
    }

    #[test]
    fn single_split_recovers_a_step_function() {
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..20).map(|i| if i < 10 { 1.0 } else { 5.0 }).collect();
        let t = fit_all(
            &rows,
            &y,
            TreeParams {
                max_depth: 1,
                ..Default::default()
            },
        );
        assert_eq!(depth(&t), 1);
        assert_eq!(leaf_count(&t), 2);
        assert!((t.predict_row(&[3.0]) - 1.0).abs() < 1e-12);
        assert!((t.predict_row(&[15.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn deep_tree_fits_training_data_exactly() {
        let rows: Vec<Vec<f64>> = (0..32).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..32).map(|i| ((i * 7) % 13) as f64).collect();
        let t = fit_all(
            &rows,
            &y,
            TreeParams {
                max_depth: 10,
                ..Default::default()
            },
        );
        for (r, &target) in rows.iter().zip(&y) {
            assert!((t.predict_row(r) - target).abs() < 1e-9);
        }
    }

    #[test]
    fn depth_zero_is_the_mean() {
        let rows: Vec<Vec<f64>> = (0..4).map(|i| vec![i as f64]).collect();
        let y = [1.0, 2.0, 3.0, 6.0];
        let t = fit_all(
            &rows,
            &y,
            TreeParams {
                max_depth: 0,
                ..Default::default()
            },
        );
        assert!(t.is_empty());
        assert!((t.predict_row(&[0.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn min_samples_leaf_is_respected() {
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let t = fit_all(
            &rows,
            &y,
            TreeParams {
                max_depth: 10,
                min_samples_leaf: 5,
                min_gain: 1e-12,
            },
        );
        // With min 5 per leaf on 10 rows, only one split is possible.
        assert!(leaf_count(&t) <= 2);
    }

    #[test]
    fn picks_the_informative_feature() {
        // Feature 0 is noise-free signal; feature 1 is constant.
        let rows: Vec<Vec<f64>> = (0..16).map(|i| vec![i as f64, 1.0]).collect();
        let y: Vec<f64> = (0..16).map(|i| if i < 8 { 0.0 } else { 1.0 }).collect();
        let t = fit_all(
            &rows,
            &y,
            TreeParams {
                max_depth: 1,
                ..Default::default()
            },
        );
        match &t.nodes[0] {
            Node::Split { feature, .. } => assert_eq!(*feature, 0),
            n => panic!("expected a split, got {n:?}"),
        }
    }

    #[test]
    fn constant_targets_make_a_leaf() {
        let rows: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64]).collect();
        let y = vec![2.5; 8];
        let t = fit_all(&rows, &y, TreeParams::default());
        assert!(t.is_empty(), "no gain anywhere -> single leaf");
        assert_eq!(t.predict_row(&[100.0]), 2.5);
    }

    #[test]
    fn multivariate_interaction_is_learnable() {
        // y = x0 + x1 + 2*x0*x1 over binary features: the interaction term
        // needs depth 2, and (unlike XOR) the marginals give the greedy
        // splitter a nonzero root gain.
        let rows: Vec<Vec<f64>> = (0..100)
            .map(|i| vec![(i % 2) as f64, ((i / 2) % 2) as f64])
            .collect();
        let y: Vec<f64> = rows
            .iter()
            .map(|r| r[0] + r[1] + 2.0 * r[0] * r[1])
            .collect();
        let shallow = fit_all(
            &rows,
            &y,
            TreeParams {
                max_depth: 1,
                ..Default::default()
            },
        );
        let deep = fit_all(
            &rows,
            &y,
            TreeParams {
                max_depth: 2,
                ..Default::default()
            },
        );
        let err = |t: &Tree| {
            rows.iter()
                .zip(&y)
                .map(|(r, &t_)| (t.predict_row(r) - t_).abs())
                .sum::<f64>()
        };
        assert!(err(&deep) < 1e-9, "depth 2 captures the interaction");
        assert!(err(&shallow) > 1.0, "depth 1 cannot");
    }

    #[test]
    fn partition_is_stable_and_correct() {
        let mut rows = vec![5, 2, 8, 1, 9, 4];
        let mid = partition(&mut rows, &mut Vec::new(), |&r| r < 5);
        assert_eq!(mid, 3);
        assert_eq!(&rows[..3], &[2, 1, 4], "stable order preserved");
        assert_eq!(&rows[3..], &[5, 8, 9]);
    }
}
