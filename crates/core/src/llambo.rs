//! The other two LLAMBO prompting modes (§II-B).
//!
//! Besides the discriminative surrogate the paper evaluates, LLAMBO defines:
//!
//! * a **generative surrogate**: "performs the same task as the
//!   discriminative model but uses N-ary classification labels instead of
//!   regression" — runtimes are bucketed into quantile classes and the
//!   model predicts a class label;
//! * **candidate sampling**: "inverts the discriminative relationship by
//!   proposing a configuration expected to produce a given performance
//!   value" — the model generates a configuration line for a target
//!   runtime.
//!
//! Both are implemented here against the same [`LanguageModel`] machinery,
//! completing the LLAMBO interface the paper builds on.

use crate::prompt::{problem_description, SYSTEM_INSTRUCTIONS};
use lmpeel_configspace::{text, ArraySize, Config, ConfigSpace};
use lmpeel_lm::{generate, GenerateSpec, LanguageModel, Sampler};
use lmpeel_perfdata::PerfDataset;
use lmpeel_stats::{seeded_rng, SeedDomain};
use lmpeel_tokenizer::{BOS, EOS, ROLE_ASSISTANT, ROLE_SYSTEM, ROLE_USER};
use std::sync::Arc;

/// Single-letter class labels (single byte tokens, so every label is one
/// token for any vocabulary).
const LABELS: [&str; 8] = ["A", "B", "C", "D", "E", "F", "G", "H"];

/// Quantile-bucket classifier over runtimes.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeBuckets {
    /// Ascending inner thresholds (`n_classes - 1` of them).
    pub thresholds: Vec<f64>,
}

impl RuntimeBuckets {
    /// Build `n_classes` equal-mass buckets from a dataset's runtimes.
    ///
    /// # Panics
    /// Panics unless `2 <= n_classes <= 8`.
    pub fn from_dataset(dataset: &PerfDataset, n_classes: usize) -> Self {
        assert!(
            (2..=LABELS.len()).contains(&n_classes),
            "2..=8 classes supported"
        );
        let mut sorted: Vec<f64> = dataset.runtimes().to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let thresholds = (1..n_classes)
            .map(|i| sorted[i * sorted.len() / n_classes])
            .collect();
        Self { thresholds }
    }

    /// Number of classes.
    fn n_classes(&self) -> usize {
        self.thresholds.len() + 1
    }

    /// Class index of a runtime (0 = fastest bucket).
    fn class_of(&self, runtime: f64) -> usize {
        self.thresholds.iter().filter(|&&t| runtime >= t).count()
    }

    /// Label of a class index.
    fn label_of(&self, class: usize) -> &'static str {
        LABELS[class]
    }

    /// Class index of a label, if valid.
    fn class_of_label(&self, label: &str) -> Option<usize> {
        LABELS[..self.n_classes()].iter().position(|&l| l == label)
    }
}

fn chat_tokens(
    model: &impl LanguageModel,
    user: &str,
    primer: &str,
) -> Vec<lmpeel_tokenizer::TokenId> {
    let t = model.tokenizer();
    let mut ids = vec![t.special(BOS), t.special(ROLE_SYSTEM)];
    ids.extend(t.encode(SYSTEM_INSTRUCTIONS));
    ids.push(t.special(ROLE_USER));
    ids.extend(t.encode(user));
    ids.push(t.special(ROLE_ASSISTANT));
    ids.extend(t.encode(primer));
    ids
}

/// Build the generative-surrogate (classification) user text.
fn classification_user_text(
    space: &ConfigSpace,
    size: ArraySize,
    buckets: &RuntimeBuckets,
    examples: &[(Config, f64)],
    query: &Config,
) -> String {
    let mut user = problem_description(size);
    user.push_str(&format!(
        "\n\nPerformance is bucketed into {} classes labeled {} (fastest) through {} \
         (slowest).\nHere are the examples:\n",
        buckets.n_classes(),
        LABELS[0],
        buckets.label_of(buckets.n_classes() - 1)
    ));
    for (cfg, runtime) in examples {
        user.push_str(&text::nl_config_line(space, cfg, size));
        user.push_str(&format!(
            "\nPerformance bucket: {}\n",
            buckets.label_of(buckets.class_of(*runtime))
        ));
    }
    user.push_str("\nPlease complete the following:\n");
    user.push_str(&text::nl_config_line(space, query, size));
    user
}

/// Run the generative surrogate once: predict the class of `query`.
/// Returns the predicted class index, or `None` if the response was not a
/// valid label.
fn predict_class<M: LanguageModel>(
    model: &Arc<M>,
    space: &ConfigSpace,
    size: ArraySize,
    buckets: &RuntimeBuckets,
    examples: &[(Config, f64)],
    query: &Config,
    seed: u64,
) -> Option<usize> {
    let user = classification_user_text(space, size, buckets, examples, query);
    let ids = chat_tokens(model.as_ref(), &user, "Performance bucket: ");
    let response = decode(model, &ids, 4, seed);
    let label = response.trim().chars().next()?.to_string();
    buckets.class_of_label(&label)
}

/// Decode one paper-sampler response to `ids`, stopping at a newline or
/// EOS after at most `max_tokens`.
fn decode<M: LanguageModel>(
    model: &Arc<M>,
    ids: &[lmpeel_tokenizer::TokenId],
    max_tokens: usize,
    seed: u64,
) -> String {
    let t = model.tokenizer();
    let spec = GenerateSpec::builder()
        .sampler(Sampler::paper())
        .max_tokens(max_tokens)
        .stop_tokens(vec![
            t.vocab().token_id("\n").expect("newline"),
            t.special(EOS),
        ])
        // Only the text is returned: a floor above 1 records no
        // alternatives and makes each step draw-only, with the same tokens.
        .trace_min_prob(2.0)
        .seed(seed)
        .build()
        .expect("valid llambo spec");
    generate(model, ids, &spec)
        .expect("llambo decode")
        .decode(t)
}

/// Build the candidate-sampling user text: labelled `(performance →
/// configuration)` pairs followed by the target performance.
fn candidate_user_text(
    space: &ConfigSpace,
    size: ArraySize,
    examples: &[(Config, f64)],
    target: f64,
) -> String {
    let mut user = problem_description(size);
    user.push_str(
        "\n\nEach example lists a performance value followed by a configuration that \
         achieves it. Propose a configuration for the requested performance.\n\
         Here are the examples:\n",
    );
    for (cfg, runtime) in examples {
        user.push_str(&format!(
            "Performance: {}\n",
            text::format_runtime(*runtime)
        ));
        user.push_str(&text::nl_config_line(space, cfg, size));
        user.push('\n');
    }
    user.push_str("\nPlease complete the following:\n");
    user.push_str(&format!("Performance: {}", text::format_runtime(target)));
    user
}

/// Run candidate sampling once: ask for a configuration expected to achieve
/// `target`. Returns the proposed configuration if the generated line
/// parses back into the space.
pub fn propose_candidate<M: LanguageModel>(
    model: &Arc<M>,
    space: &ConfigSpace,
    size: ArraySize,
    examples: &[(Config, f64)],
    target: f64,
    seed: u64,
) -> Option<Config> {
    let user = candidate_user_text(space, size, examples, target);
    // Trailing space matters: the examples tokenize the separator as
    // a single ": " token, and the induction machinery needs the primer
    // to end on that same token.
    let ids = chat_tokens(model.as_ref(), &user, "Hyperparameter configuration: ");
    let line = format!(
        "Hyperparameter configuration: {}",
        decode(model, &ids, 96, seed)
    );
    text::parse_nl_config(space, &line).map(|(_, cfg)| cfg)
}

/// Evaluation summary for the generative (classification) surrogate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassificationReport {
    /// Exact-class accuracy.
    pub accuracy: f64,
    /// Mean absolute class distance (ordinal error).
    pub mean_class_distance: f64,
    /// Fraction of responses that were valid labels.
    pub valid_fraction: f64,
    /// Number of queries evaluated.
    pub n: usize,
}

/// Evaluate the generative surrogate over `n_queries` random ICL tasks.
pub fn evaluate_classification<M: LanguageModel>(
    model: &Arc<M>,
    dataset: &PerfDataset,
    buckets: &RuntimeBuckets,
    n_examples: usize,
    n_queries: usize,
    seed: u64,
) -> ClassificationReport {
    let space = dataset.space();
    let mut rng = seeded_rng(seed, SeedDomain::Custom(0x11A3B0));
    let mut correct = 0usize;
    let mut valid = 0usize;
    let mut dist_sum = 0.0;
    for q in 0..n_queries {
        let picks = space.sample_distinct(n_examples + 1, &mut rng);
        let query = picks[n_examples].clone();
        let examples: Vec<(Config, f64)> = picks[..n_examples]
            .iter()
            .map(|c| (c.clone(), dataset.runtime_of(c)))
            .collect();
        let truth_class = buckets.class_of(dataset.runtime_of(&query));
        if let Some(pred) = predict_class(
            model,
            space,
            dataset.size(),
            buckets,
            &examples,
            &query,
            seed ^ q as u64,
        ) {
            valid += 1;
            if pred == truth_class {
                correct += 1;
            }
            dist_sum += (pred as f64 - truth_class as f64).abs();
        }
    }
    ClassificationReport {
        accuracy: if valid > 0 {
            correct as f64 / valid as f64
        } else {
            0.0
        },
        mean_class_distance: if valid > 0 {
            dist_sum / valid as f64
        } else {
            f64::NAN
        },
        valid_fraction: valid as f64 / n_queries as f64,
        n: n_queries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmpeel_lm::InductionLm;
    use lmpeel_perfdata::{CostModel, PerfDataset};

    fn sm() -> PerfDataset {
        PerfDataset::generate(&CostModel::paper(), ArraySize::SM)
    }

    #[test]
    fn buckets_are_balanced_quantiles() {
        let d = sm();
        let b = RuntimeBuckets::from_dataset(&d, 4);
        assert_eq!(b.n_classes(), 4);
        let mut counts = [0usize; 4];
        for &r in d.runtimes() {
            counts[b.class_of(r)] += 1;
        }
        let total = d.len() as f64;
        for c in counts {
            let frac = c as f64 / total;
            assert!(
                (0.2..=0.3).contains(&frac),
                "bucket fraction {frac} unbalanced"
            );
        }
    }

    #[test]
    fn labels_roundtrip() {
        let d = sm();
        let b = RuntimeBuckets::from_dataset(&d, 3);
        for c in 0..3 {
            assert_eq!(b.class_of_label(b.label_of(c)), Some(c));
        }
        assert_eq!(b.class_of_label("Z"), None);
        assert_eq!(b.class_of_label("D"), None, "outside n_classes");
    }

    #[test]
    fn classification_prompt_contains_labels_and_query() {
        let d = sm();
        let b = RuntimeBuckets::from_dataset(&d, 3);
        let space = d.space();
        let examples = vec![(space.config_at(0), d.runtime_at(0))];
        let query = space.config_at(9_999);
        let text = classification_user_text(space, d.size(), &b, &examples, &query);
        assert!(text.contains("Performance bucket: "));
        assert!(text.contains("3 classes labeled A"));
        assert!(text.ends_with(&lmpeel_configspace::text::nl_config_line(
            space,
            &query,
            d.size()
        )));
    }

    #[test]
    fn model_predicts_a_valid_class_from_icl() {
        let d = sm();
        let b = RuntimeBuckets::from_dataset(&d, 3);
        let model = std::sync::Arc::new(InductionLm::paper(0));
        let space = d.space();
        let examples: Vec<(Config, f64)> = (0..6)
            .map(|i| {
                let c = space.config_at(i * 1000);
                let r = d.runtime_of(&c);
                (c, r)
            })
            .collect();
        let query = space.config_at(7_777);
        let pred = predict_class(&model, space, d.size(), &b, &examples, &query, 1);
        assert!(pred.is_some(), "label should parse");
        assert!(pred.unwrap() < 3);
    }

    #[test]
    fn candidate_sampling_roundtrips_through_the_parser() {
        let d = sm();
        let model = std::sync::Arc::new(InductionLm::paper(0));
        let space = d.space();
        let examples: Vec<(Config, f64)> = (0..5)
            .map(|i| {
                let c = space.config_at(i * 2000 + 5);
                let r = d.runtime_of(&c);
                (c, r)
            })
            .collect();
        let target = examples[2].1;
        // Sampling can derail a 60-token configuration line (exactly the
        // format fragility the paper reports), so proposals are Options;
        // across a handful of seeds at least one must parse.
        let parsed: Vec<_> = (0..8)
            .filter_map(|seed| propose_candidate(&model, space, d.size(), &examples, target, seed))
            .collect();
        assert!(!parsed.is_empty(), "no proposal parsed across 8 seeds");
        assert!(parsed.iter().all(|c| c.len() == space.num_params()));
    }

    #[test]
    fn classification_evaluation_reports_sane_numbers() {
        let d = sm();
        let b = RuntimeBuckets::from_dataset(&d, 3);
        let model = std::sync::Arc::new(InductionLm::paper(0));
        let report = evaluate_classification(&model, &d, &b, 5, 4, 9);
        assert_eq!(report.n, 4);
        assert!((0.0..=1.0).contains(&report.valid_fraction));
        if report.valid_fraction > 0.0 {
            assert!((0.0..=1.0).contains(&report.accuracy));
            assert!(report.mean_class_distance >= 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "classes supported")]
    fn too_many_classes_rejected() {
        let d = sm();
        let _ = RuntimeBuckets::from_dataset(&d, 9);
    }
}
