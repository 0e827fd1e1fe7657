//! §V-D future-work evaluation: the numeric-hook hybrid decoder.
//!
//! "An LLM can be given a unique token to signal to a supporting model that
//! a number should be generated at a particular position within its
//! response." Here the supporting model is a boosted-tree regressor trained
//! few-shot on exactly the in-context examples each prompt carries; the LLM
//! still produces the response, but the number is delegated. This binary
//! runs the same random-selection grid as §IV-A with and without the hook.

use lmpeel_bench::TextTable;
use lmpeel_configspace::ArraySize;
use lmpeel_core::extract::extract_value;
use lmpeel_core::hybrid::hybrid_predict;
use lmpeel_core::prompt::PromptBuilder;
use lmpeel_lm::{generate, GenerateSpec, InductionLm, LanguageModel, Sampler};
use lmpeel_perfdata::{icl_replicas, DatasetBundle};
use lmpeel_stats::{r2_score, relative_error};
use lmpeel_tokenizer::EOS;

fn main() {
    let bundle = DatasetBundle::paper();
    let counts = [5usize, 10, 20, 50, 100];
    let replicas = 5;
    let seeds = [0u64, 1, 2];

    println!("Section V-D evaluation: plain LLM vs numeric-hook hybrid\n");
    let mut table = TextTable::new(vec![
        "size",
        "icl",
        "plain MARE",
        "hybrid MARE",
        "plain R2",
        "hybrid R2",
    ]);
    for size in [ArraySize::SM, ArraySize::XL] {
        let dataset = bundle.for_size(size);
        for &count in &counts {
            let sets = icl_replicas(dataset, count, replicas, 3);
            let builder = PromptBuilder::new(dataset.space().clone(), size);
            let results: Vec<(f64, f64, f64)> = sets
                .iter()
                .flat_map(|set| seeds.iter().map(move |&seed| (set, seed)))
                .map(|(set, seed)| {
                    let model = std::sync::Arc::new(InductionLm::paper(seed));
                    let tok = model.tokenizer();
                    let ids = builder.for_icl_set(set).to_tokens(tok);
                    let spec = GenerateSpec::builder()
                        .sampler(Sampler::paper())
                        .max_tokens(24)
                        .stop_tokens(vec![tok.vocab().token_id("\n").unwrap(), tok.special(EOS)])
                        .trace_min_prob(1e-3)
                        .seed(seed)
                        .build()
                        .unwrap();
                    let trace = generate(&model, &ids, &spec).unwrap();
                    let plain = extract_value(&trace.decode(tok))
                        .map(|(v, _)| v)
                        .unwrap_or(0.0);
                    let (_, hybrid) = hybrid_predict(&model, &builder, set, seed);
                    (plain, hybrid, set.truth)
                })
                .collect();
            let plain: Vec<f64> = results.iter().map(|r| r.0).collect();
            let hybrid: Vec<f64> = results.iter().map(|r| r.1).collect();
            let truth: Vec<f64> = results.iter().map(|r| r.2).collect();
            let mare = |p: &[f64]| {
                p.iter()
                    .zip(&truth)
                    .map(|(&a, &t)| relative_error(a, t))
                    .sum::<f64>()
                    / p.len() as f64
            };
            table.row(vec![
                size.to_string(),
                count.to_string(),
                format!("{:.3}", mare(&plain)),
                format!("{:.3}", mare(&hybrid)),
                format!("{:+.2}", r2_score(&plain, &truth)),
                format!("{:+.2}", r2_score(&hybrid, &truth)),
            ]);
        }
    }
    println!("{}", table.render());
    println!(
        "Shape check: delegating the number to a small quantitative model trained on\n\
         the same in-context data usually beats textual number generation — most\n\
         clearly at moderate-to-large ICL counts where the regressor has data to\n\
         learn from. This is the separation of concerns the paper proposes in V-D."
    );
}
