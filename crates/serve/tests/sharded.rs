//! Property: sharding is a pure routing decision layered over unchanged
//! per-shard scheduling.
//!
//! Two halves, matching the determinism boundary documented in
//! DESIGN.md §12:
//!
//! 1. [`ShardRouter`] is a deterministic, process-stable function of the
//!    prompt's prefix window — two routers with the same parameters agree
//!    on every prompt, and tokens past the window never matter.
//! 2. A sharded service's traces are byte-identical to an *equivalent
//!    single-shard service* fed only that shard's slice of the workload
//!    in the same admission order. Cases sweep substrate mix, admission
//!    order, and shard count; only cross-shard completion order is free.

use lmpeel_lm::{InductionLm, LanguageModel};
use lmpeel_serve::{GenerateRequest, InferenceService, ShardRouter};
use lmpeel_tokenizer::TokenId;
use proptest::prelude::*;
use std::sync::Arc;

/// Three ICL prompts sharing progressively longer prefixes, like adjacent
/// cells of the experiment grid (same shape as tests/determinism.rs).
fn prompts(model: &InductionLm) -> Vec<Vec<TokenId>> {
    let shots = ["0.0022155", "0.0051230", "0.0031999"];
    (1..=shots.len())
        .map(|n| {
            let mut p = String::new();
            for v in &shots[..n] {
                p.push_str(&format!(
                    "Hyperparameter configuration: outer_loop_tiling_factor is 80\n\
                     Performance: {v}\n"
                ));
            }
            p.push_str(
                "Hyperparameter configuration: outer_loop_tiling_factor is 80\nPerformance: ",
            );
            model.tokenizer().encode(&p)
        })
        .collect()
}

/// Decode one workload code into (substrate index, prompt index, sampling
/// seed). The vendored proptest has no tuple strategies, so cases pack
/// into a single integer: 2 substrates x 3 prompts x 2 seeds = 12 codes.
fn unpack(code: usize) -> (usize, usize, u64) {
    (code % 2, (code / 2) % 3, ((code / 6) % 2) as u64)
}

fn request(substrate: usize, prompt: &[TokenId], seed: u64) -> GenerateRequest {
    let name = if substrate == 0 { "default" } else { "alt" };
    GenerateRequest::builder(name, prompt.to_vec())
        .max_tokens(5)
        .seed(seed)
        .build()
        .expect("static knobs are valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // Routing is a function of (shards, window, prompt prefix) alone:
    // independently constructed routers agree, results stay in range,
    // and tokens beyond the prefix window cannot change the shard.
    #[test]
    fn router_is_deterministic_across_instances(
        prompt in proptest::collection::vec(0u32..5000, 0..96),
        shards in 1usize..9,
        window in 1usize..48,
    ) {
        let a = ShardRouter::new(shards, window);
        let b = ShardRouter::new(shards, window);
        let shard = a.route(&prompt);
        prop_assert!(shard < shards);
        prop_assert_eq!(shard, b.route(&prompt));

        // Tokens past the window are routing-irrelevant.
        let mut extended = prompt.clone();
        if extended.len() >= window {
            extended.push(0xFFFF);
            prop_assert_eq!(shard, a.route(&extended));
        }
    }
}

/// Routing is stable across *processes*, not just router instances: the
/// FNV-1a prefix hash has no per-process state (unlike std's SipHash), so
/// these exact assignments hold on every run of every build. A failure
/// here means persisted shard affinity (journals, logs) silently broke.
#[test]
fn router_assignments_are_process_stable() {
    let router = ShardRouter::new(4, 8);
    let pinned: [(&[TokenId], usize); 5] = [
        (&[], 1),
        (&[5], 0),
        (&[6], 3),
        (&[7; 8], 1),
        (&[7, 7, 7, 7, 7, 7, 7, 7, 99], 1), // 99 is past the window
    ];
    for (prompt, shard) in pinned {
        assert_eq!(
            router.route(prompt),
            shard,
            "routing of {prompt:?} drifted — persisted affinity is broken"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // The heart of the sharding contract: for every shard, the traces it
    // produced under the full mixed workload are byte-identical to an
    // equivalent single-shard service fed only that shard's requests in
    // the same admission order.
    #[test]
    fn per_shard_traces_match_an_equivalent_single_shard_service(
        workload in proptest::collection::vec(0usize..12, 1..12),
        shard_count in 1usize..5,
        max_batch in 1usize..5,
        trie_capacity in 0usize..4,
    ) {
        let base = Arc::new(InductionLm::paper(0));
        let alt = Arc::new(InductionLm::paper(7));
        let prompts = prompts(&base);

        let sharded = InferenceService::builder()
            .model("default", base.clone())
            .model("alt", alt.clone())
            .shards(shard_count)
            .queue_capacity(workload.len())
            .max_batch(max_batch)
            .prefix_cache_capacity(trie_capacity)
            .build();
        let router = ShardRouter::new(
            sharded.router().shards(),
            sharded.router().prefix_window(),
        );

        // Submit the whole workload up front so shards genuinely batch.
        let handles: Vec<_> = workload
            .iter()
            .map(|&code| {
                let (m, p, seed) = unpack(code);
                sharded
                    .submit(request(m, &prompts[p], seed))
                    .expect("queue sized to the workload never sheds")
            })
            .collect();
        let got: Vec<_> = handles
            .into_iter()
            .map(|h| h.wait().expect("request completes").trace)
            .collect();

        // Replay each shard's slice, in admission order, against a fresh
        // one-shard service with the same knobs.
        for shard in 0..shard_count {
            let single = InferenceService::builder()
                .model("default", base.clone())
                .model("alt", alt.clone())
                .queue_capacity(workload.len().max(1))
                .max_batch(max_batch)
                .prefix_cache_capacity(trie_capacity)
                .build();
            let slice: Vec<_> = workload
                .iter()
                .enumerate()
                .filter(|&(_, &code)| {
                    let (_, p, _) = unpack(code);
                    router.route(&prompts[p]) == shard
                })
                .collect();
            let replayed: Vec<_> = slice
                .iter()
                .map(|&(_, &code)| {
                    let (m, p, seed) = unpack(code);
                    single
                        .submit(request(m, &prompts[p], seed))
                        .expect("queue sized to the workload never sheds")
                })
                .collect();
            for ((i, &code), handle) in slice.iter().zip(replayed) {
                let replay = handle.wait().expect("request completes").trace;
                let (m, p, seed) = unpack(code);
                prop_assert_eq!(
                    &got[*i], &replay,
                    "shard {}/{} diverged from its single-shard replay on \
                     substrate {} prompt {} seed {} (batch={}, trie={})",
                    shard, shard_count, m, p, seed, max_batch, trie_capacity
                );
            }
        }
    }
}
