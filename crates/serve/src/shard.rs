//! Multi-core serving: the prefix-affinity router in front of an
//! [`crate::InferenceService`]'s scheduler shards.
//!
//! One scheduler thread is a single-shard service's scale ceiling: every
//! decode step of every in-flight request funnels through it, and its one
//! prefix trie is the only cache capacity the whole workload gets.
//! [`crate::ServiceBuilder::shards`] removes both limits at once. The
//! service then owns `N` complete schedulers — each with its own thread,
//! its own substrate replicas and its own per-substrate prefix tries — and
//! a [`ShardRouter`] that assigns every request to a shard by **hashing
//! the prompt's prefix window**. Requests sharing a prompt prefix
//! therefore land on the same shard, so prefix-cache hits stay
//! shard-local: the aggregate trie capacity scales with the shard count
//! instead of being split uselessly across caches that each see every
//! prompt.
//!
//! # Determinism boundary
//!
//! Per-shard behaviour is exactly the one-shard service's — fusion,
//! circuit breakers, retries and trace bytes are all per-shard state, and
//! a shard fed some request stream behaves byte-identically to a
//! one-shard service fed the same stream (pinned by `tests/sharded.rs`).
//! What sharding deliberately does **not** pin is *cross-shard completion
//! order*: shards run on independent OS threads, so which shard retires
//! first is timing. Callers observe order only through their own
//! [`crate::ResponseHandle`]s, and each handle's bytes are a function of
//! its request alone, so the reported (not pinned) cross-shard order
//! cannot leak into any golden artifact.

use lmpeel_recover::{fnv1a64_extend, FNV1A64_OFFSET};
use lmpeel_tokenizer::TokenId;
use std::num::NonZeroUsize;

/// Assigns requests to shards by prompt-prefix hash.
///
/// The router hashes the first [`prefix_window`](ShardRouter::prefix_window)
/// tokens of the prompt (the whole prompt when shorter) and reduces the
/// hash modulo the shard count. Two prompts agreeing on the window land on
/// the same shard even if they diverge later — which is precisely what the
/// prefix trie wants: divergent-tail requests score a *partial* hit against
/// the shard-local snapshot of their common prefix instead of missing in
/// `N-1` foreign caches.
///
/// Routing looks at the prompt only, not the substrate, so one prompt
/// family's induction and transformer traffic colocates and the per-shard
/// multi-substrate registry behaves exactly like the single-shard one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRouter {
    shards: NonZeroUsize,
    prefix_window: usize,
}

impl ShardRouter {
    /// Router over `shards` shards keyed on the first `prefix_window`
    /// prompt tokens (`shards` is clamped to at least 1; a zero window
    /// routes everything to shard 0).
    pub fn new(shards: usize, prefix_window: usize) -> Self {
        Self {
            shards: NonZeroUsize::new(shards.max(1)).expect("max(1) is nonzero"),
            prefix_window,
        }
    }

    /// Number of shards this router spreads over.
    pub fn shards(&self) -> usize {
        self.shards.get()
    }

    /// Prompt tokens considered by the affinity hash.
    pub fn prefix_window(&self) -> usize {
        self.prefix_window
    }

    /// The shard that owns `prompt`'s prefix. Pure and process-stable:
    /// equal prefixes give equal shards, today and on every rerun.
    pub fn route(&self, prompt: &[TokenId]) -> usize {
        let window = prompt.len().min(self.prefix_window);
        // FNV-1a over the tokens' LE bytes: process-stable (unlike the
        // std hasher's per-process random keys), so routing is the same
        // on every run and machine, as the router proptests pin.
        let h = prompt[..window]
            .iter()
            .fold(FNV1A64_OFFSET, |h, t| fnv1a64_extend(h, &t.to_le_bytes()));
        (h % self.shards.get() as u64) as usize
    }
}

/// Default routing window: long enough that distinct ICL prompt families
/// (which differ inside their first example line) hash apart, short
/// enough that one family's per-seed and per-query variants — which agree
/// far beyond this — always colocate.
pub const DEFAULT_PREFIX_WINDOW: usize = 64;

/// Shard count requested through the environment: `LMPEEL_SHARDS=N` when
/// `N` is a positive integer, otherwise 1 — unset, empty, `0` and
/// unparsable values all mean "stay single-shard". Shard count cannot
/// change any request's bytes, so reading it cannot perturb golden
/// outputs.
pub fn shards_from_env() -> usize {
    parse_shards(std::env::var("LMPEEL_SHARDS").ok().as_deref())
}

fn parse_shards(value: Option<&str>) -> usize {
    value
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(1)
        .max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GenerateRequest, InferenceService, RequestError, ServeStats, ShardedService};
    use lmpeel_lm::{generate, GenerateSpec, InductionLm, LanguageModel};
    use std::sync::Arc;

    fn spec(seed: u64) -> GenerateSpec {
        GenerateSpec::builder()
            .max_tokens(5)
            .seed(seed)
            .build()
            .unwrap()
    }

    fn icl_prompt(model: &InductionLm, v: &str) -> Vec<TokenId> {
        model.tokenizer().encode(&format!(
            "Hyperparameter configuration: outer_loop_tiling_factor is 80\n\
             Performance: {v}\nHyperparameter configuration: \
             outer_loop_tiling_factor is 80\nPerformance: "
        ))
    }

    #[test]
    fn router_is_stable_and_in_range() {
        let r = ShardRouter::new(4, 8);
        let prompts: Vec<Vec<TokenId>> = (0..32u32)
            .map(|i| (0..12).map(|j| i * 31 + j).collect())
            .collect();
        for p in &prompts {
            let shard = r.route(p);
            assert!(shard < 4);
            assert_eq!(shard, r.route(p), "routing must be pure");
            assert_eq!(
                shard,
                ShardRouter::new(4, 8).route(p),
                "routing must not depend on router identity"
            );
        }
    }

    #[test]
    fn prompts_sharing_the_window_share_a_shard() {
        let r = ShardRouter::new(8, 6);
        let base: Vec<TokenId> = (0..6).collect();
        let mut a = base.clone();
        a.extend([100, 101]);
        let mut b = base.clone();
        b.extend([200, 201, 202]);
        assert_eq!(r.route(&a), r.route(&b), "divergence past the window");
        assert_eq!(r.route(&base), r.route(&a), "window-length prompt");
    }

    #[test]
    fn zero_shards_clamps_to_one_and_empty_prompts_route() {
        let r = ShardRouter::new(0, 64);
        assert_eq!(r.shards(), 1);
        assert_eq!(r.route(&[]), 0);
        let r = ShardRouter::new(3, 0);
        let a: Vec<TokenId> = vec![1, 2, 3];
        let b: Vec<TokenId> = vec![9, 9];
        assert_eq!(r.route(&a), r.route(&b), "zero window routes uniformly");
    }

    #[test]
    fn sharded_traces_match_sequential_generation() {
        let model = Arc::new(InductionLm::paper(0));
        let service = InferenceService::builder()
            .shards(3)
            .model("default", model.clone())
            .build();
        for (i, v) in ["0.0022155", "0.0051230", "0.0031999"].iter().enumerate() {
            let prompt = icl_prompt(&model, v);
            let expected = generate(&model, &prompt, &spec(i as u64)).unwrap();
            let got = service
                .generate(GenerateRequest::new("default", prompt, spec(i as u64)))
                .unwrap();
            assert_eq!(got.trace, expected, "prompt {i}");
        }
        let stats = service.shutdown().expect("clean join");
        assert_eq!(stats.completed, 3);
        assert_eq!(stats.submitted, 3);
    }

    #[test]
    fn per_shard_replica_factories_run_once_per_shard() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for shards in [1, 3] {
            let built = Arc::new(AtomicUsize::new(0));
            let b2 = Arc::clone(&built);
            let service = InferenceService::builder()
                .shards(shards)
                .model_factory("default", move |_shard| {
                    b2.fetch_add(1, Ordering::SeqCst);
                    Arc::new(InductionLm::paper(0))
                })
                .build();
            assert_eq!(built.load(Ordering::SeqCst), shards);
            drop(service);
        }
    }

    #[test]
    fn one_shard_by_default_and_the_alias_builds_n() {
        assert_eq!(InferenceService::builder().build().shard_stats().len(), 1);
        let sharded = ShardedService::builder().shards(3).build();
        assert_eq!(sharded.shard_stats().len(), 3);
        assert_eq!(sharded.router().shards(), 3);
    }

    #[test]
    fn shard_count_parsing_falls_back_to_one() {
        for (value, shards) in [
            (None, 1),
            (Some(""), 1),
            (Some("0"), 1),
            (Some("garbage"), 1),
            (Some("4"), 4),
            (Some(" 4 "), 4),
        ] {
            assert_eq!(parse_shards(value), shards, "{value:?}");
        }
    }

    /// `shutdown` drains every shard at once: while shard 0 is held in
    /// flight, work queued on another shard must be rejected with
    /// `ShutDown`, not admitted because that shard's drain flag was still
    /// waiting for shard 0 to join.
    #[test]
    fn shutdown_drains_every_shard_before_joining_any() {
        use crate::faults::{Fault, FaultGate, FaultyLm};
        let gates = [FaultGate::new(), FaultGate::new()];
        let shard_gates = gates.clone();
        let service = InferenceService::builder()
            .shards(2)
            .model_factory("gated", move |shard| {
                Arc::new(FaultyLm::new(
                    Arc::new(InductionLm::paper(0)),
                    Fault::HangUntilGate(Arc::clone(&shard_gates[shard])),
                ))
            })
            .max_batch(1)
            .queue_capacity(4)
            .build();
        let model = InductionLm::paper(0);
        let prompt_on = |shard: usize| {
            (0..)
                .map(|i| model.tokenizer().encode(&format!("Performance: {i}")))
                .find(|p| service.router().route(p) == shard)
                .expect("both shards own some prompt")
        };
        let (p0, p1) = (prompt_on(0), prompt_on(1));
        // A holds shard 0, B holds shard 1, C queues on shard 1 behind B.
        let a = service
            .submit(GenerateRequest::new("gated", p0, spec(0)))
            .unwrap();
        gates[0].wait_entered();
        let b = service
            .submit(GenerateRequest::new("gated", p1.clone(), spec(1)))
            .unwrap();
        gates[1].wait_entered();
        let c = service
            .submit(GenerateRequest::new("gated", p1, spec(2)))
            .unwrap();
        // Once shutdown is underway, release shard 1 and let C resolve
        // while shard 0 is still held: a drain that waited on shard 0's
        // join would let shard 1 admit and finish C.
        let opener = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(250));
            gates[1].open();
            let c = c.wait();
            gates[0].open();
            c
        });
        let stats = service.shutdown().expect("clean join");
        assert_eq!(opener.join().unwrap().unwrap_err(), RequestError::ShutDown);
        assert!(a.wait().is_ok());
        assert!(b.wait().is_ok());
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.drained, 1);
    }

    #[test]
    fn stats_aggregate_across_shards() {
        let model = Arc::new(InductionLm::paper(0));
        let service = InferenceService::builder()
            .shards(4)
            .model("default", model.clone())
            .build();
        let prompts: Vec<Vec<TokenId>> = ["0.0022155", "0.0051230", "0.0031999", "0.0040000"]
            .iter()
            .map(|v| icl_prompt(&model, v))
            .collect();
        // Two requests per prompt: the second full-hits its shard's trie.
        for p in &prompts {
            for seed in 0..2 {
                service
                    .generate(GenerateRequest::new("default", p.clone(), spec(seed)))
                    .unwrap();
            }
        }
        let unknown = service
            .generate(GenerateRequest::new("nope", prompts[0].clone(), spec(0)))
            .unwrap_err();
        assert!(matches!(unknown, RequestError::UnknownSubstrate(_)));
        let merged = service.stats();
        let per_shard = service.shard_stats();
        assert_eq!(merged, ServeStats::merged(per_shard.iter()));
        assert_eq!(merged.submitted, 9);
        assert_eq!(merged.completed, 8);
        assert_eq!(merged.failed, 1);
        assert_eq!(
            merged.prefix.full_hits, 4,
            "each prompt's second request hits its shard-local trie"
        );
        assert_eq!(merged.prefix.misses, 4);
    }
}
