//! Prefix cache: a bounded LRU list of forkable session snapshots keyed
//! by prompt token ids.
//!
//! The paper's workload is pathologically prefix-heavy: every (task, seed)
//! cell of the experiment grid re-sends the same multi-thousand-token ICL
//! prompt, and the LLAMBO helpers fan one prompt out across sampling seeds.
//! The cache makes the service pay each distinct prompt's prefill once:
//! after a miss the scheduler inserts a snapshot of the freshly prefilled
//! session under the prompt, and subsequent requests fork it — a deep copy,
//! so the cached snapshot is never mutated — and only prefill the remainder.
//!
//! The cache holds at most `capacity` entries, each a prompt key, its
//! snapshot and a last-used tick; nothing outlives its entry, so memory is
//! bounded by the live snapshots and their keys. A lookup forks the entry
//! with the longest key that is a prefix of the prompt (keys are unique, so
//! there are no ties). Eviction is LRU by a logical tick counter (no wall
//! clock — the whole stack must stay deterministic).

use lmpeel_lm::DecodeSession;
use lmpeel_tokenizer::TokenId;

/// Hit/miss accounting, exposed through the service's stats.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrieStats {
    /// Lookups where the full prompt was cached (zero prefill).
    pub full_hits: u64,
    /// Lookups that found a cached proper prefix of the prompt.
    pub partial_hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Prompt tokens recovered from snapshots across all lookups.
    pub tokens_reused: u64,
    /// Prompt tokens the scheduler actually prefilled.
    pub tokens_prefilled: u64,
    /// Snapshots dropped by LRU eviction.
    pub evictions: u64,
}

impl TrieStats {
    /// Fold `other`'s counters into `self` — the aggregation used both by
    /// the scheduler (summing per-substrate tries) and by
    /// [`crate::ServeStats::merge`] (summing per-shard blocks).
    pub fn merge(&mut self, other: &TrieStats) {
        let TrieStats {
            full_hits,
            partial_hits,
            misses,
            tokens_reused,
            tokens_prefilled,
            evictions,
        } = other;
        self.full_hits += full_hits;
        self.partial_hits += partial_hits;
        self.misses += misses;
        self.tokens_reused += tokens_reused;
        self.tokens_prefilled += tokens_prefilled;
        self.evictions += evictions;
    }
}

struct Entry {
    key: Box<[TokenId]>,
    session: Box<dyn DecodeSession>,
    last_used: u64,
}

/// The prefix cache. One per registered substrate.
pub(crate) struct PrefixTrie {
    /// Live snapshots, at most `capacity`, in no particular order.
    entries: Vec<Entry>,
    /// Maximum live snapshots; 0 disables caching entirely.
    capacity: usize,
    tick: u64,
    stats: TrieStats,
}

impl PrefixTrie {
    /// Empty cache holding at most `capacity` snapshots.
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            entries: Vec::new(),
            capacity,
            tick: 0,
            stats: TrieStats::default(),
        }
    }

    /// Fork the longest cached snapshot whose prompt is a prefix of
    /// `prompt`. Returns the fork and how many prompt tokens it already
    /// contains; `None` on a miss. Accounting: a full-length match counts as
    /// a full hit, any shorter one as a partial hit.
    pub(crate) fn lookup(&mut self, prompt: &[TokenId]) -> Option<(Box<dyn DecodeSession>, usize)> {
        let Some(entry) = self
            .entries
            .iter_mut()
            .filter(|e| prompt.starts_with(&e.key))
            .max_by_key(|e| e.key.len())
        else {
            self.stats.misses += 1;
            return None;
        };
        self.tick += 1;
        entry.last_used = self.tick;
        let depth = entry.key.len();
        if depth == prompt.len() {
            self.stats.full_hits += 1;
        } else {
            self.stats.partial_hits += 1;
        }
        self.stats.tokens_reused += depth as u64;
        Some((entry.session.fork(), depth))
    }

    /// Cache a snapshot (a fork) of a session whose contents are exactly
    /// `prompt`. Replaces any existing snapshot of that prompt; evicts the
    /// least-recently-used snapshot when over capacity. A disabled cache
    /// takes no fork.
    pub(crate) fn insert(&mut self, prompt: &[TokenId], session: &dyn DecodeSession) {
        if self.capacity == 0 {
            return;
        }
        debug_assert_eq!(
            session.tokens(),
            prompt,
            "snapshot must hold exactly the prompt"
        );
        let session = session.fork();
        self.tick += 1;
        if let Some(entry) = self.entries.iter_mut().find(|e| *e.key == *prompt) {
            entry.session = session;
            entry.last_used = self.tick;
            return;
        }
        if self.entries.len() == self.capacity {
            let coldest = (0..self.entries.len()).min_by_key(|&i| self.entries[i].last_used);
            if let Some(i) = coldest {
                self.entries.swap_remove(i);
                self.stats.evictions += 1;
            }
        }
        self.entries.push(Entry {
            key: prompt.into(),
            session,
            last_used: self.tick,
        });
    }

    /// Record prompt tokens the scheduler prefilled for a request (kept
    /// here so reuse and prefill counts live in one ledger).
    pub(crate) fn note_prefilled(&mut self, tokens: u64) {
        self.stats.tokens_prefilled += tokens;
    }

    /// Snapshot of the accounting counters.
    pub(crate) fn stats(&self) -> TrieStats {
        self.stats
    }

    /// Number of live snapshots.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// A trivial session for trie tests: tokens only, no model.
    #[derive(Clone)]
    struct StubSession {
        tokens: Vec<TokenId>,
    }

    impl StubSession {
        fn over(tokens: &[TokenId]) -> Self {
            Self {
                tokens: tokens.to_vec(),
            }
        }
    }

    impl DecodeSession for StubSession {
        fn tokens(&self) -> &[TokenId] {
            &self.tokens
        }
        fn append(&mut self, token: TokenId) {
            self.tokens.push(token);
        }
        fn logits(&self) -> Vec<f32> {
            vec![0.0; 4]
        }
        fn fork(&self) -> Box<dyn DecodeSession> {
            Box::new(self.clone())
        }
    }

    #[test]
    fn miss_then_full_hit_then_partial_hit() {
        let mut trie = PrefixTrie::new(4);
        let prompt = vec![1, 2, 3];

        assert!(trie.lookup(&prompt).is_none());
        assert_eq!(trie.stats().misses, 1);

        trie.insert(&prompt, &StubSession::over(&prompt));
        let (s, reused) = trie.lookup(&prompt).expect("full hit");
        assert_eq!(reused, 3);
        assert_eq!(s.tokens(), &prompt[..]);
        assert_eq!(trie.stats().full_hits, 1);
        assert_eq!(trie.stats().tokens_reused, 3);

        // A longer prompt sharing the prefix: partial hit at depth 3.
        let longer = vec![1, 2, 3, 4, 5];
        let (s, reused) = trie.lookup(&longer).expect("partial hit");
        assert_eq!(reused, 3);
        assert_eq!(s.len(), 3);
        assert_eq!(trie.stats().partial_hits, 1);
        assert_eq!(trie.stats().tokens_reused, 6);

        // A diverging prompt: miss (no snapshot on its path).
        assert!(trie.lookup(&[9, 9]).is_none());
        assert_eq!(trie.stats().misses, 2);
    }

    #[test]
    fn deepest_snapshot_wins() {
        let mut trie = PrefixTrie::new(4);
        trie.insert(&[1], &StubSession::over(&[1]));
        trie.insert(&[1, 2, 3], &StubSession::over(&[1, 2, 3]));
        let (_, reused) = trie.lookup(&[1, 2, 3, 4]).expect("hit");
        assert_eq!(
            reused, 3,
            "must fork the deepest prefix, not the shallowest"
        );
    }

    #[test]
    fn forks_do_not_mutate_the_snapshot() {
        let mut trie = PrefixTrie::new(4);
        trie.insert(&[1, 2], &StubSession::over(&[1, 2]));
        let (mut fork, _) = trie.lookup(&[1, 2]).unwrap();
        fork.append(3);
        let (again, _) = trie.lookup(&[1, 2]).unwrap();
        assert_eq!(again.tokens(), &[1, 2], "snapshot must stay pristine");
    }

    #[test]
    fn lru_eviction_drops_the_coldest_snapshot() {
        let mut trie = PrefixTrie::new(2);
        trie.insert(&[1], &StubSession::over(&[1]));
        trie.insert(&[2], &StubSession::over(&[2]));
        // Touch [1] so [2] becomes the LRU.
        assert!(trie.lookup(&[1]).is_some());
        trie.insert(&[3], &StubSession::over(&[3]));
        assert_eq!(trie.len(), 2);
        assert_eq!(trie.stats().evictions, 1);
        assert!(trie.lookup(&[2]).is_none(), "the cold snapshot was evicted");
        assert!(trie.lookup(&[1]).is_some());
        assert!(trie.lookup(&[3]).is_some());
    }

    #[test]
    fn reinsert_replaces_without_eviction() {
        let mut trie = PrefixTrie::new(1);
        trie.insert(&[1], &StubSession::over(&[1]));
        trie.insert(&[1], &StubSession::over(&[1]));
        assert_eq!(trie.len(), 1);
        assert_eq!(trie.stats().evictions, 0);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut trie = PrefixTrie::new(0);
        trie.insert(&[1], &StubSession::over(&[1]));
        assert_eq!(trie.len(), 0);
        assert!(trie.lookup(&[1]).is_none());
    }

    #[test]
    fn empty_prompt_snapshot_lives_at_the_root() {
        let mut trie = PrefixTrie::new(2);
        trie.insert(&[], &StubSession::over(&[]));
        let (s, reused) = trie.lookup(&[7, 8]).expect("root hit");
        assert_eq!(reused, 0);
        assert!(s.is_empty());
        // Zero-depth reuse of a non-empty prompt counts as partial.
        assert_eq!(trie.stats().partial_hits, 1);
    }

    #[test]
    fn prefill_ledger_accumulates() {
        let mut trie = PrefixTrie::new(1);
        trie.note_prefilled(10);
        trie.note_prefilled(5);
        assert_eq!(trie.stats().tokens_prefilled, 15);
    }

    /// The token-id trie the flat list replaced: one node per distinct
    /// prompt token ever inserted, snapshots at prompt ends, LRU eviction
    /// by a scan over every node.
    struct Node {
        children: HashMap<TokenId, usize>,
        snapshot: Option<(Box<dyn DecodeSession>, u64)>,
    }

    struct NodeTrie {
        nodes: Vec<Node>,
        capacity: usize,
        live: usize,
        tick: u64,
        stats: TrieStats,
    }

    impl NodeTrie {
        fn new(capacity: usize) -> Self {
            Self {
                nodes: vec![Node {
                    children: HashMap::new(),
                    snapshot: None,
                }],
                capacity,
                live: 0,
                tick: 0,
                stats: TrieStats::default(),
            }
        }

        fn lookup(&mut self, prompt: &[TokenId]) -> Option<(Box<dyn DecodeSession>, usize)> {
            let mut node = 0usize;
            let mut best = self.nodes[0].snapshot.is_some().then_some((0, 0));
            for (depth, t) in prompt.iter().enumerate() {
                let Some(&next) = self.nodes[node].children.get(t) else {
                    break;
                };
                node = next;
                if self.nodes[node].snapshot.is_some() {
                    best = Some((node, depth + 1));
                }
            }
            let Some((node, depth)) = best else {
                self.stats.misses += 1;
                return None;
            };
            self.tick += 1;
            let (session, last_used) = self.nodes[node].snapshot.as_mut().unwrap();
            *last_used = self.tick;
            if depth == prompt.len() {
                self.stats.full_hits += 1;
            } else {
                self.stats.partial_hits += 1;
            }
            self.stats.tokens_reused += depth as u64;
            Some((session.fork(), depth))
        }

        fn insert(&mut self, prompt: &[TokenId], session: &dyn DecodeSession) {
            if self.capacity == 0 {
                return;
            }
            let session = session.fork();
            let mut node = 0usize;
            for &t in prompt {
                node = match self.nodes[node].children.get(&t) {
                    Some(&next) => next,
                    None => {
                        let next = self.nodes.len();
                        self.nodes.push(Node {
                            children: HashMap::new(),
                            snapshot: None,
                        });
                        self.nodes[node].children.insert(t, next);
                        next
                    }
                };
            }
            self.tick += 1;
            let fresh = self.nodes[node]
                .snapshot
                .replace((session, self.tick))
                .is_none();
            if fresh {
                self.live += 1;
                if self.live > self.capacity {
                    let victim = self
                        .nodes
                        .iter()
                        .enumerate()
                        .filter(|&(i, n)| i != node && n.snapshot.is_some())
                        .min_by_key(|(_, n)| n.snapshot.as_ref().unwrap().1)
                        .map(|(i, _)| i);
                    if let Some(i) = victim {
                        self.nodes[i].snapshot = None;
                        self.live -= 1;
                        self.stats.evictions += 1;
                    }
                }
            }
        }
    }

    // Random insert/lookup sequences over a three-token alphabet, so
    // prompts share prefixes, nest and repeat: the flat list forks at the
    // node trie's depths and keeps its size and counters.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn flat_list_matches_the_node_trie(
            capacity in 0usize..5,
            prompts in proptest::collection::vec(proptest::collection::vec(0u32..3, 0..6), 1..60),
            inserts in proptest::collection::vec(proptest::bool::ANY, 60),
        ) {
            let mut cache = PrefixTrie::new(capacity);
            let mut oracle = NodeTrie::new(capacity);
            for (prompt, insert) in prompts.iter().zip(&inserts) {
                if *insert {
                    cache.insert(prompt, &StubSession::over(prompt));
                    oracle.insert(prompt, &StubSession::over(prompt));
                } else {
                    let got = cache.lookup(prompt);
                    let want = oracle.lookup(prompt);
                    prop_assert_eq!(
                        got.map(|(s, d)| (s.tokens().to_vec(), d)),
                        want.map(|(s, d)| (s.tokens().to_vec(), d))
                    );
                }
                prop_assert_eq!(cache.len(), oracle.live);
                prop_assert_eq!(cache.stats(), oracle.stats);
            }
        }
    }

    #[test]
    fn distinct_prompts_never_grow_the_cache_past_capacity() {
        let mut trie = PrefixTrie::new(4);
        for i in 0..1_000u32 {
            let prompt = [i % 7, i, i / 3];
            trie.insert(&prompt, &StubSession::over(&prompt));
        }
        assert_eq!(trie.len(), 4);
        assert_eq!(trie.stats().evictions, 996);
    }
}
