//! The persistent, shippable tune cache.
//!
//! A [`TuneCache`] is a [`RunJournal`] of [`TuneEntry`] records keyed by
//! `(kernel, size ordinal, hardware fingerprint)`: one entry per tuning
//! problem, holding the winning configuration and everything needed to
//! answer a repeat query without re-measuring. Two properties make the
//! file *shippable*:
//!
//! * every cached field is a deterministic function of the tuning request
//!   (wall-clock statistics from validation are reported to the caller
//!   but never written), so two machines with the same hardware
//!   fingerprint produce byte-identical entries; and
//! * [`TuneCache::publish`] rewrites the file as the canonical key-ordered
//!   snapshot via `atomic_write`, so the bytes on disk do not depend on
//!   the order tunes happened to complete (or crash) in.
//!
//! The hardware fingerprint ([`machine_fingerprint`]) hashes the machine
//! model's parameters by *field name* (a `BTreeMap` walk), so it is
//! stable across restarts and insensitive to the declaration order of
//! [`MachineModel`]'s fields.

use lmpeel_configspace::ArraySize;
use lmpeel_core::journal::{size_from_ordinal, size_ordinal};
use lmpeel_perfdata::MachineModel;
use lmpeel_recover::wire::{self, Reader};
use lmpeel_recover::{fnv1a64, JournalError, JournalRecord, Recovery, RunJournal};
use std::collections::BTreeMap;
use std::path::Path;

#[cfg(any(test, feature = "fault-inject"))]
use lmpeel_recover::CrashAfter;

/// Version of the [`TuneEntry`] encoding; folded into the cache-file
/// fingerprint so a cache written by an older codec is refused instead of
/// misparsed.
pub const CACHE_CODEC_VERSION: u32 = 1;

/// Cache key: `(kernel name, size ordinal, hardware fingerprint)`.
pub type TuneKey = (String, u8, u64);

/// Journal-header fingerprint of every tune cache file: the cache is not
/// bound to one plan (it accumulates entries across kernels and sizes),
/// only to its name and codec.
fn cache_fingerprint() -> u64 {
    let mut buf = Vec::new();
    wire::put_str(&mut buf, "lmpeel-tune-cache");
    wire::put_u32(&mut buf, CACHE_CODEC_VERSION);
    fnv1a64(&buf)
}

/// Hash named hardware parameters into a fingerprint, insensitive to the
/// order the `(name, value)` pairs are supplied in: pairs are sorted by
/// name before hashing, and values hash as IEEE-754 bit patterns.
fn fingerprint_fields(fields: &[(&str, f64)]) -> u64 {
    let ordered: BTreeMap<&str, u64> = fields.iter().map(|&(n, v)| (n, v.to_bits())).collect();
    let mut buf = Vec::new();
    wire::put_str(&mut buf, "lmpeel-tune-machine");
    wire::put_u32(&mut buf, CACHE_CODEC_VERSION);
    wire::put_usize(&mut buf, ordered.len());
    for (name, bits) in ordered {
        wire::put_str(&mut buf, name);
        wire::put_u64(&mut buf, bits);
    }
    fnv1a64(&buf)
}

/// The hardware fingerprint a [`TuneEntry`] is keyed by: every parameter
/// of the machine model, hashed by field name so neither restart nor
/// struct-field reordering changes the key.
pub fn machine_fingerprint(m: &MachineModel) -> u64 {
    fingerprint_fields(&[
        ("l1_bytes", m.l1_bytes),
        ("l2_bytes", m.l2_bytes),
        ("l3_bytes", m.l3_bytes),
        ("line_bytes", m.line_bytes),
        ("peak_flops", m.peak_flops),
        ("dram_bw", m.dram_bw),
        ("l3_bw", m.l3_bw),
        ("l2_bw", m.l2_bw),
        ("stride_penalty_max", m.stride_penalty_max),
    ])
}

/// One committed tuning result. Every field is deterministic in the
/// request `(kernel, size, budget, seed)` and the hardware fingerprint —
/// wall-clock validation statistics are deliberately excluded so the
/// cache file is byte-reproducible.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneEntry {
    /// Kernel name (currently always `"syr2k"`).
    pub kernel: String,
    /// Problem size, as [`size_ordinal`].
    pub size_ord: u8,
    /// [`machine_fingerprint`] of the hardware the tune targeted.
    pub hw_fingerprint: u64,
    /// Evaluation budget the search ran with.
    pub budget: u64,
    /// Search seed.
    pub seed: u64,
    /// Name of the winning strategy (for reports).
    pub strategy: String,
    /// Winning configuration, as its index in the kernel's config space.
    pub config_index: u64,
    /// The winner's surrogate-measured runtime in seconds.
    pub surrogate_runtime: f64,
    /// Whether the winning configuration's real-kernel output matched the
    /// reference nest (deterministic: a checksum comparison).
    pub validated: bool,
}

impl TuneEntry {
    /// The cache key for a `(kernel, size, hardware)` triple.
    pub fn key_of(kernel: &str, size: ArraySize, hw_fingerprint: u64) -> TuneKey {
        (kernel.to_string(), size_ordinal(size), hw_fingerprint)
    }

    /// The entry's size, if the ordinal is valid.
    pub fn size(&self) -> Option<ArraySize> {
        size_from_ordinal(self.size_ord)
    }
}

impl JournalRecord for TuneEntry {
    type Key = TuneKey;

    fn key(&self) -> TuneKey {
        (self.kernel.clone(), self.size_ord, self.hw_fingerprint)
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        wire::put_str(buf, &self.kernel);
        wire::put_u8(buf, self.size_ord);
        wire::put_u64(buf, self.hw_fingerprint);
        wire::put_u64(buf, self.budget);
        wire::put_u64(buf, self.seed);
        wire::put_str(buf, &self.strategy);
        wire::put_u64(buf, self.config_index);
        wire::put_f64(buf, self.surrogate_runtime);
        wire::put_bool(buf, self.validated);
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader::new(bytes);
        let entry = TuneEntry {
            kernel: r.str()?,
            size_ord: r.u8()?,
            hw_fingerprint: r.u64()?,
            budget: r.u64()?,
            seed: r.u64()?,
            strategy: r.str()?,
            config_index: r.u64()?,
            surrogate_runtime: r.f64()?,
            validated: r.bool()?,
        };
        r.is_done().then_some(entry)
    }
}

/// The persistent tune cache: a keyed journal of [`TuneEntry`] records
/// with durable commits and an atomically-published canonical snapshot.
pub struct TuneCache {
    journal: RunJournal<TuneEntry>,
}

impl TuneCache {
    /// Open (or create) the cache at `path`, salvaging any committed
    /// prefix. Refuses a file written by a different codec version.
    pub fn open(path: impl AsRef<Path>) -> Result<(Self, Recovery), JournalError> {
        let (journal, recovery) = RunJournal::open(path, cache_fingerprint())?;
        Ok((Self { journal }, recovery))
    }

    /// The cached entry for `key`, if a tune for it has committed.
    pub fn lookup(&self, key: &TuneKey) -> Option<&TuneEntry> {
        self.journal.get(key)
    }

    /// Durably commit one tuning result (write + flush + fsync).
    pub fn commit(&mut self, entry: &TuneEntry) -> Result<(), JournalError> {
        self.journal.commit(entry)
    }

    /// Atomically rewrite the file as the canonical key-ordered snapshot,
    /// making the bytes on disk independent of commit order — the
    /// "shippable" form.
    pub fn publish(&mut self) -> Result<(), JournalError> {
        self.journal.publish()
    }

    /// The canonical snapshot bytes [`Self::publish`] would write.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        self.journal.snapshot_bytes()
    }

    /// All cached entries, in key order.
    pub fn entries(&self) -> impl Iterator<Item = &TuneEntry> {
        self.journal.records()
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.journal.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.journal.is_empty()
    }

    /// The cache file's path.
    pub fn path(&self) -> &Path {
        self.journal.path()
    }

    /// Arm the deterministic kill-point hook on the underlying journal.
    #[cfg(any(test, feature = "fault-inject"))]
    pub fn crash_after(&mut self, crash: CrashAfter) {
        self.journal.crash_after(crash);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("lmpeel-tune-cache-{}-{name}", std::process::id()))
    }

    fn entry(kernel: &str, size_ord: u8, hw: u64) -> TuneEntry {
        TuneEntry {
            kernel: kernel.to_string(),
            size_ord,
            hw_fingerprint: hw,
            budget: 24,
            seed: 7,
            strategy: "gbdt-surrogate(init=8, pool=256)".into(),
            config_index: 4242,
            surrogate_runtime: 0.125,
            validated: true,
        }
    }

    #[test]
    fn cache_misses_then_hits_and_publishes_canonically() {
        let path = tmp("miss-hit");
        let _ = std::fs::remove_file(&path);
        let key = TuneEntry::key_of("syr2k", ArraySize::SM, 99);
        {
            let (mut cache, rc) = TuneCache::open(&path).unwrap();
            assert_eq!(rc.records, 0);
            assert!(cache.lookup(&key).is_none(), "fresh cache misses");
            cache.commit(&entry("syr2k", 1, 99)).unwrap();
            cache.publish().unwrap();
        }
        let published = std::fs::read(&path).unwrap();
        let (cache, rc) = TuneCache::open(&path).unwrap();
        assert_eq!(rc.records, 1);
        assert_eq!(cache.lookup(&key).unwrap().config_index, 4242);
        // Publishing an already-canonical file must not change a byte.
        assert_eq!(cache.snapshot_bytes(), published);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn published_bytes_are_commit_order_independent() {
        let (pa, pb) = (tmp("order-a"), tmp("order-b"));
        let _ = std::fs::remove_file(&pa);
        let _ = std::fs::remove_file(&pb);
        let (mut a, _) = TuneCache::open(&pa).unwrap();
        let (mut b, _) = TuneCache::open(&pb).unwrap();
        for ord in [2u8, 0, 1] {
            a.commit(&entry("syr2k", ord, 5)).unwrap();
        }
        for ord in [0u8, 1, 2] {
            b.commit(&entry("syr2k", ord, 5)).unwrap();
        }
        a.publish().unwrap();
        b.publish().unwrap();
        assert_eq!(
            std::fs::read(&pa).unwrap(),
            std::fs::read(&pb).unwrap(),
            "published caches are byte-identical regardless of commit order"
        );
        std::fs::remove_file(&pa).unwrap();
        std::fs::remove_file(&pb).unwrap();
    }

    #[test]
    fn wrong_codec_version_is_refused() {
        let path = tmp("codec");
        let _ = std::fs::remove_file(&path);
        {
            let (mut cache, _) = TuneCache::open(&path).unwrap();
            cache.commit(&entry("syr2k", 0, 1)).unwrap();
        }
        // A journal with a different fingerprint at the same path.
        let Err(err) = RunJournal::<TuneEntry>::open(&path, cache_fingerprint() ^ 1) else {
            panic!("wrong fingerprint must be refused");
        };
        assert!(matches!(err, JournalError::FingerprintMismatch { .. }));
        std::fs::remove_file(&path).unwrap();
    }

    /// Pinned so a codec or field change that silently re-keys every
    /// shipped cache entry fails loudly. If this breaks on purpose, bump
    /// [`CACHE_CODEC_VERSION`].
    #[test]
    fn epyc_fingerprint_is_stable_across_restarts() {
        let a = machine_fingerprint(&MachineModel::epyc_7742());
        let b = machine_fingerprint(&MachineModel::default());
        assert_eq!(a, b);
        assert_eq!(a, 0x458B_1B58_0668_02AE, "pinned epyc_7742 fingerprint");
    }

    #[test]
    fn fingerprint_separates_different_hardware() {
        let epyc = MachineModel::epyc_7742();
        let mut bigger_l3 = epyc;
        bigger_l3.l3_bytes *= 2.0;
        assert_ne!(machine_fingerprint(&epyc), machine_fingerprint(&bigger_l3));
    }

    const FIELD_NAMES: [&str; 9] = [
        "l1_bytes",
        "l2_bytes",
        "l3_bytes",
        "line_bytes",
        "peak_flops",
        "dram_bw",
        "l3_bw",
        "l2_bw",
        "stride_penalty_max",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // The hardware fingerprint may not depend on the order the fields
        // are listed in: permute them arbitrarily and the hash is
        // unchanged (so struct-field reordering can never re-key a
        // shipped cache).
        #[test]
        fn fingerprint_is_field_order_insensitive(
            vals in proptest::collection::vec(0.0f64..1e12, 9),
            perm_seed in 0u64..u64::MAX,
        ) {
            let mut fields: Vec<(&str, f64)> =
                FIELD_NAMES.iter().copied().zip(vals.iter().copied()).collect();
            let reference = fingerprint_fields(&fields);
            // Deterministic Fisher-Yates driven by splitmix64.
            let mut state = perm_seed;
            for i in (1..fields.len()).rev() {
                state = lmpeel_recover::splitmix64(state);
                fields.swap(i, (state % (i as u64 + 1)) as usize);
            }
            prop_assert_eq!(fingerprint_fields(&fields), reference);
        }

        // Restart-stability: the fingerprint is a pure function of the
        // values (no per-process hash state), so recomputing it from the
        // same values always matches.
        #[test]
        fn fingerprint_is_a_pure_function(
            vals in proptest::collection::vec(0.0f64..1e12, 9),
        ) {
            let fields: Vec<(&str, f64)> =
                FIELD_NAMES.iter().copied().zip(vals.iter().copied()).collect();
            prop_assert_eq!(fingerprint_fields(&fields), fingerprint_fields(&fields));
        }
    }
}
