//! Fixture-based rule tests: every rule gets positive (violating),
//! negative (clean) and attested/allowlisted coverage, using the snippet
//! files under `fixtures/` run through the public `lint_source` API under
//! synthetic workspace paths. The lock fixtures additionally pin their
//! full `--json` output so the diagnostic wording, spans and ordering
//! are golden.

use lmpeel_lint::config::Config;
use lmpeel_lint::diag::Rule;
use lmpeel_lint::{lint_source, rules};

fn test_config() -> Config {
    Config::parse(
        r#"
[determinism]
golden_crates = ["core", "lm"]

[clock]
allow = ["crates/kernel/src/measure.rs", "crates/bench/"]

[panic_safety]
scope = ["crates/serve/src/scheduler.rs"]

[locks]
helper = ["crates/serve/src/sync.rs"]
analyze = ["serve", "tune"]

[locks.ranks]
state = 30
stats = 40
rank_lo = 100
rank_hi = 110
"#,
    )
    .expect("fixture config parses")
}

const HASH_ITER: &str = include_str!("../fixtures/hash_iter.rs");
const CLOCK: &str = include_str!("../fixtures/clock.rs");
const PAR_REDUCE: &str = include_str!("../fixtures/par_reduce.rs");
const PANIC_SCHED: &str = include_str!("../fixtures/panic_sched.rs");
const LOCKS: &str = include_str!("../fixtures/locks.rs");
const FORBID_OK: &str = include_str!("../fixtures/forbid_unsafe.rs");
const RANK_INV: &str = include_str!("../fixtures/lock_rank_inversion.rs");
const BLOCKING: &str = include_str!("../fixtures/blocking_under_guard.rs");
const UNWIND: &str = include_str!("../fixtures/unwind_under_guard.rs");
const STALE: &str = include_str!("../fixtures/stale_attest.rs");
const CALLBACK: &str = include_str!("../fixtures/callback_under_guard.rs");

fn rules_of(diags: &[lmpeel_lint::diag::Diagnostic]) -> Vec<Rule> {
    diags.iter().map(|d| d.rule).collect()
}

#[test]
fn hash_iteration_flagged_in_golden_crates_only() {
    let cfg = test_config();
    let diags = lint_source("crates/core/src/fixture.rs", HASH_ITER, &cfg);
    let hash: Vec<_> = diags
        .iter()
        .filter(|d| d.rule == Rule::HashIteration)
        .collect();
    // `.values()` on the HashMap field + `for .. in &agg`; the BTreeMap
    // loop, the lookups, the attested `.keys()` and the #[cfg(test)] body
    // are all exempt.
    assert_eq!(hash.len(), 2, "{hash:?}");
    assert!(hash.iter().any(|d| d.message.contains("values")));
    assert!(hash.iter().any(|d| d.message.contains("for .. in agg")));
    for d in &hash {
        assert!(d.line > 0 && d.col > 0, "span-accurate: {d}");
    }

    // Same file in a non-golden crate: rule does not apply.
    let diags = lint_source("crates/serve/src/fixture.rs", HASH_ITER, &cfg);
    assert!(rules_of(&diags).iter().all(|r| *r != Rule::HashIteration));
}

#[test]
fn clock_reads_flagged_outside_allowlist() {
    let cfg = test_config();
    let diags = lint_source("crates/lm/src/fixture.rs", CLOCK, &cfg);
    let clock: Vec<_> = diags
        .iter()
        .filter(|d| d.rule == Rule::NondeterministicSource)
        .collect();
    // Instant::now, SystemTime::now, thread_rng, .elapsed().
    assert_eq!(clock.len(), 4, "{clock:?}");

    // The measurement substrate and the bench crate are allowlisted.
    for allowed in [
        "crates/kernel/src/measure.rs",
        "crates/bench/src/bin/fixture.rs",
    ] {
        let diags = lint_source(allowed, CLOCK, &cfg);
        assert!(
            diags
                .iter()
                .all(|d| d.rule != Rule::NondeterministicSource),
            "{allowed} is allowlisted: {diags:?}"
        );
    }
}

#[test]
fn par_float_reductions_flagged_unless_attested() {
    let cfg = test_config();
    let diags = lint_source("crates/gbdt/src/fixture.rs", PAR_REDUCE, &cfg);
    let par: Vec<_> = diags
        .iter()
        .filter(|d| d.rule == Rule::UnorderedParReduce)
        .collect();
    // The bare `.par_iter().map().sum()`; the `// lint: det-reduce` site
    // and the collect-then-sequential-sum pattern are clean.
    assert_eq!(par.len(), 1, "{par:?}");
    assert!(par[0].message.contains("sum"));
}

#[test]
fn scheduler_panic_discipline() {
    let cfg = test_config();
    let diags = lint_source("crates/serve/src/scheduler.rs", PANIC_SCHED, &cfg);
    let panics: Vec<_> = diags
        .iter()
        .filter(|d| d.rule == Rule::PanicInScheduler)
        .collect();
    // xs[0], .unwrap(), panic! — the catch_unwind body and the attested
    // expect are exempt.
    assert_eq!(panics.len(), 3, "{panics:?}");

    // Out of scope: the same code elsewhere in serve is not this rule's
    // business.
    let diags = lint_source("crates/serve/src/service.rs", PANIC_SCHED, &cfg);
    assert!(diags.iter().all(|d| d.rule != Rule::PanicInScheduler));
}

#[test]
fn raw_lock_unwraps_flagged_outside_the_helper() {
    let cfg = test_config();
    let diags = lint_source("crates/serve/src/service.rs", LOCKS, &cfg);
    let locks: Vec<_> = diags
        .iter()
        .filter(|d| d.rule == Rule::RawLockUnwrap)
        .collect();
    // .lock().unwrap(), .lock().expect(), .read().unwrap(), the raw
    // `lock_unpoisoned` call, the `.lock().unwrap_or_else(..)` chain and
    // the bare `PoisonError` — six sites; the RankedMutex user is clean.
    assert_eq!(locks.len(), 6, "{locks:?}");
    assert!(locks
        .iter()
        .any(|d| d.message.contains("`lock_unpoisoned` bypasses the named-lock layer")));
    assert!(locks
        .iter()
        .any(|d| d.message.contains("`PoisonError` handled outside")));

    // The helper file itself is the one place allowed to touch the raw
    // poison API.
    let diags = lint_source("crates/serve/src/sync.rs", LOCKS, &cfg);
    assert!(diags.iter().all(|d| d.rule != Rule::RawLockUnwrap));
}

#[test]
fn forbid_unsafe_checked_on_crate_roots() {
    assert!(rules::check_forbid_unsafe("crates/x/src/lib.rs", FORBID_OK).is_none());
    let missing = rules::check_forbid_unsafe("crates/x/src/lib.rs", "pub fn f() {}\n");
    let d = missing.expect("missing attribute is a violation");
    assert_eq!(d.rule, Rule::MissingForbidUnsafe);
    assert!(d.message.contains("forbid(unsafe_code)"));
    // A commented-out attribute does not count.
    let commented = "// #![forbid(unsafe_code)]\npub fn f() {}\n";
    assert!(rules::check_forbid_unsafe("crates/x/src/lib.rs", commented).is_some());
}

#[test]
fn diagnostics_render_ids_and_spans() {
    let cfg = test_config();
    let diags = lint_source("crates/lm/src/fixture.rs", CLOCK, &cfg);
    let rendered = diags[0].to_string();
    assert!(rendered.starts_with("LML0002: crates/lm/src/fixture.rs:"), "{rendered}");
}

// ------------------------------------------------- lock analysis (LML0007+)

#[test]
fn seeded_inversion_caught_statically() {
    // The same fixture `crates/serve/tests/lock_rank.rs` include!s for
    // the runtime half of the cross-check.
    let cfg = test_config();
    let diags = lint_source("crates/serve/src/fixture.rs", RANK_INV, &cfg);
    assert_eq!(rules_of(&diags), vec![Rule::LockOrderCycle; 2], "{diags:?}");
    assert!(
        diags.iter().any(|d| {
            d.message
                .contains("acquiring `rank_lo` (rank 100) while holding `rank_hi` (rank 110)")
                && d.message.contains("(via `grab_lo`)")
        }),
        "rank inversion with its witness chain: {diags:?}"
    );
    assert!(
        diags
            .iter()
            .any(|d| d.message.contains("lock-order cycle:")
                && d.message.contains("rank_hi")
                && d.message.contains("rank_lo")),
        "cycle with both witness paths: {diags:?}"
    );
}

#[test]
fn blocking_under_guard_direct_transitive_attested_and_clean() {
    let cfg = test_config();
    let diags = lint_source("crates/serve/src/fixture.rs", BLOCKING, &cfg);
    let lml8: Vec<_> = diags
        .iter()
        .filter(|d| d.rule == Rule::BlockingUnderLock)
        .collect();
    // The direct recv and the transitive flush_disk→fs::write; the
    // attested write_all and the copy-then-send pattern are clean.
    assert_eq!(lml8.len(), 2, "{lml8:?}");
    assert!(lml8
        .iter()
        .any(|d| d.message.contains("`.recv(..)` while holding lock `stats` (guard `g`)")));
    assert!(lml8.iter().any(|d| {
        d.message
            .contains("call to `flush_disk(..)` reaches `fs::write(..)`")
            && d.message.contains("while lock `stats` (guard `g`) is held")
    }));
    // The blocking-ok attestation is live, so no LML0010 either.
    assert!(diags.iter().all(|d| d.rule != Rule::StaleExemption), "{diags:?}");
}

#[test]
fn guard_across_unwind_direct_transitive_and_clean() {
    let cfg = test_config();
    let diags = lint_source("crates/serve/src/fixture.rs", UNWIND, &cfg);
    let lml9: Vec<_> = diags
        .iter()
        .filter(|d| d.rule == Rule::GuardAcrossUnwind)
        .collect();
    assert_eq!(lml9.len(), 2, "{lml9:?}");
    assert!(lml9.iter().any(|d| {
        d.message
            .contains("lock `state` (guard `g`) is live across this `catch_unwind` boundary")
    }));
    assert!(lml9.iter().any(|d| {
        d.message.contains("call to `isolate(..)` enters `catch_unwind(..)`")
            && d.message.contains("while lock `state` (guard `g`) is live")
    }));
}

#[test]
fn guard_across_callback_and_fn_passed_by_path() {
    let cfg = test_config();
    let diags = lint_source("crates/serve/src/fixture.rs", CALLBACK, &cfg);
    let lml9: Vec<_> = diags
        .iter()
        .filter(|d| d.rule == Rule::GuardAcrossUnwind)
        .collect();
    assert_eq!(lml9.len(), 2, "{diags:?}");
    assert!(lml9.iter().any(|d| {
        d.line == 22
            && d.message.contains(
                "call to callback parameter `step(..)` while lock `state` (a temporary guard) \
                 is live",
            )
    }));
    assert!(lml9.iter().any(|d| {
        d.line == 40
            && d.message.contains("call to `isolate(..)` enters `catch_unwind(..)`")
            && d.message.contains("while lock `state` (guard `g`) is live")
    }));
}

#[test]
fn stale_attestations_flagged_live_ones_kept() {
    let cfg = test_config();
    let diags = lint_source("crates/core/src/fixture.rs", STALE, &cfg);
    // The live `lint: sorted` suppresses its LML0001 silently; the stale
    // one is itself the only finding.
    assert_eq!(rules_of(&diags), vec![Rule::StaleExemption], "{diags:?}");
    assert!(diags[0].message.contains("`// lint: sorted`"), "{diags:?}");
    assert_eq!(diags[0].line, 17, "anchored at the stale marker: {diags:?}");
}

/// The lock fixtures' full `--json` reports are golden: wording, spans
/// and ordering are part of the tool's contract (CI archives them).
#[test]
fn lock_fixture_json_reports_are_pinned() {
    let cfg = test_config();
    let json = |src: &str| {
        let diags = lint_source("crates/serve/src/fixture.rs", src, &cfg);
        lmpeel_lint::diag::to_json(&diags, 1)
    };
    assert_eq!(
        json(RANK_INV),
        "{\"clean\":false,\"checked_files\":1,\"diagnostics\":[\
         {\"rule\":\"LML0007\",\"file\":\"crates/serve/src/fixture.rs\",\"line\":41,\"col\":20,\
         \"message\":\"acquiring `rank_lo` (rank 100) while holding `rank_hi` (rank 110) \
         inverts the declared [locks.ranks] order (via `grab_lo`); the runtime lock-rank \
         sanitizer aborts on exactly this acquisition\"},\
         {\"rule\":\"LML0007\",\"file\":\"crates/serve/src/fixture.rs\",\"line\":41,\"col\":20,\
         \"message\":\"lock-order cycle: `rank_hi` → `rank_lo` here (via `grab_lo`), but \
         `rank_lo` → `rank_hi` at crates/serve/src/fixture.rs:27; one thread per direction \
         deadlocks — pick one order and fix the [locks.ranks] declaration\"}]}"
    );
    assert_eq!(
        json(UNWIND),
        "{\"clean\":false,\"checked_files\":1,\"diagnostics\":[\
         {\"rule\":\"LML0009\",\"file\":\"crates/serve/src/fixture.rs\",\"line\":17,\"col\":9,\
         \"message\":\"lock `state` (guard `g`) is live across this `catch_unwind` boundary: \
         a panic inside poisons the lock under the recovery helper's feet; drop the guard \
         first or attest with `// lint: unwind-ok — <why>`\"},\
         {\"rule\":\"LML0009\",\"file\":\"crates/serve/src/fixture.rs\",\"line\":24,\"col\":9,\
         \"message\":\"call to `isolate(..)` enters `catch_unwind(..)` \
         (crates/serve/src/fixture.rs:5) while lock `state` (guard `g`) is live; a panic \
         there poisons the held lock; drop the guard first or attest with \
         `// lint: unwind-ok — <why>`\"}]}"
    );
}
