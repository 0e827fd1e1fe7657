//! Meta-test: the workspace itself is lint-clean. This is the same check
//! CI runs via `cargo run -p lmpeel-lint -- --json`, so a violation fails
//! `cargo test` even before the dedicated CI job gets to it.

use lmpeel_lint::lex::{self, Kind};
use lmpeel_lint::{config::Config, lint_workspace};
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels below the workspace root")
        .to_path_buf()
}

#[test]
fn workspace_has_no_violations() {
    let root = workspace_root();
    assert!(
        root.join("lint.toml").is_file(),
        "lint.toml missing at workspace root {}",
        root.display()
    );
    let cfg = Config::load(&root.join("lint.toml")).expect("lint.toml parses");
    let report = lint_workspace(&root, &cfg).expect("workspace walk");
    assert!(
        report.checked_files > 50,
        "suspiciously few files checked: {}",
        report.checked_files
    );
    assert!(
        report.diagnostics.is_empty(),
        "workspace must be lint-clean, found {} violation(s):\n{}",
        report.diagnostics.len(),
        report
            .diagnostics
            .iter()
            .map(|d| format!("  {d}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The static analysis (lint.toml `[locks.ranks]`) and the runtime
/// sanitizer (`LOCK_RANKS` in `crates/serve/src/sync.rs`) must enforce
/// the *same* total order, or one net could pass what the other rejects.
/// This lexes the sync module and compares the tables entry for entry.
#[test]
fn lock_ranks_match_the_runtime_sanitizer_table() {
    let root = workspace_root();
    let cfg = Config::load(&root.join("lint.toml")).expect("lint.toml parses");
    let sync_src =
        std::fs::read_to_string(root.join("crates/serve/src/sync.rs")).expect("sync.rs readable");
    let tokens = lex::lex(&sync_src).tokens;

    // `pub const LOCK_RANKS .. = &[("name", rank), ..];`
    let start = tokens
        .iter()
        .position(|t| t.is_ident("LOCK_RANKS"))
        .expect("LOCK_RANKS declared in sync.rs");
    let mut runtime: Vec<(String, u32)> = Vec::new();
    let mut i = start;
    while i < tokens.len() && !tokens[i].is_ch(';') {
        if tokens[i].kind == Kind::Lit {
            let name = tokens[i].text.trim_matches('"').to_string();
            let rank = tokens[i + 1..]
                .iter()
                .find(|t| t.kind == Kind::Num)
                .and_then(|t| t.text.parse::<u32>().ok())
                .expect("rank literal follows the name");
            runtime.push((name, rank));
        }
        i += 1;
    }
    assert_eq!(
        cfg.lock_ranks, runtime,
        "lint.toml [locks.ranks] and sync.rs LOCK_RANKS diverged — \
         update both so the static and runtime checks agree"
    );
}
