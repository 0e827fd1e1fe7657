//! `lmpeel-lint` — the workspace invariant checker.
//!
//! Every quantitative claim this repo makes (parroting rates, the
//! oracle-vs-XGBoost gap, serve-layer determinism) rests on byte-identical
//! decode traces, and the serving stack on deadlock-free lock discipline.
//! Clippy cannot see either project-level invariant, so this crate
//! machine-checks them on every commit:
//!
//! * **LML0001** — no hash-order iteration in golden-path crates
//!   (`HashMap`/`HashSet` iteration order changes per process);
//! * **LML0002** — no wall-clock or OS-entropy reads outside the
//!   `lint.toml` allowlist;
//! * **LML0003** — no unordered rayon float reductions;
//! * **LML0004** — no panic constructs in scheduler round code outside
//!   the `catch_unwind` substrate boundary;
//! * **LML0005** — the raw mutex poison API only via the rank-checked
//!   helper in `lmpeel_serve::sync`;
//! * **LML0006** — `#![forbid(unsafe_code)]` in every crate root;
//! * **LML0007** — no lock-order cycles or `[locks.ranks]` inversions in
//!   the interprocedural acquired-while-holding graph;
//! * **LML0008** — no blocking call (channels, `join`, file I/O,
//!   substrate calls) reached while a lock guard is live;
//! * **LML0009** — no guard held across a `catch_unwind` boundary or a
//!   call through a callback parameter;
//! * **LML0010** — no stale attestation comments or allowlist entries
//!   (every exemption must still suppress a would-fire diagnostic);
//! * **LML0011** — no `pub fn` in a library crate that no other file
//!   names (a function only its own file uses is private or
//!   `pub(crate)`; one only its own tests use is deleted).
//!
//! Sites that are provably safe carry a one-line attestation comment
//! (`// lint: sorted — …`, `// lint: panic-ok — …`,
//! `// lint: blocking-ok — …`); file-level exemptions live in `lint.toml`
//! at the workspace root. Run `cargo run -p lmpeel-lint` locally or with
//! `-- --json` in CI.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod diag;
pub mod lex;
mod locks;
pub mod rules;

use config::Config;
use diag::{Diagnostic, Rule};
use rules::{FileCtx, Usage};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Lint one in-memory source file under its workspace-relative path:
/// the per-file rules, the lock analysis (LML0007–LML0009) when the path
/// is in an `[locks] analyze` crate, and stale attestations (LML0010).
/// Used by the fixture tests; [`lint_workspace`] is the filesystem
/// driver and adds the workspace passes (LML0006, LML0011, allowlist
/// staleness).
pub fn lint_source(rel: &str, source: &str, cfg: &Config) -> Vec<Diagnostic> {
    lint_files(&[FileCtx::new(rel, source)], cfg).0
}

fn lint_files(ctxs: &[FileCtx], cfg: &Config) -> (Vec<Diagnostic>, Usage, BTreeSet<String>) {
    let mut usage = Usage::default();
    let mut diagnostics = Vec::new();
    for ctx in ctxs {
        diagnostics.extend(rules::lint_file(ctx, cfg, &mut usage));
    }
    let lock_report = locks::analyze(ctxs, cfg);
    diagnostics.extend(lock_report.diagnostics);
    // Attestation staleness runs last: every rule (including the lock
    // analysis) has had its chance to mark attestations live.
    for ctx in ctxs {
        diagnostics.extend(ctx.stale_attestations());
    }
    sort_diags(&mut diagnostics);
    (diagnostics, usage, lock_report.seen_locks)
}

fn sort_diags(diagnostics: &mut [Diagnostic]) {
    diagnostics.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
    });
}

/// Outcome of a workspace run.
#[derive(Debug)]
pub struct Report {
    /// Every finding, ordered by file then line.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `.rs` files analysed.
    pub checked_files: usize,
}

/// Directories outside `crates/` whose sources LML0011 reads for uses of
/// library functions. They define nothing and no other rule checks them.
const USE_ONLY_DIRS: &[&str] = &["src", "tests", "examples", "perfbench/src"];

/// Walk `crates/*` under `root`, lint every `.rs` file (per-file rules
/// plus the interprocedural lock analysis), verify each crate root
/// forbids unsafe code, flag library `pub fn`s that nothing else names
/// (reading root `src/`, `tests/`, `examples/` and `perfbench/src/` for
/// uses too), and flag stale `lint.toml` exemptions.
pub fn lint_workspace(root: &Path, cfg: &Config) -> std::io::Result<Report> {
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    let linted = read_sources(root, crate_dirs.iter().cloned())?;
    let use_only = read_sources(
        root,
        USE_ONLY_DIRS
            .iter()
            .map(|d| root.join(d))
            .filter(|p| p.is_dir()),
    )?;
    let checked = linted.len();
    let (mut diagnostics, usage, seen_locks) = lint_files(&linted, cfg);

    // LML0011: library functions no other file names.
    let all: Vec<&FileCtx> = linted.iter().chain(&use_only).collect();
    diagnostics.extend(rules::check_unused_pub_fns(&all));

    // LML0006: every crate root must forbid unsafe code.
    for dir in &crate_dirs {
        let root_src = ["src/lib.rs", "src/main.rs"]
            .iter()
            .map(|s| dir.join(s))
            .find(|p| p.is_file());
        if let Some(p) = root_src {
            let source = std::fs::read_to_string(&p)?;
            if let Some(d) = rules::check_forbid_unsafe(&rel_path(root, &p), &source) {
                diagnostics.push(d);
            }
        }
    }

    // LML0010 (workspace level): allowlist entries and rank declarations
    // that no longer correspond to anything in the tree.
    let stale_entry = |list: &str, entry: &str, hint: &str| Diagnostic {
        rule: Rule::StaleExemption,
        file: "lint.toml".to_string(),
        line: 0,
        col: 0,
        message: format!(
            "{list} entry \"{entry}\" no longer suppresses any diagnostic ({hint}); delete it \
             — dead exemptions hide real regressions"
        ),
    };
    for entry in &cfg.clock_allow {
        if !usage.clock_allow.contains(entry) {
            diagnostics.push(stale_entry(
                "[clock] allow",
                entry,
                "no wall-clock or entropy read matches it",
            ));
        }
    }
    for entry in &cfg.lock_helpers {
        if !usage.lock_helpers.contains(entry) {
            diagnostics.push(stale_entry(
                "[locks] helper",
                entry,
                "no raw poison-API use matches it",
            ));
        }
    }
    for (name, _rank) in &cfg.lock_ranks {
        if !seen_locks.contains(name) {
            diagnostics.push(stale_entry(
                "[locks.ranks]",
                name,
                "no lock of this name is registered or acquired in the analyzed crates",
            ));
        }
    }

    sort_diags(&mut diagnostics);
    Ok(Report {
        diagnostics,
        checked_files: checked,
    })
}

/// Lex every `.rs` file under `dirs`, in path order, skipping the
/// linter's own rule fixtures (they violate on purpose).
fn read_sources(
    root: &Path,
    dirs: impl IntoIterator<Item = PathBuf>,
) -> std::io::Result<Vec<FileCtx>> {
    let mut files = Vec::new();
    for dir in dirs {
        collect_rs_files(&dir, &mut files)?;
    }
    files.sort();
    let mut ctxs = Vec::new();
    for path in &files {
        let rel = rel_path(root, path);
        if rel.contains("/fixtures/") {
            continue;
        }
        ctxs.push(FileCtx::new(&rel, &std::fs::read_to_string(path)?));
    }
    Ok(ctxs)
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name == "target" {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Locate the workspace root by walking up from `start` to the first
/// directory containing `lint.toml`.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("lint.toml").is_file() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}
