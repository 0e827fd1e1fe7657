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
//!   (every exemption must still suppress a would-fire diagnostic).
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

/// One in-memory source file with its workspace-relative path. The path
/// decides which rules apply (golden-crate membership, allowlists, lock
/// analysis scope).
pub struct SourceFile {
    /// Workspace-relative `/`-separated path.
    pub rel: String,
    /// Full source text.
    pub source: String,
}

/// Lint one in-memory source file under its workspace-relative path.
/// Used by the fixture tests; `lint_workspace` is the filesystem driver.
pub fn lint_source(rel: &str, source: &str, cfg: &Config) -> Vec<Diagnostic> {
    lint_sources(
        &[SourceFile {
            rel: rel.to_string(),
            source: source.to_string(),
        }],
        cfg,
    )
}

/// Lint a set of in-memory sources together: per-file rules, the
/// cross-file lock analysis (LML0007–LML0009) over the `[locks] analyze`
/// crates, and per-file stale-attestation checks (LML0010). Allowlist
/// staleness is a workspace-level concern and is only checked by
/// [`lint_workspace`].
pub fn lint_sources(files: &[SourceFile], cfg: &Config) -> Vec<Diagnostic> {
    lint_sources_inner(files, cfg).0
}

fn lint_sources_inner(
    files: &[SourceFile],
    cfg: &Config,
) -> (Vec<Diagnostic>, Usage, BTreeSet<String>) {
    let ctxs: Vec<FileCtx> = files
        .iter()
        .map(|f| FileCtx::new(&f.rel, &f.source))
        .collect();
    let mut usage = Usage::default();
    let mut diagnostics = Vec::new();
    for ctx in &ctxs {
        diagnostics.extend(rules::lint_file(ctx, cfg, &mut usage));
    }
    let lock_report = locks::analyze(&ctxs, cfg);
    diagnostics.extend(lock_report.diagnostics);
    // Attestation staleness runs last: every rule (including the lock
    // analysis) has had its chance to mark attestations live.
    for ctx in &ctxs {
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

/// Walk `crates/*` under `root`, lint every `.rs` file (per-file rules
/// plus the interprocedural lock analysis), verify each crate root
/// forbids unsafe code, and flag stale `lint.toml` exemptions.
pub fn lint_workspace(root: &Path, cfg: &Config) -> std::io::Result<Report> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in &crate_dirs {
        collect_rs_files(dir, &mut files)?;
    }
    files.sort();

    let mut sources = Vec::new();
    for path in &files {
        let rel = rel_path(root, path);
        // The linter's own rule fixtures violate on purpose.
        if rel.contains("/fixtures/") {
            continue;
        }
        sources.push(SourceFile {
            rel,
            source: std::fs::read_to_string(path)?,
        });
    }
    let checked = sources.len();
    let (mut diagnostics, usage, seen_locks) = lint_sources_inner(&sources, cfg);

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
