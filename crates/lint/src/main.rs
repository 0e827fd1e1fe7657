//! CLI driver: `cargo run -p lmpeel-lint [-- --json] [--root DIR] [--config FILE]`.
//!
//! Exit codes: 0 clean, 1 violations found, 2 usage or I/O failure.

#![forbid(unsafe_code)]

use lmpeel_lint::{config::Config, diag, find_root, lint_workspace};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut json = false;
    let mut root: Option<PathBuf> = None;
    let mut config_path: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--root" => match args.next() {
                Some(v) => root = Some(PathBuf::from(v)),
                None => return usage("--root requires a directory"),
            },
            "--config" => match args.next() {
                Some(v) => config_path = Some(PathBuf::from(v)),
                None => return usage("--config requires a file"),
            },
            "--help" | "-h" => {
                println!(
                    "lmpeel-lint: workspace invariant checker (determinism, panic-safety,\n\
                     lock discipline)\n\n\
                     USAGE: lmpeel-lint [--json] [--root DIR] [--config FILE]\n\n\
                     Rules LML0001..LML0010 (LML0007-LML0009 are the interprocedural lock\n\
                     analysis; LML0010 flags stale exemptions); allowlists and [locks.ranks]\n\
                     in lint.toml; attest single sites with\n\
                     `// lint: sorted|det-reduce|panic-ok|blocking-ok|unwind-ok — justification`."
                );
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    let root = match root.or_else(|| std::env::current_dir().ok().and_then(|d| find_root(&d))) {
        Some(r) => r,
        None => return usage("no lint.toml found walking up from the current directory"),
    };
    let config_path = config_path.unwrap_or_else(|| root.join("lint.toml"));
    let cfg = match Config::load(&config_path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("lmpeel-lint: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match lint_workspace(&root, &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("lmpeel-lint: {e}");
            return ExitCode::from(2);
        }
    };

    if json {
        println!(
            "{}",
            diag::to_json(&report.diagnostics, report.checked_files)
        );
    } else {
        for d in &report.diagnostics {
            println!("{d}");
        }
        if report.diagnostics.is_empty() {
            println!(
                "lmpeel-lint: {} files clean (LML0001..LML0010)",
                report.checked_files
            );
        } else {
            println!(
                "lmpeel-lint: {} violation(s) in {} files checked",
                report.diagnostics.len(),
                report.checked_files
            );
        }
    }
    if report.diagnostics.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("lmpeel-lint: {msg} (try --help)");
    ExitCode::from(2)
}
