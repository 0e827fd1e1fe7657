//! Shared command-line conventions for the figure/table binaries.
//!
//! Every artifact binary speaks the same small dialect — `--iters N`-style
//! value flags, the `--journal <path>`/`--resume <path>` pair for
//! crash-safe runs, `--force` for golden replacement, and the
//! `LMPEEL_CRASH_AFTER` kill switch the CI crash smoke uses. The parsers
//! live here (once) so the binaries cannot drift apart on flag names or
//! precedence.

use lmpeel_recover::{CrashAfter, CrashMode};
use std::path::PathBuf;

/// Parse `--iters N`-style integer flags from argv, with a default.
pub fn arg_flag(name: &str, default: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Parse `--transport tcp`-style string flags from argv, with a default.
pub fn str_flag(name: &str, default: &str) -> String {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| default.to_string())
}

/// The write-ahead journal path, if the caller asked for a resumable run:
/// `--journal <path>` to start (or continue) journaling, `--resume <path>`
/// as the intention-revealing synonym for picking up a killed run.
pub fn journal_flag() -> Option<PathBuf> {
    let args: Vec<String> = std::env::args().collect();
    ["--journal", "--resume"].iter().find_map(|name| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(PathBuf::from)
    })
}

/// `--force`: allow a resumed run to replace a golden artifact that
/// differs from what it regenerated.
pub fn force_flag() -> bool {
    std::env::args().any(|a| a == "--force")
}

/// The CI crash smoke's kill switch: `LMPEEL_CRASH_AFTER=<k>` lets `k`
/// more commits land durably, then exits the process (code 17) at the
/// next commit boundary — before anything of that record hits the disk.
pub fn crash_from_env() -> Option<CrashAfter> {
    let commits: u32 = std::env::var("LMPEEL_CRASH_AFTER").ok()?.parse().ok()?;
    Some(CrashAfter {
        commits,
        mode: CrashMode::Exit(17),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    // argv-reading helpers can only be exercised for their default paths
    // in-process (the test harness owns argv); the flag-present paths are
    // covered by the CI crash-and-resume smoke, which drives the figure3
    // binary with real `--journal`/`--force` arguments.
    #[test]
    fn absent_flags_fall_back_to_defaults() {
        assert_eq!(arg_flag("--definitely-not-passed", 7), 7);
        assert_eq!(str_flag("--definitely-not-passed", "inproc"), "inproc");
        assert!(journal_flag().is_none());
        assert!(!force_flag());
    }

    #[test]
    fn crash_switch_parses_the_env() {
        // Serialize env mutation within this test alone; no other test in
        // the crate reads LMPEEL_CRASH_AFTER.
        std::env::set_var("LMPEEL_CRASH_AFTER", "3");
        let crash = crash_from_env().expect("set above");
        assert_eq!(crash.commits, 3);
        std::env::set_var("LMPEEL_CRASH_AFTER", "not-a-number");
        assert!(crash_from_env().is_none());
        std::env::remove_var("LMPEEL_CRASH_AFTER");
        assert!(crash_from_env().is_none());
    }
}
