//! Diagnostics: rule identifiers, span-accurate findings, and the human
//! and JSON renderings.

/// Every rule the linter knows, with its stable identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// `LML0001` — hash-order iteration in a golden-path crate.
    HashIteration,
    /// `LML0002` — wall-clock / OS-entropy read outside the allowlist.
    NondeterministicSource,
    /// `LML0003` — unordered parallel float reduction.
    UnorderedParReduce,
    /// `LML0004` — panic construct in scheduler round code.
    PanicInScheduler,
    /// `LML0005` — raw `.lock().unwrap()` outside the poison helper.
    RawLockUnwrap,
    /// `LML0006` — crate missing `#![forbid(unsafe_code)]`.
    MissingForbidUnsafe,
    /// `LML0007` — lock-order cycle or declared-rank inversion in the
    /// acquired-while-holding graph.
    LockOrderCycle,
    /// `LML0008` — blocking call (channel, join, file I/O, substrate)
    /// reached while holding a lock guard.
    BlockingUnderLock,
    /// `LML0009` — lock guard live across a `catch_unwind` boundary.
    GuardAcrossUnwind,
    /// `LML0010` — attestation comment or allowlist entry that no longer
    /// suppresses any firing diagnostic.
    StaleExemption,
    /// `LML0011` — library `pub fn` that no other file names.
    UnusedPubFn,
}

impl Rule {
    /// The stable `LML****` identifier.
    pub fn id(self) -> &'static str {
        match self {
            Rule::HashIteration => "LML0001",
            Rule::NondeterministicSource => "LML0002",
            Rule::UnorderedParReduce => "LML0003",
            Rule::PanicInScheduler => "LML0004",
            Rule::RawLockUnwrap => "LML0005",
            Rule::MissingForbidUnsafe => "LML0006",
            Rule::LockOrderCycle => "LML0007",
            Rule::BlockingUnderLock => "LML0008",
            Rule::GuardAcrossUnwind => "LML0009",
            Rule::StaleExemption => "LML0010",
            Rule::UnusedPubFn => "LML0011",
        }
    }

    /// The attestation marker that silences this rule at a site, if any.
    /// Written as `// lint: <marker> — <justification>` on the flagged
    /// line or the line directly above it.
    pub fn marker(self) -> Option<&'static str> {
        match self {
            Rule::HashIteration => Some("sorted"),
            Rule::UnorderedParReduce => Some("det-reduce"),
            Rule::PanicInScheduler => Some("panic-ok"),
            Rule::BlockingUnderLock => Some("blocking-ok"),
            Rule::GuardAcrossUnwind => Some("unwind-ok"),
            Rule::NondeterministicSource
            | Rule::RawLockUnwrap
            | Rule::MissingForbidUnsafe
            | Rule::LockOrderCycle
            | Rule::StaleExemption
            | Rule::UnusedPubFn => None,
        }
    }
}

/// One finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Which rule fired.
    pub rule: Rule,
    /// Workspace-relative `/`-separated path.
    pub file: String,
    /// 1-based line (0 for whole-file findings like LML0006).
    pub line: usize,
    /// 1-based column (0 for whole-file findings).
    pub col: usize,
    /// What is wrong and what to do about it.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "{}: {}: {}", self.rule.id(), self.file, self.message)
        } else {
            write!(
                f,
                "{}: {}:{}:{}: {}",
                self.rule.id(),
                self.file,
                self.line,
                self.col,
                self.message
            )
        }
    }
}

/// Render findings as a stable JSON document for CI:
/// `{"clean":bool,"checked_files":N,"diagnostics":[{...}]}`.
pub fn to_json(diags: &[Diagnostic], checked_files: usize) -> String {
    let mut out = String::from("{");
    out.push_str(&format!(
        "\"clean\":{},\"checked_files\":{},\"diagnostics\":[",
        diags.is_empty(),
        checked_files
    ));
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"col\":{},\"message\":\"{}\"}}",
            d.rule.id(),
            escape(&d.file),
            d.line,
            d.col,
            escape(&d.message)
        ));
    }
    out.push_str("]}");
    out
}

/// Minimal JSON string escaping.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_rule_and_span() {
        let d = Diagnostic {
            rule: Rule::HashIteration,
            file: "crates/core/src/x.rs".into(),
            line: 7,
            col: 3,
            message: "HashMap iterated".into(),
        };
        assert_eq!(
            d.to_string(),
            "LML0001: crates/core/src/x.rs:7:3: HashMap iterated"
        );
    }

    #[test]
    fn json_escapes_and_reports_clean() {
        let d = Diagnostic {
            rule: Rule::RawLockUnwrap,
            file: "a\"b.rs".into(),
            line: 1,
            col: 2,
            message: "x\ny".into(),
        };
        let json = to_json(&[d], 3);
        assert!(json.contains("\"clean\":false"));
        assert!(json.contains("a\\\"b.rs"));
        assert!(json.contains("x\\ny"));
        assert_eq!(
            to_json(&[], 0),
            "{\"clean\":true,\"checked_files\":0,\"diagnostics\":[]}"
        );
    }
}
