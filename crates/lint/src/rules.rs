//! The rules.
//!
//! | ID      | Invariant                                                        |
//! |---------|------------------------------------------------------------------|
//! | LML0001 | no hash-order iteration in golden-path crates                    |
//! | LML0002 | no wall-clock / OS-entropy reads outside the allowlist           |
//! | LML0003 | no unordered parallel float reductions                           |
//! | LML0004 | no panic constructs in scheduler round code                      |
//! | LML0005 | raw lock poison API only inside the rank-checked helper          |
//! | LML0006 | every crate carries `#![forbid(unsafe_code)]` (workspace pass)   |
//! | LML0007 | no lock-order cycles / rank inversions (`locks` module)         |
//! | LML0008 | no blocking calls under a live guard (`locks` module)           |
//! | LML0009 | no guard across `catch_unwind` (`locks` module)                 |
//! | LML0010 | no stale attestations or allowlist entries                       |
//! | LML0011 | no library `pub fn` that no other file names (workspace pass)    |
//!
//! Rules run over the token stream from [`crate::lex`], with three span
//! classifiers: `#[test]` / `#[cfg(test)]` extents (determinism rules do
//! not police test code), `catch_unwind(..)` extents (the sanctioned
//! panic-containment boundary for LML0004), and attestation comments
//! (`// lint: <marker> — justification`) on the flagged line or the line
//! directly above it. Every attestation lookup records whether it actually
//! suppressed a would-fire site, so LML0010 can report dead exemptions.

use crate::config::Config;
use crate::diag::{Diagnostic, Rule};
use crate::lex::{lex, Kind, Lexed, Token};
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};

/// Methods whose results depend on hash iteration order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
    "retain",
    "extract_if",
    "intersection",
    "union",
    "difference",
    "symmetric_difference",
];

/// Rayon entry points that make the following reduction unordered.
const PAR_SOURCES: &[&str] = &[
    "par_iter",
    "par_iter_mut",
    "into_par_iter",
    "par_bridge",
    "par_chunks",
    "par_chunks_mut",
];

/// Order-sensitive reductions (float addition is not associative).
const UNORDERED_REDUCERS: &[&str] = &["sum", "product", "reduce"];

/// One `// lint: <marker>` attestation comment, with a liveness bit: the
/// rules set `used` when the attestation suppresses a diagnostic that
/// would otherwise fire, and LML0010 reports any attestation still unused
/// after every rule has run.
pub(crate) struct Attest {
    /// 1-based line the comment ends on (what it attests, with the line
    /// below it).
    line: usize,
    /// The marker word ("sorted", "panic-ok", "blocking-ok", ...).
    marker: String,
    /// Did any rule consult this attestation at a would-fire site?
    used: Cell<bool>,
}

/// Which allowlist entries and attestations actually suppressed
/// something. Accumulated across rules (and across files, for the
/// `lint.toml` lists) so the workspace pass can flag dead exemptions.
#[derive(Debug, Default)]
pub struct Usage {
    /// `[clock] allow` entries that matched a file containing a
    /// would-fire LML0002 site.
    pub clock_allow: BTreeSet<String>,
    /// `[locks] helper` entries that matched a file containing a
    /// would-fire LML0005 site.
    pub lock_helpers: BTreeSet<String>,
}

/// Everything derived from one source file that the rules need.
pub struct FileCtx {
    /// Workspace-relative `/`-separated path.
    pub rel: String,
    lexed: Lexed,
    /// All attestation comments, in source order.
    attestations: Vec<Attest>,
    /// Token-index ranges inside `#[test]` / `#[cfg(test)]` items.
    test_regions: Vec<(usize, usize)>,
    /// Token-index ranges inside `catch_unwind(...)` arguments.
    unwind_regions: Vec<(usize, usize)>,
}

impl FileCtx {
    /// Lex and classify one source file.
    pub fn new(rel: &str, source: &str) -> Self {
        let lexed = lex(source);
        let attestations = collect_attestations(&lexed);
        let test_regions = collect_test_regions(&lexed.tokens);
        let unwind_regions = collect_unwind_regions(&lexed.tokens);
        Self {
            rel: rel.to_string(),
            lexed,
            attestations,
            test_regions,
            unwind_regions,
        }
    }

    pub(crate) fn tokens(&self) -> &[Token] {
        &self.lexed.tokens
    }

    pub(crate) fn in_test(&self, idx: usize) -> bool {
        self.test_regions.iter().any(|&(a, b)| idx >= a && idx <= b)
    }

    fn in_unwind(&self, idx: usize) -> bool {
        self.unwind_regions
            .iter()
            .any(|&(a, b)| idx >= a && idx <= b)
    }

    /// Is a `// lint: <marker>` attestation present on `line` or the line
    /// directly above it? Only called at sites where the rule would
    /// otherwise fire, so a match here is what marks the attestation live
    /// for the LML0010 staleness pass.
    pub(crate) fn attested(&self, line: usize, marker: &str) -> bool {
        let mut hit = false;
        for a in &self.attestations {
            if a.marker == marker && (a.line == line || a.line + 1 == line) {
                a.used.set(true);
                hit = true;
            }
        }
        hit
    }

    /// LML0010: attestation comments no rule consulted at a would-fire
    /// site. Call after every other rule has run on this file.
    pub fn stale_attestations(&self) -> Vec<Diagnostic> {
        self.attestations
            .iter()
            .filter(|a| !a.used.get())
            .map(|a| Diagnostic {
                rule: Rule::StaleExemption,
                file: self.rel.clone(),
                line: a.line,
                col: 1,
                message: format!(
                    "attestation `// lint: {}` no longer suppresses any diagnostic; delete it \
                     (dead exemptions hide real regressions when the code changes again)",
                    a.marker
                ),
            })
            .collect()
    }

    /// The crate directory name (`crates/<name>/...`), if any.
    pub(crate) fn crate_name(&self) -> Option<&str> {
        let mut parts = self.rel.split('/');
        (parts.next() == Some("crates"))
            .then(|| parts.next())
            .flatten()
    }

    pub(crate) fn diag(&self, rule: Rule, tok: &Token, message: String) -> Diagnostic {
        Diagnostic {
            rule,
            file: self.rel.clone(),
            line: tok.line,
            col: tok.col,
            message,
        }
    }
}

/// Parse `lint: marker` comments. A block comment attests the line its
/// `*/` sits on (and the next), same as a line comment.
fn collect_attestations(lexed: &Lexed) -> Vec<Attest> {
    let mut out = Vec::new();
    for c in &lexed.comments {
        let body = c.text.trim();
        if let Some(rest) = body.strip_prefix("lint:") {
            // The marker is the first word; anything after is the
            // justification (required by convention, not enforced here).
            if let Some(marker) = rest.split_whitespace().next() {
                out.push(Attest {
                    line: c.end_line,
                    marker: marker.to_string(),
                    used: Cell::new(false),
                });
            }
        }
    }
    out
}

/// Find the matching close delimiter for the open at `open_idx`.
pub(crate) fn matching_close(tokens: &[Token], open_idx: usize) -> usize {
    let open = tokens[open_idx].ch;
    let close = match open {
        '(' => ')',
        '[' => ']',
        _ => '}',
    };
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate().skip(open_idx) {
        if t.kind == Kind::Open && t.ch == open {
            depth += 1;
        } else if t.kind == Kind::Close && t.ch == close {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    tokens.len().saturating_sub(1)
}

/// Token-index extents of items behind a `test`-mentioning attribute
/// (`#[test]`, `#[cfg(test)]`, `#[cfg(all(test, ...))]`). A file-level
/// `#![cfg(test)]` marks the whole file.
fn collect_test_regions(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if !tokens[i].is_ch('#') {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        let inner = j < tokens.len() && tokens[j].is_ch('!');
        if inner {
            j += 1;
        }
        if j >= tokens.len() || !(tokens[j].kind == Kind::Open && tokens[j].ch == '[') {
            i += 1;
            continue;
        }
        let close = matching_close(tokens, j);
        let mentions_test = tokens[j..=close].iter().any(|t| t.is_ident("test"));
        if !mentions_test {
            i = close + 1;
            continue;
        }
        if inner {
            // #![cfg(test)]: the whole file is test code.
            regions.push((0, tokens.len().saturating_sub(1)));
            return regions;
        }
        // Attach to the following item: scan past any further attributes,
        // then to the item's body brace (paren depth 0) or terminating
        // semicolon.
        let mut k = close + 1;
        loop {
            // Skip stacked attributes.
            if k + 1 < tokens.len() && tokens[k].is_ch('#') && tokens[k + 1].ch == '[' {
                k = matching_close(tokens, k + 1) + 1;
                continue;
            }
            break;
        }
        let mut depth = 0usize;
        let mut body = None;
        while k < tokens.len() {
            let t = &tokens[k];
            match t.kind {
                Kind::Open if t.ch == '{' && depth == 0 => {
                    body = Some(k);
                    break;
                }
                Kind::Open => depth += 1,
                Kind::Close => depth = depth.saturating_sub(1),
                Kind::Punct if t.ch == ';' && depth == 0 => break,
                _ => {}
            }
            k += 1;
        }
        if let Some(b) = body {
            let end = matching_close(tokens, b);
            regions.push((i, end));
            i = b + 1; // nested attributes inside still collected
            continue;
        }
        i = k + 1;
    }
    regions
}

/// Token-index extents of `catch_unwind(...)` call arguments.
fn collect_unwind_regions(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    for i in 0..tokens.len() {
        if tokens[i].is_ident("catch_unwind")
            && tokens
                .get(i + 1)
                .is_some_and(|t| t.kind == Kind::Open && t.ch == '(')
        {
            regions.push((i, matching_close(tokens, i + 1)));
        }
    }
    regions
}

/// Run every per-file rule on one source file, recording which allowlist
/// entries earned their keep in `usage`.
pub fn lint_file(ctx: &FileCtx, cfg: &Config, usage: &mut Usage) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    rule_hash_iteration(ctx, cfg, &mut diags);
    rule_nondeterministic_source(ctx, cfg, usage, &mut diags);
    rule_unordered_par_reduce(ctx, &mut diags);
    rule_panic_in_scheduler(ctx, cfg, &mut diags);
    rule_raw_lock_unwrap(ctx, cfg, usage, &mut diags);
    diags
}

// ---------------------------------------------------------------- LML0001

/// Names in this file bound to `HashMap`/`HashSet` values, by declaration
/// pattern: `name: [&mut] [path::]Hash{Map,Set}<..>` (lets, fields,
/// params) and `[let [mut]] name = [path::]Hash{Map,Set}::new/with_capacity`.
fn hash_bound_names(tokens: &[Token]) -> BTreeMap<String, &'static str> {
    let mut names = BTreeMap::new();
    for (i, t) in tokens.iter().enumerate() {
        let kind = match t.text.as_str() {
            "HashMap" => "HashMap",
            "HashSet" => "HashSet",
            _ => continue,
        };
        if t.kind != Kind::Ident {
            continue;
        }
        if let Some(name) = declared_name_before(tokens, i) {
            names.insert(name, kind);
        }
    }
    names
}

/// Walk back from the `HashMap`/`HashSet` ident at `i` to the identifier
/// it is being bound to, tolerating `&`, `mut`, `dyn`, lifetimes, path
/// segments and wrapper generics between the binder and the type.
fn declared_name_before(tokens: &[Token], i: usize) -> Option<String> {
    let mut j = i;
    // Skip leftwards over type-position tokens until the binder.
    while j > 0 {
        j -= 1;
        let t = &tokens[j];
        let skip = t.is_ch(':')
            || t.is_ch('<')
            || t.is_ch('&')
            || t.kind == Kind::Lifetime
            || t.is_ident("mut")
            || t.is_ident("dyn")
            || t.is_ident("std")
            || t.is_ident("collections")
            || (t.kind == Kind::Ident && t.text.chars().next().is_some_and(char::is_uppercase));
        if !skip {
            break;
        }
    }
    let t = &tokens[j];
    if t.is_ch('=') {
        // `name = HashMap::new()` (optionally `let [mut] name = ...`, or a
        // trailing `.collect()` turbofish bound by an earlier `let`).
        let before = tokens.get(j.wrapping_sub(1))?;
        if before.kind == Kind::Ident && !before.is_ident("mut") {
            return Some(before.text.clone());
        }
        None
    } else if t.kind == Kind::Ident {
        // `name:` form — the skip loop stopped on the name itself only if
        // it is lowercase (uppercase idents were skipped as type path
        // segments); require the `:` right after it to avoid matching
        // arbitrary expression context.
        tokens
            .get(j + 1)
            .is_some_and(|n| n.is_ch(':'))
            .then(|| t.text.clone())
    } else {
        None
    }
}

fn rule_hash_iteration(ctx: &FileCtx, cfg: &Config, diags: &mut Vec<Diagnostic>) {
    let Some(krate) = ctx.crate_name() else {
        return;
    };
    if !cfg.golden_crates.iter().any(|c| c == krate) {
        return;
    }
    let tokens = ctx.tokens();
    let names = hash_bound_names(tokens);
    if names.is_empty() {
        return;
    }
    for (k, t) in tokens.iter().enumerate() {
        if t.kind != Kind::Ident {
            continue;
        }
        let Some(kind) = names.get(&t.text) else {
            continue;
        };
        if ctx.in_test(k) {
            continue;
        }
        // `name.iter()` and friends.
        if let (Some(dot), Some(m)) = (tokens.get(k + 1), tokens.get(k + 2)) {
            if dot.is_ch('.')
                && m.kind == Kind::Ident
                && ITER_METHODS.contains(&m.text.as_str())
                && tokens.get(k + 3).is_some_and(|p| p.ch == '(')
                && !ctx.attested(m.line, "sorted")
            {
                diags.push(ctx.diag(
                    Rule::HashIteration,
                    m,
                    format!(
                        "`{}.{}()` iterates a {} in golden-path crate `{}`: iteration order is \
                         nondeterministic across processes. Use BTreeMap/BTreeSet, sort the \
                         result, or attest with `// lint: sorted — <why order cannot leak>`",
                        t.text, m.text, kind, krate
                    ),
                ));
            }
        }
        // `for x in [&[mut]] name`.
        let mut b = k;
        while b > 0 {
            let prev = &tokens[b - 1];
            if prev.is_ch('&') || prev.is_ident("mut") {
                b -= 1;
                continue;
            }
            break;
        }
        if b > 0 && tokens[b - 1].is_ident("in") && !ctx.attested(t.line, "sorted") {
            diags.push(ctx.diag(
                Rule::HashIteration,
                t,
                format!(
                    "`for .. in {}` iterates a {} in golden-path crate `{}`: iteration order is \
                     nondeterministic across processes. Use BTreeMap/BTreeSet, sort the result, \
                     or attest with `// lint: sorted — <why order cannot leak>`",
                    t.text, kind, krate
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------- LML0002

fn rule_nondeterministic_source(
    ctx: &FileCtx,
    cfg: &Config,
    usage: &mut Usage,
    diags: &mut Vec<Diagnostic>,
) {
    // An allowlisted file is still scanned: finding a would-fire site is
    // what proves the allowlist entry is not stale (LML0010).
    let allowed = Config::path_match(&cfg.clock_allow, &ctx.rel).map(str::to_string);
    let tokens = ctx.tokens();
    let mut flag = |tok: &Token, what: &str| {
        if let Some(entry) = &allowed {
            usage.clock_allow.insert(entry.clone());
            return;
        }
        diags.push(ctx.diag(
            Rule::NondeterministicSource,
            tok,
            format!(
                "{what} reads a nondeterministic source outside the lint.toml [clock] allowlist; \
                 golden traces must not depend on wall clocks or OS entropy"
            ),
        ));
    };
    for (i, t) in tokens.iter().enumerate() {
        if ctx.in_test(i) || t.kind != Kind::Ident {
            continue;
        }
        match t.text.as_str() {
            // `Instant::now()` / `SystemTime::now()`; the bare type in
            // a signature is fine (serve passes deadlines around).
            "Instant" | "SystemTime"
                if tokens.get(i + 1).is_some_and(|a| a.is_ch(':'))
                    && tokens.get(i + 2).is_some_and(|a| a.is_ch(':'))
                    && tokens.get(i + 3).is_some_and(|a| a.is_ident("now")) =>
            {
                flag(t, &format!("`{}::now()`", t.text));
            }
            "thread_rng" | "from_entropy" | "random_seed" => flag(t, &format!("`{}`", t.text)),
            "elapsed"
                if i > 0
                    && tokens[i - 1].is_ch('.')
                    && tokens.get(i + 1).is_some_and(|a| a.ch == '(') =>
            {
                flag(t, "`.elapsed()`");
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------- LML0003

fn rule_unordered_par_reduce(ctx: &FileCtx, diags: &mut Vec<Diagnostic>) {
    let tokens = ctx.tokens();
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != Kind::Ident || !PAR_SOURCES.contains(&t.text.as_str()) || ctx.in_test(i) {
            continue;
        }
        // Scan the rest of the method chain (until the statement ends or
        // the enclosing delimiter closes) for an order-sensitive reduction.
        let mut depth = 0i64;
        let mut k = i + 1;
        while k < tokens.len() {
            let u = &tokens[k];
            match u.kind {
                Kind::Open => depth += 1,
                Kind::Close => {
                    depth -= 1;
                    if depth < 0 {
                        break;
                    }
                }
                Kind::Punct if u.ch == ';' && depth == 0 => break,
                Kind::Ident
                    if depth == 0
                        && UNORDERED_REDUCERS.contains(&u.text.as_str())
                        && k > 0
                        && tokens[k - 1].is_ch('.')
                        && tokens.get(k + 1).is_some_and(|p| p.ch == '(') =>
                {
                    if !ctx.attested(u.line, "det-reduce") {
                        diags.push(ctx.diag(
                            Rule::UnorderedParReduce,
                            u,
                            format!(
                                "`.{}()` after `{}` reduces in nondeterministic order under a \
                                 real rayon (float addition is not associative); collect and \
                                 reduce sequentially or attest with \
                                 `// lint: det-reduce — <why the reduction is order-free>`",
                                u.text, t.text
                            ),
                        ));
                    }
                    break;
                }
                _ => {}
            }
            k += 1;
        }
    }
}

// ---------------------------------------------------------------- LML0004

fn rule_panic_in_scheduler(ctx: &FileCtx, cfg: &Config, diags: &mut Vec<Diagnostic>) {
    if !Config::path_matches(&cfg.panic_scope, &ctx.rel) {
        return;
    }
    let tokens = ctx.tokens();
    let mut flag = |tok: &Token, what: &str| {
        if !ctx.attested(tok.line, "panic-ok") {
            diags.push(ctx.diag(
                Rule::PanicInScheduler,
                tok,
                format!(
                    "{what} in scheduler round code can kill the scheduler thread and fail the \
                     whole fleet; return an error, move it inside the catch_unwind substrate \
                     boundary, or attest with `// lint: panic-ok — <invariant>`"
                ),
            ));
        }
    };
    for (i, t) in tokens.iter().enumerate() {
        if ctx.in_test(i) || ctx.in_unwind(i) {
            continue;
        }
        match t.kind {
            Kind::Ident
                if matches!(t.text.as_str(), "unwrap" | "expect")
                    && i > 0
                    && tokens[i - 1].is_ch('.')
                    && tokens.get(i + 1).is_some_and(|p| p.ch == '(') =>
            {
                flag(t, &format!("`.{}()`", t.text));
            }
            Kind::Ident
                if matches!(
                    t.text.as_str(),
                    "panic" | "unreachable" | "todo" | "unimplemented"
                ) && tokens.get(i + 1).is_some_and(|p| p.is_ch('!')) =>
            {
                flag(t, &format!("`{}!`", t.text));
            }
            Kind::Open if t.ch == '[' && i > 0 => {
                let prev = &tokens[i - 1];
                let indexing = prev.kind == Kind::Ident
                    || (prev.kind == Kind::Close && (prev.ch == ')' || prev.ch == ']'));
                // `name![..]` macro invocations are not indexing.
                let after_bang = i >= 2 && tokens[i - 2].is_ch('!');
                if indexing && !after_bang {
                    flag(t, "slice indexing (can panic on out-of-bounds)");
                }
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------- LML0005

fn rule_raw_lock_unwrap(
    ctx: &FileCtx,
    cfg: &Config,
    usage: &mut Usage,
    diags: &mut Vec<Diagnostic>,
) {
    // The helper file is still scanned so its allowlist entry can be
    // proven live for LML0010; its would-fire sites are recorded, not
    // reported.
    let allowed = Config::path_match(&cfg.lock_helpers, &ctx.rel).map(str::to_string);
    let tokens = ctx.tokens();
    let diag_or_use =
        |usage: &mut Usage, diags: &mut Vec<Diagnostic>, tok: &Token, message: String| {
            if let Some(entry) = &allowed {
                usage.lock_helpers.insert(entry.clone());
            } else {
                diags.push(ctx.diag(Rule::RawLockUnwrap, tok, message));
            }
        };
    for i in 0..tokens.len() {
        let t = &tokens[i];
        if t.kind != Kind::Ident {
            continue;
        }
        // `lock_unpoisoned(..)` / `wait_unpoisoned(..)`: the raw
        // poison-recovery escape hatch. Production code goes through
        // `RankedMutex` / `wait_ranked` so the lock-rank sanitizer and
        // the static lock analysis both see a *named* acquisition.
        if matches!(t.text.as_str(), "lock_unpoisoned" | "wait_unpoisoned")
            && tokens.get(i + 1).is_some_and(|p| p.ch == '(')
            && !ctx.in_test(i)
        {
            diag_or_use(
                usage,
                diags,
                t,
                format!(
                    "`{}` bypasses the named-lock layer: the lock-rank sanitizer and the \
                     LML0007 order analysis only see acquisitions made through \
                     `lmpeel_serve::sync::RankedMutex` (use `.lock()` on a RankedMutex, or \
                     `wait_ranked` for condvar waits)",
                    t.text
                ),
            );
            continue;
        }
        // `PoisonError` handling is the helper's business alone.
        if t.text == "PoisonError" && !ctx.in_test(i) {
            diag_or_use(
                usage,
                diags,
                t,
                "`PoisonError` handled outside the poison-recovering helper; route the lock \
                 through `lmpeel_serve::sync::RankedMutex` instead of re-deriving poison \
                 recovery locally"
                    .to_string(),
            );
            continue;
        }
        if !matches!(t.text.as_str(), "lock" | "read" | "write") {
            continue;
        }
        // `.lock().unwrap()` / `.lock().expect(` / `.lock().unwrap_or_else(`
        let is_chain = i > 0
            && tokens[i - 1].is_ch('.')
            && tokens.get(i + 1).is_some_and(|p| p.ch == '(')
            && tokens.get(i + 2).is_some_and(|p| p.ch == ')')
            && tokens.get(i + 3).is_some_and(|p| p.is_ch('.'))
            && tokens.get(i + 4).is_some_and(|m| {
                m.is_ident("unwrap") || m.is_ident("expect") || m.is_ident("unwrap_or_else")
            });
        if is_chain {
            diag_or_use(
                usage,
                diags,
                t,
                format!(
                    "`.{}().{}(..)` touches the raw mutex poison API: one panicked writer \
                     would wedge (or silently un-poison for) every later reader. Route it \
                     through the rank-checked helper in `lmpeel_serve::sync`",
                    t.text,
                    tokens[i + 4].text
                ),
            );
        }
    }
}

// ---------------------------------------------------------------- LML0006

/// Check that a crate root source carries `#![forbid(unsafe_code)]`.
/// Returns a whole-file diagnostic when missing.
pub fn check_forbid_unsafe(rel: &str, source: &str) -> Option<Diagnostic> {
    let tokens = lex(source).tokens;
    for i in 0..tokens.len() {
        if tokens[i].is_ch('#')
            && tokens.get(i + 1).is_some_and(|t| t.is_ch('!'))
            && tokens.get(i + 2).is_some_and(|t| t.ch == '[')
            && tokens.get(i + 3).is_some_and(|t| t.is_ident("forbid"))
            && tokens.get(i + 4).is_some_and(|t| t.ch == '(')
            && tokens.get(i + 5).is_some_and(|t| t.is_ident("unsafe_code"))
        {
            return None;
        }
    }
    Some(Diagnostic {
        rule: Rule::MissingForbidUnsafe,
        file: rel.to_string(),
        line: 0,
        col: 0,
        message: "crate root is missing `#![forbid(unsafe_code)]`; the workspace is 100% safe \
                  Rust and stays that way"
            .to_string(),
    })
}

// ---------------------------------------------------------------- LML0011

/// Is token `i` the start of a `pub use` or `pub(..) use` item? Returns
/// the index of the item's closing `;`.
fn pub_use_extent(tokens: &[Token], i: usize) -> Option<usize> {
    if !tokens[i].is_ident("pub") {
        return None;
    }
    let mut j = i + 1;
    if tokens.get(j).is_some_and(|t| t.is_ch('(')) {
        j = matching_close(tokens, j) + 1;
    }
    if !tokens.get(j).is_some_and(|t| t.is_ident("use")) {
        return None;
    }
    let end = tokens[j..].iter().position(|t| t.is_ch(';'))?;
    Some(j + end)
}

/// The name token of a `pub fn` (also `pub const|async|unsafe|extern ".." fn`)
/// item starting at token `i`. `pub(crate)` and other restricted
/// visibilities are not `pub`.
fn pub_fn_name(tokens: &[Token], i: usize) -> Option<&Token> {
    if !tokens[i].is_ident("pub") {
        return None;
    }
    let mut j = i + 1;
    while tokens.get(j).is_some_and(|t| {
        ["const", "async", "unsafe", "extern"]
            .iter()
            .any(|q| t.is_ident(q))
            || t.kind == Kind::Lit
    }) {
        j += 1;
    }
    if !tokens.get(j).is_some_and(|t| t.is_ident("fn")) {
        return None;
    }
    tokens.get(j + 1).filter(|t| t.kind == Kind::Ident)
}

/// Does `rel` lie in a library crate's sources (`crates/<name>/src/`,
/// outside `src/bin/` and `src/main.rs`)?
fn in_library_src(rel: &str) -> bool {
    let mut parts = rel.splitn(4, '/');
    let (Some("crates"), Some(_), Some("src"), Some(rest)) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return false;
    };
    rest != "main.rs" && !rest.starts_with("bin/")
}

/// LML0011 (workspace pass): a `pub fn` outside test code in a library
/// crate's `src/` must be named, as a code identifier, by some other
/// file. Comments and string literals are not uses, and neither is a
/// `pub use` in a file of the defining crate: a re-export counts only
/// when something outside the crate imports the name. Every file in
/// `files` counts towards uses; only library sources define.
///
/// Matching is by name, so it over-approximates uses: a function that
/// shares its name with anything named elsewhere passes.
pub fn check_unused_pub_fns(files: &[&FileCtx]) -> Vec<Diagnostic> {
    // name -> files naming it in code; name -> files re-exporting it.
    let mut named: BTreeMap<&str, BTreeSet<usize>> = BTreeMap::new();
    let mut reexported: BTreeMap<&str, BTreeSet<usize>> = BTreeMap::new();
    for (f, ctx) in files.iter().enumerate() {
        let tokens = ctx.tokens();
        let mut i = 0;
        while i < tokens.len() {
            if let Some(end) = pub_use_extent(tokens, i) {
                for t in &tokens[i..=end] {
                    if t.kind == Kind::Ident {
                        reexported.entry(&t.text).or_default().insert(f);
                    }
                }
                i = end + 1;
                continue;
            }
            if tokens[i].kind == Kind::Ident {
                named.entry(&tokens[i].text).or_default().insert(f);
            }
            i += 1;
        }
    }

    let mut diags = Vec::new();
    for (f, ctx) in files.iter().enumerate() {
        if !in_library_src(&ctx.rel) {
            continue;
        }
        let tokens = ctx.tokens();
        for i in 0..tokens.len() {
            let Some(name) = pub_fn_name(tokens, i) else {
                continue;
            };
            if ctx.in_test(i) {
                continue;
            }
            let key = name.text.as_str();
            let used_elsewhere = named.get(key).is_some_and(|s| s.iter().any(|&g| g != f));
            let imported_elsewhere = reexported
                .get(key)
                .is_some_and(|s| s.iter().any(|&g| files[g].crate_name() != ctx.crate_name()));
            if used_elsewhere || imported_elsewhere {
                continue;
            }
            diags.push(ctx.diag(
                Rule::UnusedPubFn,
                name,
                format!(
                    "`pub fn {key}` is named by no other file (its crate's own `pub use` does \
                     not count); make it private or `pub(crate)` if this file uses it, or \
                     delete it with the tests that only exercise it"
                ),
            ));
        }
    }
    diags
}
