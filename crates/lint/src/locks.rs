//! Interprocedural lock-discipline analysis (LML0007–LML0009).
//!
//! The per-file rules in [`crate::rules`] see one token stream at a time;
//! deadlocks are a whole-program property. This module builds an
//! *approximate* call graph over the crates named in `[locks] analyze`
//! (fn item extents from the token stream, call sites resolved by bare
//! name within those crates), tracks which lock guards are live at every
//! token, and checks three rules:
//!
//! * **LML0007** — the acquired-while-holding graph must be acyclic and
//!   must respect the total order declared in `[locks.ranks]` (the same
//!   table the runtime `lock-rank` sanitizer in `lmpeel_serve::sync`
//!   enforces per thread); every named lock must have a rank.
//! * **LML0008** — no blocking call (channel send/recv, `join`, condvar
//!   waits, file I/O, substrate/service calls) while a guard is live,
//!   reached directly or transitively through the call graph. Waiting on
//!   a condvar *with the held guard itself* is exempt — that is what
//!   condvars are for.
//! * **LML0009** — no guard live across a `catch_unwind` boundary: a
//!   panic inside would poison the lock under the recovery helper's feet.
//!   A call through one of the fn's own parameters (a callback: the
//!   caller's closure, which may unwind, block or lock out of sight) is
//!   treated as such a boundary.
//!
//! Approximations, chosen to fit a lexer-level analysis (documented in
//! DESIGN.md §14): calls are resolved by bare name, so same-named fns
//! merge (over-approximate); a fn passed by path as an argument
//! (`for_each(lanes, Lane::step)`) counts as called where it is passed;
//! trait-object dispatch and macro-generated code are invisible
//! (under-approximate); closure bodies are attributed to the enclosing
//! fn, so code spawned onto another thread counts as if it ran inline
//! (over-approximate). Guard lifetimes follow Rust 2021
//! temporary-scope rules: a let-bound guard lives to the end of its
//! block (or an explicit `drop(guard)`), a temporary guard to the end of
//! its statement — including the tail block of `if let` / `match` /
//! `for`, whose scrutinee temporaries live through the body.

use crate::config::Config;
use crate::diag::{Diagnostic, Rule};
use crate::lex::{Kind, Token};
use crate::rules::{matching_close, FileCtx};
use std::collections::{BTreeMap, BTreeSet};

/// Method names (after `.`) that block the calling thread.
const BLOCKING_METHODS: &[&str] = &[
    "recv",
    "recv_timeout",
    "send",
    "wait",
    "wait_timeout",
    "wait_while",
    "read_to_string",
    "read_to_end",
    "read_exact",
    "write_all",
    "flush",
    "sync_all",
    "sync_data",
];

/// Free/path-call names that block: condvar helpers (which take the held
/// guard — see the exemption), thread sleeps and filesystem one-shots.
const BLOCKING_CALLS: &[&str] = &["wait_unpoisoned", "wait_ranked", "sleep", "park"];

/// Substrate / service entry points (`dyn LanguageModel` / `InferenceService`):
/// a decode step under a lock serializes the fleet behind one guard.
const SUBSTRATE_CALLS: &[&str] = &[
    "logits",
    "logits_batch",
    "generate",
    "generate_session",
    "generate_constrained",
    "submit",
];

/// The outcome of the workspace lock analysis.
pub(crate) struct LockReport {
    /// LML0007–LML0009 findings.
    pub diagnostics: Vec<Diagnostic>,
    /// Every lock name acquired or registered in the analyzed files
    /// (tests included), for `[locks.ranks]` staleness checking.
    pub seen_locks: BTreeSet<String>,
}

/// One fn item: `fn <name> ... { body }`.
struct FnItem {
    name: String,
    /// Index into the analyzed-files slice.
    file: usize,
    /// Token indices of the body `{` and its matching `}`.
    body: (usize, usize),
    /// The fn's parameter names; a call through one runs a callback.
    params: Vec<String>,
}

/// One lock acquisition site.
struct Acq {
    /// Lock name (the receiver field for `.lock()`, the last path ident
    /// of the argument for `lock_unpoisoned(&self.name)`).
    name: String,
    /// Token index of the acquisition method/fn ident (diag anchor).
    at: usize,
    /// First token index past the acquisition call's `)`.
    after: usize,
    /// Guard binding: `Some(ident)` for `let g = ...` / `g = ...`,
    /// `None` for a temporary.
    bound: Option<String>,
}

/// Where a transitive fact bottoms out.
#[derive(Clone, Debug)]
struct Site {
    file: String,
    line: usize,
    what: String,
}

/// What calling a fn (by merged name) can do, with one witness chain per
/// fact: `chain` lists the fn names traversed *below* the called fn.
#[derive(Clone, Debug, Default)]
struct Effects {
    blocks: Option<(Vec<String>, Site)>,
    acquires: BTreeMap<String, (Vec<String>, Site)>,
    unwinds: Option<(Vec<String>, Site)>,
}

/// An acquired-while-holding edge `held → taken`, with its witness.
#[derive(Clone, Debug)]
struct EdgeInfo {
    file: String,
    line: usize,
    col: usize,
    /// Call chain from the holding fn to the inner acquisition (empty for
    /// a direct acquisition).
    via: Vec<String>,
}

/// Run the interprocedural lock analysis over `files`. Only files inside
/// `crates/<name>/src/` for `[locks] analyze` crate names participate;
/// the sync helper itself (`[locks] helper`) is excluded so its raw
/// poison-API internals don't register as workspace lock traffic.
pub(crate) fn analyze(files: &[FileCtx], cfg: &Config) -> LockReport {
    let mut report = LockReport {
        diagnostics: Vec::new(),
        seen_locks: BTreeSet::new(),
    };
    if cfg.lock_analyze.is_empty() {
        return report;
    }
    let analyzed: Vec<&FileCtx> = files
        .iter()
        .filter(|f| {
            f.crate_name().is_some_and(|name| {
                cfg.lock_analyze.iter().any(|c| c == name)
                    && f.rel.starts_with(&format!("crates/{name}/src/"))
            }) && !Config::path_matches(&cfg.lock_helpers, &f.rel)
        })
        .collect();
    if analyzed.is_empty() {
        return report;
    }

    // --- call graph nodes: fn items, merged by bare name ------------------
    let mut fns: Vec<FnItem> = Vec::new();
    for (fi, f) in analyzed.iter().enumerate() {
        collect_fns(f, fi, &mut fns);
    }
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, f) in fns.iter().enumerate() {
        by_name.entry(&f.name).or_default().push(i);
    }

    // --- registrations + acquisitions feed the staleness set --------------
    for f in &analyzed {
        for name in registrations(f) {
            report.seen_locks.insert(name);
        }
    }

    // --- transitive effects per merged fn name ----------------------------
    let mut memo: BTreeMap<String, Effects> = BTreeMap::new();
    let names: Vec<String> = by_name.keys().map(|s| s.to_string()).collect();
    for name in &names {
        let mut visiting = BTreeSet::new();
        effects_of(name, &analyzed, &fns, &by_name, &mut memo, &mut visiting);
    }

    // --- per-acquisition guard-extent scan --------------------------------
    let mut edges: BTreeMap<(String, String), EdgeInfo> = BTreeMap::new();
    let mut undeclared: BTreeMap<String, (String, usize, usize)> = BTreeMap::new();
    for item in &fns {
        let ctx = analyzed[item.file];
        let tokens = ctx.tokens();
        if ctx.in_test(item.body.0) {
            continue; // test-only fns are not production lock traffic
        }
        let skip = nested_ranges(item, &fns);
        for acq in collect_acquisitions(tokens, item.body, &skip) {
            report.seen_locks.insert(acq.name.clone());
            if ctx.in_test(acq.at) {
                continue;
            }
            if cfg.rank_of(&acq.name).is_none() {
                let t = &tokens[acq.at];
                undeclared
                    .entry(acq.name.clone())
                    .or_insert((ctx.rel.clone(), t.line, t.col));
            }
            scan_extent(
                ctx,
                tokens,
                item,
                &skip,
                &acq,
                &by_name,
                &memo,
                &mut edges,
                &mut report,
            );
        }
    }

    // --- LML0007: self-edges, rank inversions, cycles ---------------------
    for ((held, taken), e) in &edges {
        if held == taken {
            report.diagnostics.push(Diagnostic {
                rule: Rule::LockOrderCycle,
                file: e.file.clone(),
                line: e.line,
                col: e.col,
                message: format!(
                    "lock `{held}` is acquired again while already held{}; \
                     std::sync::Mutex is not reentrant, so this self-deadlocks",
                    via(&e.via)
                ),
            });
            continue;
        }
        if let (Some(rh), Some(rt)) = (cfg.rank_of(held), cfg.rank_of(taken)) {
            if rh >= rt {
                report.diagnostics.push(Diagnostic {
                    rule: Rule::LockOrderCycle,
                    file: e.file.clone(),
                    line: e.line,
                    col: e.col,
                    message: format!(
                        "acquiring `{taken}` (rank {rt}) while holding `{held}` (rank {rh}) \
                         inverts the declared [locks.ranks] order{}; the runtime lock-rank \
                         sanitizer aborts on exactly this acquisition",
                        via(&e.via)
                    ),
                });
            }
        }
    }
    let mut reported_cycles: BTreeSet<BTreeSet<String>> = BTreeSet::new();
    for ((a, b), e) in &edges {
        if a == b {
            continue;
        }
        let Some(back) = path_between(&edges, b, a) else {
            continue;
        };
        let nodes: BTreeSet<String> = [a.clone(), b.clone()]
            .into_iter()
            .chain(back.clone())
            .collect();
        if !reported_cycles.insert(nodes) {
            continue;
        }
        let back_edge = &edges[&(b.clone(), back[0].clone())];
        let back_path: Vec<String> = std::iter::once(b.clone()).chain(back.clone()).collect();
        report.diagnostics.push(Diagnostic {
            rule: Rule::LockOrderCycle,
            file: e.file.clone(),
            line: e.line,
            col: e.col,
            message: format!(
                "lock-order cycle: `{a}` → `{b}` here{}, but `{}` at {}:{}{}; one thread per \
                 direction deadlocks — pick one order and fix the [locks.ranks] declaration",
                via(&e.via),
                back_path.join("` → `"),
                back_edge.file,
                back_edge.line,
                via(&back_edge.via),
            ),
        });
    }
    for (name, (file, line, col)) in undeclared {
        report.diagnostics.push(Diagnostic {
            rule: Rule::LockOrderCycle,
            file,
            line,
            col,
            message: format!(
                "lock `{name}` has no rank in lint.toml [locks.ranks]; every named lock needs \
                 a rank so the static analysis and the runtime lock-rank sanitizer enforce the \
                 same total order"
            ),
        });
    }
    report.diagnostics.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule, a.message.as_str()).cmp(&(
            b.file.as_str(),
            b.line,
            b.col,
            b.rule,
            b.message.as_str(),
        ))
    });
    report.diagnostics.dedup_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule, a.message.as_str())
            == (b.file.as_str(), b.line, b.col, b.rule, b.message.as_str())
    });
    report
}

fn via(chain: &[String]) -> String {
    if chain.is_empty() {
        String::new()
    } else {
        format!(" (via `{}`)", chain.join("` → `"))
    }
}

/// BFS a path of lock names from `from` to `to` along the edge set.
/// Returns the node sequence *after* `from` (ending in `to`).
fn path_between(
    edges: &BTreeMap<(String, String), EdgeInfo>,
    from: &str,
    to: &str,
) -> Option<Vec<String>> {
    let mut queue = std::collections::VecDeque::new();
    let mut seen = BTreeSet::new();
    queue.push_back((from.to_string(), Vec::new()));
    seen.insert(from.to_string());
    while let Some((node, path)) = queue.pop_front() {
        for (a, b) in edges.keys() {
            if a != &node || !seen.insert(b.clone()) {
                continue;
            }
            let mut next = path.clone();
            next.push(b.clone());
            if b == to {
                return Some(next);
            }
            queue.push_back((b.clone(), next));
        }
    }
    None
}

/// Collect `fn` items (with bodies) from one file. Bodiless trait-method
/// declarations are skipped; nested fns appear as their own items.
fn collect_fns(ctx: &FileCtx, file: usize, out: &mut Vec<FnItem>) {
    let tokens = ctx.tokens();
    for i in 0..tokens.len() {
        if !tokens[i].is_ident("fn") {
            continue;
        }
        let Some(name_tok) = tokens.get(i + 1) else {
            continue;
        };
        if name_tok.kind != Kind::Ident {
            continue;
        }
        // First `{` at delimiter depth 0 after the signature is the body;
        // a `;` at depth 0 first means a bodiless declaration.
        let mut depth = 0i64;
        let mut k = i + 2;
        let mut body = None;
        while k < tokens.len() {
            let t = &tokens[k];
            match t.kind {
                Kind::Open if t.ch == '{' && depth == 0 => {
                    body = Some(k);
                    break;
                }
                Kind::Open => depth += 1,
                Kind::Close => {
                    depth -= 1;
                    if depth < 0 {
                        break;
                    }
                }
                Kind::Punct if t.ch == ';' && depth == 0 => break,
                _ => {}
            }
            k += 1;
        }
        if let Some(b) = body {
            out.push(FnItem {
                name: name_tok.text.clone(),
                file,
                body: (b, matching_close(tokens, b)),
                params: param_names(&tokens[i + 2..b]),
            });
        }
    }
}

/// The parameter names in a fn signature (the tokens after the name,
/// up to the body): the idents directly followed by a single `:` at the
/// top level of the parameter list, which comes after any `<..>`
/// generics (whose `Fn(..)` bounds carry parens of their own).
fn param_names(sig: &[Token]) -> Vec<String> {
    let mut k = 0;
    if sig.first().is_some_and(|t| t.is_ch('<')) {
        let mut angle = 0i64;
        while let Some(t) = sig.get(k) {
            let arrow = k > 0 && sig[k - 1].is_ch('-');
            if t.is_ch('<') {
                angle += 1;
            } else if t.is_ch('>') && !arrow {
                angle -= 1;
                if angle == 0 {
                    break;
                }
            }
            k += 1;
        }
    }
    let Some(open) = (k..sig.len()).find(|&j| sig[j].is_ch('(')) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut depth = 0i64;
    for j in open..sig.len() {
        let t = &sig[j];
        match t.kind {
            Kind::Open => depth += 1,
            Kind::Close => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            Kind::Ident
                if depth == 1
                    && sig.get(j + 1).is_some_and(|c| c.is_ch(':'))
                    && !sig.get(j + 2).is_some_and(|c| c.is_ch(':')) =>
            {
                out.push(t.text.clone());
            }
            _ => {}
        }
    }
    out
}

/// Does token `k` call a workspace fn: `name(..)`, or a fn passed by
/// path as an argument (`Type::name` followed by `,` or `)`), which
/// the callee may call?
fn calls_at(tokens: &[Token], k: usize) -> bool {
    let next = tokens.get(k + 1);
    next.is_some_and(|p| p.ch == '(')
        || (k >= 2
            && tokens[k - 1].is_ch(':')
            && tokens[k - 2].is_ch(':')
            && next.is_some_and(|p| p.is_ch(',') || p.is_ch(')')))
}

/// Body ranges of fns nested strictly inside `item` (their code does not
/// run under `item`'s guards).
fn nested_ranges(item: &FnItem, fns: &[FnItem]) -> Vec<(usize, usize)> {
    fns.iter()
        .filter(|g| g.file == item.file && g.body.0 > item.body.0 && g.body.1 < item.body.1)
        .map(|g| g.body)
        .collect()
}

fn in_ranges(idx: usize, ranges: &[(usize, usize)]) -> bool {
    ranges.iter().any(|&(a, b)| idx >= a && idx <= b)
}

/// `RankedMutex::new("name", ..)` / `RankedMutex::with_rank("name", ..)`
/// registration names anywhere in the file (tests included — a rank used
/// only by a test lock is still live).
fn registrations(ctx: &FileCtx) -> Vec<String> {
    let tokens = ctx.tokens();
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        if tokens[i].is_ident("RankedMutex")
            && tokens.get(i + 1).is_some_and(|t| t.is_ch(':'))
            && tokens.get(i + 2).is_some_and(|t| t.is_ch(':'))
            && tokens
                .get(i + 3)
                .is_some_and(|t| t.is_ident("new") || t.is_ident("with_rank"))
            && tokens.get(i + 4).is_some_and(|t| t.ch == '(')
        {
            if let Some(lit) = tokens.get(i + 5).filter(|t| t.kind == Kind::Lit) {
                out.push(lit.text.trim_matches('"').to_string());
            }
        }
    }
    out
}

/// All lock acquisitions inside `body` (minus `skip` ranges): either
/// `lock_unpoisoned(&path.name)` or `name.lock()` / `.read()` /
/// `.write()` with *empty* parens (RwLock and RankedMutex style; an
/// `io::Write::write(buf)` call has arguments and does not match).
fn collect_acquisitions(
    tokens: &[Token],
    body: (usize, usize),
    skip: &[(usize, usize)],
) -> Vec<Acq> {
    let mut out = Vec::new();
    let mut i = body.0;
    while i <= body.1 {
        if in_ranges(i, skip) {
            i += 1;
            continue;
        }
        let t = &tokens[i];
        if t.kind != Kind::Ident {
            i += 1;
            continue;
        }
        if t.text == "lock_unpoisoned" && tokens.get(i + 1).is_some_and(|p| p.ch == '(') {
            let close = matching_close(tokens, i + 1);
            // The lock name is the last path ident of the argument:
            // `lock_unpoisoned(&self.cache)` → `cache`.
            let name = tokens[i + 1..close]
                .iter()
                .rev()
                .find(|t| t.kind == Kind::Ident)
                .map(|t| t.text.clone());
            if let Some(name) = name {
                let after = close + 1;
                out.push(Acq {
                    bound: binding(tokens, i, after),
                    name,
                    at: i,
                    after,
                });
            }
            i = close + 1;
            continue;
        }
        if matches!(t.text.as_str(), "lock" | "read" | "write")
            && i >= 2
            && tokens[i - 1].is_ch('.')
            && tokens[i - 2].kind == Kind::Ident
            && tokens.get(i + 1).is_some_and(|p| p.ch == '(')
            && tokens.get(i + 2).is_some_and(|p| p.ch == ')')
        {
            let after = i + 3;
            out.push(Acq {
                name: tokens[i - 2].text.clone(),
                bound: binding(tokens, i - 2, after),
                at: i,
                after,
            });
            i = after;
            continue;
        }
        i += 1;
    }
    out
}

/// Is the guard produced at `chain_start..after` bound to a name, or a
/// temporary? The chain continuing past the acquisition (`.method(..)`)
/// makes the *guard* a temporary whatever the statement binds.
fn binding(tokens: &[Token], chain_start: usize, after: usize) -> Option<String> {
    if tokens.get(after).is_some_and(|t| t.is_ch('.'))
        && tokens.get(after + 1).is_some_and(|t| t.kind == Kind::Ident)
    {
        return None;
    }
    // Walk left over the receiver path: `self.stats` / `crate::sync::f`.
    let mut j = chain_start;
    loop {
        if j >= 2 && tokens[j - 1].is_ch('.') && tokens[j - 2].kind == Kind::Ident {
            j -= 2;
        } else if j >= 3
            && tokens[j - 1].is_ch(':')
            && tokens[j - 2].is_ch(':')
            && tokens[j - 3].kind == Kind::Ident
        {
            j -= 3;
        } else {
            break;
        }
    }
    if j >= 2 && tokens[j - 1].is_ch('=') && tokens[j - 2].kind == Kind::Ident {
        let name = &tokens[j - 2];
        if !name.is_ident("mut") {
            return Some(name.text.clone());
        }
    }
    None
}

/// End (exclusive) of the tokens during which the guard from `acq` is
/// live: block close for let-bound guards (truncated at `drop(g)`),
/// Rust 2021 temporary extent otherwise.
fn guard_end(tokens: &[Token], item: &FnItem, acq: &Acq) -> usize {
    match &acq.bound {
        Some(g) => {
            let close = enclosing_brace_close(tokens, acq.after, item.body.1);
            // An explicit `drop(g)` ends the guard early.
            let mut k = acq.after;
            while k + 3 < close {
                if tokens[k].is_ident("drop")
                    && tokens[k + 1].ch == '('
                    && tokens[k + 2].is_ident(g)
                    && tokens[k + 3].ch == ')'
                {
                    return k;
                }
                k += 1;
            }
            close
        }
        None => temp_extent(tokens, acq.after, item.body.1),
    }
}

/// The innermost `}` closing over position `from` (bounded by the fn
/// body's close).
fn enclosing_brace_close(tokens: &[Token], from: usize, body_end: usize) -> usize {
    let mut depth = 0i64;
    let end = body_end.min(tokens.len().saturating_sub(1));
    for (k, t) in tokens.iter().enumerate().take(end + 1).skip(from) {
        match t.kind {
            Kind::Open if t.ch == '{' => depth += 1,
            Kind::Close if t.ch == '}' => {
                depth -= 1;
                if depth < 0 {
                    return k;
                }
            }
            _ => {}
        }
    }
    body_end
}

/// Rust 2021 temporary scope: the guard dies at the statement's `;`, at
/// the close of the enclosing delimiter — or, when the statement grows a
/// block at depth 0 (`if let` / `match` / `for` over the guard), at the
/// end of that block including any `else` chain, because scrutinee
/// temporaries live through the body.
fn temp_extent(tokens: &[Token], after: usize, body_end: usize) -> usize {
    let mut depth = 0i64;
    let mut k = after;
    while k <= body_end {
        let t = &tokens[k];
        match t.kind {
            Kind::Open if t.ch == '{' && depth == 0 => {
                let mut close = matching_close(tokens, k);
                while tokens.get(close + 1).is_some_and(|t| t.is_ident("else")) {
                    let mut j = close + 2;
                    let mut d2 = 0i64;
                    while j <= body_end {
                        let u = &tokens[j];
                        match u.kind {
                            Kind::Open if u.ch == '{' && d2 == 0 => break,
                            Kind::Open => d2 += 1,
                            Kind::Close => d2 -= 1,
                            _ => {}
                        }
                        j += 1;
                    }
                    if j > body_end {
                        return body_end;
                    }
                    close = matching_close(tokens, j);
                }
                return close;
            }
            Kind::Open => depth += 1,
            Kind::Close => {
                if depth == 0 {
                    return k;
                }
                depth -= 1;
            }
            Kind::Punct if t.ch == ';' && depth == 0 => return k,
            _ => {}
        }
        k += 1;
    }
    body_end
}

/// A direct blocking fact at token `i`, if any: `(what, arg-idents)`.
/// The arg idents let the caller apply the condvar exemption (waiting
/// *with* the held guard is the one legitimate block-under-lock).
fn direct_blocking(tokens: &[Token], i: usize) -> Option<(String, Vec<String>)> {
    let t = &tokens[i];
    if t.kind != Kind::Ident {
        return None;
    }
    tokens.get(i + 1).filter(|p| p.ch == '(')?;
    let args = || {
        let close = matching_close(tokens, i + 1);
        tokens[i + 1..close]
            .iter()
            .filter(|t| t.kind == Kind::Ident)
            .map(|t| t.text.clone())
            .collect::<Vec<_>>()
    };
    let method = i > 0 && tokens[i - 1].is_ch('.');
    if method && BLOCKING_METHODS.contains(&t.text.as_str()) {
        return Some((format!("`.{}(..)`", t.text), args()));
    }
    if method && t.text == "join" && tokens.get(i + 2).is_some_and(|p| p.ch == ')') {
        // Empty parens only: `handle.join()` blocks, `path.join("x")` is
        // string concatenation.
        return Some(("`.join()`".to_string(), Vec::new()));
    }
    if !method && BLOCKING_CALLS.contains(&t.text.as_str()) {
        return Some((format!("`{}(..)`", t.text), args()));
    }
    if SUBSTRATE_CALLS.contains(&t.text.as_str()) {
        return Some((format!("substrate/service call `{}(..)`", t.text), args()));
    }
    // `File::open(..)` / `File::create(..)` / `fs::anything(..)`.
    if i >= 3
        && tokens[i - 1].is_ch(':')
        && tokens[i - 2].is_ch(':')
        && (tokens[i - 3].is_ident("File") && matches!(t.text.as_str(), "open" | "create")
            || tokens[i - 3].is_ident("fs"))
    {
        return Some((
            format!("`{}::{}(..)`", tokens[i - 3].text, t.text),
            Vec::new(),
        ));
    }
    None
}

/// Direct facts + transitive effects for one merged fn name, memoized.
fn effects_of(
    name: &str,
    analyzed: &[&FileCtx],
    fns: &[FnItem],
    by_name: &BTreeMap<&str, Vec<usize>>,
    memo: &mut BTreeMap<String, Effects>,
    visiting: &mut BTreeSet<String>,
) -> Effects {
    if let Some(e) = memo.get(name) {
        return e.clone();
    }
    if !visiting.insert(name.to_string()) {
        return Effects::default(); // recursion: cut the cycle
    }
    let mut eff = Effects::default();
    for &fi in by_name.get(name).into_iter().flatten() {
        let item = &fns[fi];
        let ctx = analyzed[item.file];
        let tokens = ctx.tokens();
        if ctx.in_test(item.body.0) {
            continue; // test helpers don't run on production paths
        }
        let skip = nested_ranges(item, fns);
        for acq in collect_acquisitions(tokens, item.body, &skip) {
            eff.acquires.entry(acq.name.clone()).or_insert_with(|| {
                let t = &tokens[acq.at];
                (
                    Vec::new(),
                    Site {
                        file: ctx.rel.clone(),
                        line: t.line,
                        what: format!("lock `{}`", acq.name),
                    },
                )
            });
        }
        let mut k = body_start(item);
        while k <= item.body.1 {
            if in_ranges(k, &skip) {
                k += 1;
                continue;
            }
            let t = &tokens[k];
            if t.kind != Kind::Ident {
                k += 1;
                continue;
            }
            if let Some((what, _)) = direct_blocking(tokens, k) {
                eff.blocks.get_or_insert_with(|| {
                    (
                        Vec::new(),
                        Site {
                            file: ctx.rel.clone(),
                            line: t.line,
                            what,
                        },
                    )
                });
                k = matching_close(tokens, k + 1) + 1;
                continue;
            }
            if t.text == "catch_unwind" && tokens.get(k + 1).is_some_and(|p| p.ch == '(') {
                eff.unwinds.get_or_insert_with(|| {
                    (
                        Vec::new(),
                        Site {
                            file: ctx.rel.clone(),
                            line: t.line,
                            what: "`catch_unwind(..)`".to_string(),
                        },
                    )
                });
                k += 1;
                continue;
            }
            // A call into the analyzed workspace: inherit its effects.
            if calls_at(tokens, k)
                && t.text != name
                && by_name.contains_key(t.text.as_str())
                && !(k > 0 && tokens[k - 1].is_ident("fn"))
            {
                let child = effects_of(&t.text, analyzed, fns, by_name, memo, visiting);
                if eff.blocks.is_none() {
                    if let Some((chain, site)) = child.blocks {
                        let mut c = vec![t.text.clone()];
                        c.extend(chain);
                        eff.blocks = Some((c, site));
                    }
                }
                for (lname, (chain, site)) in child.acquires {
                    eff.acquires.entry(lname).or_insert_with(|| {
                        let mut c = vec![t.text.clone()];
                        c.extend(chain.clone());
                        (c, site.clone())
                    });
                }
                if eff.unwinds.is_none() {
                    if let Some((chain, site)) = child.unwinds {
                        let mut c = vec![t.text.clone()];
                        c.extend(chain);
                        eff.unwinds = Some((c, site));
                    }
                }
            }
            k += 1;
        }
    }
    visiting.remove(name);
    memo.insert(name.to_string(), eff.clone());
    eff
}

fn body_start(item: &FnItem) -> usize {
    item.body.0 + 1
}

/// Scan one guard's live extent for inner acquisitions, blocking calls
/// and unwind boundaries, emitting LML0008/LML0009 and recording
/// LML0007 edges.
#[allow(clippy::too_many_arguments)]
fn scan_extent(
    ctx: &FileCtx,
    tokens: &[Token],
    item: &FnItem,
    skip: &[(usize, usize)],
    acq: &Acq,
    by_name: &BTreeMap<&str, Vec<usize>>,
    memo: &BTreeMap<String, Effects>,
    edges: &mut BTreeMap<(String, String), EdgeInfo>,
    report: &mut LockReport,
) {
    let end = guard_end(tokens, item, acq);
    let inner = collect_acquisitions(tokens, (acq.after, end.saturating_sub(1)), skip);
    for b in &inner {
        let t = &tokens[b.at];
        edges
            .entry((acq.name.clone(), b.name.clone()))
            .or_insert(EdgeInfo {
                file: ctx.rel.clone(),
                line: t.line,
                col: t.col,
                via: Vec::new(),
            });
    }
    let inner_at: BTreeSet<usize> = inner.iter().map(|b| b.at).collect();
    let guard_desc = match &acq.bound {
        Some(g) => format!("guard `{g}`"),
        None => "a temporary guard".to_string(),
    };
    let mut k = acq.after;
    while k < end {
        if in_ranges(k, skip) || inner_at.contains(&k) {
            k += 1;
            continue;
        }
        let t = &tokens[k];
        if t.kind != Kind::Ident {
            k += 1;
            continue;
        }
        if let Some((what, args)) = direct_blocking(tokens, k) {
            // Condvar exemption: waiting with the held guard releases it.
            let waits_own_guard = matches!(
                t.text.as_str(),
                "wait" | "wait_timeout" | "wait_while" | "wait_unpoisoned" | "wait_ranked"
            ) && acq
                .bound
                .as_ref()
                .is_some_and(|g| args.iter().any(|a| a == g));
            if !waits_own_guard && !ctx.attested(t.line, "blocking-ok") {
                report.diagnostics.push(ctx.diag(
                    Rule::BlockingUnderLock,
                    t,
                    format!(
                        "{what} while holding lock `{}` ({guard_desc}): blocking under a mutex \
                         stalls every thread contending for it; hoist the call out of the \
                         critical section or attest with `// lint: blocking-ok — <why>`",
                        acq.name
                    ),
                ));
            }
            k = matching_close(tokens, k + 1) + 1;
            continue;
        }
        if t.text == "catch_unwind" && tokens.get(k + 1).is_some_and(|p| p.ch == '(') {
            if !ctx.attested(t.line, "unwind-ok") {
                report.diagnostics.push(ctx.diag(
                    Rule::GuardAcrossUnwind,
                    t,
                    format!(
                        "lock `{}` ({guard_desc}) is live across this `catch_unwind` boundary: \
                         a panic inside poisons the lock under the recovery helper's feet; \
                         drop the guard first or attest with `// lint: unwind-ok — <why>`",
                        acq.name
                    ),
                ));
            }
            k += 1;
            continue;
        }
        if tokens.get(k + 1).is_some_and(|p| p.ch == '(')
            && item.params.contains(&t.text)
            && !(k > 0
                && (tokens[k - 1].is_ch('.')
                    || tokens[k - 1].is_ch(':')
                    || tokens[k - 1].is_ident("fn")))
        {
            if !ctx.attested(t.line, "unwind-ok") {
                report.diagnostics.push(ctx.diag(
                    Rule::GuardAcrossUnwind,
                    t,
                    format!(
                        "call to callback parameter `{}(..)` while lock `{}` ({guard_desc}) is \
                         live: the caller's closure may panic, block or lock where this \
                         analysis cannot see; drop the guard first or attest with \
                         `// lint: unwind-ok — <why>`",
                        t.text, acq.name,
                    ),
                ));
            }
            k += 1;
            continue;
        }
        if calls_at(tokens, k)
            && by_name.contains_key(t.text.as_str())
            && !(k > 0 && tokens[k - 1].is_ident("fn"))
        {
            if let Some(eff) = memo.get(&t.text) {
                for (lname, (chain, _site)) in &eff.acquires {
                    let mut viac = vec![t.text.clone()];
                    viac.extend(chain.clone());
                    edges
                        .entry((acq.name.clone(), lname.clone()))
                        .or_insert(EdgeInfo {
                            file: ctx.rel.clone(),
                            line: t.line,
                            col: t.col,
                            via: viac,
                        });
                }
                if let Some((chain, site)) = &eff.blocks {
                    if !ctx.attested(t.line, "blocking-ok") {
                        let mut viac = vec![t.text.clone()];
                        viac.extend(chain.clone());
                        report.diagnostics.push(ctx.diag(
                            Rule::BlockingUnderLock,
                            t,
                            format!(
                                "call to `{}(..)` reaches {} ({}:{}){} while lock `{}` \
                                 ({guard_desc}) is held; hoist it out of the critical section \
                                 or attest with `// lint: blocking-ok — <why>`",
                                t.text,
                                site.what,
                                site.file,
                                site.line,
                                via(&viac[1..]),
                                acq.name,
                            ),
                        ));
                    }
                }
                if let Some((chain, site)) = &eff.unwinds {
                    if !ctx.attested(t.line, "unwind-ok") {
                        let mut viac = vec![t.text.clone()];
                        viac.extend(chain.clone());
                        report.diagnostics.push(ctx.diag(
                            Rule::GuardAcrossUnwind,
                            t,
                            format!(
                                "call to `{}(..)` enters {} ({}:{}){} while lock `{}` \
                                 ({guard_desc}) is live; a panic there poisons the held lock; \
                                 drop the guard first or attest with `// lint: unwind-ok — <why>`",
                                t.text,
                                site.what,
                                site.file,
                                site.line,
                                via(&viac[1..]),
                                acq.name,
                            ),
                        ));
                    }
                }
            }
        }
        k += 1;
    }
}
