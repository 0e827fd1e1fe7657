//! In-memory spans for the traced run.
//!
//! Every span the benchmark records wraps one benchmark-side call into a
//! layer's public API. Spans stay in memory until the run ends and are
//! then written out as JSON lines. Recording is off unless [`enable`] was
//! called, so the untraced run pays one relaxed atomic load per call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span. Times are nanoseconds since the trace epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// Shared by every span of one benchmark operation.
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Start keeping spans.
pub fn enable() {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(true, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn ns_since_epoch(t: Instant) -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    t.saturating_duration_since(epoch).as_nanos() as u64
}

fn push(span: Span) {
    SPANS
        .lock()
        .expect("span store poisoned by a panicking recorder")
        .push(span);
}

/// Run `f` inside a span named `name`, nested under the innermost span
/// open on this thread.
pub fn timed<R>(name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied();
        s.push(id);
        parent
    });
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    OPEN.with(|s| s.borrow_mut().pop());
    push(Span {
        id,
        parent,
        op,
        name,
        start_ns: ns_since_epoch(start),
        end_ns: ns_since_epoch(end),
    });
    out
}

/// [`timed`] when `on`, a plain call otherwise; `on` turns recording on.
pub fn maybe<R>(on: bool, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
    if on {
        enable();
        timed(name, op, f)
    } else {
        f()
    }
}

/// Record a span whose endpoints were taken elsewhere, such as an
/// open-loop request that was due at `start` and answered at `end`.
pub fn record(name: &'static str, op: u64, start: Instant, end: Instant) {
    if !enabled() {
        return;
    }
    push(Span {
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        parent: None,
        op,
        name,
        start_ns: ns_since_epoch(start),
        end_ns: ns_since_epoch(end),
    });
}

/// Every span recorded so far, in completion order.
pub fn spans() -> Vec<Span> {
    SPANS
        .lock()
        .expect("span store poisoned by a panicking recorder")
        .clone()
}

/// Self time (span minus its direct children) of every span, grouped by
/// span name, in nanoseconds.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in spans {
        let children = child_ns.get(&s.id).copied().unwrap_or(0);
        out.entry(s.name)
            .or_default()
            .push(s.dur_ns().saturating_sub(children) as f64);
    }
    out
}

/// Write `spans` as JSON lines to `path`.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, parent, s.op, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
