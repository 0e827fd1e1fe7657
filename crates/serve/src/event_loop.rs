//! The front-end's poll-based nonblocking event loop.
//!
//! Each loop thread owns a disjoint set of connections (dealt round-robin
//! by the acceptor through a per-loop inbox) and multiplexes them with
//! `TcpStream::set_nonblocking` plus a logical tick clock — no epoll
//! binding, no external deps, and no locking on the per-connection hot
//! path, because a connection is only ever touched by its owning loop.
//!
//! Every tick the loop: adopts newly accepted connections, routes
//! finished extension jobs back to their connections, reads whatever
//! each socket has (through a [`FrameAssembler`]) and dispatches complete
//! frames, polls in-flight [`ResponseHandle`]s, flushes bounded write
//! buffers, enforces the idle and mid-frame read deadlines, and reaps
//! closed connections. When no connection makes progress it sleeps one
//! tick interval, so an idle front-end costs a handful of mostly-parked
//! threads rather than two runnable threads per connection.
//!
//! Robustness decisions live here (the decision table is DESIGN.md §15):
//! per-connection in-flight caps shed with [`SHED_CONN_INFLIGHT`] rather
//! than exerting TCP pushback; a write buffer past its cap disconnects
//! that slow reader alone; a torn frame or idle socket past its tick
//! deadline is reaped; a malformed frame closes the connection (the
//! stream offset is unrecoverable). On shutdown the loop drains: GOAWAY
//! to every connection, in-flight responses deliver, new requests answer
//! [`CODE_SHUTDOWN`], quiet connections close, and a drain-budget
//! deadline force-closes stragglers.
//!
//! [`SHED_CONN_INFLIGHT`]: crate::frontend::SHED_CONN_INFLIGHT
//! [`CODE_SHUTDOWN`]: crate::frontend::CODE_SHUTDOWN

use crate::frontend::{
    goaway_frame_body, ExtRequest, ExtResponse, ExtensionHandler, FrameAssembler,
    LatencyHistogram, WireRequest, WireResponse, OP_EXT_REQUEST, OP_REQUEST,
};
use crate::request::RequestError;
use crate::service::{InferenceService, ResponseHandle};
use crate::sync::{wait_ranked, RankedMutex};
use std::collections::{BTreeMap, VecDeque};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar};
use std::time::{Duration, Instant};

/// The one wall-clock read in the front-end (allowlisted in `lint.toml`):
/// stamps request arrival so the served-latency ledger can be computed at
/// response time. Deadlines deliberately do *not* use it — they count
/// loop ticks, so deadline behavior is load-relative and testable by
/// shrinking tick knobs instead of sleeping wall time.
fn arrival_clock() -> Instant {
    Instant::now()
}

/// Event-loop knobs, resolved by `FrontendBuilder`.
#[derive(Debug, Clone)]
pub(crate) struct FeConfig {
    pub conn_inflight_cap: usize,
    pub ext_inflight_cap: usize,
    pub write_buf_cap: usize,
    pub idle_ticks: u64,
    pub mid_frame_ticks: u64,
    pub drain_ticks: u64,
    pub drain_linger_ticks: u64,
    pub tick_interval: Duration,
}

/// Shared front-end counters (the scalar half is lock-free; the
/// histogram sits behind its own leaf-rank lock).
pub(crate) struct FeCounters {
    pub responses: AtomicU64,
    pub shed: AtomicU64,
    pub shed_inflight: AtomicU64,
    pub accepted: AtomicU64,
    pub disconnected_slow: AtomicU64,
    pub disconnected_deadline: AtomicU64,
    pub malformed: AtomicU64,
    pub latency_micros: AtomicU64,
    pub hist: RankedMutex<LatencyHistogram>,
}

impl FeCounters {
    pub fn new() -> Self {
        Self {
            responses: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            shed_inflight: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
            disconnected_slow: AtomicU64::new(0),
            disconnected_deadline: AtomicU64::new(0),
            malformed: AtomicU64::new(0),
            latency_micros: AtomicU64::new(0),
            hist: RankedMutex::new("hist", LatencyHistogram::new()),
        }
    }

    /// Ledger update for one written response.
    fn response(&self, arrived: Instant, shed: bool, conn_shed: bool) {
        self.responses.fetch_add(1, Ordering::SeqCst);
        if shed {
            self.shed.fetch_add(1, Ordering::SeqCst);
        }
        if conn_shed {
            self.shed_inflight.fetch_add(1, Ordering::SeqCst);
        }
        let served = arrival_clock().saturating_duration_since(arrived);
        let micros = served.as_micros() as u64;
        self.latency_micros.fetch_add(micros, Ordering::SeqCst);
        self.hist.lock().record(micros);
    }
}

/// One queued extension call, owned by the worker pool until done.
pub(crate) struct ExtJob {
    conn: u64,
    id: u64,
    kind: u32,
    payload: Vec<u8>,
    arrived: Instant,
    done: mpsc::Sender<ExtDone>,
}

/// A finished extension call routed back to its owning loop.
pub(crate) struct ExtDone {
    conn: u64,
    id: u64,
    result: Result<Vec<u8>, String>,
    arrived: Instant,
}

struct ExtQueueState {
    jobs: VecDeque<ExtJob>,
    closed: bool,
}

/// Bounded MPMC queue feeding the extension worker pool. `try_push` never
/// blocks (overflow is the caller's shed decision); `pop` parks workers
/// on the condvar until work or close.
pub(crate) struct ExtQueue {
    extq: RankedMutex<ExtQueueState>,
    cv: Condvar,
    cap: usize,
}

impl ExtQueue {
    pub fn new(cap: usize) -> Self {
        Self {
            extq: RankedMutex::new(
                "extq",
                ExtQueueState {
                    jobs: VecDeque::new(),
                    closed: false,
                },
            ),
            cv: Condvar::new(),
            cap,
        }
    }

    /// Queue a job unless the pool is full or closed; the job comes back
    /// on refusal so the caller can shed it.
    fn try_push(&self, job: ExtJob) -> Result<(), ExtJob> {
        {
            let mut s = self.extq.lock();
            if s.closed || s.jobs.len() >= self.cap {
                return Err(job);
            }
            s.jobs.push_back(job);
        }
        self.cv.notify_one();
        Ok(())
    }

    /// Next job, parking until one arrives; `None` once closed and empty.
    fn pop(&self) -> Option<ExtJob> {
        let mut s = self.extq.lock();
        loop {
            if let Some(job) = s.jobs.pop_front() {
                return Some(job);
            }
            if s.closed {
                return None;
            }
            s = wait_ranked(&self.cv, s);
        }
    }

    /// Close the pool: workers finish queued jobs, then exit.
    pub fn close(&self) {
        self.extq.lock().closed = true;
        self.cv.notify_all();
    }
}

/// Worker-pool thread body: run handler calls (panics contained) and
/// route completions back to the owning loop.
pub(crate) fn run_ext_worker(queue: Arc<ExtQueue>, handler: Arc<dyn ExtensionHandler>) {
    while let Some(job) = queue.pop() {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            handler.handle(job.kind, &job.payload)
        }))
        .unwrap_or_else(|_| Err(format!("extension handler panicked (kind {})", job.kind)));
        let _ = job.done.send(ExtDone {
            conn: job.conn,
            id: job.id,
            result,
            arrived: job.arrived,
        });
    }
}

/// A loop's adoption inbox: `(connection id, socket)` pairs dealt by the
/// acceptor, drained by the owning loop at the top of each tick.
pub(crate) type AdoptInbox = Arc<RankedMutex<Vec<(u64, TcpStream)>>>;

/// Everything one event-loop thread needs.
pub(crate) struct LoopCtx {
    pub conns: AdoptInbox,
    pub service: Arc<InferenceService>,
    pub counters: Arc<FeCounters>,
    pub ext_queue: Option<Arc<ExtQueue>>,
    pub stop: Arc<AtomicBool>,
    pub conn_count: Arc<AtomicUsize>,
    pub cfg: FeConfig,
}

/// Why a connection is being closed (drives the stats ledger).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CloseReason {
    /// Peer EOF / drain complete / transport error: no ledger entry.
    Finished,
    /// First malformed frame.
    Malformed,
    /// Write buffer exceeded its cap (peer not reading).
    SlowReader,
    /// Idle or mid-frame tick deadline expired.
    Deadline,
}

/// Per-connection state, owned exclusively by one loop thread.
struct Conn {
    stream: TcpStream,
    assembler: FrameAssembler,
    /// Encoded-but-unflushed response bytes; bounded by `write_buf_cap`.
    write_buf: Vec<u8>,
    /// In-flight generation requests: id, handle, arrival stamp.
    pending: Vec<(u64, ResponseHandle, Instant)>,
    /// Extension calls currently queued or running in the pool.
    ext_inflight: usize,
    /// Tick of the last byte read (feeds both read deadlines).
    last_read_tick: u64,
    /// Tick of the last progress of any kind (drain-linger clock).
    last_activity_tick: u64,
    /// Peer sent EOF; serve out what is in flight, then close.
    read_closed: bool,
    close: Option<CloseReason>,
}

impl Conn {
    fn new(stream: TcpStream, tick: u64) -> Self {
        Self {
            stream,
            assembler: FrameAssembler::new(),
            write_buf: Vec::new(),
            pending: Vec::new(),
            ext_inflight: 0,
            last_read_tick: tick,
            last_activity_tick: tick,
            read_closed: false,
            close: None,
        }
    }

    /// Queue one length-prefixed frame, enforcing the write-buffer cap:
    /// a reader that will not drain responses is disconnected alone.
    fn queue_frame(&mut self, body: &[u8], cap: usize) {
        if self.close.is_some() {
            return;
        }
        if self.write_buf.len() + 4 + body.len() > cap {
            self.close = Some(CloseReason::SlowReader);
            return;
        }
        self.write_buf.extend_from_slice(&(body.len() as u32).to_le_bytes());
        self.write_buf.extend_from_slice(body);
    }

    /// Nothing left to serve on this connection.
    fn quiescent(&self) -> bool {
        self.pending.is_empty()
            && self.ext_inflight == 0
            && self.write_buf.is_empty()
            && !self.assembler.mid_frame()
    }
}

/// One event-loop thread: multiplex this loop's connections until stop,
/// then drain them.
pub(crate) fn run_event_loop(ctx: LoopCtx) {
    let cfg = &ctx.cfg;
    let mut conns: BTreeMap<u64, Conn> = BTreeMap::new();
    let (ext_tx, ext_rx) = mpsc::channel::<ExtDone>();
    let mut scratch = vec![0u8; 16 * 1024];
    let mut tick: u64 = 0;
    let mut drain_started: Option<u64> = None;

    loop {
        tick += 1;
        let mut progress = false;

        // Adopt newly accepted connections (the inbox lock is the only
        // cross-thread lock on the connection path).
        let adopted = std::mem::take(&mut *ctx.conns.lock());
        for (token, stream) in adopted {
            progress = true;
            if stream.set_nonblocking(true).is_err() {
                ctx.conn_count.fetch_sub(1, Ordering::SeqCst);
                continue;
            }
            conns.insert(token, Conn::new(stream, tick));
        }

        // Entering drain: announce GOAWAY on every live connection.
        let draining = ctx.stop.load(Ordering::SeqCst);
        if draining && drain_started.is_none() {
            drain_started = Some(tick);
            let goaway = goaway_frame_body();
            for conn in conns.values_mut() {
                conn.queue_frame(&goaway, cfg.write_buf_cap);
            }
        }

        // Route finished extension jobs back to their connections.
        while let Ok(done) = ext_rx.try_recv() {
            progress = true;
            if let Some(conn) = conns.get_mut(&done.conn) {
                conn.ext_inflight = conn.ext_inflight.saturating_sub(1);
                conn.last_activity_tick = tick;
                let frame = ExtResponse {
                    id: done.id,
                    result: done.result,
                }
                .encode();
                conn.queue_frame(&frame, cfg.write_buf_cap);
                ctx.counters.response(done.arrived, false, false);
            }
        }

        for (&token, conn) in conns.iter_mut() {
            if conn.close.is_some() {
                continue;
            }
            let token_progress = service_conn(token, conn, &ctx, &ext_tx, draining, tick, &mut scratch);
            if token_progress {
                conn.last_activity_tick = tick;
                progress = true;
            }
        }

        // Deadlines and retirement decisions.
        for conn in conns.values_mut() {
            if conn.close.is_some() {
                continue;
            }
            if conn.read_closed && conn.pending.is_empty() && conn.ext_inflight == 0
                && conn.write_buf.is_empty()
            {
                conn.close = Some(CloseReason::Finished);
            } else if drain_started.is_some() {
                // During drain, close once quiet for the linger window —
                // long enough to read and answer bytes already in the
                // kernel buffer when the drain began.
                if conn.quiescent()
                    && tick.saturating_sub(conn.last_activity_tick) > cfg.drain_linger_ticks
                {
                    conn.close = Some(CloseReason::Finished);
                }
            } else if (conn.assembler.mid_frame()
                && tick.saturating_sub(conn.last_read_tick) > cfg.mid_frame_ticks)
                || (conn.quiescent()
                    && tick.saturating_sub(conn.last_read_tick) > cfg.idle_ticks)
            {
                // A torn frame past its budget or a fully idle peer:
                // either way the read deadline reaps it.
                conn.close = Some(CloseReason::Deadline);
            }
        }

        // Reap closed connections; dropping pending handles cancels
        // their requests inside the service.
        let before = conns.len();
        conns.retain(|_, conn| match conn.close {
            None => true,
            Some(reason) => {
                match reason {
                    CloseReason::Finished => {}
                    CloseReason::Malformed => {
                        ctx.counters.malformed.fetch_add(1, Ordering::SeqCst);
                    }
                    CloseReason::SlowReader => {
                        ctx.counters.disconnected_slow.fetch_add(1, Ordering::SeqCst);
                    }
                    CloseReason::Deadline => {
                        ctx.counters
                            .disconnected_deadline
                            .fetch_add(1, Ordering::SeqCst);
                    }
                }
                let _ = conn.stream.shutdown(Shutdown::Both);
                ctx.conn_count.fetch_sub(1, Ordering::SeqCst);
                false
            }
        });
        progress |= conns.len() != before;

        if let Some(start) = drain_started {
            if conns.is_empty() {
                break;
            }
            if tick.saturating_sub(start) > cfg.drain_ticks {
                // Drain budget spent: force-close stragglers.
                for (_, conn) in std::mem::take(&mut conns) {
                    let _ = conn.stream.shutdown(Shutdown::Both);
                    ctx.conn_count.fetch_sub(1, Ordering::SeqCst);
                }
                break;
            }
        }

        if !progress {
            std::thread::sleep(cfg.tick_interval);
        }
    }
}

/// One tick of service for one connection: read+dispatch, poll pending
/// handles, flush writes. Returns whether anything progressed.
fn service_conn(
    token: u64,
    conn: &mut Conn,
    ctx: &LoopCtx,
    ext_tx: &mpsc::Sender<ExtDone>,
    draining: bool,
    tick: u64,
    scratch: &mut [u8],
) -> bool {
    let mut progress = read_and_dispatch(token, conn, ctx, ext_tx, draining, tick, scratch);
    progress |= poll_pending(conn, ctx);
    progress |= flush_writes(conn);
    progress
}

/// Read whatever the socket has (bounded per tick so one firehose cannot
/// starve its loop-mates), reassemble frames, dispatch each.
fn read_and_dispatch(
    token: u64,
    conn: &mut Conn,
    ctx: &LoopCtx,
    ext_tx: &mpsc::Sender<ExtDone>,
    draining: bool,
    tick: u64,
    scratch: &mut [u8],
) -> bool {
    let mut frames = Vec::new();
    let mut progress = false;
    let mut reads = 0;
    while reads < 4 && conn.close.is_none() && !conn.read_closed {
        match conn.stream.read(scratch) {
            Ok(0) => {
                conn.read_closed = true;
                if conn.assembler.mid_frame() {
                    // Torn tail: EOF inside a frame is a protocol error.
                    conn.close = Some(CloseReason::Malformed);
                }
            }
            Ok(n) => {
                progress = true;
                conn.last_read_tick = tick;
                reads += 1;
                if conn.assembler.feed(&scratch[..n], &mut frames).is_err() {
                    conn.close = Some(CloseReason::Malformed);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.close = Some(CloseReason::Finished);
            }
        }
    }
    for body in frames {
        if conn.close.is_some() {
            break;
        }
        progress = true;
        dispatch_frame(token, body, conn, ctx, ext_tx, draining);
    }
    progress
}

/// Route one complete frame: generation submit (with the per-connection
/// in-flight cap), extension dispatch (with its cap and pool bound), or
/// a malformed-frame close.
fn dispatch_frame(
    token: u64,
    body: Vec<u8>,
    conn: &mut Conn,
    ctx: &LoopCtx,
    ext_tx: &mpsc::Sender<ExtDone>,
    draining: bool,
) {
    let cfg = &ctx.cfg;
    let arrived = arrival_clock();
    match body.first() {
        Some(&OP_REQUEST) => {
            let Ok(wire) = WireRequest::decode(&body) else {
                conn.close = Some(CloseReason::Malformed);
                return;
            };
            let id = wire.id;
            if draining {
                queue_response(conn, ctx, WireResponse::err(id, &RequestError::ShutDown), arrived, false);
                return;
            }
            if conn.pending.len() >= cfg.conn_inflight_cap {
                let shed = WireResponse::shed_conn_inflight(id, cfg.conn_inflight_cap);
                queue_response(conn, ctx, shed, arrived, true);
                return;
            }
            match wire.into_request().and_then(|r| ctx.service.submit(r)) {
                Ok(handle) => conn.pending.push((id, handle, arrived)),
                Err(error) => {
                    queue_response(conn, ctx, WireResponse::err(id, &error), arrived, false)
                }
            }
        }
        Some(&OP_EXT_REQUEST) => {
            let Ok(ext) = ExtRequest::decode(&body) else {
                conn.close = Some(CloseReason::Malformed);
                return;
            };
            if draining {
                queue_ext_error(conn, ctx, ext.id, "front-end shutting down".to_string(), arrived, false);
                return;
            }
            if conn.ext_inflight >= cfg.ext_inflight_cap {
                let msg = format!(
                    "shed: connection extension in-flight cap ({}) exceeded",
                    cfg.ext_inflight_cap
                );
                queue_ext_error(conn, ctx, ext.id, msg, arrived, true);
                return;
            }
            let Some(queue) = &ctx.ext_queue else {
                let msg = format!("this front-end serves no extension handler (kind {})", ext.kind);
                queue_ext_error(conn, ctx, ext.id, msg, arrived, false);
                return;
            };
            let job = ExtJob {
                conn: token,
                id: ext.id,
                kind: ext.kind,
                payload: ext.payload,
                arrived,
                done: ext_tx.clone(),
            };
            match queue.try_push(job) {
                Ok(()) => conn.ext_inflight += 1,
                Err(_refused) => {
                    let msg = "shed: extension worker pool queue full".to_string();
                    queue_ext_error(conn, ctx, ext.id, msg, arrived, true);
                }
            }
        }
        _ => conn.close = Some(CloseReason::Malformed),
    }
}

/// Poll in-flight generation handles; completions become response frames.
fn poll_pending(conn: &mut Conn, ctx: &LoopCtx) -> bool {
    let mut progress = false;
    let mut i = 0;
    while i < conn.pending.len() {
        match conn.pending[i].1.try_wait() {
            Some(result) => {
                progress = true;
                let (id, _, arrived) = conn.pending.swap_remove(i);
                let wire = match &result {
                    Ok(response) => WireResponse::ok(id, response),
                    Err(error) => WireResponse::err(id, error),
                };
                queue_response(conn, ctx, wire, arrived, false);
            }
            None => i += 1,
        }
    }
    progress
}

/// Write as much of the buffered output as the socket accepts.
fn flush_writes(conn: &mut Conn) -> bool {
    let mut written = 0;
    while written < conn.write_buf.len() {
        match conn.stream.write(&conn.write_buf[written..]) {
            Ok(0) => {
                conn.close = Some(CloseReason::Finished);
                break;
            }
            Ok(n) => written += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.close = Some(CloseReason::Finished);
                break;
            }
        }
    }
    conn.write_buf.drain(..written);
    written > 0
}

fn queue_response(conn: &mut Conn, ctx: &LoopCtx, wire: WireResponse, arrived: Instant, conn_shed: bool) {
    let shed = wire.is_shed() || conn_shed;
    conn.queue_frame(&wire.encode(), ctx.cfg.write_buf_cap);
    if conn.close != Some(CloseReason::SlowReader) {
        ctx.counters.response(arrived, shed, conn_shed);
    }
}

fn queue_ext_error(
    conn: &mut Conn,
    ctx: &LoopCtx,
    id: u64,
    message: String,
    arrived: Instant,
    conn_shed: bool,
) {
    let frame = ExtResponse {
        id,
        result: Err(message),
    }
    .encode();
    conn.queue_frame(&frame, ctx.cfg.write_buf_cap);
    if conn.close != Some(CloseReason::SlowReader) {
        ctx.counters.response(arrived, conn_shed, conn_shed);
    }
}
