//! Line-protocol front-end: length-prefixed frames over TCP, served by a
//! poll-based nonblocking event loop.
//!
//! The service API ([`InferenceService`]) is in-process; this module puts
//! a wire in front of it so load generators and out-of-process callers can
//! drive a service of any shard count. The protocol is deliberately
//! minimal:
//!
//! * every frame is `u32-LE length` followed by that many body bytes
//!   ([`push_frame`]);
//! * bodies are an opcode byte, then fields in the
//!   [`lmpeel_recover::wire`] conventions the journals use (`u64` counts
//!   and lengths, 0/1 tags on optional fields), and every decoder is
//!   canonical: a body that decodes re-encodes to the same bytes;
//! * a request body carries a caller-chosen `u64` correlation id, the
//!   substrate name, the prompt token ids and the decoding knobs;
//! * a response body carries the same id plus either the generated ids
//!   with prefix-cache accounting, or an error code and message.
//!
//! Responses are written **as requests complete**, not in submission
//! order — the id is how callers re-associate them. That keeps the wire
//! open-loop: a client may pipeline any number of requests, and a full
//! service queue sheds with [`SHED_QUEUE_FULL`] instead of stalling the
//! connection (admission control is the service's backpressure policy,
//! surfaced as a response, never as TCP pushback on unrelated requests).
//!
//! Serving is a fixed thread budget, not thread-per-connection: an
//! acceptor plus a small set of event-loop threads (see
//! [`FrontendBuilder::loops`]) each multiplex many nonblocking
//! connections through per-connection [`FrameAssembler`] buffers, and a
//! bounded worker pool runs [`ExtensionHandler`] calls. Per-connection
//! robustness state — in-flight caps ([`SHED_CONN_INFLIGHT`]), bounded
//! write buffers with slow-reader disconnect, idle and mid-frame read
//! deadlines on a logical tick clock, and a GOAWAY drain frame — lives in
//! the event loop (`event_loop.rs`); the shed-vs-disconnect decision
//! table is documented in DESIGN.md §15.
//!
//! The front-end expects the service behind it to use the *reject*
//! backpressure policy: `submit` is called from the event loop, so a
//! blocking admission policy would stall every connection on that loop.

use crate::event_loop::{self, ExtQueue, FeCounters};
use crate::request::{Deadline, GenerateRequest, GenerateResponse, RequestError};
use crate::service::InferenceService;
use crate::sync::RankedMutex;
use lmpeel_recover::splitmix64;
use lmpeel_recover::wire::{self, Reader};
use lmpeel_tokenizer::TokenId;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Frames larger than this are a protocol violation and drop the
/// connection (16 MiB comfortably holds the longest ICL prompt).
pub const MAX_FRAME_LEN: usize = 16 << 20;

/// Response code: completed successfully.
pub const CODE_OK: u8 = 0;
/// Response code: shed by admission control (the service queue was full
/// under the reject policy). Open-loop clients count these as shed load,
/// not failures.
pub const SHED_QUEUE_FULL: u8 = 1;
/// Response code: the service is shutting down.
pub const CODE_SHUTDOWN: u8 = 2;
/// Response code: unknown substrate name.
pub const CODE_UNKNOWN_SUBSTRATE: u8 = 3;
/// Response code: the substrate cannot re-key to the requested model seed.
pub const CODE_REKEY_UNSUPPORTED: u8 = 4;
/// Response code: the substrate is quarantined.
pub const CODE_QUARANTINED: u8 = 5;
/// Response code: the request's deadline expired before completion.
pub const CODE_DEADLINE: u8 = 6;
/// Response code: the request was cancelled.
pub const CODE_CANCELLED: u8 = 7;
/// Response code: the substrate panicked while serving the request.
pub const CODE_PANICKED: u8 = 8;
/// Response code: the decode itself failed (invalid spec, ...).
pub const CODE_LM: u8 = 9;
/// Response code (extension frames only): the extension handler reported
/// an error, panicked, or the front-end was bound without one.
pub const CODE_EXT_FAILED: u8 = 10;
/// Response code: shed because this *connection* already has its full
/// [`FrontendBuilder::conn_inflight_cap`] of requests in flight. Unlike
/// [`SHED_QUEUE_FULL`] (a service-wide admission decision) this is a
/// per-client flow-control decision: one client pipelining past its cap
/// is shed without TCP pushback and without touching the service queue.
pub const SHED_CONN_INFLIGHT: u8 = 11;

pub(crate) const OP_REQUEST: u8 = 1;
pub(crate) const OP_RESPONSE: u8 = 2;
pub(crate) const OP_EXT_REQUEST: u8 = 3;
pub(crate) const OP_EXT_RESPONSE: u8 = 4;
pub(crate) const OP_GOAWAY: u8 = 5;

/// The one-byte GOAWAY frame body the front-end writes to every live
/// connection when [`Frontend::shutdown`] begins draining: in-flight
/// responses still deliver, requests arriving after it are answered with
/// [`CODE_SHUTDOWN`], and the server closes once the connection is quiet.
pub fn goaway_frame_body() -> Vec<u8> {
    vec![OP_GOAWAY]
}

/// True when `body` is a GOAWAY drain announcement.
/// [`FrontendClient::recv`] skips these; hand-rolled clients should treat
/// one as "finish reading, then reconnect elsewhere".
pub fn is_goaway(body: &[u8]) -> bool {
    body == [OP_GOAWAY]
}

/// A request as it travels the wire. Decoding knobs are the subset that
/// crosses process boundaries (the sampler stays at the service's
/// builder default — remote callers tune length, seed, stops and the
/// trace floor).
#[derive(Debug, Clone, PartialEq)]
pub struct WireRequest {
    /// Caller-chosen correlation id, echoed verbatim in the response.
    pub id: u64,
    /// Registered substrate name.
    pub substrate: String,
    /// Prompt token ids.
    pub prompt: Vec<TokenId>,
    /// Generation length cap.
    pub max_tokens: u32,
    /// Sampling seed.
    pub seed: u64,
    /// Trace-recording probability floor.
    pub trace_min_prob: f32,
    /// Stop-token set.
    pub stop_tokens: Vec<TokenId>,
    /// Optional model re-key seed.
    pub model_seed: Option<u64>,
    /// Optional logical step budget.
    pub step_budget: Option<u64>,
    /// Optional wall-clock deadline in milliseconds from submit.
    pub wall_ms: Option<u64>,
}

impl WireRequest {
    /// Minimal request: paper-default knobs except the length cap.
    pub fn new(
        id: u64,
        substrate: impl Into<String>,
        prompt: Vec<TokenId>,
        max_tokens: u32,
    ) -> Self {
        Self {
            id,
            substrate: substrate.into(),
            prompt,
            max_tokens,
            seed: 0,
            trace_min_prob: 1.0,
            stop_tokens: Vec::new(),
            model_seed: None,
            step_budget: None,
            wall_ms: None,
        }
    }

    /// Serialize to a frame body.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64 + 4 * (self.prompt.len() + self.stop_tokens.len()));
        buf.push(OP_REQUEST);
        wire::put_u64(&mut buf, self.id);
        wire::put_str(&mut buf, &self.substrate);
        wire::put_seq(&mut buf, &self.prompt, put_token);
        wire::put_u32(&mut buf, self.max_tokens);
        wire::put_u64(&mut buf, self.seed);
        wire::put_f32(&mut buf, self.trace_min_prob);
        wire::put_seq(&mut buf, &self.stop_tokens, put_token);
        for opt in [self.model_seed, self.step_budget, self.wall_ms] {
            wire::put_opt(&mut buf, opt, wire::put_u64);
        }
        buf
    }

    /// Parse a frame body.
    pub fn decode(body: &[u8]) -> Result<Self, WireError> {
        decode_body(body, OP_REQUEST, |r| {
            Some(Self {
                id: r.u64()?,
                substrate: r.str()?,
                prompt: r.seq(Reader::u32)?,
                max_tokens: r.u32()?,
                seed: r.u64()?,
                trace_min_prob: r.f32()?,
                stop_tokens: r.seq(Reader::u32)?,
                model_seed: r.opt(Reader::u64)?,
                step_budget: r.opt(Reader::u64)?,
                wall_ms: r.opt(Reader::u64)?,
            })
        })
    }

    /// Lower to a service request (spec validation happens here, so a bad
    /// wire spec becomes a [`CODE_LM`] response, not a dropped frame).
    pub fn into_request(self) -> Result<GenerateRequest, RequestError> {
        let mut b = GenerateRequest::builder(self.substrate, self.prompt)
            .max_tokens(self.max_tokens as usize)
            .seed(self.seed)
            .trace_min_prob(self.trace_min_prob)
            .stop_tokens(self.stop_tokens);
        if let Some(seed) = self.model_seed {
            b = b.model_seed(seed);
        }
        let mut deadline = Deadline::none();
        deadline.max_steps = self.step_budget;
        deadline.wall = self.wall_ms.map(Duration::from_millis);
        b.deadline(deadline).build()
    }
}

/// A response as it travels the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WireResponse {
    /// The request's correlation id, echoed.
    pub id: u64,
    /// Outcome: generated ids or an error code.
    pub body: WireResult,
}

/// Response payload variants.
#[derive(Debug, Clone, PartialEq)]
pub enum WireResult {
    /// Generation completed.
    Ok {
        /// Prompt tokens recovered from the prefix cache.
        reused: u32,
        /// Prompt tokens prefilled for this request.
        prefilled: u32,
        /// The sampled token ids, in order.
        tokens: Vec<TokenId>,
    },
    /// Generation failed or was shed.
    Err {
        /// One of the `CODE_*` / `SHED_*` error constants; never
        /// [`CODE_OK`], which the encoding reserves for `Ok`.
        code: u8,
        /// Human-readable detail (the service error's display form).
        message: String,
    },
}

impl WireResponse {
    /// Response for a completed generation.
    pub fn ok(id: u64, response: &GenerateResponse) -> Self {
        Self {
            id,
            body: WireResult::Ok {
                reused: response.reused_tokens as u32,
                prefilled: response.prefilled_tokens as u32,
                tokens: response.trace.generated_ids(),
            },
        }
    }

    /// Response for a failed or shed request.
    pub fn err(id: u64, e: &RequestError) -> Self {
        Self {
            id,
            body: WireResult::Err {
                code: error_code(e),
                message: e.to_string(),
            },
        }
    }

    /// The per-connection flow-control shed ([`SHED_CONN_INFLIGHT`]).
    pub fn shed_conn_inflight(id: u64, cap: usize) -> Self {
        Self {
            id,
            body: WireResult::Err {
                code: SHED_CONN_INFLIGHT,
                message: format!("connection in-flight cap ({cap}) exceeded"),
            },
        }
    }

    /// True when this response is a shed — admission control
    /// ([`SHED_QUEUE_FULL`]) or per-connection flow control
    /// ([`SHED_CONN_INFLIGHT`]).
    pub fn is_shed(&self) -> bool {
        matches!(
            self.body,
            WireResult::Err { code, .. } if code == SHED_QUEUE_FULL || code == SHED_CONN_INFLIGHT
        )
    }

    /// Serialize to a frame body.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(32);
        buf.push(OP_RESPONSE);
        wire::put_u64(&mut buf, self.id);
        match &self.body {
            WireResult::Ok {
                reused,
                prefilled,
                tokens,
            } => {
                buf.push(CODE_OK);
                wire::put_u32(&mut buf, *reused);
                wire::put_u32(&mut buf, *prefilled);
                wire::put_seq(&mut buf, tokens, put_token);
            }
            WireResult::Err { code, message } => {
                buf.push(*code);
                wire::put_str(&mut buf, message);
            }
        }
        buf
    }

    /// Parse a frame body.
    pub fn decode(body: &[u8]) -> Result<Self, WireError> {
        decode_body(body, OP_RESPONSE, |r| {
            let id = r.u64()?;
            let body = match r.u8()? {
                CODE_OK => WireResult::Ok {
                    reused: r.u32()?,
                    prefilled: r.u32()?,
                    tokens: r.seq(Reader::u32)?,
                },
                code => WireResult::Err {
                    code,
                    message: r.str()?,
                },
            };
            Some(Self { id, body })
        })
    }
}

/// An extension request: a kind-tagged opaque payload routed to the
/// front-end's [`ExtensionHandler`] instead of the LM service. This is how
/// auxiliary request kinds (the tune service's framed protocol) share one
/// connection, framing and correlation-id scheme with generation traffic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtRequest {
    /// Caller-chosen correlation id, echoed verbatim in the response.
    pub id: u64,
    /// Handler-defined request kind (namespaced by the handler).
    pub kind: u32,
    /// Opaque request payload; the handler owns its codec.
    pub payload: Vec<u8>,
}

impl ExtRequest {
    /// Serialize to a frame body.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(32 + self.payload.len());
        buf.push(OP_EXT_REQUEST);
        wire::put_u64(&mut buf, self.id);
        wire::put_u32(&mut buf, self.kind);
        wire::put_bytes(&mut buf, &self.payload);
        buf
    }

    /// Parse a frame body.
    pub fn decode(body: &[u8]) -> Result<Self, WireError> {
        decode_body(body, OP_EXT_REQUEST, |r| {
            Some(Self {
                id: r.u64()?,
                kind: r.u32()?,
                payload: r.bytes()?.to_vec(),
            })
        })
    }
}

/// An extension response: handler output bytes, or an error message with
/// [`CODE_EXT_FAILED`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtResponse {
    /// The request's correlation id, echoed.
    pub id: u64,
    /// Handler output payload, or the failure's display form.
    pub result: Result<Vec<u8>, String>,
}

impl ExtResponse {
    /// Serialize to a frame body.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(32);
        buf.push(OP_EXT_RESPONSE);
        wire::put_u64(&mut buf, self.id);
        match &self.result {
            Ok(payload) => {
                buf.push(CODE_OK);
                wire::put_bytes(&mut buf, payload);
            }
            Err(message) => {
                buf.push(CODE_EXT_FAILED);
                wire::put_str(&mut buf, message);
            }
        }
        buf
    }

    /// Parse a frame body. The code must be [`CODE_OK`] or
    /// [`CODE_EXT_FAILED`], the only two [`ExtResponse::encode`] writes.
    pub fn decode(body: &[u8]) -> Result<Self, WireError> {
        decode_body(body, OP_EXT_RESPONSE, |r| {
            let id = r.u64()?;
            let result = match r.u8()? {
                CODE_OK => Ok(r.bytes()?.to_vec()),
                CODE_EXT_FAILED => Err(r.str()?),
                _ => return None,
            };
            Some(Self { id, result })
        })
    }
}

/// Server-side handler for extension frames. One call per [`ExtRequest`],
/// on the front-end's bounded worker pool ([`FrontendBuilder::ext_workers`])
/// — a long-running handler (a full autotune) never blocks frame
/// ingestion or generation traffic, and a flood of extension frames
/// queues against [`FrontendBuilder::ext_queue_cap`] instead of spawning
/// unbounded threads. Panics are caught and surfaced as
/// [`CODE_EXT_FAILED`] responses.
pub trait ExtensionHandler: Send + Sync {
    /// Handle one request of `kind`; the payload codec is the handler's.
    fn handle(&self, kind: u32, payload: &[u8]) -> Result<Vec<u8>, String>;
}

/// Map a service error to its wire code.
fn error_code(e: &RequestError) -> u8 {
    match e {
        RequestError::QueueFull => SHED_QUEUE_FULL,
        RequestError::ShutDown => CODE_SHUTDOWN,
        RequestError::UnknownSubstrate(_) => CODE_UNKNOWN_SUBSTRATE,
        RequestError::RekeyUnsupported(_) => CODE_REKEY_UNSUPPORTED,
        RequestError::SubstrateQuarantined(_) => CODE_QUARANTINED,
        RequestError::DeadlineExceeded => CODE_DEADLINE,
        RequestError::Cancelled => CODE_CANCELLED,
        RequestError::Panicked(_) => CODE_PANICKED,
        RequestError::Lm(_) => CODE_LM,
    }
}

/// Malformed wire data. Always fatal for the connection: the stream
/// offset is unrecoverable once a frame fails to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Body ended before a field completed, or a field held a value its
    /// type forbids (a non-UTF-8 string, an unknown tag or code).
    Truncated,
    /// First body byte was not a known opcode.
    BadOpcode(u8),
    /// A frame declared a length above [`MAX_FRAME_LEN`].
    Oversize(usize),
    /// Bytes remained after the last field.
    TrailingBytes(usize),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame body truncated or malformed"),
            WireError::BadOpcode(op) => write!(f, "unknown opcode {op}"),
            WireError::Oversize(len) => {
                write!(f, "frame length {len} exceeds the {MAX_FRAME_LEN}-byte cap")
            }
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after the last field"),
        }
    }
}

impl std::error::Error for WireError {}

fn put_token(buf: &mut Vec<u8>, &t: &TokenId) {
    wire::put_u32(buf, t);
}

/// Decode one frame body: check the opcode, read the fields, and reject
/// trailing bytes. `fields` returning `None` (short body, bad UTF-8,
/// unknown tag or code) is [`WireError::Truncated`].
fn decode_body<T>(
    body: &[u8],
    op: u8,
    fields: impl FnOnce(&mut Reader<'_>) -> Option<T>,
) -> Result<T, WireError> {
    let mut r = Reader::new(body);
    match r.u8() {
        None => return Err(WireError::Truncated),
        Some(got) if got != op => return Err(WireError::BadOpcode(got)),
        Some(_) => {}
    }
    let value = fields(&mut r).ok_or(WireError::Truncated)?;
    match r.remaining() {
        0 => Ok(value),
        left => Err(WireError::TrailingBytes(left)),
    }
}

/// Append one frame to `out`: the body's u32-LE length, then the body.
/// The one place the frame prefix is written.
pub fn push_frame(out: &mut Vec<u8>, body: &[u8]) {
    wire::put_u32(out, body.len() as u32);
    out.extend_from_slice(body);
}

/// Write one length-prefixed frame.
fn write_frame(w: &mut impl Write, body: &[u8]) -> io::Result<()> {
    let mut frame = Vec::with_capacity(4 + body.len());
    push_frame(&mut frame, body);
    w.write_all(&frame)?;
    w.flush()
}

/// Read one length-prefixed frame. `Err` on EOF mid-frame, oversize
/// declarations, or transport errors.
fn read_frame(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)?;
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            WireError::Oversize(len).to_string(),
        ));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok(body)
}

/// Incremental frame reassembly over an arbitrarily chunked byte stream.
///
/// The event loop feeds whatever the nonblocking socket produced —
/// possibly a fraction of a length prefix, possibly several frames at
/// once — and complete frame bodies come out. Feeding any prefix of a
/// valid frame stream either yields exactly the complete frames that
/// prefix contains or (for protocol violations like an oversize length)
/// an error; it never panics and never mis-frames.
#[derive(Debug, Default)]
pub struct FrameAssembler {
    buf: Vec<u8>,
}

impl FrameAssembler {
    /// Fresh assembler with no buffered bytes.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed `bytes`, appending every frame body they complete to `out`.
    /// An error (oversize length declaration) is fatal for the stream:
    /// the connection must be dropped, since the frame boundary is lost.
    pub fn feed(&mut self, bytes: &[u8], out: &mut Vec<Vec<u8>>) -> Result<(), WireError> {
        self.buf.extend_from_slice(bytes);
        let mut pos = 0;
        loop {
            let rest = &self.buf[pos..];
            if rest.len() < 4 {
                break;
            }
            let len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as usize;
            if len > MAX_FRAME_LEN {
                self.buf.drain(..pos);
                return Err(WireError::Oversize(len));
            }
            if rest.len() < 4 + len {
                break;
            }
            out.push(rest[4..4 + len].to_vec());
            pos += 4 + len;
        }
        self.buf.drain(..pos);
        Ok(())
    }

    /// True when a frame is partially buffered (a stalled peer holding a
    /// torn frame; the mid-frame read deadline applies).
    pub fn mid_frame(&self) -> bool {
        !self.buf.is_empty()
    }

    /// Bytes currently buffered awaiting the rest of a frame.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }
}

/// Number of power-of-two latency buckets in [`LatencyHistogram`].
pub const LATENCY_BUCKETS: usize = 32;

/// A fixed-bucket latency histogram: bucket `i` counts samples in
/// `[2^i, 2^(i+1))` microseconds (bucket 0 also holds 0–1 µs, the last
/// bucket holds everything ≥ 2³¹ µs). Fixed power-of-two bucket edges
/// make merges deterministic and order-independent: merging is
/// element-wise addition, so shard and loop histograms combine to the
/// same result in any order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; LATENCY_BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            buckets: [0; LATENCY_BUCKETS],
        }
    }
}

impl LatencyHistogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_index(micros: u64) -> usize {
        if micros < 2 {
            0
        } else {
            (micros.ilog2() as usize).min(LATENCY_BUCKETS - 1)
        }
    }

    /// Record one sample.
    pub fn record(&mut self, micros: u64) {
        self.buckets[Self::bucket_index(micros)] += 1;
    }

    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Element-wise addition (deterministic, commutative, associative).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
    }

    /// Upper bound (in µs) of the bucket holding the `q`-quantile sample
    /// (`q` in `[0, 1]`); 0 when the histogram is empty. With
    /// power-of-two buckets this bounds the true percentile within 2×.
    pub fn percentile_upper_micros(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return if i == LATENCY_BUCKETS - 1 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
            }
        }
        u64::MAX
    }
}

/// Front-end throughput/latency counters (monotonic since bind).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontendStats {
    /// Responses written, successes and errors alike (generation and
    /// extension traffic; GOAWAY frames are not responses).
    pub responses: u64,
    /// Responses that were sheds of any kind: service admission
    /// ([`SHED_QUEUE_FULL`]), per-connection flow control
    /// ([`SHED_CONN_INFLIGHT`]) and extension-pool sheds.
    pub shed: u64,
    /// The subset of `shed` caused by per-connection caps (generation
    /// in-flight cap, extension in-flight cap, extension queue full).
    pub shed_inflight: u64,
    /// Connections ever accepted.
    pub accepted: u64,
    /// Connections dropped for not draining their responses (write
    /// buffer exceeded [`FrontendBuilder::write_buf_cap`]).
    pub disconnected_slow: u64,
    /// Connections reaped by the idle or mid-frame read deadline.
    pub disconnected_deadline: u64,
    /// Connections dropped on the first malformed frame.
    pub malformed: u64,
    /// Total served latency (arrival to response write) in microseconds,
    /// summed over all responses; divide by `responses` for the mean.
    pub latency_micros: u64,
    /// Bucketed served-latency histogram (same population as
    /// `latency_micros`), for wire-side p50/p99.
    pub latency: LatencyHistogram,
}

/// Configuration for [`Frontend`]: thread budget, per-connection caps,
/// and the logical tick clock's deadlines. The defaults serve production
/// traffic; tests tighten the tick knobs to make deadline behavior fast
/// to observe.
#[derive(Debug, Clone)]
pub struct FrontendBuilder {
    pub(crate) loops: usize,
    pub(crate) conn_inflight_cap: usize,
    pub(crate) ext_inflight_cap: usize,
    pub(crate) ext_workers: usize,
    pub(crate) ext_queue_cap: usize,
    pub(crate) write_buf_cap: usize,
    pub(crate) idle_ticks: u64,
    pub(crate) mid_frame_ticks: u64,
    pub(crate) drain_linger_ticks: u64,
    pub(crate) tick_interval: Duration,
}

impl Default for FrontendBuilder {
    fn default() -> Self {
        Self {
            loops: 4,
            conn_inflight_cap: 64,
            ext_inflight_cap: 4,
            ext_workers: 2,
            ext_queue_cap: 64,
            write_buf_cap: 1 << 20,
            idle_ticks: 600_000,
            mid_frame_ticks: 30_000,
            drain_linger_ticks: 64,
            tick_interval: Duration::from_micros(200),
        }
    }
}

impl FrontendBuilder {
    /// Number of event-loop threads connections are multiplexed over
    /// (round-robin at accept). Total front-end threads are
    /// `1 (acceptor) + loops + ext_workers`, independent of connection
    /// count. Clamped to at least 1.
    pub fn loops(mut self, n: usize) -> Self {
        self.loops = n.max(1);
        self
    }

    /// Per-connection cap on in-flight generation requests; excess
    /// pipelined requests are shed with [`SHED_CONN_INFLIGHT`].
    pub fn conn_inflight_cap(mut self, n: usize) -> Self {
        self.conn_inflight_cap = n.max(1);
        self
    }

    /// Per-connection cap on in-flight extension requests; excess are
    /// shed with a [`CODE_EXT_FAILED`] response.
    pub fn ext_inflight_cap(mut self, n: usize) -> Self {
        self.ext_inflight_cap = n.max(1);
        self
    }

    /// Extension worker-pool size (threads running
    /// [`ExtensionHandler::handle`]). Only spawned when an extension
    /// handler is bound.
    pub fn ext_workers(mut self, n: usize) -> Self {
        self.ext_workers = n.max(1);
        self
    }

    /// Bound on queued (accepted but not yet running) extension
    /// requests across all connections; overflow is shed.
    pub fn ext_queue_cap(mut self, n: usize) -> Self {
        self.ext_queue_cap = n.max(1);
        self
    }

    /// Per-connection write-buffer cap in bytes. A client that stops
    /// reading while responses accumulate past this is disconnected
    /// alone (slow-reader defense) — its backpressure never blocks the
    /// loop or other connections.
    pub fn write_buf_cap(mut self, bytes: usize) -> Self {
        self.write_buf_cap = bytes.max(4096);
        self
    }

    /// Idle deadline in ticks: a connection with no read activity and
    /// nothing in flight for this many loop ticks is reaped.
    pub fn idle_ticks(mut self, ticks: u64) -> Self {
        self.idle_ticks = ticks.max(1);
        self
    }

    /// Mid-frame deadline in ticks: a connection holding a torn frame
    /// (length prefix without its body) with no read progress for this
    /// many ticks is reaped — a stalled sender cannot pin the loop.
    pub fn mid_frame_ticks(mut self, ticks: u64) -> Self {
        self.mid_frame_ticks = ticks.max(1);
        self
    }

    /// Quiet period (ticks) a connection must hold during drain before
    /// it closes — long enough for bytes already in the kernel socket
    /// buffer to be read and answered.
    pub fn drain_linger_ticks(mut self, ticks: u64) -> Self {
        self.drain_linger_ticks = ticks.max(1);
        self
    }

    /// Sleep between loop iterations when no connection made progress
    /// (the logical tick clock's idle period). Deadline knobs are
    /// counted in ticks, not wall time: under load ticks run faster.
    pub fn tick_interval(mut self, interval: Duration) -> Self {
        self.tick_interval = interval.max(Duration::from_micros(10));
        self
    }

    /// Bind `addr` and start serving `service` with this configuration.
    pub fn bind(self, service: Arc<InferenceService>, addr: &str) -> io::Result<Frontend> {
        Frontend::bind_with(service, addr, None, self)
    }

    /// [`FrontendBuilder::bind`] with an [`ExtensionHandler`] answering
    /// extension frames from the worker pool.
    pub fn bind_with_extension(
        self,
        service: Arc<InferenceService>,
        addr: &str,
        extension: Arc<dyn ExtensionHandler>,
    ) -> io::Result<Frontend> {
        Frontend::bind_with(service, addr, Some(extension), self)
    }
}

/// A TCP front-end serving one [`InferenceService`] from a fixed thread
/// budget.
///
/// Bind on an ephemeral port, connect with [`FrontendClient`] (or any
/// implementation of the frame protocol), and [`Frontend::shutdown`] when
/// done — the service itself stays owned by the caller and outlives the
/// front-end. Shutdown drains gracefully: every live connection gets a
/// GOAWAY frame, in-flight responses deliver, then connections close.
pub struct Frontend {
    local_addr: SocketAddr,
    /// Stops the acceptor; set first on shutdown.
    stop_accept: Arc<AtomicBool>,
    /// Starts the loops' drain; set only once the acceptor has handed
    /// every accepted stream to a loop.
    stop: Arc<AtomicBool>,
    counters: Arc<FeCounters>,
    acceptor: Option<JoinHandle<(Dealer, Vec<TcpStream>)>>,
    loops: Vec<JoinHandle<()>>,
    ext_queue: Option<Arc<ExtQueue>>,
    ext_workers: Vec<JoinHandle<()>>,
    conn_count: Arc<AtomicUsize>,
}

impl Frontend {
    /// Configuration knobs (thread budget, caps, deadlines).
    pub fn builder() -> FrontendBuilder {
        FrontendBuilder::default()
    }

    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) with
    /// default configuration. Extension frames are answered with
    /// [`CODE_EXT_FAILED`]; use [`FrontendBuilder::bind_with_extension`]
    /// to serve them.
    pub fn bind(service: Arc<InferenceService>, addr: &str) -> io::Result<Frontend> {
        Self::bind_with(service, addr, None, FrontendBuilder::default())
    }

    fn bind_with(
        service: Arc<InferenceService>,
        addr: &str,
        extension: Option<Arc<dyn ExtensionHandler>>,
        builder: FrontendBuilder,
    ) -> io::Result<Frontend> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(FeCounters::new());
        let conn_count = Arc::new(AtomicUsize::new(0));

        // Bounded extension pool, only when a handler is bound.
        let (ext_queue, ext_workers) = match extension {
            Some(handler) => {
                let queue = Arc::new(ExtQueue::new(builder.ext_queue_cap));
                let workers = (0..builder.ext_workers)
                    .map(|_| {
                        let queue = Arc::clone(&queue);
                        let handler = Arc::clone(&handler);
                        std::thread::spawn(move || event_loop::run_ext_worker(queue, handler))
                    })
                    .collect();
                (Some(queue), workers)
            }
            None => (None, Vec::new()),
        };

        // One accept inbox per loop; the acceptor deals streams round-robin.
        let inboxes: Vec<event_loop::AdoptInbox> = (0..builder.loops)
            .map(|_| Arc::new(RankedMutex::new("conns", Vec::new())))
            .collect();
        let loops = inboxes
            .iter()
            .map(|inbox| {
                let ctx = event_loop::LoopCtx {
                    conns: Arc::clone(inbox),
                    service: Arc::clone(&service),
                    counters: Arc::clone(&counters),
                    ext_queue: ext_queue.clone(),
                    stop: Arc::clone(&stop),
                    conn_count: Arc::clone(&conn_count),
                    cfg: builder.clone(),
                };
                std::thread::spawn(move || event_loop::run_event_loop(ctx))
            })
            .collect();

        let stop_accept = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let stop_accept = Arc::clone(&stop_accept);
            let mut dealer = Dealer {
                inboxes,
                counters: Arc::clone(&counters),
                conn_count: Arc::clone(&conn_count),
                next_token: 0,
            };
            std::thread::spawn(move || {
                // Streams accepted once the stop is up go back to
                // `stop_and_join`, which alone can tell its own wake-up
                // connection apart from a late client.
                let mut late = Vec::new();
                for stream in listener.incoming() {
                    if stop_accept.load(Ordering::SeqCst) {
                        late.extend(stream);
                        break;
                    }
                    if let Ok(stream) = stream {
                        dealer.deal(stream);
                    }
                }
                // Handshakes completed before the stop are still queued.
                if listener.set_nonblocking(true).is_ok() {
                    late.extend(std::iter::from_fn(|| {
                        listener.accept().ok().map(|(s, _)| s)
                    }));
                }
                (dealer, late)
            })
        };

        Ok(Frontend {
            local_addr,
            stop_accept,
            stop,
            counters,
            acceptor: Some(acceptor),
            loops,
            ext_queue,
            ext_workers,
            conn_count,
        })
    }

    /// The bound address (the real port when bound with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Live connections currently owned by the event loops. Finished
    /// connections are reaped each tick, so this stays bounded by actual
    /// concurrency, not by connections ever accepted.
    pub fn connection_count(&self) -> usize {
        self.conn_count.load(Ordering::SeqCst)
    }

    /// Total front-end threads: acceptor + event loops + extension
    /// workers. Independent of connection count.
    pub fn thread_count(&self) -> usize {
        1 + self.loops.len() + self.ext_workers.len()
    }

    /// Snapshot of the served-traffic counters.
    pub fn stats(&self) -> FrontendStats {
        FrontendStats {
            responses: self.counters.responses.load(Ordering::SeqCst),
            shed: self.counters.shed.load(Ordering::SeqCst),
            shed_inflight: self.counters.shed_inflight.load(Ordering::SeqCst),
            accepted: self.counters.accepted.load(Ordering::SeqCst),
            disconnected_slow: self.counters.disconnected_slow.load(Ordering::SeqCst),
            disconnected_deadline: self.counters.disconnected_deadline.load(Ordering::SeqCst),
            malformed: self.counters.malformed.load(Ordering::SeqCst),
            latency_micros: self.counters.latency_micros.load(Ordering::SeqCst),
            latency: *self.counters.hist.lock(),
        }
    }

    /// Stop accepting and drain gracefully: every live connection
    /// receives a GOAWAY frame, in-flight responses (generation and
    /// extension) still deliver, requests arriving during the drain are
    /// answered with [`CODE_SHUTDOWN`], and connections close once
    /// quiet. Connections still open 60 000 ticks after the GOAWAY (the
    /// drain budget) are force-closed.
    pub fn shutdown(mut self) -> FrontendStats {
        self.stop_and_join();
        self.stats()
    }

    fn stop_and_join(&mut self) {
        // Stop and join the acceptor first, so every stream whose
        // handshake finished reaches a loop before the loops drain.
        self.stop_accept.store(true, Ordering::SeqCst);
        // Wake the acceptor out of `accept()` with a no-op connection.
        let wake = TcpStream::connect(self.local_addr).and_then(|s| s.local_addr());
        if let Some(acceptor) = self.acceptor.take() {
            if let Ok((mut dealer, late)) = acceptor.join() {
                for stream in late {
                    if stream.peer_addr().ok() != wake.as_ref().ok().copied() {
                        dealer.deal(stream);
                    }
                }
            }
        }
        self.stop.store(true, Ordering::SeqCst);
        for handle in self.loops.drain(..) {
            let _ = handle.join();
        }
        if let Some(queue) = &self.ext_queue {
            queue.close();
        }
        for handle in self.ext_workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Frontend {
    fn drop(&mut self) {
        if self.acceptor.is_some() {
            self.stop_and_join();
        }
    }
}

/// The acceptor's hand-off: deals accepted streams round-robin to the
/// loops' inboxes and counts them.
struct Dealer {
    inboxes: Vec<event_loop::AdoptInbox>,
    counters: Arc<FeCounters>,
    conn_count: Arc<AtomicUsize>,
    next_token: u64,
}

impl Dealer {
    fn deal(&mut self, stream: TcpStream) {
        self.counters.accepted.fetch_add(1, Ordering::SeqCst);
        self.conn_count.fetch_add(1, Ordering::SeqCst);
        let inbox = (self.next_token % self.inboxes.len() as u64) as usize;
        self.inboxes[inbox].lock().push((self.next_token, stream));
        self.next_token += 1;
    }
}

/// Capped exponential backoff for [`FrontendClient::connect_with_backoff`]:
/// attempt `k` waits `min(base·2^k, cap)` plus deterministic per-client
/// jitter (splitmix64 of `seed ^ k`, bounded by a quarter of the delay) —
/// the same jitter discipline as the scheduler's circuit breaker, so a
/// fleet of clients reconnecting after a front-end restart de-synchronizes
/// reproducibly instead of thundering in lockstep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReconnectPolicy {
    /// Total connect attempts (the first one is immediate).
    pub attempts: u32,
    /// Backoff before the second attempt.
    pub base: Duration,
    /// Upper bound on the exponential delay (before jitter).
    pub cap: Duration,
    /// Per-client jitter seed (derive from a client id for fleet spread).
    pub seed: u64,
}

impl Default for ReconnectPolicy {
    fn default() -> Self {
        Self {
            attempts: 6,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(640),
            seed: 0,
        }
    }
}

impl ReconnectPolicy {
    /// The deterministic sleep schedule between attempts
    /// (`attempts - 1` entries). Pure: same policy, same schedule.
    pub fn backoff_delays(&self) -> Vec<Duration> {
        (0..self.attempts.saturating_sub(1))
            .map(|k| {
                let exp = self.base.saturating_mul(1u32 << k.min(20));
                let capped = exp.min(self.cap);
                let micros = capped.as_micros() as u64;
                let jitter = splitmix64(self.seed ^ u64::from(k)) % (micros / 4 + 1);
                capped + Duration::from_micros(jitter)
            })
            .collect()
    }
}

/// Blocking client for the frame protocol. Pipelining-friendly: `send`
/// and `recv` are independent, and [`FrontendClient::try_clone`] lets a
/// sender thread and a receiver thread share one connection. GOAWAY
/// drain frames are skipped.
pub struct FrontendClient {
    stream: TcpStream,
}

impl FrontendClient {
    /// Connect to a bound [`Frontend`].
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        Ok(Self {
            stream: TcpStream::connect(addr)?,
        })
    }

    /// Connect, retrying per `policy` with capped exponential backoff
    /// and deterministic jitter. Returns the last error once the attempt
    /// budget is spent.
    pub fn connect_with_backoff(addr: SocketAddr, policy: ReconnectPolicy) -> io::Result<Self> {
        let delays = policy.backoff_delays();
        let mut last_err = None;
        for attempt in 0..policy.attempts.max(1) {
            match Self::connect(addr) {
                Ok(client) => return Ok(client),
                Err(e) => last_err = Some(e),
            }
            if let Some(delay) = delays.get(attempt as usize) {
                std::thread::sleep(*delay);
            }
        }
        Err(last_err
            .unwrap_or_else(|| io::Error::new(io::ErrorKind::NotConnected, "no connect attempts")))
    }

    /// Send one request frame (does not wait for the response).
    pub fn send(&mut self, request: &WireRequest) -> io::Result<()> {
        write_frame(&mut self.stream, &request.encode())
    }

    /// Block until the next response frame arrives (responses are in
    /// completion order; match [`WireResponse::id`] to your requests).
    pub fn recv(&mut self) -> io::Result<WireResponse> {
        let body = self.next_frame()?;
        WireResponse::decode(&body)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Send one extension request frame (does not wait for the response).
    pub fn send_ext(&mut self, request: &ExtRequest) -> io::Result<()> {
        write_frame(&mut self.stream, &request.encode())
    }

    /// Block until the next extension response frame arrives. Only valid
    /// on a connection carrying pure extension traffic; on a mixed
    /// connection an interleaved generation response fails the decode.
    pub fn recv_ext(&mut self) -> io::Result<ExtResponse> {
        let body = self.next_frame()?;
        ExtResponse::decode(&body)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Next non-GOAWAY frame body.
    fn next_frame(&mut self) -> io::Result<Vec<u8>> {
        loop {
            let body = read_frame(&mut self.stream)?;
            if !is_goaway(&body) {
                return Ok(body);
            }
        }
    }

    /// Clone the connection (shared socket, independent position is not a
    /// concern: frames are atomic writes and reads happen on one half).
    pub fn try_clone(&self) -> io::Result<Self> {
        Ok(Self {
            stream: self.stream.try_clone()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::InferenceService;
    use lmpeel_lm::{generate, GenerateSpec, InductionLm, LanguageModel};

    #[test]
    fn is_shed_covers_both_shed_codes() {
        assert!(WireResponse::err(2, &RequestError::QueueFull).is_shed());
        assert!(WireResponse::shed_conn_inflight(3, 64).is_shed());
        assert!(!WireResponse::err(4, &RequestError::ShutDown).is_shed());
    }

    #[test]
    fn malformed_bodies_are_rejected_not_panicked() {
        assert_eq!(WireRequest::decode(&[]), Err(WireError::Truncated));
        assert_eq!(WireRequest::decode(&[9]), Err(WireError::BadOpcode(9)));
        let mut good = WireRequest::new(1, "d", vec![1], 4).encode();
        good.push(0);
        assert_eq!(WireRequest::decode(&good), Err(WireError::TrailingBytes(1)));
        let truncated = &good[..good.len() - 4];
        assert!(WireRequest::decode(truncated).is_err());
        assert_eq!(WireResponse::decode(&[1]), Err(WireError::BadOpcode(1)));
    }

    #[test]
    fn request_decode_rejects_unknown_optional_tags() {
        // The body ends with the tag of its last optional field; any tag
        // but 0/1 would not survive a re-encode, so it must not decode.
        let good = WireRequest::new(1, "d", vec![1], 4).encode();
        for bad in [2u8, 8, 0x80] {
            let mut body = good.clone();
            *body.last_mut().unwrap() = bad;
            assert_eq!(
                WireRequest::decode(&body),
                Err(WireError::Truncated),
                "tag {bad}"
            );
        }
    }

    #[test]
    fn ext_response_decode_rejects_unknown_codes() {
        // The code byte follows the opcode and the u64 id.
        let good = ExtResponse {
            id: 3,
            result: Err("nope".into()),
        }
        .encode();
        assert_eq!(good[9], CODE_EXT_FAILED);
        for bad in [SHED_QUEUE_FULL, CODE_LM, 0xff] {
            let mut body = good.clone();
            body[9] = bad;
            assert_eq!(
                ExtResponse::decode(&body),
                Err(WireError::Truncated),
                "code {bad}"
            );
        }
    }

    #[test]
    fn frame_io_roundtrips_and_caps_length() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        let body = read_frame(&mut &buf[..]).unwrap();
        assert_eq!(body, b"hello");
        let huge = ((MAX_FRAME_LEN + 1) as u32).to_le_bytes();
        assert!(read_frame(&mut &huge[..]).is_err());
    }

    #[test]
    fn goaway_frames_are_recognizable_and_distinct() {
        let body = goaway_frame_body();
        assert!(is_goaway(&body));
        assert!(!is_goaway(&[]));
        assert!(!is_goaway(
            &WireResponse::err(1, &RequestError::ShutDown).encode()
        ));
    }

    #[test]
    fn frame_assembler_reassembles_under_arbitrary_chunking() {
        let frames: Vec<Vec<u8>> = vec![vec![], vec![1], vec![2, 3, 4], vec![0; 300]];
        let mut stream = Vec::new();
        for f in &frames {
            push_frame(&mut stream, f);
        }
        // Several chunk sizes, including 1 (maximal fragmentation).
        for chunk in [1usize, 2, 3, 7, 64, stream.len()] {
            let mut asm = FrameAssembler::new();
            let mut out = Vec::new();
            for piece in stream.chunks(chunk) {
                asm.feed(piece, &mut out).unwrap();
            }
            assert_eq!(out, frames, "chunk size {chunk}");
            assert!(!asm.mid_frame());
            assert_eq!(asm.buffered(), 0);
        }
        // A torn tail leaves the assembler mid-frame, never mis-framed.
        let mut asm = FrameAssembler::new();
        let mut out = Vec::new();
        asm.feed(&stream[..stream.len() - 1], &mut out).unwrap();
        assert_eq!(out.len(), frames.len() - 1);
        assert!(asm.mid_frame());
    }

    #[test]
    fn frame_assembler_rejects_oversize_lengths() {
        let mut asm = FrameAssembler::new();
        let mut out = Vec::new();
        let bad = ((MAX_FRAME_LEN + 1) as u32).to_le_bytes();
        assert_eq!(
            asm.feed(&bad, &mut out),
            Err(WireError::Oversize(MAX_FRAME_LEN + 1))
        );
        assert!(out.is_empty());
    }

    #[test]
    fn latency_histogram_buckets_merge_and_percentiles() {
        let mut h = LatencyHistogram::new();
        for micros in [0, 1, 2, 3, 4, 1000, u64::MAX] {
            h.record(micros);
        }
        assert_eq!(h.count(), 7);
        // 0 and 1 land in bucket 0; 2 and 3 in bucket 1; 4 in bucket 2.
        assert_eq!(h.buckets[0], 2);
        assert_eq!(h.buckets[1], 2);
        assert_eq!(h.buckets[2], 1);
        assert_eq!(h.buckets[LATENCY_BUCKETS - 1], 1);
        // Percentile upper bounds are monotone in q and bound the samples.
        assert_eq!(h.percentile_upper_micros(0.0), 1);
        assert!(h.percentile_upper_micros(0.5) <= h.percentile_upper_micros(0.99));
        assert_eq!(h.percentile_upper_micros(1.0), u64::MAX);
        // Merge is element-wise and order-independent.
        let mut a = LatencyHistogram::new();
        a.record(10);
        let mut ab = a;
        ab.merge(&h);
        let mut ba = h;
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.count(), 8);
        assert_eq!(LatencyHistogram::new().percentile_upper_micros(0.99), 0);
    }

    #[test]
    fn backoff_delays_are_deterministic_capped_and_jittered() {
        let policy = ReconnectPolicy {
            attempts: 6,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(40),
            seed: 7,
        };
        let delays = policy.backoff_delays();
        assert_eq!(delays.len(), 5);
        // Same policy, same schedule (pure function of the seed).
        assert_eq!(delays, policy.backoff_delays());
        // A different client seed de-synchronizes the schedule.
        let other = ReconnectPolicy { seed: 8, ..policy };
        assert_ne!(delays, other.backoff_delays());
        // Each delay is its exponential base plus at most 25% jitter.
        for (k, d) in delays.iter().enumerate() {
            let exp = Duration::from_millis(10 * (1 << k)).min(Duration::from_millis(40));
            assert!(*d >= exp, "delay {k} below base: {d:?}");
            assert!(
                *d <= exp + exp.mul_f64(0.25) + Duration::from_micros(1),
                "delay {k} over-jittered: {d:?}"
            );
        }
    }

    #[test]
    fn extension_requests_reach_the_handler_and_interleave_with_generation() {
        struct Doubler;
        impl ExtensionHandler for Doubler {
            fn handle(&self, kind: u32, payload: &[u8]) -> Result<Vec<u8>, String> {
                match kind {
                    1 => Ok(payload.iter().map(|b| b.wrapping_mul(2)).collect()),
                    _ => Err(format!("unknown kind {kind}")),
                }
            }
        }
        let model = Arc::new(InductionLm::paper(0));
        let prompt = model.tokenizer().encode("Performance: ");
        let service = Arc::new(
            InferenceService::builder()
                .model("default", model.clone())
                .build(),
        );
        let frontend = Frontend::builder()
            .bind_with_extension(Arc::clone(&service), "127.0.0.1:0", Arc::new(Doubler))
            .unwrap();
        // Extension traffic on its own connection...
        let mut ext_client = FrontendClient::connect(frontend.local_addr()).unwrap();
        ext_client
            .send_ext(&ExtRequest {
                id: 5,
                kind: 1,
                payload: vec![1, 2, 3],
            })
            .unwrap();
        ext_client
            .send_ext(&ExtRequest {
                id: 6,
                kind: 99,
                payload: vec![],
            })
            .unwrap();
        // ...while generation traffic flows on another.
        let mut lm_client = FrontendClient::connect(frontend.local_addr()).unwrap();
        lm_client
            .send(&WireRequest::new(1, "default", prompt, 3))
            .unwrap();
        assert!(matches!(
            lm_client.recv().unwrap().body,
            WireResult::Ok { .. }
        ));
        let mut got = std::collections::BTreeMap::new();
        for _ in 0..2 {
            let resp = ext_client.recv_ext().unwrap();
            got.insert(resp.id, resp.result);
        }
        assert_eq!(got[&5], Ok(vec![2, 4, 6]));
        assert_eq!(got[&6], Err("unknown kind 99".into()));
        let stats = frontend.shutdown();
        assert_eq!(stats.responses, 3, "ext responses count in the ledger");
        assert_eq!(stats.latency.count(), 3, "histogram covers every response");
    }

    #[test]
    fn extension_frames_without_a_handler_error_cleanly() {
        let model = Arc::new(InductionLm::paper(0));
        let service = Arc::new(InferenceService::builder().model("default", model).build());
        let frontend = Frontend::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();
        let mut client = FrontendClient::connect(frontend.local_addr()).unwrap();
        client
            .send_ext(&ExtRequest {
                id: 9,
                kind: 3,
                payload: vec![1],
            })
            .unwrap();
        let resp = client.recv_ext().unwrap();
        assert_eq!(resp.id, 9);
        let msg = resp.result.unwrap_err();
        assert!(msg.contains("no extension handler"), "got {msg:?}");
        frontend.shutdown();
    }

    #[test]
    fn panicking_extension_handlers_answer_instead_of_hanging() {
        struct Bomb;
        impl ExtensionHandler for Bomb {
            fn handle(&self, _kind: u32, _payload: &[u8]) -> Result<Vec<u8>, String> {
                panic!("boom");
            }
        }
        // Silence the worker thread's panic backtrace for clean test output.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let model = Arc::new(InductionLm::paper(0));
        let service = Arc::new(InferenceService::builder().model("default", model).build());
        let frontend = Frontend::builder()
            .bind_with_extension(Arc::clone(&service), "127.0.0.1:0", Arc::new(Bomb))
            .unwrap();
        let mut client = FrontendClient::connect(frontend.local_addr()).unwrap();
        client
            .send_ext(&ExtRequest {
                id: 1,
                kind: 0,
                payload: vec![],
            })
            .unwrap();
        let resp = client.recv_ext().unwrap();
        std::panic::set_hook(prev);
        assert!(resp.result.unwrap_err().contains("panicked"));
        frontend.shutdown();
    }

    #[test]
    fn end_to_end_pipelined_requests_match_direct_generation() {
        let model = Arc::new(InductionLm::paper(0));
        let prompt = model
            .tokenizer()
            .encode("Hyperparameter configuration: outer_loop_tiling_factor is 80\nPerformance: ");
        let service = Arc::new(
            InferenceService::builder()
                .model("default", model.clone())
                .build(),
        );
        let frontend = Frontend::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();
        let mut client = FrontendClient::connect(frontend.local_addr()).unwrap();

        // Pipeline three requests (two valid, one bad substrate) before
        // reading anything back.
        for id in 0..2u64 {
            let mut req = WireRequest::new(id, "default", prompt.clone(), 5);
            req.seed = id;
            client.send(&req).unwrap();
        }
        client
            .send(&WireRequest::new(2, "nope", prompt.clone(), 5))
            .unwrap();

        let mut got = std::collections::BTreeMap::new();
        for _ in 0..3 {
            let resp = client.recv().unwrap();
            got.insert(resp.id, resp.body);
        }
        for id in 0..2u64 {
            let spec = GenerateSpec::builder()
                .max_tokens(5)
                .seed(id)
                .trace_min_prob(1.0)
                .build()
                .unwrap();
            let expected = generate(&model, &prompt, &spec).unwrap();
            match &got[&id] {
                WireResult::Ok { tokens, .. } => {
                    assert_eq!(tokens, &expected.generated_ids(), "id {id}");
                }
                other => panic!("id {id}: expected ok, got {other:?}"),
            }
        }
        match &got[&2] {
            WireResult::Err { code, .. } => assert_eq!(*code, CODE_UNKNOWN_SUBSTRATE),
            other => panic!("expected unknown-substrate error, got {other:?}"),
        }

        let stats = frontend.shutdown();
        assert_eq!(stats.responses, 3);
        assert_eq!(stats.shed, 0);
    }

    #[test]
    fn per_connection_inflight_cap_sheds_instead_of_queueing() {
        use crate::faults::{Fault, FaultGate, FaultyLm};
        let gate = FaultGate::new();
        let model = Arc::new(InductionLm::paper(0));
        let prompt = model.tokenizer().encode("Performance: ");
        let faulty = Arc::new(FaultyLm::new(
            model,
            Fault::HangUntilGate(Arc::clone(&gate)),
        ));
        let service = Arc::new(InferenceService::builder().model("default", faulty).build());
        let frontend = Frontend::builder()
            .conn_inflight_cap(2)
            .tick_interval(Duration::from_micros(100))
            .bind(Arc::clone(&service), "127.0.0.1:0")
            .unwrap();
        let mut client = FrontendClient::connect(frontend.local_addr()).unwrap();
        for id in 0..4u64 {
            client
                .send(&WireRequest::new(id, "default", prompt.clone(), 2))
                .unwrap();
        }
        // Requests 2 and 3 exceed the cap while 0 and 1 hang at the gate.
        let mut shed_ids = Vec::new();
        for _ in 0..2 {
            let resp = client.recv().unwrap();
            match resp.body {
                WireResult::Err { code, ref message } => {
                    assert_eq!(code, SHED_CONN_INFLIGHT, "{message}");
                    shed_ids.push(resp.id);
                }
                ref other => panic!("expected conn-inflight shed, got {other:?}"),
            }
        }
        shed_ids.sort_unstable();
        assert_eq!(shed_ids, vec![2, 3]);
        gate.open();
        for _ in 0..2 {
            let resp = client.recv().unwrap();
            assert!(matches!(resp.body, WireResult::Ok { .. }), "id {}", resp.id);
        }
        let stats = frontend.shutdown();
        assert_eq!(stats.shed_inflight, 2);
        assert_eq!(stats.shed, 2);
        assert_eq!(stats.responses, 4);
    }

    #[test]
    fn per_connection_ext_cap_sheds_while_the_pool_is_busy() {
        use crate::sync::{wait_ranked, RankedMutex};
        use std::sync::Condvar;
        struct SlowExt {
            gate: Arc<(RankedMutex<bool>, Condvar)>,
        }
        impl ExtensionHandler for SlowExt {
            fn handle(&self, _kind: u32, payload: &[u8]) -> Result<Vec<u8>, String> {
                let (state, cv) = &*self.gate;
                let mut open = state.lock();
                while !*open {
                    open = wait_ranked(cv, open);
                }
                Ok(payload.to_vec())
            }
        }
        let gate = Arc::new((RankedMutex::with_rank("extgate", 99, false), Condvar::new()));
        let model = Arc::new(InductionLm::paper(0));
        let service = Arc::new(InferenceService::builder().model("default", model).build());
        let frontend = Frontend::builder()
            .ext_workers(1)
            .ext_inflight_cap(1)
            .tick_interval(Duration::from_micros(100))
            .bind_with_extension(
                Arc::clone(&service),
                "127.0.0.1:0",
                Arc::new(SlowExt {
                    gate: Arc::clone(&gate),
                }),
            )
            .unwrap();
        let mut client = FrontendClient::connect(frontend.local_addr()).unwrap();
        for id in 0..3u64 {
            client
                .send_ext(&ExtRequest {
                    id,
                    kind: 1,
                    payload: vec![id as u8],
                })
                .unwrap();
        }
        // Requests 1 and 2 exceed the per-connection ext cap while 0
        // blocks the (single-worker) pool.
        let mut sheds = 0;
        for _ in 0..2 {
            let resp = client.recv_ext().unwrap();
            let msg = resp.result.unwrap_err();
            assert!(msg.contains("shed"), "got {msg:?}");
            sheds += 1;
        }
        assert_eq!(sheds, 2);
        {
            let (state, cv) = &*gate;
            *state.lock() = true;
            cv.notify_all();
        }
        let resp = client.recv_ext().unwrap();
        assert_eq!(resp.id, 0);
        assert_eq!(resp.result, Ok(vec![0]));
        let stats = frontend.shutdown();
        assert_eq!(stats.shed_inflight, 2);
    }

    #[test]
    fn shutdown_sends_goaway_and_drains_in_flight_responses() {
        let model = Arc::new(InductionLm::paper(0));
        let prompt = model.tokenizer().encode("Performance: ");
        let service = Arc::new(InferenceService::builder().model("default", model).build());
        let frontend = Frontend::builder()
            .tick_interval(Duration::from_micros(100))
            .drain_linger_ticks(32)
            .bind(Arc::clone(&service), "127.0.0.1:0")
            .unwrap();
        assert!(frontend.thread_count() <= 8);
        let mut client = FrontendClient::connect(frontend.local_addr()).unwrap();
        for id in 0..3u64 {
            client
                .send(&WireRequest::new(id, "default", prompt.clone(), 3))
                .unwrap();
        }
        let drainer = std::thread::spawn(move || frontend.shutdown());
        // Every submitted request resolves: a real response if it was
        // admitted before the drain began, CODE_SHUTDOWN otherwise. Read
        // raw frames so the GOAWAY is seen rather than skipped.
        let mut got = 0;
        let mut goaways = 0;
        while let Ok(body) = read_frame(&mut client.stream) {
            if is_goaway(&body) {
                goaways += 1;
                continue;
            }
            match WireResponse::decode(&body).unwrap().body {
                WireResult::Ok { .. } => {}
                WireResult::Err { code, ref message } => {
                    assert_eq!(code, CODE_SHUTDOWN, "{message}");
                }
            }
            got += 1;
        }
        assert_eq!(got, 3, "drain delivered every in-flight response");
        assert_eq!(goaways, 1, "drain announced itself with GOAWAY");
        let stats = drainer.join().unwrap();
        assert_eq!(stats.responses, 3);
    }
}
