//! Multi-connection nonblocking wire client for front-end load tests.
//!
//! A [`WireSwarm`] holds many client connections to one
//! [`lmpeel_serve::Frontend`] and multiplexes them from a single thread,
//! mirroring the front-end's own event-loop discipline: nonblocking
//! sockets, per-connection [`FrameAssembler`]s, and buffered writes
//! flushed opportunistically. That lets one loadgen thread drive
//! hundreds or thousands of connections while still *reading* each of
//! them — a paced open-loop client that never trips the front-end's
//! slow-reader defense.
//!
//! The swarm surfaces raw frame bodies; callers decode them with the
//! wire types from [`lmpeel_serve::frontend`] and should skip GOAWAY
//! frames (see [`lmpeel_serve::frontend::is_goaway`]) when counting
//! responses.

use lmpeel_serve::frontend::{is_goaway, push_frame};
use lmpeel_serve::FrameAssembler;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// One swarm connection: nonblocking socket, reassembly buffer, and a
/// pending (not yet accepted by the kernel) write buffer.
struct SwarmConn {
    stream: TcpStream,
    assembler: FrameAssembler,
    outbox: Vec<u8>,
    /// Responses owed: queued request frames minus surfaced responses.
    expected: usize,
    open: bool,
}

/// A single-threaded fleet of nonblocking frame-protocol connections.
pub struct WireSwarm {
    conns: Vec<SwarmConn>,
}

impl WireSwarm {
    /// Open `n` nonblocking connections to `addr`.
    pub fn connect(addr: SocketAddr, n: usize) -> io::Result<Self> {
        let mut conns = Vec::with_capacity(n);
        for _ in 0..n {
            let stream = TcpStream::connect(addr)?;
            stream.set_nonblocking(true)?;
            stream.set_nodelay(true)?;
            conns.push(SwarmConn {
                stream,
                assembler: FrameAssembler::new(),
                outbox: Vec::new(),
                expected: 0,
                open: true,
            });
        }
        Ok(Self { conns })
    }

    /// Number of connections (open or not).
    pub fn len(&self) -> usize {
        self.conns.len()
    }

    /// True when the swarm holds no connections.
    pub fn is_empty(&self) -> bool {
        self.conns.is_empty()
    }

    /// Connections still open (neither side has closed them).
    pub fn open_count(&self) -> usize {
        self.conns.iter().filter(|c| c.open).count()
    }

    /// Queue one frame (`body` gets the u32-LE length prefix) on
    /// connection `conn`; it flushes during subsequent [`Self::pump`]
    /// calls. Queuing on a closed connection is a silent no-op — the
    /// loss shows up in the caller's response accounting.
    pub fn queue(&mut self, conn: usize, body: &[u8]) {
        let c = &mut self.conns[conn];
        if !c.open {
            return;
        }
        push_frame(&mut c.outbox, body);
        c.expected += 1;
    }

    /// One multiplexing pass: flush pending writes, read whatever the
    /// kernel has, and append completed frame bodies to `out` as
    /// `(connection index, body)`. Returns whether any byte moved
    /// (callers sleep briefly when nothing did).
    ///
    /// Only *interesting* connections are read — ones owed a response,
    /// holding a torn frame, or with unflushed writes. A thousand-strong
    /// swarm therefore costs one syscall per in-flight request per pass,
    /// not one per connection, which keeps a single pump thread honest
    /// at four-digit connection counts.
    pub fn pump(&mut self, out: &mut Vec<(usize, Vec<u8>)>) -> bool {
        let mut progress = false;
        let mut buf = [0u8; 16 * 1024];
        for (idx, c) in self.conns.iter_mut().enumerate() {
            if !c.open || (c.expected == 0 && c.outbox.is_empty() && !c.assembler.mid_frame()) {
                continue;
            }
            // Flush as much of the outbox as the kernel accepts.
            while !c.outbox.is_empty() {
                match c.stream.write(&c.outbox) {
                    Ok(0) => {
                        c.open = false;
                        break;
                    }
                    Ok(n) => {
                        c.outbox.drain(..n);
                        progress = true;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        c.open = false;
                        break;
                    }
                }
            }
            // Read and reassemble whatever has arrived.
            loop {
                match c.stream.read(&mut buf) {
                    Ok(0) => {
                        c.open = false;
                        break;
                    }
                    Ok(n) => {
                        progress = true;
                        let mut frames = Vec::new();
                        if c.assembler.feed(&buf[..n], &mut frames).is_err() {
                            c.open = false;
                            break;
                        }
                        for f in frames {
                            // GOAWAY is unsolicited; everything else
                            // settles one owed response.
                            if !is_goaway(&f) {
                                c.expected = c.expected.saturating_sub(1);
                            }
                            out.push((idx, f));
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        c.open = false;
                        break;
                    }
                }
            }
        }
        progress
    }

    /// Bytes queued but not yet handed to the kernel, across the swarm.
    pub fn backlog(&self) -> usize {
        self.conns.iter().map(|c| c.outbox.len()).sum()
    }

    /// Close every connection (write side first, so the front-end sees
    /// orderly EOFs rather than idle-deadline reaps).
    pub fn shutdown(&mut self) {
        for c in &mut self.conns {
            let _ = c.stream.shutdown(std::net::Shutdown::Both);
            c.open = false;
        }
    }
}
