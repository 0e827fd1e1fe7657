//! Network fault injection: a TCP proxy that misbehaves on cue.
//!
//! Compiled only for this crate's own tests and under the `fault-inject`
//! feature, mirroring [`crate::faults`] one layer up the stack: where
//! `FaultyLm` injects substrate failures beneath the scheduler, a
//! [`FaultProxy`] sits *between* a [`crate::frontend::FrontendClient`]
//! and a [`crate::frontend::Frontend`] and injects transport failures —
//! torn frames (connection severed mid-frame), byte-dribbling (frames
//! delivered one byte at a time), mid-response stalls, and resets.
//!
//! Each accepted connection is assigned a [`NetFault`] plan round-robin
//! from the list given at bind, so a test can put faulted and healthy
//! clients side by side through one proxy and assert the blast radius:
//! healthy connections' responses must be byte-identical to a fault-free
//! run, and every faulted connection must resolve to exactly one
//! terminal outcome per request (response, shed, or disconnect).
//!
//! This is a test harness, not a production path: it spends two plain
//! blocking threads per proxied connection, which is exactly the cost
//! model the event-loop front-end exists to avoid.

use crate::sync::RankedMutex;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// One connection's transport-fault plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFault {
    /// Forward faithfully in both directions (the healthy control).
    None,
    /// Forward `n` client→server bytes, then sever both directions —
    /// the server sees a torn frame (EOF mid-frame) if `n` lands inside
    /// one.
    TearAfter(usize),
    /// Deliver client→server traffic one byte at a time with this gap
    /// between bytes — maximal reassembly stress, no data loss.
    Dribble {
        /// Pause between consecutive forwarded bytes.
        delay: Duration,
    },
    /// Stall the server→client direction once: after `after` bytes have
    /// been forwarded, pause for `pause`, then resume faithfully.
    StallOnce {
        /// Bytes forwarded before the stall.
        after: usize,
        /// Length of the one-time stall.
        pause: Duration,
    },
    /// Forward `n` server→client bytes, then sever both directions —
    /// the client loses the connection mid-response-stream.
    ResetAfter(usize),
}

/// What one pump direction does with the bytes it relays.
#[derive(Debug, Clone, Copy)]
enum PumpPlan {
    Copy,
    Dribble(Duration),
    SeverAfter(usize),
    StallOnce { after: usize, pause: Duration },
}

impl NetFault {
    /// Plan for the client→server direction.
    fn upstream_plan(self) -> PumpPlan {
        match self {
            NetFault::TearAfter(n) => PumpPlan::SeverAfter(n),
            NetFault::Dribble { delay } => PumpPlan::Dribble(delay),
            _ => PumpPlan::Copy,
        }
    }

    /// Plan for the server→client direction.
    fn downstream_plan(self) -> PumpPlan {
        match self {
            NetFault::ResetAfter(n) => PumpPlan::SeverAfter(n),
            NetFault::StallOnce { after, pause } => PumpPlan::StallOnce { after, pause },
            _ => PumpPlan::Copy,
        }
    }
}

/// A fault-injecting TCP proxy in front of an upstream address.
///
/// Connect clients to [`FaultProxy::local_addr`]; each accepted
/// connection gets the next plan (round-robin) and two pump threads
/// relaying bytes through it. [`FaultProxy::shutdown`] severs everything.
pub struct FaultProxy {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    conns: Arc<RankedMutex<Vec<TcpStream>>>,
}

impl FaultProxy {
    /// Bind an ephemeral local port proxying to `upstream`. Connection
    /// `i` (in accept order) gets `plans[i % plans.len()]`; an empty
    /// plan list means every connection is healthy.
    pub fn bind(upstream: SocketAddr, plans: Vec<NetFault>) -> io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<RankedMutex<Vec<TcpStream>>> =
            Arc::new(RankedMutex::new("conns", Vec::new()));
        let acceptor = {
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            std::thread::spawn(move || {
                let mut index = 0usize;
                for stream in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(client) = stream else { continue };
                    let fault = if plans.is_empty() {
                        NetFault::None
                    } else {
                        plans[index % plans.len()]
                    };
                    index += 1;
                    let Ok(server) = TcpStream::connect(upstream) else {
                        let _ = client.shutdown(Shutdown::Both);
                        continue;
                    };
                    register_and_pump(&conns, client, server, fault);
                }
            })
        };
        Ok(Self {
            local_addr,
            stop,
            acceptor: Some(acceptor),
            conns,
        })
    }

    /// The proxy's client-facing address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stop accepting and sever every proxied connection. Pump threads
    /// exit on the resulting transport errors.
    pub fn shutdown(mut self) {
        self.stop_and_sever();
    }

    fn stop_and_sever(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.local_addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for stream in std::mem::take(&mut *self.conns.lock()) {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        if self.acceptor.is_some() {
            self.stop_and_sever();
        }
    }
}

/// Register both halves for shutdown-severing and spawn the two pump
/// threads for one proxied connection.
fn register_and_pump(
    conns: &Arc<RankedMutex<Vec<TcpStream>>>,
    client: TcpStream,
    server: TcpStream,
    fault: NetFault,
) {
    let (Ok(client_r), Ok(server_r)) = (client.try_clone(), server.try_clone()) else {
        let _ = client.shutdown(Shutdown::Both);
        let _ = server.shutdown(Shutdown::Both);
        return;
    };
    {
        let mut reg = conns.lock();
        if let (Ok(c), Ok(s)) = (client.try_clone(), server.try_clone()) {
            reg.push(c);
            reg.push(s);
        }
    }
    let up = fault.upstream_plan();
    let down = fault.downstream_plan();
    std::thread::spawn(move || pump(client_r, server, up));
    std::thread::spawn(move || pump(server_r, client, down));
}

/// Relay bytes `from` → `to` per `plan` until EOF, error, or a sever
/// point. Severing shuts down both streams so the opposite pump (and
/// both endpoints) observe the fault immediately.
fn pump(mut from: TcpStream, mut to: TcpStream, plan: PumpPlan) {
    let mut buf = [0u8; 4096];
    let mut forwarded = 0usize;
    let mut stalled = false;
    loop {
        let budget = match plan {
            PumpPlan::Copy => buf.len(),
            PumpPlan::Dribble(_) => 1,
            PumpPlan::SeverAfter(n) => {
                if forwarded >= n {
                    let _ = from.shutdown(Shutdown::Both);
                    let _ = to.shutdown(Shutdown::Both);
                    return;
                }
                (n - forwarded).min(buf.len())
            }
            PumpPlan::StallOnce { after, .. } => {
                if forwarded < after {
                    (after - forwarded).min(buf.len())
                } else {
                    buf.len()
                }
            }
        };
        let n = match from.read(&mut buf[..budget]) {
            Ok(0) | Err(_) => {
                // EOF or transport error: propagate the close downstream.
                let _ = to.shutdown(Shutdown::Both);
                return;
            }
            Ok(n) => n,
        };
        if let PumpPlan::StallOnce { after, pause } = plan {
            if !stalled && forwarded + n >= after {
                stalled = true;
                std::thread::sleep(pause);
            }
        }
        if to.write_all(&buf[..n]).is_err() {
            let _ = from.shutdown(Shutdown::Both);
            return;
        }
        let _ = to.flush();
        forwarded += n;
        if let PumpPlan::Dribble(delay) = plan {
            std::thread::sleep(delay);
        }
    }
}
