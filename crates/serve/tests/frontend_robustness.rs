//! Robustness suite for the event-driven front-end.
//!
//! Covers the connection-fault surface that doesn't need a fault proxy:
//! frame reassembly under arbitrary TCP segmentation (property test),
//! the mid-frame read deadline (a stalled sender is reaped without
//! pinning its loop), the slow-reader write-buffer cap, the bounded
//! connection registry, and client reconnect backoff. The proxy-driven
//! network-fault properties live in `tests/net_faults.rs` behind the
//! `fault-inject` feature.

use lmpeel_lm::{InductionLm, LanguageModel};
use lmpeel_serve::frontend::{FrameAssembler, WireRequest, WireResult};
use lmpeel_serve::{
    ExtRequest, ExtensionHandler, Frontend, FrontendClient, InferenceService, ReconnectPolicy,
};
use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A service over the deterministic induction model, as every test here
/// wants one.
fn service() -> (Arc<InductionLm>, Arc<InferenceService>) {
    let model = Arc::new(InductionLm::paper(0));
    let service = Arc::new(
        InferenceService::builder()
            .model("default", model.clone())
            .build(),
    );
    (model, service)
}

/// Spin until `cond` holds or the budget elapses; panics with `what` on
/// timeout. The budget is counted in 2 ms sleeps (~10 s total) rather
/// than read from a wall clock, keeping the helper inside the LML0002
/// no-clock discipline — the front-end's own deadlines stay on its
/// logical tick clock.
fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    for _ in 0..5_000 {
        if cond() {
            return;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(cond(), "timed out waiting for {what}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Reassembly is exact under arbitrary segmentation: however the
    // byte stream is split, the assembler yields the original frames in
    // order, never mis-frames, never panics — and a torn tail leaves it
    // resumable, surfacing only the complete frames.
    #[test]
    fn reassembly_is_exact_under_arbitrary_splits(
        sizes in proptest::collection::vec(0usize..200, 1..8),
        cuts in proptest::collection::vec(1usize..48, 1..24),
        tear in 0usize..4,
    ) {
        // Deterministic frame bodies from the proptest-chosen sizes.
        let frames: Vec<Vec<u8>> = sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| (0..n).map(|j| ((i * 31 + j * 7) % 251) as u8).collect())
            .collect();
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&(f.len() as u32).to_le_bytes());
            stream.extend_from_slice(f);
        }

        // Feed the stream in chunks cycling through the chosen cut sizes.
        let mut asm = FrameAssembler::new();
        let mut out = Vec::new();
        let mut pos = 0;
        let mut k = 0;
        while pos < stream.len() {
            let step = cuts[k % cuts.len()].min(stream.len() - pos);
            k += 1;
            asm.feed(&stream[pos..pos + step], &mut out).unwrap();
            pos += step;
        }
        prop_assert_eq!(&out, &frames);
        prop_assert!(!asm.mid_frame());
        prop_assert_eq!(asm.buffered(), 0);

        // Torn tail: truncate 1..=4 bytes. The cut always lands inside
        // the final frame (whose wire size is at least the 4-byte
        // prefix), so exactly the complete frames surface.
        let drop = tear + 1;
        let last_wire = 4 + frames.last().unwrap().len();
        let mut asm = FrameAssembler::new();
        let mut out = Vec::new();
        asm.feed(&stream[..stream.len() - drop], &mut out).unwrap();
        prop_assert_eq!(&out[..], &frames[..frames.len() - 1]);
        if drop < last_wire {
            prop_assert!(asm.mid_frame(), "torn frame must read as mid-frame");
            prop_assert_eq!(asm.buffered(), last_wire - drop);
        }
        // Resumable: delivering the withheld bytes completes the frame.
        asm.feed(&stream[stream.len() - drop..], &mut out).unwrap();
        prop_assert_eq!(&out, &frames);
        prop_assert!(!asm.mid_frame());
    }
}

/// A client that sends a frame length prefix and then stalls holds a
/// torn frame; the mid-frame tick deadline reaps it — without pinning
/// the event loop, which keeps serving a healthy connection beside it.
#[test]
fn a_stalled_mid_frame_sender_is_reaped_by_the_read_deadline() {
    let (model, service) = service();
    let prompt = model.tokenizer().encode("Performance: ");
    // One loop thread, so the stalled and healthy connections share it.
    let frontend = Frontend::builder()
        .loops(1)
        .mid_frame_ticks(50)
        .tick_interval(Duration::from_micros(100))
        .bind(Arc::clone(&service), "127.0.0.1:0")
        .unwrap();

    // The staller: a 4-byte length prefix declaring a 100-byte frame,
    // then silence.
    let mut staller = TcpStream::connect(frontend.local_addr()).unwrap();
    staller.write_all(&100u32.to_le_bytes()).unwrap();
    staller.flush().unwrap();

    // A healthy connection on the same loop is still served.
    let mut healthy = FrontendClient::connect(frontend.local_addr()).unwrap();
    healthy
        .send(&WireRequest::new(1, "default", prompt, 3))
        .unwrap();
    assert!(matches!(healthy.recv().unwrap().body, WireResult::Ok { .. }));

    // The staller is reaped: its socket reports EOF/reset and the
    // deadline counter records the disconnect.
    wait_for("mid-frame deadline disconnect", || {
        frontend.stats().disconnected_deadline >= 1
    });
    staller
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut buf = [0u8; 16];
    match staller.read(&mut buf) {
        Ok(0) | Err(_) => {}
        Ok(n) => panic!("reaped connection produced {n} bytes"),
    }
    wait_for("registry to drop the reaped connection", || {
        frontend.connection_count() == 1
    });

    let stats = frontend.shutdown();
    assert_eq!(stats.disconnected_deadline, 1);
    assert_eq!(stats.responses, 1);
    assert_eq!(stats.malformed, 0);
}

/// Regression test for the connection-registry leak: every accepted
/// connection is reaped once it closes (or idles out), so the registry
/// returns to empty instead of growing monotonically.
#[test]
fn the_connection_registry_stays_bounded_as_connections_churn() {
    let (_model, service) = service();
    let frontend = Frontend::builder()
        .loops(2)
        .idle_ticks(50)
        .tick_interval(Duration::from_micros(100))
        .bind(Arc::clone(&service), "127.0.0.1:0")
        .unwrap();

    const N: usize = 32;
    // Half the connections close promptly; the other half just idle and
    // must be reaped by the idle deadline.
    let mut idlers = Vec::new();
    for i in 0..N {
        let conn = TcpStream::connect(frontend.local_addr()).unwrap();
        if i % 2 == 0 {
            drop(conn);
        } else {
            idlers.push(conn);
        }
    }
    wait_for("all churned connections to be accepted", || {
        frontend.stats().accepted == N as u64
    });
    wait_for("registry to return to empty", || {
        frontend.connection_count() == 0
    });

    let stats = frontend.shutdown();
    assert_eq!(stats.accepted, N as u64);
    assert!(
        stats.disconnected_deadline >= (N / 2) as u64,
        "idle connections must be reaped by the deadline, got {}",
        stats.disconnected_deadline
    );
    drop(idlers);
}

/// A reader that stops draining its responses is disconnected alone once
/// its write buffer passes the cap — bounded memory per connection, and
/// no TCP pushback into the event loop.
#[test]
fn a_slow_reader_is_disconnected_once_its_write_buffer_fills() {
    /// Echoes a half-megabyte blob per request: a few undrained
    /// responses overflow any kernel socket buffer and then the
    /// front-end's own write-buffer cap.
    struct Blob;
    impl ExtensionHandler for Blob {
        fn handle(&self, _kind: u32, _payload: &[u8]) -> Result<Vec<u8>, String> {
            Ok(vec![0xAB; 512 * 1024])
        }
    }
    let (model, service) = service();
    let prompt = model.tokenizer().encode("Performance: ");
    let frontend = Frontend::builder()
        .loops(1)
        .write_buf_cap(64 * 1024)
        .ext_workers(2)
        .ext_inflight_cap(32)
        .ext_queue_cap(32)
        .tick_interval(Duration::from_micros(100))
        .bind_with_extension(Arc::clone(&service), "127.0.0.1:0", Arc::new(Blob))
        .unwrap();

    // The slow reader requests 8 MiB of responses and never reads.
    let mut slow = FrontendClient::connect(frontend.local_addr()).unwrap();
    for id in 0..16u64 {
        slow.send_ext(&ExtRequest {
            id,
            kind: 0,
            payload: vec![],
        })
        .unwrap();
    }
    wait_for("slow-reader disconnect", || {
        frontend.stats().disconnected_slow >= 1
    });

    // The loop it was pinned to keeps serving a healthy connection.
    let mut healthy = FrontendClient::connect(frontend.local_addr()).unwrap();
    healthy
        .send(&WireRequest::new(99, "default", prompt, 3))
        .unwrap();
    assert!(matches!(healthy.recv().unwrap().body, WireResult::Ok { .. }));

    let stats = frontend.shutdown();
    assert_eq!(stats.disconnected_slow, 1);
}

/// `connect_with_backoff` retries on the deterministic jittered schedule:
/// against a dead port it spends at least the scheduled delays before
/// giving up, and it succeeds once the front-end comes up mid-schedule.
#[test]
fn reconnect_backoff_retries_until_the_frontend_binds() {
    let policy = ReconnectPolicy {
        attempts: 5,
        base: Duration::from_millis(2),
        cap: Duration::from_millis(16),
        seed: 42,
    };
    let floor: Duration = policy.backoff_delays().iter().sum();

    // Reserve an ephemeral port, then free it so nothing listens there.
    let addr = {
        let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        probe.local_addr().unwrap()
    };

    // Exhausting the schedule against the dead port fails, and takes at
    // least the sum of the (deterministic) backoff delays.
    let started = Instant::now();
    assert!(FrontendClient::connect_with_backoff(addr, policy).is_err());
    assert!(
        started.elapsed() >= floor,
        "gave up after {:?}, schedule floor is {:?}",
        started.elapsed(),
        floor
    );

    // Bind the front-end on that port shortly after the client starts
    // dialing: an early attempt fails, a later one lands.
    let (model, service) = service();
    let prompt = model.tokenizer().encode("Performance: ");
    let binder = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(5));
        Frontend::bind(service, &addr.to_string()).unwrap()
    });
    let mut client = FrontendClient::connect_with_backoff(
        addr,
        ReconnectPolicy {
            attempts: 200,
            ..policy
        },
    )
    .unwrap();
    let frontend = binder.join().unwrap();
    client
        .send(&WireRequest::new(1, "default", prompt, 3))
        .unwrap();
    assert!(matches!(client.recv().unwrap().body, WireResult::Ok { .. }));
    frontend.shutdown();
}
