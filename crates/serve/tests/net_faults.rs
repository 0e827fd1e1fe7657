//! Network fault-injection property suite (requires `--features
//! fault-inject`).
//!
//! A [`FaultProxy`] sits between [`FrontendClient`]s and the front-end
//! and misbehaves per connection: torn frames (severed mid-frame),
//! byte-dribbling, one-time mid-response stalls, and resets. Healthy
//! and faulted connections share the proxy and the front-end's event
//! loops. Properties:
//!
//! 1. connections with a non-lossy plan (`None`, `Dribble`,
//!    `StallOnce`) receive every response, byte-identical to a
//!    fault-free baseline run — faults never bleed across connections;
//! 2. every submitted request resolves to exactly one terminal outcome:
//!    answered once (no duplicate ids, no unsolicited ids), or
//!    unanswered only on a connection that observed its disconnect
//!    (`TearAfter` / `ResetAfter`);
//! 3. the front-end's ledger reconciles: the latency histogram counts
//!    exactly the `responses` counter, nothing was shed, and the
//!    front-end still serves a fresh direct connection afterwards.

#![cfg(feature = "fault-inject")]

use lmpeel_lm::{InductionLm, LanguageModel};
use lmpeel_serve::frontend::{WireRequest, WireResponse};
use lmpeel_serve::netfault::{FaultProxy, NetFault};
use lmpeel_serve::{Frontend, FrontendClient, InferenceService};
use lmpeel_tokenizer::TokenId;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Duration;

/// Requests pipelined per connection.
const REQS_PER_CONN: u64 = 3;

/// Decode one plan code into a connection's fault plan. Tear/reset
/// offsets are derived from the code so cases vary where the sever
/// lands (always inside the ~210-byte upstream / response streams).
fn plan_for(code: usize) -> NetFault {
    match code % 5 {
        0 => NetFault::None,
        1 => NetFault::TearAfter(1 + (code * 7) % 90),
        2 => NetFault::Dribble {
            delay: Duration::from_micros(500),
        },
        3 => NetFault::StallOnce {
            after: (code * 13) % 64,
            pause: Duration::from_millis(20),
        },
        _ => NetFault::ResetAfter(1 + (code * 11) % 90),
    }
}

/// Plans that deliver every byte (possibly late) must produce the full,
/// byte-identical response set; lossy plans are allowed to disconnect.
fn must_complete(plan: NetFault) -> bool {
    matches!(
        plan,
        NetFault::None | NetFault::Dribble { .. } | NetFault::StallOnce { .. }
    )
}

/// What one client connection observed: responses in receipt order
/// (id, encoded bytes) and whether the transport died on it.
struct ConnOutcome {
    received: Vec<(u64, Vec<u8>)>,
    disconnected: bool,
}

/// Pipeline `REQS_PER_CONN` requests (ids `conn*1000..`) and read until
/// all are answered or the transport fails.
fn drive_conn(addr: std::net::SocketAddr, conn: u64, prompt: &[TokenId]) -> ConnOutcome {
    let mut outcome = ConnOutcome {
        received: Vec::new(),
        disconnected: false,
    };
    let Ok(mut client) = FrontendClient::connect(addr) else {
        outcome.disconnected = true;
        return outcome;
    };
    for r in 0..REQS_PER_CONN {
        let mut req = WireRequest::new(conn * 1000 + r, "default", prompt.to_vec(), 3);
        req.seed = r;
        if client.send(&req).is_err() {
            outcome.disconnected = true;
            return outcome;
        }
    }
    while (outcome.received.len() as u64) < REQS_PER_CONN {
        match client.recv() {
            Ok(resp) => outcome.received.push((resp.id, resp.encode())),
            Err(_) => {
                outcome.disconnected = true;
                break;
            }
        }
    }
    outcome
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Healthy connections are byte-identical beside faulted ones, every
    // request has exactly one terminal outcome, and the front-end's
    // ledger reconciles.
    #[test]
    fn faults_stay_contained_to_their_own_connection(
        plan_codes in proptest::collection::vec(0usize..25, 1..4),
    ) {
        let model = Arc::new(InductionLm::paper(0));
        let prompt = model.tokenizer().encode("Performance: ");
        // Prefix caching off so response bytes (reused/prefilled counts
        // included) are a pure function of the request.
        let service = Arc::new(
            InferenceService::builder()
                .model("default", model.clone())
                .prefix_cache_capacity(0)
                .build(),
        );
        let frontend = Frontend::builder()
            .loops(2)
            .tick_interval(Duration::from_micros(100))
            .mid_frame_ticks(2_000)
            .idle_ticks(20_000)
            .bind(Arc::clone(&service), "127.0.0.1:0")
            .unwrap();

        // Connection 0 is always a healthy control riding through the
        // same proxy as the faulted plans.
        let mut plans = vec![NetFault::None];
        plans.extend(plan_codes.iter().map(|&c| plan_for(c)));

        // Fault-free baseline, direct to the front-end: the expected
        // bytes for every id.
        let mut baseline: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        for conn in 0..plans.len() as u64 {
            let outcome = drive_conn(frontend.local_addr(), conn, &prompt);
            prop_assert!(!outcome.disconnected, "baseline must not disconnect");
            for (id, bytes) in outcome.received {
                baseline.insert(id, bytes);
            }
        }
        prop_assert_eq!(baseline.len() as u64, plans.len() as u64 * REQS_PER_CONN);

        // The faulted run: every connection through the proxy, each
        // with its accept-order plan, all concurrently.
        let proxy = FaultProxy::bind(frontend.local_addr(), plans.clone()).unwrap();
        let workers: Vec<_> = (0..plans.len() as u64)
            .map(|conn| {
                let addr = proxy.local_addr();
                let prompt = prompt.clone();
                // Stagger dials so accept order (which assigns plans)
                // matches connection index.
                std::thread::spawn(move || {
                    std::thread::sleep(Duration::from_millis(10 * conn));
                    drive_conn(addr, conn, &prompt)
                })
            })
            .collect();
        let outcomes: Vec<ConnOutcome> =
            workers.into_iter().map(|w| w.join().unwrap()).collect();

        let mut seen_ids: BTreeSet<u64> = BTreeSet::new();
        let mut total_received = 0u64;
        for (conn, outcome) in outcomes.iter().enumerate() {
            let plan = plans[conn];
            for (id, bytes) in &outcome.received {
                // Exactly-once: no duplicate ids, no unsolicited ids,
                // and an answered id answers with the baseline bytes.
                prop_assert!(seen_ids.insert(*id), "duplicate response id {id}");
                let expected = baseline.get(id);
                prop_assert!(expected.is_some(), "unsolicited response id {id}");
                prop_assert_eq!(
                    bytes, expected.unwrap(),
                    "conn {} (plan {:?}) response {} diverged from baseline",
                    conn, plan, id
                );
            }
            total_received += outcome.received.len() as u64;
            if must_complete(plan) {
                prop_assert!(
                    !outcome.disconnected && outcome.received.len() as u64 == REQS_PER_CONN,
                    "conn {} (plan {:?}) lost responses beside faults: got {} of {}",
                    conn, plan, outcome.received.len(), REQS_PER_CONN
                );
            } else {
                // Lossy plans: unanswered requests are permitted only
                // because the connection observably died.
                prop_assert!(
                    outcome.disconnected || outcome.received.len() as u64 == REQS_PER_CONN,
                    "conn {} (plan {:?}) is missing responses without a disconnect",
                    conn, plan
                );
            }
        }
        proxy.shutdown();

        // Ledger reconciliation: the histogram counts exactly the
        // response counter, every delivered response was counted, and
        // nothing was shed in this workload.
        let stats = frontend.stats();
        prop_assert_eq!(stats.latency.count(), stats.responses);
        prop_assert!(
            stats.responses >= baseline.len() as u64 + total_received,
            "ledger lost responses: {} < {} + {}",
            stats.responses, baseline.len(), total_received
        );
        prop_assert_eq!(stats.shed, 0u64);
        prop_assert_eq!(stats.shed_inflight, 0u64);

        // The front-end survived the faults: a fresh direct connection
        // still gets baseline bytes.
        let mut probe = FrontendClient::connect(frontend.local_addr()).unwrap();
        let mut req = WireRequest::new(0, "default", prompt.clone(), 3);
        req.seed = 0;
        probe.send(&req).unwrap();
        let resp: WireResponse = probe.recv().unwrap();
        prop_assert_eq!(&resp.encode(), baseline.get(&0).unwrap());

        frontend.shutdown();
    }
}
