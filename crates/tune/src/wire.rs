//! The tune service as a framed TCP request kind.
//!
//! The serve front-end's extension frames (`OP_EXT_REQUEST`) carry an
//! opaque `(kind, payload)`; this module defines the tune kind: a
//! [`TuneWireRequest`] payload in, a [`TuneWireResponse`] payload out,
//! both through the same byte-exact [`wire`] codec the journals use.
//! [`TuneService`] implements [`ExtensionHandler`] directly, so binding a
//! front-end with `Frontend::builder().bind_with_extension(service, addr,
//! tune_service)` serves generation traffic and tune requests over one
//! socket.

use crate::{TuneError, TuneRequest, TuneService};
use lmpeel_core::journal::size_from_ordinal;
use lmpeel_recover::wire::{self, Reader};
use lmpeel_serve::ExtensionHandler;

/// The extension-frame kind the tune service answers (`"TUNE"` in ASCII).
pub const TUNE_EXT_KIND: u32 = 0x5455_4E45;

/// A tune request as it crosses the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TuneWireRequest {
    /// Kernel name (see [`crate::KERNEL_SYR2K`]).
    pub kernel: String,
    /// Problem size, as [`size_ordinal`](lmpeel_core::journal::size_ordinal).
    pub size_ord: u8,
    /// Evaluation budget per strategy.
    pub budget: u64,
    /// Search seed.
    pub seed: u64,
}

impl TuneWireRequest {
    /// Serialize to an extension-frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        wire::put_str(&mut buf, &self.kernel);
        wire::put_u8(&mut buf, self.size_ord);
        wire::put_u64(&mut buf, self.budget);
        wire::put_u64(&mut buf, self.seed);
        buf
    }

    /// Parse a payload; `None` on any malformation or trailing bytes.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader::new(bytes);
        let req = TuneWireRequest {
            kernel: r.str()?,
            size_ord: r.u8()?,
            budget: r.u64()?,
            seed: r.u64()?,
        };
        r.is_done().then_some(req)
    }
}

/// A tune answer as it crosses the wire. Mirrors the deterministic core
/// of [`crate::TuneReport`] (wall-clock validation numbers stay on the
/// server's side of the socket, like they stay out of the cache).
#[derive(Debug, Clone, PartialEq)]
pub struct TuneWireResponse {
    /// Whether the persistent cache answered without any search.
    pub cache_hit: bool,
    /// Winning strategy name.
    pub strategy: String,
    /// Winning configuration's config-space index.
    pub config_index: u64,
    /// The winner's surrogate runtime in seconds.
    pub surrogate_runtime: f64,
    /// Whether the real-kernel validation checksum matched.
    pub validated: bool,
    /// Objective measurements taken to answer (0 on a hit).
    pub fresh_measurements: u64,
}

impl TuneWireResponse {
    /// Serialize to an extension-frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        wire::put_bool(&mut buf, self.cache_hit);
        wire::put_str(&mut buf, &self.strategy);
        wire::put_u64(&mut buf, self.config_index);
        wire::put_f64(&mut buf, self.surrogate_runtime);
        wire::put_bool(&mut buf, self.validated);
        wire::put_u64(&mut buf, self.fresh_measurements);
        buf
    }

    /// Parse a payload; `None` on any malformation or trailing bytes.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader::new(bytes);
        let resp = TuneWireResponse {
            cache_hit: r.bool()?,
            strategy: r.str()?,
            config_index: r.u64()?,
            surrogate_runtime: r.f64()?,
            validated: r.bool()?,
            fresh_measurements: r.u64()?,
        };
        r.is_done().then_some(resp)
    }
}

impl ExtensionHandler for TuneService {
    fn handle(&self, kind: u32, payload: &[u8]) -> Result<Vec<u8>, String> {
        if kind != TUNE_EXT_KIND {
            return Err(format!(
                "unknown extension kind {kind:#x} (this handler serves TUNE = {TUNE_EXT_KIND:#x})"
            ));
        }
        let req = TuneWireRequest::decode(payload).ok_or("malformed tune request payload")?;
        let size = size_from_ordinal(req.size_ord)
            .ok_or_else(|| format!("invalid size ordinal {}", req.size_ord))?;
        let report = self
            .tune(
                &TuneRequest {
                    kernel: req.kernel,
                    size,
                    budget: req.budget as usize,
                    seed: req.seed,
                },
                None,
            )
            .map_err(|e: TuneError| e.to_string())?;
        Ok(TuneWireResponse {
            cache_hit: report.cache_hit,
            strategy: report.entry.strategy.clone(),
            config_index: report.entry.config_index,
            surrogate_runtime: report.entry.surrogate_runtime,
            validated: report.entry.validated,
            fresh_measurements: report.fresh_measurements as u64,
        }
        .encode())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KERNEL_SYR2K;
    use lmpeel_lm::InductionLm;
    use lmpeel_serve::{ExtRequest, Frontend, FrontendClient, InferenceService};
    use std::sync::Arc;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("lmpeel-tune-wire-{}-{name}", std::process::id()))
    }

    #[test]
    fn tune_requests_flow_through_the_tcp_frontend() {
        let path = tmp("frontend");
        let _ = std::fs::remove_file(&path);
        let (tune, _) = TuneService::open(&path).unwrap();
        let lm = Arc::new(
            InferenceService::builder()
                .model("default", Arc::new(InductionLm::paper(0)))
                .build(),
        );
        let frontend = Frontend::builder()
            .bind_with_extension(lm, "127.0.0.1:0", Arc::new(tune))
            .unwrap();
        let addr = frontend.local_addr();

        let mut client = FrontendClient::connect(addr).unwrap();
        let req = TuneWireRequest {
            kernel: KERNEL_SYR2K.into(),
            size_ord: 0, // ArraySize::S — keeps the kernel validation quick
            budget: 5,
            seed: 3,
        };
        let ext = |id: u64, kind: u32, payload: Vec<u8>| ExtRequest { id, kind, payload };
        client
            .send_ext(&ext(1, TUNE_EXT_KIND, req.encode()))
            .unwrap();
        let first = client.recv_ext().unwrap();
        assert_eq!(first.id, 1);
        let first = TuneWireResponse::decode(&first.result.expect("tune ok")).unwrap();
        assert!(!first.cache_hit);
        assert!(first.fresh_measurements > 0);
        assert!(first.validated);

        // Same request again: answered from the persistent cache.
        client
            .send_ext(&ext(2, TUNE_EXT_KIND, req.encode()))
            .unwrap();
        let second = client.recv_ext().unwrap();
        let second = TuneWireResponse::decode(&second.result.expect("tune ok")).unwrap();
        assert!(second.cache_hit);
        assert_eq!(second.fresh_measurements, 0);
        assert_eq!(second.config_index, first.config_index);

        // Unknown kinds and malformed payloads error without wedging.
        client.send_ext(&ext(3, 999, req.encode())).unwrap();
        assert!(client.recv_ext().unwrap().result.is_err());
        client
            .send_ext(&ext(4, TUNE_EXT_KIND, b"garbage".to_vec()))
            .unwrap();
        assert!(client.recv_ext().unwrap().result.is_err());

        drop(client);
        frontend.shutdown();
        std::fs::remove_file(&path).unwrap();
    }
}
