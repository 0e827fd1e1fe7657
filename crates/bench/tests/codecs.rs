//! One property harness over every decoder that reads socket or disk
//! bytes: the front-end's frame bodies, the tune service's wire payloads,
//! and the journaled records (tune cache, tune steps, grid cells, GBDT
//! fits).
//!
//! [`check_codec`] holds each codec to three laws:
//! - arbitrary bytes never panic the decoder;
//! - `decode(encode(x)) == x`;
//! - `encode(decode(b)) == b` whenever decode succeeds (canonical form).
//!
//! Byte strings are drawn both at random and as edits of valid encodings
//! (a truncation, a one-byte overwrite, junk appended), since random bytes
//! alone rarely get past the first field. Typed values are compared by
//! their `Debug` form, which is exact for floats and needs no `PartialEq`
//! on the record types; NaN payloads are covered by the byte law instead.

use lmpeel_bench::runs::FitRecord;
use lmpeel_core::extract::Extraction;
use lmpeel_core::journal::size_from_ordinal;
use lmpeel_core::{PredictionRecord, SettingKey};
use lmpeel_lm::{GenStep, GenerationTrace, TokenAlt};
use lmpeel_recover::{splitmix64, JournalRecord};
use lmpeel_serve::frontend::{ExtRequest, ExtResponse, WireRequest, WireResponse, WireResult};
use lmpeel_tune::{StepRecord, TuneEntry, TuneWireRequest, TuneWireResponse};
use proptest::prelude::*;
use std::fmt::Debug;

/// Check the three codec laws on `x` and on byte strings derived from
/// `junk` and `edit` (an offset and a replacement byte).
fn check_codec<T: Debug, E>(
    x: &T,
    junk: &[u8],
    edit: (usize, u8),
    encode: impl Fn(&T) -> Vec<u8>,
    decode: impl Fn(&[u8]) -> Result<T, E>,
) -> Result<(), TestCaseError> {
    let bytes = encode(x);
    let back = decode(&bytes).map_err(|_| TestCaseError::fail(format!("{x:?} fails to decode")))?;
    prop_assert_eq!(format!("{back:?}"), format!("{x:?}"));

    let mut overwritten = bytes.clone();
    if let Some(b) = overwritten.get_mut(edit.0 % bytes.len().max(1)) {
        *b = edit.1;
    }
    let truncated = bytes[..edit.0 % (bytes.len() + 1)].to_vec();
    let extended = [&bytes[..], junk].concat();
    for b in [&bytes, &overwritten, &truncated, &extended, &junk.to_vec()] {
        if let Ok(y) = decode(b) {
            prop_assert_eq!(&encode(&y), b, "decoded {:?} re-encodes differently", y);
        }
    }
    Ok(())
}

/// `JournalRecord::encode` as a returning function.
fn record_bytes<R: JournalRecord>(r: &R) -> Vec<u8> {
    let mut buf = Vec::new();
    r.encode(&mut buf);
    buf
}

/// `JournalRecord::decode` as a `Result`, for [`check_codec`].
fn record_decode<R: JournalRecord>(b: &[u8]) -> Result<R, ()> {
    R::decode(b).ok_or(())
}

/// A deterministic value source for building arbitrary records from one
/// proptest-drawn seed. Floats come from raw bits, NaNs included.
struct Gen(u64);

impl Gen {
    fn u64(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0
    }
    fn u32(&mut self) -> u32 {
        self.u64() as u32
    }
    fn u8(&mut self) -> u8 {
        self.u64() as u8
    }
    fn bool(&mut self) -> bool {
        self.u64() & 1 == 1
    }
    fn f32(&mut self) -> f32 {
        f32::from_bits(self.u32())
    }
    fn f64(&mut self) -> f64 {
        f64::from_bits(self.u64())
    }
    fn opt<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> Option<T> {
        self.bool().then(|| f(self))
    }
    fn vec<T>(&mut self, mut f: impl FnMut(&mut Self) -> T) -> Vec<T> {
        let n = self.u64() % 6;
        (0..n).map(|_| f(self)).collect()
    }
    fn string(&mut self) -> String {
        self.vec(|g| ['a', ' ', '\n', 'é'][g.u64() as usize % 4])
            .into_iter()
            .collect()
    }
}

fn wire_request(g: &mut Gen) -> WireRequest {
    WireRequest {
        id: g.u64(),
        substrate: g.string(),
        prompt: g.vec(Gen::u32),
        max_tokens: g.u32(),
        seed: g.u64(),
        trace_min_prob: g.f32(),
        stop_tokens: g.vec(Gen::u32),
        model_seed: g.opt(Gen::u64),
        step_budget: g.opt(Gen::u64),
        wall_ms: g.opt(Gen::u64),
    }
}

fn wire_response(g: &mut Gen) -> WireResponse {
    let body = if g.bool() {
        WireResult::Ok {
            reused: g.u32(),
            prefilled: g.u32(),
            tokens: g.vec(Gen::u32),
        }
    } else {
        // Any code but CODE_OK (0), which the encoding reserves for `Ok`.
        WireResult::Err {
            code: g.u8().max(1),
            message: g.string(),
        }
    };
    WireResponse { id: g.u64(), body }
}

fn prediction_record(g: &mut Gen) -> PredictionRecord {
    let extraction = [
        None,
        Some(Extraction::Direct),
        Some(Extraction::AfterMarker),
        Some(Extraction::Scavenged),
    ][g.u64() as usize % 4];
    PredictionRecord {
        key: SettingKey {
            size: size_from_ordinal(g.u8() % 6).expect("ordinals 0..6 are sizes"),
            icl_count: g.u64() as usize,
            curated: g.bool(),
        },
        replica: g.u64() as usize,
        seed: g.u64(),
        truth: g.f64(),
        icl_values: g.vec(Gen::f64),
        response: g.string(),
        predicted: g.opt(Gen::f64),
        extraction,
        copied_from_icl: g.bool(),
        trace: GenerationTrace {
            prompt_len: g.u64() as usize,
            steps: g.vec(|g| GenStep {
                chosen: g.u32(),
                chosen_prob: g.f32(),
                alternatives: g.vec(|g| TokenAlt {
                    id: g.u32(),
                    prob: g.f32(),
                }),
            }),
            stopped_naturally: g.bool(),
        },
        value_span: g.opt(|g| g.u64() as usize..g.u64() as usize),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn every_decoder_obeys_the_codec_laws(
        seed in 0u64..u64::MAX,
        junk in proptest::collection::vec(0u8..=255, 0..48usize),
        at in 0usize..4096,
        byte in 0u8..=255,
    ) {
        let g = &mut Gen(seed);
        let edit = (at, byte);
        check_codec(&wire_request(g), &junk, edit, WireRequest::encode, WireRequest::decode)?;
        check_codec(&wire_response(g), &junk, edit, WireResponse::encode, WireResponse::decode)?;
        let ext = ExtRequest { id: g.u64(), kind: g.u32(), payload: g.vec(Gen::u8) };
        check_codec(&ext, &junk, edit, ExtRequest::encode, ExtRequest::decode)?;
        let result = if g.bool() { Ok(g.vec(Gen::u8)) } else { Err(g.string()) };
        let ext = ExtResponse { id: g.u64(), result };
        check_codec(&ext, &junk, edit, ExtResponse::encode, ExtResponse::decode)?;

        let tune = TuneWireRequest {
            kernel: g.string(),
            size_ord: g.u8(),
            budget: g.u64(),
            seed: g.u64(),
        };
        check_codec(&tune, &junk, edit, TuneWireRequest::encode, |b| {
            TuneWireRequest::decode(b).ok_or(())
        })?;
        let tune = TuneWireResponse {
            cache_hit: g.bool(),
            strategy: g.string(),
            config_index: g.u64(),
            surrogate_runtime: g.f64(),
            validated: g.bool(),
            fresh_measurements: g.u64(),
        };
        check_codec(&tune, &junk, edit, TuneWireResponse::encode, |b| {
            TuneWireResponse::decode(b).ok_or(())
        })?;

        let entry = TuneEntry {
            kernel: g.string(),
            size_ord: g.u8(),
            hw_fingerprint: g.u64(),
            budget: g.u64(),
            seed: g.u64(),
            strategy: g.string(),
            config_index: g.u64(),
            surrogate_runtime: g.f64(),
            validated: g.bool(),
        };
        check_codec(&entry, &junk, edit, record_bytes, record_decode::<TuneEntry>)?;
        // A step's runtime is drawn from the domain decode accepts: the
        // bit patterns below +inf are exactly the finite doubles >= 0.
        let step = StepRecord {
            strategy_ord: g.u8(),
            step: g.u64(),
            config_index: g.u64(),
            runtime: f64::from_bits(g.u64() % f64::INFINITY.to_bits()),
        };
        check_codec(&step, &junk, edit, record_bytes, record_decode::<StepRecord>)?;
        for runtime in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            let bytes = record_bytes(&StepRecord { runtime, ..step.clone() });
            prop_assert!(StepRecord::decode(&bytes).is_none(), "runtime {runtime} decoded");
        }
        let cell = prediction_record(g);
        check_codec(&cell, &junk, edit, record_bytes, record_decode::<PredictionRecord>)?;
        let fit = FitRecord {
            n_train: g.u64(),
            size_ord: g.u8(),
            pred: g.vec(Gen::f64),
            truth: g.vec(Gen::f64),
        };
        check_codec(&fit, &junk, edit, record_bytes, record_decode::<FitRecord>)?;
    }
}
