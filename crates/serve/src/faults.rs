//! Fault-injection test support: a [`LanguageModel`] wrapper whose
//! sessions misbehave on cue.
//!
//! Compiled only for this crate's own tests and for downstream crates
//! that opt into the `fault-inject` feature (the fault-injection proptest
//! suite and the degraded-mode throughput bench do). Nothing here is part
//! of the service's production surface.
//!
//! A [`FaultyLm`] wraps any inner model and forwards everything —
//! tokenizer, logits, sessions, re-keying — except that its sessions
//! consult their [`Fault`] plan at each prefill and decode step and inject the
//! configured failure: a panic during `extend` (admission-time fault), a
//! panic on the Nth decode step, an all-`-inf` logit vector on the Nth
//! step (which the decode loop surfaces as [`LmError::EmptyVocab`]), or a
//! block-until-gate hang for cancellation and drain tests.
//!
//! [`LmError::EmptyVocab`]: lmpeel_lm::LmError::EmptyVocab

use crate::sync::RankedMutex;
use lmpeel_lm::{DecodeSession, LanguageModel};
use lmpeel_tokenizer::{TokenId, Tokenizer};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar};

/// Prefix of every injected panic message. The scheduler's
/// [`crate::RequestError::Panicked`] payload carries it through, and
/// [`silence_injected_panics`] filters on it so fault tests do not spam
/// stderr with expected panics.
pub const INJECTED_PANIC: &str = "injected fault:";

/// Which failure a [`FaultyLm`] session injects, and when.
#[derive(Clone)]
pub enum Fault {
    /// Panic inside [`DecodeSession::extend`] — an admission-time fault
    /// (`extend` is infallible by signature, so the injected "error" is a
    /// panic, caught at the scheduler's admission boundary).
    PanicOnExtend,
    /// Panic on the Nth (1-indexed) post-prefill `logits` call — a
    /// mid-decode fault caught at the step boundary.
    PanicOnStep(usize),
    /// Return an all-`-inf` logit vector on the Nth (1-indexed) decode
    /// step, so the decode loop fails with
    /// [`lmpeel_lm::LmError::EmptyVocab`] — the non-panic error path.
    EmptyLogitsOnStep(usize),
    /// Block inside `logits` until the [`FaultGate`] opens, signalling the
    /// gate on entry. Deterministic scaffolding for cancellation, deadline
    /// and drain tests.
    HangUntilGate(Arc<FaultGate>),
}

/// A rendezvous used by [`Fault::HangUntilGate`]: the session signals
/// entry, the test opens the gate.
pub struct FaultGate {
    state: RankedMutex<GateState>,
    cv: Condvar,
}

impl Default for FaultGate {
    fn default() -> Self {
        Self {
            state: RankedMutex::new("state", GateState::default()),
            cv: Condvar::new(),
        }
    }
}

#[derive(Default)]
struct GateState {
    entered: bool,
    open: bool,
}

impl FaultGate {
    /// Fresh closed gate.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Block until a faulted session first reaches the gate.
    pub fn wait_entered(&self) {
        let mut s = self.state.lock();
        while !s.entered {
            s = crate::sync::wait_ranked(&self.cv, s);
        }
    }

    /// Open the gate, releasing every session blocked on it (and any that
    /// arrive later).
    pub fn open(&self) {
        self.state.lock().open = true;
        self.cv.notify_all();
    }

    fn enter_and_wait(&self) {
        let mut s = self.state.lock();
        s.entered = true;
        self.cv.notify_all();
        while !s.open {
            s = crate::sync::wait_ranked(&self.cv, s);
        }
    }
}

/// How many times the fault fires before the substrate turns healthy.
struct FaultBudget {
    remaining: Option<AtomicUsize>,
}

impl FaultBudget {
    /// Try to consume one firing; false once the budget is spent.
    fn fire(&self) -> bool {
        match &self.remaining {
            None => true,
            Some(n) => n
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
                .is_ok(),
        }
    }
}

/// A [`LanguageModel`] that delegates to an inner model but injects the
/// configured [`Fault`] from its sessions. Register it as a substrate to
/// test that the scheduler contains the blast radius of a misbehaving
/// model to the requests routed at it.
pub struct FaultyLm {
    inner: Arc<dyn LanguageModel>,
    fault: Fault,
    budget: FaultBudget,
}

impl FaultyLm {
    /// Wrap `inner`, injecting `fault` on every applicable occasion.
    pub fn new(inner: Arc<dyn LanguageModel>, fault: Fault) -> Self {
        Self {
            inner,
            fault,
            budget: FaultBudget { remaining: None },
        }
    }

    /// Limit the fault to its first `n` firings (fleet-wide across all
    /// sessions of this model); afterwards the substrate behaves exactly
    /// like the inner model. Lets tests exercise recovery and the
    /// consecutive-panic quarantine streak reset.
    pub fn with_fault_budget(mut self, n: usize) -> Self {
        self.budget.remaining = Some(AtomicUsize::new(n));
        self
    }
}

impl LanguageModel for FaultyLm {
    fn tokenizer(&self) -> &Tokenizer {
        self.inner.tokenizer()
    }

    fn logits(&self, context: &[TokenId]) -> Vec<f32> {
        self.inner.logits(context)
    }

    fn name(&self) -> String {
        format!("faulty({})", self.inner.name())
    }

    fn session(self: Arc<Self>) -> Box<dyn DecodeSession> {
        let inner = Arc::clone(&self.inner).session();
        Box::new(FaultySession {
            model: self,
            inner,
            decode_steps: AtomicUsize::new(0),
        })
    }
}

/// The session wrapper that actually injects the faults. Forks keep the
/// fault plan (they share the model's fleet-wide budget), so snapshots
/// cached in the prefix trie stay just as faulty as fresh sessions.
struct FaultySession {
    model: Arc<FaultyLm>,
    inner: Box<dyn DecodeSession>,
    /// Post-prefill `logits` calls made on this session (decode steps);
    /// atomic only because `logits` takes `&self`.
    decode_steps: AtomicUsize,
}

impl DecodeSession for FaultySession {
    fn tokens(&self) -> &[TokenId] {
        self.inner.tokens()
    }

    fn append(&mut self, token: TokenId) {
        self.inner.append(token);
    }

    fn extend(&mut self, tokens: &[TokenId]) {
        if matches!(self.model.fault, Fault::PanicOnExtend) && self.model.budget.fire() {
            panic!("{INJECTED_PANIC} extend over {} tokens", tokens.len());
        }
        self.inner.extend(tokens);
    }

    fn logits(&self) -> Vec<f32> {
        let step = self.decode_steps.fetch_add(1, Ordering::SeqCst) + 1;
        match &self.model.fault {
            Fault::PanicOnStep(n) if step == *n && self.model.budget.fire() => {
                panic!("{INJECTED_PANIC} decode step {step}");
            }
            Fault::EmptyLogitsOnStep(n) if step == *n && self.model.budget.fire() => {
                return vec![f32::NEG_INFINITY; self.model.tokenizer().vocab().len()];
            }
            Fault::HangUntilGate(gate) if self.model.budget.fire() => {
                gate.enter_and_wait();
            }
            _ => {}
        }
        self.inner.logits()
    }

    fn fork(&self) -> Box<dyn DecodeSession> {
        Box::new(FaultySession {
            model: Arc::clone(&self.model),
            inner: self.inner.fork(),
            decode_steps: AtomicUsize::new(self.decode_steps.load(Ordering::SeqCst)),
        })
    }

    fn rekey(&mut self, seed: u64) -> bool {
        self.inner.rekey(seed)
    }
}

/// Install a process-global panic hook that swallows the default "thread
/// panicked" stderr report for *injected* panics (payload starts with
/// [`INJECTED_PANIC`]) while forwarding every other panic to the previous
/// hook. Idempotent; call it at the top of fault tests so expected panics
/// do not flood the output.
pub fn silence_injected_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .map(|s| s.starts_with(INJECTED_PANIC))
                .or_else(|| {
                    info.payload()
                        .downcast_ref::<&str>()
                        .map(|s| s.starts_with(INJECTED_PANIC))
                })
                .unwrap_or(false);
            if !injected {
                prev(info);
            }
        }));
    });
}
