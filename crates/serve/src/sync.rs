//! Poison-recovering, rank-checked lock helpers.
//!
//! The scheduler isolates per-request panics with `catch_unwind`, so a
//! poisoned mutex here means a *contained* panic already happened and the
//! data under the lock (monotonic counters, gate flags) is still valid.
//! Propagating the poison with `.lock().unwrap()` would instead wedge
//! every later reader and escalate one failed request into a dead
//! service. This module is the only code in the workspace allowed to
//! touch the raw poison API (enforced by `lmpeel-lint` rule LML0005);
//! everything else locks through [`RankedMutex`], which layers deadlock
//! protection on top of poison recovery:
//!
//! * every lock carries a **name** and a **rank** from [`LOCK_RANKS`] —
//!   the same table `lint.toml` declares under `[locks.ranks]` and the
//!   static analysis (LML0007) enforces over the acquired-while-holding
//!   graph (`crates/lint/tests/workspace_clean.rs` pins the two tables
//!   equal);
//! * under the `lock-rank` feature, acquisition `debug_assert!`s that
//!   the calling thread's held ranks stay strictly increasing, so any
//!   ordering the static analysis misses (trait objects, macros, code
//!   paths it cannot see) still aborts deterministically in the
//!   fault-injection suite instead of deadlocking in production.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// The workspace lock order, outermost first: a thread may only acquire
/// strictly increasing ranks. Must stay byte-identical to the
/// `[locks.ranks]` table in `lint.toml` (a test lexes this file and
/// compares).
pub const LOCK_RANKS: &[(&str, u32)] = &[
    ("conns", 10), // front-end loop inboxes + fault-proxy registry
    ("extq", 15),  // front-end extension worker-pool queue
    ("cache", 20), // tune-service result cache (commit serializer)
    ("state", 30), // fault-gate state
    ("hist", 35),  // front-end latency histogram (leaf: record/snapshot only)
    ("stats", 40), // serve stats ledger (leaf updates only)
    ("lanes", 45), // scheduler step-thread lane queue (innermost: held for next() only)
];

/// Lock `m`, recovering the guard if a previous holder panicked.
///
/// Prefer [`RankedMutex::lock`]: this raw helper bypasses rank checking
/// and is linted against (LML0005) outside this module.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Wait on `cv`, recovering the guard if another holder panicked while we
/// were parked. Prefer [`wait_ranked`], which also keeps the sanitizer's
/// held-rank stack truthful across the wait.
fn wait_unpoisoned<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// A named, rank-ordered, poison-recovering mutex.
///
/// `lock()` never returns a poisoned error (see module docs) and — under
/// the `lock-rank` feature — asserts rank monotonicity per thread before
/// blocking, so a would-be deadlock fails fast at the exact inverted
/// acquisition instead of hanging.
#[derive(Debug)]
pub struct RankedMutex<T> {
    name: &'static str,
    rank: u32,
    inner: Mutex<T>,
}

impl<T: Default> Default for RankedMutex<T> {
    fn default() -> Self {
        Self::with_rank("anonymous", u32::MAX, T::default())
    }
}

impl<T> RankedMutex<T> {
    /// A mutex named in [`LOCK_RANKS`]. Panics (under `lock-rank`) if the
    /// name has no declared rank — an undeclared lock is exactly what the
    /// sanitizer exists to catch.
    pub fn new(name: &'static str, value: T) -> Self {
        let rank = LOCK_RANKS.iter().find(|(n, _)| *n == name).map(|&(_, r)| r);
        #[cfg(feature = "lock-rank")]
        let rank = Some(rank.unwrap_or_else(|| {
            panic!("lock `{name}` has no rank in LOCK_RANKS; declare it there and in lint.toml")
        }));
        Self::with_rank(name, rank.unwrap_or(u32::MAX), value)
    }

    /// A mutex with an explicit rank, for locks outside the workspace
    /// table (tests, fixtures, short-lived tools).
    pub fn with_rank(name: &'static str, rank: u32, value: T) -> Self {
        Self {
            name,
            rank,
            inner: Mutex::new(value),
        }
    }

    /// The lock's declared name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The lock's rank in the global order.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// Acquire, recovering from poison. Under `lock-rank`, asserts that
    /// this thread holds no lock of equal or higher rank *before*
    /// blocking (checking after would report the deadlock from inside
    /// it).
    pub fn lock(&self) -> RankedGuard<'_, T> {
        rank::acquired(self.name, self.rank);
        RankedGuard {
            inner: Some(lock_unpoisoned(&self.inner)),
            name: self.name,
            rank: self.rank,
        }
    }
}

/// Guard for [`RankedMutex::lock`]; pops the sanitizer's held-rank stack
/// on drop.
#[derive(Debug)]
pub struct RankedGuard<'a, T> {
    // Option so `wait_ranked` can move the inner guard out of a type
    // that has a Drop impl without unsafe (the workspace forbids it).
    inner: Option<MutexGuard<'a, T>>,
    name: &'static str,
    rank: u32,
}

impl<T> std::ops::Deref for RankedGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present until drop/wait")
    }
}

impl<T> std::ops::DerefMut for RankedGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present until drop/wait")
    }
}

impl<T> Drop for RankedGuard<'_, T> {
    fn drop(&mut self) {
        if self.inner.is_some() {
            rank::released(self.name, self.rank);
        }
    }
}

/// Wait on `cv` with a ranked guard, recovering from poison and keeping
/// the held-rank stack truthful: the rank is popped while parked (the
/// lock really is released) and re-pushed on wakeup.
pub fn wait_ranked<'a, T>(cv: &Condvar, mut guard: RankedGuard<'a, T>) -> RankedGuard<'a, T> {
    let inner = guard.inner.take().expect("guard present until drop/wait");
    let (name, rank) = (guard.name, guard.rank);
    drop(guard); // inert: inner already taken, drop pops nothing
    rank::released(name, rank);
    let inner = wait_unpoisoned(cv, inner);
    rank::acquired(name, rank);
    RankedGuard {
        inner: Some(inner),
        name,
        rank,
    }
}

/// The per-thread held-rank stack. With `lock-rank` off, both hooks are
/// empty inline fns and the sanitizer costs nothing.
#[cfg(feature = "lock-rank")]
mod rank {
    use std::cell::RefCell;

    thread_local! {
        static HELD: RefCell<Vec<(u32, &'static str)>> = const { RefCell::new(Vec::new()) };
    }

    /// Record an acquisition, asserting strict rank monotonicity. Called
    /// *before* the underlying lock call so a violation panics instead of
    /// deadlocking, and so no guard exists yet when it does.
    pub(super) fn acquired(name: &'static str, rank: u32) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(&(held_rank, held_name)) = held.last() {
                debug_assert!(
                    rank > held_rank,
                    "lock-rank violation: acquiring `{name}` (rank {rank}) while holding \
                     `{held_name}` (rank {held_rank}); [locks.ranks] order is outermost-first \
                     and must be acquired in strictly increasing rank",
                );
            }
            held.push((rank, name));
        });
    }

    /// Record a release (drop or condvar park). Removes the most recent
    /// matching entry — guards can be dropped out of stack order.
    pub(super) fn released(name: &'static str, rank: u32) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(i) = held.iter().rposition(|&e| e == (rank, name)) {
                held.remove(i);
            }
        });
    }
}

#[cfg(not(feature = "lock-rank"))]
mod rank {
    #[inline(always)]
    pub(super) fn acquired(_name: &'static str, _rank: u32) {}
    #[inline(always)]
    pub(super) fn released(_name: &'static str, _rank: u32) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Mutex;

    #[test]
    fn lock_recovers_after_a_poisoning_panic() {
        let m = Mutex::new(7u32);
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _g = m.lock().unwrap_or_else(PoisonError::into_inner);
            panic!("poison it");
        }));
        assert!(m.is_poisoned());
        assert_eq!(*lock_unpoisoned(&m), 7, "data survives the poison");
        *lock_unpoisoned(&m) += 1;
        assert_eq!(*lock_unpoisoned(&m), 8);
    }

    #[test]
    fn ranked_mutex_recovers_after_a_poisoning_panic() {
        let m = RankedMutex::with_rank("poisoned", 1, 7u32);
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _g = m.lock();
            panic!("poison it");
        }));
        assert_eq!(*m.lock(), 7, "data survives the poison");
        *m.lock() += 1;
        assert_eq!(*m.lock(), 8);
    }

    #[test]
    fn ranked_mutex_carries_name_and_rank() {
        let m = RankedMutex::new("stats", 0u32);
        assert_eq!(m.name(), "stats");
        assert_eq!(m.rank(), 40);
        let custom = RankedMutex::with_rank("scratch", 7, ());
        assert_eq!((custom.name(), custom.rank()), ("scratch", 7));
    }

    #[test]
    fn increasing_rank_acquisition_is_always_legal() {
        let a = RankedMutex::with_rank("outer", 1, 0u32);
        let b = RankedMutex::with_rank("inner", 2, 0u32);
        let ga = a.lock();
        let gb = b.lock();
        drop(gb);
        drop(ga);
    }

    #[cfg(feature = "lock-rank")]
    #[test]
    fn rank_inversion_panics_and_unwinds_cleanly() {
        let lo = RankedMutex::with_rank("lo", 1, 0u32);
        let hi = RankedMutex::with_rank("hi", 2, 0u32);
        let err = catch_unwind(AssertUnwindSafe(|| {
            let _h = hi.lock();
            let _l = lo.lock(); // rank 1 under rank 2: inversion
        }))
        .expect_err("inversion must panic under lock-rank");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "non-string panic".to_string());
        assert!(msg.contains("lock-rank violation"), "{msg}");
        // The held stack survived the unwind: the legal order still works.
        {
            let _h = hi.lock();
        }
        let _l = lo.lock();
        let _h2 = hi.lock();
    }
}
