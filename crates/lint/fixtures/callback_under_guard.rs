// Fixture: LML0009 through callback parameters and fns passed by path.
// Never compiled.
use std::panic::{catch_unwind, AssertUnwindSafe};

fn apply<F: Fn() -> bool>(f: F) -> bool {
    f()
}

pub struct Queue {
    pub state: RankedMutex<Vec<u32>>,
}

impl Queue {
    fn isolate() -> bool {
        catch_unwind(AssertUnwindSafe(|| true)).unwrap_or(false)
    }

    /// Violation: a `while let` scrutinee's temporary guard lives
    /// through the loop body, so the callback runs under it.
    pub fn held(&self, step: impl Fn(u32)) {
        while let Some(n) = self.state.lock().pop() {
            step(n);
        }
    }

    /// Clean: the guard dies with its `let`, before the callback runs.
    pub fn released(&self, step: impl Fn(u32)) {
        loop {
            let Some(n) = self.state.lock().pop() else {
                break;
            };
            step(n);
        }
    }

    /// Violation (transitive): `isolate`, passed by path, enters
    /// `catch_unwind` while `g` is live.
    pub fn passed(&self) -> bool {
        let g = self.state.lock();
        apply(Queue::isolate)
    }
}
