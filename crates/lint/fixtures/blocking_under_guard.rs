// Fixture: LML0008 positive, transitive, attested and clean sites.
// Never compiled.

pub struct Ledger {
    pub stats: RankedMutex<u64>,
}

fn flush_disk(path: &std::path::Path, bytes: &[u8]) {
    std::fs::write(path, bytes).ok();
}

impl Ledger {
    /// Violation: channel recv while a let-bound guard is live.
    pub fn recv_under_guard(&self, rx: &std::sync::mpsc::Receiver<u64>) -> u64 {
        let g = self.stats.lock();
        let v = rx.recv().unwrap_or(0);
        *g + v
    }

    /// Violation (transitive): `flush_disk` bottoms out in file I/O
    /// while the guard is held.
    pub fn checkpoint(&self, path: &std::path::Path) {
        let g = self.stats.lock();
        flush_disk(path, &g.to_le_bytes());
    }

    /// Violation: a number-hook decode while the guard is held.
    pub fn decode_under_guard(&self, model: &Arc<InductionLm>, prompt: &[TokenId]) -> u64 {
        let g = self.stats.lock();
        let spec = GenerateSpec::paper(*g);
        let trace = generate_with_number_hook(model, prompt, &spec, |_| None);
        *g + trace.map_or(0, |t| t.steps.len() as u64)
    }

    /// Attested: in this fixture the lock *is* the commit serializer.
    pub fn commit_attested(&self, file: &mut std::fs::File, bytes: &[u8]) {
        use std::io::Write;
        let g = self.stats.lock();
        // lint: blocking-ok — the lock is the commit serializer here
        file.write_all(bytes).ok();
        drop(g);
    }

    /// Clean: the temporary guard dies at the semicolon, before the send.
    pub fn copy_then_send(&self, tx: &std::sync::mpsc::Sender<u64>) {
        let v = *self.stats.lock();
        tx.send(v).ok();
    }
}
