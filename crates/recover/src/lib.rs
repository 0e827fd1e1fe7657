//! Crash-safe write-ahead journaling for long experiment runs.
//!
//! The experiment grids in this workspace run hundreds of generations; a
//! crash anywhere used to lose every completed prediction. This crate is
//! the durability layer that makes runs resumable:
//!
//! * [`RunJournal`] — an append-only, length-prefixed, checksummed record
//!   log. Each [`RunJournal::commit`] is write → flush → `fsync`, so a
//!   record is either fully durable or not present at all; recovery
//!   salvages the longest checksum-valid prefix of a torn tail instead of
//!   erroring, and refuses to resume against a journal whose plan
//!   fingerprint doesn't match.
//! * [`JournalRecord`] — the codec trait a record type implements to be
//!   journaled (see [`wire`] for the byte-exact helpers).
//! * [`atomic_write`] — temp-file + `fsync` + atomic-rename publication,
//!   shared by the journal header and every `bench_out` golden emitter so
//!   a crash can never leave a truncated artifact.
//! * [`CrashAfter`] (behind the `fault-inject` feature, and in tests) — a
//!   deterministic kill-point hook that fires at an exact commit boundary,
//!   driving the kill-and-resume suites without wall clocks or signals.
//!
//! Nothing here reads a clock or OS entropy: fingerprints and checksums
//! use the process-stable FNV-1a hash ([`fnv1a64`]), never
//! `std::collections::hash_map::RandomState` (whose per-process random
//! keys would make on-disk hashes meaningless).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod wire;

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Journal file format version; bump on any framing change.
pub const FORMAT_VERSION: u32 = 1;

/// Journal header: magic, format version, plan fingerprint.
const MAGIC: [u8; 4] = *b"LMPJ";
const HEADER_LEN: usize = 16;

/// Sanity bound on one record's payload during salvage: a torn or
/// bit-flipped length prefix must not make recovery attempt a huge read.
const MAX_RECORD_LEN: u32 = 1 << 28;

/// FNV-1a 64-bit offset basis: the state [`fnv1a64_extend`] starts from.
pub const FNV1A64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit hash. Stable across processes and platforms — unlike
/// `DefaultHasher`, which seeds per process and is useless for on-disk
/// fingerprints and checksums.
#[inline]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(FNV1A64_OFFSET, bytes)
}

/// Continue an FNV-1a 64-bit hash from `state` over `bytes`. Hashing a
/// sequence piecewise from [`FNV1A64_OFFSET`] equals [`fnv1a64`] of the
/// concatenation, so callers fold words in without building a buffer.
#[inline]
pub fn fnv1a64_extend(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// SplitMix64 finalizer: a cheap, high-quality bit mixer for deriving
/// deterministic jitter from a hash (no OS entropy involved).
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Write `bytes` to `path` atomically: write a hidden temp file in the
/// same directory, `fsync` it, then `rename` over the destination. Readers
/// observe either the old contents or the new ones — never a truncated
/// mix — and a crash mid-write leaves the destination untouched.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let name = path.file_name().ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "atomic_write needs a file name",
        )
    })?;
    let tmp = dir.join(format!(".{}.tmp", name.to_string_lossy()));
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    // Best-effort directory sync so the rename itself survives a power
    // cut; failure here cannot lose data, only delay its visibility.
    if let Ok(d) = File::open(&dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// A type that can be journaled: it names a stable, ordered key and
/// round-trips through a byte-exact codec ([`wire`] has the helpers).
///
/// `decode(encode(r)) == Some(r)` must hold bit-for-bit — journaled
/// records stand in for recomputed ones on resume, so any lossy field
/// breaks the byte-identity guarantee. `decode` must return `None` (never
/// panic) on malformed input, and should reject payloads with trailing
/// bytes ([`wire::Reader::is_done`]): salvage classifies a record as torn
/// by that `None`.
pub trait JournalRecord: Clone {
    /// Uniquely identifies the unit of work the record is the result of.
    type Key: Ord + Clone;

    /// The record's key.
    fn key(&self) -> Self::Key;

    /// Append the canonical encoding to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Parse an encoding produced by [`JournalRecord::encode`]; `None` on
    /// any malformation.
    fn decode(bytes: &[u8]) -> Option<Self>
    where
        Self: Sized;
}

/// Why a journal could not be opened or appended to.
#[derive(Debug)]
pub enum JournalError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// The journal on disk belongs to a different plan: its header
    /// fingerprint does not match the one this run computed. Resuming
    /// would silently mix results from incompatible runs, so the journal
    /// is refused; delete it (or pass a different path) to start over.
    FingerprintMismatch {
        /// Fingerprint of the plan being run.
        expected: u64,
        /// Fingerprint recorded in the journal header.
        found: u64,
    },
    /// The deterministic kill-point hook fired ([`CrashAfter`] with
    /// [`CrashMode::Error`]): the commit did not happen, simulating a
    /// process killed at this exact boundary.
    InjectedCrash,
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O failed: {e}"),
            JournalError::FingerprintMismatch { expected, found } => write!(
                f,
                "journal belongs to a different plan (fingerprint {found:#018x}, this run is {expected:#018x}); delete it or pass a different --journal path"
            ),
            JournalError::InjectedCrash => {
                write!(f, "injected crash: kill-point hook fired at a commit boundary")
            }
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// What [`RunJournal::open`] found and did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Recovery {
    /// Records salvaged from the journal (the committed prefix).
    pub records: usize,
    /// Bytes of torn/corrupt tail discarded past the last valid record.
    pub dropped_bytes: u64,
    /// True when the header itself was unreadable (file shorter than a
    /// header, bad magic, or unknown format version) and the journal was
    /// restarted empty. A complete header with a *wrong fingerprint* is
    /// never reset — that's [`JournalError::FingerprintMismatch`].
    pub reset: bool,
}

/// Deterministic kill-point: crash the journal at an exact commit
/// boundary. `commits` more commits are allowed to land durably; the next
/// one fires `mode` *before* writing anything, exactly as if the process
/// had been killed between commits.
#[cfg(any(test, feature = "fault-inject"))]
#[derive(Debug, Clone, Copy)]
pub struct CrashAfter {
    /// Commits that still land before the crash fires.
    pub commits: u32,
    /// What firing does.
    pub mode: CrashMode,
}

/// How an armed [`CrashAfter`] kills the run.
#[cfg(any(test, feature = "fault-inject"))]
#[derive(Debug, Clone, Copy)]
pub enum CrashMode {
    /// Return [`JournalError::InjectedCrash`] from `commit` (and from
    /// every later commit): the in-process simulation used by the
    /// kill-and-resume proptests.
    Error,
    /// `std::process::exit` with this code: the real-kill variant the CI
    /// smoke test drives through `LMPEEL_CRASH_AFTER`.
    Exit(i32),
}

/// An append-only, checksummed, length-prefixed log of completed records,
/// keyed by [`JournalRecord::Key`].
///
/// Layout: a 16-byte header (`LMPJ` magic, format version, plan
/// fingerprint — published atomically via [`atomic_write`]) followed by
/// frames of `len: u32 | fnv1a64(payload): u64 | payload`. A commit is
/// durable once `commit` returns: the frame is written, flushed and
/// `fsync`ed before the call completes. Recovery walks frames from the
/// front and stops at the first length/checksum/decode failure,
/// truncating the file there — so a crash mid-write costs at most the
/// record being written, never the journal.
pub struct RunJournal<R: JournalRecord> {
    path: PathBuf,
    file: File,
    fingerprint: u64,
    records: BTreeMap<R::Key, R>,
    #[cfg(any(test, feature = "fault-inject"))]
    crash: Option<CrashAfter>,
}

fn header_bytes(fingerprint: u64) -> Vec<u8> {
    let mut h = Vec::with_capacity(HEADER_LEN);
    h.extend_from_slice(&MAGIC);
    wire::put_u32(&mut h, FORMAT_VERSION);
    wire::put_u64(&mut h, fingerprint);
    h
}

impl<R: JournalRecord> RunJournal<R> {
    /// Open the journal at `path` for the plan identified by
    /// `fingerprint`, creating it if absent, salvaging the longest valid
    /// record prefix if the tail is torn, and refusing a journal whose
    /// header names a different fingerprint.
    pub fn open(
        path: impl AsRef<Path>,
        fingerprint: u64,
    ) -> Result<(Self, Recovery), JournalError> {
        let path = path.as_ref().to_path_buf();
        let mut recovery = Recovery::default();
        let mut records = BTreeMap::new();

        let existing = match std::fs::read(&path) {
            Ok(data) => Some(data),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(e.into()),
        };

        let usable_header = existing.as_ref().is_some_and(|data| {
            data.len() >= HEADER_LEN
                && data[..4] == MAGIC
                && wire::Reader::new(&data[4..8]).u32() == Some(FORMAT_VERSION)
        });

        if let (Some(data), true) = (&existing, usable_header) {
            let found = wire::Reader::new(&data[8..HEADER_LEN])
                .u64()
                .unwrap_or_default();
            if found != fingerprint {
                return Err(JournalError::FingerprintMismatch {
                    expected: fingerprint,
                    found,
                });
            }
            // Salvage: longest prefix of frames whose length, checksum and
            // decode all hold.
            let mut pos = HEADER_LEN;
            while let Some(len) = data
                .get(pos..pos + 4)
                .and_then(|b| wire::Reader::new(b).u32())
            {
                if len > MAX_RECORD_LEN {
                    break;
                }
                let len = len as usize;
                let Some(checksum) = data
                    .get(pos + 4..pos + 12)
                    .and_then(|b| wire::Reader::new(b).u64())
                else {
                    break;
                };
                let Some(payload) = data.get(pos + 12..pos + 12 + len) else {
                    break;
                };
                if fnv1a64(payload) != checksum {
                    break;
                }
                let Some(record) = R::decode(payload) else {
                    break;
                };
                records.insert(record.key(), record);
                recovery.records += 1;
                pos += 12 + len;
            }
            if pos < data.len() {
                recovery.dropped_bytes = (data.len() - pos) as u64;
                let f = OpenOptions::new().write(true).open(&path)?;
                f.set_len(pos as u64)?;
                f.sync_all()?;
            }
        } else {
            // Missing file, or a header too torn to even identify the
            // journal: (re)start empty. A torn header cannot prove the
            // fingerprint matched, so nothing behind it is trustworthy.
            if let Some(data) = &existing {
                recovery.reset = true;
                recovery.dropped_bytes = data.len() as u64;
            }
            atomic_write(&path, &header_bytes(fingerprint))?;
        }

        let file = OpenOptions::new().append(true).open(&path)?;
        Ok((
            Self {
                path,
                file,
                fingerprint,
                records,
                #[cfg(any(test, feature = "fault-inject"))]
                crash: None,
            },
            recovery,
        ))
    }

    /// The journal's on-disk location.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of committed records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records have been committed.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Whether a record with this key has been committed.
    pub fn contains(&self, key: &R::Key) -> bool {
        self.records.contains_key(key)
    }

    /// The committed record for `key`, if any.
    pub fn get(&self, key: &R::Key) -> Option<&R> {
        self.records.get(key)
    }

    /// All committed records in key order (the canonical order).
    pub fn records(&self) -> impl Iterator<Item = &R> {
        self.records.values()
    }

    /// The canonical byte image of this journal: the header followed by
    /// one frame per record *in key order*, regardless of the order the
    /// commits physically landed (or were salvaged) in. Two journals
    /// holding the same records therefore snapshot to identical bytes —
    /// the property that makes a published journal shippable and lets a
    /// resumed run reproduce the file byte-for-byte.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let mut out = header_bytes(self.fingerprint);
        for record in self.records.values() {
            let mut payload = Vec::new();
            record.encode(&mut payload);
            wire::put_u32(&mut out, payload.len() as u32);
            wire::put_u64(&mut out, fnv1a64(&payload));
            out.extend_from_slice(&payload);
        }
        out
    }

    /// Atomically rewrite the on-disk journal as its canonical snapshot
    /// ([`snapshot_bytes`](Self::snapshot_bytes)) and reopen the append
    /// handle, so later commits extend the published file. Publication
    /// goes through [`atomic_write`]: a crash mid-publish leaves the old
    /// file intact, and a reader never observes a torn journal.
    pub fn publish(&mut self) -> Result<(), JournalError> {
        atomic_write(&self.path, &self.snapshot_bytes())?;
        // The rename orphaned the old append handle; reopen on the
        // published file.
        self.file = OpenOptions::new().append(true).open(&self.path)?;
        Ok(())
    }

    /// Durably append one record: encode, frame, write, flush, `fsync`.
    /// When `commit` returns `Ok`, the record survives any subsequent
    /// crash; when it errors, the journal on disk still ends at the
    /// previous commit boundary.
    pub fn commit(&mut self, record: &R) -> Result<(), JournalError> {
        #[cfg(any(test, feature = "fault-inject"))]
        if let Some(crash) = &mut self.crash {
            if crash.commits == 0 {
                match crash.mode {
                    CrashMode::Error => return Err(JournalError::InjectedCrash),
                    CrashMode::Exit(code) => std::process::exit(code),
                }
            }
            crash.commits -= 1;
        }
        let mut payload = Vec::new();
        record.encode(&mut payload);
        let mut frame = Vec::with_capacity(12 + payload.len());
        wire::put_u32(&mut frame, payload.len() as u32);
        wire::put_u64(&mut frame, fnv1a64(&payload));
        frame.extend_from_slice(&payload);
        self.file.write_all(&frame)?;
        self.file.flush()?;
        self.file.sync_data()?;
        self.records.insert(record.key(), record.clone());
        Ok(())
    }

    /// Arm the deterministic kill-point hook: the next `crash.commits`
    /// commits land, then the one after fires `crash.mode` before writing.
    #[cfg(any(test, feature = "fault-inject"))]
    pub fn crash_after(&mut self, crash: CrashAfter) {
        self.crash = Some(crash);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Tiny record for journal-mechanics tests.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct TestRec {
        id: u64,
        data: Vec<u8>,
    }

    impl JournalRecord for TestRec {
        type Key = u64;
        fn key(&self) -> u64 {
            self.id
        }
        fn encode(&self, buf: &mut Vec<u8>) {
            wire::put_u64(buf, self.id);
            wire::put_bytes(buf, &self.data);
        }
        fn decode(bytes: &[u8]) -> Option<Self> {
            let mut r = wire::Reader::new(bytes);
            let id = r.u64()?;
            let data = r.bytes()?.to_vec();
            r.is_done().then_some(TestRec { id, data })
        }
    }

    fn rec(id: u64) -> TestRec {
        TestRec {
            id,
            // Varied, id-derived payloads so checksums differ per record.
            data: (0..(id % 7) as u8 + 1)
                .map(|i| i.wrapping_mul(31) ^ id as u8)
                .collect(),
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("lmpeel-recover-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.journal", std::process::id()))
    }

    #[test]
    fn commit_then_reopen_round_trips() {
        let path = tmp("roundtrip");
        let _ = std::fs::remove_file(&path);
        let (mut j, rc) = RunJournal::<TestRec>::open(&path, 42).unwrap();
        assert_eq!(rc, Recovery::default());
        for id in 0..5 {
            j.commit(&rec(id)).unwrap();
        }
        drop(j);
        let (j, rc) = RunJournal::<TestRec>::open(&path, 42).unwrap();
        assert_eq!(rc.records, 5);
        assert_eq!(rc.dropped_bytes, 0);
        assert!(!rc.reset);
        for id in 0..5 {
            assert_eq!(j.get(&id), Some(&rec(id)));
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mismatched_fingerprint_is_refused() {
        let path = tmp("fingerprint");
        let _ = std::fs::remove_file(&path);
        let (mut j, _) = RunJournal::<TestRec>::open(&path, 1).unwrap();
        j.commit(&rec(0)).unwrap();
        drop(j);
        let err = match RunJournal::<TestRec>::open(&path, 2) {
            Ok(_) => panic!("open must refuse a mismatched fingerprint"),
            Err(e) => e,
        };
        match err {
            JournalError::FingerprintMismatch { expected, found } => {
                assert_eq!((expected, found), (2, 1));
            }
            other => panic!("expected fingerprint mismatch, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn crash_hook_fires_at_the_exact_boundary() {
        let path = tmp("crash");
        let _ = std::fs::remove_file(&path);
        let (mut j, _) = RunJournal::<TestRec>::open(&path, 7).unwrap();
        j.crash_after(CrashAfter {
            commits: 2,
            mode: CrashMode::Error,
        });
        j.commit(&rec(0)).unwrap();
        j.commit(&rec(1)).unwrap();
        assert!(matches!(
            j.commit(&rec(2)),
            Err(JournalError::InjectedCrash)
        ));
        // A crashed journal stays crashed.
        assert!(matches!(
            j.commit(&rec(3)),
            Err(JournalError::InjectedCrash)
        ));
        drop(j);
        let (j, rc) = RunJournal::<TestRec>::open(&path, 7).unwrap();
        assert_eq!(rc.records, 2);
        assert!(j.contains(&0) && j.contains(&1) && !j.contains(&2));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn snapshot_is_insertion_order_invariant_and_publish_is_appendable() {
        let (pa, pb) = (tmp("snap-a"), tmp("snap-b"));
        let _ = std::fs::remove_file(&pa);
        let _ = std::fs::remove_file(&pb);
        let (mut a, _) = RunJournal::<TestRec>::open(&pa, 5).unwrap();
        let (mut b, _) = RunJournal::<TestRec>::open(&pb, 5).unwrap();
        for id in [3u64, 1, 4, 2] {
            a.commit(&rec(id)).unwrap();
        }
        for id in [1u64, 2, 3, 4] {
            b.commit(&rec(id)).unwrap();
        }
        // Physical layouts differ (commit order), canonical snapshots agree.
        assert_ne!(std::fs::read(&pa).unwrap(), std::fs::read(&pb).unwrap());
        assert_eq!(a.snapshot_bytes(), b.snapshot_bytes());

        // Publishing rewrites the file as the snapshot...
        a.publish().unwrap();
        assert_eq!(std::fs::read(&pa).unwrap(), a.snapshot_bytes());
        // ...and the journal still accepts commits afterwards.
        a.commit(&rec(9)).unwrap();
        drop(a);
        let (a2, rc) = RunJournal::<TestRec>::open(&pa, 5).unwrap();
        assert_eq!(rc.records, 5);
        assert_eq!(rc.dropped_bytes, 0);
        assert!(a2.contains(&9));
        assert_eq!(
            a2.records().map(|r| r.id).collect::<Vec<_>>(),
            vec![1, 2, 3, 4, 9],
            "records() iterates in key order"
        );
        std::fs::remove_file(&pa).unwrap();
        std::fs::remove_file(&pb).unwrap();
    }

    #[test]
    fn published_snapshot_reopens_byte_identically() {
        let path = tmp("snap-reopen");
        let _ = std::fs::remove_file(&path);
        let (mut j, _) = RunJournal::<TestRec>::open(&path, 11).unwrap();
        for id in [6u64, 0, 2] {
            j.commit(&rec(id)).unwrap();
        }
        j.publish().unwrap();
        let published = std::fs::read(&path).unwrap();
        drop(j);
        // Reopen, publish again without changes: bytes must not move.
        let (mut j, rc) = RunJournal::<TestRec>::open(&path, 11).unwrap();
        assert_eq!(rc.records, 3);
        j.publish().unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), published);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn atomic_write_replaces_contents_wholesale() {
        let path = tmp("atomic");
        atomic_write(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second, longer contents").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second, longer contents");
        // No temp file left behind.
        let name = format!(".{}.tmp", path.file_name().unwrap().to_string_lossy());
        assert!(!path.with_file_name(name).exists());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_header_resets_the_journal() {
        let path = tmp("tornheader");
        let _ = std::fs::remove_file(&path);
        for cut in [0usize, 3, 7, 15] {
            let (mut j, _) = RunJournal::<TestRec>::open(&path, 9).unwrap();
            j.commit(&rec(1)).unwrap();
            drop(j);
            let data = std::fs::read(&path).unwrap();
            std::fs::write(&path, &data[..cut]).unwrap();
            let (j, rc) = RunJournal::<TestRec>::open(&path, 9).unwrap();
            assert!(rc.reset, "cut at {cut} must reset");
            assert_eq!(rc.records, 0);
            assert_eq!(rc.dropped_bytes, cut as u64);
            assert!(j.is_empty());
            std::fs::remove_file(&path).unwrap();
        }
    }

    /// Byte layout of a committed journal, for computing the expected
    /// salvage count at an arbitrary truncation offset.
    fn frame_ends(data: &[u8]) -> Vec<usize> {
        let mut ends = Vec::new();
        let mut pos = HEADER_LEN;
        while pos + 12 <= data.len() {
            let len = wire::Reader::new(&data[pos..pos + 4]).u32().unwrap() as usize;
            pos += 12 + len;
            ends.push(pos);
        }
        ends
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        // Truncating a valid journal at *every* byte offset salvages
        // exactly the frames wholly before the cut, and the journal is
        // immediately appendable again.
        #[test]
        fn truncation_salvages_the_longest_valid_prefix(n_records in 1usize..6, case in 0u64..1000) {
            let path = tmp(&format!("trunc-{case}-{n_records}"));
            let _ = std::fs::remove_file(&path);
            let (mut j, _) = RunJournal::<TestRec>::open(&path, case).unwrap();
            for id in 0..n_records as u64 {
                j.commit(&rec(id * 13 + case)).unwrap();
            }
            drop(j);
            let data = std::fs::read(&path).unwrap();
            let ends = frame_ends(&data);
            for cut in HEADER_LEN..data.len() {
                std::fs::write(&path, &data[..cut]).unwrap();
                let (mut j, rc) = RunJournal::<TestRec>::open(&path, case).unwrap();
                let expected = ends.iter().filter(|&&e| e <= cut).count();
                prop_assert_eq!(rc.records, expected, "cut at {}", cut);
                prop_assert!(!rc.reset);
                // The salvaged journal accepts new commits at the boundary.
                j.commit(&rec(10_000 + cut as u64)).unwrap();
                drop(j);
                let (j, rc2) = RunJournal::<TestRec>::open(&path, case).unwrap();
                prop_assert_eq!(rc2.records, expected + 1);
                prop_assert_eq!(rc2.dropped_bytes, 0);
                prop_assert!(j.contains(&(10_000 + cut as u64)));
            }
            std::fs::remove_file(&path).unwrap();
        }

        // A single bit flip anywhere in the last frame costs exactly that
        // frame: the checksum (or framing) fails and salvage keeps the
        // prefix before it.
        #[test]
        fn bit_flips_in_the_last_frame_drop_only_that_frame(
            n_records in 2usize..6,
            flip_bit in 0usize..8,
            case in 0u64..1000,
        ) {
            let path = tmp(&format!("flip-{case}-{n_records}-{flip_bit}"));
            let _ = std::fs::remove_file(&path);
            let (mut j, _) = RunJournal::<TestRec>::open(&path, case).unwrap();
            for id in 0..n_records as u64 {
                j.commit(&rec(id * 17 + case)).unwrap();
            }
            drop(j);
            let pristine = std::fs::read(&path).unwrap();
            let ends = frame_ends(&pristine);
            let last_start = ends[ends.len() - 2];
            for byte in last_start..pristine.len() {
                let mut data = pristine.clone();
                data[byte] ^= 1 << flip_bit;
                std::fs::write(&path, &data).unwrap();
                let (_, rc) = RunJournal::<TestRec>::open(&path, case).unwrap();
                prop_assert_eq!(
                    rc.records, n_records - 1,
                    "flip at byte {} bit {}", byte, flip_bit
                );
                prop_assert!(rc.dropped_bytes > 0);
            }
            std::fs::remove_file(&path).unwrap();
        }
    }
}
