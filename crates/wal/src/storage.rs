//! The storage abstraction under the durable store, with two
//! implementations: real directories ([`DirStorage`]) and a deterministic
//! fault-injecting in-memory filesystem ([`FaultStorage`]) that kills
//! writes at an exact byte budget — the engine of the crash-recovery
//! differential suite.
//!
//! The trait is deliberately tiny — named flat files, append, atomic
//! whole-file replace, sync, truncate — because that is all a WAL plus
//! snapshot/manifest scheme needs, and a small surface is what makes the
//! fault model exhaustive: every mutation has a well-defined byte cost,
//! so a seeded sweep over budgets visits every possible torn prefix.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;

use crate::error::{WalError, WalResult};

/// Flat-namespace storage for WAL segments, snapshots, and the manifest.
///
/// Contract (what [`crate::DurableStore`] relies on and the crash suite
/// enforces):
/// - `append` may tear: on failure an arbitrary *prefix* of the new bytes
///   may have been written, but earlier content is intact.
/// - `write_atomic` never tears: after a crash the file holds either the
///   old content or the new, never a mix.
/// - `sync` makes all prior writes to the named file crash-durable; a
///   fault-injecting reopen may discard bytes written after the last
///   sync, but never synced ones.
pub trait WalStorage {
    /// Read a whole file, or `None` if it does not exist.
    fn read(&self, name: &str) -> WalResult<Option<Vec<u8>>>;
    /// Append bytes to a file, creating it if missing.
    fn append(&mut self, name: &str, bytes: &[u8]) -> WalResult<()>;
    /// Replace a file's content all-or-nothing.
    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> WalResult<()>;
    /// Make prior writes to the file crash-durable.
    fn sync(&mut self, name: &str) -> WalResult<()>;
    /// Shrink a file to `len` bytes (no-op if already shorter or absent).
    fn truncate(&mut self, name: &str, len: u64) -> WalResult<()>;
    /// Delete a file if present.
    fn remove(&mut self, name: &str) -> WalResult<()>;
    /// All file names, sorted.
    fn list(&self) -> WalResult<Vec<String>>;
}

// ---------------------------------------------------------------------------
// Real directories
// ---------------------------------------------------------------------------

/// [`WalStorage`] over a real directory via `std::fs`.
///
/// `write_atomic` is temp-file + `sync_all` + rename (plus a best-effort
/// directory sync), the standard recipe for an atomic replace on POSIX
/// filesystems.
#[derive(Debug)]
pub struct DirStorage {
    root: PathBuf,
}

impl DirStorage {
    /// Open (creating if needed) the directory at `root`.
    pub fn open(root: impl Into<PathBuf>) -> WalResult<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root).map_err(io_err)?;
        Ok(Self { root })
    }

    /// The directory this storage lives in.
    pub fn root(&self) -> &std::path::Path {
        &self.root
    }

    fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    fn sync_dir(&self) {
        // Durability of the rename itself; failure here is not actionable.
        if let Ok(d) = std::fs::File::open(&self.root) {
            let _ = d.sync_all();
        }
    }
}

fn io_err(e: std::io::Error) -> WalError {
    WalError::Io(e.to_string())
}

impl WalStorage for DirStorage {
    fn read(&self, name: &str) -> WalResult<Option<Vec<u8>>> {
        match std::fs::read(self.path(name)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(io_err(e)),
        }
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> WalResult<()> {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.path(name))
            .map_err(io_err)?;
        f.write_all(bytes).map_err(io_err)
    }

    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> WalResult<()> {
        let tmp = self.path(&format!("{name}.tmp"));
        {
            let mut f = std::fs::File::create(&tmp).map_err(io_err)?;
            f.write_all(bytes).map_err(io_err)?;
            f.sync_all().map_err(io_err)?;
        }
        std::fs::rename(&tmp, self.path(name)).map_err(io_err)?;
        self.sync_dir();
        Ok(())
    }

    fn sync(&mut self, name: &str) -> WalResult<()> {
        match std::fs::File::open(self.path(name)) {
            Ok(f) => f.sync_all().map_err(io_err),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(io_err(e)),
        }
    }

    fn truncate(&mut self, name: &str, len: u64) -> WalResult<()> {
        match std::fs::OpenOptions::new()
            .write(true)
            .open(self.path(name))
        {
            Ok(f) => {
                let cur = f.metadata().map_err(io_err)?.len();
                if cur > len {
                    f.set_len(len).map_err(io_err)?;
                    f.sync_all().map_err(io_err)?;
                }
                Ok(())
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(io_err(e)),
        }
    }

    fn remove(&mut self, name: &str) -> WalResult<()> {
        match std::fs::remove_file(self.path(name)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(io_err(e)),
        }
    }

    fn list(&self) -> WalResult<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(&self.root).map_err(io_err)? {
            let entry = entry.map_err(io_err)?;
            if entry.file_type().map_err(io_err)?.is_file() {
                if let Some(n) = entry.file_name().to_str() {
                    names.push(n.to_owned());
                }
            }
        }
        names.sort();
        Ok(names)
    }
}

// ---------------------------------------------------------------------------
// Deterministic fault injection
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Default)]
struct FaultFile {
    data: Vec<u8>,
    /// Bytes guaranteed to survive a `reopen_dropping_unsynced`.
    synced_len: usize,
}

/// In-memory [`WalStorage`] that kills writes at an exact byte budget.
///
/// Every mutating byte increments a monotonic *cost* counter. When a
/// budget is armed, the write that would exceed it is torn at exactly the
/// budget boundary — an `append` keeps the affordable prefix, a
/// `write_atomic` keeps the old content — the storage flips to the
/// *crashed* state, and every later mutation fails with
/// [`WalError::Crashed`]. Reads keep working: the harness inspects the
/// wreckage exactly as recovery will see it.
///
/// Because the workload is deterministic, the same seed produces the same
/// byte stream, so sweeping the budget over `0..=total_cost()` visits
/// every possible crash prefix. [`Self::reopen`] models power-back-on with
/// all written bytes intact; [`Self::reopen_dropping_unsynced`] models a
/// lost page cache (each file rolls back to its last synced length); and
/// [`Self::flip_bit`] models media corruption for the bit-flip arm of the
/// suite.
///
/// Separately from the crash budget, one *transient* fault can be armed
/// per call kind ([`Self::fail_nth_append`], [`Self::fail_nth_sync`]):
/// that one call fails with [`WalError::Io`] — an append after keeping
/// half its bytes, a sync without making anything durable — and the
/// storage stays usable.
#[derive(Debug, Clone, Default)]
pub struct FaultStorage {
    files: BTreeMap<String, FaultFile>,
    budget: Option<u64>,
    cost: u64,
    crashed: bool,
    /// Appends still to succeed before the armed transient append fault.
    fail_append: Option<u64>,
    /// Syncs still to succeed before the armed transient sync fault.
    fail_sync: Option<u64>,
}

impl FaultStorage {
    /// An empty storage with no crash point armed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arm a crash: the mutation that would push total cost past
    /// `budget` bytes is torn there.
    pub fn with_budget(budget: u64) -> Self {
        Self {
            budget: Some(budget),
            ..Self::default()
        }
    }

    /// Arm a transient fault: the `n`th `append` from now (1 = the next)
    /// keeps the first half of its bytes and fails with [`WalError::Io`].
    pub fn fail_nth_append(mut self, n: u64) -> Self {
        self.fail_append = Some(n.max(1) - 1);
        self
    }

    /// Arm a transient fault: the `n`th `sync` from now (1 = the next)
    /// fails with [`WalError::Io`] and makes nothing durable.
    pub fn fail_nth_sync(mut self, n: u64) -> Self {
        self.fail_sync = Some(n.max(1) - 1);
        self
    }

    /// Total bytes of mutation cost incurred so far (the crash-point
    /// coordinate system of the sweep).
    pub fn total_cost(&self) -> u64 {
        self.cost
    }

    /// Has the armed crash point fired?
    pub fn crashed(&self) -> bool {
        self.crashed
    }

    /// Current length of a file (0 if absent).
    pub fn len(&self, name: &str) -> usize {
        self.files.get(name).map_or(0, |f| f.data.len())
    }

    /// True when no file exists.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Synced length of a file (0 if absent).
    pub fn synced_len(&self, name: &str) -> usize {
        self.files.get(name).map_or(0, |f| f.synced_len)
    }

    /// Power back on with all written bytes intact (the disk absorbed
    /// everything before the crash). Clears the crash state and the
    /// budget; all surviving bytes count as synced.
    pub fn reopen(mut self) -> Self {
        self.budget = None;
        self.crashed = false;
        for f in self.files.values_mut() {
            f.synced_len = f.data.len();
        }
        self
    }

    /// Power back on after losing the page cache: every file rolls back
    /// to its last synced length. Clears the crash state and the budget.
    pub fn reopen_dropping_unsynced(mut self) -> Self {
        self.budget = None;
        self.crashed = false;
        for f in self.files.values_mut() {
            f.data.truncate(f.synced_len);
        }
        self
    }

    /// Flip one bit of a stored file (test helper for the corruption
    /// arm). No-op when the coordinates fall outside the file.
    pub fn flip_bit(&mut self, name: &str, byte: usize, bit: u8) {
        if let Some(f) = self.files.get_mut(name) {
            if let Some(b) = f.data.get_mut(byte) {
                *b ^= 1 << (bit & 7);
            }
        }
    }

    /// Charge `want` bytes of mutation cost; returns how many are
    /// affordable. Flips to crashed when short.
    fn charge(&mut self, want: usize) -> WalResult<usize> {
        if self.crashed {
            return Err(WalError::Crashed);
        }
        let affordable = match self.budget {
            Some(b) => {
                let left = b.saturating_sub(self.cost);
                (left as usize).min(want)
            }
            None => want,
        };
        self.cost += affordable as u64;
        if affordable < want {
            self.crashed = true;
        }
        Ok(affordable)
    }
}

/// Count one call against an armed transient fault; `true` when this call
/// is the one that fails (the fault then disarms).
fn transient_fires(armed: &mut Option<u64>) -> bool {
    match armed {
        Some(0) => {
            *armed = None;
            true
        }
        Some(n) => {
            *n -= 1;
            false
        }
        None => false,
    }
}

impl WalStorage for FaultStorage {
    fn read(&self, name: &str) -> WalResult<Option<Vec<u8>>> {
        Ok(self.files.get(name).map(|f| f.data.clone()))
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> WalResult<()> {
        if transient_fires(&mut self.fail_append) {
            let kept = self.charge(bytes.len() / 2)?;
            let file = self.files.entry(name.to_owned()).or_default();
            file.data.extend_from_slice(&bytes[..kept]);
            return Err(WalError::Io(format!("injected append failure on {name}")));
        }
        let n = self.charge(bytes.len())?;
        let file = self.files.entry(name.to_owned()).or_default();
        file.data.extend_from_slice(&bytes[..n]);
        if n < bytes.len() {
            Err(WalError::Crashed)
        } else {
            Ok(())
        }
    }

    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> WalResult<()> {
        // All-or-nothing: a torn budget leaves the old content untouched.
        let n = self.charge(bytes.len())?;
        if n < bytes.len() {
            return Err(WalError::Crashed);
        }
        let file = self.files.entry(name.to_owned()).or_default();
        file.data = bytes.to_vec();
        // An atomic replace is only visible once durable (rename + dir
        // sync in the real implementation), so it lands synced.
        file.synced_len = file.data.len();
        Ok(())
    }

    fn sync(&mut self, name: &str) -> WalResult<()> {
        if self.crashed {
            return Err(WalError::Crashed);
        }
        if transient_fires(&mut self.fail_sync) {
            return Err(WalError::Io(format!("injected sync failure on {name}")));
        }
        if let Some(f) = self.files.get_mut(name) {
            f.synced_len = f.data.len();
        }
        Ok(())
    }

    fn truncate(&mut self, name: &str, len: u64) -> WalResult<()> {
        if self.crashed {
            return Err(WalError::Crashed);
        }
        if let Some(f) = self.files.get_mut(name) {
            let len = len as usize;
            if f.data.len() > len {
                f.data.truncate(len);
                f.synced_len = f.synced_len.min(len);
            }
        }
        Ok(())
    }

    fn remove(&mut self, name: &str) -> WalResult<()> {
        if self.crashed {
            return Err(WalError::Crashed);
        }
        self.files.remove(name);
        Ok(())
    }

    fn list(&self) -> WalResult<Vec<String>> {
        Ok(self.files.keys().cloned().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_tears_at_exactly_the_budget() {
        for budget in 0..=10u64 {
            let mut s = FaultStorage::with_budget(budget);
            let r = s.append("wal", b"0123456789");
            if budget >= 10 {
                r.unwrap();
                assert!(!s.crashed());
            } else {
                assert_eq!(r.unwrap_err(), WalError::Crashed);
                assert!(s.crashed());
            }
            assert_eq!(s.len("wal"), budget.min(10) as usize);
            // Later mutations all fail; reads still work.
            assert_eq!(s.append("wal", b"x").is_err(), budget < 11 || s.crashed());
            let _ = s.read("wal").unwrap();
        }
    }

    #[test]
    fn write_atomic_is_all_or_nothing() {
        let mut s = FaultStorage::new();
        s.write_atomic("m", b"old-content").unwrap();
        let spent = s.total_cost();
        let mut torn = s.clone();
        torn.budget = Some(spent + 3); // not enough for the 11-byte replace
        assert_eq!(
            torn.write_atomic("m", b"NEW-CONTENT").unwrap_err(),
            WalError::Crashed
        );
        assert_eq!(torn.read("m").unwrap().unwrap(), b"old-content");
    }

    #[test]
    fn reopen_dropping_unsynced_rolls_back_to_last_sync() {
        let mut s = FaultStorage::new();
        s.append("wal", b"durable").unwrap();
        s.sync("wal").unwrap();
        s.append("wal", b"+lost").unwrap();
        let s = s.reopen_dropping_unsynced();
        assert_eq!(s.read("wal").unwrap().unwrap(), b"durable");
        let mut s2 = FaultStorage::new();
        s2.append("wal", b"durable").unwrap();
        s2.sync("wal").unwrap();
        s2.append("wal", b"+kept").unwrap();
        let s2 = s2.reopen();
        assert_eq!(s2.read("wal").unwrap().unwrap(), b"durable+kept");
    }

    #[test]
    fn deterministic_cost_stream() {
        let run = |budget: Option<u64>| {
            let mut s = budget.map_or_else(FaultStorage::new, FaultStorage::with_budget);
            let _ = s.append("a", b"hello");
            let _ = s.write_atomic("b", b"world!");
            let _ = s.append("a", b"again");
            (s.total_cost(), s.len("a"), s.len("b"))
        };
        let (full, ..) = run(None);
        assert_eq!(full, 16);
        for b in 0..=full {
            let (cost, la, lb) = run(Some(b));
            assert!(cost <= b || b >= full);
            // Replaying the same budget is bit-identical.
            assert_eq!(run(Some(b)), (cost, la, lb));
        }
    }

    #[test]
    fn transient_faults_fail_one_call_and_leave_the_storage_usable() {
        let mut s = FaultStorage::new().fail_nth_append(2).fail_nth_sync(1);
        s.append("wal", b"first").unwrap();
        assert!(matches!(s.append("wal", b"0123"), Err(WalError::Io(_))));
        assert_eq!(
            s.read("wal").unwrap().unwrap(),
            b"first01",
            "half the bytes kept"
        );
        assert!(!s.crashed());
        assert!(matches!(s.sync("wal"), Err(WalError::Io(_))));
        assert_eq!(
            s.synced_len("wal"),
            0,
            "a failed sync makes nothing durable"
        );
        s.truncate("wal", 5).unwrap();
        s.append("wal", b"+more").unwrap();
        s.sync("wal").unwrap();
        assert_eq!(s.synced_len("wal"), 10);
        assert_eq!(s.read("wal").unwrap().unwrap(), b"first+more");
    }

    #[test]
    fn dir_storage_round_trips() {
        let root = std::env::temp_dir().join(format!("receivers-wal-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mut s = DirStorage::open(&root).unwrap();
        assert_eq!(s.read("wal").unwrap(), None);
        s.append("wal", b"abc").unwrap();
        s.append("wal", b"def").unwrap();
        s.sync("wal").unwrap();
        assert_eq!(s.read("wal").unwrap().unwrap(), b"abcdef");
        s.truncate("wal", 4).unwrap();
        assert_eq!(s.read("wal").unwrap().unwrap(), b"abcd");
        s.write_atomic("MANIFEST", b"v1").unwrap();
        s.write_atomic("MANIFEST", b"v2").unwrap();
        assert_eq!(s.read("MANIFEST").unwrap().unwrap(), b"v2");
        let names = s.list().unwrap();
        assert!(names.contains(&"wal".to_owned()) && names.contains(&"MANIFEST".to_owned()));
        s.remove("wal").unwrap();
        assert_eq!(s.read("wal").unwrap(), None);
        let _ = std::fs::remove_dir_all(&root);
    }
}
