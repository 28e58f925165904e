//! The durable store: group-committed WAL appends, epoch checkpoints,
//! and manifest-driven crash recovery over any [`WalStorage`].
//!
//! File layout inside a storage namespace:
//!
//! ```text
//! MANIFEST               root pointer: live epoch, its last folded seq
//! snap-{epoch:016x}.bin  compacted snapshot of that epoch
//! wal-{epoch:016x}.log   records for txns after the snapshot
//! ```
//!
//! A checkpoint writes the next epoch's snapshot, atomically swings the
//! manifest, then deletes the previous epoch's files — so a crash at any
//! point leaves exactly one decodable epoch behind (the swing is the
//! commit point; stale files from a half-finished checkpoint are ignored
//! by recovery). Automatic checkpoints have one rule and one owner,
//! [`DurableStore::commit`]: after appending a unit's record, checkpoint
//! once [`WalConfig::snapshot_every`] records *or* as many WAL bytes as
//! the live snapshot holds have been logged since the last checkpoint, so
//! replay never reads more than about one snapshot's worth of log.
//!
//! A commit is all or nothing on disk: a record whose append, sync or
//! triggered checkpoint fails is cut back off the WAL before the error
//! returns, and a store that cannot cut it back is poisoned — every later
//! write returns the error until the store is reopened.
//!
//! Recovery is manifest → snapshot → replay the WAL tail through
//! [`try_redo_ops`] into the instance alone, then rebuild the
//! [`DatabaseView`] once, truncating at the first torn or corrupt
//! record. A record whose checksum holds but whose ops do not apply is
//! not a torn tail: recovery refuses it with [`WalError::BadRecord`] and
//! leaves every file as it found it.

use std::sync::Arc;

use receivers_objectbase::{try_redo_ops, DeltaOp, Instance, NullObserver, Schema};
use receivers_obs as obs;
use receivers_relalg::{Database, DatabaseView};

use crate::error::{WalError, WalResult};
use crate::record::{check_payload_len, decode_log, encode_record, payload_len};
use crate::snapshot::{decode_snapshot, encode_snapshot, schema_digest, Manifest};
use crate::storage::WalStorage;

obs::counter!(C_RECORDS_APPENDED, "wal.records_appended");
obs::counter!(C_BYTES_APPENDED, "wal.bytes_appended");
obs::counter!(C_SYNCS, "wal.syncs");
obs::counter!(C_CHECKPOINTS, "wal.checkpoints");
obs::counter!(C_SNAPSHOT_BYTES, "wal.snapshot_bytes");
obs::counter!(C_RECOVERIES, "wal.recoveries");
obs::counter!(C_RECORDS_REPLAYED, "wal.records_replayed");
obs::counter!(C_OPS_REPLAYED, "wal.ops_replayed");
obs::counter!(C_TORN_TAILS, "wal.torn_tails");
obs::counter!(C_TRUNCATED_BYTES, "wal.truncated_bytes");
obs::histogram!(H_RECORD_BYTES, "wal.record_bytes");
obs::histogram!(H_SYNC_NS, "wal.sync_ns");

const MANIFEST_FILE: &str = "MANIFEST";

/// Tuning knobs of a [`DurableStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalConfig {
    /// Sync the WAL every `group_commit` committed records (1 = every
    /// commit is immediately durable; larger values batch the fsync cost
    /// across commits at the price of losing the unsynced tail on a
    /// crash — recovery then restores the last synced prefix).
    pub group_commit: usize,
    /// Automatic checkpoint threshold: [`DurableStore::commit`]
    /// checkpoints at the end of the commit that brings the records
    /// logged since the last checkpoint to `snapshot_every`, or their
    /// bytes to the live snapshot's size, whichever comes first. 0
    /// disables both triggers (callers may still checkpoint manually).
    pub snapshot_every: u64,
}

impl Default for WalConfig {
    fn default() -> Self {
        Self {
            group_commit: 1,
            snapshot_every: 0,
        }
    }
}

/// What recovery found and did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Epoch the manifest pointed at.
    pub epoch: u64,
    /// Last transaction sequence number restored (snapshot + replay).
    pub last_seq: u64,
    /// WAL records replayed on top of the snapshot.
    pub records_replayed: u64,
    /// Total delta ops replayed.
    pub ops_replayed: u64,
    /// Bytes truncated off a torn or corrupt WAL tail.
    pub truncated_bytes: u64,
    /// Why the tail was truncated, when it was.
    pub torn: Option<String>,
}

/// Cumulative I/O accounting of one [`DurableStore`], read back with
/// [`DurableStore::stats`]. Unlike the global `wal.*` counters these are
/// per-store, so a profiler can diff them around a single stage without
/// other stores (or concurrent tests) bleeding in.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// WAL records appended.
    pub records: u64,
    /// Encoded record bytes appended.
    pub bytes: u64,
    /// Storage syncs issued (fsync barriers).
    pub syncs: u64,
    /// Total nanoseconds spent inside those syncs.
    pub sync_ns: u64,
    /// Checkpoints taken.
    pub checkpoints: u64,
}

/// A write-ahead-logged, checkpointable store for one instance's edit
/// history.
#[derive(Debug)]
pub struct DurableStore<S: WalStorage> {
    storage: S,
    schema: Arc<Schema>,
    cfg: WalConfig,
    epoch: u64,
    tail: Tail,
    /// Bytes of the live epoch's snapshot: the byte trigger's threshold.
    snapshot_len: u64,
    /// The error a failed cut-back left behind; every later write
    /// returns it until the store is reopened.
    poisoned: Option<WalError>,
    frame_buf: Vec<u8>,
    stats: WalStats,
}

/// Where the live WAL ends: what a failed commit restores, so the bytes
/// on disk and the counters describing them move back together.
#[derive(Debug, Clone, Copy)]
struct Tail {
    /// Bytes in the live epoch's WAL file — also the bytes logged since
    /// the last checkpoint, since a checkpoint starts a new file.
    wal_len: u64,
    next_seq: u64,
    unsynced_records: usize,
    records_since_checkpoint: u64,
}

impl<S: WalStorage> DurableStore<S> {
    /// Initialize a fresh store at epoch 1 whose snapshot is `instance`
    /// as it stands. Refuses to clobber an existing store.
    pub fn create(
        storage: S,
        schema: Arc<Schema>,
        cfg: WalConfig,
        instance: &Instance,
    ) -> WalResult<Self> {
        let mut storage = storage;
        if storage.read(MANIFEST_FILE)?.is_some() {
            return Err(WalError::AlreadyExists);
        }
        let manifest = Manifest {
            epoch: 1,
            last_seq: 0,
            schema_digest: schema_digest(&schema),
        };
        let snap = encode_snapshot(&Database::from_instance(instance), 1, 0);
        C_SNAPSHOT_BYTES.add(snap.len() as u64);
        storage.write_atomic(&manifest.snapshot_file(), &snap)?;
        storage.write_atomic(MANIFEST_FILE, &manifest.encode())?;
        Ok(Self {
            storage,
            schema,
            cfg,
            epoch: 1,
            tail: Tail {
                wal_len: 0,
                next_seq: 1,
                unsynced_records: 0,
                records_since_checkpoint: 0,
            },
            snapshot_len: snap.len() as u64,
            poisoned: None,
            frame_buf: Vec::new(),
            stats: WalStats::default(),
        })
    }

    /// Recover a store: manifest → snapshot → WAL-tail replay into a
    /// fresh [`Instance`], then one [`DatabaseView`] rebuild at the end
    /// (bit-identical to maintaining the view through every record, at a
    /// fraction of the cost), truncating a torn or corrupt tail. Total
    /// over arbitrary storage contents — corruption surfaces as a
    /// structured error or a truncated tail, never a panic. A
    /// checksum-valid record that does not apply is
    /// [`WalError::BadRecord`], returned before any file is touched.
    #[allow(clippy::type_complexity)]
    pub fn open(
        storage: S,
        schema: Arc<Schema>,
        cfg: WalConfig,
    ) -> WalResult<(Self, Instance, DatabaseView, RecoveryReport)> {
        let mut storage = storage;
        let manifest_bytes = storage.read(MANIFEST_FILE)?.ok_or(WalError::NotFound)?;
        let manifest = Manifest::decode(&manifest_bytes)?;
        let supplied = schema_digest(&schema);
        if manifest.schema_digest != supplied {
            return Err(WalError::SchemaMismatch {
                stored: manifest.schema_digest,
                supplied,
            });
        }
        let snap_bytes = storage.read(&manifest.snapshot_file())?.ok_or_else(|| {
            WalError::BadSnapshot(format!(
                "missing snapshot file {}",
                manifest.snapshot_file()
            ))
        })?;
        let (mut instance, header) = decode_snapshot(&snap_bytes, &schema)?;
        if header.epoch != manifest.epoch || header.last_seq != manifest.last_seq {
            return Err(WalError::BadSnapshot(format!(
                "snapshot header (epoch {}, seq {}) disagrees with manifest (epoch {}, seq {})",
                header.epoch, header.last_seq, manifest.epoch, manifest.last_seq
            )));
        }
        let wal_name = manifest.wal_file();
        let wal_bytes = storage.read(&wal_name)?.unwrap_or_default();
        let decoded = decode_log(&wal_bytes, manifest.last_seq + 1);
        // Replay the tail into the instance alone — per-record view
        // maintenance would pay the incremental-index cost once per
        // record; a single rebuild after the loop is the same O(N + E)
        // as the snapshot decode and produces a bit-identical view.
        let mut ops_replayed = 0u64;
        for record in &decoded.records {
            try_redo_ops(&mut instance, &mut NullObserver, &record.ops).map_err(|e| {
                WalError::BadRecord {
                    seq: record.seq,
                    reason: e.to_string(),
                }
            })?;
            ops_replayed += record.ops.len() as u64;
        }
        let view = DatabaseView::new(&instance);
        let truncated = wal_bytes.len() as u64 - decoded.valid_len;
        if truncated > 0 {
            storage.truncate(&wal_name, decoded.valid_len)?;
            storage.sync(&wal_name)?;
            C_TORN_TAILS.incr();
            C_TRUNCATED_BYTES.add(truncated);
        }
        let records_replayed = decoded.records.len() as u64;
        let last_seq = manifest.last_seq + records_replayed;
        C_RECOVERIES.incr();
        C_RECORDS_REPLAYED.add(records_replayed);
        C_OPS_REPLAYED.add(ops_replayed);
        let report = RecoveryReport {
            epoch: manifest.epoch,
            last_seq,
            records_replayed,
            ops_replayed,
            truncated_bytes: truncated,
            torn: decoded.torn,
        };
        let store = Self {
            storage,
            schema,
            cfg,
            epoch: manifest.epoch,
            tail: Tail {
                wal_len: decoded.valid_len,
                next_seq: last_seq + 1,
                unsynced_records: 0,
                records_since_checkpoint: records_replayed,
            },
            snapshot_len: snap_bytes.len() as u64,
            poisoned: None,
            frame_buf: Vec::new(),
            stats: WalStats::default(),
        };
        // Recovery is exactly the moment a flight recorder exists for:
        // leave what was found in the ring, and dump it if a dump path
        // is configured.
        if obs::flight_enabled() {
            obs::flight::flight_record(
                "wal.recovery",
                format!(
                    "epoch {} recovered to seq {}: {} record(s) / {} op(s) replayed, {} byte(s) truncated{}",
                    report.epoch,
                    report.last_seq,
                    report.records_replayed,
                    report.ops_replayed,
                    report.truncated_bytes,
                    report
                        .torn
                        .as_deref()
                        .map(|t| format!(" (torn: {t})"))
                        .unwrap_or_default(),
                ),
                None,
            );
            if let Some(path) = obs::flight::dump_env_path() {
                let _ = obs::flight::dump_flight_to(&path);
            }
        }
        Ok((store, instance, view, report))
    }

    /// Log one applied unit's delta ops — a whole program, in the `sql`
    /// planner's durable driver — as one WAL record, then take the
    /// automatic checkpoint if it is due ([`WalConfig::snapshot_every`])
    /// from `db`, which must already reflect the unit (a [`DatabaseView`]
    /// maintained through it does). Returns the record's sequence number;
    /// an empty unit logs nothing and returns the last one. Durability
    /// follows the [`WalConfig::group_commit`] policy; call [`Self::sync`]
    /// to force it.
    ///
    /// All or nothing on disk: a record over the decoder's size cap is
    /// refused with [`WalError::RecordTooLarge`] before any byte is
    /// written, and a record whose append, sync or checkpoint fails is cut
    /// back off the WAL before the error returns (or the store is
    /// poisoned). On `Err` the caller undoes the unit in memory, so
    /// in-memory state stays equal to durable state.
    pub fn commit(&mut self, ops: &[DeltaOp], db: &Database) -> WalResult<u64> {
        let before = self.tail;
        let seq = self.append(ops)?;
        if self.should_checkpoint() {
            if let Err(e) = self.checkpoint_db(db) {
                return Err(self.cut_back(before, e));
            }
        }
        Ok(seq)
    }

    /// Append `ops` as one record, synced under the group-commit policy;
    /// a failed append or sync is cut back before the error returns.
    fn append(&mut self, ops: &[DeltaOp]) -> WalResult<u64> {
        self.usable()?;
        if ops.is_empty() {
            return Ok(self.last_seq());
        }
        check_payload_len(payload_len(ops))?;
        let before = self.tail;
        let seq = before.next_seq;
        self.frame_buf.clear();
        let n = encode_record(seq, ops, &mut self.frame_buf);
        let frame = std::mem::take(&mut self.frame_buf);
        let appended = self.storage.append(&self.wal_file(), &frame);
        self.frame_buf = frame;
        let sync_now = before.unsynced_records + 1 >= self.cfg.group_commit.max(1);
        if let Err(e) = appended.and_then(|()| if sync_now { self.fsync() } else { Ok(()) }) {
            return Err(self.cut_back(before, e));
        }
        self.tail = Tail {
            wal_len: before.wal_len + n as u64,
            next_seq: seq + 1,
            unsynced_records: if sync_now {
                0
            } else {
                before.unsynced_records + 1
            },
            records_since_checkpoint: before.records_since_checkpoint + 1,
        };
        C_RECORDS_APPENDED.incr();
        C_BYTES_APPENDED.add(n as u64);
        H_RECORD_BYTES.record(n as u64);
        self.stats.records += 1;
        self.stats.bytes += n as u64;
        Ok(seq)
    }

    /// Force the WAL durable up to the last committed record.
    pub fn sync(&mut self) -> WalResult<()> {
        self.usable()?;
        if self.tail.unsynced_records > 0 {
            self.fsync()?;
            self.tail.unsynced_records = 0;
        }
        Ok(())
    }

    /// One timed fsync barrier of the live WAL — one clock read per
    /// barrier, noise next to the barrier itself, and it prices the
    /// dominant durability cost.
    fn fsync(&mut self) -> WalResult<()> {
        let t0 = std::time::Instant::now();
        self.storage.sync(&self.wal_file())?;
        let ns = t0.elapsed().as_nanos() as u64;
        C_SYNCS.incr();
        H_SYNC_NS.record(ns);
        self.stats.syncs += 1;
        self.stats.sync_ns += ns;
        Ok(())
    }

    /// The poison a failed cut-back left, if any.
    fn usable(&self) -> WalResult<()> {
        self.poisoned.clone().map_or(Ok(()), Err)
    }

    /// Undo a failed commit on disk: truncate the live WAL back to
    /// `before` and restore the counters with it. When the truncation
    /// fails too, the partial record may still be on disk, so the store
    /// is poisoned with `err`. Returns `err`.
    fn cut_back(&mut self, before: Tail, err: WalError) -> WalError {
        match self.storage.truncate(&self.wal_file(), before.wal_len) {
            Ok(()) => self.tail = before,
            Err(_) => self.poisoned = Some(err.clone()),
        }
        err
    }

    /// Is an automatic checkpoint due? Only [`Self::commit`] asks: the one
    /// place automatic checkpoints are taken. Either trigger
    /// bounds replay: `snapshot_every` records, or as many WAL bytes as
    /// the live snapshot has.
    fn should_checkpoint(&self) -> bool {
        self.cfg.snapshot_every > 0
            && (self.tail.records_since_checkpoint >= self.cfg.snapshot_every
                || self.tail.wal_len >= self.snapshot_len)
    }

    /// Checkpoint from an already-maintained database (no rebuild): write
    /// the next epoch's snapshot, swing the manifest, drop the previous
    /// epoch's files. `db` must reflect every committed record — which a
    /// [`DatabaseView`] maintained through the same commits does.
    ///
    /// An `Err` means the manifest did not swing: the live epoch and its
    /// WAL are as they were. Removing the superseded files is best
    /// effort, since recovery ignores them.
    pub fn checkpoint_db(&mut self, db: &Database) -> WalResult<()> {
        self.sync()?;
        let old = Manifest {
            epoch: self.epoch,
            last_seq: 0, // only the file names matter below
            schema_digest: 0,
        };
        let manifest = Manifest {
            epoch: self.epoch + 1,
            last_seq: self.last_seq(),
            schema_digest: schema_digest(&self.schema),
        };
        let snap = encode_snapshot(db, manifest.epoch, manifest.last_seq);
        C_SNAPSHOT_BYTES.add(snap.len() as u64);
        self.storage
            .write_atomic(&manifest.snapshot_file(), &snap)?;
        // The commit point: after this atomic swing, recovery uses the
        // new epoch; before it, the old one. Either way every needed file
        // exists.
        self.storage
            .write_atomic(MANIFEST_FILE, &manifest.encode())?;
        self.epoch = manifest.epoch;
        self.snapshot_len = snap.len() as u64;
        self.tail.wal_len = 0;
        self.tail.records_since_checkpoint = 0;
        self.tail.unsynced_records = 0;
        C_CHECKPOINTS.incr();
        self.stats.checkpoints += 1;
        let _ = self.storage.remove(&old.snapshot_file());
        let _ = self.storage.remove(&old.wal_file());
        Ok(())
    }

    /// Checkpoint from the instance (costs one `O(N + E)` conversion).
    pub fn checkpoint(&mut self, instance: &Instance) -> WalResult<()> {
        self.checkpoint_db(&Database::from_instance(instance))
    }

    /// Last committed transaction sequence number (0 = none yet).
    pub fn last_seq(&self) -> u64 {
        self.tail.next_seq - 1
    }

    /// Live checkpoint epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Cumulative per-store I/O accounting since `create`/`open`.
    /// Profilers diff this around a stage to attribute WAL cost.
    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// The live epoch's WAL file name.
    pub fn wal_file(&self) -> String {
        Manifest {
            epoch: self.epoch,
            last_seq: 0,
            schema_digest: 0,
        }
        .wal_file()
    }

    /// The underlying storage (for inspection).
    pub fn storage(&self) -> &S {
        &self.storage
    }

    /// Take the storage back (the crash harness reopens it as wreckage).
    pub fn into_storage(self) -> S {
        self.storage
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::FaultStorage;
    use receivers_objectbase::examples::{beer_schema, figure2, BeerSchema, Fig2Objects};
    use receivers_objectbase::{undo_ops, Edge, InstanceTxn, Oid, PropId, RedoFault};

    /// Run `edit` as one unit: one transaction observed by `view`, its
    /// log handed to [`DurableStore::commit`] with the view's database,
    /// undone in memory when the commit fails — the way the program stage
    /// loop drives a store.
    fn unit<S: WalStorage>(
        instance: &mut Instance,
        view: &mut DatabaseView,
        store: &mut DurableStore<S>,
        edit: impl FnOnce(&mut InstanceTxn<'_>),
    ) -> WalResult<()> {
        let mut log = Vec::new();
        let mut txn = InstanceTxn::begin_observed(instance, view);
        edit(&mut txn);
        txn.commit_into(&mut log);
        let res = store.commit(&log, view.database()).map(drop);
        if res.is_err() {
            undo_ops(instance, view, &log);
        }
        res
    }

    /// Run two committed units against `(instance, view, store)`; returns
    /// the edge that got added.
    fn two_txns(
        s: &BeerSchema,
        o: &Fig2Objects,
        instance: &mut Instance,
        view: &mut DatabaseView,
        store: &mut DurableStore<FaultStorage>,
    ) -> Edge {
        let added = Edge::new(o.d1, s.frequents, o.bar3);
        unit(instance, view, store, |txn| {
            txn.remove_edge(&Edge::new(o.d1, s.frequents, o.bar1));
        })
        .unwrap();
        unit(instance, view, store, |txn| {
            txn.add_edge(added).unwrap();
        })
        .unwrap();
        added
    }

    fn fresh_store(
        storage: FaultStorage,
        s: &BeerSchema,
        cfg: WalConfig,
        i: &Instance,
    ) -> DurableStore<FaultStorage> {
        DurableStore::create(storage, Arc::clone(&s.schema), cfg, i).unwrap()
    }

    #[test]
    fn create_commit_reopen_round_trips_bit_identically() {
        let s = beer_schema();
        let (mut i, o) = figure2(&s);
        let mut store = fresh_store(FaultStorage::new(), &s, WalConfig::default(), &i);
        let mut view = DatabaseView::new(&i);
        two_txns(&s, &o, &mut i, &mut view, &mut store);
        assert_eq!(store.last_seq(), 2);

        let storage = store.into_storage().reopen();
        let (store2, ri, rview, report) =
            DurableStore::open(storage, Arc::clone(&s.schema), WalConfig::default()).unwrap();
        assert_eq!(ri, i);
        assert_eq!(rview.database(), view.database());
        assert!(rview.matches_rebuild(&ri));
        assert_eq!(report.records_replayed, 2);
        assert_eq!(report.last_seq, 2);
        assert_eq!(report.torn, None);
        assert_eq!(store2.last_seq(), 2);
    }

    #[test]
    fn empty_commits_are_not_logged() {
        let s = beer_schema();
        let (i, _) = figure2(&s);
        let mut store = fresh_store(FaultStorage::new(), &s, WalConfig::default(), &i);
        assert_eq!(store.commit(&[], &Database::from_instance(&i)), Ok(0));
        assert_eq!(store.last_seq(), 0);
        assert_eq!(store.storage().len(&store.wal_file()), 0);
    }

    #[test]
    fn torn_append_is_truncated_on_recovery() {
        let s = beer_schema();
        let (mut i, o) = figure2(&s);
        // Golden pass to learn byte marks.
        let mut store = fresh_store(FaultStorage::new(), &s, WalConfig::default(), &i);
        let after_create = store.storage().total_cost();
        let mut view = DatabaseView::new(&i);
        let after_first = {
            unit(&mut i, &mut view, &mut store, |txn| {
                txn.remove_edge(&Edge::new(o.d1, s.frequents, o.bar1));
            })
            .unwrap();
            store.storage().total_cost()
        };
        let mut want = i.clone();
        unit(&mut i, &mut view, &mut store, |txn| {
            txn.add_edge(Edge::new(o.d1, s.frequents, o.bar3)).unwrap();
        })
        .unwrap();
        let full = store.storage().total_cost();
        // Crash mid-second-record: every budget strictly between the two
        // record boundaries fails the second unit, undoes it in memory,
        // and recovers exactly the first unit's state.
        for budget in after_first + 1..full {
            let (mut ci, _) = figure2(&s);
            let mut cs = fresh_store(
                FaultStorage::with_budget(budget),
                &s,
                WalConfig::default(),
                &ci,
            );
            assert_eq!(cs.storage().total_cost(), after_create);
            let mut cv = DatabaseView::new(&ci);
            unit(&mut ci, &mut cv, &mut cs, |txn| {
                txn.remove_edge(&Edge::new(o.d1, s.frequents, o.bar1));
            })
            .unwrap_or_else(|e| panic!("first record fits budget {budget}: {e}"));
            let err = unit(&mut ci, &mut cv, &mut cs, |txn| {
                txn.add_edge(Edge::new(o.d1, s.frequents, o.bar3)).unwrap();
            });
            assert_eq!(err, Err(WalError::Crashed));
            assert_eq!(ci, want, "the failed unit is undone in memory");
            assert!(cv.matches_rebuild(&ci));

            let storage = cs.into_storage().reopen();
            let (_, ri, rview, report) =
                DurableStore::open(storage, Arc::clone(&s.schema), WalConfig::default()).unwrap();
            assert_eq!(report.last_seq, 1, "budget {budget}");
            assert!(report.truncated_bytes > 0);
            assert!(report.torn.is_some());
            assert_eq!(ri, want);
            assert!(rview.matches_rebuild(&ri));
        }
        want.add_edge(Edge::new(o.d1, s.frequents, o.bar3)).unwrap();
        assert_eq!(i, want);
    }

    #[test]
    fn group_commit_loses_only_the_unsynced_tail() {
        let s = beer_schema();
        let (mut i, o) = figure2(&s);
        let cfg = WalConfig {
            group_commit: 8, // neither commit reaches the sync threshold
            snapshot_every: 0,
        };
        let mut store = fresh_store(FaultStorage::new(), &s, cfg, &i);
        let mut view = DatabaseView::new(&i);
        two_txns(&s, &o, &mut i, &mut view, &mut store);
        let wal = store.wal_file();
        assert_eq!(store.storage().synced_len(&wal), 0);
        // Page cache lost: both records vanish; recovery = the snapshot.
        let storage = store.into_storage().reopen_dropping_unsynced();
        let (_, ri, _, report) = DurableStore::open(storage, Arc::clone(&s.schema), cfg).unwrap();
        assert_eq!(report.last_seq, 0);
        assert_eq!(ri, figure2(&s).0);
    }

    #[test]
    fn checkpoint_compacts_and_recovery_resumes_after_it() {
        let s = beer_schema();
        let (mut i, o) = figure2(&s);
        let mut store = fresh_store(FaultStorage::new(), &s, WalConfig::default(), &i);
        let mut view = DatabaseView::new(&i);
        two_txns(&s, &o, &mut i, &mut view, &mut store);
        store.checkpoint_db(view.database()).unwrap();
        assert_eq!(store.epoch(), 2);
        // One more committed record after the checkpoint.
        unit(&mut i, &mut view, &mut store, |txn| {
            txn.remove_edge(&Edge::new(o.d1, s.frequents, o.bar2));
        })
        .unwrap();

        let files = store.storage().list().unwrap();
        assert!(
            !files.iter().any(|f| f.contains("0000000000000001")),
            "epoch-1 files were compacted away: {files:?}"
        );
        let storage = store.into_storage().reopen();
        let (_, ri, rview, report) =
            DurableStore::open(storage, Arc::clone(&s.schema), WalConfig::default()).unwrap();
        assert_eq!(report.epoch, 2);
        assert_eq!(report.last_seq, 3);
        assert_eq!(
            report.records_replayed, 1,
            "pre-checkpoint records are folded"
        );
        assert_eq!(ri, i);
        assert!(rview.matches_rebuild(&ri));
    }

    /// A unit whose append fails writes nothing: the torn half-record is
    /// cut back off the WAL, the unit is undone in memory, recovery equals
    /// the pre-unit state, and the store stays usable.
    #[test]
    fn failed_append_writes_nothing_and_the_store_stays_usable() {
        let s = beer_schema();
        let (mut i, o) = figure2(&s);
        let mut store = fresh_store(
            FaultStorage::new().fail_nth_append(2),
            &s,
            WalConfig::default(),
            &i,
        );
        let mut view = DatabaseView::new(&i);
        unit(&mut i, &mut view, &mut store, |txn| {
            txn.remove_edge(&Edge::new(o.d1, s.frequents, o.bar1));
        })
        .unwrap();
        let pre_unit = i.clone();
        let wal = store.wal_file();
        let wal_len = store.storage().len(&wal);
        let err = unit(&mut i, &mut view, &mut store, |txn| {
            txn.remove_object_cascade(o.bar2);
        });
        assert!(matches!(err, Err(WalError::Io(_))), "{err:?}");
        assert_eq!(i, pre_unit);
        assert!(view.matches_rebuild(&i));
        assert_eq!(
            store.storage().len(&wal),
            wal_len,
            "the torn record is cut back"
        );
        assert_eq!(store.last_seq(), 1);
        let (_, ri, _, report) = DurableStore::open(
            store.storage().clone().reopen(),
            Arc::clone(&s.schema),
            WalConfig::default(),
        )
        .unwrap();
        assert_eq!((report.last_seq, report.torn), (1, None));
        assert_eq!(ri, pre_unit);

        // The same unit again applies, as sequence number 2.
        unit(&mut i, &mut view, &mut store, |txn| {
            txn.remove_object_cascade(o.bar2);
        })
        .unwrap();
        let (_, ri, rview, report) = DurableStore::open(
            store.into_storage().reopen(),
            Arc::clone(&s.schema),
            WalConfig::default(),
        )
        .unwrap();
        assert_eq!(report.last_seq, 2);
        assert_eq!(ri, i);
        assert!(rview.matches_rebuild(&ri));
    }

    /// A failed fsync is a failed unit too: the record is cut back even
    /// though its append went through.
    #[test]
    fn failed_sync_cuts_the_record_back() {
        let s = beer_schema();
        let (mut i, o) = figure2(&s);
        let i0 = i.clone();
        let mut store = fresh_store(
            FaultStorage::new().fail_nth_sync(1),
            &s,
            WalConfig::default(),
            &i,
        );
        let mut view = DatabaseView::new(&i);
        let err = unit(&mut i, &mut view, &mut store, |txn| {
            txn.remove_edge(&Edge::new(o.d1, s.frequents, o.bar1));
        });
        assert!(matches!(err, Err(WalError::Io(_))), "{err:?}");
        assert_eq!(i, i0);
        assert_eq!(store.last_seq(), 0);
        assert_eq!(store.storage().len(&store.wal_file()), 0);
        assert_eq!(store.stats().syncs, 0, "a failed sync is not counted");
        let (_, ri, _, _) = DurableStore::open(
            store.into_storage().reopen(),
            Arc::clone(&s.schema),
            WalConfig::default(),
        )
        .unwrap();
        assert_eq!(ri, i0);
    }

    /// The store takes the automatic checkpoint itself, at the end of the
    /// commit that crosses `snapshot_every`, from the database it is
    /// handed, as it stands at that moment.
    #[test]
    fn commit_checkpoints_at_the_commit_that_crosses_the_threshold() {
        let s = beer_schema();
        let (mut i, o) = figure2(&s);
        let cfg = WalConfig {
            group_commit: 1,
            snapshot_every: 2,
        };
        let mut store = fresh_store(FaultStorage::new(), &s, cfg, &i);
        let mut view = DatabaseView::new(&i);
        unit(&mut i, &mut view, &mut store, |txn| {
            txn.remove_edge(&Edge::new(o.d1, s.frequents, o.bar1));
        })
        .unwrap();
        assert_eq!(store.epoch(), 1, "one record is below the threshold");
        unit(&mut i, &mut view, &mut store, |txn| {
            txn.add_edge(Edge::new(o.d1, s.frequents, o.bar3)).unwrap();
        })
        .unwrap();
        assert_eq!(store.epoch(), 2, "the second commit crosses it");
        assert_eq!(store.stats().checkpoints, 1);
        let at_checkpoint = view.database().clone();
        // A later commit must not leak into the snapshot already taken.
        unit(&mut i, &mut view, &mut store, |txn| {
            txn.remove_edge(&Edge::new(o.d1, s.frequents, o.bar2));
        })
        .unwrap();
        assert_eq!(store.epoch(), 2, "one record past the checkpoint");

        let manifest_bytes = store.storage().read(MANIFEST_FILE).unwrap().unwrap();
        let manifest = Manifest::decode(&manifest_bytes).unwrap();
        assert_eq!((manifest.epoch, manifest.last_seq), (2, 2));
        let snap = store
            .storage()
            .read(&manifest.snapshot_file())
            .unwrap()
            .unwrap();
        let (decoded, header) = decode_snapshot(&snap, &s.schema).unwrap();
        assert_eq!(header.last_seq, 2);
        assert_eq!(Database::from_instance(&decoded), at_checkpoint);
        assert_ne!(at_checkpoint, *view.database());
    }

    /// The byte trigger: one record as large as the live snapshot is a
    /// checkpoint even far below `snapshot_every` records, so replay never
    /// reads more than about one snapshot's worth of WAL.
    #[test]
    fn a_record_as_large_as_the_snapshot_checkpoints() {
        let s = beer_schema();
        let (mut i, _) = figure2(&s);
        let cfg = WalConfig {
            group_commit: 1,
            snapshot_every: 1_000,
        };
        let mut store = fresh_store(FaultStorage::new(), &s, cfg, &i);
        let snapshot = store.snapshot_len;
        let mut view = DatabaseView::new(&i);
        // Fresh bars until one record outweighs the snapshot.
        let mut fresh = 0u64;
        unit(&mut i, &mut view, &mut store, |txn| {
            while PAYLOAD_BYTES_PER_NODE * fresh < snapshot {
                txn.fresh_object(s.bar);
                fresh += 1;
            }
        })
        .unwrap();
        assert_eq!(store.epoch(), 2, "the byte trigger fired");
        assert_eq!(store.tail.wal_len, 0);
        unit(&mut i, &mut view, &mut store, |txn| {
            txn.fresh_object(s.bar);
        })
        .unwrap();
        assert_eq!(store.epoch(), 2, "a small record stays below it");
        let (_, ri, _, report) =
            DurableStore::open(store.into_storage().reopen(), Arc::clone(&s.schema), cfg).unwrap();
        assert_eq!((report.epoch, report.records_replayed), (2, 1));
        assert_eq!(ri, i);
    }

    /// `snapshot_every: 0` disables the byte trigger along with the
    /// record trigger.
    #[test]
    fn snapshot_every_zero_disables_both_triggers() {
        let s = beer_schema();
        let (mut i, _) = figure2(&s);
        let mut store = fresh_store(FaultStorage::new(), &s, WalConfig::default(), &i);
        let snapshot = store.snapshot_len;
        let mut view = DatabaseView::new(&i);
        unit(&mut i, &mut view, &mut store, |txn| {
            for _ in 0..=snapshot / PAYLOAD_BYTES_PER_NODE {
                txn.fresh_object(s.bar);
            }
        })
        .unwrap();
        assert!(store.tail.wal_len >= snapshot);
        assert_eq!(store.epoch(), 1);
    }

    /// Encoded bytes of one `AddedNode` op.
    const PAYLOAD_BYTES_PER_NODE: u64 = crate::record::MIN_OP_BYTES as u64;

    /// A checkpoint that fails before its manifest swing fails the unit
    /// that triggered it: the unit's record is cut back with it, and the
    /// store stays usable.
    #[test]
    fn failed_checkpoint_cuts_the_unit_back() {
        let s = beer_schema();
        let (mut i, o) = figure2(&s);
        let i0 = i.clone();
        // Group commit holds the record back, so the checkpoint's own
        // WAL sync is the first sync, and the one that fails.
        let cfg = WalConfig {
            group_commit: 2,
            snapshot_every: 1,
        };
        let mut store = fresh_store(FaultStorage::new().fail_nth_sync(1), &s, cfg, &i);
        let mut view = DatabaseView::new(&i);
        let edit = |txn: &mut InstanceTxn<'_>| {
            txn.remove_edge(&Edge::new(o.d1, s.frequents, o.bar1));
        };
        let err = unit(&mut i, &mut view, &mut store, edit);
        assert!(matches!(err, Err(WalError::Io(_))), "{err:?}");
        assert_eq!(i, i0);
        assert_eq!(store.epoch(), 1, "the manifest never swung");
        assert_eq!(store.last_seq(), 0);
        assert_eq!(store.storage().len(&store.wal_file()), 0);

        unit(&mut i, &mut view, &mut store, edit).unwrap();
        assert_eq!(store.epoch(), 2);
        let (_, ri, rview, report) =
            DurableStore::open(store.into_storage().reopen(), Arc::clone(&s.schema), cfg).unwrap();
        assert_eq!(report.last_seq, 1);
        assert_eq!(ri, i);
        assert!(rview.matches_rebuild(&ri));
    }

    /// Storage whose appends tear (through an armed [`FaultStorage`]) and
    /// whose truncations always fail: the cut-back of a failed commit
    /// cannot happen.
    struct NoCutBack(FaultStorage);

    impl WalStorage for NoCutBack {
        fn read(&self, name: &str) -> WalResult<Option<Vec<u8>>> {
            self.0.read(name)
        }
        fn append(&mut self, name: &str, bytes: &[u8]) -> WalResult<()> {
            self.0.append(name, bytes)
        }
        fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> WalResult<()> {
            self.0.write_atomic(name, bytes)
        }
        fn sync(&mut self, name: &str) -> WalResult<()> {
            self.0.sync(name)
        }
        fn truncate(&mut self, name: &str, _: u64) -> WalResult<()> {
            Err(WalError::Io(format!("truncation of {name}")))
        }
        fn remove(&mut self, name: &str) -> WalResult<()> {
            self.0.remove(name)
        }
        fn list(&self) -> WalResult<Vec<String>> {
            self.0.list()
        }
    }

    /// A failed commit that cannot be cut back poisons the store: every
    /// later write returns the original error, though the storage itself
    /// would accept it, until the store is reopened.
    #[test]
    fn a_failed_cut_back_poisons_the_store() {
        let s = beer_schema();
        let (i, o) = figure2(&s);
        let mut store = DurableStore::create(
            NoCutBack(FaultStorage::new().fail_nth_append(1)),
            Arc::clone(&s.schema),
            WalConfig::default(),
            &i,
        )
        .unwrap();
        let op = DeltaOp::RemovedEdge(Edge::new(o.d1, s.frequents, o.bar1));
        let db = Database::from_instance(&i);
        let err = store.commit(&[op], &db).unwrap_err();
        assert!(matches!(err, WalError::Io(_)), "{err:?}");
        assert_eq!(store.commit(&[op], &db), Err(err.clone()));
        assert_eq!(store.sync(), Err(err.clone()));
        assert_eq!(store.checkpoint(&i), Err(err));
        // Reopening reads the torn half-record as a torn tail.
        let (_, ri, _, report) = DurableStore::open(
            store.into_storage().0.reopen(),
            Arc::clone(&s.schema),
            WalConfig::default(),
        )
        .unwrap();
        assert_eq!(report.last_seq, 0);
        assert!(report.truncated_bytes > 0);
        assert_eq!(ri, i);
    }

    /// A unit whose transaction rolls back has nothing in its log, and
    /// committing it writes no record.
    #[test]
    fn txn_rollback_logs_nothing() {
        let s = beer_schema();
        let (mut i, o) = figure2(&s);
        let mut store = fresh_store(FaultStorage::new(), &s, WalConfig::default(), &i);
        let mut view = DatabaseView::new(&i);
        let log = Vec::new();
        let mut txn = InstanceTxn::begin_observed(&mut i, &mut view);
        txn.remove_object_cascade(o.bar1);
        txn.rollback();
        assert_eq!(store.commit(&log, view.database()), Ok(0));
        assert!(view.matches_rebuild(&i));
        assert_eq!(store.last_seq(), 0);
        assert_eq!(store.storage().len(&store.wal_file()), 0);
    }
    #[test]
    fn create_refuses_to_clobber_and_open_requires_a_store() {
        let s = beer_schema();
        let (i, _) = figure2(&s);
        assert_eq!(
            DurableStore::open(
                FaultStorage::new(),
                Arc::clone(&s.schema),
                WalConfig::default()
            )
            .err(),
            Some(WalError::NotFound)
        );
        let store = DurableStore::create(
            FaultStorage::new(),
            Arc::clone(&s.schema),
            WalConfig::default(),
            &i,
        )
        .unwrap();
        assert_eq!(
            DurableStore::create(
                store.into_storage(),
                Arc::clone(&s.schema),
                WalConfig::default(),
                &i,
            )
            .err()
            .map(|e| matches!(e, WalError::AlreadyExists)),
            Some(true)
        );
    }

    #[test]
    fn bit_flip_in_the_wal_truncates_at_the_corrupt_record() {
        let s = beer_schema();
        let (mut i, o) = figure2(&s);
        let mut store = DurableStore::create(
            FaultStorage::new(),
            Arc::clone(&s.schema),
            WalConfig::default(),
            &i,
        )
        .unwrap();
        let mut view = DatabaseView::new(&i);
        two_txns(&s, &o, &mut i, &mut view, &mut store);
        let wal = store.wal_file();
        let wal_len = store.storage().len(&wal);
        for byte in 0..wal_len {
            let mut storage = store.storage().clone().reopen();
            storage.flip_bit(&wal, byte, byte as u8 % 8);
            let (_, ri, rview, report) =
                DurableStore::open(storage, Arc::clone(&s.schema), WalConfig::default()).unwrap();
            assert!(report.last_seq <= 2, "byte {byte}");
            assert!(report.torn.is_some(), "byte {byte}: flip must be caught");
            // Whatever prefix survived must be a committed state.
            let mut want = figure2(&s).0;
            if report.last_seq >= 1 {
                want.remove_edge(&Edge::new(o.d1, s.frequents, o.bar1));
            }
            if report.last_seq >= 2 {
                want.add_edge(Edge::new(o.d1, s.frequents, o.bar3)).unwrap();
            }
            assert_eq!(ri, want, "byte {byte}");
            assert!(rview.matches_rebuild(&ri));
        }
    }

    /// Storage that serves `inner`'s files but fails every mutation, so a
    /// recovery that touches a file cannot come back with anything but
    /// an I/O error.
    struct ReadOnly(FaultStorage);

    impl WalStorage for ReadOnly {
        fn read(&self, name: &str) -> WalResult<Option<Vec<u8>>> {
            self.0.read(name)
        }
        fn append(&mut self, name: &str, _: &[u8]) -> WalResult<()> {
            Err(WalError::Io(format!("append to {name}")))
        }
        fn write_atomic(&mut self, name: &str, _: &[u8]) -> WalResult<()> {
            Err(WalError::Io(format!("write to {name}")))
        }
        fn sync(&mut self, name: &str) -> WalResult<()> {
            Err(WalError::Io(format!("sync of {name}")))
        }
        fn truncate(&mut self, name: &str, _: u64) -> WalResult<()> {
            Err(WalError::Io(format!("truncation of {name}")))
        }
        fn remove(&mut self, name: &str) -> WalResult<()> {
            Err(WalError::Io(format!("removal of {name}")))
        }
        fn list(&self) -> WalResult<Vec<String>> {
            self.0.list()
        }
    }

    /// A store over Figure 2 whose WAL holds one checksum-valid record of
    /// `op`, which does not apply: recovery must refuse it as
    /// `BadRecord` naming `fault`, without touching a file.
    fn assert_open_refuses(
        op: impl FnOnce(&BeerSchema, &Fig2Objects) -> DeltaOp,
        fault: RedoFault,
    ) {
        let s = beer_schema();
        let (i, o) = figure2(&s);
        let store = DurableStore::create(
            FaultStorage::new(),
            Arc::clone(&s.schema),
            WalConfig::default(),
            &i,
        )
        .unwrap();
        let wal = store.wal_file();
        let mut storage = store.into_storage();
        let mut frame = Vec::new();
        encode_record(1, &[op(&s, &o)], &mut frame);
        storage.append(&wal, &frame).unwrap();
        storage.sync(&wal).unwrap();
        let err = DurableStore::open(
            ReadOnly(storage),
            Arc::clone(&s.schema),
            WalConfig::default(),
        )
        .err();
        match err {
            Some(WalError::BadRecord { seq: 1, reason }) => {
                assert!(reason.contains(&fault.to_string()), "{reason}")
            }
            other => panic!("expected BadRecord for seq 1, got {other:?}"),
        }
    }

    #[test]
    fn replay_refuses_re_adding_a_present_edge() {
        assert_open_refuses(
            |s, o| DeltaOp::AddedEdge(Edge::new(o.d1, s.frequents, o.bar1)),
            RedoFault::Ineffective,
        );
    }

    #[test]
    fn replay_refuses_an_unknown_property() {
        assert_open_refuses(
            |_, o| DeltaOp::AddedEdge(Edge::new(o.d1, PropId(99), o.bar3)),
            RedoFault::UnknownLabel,
        );
    }

    #[test]
    fn replay_refuses_an_ill_typed_edge() {
        assert_open_refuses(
            |s, o| DeltaOp::AddedEdge(Edge::new(o.bar3, s.frequents, o.d1)),
            RedoFault::IllTyped,
        );
    }

    #[test]
    fn replay_refuses_removing_an_absent_node() {
        assert_open_refuses(
            |s, _| DeltaOp::RemovedNode(Oid::new(s.bar, 99)),
            RedoFault::Ineffective,
        );
    }

    #[test]
    fn replay_refuses_an_edge_to_a_missing_node() {
        assert_open_refuses(
            |s, o| DeltaOp::AddedEdge(Edge::new(o.d1, s.frequents, Oid::new(s.bar, 99))),
            RedoFault::DanglingEndpoint,
        );
    }

    #[test]
    fn replay_refuses_removing_a_node_that_still_has_edges() {
        assert_open_refuses(|_, o| DeltaOp::RemovedNode(o.bar1), RedoFault::NodeHasEdges);
    }
}
