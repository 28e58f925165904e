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
//! and cleaned up by the next successful one). Automatic checkpoints have
//! one rule and one owner, [`DurableSink`]: checkpoint at the commit that
//! crosses [`WalConfig::snapshot_every`]. Recovery is
//! manifest → snapshot → replay the WAL tail through
//! [`redo_ops`] into the instance alone, then rebuild the
//! [`DatabaseView`] once, truncating at the first torn or corrupt
//! record.

use std::sync::Arc;

use receivers_objectbase::{redo_ops, DeltaObserver, DeltaOp, Instance, NullObserver, Schema};
use receivers_obs as obs;
use receivers_relalg::{Database, DatabaseView, ViewObserver};

use crate::error::{WalError, WalResult};
use crate::record::{decode_log, encode_record, invert_op};
use crate::snapshot::{decode_snapshot, encode_snapshot, schema_digest, Manifest};
use crate::storage::WalStorage;

obs::counter!(C_RECORDS_APPENDED, "wal.records_appended");
obs::counter!(C_BYTES_APPENDED, "wal.bytes_appended");
obs::counter!(C_SYNCS, "wal.syncs");
obs::counter!(C_CHECKPOINTS, "wal.checkpoints");
obs::counter!(C_SNAPSHOT_BYTES, "wal.snapshot_bytes");
obs::counter!(C_COMPENSATION_RECORDS, "wal.compensation_records");
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
    /// Take a compacting checkpoint every `snapshot_every` committed
    /// records — [`DurableSink`] takes it at the end of the commit that
    /// crosses the threshold; 0 disables automatic checkpoints (callers
    /// may still checkpoint manually).
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
    next_seq: u64,
    unsynced_records: usize,
    records_since_checkpoint: u64,
    frame_buf: Vec<u8>,
    stats: WalStats,
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
            next_seq: 1,
            unsynced_records: 0,
            records_since_checkpoint: 0,
            frame_buf: Vec::new(),
            stats: WalStats::default(),
        })
    }

    /// Recover a store: manifest → snapshot → WAL-tail replay into a
    /// fresh [`Instance`], then one [`DatabaseView`] rebuild at the end
    /// (bit-identical to maintaining the view through every record, at a
    /// fraction of the cost), truncating a torn or corrupt tail. Total
    /// over arbitrary storage contents — corruption surfaces as a
    /// structured error or a truncated tail, never a panic.
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
            redo_ops(&mut instance, &mut NullObserver, &record.ops);
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
            next_seq: last_seq + 1,
            unsynced_records: 0,
            records_since_checkpoint: records_replayed,
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

    /// Append one committed transaction's delta batch as a WAL record.
    /// Returns the record's sequence number (empty batches are a no-op
    /// returning the last sequence number). Durability follows the
    /// [`WalConfig::group_commit`] policy; call [`Self::sync`] to force it.
    pub fn commit(&mut self, ops: &[DeltaOp]) -> WalResult<u64> {
        if ops.is_empty() {
            return Ok(self.last_seq());
        }
        let seq = self.next_seq;
        self.frame_buf.clear();
        let n = encode_record(seq, ops, &mut self.frame_buf);
        let frame = std::mem::take(&mut self.frame_buf);
        let res = self.storage.append(&self.wal_file(), &frame);
        self.frame_buf = frame;
        res?;
        self.next_seq += 1;
        self.unsynced_records += 1;
        self.records_since_checkpoint += 1;
        C_RECORDS_APPENDED.incr();
        C_BYTES_APPENDED.add(n as u64);
        H_RECORD_BYTES.record(n as u64);
        self.stats.records += 1;
        self.stats.bytes += n as u64;
        if self.unsynced_records >= self.cfg.group_commit.max(1) {
            self.sync()?;
        }
        Ok(seq)
    }

    /// Force the WAL durable up to the last committed record.
    pub fn sync(&mut self) -> WalResult<()> {
        if self.unsynced_records > 0 {
            // One clock read per fsync barrier — noise next to the
            // barrier itself, and it prices the dominant durability cost.
            let t0 = std::time::Instant::now();
            self.storage.sync(&self.wal_file())?;
            let ns = t0.elapsed().as_nanos() as u64;
            self.unsynced_records = 0;
            C_SYNCS.incr();
            H_SYNC_NS.record(ns);
            self.stats.syncs += 1;
            self.stats.sync_ns += ns;
        }
        Ok(())
    }

    /// Has the automatic-checkpoint threshold been crossed? Only
    /// [`DurableSink`] asks: the one place automatic checkpoints are taken.
    fn should_checkpoint(&self) -> bool {
        self.cfg.snapshot_every > 0 && self.records_since_checkpoint >= self.cfg.snapshot_every
    }

    /// Checkpoint from an already-maintained database (no rebuild): write
    /// the next epoch's snapshot, swing the manifest, drop the previous
    /// epoch's files. `db` must reflect every committed record — which a
    /// [`DatabaseView`] maintained through the same commits does.
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
        self.records_since_checkpoint = 0;
        self.unsynced_records = 0;
        C_CHECKPOINTS.incr();
        self.stats.checkpoints += 1;
        // Best-effort cleanup of the superseded epoch; stale files are
        // ignored by recovery if this is where a crash lands.
        self.storage.remove(&old.snapshot_file())?;
        self.storage.remove(&old.wal_file())?;
        Ok(())
    }

    /// Checkpoint from the instance (costs one `O(N + E)` conversion).
    pub fn checkpoint(&mut self, instance: &Instance) -> WalResult<()> {
        self.checkpoint_db(&Database::from_instance(instance))
    }

    /// Last committed transaction sequence number (0 = none yet).
    pub fn last_seq(&self) -> u64 {
        self.next_seq - 1
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

/// Durability as an observer: wires a transaction's delta stream into a
/// [`DurableStore`] *and* the maintained [`DatabaseView`] at once, so any
/// driver that takes a [`ViewObserver`] runs durably when handed a sink
/// instead of the bare view.
///
/// Logging happens at commit boundaries, never per op:
/// - a committed batch ([`DeltaObserver::batch_committed`]) becomes one
///   WAL record;
/// - ops undone while still uncommitted (a transaction rollback) cancel
///   against the open batch and are never logged;
/// - ops undone *after* their commit (a sequence-level rollback through
///   [`receivers_objectbase::undo_ops`]) are recorded inverted, and
///   [`DeltaObserver::batch_end`] flushes them as one compensation
///   record, synced at once whatever the group-commit phase — so forward
///   replay of the whole log always reproduces the final state,
///   rollbacks included.
///
/// The sink is also the one place automatic checkpoints are taken: at
/// every [`DeltaObserver::batch_end`], once the view has flushed, it
/// checkpoints from the view's database as soon as the store has logged
/// [`WalConfig::snapshot_every`] records since the last checkpoint —
/// that is, at the commit that crosses the threshold.
///
/// Storage failures are captured, not panicked: the first error parks in
/// the sink ([`Self::take_error`]) and later commits and checkpoints are
/// skipped, because an observer callback has no error channel of its own.
pub struct DurableSink<'a, S: WalStorage> {
    store: &'a mut DurableStore<S>,
    view: &'a mut DatabaseView,
    open_batch: Vec<DeltaOp>,
    compensation: Vec<DeltaOp>,
    error: Option<WalError>,
}

impl<'a, S: WalStorage> DurableSink<'a, S> {
    /// Wire `store` and `view` together for one or more transactions.
    pub fn new(store: &'a mut DurableStore<S>, view: &'a mut DatabaseView) -> Self {
        Self {
            store,
            view,
            open_batch: Vec::new(),
            compensation: Vec::new(),
            error: None,
        }
    }

    /// The first storage error hit while logging or checkpointing, if
    /// any. A driver must check this after the transactions it wired
    /// through the sink: on `Some`, durability is behind the in-memory
    /// state and the run must stop (recovery will restore the last
    /// durable prefix).
    pub fn take_error(&mut self) -> Option<WalError> {
        self.error.take()
    }

    /// The wrapped store, for inspection (a profiler diffs its
    /// [`DurableStore::stats`] around a stage).
    pub fn store(&self) -> &DurableStore<S> {
        self.store
    }

    fn log(&mut self, ops: &[DeltaOp], compensation: bool) {
        if self.error.is_some() || ops.is_empty() {
            return;
        }
        let mut res = self.store.commit(ops).map(drop);
        if compensation && res.is_ok() {
            C_COMPENSATION_RECORDS.incr();
            res = self.store.sync();
        }
        self.error = res.err();
    }
}

impl<S: WalStorage> DeltaObserver for DurableSink<'_, S> {
    fn applied(&mut self, op: &DeltaOp) {
        self.view.applied(op);
        self.open_batch.push(*op);
    }

    fn undone(&mut self, op: &DeltaOp) {
        self.view.undone(op);
        if self.open_batch.last() == Some(op) {
            // Rollback of a not-yet-committed op: cancels in place.
            self.open_batch.pop();
        } else {
            // Reversal of an already-logged op: must itself be logged.
            self.compensation.push(invert_op(op));
        }
    }

    fn batch_committed(&mut self, ops: &[DeltaOp]) {
        self.view.batch_committed(ops);
        self.open_batch.clear();
        self.log(ops, false);
    }

    fn batch_end(&mut self) {
        if !self.compensation.is_empty() {
            let comp = std::mem::take(&mut self.compensation);
            self.log(&comp, true);
        }
        self.open_batch.clear();
        self.view.batch_end();
        // The view now reflects every logged record: checkpoint from it.
        if self.error.is_none() && self.store.should_checkpoint() {
            self.error = self.store.checkpoint_db(self.view.database()).err();
        }
    }
}

impl<S: WalStorage> ViewObserver for DurableSink<'_, S> {
    fn database(&self) -> &Database {
        self.view.database()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::FaultStorage;
    use receivers_objectbase::examples::{beer_schema, figure2};
    use receivers_objectbase::{undo_ops, Edge, InstanceTxn};

    /// Run two committed transactions against `(instance, view, store)`
    /// through a [`DurableSink`]; returns the edge that got added.
    fn two_txns(
        s: &receivers_objectbase::examples::BeerSchema,
        o: &receivers_objectbase::examples::Fig2Objects,
        instance: &mut Instance,
        view: &mut DatabaseView,
        store: &mut DurableStore<FaultStorage>,
    ) -> Edge {
        let added = Edge::new(o.d1, s.frequents, o.bar3);
        let mut sink = DurableSink::new(store, view);
        let mut txn = InstanceTxn::begin_observed(instance, &mut sink);
        txn.remove_edge(&Edge::new(o.d1, s.frequents, o.bar1));
        txn.commit();
        assert_eq!(sink.take_error(), None);
        let mut sink = DurableSink::new(store, view);
        let mut txn = InstanceTxn::begin_observed(instance, &mut sink);
        txn.add_edge(added).unwrap();
        txn.commit();
        assert_eq!(sink.take_error(), None);
        added
    }

    #[test]
    fn create_commit_reopen_round_trips_bit_identically() {
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
        let mut store = DurableStore::create(
            FaultStorage::new(),
            Arc::clone(&s.schema),
            WalConfig::default(),
            &i,
        )
        .unwrap();
        assert_eq!(store.commit(&[]).unwrap(), 0);
        assert_eq!(store.last_seq(), 0);
        assert_eq!(store.storage().len(&store.wal_file()), 0);
    }

    #[test]
    fn torn_append_is_truncated_on_recovery() {
        let s = beer_schema();
        let (mut i, o) = figure2(&s);
        // Golden pass to learn byte marks.
        let mut store = DurableStore::create(
            FaultStorage::new(),
            Arc::clone(&s.schema),
            WalConfig::default(),
            &i,
        )
        .unwrap();
        let mut view = DatabaseView::new(&i);
        let after_create = {
            let probe = DurableStore::create(
                FaultStorage::new(),
                Arc::clone(&s.schema),
                WalConfig::default(),
                &figure2(&s).0,
            )
            .unwrap();
            probe.storage().total_cost()
        };
        two_txns(&s, &o, &mut i, &mut view, &mut store);
        let full = store.storage().total_cost();
        let after_first = {
            // Cost after the first record only.
            let (mut gi, _) = figure2(&s);
            let mut gs = DurableStore::create(
                FaultStorage::new(),
                Arc::clone(&s.schema),
                WalConfig::default(),
                &gi,
            )
            .unwrap();
            let mut gv = DatabaseView::new(&gi);
            let mut sink = DurableSink::new(&mut gs, &mut gv);
            let mut txn = InstanceTxn::begin_observed(&mut gi, &mut sink);
            txn.remove_edge(&Edge::new(o.d1, s.frequents, o.bar1));
            txn.commit();
            gs.storage().total_cost()
        };
        // Crash mid-second-record: every budget strictly between the two
        // record boundaries recovers exactly the first record's state.
        for budget in after_first + 1..full {
            let (mut ci, _) = figure2(&s);
            let mut cs = DurableStore::create(
                FaultStorage::with_budget(budget),
                Arc::clone(&s.schema),
                WalConfig::default(),
                &ci,
            )
            .unwrap();
            assert_eq!(cs.storage().total_cost(), after_create);
            let mut cv = DatabaseView::new(&ci);
            let mut sink = DurableSink::new(&mut cs, &mut cv);
            let mut txn = InstanceTxn::begin_observed(&mut ci, &mut sink);
            txn.remove_edge(&Edge::new(o.d1, s.frequents, o.bar1));
            txn.commit();
            assert_eq!(sink.take_error(), None, "first record fits budget {budget}");
            let mut sink = DurableSink::new(&mut cs, &mut cv);
            let mut txn = InstanceTxn::begin_observed(&mut ci, &mut sink);
            txn.add_edge(Edge::new(o.d1, s.frequents, o.bar3)).unwrap();
            txn.commit();
            assert_eq!(sink.take_error(), Some(WalError::Crashed));

            let storage = cs.into_storage().reopen();
            let (_, ri, rview, report) =
                DurableStore::open(storage, Arc::clone(&s.schema), WalConfig::default()).unwrap();
            assert_eq!(report.last_seq, 1, "budget {budget}");
            assert!(report.truncated_bytes > 0);
            assert!(report.torn.is_some());
            let mut want = figure2(&s).0;
            want.remove_edge(&Edge::new(o.d1, s.frequents, o.bar1));
            assert_eq!(ri, want);
            assert!(rview.matches_rebuild(&ri));
        }
    }

    #[test]
    fn group_commit_loses_only_the_unsynced_tail() {
        let s = beer_schema();
        let (mut i, o) = figure2(&s);
        let cfg = WalConfig {
            group_commit: 8, // neither commit reaches the sync threshold
            snapshot_every: 0,
        };
        let mut store =
            DurableStore::create(FaultStorage::new(), Arc::clone(&s.schema), cfg, &i).unwrap();
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
        let mut store = DurableStore::create(
            FaultStorage::new(),
            Arc::clone(&s.schema),
            WalConfig::default(),
            &i,
        )
        .unwrap();
        let mut view = DatabaseView::new(&i);
        two_txns(&s, &o, &mut i, &mut view, &mut store);
        store.checkpoint_db(view.database()).unwrap();
        assert_eq!(store.epoch(), 2);
        // One more committed record after the checkpoint.
        let mut sink = DurableSink::new(&mut store, &mut view);
        let mut txn = InstanceTxn::begin_observed(&mut i, &mut sink);
        txn.remove_edge(&Edge::new(o.d1, s.frequents, o.bar2));
        txn.commit();
        assert_eq!(sink.take_error(), None);

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

    #[test]
    fn sequence_rollback_writes_a_compensation_record() {
        let s = beer_schema();
        let (mut i, o) = figure2(&s);
        let initial = i.clone();
        let mut store = DurableStore::create(
            FaultStorage::new(),
            Arc::clone(&s.schema),
            WalConfig::default(),
            &i,
        )
        .unwrap();
        let mut view = DatabaseView::new(&i);
        let mut seq_log = Vec::new();
        let mut sink = DurableSink::new(&mut store, &mut view);
        let mut txn = InstanceTxn::begin_observed(&mut i, &mut sink);
        txn.remove_edge(&Edge::new(o.d1, s.frequents, o.bar1));
        txn.commit_into(&mut seq_log);
        let mut txn = InstanceTxn::begin_observed(&mut i, &mut sink);
        txn.add_edge(Edge::new(o.d1, s.frequents, o.bar3)).unwrap();
        txn.commit_into(&mut seq_log);
        // Sequence-level failure: roll the whole thing back through the
        // same sink, producing one compensation record.
        undo_ops(&mut i, &mut sink, &seq_log);
        assert_eq!(sink.take_error(), None);
        assert_eq!(i, initial);
        assert!(view.matches_rebuild(&i));
        assert_eq!(store.last_seq(), 3, "2 commits + 1 compensation record");

        let storage = store.into_storage().reopen();
        let (_, ri, rview, report) =
            DurableStore::open(storage, Arc::clone(&s.schema), WalConfig::default()).unwrap();
        assert_eq!(report.records_replayed, 3);
        assert_eq!(
            ri, initial,
            "replaying the full log reproduces the rollback"
        );
        assert!(rview.matches_rebuild(&ri));
    }

    /// The sink takes the automatic checkpoint itself, at the end of the
    /// commit that crosses `snapshot_every`, from the view as it stands
    /// at that moment.
    #[test]
    fn sink_checkpoints_at_the_commit_that_crosses_the_threshold() {
        let s = beer_schema();
        let (mut i, o) = figure2(&s);
        let cfg = WalConfig {
            group_commit: 1,
            snapshot_every: 2,
        };
        let mut store =
            DurableStore::create(FaultStorage::new(), Arc::clone(&s.schema), cfg, &i).unwrap();
        let mut view = DatabaseView::new(&i);
        let mut sink = DurableSink::new(&mut store, &mut view);
        let mut txn = InstanceTxn::begin_observed(&mut i, &mut sink);
        txn.remove_edge(&Edge::new(o.d1, s.frequents, o.bar1));
        txn.commit();
        assert_eq!(sink.store().epoch(), 1, "one record is below the threshold");
        let mut txn = InstanceTxn::begin_observed(&mut i, &mut sink);
        txn.add_edge(Edge::new(o.d1, s.frequents, o.bar3)).unwrap();
        txn.commit();
        assert_eq!(sink.take_error(), None);
        assert_eq!(sink.store().epoch(), 2, "the second commit crosses it");
        assert_eq!(sink.store().stats().checkpoints, 1);
        let at_checkpoint = sink.database().clone();
        // A later commit must not leak into the snapshot already taken.
        let mut txn = InstanceTxn::begin_observed(&mut i, &mut sink);
        txn.remove_edge(&Edge::new(o.d1, s.frequents, o.bar2));
        txn.commit();
        assert_eq!(sink.take_error(), None);
        assert_eq!(sink.store().epoch(), 2, "one record past the checkpoint");

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

    /// With group commit holding ordinary records back, a compensation
    /// record is still synced the moment the sink logs it.
    #[test]
    fn compensation_is_synced_under_group_commit() {
        let s = beer_schema();
        let (mut i, o) = figure2(&s);
        let initial = i.clone();
        let cfg = WalConfig {
            group_commit: 8,
            snapshot_every: 0,
        };
        let mut store =
            DurableStore::create(FaultStorage::new(), Arc::clone(&s.schema), cfg, &i).unwrap();
        let mut view = DatabaseView::new(&i);
        let mut seq_log = Vec::new();
        let mut sink = DurableSink::new(&mut store, &mut view);
        let mut txn = InstanceTxn::begin_observed(&mut i, &mut sink);
        txn.remove_edge(&Edge::new(o.d1, s.frequents, o.bar1));
        txn.commit_into(&mut seq_log);
        let mut txn = InstanceTxn::begin_observed(&mut i, &mut sink);
        txn.add_edge(Edge::new(o.d1, s.frequents, o.bar3)).unwrap();
        txn.commit_into(&mut seq_log);
        let wal = sink.store().wal_file();
        assert_eq!(
            sink.store().storage().synced_len(&wal),
            0,
            "commits held back"
        );
        undo_ops(&mut i, &mut sink, &seq_log);
        assert_eq!(sink.take_error(), None);
        let storage = sink.store().storage();
        assert!(storage.len(&wal) > 0);
        assert_eq!(storage.synced_len(&wal), storage.len(&wal));

        let storage = store.into_storage().reopen_dropping_unsynced();
        let (_, ri, _, report) = DurableStore::open(storage, Arc::clone(&s.schema), cfg).unwrap();
        assert_eq!(report.last_seq, 3, "2 commits + 1 compensation record");
        assert_eq!(ri, initial);
    }

    /// A checkpoint that fails on storage parks its error in the sink like
    /// a failed append does; the record that crossed the threshold stays
    /// logged.
    #[test]
    fn checkpoint_storage_error_surfaces_through_take_error() {
        let s = beer_schema();
        let (i0, o) = figure2(&s);
        let one_record = |storage: FaultStorage, snapshot_every: u64| {
            let cfg = WalConfig {
                group_commit: 1,
                snapshot_every,
            };
            let mut i = i0.clone();
            let mut store = DurableStore::create(storage, Arc::clone(&s.schema), cfg, &i).unwrap();
            let mut view = DatabaseView::new(&i);
            let mut sink = DurableSink::new(&mut store, &mut view);
            let mut txn = InstanceTxn::begin_observed(&mut i, &mut sink);
            txn.remove_edge(&Edge::new(o.d1, s.frequents, o.bar1));
            txn.commit();
            let err = sink.take_error();
            (store, i, err)
        };
        // The cost of creating the store and logging the record, without
        // a checkpoint: a budget of exactly that tears the snapshot write.
        let (golden, _, err) = one_record(FaultStorage::new(), 0);
        assert_eq!(err, None);
        let budget = golden.storage().total_cost();

        let (store, i, err) = one_record(FaultStorage::with_budget(budget), 1);
        assert_eq!(err, Some(WalError::Crashed));
        assert_eq!(store.epoch(), 1, "the checkpoint never swung the manifest");
        let cfg = WalConfig::default();
        let (_, ri, rview, report) =
            DurableStore::open(store.into_storage().reopen(), Arc::clone(&s.schema), cfg).unwrap();
        assert_eq!(report.last_seq, 1);
        assert_eq!(ri, i);
        assert!(rview.matches_rebuild(&ri));
    }

    #[test]
    fn txn_rollback_logs_nothing() {
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
        let mut sink = DurableSink::new(&mut store, &mut view);
        let mut txn = InstanceTxn::begin_observed(&mut i, &mut sink);
        txn.remove_object_cascade(o.bar1);
        txn.rollback();
        assert_eq!(sink.take_error(), None);
        drop(sink);
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
}
