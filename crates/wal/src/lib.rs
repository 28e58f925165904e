//! # receivers-wal — the durability layer
//!
//! The paper's update semantics are an ordered, replayable edit
//! sequence, and the repo already materializes exactly that as the
//! [`InstanceTxn`](receivers_objectbase::InstanceTxn) delta log. This
//! crate persists the stream, turning the reproduction into a
//! restartable store:
//!
//! - [`record`] — the binary WAL record format: length-prefixed,
//!   CRC32-framed [`DeltaOp`](receivers_objectbase::DeltaOp) batches
//!   with monotonic transaction sequence numbers, plus a total decoder
//!   that maps any byte stream to a valid prefix and a structured
//!   torn-tail verdict.
//! - [`snapshot`] — compacted snapshots of the flat relation arenas
//!   (contiguous `Vec<Oid>` blocks — near-free to write) and the
//!   manifest tying a checkpoint epoch to its WAL segment.
//! - [`storage`] — the [`WalStorage`] abstraction: real directories
//!   ([`DirStorage`]) and a deterministic fault-injecting in-memory
//!   implementation ([`FaultStorage`]) that kills writes at an exact
//!   byte budget, with keep-all / drop-unsynced / bit-flip reopen
//!   modes — the engine of the crash-recovery differential suite
//!   (`tests/wal_recovery.rs` at the workspace root).
//! - [`store`] — [`DurableStore`]: group-committed appends behind a
//!   [`WalConfig`] knob, epoch checkpoints, and recovery
//!   (manifest → snapshot → tail replay through
//!   [`try_redo_ops`](receivers_objectbase::try_redo_ops) into the
//!   instance, then one [`DatabaseView`](receivers_relalg::DatabaseView)
//!   rebuild, truncating a torn tail; a checksum-valid record that does
//!   not apply is refused as [`WalError::BadRecord`]).
//!
//! Durability is not an observer. A driver runs an atomic unit — a whole
//! program in the `sql::plan` stage loop — against its maintained view
//! alone, keeping the unit's delta log, and once the unit has applied
//! hands the log and the view's database to [`DurableStore::commit`]: the
//! unit lands as one WAL record, followed by the automatic checkpoint
//! when one is due, or on any storage error not at all, and the driver
//! undoes it in memory. A unit that fails never reaches the log, so there
//! is nothing to compensate.
//!
//! The recovery invariant, pinned by the crash suite: for every prefix
//! of the written byte stream, reopening restores an instance and view
//! **bit-identical** (hash + index equality) to some committed state of
//! the original run — the last durable one.

#![warn(missing_docs)]

pub mod crc;
pub mod error;
pub mod record;
pub mod snapshot;
pub mod storage;
pub mod store;

pub use crc::crc32;
pub use error::{WalError, WalResult};
pub use record::{
    check_payload_len, decode_log, decode_record, encode_record, payload_len, Decoded, DecodedLog,
    Record,
};
pub use snapshot::{decode_snapshot, encode_snapshot, schema_digest, Manifest, SnapshotHeader};
pub use storage::{DirStorage, FaultStorage, WalStorage};
pub use store::{DurableStore, RecoveryReport, WalConfig, WalStats};

#[cfg(test)]
mod tests {
    /// Every `wal.*` metric this crate can emit must be declared in the
    /// observability manifest, so `obs_check --metrics` stays an
    /// exhaustive gate.
    #[test]
    fn all_wal_metrics_are_in_the_manifest() {
        let manifest = include_str!("../../obs/metrics_manifest.txt");
        let declared: Vec<&str> = manifest
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect();
        for name in [
            "wal.records_appended",
            "wal.bytes_appended",
            "wal.syncs",
            "wal.checkpoints",
            "wal.snapshot_bytes",
            "wal.recoveries",
            "wal.records_replayed",
            "wal.ops_replayed",
            "wal.torn_tails",
            "wal.truncated_bytes",
            "wal.record_bytes",
        ] {
            assert!(
                declared.contains(&name),
                "metric {name} missing from crates/obs/metrics_manifest.txt"
            );
        }
    }
}
