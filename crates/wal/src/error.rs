//! Structured errors for the durability layer.
//!
//! Every failure mode of the codec, the storage abstraction, and recovery
//! is a value of [`WalError`] — the decoder and loaders **never panic** on
//! malformed input and never allocate from an unvalidated length prefix
//! (the fuzz tests in `record`/`snapshot` pin both properties).

/// Errors of the WAL/snapshot/recovery layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalError {
    /// An underlying storage operation failed (I/O error text attached).
    Io(String),
    /// The fault-injecting storage hit its crash point: the write was
    /// killed mid-flight and every later write fails with this.
    Crashed,
    /// A snapshot file failed validation (bad magic, checksum, counts, or
    /// ill-typed content).
    BadSnapshot(String),
    /// The manifest file failed validation.
    BadManifest(String),
    /// The store was opened against a schema that does not match the one
    /// the files were written under.
    SchemaMismatch {
        /// Digest recorded in the manifest/snapshot.
        stored: u32,
        /// Digest of the schema the caller supplied.
        supplied: u32,
    },
    /// [`DurableStore::create`](crate::DurableStore::create) found an
    /// existing manifest — refusing to clobber a live store.
    AlreadyExists,
    /// [`DurableStore::open`](crate::DurableStore::open) found no
    /// manifest — nothing was ever created here.
    NotFound,
    /// A WAL record passed its checksum but does not apply to the state
    /// before it (an op that is ill-typed, ineffective, or would leave a
    /// dangling edge). Unlike a torn tail this is committed data, so
    /// recovery refuses to open rather than truncate it.
    BadRecord {
        /// Sequence number of the refused record.
        seq: u64,
        /// Which op was refused, and why.
        reason: String,
    },
    /// A commit whose record payload exceeds the cap recovery accepts
    /// ([`MAX_PAYLOAD_BYTES`](crate::record::MAX_PAYLOAD_BYTES)). Refused
    /// before any byte is written.
    RecordTooLarge {
        /// Payload bytes the record would need.
        bytes: u64,
        /// The cap.
        max: u64,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal storage error: {e}"),
            WalError::Crashed => write!(f, "wal storage crashed (injected fault)"),
            WalError::BadSnapshot(why) => write!(f, "invalid snapshot: {why}"),
            WalError::BadManifest(why) => write!(f, "invalid manifest: {why}"),
            WalError::SchemaMismatch { stored, supplied } => write!(
                f,
                "schema digest mismatch: store was written under {stored:#010x}, \
                 opened with {supplied:#010x}"
            ),
            WalError::AlreadyExists => write!(f, "a durable store already exists here"),
            WalError::NotFound => write!(f, "no durable store exists here (missing manifest)"),
            WalError::BadRecord { seq, reason } => {
                write!(f, "wal record {seq} does not apply: {reason}")
            }
            WalError::RecordTooLarge { bytes, max } => write!(
                f,
                "wal record of {bytes} payload bytes exceeds the {max}-byte cap"
            ),
        }
    }
}

impl std::error::Error for WalError {}

/// Result alias for the durability layer.
pub type WalResult<T> = Result<T, WalError>;
