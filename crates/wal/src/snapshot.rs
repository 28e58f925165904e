//! Compacted snapshots and the manifest: the checkpoint half of the
//! durability layer.
//!
//! A snapshot serializes the flat relation arenas of a [`Database`] —
//! they are contiguous `Vec<Oid>` blocks, so encoding is a straight walk:
//!
//! ```text
//! snapshot := "RSNAPV1\n" [crc32(body): u32 LE] body
//! body     := [epoch: u64] [last_seq: u64] [schema_digest: u32]
//!             [class_count: u32] class_block*      (classes in id order)
//!             [prop_count: u32]  prop_block*       (properties in id order)
//! class_block := [node_count: u32] [index: u32]*        (class implied)
//! prop_block  := [edge_count: u32] ([src.index: u32] [dst.index: u32])*
//! ```
//!
//! Endpoint classes are never stored: a class block's class is its
//! position, and an edge's endpoint classes are dictated by the schema's
//! property signature — so a decoded snapshot cannot even express an
//! ill-typed edge, and every id that indexes schema tables comes from a
//! bounded loop, not from input bytes. Counts are validated against the
//! bytes actually present before any allocation (fuzz tests below pin
//! this; they run under Miri in CI).
//!
//! The manifest is the tiny root pointer tying an epoch to its files:
//!
//! ```text
//! manifest := "RMANIV1\n" [crc32(body): u32 LE] body
//! body     := [epoch: u64] [last_seq: u64] [schema_digest: u32]
//! ```

use std::collections::BTreeSet;
use std::sync::Arc;

use receivers_objectbase::{EdgeIndex, Instance, Oid, PartialInstance, Schema};
use receivers_relalg::{Database, RelName};

use crate::crc::crc32;
use crate::error::{WalError, WalResult};

const SNAP_MAGIC: &[u8; 8] = b"RSNAPV1\n";
const MANIFEST_MAGIC: &[u8; 8] = b"RMANIV1\n";

/// Digest of a schema's shape — class names plus property signatures —
/// recorded in every snapshot and manifest so a store can refuse to open
/// under a different schema instead of replaying garbage.
pub fn schema_digest(schema: &Schema) -> u32 {
    let mut canon = String::new();
    for c in schema.classes() {
        canon.push_str(schema.class_name(c));
        canon.push('\n');
    }
    canon.push('\x1f');
    for p in schema.properties() {
        let prop = schema.property(p);
        canon.push_str(&format!("{} {} {}\n", prop.name, prop.src.0, prop.dst.0));
    }
    crc32(canon.as_bytes())
}

/// Snapshot metadata decoded alongside the instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotHeader {
    /// Checkpoint epoch the snapshot belongs to.
    pub epoch: u64,
    /// Last transaction sequence number folded into the snapshot.
    pub last_seq: u64,
}

/// Encode a snapshot of `db` at `(epoch, last_seq)`.
pub fn encode_snapshot(db: &Database, epoch: u64, last_seq: u64) -> Vec<u8> {
    let schema = db.schema();
    let mut out = Vec::new();
    out.extend_from_slice(SNAP_MAGIC);
    out.extend_from_slice(&[0u8; 4]); // crc patched below
    let body_at = out.len();
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&last_seq.to_le_bytes());
    out.extend_from_slice(&schema_digest(schema).to_le_bytes());
    out.extend_from_slice(&(schema.class_count() as u32).to_le_bytes());
    for c in schema.classes() {
        let rows = db
            .relation(RelName::Class(c))
            .expect("database carries a relation per schema class")
            .tuple_set()
            .as_rows();
        out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
        for o in rows {
            out.extend_from_slice(&o.index.to_le_bytes());
        }
    }
    out.extend_from_slice(&(schema.property_count() as u32).to_le_bytes());
    for p in schema.properties() {
        let rows = db
            .relation(RelName::Prop(p))
            .expect("database carries a relation per schema property")
            .tuple_set()
            .as_rows();
        debug_assert_eq!(rows.len() % 2, 0);
        out.extend_from_slice(&((rows.len() / 2) as u32).to_le_bytes());
        for pair in rows.chunks_exact(2) {
            out.extend_from_slice(&pair[0].index.to_le_bytes());
            out.extend_from_slice(&pair[1].index.to_le_bytes());
        }
    }
    let crc = crc32(&out[body_at..]);
    out[8..12].copy_from_slice(&crc.to_le_bytes());
    out
}

/// A bounds-checked little-endian cursor; every read is total.
struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, at: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let b = self.buf.get(self.at..self.at + n)?;
        self.at += n;
        Some(b)
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

fn bad(why: impl Into<String>) -> WalError {
    WalError::BadSnapshot(why.into())
}

/// Decode a snapshot under `schema`, rebuilding the [`Instance`]. Total:
/// every byte stream yields `Ok` or a structured [`WalError`] — never a
/// panic, never an allocation sized from unvalidated input.
///
/// The instance is built in bulk: each block is collected into a buffer
/// (sized from a count already checked against the bytes present), a
/// block that arrives out of order is sorted, and duplicates are refused
/// on the sorted block. The edge index is then built in one
/// [`EdgeIndex::from_sorted_pairs`] call, and the no-dangling-edges check
/// is one merge of the node set against each view's rows — no per-edge
/// insert, no per-edge node probe.
pub fn decode_snapshot(
    bytes: &[u8],
    schema: &Arc<Schema>,
) -> WalResult<(Instance, SnapshotHeader)> {
    let mut cur = Cursor::new(bytes);
    let (epoch, last_seq) = decode_header(&mut cur, bytes, schema)?;
    let mut nodes = Vec::new();
    for c in schema.classes() {
        let n = cur.u32().ok_or_else(|| bad("truncated node count"))? as usize;
        if n > cur.remaining() / 4 {
            return Err(bad(format!(
                "class block claims {n} nodes, only {} bytes remain",
                cur.remaining()
            )));
        }
        let at = nodes.len();
        nodes.reserve(n);
        for _ in 0..n {
            let index = cur.u32().ok_or_else(|| bad("truncated node index"))?;
            nodes.push(Oid::new(c, index));
        }
        if let Some(dup) = sort_find_duplicate(&mut nodes[at..]) {
            return Err(bad(format!(
                "duplicate node {} in class block {}",
                dup.index, c.0
            )));
        }
    }
    let prop_count = cur.u32().ok_or_else(|| bad("truncated property count"))? as usize;
    if prop_count != schema.property_count() {
        return Err(bad(format!(
            "snapshot has {prop_count} property blocks, schema has {}",
            schema.property_count()
        )));
    }
    let mut blocks = Vec::with_capacity(prop_count);
    for p in schema.properties() {
        let sig = schema.property(p);
        let n = cur.u32().ok_or_else(|| bad("truncated edge count"))? as usize;
        if n > cur.remaining() / 8 {
            return Err(bad(format!(
                "property block claims {n} edges, only {} bytes remain",
                cur.remaining()
            )));
        }
        let mut pairs = Vec::with_capacity(n);
        for _ in 0..n {
            let src = cur.u32().ok_or_else(|| bad("truncated edge src"))?;
            let dst = cur.u32().ok_or_else(|| bad("truncated edge dst"))?;
            pairs.push((Oid::new(sig.src, src), Oid::new(sig.dst, dst)));
        }
        if sort_find_duplicate(&mut pairs).is_some() {
            return Err(bad(format!("duplicate edge in property block {}", p.0)));
        }
        blocks.push((p, pairs));
    }
    if cur.remaining() != 0 {
        return Err(bad(format!("{} trailing bytes", cur.remaining())));
    }
    // Class blocks arrive in id order and `Oid` orders class-major, so
    // the concatenated blocks are sorted: the set is built in bulk.
    let nodes: BTreeSet<Oid> = nodes.into_iter().collect();
    let edges = EdgeIndex::from_sorted_pairs(blocks);
    let instance = PartialInstance::from_parts(Arc::clone(schema), nodes, edges)
        .and_then(Instance::from_partial)
        .map_err(|e| bad(format!("ill-formed edge: {e}")))?;
    Ok((instance, SnapshotHeader { epoch, last_seq }))
}

/// Check the magic, checksum, schema digest and class count; returns
/// `(epoch, last_seq)` with the cursor at the first class block.
fn decode_header(cur: &mut Cursor<'_>, bytes: &[u8], schema: &Schema) -> WalResult<(u64, u64)> {
    if cur.take(8) != Some(SNAP_MAGIC) {
        return Err(bad("bad magic"));
    }
    let stored_crc = cur.u32().ok_or_else(|| bad("truncated before checksum"))?;
    if crc32(&bytes[12..]) != stored_crc {
        return Err(bad("body checksum mismatch"));
    }
    let epoch = cur.u64().ok_or_else(|| bad("truncated epoch"))?;
    let last_seq = cur.u64().ok_or_else(|| bad("truncated last_seq"))?;
    let stored_digest = cur.u32().ok_or_else(|| bad("truncated digest"))?;
    let supplied = schema_digest(schema);
    if stored_digest != supplied {
        return Err(WalError::SchemaMismatch {
            stored: stored_digest,
            supplied,
        });
    }
    let class_count = cur.u32().ok_or_else(|| bad("truncated class count"))? as usize;
    if class_count != schema.class_count() {
        return Err(bad(format!(
            "snapshot has {class_count} class blocks, schema has {}",
            schema.class_count()
        )));
    }
    Ok((epoch, last_seq))
}

/// Sort `block` unless it is already strictly ascending (the order the
/// encoder writes), and return a duplicated element if there is one.
fn sort_find_duplicate<T: Ord + Copy>(block: &mut [T]) -> Option<T> {
    if block.windows(2).all(|w| w[0] < w[1]) {
        return None;
    }
    block.sort_unstable();
    block.windows(2).find(|w| w[0] == w[1]).map(|w| w[0])
}

/// The root pointer: which epoch is live and where its WAL resumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Manifest {
    /// Live checkpoint epoch.
    pub epoch: u64,
    /// Last sequence number folded into the epoch's snapshot; the WAL
    /// tail resumes at `last_seq + 1`.
    pub last_seq: u64,
    /// Digest of the schema the store was written under.
    pub schema_digest: u32,
}

impl Manifest {
    /// File name of this epoch's snapshot.
    pub fn snapshot_file(&self) -> String {
        format!("snap-{:016x}.bin", self.epoch)
    }

    /// File name of this epoch's WAL segment.
    pub fn wal_file(&self) -> String {
        format!("wal-{:016x}.log", self.epoch)
    }

    /// Encode the manifest.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MANIFEST_MAGIC);
        out.extend_from_slice(&[0u8; 4]);
        let body_at = out.len();
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&self.last_seq.to_le_bytes());
        out.extend_from_slice(&self.schema_digest.to_le_bytes());
        let crc = crc32(&out[body_at..]);
        out[8..12].copy_from_slice(&crc.to_le_bytes());
        out
    }

    /// Decode a manifest. Total — any byte stream maps to `Ok` or a
    /// structured error.
    pub fn decode(bytes: &[u8]) -> WalResult<Self> {
        let err = |why: &str| WalError::BadManifest(why.to_owned());
        let mut cur = Cursor::new(bytes);
        if cur.take(8) != Some(MANIFEST_MAGIC) {
            return Err(err("bad magic"));
        }
        let stored_crc = cur.u32().ok_or_else(|| err("truncated before checksum"))?;
        if crc32(&bytes[12..]) != stored_crc {
            return Err(err("body checksum mismatch"));
        }
        let epoch = cur.u64().ok_or_else(|| err("truncated epoch"))?;
        let last_seq = cur.u64().ok_or_else(|| err("truncated last_seq"))?;
        let schema_digest = cur.u32().ok_or_else(|| err("truncated digest"))?;
        if cur.remaining() != 0 {
            return Err(err("trailing bytes"));
        }
        Ok(Self {
            epoch,
            last_seq,
            schema_digest,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use receivers_objectbase::{ClassId, Edge, PropId};

    /// The per-edge decoder the bulk one replaced, kept as its oracle:
    /// one `Instance::add_object` per node and one `Instance::add_edge`
    /// per edge, each refusal detected where the stream produces it.
    fn decode_snapshot_per_edge(bytes: &[u8], schema: &Arc<Schema>) -> WalResult<Instance> {
        let mut cur = Cursor::new(bytes);
        decode_header(&mut cur, bytes, schema)?;
        let mut instance = Instance::empty(Arc::clone(schema));
        for c in schema.classes() {
            let n = cur.u32().ok_or_else(|| bad("truncated node count"))? as usize;
            if n > cur.remaining() / 4 {
                return Err(bad("class block claims too many nodes"));
            }
            for _ in 0..n {
                let index = cur.u32().ok_or_else(|| bad("truncated node index"))?;
                if !instance.add_object(Oid::new(c, index)) {
                    return Err(bad("duplicate node"));
                }
            }
        }
        let prop_count = cur.u32().ok_or_else(|| bad("truncated property count"))? as usize;
        if prop_count != schema.property_count() {
            return Err(bad("property count mismatch"));
        }
        for p in schema.properties() {
            let sig = schema.property(p);
            let n = cur.u32().ok_or_else(|| bad("truncated edge count"))? as usize;
            if n > cur.remaining() / 8 {
                return Err(bad("property block claims too many edges"));
            }
            for _ in 0..n {
                let src = cur.u32().ok_or_else(|| bad("truncated edge src"))?;
                let dst = cur.u32().ok_or_else(|| bad("truncated edge dst"))?;
                let edge = Edge::new(Oid::new(sig.src, src), p, Oid::new(sig.dst, dst));
                match instance.add_edge(edge) {
                    Ok(true) => {}
                    Ok(false) => return Err(bad("duplicate edge")),
                    Err(e) => return Err(bad(format!("ill-formed edge: {e}"))),
                }
            }
        }
        if cur.remaining() != 0 {
            return Err(bad("trailing bytes"));
        }
        Ok(instance)
    }

    /// The bulk decoder agrees with the per-edge oracle on `bytes`: the
    /// same instance, or an error on both sides.
    fn assert_agrees_with_oracle(bytes: &[u8], schema: &Arc<Schema>) {
        match (
            decode_snapshot(bytes, schema),
            decode_snapshot_per_edge(bytes, schema),
        ) {
            (Ok((bulk, _)), Ok(oracle)) => {
                assert_eq!(bulk, oracle);
                bulk.check_index_consistent();
            }
            (Err(_), Err(_)) => {}
            (bulk, oracle) => panic!("bulk {bulk:?} vs per-edge {oracle:?}"),
        }
    }

    fn beer_schema() -> Arc<Schema> {
        let mut b = Schema::builder();
        let drinker = b.class("Drinker").unwrap();
        let bar = b.class("Bar").unwrap();
        let beer = b.class("Beer").unwrap();
        b.property(drinker, "frequents", bar).unwrap();
        b.property(drinker, "likes", beer).unwrap();
        b.property(bar, "serves", beer).unwrap();
        b.build()
    }

    fn sample_instance() -> Instance {
        let schema = beer_schema();
        let drinker = ClassId(0);
        let bar = ClassId(1);
        let beer = ClassId(2);
        let frequents = PropId(0);
        let likes = PropId(1);
        let serves = PropId(2);
        let mut i = Instance::empty(schema);
        for k in 0..7 {
            i.add_object(Oid::new(drinker, k));
        }
        for k in 0..5 {
            i.add_object(Oid::new(bar, k * 3));
        }
        for k in 0..4 {
            i.add_object(Oid::new(beer, k));
        }
        for k in 0..7u32 {
            i.link(Oid::new(drinker, k), frequents, Oid::new(bar, (k % 5) * 3))
                .unwrap();
            i.link(Oid::new(drinker, k), likes, Oid::new(beer, k % 4))
                .unwrap();
        }
        for k in 0..5u32 {
            i.link(Oid::new(bar, k * 3), serves, Oid::new(beer, k % 4))
                .unwrap();
        }
        i
    }

    #[test]
    fn snapshot_round_trips_bit_identically() {
        let instance = sample_instance();
        let db = Database::from_instance(&instance);
        let bytes = encode_snapshot(&db, 3, 17);
        let (restored, header) = decode_snapshot(&bytes, instance.schema()).unwrap();
        assert_eq!(
            header,
            SnapshotHeader {
                epoch: 3,
                last_seq: 17
            }
        );
        assert_eq!(restored, instance);
        assert_eq!(Database::from_instance(&restored), db);
        restored.check_index_consistent();
        assert_agrees_with_oracle(&bytes, instance.schema());
        // Deterministic encoding: same database, same bytes.
        assert_eq!(
            encode_snapshot(&Database::from_instance(&restored), 3, 17),
            bytes
        );
    }

    #[test]
    fn empty_instance_round_trips() {
        let schema = beer_schema();
        let instance = Instance::empty(Arc::clone(&schema));
        let bytes = encode_snapshot(&Database::from_instance(&instance), 1, 0);
        let (restored, _) = decode_snapshot(&bytes, &schema).unwrap();
        assert_eq!(restored, instance);
        assert_agrees_with_oracle(&bytes, &schema);
    }

    #[test]
    fn schema_mismatch_is_refused() {
        let instance = sample_instance();
        let bytes = encode_snapshot(&Database::from_instance(&instance), 1, 0);
        let mut b = Schema::builder();
        b.class("Other").unwrap();
        let other = b.build();
        match decode_snapshot(&bytes, &other) {
            Err(WalError::SchemaMismatch { .. }) => {}
            other => panic!("expected schema mismatch, got {other:?}"),
        }
        assert_ne!(schema_digest(instance.schema()), schema_digest(&other));
    }

    /// Every truncation of a valid snapshot is a structured error.
    #[test]
    fn truncations_never_panic() {
        let instance = sample_instance();
        let schema = Arc::clone(instance.schema());
        let bytes = encode_snapshot(&Database::from_instance(&instance), 1, 9);
        for cut in 0..bytes.len() {
            assert!(
                decode_snapshot(&bytes[..cut], &schema).is_err(),
                "cut {cut}"
            );
            assert_agrees_with_oracle(&bytes[..cut], &schema);
        }
    }

    /// Every single-bit flip is either caught by the checksum or decodes
    /// to a structured error — never a panic, never a silent success.
    #[test]
    fn bit_flips_are_always_caught() {
        let instance = sample_instance();
        let schema = Arc::clone(instance.schema());
        let bytes = encode_snapshot(&Database::from_instance(&instance), 1, 9);
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut mutated = bytes.clone();
                mutated[byte] ^= 1 << bit;
                assert!(
                    decode_snapshot(&mutated, &schema).is_err(),
                    "flip at byte {byte} bit {bit} went unnoticed"
                );
            }
        }
    }

    /// Random byte soup decodes totally, and a hostile node count cannot
    /// drive an allocation past the buffer it arrived in.
    #[test]
    fn random_streams_and_hostile_counts_are_structured_errors() {
        let schema = beer_schema();
        let mut x = 0x1234_5678_9ABC_DEF0u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for len in 0..160usize {
            let bytes: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            assert_agrees_with_oracle(&bytes, &schema); // must not panic
            let _ = Manifest::decode(&bytes); // must not panic
        }
        // A forged header claiming u32::MAX nodes with a valid checksum.
        let mut forged = Vec::new();
        forged.extend_from_slice(SNAP_MAGIC);
        forged.extend_from_slice(&[0u8; 4]);
        forged.extend_from_slice(&1u64.to_le_bytes());
        forged.extend_from_slice(&0u64.to_le_bytes());
        forged.extend_from_slice(&schema_digest(&schema).to_le_bytes());
        forged.extend_from_slice(&(schema.class_count() as u32).to_le_bytes());
        forged.extend_from_slice(&u32::MAX.to_le_bytes()); // hostile count
        let crc = crc32(&forged[12..]);
        forged[8..12].copy_from_slice(&crc.to_le_bytes());
        match decode_snapshot(&forged, &schema) {
            Err(WalError::BadSnapshot(why)) => assert!(why.contains("claims"), "{why}"),
            other => panic!("expected bad-snapshot error, got {other:?}"),
        }
        assert_agrees_with_oracle(&forged, &schema);
    }

    /// A snapshot body with a valid checksum and digest holding the given
    /// class and property blocks, in the given order.
    fn forge(schema: &Schema, classes: &[&[u32]], props: &[&[(u32, u32)]]) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(SNAP_MAGIC);
        out.extend_from_slice(&[0u8; 4]);
        out.extend_from_slice(&1u64.to_le_bytes());
        out.extend_from_slice(&0u64.to_le_bytes());
        out.extend_from_slice(&schema_digest(schema).to_le_bytes());
        out.extend_from_slice(&(classes.len() as u32).to_le_bytes());
        for block in classes {
            out.extend_from_slice(&(block.len() as u32).to_le_bytes());
            for index in *block {
                out.extend_from_slice(&index.to_le_bytes());
            }
        }
        out.extend_from_slice(&(props.len() as u32).to_le_bytes());
        for block in props {
            out.extend_from_slice(&(block.len() as u32).to_le_bytes());
            for (src, dst) in *block {
                out.extend_from_slice(&src.to_le_bytes());
                out.extend_from_slice(&dst.to_le_bytes());
            }
        }
        let crc = crc32(&out[12..]);
        out[8..12].copy_from_slice(&crc.to_le_bytes());
        out
    }

    /// Well-checksummed bodies that are out of order, duplicated or
    /// dangling: the bulk decoder accepts exactly what the per-edge
    /// oracle accepts (an out-of-order block is still a set) and refuses
    /// the rest with a structured error naming the fault.
    #[test]
    fn bulk_decode_matches_the_per_edge_oracle_on_malformed_blocks() {
        let schema = beer_schema();
        // Drinkers 0..3, bars {0, 3}, beers {0, 1}; frequents, likes, serves.
        let nodes: [&[u32]; 3] = [&[0, 1, 2], &[0, 3], &[0, 1]];
        let good: [&[(u32, u32)]; 3] = [&[(0, 0), (0, 3), (2, 3)], &[(1, 1)], &[(3, 0), (3, 1)]];
        // (name, class blocks, property blocks, expected refusal)
        type Case<'a> = (
            &'a str,
            [&'a [u32]; 3],
            [&'a [(u32, u32)]; 3],
            Option<&'a str>,
        );
        let cases: [Case<'_>; 7] = [
            ("canonical", nodes, good, None),
            ("unsorted nodes", [&[2, 0, 1], &[3, 0], &[0, 1]], good, None),
            (
                "unsorted edges",
                nodes,
                [&[(2, 3), (0, 0), (0, 3)], &[(1, 1)], &[(3, 1), (3, 0)]],
                None,
            ),
            (
                "duplicate node",
                [&[0, 1, 0], &[0, 3], &[0, 1]],
                good,
                Some("duplicate node"),
            ),
            (
                "duplicate edge",
                nodes,
                [&[(0, 3), (0, 0), (0, 3)], &[], &[]],
                Some("duplicate edge"),
            ),
            (
                "dangling source",
                nodes,
                [&[(0, 0), (7, 3)], &[], &[]],
                Some("ill-formed edge"),
            ),
            (
                "dangling target",
                nodes,
                [&[], &[], &[(3, 0), (3, 2)]],
                Some("ill-formed edge"),
            ),
        ];
        for (name, classes, props, refusal) in cases {
            let bytes = forge(&schema, &classes, &props);
            assert_agrees_with_oracle(&bytes, &schema);
            match (decode_snapshot(&bytes, &schema), refusal) {
                (Ok((i, _)), None) => assert_eq!(i.edge_count(), 6, "{name}"),
                (Err(WalError::BadSnapshot(why)), Some(want)) => {
                    assert!(why.contains(want), "{name}: {why}")
                }
                (other, _) => panic!("{name}: {other:?}"),
            }
        }
    }

    #[test]
    fn manifest_round_trips_and_names_its_files() {
        let m = Manifest {
            epoch: 0x2A,
            last_seq: 99,
            schema_digest: 0xDEAD_BEEF,
        };
        assert_eq!(Manifest::decode(&m.encode()).unwrap(), m);
        assert_eq!(m.snapshot_file(), "snap-000000000000002a.bin");
        assert_eq!(m.wal_file(), "wal-000000000000002a.log");
        let mut bytes = m.encode();
        bytes[15] ^= 0x40;
        assert!(Manifest::decode(&bytes).is_err());
    }
}
