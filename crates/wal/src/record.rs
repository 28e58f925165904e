//! The binary WAL record format: length-prefixed, CRC32-framed
//! [`DeltaOp`] batches with monotonic transaction sequence numbers.
//!
//! ```text
//! frame   := [payload_len: u32 LE] [crc32(payload): u32 LE] [payload]
//! payload := [seq: u64 LE] [op_count: u32 LE] op*
//! op      := 0x00 class index                     AddedNode
//!          | 0x01 class index                     RemovedNode
//!          | 0x02 sclass sindex prop dclass dindex  AddedEdge
//!          | 0x03 sclass sindex prop dclass dindex  RemovedEdge
//! ```
//! with every id field a `u32 LE` — node ops are 9 bytes, edge ops 21.
//!
//! Decoding is **total**: any byte stream maps to a clean prefix of valid
//! records plus either a clean end or a structured torn-tail verdict.
//! Nothing in this module panics on input bytes, and no allocation is
//! sized from an unvalidated length prefix — `op_count` is first checked
//! against the byte length the frame actually carries (each op occupies
//! at least [`MIN_OP_BYTES`]), so a hostile count cannot OOM the decoder.
//! The fuzz tests at the bottom of the file pin both properties and run
//! under Miri in CI.

use receivers_objectbase::{ClassId, DeltaOp, Edge, Oid, PropId};

use crate::crc::crc32;
use crate::error::{WalError, WalResult};

/// Frame header: payload length + payload checksum.
pub const FRAME_HEADER_BYTES: usize = 8;
/// Payload prologue: sequence number + op count.
pub const PAYLOAD_PROLOGUE_BYTES: usize = 12;
/// Smallest encoded op (a node op: tag + class + index).
pub const MIN_OP_BYTES: usize = 9;
/// An encoded edge op: tag + source + property + destination.
const EDGE_OP_BYTES: usize = 21;
/// Sanity cap on a single record's payload; anything larger is treated as
/// corruption even when the buffer would cover it. Generous: ~6M edge ops.
pub const MAX_PAYLOAD_BYTES: usize = 1 << 27;

const TAG_ADDED_NODE: u8 = 0;
const TAG_REMOVED_NODE: u8 = 1;
const TAG_ADDED_EDGE: u8 = 2;
const TAG_REMOVED_EDGE: u8 = 3;

/// One decoded WAL record: a committed transaction's delta batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Monotonic transaction sequence number.
    pub seq: u64,
    /// The batch, in application order.
    pub ops: Vec<DeltaOp>,
}

/// Outcome of decoding at the head of a buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decoded {
    /// A valid record occupying `consumed` bytes from the head.
    Record {
        /// The decoded record.
        record: Record,
        /// Total frame size (header + payload).
        consumed: usize,
    },
    /// The buffer is empty: a clean end of log.
    End,
    /// The bytes at the head are not a whole valid record — a torn or
    /// corrupt tail that recovery truncates.
    Torn(String),
}

/// Encoded size of one op's tag and fields.
fn op_len(op: &DeltaOp) -> usize {
    match op {
        DeltaOp::AddedNode(_) | DeltaOp::RemovedNode(_) => MIN_OP_BYTES,
        DeltaOp::AddedEdge(_) | DeltaOp::RemovedEdge(_) => EDGE_OP_BYTES,
    }
}

/// Payload bytes of the record carrying `ops`, computed without encoding.
pub fn payload_len(ops: &[DeltaOp]) -> usize {
    PAYLOAD_PROLOGUE_BYTES + ops.iter().map(op_len).sum::<usize>()
}

/// Refuse a payload of `len` bytes that decoding would call implausible:
/// over [`MAX_PAYLOAD_BYTES`], which also keeps the frame's `u32` length
/// field and op count from wrapping. A writer checks this before its
/// first byte, so a record that recovery would truncate is never
/// acknowledged.
pub fn check_payload_len(len: usize) -> WalResult<()> {
    if len > MAX_PAYLOAD_BYTES {
        return Err(WalError::RecordTooLarge {
            bytes: len as u64,
            max: MAX_PAYLOAD_BYTES as u64,
        });
    }
    Ok(())
}

/// Append the frame for `(seq, ops)` to `out`. Returns the frame size.
/// The payload must pass [`check_payload_len`]; a longer one would wrap
/// the length field.
pub fn encode_record(seq: u64, ops: &[DeltaOp], out: &mut Vec<u8>) -> usize {
    let start = out.len();
    // Header placeholder, patched below.
    out.extend_from_slice(&[0u8; FRAME_HEADER_BYTES]);
    let payload_at = out.len();
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&(ops.len() as u32).to_le_bytes());
    for op in ops {
        encode_op(op, out);
    }
    let payload_len = (out.len() - payload_at) as u32;
    let crc = crc32(&out[payload_at..]);
    out[start..start + 4].copy_from_slice(&payload_len.to_le_bytes());
    out[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
    out.len() - start
}

fn encode_op(op: &DeltaOp, out: &mut Vec<u8>) {
    match *op {
        DeltaOp::AddedNode(o) => {
            out.push(TAG_ADDED_NODE);
            encode_oid(o, out);
        }
        DeltaOp::RemovedNode(o) => {
            out.push(TAG_REMOVED_NODE);
            encode_oid(o, out);
        }
        DeltaOp::AddedEdge(e) => {
            out.push(TAG_ADDED_EDGE);
            encode_edge(&e, out);
        }
        DeltaOp::RemovedEdge(e) => {
            out.push(TAG_REMOVED_EDGE);
            encode_edge(&e, out);
        }
    }
}

fn encode_oid(o: Oid, out: &mut Vec<u8>) {
    out.extend_from_slice(&o.class.0.to_le_bytes());
    out.extend_from_slice(&o.index.to_le_bytes());
}

fn encode_edge(e: &Edge, out: &mut Vec<u8>) {
    encode_oid(e.src, out);
    out.extend_from_slice(&e.prop.0.to_le_bytes());
    encode_oid(e.dst, out);
}

/// Decode the record at the head of `buf`. Total: every input maps to
/// `Record`, `End`, or `Torn` — never a panic, never an oversized
/// allocation.
pub fn decode_record(buf: &[u8]) -> Decoded {
    if buf.is_empty() {
        return Decoded::End;
    }
    if buf.len() < FRAME_HEADER_BYTES {
        return Decoded::Torn(format!(
            "{}-byte tail is shorter than a frame header",
            buf.len()
        ));
    }
    let payload_len = u32::from_le_bytes(buf[0..4].try_into().unwrap()) as usize;
    let stored_crc = u32::from_le_bytes(buf[4..8].try_into().unwrap());
    if !(PAYLOAD_PROLOGUE_BYTES..=MAX_PAYLOAD_BYTES).contains(&payload_len) {
        return Decoded::Torn(format!("implausible payload length {payload_len}"));
    }
    let Some(payload) = buf.get(FRAME_HEADER_BYTES..FRAME_HEADER_BYTES + payload_len) else {
        return Decoded::Torn(format!(
            "torn record: frame claims {payload_len} payload bytes, {} available",
            buf.len() - FRAME_HEADER_BYTES
        ));
    };
    if crc32(payload) != stored_crc {
        return Decoded::Torn("payload checksum mismatch".to_owned());
    }
    let seq = u64::from_le_bytes(payload[0..8].try_into().unwrap());
    let op_count = u32::from_le_bytes(payload[8..12].try_into().unwrap()) as usize;
    // Validate the count against the bytes actually present before sizing
    // any allocation from it.
    let body = &payload[PAYLOAD_PROLOGUE_BYTES..];
    if op_count > body.len() / MIN_OP_BYTES {
        return Decoded::Torn(format!(
            "op count {op_count} exceeds what {} payload bytes can hold",
            body.len()
        ));
    }
    let mut ops = Vec::with_capacity(op_count);
    let mut at = 0;
    for k in 0..op_count {
        match decode_op(&body[at..]) {
            Some((op, used)) => {
                ops.push(op);
                at += used;
            }
            None => return Decoded::Torn(format!("malformed op {k} in checksummed payload")),
        }
    }
    if at != body.len() {
        return Decoded::Torn(format!(
            "payload carries {} trailing bytes past its {op_count} ops",
            body.len() - at
        ));
    }
    Decoded::Record {
        record: Record { seq, ops },
        consumed: FRAME_HEADER_BYTES + payload_len,
    }
}

fn decode_op(buf: &[u8]) -> Option<(DeltaOp, usize)> {
    let (&tag, rest) = buf.split_first()?;
    match tag {
        TAG_ADDED_NODE | TAG_REMOVED_NODE => {
            let o = decode_oid(rest.get(0..8)?);
            let op = if tag == TAG_ADDED_NODE {
                DeltaOp::AddedNode(o)
            } else {
                DeltaOp::RemovedNode(o)
            };
            Some((op, MIN_OP_BYTES))
        }
        TAG_ADDED_EDGE | TAG_REMOVED_EDGE => {
            let b = rest.get(0..20)?;
            let e = Edge::new(
                decode_oid(&b[0..8]),
                PropId(u32::from_le_bytes(b[8..12].try_into().unwrap())),
                decode_oid(&b[12..20]),
            );
            let op = if tag == TAG_ADDED_EDGE {
                DeltaOp::AddedEdge(e)
            } else {
                DeltaOp::RemovedEdge(e)
            };
            Some((op, EDGE_OP_BYTES))
        }
        _ => None,
    }
}

fn decode_oid(b: &[u8]) -> Oid {
    Oid::new(
        ClassId(u32::from_le_bytes(b[0..4].try_into().unwrap())),
        u32::from_le_bytes(b[4..8].try_into().unwrap()),
    )
}

/// A fully decoded log: the valid record prefix plus how it ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedLog {
    /// Every valid record, in log order.
    pub records: Vec<Record>,
    /// Byte length of the valid prefix (the truncation point when torn).
    pub valid_len: u64,
    /// `Some(reason)` when the log ended in a torn/corrupt tail rather
    /// than cleanly.
    pub torn: Option<String>,
}

/// Decode a whole log buffer into its valid record prefix, stopping —
/// never failing — at the first torn or corrupt frame. Sequence numbers
/// must increase by exactly one from `first_seq`; a checksummed record
/// with an unexpected sequence number marks the tail torn at that record
/// (it is stale or misplaced data, not replayable history).
pub fn decode_log(buf: &[u8], first_seq: u64) -> DecodedLog {
    let mut records = Vec::new();
    let mut at = 0usize;
    let mut expect = first_seq;
    loop {
        match decode_record(&buf[at..]) {
            Decoded::End => {
                return DecodedLog {
                    records,
                    valid_len: at as u64,
                    torn: None,
                }
            }
            Decoded::Torn(reason) => {
                return DecodedLog {
                    records,
                    valid_len: at as u64,
                    torn: Some(reason),
                }
            }
            Decoded::Record { record, consumed } => {
                if record.seq != expect {
                    return DecodedLog {
                        records,
                        valid_len: at as u64,
                        torn: Some(format!(
                            "sequence break: expected txn {expect}, found {}",
                            record.seq
                        )),
                    };
                }
                expect += 1;
                at += consumed;
                records.push(record);
            }
        }
    }
}

/// Convenience used by storage-free callers (tests, tools): decode and
/// return the records of a log that must be clean and start at seq 1.
pub fn decode_clean_log(buf: &[u8]) -> WalResult<Vec<Record>> {
    let decoded = decode_log(buf, 1);
    match decoded.torn {
        None => Ok(decoded.records),
        Some(reason) => Err(WalError::Io(format!("log is not clean: {reason}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic xorshift generator — the fuzz tests below run
    /// under Miri, where pulling in the vendored `rand` dev-dependency is
    /// unnecessary weight; 64 bits of xorshift* is plenty for byte fuzz.
    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n.max(1)
        }
    }

    fn sample_ops(rng: &mut XorShift, n: usize) -> Vec<DeltaOp> {
        (0..n)
            .map(|_| {
                let o = Oid::new(ClassId(rng.below(4) as u32), rng.below(100) as u32);
                let e = Edge::new(
                    o,
                    PropId(rng.below(6) as u32),
                    Oid::new(ClassId(rng.below(4) as u32), rng.below(100) as u32),
                );
                match rng.below(4) {
                    0 => DeltaOp::AddedNode(o),
                    1 => DeltaOp::RemovedNode(o),
                    2 => DeltaOp::AddedEdge(e),
                    _ => DeltaOp::RemovedEdge(e),
                }
            })
            .collect()
    }

    #[test]
    fn round_trips_every_op_shape() {
        let mut rng = XorShift(0xD00D_F00D);
        for seq in 1..40u64 {
            let ops = sample_ops(&mut rng, (seq % 9) as usize);
            let mut buf = Vec::new();
            let n = encode_record(seq, &ops, &mut buf);
            assert_eq!(n, buf.len());
            match decode_record(&buf) {
                Decoded::Record { record, consumed } => {
                    assert_eq!(consumed, n);
                    assert_eq!(record.seq, seq);
                    assert_eq!(record.ops, ops);
                }
                other => panic!("round trip failed: {other:?}"),
            }
        }
    }

    #[test]
    fn log_of_many_records_decodes_in_order() {
        let mut rng = XorShift(42);
        let mut buf = Vec::new();
        let mut want = Vec::new();
        for seq in 1..=25u64 {
            let ops = sample_ops(&mut rng, 1 + (seq % 5) as usize);
            encode_record(seq, &ops, &mut buf);
            want.push(Record { seq, ops });
        }
        let decoded = decode_log(&buf, 1);
        assert_eq!(decoded.torn, None);
        assert_eq!(decoded.valid_len, buf.len() as u64);
        assert_eq!(decoded.records, want);
    }

    /// Crash at every byte boundary: any prefix of a valid log decodes to
    /// the whole records that fit, with the partial frame reported torn —
    /// never a panic, never a replayed partial record.
    #[test]
    fn every_prefix_is_a_clean_record_prefix() {
        let mut rng = XorShift(7);
        let mut buf = Vec::new();
        let mut boundaries = vec![0usize];
        for seq in 1..=8u64 {
            encode_record(seq, &sample_ops(&mut rng, 1 + (seq % 4) as usize), &mut buf);
            boundaries.push(buf.len());
        }
        for cut in 0..=buf.len() {
            let decoded = decode_log(&buf[..cut], 1);
            let whole = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(decoded.records.len(), whole, "cut at {cut}");
            assert_eq!(
                decoded.valid_len as usize, boundaries[whole],
                "cut at {cut}"
            );
            let at_boundary = boundaries.contains(&cut);
            assert_eq!(decoded.torn.is_none(), at_boundary, "cut at {cut}");
        }
    }

    /// Any single-bit flip anywhere in the log is caught: decoding still
    /// succeeds structurally and never yields a record that differs from
    /// the original stream (the flip either truncates the tail at the
    /// corrupt record or, when it hits a length prefix, at that frame).
    #[test]
    fn bit_flips_never_smuggle_a_corrupt_record_through() {
        let mut rng = XorShift(99);
        let mut buf = Vec::new();
        let mut want = Vec::new();
        for seq in 1..=5u64 {
            let ops = sample_ops(&mut rng, 2);
            encode_record(seq, &ops, &mut buf);
            want.push(Record { seq, ops });
        }
        for byte in 0..buf.len() {
            for bit in 0..8 {
                let mut mutated = buf.clone();
                mutated[byte] ^= 1 << bit;
                let decoded = decode_log(&mutated, 1);
                for (k, rec) in decoded.records.iter().enumerate() {
                    assert_eq!(
                        rec, &want[k],
                        "flip at byte {byte} bit {bit} altered a decoded record"
                    );
                }
            }
        }
    }

    /// Pure noise: random byte soup of every small length decodes to a
    /// structured verdict without panicking.
    #[test]
    fn random_byte_streams_decode_totally() {
        let mut rng = XorShift(0xBEEF);
        for len in 0..200usize {
            for _ in 0..8 {
                let bytes: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
                let decoded = decode_log(&bytes, 1);
                assert!(decoded.valid_len as usize <= len);
                // Whatever was reported valid must re-decode identically.
                let again = decode_log(&bytes[..decoded.valid_len as usize], 1);
                assert_eq!(again.records, decoded.records);
            }
        }
    }

    /// A hostile op count cannot drive an allocation: the frame says
    /// "4 billion ops" but carries 12 payload bytes, so the decoder must
    /// reject it before sizing anything.
    #[test]
    fn oversized_op_count_is_rejected_not_allocated() {
        let mut buf = Vec::new();
        encode_record(1, &[], &mut buf);
        // Patch op_count to u32::MAX and fix the checksum so only the
        // count validation can catch it.
        let payload_at = FRAME_HEADER_BYTES;
        buf[payload_at + 8..payload_at + 12].copy_from_slice(&u32::MAX.to_le_bytes());
        let crc = crc32(&buf[payload_at..]);
        buf[4..8].copy_from_slice(&crc.to_le_bytes());
        match decode_record(&buf) {
            Decoded::Torn(reason) => assert!(reason.contains("op count"), "{reason}"),
            other => panic!("expected torn verdict, got {other:?}"),
        }
    }

    /// An implausible length prefix (larger than the cap) is rejected
    /// even when a huge buffer could technically satisfy it.
    #[test]
    fn length_prefix_is_capped() {
        let mut buf = vec![0u8; FRAME_HEADER_BYTES];
        buf[0..4].copy_from_slice(&(MAX_PAYLOAD_BYTES as u32 + 1).to_le_bytes());
        match decode_record(&buf) {
            Decoded::Torn(reason) => assert!(reason.contains("implausible"), "{reason}"),
            other => panic!("expected torn verdict, got {other:?}"),
        }
    }

    #[test]
    fn sequence_breaks_mark_the_tail_torn() {
        let mut buf = Vec::new();
        encode_record(1, &[], &mut buf);
        encode_record(3, &[], &mut buf); // skips seq 2
        let decoded = decode_log(&buf, 1);
        assert_eq!(decoded.records.len(), 1);
        assert!(decoded.torn.unwrap().contains("sequence break"));
    }

    /// The payload length helper agrees with the encoder, and the cap is
    /// inclusive: a payload of exactly `MAX_PAYLOAD_BYTES` is writable, one
    /// byte more is refused before anything is encoded.
    #[test]
    fn payload_len_matches_the_encoder_and_the_cap_is_inclusive() {
        let mut rng = XorShift(5);
        for n in 0..50 {
            let ops = sample_ops(&mut rng, n);
            let mut buf = Vec::new();
            let frame = encode_record(1, &ops, &mut buf);
            assert_eq!(payload_len(&ops), frame - FRAME_HEADER_BYTES);
            assert_eq!(check_payload_len(payload_len(&ops)), Ok(()));
        }
        assert_eq!(check_payload_len(MAX_PAYLOAD_BYTES), Ok(()));
        assert_eq!(
            check_payload_len(MAX_PAYLOAD_BYTES + 1),
            Err(WalError::RecordTooLarge {
                bytes: MAX_PAYLOAD_BYTES as u64 + 1,
                max: MAX_PAYLOAD_BYTES as u64,
            })
        );
        // Far past `u32::MAX` too, where the frame's length field would wrap.
        assert!(check_payload_len(usize::MAX).is_err());
    }
}
