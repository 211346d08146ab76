//! Wire format for every message exchanged in the GTV protocol.
//!
//! Messages are hand-encoded with [`bytes`] (length-prefixed matrices,
//! little-endian scalars) so the transport layer can meter *exactly* how
//! many bytes each protocol step moves — the paper's communication-overhead
//! discussion (§4.3.1) is reproduced from these counters.
//!
//! Matrix bodies use **wire format v2** (DESIGN.md §10): every matrix
//! starts with a one-byte format tag selecting a dense body (one f32 per
//! entry) or a sparse body (explicit `(index, value)` pairs for every
//! entry whose bit pattern is not `+0.0`). Both bodies decode to the
//! bit-identical dense matrix; [`WireCodec::Adaptive`] picks whichever is
//! smaller per message, which collapses the one-hot conditional-vector and
//! ReLU-gradient payloads that dominate GTV's traffic.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// How matrix bodies are chosen at encode time (wire format v2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireCodec {
    /// Always the dense body — one f32 per entry.
    #[default]
    Dense,
    /// Per matrix: the sparse `(index, value)` body whenever it is strictly
    /// smaller than the dense one, dense otherwise. Lossless either way —
    /// the choice never changes the decoded values.
    Adaptive,
}

/// A dense f32 matrix payload.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixPayload {
    /// Number of rows.
    pub rows: u32,
    /// Number of columns.
    pub cols: u32,
    /// Row-major values (`rows * cols` entries).
    pub data: Vec<f32>,
}

impl MatrixPayload {
    /// Creates a payload, validating the buffer length.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn new(rows: u32, cols: u32, data: Vec<f32>) -> Self {
        // Widened before multiplying: in `u32`, 65 536 × 65 536 wraps to 0
        // and an empty buffer would pass for a 16 GiB matrix.
        assert_eq!(data.len(), rows as usize * cols as usize, "payload shape mismatch");
        Self { rows, cols, data }
    }

    /// Encoded size in bytes of the dense body (format byte, 8-byte header,
    /// 4 bytes per entry).
    pub fn encoded_len(&self) -> usize {
        9 + self.data.len() * 4
    }

    /// Entries whose bit pattern is not `+0.0` — the only value the sparse
    /// decoder reconstructs implicitly. `-0.0`, NaN, infinities and
    /// subnormals all have nonzero bits and are stored explicitly, keeping
    /// sparse round-trips bit-exact.
    pub fn stored_entries(&self) -> usize {
        self.data.iter().filter(|v| v.to_bits() != 0).count()
    }

    /// Encoded size in bytes of the sparse body for `nnz` stored entries
    /// (format byte, 8-byte header, 4-byte count, 8 bytes per pair).
    pub fn sparse_encoded_len(nnz: usize) -> usize {
        13 + nnz * 8
    }

    /// Whether [`WireCodec::Adaptive`] picks the sparse body for this
    /// matrix: only when it is strictly smaller than the dense one, and the
    /// matrix is small enough for the decoder's allocation bound.
    pub fn adaptive_is_sparse(&self) -> bool {
        matches!(self.body(WireCodec::Adaptive), MatrixBody::Sparse { .. })
    }

    /// Encoded size in bytes under `codec`.
    pub fn encoded_len_with(&self, codec: WireCodec) -> usize {
        self.body_len(self.body(codec))
    }

    /// The body `codec` gives this matrix. The one place that counts stored
    /// entries: an encode decides here, once, and sizes and writes the
    /// message from the answer.
    fn body(&self, codec: WireCodec) -> MatrixBody {
        if codec == WireCodec::Adaptive && self.data.len() <= MAX_SPARSE_DENSE_ENTRIES {
            let nnz = self.stored_entries();
            if Self::sparse_encoded_len(nnz) < self.encoded_len() {
                return MatrixBody::Sparse { nnz };
            }
        }
        MatrixBody::Dense
    }

    fn body_len(&self, body: MatrixBody) -> usize {
        match body {
            MatrixBody::Dense => self.encoded_len(),
            MatrixBody::Sparse { nnz } => Self::sparse_encoded_len(nnz),
        }
    }
}

/// The body chosen for one matrix of one encode (see [`MatrixPayload::body`]).
#[derive(Debug, Clone, Copy)]
enum MatrixBody {
    Dense,
    /// `(index, value)` pairs for the `nnz` stored entries.
    Sparse {
        nnz: usize,
    },
}

/// Matrix body format tags (wire format v2).
const MATRIX_FORMAT_DENSE: u8 = 0;
const MATRIX_FORMAT_SPARSE: u8 = 1;

/// Largest dense entry count a sparse body may describe. A sparse body's
/// wire size is independent of the dense size it expands to, so without a
/// bound a 13-byte adversarial header could demand a multi-gigabyte
/// allocation from the decoder. 2^28 f32 entries (1 GiB) is far above any
/// real GTV payload; the adaptive encoder falls back to dense beyond it so
/// encode→decode stays total.
const MAX_SPARSE_DENSE_ENTRIES: usize = 1 << 28;

/// Error from decoding a malformed message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeMessageError {
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for DecodeMessageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "message decode error: {}", self.message)
    }
}

impl std::error::Error for DecodeMessageError {}

fn err(msg: &str) -> DecodeMessageError {
    DecodeMessageError { message: msg.into() }
}

/// Every message type of the GTV protocol (Algorithm 1 plus publication).
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Server → all clients: a round starts; `selected` constructs the CV.
    RoundStart {
        /// Training round number.
        round: u64,
        /// Index of the CV-constructing client `p`.
        selected: u32,
    },
    /// Selected client → server: its CV block and the matching row indices
    /// `idx_p`.
    CondUpload {
        /// One-hot conditions within the client's CV block.
        cv: MatrixPayload,
        /// Matching real-row indices.
        indices: Vec<u32>,
    },
    /// Server → client `i`: the client's slice of `G^t`'s output.
    GenSlice(MatrixPayload),
    /// Client → server: `D_i^b(G_i^b(·))` logits for the synthetic path.
    SynthLogits(MatrixPayload),
    /// Client → server: `D_i^b(T_i)` logits for the real path.
    RealLogits(MatrixPayload),
    /// Server → client: gradient w.r.t. the client's uploaded logits.
    GradLogits(MatrixPayload),
    /// Server → client: gradient w.r.t. the `G^t` slice the client received.
    GradGenSlice(MatrixPayload),
    /// Client → public bulletin: its (shuffled) synthetic share.
    SyntheticShare(MatrixPayload),
    /// Client ↔ client: contribution to the shared shuffle seed (never
    /// routed through the server).
    ShuffleSeedShare {
        /// The client's random contribution.
        share: u64,
    },
    /// Client → client: the selected data indices, in the *alternative*
    /// peer-to-peer design of §3.1.6 (the paper rejects it because curious
    /// clients can mine the index stream; implemented here to reproduce
    /// that analysis).
    IndexShare {
        /// The selected row indices `idx_p`.
        indices: Vec<u32>,
    },
}

impl Message {
    fn tag(&self) -> u8 {
        match self {
            Message::RoundStart { .. } => 0,
            Message::CondUpload { .. } => 1,
            Message::GenSlice(_) => 2,
            Message::SynthLogits(_) => 3,
            Message::RealLogits(_) => 4,
            Message::GradLogits(_) => 5,
            Message::GradGenSlice(_) => 6,
            Message::SyntheticShare(_) => 7,
            Message::ShuffleSeedShare { .. } => 8,
            Message::IndexShare { .. } => 9,
        }
    }

    /// The variant name, used by protocol steps to state which reply they
    /// expect (see `Network::recv_expect`).
    pub fn kind(&self) -> &'static str {
        match self {
            Message::RoundStart { .. } => "RoundStart",
            Message::CondUpload { .. } => "CondUpload",
            Message::GenSlice(_) => "GenSlice",
            Message::SynthLogits(_) => "SynthLogits",
            Message::RealLogits(_) => "RealLogits",
            Message::GradLogits(_) => "GradLogits",
            Message::GradGenSlice(_) => "GradGenSlice",
            Message::SyntheticShare(_) => "SyntheticShare",
            Message::ShuffleSeedShare { .. } => "ShuffleSeedShare",
            Message::IndexShare { .. } => "IndexShare",
        }
    }

    /// Encodes to bytes with every matrix body dense ([`WireCodec::Dense`]).
    pub fn encode(&self) -> Bytes {
        self.encode_with(WireCodec::Dense)
    }

    /// Encodes to bytes, choosing each matrix body per `codec`.
    ///
    /// One pass: the body is chosen first, the buffer is allocated at the
    /// exact encoded length, every value is written into it once and
    /// `freeze` hands that same buffer on (DESIGN.md §10).
    pub fn encode_with(&self, codec: WireCodec) -> Bytes {
        const INDEX_COUNT: usize = 4;
        let (matrix, tail) = match self {
            Message::RoundStart { .. } => (None, 12),
            Message::CondUpload { cv, indices } => (Some(cv), INDEX_COUNT + indices.len() * 4),
            Message::GenSlice(m)
            | Message::SynthLogits(m)
            | Message::RealLogits(m)
            | Message::GradLogits(m)
            | Message::GradGenSlice(m)
            | Message::SyntheticShare(m) => (Some(m), 0),
            Message::ShuffleSeedShare { .. } => (None, 8),
            Message::IndexShare { indices } => (None, INDEX_COUNT + indices.len() * 4),
        };
        let matrix = matrix.map(|m| (m, m.body(codec)));
        let len = 1 + matrix.map_or(0, |(m, body)| m.body_len(body)) + tail;
        let mut buf = BytesMut::with_capacity(len);
        buf.put_u8(self.tag());
        if let Some((m, body)) = matrix {
            put_matrix(&mut buf, m, body);
        }
        match self {
            Message::RoundStart { round, selected } => {
                buf.put_u64_le(*round);
                buf.put_u32_le(*selected);
            }
            Message::CondUpload { indices, .. } | Message::IndexShare { indices } => {
                debug_assert!(indices.len() <= u32::MAX as usize, "index count exceeds wire width");
                buf.put_u32_le(indices.len() as u32);
                for &i in indices {
                    buf.put_u32_le(i);
                }
            }
            Message::ShuffleSeedShare { share } => buf.put_u64_le(*share),
            // A matrix and nothing after it.
            Message::GenSlice(_)
            | Message::SynthLogits(_)
            | Message::RealLogits(_)
            | Message::GradLogits(_)
            | Message::GradGenSlice(_)
            | Message::SyntheticShare(_) => {}
        }
        debug_assert_eq!(buf.len(), len, "the reserved length is the encoded length");
        buf.freeze()
    }

    /// Decodes from bytes.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeMessageError`] on truncated or malformed input.
    pub fn decode(mut bytes: Bytes) -> Result<Self, DecodeMessageError> {
        if bytes.remaining() < 1 {
            return Err(err("empty message"));
        }
        let tag = bytes.get_u8();
        let msg = match tag {
            0 => {
                if bytes.remaining() < 12 {
                    return Err(err("truncated RoundStart"));
                }
                Message::RoundStart { round: bytes.get_u64_le(), selected: bytes.get_u32_le() }
            }
            1 => {
                let cv = get_matrix(&mut bytes)?;
                if bytes.remaining() < 4 {
                    return Err(err("truncated index count"));
                }
                let n = bytes.get_u32_le() as usize;
                if bytes.remaining() < n * 4 {
                    return Err(err("truncated indices"));
                }
                let indices = (0..n).map(|_| bytes.get_u32_le()).collect();
                Message::CondUpload { cv, indices }
            }
            2 => Message::GenSlice(get_matrix(&mut bytes)?),
            3 => Message::SynthLogits(get_matrix(&mut bytes)?),
            4 => Message::RealLogits(get_matrix(&mut bytes)?),
            5 => Message::GradLogits(get_matrix(&mut bytes)?),
            6 => Message::GradGenSlice(get_matrix(&mut bytes)?),
            7 => Message::SyntheticShare(get_matrix(&mut bytes)?),
            8 => {
                if bytes.remaining() < 8 {
                    return Err(err("truncated ShuffleSeedShare"));
                }
                Message::ShuffleSeedShare { share: bytes.get_u64_le() }
            }
            9 => {
                if bytes.remaining() < 4 {
                    return Err(err("truncated index count"));
                }
                let n = bytes.get_u32_le() as usize;
                if bytes.remaining() < n * 4 {
                    return Err(err("truncated indices"));
                }
                Message::IndexShare { indices: (0..n).map(|_| bytes.get_u32_le()).collect() }
            }
            t => return Err(err(&format!("unknown message tag {t}"))),
        };
        if bytes.has_remaining() {
            return Err(err("trailing bytes after message"));
        }
        Ok(msg)
    }
}

fn put_matrix(buf: &mut BytesMut, m: &MatrixPayload, body: MatrixBody) {
    match body {
        MatrixBody::Dense => put_matrix_dense(buf, m),
        MatrixBody::Sparse { nnz } => put_matrix_sparse(buf, m, nnz),
    }
}

fn put_matrix_dense(buf: &mut BytesMut, m: &MatrixPayload) {
    buf.put_u8(MATRIX_FORMAT_DENSE);
    buf.put_u32_le(m.rows);
    buf.put_u32_le(m.cols);
    // Values go straight into the message buffer, a block at a time: the
    // block is converted on the stack (explicitly little-endian, so the
    // encoding is identical on any host) and appended with one `put_slice`
    // instead of one capacity check per element. The caller reserved the
    // whole body, so no append reallocates.
    const BLOCK: usize = 256;
    let mut le = [0u8; BLOCK * 4];
    for block in m.data.chunks(BLOCK) {
        let le = &mut le[..block.len() * 4];
        for (dst, v) in le.chunks_exact_mut(4).zip(block) {
            dst.copy_from_slice(&v.to_le_bytes());
        }
        buf.put_slice(le);
    }
}

fn put_matrix_sparse(buf: &mut BytesMut, m: &MatrixPayload, nnz: usize) {
    buf.put_u8(MATRIX_FORMAT_SPARSE);
    buf.put_u32_le(m.rows);
    buf.put_u32_le(m.cols);
    debug_assert!(nnz <= u32::MAX as usize, "sparse entry count exceeds wire width");
    buf.put_u32_le(nnz as u32);
    // One (index, value) pair per stored entry, in strictly increasing
    // index order — the canonical form the decoder enforces. The nonzero
    // test is on the *bit pattern*: -0.0, NaN, Inf and subnormals are all
    // stored explicitly, so decode is bit-identical to the dense body.
    for (i, &v) in m.data.iter().enumerate() {
        if v.to_bits() == 0 {
            continue;
        }
        debug_assert!(i <= u32::MAX as usize, "sparse entry index exceeds wire width");
        let mut pair = [0u8; 8];
        pair[..4].copy_from_slice(&(i as u32).to_le_bytes());
        pair[4..].copy_from_slice(&v.to_le_bytes());
        buf.put_slice(&pair);
    }
}

fn get_matrix(bytes: &mut Bytes) -> Result<MatrixPayload, DecodeMessageError> {
    if bytes.remaining() < 9 {
        return Err(err("truncated matrix header"));
    }
    let format = bytes.get_u8();
    let rows = bytes.get_u32_le();
    let cols = bytes.get_u32_le();
    let n = rows.checked_mul(cols).ok_or_else(|| err("matrix dimensions overflow"))? as usize;
    match format {
        MATRIX_FORMAT_DENSE => {
            if bytes.remaining() < n * 4 {
                return Err(err("truncated matrix body"));
            }
            // Bulk body read: parse the contiguous little-endian body in one
            // pass over the underlying slice, then advance the cursor once.
            let (words, _) = bytes.chunk()[..n * 4].as_chunks::<4>();
            let data: Vec<f32> = words.iter().map(|&w| f32::from_le_bytes(w)).collect();
            bytes.advance(n * 4);
            Ok(MatrixPayload { rows, cols, data })
        }
        MATRIX_FORMAT_SPARSE => {
            if n > MAX_SPARSE_DENSE_ENTRIES {
                return Err(err("sparse matrix exceeds the decoder allocation bound"));
            }
            if bytes.remaining() < 4 {
                return Err(err("truncated sparse entry count"));
            }
            let nnz = bytes.get_u32_le() as usize;
            if nnz > n {
                return Err(err("sparse entry count exceeds matrix size"));
            }
            if bytes.remaining() < nnz * 8 {
                return Err(err("truncated sparse matrix body"));
            }
            let mut data = vec![0.0f32; n];
            let mut prev: Option<u32> = None;
            // gtv-lint: allow(determinism) -- 8-byte (u32 idx, f32 val) wire records, not f32 lanes
            for chunk in bytes.chunk()[..nnz * 8].chunks_exact(8) {
                let idx = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
                let val = f32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
                // Only the canonical form decodes: strictly increasing
                // indices, in range, and no explicitly-stored +0.0 bits
                // (those belong to the implicit zero fill). Anything else
                // would make re-encoding unstable.
                if prev.is_some_and(|p| idx <= p) {
                    return Err(err("sparse indices not strictly increasing"));
                }
                if idx as usize >= n {
                    return Err(err("sparse index out of range"));
                }
                if val.to_bits() == 0 {
                    return Err(err("sparse entry stores an implicit zero"));
                }
                data[idx as usize] = val;
                prev = Some(idx);
            }
            bytes.advance(nnz * 8);
            Ok(MatrixPayload { rows, cols, data })
        }
        f => Err(err(&format!("unknown matrix format {f}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_matrix() -> MatrixPayload {
        MatrixPayload::new(2, 3, vec![1.0, -2.0, 3.5, 0.0, 7.25, -0.5])
    }

    #[test]
    fn roundtrip_all_variants() {
        for m in golden_messages() {
            for codec in [WireCodec::Dense, WireCodec::Adaptive] {
                assert_eq!(Message::decode(m.encode_with(codec)).unwrap(), m, "{codec:?}");
            }
        }
    }

    #[test]
    fn rejects_truncated_and_garbage() {
        assert!(Message::decode(Bytes::new()).is_err());
        assert!(Message::decode(Bytes::from_static(&[99])).is_err());
        let enc = Message::GenSlice(demo_matrix()).encode();
        let truncated = enc.slice(0..enc.len() - 3);
        assert!(Message::decode(truncated).is_err());
    }

    #[test]
    fn rejects_trailing_bytes() {
        let mut enc = Message::ShuffleSeedShare { share: 1 }.encode().to_vec();
        enc.push(0);
        assert!(Message::decode(Bytes::from(enc)).is_err());
    }

    #[test]
    fn encoded_len_matches() {
        let m = demo_matrix();
        // Format byte + 8-byte header + 4 bytes per entry.
        assert_eq!(m.encoded_len(), 9 + 6 * 4);
        let enc = Message::GenSlice(m).encode();
        assert_eq!(enc.len(), 1 + 9 + 24);
    }

    #[test]
    fn adaptive_codec_picks_sparse_only_when_smaller() {
        // 1 nonzero out of 8: sparse (13 + 8) beats dense (9 + 32).
        let sparse = MatrixPayload::new(2, 4, vec![0.0, 0.0, 3.5, 0.0, 0.0, 0.0, 0.0, 0.0]);
        assert!(sparse.adaptive_is_sparse());
        assert_eq!(sparse.encoded_len_with(WireCodec::Adaptive), 13 + 8);
        assert_eq!(sparse.encoded_len_with(WireCodec::Dense), 9 + 32);
        let enc = Message::GenSlice(sparse.clone()).encode_with(WireCodec::Adaptive);
        assert_eq!(enc.len(), 1 + 13 + 8);
        assert_eq!(Message::decode(enc).unwrap(), Message::GenSlice(sparse));
        // Fully dense matrix: adaptive falls back to the dense body.
        let dense = demo_matrix();
        assert!(!dense.adaptive_is_sparse());
        let enc = Message::GenSlice(dense.clone()).encode_with(WireCodec::Adaptive);
        assert_eq!(enc.len(), 1 + dense.encoded_len());
        assert_eq!(Message::decode(enc).unwrap(), Message::GenSlice(dense));
    }

    #[test]
    fn sparse_body_preserves_nonfinite_and_signed_zero_bits() {
        // -0.0 has a nonzero bit pattern and must be stored explicitly;
        // NaN/Inf must survive bit-exactly. One +0.0 keeps the row sparse.
        let m = MatrixPayload::new(1, 6, vec![0.0, -0.0, f32::NAN, f32::INFINITY, 0.0, 0.0]);
        assert_eq!(m.stored_entries(), 3);
        let enc = Message::SynthLogits(m.clone()).encode_with(WireCodec::Adaptive);
        let Message::SynthLogits(back) = Message::decode(enc).unwrap() else {
            panic!("variant must survive");
        };
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back.data), bits(&m.data));
    }

    #[test]
    fn sparse_decoder_rejects_non_canonical_bodies() {
        let mut buf = BytesMut::with_capacity(64);
        // tag GenSlice, sparse 1×4 with out-of-range index 9.
        buf.put_u8(2);
        buf.put_u8(MATRIX_FORMAT_SPARSE);
        buf.put_u32_le(1);
        buf.put_u32_le(4);
        buf.put_u32_le(1);
        buf.put_u32_le(9);
        buf.put_f32_le(1.0);
        assert!(Message::decode(buf.freeze()).is_err());
        // Non-increasing indices.
        let mut buf = BytesMut::with_capacity(64);
        buf.put_u8(2);
        buf.put_u8(MATRIX_FORMAT_SPARSE);
        buf.put_u32_le(1);
        buf.put_u32_le(4);
        buf.put_u32_le(2);
        buf.put_u32_le(1);
        buf.put_f32_le(1.0);
        buf.put_u32_le(1);
        buf.put_f32_le(2.0);
        assert!(Message::decode(buf.freeze()).is_err());
        // An explicitly-stored +0.0 belongs to the implicit fill.
        let mut buf = BytesMut::with_capacity(64);
        buf.put_u8(2);
        buf.put_u8(MATRIX_FORMAT_SPARSE);
        buf.put_u32_le(1);
        buf.put_u32_le(4);
        buf.put_u32_le(1);
        buf.put_u32_le(0);
        buf.put_f32_le(0.0);
        assert!(Message::decode(buf.freeze()).is_err());
        // Unknown format byte.
        let mut buf = BytesMut::with_capacity(64);
        buf.put_u8(2);
        buf.put_u8(7);
        buf.put_u32_le(1);
        buf.put_u32_le(1);
        buf.put_f32_le(1.0);
        assert!(Message::decode(buf.freeze()).is_err());
    }

    /// One small message per variant. The matrix is 2×4 with two stored
    /// entries (`-0.0` and `1.5`), so `Adaptive` gives it the sparse body
    /// (13 + 16 < 9 + 32 bytes).
    fn golden_messages() -> Vec<Message> {
        let m = || MatrixPayload::new(2, 4, vec![0.0, -0.0, 0.0, 0.0, 0.0, 0.0, 1.5, 0.0]);
        vec![
            Message::RoundStart { round: 0x0102_0304_0506_0708, selected: 3 },
            Message::CondUpload { cv: m(), indices: vec![7, 0x0a0b_0c0d] },
            Message::GenSlice(m()),
            Message::SynthLogits(m()),
            Message::RealLogits(m()),
            Message::GradLogits(m()),
            Message::GradGenSlice(m()),
            Message::SyntheticShare(m()),
            Message::ShuffleSeedShare { share: 0xdead_beef_0bad_f00d },
            Message::IndexShare { indices: vec![1, 2, 0xffff_ffff] },
        ]
    }

    /// `(dense, adaptive)` encodings of [`golden_messages`] in hex, as the
    /// encoder of commit cc9bbec (scratch body, growing buffer, copying
    /// `freeze`) produced them. Wire format v2 is these bytes.
    const GOLDEN_HEX: [(&str, &str); 10] = [
        ("00080706050403020103000000", "00080706050403020103000000"),
        (
            "010002000000040000000000000000000080000000000000000000000000000000000000c03f00000000\
             02000000070000000d0c0b0a",
            "01010200000004000000020000000100000000000080060000000000c03f\
             02000000070000000d0c0b0a",
        ),
        (
            "020002000000040000000000000000000080000000000000000000000000000000000000c03f00000000",
            "02010200000004000000020000000100000000000080060000000000c03f",
        ),
        (
            "030002000000040000000000000000000080000000000000000000000000000000000000c03f00000000",
            "03010200000004000000020000000100000000000080060000000000c03f",
        ),
        (
            "040002000000040000000000000000000080000000000000000000000000000000000000c03f00000000",
            "04010200000004000000020000000100000000000080060000000000c03f",
        ),
        (
            "050002000000040000000000000000000080000000000000000000000000000000000000c03f00000000",
            "05010200000004000000020000000100000000000080060000000000c03f",
        ),
        (
            "060002000000040000000000000000000080000000000000000000000000000000000000c03f00000000",
            "06010200000004000000020000000100000000000080060000000000c03f",
        ),
        (
            "070002000000040000000000000000000080000000000000000000000000000000000000c03f00000000",
            "07010200000004000000020000000100000000000080060000000000c03f",
        ),
        ("080df0ad0befbeadde", "080df0ad0befbeadde"),
        ("09030000000100000002000000ffffffff", "09030000000100000002000000ffffffff"),
    ];

    #[test]
    fn encodings_match_the_golden_bytes() {
        let hex = |b: &[u8]| b.iter().map(|x| format!("{x:02x}")).collect::<String>();
        let msgs = golden_messages();
        assert_eq!(msgs.len(), GOLDEN_HEX.len());
        for (m, (dense, adaptive)) in msgs.iter().zip(GOLDEN_HEX) {
            assert_eq!(hex(&m.encode_with(WireCodec::Dense)), dense, "{} dense", m.kind());
            assert_eq!(hex(&m.encode_with(WireCodec::Adaptive)), adaptive, "{} adaptive", m.kind());
            assert_eq!(hex(&m.encode()), dense, "{}: encode() is the dense codec", m.kind());
        }
    }

    #[test]
    fn dense_body_blocks_join_without_a_seam() {
        // Sizes around the encoder's 256-value staging block: every value
        // lands at byte 10 + 4·i whatever block it travelled in.
        for n in [0u32, 1, 255, 256, 257, 512, 1000] {
            let data: Vec<f32> = (0..n).map(|i| i as f32 - 0.5).collect();
            let enc = Message::GenSlice(MatrixPayload::new(1, n, data.clone())).encode();
            assert_eq!(enc.len(), 10 + 4 * n as usize);
            for (i, v) in data.iter().enumerate() {
                assert_eq!(enc[10 + 4 * i..14 + 4 * i], v.to_le_bytes(), "value {i} of {n}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "payload shape mismatch")]
    fn payload_shape_check_does_not_wrap() {
        // 65 536 × 65 536 is 0 in `u32`: unwidened, the empty buffer passes
        // in release and debug dies of arithmetic overflow instead.
        let _ = MatrixPayload::new(65_536, 65_536, Vec::new());
    }

    #[test]
    fn kind_names_every_variant() {
        assert_eq!(Message::RoundStart { round: 0, selected: 0 }.kind(), "RoundStart");
        assert_eq!(Message::GenSlice(demo_matrix()).kind(), "GenSlice");
        assert_eq!(Message::ShuffleSeedShare { share: 0 }.kind(), "ShuffleSeedShare");
    }
}
