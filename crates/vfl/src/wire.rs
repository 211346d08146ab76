//! Wire format for every message exchanged in the GTV protocol.
//!
//! Messages are hand-encoded with [`bytes`] (length-prefixed matrices,
//! little-endian scalars) so the transport layer can meter *exactly* how
//! many bytes each protocol step moves — the paper's communication-overhead
//! discussion (§4.3.1) is reproduced from these counters.
//!
//! Matrix bodies use **wire format v3** (DESIGN.md §10): every matrix is
//! a one-byte format tag, always 0 (dense), then `rows`, `cols` and one
//! little-endian f32 per entry. A decoder refuses any other format byte.
//!
//! A dense body is written once and parsed only where it is read
//! (DESIGN.md §10): [`Message::decode`] validates its header and length and
//! keeps the bytes, [`MatrixPayload::gather_rows`] and
//! [`MatrixPayload::into_values`] parse what they return, and a payload
//! nobody reads goes back to the byte pool unparsed. [`DenseFrame`] writes
//! a matrix message's rows straight into its frame, and encoding that
//! message hands the frame on.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]
#![cfg_attr(
    not(test),
    deny(clippy::cast_possible_truncation, clippy::cast_possible_wrap, clippy::cast_sign_loss)
)]

use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::borrow::Cow;

/// How matrix bodies are written: wire format v3 has one body, so one
/// codec. Kept so callers that name a codec still build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireCodec {
    /// The dense body — one f32 per entry.
    #[default]
    Dense,
}

/// A dense f32 matrix payload.
///
/// Its values are either parsed (a payload built from a `Vec`) or still on
/// the wire (a decoded dense body, or one [`DenseFrame`] wrote): then they
/// are parsed where they are read, by [`MatrixPayload::gather_rows`],
/// [`MatrixPayload::into_values`] or [`MatrixPayload::values`]. Equality
/// compares the values' bits, whatever holds them.
#[derive(Clone)]
pub struct MatrixPayload {
    /// Number of rows.
    pub rows: u32,
    /// Number of columns.
    pub cols: u32,
    values: Values,
}

/// Where a payload's values are.
#[derive(Clone)]
enum Values {
    /// Row-major values (`rows * cols` entries).
    Parsed(Vec<f32>),
    /// A validated dense body: `rows * cols` little-endian values from
    /// `frame[at..]`. `frame` is the whole message it came in (or was
    /// written as), so encoding that message again can hand it on.
    Wire { frame: Bytes, at: usize },
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
        Self { rows, cols, values: Values::Parsed(data) }
    }

    /// Number of entries, `rows * cols`.
    pub fn len(&self) -> usize {
        self.rows as usize * self.cols as usize
    }

    /// Whether the matrix has no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The values, row-major: borrowed when parsed, parsed into a fresh
    /// buffer when still on the wire.
    pub fn values(&self) -> Cow<'_, [f32]> {
        match &self.values {
            Values::Parsed(data) => Cow::Borrowed(data),
            Values::Wire { .. } => {
                let mut data = Vec::with_capacity(self.len());
                data.extend(self.bits().map(f32::from_bits));
                Cow::Owned(data)
            }
        }
    }

    /// The values, row-major, in pooled storage
    /// ([`gtv_tensor::pool_mem`]): a parsed payload's own buffer, or a wire
    /// body parsed once, after which its frame goes back to the byte pool.
    pub fn into_values(self) -> Vec<f32> {
        match self.values {
            Values::Parsed(data) => data,
            Values::Wire { ref frame, at } => {
                let mut data = gtv_tensor::pool_mem::take(self.len());
                data.extend(le_words(&frame[at..at + 4 * self.len()]).map(f32::from_bits));
                self.recycle();
                data
            }
        }
    }

    /// The given rows (in order, repeats allowed), row-major, in pooled
    /// storage: only these rows are parsed.
    ///
    /// # Errors
    ///
    /// [`DecodeMessageError`] if a row index is out of range.
    pub fn gather_rows(&self, rows: &[usize]) -> Result<Vec<f32>, DecodeMessageError> {
        let width = self.cols as usize;
        if let Some(&r) = rows.iter().find(|&&r| r >= self.rows as usize) {
            return Err(err(&format!("row {r} out of range for {} rows", self.rows)));
        }
        let mut out = gtv_tensor::pool_mem::take(rows.len() * width);
        match &self.values {
            Values::Parsed(data) => {
                for &r in rows {
                    out.extend_from_slice(&data[r * width..(r + 1) * width]);
                }
            }
            Values::Wire { frame, at } => {
                for &r in rows {
                    let row = &frame[at + 4 * r * width..at + 4 * (r + 1) * width];
                    out.extend(le_words(row).map(f32::from_bits));
                }
            }
        }
        Ok(out)
    }

    /// Parks the payload's storage: parsed values in the tensor pool, a
    /// frame nobody else holds in the byte pool ([`gtv_tensor::pool_mem`]).
    pub fn recycle(self) {
        match self.values {
            Values::Parsed(data) => gtv_tensor::pool_mem::give(data),
            Values::Wire { frame, .. } => {
                if let Ok(buf) = frame.try_into_mut() {
                    gtv_tensor::pool_mem::give_bytes(buf.into());
                }
            }
        }
    }

    /// The values' bit patterns, row-major, parsed on the fly from a wire
    /// body.
    fn bits(&self) -> impl Iterator<Item = u32> + '_ {
        let (parsed, wire): (&[f32], &[u8]) = match &self.values {
            Values::Parsed(data) => (data, &[]),
            Values::Wire { frame, at } => (&[], &frame[*at..*at + 4 * self.len()]),
        };
        parsed.iter().map(|v| v.to_bits()).chain(le_words(wire))
    }

    /// Encoded size in bytes of the dense body (format byte, 8-byte header,
    /// 4 bytes per entry).
    pub fn encoded_len(&self) -> usize {
        9 + self.len() * 4
    }

    /// The frame this payload's dense body already is, if `tag` names the
    /// message it was decoded from or written as and nothing follows the
    /// body: encoding that message again is this frame.
    fn own_frame(&self, tag: u8) -> Option<&Bytes> {
        match &self.values {
            Values::Wire { frame, at }
                if *at == 10 && frame.len() == 10 + 4 * self.len() && frame[0] == tag =>
            {
                Some(frame)
            }
            _ => None,
        }
    }
}

impl PartialEq for MatrixPayload {
    fn eq(&self, other: &Self) -> bool {
        (self.rows, self.cols) == (other.rows, other.cols) && self.bits().eq(other.bits())
    }
}

impl std::fmt::Debug for MatrixPayload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MatrixPayload")
            .field("rows", &self.rows)
            .field("cols", &self.cols)
            .field("data", &self.values())
            .finish()
    }
}

/// Little-endian `u32` words of `bytes` (whose length is a multiple of 4).
fn le_words(bytes: &[u8]) -> impl Iterator<Item = u32> + '_ {
    bytes.as_chunks::<4>().0.iter().map(|&w| u32::from_le_bytes(w))
}

/// A matrix message written straight into its wire frame, row by row — the
/// one pass a table-sized upload makes (DESIGN.md §10). The frame comes from
/// the byte pool; [`DenseFrame::finish`] makes the message whose dense body
/// it is, and encoding that message hands the frame on uncopied.
#[derive(Debug)]
pub struct DenseFrame {
    /// The whole frame at its final length, from
    /// [`gtv_tensor::pool_mem::take_bytes_to_overwrite`]: every byte is
    /// written before `finish` hands it on, so none is cleared first.
    buf: BytesMut,
    /// Bytes written so far; rows land here.
    filled: usize,
    kind: fn(MatrixPayload) -> Message,
    rows: u32,
    cols: u32,
}

impl DenseFrame {
    /// Starts a `rows × cols` dense `kind` message (a matrix variant's
    /// constructor, e.g. `Message::RealLogits`).
    pub fn new(kind: fn(MatrixPayload) -> Message, rows: u32, cols: u32) -> Self {
        let len = 10 + 4 * rows as usize * cols as usize;
        let mut buf = BytesMut::from(gtv_tensor::pool_mem::take_bytes_to_overwrite(len));
        let header = &mut buf.as_mut()[..10];
        header[0] = kind(MatrixPayload::new(0, 0, Vec::new())).tag();
        header[1] = MATRIX_FORMAT_DENSE;
        header[2..6].copy_from_slice(&rows.to_le_bytes());
        header[6..].copy_from_slice(&cols.to_le_bytes());
        Self { buf, filled: 10, kind, rows, cols }
    }

    /// Writes the next row.
    ///
    /// # Panics
    ///
    /// Panics if the row is not `cols` wide, or past the last row.
    pub fn push_row(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.cols as usize, "row width");
        self.put(row.iter().copied());
    }

    /// Writes the next row as `row + noise`, one IEEE single add per value
    /// (the sums `Tensor::add` makes).
    ///
    /// # Panics
    ///
    /// Panics if either is not `cols` wide, or past the last row.
    pub fn push_row_sum(&mut self, row: &[f32], noise: &[f32]) {
        assert_eq!((row.len(), noise.len()), (self.cols as usize, self.cols as usize), "row width");
        self.put(row.iter().zip(noise).map(|(v, n)| v + n));
    }

    fn put(&mut self, values: impl Iterator<Item = f32>) {
        let end = self.filled + 4 * self.cols as usize;
        write_values(&mut self.buf.as_mut()[self.filled..end], values);
        self.filled = end;
    }

    /// The message: its payload's dense body is the frame just written.
    ///
    /// # Panics
    ///
    /// Panics unless exactly `rows` rows were written.
    pub fn finish(self) -> Message {
        assert_eq!(self.filled, self.buf.len(), "a dense frame needs every row");
        let values = Values::Wire { frame: self.buf.freeze(), at: 10 };
        (self.kind)(MatrixPayload { rows: self.rows, cols: self.cols, values })
    }
}

/// The matrix body format tag (wire format v3): the dense body is the
/// only one.
const MATRIX_FORMAT_DENSE: u8 = 0;

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

/// One client's contribution to the shared shuffle seed: 8 bytes on the
/// wire, readable only inside this crate (the negotiation XORs it in, the
/// codec writes it). It prints as `SeedShare(..)` and has no `Display`:
///
/// ```compile_fail
/// println!("{}", gtv_vfl::SeedShare::from(7));
/// ```
///
/// and no public way back to its value:
///
/// ```compile_fail
/// let raw: u64 = gtv_vfl::SeedShare::from(7).0;
/// ```
///
/// ```compile_fail
/// let raw = u64::from(gtv_vfl::SeedShare::from(7));
/// ```
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct SeedShare(pub(crate) u64);

impl From<u64> for SeedShare {
    fn from(share: u64) -> Self {
        Self(share)
    }
}

impl std::fmt::Debug for SeedShare {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SeedShare(..)")
    }
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
    /// Server → client: gradient w.r.t. the client's uploaded logits. Sent
    /// only where the client owns critic parameters (`d_bottom > 0`).
    GradLogits(MatrixPayload),
    /// Server → client: gradient w.r.t. the `G^t` slice the client received.
    GradGenSlice(MatrixPayload),
    /// Client → public bulletin: its (shuffled) synthetic share.
    SyntheticShare(MatrixPayload),
    /// Client ↔ client: contribution to the shared shuffle seed (never
    /// routed through the server).
    ShuffleSeedShare {
        /// The client's random contribution.
        share: SeedShare,
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

    /// Parks the message's matrix storage, if it has any, in the calling
    /// thread's pools ([`MatrixPayload::recycle`]), where the next read,
    /// tensor, frame or encode of a compatible size picks it up: a sender
    /// calls this once the message is encoded, a receiver once it has read
    /// what it needs, or on a message it drops unread.
    pub fn recycle(self) {
        match self {
            Message::CondUpload { cv: m, .. }
            | Message::GenSlice(m)
            | Message::SynthLogits(m)
            | Message::RealLogits(m)
            | Message::GradLogits(m)
            | Message::GradGenSlice(m)
            | Message::SyntheticShare(m) => m.recycle(),
            Message::RoundStart { .. }
            | Message::ShuffleSeedShare { .. }
            | Message::IndexShare { .. } => {}
        }
    }

    /// Encodes to bytes.
    ///
    /// One pass: the buffer is taken from the byte pool at the exact encoded
    /// length, every value is written into it once and `freeze` hands that
    /// same buffer on (DESIGN.md §10). A matrix message whose dense body is
    /// already its frame — decoded, or written by a [`DenseFrame`] — is that
    /// frame: no pass at all.
    pub fn encode(&self) -> Bytes {
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
        if let Some(frame) = matrix.and_then(|m| m.own_frame(self.tag())) {
            return frame.clone();
        }
        let len = 1 + matrix.map_or(0, MatrixPayload::encoded_len) + tail;
        let mut buf = BytesMut::from(gtv_tensor::pool_mem::take_bytes(len));
        buf.put_u8(self.tag());
        if let Some(m) = matrix {
            put_matrix(&mut buf, m);
        }
        match self {
            Message::RoundStart { round, selected } => {
                buf.put_u64_le(*round);
                buf.put_u32_le(*selected);
            }
            Message::CondUpload { indices, .. } | Message::IndexShare { indices } => {
                debug_assert!(indices.len() <= u32::MAX as usize, "index count exceeds wire width");
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "an index list names rows of one table, far fewer than 2^32"
                )]
                buf.put_u32_le(indices.len() as u32);
                for &i in indices {
                    buf.put_u32_le(i);
                }
            }
            Message::ShuffleSeedShare { share } => buf.put_u64_le(share.0),
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

    /// [`Message::encode`]: `codec` has one value, the dense body.
    pub fn encode_with(&self, _codec: WireCodec) -> Bytes {
        self.encode()
    }

    /// Decodes from bytes. Every check is made here — a malformed message is
    /// an error now, never at a later read — but a dense matrix body is not
    /// parsed: the payload keeps `bytes` and reads its values out of them
    /// when asked (see [`MatrixPayload`]).
    ///
    /// # Errors
    ///
    /// Returns [`DecodeMessageError`] on truncated or malformed input.
    pub fn decode(bytes: Bytes) -> Result<Self, DecodeMessageError> {
        let frame = bytes.clone();
        let mut bytes = bytes;
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
                let cv = get_matrix(&mut bytes, &frame)?;
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
            2 => Message::GenSlice(get_matrix(&mut bytes, &frame)?),
            3 => Message::SynthLogits(get_matrix(&mut bytes, &frame)?),
            4 => Message::RealLogits(get_matrix(&mut bytes, &frame)?),
            5 => Message::GradLogits(get_matrix(&mut bytes, &frame)?),
            6 => Message::GradGenSlice(get_matrix(&mut bytes, &frame)?),
            7 => Message::SyntheticShare(get_matrix(&mut bytes, &frame)?),
            8 => {
                if bytes.remaining() < 8 {
                    return Err(err("truncated ShuffleSeedShare"));
                }
                Message::ShuffleSeedShare { share: SeedShare(bytes.get_u64_le()) }
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

fn put_matrix(buf: &mut BytesMut, m: &MatrixPayload) {
    buf.put_u8(MATRIX_FORMAT_DENSE);
    buf.put_u32_le(m.rows);
    buf.put_u32_le(m.cols);
    match &m.values {
        Values::Parsed(data) => put_values(buf, data),
        // Already little-endian: one copy.
        Values::Wire { frame, at } => buf.put_slice(&frame[*at..*at + 4 * m.len()]),
    }
}

/// Appends `values` little-endian, a block at a time: each block is
/// converted on the stack and appended with one `put_slice`, so the buffer
/// is written once. Callers reserve the whole body, so no append
/// reallocates.
fn put_values(buf: &mut BytesMut, values: &[f32]) {
    const BLOCK: usize = 256;
    let mut le = [0u8; BLOCK * 4];
    for block in values.chunks(BLOCK) {
        let le = &mut le[..block.len() * 4];
        write_values(le, block.iter().copied());
        buf.put_slice(le);
    }
}

/// Writes `values` into `dst`, little-endian (explicitly, so the encoding is
/// identical on any host), each into its place.
fn write_values(dst: &mut [u8], values: impl Iterator<Item = f32>) {
    for (dst, v) in dst.as_chunks_mut::<4>().0.iter_mut().zip(values) {
        *dst = v.to_le_bytes();
    }
}

/// Decodes the matrix at `bytes`' cursor, a view into `frame`.
fn get_matrix(bytes: &mut Bytes, frame: &Bytes) -> Result<MatrixPayload, DecodeMessageError> {
    if bytes.remaining() < 9 {
        return Err(err("truncated matrix header"));
    }
    let format = bytes.get_u8();
    let rows = bytes.get_u32_le();
    let cols = bytes.get_u32_le();
    let n = rows.checked_mul(cols).ok_or_else(|| err("matrix dimensions overflow"))? as usize;
    if format != MATRIX_FORMAT_DENSE {
        return Err(err(&format!("unknown matrix format {format}")));
    }
    if bytes.remaining() < n * 4 {
        return Err(err("truncated matrix body"));
    }
    // The body is checked, not parsed: the payload keeps the frame and reads
    // its values where they are read.
    let at = frame.len() - bytes.remaining();
    bytes.advance(n * 4);
    Ok(MatrixPayload { rows, cols, values: Values::Wire { frame: frame.clone(), at } })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn demo_matrix() -> MatrixPayload {
        MatrixPayload::new(2, 3, vec![1.0, -2.0, 3.5, 0.0, 7.25, -0.5])
    }

    #[test]
    fn roundtrip_all_variants() {
        for m in golden_messages() {
            assert_eq!(Message::decode(m.encode()).unwrap(), m, "{}", m.kind());
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
        let mut enc = Message::ShuffleSeedShare { share: SeedShare::from(1) }.encode().to_vec();
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
    fn decoder_rejects_an_unknown_matrix_format() {
        let unknown = |bytes: Bytes| Message::decode(bytes).unwrap_err().message;
        // tag GenSlice, format 7, a 1×1 body.
        let mut buf = BytesMut::with_capacity(64);
        buf.put_u8(2);
        buf.put_u8(7);
        buf.put_u32_le(1);
        buf.put_u32_le(1);
        buf.put_f32_le(1.0);
        assert_eq!(unknown(buf.freeze()), "unknown matrix format 7");
        // The golden `GenSlice` in the sparse body wire format v2 could also
        // carry (format 1): a v3 decoder refuses it by name.
        let v2_sparse = "02010200000004000000020000000100000000000080060000000000c03f";
        let bytes = (0..v2_sparse.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&v2_sparse[i..i + 2], 16).unwrap())
            .collect::<Vec<_>>();
        assert_eq!(unknown(Bytes::from(bytes)), "unknown matrix format 1");
    }

    /// One small message per variant, each at its [`golden_index`]. The
    /// matrix is 2×4: `-0.0` and `1.5` among `+0.0`s.
    pub(crate) fn golden_messages() -> Vec<Message> {
        let m = || MatrixPayload::new(2, 4, vec![0.0, -0.0, 0.0, 0.0, 0.0, 0.0, 1.5, 0.0]);
        let msgs = vec![
            Message::RoundStart { round: 0x0102_0304_0506_0708, selected: 3 },
            Message::CondUpload { cv: m(), indices: vec![7, 0x0a0b_0c0d] },
            Message::GenSlice(m()),
            Message::SynthLogits(m()),
            Message::RealLogits(m()),
            Message::GradLogits(m()),
            Message::GradGenSlice(m()),
            Message::SyntheticShare(m()),
            Message::ShuffleSeedShare { share: SeedShare::from(0xdead_beef_0bad_f00d) },
            Message::IndexShare { indices: vec![1, 2, 0xffff_ffff] },
        ];
        for (i, msg) in msgs.iter().enumerate() {
            assert_eq!(golden_index(msg), i, "golden message {i} is a {}", msg.kind());
        }
        msgs
    }

    /// Where `m`'s variant sits in [`golden_messages`] and [`GOLDEN_HEX`].
    /// No wildcard: a new variant does not compile until it has an arm
    /// here, a golden message and golden bytes, and `roundtrip_all_variants`
    /// then fails until it has a decode arm.
    fn golden_index(m: &Message) -> usize {
        match m {
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

    /// Encodings of [`golden_messages`] in hex, as the encoder of commit
    /// cc9bbec (scratch body, growing buffer, copying `freeze`) produced
    /// them. Wire format v3 is these bytes.
    const GOLDEN_HEX: [&str; 10] = [
        "00080706050403020103000000",
        "010002000000040000000000000000000080000000000000000000000000000000000000c03f00000000\
         02000000070000000d0c0b0a",
        "020002000000040000000000000000000080000000000000000000000000000000000000c03f00000000",
        "030002000000040000000000000000000080000000000000000000000000000000000000c03f00000000",
        "040002000000040000000000000000000080000000000000000000000000000000000000c03f00000000",
        "050002000000040000000000000000000080000000000000000000000000000000000000c03f00000000",
        "060002000000040000000000000000000080000000000000000000000000000000000000c03f00000000",
        "070002000000040000000000000000000080000000000000000000000000000000000000c03f00000000",
        "080df0ad0befbeadde",
        "09030000000100000002000000ffffffff",
    ];

    #[test]
    fn encodings_match_the_golden_bytes() {
        let hex = |b: &[u8]| b.iter().map(|x| format!("{x:02x}")).collect::<String>();
        let msgs = golden_messages();
        assert_eq!(msgs.len(), GOLDEN_HEX.len());
        for (m, golden) in msgs.iter().zip(GOLDEN_HEX) {
            assert_eq!(hex(&m.encode()), golden, "{}", m.kind());
            assert_eq!(m.encode_with(WireCodec::Dense), m.encode(), "{}", m.kind());
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
    fn a_decoded_dense_message_re_encodes_as_its_own_frame() {
        let enc = Message::SynthLogits(demo_matrix()).encode();
        let decoded = Message::decode(enc.clone()).unwrap();
        let again = decoded.encode();
        assert_eq!(again, enc);
        assert_eq!(again.as_ptr(), enc.as_ptr(), "re-encoding a decoded message copies nothing");
        // Moved into another variant the body is copied, under its new tag.
        let Message::SynthLogits(m) = decoded else { panic!("variant must survive") };
        let moved = Message::GradLogits(m).encode();
        assert_eq!((moved[0], &moved[1..]), (5, &enc[1..]));
        assert_ne!(moved.as_ptr(), enc.as_ptr());
    }

    #[test]
    fn a_dense_frame_is_the_encoding_of_its_rows() {
        let m = demo_matrix();
        let noise = [0.5, -0.25, 1.0];
        for noisy in [false, true] {
            // The frame's buffer holds another message's bytes: every one
            // must be overwritten.
            gtv_tensor::pool_mem::clear();
            gtv_tensor::pool_mem::give_bytes(vec![0xAA; 256]);
            let mut frame = DenseFrame::new(Message::RealLogits, 2, 3);
            let mut sums = Vec::new();
            for row in m.values().chunks_exact(3) {
                if noisy {
                    frame.push_row_sum(row, &noise);
                    sums.extend(row.iter().zip(&noise).map(|(v, n)| v + n));
                } else {
                    frame.push_row(row);
                    sums.extend_from_slice(row);
                }
            }
            let msg = frame.finish();
            let reference = Message::RealLogits(MatrixPayload::new(2, 3, sums));
            assert_eq!(msg, reference);
            let enc = msg.encode();
            assert_eq!(enc, reference.encode(), "noisy = {noisy}");
            assert_eq!(msg.encode().as_ptr(), enc.as_ptr(), "the frame is the encoding");
        }
    }

    #[test]
    #[should_panic(expected = "a dense frame needs every row")]
    fn a_short_dense_frame_does_not_finish() {
        let mut frame = DenseFrame::new(Message::RealLogits, 2, 3);
        frame.push_row(&[1.0, 2.0, 3.0]);
        let _ = frame.finish();
    }

    #[test]
    fn rows_are_read_out_of_the_body_and_range_checked() {
        let m = demo_matrix();
        let Message::GenSlice(wire) =
            Message::decode(Message::GenSlice(m.clone()).encode()).unwrap()
        else {
            panic!("variant must survive")
        };
        for payload in [&m, &wire] {
            assert_eq!(
                payload.gather_rows(&[1, 0, 1]).unwrap(),
                [0.0, 7.25, -0.5, 1.0, -2.0, 3.5, 0.0, 7.25, -0.5]
            );
            assert!(payload.gather_rows(&[0, 2]).is_err(), "row 2 of 2");
        }
        assert_eq!(wire.clone().into_values(), m.clone().into_values());
    }

    #[test]
    fn a_frame_read_and_recycled_goes_back_to_the_byte_pool() {
        gtv_tensor::pool_mem::clear();
        let n = 128;
        let msg = Message::RealLogits(MatrixPayload::new(1, n, vec![1.5; n as usize]));
        let decoded = Message::decode(msg.encode()).unwrap();
        decoded.recycle();
        let held = gtv_tensor::pool_mem::stats().byte_bytes_held;
        assert!(held >= 10 + 4 * n as usize, "the unique frame is parked: {held}");
        let before = gtv_tensor::pool_mem::stats().byte_hits;
        let _ = msg.encode();
        assert_eq!(
            gtv_tensor::pool_mem::stats().byte_hits,
            before + 1,
            "the next encode reuses it"
        );
        gtv_tensor::pool_mem::clear();
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
        assert_eq!(
            Message::ShuffleSeedShare { share: SeedShare::from(0) }.kind(),
            "ShuffleSeedShare"
        );
    }
}
