//! Serve-session wire frames: the byte surface of `gtv-cli serve-synth`.
//!
//! [`ServeFrame`] is a `gtv_vfl::socket::framing::FrameCodec`: it rides the
//! one socket layer the party transport uses — the same length prefix and
//! body bound, reassembly buffer, reader and writers — so this module
//! holds only the opcodes and field layout. Every malformed input is a
//! typed [`TransportError::Frame`], never a panic. The serve session speaks
//! its own opcode space so a synthesis client can never be confused with a
//! training party: the first frame on a connection must be
//! [`ServeFrame::SynthHello`], which a training node rejects as an unknown
//! opcode (and vice versa).
//!
//! The session order is the code that serves it: `SynthServer::handshake`
//! and `ServeConn::connect` accept only the hello exchange, and
//! `SynthServer::admit` and `ServeConn::synth` only a request and its
//! answer (DESIGN.md §14).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use gtv_vfl::socket::framing::{put_short_str, put_u32, put_u64, Body, FrameCodec, MAX_REASON};
use gtv_vfl::TransportError;

/// Serve-session protocol version, negotiated by `SynthHello`.
pub const SERVE_PROTOCOL: u32 = 1;

/// Longest accepted model name on the wire.
pub const MAX_MODEL_NAME: usize = 256;

/// A conditional-vector choice carried by a request: one category of one
/// categorical column owned by one client (CTGAN-style conditioning).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireCond {
    /// Index of the client that owns the conditioned column.
    pub client: u64,
    /// Client-local column index.
    pub column: u64,
    /// Category index within that column.
    pub category: u64,
}

/// One serve-session frame.
///
/// `SynthHello`/`SynthHelloAck` open a session; each `SynthRequest` is
/// answered by exactly one of `SynthRows` (the sampled table as CSV
/// bytes), `SynthBusy` (admission rejection with a retry hint) or
/// `SynthErr` (typed failure), correlated by the client-chosen `id` so
/// requests may be pipelined.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeFrame {
    /// Client → server session opener carrying the protocol version.
    SynthHello {
        /// The client's [`SERVE_PROTOCOL`].
        protocol: u32,
    },
    /// Server → client hello acceptance.
    SynthHelloAck {
        /// The server's [`SERVE_PROTOCOL`].
        protocol: u32,
    },
    /// Client → server sampling request.
    SynthRequest {
        /// Client-chosen correlation id, echoed in the response.
        id: u64,
        /// Registry name of the model to sample from.
        model: String,
        /// Number of rows requested.
        n: u64,
        /// Request seed; rows are bit-reproducible functions of it.
        seed: u64,
        /// Optional fixed condition (`None` samples per the original
        /// frequencies).
        cond: Option<WireCond>,
        /// Deadline in engine ticks (batch sequence numbers), 0 meaning
        /// "expire unless picked up by the very next batch".
        deadline_ticks: u64,
    },
    /// Server → client response: the sampled rows as CSV bytes.
    SynthRows {
        /// Correlation id of the answered request.
        id: u64,
        /// The synthesized table, CSV-encoded.
        csv: Vec<u8>,
    },
    /// Server → client admission rejection: the bounded queue is full.
    SynthBusy {
        /// Correlation id of the rejected request.
        id: u64,
        /// Queue depth observed at rejection.
        depth: u64,
        /// How many engine ticks to wait before retrying.
        retry_after_ticks: u64,
    },
    /// Server → client typed failure (bad request, expired deadline, …).
    /// The reason is clipped to `MAX_REASON` bytes on a character boundary.
    SynthErr {
        /// Correlation id of the failed request (0 during handshake).
        id: u64,
        /// Human-readable failure reason.
        reason: String,
    },
}

impl ServeFrame {
    /// The variant name, as named in session-error reasons.
    pub fn kind(&self) -> &'static str {
        match self {
            ServeFrame::SynthHello { .. } => "SynthHello",
            ServeFrame::SynthHelloAck { .. } => "SynthHelloAck",
            ServeFrame::SynthRequest { .. } => "SynthRequest",
            ServeFrame::SynthRows { .. } => "SynthRows",
            ServeFrame::SynthBusy { .. } => "SynthBusy",
            ServeFrame::SynthErr { .. } => "SynthErr",
        }
    }
}

/// Why a `SynthHello` carrying `protocol` must be rejected, if at all.
/// Pure so the rule is testable without a socket.
pub fn serve_reject_reason(protocol: u32) -> Option<String> {
    (protocol != SERVE_PROTOCOL).then(|| {
        format!("serve protocol {protocol} not supported (this server speaks {SERVE_PROTOCOL})")
    })
}

const OP_HELLO: u8 = 0x51;
const OP_HELLO_ACK: u8 = 0x52;
const OP_REQUEST: u8 = 0x53;
const OP_ROWS: u8 = 0x54;
const OP_BUSY: u8 = 0x55;
const OP_ERR: u8 = 0x56;

fn frame_err(detail: impl Into<String>) -> TransportError {
    TransportError::Frame { detail: detail.into() }
}

impl FrameCodec for ServeFrame {
    /// Fails with a typed [`TransportError::Frame`] when the model name
    /// exceeds [`MAX_MODEL_NAME`] or the CSV length overflows its `u32`.
    fn encode_body(&self, out: &mut Vec<u8>) -> Result<(), TransportError> {
        match self {
            ServeFrame::SynthHello { protocol } => {
                out.push(OP_HELLO);
                put_u32(out, *protocol);
            }
            ServeFrame::SynthHelloAck { protocol } => {
                out.push(OP_HELLO_ACK);
                put_u32(out, *protocol);
            }
            ServeFrame::SynthRequest { id, model, n, seed, cond, deadline_ticks } => {
                // A clipped name would ask for another model: refuse instead.
                if model.len() > MAX_MODEL_NAME {
                    return Err(frame_err(format!(
                        "model name is {} bytes, cap {MAX_MODEL_NAME}",
                        model.len()
                    )));
                }
                out.push(OP_REQUEST);
                put_u64(out, *id);
                put_u64(out, *n);
                put_u64(out, *seed);
                put_u64(out, *deadline_ticks);
                match cond {
                    Some(c) => {
                        out.push(1);
                        put_u64(out, c.client);
                        put_u64(out, c.column);
                        put_u64(out, c.category);
                    }
                    None => out.push(0),
                }
                put_short_str(out, model, MAX_MODEL_NAME);
            }
            ServeFrame::SynthRows { id, csv } => {
                let len =
                    u32::try_from(csv.len()).map_err(|_| frame_err("CSV length overflows u32"))?;
                out.reserve(13 + csv.len());
                out.push(OP_ROWS);
                put_u64(out, *id);
                put_u32(out, len);
                out.extend_from_slice(csv);
            }
            ServeFrame::SynthBusy { id, depth, retry_after_ticks } => {
                out.push(OP_BUSY);
                put_u64(out, *id);
                put_u64(out, *depth);
                put_u64(out, *retry_after_ticks);
            }
            ServeFrame::SynthErr { id, reason } => {
                out.push(OP_ERR);
                put_u64(out, *id);
                put_short_str(out, reason, MAX_REASON);
            }
        }
        Ok(())
    }

    fn decode_body(body: &[u8]) -> Result<Self, TransportError> {
        let mut b = Body::new(body);
        let frame = match b.u8("opcode")? {
            OP_HELLO => ServeFrame::SynthHello { protocol: b.u32("protocol")? },
            OP_HELLO_ACK => ServeFrame::SynthHelloAck { protocol: b.u32("protocol")? },
            OP_REQUEST => {
                let id = b.u64("id")?;
                let n = b.u64("n")?;
                let seed = b.u64("seed")?;
                let deadline_ticks = b.u64("deadline")?;
                let cond = match b.u8("cond tag")? {
                    0 => None,
                    1 => Some(WireCond {
                        client: b.u64("cond client")?,
                        column: b.u64("cond column")?,
                        category: b.u64("cond category")?,
                    }),
                    tag => return Err(frame_err(format!("bad cond tag {tag}"))),
                };
                let model = b.short_str("model name", MAX_MODEL_NAME)?;
                ServeFrame::SynthRequest { id, model, n, seed, cond, deadline_ticks }
            }
            OP_ROWS => {
                let id = b.u64("id")?;
                let len = b.u32("csv length")?;
                let len =
                    usize::try_from(len).map_err(|_| frame_err("csv length overflows usize"))?;
                let csv = b.take(len, "csv payload")?.to_vec();
                ServeFrame::SynthRows { id, csv }
            }
            OP_BUSY => ServeFrame::SynthBusy {
                id: b.u64("id")?,
                depth: b.u64("depth")?,
                retry_after_ticks: b.u64("retry")?,
            },
            OP_ERR => {
                let id = b.u64("id")?;
                let reason = b.short_str("error reason", MAX_REASON)?;
                ServeFrame::SynthErr { id, reason }
            }
            other => return Err(frame_err(format!("unknown serve opcode {other:#04x}"))),
        };
        b.finish(frame.kind())?;
        Ok(frame)
    }
}

/// Encodes one frame body (no length prefix; `write_frame` adds it).
///
/// Fails with a typed [`TransportError::Frame`] when a field exceeds its
/// wire bound.
pub fn encode_serve_frame(frame: &ServeFrame) -> Result<Vec<u8>, TransportError> {
    let mut out = Vec::new();
    frame.encode_body(&mut out)?;
    Ok(out)
}

/// Decodes one frame body (everything after the length prefix).
pub fn decode_serve_body(body: &[u8]) -> Result<ServeFrame, TransportError> {
    ServeFrame::decode_body(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exemplars() -> Vec<ServeFrame> {
        vec![
            ServeFrame::SynthHello { protocol: SERVE_PROTOCOL },
            ServeFrame::SynthHelloAck { protocol: SERVE_PROTOCOL },
            ServeFrame::SynthRequest {
                id: 7,
                model: "loan".to_string(),
                n: 128,
                seed: 42,
                cond: Some(WireCond { client: 1, column: 3, category: 2 }),
                deadline_ticks: 16,
            },
            ServeFrame::SynthRequest {
                id: 8,
                model: "adult".to_string(),
                n: 1,
                seed: 0,
                cond: None,
                deadline_ticks: 0,
            },
            ServeFrame::SynthRows { id: 7, csv: b"a,b\n1,2\n".to_vec() },
            ServeFrame::SynthBusy { id: 9, depth: 256, retry_after_ticks: 2 },
            ServeFrame::SynthErr { id: 9, reason: "unknown model \"x\"".to_string() },
        ]
    }

    #[test]
    fn every_variant_round_trips() {
        for frame in exemplars() {
            let body = encode_serve_frame(&frame).expect("encode");
            let back = decode_serve_body(&body).expect("decode");
            assert_eq!(frame, back);
        }
    }

    #[test]
    fn oversized_names_are_rejected_and_reasons_clipped_at_encode_time() {
        let long_model = ServeFrame::SynthRequest {
            id: 1,
            model: "m".repeat(MAX_MODEL_NAME + 1),
            n: 1,
            seed: 0,
            cond: None,
            deadline_ticks: 0,
        };
        assert!(encode_serve_frame(&long_model).is_err());
        let long_reason = ServeFrame::SynthErr { id: 1, reason: "r".repeat(MAX_REASON + 1) };
        let body = encode_serve_frame(&long_reason).expect("reasons are clipped, not refused");
        assert_eq!(
            decode_serve_body(&body).expect("decode"),
            ServeFrame::SynthErr { id: 1, reason: "r".repeat(MAX_REASON) }
        );
    }

    #[test]
    fn malformed_bodies_get_typed_errors_not_panics() {
        // Truncations at every prefix of a valid body.
        let body = encode_serve_frame(&exemplars()[2]).expect("encode");
        for cut in 0..body.len() {
            match decode_serve_body(&body[..cut]) {
                Ok(f) => panic!("truncated body decoded as {f:?}"),
                Err(TransportError::Frame { .. }) => {}
                Err(e) => panic!("unexpected error kind {e:?}"),
            }
        }
        // Unknown opcode.
        assert!(matches!(decode_serve_body(&[0xff]), Err(TransportError::Frame { .. })));
        // Trailing garbage.
        let mut noisy = encode_serve_frame(&exemplars()[0]).expect("encode");
        noisy.push(0);
        assert!(matches!(decode_serve_body(&noisy), Err(TransportError::Frame { .. })));
    }
}
