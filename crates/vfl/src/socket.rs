//! The socket layer both wires run on, and the party transport built on it.
//!
//! **One layer.** Every frame on every socket is a `u32`-little-endian
//! length prefix and a body bounded by [`framing::MAX_FRAME_BODY`]. A wire
//! is a [`FrameCodec`] — how one body is written and read — and everything
//! else is shared: [`Stream`], [`Listener`] (bind, accept, unlink on drop),
//! [`dial`] with bounded backoff, the reassembly buffer
//! [`FrameBuf<F>`](FrameBuf), [`read_frame`] and [`write_frame`]. Two codecs
//! implement it: the party transport's [`Frame`] and the synthesis
//! session's `ServeFrame` in `gtv-serve`. Each session keeps its own
//! handshake, opcode space, versions and timeouts.
//!
//! **The party transport.** Every party hosts a [`PartyNode`] — a small
//! daemon owning that party's inbox — and the orchestrating process drives
//! the protocol through a [`SocketTransport`] whose every message genuinely
//! transits the socket as a framed exchange. Connection lifecycle is
//! first-class:
//!
//! * a hello handshake negotiates protocol + wire version and rejects
//!   mismatches with [`TransportError::HandshakeFailed`] — a wire v2 peer,
//!   which could send matrix bodies v3 no longer decodes, is refused here
//!   rather than mid-round;
//! * broken links redial with bounded exponential backoff;
//! * peer crash / EOF surfaces as [`TransportError::PeerDisconnected`],
//!   never a panic or an indefinite block (every read is deadline-bounded).
//!
//! Byte accounting is identical to the in-process backend: the shared
//! [`Meter`] counts the encoded message body only — frame headers and acks
//! are a property of the medium, not the protocol — so [`NetStats`] from a
//! socket run are comparable (and testably equal) to an in-process run.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]
#![cfg_attr(
    not(test),
    deny(clippy::cast_possible_truncation, clippy::cast_possible_wrap, clippy::cast_sign_loss)
)]

use crate::transport::{
    check_direction, Fault, Meter, NetStats, PartyId, Transport, TransportError,
};
use crate::wire::Message;
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::fmt;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::fs::FileTypeExt;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use framing::{encode_frame, Frame, FrameBuf, FrameCodec, PROTOCOL_VERSION, WIRE_VERSION};

/// The frame layer: opcode-tagged bodies behind a `u32`-little-endian
/// length prefix, with a hard bound on body size so a hostile or corrupt
/// length prefix can never drive allocation.
pub mod framing {
    use super::{Bytes, PartyId, TransportError};
    use std::marker::PhantomData;

    /// Version of the framing/handshake protocol spoken on the socket.
    pub const PROTOCOL_VERSION: u32 = 1;
    /// Version of the message wire format carried in `Deliver`/`Msg`
    /// payloads (wire format v3: every matrix body dense). A peer on another
    /// version is refused at the handshake: v2 could send sparse bodies,
    /// which a v3 decoder rejects.
    pub const WIRE_VERSION: u32 = 3;
    /// Upper bound on a frame body, for every codec. The largest legal wire
    /// message is a dense matrix of `2^28` f32 entries (1 GiB) plus headers;
    /// anything larger is rejected *before* any buffer is grown for it.
    pub const MAX_FRAME_BODY: usize = (1 << 30) + 4096;
    /// Upper bound on a reject or error reason, on both wires.
    pub const MAX_REASON: usize = 512;

    /// A wire's frame type: how one body is written and read. The length
    /// prefix, its bound and reassembly belong to the layer.
    pub trait FrameCodec: Sized {
        /// Appends this frame's body (opcode and fields, no length prefix)
        /// to `out`.
        ///
        /// # Errors
        ///
        /// [`TransportError::Frame`] when a field exceeds its wire bound.
        fn encode_body(&self, out: &mut Vec<u8>) -> Result<(), TransportError>;

        /// Decodes one body (everything after the length prefix). Total:
        /// every input yields a frame or a typed [`TransportError::Frame`].
        fn decode_body(body: &[u8]) -> Result<Self, TransportError>;
    }

    /// One party-transport frame.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Frame {
        /// Connection opener: the dialer announces its versions and which
        /// party it expects this node to host.
        Hello {
            /// Framing/handshake protocol version ([`PROTOCOL_VERSION`]).
            protocol: u32,
            /// Message wire-format version ([`WIRE_VERSION`]).
            wire: u32,
            /// The party the dialer expects at this endpoint.
            party: PartyId,
        },
        /// Handshake accepted; the node echoes the versions it speaks.
        HelloAck {
            /// Node's framing/handshake protocol version.
            protocol: u32,
            /// Node's message wire-format version.
            wire: u32,
        },
        /// Handshake rejected (version mismatch, wrong party, garbage).
        HelloReject {
            /// Human-readable rejection reason.
            reason: String,
        },
        /// Push one encoded protocol message into the node's inbox.
        Deliver {
            /// Originating party.
            from: PartyId,
            /// The `Message` in its wire encoding.
            payload: Bytes,
        },
        /// A `Deliver` landed in the inbox.
        DeliverAck,
        /// Pop the node's next inbox message, waiting up to `timeout_ms`.
        RecvReq {
            /// Bounded wait in milliseconds.
            timeout_ms: u64,
        },
        /// Pop the node's next inbox message without waiting.
        TryRecvReq,
        /// Reply to `RecvReq`/`TryRecvReq`: one popped message.
        Msg {
            /// Originating party.
            from: PartyId,
            /// The `Message` in its wire encoding.
            payload: Bytes,
        },
        /// Reply to `TryRecvReq`: the inbox is empty.
        Empty,
        /// Reply to `RecvReq`: nothing arrived within the bounded wait.
        TimedOut,
    }

    /// Why a hello with the given versions must be rejected, if at all.
    /// Pure so the rejection rule is testable without a socket.
    pub fn handshake_reject_reason(protocol: u32, wire: u32) -> Option<String> {
        if protocol != PROTOCOL_VERSION {
            return Some(format!(
                "unsupported transport protocol version {protocol} (this node speaks {PROTOCOL_VERSION})"
            ));
        }
        if wire != WIRE_VERSION {
            return Some(format!(
                "unsupported message wire version {wire} (this node speaks {WIRE_VERSION})"
            ));
        }
        None
    }

    fn put_u16(out: &mut Vec<u8>, v: u16) {
        out.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(out: &mut Vec<u8>, v: u32) {
        out.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(out: &mut Vec<u8>, v: u64) {
        out.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends `s` behind a `u16` length, clipped to at most `cap` bytes on
    /// a character boundary, so the bytes on the wire are always UTF-8.
    pub fn put_short_str(out: &mut Vec<u8>, s: &str, cap: usize) {
        let mut n = s.len().min(cap).min(usize::from(u16::MAX));
        while !s.is_char_boundary(n) {
            n -= 1;
        }
        put_u16(out, u16::try_from(n).unwrap_or(u16::MAX));
        out.extend_from_slice(&s.as_bytes()[..n]);
    }

    fn put_party(out: &mut Vec<u8>, p: PartyId) -> Result<(), TransportError> {
        match p {
            PartyId::Server => {
                out.push(0);
                put_u32(out, 0);
            }
            PartyId::Client(i) => {
                let idx = u32::try_from(i)
                    .map_err(|_| bad(format!("client index {i} exceeds the wire's u32")))?;
                out.push(1);
                put_u32(out, idx);
            }
            PartyId::Public => {
                out.push(2);
                put_u32(out, 0);
            }
        }
        Ok(())
    }

    /// A `Deliver`/`Msg` body: opcode, sender, then the message bytes,
    /// reserved in one step so a multi-megabyte payload grows the buffer once.
    fn put_carried(
        out: &mut Vec<u8>,
        op: u8,
        from: PartyId,
        payload: &[u8],
    ) -> Result<(), TransportError> {
        out.reserve(6 + payload.len());
        out.push(op);
        put_party(out, from)?;
        out.extend_from_slice(payload);
        Ok(())
    }

    fn bad(detail: String) -> TransportError {
        TransportError::Frame { detail }
    }

    /// Bounds-checked little-endian reader over one frame body. Every error
    /// is a [`TransportError::Frame`] naming the field that did not fit.
    #[derive(Debug)]
    pub struct Body<'a> {
        buf: &'a [u8],
        pos: usize,
    }

    impl<'a> Body<'a> {
        /// A reader at the start of `buf`.
        pub fn new(buf: &'a [u8]) -> Self {
            Self { buf, pos: 0 }
        }

        /// The next `n` bytes.
        pub fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], TransportError> {
            let left = self.buf.len() - self.pos;
            if n > left {
                return Err(bad(format!("truncated frame: {what} needs {n} bytes, {left} left")));
            }
            let s = &self.buf[self.pos..self.pos + n];
            self.pos += n;
            Ok(s)
        }

        fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N], TransportError> {
            let mut a = [0u8; N];
            a.copy_from_slice(self.take(N, what)?);
            Ok(a)
        }

        /// One byte.
        pub fn u8(&mut self, what: &str) -> Result<u8, TransportError> {
            Ok(self.take(1, what)?[0])
        }

        fn u16(&mut self, what: &str) -> Result<u16, TransportError> {
            self.array(what).map(u16::from_le_bytes)
        }

        /// A little-endian `u32`.
        pub fn u32(&mut self, what: &str) -> Result<u32, TransportError> {
            self.array(what).map(u32::from_le_bytes)
        }

        /// A little-endian `u64`.
        pub fn u64(&mut self, what: &str) -> Result<u64, TransportError> {
            self.array(what).map(u64::from_le_bytes)
        }

        /// A `u16`-prefixed UTF-8 string of at most `cap` bytes (the reader
        /// half of [`put_short_str`]).
        pub fn short_str(&mut self, what: &str, cap: usize) -> Result<String, TransportError> {
            let n = usize::from(self.u16(what)?);
            if n > cap {
                return Err(bad(format!("{what} is {n} bytes, cap {cap}")));
            }
            let bytes = self.take(n, what)?;
            String::from_utf8(bytes.to_vec()).map_err(|_| bad(format!("{what} is not UTF-8")))
        }

        /// Everything not yet read.
        fn rest(&mut self) -> &'a [u8] {
            let s = &self.buf[self.pos..];
            self.pos = self.buf.len();
            s
        }

        /// Succeeds only if the whole body was read.
        pub fn finish(self, what: &str) -> Result<(), TransportError> {
            match self.buf.len() - self.pos {
                0 => Ok(()),
                extra => Err(bad(format!("{extra} trailing bytes after {what}"))),
            }
        }
    }

    fn party(b: &mut Body<'_>) -> Result<PartyId, TransportError> {
        let tag = b.u8("party tag")?;
        let idx = b.u32("party index")?;
        match tag {
            0 => Ok(PartyId::Server),
            1 => Ok(PartyId::Client(idx as usize)),
            2 => Ok(PartyId::Public),
            other => Err(bad(format!("unknown party tag {other}"))),
        }
    }

    impl FrameCodec for Frame {
        fn encode_body(&self, out: &mut Vec<u8>) -> Result<(), TransportError> {
            match self {
                Frame::Hello { protocol, wire, party } => {
                    out.push(0);
                    put_u32(out, *protocol);
                    put_u32(out, *wire);
                    put_party(out, *party)?;
                }
                Frame::HelloAck { protocol, wire } => {
                    out.push(1);
                    put_u32(out, *protocol);
                    put_u32(out, *wire);
                }
                Frame::HelloReject { reason } => {
                    out.push(2);
                    put_short_str(out, reason, MAX_REASON);
                }
                Frame::Deliver { from, payload } => put_carried(out, 3, *from, payload)?,
                Frame::DeliverAck => out.push(4),
                Frame::RecvReq { timeout_ms } => {
                    out.push(5);
                    put_u64(out, *timeout_ms);
                }
                Frame::TryRecvReq => out.push(6),
                Frame::Msg { from, payload } => put_carried(out, 7, *from, payload)?,
                Frame::Empty => out.push(8),
                Frame::TimedOut => out.push(9),
            }
            Ok(())
        }

        fn decode_body(body: &[u8]) -> Result<Self, TransportError> {
            let mut b = Body::new(body);
            let frame = match b.u8("opcode")? {
                0 => Frame::Hello {
                    protocol: b.u32("protocol")?,
                    wire: b.u32("wire")?,
                    party: party(&mut b)?,
                },
                1 => Frame::HelloAck { protocol: b.u32("protocol")?, wire: b.u32("wire")? },
                2 => Frame::HelloReject { reason: b.short_str("reject reason", MAX_REASON)? },
                3 => {
                    Frame::Deliver { from: party(&mut b)?, payload: Bytes::from(b.rest().to_vec()) }
                }
                4 => Frame::DeliverAck,
                5 => Frame::RecvReq { timeout_ms: b.u64("timeout")? },
                6 => Frame::TryRecvReq,
                7 => Frame::Msg { from: party(&mut b)?, payload: Bytes::from(b.rest().to_vec()) },
                8 => Frame::Empty,
                9 => Frame::TimedOut,
                other => return Err(bad(format!("unknown frame opcode {other}"))),
            };
            b.finish("frame body")?;
            Ok(frame)
        }
    }

    /// Encodes `frame` as `u32-le body length ++ body` in one buffer: the
    /// body is written behind a reserved prefix, never copied.
    ///
    /// # Errors
    ///
    /// [`TransportError::Frame`] if a field exceeds its bound or the body
    /// exceeds [`MAX_FRAME_BODY`].
    pub fn encode_frame<F: FrameCodec>(frame: &F) -> Result<Vec<u8>, TransportError> {
        let mut out = vec![0u8; 4];
        frame.encode_body(&mut out)?;
        let len = out.len() - 4;
        match u32::try_from(len) {
            Ok(prefix) if len <= MAX_FRAME_BODY => out[..4].copy_from_slice(&prefix.to_le_bytes()),
            _ => return Err(bad(format!("frame body of {len} bytes exceeds {MAX_FRAME_BODY}"))),
        }
        Ok(out)
    }

    /// Incremental frame decoder over a byte stream that may arrive in
    /// arbitrary splits. Feed chunks with [`FrameBuf::extend`], pull frames
    /// with [`FrameBuf::next_frame`]. A length prefix over
    /// [`MAX_FRAME_BODY`] errors *before* any buffer grows toward it.
    #[derive(Debug)]
    pub struct FrameBuf<F> {
        buf: Vec<u8>,
        codec: PhantomData<fn() -> F>,
    }

    impl<F> Default for FrameBuf<F> {
        fn default() -> Self {
            Self { buf: Vec::new(), codec: PhantomData }
        }
    }

    impl<F: FrameCodec> FrameBuf<F> {
        /// An empty decoder.
        pub fn new() -> Self {
            Self::default()
        }

        /// Appends received bytes.
        pub fn extend(&mut self, chunk: &[u8]) {
            self.buf.extend_from_slice(chunk);
        }

        /// Bytes buffered but not yet consumed as a frame.
        pub fn buffered(&self) -> usize {
            self.buf.len()
        }

        /// Pops the next complete frame, `Ok(None)` if more bytes are
        /// needed.
        ///
        /// # Errors
        ///
        /// [`TransportError::Frame`] on an oversized length prefix or a
        /// malformed body; the decoder must be discarded afterwards (the
        /// stream has lost sync).
        pub fn next_frame(&mut self) -> Result<Option<F>, TransportError> {
            let Some(&[a, b, c, d]) = self.buf.get(..4) else {
                return Ok(None);
            };
            let len = u32::from_le_bytes([a, b, c, d]) as usize;
            if len > MAX_FRAME_BODY {
                return Err(bad(format!(
                    "length prefix {len} exceeds frame bound {MAX_FRAME_BODY}"
                )));
            }
            let total = 4 + len;
            if self.buf.len() < total {
                return Ok(None);
            }
            let frame = F::decode_body(&self.buf[4..total])?;
            self.buf.drain(..total);
            Ok(Some(frame))
        }
    }
}

/// Where a party listens: a TCP address or a Unix-domain socket path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// `host:port`.
    Tcp(String),
    /// Filesystem socket path.
    Unix(PathBuf),
}

impl Endpoint {
    /// Parses `"unix:/path/to.sock"` as a Unix-domain endpoint, anything
    /// else as a TCP `host:port`.
    pub fn parse(spec: &str) -> Self {
        match spec.strip_prefix("unix:") {
            Some(path) => Endpoint::Unix(PathBuf::from(path)),
            None => Endpoint::Tcp(spec.to_string()),
        }
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "{addr}"),
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

/// Connect attempts per [`dial`] (the peer may still be starting up).
const CONNECT_ATTEMPTS: u32 = 6;
/// Base of the exponential redial backoff.
const BACKOFF_BASE: Duration = Duration::from_millis(20);
/// How long a dialer waits for the hello reply.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);
/// How long a dialer waits for a `DeliverAck`/`Msg`/`Empty` reply.
const ACK_TIMEOUT: Duration = Duration::from_secs(10);
/// Slack added to a node-side bounded wait before the dialer's own read
/// deadline fires (the node answers `TimedOut` first in the healthy case).
const RECV_MARGIN: Duration = Duration::from_secs(2);
/// Node-side poll tick: bounded waits sleep in these steps instead of
/// reading a wall clock (denied on library paths by the determinism lint).
const POLL_INTERVAL: Duration = Duration::from_millis(1);
/// Accept-loop and per-connection read poll period (stop-flag latency).
const SERVE_POLL: Duration = Duration::from_millis(20);

/// One connected byte stream, TCP or Unix-domain. Reads block for at most
/// the read timeout set at [`dial`]/[`Listener::accept`] — one *tick* of
/// [`read_frame`].
#[derive(Debug)]
pub enum Stream {
    /// A TCP connection.
    Tcp(TcpStream),
    /// A Unix-domain connection.
    Unix(UnixStream),
}

impl Stream {
    /// Sets the kernel read timeout, i.e. the length of a read tick.
    fn set_read_timeout(&self, dur: Option<Duration>) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(dur),
            Stream::Unix(s) => s.set_read_timeout(dur),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

fn setup_failed(what: &str, detail: impl fmt::Display) -> TransportError {
    TransportError::HandshakeFailed { reason: format!("{what}: {detail}") }
}

/// Connects to `endpoint`, retrying up to 6 times with exponential
/// backoff from 20 ms (the peer may still be starting up). The stream blocks, with `tick` as its read timeout.
///
/// # Errors
///
/// [`TransportError::HandshakeFailed`] naming the endpoint and the last
/// connect error.
pub fn dial(endpoint: &Endpoint, tick: Duration) -> Result<Stream, TransportError> {
    let mut last_err = String::from("no dial attempted");
    for attempt in 0..CONNECT_ATTEMPTS {
        if attempt > 0 {
            // attempt < CONNECT_ATTEMPTS <= 31, so the shift cannot overflow.
            std::thread::sleep(BACKOFF_BASE * (1u32 << (attempt - 1)));
        }
        let conn = match endpoint {
            Endpoint::Tcp(addr) => TcpStream::connect(addr.as_str()).map(Stream::Tcp),
            Endpoint::Unix(path) => UnixStream::connect(path).map(Stream::Unix),
        };
        match conn {
            Ok(stream) => {
                stream
                    .set_read_timeout(Some(tick))
                    .map_err(|e| setup_failed("dialed stream", e))?;
                return Ok(stream);
            }
            Err(e) => last_err = e.to_string(),
        }
    }
    Err(TransportError::HandshakeFailed { reason: format!("dial {endpoint}: {last_err}") })
}

/// A bound, non-blocking listening socket (accept loops poll a stop flag
/// between [`Listener::accept`] calls). A Unix listener unlinks its socket
/// file on drop.
#[derive(Debug)]
pub struct Listener {
    socket: ListenSocket,
    endpoint: Endpoint,
}

#[derive(Debug)]
enum ListenSocket {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl Listener {
    /// Binds `endpoint`. A TCP port of `0` picks a free port (read it back
    /// via [`Listener::endpoint`]). A socket file left at a Unix path by a
    /// crashed listener is replaced; any other file there is left alone.
    ///
    /// # Errors
    ///
    /// [`TransportError::HandshakeFailed`] if the endpoint cannot be bound,
    /// naming the path when it holds something other than a socket.
    pub fn bind(endpoint: &Endpoint) -> Result<Self, TransportError> {
        let (socket, endpoint) = match endpoint {
            Endpoint::Tcp(addr) => {
                let l = TcpListener::bind(addr.as_str())
                    .map_err(|e| setup_failed("bind tcp endpoint", e))?;
                let local = l.local_addr().map_err(|e| setup_failed("bind tcp endpoint", e))?;
                (ListenSocket::Tcp(l), Endpoint::Tcp(local.to_string()))
            }
            Endpoint::Unix(path) => {
                remove_stale_socket(path)?;
                let l =
                    UnixListener::bind(path).map_err(|e| setup_failed("bind unix endpoint", e))?;
                (ListenSocket::Unix(l), Endpoint::Unix(path.clone()))
            }
        };
        // Built before the last fallible step, so a failure still unlinks.
        let listener = Self { socket, endpoint };
        match &listener.socket {
            ListenSocket::Tcp(l) => l.set_nonblocking(true),
            ListenSocket::Unix(l) => l.set_nonblocking(true),
        }
        .map_err(|e| setup_failed("listener setup", e))?;
        Ok(listener)
    }

    /// The bound endpoint, with any OS-assigned TCP port resolved.
    pub fn endpoint(&self) -> Endpoint {
        self.endpoint.clone()
    }

    /// Accepts one waiting connection, `Ok(None)` if none is waiting. The
    /// accepted stream blocks, with `tick` as its read timeout.
    ///
    /// # Errors
    ///
    /// [`TransportError::HandshakeFailed`] if the listening socket failed.
    pub fn accept(&self, tick: Duration) -> Result<Option<Stream>, TransportError> {
        let accepted = match &self.socket {
            ListenSocket::Tcp(l) => {
                l.accept().and_then(|(s, _)| s.set_nonblocking(false).map(|()| Stream::Tcp(s)))
            }
            ListenSocket::Unix(l) => {
                l.accept().and_then(|(s, _)| s.set_nonblocking(false).map(|()| Stream::Unix(s)))
            }
        };
        match accepted {
            Ok(stream) => {
                stream
                    .set_read_timeout(Some(tick))
                    .map_err(|e| setup_failed("accepted stream", e))?;
                Ok(Some(stream))
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(setup_failed("accept", e)),
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let Endpoint::Unix(path) = &self.endpoint {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Clears a Unix path for binding: a socket file (left by a crashed
/// listener) is removed; anything else there is refused, never deleted.
fn remove_stale_socket(path: &Path) -> Result<(), TransportError> {
    match std::fs::symlink_metadata(path) {
        Err(_) => Ok(()),
        Ok(meta) if meta.file_type().is_socket() => {
            std::fs::remove_file(path).map_err(|e| setup_failed("remove stale socket", e))
        }
        Ok(_) => Err(TransportError::HandshakeFailed {
            reason: format!("bind unix endpoint: {} exists and is not a socket", path.display()),
        }),
    }
}

/// Writes one frame — prefix and body from one buffer. A failed write
/// reports `peer` as disconnected.
///
/// # Errors
///
/// [`TransportError::Frame`] if the frame cannot be encoded,
/// [`TransportError::PeerDisconnected`] if the write fails.
pub fn write_frame<F: FrameCodec>(
    stream: &mut Stream,
    frame: &F,
    peer: PartyId,
) -> Result<(), TransportError> {
    let bytes = encode_frame(frame)?;
    stream
        .write_all(&bytes)
        .and_then(|()| stream.flush())
        .map_err(|_| TransportError::PeerDisconnected { party: peer })
}

/// Reads one complete frame. Each read blocks for at most one tick, the
/// stream's read timeout; a read that returns bytes resets the idle count,
/// and after `idle_ticks` consecutive idle ticks the error `on_timeout`
/// builds is returned. No sleep and no clock on this path.
///
/// # Errors
///
/// `on_timeout()` when the peer stays silent; EOF or a reset is
/// [`TransportError::PeerDisconnected`] naming `peer`; a malformed frame is
/// [`TransportError::Frame`], after which `fb` has lost sync.
pub fn read_frame<F: FrameCodec>(
    stream: &mut Stream,
    fb: &mut FrameBuf<F>,
    idle_ticks: u32,
    peer: PartyId,
    on_timeout: impl FnOnce() -> TransportError,
) -> Result<F, TransportError> {
    let mut chunk = [0u8; 65536];
    let mut idle = 0u32;
    loop {
        if let Some(frame) = fb.next_frame()? {
            return Ok(frame);
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Err(TransportError::PeerDisconnected { party: peer }),
            Ok(n) => {
                fb.extend(&chunk[..n]);
                idle = 0;
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                idle += 1;
                if idle >= idle_ticks {
                    return Err(on_timeout());
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return Err(TransportError::PeerDisconnected { party: peer }),
        }
    }
}

/// A party's inbox daemon: binds one endpoint, serves framed
/// deliver/receive exchanges for exactly one [`PartyId`], and validates
/// every dialer's version handshake. The inbox outlives connections, so a
/// dialer that crashes and redials resumes where it left off.
pub struct PartyNode {
    party: PartyId,
    listener: Listener,
    inbox: Mutex<VecDeque<(PartyId, Bytes)>>,
    stop: AtomicBool,
}

impl fmt::Debug for PartyNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PartyNode({} @ {})", self.party, self.endpoint())
    }
}

impl PartyNode {
    /// Binds `endpoint` for `party` (see [`Listener::bind`]: TCP port `0`
    /// picks a free port; only a stale socket file is replaced).
    ///
    /// # Errors
    ///
    /// [`TransportError::HandshakeFailed`] if the endpoint cannot be bound.
    pub fn bind(party: PartyId, endpoint: &Endpoint) -> Result<Self, TransportError> {
        Ok(Self {
            party,
            listener: Listener::bind(endpoint)?,
            inbox: Mutex::new(VecDeque::new()),
            stop: AtomicBool::new(false),
        })
    }

    /// The party this node hosts.
    pub fn party(&self) -> PartyId {
        self.party
    }

    /// The bound endpoint, with any OS-assigned TCP port resolved.
    pub fn endpoint(&self) -> Endpoint {
        self.listener.endpoint()
    }

    /// Asks [`PartyNode::serve`] to return after its current poll tick
    /// (callable from another thread through an `Arc<PartyNode>`).
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Accept-and-serve loop until [`PartyNode::request_stop`].
    /// Connections are served one at a time; per-connection failures sever
    /// that connection only and the node returns to accepting, so a peer
    /// may redial after a crash.
    ///
    /// # Errors
    ///
    /// Only listener-level failures (the listening socket itself died);
    /// anything a peer does wrong is answered or dropped, never fatal.
    pub fn serve(&self) -> Result<(), TransportError> {
        while !self.stop.load(Ordering::SeqCst) {
            match self.listener.accept(SERVE_POLL)? {
                Some(stream) => {
                    let _ = self.serve_conn(stream);
                }
                None => std::thread::sleep(SERVE_POLL),
            }
        }
        Ok(())
    }

    /// Serves one connection until EOF, a malformed frame, or a stop
    /// request. The first frame must be a version-valid `Hello` naming this
    /// node's party; everything else is answered from the inbox.
    fn serve_conn(&self, mut stream: Stream) -> Result<(), TransportError> {
        let mut fb = FrameBuf::new();
        let mut greeted = false;
        loop {
            if self.stop.load(Ordering::SeqCst) {
                return Ok(());
            }
            let frame =
                match read_frame(&mut stream, &mut fb, 1, self.party, || TransportError::Timeout {
                    party: self.party,
                    waited: SERVE_POLL,
                    round: None,
                    expecting: None,
                }) {
                    Ok(frame) => frame,
                    // Nothing arrived this tick: poll the stop flag and wait on.
                    Err(TransportError::Timeout { .. }) => continue,
                    // Peer hung up; return to accepting (it may redial).
                    Err(TransportError::PeerDisconnected { .. }) => return Ok(()),
                    // Malformed frame: the stream lost sync — drop it.
                    Err(e) => return Err(e),
                };
            match frame {
                Frame::Hello { protocol, wire, party } => {
                    let reject = framing::handshake_reject_reason(protocol, wire).or_else(|| {
                        (party != self.party)
                            .then(|| format!("this node hosts {}, not {party}", self.party))
                    });
                    match reject {
                        Some(reason) => {
                            let _ = write_frame(
                                &mut stream,
                                &Frame::HelloReject { reason },
                                self.party,
                            );
                            return Ok(());
                        }
                        None => {
                            greeted = true;
                            write_frame(
                                &mut stream,
                                &Frame::HelloAck { protocol: PROTOCOL_VERSION, wire: WIRE_VERSION },
                                self.party,
                            )?;
                        }
                    }
                }
                _ if !greeted => {
                    let _ = write_frame(
                        &mut stream,
                        &Frame::HelloReject {
                            reason: "handshake required before any other frame".to_string(),
                        },
                        self.party,
                    );
                    return Ok(());
                }
                Frame::Deliver { from, payload } => {
                    self.inbox.lock().push_back((from, payload));
                    write_frame(&mut stream, &Frame::DeliverAck, self.party)?;
                }
                Frame::RecvReq { timeout_ms } => {
                    let reply = self.wait_pop(timeout_ms);
                    write_frame(&mut stream, &reply, self.party)?;
                }
                Frame::TryRecvReq => {
                    let reply = match self.inbox.lock().pop_front() {
                        Some((from, payload)) => Frame::Msg { from, payload },
                        None => Frame::Empty,
                    };
                    write_frame(&mut stream, &reply, self.party)?;
                }
                other => {
                    let _ = write_frame(
                        &mut stream,
                        &Frame::HelloReject {
                            reason: format!("unexpected frame from dialer: {other:?}"),
                        },
                        self.party,
                    );
                    return Ok(());
                }
            }
        }
    }

    /// Pops the next inbox entry, sleep-polling in [`POLL_INTERVAL`] ticks
    /// up to `timeout_ms` (no wall-clock reads on library paths).
    fn wait_pop(&self, timeout_ms: u64) -> Frame {
        let mut remaining = timeout_ms;
        loop {
            if let Some((from, payload)) = self.inbox.lock().pop_front() {
                return Frame::Msg { from, payload };
            }
            if remaining == 0 || self.stop.load(Ordering::SeqCst) {
                return Frame::TimedOut;
            }
            std::thread::sleep(POLL_INTERVAL);
            remaining = remaining.saturating_sub(1);
        }
    }
}

struct Link {
    stream: Stream,
    fb: FrameBuf<Frame>,
}

struct RemoteParty {
    endpoint: Endpoint,
    link: Option<Link>,
}

/// The socket [`Transport`] backend driven by the orchestrating process.
///
/// Parties with an endpoint in the roster are *remote*: every message to or
/// from them transits their [`PartyNode`] as a framed socket exchange.
/// Parties without one (typically [`PartyId::Server`] and
/// [`PartyId::Public`], which the orchestrator itself hosts) get local
/// in-process inboxes, exactly like the in-process backend's.
pub struct SocketTransport {
    meter: Meter,
    local: Mutex<HashMap<PartyId, VecDeque<(PartyId, Message)>>>,
    remotes: Mutex<HashMap<PartyId, RemoteParty>>,
    faults: Mutex<Vec<(PartyId, PartyId, Fault)>>,
    dead: Mutex<HashSet<PartyId>>,
    versions: (u32, u32),
}

impl fmt::Debug for SocketTransport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.meter.stats();
        write!(f, "SocketTransport({} msgs, {} bytes)", s.messages, s.bytes)
    }
}

impl SocketTransport {
    /// Connects to the roster of server + `n_clients` clients + public
    /// board. Parties present in `endpoints` are dialed (bounded retry with
    /// exponential backoff, then a version handshake); the rest are hosted
    /// locally. Dialing everything eagerly surfaces configuration errors at
    /// construction, not mid-round.
    ///
    /// # Errors
    ///
    /// [`TransportError::HandshakeFailed`] if a party cannot be reached or
    /// rejects the handshake, [`TransportError::UnknownParty`] naming the
    /// smallest party in `endpoints` that is outside the roster.
    pub fn connect(
        n_clients: usize,
        endpoints: HashMap<PartyId, Endpoint>,
    ) -> Result<Self, TransportError> {
        Self::connect_with_versions(n_clients, endpoints, PROTOCOL_VERSION, WIRE_VERSION)
    }

    /// [`SocketTransport::connect`] announcing custom handshake versions —
    /// a test hook for exercising the rejection path against a live node.
    #[doc(hidden)]
    pub fn connect_with_versions(
        n_clients: usize,
        endpoints: HashMap<PartyId, Endpoint>,
        protocol: u32,
        wire: u32,
    ) -> Result<Self, TransportError> {
        let mut roster = vec![PartyId::Server, PartyId::Public];
        roster.extend((0..n_clients).map(PartyId::Client));
        // In party order, so the error names the same party on every run.
        let endpoints: BTreeMap<PartyId, Endpoint> = endpoints.into_iter().collect();
        if let Some(&p) = endpoints.keys().find(|p| !roster.contains(p)) {
            return Err(TransportError::UnknownParty(p));
        }
        let mut local = HashMap::new();
        let mut remotes = HashMap::new();
        let mut remote_parties = Vec::new();
        for p in roster {
            match endpoints.get(&p) {
                Some(ep) => {
                    remotes.insert(p, RemoteParty { endpoint: ep.clone(), link: None });
                    remote_parties.push(p);
                }
                None => {
                    local.insert(p, VecDeque::new());
                }
            }
        }
        let transport = Self {
            meter: Meter::new(),
            local: Mutex::new(local),
            remotes: Mutex::new(remotes),
            faults: Mutex::new(Vec::new()),
            dead: Mutex::new(HashSet::new()),
            versions: (protocol, wire),
        };
        // Dial in deterministic party order.
        remote_parties.sort_unstable();
        for p in remote_parties {
            transport.ensure_link(p)?;
        }
        Ok(transport)
    }

    /// Arms a one-shot fault for the next send on `(from, to)` — same test
    /// instrumentation as the in-process backend, so fault regressions run
    /// against both.
    pub fn inject_fault(&self, from: PartyId, to: PartyId, fault: Fault) {
        self.faults.lock().push((from, to, fault));
    }

    fn take_fault(&self, from: PartyId, to: PartyId) -> Option<Fault> {
        let mut faults = self.faults.lock();
        let idx = faults.iter().position(|&(f, t, _)| f == from && t == to)?;
        Some(faults.remove(idx).2)
    }

    fn is_dead(&self, party: PartyId) -> bool {
        self.dead.lock().contains(&party)
    }

    /// Severs `party`'s link: the socket (if any) is closed, the local
    /// inbox (if any) is dropped, and the party is marked dead.
    fn sever(&self, party: PartyId) {
        if let Some(remote) = self.remotes.lock().get_mut(&party) {
            remote.link = None;
        }
        self.local.lock().remove(&party);
        self.dead.lock().insert(party);
    }

    /// Dials `party` (if not already connected) and performs the handshake.
    fn ensure_link(&self, party: PartyId) -> Result<(), TransportError> {
        if self.is_dead(party) {
            return Err(TransportError::PeerDisconnected { party });
        }
        let mut remotes = self.remotes.lock();
        let Some(remote) = remotes.get_mut(&party) else {
            return Err(TransportError::UnknownParty(party));
        };
        if remote.link.is_some() {
            return Ok(());
        }
        let (protocol, wire) = self.versions;
        remote.link = Some(open_link(&remote.endpoint, party, protocol, wire)?);
        Ok(())
    }

    /// One request/reply exchange on `party`'s link. A broken link redials
    /// once (bounded backoff inside [`dial`]); a second break marks the
    /// party dead and reports [`TransportError::PeerDisconnected`]. Any
    /// other failure — our own read deadline included — drops the link
    /// before it is reported: a reply that arrives late would otherwise
    /// answer the next request. Note a retried `Deliver` whose first copy
    /// actually landed surfaces upstream as a duplicate-message protocol
    /// violation — detected, not silent.
    fn transact(
        &self,
        party: PartyId,
        request: &Frame,
        read_timeout: Duration,
    ) -> Result<Frame, TransportError> {
        for attempt in 0..2u32 {
            if let Err(e) = self.ensure_link(party) {
                // A redial that cannot re-establish a link that existed at
                // construction means the peer is gone, not misconfigured.
                self.dead.lock().insert(party);
                return Err(match e {
                    TransportError::HandshakeFailed { .. } => {
                        TransportError::PeerDisconnected { party }
                    }
                    other => other,
                });
            }
            let mut remotes = self.remotes.lock();
            let Some(remote) = remotes.get_mut(&party) else {
                return Err(TransportError::UnknownParty(party));
            };
            let Some(link) = remote.link.as_mut() else {
                continue;
            };
            let meter = &self.meter;
            let exchange = (|| {
                link.stream
                    .set_read_timeout(Some(read_timeout))
                    .map_err(|_| TransportError::PeerDisconnected { party })?;
                write_frame(&mut link.stream, request, party)?;
                read_frame(&mut link.stream, &mut link.fb, 1, party, || {
                    meter.timeout_error(party, read_timeout)
                })
            })();
            let Err(e) = exchange else {
                return exchange;
            };
            remote.link = None;
            match e {
                // The next loop iteration redials.
                TransportError::PeerDisconnected { .. } if attempt == 0 => {}
                TransportError::PeerDisconnected { .. } => {
                    drop(remotes);
                    self.dead.lock().insert(party);
                    return Err(e);
                }
                e => return Err(e),
            }
        }
        self.dead.lock().insert(party);
        Err(TransportError::PeerDisconnected { party })
    }

    /// Routes one already-encoded message to a local inbox or over the
    /// party's socket (shared tail of `send`).
    fn deliver_encoded(
        &self,
        from: PartyId,
        to: PartyId,
        encoded: Bytes,
    ) -> Result<(), TransportError> {
        {
            let mut local = self.local.lock();
            if let Some(inbox) = local.get_mut(&to) {
                // Decode from the wire bytes — the recipient sees only what
                // was actually serialized (parity with the in-process path).
                inbox.push_back((from, Message::decode(encoded)?));
                return Ok(());
            }
        }
        if !self.remotes.lock().contains_key(&to) {
            return Err(TransportError::UnknownRecipient(to));
        }
        match self.transact(to, &Frame::Deliver { from, payload: encoded }, ACK_TIMEOUT)? {
            Frame::DeliverAck => Ok(()),
            other => Err(TransportError::Frame {
                detail: format!("expected DeliverAck from {to}, got {other:?}"),
            }),
        }
    }
}

/// Dials `endpoint` and runs the dialer's half of the hello exchange. A
/// reachable node answers the hello at once, and a rejection is terminal
/// (version mismatches don't heal by retrying), so every failure is
/// [`TransportError::HandshakeFailed`].
fn open_link(
    endpoint: &Endpoint,
    party: PartyId,
    protocol: u32,
    wire: u32,
) -> Result<Link, TransportError> {
    let mut stream = dial(endpoint, HANDSHAKE_TIMEOUT)?;
    let mut fb = FrameBuf::new();
    let reply =
        write_frame(&mut stream, &Frame::Hello { protocol, wire, party }, party).and_then(|()| {
            read_frame(&mut stream, &mut fb, 1, party, || TransportError::HandshakeFailed {
                reason: format!("{party} did not answer the hello within {HANDSHAKE_TIMEOUT:?}"),
            })
        });
    let reason = match reply {
        Ok(Frame::HelloAck { protocol, wire })
            if protocol == PROTOCOL_VERSION && wire == WIRE_VERSION =>
        {
            return Ok(Link { stream, fb });
        }
        Ok(Frame::HelloAck { protocol, wire }) => {
            format!("{party} acknowledged incompatible versions (protocol {protocol}, wire {wire})")
        }
        Ok(Frame::HelloReject { reason }) => reason,
        Ok(other) => format!("expected HelloAck from {party}, got {other:?}"),
        Err(TransportError::PeerDisconnected { .. }) => {
            format!("{party} closed the connection during the handshake")
        }
        Err(TransportError::HandshakeFailed { reason }) => reason,
        Err(e) => format!("hello exchange with {party} at {endpoint}: {e}"),
    };
    Err(TransportError::HandshakeFailed { reason })
}

impl Transport for SocketTransport {
    fn send(&self, from: PartyId, to: PartyId, msg: Message) -> Result<(), TransportError> {
        check_direction(from, to, &msg)?;
        if self.is_dead(to) {
            return Err(TransportError::PeerDisconnected { party: to });
        }
        if self.is_dead(from) {
            return Err(TransportError::PeerDisconnected { party: from });
        }
        let fault = self.take_fault(from, to);
        if fault == Some(Fault::Disconnect) {
            // The link dies as the send begins: nothing reaches the wire,
            // so nothing is metered (parity with the in-process backend).
            self.sever(to);
            return Err(TransportError::PeerDisconnected { party: to });
        }
        if !self.local.lock().contains_key(&to) && !self.remotes.lock().contains_key(&to) {
            return Err(TransportError::UnknownRecipient(to));
        }
        let encoded = msg.encode();
        msg.recycle();
        self.meter.record(from, to, encoded.len());
        if fault == Some(Fault::Drop) {
            return Ok(());
        }
        if fault == Some(Fault::Duplicate) {
            self.deliver_encoded(from, to, encoded.clone())?;
        }
        self.deliver_encoded(from, to, encoded)
    }

    fn try_recv(&self, party: PartyId) -> Result<(PartyId, Message), TransportError> {
        if self.is_dead(party) {
            return Err(TransportError::PeerDisconnected { party });
        }
        {
            let mut local = self.local.lock();
            if let Some(inbox) = local.get_mut(&party) {
                return inbox.pop_front().ok_or(TransportError::InboxEmpty(party));
            }
        }
        if !self.remotes.lock().contains_key(&party) {
            return Err(TransportError::UnknownParty(party));
        }
        match self.transact(party, &Frame::TryRecvReq, ACK_TIMEOUT)? {
            Frame::Msg { from, payload } => Ok((from, Message::decode(payload)?)),
            Frame::Empty => Err(TransportError::InboxEmpty(party)),
            other => Err(TransportError::Frame {
                detail: format!("expected Msg/Empty from {party}, got {other:?}"),
            }),
        }
    }

    fn recv_timeout(
        &self,
        party: PartyId,
        timeout: Duration,
    ) -> Result<(PartyId, Message), TransportError> {
        if self.is_dead(party) {
            return Err(TransportError::PeerDisconnected { party });
        }
        let timeout_ms = u64::try_from(timeout.as_millis()).unwrap_or(u64::MAX);
        if self.local.lock().contains_key(&party) {
            // Sleep-poll in 1 ms ticks instead of reading a wall clock
            // (denied on library paths by `clippy.toml`'s `disallowed-methods`).
            // Local inboxes are filled by this process's own sends, so the
            // first check succeeds in the healthy case.
            let mut remaining = timeout_ms;
            loop {
                if let Some(inbox) = self.local.lock().get_mut(&party) {
                    if let Some(entry) = inbox.pop_front() {
                        return Ok(entry);
                    }
                } else {
                    // Severed while we were polling.
                    return Err(TransportError::PeerDisconnected { party });
                }
                if remaining == 0 {
                    return Err(self.meter.timeout_error(party, timeout));
                }
                std::thread::sleep(POLL_INTERVAL);
                remaining -= 1;
            }
        }
        if !self.remotes.lock().contains_key(&party) {
            return Err(TransportError::UnknownParty(party));
        }
        // The node waits `timeout_ms` then answers `TimedOut`; our own read
        // deadline only fires if the node itself stopped responding.
        match self.transact(
            party,
            &Frame::RecvReq { timeout_ms },
            timeout.saturating_add(RECV_MARGIN),
        )? {
            Frame::Msg { from, payload } => Ok((from, Message::decode(payload)?)),
            Frame::TimedOut => Err(self.meter.timeout_error(party, timeout)),
            other => Err(TransportError::Frame {
                detail: format!("expected Msg/TimedOut from {party}, got {other:?}"),
            }),
        }
    }

    fn recv_timeout_bound(&self) -> Duration {
        self.meter.recv_timeout_bound()
    }

    fn set_recv_timeout(&self, timeout: Duration) {
        self.meter.set_recv_timeout(timeout);
    }

    fn begin_round(&self, round: u64) {
        self.meter.begin_round(round);
    }

    fn stats(&self) -> NetStats {
        self.meter.stats()
    }

    fn reset_stats(&self) {
        self.meter.reset();
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "the tests host their peers on threads")]
mod tests {
    use super::framing::handshake_reject_reason;
    use super::*;
    use crate::wire::{MatrixPayload, SeedShare};
    use std::sync::Arc;

    #[test]
    fn endpoint_parse_and_display_roundtrip() {
        let tcp = Endpoint::parse("127.0.0.1:9000");
        assert_eq!(tcp, Endpoint::Tcp("127.0.0.1:9000".to_string()));
        assert_eq!(tcp.to_string(), "127.0.0.1:9000");
        let unix = Endpoint::parse("unix:/tmp/gtv.sock");
        assert_eq!(unix, Endpoint::Unix(PathBuf::from("/tmp/gtv.sock")));
        assert_eq!(unix.to_string(), "unix:/tmp/gtv.sock");
        assert_eq!(Endpoint::parse(&unix.to_string()), unix);
    }

    #[test]
    fn handshake_rejection_rule_is_exact() {
        assert_eq!(handshake_reject_reason(PROTOCOL_VERSION, WIRE_VERSION), None);
        assert!(handshake_reject_reason(PROTOCOL_VERSION + 1, WIRE_VERSION).is_some());
        assert!(handshake_reject_reason(PROTOCOL_VERSION, WIRE_VERSION + 1).is_some());
        assert!(handshake_reject_reason(0, 0).is_some());
    }

    fn spawn_node(
        party: PartyId,
        endpoint: &Endpoint,
    ) -> (Arc<PartyNode>, std::thread::JoinHandle<()>) {
        let node = Arc::new(PartyNode::bind(party, endpoint).unwrap());
        let serving = Arc::clone(&node);
        let handle = std::thread::spawn(move || {
            serving.serve().unwrap();
        });
        (node, handle)
    }

    #[test]
    fn tcp_loopback_send_recv_and_metering_match_inproc() {
        let (node, handle) = spawn_node(PartyId::Client(0), &Endpoint::parse("127.0.0.1:0"));
        let endpoints = HashMap::from([(PartyId::Client(0), node.endpoint())]);
        let socket = SocketTransport::connect(1, endpoints).unwrap();
        let inproc = crate::transport::Network::new(1);
        let msg = Message::GenSlice(MatrixPayload::new(2, 2, vec![1.0, 0.0, 0.0, 4.0]));
        socket.send(PartyId::Server, PartyId::Client(0), msg.clone()).unwrap();
        inproc.send(PartyId::Server, PartyId::Client(0), msg.clone()).unwrap();
        let (from, got) = socket.recv(PartyId::Client(0)).unwrap();
        assert_eq!((from, got), (PartyId::Server, msg));
        // Byte accounting is identical across backends.
        assert_eq!(socket.stats(), inproc.stats());
        // Local (server-hosted) inboxes work alongside the remote one.
        let upload = Message::SynthLogits(MatrixPayload::new(1, 1, vec![7.0]));
        socket.send(PartyId::Client(0), PartyId::Server, upload.clone()).unwrap();
        assert_eq!(socket.try_recv(PartyId::Server).unwrap().1, upload);
        node.request_stop();
        handle.join().unwrap();
    }

    #[test]
    fn unknown_party_error_names_the_smallest() {
        // Two unknown parties: a hash map's visiting order differs from one
        // map to the next, the error must not.
        for _ in 0..20 {
            let endpoints = HashMap::from([
                (PartyId::Client(9), Endpoint::parse("127.0.0.1:1")),
                (PartyId::Client(7), Endpoint::parse("127.0.0.1:1")),
            ]);
            match SocketTransport::connect(2, endpoints) {
                Err(TransportError::UnknownParty(p)) => assert_eq!(p, PartyId::Client(7)),
                Err(other) => panic!("expected UnknownParty, got {other:?}"),
                Ok(_) => panic!("an endpoint outside the roster must be refused"),
            }
        }
    }

    #[test]
    fn version_mismatch_yields_handshake_failed() {
        let (node, handle) = spawn_node(PartyId::Client(0), &Endpoint::parse("127.0.0.1:0"));
        let endpoints = HashMap::from([(PartyId::Client(0), node.endpoint())]);
        let err =
            SocketTransport::connect_with_versions(1, endpoints, PROTOCOL_VERSION, 99).unwrap_err();
        match err {
            TransportError::HandshakeFailed { reason } => {
                assert!(reason.contains("wire version 99"), "{reason}");
            }
            other => panic!("expected HandshakeFailed, got {other:?}"),
        }
        node.request_stop();
        handle.join().unwrap();
    }

    #[test]
    fn injected_disconnect_severs_the_socket_link() {
        let (node, handle) = spawn_node(PartyId::Client(0), &Endpoint::parse("127.0.0.1:0"));
        let endpoints = HashMap::from([(PartyId::Client(0), node.endpoint())]);
        let socket = SocketTransport::connect(1, endpoints).unwrap();
        socket.inject_fault(PartyId::Server, PartyId::Client(0), Fault::Disconnect);
        let err = socket
            .send(
                PartyId::Server,
                PartyId::Client(0),
                Message::RoundStart { round: 1, selected: 0 },
            )
            .unwrap_err();
        assert_eq!(err, TransportError::PeerDisconnected { party: PartyId::Client(0) });
        assert_eq!(
            socket.recv(PartyId::Client(0)),
            Err(TransportError::PeerDisconnected { party: PartyId::Client(0) })
        );
        node.request_stop();
        handle.join().unwrap();
    }

    #[test]
    fn misdirected_sends_never_reach_the_socket() {
        let (node, handle) = spawn_node(PartyId::Client(0), &Endpoint::parse("127.0.0.1:0"));
        let endpoints = HashMap::from([(PartyId::Client(0), node.endpoint())]);
        let socket = SocketTransport::connect(1, endpoints).unwrap();
        let seed = || Message::ShuffleSeedShare { share: SeedShare::from(7) };
        let index = || Message::IndexShare { indices: vec![1, 2] };
        let logits = Message::SynthLogits(MatrixPayload::new(1, 1, vec![1.0]));
        for (from, to, msg) in [
            (PartyId::Client(0), PartyId::Server, seed()),
            (PartyId::Server, PartyId::Client(0), seed()),
            (PartyId::Client(0), PartyId::Server, index()),
            (PartyId::Server, PartyId::Client(0), index()),
            (PartyId::Server, PartyId::Client(0), logits),
        ] {
            let kind = msg.kind();
            assert_eq!(
                socket.send(from, to, msg),
                Err(TransportError::Misdirected { from, to, kind }),
                "{kind} from {from} to {to}"
            );
        }
        assert_eq!(socket.stats(), NetStats::default(), "a refused send is not metered");
        assert_eq!(
            socket.try_recv(PartyId::Server),
            Err(TransportError::InboxEmpty(PartyId::Server))
        );
        assert_eq!(
            socket.try_recv(PartyId::Client(0)),
            Err(TransportError::InboxEmpty(PartyId::Client(0)))
        );
        node.request_stop();
        handle.join().unwrap();
    }

    #[test]
    fn dead_node_surfaces_as_peer_disconnected_not_a_hang() {
        let (node, handle) = spawn_node(PartyId::Client(0), &Endpoint::parse("127.0.0.1:0"));
        let endpoints = HashMap::from([(PartyId::Client(0), node.endpoint())]);
        let socket = SocketTransport::connect(1, endpoints).unwrap();
        socket
            .send(
                PartyId::Server,
                PartyId::Client(0),
                Message::RoundStart { round: 1, selected: 0 },
            )
            .unwrap();
        // Kill the node (listener included), then talk to the corpse.
        node.request_stop();
        handle.join().unwrap();
        drop(node);
        let err = socket
            .send(
                PartyId::Server,
                PartyId::Client(0),
                Message::RoundStart { round: 2, selected: 0 },
            )
            .unwrap_err();
        assert_eq!(err, TransportError::PeerDisconnected { party: PartyId::Client(0) });
    }
}
