//! The socket layer both wires run on, and the party transport built on it.
//!
//! **One layer.** Every frame on every socket is a `u32`-little-endian
//! length prefix and a body bounded by [`framing::MAX_FRAME_BODY`]. A wire
//! is a [`FrameCodec`] — how one body is written and read — and everything
//! else is shared: [`Stream`], [`Listener`] (bind, unlink on drop),
//! [`dial`] with bounded backoff, the reassembly buffer
//! [`FrameBuf<F>`](FrameBuf), [`read_frame`] and [`write_frame`], and the
//! one accept-and-serve loop, [`serve_connections`]: a scoped thread per
//! connection, at most [`MAX_CONNECTIONS`] at once. Two codecs implement
//! it: the party transport's [`Frame`] and the synthesis session's
//! `ServeFrame` in `gtv-serve`. Each session keeps its own handshake,
//! opcode space, versions and timeouts.
//!
//! **The party link.** A party hosted out of process runs a [`PartyNode`]
//! — a small daemon owning that party's inbox — and a
//! [`Network`](crate::Network) that names the node's endpoint reaches it
//! through a `Remote` link: every message to or from that party genuinely
//! transits the socket, at one round trip a message — a one-way `Deliver`
//! in, a `RecvReq` answered by a `Msg` out. Connection lifecycle is
//! first-class:
//!
//! * a hello handshake negotiates protocol + wire version and rejects
//!   mismatches with [`TransportError::HandshakeFailed`] — a wire v2 peer,
//!   which could send matrix bodies v3 no longer decodes, is refused here
//!   rather than mid-round;
//! * a link whose peer hung up, or whose write fails, redials once with
//!   bounded exponential backoff;
//! * peer crash / EOF surfaces as [`TransportError::PeerDisconnected`],
//!   never a panic or an indefinite block (every read is deadline-bounded).
//!
//! The frames carry the encoded message body the network has already
//! metered ([`NetStats`](crate::NetStats)); frame headers, handshakes and
//! requests are a property of the medium, not the protocol, and are not
//! metered.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]
#![cfg_attr(
    not(test),
    deny(clippy::cast_possible_truncation, clippy::cast_possible_wrap, clippy::cast_sign_loss)
)]

use crate::transport::{Inbox, Meter, PartyId, TransportError};
use crate::wire::Message;
use bytes::Bytes;
use std::fmt;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::fs::FileTypeExt;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Duration;

use framing::{encode_frame, Frame, FrameBuf, FrameCodec, PROTOCOL_VERSION, WIRE_VERSION};

/// The frame layer: opcode-tagged bodies behind a `u32`-little-endian
/// length prefix, with a hard bound on body size so a hostile or corrupt
/// length prefix can never drive allocation.
pub mod framing {
    use super::{Bytes, PartyId, TransportError};
    use std::io::Read;
    use std::marker::PhantomData;

    /// Version of the framing/handshake protocol spoken on the socket.
    /// Version 2 made `Deliver` one-way: a version 1 peer would wait for
    /// the `DeliverAck` (opcode 4) it retired, or read one as a reply, so it
    /// is refused at the hello instead of falling out of step.
    pub const PROTOCOL_VERSION: u32 = 2;
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
        /// Push one encoded protocol message into the node's inbox. One-way:
        /// the node answers nothing.
        Deliver {
            /// Originating party.
            from: PartyId,
            /// The `Message` in its wire encoding.
            payload: Bytes,
        },
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
                // 4 was `DeliverAck`, retired by protocol version 2.
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

    /// Bytes a socket read asks for at most.
    const READ_CHUNK: usize = 1 << 16;

    /// Incremental frame decoder over a byte stream that may arrive in
    /// arbitrary splits. Feed chunks with [`FrameBuf::extend`] (or
    /// [`FrameBuf::fill_from`] a reader), pull frames with
    /// [`FrameBuf::next_frame`]. A length prefix over [`MAX_FRAME_BODY`]
    /// errors *before* any buffer grows toward it.
    #[derive(Debug)]
    pub struct FrameBuf<F> {
        buf: Vec<u8>,
        /// The read buffer of [`FrameBuf::fill_from`], zeroed once on its
        /// first read rather than on every one.
        chunk: Vec<u8>,
        codec: PhantomData<fn() -> F>,
    }

    impl<F> Default for FrameBuf<F> {
        fn default() -> Self {
            Self { buf: Vec::new(), chunk: Vec::new(), codec: PhantomData }
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

        /// Reads once from `reader` into the buffer; returns what the read
        /// returned (`Ok(0)` is end of stream).
        ///
        /// # Errors
        ///
        /// The read's own error.
        pub fn fill_from(&mut self, reader: &mut impl Read) -> std::io::Result<usize> {
            if self.chunk.is_empty() {
                self.chunk.resize(READ_CHUNK, 0);
            }
            let n = reader.read(&mut self.chunk)?;
            self.buf.extend_from_slice(&self.chunk[..n]);
            Ok(n)
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
/// How long a dialer waits for the reply to a `TryRecvReq`, which the node
/// sends at once.
const ACK_TIMEOUT: Duration = Duration::from_secs(10);
/// Slack added to a node-side bounded wait before the dialer's own read
/// deadline fires: the node's wait ends first, so no thread of a link the
/// dialer dropped still waits to pop a message meant for its redial (test
/// `a_node_side_wait_ends_before_the_dialers_deadline`).
pub(crate) const RECV_MARGIN: Duration = Duration::from_secs(2);
/// A server's tick: the accept poll period, the read timeout of every
/// served connection and the slice of a node-side wait, so a stop is seen
/// within one tick.
pub const SERVE_POLL: Duration = Duration::from_millis(20);
/// Most connections one server serves at once. A dialer beyond them is
/// answered at once with its protocol's rejection frame.
pub const MAX_CONNECTIONS: usize = 16;

/// One connected byte stream, TCP or Unix-domain. Reads block for at most
/// the read timeout set when it was dialed or accepted — one *tick* of
/// [`read_frame`]. A TCP stream sends each write at once (`TCP_NODELAY`):
/// a one-way frame followed by a request would otherwise wait on Nagle's
/// algorithm until the peer's delayed ACK, about 40 ms.
#[derive(Debug)]
pub enum Stream {
    /// A TCP connection.
    Tcp(TcpStream),
    /// A Unix-domain connection.
    Unix(UnixStream),
}

impl Stream {
    /// Makes a freshly dialed or accepted stream block with reads of one
    /// `tick` and, over TCP, send without delay.
    fn prepare(self, tick: Duration) -> std::io::Result<Self> {
        if let Stream::Tcp(s) = &self {
            s.set_nodelay(true)?;
        }
        self.set_read_timeout(Some(tick))?;
        Ok(self)
    }

    /// Sets the kernel read timeout, i.e. the length of a read tick.
    fn set_read_timeout(&self, dur: Option<Duration>) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(dur),
            Stream::Unix(s) => s.set_read_timeout(dur),
        }
    }

    fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_nonblocking(nonblocking),
            Stream::Unix(s) => s.set_nonblocking(nonblocking),
        }
    }

    /// Whether the link can no longer carry a request: a non-blocking
    /// one-byte read that does not find it idle. End of stream is a peer
    /// that hung up, which a write would not show — a TCP write to a
    /// closed peer succeeds. Bytes waiting with no request in flight mean
    /// the link is out of step.
    fn hung_up(&mut self) -> bool {
        if self.set_nonblocking(true).is_err() {
            return true;
        }
        let probe = self.read(&mut [0u8; 1]);
        let restored = self.set_nonblocking(false);
        restored.is_err() || !matches!(probe, Err(e) if e.kind() == ErrorKind::WouldBlock)
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
/// backoff from 20 ms (the peer may still be starting up). The stream
/// blocks, with `tick` as its read timeout, and over TCP sends without
/// delay.
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
                return stream.prepare(tick).map_err(|e| setup_failed("dialed stream", e))
            }
            Err(e) => last_err = e.to_string(),
        }
    }
    Err(TransportError::HandshakeFailed { reason: format!("dial {endpoint}: {last_err}") })
}

/// A bound, non-blocking listening socket, served by
/// [`serve_connections`]. A Unix listener unlinks its socket file on drop.
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

    /// Accepts one waiting connection, `Ok(None)` if none is waiting; the
    /// stream blocks for one [`SERVE_POLL`] a read and, over TCP, sends
    /// without delay. Errs if the socket failed.
    fn accept(&self) -> Result<Option<Stream>, TransportError> {
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
                stream.prepare(SERVE_POLL).map(Some).map_err(|e| setup_failed("accepted stream", e))
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
    let mut idle = 0u32;
    loop {
        if let Some(frame) = fb.next_frame()? {
            return Ok(frame);
        }
        match fb.fill_from(stream) {
            Ok(0) => return Err(TransportError::PeerDisconnected { party: peer }),
            Ok(_) => idle = 0,
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

/// The one accept-and-serve loop of every server on this layer. Until
/// `stopped()` holds, each accepted stream is handed to `serve` on a scoped
/// thread of its own, at most [`MAX_CONNECTIONS`] at once; `serve` gets the
/// stop test to poll at least once a [`SERVE_POLL`] (see
/// [`next_request`]), and its error ends that connection only. A dialer
/// over the cap has its opening frame read (one tick at most) and is
/// answered with `refusal(reason)`, the reason naming the cap. Returns once
/// every connection has ended.
///
/// # Errors
///
/// Only a failure of the listening socket itself, after the open
/// connections have wound down as on a stop.
pub fn serve_connections<F: FrameCodec>(
    listener: &Listener,
    stopped: &(dyn Fn() -> bool + Sync),
    refusal: impl Fn(String) -> F,
    serve: impl Fn(Stream, &dyn Fn() -> bool) -> Result<(), TransportError> + Sync,
) -> Result<(), TransportError> {
    let failed = AtomicBool::new(false);
    let halted = || failed.load(Ordering::SeqCst) || stopped();
    let open = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        while !halted() {
            let mut stream = match listener.accept() {
                Ok(Some(stream)) => stream,
                Ok(None) => {
                    std::thread::sleep(SERVE_POLL);
                    continue;
                }
                Err(e) => {
                    failed.store(true, Ordering::SeqCst);
                    return Err(e);
                }
            };
            if open.load(Ordering::SeqCst) >= MAX_CONNECTIONS {
                // Read the hello first: a TCP close with it unread resets
                // the link, and the refusal could be lost with it.
                let _ =
                    read_frame::<F>(&mut stream, &mut FrameBuf::new(), 1, PartyId::Public, idle);
                let reason = format!("busy: {MAX_CONNECTIONS} connections open, the cap");
                let _ = write_frame(&mut stream, &refusal(reason), PartyId::Public);
                continue;
            }
            open.fetch_add(1, Ordering::SeqCst);
            let (open, halted, serve) = (&open, &halted, &serve);
            #[expect(
                clippy::disallowed_methods,
                reason = "a connection's thread only moves frames; what a reply holds never depends on which thread or how many serve"
            )]
            scope.spawn(move || {
                let _ = serve(stream, halted);
                open.fetch_sub(1, Ordering::SeqCst);
            });
        }
        Ok(())
    })
}

/// What a served connection's read of one idle tick reports.
fn idle() -> TransportError {
    TransportError::InboxEmpty(PartyId::Public)
}

/// The next frame of a served connection, read a tick at a time with
/// `stopped` polled between ticks; `Ok(None)` once it holds or the dialer
/// hangs up.
///
/// # Errors
///
/// [`TransportError::Frame`] on a malformed frame: the stream lost sync.
pub fn next_request<F: FrameCodec>(
    stream: &mut Stream,
    fb: &mut FrameBuf<F>,
    stopped: &dyn Fn() -> bool,
) -> Result<Option<F>, TransportError> {
    while !stopped() {
        match read_frame(stream, fb, 1, PartyId::Public, idle) {
            Ok(frame) => return Ok(Some(frame)),
            Err(TransportError::InboxEmpty(_)) => {}
            Err(TransportError::PeerDisconnected { .. }) => return Ok(None),
            Err(e) => return Err(e),
        }
    }
    Ok(None)
}

/// A party's inbox daemon: binds one endpoint, serves framed
/// deliver/receive exchanges for exactly one [`PartyId`], and validates
/// every dialer's version handshake. The inbox outlives connections, so a
/// dialer that crashes and redials resumes where it left off.
pub struct PartyNode {
    party: PartyId,
    listener: Listener,
    inbox: Inbox<(PartyId, Bytes)>,
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
            inbox: Inbox::new(),
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

    /// Asks [`PartyNode::serve`] to return; every connection sees it within
    /// one [`SERVE_POLL`] (callable from another thread through an
    /// `Arc<PartyNode>`).
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Serves dialers until [`PartyNode::request_stop`], each on its own
    /// connection (see [`serve_connections`]), so a redial is served while
    /// a dropped link winds down. A connection's failure severs it only.
    ///
    /// # Errors
    ///
    /// Only listener-level failures (the listening socket itself died);
    /// anything a peer does wrong is answered or dropped, never fatal.
    pub fn serve(&self) -> Result<(), TransportError> {
        let stopped = || self.stop.load(Ordering::SeqCst);
        serve_connections(
            &self.listener,
            &stopped,
            |reason| Frame::HelloReject { reason },
            |stream, stopped| self.serve_conn(stream, stopped),
        )
    }

    /// Serves one connection until EOF, a malformed frame, or a stop. The
    /// first frame must be a version-valid `Hello` naming this node's
    /// party; a `Deliver` goes into the inbox unanswered, and every request
    /// is answered from the inbox, in the order the requests came.
    fn serve_conn(
        &self,
        mut stream: Stream,
        stopped: &dyn Fn() -> bool,
    ) -> Result<(), TransportError> {
        let mut fb = FrameBuf::new();
        let mut greeted = false;
        while let Some(frame) = next_request(&mut stream, &mut fb, stopped)? {
            let msg = |(from, payload): (PartyId, Bytes)| Frame::Msg { from, payload };
            let reply = match frame {
                Frame::Hello { protocol, wire, party } => {
                    greeted = true;
                    let ack = Frame::HelloAck { protocol: PROTOCOL_VERSION, wire: WIRE_VERSION };
                    let wrong = (party != self.party)
                        .then(|| format!("this node hosts {}, not {party}", self.party));
                    framing::handshake_reject_reason(protocol, wire).or(wrong).map_or(Ok(ack), Err)
                }
                _ if !greeted => Err("handshake required before any other frame".to_string()),
                Frame::Deliver { from, payload } => {
                    // The node holds the receiver, so the send cannot fail.
                    let _ = self.inbox.tx.send((from, payload));
                    continue;
                }
                Frame::RecvReq { timeout_ms } => {
                    Ok(self.recv_within(timeout_ms, stopped).map_or(Frame::TimedOut, msg))
                }
                Frame::TryRecvReq => Ok(self.inbox.rx.try_recv().ok().map_or(Frame::Empty, msg)),
                other => Err(format!("unexpected frame from dialer: {other:?}")),
            };
            match reply {
                Ok(reply) => write_frame(&mut stream, &reply, self.party)?,
                Err(reason) => {
                    let _ = write_frame(&mut stream, &Frame::HelloReject { reason }, self.party);
                    return Ok(());
                }
            }
        }
        Ok(())
    }

    /// Pops the next inbox entry, waiting up to `timeout_ms` on the inbox's
    /// condvar in slices of one [`SERVE_POLL`], so a stop lands within one.
    fn recv_within(&self, timeout_ms: u64, stopped: &dyn Fn() -> bool) -> Option<(PartyId, Bytes)> {
        let mut left = Duration::from_millis(timeout_ms);
        loop {
            let slice = left.min(SERVE_POLL);
            if let Ok(entry) = self.inbox.rx.recv_timeout(slice) {
                return Some(entry);
            }
            left -= slice;
            if left.is_zero() || stopped() {
                return None;
            }
        }
    }
}

struct Link {
    stream: Stream,
    fb: FrameBuf<Frame>,
}

/// The link to a party a [`PartyNode`] hosts: its endpoint, the versions
/// its node is greeted with, and the open connection, if any. A
/// [`Network`](crate::Network) holds one per remote party, each behind its
/// own lock, so an exchange with one node holds up no other party.
///
/// An exchange is an `ask` (one frame written) and, unless the frame is a
/// one-way `Deliver`, an `answer` (its reply read). Replies come in the
/// order the requests were written, so several pops may be asked before
/// the first is answered.
pub(crate) struct Remote {
    party: PartyId,
    endpoint: Endpoint,
    versions: (u32, u32),
    link: Option<Link>,
}

impl Remote {
    /// Dials `endpoint` (bounded retry with exponential backoff) and greets
    /// its node, so a misconfigured roster fails at construction, not
    /// mid-round.
    pub(crate) fn open(
        party: PartyId,
        endpoint: Endpoint,
        protocol: u32,
        wire: u32,
    ) -> Result<Self, TransportError> {
        let link = open_link(&endpoint, party, protocol, wire)?;
        Ok(Self { party, endpoint, versions: (protocol, wire), link: Some(link) })
    }

    /// Closes the connection: a severed party.
    pub(crate) fn close(&mut self) {
        self.link = None;
    }

    /// Hands one encoded message to the node's inbox. Nothing answers it:
    /// a node that dies after taking the bytes is seen by the next exchange
    /// with it.
    pub(crate) fn deliver(&mut self, from: PartyId, payload: Bytes) -> Result<(), TransportError> {
        self.ask(&Frame::Deliver { from, payload })
    }

    /// Pops the node's next message: at once for `None`, else waiting up to
    /// the bound. The node waits and answers `TimedOut`; our own read
    /// deadline fires only if the node itself stopped responding.
    pub(crate) fn pop(
        &mut self,
        wait: Option<Duration>,
        meter: &Meter,
    ) -> Result<(PartyId, Message), TransportError> {
        self.ask_pop(wait)?;
        self.answer_pop(wait, meter)
    }

    /// The request half of [`Remote::pop`]. Its reply is read by
    /// [`Remote::answer_pop`] with the same `wait`, after the replies to
    /// any requests asked before it.
    pub(crate) fn ask_pop(&mut self, wait: Option<Duration>) -> Result<(), TransportError> {
        let request = match wait {
            None => Frame::TryRecvReq,
            Some(timeout) => Frame::RecvReq {
                timeout_ms: u64::try_from(timeout.as_millis()).unwrap_or(u64::MAX),
            },
        };
        self.ask(&request)
    }

    /// The reply half of [`Remote::pop`].
    pub(crate) fn answer_pop(
        &mut self,
        wait: Option<Duration>,
        meter: &Meter,
    ) -> Result<(PartyId, Message), TransportError> {
        let deadline = wait.map_or(ACK_TIMEOUT, |timeout| timeout.saturating_add(RECV_MARGIN));
        match (self.answer(deadline, meter)?, wait) {
            (Frame::Msg { from, payload }, _) => Ok((from, Message::decode(payload)?)),
            (Frame::Empty, None) => Err(TransportError::InboxEmpty(self.party)),
            (Frame::TimedOut, Some(timeout)) => Err(meter.timeout_error(self.party, timeout)),
            (other, _) => {
                // Not a reply to this request: the link is out of step.
                self.link = None;
                Err(TransportError::Frame {
                    detail: format!("expected a message from {}, got {other:?}", self.party),
                })
            }
        }
    }

    /// Writes `request`. A broken link — one whose peer has hung up
    /// ([`Stream`]'s non-blocking check, since a TCP write to a closed
    /// peer succeeds) or whose write fails — is dropped, redialed once
    /// (bounded backoff inside [`dial`]) and written again. A redial that
    /// fails, or a second break, is [`TransportError::PeerDisconnected`]:
    /// the peer is gone, not misconfigured, and the caller marks it dead.
    /// Note a rewritten `Deliver` whose first copy actually landed
    /// surfaces upstream as a duplicate-message protocol violation —
    /// detected, not silent.
    fn ask(&mut self, request: &Frame) -> Result<(), TransportError> {
        let party = self.party;
        let mut redialed = false;
        loop {
            let link = match &mut self.link {
                Some(link) => link,
                None => {
                    let (protocol, wire) = self.versions;
                    let link = open_link(&self.endpoint, party, protocol, wire)
                        .map_err(|_| TransportError::PeerDisconnected { party })?;
                    self.link.insert(link)
                }
            };
            let written = if link.stream.hung_up() {
                Err(TransportError::PeerDisconnected { party })
            } else {
                write_frame(&mut link.stream, request, party)
            };
            match written {
                Ok(()) => return Ok(()),
                Err(TransportError::PeerDisconnected { .. }) if !redialed => {
                    self.link = None;
                    redialed = true;
                }
                Err(e) => {
                    self.link = None;
                    return Err(e);
                }
            }
        }
    }

    /// Reads the reply to the oldest unanswered request, waiting up to
    /// `deadline`. Any failure — our own deadline included — drops the link
    /// before it is reported: a reply that arrives late would otherwise
    /// answer the next request.
    fn answer(&mut self, deadline: Duration, meter: &Meter) -> Result<Frame, TransportError> {
        let party = self.party;
        let link = self.link.as_mut().ok_or(TransportError::PeerDisconnected { party })?;
        let reply = link
            .stream
            .set_read_timeout(Some(deadline))
            .map_err(|_| TransportError::PeerDisconnected { party })
            .and_then(|()| {
                read_frame(&mut link.stream, &mut link.fb, 1, party, || {
                    meter.timeout_error(party, deadline)
                })
            });
        if reply.is_err() {
            self.link = None;
        }
        reply
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

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "the tests host their peers on threads")]
pub(crate) mod tests {
    use super::framing::handshake_reject_reason;
    use super::*;
    use crate::transport::Transport;
    use crate::wire::MatrixPayload;
    use crate::Network;
    use std::collections::HashMap;
    use std::sync::Arc;
    use std::thread::JoinHandle;
    use std::time::Instant;

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

    /// A [`PartyNode`] serving on its own thread.
    pub(crate) struct TestNode {
        pub(crate) node: Arc<PartyNode>,
        handle: JoinHandle<()>,
    }

    impl TestNode {
        /// Binds `endpoint` for `party` and serves it.
        pub(crate) fn spawn(party: PartyId, endpoint: &Endpoint) -> Self {
            let node = Arc::new(PartyNode::bind(party, endpoint).unwrap());
            let serving = Arc::clone(&node);
            let handle = std::thread::spawn(move || serving.serve().unwrap());
            Self { node, handle }
        }

        /// A roster of `n_clients` whose `party` is this node.
        pub(crate) fn roster(&self, n_clients: usize) -> Network {
            Network::connect(n_clients, HashMap::from([(self.node.party(), self.node.endpoint())]))
                .unwrap()
        }

        /// Stops the node and joins its thread.
        pub(crate) fn stop(self) {
            self.node.request_stop();
            self.handle.join().unwrap();
        }
    }

    #[test]
    fn a_remote_inbox_meters_like_a_local_one() {
        let node = TestNode::spawn(PartyId::Client(0), &Endpoint::parse("127.0.0.1:0"));
        let remote = node.roster(1);
        let local = Network::new(1);
        let msg = Message::GenSlice(MatrixPayload::new(2, 2, vec![1.0, 0.0, 0.0, 4.0]));
        remote.send(PartyId::Server, PartyId::Client(0), msg.clone()).unwrap();
        local.send(PartyId::Server, PartyId::Client(0), msg.clone()).unwrap();
        let (from, got) = remote.recv(PartyId::Client(0)).unwrap();
        assert_eq!((from, got), (PartyId::Server, msg));
        // Byte accounting does not depend on where the inbox is.
        assert_eq!(remote.stats(), local.stats());
        // Local (orchestrator-hosted) inboxes work alongside the remote one.
        let upload = Message::SynthLogits(MatrixPayload::new(1, 1, vec![7.0]));
        remote.send(PartyId::Client(0), PartyId::Server, upload.clone()).unwrap();
        assert_eq!(remote.try_recv(PartyId::Server).unwrap().1, upload);
        node.stop();
    }

    #[test]
    fn a_second_dialer_is_served_while_the_first_holds_its_link() {
        let node = TestNode::spawn(PartyId::Client(0), &Endpoint::parse("127.0.0.1:0"));
        let first = node.roster(1);
        let began = Instant::now();
        let second = node.roster(1);
        assert!(began.elapsed() < Duration::from_secs(1), "took {:?}", began.elapsed());
        // Both links reach the one inbox. A `Deliver` is one-way, so each
        // pop comes before the next send: it waits for the one message in
        // flight, whichever link carried it.
        let a = Message::RoundStart { round: 1, selected: 0 };
        let b = Message::RoundStart { round: 2, selected: 0 };
        first.send(PartyId::Server, PartyId::Client(0), a.clone()).unwrap();
        assert_eq!(second.recv(PartyId::Client(0)).unwrap(), (PartyId::Server, a));
        second.send(PartyId::Server, PartyId::Client(0), b.clone()).unwrap();
        assert_eq!(first.recv(PartyId::Client(0)).unwrap(), (PartyId::Server, b));
        node.stop();
    }

    #[test]
    fn a_stop_lands_within_a_tick_while_a_recv_waits() {
        let node = TestNode::spawn(PartyId::Client(0), &Endpoint::parse("127.0.0.1:0"));
        let net = node.roster(1);
        std::thread::scope(|s| {
            let waiting = s.spawn(|| {
                let began = Instant::now();
                (net.recv_timeout(PartyId::Client(0), Duration::from_secs(30)), began.elapsed())
            });
            // Most likely the node is inside the wait by now; the bounds
            // below hold whichever comes first.
            std::thread::sleep(Duration::from_millis(200));
            let began = Instant::now();
            node.stop();
            assert!(began.elapsed() < Duration::from_secs(1), "took {:?}", began.elapsed());
            let (outcome, waited) = waiting.join().unwrap();
            assert!(waited < Duration::from_secs(5), "the receive waited {waited:?}");
            let err = outcome.unwrap_err();
            assert!(
                matches!(
                    err,
                    TransportError::Timeout { .. } | TransportError::PeerDisconnected { .. }
                ),
                "{err:?}"
            );
        });
    }

    #[test]
    fn a_node_side_wait_ends_before_the_dialers_deadline() {
        let node = TestNode::spawn(PartyId::Client(0), &Endpoint::parse("127.0.0.1:0"));
        let net = node.roster(1);
        let wait = Duration::from_millis(300);
        let began = Instant::now();
        // The node's own `TimedOut` waited the bound asked for; the dialer's
        // deadline would report the bound plus `RECV_MARGIN`.
        match net.recv_timeout(PartyId::Client(0), wait) {
            Err(TransportError::Timeout { waited, .. }) => assert_eq!(waited, wait),
            other => panic!("expected the node's TimedOut, got {other:?}"),
        }
        assert!(began.elapsed() < wait + RECV_MARGIN, "took {:?}", began.elapsed());
        // The link was kept, and no waiting thread is left to steal from it.
        let msg = Message::RoundStart { round: 3, selected: 0 };
        net.send(PartyId::Server, PartyId::Client(0), msg.clone()).unwrap();
        assert_eq!(net.recv(PartyId::Client(0)).unwrap(), (PartyId::Server, msg));
        node.stop();
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
            match Network::connect(2, endpoints) {
                Err(TransportError::UnknownParty(p)) => assert_eq!(p, PartyId::Client(7)),
                Err(other) => panic!("expected UnknownParty, got {other:?}"),
                Ok(_) => panic!("an endpoint outside the roster must be refused"),
            }
        }
    }

    #[test]
    fn version_mismatch_yields_handshake_failed() {
        let node = TestNode::spawn(PartyId::Client(0), &Endpoint::parse("127.0.0.1:0"));
        let endpoints = HashMap::from([(PartyId::Client(0), node.node.endpoint())]);
        let err = Network::connect_with_versions(1, endpoints, PROTOCOL_VERSION, 99).unwrap_err();
        match err {
            TransportError::HandshakeFailed { reason } => {
                assert!(reason.contains("wire version 99"), "{reason}");
            }
            other => panic!("expected HandshakeFailed, got {other:?}"),
        }
        node.stop();
    }

    #[test]
    fn dead_node_surfaces_as_peer_disconnected_not_a_hang() {
        let node = TestNode::spawn(PartyId::Client(0), &Endpoint::parse("127.0.0.1:0"));
        let net = node.roster(1);
        net.send(
            PartyId::Server,
            PartyId::Client(0),
            Message::RoundStart { round: 1, selected: 0 },
        )
        .unwrap();
        // Kill the node (listener included), then talk to the corpse.
        let TestNode { node, handle } = node;
        node.request_stop();
        handle.join().unwrap();
        drop(node);
        let err = net
            .send(
                PartyId::Server,
                PartyId::Client(0),
                Message::RoundStart { round: 2, selected: 0 },
            )
            .unwrap_err();
        assert_eq!(err, TransportError::PeerDisconnected { party: PartyId::Client(0) });
        // The party is dead for good: no further exchange is attempted.
        assert_eq!(
            net.try_recv(PartyId::Client(0)),
            Err(TransportError::PeerDisconnected { party: PartyId::Client(0) })
        );
    }
}
