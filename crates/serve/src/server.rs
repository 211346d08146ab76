//! The serve-session socket surface: [`SynthServer`] and [`ServeConn`].
//!
//! Both run on `gtv_vfl::socket`, the socket layer the party transport
//! uses: its accept-and-serve loop (a scoped thread per connection, each
//! polling the stop flag once a tick), dialer, frame buffer, reader and
//! writer, with [`ServeFrame`] as the codec. This module holds only the
//! session: the hello exchange, one reply per request in request order,
//! and its timeouts. Each connection thread answers a request through
//! [`SynthService::request`], so requests arriving on different
//! connections at once are coalesced into batched forward passes by the
//! engine's leader-combining.
//!
//! No wall clock is read anywhere: waits are counted in idle read ticks
//! (`read_timeout`-bounded reads), as on the training transport.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use crate::engine::{RowsRequest, ServeError, SynthService};
use crate::wire::{serve_reject_reason, ServeFrame, WireCond, SERVE_PROTOCOL};
use gtv::{CondSpec, SynthSpec};
use gtv_data::{to_csv_string, Table};
use gtv_vfl::socket::framing::FrameBuf;
use gtv_vfl::socket::{
    dial, next_request, read_frame, serve_connections, write_frame, Listener, Stream, SERVE_POLL,
};
use gtv_vfl::{Endpoint, PartyId, TransportError};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Idle ticks a client waits for the hello reply (≈5 s).
const HANDSHAKE_POLLS: u32 = 250;
/// Idle ticks a client waits for a reply frame (≈60 s).
const REPLY_POLLS: u32 = 3000;

fn frame_err(detail: impl Into<String>) -> TransportError {
    TransportError::Frame { detail: detail.into() }
}

/// The error for `peer` staying silent through `polls` idle ticks.
fn silent(peer: PartyId, polls: u32) -> TransportError {
    TransportError::Timeout {
        party: peer,
        waited: SERVE_POLL * polls,
        round: None,
        expecting: None,
    }
}

/// Lossless on every supported target; counters saturate rather than trap.
fn as_u64(v: usize) -> u64 {
    u64::try_from(v).unwrap_or(u64::MAX)
}

/// The response frame for one resolved request. Busy keeps its typed
/// shape on the wire so clients can apply the retry hint; every other
/// failure is carried as its display string.
fn reply_for(id: u64, outcome: Result<Table, ServeError>) -> ServeFrame {
    match outcome {
        Ok(table) => ServeFrame::SynthRows { id, csv: to_csv_string(&table).into_bytes() },
        Err(ServeError::Busy { depth, retry_after_ticks }) => {
            ServeFrame::SynthBusy { id, depth: as_u64(depth), retry_after_ticks }
        }
        Err(e) => ServeFrame::SynthErr { id, reason: e.to_string() },
    }
}

/// Long-lived synthesis server: owns the listening socket and drives a
/// shared [`SynthService`].
#[derive(Debug)]
pub struct SynthServer {
    service: Arc<SynthService>,
    listener: Listener,
    stop: Arc<AtomicBool>,
}

impl SynthServer {
    /// Binds the listening socket (TCP port 0 picks a free port; only a
    /// stale socket file at a Unix path is replaced).
    pub fn bind(service: Arc<SynthService>, endpoint: &Endpoint) -> Result<Self, TransportError> {
        Ok(Self { service, listener: Listener::bind(endpoint)?, stop: Arc::default() })
    }

    /// The resolved listening endpoint (with any ephemeral port filled in).
    pub fn endpoint(&self) -> Endpoint {
        self.listener.endpoint()
    }

    /// The engine this server answers from.
    pub fn service(&self) -> &Arc<SynthService> {
        &self.service
    }

    /// A handle that makes [`serve`](Self::serve) return.
    pub fn stop_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// Asks [`serve`](Self::serve) to wind down; every connection sees it
    /// within one tick.
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Serves connections, each on its own thread, until the stop flag is
    /// raised or `max_replies` responses have been written; then winds
    /// down every open connection. Returns the number of responses
    /// written, counting those written on a connection that later failed.
    /// Only listener-level failures are fatal; anything a client does
    /// wrong drops that client.
    pub fn serve(&self, max_replies: Option<u64>) -> Result<u64, TransportError> {
        let written = AtomicU64::new(0);
        let stopped = || {
            self.stop.load(Ordering::SeqCst)
                || matches!(max_replies, Some(m) if written.load(Ordering::SeqCst) >= m)
        };
        serve_connections(
            &self.listener,
            &stopped,
            |reason| ServeFrame::SynthErr { id: 0, reason },
            |stream, stopped| self.serve_conn(stream, stopped, &written, max_replies),
        )?;
        Ok(written.load(Ordering::SeqCst))
    }

    /// Serves one connection until EOF, a malformed or out-of-order frame,
    /// a stop, or the last of `max_replies`. The opening `SynthHello` of
    /// this protocol gets a `SynthHelloAck`, anything else a `SynthErr` and
    /// the connection is dropped; after it, each `SynthRequest` is answered
    /// through [`SynthService::request`] before the next is read.
    fn serve_conn(
        &self,
        mut stream: Stream,
        stopped: &dyn Fn() -> bool,
        written: &AtomicU64,
        max_replies: Option<u64>,
    ) -> Result<(), TransportError> {
        let mut fb = FrameBuf::new();
        let mut greeted = false;
        while let Some(frame) = next_request(&mut stream, &mut fb, stopped)? {
            let (id, request) = match frame {
                ServeFrame::SynthHello { protocol } if !greeted => {
                    if let Some(reason) = serve_reject_reason(protocol) {
                        return refuse(&mut stream, reason);
                    }
                    greeted = true;
                    let ack = ServeFrame::SynthHelloAck { protocol: SERVE_PROTOCOL };
                    write_frame(&mut stream, &ack, PartyId::Public)?;
                    continue;
                }
                other if !greeted => {
                    return refuse(
                        &mut stream,
                        format!("expected SynthHello, got {}", other.kind()),
                    )
                }
                ServeFrame::SynthRequest { id, model, n, seed, cond, deadline_ticks } => {
                    let spec = SynthSpec {
                        n: usize::try_from(n).unwrap_or(usize::MAX),
                        seed,
                        cond: cond.map(|c| CondSpec {
                            client: usize::try_from(c.client).unwrap_or(usize::MAX),
                            column: usize::try_from(c.column).unwrap_or(usize::MAX),
                            category: usize::try_from(c.category).unwrap_or(usize::MAX),
                        }),
                    };
                    let deadline_ticks = (deadline_ticks != u64::MAX).then_some(deadline_ticks);
                    (id, RowsRequest { model, spec, deadline_ticks })
                }
                other => {
                    return Err(frame_err(format!("expected SynthRequest, got {}", other.kind())))
                }
            };
            // The reply's slot is taken before the work, so concurrent
            // connections write `max_replies` replies at most.
            let slot = written.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |w| {
                (!matches!(max_replies, Some(m) if w >= m)).then_some(w + 1)
            });
            if slot.is_err() {
                return Ok(());
            }
            let reply = reply_for(id, self.service.request(&request));
            if let Err(e) = write_frame(&mut stream, &reply, PartyId::Public) {
                written.fetch_sub(1, Ordering::SeqCst);
                return Err(e);
            }
        }
        Ok(())
    }
}

/// Answers a failed hello with a `SynthErr`; the connection is then dropped.
fn refuse(stream: &mut Stream, reason: String) -> Result<(), TransportError> {
    write_frame(stream, &ServeFrame::SynthErr { id: 0, reason }, PartyId::Public)?;
    Err(TransportError::HandshakeFailed { reason: "serve hello rejected".to_string() })
}

/// A connected synthesis client over TCP or a Unix socket.
///
/// For in-process use (benches, tests) prefer calling
/// [`SynthService::request`] directly — it is the same engine without the
/// wire hop.
#[derive(Debug)]
pub struct ServeConn {
    stream: Stream,
    fb: FrameBuf<ServeFrame>,
    next_id: u64,
}

impl ServeConn {
    /// Dials `endpoint` (with startup backoff) and performs the serve
    /// hello exchange. Every failure of the exchange — a rejection, a peer
    /// that hangs up or speaks another protocol, silence — is
    /// [`TransportError::HandshakeFailed`].
    pub fn connect(endpoint: &Endpoint) -> Result<Self, TransportError> {
        let mut stream = dial(endpoint, SERVE_POLL)?;
        let mut fb = FrameBuf::new();
        let hello = ServeFrame::SynthHello { protocol: SERVE_PROTOCOL };
        let reply = write_frame(&mut stream, &hello, PartyId::Server).and_then(|()| {
            read_frame(&mut stream, &mut fb, HANDSHAKE_POLLS, PartyId::Server, || {
                silent(PartyId::Server, HANDSHAKE_POLLS)
            })
        });
        let reason = match reply {
            Ok(ServeFrame::SynthHelloAck { .. }) => return Ok(Self { stream, fb, next_id: 1 }),
            Ok(ServeFrame::SynthErr { reason, .. }) => reason,
            Ok(other) => format!("expected SynthHelloAck from {endpoint}, got {}", other.kind()),
            Err(e) => format!("serve hello to {endpoint}: {e}"),
        };
        Err(TransportError::HandshakeFailed { reason })
    }

    /// Requests `n` rows of `model` and blocks for the response.
    /// `deadline_ticks: None` leaves the deadline to the server default.
    pub fn synth(
        &mut self,
        model: &str,
        n: u64,
        seed: u64,
        cond: Option<WireCond>,
        deadline_ticks: Option<u64>,
    ) -> Result<Vec<u8>, ServeError> {
        let id = self.next_id;
        self.next_id += 1;
        let request = ServeFrame::SynthRequest {
            id,
            model: model.to_string(),
            n,
            seed,
            cond,
            deadline_ticks: deadline_ticks.unwrap_or(u64::MAX),
        };
        write_frame(&mut self.stream, &request, PartyId::Server)?;
        let reply =
            read_frame(&mut self.stream, &mut self.fb, REPLY_POLLS, PartyId::Server, || {
                silent(PartyId::Server, REPLY_POLLS)
            })?;
        match reply {
            ServeFrame::SynthRows { id: rid, csv } if rid == id => Ok(csv),
            ServeFrame::SynthBusy { id: rid, depth, retry_after_ticks } if rid == id => {
                Err(ServeError::Busy {
                    depth: usize::try_from(depth).unwrap_or(usize::MAX),
                    retry_after_ticks,
                })
            }
            ServeFrame::SynthErr { id: rid, reason } if rid == id => {
                Err(ServeError::Remote { reason })
            }
            other => Err(ServeError::Transport(frame_err(format!(
                "reply {} does not answer request {id}",
                other.kind()
            )))),
        }
    }
}
