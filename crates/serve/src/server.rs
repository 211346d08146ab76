//! The serve-session socket surface: [`SynthServer`] and [`ServeConn`].
//!
//! Both run on `gtv_vfl::socket`, the socket layer the party transport
//! uses: its listener (polled on a fixed tick so the stop flag is
//! honored), dialer, frame buffer, reader and writer, with [`ServeFrame`]
//! as the codec. This module holds only the session: the hello exchange,
//! request admission and reply order, and its timeouts. Connections are
//! served one at a time; *within* a connection requests may be pipelined,
//! and the server drains every decodable request into the engine before
//! pumping, so pipelined clients get their requests coalesced into
//! batched forward passes.
//!
//! No wall clock is read anywhere: waits are counted in idle read ticks
//! (`read_timeout`-bounded reads), keeping the serving path under the
//! same determinism lint as the training transport.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use crate::engine::{RowsRequest, ServeError, SynthService};
use crate::wire::{serve_reject_reason, ServeFrame, WireCond, SERVE_PROTOCOL};
use gtv::{CondSpec, SynthSpec};
use gtv_data::{to_csv_string, Table};
use gtv_vfl::socket::framing::FrameBuf;
use gtv_vfl::socket::{dial, read_frame, write_frame, Listener, Stream};
use gtv_vfl::{Endpoint, PartyId, TransportError};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The read tick and accept-loop poll period (stop-flag latency).
const SERVE_POLL: Duration = Duration::from_millis(20);
/// Idle ticks a handshake may take before giving up (≈5 s).
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

    /// Asks the accept loop to wind down at its next poll tick.
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    fn stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Accepts and serves connections (one at a time) until the stop flag
    /// is raised or `max_replies` responses have been written. Returns
    /// the number of responses written, counting those written on a
    /// connection that later failed. Only listener-level failures are
    /// fatal; anything a client does wrong drops that client.
    pub fn serve(&self, max_replies: Option<u64>) -> Result<u64, TransportError> {
        let mut total = 0u64;
        while !self.stopped() && !matches!(max_replies, Some(m) if total >= m) {
            match self.listener.accept(SERVE_POLL)? {
                Some(stream) => {
                    let _ = self.serve_conn(stream, &mut total, max_replies);
                }
                None => std::thread::sleep(SERVE_POLL),
            }
        }
        Ok(total)
    }

    /// Answers the opening `SynthHello`. The `(reply, accepted)` pair is
    /// built in one match so the session machine sees the accept path
    /// before the reject path.
    fn handshake(
        &self,
        stream: &mut Stream,
        fb: &mut FrameBuf<ServeFrame>,
    ) -> Result<(), TransportError> {
        let frame = read_frame(stream, fb, HANDSHAKE_POLLS, PartyId::Public, || {
            silent(PartyId::Public, HANDSHAKE_POLLS)
        })?;
        let (reply, accepted) = match frame {
            ServeFrame::SynthHello { protocol } => match serve_reject_reason(protocol) {
                None => (ServeFrame::SynthHelloAck { protocol: SERVE_PROTOCOL }, true),
                Some(reason) => (ServeFrame::SynthErr { id: 0, reason }, false),
            },
            other => {
                let reason = format!("expected SynthHello, got {}", other.kind());
                (ServeFrame::SynthErr { id: 0, reason }, false)
            }
        };
        write_frame(stream, &reply, PartyId::Public)?;
        if accepted {
            Ok(())
        } else {
            Err(TransportError::HandshakeFailed { reason: "serve hello rejected".to_string() })
        }
    }

    /// Decodes one pipelined request and admits it into the engine,
    /// returning `(wire id, admission outcome)`.
    fn admit(&self, frame: ServeFrame) -> Result<(u64, Result<u64, ServeError>), TransportError> {
        match frame {
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
                let req = RowsRequest {
                    model,
                    spec,
                    deadline_ticks: (deadline_ticks != u64::MAX).then_some(deadline_ticks),
                };
                Ok((id, self.service.submit(&req)))
            }
            other => Err(frame_err(format!("expected SynthRequest, got {}", other.kind()))),
        }
    }

    /// Writes a response for every head-of-line request whose result is
    /// ready, preserving request order, counting each into `total`.
    fn flush_ready(
        &self,
        stream: &mut Stream,
        inflight: &mut VecDeque<(u64, Result<u64, ServeError>)>,
        total: &mut u64,
    ) -> Result<(), TransportError> {
        while let Some((id, admitted)) = inflight.front() {
            let outcome = match admitted {
                Ok(ticket) => match self.service.try_take(*ticket) {
                    Some(result) => result,
                    None => break,
                },
                Err(e) => Err(e.clone()),
            };
            let id = *id;
            inflight.pop_front();
            let reply = reply_for(id, outcome);
            write_frame(stream, &reply, PartyId::Public)?;
            *total += 1;
        }
        Ok(())
    }

    /// Serves one connection until EOF, a malformed frame, the stop flag,
    /// or `max_replies` in `total`. Every decodable request is admitted
    /// before the engine is pumped, so pipelined requests coalesce into
    /// one batched forward.
    fn serve_conn(
        &self,
        mut stream: Stream,
        total: &mut u64,
        max_replies: Option<u64>,
    ) -> Result<(), TransportError> {
        let mut fb = FrameBuf::new();
        self.handshake(&mut stream, &mut fb)?;
        let mut inflight: VecDeque<(u64, Result<u64, ServeError>)> = VecDeque::new();
        loop {
            if self.stopped() {
                return Ok(());
            }
            let disconnected = match read_frame(&mut stream, &mut fb, 1, PartyId::Public, || {
                silent(PartyId::Public, 1)
            }) {
                Ok(frame) => {
                    inflight.push_back(self.admit(frame)?);
                    false
                }
                // Nothing arrived this tick: pump and flush what is in flight.
                Err(TransportError::Timeout { .. }) => false,
                Err(TransportError::PeerDisconnected { .. }) => true,
                Err(e) => return Err(e),
            };
            while let Some(frame) = fb.next_frame()? {
                inflight.push_back(self.admit(frame)?);
            }
            if inflight.iter().any(|(_, admitted)| admitted.is_ok()) {
                self.service.pump();
            }
            self.flush_ready(&mut stream, &mut inflight, total)?;
            if matches!(max_replies, Some(m) if *total >= m)
                || (disconnected && inflight.is_empty())
            {
                return Ok(());
            }
        }
    }
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
