//! Party-to-party message transport with per-link byte accounting.
//!
//! The [`Transport`] trait is the seam between the GTV protocol and the
//! medium carrying it: every protocol exchange is *actually encoded to
//! bytes*, metered, decoded and delivered to the recipient's inbox, so
//! communication-overhead numbers come from the same code path as the
//! training itself. [`Network`] implements it: a roster of the server, the
//! clients and the public board in which each party's inbox is either
//!
//! * **local** — a FIFO channel in this process, whose receive blocks on a
//!   condvar, or
//! * **remote** — a [`PartyNode`](crate::PartyNode) in another process,
//!   reached by framed exchanges over TCP or a Unix-domain socket
//!   ([`socket`](crate::socket)).
//!
//! [`Network::new`] makes every party local; [`Network::connect`] makes the
//! parties it is given endpoints for remote. Sending, metering, fault
//! injection and the dead-party set are the same code for both kinds, and
//! [`NetStats`] count the encoded message body only, wherever it goes.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]
#![cfg_attr(
    not(test),
    deny(clippy::cast_possible_truncation, clippy::cast_possible_wrap, clippy::cast_sign_loss)
)]

use crate::socket::framing::{PROTOCOL_VERSION, WIRE_VERSION};
use crate::socket::{Endpoint, Remote};
use crate::wire::{DecodeMessageError, Message, WireCodec};
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use parking_lot::{Mutex, MutexGuard};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::time::Duration;

/// A transport-layer failure.
///
/// Protocol paths never panic on network conditions: every fallible
/// transport operation reports through this enum so orchestrators can
/// surface, retry or abort on their own terms.
#[derive(Debug, Clone, PartialEq)]
pub enum TransportError {
    /// A send targeted a party that has no inbox.
    UnknownRecipient(PartyId),
    /// A receive targeted a party that has no inbox.
    UnknownParty(PartyId),
    /// The recipient's inbox channel is disconnected.
    InboxClosed(PartyId),
    /// The inbox exists but holds no message.
    InboxEmpty(PartyId),
    /// A bounded-wait receive saw no message within its deadline.
    Timeout {
        /// Party whose inbox stayed empty.
        party: PartyId,
        /// How long the receive waited before giving up.
        waited: Duration,
        /// The round window open when the wait expired (the label of the
        /// last [`Transport::begin_round`] call), if any — so a hung party
        /// is diagnosable from the error alone.
        round: Option<u64>,
        /// The message variant the stalled protocol step was waiting for,
        /// if the receive came from `recv_expect`/`gather`.
        expecting: Option<&'static str>,
    },
    /// A message failed to round-trip through its wire encoding.
    Decode(DecodeMessageError),
    /// The link to a party closed mid-protocol: the peer process crashed,
    /// its socket hit EOF/reset, or a [`Fault::Disconnect`] was injected.
    PeerDisconnected {
        /// The party whose link died.
        party: PartyId,
    },
    /// Connection setup failed: the peer rejected our protocol/wire
    /// version, spoke garbage during the hello exchange, or never answered.
    HandshakeFailed {
        /// Human-readable rejection reason.
        reason: String,
    },
    /// A malformed transport frame on a remote party's link: bad opcode, truncated
    /// body, or a length prefix exceeding the framing bound.
    Frame {
        /// What was wrong with the frame.
        detail: String,
    },
    /// A protocol step received a message it has no handler for.
    UnexpectedMessage {
        /// Sender of the offending message.
        from: PartyId,
        /// The protocol step that rejected it.
        context: &'static str,
        /// The message itself.
        got: Message,
    },
    /// A send whose `(from, to)` pair the message's direction does not
    /// admit ([`Dir::admits`](crate::Dir::admits)), such as a shuffle-seed
    /// share addressed to or from the server. Refused before the message is
    /// encoded, metered or delivered.
    Misdirected {
        /// The sending party.
        from: PartyId,
        /// The addressed party.
        to: PartyId,
        /// The refused message's variant ([`Message::kind`]).
        kind: &'static str,
    },
    /// A protocol step expected one message variant and received another —
    /// a desynchronized (or tampered-with) peer, never to be silently
    /// consumed as an ack.
    ProtocolViolation {
        /// Sender of the offending message.
        from: PartyId,
        /// The variant name the step expected ([`Message::kind`]).
        expected: &'static str,
        /// The message actually received.
        got: Message,
    },
}

impl TransportError {
    /// Annotates a [`TransportError::Timeout`] with the message variant the
    /// caller was waiting for; every other variant passes through unchanged.
    #[must_use]
    pub fn with_expecting(self, kind: &'static str) -> Self {
        match self {
            TransportError::Timeout { party, waited, round, .. } => {
                TransportError::Timeout { party, waited, round, expecting: Some(kind) }
            }
            other => other,
        }
    }
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::UnknownRecipient(p) => write!(f, "unknown recipient {p}"),
            TransportError::UnknownParty(p) => write!(f, "unknown party {p}"),
            TransportError::InboxClosed(p) => write!(f, "inbox of {p} is closed"),
            TransportError::InboxEmpty(p) => write!(f, "inbox of {p} is empty"),
            TransportError::Timeout { party, waited, round, expecting } => {
                write!(f, "no message for {party} within {waited:?}")?;
                if let Some(r) = round {
                    write!(f, " during round {r}")?;
                }
                if let Some(kind) = expecting {
                    write!(f, " while expecting {kind}")?;
                }
                Ok(())
            }
            TransportError::Decode(e) => write!(f, "wire round-trip failed: {e}"),
            TransportError::PeerDisconnected { party } => {
                write!(f, "link to {party} is disconnected")
            }
            TransportError::HandshakeFailed { reason } => {
                write!(f, "transport handshake failed: {reason}")
            }
            TransportError::Frame { detail } => write!(f, "malformed transport frame: {detail}"),
            TransportError::UnexpectedMessage { from, context, got } => {
                write!(f, "unexpected message from {from} during {context}: {got:?}")
            }
            TransportError::Misdirected { from, to, kind } => {
                write!(f, "{kind} may not travel from {from} to {to}")
            }
            TransportError::ProtocolViolation { from, expected, got } => {
                write!(f, "protocol violation: expected {expected} from {from}, got {got:?}")
            }
        }
    }
}

impl std::error::Error for TransportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TransportError::Decode(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DecodeMessageError> for TransportError {
    fn from(e: DecodeMessageError) -> Self {
        TransportError::Decode(e)
    }
}

/// A protocol participant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PartyId {
    /// The trusted third-party server.
    Server,
    /// Client `i`.
    Client(usize),
    /// The public bulletin board (synthetic-data publication).
    Public,
}

impl fmt::Display for PartyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartyId::Server => write!(f, "server"),
            PartyId::Client(i) => write!(f, "client{i}"),
            PartyId::Public => write!(f, "public"),
        }
    }
}

/// Traffic counters for one training round (see [`Transport::begin_round`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoundStats {
    /// The round label the orchestrator opened this window with.
    pub round: u64,
    /// Messages sent during the round.
    pub messages: u64,
    /// Bytes sent during the round.
    pub bytes: u64,
    /// Per-(from, to) message and byte counts during the round.
    pub per_link: HashMap<(PartyId, PartyId), (u64, u64)>,
}

impl RoundStats {
    /// Messages and bytes `party` sent during the round.
    #[expect(
        clippy::disallowed_methods,
        reason = "an integer sum does not depend on the order the links are visited in"
    )]
    pub fn sent_by(&self, party: PartyId) -> (u64, u64) {
        self.per_link
            .iter()
            .filter(|((f, _), _)| *f == party)
            .fold((0, 0), |(m, b), (_, &(dm, db))| (m + dm, b + db))
    }

    /// Messages and bytes `party` received during the round.
    #[expect(
        clippy::disallowed_methods,
        reason = "an integer sum does not depend on the order the links are visited in"
    )]
    pub fn received_by(&self, party: PartyId) -> (u64, u64) {
        self.per_link
            .iter()
            .filter(|((_, t), _)| *t == party)
            .fold((0, 0), |(m, b), (_, &(dm, db))| (m + dm, b + db))
    }
}

/// Cumulative traffic counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Total messages sent.
    pub messages: u64,
    /// Total bytes sent.
    pub bytes: u64,
    /// Per-(from, to) message and byte counts.
    pub per_link: HashMap<(PartyId, PartyId), (u64, u64)>,
    /// Per-round breakdown: one entry per [`Transport::begin_round`] call,
    /// accumulating all traffic until the next call. Traffic before the
    /// first `begin_round` (e.g. seed negotiation) is counted only in the
    /// cumulative totals.
    pub rounds: Vec<RoundStats>,
}

impl NetStats {
    /// Bytes sent over one direction of a link.
    pub fn link_bytes(&self, from: PartyId, to: PartyId) -> u64 {
        self.per_link.get(&(from, to)).map_or(0, |&(_, b)| b)
    }

    /// Bytes that crossed the server boundary (either direction).
    #[expect(
        clippy::disallowed_methods,
        reason = "an integer sum does not depend on the order the links are visited in"
    )]
    pub fn server_bytes(&self) -> u64 {
        self.per_link
            .iter()
            .filter(|((f, t), _)| *f == PartyId::Server || *t == PartyId::Server)
            .map(|(_, &(_, b))| b)
            .sum()
    }
}

/// A [`Network`]'s metering and configuration state: cumulative and
/// per-round traffic counters and the bounded-receive deadline.
pub(crate) struct Meter {
    stats: Mutex<NetStats>,
    recv_timeout: Mutex<Duration>,
}

impl fmt::Debug for Meter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.stats.lock();
        write!(f, "Meter({} msgs, {} bytes)", s.messages, s.bytes)
    }
}

impl Meter {
    pub(crate) fn new() -> Self {
        Self {
            stats: Mutex::new(NetStats::default()),
            recv_timeout: Mutex::new(DEFAULT_RECV_TIMEOUT),
        }
    }

    /// Accounts one `len`-byte message on the `(from, to)` link, in both the
    /// cumulative counters and the open round window (if any).
    pub(crate) fn record(&self, from: PartyId, to: PartyId, len: usize) {
        let mut stats = self.stats.lock();
        stats.messages += 1;
        stats.bytes += len as u64;
        let entry = stats.per_link.entry((from, to)).or_insert((0, 0));
        entry.0 += 1;
        entry.1 += len as u64;
        if let Some(round) = stats.rounds.last_mut() {
            round.messages += 1;
            round.bytes += len as u64;
            let entry = round.per_link.entry((from, to)).or_insert((0, 0));
            entry.0 += 1;
            entry.1 += len as u64;
        }
    }

    pub(crate) fn begin_round(&self, round: u64) {
        self.stats.lock().rounds.push(RoundStats { round, ..RoundStats::default() });
    }

    /// The label of the currently open round window, if any.
    pub(crate) fn current_round(&self) -> Option<u64> {
        self.stats.lock().rounds.last().map(|r| r.round)
    }

    pub(crate) fn stats(&self) -> NetStats {
        self.stats.lock().clone()
    }

    pub(crate) fn reset(&self) {
        *self.stats.lock() = NetStats::default();
    }

    pub(crate) fn recv_timeout_bound(&self) -> Duration {
        *self.recv_timeout.lock()
    }

    pub(crate) fn set_recv_timeout(&self, timeout: Duration) {
        *self.recv_timeout.lock() = timeout;
    }

    /// The [`TransportError::Timeout`] for a wait that expired now, stamped
    /// with the open round window.
    pub(crate) fn timeout_error(&self, party: PartyId, waited: Duration) -> TransportError {
        TransportError::Timeout { party, waited, round: self.current_round(), expecting: None }
    }
}

/// A fault to inject into the next matching send (test instrumentation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Silently drop the message.
    Drop,
    /// Deliver the message twice.
    Duplicate,
    /// Close the link to the recipient: the triggering send fails with
    /// [`TransportError::PeerDisconnected`], and every later operation
    /// involving that party keeps failing the same way — modelling a peer
    /// process that crashed mid-round.
    Disconnect,
}

/// Refuses `msg` on `(from, to)` unless its direction in the round machine
/// admits that pair (DESIGN.md §11). Every send path calls this before it
/// encodes, meters or delivers anything.
fn check_direction(from: PartyId, to: PartyId, msg: &Message) -> Result<(), TransportError> {
    if msg.edge().dir.admits(from, to) {
        Ok(())
    } else {
        Err(TransportError::Misdirected { from, to, kind: msg.kind() })
    }
}

/// Default bound on how long [`Transport::recv`] waits for a message.
pub const DEFAULT_RECV_TIMEOUT: Duration = Duration::from_secs(1);

/// The message-transport seam between the GTV protocol and the medium
/// carrying it.
///
/// [`Network`] implements it; test and benchmark wrappers that record or
/// trace its traffic implement it by forwarding. Every implementation
/// meters a sent message as its encoded body's length, nothing more, so
/// [`NetStats`] are comparable — and testably identical — whichever parties
/// are local.
pub trait Transport {
    /// Encodes `msg`, meters it and delivers it to `to`'s inbox.
    ///
    /// # Errors
    ///
    /// Refuses, in this order and before anything is encoded, metered or
    /// delivered: [`TransportError::Misdirected`] if the message may not
    /// travel from `from` to `to`, [`TransportError::PeerDisconnected`] if
    /// the link to either end is closed (an armed [`Fault::Disconnect`]
    /// closes it now), [`TransportError::UnknownRecipient`] if `to` has no
    /// inbox. Afterwards, [`TransportError::Decode`] if the message fails
    /// to round-trip through its own wire encoding, or a remote party's
    /// link failure.
    fn send(&self, from: PartyId, to: PartyId, msg: Message) -> Result<(), TransportError>;

    /// Pops the next message from `party`'s inbox without waiting.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::InboxEmpty`] if the inbox is empty or
    /// [`TransportError::UnknownParty`] if `party` has no inbox.
    fn try_recv(&self, party: PartyId) -> Result<(PartyId, Message), TransportError>;

    /// Pops the next message, waiting up to `timeout` for one to arrive.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Timeout`] (stamped with the open round
    /// window) if no message arrives in time, plus every link failure of a
    /// remote party.
    fn recv_timeout(
        &self,
        party: PartyId,
        timeout: Duration,
    ) -> Result<(PartyId, Message), TransportError>;

    /// The bound [`Transport::recv`] waits before reporting
    /// [`TransportError::Timeout`] (default [`DEFAULT_RECV_TIMEOUT`]).
    fn recv_timeout_bound(&self) -> Duration;

    /// Sets the bound [`Transport::recv`] waits before reporting
    /// [`TransportError::Timeout`].
    fn set_recv_timeout(&self, timeout: Duration);

    /// The wire codec in effect: [`WireCodec::Dense`], the only one.
    fn codec(&self) -> WireCodec {
        WireCodec::Dense
    }

    /// Selects the wire codec. [`WireCodec::Dense`] is the only one, so
    /// this does nothing.
    fn set_codec(&self, _codec: WireCodec) {}

    /// Opens a new per-round traffic window labelled `round`: all traffic
    /// until the next call accumulates into one [`RoundStats`] entry of
    /// [`NetStats::rounds`] (cumulative counters are unaffected).
    fn begin_round(&self, round: u64);

    /// Snapshot of the traffic counters.
    fn stats(&self) -> NetStats;

    /// Resets the traffic counters (e.g. between measurement phases).
    fn reset_stats(&self);

    /// Delivers one fan-out of pre-addressed messages, metered and delivered
    /// **in input order** — the wire trace is byte-identical to sending the
    /// same list through [`Transport::send`] one at a time (an
    /// implementation may parallelize the encoding, never the accounting
    /// order).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Transport::send`]; a misdirected message refuses
    /// the whole fan-out before any of it is sent, and otherwise delivery
    /// stops at the first failing message.
    fn send_all(&self, msgs: Vec<(PartyId, PartyId, Message)>) -> Result<(), TransportError> {
        msgs.iter().try_for_each(|(from, to, msg)| check_direction(*from, *to, msg))?;
        for (from, to, msg) in msgs {
            self.send(from, to, msg)?;
        }
        Ok(())
    }

    /// Pops the next message, waiting up to the configured receive timeout
    /// for one to arrive.
    ///
    /// Unlike [`Transport::try_recv`] this tolerates a sender running on
    /// another thread/process that has not delivered *yet*; a genuinely
    /// dropped or mis-sequenced message still surfaces, as
    /// [`TransportError::Timeout`], once the bounded wait expires.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Transport::recv_timeout`].
    fn recv(&self, party: PartyId) -> Result<(PartyId, Message), TransportError> {
        self.recv_timeout(party, self.recv_timeout_bound())
    }

    /// [`Transport::recv`], additionally checking the popped message is the
    /// `expected` variant ([`Message::kind`]).
    ///
    /// Protocol steps that consume a message they already know the shape of
    /// must use this instead of discarding a bare `recv` result: a
    /// desynchronized peer then surfaces as a
    /// [`TransportError::ProtocolViolation`] at the step that noticed,
    /// instead of silently corrupting a later phase.
    ///
    /// # Errors
    ///
    /// [`TransportError::ProtocolViolation`] on a variant mismatch, plus
    /// every [`Transport::recv`] condition (timeouts are annotated with the
    /// expected variant).
    fn recv_expect(
        &self,
        party: PartyId,
        expected: &'static str,
    ) -> Result<(PartyId, Message), TransportError> {
        let (from, msg) = self.recv(party).map_err(|e| e.with_expecting(expected))?;
        if msg.kind() != expected {
            return Err(TransportError::ProtocolViolation { from, expected, got: msg });
        }
        Ok((from, msg))
    }

    /// Pops one message of the expected variant at each listed party, in
    /// list order: [`Transport::recv_expect`] for each `(party, expected)`
    /// entry. An implementation may have the pops in flight together; the
    /// messages it returns are the same, and on failure the error is the
    /// one of the first entry, in list order, that failed.
    ///
    /// # Errors
    ///
    /// Every [`Transport::recv_expect`] condition.
    fn recv_each(
        &self,
        expects: &[(PartyId, &'static str)],
    ) -> Result<Vec<(PartyId, Message)>, TransportError> {
        expects.iter().map(|&(party, expected)| self.recv_expect(party, expected)).collect()
    }

    /// Fan-in: pops one `expected`-variant message from each of `senders`
    /// at `at`'s inbox and returns them **in `senders` order**, regardless
    /// of arrival order. This is what makes a round's fan-in independent
    /// of delivery order: the server processes replies in fixed party
    /// order even if clients finished out of order.
    ///
    /// # Errors
    ///
    /// [`TransportError::UnexpectedMessage`] on a message from a party not
    /// in `senders` (or a duplicate), [`TransportError::ProtocolViolation`]
    /// on a variant mismatch, plus every [`Transport::recv`] condition
    /// (timeouts are annotated with the expected variant).
    fn gather(
        &self,
        at: PartyId,
        senders: &[PartyId],
        expected: &'static str,
    ) -> Result<Vec<Message>, TransportError> {
        let mut slots: Vec<Option<Message>> = vec![None; senders.len()];
        for _ in 0..senders.len() {
            let (from, msg) = self.recv(at).map_err(|e| e.with_expecting(expected))?;
            let Some(pos) = senders.iter().position(|&s| s == from) else {
                return Err(TransportError::UnexpectedMessage {
                    from,
                    context: "gather: sender not in the fan-in set",
                    got: msg,
                });
            };
            if slots[pos].is_some() {
                return Err(TransportError::UnexpectedMessage {
                    from,
                    context: "gather: duplicate sender",
                    got: msg,
                });
            }
            if msg.kind() != expected {
                return Err(TransportError::ProtocolViolation { from, expected, got: msg });
            }
            slots[pos] = Some(msg);
        }
        // n distinct senders filled n slots; collect() is total here.
        slots.into_iter().collect::<Option<Vec<_>>>().ok_or(TransportError::InboxEmpty(at))
    }
}

/// Seeded Fisher–Yates permuter over fan-out delivery order; one fresh
/// permutation per [`Transport::send_all`] call, derived from (seed, call
/// counter) via splitmix64 so a run is reproducible from its seed alone.
#[derive(Debug)]
struct Permuter {
    seed: u64,
    calls: u64,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Permuter {
    /// The delivery order for the next `n`-message fan-out.
    fn order(&mut self, n: usize) -> Vec<usize> {
        self.calls += 1;
        let mut state = self.seed ^ self.calls.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut idx: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            #[expect(clippy::cast_possible_truncation, reason = "the remainder is at most `i`")]
            let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
            idx.swap(i, j);
        }
        idx
    }
}

/// An inbox in this process: both halves of a condvar channel, so a
/// receive can clone the receiver and wait outside any lock. A [`Network`]
/// holds one of decoded messages per local party, a
/// [`PartyNode`](crate::PartyNode) one of encoded messages for its party.
pub(crate) struct Inbox<T> {
    pub(crate) tx: Sender<T>,
    pub(crate) rx: Receiver<T>,
}

impl<T> Inbox<T> {
    pub(crate) fn new() -> Self {
        let (tx, rx) = unbounded();
        Self { tx, rx }
    }
}

/// The [`Transport`]: the server, `n` clients and the public board, each
/// with a local inbox or a link to the [`PartyNode`](crate::PartyNode) that
/// hosts it.
pub struct Network {
    meter: Meter,
    /// Inboxes of the parties this process hosts. No socket exchange holds
    /// this lock, so a local send never waits on another party's socket.
    local: Mutex<HashMap<PartyId, Inbox<(PartyId, Message)>>>,
    /// Links to the parties hosted elsewhere, each held for one exchange,
    /// or for all of a fan-out's pops ([`Transport::recv_each`]).
    remote: BTreeMap<PartyId, Mutex<Remote>>,
    /// Parties whose link a [`Fault::Disconnect`] or a failed redial
    /// closed: every operation involving them reports
    /// [`TransportError::PeerDisconnected`].
    dead: Mutex<HashSet<PartyId>>,
    faults: Mutex<Vec<(PartyId, PartyId, Fault)>>,
    permuter: Mutex<Option<Permuter>>,
}

/// Another name for [`Network`], kept because the benchmark (`gtvbench`)
/// names it; ROADMAP item 5 retires it.
pub type InProcTransport = Network;

/// Another name for [`Network`], kept because the benchmark (`gtvbench`)
/// names it; ROADMAP item 5 retires it.
pub type SocketTransport = Network;

impl fmt::Debug for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.meter.stats();
        write!(f, "Network({} remote, {} msgs, {} bytes)", self.remote.len(), s.messages, s.bytes)
    }
}

impl Network {
    /// A roster of the server, `n_clients` clients and the public board,
    /// every one with a local inbox.
    pub fn new(n_clients: usize) -> Self {
        Self::with_remote(n_clients, BTreeMap::new())
    }

    /// The roster of [`Network::new`], except that each party in
    /// `endpoints` is remote: it is dialed (bounded retry with exponential
    /// backoff, then a version handshake) in party order, so configuration
    /// errors surface here, not mid-round.
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

    /// [`Network::connect`] announcing custom handshake versions — a test
    /// hook for exercising the rejection path against a live node.
    #[doc(hidden)]
    pub fn connect_with_versions(
        n_clients: usize,
        endpoints: HashMap<PartyId, Endpoint>,
        protocol: u32,
        wire: u32,
    ) -> Result<Self, TransportError> {
        // In party order, so the error names the same party on every run.
        let endpoints: BTreeMap<PartyId, Endpoint> = endpoints.into_iter().collect();
        let roster = roster(n_clients);
        if let Some(&p) = endpoints.keys().find(|p| !roster.contains(p)) {
            return Err(TransportError::UnknownParty(p));
        }
        let mut remote = BTreeMap::new();
        for (party, endpoint) in endpoints {
            remote.insert(party, Mutex::new(Remote::open(party, endpoint, protocol, wire)?));
        }
        Ok(Self::with_remote(n_clients, remote))
    }

    fn with_remote(n_clients: usize, remote: BTreeMap<PartyId, Mutex<Remote>>) -> Self {
        let local = roster(n_clients)
            .into_iter()
            .filter(|p| !remote.contains_key(p))
            .map(|p| (p, Inbox::new()))
            .collect();
        Self {
            meter: Meter::new(),
            local: Mutex::new(local),
            remote,
            dead: Mutex::new(HashSet::new()),
            faults: Mutex::new(Vec::new()),
            permuter: Mutex::new(None),
        }
    }

    /// Makes every subsequent [`Transport::send_all`] deliver its fan-out in
    /// a seeded pseudo-random order instead of input order. Because
    /// [`Transport::gather`] slots replies back into fixed sender order and
    /// every fan-out addresses each recipient once, training results must
    /// be bit-identical under any permutation, which
    /// `crates/core/tests/schedule_explorer.rs` checks. Per-call
    /// permutations are derived from `(seed, call index)`, so a run
    /// replays exactly from its seed.
    pub fn permute_deliveries(&self, seed: u64) {
        *self.permuter.lock() = Some(Permuter { seed, calls: 0 });
    }

    /// Arms a one-shot fault for the next send on `(from, to)` — protocol
    /// tests use this to check that the orchestration *notices* lost,
    /// replayed or severed messages instead of silently mis-training.
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

    /// Severs `party`: it is marked dead, its socket (if remote) is closed
    /// and its inbox (if local) dropped, which wakes a blocked receiver.
    fn sever(&self, party: PartyId) {
        self.dead.lock().insert(party);
        if let Some(remote) = self.remote.get(&party) {
            remote.lock().close();
        }
        self.local.lock().remove(&party);
    }

    /// Runs one exchange with remote `party` (see [`Network::note`]).
    fn on_remote<R>(
        &self,
        party: PartyId,
        remote: &Mutex<Remote>,
        exchange: impl FnOnce(&mut Remote) -> Result<R, TransportError>,
    ) -> Result<R, TransportError> {
        self.note(party, exchange(&mut remote.lock()))
    }

    /// Passes on the outcome of an exchange with remote `party`; a party
    /// its link reports gone is dead from then on.
    fn note<R>(
        &self,
        party: PartyId,
        outcome: Result<R, TransportError>,
    ) -> Result<R, TransportError> {
        if let Err(TransportError::PeerDisconnected { .. }) = outcome {
            self.dead.lock().insert(party);
        }
        outcome
    }

    /// Refuses a send on `(from, to)` before anything is encoded or
    /// metered: a dead party at either end, an armed [`Fault::Disconnect`]
    /// (which severs `to`), or a recipient outside the roster. Returns the
    /// fault armed for the send, if any.
    fn admit(&self, from: PartyId, to: PartyId) -> Result<Option<Fault>, TransportError> {
        for party in [to, from] {
            if self.is_dead(party) {
                return Err(TransportError::PeerDisconnected { party });
            }
        }
        let fault = self.take_fault(from, to);
        if fault == Some(Fault::Disconnect) {
            // The link dies as the send begins: nothing reaches the wire,
            // so nothing is metered.
            self.sever(to);
            return Err(TransportError::PeerDisconnected { party: to });
        }
        if !self.remote.contains_key(&to) && !self.local.lock().contains_key(&to) {
            return Err(TransportError::UnknownRecipient(to));
        }
        Ok(fault)
    }

    /// Meters `encoded` on `(from, to)` and delivers it as `fault` says:
    /// not at all, twice, or once.
    fn deliver(
        &self,
        from: PartyId,
        to: PartyId,
        fault: Option<Fault>,
        encoded: Bytes,
    ) -> Result<(), TransportError> {
        self.meter.record(from, to, encoded.len());
        match fault {
            Some(Fault::Drop) => Ok(()),
            Some(Fault::Duplicate) => {
                self.put(from, to, encoded.clone())?;
                self.put(from, to, encoded)
            }
            _ => self.put(from, to, encoded),
        }
    }

    /// Puts one encoded message into `to`'s inbox: over its node's socket,
    /// or decoded into its channel — a local recipient, too, sees only what
    /// was actually serialized.
    fn put(&self, from: PartyId, to: PartyId, encoded: Bytes) -> Result<(), TransportError> {
        if let Some(remote) = self.remote.get(&to) {
            return self.on_remote(to, remote, |r| r.deliver(from, encoded));
        }
        let msg = Message::decode(encoded)?;
        let local = self.local.lock();
        // `admit` found the inbox, so only a concurrent sever removed it.
        let inbox = local.get(&to).ok_or(TransportError::PeerDisconnected { party: to })?;
        inbox.tx.send((from, msg)).map_err(|_| TransportError::InboxClosed(to))
    }

    /// Pops `party`'s next message, waiting up to `wait` for one (`None`:
    /// not at all).
    fn pop(
        &self,
        party: PartyId,
        wait: Option<Duration>,
    ) -> Result<(PartyId, Message), TransportError> {
        if self.is_dead(party) {
            return Err(TransportError::PeerDisconnected { party });
        }
        if let Some(remote) = self.remote.get(&party) {
            return self.on_remote(party, remote, |r| r.pop(wait, &self.meter));
        }
        // Clone the receiver and release the roster lock *before* blocking:
        // holding it across the wait would deadlock concurrent `send`s, the
        // very senders the wait exists for.
        let rx = match self.local.lock().get(&party) {
            Some(inbox) => inbox.rx.clone(),
            None => return Err(TransportError::UnknownParty(party)),
        };
        // The channel disconnects only when `sever` drops the inbox.
        match wait {
            None => rx.try_recv().map_err(|e| match e {
                TryRecvError::Empty => TransportError::InboxEmpty(party),
                TryRecvError::Disconnected => TransportError::PeerDisconnected { party },
            }),
            Some(timeout) => rx.recv_timeout(timeout).map_err(|e| match e {
                RecvTimeoutError::Timeout => self.meter.timeout_error(party, timeout),
                RecvTimeoutError::Disconnected => TransportError::PeerDisconnected { party },
            }),
        }
    }
}

/// The server, the public board and clients `0..n_clients`.
fn roster(n_clients: usize) -> Vec<PartyId> {
    let mut roster = vec![PartyId::Server, PartyId::Public];
    roster.extend((0..n_clients).map(PartyId::Client));
    roster
}

impl Transport for Network {
    fn send(&self, from: PartyId, to: PartyId, msg: Message) -> Result<(), TransportError> {
        check_direction(from, to, &msg)?;
        let fault = self.admit(from, to)?;
        let encoded = msg.encode();
        msg.recycle();
        self.deliver(from, to, fault, encoded)
    }

    /// Every payload is encoded concurrently through `gtv_tensor::pool`
    /// (serialization cost is per-byte, and independent per message),
    /// handed back to the tensor pool, then admitted, metered and delivered
    /// in input order — so each local delivery's decode can reuse a
    /// payload's storage. Under [`Network::permute_deliveries`] the
    /// delivery order is a seeded permutation instead; per-message bytes
    /// are unchanged.
    fn send_all(&self, msgs: Vec<(PartyId, PartyId, Message)>) -> Result<(), TransportError> {
        msgs.iter().try_for_each(|(from, to, msg)| check_direction(*from, *to, msg))?;
        let encoded = gtv_tensor::pool::run_ordered(msgs.len(), |i| msgs[i].2.encode());
        let mut fan: Vec<Option<(PartyId, PartyId, Bytes)>> = msgs
            .into_iter()
            .zip(encoded)
            .map(|((from, to, msg), bytes)| {
                msg.recycle();
                Some((from, to, bytes))
            })
            .collect();
        let order = match self.permuter.lock().as_mut() {
            Some(permuter) => permuter.order(fan.len()),
            None => (0..fan.len()).collect(),
        };
        for i in order {
            if let Some((from, to, bytes)) = fan[i].take() {
                let fault = self.admit(from, to)?;
                self.deliver(from, to, fault, bytes)?;
            }
        }
        Ok(())
    }

    /// Asks every remote party in the list for its message before reading
    /// any reply, so the nodes' waits overlap and the fan-out's pops cost
    /// about the slowest one, not their sum; then reads the replies in list
    /// order, popping local parties as [`Transport::recv_expect`] does. A
    /// party listed twice is asked once up front and popped in turn after.
    /// After the first failure every request already written is still read,
    /// within its deadline, so no link is left with a reply in flight that
    /// a later request would read; then the first failure in list order is
    /// returned. So a failed call consumes the message of every remote
    /// party it asked, while a local party listed after the failure is not
    /// popped and keeps its message; every message it popped goes back to
    /// the pools. The trainer aborts its round on any error, so it reads
    /// neither kind of inbox again in that round.
    fn recv_each(
        &self,
        expects: &[(PartyId, &'static str)],
    ) -> Result<Vec<(PartyId, Message)>, TransportError> {
        let wait = Some(self.recv_timeout_bound());
        // The listed remote parties' links, held for the whole call and
        // locked in party order, so that two concurrent calls cannot
        // deadlock.
        let parties: BTreeSet<PartyId> = expects.iter().map(|&(p, _)| p).collect();
        let mut links: BTreeMap<PartyId, MutexGuard<'_, Remote>> =
            parties.into_iter().filter_map(|p| Some((p, self.remote.get(&p)?.lock()))).collect();
        // One request to each before any reply is read.
        let mut asked: BTreeMap<PartyId, Result<(), TransportError>> = links
            .iter_mut()
            .map(|(&party, link)| {
                let ask = if self.is_dead(party) {
                    Err(TransportError::PeerDisconnected { party })
                } else {
                    self.note(party, link.ask_pop(wait))
                };
                (party, ask)
            })
            .collect();
        let mut popped = Vec::with_capacity(expects.len());
        let mut failed = None;
        for &(party, expected) in expects {
            let outcome = match (asked.remove(&party), links.get_mut(&party)) {
                (Some(Ok(())), Some(link)) => self.note(party, link.answer_pop(wait, &self.meter)),
                (Some(Err(e)), _) => Err(e),
                // Nothing in flight here, so nothing to read after a failure.
                _ if failed.is_some() => continue,
                // A party listed again, whose first pop has been answered.
                (_, Some(_)) if self.is_dead(party) => {
                    Err(TransportError::PeerDisconnected { party })
                }
                (_, Some(link)) => self.note(party, link.pop(wait, &self.meter)),
                (_, None) => self.pop(party, wait),
            };
            match outcome.map_err(|e| e.with_expecting(expected)) {
                Ok((from, msg)) if msg.kind() != expected => {
                    failed.get_or_insert(TransportError::ProtocolViolation {
                        from,
                        expected,
                        got: msg,
                    });
                }
                Ok(popped_msg) => popped.push(popped_msg),
                Err(e) => {
                    failed.get_or_insert(e);
                }
            }
        }
        match failed {
            None => Ok(popped),
            Some(e) => {
                popped.into_iter().for_each(|(_, msg)| msg.recycle());
                Err(e)
            }
        }
    }

    fn try_recv(&self, party: PartyId) -> Result<(PartyId, Message), TransportError> {
        self.pop(party, None)
    }

    fn recv_timeout(
        &self,
        party: PartyId,
        timeout: Duration,
    ) -> Result<(PartyId, Message), TransportError> {
        self.pop(party, Some(timeout))
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
#[expect(
    clippy::disallowed_methods,
    reason = "the tests drive peers on threads and bound their waits in wall time"
)]
mod tests {
    use super::*;
    use crate::socket::tests::TestNode;
    use crate::wire::{MatrixPayload, SeedShare};

    /// A 1×1 synthetic-logits upload: client → server filler traffic.
    fn logits(v: u8) -> Message {
        Message::SynthLogits(MatrixPayload::new(1, 1, vec![f32::from(v)]))
    }

    /// A round opening: server → client filler traffic.
    fn start(round: u64) -> Message {
        Message::RoundStart { round, selected: 0 }
    }

    #[test]
    fn send_recv_and_metering() {
        let net = Network::new(2);
        let msg = Message::GenSlice(MatrixPayload::new(1, 2, vec![1.0, 2.0]));
        net.send(PartyId::Server, PartyId::Client(0), msg.clone()).unwrap();
        let (from, got) = net.recv(PartyId::Client(0)).unwrap();
        assert_eq!(from, PartyId::Server);
        assert_eq!(got, msg);
        let stats = net.stats();
        assert_eq!(stats.messages, 1);
        // tag + matrix format byte + 8-byte header + 2 × f32.
        assert_eq!(stats.bytes, 1 + 9 + 8);
        assert_eq!(stats.link_bytes(PartyId::Server, PartyId::Client(0)), 18);
        assert_eq!(stats.server_bytes(), 18);
    }

    #[test]
    fn send_all_matches_sequential_sends_byte_for_byte() {
        let msgs = || {
            vec![
                (
                    PartyId::Server,
                    PartyId::Client(0),
                    Message::GenSlice(MatrixPayload::new(1, 3, vec![0.0, 2.0, 0.0])),
                ),
                (
                    PartyId::Server,
                    PartyId::Client(1),
                    Message::GenSlice(MatrixPayload::new(1, 3, vec![1.0, 0.0, 0.0])),
                ),
                (PartyId::Client(0), PartyId::Server, logits(9)),
                // Above the recycling floor, to see it parked.
                (
                    PartyId::Server,
                    PartyId::Client(1),
                    Message::GenSlice(MatrixPayload::new(1, 64, vec![0.5; 64])),
                ),
            ]
        };
        // At two workers half the payloads are encoded off the calling
        // thread; either way every one comes back to the calling thread's
        // pool once it is encoded. The worker count is process-wide, but
        // results do not depend on it, so tests running alongside see the
        // same bits.
        let before = gtv_tensor::pool::threads();
        for threads in [1, 2] {
            gtv_tensor::pool::set_threads(threads);
            let seq = Network::new(2);
            for (f, t, m) in msgs() {
                seq.send(f, t, m).unwrap();
            }
            let all = Network::new(2);
            let held = gtv_tensor::pool_mem::stats().bytes_held;
            all.send_all(msgs()).unwrap();
            assert!(
                gtv_tensor::pool_mem::stats().bytes_held >= held + 64 * 4,
                "the encoded payloads must be parked at {threads} threads"
            );
            assert_eq!(seq.stats(), all.stats());
            // FIFO order per inbox is preserved.
            let (_, a) = all.recv(PartyId::Client(0)).unwrap();
            assert_eq!(a, Message::GenSlice(MatrixPayload::new(1, 3, vec![0.0, 2.0, 0.0])));
        }
        gtv_tensor::pool::set_threads(before);
    }

    #[test]
    fn permute_deliveries_reorders_deterministically_without_changing_traffic() {
        let fan = || {
            (0..4usize)
                .map(|i| (PartyId::Client(i), PartyId::Server, logits(i as u8)))
                .collect::<Vec<_>>()
        };
        let drain = |net: &Network| {
            let mut order = Vec::new();
            while let Ok((from, _)) = net.try_recv(PartyId::Server) {
                order.push(from);
            }
            order
        };
        let plain = Network::new(4);
        plain.send_all(fan()).unwrap();
        let a = Network::new(4);
        a.permute_deliveries(7);
        a.send_all(fan()).unwrap();
        let b = Network::new(4);
        b.permute_deliveries(7);
        b.send_all(fan()).unwrap();
        // Bytes and message counts are delivery-order-independent.
        assert_eq!(plain.stats(), a.stats(), "permutation must not change metered traffic");
        let plain_order = drain(&plain);
        let a_order = drain(&a);
        assert_eq!(a_order, drain(&b), "same seed must replay the same delivery order");
        assert_eq!(plain_order.len(), a_order.len(), "every message still arrives");
        assert_ne!(plain_order, a_order, "seed 7 actually permutes a 4-message fan-out");
    }

    #[test]
    fn recv_expect_flags_a_wrong_variant() {
        let net = Network::new(1);
        net.send(PartyId::Client(0), PartyId::Server, logits(3)).unwrap();
        let err = net.recv_expect(PartyId::Server, "RealLogits").unwrap_err();
        match err {
            TransportError::ProtocolViolation { from, expected, got } => {
                assert_eq!(from, PartyId::Client(0));
                assert_eq!(expected, "RealLogits");
                assert_eq!(got, logits(3));
            }
            other => panic!("expected ProtocolViolation, got {other:?}"),
        }
        // A matching variant passes through.
        net.send(PartyId::Client(0), PartyId::Server, logits(4)).unwrap();
        assert!(net.recv_expect(PartyId::Server, "SynthLogits").is_ok());
    }

    #[test]
    fn gather_returns_fixed_party_order_regardless_of_arrival() {
        let net = Network::new(2);
        // Client 1's reply lands first.
        net.send(PartyId::Client(1), PartyId::Server, logits(11)).unwrap();
        net.send(PartyId::Client(0), PartyId::Server, logits(10)).unwrap();
        let got = net
            .gather(PartyId::Server, &[PartyId::Client(0), PartyId::Client(1)], "SynthLogits")
            .unwrap();
        assert_eq!(got, vec![logits(10), logits(11)]);
    }

    #[test]
    fn gather_rejects_outsiders_and_duplicates() {
        let net = Network::new(3);
        net.send(PartyId::Client(2), PartyId::Server, logits(1)).unwrap();
        let err = net
            .gather(PartyId::Server, &[PartyId::Client(0), PartyId::Client(1)], "SynthLogits")
            .unwrap_err();
        assert!(matches!(err, TransportError::UnexpectedMessage { from: PartyId::Client(2), .. }));
        let net = Network::new(2);
        net.send(PartyId::Client(0), PartyId::Server, logits(1)).unwrap();
        net.send(PartyId::Client(0), PartyId::Server, logits(2)).unwrap();
        let err = net
            .gather(PartyId::Server, &[PartyId::Client(0), PartyId::Client(1)], "SynthLogits")
            .unwrap_err();
        assert!(matches!(err, TransportError::UnexpectedMessage { from: PartyId::Client(0), .. }));
    }

    #[test]
    fn begin_round_opens_per_round_windows() {
        let net = Network::new(1);
        // Pre-round traffic counts only toward the cumulative totals.
        net.send(PartyId::Client(0), PartyId::Server, logits(0)).unwrap();
        net.begin_round(0);
        net.send(PartyId::Server, PartyId::Client(0), start(1)).unwrap();
        net.send(PartyId::Server, PartyId::Client(0), start(2)).unwrap();
        net.begin_round(1);
        net.send(PartyId::Client(0), PartyId::Server, logits(3)).unwrap();
        let stats = net.stats();
        assert_eq!(stats.messages, 4);
        assert_eq!(stats.rounds.len(), 2);
        assert_eq!((stats.rounds[0].round, stats.rounds[0].messages), (0, 2));
        assert_eq!((stats.rounds[1].round, stats.rounds[1].messages), (1, 1));
        assert_eq!(stats.rounds[0].sent_by(PartyId::Server).0, 2);
        assert_eq!(stats.rounds[0].received_by(PartyId::Client(0)).0, 2);
        assert_eq!(stats.rounds[1].sent_by(PartyId::Server).0, 0);
        assert_eq!(
            // 14 = the pre-round message: tag, matrix format byte,
            // 8-byte header, one f32.
            stats.rounds[0].bytes + stats.rounds[1].bytes + 14,
            stats.bytes
        );
    }

    #[test]
    fn inboxes_are_fifo_per_party() {
        let net = Network::new(1);
        net.send(PartyId::Client(0), PartyId::Server, logits(1)).unwrap();
        net.send(PartyId::Client(0), PartyId::Server, logits(2)).unwrap();
        let (_, m1) = net.recv(PartyId::Server).unwrap();
        let (_, m2) = net.recv(PartyId::Server).unwrap();
        assert_eq!(m1, logits(1));
        assert_eq!(m2, logits(2));
        assert!(net.try_recv(PartyId::Server).is_err());
    }

    #[test]
    fn client_to_client_traffic_bypasses_server_counter() {
        let net = Network::new(2);
        net.send(
            PartyId::Client(0),
            PartyId::Client(1),
            Message::ShuffleSeedShare { share: SeedShare::from(7) },
        )
        .unwrap();
        assert_eq!(net.stats().server_bytes(), 0);
        assert!(net.stats().bytes > 0);
    }

    #[test]
    fn reset_clears_counters() {
        let net = Network::new(1);
        net.send(PartyId::Server, PartyId::Client(0), start(0)).unwrap();
        net.reset_stats();
        assert_eq!(net.stats().messages, 0);
    }

    /// Where the fault table's client 0 lives; the server, the public board
    /// and client 1 are always local.
    #[derive(Debug, Clone, Copy)]
    enum Host {
        Local,
        Tcp,
        Uds,
    }

    /// A Unix-domain endpoint in the temporary directory, unique to `tag`.
    fn uds(tag: &str) -> Endpoint {
        Endpoint::Unix(
            std::env::temp_dir().join(format!("gtv-vfl-{}-{tag}.sock", std::process::id())),
        )
    }

    /// A two-client roster hosting client 0 as `host` says, and its node.
    fn roster_at(host: Host, tag: &str) -> (Network, Option<TestNode>) {
        let endpoint = match host {
            Host::Local => return (Network::new(2), None),
            Host::Tcp => Endpoint::parse("127.0.0.1:0"),
            Host::Uds => uds(tag),
        };
        let node = TestNode::spawn(PartyId::Client(0), &endpoint);
        (node.roster(2), Some(node))
    }

    /// What the fault table does to the roster.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Case {
        Drop,
        Duplicate,
        Disconnect,
        Misdirected,
        UnknownRecipient,
    }

    /// Messages and bytes metered since `before`.
    fn metered_since(net: &Network, before: &NetStats) -> (u64, u64) {
        let now = net.stats();
        (now.messages - before.messages, now.bytes - before.bytes)
    }

    /// Runs `case` on `net`, asserting the typed error, the meter and the
    /// inboxes; every inbox is empty when it returns.
    fn check(net: &Network, case: Case, at: &str) {
        let (server, c0, c1) = (PartyId::Server, PartyId::Client(0), PartyId::Client(1));
        let empty = |p| Err(TransportError::InboxEmpty(p));
        match case {
            Case::Drop | Case::Duplicate => {
                let fault = if case == Case::Drop { Fault::Drop } else { Fault::Duplicate };
                // Into client 0's inbox, and from client 0 into the server's.
                for (from, to, msg) in [(server, c0, start(1)), (c0, server, logits(1))] {
                    let before = net.stats();
                    net.inject_fault(from, to, fault);
                    assert_eq!(net.send(from, to, msg.clone()), Ok(()), "{at}");
                    // The message went on the wire once, so it is metered once.
                    let bytes = msg.encode().len() as u64;
                    assert_eq!(metered_since(net, &before), (1, bytes), "{at}");
                    if fault == Fault::Duplicate {
                        assert_eq!(net.try_recv(to), Ok((from, msg.clone())), "{at}");
                        assert_eq!(net.try_recv(to), Ok((from, msg.clone())), "{at}");
                    }
                    assert_eq!(net.try_recv(to), empty(to), "{at}: {from} to {to}");
                    // The fault is one-shot.
                    net.send(from, to, msg.clone()).unwrap();
                    assert_eq!(net.try_recv(to), Ok((from, msg)), "{at}");
                    assert_eq!(net.try_recv(to), empty(to), "{at}");
                }
            }
            Case::Disconnect => {
                net.inject_fault(server, c0, Fault::Disconnect);
                let before = net.stats();
                let gone = TransportError::PeerDisconnected { party: c0 };
                assert_eq!(net.send(server, c0, start(1)).unwrap_err(), gone, "{at}");
                // The link stays dead: sends to and from the crashed party
                // and receives at it keep reporting the disconnect.
                assert_eq!(net.send(server, c0, start(2)).unwrap_err(), gone, "{at}");
                assert_eq!(net.send(c0, server, logits(3)).unwrap_err(), gone, "{at}");
                assert_eq!(net.send_all(vec![(server, c0, start(3))]).unwrap_err(), gone, "{at}");
                assert_eq!(net.try_recv(c0).unwrap_err(), gone, "{at}");
                assert_eq!(net.recv(c0).unwrap_err(), gone, "{at}");
                // None of it reached the wire.
                assert_eq!(net.stats(), before, "{at}");
                assert_eq!(net.try_recv(server), empty(server), "{at}");
                // Unrelated links keep working.
                net.send(server, c1, start(4)).unwrap();
                assert_eq!(net.try_recv(c1), Ok((server, start(4))), "{at}");
            }
            Case::Misdirected => {
                net.send(server, c0, start(0)).unwrap();
                let before = net.stats();
                let seed = || Message::ShuffleSeedShare { share: SeedShare::from(7) };
                let index = || Message::IndexShare { indices: vec![1, 2] };
                for (from, to, msg) in [
                    (c0, server, seed()),
                    (server, c0, seed()),
                    (c0, server, index()),
                    (server, c0, index()),
                    (server, c0, logits(1)),
                ] {
                    let kind = msg.kind();
                    assert_eq!(
                        net.send(from, to, msg),
                        Err(TransportError::Misdirected { from, to, kind }),
                        "{at}: {kind} from {from} to {to}"
                    );
                }
                // One misdirected message refuses the whole fan-out.
                let fan = vec![(server, c0, start(1)), (c1, server, seed())];
                assert!(
                    matches!(net.send_all(fan), Err(TransportError::Misdirected { .. })),
                    "{at}"
                );
                assert_eq!(net.stats(), before, "{at}: a refused send is not metered");
                assert_eq!(net.try_recv(server), empty(server), "{at}");
                assert_eq!(net.try_recv(c0), Ok((server, start(0))), "{at}");
                assert_eq!(net.try_recv(c0), empty(c0), "{at}");
            }
            Case::UnknownRecipient => {
                let stranger = PartyId::Client(5);
                let before = net.stats();
                assert_eq!(
                    net.send(server, stranger, start(1)),
                    Err(TransportError::UnknownRecipient(stranger)),
                    "{at}"
                );
                assert_eq!(net.stats(), before, "{at}: a refused send is not metered");
                assert_eq!(net.try_recv(stranger), Err(TransportError::UnknownParty(stranger)));
                assert_eq!(net.recv(stranger), Err(TransportError::UnknownParty(stranger)));
                for p in [server, c0] {
                    assert_eq!(net.try_recv(p), empty(p), "{at}");
                }
            }
        }
    }

    #[test]
    fn every_fault_on_every_kind_of_inbox() {
        for host in [Host::Local, Host::Tcp, Host::Uds] {
            for case in [
                Case::Drop,
                Case::Duplicate,
                Case::Disconnect,
                Case::Misdirected,
                Case::UnknownRecipient,
            ] {
                let at = format!("{host:?}/{case:?}");
                let (net, node) = roster_at(host, &format!("table-{case:?}"));
                check(&net, case, &at);
                drop(net);
                if let Some(node) = node {
                    // Whatever the case refused or dropped never reached the
                    // node: a fresh connection finds its inbox empty.
                    let fresh = node.roster(2);
                    assert_eq!(
                        fresh.try_recv(PartyId::Client(0)),
                        Err(TransportError::InboxEmpty(PartyId::Client(0))),
                        "{at}"
                    );
                    drop(fresh);
                    node.stop();
                }
            }
        }
    }

    /// What keeps one of three remote recipients from answering a
    /// fan-out's pop.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Stall {
        /// Client 0's node is stopped, and nothing was delivered to the
        /// other two: their nodes are still waiting when client 0's pop
        /// fails, so their replies must be read before the call returns.
        Stopped,
        /// Client 1 gets nothing, so its node answers `TimedOut` at the
        /// bound; the other two have their messages.
        Silent,
    }

    #[test]
    fn a_failed_fan_out_pop_is_typed_and_drains_the_other_links() {
        let server = PartyId::Server;
        let bound = Duration::from_secs(1);
        for host in [Host::Tcp, Host::Uds] {
            for stall in [Stall::Stopped, Stall::Silent] {
                let at = format!("{host:?}/{stall:?}");
                let mut nodes: Vec<Option<TestNode>> = (0..3)
                    .map(|i| {
                        let endpoint = match host {
                            Host::Uds => uds(&format!("fan-{stall:?}-{i}")),
                            _ => Endpoint::parse("127.0.0.1:0"),
                        };
                        Some(TestNode::spawn(PartyId::Client(i), &endpoint))
                    })
                    .collect();
                let endpoints =
                    nodes.iter().flatten().map(|n| (n.node.party(), n.node.endpoint())).collect();
                let net = Network::connect(3, endpoints).unwrap();
                net.set_recv_timeout(bound);
                let fan = |round, to: &[usize]| {
                    to.iter().map(|&i| (server, PartyId::Client(i), start(round))).collect()
                };
                let expects = |to: &[usize]| -> Vec<(PartyId, &'static str)> {
                    to.iter().map(|&i| (PartyId::Client(i), "RoundStart")).collect()
                };
                let (want, live) = match stall {
                    Stall::Stopped => {
                        nodes[0].take().unwrap().stop();
                        (TransportError::PeerDisconnected { party: PartyId::Client(0) }, [1, 2])
                    }
                    Stall::Silent => {
                        net.send_all(fan(1, &[0, 2])).unwrap();
                        let waited = TransportError::Timeout {
                            party: PartyId::Client(1),
                            waited: bound,
                            round: None,
                            expecting: Some("RoundStart"),
                        };
                        (waited, [0, 2])
                    }
                };
                let began = std::time::Instant::now();
                assert_eq!(net.recv_each(&expects(&[0, 1, 2])), Err(want), "{at}");
                // Within the dialer's read deadline.
                let took = began.elapsed();
                assert!(took < bound + crate::socket::RECV_MARGIN, "{at}: took {took:?}");
                // The live links had their replies read: the next exchange
                // pops the next message, not a stale reply of this one.
                net.send_all(fan(2, &live)).unwrap();
                assert_eq!(
                    net.recv_each(&expects(&live)),
                    Ok(vec![(server, start(2)), (server, start(2))]),
                    "{at}"
                );
                drop(net);
                // Every connection thread has ended: each node's stop joins
                // them within a tick or two.
                for node in nodes.into_iter().flatten() {
                    let began = std::time::Instant::now();
                    node.stop();
                    assert!(began.elapsed() < Duration::from_secs(1), "{at}: stop waited");
                }
            }
        }
    }

    #[test]
    fn send_to_unknown_party_errors() {
        // No refused send is metered, whether the recipient's inbox is local
        // or on a node.
        let node = TestNode::spawn(PartyId::Client(0), &uds("refused"));
        for (net, at) in [(Network::new(1), "local"), (node.roster(1), "uds")] {
            let (server, c0) = (PartyId::Server, PartyId::Client(0));
            let before = net.stats();
            let seed = Message::ShuffleSeedShare { share: SeedShare::from(7) };
            assert!(
                matches!(net.send(server, c0, seed), Err(TransportError::Misdirected { .. })),
                "{at}"
            );
            assert_eq!(net.stats(), before, "{at}: misdirected");
            let err = net.send(server, PartyId::Client(5), start(1)).unwrap_err();
            assert_eq!(err, TransportError::UnknownRecipient(PartyId::Client(5)), "{at}");
            assert_eq!(net.stats(), before, "{at}: unknown recipient");
            net.inject_fault(server, c0, Fault::Disconnect);
            for round in [2, 3] {
                let err = net.send(server, c0, start(round)).unwrap_err();
                assert_eq!(err, TransportError::PeerDisconnected { party: c0 }, "{at}");
            }
            assert_eq!(net.stats(), before, "{at}: dead party");
        }
        node.stop();
    }

    #[test]
    fn recv_reports_empty_and_unknown() {
        let net = Network::new(1);
        assert_eq!(net.try_recv(PartyId::Server), Err(TransportError::InboxEmpty(PartyId::Server)));
        assert_eq!(
            net.recv(PartyId::Client(9)),
            Err(TransportError::UnknownParty(PartyId::Client(9)))
        );
    }

    #[test]
    fn recv_times_out_on_a_missing_message() {
        // Regression: `recv` used to be a pure alias of `try_recv`, so a
        // sender on another thread that had not delivered *yet* looked
        // identical to a dropped message. It must now wait, and report the
        // distinct `Timeout` error — not `InboxEmpty` — when nothing comes.
        let net = Network::new(1);
        let timeout = Duration::from_millis(10);
        net.set_recv_timeout(timeout);
        let start = std::time::Instant::now();
        let err = net.recv(PartyId::Server).unwrap_err();
        assert_eq!(
            err,
            TransportError::Timeout {
                party: PartyId::Server,
                waited: timeout,
                round: None,
                expecting: None
            }
        );
        assert!(start.elapsed() >= timeout, "recv must actually wait out the bound");
        // `try_recv` keeps its non-blocking contract.
        let start = std::time::Instant::now();
        assert_eq!(net.try_recv(PartyId::Server), Err(TransportError::InboxEmpty(PartyId::Server)));
        assert!(start.elapsed() < timeout, "try_recv must not block");
    }

    #[test]
    fn timeout_carries_round_and_expected_variant_context() {
        // Regression: fan-in timeouts used to say only "no message within
        // 1s" — useless against a hung socket party. They must now name the
        // round window and the variant the step was waiting for.
        let net = Network::new(1);
        net.set_recv_timeout(Duration::from_millis(5));
        net.begin_round(41);
        net.begin_round(42);
        let err = net.recv_expect(PartyId::Server, "SynthLogits").unwrap_err();
        assert_eq!(
            err,
            TransportError::Timeout {
                party: PartyId::Server,
                waited: Duration::from_millis(5),
                round: Some(42),
                expecting: Some("SynthLogits"),
            }
        );
        let shown = err.to_string();
        assert!(shown.contains("round 42"), "{shown}");
        assert!(shown.contains("SynthLogits"), "{shown}");
        // `gather` stamps the same context.
        let err = net.gather(PartyId::Server, &[PartyId::Client(0)], "RealLogits").unwrap_err();
        assert!(
            matches!(
                err,
                TransportError::Timeout { round: Some(42), expecting: Some("RealLogits"), .. }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn recv_waits_for_a_late_sender() {
        use std::sync::Arc;
        let net = Arc::new(Network::new(1));
        net.set_recv_timeout(Duration::from_secs(5));
        let n2 = Arc::clone(&net);
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            n2.send(PartyId::Client(0), PartyId::Server, logits(4)).unwrap();
        });
        // The message is in flight, not dropped: recv must ride out the gap.
        let (from, m) = net.recv(PartyId::Server).unwrap();
        assert_eq!(from, PartyId::Client(0));
        assert_eq!(m, logits(4));
        handle.join().unwrap();
    }

    #[test]
    fn works_across_threads() {
        use std::sync::Arc;
        let net = Arc::new(Network::new(1));
        let n2 = Arc::clone(&net);
        let handle = std::thread::spawn(move || {
            n2.send(PartyId::Client(0), PartyId::Server, logits(9)).unwrap();
        });
        handle.join().unwrap();
        let (_, m) = net.recv(PartyId::Server).unwrap();
        assert_eq!(m, logits(9));
    }
}
