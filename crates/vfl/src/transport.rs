//! Party-to-party message transport with per-link byte accounting.
//!
//! The [`Transport`] trait is the seam between the GTV protocol and the
//! medium carrying it: every protocol exchange is *actually encoded to
//! bytes*, metered, decoded and delivered to the recipient's inbox, so
//! communication-overhead numbers come from the same code path as the
//! training itself. Two backends implement it:
//!
//! * [`InProcTransport`] (aliased as [`Network`]) — crossbeam-channel
//!   inboxes, usable both from a single-threaded orchestrator and from
//!   parties running on their own threads;
//! * [`SocketTransport`](crate::SocketTransport) — length-delimited wire
//!   frames over TCP or Unix-domain sockets, for parties running as their
//!   own OS processes.
//!
//! Byte accounting is identical across backends: both meter the encoded
//! message body only (framing overhead is a property of the medium, not the
//! protocol), through the same [`Meter`] bookkeeping.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]
#![cfg_attr(
    not(test),
    deny(clippy::cast_possible_truncation, clippy::cast_possible_wrap, clippy::cast_sign_loss)
)]

use crate::wire::{DecodeMessageError, Message, WireCodec};
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;
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
    /// A malformed transport frame (socket backend): bad opcode, truncated
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

/// Shared metering/configuration state used by every [`Transport`] backend:
/// cumulative and per-round traffic counters, the wire codec in effect and
/// the bounded-receive deadline. Keeping this in one struct is what makes
/// the backend-equivalence argument mechanical — both backends account
/// bytes through the exact same code.
pub(crate) struct Meter {
    stats: Mutex<NetStats>,
    codec: Mutex<WireCodec>,
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
            codec: Mutex::new(WireCodec::Dense),
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

    pub(crate) fn codec(&self) -> WireCodec {
        *self.codec.lock()
    }

    pub(crate) fn set_codec(&self, codec: WireCodec) {
        *self.codec.lock() = codec;
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
/// admits that pair (DESIGN.md §11). Every backend's send path calls this
/// before it encodes, meters or delivers anything.
pub(crate) fn check_direction(
    from: PartyId,
    to: PartyId,
    msg: &Message,
) -> Result<(), TransportError> {
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
/// Implementations must meter every sent message through the same byte
/// accounting (the encoded body's length, nothing more), so [`NetStats`]
/// are comparable — and testably identical — across backends.
pub trait Transport {
    /// Encodes `msg`, meters it and delivers it to `to`'s inbox.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Misdirected`] if the message may not travel
    /// from `from` to `to` (checked first: nothing is encoded, metered or
    /// delivered), [`TransportError::UnknownRecipient`] if `to` has no inbox,
    /// [`TransportError::PeerDisconnected`] if the link to either end is
    /// closed, or [`TransportError::Decode`] if the message fails to
    /// round-trip through its own wire encoding.
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
    /// window) if no message arrives in time, plus every backend-specific
    /// link failure.
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

    /// The wire codec in effect.
    fn codec(&self) -> WireCodec;

    /// Selects how matrix payloads are encoded on the wire (default
    /// [`WireCodec::Dense`]). Lossless either way — only byte counts change.
    fn set_codec(&self, codec: WireCodec);

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
    /// same list through [`Transport::send`] one at a time (backends may
    /// parallelize the encoding, never the accounting order).
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

struct Inboxes {
    senders: HashMap<PartyId, Sender<(PartyId, Message)>>,
    receivers: HashMap<PartyId, Receiver<(PartyId, Message)>>,
    /// Parties whose link a [`Fault::Disconnect`] closed: their channel
    /// halves are gone, and every operation involving them reports
    /// [`TransportError::PeerDisconnected`].
    dead: HashSet<PartyId>,
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

/// The in-process [`Transport`] backend connecting server, clients and the
/// public board through crossbeam-channel inboxes.
pub struct InProcTransport {
    meter: Meter,
    inboxes: Mutex<Inboxes>,
    faults: Mutex<Vec<(PartyId, PartyId, Fault)>>,
    permuter: Mutex<Option<Permuter>>,
}

/// The historical name of [`InProcTransport`], kept as an alias: existing
/// orchestration code and docs talk about "the network", and the default
/// trainer backend is still the in-process one.
pub type Network = InProcTransport;

impl fmt::Debug for InProcTransport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.meter.stats();
        write!(f, "InProcTransport({} msgs, {} bytes)", s.messages, s.bytes)
    }
}

impl InProcTransport {
    /// Creates a network with inboxes for the server, `n_clients` clients and
    /// the public board.
    pub fn new(n_clients: usize) -> Self {
        let mut senders = HashMap::new();
        let mut receivers = HashMap::new();
        let mut add = |p: PartyId| {
            let (tx, rx) = unbounded();
            senders.insert(p, tx);
            receivers.insert(p, rx);
        };
        add(PartyId::Server);
        add(PartyId::Public);
        for i in 0..n_clients {
            add(PartyId::Client(i));
        }
        Self {
            meter: Meter::new(),
            inboxes: Mutex::new(Inboxes { senders, receivers, dead: HashSet::new() }),
            faults: Mutex::new(Vec::new()),
            permuter: Mutex::new(None),
        }
    }

    /// Makes every subsequent [`Transport::send_all`] deliver its fan-out in
    /// a seeded pseudo-random order instead of input order. The schedule
    /// explorer uses this to prove the round choreography is insensitive
    /// to ready-message delivery order: because [`Transport::gather`] slots
    /// replies back into fixed sender order and every fan-out addresses
    /// each recipient once, training results must be bit-identical under
    /// any permutation. Per-call permutations are derived from
    /// `(seed, call index)`, so a run replays exactly from its seed.
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

    /// Severs `party`'s link: both channel halves are dropped (waking any
    /// blocked receiver with a disconnect) and the party is marked dead.
    fn sever(&self, party: PartyId) {
        let mut inboxes = self.inboxes.lock();
        inboxes.senders.remove(&party);
        inboxes.receivers.remove(&party);
        inboxes.dead.insert(party);
    }

    fn is_dead(&self, party: PartyId) -> bool {
        self.inboxes.lock().dead.contains(&party)
    }

    /// Meters `encoded` on the `(from, to)` link and delivers its decoded
    /// message to `to`'s inbox (the shared tail of [`Transport::send`] and
    /// [`Transport::send_all`]).
    fn deliver(&self, from: PartyId, to: PartyId, encoded: Bytes) -> Result<(), TransportError> {
        if self.is_dead(to) {
            return Err(TransportError::PeerDisconnected { party: to });
        }
        if self.is_dead(from) {
            return Err(TransportError::PeerDisconnected { party: from });
        }
        let fault = self.take_fault(from, to);
        if fault == Some(Fault::Disconnect) {
            // The link dies as the send begins: nothing reaches the wire,
            // so nothing is metered.
            self.sever(to);
            return Err(TransportError::PeerDisconnected { party: to });
        }
        self.meter.record(from, to, encoded.len());
        // Decode from the wire bytes — the recipient sees only what was
        // actually serialized.
        let delivered = Message::decode(encoded)?;
        if fault == Some(Fault::Drop) {
            delivered.recycle();
            return Ok(());
        }
        let inboxes = self.inboxes.lock();
        let sender = inboxes.senders.get(&to).ok_or(TransportError::UnknownRecipient(to))?;
        if fault == Some(Fault::Duplicate) {
            sender.send((from, delivered.clone())).map_err(|_| TransportError::InboxClosed(to))?;
        }
        sender.send((from, delivered)).map_err(|_| TransportError::InboxClosed(to))
    }
}

impl Transport for InProcTransport {
    fn send(&self, from: PartyId, to: PartyId, msg: Message) -> Result<(), TransportError> {
        check_direction(from, to, &msg)?;
        let encoded = msg.encode_with(self.meter.codec());
        msg.recycle();
        self.deliver(from, to, encoded)
    }

    /// Every payload is encoded concurrently on the deterministic
    /// `gtv_tensor::pool` workers (serialization cost is per-byte, and
    /// independent per message), handed back to the tensor pool, then
    /// metered and delivered in input order — so each delivery's decode can
    /// reuse a payload's storage.
    /// Under [`InProcTransport::permute_deliveries`] the delivery order is
    /// a seeded permutation instead; per-message bytes are unchanged.
    fn send_all(&self, msgs: Vec<(PartyId, PartyId, Message)>) -> Result<(), TransportError> {
        msgs.iter().try_for_each(|(from, to, msg)| check_direction(*from, *to, msg))?;
        let codec = self.meter.codec();
        let links: Vec<(PartyId, PartyId)> = msgs.iter().map(|&(from, to, _)| (from, to)).collect();
        let msgs = Arc::new(msgs);
        let encoder = Arc::clone(&msgs);
        let encoded =
            gtv_tensor::pool::run_ordered(msgs.len(), move |i| encoder[i].2.encode_with(codec));
        // A worker may still hold its task's handle for a moment; the
        // messages are then dropped instead of parked.
        if let Ok(msgs) = Arc::try_unwrap(msgs) {
            msgs.into_iter().for_each(|(_, _, msg)| msg.recycle());
        }
        let order: Option<Vec<usize>> = self.permuter.lock().as_mut().map(|p| p.order(links.len()));
        match order {
            None => {
                for (&(from, to), bytes) in links.iter().zip(encoded) {
                    self.deliver(from, to, bytes)?;
                }
            }
            Some(order) => {
                let mut slots: Vec<Option<Bytes>> = encoded.into_iter().map(Some).collect();
                for i in order {
                    let (from, to) = links[i];
                    if let Some(bytes) = slots[i].take() {
                        self.deliver(from, to, bytes)?;
                    }
                }
            }
        }
        Ok(())
    }

    fn try_recv(&self, party: PartyId) -> Result<(PartyId, Message), TransportError> {
        let inboxes = self.inboxes.lock();
        let Some(rx) = inboxes.receivers.get(&party) else {
            return Err(if inboxes.dead.contains(&party) {
                TransportError::PeerDisconnected { party }
            } else {
                TransportError::UnknownParty(party)
            });
        };
        rx.try_recv().map_err(|_| TransportError::InboxEmpty(party))
    }

    fn recv_timeout(
        &self,
        party: PartyId,
        timeout: Duration,
    ) -> Result<(PartyId, Message), TransportError> {
        // Clone the receiver and release the inbox lock *before* blocking:
        // holding it across the wait would deadlock concurrent `send`s, the
        // very senders the wait exists for.
        let rx = {
            let inboxes = self.inboxes.lock();
            let Some(rx) = inboxes.receivers.get(&party) else {
                return Err(if inboxes.dead.contains(&party) {
                    TransportError::PeerDisconnected { party }
                } else {
                    TransportError::UnknownParty(party)
                });
            };
            rx.clone()
        };
        rx.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => self.meter.timeout_error(party, timeout),
            RecvTimeoutError::Disconnected => {
                if self.is_dead(party) {
                    TransportError::PeerDisconnected { party }
                } else {
                    TransportError::InboxClosed(party)
                }
            }
        })
    }

    fn recv_timeout_bound(&self) -> Duration {
        self.meter.recv_timeout_bound()
    }

    fn set_recv_timeout(&self, timeout: Duration) {
        self.meter.set_recv_timeout(timeout);
    }

    fn codec(&self) -> WireCodec {
        self.meter.codec()
    }

    fn set_codec(&self, codec: WireCodec) {
        self.meter.set_codec(codec);
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
    fn adaptive_codec_shrinks_sparse_traffic_losslessly() {
        let sparse_payload = MatrixPayload::new(2, 8, {
            let mut v = vec![0.0f32; 16];
            v[3] = 1.0;
            v
        });
        let dense_net = Network::new(1);
        dense_net
            .send(PartyId::Client(0), PartyId::Server, Message::SynthLogits(sparse_payload.clone()))
            .unwrap();
        let adaptive_net = Network::new(1);
        adaptive_net.set_codec(WireCodec::Adaptive);
        adaptive_net
            .send(PartyId::Client(0), PartyId::Server, Message::SynthLogits(sparse_payload.clone()))
            .unwrap();
        assert!(adaptive_net.stats().bytes < dense_net.stats().bytes);
        // The recipient still decodes the bit-identical dense matrix.
        let (_, got) = adaptive_net.recv(PartyId::Server).unwrap();
        assert_eq!(got, Message::SynthLogits(sparse_payload));
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
            ]
        };
        let seq = Network::new(2);
        seq.set_codec(WireCodec::Adaptive);
        for (f, t, m) in msgs() {
            seq.send(f, t, m).unwrap();
        }
        let all = Network::new(2);
        all.set_codec(WireCodec::Adaptive);
        all.send_all(msgs()).unwrap();
        assert_eq!(seq.stats(), all.stats());
        // FIFO order per inbox is preserved.
        let (_, a) = all.recv(PartyId::Client(0)).unwrap();
        assert_eq!(a, Message::GenSlice(MatrixPayload::new(1, 3, vec![0.0, 2.0, 0.0])));
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
    fn misdirected_sends_are_refused_before_the_wire() {
        let net = Network::new(2);
        net.send(PartyId::Server, PartyId::Client(0), start(0)).unwrap();
        let before = net.stats();
        let seed = || Message::ShuffleSeedShare { share: SeedShare::from(7) };
        let index = || Message::IndexShare { indices: vec![1, 2] };
        for (from, to, msg) in [
            (PartyId::Client(0), PartyId::Server, seed()),
            (PartyId::Server, PartyId::Client(1), seed()),
            (PartyId::Client(0), PartyId::Server, index()),
            (PartyId::Server, PartyId::Client(1), index()),
            (PartyId::Server, PartyId::Client(1), logits(1)),
        ] {
            let kind = msg.kind();
            assert_eq!(
                net.send(from, to, msg),
                Err(TransportError::Misdirected { from, to, kind }),
                "{kind} from {from} to {to}"
            );
        }
        // One misdirected message refuses the whole fan-out.
        let fan = vec![
            (PartyId::Server, PartyId::Client(1), start(1)),
            (PartyId::Client(1), PartyId::Server, seed()),
        ];
        assert!(matches!(net.send_all(fan), Err(TransportError::Misdirected { .. })));
        assert_eq!(net.stats(), before, "a refused send is not metered");
        assert!(net.try_recv(PartyId::Server).is_err());
        assert!(net.try_recv(PartyId::Client(1)).is_err());
        assert_eq!(net.try_recv(PartyId::Client(0)).unwrap().1, start(0));
    }

    #[test]
    fn reset_clears_counters() {
        let net = Network::new(1);
        net.send(PartyId::Server, PartyId::Client(0), start(0)).unwrap();
        net.reset_stats();
        assert_eq!(net.stats().messages, 0);
    }

    #[test]
    fn injected_drop_leaves_inbox_empty() {
        let net = Network::new(1);
        net.inject_fault(PartyId::Server, PartyId::Client(0), Fault::Drop);
        net.send(PartyId::Server, PartyId::Client(0), start(1)).unwrap();
        assert!(net.try_recv(PartyId::Client(0)).is_err(), "dropped message must not arrive");
        // Fault is one-shot.
        net.send(PartyId::Server, PartyId::Client(0), start(2)).unwrap();
        assert!(net.try_recv(PartyId::Client(0)).is_ok());
    }

    #[test]
    fn injected_duplicate_delivers_twice() {
        let net = Network::new(1);
        net.inject_fault(PartyId::Client(0), PartyId::Server, Fault::Duplicate);
        net.send(PartyId::Client(0), PartyId::Server, logits(3)).unwrap();
        assert!(net.try_recv(PartyId::Server).is_ok());
        assert!(net.try_recv(PartyId::Server).is_ok());
        assert!(net.try_recv(PartyId::Server).is_err());
    }

    #[test]
    fn injected_disconnect_severs_the_link_permanently() {
        let net = Network::new(2);
        net.inject_fault(PartyId::Server, PartyId::Client(1), Fault::Disconnect);
        let before = net.stats().bytes;
        let err = net.send(PartyId::Server, PartyId::Client(1), start(1)).unwrap_err();
        assert_eq!(err, TransportError::PeerDisconnected { party: PartyId::Client(1) });
        // The severed message never reached the wire.
        assert_eq!(net.stats().bytes, before);
        // The link stays dead: sends to, sends from, and receives at the
        // crashed party all keep reporting the disconnect.
        assert_eq!(
            net.send(PartyId::Server, PartyId::Client(1), start(2)),
            Err(TransportError::PeerDisconnected { party: PartyId::Client(1) })
        );
        assert_eq!(
            net.send(PartyId::Client(1), PartyId::Server, logits(3)),
            Err(TransportError::PeerDisconnected { party: PartyId::Client(1) })
        );
        assert_eq!(
            net.try_recv(PartyId::Client(1)),
            Err(TransportError::PeerDisconnected { party: PartyId::Client(1) })
        );
        assert_eq!(
            net.recv(PartyId::Client(1)),
            Err(TransportError::PeerDisconnected { party: PartyId::Client(1) })
        );
        // Unrelated links keep working.
        net.send(PartyId::Server, PartyId::Client(0), start(4)).unwrap();
        assert!(net.try_recv(PartyId::Client(0)).is_ok());
    }

    #[test]
    fn send_to_unknown_party_errors() {
        let net = Network::new(1);
        let err = net.send(PartyId::Server, PartyId::Client(5), start(1)).unwrap_err();
        assert_eq!(err, TransportError::UnknownRecipient(PartyId::Client(5)));
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
