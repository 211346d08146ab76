//! The round machine: in which state of a training step each [`Message`]
//! may be sent, the state it leads to, and who may send it (paper §3.1,
//! DESIGN.md §11).
//!
//! A step opens with `RoundStart`; the selected client uploads its
//! conditional vector (`CondUpload`, plus the client→client `IndexShare`
//! when index sharing is peer-to-peer); the server fans out the generator
//! slices (`GenSlice`) and the clients answer with `SynthLogits`. A D-step
//! adds the real path (`RealLogits`); where the clients own critic
//! parameters (`d_bottom > 0`) the server answers with `GradLogits`, and
//! otherwise the step closes at `RealScored`
//! ([`RoundState::closes_step`]). A G-step closes with `GradGenSlice`. A
//! step with no categorical column to condition on has no `RoundStart` and
//! opens with `GenSlice`. Between steps the clients agree on the shuffle
//! seed (`ShuffleSeedShare`) and publish synthetic shares
//! (`SyntheticShare`).
//!
//! ```text
//! Idle → RoundOpen → Conditioned → SlicesSent → SynthScored → RealScored [→ Idle]
//! ```
//!
//! [`Message::edge`] is one `match` with no wildcard, so a new variant does
//! not compile until it has an edge. Both transports refuse a message whose
//! [`Dir`] does not admit its `(from, to)` pair
//! ([`TransportError::Misdirected`](crate::TransportError::Misdirected)):
//! the shuffle seed and `idx_p` cannot reach the server (§3.1.5).

use crate::transport::PartyId;
use crate::wire::Message;

/// Where one training step's message exchange stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoundState {
    /// Between steps.
    Idle,
    /// `RoundStart` went out: the selected client builds the condition.
    RoundOpen,
    /// The server holds the condition; peer-to-peer, `idx_p` goes to the
    /// other clients here.
    Conditioned,
    /// The generator slices went out.
    SlicesSent,
    /// The server holds the synthetic logits.
    SynthScored,
    /// The server holds the real logits.
    RealScored,
}

impl RoundState {
    /// Whether a step may close in this state, so that what may be sent
    /// from `Idle` may be sent here too: `Idle`, and `RealScored`, where a
    /// D-step ends when no client owns a critic parameter (`d_bottom = 0`)
    /// and no `GradLogits` goes back.
    pub fn closes_step(self) -> bool {
        matches!(self, RoundState::Idle | RoundState::RealScored)
    }
}

/// Who may send a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// The server, to a client.
    ServerToClient,
    /// A client, to the server.
    ClientToServer,
    /// A client, to another client: the server is never an endpoint.
    ClientToClient,
    /// A client, to the public board.
    ClientToPublic,
}

impl Dir {
    /// Whether a message from `from` to `to` travels this way.
    pub fn admits(self, from: PartyId, to: PartyId) -> bool {
        match (self, from, to) {
            (Dir::ServerToClient, PartyId::Server, PartyId::Client(_))
            | (Dir::ClientToServer, PartyId::Client(_), PartyId::Server)
            | (Dir::ClientToPublic, PartyId::Client(_), PartyId::Public) => true,
            (Dir::ClientToClient, PartyId::Client(a), PartyId::Client(b)) => a != b,
            _ => false,
        }
    }
}

/// One message's transitions in the round machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Who may send it.
    pub dir: Dir,
    /// `(state it may be sent in, state it leads to)` pairs.
    pub steps: &'static [(RoundState, RoundState)],
}

impl Edge {
    /// The state after sending the message in `state`, or `None` if it
    /// cannot be sent there. A state that closes a step
    /// ([`RoundState::closes_step`]) falls back to `Idle`'s step.
    pub fn next(&self, state: RoundState) -> Option<RoundState> {
        let step = |state| self.steps.iter().find(|&&(from, _)| from == state).map(|&(_, to)| to);
        step(state).or_else(|| state.closes_step().then(|| step(RoundState::Idle)).flatten())
    }
}

impl Message {
    /// This message's transitions and direction.
    pub fn edge(&self) -> Edge {
        use RoundState::{Conditioned, Idle, RealScored, RoundOpen, SlicesSent, SynthScored};
        let (dir, steps): (Dir, &'static [(RoundState, RoundState)]) = match self {
            Message::RoundStart { .. } => (Dir::ServerToClient, &[(Idle, RoundOpen)]),
            Message::CondUpload { .. } => (Dir::ClientToServer, &[(RoundOpen, Conditioned)]),
            Message::IndexShare { .. } => (Dir::ClientToClient, &[(Conditioned, Conditioned)]),
            // From `Idle` when the step is unconditioned (no client owns a
            // categorical column, so there is no `RoundStart`).
            Message::GenSlice(_) => {
                (Dir::ServerToClient, &[(Conditioned, SlicesSent), (Idle, SlicesSent)])
            }
            Message::SynthLogits(_) => (Dir::ClientToServer, &[(SlicesSent, SynthScored)]),
            Message::RealLogits(_) => (Dir::ClientToServer, &[(SynthScored, RealScored)]),
            Message::GradLogits(_) => (Dir::ServerToClient, &[(RealScored, Idle)]),
            Message::GradGenSlice(_) => (Dir::ServerToClient, &[(SynthScored, Idle)]),
            Message::ShuffleSeedShare { .. } => (Dir::ClientToClient, &[(Idle, Idle)]),
            Message::SyntheticShare(_) => (Dir::ClientToPublic, &[(Idle, Idle)]),
        };
        Edge { dir, steps }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::tests::golden_messages;

    const STATES: [RoundState; 6] = [
        RoundState::Idle,
        RoundState::RoundOpen,
        RoundState::Conditioned,
        RoundState::SlicesSent,
        RoundState::SynthScored,
        RoundState::RealScored,
    ];

    #[test]
    fn every_state_and_edge_is_reachable_from_idle() {
        let edges: Vec<Edge> = golden_messages().iter().map(Message::edge).collect();
        let mut reached = vec![RoundState::Idle];
        let mut i = 0;
        while i < reached.len() {
            let state = reached[i];
            for to in edges.iter().filter_map(|e| e.next(state)) {
                if !reached.contains(&to) {
                    reached.push(to);
                }
            }
            i += 1;
        }
        for state in STATES {
            assert!(reached.contains(&state), "{state:?} is unreachable from Idle");
        }
        for (msg, edge) in golden_messages().iter().zip(&edges) {
            for (from, _) in edge.steps {
                assert!(reached.contains(from), "{} out of {from:?} can never fire", msg.kind());
            }
        }
    }

    #[test]
    fn each_message_has_at_most_one_step_out_of_each_state() {
        for msg in golden_messages() {
            let edge = msg.edge();
            assert!(!edge.steps.is_empty(), "{} has no step", msg.kind());
            for state in STATES {
                let out = edge.steps.iter().filter(|(from, _)| *from == state).count();
                assert!(out <= 1, "{} leaves {state:?} {out} ways", msg.kind());
            }
        }
    }

    #[test]
    fn seed_and_index_shares_never_touch_the_server() {
        for msg in golden_messages() {
            let dir = msg.edge().dir;
            if matches!(msg, Message::ShuffleSeedShare { .. } | Message::IndexShare { .. }) {
                assert_eq!(dir, Dir::ClientToClient, "{} must stay client↔client", msg.kind());
            }
            assert!(
                !(dir.admits(PartyId::Server, PartyId::Server)
                    || dir.admits(PartyId::Client(0), PartyId::Client(0))),
                "{} admits a party sending to itself",
                msg.kind()
            );
        }
        let seed = Dir::ClientToClient;
        assert!(seed.admits(PartyId::Client(0), PartyId::Client(1)));
        for (from, to) in [
            (PartyId::Server, PartyId::Client(0)),
            (PartyId::Client(0), PartyId::Server),
            (PartyId::Client(0), PartyId::Public),
        ] {
            assert!(!seed.admits(from, to), "{from} → {to}");
        }
    }

    #[test]
    fn a_d_step_may_close_with_the_real_logits() {
        use RoundState::{Idle, RealScored};
        let closing: Vec<RoundState> = STATES.into_iter().filter(|s| s.closes_step()).collect();
        assert_eq!(closing, [Idle, RealScored]);
        // What opens from `Idle` opens from `RealScored` too; `GradLogits`
        // still closes a D-step whose clients own critic parameters.
        for msg in golden_messages() {
            let edge = msg.edge();
            let expected = match msg {
                Message::GradLogits(_) => Some(Idle),
                _ => edge.next(Idle),
            };
            assert_eq!(edge.next(RealScored), expected, "{} out of RealScored", msg.kind());
        }
    }

    #[test]
    fn rounds_open_server_side_from_idle() {
        let open = Message::RoundStart { round: 0, selected: 0 }.edge();
        assert_eq!(open.dir, Dir::ServerToClient);
        assert_eq!(open.next(RoundState::Idle), Some(RoundState::RoundOpen));
    }
}
