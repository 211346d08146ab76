//! # gtv-vfl
//!
//! The vertical-federated-learning substrate GTV runs on:
//!
//! * [`wire`](crate::Message) — a byte-exact encoding of every protocol
//!   message, so communication volume is measured from real serialization;
//! * [`RoundState`] / [`Message::edge`] — the round machine: the state each
//!   message may be sent in, the state it leads to, and the [`Dir`] every
//!   transport checks before it sends;
//! * [`Transport`] — the transport seam, and [`Network`], its one
//!   implementation: a roster with per-link byte metering in which each
//!   party's inbox is a local channel or, for a party hosted out of process,
//!   a link to its [`PartyNode`] speaking length-delimited frames of wire-v3
//!   messages over TCP / Unix-domain sockets, on [`socket`] — the one socket
//!   layer, which `gtv-serve`'s serving wire runs on too;
//! * [`psi_align`] — hashed private-set-intersection row alignment;
//! * [`negotiate_seed`] / [`SharedShuffler`] — the peer-to-peer shuffle-seed
//!   agreement behind *training-with-shuffling* (the server never observes
//!   the seed);
//! * [`PartitionPlan`] / [`ratio_vector`] / [`split_widths`] — column
//!   distribution across clients and the proportional width splitting of
//!   network blocks.
//!
//! # Examples
//!
//! ```
//! use gtv_vfl::{negotiate_seed, Network, Transport};
//!
//! let net = Network::new(2);
//! let shufflers = negotiate_seed(&net, 2, 42).expect("transport is healthy");
//! assert_eq!(shufflers[0], shufflers[1]);
//! let p = shufflers[0].permutation(10, 0);
//! assert_eq!(p.len(), 10);
//! // The server saw none of the seed traffic.
//! assert_eq!(net.stats().server_bytes(), 0);
//! ```

mod partition;
mod protocol;
mod psi;
mod shuffle;
pub mod socket;
mod transport;
mod wire;

pub use partition::{ratio_vector, split_widths, PartitionError, PartitionPlan};
pub use protocol::{Dir, Edge, RoundState};
pub use psi::{psi_align, PsiAlignment};
pub use shuffle::{negotiate_seed, SharedShuffler};
pub use socket::{Endpoint, PartyNode};
pub use transport::{
    Fault, InProcTransport, NetStats, Network, PartyId, RoundStats, SocketTransport, Transport,
    TransportError, DEFAULT_RECV_TIMEOUT,
};
pub use wire::{DecodeMessageError, DenseFrame, MatrixPayload, Message, SeedShare, WireCodec};
