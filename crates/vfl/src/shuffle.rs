//! Shared-seed shuffle negotiation and per-round permutation derivation —
//! the substrate of the paper's *training-with-shuffling* (§3.1.5).
//!
//! Clients agree on a base seed by XOR-combining random contributions
//! exchanged peer-to-peer (the server never sees the shares, matching the
//! paper's requirement that the shuffle function is isolated from the
//! server). Each round's permutation is derived from `(base_seed, round)`,
//! so all clients apply the identical permutation and stay row-aligned.
//!
//! Outside this crate the seed is never a number: a share travels as a
//! [`SeedShare`], the agreed seed as a [`SharedShuffler`], and neither has a
//! `Display` or a public accessor, while `Debug` prints no digit of either.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use crate::transport::{PartyId, Transport, TransportError};
use crate::wire::{Message, SeedShare};
use gtv_data::Table;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Negotiates a shared shuffle seed among `n_clients` via the network.
///
/// Each client draws a random share and sends it to every *other client*
/// (never to the server); every client XORs all shares into the same base
/// seed. Returns each client's shuffler (all equal).
///
/// # Errors
///
/// Returns any [`TransportError`] from the underlying sends/receives, and
/// [`TransportError::UnexpectedMessage`] if anything other than a
/// peer-to-peer [`Message::ShuffleSeedShare`] arrives mid-negotiation.
///
/// # Panics
///
/// Panics if `n_clients == 0`.
pub fn negotiate_seed<T: Transport>(
    net: &T,
    n_clients: usize,
    rng_seed: u64,
) -> Result<Vec<SharedShuffler>, TransportError> {
    assert!(n_clients > 0, "need at least one client");
    let mut rng = StdRng::seed_from_u64(rng_seed);
    let shares: Vec<u64> = (0..n_clients).map(|_| rng.gen()).collect();
    // Broadcast each share to the other clients, peer to peer.
    for (i, &share) in shares.iter().enumerate() {
        for j in 0..n_clients {
            if i != j {
                net.send(
                    PartyId::Client(i),
                    PartyId::Client(j),
                    Message::ShuffleSeedShare { share: SeedShare(share) },
                )?;
            }
        }
    }
    // Every client combines its own share with everything it received.
    (0..n_clients)
        .map(|j| {
            let mut seed = shares[j];
            for _ in 0..n_clients - 1 {
                let (from, msg) = net.recv(PartyId::Client(j))?;
                match (from, msg) {
                    (PartyId::Client(_), Message::ShuffleSeedShare { share }) => seed ^= share.0,
                    (from, got) => {
                        return Err(TransportError::UnexpectedMessage {
                            from,
                            context: "shuffle-seed negotiation",
                            got,
                        })
                    }
                }
            }
            Ok(SharedShuffler::new(seed))
        })
        .collect()
}

/// Derives the round-`r` permutation seed from the negotiated base seed.
fn round_seed(base_seed: u64, round: u64) -> u64 {
    // SplitMix64-style mix; all clients compute the same value.
    let mut z = base_seed ^ round.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The per-client shuffler used at the end of every training round. It
/// prints as `SharedShuffler { .. }` and has no `Display`:
///
/// ```compile_fail
/// println!("{}", gtv_vfl::SharedShuffler::new(7));
/// ```
///
/// and no public way back to its seed:
///
/// ```compile_fail
/// let seed: u64 = gtv_vfl::SharedShuffler::new(7).base_seed;
/// ```
///
/// ```compile_fail
/// let seed = u64::from(gtv_vfl::SharedShuffler::new(7));
/// ```
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct SharedShuffler {
    base_seed: u64,
}

impl std::fmt::Debug for SharedShuffler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedShuffler").finish_non_exhaustive()
    }
}

impl SharedShuffler {
    /// Creates a shuffler from the negotiated base seed.
    pub fn new(base_seed: u64) -> Self {
        Self { base_seed }
    }

    /// The permutation every client applies at the end of round `round`.
    pub fn permutation(&self, n_rows: usize, round: u64) -> Vec<usize> {
        Table::shuffle_permutation(n_rows, round_seed(self.base_seed, round))
    }

    /// Shuffles a table for the given round.
    pub fn shuffle(&self, table: &Table, round: u64) -> Table {
        table.select_rows(&self.permutation(table.n_rows(), round))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::Network;
    use gtv_data::Dataset;

    #[test]
    fn negotiation_yields_identical_seeds() {
        let net = Network::new(3);
        let shufflers = negotiate_seed(&net, 3, 42).unwrap();
        assert_eq!(shufflers[0], shufflers[1]);
        assert_eq!(shufflers[1], shufflers[2]);
    }

    #[test]
    fn debug_output_hides_the_seed() {
        // A seed whose decimal and hex spellings are long: none of their
        // digits, nor any other digit, may show.
        let seed = 0x1234_5678_9abc_def0;
        let printed = [
            format!("{:?}", SharedShuffler::new(seed)),
            format!("{:?}", SeedShare::from(seed)),
            format!("{:?}", Message::ShuffleSeedShare { share: SeedShare::from(seed) }),
        ];
        assert_eq!(printed[0], "SharedShuffler { .. }");
        assert_eq!(printed[1], "SeedShare(..)");
        for p in &printed {
            assert!(!p.chars().any(|c| c.is_ascii_digit()), "{p}");
        }
    }

    #[test]
    fn negotiation_never_contacts_server() {
        let net = Network::new(3);
        let _ = negotiate_seed(&net, 3, 1).unwrap();
        let stats = net.stats();
        assert_eq!(stats.server_bytes(), 0, "server must not observe seed shares");
        assert!(net.try_recv(PartyId::Server).is_err());
    }

    #[test]
    fn negotiation_rejects_foreign_messages() {
        let net = Network::new(2);
        // A stray server message sits in client 0's inbox before the
        // negotiation starts; the protocol must refuse to treat it as a
        // seed share.
        net.send(
            PartyId::Server,
            PartyId::Client(0),
            Message::RoundStart { round: 1, selected: 0 },
        )
        .unwrap();
        let err = negotiate_seed(&net, 2, 5).unwrap_err();
        assert!(
            matches!(err, TransportError::UnexpectedMessage { from: PartyId::Server, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn per_round_permutations_differ_but_are_shared() {
        let s = SharedShuffler::new(123);
        let p1 = s.permutation(50, 1);
        let p2 = s.permutation(50, 2);
        assert_ne!(p1, p2);
        assert_eq!(p1, SharedShuffler::new(123).permutation(50, 1));
    }

    #[test]
    fn shuffle_keeps_vertical_shards_aligned() {
        let t = Dataset::Loan.generate(100, 0);
        let n = t.n_cols();
        let shards = t.vertical_split(&[(0..6).collect(), (6..n).collect()]);
        let sh = SharedShuffler::new(7);
        let a = sh.shuffle(&shards[0], 3);
        let b = sh.shuffle(&shards[1], 3);
        let joined = gtv_data::Table::hconcat(&[&a, &b]);
        let direct = sh.shuffle(&t, 3);
        assert_eq!(joined, direct);
    }
}
