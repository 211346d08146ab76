//! What a training round sends, kind by kind, in each of the nine
//! partitions (DESIGN.md §11): the count and encoded bytes of every message
//! kind over two rounds at smoke shape, and, for every message, a use for
//! it at the party it goes to. A kind that comes back where nobody reads
//! it — the D-step's `GradLogits` at `d_bottom = 0`, where no client owns a
//! critic parameter — moves a pin here.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Duration;

use gtv::{GtvConfig, GtvTrainer, NetPartition, Network, Transport, TransportError};
use gtv_data::Dataset;
use gtv_vfl::{Message, NetStats, PartyId};

const CLIENTS: usize = 2;
const ROUNDS: usize = 2;
const D_STEPS: usize = 1;

/// `(kind, messages, encoded bytes)`.
type Row = (&'static str, u64, u64);

/// Per partition, in [`NetPartition::all_nine`] order: the [`Row`]s of the
/// two training rounds, kinds in name order.
const TABLE: [(&str, &[Row]); 9] = [
    (
        "D_0^2 G_0^2",
        &[
            ("CondUpload", 4, 9_272),
            ("GenSlice", 8, 82_512),
            ("GradGenSlice", 4, 41_256),
            ("RealLogits", 4, 13_864),
            ("RoundStart", 8, 104),
            ("SynthLogits", 8, 27_728),
        ],
    ),
    (
        "D_0^2 G_1^1",
        &[
            ("CondUpload", 4, 9_272),
            ("GenSlice", 8, 49_744),
            ("GradGenSlice", 4, 24_872),
            ("RealLogits", 4, 13_864),
            ("RoundStart", 8, 104),
            ("SynthLogits", 8, 27_728),
        ],
    ),
    (
        "D_0^2 G_2^0",
        &[
            ("CondUpload", 4, 9_272),
            ("GenSlice", 8, 16_976),
            ("GradGenSlice", 4, 8_488),
            ("RealLogits", 4, 13_864),
            ("RoundStart", 8, 104),
            ("SynthLogits", 8, 27_728),
        ],
    ),
    (
        "D_1^1 G_0^2",
        &[
            ("CondUpload", 4, 9_272),
            ("GenSlice", 8, 82_512),
            ("GradGenSlice", 4, 41_256),
            ("GradLogits", 8, 32_848),
            ("RealLogits", 4, 16_424),
            ("RoundStart", 8, 104),
            ("SynthLogits", 8, 32_848),
        ],
    ),
    (
        "D_1^1 G_1^1",
        &[
            ("CondUpload", 4, 9_272),
            ("GenSlice", 8, 49_744),
            ("GradGenSlice", 4, 24_872),
            ("GradLogits", 8, 32_848),
            ("RealLogits", 4, 16_424),
            ("RoundStart", 8, 104),
            ("SynthLogits", 8, 32_848),
        ],
    ),
    (
        "D_1^1 G_2^0",
        &[
            ("CondUpload", 4, 9_272),
            ("GenSlice", 8, 16_976),
            ("GradGenSlice", 4, 8_488),
            ("GradLogits", 8, 32_848),
            ("RealLogits", 4, 16_424),
            ("RoundStart", 8, 104),
            ("SynthLogits", 8, 32_848),
        ],
    ),
    (
        "D_2^0 G_0^2",
        &[
            ("CondUpload", 4, 9_272),
            ("GenSlice", 8, 82_512),
            ("GradGenSlice", 4, 41_256),
            ("GradLogits", 8, 32_848),
            ("RealLogits", 4, 16_424),
            ("RoundStart", 8, 104),
            ("SynthLogits", 8, 32_848),
        ],
    ),
    (
        "D_2^0 G_1^1",
        &[
            ("CondUpload", 4, 9_272),
            ("GenSlice", 8, 49_744),
            ("GradGenSlice", 4, 24_872),
            ("GradLogits", 8, 32_848),
            ("RealLogits", 4, 16_424),
            ("RoundStart", 8, 104),
            ("SynthLogits", 8, 32_848),
        ],
    ),
    (
        "D_2^0 G_2^0",
        &[
            ("CondUpload", 4, 9_272),
            ("GenSlice", 8, 16_976),
            ("GradGenSlice", 4, 8_488),
            ("GradLogits", 8, 32_848),
            ("RealLogits", 4, 16_424),
            ("RoundStart", 8, 104),
            ("SynthLogits", 8, 32_848),
        ],
    ),
];

/// An in-process network that records every message it sends: kind,
/// recipient and encoded bytes.
struct Tally {
    inner: Network,
    sent: RefCell<Vec<(&'static str, PartyId, u64)>>,
}

impl Transport for Tally {
    fn send(&self, from: PartyId, to: PartyId, msg: Message) -> Result<(), TransportError> {
        let (kind, len) = (msg.kind(), msg.encode().len() as u64);
        self.inner.send(from, to, msg)?;
        self.sent.borrow_mut().push((kind, to, len));
        Ok(())
    }
    fn try_recv(&self, party: PartyId) -> Result<(PartyId, Message), TransportError> {
        self.inner.try_recv(party)
    }
    fn recv_timeout(
        &self,
        party: PartyId,
        timeout: Duration,
    ) -> Result<(PartyId, Message), TransportError> {
        self.inner.recv_timeout(party, timeout)
    }
    fn recv_timeout_bound(&self) -> Duration {
        self.inner.recv_timeout_bound()
    }
    fn set_recv_timeout(&self, timeout: Duration) {
        self.inner.set_recv_timeout(timeout);
    }
    fn begin_round(&self, round: u64) {
        self.inner.begin_round(round);
    }
    fn stats(&self) -> NetStats {
        self.inner.stats()
    }
    fn reset_stats(&self) {
        self.inner.reset_stats();
    }
}

/// Whether `to` has a use for a `kind` message. The server scores every
/// upload; every client learns the step's constructor, which decides what
/// it uploads; a client uses a generator slice or a gradient only for a
/// part of the network it owns weights of (`weights` names client `i`'s as
/// `g.c{i}.…` and `d.c{i}.…`).
fn uses(kind: &str, to: PartyId, weights: &[&str]) -> bool {
    let owns = |net: &str, i: usize| {
        let prefix = format!("{net}.c{i}.");
        weights.iter().any(|w| w.starts_with(&prefix))
    };
    match (kind, to) {
        ("CondUpload" | "SynthLogits" | "RealLogits", PartyId::Server)
        | ("RoundStart", PartyId::Client(_)) => true,
        ("GenSlice" | "GradGenSlice", PartyId::Client(i)) => owns("g", i),
        ("GradLogits", PartyId::Client(i)) => owns("d", i),
        _ => false,
    }
}

#[test]
fn each_partition_sends_its_pinned_kinds_only_to_parties_that_use_them() {
    let table = Dataset::Loan.generate(200, 0);
    let n = table.n_cols();
    let shards = table.vertical_split(&[(0..n / 2).collect(), (n / 2..n).collect()]);
    for (partition, (name, pinned)) in NetPartition::all_nine().into_iter().zip(TABLE) {
        assert_eq!(partition.to_string(), name);
        let config = GtvConfig { partition, d_steps: D_STEPS, threads: 1, ..GtvConfig::smoke() };
        let network = Tally { inner: Network::new(CLIENTS), sent: RefCell::default() };
        let mut t = GtvTrainer::with_transport(shards.clone(), config, network)
            .expect("seed negotiation succeeds in process");
        t.network().sent.take();
        for _ in 0..ROUNDS {
            t.train_round().expect("in-process transport is healthy");
        }
        let weights = t.save_weights();
        let names = weights.names();
        let mut by_kind: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for (kind, to, len) in t.network().sent.take() {
            assert!(uses(kind, to, &names), "{name}: {kind} to {to} has no use there");
            let entry = by_kind.entry(kind).or_default();
            entry.0 += 1;
            entry.1 += len;
        }

        let metered: u64 = t.network_stats().rounds.iter().map(|r| r.bytes).sum();
        assert_eq!(by_kind.values().map(|&(_, b)| b).sum::<u64>(), metered, "{name}");

        let grad_logits = by_kind.get("GradLogits").map_or(0, |&(n, _)| n);
        let expected = if partition.d_bottom == 0 { 0 } else { 2 * CLIENTS * D_STEPS * ROUNDS };
        assert_eq!(grad_logits, expected as u64, "{name}: GradLogits");

        let got: Vec<Row> = by_kind.into_iter().map(|(k, (n, b))| (k, n, b)).collect();
        assert_eq!(got, pinned, "{name}: (kind, messages, bytes)");
    }
}
