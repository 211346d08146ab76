//! Delivery-order replay over the GTV round choreography (DESIGN.md §11):
//! the round machine fixes the order messages are sent in; this checks that
//! the order they are *delivered* in changes nothing.
//!
//! Replaying the round schedule with every `send_all` fan-out delivered in
//! a seeded pseudo-random order (`Network::permute_deliveries`) produces
//! bit-identical weights and synthetic output at 2 and 3 parties —
//! `gather` re-sorting replies into fixed sender order is the whole reason
//! this holds. The check runs the real trainer and transport, not models of
//! them; `tests/socket_loopback.rs` runs the same replay with remote
//! parties.

use gtv::{GtvConfig, GtvTrainer};
use gtv_data::{Dataset, Table};
use gtv_tensor::pool;

fn shards(parties: usize, rows: usize) -> Vec<Table> {
    let t = Dataset::Loan.generate(rows, 0);
    let n = t.n_cols();
    let per = n / parties;
    let mut groups: Vec<Vec<usize>> = Vec::with_capacity(parties);
    for p in 0..parties {
        let end = if p + 1 == parties { n } else { (p + 1) * per };
        groups.push((p * per..end).collect());
    }
    t.vertical_split(&groups)
}

fn config() -> GtvConfig {
    GtvConfig {
        rounds: 2,
        d_steps: 1,
        batch: 16,
        block_width: 32,
        embedding_dim: 8,
        threads: 0,
        ..GtvConfig::default()
    }
}

/// Trains 2 rounds and synthesizes, optionally permuting every
/// fan-out's delivery order; returns (weight bytes, synthetic table).
fn run(parties: usize, permute_seed: Option<u64>) -> (Vec<u8>, Table) {
    let mut trainer = GtvTrainer::new(shards(parties, 48), config());
    pool::set_threads(2);
    if let Some(seed) = permute_seed {
        trainer.network().permute_deliveries(seed);
    }
    trainer.train().expect("transport is healthy");
    let synth = trainer.synthesize(20, 7).expect("transport is healthy");
    (trainer.save_weights().to_bytes(), synth)
}

#[test]
fn pipelined_rounds_are_insensitive_to_delivery_order() {
    for &parties in &[2usize, 3] {
        let (ref_weights, ref_synth) = run(parties, None);
        for &seed in &[1u64, 7, 42] {
            let (weights, synth) = run(parties, Some(seed));
            assert_eq!(
                weights, ref_weights,
                "permuted delivery changed weights (parties={parties}, seed={seed})"
            );
            assert_eq!(
                synth, ref_synth,
                "permuted delivery changed synthesis (parties={parties}, seed={seed})"
            );
        }
    }
    pool::set_threads(1);
}
