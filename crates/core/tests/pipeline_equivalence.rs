//! Regression pin of the round schedule (DESIGN.md §10).
//!
//! A round fans every phase's messages out before collecting any reply and
//! gathers replies in fixed party order. That changes only *when* messages
//! move, never what any party computes or in which order RNG draws happen,
//! so it must train exactly what the one-message-at-a-time lockstep schedule
//! of commit 98e3689 trained. The literals below are that lockstep
//! schedule's, single-threaded: FNV-1a of `save_weights().to_bytes()` and of
//! the synthetic table's CSV, and the `NetStats` message and byte totals.
//! They must hold for every worker-pool size and, except the byte total,
//! for every wire codec. Each run covers two full rounds, so every exchange
//! type is exercised, including the WGAN-GP gradient-penalty double backward
//! inside `d_step`.
//!
//! Worker-pool size is process-global state, so the whole sweep runs inside
//! one test (Rust's harness runs separate tests concurrently).

use gtv::{GtvConfig, GtvTrainer};
use gtv_data::{to_csv_string, Dataset, Table};
use gtv_tensor::pool;
use gtv_vfl::{Transport, WireCodec};

/// What one run left behind.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    weights_fnv64: u64,
    synth_fnv64: u64,
    messages: u64,
    bytes: u64,
}

/// `(parties, dense pin, bytes under WireCodec::Adaptive)`.
const PINS: [(usize, Pin, u64); 2] = [
    (
        2,
        Pin {
            weights_fnv64: 0x29c8_3455_c709_66bb,
            synth_fnv64: 0x5108_d52b_3dd8_128b,
            messages: 48,
            bytes: 53_606,
        },
        44_478,
    ),
    (
        3,
        Pin {
            weights_fnv64: 0x34ef_c5b1_f95c_7c95,
            synth_fnv64: 0x2705_d2e2_580a_7781,
            messages: 73,
            bytes: 53_864,
        },
        44_056,
    ),
];

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

/// FNV-1a, 64 bit.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Trains 2 rounds and synthesizes 20 rows.
fn run(parties: usize, codec: WireCodec, threads: usize) -> Pin {
    let config = GtvConfig {
        rounds: 2,
        d_steps: 1,
        batch: 16,
        block_width: 32,
        embedding_dim: 8,
        // Explicit thread counts are set through pool::set_threads below;
        // keep the config's own request at "auto" so it does not fight the
        // sweep (GtvTrainer::new re-resolves it, so we re-set after).
        threads: 0,
        ..GtvConfig::default()
    };
    let mut trainer = GtvTrainer::new(shards(parties, 48), config);
    trainer.network().set_codec(codec);
    pool::set_threads(threads);
    trainer.train().expect("transport is healthy");
    let synth = trainer.synthesize(20, 7).expect("transport is healthy");
    let stats = trainer.network_stats();
    Pin {
        weights_fnv64: fnv64(&trainer.save_weights().to_bytes()),
        synth_fnv64: fnv64(to_csv_string(&synth).as_bytes()),
        messages: stats.messages,
        bytes: stats.bytes,
    }
}

#[test]
fn rounds_train_the_lockstep_pins_for_all_thread_party_and_codec_choices() {
    for (parties, dense, adaptive_bytes) in PINS {
        // The sparse codec changes bytes on the wire, never decoded values.
        let adaptive = Pin { bytes: adaptive_bytes, ..dense };
        for (codec, pin) in [(WireCodec::Dense, &dense), (WireCodec::Adaptive, &adaptive)] {
            for threads in [1usize, 2, 8] {
                assert_eq!(
                    run(parties, codec, threads),
                    *pin,
                    "parties={parties}, codec={codec:?}, threads={threads}"
                );
            }
        }
    }
    pool::set_threads(1);
}
