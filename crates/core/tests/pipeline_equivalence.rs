//! Regression pin of the round schedule (DESIGN.md §10).
//!
//! A round fans every phase's messages out before collecting any reply and
//! gathers replies in fixed party order. That changes only *when* messages
//! move, never what any party computes or in which order RNG draws happen,
//! so it must train exactly what the one-message-at-a-time lockstep schedule
//! of commit 98e3689 trained. The weight and traffic literals below are that
//! lockstep schedule's, single-threaded: FNV-1a of `save_weights().to_bytes()`
//! and the `NetStats` message and byte totals. The FNV-1a of the synthetic
//! table's CSV was re-pinned when publication moved onto the one generation
//! path the `Synthesizer` serves (per-row noise substreams instead of one
//! stream per batch); training did not move.
//! They must hold for every worker-pool size. Each run covers two full
//! rounds, so every exchange of the default partition is exercised,
//! including the WGAN-GP gradient-penalty double backward inside `d_step`.
//! The totals are lower than the lockstep schedule's (48 messages and
//! 53 606 bytes for 2 parties, 73 and 53 864 for 3): this partition has no
//! critic bottom blocks, and the D-step no longer sends the `GradLogits`
//! nobody used. The weights did not move. The weight and CSV hashes moved
//! once more, and only them, when the matmul fused each term into one
//! multiply-add (one rounding instead of two), and once more when the CV
//! sampler began to draw rows as loaded and announce their current
//! positions (same distribution, other rows from the second round on;
//! messages and bytes did not move), and once more when the stochastic
//! layer moved to lane kernels (normal draws, Gumbel noise and the lane
//! `ln`, one uniform draw per output head, dropout coins from whole RNG
//! words; messages and bytes did not move; they were `0x6430_231c_7b8f_273c`
//! / `0xbb80_580b_c714_ed9b` for 2 parties and `0xdd00_9119_14c8_6a7d` /
//! `0xe3e7_3096_bc6f_00c9` for 3): the literals are those of all three
//! changes, which every thread count reproduces.
//!
//! Worker-pool size is process-global state, so the whole sweep runs inside
//! one test (Rust's harness runs separate tests concurrently).

use gtv::{GtvConfig, GtvTrainer};
use gtv_data::{to_csv_string, Dataset, Table};
use gtv_tensor::pool;

/// What one run left behind.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    weights_fnv64: u64,
    synth_fnv64: u64,
    messages: u64,
    bytes: u64,
}

/// `(parties, pin)`.
const PINS: [(usize, Pin); 2] = [
    (
        2,
        Pin {
            weights_fnv64: 0xb27e_9313_5151_0cd6,
            synth_fnv64: 0x9811_3aab_85a3_1668,
            messages: 40,
            bytes: 39_702,
        },
    ),
    (
        3,
        Pin {
            weights_fnv64: 0x89c5_d973_b483_7274,
            synth_fnv64: 0x1035_4b5d_2983_6513,
            messages: 61,
            bytes: 39_920,
        },
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
fn run(parties: usize, threads: usize) -> Pin {
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
fn rounds_train_the_lockstep_pins_for_all_thread_and_party_choices() {
    for (parties, pin) in PINS {
        for threads in [1usize, 2, 8] {
            assert_eq!(run(parties, threads), pin, "parties={parties}, threads={threads}");
        }
    }
    pool::set_threads(1);
}
