//! Bit pins for the work each party does on a thread of its own
//! (DESIGN.md §8): the rows of a whole-table upload, and a client's encoder
//! fit, encode and sampler at construction. Each party writes only its own
//! frame or its own fit, and every RNG draw stays on the calling thread in
//! client order, so the weights and the traffic are those the one-thread
//! loops trained. The literals were taken from those loops, and re-taken
//! at one thread when the matmul fused its terms, and when the CV sampler
//! began to draw rows as loaded and announce their current positions
//! (weights `0x71f0_aa87_1837_e9a5` and `0x53c8_1350_9eeb_2248` before;
//! construction and traffic did not move).
//!
//! Five clients: the faithful real path then has four whole-table uploads
//! a D-step, so four parties write at once. With `dp_noise_sigma` 0.1 the
//! whole-table noise is drawn as before — for the whole table, client by
//! client, from the trainer's RNG — and a change of its draw order moves the
//! weights.
//!
//! The kernel-pool size is process-global state, so each sweep runs inside
//! one test.

use gtv::{GtvConfig, GtvTrainer};
use gtv_data::{Dataset, Table};

/// Five row-aligned Loan shards (2, 2, 2, 2 and 5 columns).
fn five_shards(rows: usize) -> Vec<Table> {
    let table = Dataset::Loan.generate(rows, 0);
    let n = table.n_cols();
    let groups: Vec<Vec<usize>> =
        (0..5).map(|p| (p * 2..if p == 4 { n } else { (p + 1) * 2 }).collect()).collect();
    table.vertical_split(&groups)
}

/// FNV-1a, 64 bit.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// The weights' FNV-1a and the `NetStats` message and byte totals after
/// `rounds` rounds.
fn train(config: GtvConfig, rounds: usize) -> (u64, u64, u64) {
    let mut trainer = GtvTrainer::new(five_shards(240), config);
    for _ in 0..rounds {
        trainer.train_round().expect("in-process transport is healthy");
    }
    let stats = trainer.network_stats();
    (fnv64(&trainer.save_weights().to_bytes()), stats.messages, stats.bytes)
}

/// `(dp_noise_sigma, (weights, messages, bytes))` after three faithful
/// rounds. The bytes are those of the noise-free run: noise changes the
/// values an upload carries, not its size.
const FAITHFUL_PINS: [(f32, (u64, u64, u64)); 2] =
    [(0.0, (0xb279_0eee_5345_f8c1, 146, 222_930)), (0.1, (0xe98b_e13a_2a6d_2a0b, 146, 222_930))];

#[test]
fn five_party_faithful_rounds_train_the_pinned_weights_and_traffic() {
    for (dp_noise_sigma, pin) in FAITHFUL_PINS {
        for threads in [1, 2] {
            let config = GtvConfig {
                faithful_real_path: true,
                dp_noise_sigma,
                threads,
                ..GtvConfig::smoke()
            };
            let got = train(config, 3);
            assert_eq!(
                got, pin,
                "dp_noise_sigma = {dp_noise_sigma}, threads = {threads}: \
                 (weights {:#018x}, messages, bytes)",
                got.0
            );
        }
    }
}

/// The weights after the first round of a five-client trainer on the
/// default real path: what the per-party fits, encodes and samplers built.
const CONSTRUCTION_PIN: u64 = 0xb90f_3948_0e70_3034;

#[test]
fn five_party_construction_builds_the_pinned_trainer() {
    for threads in [1, 2] {
        let (weights, _, _) = train(GtvConfig { threads, ..GtvConfig::smoke() }, 1);
        assert_eq!(weights, CONSTRUCTION_PIN, "threads = {threads}: {weights:#018x}");
    }
}
