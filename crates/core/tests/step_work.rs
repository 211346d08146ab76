//! Deterministic work pin for the demand-driven backward pass (DESIGN.md
//! §4): the number of autograd nodes one D-step and one G-step build. A
//! wall-clock figure on a shared host cannot tell a wasted product from a
//! noisy neighbour; a node count can. The constants fall when a step stops
//! differentiating something nobody reads and rise when wasted backward
//! nodes come back — either way the change has to be looked at and the pin
//! moved on purpose.

use gtv::{GtvConfig, GtvTrainer};
use gtv_data::Dataset;

/// Nodes of the D-step and of the G-step of the first round (smoke shape,
/// Loan, two clients, seed of `GtvConfig::smoke`). Before the backward
/// pass was demand-driven the same two steps built 464 and 710.
const D_STEP_NODES: usize = 415;
const G_STEP_NODES: usize = 658;

#[test]
fn a_round_builds_exactly_the_pinned_number_of_nodes() {
    let table = Dataset::Loan.generate(200, 0);
    let n = table.n_cols();
    let shards = table.vertical_split(&[(0..n / 2).collect(), (n / 2..n).collect()]);
    let config = GtvConfig { threads: 1, ..GtvConfig::smoke() };
    let mut trainer = GtvTrainer::new(shards, config);
    trainer.train_round().expect("in-process transport is healthy");
    let nodes: Vec<usize> = trainer.alloc_stats().iter().map(|s| s.live_nodes).collect();
    assert_eq!(nodes, [D_STEP_NODES, G_STEP_NODES], "[D-step, G-step] live nodes");
}

/// FNV-1a, 64 bit.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// FNV-1a of `save_weights().to_bytes()` after three rounds of the shape
/// above, as commit cc9bbec trained them — the last commit whose shuffle
/// re-ordered the tables themselves. Three rounds take two shuffles into
/// account. The faithful real path sends whole tables and lets the server
/// select, the default path selects first: the same rows reach the same
/// arithmetic, so one constant serves both. A later change of arithmetic,
/// draw order or row order lands here.
const WEIGHTS_AFTER_3_ROUNDS: u64 = 0x335b_6baf_2bef_df2b;

#[test]
fn three_rounds_train_exactly_the_pinned_weights() {
    for faithful_real_path in [false, true] {
        let table = Dataset::Loan.generate(200, 0);
        let n = table.n_cols();
        let shards = table.vertical_split(&[(0..n / 2).collect(), (n / 2..n).collect()]);
        let config = GtvConfig { threads: 1, faithful_real_path, ..GtvConfig::smoke() };
        let mut trainer = GtvTrainer::new(shards, config);
        for _ in 0..3 {
            trainer.train_round().expect("in-process transport is healthy");
        }
        let fingerprint = fnv64(&trainer.save_weights().to_bytes());
        assert_eq!(
            fingerprint, WEIGHTS_AFTER_3_ROUNDS,
            "faithful_real_path = {faithful_real_path}: {fingerprint:#018x}"
        );
    }
}
