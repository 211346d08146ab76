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
    let config = GtvConfig { threads: 1, alloc_stats: true, ..GtvConfig::smoke() };
    let mut trainer = GtvTrainer::new(shards, config);
    trainer.train_round().expect("in-process transport is healthy");
    let nodes: Vec<usize> = trainer.alloc_stats().iter().map(|s| s.live_nodes).collect();
    assert_eq!(nodes, [D_STEP_NODES, G_STEP_NODES], "[D-step, G-step] live nodes");
}
