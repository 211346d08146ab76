//! Shared fixture for the serve integration tests: one smoke-trained
//! Loan model, rebuilt into a standalone [`Synthesizer`] through the
//! `save_weights`/`load_weights` state-dict path.
#![allow(dead_code, reason = "each test binary uses its own subset of the fixture")]

use gtv::{GtvConfig, GtvTrainer, Synthesizer};
use gtv_data::Dataset;

/// Trains one smoke round on a deterministic Loan shard split and
/// extracts the generator as a sample-ready synthesizer.
pub fn trained_synth() -> Synthesizer {
    let table = Dataset::Loan.generate(96, 3);
    let n = table.n_cols();
    let shards = table.vertical_split(&[(0..n / 2).collect(), (n / 2..n).collect()]);
    let mut trainer = GtvTrainer::new(shards, GtvConfig::smoke());
    trainer.train_round().expect("smoke round");
    trainer.synthesizer().expect("synthesizer")
}
