//! The centralized tabular-GAN baseline (§4.1).
//!
//! The paper's baseline is a CTGAN/CTAB-GAN hybrid: one-hot, mode-specific
//! and mixed-type encodings, CTGAN conditional vectors, a ResNet-style
//! generator (two residual blocks plus FC) and a two-FN-block
//! discriminator, trained with WGAN-GP. Structurally that is exactly GTV
//! with a single client holding every column — so the baseline wraps
//! [`GtvTrainer`] in that degenerate configuration, guaranteeing the
//! comparison isolates the *federation*, not incidental implementation
//! differences.

use crate::config::{GtvConfig, NetPartition};
use crate::trainer::{GtvTrainer, TrainHistory};
use gtv_data::Table;
use gtv_vfl::{NetStats, TransportError};

/// Centralized baseline trainer.
#[derive(Debug)]
pub struct CentralizedTrainer {
    inner: GtvTrainer,
}

impl CentralizedTrainer {
    /// Creates a centralized trainer over the full table.
    ///
    /// # Panics
    ///
    /// Panics if the table is empty.
    pub fn new(table: Table, mut config: GtvConfig) -> Self {
        // All blocks on the single party; the partition choice is irrelevant
        // to the math when there is one client, but `d2g0` keeps every
        // block at full width.
        config.partition = NetPartition::d2g0();
        Self { inner: GtvTrainer::new(vec![table], config) }
    }

    /// Runs the full configured training.
    ///
    /// # Errors
    ///
    /// Returns the first [`TransportError`] hit by the protocol simulation.
    pub fn train(&mut self) -> Result<(), TransportError> {
        self.inner.train()
    }

    /// Runs one round.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CentralizedTrainer::train`].
    pub fn train_round(&mut self) -> Result<(), TransportError> {
        self.inner.train_round()
    }

    /// Generates `n` synthetic rows.
    ///
    /// # Errors
    ///
    /// Returns a [`TransportError`] if publishing a share fails.
    pub fn synthesize(&self, n: usize, seed: u64) -> Result<Table, TransportError> {
        self.inner.synthesize(n, seed)
    }

    /// Per-step loss history.
    pub fn history(&self) -> &TrainHistory {
        self.inner.history()
    }

    /// Traffic counters of the degenerate single-client simulation,
    /// including the per-round windows opened by each training round —
    /// the baseline column of the communication-overhead comparison.
    pub fn network_stats(&self) -> NetStats {
        self.inner.network_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtv_data::Dataset;

    #[test]
    fn baseline_trains_and_synthesizes() {
        let table = Dataset::Loan.generate(100, 0);
        let mut trainer = CentralizedTrainer::new(table, GtvConfig::smoke());
        trainer.train_round().unwrap();
        let synth = trainer.synthesize(30, 0).unwrap();
        assert_eq!(synth.n_rows(), 30);
        assert_eq!(synth.n_cols(), 13);
        assert_eq!(trainer.history().g_loss.len(), 1);
    }
}
