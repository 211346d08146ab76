//! Configuration of GTV training runs.

use gtv_nn::AdamConfig;

/// How the generator's RN blocks and the discriminator's FN blocks are
/// partitioned between the server (top model) and each client (bottom
/// model) — the paper's `D_{n4}^{n3} G_{n2}^{n1}` notation (Fig. 7), where
/// superscripts count server blocks and subscripts per-client blocks.
///
/// The total block count per network is fixed (2, like the centralized
/// CTGAN baseline); the 9 combinations evaluated in §4.3.1 are the cross
/// product of `{2+0, 1+1, 0+2}` for both networks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NetPartition {
    /// FN blocks in the server's `D^t` (`n3`).
    pub d_top: usize,
    /// FN blocks in each client's `D_i^b` (`n4`).
    pub d_bottom: usize,
    /// RN blocks in the server's `G^t` (`n1`).
    pub g_top: usize,
    /// RN blocks in each client's `G_i^b` (`n2`).
    pub g_bottom: usize,
}

impl NetPartition {
    /// Total blocks per network in the centralized baseline.
    pub const TOTAL_BLOCKS: usize = 2;

    /// Creates a partition.
    ///
    /// # Panics
    ///
    /// Panics unless `d_top + d_bottom == 2` and `g_top + g_bottom == 2`.
    pub fn new(d_top: usize, d_bottom: usize, g_top: usize, g_bottom: usize) -> Self {
        assert_eq!(d_top + d_bottom, Self::TOTAL_BLOCKS, "discriminator must have 2 blocks total");
        assert_eq!(g_top + g_bottom, Self::TOTAL_BLOCKS, "generator must have 2 blocks total");
        Self { d_top, d_bottom, g_top, g_bottom }
    }

    /// `D_0^2 G_0^2`: everything on the server (best ML utility in the
    /// paper together with [`NetPartition::d2g0`]).
    pub fn d2g2() -> Self {
        Self::new(2, 0, 2, 0)
    }

    /// `D_0^2 G_2^0`: discriminator on the server, generator on the clients
    /// (the paper's recommended configuration for even partitions).
    pub fn d2g0() -> Self {
        Self::new(2, 0, 0, 2)
    }

    /// All nine partitions of Fig. 7/8, in the paper's order.
    pub fn all_nine() -> Vec<NetPartition> {
        let splits = [(2, 0), (1, 1), (0, 2)];
        let mut out = Vec::with_capacity(9);
        for (d_top, d_bottom) in splits {
            for (g_top, g_bottom) in splits {
                out.push(Self::new(d_top, d_bottom, g_top, g_bottom));
            }
        }
        out
    }

    /// The paper's label, e.g. `D_0^2 G_2^0`.
    pub fn label(&self) -> String {
        format!("D_{}^{} G_{}^{}", self.d_bottom, self.d_top, self.g_bottom, self.g_top)
    }
}

impl std::fmt::Display for NetPartition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// Who learns the selected data indices `idx_p` each round (§3.1.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IndexSharing {
    /// GTV's design: `idx_p` goes only to the server, which selects the
    /// matching rows from the clients' uploaded logits.
    #[default]
    Server,
    /// The alternative the paper analyses and rejects: `idx_p` is shared
    /// peer-to-peer with the other clients (cheaper — clients upload only
    /// the selected rows — but curious clients can mine the index stream
    /// for membership in minority categories; see
    /// [`GtvTrainer::client_index_observers`](crate::GtvTrainer::client_index_observers)).
    PeerToPeer,
}

/// Hyper-parameters of a GTV (or centralized-baseline) training run.
#[derive(Debug, Clone, PartialEq)]
pub struct GtvConfig {
    /// Network partition between server and clients.
    pub partition: NetPartition,
    /// Training rounds `R`.
    pub rounds: usize,
    /// Discriminator epochs per round `e` (WGAN-GP trains `D` more often).
    pub d_steps: usize,
    /// Mini-batch size.
    pub batch: usize,
    /// Σ of block output widths across parties (256 default, 768 enlarged).
    pub block_width: usize,
    /// Random-noise dimension fed to the generator.
    pub embedding_dim: usize,
    /// Max GMM modes for mode-specific normalization.
    pub max_modes: usize,
    /// WGAN-GP gradient-penalty coefficient λ.
    pub gp_lambda: f32,
    /// Gumbel-softmax temperature for one-hot output heads.
    pub gumbel_tau: f32,
    /// Optimizer settings (shared by generator and discriminator sides).
    pub adam: AdamConfig,
    /// Master seed (weights, noise, CV sampling, shuffle negotiation).
    pub seed: u64,
    /// How `idx_p` is disseminated (server-only vs the rejected
    /// peer-to-peer alternative).
    pub index_sharing: IndexSharing,
    /// Std-dev of Gaussian noise injected into every intermediate logit a
    /// client uploads (the §3.3 DP-style protection; `0` disables it). The
    /// paper chooses not to pay this accuracy cost — the knob exists to
    /// reproduce that trade-off.
    pub dp_noise_sigma: f32,
    /// Per-client multipliers on the proportional block widths (the paper's
    /// future-work idea of enlarging the network of a client with few
    /// features). Empty = all `1.0`. Must match the client count otherwise.
    pub client_width_multipliers: Vec<f32>,
    /// When `true`, non-selected clients pass their *entire* table through
    /// `D_i^b` each step and the server selects the `idx_p` rows from the
    /// uploaded logits (the paper's privacy-preserving real path). When
    /// `false`, row selection happens before the bottom pass —
    /// mathematically equivalent training, far cheaper, but the real-path
    /// message sizes are no longer the faithful ones. Enable for
    /// communication measurements.
    pub faithful_real_path: bool,
    /// Worker threads for the two tensor kernels that fan out: a matmul of
    /// at least 4 Mi multiply-adds, and a sum, sum of squares or column sum
    /// over at least 4 Mi elements. Every other op, and the transport's
    /// message encoding, runs on the calling thread whatever it says. `0`
    /// (the default) resolves from the `GTV_THREADS` environment variable,
    /// falling back to the host's available parallelism. Results are
    /// bit-identical for every setting — the pool's chunking depends only
    /// on problem size (see DESIGN.md §8) — so this is purely a throughput
    /// knob. It sizes the kernel pool only: each party's table-sized work
    /// (its encoder fit, its whole-table upload) runs on a thread of its
    /// own whatever it says.
    pub threads: usize,
}

impl Default for GtvConfig {
    fn default() -> Self {
        Self {
            partition: NetPartition::d2g0(),
            rounds: 60,
            d_steps: 2,
            batch: 64,
            block_width: 256,
            embedding_dim: 64,
            max_modes: 5,
            gp_lambda: 10.0,
            gumbel_tau: 0.2,
            adam: AdamConfig::default(),
            seed: 0,
            index_sharing: IndexSharing::default(),
            dp_noise_sigma: 0.0,
            client_width_multipliers: Vec::new(),
            faithful_real_path: false,
            threads: 0,
        }
    }
}

impl GtvConfig {
    /// A small configuration for tests and examples (few rounds, narrow
    /// blocks).
    pub fn smoke() -> Self {
        Self {
            rounds: 4,
            d_steps: 1,
            batch: 32,
            block_width: 64,
            embedding_dim: 16,
            ..Self::default()
        }
    }

    /// Per-client block widths: `block_width` split proportionally to the
    /// ratio vector, then scaled by [`GtvConfig::client_width_multipliers`].
    ///
    /// # Panics
    ///
    /// Panics if multipliers are given but their count differs from the
    /// client count, or a multiplier is not positive.
    pub fn per_client_block_widths(&self, ratios: &[f64]) -> Vec<usize> {
        let mut widths = gtv_vfl::split_widths(self.block_width, ratios);
        if !self.client_width_multipliers.is_empty() {
            assert_eq!(
                self.client_width_multipliers.len(),
                ratios.len(),
                "need one width multiplier per client"
            );
            for (w, &m) in widths.iter_mut().zip(&self.client_width_multipliers) {
                assert!(m > 0.0, "width multipliers must be positive");
                *w = ((*w as f32) * m).round().max(1.0) as usize;
            }
        }
        widths
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_nine_are_distinct_and_valid() {
        let nine = NetPartition::all_nine();
        assert_eq!(nine.len(), 9);
        for p in &nine {
            assert_eq!(p.d_top + p.d_bottom, 2);
            assert_eq!(p.g_top + p.g_bottom, 2);
        }
        let labels: std::collections::HashSet<String> = nine.iter().map(|p| p.label()).collect();
        assert_eq!(labels.len(), 9);
    }

    #[test]
    fn labels_match_paper_notation() {
        assert_eq!(NetPartition::d2g0().label(), "D_0^2 G_2^0");
        assert_eq!(NetPartition::d2g2().label(), "D_0^2 G_0^2");
    }

    #[test]
    #[should_panic(expected = "2 blocks total")]
    fn rejects_wrong_block_sum() {
        let _ = NetPartition::new(2, 1, 0, 2);
    }
}
