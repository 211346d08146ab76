//! Shared experiment pipeline: generate data → split → train → synthesize
//! → score (ML utility + statistical similarity + Diff.Corr variants).

use gtv::{CentralizedTrainer, GtvConfig, GtvTrainer, NetPartition};
use gtv_data::{Dataset, Table};
use gtv_metrics::{
    across_client_diff_corr, avg_client_diff_corr, diff_corr, similarity, SimilarityReport,
};
use gtv_ml::{utility_difference, Scores};
use std::time::Instant;

/// Experiment scale knobs (env-overridable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentScale {
    /// Rows per dataset (the paper uses 5 K–50 K; default is CPU-sized).
    pub rows: usize,
    /// Training rounds (the paper trains 300 epochs over 50 K rows).
    pub rounds: usize,
    /// Mini-batch size.
    pub batch: usize,
    /// Repetitions averaged per configuration (paper: 3).
    pub repeats: usize,
    /// Σ block width (the paper's default is 256; the *enlarged* generator
    /// of §4.3.3 is 3× this).
    pub width: usize,
}

impl ExperimentScale {
    /// Default CPU-sized scale.
    pub fn default_scale() -> Self {
        Self { rows: 800, rounds: 300, batch: 128, repeats: 1, width: 256 }
    }

    /// Tiny scale for smoke runs.
    pub fn quick() -> Self {
        Self { rows: 250, rounds: 40, batch: 64, repeats: 1, width: 64 }
    }

    /// Reads `GTV_ROWS`, `GTV_ROUNDS`, `GTV_BATCH`, `GTV_REPEATS` (and
    /// `GTV_QUICK=1` for the smoke preset) over the defaults.
    #[expect(
        clippy::disallowed_methods,
        reason = "experiment drivers take their scale from the environment; seeds stay in code"
    )]
    pub fn from_env() -> Self {
        let mut s = if std::env::var("GTV_QUICK").is_ok_and(|v| v == "1") {
            Self::quick()
        } else {
            Self::default_scale()
        };
        let read = |k: &str| std::env::var(k).ok().and_then(|v| v.parse::<usize>().ok());
        if let Some(v) = read("GTV_ROWS") {
            s.rows = v;
        }
        if let Some(v) = read("GTV_ROUNDS") {
            s.rounds = v;
        }
        if let Some(v) = read("GTV_BATCH") {
            s.batch = v;
        }
        if let Some(v) = read("GTV_REPEATS") {
            s.repeats = v.max(1);
        }
        if let Some(v) = read("GTV_WIDTH") {
            s.width = v;
        }
        s
    }

    /// GTV config for this scale.
    pub fn config(&self, partition: NetPartition, block_width: usize, seed: u64) -> GtvConfig {
        GtvConfig {
            partition,
            rounds: self.rounds,
            d_steps: 1,
            batch: self.batch,
            block_width,
            embedding_dim: 64,
            seed,
            ..GtvConfig::default()
        }
    }
}

/// Scores of one (averaged) run.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOutcome {
    /// ML-utility difference vs real-trained models (lower = better).
    pub utility: Scores,
    /// Statistical similarity (lower = better).
    pub sim: SimilarityReport,
    /// Full-table Diff. Corr. (Tables 2/3).
    pub diff_corr: f64,
    /// Paper's Avg-client Diff.Corr. (2-client runs; 0 otherwise).
    pub avg_client: f64,
    /// Paper's Across-client Diff.Corr. (2-client runs; 0 otherwise).
    pub across_client: f64,
    /// Total protocol bytes.
    pub bytes: u64,
    /// Wall-clock seconds of training.
    pub seconds: f64,
}

impl RunOutcome {
    /// Elementwise mean over repeats.
    pub fn mean(items: &[RunOutcome]) -> RunOutcome {
        let n = items.len().max(1) as f64;
        let mut out = RunOutcome::default();
        for it in items {
            out.utility.accuracy += it.utility.accuracy / n;
            out.utility.f1 += it.utility.f1 / n;
            out.utility.auc += it.utility.auc / n;
            out.sim.avg_jsd += it.sim.avg_jsd / n;
            out.sim.avg_wd += it.sim.avg_wd / n;
            out.sim.diff_corr += it.sim.diff_corr / n;
            out.diff_corr += it.diff_corr / n;
            out.avg_client += it.avg_client / n;
            out.across_client += it.across_client / n;
            out.bytes += (it.bytes as f64 / n) as u64;
            out.seconds += it.seconds / n;
        }
        out
    }
}

fn score_run(
    train: &Table,
    test: &Table,
    synth: &Table,
    groups: &[Vec<usize>],
    bytes: u64,
    seconds: f64,
    seed: u64,
) -> RunOutcome {
    let utility = utility_difference(train, synth, test, seed);
    let sim = similarity(train, synth);
    let dc = diff_corr(train, synth);
    let (avg_client, across_client) = if groups.len() == 2 {
        // `train` and `synth` are both in group-concatenation order, so the
        // per-client shards are positional prefixes/suffixes.
        let mut cursor = 0;
        let mut positional = Vec::new();
        for g in groups {
            positional.push((cursor..cursor + g.len()).collect::<Vec<_>>());
            cursor += g.len();
        }
        let real_parts = train.vertical_split(&positional);
        let synth_parts = synth.vertical_split(&positional);
        (
            avg_client_diff_corr(&real_parts, &synth_parts),
            across_client_diff_corr(
                &real_parts[0],
                &real_parts[1],
                &synth_parts[0],
                &synth_parts[1],
            ),
        )
    } else {
        (0.0, 0.0)
    };
    RunOutcome { utility, sim, diff_corr: dc, avg_client, across_client, bytes, seconds }
}

/// Trains GTV on `dataset` with the given column groups and scores the
/// result; averages over `scale.repeats` seeds.
#[expect(clippy::disallowed_methods, reason = "the experiments report training wall time")]
pub fn run_gtv(
    dataset: Dataset,
    groups: &[Vec<usize>],
    partition: NetPartition,
    block_width: usize,
    scale: ExperimentScale,
) -> RunOutcome {
    let outcomes: Vec<RunOutcome> = (0..scale.repeats)
        .map(|rep| {
            let seed = 100 + rep as u64;
            let table = dataset.generate(scale.rows, seed);
            let (train, test) = table.train_test_split(0.2, seed);
            let shards = train.vertical_split(groups);
            let mut trainer = GtvTrainer::new(shards, scale.config(partition, block_width, seed));
            let start = Instant::now();
            trainer.train().expect("GTV protocol transport failed");
            let seconds = start.elapsed().as_secs_f64();
            let synth = trainer
                .synthesize(train.n_rows(), seed + 1)
                .expect("GTV protocol transport failed");
            // The synthetic join's column order follows the group order;
            // reorder the real train/test tables identically so schemas
            // match for scoring.
            let order: Vec<usize> = groups.iter().flatten().copied().collect();
            let train_o = train.select_columns(&order);
            let test_o = test.select_columns(&order);
            score_run(
                &train_o,
                &test_o,
                &synth,
                groups,
                trainer.network_stats().bytes,
                seconds,
                seed,
            )
        })
        .collect();
    RunOutcome::mean(&outcomes)
}

/// Trains the centralized baseline and scores it identically.
#[expect(clippy::disallowed_methods, reason = "the experiments report training wall time")]
pub fn run_centralized(dataset: Dataset, block_width: usize, scale: ExperimentScale) -> RunOutcome {
    let outcomes: Vec<RunOutcome> = (0..scale.repeats)
        .map(|rep| {
            let seed = 100 + rep as u64;
            let table = dataset.generate(scale.rows, seed);
            let (train, test) = table.train_test_split(0.2, seed);
            let mut trainer = CentralizedTrainer::new(
                train.clone(),
                scale.config(NetPartition::d2g0(), block_width, seed),
            );
            let start = Instant::now();
            trainer.train().expect("GTV protocol transport failed");
            let seconds = start.elapsed().as_secs_f64();
            let synth = trainer
                .synthesize(train.n_rows(), seed + 1)
                .expect("GTV protocol transport failed");
            score_run(&train, &test, &synth, &[], 0, seconds, seed)
        })
        .collect();
    RunOutcome::mean(&outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_produces_finite_scores() {
        let scale = ExperimentScale { rows: 120, rounds: 4, batch: 32, repeats: 1, width: 64 };
        let groups = vec![(0..6).collect::<Vec<_>>(), (6..13).collect::<Vec<_>>()];
        let out = run_gtv(Dataset::Loan, &groups, NetPartition::d2g0(), 64, scale);
        assert!(out.utility.f1.is_finite());
        assert!(out.sim.avg_jsd.is_finite());
        assert!(out.bytes > 0);
        assert!(out.avg_client > 0.0);
    }

    #[test]
    fn scale_env_defaults() {
        let s = ExperimentScale::default_scale();
        assert!(s.rows > 0 && s.rounds > 0 && s.repeats >= 1);
    }
}
