//! Monte-Carlo Shapley feature importance over an MLP, used to rank features
//! for the motivation case study (Fig. 3) and the 1090/5050/9010 data
//! partitions (§4.3.2).
//!
//! The estimator follows the interventional Kernel-SHAP convention: masked
//! features are replaced by their background (training-mean) values; for a
//! sample of rows and random feature permutations, each feature's marginal
//! contribution to the model's predicted probability of the row's true class
//! is accumulated. Masking operates at *original column* granularity — a
//! categorical column's one-hot block is masked as a unit.

use crate::features::Featurizer;
use crate::matrix::DMatrix;
use crate::mlp::{MlpClassifier, MlpConfig};
use crate::Classifier;
use gtv_data::Table;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Configuration of the Shapley estimator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShapleyConfig {
    /// Number of rows sampled for explanation.
    pub n_rows: usize,
    /// Number of feature permutations per row.
    pub n_permutations: usize,
    /// Epochs for the explained MLP.
    pub mlp_epochs: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ShapleyConfig {
    fn default() -> Self {
        Self { n_rows: 24, n_permutations: 8, mlp_epochs: 15, seed: 0 }
    }
}

/// Mean |Shapley value| per feature column of `table` (target excluded),
/// in original column order (the target position is skipped).
///
/// # Panics
///
/// Panics if the table lacks a target column or has no rows.
pub fn shapley_importance(table: &Table, config: ShapleyConfig) -> Vec<f64> {
    let f = Featurizer::fit(table);
    let (x, y) = f.transform(table);
    let n_classes = f.n_classes();
    let mut model = MlpClassifier::new(MlpConfig {
        epochs: config.mlp_epochs,
        seed: config.seed,
        ..Default::default()
    });
    model.fit(&x, &y, n_classes);

    // Background: feature means.
    let d = x.cols();
    let mut background = vec![0.0f64; d];
    for r in 0..x.rows() {
        for (b, v) in background.iter_mut().zip(x.row(r)) {
            *b += v;
        }
    }
    for b in &mut background {
        *b /= x.rows() as f64;
    }

    let spans = f.spans().to_vec();
    let n_feat_cols = spans.len();
    #[expect(
        clippy::disallowed_methods,
        reason = "`config.seed`, offset so the permutations differ from the model's own draws"
    )]
    let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(1));
    let mut rows: Vec<usize> = (0..x.rows()).collect();
    rows.shuffle(&mut rng);
    rows.truncate(config.n_rows.min(x.rows()));

    let score = |model: &MlpClassifier, row: &[f64], class: usize| -> f64 {
        let m = DMatrix::from_vec(1, row.len(), row.to_vec());
        model.predict_proba(&m)[0][class]
    };

    let mut phi = vec![0.0f64; n_feat_cols];
    let mut order: Vec<usize> = (0..n_feat_cols).collect();
    for &ri in &rows {
        let target_class = y[ri] as usize;
        let full_row = x.row(ri).to_vec();
        for _ in 0..config.n_permutations {
            order.shuffle(&mut rng);
            let mut current = background.clone();
            let mut prev_score = score(&model, &current, target_class);
            for &col in &order {
                let span = &spans[col];
                current[span.start..span.start + span.width]
                    .copy_from_slice(&full_row[span.start..span.start + span.width]);
                let new_score = score(&model, &current, target_class);
                phi[col] += (new_score - prev_score).abs();
                prev_score = new_score;
            }
        }
    }
    let norm = (rows.len() * config.n_permutations).max(1) as f64;
    for p in &mut phi {
        *p /= norm;
    }
    phi
}

/// Column indices (into the original table, target excluded) sorted by
/// descending Shapley importance.
pub fn importance_ranking(table: &Table, config: ShapleyConfig) -> Vec<usize> {
    let f = Featurizer::fit(table);
    let phi = shapley_importance(table, config);
    let mut cols: Vec<(usize, f64)> = f.spans().iter().map(|s| s.column).zip(phi).collect();
    cols.sort_by(|a, b| b.1.total_cmp(&a.1));
    cols.into_iter().map(|(c, _)| c).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtv_data::{ColumnData, ColumnKind, ColumnMeta, Schema};

    /// A table where column 0 fully determines the label and column 1 is
    /// pure noise — Shapley must rank 0 above 1.
    fn planted_table() -> Table {
        let n = 400;
        let schema = Schema::new(
            vec![
                ColumnMeta::new("signal", ColumnKind::Continuous),
                ColumnMeta::new("noise", ColumnKind::Continuous),
                ColumnMeta::new("y", ColumnKind::categorical(["a", "b"])),
            ],
            Some(2),
        );
        let mut signal = Vec::with_capacity(n);
        let mut noise = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let label = (i % 2) as u32;
            signal.push(label as f64 * 4.0 - 2.0 + ((i * 13) % 11) as f64 * 0.02);
            noise.push(((i * 29) % 17) as f64 * 0.1 - 0.8);
            y.push(label);
        }
        Table::new(
            schema,
            vec![ColumnData::Float(signal), ColumnData::Float(noise), ColumnData::Cat(y)],
        )
    }

    #[test]
    fn identifies_the_informative_feature() {
        let t = planted_table();
        let cfg = ShapleyConfig { n_rows: 16, n_permutations: 4, mlp_epochs: 25, seed: 0 };
        let phi = shapley_importance(&t, cfg);
        assert_eq!(phi.len(), 2);
        assert!(phi[0] > phi[1] * 2.0, "signal {} vs noise {}", phi[0], phi[1]);
        let ranking = importance_ranking(&t, cfg);
        assert_eq!(ranking[0], 0);
    }
}
