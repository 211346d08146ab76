//! # gtv-ml
//!
//! The paper's ML-utility evaluation stack (§4.2.1) plus the Shapley feature
//! ranking used by the motivation case study and the data-partition
//! experiments:
//!
//! * five classifiers — [`DecisionTree`], [`RandomForest`], [`LinearSvm`],
//!   [`LogisticRegression`], [`MlpClassifier`] — behind one [`Classifier`]
//!   trait;
//! * [`Featurizer`] mapping tables to feature matrices (train-set
//!   statistics applied to the test set);
//! * [`accuracy`] / [`macro_f1`] / [`macro_auc`] metrics;
//! * [`utility_difference`] — the train-on-synthetic vs train-on-real
//!   pipeline;
//! * [`shapley_importance`] — Monte-Carlo Shapley column importance.
//!
//! # Examples
//!
//! ```no_run
//! use gtv_data::Dataset;
//! use gtv_ml::{evaluate_all, utility_difference};
//!
//! let table = Dataset::Loan.generate(800, 0);
//! let (train, test) = table.train_test_split(0.2, 1);
//! let real_scores = evaluate_all(&train, &test, 0);
//! assert!(real_scores.accuracy > 0.5);
//! ```

#![cfg_attr(not(test), deny(clippy::float_cmp))]

mod features;
mod forest;
mod linear;
mod matrix;
mod metrics;
mod mlp;
mod shapley;
mod tree;
mod utility;

pub use features::{FeatureSpan, Featurizer};
pub use forest::{ForestConfig, RandomForest};
pub use linear::{LinearConfig, LinearSvm, LogisticRegression};
pub use matrix::DMatrix;
pub use metrics::{accuracy, macro_auc, macro_f1};
pub use mlp::{MlpClassifier, MlpConfig};
pub use shapley::{importance_ranking, shapley_importance, ShapleyConfig};
pub use tree::{DecisionTree, TreeConfig};
pub use utility::{evaluate_all, evaluate_one, utility_difference, Evaluator, Scores};

/// A classifier that learns from a feature matrix and emits per-class
/// probabilities.
pub trait Classifier {
    /// Fits the model.
    ///
    /// # Panics
    ///
    /// Implementations panic if `x.rows() != y.len()` or the data is empty.
    fn fit(&mut self, x: &DMatrix, y: &[u32], n_classes: usize);

    /// Per-class probabilities, one row per sample.
    fn predict_proba(&self, x: &DMatrix) -> Vec<Vec<f64>>;

    /// Hard predictions (argmax of [`Classifier::predict_proba`]).
    fn predict(&self, x: &DMatrix) -> Vec<u32> {
        self.predict_proba(x)
            .iter()
            .map(|p| {
                let mut best = 0;
                for (i, &v) in p.iter().enumerate() {
                    if v > p[best] {
                        best = i;
                    }
                }
                best as u32
            })
            .collect()
    }
}
