//! Random-forest classifier: bootstrap-sampled CART trees with √d feature
//! subsetting, probabilities averaged over trees.

use crate::matrix::DMatrix;
use crate::tree::{DecisionTree, TreeConfig};
use crate::Classifier;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random-forest hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForestConfig {
    /// Number of trees.
    pub n_trees: usize,
    /// Maximum depth per tree.
    pub max_depth: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ForestConfig {
    fn default() -> Self {
        Self { n_trees: 24, max_depth: 12, seed: 0 }
    }
}

/// Random-forest classifier.
#[derive(Debug, Clone, Default)]
pub struct RandomForest {
    config: ForestConfig,
    trees: Vec<DecisionTree>,
    n_classes: usize,
}

impl RandomForest {
    /// Creates an unfitted forest.
    pub fn new(config: ForestConfig) -> Self {
        Self { config, trees: Vec::new(), n_classes: 0 }
    }

    /// Number of fitted trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }
}

impl Classifier for RandomForest {
    fn fit(&mut self, x: &DMatrix, y: &[u32], n_classes: usize) {
        assert_eq!(x.rows(), y.len(), "feature/label count mismatch");
        assert!(x.rows() > 0, "cannot fit on empty data");
        self.n_classes = n_classes;
        self.trees.clear();
        #[expect(clippy::disallowed_methods, reason = "`self.config.seed`")]
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let n = x.rows();
        let max_features = (x.cols() as f64).sqrt().ceil() as usize;
        for t in 0..self.config.n_trees {
            let idx: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
            let xb = x.select_rows(&idx);
            let yb: Vec<u32> = idx.iter().map(|&i| y[i]).collect();
            let mut tree = DecisionTree::new(TreeConfig {
                max_depth: self.config.max_depth,
                min_samples_split: 4,
                max_features: Some(max_features),
                seed: self.config.seed.wrapping_add(t as u64 + 1),
            });
            tree.fit(&xb, &yb, n_classes);
            self.trees.push(tree);
        }
    }

    fn predict_proba(&self, x: &DMatrix) -> Vec<Vec<f64>> {
        assert!(!self.trees.is_empty(), "forest is not fitted");
        let mut acc = vec![vec![0.0f64; self.n_classes]; x.rows()];
        for tree in &self.trees {
            for (row, p) in acc.iter_mut().zip(tree.predict_proba(x)) {
                for (a, b) in row.iter_mut().zip(p) {
                    *a += b;
                }
            }
        }
        let k = self.trees.len() as f64;
        for row in &mut acc {
            for v in row.iter_mut() {
                *v /= k;
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;

    fn blobs() -> (DMatrix, Vec<u32>) {
        let mut data = Vec::new();
        let mut y = Vec::new();
        for i in 0..300 {
            let c = i % 3;
            let jitter = ((i * 31) % 11) as f64 * 0.05;
            data.push(c as f64 * 3.0 + jitter);
            data.push(c as f64 * -2.0 + jitter);
            y.push(c as u32);
        }
        (DMatrix::from_vec(300, 2, data), y)
    }

    #[test]
    fn separates_blobs() {
        let (x, y) = blobs();
        let mut rf = RandomForest::new(ForestConfig { n_trees: 10, ..Default::default() });
        rf.fit(&x, &y, 3);
        assert!(accuracy(&rf.predict(&x), &y) > 0.98);
        assert_eq!(rf.n_trees(), 10);
    }

    #[test]
    fn probabilities_are_averaged_distributions() {
        let (x, y) = blobs();
        let mut rf = RandomForest::new(ForestConfig { n_trees: 5, ..Default::default() });
        rf.fit(&x, &y, 3);
        for p in rf.predict_proba(&x).iter().take(10) {
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }
}
