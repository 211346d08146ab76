//! CART decision-tree classifier (gini impurity), with the random feature
//! subsetting hook the random forest uses.

use crate::matrix::DMatrix;
use crate::Classifier;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Decision-tree hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeConfig {
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum samples required to split a node.
    pub min_samples_split: usize,
    /// Features considered per split (`None` = all, forests use √d).
    pub max_features: Option<usize>,
    /// RNG seed for feature subsetting.
    pub seed: u64,
}

impl Default for TreeConfig {
    fn default() -> Self {
        Self { max_depth: 12, min_samples_split: 4, max_features: None, seed: 0 }
    }
}

#[derive(Debug, Clone)]
enum Node {
    Leaf { probs: Vec<f64> },
    Split { feature: usize, threshold: f64, left: usize, right: usize },
}

/// CART classifier.
#[derive(Debug, Clone, Default)]
pub struct DecisionTree {
    config: TreeConfig,
    nodes: Vec<Node>,
    n_classes: usize,
}

impl DecisionTree {
    /// Creates an unfitted tree.
    pub fn new(config: TreeConfig) -> Self {
        Self { config, nodes: Vec::new(), n_classes: 0 }
    }

    /// Number of nodes in the fitted tree (0 before fitting).
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    fn leaf(&mut self, y: &[u32], idx: &[usize]) -> usize {
        let mut counts = vec![0.0f64; self.n_classes];
        for &i in idx {
            counts[y[i] as usize] += 1.0;
        }
        let total: f64 = counts.iter().sum::<f64>().max(1.0);
        for c in &mut counts {
            *c /= total;
        }
        self.nodes.push(Node::Leaf { probs: counts });
        self.nodes.len() - 1
    }

    fn gini_from_counts(counts: &[f64], total: f64) -> f64 {
        if total <= 0.0 {
            return 0.0;
        }
        1.0 - counts.iter().map(|c| (c / total) * (c / total)).sum::<f64>()
    }

    fn best_split(
        &self,
        x: &DMatrix,
        y: &[u32],
        idx: &[usize],
        rng: &mut StdRng,
    ) -> Option<(usize, f64, f64)> {
        let d = x.cols();
        let mut features: Vec<usize> = (0..d).collect();
        if let Some(k) = self.config.max_features {
            features.shuffle(rng);
            features.truncate(k.max(1).min(d));
        }

        let mut total_counts = vec![0.0f64; self.n_classes];
        for &i in idx {
            total_counts[y[i] as usize] += 1.0;
        }
        let n = idx.len() as f64;
        let parent_gini = Self::gini_from_counts(&total_counts, n);
        if parent_gini <= 1e-12 {
            return None;
        }

        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, impurity decrease)
        let mut order: Vec<usize> = Vec::with_capacity(idx.len());
        for &f in &features {
            order.clear();
            order.extend_from_slice(idx);
            order.sort_by(|&a, &b| x.at(a, f).total_cmp(&x.at(b, f)));
            let mut left_counts = vec![0.0f64; self.n_classes];
            let mut left_n = 0.0f64;
            for w in 0..order.len() - 1 {
                let i = order[w];
                left_counts[y[i] as usize] += 1.0;
                left_n += 1.0;
                let xv = x.at(i, f);
                let xn = x.at(order[w + 1], f);
                if xn <= xv {
                    continue; // no threshold between equal values
                }
                let right_n = n - left_n;
                let right_counts: Vec<f64> =
                    total_counts.iter().zip(&left_counts).map(|(t, l)| t - l).collect();
                let gini = (left_n * Self::gini_from_counts(&left_counts, left_n)
                    + right_n * Self::gini_from_counts(&right_counts, right_n))
                    / n;
                let decrease = parent_gini - gini;
                if best.is_none_or(|(_, _, d0)| decrease > d0) {
                    best = Some((f, (xv + xn) / 2.0, decrease));
                }
            }
        }
        best.filter(|(_, _, d)| *d > 1e-12)
    }

    fn build(
        &mut self,
        x: &DMatrix,
        y: &[u32],
        idx: &[usize],
        depth: usize,
        rng: &mut StdRng,
    ) -> usize {
        if depth >= self.config.max_depth || idx.len() < self.config.min_samples_split {
            return self.leaf(y, idx);
        }
        let Some((feature, threshold, _)) = self.best_split(x, y, idx, rng) else {
            return self.leaf(y, idx);
        };
        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
            idx.iter().partition(|&&i| x.at(i, feature) <= threshold);
        if left_idx.is_empty() || right_idx.is_empty() {
            return self.leaf(y, idx);
        }
        let left = self.build(x, y, &left_idx, depth + 1, rng);
        let right = self.build(x, y, &right_idx, depth + 1, rng);
        self.nodes.push(Node::Split { feature, threshold, left, right });
        self.nodes.len() - 1
    }

    fn predict_row(&self, row: &[f64]) -> &[f64] {
        let mut node = self.nodes.len() - 1; // root is pushed last
        loop {
            match &self.nodes[node] {
                Node::Leaf { probs } => return probs,
                Node::Split { feature, threshold, left, right } => {
                    node = if row[*feature] <= *threshold { *left } else { *right };
                }
            }
        }
    }
}

impl Classifier for DecisionTree {
    fn fit(&mut self, x: &DMatrix, y: &[u32], n_classes: usize) {
        assert_eq!(x.rows(), y.len(), "feature/label count mismatch");
        assert!(x.rows() > 0, "cannot fit on empty data");
        self.n_classes = n_classes;
        self.nodes.clear();
        let idx: Vec<usize> = (0..x.rows()).collect();
        #[expect(clippy::disallowed_methods, reason = "`self.config.seed`")]
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        self.build(x, y, &idx, 0, &mut rng);
    }

    fn predict_proba(&self, x: &DMatrix) -> Vec<Vec<f64>> {
        assert!(!self.nodes.is_empty(), "tree is not fitted");
        (0..x.rows()).map(|r| self.predict_row(x.row(r)).to_vec()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;

    fn xor_data() -> (DMatrix, Vec<u32>) {
        let mut data = Vec::new();
        let mut y = Vec::new();
        for i in 0..200 {
            let a = (i / 2 % 2) as f64 + ((i * 13) % 7) as f64 * 0.01;
            let b = (i % 2) as f64 + ((i * 17) % 5) as f64 * 0.01;
            data.push(a);
            data.push(b);
            y.push(((a.round() as u32) ^ (b.round() as u32)) & 1);
        }
        (DMatrix::from_vec(200, 2, data), y)
    }

    #[test]
    fn learns_xor() {
        let (x, y) = xor_data();
        let mut tree = DecisionTree::new(TreeConfig::default());
        tree.fit(&x, &y, 2);
        let pred = tree.predict(&x);
        assert!(accuracy(&pred, &y) > 0.99);
    }

    #[test]
    fn depth_limit_keeps_tree_small() {
        let (x, y) = xor_data();
        let mut stump = DecisionTree::new(TreeConfig { max_depth: 1, ..Default::default() });
        stump.fit(&x, &y, 2);
        assert!(stump.n_nodes() <= 3);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let (x, y) = xor_data();
        let mut tree = DecisionTree::new(TreeConfig::default());
        tree.fit(&x, &y, 2);
        for p in tree.predict_proba(&x) {
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn constant_labels_give_pure_leaf() {
        let x = DMatrix::from_vec(4, 1, vec![1.0, 2.0, 3.0, 4.0]);
        let y = vec![1u32; 4];
        let mut tree = DecisionTree::new(TreeConfig::default());
        tree.fit(&x, &y, 3);
        let p = tree.predict_proba(&x);
        assert_eq!(p[0][1], 1.0);
    }
}
