//! Linear models: multinomial logistic regression and one-vs-rest linear
//! SVM, both trained with mini-batch SGD.

use crate::matrix::DMatrix;
use crate::Classifier;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Shared SGD hyper-parameters for the linear models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearConfig {
    /// Learning rate.
    pub lr: f64,
    /// Number of passes over the data.
    pub epochs: usize,
    /// L2 regularization strength.
    pub l2: f64,
    /// Mini-batch size.
    pub batch: usize,
    /// Shuffling seed.
    pub seed: u64,
}

impl Default for LinearConfig {
    fn default() -> Self {
        Self { lr: 0.1, epochs: 40, l2: 1e-4, batch: 64, seed: 0 }
    }
}

/// Multinomial (softmax) logistic regression.
#[derive(Debug, Clone, Default)]
pub struct LogisticRegression {
    config: LinearConfig,
    // (n_classes × (d+1)) weights, last column is the bias.
    w: Vec<Vec<f64>>,
}

impl LogisticRegression {
    /// Creates an unfitted model.
    pub fn new(config: LinearConfig) -> Self {
        Self { config, w: Vec::new() }
    }

    fn logits(&self, row: &[f64]) -> Vec<f64> {
        self.w
            .iter()
            .map(|wc| {
                let mut z = wc[row.len()];
                for (wi, xi) in wc.iter().zip(row) {
                    z += wi * xi;
                }
                z
            })
            .collect()
    }
}

fn softmax(z: &mut [f64]) {
    let max = z.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let mut total = 0.0;
    for v in z.iter_mut() {
        *v = (*v - max).exp();
        total += *v;
    }
    for v in z.iter_mut() {
        *v /= total;
    }
}

impl Classifier for LogisticRegression {
    #[expect(clippy::needless_range_loop, reason = "indexed weight updates mirror the math")]
    fn fit(&mut self, x: &DMatrix, y: &[u32], n_classes: usize) {
        assert_eq!(x.rows(), y.len(), "feature/label count mismatch");
        let d = x.cols();
        self.w = vec![vec![0.0; d + 1]; n_classes];
        #[expect(clippy::disallowed_methods, reason = "`self.config.seed`")]
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut order: Vec<usize> = (0..x.rows()).collect();
        for _ in 0..self.config.epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(self.config.batch) {
                let mut grad = vec![vec![0.0; d + 1]; n_classes];
                for &i in chunk {
                    let row = x.row(i);
                    let mut p = self.logits(row);
                    softmax(&mut p);
                    for c in 0..n_classes {
                        let err = p[c] - if y[i] as usize == c { 1.0 } else { 0.0 };
                        for (g, xi) in grad[c].iter_mut().zip(row) {
                            *g += err * xi;
                        }
                        grad[c][d] += err;
                    }
                }
                let scale = self.config.lr / chunk.len() as f64;
                for c in 0..n_classes {
                    for j in 0..=d {
                        let reg = if j < d { self.config.l2 * self.w[c][j] } else { 0.0 };
                        self.w[c][j] -= scale * grad[c][j] + self.config.lr * reg;
                    }
                }
            }
        }
    }

    fn predict_proba(&self, x: &DMatrix) -> Vec<Vec<f64>> {
        assert!(!self.w.is_empty(), "model is not fitted");
        (0..x.rows())
            .map(|r| {
                let mut p = self.logits(x.row(r));
                softmax(&mut p);
                p
            })
            .collect()
    }
}

/// One-vs-rest linear SVM (hinge loss, L2), with probabilities derived from
/// the margins via a logistic link (Platt-style without calibration fitting).
#[derive(Debug, Clone, Default)]
pub struct LinearSvm {
    config: LinearConfig,
    w: Vec<Vec<f64>>,
}

impl LinearSvm {
    /// Creates an unfitted model.
    pub fn new(config: LinearConfig) -> Self {
        Self { config, w: Vec::new() }
    }

    /// Raw decision margins per class.
    pub fn decision_function(&self, row: &[f64]) -> Vec<f64> {
        self.w
            .iter()
            .map(|wc| {
                let mut z = wc[row.len()];
                for (wi, xi) in wc.iter().zip(row) {
                    z += wi * xi;
                }
                z
            })
            .collect()
    }
}

impl Classifier for LinearSvm {
    fn fit(&mut self, x: &DMatrix, y: &[u32], n_classes: usize) {
        assert_eq!(x.rows(), y.len(), "feature/label count mismatch");
        let d = x.cols();
        self.w = vec![vec![0.0; d + 1]; n_classes];
        #[expect(clippy::disallowed_methods, reason = "`self.config.seed`")]
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut order: Vec<usize> = (0..x.rows()).collect();
        for _ in 0..self.config.epochs {
            order.shuffle(&mut rng);
            for &i in &order {
                let row = x.row(i);
                for c in 0..n_classes {
                    let target = if y[i] as usize == c { 1.0 } else { -1.0 };
                    let margin = {
                        let mut z = self.w[c][d];
                        for (wi, xi) in self.w[c].iter().zip(row) {
                            z += wi * xi;
                        }
                        z
                    };
                    // Sub-gradient of hinge + L2.
                    if target * margin < 1.0 {
                        for (wj, xj) in self.w[c].iter_mut().zip(row) {
                            *wj += self.config.lr * (target * xj);
                        }
                        self.w[c][d] += self.config.lr * target;
                    }
                    for wj in self.w[c][..d].iter_mut() {
                        *wj -= self.config.lr * self.config.l2 * *wj;
                    }
                }
            }
        }
    }

    fn predict_proba(&self, x: &DMatrix) -> Vec<Vec<f64>> {
        assert!(!self.w.is_empty(), "model is not fitted");
        (0..x.rows())
            .map(|r| {
                let margins = self.decision_function(x.row(r));
                let mut p: Vec<f64> = margins.iter().map(|m| 1.0 / (1.0 + (-m).exp())).collect();
                let total: f64 = p.iter().sum();
                if total > 0.0 {
                    for v in &mut p {
                        *v /= total;
                    }
                }
                p
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{accuracy, macro_auc};

    fn linearly_separable() -> (DMatrix, Vec<u32>) {
        let mut data = Vec::new();
        let mut y = Vec::new();
        for i in 0..200 {
            let c = i % 2;
            let jitter = ((i * 7) % 13) as f64 * 0.02;
            data.push(if c == 0 { -1.0 - jitter } else { 1.0 + jitter });
            data.push(jitter - 0.1);
            y.push(c as u32);
        }
        (DMatrix::from_vec(200, 2, data), y)
    }

    #[test]
    fn logreg_separates() {
        let (x, y) = linearly_separable();
        let mut m = LogisticRegression::new(LinearConfig::default());
        m.fit(&x, &y, 2);
        assert!(accuracy(&m.predict(&x), &y) > 0.99);
        let proba = m.predict_proba(&x);
        assert!(macro_auc(&proba, &y, 2) > 0.99);
    }

    #[test]
    fn svm_separates() {
        let (x, y) = linearly_separable();
        let mut m = LinearSvm::new(LinearConfig { epochs: 20, ..Default::default() });
        m.fit(&x, &y, 2);
        assert!(accuracy(&m.predict(&x), &y) > 0.99);
    }

    #[test]
    fn logreg_multiclass() {
        let mut data = Vec::new();
        let mut y = Vec::new();
        for i in 0..300 {
            let c = i % 3;
            data.push(c as f64 * 2.0 + ((i * 11) % 7) as f64 * 0.05);
            y.push(c as u32);
        }
        let x = DMatrix::from_vec(300, 1, data);
        let mut m =
            LogisticRegression::new(LinearConfig { epochs: 120, lr: 0.3, ..Default::default() });
        m.fit(&x, &y, 3);
        assert!(accuracy(&m.predict(&x), &y) > 0.95);
    }

    #[test]
    fn probabilities_normalized() {
        let (x, y) = linearly_separable();
        let mut m = LinearSvm::new(LinearConfig::default());
        m.fit(&x, &y, 2);
        for p in m.predict_proba(&x).iter().take(5) {
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }
}
