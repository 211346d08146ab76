//! Multi-layer-perceptron classifier (one hidden layer of 100 ReLU units,
//! matching the paper's evaluation MLP), trained with Adam on cross-entropy.

use crate::matrix::DMatrix;
use crate::Classifier;
use gtv_nn::{Adam, AdamConfig, Ctx, Init, Linear, Module};
use gtv_tensor::{Graph, Tensor};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// MLP hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MlpConfig {
    /// Hidden width (paper: 100).
    pub hidden: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch: usize,
    /// Learning rate.
    pub lr: f32,
    /// Seed for init and shuffling.
    pub seed: u64,
}

impl Default for MlpConfig {
    fn default() -> Self {
        Self { hidden: 100, epochs: 30, batch: 128, lr: 1e-3, seed: 0 }
    }
}

/// One-hidden-layer MLP classifier.
#[derive(Debug, Default)]
pub struct MlpClassifier {
    config: MlpConfig,
    layers: Option<(Linear, Linear)>,
    n_classes: usize,
}

impl MlpClassifier {
    /// Creates an unfitted classifier.
    pub fn new(config: MlpConfig) -> Self {
        Self { config, layers: None, n_classes: 0 }
    }

    fn to_tensor(x: &DMatrix, idx: &[usize]) -> Tensor {
        let mut data = Vec::with_capacity(idx.len() * x.cols());
        for &i in idx {
            data.extend(x.row(i).iter().map(|&v| v as f32));
        }
        Tensor::from_vec(idx.len(), x.cols(), data)
    }

    fn forward_logits(&self, g: &Graph, ctx: &Ctx<'_>, x: gtv_tensor::Var) -> gtv_tensor::Var {
        let (l1, l2) = self.layers.as_ref().expect("model is not fitted");
        let h = l1.forward(ctx, x);
        let h = g.relu(h);
        l2.forward(ctx, h)
    }
}

impl Classifier for MlpClassifier {
    fn fit(&mut self, x: &DMatrix, y: &[u32], n_classes: usize) {
        assert_eq!(x.rows(), y.len(), "feature/label count mismatch");
        assert!(x.rows() > 0, "cannot fit on empty data");
        self.n_classes = n_classes;
        #[expect(clippy::disallowed_methods, reason = "`self.config.seed`")]
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let l1 =
            Linear::new("mlp.l1", x.cols(), self.config.hidden, Init::KaimingUniform, &mut rng);
        let l2 =
            Linear::new("mlp.l2", self.config.hidden, n_classes, Init::KaimingUniform, &mut rng);
        let mut params = l1.params();
        params.extend(l2.params());
        let mut opt = Adam::new(
            params,
            AdamConfig {
                lr: self.config.lr,
                beta1: 0.9,
                beta2: 0.999,
                weight_decay: 0.0,
                ..Default::default()
            },
        );
        self.layers = Some((l1, l2));

        let mut order: Vec<usize> = (0..x.rows()).collect();
        for epoch in 0..self.config.epochs {
            order.shuffle(&mut rng);
            for (bi, chunk) in order.chunks(self.config.batch).enumerate() {
                let xb = Self::to_tensor(x, chunk);
                let mut onehot = Tensor::zeros(chunk.len(), n_classes);
                for (r, &i) in chunk.iter().enumerate() {
                    onehot.set(r, y[i] as usize, 1.0);
                }
                let g = Graph::new();
                let ctx = Ctx::train(&g, (epoch * 10_000 + bi) as u64);
                let xv = g.leaf(xb);
                let logits = self.forward_logits(&g, &ctx, xv);
                let p = g.softmax_rows(logits);
                let logp = g.ln(g.add_scalar(p, 1e-9));
                let t = g.leaf(onehot);
                let ce = g.neg(g.mean_all(g.sum_cols(g.mul(t, logp))));
                opt.zero_grad();
                ctx.binder().backprop(&g, ce);
                opt.step();
            }
        }
    }

    fn predict_proba(&self, x: &DMatrix) -> Vec<Vec<f64>> {
        assert!(self.layers.is_some(), "model is not fitted");
        let idx: Vec<usize> = (0..x.rows()).collect();
        let mut out = Vec::with_capacity(x.rows());
        // Evaluate in chunks to bound graph size.
        for chunk in idx.chunks(512) {
            let xb = Self::to_tensor(x, chunk);
            let g = Graph::new();
            let ctx = Ctx::eval(&g, 0);
            let xv = g.leaf(xb);
            let logits = self.forward_logits(&g, &ctx, xv);
            let p = g.value(g.softmax_rows(logits));
            for r in 0..chunk.len() {
                out.push(p.row_slice(r).iter().map(|&v| v as f64).collect());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;

    #[test]
    fn learns_nonlinear_boundary() {
        // Ring vs center: not linearly separable.
        let mut data = Vec::new();
        let mut y = Vec::new();
        for i in 0..400 {
            let angle = i as f64 * 0.217;
            let r = if i % 2 == 0 { 0.3 } else { 1.5 };
            data.push(r * angle.cos());
            data.push(r * angle.sin());
            y.push((i % 2) as u32);
        }
        let x = DMatrix::from_vec(400, 2, data);
        let mut m = MlpClassifier::new(MlpConfig { epochs: 60, hidden: 32, ..Default::default() });
        m.fit(&x, &y, 2);
        assert!(accuracy(&m.predict(&x), &y) > 0.95);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let x = DMatrix::from_vec(10, 2, (0..20).map(|i| i as f64 * 0.1).collect());
        let y: Vec<u32> = (0..10).map(|i| (i % 2) as u32).collect();
        let mut m = MlpClassifier::new(MlpConfig { epochs: 2, hidden: 8, ..Default::default() });
        m.fit(&x, &y, 2);
        for p in m.predict_proba(&x) {
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-4);
        }
    }
}
