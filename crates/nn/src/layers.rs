//! Core layers: linear, batch normalization, dropout.

use crate::ctx::Ctx;
use crate::init::Init;
use crate::param::{Module, Param};
use gtv_tensor::{BnStats, BnTail, FusedAct, Tensor, Var};
use rand::{Rng, RngCore};
use std::sync::{PoisonError, RwLock};

/// Fully-connected layer `y = xW + b`.
#[derive(Debug)]
pub struct Linear {
    w: Param,
    b: Param,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Creates a layer with the given fan-in/fan-out using `init` for the
    /// weights and zeros for the bias.
    pub fn new(name: &str, in_dim: usize, out_dim: usize, init: Init, rng: &mut impl Rng) -> Self {
        let w = Param::new(format!("{name}.w"), init.sample(in_dim, out_dim, rng));
        let bound = 1.0 / (in_dim.max(1) as f32).sqrt();
        let b_init = match init {
            Init::KaimingUniform => Tensor::rand_uniform(1, out_dim, -bound, bound, rng),
            _ => Tensor::zeros(1, out_dim),
        };
        let b = Param::new(format!("{name}.b"), b_init);
        Self { w, b, in_dim, out_dim }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Applies the layer.
    ///
    /// # Panics
    ///
    /// Panics (in the tensor layer) if `x` does not have `in_dim` columns.
    pub fn forward(&self, ctx: &Ctx<'_>, x: Var) -> Var {
        let (w, b) = self.bind(ctx);
        let g = ctx.graph();
        let xw = g.matmul(x, w);
        g.add(xw, b)
    }

    /// Binds the weights and the bias into the step's graph.
    pub(crate) fn bind(&self, ctx: &Ctx<'_>) -> (Var, Var) {
        let g = ctx.graph();
        (ctx.binder().bind(g, &self.w), ctx.binder().bind(g, &self.b))
    }

    /// Applies the layer followed by `act` through the fused
    /// [`Graph::affine_act`](gtv_tensor::Graph::affine_act) kernel, producing
    /// one graph node (and one pooled buffer) instead of three. Bit-identical
    /// to `forward` followed by the matching unfused activation.
    ///
    /// # Panics
    ///
    /// Panics (in the tensor layer) if `x` does not have `in_dim` columns, or
    /// if `act` is `FusedAct::LeakyRelu` with a non-positive slope.
    pub fn forward_act(&self, ctx: &Ctx<'_>, x: Var, act: FusedAct) -> Var {
        let g = ctx.graph();
        let w = ctx.binder().bind(g, &self.w);
        let b = ctx.binder().bind(g, &self.b);
        g.affine_act(x, w, b, act)
    }
}

impl Module for Linear {
    fn params(&self) -> Vec<Param> {
        vec![self.w.clone(), self.b.clone()]
    }
}

/// 1-D batch normalization over the batch dimension.
///
/// In training mode normalizes with batch statistics (gradients flow through
/// them) and updates exponential running statistics; in eval mode uses the
/// running statistics.
#[derive(Debug)]
pub struct BatchNorm1d {
    gamma: Param,
    beta: Param,
    running_mean: RwLock<Tensor>,
    running_var: RwLock<Tensor>,
    momentum: f32,
    eps: f32,
    dim: usize,
}

impl BatchNorm1d {
    /// Creates a batch-norm layer over `dim` features.
    pub fn new(name: &str, dim: usize) -> Self {
        Self {
            gamma: Param::new(format!("{name}.gamma"), Tensor::ones(1, dim)),
            beta: Param::new(format!("{name}.beta"), Tensor::zeros(1, dim)),
            running_mean: RwLock::new(Tensor::zeros(1, dim)),
            running_var: RwLock::new(Tensor::ones(1, dim)),
            momentum: 0.1,
            eps: 1e-5,
            dim,
        }
    }

    /// Feature width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Copies of the exponential running `(mean, variance)` statistics.
    /// A poisoned lock is recovered: the stats are whole tensors, replaced
    /// atomically by every writer.
    pub fn running_stats(&self) -> (Tensor, Tensor) {
        let mean = self.running_mean.read().unwrap_or_else(PoisonError::into_inner).clone();
        let var = self.running_var.read().unwrap_or_else(PoisonError::into_inner).clone();
        (mean, var)
    }

    /// Replaces the running statistics (weight loading).
    ///
    /// # Panics
    ///
    /// Panics if the shapes do not match the layer width.
    pub fn set_running_stats(&self, mean: Tensor, var: Tensor) {
        assert_eq!(mean.shape(), (1, self.dim), "running-mean shape mismatch");
        assert_eq!(var.shape(), (1, self.dim), "running-var shape mismatch");
        *self.running_mean.write().unwrap_or_else(PoisonError::into_inner) = mean;
        *self.running_var.write().unwrap_or_else(PoisonError::into_inner) = var;
    }

    /// Applies normalization.
    pub fn forward(&self, ctx: &Ctx<'_>, x: Var) -> Var {
        self.tail(ctx, x, None, false, None)
    }

    /// Batch norm of `x + bias` (of `x` with no bias), then a ReLU if
    /// `relu`, with `skip` concatenated to the right if given: one fused
    /// [`Graph::bn_tail`](gtv_tensor::Graph::bn_tail) node. In training it
    /// normalises with the batch statistics and folds them into the running
    /// ones; in inference it normalises with the running ones.
    pub(crate) fn tail(
        &self,
        ctx: &Ctx<'_>,
        x: Var,
        bias: Option<Var>,
        relu: bool,
        skip: Option<Var>,
    ) -> Var {
        let g = ctx.graph();
        let tail = BnTail {
            bias,
            gamma: ctx.binder().bind(g, &self.gamma),
            beta: ctx.binder().bind(g, &self.beta),
            eps: self.eps,
            relu,
            skip,
        };
        if !ctx.is_train() {
            let mean = self.running_mean.read().unwrap_or_else(PoisonError::into_inner);
            let var = self.running_var.read().unwrap_or_else(PoisonError::into_inner);
            return g.bn_tail(x, tail, BnStats::Running(&mean, &var)).0;
        }
        let (out, stats) = g.bn_tail(x, tail, BnStats::Batch);
        g.with_value(stats, |batch| {
            let keep = 1.0 - self.momentum;
            for (running, row) in [(&self.running_mean, 0), (&self.running_var, 1)] {
                let mut running = running.write().unwrap_or_else(PoisonError::into_inner);
                for (r, &b) in running.as_mut_slice().iter_mut().zip(batch.row_slice(row)) {
                    *r = *r * keep + b * self.momentum;
                }
            }
        });
        out
    }
}

impl Module for BatchNorm1d {
    fn params(&self) -> Vec<Param> {
        vec![self.gamma.clone(), self.beta.clone()]
    }
}

/// Inverted dropout: zeroes activations with probability `p` during training
/// and rescales survivors by `1/(1-p)`; identity in eval mode.
#[derive(Debug, Clone, Copy)]
pub struct Dropout {
    p: f32,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1)`.
    pub fn new(p: f32) -> Self {
        assert!((0.0..1.0).contains(&p), "dropout probability must be in [0,1), got {p}");
        Self { p }
    }

    /// Drop probability.
    pub fn p(&self) -> f32 {
        self.p
    }

    /// Applies dropout.
    pub fn forward(&self, ctx: &Ctx<'_>, x: Var) -> Var {
        if !ctx.is_train() || self.p == 0.0 {
            return x;
        }
        let g = ctx.graph();
        let (rows, cols) = g.shape(x);
        let mask = ctx.with_rng(|rng| dropout_mask(rows, cols, 1.0 - self.p, rng));
        let mask = g.leaf(mask);
        g.mul(x, mask)
    }
}

/// Bits of a uniform word compared at once by [`dropout_mask`].
const COIN_BITS: u32 = 24;

/// An inverted-dropout mask: each element `1/keep` with probability
/// `T/2²⁴`, where `T = ⌈keep·2²⁴⌉`, else `0` — exactly the keep rate of
/// comparing a 24-bit uniform `U` with `keep` — for 64 elements a batch of
/// words.
///
/// The 64 comparisons `U < T` run bit-sliced: bit `i` of word `j` is bit
/// `b` of element `i`'s `U` (inverted, which leaves it uniform), for the
/// bits `b` of `T` from its lowest set bit up to its top one, in that
/// order; the comparison of the bits above `b` is `w | r` where `T` has a
/// one and `w & r` where it has a zero (`U`'s bits below `T`'s lowest set
/// bit cannot make it smaller). So `p = 0.5` takes one word for 64 coins
/// and no keep rate more than 24. Element `e` of the row-major mask is bit
/// `e mod 64` of batch `e / 64`; `1·scale` and `0·scale` are exact.
fn dropout_mask(rows: usize, cols: usize, keep: f32, rng: &mut impl RngCore) -> Tensor {
    let scale = 1.0 / keep;
    // `keep·2²⁴` is exact; a keep rate that rounded to 1 keeps everything.
    let t = (keep * (1u32 << COIN_BITS) as f32).ceil() as u32;
    let n = rows * cols;
    let mut data = gtv_tensor::pool_mem::take(n);
    while data.len() < n {
        let coins = if t >> COIN_BITS != 0 {
            u64::MAX
        } else {
            (t.trailing_zeros()..COIN_BITS).fold(0u64, |r, b| {
                let w = rng.next_u64();
                if (t >> b) & 1 == 1 {
                    w | r
                } else {
                    w & r
                }
            })
        };
        let take = (n - data.len()).min(64);
        data.extend((0..take).map(|i| f32::from(u8::from((coins >> i) & 1 == 1)) * scale));
    }
    Tensor::from_vec(rows, cols, data)
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "tests seed their fixtures with literals")]
mod tests {
    use super::*;
    use gtv_tensor::Graph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn linear_shapes_and_params() {
        let mut rng = StdRng::seed_from_u64(1);
        let lin = Linear::new("l", 4, 3, Init::KaimingUniform, &mut rng);
        assert_eq!(lin.param_count(), 4 * 3 + 3);
        let g = Graph::new();
        let ctx = Ctx::train(&g, 0);
        let x = g.leaf(Tensor::ones(5, 4));
        let y = lin.forward(&ctx, x);
        assert_eq!(g.shape(y), (5, 3));
    }

    #[test]
    fn linear_computes_xw_plus_b() {
        let mut rng = StdRng::seed_from_u64(2);
        let lin = Linear::new("l", 2, 2, Init::Zeros, &mut rng);
        lin.params()[0].set_value(Tensor::eye(2));
        lin.params()[1].set_value(Tensor::row(&[1.0, -1.0]));
        let g = Graph::new();
        let ctx = Ctx::eval(&g, 0);
        let x = g.leaf(Tensor::from_rows(&[&[3.0, 4.0]]));
        let y = lin.forward(&ctx, x);
        assert_eq!(g.value(y), Tensor::from_rows(&[&[4.0, 3.0]]));
    }

    #[test]
    fn linear_forward_act_is_bit_identical_to_unfused() {
        let mut rng = StdRng::seed_from_u64(7);
        let lin = Linear::new("l", 6, 4, Init::KaimingUniform, &mut rng);
        let x0 = Tensor::from_fn(5, 6, |r, c| 0.31 * (r as f32) - 0.17 * (c as f32) + 0.2);
        for act in [FusedAct::Relu, FusedAct::Tanh, FusedAct::Sigmoid, FusedAct::LeakyRelu(0.2)] {
            let run = |fused: bool| {
                let g = Graph::new();
                let ctx = Ctx::train(&g, 0);
                let x = g.leaf(x0.clone());
                let h = if fused {
                    lin.forward_act(&ctx, x, act)
                } else {
                    let s = lin.forward(&ctx, x);
                    match act {
                        FusedAct::Relu => g.relu(s),
                        FusedAct::Tanh => g.tanh(s),
                        FusedAct::Sigmoid => g.sigmoid(s),
                        FusedAct::LeakyRelu(a) => g.leaky_relu(s, a),
                    }
                };
                let y = g.mean_all(g.mul(h, h));
                let grads = g.grad(y, &[x]);
                let mut out: Vec<u32> = g.value(h).as_slice().iter().map(|v| v.to_bits()).collect();
                out.extend(g.value(grads[0]).as_slice().iter().map(|v| v.to_bits()));
                out
            };
            assert_eq!(run(true), run(false), "fused {act:?} diverged in Linear::forward_act");
        }
    }

    #[test]
    fn batchnorm_normalizes_in_train_mode() {
        let bn = BatchNorm1d::new("bn", 2);
        let g = Graph::new();
        let ctx = Ctx::train(&g, 0);
        let x = g.leaf(Tensor::from_rows(&[&[1.0, 10.0], &[3.0, 30.0], &[5.0, 50.0]]));
        let y = g.value(bn.forward(&ctx, x));
        // Each column should have ~zero mean and ~unit variance.
        let mean0 = (y.at(0, 0) + y.at(1, 0) + y.at(2, 0)) / 3.0;
        assert!(mean0.abs() < 1e-5);
        let var0 = (0..3).map(|r| y.at(r, 0) * y.at(r, 0)).sum::<f32>() / 3.0;
        assert!((var0 - 1.0).abs() < 1e-3);
    }

    #[test]
    fn batchnorm_eval_uses_running_stats() {
        let bn = BatchNorm1d::new("bn", 1);
        // Train once to move running stats off their defaults.
        {
            let g = Graph::new();
            let ctx = Ctx::train(&g, 0);
            let x = g.leaf(Tensor::col(&[10.0, 20.0, 30.0]));
            let _ = bn.forward(&ctx, x);
        }
        let g = Graph::new();
        let ctx = Ctx::eval(&g, 0);
        let x = g.leaf(Tensor::col(&[10.0, 20.0]));
        let y = g.value(bn.forward(&ctx, x));
        // Eval output is not batch-normalized (batch mean of y is nonzero).
        let mean = (y.at(0, 0) + y.at(1, 0)) / 2.0;
        assert!(mean.abs() > 0.1);
    }

    #[test]
    fn dropout_eval_is_identity_and_train_preserves_scale() {
        let d = Dropout::new(0.5);
        let g = Graph::new();
        let ctx = Ctx::eval(&g, 0);
        let x = g.leaf(Tensor::ones(4, 4));
        assert_eq!(d.forward(&ctx, x), x);

        let g = Graph::new();
        let ctx = Ctx::train(&g, 42);
        let x = g.leaf(Tensor::ones(200, 50));
        let y = g.value(d.forward(&ctx, x));
        let mean = y.mean_all();
        assert!((mean - 1.0).abs() < 0.05, "inverted dropout should keep E[x], got {mean}");
    }

    #[test]
    fn dropout_mask_is_the_integer_comparison_on_the_same_words() {
        use rand::SeedableRng;
        for p in [0.5f32, 0.1, 0.75, 0.3] {
            let g = Graph::new();
            let ctx = Ctx::train(&g, 42);
            let x = g.leaf(Tensor::ones(37, 19));
            let y = g.value(Dropout::new(p).forward(&ctx, x));
            let keep = 1.0 - p;
            // Element `e` compares its 24-bit uniform `U`, assembled from
            // the complement of bit `e mod 64` of the words of its batch,
            // with `T = ⌈keep·2²⁴⌉` as integers.
            let t = (f64::from(keep) * 16_777_216.0).ceil() as u32;
            let mut rng = rand::rngs::StdRng::seed_from_u64(42);
            let mut words = Vec::new();
            let want = Tensor::from_fn(37, 19, |r, c| {
                let e = r * 19 + c;
                if e % 64 == 0 {
                    words = (t.trailing_zeros()..24).map(|b| (b, rng.next_u64())).collect();
                }
                let u: u32 =
                    words.iter().map(|&(b, w)| u32::from((w >> (e % 64)) & 1 == 0) << b).sum();
                if u < t {
                    1.0 / keep
                } else {
                    0.0
                }
            });
            assert_eq!(y, want, "p = {p}");
        }
    }

    #[test]
    #[should_panic(expected = "dropout probability")]
    fn dropout_rejects_bad_p() {
        let _ = Dropout::new(1.0);
    }
}
