//! CTGAN building blocks: the generator's residual (RN) block and the
//! discriminator's fully-connected (FN) block, exactly as described in the
//! GTV paper's baseline (§4.1).

use crate::ctx::Ctx;
use crate::init::Init;
use crate::layers::{BatchNorm1d, Dropout, Linear};
use crate::param::{Module, Param};
use gtv_tensor::{FusedAct, Var};
use rand::Rng;

/// Generator residual block: `FC → BatchNorm → ReLU`, output concatenated
/// with the input (CTGAN's `Residual`), so `out_dim = width + in_dim`.
#[derive(Debug)]
pub struct ResidualBlock {
    fc: Linear,
    bn: BatchNorm1d,
}

impl ResidualBlock {
    /// Creates a residual block mapping `in_dim` features to
    /// `width + in_dim` features.
    pub fn new(name: &str, in_dim: usize, width: usize, rng: &mut impl Rng) -> Self {
        Self {
            fc: Linear::new(&format!("{name}.fc"), in_dim, width, Init::KaimingUniform, rng),
            bn: BatchNorm1d::new(&format!("{name}.bn"), width),
        }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.fc.in_dim()
    }

    /// Output width (`fc` width + input width, because of the concat skip).
    pub fn out_dim(&self) -> usize {
        self.fc.out_dim() + self.fc.in_dim()
    }

    /// The fully-connected sub-layer.
    pub fn fc(&self) -> &Linear {
        &self.fc
    }

    /// The batch-norm sub-layer.
    pub fn bn(&self) -> &BatchNorm1d {
        &self.bn
    }

    /// Applies the block: the product `x·W`, then its bias, batch norm,
    /// ReLU and the concat of `x` as one fused
    /// [`Graph::bn_tail`](gtv_tensor::Graph::bn_tail) node (DESIGN.md §9).
    pub fn forward(&self, ctx: &Ctx<'_>, x: Var) -> Var {
        let (w, b) = self.fc.bind(ctx);
        let xw = ctx.graph().matmul(x, w);
        self.bn.tail(ctx, xw, Some(b), true, Some(x))
    }
}

impl Module for ResidualBlock {
    fn params(&self) -> Vec<Param> {
        let mut p = self.fc.params();
        p.extend(self.bn.params());
        p
    }
}

/// Discriminator block: `FC → LeakyReLU(0.2) → Dropout(0.5)`.
#[derive(Debug)]
pub struct FnBlock {
    fc: Linear,
    dropout: Dropout,
    slope: f32,
}

impl FnBlock {
    /// Creates an FN block mapping `in_dim` features to `width` features.
    pub fn new(name: &str, in_dim: usize, width: usize, rng: &mut impl Rng) -> Self {
        Self {
            fc: Linear::new(&format!("{name}.fc"), in_dim, width, Init::KaimingUniform, rng),
            dropout: Dropout::new(0.5),
            slope: 0.2,
        }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.fc.in_dim()
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.fc.out_dim()
    }

    /// The fully-connected sub-layer.
    pub fn fc(&self) -> &Linear {
        &self.fc
    }

    /// Applies the block. The FC layer and leaky-ReLU run as one fused
    /// `affine_act` node; see DESIGN.md §9 for the bit-identity argument.
    pub fn forward(&self, ctx: &Ctx<'_>, x: Var) -> Var {
        let h = self.fc.forward_act(ctx, x, FusedAct::LeakyRelu(self.slope));
        self.dropout.forward(ctx, h)
    }
}

impl Module for FnBlock {
    fn params(&self) -> Vec<Param> {
        self.fc.params()
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "tests seed their fixtures with literals")]
mod tests {
    use super::*;
    use gtv_tensor::{Graph, Tensor};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn residual_block_concats_input() {
        let mut rng = StdRng::seed_from_u64(3);
        let block = ResidualBlock::new("rn", 8, 16, &mut rng);
        assert_eq!(block.out_dim(), 24);
        let g = Graph::new();
        let ctx = Ctx::train(&g, 0);
        let x = g.leaf(Tensor::ones(4, 8));
        let y = block.forward(&ctx, x);
        assert_eq!(g.shape(y), (4, 24));
        // Last 8 columns are the untouched input.
        let tail = g.value(y).slice_cols(16, 8);
        assert_eq!(tail, Tensor::ones(4, 8));
    }

    #[test]
    fn fn_block_shapes() {
        let mut rng = StdRng::seed_from_u64(4);
        let block = FnBlock::new("fn", 10, 5, &mut rng);
        assert_eq!(block.out_dim(), 5);
        let g = Graph::new();
        let ctx = Ctx::eval(&g, 0);
        let x = g.leaf(Tensor::ones(3, 10));
        let y = block.forward(&ctx, x);
        assert_eq!(g.shape(y), (3, 5));
    }

    #[test]
    fn blocks_expose_all_params() {
        let mut rng = StdRng::seed_from_u64(5);
        let rn = ResidualBlock::new("rn", 4, 4, &mut rng);
        assert_eq!(rn.params().len(), 4); // fc.w, fc.b, bn.gamma, bn.beta
        let f = FnBlock::new("fn", 4, 4, &mut rng);
        assert_eq!(f.params().len(), 2);
    }
}
