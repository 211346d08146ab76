//! The split generator: `G^t` on the server, `G_i^b` + output head on each
//! client (paper Fig. 4 & 7).
//!
//! The server feeds `concat(z, CV)` through its `g_top` residual blocks and
//! `Split()`s the result into per-client slices proportional to the ratio
//! vector `P_r`. Each client runs its `g_bottom` residual blocks on its
//! slice, maps to its local encoded width with a fully-connected head, and
//! applies the CTGAN output activations (tanh on `α` spans, Gumbel-softmax
//! on one-hot spans).

use crate::config::GtvConfig;
use gtv_encoders::{Span, SpanKind};
use gtv_nn::{head_activations, Ctx, Init, Linear, Module, Param, ResidualBlock};
use gtv_tensor::{HeadSpan, SpanAct, Var};
use gtv_vfl::split_widths;
use rand::rngs::StdRng;

/// Split generator spanning server and clients.
#[derive(Debug)]
pub struct SplitGenerator {
    top_blocks: Vec<ResidualBlock>,
    slice_widths: Vec<usize>,
    client_blocks: Vec<Vec<ResidualBlock>>,
    client_heads: Vec<Linear>,
    /// Each client's head spans, in the tensor layer's terms.
    client_spans: Vec<Vec<HeadSpan>>,
    tau: f32,
}

impl SplitGenerator {
    /// Builds the split generator.
    ///
    /// * `input_dim` — noise + conditional-vector width;
    /// * `ratios` — the ratio vector `P_r`;
    /// * `client_out_widths` — each client's encoded data width;
    /// * `client_spans` — each client's activation spans (local offsets).
    pub fn new(
        config: &GtvConfig,
        input_dim: usize,
        ratios: &[f64],
        client_out_widths: &[usize],
        client_spans: Vec<Vec<Span>>,
        rng: &mut StdRng,
    ) -> Self {
        let n_clients = ratios.len();
        assert_eq!(client_out_widths.len(), n_clients, "per-client width count mismatch");
        assert_eq!(client_spans.len(), n_clients, "per-client span count mismatch");

        // Server-side residual blocks at full width.
        let mut top_blocks = Vec::with_capacity(config.partition.g_top);
        let mut dim = input_dim;
        for b in 0..config.partition.g_top {
            let block = ResidualBlock::new(&format!("g.top{b}"), dim, config.block_width, rng);
            dim = block.out_dim();
            top_blocks.push(block);
        }
        // Split() of the top output, proportional to P_r. With g_top = 0 the
        // shared `concat(z, CV)` itself is split, so every client's slice
        // still derives from one noise vector (§3.1.1's design argument).
        let slice_widths = split_widths(dim, ratios);

        // Client-side blocks at proportional (optionally boosted) widths.
        let per_client_width = config.per_client_block_widths(ratios);
        let mut client_blocks = Vec::with_capacity(n_clients);
        let mut client_heads = Vec::with_capacity(n_clients);
        for i in 0..n_clients {
            let mut blocks = Vec::with_capacity(config.partition.g_bottom);
            let mut d = slice_widths[i];
            for b in 0..config.partition.g_bottom {
                let block =
                    ResidualBlock::new(&format!("g.c{i}.b{b}"), d, per_client_width[i], rng);
                d = block.out_dim();
                blocks.push(block);
            }
            client_heads.push(Linear::new(
                &format!("g.c{i}.head"),
                d,
                client_out_widths[i],
                Init::KaimingUniform,
                rng,
            ));
            client_blocks.push(blocks);
        }
        Self {
            top_blocks,
            slice_widths,
            client_blocks,
            client_heads,
            client_spans: client_spans.iter().map(|spans| head_spans(spans)).collect(),
            tau: config.gumbel_tau,
        }
    }

    /// Per-client slice widths of the `Split()` boundary.
    pub fn slice_widths(&self) -> &[usize] {
        &self.slice_widths
    }

    /// Width of client `client`'s activated output (its encoded width).
    pub fn client_width(&self, client: usize) -> usize {
        self.client_heads[client].out_dim()
    }

    /// Server part: runs `G^t` and splits the output into client slices.
    pub fn top_forward(&self, ctx: &Ctx<'_>, z_cv: Var) -> Vec<Var> {
        let g = ctx.graph();
        let mut h = z_cv;
        for block in &self.top_blocks {
            h = block.forward(ctx, h);
        }
        let mut slices = Vec::with_capacity(self.slice_widths.len());
        let mut offset = 0;
        for &w in &self.slice_widths {
            slices.push(g.slice_cols(h, offset, w));
            offset += w;
        }
        slices
    }

    /// Client part: `G_i^b` blocks, head, and output activations — tanh on
    /// the `α` spans and Gumbel-softmax on the indicator spans, one graph
    /// node ([`head_activations`]). Returns `(head_logits, activated)` —
    /// the raw logits feed the generator's conditional loss.
    pub fn client_forward(&self, ctx: &Ctx<'_>, client: usize, slice: Var) -> (Var, Var) {
        let mut h = slice;
        for block in &self.client_blocks[client] {
            h = block.forward(ctx, h);
        }
        let logits = self.client_heads[client].forward(ctx, h);
        let activated = head_activations(ctx, logits, &self.client_spans[client], self.tau);
        (logits, activated)
    }

    /// Parameters of the server part.
    pub fn top_params(&self) -> Vec<Param> {
        self.top_blocks.iter().flat_map(|b| b.params()).collect()
    }

    /// Parameters of one client's part.
    pub fn client_params(&self, client: usize) -> Vec<Param> {
        let mut p: Vec<Param> =
            self.client_blocks[client].iter().flat_map(|b| b.params()).collect();
        p.extend(self.client_heads[client].params());
        p
    }
}

/// An encoder's activation spans as the head node's: tanh on `α`,
/// Gumbel-softmax on an indicator.
fn head_spans(spans: &[Span]) -> Vec<HeadSpan> {
    spans
        .iter()
        .map(|s| HeadSpan {
            start: s.start,
            width: s.width,
            act: match s.kind {
                SpanKind::Alpha => SpanAct::Tanh,
                SpanKind::Indicator => SpanAct::GumbelSoftmax,
            },
        })
        .collect()
}

impl Module for SplitGenerator {
    fn params(&self) -> Vec<Param> {
        let mut p = self.top_params();
        for i in 0..self.client_blocks.len() {
            p.extend(self.client_params(i));
        }
        p
    }
}

impl gtv_nn::Stateful for SplitGenerator {
    fn save_state(&self, dict: &mut gtv_nn::StateDict) {
        for b in &self.top_blocks {
            b.save_state(dict);
        }
        for (blocks, head) in self.client_blocks.iter().zip(&self.client_heads) {
            for b in blocks {
                b.save_state(dict);
            }
            head.save_state(dict);
        }
    }

    fn load_state(&self, dict: &gtv_nn::StateDict) -> Result<(), gtv_nn::LoadStateError> {
        for b in &self.top_blocks {
            b.load_state(dict)?;
        }
        for (blocks, head) in self.client_blocks.iter().zip(&self.client_heads) {
            for b in blocks {
                b.load_state(dict)?;
            }
            head.load_state(dict)?;
        }
        Ok(())
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "tests seed their fixtures with literals")]
mod tests {
    use super::*;
    use gtv_tensor::{Graph, Tensor};
    use rand::SeedableRng;

    fn demo_spans(width: usize) -> Vec<Span> {
        // One tanh scalar + one (width-1)-wide indicator.
        vec![
            Span { start: 0, width: 1, kind: SpanKind::Alpha },
            Span { start: 1, width: width - 1, kind: SpanKind::Indicator },
        ]
    }

    fn build(partition: crate::NetPartition) -> SplitGenerator {
        let mut rng = StdRng::seed_from_u64(0);
        let config =
            GtvConfig { partition, block_width: 32, embedding_dim: 8, ..GtvConfig::smoke() };
        SplitGenerator::new(
            &config,
            12,
            &[0.5, 0.5],
            &[6, 4],
            vec![demo_spans(6), demo_spans(4)],
            &mut rng,
        )
    }

    #[test]
    fn shapes_flow_through_all_partitions() {
        for partition in crate::NetPartition::all_nine() {
            let gen = build(partition);
            let g = Graph::new();
            let ctx = Ctx::train(&g, 0);
            let z = g.leaf(Tensor::ones(5, 12));
            let slices = gen.top_forward(&ctx, z);
            assert_eq!(slices.len(), 2);
            let (logits0, act0) = gen.client_forward(&ctx, 0, slices[0]);
            assert_eq!(g.shape(logits0), (5, 6), "{partition}");
            assert_eq!(g.shape(act0), (5, 6), "{partition}");
            let (_l1, act1) = gen.client_forward(&ctx, 1, slices[1]);
            assert_eq!(g.shape(act1), (5, 4), "{partition}");
        }
    }

    #[test]
    fn activations_respect_span_semantics() {
        let gen = build(crate::NetPartition::d2g0());
        let g = Graph::new();
        let ctx = Ctx::train(&g, 1);
        let z = g.leaf(Tensor::randn(8, 12, &mut StdRng::seed_from_u64(2)));
        let slices = gen.top_forward(&ctx, z);
        let (_, act) = gen.client_forward(&ctx, 0, slices[0]);
        let v = g.value(act);
        for r in 0..8 {
            let row = v.row_slice(r);
            assert!(row[0].abs() <= 1.0, "tanh output out of range");
            let one_hot_sum: f32 = row[1..].iter().sum();
            assert!((one_hot_sum - 1.0).abs() < 1e-4, "indicator span must be a distribution");
        }
    }

    #[test]
    fn slice_widths_sum_to_top_output() {
        let gen = build(crate::NetPartition::d2g2());
        // g_top = 2 blocks of width 32 with concat-residual over input 12.
        let total: usize = gen.slice_widths().iter().sum();
        assert_eq!(total, 12 + 32 + 32);
    }

    #[test]
    fn param_partition_is_disjoint_and_complete() {
        let gen = build(crate::NetPartition::d2g0());
        let all = gen.params().len();
        let split =
            gen.top_params().len() + gen.client_params(0).len() + gen.client_params(1).len();
        assert_eq!(all, split);
    }
}
