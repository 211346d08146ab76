//! The split discriminator: `D_i^b` on each client, the conditional-vector
//! filter `D^s` and `D^t` (FN blocks + scoring head) on the server.

use crate::config::GtvConfig;
use gtv_nn::{Ctx, FnBlock, Init, Linear, Module, Param};
use gtv_tensor::Var;
use rand::rngs::StdRng;

/// Split discriminator spanning server and clients.
#[derive(Debug)]
pub struct SplitDiscriminator {
    client_blocks: Vec<Vec<FnBlock>>,
    client_out_widths: Vec<usize>,
    cond_filter: Option<Linear>,
    top_blocks: Vec<FnBlock>,
    score: Linear,
}

impl SplitDiscriminator {
    /// Builds the split discriminator.
    ///
    /// * `client_in_widths` — each client's encoded data width;
    /// * `ratios` — the ratio vector `P_r` (drives per-client block widths);
    /// * `cond_width` — conditional-vector width (0 disables `D^s`).
    pub fn new(
        config: &GtvConfig,
        client_in_widths: &[usize],
        ratios: &[f64],
        cond_width: usize,
        rng: &mut StdRng,
    ) -> Self {
        let n_clients = client_in_widths.len();
        assert_eq!(ratios.len(), n_clients, "ratio/client count mismatch");
        let per_client_width = config.per_client_block_widths(ratios);

        let mut client_blocks = Vec::with_capacity(n_clients);
        let mut client_out_widths = Vec::with_capacity(n_clients);
        for i in 0..n_clients {
            let mut blocks = Vec::with_capacity(config.partition.d_bottom);
            let mut d = client_in_widths[i];
            for b in 0..config.partition.d_bottom {
                let block = FnBlock::new(&format!("d.c{i}.b{b}"), d, per_client_width[i], rng);
                d = block.out_dim();
                blocks.push(block);
            }
            client_out_widths.push(d);
            client_blocks.push(blocks);
        }

        let cond_filter = (cond_width > 0)
            .then(|| Linear::new("d.s", cond_width, cond_width, Init::KaimingUniform, rng));

        let mut top_in: usize = client_out_widths.iter().sum();
        top_in += cond_width;
        let mut top_blocks = Vec::with_capacity(config.partition.d_top);
        let mut d = top_in;
        for b in 0..config.partition.d_top {
            let block = FnBlock::new(&format!("d.top{b}"), d, config.block_width, rng);
            d = block.out_dim();
            top_blocks.push(block);
        }
        let score = Linear::new("d.score", d, 1, Init::KaimingUniform, rng);
        Self { client_blocks, client_out_widths, cond_filter, top_blocks, score }
    }

    /// Each client's bottom-model output width (equals its input width when
    /// `d_bottom = 0` — the logits are the encoded rows themselves).
    pub fn client_out_widths(&self) -> &[usize] {
        &self.client_out_widths
    }

    /// Client part: `D_i^b`. With zero bottom blocks this is the identity
    /// (the configuration the paper's Fig. 8 finds optimal, at the cost of
    /// uploading encoded rows).
    pub fn client_forward(&self, ctx: &Ctx<'_>, client: usize, x: Var) -> Var {
        let mut h = x;
        for block in &self.client_blocks[client] {
            h = block.forward(ctx, h);
        }
        h
    }

    /// Server part: concatenates client logits with `D^s(CV)` and scores
    /// with `D^t`. Returns the per-row critic value (`n×1`).
    ///
    /// # Panics
    ///
    /// Panics if `cv` presence disagrees with the configured `cond_width`.
    pub fn server_forward(&self, ctx: &Ctx<'_>, client_logits: &[Var], cv: Option<Var>) -> Var {
        let g = ctx.graph();
        let mut parts: Vec<Var> = client_logits.to_vec();
        match (&self.cond_filter, cv) {
            (Some(filter), Some(cv)) => parts.push(filter.forward(ctx, cv)),
            (None, None) => {}
            (Some(_), None) => panic!("discriminator expects a conditional vector"),
            (None, Some(_)) => panic!("discriminator was built without a conditional vector"),
        }
        let mut h = g.concat_cols(&parts);
        for block in &self.top_blocks {
            h = block.forward(ctx, h);
        }
        self.score.forward(ctx, h)
    }

    /// Parameters of the server part (`D^t` and `D^s`).
    pub fn server_params(&self) -> Vec<Param> {
        let mut p: Vec<Param> = self.top_blocks.iter().flat_map(|b| b.params()).collect();
        p.extend(self.score.params());
        if let Some(f) = &self.cond_filter {
            p.extend(f.params());
        }
        p
    }

    /// Parameters of one client's part.
    pub fn client_params(&self, client: usize) -> Vec<Param> {
        self.client_blocks[client].iter().flat_map(|b| b.params()).collect()
    }
}

impl Module for SplitDiscriminator {
    fn params(&self) -> Vec<Param> {
        let mut p = self.server_params();
        for i in 0..self.client_blocks.len() {
            p.extend(self.client_params(i));
        }
        p
    }
}

impl gtv_nn::Stateful for SplitDiscriminator {
    fn save_state(&self, dict: &mut gtv_nn::StateDict) {
        for blocks in &self.client_blocks {
            for b in blocks {
                b.save_state(dict);
            }
        }
        if let Some(f) = &self.cond_filter {
            f.save_state(dict);
        }
        for b in &self.top_blocks {
            b.save_state(dict);
        }
        self.score.save_state(dict);
    }

    fn load_state(&self, dict: &gtv_nn::StateDict) -> Result<(), gtv_nn::LoadStateError> {
        for blocks in &self.client_blocks {
            for b in blocks {
                b.load_state(dict)?;
            }
        }
        if let Some(f) = &self.cond_filter {
            f.load_state(dict)?;
        }
        for b in &self.top_blocks {
            b.load_state(dict)?;
        }
        self.score.load_state(dict)
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "tests seed their fixtures with literals")]
mod tests {
    use super::*;
    use gtv_tensor::{Graph, Tensor};
    use rand::SeedableRng;

    fn build(partition: crate::NetPartition, cond: usize) -> SplitDiscriminator {
        let mut rng = StdRng::seed_from_u64(0);
        let config = GtvConfig { partition, block_width: 32, ..GtvConfig::smoke() };
        SplitDiscriminator::new(&config, &[6, 4], &[0.6, 0.4], cond, &mut rng)
    }

    #[test]
    fn scores_flow_through_all_partitions() {
        for partition in crate::NetPartition::all_nine() {
            let d = build(partition, 3);
            let g = Graph::new();
            let ctx = Ctx::eval(&g, 0);
            let x0 = g.leaf(Tensor::ones(5, 6));
            let x1 = g.leaf(Tensor::ones(5, 4));
            let l0 = d.client_forward(&ctx, 0, x0);
            let l1 = d.client_forward(&ctx, 1, x1);
            let cv = g.leaf(Tensor::zeros(5, 3));
            let score = d.server_forward(&ctx, &[l0, l1], Some(cv));
            assert_eq!(g.shape(score), (5, 1), "{partition}");
        }
    }

    #[test]
    fn zero_bottom_blocks_pass_data_through() {
        let d = build(crate::NetPartition::d2g0(), 0);
        assert_eq!(d.client_out_widths(), &[6, 4]);
        let g = Graph::new();
        let ctx = Ctx::eval(&g, 0);
        let x = g.leaf(Tensor::ones(2, 6));
        let l = d.client_forward(&ctx, 0, x);
        assert_eq!(l, x, "identity bottom must not create nodes");
    }

    #[test]
    fn cond_filter_mismatch_panics() {
        let d = build(crate::NetPartition::d2g0(), 3);
        let g = Graph::new();
        let ctx = Ctx::eval(&g, 0);
        let x0 = g.leaf(Tensor::ones(1, 6));
        let x1 = g.leaf(Tensor::ones(1, 4));
        let l0 = d.client_forward(&ctx, 0, x0);
        let l1 = d.client_forward(&ctx, 1, x1);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            d.server_forward(&ctx, &[l0, l1], None)
        }));
        assert!(result.is_err());
    }

    #[test]
    fn param_partition_is_disjoint_and_complete() {
        let d = build(crate::NetPartition::new(1, 1, 2, 0), 3);
        let all = d.params().len();
        let split = d.server_params().len() + d.client_params(0).len() + d.client_params(1).len();
        assert_eq!(all, split);
    }
}
