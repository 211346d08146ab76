//! Stochastic activations used by tabular GAN output heads.

use crate::ctx::Ctx;
use gtv_tensor::{HeadSpan, SpanAct, Var};

/// A tabular generator's output activations as one graph node
/// ([`gtv_tensor::Graph::span_act`]): `tanh` on each [`SpanAct::Tanh`]
/// span of `logits` and a Gumbel-softmax with temperature `tau` on each
/// [`SpanAct::GumbelSoftmax`] one (CTGAN uses `tau = 0.2`). The spans must
/// tile the columns in order. Every span's uniforms come from one
/// [`Ctx::uniform_noise`] call, so under a [`Ctx::eval_rows`] context a
/// head is one call site and each row's sample is independent of the batch
/// it rode in. The noise is drawn in eval mode too, so generated data is
/// stochastic (CTGAN's sampling); [`softmax_tempered`] is the
/// deterministic form.
pub fn head_activations(ctx: &Ctx<'_>, logits: Var, spans: &[HeadSpan], tau: f32) -> Var {
    let g = ctx.graph();
    let rows = g.shape(logits).0;
    let noise_cols =
        spans.iter().filter(|s| s.act == SpanAct::GumbelSoftmax).map(|s| s.width).sum();
    g.span_act(logits, spans, tau, ctx.uniform_noise(rows, noise_cols))
}

/// Softmax with temperature but without Gumbel noise.
pub fn softmax_tempered(ctx: &Ctx<'_>, x: Var, tau: f32) -> Var {
    let g = ctx.graph();
    let scaled = g.mul_scalar(x, 1.0 / tau);
    g.softmax_rows(scaled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::row_seed;
    use gtv_tensor::{Graph, Tensor};

    /// A Gumbel-softmax over the whole row: the one-span head.
    fn gumbel_softmax(ctx: &Ctx<'_>, x: Var, tau: f32) -> Var {
        let width = ctx.graph().shape(x).1;
        let span = HeadSpan { start: 0, width, act: SpanAct::GumbelSoftmax };
        head_activations(ctx, x, &[span], tau)
    }

    #[test]
    fn gumbel_softmax_rows_are_distributions() {
        let g = Graph::new();
        let ctx = Ctx::train(&g, 7);
        let x = g.leaf(Tensor::from_rows(&[&[0.0, 1.0, 2.0], &[5.0, -5.0, 0.0]]));
        let y = g.value(gumbel_softmax(&ctx, x, 0.2));
        for r in 0..2 {
            let sum: f32 = y.row_slice(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn gumbel_softmax_low_temperature_is_nearly_one_hot() {
        let g = Graph::new();
        let ctx = Ctx::train(&g, 1);
        let x = g.leaf(Tensor::from_rows(&[&[10.0, 0.0, 0.0]]));
        let y = g.value(gumbel_softmax(&ctx, x, 0.1));
        let max = y.row_slice(0).iter().cloned().fold(0.0f32, f32::max);
        assert!(max > 0.95, "low-tau gumbel softmax should be peaked, got {max}");
    }

    #[test]
    fn eval_rows_noise_is_batch_invariant() {
        // A coalesced 3-row forward must equal three solo 1-row forwards when
        // the per-row substream seeds line up.
        let logits = [[0.3f32, -1.0, 2.0], [5.0, -5.0, 0.0], [0.0, 0.0, 0.0]];
        let seeds: Vec<u64> = (0..3).map(|r| row_seed(42, r)).collect();

        let g = Graph::new();
        let ctx = Ctx::eval_rows(&g, seeds.clone());
        let rows: Vec<&[f32]> = logits.iter().map(|r| r.as_slice()).collect();
        let x = g.leaf(Tensor::from_rows(&rows));
        let batched = g.value(gumbel_softmax(&ctx, x, 0.2));

        for r in 0..3 {
            let g1 = Graph::new();
            let ctx1 = Ctx::eval_rows(&g1, vec![seeds[r]]);
            let x1 = g1.leaf(Tensor::from_rows(&[&logits[r]]));
            let solo = g1.value(gumbel_softmax(&ctx1, x1, 0.2));
            assert_eq!(
                batched.row_slice(r),
                solo.row_slice(0),
                "row {r} differs between coalesced and solo forwards"
            );
        }
    }

    #[test]
    fn eval_rows_noise_advances_per_call_site() {
        // Two gumbel sites in one forward must see different noise even for
        // the same row seed (the node counter separates them).
        let g = Graph::new();
        let ctx = Ctx::eval_rows(&g, vec![row_seed(7, 0)]);
        let x = g.leaf(Tensor::from_rows(&[&[0.0f32, 0.0, 0.0]]));
        let a = g.value(gumbel_softmax(&ctx, x, 0.2));
        let b = g.value(gumbel_softmax(&ctx, x, 0.2));
        assert_ne!(a.row_slice(0), b.row_slice(0), "call sites must draw distinct substream noise");
    }

    #[test]
    fn gumbel_respects_strong_logits_statistically() {
        // With a big logit gap, sampled argmax should match the hot logit
        // most of the time.
        let mut hits = 0;
        for seed in 0..50 {
            let g = Graph::new();
            let ctx = Ctx::train(&g, seed);
            let x = g.leaf(Tensor::from_rows(&[&[4.0, 0.0]]));
            let y = g.value(gumbel_softmax(&ctx, x, 0.5));
            if y.at(0, 0) > y.at(0, 1) {
                hits += 1;
            }
        }
        assert!(hits > 40, "expected argmax to follow logits, got {hits}/50");
    }
}
