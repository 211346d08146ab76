//! Cross-module NN tests: end-to-end layer stacks, boundary-gradient
//! extraction and optimizer interplay.

#![expect(clippy::disallowed_methods, reason = "tests seed their fixtures with literals")]

use gtv_nn::{
    Adam, AdamConfig, BatchNorm1d, Ctx, FnBlock, Init, Linear, Module, Param, ParamBinder,
    ResidualBlock,
};
use gtv_tensor::{Graph, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn backprop_with_extras_returns_boundary_grads() {
    let g = Graph::new();
    let binder = ParamBinder::new();
    let p = Param::new("w", Tensor::scalar(2.0));
    let w = binder.bind(&g, &p);
    let x = g.leaf(Tensor::scalar(3.0)); // a "boundary" input
    let loss = g.mul(g.mul(w, x), x); // w·x²
    let extras = binder.backprop_with_extras(&g, loss, &[x]);
    assert_eq!(p.grad().item(), 9.0); // d/dw = x²
    assert_eq!(g.value(extras[0]).item(), 12.0); // d/dx = 2wx
}

#[test]
fn bindings_snapshot_matches_bind_order() {
    let g = Graph::new();
    let binder = ParamBinder::new();
    let a = Param::new("a", Tensor::scalar(1.0));
    let b = Param::new("b", Tensor::scalar(2.0));
    binder.bind(&g, &a);
    binder.bind(&g, &b);
    let pairs = binder.bindings();
    assert_eq!(pairs.len(), 2);
    assert!(pairs[0].0.ptr_eq(&a));
    assert!(pairs[1].0.ptr_eq(&b));
}

/// A two-block CTGAN-style generator stack learns to push its mean output
/// toward a target — validates blocks + Adam end to end.
#[test]
fn residual_stack_trains_toward_target() {
    let mut rng = StdRng::seed_from_u64(0);
    let block = ResidualBlock::new("rn", 8, 16, &mut rng);
    let head = Linear::new("head", block.out_dim(), 1, Init::KaimingUniform, &mut rng);
    let mut params = block.params();
    params.extend(head.params());
    let mut opt = Adam::new(params, AdamConfig { lr: 5e-3, ..Default::default() });

    let mut last = f32::MAX;
    for step in 0..150 {
        let g = Graph::new();
        let ctx = Ctx::train(&g, step);
        let x = g.leaf(Tensor::randn(32, 8, &mut rng));
        let h = block.forward(&ctx, x);
        let y = head.forward(&ctx, h);
        let target = g.leaf(Tensor::full(32, 1, 4.0));
        let diff = g.sub(y, target);
        let loss = g.mean_all(g.square(diff));
        opt.zero_grad();
        ctx.binder().backprop(&g, loss);
        opt.step();
        last = g.value(loss).item();
    }
    assert!(last < 0.5, "stack should approach the target, final loss {last}");
}

#[test]
fn fn_block_eval_is_deterministic_train_is_not() {
    let mut rng = StdRng::seed_from_u64(1);
    let block = FnBlock::new("fn", 6, 4, &mut rng);
    let x0 = Tensor::ones(4, 6);
    let run = |train: bool, seed: u64| {
        let g = Graph::new();
        let ctx = if train { Ctx::train(&g, seed) } else { Ctx::eval(&g, seed) };
        let x = g.leaf(x0.clone());
        g.value(block.forward(&ctx, x))
    };
    assert_eq!(run(false, 1), run(false, 2), "eval must ignore the RNG seed");
    assert_ne!(run(true, 1), run(true, 2), "train dropout must vary with the seed");
}

#[test]
fn batchnorm_learns_scale_and_shift() {
    let bn = BatchNorm1d::new("bn", 1);
    let mut opt = Adam::new(bn.params(), AdamConfig { lr: 5e-2, ..Default::default() });
    let mut rng = StdRng::seed_from_u64(2);
    // Teach batch-norm to output mean 2, std 3 (γ → 3, β → 2).
    for step in 0..300 {
        let g = Graph::new();
        let ctx = Ctx::train(&g, step);
        let x = g.leaf(Tensor::randn(64, 1, &mut rng));
        let y = bn.forward(&ctx, x);
        let target_mean = g.leaf(Tensor::scalar(2.0));
        let mean = g.mean_all(y);
        let centered = g.sub(y, mean);
        let var = g.mean_all(g.square(centered));
        let loss_mean = g.square(g.sub(mean, target_mean));
        let target_var = g.leaf(Tensor::scalar(9.0));
        let loss_var = g.square(g.sub(var, target_var));
        let loss = g.add(loss_mean, loss_var);
        opt.zero_grad();
        ctx.binder().backprop(&g, loss);
        opt.step();
    }
    let gamma = bn.params()[0].value().item();
    let beta = bn.params()[1].value().item();
    assert!((gamma.abs() - 3.0).abs() < 0.5, "gamma {gamma}");
    assert!((beta - 2.0).abs() < 0.5, "beta {beta}");
}

/// Train-mode batch-norm gradients (input, γ, β) against central finite
/// differences of an independent f64 implementation of the layer. The
/// reference shares nothing with the graph, so it checks the forward wiring
/// (one `x − mean` node feeding both the variance and the output) as well
/// as the backward pass through it.
#[test]
fn batchnorm_train_gradients_match_an_independent_reference() {
    const ROWS: usize = 6;
    const DIM: usize = 3;
    let x0 = Tensor::from_fn(ROWS, DIM, |r, c| {
        0.37 * (r as f32) - 0.21 * (c as f32) + 0.05 * ((r * c) as f32)
    });
    let gamma0 = Tensor::row(&[1.3, -0.7, 0.4]);
    let beta0 = Tensor::row(&[0.2, 0.5, -0.1]);
    // Loss Σ w ⊙ y with fixed weights: an unweighted sum of a batch-norm
    // output is constant in x and γ.
    let weights = Tensor::from_fn(ROWS, DIM, |r, c| {
        0.3 * (r as f32) - 0.45 * (c as f32) + 0.11 * ((r * r) as f32)
    });

    // The layer over one flat f64 vector: x row-major, then γ, then β.
    let reference_loss = |v: &[f64]| -> f64 {
        let (x, rest) = v.split_at(ROWS * DIM);
        let (gamma, beta) = rest.split_at(DIM);
        let mut loss = 0.0;
        for c in 0..DIM {
            let col = |r: usize| x[r * DIM + c];
            let mean = (0..ROWS).map(col).sum::<f64>() / ROWS as f64;
            let var = (0..ROWS).map(|r| (col(r) - mean).powi(2)).sum::<f64>() / ROWS as f64;
            for r in 0..ROWS {
                let y = (col(r) - mean) / (var + 1e-5).sqrt() * gamma[c] + beta[c];
                loss += f64::from(weights.at(r, c)) * y;
            }
        }
        loss
    };

    let bn = BatchNorm1d::new("bn", DIM);
    let params = bn.params();
    params[0].set_value(gamma0.clone());
    params[1].set_value(beta0.clone());
    let g = Graph::new();
    let ctx = Ctx::train(&g, 0);
    let x = g.leaf(x0.clone());
    let y = bn.forward(&ctx, x);
    let loss = g.sum_all(g.mul(y, g.leaf(weights.clone())));
    let dx = ctx.binder().backprop_with_extras(&g, loss, &[x])[0];

    let flat = |parts: [&Tensor; 3]| -> Vec<f64> {
        parts.iter().flat_map(|t| t.as_slice()).map(|&v| f64::from(v)).collect()
    };
    let point = flat([&x0, &gamma0, &beta0]);
    let analytic = flat([&g.value(dx), &params[0].grad(), &params[1].grad()]);
    let forward = f64::from(g.value(loss).item());
    assert!((forward - reference_loss(&point)).abs() < 1e-4, "forward {forward}");
    for (i, &a) in analytic.iter().enumerate() {
        let eval = |delta: f64| {
            let mut moved = point.clone();
            moved[i] += delta;
            reference_loss(&moved)
        };
        let numeric = (eval(1e-5) - eval(-1e-5)) / 2e-5;
        assert!(
            (a - numeric).abs() <= 2e-3 * (1.0 + numeric.abs()),
            "grad mismatch at {i}: analytic {a} vs numeric {numeric}"
        );
    }
}

#[test]
fn adam_handles_many_params_of_mixed_shapes() {
    let mut rng = StdRng::seed_from_u64(3);
    let layers: Vec<Linear> = (0..4)
        .map(|i| Linear::new(&format!("l{i}"), 3 + i, 2 + i, Init::XavierUniform, &mut rng))
        .collect();
    let params: Vec<Param> = layers.iter().flat_map(Module::params).collect();
    let mut opt = Adam::new(params.clone(), AdamConfig::default());
    for p in &params {
        let (r, c) = p.shape();
        p.accumulate_grad(&Tensor::ones(r, c));
    }
    opt.step();
    opt.zero_grad();
    for p in &params {
        assert_eq!(p.grad().frob_norm(), 0.0);
    }
}
