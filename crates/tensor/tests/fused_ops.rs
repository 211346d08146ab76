//! Fused-kernel contract: `Graph::affine_act`, `Graph::row_norm_eps` and
//! `Graph::bn_tail` must be *bit-identical* to the unfused primitive chains
//! they replace — forward and backward, and for the first two through the
//! WGAN-GP double-backward path — for every tested `GTV_THREADS` value.
//! `Graph::span_act`, the generator's output head, is bit-identical to its
//! chain forward and within a measured tolerance of it backward (its
//! softmax gradient is the closed form, not the chain's adjoints).
//! Gradients are additionally checked against central finite differences.

use gtv_tensor::{
    dispatch, pool, simd, BnStats, BnTail, FusedAct, Graph, HeadSpan, SpanAct, Tensor, Var,
};
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Lowers the size-keyed dispatch thresholds so these proptest shapes
/// genuinely cross the worker pool at `threads > 1` (the production
/// defaults would keep them inline). Same values in every test; never
/// restored, since the override is process-global and tests run
/// concurrently.
fn force_pool_dispatch() {
    dispatch::set_par_mins(1_024, 1_024, 8_192);
}

const ACTS: [FusedAct; 4] =
    [FusedAct::Relu, FusedAct::Tanh, FusedAct::Sigmoid, FusedAct::LeakyRelu(0.2)];

fn tensor_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-3.0f32..3.0, rows * cols)
        .prop_map(move |v| Tensor::from_vec(rows, cols, v))
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// The unfused reference: `act(x @ w + b)` from primitives.
fn unfused_affine(g: &Graph, x: Var, w: Var, b: Var, act: FusedAct) -> Var {
    let s = g.add(g.matmul(x, w), b);
    match act {
        FusedAct::Relu => g.relu(s),
        FusedAct::Tanh => g.tanh(s),
        FusedAct::Sigmoid => g.sigmoid(s),
        FusedAct::LeakyRelu(alpha) => g.leaky_relu(s, alpha),
    }
}

/// The unfused reference: `sqrt(Σ_cols x² + eps)` from primitives.
fn unfused_row_norm(g: &Graph, x: Var, eps: f32) -> Var {
    let sq = g.square(x);
    let s = g.sum_cols(sq);
    let s = g.add_scalar(s, eps);
    g.sqrt(s)
}

#[derive(Clone, Copy)]
enum Mode {
    Fused,
    Unfused,
}

/// Forward + gradient + double-backward bits of an `affine_act` tower, in
/// the gradient-penalty shape: differentiate a row norm of a first-order
/// input gradient with respect to the weights.
fn affine_tower_bits(x0: &Tensor, w0: &Tensor, b0: &Tensor, act: FusedAct, mode: Mode) -> Vec<u32> {
    let g = Graph::new();
    let x = g.leaf(x0.clone());
    let w = g.leaf(w0.clone());
    let b = g.leaf(b0.clone());
    let h = match mode {
        Mode::Fused => g.affine_act(x, w, b, act),
        Mode::Unfused => unfused_affine(&g, x, w, b, act),
    };
    let mut out = bits(&g.value(h));

    let y = g.mean_all(g.mul(h, h));
    let grads = g.grad(y, &[x, w, b]);
    for &gr in &grads {
        out.extend(bits(&g.value(gr)));
    }

    // Double backward, WGAN-GP shaped: ∂/∂w of (‖∂y/∂x‖_rows − 1)².
    let gx = grads[0];
    let norm = match mode {
        Mode::Fused => g.row_norm_eps(gx, 1e-12),
        Mode::Unfused => unfused_row_norm(&g, gx, 1e-12),
    };
    let shifted = g.add_scalar(norm, -1.0);
    let pen = g.mean_all(g.mul(shifted, shifted));
    let dw = g.grad(pen, &[w])[0];
    out.extend(bits(&g.value(dw)));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn fused_affine_matches_unfused_bit_for_bit(
        x0 in tensor_strategy(48, 40),
        w0 in tensor_strategy(40, 24),
        b0 in tensor_strategy(1, 24)
    ) {
        force_pool_dispatch();
        for act in ACTS {
            let mut reference: Option<Vec<u32>> = None;
            for &threads in &THREAD_COUNTS {
                pool::set_threads(threads);
                let fused = affine_tower_bits(&x0, &w0, &b0, act, Mode::Fused);
                let unfused = affine_tower_bits(&x0, &w0, &b0, act, Mode::Unfused);
                assert_eq!(
                    fused, unfused,
                    "fused {act:?} diverged from unfused at {threads} threads"
                );
                match &reference {
                    None => reference = Some(fused),
                    Some(expected) => assert_eq!(
                        expected, &fused,
                        "fused {act:?} not thread-count invariant at {threads} threads"
                    ),
                }
            }
            pool::set_threads(1);
        }
    }

    #[test]
    fn fused_row_norm_matches_unfused_bit_for_bit(x0 in tensor_strategy(130, 34)) {
        force_pool_dispatch();
        let mut reference: Option<Vec<u32>> = None;
        for &threads in &THREAD_COUNTS {
            pool::set_threads(threads);
            let run = |fused: bool| {
                let g = Graph::new();
                let x = g.leaf(x0.clone());
                let norm = if fused {
                    g.row_norm_eps(x, 1e-12)
                } else {
                    unfused_row_norm(&g, x, 1e-12)
                };
                let y = g.sum_all(norm);
                let dx = g.grad(y, &[x])[0];
                let mut out = bits(&g.value(norm));
                out.extend(bits(&g.value(dx)));
                out
            };
            let fused = run(true);
            let unfused = run(false);
            assert_eq!(fused, unfused, "row norm diverged at {threads} threads");
            match &reference {
                None => reference = Some(fused),
                Some(expected) => assert_eq!(expected, &fused, "not invariant at {threads}"),
            }
        }
        pool::set_threads(1);
    }
}

/// Central finite-difference check of a scalar-valued builder's gradient.
fn check_grad(build: impl Fn(&Graph, Var) -> Var, x0: Tensor, tol: f32) {
    let g = Graph::new();
    let x = g.leaf(x0.clone());
    let y = build(&g, x);
    assert_eq!(g.shape(y), (1, 1), "builder must produce a scalar");
    let dx = g.grad(y, &[x])[0];
    let analytic = g.value(dx);

    let eps = 1e-3f32;
    for i in 0..x0.len() {
        let eval = |delta: f32| {
            let mut moved = x0.clone();
            moved.as_mut_slice()[i] += delta;
            let gd = Graph::new();
            let v = gd.leaf(moved);
            let y = build(&gd, v);
            gd.value(y).item()
        };
        let numeric = (eval(eps) - eval(-eps)) / (2.0 * eps);
        let a = analytic.as_slice()[i];
        assert!(
            (a - numeric).abs() <= tol * (1.0 + numeric.abs()),
            "grad mismatch at {i}: analytic {a} vs numeric {numeric}"
        );
    }
}

#[test]
fn fused_affine_gradients_match_finite_differences() {
    let w0 = Tensor::from_fn(3, 2, |r, c| 0.3 * (r as f32) - 0.2 * (c as f32) + 0.1);
    let b0 = Tensor::row(&[0.05, -0.3]);
    for act in ACTS {
        let (w0, b0) = (w0.clone(), b0.clone());
        check_grad(
            move |g, x| {
                let w = g.leaf(w0.clone());
                let b = g.leaf(b0.clone());
                let h = g.affine_act(x, w, b, act);
                g.mean_all(g.mul(h, h))
            },
            Tensor::from_fn(4, 3, |r, c| 0.17 * (r as f32) - 0.23 * (c as f32) + 0.4),
            2e-2,
        );
    }
}

#[test]
fn fused_row_norm_gradient_matches_finite_differences() {
    check_grad(
        |g, x| {
            let n = g.row_norm_eps(x, 1e-6);
            g.sum_all(n)
        },
        Tensor::from_fn(3, 4, |r, c| 0.3 * (r as f32 + 1.0) + 0.11 * (c as f32) - 0.7),
        1e-2,
    );
}

#[test]
fn fused_affine_rejects_bad_shapes_and_zero_leaky_slope() {
    let g = Graph::new();
    let x = g.leaf(Tensor::zeros(2, 3));
    let w = g.leaf(Tensor::zeros(3, 2));
    let b = g.leaf(Tensor::zeros(1, 2));
    let bad_bias = g.leaf(Tensor::zeros(2, 2));
    assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        g.affine_act(x, w, bad_bias, FusedAct::Relu)
    }))
    .is_err());
    assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        g.affine_act(x, w, b, FusedAct::LeakyRelu(0.0))
    }))
    .is_err());
    assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        g.affine_act(w, x, b, FusedAct::Relu)
    }))
    .is_err());
    let ok = g.affine_act(x, w, b, FusedAct::LeakyRelu(0.2));
    assert_eq!(g.shape(ok), (2, 2));
}

/// The composed chain `bn_tail` replaces, from primitives: the bias add,
/// `mean_rows`, `sub`, `square`, `mean_rows`, `add_scalar`, `sqrt`, `div`,
/// `mul`, `add`, `relu` and `concat_cols` (running statistics as leaves).
/// Returns the output and the mean and variance it normalised with.
fn unfused_bn_tail(g: &Graph, x: Var, t: BnTail, stats: BnStats<'_>) -> (Var, Var, Var) {
    let h = match t.bias {
        Some(b) => g.add(x, b),
        None => x,
    };
    let (centred, mean, var) = match stats {
        BnStats::Batch => {
            let mean = g.mean_rows(h);
            let centred = g.sub(h, mean);
            (centred, mean, g.mean_rows(g.square(centred)))
        }
        BnStats::Running(m, v) => {
            let (mean, var) = (g.leaf(m.clone()), g.leaf(v.clone()));
            (g.sub(h, mean), mean, var)
        }
    };
    let denom = g.sqrt(g.add_scalar(var, t.eps));
    let out = g.add(g.mul(g.div(centred, denom), t.gamma), t.beta);
    let out = if t.relu { g.relu(out) } else { out };
    let out = match t.skip {
        Some(s) => g.concat_cols(&[out, s]),
        None => out,
    };
    (out, mean, var)
}

/// The operands of one batch-norm tail case. `product` is the normalised
/// input as given; with `weights` it is instead `skip · weights`, a
/// residual block's product, so the skip's gradient gathers both of its
/// contributions as in the generator.
#[derive(Clone)]
struct TailCase {
    product: Tensor,
    weights: Option<Tensor>,
    bias: Option<Tensor>,
    gamma: Tensor,
    beta: Tensor,
    skip: Option<Tensor>,
    relu: bool,
    /// `(mean, var)` for inference, none for training.
    running: Option<(Tensor, Tensor)>,
    /// The upstream gradient's weights: the loss is `Σ out ⊙ upstream`.
    upstream: Tensor,
}

/// The bits of `t`, every NaN as the one quiet NaN: Rust leaves the sign
/// and payload of a NaN an arithmetic operation produces unspecified, and
/// the optimiser may rewrite `a + (−b)` as `a − b`, which agree on every
/// other value, so that a NaN is one is all either chain guarantees.
fn bits_nan_as_one(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| if v.is_nan() { f32::NAN.to_bits() } else { v.to_bits() }).collect()
}

/// Forward, statistics and gradient bits of a tail case, fused or
/// composed: the output, the mean and the variance, then the gradients of
/// the product, the bias, γ, β, the skip and the weights (those present).
fn tail_bits(case: &TailCase, mode: Mode) -> Vec<u32> {
    let bits = bits_nan_as_one;
    let g = Graph::new();
    let skip = case.skip.as_ref().map(|s| g.leaf(s.clone()));
    let weights = case.weights.as_ref().map(|w| g.leaf(w.clone()));
    let product = match (skip, weights) {
        (Some(s), Some(w)) => g.matmul(s, w),
        _ => g.leaf(case.product.clone()),
    };
    let bias = case.bias.as_ref().map(|b| g.leaf(b.clone()));
    let t = BnTail {
        bias,
        gamma: g.leaf(case.gamma.clone()),
        beta: g.leaf(case.beta.clone()),
        eps: 1e-5,
        relu: case.relu,
        skip,
    };
    let stats = match &case.running {
        Some((m, v)) => BnStats::Running(m, v),
        None => BnStats::Batch,
    };
    let mut out = Vec::new();
    let y = match mode {
        Mode::Fused => {
            let (y, st) = g.bn_tail(product, t, stats);
            out.extend(bits(&g.value(y)));
            out.extend(bits(&g.value(st)));
            y
        }
        Mode::Unfused => {
            let (y, mean, var) = unfused_bn_tail(&g, product, t, stats);
            out.extend(bits(&g.value(y)));
            out.extend(bits(&g.value(mean)));
            out.extend(bits(&g.value(var)));
            y
        }
    };
    let loss = g.sum_all(g.mul(y, g.leaf(case.upstream.clone())));
    let mut wrt = vec![product];
    wrt.extend(bias);
    wrt.extend([t.gamma, t.beta]);
    wrt.extend(skip);
    wrt.extend(weights);
    for gr in g.grad(loss, &wrt) {
        out.extend(bits(&g.value(gr)));
    }
    out
}

/// Every combination of bias, ReLU, skip and statistics around `product`,
/// fused against composed at 1, 2 and 8 threads, and the fused bits the
/// same at each thread count.
fn assert_tail_matches(base: &TailCase) {
    force_pool_dispatch();
    let (rows, cols) = base.product.shape();
    let running = (
        Tensor::from_fn(1, cols, |_, c| 0.3 * c as f32 - 0.5),
        Tensor::from_fn(1, cols, |_, c| 0.2 + 0.15 * c as f32),
    );
    for variant in 0..16 {
        let mut case = base.clone();
        if variant & 1 == 0 {
            case.bias = None;
        }
        case.relu = variant & 2 != 0;
        if variant & 4 == 0 {
            case.skip = None;
            case.weights = None;
        }
        case.running = (variant & 8 != 0).then(|| running.clone());
        let out_cols = cols + case.skip.as_ref().map_or(0, Tensor::cols);
        case.upstream = Tensor::from_fn(rows, out_cols, |r, c| {
            base.upstream.as_slice()[(r * 7 + c) % base.upstream.len()]
        });
        let mut reference: Option<Vec<u32>> = None;
        for &threads in &THREAD_COUNTS {
            pool::set_threads(threads);
            let fused = tail_bits(&case, Mode::Fused);
            let unfused = tail_bits(&case, Mode::Unfused);
            assert_eq!(fused, unfused, "bn_tail variant {variant} diverged at {threads} threads");
            match &reference {
                None => reference = Some(fused),
                Some(expected) => {
                    assert_eq!(expected, &fused, "bn_tail variant {variant} at {threads} threads")
                }
            }
        }
        pool::set_threads(1);
    }
}

fn tail_case(product: Tensor, skip_cols: usize, seed: usize) -> TailCase {
    let (rows, cols) = product.shape();
    let wave = |r: usize, c: usize, k: usize| {
        (((r * 31 + c * 17 + k * 13 + seed) % 41) as f32) * 0.09 - 1.7
    };
    TailCase {
        weights: Some(Tensor::from_fn(skip_cols, cols, |r, c| wave(r, c, 1) * 0.4)),
        bias: Some(Tensor::from_fn(1, cols, |_, c| wave(0, c, 2))),
        gamma: Tensor::from_fn(1, cols, |_, c| wave(0, c, 3)),
        beta: Tensor::from_fn(1, cols, |_, c| wave(1, c, 4)),
        skip: Some(Tensor::from_fn(rows, skip_cols, |r, c| wave(r, c, 5))),
        relu: true,
        running: None,
        upstream: Tensor::from_fn(rows, cols + skip_cols, |r, c| wave(r, c, 6)),
        product,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn fused_bn_tail_matches_the_composed_chain_bit_for_bit(
        product in tensor_strategy(130, 21),
        seed in 0usize..1000
    ) {
        // 130 rows of 21 columns: two of `sum_rows`' row blocks, a width
        // off the lane multiple.
        assert_tail_matches(&tail_case(product, 6, seed));
    }
}

#[test]
fn fused_bn_tail_keeps_the_bits_at_the_edges() {
    // One row: a zero variance, every centred value ±0.
    assert_tail_matches(&tail_case(Tensor::from_fn(1, 5, |_, c| c as f32 - 2.0), 3, 1));
    // A constant column, signed zeros, infinities and a NaN, 12 wide.
    let specials = [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 1e-30, -3.5];
    let product = Tensor::from_fn(9, 12, |r, c| match c {
        0 => 2.5,
        1 => -0.0,
        2 | 3 => specials[(r + c) % specials.len()],
        _ => (r * 5 + c) as f32 * 0.37 - 4.0,
    });
    let mut case = tail_case(product, 4, 2);
    let gamma = case.gamma.as_mut_slice();
    (gamma[5], gamma[6]) = (-0.0, 0.0);
    case.beta.as_mut_slice()[7] = -0.0;
    assert_tail_matches(&case);
    // A NaN and an infinity in the upstream gradient.
    let mut case = tail_case(Tensor::from_fn(17, 9, |r, c| (r * 3 + c) as f32 * 0.21 - 2.0), 2, 3);
    case.upstream.as_mut_slice()[4] = f32::NAN;
    case.upstream.as_mut_slice()[20] = f32::INFINITY;
    assert_tail_matches(&case);
}

#[test]
fn fused_bn_tail_gradients_match_finite_differences() {
    let (rows, cols) = (6, 3);
    let upstream = Tensor::from_fn(rows, cols + 2, |r, c| 0.3 * r as f32 - 0.45 * c as f32 + 0.1);
    let skip = Tensor::from_fn(rows, 2, |r, c| 0.2 * r as f32 + 0.3 * c as f32);
    let running = (Tensor::row(&[0.1, -0.2, 0.3]), Tensor::row(&[0.5, 1.5, 0.8]));
    for (relu, train) in [(false, true), (true, false)] {
        let (upstream, skip, running) = (upstream.clone(), skip.clone(), running.clone());
        check_grad(
            move |g, x| {
                let t = BnTail {
                    bias: Some(g.leaf(Tensor::row(&[0.05, -0.3, 0.2]))),
                    gamma: g.leaf(Tensor::row(&[1.3, -0.7, 0.4])),
                    beta: g.leaf(Tensor::row(&[0.2, 0.5, -0.1])),
                    eps: 1e-5,
                    relu,
                    skip: Some(g.leaf(skip.clone())),
                };
                let stats =
                    if train { BnStats::Batch } else { BnStats::Running(&running.0, &running.1) };
                let (y, _) = g.bn_tail(x, t, stats);
                g.sum_all(g.mul(y, g.leaf(upstream.clone())))
            },
            Tensor::from_fn(rows, cols, |r, c| {
                0.37 * r as f32 - 0.21 * c as f32 + 0.05 * (r * c) as f32 + 1.0
            }),
            2e-2,
        );
    }
}

#[test]
#[should_panic(expected = "bn_tail gradient is first order only")]
fn a_bn_tail_gradient_is_not_differentiated_again() {
    let g = Graph::new();
    let x = g.leaf(Tensor::from_fn(4, 3, |r, c| (r * 3 + c) as f32 * 0.3 - 1.0));
    let t = BnTail {
        bias: None,
        gamma: g.leaf(Tensor::ones(1, 3)),
        beta: g.leaf(Tensor::zeros(1, 3)),
        eps: 1e-5,
        relu: true,
        skip: None,
    };
    let (y, _) = g.bn_tail(x, t, BnStats::Batch);
    let y = g.sum_all(g.mul(y, y));
    let dx = g.grad(y, &[x])[0];
    let _ = g.grad(g.sum_all(g.mul(dx, dx)), &[x]);
}

// --- the output head (`span_act`) -------------------------------------------

/// A value in `[-1, 1)` from an integer hash, exact in `f32`.
fn hashed(stream: u64, i: usize) -> f32 {
    let mut z = ((stream << 32) | i as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z >> 40) as f32 * (1.0 / 8_388_608.0) - 1.0
}

/// Spans from `(width, softmax)` pairs, tiling the columns in order.
fn layout(parts: &[(usize, bool)]) -> Vec<HeadSpan> {
    let mut start = 0;
    parts
        .iter()
        .map(|&(width, softmax)| {
            let act = if softmax { SpanAct::GumbelSoftmax } else { SpanAct::Tanh };
            let span = HeadSpan { start, width, act };
            start += width;
            span
        })
        .collect()
}

/// α-only, indicator-only (with a width-1 indicator), and mixed heads, the
/// last with a span wider than a lane group.
fn head_layouts() -> Vec<Vec<HeadSpan>> {
    vec![
        layout(&[(1, false), (1, false), (2, false)]),
        layout(&[(3, true), (1, true), (5, true)]),
        layout(&[(1, false), (4, true), (1, false), (2, true), (1, true), (2, false), (11, true)]),
    ]
}

fn noise_width(spans: &[HeadSpan]) -> usize {
    spans.iter().filter(|s| s.act == SpanAct::GumbelSoftmax).map(|s| s.width).sum()
}

/// Uniforms in `(0, 1)`, the extremes `ε` and `1 − 2⁻²⁴` included.
fn uniforms(rows: usize, cols: usize, stream: u64) -> Tensor {
    Tensor::from_fn(rows, cols, |r, c| match (r * cols + c) % 17 {
        3 => f32::EPSILON,
        11 => 1.0 - 1.0 / 16_777_216.0,
        _ => (hashed(stream, r * cols + c) * 0.5 + 0.5).max(f32::EPSILON),
    })
}

/// The composed chain `span_act` replaces: per span `slice_cols`, then
/// `tanh`, or the Gumbel noise added as a leaf, `mul_scalar(1/τ)` and
/// `softmax_rows`; then `concat_cols`.
fn composed_head(g: &Graph, x: Var, spans: &[HeadSpan], tau: f32, u: &Tensor) -> Var {
    let mut parts = Vec::new();
    let mut at = 0;
    for s in spans {
        let piece = g.slice_cols(x, s.start, s.width);
        parts.push(match s.act {
            SpanAct::Tanh => g.tanh(piece),
            SpanAct::GumbelSoftmax => {
                let noise = g.leaf(u.slice_cols(at, s.width).map(simd::gumbel));
                at += s.width;
                g.softmax_rows(g.mul_scalar(g.add(piece, noise), 1.0 / tau))
            }
        });
    }
    g.concat_cols(&parts)
}

/// The head's output and the gradient of `Σ y⊙w` towards the logits, by
/// the node or by the chain.
fn head_run(x0: &Tensor, spans: &[HeadSpan], u: &Tensor, fused: bool) -> (Tensor, Tensor) {
    let g = Graph::new();
    let x = g.leaf(x0.clone());
    let y = if fused {
        g.span_act(x, spans, 0.2, u.clone())
    } else {
        composed_head(&g, x, spans, 0.2, u)
    };
    let (rows, cols) = x0.shape();
    let w = g.leaf(Tensor::from_fn(rows, cols, |r, c| hashed(900, r * cols + c) * 2.0));
    let dx = g.grad(g.sum_all(g.mul(y, w)), &[x])[0];
    (g.value(y), g.value(dx))
}

/// Largest `|a − b| / (1 + |b|)` over the elements.
fn worst_gap(a: &Tensor, b: &Tensor) -> f32 {
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .fold(0.0, |m, (&a, &b)| m.max((a - b).abs() / (1.0 + b.abs())))
}

/// The backward tolerance against the chain, relative as [`worst_gap`]
/// measures it. Measured: at most 1.4e-6 over the cases below (the closed
/// form and the chain's adjoints round differently), 9e-7 with non-finite
/// logits.
const HEAD_GRAD_TOL: f32 = 4e-6;

#[test]
fn span_act_is_the_composed_chain_forward_and_close_to_it_backward() {
    force_pool_dispatch();
    for spans in head_layouts() {
        let cols = spans.iter().map(|s| s.width).sum::<usize>();
        for rows in [1, 13, 150] {
            let x0 = Tensor::from_fn(rows, cols, |r, c| hashed(901, r * cols + c) * 3.0);
            let u = uniforms(rows, noise_width(&spans), 902);
            let (y_chain, dx_chain) = head_run(&x0, &spans, &u, false);
            for threads in THREAD_COUNTS {
                pool::set_threads(threads);
                let (y, dx) = head_run(&x0, &spans, &u, true);
                assert_eq!(bits(&y), bits(&y_chain), "{spans:?}, {rows} rows, {threads} threads");
                let gap = worst_gap(&dx, &dx_chain);
                assert!(gap <= HEAD_GRAD_TOL, "{spans:?}, {rows} rows: gradient gap {gap:e}");
            }
        }
    }
    pool::set_threads(1);
}

#[test]
fn span_act_with_non_finite_logits_matches_the_chain() {
    let spans = layout(&[(1, false), (3, true), (1, false), (1, true), (4, true), (2, true)]);
    let cols = 12;
    let specials = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 0.5, -0.0, 80.0];
    for (i, &special) in specials.iter().enumerate() {
        // Each row puts the special value at another column.
        let x0 = Tensor::from_fn(7, cols, |r, c| {
            if (r + i) % cols == c || (r * 5 + i) % cols == c {
                special
            } else {
                hashed(903, r * cols + c) * 3.0
            }
        });
        let u = uniforms(7, noise_width(&spans), 904);
        let (y_chain, dx_chain) = head_run(&x0, &spans, &u, false);
        let (y, dx) = head_run(&x0, &spans, &u, true);
        assert_eq!(bits_nan_as_one(&y), bits_nan_as_one(&y_chain), "logit {special}");
        for (e, (&a, &b)) in dx.as_slice().iter().zip(dx_chain.as_slice()).enumerate() {
            assert_eq!(a.is_nan(), b.is_nan(), "logit {special}, element {e}: {a:e} vs {b:e}");
            if !b.is_nan() {
                assert!((a - b).abs() <= HEAD_GRAD_TOL * (1.0 + b.abs()), "{a:e} vs {b:e}");
            }
        }
    }
}

/// The head in `f64`: `Σ w⊙y` with the same Gumbel noise the node adds.
fn head_f64(x: &[f64], cols: usize, spans: &[HeadSpan], noise: &[f64], w: &[f64]) -> f64 {
    let noise_cols = noise_width(spans);
    let mut total = 0.0;
    for (r, xr) in x.chunks_exact(cols).enumerate() {
        let mut at = 0;
        for s in spans {
            let xs = &xr[s.start..s.start + s.width];
            let ws = &w[r * cols + s.start..][..s.width];
            match s.act {
                SpanAct::Tanh => total += xs.iter().zip(ws).map(|(x, w)| w * x.tanh()).sum::<f64>(),
                SpanAct::GumbelSoftmax => {
                    let z: Vec<f64> = xs
                        .iter()
                        .zip(&noise[r * noise_cols + at..])
                        .map(|(x, g)| (x + g) / 0.2)
                        .collect();
                    let max = z.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                    let e: Vec<f64> = z.iter().map(|z| (z - max).exp()).collect();
                    let sum: f64 = e.iter().sum();
                    total += e.iter().zip(ws).map(|(e, w)| w * e / sum).sum::<f64>();
                    at += s.width;
                }
            }
        }
    }
    total
}

/// The node's `f32` gradient against central differences of the head
/// computed in `f64`, relative as [`worst_gap`] measures it: at most 8.1e-7
/// measured, 1e-5 asserted.
#[test]
fn span_act_gradient_matches_f64_central_differences() {
    for spans in head_layouts() {
        let cols = spans.iter().map(|s| s.width).sum::<usize>();
        let rows = 3;
        let x0 = Tensor::from_fn(rows, cols, |r, c| hashed(905, r * cols + c) * 1.5);
        let u = uniforms(rows, noise_width(&spans), 906);
        let (_, dx) = head_run(&x0, &spans, &u, true);
        let noise: Vec<f64> = u.as_slice().iter().map(|&u| f64::from(simd::gumbel(u))).collect();
        let w: Vec<f64> = (0..rows * cols).map(|i| f64::from(hashed(900, i) * 2.0)).collect();
        let x: Vec<f64> = x0.as_slice().iter().map(|&v| f64::from(v)).collect();
        let h = 1e-6;
        for i in 0..x.len() {
            let at = |d: f64| {
                let mut moved = x.clone();
                moved[i] += d;
                head_f64(&moved, cols, &spans, &noise, &w)
            };
            let numeric = (at(h) - at(-h)) / (2.0 * h);
            let a = f64::from(dx.as_slice()[i]);
            assert!(
                (a - numeric).abs() <= 1e-5 * (1.0 + numeric.abs()),
                "{spans:?}, element {i}: analytic {a:e} vs numeric {numeric:e}"
            );
        }
    }
}

#[test]
fn span_act_rejects_spans_that_do_not_tile_and_misshapen_uniforms() {
    let g = Graph::new();
    let x = g.leaf(Tensor::zeros(2, 4));
    let spans = layout(&[(1, false), (3, true)]);
    let attempt = |spans: &[HeadSpan], u: Tensor, tau: f32| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| g.span_act(x, spans, tau, u)))
            .is_err()
    };
    assert!(attempt(&spans[1..], Tensor::zeros(2, 3), 0.2), "a gap before the first span");
    assert!(attempt(&spans[..1], Tensor::zeros(2, 0), 0.2), "columns left over");
    assert!(attempt(&spans, Tensor::zeros(2, 4), 0.2), "uniforms one column too wide");
    assert!(attempt(&spans, Tensor::zeros(2, 3), 0.0), "a zero temperature");
    let ok = g.span_act(x, &spans, 0.2, Tensor::full(2, 3, 0.5));
    assert_eq!(g.shape(ok), (2, 4));
}

#[test]
#[should_panic(expected = "span_act gradient is first order only")]
fn a_span_act_gradient_is_not_differentiated_again() {
    let g = Graph::new();
    let x = g.leaf(Tensor::from_fn(3, 4, |r, c| (r * 4 + c) as f32 * 0.3 - 1.0));
    let y = g.span_act(x, &layout(&[(1, false), (3, true)]), 0.2, Tensor::full(3, 3, 0.5));
    let y = g.sum_all(g.mul(y, y));
    let dx = g.grad(y, &[x])[0];
    let _ = g.grad(g.sum_all(g.mul(dx, dx)), &[x]);
}
