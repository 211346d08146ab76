//! The generator's noise, in distribution and in bits.
//!
//! Distribution checks at fixed seeds, each bound five standard errors of
//! its statistic (or, for the Kolmogorov–Smirnov distance, the distance
//! exceeded with probability below `6·10⁻⁷`): `Tensor::randn`'s mean,
//! variance and KS distance against `Φ`; the Gumbel transform's mean `γ`
//! and variance `π²/6` on both uniform sources (the step RNG and the
//! per-row substreams); the output head's Gumbel-max frequencies; and the
//! dropout mask's keep rate and scale.
//!
//! Then the bits: FNV-1a hashes of normal draws, of the output head under
//! both uniform sources and of dropout masks, taken on a baseline x86-64
//! build and checked at both build levels by `tools/ci.sh`.

use gtv_nn::{head_activations, row_seed, Ctx, Dropout};
use gtv_tensor::{Graph, HeadSpan, SpanAct, Tensor, UnaryOp};
use rand::SeedableRng;

/// Draws per distribution check.
const N: usize = 200_000;

/// Euler–Mascheroni: the standard Gumbel's mean.
const EULER_GAMMA: f64 = 0.577_215_664_901_532_9;

/// Mean and variance (the unbiased estimate) in `f64`.
fn moments(xs: &[f32]) -> (f64, f64) {
    let n = xs.len() as f64;
    let mean = xs.iter().map(|&v| f64::from(v)).sum::<f64>() / n;
    let var = xs.iter().map(|&v| (f64::from(v) - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, var)
}

/// Asserts mean and variance within five standard errors of a law with
/// variance `var` and excess kurtosis `kurt`.
fn assert_moments(what: &str, xs: &[f32], mean: f64, var: f64, kurt: f64) {
    let (m, v) = moments(xs);
    let n = xs.len() as f64;
    let mean_bound = 5.0 * (var / n).sqrt();
    let var_bound = 5.0 * var * ((2.0 + kurt) / n).sqrt();
    assert!((m - mean).abs() <= mean_bound, "{what}: mean {m} vs {mean} ± {mean_bound}");
    assert!((v - var).abs() <= var_bound, "{what}: variance {v} vs {var} ± {var_bound}");
}

/// `erfc` by Numerical Recipes' Chebyshev fit, relative error below
/// `1.2·10⁻⁷` everywhere: far inside the KS bound below.
fn erfc(z: f64) -> f64 {
    let t = 1.0 / (1.0 + 0.5 * z.abs());
    let poly = [
        -1.265_512_23,
        1.000_023_68,
        0.374_091_96,
        0.096_784_18,
        -0.186_288_06,
        0.278_868_07,
        -1.135_203_98,
        1.488_515_87,
        -0.822_152_23,
        0.170_872_77,
    ];
    let series = poly.iter().rev().fold(0.0, |acc, &c| acc * t + c);
    let ans = t * (-z * z + series).exp();
    if z >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// The standard normal CDF.
fn phi(x: f64) -> f64 {
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

#[test]
fn normal_draws_have_the_standard_normal_law() {
    #[expect(clippy::disallowed_methods, reason = "a literal test seed")]
    let mut rng = rand::rngs::StdRng::seed_from_u64(2024);
    let z = Tensor::randn(N / 500, 500, &mut rng);
    assert_moments("randn", z.as_slice(), 0.0, 1.0, 0.0);
    let mut sorted: Vec<f64> = z.as_slice().iter().map(|&v| f64::from(v)).collect();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len() as f64;
    let ks = sorted.iter().enumerate().fold(0.0f64, |d, (i, &x)| {
        let f = phi(x);
        d.max((f - i as f64 / n).abs()).max(((i + 1) as f64 / n - f).abs())
    });
    // P(D > d) ≈ 2·exp(−2·n·d²) = 6·10⁻⁷.
    let bound = ((2.0f64 / 6e-7).ln() / (2.0 * n)).sqrt();
    assert!(ks <= bound, "KS distance {ks} against Φ exceeds {bound}");
}

/// `−ln(−ln u)` through the graph's lane kernels: the head's Gumbel
/// transform, operation for operation.
fn gumbel(u: &Tensor) -> Tensor {
    u.apply(UnaryOp::Ln).apply(UnaryOp::Neg).apply(UnaryOp::Ln).apply(UnaryOp::Neg)
}

#[test]
fn gumbel_noise_has_the_standard_gumbel_law_from_both_sources() {
    // The standard Gumbel: variance π²/6, excess kurtosis 12/5.
    let var = std::f64::consts::PI.powi(2) / 6.0;
    let g = Graph::new();
    let from_rng = gumbel(&Ctx::train(&g, 77).uniform_noise(N / 500, 500));
    assert_moments("step RNG", from_rng.as_slice(), EULER_GAMMA, var, 2.4);
    let seeds: Vec<u64> = (0..N as u64 / 500).map(|r| row_seed(91, r)).collect();
    let from_rows = gumbel(&Ctx::eval_rows(&g, seeds).uniform_noise(N / 500, 500));
    assert_moments("row substreams", from_rows.as_slice(), EULER_GAMMA, var, 2.4);
}

#[test]
fn the_head_samples_each_category_at_its_softmax_probability() {
    // Gumbel-max: the argmax of `x + g` is category `i` with probability
    // `softmax(x)_i`, and the tempered softmax keeps the argmax. A
    // three-level category behind an α and a width-1 indicator.
    let probs = [0.2f64, 0.3, 0.5];
    let spans = [
        HeadSpan { start: 0, width: 1, act: SpanAct::Tanh },
        HeadSpan { start: 1, width: 1, act: SpanAct::GumbelSoftmax },
        HeadSpan { start: 2, width: 3, act: SpanAct::GumbelSoftmax },
    ];
    let rows = N / 2;
    let logits: Vec<f32> = probs.iter().map(|p| p.ln() as f32).collect();
    let x = Tensor::from_fn(rows, 5, |_, c| if c < 2 { 0.5 } else { logits[c - 2] });
    let seeds: Vec<u64> = (0..rows as u64).map(|r| row_seed(5, r)).collect();
    for (what, seed) in [("step RNG", None), ("row substreams", Some(seeds))] {
        let g = Graph::new();
        let ctx = match seed {
            None => Ctx::train(&g, 13),
            Some(seeds) => Ctx::eval_rows(&g, seeds),
        };
        let y = g.value(head_activations(&ctx, g.leaf(x.clone()), &spans, 0.2));
        let mut hits = [0usize; 3];
        for r in 0..rows {
            let cat = y.row_slice(r)[2..].to_vec();
            assert_eq!(y.at(r, 1), 1.0, "{what}: a width-1 indicator is 1");
            let best = (0..3).fold(0, |b, i| if cat[i] > cat[b] { i } else { b });
            hits[best] += 1;
        }
        for (i, &p) in probs.iter().enumerate() {
            let freq = hits[i] as f64 / rows as f64;
            let bound = 5.0 * (p * (1.0 - p) / rows as f64).sqrt();
            assert!((freq - p).abs() <= bound, "{what}: category {i} drawn {freq}, want {p}");
        }
    }
}

#[test]
fn dropout_keeps_at_its_rate_and_scales_exactly() {
    for p in [0.5f32, 0.3] {
        let g = Graph::new();
        let ctx = Ctx::train(&g, 31);
        let y = g.value(Dropout::new(p).forward(&ctx, g.leaf(Tensor::ones(N / 500, 500))));
        let keep = 1.0 - p;
        let scale = 1.0 / keep;
        let kept = y.as_slice().iter().filter(|&&v| v != 0.0).count();
        for &v in y.as_slice() {
            assert!(
                v.to_bits() == 0 || v == scale,
                "p = {p}: a mask element {v}, not 0 or {scale}"
            );
        }
        let rate = kept as f64 / N as f64;
        let k = f64::from(keep);
        let bound = 5.0 * (k * (1.0 - k) / N as f64).sqrt();
        assert!((rate - k).abs() <= bound, "p = {p}: kept {rate}, want {k} ± {bound}");
    }
}

/// FNV-1a over the little-endian bit patterns of `values`.
fn fnv(values: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn noise_bits_are_the_baseline_builds() {
    #[expect(clippy::disallowed_methods, reason = "a literal test seed")]
    let mut rng = rand::rngs::StdRng::seed_from_u64(12);
    let normal = Tensor::randn(61, 33, &mut rng);
    // A head of every span kind over logits in about ±3.
    let spans = [
        HeadSpan { start: 0, width: 1, act: SpanAct::Tanh },
        HeadSpan { start: 1, width: 6, act: SpanAct::GumbelSoftmax },
        HeadSpan { start: 7, width: 1, act: SpanAct::GumbelSoftmax },
        HeadSpan { start: 8, width: 11, act: SpanAct::GumbelSoftmax },
        HeadSpan { start: 19, width: 2, act: SpanAct::Tanh },
    ];
    let x = Tensor::from_fn(45, 21, |r, c| ((r * 37 + c * 11) % 61) as f32 / 10.0 - 3.0);
    let head = |ctx: &Ctx<'_>| {
        let g = ctx.graph();
        let y = head_activations(ctx, g.leaf(x.clone()), &spans, 0.2);
        fnv(g.value(y).as_slice())
    };
    let g = Graph::new();
    let trained = head(&Ctx::train(&g, 3));
    let served = head(&Ctx::eval_rows(&g, (0..45).map(|r| row_seed(8, r)).collect()));
    let masks = [0.5f32, 0.3].map(|p| {
        let ctx = Ctx::train(&g, 4);
        fnv(g.value(Dropout::new(p).forward(&ctx, g.leaf(Tensor::ones(45, 21)))).as_slice())
    });
    let got = [fnv(normal.as_slice()), trained, served, masks[0], masks[1]];
    let want = [
        0x9919_ab5d_533c_ca0fu64,
        0x9d89_f78d_d865_b540,
        0x8375_6ab5_1c72_e589,
        0x4d46_a458_055d_f5f5,
        0x033f_3d61_7718_cab5,
    ];
    assert_eq!(got, want, "got {got:#018x?}");
}
