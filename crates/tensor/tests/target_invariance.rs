//! No output bit depends on the build level (DESIGN.md §8).
//!
//! The repository builds for x86-64-v3 (`.cargo/config.toml`), where an
//! `F32x8` is one 256-bit register instead of two SSE ones. rustc never
//! contracts `a*b + c` into an FMA and every lane grouping and reduction
//! order in `simd.rs` is written out, so the wider register changes how
//! many instructions run, not what they compute. This file makes that a
//! checked property: every literal below is the FNV-1a hash of a kernel's
//! output bits taken on a **baseline x86-64** build of the commit before
//! the build level moved, and `tools/ci.sh` runs the file at both levels.
//!
//! (The `f64` lanes of the encoder fit came after the build level moved;
//! their literals are of a baseline build of the commit that added them.)
//!
//! Inputs come from an integer hash through exact float arithmetic only —
//! no libm call, whose result is the host's, not the build's. NaNs are
//! folded onto one pattern before hashing: IEEE leaves a NaN result's sign
//! and payload open, and on x86 they follow operand order, which the
//! compiler may commute.

use gtv_tensor::{simd, FusedAct, Graph, Tensor, UnaryOp};

/// FNV-1a over the little-endian bit patterns of `values`, NaNs folded.
fn fnv(values: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        let bits = if v.is_nan() { f32::NAN.to_bits() } else { v.to_bits() };
        for byte in bits.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Element `i` of stream `stream`: a splitmix64 hash mapped onto
/// `[-1, 1)` in steps of 2⁻²³ — every step exact in f32.
fn value(stream: u64, i: usize) -> f32 {
    let mut z = ((stream << 32) | i as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z >> 40) as f32 * (1.0 / 8_388_608.0) - 1.0
}

/// [`fnv`] for `f64` values.
fn fnv_f64(values: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        let bits = if v.is_nan() { f64::NAN.to_bits() } else { v.to_bits() };
        for byte in bits.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn dense(stream: u64, rows: usize, cols: usize) -> Tensor {
    Tensor::from_fn(rows, cols, |r, c| value(stream, r * cols + c))
}

/// What the LHS rows of a matmul case look like.
#[derive(Clone, Copy)]
enum Lhs {
    /// No exact zeros: every row takes the register tile.
    Dense,
    /// Row `i` is about `10·(i % 10)`% zeros — dense runs of every length
    /// cut by zero-skipping rows.
    Banded,
    /// One non-zero per row: every row skips its zeros against a wide,
    /// finite RHS.
    OneHot,
}

fn lhs(kind: Lhs, stream: u64, n: usize, k: usize) -> Tensor {
    Tensor::from_fn(n, k, |r, c| {
        let zero = match kind {
            Lhs::Dense => false,
            Lhs::Banded => (c * 7 + r) % 10 < r % 10,
            Lhs::OneHot => c != (r * 5) % k,
        };
        if zero {
            0.0
        } else {
            value(stream, r * k + c)
        }
    })
}

/// A RHS with NaN, ±∞ and −0.0 sprinkled in: the finite-RHS gate must keep
/// `0·NaN` and `0·∞` in the product.
fn non_finite_rhs(stream: u64, k: usize, m: usize) -> Tensor {
    Tensor::from_fn(k, m, |r, c| match (r * m + c) % 23 {
        3 => f32::NAN,
        11 => f32::INFINITY,
        17 => f32::NEG_INFINITY,
        19 => -0.0,
        _ => value(stream, r * m + c),
    })
}

#[test]
fn matmul_bits_are_the_baseline_builds() {
    // (n, k, m, LHS, non-finite RHS, hash). Ragged tiles in both directions,
    // `m ∈ {1, 8, 16, 17}`, an empty contraction, the 32-row block boundary,
    // `col_chains` groups of 16 and shorter, both row kernels in one product.
    let cases: [(usize, usize, usize, Lhs, bool, u64); 13] = [
        (1, 33, 21, Lhs::Dense, false, 0x7551_d382_0b04_980b),
        (8, 40, 8, Lhs::Dense, false, 0x4fd4_a795_7b6b_bd1d),
        (16, 64, 16, Lhs::Dense, false, 0xa386_1b13_7f23_06db),
        (17, 64, 17, Lhs::Dense, false, 0xf3fc_4c08_9996_42d5),
        (9, 40, 1, Lhs::Dense, false, 0x2ec4_ffae_1ba7_e794),
        (35, 19, 1, Lhs::Banded, false, 0x2cf9_90f7_798d_ea0d),
        (7, 0, 5, Lhs::Dense, false, 0x7b71_c07e_2c06_0e95),
        (33, 70, 35, Lhs::Banded, false, 0x9977_6cfa_e764_99b1),
        (17, 48, 48, Lhs::OneHot, false, 0xdf44_6fb0_6275_45d0),
        (17, 48, 48, Lhs::OneHot, true, 0x9c5c_aabd_ad6e_b2a5),
        (8, 37, 40, Lhs::Dense, true, 0x0229_85b2_d168_9525),
        (50, 256, 130, Lhs::Banded, false, 0x672a_91ed_9503_cf99),
        (64, 49, 256, Lhs::OneHot, false, 0x1269_9758_e138_5fcd),
    ];
    let got: Vec<u64> = cases
        .iter()
        .enumerate()
        .map(|(i, &(n, k, m, kind, non_finite, _))| {
            let a = lhs(kind, 2 * i as u64, n, k);
            let b = if non_finite {
                non_finite_rhs(2 * i as u64 + 1, k, m)
            } else {
                dense(2 * i as u64 + 1, k, m)
            };
            fnv(a.matmul(&b).as_slice())
        })
        .collect();
    let want: Vec<u64> = cases.iter().map(|c| c.5).collect();
    assert_eq!(got, want, "got {got:#018x?}");
}

#[test]
fn affine_act_bits_are_the_baseline_builds() {
    let g = Graph::new();
    // Pre-activations of a 33-term sum spread over about ±6: both sides of
    // every activation's knee and of the tanh clamp's approach.
    let x = g.leaf(dense(100, 17, 33).mul_scalar(2.5));
    let w = g.leaf(dense(101, 33, 21));
    let b = g.leaf(dense(102, 1, 21));
    let acts = [FusedAct::Relu, FusedAct::Tanh, FusedAct::Sigmoid, FusedAct::LeakyRelu(0.2)];
    let got: Vec<u64> = acts
        .iter()
        .map(|&act| g.with_value(g.affine_act(x, w, b, act), |t| fnv(t.as_slice())))
        .collect();
    let want = [
        0xe9ab_5613_ab7e_87edu64,
        0xfaf0_a895_eae2_8d4e,
        0xc00d_b99c_1523_b675,
        0xca2e_441b_8f24_c0b9,
    ];
    assert_eq!(got, want, "got {got:#018x?}");
}

/// The IEEE edge inventory of `simd_math.rs`.
const EDGES: [f32; 20] = [
    0.0,
    -0.0,
    f32::MIN_POSITIVE,
    -f32::MIN_POSITIVE,
    f32::from_bits(1),
    f32::from_bits(0x8000_0001),
    f32::from_bits(0x007f_ffff),
    1e-20,
    -1e-20,
    3.9e-4,
    4.1e-4,
    7.9,
    8.0,
    -88.0,
    88.7,
    f32::INFINITY,
    f32::NEG_INFINITY,
    f32::NAN,
    f32::MAX,
    f32::MIN,
];

#[test]
fn transcendental_bits_are_the_baseline_builds() {
    // 64 Ki points `-24 + i·48/65536` (exact: 48/65536 = 3·2⁻¹²), then the
    // edges; 65 556 elements, so the last four go through the splat tail.
    let mut xs: Vec<f32> = (0..65_536).map(|i| i as f32 * (48.0 / 65_536.0) - 24.0).collect();
    xs.extend_from_slice(&EDGES);
    let n = xs.len();
    let grid = Tensor::from_vec(1, n, xs);
    // exp over ±96 instead, past both of its saturation knees.
    let mut wide: Vec<f32> = grid.as_slice()[..65_536].iter().map(|v| v * 4.0).collect();
    wide.extend_from_slice(&EDGES);
    let wide = Tensor::from_vec(1, n, wide);
    let got = [
        fnv(grid.apply(UnaryOp::Tanh).as_slice()),
        fnv(grid.apply(UnaryOp::Sigmoid).as_slice()),
        fnv(wide.apply(UnaryOp::Exp).as_slice()),
    ];
    let want = [0xfaa8_309f_153b_5e97u64, 0xee1e_cead_1b4b_c1e6, 0xe4dd_4358_d48c_b26e];
    assert_eq!(got, want, "got {got:#018x?}");
}

#[test]
fn f64_lane_bits_are_the_baseline_builds() {
    // exp: 64 Ki points `-745 + i·91/4096` (exact) — from libm's last
    // subnormal result, through the flush point, to past the overflow — then
    // the edges; 65 551 elements, so the last three take the splat tail.
    let mut xs: Vec<f64> = (0..65_536).map(|i| f64::from(i) * (91.0 / 4096.0) - 745.0).collect();
    xs.extend([
        0.0,
        -0.0,
        f64::from_bits(1),
        -f64::MIN_POSITIVE,
        simd::EXP_F64_FLUSH,
        f64::from_bits(simd::EXP_F64_FLUSH.to_bits() + 1),
        709.782_712_893_384,
        709.782_712_893_384_1,
        -1e300,
        1e300,
        f64::MAX,
        f64::MIN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ]);
    simd::exp_slice_f64(&mut xs);
    // Weighted moments: 1 003 rows in blocks of 256 — three full blocks and
    // one of 235 rows, whose last three go to the sequential tail.
    let column =
        |stream: u64| -> Vec<f64> { (0..1_003).map(|i| f64::from(value(stream, i))).collect() };
    let (p, scale, x) = (column(400), column(401), column(402));
    let mut moments = simd::WeightedMoments::default();
    for start in (0..p.len()).step_by(256) {
        let end = (start + 256).min(p.len());
        moments.add_block(&p[start..end], &scale[start..end], &x[start..end]);
    }
    let got = [fnv_f64(&xs), fnv_f64(&moments.totals())];
    let want = [0x52f7_f159_a536_06f7u64, 0xc18d_1145_3e9f_d72c];
    assert_eq!(got, want, "got {got:#018x?}");
}

#[test]
fn reduction_bits_are_the_baseline_builds() {
    // Every length 0..=40: no group, one to five groups, every tail length.
    let xs: Vec<f32> = (0..40).map(|i| value(200, i) * 3.0).collect();
    let sums: Vec<f32> = (0..=40).map(|len| simd::sum(&xs[..len])).collect();
    let squares: Vec<f32> = (0..=40).map(|len| simd::sum_squares(&xs[..len])).collect();
    // And through the chunked tree: three reduction leaves, the last ragged.
    let long = dense(201, 1, 10_003);
    let tree = [long.sum_all().item(), long.frob_norm()];
    let got = [fnv(&sums), fnv(&squares), fnv(&tree)];
    let want = [0x5c21_27bd_733e_1ac2u64, 0xc21e_ea09_db99_da5e, 0x937d_a9fc_4d5e_e5f1];
    assert_eq!(got, want, "got {got:#018x?}");
}

#[test]
fn d_step_bits_are_the_baseline_builds() {
    // A critic step in miniature: two fused leaky blocks with a dropout mask
    // between them and a one-column score head, on real, fake and
    // interpolated rows; the WGAN-GP penalty is the norm of a first-order
    // gradient, differentiated again towards the weights.
    let (batch, width, hidden) = (24, 20, 32);
    let g = Graph::new();
    let w1 = g.leaf(dense(300, width, hidden).mul_scalar(0.25));
    let b1 = g.leaf(dense(301, 1, hidden).mul_scalar(0.25));
    let w2 = g.leaf(dense(302, hidden, hidden).mul_scalar(0.25));
    let b2 = g.leaf(dense(303, 1, hidden).mul_scalar(0.25));
    let w3 = g.leaf(dense(304, hidden, 1).mul_scalar(0.25));
    let b3 = g.leaf(dense(305, 1, 1));
    let mask = g.leaf(Tensor::from_fn(batch, hidden, |r, c| {
        if value(306, r * hidden + c) < 0.0 {
            0.0
        } else {
            2.0
        }
    }));
    let critic = |x| {
        let h = g.affine_act(x, w1, b1, FusedAct::LeakyRelu(0.2));
        let h = g.affine_act(g.mul(h, mask), w2, b2, FusedAct::LeakyRelu(0.2));
        g.add(g.matmul(h, w3), b3)
    };
    let real = dense(307, batch, width);
    let fake = dense(308, batch, width);
    let eps = Tensor::from_fn(batch, 1, |r, _| value(309, r) * 0.5 + 0.5);
    let hat = g.leaf(real.mul(&eps).add(&fake.mul(&eps.map(|v| 1.0 - v))));
    let (y_real, y_fake, y_hat) = (critic(g.leaf(real)), critic(g.leaf(fake)), critic(hat));
    let gx = g.grad(g.sum_all(y_hat), &[hat])[0];
    let norm = g.l2_norm_rows(gx, 1e-12);
    let penalty = g.mean_all(g.square(g.add_scalar(norm, -1.0)));
    let loss = g.add(g.sub(g.mean_all(y_fake), g.mean_all(y_real)), g.mul_scalar(penalty, 10.0));
    let mut got = vec![g.with_value(loss, |t| fnv(t.as_slice()))];
    for dw in g.grad(loss, &[w1, b1, w2, b2, w3, b3]) {
        got.push(g.with_value(dw, |t| fnv(t.as_slice())));
    }
    let want = [
        0xea5a_3350_f695_12c4u64,
        0xe2f6_03f3_a8d7_3407,
        0x7931_3776_d60d_a1a4,
        0xc1f0_8b52_d012_4496,
        0x1790_91b0_2a8d_49f3,
        0x9b6a_ffd8_d4d6_e357,
        0x4d25_767f_9dce_13f5,
    ];
    assert_eq!(got, want, "got {got:#018x?}");
}
