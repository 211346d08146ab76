//! Property-based tests for tensor algebra and autograd invariants.

use gtv_tensor::{dispatch, pool, BinaryOp, Graph, Layout, Tensor, UnaryOp};
use proptest::prelude::*;

fn tensor_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-10.0f32..10.0, rows * cols)
        .prop_map(move |v| Tensor::from_vec(rows, cols, v))
}

/// A dimension in `0..=70` with the edges over-weighted: half of the draws
/// are `0`, `1`, `16` or `17`, so empty products, `k = 0`, the
/// single-column kernel and both sides of the one-panel width below which
/// no row skips its zeros all occur in every run next to every tile
/// remainder.
fn dim_strategy() -> impl Strategy<Value = usize> {
    (0usize..71, 0usize..8).prop_map(|(d, edge)| [0, 1, 16, 17].get(edge).copied().unwrap_or(d))
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A `rows×cols` tensor of awkward values: each row is dense, half zero,
/// just under or just over the three-quarters-zero cut between the kernels,
/// or almost all zero (so products mix the zero-skipping and the tiled
/// kernel), zeros carry either sign, and the rest are ordinary values salted with
/// subnormals, magnitudes whose products overflow and — when `non_finite` —
/// NaN and ±Inf.
fn messy(rows: usize, cols: usize, state: &mut u64, non_finite: bool) -> Tensor {
    let mut data = Vec::with_capacity(rows * cols);
    for _ in 0..rows {
        let zero_pct = [0, 50, 70, 80, 97][(splitmix(state) % 5) as usize];
        for _ in 0..cols {
            let r = splitmix(state);
            let sign = if r & 1 == 0 { 1.0 } else { -1.0 };
            let unit = (r >> 40) as f32 / (1u64 << 24) as f32;
            data.push(if (r >> 1) % 100 < zero_pct {
                0.0 * sign
            } else {
                match (r >> 8) % 32 {
                    0 => f32::from_bits((r >> 16) as u32 & 0x007f_ffff) * sign,
                    1 => 3e19 * unit * sign,
                    2 if non_finite => f32::NAN,
                    3 if non_finite => f32::INFINITY * sign,
                    _ => 10.0 * unit * sign,
                }
            });
        }
    }
    Tensor::from_vec(rows, cols, data)
}

/// Bit patterns with every NaN folded onto one: IEEE leaves a NaN result's
/// sign and payload open, and x86 takes them from whichever operand the
/// compiler happened to put first.
fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| if v.is_nan() { f32::NAN.to_bits() } else { v.to_bits() }).collect()
}

/// The stored transpose of `t`, by the definition.
fn transposed(t: &Tensor) -> Tensor {
    Tensor::from_fn(t.cols(), t.rows(), |r, c| t.at(c, r))
}

/// Every unary op, each parameterised one with a value that is not special.
const UNARY_OPS: [UnaryOp; 15] = [
    UnaryOp::Neg,
    UnaryOp::Exp,
    UnaryOp::Ln,
    UnaryOp::Sqrt,
    UnaryOp::Tanh,
    UnaryOp::Sigmoid,
    UnaryOp::Relu,
    UnaryOp::LeakyRelu(0.2),
    UnaryOp::MulScalar(-1.5),
    UnaryOp::AddScalar(0.75),
    UnaryOp::PowScalar(1.5),
    UnaryOp::ReluMask,
    UnaryOp::LeakyReluMask(0.2),
    UnaryOp::TanhGrad,
    UnaryOp::SigmoidGrad,
];

const BINARY_OPS: [BinaryOp; 4] = [BinaryOp::Add, BinaryOp::Sub, BinaryOp::Mul, BinaryOp::Div];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The matmul contract (DESIGN.md §8): the product is the naive triple
    /// loop, bit for bit — in every layout, whatever the shape does to the
    /// tiling (ragged `n % MR`, `m % NR`, the single-column kernel, empty
    /// dimensions), whichever rows skip their zeros, and at any thread
    /// count. The operands are drawn as the product reads them and stored
    /// transposed where the layout says so, so a LHS row keeps its zero
    /// share whichever way it is stored.
    #[test]
    fn matmul_equals_naive_triple_loop(
        n in dim_strategy(),
        k in dim_strategy(),
        m in dim_strategy(),
        seed in any::<u64>(),
        non_finite in 0u8..4
    ) {
        let mut state = seed;
        let a = messy(n, k, &mut state, non_finite == 0);
        let b = messy(k, m, &mut state, non_finite == 0);
        let want = Tensor::from_fn(n, m, |i, j| {
            let mut acc = 0.0;
            (0..k).for_each(|p| acc += a.at(i, p) * b.at(p, j));
            acc
        });
        let (at, bt) = (transposed(&a), transposed(&b));
        // Lowered so these shapes cross the pool; left lowered, as in
        // `parallel_determinism` (the override is process-global and the
        // other properties here do not care where their chunks run).
        dispatch::set_par_mins(1_024, 1_024, 2_048);
        for (layout, lhs, rhs) in
            [(Layout::Plain, &a, &b), (Layout::TransB, &a, &bt), (Layout::TransA, &at, &b)]
        {
            for threads in [1, 2, 8] {
                pool::set_threads(threads);
                let got = lhs.matmul_layout(rhs, layout);
                prop_assert_eq!(got.shape(), (n, m));
                prop_assert_eq!(
                    bits(&got), bits(&want), "{}x{}x{} {:?} at {} threads", n, k, m, layout, threads
                );
            }
        }
        pool::set_threads(1);
    }

    /// Every elementwise form is its scalar definition, element for
    /// element: each unary op against `UnaryOp::eval`, each binary op
    /// same-shape and against a row or a column vector (both operand
    /// orders) against `BinaryOp::eval` on the broadcast pair, and
    /// `broadcast_to` against the broadcast index — on the awkward values,
    /// non-finite ones included, at lengths that are mostly not a multiple
    /// of the lane width.
    #[test]
    fn elementwise_forms_equal_their_scalar_definitions(
        n in dim_strategy(),
        m in dim_strategy(),
        seed in any::<u64>()
    ) {
        let mut state = seed;
        let full = messy(n, m, &mut state, true);
        let other = messy(n, m, &mut state, true);
        let row = messy(1, m, &mut state, true);
        let col = messy(n, 1, &mut state, true);
        for op in UNARY_OPS {
            let want = full.map(|v| op.eval(v));
            prop_assert_eq!(bits(&full.apply(op)), bits(&want), "{:?} {}x{}", op, n, m);
        }
        // The broadcast partner of `(r, c)` in a `1×m`, `n×1` or `n×m` operand.
        let at = |t: &Tensor, r: usize, c: usize| {
            t.at(if t.rows() == 1 { 0 } else { r }, if t.cols() == 1 { 0 } else { c })
        };
        for op in BINARY_OPS {
            for (x, y) in [(&full, &other), (&full, &row), (&row, &full), (&full, &col), (&col, &full)] {
                let want = Tensor::from_fn(n, m, |r, c| op.eval(at(x, r, c), at(y, r, c)));
                prop_assert_eq!(bits(&x.zip_op(y, op)), bits(&want), "{:?} {:?} {:?}", op, x.shape(), y.shape());
            }
        }
        for v in [&row, &col, &full] {
            let want = Tensor::from_fn(n, m, |r, c| at(v, r, c));
            prop_assert_eq!(bits(&v.broadcast_to(n, m)), bits(&want), "{:?} to {}x{}", v.shape(), n, m);
        }
        if n > 0 && m > 0 {
            let one = messy(1, 1, &mut state, true);
            let want = Tensor::from_fn(n, m, |_, _| one.item());
            prop_assert_eq!(bits(&one.broadcast_to(n, m)), bits(&want));
        }
    }
}

proptest! {
    #[test]
    fn add_commutes(a in tensor_strategy(3, 4), b in tensor_strategy(3, 4)) {
        prop_assert_eq!(a.add(&b), b.add(&a));
    }

    #[test]
    fn add_associates_approx(
        a in tensor_strategy(2, 3),
        b in tensor_strategy(2, 3),
        c in tensor_strategy(2, 3)
    ) {
        let left = a.add(&b).add(&c);
        let right = a.add(&b.add(&c));
        prop_assert!(left.max_abs_diff(&right) < 1e-4);
    }

    #[test]
    fn matmul_distributes_over_add(
        a in tensor_strategy(2, 3),
        b in tensor_strategy(3, 2),
        c in tensor_strategy(3, 2)
    ) {
        let left = a.matmul(&b.add(&c));
        let right = a.matmul(&b).add(&a.matmul(&c));
        prop_assert!(left.max_abs_diff(&right) < 1e-2);
    }

    #[test]
    fn slice_concat_roundtrip(a in tensor_strategy(3, 5), split in 1usize..5) {
        let left = a.slice_cols(0, split);
        let right = a.slice_cols(split, 5 - split);
        let back = Tensor::concat_cols(&[&left, &right]);
        prop_assert_eq!(back, a);
    }

    #[test]
    fn pad_then_slice_is_identity(a in tensor_strategy(2, 3), start in 0usize..4) {
        let padded = a.pad_cols(start, 3 + start + 2);
        prop_assert_eq!(padded.slice_cols(start, 3), a);
    }

    #[test]
    fn sum_all_equals_sum_of_row_sums(a in tensor_strategy(4, 3)) {
        let direct = a.sum_all().item();
        let via_rows = a.sum_rows().sum_all().item();
        prop_assert!((direct - via_rows).abs() < 1e-3);
    }

    #[test]
    fn grad_of_linear_fn_is_constant_coeff(a in tensor_strategy(1, 4)) {
        // y = Σ cᵢ·xᵢ  ⇒  ∇y = c, independent of x.
        let coeffs = Tensor::row(&[2.0, -1.0, 0.5, 3.0]);
        let g = Graph::new();
        let x = g.leaf(a);
        let c = g.leaf(coeffs.clone());
        let y = g.sum_all(g.mul(x, c));
        let dx = g.grad(y, &[x])[0];
        prop_assert!(g.value(dx).max_abs_diff(&coeffs) < 1e-5);
    }

    #[test]
    fn grad_sum_matches_ones(a in tensor_strategy(3, 3)) {
        let g = Graph::new();
        let x = g.leaf(a);
        let y = g.sum_all(x);
        let dx = g.grad(y, &[x])[0];
        prop_assert_eq!(g.value(dx), Tensor::ones(3, 3));
    }

    #[test]
    fn softmax_rows_are_distributions(a in tensor_strategy(3, 4)) {
        let g = Graph::new();
        let x = g.leaf(a);
        let s = g.value(g.softmax_rows(x));
        for r in 0..3 {
            let row = s.row_slice(r);
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(row.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }
}
