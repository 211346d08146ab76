//! Accuracy and bit-identity contract of the SIMD math layer (DESIGN.md §8).
//!
//! * **ULP sweeps** pin the rational tanh / sigmoid approximations to libm
//!   within the documented bounds ([`simd::TANH_MAX_ULP`] /
//!   [`simd::SIGMOID_MAX_ULP`]) across a dense sweep of [-20, 20] plus the
//!   IEEE edge inventory: ±0.0, subnormals, NaN, ±∞ and the clamp knees.
//! * The **`f64` exp** of the encoder fit is held to libm within
//!   [`simd::EXP_F64_MAX_ULP`] over its whole finite range, with its one
//!   deliberate difference (flush to `+0` where libm goes subnormal) and
//!   the slice form's lanes-equal-tail identity checked beside it.
//! * **Bit-identity proptests** check that every vectorized kernel matches
//!   its scalar form exactly — tails, lane boundaries and all — for
//!   `GTV_THREADS` ∈ {1, 2, 8}. The scalar forms are defined as lane 0 of
//!   the splatted 8-lane kernel, so any divergence here means the lane
//!   model itself is broken, not just an accuracy drift.

use gtv_tensor::{dispatch, pool, simd, Tensor, UnaryOp};
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Distance in units-in-the-last-place between two finite f32 values,
/// walking through the signed-magnitude integer lattice so values that
/// straddle zero still get a finite, monotone distance.
fn ulp_distance(a: f32, b: f32) -> u64 {
    fn lattice(x: f32) -> i64 {
        let bits = x.to_bits() as i32;
        if bits < 0 {
            i32::MIN.wrapping_sub(bits) as i64
        } else {
            bits as i64
        }
    }
    (lattice(a) - lattice(b)).unsigned_abs()
}

/// The edge inventory every kernel must survive: signed zeros, the
/// smallest subnormals, boundary normals, the clamp knees and non-finites.
fn edge_cases() -> Vec<f32> {
    let mut v = vec![
        0.0,
        -0.0,
        f32::MIN_POSITIVE,
        -f32::MIN_POSITIVE,
        f32::from_bits(1),           // smallest positive subnormal
        f32::from_bits(0x8000_0001), // smallest negative subnormal
        f32::from_bits(0x007f_ffff), // largest subnormal
        1e-20,
        -1e-20,
        3.9e-4, // just inside the tanh tiny-input pass-through
        4.1e-4, // just outside it
        7.9,    // just inside the tanh clamp
        8.0,    // just outside it
        -88.0,  // near the exp underflow knee
        88.7,   // near the exp overflow knee
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        f32::MAX,
        f32::MIN,
    ];
    for s in [1.0f32, -1.0] {
        v.extend((0..64).map(|i| s * (i as f32) * 0.317));
    }
    v
}

#[test]
fn tanh_stays_within_its_ulp_bound_of_libm() {
    let mut worst = 0u64;
    // 4M-point dense sweep of the interesting range.
    for i in 0..=4_000_000u32 {
        let x = -20.0 + (i as f32) * 1e-5;
        let got = simd::tanh(x);
        let want = x.tanh();
        let d = ulp_distance(got, want);
        worst = worst.max(d);
        assert!(
            d <= u64::from(simd::TANH_MAX_ULP),
            "tanh({x:e}) = {got:e}, libm {want:e}: {d} ULP > bound {}",
            simd::TANH_MAX_ULP
        );
    }
    assert!(worst > 0, "a zero-ULP sweep means the comparison is broken");
}

#[test]
fn sigmoid_stays_within_its_ulp_bound_of_libm() {
    for i in 0..=4_000_000u32 {
        let x = -20.0 + (i as f32) * 1e-5;
        let got = simd::sigmoid(x);
        let want = 1.0 / (1.0 + (-x).exp());
        let d = ulp_distance(got, want);
        assert!(
            d <= u64::from(simd::SIGMOID_MAX_ULP),
            "sigmoid({x:e}) = {got:e}, libm {want:e}: {d} ULP > bound {}",
            simd::SIGMOID_MAX_ULP
        );
    }
}

#[test]
fn edge_cases_match_libm_semantics() {
    for x in edge_cases() {
        let t = simd::tanh(x);
        let s = simd::sigmoid(x);
        let e = simd::exp(x);
        if x.is_nan() {
            assert!(t.is_nan() && s.is_nan() && e.is_nan(), "NaN must propagate");
            continue;
        }
        if x == f32::INFINITY {
            assert_eq!(t, 1.0);
            assert_eq!(s, 1.0);
            assert_eq!(e, f32::INFINITY);
            continue;
        }
        if x == f32::NEG_INFINITY {
            assert_eq!(t, -1.0);
            assert_eq!(s, 0.0);
            assert_eq!(e, 0.0);
            continue;
        }
        // Finite inputs: bounded ranges, the right signs, and tiny inputs
        // pass through tanh exactly (including signed zero).
        assert!((-1.0..=1.0).contains(&t), "tanh({x:e}) = {t:e} out of range");
        assert!((0.0..=1.0).contains(&s), "sigmoid({x:e}) = {s:e} out of range");
        assert!(e >= 0.0, "exp({x:e}) = {e:e} negative");
        if x.abs() < 4e-4 {
            assert_eq!(t.to_bits(), x.to_bits(), "tiny tanh inputs pass through exactly");
        }
        if x.abs() <= 20.0 {
            assert!(ulp_distance(t, x.tanh()) <= u64::from(simd::TANH_MAX_ULP), "tanh({x:e})");
            assert!(
                ulp_distance(s, 1.0 / (1.0 + (-x).exp())) <= u64::from(simd::SIGMOID_MAX_ULP),
                "sigmoid({x:e})"
            );
        }
    }
}

/// [`ulp_distance`] on the `f64` lattice.
fn ulp_distance_f64(a: f64, b: f64) -> u64 {
    fn lattice(x: f64) -> i128 {
        let bits = x.to_bits() as i64;
        i128::from(if bits < 0 { i64::MIN.wrapping_sub(bits) } else { bits })
    }
    (lattice(a) - lattice(b)).unsigned_abs() as u64
}

/// Largest argument with a finite `e^x`: `ln f64::MAX`.
const EXP_F64_LAST_FINITE: f64 = 709.782_712_893_384;

#[test]
fn exp_f64_stays_within_its_ulp_bound_of_libm() {
    // 2M points over [-745, 709.8]: libm's whole non-trivial range, from
    // its last subnormal result to just past the overflow.
    let (lo, hi, steps) = (-745.0f64, 709.8f64, 2_000_000u32);
    let mut worst = 0u64;
    for i in 0..=steps {
        let x = lo + f64::from(i) * ((hi - lo) / f64::from(steps));
        let (got, want) = (simd::exp_f64(x), x.exp());
        if x < simd::EXP_F64_FLUSH {
            // Flushed where libm underflows gradually; e^-708 is 1.5× the
            // smallest normal, so nothing above 2·MIN_POSITIVE is lost.
            assert_eq!(got.to_bits(), 0, "exp_f64({x:e}) = {got:e} below the flush point");
            assert!(want < 2.0 * f64::MIN_POSITIVE, "libm exp({x:e}) = {want:e}");
        } else if x > EXP_F64_LAST_FINITE {
            assert_eq!((got, want), (f64::INFINITY, f64::INFINITY), "exp({x:e})");
        } else {
            let d = ulp_distance_f64(got, want);
            worst = worst.max(d);
            assert!(
                d <= simd::EXP_F64_MAX_ULP,
                "exp_f64({x:e}) = {got:e}, libm {want:e}: {d} ULP > bound {}",
                simd::EXP_F64_MAX_ULP
            );
        }
    }
    assert!(worst > 0, "a zero-ULP sweep means the comparison is broken");
}

#[test]
fn exp_f64_edge_inventory() {
    let next_up = |x: f64| f64::from_bits(if x < 0.0 { x.to_bits() - 1 } else { x.to_bits() + 1 });
    let next_down =
        |x: f64| f64::from_bits(if x < 0.0 { x.to_bits() + 1 } else { x.to_bits() - 1 });
    // ±0 and subnormal arguments: exactly 1.
    for x in [0.0, -0.0, f64::from_bits(1), -f64::from_bits(1), f64::MIN_POSITIVE, -1e-300] {
        assert_eq!(simd::exp_f64(x).to_bits(), 1.0f64.to_bits(), "exp_f64({x:e})");
    }
    // The flush point itself is a normal number inside the bound; one step
    // below it, and everywhere libm returns a subnormal, the result is +0.
    let at_flush = simd::exp_f64(simd::EXP_F64_FLUSH);
    assert!(at_flush >= f64::MIN_POSITIVE);
    assert!(
        ulp_distance_f64(at_flush, simd::EXP_F64_FLUSH.exp()) <= simd::EXP_F64_MAX_ULP,
        "{at_flush:e}"
    );
    for x in [next_down(simd::EXP_F64_FLUSH), -708.4, -720.0, -744.9, -745.2, -1e9, f64::MIN] {
        assert_eq!(simd::exp_f64(x).to_bits(), 0, "exp_f64({x:e}) must be +0");
    }
    // The overflow knee: the last finite result, then +∞.
    let top = simd::exp_f64(EXP_F64_LAST_FINITE);
    assert!(top.is_finite());
    assert!(ulp_distance_f64(top, EXP_F64_LAST_FINITE.exp()) <= simd::EXP_F64_MAX_ULP, "{top:e}");
    for x in [next_up(EXP_F64_LAST_FINITE), 710.0, 1e9, f64::MAX, f64::INFINITY] {
        assert_eq!(simd::exp_f64(x), f64::INFINITY, "exp_f64({x:e})");
    }
    assert_eq!(simd::exp_f64(f64::NEG_INFINITY).to_bits(), 0);
    assert!(simd::exp_f64(f64::NAN).is_nan());
    // Lanes and tail: every position of a slice — four-lane groups and the
    // splat tail of every length — gives the bits of the scalar form.
    let edges = [
        0.0,
        -0.0,
        -1e-300,
        -0.3,
        -37.5,
        -707.9,
        simd::EXP_F64_FLUSH,
        next_down(simd::EXP_F64_FLUSH),
        -745.0,
        f64::NEG_INFINITY,
        f64::NAN,
        1.0,
        EXP_F64_LAST_FINITE,
        710.0,
        f64::INFINITY,
    ];
    for len in 0..=11 {
        for start in 0..edges.len() {
            let xs: Vec<f64> = (0..len).map(|i| edges[(start + i) % edges.len()]).collect();
            let mut got = xs.clone();
            simd::exp_slice_f64(&mut got);
            for (i, (&x, &g)) in xs.iter().zip(&got).enumerate() {
                let want = simd::exp_f64(x);
                assert!(
                    g.to_bits() == want.to_bits() || (g.is_nan() && want.is_nan()),
                    "len {len}, position {i}: exp({x:e}) = {g:e}, scalar form {want:e}"
                );
            }
        }
    }
}

/// Scalar references for each vectorized unary kernel, built from the
/// public scalar entry points (lane 0 of the splatted kernel).
fn scalar_reference(op: UnaryOp, x: f32) -> f32 {
    match op {
        UnaryOp::Tanh => simd::tanh(x),
        UnaryOp::Sigmoid => simd::sigmoid(x),
        UnaryOp::Exp => simd::exp(x),
        UnaryOp::Relu => x.max(0.0),
        UnaryOp::LeakyRelu(alpha) => {
            if x >= 0.0 {
                x
            } else {
                alpha * x
            }
        }
        UnaryOp::ReluMask => {
            if x > 0.0 {
                1.0
            } else {
                0.0
            }
        }
        UnaryOp::LeakyReluMask(alpha) => {
            if x >= 0.0 {
                1.0
            } else {
                alpha
            }
        }
        _ => unreachable!("not exercised here"),
    }
}

/// Every unary op with a lane kernel.
const LANE_OPS: [UnaryOp; 7] = [
    UnaryOp::Tanh,
    UnaryOp::Sigmoid,
    UnaryOp::Exp,
    UnaryOp::Relu,
    UnaryOp::LeakyRelu(0.2),
    UnaryOp::ReluMask,
    UnaryOp::LeakyReluMask(0.2),
];

/// The backward masks at the values a comparison can get wrong — signed
/// zeros, NaN, infinities, subnormals — in lane groups and in the tail,
/// against the branchy definition and against `eval`.
#[test]
fn mask_kernels_agree_with_their_definition_on_edge_values() {
    let edges =
        [0.0, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1e-45, -1e-45, 3.0, -3.0, 1e-30];
    let data: Vec<f32> = (0..27).map(|i| edges[i % edges.len()]).collect();
    let t = Tensor::from_vec(3, 9, data.clone());
    for op in [UnaryOp::ReluMask, UnaryOp::LeakyReluMask(0.2)] {
        let got = t.apply(op);
        for (&x, &m) in data.iter().zip(got.as_slice()) {
            assert_eq!(m.to_bits(), scalar_reference(op, x).to_bits(), "{op:?} at {x:e}");
            assert_eq!(m.to_bits(), op.eval(x).to_bits(), "{op:?} eval at {x:e}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every SIMD unary kernel is bit-identical to its scalar form across
    /// lane boundaries, ragged tails (the 101-wide rows guarantee every
    /// tail residue mod 8 appears) and thread counts.
    #[test]
    fn simd_unary_kernels_match_scalar_reference_bit_for_bit(
        data in proptest::collection::vec(-30.0f32..30.0, 7 * 101)
    ) {
        dispatch::set_par_mins(1_024, 1_024, 8_192);
        let t = Tensor::from_vec(7, 101, data.clone());
        for op in LANE_OPS {
            let want: Vec<u32> =
                data.iter().map(|&x| scalar_reference(op, x).to_bits()).collect();
            for &threads in &THREAD_COUNTS {
                pool::set_threads(threads);
                let got: Vec<u32> =
                    t.apply(op).as_slice().iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(
                    &want, &got,
                    "{:?} diverged from its scalar form at {} threads", op, threads
                );
            }
        }
        pool::set_threads(1);
    }

    /// The SIMD reductions (fixed lane-combine order + sequential tail)
    /// are pure functions of the input slice: same bits at every thread
    /// count.
    #[test]
    fn simd_reductions_are_thread_invariant(
        data in proptest::collection::vec(-10.0f32..10.0, 5 * 103)
    ) {
        dispatch::set_par_mins(1_024, 1_024, 8_192);
        let t = Tensor::from_vec(5, 103, data.clone());
        let mut reference: Option<(u32, u32)> = None;
        for &threads in &THREAD_COUNTS {
            pool::set_threads(threads);
            let got = (t.sum_all().item().to_bits(), t.frob_norm().to_bits());
            match &reference {
                None => reference = Some(got),
                Some(expected) => prop_assert_eq!(*expected, got, "at {} threads", threads),
            }
        }
        pool::set_threads(1);
    }
}

/// Vectorized tails: `simd::sum` over every length 0..=40 must equal the
/// same fixed-order reduction computed by hand (8-lane groups in order,
/// lane-combine `((l0+l4)+(l1+l5)) + ((l2+l6)+(l3+l7))`, then a sequential
/// tail) — pinned so a future "optimization" can't silently reassociate.
#[test]
fn sum_lane_combine_order_is_pinned() {
    let data: Vec<f32> = (0..40).map(|i| ((i * 37 % 17) as f32) * 0.37 - 2.0).collect();
    for len in 0..=data.len() {
        let s = &data[..len];
        let mut lanes = [0.0f32; 8];
        let mut chunks = s.chunks_exact(8);
        for ch in &mut chunks {
            for (l, &v) in lanes.iter_mut().zip(ch) {
                *l += v;
            }
        }
        let mut want = ((lanes[0] + lanes[4]) + (lanes[1] + lanes[5]))
            + ((lanes[2] + lanes[6]) + (lanes[3] + lanes[7]));
        for &v in chunks.remainder() {
            want += v;
        }
        assert_eq!(simd::sum(s).to_bits(), want.to_bits(), "len {len}");
    }
}

/// The moment reduction of the encoder fit: eight lanes by row position,
/// the one `hsum` order, the ragged end summed on its own and added last —
/// computed by hand for every length 0..=40, and unchanged when the rows
/// arrive in blocks that are multiples of eight.
#[test]
fn weighted_moments_combine_order_is_pinned() {
    let p: Vec<f64> = (0..40).map(|i| f64::from(i * 37 % 17) * 0.37 + 0.01).collect();
    let scale: Vec<f64> = (0..40).map(|i| 1.0 / (f64::from(i * 13 % 7) + 1.3)).collect();
    let x: Vec<f64> = (0..40).map(|i| f64::from(i * 29 % 23) * 1.7 - 11.0).collect();
    for len in 0..=40 {
        let mut lanes = [[0.0f64; 8]; 3];
        let mut tail = [0.0f64; 3];
        for i in 0..len {
            let r = p[i] * scale[i];
            let rx = r * x[i];
            let terms = [r, rx, rx * x[i]];
            for (m, t) in terms.into_iter().enumerate() {
                if i < len / 8 * 8 {
                    lanes[m][i % 8] += t;
                } else {
                    tail[m] += t;
                }
            }
        }
        let want: Vec<u64> = (0..3)
            .map(|m| {
                let l = lanes[m];
                ((((l[0] + l[4]) + (l[1] + l[5])) + ((l[2] + l[6]) + (l[3] + l[7]))) + tail[m])
                    .to_bits()
            })
            .collect();
        let mut whole = simd::WeightedMoments::default();
        whole.add_block(&p[..len], &scale[..len], &x[..len]);
        assert_eq!(whole.totals().map(f64::to_bits).to_vec(), want, "len {len}");
        for cut in [8, 16, 32] {
            if cut < len {
                let mut blocks = simd::WeightedMoments::default();
                blocks.add_block(&p[..cut], &scale[..cut], &x[..cut]);
                blocks.add_block(&p[cut..len], &scale[cut..len], &x[cut..len]);
                assert_eq!(blocks.totals(), whole.totals(), "len {len} cut at {cut}");
            }
        }
    }
}
