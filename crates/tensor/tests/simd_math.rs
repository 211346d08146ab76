//! Accuracy and bit-identity contract of the SIMD math layer (DESIGN.md §8).
//!
//! * **ULP sweeps** pin the rational tanh / sigmoid approximations to libm
//!   within the documented bounds ([`simd::TANH_MAX_ULP`] /
//!   [`simd::SIGMOID_MAX_ULP`]) across a dense sweep of [-20, 20] plus the
//!   IEEE edge inventory: ±0.0, subnormals, NaN, ±∞ and the clamp knees.
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
