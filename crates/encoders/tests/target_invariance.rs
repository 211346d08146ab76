//! No bit of a fitted mixture depends on the build level (DESIGN.md §8).
//!
//! The sibling of `gtv-tensor`'s `tests/target_invariance.rs` for the one
//! consumer of the `f64` lanes: the literals below are FNV-1a hashes of the
//! `(w, μ, σ)` bits of [`Gmm1d::fit`] taken on a **baseline x86-64** build,
//! and `tools/ci.sh` runs this file at both build levels. The columns come
//! from an integer hash through exact arithmetic. The fit itself calls
//! libm's `ln` (2`k` times a sweep, for the exponent offsets), whose result
//! is the host's and not the build's — the same at both levels on one
//! host, which is what this file checks.

use gtv_encoders::Gmm1d;

fn fnv(values: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Element `i` of stream `stream`: a splitmix64 hash mapped onto `[-1, 1)`
/// in steps of 2⁻²³.
fn value(stream: u64, i: usize) -> f64 {
    let mut z = ((stream << 32) | i as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z >> 40) as f64 * (1.0 / 8_388_608.0) - 1.0
}

#[test]
fn fitted_mixture_bits_are_the_baseline_builds() {
    // Two flat modes, four full blocks.
    let bimodal: Vec<f64> =
        (0..1_024).map(|i| if i % 2 == 0 { -5.0 } else { 5.0 } + value(1, i)).collect();
    // A heavy tail (the seventh power of a uniform) over three modes of
    // unequal width, ending in a block of 235 rows with a 3-row lane tail;
    // ten components, one of them sitting on the `min_std` clamp.
    let heavy: Vec<f64> = (0..1_003)
        .map(|i| {
            let v = value(2, i);
            let tail = (v * v * v) * (v * v * v) * v * 900.0;
            [0.0, 40.0, 41.0][i % 3] + tail + value(3, i) * [0.01, 2.0, 0.5][i % 3]
        })
        .collect();
    // Shorter than a lane group, more components asked for than rows; one
    // component is pruned.
    let short: Vec<f64> = (0..7).map(|i| value(4, i) * 10.0).collect();
    let got: Vec<u64> = [(&bimodal, 5, 11u64), (&heavy, 10, 12), (&short, 9, 13)]
        .into_iter()
        .map(|(data, k, seed)| {
            let gmm = Gmm1d::fit(data, k, seed);
            fnv(&[gmm.weights(), gmm.means(), gmm.stds()].concat())
        })
        .collect();
    let want = [0x346b_4e40_c98b_a00du64, 0x2a54_fd56_d649_9f1b, 0xf09c_d46d_35f5_7fad];
    assert_eq!(got, want, "got {got:#018x?}");
}
