//! Property-based tests of the feature-engineering invariants.

#![expect(clippy::disallowed_methods, reason = "tests seed their fixtures with literals")]

use gtv_encoders::{Gmm1d, MixedEncoder, ModeSpecificNormalizer, OneHotEncoder};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn data_strategy() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-50.0f64..50.0, 20..120)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// GMM weights always form a distribution and stds stay positive.
    #[test]
    fn gmm_is_well_formed(data in data_strategy(), k in 1usize..8) {
        let gmm = Gmm1d::fit(&data, k, 0);
        let total: f64 = gmm.weights().iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-6);
        prop_assert!(gmm.stds().iter().all(|&s| s > 0.0));
        prop_assert!(gmm.n_components() >= 1 && gmm.n_components() <= k.min(data.len()));
    }

    /// Posterior responsibilities are a distribution for any query point.
    #[test]
    fn gmm_posterior_is_distribution(data in data_strategy(), x in -100.0f64..100.0) {
        let gmm = Gmm1d::fit(&data, 4, 1);
        let resp = gmm.responsibilities(x);
        let total: f64 = resp.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-6);
        prop_assert!(resp.iter().all(|&r| (0.0..=1.0).contains(&r)));
    }

    /// Mode-specific normalization round-trips within a few mode-widths.
    #[test]
    fn msn_roundtrip_error_is_bounded(data in data_strategy(), probe in 0usize..20) {
        let enc = ModeSpecificNormalizer::fit(&data, 5, 0);
        let x = data[probe % data.len()];
        let mut buf = vec![0.0f32; enc.width()];
        let mut rng = StdRng::seed_from_u64(7);
        enc.encode_into(x, &mut buf, &mut rng);
        // α is clamped to [-1, 1], so the inverse can deviate by at most
        // 4σ of the assigned mode plus float error; use the global spread
        // as a conservative bound.
        let spread = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - data.iter().cloned().fold(f64::INFINITY, f64::min);
        let back = enc.decode(&buf);
        prop_assert!((back - x).abs() <= spread.max(1.0), "x={x} back={back}");
        prop_assert!(buf[0].abs() <= 1.0);
    }

    /// Mixed encoding always produces exactly one hot indicator.
    #[test]
    fn mixed_encoding_one_hot_invariant(mut data in data_strategy(), probe in 0usize..20) {
        data.extend(std::iter::repeat_n(0.0, 10)); // guarantee the special exists
        let enc = MixedEncoder::fit(&data, &[0.0], 4, 0);
        let x = data[probe % data.len()];
        let mut buf = vec![0.0f32; enc.width()];
        let mut rng = StdRng::seed_from_u64(3);
        enc.encode_into(x, &mut buf, &mut rng);
        let hot: f32 = buf[1..].iter().sum();
        prop_assert_eq!(hot, 1.0);
        prop_assert_eq!(buf[1..].iter().filter(|&&v| v == 1.0).count(), 1);
    }

    /// One-hot encode/decode is the identity on any category.
    #[test]
    fn onehot_roundtrip(k in 1usize..20, c in 0u32..20) {
        let c = c % k as u32;
        let enc = OneHotEncoder::new(k);
        let mut buf = vec![0.0f32; k];
        enc.encode_into(c, &mut buf);
        prop_assert_eq!(enc.decode(&buf), c);
    }
}
