//! Mode-specific normalization (CTGAN §4.2) for continuous columns and the
//! CTAB-GAN mixed-type extension.
//!
//! A continuous value `x` is encoded as `(α, β)`: a mixture mode `k` is
//! sampled from the GMM posterior, `α = (x − μ_k) / (4σ_k)` (clipped to
//! `[-1, 1]`) and `β` is the one-hot indicator of `k`. Decoding inverts with
//! the argmax mode. Mixed columns prepend one indicator per *special value*
//! (point mass); when a cell equals a special value its indicator is hot and
//! `α = 0`.

use crate::gmm::Gmm1d;
use rand::rngs::StdRng;

/// Encoder for a continuous column: scalar `α` plus a one-hot mode indicator.
#[derive(Debug, Clone)]
pub struct ModeSpecificNormalizer {
    gmm: Gmm1d,
}

impl ModeSpecificNormalizer {
    /// Fits the underlying GMM (up to `max_modes` components).
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    pub fn fit(data: &[f64], max_modes: usize, seed: u64) -> Self {
        Self { gmm: Gmm1d::fit(data, max_modes, seed) }
    }

    /// Encoded width: `1 + n_modes`.
    pub fn width(&self) -> usize {
        1 + self.gmm.n_components()
    }

    /// Encodes `x` into `out = [α, β…]`, sampling the mode from the GMM
    /// posterior.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != width()`.
    pub fn encode_into(&self, x: f64, out: &mut [f32], rng: &mut StdRng) {
        assert_eq!(out.len(), self.width(), "output slice width mismatch");
        let (alpha, mode) = self.alpha_and_mode(x, rng);
        out.fill(0.0);
        out[0] = alpha;
        out[1 + mode] = 1.0;
    }

    /// Samples the mode of `x` from the GMM posterior (one `f64` draw) and
    /// normalises `x` within it.
    fn alpha_and_mode(&self, x: f64, rng: &mut StdRng) -> (f32, usize) {
        let mode = self.gmm.sample_mode(x, rng);
        let mean = self.gmm.means()[mode];
        let std = self.gmm.stds()[mode].max(1e-12);
        ((((x - mean) / (4.0 * std)) as f32).clamp(-1.0, 1.0), mode)
    }

    /// Decodes `[α, β…]` (β may be soft; decoded by argmax).
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != width()`.
    pub fn decode(&self, values: &[f32]) -> f64 {
        assert_eq!(values.len(), self.width(), "input slice width mismatch");
        self.decode_parts(values[0], &values[1..])
    }

    /// Decodes `α` and the mode indicators `β` given apart — a mixed column
    /// keeps its special-value indicators between the two.
    fn decode_parts(&self, alpha: f32, beta: &[f32]) -> f64 {
        let alpha = alpha.clamp(-1.0, 1.0) as f64;
        let mut mode = 0;
        for (i, &v) in beta.iter().enumerate() {
            if v > beta[mode] {
                mode = i;
            }
        }
        let mean = self.gmm.means()[mode];
        let std = self.gmm.stds()[mode];
        alpha * 4.0 * std + mean
    }
}

/// Encoder for a mixed column: special-value indicators followed by GMM
/// modes, per CTAB-GAN's mixed-type encoding.
#[derive(Debug, Clone)]
pub struct MixedEncoder {
    specials: Vec<f64>,
    msn: ModeSpecificNormalizer,
}

impl MixedEncoder {
    /// Fits the encoder. `specials` are the point-mass values; the GMM is fit
    /// on the remaining (continuous) cells.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty. If *every* cell is special, a degenerate
    /// single-mode GMM is fitted on the special values themselves.
    pub fn fit(data: &[f64], specials: &[f64], max_modes: usize, seed: u64) -> Self {
        assert!(!data.is_empty(), "cannot fit a mixed encoder to empty data");
        let continuous: Vec<f64> =
            data.iter().copied().filter(|v| !specials.iter().any(|s| close(*s, *v))).collect();
        let fit_data = if continuous.is_empty() { data.to_vec() } else { continuous };
        Self {
            specials: specials.to_vec(),
            msn: ModeSpecificNormalizer::fit(&fit_data, max_modes, seed),
        }
    }

    /// The special (point-mass) values.
    pub fn specials(&self) -> &[f64] {
        &self.specials
    }

    /// Encoded width: `1 + n_specials + n_modes`.
    pub fn width(&self) -> usize {
        self.specials.len() + self.msn.width()
    }

    /// Encodes `x` into `out = [α, specials…, modes…]`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != width()`.
    pub fn encode_into(&self, x: f64, out: &mut [f32], rng: &mut StdRng) {
        assert_eq!(out.len(), self.width(), "output slice width mismatch");
        out.fill(0.0);
        if let Some(si) = self.specials.iter().position(|s| close(*s, x)) {
            // α = 0, special indicator hot.
            out[1 + si] = 1.0;
            return;
        }
        let (alpha, mode) = self.msn.alpha_and_mode(x, rng);
        out[0] = alpha;
        out[1 + self.specials.len() + mode] = 1.0;
    }

    /// Decodes `[α, specials…, modes…]`.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != width()`.
    pub fn decode(&self, values: &[f32]) -> f64 {
        assert_eq!(values.len(), self.width(), "input slice width mismatch");
        let ns = self.specials.len();
        let indicators = &values[1..];
        let mut best = 0;
        for (i, &v) in indicators.iter().enumerate() {
            if v > indicators[best] {
                best = i;
            }
        }
        if best < ns {
            return self.specials[best];
        }
        self.msn.decode_parts(values[0], &values[1 + ns..])
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()))
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "tests seed their fixtures with literals")]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn bimodal(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                if i % 2 == 0 {
                    -10.0 + (i % 7) as f64 * 0.1
                } else {
                    10.0 + (i % 5) as f64 * 0.1
                }
            })
            .collect()
    }

    #[test]
    fn msn_roundtrip_is_accurate() {
        let data = bimodal(400);
        let enc = ModeSpecificNormalizer::fit(&data, 5, 0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut buf = vec![0.0f32; enc.width()];
        for &x in data.iter().take(50) {
            enc.encode_into(x, &mut buf, &mut rng);
            let back = enc.decode(&buf);
            assert!((back - x).abs() < 0.5, "x={x} back={back}");
        }
    }

    #[test]
    fn msn_alpha_is_bounded() {
        let data = bimodal(200);
        let enc = ModeSpecificNormalizer::fit(&data, 5, 0);
        let mut rng = StdRng::seed_from_u64(2);
        let mut buf = vec![0.0f32; enc.width()];
        enc.encode_into(1e6, &mut buf, &mut rng); // way outside the data
        assert!(buf[0].abs() <= 1.0);
    }

    #[test]
    fn msn_beta_is_one_hot() {
        let data = bimodal(200);
        let enc = ModeSpecificNormalizer::fit(&data, 5, 0);
        let mut rng = StdRng::seed_from_u64(3);
        let mut buf = vec![0.0f32; enc.width()];
        enc.encode_into(data[0], &mut buf, &mut rng);
        let hot: f32 = buf[1..].iter().sum();
        assert_eq!(hot, 1.0);
        assert_eq!(buf[1..].iter().filter(|&&v| v == 1.0).count(), 1);
    }

    #[test]
    fn mixed_encodes_specials_exactly() {
        let mut data = bimodal(300);
        for i in 0..150 {
            data[i * 2] = 0.0; // heavy point mass at 0
        }
        let enc = MixedEncoder::fit(&data, &[0.0], 5, 0);
        let mut rng = StdRng::seed_from_u64(4);
        let mut buf = vec![0.0f32; enc.width()];
        enc.encode_into(0.0, &mut buf, &mut rng);
        assert_eq!(buf[0], 0.0);
        assert_eq!(buf[1], 1.0);
        assert_eq!(enc.decode(&buf), 0.0);
    }

    #[test]
    fn mixed_roundtrips_continuous_part() {
        let mut data = bimodal(300);
        for i in 0..100 {
            data[i * 3] = 0.0;
        }
        let enc = MixedEncoder::fit(&data, &[0.0], 5, 0);
        let mut rng = StdRng::seed_from_u64(5);
        let mut buf = vec![0.0f32; enc.width()];
        enc.encode_into(10.2, &mut buf, &mut rng);
        let back = enc.decode(&buf);
        assert!((back - 10.2).abs() < 0.5, "back={back}");
    }

    /// The encode and decode of the commit before they stopped allocating
    /// (a `Vec` of responsibilities per sampled mode, a `tmp` `Vec` per mixed
    /// cell), kept as the reference the in-place forms are compared with.
    mod allocating {
        use super::*;
        use rand::Rng;

        pub fn sample_mode(gmm: &Gmm1d, x: f64, rng: &mut StdRng) -> usize {
            let resp = gmm.responsibilities(x);
            let mut u = rng.gen::<f64>();
            for (i, &r) in resp.iter().enumerate() {
                u -= r;
                if u <= 0.0 {
                    return i;
                }
            }
            resp.len() - 1
        }

        pub fn msn_encode_into(
            e: &ModeSpecificNormalizer,
            x: f64,
            out: &mut [f32],
            rng: &mut StdRng,
        ) {
            let mode = sample_mode(&e.gmm, x, rng);
            let mean = e.gmm.means()[mode];
            let std = e.gmm.stds()[mode].max(1e-12);
            out.fill(0.0);
            out[0] = (((x - mean) / (4.0 * std)) as f32).clamp(-1.0, 1.0);
            out[1 + mode] = 1.0;
        }

        pub fn mixed_encode_into(e: &MixedEncoder, x: f64, out: &mut [f32], rng: &mut StdRng) {
            out.fill(0.0);
            if let Some(si) = e.specials.iter().position(|s| close(*s, x)) {
                out[1 + si] = 1.0;
                return;
            }
            let ns = e.specials.len();
            let mut tmp = vec![0.0f32; e.msn.width()];
            msn_encode_into(&e.msn, x, &mut tmp, rng);
            out[0] = tmp[0];
            out[1 + ns..].copy_from_slice(&tmp[1..]);
        }

        pub fn mixed_decode(e: &MixedEncoder, values: &[f32]) -> f64 {
            let ns = e.specials.len();
            let indicators = &values[1..];
            let mut best = 0;
            for (i, &v) in indicators.iter().enumerate() {
                if v > indicators[best] {
                    best = i;
                }
            }
            if best < ns {
                return e.specials[best];
            }
            let mut tmp = vec![0.0f32; e.msn.width()];
            tmp[0] = values[0];
            tmp[1..].copy_from_slice(&values[1 + ns..]);
            e.msn.decode(&tmp)
        }
    }

    #[test]
    fn in_place_encode_and_decode_match_the_allocating_forms_cell_for_cell() {
        use gtv_data::{ColumnKind, Dataset};
        use rand::Rng;
        let (mut continuous, mut mixed, mut special_cells) = (0, 0, 0);
        for ds in Dataset::all() {
            let table = ds.generate(600, 3);
            for (ci, meta) in table.schema().columns().iter().enumerate() {
                let seed = 3 + ci as u64;
                // One stream per side, cloned: any extra or missing draw
                // shows in every later cell of the column.
                let mut rng = StdRng::seed_from_u64(100 + seed);
                let mut rng_ref = rng.clone();
                // Soft generator-like rows for decode, besides the one-hot
                // rows encode produces.
                let mut soft = StdRng::seed_from_u64(200 + seed);
                match &meta.kind {
                    ColumnKind::Categorical { .. } => {}
                    ColumnKind::Continuous => {
                        let cells = table.column(ci).as_float();
                        let enc = ModeSpecificNormalizer::fit(cells, 5, seed);
                        let (mut got, mut want) = (vec![0.0; enc.width()], vec![0.0; enc.width()]);
                        for &x in cells {
                            enc.encode_into(x, &mut got, &mut rng);
                            allocating::msn_encode_into(&enc, x, &mut want, &mut rng_ref);
                            assert_eq!(got, want, "{ds} column {ci}, cell {x}");
                        }
                        assert_eq!(rng.gen::<u64>(), rng_ref.gen::<u64>(), "{ds} column {ci}");
                        continuous += 1;
                    }
                    ColumnKind::Mixed { special_values } => {
                        let cells = table.column(ci).as_float();
                        let enc = MixedEncoder::fit(cells, special_values, 5, seed);
                        let (mut got, mut want) = (vec![0.0; enc.width()], vec![0.0; enc.width()]);
                        for &x in cells {
                            enc.encode_into(x, &mut got, &mut rng);
                            allocating::mixed_encode_into(&enc, x, &mut want, &mut rng_ref);
                            assert_eq!(got, want, "{ds} column {ci}, cell {x}");
                            special_cells += usize::from(got[0] == 0.0 && got[1] == 1.0);
                            let back = enc.decode(&got);
                            assert_eq!(
                                back.to_bits(),
                                allocating::mixed_decode(&enc, &got).to_bits()
                            );
                            let noisy: Vec<f32> =
                                (0..enc.width()).map(|_| soft.gen_range(-1.5f32..1.5)).collect();
                            assert_eq!(
                                enc.decode(&noisy).to_bits(),
                                allocating::mixed_decode(&enc, &noisy).to_bits(),
                                "{ds} column {ci}, soft row {noisy:?}"
                            );
                        }
                        assert_eq!(rng.gen::<u64>(), rng_ref.gen::<u64>(), "{ds} column {ci}");
                        mixed += 1;
                    }
                }
            }
        }
        assert!(continuous >= 40 && mixed >= 10 && special_cells >= 1_000, "{continuous} {mixed}");
    }

    #[test]
    fn mixed_all_special_degenerates_gracefully() {
        let enc = MixedEncoder::fit(&[0.0; 40], &[0.0], 5, 0);
        let mut rng = StdRng::seed_from_u64(6);
        let mut buf = vec![0.0f32; enc.width()];
        enc.encode_into(0.0, &mut buf, &mut rng);
        assert_eq!(enc.decode(&buf), 0.0);
    }
}
