//! One-dimensional Gaussian mixture fitted with EM.
//!
//! This is the reproduction's stand-in for the *variational* Gaussian
//! mixture CTGAN uses for mode-specific normalization: we fit a plain EM
//! mixture with `max_components` components and prune components whose
//! weight collapses below a threshold, which reproduces VGM's key behaviour
//! (only as many active modes as the data supports).
//!
//! The fit is the fixed cost every party pays before its first round, and
//! nearly all of it is the E-step: `EM_ITERS` sweeps × rows × components
//! exponentials. [`e_step`] therefore works on blocks of [`BLOCK`] rows in
//! structure-of-arrays form and in the log domain, with the exponential
//! and the moment sums in `gtv_tensor::simd` lanes (DESIGN.md §8).

use gtv_tensor::simd::{self, WeightedMoments};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const WEIGHT_PRUNE_THRESHOLD: f64 = 0.005;
const EM_ITERS: usize = 60;
const MIN_STD_FRAC: f64 = 1e-4;
/// Rows per E-step block: a multiple of the eight moment lanes, and small
/// enough that the `(k + 2) × BLOCK` scratch (14 KB at `k = 5`) stays in L1
/// across the block's three passes.
const BLOCK: usize = 256;
/// Posterior buffers up to this many components live on the stack in
/// [`Gmm1d::sample_mode`] (CTGAN's own default is 10 modes).
const STACK_MODES: usize = 16;

/// A 1-D Gaussian mixture model.
#[derive(Debug, Clone, PartialEq)]
pub struct Gmm1d {
    weights: Vec<f64>,
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl Gmm1d {
    /// Fits a mixture with up to `max_components` components.
    ///
    /// Components whose mixture weight collapses below 0.5% are pruned, so
    /// the final [`Gmm1d::n_components`] may be smaller than requested.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or holds a NaN or an infinity, or if
    /// `max_components == 0`.
    pub fn fit(data: &[f64], max_components: usize, seed: u64) -> Self {
        assert!(!data.is_empty(), "cannot fit a GMM to empty data");
        assert!(max_components > 0, "need at least one component");
        // One NaN would come back as `w = [1.0], μ = [NaN]` without any error.
        assert!(data.iter().all(|v| v.is_finite()), "cannot fit a GMM to non-finite data");
        #[expect(clippy::disallowed_methods, reason = "the caller's `seed`")]
        let mut rng = StdRng::seed_from_u64(seed);

        let lo = data.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        // Degenerate (constant) column: one tight component. Checked on the
        // *raw* spread — clamping first would make this branch unreachable
        // and send constant columns through EM with garbage jitter scales.
        if hi - lo < 1e-12 {
            return Self {
                weights: vec![1.0],
                means: vec![lo],
                stds: vec![1e-6_f64.max(lo.abs() * 1e-6)],
            };
        }
        let range = (hi - lo).max(1e-12);
        let min_std = range * MIN_STD_FRAC;

        let k = max_components.min(data.len());
        // Quantile init with slight jitter.
        let mut sorted = data.to_vec();
        sorted.sort_by(f64::total_cmp);
        let mut means: Vec<f64> = (0..k)
            .map(|i| {
                let q = (i as f64 + 0.5) / k as f64;
                let idx = ((sorted.len() as f64 - 1.0) * q) as usize;
                sorted[idx] + rng.gen_range(-0.01..0.01) * range
            })
            .collect();
        let global_std = std_dev(data).max(min_std);
        let mut stds = vec![global_std / k as f64 + min_std; k];
        let mut weights = vec![1.0 / k as f64; k];

        let mut scratch = vec![0.0f64; (k + 2) * BLOCK];
        let n = data.len() as f64;
        for _ in 0..EM_ITERS {
            let moments = e_step(data, &weights, &means, &stds, &mut scratch);
            for (j, m) in moments.iter().enumerate() {
                let [nk, sum, sq] = m.totals();
                if nk < 1e-10 {
                    weights[j] = 0.0;
                    continue;
                }
                weights[j] = nk / n;
                means[j] = sum / nk;
                let var = (sq / nk - means[j] * means[j]).max(min_std * min_std);
                stds[j] = var.sqrt();
            }
        }

        // Prune near-empty components (VGM-like sparsity) and renormalize.
        let mut out = Self { weights: Vec::new(), means: Vec::new(), stds: Vec::new() };
        for j in 0..k {
            if weights[j] >= WEIGHT_PRUNE_THRESHOLD {
                out.weights.push(weights[j]);
                out.means.push(means[j]);
                out.stds.push(stds[j]);
            }
        }
        if out.weights.is_empty() {
            // Everything pruned (pathological); keep the heaviest component.
            let j = weights
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .unwrap_or(0);
            out.weights.push(1.0);
            out.means.push(means[j]);
            out.stds.push(stds[j].max(min_std));
        }
        let total: f64 = out.weights.iter().sum();
        for w in &mut out.weights {
            *w /= total;
        }
        out
    }

    /// Number of surviving components.
    pub fn n_components(&self) -> usize {
        self.weights.len()
    }

    /// Component mixture weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Component means.
    pub fn means(&self) -> &[f64] {
        &self.means
    }

    /// Component standard deviations.
    pub fn stds(&self) -> &[f64] {
        &self.stds
    }

    /// Posterior responsibilities `p(component | x)`.
    pub fn responsibilities(&self, x: f64) -> Vec<f64> {
        let mut resp = vec![0.0; self.n_components()];
        posterior(&self.weights, &self.means, &self.stds, x, &mut resp);
        resp
    }

    /// Samples a component from the posterior `p(component | x)` — the mode
    /// assignment CTGAN uses during encoding.
    pub fn sample_mode(&self, x: f64, rng: &mut StdRng) -> usize {
        // Called once per continuous cell of an encode: the posterior goes
        // to the stack, not to a fresh `Vec` each time.
        let k = self.n_components();
        let mut stack = [0.0f64; STACK_MODES];
        let mut heap = Vec::new();
        let resp = if k <= STACK_MODES {
            &mut stack[..k]
        } else {
            heap.resize(k, 0.0);
            &mut heap[..]
        };
        posterior(&self.weights, &self.means, &self.stds, x, resp);
        let mut u = rng.gen::<f64>();
        for (i, &r) in resp.iter().enumerate() {
            u -= r;
            if u <= 0.0 {
                return i;
            }
        }
        resp.len() - 1
    }

    /// Log-likelihood of the data under the mixture (for tests/diagnostics).
    pub fn log_likelihood(&self, data: &[f64]) -> f64 {
        data.iter()
            .map(|&x| {
                let p: f64 = self
                    .weights
                    .iter()
                    .zip(&self.means)
                    .zip(&self.stds)
                    .map(|((w, m), s)| w * gauss_pdf(x, *m, *s))
                    .sum();
                p.max(1e-300).ln()
            })
            .sum()
    }
}

fn std_dev(data: &[f64]) -> f64 {
    let n = data.len() as f64;
    let mean = data.iter().sum::<f64>() / n;
    (data.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n).sqrt()
}

fn gauss_pdf(x: f64, mean: f64, std: f64) -> f64 {
    let z = (x - mean) / std;
    (-0.5 * z * z).exp() / (std * (2.0 * std::f64::consts::PI).sqrt())
}

/// One E-step sweep: the posterior-weighted moments `Σr, Σr·x, Σr·x²` of
/// every component, `r` being the responsibilities of the mixture
/// `(weights, means, stds)`.
///
/// Per block of [`BLOCK`] rows, component by component: the exponents
/// `e_j = ln w_j − ln(σ_j√2π) − ½((x−μ_j)/σ_j)²` and their row maximum,
/// then `p_j = exp(e_j − max)` and the row total, then one reciprocal per
/// row and the moments. Subtracting the maximum (log-sum-exp) makes the
/// largest term of a row exactly 1, so the total is ≥ 1 however far the
/// row lies from every mean: an outlier gets its true posterior where
/// [`posterior`]'s product form underflows to its nearest-mean fallback. A
/// dead component (`w_j = 0`) has `e_j = −∞` and `p_j = 0` throughout.
///
/// `scratch` is `(k + 2) × BLOCK` long: `k` rows of exponents, the row
/// maxima, the row totals.
fn e_step(
    data: &[f64],
    weights: &[f64],
    means: &[f64],
    stds: &[f64],
    scratch: &mut [f64],
) -> Vec<WeightedMoments> {
    let k = weights.len();
    let sqrt_2pi = (2.0 * std::f64::consts::PI).sqrt();
    let offsets: Vec<f64> = (0..k).map(|j| weights[j].ln() - (stds[j] * sqrt_2pi).ln()).collect();
    let inv_stds: Vec<f64> = stds.iter().map(|s| 1.0 / s).collect();
    let mut moments = vec![WeightedMoments::default(); k];
    let (exps, rest) = scratch.split_at_mut(k * BLOCK);
    let (top, total) = rest.split_at_mut(BLOCK);
    for x in data.chunks(BLOCK) {
        let len = x.len();
        let (top, total) = (&mut top[..len], &mut total[..len]);
        top.fill(f64::NEG_INFINITY);
        for (j, e) in exps.chunks_exact_mut(BLOCK).enumerate() {
            let (offset, mean, inv_std) = (offsets[j], means[j], inv_stds[j]);
            for ((e, t), &x) in e[..len].iter_mut().zip(top.iter_mut()).zip(x) {
                let z = (x - mean) * inv_std;
                *e = offset - 0.5 * z * z;
                if *e > *t {
                    *t = *e;
                }
            }
        }
        total.fill(0.0);
        for e in exps.chunks_exact_mut(BLOCK) {
            let e = &mut e[..len];
            for (e, &t) in e.iter_mut().zip(top.iter()) {
                *e -= t;
            }
            simd::exp_slice_f64(e);
            for (s, &p) in total.iter_mut().zip(e.iter()) {
                *s += p;
            }
        }
        for s in total.iter_mut() {
            *s = 1.0 / *s;
        }
        for (m, p) in moments.iter_mut().zip(exps.chunks_exact(BLOCK)) {
            m.add_block(&p[..len], total, x);
        }
    }
    moments
}

/// The posterior of one value in the product form `w_j·N(x; μ_j, σ_j)`,
/// normalised — what [`Gmm1d::responsibilities`] and [`Gmm1d::sample_mode`]
/// evaluate, so that a given mixture always encodes a cell the same way.
fn posterior(weights: &[f64], means: &[f64], stds: &[f64], x: f64, out: &mut [f64]) {
    let mut total = 0.0;
    for j in 0..weights.len() {
        let p = weights[j] * gauss_pdf(x, means[j], stds[j]);
        out[j] = p;
        total += p;
    }
    if total <= 0.0 {
        // Numerically underflowed everywhere: assign to nearest component.
        let nearest = means
            .iter()
            .enumerate()
            .min_by(|a, b| (a.1 - x).abs().total_cmp(&(b.1 - x).abs()))
            .map(|(i, _)| i)
            .unwrap_or(0);
        out.iter_mut().for_each(|v| *v = 0.0);
        out[nearest] = 1.0;
    } else {
        out.iter_mut().for_each(|v| *v /= total);
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "tests seed their fixtures with literals")]
mod tests {
    use super::*;

    fn bimodal(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let center = if i % 2 == 0 { -5.0 } else { 5.0 };
                center + rng.gen_range(-1.0..1.0)
            })
            .collect()
    }

    #[test]
    fn recovers_two_well_separated_modes() {
        let data = bimodal(2000, 1);
        let gmm = Gmm1d::fit(&data, 10, 0);
        // Every surviving component sits inside one of the two modes, and
        // the mixture mass splits roughly evenly between them.
        let (mut low_mass, mut high_mass) = (0.0, 0.0);
        for (m, w) in gmm.means().iter().zip(gmm.weights()) {
            if *m < 0.0 {
                assert!((m + 5.0).abs() < 1.5, "stray component at {m}");
                low_mass += w;
            } else {
                assert!((m - 5.0).abs() < 1.5, "stray component at {m}");
                high_mass += w;
            }
        }
        assert!((low_mass - 0.5).abs() < 0.1, "low-mode mass {low_mass}");
        assert!((high_mass - 0.5).abs() < 0.1, "high-mode mass {high_mass}");
    }

    #[test]
    fn posterior_assigns_to_nearest_mode() {
        let data = bimodal(1000, 2);
        let gmm = Gmm1d::fit(&data, 4, 0);
        let resp = gmm.responsibilities(-5.0);
        let best =
            resp.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).map(|(i, _)| i).unwrap();
        assert!((gmm.means()[best] + 5.0).abs() < 1.0);
    }

    #[test]
    fn constant_column_yields_single_component() {
        let gmm = Gmm1d::fit(&[3.0; 50], 5, 0);
        assert_eq!(gmm.n_components(), 1);
        assert!((gmm.means()[0] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn constant_column_takes_the_degenerate_branch() {
        // Regression: `range` used to be clamped to 1e-12 *before* the
        // `range < 1e-12` check, so constant columns went through EM and
        // got a loose std near `range * MIN_STD_FRAC` of the clamped value.
        // The degenerate branch must fire and produce one *tight* component
        // centered exactly on the constant.
        let gmm = Gmm1d::fit(&[42.0; 100], 8, 3);
        assert_eq!(gmm.n_components(), 1);
        assert_eq!(gmm.weights(), &[1.0]);
        assert_eq!(gmm.means(), &[42.0]);
        assert!(
            gmm.stds()[0] <= 42.0 * 1e-6 + 1e-12,
            "constant column must get a tight std, got {}",
            gmm.stds()[0]
        );
        // Negative and zero-valued constants hit the same branch.
        let neg = Gmm1d::fit(&[-7.5; 20], 3, 0);
        assert_eq!(neg.means(), &[-7.5]);
        let zero = Gmm1d::fit(&[0.0; 20], 3, 0);
        assert_eq!(zero.means(), &[0.0]);
        assert!(zero.stds()[0] >= 1e-6, "std floor must stay positive for zeros");
    }

    #[test]
    fn weights_sum_to_one() {
        let data = bimodal(500, 3);
        let gmm = Gmm1d::fit(&data, 6, 1);
        let total: f64 = gmm.weights().iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn more_components_dont_hurt_likelihood_much() {
        let data = bimodal(1000, 4);
        let g2 = Gmm1d::fit(&data, 2, 0);
        let g8 = Gmm1d::fit(&data, 8, 0);
        assert!(g8.log_likelihood(&data) >= g2.log_likelihood(&data) - 50.0);
    }

    #[test]
    fn sample_mode_follows_posterior() {
        let data = bimodal(1000, 5);
        let gmm = Gmm1d::fit(&data, 4, 0);
        let mut rng = StdRng::seed_from_u64(9);
        let mode = gmm.sample_mode(5.0, &mut rng);
        assert!((gmm.means()[mode] - 5.0).abs() < 1.5);
    }

    #[test]
    fn rejects_non_finite_data_instead_of_fitting_nan() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut data = bimodal(500, 6);
            data[123] = bad;
            let panic = std::panic::catch_unwind(|| Gmm1d::fit(&data, 3, 0)).unwrap_err();
            let message = panic.downcast_ref::<&str>().copied().unwrap_or_default();
            assert!(message.contains("non-finite"), "{bad}: {message}");
        }
    }

    #[test]
    #[should_panic(expected = "empty data")]
    fn rejects_empty() {
        let _ = Gmm1d::fit(&[], 3, 0);
    }
}
