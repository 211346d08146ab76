//! `Gmm1d::fit` against the scalar E-step it replaced.
//!
//! The fit used to evaluate every posterior in the product form
//! `w_j·N(x; μ_j, σ_j) / Σ` with libm's `exp`, one row at a time. That loop
//! is kept here, verbatim, as the oracle: same initialisation and RNG draws,
//! same M-step, floor, pruning and renormalisation. The blocked log-domain
//! E-step must reach the same mixture up to rounding — with one deliberate
//! exception. When a row lay so far from every mean that all `k` products
//! underflowed to zero, the old loop gave the whole row to the *nearest
//! mean*; in the log domain nothing underflows and the row gets its true
//! posterior, which with unequal `σ_j` need not even favour the nearest
//! mean. The oracle therefore counts such rows and can run with either
//! rule: [`Underflow::TruePosterior`] must agree with the fit on every
//! column, and [`Underflow::NearestMean`] — the parent commit's behaviour —
//! wherever its fallback never fired.

#![expect(
    clippy::disallowed_methods,
    reason = "tests seed their fixtures with literals and generated seeds"
)]

use gtv_data::{ColumnKind, Dataset};
use gtv_encoders::Gmm1d;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const WEIGHT_PRUNE_THRESHOLD: f64 = 0.005;
const EM_ITERS: usize = 60;
const MIN_STD_FRAC: f64 = 1e-4;

/// What the oracle does with a row whose `k` products all underflow.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Underflow {
    /// The parent commit's rule: the row goes to the nearest mean.
    NearestMean,
    /// The row's posterior, from the exponents (scalar, libm).
    TruePosterior,
}

#[derive(Debug, Clone, PartialEq)]
struct Mixture {
    weights: Vec<f64>,
    means: Vec<f64>,
    stds: Vec<f64>,
}

#[derive(Debug)]
struct OracleFit {
    /// The parameters before the first sweep (`None` for a constant column).
    initial: Option<Mixture>,
    fitted: Mixture,
    /// (row, sweep) pairs whose products all underflowed.
    underflowed: usize,
    /// Components with `nk < 1e-10` after the first sweep.
    dead_after_first_sweep: usize,
}

/// The parent commit's `Gmm1d::fit`, with the underflow rule switchable and
/// the two counters added.
fn oracle_fit(data: &[f64], max_components: usize, seed: u64, rule: Underflow) -> OracleFit {
    let mut rng = StdRng::seed_from_u64(seed);

    let lo = data.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if hi - lo < 1e-12 {
        return OracleFit {
            initial: None,
            fitted: Mixture {
                weights: vec![1.0],
                means: vec![lo],
                stds: vec![1e-6_f64.max(lo.abs() * 1e-6)],
            },
            underflowed: 0,
            dead_after_first_sweep: 0,
        };
    }
    let range = (hi - lo).max(1e-12);
    let min_std = range * MIN_STD_FRAC;

    let k = max_components.min(data.len());
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
    let initial =
        Some(Mixture { weights: weights.clone(), means: means.clone(), stds: stds.clone() });

    let (mut underflowed, mut dead_after_first_sweep) = (0, 0);
    let mut resp = vec![0.0f64; k];
    for sweep in 0..EM_ITERS {
        let mut nk = vec![0.0f64; k];
        let mut sum = vec![0.0f64; k];
        let mut sq = vec![0.0f64; k];
        for &x in data {
            underflowed += usize::from(posterior(&weights, &means, &stds, x, &mut resp, rule));
            for j in 0..k {
                nk[j] += resp[j];
                sum[j] += resp[j] * x;
                sq[j] += resp[j] * x * x;
            }
        }
        let n = data.len() as f64;
        for j in 0..k {
            if nk[j] < 1e-10 {
                weights[j] = 0.0;
                dead_after_first_sweep += usize::from(sweep == 0);
                continue;
            }
            weights[j] = nk[j] / n;
            means[j] = sum[j] / nk[j];
            let var = (sq[j] / nk[j] - means[j] * means[j]).max(min_std * min_std);
            stds[j] = var.sqrt();
        }
    }

    let mut out = Mixture { weights: Vec::new(), means: Vec::new(), stds: Vec::new() };
    for j in 0..k {
        if weights[j] >= WEIGHT_PRUNE_THRESHOLD {
            out.weights.push(weights[j]);
            out.means.push(means[j]);
            out.stds.push(stds[j]);
        }
    }
    if out.weights.is_empty() {
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
    OracleFit { initial, fitted: out, underflowed, dead_after_first_sweep }
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

/// The parent's `posterior`; returns whether every product underflowed.
fn posterior(
    weights: &[f64],
    means: &[f64],
    stds: &[f64],
    x: f64,
    out: &mut [f64],
    rule: Underflow,
) -> bool {
    let mut total = 0.0;
    for j in 0..weights.len() {
        let p = weights[j] * gauss_pdf(x, means[j], stds[j]);
        out[j] = p;
        total += p;
    }
    if total > 0.0 {
        out.iter_mut().for_each(|v| *v /= total);
        return false;
    }
    match rule {
        Underflow::NearestMean => {
            let nearest = means
                .iter()
                .enumerate()
                .min_by(|a, b| (a.1 - x).abs().total_cmp(&(b.1 - x).abs()))
                .map(|(i, _)| i)
                .unwrap_or(0);
            out.iter_mut().for_each(|v| *v = 0.0);
            out[nearest] = 1.0;
        }
        Underflow::TruePosterior => {
            let mixture =
                Mixture { weights: weights.to_vec(), means: means.to_vec(), stds: stds.to_vec() };
            let exponents = mixture.exponents(x);
            let top = exponents.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let mut total = 0.0;
            for (o, e) in out.iter_mut().zip(&exponents) {
                *o = (e - top).exp();
                total += *o;
            }
            out.iter_mut().for_each(|v| *v /= total);
        }
    }
    true
}

impl Mixture {
    fn of(gmm: &Gmm1d) -> Self {
        Self {
            weights: gmm.weights().to_vec(),
            means: gmm.means().to_vec(),
            stds: gmm.stds().to_vec(),
        }
    }

    /// `ln(w_j·N(x; μ_j, σ_j))` per component.
    fn exponents(&self, x: f64) -> Vec<f64> {
        (0..self.weights.len())
            .map(|j| {
                let z = (x - self.means[j]) / self.stds[j];
                self.weights[j].ln()
                    - (self.stds[j] * (2.0 * std::f64::consts::PI).sqrt()).ln()
                    - 0.5 * z * z
            })
            .collect()
    }

    /// Log-likelihood by log-sum-exp, so that no row is floored.
    fn log_likelihood(&self, data: &[f64]) -> f64 {
        data.iter()
            .map(|&x| {
                let e = self.exponents(x);
                let top = e.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                top + e.iter().map(|v| (v - top).exp()).sum::<f64>().ln()
            })
            .sum()
    }

    /// Largest relative difference of any parameter; infinite if the
    /// component counts differ.
    fn distance(&self, other: &Self) -> f64 {
        if self.weights.len() != other.weights.len() {
            return f64::INFINITY;
        }
        let pairs = self
            .weights
            .iter()
            .zip(&other.weights)
            .chain(self.means.iter().zip(&other.means))
            .chain(self.stds.iter().zip(&other.stds));
        pairs.map(|(a, b)| (a - b).abs() / a.abs().max(b.abs()).max(1e-300)).fold(0.0, f64::max)
    }

    fn assert_well_formed(&self, what: &str) {
        let total: f64 = self.weights.iter().sum();
        assert!((total - 1.0).abs() < 1e-12, "{what}: weights sum to {total}");
        assert!(self.weights.iter().all(|w| *w > 0.0 && w.is_finite()), "{what}: {self:?}");
        assert!(self.means.iter().all(|m| m.is_finite()), "{what}: {self:?}");
        assert!(self.stds.iter().all(|s| *s > 0.0 && s.is_finite()), "{what}: {self:?}");
    }
}

/// Rounding only: the two sides run the same EM in different arithmetic.
const SAME_ARITHMETIC: f64 = 1e-9;

/// A column moved by the underflow rule may lose this much log-likelihood
/// against the parent's mixture, relative to its magnitude (measured: at
/// worst 7e-9 lower, at best 1.7% higher).
const LIKELIHOOD_SLACK: f64 = 1e-6;

/// How a column's fit relates to the parent commit's.
struct Comparison {
    /// Rows × sweeps in which the parent's nearest-mean fallback fired.
    underflowed: usize,
    /// Distance from the parent's mixture.
    from_parent: f64,
    /// Log-likelihood of the data under the fit, less that under the
    /// parent's mixture, relative to the latter's magnitude.
    likelihood_gain: f64,
}

/// Fits `data` and checks it against the oracle under both rules.
fn compare(data: &[f64], k: usize, seed: u64, what: &str) -> Comparison {
    let fitted = Mixture::of(&Gmm1d::fit(data, k, seed));
    fitted.assert_well_formed(what);
    let parent = oracle_fit(data, k, seed, Underflow::NearestMean);
    // Without an underflowed row the two rules are the same computation.
    let log_domain = if parent.underflowed == 0 {
        parent.fitted.clone()
    } else {
        oracle_fit(data, k, seed, Underflow::TruePosterior).fitted
    };
    let d = fitted.distance(&log_domain);
    assert!(d <= SAME_ARITHMETIC, "{what}: {d:e} from the scalar log-domain oracle");
    assert_eq!(
        fitted.weights.len(),
        parent.fitted.weights.len(),
        "{what}: component count moved against the parent"
    );
    let (ours, theirs) = (fitted.log_likelihood(data), parent.fitted.log_likelihood(data));
    Comparison {
        underflowed: parent.underflowed,
        from_parent: fitted.distance(&parent.fitted),
        likelihood_gain: (ours - theirs) / theirs.abs(),
    }
}

/// The cells a column's GMM is fitted on: all of a continuous column, the
/// non-special cells of a mixed one (`MixedEncoder::fit`'s own filter).
fn fitted_cells(table: &gtv_data::Table, column: usize) -> Option<Vec<f64>> {
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()));
    match &table.schema().column(column).kind {
        ColumnKind::Continuous => Some(table.column(column).as_float().to_vec()),
        ColumnKind::Mixed { special_values } => {
            let cells: Vec<f64> = table
                .column(column)
                .as_float()
                .iter()
                .copied()
                .filter(|v| !special_values.iter().any(|s| close(*s, *v)))
                .collect();
            (!cells.is_empty()).then_some(cells)
        }
        ColumnKind::Categorical { .. } => None,
    }
}

#[test]
fn the_five_datasets_fit_to_the_oracles_mixtures() {
    let (mut without, mut with) = (0, 0);
    let mut moved = 0.0f64;
    for ds in Dataset::all() {
        let table = ds.generate(2_000, 7);
        for ci in 0..table.n_cols() {
            let Some(cells) = fitted_cells(&table, ci) else { continue };
            let what = format!("{ds} column {ci}");
            let c = compare(&cells, 5, 7 + ci as u64, &what);
            if c.underflowed == 0 {
                // Same EM, same rule: the parent's mixture to rounding.
                assert!(c.from_parent <= SAME_ARITHMETIC, "{what}: {:e}", c.from_parent);
                without += 1;
            } else {
                // The deliberate change: the parent handed these rows to the
                // nearest mean in the first sweep, and on a short heavy-tailed
                // column sixty sweeps may end in another optimum (an outlier
                // with a component of its own). Same number of modes, and a
                // mixture that explains the column no worse.
                assert!(c.likelihood_gain >= -LIKELIHOOD_SLACK, "{what}: {:e}", c.likelihood_gain);
                moved = moved.max(c.from_parent);
                with += 1;
            }
        }
    }
    // Both kinds of column must be in the sample for the test to mean
    // anything.
    assert!(without >= 40 && with >= 10, "{without} columns without an underflow, {with} with");
    assert!(moved > SAME_ARITHMETIC, "no fallback column differs from the parent any more");
}

fn modes(centers: &[(f64, f64)], n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let (center, half_width) = centers[i % centers.len()];
            center + rng.gen_range(-1.0..1.0) * half_width
        })
        .collect()
}

#[test]
fn synthetic_modal_columns_fit_to_the_parents_mixtures() {
    let columns = [
        ("bimodal", modes(&[(-5.0, 1.0), (5.0, 1.0)], 3_000, 1)),
        ("bimodal, unequal widths", modes(&[(0.0, 0.2), (40.0, 6.0)], 3_000, 2)),
        ("trimodal", modes(&[(-20.0, 2.0), (0.0, 0.5), (30.0, 4.0)], 3_000, 3)),
        ("trimodal, crowded", modes(&[(0.0, 1.0), (2.5, 1.0), (5.0, 1.0)], 3_000, 4)),
    ];
    for (name, data) in &columns {
        for k in [2, 5, 10] {
            let c = compare(data, k, 11, &format!("{name}, k = {k}"));
            assert_eq!(c.underflowed, 0, "{name}, k = {k}: bounded modes do not underflow");
            assert!(c.from_parent <= SAME_ARITHMETIC, "{name}, k = {k}: {:e}", c.from_parent);
        }
    }
}

#[test]
fn every_block_shape_fits_to_finite_parameters() {
    // One row, less than a lane group, one group and its neighbours, one
    // block and its neighbours, two blocks and a row.
    for n in [1usize, 2, 7, 8, 9, 255, 256, 257, 513] {
        let data = modes(&[(-3.0, 1.0), (4.0, 0.5)], n, n as u64);
        for k in [1, 3, 5] {
            compare(&data, k, 5, &format!("n = {n}, k = {k}"));
        }
    }
    // More components asked for than rows given.
    for (n, k) in [(2usize, 5usize), (3, 10), (7, 8)] {
        let data = modes(&[(0.0, 1.0), (10.0, 1.0)], n, 40 + n as u64);
        let gmm = Gmm1d::fit(&data, k, 0);
        assert!(gmm.n_components() <= n, "n = {n}, k = {k}");
        compare(&data, k, 0, &format!("n = {n}, k = {k}"));
    }
}

#[test]
fn a_component_that_dies_in_the_first_sweep_stays_dead() {
    // A tight bulk and one far point: the range is the outlier's, so the 1%
    // jitter of the initial means is several initial σ wide, and a
    // component jittered away from the bulk loses every row to one that was
    // not (`nk < 1e-10`; its weight becomes 0 and its exponent −∞).
    let mut data = modes(&[(0.0, 1e-5)], 4_999, 8);
    data.push(1.0);
    let parent = oracle_fit(&data, 20, 3, Underflow::NearestMean);
    assert!(parent.dead_after_first_sweep > 0, "the fixture no longer kills a component");
    compare(&data, 20, 3, "dying component");
}

#[test]
fn a_sixty_sigma_outlier_gets_a_posterior_not_a_fallback() {
    // Two modes of width 1 and one row sixty standard deviations of the
    // whole column away: under the initial parameters every product
    // underflows for it, which is what the parent's fallback was for.
    let mut data = modes(&[(-5.0, 1.0), (5.0, 1.0)], 2_000, 9);
    let outlier = 60.0 * std_dev(&data);
    data.push(outlier);
    let c = compare(&data, 5, 1, "60σ outlier");
    assert!(c.underflowed > 0, "the outlier no longer underflows in the parent's arithmetic");
    let gmm = Gmm1d::fit(&data, 5, 1);
    let far = gmm.means().iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    assert!(far < outlier, "one row in 2001 is below the pruning threshold: {gmm:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// EM never ends below where it started: the log-likelihood of the
    /// fitted mixture is at least that of the initial parameters.
    #[test]
    fn fit_does_not_lower_the_likelihood(
        data in proptest::collection::vec(-50.0f64..50.0, 20..160),
        k in 1usize..8,
        seed in 0u64..1_000,
    ) {
        let fitted = Mixture::of(&Gmm1d::fit(&data, k, seed));
        let oracle = oracle_fit(&data, k, seed, Underflow::TruePosterior);
        let initial = oracle.initial.expect("twenty draws from a continuous range are not constant");
        let (before, after) = (initial.log_likelihood(&data), fitted.log_likelihood(&data));
        prop_assert!(after >= before, "log-likelihood fell from {before} to {after}");
    }

    /// `fit` is a pure function of `(data, max_components, seed)`: no state
    /// survives a call, and other fits in between change nothing.
    #[test]
    fn fit_is_a_pure_function_of_its_arguments(
        data in proptest::collection::vec(-50.0f64..50.0, 1..600),
        k in 1usize..8,
        seed in 0u64..1_000,
    ) {
        let first = Gmm1d::fit(&data, k, seed);
        let _ = Gmm1d::fit(&data[..data.len() / 2 + 1], k + 1, seed + 1);
        let copy = data.clone();
        prop_assert_eq!(&first, &Gmm1d::fit(&copy, k, seed));
    }
}
