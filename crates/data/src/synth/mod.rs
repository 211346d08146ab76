//! Synthetic stand-ins for the paper's five benchmark datasets.
//!
//! The real Adult/Covertype/Intrusion/Credit/Loan tables are external
//! downloads; this module generates seeded synthetic tables with the same
//! *structural* properties — column counts and types, class imbalance,
//! mixed-type columns with point masses, and cross-column correlations — via
//! a class-conditioned latent-factor model:
//!
//! 1. a target class `y` is drawn from the dataset's class priors;
//! 2. a latent factor vector `z ~ N(μ_y, I)` is drawn, where the per-class
//!    means `μ_y` decay across factor indices (so early factors carry strong
//!    class signal and late factors almost none);
//! 3. every feature column mixes the factors through its own weight vector,
//!    giving features a spectrum of importance for predicting `y` and
//!    correlations with each other through the shared factors.
//!
//! The per-dataset *model* (weights, biases) is derived from a fixed internal
//! seed so a dataset is the same distribution across runs; the caller's seed
//! only controls row sampling.

mod datasets;

pub use datasets::Dataset;

use crate::schema::{ColumnKind, ColumnMeta, Schema};
use crate::table::{ColumnData, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How a synthetic feature column is produced from the latent factors.
#[derive(Debug, Clone)]
pub enum SynthKind {
    /// Gaussian-ish continuous value `w·z + ε`, optionally exponentiated for
    /// right skew and affinely rescaled.
    Continuous {
        /// Apply `exp` to induce right skew (income-like columns).
        skew: bool,
        /// Final scale.
        scale: f64,
        /// Final offset.
        offset: f64,
    },
    /// Categorical with `n` classes sampled from factor-driven logits.
    Categorical {
        /// Number of categories.
        n: usize,
    },
    /// Continuous with a point mass: with probability driven by the factors
    /// the cell is exactly `special`, otherwise continuous.
    Mixed {
        /// The special value (e.g. `0.0` for `Mortgage`).
        special: f64,
        /// Base probability of emitting the special value.
        special_prob: f64,
        /// Final scale of the continuous part.
        scale: f64,
        /// Final offset of the continuous part.
        offset: f64,
    },
}

/// Specification of one synthetic column.
#[derive(Debug, Clone)]
pub struct SynthColumn {
    /// Column name.
    pub name: String,
    /// Generation recipe.
    pub kind: SynthKind,
}

impl SynthColumn {
    /// Continuous column without skew.
    pub fn continuous(name: &str, scale: f64, offset: f64) -> Self {
        Self { name: name.into(), kind: SynthKind::Continuous { skew: false, scale, offset } }
    }

    /// Right-skewed continuous column.
    pub fn skewed(name: &str, scale: f64, offset: f64) -> Self {
        Self { name: name.into(), kind: SynthKind::Continuous { skew: true, scale, offset } }
    }

    /// Categorical column with `n` classes.
    pub fn categorical(name: &str, n: usize) -> Self {
        Self { name: name.into(), kind: SynthKind::Categorical { n } }
    }

    /// Binary column.
    pub fn binary(name: &str) -> Self {
        Self::categorical(name, 2)
    }

    /// Mixed column with a point mass at `special`.
    pub fn mixed(name: &str, special: f64, special_prob: f64, scale: f64, offset: f64) -> Self {
        Self { name: name.into(), kind: SynthKind::Mixed { special, special_prob, scale, offset } }
    }
}

/// Full specification of a synthetic dataset.
#[derive(Debug, Clone)]
pub struct SynthSpec {
    /// Dataset name (schema metadata only).
    pub name: String,
    /// Number of latent factors.
    pub n_factors: usize,
    /// Feature columns.
    pub columns: Vec<SynthColumn>,
    /// Target column name.
    pub target_name: String,
    /// Target class priors (must sum to ~1).
    pub class_priors: Vec<f64>,
    /// How quickly class signal decays across factors (larger = fewer
    /// informative factors ⇒ more skewed feature importance).
    pub signal_decay: f64,
    /// Magnitude of the class-conditional factor means. Small values make
    /// individual features weak predictors so that *combining* features
    /// (the paper's Fig. 3 premise) is what yields accuracy.
    pub signal_strength: f64,
    /// Per-feature idiosyncratic noise (std of the additive Gaussian).
    pub feature_noise: f64,
    /// Seed defining the dataset's fixed generative model.
    pub model_seed: u64,
}

/// Per-class logit weight matrix and bias vector of a categorical column.
type CatLogits = (Vec<Vec<f64>>, Vec<f64>);

struct Model {
    /// Per-class factor means `μ_y` (n_classes × n_factors).
    class_means: Vec<Vec<f64>>,
    /// Per-column factor weights.
    col_weights: Vec<Vec<f64>>,
    /// Per-categorical-column logit parameters.
    cat_logits: Vec<Option<CatLogits>>,
}

fn sample_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

impl SynthSpec {
    fn build_model(&self) -> Model {
        #[expect(
            clippy::disallowed_methods,
            reason = "the spec's `model_seed`, a constant of each dataset: the generating model belongs to the dataset, not to a run"
        )]
        let mut rng = StdRng::seed_from_u64(self.model_seed);
        let k = self.n_factors;
        let class_means = (0..self.class_priors.len())
            .map(|_| {
                (0..k)
                    .map(|f| {
                        let strength = (-self.signal_decay * f as f64).exp();
                        sample_normal(&mut rng) * self.signal_strength * strength
                    })
                    .collect()
            })
            .collect();
        let mut col_weights = Vec::with_capacity(self.columns.len());
        let mut cat_logits = Vec::with_capacity(self.columns.len());
        for col in &self.columns {
            // Sparse-ish weights: each column listens to a few factors.
            let weights: Vec<f64> = (0..k)
                .map(|_| if rng.gen::<f64>() < 0.4 { sample_normal(&mut rng) } else { 0.0 })
                .collect();
            col_weights.push(weights);
            match col.kind {
                SynthKind::Categorical { n } => {
                    let w = (0..n)
                        .map(|_| (0..k).map(|_| sample_normal(&mut rng) * 0.8).collect())
                        .collect();
                    let b = (0..n).map(|_| sample_normal(&mut rng) * 0.5).collect();
                    cat_logits.push(Some((w, b)));
                }
                _ => cat_logits.push(None),
            }
        }
        Model { class_means, col_weights, cat_logits }
    }

    /// Generates `rows` rows with the given sampling seed.
    ///
    /// # Panics
    ///
    /// Panics if the spec has no columns or empty class priors.
    pub fn generate(&self, rows: usize, seed: u64) -> Table {
        assert!(!self.columns.is_empty(), "spec has no columns");
        assert!(!self.class_priors.is_empty(), "spec has no class priors");
        let model = self.build_model();
        #[expect(clippy::disallowed_methods, reason = "the caller's `seed`")]
        let mut rng = StdRng::seed_from_u64(seed);
        let k = self.n_factors;
        let n_classes = self.class_priors.len();

        // Per-row latent state.
        let mut labels: Vec<u32> = Vec::with_capacity(rows);
        let mut factors: Vec<Vec<f64>> = Vec::with_capacity(rows);
        for _ in 0..rows {
            let y = sample_from_priors(&self.class_priors, &mut rng);
            let mu = &model.class_means[y];
            let z: Vec<f64> = (0..k).map(|f| mu[f] + sample_normal(&mut rng)).collect();
            labels.push(y as u32);
            factors.push(z);
        }

        let mut columns: Vec<ColumnData> = Vec::with_capacity(self.columns.len() + 1);
        let mut metas: Vec<ColumnMeta> = Vec::with_capacity(self.columns.len() + 1);
        for (ci, col) in self.columns.iter().enumerate() {
            let w = &model.col_weights[ci];
            match &col.kind {
                SynthKind::Continuous { skew, scale, offset } => {
                    let vals = factors
                        .iter()
                        .map(|z| {
                            let raw = dot(w, z) + self.feature_noise * sample_normal(&mut rng);
                            let v = if *skew { raw.exp() } else { raw };
                            v * scale + offset
                        })
                        .collect();
                    columns.push(ColumnData::Float(vals));
                    metas.push(ColumnMeta::new(&col.name, ColumnKind::Continuous));
                }
                SynthKind::Categorical { n } => {
                    let (lw, lb) =
                        model.cat_logits[ci].as_ref().expect("categorical column has logits");
                    let vals = factors
                        .iter()
                        .map(|z| {
                            let logits: Vec<f64> =
                                (0..*n).map(|c| dot(&lw[c], z) + lb[c]).collect();
                            sample_softmax(&logits, &mut rng) as u32
                        })
                        .collect();
                    columns.push(ColumnData::Cat(vals));
                    let labels: Vec<String> =
                        (0..*n).map(|c| format!("{}_{c}", col.name)).collect();
                    metas.push(ColumnMeta::new(&col.name, ColumnKind::categorical(labels)));
                }
                SynthKind::Mixed { special, special_prob, scale, offset } => {
                    let vals = factors
                        .iter()
                        .map(|z| {
                            let gate = dot(w, z) * 0.3;
                            let p = special_prob + 0.2 * gate.tanh();
                            if rng.gen::<f64>() < p.clamp(0.02, 0.98) {
                                *special
                            } else {
                                let raw = dot(w, z) + self.feature_noise * sample_normal(&mut rng);
                                raw.exp() * scale + offset
                            }
                        })
                        .collect();
                    columns.push(ColumnData::Float(vals));
                    metas.push(ColumnMeta::new(
                        &col.name,
                        ColumnKind::Mixed { special_values: vec![*special] },
                    ));
                }
            }
        }

        // Target column last.
        let target_labels: Vec<String> =
            (0..n_classes).map(|c| format!("{}_{c}", self.target_name)).collect();
        metas.push(ColumnMeta::new(&self.target_name, ColumnKind::categorical(target_labels)));
        columns.push(ColumnData::Cat(labels));
        let target_idx = metas.len() - 1;
        Table::new(Schema::new(metas, Some(target_idx)), columns)
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn sample_from_priors(priors: &[f64], rng: &mut StdRng) -> usize {
    let total: f64 = priors.iter().sum();
    let mut u = rng.gen::<f64>() * total;
    for (i, &p) in priors.iter().enumerate() {
        u -= p;
        if u <= 0.0 {
            return i;
        }
    }
    priors.len() - 1
}

fn sample_softmax(logits: &[f64], rng: &mut StdRng) -> usize {
    let max = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = logits.iter().map(|l| (l - max).exp()).collect();
    sample_from_priors(&exps, rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> SynthSpec {
        SynthSpec {
            name: "tiny".into(),
            n_factors: 4,
            columns: vec![
                SynthColumn::continuous("a", 1.0, 0.0),
                SynthColumn::categorical("b", 3),
                SynthColumn::mixed("m", 0.0, 0.5, 1.0, 0.0),
            ],
            target_name: "y".into(),
            class_priors: vec![0.7, 0.3],
            signal_decay: 0.5,
            signal_strength: 2.0,
            feature_noise: 0.5,
            model_seed: 99,
        }
    }

    #[test]
    fn generates_requested_shape() {
        let t = tiny_spec().generate(500, 1);
        assert_eq!(t.n_rows(), 500);
        assert_eq!(t.n_cols(), 4);
        assert_eq!(t.schema().target(), Some(3));
    }

    #[test]
    fn same_seed_same_table_different_seed_differs() {
        let spec = tiny_spec();
        assert_eq!(spec.generate(100, 5), spec.generate(100, 5));
        assert_ne!(spec.generate(100, 5), spec.generate(100, 6));
    }

    #[test]
    fn class_priors_respected() {
        let t = tiny_spec().generate(4000, 2);
        let counts = t.category_counts(3);
        let frac1 = counts[1] as f64 / 4000.0;
        assert!((frac1 - 0.3).abs() < 0.04, "class-1 fraction {frac1}");
    }

    #[test]
    fn mixed_column_has_point_mass() {
        let t = tiny_spec().generate(1000, 3);
        let zeros = t.column(2).as_float().iter().filter(|&&v| v == 0.0).count();
        assert!(zeros > 250 && zeros < 750, "point mass count {zeros}");
    }

    #[test]
    fn features_are_label_correlated() {
        // The first continuous column should differ between classes on
        // average (factors are class-conditioned).
        let t = tiny_spec().generate(4000, 4);
        let labels = t.target_labels().unwrap();
        let vals = t.column(0).as_float();
        let (mut s0, mut n0, mut s1, mut n1) = (0.0, 0.0, 0.0, 0.0);
        for (v, &l) in vals.iter().zip(labels) {
            if l == 0 {
                s0 += v;
                n0 += 1.0;
            } else {
                s1 += v;
                n1 += 1.0;
            }
        }
        let gap = (s0 / n0 - s1 / n1).abs();
        assert!(gap > 0.05, "class-conditional mean gap too small: {gap}");
    }
}
