//! # gtv-metrics
//!
//! Statistical-similarity metrics from the paper's evaluation (§4.2.2):
//!
//! * [`average_jsd`] — mean Jensen–Shannon divergence over categorical
//!   columns;
//! * [`average_wd`] — mean (range-normalized) Wasserstein distance over
//!   continuous/mixed columns;
//! * [`diff_corr`] — ℓ² difference of dython-style association matrices
//!   (Pearson / correlation ratio / Cramér's V), plus the paper's
//!   [`avg_client_diff_corr`] and [`across_client_diff_corr`] variants for
//!   vertically-partitioned data.
//!
//! # Examples
//!
//! ```
//! use gtv_data::Dataset;
//! use gtv_metrics::similarity;
//!
//! let real = Dataset::Adult.generate(300, 0);
//! let synth = Dataset::Adult.generate(300, 1);
//! let report = similarity(&real, &synth);
//! assert!(report.avg_jsd < 0.2);
//! ```

#![cfg_attr(not(test), deny(clippy::float_cmp))]

mod association;
mod divergence;
mod mia;
mod similarity;

pub use association::{
    associations, correlation_ratio, cramers_v, cross_associations, matrix_l2_diff, pearson,
};
pub use divergence::{jsd, wasserstein_1d};
pub use mia::{membership_inference, MiaReport};
pub use similarity::{
    across_client_diff_corr, average_jsd, average_wd, avg_client_diff_corr, diff_corr, similarity,
    SimilarityReport,
};
