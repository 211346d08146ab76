//! Column-partition plans and the ratio vector `P_r`.
//!
//! The paper evaluates three ways of distributing columns over clients:
//! random/even splits (§4.3.1, §4.3.3) and importance-sorted `1090` /
//! `5050` / `9010` splits (§4.3.2) where one client holds the most important
//! features and the *other* client holds the target column. `P_r` — each
//! client's share of the total feature count — drives both CV-constructor
//! selection and the proportional splitting of block output widths.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::fmt;

/// How to distribute table columns over clients.
#[derive(Debug, Clone, PartialEq)]
pub enum PartitionPlan {
    /// Columns dealt round-robin over `n` clients in original order (the
    /// paper's "evenly split, column order preserved").
    Even {
        /// Number of clients.
        n_clients: usize,
    },
    /// Columns shuffled with `seed`, then dealt evenly over `n` clients
    /// (§4.3.3's "randomly and evenly distribute").
    RandomEven {
        /// Number of clients.
        n_clients: usize,
        /// Shuffle seed.
        seed: u64,
    },
    /// Two clients: the `important_frac` most important features on client
    /// 0, everything else (plus the target) on client 1. `1090` is
    /// `important_frac = 0.1`, `9010` is `0.9`.
    ByImportance {
        /// Fraction of features (by importance rank) given to client 0.
        important_frac: f64,
    },
    /// Explicit column groups.
    Explicit(Vec<Vec<usize>>),
}

/// Why a [`PartitionPlan`] cannot be materialized against a given table
/// shape. Partition specs arrive from configuration (and, in distributed
/// deployments, from remote parties), so every rejected combination is a
/// typed error rather than a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionError {
    /// `n_clients` is zero or exceeds the column count.
    InvalidClientCount {
        /// Requested client count.
        n_clients: usize,
        /// Available columns.
        n_cols: usize,
    },
    /// `ByImportance` needs a target column and none was supplied.
    MissingTarget,
    /// `ByImportance` needs an importance ranking and none was supplied.
    MissingRanking,
    /// The importance ranking does not list every feature column exactly.
    RankingMismatch {
        /// Entries in the supplied ranking.
        ranking_len: usize,
        /// Feature columns the ranking must cover.
        n_features: usize,
    },
    /// `ByImportance` needs at least two feature columns (one per client).
    TooFewFeatures {
        /// Feature columns available.
        n_features: usize,
    },
    /// An explicit group references a column outside `0..n_cols`.
    ColumnOutOfRange {
        /// The offending column index.
        col: usize,
        /// Available columns.
        n_cols: usize,
    },
    /// An explicit group lists a column already claimed by another group.
    DuplicateColumn {
        /// The column that appears twice.
        col: usize,
    },
    /// Explicit groups leave some column unassigned.
    UncoveredColumn {
        /// The first column no group claims.
        col: usize,
    },
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::InvalidClientCount { n_clients, n_cols } => {
                write!(f, "invalid client count {n_clients} for {n_cols} columns")
            }
            PartitionError::MissingTarget => {
                write!(f, "ByImportance requires a target column")
            }
            PartitionError::MissingRanking => {
                write!(f, "ByImportance requires an importance ranking")
            }
            PartitionError::RankingMismatch { ranking_len, n_features } => write!(
                f,
                "importance ranking lists {ranking_len} columns but there are {n_features} features"
            ),
            PartitionError::TooFewFeatures { n_features } => {
                write!(f, "ByImportance needs at least two feature columns, got {n_features}")
            }
            PartitionError::ColumnOutOfRange { col, n_cols } => {
                write!(f, "column {col} out of range for {n_cols} columns")
            }
            PartitionError::DuplicateColumn { col } => {
                write!(f, "column {col} appears in two groups")
            }
            PartitionError::UncoveredColumn { col } => {
                write!(f, "column {col} is not covered by any group")
            }
        }
    }
}

impl std::error::Error for PartitionError {}

impl PartitionPlan {
    /// Materializes the plan into per-client column groups.
    ///
    /// `n_cols` counts all table columns including the target.
    /// `target` is the target column index (if any); `ByImportance` requires
    /// it. `importance_ranking` lists *feature* columns most-important-first
    /// and is required by `ByImportance`.
    ///
    /// # Errors
    ///
    /// A [`PartitionError`] describing the invalid combination: zero or
    /// oversubscribed client counts, a missing target/ranking for
    /// `ByImportance`, a ranking that doesn't cover the features, or
    /// explicit groups that fail to partition `0..n_cols`.
    pub fn column_groups(
        &self,
        n_cols: usize,
        target: Option<usize>,
        importance_ranking: Option<&[usize]>,
    ) -> Result<Vec<Vec<usize>>, PartitionError> {
        match self {
            PartitionPlan::Even { n_clients } => {
                if *n_clients == 0 || *n_clients > n_cols {
                    return Err(PartitionError::InvalidClientCount {
                        n_clients: *n_clients,
                        n_cols,
                    });
                }
                let mut groups = vec![Vec::new(); *n_clients];
                // Contiguous blocks, preserving download order (paper §4.3.1).
                let base = n_cols / n_clients;
                let extra = n_cols % n_clients;
                let mut cursor = 0;
                for (g, group) in groups.iter_mut().enumerate() {
                    let size = base + usize::from(g < extra);
                    group.extend(cursor..cursor + size);
                    cursor += size;
                }
                Ok(groups)
            }
            PartitionPlan::RandomEven { n_clients, seed } => {
                if *n_clients == 0 || *n_clients > n_cols {
                    return Err(PartitionError::InvalidClientCount {
                        n_clients: *n_clients,
                        n_cols,
                    });
                }
                let mut cols: Vec<usize> = (0..n_cols).collect();
                #[expect(clippy::disallowed_methods, reason = "the plan's `seed`")]
                let mut rng = StdRng::seed_from_u64(*seed);
                cols.shuffle(&mut rng);
                let mut groups = vec![Vec::new(); *n_clients];
                for (i, c) in cols.into_iter().enumerate() {
                    groups[i % n_clients].push(c);
                }
                for g in &mut groups {
                    g.sort_unstable();
                }
                Ok(groups)
            }
            PartitionPlan::ByImportance { important_frac } => {
                let target = target.ok_or(PartitionError::MissingTarget)?;
                let ranking = importance_ranking.ok_or(PartitionError::MissingRanking)?;
                let n_features = n_cols.saturating_sub(1);
                if n_features < 2 {
                    return Err(PartitionError::TooFewFeatures { n_features });
                }
                if ranking.len() != n_features {
                    return Err(PartitionError::RankingMismatch {
                        ranking_len: ranking.len(),
                        n_features,
                    });
                }
                let k = ((n_features as f64) * important_frac)
                    .round()
                    .clamp(1.0, (n_features - 1) as f64) as usize;
                let mut top: Vec<usize> = ranking[..k].to_vec();
                let mut rest: Vec<usize> = ranking[k..].to_vec();
                // Target lives with the *less* important features (paper:
                // "the target column is always located on the client WITHOUT
                // the most important features").
                rest.push(target);
                top.sort_unstable();
                rest.sort_unstable();
                Ok(vec![top, rest])
            }
            PartitionPlan::Explicit(groups) => {
                let mut seen = vec![false; n_cols];
                for g in groups {
                    for &c in g {
                        if c >= n_cols {
                            return Err(PartitionError::ColumnOutOfRange { col: c, n_cols });
                        }
                        if seen[c] {
                            return Err(PartitionError::DuplicateColumn { col: c });
                        }
                        seen[c] = true;
                    }
                }
                if let Some(col) = seen.iter().position(|&s| !s) {
                    return Err(PartitionError::UncoveredColumn { col });
                }
                Ok(groups.clone())
            }
        }
    }
}

/// The ratio vector `P_r`: each client's share of the total column count.
///
/// # Panics
///
/// Panics if `groups` is empty or all groups are empty.
pub fn ratio_vector(groups: &[Vec<usize>]) -> Vec<f64> {
    let total: usize = groups.iter().map(Vec::len).sum();
    assert!(total > 0, "groups must contain columns");
    groups.iter().map(|g| g.len() as f64 / total as f64).collect()
}

/// Splits a total width into per-client widths proportional to `ratios`,
/// guaranteeing `sum == total` and every part ≥ 1.
///
/// # Panics
///
/// Panics if `total < ratios.len()` or `ratios` is empty.
pub fn split_widths(total: usize, ratios: &[f64]) -> Vec<usize> {
    assert!(!ratios.is_empty(), "ratios must be non-empty");
    assert!(total >= ratios.len(), "total width {total} too small for {} parts", ratios.len());
    let mut widths: Vec<usize> =
        ratios.iter().map(|r| ((total as f64) * r).floor().max(1.0) as usize).collect();
    // Fix rounding drift while keeping proportionality.
    let mut diff = total as isize - widths.iter().sum::<usize>() as isize;
    let mut order: Vec<usize> = (0..ratios.len()).collect();
    order.sort_by(|&a, &b| ratios[b].total_cmp(&ratios[a]));
    let mut i = 0;
    while diff != 0 {
        let idx = order[i % order.len()];
        if diff > 0 {
            widths[idx] += 1;
            diff -= 1;
        } else if widths[idx] > 1 {
            widths[idx] -= 1;
            diff += 1;
        }
        i += 1;
    }
    widths
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_partition_contiguous() {
        let groups = PartitionPlan::Even { n_clients: 2 }.column_groups(5, None, None).unwrap();
        assert_eq!(groups, vec![vec![0, 1, 2], vec![3, 4]]);
    }

    #[test]
    fn random_even_is_a_partition() {
        let groups = PartitionPlan::RandomEven { n_clients: 3, seed: 1 }
            .column_groups(10, None, None)
            .unwrap();
        let mut all: Vec<usize> = groups.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
        assert_eq!(
            groups.iter().map(Vec::len).max().unwrap() - groups.iter().map(Vec::len).min().unwrap(),
            1
        );
    }

    #[test]
    fn by_importance_places_target_with_less_important() {
        // 10 columns; target is 9; ranking over features 0..9.
        let ranking: Vec<usize> = vec![4, 2, 7, 0, 1, 3, 5, 6, 8];
        let groups = PartitionPlan::ByImportance { important_frac: 0.1 }
            .column_groups(10, Some(9), Some(&ranking))
            .unwrap();
        assert_eq!(groups[0], vec![4]); // top 10% (1 of 9 features)
        assert!(groups[1].contains(&9), "target must sit on the other client");
        assert_eq!(groups[0].len() + groups[1].len(), 10);
    }

    #[test]
    fn by_importance_9010() {
        let ranking: Vec<usize> = (0..9).collect();
        let groups = PartitionPlan::ByImportance { important_frac: 0.9 }
            .column_groups(10, Some(9), Some(&ranking))
            .unwrap();
        assert_eq!(groups[0].len(), 8); // 90% of 9 ≈ 8 (clamped below n-1)
        assert!(groups[1].contains(&9));
    }

    #[test]
    fn ratio_vector_sums_to_one() {
        let r = ratio_vector(&[vec![0, 1, 2], vec![3]]);
        assert!((r.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((r[0] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn split_widths_exact_and_positive() {
        let w = split_widths(256, &[0.75, 0.25]);
        assert_eq!(w.iter().sum::<usize>(), 256);
        assert_eq!(w, vec![192, 64]);
        let w = split_widths(7, &[0.5, 0.3, 0.2]);
        assert_eq!(w.iter().sum::<usize>(), 7);
        assert!(w.iter().all(|&x| x >= 1));
        // Tiny ratios still get at least one unit.
        let w = split_widths(10, &[0.98, 0.01, 0.01]);
        assert_eq!(w.iter().sum::<usize>(), 10);
        assert!(w[1] >= 1 && w[2] >= 1);
    }

    #[test]
    fn zero_clients_is_rejected() {
        let err = PartitionPlan::Even { n_clients: 0 }.column_groups(5, None, None).unwrap_err();
        assert_eq!(err, PartitionError::InvalidClientCount { n_clients: 0, n_cols: 5 });
    }

    #[test]
    fn more_clients_than_columns_is_rejected() {
        let err = PartitionPlan::RandomEven { n_clients: 7, seed: 0 }
            .column_groups(3, None, None)
            .unwrap_err();
        assert_eq!(err, PartitionError::InvalidClientCount { n_clients: 7, n_cols: 3 });
    }

    #[test]
    fn by_importance_without_target_or_ranking_is_rejected() {
        let plan = PartitionPlan::ByImportance { important_frac: 0.5 };
        assert_eq!(plan.column_groups(10, None, None).unwrap_err(), PartitionError::MissingTarget);
        assert_eq!(
            plan.column_groups(10, Some(9), None).unwrap_err(),
            PartitionError::MissingRanking
        );
    }

    #[test]
    fn by_importance_ranking_mismatch_is_rejected() {
        let short: Vec<usize> = (0..4).collect();
        let err = PartitionPlan::ByImportance { important_frac: 0.5 }
            .column_groups(10, Some(9), Some(&short))
            .unwrap_err();
        assert_eq!(err, PartitionError::RankingMismatch { ranking_len: 4, n_features: 9 });
    }

    #[test]
    fn by_importance_needs_two_features() {
        // n_cols = 0 must not underflow; n_cols = 2 has one feature — both
        // too small to split across two clients.
        let plan = PartitionPlan::ByImportance { important_frac: 0.5 };
        assert_eq!(
            plan.column_groups(0, Some(0), Some(&[])).unwrap_err(),
            PartitionError::TooFewFeatures { n_features: 0 }
        );
        assert_eq!(
            plan.column_groups(2, Some(1), Some(&[0])).unwrap_err(),
            PartitionError::TooFewFeatures { n_features: 1 }
        );
    }

    #[test]
    fn explicit_must_cover() {
        let err = PartitionPlan::Explicit(vec![vec![0]]).column_groups(2, None, None).unwrap_err();
        assert_eq!(err, PartitionError::UncoveredColumn { col: 1 });
    }

    #[test]
    fn explicit_rejects_out_of_range_and_duplicates() {
        let err = PartitionPlan::Explicit(vec![vec![0, 5], vec![1]])
            .column_groups(3, None, None)
            .unwrap_err();
        assert_eq!(err, PartitionError::ColumnOutOfRange { col: 5, n_cols: 3 });
        let err = PartitionPlan::Explicit(vec![vec![0, 1], vec![1, 2]])
            .column_groups(3, None, None)
            .unwrap_err();
        assert_eq!(err, PartitionError::DuplicateColumn { col: 1 });
    }

    #[test]
    fn partition_error_displays_are_diagnosable() {
        let e = PartitionError::InvalidClientCount { n_clients: 0, n_cols: 5 };
        assert!(e.to_string().contains("client count 0"));
        let e = PartitionError::RankingMismatch { ranking_len: 4, n_features: 9 };
        assert!(e.to_string().contains('4') && e.to_string().contains('9'));
    }
}
