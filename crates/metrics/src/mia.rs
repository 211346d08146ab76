//! Distance-based membership-inference attack (MIA) on synthetic tables.
//!
//! §3.3 of the paper discusses MIAs against GANs (GAN-Leaks, TableGAN-MCA):
//! an attacker holding the published synthetic data guesses whether a given
//! record was part of the training set. This module implements the standard
//! black-box *distance-to-closest-record* attack: a candidate scores high
//! (member-like) when some synthetic row lies unusually close to it. The
//! attack is scored as an AUC over known members vs non-members — `0.5`
//! means the synthetic data leaks nothing through proximity.

use gtv_data::{ColumnData, ColumnKind, Table};

/// Outcome of the attack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MiaReport {
    /// Attack AUC over members vs non-members (0.5 = no leakage; 1.0 =
    /// every member is closer to the synthetic data than every non-member).
    pub auc: f64,
    /// Mean distance from members to their closest synthetic row.
    pub member_distance: f64,
    /// Mean distance from non-members to their closest synthetic row.
    pub non_member_distance: f64,
}

/// Numeric embedding: z-scored continuous columns (statistics from the
/// synthetic table — all the attacker has) and one-hot categoricals.
fn embed(table: &Table, stats: &[(f64, f64)]) -> Vec<Vec<f64>> {
    let n = table.n_rows();
    let mut rows = vec![Vec::new(); n];
    let mut stat_idx = 0;
    for (ci, meta) in table.schema().columns().iter().enumerate() {
        match (&meta.kind, table.column(ci)) {
            (ColumnKind::Categorical { categories }, ColumnData::Cat(vals)) => {
                for (r, &v) in vals.iter().enumerate() {
                    for k in 0..categories.len() {
                        rows[r].push(if k == v as usize { 1.0 } else { 0.0 });
                    }
                }
            }
            (_, ColumnData::Float(vals)) => {
                let (mean, std) = stats[stat_idx];
                stat_idx += 1;
                for (r, &v) in vals.iter().enumerate() {
                    rows[r].push((v - mean) / std);
                }
            }
            _ => unreachable!("table invariants guarantee matching kinds"),
        }
    }
    rows
}

fn continuous_stats(table: &Table) -> Vec<(f64, f64)> {
    let mut stats = Vec::new();
    for (ci, meta) in table.schema().columns().iter().enumerate() {
        if !meta.kind.is_categorical() {
            let vals = table.column(ci).as_float();
            let n = vals.len() as f64;
            let mean = vals.iter().sum::<f64>() / n;
            let var = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
            stats.push((mean, var.sqrt().max(1e-9)));
        }
    }
    stats
}

fn min_distance(point: &[f64], cloud: &[Vec<f64>]) -> f64 {
    cloud
        .iter()
        .map(|c| point.iter().zip(c).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt())
        .fold(f64::INFINITY, f64::min)
}

#[expect(clippy::float_cmp, reason = "rank ties are exact equality by definition")]
fn rank_auc(scores_pos: &[f64], scores_neg: &[f64]) -> f64 {
    // AUC = P(pos > neg), ties count half.
    let mut wins = 0.0;
    for p in scores_pos {
        for q in scores_neg {
            if p > q {
                wins += 1.0;
            } else if p == q {
                wins += 0.5;
            }
        }
    }
    wins / (scores_pos.len() * scores_neg.len()) as f64
}

/// Runs the distance-to-closest-record attack.
///
/// `members` are rows that were in the GAN's training data, `non_members`
/// are held-out rows from the same distribution, `synthetic` is the
/// published table. All three must share a schema.
///
/// # Panics
///
/// Panics if schemas differ or any table is empty.
pub fn membership_inference(members: &Table, non_members: &Table, synthetic: &Table) -> MiaReport {
    assert_eq!(members.schema(), synthetic.schema(), "schemas must match");
    assert_eq!(non_members.schema(), synthetic.schema(), "schemas must match");
    assert!(
        members.n_rows() > 0 && non_members.n_rows() > 0 && synthetic.n_rows() > 0,
        "tables must be non-empty"
    );
    let stats = continuous_stats(synthetic);
    let cloud = embed(synthetic, &stats);
    let m = embed(members, &stats);
    let h = embed(non_members, &stats);
    let dm: Vec<f64> = m.iter().map(|p| min_distance(p, &cloud)).collect();
    let dh: Vec<f64> = h.iter().map(|p| min_distance(p, &cloud)).collect();
    // Members should be *closer* ⇒ score = −distance.
    let sm: Vec<f64> = dm.iter().map(|d| -d).collect();
    let sh: Vec<f64> = dh.iter().map(|d| -d).collect();
    MiaReport {
        auc: rank_auc(&sm, &sh),
        member_distance: dm.iter().sum::<f64>() / dm.len() as f64,
        non_member_distance: dh.iter().sum::<f64>() / dh.len() as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtv_data::Dataset;

    #[test]
    fn verbatim_copies_are_fully_exposed() {
        let t = Dataset::Loan.generate(300, 0);
        let (train, holdout) = t.train_test_split(0.5, 1);
        // Worst case: the "synthetic" data IS the training data.
        let report = membership_inference(&train, &holdout, &train);
        assert!(report.auc > 0.95, "verbatim release must be detectable, auc {}", report.auc);
        assert!(report.member_distance < report.non_member_distance);
    }

    #[test]
    fn fresh_samples_leak_nothing() {
        let t = Dataset::Loan.generate(300, 0);
        let (train, holdout) = t.train_test_split(0.5, 1);
        // Independent draw from the same distribution: no membership signal.
        let independent = Dataset::Loan.generate(300, 99);
        let report = membership_inference(&train, &holdout, &independent);
        assert!(
            (report.auc - 0.5).abs() < 0.12,
            "independent synthetic data should score near chance, auc {}",
            report.auc
        );
    }

    #[test]
    fn rank_ties_count_half() {
        // Every pair tied: each counts half, so the statistic sits at chance.
        assert_eq!(rank_auc(&[0.4, 0.4], &[0.4, 0.4, 0.4]), 0.5);
        // Six pairs: 0.9 beats both, 0.5 ties 0.5 (half) and beats 0.1, 0.3
        // beats only 0.1 — (1 + 1 + 0.5 + 1 + 0 + 1) / 6 = 0.75.
        assert_eq!(rank_auc(&[0.9, 0.5, 0.3], &[0.5, 0.1]), 0.75);
    }

    #[test]
    #[should_panic(expected = "schemas must match")]
    fn rejects_schema_mismatch() {
        let a = Dataset::Loan.generate(10, 0);
        let b = Dataset::Adult.generate(10, 0);
        let _ = membership_inference(&a, &a, &b);
    }
}
