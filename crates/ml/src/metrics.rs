//! Classification metrics: accuracy, macro-F1, macro one-vs-rest ROC AUC.

/// Fraction of correct predictions.
///
/// # Panics
///
/// Panics if the slices differ in length or are empty.
pub fn accuracy(pred: &[u32], truth: &[u32]) -> f64 {
    assert_eq!(pred.len(), truth.len(), "length mismatch");
    assert!(!pred.is_empty(), "empty predictions");
    let hits = pred.iter().zip(truth).filter(|(p, t)| p == t).count();
    hits as f64 / pred.len() as f64
}

/// Macro-averaged F1 over the classes present in `truth`.
///
/// # Panics
///
/// Panics if the slices differ in length or are empty.
pub fn macro_f1(pred: &[u32], truth: &[u32], n_classes: usize) -> f64 {
    assert_eq!(pred.len(), truth.len(), "length mismatch");
    assert!(!pred.is_empty(), "empty predictions");
    let mut f1_sum = 0.0;
    let mut present = 0usize;
    for c in 0..n_classes as u32 {
        let tp = pred.iter().zip(truth).filter(|(&p, &t)| p == c && t == c).count();
        let fp = pred.iter().zip(truth).filter(|(&p, &t)| p == c && t != c).count();
        let fn_ = pred.iter().zip(truth).filter(|(&p, &t)| p != c && t == c).count();
        if tp + fn_ == 0 {
            continue; // class absent from truth
        }
        present += 1;
        if tp == 0 {
            continue;
        }
        let (tp, fp, fn_) = (tp as f64, fp as f64, fn_ as f64);
        let precision = tp / (tp + fp);
        let recall = tp / (tp + fn_);
        f1_sum += 2.0 * precision * recall / (precision + recall);
    }
    if present == 0 {
        0.0
    } else {
        f1_sum / present as f64
    }
}

/// ROC AUC for one class given per-sample scores (probability of that class)
/// and binary relevance, computed via the rank statistic (ties averaged).
#[expect(clippy::float_cmp, reason = "rank ties are exact equality by definition")]
fn binary_auc(scores: &[f64], positive: &[bool]) -> Option<f64> {
    let n_pos = positive.iter().filter(|&&p| p).count();
    let n_neg = positive.len() - n_pos;
    if n_pos == 0 || n_neg == 0 {
        return None;
    }
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    idx.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]));
    // Average ranks over ties.
    let mut ranks = vec![0.0f64; scores.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && scores[idx[j + 1]] == scores[idx[i]] {
            j += 1;
        }
        let avg_rank = (i + j) as f64 / 2.0 + 1.0;
        for k in i..=j {
            ranks[idx[k]] = avg_rank;
        }
        i = j + 1;
    }
    let rank_sum: f64 = ranks.iter().zip(positive).filter(|(_, &p)| p).map(|(r, _)| *r).sum();
    let auc = (rank_sum - (n_pos * (n_pos + 1)) as f64 / 2.0) / (n_pos * n_neg) as f64;
    Some(auc)
}

/// Macro-averaged one-vs-rest ROC AUC from per-class probability scores.
///
/// `proba[r][c]` is the score of class `c` for sample `r`. Classes absent
/// from `truth` are skipped.
///
/// # Panics
///
/// Panics if `proba` and `truth` differ in length or are empty.
pub fn macro_auc(proba: &[Vec<f64>], truth: &[u32], n_classes: usize) -> f64 {
    assert_eq!(proba.len(), truth.len(), "length mismatch");
    assert!(!proba.is_empty(), "empty predictions");
    let mut total = 0.0;
    let mut counted = 0usize;
    for c in 0..n_classes {
        let scores: Vec<f64> = proba.iter().map(|p| p[c]).collect();
        let positive: Vec<bool> = truth.iter().map(|&t| t as usize == c).collect();
        if let Some(a) = binary_auc(&scores, &positive) {
            total += a;
            counted += 1;
        }
    }
    if counted == 0 {
        0.5
    } else {
        total / counted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_basics() {
        assert_eq!(accuracy(&[1, 0, 1], &[1, 0, 0]), 2.0 / 3.0);
        assert_eq!(accuracy(&[1], &[1]), 1.0);
    }

    #[test]
    fn f1_perfect_and_worst() {
        assert_eq!(macro_f1(&[0, 1, 0, 1], &[0, 1, 0, 1], 2), 1.0);
        assert_eq!(macro_f1(&[1, 0, 1, 0], &[0, 1, 0, 1], 2), 0.0);
    }

    #[test]
    fn f1_skips_absent_classes() {
        // Class 2 never appears in truth; macro-F1 averages over 2 classes.
        let f1 = macro_f1(&[0, 1, 0, 1], &[0, 1, 0, 1], 3);
        assert_eq!(f1, 1.0);
    }

    #[test]
    fn auc_perfect_separation() {
        let proba = vec![vec![0.9, 0.1], vec![0.8, 0.2], vec![0.2, 0.8], vec![0.1, 0.9]];
        let truth = [0, 0, 1, 1];
        assert_eq!(macro_auc(&proba, &truth, 2), 1.0);
    }

    #[test]
    fn auc_random_scores_near_half() {
        let proba: Vec<Vec<f64>> = (0..200)
            .map(|i| {
                let s = ((i * 37) % 101) as f64 / 101.0;
                vec![s, 1.0 - s]
            })
            .collect();
        let truth: Vec<u32> = (0..200).map(|i| (i % 2) as u32).collect();
        let auc = macro_auc(&proba, &truth, 2);
        assert!((auc - 0.5).abs() < 0.1, "auc {auc}");
    }

    #[test]
    fn auc_handles_ties() {
        let proba = vec![vec![0.5, 0.5]; 4];
        let truth = [0, 0, 1, 1];
        assert_eq!(macro_auc(&proba, &truth, 2), 0.5);
    }
}
