//! The server's reconstruction attack from §3.1.5 (Fig. 5/6).
//!
//! A semi-honest server observes, every round, the conditional vectors and
//! the matching row indices `idx_p`. Joining `(index, hot bit)` pairs over
//! rounds reconstructs the one-hot encoding of every categorical column —
//! *unless* clients re-shuffle their rows each round with a seed the server
//! does not know, in which case the joins land on different individuals and
//! the inference table degrades to noise. [`ServerObserver`] implements
//! exactly what the server can accumulate; the reconstruction accuracy with
//! and without *training-with-shuffling* is the paper's Fig. 5 vs Fig. 6.

use gtv_cond::CondLayout;
use gtv_data::Table;

/// What the server accumulates from `(CV, idx_p)` observations.
#[derive(Debug, Clone)]
pub struct ServerObserver {
    n_rows: usize,
    width: usize,
    /// `counts[row * width + bit]` — times `bit` was indicated for `row`.
    counts: Vec<u64>,
}

impl ServerObserver {
    /// Creates an observer for `n_rows` data indices and a `width`-bit CV.
    pub fn new(n_rows: usize, width: usize) -> Self {
        Self { n_rows, width, counts: vec![0; n_rows * width] }
    }

    /// Number of observable data indices.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// CV width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Records one batch of observations: row `indices[k]` was indicated
    /// with hot bit `bits[k]`.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length or anything is out of range.
    pub fn record(&mut self, indices: &[u32], bits: &[usize]) {
        assert_eq!(indices.len(), bits.len(), "index/bit count mismatch");
        for (&idx, &bit) in indices.iter().zip(bits) {
            let idx = idx as usize;
            assert!(idx < self.n_rows, "row index {idx} out of range");
            assert!(bit < self.width, "bit {bit} out of range");
            self.counts[idx * self.width + bit] += 1;
        }
    }

    /// Total observations recorded.
    pub fn observations(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The server's best guess of the category of `row` within CV bit range
    /// `[start, start + width)` — the majority observed bit, or `None` if
    /// that row/column pair was never observed.
    pub fn inferred_category(&self, row: usize, start: usize, width: usize) -> Option<usize> {
        let slice = &self.counts[row * self.width + start..row * self.width + start + width];
        let (best, &count) = slice.iter().enumerate().max_by_key(|(_, &c)| c)?;
        if count == 0 {
            None
        } else {
            Some(best)
        }
    }

    /// Fraction of *observed* `(row, categorical column)` cells whose
    /// inferred category matches `truth`. This is the attack success rate of
    /// Fig. 5; with training-with-shuffling it collapses toward the chance
    /// rate (Fig. 6).
    ///
    /// `truth[c]` gives, for global categorical column `c` (in CV layout
    /// order), its CV bit offset, category count, and per-row true
    /// categories.
    pub fn reconstruction_accuracy(&self, truth: &[ColumnTruth]) -> ReconstructionReport {
        let mut observed = 0usize;
        let mut correct = 0usize;
        for col in truth {
            for row in 0..self.n_rows.min(col.categories.len()) {
                if let Some(inferred) =
                    self.inferred_category(row, col.bit_offset, col.n_categories)
                {
                    observed += 1;
                    if inferred == col.categories[row] as usize {
                        correct += 1;
                    }
                }
            }
        }
        ReconstructionReport {
            observed_cells: observed,
            correct_cells: correct,
            accuracy: if observed == 0 { 0.0 } else { correct as f64 / observed as f64 },
        }
    }
}

/// Ground truth for one categorical column in CV-bit space.
#[derive(Debug, Clone)]
pub struct ColumnTruth {
    /// First CV bit of the column's category block.
    pub bit_offset: usize,
    /// Number of categories.
    pub n_categories: usize,
    /// True category per row (in the order the attack targets — the
    /// clients' *initial* row order).
    pub categories: Vec<u32>,
}

/// Outcome of the reconstruction attack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReconstructionReport {
    /// `(row, column)` cells the server observed at least once.
    pub observed_cells: usize,
    /// Observed cells inferred correctly.
    pub correct_cells: usize,
    /// `correct / observed` (0 when nothing was observed).
    pub accuracy: f64,
}

/// What a *curious client* accumulates in the rejected peer-to-peer
/// index-sharing design (§3.1.6): how often each (initial) row was selected
/// as a conditional-vector match. CTGAN's log-frequency sampling makes
/// minority-category rows appear far more often than their base rate, so a
/// client that never saw the CV can still infer which rows share a minority
/// category in the CV contributor's columns — the leak that motivates GTV's
/// server-side index sharing. Shuffling does not help: clients know the
/// shared permutation and can map indices back to individuals.
#[derive(Debug, Clone)]
pub struct ClientIndexObserver {
    counts: Vec<u64>,
}

impl ClientIndexObserver {
    /// Creates an observer over `n_rows` individuals.
    pub fn new(n_rows: usize) -> Self {
        Self { counts: vec![0; n_rows] }
    }

    /// Records one batch of observed (initial-order) row selections.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn record(&mut self, initial_rows: &[usize]) {
        for &r in initial_rows {
            self.counts[r] += 1;
        }
    }

    /// Selection count per initial row.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total selections observed.
    pub fn observations(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The `k` most frequently selected rows.
    pub fn top_rows(&self, k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.counts.len()).collect();
        idx.sort_by(|&a, &b| self.counts[b].cmp(&self.counts[a]));
        idx.truncate(k);
        idx
    }

    /// Fraction of the top-`|minority|` selected rows that really belong to
    /// the minority set — the curious client's inference precision.
    pub fn minority_precision(&self, minority_rows: &[usize]) -> f64 {
        if minority_rows.is_empty() {
            return 0.0;
        }
        let set: std::collections::HashSet<usize> = minority_rows.iter().copied().collect();
        let top = self.top_rows(minority_rows.len());
        top.iter().filter(|r| set.contains(r)).count() as f64 / minority_rows.len() as f64
    }
}

/// Builds [`ColumnTruth`] entries for every categorical column of the
/// clients' initial tables, laid out per the global [`CondLayout`].
pub fn column_truths<'a>(
    initial_tables: impl IntoIterator<Item = &'a Table>,
    layout: &CondLayout,
) -> Vec<ColumnTruth> {
    let mut out = Vec::new();
    for (client, table) in initial_tables.into_iter().enumerate() {
        let mut local_offset = 0;
        for (ci, meta) in table.schema().columns().iter().enumerate() {
            let Some(k) = meta.kind.n_categories() else { continue };
            out.push(ColumnTruth {
                bit_offset: layout.offset(client) + local_offset,
                n_categories: k,
                categories: table.column(ci).as_cat().to_vec(),
            });
            local_offset += k;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn majority_vote_inference() {
        let mut obs = ServerObserver::new(3, 4);
        obs.record(&[0, 0, 0], &[1, 1, 0]);
        assert_eq!(obs.inferred_category(0, 0, 2), Some(1));
        assert_eq!(obs.inferred_category(1, 0, 2), None);
        assert_eq!(obs.observations(), 3);
    }

    #[test]
    fn perfect_observations_reconstruct_exactly() {
        // Column with 2 categories at bits 0..2; rows 0,1,2 have cats 0,1,1.
        let mut obs = ServerObserver::new(3, 2);
        obs.record(&[0, 1, 2], &[0, 1, 1]);
        let truth = vec![ColumnTruth { bit_offset: 0, n_categories: 2, categories: vec![0, 1, 1] }];
        let r = obs.reconstruction_accuracy(&truth);
        assert_eq!(r.observed_cells, 3);
        assert_eq!(r.accuracy, 1.0);
    }

    #[test]
    fn scrambled_observations_reconstruct_poorly() {
        // Same truth, but the indices the server sees point at shuffled
        // rows — the attack degrades.
        let mut obs = ServerObserver::new(4, 2);
        // True categories: [0, 0, 1, 1]; observed pairs are misaligned.
        obs.record(&[2, 3, 0, 1], &[0, 0, 1, 1]);
        let truth =
            vec![ColumnTruth { bit_offset: 0, n_categories: 2, categories: vec![0, 0, 1, 1] }];
        let r = obs.reconstruction_accuracy(&truth);
        assert_eq!(r.accuracy, 0.0);
    }
}
