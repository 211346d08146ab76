//! # gtv-cond
//!
//! CTGAN-style conditional vectors (CVs) for GTV.
//!
//! A conditional vector has one bit per category of every categorical column
//! in the *whole federation*; exactly one bit is hot. In GTV each training
//! round the server picks one client `p` (by the feature-ratio vector `P_r`)
//! to construct the batch of CVs: for every row, client `p` samples one of
//! *its* categorical columns uniformly, samples a category from that column's
//! **log-frequency** distribution (CTGAN's training-by-sampling), and picks a
//! real row whose cell matches the sampled category, uniformly among those
//! rows (`idx_p`). Bits belonging to other clients stay zero.
//!
//! A sampler is built once, from the client's table as loaded, and draws
//! rows of that table. The end-of-round shuffle does not touch it: the
//! trainer announces each drawn row at its current (shuffled) position.
//!
//! [`ClientCondSampler`] implements the per-client construction,
//! [`CondLayout`] tracks the global bit layout across clients, and
//! [`CondBatch`] carries the sampled choices plus matching row indices.
//!
//! # Examples
//!
//! ```
//! use gtv_cond::ClientCondSampler;
//! use gtv_data::Dataset;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let table = Dataset::Loan.generate(300, 0);
//! let sampler = ClientCondSampler::from_table(&table).expect("loan has categorical columns");
//! let mut rng = StdRng::seed_from_u64(1);
//! let batch = sampler.sample_batch(16, &mut rng);
//! assert_eq!(batch.choices.len(), 16);
//! assert_eq!(batch.row_indices.len(), 16);
//! ```

use gtv_data::Table;
use gtv_tensor::Tensor;
use rand::rngs::StdRng;
use rand::Rng;

/// One sampled condition: which of the constructing client's categorical
/// columns, and which category.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CondChoice {
    /// Index into the client's categorical-column list (its "slot").
    pub slot: usize,
    /// The original column index in the client's local table.
    pub column: usize,
    /// The sampled category.
    pub category: usize,
}

/// A batch of conditions plus the matching real-row indices (`idx_p`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CondBatch {
    /// Per-row sampled conditions.
    pub choices: Vec<CondChoice>,
    /// Per-row index of a real row whose cell matches the condition: a row
    /// of the table as loaded, the one the sampler was built from.
    pub row_indices: Vec<usize>,
}

#[derive(Debug, Clone, PartialEq)]
struct CondColumn {
    /// Column index in the client's local table.
    column: usize,
    /// Bit offset of this column's categories within the client's CV block.
    local_offset: usize,
    n_categories: usize,
    /// Log-frequency sampling distribution over categories (sums to 1).
    log_probs: Vec<f64>,
    /// Raw category frequencies (`pools[c].len()`, as the weights
    /// generation-time sampling draws from).
    freqs: Vec<f64>,
    /// Row indices per category.
    pools: Vec<Vec<usize>>,
}

/// Per-client conditional-vector sampler.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientCondSampler {
    columns: Vec<CondColumn>,
    width: usize,
}

impl ClientCondSampler {
    /// Builds a sampler from a client's local table, or `None` if the table
    /// has no categorical columns (such a client can never be chosen to
    /// construct the CV).
    ///
    /// The sampler is built once, from the table as loaded, and never
    /// changes: the rows it draws ([`CondBatch::row_indices`]) are rows of
    /// that table, whatever shuffles the client has applied since.
    pub fn from_table(table: &Table) -> Option<Self> {
        let mut columns = Vec::new();
        let mut offset = 0usize;
        for (ci, meta) in table.schema().columns().iter().enumerate() {
            let Some(k) = meta.kind.n_categories() else { continue };
            let cells = table.column(ci).as_cat();
            let mut pools: Vec<Vec<usize>> = vec![Vec::new(); k];
            for (r, &cell) in cells.iter().enumerate() {
                pools[cell as usize].push(r);
            }
            let counts: Vec<usize> = pools.iter().map(Vec::len).collect();
            // CTGAN log-frequency: P(cat) ∝ log(1 + count); empty categories
            // can never be sampled (no matching row exists).
            let logs: Vec<f64> = counts.iter().map(|&c| ((1 + c) as f64).ln()).collect();
            let total: f64 =
                logs.iter().zip(&counts).filter(|(_, &c)| c > 0).map(|(l, _)| *l).sum();
            let log_probs = logs
                .iter()
                .zip(&counts)
                .map(|(l, &c)| if c > 0 && total > 0.0 { l / total } else { 0.0 })
                .collect();
            columns.push(CondColumn {
                column: ci,
                local_offset: offset,
                n_categories: k,
                log_probs,
                freqs: counts.iter().map(|&c| c as f64).collect(),
                pools,
            });
            offset += k;
        }
        if columns.is_empty() {
            None
        } else {
            Some(Self { columns, width: offset })
        }
    }

    /// Width of this client's CV block (sum of its category counts).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of categorical columns.
    pub fn n_columns(&self) -> usize {
        self.columns.len()
    }

    /// Bit offset of `(slot, category)` within this client's CV block.
    pub fn local_bit(&self, slot: usize, category: usize) -> usize {
        let col = &self.columns[slot];
        assert!(category < col.n_categories, "category out of range");
        col.local_offset + category
    }

    /// The local table column index behind a slot.
    pub fn column_of_slot(&self, slot: usize) -> usize {
        self.columns[slot].column
    }

    /// Number of categories in a slot's column — the exclusive upper bound
    /// on the `category` accepted by [`ClientCondSampler::local_bit`].
    /// Callers validating external requests (the synthesis server) check
    /// against this before materializing, keeping the panic inside
    /// `local_bit` unreachable.
    pub fn categories_of_slot(&self, slot: usize) -> usize {
        self.columns[slot].n_categories
    }

    /// Finds the slot backing local table column `column`, if that column is
    /// categorical.
    pub fn slot_of_column(&self, column: usize) -> Option<usize> {
        self.columns.iter().position(|c| c.column == column)
    }

    /// Samples a batch of conditions from the *original* (raw) category
    /// frequencies — the distribution CTGAN uses when *generating* data, as
    /// opposed to the log-frequency distribution used during training.
    pub fn sample_batch_original(&self, batch: usize, rng: &mut StdRng) -> Vec<CondChoice> {
        (0..batch)
            .map(|_| {
                let slot = rng.gen_range(0..self.columns.len());
                let col = &self.columns[slot];
                let category = sample_discrete_unnormalized(&col.freqs, rng);
                CondChoice { slot, column: col.column, category }
            })
            .collect()
    }

    /// Samples a batch of conditions and matching row indices.
    pub fn sample_batch(&self, batch: usize, rng: &mut StdRng) -> CondBatch {
        let mut choices = Vec::with_capacity(batch);
        let mut row_indices = Vec::with_capacity(batch);
        for _ in 0..batch {
            let slot = rng.gen_range(0..self.columns.len());
            let col = &self.columns[slot];
            let category = sample_discrete(&col.log_probs, rng);
            let pool = &col.pools[category];
            debug_assert!(!pool.is_empty(), "sampled an empty category");
            let row = pool[rng.gen_range(0..pool.len())];
            choices.push(CondChoice { slot, column: col.column, category });
            row_indices.push(row);
        }
        CondBatch { choices, row_indices }
    }

    /// Materializes choices as one-hot rows within a global CV of width
    /// `total_width`, with this client's block starting at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if the block does not fit in the global width.
    pub fn materialize(&self, choices: &[CondChoice], offset: usize, total_width: usize) -> Tensor {
        assert!(offset + self.width <= total_width, "client CV block does not fit");
        let mut out = Tensor::zeros(choices.len(), total_width);
        for (r, ch) in choices.iter().enumerate() {
            let bit = offset + self.local_bit(ch.slot, ch.category);
            out.set(r, bit, 1.0);
        }
        out
    }
}

fn sample_discrete_unnormalized(weights: &[f64], rng: &mut StdRng) -> usize {
    let total: f64 = weights.iter().sum();
    debug_assert!(total > 0.0, "weights must have positive mass");
    let mut u = rng.gen::<f64>() * total;
    let mut last_nonzero = 0;
    for (i, &w) in weights.iter().enumerate() {
        if w > 0.0 {
            last_nonzero = i;
        }
        u -= w;
        if u <= 0.0 && w > 0.0 {
            return i;
        }
    }
    last_nonzero
}

fn sample_discrete(probs: &[f64], rng: &mut StdRng) -> usize {
    let mut u = rng.gen::<f64>();
    let mut last_nonzero = 0;
    for (i, &p) in probs.iter().enumerate() {
        if p > 0.0 {
            last_nonzero = i;
        }
        u -= p;
        if u <= 0.0 && p > 0.0 {
            return i;
        }
    }
    last_nonzero
}

/// Global CV layout: one contiguous block per client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CondLayout {
    offsets: Vec<usize>,
    widths: Vec<usize>,
    total: usize,
}

impl CondLayout {
    /// Builds a layout from per-client block widths (0 for clients without
    /// categorical columns).
    pub fn new(widths: Vec<usize>) -> Self {
        let mut offsets = Vec::with_capacity(widths.len());
        let mut cursor = 0;
        for &w in &widths {
            offsets.push(cursor);
            cursor += w;
        }
        Self { offsets, widths, total: cursor }
    }

    /// Total CV width.
    pub fn total_width(&self) -> usize {
        self.total
    }

    /// Offset of a client's block.
    pub fn offset(&self, client: usize) -> usize {
        self.offsets[client]
    }

    /// Width of a client's block.
    pub fn width(&self, client: usize) -> usize {
        self.widths[client]
    }

    /// Number of clients.
    pub fn n_clients(&self) -> usize {
        self.widths.len()
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "tests seed their fixtures with literals")]
mod tests {
    use super::*;
    use gtv_data::{ColumnData, ColumnKind, ColumnMeta, Schema};
    use rand::SeedableRng;

    fn demo_table() -> Table {
        let schema = Schema::new(
            vec![
                ColumnMeta::new("x", ColumnKind::Continuous),
                ColumnMeta::new("g", ColumnKind::categorical(["a", "b"])),
                ColumnMeta::new("h", ColumnKind::categorical(["p", "q", "r"])),
            ],
            None,
        );
        Table::new(
            schema,
            vec![
                ColumnData::Float((0..10).map(|i| i as f64).collect()),
                ColumnData::Cat(vec![0, 0, 0, 0, 0, 0, 0, 0, 1, 1]),
                ColumnData::Cat(vec![0, 1, 2, 0, 1, 2, 0, 1, 2, 0]),
            ],
        )
    }

    #[test]
    fn width_is_sum_of_categories() {
        let s = ClientCondSampler::from_table(&demo_table()).unwrap();
        assert_eq!(s.width(), 5);
        assert_eq!(s.n_columns(), 2);
    }

    #[test]
    fn no_categorical_columns_gives_none() {
        let schema = Schema::new(vec![ColumnMeta::new("x", ColumnKind::Continuous)], None);
        let t = Table::new(schema, vec![ColumnData::Float(vec![1.0, 2.0])]);
        assert!(ClientCondSampler::from_table(&t).is_none());
    }

    #[test]
    fn sampled_rows_match_condition() {
        let t = demo_table();
        let s = ClientCondSampler::from_table(&t).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let batch = s.sample_batch(200, &mut rng);
        for (ch, &row) in batch.choices.iter().zip(&batch.row_indices) {
            let cell = t.column(ch.column).as_cat()[row] as usize;
            assert_eq!(cell, ch.category, "row {row} does not satisfy its condition");
        }
    }

    #[test]
    fn log_frequency_boosts_minorities() {
        // Column g is 80/20; log-frequency sampling should give the minority
        // class far more than 20% of the conditions on that column.
        let t = demo_table();
        let s = ClientCondSampler::from_table(&t).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let batch = s.sample_batch(4000, &mut rng);
        let g_choices: Vec<&CondChoice> = batch.choices.iter().filter(|c| c.column == 1).collect();
        let minority = g_choices.iter().filter(|c| c.category == 1).count() as f64;
        let frac = minority / g_choices.len() as f64;
        assert!(frac > 0.3, "minority condition fraction {frac} should exceed raw 20%");
    }

    #[test]
    fn materialize_sets_exactly_one_bit() {
        let t = demo_table();
        let s = ClientCondSampler::from_table(&t).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let batch = s.sample_batch(32, &mut rng);
        let layout = CondLayout::new(vec![s.width(), 4]);
        let cv = s.materialize(&batch.choices, layout.offset(0), layout.total_width());
        assert_eq!(cv.shape(), (32, 9));
        for r in 0..32 {
            let row = cv.row_slice(r);
            assert_eq!(row.iter().sum::<f32>(), 1.0);
            // The hot bit lies inside client 0's block.
            let hot = row.iter().position(|&v| v == 1.0).unwrap();
            assert!(hot < 5);
        }
    }

    #[test]
    fn layout_offsets_accumulate() {
        let l = CondLayout::new(vec![3, 0, 4]);
        assert_eq!(l.total_width(), 7);
        assert_eq!(l.offset(0), 0);
        assert_eq!(l.offset(1), 3);
        assert_eq!(l.offset(2), 3);
        assert_eq!(l.width(2), 4);
        assert_eq!(l.n_clients(), 3);
    }

    #[test]
    fn original_frequency_draws_are_those_of_the_pool_sizes() {
        // The definition `sample_batch_original` had before the frequencies
        // were kept at construction: weights recomputed from the pools for
        // every row.
        let reference = |s: &ClientCondSampler, batch: usize, rng: &mut StdRng| {
            (0..batch)
                .map(|_| {
                    let slot = rng.gen_range(0..s.columns.len());
                    let col = &s.columns[slot];
                    let freqs: Vec<f64> = col.pools.iter().map(|p| p.len() as f64).collect();
                    let category = sample_discrete_unnormalized(&freqs, rng);
                    CondChoice { slot, column: col.column, category }
                })
                .collect::<Vec<_>>()
        };
        let t = demo_table();
        for s in [
            ClientCondSampler::from_table(&t).unwrap(),
            ClientCondSampler::from_table(&t.select_rows(&[9, 9, 2, 0, 5])).unwrap(),
        ] {
            let (mut a, mut b) = (StdRng::seed_from_u64(11), StdRng::seed_from_u64(11));
            assert_eq!(s.sample_batch_original(300, &mut a), reference(&s, 300, &mut b));
            // Same draws consumed, too: the streams stay in step.
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn empty_categories_never_sampled() {
        let schema = Schema::new(
            vec![ColumnMeta::new("g", ColumnKind::categorical(["a", "b", "never"]))],
            None,
        );
        let t = Table::new(schema, vec![ColumnData::Cat(vec![0, 1, 0, 1, 0])]);
        let s = ClientCondSampler::from_table(&t).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let batch = s.sample_batch(500, &mut rng);
        assert!(batch.choices.iter().all(|c| c.category != 2));
    }
}
