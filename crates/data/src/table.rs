//! Column-oriented table with the row/column operations vertical federated
//! learning needs: seeded shuffling, vertical split/concat, stratified
//! sampling.

use crate::schema::{ColumnKind, Schema};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// The data of a single column.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// Real values (used by continuous and mixed columns).
    Float(Vec<f64>),
    /// Category indices into the schema's category list.
    Cat(Vec<u32>),
}

impl ColumnData {
    /// Number of cells.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Float(v) => v.len(),
            ColumnData::Cat(v) => v.len(),
        }
    }

    /// True if the column holds no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Float view.
    ///
    /// # Panics
    ///
    /// Panics if the column is categorical.
    pub fn as_float(&self) -> &[f64] {
        match self {
            ColumnData::Float(v) => v,
            ColumnData::Cat(_) => panic!("column is categorical, not float"),
        }
    }

    /// Category-index view.
    ///
    /// # Panics
    ///
    /// Panics if the column is continuous.
    pub fn as_cat(&self) -> &[u32] {
        match self {
            ColumnData::Cat(v) => v,
            ColumnData::Float(_) => panic!("column is float, not categorical"),
        }
    }

    fn select(&self, idx: &[usize]) -> ColumnData {
        match self {
            ColumnData::Float(v) => ColumnData::Float(idx.iter().map(|&i| v[i]).collect()),
            ColumnData::Cat(v) => ColumnData::Cat(idx.iter().map(|&i| v[i]).collect()),
        }
    }
}

/// An immutable-schema, column-oriented table.
///
/// # Examples
///
/// ```
/// use gtv_data::{ColumnData, ColumnKind, ColumnMeta, Schema, Table};
///
/// let schema = Schema::new(
///     vec![
///         ColumnMeta::new("age", ColumnKind::Continuous),
///         ColumnMeta::new("gender", ColumnKind::categorical(["M", "F"])),
///     ],
///     None,
/// );
/// let table = Table::new(
///     schema,
///     vec![
///         ColumnData::Float(vec![31.0, 45.0]),
///         ColumnData::Cat(vec![0, 1]),
///     ],
/// );
/// assert_eq!(table.n_rows(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    schema: Schema,
    columns: Vec<ColumnData>,
    n_rows: usize,
}

impl Table {
    /// Creates a table from a schema and matching columns.
    ///
    /// # Panics
    ///
    /// Panics if the column count or lengths disagree, if a categorical
    /// column's data is not [`ColumnData::Cat`], if a continuous/mixed
    /// column's data is not [`ColumnData::Float`], or if any category index
    /// is out of vocabulary.
    pub fn new(schema: Schema, columns: Vec<ColumnData>) -> Self {
        assert_eq!(schema.len(), columns.len(), "schema/column count mismatch");
        let n_rows = columns.first().map_or(0, ColumnData::len);
        for (meta, col) in schema.columns().iter().zip(&columns) {
            assert_eq!(col.len(), n_rows, "column '{}' has wrong length", meta.name);
            match (&meta.kind, col) {
                (ColumnKind::Categorical { categories }, ColumnData::Cat(vals)) => {
                    let k = categories.len() as u32;
                    assert!(
                        vals.iter().all(|&v| v < k),
                        "column '{}' has out-of-vocabulary category index",
                        meta.name
                    );
                }
                (ColumnKind::Continuous | ColumnKind::Mixed { .. }, ColumnData::Float(_)) => {}
                _ => panic!("column '{}' data does not match its kind", meta.name),
            }
        }
        Self { schema, columns, n_rows }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.columns.len()
    }

    /// Data of column `i`.
    pub fn column(&self, i: usize) -> &ColumnData {
        &self.columns[i]
    }

    /// Data of the column with the given name.
    pub fn column_by_name(&self, name: &str) -> Option<&ColumnData> {
        self.schema.index_of(name).map(|i| &self.columns[i])
    }

    /// Target labels (category indices), if the schema declares a target.
    pub fn target_labels(&self) -> Option<&[u32]> {
        self.schema.target().map(|t| self.columns[t].as_cat())
    }

    /// Number of target classes, if the schema declares a target.
    pub fn n_target_classes(&self) -> Option<usize> {
        self.schema.target().and_then(|t| self.schema.column(t).kind.n_categories())
    }

    /// New table with the given rows (indices may repeat).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_rows(&self, indices: &[usize]) -> Table {
        assert!(indices.iter().all(|&i| i < self.n_rows), "row index out of bounds");
        Table {
            schema: self.schema.clone(),
            columns: self.columns.iter().map(|c| c.select(indices)).collect(),
            n_rows: indices.len(),
        }
    }

    /// New table restricted to the given columns (in the given order).
    pub fn select_columns(&self, indices: &[usize]) -> Table {
        Table {
            schema: self.schema.project(indices),
            columns: indices.iter().map(|&i| self.columns[i].clone()).collect(),
            n_rows: self.n_rows,
        }
    }

    /// The permutation that a seeded shuffle would apply: all parties using
    /// the same seed derive the same permutation — this is the shared-seed
    /// `Shuffle` of the GTV protocol.
    pub fn shuffle_permutation(n_rows: usize, seed: u64) -> Vec<usize> {
        let mut perm: Vec<usize> = (0..n_rows).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        perm.shuffle(&mut rng);
        perm
    }

    /// Returns the table with rows permuted by the shared-seed shuffle.
    pub fn shuffled(&self, seed: u64) -> Table {
        let perm = Self::shuffle_permutation(self.n_rows, seed);
        self.select_rows(&perm)
    }

    /// Vertically splits the table into column groups.
    ///
    /// # Panics
    ///
    /// Panics if the groups do not form a partition of the column set.
    pub fn vertical_split(&self, groups: &[Vec<usize>]) -> Vec<Table> {
        let mut seen = vec![false; self.n_cols()];
        for g in groups {
            for &i in g {
                assert!(i < self.n_cols(), "column index {i} out of range");
                assert!(!seen[i], "column index {i} appears in two groups");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "groups must cover every column");
        groups.iter().map(|g| self.select_columns(g)).collect()
    }

    /// Horizontally concatenates tables with identical row counts.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty, row counts differ, or more than one part
    /// declares a target.
    pub fn hconcat(parts: &[&Table]) -> Table {
        assert!(!parts.is_empty(), "hconcat requires at least one part");
        let n_rows = parts[0].n_rows;
        assert!(parts.iter().all(|p| p.n_rows == n_rows), "hconcat: row count mismatch");
        let schemas: Vec<&Schema> = parts.iter().map(|p| &p.schema).collect();
        let schema = Schema::concat(&schemas);
        let columns = parts.iter().flat_map(|p| p.columns.iter().cloned()).collect();
        Table { schema, columns, n_rows }
    }

    /// Splits into `(train, test)` with `test_frac` of rows in the test set,
    /// stratified by the target column when one exists.
    pub fn train_test_split(&self, test_frac: f64, seed: u64) -> (Table, Table) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut test_idx: Vec<usize> = Vec::new();
        let mut train_idx: Vec<usize> = Vec::new();
        if let Some(labels) = self.target_labels() {
            let mut by_class: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
            for (i, &l) in labels.iter().enumerate() {
                by_class.entry(l).or_default().push(i);
            }
            for mut idx in by_class.into_values() {
                idx.shuffle(&mut rng);
                let n_test = ((idx.len() as f64) * test_frac).round() as usize;
                test_idx.extend_from_slice(&idx[..n_test]);
                train_idx.extend_from_slice(&idx[n_test..]);
            }
        } else {
            let mut idx: Vec<usize> = (0..self.n_rows).collect();
            idx.shuffle(&mut rng);
            let n_test = ((self.n_rows as f64) * test_frac).round() as usize;
            test_idx.extend_from_slice(&idx[..n_test]);
            train_idx.extend_from_slice(&idx[n_test..]);
        }
        train_idx.sort_unstable();
        test_idx.sort_unstable();
        (self.select_rows(&train_idx), self.select_rows(&test_idx))
    }

    /// Randomly samples `n` rows, stratified by the target when one exists
    /// (the paper samples 50 K rows of Covertype/Credit/Intrusion this way).
    ///
    /// # Panics
    ///
    /// Panics if `n > n_rows`.
    pub fn stratified_sample(&self, n: usize, seed: u64) -> Table {
        assert!(n <= self.n_rows, "cannot sample {n} rows from {}", self.n_rows);
        let mut rng = StdRng::seed_from_u64(seed);
        let frac = n as f64 / self.n_rows as f64;
        let mut chosen: Vec<usize> = Vec::with_capacity(n);
        if let Some(labels) = self.target_labels() {
            let mut by_class: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
            for (i, &l) in labels.iter().enumerate() {
                by_class.entry(l).or_default().push(i);
            }
            for mut idx in by_class.into_values() {
                idx.shuffle(&mut rng);
                let k = ((idx.len() as f64) * frac).round().max(1.0) as usize;
                chosen.extend_from_slice(&idx[..k.min(idx.len())]);
            }
        } else {
            let mut idx: Vec<usize> = (0..self.n_rows).collect();
            idx.shuffle(&mut rng);
            chosen.extend_from_slice(&idx[..n]);
        }
        // Trim or top up to exactly n.
        chosen.shuffle(&mut rng);
        while chosen.len() < n {
            chosen.push(rng.gen_range(0..self.n_rows));
        }
        chosen.truncate(n);
        chosen.sort_unstable();
        self.select_rows(&chosen)
    }

    /// Empirical distribution of a categorical column (counts per category).
    ///
    /// # Panics
    ///
    /// Panics if column `i` is not categorical.
    pub fn category_counts(&self, i: usize) -> Vec<usize> {
        let k = self
            .schema
            .column(i)
            .kind
            .n_categories()
            .unwrap_or_else(|| panic!("column {i} is not categorical"));
        let mut counts = vec![0usize; k];
        for &v in self.columns[i].as_cat() {
            counts[v as usize] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnMeta;

    fn demo_table() -> Table {
        let schema = Schema::new(
            vec![
                ColumnMeta::new("x", ColumnKind::Continuous),
                ColumnMeta::new("g", ColumnKind::categorical(["a", "b"])),
                ColumnMeta::new("y", ColumnKind::categorical(["n", "p"])),
            ],
            Some(2),
        );
        Table::new(
            schema,
            vec![
                ColumnData::Float(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
                ColumnData::Cat(vec![0, 1, 0, 1, 0, 1]),
                ColumnData::Cat(vec![0, 0, 0, 0, 1, 1]),
            ],
        )
    }

    #[test]
    fn construction_validates() {
        let t = demo_table();
        assert_eq!(t.n_rows(), 6);
        assert_eq!(t.n_cols(), 3);
        assert_eq!(t.category_counts(2), vec![4, 2]);
    }

    #[test]
    #[should_panic(expected = "out-of-vocabulary")]
    fn rejects_bad_category_index() {
        let schema = Schema::new(vec![ColumnMeta::new("g", ColumnKind::categorical(["a"]))], None);
        let _ = Table::new(schema, vec![ColumnData::Cat(vec![1])]);
    }

    #[test]
    fn shuffle_same_seed_same_perm() {
        let t = demo_table();
        let a = t.shuffled(42);
        let b = t.shuffled(42);
        assert_eq!(a, b);
        let c = t.shuffled(43);
        assert_ne!(a, c);
        // Shuffle is a permutation: same multiset of values.
        let mut orig = t.column(0).as_float().to_vec();
        let mut shuf = a.column(0).as_float().to_vec();
        orig.sort_by(f64::total_cmp);
        shuf.sort_by(f64::total_cmp);
        assert_eq!(orig, shuf);
    }

    #[test]
    fn shuffle_keeps_rows_aligned_across_vertical_parts() {
        // The GTV invariant: shuffling two vertical shards with the same seed
        // keeps each row aligned to the same individual.
        let t = demo_table();
        let parts = t.vertical_split(&[vec![0], vec![1, 2]]);
        let a = parts[0].shuffled(7);
        let b = parts[1].shuffled(7);
        let joined = Table::hconcat(&[&a, &b]);
        let direct = t.shuffled(7);
        assert_eq!(joined, direct);
    }

    #[test]
    fn vertical_split_and_concat_roundtrip() {
        let t = demo_table();
        let parts = t.vertical_split(&[vec![0, 2], vec![1]]);
        assert_eq!(parts[0].n_cols(), 2);
        assert_eq!(parts[0].schema().target(), Some(1));
        let rejoined = Table::hconcat(&[&parts[0], &parts[1]]);
        assert_eq!(rejoined.n_cols(), 3);
        assert_eq!(rejoined.column_by_name("g"), t.column_by_name("g"));
    }

    #[test]
    #[should_panic(expected = "cover every column")]
    fn vertical_split_requires_partition() {
        let t = demo_table();
        let _ = t.vertical_split(&[vec![0]]);
    }

    #[test]
    fn stratified_split_preserves_class_ratio() {
        let t = demo_table();
        let (train, test) = t.train_test_split(0.5, 1);
        assert_eq!(train.n_rows() + test.n_rows(), 6);
        // Both splits should contain at least one positive.
        assert!(train.target_labels().unwrap().contains(&1));
        assert!(test.target_labels().unwrap().contains(&1));
    }

    #[test]
    fn stratified_sample_exact_size() {
        let t = demo_table();
        let s = t.stratified_sample(4, 3);
        assert_eq!(s.n_rows(), 4);
    }
}
