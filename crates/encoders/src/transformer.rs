//! Whole-table feature engineering: fits one encoder per column and maps a
//! [`Table`] to/from the dense matrix a tabular GAN trains on.

use crate::msn::{MixedEncoder, ModeSpecificNormalizer};
use crate::onehot::OneHotEncoder;
use gtv_data::{ColumnData, ColumnKind, Schema, Table};
use gtv_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// How a span of encoded columns must be activated by the generator head.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Single scalar (`α`) — `tanh` activation.
    Alpha,
    /// One-hot group (modes, specials or categories) — Gumbel-softmax.
    Indicator,
}

/// A contiguous span of encoded columns sharing one activation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// First encoded column of the span.
    pub start: usize,
    /// Number of encoded columns.
    pub width: usize,
    /// Activation kind.
    pub kind: SpanKind,
}

/// Location of one original column inside the encoded matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnLayout {
    /// Index of the original column.
    pub column: usize,
    /// First encoded column.
    pub start: usize,
    /// Total encoded width of the column.
    pub width: usize,
    /// Activation spans within the column (absolute offsets).
    pub spans: Vec<Span>,
}

/// Info the conditional-vector machinery needs about one categorical column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CategoricalInfo {
    /// Index of the original column.
    pub column: usize,
    /// First encoded column of the one-hot group.
    pub onehot_start: usize,
    /// Number of categories.
    pub n_categories: usize,
    /// Training-data counts per category.
    pub counts: Vec<usize>,
}

#[derive(Debug, Clone)]
enum ColumnEncoder {
    OneHot(OneHotEncoder),
    Msn(ModeSpecificNormalizer),
    Mixed(MixedEncoder),
}

/// Fitted whole-table transformer.
///
/// # Examples
///
/// ```
/// use gtv_data::Dataset;
/// use gtv_encoders::TableTransformer;
///
/// let table = Dataset::Loan.generate(200, 0);
/// let tf = TableTransformer::fit(&table, 5, 0);
/// let encoded = tf.encode(&table, 1);
/// assert_eq!(encoded.rows(), 200);
/// let decoded = tf.decode(&encoded);
/// assert_eq!(decoded.n_rows(), 200);
/// assert_eq!(decoded.schema(), table.schema());
/// ```
#[derive(Debug, Clone)]
pub struct TableTransformer {
    schema: Schema,
    encoders: Vec<ColumnEncoder>,
    layouts: Vec<ColumnLayout>,
    categorical: Vec<CategoricalInfo>,
    width: usize,
}

impl TableTransformer {
    /// Fits encoders for every column of `table`.
    ///
    /// `max_modes` bounds the GMM components for continuous/mixed columns
    /// (CTGAN uses 10; the reproduction's default is 5 for CPU budget).
    ///
    /// # Panics
    ///
    /// Panics if the table has no rows.
    pub fn fit(table: &Table, max_modes: usize, seed: u64) -> Self {
        assert!(table.n_rows() > 0, "cannot fit a transformer on an empty table");
        let schema = table.schema().clone();
        let mut encoders = Vec::with_capacity(schema.len());
        let mut layouts = Vec::with_capacity(schema.len());
        let mut categorical = Vec::new();
        let mut cursor = 0usize;
        for (ci, meta) in schema.columns().iter().enumerate() {
            match &meta.kind {
                ColumnKind::Categorical { categories } => {
                    let enc = OneHotEncoder::new(categories.len());
                    let width = enc.width();
                    layouts.push(ColumnLayout {
                        column: ci,
                        start: cursor,
                        width,
                        spans: vec![Span { start: cursor, width, kind: SpanKind::Indicator }],
                    });
                    categorical.push(CategoricalInfo {
                        column: ci,
                        onehot_start: cursor,
                        n_categories: categories.len(),
                        counts: table.category_counts(ci),
                    });
                    encoders.push(ColumnEncoder::OneHot(enc));
                    cursor += width;
                }
                ColumnKind::Continuous => {
                    let enc = ModeSpecificNormalizer::fit(
                        table.column(ci).as_float(),
                        max_modes,
                        seed.wrapping_add(ci as u64),
                    );
                    let width = enc.width();
                    layouts.push(ColumnLayout {
                        column: ci,
                        start: cursor,
                        width,
                        spans: vec![
                            Span { start: cursor, width: 1, kind: SpanKind::Alpha },
                            Span { start: cursor + 1, width: width - 1, kind: SpanKind::Indicator },
                        ],
                    });
                    encoders.push(ColumnEncoder::Msn(enc));
                    cursor += width;
                }
                ColumnKind::Mixed { special_values } => {
                    let enc = MixedEncoder::fit(
                        table.column(ci).as_float(),
                        special_values,
                        max_modes,
                        seed.wrapping_add(ci as u64),
                    );
                    let width = enc.width();
                    layouts.push(ColumnLayout {
                        column: ci,
                        start: cursor,
                        width,
                        spans: vec![
                            Span { start: cursor, width: 1, kind: SpanKind::Alpha },
                            Span { start: cursor + 1, width: width - 1, kind: SpanKind::Indicator },
                        ],
                    });
                    encoders.push(ColumnEncoder::Mixed(enc));
                    cursor += width;
                }
            }
        }
        Self { schema, encoders, layouts, categorical, width: cursor }
    }

    /// Total encoded width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The fitted schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Per-column layout in the encoded matrix.
    pub fn layouts(&self) -> &[ColumnLayout] {
        &self.layouts
    }

    /// Flattened activation spans (in encoded-column order).
    pub fn spans(&self) -> Vec<Span> {
        self.layouts.iter().flat_map(|l| l.spans.iter().copied()).collect()
    }

    /// Conditional-vector info for every categorical column.
    pub fn categorical_info(&self) -> &[CategoricalInfo] {
        &self.categorical
    }

    /// Encodes a table (which must match the fitted schema) into the dense
    /// training matrix. `seed` drives the stochastic mode assignment.
    ///
    /// # Panics
    ///
    /// Panics if `table`'s schema differs from the fitted schema.
    pub fn encode(&self, table: &Table, seed: u64) -> Tensor {
        assert_eq!(table.schema(), &self.schema, "table schema differs from fitted schema");
        let n = table.n_rows();
        #[expect(clippy::disallowed_methods, reason = "the caller's `seed`")]
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Tensor::zeros(n, self.width);
        let data = out.as_mut_slice();
        for (ci, enc) in self.encoders.iter().enumerate() {
            let layout = &self.layouts[ci];
            match enc {
                ColumnEncoder::OneHot(e) => {
                    let vals = table.column(ci).as_cat();
                    for (r, &v) in vals.iter().enumerate() {
                        let base = r * self.width + layout.start;
                        e.encode_into(v, &mut data[base..base + layout.width]);
                    }
                }
                ColumnEncoder::Msn(e) => {
                    let vals = table.column(ci).as_float();
                    for (r, &v) in vals.iter().enumerate() {
                        let base = r * self.width + layout.start;
                        e.encode_into(v, &mut data[base..base + layout.width], &mut rng);
                    }
                }
                ColumnEncoder::Mixed(e) => {
                    let vals = table.column(ci).as_float();
                    for (r, &v) in vals.iter().enumerate() {
                        let base = r * self.width + layout.start;
                        e.encode_into(v, &mut data[base..base + layout.width], &mut rng);
                    }
                }
            }
        }
        out
    }

    /// Decodes a dense matrix (e.g. generator output) back to a table with
    /// the fitted schema.
    ///
    /// # Panics
    ///
    /// Panics if the matrix width differs from [`TableTransformer::width`].
    pub fn decode(&self, matrix: &Tensor) -> Table {
        assert_eq!(
            matrix.cols(),
            self.width,
            "matrix width {} != encoded width {}",
            matrix.cols(),
            self.width
        );
        let n = matrix.rows();
        let mut columns: Vec<ColumnData> = Vec::with_capacity(self.encoders.len());
        for (ci, enc) in self.encoders.iter().enumerate() {
            let layout = &self.layouts[ci];
            match enc {
                ColumnEncoder::OneHot(e) => {
                    let vals = (0..n)
                        .map(|r| {
                            let row = matrix.row_slice(r);
                            e.decode(&row[layout.start..layout.start + layout.width])
                        })
                        .collect();
                    columns.push(ColumnData::Cat(vals));
                }
                ColumnEncoder::Msn(e) => {
                    let vals = (0..n)
                        .map(|r| {
                            let row = matrix.row_slice(r);
                            e.decode(&row[layout.start..layout.start + layout.width])
                        })
                        .collect();
                    columns.push(ColumnData::Float(vals));
                }
                ColumnEncoder::Mixed(e) => {
                    let vals = (0..n)
                        .map(|r| {
                            let row = matrix.row_slice(r);
                            e.decode(&row[layout.start..layout.start + layout.width])
                        })
                        .collect();
                    columns.push(ColumnData::Float(vals));
                }
            }
        }
        Table::new(self.schema.clone(), columns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtv_data::{ColumnMeta, Dataset};

    fn demo_table() -> Table {
        let schema = Schema::new(
            vec![
                ColumnMeta::new("x", ColumnKind::Continuous),
                ColumnMeta::new("g", ColumnKind::categorical(["a", "b", "c"])),
                ColumnMeta::new("m", ColumnKind::Mixed { special_values: vec![0.0] }),
            ],
            None,
        );
        let x: Vec<f64> = (0..60).map(|i| if i % 2 == 0 { -4.0 } else { 4.0 }).collect();
        let g: Vec<u32> = (0..60).map(|i| (i % 3) as u32).collect();
        let m: Vec<f64> =
            (0..60).map(|i| if i % 4 == 0 { 0.0 } else { 2.0 + (i % 5) as f64 }).collect();
        Table::new(schema, vec![ColumnData::Float(x), ColumnData::Cat(g), ColumnData::Float(m)])
    }

    #[test]
    fn layout_widths_cover_matrix() {
        let t = demo_table();
        let tf = TableTransformer::fit(&t, 4, 0);
        let total: usize = tf.layouts().iter().map(|l| l.width).sum();
        assert_eq!(total, tf.width());
        // Layouts are contiguous.
        let mut cursor = 0;
        for l in tf.layouts() {
            assert_eq!(l.start, cursor);
            cursor += l.width;
        }
    }

    #[test]
    fn encode_decode_roundtrip_categorical_exact() {
        let t = demo_table();
        let tf = TableTransformer::fit(&t, 4, 0);
        let enc = tf.encode(&t, 1);
        let dec = tf.decode(&enc);
        assert_eq!(dec.column(1), t.column(1));
    }

    #[test]
    fn encode_decode_roundtrip_continuous_close() {
        let t = demo_table();
        let tf = TableTransformer::fit(&t, 4, 0);
        let enc = tf.encode(&t, 1);
        let dec = tf.decode(&enc);
        let orig = t.column(0).as_float();
        let back = dec.column(0).as_float();
        for (a, b) in orig.iter().zip(back) {
            assert!((a - b).abs() < 0.5, "orig {a} decoded {b}");
        }
    }

    #[test]
    fn mixed_specials_roundtrip_exactly() {
        let t = demo_table();
        let tf = TableTransformer::fit(&t, 4, 0);
        let enc = tf.encode(&t, 2);
        let dec = tf.decode(&enc);
        let orig = t.column(2).as_float();
        let back = dec.column(2).as_float();
        for (a, b) in orig.iter().zip(back) {
            if *a == 0.0 {
                assert_eq!(*b, 0.0);
            }
        }
    }

    #[test]
    fn categorical_info_counts() {
        let t = demo_table();
        let tf = TableTransformer::fit(&t, 4, 0);
        let info = tf.categorical_info();
        assert_eq!(info.len(), 1);
        assert_eq!(info[0].n_categories, 3);
        assert_eq!(info[0].counts, vec![20, 20, 20]);
    }

    #[test]
    fn spans_alternate_alpha_then_indicator_for_continuous() {
        let t = demo_table();
        let tf = TableTransformer::fit(&t, 4, 0);
        let spans = tf.spans();
        assert_eq!(spans[0].kind, SpanKind::Alpha);
        assert_eq!(spans[0].width, 1);
        assert_eq!(spans[1].kind, SpanKind::Indicator);
    }

    #[test]
    fn works_on_all_benchmark_datasets() {
        for ds in Dataset::all() {
            let t = ds.generate(150, 0);
            let tf = TableTransformer::fit(&t, 4, 0);
            let enc = tf.encode(&t, 1);
            assert_eq!(enc.rows(), 150, "{ds}");
            let dec = tf.decode(&enc);
            assert_eq!(dec.schema(), t.schema(), "{ds}");
        }
    }
}
