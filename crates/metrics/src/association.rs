//! Pairwise association matrices over mixed-type tables, mirroring dython's
//! `compute_associations`: Pearson correlation (continuous–continuous),
//! correlation ratio η (categorical–continuous) and Cramér's V
//! (categorical–categorical). Mixed columns are treated as continuous.

use gtv_data::{ColumnData, Table};

/// Pearson correlation coefficient. Returns 0 when either side is constant.
pub fn pearson(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "sample length mismatch");
    if x.is_empty() {
        return 0.0;
    }
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let (mut sxy, mut sxx, mut syy) = (0.0, 0.0, 0.0);
    for (a, b) in x.iter().zip(y) {
        let dx = a - mx;
        let dy = b - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx <= 0.0 || syy <= 0.0 {
        0.0
    } else {
        (sxy / (sxx * syy).sqrt()).clamp(-1.0, 1.0)
    }
}

/// Correlation ratio η between a categorical grouping and a continuous
/// variable (`0` = no association, `1` = perfectly determined).
pub fn correlation_ratio(groups: &[u32], values: &[f64], n_groups: usize) -> f64 {
    assert_eq!(groups.len(), values.len(), "sample length mismatch");
    if values.is_empty() {
        return 0.0;
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let mut group_sum = vec![0.0f64; n_groups];
    let mut group_n = vec![0.0f64; n_groups];
    for (&g, &v) in groups.iter().zip(values) {
        group_sum[g as usize] += v;
        group_n[g as usize] += 1.0;
    }
    let mut between = 0.0;
    for gi in 0..n_groups {
        if group_n[gi] > 0.0 {
            let gm = group_sum[gi] / group_n[gi];
            between += group_n[gi] * (gm - mean) * (gm - mean);
        }
    }
    let total: f64 = values.iter().map(|v| (v - mean) * (v - mean)).sum();
    if total <= 0.0 {
        0.0
    } else {
        (between / total).clamp(0.0, 1.0).sqrt()
    }
}

/// Cramér's V between two categorical variables, with the Bergsma
/// bias correction dython applies.
pub fn cramers_v(x: &[u32], y: &[u32], kx: usize, ky: usize) -> f64 {
    assert_eq!(x.len(), y.len(), "sample length mismatch");
    if x.is_empty() || kx < 2 || ky < 2 {
        return 0.0;
    }
    let n = x.len() as f64;
    let mut table = vec![0.0f64; kx * ky];
    let mut row = vec![0.0f64; kx];
    let mut col = vec![0.0f64; ky];
    for (&a, &b) in x.iter().zip(y) {
        table[a as usize * ky + b as usize] += 1.0;
        row[a as usize] += 1.0;
        col[b as usize] += 1.0;
    }
    let mut chi2 = 0.0;
    for i in 0..kx {
        for j in 0..ky {
            let expected = row[i] * col[j] / n;
            if expected > 0.0 {
                let d = table[i * ky + j] - expected;
                chi2 += d * d / expected;
            }
        }
    }
    let phi2 = chi2 / n;
    let (kxf, kyf) = (kx as f64, ky as f64);
    let phi2_corr = (phi2 - (kxf - 1.0) * (kyf - 1.0) / (n - 1.0)).max(0.0);
    let r_corr = kxf - (kxf - 1.0) * (kxf - 1.0) / (n - 1.0);
    let c_corr = kyf - (kyf - 1.0) * (kyf - 1.0) / (n - 1.0);
    let denom = (r_corr - 1.0).min(c_corr - 1.0);
    if denom <= 0.0 {
        0.0
    } else {
        (phi2_corr / denom).sqrt().clamp(0.0, 1.0)
    }
}

enum ColView<'a> {
    Cont(&'a [f64]),
    Cat(&'a [u32], usize),
}

fn view(table: &Table, i: usize) -> ColView<'_> {
    match table.column(i) {
        ColumnData::Float(v) => ColView::Cont(v),
        ColumnData::Cat(v) => {
            let k = table.schema().column(i).kind.n_categories().unwrap_or(0);
            ColView::Cat(v, k)
        }
    }
}

fn pair_association(a: &ColView<'_>, b: &ColView<'_>) -> f64 {
    match (a, b) {
        (ColView::Cont(x), ColView::Cont(y)) => pearson(x, y),
        (ColView::Cat(g, k), ColView::Cont(v)) | (ColView::Cont(v), ColView::Cat(g, k)) => {
            correlation_ratio(g, v, *k)
        }
        (ColView::Cat(x, kx), ColView::Cat(y, ky)) => cramers_v(x, y, *kx, *ky),
    }
}

/// Full pairwise association matrix of a table (symmetric, unit diagonal).
pub fn associations(table: &Table) -> Vec<Vec<f64>> {
    let n = table.n_cols();
    let views: Vec<ColView<'_>> = (0..n).map(|i| view(table, i)).collect();
    let mut m = vec![vec![0.0; n]; n];
    for i in 0..n {
        m[i][i] = 1.0;
        for j in (i + 1)..n {
            let v = pair_association(&views[i], &views[j]);
            m[i][j] = v;
            m[j][i] = v;
        }
    }
    m
}

/// Associations between the columns of two row-aligned tables
/// (`a.n_cols() × b.n_cols()`), used for the paper's *Across-client* metric.
///
/// # Panics
///
/// Panics if the tables have different row counts.
pub fn cross_associations(a: &Table, b: &Table) -> Vec<Vec<f64>> {
    assert_eq!(a.n_rows(), b.n_rows(), "tables must be row-aligned");
    let va: Vec<ColView<'_>> = (0..a.n_cols()).map(|i| view(a, i)).collect();
    let vb: Vec<ColView<'_>> = (0..b.n_cols()).map(|i| view(b, i)).collect();
    va.iter().map(|x| vb.iter().map(|y| pair_association(x, y)).collect()).collect()
}

/// Frobenius (`ℓ²`) norm of the elementwise difference of two matrices.
///
/// # Panics
///
/// Panics if the shapes differ.
pub fn matrix_l2_diff(a: &[Vec<f64>], b: &[Vec<f64>]) -> f64 {
    assert_eq!(a.len(), b.len(), "matrix row count mismatch");
    let mut total = 0.0;
    for (ra, rb) in a.iter().zip(b) {
        assert_eq!(ra.len(), rb.len(), "matrix column count mismatch");
        for (x, y) in ra.iter().zip(rb) {
            total += (x - y) * (x - y);
        }
    }
    total.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtv_data::{ColumnKind, ColumnMeta, Schema};

    #[test]
    fn pearson_perfect_and_anti() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&x, &y) - 1.0).abs() < 1e-12);
        let z = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&x, &z) + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&x, &[5.0; 4]), 0.0);
    }

    #[test]
    fn correlation_ratio_extremes() {
        // Perfectly determined by group.
        let g = [0u32, 0, 1, 1];
        let v = [1.0, 1.0, 9.0, 9.0];
        assert!((correlation_ratio(&g, &v, 2) - 1.0).abs() < 1e-12);
        // Independent of group.
        let v2 = [1.0, 9.0, 1.0, 9.0];
        assert!(correlation_ratio(&g, &v2, 2) < 1e-12);
    }

    #[test]
    fn cramers_v_extremes() {
        let x = [0u32, 0, 1, 1, 0, 0, 1, 1];
        assert!(cramers_v(&x, &x, 2, 2) > 0.9);
        let indep = [0u32, 1, 0, 1, 0, 1, 0, 1];
        let other = [0u32, 0, 1, 1, 0, 0, 1, 1];
        assert!(cramers_v(&indep, &other, 2, 2) < 0.3);
    }

    fn demo_table() -> Table {
        let schema = Schema::new(
            vec![
                ColumnMeta::new("x", ColumnKind::Continuous),
                ColumnMeta::new("y", ColumnKind::Continuous),
                ColumnMeta::new("g", ColumnKind::categorical(["a", "b"])),
            ],
            None,
        );
        Table::new(
            schema,
            vec![
                ColumnData::Float(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
                ColumnData::Float(vec![2.0, 4.0, 6.0, 8.0, 10.0, 12.0]),
                ColumnData::Cat(vec![0, 0, 0, 1, 1, 1]),
            ],
        )
    }

    #[test]
    #[expect(
        clippy::needless_range_loop,
        reason = "(i, j) indexing mirrors the matrix symmetry being asserted"
    )]
    fn association_matrix_is_symmetric_unit_diagonal() {
        let t = demo_table();
        let m = associations(&t);
        for i in 0..3 {
            assert!((m[i][i] - 1.0).abs() < 1e-12);
            for j in 0..3 {
                assert!((m[i][j] - m[j][i]).abs() < 1e-12);
            }
        }
        assert!((m[0][1] - 1.0).abs() < 1e-9, "x and y are perfectly correlated");
    }

    #[test]
    fn identical_tables_have_zero_l2_diff() {
        let t = demo_table();
        let m = associations(&t);
        assert_eq!(matrix_l2_diff(&m, &m), 0.0);
    }

    #[test]
    fn cross_associations_shape() {
        let t = demo_table();
        let a = t.select_columns(&[0]);
        let b = t.select_columns(&[1, 2]);
        let m = cross_associations(&a, &b);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].len(), 2);
        assert!((m[0][0] - 1.0).abs() < 1e-9);
    }
}
