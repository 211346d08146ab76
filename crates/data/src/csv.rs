//! Minimal CSV serialization for [`Table`] (no external dependency).
//!
//! Values never contain commas or quotes in this workspace's datasets, so the
//! dialect is deliberately simple: comma separator, `\n` rows, first row is
//! the header. Categorical cells are written as their labels and re-encoded
//! against the schema vocabulary on read.

use crate::schema::{ColumnKind, Schema};
use crate::table::{ColumnData, Table};
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Serializes a table to CSV text.
pub fn to_csv_string(table: &Table) -> String {
    let schema = table.schema();
    let mut out = String::new();
    let header: Vec<&str> = schema.columns().iter().map(|c| c.name.as_str()).collect();
    out.push_str(&header.join(","));
    out.push('\n');
    for r in 0..table.n_rows() {
        for (ci, meta) in schema.columns().iter().enumerate() {
            if ci > 0 {
                out.push(',');
            }
            match (&meta.kind, table.column(ci)) {
                (ColumnKind::Categorical { categories }, ColumnData::Cat(v)) => {
                    out.push_str(&categories[v[r] as usize]);
                }
                (_, ColumnData::Float(v)) => {
                    let _ = write!(out, "{}", v[r]);
                }
                _ => unreachable!("table invariants guarantee matching kinds"),
            }
        }
        out.push('\n');
    }
    out
}

/// Writes a table to a CSV file.
///
/// # Errors
///
/// Returns any I/O error from writing the file.
pub fn write_csv(table: &Table, path: impl AsRef<Path>) -> io::Result<()> {
    std::fs::write(path, to_csv_string(table))
}

/// Error from parsing CSV text against a schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseCsvError {
    /// 1-based line number of the offending row (0 for structural errors).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ParseCsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "csv parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseCsvError {}

/// Parses CSV text into a table using the given schema.
///
/// # Errors
///
/// Returns [`ParseCsvError`] if the header does not match the schema, a row
/// has the wrong arity, a numeric cell fails to parse or is not finite
/// (`NaN` and `inf` parse as `f64`, and one such cell would turn the
/// column's encoder into NaN without any error), or a categorical cell is
/// not in the schema's vocabulary.
pub fn from_csv_string(text: &str, schema: &Schema) -> Result<Table, ParseCsvError> {
    let mut lines = text.lines();
    let header = lines.next().ok_or(ParseCsvError { line: 0, message: "empty input".into() })?;
    let names: Vec<&str> = header.split(',').collect();
    let expected: Vec<&str> = schema.columns().iter().map(|c| c.name.as_str()).collect();
    if names != expected {
        return Err(ParseCsvError {
            line: 1,
            message: format!("header {names:?} does not match schema {expected:?}"),
        });
    }

    let mut columns: Vec<ColumnData> = schema
        .columns()
        .iter()
        .map(|c| match c.kind {
            ColumnKind::Categorical { .. } => ColumnData::Cat(Vec::new()),
            _ => ColumnData::Float(Vec::new()),
        })
        .collect();

    for (li, line) in lines.enumerate() {
        if line.is_empty() {
            continue;
        }
        let cells: Vec<&str> = line.split(',').collect();
        if cells.len() != schema.len() {
            return Err(ParseCsvError {
                line: li + 2,
                message: format!("expected {} cells, found {}", schema.len(), cells.len()),
            });
        }
        for (ci, cell) in cells.iter().enumerate() {
            match (&schema.column(ci).kind, &mut columns[ci]) {
                (ColumnKind::Categorical { categories }, ColumnData::Cat(v)) => {
                    let idx =
                        categories.iter().position(|c| c == cell).ok_or_else(|| ParseCsvError {
                            line: li + 2,
                            message: format!(
                                "unknown category '{cell}' in column '{}'",
                                schema.column(ci).name
                            ),
                        })?;
                    v.push(idx as u32);
                }
                (_, ColumnData::Float(v)) => {
                    let val =
                        cell.parse().ok().filter(|v: &f64| v.is_finite()).ok_or_else(|| {
                            ParseCsvError {
                                line: li + 2,
                                message: format!(
                                    "invalid or non-finite number '{cell}' in column '{}'",
                                    schema.column(ci).name
                                ),
                            }
                        })?;
                    v.push(val);
                }
                _ => unreachable!(),
            }
        }
    }
    Ok(Table::new(schema.clone(), columns))
}

/// Infers a schema from CSV text: a column whose every cell parses as a
/// number becomes continuous — or [`ColumnKind::Mixed`] when one numeric
/// value accounts for ≥ 25% of the cells (a point mass, e.g. `Mortgage = 0`;
/// when two values tie for the most cells, the one that appears first)
/// — and any other column becomes categorical with the observed vocabulary
/// (in first-appearance order). `target`, if given, names the target column
/// and forces it categorical.
///
/// # Errors
///
/// Returns [`ParseCsvError`] on an empty input, ragged rows, an unknown
/// `target` name, a non-categorical target, or a numeric column holding a
/// non-finite cell (`NaN`, `inf`).
pub fn infer_schema(text: &str, target: Option<&str>) -> Result<Schema, ParseCsvError> {
    let mut lines = text.lines();
    let header = lines.next().ok_or(ParseCsvError { line: 0, message: "empty input".into() })?;
    let names: Vec<&str> = header.split(',').collect();
    let n = names.len();
    let mut numeric = vec![true; n];
    // Line and text of each column's first cell that parses to NaN or ±∞; an
    // error only if the column stays numeric (as a label, "NaN" is fine).
    let mut non_finite: Vec<Option<(usize, &str)>> = vec![None; n];
    let mut vocab: Vec<Vec<String>> = vec![Vec::new(); n];
    let mut numeric_counts: Vec<std::collections::HashMap<String, usize>> =
        vec![std::collections::HashMap::new(); n];
    let mut rows = 0usize;
    for (li, line) in lines.enumerate() {
        if line.is_empty() {
            continue;
        }
        rows += 1;
        let cells: Vec<&str> = line.split(',').collect();
        if cells.len() != n {
            return Err(ParseCsvError {
                line: li + 2,
                message: format!("expected {n} cells, found {}", cells.len()),
            });
        }
        for (ci, cell) in cells.iter().enumerate() {
            match cell.parse::<f64>() {
                Err(_) => numeric[ci] = false,
                Ok(v) if !v.is_finite() && non_finite[ci].is_none() => {
                    non_finite[ci] = Some((li + 2, *cell));
                }
                Ok(_) => {}
            }
            if numeric[ci] {
                *numeric_counts[ci].entry((*cell).to_string()).or_insert(0) += 1;
            }
            if !vocab[ci].iter().any(|v| v == cell) {
                vocab[ci].push((*cell).to_string());
            }
        }
    }
    if rows == 0 {
        return Err(ParseCsvError { line: 0, message: "no data rows".into() });
    }
    let target_idx = match target {
        Some(t) => Some(names.iter().position(|&name| name == t).ok_or_else(|| ParseCsvError {
            line: 1,
            message: format!("unknown target column '{t}'"),
        })?),
        None => None,
    };
    for (ci, name) in names.iter().enumerate() {
        let stays_numeric = numeric[ci] && target_idx != Some(ci);
        if let Some((line, cell)) = non_finite[ci].filter(|_| stays_numeric) {
            return Err(ParseCsvError {
                line,
                message: format!("non-finite number '{cell}' in numeric column '{name}'"),
            });
        }
    }
    let columns = names
        .iter()
        .enumerate()
        .map(|(ci, name)| {
            let force_categorical = target_idx == Some(ci);
            let kind = if numeric[ci] && !force_categorical {
                // `vocab` is in first-appearance order and `max_by_key` keeps
                // the last of equal maxima, so walking it backwards gives a
                // tie to the value that appears first.
                let heaviest = vocab[ci]
                    .iter()
                    .rev()
                    .map(|v| (v, numeric_counts[ci][v]))
                    .max_by_key(|&(_, c)| c);
                match heaviest {
                    Some((v, c)) if c >= 3 && c * 4 >= rows && vocab[ci].len() > 1 => {
                        ColumnKind::Mixed {
                            special_values: vec![v
                                .parse::<f64>()
                                .expect("numeric column cell parses")],
                        }
                    }
                    _ => ColumnKind::Continuous,
                }
            } else {
                ColumnKind::Categorical { categories: vocab[ci].clone() }
            };
            crate::schema::ColumnMeta::new(*name, kind)
        })
        .collect();
    Ok(Schema::new(columns, target_idx))
}

/// Reads a CSV file into a table using the given schema.
///
/// # Errors
///
/// Returns an I/O error (wrapped) or a parse error as
/// [`io::Error`]`(InvalidData)`.
pub fn read_csv(path: impl AsRef<Path>, schema: &Schema) -> io::Result<Table> {
    let text = std::fs::read_to_string(path)?;
    from_csv_string(&text, schema).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnMeta;

    fn demo() -> Table {
        let schema = Schema::new(
            vec![
                ColumnMeta::new("v", ColumnKind::Continuous),
                ColumnMeta::new("g", ColumnKind::categorical(["a", "b"])),
            ],
            None,
        );
        Table::new(schema, vec![ColumnData::Float(vec![1.5, -2.0]), ColumnData::Cat(vec![1, 0])])
    }

    #[test]
    fn roundtrip() {
        let t = demo();
        let text = to_csv_string(&t);
        assert!(text.starts_with("v,g\n1.5,b\n"));
        let back = from_csv_string(&text, t.schema()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn infer_schema_detects_kinds() {
        let text = "age,grade,mortgage,label\n30,a,0,no\n40,b,120.5,yes\n50,a,0,no\n60,c,0,yes\n";
        let schema = infer_schema(text, Some("label")).unwrap();
        assert!(schema.column(0).kind.is_continuous());
        assert_eq!(schema.column(1).kind.n_categories(), Some(3));
        assert!(schema.column(2).kind.is_mixed(), "0 appears in 3/4 rows");
        assert_eq!(schema.target(), Some(3));
        // Round-trip parse with the inferred schema.
        let table = from_csv_string(text, &schema).unwrap();
        assert_eq!(table.n_rows(), 4);
        assert_eq!(table.column(2).as_float()[1], 120.5);
    }

    #[test]
    fn a_tied_point_mass_goes_to_the_value_that_appears_first() {
        // `5` and `0` each fill 40% of the rows: the first to appear is the
        // point mass, on every call.
        let text = "x\n5\n0\n5\n0\n1\n5\n0\n2\n5\n0\n";
        let first = infer_schema(text, None).unwrap();
        assert_eq!(first.column(0).kind, ColumnKind::Mixed { special_values: vec![5.0] });
        for _ in 0..50 {
            assert_eq!(infer_schema(text, None).unwrap(), first);
        }
    }

    #[test]
    fn infer_schema_rejects_unknown_target() {
        let err = infer_schema("a\n1\n", Some("zzz")).unwrap_err();
        assert!(err.message.contains("unknown target"));
    }

    #[test]
    fn infer_schema_numeric_target_becomes_categorical() {
        let schema = infer_schema("x,y\n1.5,0\n2.5,1\n3.5,0\n", Some("y")).unwrap();
        assert_eq!(schema.column(1).kind.n_categories(), Some(2));
    }

    #[test]
    fn rejects_unknown_category() {
        let t = demo();
        let err = from_csv_string("v,g\n1.0,zzz\n", t.schema()).unwrap_err();
        assert!(err.message.contains("unknown category"));
        assert_eq!(err.line, 2);
    }

    #[test]
    fn non_finite_numeric_cells_are_typed_errors_with_their_line() {
        // `"NaN".parse::<f64>()` and `"inf"` succeed; left alone, the column
        // is inferred continuous and its encoder fits to NaN.
        let xg = Schema::new(
            vec![
                ColumnMeta::new("x", ColumnKind::Continuous),
                ColumnMeta::new("g", ColumnKind::categorical(["a", "b"])),
            ],
            None,
        );
        for bad in ["NaN", "nan", "inf", "-inf", "infinity", "1e999"] {
            let text = format!("x,g\n1.5,a\n{bad},b\n2.5,a\n");
            let err = infer_schema(&text, None).unwrap_err();
            assert_eq!(err.line, 3, "{bad}: {err}");
            assert!(err.message.contains("non-finite") && err.message.contains("'x'"), "{err}");
            let err = from_csv_string(&text, &xg).unwrap_err();
            assert_eq!(err.line, 3, "{bad}: {err}");
            assert!(err.message.contains("non-finite"), "{err}");
        }
        // As a label of a column that is categorical anyway — by its other
        // cells or as the target — "NaN" is just a string.
        let schema = infer_schema("g,y\nNaN,0\nb,NaN\nNaN,1\n", Some("y")).unwrap();
        assert_eq!(schema.column(0).kind.n_categories(), Some(2));
        assert_eq!(schema.column(1).kind.n_categories(), Some(3));
    }

    #[test]
    fn rejects_bad_header_and_arity() {
        let t = demo();
        assert!(from_csv_string("x,y\n", t.schema()).is_err());
        assert!(from_csv_string("v,g\n1.0\n", t.schema()).is_err());
    }
}
