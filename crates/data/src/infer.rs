//! Column type inference from string fields.
//!
//! A column is numeric when every non-missing field parses as a float and the
//! column is not "discrete with few distinct values" (configurable): integer
//! columns with very low cardinality are usually codes, and the paper's
//! heterogeneous-frequency insight treats those as categorical.

use crate::column::{CategoricalColumn, Column, NumericColumn};
use crate::error::Result;
use crate::table::{Table, TableBuilder};

/// Options controlling type inference.
#[derive(Debug, Clone)]
pub struct InferOptions {
    /// Strings treated as missing (besides the empty string).
    pub null_tokens: Vec<String>,
    /// An all-integer column with at most this many distinct values is
    /// classified as categorical (0 disables the rule).
    pub max_integer_categories: usize,
}

impl Default for InferOptions {
    fn default() -> Self {
        Self {
            null_tokens: vec!["NA".into(), "N/A".into(), "null".into(), "NaN".into()],
            max_integer_categories: 0,
        }
    }
}

impl InferOptions {
    /// Is `field` a missing-value token?
    pub fn is_null(&self, field: &str) -> bool {
        field.is_empty()
            || self
                .null_tokens
                .iter()
                .any(|t| t.eq_ignore_ascii_case(field))
    }
}

/// Parses a trimmed, non-empty field as a finite number, tolerating
/// thousands separators (looked for only once the plain parse has failed,
/// as it must on a comma).
fn parse_number(trimmed: &str) -> Option<f64> {
    let parsed = trimmed.parse::<f64>().or_else(|e| {
        if trimmed.contains(',') {
            trimmed.replace(',', "").parse()
        } else {
            Err(e)
        }
    });
    parsed.ok().filter(|v| v.is_finite())
}

/// One column under inference, fed its fields in row order.
///
/// A column starts out numeric and pushes an `f64` per field. The first
/// present field that is not a number demotes it: with only missing cells
/// behind it the column carries on as categorical; with numbers behind it
/// the text of those cells is gone, so the column asks to be read again
/// from the start as [`ColumnInfer::categorical`].
pub(crate) enum ColumnInfer {
    /// Every present field so far parsed as a number.
    Numeric { values: Vec<f64>, any_present: bool },
    /// Dictionary-encoding trimmed labels as they come.
    Categorical(CategoricalColumn),
    /// Ignores its fields: demoted after numbers (first reading), or not
    /// one of the columns being read again (second reading).
    Skipped,
}

impl ColumnInfer {
    pub(crate) fn numeric() -> Self {
        Self::Numeric {
            values: Vec::new(),
            any_present: false,
        }
    }

    pub(crate) fn categorical() -> Self {
        Self::Categorical(CategoricalColumn::default())
    }

    /// Takes the column's next field: trimmed once, then tested for null.
    pub(crate) fn push(&mut self, field: &str, options: &InferOptions) {
        let field = field.trim();
        match self {
            Self::Skipped => {}
            Self::Categorical(col) if options.is_null(field) => col.push_null(),
            Self::Categorical(col) => col.push(field),
            Self::Numeric {
                values,
                any_present,
            } => {
                if options.is_null(field) {
                    values.push(f64::NAN);
                } else if let Some(v) = parse_number(field) {
                    values.push(v);
                    *any_present = true;
                } else if *any_present {
                    *self = Self::Skipped;
                } else {
                    let mut col = all_missing(values.len());
                    col.push(field);
                    *self = Self::Categorical(col);
                }
            }
        }
    }

    /// The finished column, or `None` when it has to be read again as
    /// categorical: it met text after numbers, or the
    /// low-cardinality-integer rule reclassifies it.
    pub(crate) fn finish(self, options: &InferOptions) -> Option<Column> {
        match self {
            // all-missing columns default to categorical
            Self::Numeric {
                values,
                any_present: false,
            } => Some(all_missing(values.len()).into()),
            Self::Numeric { values, .. } => {
                (!is_integer_code(&values, options)).then(|| NumericColumn::new(values).into())
            }
            Self::Categorical(col) => Some(col.into()),
            Self::Skipped => None,
        }
    }
}

fn all_missing(rows: usize) -> CategoricalColumn {
    CategoricalColumn::from_options(std::iter::repeat_n(None::<&str>, rows))
}

/// Does the low-cardinality-integer rule make these values category codes?
fn is_integer_code(values: &[f64], options: &InferOptions) -> bool {
    if options.max_integer_categories == 0 {
        return false;
    }
    let present = || values.iter().filter(|v| !v.is_nan());
    if !present().all(|v| v.fract() == 0.0) {
        return false;
    }
    let mut distinct: Vec<i64> = present().map(|&v| v as i64).collect();
    distinct.sort_unstable();
    distinct.dedup();
    distinct.len() <= options.max_integer_categories
}

/// Classifies and materializes the columns of a parsed CSV body.
///
/// `body` is the document's data fields, flat and row-major
/// (`rows × header.len()`); each column is read straight from its stride.
pub fn infer_columns<S: AsRef<str>>(
    name: &str,
    header: &[S],
    body: &[S],
    options: &InferOptions,
) -> Result<Table> {
    let width = header.len();
    debug_assert_eq!(body.len() % width.max(1), 0, "body must be rectangular");
    let mut builder = TableBuilder::new(name);
    for (c, col_name) in header.iter().enumerate() {
        let read = |mut column: ColumnInfer| {
            for field in body.iter().skip(c).step_by(width) {
                column.push(field.as_ref(), options);
            }
            column.finish(options)
        };
        let column = read(ColumnInfer::numeric())
            .or_else(|| read(ColumnInfer::categorical()))
            .expect("a categorical reading always finishes");
        builder = builder.column(col_name.as_ref(), column);
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_detection() {
        let t = infer_columns(
            "t",
            &["a"],
            &["1", "2.5", "-3e2", " 4 "],
            &InferOptions::default(),
        )
        .unwrap();
        assert_eq!(
            t.numeric_by_name("a").unwrap().values(),
            &[1.0, 2.5, -300.0, 4.0]
        );
    }

    #[test]
    fn null_tokens_become_missing() {
        let t = infer_columns(
            "t",
            &["a"],
            &["1", "NA", "nan", ""],
            &InferOptions::default(),
        )
        .unwrap();
        assert_eq!(t.numeric_by_name("a").unwrap().null_count(), 3);
    }

    #[test]
    fn mixed_becomes_categorical() {
        let t = infer_columns("t", &["a"], &["1", "two", "3"], &InferOptions::default()).unwrap();
        assert_eq!(t.categorical_by_name("a").unwrap().cardinality(), 3);
    }

    #[test]
    fn thousands_separators() {
        assert_eq!(parse_number("1,234.5"), Some(1234.5));
        assert_eq!(parse_number("inf"), None);
        assert_eq!(parse_number("x"), None);
    }

    #[test]
    fn low_cardinality_integer_rule() {
        let opts = InferOptions {
            max_integer_categories: 3,
            ..Default::default()
        };
        let body = ["1", "2", "1", "2"];
        let t = infer_columns("t", &["a"], &body, &opts).unwrap();
        assert!(t.categorical_by_name("a").is_ok());
        // disabled by default
        let t = infer_columns("t", &["a"], &body, &InferOptions::default()).unwrap();
        assert!(t.numeric_by_name("a").is_ok());
    }

    #[test]
    fn all_missing_column_is_categorical() {
        let t = infer_columns("t", &["a"], &["", "NA"], &InferOptions::default()).unwrap();
        assert_eq!(t.categorical_by_name("a").unwrap().null_count(), 2);
    }
}
