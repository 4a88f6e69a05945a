//! Column type inference from string fields.
//!
//! A column is numeric when every non-missing field parses as a float and the
//! column is not "discrete with few distinct values" (configurable): integer
//! columns with very low cardinality are usually codes, and the paper's
//! heterogeneous-frequency insight treats those as categorical.

use crate::column::{CategoricalColumn, NumericColumn};
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

/// Attempts to parse a field as a number, tolerating surrounding whitespace
/// and thousands separators.
fn parse_number(field: &str) -> Option<f64> {
    let trimmed = field.trim();
    if trimmed.is_empty() {
        return None;
    }
    let cleaned: String;
    let candidate = if trimmed.contains(',') {
        cleaned = trimmed.replace(',', "");
        &cleaned
    } else {
        trimmed
    };
    candidate.parse::<f64>().ok().filter(|v| v.is_finite())
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
        let fields = body.iter().skip(c).step_by(width).map(S::as_ref);
        builder = if let Some(values) = try_numeric(fields.clone(), options) {
            builder.column(col_name.as_ref(), NumericColumn::new(values))
        } else {
            let cells = fields.map(|f| {
                if options.is_null(f) {
                    None
                } else {
                    Some(f.trim())
                }
            });
            builder.column(col_name.as_ref(), CategoricalColumn::from_options(cells))
        };
    }
    builder.build()
}

/// Returns the numeric values when every present field parses as a number and
/// the low-cardinality-integer rule does not reclassify the column.
fn try_numeric<'a>(
    fields: impl Iterator<Item = &'a str> + Clone,
    options: &InferOptions,
) -> Option<Vec<f64>> {
    let mut values = Vec::new();
    let mut any_present = false;
    for f in fields {
        if options.is_null(f) {
            values.push(f64::NAN);
        } else {
            let v = parse_number(f)?;
            any_present = true;
            values.push(v);
        }
    }
    if !any_present {
        return None; // all-missing columns default to categorical
    }
    if options.max_integer_categories > 0 {
        let all_int = values
            .iter()
            .filter(|v| !v.is_nan())
            .all(|v| v.fract() == 0.0);
        if all_int {
            let mut distinct: Vec<i64> = values
                .iter()
                .filter(|v| !v.is_nan())
                .map(|&v| v as i64)
                .collect();
            distinct.sort_unstable();
            distinct.dedup();
            if distinct.len() <= options.max_integer_categories {
                return None;
            }
        }
    }
    Some(values)
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
