//! Property-based tests for the data layer.

use foresight_data::csv::{parse_rows, read_csv_str, write_csv_string};
use foresight_data::infer::InferOptions;
use foresight_data::{CategoricalColumn, NumericColumn, TableBuilder};
use proptest::prelude::*;

/// Arbitrary field content, including CSV-hostile and multi-byte characters.
fn field() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-zA-Z0-9 ,\"\n_.éüßΩ中€😀-]{0,12}").expect("valid regex")
}

proptest! {
    #[test]
    fn csv_field_round_trip(rows in proptest::collection::vec(
        proptest::collection::vec(field(), 3), 1..20)
    ) {
        // write a table of categorical columns and re-parse it
        let cols = 3;
        let mut builder = TableBuilder::new("t");
        for c in 0..cols {
            let col = CategoricalColumn::from_strings(rows.iter().map(|r| r[c].as_str()));
            builder = builder.column(format!("col{c}"), col);
        }
        let table = builder.build().expect("uniform lengths");
        let csv = write_csv_string(&table).expect("serialize");
        let parsed = parse_rows(&csv).expect("own output parses");
        prop_assert_eq!(parsed.len(), rows.len() + 1);
        for (orig, back) in rows.iter().zip(parsed.iter().skip(1)) {
            for c in 0..cols {
                // categorical storage trims nothing; empty = missing = empty
                prop_assert_eq!(&orig[c], &back[c]);
            }
        }
    }

    #[test]
    fn inferred_numeric_columns_round_trip(values in proptest::collection::vec(-1e9f64..1e9, 1..60)) {
        let mut csv = String::from("x\n");
        for v in &values {
            csv.push_str(&format!("{v}\n"));
        }
        let table = read_csv_str(&csv, "t", &InferOptions::default()).expect("parse");
        let col = table.numeric_by_name("x").expect("inferred numeric");
        for (a, b) in values.iter().zip(col.values()) {
            prop_assert!((a - b).abs() <= a.abs() * 1e-12 + 1e-12);
        }
    }

    #[test]
    fn numeric_column_present_count_invariant(values in proptest::collection::vec(
        prop_oneof![Just(f64::NAN), -1e6f64..1e6], 0..100)
    ) {
        let col = NumericColumn::new(values.clone());
        prop_assert_eq!(col.len(), values.len());
        prop_assert_eq!(col.present().count() + col.null_count(), values.len());
        prop_assert!(col.present().all(|v| !v.is_nan()));
    }

    #[test]
    fn dictionary_encoding_is_lossless(labels in proptest::collection::vec("[a-z]{1,5}", 0..80)) {
        let col = CategoricalColumn::from_strings(labels.iter().map(String::as_str));
        prop_assert_eq!(col.len(), labels.len());
        for (i, l) in labels.iter().enumerate() {
            prop_assert_eq!(col.get(i), Some(l.as_str()));
        }
        // cardinality equals distinct count
        let mut distinct = labels.clone();
        distinct.sort();
        distinct.dedup();
        prop_assert_eq!(col.cardinality(), distinct.len());
    }

    #[test]
    fn filter_rows_preserves_schema_and_counts(n in 1usize..60, modulo in 1usize..5) {
        let table = TableBuilder::new("t")
            .numeric("a", (0..n).map(|i| i as f64).collect())
            .categorical("b", (0..n).map(|i| if i % 2 == 0 { "x" } else { "y" }))
            .build()
            .expect("valid");
        let kept = table.filter_rows(|r| r % modulo == 0);
        prop_assert_eq!(kept.n_cols(), 2);
        prop_assert_eq!(kept.n_rows(), n.div_ceil(modulo));
    }
}
