//! The batch kernel of the statistical-dependence class against its scalar
//! oracle: `score_batch` hoists per-column binning out of the pair loop,
//! and must stay bit-identical to per-candidate `score` on every column
//! shape and type combination — including the ones it hands back to the
//! scalar path.

use foresight_data::{Table, TableBuilder};
use foresight_insight::classes::StatisticalDependence;
use foresight_insight::{AttrTuple, InsightClass};
use proptest::collection::vec;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Col {
    Num(Vec<f64>),
    Cat(Vec<String>),
}

fn table(columns: &[Col]) -> Table {
    let mut builder = TableBuilder::new("t");
    for (i, col) in columns.iter().enumerate() {
        builder = match col {
            Col::Num(values) => builder.numeric(format!("c{i}"), values.clone()),
            Col::Cat(labels) => builder.categorical(format!("c{i}"), labels.iter()),
        };
    }
    builder.build().expect("equal-length columns")
}

/// One column of `rows` cells: complete, NaN-holed (with ties), constant,
/// all-NaN, holding ±∞, an ordinary categorical (with missing cells), or
/// an identifier-like categorical.
fn column(rows: usize) -> impl Strategy<Value = Col> {
    prop_oneof![
        vec(-50.0..50.0f64, rows).prop_map(Col::Num),
        vec(
            prop_oneof![
                -50.0..50.0f64,
                (0..4i32).prop_map(f64::from),
                Just(f64::NAN)
            ],
            rows
        )
        .prop_map(Col::Num),
        (-5.0..5.0f64).prop_map(move |c| Col::Num(vec![c; rows])),
        Just(Col::Num(vec![f64::NAN; rows])),
        vec(
            prop_oneof![-50.0..50.0f64, Just(f64::INFINITY), Just(f64::NEG_INFINITY)],
            rows
        )
        .prop_map(Col::Num),
        vec(
            (0..4u32).prop_map(|c| if c == 3 {
                String::new()
            } else {
                format!("g{c}")
            }),
            rows
        )
        .prop_map(Col::Cat),
        Just(Col::Cat((0..rows).map(|i| format!("id{i}")).collect())),
    ]
}

fn columns() -> impl Strategy<Value = Vec<Col>> {
    (1usize..48).prop_flat_map(|rows| vec(column(rows), 2..8))
}

fn assert_batch_is_score(table: &Table, batch: &[AttrTuple]) {
    let class = StatisticalDependence;
    let scores = class.score_batch(table, batch);
    assert_eq!(scores.len(), batch.len());
    for (attrs, score) in batch.iter().zip(scores) {
        assert_eq!(
            class.score(table, attrs).map(f64::to_bits),
            score.map(f64::to_bits),
            "batch diverges on {attrs:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random tables, random batches: any size (0, 1, many), duplicate and
    /// self pairs, out-of-range columns, and tuples of the wrong arity.
    #[test]
    fn score_batch_is_score_bit_for_bit(
        cols in columns(),
        picks in vec((0usize..9, 0usize..9, 0u32..12), 0..40),
    ) {
        let t = table(&cols);
        let batch: Vec<AttrTuple> = picks
            .into_iter()
            .map(|(i, j, shape)| match shape {
                0 => AttrTuple::One(i),
                1 => AttrTuple::Three(i, j, 0),
                _ => AttrTuple::Two(i, j),
            })
            .collect();
        assert_batch_is_score(&t, &batch);
        assert_batch_is_score(&t, &batch[..batch.len().min(1)]);
        // and the class's own candidate list, as the engine passes it
        assert_batch_is_score(&t, &StatisticalDependence.candidates(&t));
    }
}

/// Every column shape against every other (and itself), so each type
/// combination — MI, η² in both orders, Cramér's V — and each reason to
/// leave the batch path is exercised regardless of what the proptest drew.
#[test]
fn every_type_combination() {
    let rows = 40;
    let ramp: Vec<f64> = (0..rows).map(|i| i as f64).collect();
    let cols = [
        Col::Num(ramp.iter().map(|v| (v * 0.7).sin()).collect()),
        Col::Num(ramp.iter().map(|v| v * v).collect()),
        Col::Num(
            ramp.iter()
                .map(|&v| if v as usize % 7 == 2 { f64::NAN } else { v })
                .collect(),
        ),
        Col::Num(vec![3.5; rows]),
        Col::Num(vec![f64::NAN; rows]),
        Col::Num(
            ramp.iter()
                .map(|&v| match v as usize {
                    5 => f64::INFINITY,
                    9 => f64::NEG_INFINITY,
                    _ => v,
                })
                .collect(),
        ),
        Col::Cat((0..rows).map(|i| format!("g{}", i % 3)).collect()),
        Col::Cat(
            (0..rows)
                .map(|i| {
                    if i % 5 == 0 {
                        String::new()
                    } else {
                        format!("h{}", i % 4)
                    }
                })
                .collect(),
        ),
        Col::Cat((0..rows).map(|i| format!("id{i}")).collect()),
    ];
    let t = table(&cols);
    let all: Vec<AttrTuple> = (0..cols.len())
        .flat_map(|i| (0..cols.len()).map(move |j| AttrTuple::Two(i, j)))
        .collect();
    assert_batch_is_score(&t, &all);
    assert_batch_is_score(&t, &[]);
    // the complete × complete pairs did score
    assert!(StatisticalDependence
        .score(&t, &AttrTuple::Two(0, 1))
        .is_some());
}

/// Pairwise deletion can move a column's range: here the one row `holed`
/// is missing in is the row where `wide` has its maximum, so for that pair
/// `wide` bins over [0, 9] instead of [0, 1000]. Codes hoisted from the
/// whole column would put nine of ten values in bin 0; the batch must take
/// the scalar path for any pair touching a column with a missing cell.
#[test]
fn dropped_row_holds_a_columns_extreme() {
    let wide: Vec<f64> = (0..10).map(f64::from).chain([1000.0]).collect();
    let low: Vec<f64> = (0..10).map(f64::from).chain([-1000.0]).collect();
    let holed: Vec<f64> = (0..10)
        .map(|i| f64::from((i * 7) % 10))
        .chain([f64::NAN])
        .collect();
    let filled: Vec<f64> = (0..10)
        .map(|i| f64::from((i * 7) % 10))
        .chain([4.0])
        .collect();
    let t = table(&[
        Col::Num(wide),
        Col::Num(low),
        Col::Num(holed),
        Col::Num(filled),
    ]);
    let class = StatisticalDependence;
    let batch = class.candidates(&t);
    assert_batch_is_score(&t, &batch);
    // the hole matters: with the extreme row present the same pair bins
    // `wide` over the full range and scores differently
    for extreme in [0, 1] {
        assert_ne!(
            class.score(&t, &AttrTuple::Two(extreme, 2)),
            class.score(&t, &AttrTuple::Two(extreme, 3)),
        );
    }
}
