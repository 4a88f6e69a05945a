//! Property-based tests for query-execution invariants, including the
//! performance machinery: every fast path (score cache, batch scoring,
//! parallel assembly, quickselect top-k) must be observationally identical
//! to the slow path it replaces.

use foresight_data::TableBuilder;
use foresight_engine::executor::rank_top_k;
use foresight_engine::order::RankOrders;
use foresight_engine::recommend::{carousels, CarouselConfig};
use foresight_engine::{Executor, InsightQuery, NeighborhoodWeights, ScoreCache, Session};
use foresight_insight::{AttrTuple, InsightClass, InsightInstance, InsightRegistry};
use foresight_stats::prepared::PreparedColumns;
use proptest::prelude::*;

fn table(cols: usize, rows: usize, seed: u64) -> foresight_data::Table {
    let mut builder = TableBuilder::new("t");
    for c in 0..cols {
        let values: Vec<f64> = (0..rows)
            .map(|r| {
                let x = (r as u64)
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(seed + c as u64);
                (x >> 33) as f64 / 1e9 + if c % 2 == 0 { r as f64 } else { 0.0 }
            })
            .collect();
        builder = builder.numeric(format!("col{c}"), values);
    }
    builder.build().expect("valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn results_respect_all_query_constraints(
        cols in 3usize..7,
        rows in 20usize..80,
        seed in 0u64..1000,
        k in 1usize..10,
        fixed in 0usize..3,
        lo in 0.0f64..0.5,
        span in 0.1f64..0.5,
    ) {
        let t = table(cols, rows, seed);
        let registry = InsightRegistry::default();
        let ex = Executor::exact(&t, &registry);
        let q = InsightQuery::class("linear-relationship")
            .top_k(k)
            .fix_attr(fixed)
            .score_range(lo, lo + span);
        let out = ex.execute(&q).expect("valid query");
        prop_assert!(out.len() <= k);
        for w in out.windows(2) {
            prop_assert!(w[0].score >= w[1].score);
        }
        for inst in &out {
            prop_assert!(inst.attrs.contains(fixed));
            prop_assert!(inst.score >= lo && inst.score <= lo + span);
        }
    }

    #[test]
    fn execution_is_deterministic(seed in 0u64..500) {
        let t = table(5, 40, seed);
        let registry = InsightRegistry::default();
        let ex = Executor::exact(&t, &registry);
        let q = InsightQuery::class("skew").top_k(5);
        prop_assert_eq!(ex.execute(&q).unwrap(), ex.execute(&q).unwrap());
    }

    #[test]
    fn session_round_trips(focus_count in 0usize..6, queries in 0usize..6) {
        let mut s = Session::new("prop");
        for i in 0..focus_count {
            s.focus(InsightInstance {
                class_id: format!("class{}", i % 3),
                attrs: AttrTuple::Two(i, i + 1),
                score: i as f64 / 10.0,
                metric: "m".into(),
                detail: format!("insight {i}"),
            });
        }
        for i in 0..queries {
            s.record_query(&InsightQuery::class("linear-relationship"), i);
        }
        let json = s.to_json().expect("serialize");
        let back = Session::from_json(&json).expect("parse");
        prop_assert_eq!(s, back);
    }

    #[test]
    fn similarity_is_symmetric_and_bounded(
        a1 in 0usize..6, a2 in 6usize..12, b1 in 0usize..6, b2 in 6usize..12,
        s1 in 0.0f64..1.0, s2 in 0.0f64..1.0,
    ) {
        let x = InsightInstance {
            class_id: "c".into(),
            attrs: AttrTuple::Two(a1, a2),
            score: s1,
            metric: "m".into(),
            detail: String::new(),
        };
        let y = InsightInstance {
            class_id: "c".into(),
            attrs: AttrTuple::Two(b1, b2),
            score: s2,
            metric: "m".into(),
            detail: String::new(),
        };
        let sim = x.similarity(&y);
        prop_assert!((0.0..=1.0).contains(&sim));
        prop_assert!((sim - y.similarity(&x)).abs() < 1e-12);
        // identity similarity is maximal
        prop_assert!(x.similarity(&x) >= sim);
    }
}

/// Cell values with deliberate ties (a small integer grid), occasional
/// missing values, and a continuous component — every scoring edge case the
/// fast paths must reproduce exactly.
fn cell() -> impl Strategy<Value = f64> {
    prop_oneof![
        -40.0..40.0f64,
        (0..6i32).prop_map(f64::from),
        Just(f64::NAN),
    ]
}

/// Equal-length numeric columns plus a categorical column, so all 12
/// default classes have candidates.
fn mixed_table(columns: Vec<Vec<f64>>) -> foresight_data::Table {
    let rows = columns[0].len();
    let mut builder = TableBuilder::new("prop");
    for (i, col) in columns.into_iter().enumerate() {
        builder = builder.numeric(format!("n{i}"), col);
    }
    builder = builder.categorical(
        "cat",
        (0..rows).map(|i| match i % 3 {
            0 => "a",
            1 => "b",
            _ => "c",
        }),
    );
    builder.build().expect("uniform columns")
}

fn numeric_columns() -> impl Strategy<Value = Vec<Vec<f64>>> {
    proptest::collection::vec(proptest::collection::vec(cell(), 36), 3..5)
}

/// The batch contracts of one class on one table: `score_batch ≡ score`,
/// and `score_metric_batch ≡ score_metric` for the primary metric and every
/// alternative — through a store nobody has touched and through `shared`,
/// which earlier classes (and earlier metrics) have already filled.
fn assert_batch_contracts(
    class: &dyn InsightClass,
    t: &foresight_data::Table,
    shared: &PreparedColumns,
) {
    let candidates = class.candidates(t);
    for (attrs, batch) in candidates.iter().zip(class.score_batch(t, &candidates)) {
        assert_eq!(
            class.score(t, attrs).map(f64::to_bits),
            batch.map(f64::to_bits),
            "{} batch diverges on {attrs:?}",
            class.id()
        );
    }
    for metric in std::iter::once(class.metric()).chain(class.alternative_metrics()) {
        let cold = class.score_metric_batch(t, &candidates, metric, &PreparedColumns::new());
        let warm = class.score_metric_batch(t, &candidates, metric, shared);
        assert_eq!(cold.len(), candidates.len());
        for ((attrs, cold), warm) in candidates.iter().zip(cold).zip(warm) {
            let single = class.score_metric(t, attrs, metric).map(f64::to_bits);
            assert_eq!(
                single,
                cold.map(f64::to_bits),
                "{} {metric} batch diverges on {attrs:?}",
                class.id()
            );
            assert_eq!(
                single,
                warm.map(f64::to_bits),
                "{} {metric} batch over a warm store diverges on {attrs:?}",
                class.id()
            );
        }
    }
}

/// The batch contracts at the row counts where per-column preparation
/// changes behaviour: no rows, one row, two rows (the smallest centrable
/// column), the OECD table's 35, and the wide benchmark table's 2 000 — on
/// columns with ties, NaN holes, a constant, and a categorical.
#[test]
fn batch_contracts_hold_at_every_size() {
    for n in [0usize, 1, 2, 35, 2_000] {
        let wave = |i: usize| (i as f64 * 0.731).sin() * 40.0;
        let t = mixed_table(vec![
            (0..n).map(wave).collect(),
            (0..n)
                .map(|i| wave(i) * wave(i) + i as f64 * 0.01)
                .collect(),
            (0..n).map(|i| (i % 5) as f64).collect(),
            (0..n)
                .map(|i| if i % 7 == 3 { f64::NAN } else { wave(i + 11) })
                .collect(),
            vec![4.25; n],
        ]);
        let shared = PreparedColumns::new();
        for class in InsightRegistry::default().classes() {
            assert_batch_contracts(class.as_ref(), &t, &shared);
        }
    }
}

fn assert_bit_identical(a: &[InsightInstance], b: &[InsightInstance], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: result counts differ");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(
            x.score.to_bits(),
            y.score.to_bits(),
            "{ctx}: scores differ on {:?}: {} vs {}",
            x.attrs,
            x.score,
            y.score
        );
        assert_eq!(x, y, "{ctx}: instances differ");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Cached, warm-cached, and parallel execution are all bit-identical
    /// to plain serial execution, for every registered class — a warm
    /// query walking the order its cold run filled, and a fixed-attribute
    /// one reading the plane — and the
    /// `score_batch` / `score_metric_batch` they all score through are
    /// bit-identical to per-candidate `score` / `score_metric`, the
    /// contract that lets them.
    #[test]
    fn all_execution_paths_bit_identical(cols in numeric_columns()) {
        let t = mixed_table(cols);
        let r = InsightRegistry::default();
        let (cache, orders) = (ScoreCache::new(), RankOrders::new());
        let prepared = PreparedColumns::new();
        for class in r.classes() {
            assert_batch_contracts(class.as_ref(), &t, &prepared);
            let q = InsightQuery::class(class.id()).top_k(6);
            let serial = Executor::exact(&t, &r).execute(&q).expect("serial");
            let parallel = Executor::exact(&t, &r)
                .parallel(true)
                .execute(&q)
                .expect("parallel");
            assert_bit_identical(&serial, &parallel, &format!("{} parallel", class.id()));
            let cached = || {
                Executor::exact(&t, &r)
                    .parallel(true)
                    .with_cache(&cache)
                    .with_orders(&orders)
            };
            let cold = cached().execute(&q).expect("cold cache");
            assert_bit_identical(&serial, &cold, &format!("{} cold cache", class.id()));
            let warm = cached().execute(&q).expect("warm cache");
            assert_bit_identical(&serial, &warm, &format!("{} warm cache", class.id()));
            let pinned = q.clone().fix_attr(0);
            let serial = Executor::exact(&t, &r).execute(&pinned).expect("serial pinned");
            let warm = cached().execute(&pinned).expect("warm pinned");
            assert_bit_identical(&serial, &warm, &format!("{} warm pinned", class.id()));
        }
        let stats = cache.stats();
        prop_assert!(stats.hits > 0, "warm pass never hit the cache: {:?}", stats);
    }

    /// Parallel carousel assembly returns exactly the serial output, in the
    /// same (registry) order — with and without a focus set.
    #[test]
    fn parallel_carousels_equal_serial(cols in numeric_columns(), focused in (0u32..2).prop_map(|b| b == 1)) {
        let t = mixed_table(cols);
        let r = InsightRegistry::default();
        let cache = ScoreCache::new();
        let ex = Executor::exact(&t, &r).with_cache(&cache);
        let mut session = Session::new("prop");
        if focused {
            session.focus(InsightInstance {
                class_id: "dispersion".into(),
                attrs: AttrTuple::One(1),
                score: 1.0,
                metric: "variance".into(),
                detail: String::new(),
            });
        }
        let config = CarouselConfig {
            per_class: 3,
            weights: NeighborhoodWeights::default(),
            focus_overfetch: 4,
        };
        // assembly follows the executor's flag: one task per class
        let serial = carousels(&ex, &session, &config).expect("serial");
        let parallel_ex = Executor::exact(&t, &r).parallel(true).with_cache(&cache);
        let parallel = carousels(&parallel_ex, &session, &config).expect("parallel");
        prop_assert_eq!(serial, parallel);
    }

    /// Quickselect top-k returns exactly sort-then-truncate, including the
    /// deterministic attribute-tuple tie-break on equal scores.
    #[test]
    fn rank_top_k_equals_sort_truncate(
        entries in proptest::collection::vec((0usize..12, 0usize..12, 0i32..4), 0..60),
        k in 0usize..70,
    ) {
        let scored: Vec<(AttrTuple, f64)> = entries
            .into_iter()
            .map(|(a, b, s)| {
                let (lo, hi) = if a <= b { (a, b + 1) } else { (b, a + 1) };
                // coarse score grid forces plenty of ties
                (AttrTuple::Two(lo, hi), f64::from(s) * 0.5)
            })
            .collect();
        let mut reference = scored.clone();
        reference.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("finite")
                .then_with(|| a.0.cmp(&b.0))
        });
        reference.truncate(k);
        prop_assert_eq!(rank_top_k(scored, k), reference);
    }
}
