//! The per-snapshot prepared-column store, end to end: it may change how
//! fast an answer comes, never the answer, never across snapshots whose
//! rows differ — and flows that score no exact pair must leave it empty.

use foresight_data::datasets::{synth, SynthConfig};
use foresight_data::{Table, TableSource};
use foresight_engine::{
    CandidateStrategy, CoreBuilder, EngineCore, Executor, InsightQuery, Mode, SessionHandle,
};
use foresight_insight::{AttrTuple, InsightInstance, InsightRegistry};
use foresight_sketch::CatalogConfig;
use foresight_stats::prepared::Transform;
use std::sync::Arc;

/// Wide enough (≥ 64 numeric columns) that `Auto` resolves to LSH.
fn wide_table(rows: usize, numeric: usize, seed: u64) -> Table {
    synth(&SynthConfig::benchmark(rows, numeric, seed)).0
}

fn preprocessed(table: Table) -> Arc<EngineCore> {
    let mut builder = CoreBuilder::new(TableSource::materialized(table));
    builder.preprocess(&CatalogConfig::default()).unwrap();
    builder.freeze()
}

/// The benchmark's query vocabulary (`benchmark/src/script.rs`): top-k,
/// fixed attribute, score range, diversify, alternative metric — plus the
/// alternative metrics of the monotonic class, which share the store's two
/// transforms with the linear one.
fn vocabulary() -> Vec<InsightQuery> {
    let mut queries = Vec::new();
    for class in [
        "linear-relationship",
        "monotonic-relationship",
        "statistical-dependence",
    ] {
        queries.push(InsightQuery::class(class).top_k(10));
        queries.push(InsightQuery::class(class).fix_attr(3));
        queries.push(InsightQuery::class(class).fix_attr(40).fix_attr(7));
        queries.push(InsightQuery::class(class).score_range(0.3, 0.8));
        queries.push(InsightQuery::class(class).diversify(0.5));
    }
    let alt = |class: &str, metric: &str| InsightQuery::class(class).metric(metric);
    queries.push(alt("linear-relationship", "|spearman|").fix_attr(12));
    queries.push(alt("linear-relationship", "|spearman|").top_k(7));
    queries.push(alt("linear-relationship", "|pearson|").fix_attr(12));
    queries.push(alt("monotonic-relationship", "nonlinearity-gap").fix_attr(5));
    queries.push(alt("monotonic-relationship", "|kendall-tau|").fix_attr(5));
    queries.push(alt("heavy-tails", "excess-kurtosis"));
    queries.push(InsightQuery::class("skew").top_k(3));
    queries
}

fn handle_at(core: &Arc<EngineCore>, mode: Mode, strategy: CandidateStrategy) -> SessionHandle {
    let mut handle = core.handle();
    handle.set_mode(mode).unwrap();
    handle.set_candidate_strategy(strategy);
    handle
}

fn bits(answers: &[InsightInstance]) -> Vec<(AttrTuple, u64, &str, &str)> {
    answers
        .iter()
        .map(|i| {
            (
                i.attrs,
                i.score.to_bits(),
                i.metric.as_str(),
                i.detail.as_str(),
            )
        })
        .collect()
}

/// One core answers the whole vocabulary in sequence (its store warming as
/// it goes, across classes and metrics); each answer is held against a
/// core nobody has queried (cold store, cold cache) and against a
/// standalone executor (call-local store, no cache).
#[test]
fn cold_store_warm_store_and_standalone_executor_agree() {
    let table = wide_table(90, 70, 11);
    let warm = preprocessed(table.clone());
    let registry = InsightRegistry::default();
    for mode in [Mode::Exact, Mode::Approximate] {
        for strategy in [CandidateStrategy::Exhaustive, CandidateStrategy::Auto] {
            let mut warm_handle = handle_at(&warm, mode, strategy);
            for query in vocabulary() {
                let ctx = format!("{mode:?} {strategy:?} {query:?}");
                // `Auto` walks the warm core's order once one is filled —
                // the `Exhaustive` answer, which a cold `Auto` would draw
                // from LSH instead
                let walks = query.fixed_attrs.is_empty()
                    && query.diversify.is_none()
                    && warm.rank_orders().is_filled(
                        warm.registry(),
                        &query.class_id,
                        mode,
                        query.metric.as_deref(),
                    );
                let expected = if walks {
                    CandidateStrategy::Exhaustive
                } else {
                    strategy
                };
                let served = warm_handle.query(&query).expect(&ctx);
                let cold = preprocessed(table.clone());
                let fresh = handle_at(&cold, mode, expected).query(&query).expect(&ctx);
                assert_eq!(bits(&served), bits(&fresh), "warm vs cold store: {ctx}");
                let standalone = match mode {
                    Mode::Exact => Executor::exact(&table, &registry),
                    Mode::Approximate => {
                        Executor::approximate(&table, &registry, cold.catalog().unwrap())
                    }
                }
                .with_candidates(cold.candidate_source(expected))
                .execute(&query)
                .expect(&ctx);
                assert_eq!(bits(&served), bits(&standalone), "core vs executor: {ctx}");
                // and once more, now that store and cache both hold it
                let again = warm_handle.query(&query).expect(&ctx);
                assert_eq!(bits(&served), bits(&again), "repeat: {ctx}");
            }
        }
    }
    let store = warm.prepared_columns();
    assert!(store.filled(Transform::Centered) > 0);
    assert!(store.filled(Transform::CenteredRanks) > 0);
    // bounded: never more than one vector per numeric column and transform
    // (this test runs under a single kernel mode)
    let numeric = table.numeric_indices().len();
    assert!(store.filled(Transform::Centered) <= numeric);
    assert!(store.filled(Transform::CenteredRanks) <= numeric);
    assert!(warm.resource_snapshot(0).prepared_bytes as usize >= 90 * 8);
}

fn rank_queries() -> Vec<InsightQuery> {
    vec![
        InsightQuery::class("linear-relationship").metric("|spearman|"),
        InsightQuery::class("monotonic-relationship").metric("nonlinearity-gap"),
        InsightQuery::class("monotonic-relationship").top_k(8),
        InsightQuery::class("linear-relationship").fix_attr(2),
    ]
}

fn answers(core: &Arc<EngineCore>) -> Vec<Vec<InsightInstance>> {
    let mut handle = handle_at(core, Mode::Exact, CandidateStrategy::Exhaustive);
    rank_queries()
        .iter()
        .map(|q| handle.query(q).unwrap())
        .collect()
}

/// A republish that leaves the rows alone may keep the store (a sole-owner
/// takeover moves it, a shared one starts empty); either way the new
/// snapshot answers like a core built cold over the same rows.
#[test]
fn a_republish_over_the_same_rows_answers_like_a_cold_core() {
    let table = wide_table(60, 12, 3);
    let expected = answers(&CoreBuilder::new(TableSource::materialized(table.clone())).freeze());
    let linear = InsightRegistry::default()
        .get("linear-relationship")
        .unwrap()
        .clone();

    let core = CoreBuilder::new(TableSource::materialized(table)).freeze();
    assert_eq!(answers(&core), expected);
    let filled = core.prepared_columns().filled(Transform::CenteredRanks);
    assert_eq!(filled, 12);

    // shared takeover (a reader still holds the old snapshot)
    let mut writer = CoreBuilder::from_arc(Arc::clone(&core));
    writer.register_class(linear.clone());
    let shared = writer.freeze();
    assert_ne!(shared.epoch(), core.epoch(), "scores were invalidated");
    assert_eq!(shared.prepared_columns().approx_bytes(), 0);
    assert_eq!(answers(&shared), expected);
    assert_eq!(answers(&core), expected, "the old snapshot is untouched");
    drop(shared);

    // sole-owner takeover: same rows, so the filled slots travel along
    let mut writer = CoreBuilder::from_arc(core);
    writer.register_class(linear);
    let moved = writer.freeze();
    assert_eq!(
        moved.prepared_columns().filled(Transform::CenteredRanks),
        filled
    );
    assert_eq!(answers(&moved), expected);
}

/// Appending rows replaces the lazily materialised table — and with it the
/// store: the new snapshot starts with no slot and answers like a cold
/// build over all the rows, while a reader of the old snapshot keeps its
/// own slots and its own answers.
#[test]
fn a_rebuilt_table_never_reads_slots_of_the_old_rows() {
    let whole = wide_table(120, 10, 9);
    let head = whole.filter_rows(|r| r < 70);
    let tail = whole.filter_rows(|r| r >= 70);

    let old = CoreBuilder::new(TableSource::sharded(vec![head.clone()]).unwrap()).freeze();
    let old_answers = answers(&old);
    assert_eq!(
        old.prepared_columns().filled(Transform::CenteredRanks),
        10,
        "filled from the materialised head"
    );

    for keep_reader in [true, false] {
        let old = if keep_reader {
            Arc::clone(&old)
        } else {
            // a second, solely owned snapshot over the same head, warmed
            let solo = CoreBuilder::new(TableSource::sharded(vec![head.clone()]).unwrap()).freeze();
            assert_eq!(answers(&solo), old_answers);
            solo
        };
        let mut writer = CoreBuilder::from_arc(old);
        writer.append_shard(tail.clone()).unwrap();
        let new = writer.freeze();
        assert_eq!(
            new.prepared_columns().approx_bytes(),
            0,
            "the store went with the rows it was derived from"
        );
        let cold =
            CoreBuilder::new(TableSource::sharded(vec![head.clone(), tail.clone()]).unwrap())
                .freeze();
        let new_answers = answers(&new);
        assert_eq!(new_answers, answers(&cold));
        assert_ne!(new_answers, old_answers, "fifty more rows move the scores");
    }
    assert_eq!(answers(&old), old_answers);
}

/// First contact as `cold_open` makes it — preprocess → index → carousels
/// → profile, every numeric column sketched — and a sharded core score no
/// exact correlation, so they must not pay for the store at all.
#[test]
fn first_contact_and_sharded_cores_leave_the_store_empty() {
    let table = wide_table(400, 24, 21);
    let mut builder = CoreBuilder::new(TableSource::materialized(table.clone()));
    builder.preprocess(&CatalogConfig::default()).unwrap();
    builder.build_index().unwrap();
    let core = builder.freeze();
    let handle = core.handle();
    assert!(!handle.carousels(5).unwrap().is_empty());
    handle.profile().unwrap();
    assert_eq!(core.prepared_columns().approx_bytes(), 0);
    assert_eq!(core.resource_snapshot(0).prepared_bytes, 0);

    let shards = vec![
        table.filter_rows(|r| r < 150),
        table.filter_rows(|r| r >= 150),
    ];
    let mut builder = CoreBuilder::new(TableSource::sharded(shards).unwrap());
    builder.preprocess(&CatalogConfig::default()).unwrap();
    builder.build_index().unwrap();
    let core = builder.freeze();
    let mut handle = core.handle();
    handle.carousels(5).unwrap();
    handle.profile().unwrap();
    for class in core.registry().classes() {
        handle
            .query(&InsightQuery::class(class.id()).fix_attr(1))
            .unwrap();
    }
    assert_eq!(core.prepared_columns().approx_bytes(), 0);
}

/// The `explore_wide` set-up sequence (`benchmark/src/workloads/
/// explore_wide.rs::wide_core`) on its 256-column shape: carousels, one
/// query per pairwise class, every fixed-attribute query and the `|spearman|`
/// alternative per column, under `Exhaustive` then `Auto`. In approximate
/// mode the only exact correlations are the alternative metric's, so the
/// store ends with one centred-rank vector per numeric column and nothing
/// else.
#[test]
fn the_explore_wide_set_up_fills_exactly_the_rank_slots() {
    let table = wide_table(120, 256, 101);
    let core = preprocessed(table.clone());
    let pairwise = [
        "linear-relationship",
        "monotonic-relationship",
        "statistical-dependence",
    ];
    let mut handle = core.handle();
    handle.carousels(5).unwrap();
    for strategy in [CandidateStrategy::Exhaustive, CandidateStrategy::Auto] {
        handle.set_candidate_strategy(strategy);
        for class in pairwise {
            handle.query(&InsightQuery::class(class)).unwrap();
        }
        for attr in table.numeric_indices() {
            for class in pairwise {
                handle
                    .query(&InsightQuery::class(class).fix_attr(attr))
                    .unwrap();
            }
            let alt = InsightQuery::class("linear-relationship")
                .metric("|spearman|")
                .fix_attr(attr);
            let answered = handle.query(&alt).unwrap().len();
            // LSH collisions may leave a column with fewer than five partners
            assert!(answered == 5 || strategy == CandidateStrategy::Auto);
        }
    }
    let store = core.prepared_columns();
    assert_eq!(store.filled(Transform::CenteredRanks), 256);
    assert_eq!(store.filled(Transform::Centered), 0);
    let vectors = 256 * 120 * std::mem::size_of::<f64>();
    let bytes = core.resource_snapshot(0).prepared_bytes as usize;
    assert!(
        (vectors..vectors + 256 * 1024).contains(&bytes),
        "{bytes} B for {vectors} B of vectors"
    );
}
