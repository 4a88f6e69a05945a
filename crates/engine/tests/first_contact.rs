//! First contact computes each thing once: a profile's headlines are the
//! core's own answers to `class.top_k(1)` (index-served when an index of
//! that mode exists), and index-served results take their descriptions
//! through the same memo executor results do.

use foresight_data::datasets::{self, SynthConfig};
use foresight_data::{Table, TableSource};
use foresight_engine::profile::column_profiles;
use foresight_engine::{CoreBuilder, EngineCore, Executor, InsightQuery, Mode, QueryOptions};
use foresight_insight::{InsightInstance, InsightRegistry};
use foresight_sketch::CatalogConfig;
use std::sync::Arc;

fn synth(rows: usize, cols: usize, seed: u64) -> Table {
    datasets::synth(&SynthConfig::benchmark(rows, cols, seed)).0
}

/// Two shards covering the rows of `table`.
fn halves(table: &Table) -> TableSource {
    let mid = table.n_rows() / 2;
    TableSource::sharded(vec![
        table.filter_rows(|r| r < mid),
        table.filter_rows(|r| r >= mid),
    ])
    .unwrap()
}

fn core(source: TableSource, preprocess: bool, index: bool) -> Arc<EngineCore> {
    let mut builder = CoreBuilder::new(source);
    if preprocess {
        builder.preprocess(&CatalogConfig::default()).unwrap();
    }
    if index {
        builder.build_index().unwrap();
    }
    builder.freeze()
}

/// What a session in `mode` gets for `class.top_k(1)`, over registry order.
fn top_of_every_class(core: &Arc<EngineCore>, mode: Mode) -> Vec<InsightInstance> {
    let mut handle = core.handle();
    handle.set_mode(mode).unwrap();
    core.registry()
        .classes()
        .iter()
        .flat_map(|class| {
            handle
                .query(&InsightQuery::class(class.id()).top_k(1))
                .unwrap()
        })
        .collect()
}

/// (i) headlines ≡ the concatenation of `query(class.top_k(1))`.
#[test]
fn headlines_are_the_cores_own_top_1_answers() {
    let table = synth(400, 6, 11);
    let cases: Vec<(&str, Arc<EngineCore>, Mode)> = vec![
        (
            "materialized, exact",
            core(TableSource::materialized(table.clone()), false, false),
            Mode::Exact,
        ),
        (
            "materialized, exact, exact-mode index",
            core(TableSource::materialized(table.clone()), false, true),
            Mode::Exact,
        ),
        (
            "materialized, approximate, no index",
            core(TableSource::materialized(table.clone()), true, false),
            Mode::Approximate,
        ),
        (
            "materialized, approximate, indexed",
            core(TableSource::materialized(table.clone()), true, true),
            Mode::Approximate,
        ),
        (
            "materialized, exact asked of an approximate-indexed core",
            core(TableSource::materialized(table.clone()), true, true),
            Mode::Exact,
        ),
        (
            "sharded, approximate, no index",
            core(halves(&table), true, false),
            Mode::Approximate,
        ),
        (
            "sharded, approximate, indexed",
            core(halves(&table), true, true),
            Mode::Approximate,
        ),
    ];
    for (what, core, mode) in cases {
        // profile first, so the headlines cannot be echoes of the queries
        let profile = core.profile(mode).unwrap();
        assert!(!profile.headline_insights.is_empty(), "{what}");
        assert_eq!(
            profile.headline_insights,
            top_of_every_class(&core, mode),
            "{what}"
        );
        assert_eq!(profile.rows, 400, "{what}");
        assert_eq!(profile.columns.len(), table.n_cols(), "{what}");
    }
}

/// The headline loop `profile()` ran before it asked the core: a bare
/// exact executor over the raw rows, one top-1 query per class. Kept here
/// as the oracle for exact mode.
fn old_headlines(table: &Table, registry: &InsightRegistry) -> Vec<InsightInstance> {
    let executor = Executor::exact(table, registry);
    let mut headline_insights = Vec::new();
    for class in registry.classes() {
        if let Ok(mut top) = executor.execute(&InsightQuery::class(class.id()).top_k(1)) {
            headline_insights.append(&mut top);
        }
    }
    headline_insights
}

/// (ii) exact-mode profiles are bit-identical to the old loop's.
#[test]
fn exact_profiles_match_the_bare_executor_loop() {
    for table in [datasets::oecd(), synth(600, 8, 5)] {
        let registry = InsightRegistry::default();
        let headlines = old_headlines(&table, &registry);
        let columns = column_profiles(&table).unwrap();
        for (what, core) in [
            (
                "plain",
                core(TableSource::materialized(table.clone()), false, false),
            ),
            (
                "exact-mode index",
                core(TableSource::materialized(table.clone()), false, true),
            ),
            (
                "preprocessed, exact asked explicitly",
                core(TableSource::materialized(table.clone()), true, true),
            ),
        ] {
            let profile = core.profile(Mode::Exact).unwrap();
            assert_eq!(profile.name, table.name(), "{what}");
            assert_eq!(profile.rows, table.n_rows(), "{what}");
            assert_eq!(profile.columns, columns, "{} / {what}", table.name());
            assert_eq!(
                profile.headline_insights,
                headlines,
                "{} / {what}",
                table.name()
            );
        }
    }
}

/// (iii) on a freshly frozen indexed core the headlines come off the index:
/// the score cache is never consulted (every executor query looks its
/// candidates up there first), and a second call is a memo clone.
#[test]
fn profile_on_an_indexed_core_scores_nothing() {
    let table = synth(500, 6, 3);
    for source in [TableSource::materialized(table.clone()), halves(&table)] {
        let core = core(source, true, true);
        assert_eq!(core.mode(), Mode::Approximate);
        let before = core.cache_stats();
        let first = core.profile(core.mode()).unwrap();
        let after = core.cache_stats();
        assert_eq!(
            (after.hits, after.misses, after.entries),
            (before.hits, before.misses, before.entries),
            "profile reached the scoring path"
        );
        let served = core.metrics_snapshot().queries;
        if cfg!(feature = "telemetry") {
            assert_eq!(served.total, core.registry().len() as u64);
            assert_eq!(served.index_served, served.total);
        }
        let second = core.profile(core.mode()).unwrap();
        assert_eq!(first, second);
        assert_eq!(core.cache_stats().misses, before.misses);
        assert_eq!(
            core.metrics_snapshot().queries.total,
            served.total,
            "the second profile ran queries instead of cloning the memo"
        );
    }
}

/// (iv) an index-served result's `detail` is `class.describe` bit for bit,
/// the first time (memo miss) and every time after (memo hit).
#[test]
fn index_served_detail_is_describe_on_miss_and_hit() {
    let table = synth(500, 6, 9);
    for (core, mode) in [
        (
            core(TableSource::materialized(table.clone()), false, true),
            Mode::Exact,
        ),
        (
            core(TableSource::materialized(table.clone()), true, true),
            Mode::Approximate,
        ),
    ] {
        let opts = QueryOptions {
            mode,
            parallel: false,
            ..core.options()
        };
        for class in core.registry().classes() {
            let q = InsightQuery::class(class.id()).top_k(3);
            let miss = core.run(&q, &opts).unwrap().results;
            let hit = core.run(&q, &opts).unwrap().results;
            assert_eq!(miss, hit, "class {}", class.id());
            for instance in &miss {
                assert_eq!(
                    instance.detail,
                    class.describe(&table, &instance.attrs, instance.score),
                    "class {} in {mode:?}",
                    class.id()
                );
            }
        }
        // every one of those was served from the index, none scored
        let stats = core.cache_stats();
        assert_eq!((stats.hits, stats.misses), (0, 0));
    }
}

/// (v) `freeze` hands the staged index's scores to the snapshot's cache:
/// the first carousels — which go through the executor, not the index —
/// score nothing, and are byte-identical to the carousels of the same
/// table frozen without an index, where every candidate is a miss.
#[test]
fn first_carousels_after_an_index_build_score_nothing() {
    let table = synth(600, 8, 7);
    for (what, source, preprocess) in [
        ("exact", TableSource::materialized(table.clone()), false),
        (
            "approximate",
            TableSource::materialized(table.clone()),
            true,
        ),
        ("sharded, approximate", halves(&table), true),
    ] {
        let indexed = core(source.clone(), preprocess, true);
        let candidates: usize = indexed
            .registry()
            .classes()
            .iter()
            .map(|class| class.candidates(&table).len())
            .sum();
        let before = indexed.cache_stats();
        // every score the build computed, the degenerate ones included
        assert_eq!(before.entries, candidates, "{what}");
        assert_eq!((before.hits, before.misses), (0, 0), "{what}");
        let first = indexed.handle().carousels(5).unwrap();
        let after = indexed.cache_stats();
        assert_eq!(after.misses, 0, "{what}: first carousels rescored");
        assert_eq!(after.hits, candidates as u64, "{what}");
        assert_eq!(after.entries, candidates, "{what}");

        let plain = core(source, preprocess, false);
        let cold = plain.handle().carousels(5).unwrap();
        assert_eq!(plain.cache_stats().misses, candidates as u64, "{what}");
        assert_eq!(
            serde_json::to_string(&first).unwrap(),
            serde_json::to_string(&cold).unwrap(),
            "{what}"
        );
    }
}

/// (vi) an index build scores through the executor's one routine, so its
/// exact fallbacks are counted like a query's: on the benchmark's 24 + 4
/// columns, one per candidate that no sketch estimator covers. EXPLAIN on
/// such a class still names the path per result.
#[test]
fn index_build_fallbacks_are_counted_and_explained() {
    let table = synth(300, 24, 13);
    assert_eq!(table.n_cols(), 28);
    let indexed = core(TableSource::materialized(table.clone()), true, true);
    let catalog = indexed.catalog().unwrap();
    let sketchless: usize = indexed
        .registry()
        .classes()
        .iter()
        .map(|class| {
            class
                .candidates(&table)
                .iter()
                .filter(|attrs| class.score_sketch(catalog, &table, attrs).is_none())
                .count()
        })
        .sum();
    assert!(sketchless >= 28 * 27 / 2, "dependence has no sketch path");
    if cfg!(feature = "telemetry") {
        assert_eq!(
            indexed.metrics_snapshot().sketch_fallbacks,
            sketchless as u64
        );
    }

    let unindexed = core(TableSource::materialized(table), true, false);
    let q = InsightQuery::class("statistical-dependence").top_k(5);
    let cold = unindexed.handle().explain(&q).unwrap();
    let warm = unindexed.handle().explain(&q).unwrap();
    assert_eq!(cold.results, warm.results);
    assert_eq!(
        cold.results,
        indexed.run(&q, &indexed.options()).unwrap().results
    );
    if cfg!(feature = "trace") {
        for (explained, path) in [(cold, "exact-fallback"), (warm, "cache")] {
            let trace = explained.trace.expect("forced trace");
            assert_eq!(trace.results.len(), 5);
            for result in &trace.results {
                assert_eq!(result.path, path);
                assert_eq!(result.cache_hit, path == "cache");
            }
        }
    }
}
