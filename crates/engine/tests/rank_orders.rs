//! Rank orders change how an answer is found, never the answer: a query
//! walked off a snapshot's precomputed order is bit-identical to the same
//! query scored and ranked by a store-less executor — over exact and
//! approximate cores, cold and warm stores, sharded and raw-row-dropped
//! sources — and only the queries the orders can answer walk them. Whether
//! a query walked shows in the cache counters (a walk looks nothing up)
//! and in the index-served query counter; any other query on a filled
//! keyspace reads its plane, so it never misses.

use foresight_data::datasets::{synth, SynthConfig};
use foresight_data::{Table, TableBuilder, TableSource};
use foresight_engine::{
    CandidateStrategy, CoreBuilder, EngineCore, Executor, InsightQuery, Mode, QueryOptions,
    TraceMode,
};
use foresight_insight::{AttrTuple, CandidatePruning, InsightInstance, InsightRegistry};
use foresight_sketch::CatalogConfig;
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;

/// `numeric` numeric columns — pairs of them correlated, every third one
/// tagged `currency` — then one categorical column.
fn table(numeric: usize, rows: usize, seed: u64) -> Table {
    let noise = |r: usize, c: usize| {
        let x = (r as u64 + 1)
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(
                seed.wrapping_mul(31)
                    .wrapping_add(c as u64 * 1_442_695_040_888_963_407),
            );
        (x >> 33) as f64 / (1u64 << 31) as f64
    };
    let mut builder = TableBuilder::new("orders");
    for c in 0..numeric {
        let values = (0..rows)
            .map(|r| match c % 3 {
                0 => r as f64 + 4.0 * noise(r, c),
                1 => (r as f64).sqrt() * 3.0 + noise(r, c),
                _ => 10.0 * noise(r, c),
            })
            .collect();
        builder = builder.numeric(format!("n{c}"), values);
        if c % 3 == 2 {
            builder = builder.semantic("currency");
        }
    }
    builder
        .categorical(
            "group",
            (0..rows).map(|r| ["a", "b", "c", "a"][(r + seed as usize) % 4]),
        )
        .build()
        .unwrap()
}

const CLASSES: [&str; 7] = [
    "linear-relationship",
    "monotonic-relationship",
    "skew",
    "dispersion",
    "outliers",
    "heterogeneous-frequencies",
    "statistical-dependence",
];

/// A query from one draw: any class, k from 0 past the candidate count,
/// and each of range, exclusion, semantic tag, diversification, fixed
/// attribute and alternative metric on or off.
fn query(table: &Table, draw: (u64, u64)) -> InsightQuery {
    let (a, b) = draw;
    let class = CLASSES[(a % CLASSES.len() as u64) as usize];
    let d = table.n_cols();
    let mut q = InsightQuery::class(class).top_k((a / 7 % 40) as usize);
    if b & 1 != 0 && b & 256 != 0 {
        let lo = (b >> 8) % 10;
        q = q.score_range(lo as f64 / 10.0, lo as f64 / 10.0 + 0.5);
    }
    if b & 2 != 0 {
        let (x, y) = ((b >> 12) as usize % d, (b >> 16) as usize % d);
        q = q
            .exclude(AttrTuple::Two(x.min(y), x.max(y)))
            .exclude(AttrTuple::One(x));
    }
    if b & 4 != 0 && b & 512 != 0 {
        q = q.require_semantic("currency");
    }
    if b & 8 != 0 {
        q = q.diversify([0.0, 0.3, 0.7, 1.0][(b >> 20) as usize % 4]);
    }
    if b & 16 != 0 && b & 32 == 0 {
        q = q.fix_attr((b >> 24) as usize % d);
    }
    if b & 64 != 0 && b & 128 != 0 && class == "linear-relationship" {
        q = q.metric("|spearman|");
    }
    q
}

/// How a core was built: its mode, whether `build_index` ran, and whether
/// its rows are shards (with or without raw rows kept).
#[derive(Debug, Clone, Copy)]
struct Shape {
    approximate: bool,
    indexed: bool,
    sharded: bool,
    drop_raw: bool,
}

fn core(table: &Table, shape: Shape) -> Arc<EngineCore> {
    let shards = || {
        let mid = table.n_rows() / 2;
        TableSource::sharded(vec![
            table.filter_rows(|r| r < mid),
            table.filter_rows(|r| r >= mid),
        ])
        .unwrap()
    };
    let mut builder = if shape.drop_raw {
        // the catalog of the same shards, restored over a source that kept
        // only sketches
        let mut sketched = CoreBuilder::new(shards());
        sketched.preprocess(&CatalogConfig::default()).unwrap();
        let catalog = sketched.freeze().catalog().cloned();
        let mut source = shards();
        source.drop_raw();
        let mut builder = CoreBuilder::new(source);
        builder.restore_catalog(catalog);
        builder
    } else if shape.sharded {
        CoreBuilder::new(shards())
    } else {
        CoreBuilder::new(TableSource::materialized(table.clone()))
    };
    if shape.approximate && !shape.drop_raw {
        builder.preprocess(&CatalogConfig::default()).unwrap();
    }
    if shape.indexed {
        builder.build_index().unwrap();
    }
    builder.freeze()
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

/// A keyspace of the model: class and metric (`None` = the primary).
type Keyspace = (String, Option<String>);

/// Runs `queries` on `core` under `opts` one after another and holds every
/// answer against a store-less executor over the same rows, catalog and
/// candidate source. `filled` models the orders: a keyspace's slot is
/// filled by `build_index` (primary metrics), by the first pass that
/// scored its whole class scan (no LSH draw), or — for a class that
/// declares a pair shape — by the pass that stored its last missing pair;
/// and exactly the unfixed, undiversified queries on a filled slot walk
/// it, but under a forced LSH draw.
fn check(
    core: &EngineCore,
    opts: &QueryOptions,
    queries: &[InsightQuery],
    filled: &mut HashSet<Keyspace>,
) -> Result<(), TestCaseError> {
    let registry = InsightRegistry::default();
    let sketch_backed = core.source().as_materialized().is_none() && opts.mode == Mode::Approximate;
    let schema;
    let rows = if sketch_backed {
        schema = core.source().schema_table();
        &schema
    } else {
        core.table()
    };
    let store_less = match opts.mode {
        Mode::Exact => Executor::exact(rows, &registry),
        Mode::Approximate => Executor::approximate(rows, &registry, core.catalog().unwrap())
            .sketch_only(sketch_backed),
    }
    .with_candidates(core.candidate_source(opts.candidates));
    let source = core.candidate_source(opts.candidates);
    for q in queries {
        let class = core.registry().get(&q.class_id).unwrap();
        let key: Keyspace = (class.id().to_owned(), q.metric.clone());
        let unfixed = q.fixed_attrs.is_empty();
        let diversifies = q.diversify.is_some_and(|lambda| lambda > 0.0);
        let was_filled = filled.contains(&key);
        let walks =
            unfixed && !diversifies && was_filled && source.walks_orders(class.as_ref(), rows);
        let before = (core.cache_stats(), core.metrics_snapshot().queries);
        let served = core.run(q, opts);
        let after = (core.cache_stats(), core.metrics_snapshot().queries);
        let expected = store_less.execute(q);
        match (&served, &expected) {
            (Ok(served), Ok(expected)) => {
                prop_assert_eq!(
                    bits(&served.results),
                    bits(expected),
                    "{:?} on {:?}",
                    q,
                    opts
                )
            }
            (Err(_), Err(_)) => continue,
            _ => prop_assert!(
                false,
                "{:?}: {:?} against {:?}",
                q,
                served.is_ok(),
                expected.is_ok()
            ),
        }
        if walks {
            prop_assert_eq!(
                (after.0.hits, after.0.misses),
                (before.0.hits, before.0.misses),
                "a walk looked scores up: {:?}",
                q
            );
        } else if was_filled {
            prop_assert_eq!(
                after.0.misses,
                before.0.misses,
                "a filled keyspace missed: {:?}",
                q
            );
        }
        prop_assert_eq!(
            after.1.index_served - before.1.index_served,
            u64::from(walks),
            "{:?} on {:?}",
            q,
            opts
        );
        if unfixed
            && !source.would_use_lsh(class.as_ref(), rows)
            && q.semantic.is_none()
            && q.exclude.is_empty()
        {
            filled.insert(key.clone());
        }
        let now = core.rank_orders().is_filled(
            core.registry(),
            class.id(),
            opts.mode,
            q.metric.as_deref(),
        );
        if now && !filled.contains(&key) {
            // completed by coverage: only a declared pair shape can be
            prop_assert!(class.pruning() != CandidatePruning::None, "{:?}", q);
            prop_assert!(!unfixed || !q.exclude.is_empty() || q.semantic.is_some());
            filled.insert(key.clone());
        }
        prop_assert_eq!(now, filled.contains(&key), "{:?} on {:?}", q, opts);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn order_served_equals_the_store_less_executor(
        numeric in 3usize..7,
        rows in 24usize..64,
        seed in 0u64..10_000,
        shape in 0u8..6,
        exact_too in 0u8..2,
        draws in proptest::collection::vec((0u64..u64::MAX, 0u64..u64::MAX), 4..14),
    ) {
        let table = table(numeric, rows, seed);
        let shape = match shape {
            0 => Shape { approximate: false, indexed: false, sharded: false, drop_raw: false },
            1 => Shape { approximate: false, indexed: true, sharded: false, drop_raw: false },
            2 => Shape { approximate: true, indexed: false, sharded: false, drop_raw: false },
            3 => Shape { approximate: true, indexed: true, sharded: false, drop_raw: false },
            4 => Shape { approximate: true, indexed: true, sharded: true, drop_raw: false },
            _ => Shape { approximate: true, indexed: false, sharded: true, drop_raw: true },
        };
        let core = core(&table, shape);
        let queries: Vec<InsightQuery> = draws.iter().map(|&draw| query(&table, draw)).collect();
        let mut filled: HashSet<Keyspace> = if shape.indexed {
            core.registry().classes().iter().map(|c| (c.id().to_owned(), None)).collect()
        } else {
            HashSet::new()
        };
        prop_assert_eq!(core.rank_orders().filled(), filled.len());
        let opts = QueryOptions { parallel: false, ..core.options() };
        // twice over: the first pass fills what the build did not, the
        // second walks it
        check(&core, &opts, &queries, &mut filled)?;
        check(&core, &opts, &queries, &mut filled)?;
        // an approximate core with raw rows answers exact queries too; the
        // orders are per mode, so exact starts cold
        if exact_too == 1 && shape.approximate && !shape.sharded {
            let exact = QueryOptions { mode: Mode::Exact, ..opts };
            let mut exact_filled = HashSet::new();
            check(&core, &exact, &queries, &mut exact_filled)?;
            check(&core, &exact, &queries, &mut exact_filled)?;
        }
    }
}

/// A core over a table wide enough (66 numeric columns) that `Auto` draws
/// pairwise candidates from LSH when no order answers — preprocessed, and
/// indexed when `indexed`.
fn wide_core(seed: u64, indexed: bool) -> Arc<EngineCore> {
    let table = synth(&SynthConfig::benchmark(60, 66, seed)).0;
    let mut builder = CoreBuilder::new(TableSource::materialized(table));
    builder.preprocess(&CatalogConfig::default()).unwrap();
    if indexed {
        builder.build_index().unwrap();
    }
    builder.freeze()
}

fn wide_queries(class: &str) -> Vec<InsightQuery> {
    vec![
        InsightQuery::class(class).top_k(10),
        InsightQuery::class(class).score_range(0.2, 0.9),
        InsightQuery::class(class)
            .top_k(4)
            .exclude(AttrTuple::Two(0, 1)),
    ]
}

/// On a filled order `Auto` walks it: bit for bit the `Exhaustive`
/// answer, counted as index-served, with no cache traffic at all.
#[test]
fn auto_on_a_filled_order_is_exhaustive() {
    for seed in [3, 17] {
        let core = wide_core(seed, true);
        let at = |candidates| QueryOptions {
            candidates,
            parallel: false,
            ..core.options()
        };
        for class in ["linear-relationship", "monotonic-relationship"] {
            for q in wide_queries(class) {
                let exhaustive = core.run(&q, &at(CandidateStrategy::Exhaustive)).unwrap();
                let before = (core.cache_stats(), core.metrics_snapshot().queries);
                let auto = core.run(&q, &at(CandidateStrategy::Auto)).unwrap();
                let after = (core.cache_stats(), core.metrics_snapshot().queries);
                assert_eq!(
                    bits(&auto.results),
                    bits(&exhaustive.results),
                    "seed {seed}: {q:?}"
                );
                assert!(!auto.results.is_empty());
                assert_eq!(after.1.index_served - before.1.index_served, 1, "{q:?}");
                assert_eq!(
                    (after.0.hits, after.0.misses, after.0.entries),
                    (before.0.hits, before.0.misses, before.0.entries),
                    "a walk touched the cache: {q:?}"
                );
            }
        }
    }
}

/// On an empty slot `Auto` still draws LSH collisions — where an index
/// exists — and a draw never fills the slot, nor allocates its plane: its
/// scores are kept only in a plane a scan or a pinned walk allocated.
#[test]
fn auto_on_an_empty_slot_draws_lsh() {
    for seed in [3, 17] {
        let core = wide_core(seed, false);
        if core.lsh_index().is_none() {
            // FORESIGHT_DISABLE_LSH=1: `Auto` is the class scan
            continue;
        }
        let opts = QueryOptions {
            parallel: false,
            trace: TraceMode::Forced,
            ..core.options()
        };
        for class in ["linear-relationship", "monotonic-relationship"] {
            for q in wide_queries(class) {
                let before = core.metrics_snapshot().queries.index_served;
                let served = core.run(&q, &opts).unwrap();
                let trace = served.trace.expect("forced trace");
                assert!(trace.lsh.is_some(), "seed {seed}: {q:?} drew no LSH");
                assert!(!trace.index_served);
                assert_eq!(core.metrics_snapshot().queries.index_served, before);
                assert_eq!(core.rank_orders().filled(), 0, "an LSH draw filled a slot");
                assert_eq!(core.rank_orders().plane_bytes(), 0, "an LSH draw allocated");
            }
        }
        for class in ["linear-relationship", "monotonic-relationship"] {
            // a pinned walk (`Auto` would draw for it too) allocates the
            // plane; a draw then reads it and stores each score it computed
            let pinned = QueryOptions {
                candidates: CandidateStrategy::Exhaustive,
                ..opts
            };
            core.run(&InsightQuery::class(class).fix_attr(0), &pinned)
                .unwrap();
            let before = core.cache_stats();
            assert!(before.entries > 0);
            let served = core.run(&wide_queries(class)[0], &opts).unwrap();
            assert!(served.trace.expect("forced trace").lsh.is_some());
            let after = core.cache_stats();
            assert!(after.misses > before.misses);
            assert_eq!(
                after.entries - before.entries,
                (after.misses - before.misses) as usize,
                "seed {seed}: {class}"
            );
        }
    }
}
