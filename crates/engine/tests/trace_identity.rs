//! Property tests pinning the tracing layer's zero-interference contract:
//! a traced query — `run` under `TraceMode::Forced` (what `explain` does)
//! or selected by sampling — must return bit-identical results to the same
//! query run under `TraceMode::Off`, across
//! exact and approximate modes, serial and parallel execution, cold and
//! warm caches, with and without diversification.

use foresight_data::{TableBuilder, TableSource};
use foresight_engine::{EngineCore, InsightQuery, Mode, QueryOptions, TraceMode};
use foresight_sketch::CatalogConfig;
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
    fn traced_and_untraced_runs_are_bit_identical(
        cols in 3usize..7,
        rows in 30usize..80,
        seed in 0u64..1000,
        k in 1usize..8,
        approx in 0u8..2,
        parallel in 0u8..2,
        lambda in 0.0f64..0.9,
        fixed in 0usize..3,
    ) {
        let mut builder = EngineCore::builder(TableSource::materialized(table(cols, rows, seed)));
        let mode = if approx == 1 {
            builder.preprocess(&CatalogConfig::default()).expect("preprocess");
            Mode::Approximate
        } else {
            Mode::Exact
        };
        let core = builder.freeze();
        let mut q = InsightQuery::class("linear-relationship").top_k(k);
        if lambda > 0.05 {
            q = q.diversify(lambda);
        }
        let core_ref = &core;
        let run = |query: &InsightQuery, trace| {
            let opts = QueryOptions {
                mode,
                parallel: parallel == 1,
                trace,
                ..core_ref.options()
            };
            core_ref.run(query, &opts)
        };

        // cold cache: the forced trace runs first, so the instrumented
        // scoring path itself fills the cache other runs then hit
        let forced = run(&q, TraceMode::Forced).expect("traced run");
        let (traced, trace) = (forced.results, forced.trace);
        let off = run(&q, TraceMode::Off).expect("untraced run");
        prop_assert!(off.trace.is_none(), "an untraced run carries no trace");
        let untraced = off.results;
        prop_assert_eq!(&traced, &untraced);

        if cfg!(feature = "trace") {
            let trace = trace.expect("forced trace is captured");
            prop_assert_eq!(trace.candidates_generated, cols * (cols - 1) / 2);
            prop_assert_eq!(trace.results.len(), untraced.len());
            for (rec, inst) in trace.results.iter().zip(&untraced) {
                // scores in the trace are the served scores, bit for bit
                prop_assert_eq!(rec.score.to_bits(), inst.score.to_bits());
            }
            // the score span splits into its three steps, which account
            // for every eligible candidate
            let steps = score_steps(&trace);
            prop_assert_eq!(
                steps,
                (
                    trace.cache_hits,
                    trace.cache_misses,
                    trace.cache_misses,
                    trace.cache_stored
                )
            );
            prop_assert_eq!(
                (trace.cache_hits + trace.cache_misses) as usize,
                trace.candidates_eligible
            );
            prop_assert_eq!(trace.cache_stored, trace.cache_misses);
        } else {
            prop_assert!(trace.is_none(), "no trace without the feature");
        }

        // warm cache + sampled (not forced) tracing through a session
        // handle: still identical
        let mut sampled = core.handle();
        sampled.set_trace_sampling(1.0, seed);
        prop_assert_eq!(sampled.query(&q).expect("sampled run"), untraced);

        // a fixed attribute pins the enumeration: same answers as the class
        // scan filtered, and the trace counts what was walked — the pinned
        // column's cols − 1 partners — while the scan above counts them all
        let pinned = q.clone().fix_attr(fixed);
        let forced = run(&pinned, TraceMode::Forced).expect("traced pinned run");
        let (traced, trace) = (forced.results, forced.trace);
        prop_assert_eq!(&traced, &run(&pinned, TraceMode::Off).expect("pinned run").results);
        prop_assert!(traced.iter().all(|i| i.attrs.contains(fixed)));
        if let Some(trace) = trace {
            prop_assert_eq!(trace.candidates_generated, cols - 1);
            prop_assert_eq!(trace.candidates_eligible, cols - 1);
            let span = trace.root.child("candidates").expect("candidates span");
            let name = format!("col{fixed}");
            prop_assert_eq!(span.attr("pinned"), Some(name.as_str()));
            // the scan above scored every pair: the pinned walk is all hits
            prop_assert_eq!(score_steps(&trace), ((cols - 1) as u64, 0, 0, 0));
        }
    }
}

/// `(hits, misses, tuples scored, stored)` as the `score` span's
/// `cache_lookup`, `score_misses` and `cache_store` children report them.
fn score_steps(trace: &foresight_engine::QueryTrace) -> (u64, u64, u64, u64) {
    let score = trace.root.child("score").expect("score span");
    let names: Vec<&str> = score.children.iter().map(|c| c.name.as_str()).collect();
    assert_eq!(names, ["cache_lookup", "score_misses", "cache_store"]);
    let read = |span: &str, key: &str| -> u64 {
        score
            .child(span)
            .and_then(|s| s.attr(key))
            .unwrap_or_else(|| panic!("{span} carries {key}"))
            .parse()
            .expect("a count")
    };
    (
        read("cache_lookup", "hits"),
        read("cache_lookup", "misses"),
        read("score_misses", "tuples"),
        read("cache_store", "stored"),
    )
}
