//! Integration tests for the request-tracing layer: EXPLAIN span trees,
//! per-query cache attribution, sketch-vs-exact path provenance, seeded
//! sampling, the trace ring, the slow-query log, and the exporters.

use foresight::engine::{SLOW_LOG_CAPACITY, TRACE_RING_CAPACITY};
use foresight::prelude::*;
use serde_json::Value;

fn oecd_corr_query() -> InsightQuery {
    InsightQuery::class("linear-relationship").top_k(5)
}

#[test]
fn explain_pinned_oecd_exact_query() {
    let mut fs = Foresight::new(datasets::oecd());
    let q = oecd_corr_query();
    let core = fs.core();
    let plain = Executor::exact(core.table(), core.registry())
        .execute(&q)
        .unwrap();
    let explained = fs.explain(&q).unwrap();
    assert_eq!(
        explained.results, plain,
        "explain returns bit-identical results"
    );
    // that explain scored the class's whole scan, so it filled the class's
    // rank order: the next one walks it
    let walked = fs.explain(&q).unwrap();
    assert_eq!(walked.results, plain);
    let trace = walked.trace.expect("forced trace captured");
    assert!(trace.index_served);
    let children: Vec<&str> = trace
        .root
        .children
        .iter()
        .map(|c| c.name.as_str())
        .collect();
    assert_eq!(children, vec!["index_serve", "describe"]);
    let walk = trace.root.child("index_serve").unwrap();
    assert_eq!(walk.attr("order"), Some("276"));
    assert_eq!(walk.attr("pool"), Some("5"));
    assert_eq!(
        (trace.cache_hits, trace.cache_misses, trace.cache_stored),
        (0, 0, 0)
    );
    for traced in &trace.results {
        assert!(!traced.cache_hit);
        assert_eq!(traced.path, "index");
    }
    assert!(trace.to_text().contains("index-served"));

    let trace = explained.trace.expect("forced trace captured");
    assert_eq!(trace.class_id, "linear-relationship");
    assert_eq!(trace.metric, "|pearson|");
    assert_eq!(trace.mode, "exact");
    assert!(trace.forced);
    assert!(!trace.index_served);
    // the deterministic span-tree shape of an executor-served query
    assert_eq!(trace.root.name, "query");
    let children: Vec<&str> = trace
        .root
        .children
        .iter()
        .map(|c| c.name.as_str())
        .collect();
    assert_eq!(children, vec!["candidates", "score", "rank", "describe"]);
    // OECD: 24 numeric columns → C(24, 2) = 276 correlation candidates
    assert_eq!(trace.candidates_generated, 276);
    assert_eq!(trace.candidates_eligible, 276);
    assert_eq!(
        trace.root.child("candidates").unwrap().attr("generated"),
        Some("276")
    );
    // the first explain on the core scored every candidate into the plane
    assert_eq!(trace.cache_hits, 0);
    assert_eq!(trace.cache_misses, 276);
    assert_eq!(trace.cache_stored, 276);
    assert_eq!(trace.results.len(), 5);
    for (i, (traced, inst)) in trace.results.iter().zip(&plain).enumerate() {
        assert_eq!(traced.rank, i + 1);
        assert_eq!(traced.score, inst.score);
        assert_eq!(traced.metric, "|pearson|");
        assert!(!traced.cache_hit, "a cold explain misses");
        assert_eq!(traced.path, "exact");
        assert_eq!(traced.rank_delta, 0, "no diversification, no movement");
        assert!(traced.attrs.contains(" × "), "two column names joined");
    }
    assert_eq!(score_steps(&trace), [0, 276, 276, 276]);

    // a fixed-attribute explain on the now complete keyspace is served
    // entirely from its plane: the pinned column's 23 partners
    let pinned = q.clone().fix_attr(plain[0].attrs.indices()[0]);
    let warm = fs.explain(&pinned).unwrap();
    let plain = Executor::exact(fs.table(), fs.registry())
        .execute(&pinned)
        .unwrap();
    assert_eq!(warm.results, plain);
    let trace = warm.trace.expect("forced trace captured");
    assert_eq!(trace.cache_hits, 23);
    assert_eq!(trace.cache_misses, 0);
    assert_eq!(trace.cache_stored, 0);
    for (i, (traced, inst)) in trace.results.iter().zip(&plain).enumerate() {
        assert_eq!(traced.rank, i + 1);
        assert_eq!(traced.score, inst.score);
        assert!(traced.cache_hit, "warm explain hits the cache");
        assert_eq!(traced.path, "cache");
        assert_eq!(traced.rank_delta, 0, "no diversification, no movement");
    }
    // the acceptance rendering: per top-k insight, score + metric +
    // cache hit/miss + scoring path all visible in one report
    let text = trace.to_text();
    assert!(text.contains("23 hits / 0 misses"));
    assert!(text.contains("path=cache"));
    assert!(text.contains("|pearson|"));
    // where the score stage's time went: lookup, scoring, store
    assert_eq!(score_steps(&trace), [23, 0, 0, 0]);
    assert!(text.contains("cache_lookup") && text.contains("hits=23 misses=0"));

    // a cold core shows precise per-candidate provenance instead
    let mut cold = Foresight::new(datasets::oecd());
    let cold_trace = cold.explain(&q).unwrap().trace.expect("trace captured");
    assert_eq!(cold_trace.cache_hits, 0);
    assert_eq!(cold_trace.cache_misses, 276);
    assert_eq!(cold_trace.cache_stored, 276);
    for traced in &cold_trace.results {
        assert!(!traced.cache_hit);
        assert_eq!(traced.path, "exact");
    }
    assert_eq!(score_steps(&cold_trace), [0, 276, 276, 276]);
    let score = cold_trace.root.child("score").unwrap();
    let stepped: u64 = score.children.iter().map(|c| c.dur_ns).sum();
    assert!(
        stepped <= score.dur_ns,
        "the steps nest inside the score span"
    );
}

/// The `score` span's three children, in order, as `[hits, misses,
/// tuples scored, stored]` read from their attributes.
fn score_steps(trace: &foresight::engine::QueryTrace) -> [u64; 4] {
    let score = trace.root.child("score").expect("score span");
    let names: Vec<&str> = score.children.iter().map(|c| c.name.as_str()).collect();
    assert_eq!(names, ["cache_lookup", "score_misses", "cache_store"]);
    let read = |span: &str, key: &str| -> u64 {
        score
            .child(span)
            .unwrap()
            .attr(key)
            .unwrap()
            .parse()
            .unwrap()
    };
    [
        read("cache_lookup", "hits"),
        read("cache_lookup", "misses"),
        read("score_misses", "tuples"),
        read("cache_store", "stored"),
    ]
}

/// A fixed-attribute query on a pair-shaped class walks the pinned
/// column's partners, and the trace says so: `generated` is what was
/// enumerated (d − 1), not the d(d − 1)/2 scan it no longer filters, and a
/// `pinned` attribute names the column. Class scans — nothing fixed, or a
/// class with no declared pair shape — report what they always did.
#[test]
fn explain_reports_the_pinned_walk_of_a_fixed_attribute_query() {
    let table = datasets::oecd();
    let leisure = table
        .schema()
        .index_of("Time Devoted To Leisure")
        .expect("OECD column");
    let mut fs = Foresight::new(table);
    let q = oecd_corr_query().fix_attr(leisure);
    let plain = fs.query(&q).unwrap();
    assert!(plain.iter().all(|i| i.attrs.contains(leisure)));
    let explained = fs.explain(&q).unwrap();
    assert_eq!(explained.results, plain);
    let univariate = fs
        .explain(&InsightQuery::class("skew").fix_attr(leisure))
        .unwrap();
    // 24 numeric columns → 23 partners
    let trace = explained.trace.expect("forced trace captured");
    assert_eq!(trace.candidates_generated, 23);
    assert_eq!(trace.candidates_eligible, 23);
    let span = trace.root.child("candidates").unwrap();
    assert_eq!(span.attr("generated"), Some("23"));
    assert_eq!(span.attr("eligible"), Some("23"));
    assert_eq!(span.attr("pinned"), Some("Time Devoted To Leisure"));
    assert!(trace.lsh.is_none());
    assert_eq!((trace.cache_hits, trace.cache_misses), (23, 0));
    let text = trace.to_text();
    assert!(text.contains("23 generated, 23 eligible"));
    assert!(text.contains("pinned=Time Devoted To Leisure"));

    // two pins: one tuple enumerated, one eligible
    let long_hours = fs
        .table()
        .schema()
        .index_of("Employees Working Very Long Hours")
        .expect("OECD column");
    let both = fs.explain(&q.clone().fix_attr(long_hours)).unwrap();
    let trace = both.trace.expect("trace captured");
    assert_eq!(both.results.len(), 1);
    assert_eq!(trace.candidates_generated, 1);
    assert_eq!(trace.candidates_eligible, 1);

    // a class that declares no pair shape keeps its scan and its filter
    let trace = univariate.trace.expect("trace captured");
    assert_eq!(trace.candidates_generated, 24);
    assert_eq!(trace.candidates_eligible, 1);
    assert_eq!(trace.root.child("candidates").unwrap().attr("pinned"), None);
}

#[test]
fn explain_reports_sketch_paths_and_skip_reasons() {
    // a sharded source, preprocessed, with the raw rows dropped afterwards:
    // queries run sketch-only, so provenance must say so
    let whole = datasets::oecd();
    let shards: Vec<Table> = vec![
        whole.filter_rows(|r| r < 18),
        whole.filter_rows(|r| r >= 18),
    ];
    let mut source = TableSource::sharded(shards).unwrap();
    let mut fs = Foresight::from_source(source.clone());
    fs.preprocess(&CatalogConfig::default()).unwrap();
    let mut buf = Vec::new();
    fs.save_state(&mut buf).unwrap();
    source.drop_raw();
    let mut lean = Foresight::from_source(source);
    lean.load_state(buf.as_slice()).unwrap();

    let explained = lean.explain(&oecd_corr_query()).unwrap();
    assert!(!explained.results.is_empty());
    let trace = explained.trace.expect("trace captured");
    assert_eq!(trace.mode, "approximate");
    for traced in &trace.results {
        assert_eq!(traced.path, "sketch", "sketch-only scoring is visible");
        assert!(!traced.cache_hit);
    }

    // a class with no sketch estimator drops every candidate, and the
    // trace says why, with example tuples
    let none = lean
        .explain(&InsightQuery::class("statistical-dependence").top_k(3))
        .unwrap();
    assert!(none.results.is_empty());
    let trace = none.trace.expect("trace captured");
    assert!(trace.candidates_generated > 0);
    let skip = trace
        .skips
        .iter()
        .find(|s| s.reason == "no-sketch-estimator")
        .expect("typed skip reason recorded");
    assert_eq!(skip.count as usize, trace.candidates_eligible);
    assert!(!skip.samples.is_empty());
}

#[test]
fn diversified_explain_reports_rank_deltas() {
    // hub column 0 correlates perfectly with 1, 2, 3; 4~5 is an
    // independent pair that only diversification promotes into the top 3
    let base: Vec<f64> = (0..100).map(|i| i as f64).collect();
    let indep: Vec<f64> = (0..100).map(|i| ((i * 37) % 100) as f64).collect();
    let t = TableBuilder::new("t")
        .numeric("hub", base.clone())
        .numeric("a", base.iter().map(|v| 2.0 * v).collect())
        .numeric("b", base.iter().map(|v| 3.0 * v + 1.0).collect())
        .numeric("c", base.iter().map(|v| 0.5 * v - 9.0).collect())
        .numeric("x", indep.clone())
        .numeric("y", indep.iter().map(|v| v + 0.5).collect())
        .build()
        .unwrap();
    let mut fs = Foresight::new(t);
    let q = InsightQuery::class("linear-relationship")
        .top_k(3)
        .diversify(0.6);
    let explained = fs.explain(&q).unwrap();
    let trace = explained.trace.expect("trace captured");
    let children: Vec<&str> = trace
        .root
        .children
        .iter()
        .map(|c| c.name.as_str())
        .collect();
    assert_eq!(
        children,
        vec!["candidates", "score", "diversify", "describe"]
    );
    let div = trace.root.child("diversify").unwrap();
    assert_eq!(div.attr("lambda"), Some("0.6"));
    assert_eq!(div.attr("k"), Some("3"));
    // the promoted independent pair moved up relative to the plain ranking
    let promoted = trace
        .results
        .iter()
        .find(|r| r.attrs == "x × y")
        .expect("diversification promotes the independent pair");
    assert!(
        promoted.rank_delta > 0,
        "promoted insight has a positive rank delta: {promoted:?}"
    );
    // the overall strongest insight holds rank 1 with no movement
    assert_eq!(trace.results[0].rank_delta, 0);
}

#[test]
fn sampling_is_seeded_and_reproducible() {
    let traced_set = |seed: u64| -> Vec<(String, usize)> {
        let core = EngineCore::builder(TableSource::materialized(datasets::oecd())).freeze();
        let mut h = core.handle();
        h.set_trace_sampling(0.25, seed);
        for k in 1..=12 {
            h.query(&InsightQuery::class("skew").top_k(k)).unwrap();
        }
        let mut traces: Vec<(String, usize)> = core
            .tracer()
            .recent(TRACE_RING_CAPACITY)
            .iter()
            .map(|t| (t.class_id.clone(), t.results.len()))
            .collect();
        traces.reverse(); // oldest-first for comparison
        traces
    };
    let a = traced_set(7);
    let b = traced_set(7);
    assert_eq!(a, b, "same (rate, seed, queries) traces the same subset");
    assert_eq!(a.len(), 3, "rate 0.25 over 12 queries traces exactly 3");
    // a different seed still traces 3, at a (deterministically) shifted phase
    assert_eq!(traced_set(8).len(), 3);
    assert_ne!(
        traced_set(7).first().map(|t| t.1),
        traced_set(8).first().map(|t| t.1),
        "adjacent seeds select different residues"
    );

    // rate 0 disables sampling entirely
    let core = EngineCore::builder(TableSource::materialized(datasets::oecd())).freeze();
    let mut h = core.handle();
    h.set_trace_sampling(0.0, 7);
    h.query(&InsightQuery::class("skew").top_k(2)).unwrap();
    assert!(core.tracer().recent(8).is_empty());
}

#[test]
fn trace_ring_keeps_newest_and_evicts_in_arrival_order() {
    let core = EngineCore::builder(TableSource::materialized(datasets::oecd())).freeze();
    let mut h = core.handle();
    let total = TRACE_RING_CAPACITY + 5;
    for i in 0..total {
        h.explain(&InsightQuery::class("skew").top_k(1 + i % 3))
            .unwrap();
    }
    let recent = core.tracer().recent(total + 10);
    assert_eq!(
        recent.len(),
        TRACE_RING_CAPACITY,
        "ring holds exactly N traces"
    );
    let ids: Vec<u64> = recent.iter().map(|t| t.query_id).collect();
    assert_eq!(ids[0], total as u64, "newest first");
    assert!(
        ids.windows(2).all(|w| w[0] == w[1] + 1),
        "strictly descending ids — eviction in arrival order: {ids:?}"
    );
    assert_eq!(
        *ids.last().unwrap(),
        (total - TRACE_RING_CAPACITY + 1) as u64,
        "the oldest 5 traces were evicted"
    );
    assert_eq!(core.tracer().last().unwrap().query_id, total as u64);
    core.tracer().clear();
    assert!(core.tracer().recent(4).is_empty());
}

#[test]
fn slow_log_is_threshold_gated_and_bounded() {
    let core = EngineCore::builder(TableSource::materialized(datasets::oecd())).freeze();
    let mut h = core.handle();
    let q = InsightQuery::class("skew").top_k(2);

    // disarmed (the default): nothing is captured
    h.query(&q).unwrap();
    assert!(core.tracer().slow_queries().is_empty());

    // a 1 ns threshold captures every query — even untraced ones
    core.tracer().set_slow_threshold_ns(1);
    h.query(&q).unwrap();
    let slow = core.tracer().slow_queries();
    assert_eq!(slow.len(), 1);
    assert_eq!(slow[0].class_id, "skew");
    assert_eq!(slow[0].mode, "exact");
    assert_eq!(slow[0].results, 2);
    assert!(slow[0].query_id.is_none(), "untraced slow query has no id");
    assert!(slow[0].trace.is_none());
    assert!(slow[0].total_ns >= 1);

    // an explained slow query carries its full trace
    h.explain(&q).unwrap();
    let slow = core.tracer().slow_queries();
    assert_eq!(slow.len(), 2);
    let traced = slow.last().unwrap();
    assert!(traced.query_id.is_some());
    assert_eq!(
        traced.trace.as_ref().map(|t| t.query_id),
        traced.query_id,
        "the attached trace is the slow query's own"
    );

    // an unreachable threshold captures nothing more
    core.tracer().set_slow_threshold_ns(u64::MAX);
    h.query(&q).unwrap();
    assert_eq!(core.tracer().slow_queries().len(), 2);

    // the log is bounded: oldest entries fall off at capacity
    core.tracer().set_slow_threshold_ns(1);
    for k in 0..(SLOW_LOG_CAPACITY + 10) {
        h.query(&InsightQuery::class("skew").top_k(1 + k % 5))
            .unwrap();
    }
    assert_eq!(core.tracer().slow_queries().len(), SLOW_LOG_CAPACITY);

    // disarming stops capture immediately
    core.tracer().set_slow_threshold_ns(0);
    h.query(&q).unwrap();
    assert_eq!(core.tracer().slow_queries().len(), SLOW_LOG_CAPACITY);
}

#[test]
fn chrome_export_is_loadable_trace_event_json() {
    let mut fs = Foresight::new(datasets::oecd());
    let trace = fs
        .explain(&oecd_corr_query())
        .unwrap()
        .trace
        .expect("explain captures a trace");
    let parsed: Value =
        serde_json::from_str(&trace.to_chrome_json()).expect("chrome export is valid JSON");
    let events = parsed.as_array().expect("trace-event format: a JSON array");
    // one complete event per span: root + 4 stages + the score stage's
    // cache_lookup, score_misses and cache_store steps
    assert_eq!(events.len(), 8);
    let mut last_ts = f64::MIN;
    for ev in events {
        assert_eq!(ev.get("ph").and_then(Value::as_str), Some("X"));
        assert_eq!(ev.get("cat").and_then(Value::as_str), Some("foresight"));
        assert_eq!(ev.get("pid").and_then(Value::as_u64), Some(1));
        assert_eq!(
            ev.get("tid").and_then(Value::as_u64),
            Some(trace.query_id),
            "all events share the query's tid"
        );
        assert!(ev.get("name").and_then(Value::as_str).is_some());
        let ts = ev.get("ts").and_then(Value::as_f64).expect("ts in µs");
        let dur = ev.get("dur").and_then(Value::as_f64).expect("dur in µs");
        assert!(dur >= 0.0);
        assert!(ts >= last_ts, "pre-order emission keeps ts monotonic");
        last_ts = ts;
    }
    // span attributes ride along as event args
    let score_ev = events
        .iter()
        .find(|e| e.get("name").and_then(Value::as_str) == Some("score"))
        .expect("score span exported");
    assert!(score_ev
        .get("args")
        .and_then(|a| a.get("cache_misses"))
        .is_some());
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(Value::as_str))
        .collect();
    assert_eq!(
        names,
        [
            "query",
            "candidates",
            "score",
            "cache_lookup",
            "score_misses",
            "cache_store",
            "rank",
            "describe"
        ]
    );
}

#[test]
fn json_export_round_trips_and_structure_is_deterministic() {
    let q = oecd_corr_query();
    let run = || Foresight::new(datasets::oecd()).explain(&q).unwrap().trace;
    let (a, b) = (run().expect("trace"), run().expect("trace"));
    // the JSON export parses back into an identical trace
    let back: foresight::engine::QueryTrace =
        serde_json::from_str(&a.to_json()).expect("trace JSON parses back");
    assert_eq!(&back, a.as_ref());
    // identical executions differ only in ids and timings: same tree
    // shape, same results, same cache traffic
    let shape = |t: &foresight::engine::QueryTrace| {
        (
            t.root
                .children
                .iter()
                .map(|c| c.name.clone())
                .collect::<Vec<_>>(),
            t.results.clone(),
            (t.cache_hits, t.cache_misses, t.cache_stored),
            t.candidates_generated,
        )
    };
    assert_eq!(shape(&a), shape(&b));
}

/// Each query-path boundary is read once: the stage histogram's sample
/// and the trace node's duration are the same reading, and tracing adds
/// no sample an untraced run would not record.
#[test]
fn each_traced_step_is_its_stage_sample() {
    let q = oecd_corr_query();
    let counts = |fs: &Foresight| -> Vec<(String, u64, u64)> {
        fs.metrics()
            .stages
            .iter()
            .map(|s| (s.stage.clone(), s.count, s.total_ns))
            .collect()
    };
    let delta = |before: &[(String, u64, u64)], after: &[(String, u64, u64)]| {
        before
            .iter()
            .zip(after)
            .map(|(b, a)| (a.0.clone(), a.1 - b.1, a.2 - b.2))
            .collect::<Vec<_>>()
    };

    let mut traced = Foresight::new(datasets::oecd());
    let before = counts(&traced);
    let trace = traced.explain(&q).unwrap().trace.expect("forced trace");
    let traced_delta = delta(&before, &counts(&traced));
    for name in ["score", "rank", "describe"] {
        let node = trace.root.child(name).expect("scored query's step");
        let (_, count, total_ns) = traced_delta.iter().find(|(s, ..)| s == name).unwrap();
        assert_eq!(*count, 1, "one {name} sample");
        assert_eq!(*total_ns, node.dur_ns, "{name}: the sample is the node");
    }

    let mut untraced = Foresight::new(datasets::oecd());
    let before = counts(&untraced);
    untraced.query(&q).unwrap();
    let untraced_delta = delta(&before, &counts(&untraced));
    let sampled = |d: &[(String, u64, u64)]| {
        d.iter()
            .map(|(s, n, _)| (s.clone(), *n))
            .collect::<Vec<_>>()
    };
    assert_eq!(sampled(&traced_delta), sampled(&untraced_delta));

    // the walk of the order that explain filled: the same, for index_serve
    let before = counts(&traced);
    let trace = traced.explain(&q).unwrap().trace.expect("forced trace");
    assert!(trace.index_served);
    let walked_delta = delta(&before, &counts(&traced));
    for name in ["index_serve", "describe"] {
        let node = trace.root.child(name).expect("walked query's step");
        let (_, count, total_ns) = walked_delta.iter().find(|(s, ..)| s == name).unwrap();
        assert_eq!((*count, *total_ns), (1, node.dur_ns), "{name}");
    }
}
