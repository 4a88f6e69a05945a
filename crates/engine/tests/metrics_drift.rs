//! Drift guard for the metric schema. Every rendering walks
//! `telemetry::SCHEMA`, so a renderer can no longer forget a counter; what
//! can still drift is the schema against the snapshot struct. A field
//! added to `MetricsSnapshot` without a row would be in `to_json` but in
//! no other rendering, and a row whose accessor reads the wrong field
//! would report one value twice. Both fail here, by name.
//!
//! The check is value-based: each scalar leaf gets a globally distinct
//! value, so "row R reads leaf L" is simply "R's reading equals L".

use foresight_engine::telemetry::{
    scalar_rows, CacheSnapshot, IngestSnapshot, LshSnapshot, MetricsSnapshot, QuerySnapshot,
    ResourceSnapshot, Series, ServeSnapshot,
};
use serde_json::Value;
use std::collections::BTreeMap;

/// A snapshot whose every scalar leaf carries a distinct value.
fn fully_populated() -> MetricsSnapshot {
    let mut next = 4100u64;
    let mut fresh = || {
        next += 1;
        next
    };
    let mut by_class = BTreeMap::new();
    by_class.insert("linear-relationship".to_owned(), fresh());
    MetricsSnapshot {
        kernel: "scalar".to_owned(),
        uptime_secs: 0.25,
        sample_seq: fresh(),
        stages: Vec::new(),
        queries: QuerySnapshot {
            total: fresh(),
            exact: fresh(),
            approximate: fresh(),
            index_served: fresh(),
            by_class,
        },
        ingest: IngestSnapshot {
            rows: fresh(),
            batches: fresh(),
            merges: fresh(),
            republishes_full: fresh(),
            republishes_incremental: fresh(),
            republishes_clean: fresh(),
            rescored_classes: fresh(),
            rescored_tuples: fresh(),
            reused_tuples: fresh(),
            cache_entries_migrated: fresh(),
        },
        serve: ServeSnapshot {
            connections: fresh(),
            connections_shed: fresh(),
            requests: fresh(),
            load_shed: fresh(),
            errors: fresh(),
            sessions_created: fresh(),
            sessions_closed: fresh(),
            sessions_expired: fresh(),
            sessions_evicted: fresh(),
            endpoints: Vec::new(),
        },
        sketch_fallbacks: fresh(),
        lsh: LshSnapshot {
            queries: fresh(),
            candidate_pairs: fresh(),
        },
        cache: Some(CacheSnapshot {
            hits: fresh(),
            misses: fresh(),
            entries: fresh(),
            purges: fresh(),
            hit_rate: 0.75,
        }),
        resources: Some(ResourceSnapshot {
            catalog_bytes: fresh(),
            cache_bytes: fresh(),
            prepared_bytes: fresh(),
            orders_bytes: fresh(),
            planes_bytes: fresh(),
            lsh_bytes: fresh(),
            trace_bytes: fresh(),
            session_table_bytes: fresh(),
            sessions_live: fresh(),
        }),
    }
}

/// Rows computed from several leaves rather than read from one.
const DERIVED: &[&str] = &["foresight_serve_sessions_live"];

/// Numeric leaves the schema covers as something other than a scalar
/// row: the latency histograms (arrays) and the per-class map.
const NOT_SCALAR: &[&str] = &["stages", "endpoints", "by_class"];

/// Collects `(path, value)` for every numeric scalar leaf of the JSON
/// rendering. String leaves (`kernel`) are `foresight_build_info` labels.
fn scalar_leaves(value: &Value, path: String, out: &mut Vec<(String, Value)>) {
    match value {
        Value::Object(map) => {
            for (key, child) in map {
                if !NOT_SCALAR.contains(&key.as_str()) {
                    scalar_leaves(child, format!("{path}.{key}"), out);
                }
            }
        }
        Value::Number(_) => out.push((path, value.clone())),
        _ => {}
    }
}

fn row_name(series: &Series) -> String {
    match series.label {
        Some((key, value)) => format!("{}{{{key}=\"{value}\"}}", series.name),
        None => series.name.to_owned(),
    }
}

fn reads(series: &Series, snapshot: &MetricsSnapshot, leaf: &Value) -> bool {
    (series.read)(snapshot).is_some_and(|v| leaf.as_f64() == Some(v))
}

fn leaves(snapshot: &MetricsSnapshot) -> Vec<(String, Value)> {
    let json: Value = serde_json::from_str(&snapshot.to_json()).unwrap();
    let mut leaves = Vec::new();
    scalar_leaves(&json, "snapshot".to_owned(), &mut leaves);
    leaves
}

#[test]
fn every_scalar_leaf_has_exactly_one_schema_row() {
    let snapshot = fully_populated();
    let leaves = leaves(&snapshot);
    assert!(
        leaves.len() >= 40,
        "expected at least 40 scalar leaves, found {}: {leaves:?}",
        leaves.len()
    );
    for (path, leaf) in &leaves {
        let rows: Vec<String> = scalar_rows()
            .filter(|series| reads(series, &snapshot, leaf))
            .map(row_name)
            .collect();
        assert_eq!(
            rows.len(),
            1,
            "leaf `{path}` (= {leaf}) must have exactly one schema row, has {rows:?}"
        );
    }
}

#[test]
fn every_schema_row_reads_a_distinct_leaf() {
    let snapshot = fully_populated();
    let leaves = leaves(&snapshot);
    let mut seen: BTreeMap<&str, String> = BTreeMap::new();
    for series in scalar_rows() {
        let read: Vec<&str> = leaves
            .iter()
            .filter(|(_, leaf)| reads(series, &snapshot, leaf))
            .map(|(path, _)| path.as_str())
            .collect();
        if DERIVED.contains(&series.name) {
            assert!(
                read.is_empty(),
                "derived row `{}` reads {read:?}",
                series.name
            );
            continue;
        }
        assert_eq!(read.len(), 1, "row `{}` reads {read:?}", row_name(series));
        if let Some(other) = seen.insert(read[0], row_name(series)) {
            panic!(
                "rows `{other}` and `{}` both read `{}`",
                row_name(series),
                read[0]
            );
        }
    }
}

#[test]
fn snapshot_json_round_trips() {
    let snapshot = fully_populated();
    let back: MetricsSnapshot = serde_json::from_str(&snapshot.to_json()).unwrap();
    assert_eq!(snapshot, back);
}

#[test]
fn serve_endpoints_follow_the_endpoint_enum() {
    // A snapshot taken from a live registry must carry one endpoint row
    // per `Endpoint::ALL` entry, in order.
    let metrics = foresight_engine::Metrics::new();
    metrics.record_request(foresight_engine::Endpoint::Query, 1_000);
    let snapshot = metrics.snapshot();
    let names: Vec<&str> = snapshot
        .serve
        .endpoints
        .iter()
        .map(|e| e.stage.as_str())
        .collect();
    let expected: Vec<&str> = foresight_engine::Endpoint::ALL
        .iter()
        .map(|e| e.name())
        .collect();
    assert_eq!(names, expected);
}
