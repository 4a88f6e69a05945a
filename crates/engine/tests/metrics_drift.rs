//! Drift guard for the `MetricsSnapshot` renderings. `to_json` is the
//! machine-readable export; `to_text` is what the explorer's `metrics`
//! command and a server operator read; `to_prometheus` is what a scraper
//! ingests. Every scalar counter the JSON exposes (queries, ingest,
//! serve, cache, resources, sketch fallbacks) must also be visible in
//! the text and Prometheus renderings — a counter added to the snapshot
//! struct but forgotten in a rendering fails here, by name.
//!
//! The check is value-based: each counter gets a globally unique 4-digit
//! value, so "visible in the rendering" is simply "that number is
//! printed".

use foresight_engine::telemetry::{
    CacheSnapshot, IngestSnapshot, LshSnapshot, MetricsSnapshot, QuerySnapshot, ResourceSnapshot,
    ServeSnapshot,
};
use serde_json::Value;
use std::collections::BTreeMap;

/// A snapshot whose every scalar counter carries a distinct 4-digit
/// value (4-digit so no value is a substring of another).
fn fully_populated() -> MetricsSnapshot {
    let mut next = 4100u64;
    let mut fresh = || {
        next += 1;
        next
    };
    let mut by_class = BTreeMap::new();
    by_class.insert("linear-relationship".to_owned(), fresh());
    MetricsSnapshot {
        telemetry_compiled: true,
        telemetry_enabled: true,
        kernel: "scalar".to_owned(),
        uptime_secs: 0.5,
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
            hit_rate: 0.5,
        }),
        resources: Some(ResourceSnapshot {
            catalog_bytes: fresh(),
            cache_bytes: fresh(),
            prepared_bytes: fresh(),
            orders_bytes: fresh(),
            lsh_bytes: fresh(),
            trace_bytes: fresh(),
            session_table_bytes: fresh(),
            sessions_live: fresh(),
        }),
    }
}

/// Leaves every rendering skips: latency tables (rescaled to ms/us), the
/// raw histogram, ratios and build metadata printed as words, and the
/// float uptime.
const SKIP_ALWAYS: &[&str] = &[
    "stages",      // per-stage latency table, rescaled in text
    "endpoints",   // per-endpoint latency table, rescaled in text
    "buckets",     // raw histogram, intentionally JSON-only
    "hit_rate",    // printed as a percentage
    "uptime_secs", // float seconds, formatted per rendering
    "telemetry_compiled",
    "telemetry_enabled",
    "kernel",
];

/// Additionally skipped for `to_text` only: the resident-memory gauges
/// are rescaled to KiB there (Prometheus keeps raw bytes).
const SKIP_TEXT: &[&str] = &[
    "catalog_bytes",
    "cache_bytes",
    "prepared_bytes",
    "orders_bytes",
    "lsh_bytes",
    "trace_bytes",
    "session_table_bytes",
];

/// Collects `(path, value)` for every integer counter leaf in the JSON
/// rendering, minus the given skip lists.
fn counter_leaves(value: &Value, path: String, skip: &[&[&str]], out: &mut Vec<(String, u64)>) {
    match value {
        Value::Object(map) => {
            for (key, child) in map {
                if skip.iter().any(|list| list.contains(&key.as_str())) {
                    continue;
                }
                counter_leaves(child, format!("{path}.{key}"), skip, out);
            }
        }
        _ => {
            if let Some(n) = value.as_u64() {
                out.push((path, n));
            }
        }
    }
}

#[test]
fn to_text_prints_every_counter_to_json_exposes() {
    let snapshot = fully_populated();
    let text = snapshot.to_text();
    let json: Value = serde_json::from_str(&snapshot.to_json()).unwrap();
    let mut counters = Vec::new();
    counter_leaves(
        &json,
        "snapshot".to_owned(),
        &[SKIP_ALWAYS, SKIP_TEXT],
        &mut counters,
    );

    // the sweep must actually cover the sections this PR cares about
    for section in ["queries", "ingest", "serve", "cache", "sketch_fallbacks"] {
        assert!(
            counters
                .iter()
                .any(|(path, _)| path.contains(&format!(".{section}"))),
            "counter sweep no longer covers `{section}` — snapshot shape changed?"
        );
    }
    assert!(
        counters.len() >= 28,
        "expected at least 28 scalar counters, found {}: {counters:?}",
        counters.len()
    );
    for (path, value) in &counters {
        assert!(
            text.contains(&value.to_string()),
            "counter `{path}` (= {value}) is in to_json but not rendered by to_text:\n{text}"
        );
    }
}

/// The scrape-surface drift guard: every counter the JSON export carries
/// must appear in the Prometheus exposition too — including the
/// resource gauges, which Prometheus keeps in raw bytes.
#[test]
fn to_prometheus_exposes_every_counter_to_json_exposes() {
    let snapshot = fully_populated();
    let exposition = snapshot.to_prometheus();
    let json: Value = serde_json::from_str(&snapshot.to_json()).unwrap();
    let mut counters = Vec::new();
    counter_leaves(&json, "snapshot".to_owned(), &[SKIP_ALWAYS], &mut counters);

    for section in ["queries", "ingest", "serve", "cache", "resources"] {
        assert!(
            counters
                .iter()
                .any(|(path, _)| path.contains(&format!(".{section}"))),
            "counter sweep no longer covers `{section}` — snapshot shape changed?"
        );
    }
    for (path, value) in &counters {
        assert!(
            exposition.contains(&value.to_string()),
            "counter `{path}` (= {value}) is in to_json but missing from to_prometheus:\n{exposition}"
        );
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
    // per `Endpoint::ALL` entry, in order, regardless of features.
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
