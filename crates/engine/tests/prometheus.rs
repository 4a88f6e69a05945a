//! Strict structural validation of the Prometheus text exposition
//! (format 0.0.4) produced by `MetricsSnapshot::to_prometheus`. A real
//! scraper is unforgiving: one malformed line poisons the whole scrape.
//! This test parses every line of a fully exercised snapshot and checks
//! the invariants a conformant exposition must hold:
//!
//! * every line is `# HELP`, `# TYPE`, or `name[{labels}] value`
//! * metric and label names match the Prometheus grammar
//! * each family has exactly one HELP and one TYPE, HELP first, samples
//!   after, and families are not interleaved
//! * histogram `_bucket` series are cumulative and non-decreasing in
//!   `le` order, end with `le="+Inf"`, and the `+Inf` count equals the
//!   family's `_count`
//! * label values with quotes/backslashes/newlines arrive escaped

use foresight_engine::telemetry::CacheSnapshot;
use foresight_engine::{Counter, Endpoint, Metrics, Mode, Stage};
use std::collections::BTreeMap;

fn is_valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn is_valid_label_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// A series' label pairs, in exposition order.
type Labels = Vec<(String, String)>;

/// Splits `name{l1="v1",l2="v2"}` into the bare name and its label pairs,
/// asserting the label syntax (quoting, escapes, commas) is well-formed.
fn parse_series(series: &str) -> (String, Labels) {
    let Some(brace) = series.find('{') else {
        assert!(is_valid_metric_name(series), "bad metric name `{series}`");
        return (series.to_owned(), Vec::new());
    };
    let name = &series[..brace];
    assert!(is_valid_metric_name(name), "bad metric name `{name}`");
    let body = series[brace + 1..]
        .strip_suffix('}')
        .unwrap_or_else(|| panic!("unclosed label set in `{series}`"));
    let mut labels = Vec::new();
    let mut rest = body;
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .unwrap_or_else(|| panic!("label without `=` in `{series}`"));
        let label = &rest[..eq];
        assert!(is_valid_label_name(label), "bad label name `{label}`");
        rest = rest[eq + 1..]
            .strip_prefix('"')
            .unwrap_or_else(|| panic!("unquoted label value in `{series}`"));
        // scan the quoted value honoring backslash escapes
        let mut value = String::new();
        let mut chars = rest.char_indices();
        let after = loop {
            let (i, c) = chars
                .next()
                .unwrap_or_else(|| panic!("unterminated label value in `{series}`"));
            match c {
                '"' => break i + 1,
                '\\' => {
                    let (_, escaped) = chars
                        .next()
                        .unwrap_or_else(|| panic!("dangling backslash in `{series}`"));
                    assert!(
                        matches!(escaped, '\\' | '"' | 'n'),
                        "invalid escape `\\{escaped}` in `{series}`"
                    );
                    value.push(escaped);
                }
                '\n' => panic!("raw newline inside label value in `{series}`"),
                other => value.push(other),
            }
        };
        labels.push((label.to_owned(), value));
        rest = &rest[after..];
        if let Some(more) = rest.strip_prefix(',') {
            rest = more;
            assert!(!rest.is_empty(), "trailing comma in `{series}`");
        } else {
            assert!(rest.is_empty(), "junk after label value in `{series}`");
        }
    }
    (name.to_owned(), labels)
}

struct Family {
    kind: String,
    has_help: bool,
    samples: Vec<(String, Labels, f64)>,
}

/// Parses a whole exposition into families, enforcing layout invariants.
fn parse(exposition: &str) -> BTreeMap<String, Family> {
    let mut families: BTreeMap<String, Family> = BTreeMap::new();
    let mut order: Vec<String> = Vec::new();
    for line in exposition.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, help) = rest.split_once(' ').expect("HELP carries text");
            assert!(is_valid_metric_name(name), "bad family name `{name}`");
            assert!(!help.trim().is_empty(), "empty HELP for `{name}`");
            let fresh = families
                .insert(
                    name.to_owned(),
                    Family {
                        kind: String::new(),
                        has_help: true,
                        samples: Vec::new(),
                    },
                )
                .is_none();
            assert!(fresh, "family `{name}` declared twice — interleaved?");
            order.push(name.to_owned());
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').expect("TYPE carries a kind");
            assert!(
                matches!(
                    kind,
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ),
                "unknown TYPE `{kind}` for `{name}`"
            );
            let family = families
                .get_mut(name)
                .unwrap_or_else(|| panic!("TYPE before HELP for `{name}`"));
            assert!(family.kind.is_empty(), "duplicate TYPE for `{name}`");
            family.kind = kind.to_owned();
            continue;
        }
        assert!(!line.starts_with('#'), "unknown comment: `{line}`");
        let (series, value) = line.rsplit_once(' ').expect("`name value` sample form");
        let value: f64 = match value {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            other => other
                .parse()
                .unwrap_or_else(|_| panic!("bad value in `{line}`")),
        };
        let (name, labels) = parse_series(series);
        let base = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .filter(|base| families.get(*base).is_some_and(|f| f.kind == "histogram"))
            .unwrap_or(&name)
            .to_owned();
        let family = families
            .get_mut(&base)
            .unwrap_or_else(|| panic!("sample `{name}` has no HELP/TYPE family"));
        // samples must belong to the most recently declared family: a
        // conformant exposition never interleaves
        assert_eq!(
            order.last().unwrap(),
            &base,
            "sample `{name}` appears outside its family block"
        );
        family.samples.push((name, labels, value));
    }
    for (name, family) in &families {
        assert!(family.has_help, "family `{name}` missing HELP");
        assert!(!family.kind.is_empty(), "family `{name}` missing TYPE");
        assert!(!family.samples.is_empty(), "family `{name}` has no samples");
    }
    families
}

/// A registry with traffic on every surface: stages, endpoints, queries,
/// ingest, serve, cache, LSH, resources — so the exposition exercises
/// every family it can emit.
fn populated_snapshot() -> foresight_engine::MetricsSnapshot {
    let metrics = Metrics::new();
    for stage in Stage::ALL {
        metrics.record_ns(stage, 1_500);
        metrics.record_ns(stage, 65_000);
    }
    for endpoint in Endpoint::ALL {
        metrics.record_request(endpoint, 2_000);
    }
    metrics.record_query("linear-relationship", Mode::Exact, false);
    metrics.record_query("skew", Mode::Approximate, true);
    for (counter, n) in [
        (Counter::SketchFallbacks, 1),
        (Counter::LshQueries, 1),
        (Counter::LshCandidatePairs, 42),
        (Counter::IngestBatches, 1),
        (Counter::IngestRows, 1_000),
        (Counter::RepublishesFull, 1),
        (Counter::Connections, 1),
        (Counter::LoadShed, 1),
        (Counter::Errors, 1),
        (Counter::SessionsCreated, 1),
        (Counter::SessionsClosed, 1),
    ] {
        metrics.add(counter, n);
    }
    let mut snap = metrics.snapshot();
    snap.cache = Some(CacheSnapshot {
        hits: 3,
        misses: 1,
        entries: 4,
        purges: 0,
        hit_rate: 0.75,
    });
    snap.resources = Some(foresight_engine::ResourceSnapshot {
        catalog_bytes: 1 << 20,
        cache_bytes: 4096,
        prepared_bytes: 2048,
        orders_bytes: 256,
        planes_bytes: 128,
        lsh_bytes: 512,
        trace_bytes: 64,
        session_table_bytes: 1024,
        sessions_live: 1,
    });
    snap
}

/// Every family a fully populated snapshot exposes, with its type — a
/// renamed, retyped or dropped family fails here by name.
const FAMILIES: &[(&str, &str)] = &[
    ("foresight_build_info", "gauge"),
    ("foresight_uptime_seconds", "gauge"),
    ("foresight_metrics_sample_seq", "gauge"),
    ("foresight_stage_duration_ns", "histogram"),
    ("foresight_stage_duration_ns_min_ns", "gauge"),
    ("foresight_stage_duration_ns_max_ns", "gauge"),
    ("foresight_stage_duration_ns_mean_ns", "gauge"),
    ("foresight_stage_duration_ns_p50_ns", "gauge"),
    ("foresight_stage_duration_ns_p99_ns", "gauge"),
    ("foresight_endpoint_duration_ns", "histogram"),
    ("foresight_endpoint_duration_ns_min_ns", "gauge"),
    ("foresight_endpoint_duration_ns_max_ns", "gauge"),
    ("foresight_endpoint_duration_ns_mean_ns", "gauge"),
    ("foresight_endpoint_duration_ns_p50_ns", "gauge"),
    ("foresight_endpoint_duration_ns_p99_ns", "gauge"),
    ("foresight_queries_total", "counter"),
    ("foresight_queries_exact_total", "counter"),
    ("foresight_queries_approximate_total", "counter"),
    ("foresight_queries_index_served_total", "counter"),
    ("foresight_queries_by_class_total", "counter"),
    ("foresight_sketch_fallbacks_total", "counter"),
    ("foresight_lsh_queries_total", "counter"),
    ("foresight_lsh_candidate_pairs_total", "counter"),
    ("foresight_ingest_rows_total", "counter"),
    ("foresight_ingest_batches_total", "counter"),
    ("foresight_ingest_merges_total", "counter"),
    ("foresight_republishes_total", "counter"),
    ("foresight_rescored_classes_total", "counter"),
    ("foresight_rescored_tuples_total", "counter"),
    ("foresight_reused_tuples_total", "counter"),
    ("foresight_cache_entries_migrated_total", "counter"),
    ("foresight_serve_connections_total", "counter"),
    ("foresight_serve_connections_shed_total", "counter"),
    ("foresight_serve_requests_total", "counter"),
    ("foresight_serve_load_shed_total", "counter"),
    ("foresight_serve_errors_total", "counter"),
    ("foresight_serve_sessions_created_total", "counter"),
    ("foresight_serve_sessions_expired_total", "counter"),
    ("foresight_serve_sessions_evicted_total", "counter"),
    ("foresight_serve_sessions_closed_total", "counter"),
    ("foresight_serve_sessions_live", "gauge"),
    ("foresight_cache_hits_total", "counter"),
    ("foresight_cache_misses_total", "counter"),
    ("foresight_cache_purges_total", "counter"),
    ("foresight_cache_entries", "gauge"),
    ("foresight_cache_hit_rate", "gauge"),
    ("foresight_resident_bytes", "gauge"),
    ("foresight_sessions_live", "gauge"),
];

#[test]
fn exposition_parses_strictly() {
    let snap = populated_snapshot();
    let families = parse(&snap.to_prometheus());

    // every family is present and typed as expected, and nothing else is
    for (name, kind) in FAMILIES {
        let family = families
            .get(*name)
            .unwrap_or_else(|| panic!("missing family `{name}`"));
        assert_eq!(family.kind, *kind, "family `{name}` kind");
    }
    let unlisted: Vec<&String> = families
        .keys()
        .filter(|name| !FAMILIES.iter().any(|(listed, _)| listed == name))
        .collect();
    assert!(
        unlisted.is_empty(),
        "families missing from FAMILIES: {unlisted:?}"
    );

    // build info carries the crate version, escaped and labeled
    let (_, labels, value) = &families["foresight_build_info"].samples[0];
    assert_eq!(*value, 1.0);
    assert!(labels
        .iter()
        .any(|(k, v)| k == "version" && v == foresight_engine::build_version()));

    // one resident-bytes sample per component, each with its gauge
    let components: Vec<(&str, f64)> = families["foresight_resident_bytes"]
        .samples
        .iter()
        .map(|(_, labels, value)| {
            let (key, component) = &labels[0];
            assert_eq!(key, "component");
            (component.as_str(), *value)
        })
        .collect();
    assert_eq!(
        components,
        [
            ("catalog", (1 << 20) as f64),
            ("score_cache", 4096.0),
            ("prepared_columns", 2048.0),
            ("rank_orders", 256.0),
            ("score_planes", 128.0),
            ("lsh_index", 512.0),
            ("trace_ring", 64.0),
            ("session_table", 1024.0),
        ]
    );

    // every histogram family: cumulative buckets per label set, +Inf
    // last, and +Inf == _count
    for (name, family) in families.iter().filter(|(_, f)| f.kind == "histogram") {
        let mut by_series: BTreeMap<String, Vec<(f64, f64)>> = BTreeMap::new();
        let mut counts: BTreeMap<String, f64> = BTreeMap::new();
        let mut sums: BTreeMap<String, f64> = BTreeMap::new();
        for (sample, labels, value) in &family.samples {
            let key: String = labels
                .iter()
                .filter(|(k, _)| k != "le")
                .map(|(k, v)| format!("{k}={v},"))
                .collect();
            if sample.ends_with("_bucket") {
                let le = labels
                    .iter()
                    .find(|(k, _)| k == "le")
                    .map(|(_, v)| {
                        if v == "+Inf" {
                            f64::INFINITY
                        } else {
                            v.parse().expect("numeric le")
                        }
                    })
                    .unwrap_or_else(|| panic!("bucket without le in `{name}`"));
                by_series.entry(key).or_default().push((le, *value));
            } else if sample.ends_with("_count") {
                counts.insert(key, *value);
            } else if sample.ends_with("_sum") {
                sums.insert(key, *value);
            } else {
                panic!("histogram `{name}` has stray sample `{sample}`");
            }
        }
        for (key, buckets) in &by_series {
            assert!(
                buckets.windows(2).all(|w| w[0].0 < w[1].0),
                "`{name}` buckets not in increasing le order for {{{key}}}"
            );
            assert!(
                buckets.windows(2).all(|w| w[0].1 <= w[1].1),
                "`{name}` buckets not cumulative for {{{key}}}"
            );
            let (last_le, last_count) = *buckets.last().unwrap();
            assert!(last_le.is_infinite(), "`{name}` missing +Inf for {{{key}}}");
            assert_eq!(
                Some(&last_count),
                counts.get(key),
                "`{name}` +Inf bucket != _count for {{{key}}}"
            );
            assert!(
                sums.contains_key(key),
                "`{name}` missing _sum for {{{key}}}"
            );
        }
        assert_eq!(
            by_series.len(),
            counts.len(),
            "`{name}` has _count without buckets or vice versa"
        );
    }
}

/// Label values that need escaping must arrive escaped — a kernel string
/// is attacker-ish input here (it flows from an env var).
#[test]
fn exposition_escapes_label_values() {
    let mut snap = populated_snapshot();
    snap.kernel = "we\"ird\\ban\nner".to_owned();
    let exposition = snap.to_prometheus();
    let line = exposition
        .lines()
        .find(|l| l.starts_with("foresight_build_info{"))
        .expect("build info line");
    assert!(
        line.contains(r#"kernel="we\"ird\\ban\nner""#),
        "unescaped label value: {line}"
    );
    // and the strict parser still accepts the whole thing
    parse(&exposition);
}
