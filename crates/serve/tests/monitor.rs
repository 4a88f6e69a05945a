//! End-to-end monitoring tests over real loopback sockets: a raw HTTP
//! `GET /metrics` scrape must parse as Prometheus text exposition and
//! agree with the wire-JSON `Metrics` snapshot from the same server; a
//! saturated worker queue must surface as a `degraded` health verdict
//! with a typed shed-storm reason, and the watchdog must log the alert
//! firing and then resolving; `ResetMetrics` must zero the counters and
//! mark a monitor discontinuity instead of deriving negative rates.

use foresight_data::{Table, TableBuilder, TableSource};
use foresight_engine::{
    AlertKind, CoreBuilder, EngineCore, HealthPolicy, HealthReason, HealthState, InsightQuery,
    MonitorConfig,
};
use foresight_serve::{Client, ClientError, ErrorCode, ServeConfig, ServeCore, Server};
use foresight_sketch::CatalogConfig;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn table(rows: usize) -> Table {
    TableBuilder::new("monitored")
        .numeric("x", (0..rows).map(|r| r as f64).collect())
        .numeric("y", (0..rows).map(|r| (r * r % 97) as f64).collect())
        .numeric("z", (0..rows).map(|r| ((r * 31) % 53) as f64).collect())
        .build()
        .unwrap()
}

fn core(rows: usize) -> Arc<EngineCore> {
    let mut builder = CoreBuilder::new(TableSource::materialized(table(rows)));
    builder.preprocess(&CatalogConfig::default()).unwrap();
    builder.freeze()
}

/// A fast-cadence monitor config so tests observe windows in tens of
/// milliseconds instead of seconds.
fn fast_monitor(policy: HealthPolicy) -> MonitorConfig {
    MonitorConfig {
        cadence_ms: 25,
        capacity: 600,
        alert_capacity: 64,
        policy,
    }
}

/// One raw HTTP GET against the serve socket; returns (status, headers,
/// body). The server answers and closes, so read-to-EOF terminates.
fn http_get(addr: std::net::SocketAddr, path: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(stream, "GET {path} HTTP/1.0\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    let status_line = head.lines().next().expect("status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    (status, head.to_owned(), body.to_owned())
}

/// Parses Prometheus text exposition into `full-series-name -> value`
/// (label set included in the key) and checks structural invariants:
/// every non-comment line is `name{labels}? value`, every series is
/// preceded by HELP and TYPE comments for its family.
fn parse_exposition(body: &str) -> HashMap<String, f64> {
    let mut series = HashMap::new();
    let mut helped: Vec<String> = Vec::new();
    let mut typed: Vec<String> = Vec::new();
    for line in body.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            helped.push(rest.split_whitespace().next().unwrap().to_owned());
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            typed.push(parts.next().unwrap().to_owned());
            let kind = parts.next().unwrap();
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "unknown TYPE {kind}"
            );
            continue;
        }
        assert!(!line.starts_with('#'), "unknown comment form: {line}");
        let (name_labels, value) = line.rsplit_once(' ').expect("`name value` form");
        let value: f64 = value.parse().unwrap_or_else(|_| {
            if value == "+Inf" {
                f64::INFINITY
            } else {
                panic!("unparseable sample value in {line}")
            }
        });
        let family = name_labels.split('{').next().unwrap();
        let base = family
            .strip_suffix("_bucket")
            .or_else(|| family.strip_suffix("_sum"))
            .or_else(|| family.strip_suffix("_count"))
            .unwrap_or(family);
        assert!(
            helped.iter().any(|h| h == family || h == base),
            "series {family} has no HELP"
        );
        assert!(
            typed.iter().any(|t| t == family || t == base),
            "series {family} has no TYPE"
        );
        series.insert(name_labels.to_owned(), value);
    }
    assert_eq!(helped.len(), typed.len(), "HELP/TYPE must pair up");
    series
}

/// The loopback scrape test: counters scraped over raw HTTP must equal
/// the ones the wire-JSON `Metrics` command reports from the same server.
#[test]
fn prometheus_scrape_matches_wire_json_snapshot() {
    let server = Server::start(
        ServeCore::Static(core(64)),
        "127.0.0.1:0",
        ServeConfig {
            monitor: fast_monitor(HealthPolicy::default()),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let session = client.open().unwrap();
    for class in ["skew", "outliers", "linear-relationship"] {
        client
            .query(session, InsightQuery::class(class).top_k(2))
            .unwrap();
    }

    let (status, head, body) = http_get(server.addr(), "/metrics");
    assert_eq!(status, 200);
    assert!(
        head.contains("text/plain; version=0.0.4"),
        "exposition content type, got: {head}"
    );
    let series = parse_exposition(&body);

    // no query/session/ingest traffic between the scrape and this wire
    // snapshot, so those counters must agree exactly
    let snap = client.metrics().unwrap();
    assert_eq!(
        series["foresight_queries_total"], snap.queries.total as f64,
        "scraped query counter drifted from the wire snapshot"
    );
    assert_eq!(
        series["foresight_serve_sessions_created_total"],
        snap.serve.sessions_created as f64
    );
    assert_eq!(
        series["foresight_serve_load_shed_total"],
        snap.serve.load_shed as f64
    );
    assert_eq!(
        series["foresight_ingest_rows_total"],
        snap.ingest.rows as f64
    );
    for (class, count) in &snap.queries.by_class {
        assert_eq!(
            series[&format!("foresight_queries_by_class_total{{class=\"{class}\"}}")],
            *count as f64
        );
    }
    // the scrape itself is admission-controlled traffic: it must appear
    // in the request counter the next snapshot reports
    assert!(snap.serve.requests >= 1);
    assert!(series["foresight_uptime_seconds"] > 0.0);
    assert!(series
        .keys()
        .any(|k| k.starts_with("foresight_build_info{")));
    // resource gauges ride along
    assert!(series["foresight_resident_bytes{component=\"catalog\"}"] > 0.0);

    // hello advertises the same build info the exposition carries
    let hello = client.hello().unwrap();
    assert_eq!(hello.version, foresight_engine::build_version());
    assert!(!hello.kernel.is_empty());

    // unknown paths 404, as plain text
    let (status, _, _) = http_get(server.addr(), "/nope");
    assert_eq!(status, 404);
    server.shutdown();
}

/// Saturating the (single, depth-1) worker queue must turn health
/// `degraded` with a typed shed-storm reason, and the watchdog must log
/// the alert firing and then resolving once the storm passes. `/healthz`
/// stays answerable (and 200 — degraded still serves) throughout.
///
/// Nothing here is sequenced by the clock. One connection holds the only
/// worker with `Sleep`; two identical hammer connections query in a loop.
/// While the worker is held, whichever hammer request reaches the empty
/// depth-1 queue first parks there until the hold ends, and every request
/// of the other hammer finds the queue full and is shed — so the storm
/// runs for the whole hold whatever order the three connections arrive
/// in, and the main thread only watches the health verdict change.
#[test]
fn shed_storm_degrades_health_and_fires_then_resolves_alert() {
    let server = Server::start(
        ServeCore::Static(core(48)),
        "127.0.0.1:0",
        ServeConfig {
            workers: 1,
            queue_depth: 1,
            enable_test_commands: true,
            monitor: fast_monitor(HealthPolicy {
                max_shed_per_sec: 1.0,
                ..HealthPolicy::default()
            }),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();
    let mut client = Client::connect(addr).unwrap();
    let held_session = client.open().unwrap();
    let hammer_sessions = [client.open().unwrap(), client.open().unwrap()];

    let sleeper = std::thread::spawn(move || {
        let mut holder = Client::connect(addr).unwrap();
        // the hold is a request like any other: while the worker is still
        // free it can find a hammer's request in the queue and be shed
        loop {
            match holder.call(
                Some(held_session),
                foresight_serve::Command::Sleep { ms: 3000 },
            ) {
                Ok(_) => break,
                Err(ClientError::Server(e)) if e.code == ErrorCode::Overloaded => {}
                Err(other) => panic!("the hold failed: {other}"),
            }
        }
    });
    let storm_over = Arc::new(AtomicBool::new(false));
    let hammers = hammer_sessions.map(|session| {
        let storm_over = Arc::clone(&storm_over);
        std::thread::spawn(move || {
            let mut hammer = Client::connect(addr).unwrap();
            let mut shed = 0u32;
            while !storm_over.load(Ordering::SeqCst) {
                if hammer
                    .query(session, InsightQuery::class("skew").top_k(1))
                    .is_err()
                {
                    shed += 1;
                }
            }
            shed
        })
    });

    // health is answered inline, so this connection never queues: poll the
    // verdict until the 25 ms sampler has flagged the storm
    let deadline = Instant::now() + Duration::from_secs(8);
    let degraded = loop {
        match client.health().unwrap() {
            HealthState::Degraded(reasons) => break reasons,
            _ if Instant::now() > deadline => panic!("never degraded under a shed storm"),
            _ => std::thread::yield_now(),
        }
    };
    assert!(
        degraded
            .iter()
            .any(|r| matches!(r, HealthReason::ShedStorm { .. })),
        "degraded without a shed-storm reason: {degraded:?}"
    );
    // degraded is still ready: the HTTP probe answers 200 inline even
    // with the only worker wedged (the hammers are still shedding, so the
    // verdict cannot flip mid-probe)
    let (status, _, body) = http_get(addr, "/healthz");
    assert_eq!(status, 200);
    assert!(body.starts_with("degraded"), "body: {body}");

    // the hold ends on its own; once it has, the hammers' requests are
    // simply served and the storm is over
    sleeper.join().unwrap();
    storm_over.store(true, Ordering::SeqCst);
    let shed: u32 = hammers.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(shed > 0, "storm produced no sheds");

    // the alert must resolve and health return to healthy
    let deadline = Instant::now() + Duration::from_secs(5);
    while !matches!(client.health().unwrap(), HealthState::Healthy) {
        assert!(Instant::now() < deadline, "health never recovered");
        std::thread::yield_now();
    }
    let alerts = client.alerts().unwrap();
    let shed_alerts: Vec<_> = alerts
        .iter()
        .filter(|a| a.kind == AlertKind::ShedStorm)
        .collect();
    assert!(
        shed_alerts.iter().any(|a| a.fired),
        "no fired shed-storm alert: {alerts:?}"
    );
    assert!(
        shed_alerts.iter().any(|a| !a.fired),
        "shed-storm alert never resolved: {alerts:?}"
    );
    let fired_at = shed_alerts.iter().position(|a| a.fired).unwrap();
    let resolved_at = shed_alerts.iter().position(|a| !a.fired).unwrap();
    assert!(fired_at < resolved_at, "fired must precede resolved");

    let (status, _, body) = http_get(addr, "/healthz");
    assert_eq!(status, 200);
    assert!(body.starts_with("healthy"), "body: {body}");
    server.shutdown();
}

/// `ResetMetrics` zeroes the wire counters and the monitor marks the
/// next sample as a discontinuity (zero rates) instead of going negative.
#[test]
fn reset_metrics_marks_monitor_discontinuity() {
    let server = Server::start(
        ServeCore::Static(core(48)),
        "127.0.0.1:0",
        ServeConfig {
            monitor: fast_monitor(HealthPolicy::default()),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let session = client.open().unwrap();
    for _ in 0..5 {
        client
            .query(session, InsightQuery::class("skew").top_k(1))
            .unwrap();
    }
    // let the sampler observe the traffic first
    std::thread::sleep(Duration::from_millis(80));
    let before = client.metrics_history(0).unwrap();
    assert!(!before.is_empty(), "sampler must have filled the ring");
    assert!(
        before.windows(2).all(|w| w[0].seq < w[1].seq),
        "history must be oldest-first"
    );
    let last_seq = before.last().unwrap().seq;

    client.reset_metrics().unwrap();
    assert_eq!(
        client.metrics().unwrap().queries.total,
        0,
        "counters zeroed"
    );

    // the first post-reset sample carries the discontinuity flag and
    // reports zero rates rather than negative ones
    let deadline = Instant::now() + Duration::from_secs(5);
    let sample = loop {
        let newest = client.metrics_history(1).unwrap();
        match newest.last() {
            Some(s) if s.seq > last_seq && s.discontinuity => break s.clone(),
            _ => {
                assert!(
                    Instant::now() < deadline,
                    "no discontinuity sample after reset; newest: {newest:?}"
                );
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    };
    assert_eq!(sample.request_rate, 0.0);
    assert_eq!(sample.query_rate, 0.0);
    assert!(
        sample.interval_secs == 0.0,
        "window resets with the counters"
    );
    server.shutdown();
}
