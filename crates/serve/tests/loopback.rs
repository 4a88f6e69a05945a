//! End-to-end protocol tests over real loopback sockets: wire answers
//! must be bit-identical to in-process `SessionHandle` answers, admission
//! control must shed with typed errors, the server-owned session table
//! must expire (TTL) and evict (LRU) — and a mismatched `restore` must be
//! rejected with the typed `session_mismatch` error, over the wire.

use foresight_data::{Table, TableBuilder, TableSource};
use foresight_engine::stream::{RepublishPolicy, StreamConfig, StreamWriter};
use foresight_engine::{CoreBuilder, EngineCore, InsightQuery};
use foresight_serve::{Client, ClientError, ErrorCode, ServeConfig, ServeCore, Server};
use foresight_sketch::CatalogConfig;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Deterministic little table: three numeric columns, one categorical.
fn table(offset: usize, rows: usize) -> Table {
    let col = |f: &dyn Fn(usize) -> f64| -> Vec<f64> { (offset..offset + rows).map(f).collect() };
    let cats: Vec<&str> = (offset..offset + rows)
        .map(|r| ["low", "mid", "high"][r % 3])
        .collect();
    TableBuilder::new("loopback")
        .numeric("x", col(&|r| r as f64))
        .numeric("y", col(&|r| 3.0 * r as f64 + ((r * 17) % 11) as f64))
        .numeric("z", col(&|r| ((r * 37) % 101) as f64))
        .categorical("c", cats)
        .build()
        .unwrap()
}

fn core(rows: usize) -> Arc<EngineCore> {
    let mut builder = CoreBuilder::new(TableSource::materialized(table(0, rows)));
    builder.preprocess(&CatalogConfig::default()).unwrap();
    builder.freeze()
}

fn start(core: ServeCore, config: ServeConfig) -> Server {
    Server::start(core, "127.0.0.1:0", config).unwrap()
}

fn server_code(err: ClientError) -> ErrorCode {
    match err {
        ClientError::Server(wire) => wire.code,
        other => panic!("expected a typed server error, got: {other}"),
    }
}

/// The tentpole's correctness bar: everything a remote client reads must
/// be byte-for-byte what an in-process handle over the same core
/// computes. `float_roundtrip` JSON makes f64 scores survive the wire
/// exactly, so plain `assert_eq!` is the right check.
#[test]
fn wire_answers_are_bit_identical_to_in_process() {
    let core = core(64);
    let server = start(ServeCore::Static(Arc::clone(&core)), ServeConfig::default());
    let mut local = core.handle();
    let mut client = Client::connect(server.addr()).unwrap();

    let hello = client.hello().unwrap();
    assert_eq!(hello.dataset, "loopback");
    assert_eq!(hello.rows, 64);
    assert_eq!(hello.columns, vec!["x", "y", "z", "c"]);
    assert!(!hello.streaming);

    let session = client.open().unwrap();
    let queries = [
        InsightQuery::class("linear-relationship").top_k(3),
        InsightQuery::class("skew").top_k(2),
        InsightQuery::class("outliers").top_k(4),
        InsightQuery::class("dispersion").top_k(2).fix_attr(2),
    ];
    for query in &queries {
        let remote = client.query(session, query.clone()).unwrap();
        let in_process = local.query(query).unwrap();
        assert_eq!(remote, in_process, "wire drift on {}", query.class_id);
    }

    // focus-driven re-ranking must transfer too: focus the same insight
    // on both sides and compare the re-ranked answers
    let seed_query = InsightQuery::class("linear-relationship").top_k(1);
    let seed = local.query(&seed_query).unwrap();
    assert_eq!(client.query(session, seed_query).unwrap(), seed);
    client.focus(session, seed[0].clone()).unwrap();
    local.focus(seed[0].clone());
    let query = InsightQuery::class("linear-relationship").top_k(5);
    assert_eq!(
        client.query(session, query.clone()).unwrap(),
        local.query(&query).unwrap(),
        "wire drift under focus re-ranking"
    );

    assert_eq!(
        client.carousels(session, 3).unwrap(),
        local.carousels(3).unwrap()
    );
    assert_eq!(client.profile(session).unwrap(), local.profile().unwrap());

    // save on the wire, restore in process: the exact same session state
    let state = client.save(session).unwrap();
    let mut adopted = core.handle();
    adopted
        .restore_session_checked(foresight_engine::Session::from_json(&state).unwrap())
        .unwrap();
    assert_eq!(adopted.session(), local.session());

    client.close(session).unwrap();
    server.shutdown();
}

/// A held worker with a depth-1 queue: the first waiting request queues,
/// the next is shed with the typed `overloaded` error — and the shed is
/// counted as load-shed, not as an error.
///
/// Nothing here is sequenced by the clock. One connection holds the only
/// worker with `Sleep`, again and again until a shed has been seen; two
/// identical hammer connections query in a loop. A hammer's request can
/// only find the queue full while a hold is running or parked, and while
/// one is running, whichever hammer request reaches the empty queue first
/// parks there and the other connection's next request must be shed — so
/// every arrival order of the three connections ends in a typed shed.
#[test]
fn full_worker_queue_sheds_with_typed_overloaded() {
    let core = core(48);
    let server = start(
        ServeCore::Static(Arc::clone(&core)),
        ServeConfig {
            workers: 1,
            queue_depth: 1,
            enable_test_commands: true,
            ..ServeConfig::default()
        },
    );
    let addr = server.addr();
    let mut client = Client::connect(addr).unwrap();
    let held_session = client.open().unwrap();
    let hammer_sessions = [client.open().unwrap(), client.open().unwrap()];
    let shed_seen = Arc::new(AtomicBool::new(false));
    let deadline = Instant::now() + Duration::from_secs(30);

    let holder = {
        let shed_seen = Arc::clone(&shed_seen);
        std::thread::spawn(move || {
            let mut holder = Client::connect(addr).unwrap();
            while !shed_seen.load(Ordering::SeqCst) {
                // the hold is a request like any other: it can find a
                // hammer's request in the queue and be shed itself
                match holder.call(
                    Some(held_session),
                    foresight_serve::Command::Sleep { ms: 200 },
                ) {
                    Ok(_) => {}
                    Err(err) => assert_eq!(server_code(err), ErrorCode::Overloaded),
                }
            }
        })
    };
    let hammers = hammer_sessions.map(|session| {
        let shed_seen = Arc::clone(&shed_seen);
        std::thread::spawn(move || {
            let mut hammer = Client::connect(addr).unwrap();
            while !shed_seen.load(Ordering::SeqCst) {
                assert!(Instant::now() < deadline, "no request was ever shed");
                if let Err(err) = hammer.query(session, InsightQuery::class("skew").top_k(1)) {
                    // shed immediately and typed
                    assert_eq!(server_code(err), ErrorCode::Overloaded);
                    shed_seen.store(true, Ordering::SeqCst);
                }
            }
        })
    });
    for hammer in hammers {
        hammer.join().unwrap();
    }
    holder.join().unwrap();

    let metrics = client.metrics().unwrap();
    assert!(metrics.serve.load_shed >= 1, "shed must be counted");
    assert_eq!(
        metrics.serve.errors, 0,
        "load-shed is admission control, not an error"
    );
    server.shutdown();
}

/// Sessions idle past the TTL disappear; touching one afterwards gets the
/// typed `unknown_session` error and the expiry is counted.
#[test]
fn idle_sessions_expire_by_ttl() {
    let core = core(48);
    let server = start(
        ServeCore::Static(Arc::clone(&core)),
        ServeConfig {
            workers: 1,
            session_ttl: Duration::from_millis(200),
            ..ServeConfig::default()
        },
    );
    let mut client = Client::connect(server.addr()).unwrap();
    let session = client.open().unwrap();
    client
        .query(session, InsightQuery::class("skew").top_k(1))
        .unwrap();
    // the worker sweeps at most every 500ms while idle
    std::thread::sleep(Duration::from_millis(1200));
    let err = client
        .query(session, InsightQuery::class("skew").top_k(1))
        .unwrap_err();
    assert_eq!(server_code(err), ErrorCode::UnknownSession);
    assert!(client.metrics().unwrap().serve.sessions_expired >= 1);
    server.shutdown();
}

/// Past the session budget the least-recently-used session is evicted —
/// recency is per *use*, not per creation.
#[test]
fn session_table_evicts_least_recently_used() {
    let core = core(48);
    let server = start(
        ServeCore::Static(Arc::clone(&core)),
        ServeConfig {
            workers: 1,
            max_sessions: 2,
            ..ServeConfig::default()
        },
    );
    let mut client = Client::connect(server.addr()).unwrap();
    let first = client.open().unwrap();
    std::thread::sleep(Duration::from_millis(20));
    let second = client.open().unwrap();
    std::thread::sleep(Duration::from_millis(20));
    // touch the older session so the newer one becomes the LRU victim
    client
        .query(first, InsightQuery::class("skew").top_k(1))
        .unwrap();
    std::thread::sleep(Duration::from_millis(20));
    let third = client.open().unwrap();

    let err = client
        .query(second, InsightQuery::class("skew").top_k(1))
        .unwrap_err();
    assert_eq!(server_code(err), ErrorCode::UnknownSession);
    client
        .query(first, InsightQuery::class("skew").top_k(1))
        .unwrap();
    client
        .query(third, InsightQuery::class("skew").top_k(1))
        .unwrap();
    assert!(client.metrics().unwrap().serve.sessions_evicted >= 1);
    server.shutdown();
}

/// A `restore` whose saved state disagrees with the serving core must be
/// rejected with the typed `session_mismatch` error, over the wire.
#[test]
fn restore_of_foreign_session_is_rejected_typed() {
    // state saved against a different dataset/schema …
    let other = TableBuilder::new("other")
        .numeric("a", (0..40).map(|r| r as f64).collect())
        .numeric("b", (0..40).map(|r| (r * r) as f64).collect())
        .build()
        .unwrap();
    let foreign_core = CoreBuilder::new(TableSource::materialized(other)).freeze();
    let mut foreign = foreign_core.handle();
    foreign
        .query(&InsightQuery::class("skew").top_k(1))
        .unwrap();
    let state = foreign.session().to_json().unwrap();

    // … restored into a server fronting the loopback table
    let server = start(ServeCore::Static(core(48)), ServeConfig::default());
    let mut client = Client::connect(server.addr()).unwrap();
    let session = client.open().unwrap();
    let err = client.restore(session, state).unwrap_err();
    assert_eq!(server_code(err), ErrorCode::SessionMismatch);
    // the session survives a rejected restore
    client
        .query(session, InsightQuery::class("skew").top_k(1))
        .unwrap();
    server.shutdown();
}

/// Over the connection budget, a new connection gets one typed
/// `too_many_connections` line and is closed.
#[test]
fn connection_budget_sheds_typed() {
    let core = core(48);
    let server = start(
        ServeCore::Static(Arc::clone(&core)),
        ServeConfig {
            max_connections: 1,
            ..ServeConfig::default()
        },
    );
    let mut first = Client::connect(server.addr()).unwrap();
    first.hello().unwrap(); // proves the first connection is live
    let mut second = Client::connect(server.addr()).unwrap();
    let err = second.hello().unwrap_err();
    assert_eq!(server_code(err), ErrorCode::TooManyConnections);
    assert!(first.metrics().unwrap().serve.connections_shed >= 1);
    server.shutdown();
}

/// A thousand-session fleet on the default configuration: 1 024 sessions
/// opened over four connections are all live at once (none expired or
/// evicted), each answers one query, and the server counts exactly that
/// work — every session created, no protocol error and no shed.
#[test]
fn a_thousand_live_sessions_answer_without_errors() {
    const CONNECTIONS: usize = 4;
    const SESSIONS: usize = 1_024;
    let core = core(48);
    let server = start(ServeCore::Static(core), ServeConfig::default());
    let mut clients: Vec<Client> = (0..CONNECTIONS)
        .map(|_| Client::connect(server.addr()).unwrap())
        .collect();
    let sessions: Vec<(usize, u64)> = (0..SESSIONS)
        .map(|i| (i % CONNECTIONS, clients[i % CONNECTIONS].open().unwrap()))
        .collect();
    let query = InsightQuery::class("skew").top_k(1);
    for &(conn, session) in &sessions {
        let answer = clients[conn].query(session, query.clone()).unwrap();
        assert_eq!(answer.len(), 1, "session {session} got an empty answer");
    }
    let serve = clients[0].metrics().unwrap().serve;
    assert_eq!(serve.sessions_created, SESSIONS as u64);
    assert_eq!(serve.sessions_expired + serve.sessions_evicted, 0);
    assert_eq!(serve.errors, 0);
    assert_eq!(serve.load_shed, 0);
    server.shutdown();
}

/// A server fronting a live stream: remote sessions bind to the
/// publication slot, report staleness, and (with the every-query adopt
/// policy) answer over republished rows automatically.
#[test]
fn stream_backed_sessions_follow_republishes() {
    let seed = table(0, 60);
    let base = CoreBuilder::new(TableSource::materialized(seed)).freeze();
    let writer = StreamWriter::spawn(
        base,
        StreamConfig {
            policy: RepublishPolicy {
                max_rows: 30,
                ..RepublishPolicy::default()
            },
            ..StreamConfig::default()
        },
    );
    let server = start(
        ServeCore::Stream(writer.published()),
        ServeConfig::default(),
    );
    let mut client = Client::connect(server.addr()).unwrap();
    assert!(client.hello().unwrap().streaming);
    let session = client.open().unwrap();
    client
        .query(session, InsightQuery::class("skew").top_k(1))
        .unwrap();

    for i in 0..3 {
        writer.send(table(60 + i * 30, 30)).unwrap();
    }
    writer.flush().unwrap();

    // a query adopts the newest snapshot, so staleness collapses to zero
    client
        .query(session, InsightQuery::class("skew").top_k(1))
        .unwrap();
    let staleness = client.staleness(session).unwrap();
    assert_eq!(staleness.snapshot_rows, 60 + 3 * 30);
    assert_eq!(staleness.rows_behind, 0);

    server.shutdown();
    writer.finish().unwrap();
}

/// The LSH knob over the wire: a wide-table carousel served in LSH mode
/// must be bit-identical to an in-process handle under the same strategy,
/// `SetCandidates` echoes canonical spellings (and rejects junk, typed),
/// and the EXPLAIN collision counts survive the JSON round-trip exactly.
#[test]
fn lsh_carousels_and_explain_counts_survive_the_wire() {
    use foresight_engine::CandidateStrategy;
    // a wide table (>= the Auto width threshold) so LSH actually engages
    let wide = {
        let mut b = TableBuilder::new("wide-loopback");
        let noise = |r: usize, c: u64| {
            let x = (r as u64)
                .wrapping_mul(6364136223846793005)
                .wrapping_add(c * 2531);
            (x >> 33) as f64 / 1e9
        };
        let base: Vec<f64> = (0..96).map(|r| r as f64 + noise(r, 0)).collect();
        b = b.numeric("w0", base.clone());
        // a strong planted partner for w0, then independent noise columns
        b = b.numeric(
            "w1",
            base.iter()
                .enumerate()
                .map(|(r, v)| v + 0.01 * noise(r, 1))
                .collect(),
        );
        for c in 2..80u64 {
            b = b.numeric(format!("w{c}"), (0..96).map(|r| noise(r, c)).collect());
        }
        b.build().unwrap()
    };
    let mut builder = CoreBuilder::new(TableSource::materialized(wide));
    // pin k=256 signatures: the planner derives (K, L) = (16, 16) from it,
    // which `hello` must then advertise
    builder
        .preprocess(&CatalogConfig {
            hyperplane_k: Some(256),
            ..Default::default()
        })
        .unwrap();
    let core = builder.freeze();

    let server = start(ServeCore::Static(Arc::clone(&core)), ServeConfig::default());
    let mut client = Client::connect(server.addr()).unwrap();

    let hello = client.hello().unwrap();
    if core.lsh_index().is_some() {
        assert_eq!(hello.lsh_tables, 16, "k=256 signatures plan 16 tables");
    } else {
        assert_eq!(hello.lsh_tables, 0, "index force-disabled");
    }

    let session = client.open().unwrap();
    // canonical echo + typed rejection
    assert_eq!(client.set_candidates(session, "lsh:4").unwrap(), "lsh:4");
    assert_eq!(
        client.set_candidates(session, "exact").unwrap(),
        "exhaustive"
    );
    assert_eq!(
        server_code(client.set_candidates(session, "nope").unwrap_err()),
        ErrorCode::BadRequest
    );
    assert_eq!(client.set_candidates(session, "lsh").unwrap(), "lsh");

    // carousel in LSH mode: bit-identical to in-process under the knob
    let mut local = core.handle();
    local.set_candidate_strategy(CandidateStrategy::Lsh { probes: None });
    let remote = client.carousels(session, 3).unwrap();
    let in_process = local.carousels(3).unwrap();
    assert_eq!(
        remote, in_process,
        "LSH-mode carousel drifted over the wire"
    );

    // and the query path too
    let q = InsightQuery::class("linear-relationship").top_k(5);
    assert_eq!(
        client.query(session, q.clone()).unwrap(),
        local.query(&q).unwrap()
    );

    // EXPLAIN candidate counts survive the JSON round-trip
    let (results, trace) = client.explain(session, q.clone()).unwrap();
    assert_eq!(results, local.query(&q).unwrap());
    let trace = trace.expect("explain captures a trace");
    if core.lsh_index().is_none() {
        // FORESIGHT_DISABLE_LSH=1: no index, so no collision counts
        assert!(trace.lsh.is_none());
        client.close(session).unwrap();
        server.shutdown();
        return;
    }
    let wire_lsh = trace.lsh.expect("LSH-strategy explain carries counts");
    let local_trace = local
        .explain(&q)
        .unwrap()
        .trace
        .expect("explain captures a trace");
    let local_lsh = local_trace
        .lsh
        .expect("LSH-strategy explain carries counts");
    assert_eq!(wire_lsh.collision_pairs, local_lsh.collision_pairs);
    assert_eq!(wire_lsh.universe_columns, local_lsh.universe_columns);
    assert_eq!(wire_lsh.tables_probed, local_lsh.tables_probed);
    assert_eq!(wire_lsh.universe_columns, 80);
    assert!(trace
        .to_text()
        .contains("candidates from LSH bucket collisions:"));

    client.close(session).unwrap();
    server.shutdown();
}
