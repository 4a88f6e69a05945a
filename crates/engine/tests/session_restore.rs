//! Session save/restore across handles bound to *different* stream
//! snapshots. A session saved early in a stream's life must restore into
//! a handle that has already adopted a much later snapshot — same
//! dataset, same schema, more rows — and keep working. A session saved
//! against a different dataset, a different schema, or with attribute
//! indices the adopting core cannot satisfy must be rejected with the
//! typed [`EngineError::SessionMismatch`], never silently accepted.

use foresight_data::{TableBuilder, TableSource};
use foresight_engine::stream::{RepublishPolicy, StreamConfig, StreamWriter};
use foresight_engine::{
    AdoptPolicy, CoreBuilder, EngineError, InsightQuery, Session, SessionEvent,
};
use foresight_insight::{AttrTuple, InsightInstance};

/// `rows` rows of three numeric columns starting at global row `offset`.
fn batch(offset: usize, rows: usize) -> foresight_data::Table {
    let col = |f: &dyn Fn(usize) -> f64| -> Vec<f64> { (offset..offset + rows).map(f).collect() };
    TableBuilder::new("stream")
        .numeric("x", col(&|r| r as f64))
        .numeric("y", col(&|r| 2.0 * r as f64 + ((r * 13) % 7) as f64))
        .numeric("z", col(&|r| ((r * 37) % 101) as f64))
        .build()
        .unwrap()
}

#[test]
fn restore_carries_state_across_stream_snapshots() {
    let core = CoreBuilder::new(TableSource::materialized(batch(0, 80))).freeze();
    let writer = StreamWriter::spawn(
        core,
        StreamConfig {
            policy: RepublishPolicy {
                max_rows: 40,
                ..RepublishPolicy::default()
            },
            ..StreamConfig::default()
        },
    );
    let published = writer.published();

    // Alice explores the stream's first snapshot and saves her state.
    let mut alice = published.latest().handle();
    alice.bind_stream(writer.published());
    alice.set_adopt_policy(AdoptPolicy::EveryQuery);
    let results = alice
        .query(&InsightQuery::class("linear-relationship").top_k(2))
        .unwrap();
    alice.focus(results[0].clone());
    let saved = alice.session().to_json().unwrap();
    let saved_version = published.version();

    // The stream moves on: several republishes later the published
    // snapshot has twice the rows Alice ever saw.
    for i in 0..4 {
        writer.send(batch(80 + i * 40, 40)).unwrap();
    }
    writer.flush().unwrap();
    assert!(
        published.version() > saved_version,
        "stream must have republished past the snapshot the session was saved on"
    );

    // A colleague binds a fresh handle to the *current* snapshot and
    // adopts Alice's state. Same dataset + schema → accepted, focus and
    // history intact, and queries answer over the newer rows.
    let mut colleague = published.latest().handle();
    colleague.bind_stream(writer.published());
    colleague.set_adopt_policy(AdoptPolicy::EveryQuery);
    colleague
        .restore_session_checked(Session::from_json(&saved).unwrap())
        .unwrap();
    assert_eq!(colleague.session().focus, alice.session().focus);
    assert!(colleague
        .session()
        .history
        .iter()
        .any(|e| matches!(e, SessionEvent::Queried { .. })));
    let after = colleague
        .query(&InsightQuery::class("linear-relationship").top_k(2))
        .unwrap();
    assert_eq!(after.len(), 2);
    assert_eq!(colleague.core().snapshot_rows(), 80 + 4 * 40);

    writer.finish().unwrap();
}

#[test]
fn restore_rejects_sessions_from_a_different_schema() {
    // Saved against a 3-column table named "stream" …
    let wide = CoreBuilder::new(TableSource::materialized(batch(0, 60))).freeze();
    let mut source_handle = wide.handle();
    source_handle
        .query(&InsightQuery::class("skew").top_k(1))
        .unwrap();
    let saved = source_handle.session().to_json().unwrap();

    // … restored into a core over a different table. Both the dataset
    // name and the column set disagree: typed mismatch, state untouched.
    let other = TableBuilder::new("other")
        .numeric("a", (0..60).map(|r| r as f64).collect())
        .numeric("b", (0..60).map(|r| (r * r) as f64).collect())
        .build()
        .unwrap();
    let narrow = CoreBuilder::new(TableSource::materialized(other)).freeze();
    let mut target = narrow.handle();
    let before = target.session().clone();
    let err = target
        .restore_session_checked(Session::from_json(&saved).unwrap())
        .unwrap_err();
    assert!(
        matches!(err, EngineError::SessionMismatch(_)),
        "expected SessionMismatch, got: {err}"
    );
    assert_eq!(
        target.session(),
        &before,
        "a rejected restore must not disturb the handle's session"
    );
}

#[test]
fn restore_rejects_out_of_bounds_focus_even_without_schema_fingerprint() {
    // An old-format session (no schema fingerprint) whose focused insight
    // points at column 9 of a 3-column table: bounds checks still catch it.
    let mut stale = Session::new("stream");
    stale.schema = None;
    stale.focus(InsightInstance {
        class_id: "skew".into(),
        attrs: AttrTuple::One(9),
        score: 1.0,
        metric: "skew".into(),
        detail: String::new(),
    });
    let core = CoreBuilder::new(TableSource::materialized(batch(0, 50))).freeze();
    let mut handle = core.handle();
    let err = handle.restore_session_checked(stale).unwrap_err();
    assert!(
        matches!(err, EngineError::SessionMismatch(_)),
        "expected SessionMismatch, got: {err}"
    );
}

#[test]
fn restore_rejects_unregistered_insight_classes() {
    let mut session = Session::new("stream");
    session.schema = Some(vec!["x".into(), "y".into(), "z".into()]);
    session.record_query(&InsightQuery::class("not-a-class").top_k(1), 0);
    let core = CoreBuilder::new(TableSource::materialized(batch(0, 50))).freeze();
    let mut handle = core.handle();
    let err = handle.restore_session_checked(session).unwrap_err();
    assert!(
        matches!(err, EngineError::SessionMismatch(_)),
        "expected SessionMismatch, got: {err}"
    );
}

/// A handle that outlives the history bound saves a truncated log that
/// says so, and a colleague restoring it gets the same suffix, the same
/// drop count, and a replay of exactly the retained queries, in order.
#[test]
fn truncated_history_round_trips_through_save_and_checked_restore() {
    use foresight_engine::MAX_HISTORY_EVENTS;
    let core = CoreBuilder::new(TableSource::materialized(batch(0, 50))).freeze();
    let mut long_lived = core.handle();
    let total = MAX_HISTORY_EVENTS + 7;
    for i in 0..total {
        long_lived
            .query(&InsightQuery::class("skew").top_k(1 + i % 3))
            .unwrap();
    }
    let kept = long_lived.session().history.len();
    assert!(kept <= MAX_HISTORY_EVENTS);
    assert_eq!(long_lived.session().history_dropped, (total - kept) as u64);
    assert!(long_lived.session().history_dropped > 0);

    let mut saved = Vec::new();
    long_lived.save_session(&mut saved).unwrap();
    let mut colleague = core.handle();
    colleague
        .restore_session_checked(Session::load(saved.as_slice()).unwrap())
        .unwrap();
    assert_eq!(colleague.session(), long_lived.session());

    let retained: Vec<usize> = colleague
        .session()
        .queries()
        .iter()
        .map(|q| q.top_k)
        .collect();
    let expected: Vec<usize> = (total - kept..total).map(|i| 1 + i % 3).collect();
    assert_eq!(retained, expected);
    let replayed = colleague.replay_session().unwrap();
    assert_eq!(
        replayed.iter().map(Vec::len).collect::<Vec<_>>(),
        expected,
        "replay re-runs the retained suffix in order"
    );
}
