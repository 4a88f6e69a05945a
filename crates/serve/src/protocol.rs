//! The wire protocol: line-delimited JSON over TCP.
//!
//! Every request is one JSON object on one line, every response one JSON
//! object on one line, matched by the client-chosen `id`. The encoding is
//! serde's externally-tagged default for the [`Command`] and [`Reply`]
//! enums, so a query request looks like
//!
//! ```text
//! {"id":7,"session":3,"cmd":{"Query":{"class_id":"skew","top_k":5,...}}}
//! {"id":7,"ok":{"Results":[...]},"err":null}
//! ```
//!
//! Errors are *typed*: a [`WireError`] carries a machine-readable
//! [`ErrorCode`] (admission-control sheds are `Overloaded` /
//! `TooManyConnections`, a stale save is `SessionMismatch`, …) plus a
//! human-readable message. The framing is deliberately trivial — one line,
//! one message — leaving room for a compact binary framing later without
//! touching the command set.
//!
//! Payload types are the engine's own (`InsightQuery`, `InsightInstance`,
//! `Carousel`, `MetricsSnapshot`, …): the serde stub's `float_roundtrip`
//! JSON keeps every `f64` exact, which is what makes wire-served results
//! bit-identical to in-process [`SessionHandle`] answers (see the
//! `loopback` tests).
//!
//! [`SessionHandle`]: foresight_engine::SessionHandle

use foresight_engine::profile::DatasetProfile;
use foresight_engine::trace::QueryTrace;
use foresight_engine::{
    AlertEvent, Carousel, HealthState, InsightQuery, MetricsSnapshot, MonitorSample, Staleness,
};
use foresight_insight::{AttrTuple, InsightInstance};
use serde::{Deserialize, Serialize};

/// The protocol revision this build speaks; reported in [`HelloInfo`].
pub const PROTOCOL_VERSION: u32 = 1;

/// Upper bound on one request line, bytes. Longer lines are answered with
/// a `BadRequest` error and the connection is closed (a runaway line is
/// indistinguishable from a framing bug).
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// One request line.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    #[serde(default)]
    pub id: u64,
    /// The server-side session the command addresses (`None` for
    /// session-less commands: `Hello`, `Open`, `Metrics`, `Slowlog`).
    #[serde(default)]
    pub session: Option<u64>,
    /// The command to execute.
    pub cmd: Command,
}

/// Every command the server understands.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Command {
    /// Handshake: server, protocol, and dataset info.
    Hello,
    /// Create a server-side session; the reply carries its id.
    Open,
    /// Drop the addressed session.
    Close,
    /// Run an insight query in the session.
    Query(InsightQuery),
    /// Run an insight query with a forced trace.
    Explain(InsightQuery),
    /// Assemble all carousels, re-ranked toward the session's focus.
    Carousels {
        /// Instances per class strip.
        per_class: usize,
    },
    /// Add an insight to the session's focus set.
    Focus(InsightInstance),
    /// Remove a focused insight by its attribute tuple.
    Unfocus(AttrTuple),
    /// Clear the session's focus set.
    ClearFocus,
    /// Profile the dataset under the session's mode.
    Profile,
    /// A deterministic snapshot of the engine + serving telemetry.
    Metrics,
    /// The monitor ring's most recent samples (derived rate/latency
    /// series), oldest first; `last: 0` returns every retained sample.
    MetricsHistory {
        /// How many trailing samples to return (0 = all).
        last: usize,
    },
    /// The replica's health verdict. Answered inline by the reactor —
    /// never queued behind saturated workers — so a load balancer's probe
    /// still gets an answer mid-incident.
    Health,
    /// The watchdog's retained alert transitions, oldest first.
    Alerts,
    /// Zero every metrics counter and histogram, marking a discontinuity
    /// in the monitor ring so rates never go negative across the reset.
    ResetMetrics,
    /// The slow-query log, rendered one line per entry.
    Slowlog,
    /// Adopt the latest published stream snapshot.
    Refresh,
    /// How far the session's snapshot lags the ingest head.
    Staleness,
    /// Serialize the session's exploration state (focus + history).
    Save,
    /// Replace the session's state with a prior `Save` payload, validated
    /// against the adopting core (`SessionMismatch` on schema/dataset
    /// drift).
    Restore {
        /// The `Save` reply's `state` payload.
        state: String,
    },
    /// Override the session's scoring mode (`"exact"` / `"approximate"`).
    SetMode {
        /// The mode name.
        mode: String,
    },
    /// Override the session's candidate-generation strategy — the
    /// recall-vs-speed knob for pairwise classes (`"auto"`,
    /// `"exhaustive"`, `"lsh"`, `"lsh:<probes>"`).
    SetCandidates {
        /// The strategy spelling, parsed by
        /// [`CandidateStrategy::parse`](foresight_engine::CandidateStrategy::parse).
        strategy: String,
    },
    /// Test-only: hold the addressed session's worker for `ms`
    /// milliseconds, so shed behavior is deterministic under test.
    /// Rejected (`Unsupported`) unless the server enables test commands.
    Sleep {
        /// How long to block the worker.
        ms: u64,
    },
}

impl Command {
    /// Whether the command addresses a session (and therefore routes
    /// through a worker queue rather than being answered inline).
    pub fn needs_session(&self) -> bool {
        !matches!(
            self,
            Command::Hello
                | Command::Open
                | Command::Metrics
                | Command::MetricsHistory { .. }
                | Command::Health
                | Command::Alerts
                | Command::ResetMetrics
                | Command::Slowlog
        )
    }

    /// The telemetry endpoint family this command is accounted under.
    pub fn endpoint(&self) -> foresight_engine::Endpoint {
        use foresight_engine::Endpoint;
        match self {
            Command::Hello => Endpoint::Hello,
            Command::Open
            | Command::Close
            | Command::Save
            | Command::Restore { .. }
            | Command::SetMode { .. }
            | Command::SetCandidates { .. }
            | Command::Sleep { .. } => Endpoint::Session,
            Command::Query(_) => Endpoint::Query,
            Command::Explain(_) => Endpoint::Explain,
            Command::Carousels { .. } => Endpoint::Carousels,
            Command::Focus(_) | Command::Unfocus(_) | Command::ClearFocus => Endpoint::Focus,
            Command::Profile => Endpoint::Profile,
            Command::Metrics
            | Command::MetricsHistory { .. }
            | Command::Health
            | Command::Alerts
            | Command::ResetMetrics
            | Command::Slowlog => Endpoint::Metrics,
            Command::Refresh | Command::Staleness => Endpoint::Stream,
        }
    }
}

/// One response line: `id` echoes the request, exactly one of `ok` / `err`
/// is set.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Response {
    /// The request's correlation id (0 when the request was unparseable).
    #[serde(default)]
    pub id: u64,
    /// The successful reply.
    #[serde(default)]
    pub ok: Option<Reply>,
    /// The typed error.
    #[serde(default)]
    pub err: Option<WireError>,
}

impl Response {
    /// A success response.
    pub fn ok(id: u64, reply: Reply) -> Self {
        Self {
            id,
            ok: Some(reply),
            err: None,
        }
    }

    /// A typed-error response.
    pub fn err(id: u64, code: ErrorCode, message: impl Into<String>) -> Self {
        Self {
            id,
            ok: None,
            err: Some(WireError {
                code,
                message: message.into(),
            }),
        }
    }
}

/// Every successful reply payload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Reply {
    /// Handshake info.
    Hello(HelloInfo),
    /// A session was created.
    Opened {
        /// The new session's id; pass it as `Request::session`.
        session: u64,
    },
    /// The session was dropped.
    Closed,
    /// Ranked query results.
    Results(Vec<InsightInstance>),
    /// Query results plus the captured trace.
    Explained {
        /// Ranked results, bit-identical to a `Query` of the same shape.
        results: Vec<InsightInstance>,
        /// The span tree.
        trace: Option<QueryTrace>,
    },
    /// One carousel per class.
    Carousels(Vec<Carousel>),
    /// A focus-set edit was applied.
    Ack {
        /// Whether the edit changed anything (e.g. `Unfocus` of an
        /// unfocused tuple reports `false`).
        changed: bool,
    },
    /// The dataset profile.
    Profile(DatasetProfile),
    /// The telemetry snapshot.
    Metrics(MetricsSnapshot),
    /// The monitor ring's samples, oldest first (empty when the monitor
    /// is disabled).
    MetricsHistory(Vec<MonitorSample>),
    /// The health verdict.
    Health(HealthState),
    /// The watchdog's alert transitions, oldest first.
    Alerts(Vec<AlertEvent>),
    /// Metrics were reset and the monitor discontinuity was marked.
    MetricsReset,
    /// Slow-query log lines, oldest first.
    Slowlog(Vec<String>),
    /// A refresh ran.
    Refreshed {
        /// Whether the session actually moved to a newer snapshot.
        moved: bool,
    },
    /// The staleness reading.
    Staleness(Staleness),
    /// The serialized session state.
    Saved {
        /// JSON accepted by `Command::Restore`.
        state: String,
    },
    /// A checked restore succeeded.
    Restored,
    /// The mode was switched.
    ModeSet,
    /// The candidate strategy was switched; echoes the canonical spelling.
    CandidatesSet {
        /// The strategy now in effect, in its stable spelling.
        strategy: String,
    },
    /// A test-only `Sleep` completed.
    Slept,
}

/// A machine-readable failure category.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorCode {
    /// A worker queue was full; retry with backoff.
    Overloaded,
    /// The connection budget was exhausted; the connection is closed.
    TooManyConnections,
    /// The addressed session does not exist (never created, expired, or
    /// evicted).
    UnknownSession,
    /// The request was malformed (unparseable line, missing session,
    /// oversized line, unknown mode name).
    BadRequest,
    /// A `Restore` payload failed validation against the adopting core.
    SessionMismatch,
    /// The engine rejected the command (unknown class, no catalog, …).
    Engine,
    /// The command is not enabled on this server (e.g. `Sleep` without
    /// test commands).
    Unsupported,
    /// The server is shutting down.
    ShuttingDown,
}

impl ErrorCode {
    /// The stable snake-case name.
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::TooManyConnections => "too_many_connections",
            ErrorCode::UnknownSession => "unknown_session",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::SessionMismatch => "session_mismatch",
            ErrorCode::Engine => "engine",
            ErrorCode::Unsupported => "unsupported",
            ErrorCode::ShuttingDown => "shutting_down",
        }
    }
}

/// A typed protocol error.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WireError {
    /// The failure category.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code.name(), self.message)
    }
}

/// The handshake payload: enough for a remote client to drive every REPL
/// command (the column list feeds client-side `fix <name>` resolution).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HelloInfo {
    /// Always `"foresight-serve"`.
    pub server: String,
    /// The protocol revision (see [`PROTOCOL_VERSION`]).
    pub protocol: u32,
    /// The served dataset's name.
    pub dataset: String,
    /// Rows in the currently published snapshot.
    pub rows: u64,
    /// Columns in the schema.
    pub cols: usize,
    /// Column names, in schema order.
    pub columns: Vec<String>,
    /// The published default scoring mode (`exact` / `approximate`).
    pub mode: String,
    /// Whether sessions bind to a live stream publication slot (staleness
    /// and `Refresh` are then meaningful).
    pub streaming: bool,
    /// LSH candidate-index tables built over the catalog's signatures
    /// (0 = no index; `SetCandidates "lsh"` would fall back to the scan).
    #[serde(default)]
    pub lsh_tables: usize,
    /// The server's crate version (`default` so older servers parse).
    #[serde(default)]
    pub version: String,
    /// The stats-kernel mode serving this core (`vectorized` / `scalar`).
    #[serde(default)]
    pub kernel: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_and_responses_round_trip_one_line() {
        let req = Request {
            id: 7,
            session: Some(3),
            cmd: Command::Query(InsightQuery::class("skew").top_k(5)),
        };
        let line = serde_json::to_string(&req).unwrap();
        assert!(!line.contains('\n'), "one request, one line");
        let back: Request = serde_json::from_str(&line).unwrap();
        assert_eq!(back.id, 7);
        assert_eq!(back.session, Some(3));
        assert!(matches!(back.cmd, Command::Query(q) if q.class_id == "skew"));

        let resp = Response::err(7, ErrorCode::Overloaded, "queue full");
        let line = serde_json::to_string(&resp).unwrap();
        assert!(!line.contains('\n'));
        let back: Response = serde_json::from_str(&line).unwrap();
        let err = back.err.expect("typed error survives the wire");
        assert_eq!(err.code, ErrorCode::Overloaded);
        assert_eq!(err.code.name(), "overloaded");
    }

    #[test]
    fn endpoint_families_cover_every_command() {
        use foresight_engine::Endpoint;
        assert_eq!(Command::Hello.endpoint(), Endpoint::Hello);
        assert_eq!(Command::Open.endpoint(), Endpoint::Session);
        assert_eq!(
            Command::Query(InsightQuery::class("skew")).endpoint(),
            Endpoint::Query
        );
        assert_eq!(Command::ClearFocus.endpoint(), Endpoint::Focus);
        assert_eq!(Command::Slowlog.endpoint(), Endpoint::Metrics);
        assert_eq!(Command::Staleness.endpoint(), Endpoint::Stream);
        assert!(!Command::Hello.needs_session());
        assert!(!Command::Open.needs_session());
        assert!(Command::Close.needs_session());
        assert!(Command::Save.needs_session());
    }

    #[test]
    fn monitor_commands_are_session_less_metrics_endpoints() {
        use foresight_engine::Endpoint;
        for cmd in [
            Command::MetricsHistory { last: 10 },
            Command::Health,
            Command::Alerts,
            Command::ResetMetrics,
        ] {
            assert_eq!(cmd.endpoint(), Endpoint::Metrics);
            assert!(!cmd.needs_session(), "{cmd:?} is answered inline");
            // every monitor command survives the wire
            let req = Request {
                id: 1,
                session: None,
                cmd,
            };
            let line = serde_json::to_string(&req).unwrap();
            assert!(!line.contains('\n'));
            let _: Request = serde_json::from_str(&line).unwrap();
        }
    }
}
