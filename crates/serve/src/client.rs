//! A small blocking client for the wire protocol — used by the remote
//! explorer, the smoke test, and the load generator. One [`Client`] owns
//! one TCP connection and any number of server-side sessions (the
//! protocol multiplexes by session id, so a load generator can drive
//! thousands of sessions over a handful of sockets).

use crate::protocol::{Command, Reply, Request, Response, WireError};
use foresight_engine::{
    AlertEvent, Carousel, HealthState, InsightQuery, MetricsSnapshot, MonitorSample, Staleness,
};
use foresight_insight::{AttrTuple, InsightInstance};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// Everything that can go wrong on a call.
#[derive(Debug)]
pub enum ClientError {
    /// The socket failed or closed.
    Io(std::io::Error),
    /// The server sent something that is not a protocol response, or the
    /// reply variant did not match the command.
    Protocol(String),
    /// The server answered with a typed error.
    Server(WireError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol: {msg}"),
            ClientError::Server(err) => write!(f, "server: {err}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Client-side result alias.
pub type ClientResult<T> = std::result::Result<T, ClientError>;

/// A blocking protocol client over one TCP connection.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    next_id: u64,
}

/// Matches one expected reply variant or produces a Protocol error.
macro_rules! expect_reply {
    ($reply:expr, $pat:pat => $out:expr, $what:literal) => {
        match $reply {
            $pat => Ok($out),
            other => Err(ClientError::Protocol(format!(
                concat!("expected ", $what, ", got {:?}"),
                other
            ))),
        }
    };
}

impl Client {
    /// Connects to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> ClientResult<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client {
            writer,
            reader,
            next_id: 0,
        })
    }

    /// Sends one command (optionally session-scoped) and waits for its
    /// reply. Typed server errors come back as [`ClientError::Server`].
    pub fn call(&mut self, session: Option<u64>, cmd: Command) -> ClientResult<Reply> {
        self.next_id += 1;
        let request = Request {
            id: self.next_id,
            session,
            cmd,
        };
        let mut line = serde_json::to_string(&request)
            .map_err(|e| ClientError::Protocol(format!("encode: {e}")))?;
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        let mut response = String::new();
        let n = self.reader.read_line(&mut response)?;
        if n == 0 {
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )));
        }
        let response: Response = serde_json::from_str(response.trim())
            .map_err(|e| ClientError::Protocol(format!("decode: {e}")))?;
        if let Some(err) = response.err {
            return Err(ClientError::Server(err));
        }
        response
            .ok
            .ok_or_else(|| ClientError::Protocol("response had neither ok nor err".to_owned()))
    }

    /// `hello`: server identity, dataset shape, mode, streaming flag.
    pub fn hello(&mut self) -> ClientResult<crate::protocol::HelloInfo> {
        expect_reply!(self.call(None, Command::Hello)?, Reply::Hello(info) => info, "Hello")
    }

    /// Opens a server-side session and returns its id.
    pub fn open(&mut self) -> ClientResult<u64> {
        expect_reply!(self.call(None, Command::Open)?, Reply::Opened { session } => session, "Opened")
    }

    /// Closes a session.
    pub fn close(&mut self, session: u64) -> ClientResult<()> {
        expect_reply!(self.call(Some(session), Command::Close)?, Reply::Closed => (), "Closed")
    }

    /// Runs an insight query in a session.
    pub fn query(
        &mut self,
        session: u64,
        query: InsightQuery,
    ) -> ClientResult<Vec<InsightInstance>> {
        expect_reply!(
            self.call(Some(session), Command::Query(query))?,
            Reply::Results(results) => results,
            "Results"
        )
    }

    /// Runs a query with tracing; the trace is `None` unless the server
    /// was built with the `trace` feature.
    pub fn explain(
        &mut self,
        session: u64,
        query: InsightQuery,
    ) -> ClientResult<(Vec<InsightInstance>, Option<foresight_engine::QueryTrace>)> {
        expect_reply!(
            self.call(Some(session), Command::Explain(query))?,
            Reply::Explained { results, trace } => (results, trace),
            "Explained"
        )
    }

    /// Figure-1 carousels, `per_class` instances each.
    pub fn carousels(&mut self, session: u64, per_class: usize) -> ClientResult<Vec<Carousel>> {
        expect_reply!(
            self.call(Some(session), Command::Carousels { per_class })?,
            Reply::Carousels(carousels) => carousels,
            "Carousels"
        )
    }

    /// Adds an insight to the session's focus set.
    pub fn focus(&mut self, session: u64, instance: InsightInstance) -> ClientResult<()> {
        expect_reply!(
            self.call(Some(session), Command::Focus(instance))?,
            Reply::Ack { .. } => (),
            "Ack"
        )
    }

    /// Drops one focused attribute tuple; returns whether it was present.
    pub fn unfocus(&mut self, session: u64, attrs: AttrTuple) -> ClientResult<bool> {
        expect_reply!(
            self.call(Some(session), Command::Unfocus(attrs))?,
            Reply::Ack { changed } => changed,
            "Ack"
        )
    }

    /// Clears the focus set.
    pub fn clear_focus(&mut self, session: u64) -> ClientResult<()> {
        expect_reply!(
            self.call(Some(session), Command::ClearFocus)?,
            Reply::Ack { .. } => (),
            "Ack"
        )
    }

    /// Dataset profile as seen by the session's snapshot.
    pub fn profile(&mut self, session: u64) -> ClientResult<foresight_engine::DatasetProfile> {
        expect_reply!(
            self.call(Some(session), Command::Profile)?,
            Reply::Profile(profile) => profile,
            "Profile"
        )
    }

    /// Server-wide metrics snapshot.
    pub fn metrics(&mut self) -> ClientResult<MetricsSnapshot> {
        expect_reply!(
            self.call(None, Command::Metrics)?,
            Reply::Metrics(snapshot) => snapshot,
            "Metrics"
        )
    }

    /// Server-side slow-query log, one formatted line per entry.
    pub fn slowlog(&mut self) -> ClientResult<Vec<String>> {
        expect_reply!(self.call(None, Command::Slowlog)?, Reply::Slowlog(lines) => lines, "Slowlog")
    }

    /// The newest `last` monitor ring samples, oldest first (0 = all).
    pub fn metrics_history(&mut self, last: usize) -> ClientResult<Vec<MonitorSample>> {
        expect_reply!(
            self.call(None, Command::MetricsHistory { last })?,
            Reply::MetricsHistory(samples) => samples,
            "MetricsHistory"
        )
    }

    /// The server's health verdict (healthy / degraded / unready).
    pub fn health(&mut self) -> ClientResult<HealthState> {
        expect_reply!(self.call(None, Command::Health)?, Reply::Health(state) => state, "Health")
    }

    /// The watchdog's alert log, oldest first.
    pub fn alerts(&mut self) -> ClientResult<Vec<AlertEvent>> {
        expect_reply!(self.call(None, Command::Alerts)?, Reply::Alerts(events) => events, "Alerts")
    }

    /// Zeroes the server's metric counters; the monitor records a
    /// discontinuity so derived rates never go negative.
    pub fn reset_metrics(&mut self) -> ClientResult<()> {
        expect_reply!(
            self.call(None, Command::ResetMetrics)?,
            Reply::MetricsReset => (),
            "MetricsReset"
        )
    }

    /// Manually adopts the newest published snapshot (stream-backed
    /// servers); returns whether the session moved.
    pub fn refresh(&mut self, session: u64) -> ClientResult<bool> {
        expect_reply!(
            self.call(Some(session), Command::Refresh)?,
            Reply::Refreshed { moved } => moved,
            "Refreshed"
        )
    }

    /// How far the session's snapshot trails the stream head.
    pub fn staleness(&mut self, session: u64) -> ClientResult<Staleness> {
        expect_reply!(
            self.call(Some(session), Command::Staleness)?,
            Reply::Staleness(staleness) => staleness,
            "Staleness"
        )
    }

    /// Serializes the session state (focus set + history) to JSON.
    pub fn save(&mut self, session: u64) -> ClientResult<String> {
        expect_reply!(self.call(Some(session), Command::Save)?, Reply::Saved { state } => state, "Saved")
    }

    /// Restores previously saved state into a session; the server
    /// re-validates it against the adopting core first.
    pub fn restore(&mut self, session: u64, state: String) -> ClientResult<()> {
        expect_reply!(
            self.call(Some(session), Command::Restore { state })?,
            Reply::Restored => (),
            "Restored"
        )
    }

    /// Switches the session's execution mode ("exact" / "approximate").
    pub fn set_mode(&mut self, session: u64, mode: &str) -> ClientResult<()> {
        expect_reply!(
            self.call(
                Some(session),
                Command::SetMode {
                    mode: mode.to_owned()
                }
            )?,
            Reply::ModeSet => (),
            "ModeSet"
        )
    }

    /// Switches the session's candidate-generation strategy (`auto` /
    /// `exhaustive` / `lsh` / `lsh:<probes>`); returns the canonical
    /// spelling now in effect.
    pub fn set_candidates(&mut self, session: u64, strategy: &str) -> ClientResult<String> {
        expect_reply!(
            self.call(
                Some(session),
                Command::SetCandidates {
                    strategy: strategy.to_owned()
                }
            )?,
            Reply::CandidatesSet { strategy } => strategy,
            "CandidatesSet"
        )
    }
}
