//! # foresight-serve
//!
//! The network serving front end: a dependency-free TCP server exposing
//! the full exploration surface — queries, carousels, focus-driven
//! re-ranking, EXPLAIN, profiles, metrics — over a line-delimited JSON
//! protocol, so Foresight sessions can live behind a socket instead of
//! inside the process.
//!
//! * [`protocol`] — the wire types: requests, commands, replies, typed
//!   error codes
//! * [`server`] — the reactor: acceptor + connection threads + session-
//!   sharded workers with bounded queues, LRU + TTL session eviction, and
//!   first-class admission control (typed `overloaded` /
//!   `too_many_connections` sheds, all counted in engine telemetry)
//! * [`client`] — a small blocking client used by the remote explorer,
//!   the CI smoke test, and the benchmark's `wire_oecd` workload
//!
//! The same socket also answers plaintext HTTP `GET /metrics` (Prometheus
//! text exposition) and `GET /healthz` (200 healthy/degraded, 503
//! unready) — the connection thread sniffs the verb before JSON parsing,
//! so scrapes and health probes bypass the worker queues entirely.
//!
//! The session layer the engine previously kept per-[`SessionHandle`]
//! is here owned by the server: clients `open` a session, the owning
//! worker materializes a handle over the newest core (binding it to the
//! stream publication slot when serving a live ingest), and `save` /
//! `restore` move session state across handles — with the restore
//! re-validated against the adopting core.
//!
//! [`SessionHandle`]: foresight_engine::SessionHandle

#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod server;

pub use client::{Client, ClientError, ClientResult};
pub use protocol::{
    Command, ErrorCode, HelloInfo, Reply, Request, Response, WireError, MAX_LINE_BYTES,
    PROTOCOL_VERSION,
};
pub use server::{ServeConfig, ServeCore, Server};
