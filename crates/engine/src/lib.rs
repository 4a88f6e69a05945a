//! # foresight-engine
//!
//! The paper's core contribution, part 2: the exploration engine.
//!
//! * [`query`] — insight queries: top-k, fixed attributes, metric-range
//!   filters, metric selection (§2.1)
//! * [`executor`] — exact or sketch-backed query execution, optionally
//!   rayon-parallel with batch scoring and quickselect top-k
//! * [`cache`] — the cross-query score cache
//! * [`candidates`] — candidate generation strategies: the quadratic
//!   class scan vs. LSH bucket collisions over the catalog's signatures
//! * [`core`] — the shared, `Send + Sync` [`EngineCore`] snapshot, its one
//!   query entry point ([`EngineCore::run`] under [`QueryOptions`]) and
//!   its [`CoreBuilder`] writer path
//! * [`handle`] — cheap per-user [`SessionHandle`]s over one core
//! * [`neighborhood`] — insight similarity and focus-driven re-ranking
//! * [`session`] — focus set, history, save/restore
//! * [`stream`] — streaming ingest: a writer thread republishing
//!   snapshots at bounded cadence
//! * [`monitor`] — continuous self-monitoring: a sampler thread deriving
//!   rate/latency series from snapshot deltas, a threshold watchdog with
//!   hysteresis, and `Healthy`/`Degraded`/`Unready` health gating
//! * [`recommend`] — Figure-1 carousel assembly
//! * [`telemetry`] — per-stage latency histograms and query counters
//!   (compiled out without the `telemetry` cargo feature)
//! * [`trace`] — request-scoped tracing: per-query span trees, EXPLAIN,
//!   the trace ring, and the slow-query log (compiled out without the
//!   `trace` cargo feature)
//! * [`foresight`] — the [`Foresight`] facade: one [`SessionHandle`] plus
//!   the writer path

#![warn(missing_docs)]

pub mod cache;
pub mod candidates;
pub mod core;
pub mod error;
pub mod executor;
pub mod foresight;
pub mod handle;
pub mod index;
pub mod monitor;
pub mod neighborhood;
pub mod profile;
pub mod query;
pub mod recommend;
pub mod session;
pub mod stream;
pub mod telemetry;
pub mod trace;

pub use crate::core::{CoreBuilder, EngineCore, QueryOptions, Staleness, TraceMode};
pub use cache::{BatchLookup, CacheStats, ScoreCache, CACHE_SHARDS};
pub use candidates::{
    lsh_disabled, CandidateOrigin, CandidatePlan, CandidateSource, CandidateStrategy,
    LSH_WIDTH_THRESHOLD,
};
pub use error::{EngineError, Result};
pub use executor::{Executor, Mode};
pub use foresight::{Foresight, STATE_FORMAT_VERSION};
pub use handle::{AdoptPolicy, SessionHandle};
pub use index::InsightIndex;
pub use monitor::{
    AlertEvent, AlertKind, HealthPolicy, HealthReason, HealthState, Monitor, MonitorConfig,
    MonitorSample, MonitorTarget, StageWindow,
};
pub use neighborhood::NeighborhoodWeights;
pub use profile::{ColumnProfile, DatasetProfile};
pub use query::InsightQuery;
pub use recommend::{Carousel, CarouselConfig};
pub use session::{Session, SessionEvent, MAX_HISTORY_EVENTS};
pub use stream::{PublishedCore, RepublishPolicy, StreamConfig, StreamWriter};
pub use telemetry::{
    build_features, build_version, kernel_name, Endpoint, LshSnapshot, Metrics, MetricsSnapshot,
    ResourceSnapshot, ServeSnapshot, Stage, StageSnapshot,
};
pub use trace::{
    Explained, LshCandidates, QueryTrace, SkipSummary, SlowQuery, TraceSpan, TracedResult, Tracer,
    SLOW_LOG_CAPACITY, TRACE_RING_CAPACITY,
};
