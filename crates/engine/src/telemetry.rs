//! Lightweight, hand-rolled observability for the serving core.
//!
//! The paper's pitch is *interactive-latency* insight queries backed by
//! *bounded-error* sketches, which makes latency a first-class correctness
//! property — yet a shared [`EngineCore`](crate::EngineCore) serving many
//! sessions had no way to answer "where does a slow query spend its time".
//! This module is the measurement substrate: a [`Metrics`] registry owned
//! by the core (and shared across republished snapshots, like the score
//! cache), recording
//!
//! * per-stage latency histograms — one cacheline-padded `StageCell` of
//!   atomic counters per [`Stage`], with log₂-bucketed sample counts, so a
//!   recording is a handful of relaxed atomic adds and never a lock;
//! * query counters by class and by mode, index-served counts, and
//!   sketch-fallback-to-exact events;
//! * cache traffic, folded in from the [`ScoreCache`](crate::ScoreCache)'s
//!   own counters at snapshot time.
//!
//! Timings are captured with span-style scoped guards:
//!
//! ```
//! use foresight_engine::telemetry::{Metrics, Stage};
//! let metrics = Metrics::new();
//! {
//!     let _span = metrics.span(Stage::Score);
//!     // ... the instrumented stage ...
//! } // recorded on drop
//! let snap = metrics.snapshot();
//! assert!(!cfg!(feature = "telemetry") || snap.stage("score").unwrap().count == 1);
//! ```
//!
//! # The `telemetry` cargo feature
//!
//! Recording is compiled out unless the crate is built with
//! `--features telemetry`: every record path is behind a
//! `cfg!(feature = "telemetry")` constant, so without the feature a span is
//! a no-op that never reads the clock and the optimizer removes the guard
//! entirely. With the feature on, a runtime [`Metrics::set_enabled`] switch
//! remains (one relaxed atomic load per span) so a single binary can
//! measure its own instrumentation overhead — `exp_telemetry` asserts the
//! enabled/disabled gap stays within 3% on warm queries.
//!
//! Snapshots ([`MetricsSnapshot`]) are plain data with *deterministic*
//! JSON and text renderings: fixed stage order, sorted class maps, stable
//! field order — diffable across runs even though the timing values
//! themselves naturally vary.

use crate::cache::CacheStats;
use crate::executor::Mode;
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The span clock. `Instant::now` costs tens of nanoseconds when
/// `clock_gettime` leaves the vDSO (typical under VM hypervisors), which
/// alone would blow the ≤3% overhead budget on a ~10 µs warm query that
/// crosses several span boundaries. On x86_64 we read the invariant TSC
/// instead (a few ns) and convert to nanoseconds with a once-per-process
/// calibration against the OS clock; elsewhere we fall back to `Instant`.
pub(crate) mod clock {
    use std::sync::OnceLock;
    use std::time::Instant;

    #[cfg(target_arch = "x86_64")]
    struct Calibration {
        base_ticks: u64,
        ns_per_tick: f64,
    }

    #[cfg(target_arch = "x86_64")]
    fn calibration() -> &'static Calibration {
        static CAL: OnceLock<Calibration> = OnceLock::new();
        CAL.get_or_init(|| {
            // spin ~200 µs against the OS clock; invariant TSC drift over
            // that window is far below histogram (log₂ bucket) resolution
            let t0 = Instant::now();
            let ticks0 = unsafe { core::arch::x86_64::_rdtsc() };
            let mut elapsed = t0.elapsed();
            while elapsed.as_micros() < 200 {
                std::hint::spin_loop();
                elapsed = t0.elapsed();
            }
            let ticks1 = unsafe { core::arch::x86_64::_rdtsc() };
            Calibration {
                base_ticks: ticks0,
                ns_per_tick: elapsed.as_nanos() as f64 / (ticks1 - ticks0).max(1) as f64,
            }
        })
    }

    /// Monotonic nanoseconds from an arbitrary process-local epoch.
    #[cfg(target_arch = "x86_64")]
    #[inline]
    pub fn now_ns() -> u64 {
        let cal = calibration();
        let ticks = unsafe { core::arch::x86_64::_rdtsc() };
        (ticks.wrapping_sub(cal.base_ticks) as f64 * cal.ns_per_tick) as u64
    }

    /// Monotonic nanoseconds from an arbitrary process-local epoch.
    #[cfg(not(target_arch = "x86_64"))]
    #[inline]
    pub fn now_ns() -> u64 {
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

/// Number of log₂ latency buckets per stage: bucket `i` counts samples in
/// `[2^i, 2^(i+1))` nanoseconds (bucket 0 is `[0, 2)`), so 40 buckets span
/// sub-microsecond spans up to ~18 minutes — far beyond any query stage.
pub const LATENCY_BUCKETS: usize = 40;

/// The instrumented stages of the query path, in the fixed order every
/// snapshot reports them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// [`CoreBuilder::preprocess`](crate::CoreBuilder::preprocess) — the
    /// paper's preprocessing phase end to end.
    Preprocess,
    /// Building a sketch catalog (whole-table or one shard).
    SketchBuild,
    /// Merging a shard catalog into the global one.
    SketchMerge,
    /// Building the insight index.
    IndexBuild,
    /// Incrementally refreshing the insight index after an append
    /// (rescoring only tuples that touch dirty columns).
    IndexRefresh,
    /// Serving a query from the prebuilt insight index.
    IndexServe,
    /// Building or incrementally refreshing the LSH candidate index.
    LshBuild,
    /// Candidate scoring (cache lookups + exact/sketch metric evaluation).
    Score,
    /// Top-k selection (quickselect + prefix sort).
    Rank,
    /// Maximal-marginal-relevance diversification.
    Diversify,
    /// Rendering winning instances (describe memo + instance assembly).
    Describe,
    /// Assembling one class's carousel.
    Carousel,
    /// Dataset profiling.
    Profile,
    /// [`CoreBuilder::freeze`](crate::CoreBuilder::freeze) — publishing a
    /// snapshot.
    Freeze,
}

impl Stage {
    /// Every stage, in reporting order.
    pub const ALL: [Stage; 14] = [
        Stage::Preprocess,
        Stage::SketchBuild,
        Stage::SketchMerge,
        Stage::IndexBuild,
        Stage::IndexRefresh,
        Stage::IndexServe,
        Stage::LshBuild,
        Stage::Score,
        Stage::Rank,
        Stage::Diversify,
        Stage::Describe,
        Stage::Carousel,
        Stage::Profile,
        Stage::Freeze,
    ];

    /// The stable snake-case name used in snapshots and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Preprocess => "preprocess",
            Stage::SketchBuild => "sketch_build",
            Stage::SketchMerge => "sketch_merge",
            Stage::IndexBuild => "index_build",
            Stage::IndexRefresh => "index_refresh",
            Stage::IndexServe => "index_serve",
            Stage::LshBuild => "lsh_build",
            Stage::Score => "score",
            Stage::Rank => "rank",
            Stage::Diversify => "diversify",
            Stage::Describe => "describe",
            Stage::Carousel => "carousel",
            Stage::Profile => "profile",
            Stage::Freeze => "freeze",
        }
    }
}

/// The network-serving endpoints instrumented by `foresight-serve`, in the
/// fixed order every snapshot reports them. Wire commands are bucketed
/// into a handful of endpoint families so the per-endpoint histograms stay
/// small and the report readable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// `hello` — the connection handshake (server/dataset info).
    Hello,
    /// Session lifecycle: open, close, save, checked restore, set-mode.
    Session,
    /// `query` — an insight query against the session's snapshot.
    Query,
    /// `explain` — a query with a forced trace.
    Explain,
    /// `carousels` — full carousel assembly.
    Carousels,
    /// Focus-set edits: focus, unfocus, clear.
    Focus,
    /// `profile` — dataset profiling.
    Profile,
    /// Introspection: metrics and the slow-query log.
    Metrics,
    /// Stream position: refresh and staleness readings.
    Stream,
}

impl Endpoint {
    /// Every endpoint, in reporting order.
    pub const ALL: [Endpoint; 9] = [
        Endpoint::Hello,
        Endpoint::Session,
        Endpoint::Query,
        Endpoint::Explain,
        Endpoint::Carousels,
        Endpoint::Focus,
        Endpoint::Profile,
        Endpoint::Metrics,
        Endpoint::Stream,
    ];

    /// The stable snake-case name used in snapshots and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Endpoint::Hello => "hello",
            Endpoint::Session => "session",
            Endpoint::Query => "query",
            Endpoint::Explain => "explain",
            Endpoint::Carousels => "carousels",
            Endpoint::Focus => "focus",
            Endpoint::Profile => "profile",
            Endpoint::Metrics => "metrics",
            Endpoint::Stream => "stream",
        }
    }
}

/// The bucket a sample of `ns` nanoseconds lands in: `floor(log2(ns))`,
/// clamped to the bucket range (0 and 1 ns share bucket 0).
#[inline]
fn bucket_index(ns: u64) -> usize {
    ((63 - (ns | 1).leading_zeros()) as usize).min(LATENCY_BUCKETS - 1)
}

/// The inclusive lower bound (in ns) of bucket `i`.
#[inline]
fn bucket_floor(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << i
    }
}

/// The inclusive upper bound (in ns) of bucket `i`.
#[inline]
fn bucket_ceil(i: usize) -> u64 {
    (1u64 << (i + 1)) - 1
}

/// One stage's latency accumulator: total time plus the log₂ histogram.
/// Padded to a cache line — mirroring the score cache's `Shard` — so
/// threads hammering different stages never false-share.
///
/// Deliberately minimal: no `count` (it's the sum of the buckets) and no
/// min/max atomics (`fetch_min`/`fetch_max` compile to compare-exchange
/// loops on x86; the snapshot bounds min/max from the occupied buckets
/// instead). A recording is exactly two relaxed adds.
#[repr(align(128))]
struct StageCell {
    total_ns: AtomicU64,
    buckets: [AtomicU64; LATENCY_BUCKETS],
}

impl StageCell {
    fn new() -> Self {
        Self {
            total_ns: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    #[inline]
    fn record(&self, ns: u64) {
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
    }

    fn reset(&self) {
        self.total_ns.store(0, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// The engine's metrics registry: per-stage latency histograms plus query
/// and approximation counters. Owned (behind an `Arc`) by the
/// [`EngineCore`](crate::EngineCore) and shared — like the score cache —
/// by every snapshot the writer path republishes, so a core's history
/// survives `preprocess`/`append_shard`/`freeze` cycles.
///
/// All recording is wait-free (relaxed atomics; the by-class map takes a
/// read lock on the warm path) and compiled out entirely without the
/// `telemetry` cargo feature.
pub struct Metrics {
    stages: [StageCell; Stage::ALL.len()],
    queries_exact: AtomicU64,
    queries_approximate: AtomicU64,
    queries_index_served: AtomicU64,
    /// Approximate-mode scorings that fell back to the exact path because
    /// the class has no sketch estimator (one event per candidate tuple).
    sketch_fallbacks: AtomicU64,
    /// Queries whose candidate lists came from LSH bucket collisions, and
    /// the total collision pairs those queries generated.
    lsh_queries: AtomicU64,
    lsh_candidate_pairs: AtomicU64,
    /// Per-class query counts. First query of a class takes the write
    /// lock once to insert; every later count is a read lock + relaxed add.
    queries_by_class: RwLock<BTreeMap<String, AtomicU64>>,
    /// Streaming-ingest counters (see [`IngestSnapshot`] for meanings).
    ingest_rows: AtomicU64,
    ingest_batches: AtomicU64,
    ingest_merges: AtomicU64,
    republishes_full: AtomicU64,
    republishes_incremental: AtomicU64,
    republishes_clean: AtomicU64,
    rescored_classes: AtomicU64,
    rescored_tuples: AtomicU64,
    reused_tuples: AtomicU64,
    cache_entries_migrated: AtomicU64,
    /// Per-endpoint latency histograms for the network front end, gated by
    /// [`Metrics::enabled`] like the stage cells.
    endpoints: [StageCell; Endpoint::ALL.len()],
    /// Network-serving counters (see [`ServeSnapshot`] for meanings).
    /// Always-on, like score-cache traffic: admission-control accounting
    /// (connections accepted or shed, requests load-shed) is service
    /// bookkeeping, not instrumentation, so operators see shed counts even
    /// in a build without the `telemetry` feature.
    serve_connections: AtomicU64,
    serve_connections_shed: AtomicU64,
    serve_requests: AtomicU64,
    serve_load_shed: AtomicU64,
    serve_errors: AtomicU64,
    serve_sessions_created: AtomicU64,
    serve_sessions_expired: AtomicU64,
    serve_sessions_evicted: AtomicU64,
    serve_sessions_closed: AtomicU64,
    /// Registry birth time — snapshots report their age against it so two
    /// snapshots can be ordered and rated. The registry is created with the
    /// first core and shared across republishes, so this is effectively
    /// process uptime. Deliberately not reset by [`Metrics::reset`].
    started: std::time::Instant,
    /// Monotonic snapshot sequence number (also survives `reset`, so a
    /// reset shows up as counters shrinking under a still-advancing seq).
    sample_seq: AtomicU64,
    /// Runtime switch (only meaningful when the `telemetry` feature is
    /// compiled in) — lets one binary compare instrumented vs.
    /// uninstrumented latency.
    enabled: AtomicBool,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// A fresh registry. Recording starts enabled (when the `telemetry`
    /// feature is compiled in at all).
    pub fn new() -> Self {
        Self {
            stages: std::array::from_fn(|_| StageCell::new()),
            queries_exact: AtomicU64::new(0),
            queries_approximate: AtomicU64::new(0),
            queries_index_served: AtomicU64::new(0),
            sketch_fallbacks: AtomicU64::new(0),
            lsh_queries: AtomicU64::new(0),
            lsh_candidate_pairs: AtomicU64::new(0),
            queries_by_class: RwLock::new(BTreeMap::new()),
            ingest_rows: AtomicU64::new(0),
            ingest_batches: AtomicU64::new(0),
            ingest_merges: AtomicU64::new(0),
            republishes_full: AtomicU64::new(0),
            republishes_incremental: AtomicU64::new(0),
            republishes_clean: AtomicU64::new(0),
            rescored_classes: AtomicU64::new(0),
            rescored_tuples: AtomicU64::new(0),
            reused_tuples: AtomicU64::new(0),
            cache_entries_migrated: AtomicU64::new(0),
            endpoints: std::array::from_fn(|_| StageCell::new()),
            serve_connections: AtomicU64::new(0),
            serve_connections_shed: AtomicU64::new(0),
            serve_requests: AtomicU64::new(0),
            serve_load_shed: AtomicU64::new(0),
            serve_errors: AtomicU64::new(0),
            serve_sessions_created: AtomicU64::new(0),
            serve_sessions_expired: AtomicU64::new(0),
            serve_sessions_evicted: AtomicU64::new(0),
            serve_sessions_closed: AtomicU64::new(0),
            started: std::time::Instant::now(),
            sample_seq: AtomicU64::new(0),
            enabled: AtomicBool::new(true),
        }
    }

    /// Whether recording is active: requires the `telemetry` cargo feature
    /// (a compile-time constant the optimizer folds) *and* the runtime
    /// switch. One relaxed load on the hot path.
    #[inline]
    pub fn enabled(&self) -> bool {
        cfg!(feature = "telemetry") && self.enabled.load(Ordering::Relaxed)
    }

    /// Flips the runtime recording switch. A no-op build (feature off)
    /// stays off regardless.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Opens a scoped timer for `stage`; the elapsed time is recorded when
    /// the returned guard drops. When recording is off (feature or runtime
    /// switch) the guard is inert and the clock is never read.
    #[inline]
    pub fn span(&self, stage: Stage) -> Span<'_> {
        Span {
            active: self.enabled().then(|| (self, stage, clock::now_ns())),
        }
    }

    /// Records one `ns`-nanosecond sample against `stage` directly (the
    /// non-guard form, for callers that already measured).
    #[inline]
    pub fn record_ns(&self, stage: Stage, ns: u64) {
        if self.enabled() {
            self.stages[stage as usize].record(ns);
        }
    }

    /// Counts one executed query: per-mode (the total is the sum of the
    /// mode counters), per-class, and whether the prebuilt index served it.
    pub fn record_query(&self, class_id: &str, mode: Mode, index_served: bool) {
        if !self.enabled() {
            return;
        }
        match mode {
            Mode::Exact => &self.queries_exact,
            Mode::Approximate => &self.queries_approximate,
        }
        .fetch_add(1, Ordering::Relaxed);
        if index_served {
            self.queries_index_served.fetch_add(1, Ordering::Relaxed);
        }
        {
            let by_class = self.queries_by_class.read();
            if let Some(n) = by_class.get(class_id) {
                n.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        self.queries_by_class
            .write()
            .entry(class_id.to_owned())
            .or_insert_with(|| AtomicU64::new(0))
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one approximate-mode scoring that fell back to the exact
    /// path (the class had no sketch estimator for the tuple).
    #[inline]
    pub fn record_sketch_fallback(&self) {
        if self.enabled() {
            self.sketch_fallbacks.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counts one query whose candidates came from LSH bucket collisions,
    /// with the number of collision pairs the index produced for it.
    #[inline]
    pub fn record_lsh_candidates(&self, pairs: u64) {
        if self.enabled() {
            self.lsh_queries.fetch_add(1, Ordering::Relaxed);
            self.lsh_candidate_pairs.fetch_add(pairs, Ordering::Relaxed);
        }
    }

    /// Counts one ingested row batch of `rows` rows.
    #[inline]
    pub fn record_ingest_batch(&self, rows: u64) {
        if self.enabled() {
            self.ingest_batches.fetch_add(1, Ordering::Relaxed);
            self.ingest_rows.fetch_add(rows, Ordering::Relaxed);
        }
    }

    /// Counts one shard-catalog merge into the global catalog.
    #[inline]
    pub fn record_ingest_merge(&self) {
        if self.enabled() {
            self.ingest_merges.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counts one full (rebuild-everything) snapshot republish.
    #[inline]
    pub fn record_republish_full(&self) {
        if self.enabled() {
            self.republishes_full.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counts one republish that changed nothing observable (no dirty
    /// columns) and therefore kept the cache epoch.
    #[inline]
    pub fn record_republish_clean(&self) {
        if self.enabled() {
            self.republishes_clean.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counts one incremental republish: `classes`/`rescored` index work
    /// actually redone, `reused` index entries carried over, and `migrated`
    /// clean score-cache entries moved into the new epoch.
    pub fn record_republish_incremental(
        &self,
        classes: u64,
        rescored: u64,
        reused: u64,
        migrated: u64,
    ) {
        if self.enabled() {
            self.republishes_incremental.fetch_add(1, Ordering::Relaxed);
            self.rescored_classes.fetch_add(classes, Ordering::Relaxed);
            self.rescored_tuples.fetch_add(rescored, Ordering::Relaxed);
            self.reused_tuples.fetch_add(reused, Ordering::Relaxed);
            self.cache_entries_migrated
                .fetch_add(migrated, Ordering::Relaxed);
        }
    }

    /// Counts one accepted network connection.
    #[inline]
    pub fn record_connection(&self) {
        self.serve_connections.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one connection refused by the connection budget.
    #[inline]
    pub fn record_connection_shed(&self) {
        self.serve_connections_shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one served request and records its end-to-end latency
    /// against `endpoint`. The request count is always-on; the histogram
    /// sample lands only while recording is enabled.
    #[inline]
    pub fn record_request(&self, endpoint: Endpoint, ns: u64) {
        self.serve_requests.fetch_add(1, Ordering::Relaxed);
        if self.enabled() {
            self.endpoints[endpoint as usize].record(ns);
        }
    }

    /// Counts one request shed because a worker queue was full.
    #[inline]
    pub fn record_load_shed(&self) {
        self.serve_load_shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one request answered with a typed protocol error (bad
    /// request, unknown session, engine error — sheds are counted
    /// separately).
    #[inline]
    pub fn record_serve_error(&self) {
        self.serve_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one server-side session created.
    #[inline]
    pub fn record_session_created(&self) {
        self.serve_sessions_created.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one server-side session expired by its idle TTL.
    #[inline]
    pub fn record_session_expired(&self) {
        self.serve_sessions_expired.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one server-side session evicted by the LRU capacity bound.
    #[inline]
    pub fn record_session_evicted(&self) {
        self.serve_sessions_evicted.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one server-side session closed explicitly by its client.
    #[inline]
    pub fn record_session_closed(&self) {
        self.serve_sessions_closed.fetch_add(1, Ordering::Relaxed);
    }

    /// Zeroes every histogram and counter (the runtime switch is left as
    /// is). Handy between benchmark phases.
    pub fn reset(&self) {
        for cell in &self.stages {
            cell.reset();
        }
        self.queries_exact.store(0, Ordering::Relaxed);
        self.queries_approximate.store(0, Ordering::Relaxed);
        self.queries_index_served.store(0, Ordering::Relaxed);
        self.sketch_fallbacks.store(0, Ordering::Relaxed);
        self.lsh_queries.store(0, Ordering::Relaxed);
        self.lsh_candidate_pairs.store(0, Ordering::Relaxed);
        self.queries_by_class.write().clear();
        self.ingest_rows.store(0, Ordering::Relaxed);
        self.ingest_batches.store(0, Ordering::Relaxed);
        self.ingest_merges.store(0, Ordering::Relaxed);
        self.republishes_full.store(0, Ordering::Relaxed);
        self.republishes_incremental.store(0, Ordering::Relaxed);
        self.republishes_clean.store(0, Ordering::Relaxed);
        self.rescored_classes.store(0, Ordering::Relaxed);
        self.rescored_tuples.store(0, Ordering::Relaxed);
        self.reused_tuples.store(0, Ordering::Relaxed);
        self.cache_entries_migrated.store(0, Ordering::Relaxed);
        for cell in &self.endpoints {
            cell.reset();
        }
        self.serve_connections.store(0, Ordering::Relaxed);
        self.serve_connections_shed.store(0, Ordering::Relaxed);
        self.serve_requests.store(0, Ordering::Relaxed);
        self.serve_load_shed.store(0, Ordering::Relaxed);
        self.serve_errors.store(0, Ordering::Relaxed);
        self.serve_sessions_created.store(0, Ordering::Relaxed);
        self.serve_sessions_expired.store(0, Ordering::Relaxed);
        self.serve_sessions_evicted.store(0, Ordering::Relaxed);
        self.serve_sessions_closed.store(0, Ordering::Relaxed);
        // `started` and `sample_seq` deliberately survive: uptime stays
        // process uptime, and a still-advancing seq over shrinking counters
        // is how downstream raters detect the discontinuity.
    }

    /// A point-in-time snapshot with no cache section (see
    /// [`Metrics::snapshot_with_cache`] for the core's full view).
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.snapshot_with_cache(None)
    }

    /// A point-in-time snapshot, folding the score cache's own counters
    /// into the `cache` section. Safe to take while other threads record.
    pub fn snapshot_with_cache(&self, cache: Option<&CacheStats>) -> MetricsSnapshot {
        let stages = Stage::ALL
            .iter()
            .map(|&stage| cell_snapshot(stage.name(), &self.stages[stage as usize]))
            .collect();
        let endpoints = Endpoint::ALL
            .iter()
            .map(|&ep| cell_snapshot(ep.name(), &self.endpoints[ep as usize]))
            .collect();
        let exact = self.queries_exact.load(Ordering::Relaxed);
        let approximate = self.queries_approximate.load(Ordering::Relaxed);
        let queries = QuerySnapshot {
            total: exact + approximate,
            exact,
            approximate,
            index_served: self.queries_index_served.load(Ordering::Relaxed),
            by_class: self
                .queries_by_class
                .read()
                .iter()
                .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                .collect(),
        };
        MetricsSnapshot {
            telemetry_compiled: cfg!(feature = "telemetry"),
            telemetry_enabled: self.enabled(),
            kernel: foresight_stats::kernel::mode().name().to_owned(),
            uptime_secs: self.started.elapsed().as_secs_f64(),
            sample_seq: self.sample_seq.fetch_add(1, Ordering::Relaxed) + 1,
            stages,
            queries,
            ingest: IngestSnapshot {
                rows: self.ingest_rows.load(Ordering::Relaxed),
                batches: self.ingest_batches.load(Ordering::Relaxed),
                merges: self.ingest_merges.load(Ordering::Relaxed),
                republishes_full: self.republishes_full.load(Ordering::Relaxed),
                republishes_incremental: self.republishes_incremental.load(Ordering::Relaxed),
                republishes_clean: self.republishes_clean.load(Ordering::Relaxed),
                rescored_classes: self.rescored_classes.load(Ordering::Relaxed),
                rescored_tuples: self.rescored_tuples.load(Ordering::Relaxed),
                reused_tuples: self.reused_tuples.load(Ordering::Relaxed),
                cache_entries_migrated: self.cache_entries_migrated.load(Ordering::Relaxed),
            },
            serve: ServeSnapshot {
                connections: self.serve_connections.load(Ordering::Relaxed),
                connections_shed: self.serve_connections_shed.load(Ordering::Relaxed),
                requests: self.serve_requests.load(Ordering::Relaxed),
                load_shed: self.serve_load_shed.load(Ordering::Relaxed),
                errors: self.serve_errors.load(Ordering::Relaxed),
                sessions_created: self.serve_sessions_created.load(Ordering::Relaxed),
                sessions_expired: self.serve_sessions_expired.load(Ordering::Relaxed),
                sessions_evicted: self.serve_sessions_evicted.load(Ordering::Relaxed),
                sessions_closed: self.serve_sessions_closed.load(Ordering::Relaxed),
                endpoints,
            },
            sketch_fallbacks: self.sketch_fallbacks.load(Ordering::Relaxed),
            lsh: LshSnapshot {
                queries: self.lsh_queries.load(Ordering::Relaxed),
                candidate_pairs: self.lsh_candidate_pairs.load(Ordering::Relaxed),
            },
            cache: cache.map(|stats| CacheSnapshot {
                hits: stats.hits,
                misses: stats.misses,
                entries: stats.entries as u64,
                purges: stats.purges,
                hit_rate: stats.hit_rate(),
            }),
            resources: None,
        }
    }
}

/// The crate version baked into the binary (`CARGO_PKG_VERSION`).
pub fn build_version() -> &'static str {
    env!("CARGO_PKG_VERSION")
}

/// The stats-kernel mode ("vectorized" / "scalar") active on the calling
/// thread — surfaced so serving layers need not depend on the stats crate.
pub fn kernel_name() -> &'static str {
    foresight_stats::kernel::mode().name()
}

/// The observability-relevant cargo features this binary was compiled
/// with, in a stable order.
pub fn build_features() -> Vec<&'static str> {
    let mut v = Vec::new();
    if cfg!(feature = "telemetry") {
        v.push("telemetry");
    }
    if cfg!(feature = "trace") {
        v.push("trace");
    }
    v
}

/// One cell's plain-data summary under a stable `name` — shared by the
/// per-stage and per-endpoint sections of a snapshot.
fn cell_snapshot(name: &str, cell: &StageCell) -> StageSnapshot {
    let mut lo = LATENCY_BUCKETS;
    let mut hi = 0usize;
    let buckets: Vec<HistogramBucket> = cell
        .buckets
        .iter()
        .enumerate()
        .filter_map(|(i, b)| {
            let n = b.load(Ordering::Relaxed);
            (n > 0).then(|| {
                lo = lo.min(i);
                hi = hi.max(i);
                HistogramBucket {
                    floor_ns: bucket_floor(i),
                    count: n,
                }
            })
        })
        .collect();
    let count: u64 = buckets.iter().map(|b| b.count).sum();
    let total_ns = cell.total_ns.load(Ordering::Relaxed);
    StageSnapshot {
        stage: name.to_owned(),
        count,
        total_ns,
        // bounds from the occupied buckets (the cell itself keeps no
        // min/max — see `StageCell`)
        min_ns: if buckets.is_empty() {
            0
        } else {
            bucket_floor(lo)
        },
        max_ns: if buckets.is_empty() {
            0
        } else {
            bucket_ceil(hi)
        },
        mean_ns: total_ns.checked_div(count).unwrap_or(0),
        p50_ns: quantile_from_buckets(&buckets, count, 0.50),
        p99_ns: quantile_from_buckets(&buckets, count, 0.99),
        buckets,
    }
}

/// Estimates the `q`-quantile from the non-empty log₂ buckets: the bucket
/// holding the `ceil(q·count)`-th sample, reported at its midpoint. Also
/// used by the monitor over windowed bucket *deltas*.
pub(crate) fn quantile_from_buckets(buckets: &[HistogramBucket], count: u64, q: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    let target = ((q * count as f64).ceil() as u64).clamp(1, count);
    let mut seen = 0u64;
    for b in buckets {
        seen += b.count;
        if seen >= target {
            // midpoint of [floor, 2·floor) — or 1 for the [0, 2) bucket
            return if b.floor_ns == 0 {
                1
            } else {
                b.floor_ns + b.floor_ns / 2
            };
        }
    }
    buckets.last().map_or(0, |b| b.floor_ns)
}

/// A scoped stage timer: records the elapsed wall time into its
/// [`Metrics`] when dropped. Inert (no clock read, no recording) when
/// telemetry is compiled out or the runtime switch is off.
#[must_use = "a span records on drop; binding it to `_` drops it immediately"]
pub struct Span<'a> {
    active: Option<(&'a Metrics, Stage, u64)>,
}

impl Span<'_> {
    /// Discards the span without recording a sample (e.g. when the timed
    /// path turned out not to apply).
    pub fn cancel(mut self) {
        self.active = None;
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some((metrics, stage, start_ns)) = self.active.take() {
            metrics.stages[stage as usize].record(clock::now_ns().saturating_sub(start_ns));
        }
    }
}

/// A span over an `Option<&Metrics>` — the form the executor uses, where a
/// standalone executor may have no registry attached.
#[inline]
pub(crate) fn maybe_span<'a>(metrics: Option<&'a Metrics>, stage: Stage) -> Span<'a> {
    match metrics {
        Some(m) => m.span(stage),
        None => Span { active: None },
    }
}

/// A boundary-sharing multi-stage timer: each [`mark`](Lap::mark) records
/// the time since the previous boundary and re-arms from the *same* clock
/// read. Back-to-back stages timed with individual [`Span`]s pay two clock
/// reads per stage; a `Lap` pays one per boundary — the executor's hot
/// path (score → rank/diversify → describe) costs four reads per query
/// instead of six, which is what keeps instrumentation inside the 3%
/// overhead budget on ~10 µs warm queries.
pub struct Lap<'a> {
    metrics: Option<&'a Metrics>,
    last_ns: u64,
}

impl<'a> Lap<'a> {
    /// Starts the lap clock (one read). Inert — no clock reads, marks are
    /// no-ops — when `metrics` is absent or recording is off.
    #[inline]
    pub fn start(metrics: Option<&'a Metrics>) -> Self {
        match metrics.filter(|m| m.enabled()) {
            Some(m) => Lap {
                metrics: Some(m),
                last_ns: clock::now_ns(),
            },
            None => Lap {
                metrics: None,
                last_ns: 0,
            },
        }
    }

    /// Records the time since the previous boundary against `stage` and
    /// makes this boundary the start of the next lap.
    #[inline]
    pub fn mark(&mut self, stage: Stage) {
        if let Some(m) = self.metrics {
            let now = clock::now_ns();
            m.stages[stage as usize].record(now.saturating_sub(self.last_ns));
            self.last_ns = now;
        }
    }
}

/// One non-empty log₂ histogram bucket: `count` samples at or above
/// `floor_ns` (and below `2·floor_ns`, or 2 ns for the zero bucket).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramBucket {
    /// Inclusive lower bound of the bucket, in nanoseconds.
    pub floor_ns: u64,
    /// Samples in the bucket.
    pub count: u64,
}

/// One stage's latency summary inside a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageSnapshot {
    /// The stage's stable snake-case name (see [`Stage::name`]).
    pub stage: String,
    /// Recorded samples.
    pub count: u64,
    /// Sum of all samples, ns.
    pub total_ns: u64,
    /// Lower bound on the fastest sample — the floor of the lowest
    /// occupied histogram bucket (0 when empty).
    pub min_ns: u64,
    /// Upper bound on the slowest sample — the ceiling of the highest
    /// occupied histogram bucket (0 when empty).
    pub max_ns: u64,
    /// Arithmetic mean, ns (0 when empty).
    pub mean_ns: u64,
    /// Median estimate from the log₂ histogram, ns.
    pub p50_ns: u64,
    /// 99th-percentile estimate from the log₂ histogram, ns.
    pub p99_ns: u64,
    /// The non-empty histogram buckets, ascending.
    pub buckets: Vec<HistogramBucket>,
}

/// Query counters inside a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuerySnapshot {
    /// Queries executed (index-served included).
    pub total: u64,
    /// Queries run in exact mode.
    pub exact: u64,
    /// Queries run in approximate (sketch-backed) mode.
    pub approximate: u64,
    /// Queries answered from the prebuilt insight index.
    pub index_served: u64,
    /// Queries per insight class, sorted by class id.
    pub by_class: BTreeMap<String, u64>,
}

/// Streaming-ingest counters inside a [`MetricsSnapshot`]: how much data
/// the writer path absorbed and how much downstream work each republish
/// actually redid versus carried over.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct IngestSnapshot {
    /// Rows ingested across all appended batches.
    pub rows: u64,
    /// Row batches ingested.
    pub batches: u64,
    /// Shard-catalog merges into the global sketch catalog.
    pub merges: u64,
    /// Republishes that rebuilt the index from scratch (source replaced,
    /// registry changed, or no index was alive to refresh).
    pub republishes_full: u64,
    /// Republishes that kept the index and rescored only dirty tuples.
    pub republishes_incremental: u64,
    /// Republishes with no dirty columns at all — epoch and cache kept.
    pub republishes_clean: u64,
    /// Insight classes with at least one rescored tuple, summed over
    /// incremental republishes.
    pub rescored_classes: u64,
    /// Tuples rescored by incremental republishes.
    pub rescored_tuples: u64,
    /// Tuples whose scores were carried over by incremental republishes.
    pub reused_tuples: u64,
    /// Clean score-cache entries migrated into the new epoch instead of
    /// being purged.
    pub cache_entries_migrated: u64,
}

/// Network-serving counters inside a [`MetricsSnapshot`]: admission
/// control (connections and requests accepted versus shed), session-table
/// lifecycle, and per-endpoint latency. All zero when no `foresight-serve`
/// front end records into this registry.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ServeSnapshot {
    /// Connections accepted.
    pub connections: u64,
    /// Connections refused by the connection budget.
    pub connections_shed: u64,
    /// Requests served (successes and typed errors alike).
    pub requests: u64,
    /// Requests shed because a worker queue was full.
    pub load_shed: u64,
    /// Requests answered with a typed protocol error (sheds not included).
    pub errors: u64,
    /// Server-side sessions created.
    pub sessions_created: u64,
    /// Sessions expired by the idle TTL.
    pub sessions_expired: u64,
    /// Sessions evicted by the LRU capacity bound.
    pub sessions_evicted: u64,
    /// Sessions closed explicitly by their clients (`default` so payloads
    /// from builds predating the monitor still parse).
    #[serde(default)]
    pub sessions_closed: u64,
    /// Per-endpoint latency summaries, in [`Endpoint::ALL`] order (every
    /// endpoint present, sampled or not; empty only in payloads written by
    /// builds predating the serving front end).
    #[serde(default)]
    pub endpoints: Vec<StageSnapshot>,
}

impl ServeSnapshot {
    /// Sessions currently alive in the server's table: created minus every
    /// way a session leaves (explicit close, TTL expiry, LRU eviction).
    pub fn sessions_live(&self) -> u64 {
        self.sessions_created
            .saturating_sub(self.sessions_closed + self.sessions_expired + self.sessions_evicted)
    }
}

/// LSH candidate-generation counters inside a [`MetricsSnapshot`]: how
/// many queries drew their candidate pairs from bucket collisions instead
/// of the quadratic scan, and how many collision pairs those walks
/// produced. All zero when no LSH index exists or every query resolved to
/// the exhaustive scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct LshSnapshot {
    /// Queries whose candidates came from LSH bucket collisions.
    pub queries: u64,
    /// Total collision pairs generated across those queries.
    pub candidate_pairs: u64,
}

/// Approximate resident memory of the core's long-lived structures, in
/// bytes, plus the live session count — the gauges an operator watches for
/// slow leaks. Estimates, not allocator truth: each structure reports its
/// dominant arrays/maps and ignores per-allocation slack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ResourceSnapshot {
    /// Sketch catalog (all per-column sketches + accumulators).
    pub catalog_bytes: u64,
    /// Score cache (keyed scores + detail strings).
    pub cache_bytes: u64,
    /// The snapshot's prepared columns (centred values / centred ranks of
    /// the numeric columns exact batch scoring has asked for). Defaults on
    /// deserialize so snapshots from older peers still parse.
    #[serde(default)]
    pub prepared_bytes: u64,
    /// LSH candidate index (bucket tables + key cache), 0 when absent.
    pub lsh_bytes: u64,
    /// Trace ring + slow-query log (capacity-based estimate).
    pub trace_bytes: u64,
    /// Server session table (live sessions × per-entry estimate), 0 when
    /// no serving front end is attached.
    pub session_table_bytes: u64,
    /// Live server-side sessions (created − closed − expired − evicted).
    pub sessions_live: u64,
}

/// Score-cache traffic inside a [`MetricsSnapshot`], folded in from
/// [`CacheStats`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheSnapshot {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to scoring.
    pub misses: u64,
    /// Entries currently cached.
    pub entries: u64,
    /// Entries retired by epoch bumps.
    pub purges: u64,
    /// `hits / (hits + misses)`, 0 when no lookups happened.
    pub hit_rate: f64,
}

/// A point-in-time, plain-data view of a [`Metrics`] registry.
///
/// Renderings are deterministic in *structure*: stages always appear, in
/// [`Stage::ALL`] order, the class map is sorted, and field order is
/// fixed — so two snapshots of identical state render identically, and
/// diffs against a previous run line up.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Whether this build carries the `telemetry` feature at all.
    pub telemetry_compiled: bool,
    /// Whether recording was active when the snapshot was taken.
    pub telemetry_enabled: bool,
    /// Stats-kernel mode (`vectorized` / `scalar`) on the snapshotting
    /// thread — the implementation serving this core's scoring passes.
    pub kernel: String,
    /// Seconds since the registry was created (effectively process uptime;
    /// `default` so payloads from older builds still parse). Monotonic
    /// across [`Metrics::reset`].
    #[serde(default)]
    pub uptime_secs: f64,
    /// Monotonic capture sequence number (1 for the registry's first
    /// snapshot; survives `reset`, so deltas between two snapshots are
    /// well-defined: higher seq is strictly later).
    #[serde(default)]
    pub sample_seq: u64,
    /// Per-stage latency summaries, in [`Stage::ALL`] order (every stage
    /// present, sampled or not).
    pub stages: Vec<StageSnapshot>,
    /// Query counters.
    pub queries: QuerySnapshot,
    /// Streaming-ingest counters (all zero for a batch-built core).
    pub ingest: IngestSnapshot,
    /// Network-serving counters (all zero without a serving front end;
    /// `default` so payloads from older builds still parse).
    #[serde(default)]
    pub serve: ServeSnapshot,
    /// Approximate-mode scorings that fell back to the exact path.
    pub sketch_fallbacks: u64,
    /// LSH candidate-generation counters (`default` so payloads from
    /// builds predating the index still parse).
    #[serde(default)]
    pub lsh: LshSnapshot,
    /// Score-cache traffic, when the snapshot came from an engine core.
    pub cache: Option<CacheSnapshot>,
    /// Approximate resident-memory gauges, filled in when the snapshot
    /// came from an engine core (`default` so older payloads parse).
    #[serde(default)]
    pub resources: Option<ResourceSnapshot>,
}

impl MetricsSnapshot {
    /// The summary for one stage, by its stable name.
    pub fn stage(&self, name: &str) -> Option<&StageSnapshot> {
        self.stages.iter().find(|s| s.stage == name)
    }

    /// Deterministic pretty-printed JSON rendering.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot serializes")
    }

    /// Deterministic fixed-width text rendering (the explorer's `metrics`
    /// command).
    pub fn to_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let state = match (self.telemetry_compiled, self.telemetry_enabled) {
            (false, _) => "compiled out (build with --features telemetry)",
            (true, false) => "compiled in, runtime-disabled",
            (true, true) => "recording",
        };
        let _ = writeln!(out, "telemetry: {state}");
        let _ = writeln!(out, "kernel: {}", self.kernel);
        let _ = writeln!(
            out,
            "uptime: {:.1} s (sample {})",
            self.uptime_secs, self.sample_seq
        );
        let _ = writeln!(
            out,
            "\n{:<14} {:>8} {:>12} {:>10} {:>10} {:>10} {:>12}",
            "stage", "count", "total_ms", "mean_us", "p50_us", "p99_us", "max_us"
        );
        for s in &self.stages {
            let _ = writeln!(
                out,
                "{:<14} {:>8} {:>12.3} {:>10.1} {:>10.1} {:>10.1} {:>12.1}",
                s.stage,
                s.count,
                s.total_ns as f64 / 1e6,
                s.mean_ns as f64 / 1e3,
                s.p50_ns as f64 / 1e3,
                s.p99_ns as f64 / 1e3,
                s.max_ns as f64 / 1e3,
            );
        }
        let q = &self.queries;
        let _ = writeln!(
            out,
            "\nqueries: {} total ({} exact, {} approximate, {} index-served)",
            q.total, q.exact, q.approximate, q.index_served
        );
        for (class, n) in &q.by_class {
            let _ = writeln!(out, "  {class:<28} {n:>8}");
        }
        let _ = writeln!(out, "sketch fallbacks to exact: {}", self.sketch_fallbacks);
        if self.lsh.queries > 0 {
            let _ = writeln!(
                out,
                "lsh candidates: {} queries from bucket collisions, {} collision pairs",
                self.lsh.queries, self.lsh.candidate_pairs
            );
        }
        let ing = &self.ingest;
        if ing.batches > 0 {
            let _ = writeln!(
                out,
                "ingest: {} rows in {} batches, {} sketch merges; republishes: {} full, {} incremental, {} clean",
                ing.rows,
                ing.batches,
                ing.merges,
                ing.republishes_full,
                ing.republishes_incremental,
                ing.republishes_clean,
            );
            let _ = writeln!(
                out,
                "  incremental refresh: {} classes / {} tuples rescored, {} tuples reused, {} cache entries migrated",
                ing.rescored_classes,
                ing.rescored_tuples,
                ing.reused_tuples,
                ing.cache_entries_migrated,
            );
        }
        let sv = &self.serve;
        if sv.connections + sv.connections_shed + sv.requests + sv.load_shed > 0 {
            let _ = writeln!(
                out,
                "serve: {} connections accepted, {} connections shed; {} requests ({} load-shed, {} errors)",
                sv.connections, sv.connections_shed, sv.requests, sv.load_shed, sv.errors,
            );
            let _ = writeln!(
                out,
                "  sessions: {} created, {} closed, {} expired (ttl), {} evicted (lru); {} live",
                sv.sessions_created,
                sv.sessions_closed,
                sv.sessions_expired,
                sv.sessions_evicted,
                sv.sessions_live(),
            );
            if sv.endpoints.iter().any(|e| e.count > 0) {
                let _ = writeln!(
                    out,
                    "{:<14} {:>8} {:>12} {:>10} {:>10} {:>10} {:>12}",
                    "  endpoint", "count", "total_ms", "mean_us", "p50_us", "p99_us", "max_us"
                );
                for e in sv.endpoints.iter().filter(|e| e.count > 0) {
                    let _ = writeln!(
                        out,
                        "  {:<12} {:>8} {:>12.3} {:>10.1} {:>10.1} {:>10.1} {:>12.1}",
                        e.stage,
                        e.count,
                        e.total_ns as f64 / 1e6,
                        e.mean_ns as f64 / 1e3,
                        e.p50_ns as f64 / 1e3,
                        e.p99_ns as f64 / 1e3,
                        e.max_ns as f64 / 1e3,
                    );
                }
            }
        }
        if let Some(c) = &self.cache {
            let _ = writeln!(
                out,
                "cache: {} hits / {} misses ({:.1}% hit rate), {} entries, {} purged",
                c.hits,
                c.misses,
                c.hit_rate * 100.0,
                c.entries,
                c.purges
            );
        }
        if let Some(r) = &self.resources {
            let _ = writeln!(
                out,
                "resources: catalog {} KiB, cache {} KiB, prepared {} KiB, lsh {} KiB, traces {} KiB, sessions {} ({} KiB)",
                r.catalog_bytes / 1024,
                r.cache_bytes / 1024,
                r.prepared_bytes / 1024,
                r.lsh_bytes / 1024,
                r.trace_bytes / 1024,
                r.sessions_live,
                r.session_table_bytes / 1024,
            );
        }
        out
    }

    /// Prometheus text exposition (format 0.0.4) of the whole snapshot:
    /// every counter and histogram above, plus the resource gauges and a
    /// `foresight_build_info` constant. Every family carries `# HELP` and
    /// `# TYPE` lines; latencies stay in integer nanoseconds (`le` bounds
    /// are the log₂ bucket ceilings) rather than lossy float seconds.
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write;
        let mut o = String::new();
        let meta = |o: &mut String, name: &str, help: &str, ty: &str| {
            let _ = writeln!(o, "# HELP {name} {help}");
            let _ = writeln!(o, "# TYPE {name} {ty}");
        };
        let counter = |o: &mut String, name: &str, help: &str, v: u64| {
            meta(o, name, help, "counter");
            let _ = writeln!(o, "{name} {v}");
        };
        let gauge_f = |o: &mut String, name: &str, help: &str, v: f64| {
            meta(o, name, help, "gauge");
            let _ = writeln!(o, "{name} {v}");
        };
        let gauge = |o: &mut String, name: &str, help: &str, v: u64| {
            meta(o, name, help, "gauge");
            let _ = writeln!(o, "{name} {v}");
        };

        // build info first: one constant-1 gauge carrying the labels a
        // scraper joins on
        meta(
            &mut o,
            "foresight_build_info",
            "Build metadata: crate version, stats-kernel mode, compiled features.",
            "gauge",
        );
        let _ = writeln!(
            o,
            "foresight_build_info{{version=\"{}\",kernel=\"{}\",features=\"{}\"}} 1",
            prom_escape(build_version()),
            prom_escape(&self.kernel),
            prom_escape(&build_features().join(",")),
        );
        gauge_f(
            &mut o,
            "foresight_uptime_seconds",
            "Seconds since the metrics registry was created.",
            self.uptime_secs,
        );
        gauge(
            &mut o,
            "foresight_metrics_sample_seq",
            "Monotonic snapshot sequence number (survives resets).",
            self.sample_seq,
        );
        gauge(
            &mut o,
            "foresight_telemetry_enabled",
            "1 when latency recording is compiled in and switched on.",
            u64::from(self.telemetry_compiled && self.telemetry_enabled),
        );

        histogram_family(
            &mut o,
            "foresight_stage_duration_ns",
            "Per-stage latency histogram of the query path, nanoseconds.",
            "stage",
            &self.stages,
        );
        histogram_family(
            &mut o,
            "foresight_endpoint_duration_ns",
            "Per-endpoint request latency histogram of the network front end, nanoseconds.",
            "endpoint",
            &self.serve.endpoints,
        );

        let q = &self.queries;
        counter(
            &mut o,
            "foresight_queries_total",
            "Queries executed.",
            q.total,
        );
        counter(
            &mut o,
            "foresight_queries_exact_total",
            "Queries run in exact mode.",
            q.exact,
        );
        counter(
            &mut o,
            "foresight_queries_approximate_total",
            "Queries run in approximate (sketch-backed) mode.",
            q.approximate,
        );
        counter(
            &mut o,
            "foresight_queries_index_served_total",
            "Queries answered from the prebuilt insight index.",
            q.index_served,
        );
        // declared only when populated: a family with HELP/TYPE but no
        // samples is legal yet trips strict scrapers' lint rules
        if !q.by_class.is_empty() {
            meta(
                &mut o,
                "foresight_queries_by_class_total",
                "Queries per insight class.",
                "counter",
            );
            for (class, n) in &q.by_class {
                let _ = writeln!(
                    o,
                    "foresight_queries_by_class_total{{class=\"{}\"}} {n}",
                    prom_escape(class)
                );
            }
        }
        counter(
            &mut o,
            "foresight_sketch_fallbacks_total",
            "Approximate-mode scorings that fell back to the exact path.",
            self.sketch_fallbacks,
        );
        counter(
            &mut o,
            "foresight_lsh_queries_total",
            "Queries whose candidates came from LSH bucket collisions.",
            self.lsh.queries,
        );
        counter(
            &mut o,
            "foresight_lsh_candidate_pairs_total",
            "Collision pairs generated across LSH-served queries.",
            self.lsh.candidate_pairs,
        );

        let ing = &self.ingest;
        counter(
            &mut o,
            "foresight_ingest_rows_total",
            "Rows ingested.",
            ing.rows,
        );
        counter(
            &mut o,
            "foresight_ingest_batches_total",
            "Row batches ingested.",
            ing.batches,
        );
        counter(
            &mut o,
            "foresight_ingest_merges_total",
            "Shard-catalog merges into the global sketch catalog.",
            ing.merges,
        );
        meta(
            &mut o,
            "foresight_republishes_total",
            "Snapshot republishes by kind (full rebuild, incremental, clean).",
            "counter",
        );
        for (kind, n) in [
            ("full", ing.republishes_full),
            ("incremental", ing.republishes_incremental),
            ("clean", ing.republishes_clean),
        ] {
            let _ = writeln!(o, "foresight_republishes_total{{kind=\"{kind}\"}} {n}");
        }
        counter(
            &mut o,
            "foresight_rescored_classes_total",
            "Classes with rescored tuples across incremental republishes.",
            ing.rescored_classes,
        );
        counter(
            &mut o,
            "foresight_rescored_tuples_total",
            "Tuples rescored by incremental republishes.",
            ing.rescored_tuples,
        );
        counter(
            &mut o,
            "foresight_reused_tuples_total",
            "Tuples carried over by incremental republishes.",
            ing.reused_tuples,
        );
        counter(
            &mut o,
            "foresight_cache_entries_migrated_total",
            "Clean score-cache entries migrated into a new epoch.",
            ing.cache_entries_migrated,
        );

        let sv = &self.serve;
        counter(
            &mut o,
            "foresight_serve_connections_total",
            "Network connections accepted.",
            sv.connections,
        );
        counter(
            &mut o,
            "foresight_serve_connections_shed_total",
            "Connections refused by the connection budget.",
            sv.connections_shed,
        );
        counter(
            &mut o,
            "foresight_serve_requests_total",
            "Requests served.",
            sv.requests,
        );
        counter(
            &mut o,
            "foresight_serve_load_shed_total",
            "Requests shed because a worker queue was full.",
            sv.load_shed,
        );
        counter(
            &mut o,
            "foresight_serve_errors_total",
            "Requests answered with a typed protocol error.",
            sv.errors,
        );
        counter(
            &mut o,
            "foresight_serve_sessions_created_total",
            "Server-side sessions created.",
            sv.sessions_created,
        );
        counter(
            &mut o,
            "foresight_serve_sessions_expired_total",
            "Sessions expired by the idle TTL.",
            sv.sessions_expired,
        );
        counter(
            &mut o,
            "foresight_serve_sessions_evicted_total",
            "Sessions evicted by the LRU capacity bound.",
            sv.sessions_evicted,
        );
        counter(
            &mut o,
            "foresight_serve_sessions_closed_total",
            "Sessions closed explicitly by their clients.",
            sv.sessions_closed,
        );
        gauge(
            &mut o,
            "foresight_serve_sessions_live",
            "Sessions currently alive in the server's table.",
            sv.sessions_live(),
        );

        if let Some(c) = &self.cache {
            counter(
                &mut o,
                "foresight_cache_hits_total",
                "Score-cache hits.",
                c.hits,
            );
            counter(
                &mut o,
                "foresight_cache_misses_total",
                "Score-cache misses.",
                c.misses,
            );
            counter(
                &mut o,
                "foresight_cache_purges_total",
                "Score-cache entries retired by epoch bumps.",
                c.purges,
            );
            gauge(
                &mut o,
                "foresight_cache_entries",
                "Score-cache entries resident.",
                c.entries,
            );
            gauge_f(
                &mut o,
                "foresight_cache_hit_rate",
                "Score-cache hit rate (0 when no lookups happened).",
                c.hit_rate,
            );
        }
        if let Some(r) = &self.resources {
            meta(
                &mut o,
                "foresight_resident_bytes",
                "Approximate resident bytes per long-lived structure.",
                "gauge",
            );
            for (component, bytes) in [
                ("catalog", r.catalog_bytes),
                ("score_cache", r.cache_bytes),
                ("prepared_columns", r.prepared_bytes),
                ("lsh_index", r.lsh_bytes),
                ("trace_ring", r.trace_bytes),
                ("session_table", r.session_table_bytes),
            ] {
                let _ = writeln!(
                    o,
                    "foresight_resident_bytes{{component=\"{component}\"}} {bytes}"
                );
            }
            gauge(
                &mut o,
                "foresight_sessions_live",
                "Live server-side sessions (resource-gauge view).",
                r.sessions_live,
            );
        }
        o
    }
}

/// Escapes a Prometheus label value (backslash, double quote, newline).
fn prom_escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Writes one labelled histogram family — cumulative `_bucket` series with
/// log₂ ceilings as `le` bounds, `_sum`, `_count` — plus companion gauges
/// for the summary statistics the JSON snapshot carries (min/max/mean and
/// the histogram-estimated p50/p99), so no JSON field is invisible to a
/// scraper.
fn histogram_family(o: &mut String, name: &str, help: &str, label: &str, cells: &[StageSnapshot]) {
    use std::fmt::Write;
    let _ = writeln!(o, "# HELP {name} {help}");
    let _ = writeln!(o, "# TYPE {name} histogram");
    for c in cells {
        let v = prom_escape(&c.stage);
        let mut cum = 0u64;
        for b in &c.buckets {
            cum += b.count;
            // bucket [floor, 2*floor) has inclusive ceiling 2*floor - 1
            let le = if b.floor_ns == 0 {
                1
            } else {
                b.floor_ns * 2 - 1
            };
            let _ = writeln!(o, "{name}_bucket{{{label}=\"{v}\",le=\"{le}\"}} {cum}");
        }
        let _ = writeln!(o, "{name}_bucket{{{label}=\"{v}\",le=\"+Inf\"}} {cum}");
        let _ = writeln!(o, "{name}_sum{{{label}=\"{v}\"}} {}", c.total_ns);
        let _ = writeln!(o, "{name}_count{{{label}=\"{v}\"}} {}", c.count);
    }
    for (suffix, help, pick) in [
        (
            "min_ns",
            "Floor of the lowest occupied latency bucket.",
            0usize,
        ),
        (
            "max_ns",
            "Ceiling of the highest occupied latency bucket.",
            1,
        ),
        ("mean_ns", "Arithmetic-mean latency.", 2),
        ("p50_ns", "Histogram-estimated median latency.", 3),
        ("p99_ns", "Histogram-estimated 99th-percentile latency.", 4),
    ] {
        let fam = format!("{name}_{suffix}");
        let _ = writeln!(o, "# HELP {fam} {help}");
        let _ = writeln!(o, "# TYPE {fam} gauge");
        for c in cells {
            let v = prom_escape(&c.stage);
            let x = [c.min_ns, c.max_ns, c.mean_ns, c.p50_ns, c.p99_ns][pick];
            let _ = writeln!(o, "{fam}{{{label}=\"{v}\"}} {x}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_indexing_is_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(1023), 9);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), LATENCY_BUCKETS - 1);
        for i in 0..LATENCY_BUCKETS {
            assert_eq!(bucket_index(bucket_floor(i).max(1)), i);
        }
    }

    #[test]
    fn spans_record_when_enabled() {
        let m = Metrics::new();
        {
            let _span = m.span(Stage::Score);
            std::hint::black_box(1 + 1);
        }
        m.record_ns(Stage::Rank, 1000);
        let snap = m.snapshot();
        if cfg!(feature = "telemetry") {
            assert_eq!(snap.stage("score").unwrap().count, 1);
            let rank = snap.stage("rank").unwrap();
            assert_eq!(rank.count, 1);
            assert_eq!(rank.total_ns, 1000);
            // min/max are histogram-bucket bounds: 1000 ns ∈ [512, 1024)
            assert_eq!(rank.min_ns, 512);
            assert_eq!(rank.max_ns, 1023);
            assert_eq!(
                rank.buckets,
                vec![HistogramBucket {
                    floor_ns: 512,
                    count: 1
                }]
            );
        } else {
            assert!(snap.stages.iter().all(|s| s.count == 0));
        }
    }

    #[test]
    fn runtime_switch_stops_recording() {
        let m = Metrics::new();
        m.set_enabled(false);
        {
            let _span = m.span(Stage::Score);
        }
        m.record_ns(Stage::Score, 5);
        m.record_query("skew", Mode::Exact, false);
        m.record_sketch_fallback();
        let snap = m.snapshot();
        assert!(snap.stages.iter().all(|s| s.count == 0));
        assert_eq!(snap.queries.total, 0);
        assert_eq!(snap.sketch_fallbacks, 0);
    }

    #[test]
    fn query_counters_split_by_mode_and_class() {
        let m = Metrics::new();
        m.record_query("skew", Mode::Exact, false);
        m.record_query("skew", Mode::Approximate, true);
        m.record_query("dispersion", Mode::Approximate, false);
        let snap = m.snapshot();
        if cfg!(feature = "telemetry") {
            assert_eq!(snap.queries.total, 3);
            assert_eq!(snap.queries.exact, 1);
            assert_eq!(snap.queries.approximate, 2);
            assert_eq!(snap.queries.index_served, 1);
            assert_eq!(snap.queries.by_class["skew"], 2);
            assert_eq!(snap.queries.by_class["dispersion"], 1);
        } else {
            assert_eq!(snap.queries.total, 0);
        }
    }

    #[test]
    fn lap_records_each_boundary() {
        let m = Metrics::new();
        let mut lap = Lap::start(Some(&m));
        std::hint::black_box(1 + 1);
        lap.mark(Stage::Score);
        lap.mark(Stage::Rank);
        let snap = m.snapshot();
        if cfg!(feature = "telemetry") {
            assert_eq!(snap.stage("score").unwrap().count, 1);
            assert_eq!(snap.stage("rank").unwrap().count, 1);
        } else {
            assert!(snap.stages.iter().all(|s| s.count == 0));
        }
        // inert with no registry attached
        let mut none = Lap::start(None);
        none.mark(Stage::Score);
        assert_eq!(
            m.snapshot().stage("score").unwrap().count,
            snap.stage("score").unwrap().count
        );
    }

    #[test]
    fn snapshot_always_lists_every_stage_in_order() {
        let snap = Metrics::new().snapshot();
        let names: Vec<&str> = snap.stages.iter().map(|s| s.stage.as_str()).collect();
        let expected: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names, expected);
    }

    #[test]
    fn renderings_are_deterministic() {
        let m = Metrics::new();
        m.record_ns(Stage::Score, 1500);
        m.record_ns(Stage::Score, 1700);
        m.record_query("skew", Mode::Exact, false);
        let a = m.snapshot();
        let mut b = m.snapshot();
        // capture metadata advances monotonically between snapshots …
        assert_eq!(b.sample_seq, a.sample_seq + 1);
        assert!(b.uptime_secs >= a.uptime_secs);
        // … and is the only thing that differs for identical state
        b.sample_seq = a.sample_seq;
        b.uptime_secs = a.uptime_secs;
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.to_text(), b.to_text());
        assert_eq!(a.to_prometheus(), b.to_prometheus());
        // and the JSON round-trips
        let back: MetricsSnapshot = serde_json::from_str(&a.to_json()).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn quantiles_track_the_histogram() {
        let m = Metrics::new();
        for _ in 0..99 {
            m.record_ns(Stage::Score, 1000); // bucket [512, 1024)
        }
        m.record_ns(Stage::Score, 1 << 20); // one outlier
        let snap = m.snapshot();
        if cfg!(feature = "telemetry") {
            let s = snap.stage("score").unwrap();
            assert_eq!(s.p50_ns, 512 + 256, "median sits in the common bucket");
            assert!(s.p99_ns <= 1 << 10);
            assert!(s.max_ns >= 1 << 20);
        }
    }

    #[test]
    fn reset_zeroes_everything() {
        let m = Metrics::new();
        m.record_ns(Stage::Score, 42);
        m.record_query("skew", Mode::Exact, false);
        m.record_sketch_fallback();
        m.record_ingest_batch(100);
        m.record_republish_incremental(2, 10, 50, 7);
        m.reset();
        let snap = m.snapshot();
        assert!(snap.stages.iter().all(|s| s.count == 0));
        assert_eq!(snap.queries.total, 0);
        assert!(snap.queries.by_class.is_empty());
        assert_eq!(snap.sketch_fallbacks, 0);
        assert_eq!(snap.ingest, IngestSnapshot::default());
    }

    #[test]
    fn serve_counters_are_always_on_and_reset() {
        let m = Metrics::new();
        m.record_connection();
        m.record_connection_shed();
        m.record_request(Endpoint::Query, 2000);
        m.record_load_shed();
        m.record_serve_error();
        m.record_session_created();
        m.record_session_created();
        m.record_session_expired();
        m.record_session_evicted();
        m.record_session_closed();
        let snap = m.snapshot();
        // counters flow regardless of the telemetry feature
        assert_eq!(snap.serve.connections, 1);
        assert_eq!(snap.serve.connections_shed, 1);
        assert_eq!(snap.serve.requests, 1);
        assert_eq!(snap.serve.load_shed, 1);
        assert_eq!(snap.serve.errors, 1);
        assert_eq!(snap.serve.sessions_created, 2);
        assert_eq!(snap.serve.sessions_expired, 1);
        assert_eq!(snap.serve.sessions_evicted, 1);
        assert_eq!(snap.serve.sessions_closed, 1);
        // 2 created − (1 closed + 1 expired + 1 evicted) saturates to 0
        assert_eq!(snap.serve.sessions_live(), 0);
        // the endpoint histogram is feature-gated like the stage cells
        let names: Vec<&str> = snap
            .serve
            .endpoints
            .iter()
            .map(|e| e.stage.as_str())
            .collect();
        let expected: Vec<&str> = Endpoint::ALL.iter().map(|e| e.name()).collect();
        assert_eq!(names, expected);
        let query = snap
            .serve
            .endpoints
            .iter()
            .find(|e| e.stage == "query")
            .unwrap();
        assert_eq!(query.count > 0, cfg!(feature = "telemetry"));
        let text = snap.to_text();
        assert!(text.contains("serve: 1 connections accepted"));
        assert!(text
            .contains("sessions: 2 created, 1 closed, 1 expired (ttl), 1 evicted (lru); 0 live"));
        m.reset();
        let clean = m.snapshot().serve;
        assert_eq!(clean.connections + clean.requests + clean.load_shed, 0);
        assert!(clean.endpoints.iter().all(|e| e.count == 0));
        // a quiet registry prints no serve section at all
        assert!(!m.snapshot().to_text().contains("serve:"));
    }

    #[test]
    fn ingest_counters_accumulate_and_render() {
        let m = Metrics::new();
        m.record_ingest_batch(100);
        m.record_ingest_batch(28);
        m.record_ingest_merge();
        m.record_republish_full();
        m.record_republish_clean();
        m.record_republish_incremental(2, 10, 50, 7);
        let snap = m.snapshot();
        if cfg!(feature = "telemetry") {
            assert_eq!(snap.ingest.rows, 128);
            assert_eq!(snap.ingest.batches, 2);
            assert_eq!(snap.ingest.merges, 1);
            assert_eq!(snap.ingest.republishes_full, 1);
            assert_eq!(snap.ingest.republishes_incremental, 1);
            assert_eq!(snap.ingest.republishes_clean, 1);
            assert_eq!(snap.ingest.rescored_classes, 2);
            assert_eq!(snap.ingest.rescored_tuples, 10);
            assert_eq!(snap.ingest.reused_tuples, 50);
            assert_eq!(snap.ingest.cache_entries_migrated, 7);
            assert!(snap.to_text().contains("ingest: 128 rows in 2 batches"));
        } else {
            assert_eq!(snap.ingest, IngestSnapshot::default());
        }
    }
}
