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
//! * one array of monotonic [`Counter`]s (queries by mode, sketch
//!   fallbacks, LSH candidates, ingest and republish work, serve
//!   admission and session lifecycle) plus per-class query counts;
//! * cache traffic, folded in from the [`ScoreCache`](crate::ScoreCache)'s
//!   own counters at snapshot time.
//!
//! Every query-path stage (score, rank, diversify, describe, index serve)
//! is timed by the query's request-scoped `trace::Recorder`: one clock
//! reading closes a step, records its stage sample here, and — when the
//! query is traced — closes the same step's trace node. Whole operations
//! outside the query path (preprocess, sketch builds, freeze, carousels,
//! profiles) use a scoped guard:
//!
//! ```
//! use foresight_engine::telemetry::{Metrics, Stage};
//! let metrics = Metrics::new();
//! {
//!     let _span = metrics.span(Stage::Preprocess);
//!     // ... the instrumented stage ...
//! } // recorded on drop
//! let snap = metrics.snapshot();
//! assert_eq!(snap.stage("preprocess").unwrap().count, 1);
//! ```
//!
//! # One schema
//!
//! Every scalar series a snapshot carries is one row of [`SCHEMA`]: its
//! Prometheus name, help, kind and label, its `to_text` label, and an
//! accessor into [`MetricsSnapshot`]. [`Metrics::snapshot`] fills the
//! counter-fed fields through the rows, and [`MetricsSnapshot::to_text`],
//! [`MetricsSnapshot::to_prometheus`] and the monitor's discontinuity check
//! walk the same rows — so a new counter is one [`Counter`] variant, one
//! row and its snapshot field.
//!
//! Snapshots are plain data with *deterministic* JSON and text renderings:
//! fixed stage order, sorted class maps, stable field order — diffable
//! across runs even though the timing values themselves naturally vary.

use crate::cache::CacheStats;
use crate::executor::Mode;
use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};

/// The span clock. `Instant::now` costs tens of nanoseconds when
/// `clock_gettime` leaves the vDSO (typical under VM hypervisors), a
/// visible share of a ~10 µs warm query that crosses several span
/// boundaries. On x86_64 we read the invariant TSC
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

/// Declares a fieldless enum of reported cells: its variants, in reporting
/// order, as `ALL`, and each one's stable snake-case `name`.
macro_rules! cells {
    ($(#[$doc:meta])* pub enum $ty:ident {
        $($(#[$vdoc:meta])* $variant:ident = $name:literal,)*
    }) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum $ty {
            $($(#[$vdoc])* $variant,)*
        }

        impl $ty {
            /// Every variant, in reporting order.
            pub const ALL: [$ty; [$($ty::$variant),*].len()] = [$($ty::$variant),*];

            /// The stable snake-case name used in snapshots and JSON.
            pub fn name(self) -> &'static str {
                match self {
                    $($ty::$variant => $name,)*
                }
            }
        }
    };
}

cells! {
/// The instrumented stages of the query path, in the fixed order every
/// snapshot reports them.
pub enum Stage {
    /// [`CoreBuilder::preprocess`](crate::CoreBuilder::preprocess) — the
    /// paper's preprocessing phase end to end.
    Preprocess = "preprocess",
    /// Building a sketch catalog (whole-table or one shard).
    SketchBuild = "sketch_build",
    /// Merging a shard catalog into the global one.
    SketchMerge = "sketch_merge",
    /// Completing every class's rank order at freeze, once
    /// [`CoreBuilder::build_index`](crate::CoreBuilder::build_index) asked
    /// for them.
    IndexBuild = "index_build",
    /// Completing the rank orders at an incremental republish (rescoring
    /// only tuples that touch dirty columns).
    IndexRefresh = "index_refresh",
    /// Walking a precomputed rank order instead of scoring a query.
    IndexServe = "index_serve",
    /// Building or incrementally refreshing the LSH candidate index.
    LshBuild = "lsh_build",
    /// Candidate scoring (cache lookups + exact/sketch metric evaluation).
    Score = "score",
    /// Top-k selection (quickselect + prefix sort).
    Rank = "rank",
    /// Maximal-marginal-relevance diversification.
    Diversify = "diversify",
    /// Rendering winning instances (describe memo + instance assembly).
    Describe = "describe",
    /// Assembling one class's carousel.
    Carousel = "carousel",
    /// Dataset profiling.
    Profile = "profile",
    /// [`CoreBuilder::freeze`](crate::CoreBuilder::freeze) — publishing a
    /// snapshot.
    Freeze = "freeze",
}
}

cells! {
/// The network-serving endpoints instrumented by `foresight-serve`, in the
/// fixed order every snapshot reports them. Wire commands are bucketed
/// into a handful of endpoint families so the per-endpoint histograms stay
/// small and the report readable.
pub enum Endpoint {
    /// `hello` — the connection handshake (server/dataset info).
    Hello = "hello",
    /// Session lifecycle: open, close, save, checked restore, set-mode.
    Session = "session",
    /// `query` — an insight query against the session's snapshot.
    Query = "query",
    /// `explain` — a query with a forced trace.
    Explain = "explain",
    /// `carousels` — full carousel assembly.
    Carousels = "carousels",
    /// Focus-set edits: focus, unfocus, clear.
    Focus = "focus",
    /// `profile` — dataset profiling.
    Profile = "profile",
    /// Introspection: metrics and the slow-query log.
    Metrics = "metrics",
    /// Stream position: refresh and staleness readings.
    Stream = "stream",
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

/// One stage's latency accumulator: total time plus the log₂ histogram.
/// Padded to a cache line — like the score cache's counters — so
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

/// The registry's monotonic counters, one slot each in [`Metrics`]. Each
/// variant feeds exactly one [`SCHEMA`] row, which names the snapshot
/// field it fills.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Counter {
    /// Queries executed (index-served included).
    QueriesTotal,
    /// Queries run in exact mode.
    QueriesExact,
    /// Queries run in approximate (sketch-backed) mode.
    QueriesApproximate,
    /// Queries that walked a precomputed rank order instead of scoring.
    QueriesIndexServed,
    /// Approximate-mode scorings that fell back to the exact path because
    /// the class has no sketch estimator (one event per candidate tuple).
    SketchFallbacks,
    /// Queries whose candidate lists came from LSH bucket collisions.
    LshQueries,
    /// Collision pairs those LSH-served queries generated.
    LshCandidatePairs,
    /// Rows ingested across all appended batches.
    IngestRows,
    /// Row batches ingested.
    IngestBatches,
    /// Shard-catalog merges into the global sketch catalog.
    IngestMerges,
    /// Republishes that minted a clean cache epoch.
    RepublishesFull,
    /// Republishes that carried clean plane scores into a new epoch.
    RepublishesIncremental,
    /// Republishes with no dirty columns at all.
    RepublishesClean,
    /// Classes with rescored tuples across incremental republishes.
    RescoredClasses,
    /// Tuples rescored by incremental republishes.
    RescoredTuples,
    /// Tuples whose migrated scores answered incremental republishes.
    ReusedTuples,
    /// Partial-plane scores carried into a new epoch.
    CacheEntriesMigrated,
    /// Network connections accepted.
    Connections,
    /// Connections refused by the connection budget.
    ConnectionsShed,
    /// Requests served (successes and typed errors alike).
    Requests,
    /// Requests shed because a worker queue was full.
    LoadShed,
    /// Requests answered with a typed protocol error (sheds not included).
    Errors,
    /// Server-side sessions created.
    SessionsCreated,
    /// Sessions expired by the idle TTL.
    SessionsExpired,
    /// Sessions evicted by the LRU capacity bound.
    SessionsEvicted,
    /// Sessions closed explicitly by their clients.
    SessionsClosed,
}

impl Counter {
    /// Number of counters (the registry's array length).
    pub const COUNT: usize = Counter::SessionsClosed as usize + 1;
}

/// The engine's metrics registry: per-stage latency histograms plus query
/// and approximation counters. Owned (behind an `Arc`) by the
/// [`EngineCore`](crate::EngineCore) and shared — like the score cache —
/// by every snapshot the writer path republishes, so a core's history
/// survives `preprocess`/`append_shard`/`freeze` cycles.
///
/// All recording is wait-free: relaxed atomics, plus a read lock on the
/// by-class map on the warm path.
pub struct Metrics {
    stages: [StageCell; Stage::ALL.len()],
    /// Per-endpoint latency histograms for the network front end.
    endpoints: [StageCell; Endpoint::ALL.len()],
    counters: [AtomicU64; Counter::COUNT],
    /// Per-class query counts. First query of a class takes the write
    /// lock once to insert; every later count is a read lock + relaxed add.
    queries_by_class: RwLock<BTreeMap<String, AtomicU64>>,
    /// Registry birth time — snapshots report their age against it so two
    /// snapshots can be ordered and rated. The registry is created with the
    /// first core and shared across republishes, so this is effectively
    /// process uptime. Deliberately not reset by [`Metrics::reset`].
    started: std::time::Instant,
    /// Monotonic snapshot sequence number (also survives `reset`, so a
    /// reset shows up as counters shrinking under a still-advancing seq).
    sample_seq: AtomicU64,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// A fresh, zeroed registry.
    pub fn new() -> Self {
        Self {
            stages: std::array::from_fn(|_| StageCell::new()),
            endpoints: std::array::from_fn(|_| StageCell::new()),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            queries_by_class: RwLock::new(BTreeMap::new()),
            started: std::time::Instant::now(),
            sample_seq: AtomicU64::new(0),
        }
    }

    /// Opens a scoped timer for `stage`; the elapsed time is recorded when
    /// the returned guard drops.
    #[inline]
    pub fn span(&self, stage: Stage) -> Span<'_> {
        Span {
            metrics: self,
            stage,
            start_ns: clock::now_ns(),
        }
    }

    /// Records one `ns`-nanosecond sample against `stage` directly (the
    /// non-guard form, for callers that already measured).
    #[inline]
    pub fn record_ns(&self, stage: Stage, ns: u64) {
        self.stages[stage as usize].record(ns);
    }

    /// Adds `n` to one counter.
    #[inline]
    pub fn add(&self, counter: Counter, n: u64) {
        self.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Counts one executed query: in total, per mode, per class, and
    /// whether it walked a precomputed rank order.
    pub fn record_query(&self, class_id: &str, mode: Mode, index_served: bool) {
        self.add(Counter::QueriesTotal, 1);
        self.add(
            match mode {
                Mode::Exact => Counter::QueriesExact,
                Mode::Approximate => Counter::QueriesApproximate,
            },
            1,
        );
        if index_served {
            self.add(Counter::QueriesIndexServed, 1);
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

    /// Counts one served request and records its end-to-end latency
    /// against `endpoint`.
    #[inline]
    pub fn record_request(&self, endpoint: Endpoint, ns: u64) {
        self.add(Counter::Requests, 1);
        self.endpoints[endpoint as usize].record(ns);
    }

    /// Zeroes every histogram and counter. Handy between benchmark phases.
    pub fn reset(&self) {
        for cell in self.stages.iter().chain(&self.endpoints) {
            cell.reset();
        }
        for counter in &self.counters {
            counter.store(0, Ordering::Relaxed);
        }
        self.queries_by_class.write().clear();
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
        let mut snap = MetricsSnapshot {
            kernel: kernel_name().to_owned(),
            uptime_secs: self.started.elapsed().as_secs_f64(),
            sample_seq: self.sample_seq.fetch_add(1, Ordering::Relaxed) + 1,
            stages: Stage::ALL
                .iter()
                .map(|&stage| cell_snapshot(stage.name(), &self.stages[stage as usize]))
                .collect(),
            queries: QuerySnapshot {
                by_class: self
                    .queries_by_class
                    .read()
                    .iter()
                    .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                    .collect(),
                ..QuerySnapshot::default()
            },
            serve: ServeSnapshot {
                endpoints: Endpoint::ALL
                    .iter()
                    .map(|&ep| cell_snapshot(ep.name(), &self.endpoints[ep as usize]))
                    .collect(),
                ..ServeSnapshot::default()
            },
            cache: cache.map(|stats| CacheSnapshot {
                hits: stats.hits,
                misses: stats.misses,
                entries: stats.entries as u64,
                purges: stats.purges,
                hit_rate: stats.hit_rate(),
            }),
            ..MetricsSnapshot::default()
        };
        for series in scalar_rows() {
            if let Some((counter, field)) = series.counter {
                *field(&mut snap) = self.counters[counter as usize].load(Ordering::Relaxed);
            }
        }
        snap
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

/// One cell's plain-data summary under a stable `name` — shared by the
/// per-stage and per-endpoint sections of a snapshot.
fn cell_snapshot(name: &str, cell: &StageCell) -> StageSnapshot {
    let buckets: Vec<HistogramBucket> = cell
        .buckets
        .iter()
        .enumerate()
        .filter_map(|(i, b)| {
            let count = b.load(Ordering::Relaxed);
            (count > 0).then(|| HistogramBucket {
                floor_ns: bucket_floor(i),
                count,
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
        min_ns: buckets.first().map_or(0, |b| b.floor_ns),
        max_ns: buckets.last().map_or(0, HistogramBucket::ceil_ns),
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
/// [`Metrics`] when dropped.
#[must_use = "a span records on drop; binding it to `_` drops it immediately"]
pub struct Span<'a> {
    metrics: &'a Metrics,
    stage: Stage,
    start_ns: u64,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let ns = clock::now_ns().saturating_sub(self.start_ns);
        self.metrics.record_ns(self.stage, ns);
    }
}

/// A bounded log shared across threads: a push at capacity evicts the
/// oldest entry. The trace ring, the slow-query log and the monitor's
/// sample and alert logs are each one.
pub(crate) struct Ring<T> {
    items: Mutex<VecDeque<T>>,
    capacity: usize,
}

impl<T: Clone> Ring<T> {
    /// An empty ring of at most `capacity` entries (at least one).
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            items: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
        }
    }

    /// Appends `item`, evicting the oldest entry at capacity.
    pub(crate) fn push(&self, item: T) {
        let mut items = self.items.lock();
        if items.len() == self.capacity {
            items.pop_front();
        }
        items.push_back(item);
    }

    /// The newest `n` entries (all of them past the length), oldest first.
    pub(crate) fn last(&self, n: usize) -> Vec<T> {
        let items = self.items.lock();
        let skip = items.len().saturating_sub(n);
        items.iter().skip(skip).cloned().collect()
    }

    /// How many entries the ring holds.
    pub(crate) fn len(&self) -> usize {
        self.items.lock().len()
    }

    /// Drops every entry.
    pub(crate) fn clear(&self) {
        self.items.lock().clear();
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

impl HistogramBucket {
    /// The bucket's inclusive upper bound, ns: `2·floor_ns − 1`, or 1 for
    /// the zero bucket.
    fn ceil_ns(&self) -> u64 {
        (self.floor_ns.max(1) << 1) - 1
    }
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
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct QuerySnapshot {
    /// Queries executed (index-served included).
    pub total: u64,
    /// Queries run in exact mode.
    pub exact: u64,
    /// Queries run in approximate (sketch-backed) mode.
    pub approximate: u64,
    /// Queries that walked a precomputed rank order instead of scoring.
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
    /// Republishes that minted a clean cache epoch (source replaced,
    /// registry or catalog changed), so every score starts over.
    pub republishes_full: u64,
    /// Republishes that carried clean plane scores into the new epoch, so
    /// completing the rank orders rescored only dirty tuples.
    pub republishes_incremental: u64,
    /// Republishes with no dirty columns at all — epoch and cache kept.
    pub republishes_clean: u64,
    /// Insight classes with at least one rescored tuple, summed over
    /// incremental republishes.
    pub rescored_classes: u64,
    /// Tuples rescored by incremental republishes' rank-order completion.
    pub rescored_tuples: u64,
    /// Tuples whose migrated scores answered incremental republishes'
    /// rank-order completion.
    pub reused_tuples: u64,
    /// Partial-plane scores carried into the new epoch instead of being
    /// purged.
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
    /// Score cache: the memoized detail strings.
    pub cache_bytes: u64,
    /// The snapshot's prepared columns (centred values / centred ranks of
    /// the numeric columns exact batch scoring has asked for). Defaults on
    /// deserialize so snapshots from older peers still parse.
    #[serde(default)]
    pub prepared_bytes: u64,
    /// The snapshot's rank orders (one ranked class scan per filled
    /// class and mode). Defaults on deserialize so snapshots from older
    /// peers still parse.
    #[serde(default)]
    pub orders_bytes: u64,
    /// The snapshot's score planes (8 B a position of every keyspace a
    /// pass touched, partial or complete). Defaults on deserialize so
    /// snapshots from older peers still parse.
    #[serde(default)]
    pub planes_bytes: u64,
    /// LSH candidate index (bucket tables + key cache), 0 when absent.
    pub lsh_bytes: u64,
    /// Trace ring + slow-query log (retained entries at a nominal size).
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
    /// Lookups a score plane answered.
    pub hits: u64,
    /// Lookups that fell through to scoring.
    pub misses: u64,
    /// Scores the snapshot's planes hold.
    pub entries: u64,
    /// Partial-plane scores dropped by epoch bumps.
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
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
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

/// A series' Prometheus type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Monotonic: only a reset or a cache clear shrinks it.
    Counter,
    /// A level that may move either way.
    Gauge,
}

/// The snapshot field a counter-fed row fills and reads.
pub type Field = fn(&mut MetricsSnapshot) -> &mut u64;

/// One scalar series of the schema: everything every rendering needs.
pub struct Series {
    /// Prometheus family name. Consecutive rows may share one, told apart
    /// by `label`.
    pub name: &'static str,
    /// Prometheus `# HELP` text (the family's first row's is used).
    pub help: &'static str,
    /// Prometheus type, and whether the monitor treats a shrink as a reset.
    pub kind: Kind,
    /// The `(label, value)` pair telling rows of one family apart.
    pub label: Option<(&'static str, &'static str)>,
    /// The row's label in [`MetricsSnapshot::to_text`].
    pub text: &'static str,
    /// Printed by `to_text` even at zero; other rows print only once
    /// something happened.
    pub always_on: bool,
    /// The row's value — a Prometheus sample is a float — or `None` when
    /// its snapshot section is absent.
    pub read: fn(&MetricsSnapshot) -> Option<f64>,
    /// The registry counter this row reports, and the snapshot field
    /// [`Metrics::snapshot`] writes it into (the one `read` reads).
    pub counter: Option<(Counter, Field)>,
}

/// One row of [`SCHEMA`], in rendering order.
pub enum Row {
    /// One scalar sample.
    Scalar(Series),
    /// A labelled log₂ latency histogram, one series per cell.
    Latency {
        /// Prometheus family name.
        name: &'static str,
        /// Prometheus `# HELP` text.
        help: &'static str,
        /// The label naming a cell (`stage`, `endpoint`).
        label: &'static str,
        /// `to_text` lists every cell when set, else only sampled ones.
        always_on: bool,
        /// The cells, in their enum's order.
        cells: fn(&MetricsSnapshot) -> &[StageSnapshot],
    },
    /// Per-class query counts: one sample per class seen.
    PerClass {
        /// Prometheus family name.
        name: &'static str,
        /// Prometheus `# HELP` text.
        help: &'static str,
        /// The row's label prefix in `to_text`.
        text: &'static str,
        /// The counts, sorted by class id.
        counts: fn(&MetricsSnapshot) -> &BTreeMap<String, u64>,
    },
}

/// Every scalar row of [`SCHEMA`], in order.
pub fn scalar_rows() -> impl Iterator<Item = &'static Series> {
    SCHEMA.iter().filter_map(|row| match row {
        Row::Scalar(series) => Some(series),
        _ => None,
    })
}

macro_rules! label {
    () => {
        None
    };
    ($key:literal, $value:literal) => {
        Some(($key, $value))
    };
}

/// `row!(Kind "name" ["label" = "value"], "text", always_on, help, source)`.
/// `source` is `Counter => field.path` for a registry counter (written
/// into and read from that field), `section?.field` for a field of an
/// optional section, or `|s| reading` for anything else.
macro_rules! row {
    (@series $kind:ident $name:literal $([$key:literal = $value:literal])?, $text:literal,
     $always:literal, $help:expr, $read:expr, $counter:expr) => {
        Row::Scalar(Series {
            name: $name,
            help: $help,
            kind: Kind::$kind,
            label: label!($($key, $value)?),
            text: $text,
            always_on: $always,
            read: $read,
            counter: $counter,
        })
    };
    ($kind:ident $name:literal $([$key:literal = $value:literal])?, $text:literal, $always:literal,
     $help:expr, $counter:ident => $($field:ident).+) => {
        row!(@series $kind $name $([$key = $value])?, $text, $always, $help,
             |s| Some(s.$($field).+ as f64),
             Some((Counter::$counter, |s| &mut s.$($field).+)))
    };
    ($kind:ident $name:literal $([$key:literal = $value:literal])?, $text:literal, $always:literal,
     $help:expr, $section:ident ? . $field:ident) => {
        row!(@series $kind $name $([$key = $value])?, $text, $always, $help,
             |s| s.$section.as_ref().map(|x| x.$field as f64), None)
    };
    ($kind:ident $name:literal $([$key:literal = $value:literal])?, $text:literal, $always:literal,
     $help:expr, |$s:ident| $read:expr) => {
        row!(@series $kind $name $([$key = $value])?, $text, $always, $help, |$s| $read, None)
    };
}

const REPUBLISHES: &str = "Snapshot republishes by kind (full rebuild, incremental, clean).";
const RESIDENT: &str = "Approximate resident bytes per long-lived structure.";

/// The metric schema: every series a [`MetricsSnapshot`] renders, in
/// rendering order. `foresight_build_info` (version and kernel labels)
/// heads the Prometheus exposition ahead of these rows.
pub static SCHEMA: &[Row] = &[
    row!(Gauge "foresight_uptime_seconds", "uptime seconds", true,
        "Seconds since the metrics registry was created.", |s| Some(s.uptime_secs)),
    row!(Gauge "foresight_metrics_sample_seq", "sample seq", true,
        "Monotonic snapshot sequence number (survives resets).", |s| Some(s.sample_seq as f64)),
    Row::Latency {
        name: "foresight_stage_duration_ns",
        help: "Per-stage latency histogram of the query path, nanoseconds.",
        label: "stage",
        always_on: true,
        cells: |s| &s.stages,
    },
    Row::Latency {
        name: "foresight_endpoint_duration_ns",
        help: "Per-endpoint request latency histogram of the network front end, nanoseconds.",
        label: "endpoint",
        always_on: false,
        cells: |s| &s.serve.endpoints,
    },
    row!(Counter "foresight_queries_total", "queries", true,
        "Queries executed.", QueriesTotal => queries.total),
    row!(Counter "foresight_queries_exact_total", "queries exact", true,
        "Queries run in exact mode.", QueriesExact => queries.exact),
    row!(Counter "foresight_queries_approximate_total", "queries approximate", true,
        "Queries run in approximate (sketch-backed) mode.", QueriesApproximate => queries.approximate),
    row!(Counter "foresight_queries_index_served_total", "queries index-served", true,
        "Queries that walked a precomputed rank order instead of scoring.",
        QueriesIndexServed => queries.index_served),
    Row::PerClass {
        name: "foresight_queries_by_class_total",
        help: "Queries per insight class.",
        text: "queries",
        counts: |s| &s.queries.by_class,
    },
    row!(Counter "foresight_sketch_fallbacks_total", "sketch fallbacks to exact", true,
        "Approximate-mode scorings that fell back to the exact path.", SketchFallbacks => sketch_fallbacks),
    row!(Counter "foresight_lsh_queries_total", "lsh queries", false,
        "Queries whose candidates came from LSH bucket collisions.", LshQueries => lsh.queries),
    row!(Counter "foresight_lsh_candidate_pairs_total", "lsh candidate pairs", false,
        "Collision pairs generated across LSH-served queries.", LshCandidatePairs => lsh.candidate_pairs),
    row!(Counter "foresight_ingest_rows_total", "ingest rows", false,
        "Rows ingested.", IngestRows => ingest.rows),
    row!(Counter "foresight_ingest_batches_total", "ingest batches", false,
        "Row batches ingested.", IngestBatches => ingest.batches),
    row!(Counter "foresight_ingest_merges_total", "ingest sketch merges", false,
        "Shard-catalog merges into the global sketch catalog.", IngestMerges => ingest.merges),
    row!(Counter "foresight_republishes_total" ["kind" = "full"], "republishes full", false,
        REPUBLISHES, RepublishesFull => ingest.republishes_full),
    row!(Counter "foresight_republishes_total" ["kind" = "incremental"], "republishes incremental", false,
        REPUBLISHES, RepublishesIncremental => ingest.republishes_incremental),
    row!(Counter "foresight_republishes_total" ["kind" = "clean"], "republishes clean", false,
        REPUBLISHES, RepublishesClean => ingest.republishes_clean),
    row!(Counter "foresight_rescored_classes_total", "rescored classes", false,
        "Classes with rescored tuples across incremental republishes.", RescoredClasses => ingest.rescored_classes),
    row!(Counter "foresight_rescored_tuples_total", "rescored tuples", false,
        "Tuples rescored by incremental republishes.", RescoredTuples => ingest.rescored_tuples),
    row!(Counter "foresight_reused_tuples_total", "reused tuples", false,
        "Tuples carried over by incremental republishes.", ReusedTuples => ingest.reused_tuples),
    row!(Counter "foresight_cache_entries_migrated_total", "cache entries migrated", false,
        "Partial-plane scores carried into a new epoch.", CacheEntriesMigrated => ingest.cache_entries_migrated),
    row!(Counter "foresight_serve_connections_total", "serve connections", false,
        "Network connections accepted.", Connections => serve.connections),
    row!(Counter "foresight_serve_connections_shed_total", "serve connections shed", false,
        "Connections refused by the connection budget.", ConnectionsShed => serve.connections_shed),
    row!(Counter "foresight_serve_requests_total", "serve requests", false,
        "Requests served.", Requests => serve.requests),
    row!(Counter "foresight_serve_load_shed_total", "serve requests load-shed", false,
        "Requests shed because a worker queue was full.", LoadShed => serve.load_shed),
    row!(Counter "foresight_serve_errors_total", "serve errors", false,
        "Requests answered with a typed protocol error.", Errors => serve.errors),
    row!(Counter "foresight_serve_sessions_created_total", "serve sessions created", false,
        "Server-side sessions created.", SessionsCreated => serve.sessions_created),
    row!(Counter "foresight_serve_sessions_expired_total", "serve sessions expired (ttl)", false,
        "Sessions expired by the idle TTL.", SessionsExpired => serve.sessions_expired),
    row!(Counter "foresight_serve_sessions_evicted_total", "serve sessions evicted (lru)", false,
        "Sessions evicted by the LRU capacity bound.", SessionsEvicted => serve.sessions_evicted),
    row!(Counter "foresight_serve_sessions_closed_total", "serve sessions closed", false,
        "Sessions closed explicitly by their clients.", SessionsClosed => serve.sessions_closed),
    row!(Gauge "foresight_serve_sessions_live", "serve sessions live", false,
        "Sessions currently alive in the server's table.", |s| Some(s.serve.sessions_live() as f64)),
    row!(Counter "foresight_cache_hits_total", "cache hits", true, "Score-cache hits.", cache?.hits),
    row!(Counter "foresight_cache_misses_total", "cache misses", true, "Score-cache misses.", cache?.misses),
    row!(Counter "foresight_cache_purges_total", "cache purges", true,
        "Partial-plane scores dropped by an epoch bump.", cache?.purges),
    row!(Gauge "foresight_cache_entries", "cache entries", true, "Score-cache entries resident.", cache?.entries),
    row!(Gauge "foresight_cache_hit_rate", "cache hit rate", true,
        "Score-cache hit rate (0 when no lookups happened).", cache?.hit_rate),
    row!(Gauge "foresight_resident_bytes" ["component" = "catalog"], "resident bytes catalog", true,
        RESIDENT, resources?.catalog_bytes),
    row!(Gauge "foresight_resident_bytes" ["component" = "score_cache"], "resident bytes score cache", true,
        RESIDENT, resources?.cache_bytes),
    row!(Gauge "foresight_resident_bytes" ["component" = "prepared_columns"], "resident bytes prepared columns",
        true, RESIDENT, resources?.prepared_bytes),
    row!(Gauge "foresight_resident_bytes" ["component" = "rank_orders"], "resident bytes rank orders", true,
        RESIDENT, resources?.orders_bytes),
    row!(Gauge "foresight_resident_bytes" ["component" = "score_planes"], "resident bytes score planes", true,
        RESIDENT, resources?.planes_bytes),
    row!(Gauge "foresight_resident_bytes" ["component" = "lsh_index"], "resident bytes lsh index", true,
        RESIDENT, resources?.lsh_bytes),
    row!(Gauge "foresight_resident_bytes" ["component" = "trace_ring"], "resident bytes trace ring", true,
        RESIDENT, resources?.trace_bytes),
    row!(Gauge "foresight_resident_bytes" ["component" = "session_table"], "resident bytes session table", true,
        RESIDENT, resources?.session_table_bytes),
    row!(Gauge "foresight_sessions_live", "sessions live", true,
        "Live server-side sessions (resource-gauge view).", resources?.sessions_live),
];

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
    /// command): one line per [`SCHEMA`] row that is `always_on` or
    /// non-zero, with the latency histograms as tables.
    pub fn to_text(&self) -> String {
        use std::fmt::Write;
        let mut out = format!("foresight {} · {} kernel\n", build_version(), self.kernel);
        for row in SCHEMA {
            match row {
                Row::Scalar(series) => {
                    let reading = (series.read)(self);
                    if let Some(v) = reading.filter(|v| series.always_on || *v != 0.0) {
                        let _ = writeln!(out, "{:<36} {v}", series.text);
                    }
                }
                Row::Latency {
                    label,
                    always_on,
                    cells,
                    ..
                } => {
                    let shown: Vec<&StageSnapshot> = cells(self)
                        .iter()
                        .filter(|c| *always_on || c.count > 0)
                        .collect();
                    if shown.is_empty() {
                        continue;
                    }
                    let _ = writeln!(
                        out,
                        "{label:<14} {:>8} {:>12} {:>10} {:>10} {:>10} {:>12}",
                        "count", "total_ms", "mean_us", "p50_us", "p99_us", "max_us"
                    );
                    for c in shown {
                        let _ = writeln!(
                            out,
                            "{:<14} {:>8} {:>12.3} {:>10.1} {:>10.1} {:>10.1} {:>12.1}",
                            c.stage,
                            c.count,
                            c.total_ns as f64 / 1e6,
                            c.mean_ns as f64 / 1e3,
                            c.p50_ns as f64 / 1e3,
                            c.p99_ns as f64 / 1e3,
                            c.max_ns as f64 / 1e3,
                        );
                    }
                }
                Row::PerClass { text, counts, .. } => {
                    for (class, n) in counts(self) {
                        let _ = writeln!(out, "{:<36} {n}", format!("{text} {class}"));
                    }
                }
            }
        }
        out
    }

    /// Prometheus text exposition (format 0.0.4) of the whole snapshot:
    /// a `foresight_build_info` constant, then every [`SCHEMA`] row whose
    /// section is present. Every family carries `# HELP` and `# TYPE`
    /// lines; latencies stay in integer nanoseconds (`le` bounds are the
    /// log₂ bucket ceilings) rather than lossy float seconds.
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write;
        let mut o = String::new();
        // build info first: one constant-1 gauge carrying the labels a
        // scraper joins on
        family_header(
            &mut o,
            "foresight_build_info",
            "Build metadata: crate version and stats-kernel mode.",
            "gauge",
        );
        let _ = writeln!(
            o,
            "foresight_build_info{{version=\"{}\",kernel=\"{}\"}} 1",
            prom_escape(build_version()),
            prom_escape(&self.kernel),
        );
        let mut family = "";
        for row in SCHEMA {
            match row {
                Row::Scalar(series) => {
                    let Some(v) = (series.read)(self) else {
                        continue;
                    };
                    if series.name != family {
                        family = series.name;
                        let kind = match series.kind {
                            Kind::Counter => "counter",
                            Kind::Gauge => "gauge",
                        };
                        family_header(&mut o, family, series.help, kind);
                    }
                    let _ = match series.label {
                        Some((key, value)) => writeln!(o, "{family}{{{key}=\"{value}\"}} {v}"),
                        None => writeln!(o, "{family} {v}"),
                    };
                }
                Row::Latency {
                    name,
                    help,
                    label,
                    cells,
                    ..
                } => histogram_family(&mut o, name, help, label, cells(self)),
                Row::PerClass {
                    name, help, counts, ..
                } => {
                    // declared only when populated: a family with HELP/TYPE
                    // but no samples is legal yet trips strict scrapers' lint
                    // rules
                    let counts = counts(self);
                    if counts.is_empty() {
                        continue;
                    }
                    family_header(&mut o, name, help, "counter");
                    for (class, n) in counts {
                        let _ = writeln!(o, "{name}{{class=\"{}\"}} {n}", prom_escape(class));
                    }
                }
            }
        }
        o
    }
}

/// Writes a family's `# HELP` and `# TYPE` lines.
fn family_header(o: &mut String, name: &str, help: &str, kind: &str) {
    use std::fmt::Write;
    let _ = writeln!(o, "# HELP {name} {help}");
    let _ = writeln!(o, "# TYPE {name} {kind}");
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
    family_header(o, name, help, "histogram");
    for c in cells {
        let v = prom_escape(&c.stage);
        let mut cum = 0u64;
        for b in &c.buckets {
            cum += b.count;
            let le = b.ceil_ns();
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
        family_header(o, &fam, help, "gauge");
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
    }

    #[test]
    fn query_counters_split_by_mode_and_class() {
        let m = Metrics::new();
        m.record_query("skew", Mode::Exact, false);
        m.record_query("skew", Mode::Approximate, true);
        m.record_query("dispersion", Mode::Approximate, false);
        let snap = m.snapshot();
        assert_eq!(snap.queries.total, 3);
        assert_eq!(snap.queries.exact, 1);
        assert_eq!(snap.queries.approximate, 2);
        assert_eq!(snap.queries.index_served, 1);
        assert_eq!(snap.queries.by_class["skew"], 2);
        assert_eq!(snap.queries.by_class["dispersion"], 1);
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
        let s = m.snapshot().stage("score").unwrap().clone();
        assert_eq!(s.p50_ns, 512 + 256, "median sits in the common bucket");
        assert!(s.p99_ns <= 1 << 10);
        assert!(s.max_ns >= 1 << 20);
    }

    /// Every counter with a distinct value, in declaration order.
    fn count_everything(m: &Metrics) {
        for (i, (counter, _)) in scalar_rows().filter_map(|s| s.counter).enumerate() {
            m.add(counter, 1_000 + i as u64);
        }
    }

    #[test]
    fn every_counter_feeds_the_row_that_reads_it() {
        let m = Metrics::new();
        count_everything(&m);
        let snap = m.snapshot();
        let fed: Vec<Counter> = scalar_rows()
            .filter_map(|s| s.counter.map(|c| c.0))
            .collect();
        assert_eq!(fed.len(), Counter::COUNT, "one row per counter");
        for (i, counter) in fed.iter().enumerate() {
            assert_eq!(*counter as usize, i, "rows follow the enum's order");
        }
        for (i, series) in scalar_rows().filter(|s| s.counter.is_some()).enumerate() {
            assert_eq!(
                (series.read)(&snap),
                Some(1_000.0 + i as f64),
                "{} reads a field its counter does not fill",
                series.name
            );
        }
    }

    #[test]
    fn reset_zeroes_everything() {
        let m = Metrics::new();
        m.record_ns(Stage::Score, 42);
        m.record_request(Endpoint::Query, 42);
        m.record_query("skew", Mode::Exact, false);
        count_everything(&m);
        m.reset();
        let snap = m.snapshot();
        assert!(snap.stages.iter().all(|s| s.count == 0));
        assert!(snap.serve.endpoints.iter().all(|s| s.count == 0));
        assert!(snap.queries.by_class.is_empty());
        for series in scalar_rows().filter(|s| s.counter.is_some()) {
            assert_eq!((series.read)(&snap), Some(0.0), "{}", series.name);
        }
    }

    #[test]
    fn serve_counters_are_always_on_and_reset() {
        let m = Metrics::new();
        m.record_request(Endpoint::Query, 2000);
        m.add(Counter::SessionsCreated, 2);
        m.add(Counter::SessionsExpired, 1);
        m.add(Counter::SessionsEvicted, 1);
        m.add(Counter::SessionsClosed, 1);
        let snap = m.snapshot();
        assert_eq!(snap.serve.requests, 1);
        // 2 created − (1 closed + 1 expired + 1 evicted) saturates to 0
        assert_eq!(snap.serve.sessions_live(), 0);
        let text = snap.to_text();
        assert!(text.contains("serve requests "));
        assert!(
            text.contains("\nquery "),
            "sampled endpoints are tabled:\n{text}"
        );
        m.reset();
        // a quiet registry prints no serve rows and no endpoint table
        let quiet = m.snapshot().to_text();
        assert!(!quiet.lines().any(|l| l.starts_with("serve")), "{quiet}");
        assert!(!quiet.contains("\nquery "), "{quiet}");
    }

    #[test]
    fn ingest_counters_accumulate_and_render() {
        let m = Metrics::new();
        m.add(Counter::IngestRows, 100);
        m.add(Counter::IngestRows, 28);
        let text = m.snapshot().to_text();
        assert!(text
            .lines()
            .any(|l| l.starts_with("ingest rows") && l.ends_with(" 128")));
        // untouched rows that are not always-on stay quiet
        assert!(!text.contains("republishes clean"));
    }

    #[test]
    fn to_text_prints_every_row_of_a_populated_snapshot() {
        let m = Metrics::new();
        count_everything(&m);
        m.record_query("skew", Mode::Exact, false);
        let mut snap = m.snapshot();
        snap.cache = Some(CacheSnapshot {
            hits: 3,
            misses: 1,
            entries: 2,
            purges: 1,
            hit_rate: 0.75,
        });
        snap.resources = Some(ResourceSnapshot::default());
        let text = snap.to_text();
        for series in scalar_rows() {
            let v = (series.read)(&snap).expect("every section present");
            if v == 0.0 && !series.always_on {
                continue;
            }
            assert!(
                text.lines()
                    .any(|l| l.starts_with(series.text) && l.ends_with(&format!(" {v}"))),
                "`{}` missing from to_text:\n{text}",
                series.text
            );
        }
        assert!(text.contains("queries skew"));
    }
}
