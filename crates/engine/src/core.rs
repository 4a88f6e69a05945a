//! The shared service core and its writer path.
//!
//! [`EngineCore`] is the immutable heart of the engine: the table source,
//! the merged sketch catalog, the optional insight index, the frozen class
//! registry, and the (internally synchronized) score cache. Every read
//! path — queries, carousels, profiles, charts — takes `&self`, so one
//! `Arc<EngineCore>` serves any number of concurrent sessions without a
//! lock around the engine itself.
//!
//! Mutations go through [`CoreBuilder`]: take (or clone out of) a
//! published core, apply `register_class` / `preprocess` / `append_shard` /
//! catalog restores, and [`CoreBuilder::freeze`] a *new* snapshot. Readers
//! holding the old `Arc` keep answering from a consistent catalog; the
//! freeze mints a fresh score-cache epoch whenever scores could have
//! changed, so snapshots never exchange stale scores (see
//! [`crate::cache`]).

use crate::cache::{CacheStats, ScoreCache};
use crate::candidates::{CandidateSource, CandidateStrategy};
use crate::error::{EngineError, Result};
use crate::executor::{Executor, Mode};
use crate::profile::DatasetProfile;
use crate::query::InsightQuery;
use crate::recommend::{carousels_with, Carousel, CarouselConfig};
use crate::session::Session;
use crate::telemetry::{clock, Metrics, MetricsSnapshot, Stage};
use crate::trace::{QueryTrace, TraceBuilder, Tracer};
use foresight_data::{Table, TableSource};
use foresight_insight::{InsightClass, InsightInstance, InsightRegistry};
use foresight_sketch::lsh::LshIndex;
use foresight_sketch::{CatalogConfig, Mergeable, SketchCatalog};
use foresight_stats::prepared::PreparedColumns;
use foresight_viz::ChartSpec;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// An insight index together with the mode whose scores it memoizes. The
/// index only serves queries executed under that same mode; a session that
/// overrides its mode falls back to the executor.
#[derive(Clone)]
struct IndexedAt {
    index: crate::index::InsightIndex,
    mode: Mode,
}

/// The immutable, `Arc`-shareable engine core: everything about a dataset
/// that is *not* per-user exploration state.
///
/// All query paths take `&self`; the only interior mutability is the
/// sharded [`ScoreCache`] and the `OnceLock` memos (lazy shard
/// concatenation, the zero-row schema table, the prepared columns), each
/// of which is synchronized and write-once. The type is `Send + Sync` by
/// construction — share it across threads with [`Arc`] and hand each user
/// a [`crate::SessionHandle`].
pub struct EngineCore {
    source: TableSource,
    /// Lazy vstack of a sharded source, built on first exact-mode use.
    materialized: OnceLock<Table>,
    /// Lazy zero-row table carrying the schema (and semantic tags) — what
    /// the executor enumerates candidates against when the raw rows stay
    /// sharded.
    schema_table: OnceLock<Table>,
    /// Centred values / centred ranks of the raw table's numeric columns,
    /// filled on demand by exact batch scoring and kept for the snapshot's
    /// life. Derived from [`try_table`](Self::try_table) and nothing else:
    /// the writer path replaces it whenever the rows change, so it is
    /// dropped with its table, never invalidated.
    prepared: PreparedColumns,
    registry: Arc<InsightRegistry>,
    catalog: Option<SketchCatalog>,
    index: Option<IndexedAt>,
    /// The LSH candidate index over the catalog's hyperplane signatures,
    /// maintained by the freeze path whenever a catalog exists. Arc'd so a
    /// clean republish shares it with the previous snapshot.
    lsh: Option<Arc<LshIndex>>,
    cache: Arc<ScoreCache>,
    /// The score-cache data generation this snapshot reads and writes.
    /// Fixed at freeze time: readers of an older snapshot keep their own
    /// keyspace even while a newer snapshot is live.
    epoch: u64,
    /// The published default mode (sessions may override per-handle).
    mode: Mode,
    /// The published default for rayon-parallel execution.
    parallel: bool,
    /// Shared telemetry registry — like the cache, one registry outlives
    /// many republished snapshots, so stage histograms accumulate across
    /// the core's whole service life.
    metrics: Arc<Metrics>,
    /// Shared request-tracing registry: the query-id counter, the ring of
    /// recently finished traces, and the slow-query log. Shared across
    /// republished snapshots like `metrics`.
    tracer: Arc<Tracer>,
    /// Live ingest-head row counter shared with a streaming writer, when
    /// one feeds this core. Lets any snapshot report how many rows behind
    /// the ingest head it is without talking to the writer.
    ingest_head: Option<Arc<AtomicU64>>,
    /// `clock::now_ns()` at freeze time — the birth instant snapshot age
    /// is measured from.
    published_at_ns: u64,
    /// Per-mode memo of the dataset profile ([`Mode::Exact`],
    /// [`Mode::Approximate`]). A profile is a pure function of this
    /// immutable snapshot and the mode — serving fronts hit the `profile`
    /// endpoint per session, so it is assembled once per snapshot per
    /// mode. Errors are not cached.
    profile_memo: [OnceLock<DatasetProfile>; 2],
}

/// How far a published snapshot lags a live ingest stream — the staleness
/// readings surfaced in session telemetry, `EXPLAIN` output, and the wire
/// protocol's `Staleness` reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Staleness {
    /// The snapshot's score-cache epoch.
    pub epoch: u64,
    /// Rows the snapshot covers.
    pub snapshot_rows: u64,
    /// Rows the ingest head has absorbed (equals `snapshot_rows` when no
    /// stream writer is attached).
    pub head_rows: u64,
    /// `head_rows - snapshot_rows`.
    pub rows_behind: u64,
    /// Nanoseconds since the snapshot was frozen.
    pub age_ns: u64,
}

// The whole point of the core: one snapshot, many threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<EngineCore>();
};

impl EngineCore {
    /// Starts a [`CoreBuilder`] over a source — the writer path.
    pub fn builder(source: TableSource) -> CoreBuilder {
        CoreBuilder::new(source)
    }

    /// A fresh per-user [`crate::SessionHandle`] borrowing this core.
    pub fn handle(self: &Arc<Self>) -> crate::SessionHandle {
        crate::SessionHandle::new(Arc::clone(self))
    }

    /// The underlying source (materialized table or row shards).
    pub fn source(&self) -> &TableSource {
        &self.source
    }

    /// The frozen class registry.
    pub fn registry(&self) -> &InsightRegistry {
        &self.registry
    }

    /// The sketch catalog, if preprocessing ran.
    pub fn catalog(&self) -> Option<&SketchCatalog> {
        self.catalog.as_ref()
    }

    /// The insight index, if one was built.
    pub fn insight_index(&self) -> Option<&crate::index::InsightIndex> {
        self.index.as_ref().map(|ix| &ix.index)
    }

    /// The LSH candidate index, if a catalog exists to build it over.
    pub fn lsh_index(&self) -> Option<&LshIndex> {
        self.lsh.as_deref()
    }

    /// A [`CandidateSource`] over this snapshot's LSH index under
    /// `strategy` — what the executor uses to generate pairwise candidates.
    pub fn candidate_source(&self, strategy: CandidateStrategy) -> CandidateSource<'_> {
        CandidateSource::new(self.lsh.as_deref(), strategy)
    }

    /// The published default mode (snapshots built after
    /// [`CoreBuilder::preprocess`] default to approximate).
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Whether rayon-parallel execution is the published default.
    pub fn parallel(&self) -> bool {
        self.parallel
    }

    /// The score-cache data generation this snapshot reads through.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Rows this snapshot covers.
    pub fn snapshot_rows(&self) -> u64 {
        self.source.n_rows() as u64
    }

    /// Rows absorbed by the ingest head feeding this core, when a stream
    /// writer is attached.
    pub fn ingest_head_rows(&self) -> Option<u64> {
        self.ingest_head
            .as_ref()
            .map(|head| head.load(Ordering::Acquire))
    }

    /// How many ingested rows this snapshot has not yet seen (0 without a
    /// stream writer).
    pub fn rows_behind(&self) -> u64 {
        self.ingest_head_rows()
            .map_or(0, |head| head.saturating_sub(self.snapshot_rows()))
    }

    /// The full staleness reading: epoch, row coverage versus the ingest
    /// head, and snapshot age.
    pub fn staleness(&self) -> Staleness {
        let snapshot_rows = self.snapshot_rows();
        let head_rows = self.ingest_head_rows().unwrap_or(snapshot_rows);
        Staleness {
            epoch: self.epoch,
            snapshot_rows,
            head_rows,
            rows_behind: head_rows.saturating_sub(snapshot_rows),
            age_ns: clock::now_ns().saturating_sub(self.published_at_ns),
        }
    }

    /// The shared cross-query score cache.
    pub fn cache(&self) -> &ScoreCache {
        &self.cache
    }

    /// Hit/miss/occupancy/purge counters of the shared score cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The shared telemetry registry (live counters; see
    /// [`EngineCore::metrics_snapshot`] for the plain-data view).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// A deterministic point-in-time snapshot of the telemetry registry,
    /// with score-cache traffic and resource gauges folded in.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.metrics.snapshot_with_cache(Some(&self.cache.stats()));
        snap.resources = Some(self.resource_snapshot(snap.serve.sessions_live()));
        snap
    }

    /// Approximate resident-memory gauges for the core's long-lived
    /// structures. `sessions_live` comes from the serve counters (0 when
    /// no front end is attached) and prices the server's session table.
    pub fn resource_snapshot(&self, sessions_live: u64) -> crate::telemetry::ResourceSnapshot {
        // a server-side session entry: SessionHandle (core Arc + session
        // state + focus set) plus the table's key/last-touch bookkeeping
        const SESSION_ENTRY_BYTES: u64 = 512;
        crate::telemetry::ResourceSnapshot {
            catalog_bytes: self.catalog.as_ref().map_or(0, |c| c.approx_bytes()) as u64,
            cache_bytes: self.cache.approx_bytes() as u64,
            prepared_bytes: self.prepared.approx_bytes() as u64,
            lsh_bytes: self.lsh.as_deref().map_or(0, |l| l.size_bytes()) as u64,
            trace_bytes: self.tracer.approx_bytes() as u64,
            session_table_bytes: sessions_live * SESSION_ENTRY_BYTES,
            sessions_live,
        }
    }

    /// The instantaneous health of this snapshot under `policy` — the
    /// conditions that need no sampling window (catalog presence, stream
    /// lag, cumulative cache hit rate). A running [`Monitor`] layers the
    /// windowed conditions (shed rate) and hysteresis on top of these.
    ///
    /// [`Monitor`]: crate::monitor::Monitor
    pub fn health(&self, policy: &crate::monitor::HealthPolicy) -> crate::monitor::HealthState {
        use crate::monitor::{HealthReason, HealthState};
        if self.catalog.is_none() {
            return HealthState::Unready(vec![HealthReason::CoreNotReady]);
        }
        let mut reasons = Vec::new();
        let rows_behind = self.rows_behind();
        if policy.max_rows_behind > 0 && rows_behind > policy.max_rows_behind {
            reasons.push(HealthReason::StreamLagging {
                rows_behind,
                bound: policy.max_rows_behind,
            });
        }
        if policy.min_hit_rate > 0.0 {
            let stats = self.cache.stats();
            if stats.hits + stats.misses > 0 && stats.hit_rate() < policy.min_hit_rate {
                reasons.push(HealthReason::LowCacheHitRate {
                    hit_rate: stats.hit_rate(),
                    floor: policy.min_hit_rate,
                });
            }
        }
        if reasons.is_empty() {
            HealthState::Healthy
        } else {
            HealthState::Degraded(reasons)
        }
    }

    /// The shared request-tracing registry: recent traces, the slow-query
    /// log, and their runtime switches.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The underlying table, materializing a sharded source on first call.
    ///
    /// # Panics
    /// When the source is sketch-only (raw rows dropped); use
    /// [`EngineCore::try_table`] to handle that case as an error.
    pub fn table(&self) -> &Table {
        self.try_table()
            .expect("raw rows unavailable (sketch-only source); use try_table()")
    }

    /// The underlying table, concatenating a sharded source lazily (the
    /// vstack happens once, on first need; approximate-mode work never
    /// triggers it).
    pub fn try_table(&self) -> Result<&Table> {
        if let Some(t) = self.source.as_materialized() {
            return Ok(t);
        }
        if let Some(t) = self.materialized.get() {
            return Ok(t);
        }
        let t = self.source.materialize()?;
        Ok(self.materialized.get_or_init(|| t))
    }

    fn schema_table(&self) -> &Table {
        self.schema_table.get_or_init(|| self.source.schema_table())
    }

    /// The snapshot's store of prepared columns (see
    /// [`PreparedColumns`]) — exposed for its occupancy and byte gauges.
    pub fn prepared_columns(&self) -> &PreparedColumns {
        &self.prepared
    }

    /// Whether `mode` runs off the merged catalog with no raw-row fallback.
    fn sketch_backed_at(&self, mode: Mode) -> bool {
        self.source.as_materialized().is_none() && mode == Mode::Approximate
    }

    /// The table the executor (and insight index) runs against under
    /// `mode`: the real rows when available and needed, a zero-row schema
    /// table when a sharded source answers from sketches alone.
    fn exec_table_at(&self, mode: Mode) -> Result<&Table> {
        if self.sketch_backed_at(mode) {
            Ok(self.schema_table())
        } else {
            self.try_table()
        }
    }

    /// An executor over this snapshot under an explicit mode/parallelism —
    /// the building block sessions use. Scores read and write the shared
    /// cache in this snapshot's epoch keyspace. Candidates follow the
    /// default [`CandidateStrategy::Auto`].
    pub fn executor_at(&self, mode: Mode, parallel: bool) -> Result<Executor<'_>> {
        self.executor_strategy(mode, parallel, CandidateStrategy::Auto)
    }

    /// [`executor_at`](Self::executor_at) with an explicit candidate
    /// strategy — the recall-vs-speed knob sessions thread through.
    pub fn executor_strategy(
        &self,
        mode: Mode,
        parallel: bool,
        strategy: CandidateStrategy,
    ) -> Result<Executor<'_>> {
        let ex = match (mode, self.catalog.as_ref()) {
            (Mode::Approximate, Some(catalog)) => {
                Executor::approximate(self.exec_table_at(mode)?, &self.registry, catalog)
                    .sketch_only(self.sketch_backed_at(mode))
            }
            (Mode::Approximate, None) => return Err(EngineError::NoCatalog),
            _ => Executor::exact(self.try_table()?, &self.registry),
        };
        // the store is over the raw rows; a sketch-backed executor sees only
        // the zero-row schema table and scores nothing exactly
        let ex = if self.sketch_backed_at(mode) {
            ex
        } else {
            ex.with_prepared(&self.prepared)
        };
        Ok(ex
            .parallel(parallel)
            .with_cache_at(&self.cache, self.epoch)
            .with_candidates(self.candidate_source(strategy))
            .with_metrics(&self.metrics))
    }

    /// An executor under the published defaults.
    pub fn executor(&self) -> Result<Executor<'_>> {
        self.executor_at(self.mode, self.parallel)
    }

    /// Runs an insight query under the published defaults. Stateless —
    /// nothing is recorded; sessions record their own history.
    pub fn run_query(&self, query: &InsightQuery) -> Result<Vec<InsightInstance>> {
        self.run_query_at(query, self.mode, self.parallel)
    }

    /// Runs an insight query under an explicit mode/parallelism.
    ///
    /// Served from the insight index when one is built for the same mode
    /// and covers the query; otherwise scored by the executor.
    pub fn run_query_at(
        &self,
        query: &InsightQuery,
        mode: Mode,
        parallel: bool,
    ) -> Result<Vec<InsightInstance>> {
        self.run_query_strategy(query, mode, parallel, CandidateStrategy::Auto)
    }

    /// [`run_query_at`](Self::run_query_at) with an explicit candidate
    /// strategy. A strategy that resolves to LSH for the queried class
    /// bypasses the prebuilt (exhaustively generated) insight index so the
    /// collision-generated candidate list is actually what gets scored.
    pub fn run_query_strategy(
        &self,
        query: &InsightQuery,
        mode: Mode,
        parallel: bool,
        strategy: CandidateStrategy,
    ) -> Result<Vec<InsightInstance>> {
        // the entire cost of the dormant trace layer on the untraced path:
        // one relaxed load of the slow-query threshold
        if cfg!(feature = "trace") && self.tracer.slow_threshold_ns() > 0 {
            let start = clock::now_ns();
            let out = self.run_query_with(
                query,
                mode,
                parallel,
                strategy,
                &mut TraceBuilder::disabled(),
            )?;
            self.tracer.maybe_record_slow(
                query,
                mode,
                clock::now_ns().saturating_sub(start),
                out.len(),
                None,
            );
            return Ok(out);
        }
        self.run_query_with(
            query,
            mode,
            parallel,
            strategy,
            &mut TraceBuilder::disabled(),
        )
    }

    /// Runs an insight query and captures a [`QueryTrace`] for it — the
    /// path behind [`explain`](crate::SessionHandle::explain) (`forced`)
    /// and per-session trace sampling. The trace is `None` when the `trace`
    /// cargo feature is compiled out, or when the trace was not forced and
    /// the tracer's runtime switch is off; the results are bit-identical to
    /// [`run_query_at`](Self::run_query_at) either way.
    pub fn run_query_traced(
        &self,
        query: &InsightQuery,
        mode: Mode,
        parallel: bool,
        forced: bool,
    ) -> Result<(Vec<InsightInstance>, Option<Arc<QueryTrace>>)> {
        self.run_query_traced_strategy(query, mode, parallel, CandidateStrategy::Auto, forced)
    }

    /// [`run_query_traced`](Self::run_query_traced) with an explicit
    /// candidate strategy — EXPLAIN under the session's knob.
    pub fn run_query_traced_strategy(
        &self,
        query: &InsightQuery,
        mode: Mode,
        parallel: bool,
        strategy: CandidateStrategy,
        forced: bool,
    ) -> Result<(Vec<InsightInstance>, Option<Arc<QueryTrace>>)> {
        let mut trace = self.tracer.begin_trace(query, mode, forced);
        if !trace.is_active() {
            return Ok((
                self.run_query_strategy(query, mode, parallel, strategy)?,
                None,
            ));
        }
        let start = clock::now_ns();
        let out = self.run_query_with(query, mode, parallel, strategy, &mut trace)?;
        let trace = self.tracer.finish(trace);
        self.tracer.maybe_record_slow(
            query,
            mode,
            clock::now_ns().saturating_sub(start),
            out.len(),
            trace.clone(),
        );
        Ok((out, trace))
    }

    fn run_query_with(
        &self,
        query: &InsightQuery,
        mode: Mode,
        parallel: bool,
        strategy: CandidateStrategy,
        trace: &mut TraceBuilder,
    ) -> Result<Vec<InsightInstance>> {
        if trace.is_active() {
            // staleness lands on the root span: which snapshot served this
            // query, and how far behind the ingest head it was
            trace.attr("snapshot_epoch", || self.epoch.to_string());
            if self.ingest_head.is_some() {
                trace.attr("rows_behind", || self.rows_behind().to_string());
            }
        }
        // When the strategy resolves to LSH for this class, the prebuilt
        // index (whose entries came from the exhaustive scan) must not
        // answer: the caller asked for collision-generated candidates.
        let lsh_preferred = match self.registry.get(&query.class_id) {
            Some(class) => self
                .candidate_source(strategy)
                .would_use_lsh(class.as_ref(), self.exec_table_at(mode)?),
            None => false,
        };
        if let Some(ix) = self
            .index
            .as_ref()
            .filter(|ix| ix.mode == mode && !lsh_preferred)
        {
            let span = self.metrics.span(Stage::IndexServe);
            trace.begin("index_serve");
            if let Some(out) = ix.index.query(
                self.exec_table_at(mode)?,
                &self.registry,
                query,
                &self.cache,
            ) {
                drop(span);
                self.metrics.record_query(&query.class_id, mode, true);
                trace.set_index_served();
                trace.attr("results", || out.len().to_string());
                trace.end();
                if trace.is_active() {
                    if let Some(first) = out.first() {
                        trace.set_metric(&first.metric);
                    }
                    trace.set_candidates(out.len(), out.len());
                    trace.record_results(self.exec_table_at(mode)?, &out);
                }
                return Ok(out);
            }
            // the index didn't cover the query; don't count a serve
            trace.attr("covered", || "false".to_owned());
            trace.end();
            span.cancel();
        }
        let out = self
            .executor_strategy(mode, parallel, strategy)?
            .execute_traced(query, trace)?;
        self.metrics.record_query(&query.class_id, mode, false);
        Ok(out)
    }

    /// Builds all carousels (one per class) for a session's focus set,
    /// under an explicit mode. Assembled in parallel (one task per class)
    /// when `config.parallel` is set.
    pub fn carousels_for(
        &self,
        session: &Session,
        config: &CarouselConfig,
        mode: Mode,
    ) -> Result<Vec<Carousel>> {
        self.carousels_strategy(session, config, mode, CandidateStrategy::Auto)
    }

    /// [`carousels_for`](Self::carousels_for) with an explicit candidate
    /// strategy: every pairwise class's carousel draws candidates through
    /// it.
    pub fn carousels_strategy(
        &self,
        session: &Session,
        config: &CarouselConfig,
        mode: Mode,
        strategy: CandidateStrategy,
    ) -> Result<Vec<Carousel>> {
        let executor = self.executor_strategy(mode, config.parallel, strategy)?;
        carousels_with(&executor, &self.registry, session, config)
    }

    /// Profiles the dataset under an explicit mode: per-column summaries
    /// plus the strongest instance of every registered class.
    ///
    /// A profile is a function of (snapshot, mode). The headlines are this
    /// core's own answers to `class.top_k(1)` under `mode` — served from
    /// the insight index when one exists for that mode, scored through the
    /// cached executor otherwise — so they are exactly what a session
    /// querying in that mode sees, and nothing is scored twice. Column
    /// summaries are exact on a materialized source; a sharded source in
    /// approximate mode takes them from the merged catalog with no shard
    /// concatenation.
    ///
    /// Memoized per snapshot and mode — the first call does the work,
    /// every later one clones the cached profile.
    pub fn profile_at(&self, mode: Mode) -> Result<DatasetProfile> {
        let memo = &self.profile_memo[match mode {
            Mode::Exact => 0,
            Mode::Approximate => 1,
        }];
        if let Some(profile) = memo.get() {
            return Ok(profile.clone());
        }
        let _span = self.metrics.span(Stage::Profile);
        let columns = if self.sketch_backed_at(mode) {
            let catalog = self.catalog.as_ref().ok_or(EngineError::NoCatalog)?;
            crate::profile::column_profiles_from_catalog(&self.source, catalog)
        } else {
            crate::profile::column_profiles(self.try_table()?)?
        };
        let mut headline_insights = Vec::new();
        for class in self.registry.classes() {
            headline_insights.append(&mut self.run_query_with(
                &InsightQuery::class(class.id()).top_k(1),
                mode,
                self.parallel,
                CandidateStrategy::Auto,
                &mut TraceBuilder::disabled(),
            )?);
        }
        let profile = DatasetProfile {
            name: self.source.name().to_owned(),
            rows: self.source.n_rows(),
            columns,
            headline_insights,
        };
        Ok(memo.get_or_init(|| profile).clone())
    }

    /// Profiles the dataset under the published default mode.
    pub fn profile(&self) -> Result<DatasetProfile> {
        self.profile_at(self.mode)
    }

    /// The chart for one insight instance (reads raw rows — errors on a
    /// sketch-only source).
    pub fn chart(&self, instance: &InsightInstance) -> Result<Option<ChartSpec>> {
        let class = self
            .registry
            .get(&instance.class_id)
            .ok_or_else(|| EngineError::UnknownClass(instance.class_id.clone()))?;
        Ok(class.chart(self.try_table()?, &instance.attrs))
    }

    /// The class-level overview chart (§2.1's third level of exploration).
    /// Reads raw rows.
    pub fn overview(&self, class_id: &str) -> Result<Option<ChartSpec>> {
        let class = self
            .registry
            .get(class_id)
            .ok_or_else(|| EngineError::UnknownClass(class_id.to_owned()))?;
        Ok(class.overview(self.try_table()?))
    }
}

/// The writer path: stages mutations against a (new or taken-over) core
/// and [`freeze`](CoreBuilder::freeze)s them into a fresh immutable
/// snapshot.
///
/// A builder made with [`CoreBuilder::from_arc`] inherits the published
/// core's source, catalog, registry, *and score cache*; when any staged
/// mutation could change scores, the freeze bumps the shared cache's epoch
/// so the new snapshot starts from a clean keyspace while readers of the
/// old snapshot continue unharmed (their stores land in the retired
/// epoch, never the new one).
pub struct CoreBuilder {
    source: TableSource,
    materialized: OnceLock<Table>,
    schema_table: OnceLock<Table>,
    /// Prepared columns over the staged raw rows; travels with them into
    /// the frozen snapshot and is replaced whenever they change.
    prepared: PreparedColumns,
    registry: Arc<InsightRegistry>,
    catalog: Option<SketchCatalog>,
    index: Option<IndexedAt>,
    lsh: Option<Arc<LshIndex>>,
    cache: Arc<ScoreCache>,
    epoch: u64,
    mode: Mode,
    parallel: bool,
    metrics: Arc<Metrics>,
    tracer: Arc<Tracer>,
    ingest_head: Option<Arc<AtomicU64>>,
    /// Whether a staged mutation could have changed *any* score (freeze
    /// then mints a wholly fresh cache epoch).
    dirty: bool,
    /// Columns perturbed by staged appends: the columns in which some
    /// appended batch carried at least one present value. A freeze with
    /// only column-level dirt keeps the index (rescoring just the tuples
    /// that touch these columns) and migrates clean cache entries into the
    /// new epoch instead of purging everything.
    dirty_columns: BTreeSet<usize>,
    /// Whether any batch (even a zero-row one) was appended — gates the
    /// ingest republish counters so batch-built cores report all zeros.
    appended: bool,
}

impl CoreBuilder {
    /// A builder over a fresh source with the 12 default insight classes,
    /// in exact mode, with a new score cache.
    pub fn new(source: TableSource) -> Self {
        let cache = Arc::new(ScoreCache::new());
        let epoch = cache.epoch();
        Self {
            source,
            materialized: OnceLock::new(),
            schema_table: OnceLock::new(),
            prepared: PreparedColumns::new(),
            registry: InsightRegistry::default().freeze(),
            catalog: None,
            index: None,
            lsh: None,
            cache,
            epoch,
            mode: Mode::Exact,
            parallel: rayon::current_num_threads() > 1,
            metrics: Arc::new(Metrics::new()),
            tracer: Arc::new(Tracer::new()),
            ingest_head: None,
            dirty: false,
            dirty_columns: BTreeSet::new(),
            appended: false,
        }
    }

    /// Takes over a published core for editing. When the `Arc` is uniquely
    /// held the core is moved (no copies); otherwise the shared pieces are
    /// cloned (the lazy materialization memo and the prepared columns are
    /// dropped rather than copied — they rebuild on demand) and readers of
    /// the original are untouched.
    pub fn from_arc(core: Arc<EngineCore>) -> Self {
        match Arc::try_unwrap(core) {
            Ok(core) => Self {
                source: core.source,
                materialized: core.materialized,
                schema_table: core.schema_table,
                prepared: core.prepared,
                registry: core.registry,
                catalog: core.catalog,
                index: core.index,
                lsh: core.lsh,
                cache: core.cache,
                epoch: core.epoch,
                mode: core.mode,
                parallel: core.parallel,
                metrics: core.metrics,
                tracer: core.tracer,
                ingest_head: core.ingest_head,
                dirty: false,
                dirty_columns: BTreeSet::new(),
                appended: false,
            },
            Err(shared) => Self {
                source: shared.source.clone(),
                materialized: OnceLock::new(),
                schema_table: OnceLock::new(),
                prepared: PreparedColumns::new(),
                registry: Arc::clone(&shared.registry),
                catalog: shared.catalog.clone(),
                index: shared.index.clone(),
                lsh: shared.lsh.clone(),
                cache: Arc::clone(&shared.cache),
                epoch: shared.epoch,
                mode: shared.mode,
                parallel: shared.parallel,
                metrics: Arc::clone(&shared.metrics),
                tracer: Arc::clone(&shared.tracer),
                ingest_head: shared.ingest_head.clone(),
                dirty: false,
                dirty_columns: BTreeSet::new(),
                appended: false,
            },
        }
    }

    /// Replaces the class roster wholesale (drops any staged index and
    /// marks scores dirty).
    pub fn with_registry(mut self, registry: InsightRegistry) -> Self {
        self.registry = registry.freeze();
        self.index = None;
        self.dirty = true;
        self
    }

    /// Plugs in an insight class (§2.2 extensibility). Drops any staged
    /// index; a re-registered id may score differently, so the freeze will
    /// mint a fresh cache epoch.
    pub fn register_class(&mut self, class: Arc<dyn InsightClass>) {
        Arc::make_mut(&mut self.registry).register(class);
        self.index = None;
        self.dirty = true;
    }

    fn try_table(&self) -> Result<&Table> {
        if let Some(t) = self.source.as_materialized() {
            return Ok(t);
        }
        if let Some(t) = self.materialized.get() {
            return Ok(t);
        }
        let t = self.source.materialize()?;
        Ok(self.materialized.get_or_init(|| t))
    }

    fn schema_table(&self) -> &Table {
        self.schema_table.get_or_init(|| self.source.schema_table())
    }

    /// Runs the paper's preprocessing phase: builds the sketch catalog and
    /// switches the published mode to approximate (interactive). For a
    /// sharded source the per-shard catalogs are built independently
    /// (fanned out with rayon when `config.parallel` is set) and merged —
    /// the shards themselves are never concatenated. Any staged insight
    /// index is dropped (its scores were computed in the old mode).
    ///
    /// # Errors
    /// [`EngineError::ExactUnavailable`] when the raw shards were dropped
    /// (a sketch-only source cannot be re-sketched);
    /// [`EngineError::Merge`] if per-shard catalogs fail to combine.
    pub fn preprocess(&mut self, config: &CatalogConfig) -> Result<()> {
        let _span = self.metrics.span(Stage::Preprocess);
        let catalog = match self.source.as_materialized() {
            Some(t) => {
                let _build = self.metrics.span(Stage::SketchBuild);
                SketchCatalog::build(t, config)
            }
            None => {
                if self.source.is_sketch_only() {
                    return Err(EngineError::ExactUnavailable(
                        "cannot rebuild the catalog: the raw shards were dropped",
                    ));
                }
                // per-shard builds + the sequential merge fold both happen
                // inside build_sharded; the whole fan-out is one build span
                let _build = self.metrics.span(Stage::SketchBuild);
                let shards: Vec<&Table> = self.source.shards().collect();
                SketchCatalog::build_sharded(&shards, config)?
            }
        };
        self.catalog = Some(catalog);
        self.mode = Mode::Approximate;
        self.index = None;
        // approximate-mode entries would reflect the old catalog
        self.dirty = true;
        Ok(())
    }

    /// Ingests one more disjoint row partition.
    ///
    /// The shard is appended to the source (a materialized table is
    /// promoted to a sharded source in place) and, when a catalog exists,
    /// sketched at its global row offset and merged in — no rebuild, no
    /// concatenation.
    ///
    /// Invalidation is *column-granular*: only the columns in which the
    /// batch carries at least one present value are marked dirty. The
    /// freeze then keeps any staged index (rescoring just the tuples that
    /// touch a dirty column) and migrates clean cache entries into the new
    /// epoch — a column whose appended rows are all null keeps bit-identical
    /// sketches and NaN-masked exact statistics, so its scores stand.
    /// A zero-row batch short-circuits entirely: the schema is still
    /// validated, but nothing is invalidated, sketched, or merged.
    ///
    /// Returns the appended shard's global row offset.
    ///
    /// # Errors
    /// Schema mismatches surface as [`EngineError::Data`]; catalog merge
    /// failures as [`EngineError::Merge`].
    pub fn append_shard(&mut self, shard: Table) -> Result<usize> {
        self.append_shard_arc(Arc::new(shard))
    }

    /// [`CoreBuilder::append_shard`] for a batch already behind an `Arc` —
    /// the stream writer's path, where the same batch also feeds a windowed
    /// catalog without copying rows.
    pub fn append_shard_arc(&mut self, shard: Arc<Table>) -> Result<usize> {
        if shard.n_rows() == 0 {
            // zero-row short-circuit: validate the schema, change nothing
            return Ok(self.source.append_shard_arc(shard)?);
        }
        let rows = shard.n_rows() as u64;
        let touched = present_columns(&shard);
        let offset = self.source.append_shard_arc(Arc::clone(&shard))?;
        self.appended = true;
        // the rows changed: everything derived from them goes with them
        self.materialized = OnceLock::new();
        self.prepared = PreparedColumns::new();
        self.dirty_columns.extend(touched);
        self.metrics.record_ingest_batch(rows);
        if let Some(catalog) = self.catalog.as_mut() {
            let config = catalog.config().clone();
            let build = self.metrics.span(Stage::SketchBuild);
            let shard_catalog = SketchCatalog::build_shard(&shard, &config, offset as u64);
            drop(build);
            let _merge = self.metrics.span(Stage::SketchMerge);
            catalog.merge(&shard_catalog)?;
            self.metrics.record_ingest_merge();
        }
        Ok(offset)
    }

    /// Attaches (or detaches) the live ingest-head row counter snapshots
    /// frozen from this builder report staleness against. Set by
    /// [`crate::StreamWriter`]; inherited across
    /// [`CoreBuilder::from_arc`] takeovers.
    pub fn set_ingest_head(&mut self, head: Option<Arc<AtomicU64>>) {
        self.ingest_head = head;
    }

    /// Replaces the shared tracer with one sized to `ring` retained traces
    /// and `slow` slow-log entries (each clamped to at least 1) — capture
    /// depth is a per-core construction choice, not a hardcoded constant,
    /// so server operators can deepen it for debugging or shrink it to
    /// bound memory. Any traces and slow-log entries captured so far (by
    /// this builder or by cores sharing the previous tracer) are dropped;
    /// the threshold and runtime switch reset to their defaults. Snapshots
    /// frozen later inherit the new tracer.
    pub fn set_trace_capacities(&mut self, ring: usize, slow: usize) {
        self.tracer = Arc::new(Tracer::with_capacities(ring, slow));
    }

    /// Sets the published default between exact and approximate scoring.
    /// Cached scores stay valid — the mode is part of every cache key.
    ///
    /// # Errors
    /// Approximate mode requires a prior [`CoreBuilder::preprocess`];
    /// exact mode requires raw rows the source can still provide.
    pub fn set_mode(&mut self, mode: Mode) -> Result<()> {
        match mode {
            Mode::Approximate if self.catalog.is_none() => Err(EngineError::NoCatalog),
            Mode::Exact if self.source.is_sketch_only() => Err(EngineError::ExactUnavailable(
                "exact mode needs raw rows, but this source kept only sketches",
            )),
            _ => {
                self.mode = mode;
                Ok(())
            }
        }
    }

    /// Sets the published default for rayon-parallel execution.
    pub fn set_parallel(&mut self, on: bool) {
        self.parallel = on;
    }

    /// Stages the insight index — the "indexes" of the paper's
    /// preprocessing triad, built eagerly against the current source,
    /// catalog, and mode. Basic top-k queries on the frozen core are then
    /// answered from a precomputed sorted list without re-scoring.
    ///
    /// # Errors
    /// [`EngineError::ExactUnavailable`] when the index would need raw
    /// rows a sketch-only source cannot provide; [`EngineError::NoCatalog`]
    /// for a sketch-only source with no catalog restored.
    pub fn build_index(&mut self) -> Result<()> {
        let _span = self.metrics.span(Stage::IndexBuild);
        let index = crate::index::InsightIndex::build(&self.index_executor(self.mode)?);
        self.index = Some(IndexedAt {
            index,
            mode: self.mode,
        });
        Ok(())
    }

    /// The executor an index of `mode` is scored through: the staged
    /// source, catalog, registry and telemetry, and *no* cache — nothing
    /// staged has an epoch yet; [`freeze`](Self::freeze) hands the index's
    /// scores to the cache under the one it publishes. Serial: every exact
    /// score of a primary-metric pass is batched, so rayon would split only
    /// the sketch estimates — microseconds of work per class, less than
    /// the split costs on every republish.
    fn index_executor(&self, mode: Mode) -> Result<Executor<'_>> {
        // sketch-backed: the executor sees only the zero-row schema table,
        // so there are no raw rows for prepared columns to derive from
        let sketch_backed = mode == Mode::Approximate && self.source.as_materialized().is_none();
        let ex = match mode {
            Mode::Approximate => {
                let catalog = self.catalog.as_ref().ok_or(EngineError::NoCatalog)?;
                let table = if sketch_backed {
                    self.schema_table()
                } else {
                    self.try_table()?
                };
                Executor::approximate(table, &self.registry, catalog).sketch_only(sketch_backed)
            }
            Mode::Exact => Executor::exact(self.try_table()?, &self.registry),
        };
        let ex = if sketch_backed {
            ex
        } else {
            ex.with_prepared(&self.prepared)
        };
        Ok(ex.with_metrics(&self.metrics))
    }

    /// Restores a previously persisted catalog (or lack of one) as part of
    /// [`crate::Foresight::load_state`]. A restored catalog switches the
    /// published mode to approximate. The restored catalog is not the one
    /// cached scores came from, so the freeze mints a fresh epoch.
    pub fn restore_catalog(&mut self, catalog: Option<SketchCatalog>) {
        if catalog.is_some() {
            self.catalog = catalog;
            self.mode = Mode::Approximate;
        }
        self.index = None;
        self.dirty = true;
    }

    /// Refreshes a staged index in place after appends: tuples touching a
    /// dirty column are rescored, everything else carries over. Drops the
    /// index instead when it needs raw rows the source can no longer
    /// provide.
    fn refresh_index(&mut self) -> Option<crate::index::RefreshStats> {
        let mut ix = self.index.take()?;
        let dirty: Vec<usize> = self.dirty_columns.iter().copied().collect();
        let _span = self.metrics.span(Stage::IndexRefresh);
        let stats = ix
            .index
            .refresh(&self.index_executor(ix.mode).ok()?, &dirty);
        self.index = Some(ix);
        Some(stats)
    }

    /// Publishes the staged state as a new immutable snapshot.
    ///
    /// Invalidation is proportional to what actually changed:
    ///
    /// * a score-global mutation (registry change, preprocess, catalog
    ///   restore) bumps the shared cache's epoch outright — the new
    ///   snapshot starts from a clean keyspace;
    /// * appends that dirtied only some columns keep the staged index
    ///   (rescoring just the tuples that touch a dirty column) and
    ///   *migrate* clean cache entries into the new epoch instead of
    ///   purging them;
    /// * a no-op republish (nothing staged, or only zero-row batches)
    ///   keeps the epoch — warm cache and index survive untouched.
    ///
    /// Whatever a staged index scored since the last freeze — a cold
    /// [`build_index`](Self::build_index) or the incremental refresh above
    /// — is then stored in the score cache under the published epoch.
    ///
    /// Readers of older snapshots keep their own (now-retired) keyspace
    /// either way.
    pub fn freeze(mut self) -> Arc<EngineCore> {
        // keep the registry alive past the field-by-field move below
        let metrics = Arc::clone(&self.metrics);
        let _span = metrics.span(Stage::Freeze);
        let refresh = if self.index.is_some() && !self.dirty_columns.is_empty() {
            self.refresh_index()
        } else {
            None
        };
        // Maintain the LSH candidate index alongside the catalog: rebuilt
        // on score-global mutations (or when absent), refreshed column-wise
        // after appends — clean columns keep bit-identical signatures, so
        // the refresh is provably identical to a cold rebuild — and shared
        // untouched on a clean republish.
        self.lsh = match self.catalog.as_ref() {
            _ if crate::candidates::lsh_disabled() => None,
            None => None,
            Some(catalog) => match self.lsh.take().filter(|_| !self.dirty) {
                None => {
                    let _span = metrics.span(Stage::LshBuild);
                    LshIndex::build(catalog).map(Arc::new)
                }
                Some(prev) if !self.dirty_columns.is_empty() => {
                    let dirty: Vec<usize> = self.dirty_columns.iter().copied().collect();
                    let mut ix = Arc::try_unwrap(prev).unwrap_or_else(|a| (*a).clone());
                    let _span = metrics.span(Stage::LshBuild);
                    ix.refresh(catalog, &dirty);
                    Some(Arc::new(ix))
                }
                Some(prev) => Some(prev),
            },
        };
        let epoch = if self.dirty {
            if self.appended {
                metrics.record_republish_full();
            }
            self.cache.bump_epoch()
        } else if !self.dirty_columns.is_empty() {
            let dirty = std::mem::take(&mut self.dirty_columns);
            let (epoch, migrated) = self.cache.bump_epoch_retaining(|_, attrs| {
                attrs.indices().iter().all(|i| !dirty.contains(i))
            });
            let stats = refresh.unwrap_or_default();
            metrics.record_republish_incremental(
                stats.classes_rescored as u64,
                stats.tuples_rescored as u64,
                stats.tuples_reused as u64,
                migrated,
            );
            epoch
        } else {
            if self.appended {
                metrics.record_republish_clean();
            }
            self.epoch
        };
        // after the bump, so the index's scores land in the published
        // keyspace and no reader of a retired epoch sees them; in the order
        // they were computed, so a refresh's score replaces the one an
        // unpublished build gave the same tuple before the append
        if let Some(ix) = self.index.as_mut() {
            for (class_id, scores) in ix.index.take_fresh() {
                self.cache
                    .store_batch(class_id, &scores, ix.mode, None, epoch);
            }
        }
        Arc::new(EngineCore {
            source: self.source,
            materialized: self.materialized,
            schema_table: self.schema_table,
            prepared: self.prepared,
            registry: self.registry,
            catalog: self.catalog,
            index: self.index,
            lsh: self.lsh,
            cache: self.cache,
            epoch,
            mode: self.mode,
            parallel: self.parallel,
            metrics: self.metrics,
            tracer: self.tracer,
            ingest_head: self.ingest_head,
            published_at_ns: clock::now_ns(),
            profile_memo: [OnceLock::new(), OnceLock::new()],
        })
    }
}

/// Columns of `shard` carrying at least one present value — the only
/// columns an append can perturb. A column whose appended rows are all
/// null keeps bit-identical sketches (every sketch family skips or
/// zero-weights nulls, and merging an empty contribution is a no-op) and
/// NaN-masked exact statistics, so its cached scores and index entries
/// remain exactly valid.
fn present_columns(shard: &Table) -> Vec<usize> {
    let mut touched = Vec::new();
    for idx in shard.numeric_indices() {
        let present = shard
            .numeric(idx)
            .map(|c| c.null_count() < c.values().len())
            .unwrap_or(true);
        if present {
            touched.push(idx);
        }
    }
    for idx in shard.categorical_indices() {
        let present = shard
            .categorical(idx)
            .map(|c| c.present_codes().next().is_some())
            .unwrap_or(true);
        if present {
            touched.push(idx);
        }
    }
    touched.sort_unstable();
    touched
}

#[cfg(test)]
mod tests {
    use super::*;
    use foresight_data::datasets;

    #[test]
    fn core_is_send_sync_and_shareable() {
        let core = CoreBuilder::new(TableSource::materialized(datasets::oecd())).freeze();
        let q = InsightQuery::class("linear-relationship").top_k(2);
        let a = core.run_query(&q).unwrap();
        let other = Arc::clone(&core);
        let b = std::thread::spawn(move || other.run_query(&q).unwrap())
            .join()
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn republish_keeps_old_snapshot_consistent() {
        let mut builder = CoreBuilder::new(TableSource::materialized(datasets::oecd()));
        builder.preprocess(&CatalogConfig::default()).unwrap();
        let old = builder.freeze();
        let q = InsightQuery::class("skew").top_k(3);
        let before = old.run_query(&q).unwrap();

        // writer republishes with a different roster; the old Arc is live
        let mut writer = CoreBuilder::from_arc(Arc::clone(&old));
        writer.register_class(InsightRegistry::default().classes()[0].clone());
        let new = writer.freeze();

        assert_ne!(old.epoch(), new.epoch(), "republish mints a new epoch");
        // the old snapshot still answers, bit-identically
        assert_eq!(old.run_query(&q).unwrap(), before);
        assert_eq!(new.run_query(&q).unwrap(), before);
    }

    #[test]
    fn clean_republish_keeps_epoch_and_cache() {
        let core = CoreBuilder::new(TableSource::materialized(datasets::oecd())).freeze();
        core.run_query(&InsightQuery::class("skew").top_k(2))
            .unwrap();
        let entries = core.cache_stats().entries;
        assert!(entries > 0);
        let mut writer = CoreBuilder::from_arc(Arc::clone(&core));
        writer.set_parallel(false);
        let new = writer.freeze();
        assert_eq!(core.epoch(), new.epoch());
        assert_eq!(new.cache_stats().entries, entries, "warm cache survives");
    }

    #[test]
    fn mode_tagged_index_only_serves_matching_mode() {
        let mut builder = CoreBuilder::new(TableSource::materialized(datasets::oecd()));
        builder.build_index().unwrap();
        builder.preprocess(&CatalogConfig::default()).unwrap();
        // preprocess dropped the exact-mode index
        let core = builder.freeze();
        assert!(core.insight_index().is_none());

        let mut builder = CoreBuilder::from_arc(core);
        builder.build_index().unwrap();
        let core = builder.freeze();
        assert!(core.insight_index().is_some());
        let q = InsightQuery::class("linear-relationship").top_k(2);
        // approximate (the index's mode) and exact both answer; exact must
        // come from the executor, not the approximate index
        let approx = core.run_query_at(&q, Mode::Approximate, false).unwrap();
        let exact = core.run_query_at(&q, Mode::Exact, false).unwrap();
        assert_eq!(approx.len(), 2);
        assert_eq!(exact.len(), 2);
        assert!(exact[0].detail != approx[0].detail || exact[0].score != approx[0].score);
    }
}
