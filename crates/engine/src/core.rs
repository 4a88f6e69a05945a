//! The shared service core and its writer path.
//!
//! [`EngineCore`] is the immutable heart of the engine: the table source,
//! the merged sketch catalog, the frozen class registry, the (internally
//! synchronized) score cache, and the snapshot's score planes and rank
//! orders. Every read
//! path — queries, carousels, profiles, charts — takes `&self`, so one
//! `Arc<EngineCore>` serves any number of concurrent sessions without a
//! lock around the engine itself.
//!
//! Mutations go through [`CoreBuilder`]: take (or clone out of) a
//! published core, apply `register_class` / `preprocess` / `append_shard` /
//! catalog restores, and [`CoreBuilder::freeze`] a *new* snapshot. Readers
//! holding the old `Arc` keep answering from a consistent catalog; the
//! freeze mints a fresh score-cache epoch, with a new store of planes,
//! whenever scores could have changed, so snapshots never exchange stale
//! scores (see [`crate::order`]).

use crate::cache::{CacheStats, ScoreCache};
use crate::candidates::{CandidateSource, CandidateStrategy};
use crate::error::{EngineError, Result};
use crate::executor::{Executor, Mode};
use crate::order::{Carried, RankOrders};
use crate::profile::DatasetProfile;
use crate::query::InsightQuery;
use crate::recommend::{Carousel, CarouselConfig};
use crate::session::Session;
use crate::telemetry::{clock, Counter, Metrics, MetricsSnapshot, Stage};
use crate::trace::{Explained, Recorder, Tracer};
use foresight_data::{Table, TableSource};
use foresight_insight::{AttrTuple, InsightClass, InsightInstance, InsightRegistry};
use foresight_sketch::lsh::LshIndex;
use foresight_sketch::{CatalogConfig, Mergeable, SketchCatalog};
use foresight_stats::prepared::PreparedColumns;
use foresight_viz::ChartSpec;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// How a query is traced — see [`EngineCore::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceMode {
    /// Untraced: no trace is begun, and the dormant trace layer costs one
    /// relaxed load of the slow-query threshold.
    #[default]
    Off,
    /// Traced by a session's sampling schedule.
    Sampled,
    /// Traced on demand — EXPLAIN.
    Forced,
}

/// How a query is answered, resolved once per call: the scoring mode, the
/// rayon-parallel flag, the candidate strategy and the trace setting.
///
/// [`EngineCore::options`] gives a snapshot's published defaults; a
/// [`SessionHandle`](crate::SessionHandle) holds one `QueryOptions`,
/// seeded from them and overridden by its setters, and passes it whole to
/// [`EngineCore::run`], [`EngineCore::carousels`] and the executor.
/// Nothing below the entry point re-reads a default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryOptions {
    /// Exact or sketch-backed scoring.
    pub mode: Mode,
    /// Rayon-parallel scoring of per-candidate work (and one carousel per
    /// task).
    pub parallel: bool,
    /// How pairwise classes generate candidates.
    pub candidates: CandidateStrategy,
    /// Whether [`EngineCore::run`] captures a trace.
    pub trace: TraceMode,
}

/// The raw side of a snapshot: the source and what derives from its rows
/// alone. A staged builder and the core it freezes hold one each, and both
/// build their executors through [`Rows::executor`].
struct Rows {
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
}

impl Rows {
    fn new(source: TableSource) -> Self {
        Self {
            source,
            materialized: OnceLock::new(),
            schema_table: OnceLock::new(),
            prepared: PreparedColumns::new(),
        }
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

    /// Whether `mode` runs off the merged catalog with no raw-row fallback.
    fn sketch_backed(&self, mode: Mode) -> bool {
        self.source.as_materialized().is_none() && mode == Mode::Approximate
    }

    /// The table the executor runs against under `mode`: the real rows
    /// when available and needed, a zero-row schema table when a sharded
    /// source answers from sketches alone.
    fn exec_table(&self, mode: Mode) -> Result<&Table> {
        if self.sketch_backed(mode) {
            Ok(self.schema_table.get_or_init(|| self.source.schema_table()))
        } else {
            self.try_table()
        }
    }

    /// The one executor constructor: these rows, `catalog` and `registry`
    /// under `mode`, reporting to `metrics`. Serial, uncached and
    /// exhaustive — [`EngineCore::executor`] adds the query's options, the
    /// snapshot's cache and its rank orders; a freeze completing the orders
    /// adds the cache and the orders alone.
    fn executor<'a>(
        &'a self,
        registry: &'a InsightRegistry,
        catalog: Option<&'a SketchCatalog>,
        metrics: &'a Metrics,
        mode: Mode,
    ) -> Result<Executor<'a>> {
        let sketch_backed = self.sketch_backed(mode);
        let ex = match (mode, catalog) {
            (Mode::Approximate, Some(catalog)) => {
                Executor::approximate(self.exec_table(mode)?, registry, catalog)
                    .sketch_only(sketch_backed)
            }
            (Mode::Approximate, None) => return Err(EngineError::NoCatalog),
            (Mode::Exact, _) => Executor::exact(self.try_table()?, registry),
        };
        // the store is over the raw rows; a sketch-backed executor sees only
        // the zero-row schema table and scores nothing exactly
        let ex = if sketch_backed {
            ex
        } else {
            ex.with_prepared(&self.prepared)
        };
        Ok(ex.with_metrics(metrics))
    }
}

/// The immutable, `Arc`-shareable engine core: everything about a dataset
/// that is *not* per-user exploration state.
///
/// All query paths take `&self`; the only interior mutability is the
/// [`ScoreCache`]'s memo and counters, the planes' atomic words, and the
/// `OnceLock` memos (lazy shard concatenation, the zero-row schema table,
/// the prepared columns, the planes and rank orders), each of which is
/// synchronized and write-once. The type is
/// `Send + Sync` by construction — share it across threads with [`Arc`]
/// and hand each user a [`crate::SessionHandle`].
pub struct EngineCore {
    rows: Rows,
    registry: Arc<InsightRegistry>,
    catalog: Option<SketchCatalog>,
    /// The mode [`CoreBuilder::build_index`] asked rank orders for: every
    /// freeze completes every class's order under it.
    index: Option<Mode>,
    /// Every keyspace's score plane, partial or complete, and each complete
    /// one's rank order (see [`RankOrders`]): the scores of the cache's
    /// `epoch`, so the store lives exactly as long. A clean republish
    /// shares it; a freeze that mints an epoch starts a new one, carrying
    /// the planes forward when only some columns changed.
    orders: Arc<RankOrders>,
    /// The LSH candidate index over the catalog's hyperplane signatures,
    /// maintained by the freeze path whenever a catalog exists. Arc'd so a
    /// clean republish shares it with the previous snapshot.
    lsh: Option<Arc<LshIndex>>,
    cache: Arc<ScoreCache>,
    /// The score-cache data generation of this snapshot's planes. Fixed at
    /// freeze time: readers of an older snapshot keep their own store even
    /// while a newer snapshot is live.
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
        &self.rows.source
    }

    /// The frozen class registry.
    pub fn registry(&self) -> &InsightRegistry {
        &self.registry
    }

    /// The sketch catalog, if preprocessing ran.
    pub fn catalog(&self) -> Option<&SketchCatalog> {
        self.catalog.as_ref()
    }

    /// The snapshot's rank orders (see [`RankOrders`]) — exposed for their
    /// occupancy and byte gauges.
    pub fn rank_orders(&self) -> &RankOrders {
        &self.orders
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

    /// The score-cache data generation this snapshot reads through.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Rows this snapshot covers.
    pub fn snapshot_rows(&self) -> u64 {
        self.rows.source.n_rows() as u64
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

    /// Hit/miss/occupancy/purge counters of the shared score cache, its
    /// entries counting this snapshot's planes too.
    pub fn cache_stats(&self) -> CacheStats {
        let mut stats = self.cache.stats();
        stats.entries += self.orders.entries();
        stats
    }

    /// The shared telemetry registry (live counters; see
    /// [`EngineCore::metrics_snapshot`] for the plain-data view).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// A deterministic point-in-time snapshot of the telemetry registry,
    /// with score-cache traffic and resource gauges folded in.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.metrics.snapshot_with_cache(Some(&self.cache_stats()));
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
            prepared_bytes: self.rows.prepared.approx_bytes() as u64,
            orders_bytes: self.orders.approx_bytes() as u64,
            planes_bytes: self.orders.plane_bytes() as u64,
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
            let stats = self.cache_stats();
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

    /// The shared request-tracing registry: recent traces and the
    /// slow-query log.
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
        self.rows.try_table()
    }

    /// The snapshot's store of prepared columns (see
    /// [`PreparedColumns`]) — exposed for its occupancy and byte gauges.
    pub fn prepared_columns(&self) -> &PreparedColumns {
        &self.rows.prepared
    }

    /// The published defaults every query starts from: the snapshot's
    /// mode and parallelism, [`CandidateStrategy::Auto`], untraced. A
    /// [`SessionHandle`](crate::SessionHandle) seeds its own options from
    /// these and overrides them per user.
    pub fn options(&self) -> QueryOptions {
        QueryOptions {
            mode: self.mode,
            parallel: self.parallel,
            candidates: CandidateStrategy::Auto,
            trace: TraceMode::Off,
        }
    }

    /// An executor over this snapshot under `opts` (its trace setting is
    /// not consulted). Scores read and write the snapshot's planes, counted
    /// in the shared cache, and unfixed queries walk (or fill) its rank
    /// orders.
    pub(crate) fn executor(&self, opts: &QueryOptions) -> Result<Executor<'_>> {
        Ok(self
            .rows
            .executor(
                &self.registry,
                self.catalog.as_ref(),
                &self.metrics,
                opts.mode,
            )?
            .parallel(opts.parallel)
            .with_cache(&self.cache)
            .with_orders(&self.orders)
            .with_candidates(self.candidate_source(opts.candidates)))
    }

    /// Runs an insight query under `opts` — the one query entry point.
    /// Stateless: nothing is recorded; sessions record their own history.
    ///
    /// An unfixed, undiversified primary-metric query whose candidates are
    /// the class scan walks the class's rank order once one is filled for
    /// `opts.mode`; LSH plans, pinned walks, alternative metrics and MMR
    /// are scored.
    ///
    /// The trace is `Some` exactly when `opts.trace` asks for one
    /// ([`TraceMode::Sampled`] or [`TraceMode::Forced`]). The results are
    /// bit-identical whatever `opts.trace` says.
    pub fn run(&self, query: &InsightQuery, opts: &QueryOptions) -> Result<Explained> {
        let mut rec = self
            .tracer
            .recorder(Some(&self.metrics), query, opts.mode, opts.trace);
        let results = self.run_with(query, opts, &mut rec)?;
        let trace = self.tracer.finish(rec, query, opts.mode, results.len());
        Ok(Explained { results, trace })
    }

    fn run_with(
        &self,
        query: &InsightQuery,
        opts: &QueryOptions,
        rec: &mut Recorder<'_>,
    ) -> Result<Vec<InsightInstance>> {
        if rec.is_traced() {
            // staleness lands on the root span: which snapshot served this
            // query, and how far behind the ingest head it was
            rec.attr("snapshot_epoch", || self.epoch.to_string());
            if self.ingest_head.is_some() {
                rec.attr("rows_behind", || self.rows_behind().to_string());
            }
        }
        let (out, walked) = self.executor(opts)?.execute_recorded(query, rec)?;
        self.metrics
            .record_query(&query.class_id, opts.mode, walked);
        Ok(out)
    }

    /// Builds all carousels (one per class) for a session's focus set
    /// under `opts` (untraced: its trace setting is not consulted).
    /// Assembled in parallel (one task per class) when `opts.parallel` is
    /// set.
    pub fn carousels(
        &self,
        session: &Session,
        config: &CarouselConfig,
        opts: &QueryOptions,
    ) -> Result<Vec<Carousel>> {
        crate::recommend::carousels(&self.executor(opts)?, session, config)
    }

    /// Profiles the dataset under `mode`: per-column summaries plus the
    /// strongest instance of every registered class.
    ///
    /// A profile is a function of (snapshot, mode). The headlines are this
    /// core's own answers to `class.top_k(1)` under `mode` — walked from
    /// the class's rank order when filled, scored through the cached
    /// executor otherwise — so they are exactly what a session querying in
    /// that mode sees, and nothing is scored twice. Column summaries are
    /// exact on a materialized source; a sharded source in approximate mode
    /// takes them from the merged catalog with no shard concatenation.
    ///
    /// Memoized per snapshot and mode — the first call does the work,
    /// every later one clones the cached profile.
    pub fn profile(&self, mode: Mode) -> Result<DatasetProfile> {
        let memo = &self.profile_memo[match mode {
            Mode::Exact => 0,
            Mode::Approximate => 1,
        }];
        if let Some(profile) = memo.get() {
            return Ok(profile.clone());
        }
        let _span = self.metrics.span(Stage::Profile);
        let columns = if self.rows.sketch_backed(mode) {
            let catalog = self.catalog.as_ref().ok_or(EngineError::NoCatalog)?;
            crate::profile::column_profiles_from_catalog(&self.rows.source, catalog)
        } else {
            crate::profile::column_profiles(self.try_table()?)?
        };
        let opts = QueryOptions {
            mode,
            ..self.options()
        };
        let mut headline_insights = Vec::new();
        for class in self.registry.classes() {
            headline_insights.append(&mut self.run_with(
                &InsightQuery::class(class.id()).top_k(1),
                &opts,
                &mut Recorder::untraced(Some(&self.metrics)),
            )?);
        }
        let profile = DatasetProfile {
            name: self.rows.source.name().to_owned(),
            rows: self.rows.source.n_rows(),
            columns,
            headline_insights,
        };
        Ok(memo.get_or_init(|| profile).clone())
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
/// and the new snapshot starts a new store of planes, while readers of the
/// old snapshot continue unharmed (their stores land in the retired
/// snapshot's planes, never the new one's).
pub struct CoreBuilder {
    /// The staged rows; they travel into the frozen snapshot, and their
    /// memos are replaced whenever the rows change.
    rows: Rows,
    registry: Arc<InsightRegistry>,
    catalog: Option<SketchCatalog>,
    index: Option<Mode>,
    orders: Arc<RankOrders>,
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
    /// only column-level dirt carries the planes' clean scores into the new
    /// epoch instead of dropping everything, so completing the rank orders
    /// rescores just the tuples that touch these columns.
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
            rows: Rows::new(source),
            registry: InsightRegistry::default().freeze(),
            catalog: None,
            index: None,
            orders: Arc::new(RankOrders::new()),
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
                rows: core.rows,
                registry: core.registry,
                catalog: core.catalog,
                index: core.index,
                orders: core.orders,
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
                rows: Rows::new(shared.rows.source.clone()),
                registry: Arc::clone(&shared.registry),
                catalog: shared.catalog.clone(),
                index: shared.index,
                orders: Arc::clone(&shared.orders),
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

    /// Replaces the class roster wholesale (drops any staged index request
    /// and marks scores dirty).
    pub fn with_registry(mut self, registry: InsightRegistry) -> Self {
        self.registry = registry.freeze();
        self.index = None;
        self.dirty = true;
        self
    }

    /// Plugs in an insight class (§2.2 extensibility). Drops any staged
    /// index request; a re-registered id may score differently, so the
    /// freeze will mint a fresh cache epoch.
    pub fn register_class(&mut self, class: Arc<dyn InsightClass>) {
        Arc::make_mut(&mut self.registry).register(class);
        self.index = None;
        self.dirty = true;
    }

    /// Runs the paper's preprocessing phase: builds the sketch catalog and
    /// switches the published mode to approximate (interactive). For a
    /// sharded source the per-shard catalogs are built independently
    /// (fanned out with rayon when `config.parallel` is set) and merged —
    /// the shards themselves are never concatenated. Any staged index
    /// request is dropped (it asked for the old mode).
    ///
    /// # Errors
    /// [`EngineError::ExactUnavailable`] when the raw shards were dropped
    /// (a sketch-only source cannot be re-sketched);
    /// [`EngineError::Merge`] if per-shard catalogs fail to combine.
    pub fn preprocess(&mut self, config: &CatalogConfig) -> Result<()> {
        let _span = self.metrics.span(Stage::Preprocess);
        let source = &self.rows.source;
        let catalog = match source.as_materialized() {
            Some(t) => {
                let _build = self.metrics.span(Stage::SketchBuild);
                SketchCatalog::build(t, config)
            }
            None => {
                if source.is_sketch_only() {
                    return Err(EngineError::ExactUnavailable(
                        "cannot rebuild the catalog: the raw shards were dropped",
                    ));
                }
                // per-shard builds + the sequential merge fold both happen
                // inside build_sharded; the whole fan-out is one build span
                let _build = self.metrics.span(Stage::SketchBuild);
                let shards: Vec<&Table> = source.shards().collect();
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
    /// freeze then carries the planes' clean scores into the new epoch, and
    /// completing the rank orders rescores just the tuples that touch a
    /// dirty column — a column whose appended rows are all null keeps
    /// bit-identical sketches and NaN-masked exact statistics, so its
    /// scores stand.
    /// A zero-row batch short-circuits entirely: the schema is still
    /// validated, but nothing is invalidated, sketched, or merged.
    ///
    /// Returns the appended shard's global row offset.
    ///
    /// # Errors
    /// Schema mismatches surface as [`EngineError::Data`]; catalog merge
    /// failures as [`EngineError::Merge`].
    pub fn append_shard(&mut self, shard: Table) -> Result<usize> {
        if shard.n_rows() == 0 {
            // zero-row short-circuit: validate the schema, change nothing
            return Ok(self.rows.source.append_shard(shard)?);
        }
        let rows = shard.n_rows() as u64;
        let touched = present_columns(&shard);
        let offset = self.rows.source.append_shard(shard)?;
        self.appended = true;
        // the rows changed: everything derived from them goes with them
        self.rows.materialized = OnceLock::new();
        self.rows.prepared = PreparedColumns::new();
        self.dirty_columns.extend(touched);
        self.metrics.add(Counter::IngestBatches, 1);
        self.metrics.add(Counter::IngestRows, rows);
        if let Some(catalog) = self.catalog.as_mut() {
            let config = catalog.config().clone();
            let build = self.metrics.span(Stage::SketchBuild);
            // shards iterate in global row order: the last is this batch
            let shard = self.rows.source.shards().last().expect("just appended");
            let shard_catalog = SketchCatalog::build_shard(shard, &config, offset as u64);
            drop(build);
            let _merge = self.metrics.span(Stage::SketchMerge);
            catalog.merge(&shard_catalog)?;
            self.metrics.add(Counter::IngestMerges, 1);
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

    /// Sets the published default between exact and approximate scoring.
    /// Cached scores stay valid — the mode is part of every cache key.
    ///
    /// # Errors
    /// Approximate mode requires a prior [`CoreBuilder::preprocess`];
    /// exact mode requires raw rows the source can still provide.
    pub fn set_mode(&mut self, mode: Mode) -> Result<()> {
        match mode {
            Mode::Approximate if self.catalog.is_none() => Err(EngineError::NoCatalog),
            Mode::Exact if self.rows.source.is_sketch_only() => Err(EngineError::ExactUnavailable(
                "exact mode needs raw rows, but this source kept only sketches",
            )),
            _ => {
                self.mode = mode;
                Ok(())
            }
        }
    }

    /// Drops every cached score: the shared cache's memo and counters, and
    /// the staged planes and rank orders. Readers of published snapshots
    /// keep their own planes.
    pub fn clear_scores(&mut self) {
        self.cache.clear();
        self.orders = Arc::new(RankOrders::new());
    }

    /// Sets the published default for rayon-parallel execution.
    pub fn set_parallel(&mut self, on: bool) {
        self.parallel = on;
    }

    /// Asks for the paper's "indexes" (§3): every freeze from here on
    /// completes every class's rank order under the current mode — scored
    /// through the snapshot's cache, so the first carousels and profile
    /// walk orders and score nothing. Dropped by anything that changes the
    /// mode or the roster.
    ///
    /// # Errors
    /// [`EngineError::ExactUnavailable`] when the orders would need raw
    /// rows a sketch-only source cannot provide; [`EngineError::NoCatalog`]
    /// for a sketch-only source with no catalog restored.
    pub fn build_index(&mut self) -> Result<()> {
        // fail here rather than at freeze
        self.rows.executor(
            &self.registry,
            self.catalog.as_ref(),
            &self.metrics,
            self.mode,
        )?;
        self.index = Some(self.mode);
        Ok(())
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

    /// Completes every order `carried` from the previous generation, then
    /// every class's primary-metric order under the mode
    /// [`build_index`](Self::build_index) asked for, scoring into the
    /// staged store's planes. Returns `(classes rescored, tuples rescored,
    /// tuples reused)`. Drops the index request instead when it needs raw
    /// rows the source can no longer provide. Opens `stage`'s span only
    /// when some order is missing, so a republish that kept every order
    /// records nothing.
    fn complete_orders(
        &mut self,
        stage: Stage,
        carried: Vec<(usize, Mode, Option<&'static str>)>,
    ) -> (u64, u64, u64) {
        let (registry, orders) = (&self.registry, &self.orders);
        let index = self.index.into_iter().flat_map(|mode| {
            let unfilled = move |&c: &usize| {
                !orders.is_filled(registry, registry.classes()[c].id(), mode, None)
            };
            (0..registry.len())
                .filter(unfilled)
                .map(move |c| (c, mode, None))
        });
        let todo: Vec<_> = carried.into_iter().chain(index).collect();
        if todo.is_empty() {
            return (0, 0, 0);
        }
        let _span = self.metrics.span(stage);
        let mut stats = (0, 0, 0);
        for mode in [Mode::Exact, Mode::Approximate] {
            if !todo.iter().any(|c| c.1 == mode) {
                continue;
            }
            let Ok(executor) =
                self.rows
                    .executor(&self.registry, self.catalog.as_ref(), &self.metrics, mode)
            else {
                self.index = self.index.filter(|&m| m != mode);
                continue;
            };
            let executor = executor.with_orders(&self.orders);
            for &(class, _, metric) in todo.iter().filter(|c| c.1 == mode) {
                let class = self.registry.classes()[class].as_ref();
                let (reused, rescored) = executor.complete(class, metric);
                stats.0 += u64::from(rescored > 0);
                stats.1 += rescored as u64;
                stats.2 += reused as u64;
            }
        }
        stats
    }

    /// Publishes the staged state as a new immutable snapshot.
    ///
    /// Invalidation is proportional to what actually changed:
    ///
    /// * a score-global mutation (registry change, preprocess, catalog
    ///   restore) bumps the shared cache's epoch outright — the new
    ///   snapshot starts from an empty store, its partial planes' scores
    ///   counted as purges;
    /// * appends that dirtied only some columns *carry* every plane's clean
    ///   scores into the new epoch's store (`RankOrders::carry`);
    /// * a no-op republish (nothing staged, or only zero-row batches)
    ///   keeps the epoch — warm planes and rank orders survive untouched.
    ///
    /// An incremental republish rescores, in each plane that was complete,
    /// only the positions that touch a dirty column; a partial plane keeps
    /// them unscored. Once [`build_index`](Self::build_index) asked for
    /// them, every other class's order is then completed into the new
    /// store: a cold build scores every candidate.
    ///
    /// Readers of older snapshots keep their own (now-retired) store
    /// either way.
    pub fn freeze(mut self) -> Arc<EngineCore> {
        // keep the registry alive past the field-by-field move below
        let metrics = Arc::clone(&self.metrics);
        let _span = metrics.span(Stage::Freeze);
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
        let mut migrated = None;
        let mut carried = Carried::default();
        let next = RankOrders::new();
        let epoch = if self.dirty {
            if self.appended {
                metrics.add(Counter::RepublishesFull, 1);
            }
            self.cache
                .count_purges(self.orders.planes()[0].entries as u64);
            self.cache.bump_epoch()
        } else if !self.dirty_columns.is_empty() {
            let dirty = std::mem::take(&mut self.dirty_columns);
            let clean = |attrs: &AttrTuple| attrs.indices().iter().all(|i| !dirty.contains(i));
            carried = self.orders.carry(&self.registry, clean, &next);
            self.cache.count_purges(carried.purged);
            migrated = Some(carried.migrated);
            self.cache.bump_epoch_retaining(|_, attrs| clean(attrs))
        } else {
            if self.appended {
                metrics.add(Counter::RepublishesClean, 1);
            }
            self.epoch
        };
        // a new epoch's scores go to a store no reader of a retired one sees
        if epoch != self.epoch {
            self.orders = Arc::new(next);
        }
        let stage = match migrated {
            Some(_) => Stage::IndexRefresh,
            None => Stage::IndexBuild,
        };
        let (classes, rescored, reused) = self.complete_orders(stage, carried.complete);
        if let Some(migrated) = migrated {
            metrics.add(Counter::RepublishesIncremental, 1);
            metrics.add(Counter::RescoredClasses, classes);
            metrics.add(Counter::RescoredTuples, rescored);
            metrics.add(Counter::ReusedTuples, reused);
            metrics.add(Counter::CacheEntriesMigrated, migrated);
        }
        Arc::new(EngineCore {
            rows: self.rows,
            registry: self.registry,
            catalog: self.catalog,
            index: self.index,
            orders: self.orders,
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

    /// `query` under the snapshot's published defaults.
    fn run(core: &EngineCore, query: &InsightQuery) -> Vec<InsightInstance> {
        core.run(query, &core.options()).unwrap().results
    }

    #[test]
    fn core_is_send_sync_and_shareable() {
        let core = CoreBuilder::new(TableSource::materialized(datasets::oecd())).freeze();
        let q = InsightQuery::class("linear-relationship").top_k(2);
        let a = run(&core, &q);
        let other = Arc::clone(&core);
        let b = std::thread::spawn(move || run(&other, &q)).join().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn republish_keeps_old_snapshot_consistent() {
        let mut builder = CoreBuilder::new(TableSource::materialized(datasets::oecd()));
        builder.preprocess(&CatalogConfig::default()).unwrap();
        let old = builder.freeze();
        let q = InsightQuery::class("skew").top_k(3);
        let before = run(&old, &q);

        // writer republishes with a different roster; the old Arc is live
        let mut writer = CoreBuilder::from_arc(Arc::clone(&old));
        writer.register_class(InsightRegistry::default().classes()[0].clone());
        let new = writer.freeze();

        assert_ne!(old.epoch(), new.epoch(), "republish mints a new epoch");
        // the old snapshot still answers, bit-identically
        assert_eq!(run(&old, &q), before);
        assert_eq!(run(&new, &q), before);
    }

    #[test]
    fn clean_republish_keeps_epoch_and_cache() {
        let core = CoreBuilder::new(TableSource::materialized(datasets::oecd())).freeze();
        run(&core, &InsightQuery::class("skew").top_k(2));
        let entries = core.cache_stats().entries;
        assert!(entries > 0);
        let mut writer = CoreBuilder::from_arc(Arc::clone(&core));
        writer.set_parallel(false);
        let new = writer.freeze();
        assert_eq!(core.epoch(), new.epoch());
        assert_eq!(new.cache_stats().entries, entries, "warm cache survives");
    }

    #[test]
    fn options_are_the_published_defaults() {
        let mut builder = CoreBuilder::new(TableSource::materialized(datasets::oecd()));
        builder.set_parallel(true);
        let core = builder.freeze();
        let opts = core.options();
        assert_eq!(opts.mode, Mode::Exact);
        assert!(opts.parallel);
        assert_eq!(opts.candidates, CandidateStrategy::Auto);
        assert_eq!(opts.trace, TraceMode::Off);
        let handle = core.handle();
        assert_eq!(handle.mode(), opts.mode);
        assert_eq!(handle.candidate_strategy(), opts.candidates);
    }

    #[test]
    fn mode_tagged_index_only_serves_matching_mode() {
        let mut builder = CoreBuilder::new(TableSource::materialized(datasets::oecd()));
        builder.build_index().unwrap();
        builder.preprocess(&CatalogConfig::default()).unwrap();
        // preprocess dropped the exact-mode request
        let core = builder.freeze();
        assert_eq!(core.rank_orders().filled(), 0);
        assert_eq!(core.resource_snapshot(0).orders_bytes, 0);

        let mut builder = CoreBuilder::from_arc(core);
        builder.build_index().unwrap();
        let core = builder.freeze();
        assert_eq!(core.rank_orders().filled(), core.registry().len());
        let resources = core.resource_snapshot(0);
        assert!(resources.orders_bytes > 0);
        assert_eq!(
            resources.orders_bytes,
            core.rank_orders().approx_bytes() as u64
        );
        // a plane is 8 B a score, every score of every filled class scan
        let scans: usize = core
            .registry()
            .classes()
            .iter()
            .map(|c| c.candidates(core.table()).len())
            .sum();
        assert_eq!(resources.planes_bytes, 8 * scans as u64);
        assert_eq!(
            resources.planes_bytes,
            core.rank_orders().plane_bytes() as u64
        );
        let q = InsightQuery::class("linear-relationship").top_k(2);
        // approximate (the orders' mode) and exact both answer; exact must
        // come from the executor, not the approximate orders
        let at = |mode| {
            let opts = QueryOptions {
                mode,
                parallel: false,
                ..core.options()
            };
            core.run(&q, &opts).unwrap().results
        };
        let approx = at(Mode::Approximate);
        let exact = at(Mode::Exact);
        assert_eq!(approx.len(), 2);
        assert_eq!(exact.len(), 2);
        assert!(exact[0].detail != approx[0].detail || exact[0].score != approx[0].score);
    }
}
