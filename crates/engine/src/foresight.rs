//! The top-level [`Foresight`] facade: load a table (or a partitioned
//! [`TableSource`]), preprocess sketches, run insight queries, focus
//! insights, assemble carousels, save sessions.
//!
//! The facade is one [`SessionHandle`] plus the writer path. Mutating
//! calls (`register_class`, `build_index`, `preprocess`, `append_shard`,
//! `load_state`, `set_mode`, `set_parallel`) republish the handle's core
//! through [`CoreBuilder`]; every read and session call delegates to the
//! handle. Call [`Foresight::core`] / [`Foresight::handle`] to serve
//! additional concurrent users over the same snapshot.

use crate::cache::CacheStats;
use crate::candidates::CandidateStrategy;
use crate::core::{CoreBuilder, EngineCore};
use crate::error::{EngineError, Result};
use crate::executor::Mode;
use crate::handle::SessionHandle;
use crate::neighborhood::NeighborhoodWeights;
use crate::query::InsightQuery;
use crate::recommend::Carousel;
use crate::session::Session;
use foresight_data::{Table, TableSource};
use foresight_insight::{InsightClass, InsightInstance, InsightRegistry};
use foresight_sketch::{CatalogConfig, SketchCatalog};
use foresight_viz::ChartSpec;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The newest persisted-state format this build writes (and the highest it
/// reads). Version 0 is the legacy pre-versioning format, still accepted.
pub const STATE_FORMAT_VERSION: u32 = 1;

/// The Foresight system over one dataset: this caller's own
/// [`SessionHandle`] over a shared [`EngineCore`] snapshot, plus the
/// writer path that republishes it.
///
/// # Examples
/// ```
/// use foresight_engine::Foresight;
/// use foresight_engine::query::InsightQuery;
/// use foresight_data::datasets;
///
/// let mut fs = Foresight::new(datasets::oecd());
/// let top = fs.query(&InsightQuery::class("linear-relationship").top_k(1)).unwrap();
/// assert_eq!(top.len(), 1);
/// ```
///
/// ## Partitioned ingest
///
/// A [`TableSource::Sharded`] source keeps its row partitions separate;
/// after [`Foresight::preprocess`], approximate-mode queries, carousels,
/// and profiles are answered from the *merged* per-shard sketch catalog —
/// the shards are never concatenated. Exact mode materializes the shards
/// lazily on first use (and errors with
/// [`EngineError::ExactUnavailable`] when the source kept only sketches).
///
/// ## Concurrent serving
///
/// Every query path runs `&self` on the underlying core. To serve many
/// users over one dataset, share [`Foresight::core`] and give each user a
/// [`SessionHandle`] via [`Foresight::handle`]; the facade's own mutating
/// methods republish a fresh snapshot without disturbing handles that hold
/// the old one.
pub struct Foresight {
    /// Always `Some` between method calls; taken while the writer path
    /// republishes, so the handle's `Arc` is the snapshot's only owner and
    /// [`CoreBuilder::from_arc`] moves the core instead of cloning it.
    handle: Option<SessionHandle>,
}

impl Foresight {
    /// Opens a table with the 12 default insight classes, in exact mode.
    ///
    /// Parallel execution (batch scoring, multi-threaded candidate scoring,
    /// parallel carousel assembly) is on by default when the process has
    /// more than one rayon thread available.
    pub fn new(table: Table) -> Self {
        Self::from_source(TableSource::materialized(table))
    }

    /// Opens any [`TableSource`] — materialized or sharded — with the
    /// default class roster.
    pub fn from_source(source: TableSource) -> Self {
        Self::from_core(CoreBuilder::new(source).freeze())
    }

    /// Opens a table with a custom class roster.
    pub fn with_registry(table: Table, registry: InsightRegistry) -> Self {
        Self::from_core(
            CoreBuilder::new(TableSource::materialized(table))
                .with_registry(registry)
                .freeze(),
        )
    }

    /// Wraps an already-published core snapshot (plus a fresh session).
    pub fn from_core(core: Arc<EngineCore>) -> Self {
        Self {
            handle: Some(SessionHandle::new(core)),
        }
    }

    fn own(&self) -> &SessionHandle {
        self.handle.as_ref().expect("session handle always present")
    }

    fn own_mut(&mut self) -> &mut SessionHandle {
        self.handle.as_mut().expect("session handle always present")
    }

    /// The current core snapshot — share it (via [`Arc::clone`]) to serve
    /// concurrent sessions.
    pub fn core(&self) -> &Arc<EngineCore> {
        self.own().core()
    }

    /// A fresh per-user [`SessionHandle`] over the current snapshot. Later
    /// mutations of this facade republish a *new* snapshot; existing
    /// handles keep the one they were created with.
    pub fn handle(&self) -> SessionHandle {
        self.core().handle()
    }

    /// Runs a mutation through the writer path: takes the snapshot out of
    /// the handle, stages edits on a [`CoreBuilder`], and republishes into
    /// the same handle, whose mode and parallelism follow the new
    /// snapshot. When nothing else holds the snapshot it is edited in place
    /// (no copies).
    fn edit<R>(&mut self, f: impl FnOnce(&mut CoreBuilder) -> Result<R>) -> Result<R> {
        let mut handle = self.handle.take().expect("session handle always present");
        let mut builder = CoreBuilder::from_arc(handle.core);
        let out = f(&mut builder);
        // republish even on error: failed stages leave prior state intact
        handle.core = builder.freeze();
        let published = handle.core.options();
        handle.opts.mode = published.mode;
        handle.opts.parallel = published.parallel;
        self.handle = Some(handle);
        out
    }

    /// The underlying source (materialized table or row shards).
    pub fn source(&self) -> &TableSource {
        self.core().source()
    }

    /// The underlying table, materializing a sharded source on first call.
    ///
    /// # Panics
    /// When the source is sketch-only (raw rows dropped); use
    /// [`Foresight::try_table`] to handle that case as an error.
    pub fn table(&self) -> &Table {
        self.core().table()
    }

    /// The underlying table, concatenating a sharded source lazily (the
    /// vstack happens once, on first need; approximate-mode work never
    /// triggers it).
    pub fn try_table(&self) -> Result<&Table> {
        self.core().try_table()
    }

    /// The class registry (read-only).
    pub fn registry(&self) -> &InsightRegistry {
        self.core().registry()
    }

    /// Plugs in an insight class (§2.2 extensibility). Republishes the
    /// core: any built index is dropped (rebuild with
    /// [`Foresight::build_index`]) and a fresh score-cache epoch is minted
    /// (a re-registered id may score differently).
    pub fn register_class(&mut self, class: Arc<dyn InsightClass>) {
        self.edit(|b| {
            b.register_class(class);
            Ok(())
        })
        .expect("register_class cannot fail");
    }

    /// Materializes the paper's "indexes" (§3): every class's rank order,
    /// completed now and on every later republish (see
    /// [`CoreBuilder::build_index`]). Basic top-k queries are then walked
    /// off a precomputed order without re-scoring candidates. Uses sketch
    /// scores when [`Foresight::preprocess`] ran first.
    ///
    /// # Errors
    /// [`EngineError::ExactUnavailable`] when the orders would need raw
    /// rows a sketch-only source cannot provide (exact mode without
    /// materialized data).
    pub fn build_index(&mut self) -> Result<()> {
        self.edit(|b| b.build_index())
    }

    /// The current session state.
    pub fn session(&self) -> &Session {
        self.own().session()
    }

    /// Replaces the session (e.g. one restored via [`Session::load`]).
    pub fn restore_session(&mut self, session: Session) {
        self.own_mut().restore_session(session);
    }

    /// Sets the neighborhood re-ranking weights.
    pub fn set_weights(&mut self, weights: NeighborhoodWeights) {
        self.own_mut().set_weights(weights);
    }

    /// Enables rayon-parallel query execution and carousel assembly (on by
    /// default when more than one thread is available). Republishes the
    /// core with the new default; cached scores survive.
    pub fn set_parallel(&mut self, on: bool) {
        self.edit(|b| {
            b.set_parallel(on);
            Ok(())
        })
        .expect("set_parallel cannot fail");
    }

    /// Sets the focus over-fetch factor used by carousel assembly (see
    /// [`DEFAULT_FOCUS_OVERFETCH`](crate::recommend::DEFAULT_FOCUS_OVERFETCH));
    /// values below 1 are treated as 1.
    pub fn set_focus_overfetch(&mut self, factor: usize) {
        self.own_mut().set_focus_overfetch(factor);
    }

    /// The candidate-generation strategy in effect.
    pub fn candidate_strategy(&self) -> CandidateStrategy {
        self.own().candidate_strategy()
    }

    /// Sets how pairwise queries generate candidates — the recall-vs-speed
    /// knob. [`CandidateStrategy::Auto`] (default) resolves to a filled
    /// rank order, then LSH bucket collisions (tables of at least 64
    /// numeric columns with a sketch catalog), then the scan;
    /// [`CandidateStrategy::Exhaustive`] pins recall to 1.0. No republish:
    /// this is session state, like the focus set.
    pub fn set_candidate_strategy(&mut self, strategy: CandidateStrategy) {
        self.own_mut().set_candidate_strategy(strategy);
    }

    /// Hit/miss/occupancy/purge counters of the cross-query score cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.core().cache_stats()
    }

    /// A deterministic snapshot of the engine's telemetry — per-stage
    /// latency histograms, query counters, and score-cache traffic. The
    /// registry survives republishes, so preprocess/freeze timings stay
    /// visible after later mutations.
    pub fn metrics(&self) -> crate::telemetry::MetricsSnapshot {
        self.own().metrics()
    }

    /// Drops every cached score — the snapshot's planes and rank orders —
    /// and the score cache's descriptions, and resets its counters.
    /// Normally unnecessary — the engine retires stale scores itself
    /// whenever they could change. A built index is completed again by the
    /// republish.
    pub fn clear_score_cache(&mut self) {
        self.edit(|b| {
            b.clear_scores();
            Ok(())
        })
        .expect("clear_score_cache cannot fail");
    }

    /// Runs the paper's preprocessing phase: builds the sketch catalog and
    /// switches the engine to approximate (interactive) mode. For a sharded
    /// source the per-shard catalogs are built independently (fanned out
    /// with rayon when `config.parallel` is set) and merged — the shards
    /// themselves are never concatenated. Any built index is dropped (its
    /// orders were ranked in the old mode); call
    /// [`Foresight::build_index`] again to re-materialize it.
    ///
    /// # Errors
    /// [`EngineError::ExactUnavailable`] when the raw shards were dropped
    /// (a sketch-only source cannot be re-sketched);
    /// [`EngineError::Merge`] if per-shard catalogs fail to combine.
    pub fn preprocess(&mut self, config: &CatalogConfig) -> Result<&SketchCatalog> {
        self.edit(|b| b.preprocess(config))?;
        Ok(self.core().catalog().expect("just built"))
    }

    /// Ingests one more disjoint row partition.
    ///
    /// The shard is appended to the source (a materialized table is
    /// promoted to a sharded source in place) and, when a catalog exists,
    /// sketched at its global row offset and merged in — no rebuild, no
    /// concatenation. Invalidation is column-granular (see
    /// [`CoreBuilder::append_shard`]): clean score-cache entries migrate
    /// into the new epoch, and a built index's orders are completed again
    /// by rescoring only the tuples that touch a column the batch carries
    /// values in. Any lazily materialized concatenation is discarded.
    ///
    /// Returns the appended shard's global row offset.
    ///
    /// # Errors
    /// Schema mismatches surface as [`EngineError::Data`]; catalog merge
    /// failures as [`EngineError::Merge`].
    pub fn append_shard(&mut self, shard: Table) -> Result<usize> {
        self.edit(|b| b.append_shard(shard))
    }

    /// Switches between exact and approximate scoring.
    ///
    /// # Errors
    /// Approximate mode requires a prior [`Foresight::preprocess`]; exact
    /// mode requires raw rows the source can still provide.
    pub fn set_mode(&mut self, mode: Mode) -> Result<()> {
        self.edit(|b| b.set_mode(mode))
    }

    /// The current mode.
    pub fn mode(&self) -> Mode {
        self.own().mode()
    }

    /// The sketch catalog, if preprocessing ran.
    pub fn catalog(&self) -> Option<&SketchCatalog> {
        self.core().catalog()
    }

    /// Runs an insight query and records it in the session history (see
    /// [`SessionHandle::query`]).
    pub fn query(&mut self, query: &InsightQuery) -> Result<Vec<InsightInstance>> {
        self.own_mut().query(query)
    }

    /// EXPLAIN: runs the query with a forced trace and returns the results
    /// together with the captured trace (see [`SessionHandle::explain`]).
    pub fn explain(&mut self, query: &InsightQuery) -> Result<crate::trace::Explained> {
        self.own_mut().explain(query)
    }

    /// The shared request-tracing registry — recent [`QueryTrace`]s and the
    /// slow-query log. Survives republishes
    /// like the telemetry registry.
    ///
    /// [`QueryTrace`]: crate::trace::QueryTrace
    pub fn tracer(&self) -> &crate::trace::Tracer {
        self.core().tracer()
    }

    /// Re-executes every query recorded in the current session's history
    /// (see [`SessionHandle::replay_session`]).
    pub fn replay_session(&mut self) -> Result<Vec<Vec<InsightInstance>>> {
        self.own_mut().replay_session()
    }

    /// Builds all carousels (one per class), re-ranked toward the focus set.
    pub fn carousels(&self, per_class: usize) -> Result<Vec<Carousel>> {
        self.own().carousels(per_class)
    }

    /// Focuses an insight, steering future recommendations toward its
    /// neighborhood.
    pub fn focus(&mut self, instance: InsightInstance) {
        self.own_mut().focus(instance);
    }

    /// Removes a focused insight.
    pub fn unfocus(&mut self, attrs: &foresight_insight::AttrTuple) -> bool {
        self.own_mut().unfocus(attrs)
    }

    /// Profiles the dataset: per-column summaries plus the strongest
    /// instance of every registered class (see [`EngineCore::profile`]).
    pub fn profile(&self) -> Result<crate::profile::DatasetProfile> {
        self.own().profile()
    }

    /// Persists the full engine state — session *and* sketch catalog,
    /// under [`STATE_FORMAT_VERSION`] — so a later process can resume
    /// exploration without re-running the preprocessing phase.
    pub fn save_state(&self, writer: impl std::io::Write) -> Result<()> {
        let state = PersistedState {
            version: STATE_FORMAT_VERSION,
            session: self.session().clone(),
            catalog: self.core().catalog().cloned(),
        };
        serde_json::to_writer(writer, &state)?;
        Ok(())
    }

    /// Restores state saved with [`Foresight::save_state`]. When the saved
    /// state includes a catalog, the engine switches to approximate mode.
    ///
    /// # Errors
    /// [`EngineError::StateVersion`] when the payload declares a format
    /// version newer than [`STATE_FORMAT_VERSION`] (version 0, the legacy
    /// unversioned format, still loads).
    pub fn load_state(&mut self, reader: impl std::io::Read) -> Result<()> {
        let state: PersistedState = serde_json::from_reader(reader)?;
        if state.version > STATE_FORMAT_VERSION {
            return Err(EngineError::StateVersion {
                found: state.version,
                supported: STATE_FORMAT_VERSION,
            });
        }
        self.restore_session(state.session);
        self.edit(|b| {
            b.restore_catalog(state.catalog);
            Ok(())
        })
    }

    /// Builds a self-contained HTML report: one carousel section per class
    /// (top `per_class` charts each) plus every available class overview —
    /// the library-shaped version of the paper's demo UI. Charts read raw
    /// rows, so a sketch-only source cannot be reported on.
    pub fn report(&self, per_class: usize) -> Result<foresight_viz::Report> {
        let source = self.core().source();
        let mut report =
            foresight_viz::Report::new(format!("Foresight insights — {}", source.name()));
        report.intro = format!(
            "{} rows × {} columns; per-class carousels ranked strongest first",
            source.n_rows(),
            source.n_cols()
        );
        for carousel in self.carousels(per_class)? {
            let mut charts = Vec::new();
            for inst in &carousel.instances {
                if let Some(spec) = self.chart(inst)? {
                    charts.push(spec);
                }
            }
            if !charts.is_empty() {
                report.section(
                    carousel.class_name,
                    format!("ranked by {}", carousel.metric),
                    charts,
                );
            }
        }
        if let Some(fig2) = self.overview("linear-relationship")? {
            report.section("Correlation overview", "all pairwise ρ", vec![fig2]);
        }
        Ok(report)
    }

    /// The chart for one insight instance (reads raw rows — errors on a
    /// sketch-only source).
    pub fn chart(&self, instance: &InsightInstance) -> Result<Option<ChartSpec>> {
        self.core().chart(instance)
    }

    /// The class-level overview chart (§2.1's third level of exploration;
    /// Figure 2 for the linear-relationship class). Reads raw rows.
    pub fn overview(&self, class_id: &str) -> Result<Option<ChartSpec>> {
        self.core().overview(class_id)
    }
}

/// The serialized form of a [`Foresight`] engine's resumable state.
#[derive(Serialize, Deserialize)]
struct PersistedState {
    /// Format version; absent in legacy payloads (deserializes to 0).
    #[serde(default)]
    version: u32,
    session: Session,
    catalog: Option<SketchCatalog>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use foresight_data::{datasets, TableBuilder};
    use foresight_insight::AttrTuple;

    fn oecd() -> Foresight {
        Foresight::new(datasets::oecd())
    }

    /// One synthetic table plus the same rows cut into `bounds`-delimited
    /// shards.
    fn whole_and_shards(n: usize, bounds: &[usize]) -> (Table, Vec<Table>) {
        let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| 2.0 * v + 1.0).collect();
        let z: Vec<f64> = (0..n).map(|i| ((i * 37) % n) as f64).collect();
        let cats: Vec<&str> = (0..n)
            .map(|i| if i % 4 == 0 { "gold" } else { "base" })
            .collect();
        let build = |name: &str, lo: usize, hi: usize| {
            TableBuilder::new(name)
                .numeric("x", x[lo..hi].to_vec())
                .numeric("y", y[lo..hi].to_vec())
                .numeric("z", z[lo..hi].to_vec())
                .categorical("c", cats[lo..hi].iter().copied())
                .build()
                .unwrap()
        };
        let whole = build("whole", 0, n);
        let mut edges = vec![0];
        edges.extend_from_slice(bounds);
        edges.push(n);
        let shards = edges
            .windows(2)
            .map(|w| build("shard", w[0], w[1]))
            .collect();
        (whole, shards)
    }

    #[test]
    fn query_and_history() {
        let mut fs = oecd();
        let out = fs
            .query(&InsightQuery::class("linear-relationship").top_k(3))
            .unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(fs.session().history.len(), 1);
    }

    #[test]
    fn preprocess_switches_modes() {
        let mut fs = oecd();
        assert_eq!(fs.mode(), Mode::Exact);
        assert!(matches!(
            fs.set_mode(Mode::Approximate),
            Err(EngineError::NoCatalog)
        ));
        fs.preprocess(&CatalogConfig::default()).unwrap();
        assert_eq!(fs.mode(), Mode::Approximate);
        fs.set_mode(Mode::Exact).unwrap();
        fs.set_mode(Mode::Approximate).unwrap();
    }

    #[test]
    fn charts_and_overviews() {
        let mut fs = oecd();
        let top = fs
            .query(&InsightQuery::class("linear-relationship").top_k(1))
            .unwrap();
        let chart = fs.chart(&top[0]).unwrap().unwrap();
        assert_eq!(chart.kind_name(), "scatter");
        let fig2 = fs.overview("linear-relationship").unwrap().unwrap();
        assert_eq!(fig2.kind_name(), "heatmap");
        assert!(fs.overview("nope").is_err());
    }

    #[test]
    fn focus_round_trip() {
        let mut fs = oecd();
        let top = fs
            .query(&InsightQuery::class("linear-relationship").top_k(1))
            .unwrap();
        fs.focus(top[0].clone());
        assert_eq!(fs.session().focus.len(), 1);
        let attrs = top[0].attrs;
        assert!(fs.unfocus(&attrs));
        assert!(fs.session().focus.is_empty());
    }

    #[test]
    fn full_state_round_trip_resumes_approximate_mode() {
        let mut fs = oecd();
        fs.preprocess(&CatalogConfig::default()).unwrap();
        let q = InsightQuery::class("linear-relationship").top_k(3);
        let before = fs.query(&q).unwrap();
        let mut buf = Vec::new();
        fs.save_state(&mut buf).unwrap();

        let mut resumed = oecd();
        assert_eq!(resumed.mode(), Mode::Exact);
        resumed.load_state(buf.as_slice()).unwrap();
        assert_eq!(resumed.mode(), Mode::Approximate);
        // the restored catalog reproduces the sketch-backed results exactly
        let after = resumed.query(&q).unwrap();
        assert_eq!(before, after);
        // and the history carried over (1 query before save + 1 after)
        assert_eq!(resumed.session().queries().len(), 2);
    }

    #[test]
    fn save_state_is_versioned_and_future_versions_are_rejected() {
        let fs = oecd();
        let mut buf = Vec::new();
        fs.save_state(&mut buf).unwrap();
        let saved = String::from_utf8(buf).unwrap();
        let tag = format!("\"version\":{STATE_FORMAT_VERSION}");
        assert!(saved.contains(&tag), "state is tagged with the version");

        // a payload from a newer build fails with the typed error…
        let newer = saved.replacen(
            &tag,
            &format!("\"version\":{}", STATE_FORMAT_VERSION + 7),
            1,
        );
        let mut fs2 = oecd();
        let err = fs2.load_state(newer.as_bytes()).unwrap_err();
        assert!(matches!(
            err,
            EngineError::StateVersion { found, supported }
                if found == STATE_FORMAT_VERSION + 7 && supported == STATE_FORMAT_VERSION
        ));

        // …while a legacy unversioned payload (version 0) still loads
        let legacy = saved.replacen(&format!("{tag},"), "", 1);
        assert!(!legacy.contains("version"));
        fs2.load_state(legacy.as_bytes()).unwrap();
    }

    /// Clearing drops every cached score — the planes and the orders — so
    /// the next query scores again, and answers the same.
    #[test]
    fn clear_score_cache_drops_planes_and_orders() {
        let mut fs = oecd();
        let q = InsightQuery::class("linear-relationship").top_k(4);
        let first = fs.query(&q).unwrap();
        fs.query(&q.clone().fix_attr(1)).unwrap();
        assert!(fs.core().rank_orders().filled() > 0);
        assert!(fs.cache_stats().entries > 0);
        fs.clear_score_cache();
        assert_eq!(fs.core().rank_orders().filled(), 0);
        assert_eq!(fs.core().resource_snapshot(0).planes_bytes, 0);
        let stats = fs.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 0, 0));
        assert_eq!(fs.query(&q).unwrap(), first);
        assert!(fs.cache_stats().misses > 0, "the scan was scored again");
    }

    #[test]
    fn indexed_queries_match_executor_queries() {
        let mut fs = oecd();
        let q = InsightQuery::class("linear-relationship").top_k(4);
        let unindexed = fs.query(&q).unwrap();
        fs.build_index().unwrap();
        assert_eq!(fs.core().rank_orders().filled(), fs.registry().len());
        let indexed = fs.query(&q).unwrap();
        assert_eq!(unindexed, indexed);
        // preprocessing rescores everything in a new mode: the orders go
        fs.preprocess(&CatalogConfig::default()).unwrap();
        assert_eq!(fs.core().rank_orders().filled(), 0);
    }

    #[test]
    fn session_survives_save_restore() {
        let mut fs = oecd();
        fs.focus(InsightInstance {
            class_id: "skew".into(),
            attrs: AttrTuple::One(5),
            score: 1.2,
            metric: "|skewness|".into(),
            detail: "test".into(),
        });
        let json = fs.session().to_json().unwrap();
        let mut fs2 = oecd();
        fs2.restore_session(Session::from_json(&json).unwrap());
        assert_eq!(fs.session(), fs2.session());
    }

    #[test]
    fn facade_mutation_republishes_while_handles_keep_old_snapshot() {
        let mut fs = oecd();
        let q = InsightQuery::class("linear-relationship").top_k(2);
        let mut handle = fs.handle();
        let before_core = Arc::clone(fs.core());
        let baseline = handle.query(&q).unwrap();

        fs.preprocess(&CatalogConfig::default()).unwrap();
        assert!(
            !Arc::ptr_eq(fs.core(), &before_core),
            "mutation republished a new snapshot"
        );
        // the old handle still answers from its exact-mode snapshot
        assert_eq!(handle.query(&q).unwrap(), baseline);
        assert_eq!(handle.mode(), Mode::Exact);
        // a fresh handle sees the new approximate-mode snapshot
        assert_eq!(fs.handle().mode(), Mode::Approximate);
    }

    #[test]
    fn sharded_source_answers_from_merged_catalog() {
        let (whole, shards) = whole_and_shards(600, &[150, 400]);
        let config = CatalogConfig {
            hyperplane_k: Some(1024),
            ..Default::default()
        };

        let mut mono = Foresight::new(whole);
        mono.preprocess(&config).unwrap();
        let mut sharded = Foresight::from_source(TableSource::sharded(shards).unwrap());
        sharded.preprocess(&config).unwrap();
        assert_eq!(sharded.source().shard_count(), 3);

        let q = InsightQuery::class("linear-relationship").top_k(2);
        let a = mono.query(&q).unwrap();
        let b = sharded.query(&q).unwrap();
        assert_eq!(a.len(), b.len());
        assert_eq!(a[0].attrs, b[0].attrs, "top pair must agree");
        // sketch-only details make no claims raw rows would be needed for
        assert!(b[0].detail.contains("sketch"));

        // carousels and profiles run without ever concatenating the shards
        let carousels = sharded.carousels(2).unwrap();
        assert!(!carousels.is_empty());
        let profile = sharded.profile().unwrap();
        assert_eq!(profile.rows, 600);
        assert!(sharded.source().as_materialized().is_none());
    }

    #[test]
    fn sharded_exact_mode_materializes_lazily() {
        let (whole, shards) = whole_and_shards(300, &[100]);
        let mut sharded = Foresight::from_source(TableSource::sharded(shards).unwrap());
        // exact mode concatenates on first query and matches the whole table
        let q = InsightQuery::class("linear-relationship").top_k(1);
        let exact = sharded.query(&q).unwrap();
        let mut mono = Foresight::new(whole);
        assert_eq!(exact, mono.query(&q).unwrap());
    }

    #[test]
    fn sketch_only_source_rejects_exact_paths() {
        let (_, shards) = whole_and_shards(400, &[200]);
        let mut source = TableSource::sharded(shards).unwrap();
        let mut fs = Foresight::from_source(source.clone());
        fs.preprocess(&CatalogConfig::default()).unwrap();

        // drop the raw rows *after* sketching: queries keep working…
        source.drop_raw();
        let mut lean = Foresight::from_source(source);
        let mut buf = Vec::new();
        fs.save_state(&mut buf).unwrap();
        lean.load_state(buf.as_slice()).unwrap();
        let out = lean.query(&InsightQuery::class("skew").top_k(1)).unwrap();
        assert_eq!(out.len(), 1);

        // …but every raw-row path is a typed error, not a panic
        assert!(matches!(
            lean.set_mode(Mode::Exact),
            Err(EngineError::ExactUnavailable(_))
        ));
        assert!(lean.try_table().is_err());
        assert!(lean.chart(&out[0]).is_err());
        assert!(matches!(
            lean.preprocess(&CatalogConfig::default()),
            Err(EngineError::ExactUnavailable(_))
        ));
    }

    #[test]
    fn append_shard_merges_into_catalog_and_bumps_epoch() {
        let (_, mut shards) = whole_and_shards(800, &[300, 600]);
        let last = shards.pop().expect("three shards");
        let mut fs = Foresight::from_source(TableSource::sharded(shards).unwrap());
        fs.preprocess(&CatalogConfig {
            hyperplane_k: Some(1024),
            ..Default::default()
        })
        .unwrap();
        assert_eq!(fs.catalog().unwrap().rows(), 600);

        let q = InsightQuery::class("linear-relationship").top_k(1);
        fs.query(&q).unwrap();
        let entries_before = fs.cache_stats().entries;
        assert!(entries_before > 0);

        let offset = fs.append_shard(last).unwrap();
        assert_eq!(offset, 600);
        assert_eq!(fs.source().n_rows(), 800);
        // the epoch bump retired every pre-append score
        assert_eq!(fs.cache_stats().entries, 0);
        // the merged catalog now covers every row — identical to sketching
        // the full partition set in one preprocess
        assert_eq!(fs.catalog().unwrap().rows(), 800);
        let mut all_at_once = Foresight::from_source(
            TableSource::sharded(whole_and_shards(800, &[300, 600]).1).unwrap(),
        );
        all_at_once
            .preprocess(&CatalogConfig {
                hyperplane_k: Some(1024),
                ..Default::default()
            })
            .unwrap();
        assert_eq!(fs.query(&q).unwrap(), all_at_once.query(&q).unwrap());
    }

    #[test]
    fn append_shard_promotes_materialized_sources() {
        let (whole, shards) = whole_and_shards(200, &[120]);
        let mut fs = Foresight::new(shards[0].clone());
        assert!(fs.source().as_materialized().is_some());
        let offset = fs.append_shard(shards[1].clone()).unwrap();
        assert_eq!(offset, 120);
        assert!(fs.source().as_materialized().is_none());
        assert_eq!(fs.source().n_rows(), 200);
        // exact mode still works — the shards concatenate lazily
        let q = InsightQuery::class("linear-relationship").top_k(1);
        assert_eq!(
            fs.query(&q).unwrap(),
            Foresight::new(whole).query(&q).unwrap()
        );
    }

    /// The script the facade and the handle both run in
    /// `facade_and_handle_answer_alike`.
    macro_rules! script {
        ($explorer:expr) => {{
            let d = $explorer;
            let top = d
                .query(&InsightQuery::class("linear-relationship").top_k(3))
                .unwrap();
            let explained = d
                .explain(&InsightQuery::class("skew").top_k(2))
                .unwrap()
                .results;
            d.focus(top[0].clone());
            let carousels = d.carousels(2).unwrap();
            let replayed = d.replay_session().unwrap();
            let profile = d.profile().unwrap();
            (top, explained, carousels, replayed, profile)
        }};
    }

    /// The facade is a session handle: driven through the same script as a
    /// plain handle over the same snapshot, it answers and records the
    /// same, before and after a republish.
    #[test]
    fn facade_and_handle_answer_alike() {
        let (whole, mut shards) = whole_and_shards(600, &[250, 450]);
        let last = shards.pop().expect("three shards");
        let config = CatalogConfig::default();
        let exact = Foresight::new(whole.clone());
        let mut approximate = Foresight::new(whole);
        approximate.preprocess(&config).unwrap();
        let mut sharded = Foresight::from_source(TableSource::sharded(shards).unwrap());
        sharded.preprocess(&config).unwrap();
        for (what, mut fs) in [
            ("exact", exact),
            ("approximate", approximate),
            ("sharded", sharded),
        ] {
            let mut handle = fs.handle();
            assert_eq!(script!(&mut fs), script!(&mut handle), "{what}");
            assert_eq!(fs.session(), handle.session(), "{what}");

            // republish; a fresh handle over the new snapshot carries the
            // old handle's own session forward
            if fs.catalog().is_none() {
                fs.preprocess(&config).unwrap();
            } else {
                fs.append_shard(last.clone()).unwrap();
            }
            let mut next = fs.handle();
            next.restore_session(handle.session().clone());
            assert_eq!(fs.mode(), next.mode(), "{what}");
            assert_eq!(script!(&mut fs), script!(&mut next), "{what} republished");
            assert_eq!(fs.session(), next.session(), "{what} republished");
        }
    }

    /// A facade mutation edits the snapshot in place: the facade holds the
    /// only `Arc`, so `CoreBuilder::from_arc` moves the core — prepared
    /// columns included — where its clone branch would start them empty.
    #[test]
    fn facade_mutations_move_the_core() {
        let mut fs = oecd();
        assert_eq!(fs.mode(), Mode::Exact);
        fs.query(&InsightQuery::class("linear-relationship").top_k(3))
            .unwrap();
        assert!(fs.core().prepared_columns().approx_bytes() > 0);
        let parallel = fs.core().options().parallel;
        fs.set_parallel(!parallel);
        assert_eq!(fs.core().options().parallel, !parallel);
        assert!(fs.core().prepared_columns().approx_bytes() > 0);
    }

    /// A session saved from the facade carries the schema fingerprint, so
    /// it cannot be restored onto a same-named dataset whose columns were
    /// reordered.
    #[test]
    fn facade_sessions_carry_the_schema_fingerprint() {
        let table = |names: [&str; 3]| {
            let mut builder = TableBuilder::new("t");
            for (i, name) in names.into_iter().enumerate() {
                builder = builder.numeric(name, (0..50).map(|r| (r * (i + 1)) as f64).collect());
            }
            builder.build().unwrap()
        };
        let mut fs = Foresight::new(table(["a", "b", "c"]));
        fs.query(&InsightQuery::class("linear-relationship").top_k(1))
            .unwrap();
        let mut buf = Vec::new();
        fs.session().save(&mut buf).unwrap();

        let reordered =
            CoreBuilder::new(TableSource::materialized(table(["c", "b", "a"]))).freeze();
        let mut handle = reordered.handle();
        let saved = Session::load(buf.as_slice()).unwrap();
        assert!(matches!(
            handle.restore_session_checked(saved.clone()),
            Err(EngineError::SessionMismatch(_))
        ));
        // the same save restores onto the table it was taken from
        fs.handle().restore_session_checked(saved).unwrap();
    }
}
