//! Per-user session handles over a shared [`EngineCore`].
//!
//! A [`SessionHandle`] owns only the §4.1 exploration state — the focus
//! set, the event log, and per-user knobs (mode override, focus
//! over-fetch, re-ranking weights) — and borrows everything heavy from an
//! `Arc<EngineCore>`. Handles are cheap to create, independent of each
//! other, and `Send`: spawn one per user (or per thread) over a single
//! core snapshot.

use crate::candidates::CandidateStrategy;
use crate::core::{EngineCore, QueryOptions, Staleness, TraceMode};
use crate::error::{EngineError, Result};
use crate::executor::Mode;
use crate::neighborhood::NeighborhoodWeights;
use crate::query::InsightQuery;
use crate::recommend::{Carousel, CarouselConfig, DEFAULT_FOCUS_OVERFETCH};
use crate::session::Session;
use crate::stream::PublishedCore;
use crate::trace::Explained;
use foresight_insight::{AttrTuple, InsightInstance};
use std::sync::Arc;

/// When a handle bound to a [`PublishedCore`] adopts newer snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdoptPolicy {
    /// Only on an explicit [`SessionHandle::refresh`] — queries keep the
    /// adopted snapshot no matter how far it falls behind.
    #[default]
    Manual,
    /// Check for (and adopt) a newer snapshot before every query.
    EveryQuery,
    /// Adopt before a query only once the held snapshot trails the ingest
    /// head by more than this many rows — bounded staleness with minimal
    /// publication-slot traffic.
    MaxRowsBehind(u64),
}

/// One user's view of a shared engine core: exploration state plus
/// per-user execution knobs. All heavy state lives in the
/// [`EngineCore`]; queries on a handle never block other handles.
pub struct SessionHandle {
    /// The snapshot this handle reads through. Crate-visible so the
    /// [`Foresight`](crate::Foresight) facade can move it through the
    /// writer path without a second owner.
    pub(crate) core: Arc<EngineCore>,
    session: Session,
    /// This user's query options: mode and parallelism seeded from the
    /// core's published defaults, the candidate strategy (the
    /// recall-vs-speed knob for pairwise classes over wide tables), and a
    /// trace setting that stays [`TraceMode::Off`] — the sampling schedule
    /// and [`explain`](Self::explain) override it per query.
    pub(crate) opts: QueryOptions,
    focus_overfetch: usize,
    weights: NeighborhoodWeights,
    /// Trace one query in every `trace_every` (0 = sampling off). Plain
    /// fields, not atomics: the handle is per-user `&mut` state, so a
    /// sampled-out query costs no synchronized operation at all.
    trace_every: u64,
    /// Which residue of the counter is traced — derived from the sampling
    /// seed, so distinct seeds trace distinct (but each reproducible)
    /// query subsets.
    trace_phase: u64,
    /// Queries issued since sampling was configured.
    trace_counter: u64,
    /// The stream publication point this handle follows, when bound.
    published: Option<Arc<PublishedCore>>,
    /// When to adopt newer published snapshots.
    adopt: AdoptPolicy,
    /// The publish version last adopted, to skip no-op slot reads.
    adopted_version: u64,
}

const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<SessionHandle>();
};

impl SessionHandle {
    /// A fresh session over `core`, inheriting the core's published mode
    /// and parallelism defaults.
    pub fn new(core: Arc<EngineCore>) -> Self {
        let mut session = Session::new(core.source().name());
        // stamp the schema fingerprint so saves from this handle can be
        // validated by `restore_session_checked` on any other core
        session.schema = Some(core.source().schema().names().map(str::to_owned).collect());
        Self {
            opts: core.options(),
            core,
            session,
            focus_overfetch: DEFAULT_FOCUS_OVERFETCH,
            weights: NeighborhoodWeights::default(),
            trace_every: 0,
            trace_phase: 0,
            trace_counter: 0,
            published: None,
            adopt: AdoptPolicy::Manual,
            adopted_version: 0,
        }
    }

    /// Binds this handle to a stream's publication point: the handle keeps
    /// serving its current snapshot until [`refresh`](Self::refresh) — or
    /// the [`AdoptPolicy`] set via
    /// [`set_adopt_policy`](Self::set_adopt_policy) — swaps in a newer one.
    /// Session state (focus, history, knobs) survives every swap.
    pub fn bind_stream(&mut self, published: Arc<PublishedCore>) {
        self.adopted_version = published.version();
        self.core = published.latest();
        self.published = Some(published);
    }

    /// Sets when this handle adopts newer published snapshots (no effect
    /// until [`bind_stream`](Self::bind_stream)).
    pub fn set_adopt_policy(&mut self, policy: AdoptPolicy) {
        self.adopt = policy;
    }

    /// Adopts the latest published snapshot. Returns `true` when the
    /// handle actually moved to a newer snapshot, `false` when it was
    /// already current or is not bound to a stream.
    pub fn refresh(&mut self) -> bool {
        let Some(published) = self.published.as_ref() else {
            return false;
        };
        let (latest, version) = published.latest_versioned();
        self.adopted_version = version;
        if Arc::ptr_eq(&latest, &self.core) {
            return false;
        }
        self.core = latest;
        true
    }

    /// How stale this handle's snapshot is relative to the ingest head
    /// (all-zero lag for a core with no stream writer attached).
    pub fn staleness(&self) -> Staleness {
        self.core.staleness()
    }

    /// Applies the adopt policy before a query.
    fn maybe_adopt(&mut self) {
        let Some(published) = self.published.as_ref() else {
            return;
        };
        let wants = match self.adopt {
            AdoptPolicy::Manual => false,
            AdoptPolicy::EveryQuery => published.version() != self.adopted_version,
            AdoptPolicy::MaxRowsBehind(limit) => self.core.rows_behind() > limit,
        };
        if wants {
            self.refresh();
        }
    }

    /// The shared core this handle reads through.
    pub fn core(&self) -> &Arc<EngineCore> {
        &self.core
    }

    /// This user's exploration state.
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// Replaces the session (e.g. one restored via [`Session::load`] from
    /// a colleague's save). No validation — see
    /// [`restore_session_checked`](Self::restore_session_checked) for the
    /// form remote servers use.
    pub fn restore_session(&mut self, session: Session) {
        self.session = session;
    }

    /// Replaces the session after validating it against the core this
    /// handle serves — for a stream-bound handle, the snapshot it would
    /// actually query next (the adopt policy is applied first, so a save
    /// is validated against the *adopting* core, not a snapshot the handle
    /// is about to abandon).
    ///
    /// # Errors
    /// [`EngineError::SessionMismatch`] when the session's dataset name or
    /// recorded column schema disagree with this core, when a focused or
    /// replayed attribute index is out of bounds, or when a recorded class
    /// id is not registered here — any of which would let stale-keyed
    /// state (cached scores, focus tuples from a different table shape)
    /// leak into this core's answers. The handle's current session is kept
    /// on error.
    pub fn restore_session_checked(&mut self, session: Session) -> Result<()> {
        self.maybe_adopt();
        self.validate_session(&session)?;
        self.session = session;
        Ok(())
    }

    /// The `restore_session_checked` validation: dataset name, schema
    /// fingerprint, attribute bounds, class registration.
    fn validate_session(&self, session: &Session) -> Result<()> {
        let source = self.core.source();
        if session.dataset != source.name() {
            return Err(EngineError::SessionMismatch(format!(
                "session belongs to dataset `{}`, this core serves `{}`",
                session.dataset,
                source.name()
            )));
        }
        let names: Vec<&str> = source.schema().names().collect();
        if let Some(schema) = &session.schema {
            if schema.len() != names.len() || schema.iter().zip(names.iter()).any(|(a, b)| a != b) {
                return Err(EngineError::SessionMismatch(format!(
                    "schema mismatch: session recorded {} columns, core has {} \
                     (the dataset changed shape since the save)",
                    schema.len(),
                    names.len()
                )));
            }
        }
        let n_cols = names.len();
        let check_attrs = |attrs: &AttrTuple| -> Result<()> {
            for idx in attrs.indices() {
                if idx >= n_cols {
                    return Err(EngineError::SessionMismatch(format!(
                        "attribute index {idx} is out of bounds for a {n_cols}-column core"
                    )));
                }
            }
            Ok(())
        };
        let check_class = |class_id: &str| -> Result<()> {
            if self.core.registry().get(class_id).is_none() {
                return Err(EngineError::SessionMismatch(format!(
                    "class `{class_id}` is not registered on this core"
                )));
            }
            Ok(())
        };
        for inst in &session.focus {
            check_class(&inst.class_id)?;
            check_attrs(&inst.attrs)?;
        }
        for query in session.queries() {
            check_class(&query.class_id)?;
            for &idx in &query.fixed_attrs {
                if idx >= n_cols {
                    return Err(EngineError::SessionMismatch(format!(
                        "fixed attribute {idx} is out of bounds for a {n_cols}-column core"
                    )));
                }
            }
            for excluded in &query.exclude {
                check_attrs(excluded)?;
            }
        }
        Ok(())
    }

    /// This user's scoring mode.
    pub fn mode(&self) -> Mode {
        self.opts.mode
    }

    /// Overrides the scoring mode for this session only.
    ///
    /// # Errors
    /// Approximate mode requires the core to carry a sketch catalog; exact
    /// mode requires raw rows the source can still provide.
    pub fn set_mode(&mut self, mode: Mode) -> Result<()> {
        match mode {
            Mode::Approximate if self.core.catalog().is_none() => Err(EngineError::NoCatalog),
            Mode::Exact if self.core.source().is_sketch_only() => {
                Err(EngineError::ExactUnavailable(
                    "exact mode needs raw rows, but this source kept only sketches",
                ))
            }
            _ => {
                self.opts.mode = mode;
                Ok(())
            }
        }
    }

    /// Enables rayon-parallel execution for this session's queries.
    pub fn set_parallel(&mut self, on: bool) {
        self.opts.parallel = on;
    }

    /// This user's candidate-generation strategy.
    pub fn candidate_strategy(&self) -> CandidateStrategy {
        self.opts.candidates
    }

    /// Sets how this session's pairwise queries generate candidates — the
    /// recall-vs-speed knob. [`CandidateStrategy::Auto`] (the default)
    /// resolves to a filled rank order, then LSH bucket collisions (tables
    /// of at least 64 numeric columns with an index), then the scan;
    /// [`CandidateStrategy::Exhaustive`] pins recall to 1.0;
    /// [`CandidateStrategy::Lsh`] forces collisions with a chosen number of
    /// probe tables. Per-session state — other handles over the same core
    /// are unaffected.
    pub fn set_candidate_strategy(&mut self, strategy: CandidateStrategy) {
        self.opts.candidates = strategy;
    }

    /// Sets this session's neighborhood re-ranking weights.
    pub fn set_weights(&mut self, weights: NeighborhoodWeights) {
        self.weights = weights;
    }

    /// Sets this session's focus over-fetch factor used by carousel
    /// assembly (see [`DEFAULT_FOCUS_OVERFETCH`]); values below 1 are
    /// treated as 1.
    pub fn set_focus_overfetch(&mut self, factor: usize) {
        self.focus_overfetch = factor.max(1);
    }

    /// Configures deterministic trace sampling for this session: roughly
    /// one query in `1/rate` is captured as a full [`QueryTrace`] into the
    /// core's trace ring (`rate` = 0 turns sampling off; ≥ 1 traces every
    /// query). The sampled subset is a fixed residue of a per-handle query
    /// counter — seeded by `seed`, free of RNG on the query path — so the
    /// same (rate, seed, query sequence) always traces the same queries.
    ///
    /// See also [`explain`](Self::explain) for forcing a single query's
    /// trace.
    ///
    /// [`QueryTrace`]: crate::trace::QueryTrace
    pub fn set_trace_sampling(&mut self, rate: f64, seed: u64) {
        if rate.is_nan() || rate <= 0.0 {
            self.trace_every = 0;
            self.trace_phase = 0;
            self.trace_counter = 0;
            return;
        }
        let every = (1.0 / rate.min(1.0)).round().max(1.0) as u64;
        self.trace_every = every;
        self.trace_phase = seed % every;
        self.trace_counter = 0;
    }

    /// Does the sampling schedule select the next query? Advances the
    /// per-handle counter; zero atomics when sampled out.
    fn sample_this_query(&mut self) -> bool {
        if self.trace_every == 0 {
            return false;
        }
        let n = self.trace_counter;
        self.trace_counter += 1;
        n % self.trace_every == self.trace_phase
    }

    /// Runs an insight query against the shared core and records it in
    /// this session's history. `&mut self` guards only the history append
    /// — the core is read-only throughout. When the sampling schedule set
    /// by [`set_trace_sampling`](Self::set_trace_sampling) selects this
    /// query, its trace is captured into the core's ring as a side effect.
    pub fn query(&mut self, query: &InsightQuery) -> Result<Vec<InsightInstance>> {
        self.maybe_adopt();
        let trace = if self.sample_this_query() {
            TraceMode::Sampled
        } else {
            TraceMode::Off
        };
        let out = self
            .core
            .run(query, &QueryOptions { trace, ..self.opts })?
            .results;
        self.session.record_query(query, out.len());
        Ok(out)
    }

    /// EXPLAIN: runs the query with a forced trace — regardless of the
    /// sampling schedule — and returns the results together with the
    /// captured [`QueryTrace`]. Results are bit-identical to
    /// [`query`](Self::query). The query is recorded in this session's
    /// history like any other.
    ///
    /// [`QueryTrace`]: crate::trace::QueryTrace
    pub fn explain(&mut self, query: &InsightQuery) -> Result<Explained> {
        self.maybe_adopt();
        let explained = self.core.run(
            query,
            &QueryOptions {
                trace: TraceMode::Forced,
                ..self.opts
            },
        )?;
        self.session.record_query(query, explained.results.len());
        Ok(explained)
    }

    /// Re-executes every query recorded in this session's history (e.g.
    /// one restored from a colleague's saved session) and returns the
    /// per-query results. The replay itself is appended to the history.
    pub fn replay_session(&mut self) -> Result<Vec<Vec<InsightInstance>>> {
        let queries: Vec<InsightQuery> = self.session.queries().into_iter().cloned().collect();
        queries.iter().map(|q| self.query(q)).collect()
    }

    /// Builds all carousels (one per class), re-ranked toward this
    /// session's focus set.
    pub fn carousels(&self, per_class: usize) -> Result<Vec<Carousel>> {
        self.core.carousels(
            &self.session,
            &CarouselConfig {
                per_class,
                weights: self.weights,
                focus_overfetch: self.focus_overfetch,
            },
            &self.opts,
        )
    }

    /// Focuses an insight, steering this session's future recommendations
    /// toward its neighborhood.
    pub fn focus(&mut self, instance: InsightInstance) {
        self.session.focus(instance);
    }

    /// Removes a focused insight from this session.
    pub fn unfocus(&mut self, attrs: &AttrTuple) -> bool {
        self.session.unfocus(attrs)
    }

    /// Clears this session's focus set.
    pub fn clear_focus(&mut self) {
        self.session.clear_focus();
    }

    /// Profiles the dataset under this session's mode.
    pub fn profile(&self) -> Result<crate::profile::DatasetProfile> {
        self.core.profile(self.opts.mode)
    }

    /// A deterministic snapshot of the shared core's telemetry — per-stage
    /// latency histograms, query counters, and score-cache traffic. All
    /// sessions over one core see the same registry.
    pub fn metrics(&self) -> crate::telemetry::MetricsSnapshot {
        self.core.metrics_snapshot()
    }

    /// The instantaneous health of this session's core under `policy` —
    /// see [`EngineCore::health`].
    pub fn health(&self, policy: &crate::monitor::HealthPolicy) -> crate::monitor::HealthState {
        self.core.health(policy)
    }

    /// Writes this session's state (focus set + history) to any writer.
    pub fn save_session(&self, writer: impl std::io::Write) -> Result<()> {
        self.session.save(writer)
    }

    /// Restores session state written by [`SessionHandle::save_session`].
    pub fn load_session(&mut self, reader: impl std::io::Read) -> Result<()> {
        self.session = Session::load(reader)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::CoreBuilder;
    use foresight_data::{datasets, TableSource};

    fn shared_core() -> Arc<EngineCore> {
        CoreBuilder::new(TableSource::materialized(datasets::oecd())).freeze()
    }

    #[test]
    fn handles_share_one_core_without_interference() {
        let core = shared_core();
        let mut alice = core.handle();
        let mut bob = core.handle();
        let q = InsightQuery::class("linear-relationship").top_k(2);
        let a = alice.query(&q).unwrap();
        alice.focus(a[0].clone());
        assert_eq!(alice.session().focus.len(), 1);
        assert!(bob.session().focus.is_empty());
        assert!(bob.session().history.is_empty());
        assert_eq!(bob.query(&q).unwrap(), a);
        assert_eq!(alice.session().history.len(), 2); // query + focus
        assert_eq!(bob.session().history.len(), 1);
    }

    #[test]
    fn session_round_trips_between_handles() {
        let core = shared_core();
        let mut alice = core.handle();
        let q = InsightQuery::class("skew").top_k(1);
        let top = alice.query(&q).unwrap();
        alice.focus(top[0].clone());
        let mut buf = Vec::new();
        alice.save_session(&mut buf).unwrap();

        let mut colleague = core.handle();
        colleague.load_session(buf.as_slice()).unwrap();
        assert_eq!(colleague.session(), alice.session());
        let replayed = colleague.replay_session().unwrap();
        assert_eq!(replayed, vec![top]);
    }

    #[test]
    fn metrics_cover_every_query_stage() {
        let mut builder = CoreBuilder::new(TableSource::materialized(datasets::oecd()));
        builder
            .preprocess(&foresight_sketch::CatalogConfig::default())
            .unwrap();
        let core = builder.freeze();
        let mut h = core.handle();
        h.query(&InsightQuery::class("linear-relationship").top_k(3))
            .unwrap();
        h.query(&InsightQuery::class("skew").top_k(3).diversify(0.5))
            .unwrap();
        h.carousels(2).unwrap();
        h.profile().unwrap();
        let snap = h.metrics();
        for stage in [
            "preprocess",
            "sketch_build",
            "score",
            "rank",
            "diversify",
            "describe",
            "carousel",
            "profile",
            "freeze",
        ] {
            assert!(
                snap.stage(stage).unwrap().count > 0,
                "stage {stage} has no samples:\n{}",
                snap.to_text()
            );
        }
        // the two queries above, plus the profile's own top-1 query
        // per class — its headlines go through the query path
        let headlines = core.registry().len() as u64;
        assert_eq!(snap.queries.total, 2 + headlines);
        assert_eq!(snap.queries.approximate, 2 + headlines);
        assert_eq!(snap.queries.by_class["skew"], 2);
        let cache = snap.cache.expect("core snapshots carry cache traffic");
        assert!(cache.hits + cache.misses > 0);
    }

    #[test]
    fn metrics_registry_survives_republish() {
        let core = shared_core();
        core.handle()
            .query(&InsightQuery::class("skew").top_k(1))
            .unwrap();
        let before = core.metrics_snapshot().queries.total;
        let mut writer = CoreBuilder::from_arc(Arc::clone(&core));
        writer.set_parallel(false);
        let republished = writer.freeze();
        assert_eq!(republished.metrics_snapshot().queries.total, before);
        assert!(
            republished
                .metrics_snapshot()
                .stage("freeze")
                .unwrap()
                .count
                >= 2
        );
    }

    #[test]
    fn kernel_mode_shows_in_metrics_and_explain() {
        let core = shared_core();
        let mut h = core.handle();
        let expected = foresight_stats::kernel::mode().name();
        assert_eq!(h.metrics().kernel, expected);
        let ex = h
            .explain(&InsightQuery::class("linear-relationship").top_k(2))
            .unwrap();
        let trace = ex.trace.expect("explain captures a trace");
        let score = trace.root.child("score").expect("score span");
        assert_eq!(score.attr("kernel"), Some(expected));
    }

    #[test]
    fn bound_handle_adopts_per_policy() {
        use crate::stream::{RepublishPolicy, StreamConfig, StreamWriter};
        use foresight_data::TableBuilder;
        let base: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let table = |offset: usize| {
            TableBuilder::new("t")
                .numeric("x", base.iter().map(|v| v + offset as f64).collect())
                .numeric(
                    "y",
                    base.iter().map(|v| 2.0 * (v + offset as f64)).collect(),
                )
                .build()
                .unwrap()
        };
        let core = CoreBuilder::new(TableSource::materialized(table(0))).freeze();
        let writer = StreamWriter::spawn(
            core,
            StreamConfig {
                policy: RepublishPolicy {
                    max_rows: 100,
                    ..RepublishPolicy::default()
                },
                ..StreamConfig::default()
            },
        );
        let mut manual = writer.published().latest().handle();
        manual.bind_stream(writer.published());
        let mut eager = writer.published().latest().handle();
        eager.bind_stream(writer.published());
        eager.set_adopt_policy(AdoptPolicy::EveryQuery);

        writer.send(table(100)).unwrap();
        writer.flush().unwrap();

        let q = InsightQuery::class("linear-relationship").top_k(1);
        manual.query(&q).unwrap();
        assert_eq!(
            manual.staleness().snapshot_rows,
            100,
            "manual handle keeps its snapshot"
        );
        eager.query(&q).unwrap();
        assert_eq!(
            eager.staleness().snapshot_rows,
            200,
            "every-query handle adopted the republish"
        );
        assert!(manual.refresh(), "manual refresh adopts");
        assert_eq!(manual.staleness().snapshot_rows, 200);
        assert!(!manual.refresh(), "already current");
        writer.finish().unwrap();
    }

    #[test]
    fn mode_override_is_per_handle() {
        let mut builder = CoreBuilder::new(TableSource::materialized(datasets::oecd()));
        builder
            .preprocess(&foresight_sketch::CatalogConfig::default())
            .unwrap();
        let core = builder.freeze();
        let mut approx = core.handle();
        let mut exact = core.handle();
        assert_eq!(approx.mode(), Mode::Approximate);
        exact.set_mode(Mode::Exact).unwrap();
        let q = InsightQuery::class("linear-relationship").top_k(1);
        let a = approx.query(&q).unwrap();
        let e = exact.query(&q).unwrap();
        assert_eq!(approx.mode(), Mode::Approximate, "unchanged by neighbor");
        assert_eq!(a.len(), 1);
        assert_eq!(e.len(), 1);
    }
}
