//! Query execution: candidate enumeration → (exact or sketch) scoring →
//! filtering → ranking. Optionally rayon-parallel across candidates (the
//! paper's future-work "parallel search methods that speed up insight
//! queries").

use crate::cache::ScoreCache;
use crate::candidates::{CandidateOrigin, CandidateSource};
use crate::error::{EngineError, Result};
use crate::order::{Layout, Plane, RankOrders, Slot};
use crate::query::InsightQuery;
use crate::telemetry::{Counter, Metrics};
use crate::trace::{LshCandidates, Recorder, ScorePath, Step};
use foresight_data::Table;
use foresight_insight::{AttrTuple, InsightClass, InsightInstance, InsightRegistry};
use foresight_sketch::SketchCatalog;
use foresight_stats::prepared::PreparedColumns;
use rayon::prelude::*;
use std::cmp::Ordering;

/// How scores are computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Exact metrics over the raw columns.
    Exact,
    /// Sketch-backed approximations where a class supports them, exact
    /// fallback otherwise. Requires a built [`SketchCatalog`].
    Approximate,
}

impl Mode {
    /// The stable lowercase name (`exact` / `approximate`) used in traces,
    /// the slow-query log, and renderings.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Exact => "exact",
            Mode::Approximate => "approximate",
        }
    }
}

/// Executes [`InsightQuery`]s against one table.
pub struct Executor<'a> {
    pub(crate) table: &'a Table,
    pub(crate) registry: &'a InsightRegistry,
    catalog: Option<&'a SketchCatalog>,
    /// The shared score cache: the description memo, and the counters of
    /// the lookups in `orders`.
    cache: Option<&'a ScoreCache>,
    /// The core's telemetry registry, when attached (standalone executors
    /// run unobserved).
    pub(crate) metrics: Option<&'a Metrics>,
    mode: Mode,
    pub(crate) parallel: bool,
    pub(crate) sketch_only: bool,
    /// How candidate tuples are generated: the class's own scan for a
    /// standalone executor; a core snapshot passes its [`CandidateSource`]
    /// so wide-table queries can draw candidates from LSH collisions.
    candidates: CandidateSource<'a>,
    /// The store of per-column transforms over `table` that exact batch
    /// scoring draws from. A core snapshot lends its own, so a column is
    /// centred or ranked once per snapshot; `None` (standalone executors)
    /// = one store per scoring call, dropped with it.
    prepared: Option<&'a PreparedColumns>,
    /// The snapshot's score planes and rank orders (see [`RankOrders`]):
    /// every pass reads and stores its keyspace's plane, and unfixed
    /// queries walk a complete one's order. `None` (standalone executors)
    /// = every query scores and ranks.
    orders: Option<&'a RankOrders>,
}

impl<'a> Executor<'a> {
    /// An exact-mode executor.
    pub fn exact(table: &'a Table, registry: &'a InsightRegistry) -> Self {
        Self {
            table,
            registry,
            catalog: None,
            cache: None,
            metrics: None,
            mode: Mode::Exact,
            parallel: false,
            sketch_only: false,
            candidates: CandidateSource::exhaustive(),
            prepared: None,
            orders: None,
        }
    }

    /// An approximate-mode executor over a prebuilt catalog.
    pub fn approximate(
        table: &'a Table,
        registry: &'a InsightRegistry,
        catalog: &'a SketchCatalog,
    ) -> Self {
        Self {
            table,
            registry,
            catalog: Some(catalog),
            cache: None,
            metrics: None,
            mode: Mode::Approximate,
            parallel: false,
            sketch_only: false,
            candidates: CandidateSource::exhaustive(),
            prepared: None,
            orders: None,
        }
    }

    /// Marks the table as schema-only: candidate enumeration and semantic
    /// filters still consult it, but its raw rows are absent (a sharded or
    /// sketch-only [`TableSource`](foresight_data::TableSource)). Exact
    /// fallback scoring is disabled — classes without a sketch path simply
    /// produce no instances — alternative-metric queries become a typed
    /// error, and details are rendered from the sketch score alone.
    pub fn sketch_only(mut self, on: bool) -> Self {
        self.sketch_only = on;
        self
    }

    /// Enables rayon-parallel scoring of per-candidate work that has no
    /// batch form (sketch estimates, alternative metrics). Exact
    /// primary-metric scoring goes through [`InsightClass::score_batch`]
    /// either way (bit-identical to per-candidate scoring).
    pub fn parallel(mut self, on: bool) -> Self {
        self.parallel = on;
        self
    }

    /// Attaches a cross-query [`ScoreCache`]: results' details come from its
    /// description memo, and lookups in the lent [`RankOrders`] are counted
    /// in it (without a store, every candidate is a miss). The caller owns
    /// invalidation: clear the cache whenever the table, registry or
    /// catalog changes.
    pub fn with_cache(mut self, cache: &'a ScoreCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Attaches a [`CandidateSource`]: pairwise classes that declare a
    /// prunable candidate shape draw their tuples from LSH bucket
    /// collisions when the source's strategy resolves to the index, with
    /// the class's own scan as the fallback. Absent (the default), every
    /// query uses the class scan — bit-identical to an engine without the
    /// index.
    pub fn with_candidates(mut self, source: CandidateSource<'a>) -> Self {
        self.candidates = source;
        self
    }

    /// Lends the executor a [`PreparedColumns`] store that outlives it —
    /// one derived from `table` and nothing else, which is the caller's
    /// obligation (a core snapshot owns its table and its store together).
    /// Scores are bit-identical with or without it.
    pub fn with_prepared(mut self, prepared: &'a PreparedColumns) -> Self {
        self.prepared = Some(prepared);
        self
    }

    /// Lends the executor a [`RankOrders`] store over its own registry,
    /// table and catalog — the caller's obligation, as for
    /// [`with_prepared`](Self::with_prepared). Its planes then keep the
    /// scores passes compute — an LSH draw's only in a plane a scan or a
    /// pinned walk allocated. Results are bit-identical with or without it.
    pub fn with_orders(mut self, orders: &'a RankOrders) -> Self {
        self.orders = Some(orders);
        self
    }

    /// Attaches a [`Metrics`] registry: stage samples (score, rank,
    /// diversify, describe, index serve, carousel) and sketch-fallback and
    /// LSH counts are recorded into it.
    pub fn with_metrics(mut self, metrics: &'a Metrics) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// The execution mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Applies `f` to every tuple in input order, rayon-split when the
    /// executor is parallel — for per-candidate work with no batch form.
    fn map_each<T: Send>(
        &self,
        tuples: &[AttrTuple],
        f: impl Fn(&AttrTuple) -> T + Sync,
    ) -> Vec<T> {
        if self.parallel {
            tuples.par_iter().map(f).collect()
        } else {
            tuples.iter().map(f).collect()
        }
    }

    /// Scores tuples no cache entry answers, tagging each score with the
    /// path that produced it. Every exact score — primary or alternative
    /// metric, exact mode or the sketch-less remainder of an approximate
    /// pass — comes from [`InsightClass::score_metric_batch`], which is
    /// contractually bit-identical to per-candidate `score_metric` and
    /// shares per-column work across the miss set (and, through the
    /// snapshot's [`PreparedColumns`], across queries).
    fn score_misses(
        &self,
        class: &dyn InsightClass,
        metric: Option<&'static str>,
        tuples: &[AttrTuple],
    ) -> Vec<(Option<f64>, ScorePath)> {
        let local;
        let prepared = match self.prepared {
            Some(shared) => shared,
            None => {
                local = PreparedColumns::new();
                &local
            }
        };
        let exact = |tuples: &[AttrTuple], metric: &str| {
            let scores = class.score_metric_batch(self.table, tuples, metric, prepared);
            debug_assert_eq!(scores.len(), tuples.len());
            scores
        };
        let tagged = |scores: Vec<Option<f64>>| -> Vec<(Option<f64>, ScorePath)> {
            scores.into_iter().map(|s| (s, ScorePath::Exact)).collect()
        };
        if let Some(metric) = metric {
            // alternative metrics always take the exact path. A parallel
            // executor splits per tuple, as for every per-candidate pass:
            // what a batched metric shares is in `prepared`, so a one-tuple
            // batch costs two slot reads and a dot product, and a metric
            // with nothing to share (|kendall-tau|) keeps its fan-out.
            return tagged(if self.parallel {
                tuples
                    .par_chunks(1)
                    .flat_map(|one| exact(one, metric))
                    .collect()
            } else {
                exact(tuples, metric)
            });
        }
        let (Mode::Approximate, Some(catalog)) = (self.mode, self.catalog) else {
            return tagged(exact(tuples, class.metric()));
        };
        let mut out = self.map_each(tuples, |attrs| {
            match class.score_sketch(catalog, self.table, attrs) {
                Some(s) => (Some(s), ScorePath::Sketch),
                None => (None, ScorePath::NoSketch),
            }
        });
        if self.sketch_only {
            // no raw rows to fall back to; sketch-less candidates are dropped
            return out;
        }
        let (slots, unsketched): (Vec<usize>, Vec<AttrTuple>) = out
            .iter()
            .zip(tuples)
            .enumerate()
            .filter_map(|(i, ((_, path), attrs))| {
                (*path == ScorePath::NoSketch).then_some((i, *attrs))
            })
            .unzip();
        if let Some(metrics) = self.metrics {
            metrics.add(Counter::SketchFallbacks, unsketched.len() as u64);
        }
        for (i, score) in slots.into_iter().zip(exact(&unsketched, class.metric())) {
            out[i] = (score, ScorePath::SketchFallbackExact);
        }
        out
    }

    /// The one scoring routine: scores for `candidates` under `metric`
    /// (`None` = the class's primary metric), positionally aligned, plus —
    /// only when `rec` is traced, empty otherwise — each candidate's
    /// `(plane-hit, path)` provenance.
    ///
    /// With `plane` — the keyspace's slot and each candidate's position in
    /// its plane — a scored position is a hit, and
    /// [`score_misses`](Self::score_misses) scores the rest, each stored
    /// unless a racing pass stored it first. Without one, every candidate
    /// is a miss and nothing is kept. Queries and carousels all score
    /// through here, so tracing, parallelism and the store never change a
    /// score. A trace sees the three steps as `cache_lookup`,
    /// `score_misses` and `cache_store` spans.
    fn score_candidates(
        &self,
        class: &dyn InsightClass,
        metric: Option<&'static str>,
        candidates: &[AttrTuple],
        plane: Option<(&Slot, &Plane, &[usize])>,
        rec: &mut Recorder<'_>,
    ) -> (Vec<Option<f64>>, Vec<(bool, ScorePath)>) {
        let counted = plane.is_some() || self.cache.is_some();
        let lookup = counted.then(|| rec.open(Step::CacheLookup));
        let mut slots: Vec<Option<Option<f64>>> = match plane {
            Some((_, plane, positions)) => positions.iter().map(|&p| plane.get(p)).collect(),
            None => vec![None; candidates.len()],
        };
        let (pending, missing): (Vec<usize>, Vec<AttrTuple>) = slots
            .iter()
            .zip(candidates)
            .enumerate()
            .filter_map(|(i, (slot, attrs))| slot.is_none().then_some((i, *attrs)))
            .unzip();
        let misses = missing.len() as u64;
        let hits = candidates.len() as u64 - misses;
        if let Some(cache) = self.cache {
            cache.count(hits, misses);
        }
        if let Some(lookup) = lookup {
            rec.attr("hits", || hits.to_string());
            rec.attr("misses", || misses.to_string());
            rec.close(lookup);
        }
        let mut provenance = if rec.is_traced() {
            vec![(true, ScorePath::Cache); candidates.len()]
        } else {
            Vec::new()
        };
        let scoring = rec.open(Step::ScoreMisses);
        rec.attr("tuples", || missing.len().to_string());
        let (scores, paths): (Vec<Option<f64>>, Vec<ScorePath>) = if missing.is_empty() {
            (Vec::new(), Vec::new())
        } else {
            self.score_misses(class, metric, &missing)
                .into_iter()
                .unzip()
        };
        for (&i, &score) in pending.iter().zip(&scores) {
            slots[i] = Some(score);
        }
        if rec.is_traced() {
            for (&i, path) in pending.iter().zip(paths) {
                provenance[i] = (false, path);
            }
        }
        rec.close(scoring);
        if counted {
            let store = rec.open(Step::CacheStore);
            let stored = plane.map_or(0, |(slot, _, positions)| {
                let fresh = pending.iter().zip(&scores);
                slot.store(fresh.map(|(&i, &score)| (positions[i], score)))
                    .0 as u64
            });
            rec.attr("stored", || stored.to_string());
            rec.close(store);
            rec.set_cache_traffic(hits, misses, stored);
            rec.attr("cache_hits", || hits.to_string());
            rec.attr("cache_misses", || misses.to_string());
            rec.attr("stored", || stored.to_string());
        }
        let scores = slots.into_iter().map(|s| s.expect("all slots filled"));
        (scores.collect(), provenance)
    }

    /// Runs a query, returning instances sorted by descending score.
    pub fn execute(&self, query: &InsightQuery) -> Result<Vec<InsightInstance>> {
        Ok(self
            .execute_recorded(query, &mut Recorder::untraced(self.metrics))?
            .0)
    }

    /// [`execute`](Self::execute) timed — and, when it is traced, traced —
    /// by a request-scoped [`Recorder`], also saying whether the query
    /// walked a precomputed rank order.
    ///
    /// An unfixed, undiversified query walks its keyspace's order when the
    /// lent [`RankOrders`] holds one — under `Auto` too; only a forced
    /// [`CandidateStrategy::Lsh`](crate::CandidateStrategy::Lsh) draws
    /// collisions instead. A pass that scores the whole scan — no fixed,
    /// semantic or exclusion filter, no LSH — fills the order on the way.
    pub(crate) fn execute_recorded(
        &self,
        query: &InsightQuery,
        rec: &mut Recorder<'_>,
    ) -> Result<(Vec<InsightInstance>, bool)> {
        let class = self
            .registry
            .get(&query.class_id)
            .ok_or_else(|| EngineError::UnknownClass(query.class_id.clone()))?;
        // the query's metric, resolved once to the class's own spelling of
        // it: the unknown-metric check and the allocation-free cache key
        let metric: Option<&'static str> = match &query.metric {
            None => None,
            Some(name) => {
                let known = std::iter::once(class.metric())
                    .chain(class.alternative_metrics())
                    .find(|m| m == name);
                if known.is_none() {
                    return Err(EngineError::UnknownMetric {
                        class: query.class_id.clone(),
                        metric: name.clone(),
                    });
                }
                if self.sketch_only {
                    return Err(EngineError::ExactUnavailable(
                        "alternative metrics are scored over raw rows, which a \
                         sharded source does not expose in approximate mode",
                    ));
                }
                known
            }
        };

        rec.set_metric(metric.unwrap_or_else(|| class.metric()));
        let diversify = query.diversify.filter(|&lambda| lambda > 0.0);
        let slot = self
            .orders
            .and_then(|orders| orders.slot(self.registry, class.as_ref(), self.mode, metric));
        let walks = query.fixed_attrs.is_empty()
            && diversify.is_none()
            && self.candidates.walks_orders(class.as_ref(), self.table);
        if let Some((plane, order)) = slot.and_then(Slot::filled).filter(|_| walks) {
            let ranked = self.walk(plane, order, query, rec);
            let out = self.describe(class.as_ref(), query, metric, ranked, rec);
            return Ok((out, true));
        }

        let generating = rec.open(Step::Candidates);
        let plan = self
            .candidates
            .generate(class.as_ref(), self.table, &query.fixed_attrs);
        let raw = plan.tuples;
        let generated = raw.len();
        let (scan_positions, candidates): (Vec<usize>, Vec<AttrTuple>) = raw
            .iter()
            .copied()
            .enumerate()
            .filter(|(_, a)| {
                query.matches_fixed(a)
                    && query.matches_semantic(self.table, a)
                    && !query.exclude.contains(a)
            })
            .unzip();
        rec.set_candidates(generated, candidates.len());
        rec.attr("generated", || generated.to_string());
        rec.attr("eligible", || candidates.len().to_string());
        if let CandidateOrigin::PinnedScan { column } = plan.origin {
            rec.attr("pinned", || {
                foresight_insight::class::column_name(self.table, column).to_owned()
            });
        }
        if let CandidateOrigin::Lsh {
            collision_pairs,
            universe_columns,
            tables_probed,
        } = plan.origin
        {
            rec.set_lsh(LshCandidates {
                collision_pairs,
                universe_columns,
                tables_probed,
            });
            rec.attr("lsh_collisions", || {
                format!("{collision_pairs} of {universe_columns}²")
            });
            rec.attr("lsh_tables_probed", || tables_probed.to_string());
            if let Some(metrics) = self.metrics {
                metrics.add(Counter::LshQueries, 1);
                metrics.add(Counter::LshCandidatePairs, collision_pairs as u64);
            }
        }
        rec.close(generating);

        let keep = |attrs: &AttrTuple, score: Option<f64>| -> Option<(AttrTuple, f64)> {
            let score = score?;
            (score.is_finite() && query.matches_range(score)).then_some((*attrs, score))
        };
        let scoring = rec.open(Step::Score);
        // which stats kernel served this query's scoring pass — lets EXPLAIN
        // distinguish vectorized from scalar-forced (FORESIGHT_KERNEL) runs
        rec.attr("kernel", || {
            foresight_stats::kernel::mode().name().to_owned()
        });
        // a pass over the whole class scan, unfiltered: it completes the
        // keyspace, and the survivors come out of its order already ranked
        let whole = query.fixed_attrs.is_empty()
            && plan.origin == CandidateOrigin::ClassScan
            && query.semantic.is_none()
            && query.exclude.is_empty();
        // the keyspace's plane — a declared pair shape's from its first
        // scan or pinned walk, an undeclared class's from a whole pass; an
        // LSH draw, sub-quadratic, reads a plane but allocates none — and
        // where the candidates sit in it: by scan index or, for a pinned
        // walk or an LSH draw, by the pair's triangular index
        let allocates = !matches!(plan.origin, CandidateOrigin::Lsh { .. });
        let plane = slot.and_then(|slot| {
            let layout = || Layout::new(class.as_ref(), self.table, whole.then_some(&raw[..]));
            let plane = slot.plane_or(allocates.then_some(layout))?;
            let positions = match plan.origin {
                CandidateOrigin::ClassScan => {
                    (plane.len() == generated).then_some(scan_positions)?
                }
                _ => candidates
                    .iter()
                    .map(|a| plane.layout.position(a))
                    .collect::<Option<_>>()?,
            };
            Some((slot, plane, positions))
        });
        let (scores, provenance) = self.score_candidates(
            class.as_ref(),
            metric,
            &candidates,
            plane
                .as_ref()
                .map(|(slot, plane, p)| (*slot, *plane, &p[..])),
            rec,
        );
        rec.record_scoring(self.table, query, &candidates, &scores, &provenance);
        // a pass that stored the last position builds the order
        let order = plane.and_then(|(slot, ..)| slot.finish()).filter(|_| whole);
        let (mut scored, ranked): (Vec<(AttrTuple, f64)>, bool) = match order {
            Some((_, _, Some(mut built))) => {
                built.retain(|&(_, score)| query.matches_range(score));
                (built, true)
            }
            Some((plane, order, None)) => (ranked_iter(plane, order, query).collect(), true),
            None => (
                scores
                    .into_iter()
                    .zip(&candidates)
                    .filter_map(|(score, attrs)| keep(attrs, score))
                    .collect(),
                false,
            ),
        };
        rec.attr("survivors", || scored.len().to_string());
        rec.close(scoring);

        match diversify {
            Some(lambda) => {
                let diversifying = rec.open(Step::Diversify);
                // MMR needs the full descending-score ordering as input
                if !ranked {
                    scored.sort_by(rank_order);
                }
                if rec.is_traced() {
                    // snapshot the plain ranking so final ranks get deltas
                    rec.set_undiversified(scored.iter().map(|(a, _)| *a).collect());
                }
                rec.attr("lambda", || lambda.to_string());
                rec.attr("pool", || scored.len().to_string());
                rec.attr("k", || query.top_k.to_string());
                scored = diversify_scored(scored, query.top_k, lambda);
                rec.close(diversifying);
            }
            None => {
                let ranking = rec.open(Step::Rank);
                rec.attr("pool", || scored.len().to_string());
                rec.attr("k", || query.top_k.to_string());
                if ranked {
                    scored.truncate(query.top_k);
                } else {
                    scored = rank_top_k(scored, query.top_k);
                }
                rec.close(ranking);
            }
        }
        let out = self.describe(class.as_ref(), query, metric, scored, rec);
        Ok((out, false))
    }

    /// The ranked tuples as instances, each `detail` through the cache's
    /// description memo — the last stage of every query, walked or scored.
    fn describe(
        &self,
        class: &dyn InsightClass,
        query: &InsightQuery,
        metric: Option<&'static str>,
        ranked: Vec<(AttrTuple, f64)>,
        rec: &mut Recorder<'_>,
    ) -> Vec<InsightInstance> {
        let describing = rec.open(Step::Describe);
        let out: Vec<InsightInstance> = ranked
            .into_iter()
            .map(|(attrs, score)| InsightInstance {
                class_id: query.class_id.clone(),
                attrs,
                score,
                metric: metric.unwrap_or_else(|| class.metric()).to_owned(),
                detail: if self.sketch_only {
                    // `describe` reads raw columns the source doesn't have
                    format!(
                        "{} ≈ {score:.3} (estimated from merged shard sketches)",
                        class.metric()
                    )
                } else {
                    match self.cache {
                        // `describe` is pure in (table, attrs, score);
                        // memoizing it spares per-result model refits
                        // (multimodality's KDE) on every warm carousel
                        // refresh.
                        Some(cache) => cache.detail(class.id(), &attrs, score, || {
                            class.describe(self.table, &attrs, score)
                        }),
                        None => class.describe(self.table, &attrs, score),
                    }
                },
            })
            .collect();
        rec.attr("results", || out.len().to_string());
        rec.close(describing);
        rec.record_results(self.table, &out);
        out
    }

    /// Walks a rank order with the query's range, exclusion and semantic
    /// filters, up to the first `k` admitted entries.
    fn walk(
        &self,
        plane: &Plane,
        order: &[u32],
        query: &InsightQuery,
        rec: &mut Recorder<'_>,
    ) -> Vec<(AttrTuple, f64)> {
        let walking = rec.open(Step::IndexServe);
        rec.set_index_served();
        let pool: Vec<(AttrTuple, f64)> = ranked_iter(plane, order, query)
            .filter(|(attrs, _)| {
                !query.exclude.contains(attrs) && query.matches_semantic(self.table, attrs)
            })
            .take(query.top_k)
            .collect();
        rec.set_candidates(order.len(), pool.len());
        rec.attr("order", || order.len().to_string());
        rec.attr("pool", || pool.len().to_string());
        rec.close(walking);
        pool
    }

    /// Completes a keyspace's order unless filled: every unscored position
    /// of its plane — carried from the previous generation (see
    /// [`RankOrders::carry`]) or new over the class scan — scored and
    /// stored, uncounted (a freeze is not query traffic). Returns how many
    /// scores were reused and how many computed; `(0, 0)` without a store,
    /// with the order already there, or for a scan no plane can hold.
    pub(crate) fn complete(
        &self,
        class: &dyn InsightClass,
        metric: Option<&'static str>,
    ) -> (usize, usize) {
        let slot = self
            .orders
            .and_then(|orders| orders.slot(self.registry, class, self.mode, metric));
        let Some(slot) = slot.filter(|slot| slot.filled().is_none()) else {
            return (0, 0);
        };
        let scan = class.candidates(self.table);
        let plane = slot.plane_or(Some(|| Layout::new(class, self.table, Some(&scan))));
        let Some(plane) = plane.filter(|plane| plane.len() == scan.len()) else {
            return (0, 0);
        };
        let (pending, missing): (Vec<usize>, Vec<AttrTuple>) = (0..scan.len())
            .filter(|&p| plane.get(p).is_none())
            .map(|p| (p, scan[p]))
            .unzip();
        let fresh = self.score_misses(class, metric, &missing);
        slot.store(
            pending
                .into_iter()
                .zip(fresh)
                .map(|(p, (score, _))| (p, score)),
        );
        slot.finish();
        (scan.len() - missing.len(), missing.len())
    }
}

/// A complete plane's order as ranked `(tuple, score)`s in the query's
/// score range.
fn ranked_iter<'p>(
    plane: &'p Plane,
    order: &'p [u32],
    query: &'p InsightQuery,
) -> impl Iterator<Item = (AttrTuple, f64)> + 'p {
    order
        .iter()
        .map(|&p| (p as usize, plane.score(p as usize).expect("finite")))
        .filter(|&(_, score)| query.matches_range(score))
        .map(|(p, score)| (plane.layout.tuple(p), score))
}

/// The ranking order: descending score, ties broken by ascending attribute
/// tuple (deterministic across runs, threads, and scoring paths).
pub(crate) fn rank_order(a: &(AttrTuple, f64), b: &(AttrTuple, f64)) -> Ordering {
    b.1.partial_cmp(&a.1)
        .expect("non-finite scores filtered")
        .then_with(|| a.0.cmp(&b.0))
}

/// Selects and sorts the top `k` of `scored` under the ranking order
/// (descending score, ascending attribute tuple on ties).
///
/// Uses quickselect to partition the top `k` before sorting only that
/// prefix — `O(n + k log k)` instead of the `O(n log n)` full sort, which
/// matters when a query enumerates thousands of candidate tuples to return
/// a carousel of five. Output is identical to sort-then-truncate (the
/// engine's property tests assert as much).
pub fn rank_top_k(mut scored: Vec<(AttrTuple, f64)>, k: usize) -> Vec<(AttrTuple, f64)> {
    if k == 0 {
        scored.clear();
        return scored;
    }
    if scored.len() > k {
        scored.select_nth_unstable_by(k - 1, rank_order);
        scored.truncate(k);
    }
    scored.sort_by(rank_order);
    scored
}

/// Greedy maximal-marginal-relevance selection: repeatedly picks the
/// candidate maximizing `(1−λ)·normalized_score − λ·max_attr_overlap` with
/// the already-selected set. Input must be sorted by descending score.
///
/// Candidates are tombstoned in place and the per-candidate similarity to
/// the selected set is maintained incrementally (only the most recently
/// selected tuple can raise it), so selection is `O(k·n)` rather than the
/// `O(k·n²)` of rescanning the selected set and `Vec::remove`-compacting
/// the remainder on every round.
pub(crate) fn diversify_scored(
    scored: Vec<(AttrTuple, f64)>,
    top_k: usize,
    lambda: f64,
) -> Vec<(AttrTuple, f64)> {
    if scored.len() <= 1 {
        return scored;
    }
    let max_score = scored
        .iter()
        .map(|(_, s)| s.abs())
        .fold(f64::MIN_POSITIVE, f64::max);
    let overlap = |a: &AttrTuple, b: &AttrTuple| -> f64 {
        let shared = a.overlap(b) as f64;
        let union = (a.arity() + b.arity()) as f64 - shared;
        shared / union.max(1.0)
    };
    let n = scored.len();
    let mut alive = vec![true; n];
    let mut selected: Vec<(AttrTuple, f64)> = Vec::with_capacity(top_k.min(n));
    alive[0] = false;
    selected.push(scored[0]);
    // best_sim[i] = max overlap between candidate i and the selected set
    let mut best_sim: Vec<f64> = scored
        .iter()
        .map(|(attrs, _)| overlap(attrs, &scored[0].0))
        .collect();
    while selected.len() < top_k && selected.len() < n {
        let mut best: Option<(usize, f64)> = None;
        for (i, (_, score)) in scored.iter().enumerate() {
            if !alive[i] {
                continue;
            }
            let mmr = (1.0 - lambda) * (score.abs() / max_score) - lambda * best_sim[i];
            // `>=` keeps the last maximum, matching `Iterator::max_by`
            if best.is_none() || mmr >= best.expect("just checked").1 {
                best = Some((i, mmr));
            }
        }
        let (chosen, _) = best.expect("alive candidates remain");
        alive[chosen] = false;
        selected.push(scored[chosen]);
        for (i, (attrs, _)) in scored.iter().enumerate() {
            if alive[i] {
                best_sim[i] = best_sim[i].max(overlap(attrs, &scored[chosen].0));
            }
        }
    }
    selected
}

#[cfg(test)]
mod tests {
    use super::*;
    use foresight_data::TableBuilder;
    use foresight_sketch::CatalogConfig;

    fn table() -> Table {
        let x: Vec<f64> = (0..300).map(|i| i as f64).collect();
        let strong: Vec<f64> = x.iter().map(|v| 3.0 * v).collect();
        let medium: Vec<f64> = x
            .iter()
            .enumerate()
            .map(|(i, v)| v + ((i * 37) % 120) as f64 * 2.0)
            .collect();
        let noise: Vec<f64> = (0..300).map(|i| ((i * 37) % 300) as f64).collect();
        TableBuilder::new("t")
            .numeric("x", x)
            .numeric("strong", strong)
            .numeric("medium", medium)
            .numeric("noise", noise)
            .build()
            .unwrap()
    }

    fn registry() -> InsightRegistry {
        InsightRegistry::default()
    }

    #[test]
    fn ranks_descending_and_truncates() {
        let t = table();
        let r = registry();
        let ex = Executor::exact(&t, &r);
        let out = ex
            .execute(&InsightQuery::class("linear-relationship").top_k(2))
            .unwrap();
        assert_eq!(out.len(), 2);
        assert!(out[0].score >= out[1].score);
        assert_eq!(out[0].attrs, AttrTuple::Two(0, 1)); // x ~ strong, ρ = 1
        assert!(out[0].detail.contains("linear relationship"));
    }

    #[test]
    fn fixed_attrs_restrict() {
        let t = table();
        let r = registry();
        let ex = Executor::exact(&t, &r);
        let out = ex
            .execute(
                &InsightQuery::class("linear-relationship")
                    .top_k(10)
                    .fix_attr(3),
            )
            .unwrap();
        assert!(!out.is_empty());
        assert!(out.iter().all(|i| i.attrs.contains(3)));
    }

    #[test]
    fn score_range_filters_trivial_correlations() {
        let t = table();
        let r = registry();
        let ex = Executor::exact(&t, &r);
        let out = ex
            .execute(
                &InsightQuery::class("linear-relationship")
                    .top_k(10)
                    .score_range(0.3, 0.95),
            )
            .unwrap();
        assert!(out.iter().all(|i| i.score >= 0.3 && i.score <= 0.95));
        // the perfect pair was filtered out
        assert!(!out.iter().any(|i| i.attrs == AttrTuple::Two(0, 1)));
    }

    #[test]
    fn exclusions_respected() {
        let t = table();
        let r = registry();
        let ex = Executor::exact(&t, &r);
        let out = ex
            .execute(
                &InsightQuery::class("linear-relationship")
                    .top_k(10)
                    .exclude(AttrTuple::Two(0, 1)),
            )
            .unwrap();
        assert!(!out.iter().any(|i| i.attrs == AttrTuple::Two(0, 1)));
    }

    #[test]
    fn semantic_constraint_restricts_candidates() {
        let t = TableBuilder::new("t")
            .numeric("revenue", (0..60).map(|i| i as f64).collect())
            .semantic("currency")
            .numeric("cost", (0..60).map(|i| (2 * i) as f64).collect())
            .semantic("currency")
            .numeric("temperature", (0..60).map(|i| (3 * i) as f64).collect())
            .build()
            .unwrap();
        let r = registry();
        let ex = Executor::exact(&t, &r);
        let out = ex
            .execute(
                &InsightQuery::class("linear-relationship")
                    .top_k(10)
                    .require_semantic("currency"),
            )
            .unwrap();
        assert!(!out.is_empty());
        for inst in &out {
            assert!(
                inst.attrs
                    .indices()
                    .iter()
                    .any(|&i| t.semantic(i) == Some("currency")),
                "{:?} has no currency attribute",
                inst.attrs
            );
        }
        // an unknown tag yields an empty result, not an error
        let none = ex
            .execute(&InsightQuery::class("linear-relationship").require_semantic("nope"))
            .unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn unknown_class_and_metric_rejected() {
        let t = table();
        let r = registry();
        let ex = Executor::exact(&t, &r);
        assert!(matches!(
            ex.execute(&InsightQuery::class("nope")),
            Err(EngineError::UnknownClass(_))
        ));
        assert!(matches!(
            ex.execute(&InsightQuery::class("skew").metric("nope")),
            Err(EngineError::UnknownMetric { .. })
        ));
    }

    #[test]
    fn alternative_metric_path() {
        let t = table();
        let r = registry();
        let ex = Executor::exact(&t, &r);
        let out = ex
            .execute(&InsightQuery::class("linear-relationship").metric("|spearman|"))
            .unwrap();
        assert_eq!(out[0].metric, "|spearman|");
        assert!((out[0].score - 1.0).abs() < 1e-9);
    }

    #[test]
    fn approximate_mode_agrees_on_top_pair() {
        let t = table();
        let r = registry();
        let catalog = SketchCatalog::build(
            &t,
            &CatalogConfig {
                hyperplane_k: Some(1024),
                ..Default::default()
            },
        );
        let approx = Executor::approximate(&t, &r, &catalog);
        let out = approx
            .execute(&InsightQuery::class("linear-relationship").top_k(1))
            .unwrap();
        assert_eq!(out[0].attrs, AttrTuple::Two(0, 1));
        assert!(out[0].score > 0.9);
    }

    #[test]
    fn sketch_only_scores_without_raw_rows() {
        let x: Vec<f64> = (0..300).map(|i| i as f64).collect();
        let t = TableBuilder::new("t")
            .numeric("x", x.clone())
            .numeric("strong", x.iter().map(|v| 3.0 * v).collect())
            .categorical("grp", (0..300).map(|i| if i % 3 == 0 { "a" } else { "b" }))
            .build()
            .unwrap();
        let r = registry();
        let catalog = SketchCatalog::build(
            &t,
            &CatalogConfig {
                hyperplane_k: Some(1024),
                ..Default::default()
            },
        );
        // the executor sees only the schema — zero rows of data
        let schema_only = foresight_data::TableSource::materialized(t).schema_table();
        assert_eq!(schema_only.n_rows(), 0);
        let ex = Executor::approximate(&schema_only, &r, &catalog).sketch_only(true);
        let out = ex
            .execute(&InsightQuery::class("linear-relationship").top_k(1))
            .unwrap();
        assert_eq!(out[0].attrs, AttrTuple::Two(0, 1));
        assert!(out[0].score > 0.9);
        assert!(out[0].detail.contains("sketch"));
        // alternative metrics need raw rows → typed error
        assert!(matches!(
            ex.execute(&InsightQuery::class("linear-relationship").metric("|spearman|")),
            Err(crate::error::EngineError::ExactUnavailable(_))
        ));
        // a class with no sketch path yields no instances, not a panic
        let none = ex
            .execute(&InsightQuery::class("statistical-dependence").top_k(3))
            .unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn parallel_equals_sequential() {
        let t = table();
        let r = registry();
        let q = InsightQuery::class("linear-relationship").top_k(6);
        let seq = Executor::exact(&t, &r).execute(&q).unwrap();
        let par = Executor::exact(&t, &r).parallel(true).execute(&q).unwrap();
        assert_eq!(seq, par);
    }

    /// A filtered pass keeps its scores in a partial plane, which the same
    /// query's rerun reads back: every candidate a hit.
    #[test]
    fn cached_executor_matches_uncached_and_hits_on_rerun() {
        let t = table();
        let r = registry();
        let (cache, orders) = (ScoreCache::new(), RankOrders::new());
        let q = InsightQuery::class("linear-relationship")
            .top_k(4)
            .exclude(AttrTuple::Two(2, 3));
        let plain = Executor::exact(&t, &r).execute(&q).unwrap();
        let cold = Executor::exact(&t, &r)
            .with_cache(&cache)
            .with_orders(&orders)
            .execute(&q)
            .unwrap();
        assert_eq!(plain, cold);
        assert_eq!(orders.entries(), 5);
        let warm = Executor::exact(&t, &r)
            .with_cache(&cache)
            .with_orders(&orders)
            .execute(&q)
            .unwrap();
        assert_eq!(plain, warm);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (5, 5), "expected warm hits");
    }

    #[test]
    fn cache_serves_narrower_followup_queries() {
        let t = table();
        let r = registry();
        let (cache, orders) = (ScoreCache::new(), RankOrders::new());
        let ex = Executor::exact(&t, &r)
            .with_cache(&cache)
            .with_orders(&orders);
        ex.execute(&InsightQuery::class("linear-relationship").top_k(10))
            .unwrap();
        let misses_after_broad = cache.stats().misses;
        // drill-down with filters re-uses every score
        ex.execute(
            &InsightQuery::class("linear-relationship")
                .top_k(3)
                .fix_attr(0)
                .score_range(0.0, 0.9),
        )
        .unwrap();
        assert_eq!(cache.stats().misses, misses_after_broad);
    }

    #[test]
    fn parallel_batch_path_matches_serial_with_cache() {
        let t = table();
        let r = registry();
        let (cache, orders) = (ScoreCache::new(), RankOrders::new());
        let q = InsightQuery::class("monotonic-relationship").top_k(6);
        let serial = Executor::exact(&t, &r).execute(&q).unwrap();
        let batch = Executor::exact(&t, &r)
            .parallel(true)
            .with_cache(&cache)
            .with_orders(&orders)
            .execute(&q)
            .unwrap();
        assert_eq!(serial, batch);
        // second run walks the order the first filled, still identical
        let warm = Executor::exact(&t, &r)
            .parallel(true)
            .with_cache(&cache)
            .with_orders(&orders)
            .execute(&q)
            .unwrap();
        assert_eq!(serial, warm);
    }

    #[test]
    fn rank_top_k_matches_sort_truncate() {
        let scored: Vec<(AttrTuple, f64)> = (0..40)
            .map(|i| (AttrTuple::Two(i, i + 1), ((i * 7) % 5) as f64))
            .collect();
        for k in [0, 1, 3, 39, 40, 100] {
            let mut reference = scored.clone();
            reference.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then_with(|| a.0.cmp(&b.0)));
            reference.truncate(k);
            assert_eq!(rank_top_k(scored.clone(), k), reference, "k = {k}");
        }
    }

    #[test]
    fn diversification_spreads_attributes() {
        // hub column 0 correlates perfectly with 1, 2, 3; 4~5 is an
        // independent strong pair that plain top-3 would miss
        let base: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let indep: Vec<f64> = (0..100).map(|i| ((i * 37) % 100) as f64).collect();
        let t = TableBuilder::new("t")
            .numeric("hub", base.clone())
            .numeric("a", base.iter().map(|v| 2.0 * v).collect())
            .numeric("b", base.iter().map(|v| 3.0 * v + 1.0).collect())
            .numeric("c", base.iter().map(|v| 0.5 * v - 9.0).collect())
            .numeric("x", indep.clone())
            .numeric("y", indep.iter().map(|v| v + 0.5).collect())
            .build()
            .unwrap();
        let r = registry();
        let ex = Executor::exact(&t, &r);
        let plain = ex
            .execute(&InsightQuery::class("linear-relationship").top_k(3))
            .unwrap();
        // plain top-3 is all perfect pairs among {hub,a,b,c}
        assert!(plain.iter().all(|i| !i.attrs.contains(4)));
        let diverse = ex
            .execute(
                &InsightQuery::class("linear-relationship")
                    .top_k(3)
                    .diversify(0.6),
            )
            .unwrap();
        assert!(
            diverse.iter().any(|i| i.attrs == AttrTuple::Two(4, 5)),
            "diversified top-3 still misses the independent pair: {:?}",
            diverse.iter().map(|i| i.attrs).collect::<Vec<_>>()
        );
        // the overall strongest insight is always kept
        assert_eq!(diverse[0].attrs, plain[0].attrs);
    }

    #[test]
    fn deterministic_tie_break() {
        // two pairs with identical scores must order deterministically
        let t = TableBuilder::new("t")
            .numeric("a", (0..50).map(|i| i as f64).collect())
            .numeric("b", (0..50).map(|i| i as f64 * 2.0).collect())
            .numeric("c", (0..50).map(|i| i as f64 * 3.0).collect())
            .build()
            .unwrap();
        let r = registry();
        let out = Executor::exact(&t, &r)
            .execute(&InsightQuery::class("linear-relationship").top_k(3))
            .unwrap();
        assert_eq!(out[0].attrs, AttrTuple::Two(0, 1));
        assert_eq!(out[1].attrs, AttrTuple::Two(0, 2));
        assert_eq!(out[2].attrs, AttrTuple::Two(1, 2));
    }

    /// `diversify_scored`'s maximal-marginal-relevance loop as it stands,
    /// copied verbatim: the oracle any rewrite of it must match bit for bit.
    fn reference_mmr(
        scored: Vec<(AttrTuple, f64)>,
        top_k: usize,
        lambda: f64,
    ) -> Vec<(AttrTuple, f64)> {
        if scored.len() <= 1 {
            return scored;
        }
        let max_score = scored
            .iter()
            .map(|(_, s)| s.abs())
            .fold(f64::MIN_POSITIVE, f64::max);
        let overlap = |a: &AttrTuple, b: &AttrTuple| -> f64 {
            let shared = a.overlap(b) as f64;
            let union = (a.arity() + b.arity()) as f64 - shared;
            shared / union.max(1.0)
        };
        let n = scored.len();
        let mut alive = vec![true; n];
        let mut selected: Vec<(AttrTuple, f64)> = Vec::with_capacity(top_k.min(n));
        alive[0] = false;
        selected.push(scored[0]);
        let mut best_sim: Vec<f64> = scored
            .iter()
            .map(|(attrs, _)| overlap(attrs, &scored[0].0))
            .collect();
        while selected.len() < top_k && selected.len() < n {
            let mut best: Option<(usize, f64)> = None;
            for (i, (_, score)) in scored.iter().enumerate() {
                if !alive[i] {
                    continue;
                }
                let mmr = (1.0 - lambda) * (score.abs() / max_score) - lambda * best_sim[i];
                if best.is_none() || mmr >= best.expect("just checked").1 {
                    best = Some((i, mmr));
                }
            }
            let (chosen, _) = best.expect("alive candidates remain");
            alive[chosen] = false;
            selected.push(scored[chosen]);
            for (i, (attrs, _)) in scored.iter().enumerate() {
                if alive[i] {
                    best_sim[i] = best_sim[i].max(overlap(attrs, &scored[chosen].0));
                }
            }
        }
        selected
    }

    /// `n` distinct tuples of arity 1, 2 and 3 over 40 columns, scored in
    /// [-1, 1] — continuously, or on `levels` steps so that ties occur —
    /// in the ranking order, as the executor hands them to MMR.
    fn mmr_pool(seed: u64, n: usize, levels: u64) -> Vec<(AttrTuple, f64)> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut seen = std::collections::HashSet::new();
        let mut pool = Vec::with_capacity(n);
        while pool.len() < n {
            let mut cols = [next() % 40, next() % 40, next() % 40].map(|c| c as usize);
            cols.sort_unstable();
            let attrs = match next() % 3 {
                0 => AttrTuple::One(cols[0]),
                1 if cols[0] != cols[1] => AttrTuple::Two(cols[0], cols[1]),
                2 if cols[0] != cols[1] && cols[1] != cols[2] => {
                    AttrTuple::Three(cols[0], cols[1], cols[2])
                }
                _ => continue,
            };
            if !seen.insert(attrs) {
                continue;
            }
            let unit = (next() >> 11) as f64 / (1u64 << 53) as f64;
            let score = match levels {
                0 => 2.0 * unit - 1.0,
                steps => (unit * steps as f64).floor() / steps as f64 * 2.0 - 1.0,
            };
            pool.push((attrs, score));
        }
        pool.sort_by(rank_order);
        pool
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn diversify_matches_the_reference_loop(
            seed in 0u64..1_000_000,
            n in 0usize..2_001,
            k in 0usize..2_003,
            lambda in 0usize..5,
            levels in 0u64..4,
        ) {
            let lambda = [0.0, 0.1, 0.5, 0.9, 1.0][lambda];
            let k = k % (n + 3);
            let pool = mmr_pool(seed, n, [0, 1, 3, 17][levels as usize]);
            let bits = |picked: Vec<(AttrTuple, f64)>| -> Vec<(AttrTuple, u64)> {
                picked.into_iter().map(|(attrs, score)| (attrs, score.to_bits())).collect()
            };
            prop_assert_eq!(
                bits(diversify_scored(pool.clone(), k, lambda)),
                bits(reference_mmr(pool, k, lambda))
            );
        }
    }
}
