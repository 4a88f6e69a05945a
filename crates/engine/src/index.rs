//! Insight indexes — the third leg of the paper's preprocessing triad
//! ("sketches, samples, and **indexes** that will support fast approximate
//! insight querying", §1/§3).
//!
//! An [`InsightIndex`] materializes every class's scored candidate list
//! once (using sketch scores when a catalog is available), sorted by
//! descending score. Basic insight queries then reduce to a filtered scan
//! of a precomputed list — no metric evaluation at query time at all.

use crate::cache::ScoreCache;
use crate::executor::Executor;
use crate::query::InsightQuery;
use crate::trace::TraceBuilder;
use foresight_data::Table;
use foresight_insight::{AttrTuple, InsightInstance, InsightRegistry};
use std::collections::HashMap;

/// One class's freshly computed scores, `None`s included — the form
/// [`ScoreCache::store_batch`] takes.
pub(crate) type FreshScores = Vec<(&'static str, Vec<(AttrTuple, Option<f64>)>)>;

/// Precomputed, descending-sorted candidate scores for every class.
#[derive(Debug, Clone, Default)]
pub struct InsightIndex {
    entries: HashMap<String, Vec<(AttrTuple, f64)>>,
    /// Every score computed by [`build`](Self::build) /
    /// [`refresh`](Self::refresh) since the last
    /// [`take_fresh`](Self::take_fresh), including the degenerate and
    /// non-finite ones `entries` drops: the writer path hands them to the
    /// score cache under the epoch it publishes, so the snapshot's
    /// executor never recomputes what its index build already scored.
    fresh: FreshScores,
    /// Built against a schema-only table: no exact fallback was available
    /// at build time and `describe` cannot run at query time.
    sketch_only: bool,
}

/// What an [`InsightIndex::refresh`] did: how much of the index survived
/// untouched versus had to be rescored.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RefreshStats {
    /// Classes with at least one rescored tuple.
    pub classes_rescored: usize,
    /// Tuples rescored because they touch a dirty column.
    pub tuples_rescored: usize,
    /// Tuples whose previous score was carried over unchanged.
    pub tuples_reused: usize,
}

impl InsightIndex {
    /// Scores every candidate of every registered class through
    /// `executor` — its mode, catalog and telemetry, exactly as a query
    /// would — and sorts each list. A `sketch_only` executor
    /// (sharded source: the table carries only the schema) indexes no
    /// candidates for classes without a sketch path.
    pub fn build(executor: &Executor<'_>) -> Self {
        let mut index = Self {
            sketch_only: executor.sketch_only,
            ..Self::default()
        };
        index.rescore(executor, |_| true);
        index
    }

    /// Incrementally maintains the index after an append that only touched
    /// `dirty_columns`: tuples whose attributes avoid every dirty column keep
    /// their previous score (appending rows with no present value in a column
    /// leaves that column's sketches and exact statistics bit-identical),
    /// while tuples touching a dirty column are rescored from scratch.
    ///
    /// Candidate enumeration is schema-pure, so the candidate set itself
    /// cannot change on append; a tuple absent from the previous list (its
    /// score was non-finite or had no sketch path) stays absent unless it
    /// touches a dirty column and now scores finitely.
    pub fn refresh(&mut self, executor: &Executor<'_>, dirty_columns: &[usize]) -> RefreshStats {
        self.rescore(executor, |attrs| {
            attrs.indices().iter().any(|i| dirty_columns.contains(i))
        })
    }

    /// Rebuilds every class's list: `dirty` tuples are scored by the
    /// executor's one scoring routine, the rest keep their previous entry.
    fn rescore(
        &mut self,
        executor: &Executor<'_>,
        dirty: impl Fn(&AttrTuple) -> bool,
    ) -> RefreshStats {
        let mut stats = RefreshStats::default();
        for class in executor.registry.classes() {
            let (rescored, clean): (Vec<AttrTuple>, Vec<AttrTuple>) = class
                .candidates(executor.table)
                .into_iter()
                .partition(&dirty);
            let previous: HashMap<AttrTuple, f64> = match self.entries.remove(class.id()) {
                Some(list) if !clean.is_empty() => list.into_iter().collect(),
                _ => HashMap::new(),
            };
            let mut scored: Vec<(AttrTuple, f64)> = clean
                .into_iter()
                .filter_map(|attrs| Some((attrs, *previous.get(&attrs)?)))
                .collect();
            stats.tuples_reused += scored.len();
            if !rescored.is_empty() {
                stats.classes_rescored += 1;
                stats.tuples_rescored += rescored.len();
                let (scores, _) = executor.score_candidates(
                    class.as_ref(),
                    None,
                    &rescored,
                    &mut TraceBuilder::disabled(),
                );
                let fresh: Vec<(AttrTuple, Option<f64>)> =
                    rescored.into_iter().zip(scores).collect();
                scored.extend(
                    fresh.iter().filter_map(|&(attrs, score)| {
                        Some((attrs, score.filter(|s| s.is_finite())?))
                    }),
                );
                self.fresh.push((class.id(), fresh));
            }
            scored.sort_by(crate::executor::rank_order);
            self.entries.insert(class.id().to_owned(), scored);
        }
        stats
    }

    /// Drains the scores computed since the last call (see the `fresh`
    /// field).
    pub(crate) fn take_fresh(&mut self) -> FreshScores {
        std::mem::take(&mut self.fresh)
    }

    /// Number of indexed classes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total indexed `(class, tuple)` entries.
    pub fn total_entries(&self) -> usize {
        self.entries.values().map(Vec::len).sum()
    }

    /// Answers a query from the index alone.
    ///
    /// Returns `None` when the query cannot be served from the index: the
    /// class is not indexed, or the query overrides the ranking metric
    /// (alternative metrics are not precomputed).
    ///
    /// Scores come from the index; each result's `detail` goes through
    /// `cache`'s description memo, exactly as executor results do, so a
    /// warm query never refits a class's model to describe a result it
    /// has described before (and a republish retires stale descriptions
    /// on this path by the same rule).
    pub fn query(
        &self,
        table: &Table,
        registry: &InsightRegistry,
        query: &InsightQuery,
        cache: &ScoreCache,
    ) -> Option<Vec<InsightInstance>> {
        if query.metric.is_some() {
            return None;
        }
        let list = self.entries.get(&query.class_id)?;
        let class = registry.get(&query.class_id)?;
        let mut filtered: Vec<(AttrTuple, f64)> = Vec::with_capacity(query.top_k);
        for &(attrs, score) in list {
            if !query.matches_fixed(&attrs)
                || !query.matches_semantic(table, &attrs)
                || query.exclude.contains(&attrs)
                || !query.matches_range(score)
            {
                continue;
            }
            filtered.push((attrs, score));
            // without diversification the list is already rank-ordered, so
            // the scan can stop as soon as top-k entries are collected
            if query.diversify.unwrap_or(0.0) == 0.0 && filtered.len() == query.top_k {
                break;
            }
        }
        let selected = match query.diversify {
            Some(lambda) if lambda > 0.0 => {
                crate::executor::diversify_scored(filtered, query.top_k, lambda)
            }
            _ => filtered,
        };
        Some(
            selected
                .into_iter()
                .map(|(attrs, score)| InsightInstance {
                    class_id: query.class_id.clone(),
                    attrs,
                    score,
                    metric: class.metric().to_owned(),
                    detail: if self.sketch_only {
                        format!(
                            "{} ≈ {score:.3} (estimated from merged shard sketches)",
                            class.metric()
                        )
                    } else {
                        cache.detail(class.id(), &attrs, score, || {
                            class.describe(table, &attrs, score)
                        })
                    },
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foresight_data::TableBuilder;
    use foresight_sketch::{CatalogConfig, SketchCatalog};

    fn table() -> Table {
        let x: Vec<f64> = (0..200).map(|i| i as f64).collect();
        TableBuilder::new("t")
            .numeric("x", x.clone())
            .numeric("y", x.iter().map(|v| 2.0 * v).collect())
            .numeric("z", (0..200).map(|i| ((i * 37) % 200) as f64).collect())
            .categorical("c", (0..200).map(|i| if i % 2 == 0 { "a" } else { "b" }))
            .build()
            .unwrap()
    }

    #[test]
    fn index_agrees_with_executor() {
        let t = table();
        let r = InsightRegistry::default();
        let ex = Executor::exact(&t, &r);
        let index = InsightIndex::build(&ex);
        let cache = ScoreCache::new();
        for q in [
            InsightQuery::class("linear-relationship").top_k(3),
            InsightQuery::class("skew").top_k(2),
            InsightQuery::class("linear-relationship")
                .top_k(5)
                .fix_attr(2)
                .score_range(0.0, 0.5),
            InsightQuery::class("linear-relationship")
                .top_k(2)
                .exclude(foresight_insight::AttrTuple::Two(0, 1)),
        ] {
            let from_index = index.query(&t, &r, &q, &cache).expect("indexed");
            let from_executor = ex.execute(&q).expect("valid");
            assert_eq!(from_index, from_executor, "query {q:?} disagrees");
        }
    }

    #[test]
    fn metric_override_falls_through() {
        let t = table();
        let r = InsightRegistry::default();
        let index = InsightIndex::build(&Executor::exact(&t, &r));
        let cache = ScoreCache::new();
        let q = InsightQuery::class("linear-relationship").metric("|spearman|");
        assert!(index.query(&t, &r, &q, &cache).is_none());
        assert!(index
            .query(&t, &r, &InsightQuery::class("not-a-class"), &cache)
            .is_none());
    }

    #[test]
    fn refresh_of_dirty_columns_matches_full_rebuild() {
        let t1 = table();
        // the appended 50 rows carry present values in x, y, and c only;
        // z gains nothing but NaN padding, so it is clean
        let x: Vec<f64> = (0..250).map(|i| i as f64).collect();
        let mut z: Vec<f64> = (0..200).map(|i| ((i * 37) % 200) as f64).collect();
        z.extend(std::iter::repeat(f64::NAN).take(50));
        let t2 = TableBuilder::new("t")
            .numeric("x", x.clone())
            .numeric("y", x.iter().map(|v| 2.0 * v).collect())
            .numeric("z", z)
            .categorical("c", (0..250).map(|i| if i % 2 == 0 { "a" } else { "b" }))
            .build()
            .unwrap();
        let r = InsightRegistry::default();
        let mut index = InsightIndex::build(&Executor::exact(&t1, &r));
        let stats = index.refresh(&Executor::exact(&t2, &r), &[0, 1, 3]);
        assert!(stats.classes_rescored > 0);
        assert!(stats.tuples_rescored > 0);
        assert!(stats.tuples_reused > 0, "pure-z tuples should carry over");
        let rebuilt = InsightIndex::build(&Executor::exact(&t2, &r));
        for class in r.classes() {
            assert_eq!(
                index.entries[class.id()],
                rebuilt.entries[class.id()],
                "class {} diverged after refresh",
                class.id()
            );
        }
    }

    #[test]
    fn sketch_built_index_uses_sketch_scores() {
        let t = table();
        let r = InsightRegistry::default();
        let catalog = SketchCatalog::build(&t, &CatalogConfig::default());
        let approx = Executor::approximate(&t, &r, &catalog);
        let index = InsightIndex::build(&approx);
        let q = InsightQuery::class("linear-relationship").top_k(3);
        assert_eq!(
            index.query(&t, &r, &q, &ScoreCache::new()).unwrap(),
            approx.execute(&q).unwrap()
        );
        assert_eq!(index.len(), 12);
        assert!(index.total_entries() > 12);
    }
}
