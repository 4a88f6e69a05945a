//! Insight indexes — the third leg of the paper's preprocessing triad
//! ("sketches, samples, and **indexes** that will support fast approximate
//! insight querying", §1/§3).
//!
//! An [`InsightIndex`] materializes every class's scored candidate list
//! once (using sketch scores when a catalog is available), sorted by
//! descending score. Basic insight queries then reduce to a filtered scan
//! of a precomputed list — no metric evaluation at query time at all.

use crate::cache::ScoreCache;
use crate::query::InsightQuery;
use foresight_data::Table;
use foresight_insight::{AttrTuple, InsightInstance, InsightRegistry};
use foresight_sketch::SketchCatalog;
use std::collections::HashMap;

/// Precomputed, descending-sorted candidate scores for every class.
#[derive(Debug, Clone, Default)]
pub struct InsightIndex {
    entries: HashMap<String, Vec<(AttrTuple, f64)>>,
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
    /// Scores every candidate of every registered class (sketch-backed
    /// when `catalog` is given, exact otherwise) and sorts each list.
    pub fn build(
        table: &Table,
        registry: &InsightRegistry,
        catalog: Option<&SketchCatalog>,
    ) -> Self {
        Self::build_inner(table, registry, catalog, false)
    }

    /// Builds the index for a sharded/sketch-only source: `table` carries
    /// only the schema, every score comes from the merged `catalog`, and
    /// classes without a sketch path index no candidates.
    pub fn build_sketch_only(
        table: &Table,
        registry: &InsightRegistry,
        catalog: &SketchCatalog,
    ) -> Self {
        Self::build_inner(table, registry, Some(catalog), true)
    }

    fn build_inner(
        table: &Table,
        registry: &InsightRegistry,
        catalog: Option<&SketchCatalog>,
        sketch_only: bool,
    ) -> Self {
        let mut entries = HashMap::with_capacity(registry.len());
        for class in registry.classes() {
            let mut scored: Vec<(AttrTuple, f64)> = class
                .candidates(table)
                .into_iter()
                .filter_map(|attrs| {
                    let sketched = catalog.and_then(|c| class.score_sketch(c, table, &attrs));
                    let score = if sketch_only {
                        sketched?
                    } else {
                        sketched.or_else(|| class.score(table, &attrs))?
                    };
                    score.is_finite().then_some((attrs, score))
                })
                .collect();
            scored.sort_by(|a, b| {
                b.1.partial_cmp(&a.1)
                    .expect("non-finite filtered")
                    .then_with(|| a.0.cmp(&b.0))
            });
            entries.insert(class.id().to_owned(), scored);
        }
        Self {
            entries,
            sketch_only,
        }
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
    pub fn refresh(
        &mut self,
        table: &Table,
        registry: &InsightRegistry,
        catalog: Option<&SketchCatalog>,
        dirty_columns: &[usize],
    ) -> RefreshStats {
        let mut stats = RefreshStats::default();
        for class in registry.classes() {
            let previous: HashMap<AttrTuple, f64> = self
                .entries
                .get(class.id())
                .map(|list| list.iter().copied().collect())
                .unwrap_or_default();
            let mut class_rescored = 0usize;
            let mut scored: Vec<(AttrTuple, f64)> = class
                .candidates(table)
                .into_iter()
                .filter_map(|attrs| {
                    let is_dirty = attrs.indices().iter().any(|i| dirty_columns.contains(i));
                    if !is_dirty {
                        return previous.get(&attrs).map(|&score| {
                            stats.tuples_reused += 1;
                            (attrs, score)
                        });
                    }
                    class_rescored += 1;
                    let sketched = catalog.and_then(|c| class.score_sketch(c, table, &attrs));
                    let score = if self.sketch_only {
                        sketched?
                    } else {
                        sketched.or_else(|| class.score(table, &attrs))?
                    };
                    score.is_finite().then_some((attrs, score))
                })
                .collect();
            scored.sort_by(|a, b| {
                b.1.partial_cmp(&a.1)
                    .expect("non-finite filtered")
                    .then_with(|| a.0.cmp(&b.0))
            });
            if class_rescored > 0 {
                stats.classes_rescored += 1;
                stats.tuples_rescored += class_rescored;
            }
            self.entries.insert(class.id().to_owned(), scored);
        }
        stats
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
    use crate::executor::Executor;
    use foresight_data::TableBuilder;
    use foresight_sketch::CatalogConfig;

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
        let index = InsightIndex::build(&t, &r, None);
        let ex = Executor::exact(&t, &r);
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
        let index = InsightIndex::build(&t, &r, None);
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
        let mut index = InsightIndex::build(&t1, &r, None);
        let stats = index.refresh(&t2, &r, None, &[0, 1, 3]);
        assert!(stats.classes_rescored > 0);
        assert!(stats.tuples_rescored > 0);
        assert!(stats.tuples_reused > 0, "pure-z tuples should carry over");
        let rebuilt = InsightIndex::build(&t2, &r, None);
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
        let index = InsightIndex::build(&t, &r, Some(&catalog));
        let approx = Executor::approximate(&t, &r, &catalog);
        let q = InsightQuery::class("linear-relationship").top_k(3);
        assert_eq!(
            index.query(&t, &r, &q, &ScoreCache::new()).unwrap(),
            approx.execute(&q).unwrap()
        );
        assert_eq!(index.len(), 12);
        assert!(index.total_entries() > 12);
    }
}
