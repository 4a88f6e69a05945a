//! Rank orders — the paper's "indexes that will support fast approximate
//! insight querying" (§3), kept as one ranked table per scored class.
//!
//! A [`RankOrders`] store holds, per (class, [`Mode`]), the class scan's
//! finite primary-metric scores in the engine's ranking order (descending
//! score, ascending tuple), each tuple packed into one word as in the
//! score cache. A slot is filled once: by an executor pass that scored the
//! class's whole scan with no fixed, semantic or exclusion filter, or at
//! freeze for every class once
//! [`CoreBuilder::build_index`](crate::CoreBuilder::build_index) asked for
//! it. An unfixed, undiversified primary-metric query on the class scan
//! then walks the order and stops at `k`, instead of looking every
//! candidate up and ranking them again. Like
//! [`PreparedColumns`](foresight_stats::prepared::PreparedColumns), the
//! store is lent to the executor by the snapshot that owns it, read without
//! a lock, and never invalidated: a freeze that mints a new score-cache
//! epoch starts an empty one.

use crate::cache::Packed;
use crate::executor::Mode;
use foresight_insight::{AttrTuple, InsightRegistry};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// One class's scan in the ranking order.
pub(crate) type Ranked = Arc<[(Packed, f64)]>;

/// A lazily filled store of rank orders over one registry's classes. See
/// the [module docs](self).
#[derive(Debug, Default)]
pub struct RankOrders {
    /// `[class position in the registry][mode]`, allocated on first use.
    slots: OnceLock<Box<[[OnceLock<Ranked>; 2]]>>,
    /// Heap bytes of the filled orders.
    bytes: AtomicUsize,
}

impl RankOrders {
    /// An empty store. Every call on it must pass the same registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn slot(
        &self,
        registry: &InsightRegistry,
        class_id: &str,
        mode: Mode,
    ) -> Option<&OnceLock<Ranked>> {
        let slots = self
            .slots
            .get_or_init(|| (0..registry.len()).map(|_| Default::default()).collect());
        let position = registry.classes().iter().position(|c| c.id() == class_id)?;
        Some(&slots.get(position)?[mode as usize])
    }

    /// The order of `class_id` under `mode`, if filled.
    pub(crate) fn get(
        &self,
        registry: &InsightRegistry,
        class_id: &str,
        mode: Mode,
    ) -> Option<&Ranked> {
        self.slot(registry, class_id, mode)?.get()
    }

    /// Fills the slot of `class_id` under `mode` with `ranked`, which must
    /// already be in the ranking order, unless another pass filled it
    /// first (both computed the same scores) or a tuple does not pack.
    pub(crate) fn fill(
        &self,
        registry: &InsightRegistry,
        class_id: &str,
        mode: Mode,
        ranked: &[(AttrTuple, f64)],
    ) {
        let Some(slot) = self.slot(registry, class_id, mode) else {
            return;
        };
        let Some(packed) = ranked
            .iter()
            .map(|(attrs, score)| Some((Packed::new(attrs)?, *score)))
            .collect::<Option<Ranked>>()
        else {
            return;
        };
        slot.get_or_init(|| {
            self.bytes
                .fetch_add(std::mem::size_of_val(&*packed), Ordering::Relaxed);
            packed
        });
    }

    /// Number of filled (class, mode) slots.
    pub fn filled(&self) -> usize {
        self.slots.get().map_or(0, |slots| {
            slots
                .iter()
                .flatten()
                .filter(|slot| slot.get().is_some())
                .count()
        })
    }

    /// Approximate resident bytes: the orders plus the slot table.
    pub fn approx_bytes(&self) -> usize {
        let table = self
            .slots
            .get()
            .map_or(0, |slots| std::mem::size_of_val(&**slots));
        table + self.bytes.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::ScoreCache;
    use crate::executor::Executor;
    use crate::query::InsightQuery;
    use crate::trace::TraceBuilder;
    use foresight_data::{Table, TableBuilder};
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

    /// Completes every class's order: `(reused, rescored)` per class.
    fn complete_all(ex: &Executor<'_>) -> Vec<(usize, usize)> {
        let classes = ex.registry.classes();
        classes.iter().map(|c| ex.complete(c.as_ref())).collect()
    }

    #[test]
    fn order_served_agrees_with_executor() {
        let t = table();
        let r = InsightRegistry::default();
        let store = RankOrders::new();
        let ex = Executor::exact(&t, &r).with_orders(&store);
        complete_all(&ex);
        assert_eq!(store.filled(), r.len());
        let linear = || InsightQuery::class("linear-relationship");
        for (q, walks) in [
            (linear().top_k(3), true),
            (InsightQuery::class("skew").top_k(2), true),
            (linear().top_k(5).fix_attr(2).score_range(0.0, 0.5), false),
            (linear().top_k(2).exclude(AttrTuple::Two(0, 1)), true),
            (
                linear().top_k(2).score_range(0.0, 0.5).diversify(0.5),
                false,
            ),
        ] {
            let (from_order, walked) = ex
                .execute_traced(&q, &mut TraceBuilder::disabled())
                .unwrap();
            let from_executor = Executor::exact(&t, &r).execute(&q).unwrap();
            assert_eq!(from_order, from_executor, "query {q:?} disagrees");
            assert_eq!(walked, walks, "query {q:?}");
        }
    }

    #[test]
    fn metric_override_falls_through() {
        let t = table();
        let r = InsightRegistry::default();
        let store = RankOrders::new();
        let ex = Executor::exact(&t, &r).with_orders(&store);
        complete_all(&ex);
        let q = InsightQuery::class("linear-relationship").metric("|spearman|");
        let (out, walked) = ex
            .execute_traced(&q, &mut TraceBuilder::disabled())
            .unwrap();
        assert!(!walked);
        assert_eq!(out, Executor::exact(&t, &r).execute(&q).unwrap());
        assert!(ex.execute(&InsightQuery::class("not-a-class")).is_err());
    }

    #[test]
    fn refresh_of_dirty_columns_matches_full_rebuild() {
        let t1 = table();
        // the appended 50 rows carry present values in x, y, and c only;
        // z gains nothing but NaN padding, so it is clean
        let x: Vec<f64> = (0..250).map(|i| i as f64).collect();
        let mut z: Vec<f64> = (0..200).map(|i| ((i * 37) % 200) as f64).collect();
        z.extend(std::iter::repeat_n(f64::NAN, 50));
        let t2 = TableBuilder::new("t")
            .numeric("x", x.clone())
            .numeric("y", x.iter().map(|v| 2.0 * v).collect())
            .numeric("z", z)
            .categorical("c", (0..250).map(|i| if i % 2 == 0 { "a" } else { "b" }))
            .build()
            .unwrap();
        let r = InsightRegistry::default();
        let cache = ScoreCache::new();
        complete_all(
            &Executor::exact(&t1, &r)
                .with_cache(&cache)
                .with_orders(&RankOrders::new()),
        );
        // the writer path's republish: clean tuples migrate into the new
        // epoch, whose empty store is completed through the cache
        let dirty = [0, 1, 3];
        let (epoch, _) = cache
            .bump_epoch_retaining(|_, attrs| attrs.indices().iter().all(|i| !dirty.contains(i)));
        let refreshed = RankOrders::new();
        let ex = Executor::exact(&t2, &r).with_cache_at(&cache, epoch);
        let per_class = complete_all(&ex.with_orders(&refreshed));
        assert!(per_class.iter().any(|&(_, rescored)| rescored > 0));
        assert!(
            per_class
                .iter()
                .map(|&(_, rescored)| rescored)
                .sum::<usize>()
                > 0
        );
        let reused: usize = per_class.iter().map(|&(reused, _)| reused).sum();
        assert!(reused > 0, "pure-z tuples should carry over");
        let rebuilt = RankOrders::new();
        complete_all(&Executor::exact(&t2, &r).with_orders(&rebuilt));
        for class in r.classes() {
            assert_eq!(
                refreshed.get(&r, class.id(), Mode::Exact),
                rebuilt.get(&r, class.id(), Mode::Exact),
                "class {} diverged after refresh",
                class.id()
            );
        }
    }

    #[test]
    fn sketch_built_order_uses_sketch_scores() {
        let t = table();
        let r = InsightRegistry::default();
        let catalog = SketchCatalog::build(&t, &CatalogConfig::default());
        let store = RankOrders::new();
        let approx = Executor::approximate(&t, &r, &catalog).with_orders(&store);
        complete_all(&approx);
        let q = InsightQuery::class("linear-relationship").top_k(3);
        let (out, walked) = approx
            .execute_traced(&q, &mut TraceBuilder::disabled())
            .unwrap();
        assert!(walked);
        assert_eq!(
            out,
            Executor::approximate(&t, &r, &catalog).execute(&q).unwrap()
        );
        assert_eq!(store.filled(), 12);
        assert!(store.get(&r, "linear-relationship", Mode::Exact).is_none());
        let entries: usize = r
            .classes()
            .iter()
            .filter_map(|c| store.get(&r, c.id(), Mode::Approximate))
            .map(|order| order.len())
            .sum();
        assert!(entries > 12, "more than one entry a class");
    }
}
