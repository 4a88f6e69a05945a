//! Rank orders — the paper's "indexes that will support fast approximate
//! insight querying" (§3), kept as one ranked table per complete keyspace.
//!
//! A [`RankOrders`] slot holds, per (class, [`Mode`], metric), the class
//! scan's scores as a plane by scan position, and the positions of the
//! finite ones in the ranking order (descending score, ascending tuple). A
//! position needs no hash: a declared pair shape's pair is a triangular
//! index, and an undeclared class is only ever scored from its own scan.
//! A slot fills once its keyspace is complete — a pass scored the whole
//! scan, stored a declared shape's last missing pair, or a freeze after
//! [`CoreBuilder::build_index`](crate::CoreBuilder::build_index) — and the
//! score cache drops the keyspace: lookups in it read the plane, and
//! unfixed, undiversified queries walk the order. Like
//! [`PreparedColumns`](foresight_stats::prepared::PreparedColumns), the
//! store is lent to the executor by the snapshot that owns it and read
//! without a lock; a freeze that mints an epoch starts a new one, into
//! which a column-granular republish carries each plane with the positions
//! touching a dirty column rescored.

use crate::cache::{Packed, Plane};
use crate::executor::Mode;
use foresight_data::Table;
use foresight_insight::{AttrTuple, CandidatePruning, InsightClass, InsightRegistry};
use std::sync::OnceLock;

/// How a filled slot's scan positions map to tuples.
#[derive(Debug)]
pub(crate) enum Layout {
    /// The lexicographic pairs `(u[i], u[j])`, `i < j`, of these ascending
    /// columns, each at the triangular index of `(i, j)`.
    Pairs(Box<[u32]>),
    /// An undeclared class's scan, each tuple packed.
    Scan(Box<[Packed]>),
}

/// Position of the first pair of row `i` in the triangle over `n` columns.
fn row_start(n: usize, i: usize) -> usize {
    i * (2 * n - i - 1) / 2
}

impl Layout {
    /// The declared pair shape, when the scan is that shape, else the
    /// packed scan — `None` when a tuple does not pack.
    fn new(class: &dyn InsightClass, table: &Table, scan: &[AttrTuple]) -> Option<Self> {
        let universe = match class.pruning() {
            CandidatePruning::NumericPairs => table.numeric_indices(),
            CandidatePruning::AllPairs => (0..table.n_cols()).collect(),
            CandidatePruning::None => Vec::new(),
        };
        let n = universe.len();
        if n > 1 && scan.len() == n * (n - 1) / 2 && u32::try_from(table.n_cols()).is_ok() {
            return Some(Self::Pairs(
                universe.into_iter().map(|c| c as u32).collect(),
            ));
        }
        scan.iter()
            .map(Packed::new)
            .collect::<Option<_>>()
            .map(Self::Scan)
    }

    /// The scan position of a pair of the declared shape.
    pub(crate) fn position(&self, attrs: &AttrTuple) -> Option<usize> {
        let (Self::Pairs(u), AttrTuple::Two(a, b)) = (self, *attrs) else {
            return None;
        };
        let rank = |c: usize| u.binary_search(&u32::try_from(c).ok()?).ok();
        let (i, j) = (rank(a)?, rank(b)?);
        (i < j).then(|| row_start(u.len(), i) + j - i - 1)
    }

    /// The tuple at scan position `p`.
    pub(crate) fn tuple(&self, p: usize) -> AttrTuple {
        match self {
            Self::Scan(scan) => scan[p].tuple(),
            Self::Pairs(u) => {
                // the float root lands on the row holding `p` or next to it
                let (n, b) = (u.len(), (2 * u.len() - 1) as f64);
                let root = (b * b - 8.0 * p as f64).max(0.0).sqrt();
                let mut i = (((b - root) / 2.0) as usize).min(n - 2);
                while row_start(n, i) > p {
                    i -= 1;
                }
                while i + 2 < n && row_start(n, i + 1) <= p {
                    i += 1;
                }
                AttrTuple::Two(u[i] as usize, u[p - row_start(n, i) + i + 1] as usize)
            }
        }
    }

    fn bytes(&self) -> usize {
        match self {
            Self::Pairs(u) => std::mem::size_of_val(&**u),
            Self::Scan(scan) => std::mem::size_of_val(&**scan),
        }
    }
}

/// One complete keyspace: its scores by scan position and its rank order.
#[derive(Debug)]
pub(crate) struct Filled {
    pub(crate) plane: Plane,
    /// Positions of the finite scores, in the ranking order.
    pub(crate) order: Box<[u32]>,
    pub(crate) layout: Layout,
}

impl Filled {
    pub(crate) fn new(
        class: &dyn InsightClass,
        table: &Table,
        scan: &[AttrTuple],
        scores: &[Option<f64>],
        order: Vec<u32>,
    ) -> Option<Self> {
        Some(Self {
            plane: Plane::new(scores),
            order: order.into_boxed_slice(),
            layout: Layout::new(class, table, scan)?,
        })
    }
}

/// The metrics a class can be ranked by, as the query names them: its own
/// (explicitly named, which scores it exactly in either mode), then its
/// alternatives.
fn metrics(class: &dyn InsightClass) -> impl Iterator<Item = &'static str> {
    std::iter::once(class.metric()).chain(class.alternative_metrics())
}

/// A slot carried into the next generation: the class's registry position,
/// mode, metric, and scores — `None` where they must be rescored.
pub(crate) type Carried = (usize, Mode, Option<&'static str>, Vec<Option<Option<f64>>>);

/// One class's slots, two (one per mode) a metric it can be ranked by.
type Slots = Box<[OnceLock<Filled>]>;

/// A lazily filled store of rank orders over one registry's classes. See
/// the [module docs](self).
#[derive(Debug, Default)]
pub struct RankOrders {
    /// `[class position in the registry][2 × metric + mode]`, metric 0 the
    /// primary (`None`), then [`metrics`]; allocated on first use.
    slots: OnceLock<Box<[Slots]>>,
}

impl RankOrders {
    /// An empty store. Every call on it must pass the same registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn slot(
        &self,
        registry: &InsightRegistry,
        class: &dyn InsightClass,
        mode: Mode,
        metric: Option<&str>,
    ) -> Option<&OnceLock<Filled>> {
        let slots = self.slots.get_or_init(|| {
            let classes = registry.classes().iter();
            let width = |c: &dyn InsightClass| 2 * (1 + metrics(c).count());
            classes
                .map(|c| (0..width(c.as_ref())).map(|_| OnceLock::new()).collect())
                .collect()
        });
        let position = registry
            .classes()
            .iter()
            .position(|c| c.id() == class.id())?;
        let metric = match metric {
            None => 0,
            Some(m) => 1 + metrics(class).position(|a| a == m)?,
        };
        slots.get(position)?.get(2 * metric + mode as usize)
    }

    /// A complete keyspace's slot, if filled.
    pub(crate) fn get(
        &self,
        registry: &InsightRegistry,
        class: &dyn InsightClass,
        mode: Mode,
        metric: Option<&str>,
    ) -> Option<&Filled> {
        self.slot(registry, class, mode, metric)?.get()
    }

    /// Whether a keyspace (`metric` `None` = the primary) is complete.
    pub fn is_filled(
        &self,
        registry: &InsightRegistry,
        class_id: &str,
        mode: Mode,
        metric: Option<&str>,
    ) -> bool {
        let class = registry.get(class_id);
        class.is_some_and(|c| self.get(registry, c.as_ref(), mode, metric).is_some())
    }

    /// Fills a slot with `make()` unless a racing pass (same scores) did.
    /// Returns whether the slot is filled.
    pub(crate) fn fill(
        &self,
        registry: &InsightRegistry,
        class: &dyn InsightClass,
        mode: Mode,
        metric: Option<&str>,
        make: impl FnOnce() -> Option<Filled>,
    ) -> bool {
        let Some(slot) = self.slot(registry, class, mode, metric) else {
            return false;
        };
        if slot.get().is_none() {
            let Some(filled) = make() else {
                return false;
            };
            let _ = slot.set(filled);
        }
        true
    }

    /// Each filled plane copied for the next generation, the positions
    /// whose tuple `keep` rejects left to rescore; one that keeps nothing is
    /// not carried.
    pub(crate) fn carry(
        &self,
        registry: &InsightRegistry,
        keep: impl Fn(&AttrTuple) -> bool,
    ) -> Vec<Carried> {
        let mut carried = Vec::new();
        for (class, slots) in self.slots.get().into_iter().flatten().enumerate() {
            let metrics: Vec<_> = metrics(registry.classes()[class].as_ref()).collect();
            for (i, filled) in slots.iter().enumerate() {
                let Some(filled) = filled.get() else { continue };
                let scores: Vec<_> = (0..filled.plane.len())
                    .map(|p| keep(&filled.layout.tuple(p)).then(|| filled.plane.get(p)))
                    .collect();
                if scores.iter().any(Option::is_some) {
                    let mode = [Mode::Exact, Mode::Approximate][i % 2];
                    carried.push((class, mode, (i > 1).then(|| metrics[i / 2 - 1]), scores));
                }
            }
        }
        carried
    }

    /// `f` summed over the filled slots.
    fn sum(&self, f: impl Fn(&Filled) -> usize) -> usize {
        let slots = self.slots.get().into_iter().flatten().flatten();
        slots.filter_map(OnceLock::get).map(f).sum()
    }

    /// Number of filled (class, mode, metric) slots.
    pub fn filled(&self) -> usize {
        self.sum(|_| 1)
    }

    /// Scores in the filled planes: the complete keyspaces' cache entries.
    pub fn entries(&self) -> usize {
        self.sum(|f| f.plane.len())
    }

    /// Approximate resident bytes of the orders, layouts and slot table.
    pub fn approx_bytes(&self) -> usize {
        let table = self.slots.get().map_or(0, |slots| {
            let rows: usize = slots.iter().map(|row| std::mem::size_of_val(&**row)).sum();
            rows + std::mem::size_of_val(&**slots)
        });
        table + self.sum(|f| std::mem::size_of_val(&*f.order) + f.layout.bytes())
    }

    /// Resident bytes of the planes: 8 B a score.
    pub fn plane_bytes(&self) -> usize {
        self.sum(|f| f.plane.bytes())
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
        classes
            .iter()
            .map(|c| ex.complete(c.as_ref(), None, None))
            .collect()
    }

    /// Positions and tuples agree both ways on every class's layout, with
    /// a declared universe interleaved with columns outside it.
    #[test]
    fn positions_and_tuples_round_trip() {
        let registry = InsightRegistry::default();
        let mut builder = TableBuilder::new("t");
        for c in 0..23 {
            builder = if c % 4 == 1 {
                builder.categorical(format!("c{c}"), (0..8).map(|r| ["a", "b"][r % 2]))
            } else {
                builder.numeric(format!("n{c}"), (0..8).map(|r| (r * c) as f64).collect())
            };
        }
        let t = builder.build().unwrap();
        let mut shaped = 0;
        for class in registry.classes() {
            let scan = class.candidates(&t);
            let layout = Layout::new(class.as_ref(), &t, &scan).unwrap();
            let pairs = matches!(layout, Layout::Pairs(_));
            shaped += usize::from(pairs);
            for (p, attrs) in scan.iter().enumerate() {
                assert_eq!(layout.tuple(p), *attrs, "{}", class.id());
                assert_eq!(layout.position(attrs), pairs.then_some(p));
            }
            assert_eq!(layout.position(&AttrTuple::Two(3, 0)), None);
            assert_eq!(layout.position(&AttrTuple::One(0)), None);
        }
        assert_eq!(shaped, 3);
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
        let first = RankOrders::new();
        complete_all(
            &Executor::exact(&t1, &r)
                .with_cache(&cache)
                .with_orders(&first),
        );
        // complete keyspaces left the hash for the planes
        assert_eq!(cache.len(), 0);
        assert_eq!(first.entries() * 8, first.plane_bytes());
        // the writer path's republish: the planes carry into the new
        // epoch's empty store with the dirty positions rescored
        let dirty = [0, 1, 3];
        let clean = |attrs: &AttrTuple| attrs.indices().iter().all(|i| !dirty.contains(i));
        let carried = first.carry(&r, clean);
        let (epoch, migrated) = cache.bump_epoch_retaining(|_, attrs| clean(attrs));
        assert_eq!(migrated, 0);
        let refreshed = RankOrders::new();
        let ex = Executor::exact(&t2, &r)
            .with_cache_at(&cache, epoch)
            .with_orders(&refreshed);
        let mut reused = 0;
        for (class, mode, metric, scores) in carried {
            assert_eq!((mode, metric), (Mode::Exact, None));
            let (kept, rescored) = ex.complete(r.classes()[class].as_ref(), None, Some(scores));
            assert!(rescored > 0 || kept > 0);
            reused += kept;
        }
        assert!(reused > 0, "pure-z tuples should carry over");
        // classes with nothing clean to carry are scanned afresh
        complete_all(&ex);
        let rebuilt = RankOrders::new();
        complete_all(&Executor::exact(&t2, &r).with_orders(&rebuilt));
        for class in r.classes() {
            let slot = |o: &'_ RankOrders| {
                let f = o.get(&r, class.as_ref(), Mode::Exact, None).unwrap();
                (f.plane.clone(), f.order.clone())
            };
            assert_eq!(
                slot(&refreshed),
                slot(&rebuilt),
                "class {} diverged",
                class.id()
            );
        }
        assert_eq!(refreshed.entries(), rebuilt.entries());
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
        assert!(!store.is_filled(&r, "linear-relationship", Mode::Exact, None));
        let entries: usize = r
            .classes()
            .iter()
            .filter_map(|c| store.get(&r, c.as_ref(), Mode::Approximate, None))
            .map(|filled| filled.order.len())
            .sum();
        assert!(entries > 12, "more than one entry a class");
    }
}
