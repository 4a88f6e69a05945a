//! The score cache's remains once scores moved into planes: the
//! description memo, the traffic counters and the data-generation epoch.
//!
//! Scores themselves live in each snapshot's
//! [`RankOrders`](crate::order::RankOrders): one plane per keyspace — a
//! (class, mode, metric) — filled as passes score it. The [`ScoreCache`]
//! counts that traffic: a plane read is a *hit*, a scored position a
//! *miss*, a filled position an *entry* (counted by the snapshot, see
//! [`EngineCore::cache_stats`](crate::EngineCore::cache_stats)).
//!
//! One cache outlives many [`EngineCore`](crate::EngineCore) snapshots.
//! The writer path mints a fresh *data-generation epoch*
//! ([`ScoreCache::bump_epoch`]) whenever it republishes a core whose scores
//! could differ; the new snapshot starts a new store of planes, and readers
//! still holding an older snapshot keep reading and storing into their own.
//! Descriptions are keyed by `(class, tuple, score)` across snapshots, so a
//! bump retires the ones it cannot prove still hold.

use foresight_insight::AttrTuple;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Key for memoized [`InsightClass::describe`] output: the description is a
/// pure function of `(class, tuple, score)` — the score enters as raw bits
/// so distinct metrics/modes (which produce distinct scores) never collide.
///
/// [`InsightClass::describe`]: foresight_insight::InsightClass::describe
type DetailKey = (&'static str, AttrTuple, u64);

/// Score traffic and occupancy: hits, misses and entries over the score
/// planes, and the partial-plane scores epoch bumps dropped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups a plane answered.
    pub hits: u64,
    /// Lookups that fell through to scoring: positions scored.
    pub misses: u64,
    /// Scores held: a snapshot's filled plane positions in
    /// [`EngineCore::cache_stats`](crate::EngineCore::cache_stats); the
    /// cache alone holds none.
    pub entries: usize,
    /// Partial-plane scores dropped by epoch bumps (stale data generations
    /// purged).
    pub purges: u64,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A counter on its own cache line: at warm-query throughput the hit
/// counter moves millions of times a second, and sharing a line with
/// another hot word serializes the sessions that bump it.
#[repr(align(128))]
#[derive(Default)]
struct PaddedCounter(AtomicU64);

impl PaddedCounter {
    fn add(&self, n: u64) {
        if n > 0 {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// The description memo, the traffic counters and the epoch, shared by
/// every snapshot the writer path publishes.
///
/// Owned (behind an `Arc`) by the [`EngineCore`](crate::EngineCore) and
/// consulted by the [`Executor`](crate::Executor); safe to share across
/// threads.
#[derive(Default)]
pub struct ScoreCache {
    /// Memoized `describe()` strings. Only the handful of top-k winners per
    /// query ever land here (not the full candidate set), and they are
    /// written after ranking, outside the parallel scoring loop.
    details: RwLock<HashMap<DetailKey, String>>,
    /// Latest minted data generation (see [`ScoreCache::bump_epoch`]).
    epoch: AtomicU64,
    hits: PaddedCounter,
    misses: PaddedCounter,
    purges: PaddedCounter,
}

impl ScoreCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The most recently minted data-generation epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Mints the next data generation and returns it — called by the writer
    /// path whenever it republishes a core snapshot whose scores could
    /// differ (shard appended, class re-registered, catalog rebuilt or
    /// restored).
    ///
    /// The `details` memo is retired whole: a description is keyed by
    /// `(class, tuple, score-bits)`, but it can depend on data the score
    /// does not pin down (a degenerate score like `0.0` stays bit-identical
    /// while the value it would describe — say, the most frequent category
    /// — moves under it), so only a tuple *proven* untouched may keep its
    /// memo, and a plain bump proves nothing. Counters are preserved.
    pub fn bump_epoch(&self) -> u64 {
        self.bump_epoch_retaining(|_, _| false)
    }

    /// Mints the next data generation like [`bump_epoch`], but keeps the
    /// descriptions of the `(class, tuple)`s `keep` proves still valid —
    /// the column-granular alternative used by incremental ingest: a clean
    /// tuple's description is a function of unchanged inputs. Soundness is
    /// the caller's obligation. The scores follow the snapshot's planes
    /// (see [`RankOrders`](crate::order::RankOrders)).
    ///
    /// [`bump_epoch`]: ScoreCache::bump_epoch
    pub fn bump_epoch_retaining(&self, keep: impl Fn(&'static str, &AttrTuple) -> bool) -> u64 {
        let current = self.epoch.fetch_add(1, Ordering::Relaxed) + 1;
        self.details
            .write()
            .retain(|(class_id, attrs, _), _| keep(class_id, attrs));
        current
    }

    /// Counts one pass's plane lookups: `hits` read, `misses` scored.
    pub(crate) fn count(&self, hits: u64, misses: u64) {
        self.hits.add(hits);
        self.misses.add(misses);
    }

    /// Counts `n` partial-plane scores an epoch bump dropped.
    pub(crate) fn count_purges(&self, n: u64) {
        self.purges.add(n);
    }

    /// Returns the memoized description for `(class, attrs, score)`,
    /// computing and storing it via `describe` on first sight.
    ///
    /// Sound because `InsightClass::describe` is a pure function of the
    /// table, the tuple, and the score, and every table change retires the
    /// memos it could invalidate: wholesale swaps go through
    /// [`clear`](ScoreCache::clear), appended rows through
    /// [`bump_epoch`](ScoreCache::bump_epoch) (drops all details — the
    /// score bits alone don't pin the described data down), and incremental
    /// republishes through
    /// [`bump_epoch_retaining`](ScoreCache::bump_epoch_retaining) (keeps
    /// only tuples whose columns provably received no data). Descriptions
    /// are far cheaper than scores in most classes but not all:
    /// multimodality re-fits a KDE per call, which would otherwise dominate
    /// warm queries.
    pub fn detail(
        &self,
        class_id: &'static str,
        attrs: &AttrTuple,
        score: f64,
        describe: impl FnOnce() -> String,
    ) -> String {
        let key = (class_id, *attrs, score.to_bits());
        if let Some(found) = self.details.read().get(&key) {
            return found.clone();
        }
        let fresh = describe();
        self.details.write().entry(key).or_insert(fresh).clone()
    }

    /// Drops every description and resets the counters — but not the
    /// snapshots' planes (see
    /// [`Foresight::clear_score_cache`](crate::Foresight::clear_score_cache)).
    pub fn clear(&self) {
        for counter in [&self.hits, &self.misses, &self.purges] {
            counter.0.store(0, Ordering::Relaxed);
        }
        self.details.write().clear();
    }

    /// Approximate resident bytes of the memoized descriptions. An
    /// estimate for the monitor's resource gauges, not allocator truth.
    pub fn approx_bytes(&self) -> usize {
        let details = self.details.read();
        let each = |(k, v): (&DetailKey, &String)| std::mem::size_of_val(k) + v.len() + 16;
        details.iter().map(each).sum()
    }

    /// A snapshot of the counters; `entries` is 0, the planes' to add.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            entries: 0,
            purges: self.purges.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{Executor, Mode};
    use crate::order::{decode, encode, Layout, Packed, RankOrders, Slot, DEGENERATE};
    use crate::InsightQuery;
    use foresight_data::{Table, TableBuilder};
    use foresight_insight::InsightRegistry;
    use foresight_sketch::{CatalogConfig, SketchCatalog};

    /// Six numeric columns: a declared pair shape's plane has 15 positions.
    fn table() -> Table {
        let mut builder = TableBuilder::new("t");
        for c in 0..6 {
            let values = (0..8).map(|r| ((r * (c + 2)) % 7) as f64).collect();
            builder = builder.numeric(format!("n{c}"), values);
        }
        builder.build().unwrap()
    }

    /// A registry, a table and a store over them, as a snapshot holds them.
    struct Snapshot {
        registry: InsightRegistry,
        table: Table,
        orders: RankOrders,
    }

    impl Snapshot {
        fn new() -> Self {
            Self {
                registry: InsightRegistry::default(),
                table: table(),
                orders: RankOrders::new(),
            }
        }

        /// The keyspace's slot, its plane allocated over the declared pair
        /// shape as a first pass allocates it.
        fn slot(&self, class: &str, mode: Mode, metric: Option<&str>) -> &Slot {
            let class = self.registry.get(class).unwrap().as_ref();
            let slot = self
                .orders
                .slot(&self.registry, class, mode, metric)
                .unwrap();
            slot.plane_or(Some(|| Layout::new(class, &self.table, None)))
                .unwrap();
            slot
        }
    }

    /// A pass against the slot alone, with scores of the test's choosing:
    /// reads `positions` of `slot`'s plane, counts the hits and misses, and
    /// stores `fresh(p)` at each miss. Returns what it read, how many
    /// scores it stored, and whether that completed the keyspace. The
    /// executor's own path is checked by `matches_a_reference_model`.
    fn pass(
        cache: &ScoreCache,
        slot: &Slot,
        positions: &[usize],
        fresh: impl Fn(usize) -> Option<f64>,
    ) -> (Vec<Option<Option<f64>>>, usize, bool) {
        let plane = slot.plane().unwrap();
        let found: Vec<_> = positions.iter().map(|&p| plane.get(p)).collect();
        let misses = found.iter().filter(|f| f.is_none()).count();
        cache.count((positions.len() - misses) as u64, misses as u64);
        let missed = positions.iter().zip(&found).filter(|(_, f)| f.is_none());
        let (stored, completed) = slot.store(missed.map(|(&p, _)| (p, fresh(p))));
        (found, stored, completed)
    }

    #[test]
    fn miss_then_hit() {
        let (cache, snap) = (ScoreCache::new(), Snapshot::new());
        let slot = snap.slot("linear-relationship", Mode::Exact, None);
        assert_eq!(
            pass(&cache, slot, &[3], |_| Some(0.75)),
            (vec![None], 1, false)
        );
        let (found, stored, _) = pass(&cache, slot, &[3], |_| unreachable!());
        assert_eq!((found, stored), (vec![Some(Some(0.75))], 0));
        let mut stats = cache.stats();
        stats.entries += snap.orders.entries();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    /// Tuples and scores round-trip through their words bit for bit; a
    /// scan with a tuple past the packable columns gets no plane.
    #[test]
    fn words_round_trip_and_wide_tuples_stay_uncached() {
        let edge = (1 << 21) - 2;
        for attrs in [
            AttrTuple::One(edge),
            AttrTuple::Two(3, 1),
            AttrTuple::Three(7, edge, 0),
        ] {
            assert_eq!(Packed::new(&attrs).unwrap().tuple(), attrs);
        }
        for score in [
            None,
            Some(-0.0),
            Some(-1.5),
            Some(f64::INFINITY),
            Some(f64::NAN),
        ] {
            let bits = |s: Option<Option<f64>>| s.map(|s| s.map(f64::to_bits));
            assert_eq!(bits(decode(encode(score))), bits(Some(score)));
        }
        // the one NaN that spells `None` is kept a NaN
        let spelled = Some(f64::from_bits(DEGENERATE));
        assert!(decode(encode(spelled)).unwrap().is_some_and(f64::is_nan));
        let registry = InsightRegistry::default();
        let skew = registry.get("skew").unwrap().as_ref();
        let wide = [AttrTuple::One(1), AttrTuple::One(edge + 1)];
        assert!(Packed::new(&wide[1]).is_none());
        assert!(Layout::new(skew, &table(), Some(&wide[..])).is_none());
        assert!(Layout::new(skew, &table(), Some(&wide[..1])).is_some());
    }

    #[test]
    fn degenerate_none_is_a_hit() {
        let (cache, snap) = (ScoreCache::new(), Snapshot::new());
        let slot = snap.slot("linear-relationship", Mode::Exact, None);
        pass(&cache, slot, &[4], |_| None);
        let (found, ..) = pass(&cache, slot, &[4], |_| unreachable!());
        assert_eq!(found, vec![Some(None)]);
    }

    #[test]
    fn key_distinguishes_mode_and_metric() {
        let (cache, snap) = (ScoreCache::new(), Snapshot::new());
        let spaces = [
            ("linear-relationship", Mode::Exact, None),
            ("linear-relationship", Mode::Approximate, None),
            ("linear-relationship", Mode::Exact, Some("|spearman|")),
            ("statistical-dependence", Mode::Exact, None),
        ];
        for (value, &(class, mode, metric)) in spaces.iter().enumerate() {
            pass(&cache, snap.slot(class, mode, metric), &[2], |_| {
                Some(value as f64)
            });
        }
        for (value, &(class, mode, metric)) in spaces.iter().enumerate() {
            let (found, ..) = pass(&cache, snap.slot(class, mode, metric), &[2], |_| None);
            assert_eq!(found, vec![Some(Some(value as f64))]);
        }
        let (found, ..) = pass(
            &cache,
            snap.slot("monotonic-relationship", Mode::Exact, None),
            &[2],
            |_| None,
        );
        assert_eq!(found, vec![None]);
    }

    #[test]
    fn detail_is_computed_once_per_key() {
        let cache = ScoreCache::new();
        let attrs = AttrTuple::One(2);
        let mut calls = 0;
        let first = cache.detail("c", &attrs, 0.5, || {
            calls += 1;
            "three modes".into()
        });
        let second = cache.detail("c", &attrs, 0.5, || {
            calls += 1;
            "never built".into()
        });
        assert_eq!(first, "three modes");
        assert_eq!(second, "three modes");
        assert_eq!(calls, 1);
        // a different score is a different description
        let other = cache.detail("c", &attrs, 0.25, || "two modes".into());
        assert_eq!(other, "two modes");
        cache.clear();
        assert_eq!(
            cache.detail("c", &attrs, 0.5, || "rebuilt".into()),
            "rebuilt"
        );
    }

    /// A score-global republish — here a registry change — mints an epoch
    /// and a new store: the old snapshot's partial-plane scores are
    /// counted as purges, its complete planes are not, and every
    /// description is retired.
    #[test]
    fn epoch_bump_retires_scores_and_details() {
        use crate::{CoreBuilder, InsightQuery};
        use foresight_data::TableSource;
        use std::sync::Arc;
        let core = CoreBuilder::new(TableSource::materialized(table())).freeze();
        let pinned = InsightQuery::class("linear-relationship").fix_attr(0);
        for q in [&pinned, &InsightQuery::class("skew")] {
            core.run(q, &core.options()).unwrap();
        }
        let attrs = AttrTuple::Two(0, 1);
        let mut calls = 0;
        core.cache().detail("c", &attrs, 0.5, || {
            calls += 1;
            "first description".into()
        });
        let [partial, complete] = core.rank_orders().planes();
        assert_eq!((partial.planes, partial.entries), (1, 5));
        assert_eq!((complete.planes, complete.entries), (1, 6));
        assert_eq!(core.epoch(), 0);

        let writer = CoreBuilder::from_arc(Arc::clone(&core));
        let new = writer.with_registry(InsightRegistry::default()).freeze();
        assert_eq!(new.epoch(), 1);
        assert_eq!(new.rank_orders().entries(), 0);
        // the pinned walk's five scores were partial: purged
        assert_eq!(new.cache_stats().purges, 5);
        // the describe memo is retired too: the same score bits can
        // describe different data after an append (degenerate scores don't
        // move), so a plain bump must recompute
        let d = new.cache().detail("c", &attrs, 0.5, || {
            calls += 1;
            "rebuilt description".into()
        });
        assert_eq!(d, "rebuilt description");
        assert_eq!(calls, 2);
        // a straggler still reading the old snapshot reads its own planes
        let before = core.cache_stats();
        core.run(&pinned, &core.options()).unwrap();
        let after = core.cache_stats();
        assert_eq!(
            (after.hits - before.hits, after.misses - before.misses),
            (5, 0)
        );
        assert_eq!(core.rank_orders().entries(), 11);
    }

    #[test]
    fn retaining_bump_migrates_clean_tuples_and_purges_dirty_ones() {
        let (cache, snap) = (ScoreCache::new(), Snapshot::new());
        let slot = snap.slot("linear-relationship", Mode::Approximate, None);
        // positions 0..5 are the pairs (0, 1..6), 5..9 the pairs (1, 2..6):
        // tuples touching column 2 are dirty
        pass(&cache, slot, &[0, 1, 5, 6], |p| Some(p as f64));
        cache.detail("c", &AttrTuple::One(1), 0.4, || "clean detail".into());
        cache.detail("c", &AttrTuple::One(2), 0.2, || "dirty detail".into());
        let keep = |attrs: &AttrTuple| !attrs.contains(2);
        let next = RankOrders::new();
        let carried = snap.orders.carry(&snap.registry, keep, &next);
        assert_eq!((carried.migrated, carried.purged), (2, 2));
        assert!(carried.complete.is_empty(), "a partial plane stays partial");
        assert_eq!(cache.bump_epoch_retaining(|_, attrs| keep(attrs)), 1);
        // details follow the same predicate: clean tuples keep their memo,
        // dirty ones recompute against the new data
        let mut calls = 0;
        let kept = cache.detail("c", &AttrTuple::One(1), 0.4, || {
            calls += 1;
            "never rebuilt".into()
        });
        assert_eq!(kept, "clean detail");
        let refreshed = cache.detail("c", &AttrTuple::One(2), 0.2, || {
            calls += 1;
            "fresh dirty detail".into()
        });
        assert_eq!(refreshed, "fresh dirty detail");
        assert_eq!(calls, 1);
        // clean tuples answer from the new store without recomputation,
        // dirty ones are unscored and not rescored
        let class = snap.registry.get("linear-relationship").unwrap().as_ref();
        let moved = next
            .slot(&snap.registry, class, Mode::Approximate, None)
            .unwrap();
        let (found, ..) = pass(&cache, moved, &[0, 1, 5, 6], |_| None);
        assert_eq!(found, vec![Some(Some(0.0)), None, None, Some(Some(6.0))]);
        assert_eq!(next.entries(), 4);
        // the retired store keeps what it had
        assert_eq!(snap.orders.entries(), 4);
    }

    #[test]
    fn clear_resets_entries_and_counters() {
        let (cache, snap) = (ScoreCache::new(), Snapshot::new());
        let slot = snap.slot("linear-relationship", Mode::Exact, None);
        for p in 0..15 {
            pass(&cache, slot, &[p], |p| Some(p as f64));
        }
        cache.count_purges(3);
        cache.detail("c", &AttrTuple::One(1), 0.5, || "memo".into());
        assert_eq!(snap.orders.entries(), 15);
        cache.clear();
        assert_eq!(cache.stats(), CacheStats::default());
        assert_eq!(cache.approx_bytes(), 0);
    }

    #[test]
    fn approx_bytes_counts_table_capacity_and_a_bump_returns_it() {
        let cache = ScoreCache::new();
        assert_eq!(cache.approx_bytes(), 0);
        let n = 64;
        for i in 0..n {
            cache.detail("c", &AttrTuple::Two(i, i + 1), i as f64, || "x".repeat(10));
        }
        let key = std::mem::size_of::<DetailKey>();
        assert_eq!(cache.approx_bytes(), n * (key + 10 + 16));
        cache.bump_epoch();
        assert_eq!(cache.approx_bytes(), 0, "a bump retires every description");
    }

    /// The store's contract stated as flat maps: per snapshot, each
    /// keyspace's scores by position and whether it is complete; shared
    /// across snapshots, the epoch and the hit, miss and purge counters.
    mod model {
        use super::super::CacheStats;
        use std::collections::{BTreeMap, BTreeSet};

        /// Class, mode and metric.
        pub type Space = (&'static str, u8, Option<&'static str>);

        /// One snapshot's planes: each position's score bits.
        #[derive(Default)]
        pub struct Store {
            pub planes: BTreeMap<Space, BTreeMap<usize, Option<u64>>>,
            pub complete: BTreeSet<Space>,
        }

        impl Store {
            pub fn entries(&self, partial: bool) -> usize {
                let planes = self.planes.iter();
                let kind = planes.filter(|(s, _)| self.complete.contains(s) != partial);
                kind.map(|(_, p)| p.len()).sum()
            }
        }

        #[derive(Default)]
        pub struct Model {
            /// The current snapshot's store first, then up to two retired.
            pub stores: Vec<Store>,
            pub epoch: u64,
            pub hits: u64,
            pub misses: u64,
            pub purges: u64,
        }

        impl Model {
            pub fn stats(&self) -> CacheStats {
                let current = &self.stores[0];
                CacheStats {
                    hits: self.hits,
                    misses: self.misses,
                    entries: current.entries(true) + current.entries(false),
                    purges: self.purges,
                }
            }
        }
    }

    const CLASSES: [&str; 2] = ["linear-relationship", "statistical-dependence"];

    /// Positions in a plane over six columns.
    const POSITIONS: usize = 15;

    /// A keyspace from one small integer: class, mode, and metric (`None`
    /// or the primary, named).
    fn keyspace(k: usize) -> (&'static str, Mode, Option<&'static str>) {
        let mode = [Mode::Exact, Mode::Approximate][k / 2 % 2];
        let metric = [None, Some(["|pearson|", "normalized dependence"][k % 2])][k / 4 % 2];
        (CLASSES[k % 2], mode, metric)
    }

    /// The pairs over six columns in lexicographic order: position `p`'s
    /// tuple.
    fn pairs() -> Vec<AttrTuple> {
        (0..6)
            .flat_map(|a| (a + 1..6).map(move |b| AttrTuple::Two(a, b)))
            .collect()
    }

    /// An executor over a snapshot in `mode`, counting into `cache`, with
    /// the snapshot's store lent when `orders` is given.
    fn executor<'a>(
        snap: &'a Snapshot,
        catalog: &'a SketchCatalog,
        cache: &'a ScoreCache,
        mode: Mode,
        orders: Option<&'a RankOrders>,
    ) -> Executor<'a> {
        let ex = match mode {
            Mode::Exact => Executor::exact(&snap.table, &snap.registry),
            Mode::Approximate => Executor::approximate(&snap.table, &snap.registry, catalog),
        };
        let ex = ex.with_cache(cache);
        match orders {
            Some(orders) => ex.with_orders(orders),
            None => ex,
        }
    }

    /// Completes a keyspace's plane over a fresh store: each position's
    /// score bits as a standalone fill computes them.
    fn reference(
        catalog: &SketchCatalog,
        (class, mode, metric): (&'static str, Mode, Option<&'static str>),
    ) -> Vec<Option<u64>> {
        let (snap, cache) = (Snapshot::new(), ScoreCache::new());
        let ex = executor(&snap, catalog, &cache, mode, Some(&snap.orders));
        let class = snap.registry.get(class).unwrap().as_ref();
        ex.complete(class, metric);
        let slot = snap
            .orders
            .slot(&snap.registry, class, mode, metric)
            .unwrap();
        let (plane, _) = slot.filled().unwrap();
        (0..POSITIONS)
            .map(|p| plane.score(p).map(f64::to_bits))
            .collect()
    }

    /// The ranking a complete plane's order must spell: the finite scores'
    /// positions by descending score, then ascending tuple.
    fn ranking(plane: &std::collections::BTreeMap<usize, Option<u64>>) -> Vec<u32> {
        let mut finite: Vec<(usize, f64)> = plane
            .iter()
            .filter_map(|(&p, s)| Some((p, s.map(f64::from_bits).filter(|s| s.is_finite())?)))
            .collect();
        finite.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        finite.into_iter().map(|(p, _)| p as u32).collect()
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Queries through executors over a lent store, republishes and
        /// clears, against the model: every answer equals an unstored
        /// executor's, and the traffic, the occupancy and every complete
        /// plane and order are the model's.
        #[test]
        fn matches_a_reference_model(
            ops in proptest::collection::vec((0u8..16, 0usize..8, 0usize..6, 0usize..6, 0usize..3), 1..80),
        ) {
            let catalog = SketchCatalog::build(&table(), &CatalogConfig::default());
            let scores: Vec<Vec<Option<u64>>> = (0..8).map(|k| reference(&catalog, keyspace(k))).collect();
            let tuples = pairs();
            let cache = ScoreCache::new();
            let mut snaps = vec![Snapshot::new()];
            let mut m = model::Model { stores: vec![model::Store::default()], ..Default::default() };
            for (step, &(kind, k, a, b, e)) in ops.iter().enumerate() {
                let (class, mode, metric) = keyspace(k);
                let space = (class, mode as u8, metric);
                // the current snapshot, or one or two behind it: a
                // straggler still reading a retired one
                let s = e.min(snaps.len() - 1);
                let ex = executor(&snaps[s], &catalog, &cache, mode, Some(&snaps[s].orders));
                let class_ref = snaps[s].registry.get(class).unwrap().as_ref();
                match kind {
                    0..=9 => {
                        // a pinned walk (one or two fixed columns) or, from
                        // 9, a whole pass: the same answer as an executor
                        // with no store, traffic by what the plane held
                        let mut query = InsightQuery::class(class).top_k(POSITIONS);
                        if let Some(metric) = metric {
                            query = query.metric(metric);
                        }
                        let fixed: Vec<usize> = match kind {
                            0..=4 => vec![a],
                            5..=8 => vec![a, b],
                            _ => Vec::new(),
                        };
                        for &c in &fixed {
                            query = query.fix_attr(c);
                        }
                        let before = cache.stats();
                        let got = ex.execute(&query).unwrap();
                        let want = executor(&snaps[s], &catalog, &ScoreCache::new(), mode, None).execute(&query).unwrap();
                        prop_assert_eq!(&got, &want, "answer at step {}", step);
                        let store = &mut m.stores[s];
                        // a complete keyspace answers an unfixed query from
                        // its order, without a lookup
                        let walked = fixed.is_empty() && store.complete.contains(&space);
                        let plane = store.planes.entry(space).or_default();
                        let drawn: Vec<usize> = (0..POSITIONS)
                            .filter(|&p| !walked && fixed.iter().all(|&c| tuples[p].contains(c)))
                            .collect();
                        let misses = drawn.iter().filter(|p| !plane.contains_key(p)).count();
                        m.hits += (drawn.len() - misses) as u64;
                        m.misses += misses as u64;
                        for &p in &drawn {
                            plane.insert(p, scores[k][p]);
                        }
                        if plane.len() == POSITIONS {
                            store.complete.insert(space);
                        }
                        let traffic = cache.stats().hits + cache.stats().misses;
                        prop_assert_eq!(traffic - before.hits - before.misses, drawn.len() as u64);
                    }
                    10 => {
                        // a freeze completes the keyspace, uncounted
                        ex.complete(class_ref, metric);
                        let store = &mut m.stores[s];
                        let plane = store.planes.entry(space).or_default();
                        plane.extend(scores[k].iter().copied().enumerate());
                        store.complete.insert(space);
                    }
                    11 => {
                        // a score-global republish: a new, empty store
                        cache.count_purges(snaps[0].orders.planes()[0].entries as u64);
                        m.purges += m.stores[0].entries(true) as u64;
                        m.epoch += 1;
                        prop_assert_eq!(cache.bump_epoch(), m.epoch);
                        snaps.insert(0, Snapshot::new());
                        m.stores.insert(0, model::Store::default());
                    }
                    12 | 13 => {
                        // a column-granular republish: every plane carried,
                        // the dirty positions unscored; a partial plane
                        // stays partial, a complete one is completed again
                        let keep = |attrs: &AttrTuple| !attrs.contains(a);
                        let next = Snapshot::new();
                        let carried = snaps[0].orders.carry(&next.registry, keep, &next.orders);
                        let mut store = model::Store::default();
                        let (mut migrated, mut purged, mut complete) = (0, 0, Vec::new());
                        for (&space, plane) in &m.stores[0].planes {
                            let was = m.stores[0].complete.contains(&space);
                            let kept: std::collections::BTreeMap<usize, Option<u64>> = plane
                                .iter()
                                .filter(|(&p, _)| keep(&tuples[p]))
                                .map(|(&p, &s)| (p, s))
                                .collect();
                            if !was {
                                migrated += kept.len() as u64;
                                purged += (plane.len() - kept.len()) as u64;
                            }
                            if kept.is_empty() {
                                continue;
                            }
                            if was || kept.len() == POSITIONS {
                                complete.push(space);
                            }
                            store.planes.insert(space, kept);
                        }
                        prop_assert_eq!((carried.migrated, carried.purged), (migrated, purged));
                        let mut listed: Vec<model::Space> = carried
                            .complete
                            .iter()
                            .map(|&(c, mode, metric)| (next.registry.classes()[c].id(), mode as u8, metric))
                            .collect();
                        listed.sort();
                        complete.sort();
                        prop_assert_eq!(&listed, &complete, "carried at step {}", step);
                        cache.count_purges(carried.purged);
                        m.purges += purged;
                        m.epoch += 1;
                        prop_assert_eq!(cache.bump_epoch_retaining(|_, a| keep(a)), m.epoch);
                        for &(c, mode, metric) in &carried.complete {
                            let class = next.registry.classes()[c].as_ref();
                            let ex = executor(&next, &catalog, &cache, mode, Some(&next.orders));
                            ex.complete(class, metric);
                            let k = (0..8).find(|&k| keyspace(k) == (class.id(), mode, metric)).unwrap();
                            let plane = store.planes.get_mut(&(class.id(), mode as u8, metric)).unwrap();
                            plane.extend(scores[k].iter().copied().enumerate());
                            store.complete.insert((class.id(), mode as u8, metric));
                        }
                        snaps.insert(0, next);
                        m.stores.insert(0, store);
                    }
                    _ => {
                        // clearing the scores: counters and memo reset, and
                        // the staged store starts empty
                        cache.clear();
                        snaps = vec![Snapshot::new()];
                        m = model::Model { stores: vec![model::Store::default()], epoch: m.epoch, ..Default::default() };
                    }
                }
                snaps.truncate(3);
                m.stores.truncate(3);
                prop_assert_eq!(cache.epoch(), m.epoch);
                let mut stats = cache.stats();
                stats.entries += snaps[0].orders.entries();
                prop_assert_eq!(stats, m.stats(), "stats after step {}", step);
                for (snap, store) in snaps.iter().zip(&m.stores) {
                    let [partial, complete] = snap.orders.planes();
                    let planes = store.planes.len();
                    prop_assert_eq!(partial.planes + complete.planes, planes);
                    prop_assert_eq!(complete.planes, store.complete.len());
                    prop_assert_eq!(partial.entries, store.entries(true));
                    prop_assert_eq!(partial.bytes + complete.bytes, planes * POSITIONS * 8);
                    for (&(class, mode, metric), want) in &store.planes {
                        let mode = [Mode::Exact, Mode::Approximate][mode as usize];
                        let class = snap.registry.get(class).unwrap().as_ref();
                        let slot = snap.orders.slot(&snap.registry, class, mode, metric).unwrap();
                        let plane = slot.plane().expect("a plane");
                        for p in 0..POSITIONS {
                            let found = plane.get(p).map(|s| s.map(f64::to_bits));
                            prop_assert_eq!(found, want.get(&p).copied(), "position {} at step {}", p, step);
                        }
                        if store.complete.contains(&(class.id(), mode as u8, metric)) {
                            let (_, order) = slot.filled().expect("complete");
                            prop_assert_eq!(order, &ranking(want)[..], "order at step {}", step);
                        }
                    }
                }
            }
        }
    }

    /// Two readers read one keyspace of the old snapshot's store, and of
    /// the new one's, while a writer carries the store over: a reader sees
    /// each position's own score or unscored, never a score from a
    /// neighbouring keyspace, and the new store ends up holding exactly
    /// the clean set.
    #[test]
    fn readers_stay_in_their_keyspace_across_a_retaining_bump() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Barrier;

        // four keyspaces share every position; the readers read the first
        let spaces: [(&'static str, Mode, Option<&'static str>); 4] = [
            ("linear-relationship", Mode::Exact, None),
            ("linear-relationship", Mode::Exact, Some("|spearman|")),
            ("linear-relationship", Mode::Approximate, None),
            ("statistical-dependence", Mode::Exact, None),
        ];
        let value = |space: usize, p: usize| Some((space * 100_000 + p) as f64);
        let tuples = pairs();
        let keep = |attrs: &AttrTuple| !attrs.contains(4);
        for _round in 0..8 {
            let (cache, old, new) = (ScoreCache::new(), Snapshot::new(), Snapshot::new());
            // partial planes: the last position is never scored
            for (k, &(class, mode, metric)) in spaces.iter().enumerate() {
                let slot = old.slot(class, mode, metric);
                let positions: Vec<usize> = (0..POSITIONS - 1).collect();
                pass(&cache, slot, &positions, |p| value(k, p));
            }
            let (class, mode, metric) = spaces[0];
            let class = old.registry.get(class).unwrap().as_ref();
            let start = Barrier::new(3);
            let done = AtomicBool::new(false);
            let carried = std::thread::scope(|scope| {
                for _ in 0..2 {
                    scope.spawn(|| {
                        start.wait();
                        let mut rounds = 0;
                        while !done.load(Ordering::Acquire) || rounds < 4 {
                            for (epoch, snap) in [&old, &new].into_iter().enumerate() {
                                let slot = snap.orders.slot(&snap.registry, class, mode, metric);
                                let Some(plane) = slot.unwrap().plane() else {
                                    continue;
                                };
                                for (p, attrs) in tuples.iter().enumerate() {
                                    if let Some(found) = plane.get(p) {
                                        assert_eq!(
                                            found,
                                            value(0, p),
                                            "epoch {epoch}, position {p}"
                                        );
                                        assert!(epoch == 0 || keep(attrs));
                                    }
                                }
                            }
                            rounds += 1;
                        }
                    });
                }
                start.wait();
                std::thread::yield_now();
                let carried = old.orders.carry(&old.registry, keep, &new.orders);
                done.store(true, Ordering::Release);
                carried
            });
            let clean = tuples[..POSITIONS - 1].iter().filter(|t| keep(t)).count();
            assert_eq!(carried.migrated as usize, spaces.len() * clean);
            assert_eq!(new.orders.entries(), spaces.len() * clean);
            for (k, &(class, mode, metric)) in spaces.iter().enumerate() {
                let all: Vec<usize> = (0..POSITIONS).collect();
                let (now, ..) = pass(&cache, new.slot(class, mode, metric), &all, |_| None);
                for (p, found) in now.into_iter().enumerate() {
                    let want = (p < POSITIONS - 1 && keep(&tuples[p])).then(|| value(k, p));
                    assert_eq!(found, want, "space {k}, position {p}");
                }
            }
            assert_eq!(old.orders.entries(), spaces.len() * (POSITIONS - 1));
        }
    }
}
