//! Rank orders and score planes — the paper's "indexes that will support
//! fast approximate insight querying" (§3), and the engine's one store of
//! scores.
//!
//! A [`RankOrders`] slot holds one *keyspace* — a (class, [`Mode`],
//! metric) — as a *plane*: the class scan's scores by scan position.
//! A position needs no hash: a declared pair shape's pair is a triangular
//! index, and an undeclared class is only ever stored from its own scan.
//!
//! A declared pair shape gets its plane from the first scan or pinned
//! walk over its keyspace, with every position *unscored*; an LSH draw,
//! whose work is sub-quadratic, stores into a plane that exists but
//! allocates none. Each pass reads what is there (a hit) and stores
//! what it scored (a miss) by compare-exchange from unscored, so racing
//! passes store identical bits once, because scoring is deterministic.
//! The store that fills the last position completes the keyspace: the same
//! plane, now full, gets the positions of its finite scores in the ranking
//! order (descending score, ascending tuple), which unfixed, undiversified
//! queries then walk. An undeclared class gets its plane only from a pass
//! over its whole scan, so it is complete at once; a narrower pass over it
//! scores uncached. So does a tuple past the packable columns.
//!
//! A keyspace also completes in a freeze after
//! [`CoreBuilder::build_index`](crate::CoreBuilder::build_index). Like
//! [`PreparedColumns`](foresight_stats::prepared::PreparedColumns), the
//! store is lent to the executor by the snapshot that owns it and read
//! without a lock. A freeze that mints an epoch starts a new one, into
//! which a column-granular republish carries every plane with the
//! positions touching a dirty column unscored.

use crate::executor::{rank_order, Mode};
use foresight_data::Table;
use foresight_insight::{AttrTuple, CandidatePruning, InsightClass, InsightRegistry};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Bits an attribute index takes in a [`Packed`] tuple.
const FIELD_BITS: u32 = 21;

/// A [`Packed`] field with no attribute in it; also the first column index
/// a packed tuple cannot name.
const EMPTY: u64 = (1 << FIELD_BITS) - 1;

/// An attribute tuple packed into one word: three 21-bit fields, [`EMPTY`]
/// where an arity below three leaves a slot free. A tuple that names a
/// column at or past [`EMPTY`] (two million columns) has no word: its
/// undeclared class gets no plane, and it is scored every time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Packed(u64);

impl Packed {
    pub(crate) fn new(attrs: &AttrTuple) -> Option<Self> {
        let slots = match *attrs {
            AttrTuple::One(a) => [Some(a), None, None],
            AttrTuple::Two(a, b) => [Some(a), Some(b), None],
            AttrTuple::Three(a, b, c) => [Some(a), Some(b), Some(c)],
        };
        let mut word = 0;
        for (slot, index) in (0..).zip(slots) {
            let field = match index.map(|i| i as u64) {
                Some(i) if i >= EMPTY => return None,
                Some(i) => i,
                None => EMPTY,
            };
            word |= field << (slot * FIELD_BITS);
        }
        Some(Self(word))
    }

    pub(crate) fn tuple(self) -> AttrTuple {
        let field = |slot: u32| (self.0 >> (slot * FIELD_BITS)) & EMPTY;
        match (field(0) as usize, field(1), field(2)) {
            (a, EMPTY, _) => AttrTuple::One(a),
            (a, b, EMPTY) => AttrTuple::Two(a, b as usize),
            (a, b, c) => AttrTuple::Three(a, b as usize, c as usize),
        }
    }
}

/// The word a degenerate (`None`) score is stored as: a signalling NaN,
/// which no arithmetic produces.
pub(crate) const DEGENERATE: u64 = 0x7FF0_0000_0000_0001;

/// The word of a position no pass has scored: a second signalling NaN.
pub(crate) const UNSCORED: u64 = 0x7FF0_0000_0000_0002;

/// A score as one word: its bits, or [`DEGENERATE`]. A score that is one
/// of the two reserved NaNs is stored as [`f64::NAN`] — NaN either way, and
/// the engine drops every non-finite score whatever its payload.
pub(crate) fn encode(score: Option<f64>) -> u64 {
    match score.map(f64::to_bits) {
        None => DEGENERATE,
        Some(DEGENERATE | UNSCORED) => f64::NAN.to_bits(),
        Some(bits) => bits,
    }
}

/// A word as a score: `None` when unscored, `Some(None)` when degenerate.
pub(crate) fn decode(word: u64) -> Option<Option<f64>> {
    match word {
        UNSCORED => None,
        DEGENERATE => Some(None),
        bits => Some(Some(f64::from_bits(bits))),
    }
}

/// How a plane's scan positions map to tuples.
#[derive(Debug, Clone)]
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
    /// The declared pair shape — checked against `scan` when one is given —
    /// else the packed `scan`; `None` when there is neither, a tuple of the
    /// scan does not pack, or a position would not fit an order's `u32`.
    pub(crate) fn new(
        class: &dyn InsightClass,
        table: &Table,
        scan: Option<&[AttrTuple]>,
    ) -> Option<Self> {
        let universe = match class.pruning() {
            CandidatePruning::NumericPairs => table.numeric_indices(),
            CandidatePruning::AllPairs => (0..table.n_cols()).collect(),
            CandidatePruning::None => Vec::new(),
        };
        let (n, fits) = (universe.len(), |len: usize| u32::try_from(len).is_ok());
        let pairs = n * n.saturating_sub(1) / 2;
        if n > 1 && scan.is_none_or(|scan| scan.len() == pairs) {
            let universe = universe.into_iter().map(|c| c as u32).collect();
            return (fits(table.n_cols()) && fits(pairs)).then_some(Self::Pairs(universe));
        }
        let scan = scan.filter(|scan| fits(scan.len()))?;
        let packed = scan.iter().map(Packed::new).collect::<Option<_>>();
        packed.map(Self::Scan)
    }

    fn len(&self) -> usize {
        match self {
            Self::Pairs(u) => u.len() * (u.len() - 1) / 2,
            Self::Scan(scan) => scan.len(),
        }
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

    /// Every position's tuple, in position order: a sequential walk, where
    /// [`tuple`](Self::tuple) solves for one position's row.
    fn tuples(&self) -> impl Iterator<Item = AttrTuple> + '_ {
        let (pairs, scan) = match self {
            Self::Pairs(u) => (Some(&**u), None),
            Self::Scan(scan) => (None, Some(&**scan)),
        };
        let pairs = pairs.into_iter().flat_map(|u| {
            (0..u.len()).flat_map(move |i| {
                let a = u[i] as usize;
                u[i + 1..]
                    .iter()
                    .map(move |&b| AttrTuple::Two(a, b as usize))
            })
        });
        pairs.chain(scan.into_iter().flatten().map(|p| p.tuple()))
    }

    fn bytes(&self) -> usize {
        match self {
            Self::Pairs(u) => std::mem::size_of_val(&**u),
            Self::Scan(scan) => std::mem::size_of_val(&**scan),
        }
    }
}

/// One keyspace's scores by scan position, a word each: a score's bits,
/// [`DEGENERATE`], or [`UNSCORED`].
#[derive(Debug)]
pub(crate) struct Plane {
    pub(crate) layout: Layout,
    words: Box<[AtomicU64]>,
    /// Positions scored so far; the plane is complete at its length.
    scored: AtomicUsize,
}

impl Plane {
    fn new(layout: Layout) -> Self {
        let words = (0..layout.len())
            .map(|_| AtomicU64::new(UNSCORED))
            .collect();
        Self {
            layout,
            words,
            scored: AtomicUsize::new(0),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.words.len()
    }

    /// The score at `p`: `None` while unscored, `Some(None)` when
    /// degenerate.
    #[inline]
    pub(crate) fn get(&self, p: usize) -> Option<Option<f64>> {
        decode(self.words[p].load(Ordering::Relaxed))
    }

    /// The score at a position of a complete plane.
    #[inline]
    pub(crate) fn score(&self, p: usize) -> Option<f64> {
        self.get(p).expect("a complete plane")
    }

    /// Positions scored so far; acquires the stores it counts.
    fn scored(&self) -> usize {
        self.scored.load(Ordering::Acquire)
    }

    /// Stores `score` at `p` unless a pass did: `None` when one did, else
    /// whether this store filled the last unscored position.
    ///
    /// A word publishes nothing but itself, so its exchange is relaxed.
    /// The counter's `AcqRel` add orders it: the add that reaches the
    /// length acquires every earlier store's release, so the order built
    /// after it (and anyone who reads the order through its `OnceLock`)
    /// sees every word.
    fn store(&self, p: usize, score: Option<f64>) -> Option<bool> {
        let word = encode(score);
        let cell = &self.words[p];
        cell.compare_exchange(UNSCORED, word, Ordering::Relaxed, Ordering::Relaxed)
            .ok()?;
        Some(self.scored.fetch_add(1, Ordering::AcqRel) + 1 == self.len())
    }

    /// The finite scores of a complete plane with their tuples and
    /// positions, in the ranking order.
    fn rank(&self) -> Vec<((AttrTuple, f64), u32)> {
        let mut ranked: Vec<((AttrTuple, f64), u32)> = (0..)
            .zip(self.layout.tuples())
            .filter_map(|(p, attrs)| {
                let score = self.score(p as usize).filter(|s| s.is_finite())?;
                Some(((attrs, score), p))
            })
            .collect();
        ranked.sort_unstable_by(|a, b| rank_order(&a.0, &b.0));
        ranked
    }

    fn bytes(&self) -> usize {
        std::mem::size_of_val(&*self.words)
    }
}

/// A ranking as `(tuple, score)`s.
pub(crate) type Ranked = Vec<(AttrTuple, f64)>;

/// One keyspace: its plane, once a pass touched it, and its rank order,
/// once the plane is complete.
#[derive(Debug, Default)]
pub(crate) struct Slot {
    plane: OnceLock<Plane>,
    order: OnceLock<Box<[u32]>>,
}

impl Slot {
    /// The plane, allocated over `layout()` unless there is one; `None`
    /// when there is none and no layout, or no `layout` to allocate by.
    /// Racing first passes each resolve a layout, but only the winner
    /// allocates the words.
    pub(crate) fn plane_or(
        &self,
        layout: Option<impl FnOnce() -> Option<Layout>>,
    ) -> Option<&Plane> {
        if let Some(plane) = self.plane.get() {
            return Some(plane);
        }
        let layout = layout?()?;
        Some(self.plane.get_or_init(|| Plane::new(layout)))
    }

    /// The plane, if a pass allocated one.
    pub(crate) fn plane(&self) -> Option<&Plane> {
        self.plane.get()
    }

    /// A complete keyspace's plane and rank order.
    pub(crate) fn filled(&self) -> Option<(&Plane, &[u32])> {
        Some((self.plane.get()?, self.order.get()?))
    }

    /// Stores each `(position, score)` into the plane unless a racing pass
    /// did. Returns how many this call stored, and whether one of them
    /// filled the plane: that call, and no other, completes the keyspace.
    /// [`finish`](Self::finish) then builds its order.
    pub(crate) fn store(
        &self,
        scores: impl IntoIterator<Item = (usize, Option<f64>)>,
    ) -> (usize, bool) {
        let Some(plane) = self.plane() else {
            return (0, false);
        };
        let (mut stored, mut completed) = (0, false);
        for (p, score) in scores {
            if let Some(last) = plane.store(p, score) {
                stored += 1;
                completed |= last;
            }
        }
        (stored, completed)
    }

    /// [`filled`](Self::filled), building the order of a complete plane
    /// that has none — once, whoever races it. The call that built it also
    /// gets the ranking as `(tuple, score)`s, which a walk of the order
    /// would read back position by position.
    pub(crate) fn finish(&self) -> Option<(&Plane, &[u32], Option<Ranked>)> {
        let plane = self.plane()?;
        if plane.scored() < plane.len() {
            return None;
        }
        let mut built = None;
        let order = self.order.get_or_init(|| {
            let ranked = plane.rank();
            let order = ranked.iter().map(|&(_, p)| p).collect();
            built = Some(ranked.into_iter().map(|(entry, _)| entry).collect());
            order
        });
        Some((plane, order, built))
    }
}

/// The metrics a class can be ranked by, as the query names them: its own
/// (explicitly named, which scores it exactly in either mode), then its
/// alternatives.
fn metrics(class: &dyn InsightClass) -> impl Iterator<Item = &'static str> {
    std::iter::once(class.metric()).chain(class.alternative_metrics())
}

/// What [`RankOrders::carry`] moved into the next generation's store.
#[derive(Debug, Default)]
pub(crate) struct Carried {
    /// The keyspaces to complete again — each complete before, or filled
    /// by what was carried — as (class position in the registry, mode,
    /// metric).
    pub(crate) complete: Vec<(usize, Mode, Option<&'static str>)>,
    /// Partial-plane scores carried over.
    pub(crate) migrated: u64,
    /// Partial-plane scores left behind: their tuples touch a dirty column.
    pub(crate) purged: u64,
}

/// Occupancy of one kind of plane in a store (see [`RankOrders::planes`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlaneCount {
    /// Planes of the kind.
    pub planes: usize,
    /// Positions scored in them: their cache entries.
    pub entries: usize,
    /// Their resident bytes, 8 a position.
    pub bytes: usize,
}

/// One class's slots, two (one per mode) a metric it can be ranked by.
type Slots = Box<[Slot]>;

/// A lazily filled store of score planes and rank orders over one
/// registry's classes. See the [module docs](self).
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

    fn slots(&self, registry: &InsightRegistry) -> &[Slots] {
        self.slots.get_or_init(|| {
            let classes = registry.classes().iter();
            let width = |c: &dyn InsightClass| 2 * (1 + metrics(c).count());
            classes
                .map(|c| (0..width(c.as_ref())).map(|_| Slot::default()).collect())
                .collect()
        })
    }

    /// A keyspace's slot (`metric` `None` = the primary); `None` for a
    /// class or metric the registry does not know.
    pub(crate) fn slot(
        &self,
        registry: &InsightRegistry,
        class: &dyn InsightClass,
        mode: Mode,
        metric: Option<&str>,
    ) -> Option<&Slot> {
        let position = registry
            .classes()
            .iter()
            .position(|c| c.id() == class.id())?;
        let metric = match metric {
            None => 0,
            Some(m) => 1 + metrics(class).position(|a| a == m)?,
        };
        self.slots(registry)
            .get(position)?
            .get(2 * metric + mode as usize)
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
        let slot = class.and_then(|c| self.slot(registry, c.as_ref(), mode, metric));
        slot.is_some_and(|s| s.filled().is_some())
    }

    /// Copies every plane into `next`, the next generation's empty store,
    /// with the positions whose tuple `keep` rejects left unscored; a plane
    /// that keeps nothing is not carried. A partial plane stays partial —
    /// its dirty positions are not rescored — while a complete one is
    /// listed for the freeze to complete again.
    pub(crate) fn carry(
        &self,
        registry: &InsightRegistry,
        keep: impl Fn(&AttrTuple) -> bool,
        next: &RankOrders,
    ) -> Carried {
        let mut carried = Carried::default();
        let Some(slots) = self.slots.get() else {
            return carried;
        };
        for (class, (old, new)) in slots.iter().zip(next.slots(registry)).enumerate() {
            let metrics: Vec<_> = metrics(registry.classes()[class].as_ref()).collect();
            for (i, (slot, into)) in old.iter().zip(new.iter()).enumerate() {
                let Some(plane) = slot.plane.get() else {
                    continue;
                };
                let complete = slot.order.get().is_some();
                let mut copy = Plane::new(plane.layout.clone());
                let (mut kept, mut dropped) = (0, 0);
                let tuples = plane.layout.tuples();
                for ((word, old), attrs) in copy.words.iter_mut().zip(&plane.words).zip(tuples) {
                    match old.load(Ordering::Relaxed) {
                        UNSCORED => {}
                        old if keep(&attrs) => {
                            *word.get_mut() = old;
                            kept += 1;
                        }
                        _ => dropped += 1,
                    }
                }
                *copy.scored.get_mut() = kept;
                if !complete {
                    carried.migrated += kept as u64;
                    carried.purged += dropped;
                }
                if kept == 0 {
                    continue;
                }
                if complete || kept == copy.len() {
                    let mode = [Mode::Exact, Mode::Approximate][i % 2];
                    let metric = (i > 1).then(|| metrics[i / 2 - 1]);
                    carried.complete.push((class, mode, metric));
                }
                let _ = into.plane.set(copy);
            }
        }
        carried
    }

    /// Occupancy of the partial planes, then of the complete ones.
    pub fn planes(&self) -> [PlaneCount; 2] {
        let mut counts = [PlaneCount::default(); 2];
        let slots = self.slots.get().into_iter().flatten().flatten();
        for slot in slots {
            if let Some(plane) = slot.plane.get() {
                let count = &mut counts[usize::from(slot.order.get().is_some())];
                count.planes += 1;
                count.entries += plane.scored();
                count.bytes += plane.bytes();
            }
        }
        counts
    }

    /// Number of complete (class, mode, metric) keyspaces.
    pub fn filled(&self) -> usize {
        self.planes()[1].planes
    }

    /// Scores in the planes, partial ones too: the cache's entries.
    pub fn entries(&self) -> usize {
        self.planes().iter().map(|c| c.entries).sum()
    }

    /// Resident bytes of the planes, partial ones too: 8 B a position.
    pub fn plane_bytes(&self) -> usize {
        self.planes().iter().map(|c| c.bytes).sum()
    }

    /// Approximate resident bytes of the orders, layouts and slot table.
    pub fn approx_bytes(&self) -> usize {
        let Some(slots) = self.slots.get() else {
            return 0;
        };
        let rows: usize = slots.iter().map(|row| std::mem::size_of_val(&**row)).sum();
        let held: usize = slots
            .iter()
            .flatten()
            .map(|slot| {
                let order = slot.order.get().map_or(0, |o| std::mem::size_of_val(&**o));
                order + slot.plane.get().map_or(0, |p| p.layout.bytes())
            })
            .sum();
        rows + std::mem::size_of_val(&**slots) + held
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::ScoreCache;
    use crate::executor::Executor;
    use crate::query::InsightQuery;
    use crate::trace::Recorder;
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

    /// A complete primary keyspace's plane words and order.
    fn filled(
        store: &RankOrders,
        r: &InsightRegistry,
        class: &dyn InsightClass,
        mode: Mode,
    ) -> Option<(Vec<u64>, Vec<u32>)> {
        let (plane, order) = store.slot(r, class, mode, None)?.filled()?;
        let words = plane.words.iter().map(|w| w.load(Ordering::Relaxed));
        Some((words.collect(), order.to_vec()))
    }

    /// Completes every class's order: `(reused, rescored)` per class.
    fn complete_all(ex: &Executor<'_>) -> Vec<(usize, usize)> {
        let classes = ex.registry.classes();
        classes
            .iter()
            .map(|c| ex.complete(c.as_ref(), None))
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
            let layout = Layout::new(class.as_ref(), &t, Some(&scan)).unwrap();
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
                .execute_recorded(&q, &mut Recorder::untraced(None))
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
            .execute_recorded(&q, &mut Recorder::untraced(None))
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
        assert_eq!(first.entries() * 8, first.plane_bytes());
        // the writer path's republish: the planes carry into the new
        // epoch's empty store with the dirty positions rescored
        let dirty = [0, 1, 3];
        let clean = |attrs: &AttrTuple| attrs.indices().iter().all(|i| !dirty.contains(i));
        let refreshed = RankOrders::new();
        let carried = first.carry(&r, clean, &refreshed);
        assert_eq!(
            (carried.migrated, carried.purged),
            (0, 0),
            "no plane was partial"
        );
        cache.bump_epoch_retaining(|_, attrs| clean(attrs));
        let ex = Executor::exact(&t2, &r)
            .with_cache(&cache)
            .with_orders(&refreshed);
        let mut reused = 0;
        for (class, mode, metric) in carried.complete {
            assert_eq!((mode, metric), (Mode::Exact, None));
            let (kept, rescored) = ex.complete(r.classes()[class].as_ref(), None);
            assert!(rescored > 0 || kept > 0);
            reused += kept;
        }
        assert!(reused > 0, "pure-z tuples should carry over");
        // classes with nothing clean to carry are scanned afresh
        complete_all(&ex);
        let rebuilt = RankOrders::new();
        complete_all(&Executor::exact(&t2, &r).with_orders(&rebuilt));
        for class in r.classes() {
            assert_eq!(
                filled(&refreshed, &r, class.as_ref(), Mode::Exact),
                filled(&rebuilt, &r, class.as_ref(), Mode::Exact),
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
            .execute_recorded(&q, &mut Recorder::untraced(None))
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
            .filter_map(|c| filled(&store, &r, c.as_ref(), Mode::Approximate))
            .map(|(_, order)| order.len())
            .sum();
        assert!(entries > 12, "more than one entry a class");
    }

    /// The three NaNs a plane can hold stay apart: the unscored payload,
    /// the degenerate one, and a score that is itself NaN (stored as the
    /// quiet NaN, whichever payload it came with).
    #[test]
    fn unscored_degenerate_and_nan_round_trip_distinctly() {
        let words = [UNSCORED, DEGENERATE, encode(Some(f64::NAN))];
        assert_eq!(words[2], f64::NAN.to_bits());
        assert!(words[0] != words[1] && words[1] != words[2] && words[0] != words[2]);
        assert_eq!(decode(UNSCORED), None);
        assert_eq!(decode(DEGENERATE), Some(None));
        assert!(decode(words[2]).unwrap().unwrap().is_nan());
        for payload in [UNSCORED, DEGENERATE] {
            // a score spelled like a sentinel is stored as a plain NaN
            assert_eq!(encode(Some(f64::from_bits(payload))), f64::NAN.to_bits());
        }
        let plane = Plane::new(Layout::Scan(
            (0..3)
                .map(|c| Packed::new(&AttrTuple::One(c)).unwrap())
                .collect(),
        ));
        assert_eq!((0..3).map(|p| plane.get(p)).collect::<Vec<_>>(), [None; 3]);
        for (p, score) in [None, Some(f64::NAN), Some(f64::from_bits(UNSCORED))]
            .into_iter()
            .enumerate()
        {
            assert_eq!(plane.store(p, score), Some(p == 2));
        }
        assert_eq!(plane.get(0), Some(None));
        for p in [1, 2] {
            assert!(plane.get(p).unwrap().unwrap().is_nan(), "position {p}");
        }
        assert_eq!(plane.store(0, Some(1.0)), None, "a scored position stays");
        assert!(plane.rank().is_empty(), "no NaN is ranked");
    }

    /// Four threads store overlapping pinned walks of one declared
    /// keyspace into one snapshot's store, each finishing the slot after
    /// every store as the executor does: one store, and only one, fills the
    /// last position, one finish builds the order, every position holds one
    /// entry, and plane and order match an `Exhaustive` fill bit for bit.
    #[test]
    fn racing_pinned_walks_build_the_order_once() {
        use crate::candidates::CandidateSource;
        use std::sync::Barrier;

        let mut builder = TableBuilder::new("t");
        for c in 0..24 {
            let values = (0..60)
                .map(|r| ((r * (c + 3)) % 17) as f64 + r as f64 / 7.0)
                .collect();
            builder = builder.numeric(format!("n{c}"), values);
        }
        let t = builder.build().unwrap();
        let r = InsightRegistry::default();
        let class = r.get("linear-relationship").unwrap().as_ref();
        for round in 0..8 {
            let store = RankOrders::new();
            let slot = store.slot(&r, class, Mode::Exact, None).unwrap();
            let start = Barrier::new(4);
            let (completed, built): (usize, usize) = std::thread::scope(|scope| {
                let threads: Vec<_> = (0..4)
                    .map(|thread| {
                        let (t, start) = (&t, &start);
                        scope.spawn(move || {
                            start.wait();
                            // thread k pins columns k, k + 2, ... from an
                            // offset: every column twice over, in a
                            // different order each round
                            let (mut done, mut built) = (0, 0);
                            for i in 0..12 {
                                let column = (thread % 2 + 2 * ((i + round + thread) % 12)) % 24;
                                let plan =
                                    CandidateSource::exhaustive().generate(class, t, &[column]);
                                let plane =
                                    slot.plane_or(Some(|| Layout::new(class, t, None))).unwrap();
                                let positions: Vec<usize> = plan
                                    .tuples
                                    .iter()
                                    .map(|a| plane.layout.position(a).unwrap())
                                    .collect();
                                let scores = class.score_batch(t, &plan.tuples);
                                let (_, last) = slot.store(positions.into_iter().zip(scores));
                                done += usize::from(last);
                                let finished = slot.finish();
                                built += usize::from(finished.is_some_and(|f| f.2.is_some()));
                            }
                            (done, built)
                        })
                    })
                    .collect();
                let each = threads.into_iter().map(|h| h.join().unwrap());
                each.fold((0, 0), |(d, b), (done, built)| (d + done, b + built))
            });
            assert_eq!(
                completed, 1,
                "round {round}: the plane was completed {completed} times"
            );
            assert_eq!(built, 1, "round {round}: the order was built {built} times");
            let scan = class.candidates(&t).len();
            assert_eq!(store.entries(), scan);
            assert_eq!(store.filled(), 1);
            let exhaustive = RankOrders::new();
            Executor::exact(&t, &r)
                .with_orders(&exhaustive)
                .complete(class, None);
            assert_eq!(
                filled(&store, &r, class, Mode::Exact),
                filled(&exhaustive, &r, class, Mode::Exact),
                "round {round}"
            );
        }
    }
}
