//! Cross-query score caching.
//!
//! Insight exploration is repetitive by nature: carousels re-run one query
//! per class on every focus change, sessions get replayed, and §4.1-style
//! drill-downs re-score the same attribute tuples under narrower filters.
//! The [`ScoreCache`] memoizes the expensive part — per-tuple metric
//! evaluation — across queries, keyed by everything that determines a score:
//! `(class, attribute tuple, execution mode, metric)`.
//!
//! Filters (score ranges, fixed attributes, exclusions, top-k) are *not*
//! part of the key: they select among scores but never change them, so a
//! tuple scored once serves every later query that touches it.
//!
//! The cache is sharded: each shard is an independent [`RwLock`]ed map, so
//! parallel candidate scoring mostly touches distinct locks. Inside a shard
//! the key is split in two. Everything one query holds fixed across its
//! candidates — class, mode, metric and epoch, a *keyspace* — selects a
//! table of scores keyed by the attribute tuple alone, and a tuple's shard
//! is chosen from the tuple alone. A batch resolves its keyspace once per
//! touched shard and then hashes and compares one word a tuple: a table
//! entry is the packed tuple and the score's bits, 16 bytes.
//! Degenerate results (`None` — constant columns, too few rows) are cached
//! too; re-proving a column degenerate costs as much as scoring it.
//!
//! A keyspace whose whole class scan has been scored is *complete*: its
//! scores leave the hash for a snapshot's score plane. Partial keyspaces stay
//! here.
//!
//! One cache outlives many [`EngineCore`](crate::EngineCore) snapshots:
//! every keyspace carries the *data-generation epoch* of the snapshot that
//! computed its scores, and the writer path mints a fresh epoch (via
//! [`ScoreCache::bump_epoch`]) whenever it republishes a core whose scores
//! could differ. Readers still holding an older snapshot keep looking up —
//! and storing — under their own epoch, so they can never serve a stale
//! score to (or poison the keyspace of) a newer snapshot.

use crate::executor::Mode;
use foresight_insight::AttrTuple;
use parking_lot::RwLock;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of independent lock shards in a [`ScoreCache`].
pub const CACHE_SHARDS: usize = 16;

const SHARDS: usize = CACHE_SHARDS;

/// A fast, non-cryptographic multiply-rotate hasher (FxHash-style). Cache
/// keys are tiny, trusted, and looked up on the hot path of every warm
/// query, where SipHash's per-lookup cost is measurable; collision-quality
/// beyond "good enough for a HashMap" buys nothing here.
#[derive(Default)]
struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// The part of a score's key that is the same for every candidate of one
/// query: a shard maps each keyspace to the scores of its tuples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Keyspace {
    class_id: &'static str,
    mode: Mode,
    /// `None` = the class's primary metric. A name the class itself
    /// declares (`metric()` / `alternative_metrics()`), which the executor
    /// resolves once per query — so a keyspace is plain data: building,
    /// hashing and comparing one never allocates.
    metric: Option<&'static str>,
    /// Data-generation counter: every [`ScoreCache::bump_epoch`] (one per
    /// republished core snapshot whose scores could differ) moves lookups to
    /// a fresh keyspace, so scores computed against a previous generation of
    /// the data are unreachable without the cache having to be fully
    /// cleared. The epoch is supplied by the caller (it is part of the
    /// engine-core snapshot), so readers of an old snapshot stay in their
    /// own keyspace even while a newer snapshot is being served.
    pub(crate) epoch: u64,
}

impl Keyspace {
    pub(crate) fn new(
        class_id: &'static str,
        mode: Mode,
        metric: Option<&'static str>,
        epoch: u64,
    ) -> Self {
        Self {
            class_id,
            mode,
            metric,
            epoch,
        }
    }
}

/// One keyspace's scores within one shard: a tuple's [`Packed`] word to
/// its score's [`encode`]d word.
type Scores = FxMap<Packed, u64>;

/// Bytes a [`Scores`] slot occupies: the two-word bucket plus the hash
/// table's one control byte (the tuple and an `Option<f64>` took 48 B).
const SCORE_SLOT_BYTES: usize = std::mem::size_of::<(Packed, u64)>() + 1;

/// Bits an attribute index takes in a [`Packed`] tuple.
const FIELD_BITS: u32 = 21;

/// A [`Packed`] field with no attribute in it; also the first column index
/// a packed tuple cannot name.
const EMPTY: u64 = (1 << FIELD_BITS) - 1;

/// An attribute tuple packed into one word: three 21-bit fields, [`EMPTY`]
/// where an arity below three leaves a slot free. A tuple that names a
/// column at or past [`EMPTY`] (two million columns) has no word: it is
/// never cached — scored every time, like any miss — and its class gets no
/// rank order.
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

impl Hash for Packed {
    /// The word through the SplitMix64 finalizer: the score table picks a
    /// bucket by the hash's low bits, which one Fx round of the bare word
    /// would take from the first attribute alone.
    fn hash<H: Hasher>(&self, state: &mut H) {
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        state.write_u64(x ^ (x >> 31));
    }
}

/// The word a degenerate (`None`) score is stored as: a signalling NaN,
/// which no arithmetic produces.
const DEGENERATE: u64 = 0x7FF0_0000_0000_0001;

/// A score as one word: its bits, or [`DEGENERATE`]. A score that is that
/// very NaN is stored as [`f64::NAN`] — NaN either way, and the engine drops
/// every non-finite score whatever its payload.
fn encode(score: Option<f64>) -> u64 {
    match score.map(f64::to_bits) {
        None => DEGENERATE,
        Some(DEGENERATE) => f64::NAN.to_bits(),
        Some(bits) => bits,
    }
}

fn decode(word: u64) -> Option<f64> {
    (word != DEGENERATE).then(|| f64::from_bits(word))
}

/// A complete keyspace's scores by scan position, 8 B each, spelled as in
/// the hash (see [`RankOrders`](crate::order::RankOrders)).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Plane(Box<[f64]>);

impl Plane {
    pub(crate) fn new(scores: &[Option<f64>]) -> Self {
        Self(scores.iter().map(|&s| f64::from_bits(encode(s))).collect())
    }

    #[inline]
    pub(crate) fn get(&self, position: usize) -> Option<f64> {
        decode(self.0[position].to_bits())
    }

    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    pub(crate) fn bytes(&self) -> usize {
        std::mem::size_of_val(&*self.0)
    }
}

/// Bytes a keyspace costs beyond its score slots: its own slot in the
/// shard's keyspace table (which holds the score table's header).
const KEYSPACE_BYTES: usize = std::mem::size_of::<(Keyspace, Scores)>() + 1;

/// The shard a tuple lives in, whatever its keyspace — so a batch resolves
/// its keyspace once per touched shard, and a tuple migrated to the next
/// epoch stays where it is. Bits 40–43 of the hash: the table inside the
/// shard picks buckets by the low bits and tags them with the top seven,
/// and a shard chosen by either would leave all its tuples sharing them.
#[inline]
fn shard_of(attrs: &AttrTuple) -> usize {
    let mut h = FxHasher::default();
    attrs.hash(&mut h);
    (h.finish() >> 40) as usize % SHARDS
}

/// The positions of one batch's tuples grouped by shard, each group in
/// input order — a counting sort, so a batch locks every touched shard
/// once and walks exactly its own tuples.
struct ByShard {
    order: Vec<usize>,
    /// `order[bounds[s]..bounds[s + 1]]` are shard `s`'s positions.
    bounds: [usize; SHARDS + 1],
}

impl ByShard {
    fn new<'t>(tuples: impl Iterator<Item = &'t AttrTuple>) -> Self {
        let shards: Vec<u8> = tuples.map(|attrs| shard_of(attrs) as u8).collect();
        let mut bounds = [0usize; SHARDS + 1];
        for &s in &shards {
            bounds[s as usize + 1] += 1;
        }
        for s in 0..SHARDS {
            bounds[s + 1] += bounds[s];
        }
        let mut next = bounds;
        let mut order = vec![0; shards.len()];
        for (i, &s) in shards.iter().enumerate() {
            order[next[s as usize]] = i;
            next[s as usize] += 1;
        }
        Self { order, bounds }
    }

    /// `(shard, positions)` for every shard the batch touches.
    fn groups(&self) -> impl Iterator<Item = (usize, &[usize])> {
        (0..SHARDS).filter_map(move |s| {
            let group = &self.order[self.bounds[s]..self.bounds[s + 1]];
            (!group.is_empty()).then_some((s, group))
        })
    }
}

/// Key for memoized [`InsightClass::describe`] output: the description is a
/// pure function of `(class, tuple, score)` — the score enters as raw bits
/// so distinct metrics/modes (which produce distinct scores) never collide.
///
/// [`InsightClass::describe`]: foresight_insight::InsightClass::describe
type DetailKey = (&'static str, AttrTuple, u64);

/// Hit/miss/purge counters and current occupancy of a [`ScoreCache`],
/// in aggregate and per lock shard.
///
/// All counters are maintained with per-shard atomics (each shard's
/// counters live on that shard's own cache line, so concurrent sessions
/// never contend on a shared counter), and a snapshot is cheap and safe
/// to take while other threads are querying through the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache, plane reads (in no shard) too.
    pub hits: u64,
    /// Lookups that fell through to scoring.
    pub misses: u64,
    /// Entries currently cached: the hash's, plus a snapshot's plane
    /// scores in [`EngineCore::cache_stats`](crate::EngineCore::cache_stats).
    pub entries: usize,
    /// Hash entries retired by epoch bumps (stale data generations purged).
    pub purges: u64,
    /// Current entry count of each of the [`CACHE_SHARDS`] lock shards —
    /// the spread shows how evenly parallel scoring distributes over the
    /// locks.
    pub shard_entries: [usize; CACHE_SHARDS],
    /// Per-shard hit counts.
    pub shard_hits: [u64; CACHE_SHARDS],
    /// Per-shard miss counts.
    pub shard_misses: [u64; CACHE_SHARDS],
    /// Per-shard purge counts (entries retired by epoch bumps).
    pub shard_purges: [u64; CACHE_SHARDS],
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

/// What one [`ScoreCache::lookup_batch`] call saw: the positionally
/// aligned scores plus this call's own hit/miss counts, so a traced query
/// can report *its* cache traffic rather than only moving the aggregate
/// [`CacheStats`] counters.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchLookup {
    /// Per-candidate result, aligned with the `candidates` argument.
    /// `Some(score)` is a hit (including `Some(None)`, a tuple proven
    /// degenerate); `None` means never scored under this
    /// `(mode, metric, epoch)`.
    pub scores: Vec<Option<Option<f64>>>,
    /// Candidates answered from the cache by this call.
    pub hits: u64,
    /// Candidates that fell through to scoring in this call.
    pub misses: u64,
}

/// A sharded, thread-safe memo of per-tuple insight scores.
///
/// Owned (behind an `Arc`) by the [`EngineCore`](crate::EngineCore) — and
/// shared by every snapshot the writer path republishes from it — and
/// consulted by the [`Executor`](crate::Executor); safe to share across
/// threads (interior mutability via per-shard [`RwLock`]s and atomic
/// counters).
pub struct ScoreCache {
    shards: Vec<Shard>,
    /// Memoized `describe()` strings. Only the handful of top-k winners per
    /// query ever land here (not the full candidate set), and they are
    /// written after ranking, outside the parallel scoring loop — a single
    /// unsharded map suffices.
    details: RwLock<FxMap<DetailKey, String>>,
    /// Latest minted data generation (see [`ScoreCache::bump_epoch`]).
    epoch: AtomicU64,
    /// Plane reads, counted as hits.
    plane_hits: PaddedCounter,
}

/// A counter on its own cache line, away from `epoch`.
#[repr(align(128))]
#[derive(Default)]
struct PaddedCounter(AtomicU64);

/// One lock shard with its own counters, padded to a cache line so that
/// sessions hammering different shards never false-share a counter — at
/// warm-cache throughput the hit counter is incremented hundreds of
/// thousands of times per second, and a single shared `AtomicU64` becomes
/// the scaling bottleneck before any lock does.
#[repr(align(128))]
#[derive(Default)]
struct Shard {
    spaces: RwLock<FxMap<Keyspace, Scores>>,
    hits: AtomicU64,
    misses: AtomicU64,
    purges: AtomicU64,
}

impl Shard {
    fn len(&self) -> usize {
        self.spaces.read().values().map(Scores::len).sum()
    }

    fn count(counter: &AtomicU64, n: u64) {
        if n > 0 {
            counter.fetch_add(n, Ordering::Relaxed);
        }
    }
}

impl Default for ScoreCache {
    fn default() -> Self {
        Self::new()
    }
}

impl ScoreCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self {
            shards: (0..SHARDS).map(|_| Shard::default()).collect(),
            details: RwLock::new(FxMap::default()),
            epoch: AtomicU64::new(0),
            plane_hits: PaddedCounter::default(),
        }
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
    /// Score entries from earlier generations become unreachable to the new
    /// snapshot immediately (the epoch is part of the key) and are purged to
    /// bound memory — their keyspaces are dropped whole, and readers still
    /// on an old snapshot simply recompute what they need into their own
    /// keyspace. The `details` map is retired with
    /// them: a description is keyed by `(class, tuple, score-bits)`, but a
    /// description can depend on data the score does not pin down (a
    /// degenerate score like `0.0` stays bit-identical while the value it
    /// would describe — say, the most frequent category — moves under it),
    /// so only a tuple *proven* untouched may keep its memo, and a plain
    /// bump proves nothing. Hit/miss counters are preserved; retired score
    /// entries are counted in [`CacheStats::purges`].
    pub fn bump_epoch(&self) -> u64 {
        self.bump_epoch_retaining(|_, _| false).0
    }

    /// Mints the next data generation like [`bump_epoch`], but *migrates*
    /// entries the caller can prove still valid instead of purging them —
    /// the column-granular alternative to the all-or-nothing bump used by
    /// incremental ingest.
    ///
    /// `keep` is consulted once per retiring `(class, tuple)` score key;
    /// returning `true` re-keys the entry under the new epoch (its value is
    /// provably unchanged — e.g. every column the tuple touches received no
    /// data), `false` retires it like a plain bump. Memoized descriptions
    /// are filtered by the same predicate: a clean tuple's description is a
    /// function of unchanged inputs and survives, a dirty tuple's is
    /// dropped even when its score bits would collide (degenerate scores
    /// stay bit-identical while the described data moves). Soundness is
    /// entirely the caller's obligation: migrating a score whose inputs
    /// moved would serve a stale answer from the new snapshot.
    ///
    /// One pass per shard: a tuple's shard does not depend on its epoch, so
    /// the survivors of a keyspace stay in their table and the table itself
    /// moves to the new epoch's key.
    ///
    /// Complete keyspaces are not here: their planes are the snapshot's to
    /// carry forward.
    ///
    /// Returns `(new_epoch, migrated_entries)`. Retired entries count
    /// toward [`CacheStats::purges`]; migrated ones do not.
    ///
    /// [`bump_epoch`]: ScoreCache::bump_epoch
    pub fn bump_epoch_retaining(
        &self,
        keep: impl Fn(&'static str, &AttrTuple) -> bool,
    ) -> (u64, u64) {
        let current = self.epoch.fetch_add(1, Ordering::Relaxed) + 1;
        let prev = current - 1;
        let mut migrated = 0u64;
        for shard in &self.shards {
            let mut purged = 0u64;
            let mut spaces = shard.spaces.write();
            let retiring: Vec<(Keyspace, Scores)> = spaces
                .extract_if(|space, _| space.epoch != current)
                .collect();
            for (space, mut scores) in retiring {
                let before = scores.len();
                if space.epoch == prev {
                    scores.retain(|key, _| keep(space.class_id, &key.tuple()));
                } else {
                    scores.clear();
                }
                purged += (before - scores.len()) as u64;
                if scores.is_empty() {
                    continue;
                }
                migrated += scores.len() as u64;
                match spaces.entry(Keyspace {
                    epoch: current,
                    ..space
                }) {
                    Entry::Vacant(slot) => {
                        slot.insert(scores);
                    }
                    // a migrated score replaces one already stored under
                    // the new epoch
                    Entry::Occupied(mut slot) => slot.get_mut().extend(scores),
                }
            }
            drop(spaces);
            Shard::count(&shard.purges, purged);
        }
        self.details
            .write()
            .retain(|(class_id, attrs, _), _| keep(class_id, attrs));
        (current, migrated)
    }

    /// Looks up every candidate of one query in a single pass: candidates
    /// are grouped by shard, so each touched shard is read-locked **once**,
    /// its keyspace resolved once, and its hit/miss counters updated
    /// **once**, rather than per candidate.
    ///
    /// This is the warm-query hot path under concurrent sessions. A query
    /// enumerates hundreds of candidate tuples; taking a lock and bumping an
    /// atomic for each one puts tens of millions of contended
    /// read-modify-writes per second on the shard cache lines, which
    /// serializes otherwise-independent sessions. Batching collapses that to
    /// at most [`CACHE_SHARDS`] lock acquisitions per query. The returned
    /// [`BatchLookup`] carries the scores — positionally aligned with
    /// `candidates`: `Some(score)` is a hit (`Some(None)` a tuple already
    /// proven degenerate), `None` a tuple never scored under this
    /// `(mode, metric, epoch)`, which the caller computes and stores — with
    /// this call's own hit/miss counts for per-query attribution (tracing,
    /// EXPLAIN). The epoch comes from the engine-core snapshot the caller
    /// reads through, not from the cache, so snapshots never cross-talk.
    pub fn lookup_batch(
        &self,
        class_id: &'static str,
        candidates: &[AttrTuple],
        mode: Mode,
        metric: Option<&'static str>,
        epoch: u64,
    ) -> BatchLookup {
        let space = Keyspace::new(class_id, mode, metric, epoch);
        self.batch(space, candidates, true)
    }

    /// [`lookup_batch`](ScoreCache::lookup_batch) in `space`, moving the
    /// hit/miss counters only when `count` says it is query traffic.
    pub(crate) fn batch(
        &self,
        space: Keyspace,
        candidates: &[AttrTuple],
        count: bool,
    ) -> BatchLookup {
        let mut scores = vec![None; candidates.len()];
        let mut total_hits = 0u64;
        for (s, group) in ByShard::new(candidates.iter()).groups() {
            let shard = &self.shards[s];
            let mut hits = 0u64;
            if let Some(stored) = shard.spaces.read().get(&space) {
                for &i in group {
                    let found = Packed::new(&candidates[i]).and_then(|key| stored.get(&key));
                    if let Some(&word) = found {
                        scores[i] = Some(decode(word));
                        hits += 1;
                    }
                }
            }
            if count {
                Shard::count(&shard.hits, hits);
                Shard::count(&shard.misses, group.len() as u64 - hits);
            }
            total_hits += hits;
        }
        BatchLookup {
            hits: total_hits,
            misses: candidates.len() as u64 - total_hits,
            scores,
        }
    }

    /// Stores one query's freshly computed scores, write-locking each
    /// touched shard once — the storing counterpart of
    /// [`lookup_batch`](ScoreCache::lookup_batch). Returns the number of
    /// entries written (for per-query attribution): all of them, but for a
    /// tuple past the packable columns.
    pub fn store_batch(
        &self,
        class_id: &'static str,
        entries: &[(AttrTuple, Option<f64>)],
        mode: Mode,
        metric: Option<&'static str>,
        epoch: u64,
    ) -> u64 {
        let space = Keyspace::new(class_id, mode, metric, epoch);
        let mut written = 0;
        for (s, group) in ByShard::new(entries.iter().map(|(attrs, _)| attrs)).groups() {
            let mut spaces = self.shards[s].spaces.write();
            let stored = spaces.entry(space).or_default();
            for &i in group {
                let (attrs, score) = entries[i];
                if let Some(key) = Packed::new(&attrs) {
                    stored.insert(key, encode(score));
                    written += 1;
                }
            }
        }
        written
    }

    /// Retires complete `space` from every shard: its scores moved to a
    /// [`Plane`] — they are not purged.
    pub(crate) fn complete(&self, space: Keyspace) {
        for shard in &self.shards {
            shard.spaces.write().remove(&space);
        }
    }

    /// Entries the hash holds in `space`.
    pub(crate) fn keyspace_len(&self, space: Keyspace) -> usize {
        let len = |shard: &Shard| shard.spaces.read().get(&space).map_or(0, Scores::len);
        self.shards.iter().map(len).sum()
    }

    /// Counts `n` lookups a plane answered: hits, in no shard.
    pub(crate) fn count_plane_hits(&self, n: u64) {
        Shard::count(&self.plane_hits.0, n);
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

    /// Drops every entry and resets the hit/miss counters —
    /// but not the snapshots' planes (see
    /// [`Foresight::clear_score_cache`](crate::Foresight::clear_score_cache)).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.spaces.write().clear();
            shard.hits.store(0, Ordering::Relaxed);
            shard.misses.store(0, Ordering::Relaxed);
            shard.purges.store(0, Ordering::Relaxed);
        }
        self.plane_hits.0.store(0, Ordering::Relaxed);
        self.details.write().clear();
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.shards.iter().map(Shard::len).sum()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate resident bytes: every keyspace's score table at its
    /// allocated capacity — a `(tuple, score)` bucket and a control byte a
    /// slot — plus the keyspace's own slot, plus the memoized description
    /// strings. An estimate for the monitor's resource gauges, not
    /// allocator truth.
    pub fn approx_bytes(&self) -> usize {
        let scores: usize = self
            .shards
            .iter()
            .map(|shard| {
                shard
                    .spaces
                    .read()
                    .values()
                    .map(|scores| scores.capacity() * SCORE_SLOT_BYTES + KEYSPACE_BYTES)
                    .sum::<usize>()
            })
            .sum();
        let details: usize = self
            .details
            .read()
            .iter()
            .map(|(k, v)| std::mem::size_of_val(k) + v.len() + 16)
            .sum();
        scores + details
    }

    /// A snapshot of the aggregate and per-shard counters and occupancy.
    pub fn stats(&self) -> CacheStats {
        let mut shard_entries = [0usize; CACHE_SHARDS];
        let mut shard_hits = [0u64; CACHE_SHARDS];
        let mut shard_misses = [0u64; CACHE_SHARDS];
        let mut shard_purges = [0u64; CACHE_SHARDS];
        for (i, shard) in self.shards.iter().enumerate() {
            shard_entries[i] = shard.len();
            shard_hits[i] = shard.hits.load(Ordering::Relaxed);
            shard_misses[i] = shard.misses.load(Ordering::Relaxed);
            shard_purges[i] = shard.purges.load(Ordering::Relaxed);
        }
        CacheStats {
            hits: shard_hits.iter().sum::<u64>() + self.plane_hits.0.load(Ordering::Relaxed),
            misses: shard_misses.iter().sum(),
            entries: shard_entries.iter().sum(),
            purges: shard_purges.iter().sum(),
            shard_entries,
            shard_hits,
            shard_misses,
            shard_purges,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit() {
        let cache = ScoreCache::new();
        let attrs = AttrTuple::Two(0, 1);
        assert_eq!(
            cache
                .lookup_batch("c", &[attrs], Mode::Exact, None, 0)
                .scores[0],
            None
        );
        cache.store_batch("c", &[(attrs, Some(0.75))], Mode::Exact, None, 0);
        assert_eq!(
            cache
                .lookup_batch("c", &[attrs], Mode::Exact, None, 0)
                .scores[0],
            Some(Some(0.75))
        );
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    /// Tuples and scores round-trip through their words bit for bit; a
    /// tuple past the packable columns is never stored.
    #[test]
    fn words_round_trip_and_wide_tuples_stay_uncached() {
        let edge = EMPTY as usize - 1;
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
            let bits = |s: Option<f64>| s.map(f64::to_bits);
            assert_eq!(bits(decode(encode(score))), bits(score));
        }
        // the one NaN that spells `None` is kept a NaN
        let spelled = Some(f64::from_bits(DEGENERATE));
        assert!(decode(encode(spelled)).is_some_and(f64::is_nan));
        let cache = ScoreCache::new();
        let wide = [
            (AttrTuple::Two(1, EMPTY as usize), Some(0.5)),
            (AttrTuple::One(1), None),
        ];
        assert_eq!(cache.store_batch("c", &wide, Mode::Exact, None, 0), 1);
        assert_eq!(
            cache
                .lookup_batch("c", &[wide[0].0], Mode::Exact, None, 0)
                .scores[0],
            None
        );
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn degenerate_none_is_a_hit() {
        let cache = ScoreCache::new();
        let attrs = AttrTuple::One(3);
        cache.store_batch("c", &[(attrs, None)], Mode::Exact, None, 0);
        assert_eq!(
            cache
                .lookup_batch("c", &[attrs], Mode::Exact, None, 0)
                .scores[0],
            Some(None)
        );
    }

    #[test]
    fn key_distinguishes_mode_and_metric() {
        let cache = ScoreCache::new();
        let attrs = AttrTuple::Two(1, 2);
        cache.store_batch("c", &[(attrs, Some(1.0))], Mode::Exact, None, 0);
        cache.store_batch("c", &[(attrs, Some(2.0))], Mode::Approximate, None, 0);
        cache.store_batch(
            "c",
            &[(attrs, Some(3.0))],
            Mode::Exact,
            Some("|spearman|"),
            0,
        );
        assert_eq!(
            cache
                .lookup_batch("c", &[attrs], Mode::Exact, None, 0)
                .scores[0],
            Some(Some(1.0))
        );
        assert_eq!(
            cache
                .lookup_batch("c", &[attrs], Mode::Approximate, None, 0)
                .scores[0],
            Some(Some(2.0))
        );
        assert_eq!(
            cache
                .lookup_batch("c", &[attrs], Mode::Exact, Some("|spearman|"), 0)
                .scores[0],
            Some(Some(3.0))
        );
        assert_eq!(
            cache
                .lookup_batch("d", &[attrs], Mode::Exact, None, 0)
                .scores[0],
            None
        );
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

    #[test]
    fn epoch_bump_retires_scores_and_details() {
        let cache = ScoreCache::new();
        let attrs = AttrTuple::Two(0, 1);
        cache.store_batch("c", &[(attrs, Some(0.5))], Mode::Approximate, None, 0);
        let mut calls = 0;
        cache.detail("c", &attrs, 0.5, || {
            calls += 1;
            "first description".into()
        });
        assert_eq!(
            cache
                .lookup_batch("c", &[attrs], Mode::Approximate, None, 0)
                .scores[0],
            Some(Some(0.5))
        );
        assert_eq!(cache.epoch(), 0);

        assert_eq!(cache.bump_epoch(), 1);
        assert_eq!(cache.epoch(), 1);
        // the pre-bump score is unreachable from the new epoch and purged
        assert_eq!(
            cache
                .lookup_batch("c", &[attrs], Mode::Approximate, None, 1)
                .scores[0],
            None
        );
        assert!(cache.is_empty());
        assert_eq!(cache.stats().purges, 1);
        // the describe memo is retired with it: the same score bits can
        // describe different data after an append (degenerate scores don't
        // move), so a plain bump must recompute
        let d = cache.detail("c", &attrs, 0.5, || {
            calls += 1;
            "rebuilt description".into()
        });
        assert_eq!(d, "rebuilt description");
        assert_eq!(calls, 2);
        // the new generation stores and serves fresh scores normally
        cache.store_batch("c", &[(attrs, Some(0.7))], Mode::Approximate, None, 1);
        assert_eq!(
            cache
                .lookup_batch("c", &[attrs], Mode::Approximate, None, 1)
                .scores[0],
            Some(Some(0.7))
        );
        // a straggler still reading the old snapshot writes into its own
        // keyspace and never pollutes the new generation
        cache.store_batch("c", &[(attrs, Some(0.4))], Mode::Approximate, None, 0);
        assert_eq!(
            cache
                .lookup_batch("c", &[attrs], Mode::Approximate, None, 1)
                .scores[0],
            Some(Some(0.7))
        );
        // counters survived the bump (2 hits: pre-bump + post-bump)
        assert!(cache.stats().hits >= 2);
    }

    #[test]
    fn retaining_bump_migrates_clean_tuples_and_purges_dirty_ones() {
        let cache = ScoreCache::new();
        // tuples over columns {0,1} are "clean", anything touching 2 is not
        for (attrs, score) in [
            (AttrTuple::Two(0, 1), 0.9),
            (AttrTuple::One(1), 0.4),
            (AttrTuple::Two(1, 2), 0.7),
            (AttrTuple::One(2), 0.2),
        ] {
            cache.store_batch("c", &[(attrs, Some(score))], Mode::Approximate, None, 0);
        }
        cache.detail("c", &AttrTuple::One(1), 0.4, || "clean detail".into());
        cache.detail("c", &AttrTuple::One(2), 0.2, || "dirty detail".into());
        let dirty = 2usize;
        let (epoch, migrated) =
            cache.bump_epoch_retaining(|_, attrs| !attrs.indices().contains(&dirty));
        assert_eq!(epoch, 1);
        assert_eq!(migrated, 2);
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
        // clean tuples answer from the new epoch without recomputation…
        assert_eq!(
            cache
                .lookup_batch("c", &[AttrTuple::Two(0, 1)], Mode::Approximate, None, 1)
                .scores[0],
            Some(Some(0.9))
        );
        assert_eq!(
            cache
                .lookup_batch("c", &[AttrTuple::One(1)], Mode::Approximate, None, 1)
                .scores[0],
            Some(Some(0.4))
        );
        // …dirty ones were retired (and counted as purges)
        assert_eq!(
            cache
                .lookup_batch("c", &[AttrTuple::Two(1, 2)], Mode::Approximate, None, 1)
                .scores[0],
            None
        );
        assert_eq!(
            cache
                .lookup_batch("c", &[AttrTuple::One(2)], Mode::Approximate, None, 1)
                .scores[0],
            None
        );
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().purges, 2);
        // the retired keyspace is gone entirely
        assert_eq!(
            cache
                .lookup_batch("c", &[AttrTuple::Two(0, 1)], Mode::Approximate, None, 0)
                .scores[0],
            None
        );
    }

    #[test]
    fn batch_lookup_reports_per_call_traffic() {
        let cache = ScoreCache::new();
        let candidates: Vec<AttrTuple> = (0..10).map(AttrTuple::One).collect();
        let cold = cache.lookup_batch("c", &candidates, Mode::Exact, None, 0);
        assert_eq!((cold.hits, cold.misses), (0, 10));
        assert!(cold.scores.iter().all(Option::is_none));

        let fresh: Vec<(AttrTuple, Option<f64>)> =
            candidates.iter().take(7).map(|&a| (a, Some(0.5))).collect();
        assert_eq!(
            cache.store_batch("c", &fresh, Mode::Exact, None, 0),
            7,
            "store_batch reports entries written"
        );

        let warm = cache.lookup_batch("c", &candidates, Mode::Exact, None, 0);
        assert_eq!((warm.hits, warm.misses), (7, 3));
        assert_eq!(warm.scores[0], Some(Some(0.5)));
        assert_eq!(warm.scores[9], None);
        // per-call counts line up with the aggregate counters' deltas
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (7, 13));
    }

    #[test]
    fn clear_resets_entries_and_counters() {
        let cache = ScoreCache::new();
        for i in 0..100 {
            cache.store_batch(
                "c",
                &[(AttrTuple::One(i), Some(i as f64))],
                Mode::Exact,
                None,
                0,
            );
        }
        assert_eq!(cache.len(), 100);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn approx_bytes_counts_table_capacity_and_a_bump_returns_it() {
        let cache = ScoreCache::new();
        assert_eq!(cache.approx_bytes(), 0);
        // the bucket the keyspace split and the packed words buy: a tuple
        // and its score in two words, where the flat key also carried
        // class, mode, metric and epoch (96 B) and the unpacked pair took 48
        let bucket = std::mem::size_of::<(Packed, u64)>();
        assert_eq!(bucket, 16);
        let n = 4096;
        let entries: Vec<(AttrTuple, Option<f64>)> = (0..n)
            .map(|i| (AttrTuple::Two(i, i + 1), Some(i as f64)))
            .collect();
        cache.store_batch("c", &entries, Mode::Exact, None, 0);
        let bytes = cache.approx_bytes() as f64;
        let filled = (n * bucket) as f64;
        assert!(bytes >= filled, "{bytes} < {filled}");
        let ceiling = 2.3 * filled + (SHARDS * KEYSPACE_BYTES) as f64;
        assert!(bytes <= ceiling, "{bytes} > {ceiling}");
        cache.bump_epoch();
        assert_eq!(cache.approx_bytes(), 0, "retired keyspaces hold nothing");
    }

    #[test]
    fn tuples_spread_evenly_over_the_shards() {
        let cache = ScoreCache::new();
        let pairs: Vec<(AttrTuple, Option<f64>)> = (0..64)
            .flat_map(|a| (a + 1..64).map(move |b| (AttrTuple::Two(a, b), Some(0.5))))
            .collect();
        cache.store_batch("c", &pairs, Mode::Exact, None, 0);
        let mean = pairs.len() / SHARDS;
        for (s, &n) in cache.stats().shard_entries.iter().enumerate() {
            assert!(
                n > mean / 2 && n < mean * 3 / 2,
                "shard {s} holds {n} of {} tuples",
                pairs.len()
            );
        }
    }

    /// The cache's contract stated as flat maps: one entry per
    /// `(class, mode, metric, epoch, tuple)` in the hash, with its own purge
    /// and migration accounting and per-shard counters, and one map per
    /// complete keyspace, which a snapshot's plane answers.
    mod model {
        use super::super::{shard_of, CacheStats, SHARDS};
        use crate::executor::Mode;
        use foresight_insight::AttrTuple;
        use std::collections::BTreeMap;

        pub type Space = (&'static str, u8, Option<&'static str>, u64);
        pub type Key = (&'static str, u8, Option<&'static str>, u64, AttrTuple);

        #[derive(Default)]
        pub struct Model {
            scores: BTreeMap<Key, Option<f64>>,
            /// Complete keyspaces, each as its plane holds it.
            pub planes: BTreeMap<Space, BTreeMap<AttrTuple, Option<f64>>>,
            pub epoch: u64,
            hits: [u64; SHARDS],
            misses: [u64; SHARDS],
            purges: [u64; SHARDS],
            plane_hits: u64,
        }

        pub fn key(
            class: &'static str,
            mode: Mode,
            metric: Option<&'static str>,
            epoch: u64,
            attrs: AttrTuple,
        ) -> Key {
            (class, mode as u8, metric, epoch, attrs)
        }

        pub fn space(key: &Key) -> Space {
            (key.0, key.1, key.2, key.3)
        }

        impl Model {
            pub fn store(&mut self, key: Key, score: Option<f64>) {
                self.scores.insert(key, score);
            }

            /// A lookup as the executor makes it: a complete keyspace's
            /// plane answers every tuple, a hit in no shard.
            pub fn lookup(&mut self, key: &Key) -> Option<Option<f64>> {
                if let Some(plane) = self.planes.get(&space(key)) {
                    self.plane_hits += 1;
                    return Some(plane[&key.4]);
                }
                let found = self.scores.get(key).copied();
                let counter = if found.is_some() {
                    &mut self.hits
                } else {
                    &mut self.misses
                };
                counter[shard_of(&key.4)] += 1;
                found
            }

            /// What an uncounted peek finds in the hash.
            pub fn peek(&self, key: &Key) -> Option<Option<f64>> {
                self.scores.get(key).copied()
            }

            /// Completes `space` with `plane`: the hash's entries for it
            /// move to the plane — no purge.
            pub fn complete(&mut self, space: Space, plane: BTreeMap<AttrTuple, Option<f64>>) {
                self.scores.retain(|k, _| self::space(k) != space);
                self.planes.insert(space, plane);
            }

            pub fn bump(&mut self) -> u64 {
                self.bump_retaining(|_, _| false).0
            }

            pub fn bump_retaining(
                &mut self,
                keep: impl Fn(&'static str, &AttrTuple) -> bool,
            ) -> (u64, u64) {
                self.epoch += 1;
                let (current, prev) = (self.epoch, self.epoch - 1);
                let mut migrated = Vec::new();
                for (k, v) in std::mem::take(&mut self.scores) {
                    if k.3 == current {
                        self.scores.insert(k, v);
                    } else if k.3 == prev && keep(k.0, &k.4) {
                        migrated.push(((k.0, k.1, k.2, current, k.4), v));
                    } else {
                        self.purges[shard_of(&k.4)] += 1;
                    }
                }
                let count = migrated.len() as u64;
                self.scores.extend(migrated);
                (current, count)
            }

            pub fn clear(&mut self) {
                self.scores.clear();
                self.planes.clear();
                self.hits = [0; SHARDS];
                self.misses = [0; SHARDS];
                self.purges = [0; SHARDS];
                self.plane_hits = 0;
            }

            /// The stats a snapshot at the current epoch reports: the hash
            /// plus its own planes' scores.
            pub fn stats(&self) -> CacheStats {
                let mut shard_entries = [0usize; SHARDS];
                for k in self.scores.keys() {
                    shard_entries[shard_of(&k.4)] += 1;
                }
                let planes: usize = self
                    .planes
                    .iter()
                    .filter(|(s, _)| s.3 == self.epoch)
                    .map(|(_, p)| p.len())
                    .sum();
                CacheStats {
                    hits: self.hits.iter().sum::<u64>() + self.plane_hits,
                    misses: self.misses.iter().sum(),
                    entries: self.scores.len() + planes,
                    purges: self.purges.iter().sum(),
                    shard_entries,
                    shard_hits: self.hits,
                    shard_misses: self.misses,
                    shard_purges: self.purges,
                }
            }
        }
    }

    const CLASSES: [&str; 2] = ["a", "b"];

    /// A keyspace's class, mode and metric from one small integer.
    fn keyspace(k: usize) -> (&'static str, Mode, Option<&'static str>) {
        let mode = [Mode::Exact, Mode::Approximate][k / 2 % 2];
        (CLASSES[k % 2], mode, [None, Some("m")][k / 4 % 2])
    }

    /// One of 41 tuples over six columns, so random ops collide often.
    fn tuple(u: usize) -> AttrTuple {
        let (a, b, c) = (u / 3 % 6, u / 18 % 6, u / 108 % 6);
        match u % 3 {
            0 => AttrTuple::One(a),
            1 if a != b => AttrTuple::Two(a.min(b), a.max(b)),
            2 if a != b && b != c && a != c => {
                let mut v = [a, b, c];
                v.sort_unstable();
                AttrTuple::Three(v[0], v[1], v[2])
            }
            _ => AttrTuple::One(a),
        }
    }

    /// Every tuple [`tuple`] draws, in order: the class scan a complete
    /// keyspace's plane covers, a tuple's position its index here.
    fn scan() -> Vec<AttrTuple> {
        let mut all: Vec<AttrTuple> = (0..648).map(tuple).collect();
        all.sort_unstable();
        all.dedup();
        all
    }

    fn tuples(seed: u64, n: usize) -> Vec<AttrTuple> {
        (0..n as u64)
            .map(|i| {
                tuple((seed.wrapping_mul(2_654_435_761).wrapping_add(i * 40_503) % 648) as usize)
            })
            .collect()
    }

    fn score(x: u64) -> Option<f64> {
        (!x.is_multiple_of(5)).then(|| (x % 1000) as f64 / 7.0)
    }

    /// The planes snapshots own, by keyspace — a retired epoch's stay
    /// readable, as an old snapshot's are.
    type Planes = std::collections::HashMap<model::Space, Plane>;

    /// Looks `candidates` up as the executor does: from the keyspace's
    /// plane when it is complete, counting plane hits, else the hash.
    fn read(
        cache: &ScoreCache,
        planes: &Planes,
        space: model::Space,
        mode: Mode,
        candidates: &[AttrTuple],
    ) -> BatchLookup {
        let Some(plane) = planes.get(&space) else {
            return cache.lookup_batch(space.0, candidates, mode, space.2, space.3);
        };
        let scan = scan();
        let scores = candidates
            .iter()
            .map(|a| Some(plane.get(scan.binary_search(a).expect("in the scan"))))
            .collect();
        cache.count_plane_hits(candidates.len() as u64);
        BatchLookup {
            scores,
            hits: candidates.len() as u64,
            misses: 0,
        }
    }

    /// Completes `space` as a freeze or a first whole-scan pass does: each
    /// score from `carried` (a previous plane's kept positions), else an
    /// uncounted peek at the hash, else scored fresh from `x`; then the
    /// plane is built and the hash retires the keyspace.
    fn complete(
        cache: &ScoreCache,
        planes: &mut Planes,
        m: &mut model::Model,
        space: model::Space,
        mode: Mode,
        carried: Option<Vec<Option<Option<f64>>>>,
        x: u64,
    ) {
        let scan = scan();
        let peeked = cache
            .batch(Keyspace::new(space.0, mode, space.2, space.3), &scan, false)
            .scores;
        let scores: Vec<Option<f64>> = (0..scan.len())
            .map(|p| {
                let from = carried.as_ref().map_or(peeked[p], |c| c[p]);
                from.unwrap_or_else(|| score(x.wrapping_add(7 * p as u64 + 3)))
            })
            .collect();
        for (p, attrs) in scan.iter().enumerate() {
            let key = model::key(space.0, mode, space.2, space.3, *attrs);
            if carried.is_none() {
                assert_eq!(peeked[p], m.peek(&key), "peek at position {p}");
            }
        }
        let plane = Plane::new(&scores);
        cache.complete(Keyspace::new(space.0, mode, space.2, space.3));
        planes.insert(space, plane);
        m.complete(space, scan.into_iter().zip(scores).collect());
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn matches_a_reference_model(
            ops in proptest::collection::vec((0u8..18, 0usize..8, 0usize..648, 0usize..6, 0u64..1_000_000), 1..120),
        ) {
            let cache = ScoreCache::new();
            let mut planes = Planes::new();
            let mut m = model::Model::default();
            for (step, &(kind, k, u, e, x)) in ops.iter().enumerate() {
                let (class, mode, metric) = keyspace(k);
                // the current epoch, or one or two behind it: a straggler
                // still reading a retired snapshot
                let epoch = m.epoch.saturating_sub(e as u64 % 3);
                let space = (class, mode as u8, metric, epoch);
                match kind {
                    0..=2 => {
                        let attrs = tuple(u);
                        cache.store_batch(class, &[(attrs, score(x))], mode, metric, epoch);
                        m.store(model::key(class, mode, metric, epoch, attrs), score(x));
                    }
                    3..=5 | 14 => {
                        let epoch = if kind == 14 { m.epoch.saturating_sub(1) } else { epoch };
                        let batch: Vec<(AttrTuple, Option<f64>)> = tuples(x, u % 12)
                            .into_iter()
                            .enumerate()
                            .map(|(i, attrs)| (attrs, score(x + i as u64)))
                            .collect();
                        let written = cache.store_batch(class, &batch, mode, metric, epoch);
                        prop_assert_eq!(written, batch.len() as u64);
                        for &(attrs, s) in &batch {
                            m.store(model::key(class, mode, metric, epoch, attrs), s);
                        }
                    }
                    6 | 7 => {
                        let attrs = tuple(u);
                        prop_assert_eq!(
                            read(&cache, &planes, space, mode, &[attrs]).scores[0],
                            m.lookup(&model::key(class, mode, metric, epoch, attrs)),
                            "lookup at step {}", step
                        );
                    }
                    8..=10 => {
                        let candidates = tuples(x, u % 24);
                        let got = read(&cache, &planes, space, mode, &candidates);
                        let want: Vec<Option<Option<f64>>> = candidates
                            .iter()
                            .map(|&attrs| m.lookup(&model::key(class, mode, metric, epoch, attrs)))
                            .collect();
                        let hits = want.iter().filter(|s| s.is_some()).count() as u64;
                        prop_assert_eq!(&got.scores, &want, "lookup_batch at step {}", step);
                        prop_assert_eq!((got.hits, got.misses), (hits, want.len() as u64 - hits));
                    }
                    11 => prop_assert_eq!(cache.bump_epoch(), m.bump()),
                    12 | 13 => {
                        // a column-granular republish: the hash migrates its
                        // clean partial entries, and each plane of the
                        // published epoch is copied forward with the
                        // positions touching the dirty column rescored
                        let dirty = u % 6;
                        let dropped = CLASSES.get(e % 3).copied();
                        let keep = |class: &'static str, attrs: &AttrTuple| {
                            Some(class) != dropped && !attrs.contains(dirty)
                        };
                        let scan = scan();
                        let carried: Vec<(model::Space, Vec<Option<Option<f64>>>)> = planes
                            .iter()
                            .filter(|(s, _)| s.3 == m.epoch)
                            .map(|(&s, plane)| {
                                let kept: Vec<Option<Option<f64>>> = scan
                                    .iter()
                                    .enumerate()
                                    .map(|(p, attrs)| keep(s.0, attrs).then(|| plane.get(p)))
                                    .collect();
                                (s, kept)
                            })
                            .filter(|(_, kept)| kept.iter().any(Option::is_some))
                            .collect();
                        prop_assert_eq!(
                            cache.bump_epoch_retaining(keep),
                            m.bump_retaining(keep),
                            "migration at step {}", step
                        );
                        for (s, kept) in carried {
                            let mode = [Mode::Exact, Mode::Approximate][s.1 as usize];
                            let next = (s.0, s.1, s.2, m.epoch);
                            complete(&cache, &mut planes, &mut m, next, mode, Some(kept), x);
                        }
                    }
                    16 | 17 => {
                        // a whole-scan pass completes the keyspace of the
                        // current epoch, unless a plane already holds it
                        let space = (class, mode as u8, metric, m.epoch);
                        if !planes.contains_key(&space) {
                            complete(&cache, &mut planes, &mut m, space, mode, None, x);
                        }
                    }
                    _ => {
                        cache.clear();
                        planes.clear();
                        m.clear();
                    }
                }
                prop_assert_eq!(cache.epoch(), m.epoch);
                let mut stats = cache.stats();
                stats.entries += planes
                    .iter()
                    .filter(|(s, _)| s.3 == m.epoch)
                    .map(|(_, p)| p.len())
                    .sum::<usize>();
                prop_assert_eq!(stats, m.stats(), "stats after step {}", step);
            }
        }
    }

    /// Two readers look one query's keyspace up in epoch 0 while a writer
    /// migrates it: a reader sees each tuple's own score or a miss, never a
    /// score from a neighbouring keyspace, and the new epoch ends up
    /// holding exactly the migrated set.
    #[test]
    fn readers_stay_in_their_keyspace_across_a_retaining_bump() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Barrier;

        let tuples: Vec<AttrTuple> = (0..40)
            .flat_map(|a| (a + 1..40).map(move |b| AttrTuple::Two(a, b)))
            .collect();
        // four keyspaces share every tuple; the readers query the first
        let spaces: [(&'static str, Mode, Option<&'static str>); 4] = [
            ("q", Mode::Exact, None),
            ("q", Mode::Exact, Some("alt")),
            ("q", Mode::Approximate, None),
            ("r", Mode::Exact, None),
        ];
        let value = |space: usize, i: usize| Some((space * 100_000 + i) as f64);
        let keep = |_: &'static str, attrs: &AttrTuple| !attrs.contains(7);
        for _round in 0..8 {
            let cache = ScoreCache::new();
            for (k, &(class, mode, metric)) in spaces.iter().enumerate() {
                let entries: Vec<(AttrTuple, Option<f64>)> = tuples
                    .iter()
                    .enumerate()
                    .map(|(i, &attrs)| (attrs, value(k, i)))
                    .collect();
                cache.store_batch(class, &entries, mode, metric, 0);
            }
            let start = Barrier::new(3);
            let done = AtomicBool::new(false);
            let migrated = std::thread::scope(|scope| {
                for _ in 0..2 {
                    scope.spawn(|| {
                        start.wait();
                        let mut rounds = 0;
                        while !done.load(Ordering::Acquire) || rounds < 4 {
                            for epoch in [0, 1] {
                                let looked =
                                    cache.lookup_batch("q", &tuples, Mode::Exact, None, epoch);
                                for (i, found) in looked.scores.iter().enumerate() {
                                    if let Some(found) = found {
                                        assert_eq!(*found, value(0, i), "epoch {epoch}, tuple {i}");
                                        assert!(epoch == 0 || keep("q", &tuples[i]));
                                    }
                                }
                            }
                            rounds += 1;
                        }
                    });
                }
                start.wait();
                std::thread::yield_now();
                let (epoch, migrated) = cache.bump_epoch_retaining(keep);
                assert_eq!(epoch, 1);
                done.store(true, Ordering::Release);
                migrated
            });
            let clean = tuples.iter().filter(|t| keep("q", t)).count();
            assert_eq!(migrated as usize, spaces.len() * clean);
            assert_eq!(cache.len(), spaces.len() * clean);
            for (k, &(class, mode, metric)) in spaces.iter().enumerate() {
                let now = cache.lookup_batch(class, &tuples, mode, metric, 1);
                for (i, found) in now.scores.iter().enumerate() {
                    let want = keep(class, &tuples[i]).then(|| value(k, i));
                    assert_eq!(*found, want, "space {k}, tuple {i}");
                }
                let old = cache.lookup_batch(class, &tuples, mode, metric, 0);
                assert_eq!(old.hits, 0, "epoch 0 is retired whole");
            }
        }
    }
}
