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
//! parallel candidate scoring mostly touches distinct locks. Degenerate
//! results (`None` — constant columns, too few rows) are cached too;
//! re-proving a column degenerate costs as much as scoring it.
//!
//! One cache outlives many [`EngineCore`](crate::EngineCore) snapshots:
//! every score key carries the *data-generation epoch* of the snapshot that
//! computed it, and the writer path mints a fresh epoch (via
//! [`ScoreCache::bump_epoch`]) whenever it republishes a core whose scores
//! could differ. Readers still holding an older snapshot keep looking up —
//! and storing — under their own epoch, so they can never serve a stale
//! score to (or poison the keyspace of) a newer snapshot.

use crate::executor::Mode;
use foresight_insight::AttrTuple;
use parking_lot::RwLock;
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

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CacheKey {
    class_id: &'static str,
    attrs: AttrTuple,
    mode: Mode,
    /// `None` = the class's primary metric. A name the class itself
    /// declares (`metric()` / `alternative_metrics()`), which the executor
    /// resolves once per query — so a key is plain data: building, hashing
    /// and comparing one never allocates.
    metric: Option<&'static str>,
    /// Data-generation counter: every [`ScoreCache::bump_epoch`] (one per
    /// republished core snapshot whose scores could differ) moves lookups to
    /// a fresh keyspace, so scores computed against a previous generation of
    /// the data are unreachable without the cache having to be fully
    /// cleared. The epoch is supplied by the caller (it is part of the
    /// engine-core snapshot), so readers of an old snapshot stay in their
    /// own keyspace even while a newer snapshot is being served.
    epoch: u64,
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
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to scoring.
    pub misses: u64,
    /// Entries currently cached.
    pub entries: usize,
    /// Entries retired by epoch bumps (stale data generations purged).
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
}

/// One lock shard with its own counters, padded to a cache line so that
/// sessions hammering different shards never false-share a counter — at
/// warm-cache throughput the hit counter is incremented hundreds of
/// thousands of times per second, and a single shared `AtomicU64` becomes
/// the scaling bottleneck before any lock does.
#[repr(align(128))]
#[derive(Default)]
struct Shard {
    map: RwLock<FxMap<CacheKey, Option<f64>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    purges: AtomicU64,
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
    /// bound memory — readers still on an old snapshot simply recompute what
    /// they need into their own keyspace. The `details` map is retired with
    /// them: a description is keyed by `(class, tuple, score-bits)`, but a
    /// description can depend on data the score does not pin down (a
    /// degenerate score like `0.0` stays bit-identical while the value it
    /// would describe — say, the most frequent category — moves under it),
    /// so only a tuple *proven* untouched may keep its memo, and a plain
    /// bump proves nothing. Hit/miss counters are preserved; retired score
    /// entries are counted in [`CacheStats::purges`].
    pub fn bump_epoch(&self) -> u64 {
        let current = self.epoch.fetch_add(1, Ordering::Relaxed) + 1;
        for shard in &self.shards {
            let mut map = shard.map.write();
            let before = map.len();
            map.retain(|k, _| k.epoch == current);
            shard
                .purges
                .fetch_add((before - map.len()) as u64, Ordering::Relaxed);
        }
        self.details.write().clear();
        current
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
        // Phase 1: drain each shard under its own lock, setting aside the
        // entries that survive. Re-keying changes the hash, so a survivor
        // may belong to a *different* shard afterwards — inserts happen in
        // a second phase, still one lock at a time (no lock is ever nested).
        let mut migrated: Vec<(CacheKey, Option<f64>)> = Vec::new();
        for shard in &self.shards {
            let mut kept_here = 0u64;
            let mut map = shard.map.write();
            let before = map.len();
            map.retain(|k, v| {
                if k.epoch == current {
                    return true;
                }
                if k.epoch == prev && keep(k.class_id, &k.attrs) {
                    migrated.push((
                        CacheKey {
                            epoch: current,
                            ..*k
                        },
                        *v,
                    ));
                    kept_here += 1;
                }
                false
            });
            let dropped = (before - map.len()) as u64 - kept_here;
            if dropped > 0 {
                shard.purges.fetch_add(dropped, Ordering::Relaxed);
            }
        }
        let count = migrated.len() as u64;
        let mut by_shard: [Vec<(CacheKey, Option<f64>)>; SHARDS] =
            std::array::from_fn(|_| Vec::new());
        for entry in migrated {
            by_shard[Self::shard_index(&entry.0)].push(entry);
        }
        for (shard, entries) in self.shards.iter().zip(by_shard) {
            if entries.is_empty() {
                continue;
            }
            let mut map = shard.map.write();
            for (key, value) in entries {
                map.insert(key, value);
            }
        }
        self.details
            .write()
            .retain(|(class_id, attrs, _), _| keep(class_id, attrs));
        (current, count)
    }

    fn shard_index(key: &CacheKey) -> usize {
        let mut h = FxHasher::default();
        key.hash(&mut h);
        // multiply-based hashes concentrate entropy in the high bits
        (h.finish() >> 60) as usize % SHARDS
    }

    fn shard(&self, key: &CacheKey) -> &Shard {
        &self.shards[Self::shard_index(key)]
    }

    /// Looks up a previously stored score in the `epoch` keyspace.
    ///
    /// `Some(score)` is a hit — including `Some(None)`, a tuple already
    /// proven degenerate. `None` means the tuple was never scored under this
    /// `(mode, metric, epoch)` and the caller must compute (and [`store`])
    /// it. The epoch comes from the engine-core snapshot the caller is
    /// reading through, not from the cache, so snapshots never cross-talk.
    ///
    /// [`store`]: ScoreCache::store
    pub fn lookup(
        &self,
        class_id: &'static str,
        attrs: &AttrTuple,
        mode: Mode,
        metric: Option<&'static str>,
        epoch: u64,
    ) -> Option<Option<f64>> {
        let key = CacheKey {
            class_id,
            attrs: *attrs,
            mode,
            metric,
            epoch,
        };
        let shard = self.shard(&key);
        let found = shard.map.read().get(&key).copied();
        match found {
            Some(v) => {
                shard.hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            None => {
                shard.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores a computed score (or a degenerate `None`) in the `epoch`
    /// keyspace.
    pub fn store(
        &self,
        class_id: &'static str,
        attrs: &AttrTuple,
        mode: Mode,
        metric: Option<&'static str>,
        score: Option<f64>,
        epoch: u64,
    ) {
        let key = CacheKey {
            class_id,
            attrs: *attrs,
            mode,
            metric,
            epoch,
        };
        let shard = self.shard(&key);
        shard.map.write().insert(key, score);
    }

    /// Looks up every candidate of one query in a single pass: keys are
    /// grouped by shard, so each touched shard is read-locked **once** and
    /// its hit/miss counters updated **once**, rather than per candidate.
    ///
    /// This is the warm-query hot path under concurrent sessions. A query
    /// enumerates hundreds of candidate tuples; taking a lock and bumping an
    /// atomic for each one puts tens of millions of contended
    /// read-modify-writes per second on the shard cache lines, which
    /// serializes otherwise-independent sessions. Batching collapses that to
    /// at most [`CACHE_SHARDS`] lock acquisitions per query. The returned
    /// [`BatchLookup`] carries the scores — positionally aligned with
    /// `candidates`, `None` meaning "never scored under this
    /// `(mode, metric, epoch)`" exactly as in [`lookup`](ScoreCache::lookup)
    /// — together with this call's own hit/miss counts for per-query
    /// attribution (tracing, EXPLAIN).
    pub fn lookup_batch(
        &self,
        class_id: &'static str,
        candidates: &[AttrTuple],
        mode: Mode,
        metric: Option<&'static str>,
        epoch: u64,
    ) -> BatchLookup {
        let keys: Vec<CacheKey> = candidates
            .iter()
            .map(|attrs| CacheKey {
                class_id,
                attrs: *attrs,
                mode,
                metric,
                epoch,
            })
            .collect();
        let mut by_shard: [Vec<usize>; SHARDS] = std::array::from_fn(|_| Vec::new());
        for (i, key) in keys.iter().enumerate() {
            by_shard[Self::shard_index(key)].push(i);
        }
        let mut out = vec![None; candidates.len()];
        let mut total_hits = 0u64;
        for (shard, indices) in self.shards.iter().zip(&by_shard) {
            if indices.is_empty() {
                continue;
            }
            let mut hits = 0u64;
            {
                let map = shard.map.read();
                for &i in indices {
                    if let Some(found) = map.get(&keys[i]) {
                        out[i] = Some(*found);
                        hits += 1;
                    }
                }
            }
            let misses = indices.len() as u64 - hits;
            if hits > 0 {
                shard.hits.fetch_add(hits, Ordering::Relaxed);
            }
            if misses > 0 {
                shard.misses.fetch_add(misses, Ordering::Relaxed);
            }
            total_hits += hits;
        }
        BatchLookup {
            hits: total_hits,
            misses: candidates.len() as u64 - total_hits,
            scores: out,
        }
    }

    /// Stores one query's freshly computed scores, write-locking each
    /// touched shard once — the storing counterpart of
    /// [`lookup_batch`](ScoreCache::lookup_batch). Returns the number of
    /// entries written (for per-query attribution).
    pub fn store_batch(
        &self,
        class_id: &'static str,
        entries: &[(AttrTuple, Option<f64>)],
        mode: Mode,
        metric: Option<&'static str>,
        epoch: u64,
    ) -> u64 {
        let keys: Vec<CacheKey> = entries
            .iter()
            .map(|(attrs, _)| CacheKey {
                class_id,
                attrs: *attrs,
                mode,
                metric,
                epoch,
            })
            .collect();
        let mut by_shard: [Vec<usize>; SHARDS] = std::array::from_fn(|_| Vec::new());
        for (i, key) in keys.iter().enumerate() {
            by_shard[Self::shard_index(key)].push(i);
        }
        for (shard, indices) in self.shards.iter().zip(&by_shard) {
            if indices.is_empty() {
                continue;
            }
            let mut map = shard.map.write();
            for &i in indices {
                map.insert(keys[i], entries[i].1);
            }
        }
        entries.len() as u64
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

    /// Drops every entry and resets the hit/miss counters. Called whenever
    /// scores could change: a class is (re-)registered, the sketch catalog
    /// is rebuilt, or persisted state is loaded.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.map.write().clear();
            shard.hits.store(0, Ordering::Relaxed);
            shard.misses.store(0, Ordering::Relaxed);
            shard.purges.store(0, Ordering::Relaxed);
        }
        self.details.write().clear();
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.map.read().len()).sum()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate resident bytes: score entries at their key + value +
    /// hash-table-slot footprint, plus the memoized description strings.
    /// An estimate for the monitor's resource gauges, not allocator truth.
    pub fn approx_bytes(&self) -> usize {
        let per_entry = std::mem::size_of::<CacheKey>()
            + std::mem::size_of::<Option<f64>>()
            + 16 // hash-table slot overhead (control byte + slack)
            + 24; // AttrTuple spill: typical small-vec heap share
        let scores = self.len() * per_entry;
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
            shard_entries[i] = shard.map.read().len();
            shard_hits[i] = shard.hits.load(Ordering::Relaxed);
            shard_misses[i] = shard.misses.load(Ordering::Relaxed);
            shard_purges[i] = shard.purges.load(Ordering::Relaxed);
        }
        CacheStats {
            hits: shard_hits.iter().sum(),
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
        assert_eq!(cache.lookup("c", &attrs, Mode::Exact, None, 0), None);
        cache.store("c", &attrs, Mode::Exact, None, Some(0.75), 0);
        assert_eq!(
            cache.lookup("c", &attrs, Mode::Exact, None, 0),
            Some(Some(0.75))
        );
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn degenerate_none_is_a_hit() {
        let cache = ScoreCache::new();
        let attrs = AttrTuple::One(3);
        cache.store("c", &attrs, Mode::Exact, None, None, 0);
        assert_eq!(cache.lookup("c", &attrs, Mode::Exact, None, 0), Some(None));
    }

    #[test]
    fn key_distinguishes_mode_and_metric() {
        let cache = ScoreCache::new();
        let attrs = AttrTuple::Two(1, 2);
        cache.store("c", &attrs, Mode::Exact, None, Some(1.0), 0);
        cache.store("c", &attrs, Mode::Approximate, None, Some(2.0), 0);
        cache.store("c", &attrs, Mode::Exact, Some("|spearman|"), Some(3.0), 0);
        assert_eq!(
            cache.lookup("c", &attrs, Mode::Exact, None, 0),
            Some(Some(1.0))
        );
        assert_eq!(
            cache.lookup("c", &attrs, Mode::Approximate, None, 0),
            Some(Some(2.0))
        );
        assert_eq!(
            cache.lookup("c", &attrs, Mode::Exact, Some("|spearman|"), 0),
            Some(Some(3.0))
        );
        assert_eq!(cache.lookup("d", &attrs, Mode::Exact, None, 0), None);
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
        cache.store("c", &attrs, Mode::Approximate, None, Some(0.5), 0);
        let mut calls = 0;
        cache.detail("c", &attrs, 0.5, || {
            calls += 1;
            "first description".into()
        });
        assert_eq!(
            cache.lookup("c", &attrs, Mode::Approximate, None, 0),
            Some(Some(0.5))
        );
        assert_eq!(cache.epoch(), 0);

        assert_eq!(cache.bump_epoch(), 1);
        assert_eq!(cache.epoch(), 1);
        // the pre-bump score is unreachable from the new epoch and purged
        assert_eq!(cache.lookup("c", &attrs, Mode::Approximate, None, 1), None);
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
        cache.store("c", &attrs, Mode::Approximate, None, Some(0.7), 1);
        assert_eq!(
            cache.lookup("c", &attrs, Mode::Approximate, None, 1),
            Some(Some(0.7))
        );
        // a straggler still reading the old snapshot writes into its own
        // keyspace and never pollutes the new generation
        cache.store("c", &attrs, Mode::Approximate, None, Some(0.4), 0);
        assert_eq!(
            cache.lookup("c", &attrs, Mode::Approximate, None, 1),
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
            cache.store("c", &attrs, Mode::Approximate, None, Some(score), 0);
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
            cache.lookup("c", &AttrTuple::Two(0, 1), Mode::Approximate, None, 1),
            Some(Some(0.9))
        );
        assert_eq!(
            cache.lookup("c", &AttrTuple::One(1), Mode::Approximate, None, 1),
            Some(Some(0.4))
        );
        // …dirty ones were retired (and counted as purges)
        assert_eq!(
            cache.lookup("c", &AttrTuple::Two(1, 2), Mode::Approximate, None, 1),
            None
        );
        assert_eq!(
            cache.lookup("c", &AttrTuple::One(2), Mode::Approximate, None, 1),
            None
        );
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().purges, 2);
        // the retired keyspace is gone entirely
        assert_eq!(
            cache.lookup("c", &AttrTuple::Two(0, 1), Mode::Approximate, None, 0),
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
            cache.store(
                "c",
                &AttrTuple::One(i),
                Mode::Exact,
                None,
                Some(i as f64),
                0,
            );
        }
        assert_eq!(cache.len(), 100);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().hits, 0);
    }
}
