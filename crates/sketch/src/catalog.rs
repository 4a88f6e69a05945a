//! The per-table sketch catalog — the paper's preprocessing phase (§3).
//!
//! One build pass produces, for every numeric column: composable moments,
//! a hyperplane (correlation) sketch, a KLL quantile sketch, and a
//! reservoir sample; and for every categorical column: a SpaceSaving
//! heavy-hitter sketch, a stable-projection entropy sketch, and a
//! HyperLogLog distinct counter. Insight queries are then answered from the
//! catalog without touching the raw data.
//!
//! # Partition-native builds
//!
//! The catalog itself is [`Mergeable`]: disjoint row shards of one table can
//! be sketched independently ([`SketchCatalog::build_shard`], fanned out
//! with rayon by [`SketchCatalog::build_sharded`]) and merged field-by-field
//! into a catalog equivalent to a single-pass build. The whole-table
//! [`SketchCatalog::build`] is just the one-shard special case, so both
//! paths share one code path and one set of guarantees:
//!
//! * **moments** — bit-identical to the single-pass build for any shard
//!   split (canonical dyadic reduction, see [`MomentForest`]);
//! * **hyperplane correlation** — shards sketch at their global row offsets
//!   under one row-keyed random family, so merged accumulators cover exactly
//!   the rows a single pass would (estimates agree to float-summation
//!   rounding, ≪ the sketch's own `O(1/√k)` error);
//! * **KLL / entropy / HLL / SpaceSaving** — standard mergeable sketches
//!   with their documented error bounds; HLL merges are exactly
//!   order-invariant;
//! * **Spearman (rank hyperplane)** — ranks are computed *per shard* and
//!   normalized to `(0, 1)`; local ranks approximate global ranks for
//!   random row splits, so merged Spearman estimates carry an extra ε on
//!   top of the sketch error (adversarially sorted splits can distort them);
//! * **reservoir** — merging draws a uniform sample of the union
//!   (distributional, not bit-equal to a single-pass reservoir).
//!
//! Mergeability demands shared randomness and shared error parameters:
//! every shard must be built under one [`CatalogConfig`] whose
//! `hyperplane_k` was pinned against the *total* row count
//! ([`CatalogConfig::resolved_for_rows`]). Mismatched seeds or widths are
//! typed [`MergeError`]s, never silently wrong estimates.

use crate::dyadic::MomentForest;
use crate::entropy::EntropySketch;
use crate::freq::space_saving::SpaceSaving;
use crate::hll::HyperLogLog;
use crate::hyperplane::{
    HyperplaneAccumulator, HyperplaneConfig, HyperplaneSketch, SharedHyperplanes,
};
use crate::quantile::kll::KllSketch;
use crate::sample::Reservoir;
use crate::traits::{MergeError, Mergeable};
use foresight_data::Table;
use foresight_stats::moments::Moments;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// HLL registers for the categorical distinct counter: 2¹² registers ≈ 1.6%
/// relative error, 4 KiB per column.
const DISTINCT_PRECISION: u8 = 12;

/// Tuning knobs for catalog construction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CatalogConfig {
    /// Hyperplane bits per column; `None` applies the paper's
    /// `k = O(log²n)` rule via [`HyperplaneConfig::for_rows`].
    pub hyperplane_k: Option<usize>,
    /// KLL accuracy parameter.
    pub kll_k: usize,
    /// SpaceSaving counters per categorical column.
    pub freq_counters: usize,
    /// Entropy-sketch registers.
    pub entropy_k: usize,
    /// Reservoir sample size per numeric column.
    pub reservoir: usize,
    /// Seed for all shared randomness.
    pub seed: u64,
    /// Build columns through rayon (the paper's future-work parallelism;
    /// ablated in the benchmarks); the catalog is bit-identical either way.
    /// The vendored rayon stand-in runs any fan-out narrower than 32 items
    /// inline on the caller's thread, so a pass over fewer than 32 columns
    /// of a type (or fewer than 32 shards) is sequential today, and so is
    /// the hyperplane accumulation, which fans out one chunk per thread.
    pub parallel: bool,
}

impl Default for CatalogConfig {
    fn default() -> Self {
        Self {
            hyperplane_k: None,
            kll_k: 200,
            freq_counters: 64,
            entropy_k: 256,
            reservoir: 1_000,
            seed: 0xF0E5,
            parallel: false,
        }
    }
}

impl CatalogConfig {
    /// Pins `hyperplane_k` by applying the paper's sizing rule to
    /// `total_rows` (a no-op when already set). Per-shard builds of one
    /// logical table **must** share a config resolved against the *total*
    /// row count, otherwise shards would size their hyperplane families
    /// from their own row counts and refuse to merge.
    pub fn resolved_for_rows(&self, total_rows: usize) -> Self {
        let mut resolved = self.clone();
        if resolved.hyperplane_k.is_none() {
            resolved.hyperplane_k = Some(HyperplaneConfig::for_rows(total_rows, self.seed).k);
        }
        resolved
    }

    fn hyperplane_config(&self, rows: usize) -> HyperplaneConfig {
        match self.hyperplane_k {
            Some(k) => HyperplaneConfig {
                k,
                seed: self.seed,
                ..Default::default()
            },
            None => HyperplaneConfig::for_rows(rows, self.seed),
        }
    }

    /// Checks every field that governs sketch compatibility (`parallel` is
    /// execution strategy, not identity).
    fn check_compatible(&self, other: &Self) -> Result<(), MergeError> {
        if self.seed != other.seed {
            return Err(MergeError::SeedMismatch);
        }
        if self.kll_k != other.kll_k {
            return Err(MergeError::ParameterMismatch("kll_k"));
        }
        if self.freq_counters != other.freq_counters {
            return Err(MergeError::ParameterMismatch("freq_counters"));
        }
        if self.entropy_k != other.entropy_k {
            return Err(MergeError::ParameterMismatch("entropy_k"));
        }
        if self.reservoir != other.reservoir {
            return Err(MergeError::ParameterMismatch("reservoir"));
        }
        Ok(())
    }
}

/// Sketches of one numeric column.
///
/// The public fields are the *finalized* views every insight class reads;
/// the private partition state (moment forest, hyperplane accumulators) is
/// what makes two `NumericSketches` of disjoint shards mergeable, and the
/// finalized views are refreshed from it after every merge.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NumericSketches {
    /// Composable first-four-moments summary (dispersion, skew, kurtosis).
    pub moments: Moments,
    /// Random hyperplane sketch (pairwise correlation estimates).
    pub hyperplane: HyperplaneSketch,
    /// Hyperplane sketch of the rank-transformed column: since Spearman's ρ
    /// is Pearson on ranks, two of these combine into a Spearman estimate.
    pub rank_hyperplane: HyperplaneSketch,
    /// KLL quantile sketch (approximate quantiles, IQR, box plots).
    pub quantiles: KllSketch,
    /// Uniform reservoir sample (shape metrics with no dedicated sketch).
    pub reservoir: Reservoir,
    /// Partition-invariant moments state (finalizes into `moments`).
    moment_forest: MomentForest,
    /// Pre-quantization hyperplane state (finalizes into `hyperplane`).
    hyperplane_acc: HyperplaneAccumulator,
    /// Pre-quantization rank-hyperplane state.
    rank_hyperplane_acc: HyperplaneAccumulator,
}

impl NumericSketches {
    /// Re-derives the finalized views from the partition state.
    fn refresh(&mut self) {
        self.moments = self.moment_forest.finalize();
        self.hyperplane = self.hyperplane_acc.finalize();
        self.rank_hyperplane = self.rank_hyperplane_acc.finalize();
    }
}

/// Sketches of one categorical column.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CategoricalSketches {
    /// SpaceSaving heavy hitters (approximate `RelFreq(k)` and Pareto data).
    pub heavy_hitters: SpaceSaving,
    /// Stable-projection entropy sketch (concentration metric).
    pub entropy: EntropySketch,
    /// Present (non-missing) count.
    pub total: u64,
    /// Distinct-label count: exact for a single-shard build (dictionary
    /// encoding), HLL-estimated (±~1.6%) after merging shards whose label
    /// universes may overlap.
    pub cardinality: usize,
    /// HyperLogLog over labels, for cardinality across merges (per-shard
    /// dictionaries are not aligned, so exact counts don't add).
    pub distinct: HyperLogLog,
}

/// All sketches of one table, keyed by column index.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SketchCatalog {
    numeric: HashMap<usize, NumericSketches>,
    categorical: HashMap<usize, CategoricalSketches>,
    rows: usize,
    hyperplane_config: HyperplaneConfig,
    config: CatalogConfig,
}

impl SketchCatalog {
    /// Builds the catalog for a whole `table` — the one-shard special case
    /// of [`SketchCatalog::build_shard`].
    pub fn build(table: &Table, config: &CatalogConfig) -> Self {
        Self::build_shard(table, config, 0)
    }

    /// Builds the catalog for one shard whose rows start at global row
    /// `row_offset`.
    ///
    /// When sketching one shard of a larger table, pass a config resolved
    /// via [`CatalogConfig::resolved_for_rows`] on the **total** row count;
    /// an unresolved `hyperplane_k` falls back to this shard's own row
    /// count, which only suits whole-table builds.
    pub fn build_shard(table: &Table, config: &CatalogConfig, row_offset: u64) -> Self {
        let hyperplane_config = config.hyperplane_config(table.n_rows());
        let hp = SharedHyperplanes::new(hyperplane_config);

        let numeric_indices = table.numeric_indices();
        let numeric_cols: Vec<&[f64]> = numeric_indices
            .iter()
            .map(|&i| table.numeric(i).expect("index from schema").values())
            .collect();

        // Rank-transform each column (missing cells stay missing) and sketch
        // the ranks with the same shared hyperplanes → Spearman estimates.
        // Ranks are local to the shard, normalized to (0, 1) so shards of
        // different sizes speak one scale; see the module docs for the ε
        // this adds to merged Spearman estimates.
        let rank_transform = |col: &&[f64]| -> Vec<f64> {
            let present: Vec<f64> = col.iter().copied().filter(|v| !v.is_nan()).collect();
            let ranks = foresight_stats::rank::fractional_ranks(&present);
            let scale = 1.0 / (present.len() as f64 + 1.0);
            let mut out = Vec::with_capacity(col.len());
            let mut next = 0usize;
            for &v in col.iter() {
                if v.is_nan() {
                    out.push(f64::NAN);
                } else {
                    out.push(ranks[next] * scale);
                    next += 1;
                }
            }
            out
        };
        let ranked: Vec<Vec<f64>> = if config.parallel {
            numeric_cols.par_iter().map(rank_transform).collect()
        } else {
            numeric_cols.iter().map(rank_transform).collect()
        };

        // Hyperplane accumulators, value and rank columns in one stream of
        // the shared components. Shared row-keyed randomness means each
        // chunk of columns can re-stream the same component sequence
        // independently, so column-chunk parallelism is exact, not
        // approximate — and identical to the sequential build.
        let streamed: Vec<&[f64]> = numeric_cols
            .iter()
            .copied()
            .chain(ranked.iter().map(Vec::as_slice))
            .collect();
        let mut accs = if config.parallel && streamed.len() > 1 {
            streamed
                .par_chunks(8.max(streamed.len() / rayon::current_num_threads().max(1)))
                .flat_map(|chunk| hp.accumulate_columns(chunk, row_offset))
                .collect()
        } else {
            hp.accumulate_columns(&streamed, row_offset)
        };
        let rank_accs = accs.split_off(numeric_cols.len());

        type NumericJob<'a> = (
            usize,
            (
                (&'a &'a [f64], HyperplaneAccumulator),
                HyperplaneAccumulator,
            ),
        );
        let build_one = |(idx, ((col, acc), rank_acc)): NumericJob| -> (usize, NumericSketches) {
            let mut quantiles = KllSketch::new(config.kll_k);
            let mut reservoir = Reservoir::new(config.reservoir.max(1), config.seed ^ idx as u64);
            for &v in col.iter() {
                quantiles.insert(v);
                reservoir.insert(v);
            }
            let mut moment_forest = MomentForest::new();
            moment_forest.update_rows(col, row_offset);
            let mut sketches = NumericSketches {
                moments: Moments::new(),
                hyperplane: acc.finalize(),
                rank_hyperplane: rank_acc.finalize(),
                quantiles,
                reservoir,
                moment_forest,
                hyperplane_acc: acc,
                rank_hyperplane_acc: rank_acc,
            };
            sketches.moments = sketches.moment_forest.finalize();
            (idx, sketches)
        };

        let zipped: Vec<NumericJob> = numeric_indices
            .iter()
            .copied()
            .zip(numeric_cols.iter().zip(accs).zip(rank_accs))
            .collect();
        let numeric: HashMap<usize, NumericSketches> = if config.parallel {
            zipped.into_par_iter().map(build_one).collect()
        } else {
            zipped.into_iter().map(build_one).collect()
        };

        let cat_one = |&idx: &usize| -> (usize, CategoricalSketches) {
            let col = table.categorical(idx).expect("index from schema");
            // dictionary encoding gives exact per-label counts cheaply; the
            // sketches absorb them as weighted inserts (equivalent to
            // streaming every row, but O(cardinality·k) instead of O(n·k))
            let mut counts = vec![0u64; col.cardinality()];
            for code in col.present_codes() {
                counts[code as usize] += 1;
            }
            let mut heavy = SpaceSaving::new(config.freq_counters);
            let mut entropy = EntropySketch::new(config.entropy_k, config.seed);
            let mut distinct = HyperLogLog::new(DISTINCT_PRECISION, config.seed);
            for (code, &c) in counts.iter().enumerate() {
                if c > 0 {
                    let label = &col.labels()[code];
                    heavy.insert_weighted(label, c);
                    entropy.insert_weighted(label, c);
                    distinct.insert(label);
                }
            }
            let total = counts.iter().sum();
            (
                idx,
                CategoricalSketches {
                    heavy_hitters: heavy,
                    entropy,
                    total,
                    cardinality: col.cardinality(),
                    distinct,
                },
            )
        };

        let cat_indices = table.categorical_indices();
        let categorical: HashMap<usize, CategoricalSketches> = if config.parallel {
            cat_indices.par_iter().map(cat_one).collect()
        } else {
            cat_indices.iter().map(cat_one).collect()
        };

        // pin the resolved hyperplane width so `config()` can be handed to
        // later `build_shard` calls (an unresolved width would re-resolve
        // against the *new* shard's row count and fail to merge)
        let mut stored = config.clone();
        stored.hyperplane_k = Some(hyperplane_config.k);
        Self {
            numeric,
            categorical,
            rows: table.n_rows(),
            hyperplane_config,
            config: stored,
        }
    }

    /// Builds per-shard catalogs for disjoint row partitions of one table
    /// (in storage order) and merges them. Shard builds fan out with rayon
    /// when `config.parallel` is set; the merge itself folds sequentially so
    /// the result is deterministic.
    ///
    /// The config's `hyperplane_k` is resolved against the **total** row
    /// count, so every shard shares one hyperplane family regardless of its
    /// own size — the invariant that makes the shard catalogs mergeable.
    ///
    /// # Errors
    /// `ParameterMismatch("no shards")` for an empty slice; any per-field
    /// merge error from [`Mergeable::merge`] (only possible when the shards
    /// disagree on schema-derived column sets).
    pub fn build_sharded(shards: &[&Table], config: &CatalogConfig) -> Result<Self, MergeError> {
        if shards.is_empty() {
            return Err(MergeError::ParameterMismatch("no shards"));
        }
        let total: usize = shards.iter().map(|s| s.n_rows()).sum();
        let resolved = config.resolved_for_rows(total);
        let mut offset = 0u64;
        let jobs: Vec<(u64, &Table)> = shards
            .iter()
            .map(|&t| {
                let job = (offset, t);
                offset += t.n_rows() as u64;
                job
            })
            .collect();
        let catalogs: Vec<SketchCatalog> = if resolved.parallel {
            jobs.par_iter()
                .map(|&(off, t)| Self::build_shard(t, &resolved, off))
                .collect()
        } else {
            jobs.iter()
                .map(|&(off, t)| Self::build_shard(t, &resolved, off))
                .collect()
        };
        let mut iter = catalogs.into_iter();
        let mut merged = iter.next().expect("non-empty checked above");
        for shard_catalog in iter {
            merged.merge(&shard_catalog)?;
        }
        Ok(merged)
    }

    /// Rows of the sketched table.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The hyperplane configuration in effect.
    pub fn hyperplane_config(&self) -> HyperplaneConfig {
        self.hyperplane_config
    }

    /// The (resolved) build configuration — reuse it to sketch additional
    /// shards destined to merge into this catalog.
    pub fn config(&self) -> &CatalogConfig {
        &self.config
    }

    /// Sketches of the numeric column at `idx`.
    pub fn numeric(&self, idx: usize) -> Option<&NumericSketches> {
        self.numeric.get(&idx)
    }

    /// Sketches of the categorical column at `idx`.
    pub fn categorical(&self, idx: usize) -> Option<&CategoricalSketches> {
        self.categorical.get(&idx)
    }

    /// Indices of sketched numeric columns (unordered).
    pub fn numeric_indices(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.numeric.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Estimated Pearson correlation between two numeric columns, from the
    /// hyperplane sketches alone — `O(k)` bits of work, no data access.
    pub fn correlation(&self, i: usize, j: usize) -> Option<f64> {
        let a = self.numeric.get(&i)?;
        let b = self.numeric.get(&j)?;
        a.hyperplane.correlation(&b.hyperplane).ok()
    }

    /// Estimated Spearman rank correlation between two numeric columns,
    /// from the rank-transformed hyperplane sketches.
    pub fn spearman(&self, i: usize, j: usize) -> Option<f64> {
        let a = self.numeric.get(&i)?;
        let b = self.numeric.get(&j)?;
        a.rank_hyperplane.correlation(&b.rank_hyperplane).ok()
    }

    /// All pairwise Pearson estimates among the numeric columns `indices`,
    /// as a symmetric matrix with unit diagonal — the bulk form behind
    /// overview heatmaps and all-pairs carousels. Gathers each column's
    /// sketch once (no per-pair hash lookups) and tiles the pairwise
    /// Hamming/estimator pass so a block of bit vectors stays cache-hot
    /// while the partner column streams past. Returns `None` if any index
    /// has no numeric sketch; entries match [`SketchCatalog::correlation`]
    /// exactly.
    pub fn correlation_matrix(&self, indices: &[usize]) -> Option<Vec<Vec<f64>>> {
        let sketches: Option<Vec<&HyperplaneSketch>> = indices
            .iter()
            .map(|i| self.numeric.get(i).map(|s| &s.hyperplane))
            .collect();
        Some(pairwise_estimates(&sketches?))
    }

    /// All pairwise Spearman estimates among the numeric columns `indices`
    /// — the rank-sketch analogue of [`SketchCatalog::correlation_matrix`],
    /// entries matching [`SketchCatalog::spearman`] exactly.
    pub fn spearman_matrix(&self, indices: &[usize]) -> Option<Vec<Vec<f64>>> {
        let sketches: Option<Vec<&HyperplaneSketch>> = indices
            .iter()
            .map(|i| self.numeric.get(i).map(|s| &s.rank_hyperplane))
            .collect();
        Some(pairwise_estimates(&sketches?))
    }

    /// Serializes the catalog to JSON, so the preprocessing phase can run
    /// once and be reused across sessions.
    pub fn save(&self, writer: impl std::io::Write) -> serde_json::Result<()> {
        serde_json::to_writer(writer, self)
    }

    /// Restores a catalog serialized with [`SketchCatalog::save`].
    pub fn load(reader: impl std::io::Read) -> serde_json::Result<Self> {
        serde_json::from_reader(reader)
    }

    /// Total memory consumed by the hyperplane bit vectors, in bytes —
    /// the `|B|·k` bits the paper quotes.
    pub fn hyperplane_bytes(&self) -> usize {
        self.numeric
            .values()
            .map(|s| s.hyperplane.size_bytes())
            .sum()
    }

    /// Approximate resident bytes of the whole catalog: per-column sketch
    /// payloads plus their pre-quantization accumulators. A monitor
    /// resource gauge — dominant arrays only, not allocator truth.
    pub fn approx_bytes(&self) -> usize {
        let k = self.hyperplane_config.k;
        let numeric: usize = self
            .numeric
            .values()
            .map(|s| {
                // finalized bit vectors (plain + rank) …
                s.hyperplane.size_bytes()
                    + s.rank_hyperplane.size_bytes()
                    // … their accumulators keep two f64 lanes per plane
                    + 2 * (2 * k * std::mem::size_of::<f64>())
                    // KLL compactor items + reservoir sample
                    + s.quantiles.retained() * std::mem::size_of::<f64>()
                    + s.reservoir.capacity() * std::mem::size_of::<f64>()
                    // moments + forest nodes round out to a few hundred
                    + 256
            })
            .sum();
        let categorical: usize = self
            .categorical
            .values()
            .map(|s| {
                // SpaceSaving buckets (label + two counts), entropy
                // projection lanes, HLL registers
                s.heavy_hitters.capacity() * 48
                    + s.entropy.k() * std::mem::size_of::<f64>()
                    + s.distinct.m()
                    + 128
            })
            .sum();
        numeric + categorical
    }
}

/// Columns per tile of the pairwise estimator pass: a tile's bit vectors
/// (8 × k/8 bytes = 4 KiB at the common k = 4096 ceiling) stay resident
/// while every partner column streams past once per tile instead of once
/// per pair.
const PAIR_TILE: usize = 8;

/// The tiled all-pairs `cos(π·H/k)` pass over sketches that share one
/// hyperplane family (guaranteed when they come from one catalog).
fn pairwise_estimates(sketches: &[&HyperplaneSketch]) -> Vec<Vec<f64>> {
    let d = sketches.len();
    let mut m = vec![vec![0.0f64; d]; d];
    for (i, row) in m.iter_mut().enumerate() {
        row[i] = 1.0;
        debug_assert_eq!(sketches[i].k(), sketches[0].k());
    }
    let mut i0 = 0;
    while i0 < d {
        let i1 = (i0 + PAIR_TILE).min(d);
        for j in (i0 + 1)..d {
            for i in i0..i1.min(j) {
                let k = sketches[i].k();
                let h = sketches[i].bits().hamming(sketches[j].bits());
                let rho = (std::f64::consts::PI * h as f64 / k as f64).cos();
                m[i][j] = rho;
                m[j][i] = rho;
            }
        }
        i0 = i1;
    }
    m
}

impl Mergeable for SketchCatalog {
    /// Merges the catalog of a disjoint row shard into `self`, field by
    /// field, and refreshes every finalized view. On error `self` is left
    /// unchanged (the merge is staged on a copy).
    ///
    /// # Errors
    /// * [`MergeError::SizeMismatch`] — different hyperplane `k`
    /// * [`MergeError::SeedMismatch`] — different shared-randomness seeds
    /// * [`MergeError::ParameterMismatch`] — different error parameters
    ///   (`kll_k`, `freq_counters`, …), column sets, or overlapping row
    ///   ranges
    fn merge(&mut self, other: &Self) -> Result<(), MergeError> {
        let hp_a = self.hyperplane_config;
        let hp_b = other.hyperplane_config;
        if hp_a.k != hp_b.k {
            return Err(MergeError::SizeMismatch(hp_a.k, hp_b.k));
        }
        if hp_a.seed != hp_b.seed || hp_a.kind != hp_b.kind {
            return Err(MergeError::SeedMismatch);
        }
        self.config.check_compatible(&other.config)?;
        if self.numeric.len() != other.numeric.len()
            || self.numeric.keys().any(|k| !other.numeric.contains_key(k))
            || self.categorical.len() != other.categorical.len()
            || self
                .categorical
                .keys()
                .any(|k| !other.categorical.contains_key(k))
        {
            return Err(MergeError::ParameterMismatch("column sets differ"));
        }

        // stage on a copy so a mid-merge error can't leave self half-merged
        let mut numeric = self.numeric.clone();
        for (idx, sketches) in numeric.iter_mut() {
            let theirs = &other.numeric[idx];
            sketches.moment_forest.merge(&theirs.moment_forest)?;
            sketches.hyperplane_acc.merge(&theirs.hyperplane_acc)?;
            sketches
                .rank_hyperplane_acc
                .merge(&theirs.rank_hyperplane_acc)?;
            sketches.quantiles.merge(&theirs.quantiles)?;
            sketches.reservoir.merge(&theirs.reservoir)?;
            sketches.refresh();
        }
        let mut categorical = self.categorical.clone();
        for (idx, sketches) in categorical.iter_mut() {
            let theirs = &other.categorical[idx];
            sketches.heavy_hitters.merge(&theirs.heavy_hitters)?;
            sketches.entropy.merge(&theirs.entropy)?;
            sketches.distinct.merge(&theirs.distinct)?;
            sketches.total += theirs.total;
            // per-shard dictionaries aren't aligned: distinct labels of the
            // union come from the HLL, floored by each side's exact count
            sketches.cardinality = sketches
                .cardinality
                .max(theirs.cardinality)
                .max(sketches.distinct.estimate().round() as usize);
        }
        self.numeric = numeric;
        self.categorical = categorical;
        self.rows += other.rows;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::Sketch;
    use foresight_data::datasets::{synth, SynthConfig};
    use foresight_stats::correlation::pearson;

    fn table() -> (
        foresight_data::Table,
        foresight_data::datasets::SynthGroundTruth,
    ) {
        synth(&SynthConfig {
            rows: 4_000,
            numeric_cols: 12,
            categorical_cols: 3,
            correlated_fraction: 0.5,
            ..Default::default()
        })
    }

    /// Splits a table's rows at the given boundaries via `filter_rows`.
    fn split_rows(t: &foresight_data::Table, bounds: &[usize]) -> Vec<foresight_data::Table> {
        bounds
            .windows(2)
            .map(|w| t.filter_rows(|r| r >= w[0] && r < w[1]))
            .collect()
    }

    #[test]
    fn covers_every_column() {
        let (t, _) = table();
        let cat = SketchCatalog::build(&t, &CatalogConfig::default());
        for idx in t.numeric_indices() {
            assert!(cat.numeric(idx).is_some(), "numeric {idx} missing");
        }
        for idx in t.categorical_indices() {
            assert!(cat.categorical(idx).is_some(), "categorical {idx} missing");
        }
        assert_eq!(cat.rows(), 4_000);
    }

    #[test]
    fn sketch_correlations_track_exact() {
        let (t, truth) = table();
        let cat = SketchCatalog::build(
            &t,
            &CatalogConfig {
                hyperplane_k: Some(1024),
                ..Default::default()
            },
        );
        for &(i, j, _) in &truth.correlated_pairs {
            let est = cat.correlation(i, j).unwrap();
            let exact = pearson(
                t.numeric(i).unwrap().values(),
                t.numeric(j).unwrap().values(),
            );
            assert!(
                (est - exact).abs() < 0.12,
                "pair ({i},{j}): est {est}, exact {exact}"
            );
        }
    }

    #[test]
    fn parallel_equals_sequential() {
        let (t, _) = table();
        let seq = SketchCatalog::build(
            &t,
            &CatalogConfig {
                parallel: false,
                ..Default::default()
            },
        );
        let par = SketchCatalog::build(
            &t,
            &CatalogConfig {
                parallel: true,
                ..Default::default()
            },
        );
        for idx in seq.numeric_indices() {
            let a = seq.numeric(idx).unwrap();
            let b = par.numeric(idx).unwrap();
            assert_eq!(a.hyperplane, b.hyperplane, "column {idx} differs");
            assert_eq!(a.moments, b.moments);
            assert_eq!(a.quantiles, b.quantiles);
        }
    }

    #[test]
    fn sketch_spearman_tracks_exact() {
        let (t, truth) = table();
        let cat = SketchCatalog::build(
            &t,
            &CatalogConfig {
                hyperplane_k: Some(1024),
                ..Default::default()
            },
        );
        for &(i, j, _) in &truth.correlated_pairs {
            let est = cat.spearman(i, j).unwrap();
            let exact = foresight_stats::correlation::spearman(
                t.numeric(i).unwrap().values(),
                t.numeric(j).unwrap().values(),
            );
            assert!(
                (est - exact).abs() < 0.12,
                "pair ({i},{j}): est {est}, exact {exact}"
            );
        }
    }

    #[test]
    fn moments_match_exact() {
        // catalog moments come from the canonical dyadic reduction: same
        // count/min/max as a sequential pass, higher moments within float
        // tolerance (pairwise summation is at least as accurate)
        let (t, _) = table();
        let cat = SketchCatalog::build(&t, &CatalogConfig::default());
        let idx = t.numeric_indices()[0];
        let exact = Moments::from_slice(t.numeric(idx).unwrap().values());
        let got = cat.numeric(idx).unwrap().moments;
        assert_eq!(got.count(), exact.count());
        assert_eq!(got.min(), exact.min());
        assert_eq!(got.max(), exact.max());
        assert!((got.mean() - exact.mean()).abs() < 1e-10);
        assert!((got.skewness() - exact.skewness()).abs() < 1e-8);
        assert!((got.kurtosis() - exact.kurtosis()).abs() < 1e-8);
    }

    #[test]
    fn quantile_sketch_close_to_exact() {
        let (t, _) = table();
        let cat = SketchCatalog::build(&t, &CatalogConfig::default());
        let idx = t.numeric_indices()[0];
        let values = t.numeric(idx).unwrap().values();
        let exact = foresight_stats::quantile::quantile(values, 0.5).unwrap();
        let est = cat.numeric(idx).unwrap().quantiles.quantile(0.5).unwrap();
        let spread = foresight_stats::quantile::iqr(values).unwrap();
        assert!(
            (est - exact).abs() < 0.2 * spread,
            "est {est} exact {exact}"
        );
    }

    #[test]
    fn categorical_sketches_sane() {
        let (t, _) = table();
        let cat = SketchCatalog::build(&t, &CatalogConfig::default());
        let idx = t.categorical_indices()[0];
        let s = cat.categorical(idx).unwrap();
        assert_eq!(s.total, 4_000);
        assert!(s.cardinality > 1);
        let ent = s.entropy.estimate();
        assert!(ent > 0.0 && ent < (s.cardinality as f64).ln() + 0.5);
        assert!(!s.heavy_hitters.top().is_empty());
        let est = s.distinct.estimate();
        assert!(
            (est - s.cardinality as f64).abs() < 0.05 * s.cardinality as f64 + 3.0,
            "HLL {est} vs exact {}",
            s.cardinality
        );
    }

    #[test]
    fn catalog_persists_through_serde() {
        let (t, _) = table();
        let cat = SketchCatalog::build(&t, &CatalogConfig::default());
        let mut buf = Vec::new();
        cat.save(&mut buf).unwrap();
        let back = SketchCatalog::load(buf.as_slice()).unwrap();
        assert_eq!(back.rows(), cat.rows());
        assert_eq!(back.hyperplane_config(), cat.hyperplane_config());
        assert_eq!(back.config(), cat.config());
        for idx in cat.numeric_indices() {
            assert_eq!(
                back.correlation(idx, cat.numeric_indices()[0]),
                cat.correlation(idx, cat.numeric_indices()[0])
            );
            assert_eq!(
                back.numeric(idx).unwrap().moments,
                cat.numeric(idx).unwrap().moments
            );
            assert_eq!(
                back.numeric(idx).unwrap().quantiles.quantile(0.5),
                cat.numeric(idx).unwrap().quantiles.quantile(0.5)
            );
        }
        for idx in t.categorical_indices() {
            assert_eq!(
                back.categorical(idx).unwrap().heavy_hitters.top(),
                cat.categorical(idx).unwrap().heavy_hitters.top()
            );
        }
    }

    #[test]
    fn paper_sizing_rule_applied_by_default() {
        let (t, _) = table();
        let cat = SketchCatalog::build(&t, &CatalogConfig::default());
        assert_eq!(
            cat.hyperplane_config().k,
            HyperplaneConfig::for_rows(4_000, 0xF0E5).k
        );
        // |B| columns × k bits
        assert_eq!(
            cat.hyperplane_bytes(),
            t.numeric_indices().len() * cat.hyperplane_config().k / 8
        );
    }

    #[test]
    fn sharded_build_matches_single_pass() {
        let (t, _) = table();
        let config = CatalogConfig::default().resolved_for_rows(t.n_rows());
        let single = SketchCatalog::build(&t, &config);
        let shards = split_rows(&t, &[0, 1_000, 1_700, 4_000]);
        let refs: Vec<&foresight_data::Table> = shards.iter().collect();
        let merged = SketchCatalog::build_sharded(&refs, &config).unwrap();

        assert_eq!(merged.rows(), single.rows());
        assert_eq!(merged.hyperplane_config(), single.hyperplane_config());
        for idx in single.numeric_indices() {
            let s = single.numeric(idx).unwrap();
            let m = merged.numeric(idx).unwrap();
            // moments: bit-identical by the dyadic-forest construction
            assert_eq!(m.moments, s.moments, "moments differ on column {idx}");
            // correlations agree to summation rounding, far inside sketch error
            for jdx in single.numeric_indices() {
                if jdx <= idx {
                    continue;
                }
                let a = merged.correlation(idx, jdx).unwrap();
                let b = single.correlation(idx, jdx).unwrap();
                assert!(
                    (a - b).abs() < 0.05,
                    "ρ({idx},{jdx}): merged {a} single {b}"
                );
            }
            // KLL medians within the sketch's own rank error of each other
            let qa = m.quantiles.quantile(0.5).unwrap();
            let qb = s.quantiles.quantile(0.5).unwrap();
            let spread = s.moments.max() - s.moments.min();
            assert!((qa - qb).abs() < 0.1 * spread, "median {qa} vs {qb}");
            assert_eq!(m.reservoir.count(), s.reservoir.count());
        }
        for idx in t.categorical_indices() {
            let s = single.categorical(idx).unwrap();
            let m = merged.categorical(idx).unwrap();
            assert_eq!(m.total, s.total);
            // HLL register-max is exactly order-invariant
            assert_eq!(m.distinct.estimate(), s.distinct.estimate());
            assert!((m.entropy.estimate() - s.entropy.estimate()).abs() < 0.15);
        }
    }

    #[test]
    fn matrix_apis_match_per_pair_exactly() {
        let (t, _) = table();
        let cat = SketchCatalog::build(
            &t,
            &CatalogConfig {
                hyperplane_k: Some(256),
                ..Default::default()
            },
        );
        let indices = cat.numeric_indices();
        let pm = cat.correlation_matrix(&indices).unwrap();
        let sm = cat.spearman_matrix(&indices).unwrap();
        for (a, &i) in indices.iter().enumerate() {
            assert_eq!(pm[a][a], 1.0);
            for (b, &j) in indices.iter().enumerate() {
                if a == b {
                    continue;
                }
                assert_eq!(pm[a][b].to_bits(), cat.correlation(i, j).unwrap().to_bits());
                assert_eq!(sm[a][b].to_bits(), cat.spearman(i, j).unwrap().to_bits());
            }
        }
        assert!(cat.correlation_matrix(&[0, 99_999]).is_none());
    }

    #[test]
    fn seed_mismatch_is_a_typed_error() {
        let (t, _) = table();
        let shards = split_rows(&t, &[0, 2_000, 4_000]);
        let base = CatalogConfig {
            hyperplane_k: Some(256),
            ..Default::default()
        };
        let a = SketchCatalog::build_shard(&shards[0], &base, 0);
        let reseeded = CatalogConfig {
            seed: base.seed ^ 1,
            ..base.clone()
        };
        let b = SketchCatalog::build_shard(&shards[1], &reseeded, 2_000);
        let mut merged = a.clone();
        assert_eq!(merged.merge(&b), Err(MergeError::SeedMismatch));
        // staged merge: the failed attempt left no partial state behind
        assert_eq!(merged.rows(), a.rows());
        assert_eq!(
            merged.numeric(0).map(|s| s.moments),
            a.numeric(0).map(|s| s.moments)
        );
    }

    #[test]
    fn hyperplane_width_mismatch_is_a_typed_error() {
        let (t, _) = table();
        let shards = split_rows(&t, &[0, 2_000, 4_000]);
        let a = SketchCatalog::build_shard(
            &shards[0],
            &CatalogConfig {
                hyperplane_k: Some(256),
                ..Default::default()
            },
            0,
        );
        let b = SketchCatalog::build_shard(
            &shards[1],
            &CatalogConfig {
                hyperplane_k: Some(512),
                ..Default::default()
            },
            2_000,
        );
        let mut merged = a;
        assert_eq!(merged.merge(&b), Err(MergeError::SizeMismatch(256, 512)));
    }

    #[test]
    fn error_parameter_mismatch_is_typed() {
        let (t, _) = table();
        let shards = split_rows(&t, &[0, 2_000, 4_000]);
        let base = CatalogConfig {
            hyperplane_k: Some(256),
            ..Default::default()
        };
        let a = SketchCatalog::build_shard(&shards[0], &base, 0);
        let b =
            SketchCatalog::build_shard(&shards[1], &CatalogConfig { kll_k: 100, ..base }, 2_000);
        let mut merged = a;
        assert_eq!(
            merged.merge(&b),
            Err(MergeError::ParameterMismatch("kll_k"))
        );
    }

    #[test]
    fn append_style_incremental_merge() {
        // simulate streaming ingest: catalog grows one shard at a time and
        // the result still equals the all-at-once sharded build
        let (t, _) = table();
        let config = CatalogConfig::default().resolved_for_rows(t.n_rows());
        let shards = split_rows(&t, &[0, 1_500, 2_500, 4_000]);
        let refs: Vec<&foresight_data::Table> = shards.iter().collect();
        let all_at_once = SketchCatalog::build_sharded(&refs, &config).unwrap();

        let mut incremental = SketchCatalog::build_shard(&shards[0], &config, 0);
        let mut offset = shards[0].n_rows() as u64;
        for shard in &shards[1..] {
            let next = SketchCatalog::build_shard(shard, incremental.config(), offset);
            incremental.merge(&next).unwrap();
            offset += shard.n_rows() as u64;
        }
        assert_eq!(incremental.rows(), all_at_once.rows());
        for idx in all_at_once.numeric_indices() {
            assert_eq!(
                incremental.numeric(idx).unwrap().moments,
                all_at_once.numeric(idx).unwrap().moments
            );
            assert_eq!(
                incremental.numeric(idx).unwrap().hyperplane,
                all_at_once.numeric(idx).unwrap().hyperplane
            );
        }
    }
}
