//! The random hyperplane (SimHash) sketch — the paper's worked example (§3).
//!
//! For shared random Gaussian vectors `r₁…r_k` (k ≪ n), each numeric column
//! `b` is summarized by the bit vector `φ(b) = (sign(b̃·r₁), …, sign(b̃·r_k))`
//! where `b̃` is the mean-centered column. By Charikar's rounding argument,
//! `cos(π·H(φ(x),φ(y))/k)` is an estimator of the Pearson correlation
//! `ρ(x,y)` — so **pairwise correlations between all columns are computed
//! from the bit vectors alone**, in `O(|B|²k)` instead of `O(|B|²n)`.
//!
//! Construction is a single pass per table: the centered dot products are
//! accumulated via `Σⱼ(xⱼ−μ)·gᵢⱼ = Σⱼxⱼ·gᵢⱼ − μ·Σⱼgᵢⱼ`, so the mean and the
//! `k` accumulators are maintained simultaneously. The shared random
//! components are streamed from a seeded row-keyed RNG and materialized only
//! in cache-sized blocks (`ROW_BLOCK` rows at a time) that all columns
//! consume before the next block is generated — see
//! [`SharedHyperplanes::accumulate_columns`].

use crate::bits::BitVec;
use crate::traits::MergeError;
use foresight_stats::kernel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// The distribution of the shared random hyperplane components.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum HyperplaneKind {
    /// Rademacher ±1 components (the default): 64 components per RNG draw,
    /// an order of magnitude cheaper to stream than Gaussians. For sign-of-
    /// dot-product sketches the CLT makes the pair `(x̃·s, ỹ·s)` asymptotically
    /// bivariate normal with correlation ρ, so `cos(πH/k)` retains its
    /// meaning for all but tiny row counts (validated in the T1 experiment).
    #[default]
    Rademacher,
    /// Spherically symmetric Gaussian components — the paper's exact
    /// construction; exactly unbiased at any `n`, ~3× slower to build.
    Gaussian,
}

/// Configuration of the shared hyperplanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HyperplaneConfig {
    /// Number of hyperplanes (bits per column). The paper recommends
    /// `k = O(log²n)`; [`HyperplaneConfig::for_rows`] applies that rule.
    pub k: usize,
    /// Seed of the shared random vectors. Sketches are only comparable when
    /// built with the same seed (and the same row universe).
    pub seed: u64,
    /// Component distribution (Rademacher by default).
    #[serde(default)]
    pub kind: HyperplaneKind,
}

impl Default for HyperplaneConfig {
    fn default() -> Self {
        Self {
            k: 256,
            seed: 0x5EED,
            kind: HyperplaneKind::default(),
        }
    }
}

impl HyperplaneConfig {
    /// The paper's sizing rule `k = O(log²n)`, concretely `⌈1.5·log₂²(n)⌉`
    /// rounded up to a multiple of 64, clamped to `[64, 4096]`. The T1
    /// accuracy experiment shows this constant keeps mean correlation
    /// accuracy above the paper's 90% band at minimal build cost.
    pub fn for_rows(n: usize, seed: u64) -> Self {
        let l = (n.max(2) as f64).log2();
        let k = (1.5 * l * l).ceil() as usize;
        let k = k.div_ceil(64) * 64;
        Self {
            k: k.clamp(64, 4096),
            seed,
            kind: HyperplaneKind::default(),
        }
    }
}

/// Streams the shared Gaussian hyperplane components row by row.
///
/// Row `j` consumes exactly `k` Gaussians from a `seed`-keyed RNG, so every
/// column of a table sees identical hyperplanes — the property that makes the
/// per-column sketches combinable into pairwise correlation estimates.
#[derive(Debug, Clone)]
pub struct SharedHyperplanes {
    config: HyperplaneConfig,
}

impl SharedHyperplanes {
    /// Creates the shared hyperplane family.
    pub fn new(config: HyperplaneConfig) -> Self {
        assert!(config.k > 0, "k must be positive");
        Self { config }
    }

    /// The configuration.
    pub fn config(&self) -> HyperplaneConfig {
        self.config
    }

    /// Sketches several columns of equal length in one logical pass.
    ///
    /// Missing (`NaN`) entries contribute the column mean, i.e. zero after
    /// centering. A thin wrapper over [`Self::accumulate_columns`] — one
    /// cache-blocked kernel serves the one-shot and partitioned builds, so
    /// the two are identical by construction.
    pub fn sketch_columns(&self, columns: &[&[f64]]) -> Vec<HyperplaneSketch> {
        self.accumulate_columns(columns, 0)
            .iter()
            .map(HyperplaneAccumulator::finalize)
            .collect()
    }

    /// Sketches a single column.
    pub fn sketch_column(&self, column: &[f64]) -> HyperplaneSketch {
        self.sketch_columns(&[column])
            .pop()
            .expect("one column in, one sketch out")
    }

    /// Starts an empty partition accumulator for one column.
    pub fn accumulator(&self) -> HyperplaneAccumulator {
        HyperplaneAccumulator::new(self.config)
    }

    /// Builds one partition accumulator per column for a shard of equal-length
    /// columns starting at global row `row_offset`, materializing each block
    /// of `ROW_BLOCK` rows' shared components once and applying it to every
    /// column — the batch analogue of [`HyperplaneAccumulator::update_rows`],
    /// bit-identical to calling it per column (both route through one
    /// kernel) but `|B|×` cheaper on component streaming.
    pub fn accumulate_columns(
        &self,
        columns: &[&[f64]],
        row_offset: u64,
    ) -> Vec<HyperplaneAccumulator> {
        let mut accs: Vec<HyperplaneAccumulator> = columns
            .iter()
            .map(|_| HyperplaneAccumulator::new(self.config))
            .collect();
        self.accumulate_into(columns, row_offset, &mut accs);
        accs
    }

    /// The shared accumulation kernel: absorbs `columns[c]` into `accs[c]`
    /// for every column, rows starting at global row `row_offset`.
    ///
    /// The vectorized path works in blocks of [`ROW_BLOCK`] rows: the
    /// block's `ROW_BLOCK·k` shared components are materialized once
    /// (row-major) and reused by every column, the per-block component
    /// column-sums let a fully-present block update `g_sum` once instead of
    /// per row, and the dot accumulation register-blocks four rows per sweep
    /// of the `k` accumulators — quartering the `dot[]` load/store traffic
    /// that dominates the scalar per-row axpy. Blocks containing missing
    /// values in a column fall back to a per-row pass for that column only.
    /// The scalar path ([`foresight_stats::kernel::KernelMode::Scalar`]) is
    /// the original row-at-a-time loop, kept as oracle and baseline.
    fn accumulate_into(
        &self,
        columns: &[&[f64]],
        row_offset: u64,
        accs: &mut [HyperplaneAccumulator],
    ) {
        let n = columns.first().map(|c| c.len()).unwrap_or(0);
        for c in columns {
            assert_eq!(c.len(), n, "all columns must have equal length");
        }
        assert_eq!(columns.len(), accs.len(), "one accumulator per column");
        match kernel::mode() {
            kernel::KernelMode::Scalar => self.accumulate_into_scalar(columns, row_offset, accs),
            kernel::KernelMode::Vectorized => {
                self.accumulate_into_blocked(columns, row_offset, accs)
            }
        }
    }

    fn accumulate_into_scalar(
        &self,
        columns: &[&[f64]],
        row_offset: u64,
        accs: &mut [HyperplaneAccumulator],
    ) {
        let n = columns.first().map(|c| c.len()).unwrap_or(0);
        let mut g = vec![0.0f64; self.config.k];
        for j in 0..n {
            let mut filled = false;
            for (acc, col) in accs.iter_mut().zip(columns) {
                let v = col[j];
                acc.rows += 1;
                if v.is_nan() {
                    continue;
                }
                if !filled {
                    fill_row_components(self.config, row_offset + j as u64, &mut g);
                    filled = true;
                }
                for ((d, gs), &gi) in acc.dot.iter_mut().zip(acc.g_sum.iter_mut()).zip(g.iter()) {
                    *d += v * gi;
                    *gs += gi;
                }
                acc.value_sum += v;
                acc.present += 1;
            }
        }
    }

    fn accumulate_into_blocked(
        &self,
        columns: &[&[f64]],
        row_offset: u64,
        accs: &mut [HyperplaneAccumulator],
    ) {
        let k = self.config.k;
        let n = columns.first().map(|c| c.len()).unwrap_or(0);
        let mut comps = vec![0.0f64; ROW_BLOCK * k];
        let mut gsum_block = vec![0.0f64; k];
        let mut start = 0usize;
        while start < n {
            let bl = (n - start).min(ROW_BLOCK);
            for r in 0..bl {
                fill_row_components(
                    self.config,
                    row_offset + (start + r) as u64,
                    &mut comps[r * k..(r + 1) * k],
                );
            }
            gsum_block.iter_mut().for_each(|s| *s = 0.0);
            for r in 0..bl {
                let row = &comps[r * k..(r + 1) * k];
                for (s, &gi) in gsum_block.iter_mut().zip(row) {
                    *s += gi;
                }
            }
            for (acc, col) in accs.iter_mut().zip(columns) {
                let seg = &col[start..start + bl];
                acc.rows += bl as u64;
                if seg.iter().any(|v| v.is_nan()) {
                    // mixed block: per-row fallback for this column only
                    for (r, &v) in seg.iter().enumerate() {
                        if v.is_nan() {
                            continue;
                        }
                        let row = &comps[r * k..(r + 1) * k];
                        for ((d, gs), &gi) in acc.dot.iter_mut().zip(acc.g_sum.iter_mut()).zip(row)
                        {
                            *d += v * gi;
                            *gs += gi;
                        }
                        acc.value_sum += v;
                        acc.present += 1;
                    }
                } else {
                    // fully-present block: four rows per sweep of dot[],
                    // one g_sum update for the whole block
                    let mut r = 0usize;
                    while r + 4 <= bl {
                        let (v0, v1, v2, v3) = (seg[r], seg[r + 1], seg[r + 2], seg[r + 3]);
                        let (g0, rest) = comps[r * k..].split_at(k);
                        let (g1, rest) = rest.split_at(k);
                        let (g2, rest) = rest.split_at(k);
                        let g3 = &rest[..k];
                        for (i, d) in acc.dot.iter_mut().enumerate() {
                            *d += v0 * g0[i] + v1 * g1[i] + v2 * g2[i] + v3 * g3[i];
                        }
                        r += 4;
                    }
                    while r < bl {
                        let v = seg[r];
                        let row = &comps[r * k..(r + 1) * k];
                        for (d, &gi) in acc.dot.iter_mut().zip(row) {
                            *d += v * gi;
                        }
                        r += 1;
                    }
                    for (gs, &s) in acc.g_sum.iter_mut().zip(&gsum_block) {
                        *gs += s;
                    }
                    acc.value_sum += seg.iter().sum::<f64>();
                    acc.present += bl as u64;
                }
            }
            start += bl;
        }
    }
}

/// Rows per cache block of the vectorized accumulation kernel: the block's
/// `ROW_BLOCK·k` shared components (16·4096·8 B = 512 KiB worst case, 128 KiB
/// at the common k=1024) are streamed sequentially while the `k`-element
/// `dot`/`g_sum` accumulators stay hot in L1/L2 across the whole block.
const ROW_BLOCK: usize = 16;

/// A mergeable, partitionable pre-image of a [`HyperplaneSketch`].
///
/// The bit vector of a hyperplane sketch is the *sign* of the centered dot
/// products, which cannot be merged once quantized. The accumulator keeps
/// the linear pieces — `Σxⱼ·gᵢⱼ`, `Σgᵢⱼ` over present rows, `Σxⱼ`, and the
/// row count — all of which are additive across disjoint row partitions.
/// Because component generation is row-keyed, each partition feeds its
/// global row offsets and the merged accumulator finalizes to exactly the
/// sketch a single-pass build would have produced.
///
/// # Examples
/// ```
/// use foresight_sketch::hyperplane::{HyperplaneConfig, SharedHyperplanes};
///
/// let data: Vec<f64> = (0..100).map(|i| (i % 13) as f64).collect();
/// let hp = SharedHyperplanes::new(HyperplaneConfig::default());
///
/// // whole-column sketch…
/// let whole = hp.sketch_column(&data);
///
/// // …equals the merge of two disjoint partitions
/// let mut a = hp.accumulator();
/// a.update_rows(&data[..40], 0);
/// let mut b = hp.accumulator();
/// b.update_rows(&data[40..], 40);
/// a.merge(&b).unwrap();
/// assert_eq!(a.finalize(), whole);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HyperplaneAccumulator {
    config: HyperplaneConfig,
    /// `Σ xⱼ·gᵢⱼ` over present rows.
    dot: Vec<f64>,
    /// `Σ gᵢⱼ` over present rows (for mean-centering at finalize time).
    g_sum: Vec<f64>,
    /// `Σ xⱼ` over present rows.
    value_sum: f64,
    /// Present rows.
    present: u64,
    /// All rows covered (incl. missing).
    rows: u64,
}

impl HyperplaneAccumulator {
    /// An empty accumulator.
    pub fn new(config: HyperplaneConfig) -> Self {
        Self {
            config,
            dot: vec![0.0; config.k],
            g_sum: vec![0.0; config.k],
            value_sum: 0.0,
            present: 0,
            rows: 0,
        }
    }

    /// Absorbs a contiguous chunk of the column starting at global row
    /// `row_offset`. Chunks across calls/partitions must not overlap.
    ///
    /// Routes through the same blocked kernel as
    /// [`SharedHyperplanes::accumulate_columns`] (block boundaries relative
    /// to this chunk's start), so single-column and batch accumulation are
    /// identical by construction.
    pub fn update_rows(&mut self, values: &[f64], row_offset: u64) {
        let hp = SharedHyperplanes::new(self.config);
        hp.accumulate_into(&[values], row_offset, std::slice::from_mut(self));
    }

    /// Merges another partition's accumulator (disjoint global rows).
    pub fn merge(&mut self, other: &Self) -> Result<(), MergeError> {
        if self.config.k != other.config.k {
            return Err(MergeError::SizeMismatch(self.config.k, other.config.k));
        }
        if self.config.seed != other.config.seed || self.config.kind != other.config.kind {
            return Err(MergeError::SeedMismatch);
        }
        for (a, b) in self.dot.iter_mut().zip(&other.dot) {
            *a += b;
        }
        for (a, b) in self.g_sum.iter_mut().zip(&other.g_sum) {
            *a += b;
        }
        self.value_sum += other.value_sum;
        self.present += other.present;
        self.rows += other.rows;
        Ok(())
    }

    /// Quantizes to the sign-bit sketch: `bitᵢ = sign(Σxⱼgᵢⱼ − μ·Σgᵢⱼ)`.
    pub fn finalize(&self) -> HyperplaneSketch {
        let mean = if self.present == 0 {
            0.0
        } else {
            self.value_sum / self.present as f64
        };
        HyperplaneSketch {
            bits: BitVec::from_bools(
                self.dot
                    .iter()
                    .zip(&self.g_sum)
                    .map(|(&d, &gs)| d - mean * gs >= 0.0),
            ),
            config: self.config,
            rows: self.rows,
        }
    }
}

/// Fills row `row`'s shared hyperplane components.
///
/// Generation is **row-keyed** — the components of global row `j` depend
/// only on `(config.seed, j)`, never on which rows were processed before —
/// so data partitions can be sketched independently (with their global row
/// offsets) and their accumulators merged exactly (§3 composability).
fn fill_row_components(config: HyperplaneConfig, row: u64, out: &mut [f64]) {
    let row_seed = SplitMix(config.seed ^ row.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next();
    match config.kind {
        HyperplaneKind::Gaussian => {
            let mut rng = StdRng::seed_from_u64(row_seed);
            fill_gaussians(&mut rng, out);
        }
        HyperplaneKind::Rademacher => {
            let mut stream = SplitMix(row_seed | 1);
            // 64 ±1 components per u64 draw
            let mut i = 0;
            while i < out.len() {
                let mut bits = stream.next();
                let end = (i + 64).min(out.len());
                while i < end {
                    out[i] = if bits & 1 == 1 { 1.0 } else { -1.0 };
                    bits >>= 1;
                    i += 1;
                }
            }
        }
    }
}

/// A tiny fast splitmix64 stream for row keys and Rademacher bits.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Two standard normals per Box–Muller transform (no rejection).
fn fill_gaussians(rng: &mut StdRng, out: &mut [f64]) {
    let mut i = 0;
    while i < out.len() {
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        out[i] = r * theta.cos();
        i += 1;
        if i < out.len() {
            out[i] = r * theta.sin();
            i += 1;
        }
    }
}

/// The per-column bit-vector sketch. `|B|·k` bits for a whole table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HyperplaneSketch {
    bits: BitVec,
    config: HyperplaneConfig,
    rows: u64,
}

impl HyperplaneSketch {
    /// The sign bits.
    pub fn bits(&self) -> &BitVec {
        &self.bits
    }

    /// Number of hyperplanes `k`.
    pub fn k(&self) -> usize {
        self.config.k
    }

    /// Rows the sketch was built over.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Memory consumed, in bytes.
    pub fn size_bytes(&self) -> usize {
        self.bits.size_bytes()
    }

    /// Estimates the Pearson correlation with another column's sketch:
    /// `ρ̂ = cos(π·H/k)` (Charikar 2002).
    ///
    /// # Errors
    /// The sketches must share `k`, seed, and row universe.
    pub fn correlation(&self, other: &HyperplaneSketch) -> Result<f64, MergeError> {
        if self.config.k != other.config.k {
            return Err(MergeError::SizeMismatch(self.config.k, other.config.k));
        }
        if self.config.seed != other.config.seed {
            return Err(MergeError::SeedMismatch);
        }
        if self.rows != other.rows {
            return Err(MergeError::ParameterMismatch("row universe"));
        }
        let h = self.bits.hamming(&other.bits);
        Ok((std::f64::consts::PI * h as f64 / self.config.k as f64).cos())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foresight_data::datasets::dist::std_normal;
    use foresight_stats::correlation::pearson;

    /// Two columns with exact planted correlation structure.
    fn correlated_pair(n: usize, rho: f64, seed: u64) -> (Vec<f64>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        let resid = (1.0 - rho * rho).sqrt();
        for _ in 0..n {
            let z = std_normal(&mut rng);
            x.push(z);
            y.push(rho * z + resid * std_normal(&mut rng));
        }
        (x, y)
    }

    #[test]
    fn estimates_strong_positive_correlation() {
        let (x, y) = correlated_pair(5_000, 0.9, 1);
        let hp = SharedHyperplanes::new(HyperplaneConfig {
            k: 1024,
            seed: 9,
            ..Default::default()
        });
        let sk = hp.sketch_columns(&[&x, &y]);
        let est = sk[0].correlation(&sk[1]).unwrap();
        let exact = pearson(&x, &y);
        assert!((est - exact).abs() < 0.08, "est {est} vs exact {exact}");
    }

    #[test]
    fn estimates_negative_and_zero_correlation() {
        let hp = SharedHyperplanes::new(HyperplaneConfig {
            k: 1024,
            seed: 2,
            ..Default::default()
        });
        let (x, y) = correlated_pair(5_000, -0.8, 3);
        let sk = hp.sketch_columns(&[&x, &y]);
        let est = sk[0].correlation(&sk[1]).unwrap();
        assert!((est - pearson(&x, &y)).abs() < 0.08, "est {est}");

        let (x0, y0) = correlated_pair(5_000, 0.0, 4);
        let sk0 = hp.sketch_columns(&[&x0, &y0]);
        let est0 = sk0[0].correlation(&sk0[1]).unwrap();
        assert!(est0.abs() < 0.1, "est {est0}");
    }

    #[test]
    fn self_correlation_is_one() {
        let (x, _) = correlated_pair(500, 0.5, 5);
        let hp = SharedHyperplanes::new(HyperplaneConfig::default());
        let s = hp.sketch_column(&x);
        assert_eq!(s.correlation(&s).unwrap(), 1.0);
    }

    #[test]
    fn perfectly_anticorrelated_columns() {
        let (x, _) = correlated_pair(1_000, 0.5, 6);
        let neg: Vec<f64> = x.iter().map(|v| -v).collect();
        let hp = SharedHyperplanes::new(HyperplaneConfig {
            k: 512,
            seed: 7,
            ..Default::default()
        });
        let sk = hp.sketch_columns(&[&x, &neg]);
        let est = sk[0].correlation(&sk[1]).unwrap();
        assert!((est + 1.0).abs() < 1e-12, "est {est}");
    }

    #[test]
    fn invariant_to_affine_transforms() {
        // correlation is shift/scale invariant; the sketch must be too
        let (x, _) = correlated_pair(1_000, 0.5, 8);
        let scaled: Vec<f64> = x.iter().map(|v| 3.5 * v + 100.0).collect();
        let hp = SharedHyperplanes::new(HyperplaneConfig {
            k: 512,
            seed: 11,
            ..Default::default()
        });
        let sk = hp.sketch_columns(&[&x, &scaled]);
        assert!((sk[0].correlation(&sk[1]).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn incompatible_sketches_rejected() {
        let x = vec![1.0, 2.0, 3.0];
        let a = SharedHyperplanes::new(HyperplaneConfig {
            k: 64,
            seed: 1,
            ..Default::default()
        })
        .sketch_column(&x);
        let b = SharedHyperplanes::new(HyperplaneConfig {
            k: 128,
            seed: 1,
            ..Default::default()
        })
        .sketch_column(&x);
        let c = SharedHyperplanes::new(HyperplaneConfig {
            k: 64,
            seed: 2,
            ..Default::default()
        })
        .sketch_column(&x);
        let d = SharedHyperplanes::new(HyperplaneConfig {
            k: 64,
            seed: 1,
            ..Default::default()
        })
        .sketch_column(&[1.0, 2.0, 3.0, 4.0]);
        assert!(matches!(
            a.correlation(&b),
            Err(MergeError::SizeMismatch(64, 128))
        ));
        assert!(matches!(a.correlation(&c), Err(MergeError::SeedMismatch)));
        assert!(matches!(
            a.correlation(&d),
            Err(MergeError::ParameterMismatch(_))
        ));
    }

    #[test]
    fn missing_values_tolerated() {
        let (mut x, y) = correlated_pair(3_000, 0.85, 12);
        for i in (0..x.len()).step_by(10) {
            x[i] = f64::NAN;
        }
        let hp = SharedHyperplanes::new(HyperplaneConfig {
            k: 1024,
            seed: 13,
            ..Default::default()
        });
        let sk = hp.sketch_columns(&[&x, &y]);
        let est = sk[0].correlation(&sk[1]).unwrap();
        assert!(est > 0.6, "est {est}");
    }

    #[test]
    fn memory_is_k_bits_per_column() {
        let hp = SharedHyperplanes::new(HyperplaneConfig {
            k: 256,
            seed: 1,
            ..Default::default()
        });
        let s = hp.sketch_column(&vec![1.0; 10_000]);
        assert_eq!(s.size_bytes(), 32); // 256 bits
    }

    #[test]
    fn sizing_rule_grows_with_n() {
        let small = HyperplaneConfig::for_rows(1_000, 0);
        let big = HyperplaneConfig::for_rows(1_000_000, 0);
        assert!(small.k >= 64 && big.k > small.k && big.k <= 4096);
        assert_eq!(small.k % 64, 0);
    }

    #[test]
    fn gaussian_and_rademacher_agree_at_scale() {
        let (x, y) = correlated_pair(8_000, 0.8, 77);
        let exact = pearson(&x, &y);
        for kind in [HyperplaneKind::Gaussian, HyperplaneKind::Rademacher] {
            let hp = SharedHyperplanes::new(HyperplaneConfig {
                k: 1024,
                seed: 5,
                kind,
            });
            let sk = hp.sketch_columns(&[&x, &y]);
            let est = sk[0].correlation(&sk[1]).unwrap();
            assert!(
                (est - exact).abs() < 0.08,
                "{kind:?}: est {est} exact {exact}"
            );
        }
    }

    #[test]
    fn batch_accumulators_match_per_column() {
        let (mut x, y) = correlated_pair(600, 0.6, 19);
        for i in (0..x.len()).step_by(7) {
            x[i] = f64::NAN;
        }
        let hp = SharedHyperplanes::new(HyperplaneConfig {
            k: 256,
            seed: 21,
            ..Default::default()
        });
        let batch = hp.accumulate_columns(&[&x, &y], 100);
        let mut ax = hp.accumulator();
        ax.update_rows(&x, 100);
        let mut ay = hp.accumulator();
        ay.update_rows(&y, 100);
        assert_eq!(batch[0], ax);
        assert_eq!(batch[1], ay);
    }

    #[test]
    fn deterministic_for_seed() {
        let (x, y) = correlated_pair(200, 0.4, 20);
        let hp = SharedHyperplanes::new(HyperplaneConfig {
            k: 128,
            seed: 3,
            ..Default::default()
        });
        assert_eq!(hp.sketch_columns(&[&x, &y]), hp.sketch_columns(&[&x, &y]));
    }

    #[test]
    fn accuracy_above_ninety_percent_at_paper_k() {
        // the paper's claim: >90% accuracy with k = O(log² n)
        let n = 20_000;
        let cfg = HyperplaneConfig::for_rows(n, 99);
        let hp = SharedHyperplanes::new(cfg);
        let mut errs = Vec::new();
        for (seed, rho) in [(31u64, 0.95), (32, 0.7), (33, -0.85), (34, 0.5), (35, -0.6)] {
            let (x, y) = correlated_pair(n, rho, seed);
            let sk = hp.sketch_columns(&[&x, &y]);
            let est = sk[0].correlation(&sk[1]).unwrap();
            let exact = pearson(&x, &y);
            errs.push((est - exact).abs());
        }
        // the estimator is unbiased with sd ≈ π·sin(πp)·√(p(1−p)/k); at the
        // paper's k the *average* error stays well under the 10% band even
        // though a single pair can fluctuate close to it
        let mean_err = errs.iter().sum::<f64>() / errs.len() as f64;
        let max_err = errs.iter().copied().fold(0.0f64, f64::max);
        assert!(mean_err < 0.06, "mean abs err {mean_err} (errors {errs:?})");
        assert!(max_err < 0.13, "max abs err {max_err} (errors {errs:?})");
    }
}
