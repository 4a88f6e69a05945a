//! Single-pass, mergeable central moments (mean through kurtosis).
//!
//! The paper notes (§3) that "skewness and kurtosis can both be computed for
//! numeric columns in a single pass by maintaining and combining a few
//! running sums". This module implements that with the numerically stable
//! Welford/Pébay update formulas for the first four central moments, plus a
//! `merge` that makes the summary *composable* across data partitions — the
//! same composability the sketch catalog relies on.

use crate::kernel::{self, KernelMode, LANES};
use serde::{Deserialize, Serialize};

/// Streaming summary of the first four central moments of a sequence.
///
/// # Examples
/// ```
/// use foresight_stats::moments::Moments;
///
/// let m: Moments = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0].iter().copied().collect();
/// assert_eq!(m.count(), 8);
/// assert_eq!(m.mean(), 5.0);
/// assert!((m.population_variance() - 4.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Moments {
    n: u64,
    mean: f64,
    m2: f64,
    m3: f64,
    m4: f64,
    min: f64,
    max: f64,
}

impl Moments {
    /// An empty summary.
    pub fn new() -> Self {
        Self {
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            ..Default::default()
        }
    }

    /// Builds the summary of a slice, skipping NaNs.
    ///
    /// Dispatches on the thread's [`kernel::mode`]: the default vectorized
    /// path is a branch-free two-pass build — [`kernel::LANES`]-split
    /// count/sum/min/max, then lane-split central power sums `Σdᵏ` around
    /// the exact pass-1 mean — with no divisions or cross-iteration
    /// dependencies inside either loop. The reassociation means the result
    /// can differ from the streaming [`Moments::from_slice_scalar`] update
    /// in the last bits — the `kernel_oracle` property tests pin the ε;
    /// count, `min`, and `max` are always exact.
    pub fn from_slice(values: &[f64]) -> Self {
        match kernel::mode() {
            KernelMode::Scalar => Self::from_slice_scalar(values),
            KernelMode::Vectorized => Self::from_slice_lanes(values),
        }
    }

    /// The sequential reference implementation of [`Moments::from_slice`]
    /// — one streaming [`Moments::update`] per present value. Kept as the
    /// oracle the vectorized path is property-tested against.
    pub fn from_slice_scalar(values: &[f64]) -> Self {
        let mut m = Self::new();
        for &v in values {
            if !v.is_nan() {
                m.update(v);
            }
        }
        m
    }

    /// Branch-free two-pass build. Pass 1: lane-split count, sum, min, max
    /// (a NaN contributes 0 to count and sum; `f64::min`/`max` ignore NaN
    /// operands on their own). Pass 2: lane-split central power sums
    /// `m2 = Σd²`, `m3 = Σd³`, `m4 = Σd⁴` with `d = x − mean` (0 for
    /// missing). Neither loop divides or carries a value across iterations,
    /// so both compile to straight-line SIMD; the sub-[`LANES`] tail folds
    /// into the same lane accumulators (lane = position in the final
    /// partial chunk) and lanes reduce in fixed lane order. The schedule is
    /// therefore **positional**: the value at index `i` always lands in
    /// lane `i % LANES`, so appending all-NaN rows — which the streaming
    /// writer's column-granular invalidation treats as leaving the column
    /// untouched — yields bit-identical moments, not merely close ones.
    /// The two-pass form is also *more* accurate than streaming Welford on
    /// offset-heavy data: deviations are taken against the final mean, so
    /// the only reassociation error is the lane split itself.
    fn from_slice_lanes(values: &[f64]) -> Self {
        let mut cnt = [0.0f64; LANES];
        let mut sum = [0.0f64; LANES];
        let mut lo = [f64::INFINITY; LANES];
        let mut hi = [f64::NEG_INFINITY; LANES];
        let tail = values.chunks_exact(LANES).remainder();
        for c in values.chunks_exact(LANES) {
            for l in 0..LANES {
                let x = c[l];
                let present = !x.is_nan();
                cnt[l] += f64::from(present as u8);
                sum[l] += if present { x } else { 0.0 };
                lo[l] = lo[l].min(x);
                hi[l] = hi[l].max(x);
            }
        }
        for (l, &x) in tail.iter().enumerate() {
            let present = !x.is_nan();
            cnt[l] += f64::from(present as u8);
            sum[l] += if present { x } else { 0.0 };
            lo[l] = lo[l].min(x);
            hi[l] = hi[l].max(x);
        }
        let mut n = 0.0f64;
        let mut total = 0.0f64;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for l in 0..LANES {
            n += cnt[l];
            total += sum[l];
            min = min.min(lo[l]);
            max = max.max(hi[l]);
        }
        if n == 0.0 {
            return Self::new();
        }
        let mean = total / n;

        let mut s2 = [0.0f64; LANES];
        let mut s3 = [0.0f64; LANES];
        let mut s4 = [0.0f64; LANES];
        for c in values.chunks_exact(LANES) {
            for l in 0..LANES {
                let x = c[l];
                let d = if x.is_nan() { 0.0 } else { x - mean };
                let d2 = d * d;
                s2[l] += d2;
                s3[l] += d2 * d;
                s4[l] += d2 * d2;
            }
        }
        for (l, &x) in tail.iter().enumerate() {
            let d = if x.is_nan() { 0.0 } else { x - mean };
            let d2 = d * d;
            s2[l] += d2;
            s3[l] += d2 * d;
            s4[l] += d2 * d2;
        }
        let mut m2 = 0.0f64;
        let mut m3 = 0.0f64;
        let mut m4 = 0.0f64;
        for l in 0..LANES {
            m2 += s2[l];
            m3 += s3[l];
            m4 += s4[l];
        }
        Self {
            n: n as u64,
            mean,
            m2,
            m3,
            m4,
            min,
            max,
        }
    }

    /// Adds one observation (Pébay's incremental update).
    pub fn update(&mut self, x: f64) {
        let n1 = self.n as f64;
        self.n += 1;
        let n = self.n as f64;
        let delta = x - self.mean;
        let delta_n = delta / n;
        let delta_n2 = delta_n * delta_n;
        let term1 = delta * delta_n * n1;
        self.mean += delta_n;
        self.m4 += term1 * delta_n2 * (n * n - 3.0 * n + 3.0) + 6.0 * delta_n2 * self.m2
            - 4.0 * delta_n * self.m3;
        self.m3 += term1 * delta_n * (n - 2.0) - 3.0 * delta_n * self.m2;
        self.m2 += term1;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another summary into this one (Pébay's pairwise formulas).
    /// `a.merge(&b)` equals the summary of the concatenated inputs up to
    /// floating-point error, making `Moments` a composable sketch.
    pub fn merge(&mut self, other: &Moments) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let (na, nb) = (self.n as f64, other.n as f64);
        let n = na + nb;
        let delta = other.mean - self.mean;
        let delta2 = delta * delta;
        let delta3 = delta2 * delta;
        let delta4 = delta2 * delta2;

        let m2 = self.m2 + other.m2 + delta2 * na * nb / n;
        let m3 = self.m3
            + other.m3
            + delta3 * na * nb * (na - nb) / (n * n)
            + 3.0 * delta * (na * other.m2 - nb * self.m2) / n;
        let m4 = self.m4
            + other.m4
            + delta4 * na * nb * (na * na - na * nb + nb * nb) / (n * n * n)
            + 6.0 * delta2 * (na * na * other.m2 + nb * nb * self.m2) / (n * n)
            + 4.0 * delta * (na * other.m3 - nb * self.m3) / n;

        self.mean = (na * self.mean + nb * other.mean) / n;
        self.n += other.n;
        self.m2 = m2;
        self.m3 = m3;
        self.m4 = m4;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (`NaN` when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Minimum observation (`NaN` when empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Maximum observation (`NaN` when empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.max
        }
    }

    /// Population variance `σ² = M2/n` — the paper's dispersion metric.
    pub fn population_variance(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Sample (Bessel-corrected) variance `M2/(n−1)`.
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            f64::NAN
        } else {
            self.m2 / (self.n as f64 - 1.0)
        }
    }

    /// Population standard deviation.
    pub fn population_std(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Coefficient of variation `σ/|μ|` (scale-free dispersion).
    pub fn coefficient_of_variation(&self) -> f64 {
        self.population_std() / self.mean().abs()
    }

    /// Standardized skewness coefficient `γ₁ = M3/n / σ³` — the paper's skew
    /// metric. Zero for symmetric data; `NaN` for constant data.
    pub fn skewness(&self) -> f64 {
        let var = self.population_variance();
        if self.n == 0 || var <= 0.0 {
            return f64::NAN;
        }
        (self.m3 / self.n as f64) / var.powf(1.5)
    }

    /// Kurtosis `M4/n / σ⁴` — the paper's heavy-tails metric (normal ≈ 3).
    pub fn kurtosis(&self) -> f64 {
        let var = self.population_variance();
        if self.n == 0 || var <= 0.0 {
            return f64::NAN;
        }
        (self.m4 / self.n as f64) / (var * var)
    }

    /// Excess kurtosis (kurtosis − 3).
    pub fn excess_kurtosis(&self) -> f64 {
        self.kurtosis() - 3.0
    }
}

impl FromIterator<f64> for Moments {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut m = Self::new();
        for v in iter {
            if !v.is_nan() {
                m.update(v);
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(values: &[f64]) -> (f64, f64, f64, f64) {
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        let skew = values.iter().map(|x| (x - mean).powi(3)).sum::<f64>() / n / var.powf(1.5);
        let kurt = values.iter().map(|x| (x - mean).powi(4)).sum::<f64>() / n / (var * var);
        (mean, var, skew, kurt)
    }

    #[test]
    fn matches_naive_two_pass() {
        let values = [1.0, 2.0, 2.5, 3.0, 8.0, -1.0, 4.5, 4.5, 0.0, 10.0];
        let m = Moments::from_slice(&values);
        let (mean, var, skew, kurt) = naive(&values);
        assert!((m.mean() - mean).abs() < 1e-12);
        assert!((m.population_variance() - var).abs() < 1e-12);
        assert!((m.skewness() - skew).abs() < 1e-12);
        assert!((m.kurtosis() - kurt).abs() < 1e-12);
        assert_eq!(m.min(), -1.0);
        assert_eq!(m.max(), 10.0);
    }

    #[test]
    fn merge_equals_batch() {
        let a = [1.0, 5.0, 2.0, 8.0];
        let b = [3.0, 3.0, 9.0, -2.0, 0.5];
        let mut ma = Moments::from_slice(&a);
        let mb = Moments::from_slice(&b);
        ma.merge(&mb);
        let all: Vec<f64> = a.iter().chain(&b).copied().collect();
        let whole = Moments::from_slice(&all);
        assert_eq!(ma.count(), whole.count());
        assert!((ma.mean() - whole.mean()).abs() < 1e-12);
        assert!((ma.population_variance() - whole.population_variance()).abs() < 1e-12);
        assert!((ma.skewness() - whole.skewness()).abs() < 1e-10);
        assert!((ma.kurtosis() - whole.kurtosis()).abs() < 1e-10);
    }

    #[test]
    fn merge_with_empty() {
        let mut a = Moments::from_slice(&[1.0, 2.0]);
        let before = a;
        a.merge(&Moments::new());
        assert_eq!(a, before);
        let mut e = Moments::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn empty_and_constant_edge_cases() {
        let e = Moments::new();
        assert_eq!(e.count(), 0);
        assert!(e.mean().is_nan());
        assert!(e.population_variance().is_nan());
        let c = Moments::from_slice(&[4.0, 4.0, 4.0]);
        assert_eq!(c.population_variance(), 0.0);
        assert!(c.skewness().is_nan());
        assert!(c.kurtosis().is_nan());
    }

    #[test]
    fn nan_skipped() {
        let m = Moments::from_slice(&[1.0, f64::NAN, 3.0]);
        assert_eq!(m.count(), 2);
        assert_eq!(m.mean(), 2.0);
    }

    #[test]
    fn trailing_nan_padding_is_bit_identical() {
        // the streaming writer's column-granular invalidation reuses a
        // column's cached exact scores when every appended row is NaN —
        // sound only if NaN padding cannot move a single bit of any
        // moment, under either kernel mode and across every tail length
        let values: Vec<f64> = (0..103)
            .map(|i| ((i * 37) % 101) as f64 + (i as f64).sin() * 1e3)
            .collect();
        for pad in [
            1usize,
            7,
            crate::kernel::LANES,
            crate::kernel::LANES * 2 + 1,
        ] {
            let mut padded = values.clone();
            padded.extend(std::iter::repeat_n(f64::NAN, pad));
            for mode in [
                crate::kernel::KernelMode::Vectorized,
                crate::kernel::KernelMode::Scalar,
            ] {
                crate::kernel::with_mode(mode, || {
                    let a = Moments::from_slice(&values);
                    let b = Moments::from_slice(&padded);
                    assert_eq!(a.count(), b.count());
                    assert_eq!(a.mean().to_bits(), b.mean().to_bits());
                    assert_eq!(
                        a.population_variance().to_bits(),
                        b.population_variance().to_bits()
                    );
                    assert_eq!(a.skewness().to_bits(), b.skewness().to_bits());
                    assert_eq!(
                        a.kurtosis().to_bits(),
                        b.kurtosis().to_bits(),
                        "{mode:?} pad {pad}"
                    );
                });
            }
        }
    }

    #[test]
    fn normal_sample_kurtosis_near_three() {
        // deterministic pseudo-normal via the quantile trick
        let n = 10_000;
        let values: Vec<f64> = (1..n)
            .map(|i| foresight_data::datasets::dist::normal_quantile(i as f64 / n as f64))
            .collect();
        let m = Moments::from_slice(&values);
        assert!(m.skewness().abs() < 0.01, "skew {}", m.skewness());
        assert!((m.kurtosis() - 3.0).abs() < 0.1, "kurt {}", m.kurtosis());
    }

    #[test]
    fn numerical_stability_large_offset() {
        // classic catastrophic-cancellation case: tiny variance on huge mean
        let values: Vec<f64> = (0..1000).map(|i| 1e9 + (i % 7) as f64).collect();
        let m = Moments::from_slice(&values);
        let (_, var, _, _) = naive(&values);
        assert!((m.population_variance() - var).abs() / var < 1e-6);
    }
}
