//! General statistical dependence — the paper's "general statistical
//! dependencies" insight class. Chi-squared and Cramér's V for categorical
//! pairs; binned mutual information for numeric pairs.

use crate::histogram::{BinRule, Histogram};
use foresight_data::CategoricalColumn;

/// A contingency table between two categorical columns (missing rows
/// dropped pairwise).
#[derive(Debug, Clone)]
pub struct ContingencyTable {
    counts: Vec<Vec<u64>>,
    total: u64,
}

impl ContingencyTable {
    /// Cross-tabulates two categorical columns of equal length.
    pub fn new(a: &CategoricalColumn, b: &CategoricalColumn) -> Self {
        assert_eq!(a.len(), b.len(), "columns must have equal length");
        let mut counts = vec![vec![0u64; b.cardinality()]; a.cardinality()];
        let mut total = 0u64;
        for (ca, cb) in a.codes().iter().zip(b.codes()) {
            if *ca != foresight_data::column::NULL_CODE && *cb != foresight_data::column::NULL_CODE
            {
                counts[*ca as usize][*cb as usize] += 1;
                total += 1;
            }
        }
        Self { counts, total }
    }

    /// Builds from raw counts (for tests and binned numeric data).
    pub fn from_counts(counts: Vec<Vec<u64>>) -> Self {
        let total = counts.iter().flatten().sum();
        Self { counts, total }
    }

    /// Row marginal totals.
    pub fn row_totals(&self) -> Vec<u64> {
        self.counts.iter().map(|r| r.iter().sum()).collect()
    }

    /// Column marginal totals.
    pub fn col_totals(&self) -> Vec<u64> {
        let cols = self.counts.first().map(|r| r.len()).unwrap_or(0);
        (0..cols)
            .map(|j| self.counts.iter().map(|r| r[j]).sum())
            .collect()
    }

    /// Pearson's chi-squared statistic against independence.
    pub fn chi_squared(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rows = self.row_totals();
        let cols = self.col_totals();
        let n = self.total as f64;
        let mut chi2 = 0.0;
        for (i, row) in self.counts.iter().enumerate() {
            for (j, &obs) in row.iter().enumerate() {
                let expected = rows[i] as f64 * cols[j] as f64 / n;
                if expected > 0.0 {
                    let diff = obs as f64 - expected;
                    chi2 += diff * diff / expected;
                }
            }
        }
        chi2
    }

    /// Cramér's V ∈ [0, 1]: `√(χ²/n / min(r−1, c−1))`. The normalized
    /// dependence strength used as the ranking metric.
    pub fn cramers_v(&self) -> f64 {
        if self.total == 0 {
            return f64::NAN;
        }
        let r = self.row_totals().iter().filter(|&&t| t > 0).count();
        let c = self.col_totals().iter().filter(|&&t| t > 0).count();
        let k = r.min(c);
        if k < 2 {
            return f64::NAN;
        }
        (self.chi_squared() / self.total as f64 / (k - 1) as f64).sqrt()
    }

    /// Asymptotic p-value of the chi-squared independence test
    /// (`df = (r−1)(c−1)` over non-empty rows/columns).
    pub fn chi_squared_p_value(&self) -> f64 {
        if self.total == 0 {
            return f64::NAN;
        }
        let r = self.row_totals().iter().filter(|&&t| t > 0).count();
        let c = self.col_totals().iter().filter(|&&t| t > 0).count();
        if r < 2 || c < 2 {
            return f64::NAN;
        }
        let df = ((r - 1) * (c - 1)) as f64;
        crate::special::chi2_sf(self.chi_squared(), df)
    }

    /// Mutual information (nats) of the empirical joint distribution.
    pub fn mutual_information(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rows = self.row_totals();
        let cols = self.col_totals();
        let n = self.total as f64;
        let mut mi = 0.0;
        for (i, row) in self.counts.iter().enumerate() {
            for (j, &obs) in row.iter().enumerate() {
                if obs > 0 {
                    let pxy = obs as f64 / n;
                    let px = rows[i] as f64 / n;
                    let py = cols[j] as f64 / n;
                    mi += pxy * (pxy / (px * py)).ln();
                }
            }
        }
        mi.max(0.0)
    }

    /// Normalized mutual information `MI / √(H(x)·H(y))` ∈ [0, 1].
    pub fn normalized_mutual_information(&self) -> f64 {
        if self.total == 0 {
            return f64::NAN;
        }
        let n = self.total as f64;
        let h = |totals: Vec<u64>| -> f64 {
            totals
                .iter()
                .filter(|&&t| t > 0)
                .map(|&t| {
                    let p = t as f64 / n;
                    -p * p.ln()
                })
                .sum()
        };
        let hx = h(self.row_totals());
        let hy = h(self.col_totals());
        if hx <= 0.0 || hy <= 0.0 {
            return f64::NAN;
        }
        (self.mutual_information() / (hx * hy).sqrt()).min(1.0)
    }
}

/// Binned mutual information between two numeric columns: each column is
/// histogram-binned, then MI of the induced discrete joint is computed.
/// Missing values are dropped pairwise.
pub fn binned_mutual_information(x: &[f64], y: &[f64], rule: BinRule) -> f64 {
    assert_eq!(x.len(), y.len(), "columns must have equal length");
    let (mut xs, mut ys) = (Vec::new(), Vec::new());
    for (&a, &b) in x.iter().zip(y) {
        if !a.is_nan() && !b.is_nan() {
            xs.push(a);
            ys.push(b);
        }
    }
    let (Some(hx), Some(hy)) = (Histogram::build(&xs, rule), Histogram::build(&ys, rule)) else {
        return f64::NAN;
    };
    let mut counts = vec![vec![0u64; hy.n_bins()]; hx.n_bins()];
    for (&a, &b) in xs.iter().zip(&ys) {
        counts[hx.bin_of(a)][hy.bin_of(b)] += 1;
    }
    ContingencyTable::from_counts(counts).normalized_mutual_information()
}

/// A complete numeric column reduced to its equal-width bin codes — the
/// per-column half of [`binned_mutual_information`] under
/// [`BinRule::Fixed`], hoisted so that an all-pairs pass bins each column
/// once instead of once per pair.
#[derive(Debug, Clone)]
pub struct BinnedColumn {
    codes: Vec<u8>,
    bins: usize,
}

impl BinnedColumn {
    /// Bins `values` into `bins` (≤ 256) equal-width bins with
    /// [`Histogram`]'s own range and `bin_of`.
    ///
    /// `None` when the column is empty or has a missing value: pairwise
    /// deletion then drops rows by partner, which can move the column's
    /// range, so its codes are not a property of the column alone.
    pub fn complete(values: &[f64], bins: usize) -> Option<Self> {
        assert!(bins <= 256, "bin codes are u8");
        if values.iter().any(|v| v.is_nan()) {
            return None;
        }
        let h = Histogram::build(values, BinRule::Fixed(bins))?;
        Some(Self {
            codes: values.iter().map(|&v| h.bin_of(v) as u8).collect(),
            bins: h.n_bins(),
        })
    }

    /// Normalized binned mutual information with `other` — bit-identical
    /// to [`binned_mutual_information`] over the two source columns with
    /// `BinRule::Fixed` at their bin counts.
    pub fn mutual_information(&self, other: &Self) -> f64 {
        assert_eq!(
            self.codes.len(),
            other.codes.len(),
            "columns must have equal length"
        );
        let mut joint = vec![0u64; self.bins * other.bins];
        for (&a, &b) in self.codes.iter().zip(&other.codes) {
            joint[a as usize * other.bins + b as usize] += 1;
        }
        let counts = joint.chunks(other.bins).map(<[u64]>::to_vec).collect();
        ContingencyTable::from_counts(counts).normalized_mutual_information()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cat(values: &[&str]) -> CategoricalColumn {
        CategoricalColumn::from_strings(values.iter().copied())
    }

    #[test]
    fn perfect_dependence() {
        let a = cat(&["x", "y", "x", "y", "x", "y"]);
        let b = cat(&["p", "q", "p", "q", "p", "q"]);
        let t = ContingencyTable::new(&a, &b);
        assert!((t.cramers_v() - 1.0).abs() < 1e-12);
        assert!((t.normalized_mutual_information() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn independence_near_zero() {
        // balanced 2x2 independent table
        let t = ContingencyTable::from_counts(vec![vec![50, 50], vec![50, 50]]);
        assert_eq!(t.chi_squared(), 0.0);
        assert!((t.cramers_v()).abs() < 1e-9);
        assert!(t.mutual_information() < 1e-12);
    }

    #[test]
    fn chi_squared_known_value() {
        // classic example: observed [[10,20],[30,40]]
        let t = ContingencyTable::from_counts(vec![vec![10, 20], vec![30, 40]]);
        // expected: row totals 30,70; col totals 40,60; n=100
        // e = [[12,18],[28,42]]; chi2 = 4/12 + 4/18 + 4/28 + 4/42
        let expected = 4.0 / 12.0 + 4.0 / 18.0 + 4.0 / 28.0 + 4.0 / 42.0;
        assert!((t.chi_squared() - expected).abs() < 1e-12);
    }

    #[test]
    fn p_value_separates_dependence_from_independence() {
        let dependent = ContingencyTable::from_counts(vec![vec![90, 10], vec![10, 90]]);
        assert!(dependent.chi_squared_p_value() < 1e-10);
        let independent = ContingencyTable::from_counts(vec![vec![50, 50], vec![50, 50]]);
        assert!((independent.chi_squared_p_value() - 1.0).abs() < 1e-9);
        let degenerate = ContingencyTable::from_counts(vec![vec![10, 20]]);
        assert!(degenerate.chi_squared_p_value().is_nan());
    }

    #[test]
    fn missing_dropped_pairwise() {
        let a = cat(&["x", "", "x", "y"]);
        let b = cat(&["p", "q", "", "q"]);
        let t = ContingencyTable::new(&a, &b);
        assert_eq!(t.total, 2);
    }

    #[test]
    fn degenerate_single_category() {
        let a = cat(&["x", "x", "x"]);
        let b = cat(&["p", "q", "p"]);
        let t = ContingencyTable::new(&a, &b);
        assert!(t.cramers_v().is_nan());
    }

    #[test]
    fn binned_mi_detects_nonlinear_dependence() {
        // y = x² is invisible to Pearson but has high MI
        let x: Vec<f64> = (-500..500).map(|i| i as f64 / 100.0).collect();
        let y: Vec<f64> = x.iter().map(|v| v * v).collect();
        let mi = binned_mutual_information(&x, &y, BinRule::Fixed(16));
        assert!(mi > 0.5, "mi = {mi}");
        let rho = crate::correlation::pearson(&x, &y);
        assert!(rho.abs() < 0.05, "pearson = {rho}");
    }

    #[test]
    fn binned_mi_independent_near_zero() {
        // deterministic "independent" pattern: x cycles fast, y cycles slow
        let n = 4096;
        let x: Vec<f64> = (0..n).map(|i| (i % 64) as f64).collect();
        let y: Vec<f64> = (0..n).map(|i| (i / 64) as f64).collect();
        let mi = binned_mutual_information(&x, &y, BinRule::Fixed(8));
        assert!(mi < 0.05, "mi = {mi}");
    }

    #[test]
    fn binned_mi_empty_is_nan() {
        assert!(binned_mutual_information(&[], &[], BinRule::Fixed(4)).is_nan());
    }

    #[test]
    fn binned_columns_reproduce_the_scalar_estimate_bit_for_bit() {
        let n = 500;
        let cols: Vec<Vec<f64>> = vec![
            (0..n).map(|i| (i as f64 * 0.37).sin()).collect(),
            (0..n).map(|i| ((i * 7919) % 113) as f64).collect(),
            vec![2.5; n],
            (0..n)
                .map(|i| match i {
                    17 => f64::INFINITY,
                    90 => f64::NEG_INFINITY,
                    _ => i as f64,
                })
                .collect(),
        ];
        for bins in [1, 8, 16] {
            let binned: Vec<BinnedColumn> = cols
                .iter()
                .map(|c| BinnedColumn::complete(c, bins).expect("complete column"))
                .collect();
            for (x, bx) in cols.iter().zip(&binned) {
                for (y, by) in cols.iter().zip(&binned) {
                    assert_eq!(
                        bx.mutual_information(by).to_bits(),
                        binned_mutual_information(x, y, BinRule::Fixed(bins)).to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn columns_with_missing_cells_are_not_binned() {
        assert!(BinnedColumn::complete(&[], 16).is_none());
        assert!(BinnedColumn::complete(&[1.0, f64::NAN, 3.0], 16).is_none());
        assert!(BinnedColumn::complete(&[f64::NAN], 16).is_none());
    }
}
