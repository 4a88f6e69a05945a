//! Gaussian kernel density estimation with Silverman's bandwidth rule.
//! Used by the density visualization and by KDE-based mode counting.

use crate::moments::Moments;
use crate::quantile;

/// Fine-grid nodes per bandwidth: linear binning at spacing `h/16` is off
/// by at most `(1/16)²/8 ≈ 4.9·10⁻⁴` of one kernel's height.
const FINE_PER_BANDWIDTH: f64 = 16.0;
/// Bins farther than this many bandwidths from a grid node are dropped;
/// the kernel there is `e⁻³² ≈ 10⁻¹⁴` of its height.
const CUTOFF: f64 = 8.0;
/// Most fine nodes under one grid, so node indices stay exact in `f64`
/// and `u64`; a range beyond `2⁴⁰·h/16` gets a coarser fine grid.
const MAX_FINE_NODES: f64 = (1u64 << 40) as f64;

/// A Gaussian KDE over a numeric sample.
#[derive(Debug, Clone)]
pub struct Kde {
    data: Vec<f64>,
    bandwidth: f64,
}

/// What [`Kde::grid`] works from.
struct Binned {
    xs: Vec<f64>,
    /// Fine nodes per output step.
    refine: u64,
    /// `(fine node, weight)`, ascending by node; the weights sum to `n`.
    bins: Vec<(u64, f64)>,
    /// `table[m]` is the kernel at `m` fine nodes from its centre.
    table: Vec<f64>,
}

impl Kde {
    /// Fits a KDE with Silverman's rule-of-thumb bandwidth
    /// `0.9·min(σ, IQR/1.34)·n^{−1/5}`. NaNs are skipped.
    ///
    /// Returns `None` for empty input or zero spread.
    pub fn fit(values: &[f64]) -> Option<Self> {
        let data: Vec<f64> = values.iter().copied().filter(|v| !v.is_nan()).collect();
        if data.is_empty() {
            return None;
        }
        let m = Moments::from_slice(&data);
        let sd = m.population_std();
        let iqr = quantile::iqr(&data).unwrap_or(0.0);
        let spread = if iqr > 0.0 { sd.min(iqr / 1.34) } else { sd };
        if spread <= 0.0 {
            return None;
        }
        let bandwidth = 0.9 * spread * (data.len() as f64).powf(-0.2);
        Some(Self { data, bandwidth })
    }

    /// Fits with an explicit bandwidth (> 0).
    pub fn with_bandwidth(values: &[f64], bandwidth: f64) -> Option<Self> {
        assert!(bandwidth > 0.0, "bandwidth must be positive");
        let data: Vec<f64> = values.iter().copied().filter(|v| !v.is_nan()).collect();
        if data.is_empty() {
            return None;
        }
        Some(Self { data, bandwidth })
    }

    /// The bandwidth in use.
    pub fn bandwidth(&self) -> f64 {
        self.bandwidth
    }

    /// Density estimate at `x`.
    pub fn density(&self, x: f64) -> f64 {
        let h = self.bandwidth;
        let norm = 1.0 / ((2.0 * std::f64::consts::PI).sqrt() * h * self.data.len() as f64);
        self.data
            .iter()
            .map(|&xi| (-0.5 * ((x - xi) / h).powi(2)).exp())
            .sum::<f64>()
            * norm
    }

    /// Density evaluated on a uniform grid of `points` spanning the data
    /// range padded by 3 bandwidths. Returns `(xs, densities)`.
    ///
    /// The densities come from a binned approximation (Silverman 1982,
    /// Wand 1994): each value is split linearly between the two nearest
    /// nodes of a fine grid that refines the output grid, and every output
    /// node sums the bins within 8 bandwidths against one precomputed
    /// kernel table. With the fine spacing at most `h/16` the
    /// result is within 5·10⁻⁴ of the curve's peak of [`Kde::density`], the
    /// exact sum, which stays the oracle. Bins are kept sparse, so scratch
    /// memory is `O(n + points)` whatever the range or the bandwidth.
    pub fn grid(&self, points: usize) -> (Vec<f64>, Vec<f64>) {
        let binned = self.bin(points);
        let norm =
            1.0 / ((2.0 * std::f64::consts::PI).sqrt() * self.bandwidth * self.data.len() as f64);
        let reach = binned.table.len() as u64 - 1;
        let mut first = 0;
        let ds = (0..points as u64)
            .map(|i| {
                let centre = i * binned.refine;
                let lo = centre.saturating_sub(reach);
                while binned.bins.get(first).is_some_and(|&(j, _)| j < lo) {
                    first += 1;
                }
                // ascending fine index: one fixed summation order
                binned.bins[first..]
                    .iter()
                    .take_while(|&&(j, _)| j <= centre + reach)
                    .map(|&(j, w)| w * binned.table[j.abs_diff(centre) as usize])
                    .sum::<f64>()
                    * norm
            })
            .collect();
        (binned.xs, ds)
    }

    /// The output grid, the sparse linear bins of the data on the fine grid
    /// under it, and the kernel table — everything [`Kde::grid`] allocates.
    fn bin(&self, points: usize) -> Binned {
        let h = self.bandwidth;
        let mut sorted = self.data.clone();
        sorted.sort_unstable_by(f64::total_cmp);
        let min = sorted[0] - 3.0 * h;
        let max = sorted[sorted.len() - 1] + 3.0 * h;
        let steps = (points.max(2) - 1) as f64;
        let step = (max - min) / steps;
        let xs: Vec<f64> = (0..points).map(|i| min + i as f64 * step).collect();

        // output node i is fine node i·refine, and a grid already finer
        // than h/16 is its own fine grid. A grid of zero width (a bandwidth
        // below the data's float spacing) or a non-finite fit has every
        // output node on fine node 0 and yields what the exact sum does
        // there: the one common value, or NaNs.
        let refine = (step / (h / FINE_PER_BANDWIDTH)).ceil();
        let most = (MAX_FINE_NODES / steps).floor();
        let refine = if refine > most { most } else { refine };
        let (refine, delta) = if refine >= 1.0 {
            (refine as u64, step / refine)
        } else {
            (0, h / FINE_PER_BANDWIDTH)
        };

        // sorted values visit fine nodes in ascending order, so a value's
        // two bins are either the last ones pushed or new ones: at most
        // 2n bins, each summed in value order
        let mut bins: Vec<(u64, f64)> = Vec::new();
        for &x in &sorted {
            let t = ((x - min) / delta).min(MAX_FINE_NODES);
            let node = t.floor();
            let (node, right) = (node as u64, t - node);
            for (j, w) in [(node, 1.0 - right), (node + 1, right)] {
                match bins.iter_mut().rev().take(2).find(|(k, _)| *k == j) {
                    Some((_, sum)) => *sum += w,
                    None => bins.push((j, w)),
                }
            }
        }

        // no bin is farther from an output node than the grid is wide
        let reach = (CUTOFF * h / delta).floor().min(steps * refine as f64);
        let table = (0..=reach as usize)
            .map(|m| (-0.5 * (m as f64 * delta / h).powi(2)).exp())
            .collect();
        Binned {
            xs,
            refine,
            bins,
            table,
        }
    }

    /// `(bins, kernel table entries)` that [`Kde::grid`] allocates for
    /// `points` — lets tests pin the memory bound.
    #[doc(hidden)]
    pub fn grid_scratch(&self, points: usize) -> (usize, usize) {
        let binned = self.bin(points);
        (binned.bins.len(), binned.table.len())
    }

    /// Counts local maxima of the KDE on a grid, ignoring peaks whose height
    /// is below `min_height_frac` of the tallest peak. A robust mode counter.
    pub fn count_modes(&self, grid_points: usize, min_height_frac: f64) -> usize {
        let (_, ds) = self.grid(grid_points);
        let peak = ds.iter().copied().fold(0.0f64, f64::max);
        if peak <= 0.0 {
            return 0;
        }
        let mut modes = 0;
        for i in 1..ds.len().saturating_sub(1) {
            if ds[i] > ds[i - 1] && ds[i] >= ds[i + 1] && ds[i] >= min_height_frac * peak {
                modes += 1;
            }
        }
        modes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foresight_data::datasets::dist::normal_quantile;

    fn normal_sample(n: usize) -> Vec<f64> {
        (1..n)
            .map(|i| normal_quantile(i as f64 / n as f64))
            .collect()
    }

    #[test]
    fn density_integrates_to_one() {
        let kde = Kde::fit(&normal_sample(500)).unwrap();
        let (xs, ds) = kde.grid(400);
        let step = xs[1] - xs[0];
        let integral: f64 = ds.iter().map(|d| d * step).sum();
        assert!((integral - 1.0).abs() < 0.01, "integral {integral}");
    }

    #[test]
    fn normal_has_one_mode() {
        let kde = Kde::fit(&normal_sample(1000)).unwrap();
        assert_eq!(kde.count_modes(256, 0.1), 1);
    }

    #[test]
    fn separated_mixture_has_two_modes() {
        let mut data = normal_sample(400);
        data.extend(normal_sample(400).iter().map(|v| v + 8.0));
        let kde = Kde::fit(&data).unwrap();
        assert_eq!(kde.count_modes(512, 0.1), 2);
    }

    #[test]
    fn density_peaks_at_data_mass() {
        let kde = Kde::fit(&normal_sample(500)).unwrap();
        assert!(kde.density(0.0) > kde.density(2.5));
        assert!(kde.density(0.0) > kde.density(-2.5));
    }

    #[test]
    fn degenerate_inputs() {
        assert!(Kde::fit(&[]).is_none());
        assert!(Kde::fit(&[f64::NAN]).is_none());
        assert!(Kde::fit(&[1.0, 1.0, 1.0]).is_none());
        assert!(Kde::with_bandwidth(&[1.0, 1.0], 0.5).is_some());
    }

    #[test]
    fn grid_survives_degenerate_fits() {
        // bandwidth below the float spacing: the grid has zero width
        let kde = Kde::with_bandwidth(&[1e300, 1e300], 1.0).unwrap();
        let (xs, ds) = kde.grid(8);
        assert!(xs.iter().all(|&x| x == 1e300));
        assert!(ds.iter().all(|&d| d == kde.density(1e300)));
        // fewer than two points
        let kde = Kde::with_bandwidth(&[0.0, 1.0], 0.5).unwrap();
        assert_eq!(kde.grid(0), (vec![], vec![]));
        let (xs, ds) = kde.grid(1);
        assert_eq!(xs, [-1.5]);
        assert!((ds[0] - kde.density(-1.5)).abs() < 1e-6);
        // infinite values and bandwidths give NaNs, not a panic or a table
        // sized by them
        for kde in [
            Kde::fit(&[0.0, 1.0, f64::INFINITY]).unwrap(),
            Kde::with_bandwidth(&[f64::NEG_INFINITY, 0.0, 1.0], 0.5).unwrap(),
            Kde::with_bandwidth(&[0.0, 1.0], f64::INFINITY).unwrap(),
        ] {
            assert_eq!(kde.grid(64).1.len(), 64);
            let (bins, table) = kde.grid_scratch(64);
            assert!(
                bins <= 6 && table <= 64 + 257,
                "{bins} bins, {table} entries"
            );
        }
    }

    #[test]
    fn explicit_bandwidth_respected() {
        let kde = Kde::with_bandwidth(&[0.0, 10.0], 1.0).unwrap();
        assert_eq!(kde.bandwidth(), 1.0);
        // with narrow bandwidth the two points are separate modes
        assert_eq!(kde.count_modes(512, 0.1), 2);
    }
}
