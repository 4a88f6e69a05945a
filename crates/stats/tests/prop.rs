//! Property-based tests for the exact statistics.

use foresight_data::datasets::dist::normal_quantile;
use foresight_data::datasets::{oecd, synth, SynthConfig};
use foresight_stats::correlation::{pearson, spearman};
use foresight_stats::kde::Kde;
use foresight_stats::moments::Moments;
use foresight_stats::multimodal::dip_statistic;
use foresight_stats::quantile::{quantile, rank_of};
use foresight_stats::rank::fractional_ranks;
use proptest::prelude::*;

fn data(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-1e6f64..1e6, 2..max_len)
}

proptest! {
    #[test]
    fn moments_merge_associative(a in data(50), b in data(50), c in data(50)) {
        // (a ⊕ b) ⊕ c == summary of concatenation, within float tolerance
        let mut left = Moments::from_slice(&a);
        left.merge(&Moments::from_slice(&b));
        left.merge(&Moments::from_slice(&c));
        let all: Vec<f64> = a.iter().chain(&b).chain(&c).copied().collect();
        let whole = Moments::from_slice(&all);
        prop_assert_eq!(left.count(), whole.count());
        prop_assert!((left.mean() - whole.mean()).abs() <= whole.mean().abs() * 1e-9 + 1e-9);
        let (va, vb) = (left.population_variance(), whole.population_variance());
        prop_assert!((va - vb).abs() <= vb.abs() * 1e-6 + 1e-6, "var {} vs {}", va, vb);
    }

    #[test]
    fn moments_min_max_exact(values in data(100)) {
        let m = Moments::from_slice(&values);
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(m.min(), lo);
        prop_assert_eq!(m.max(), hi);
        prop_assert!(m.population_variance() >= 0.0);
    }

    #[test]
    fn ranks_are_a_permutation_average(values in data(80)) {
        let ranks = fractional_ranks(&values);
        let sum: f64 = ranks.iter().sum();
        let n = values.len() as f64;
        prop_assert!((sum - n * (n + 1.0) / 2.0).abs() < 1e-6);
        // ranks are order-consistent
        for i in 0..values.len() {
            for j in 0..values.len() {
                if values[i] < values[j] {
                    prop_assert!(ranks[i] < ranks[j]);
                }
            }
        }
    }

    #[test]
    fn correlations_bounded_and_symmetric(pairs in proptest::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 3..60)) {
        let x: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let y: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        let r = pearson(&x, &y);
        if r.is_finite() {
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r));
            prop_assert!((r - pearson(&y, &x)).abs() < 1e-12);
        }
        let s = spearman(&x, &y);
        if s.is_finite() {
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&s));
        }
    }

    #[test]
    fn pearson_affine_invariant(values in data(50), a in 0.1f64..10.0, b in -100.0f64..100.0) {
        let y: Vec<f64> = values.iter().map(|v| a * v + b).collect();
        let r = pearson(&values, &y);
        if r.is_finite() {
            prop_assert!((r - 1.0).abs() < 1e-6, "r = {}", r);
        }
    }

    #[test]
    fn quantiles_monotone(values in data(100), q1 in 0.0f64..1.0, q2 in 0.0f64..1.0) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let a = quantile(&values, lo).unwrap();
        let b = quantile(&values, hi).unwrap();
        prop_assert!(a <= b);
        // quantile is always within the data range
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(a >= min && b <= max);
    }

    #[test]
    fn rank_of_quantile_consistent(values in data(100), q in 0.05f64..0.95) {
        let v = quantile(&values, q).unwrap();
        let r = rank_of(&values, v);
        // type-7 interpolation guarantees count(≤ v) ≥ ⌊q(n−1)⌋ + 1,
        // i.e. rank ≥ q − 1/n
        let n = values.len() as f64;
        prop_assert!(r + 1.0 / n + 1e-9 >= q, "rank {} < q {} - 1/n", r, q);
    }

    #[test]
    fn dip_bounds(values in data(100)) {
        let d = dip_statistic(&values).unwrap();
        let n = values.len() as f64;
        prop_assert!(d <= 0.25 + 1e-12, "dip {}", d);
        // distinct-value samples respect the floor; ties can push below it
        let mut sorted = values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        sorted.dedup();
        if sorted.len() == values.len() {
            prop_assert!(d + 1e-12 >= 1.0 / (2.0 * n), "dip {}", d);
        }
    }

    #[test]
    fn dip_translation_and_scale_invariant(values in data(60), shift in -1e3f64..1e3, scale in 0.1f64..10.0) {
        let transformed: Vec<f64> = values.iter().map(|v| v * scale + shift).collect();
        let d1 = dip_statistic(&values).unwrap();
        let d2 = dip_statistic(&transformed).unwrap();
        prop_assert!((d1 - d2).abs() < 1e-9, "{} vs {}", d1, d2);
    }
}

// ---- the binned KDE against its oracle, the exact pointwise sum ----

/// `Kde::grid`'s abscissae as the direct evaluation laid them out.
fn direct_xs(data: &[f64], h: f64, points: usize) -> Vec<f64> {
    let min = data.iter().copied().fold(f64::INFINITY, f64::min) - 3.0 * h;
    let max = data.iter().copied().fold(f64::NEG_INFINITY, f64::max) + 3.0 * h;
    let step = (max - min) / (points.max(2) - 1) as f64;
    (0..points).map(|i| min + i as f64 * step).collect()
}

/// `Kde::count_modes`' rule: the interior nodes that top both neighbours
/// and reach `min_height_frac` of the tallest node.
fn mode_nodes(ds: &[f64], min_height_frac: f64) -> Vec<usize> {
    let peak = ds.iter().copied().fold(0.0f64, f64::max);
    (1..ds.len().saturating_sub(1))
        .filter(|&i| ds[i] > ds[i - 1] && ds[i] >= ds[i + 1] && ds[i] >= min_height_frac * peak)
        .collect()
}

/// The exact sums on `Kde::grid`'s abscissae.
fn direct_grid(kde: &Kde, data: &[f64], points: usize) -> Vec<f64> {
    direct_xs(data, kde.bandwidth(), points)
        .iter()
        .map(|&x| kde.density(x))
        .collect()
}

/// How a [`kde_sample`] is shaped.
#[derive(Debug, Clone)]
struct SampleShape {
    seed: u64,
    n: usize,
    components: usize,
    heavy_tails: bool,
    duplicates: bool,
    nan_holes: bool,
    outlier: bool,
    /// `with_bandwidth(range · 10^-x)`; `None` fits Silverman's rule.
    bandwidth_exp: Option<f64>,
}

fn sample_shape() -> impl Strategy<Value = SampleShape> {
    let n = prop_oneof![Just(1usize), Just(2usize), Just(17usize), Just(2_000usize)];
    let flags = (0u8..2, 0u8..2, 0u8..2, 0u8..2);
    let bandwidth = prop_oneof![Just(None), (0.0f64..4.0).prop_map(Some)];
    (0u64..u64::MAX, n, 1usize..5, flags, bandwidth).prop_map(
        |(seed, n, components, (tails, dups, nans, outlier), bandwidth_exp)| SampleShape {
            seed,
            n,
            components,
            heavy_tails: tails == 1,
            duplicates: dups == 1,
            nan_holes: nans == 1,
            outlier: outlier == 1,
            bandwidth_exp,
        },
    )
}

/// A mixture of `components` normals (Cauchy when heavy-tailed) with
/// random centres and scales, optionally rounded into duplicates, holed
/// with NaNs and given one value 10⁶ scales away.
fn kde_sample(shape: &SampleShape) -> Vec<f64> {
    let mut rng = TestRng::new(shape.seed);
    let parts: Vec<(f64, f64)> = (0..shape.components)
        .map(|_| (rng.unit_f64() * 20.0 - 10.0, 0.05 + rng.unit_f64() * 2.0))
        .collect();
    let mut out: Vec<f64> = (0..shape.n)
        .map(|_| {
            let (centre, scale) = parts[rng.below(parts.len() as u64) as usize];
            let u = rng.unit_f64().clamp(1e-9, 1.0 - 1e-9);
            let z = if shape.heavy_tails {
                (std::f64::consts::PI * (u - 0.5)).tan()
            } else {
                normal_quantile(u)
            };
            let v = centre + scale * z;
            if shape.duplicates {
                (v * 4.0).round() / 4.0
            } else {
                v
            }
        })
        .collect();
    if shape.outlier {
        out[0] = 1e6 * parts[0].1;
    }
    if shape.nan_holes {
        for i in (0..shape.n).step_by(3) {
            out.insert(i, f64::NAN);
        }
    }
    out
}

/// The fit under test and the NaN-free values it holds.
fn kde_case(shape: &SampleShape) -> Option<(Kde, Vec<f64>)> {
    let values = kde_sample(shape);
    let data: Vec<f64> = values.iter().copied().filter(|v| !v.is_nan()).collect();
    let kde = match shape.bandwidth_exp {
        None => Kde::fit(&values)?,
        Some(x) => {
            let lo = data.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = data.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let range = if hi > lo { hi - lo } else { 1.0 };
            Kde::with_bandwidth(&values, range * 10f64.powf(-x))?
        }
    };
    Some((kde, data))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    #[test]
    fn binned_kde_grid_matches_the_exact_sum(shape in sample_shape()) {
        let Some((kde, data)) = kde_case(&shape) else { return Ok(()); };
        let h = kde.bandwidth();
        // a lower bound on the curve's peak: the exact density at a spread
        // of the data points, and at every grid node below
        let stride = (data.len() / 64).max(1);
        let at_data = data.iter().step_by(stride).map(|&x| kde.density(x)).fold(0.0f64, f64::max);
        for points in [2usize, 128, 256, 512] {
            let (xs, ds) = kde.grid(points);
            let expect_xs = direct_xs(&data, h, points);
            prop_assert_eq!(
                xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                expect_xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            );
            let exact: Vec<f64> = xs.iter().map(|&x| kde.density(x)).collect();
            let step = xs[1] - xs[0];
            let tolerance = 5e-4 * exact.iter().copied().fold(at_data, f64::max);
            for (i, (d, e)) in ds.iter().zip(&exact).enumerate() {
                prop_assert!(
                    (d - e).abs() <= tolerance,
                    "points {} node {}: binned {} exact {} tolerance {}", points, i, d, e, tolerance
                );
            }
            if step <= h {
                let integral: f64 = ds.iter().map(|d| d * step).sum();
                prop_assert!((integral - 1.0).abs() < 0.01, "points {}: integral {}", points, integral);
            }
            // scratch is O(n + points) whatever the range and the bandwidth
            let (bins, table) = kde.grid_scratch(points);
            prop_assert!(bins <= 2 * data.len(), "points {}: {} bins", points, bins);
            prop_assert!(table <= points + 257, "points {}: {} table entries", points, table);
        }

        // the same modes as the exact sums show, except where the exact
        // call is itself closer than the error bound
        let (_, ds) = kde.grid(256);
        let binned = mode_nodes(&ds, 0.1);
        prop_assert_eq!(kde.count_modes(256, 0.1), binned.len());
        let exact = direct_grid(&kde, &data, 256);
        let peak = exact.iter().copied().fold(0.0f64, f64::max);
        let tolerance = 5e-4 * peak.max(at_data);
        let modes = mode_nodes(&exact, 0.1);
        for i in 1..255 {
            if binned.contains(&i) != modes.contains(&i) {
                let margin = (exact[i] - exact[i - 1])
                    .min(exact[i] - exact[i + 1])
                    .min(exact[i] - 0.1 * peak);
                prop_assert!(
                    margin.abs() <= 2.1 * tolerance,
                    "node {}: binned modes {:?}, exact {:?}, margin {}", i, binned, modes, margin
                );
            }
        }
    }
}

/// The mode count behind every multimodality caption and chart title equals
/// the one the exact sums give, on every numeric column the benchmark and
/// the demo table show (downsampled as the insight class does).
#[test]
fn binned_mode_counts_agree_with_the_exact_sums_on_the_shipped_tables() {
    let mut tables = vec![oecd()];
    for seed in [7, 101, 102, 103] {
        tables.push(synth(&SynthConfig::benchmark(10_000, 24, seed)).0);
    }
    let mut columns = 0;
    let mut differ = Vec::new();
    for table in &tables {
        for idx in table.numeric_indices() {
            let present = table.numeric(idx).unwrap().present_vec();
            let stride = present.len().div_ceil(2_000).max(1);
            let sample: Vec<f64> = present.into_iter().step_by(stride).collect();
            let Some(kde) = Kde::fit(&sample) else {
                continue;
            };
            columns += 1;
            let binned = kde.count_modes(256, 0.1);
            let exact = mode_nodes(&direct_grid(&kde, &sample, 256), 0.1).len();
            if binned != exact {
                differ.push((table.name().to_owned(), idx, binned, exact));
            }
        }
    }
    assert_eq!(columns, 120, "numeric columns fitted");
    assert!(
        differ.is_empty(),
        "{} of {columns} mode counts differ: {differ:?}",
        differ.len()
    );
}
