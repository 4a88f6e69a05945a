//! Shared helpers for building charts from table columns.

use crate::class::column_name;
use crate::types::AttrTuple;
use foresight_data::{PresenceMask, Table};
use foresight_stats::correlation::{pearson_centered, PairScratch};
use foresight_stats::histogram::{BinRule, Histogram};
use foresight_stats::prepared::{PreparedColumns, Transform};
use foresight_viz::{ChartKind, ChartSpec, HistogramSpec, ScatterSpec};
use std::collections::HashMap;

/// The pairwise-deletion form of a correlation: raw columns, their presence
/// masks, one shared compaction scratch ([`pearson_masked`] /
/// [`spearman_masked`]).
///
/// [`pearson_masked`]: foresight_stats::correlation::pearson_masked
/// [`spearman_masked`]: foresight_stats::correlation::spearman_masked
pub(crate) type MaskedCorrelation =
    fn(&[f64], &[f64], &PresenceMask, &PresenceMask, &mut PairScratch) -> f64;

/// Signed correlations of a batch of column pairs, `None` where the pair is
/// not two numeric columns or the coefficient is not finite.
///
/// Each column's `transform` comes from `prepared` (built once per column,
/// shared across pairs and — when the store outlives the call — across
/// queries); a pair of prepared columns is then one fused dot product,
/// bit-identical to the per-pair coefficient (see
/// [`CenteredColumn`](foresight_stats::correlation::CenteredColumn)).
/// Columns with missing values cannot share the transform (pairwise
/// deletion makes it pair-dependent): pairs touching them take `masked`,
/// driven by one presence mask per column and one compaction scratch, so
/// neither path allocates per pair.
pub(crate) fn correlation_batch(
    table: &Table,
    attrs: &[AttrTuple],
    prepared: &PreparedColumns,
    transform: Transform,
    masked: MaskedCorrelation,
) -> Vec<Option<f64>> {
    let mut masks: HashMap<usize, PresenceMask> = HashMap::new();
    let mut scratch = PairScratch::new();
    attrs
        .iter()
        .map(|a| {
            let AttrTuple::Two(i, j) = *a else {
                return None;
            };
            let rho = match (
                prepared.get(table, i, transform),
                prepared.get(table, j, transform),
            ) {
                (Some(cx), Some(cy)) => pearson_centered(cx, cy),
                _ => {
                    let x = table.numeric(i).ok()?.values();
                    let y = table.numeric(j).ok()?.values();
                    for (idx, col) in [(i, x), (j, y)] {
                        masks
                            .entry(idx)
                            .or_insert_with(|| PresenceMask::from_values(col));
                    }
                    masked(x, y, &masks[&i], &masks[&j], &mut scratch)
                }
            };
            rho.is_finite().then_some(rho)
        })
        .collect()
}

/// Builds a histogram chart of one numeric column.
pub fn histogram_chart(table: &Table, idx: usize, title: String) -> Option<ChartSpec> {
    let col = table.numeric(idx).ok()?;
    let h = Histogram::build(col.values(), BinRule::FreedmanDiaconis)?;
    Some(ChartSpec {
        title,
        x_label: column_name(table, idx).to_owned(),
        y_label: "count".to_owned(),
        kind: ChartKind::Histogram(HistogramSpec {
            min: h.min(),
            max: h.max(),
            counts: h.counts().to_vec(),
        }),
    })
}

/// Deterministically samples up to `cap` pairwise-complete `(x, y)` points
/// (every ⌈n/cap⌉-th complete row), preserving the joint distribution shape
/// for scatter previews.
pub fn sampled_points(table: &Table, xi: usize, yi: usize, cap: usize) -> Vec<[f64; 2]> {
    let Ok(x) = table.numeric(xi) else {
        return Vec::new();
    };
    let Ok(y) = table.numeric(yi) else {
        return Vec::new();
    };
    let complete: Vec<[f64; 2]> = x
        .values()
        .iter()
        .zip(y.values())
        .filter(|(a, b)| !a.is_nan() && !b.is_nan())
        .map(|(&a, &b)| [a, b])
        .collect();
    if complete.len() <= cap {
        return complete;
    }
    let step = complete.len().div_ceil(cap);
    complete.into_iter().step_by(step).collect()
}

/// Builds a scatter chart of two numeric columns with an optional fit line.
pub fn scatter_chart(
    table: &Table,
    xi: usize,
    yi: usize,
    title: String,
    with_fit: bool,
) -> Option<ChartSpec> {
    let points = sampled_points(table, xi, yi, 500);
    let fit = if with_fit {
        foresight_stats::regression::linear_fit(
            table.numeric(xi).ok()?.values(),
            table.numeric(yi).ok()?.values(),
        )
        .map(|f| (f.slope, f.intercept))
    } else {
        None
    };
    Some(ChartSpec {
        title,
        x_label: column_name(table, xi).to_owned(),
        y_label: column_name(table, yi).to_owned(),
        kind: ChartKind::Scatter(ScatterSpec { points, fit }),
    })
}

/// Deterministically downsamples the present values of a column to at most
/// `cap` points (every ⌈n/cap⌉-th), preserving distribution shape — used to
/// bound KDE/dip costs on large columns.
pub fn downsample_present(values: &[f64], cap: usize) -> Vec<f64> {
    let present: Vec<f64> = values.iter().copied().filter(|v| !v.is_nan()).collect();
    if present.len() <= cap {
        return present;
    }
    let step = present.len().div_ceil(cap);
    present.into_iter().step_by(step).collect()
}

/// Compact human formatting for metric values: trims trailing zeros and
/// switches to scientific notation outside [1e-3, 1e6).
pub fn fmt_compact(v: f64) -> String {
    if !v.is_finite() {
        return format!("{v}");
    }
    let a = v.abs();
    if a != 0.0 && !(1e-3..1e6).contains(&a) {
        format!("{v:.2e}")
    } else {
        let s = format!("{v:.3}");
        s.trim_end_matches('0').trim_end_matches('.').to_owned()
    }
}

/// All unordered pairs of the given indices, as `(a, b)` with `a < b`.
pub fn pairs(indices: &[usize]) -> Vec<(usize, usize)> {
    let mut out = Vec::with_capacity(indices.len() * indices.len().saturating_sub(1) / 2);
    for (i, &a) in indices.iter().enumerate() {
        for &b in &indices[i + 1..] {
            out.push((a.min(b), a.max(b)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use foresight_data::TableBuilder;

    fn table() -> Table {
        TableBuilder::new("t")
            .numeric("x", (0..100).map(|i| i as f64).collect())
            .numeric("y", (0..100).map(|i| (2 * i) as f64).collect())
            .build()
            .unwrap()
    }

    #[test]
    fn histogram_chart_builds() {
        let c = histogram_chart(&table(), 0, "h".into()).unwrap();
        assert_eq!(c.kind_name(), "histogram");
        assert_eq!(c.x_label, "x");
    }

    #[test]
    fn sampling_caps_and_keeps_pairs() {
        let pts = sampled_points(&table(), 0, 1, 10);
        assert!(pts.len() <= 10 && pts.len() >= 5);
        for [x, y] in pts {
            assert_eq!(y, 2.0 * x);
        }
    }

    #[test]
    fn scatter_chart_with_fit() {
        let c = scatter_chart(&table(), 0, 1, "s".into(), true).unwrap();
        match c.kind {
            ChartKind::Scatter(s) => {
                let (slope, _) = s.fit.unwrap();
                assert!((slope - 2.0).abs() < 1e-9);
            }
            _ => panic!("wrong kind"),
        }
    }

    #[test]
    fn downsampling_caps_and_preserves_shape() {
        let values: Vec<f64> = (0..10_000).map(|i| i as f64).collect();
        let d = downsample_present(&values, 500);
        assert!(d.len() <= 500 && d.len() >= 250);
        assert!(d.windows(2).all(|w| w[0] < w[1]));
        let with_nan = vec![1.0, f64::NAN, 3.0];
        assert_eq!(downsample_present(&with_nan, 10), vec![1.0, 3.0]);
    }

    #[test]
    fn compact_formatting() {
        assert_eq!(fmt_compact(211_570_959.9), "2.12e8");
        assert_eq!(fmt_compact(3.5), "3.5");
        assert_eq!(fmt_compact(0.25), "0.25");
        assert_eq!(fmt_compact(0.0), "0");
        assert_eq!(fmt_compact(0.0001), "1.00e-4");
    }

    #[test]
    fn pairs_enumeration() {
        assert_eq!(pairs(&[1, 2, 3]), vec![(1, 2), (1, 3), (2, 3)]);
        assert!(pairs(&[7]).is_empty());
    }
}
