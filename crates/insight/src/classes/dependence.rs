//! The **General Statistical Dependence** insight — named in the paper's
//! "additional insights". Covers all column-type combinations with a
//! normalized dependence strength in [0, 1]:
//!
//! * numeric × numeric — normalized binned mutual information;
//! * categorical × categorical — Cramér's V;
//! * numeric × categorical — the correlation ratio η² (fraction of the
//!   numeric variance explained by the categories).

use crate::class::{column_name, CandidatePruning, InsightClass};
use crate::classes::dispersion::overview_bar;
use crate::types::AttrTuple;
use crate::util::{pairs, scatter_chart};
use foresight_data::{ColumnType, Table};
use foresight_stats::dependence::{binned_mutual_information, BinnedColumn, ContingencyTable};
use foresight_stats::histogram::BinRule;
use foresight_viz::{ChartKind, ChartSpec, GroupedScatterSpec, ParetoSpec};
use std::collections::HashMap;

/// Equal-width bins per numeric column for the mutual-information estimate.
const MI_BINS: usize = 16;

/// The statistical-dependence insight class.
#[derive(Debug, Default, Clone, Copy)]
pub struct StatisticalDependence;

/// The correlation ratio η²: between-group variance / total variance of a
/// numeric column grouped by a categorical one.
pub fn correlation_ratio(table: &Table, num_idx: usize, cat_idx: usize) -> Option<f64> {
    let num = table.numeric(num_idx).ok()?;
    let cat = table.categorical(cat_idx).ok()?;
    let k = cat.cardinality();
    // identifier-like columns (average group size below ~3) make η²
    // trivially 1: every value is its own group. Not an insight.
    if k < 2 || 3 * k > cat.len() {
        return None;
    }
    let mut sums = vec![0.0f64; k];
    let mut counts = vec![0u64; k];
    let mut total_sum = 0.0;
    let mut total_n = 0u64;
    for (v, &code) in num.values().iter().zip(cat.codes()) {
        if !v.is_nan() && code != foresight_data::column::NULL_CODE {
            sums[code as usize] += v;
            counts[code as usize] += 1;
            total_sum += v;
            total_n += 1;
        }
    }
    if total_n < 2 {
        return None;
    }
    let grand_mean = total_sum / total_n as f64;
    let mut between = 0.0;
    for (s, &c) in sums.iter().zip(&counts) {
        if c > 0 {
            let mean = s / c as f64;
            between += c as f64 * (mean - grand_mean) * (mean - grand_mean);
        }
    }
    let mut total_var = 0.0;
    for (v, &code) in num.values().iter().zip(cat.codes()) {
        if !v.is_nan() && code != foresight_data::column::NULL_CODE {
            total_var += (v - grand_mean) * (v - grand_mean);
        }
    }
    if total_var <= 0.0 {
        return None;
    }
    Some((between / total_var).clamp(0.0, 1.0))
}

impl InsightClass for StatisticalDependence {
    fn id(&self) -> &'static str {
        "statistical-dependence"
    }

    fn name(&self) -> &'static str {
        "Statistical Dependence"
    }

    fn description(&self) -> &'static str {
        "Two attributes are statistically dependent, linearly or not"
    }

    fn metric(&self) -> &'static str {
        "normalized dependence"
    }

    fn candidates(&self, table: &Table) -> Vec<AttrTuple> {
        let all: Vec<usize> = (0..table.n_cols()).collect();
        pairs(&all)
            .into_iter()
            .map(|(a, b)| AttrTuple::Two(a, b))
            .collect()
    }

    fn pruning(&self) -> CandidatePruning {
        CandidatePruning::AllPairs
    }

    fn score(&self, table: &Table, attrs: &AttrTuple) -> Option<f64> {
        let AttrTuple::Two(i, j) = attrs else {
            return None;
        };
        let ti = table.column(*i).ok()?.column_type();
        let tj = table.column(*j).ok()?.column_type();
        match (ti, tj) {
            (ColumnType::Numeric, ColumnType::Numeric) => {
                let mi = binned_mutual_information(
                    table.numeric(*i).ok()?.values(),
                    table.numeric(*j).ok()?.values(),
                    BinRule::Fixed(MI_BINS),
                );
                mi.is_finite().then_some(mi)
            }
            (ColumnType::Categorical, ColumnType::Categorical) => {
                let a = table.categorical(*i).ok()?;
                let b = table.categorical(*j).ok()?;
                // identifier-like columns make V trivially 1 (see η² note)
                if 3 * a.cardinality() > a.len() || 3 * b.cardinality() > b.len() {
                    return None;
                }
                let v = ContingencyTable::new(a, b).cramers_v();
                v.is_finite().then_some(v)
            }
            (ColumnType::Numeric, ColumnType::Categorical) => correlation_ratio(table, *i, *j),
            (ColumnType::Categorical, ColumnType::Numeric) => correlation_ratio(table, *j, *i),
        }
    }

    fn score_batch(&self, table: &Table, attrs: &[AttrTuple]) -> Vec<Option<f64>> {
        // bin each distinct complete column of a numeric pair once; the
        // pair is then one joint count over two code slices. Columns with
        // missing values bin differently per pair (pairwise deletion can
        // move the range), so pairs touching them — and every pair with a
        // categorical side, whose numeric partner is not worth binning for
        // it — take the per-pair `score`.
        let mut binned: HashMap<usize, Option<BinnedColumn>> = HashMap::new();
        for a in attrs {
            let AttrTuple::Two(i, j) = a else { continue };
            if let (Ok(x), Ok(y)) = (table.numeric(*i), table.numeric(*j)) {
                for (idx, col) in [(*i, x), (*j, y)] {
                    binned
                        .entry(idx)
                        .or_insert_with(|| BinnedColumn::complete(col.values(), MI_BINS));
                }
            }
        }
        attrs
            .iter()
            .map(|a| match a {
                AttrTuple::Two(i, j) => match (binned.get(i), binned.get(j)) {
                    (Some(Some(x)), Some(Some(y))) => {
                        let mi = x.mutual_information(y);
                        mi.is_finite().then_some(mi)
                    }
                    _ => self.score(table, a),
                },
                _ => self.score(table, a),
            })
            .collect()
    }

    fn chart(&self, table: &Table, attrs: &AttrTuple) -> Option<ChartSpec> {
        let AttrTuple::Two(i, j) = attrs else {
            return None;
        };
        let score = self.score(table, attrs)?;
        let ti = table.column(*i).ok()?.column_type();
        let tj = table.column(*j).ok()?.column_type();
        let title = format!(
            "{} × {} (dependence {:.2})",
            column_name(table, *i),
            column_name(table, *j),
            score
        );
        match (ti, tj) {
            (ColumnType::Numeric, ColumnType::Numeric) => {
                scatter_chart(table, *i, *j, title, false)
            }
            (ColumnType::Categorical, ColumnType::Categorical) => {
                // Pareto of the most frequent label combinations
                let a = table.categorical(*i).ok()?;
                let b = table.categorical(*j).ok()?;
                let mut counts: std::collections::HashMap<(u32, u32), u64> = Default::default();
                for (&ca, &cb) in a.codes().iter().zip(b.codes()) {
                    if ca != foresight_data::column::NULL_CODE
                        && cb != foresight_data::column::NULL_CODE
                    {
                        *counts.entry((ca, cb)).or_insert(0) += 1;
                    }
                }
                let total: u64 = counts.values().sum();
                let mut bars: Vec<(String, u64)> = counts
                    .into_iter()
                    .map(|((ca, cb), n)| {
                        (
                            format!("{} × {}", a.labels()[ca as usize], b.labels()[cb as usize]),
                            n,
                        )
                    })
                    .collect();
                bars.sort_by(|x, y| y.1.cmp(&x.1).then_with(|| x.0.cmp(&y.0)));
                bars.truncate(12);
                Some(ChartSpec {
                    title,
                    x_label: "combination".to_owned(),
                    y_label: "count".to_owned(),
                    kind: ChartKind::Pareto(ParetoSpec { bars, total }),
                })
            }
            _ => {
                // numeric × categorical: grouped 1-D scatter (value vs group)
                let (num_idx, cat_idx) = if ti == ColumnType::Numeric {
                    (*i, *j)
                } else {
                    (*j, *i)
                };
                let num = table.numeric(num_idx).ok()?;
                let cat = table.categorical(cat_idx).ok()?;
                let mut points = Vec::new();
                let mut group_of = Vec::new();
                for (v, &code) in num.values().iter().zip(cat.codes()) {
                    if !v.is_nan() && code != foresight_data::column::NULL_CODE {
                        points.push([code as f64, *v]);
                        group_of.push(code as usize);
                    }
                    if points.len() >= 500 {
                        break;
                    }
                }
                Some(ChartSpec {
                    title,
                    x_label: column_name(table, cat_idx).to_owned(),
                    y_label: column_name(table, num_idx).to_owned(),
                    kind: ChartKind::GroupedScatter(GroupedScatterSpec {
                        points,
                        group_of,
                        groups: cat.labels().to_vec(),
                    }),
                })
            }
        }
    }

    fn overview(&self, table: &Table) -> Option<ChartSpec> {
        overview_bar(self, table, "Dependence strength by attribute pair")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foresight_data::TableBuilder;

    fn table() -> Table {
        let x: Vec<f64> = (-150..150).map(|i| i as f64 / 30.0).collect();
        let parabola: Vec<f64> = x.iter().map(|v| v * v).collect();
        let cat_a: Vec<String> = (0..300).map(|i| format!("g{}", i % 3)).collect();
        let cat_b: Vec<String> = (0..300).map(|i| format!("h{}", i % 3)).collect(); // = cat_a relabeled
        let cat_rand: Vec<String> = (0..300).map(|i| format!("r{}", (i * 7) % 5)).collect();
        let grouped: Vec<f64> = (0..300).map(|i| (i % 3) as f64 * 10.0).collect();
        TableBuilder::new("t")
            .numeric("x", x)
            .numeric("parabola", parabola)
            .categorical("cat_a", cat_a.iter().map(String::as_str))
            .categorical("cat_b", cat_b.iter().map(String::as_str))
            .categorical("cat_rand", cat_rand.iter().map(String::as_str))
            .numeric("grouped", grouped)
            .build()
            .unwrap()
    }

    #[test]
    fn nonlinear_dependence_detected() {
        let d = StatisticalDependence;
        let t = table();
        let mi = d.score(&t, &AttrTuple::Two(0, 1)).unwrap();
        assert!(mi > 0.4, "mi {mi}");
        // Pearson would see ~nothing
        let rho = foresight_stats::correlation::pearson(
            t.numeric(0).unwrap().values(),
            t.numeric(1).unwrap().values(),
        );
        assert!(rho.abs() < 0.1);
    }

    #[test]
    fn cat_cat_perfect_dependence() {
        let d = StatisticalDependence;
        let t = table();
        let v = d.score(&t, &AttrTuple::Two(2, 3)).unwrap();
        assert!((v - 1.0).abs() < 1e-9, "v {v}");
        let weak = d.score(&t, &AttrTuple::Two(2, 4)).unwrap();
        assert!(weak < 0.3, "weak {weak}");
    }

    #[test]
    fn correlation_ratio_mixed_pair() {
        let d = StatisticalDependence;
        let t = table();
        // grouped is a deterministic function of cat_a → η² = 1
        let eta = d.score(&t, &AttrTuple::Two(2, 5)).unwrap();
        assert!((eta - 1.0).abs() < 1e-9, "eta {eta}");
        // order independence
        assert_eq!(
            d.score(&t, &AttrTuple::Two(2, 5)),
            Some(correlation_ratio(&t, 5, 2).unwrap())
        );
    }

    #[test]
    fn identifier_columns_rejected() {
        // a column where every row is its own category is not dependence
        let ids: Vec<String> = (0..60).map(|i| format!("id{i}")).collect();
        let t = TableBuilder::new("t")
            .numeric("x", (0..60).map(|i| i as f64).collect())
            .categorical("id", ids.iter().map(String::as_str))
            .categorical("ok", (0..60).map(|i| if i % 2 == 0 { "a" } else { "b" }))
            .build()
            .unwrap();
        let d = StatisticalDependence;
        assert!(d.score(&t, &AttrTuple::Two(0, 1)).is_none());
        assert!(d.score(&t, &AttrTuple::Two(1, 2)).is_none());
    }

    #[test]
    fn candidates_cover_all_type_combinations() {
        let d = StatisticalDependence;
        let t = table();
        let c = d.candidates(&t);
        assert_eq!(c.len(), 6 * 5 / 2);
    }

    #[test]
    fn charts_match_type_combination() {
        let d = StatisticalDependence;
        let t = table();
        assert_eq!(
            d.chart(&t, &AttrTuple::Two(0, 1)).unwrap().kind_name(),
            "scatter"
        );
        assert_eq!(
            d.chart(&t, &AttrTuple::Two(2, 3)).unwrap().kind_name(),
            "pareto"
        );
        assert_eq!(
            d.chart(&t, &AttrTuple::Two(2, 5)).unwrap().kind_name(),
            "grouped-scatter"
        );
    }
}
