//! Insight 6 (paper §2.2): **Linear Relationship** — strength of a linear
//! relationship between two numeric columns, measured by `|ρ(x, y)|`
//! (Pearson) and visualized as a scatter plot with the best-fit line
//! superimposed. The class overview is the paper's Figure 2: all pairwise
//! correlations as a circle heatmap.

use crate::class::{column_name, CandidatePruning, InsightClass};
use crate::types::AttrTuple;
use crate::util::{correlation_batch, pairs, scatter_chart};
use foresight_data::Table;
use foresight_sketch::SketchCatalog;
use foresight_stats::correlation::{pearson, pearson_masked, spearman, spearman_masked};
use foresight_stats::prepared::{PreparedColumns, Transform};
use foresight_viz::{ChartKind, ChartSpec, HeatmapSpec};

/// The linear-relationship insight class.
#[derive(Debug, Default, Clone, Copy)]
pub struct LinearRelationship;

impl LinearRelationship {
    fn signed(&self, table: &Table, attrs: &AttrTuple) -> Option<f64> {
        let AttrTuple::Two(i, j) = attrs else {
            return None;
        };
        let rho = pearson(
            table.numeric(*i).ok()?.values(),
            table.numeric(*j).ok()?.values(),
        );
        rho.is_finite().then_some(rho)
    }

    /// The Figure-2 heatmap over an explicit set of numeric columns, using
    /// exact correlations.
    pub fn heatmap_exact(table: &Table, indices: &[usize]) -> Option<ChartSpec> {
        let cols: Vec<&[f64]> = indices
            .iter()
            .map(|&i| table.numeric(i).ok().map(|c| c.values()))
            .collect::<Option<Vec<_>>>()?;
        let matrix = foresight_stats::correlation::pearson_matrix(&cols);
        Some(Self::heatmap_spec(table, indices, matrix))
    }

    /// The Figure-2 heatmap with correlations estimated from the sketch
    /// catalog (`O(|B|²k)` instead of `O(|B|²n)`).
    pub fn heatmap_sketch(
        table: &Table,
        catalog: &SketchCatalog,
        indices: &[usize],
    ) -> Option<ChartSpec> {
        let matrix = catalog.correlation_matrix(indices)?;
        Some(Self::heatmap_spec(table, indices, matrix))
    }

    fn heatmap_spec(table: &Table, indices: &[usize], values: Vec<Vec<f64>>) -> ChartSpec {
        ChartSpec {
            title: "Pairwise correlations".to_owned(),
            x_label: String::new(),
            y_label: String::new(),
            kind: ChartKind::CorrelationHeatmap(HeatmapSpec {
                labels: indices
                    .iter()
                    .map(|&i| column_name(table, i).to_owned())
                    .collect(),
                values,
            }),
        }
    }
}

impl InsightClass for LinearRelationship {
    fn id(&self) -> &'static str {
        "linear-relationship"
    }

    fn name(&self) -> &'static str {
        "Linear Relationship"
    }

    fn description(&self) -> &'static str {
        "Two attributes move together along a line"
    }

    fn metric(&self) -> &'static str {
        "|pearson|"
    }

    fn alternative_metrics(&self) -> Vec<&'static str> {
        vec!["|spearman|"]
    }

    fn candidates(&self, table: &Table) -> Vec<AttrTuple> {
        pairs(&table.numeric_indices())
            .into_iter()
            .map(|(a, b)| AttrTuple::Two(a, b))
            .collect()
    }

    fn pruning(&self) -> CandidatePruning {
        CandidatePruning::NumericPairs
    }

    fn score(&self, table: &Table, attrs: &AttrTuple) -> Option<f64> {
        self.signed(table, attrs).map(f64::abs)
    }

    fn score_batch(&self, table: &Table, attrs: &[AttrTuple]) -> Vec<Option<f64>> {
        self.score_metric_batch(table, attrs, self.metric(), &PreparedColumns::new())
    }

    fn score_metric_batch(
        &self,
        table: &Table,
        attrs: &[AttrTuple],
        metric: &str,
        prepared: &PreparedColumns,
    ) -> Vec<Option<f64>> {
        // one prepared vector per distinct column, then one fused pass per
        // pair; `|spearman|` is the monotonic class's kernel — the same
        // centred ranks serve both classes off one store
        let signed = if metric == "|spearman|" {
            correlation_batch(
                table,
                attrs,
                prepared,
                Transform::CenteredRanks,
                spearman_masked,
            )
        } else {
            correlation_batch(table, attrs, prepared, Transform::Centered, pearson_masked)
        };
        signed.into_iter().map(|rho| rho.map(f64::abs)).collect()
    }

    fn score_metric(&self, table: &Table, attrs: &AttrTuple, metric: &str) -> Option<f64> {
        if metric != "|spearman|" {
            return self.score(table, attrs);
        }
        let AttrTuple::Two(i, j) = attrs else {
            return None;
        };
        let rho = spearman(
            table.numeric(*i).ok()?.values(),
            table.numeric(*j).ok()?.values(),
        );
        rho.is_finite().then_some(rho.abs())
    }

    fn score_sketch(
        &self,
        catalog: &SketchCatalog,
        _table: &Table,
        attrs: &AttrTuple,
    ) -> Option<f64> {
        let AttrTuple::Two(i, j) = attrs else {
            return None;
        };
        catalog.correlation(*i, *j).map(f64::abs)
    }

    fn describe(&self, table: &Table, attrs: &AttrTuple, _score: f64) -> String {
        let (i, j) = match attrs {
            AttrTuple::Two(i, j) => (*i, *j),
            _ => return String::new(),
        };
        let rho = self.signed(table, attrs).unwrap_or(f64::NAN);
        let direction = if rho < 0.0 { "negative" } else { "positive" };
        format!(
            "{} and {} have a strong {} linear relationship (ρ = {:.2})",
            column_name(table, i),
            column_name(table, j),
            direction,
            rho
        )
    }

    fn chart(&self, table: &Table, attrs: &AttrTuple) -> Option<ChartSpec> {
        let AttrTuple::Two(i, j) = attrs else {
            return None;
        };
        let rho = self.signed(table, attrs)?;
        scatter_chart(
            table,
            *i,
            *j,
            format!(
                "{} vs {} (ρ = {:.2})",
                column_name(table, *i),
                column_name(table, *j),
                rho
            ),
            true,
        )
    }

    fn overview(&self, table: &Table) -> Option<ChartSpec> {
        Self::heatmap_exact(table, &table.numeric_indices())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foresight_data::TableBuilder;

    fn table() -> Table {
        let x: Vec<f64> = (0..120).map(|i| i as f64).collect();
        let neg: Vec<f64> = x.iter().map(|v| -2.0 * v + 7.0).collect();
        let noise: Vec<f64> = (0..120).map(|i| ((i * 37) % 120) as f64).collect();
        TableBuilder::new("t")
            .numeric("x", x)
            .numeric("neg", neg)
            .numeric("noise", noise)
            .categorical("c", (0..120).map(|_| "a"))
            .build()
            .unwrap()
    }

    #[test]
    fn candidates_are_numeric_pairs() {
        let l = LinearRelationship;
        let c = l.candidates(&table());
        assert_eq!(c.len(), 3);
        assert!(c.contains(&AttrTuple::Two(0, 1)));
        assert!(!c.iter().any(|a| a.contains(3))); // categorical excluded
    }

    #[test]
    fn perfect_negative_ranks_first() {
        let l = LinearRelationship;
        let t = table();
        let strong = l.score(&t, &AttrTuple::Two(0, 1)).unwrap();
        let weak = l.score(&t, &AttrTuple::Two(0, 2)).unwrap();
        assert!((strong - 1.0).abs() < 1e-9);
        assert!(weak < 0.3);
        assert!(l
            .describe(&t, &AttrTuple::Two(0, 1), strong)
            .contains("negative"));
    }

    #[test]
    fn spearman_alternative_metric() {
        let l = LinearRelationship;
        let t = table();
        let s = l
            .score_metric(&t, &AttrTuple::Two(0, 1), "|spearman|")
            .unwrap();
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn chart_scatter_with_fit() {
        let l = LinearRelationship;
        let c = l.chart(&table(), &AttrTuple::Two(0, 1)).unwrap();
        match c.kind {
            ChartKind::Scatter(s) => {
                let (slope, _) = s.fit.unwrap();
                assert!((slope + 2.0).abs() < 1e-6);
            }
            _ => panic!("wrong kind"),
        }
        assert!(c.title.contains("ρ"));
    }

    #[test]
    fn batch_scores_bit_identical_to_single() {
        let l = LinearRelationship;
        let mut builder = TableBuilder::new("t");
        // mix of clean columns, a missing-value column, and a constant column
        let clean: Vec<f64> = (0..90).map(|i| (i as f64).sin() * 1e5).collect();
        let linear: Vec<f64> = (0..90).map(|i| i as f64 * 0.37 - 5.0).collect();
        let holes: Vec<f64> = (0..90)
            .map(|i| if i % 7 == 0 { f64::NAN } else { i as f64 })
            .collect();
        let flat = vec![4.0; 90];
        builder = builder
            .numeric("clean", clean)
            .numeric("linear", linear)
            .numeric("holes", holes)
            .numeric("flat", flat);
        let t = builder.build().unwrap();
        let cands = l.candidates(&t);
        assert_eq!(cands.len(), 6);
        let batch = l.score_batch(&t, &cands);
        for (a, b) in cands.iter().zip(&batch) {
            let single = l.score(&t, a);
            assert_eq!(
                single.map(f64::to_bits),
                b.map(f64::to_bits),
                "batch diverges on {a:?}"
            );
        }
        // both metrics off one store, in either order of filling it
        let store = PreparedColumns::new();
        for metric in ["|spearman|", "|pearson|", "|spearman|"] {
            let batch = l.score_metric_batch(&t, &cands, metric, &store);
            for (a, b) in cands.iter().zip(&batch) {
                assert_eq!(
                    l.score_metric(&t, a, metric).map(f64::to_bits),
                    b.map(f64::to_bits),
                    "{metric} batch diverges on {a:?}"
                );
            }
        }
    }

    #[test]
    fn overview_is_figure_two_heatmap() {
        let l = LinearRelationship;
        let o = l.overview(&table()).unwrap();
        match o.kind {
            ChartKind::CorrelationHeatmap(h) => {
                assert_eq!(h.labels, vec!["x", "neg", "noise"]);
                assert_eq!(h.values[0][0], 1.0);
                assert!((h.values[0][1] + 1.0).abs() < 1e-9);
                assert_eq!(h.values[0][1], h.values[1][0]);
            }
            _ => panic!("wrong kind"),
        }
    }
}
