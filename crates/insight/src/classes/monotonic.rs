//! The **Nonlinear Monotonic Relationship** insight — one of the classes the
//! paper names but suppresses for space. Ranked by Spearman's rank
//! correlation magnitude `|ρ_s|` (with Kendall's τ-b as an alternative
//! metric) and visualized as a scatter plot without a linear fit.
//!
//! The primary metric is plain `|ρ_s|`; the "nonlinearity gap"
//! `max(0, |ρ_s| − |ρ|)` is exposed as an alternative metric for users who
//! want specifically *nonlinear* monotone pairs (pairs a linear fit does not
//! already explain).

use crate::class::{column_name, CandidatePruning, InsightClass};
use crate::types::AttrTuple;
use crate::util::{correlation_batch, pairs, scatter_chart};
use foresight_data::Table;
use foresight_sketch::SketchCatalog;
use foresight_stats::correlation::{
    kendall_tau_b, pearson, pearson_masked, spearman, spearman_masked, spearman_with, PairScratch,
};
use foresight_stats::prepared::{PreparedColumns, Transform};
use foresight_viz::ChartSpec;

/// The monotonic-relationship insight class.
#[derive(Debug, Default, Clone, Copy)]
pub struct MonotonicRelationship;

impl MonotonicRelationship {
    fn signed(&self, table: &Table, attrs: &AttrTuple) -> Option<f64> {
        let AttrTuple::Two(i, j) = attrs else {
            return None;
        };
        let rho = spearman(
            table.numeric(*i).ok()?.values(),
            table.numeric(*j).ok()?.values(),
        );
        rho.is_finite().then_some(rho)
    }
}

impl InsightClass for MonotonicRelationship {
    fn id(&self) -> &'static str {
        "monotonic-relationship"
    }

    fn name(&self) -> &'static str {
        "Monotonic Relationship"
    }

    fn description(&self) -> &'static str {
        "Two attributes move together monotonically, not necessarily linearly"
    }

    fn metric(&self) -> &'static str {
        "|spearman|"
    }

    fn alternative_metrics(&self) -> Vec<&'static str> {
        vec!["|kendall-tau|", "nonlinearity-gap"]
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
        if metric == "|kendall-tau|" {
            // τ-b counts concordant pairs of rows: nothing per-column to share
            return attrs
                .iter()
                .map(|a| self.score_metric(table, a, metric))
                .collect();
        }
        // Spearman is one fused Pearson pass over the prepared centred ranks
        let ranked = correlation_batch(
            table,
            attrs,
            prepared,
            Transform::CenteredRanks,
            spearman_masked,
        );
        if metric != "nonlinearity-gap" {
            return ranked.into_iter().map(|rho| rho.map(f64::abs)).collect();
        }
        let linear = correlation_batch(table, attrs, prepared, Transform::Centered, pearson_masked);
        ranked
            .into_iter()
            .zip(linear)
            .map(|(s, p)| Some((s?.abs() - p?.abs()).max(0.0)))
            .collect()
    }

    fn score_metric(&self, table: &Table, attrs: &AttrTuple, metric: &str) -> Option<f64> {
        let AttrTuple::Two(i, j) = attrs else {
            return None;
        };
        match metric {
            "|kendall-tau|" => {
                let tau = kendall_tau_b(
                    table.numeric(*i).ok()?.values(),
                    table.numeric(*j).ok()?.values(),
                );
                tau.is_finite().then_some(tau.abs())
            }
            "nonlinearity-gap" => {
                let s = self.score(table, attrs)?;
                let p = pearson(
                    table.numeric(*i).ok()?.values(),
                    table.numeric(*j).ok()?.values(),
                );
                if !p.is_finite() {
                    return None;
                }
                Some((s - p.abs()).max(0.0))
            }
            _ => self.score(table, attrs),
        }
    }

    fn score_sketch(
        &self,
        catalog: &SketchCatalog,
        _table: &Table,
        attrs: &AttrTuple,
    ) -> Option<f64> {
        // Spearman = Pearson on ranks, so the rank-transformed hyperplane
        // sketches estimate it directly.
        let AttrTuple::Two(i, j) = attrs else {
            return None;
        };
        catalog.spearman(*i, *j).map(f64::abs)
    }

    fn describe(&self, table: &Table, attrs: &AttrTuple, _score: f64) -> String {
        let (i, j) = match attrs {
            AttrTuple::Two(i, j) => (*i, *j),
            _ => return String::new(),
        };
        let rho = self.signed(table, attrs).unwrap_or(f64::NAN);
        let direction = if rho < 0.0 {
            "decreasing"
        } else {
            "increasing"
        };
        format!(
            "{} is monotonically {} in {} (ρₛ = {:.2})",
            column_name(table, j),
            direction,
            column_name(table, i),
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
                "{} vs {} (ρₛ = {:.2})",
                column_name(table, *i),
                column_name(table, *j),
                rho
            ),
            false,
        )
    }

    fn overview(&self, table: &Table) -> Option<ChartSpec> {
        // a Spearman version of the Figure-2 heatmap; one compaction
        // scratch reused across all O(d²) pairs
        let indices = table.numeric_indices();
        let d = indices.len();
        let mut values = vec![vec![f64::NAN; d]; d];
        let mut scratch = PairScratch::new();
        for a in 0..d {
            values[a][a] = 1.0;
            for b in (a + 1)..d {
                let rho = spearman_with(
                    table.numeric(indices[a]).ok()?.values(),
                    table.numeric(indices[b]).ok()?.values(),
                    &mut scratch,
                );
                values[a][b] = rho;
                values[b][a] = rho;
            }
        }
        Some(ChartSpec {
            title: "Pairwise rank correlations".to_owned(),
            x_label: String::new(),
            y_label: String::new(),
            kind: foresight_viz::ChartKind::CorrelationHeatmap(foresight_viz::HeatmapSpec {
                labels: indices
                    .iter()
                    .map(|&i| column_name(table, i).to_owned())
                    .collect(),
                values,
            }),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foresight_data::TableBuilder;

    fn table() -> Table {
        let x: Vec<f64> = (1..200).map(|i| i as f64).collect();
        let cubic: Vec<f64> = x.iter().map(|v| v.powi(3)).collect();
        let noise: Vec<f64> = (1..200).map(|i| ((i * 7919) % 199) as f64).collect();
        TableBuilder::new("t")
            .numeric("x", x)
            .numeric("cubic", cubic)
            .numeric("noise", noise)
            .build()
            .unwrap()
    }

    #[test]
    fn monotone_nonlinear_scores_one() {
        let m = MonotonicRelationship;
        let t = table();
        assert!((m.score(&t, &AttrTuple::Two(0, 1)).unwrap() - 1.0).abs() < 1e-9);
        assert!(m.score(&t, &AttrTuple::Two(0, 2)).unwrap() < 0.3);
    }

    #[test]
    fn batch_scores_bit_identical_to_single() {
        let m = MonotonicRelationship;
        let quad: Vec<f64> = (0..80).map(|i| (i as f64 - 40.0).powi(2)).collect();
        let holes: Vec<f64> = (0..80)
            .map(|i| {
                if i % 11 == 3 {
                    f64::NAN
                } else {
                    (i * i) as f64
                }
            })
            .collect();
        let ascending: Vec<f64> = (0..80).map(|i| i as f64).collect();
        let t = TableBuilder::new("t")
            .numeric("quad", quad)
            .numeric("holes", holes)
            .numeric("ascending", ascending)
            .build()
            .unwrap();
        let cands = m.candidates(&t);
        let batch = m.score_batch(&t, &cands);
        for (a, b) in cands.iter().zip(&batch) {
            assert_eq!(
                m.score(&t, a).map(f64::to_bits),
                b.map(f64::to_bits),
                "batch diverges on {a:?}"
            );
        }
        // every metric the class names, off one store
        let store = PreparedColumns::new();
        for metric in std::iter::once(m.metric()).chain(m.alternative_metrics()) {
            let batch = m.score_metric_batch(&t, &cands, metric, &store);
            for (a, b) in cands.iter().zip(&batch) {
                assert_eq!(
                    m.score_metric(&t, a, metric).map(f64::to_bits),
                    b.map(f64::to_bits),
                    "{metric} batch diverges on {a:?}"
                );
            }
        }
    }

    #[test]
    fn nonlinearity_gap_prefers_curved_relationships() {
        let m = MonotonicRelationship;
        let t = table();
        // cubic: spearman 1, pearson < 1 → positive gap
        let gap_cubic = m
            .score_metric(&t, &AttrTuple::Two(0, 1), "nonlinearity-gap")
            .unwrap();
        assert!(gap_cubic > 0.05, "gap {gap_cubic}");
    }

    #[test]
    fn kendall_metric_available() {
        let m = MonotonicRelationship;
        let t = table();
        let tau = m
            .score_metric(&t, &AttrTuple::Two(0, 1), "|kendall-tau|")
            .unwrap();
        assert!((tau - 1.0).abs() < 1e-9);
    }

    #[test]
    fn chart_has_no_fit_line() {
        let m = MonotonicRelationship;
        let c = m.chart(&table(), &AttrTuple::Two(0, 1)).unwrap();
        match c.kind {
            foresight_viz::ChartKind::Scatter(s) => assert!(s.fit.is_none()),
            _ => panic!("wrong kind"),
        }
    }

    #[test]
    fn describe_mentions_direction() {
        let m = MonotonicRelationship;
        let t = table();
        let d = m.describe(&t, &AttrTuple::Two(0, 1), 1.0);
        assert!(d.contains("increasing"), "{d}");
    }
}
