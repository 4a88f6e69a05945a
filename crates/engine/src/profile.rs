//! One-call dataset profiling: per-column descriptive summaries plus the
//! strongest instance of every insight class — the "jump-start" overview a
//! new user sees before issuing any query.
//!
//! This module owns the profile's shape and the per-column summaries. The
//! headline insights are the core's own answers to `class.top_k(1)` —
//! [`EngineCore::profile`](crate::EngineCore::profile) runs that loop
//! through its query path, so a profile never scores anything a query
//! would not.

use crate::error::Result;
use foresight_data::{ColumnType, Table, TableSource};
use foresight_insight::InsightInstance;
use foresight_sketch::SketchCatalog;
use foresight_stats::{describe, Description, FrequencyTable};
use serde::{Deserialize, Serialize};

/// Summary of one column.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ColumnProfile {
    /// A numeric column's descriptive statistics.
    Numeric {
        /// Column name.
        name: String,
        /// The summary (`None` when the column is all-missing).
        summary: Option<Description>,
    },
    /// A categorical column's frequency profile.
    Categorical {
        /// Column name.
        name: String,
        /// Distinct values.
        cardinality: usize,
        /// Present count.
        total: u64,
        /// The most frequent value and its count.
        top: Option<(String, u64)>,
        /// Normalized entropy in [0, 1].
        normalized_entropy: f64,
    },
}

/// A whole-table profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetProfile {
    /// Dataset name.
    pub name: String,
    /// Rows.
    pub rows: usize,
    /// Per-column summaries, in schema order.
    pub columns: Vec<ColumnProfile>,
    /// The strongest instance of each insight class that produced one,
    /// in registry order: what `query(class.top_k(1))` returns on the
    /// profiled snapshot in the profiled mode.
    pub headline_insights: Vec<InsightInstance>,
}

/// Exact per-column summaries of a materialized table, in schema order.
pub fn column_profiles(table: &Table) -> Result<Vec<ColumnProfile>> {
    let mut columns = Vec::with_capacity(table.n_cols());
    for (idx, field) in table.schema().fields().iter().enumerate() {
        match field.ty {
            ColumnType::Numeric => {
                let col = table.numeric(idx)?;
                columns.push(ColumnProfile::Numeric {
                    name: field.name.clone(),
                    summary: describe(col.values()),
                });
            }
            ColumnType::Categorical => {
                let col = table.categorical(idx)?;
                let ft = FrequencyTable::from_column(col);
                columns.push(ColumnProfile::Categorical {
                    name: field.name.clone(),
                    cardinality: ft.cardinality(),
                    total: ft.total,
                    top: ft.top_k(1).first().cloned(),
                    normalized_entropy: ft.normalized_entropy(),
                });
            }
        }
    }
    Ok(columns)
}

/// Per-column summaries of a partitioned source taken entirely from its
/// merged sketch catalog — moments for the numeric summaries, KLL for the
/// quartiles, SpaceSaving / entropy-sketch / HLL for the categorical
/// profiles. No shard is ever read back or concatenated.
///
/// Numeric summaries differ from the exact [`column_profiles`] only in the
/// quartiles (KLL rank error); count/mean/std/min/max/skewness/kurtosis are
/// moments-derived and match a single-pass build bit-for-bit.
pub fn column_profiles_from_catalog(
    source: &TableSource,
    catalog: &SketchCatalog,
) -> Vec<ColumnProfile> {
    let rows = source.n_rows();
    let mut columns = Vec::with_capacity(source.n_cols());
    for (idx, field) in source.schema().fields().iter().enumerate() {
        match field.ty {
            ColumnType::Numeric => {
                let summary = catalog.numeric(idx).and_then(|s| {
                    let m = &s.moments;
                    if m.count() == 0 {
                        return None;
                    }
                    Some(Description {
                        count: m.count(),
                        missing: rows as u64 - m.count(),
                        mean: m.mean(),
                        std: m.population_std(),
                        min: m.min(),
                        q1: s.quantiles.quantile(0.25).unwrap_or(m.min()),
                        median: s.quantiles.quantile(0.5).unwrap_or(m.mean()),
                        q3: s.quantiles.quantile(0.75).unwrap_or(m.max()),
                        max: m.max(),
                        skewness: m.skewness(),
                        kurtosis: m.kurtosis(),
                    })
                });
                columns.push(ColumnProfile::Numeric {
                    name: field.name.clone(),
                    summary,
                });
            }
            ColumnType::Categorical => {
                let profile = match catalog.categorical(idx) {
                    Some(s) => {
                        let top = s
                            .heavy_hitters
                            .top()
                            .first()
                            .map(|(label, count, _)| (label.clone(), *count));
                        let normalized_entropy = if s.cardinality > 1 {
                            (s.entropy.estimate() / (s.cardinality as f64).ln()).clamp(0.0, 1.0)
                        } else if s.cardinality == 1 {
                            0.0
                        } else {
                            f64::NAN
                        };
                        ColumnProfile::Categorical {
                            name: field.name.clone(),
                            cardinality: s.cardinality,
                            total: s.total,
                            top,
                            normalized_entropy,
                        }
                    }
                    None => ColumnProfile::Categorical {
                        name: field.name.clone(),
                        cardinality: 0,
                        total: 0,
                        top: None,
                        normalized_entropy: f64::NAN,
                    },
                };
                columns.push(profile);
            }
        }
    }
    columns
}

impl DatasetProfile {
    /// A human-readable multi-line rendering.
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "dataset `{}`: {} rows × {} columns\n\ncolumns:\n",
            self.name,
            self.rows,
            self.columns.len()
        );
        for c in &self.columns {
            match c {
                ColumnProfile::Numeric { name, summary } => match summary {
                    Some(d) => out.push_str(&format!(
                        "  {name:<40} numeric  mean {:>10.3}  sd {:>10.3}  [{:.3}, {:.3}]  {} missing\n",
                        d.mean, d.std, d.min, d.max, d.missing
                    )),
                    None => out.push_str(&format!("  {name:<40} numeric  (all missing)\n")),
                },
                ColumnProfile::Categorical {
                    name,
                    cardinality,
                    total,
                    top,
                    normalized_entropy,
                } => {
                    let top_str = top
                        .as_ref()
                        .map(|(l, c)| format!("top `{l}` ×{c}"))
                        .unwrap_or_else(|| "empty".to_owned());
                    out.push_str(&format!(
                        "  {name:<40} categorical  {cardinality} distinct / {total}  {top_str}  H̃ = {normalized_entropy:.2}\n"
                    ));
                }
            }
        }
        out.push_str("\nheadline insights:\n");
        for i in &self.headline_insights {
            out.push_str(&format!(
                "  [{:<26}] {:.3}  {}\n",
                i.class_id, i.score, i.detail
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CoreBuilder, Mode};
    use foresight_data::TableBuilder;
    use foresight_sketch::CatalogConfig;

    fn table(n: usize) -> Table {
        TableBuilder::new("demo")
            .numeric("x", (0..n).map(|i| i as f64).collect())
            .numeric("y", (0..n).map(|i| (2 * i) as f64).collect())
            .categorical("c", (0..n).map(|i| if i % 3 == 0 { "a" } else { "b" }))
            .build()
            .unwrap()
    }

    fn exact_profile(t: Table) -> DatasetProfile {
        CoreBuilder::new(TableSource::materialized(t))
            .freeze()
            .profile(Mode::Exact)
            .unwrap()
    }

    #[test]
    fn profile_covers_all_columns_and_classes() {
        let p = exact_profile(table(50));
        assert_eq!(p.rows, 50);
        assert_eq!(p.columns.len(), 3);
        match &p.columns[0] {
            ColumnProfile::Numeric { name, summary } => {
                assert_eq!(name, "x");
                assert_eq!(summary.as_ref().unwrap().count, 50);
            }
            _ => panic!("wrong kind"),
        }
        match &p.columns[2] {
            ColumnProfile::Categorical {
                cardinality, top, ..
            } => {
                assert_eq!(*cardinality, 2);
                assert_eq!(top.as_ref().unwrap().0, "b");
            }
            _ => panic!("wrong kind"),
        }
        // at least the correlation/skew/dispersion classes produce headlines
        assert!(p.headline_insights.len() >= 5);
        let linear = p
            .headline_insights
            .iter()
            .find(|i| i.class_id == "linear-relationship")
            .unwrap();
        assert!((linear.score - 1.0).abs() < 1e-9);
    }

    #[test]
    fn text_rendering_mentions_everything() {
        let text = exact_profile(table(50)).to_text();
        assert!(text.contains("demo"));
        assert!(text.contains("numeric"));
        assert!(text.contains("categorical"));
        assert!(text.contains("linear-relationship"));
    }

    #[test]
    fn catalog_profile_tracks_exact_profile() {
        let t = table(500);
        let exact = exact_profile(t.clone());

        // the same rows as two shards: approximate mode answers from the
        // merged catalog alone
        let halves = vec![t.filter_rows(|r| r < 250), t.filter_rows(|r| r >= 250)];
        let mut builder = CoreBuilder::new(TableSource::sharded(halves).unwrap());
        builder
            .preprocess(&CatalogConfig {
                hyperplane_k: Some(1024),
                ..Default::default()
            })
            .unwrap();
        let approx = builder.freeze().profile(Mode::Approximate).unwrap();

        assert_eq!(approx.rows, exact.rows);
        assert_eq!(approx.columns.len(), exact.columns.len());
        match (&approx.columns[0], &exact.columns[0]) {
            (
                ColumnProfile::Numeric {
                    summary: Some(a), ..
                },
                ColumnProfile::Numeric {
                    summary: Some(e), ..
                },
            ) => {
                // moments-derived fields are exact; quartiles within KLL error
                assert_eq!(a.count, e.count);
                assert_eq!(a.min, e.min);
                assert_eq!(a.max, e.max);
                assert!((a.mean - e.mean).abs() < 1e-9);
                assert!((a.median - e.median).abs() < 0.05 * (e.max - e.min));
            }
            _ => panic!("wrong kinds"),
        }
        match (&approx.columns[2], &exact.columns[2]) {
            (
                ColumnProfile::Categorical {
                    cardinality: ac,
                    total: at,
                    top: atop,
                    normalized_entropy: ah,
                    ..
                },
                ColumnProfile::Categorical {
                    cardinality: ec,
                    total: et,
                    top: etop,
                    normalized_entropy: eh,
                    ..
                },
            ) => {
                assert_eq!(ac, ec);
                assert_eq!(at, et);
                assert_eq!(
                    atop.as_ref().map(|(l, _)| l.clone()),
                    etop.as_ref().map(|(l, _)| l.clone())
                );
                // the entropy sketch carries O(1/√k) noise — this is a
                // sanity band, not an accuracy claim (those live in the
                // sketch crate's own tests)
                assert!((ah - eh).abs() < 0.35, "entropy {ah} vs {eh}");
                assert!((0.0..=1.0).contains(ah));
            }
            _ => panic!("wrong kinds"),
        }
        // headline classes with sketch paths show up with finite scores
        assert!(!approx.headline_insights.is_empty());
        let linear = approx
            .headline_insights
            .iter()
            .find(|i| i.class_id == "linear-relationship")
            .unwrap();
        assert!(linear.score > 0.9);
    }

    #[test]
    fn serde_round_trip() {
        let p = exact_profile(table(50));
        let json = serde_json::to_string(&p).unwrap();
        let back: DatasetProfile = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }
}
