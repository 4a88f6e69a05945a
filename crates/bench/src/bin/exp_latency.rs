//! **Experiment T3 — interactive query latency.** The paper claims
//! "interactive speeds during exploration" (§3). We measure wall-clock
//! latency of representative insight queries at the paper's target scale
//! (100K rows, attributes in the hundreds), in sketch-backed approximate
//! mode vs exact mode.

use foresight_bench::{fmt_duration, time, workload};
use foresight_engine::{Executor, InsightIndex, InsightQuery, ScoreCache};
use foresight_insight::InsightRegistry;
use foresight_sketch::{CatalogConfig, SketchCatalog};

fn main() {
    println!("# Experiment T3: insight-query latency (paper claim: interactive)\n");

    for &(rows, cols) in &[(100_000usize, 50usize), (100_000, 100), (100_000, 200)] {
        let (table, _) = workload(rows, cols, 33);
        let registry = InsightRegistry::default();
        let catalog = SketchCatalog::build(&table, &CatalogConfig::default());
        let approx = Executor::approximate(&table, &registry, &catalog);
        let exact = Executor::exact(&table, &registry);
        let (index, t_index_build) = time(|| InsightIndex::build(&approx));
        println!("### {rows} rows × {cols} numeric columns\n");
        println!(
            "insight index materialized in {}\n",
            fmt_duration(t_index_build)
        );
        println!(
            "| {:<46} | {:>10} | {:>10} | {:>10} |",
            "query", "indexed", "sketch", "exact"
        );
        println!(
            "|{}|------------|------------|------------|",
            "-".repeat(48)
        );

        let queries: Vec<(&str, InsightQuery)> = vec![
            (
                "top-5 correlations (all pairs)",
                InsightQuery::class("linear-relationship").top_k(5),
            ),
            (
                "correlations with col 0, rho in [0.3, 0.9]",
                InsightQuery::class("linear-relationship")
                    .top_k(5)
                    .fix_attr(0)
                    .score_range(0.3, 0.9),
            ),
            (
                "top-5 monotonic (Spearman, all pairs)",
                InsightQuery::class("monotonic-relationship").top_k(5),
            ),
            (
                "top-5 dispersion",
                InsightQuery::class("dispersion").top_k(5),
            ),
            ("top-5 skew", InsightQuery::class("skew").top_k(5)),
            (
                "top-5 heavy tails",
                InsightQuery::class("heavy-tails").top_k(5),
            ),
            ("top-5 normality", InsightQuery::class("normality").top_k(5)),
            (
                "top-5 multimodality",
                InsightQuery::class("multimodality").top_k(5),
            ),
            ("top-5 outliers", InsightQuery::class("outliers").top_k(5)),
            (
                "top-3 heterogeneous frequencies",
                InsightQuery::class("heterogeneous-frequencies").top_k(3),
            ),
        ];

        for (name, q) in queries {
            // a fresh memo per call: the index column stays a cold describe,
            // like the two executor columns beside it
            let (idx_out, t_index) =
                time(|| index.query(&table, &registry, &q, &ScoreCache::new()));
            let (a, t_approx) = time(|| approx.execute(&q).expect("valid query"));
            // exact correlation scans at this scale are the slow path the
            // paper's sketches exist to avoid; run them once for contrast
            let (e, t_exact) = time(|| exact.execute(&q).expect("valid query"));
            assert!(a.len() <= 5 && e.len() <= 5);
            let idx_cell = match idx_out {
                Some(out) => {
                    assert_eq!(out, a, "{name}: index disagrees with executor");
                    fmt_duration(t_index)
                }
                None => "—".to_owned(),
            };
            println!(
                "| {name:<46} | {idx_cell:>10} | {:>10} | {:>10} |",
                fmt_duration(t_approx),
                fmt_duration(t_exact)
            );
        }
        println!();
    }
    println!("(sketch column = what the interactive UI experiences after preprocessing)");
}
