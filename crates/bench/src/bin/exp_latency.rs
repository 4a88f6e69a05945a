//! **Experiment T3 — interactive query latency.** The paper claims
//! "interactive speeds during exploration" (§3). We measure wall-clock
//! latency of representative insight queries at the paper's target scale
//! (100K rows, attributes in the hundreds): served by an indexed core
//! (every class's rank order completed at freeze), by a sketch-backed
//! approximate executor, and by an exact executor.

use foresight_bench::{fmt_duration, time, workload};
use foresight_data::TableSource;
use foresight_engine::{
    kernel_name, CandidateStrategy, CoreBuilder, Executor, InsightQuery, QueryOptions,
};
use foresight_insight::InsightRegistry;
use foresight_sketch::CatalogConfig;

fn main() {
    println!("# Experiment T3: insight-query latency (paper claim: interactive)\n");
    println!(
        "threads: {}, kernel: {}\n",
        rayon::current_num_threads(),
        kernel_name()
    );

    for &(rows, cols) in &[(100_000usize, 50usize), (100_000, 100), (100_000, 200)] {
        let (table, _) = workload(rows, cols, 33);
        let registry = InsightRegistry::default();
        let mut builder = CoreBuilder::new(TableSource::materialized(table));
        let ((), t_preprocess) = time(|| {
            builder
                .preprocess(&CatalogConfig::default())
                .expect("preprocess")
        });
        let (core, t_index) = time(|| {
            builder.build_index().expect("index");
            builder.freeze()
        });
        let (table, catalog) = (core.table(), core.catalog().expect("preprocessed"));
        let approx = Executor::approximate(table, &registry, catalog);
        let exact = Executor::exact(table, &registry);
        // the class scan, so a wide table's pairwise queries walk their
        // orders instead of drawing LSH candidates
        let opts = QueryOptions {
            candidates: CandidateStrategy::Exhaustive,
            ..core.options()
        };
        println!("### {rows} rows × {cols} numeric columns\n");
        println!(
            "catalog built in {}; `build_index` + `freeze` (every class's \
             rank order) in {} ({} orders, {:.1} MB)\n",
            fmt_duration(t_preprocess),
            fmt_duration(t_index),
            core.rank_orders().filled(),
            core.rank_orders().approx_bytes() as f64 / 1e6
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
            // each query runs once, so the indexed column pays a cold
            // describe like the two executor columns beside it (a fixed
            // attribute takes the pinned walk over cached scores instead of
            // an order)
            let (served, t_served) = time(|| core.run(&q, &opts).expect("valid query"));
            let (a, t_approx) = time(|| approx.execute(&q).expect("valid query"));
            // exact correlation scans at this scale are the slow path the
            // paper's sketches exist to avoid; run them once for contrast
            let (e, t_exact) = time(|| exact.execute(&q).expect("valid query"));
            assert!(a.len() <= 5 && e.len() <= 5);
            assert_eq!(served.results, a, "{name}: indexed core disagrees");
            println!(
                "| {name:<46} | {:>10} | {:>10} | {:>10} |",
                fmt_duration(t_served),
                fmt_duration(t_approx),
                fmt_duration(t_exact)
            );
        }
        println!();
    }
    println!("(sketch column = what the interactive UI experiences after preprocessing)");
}
