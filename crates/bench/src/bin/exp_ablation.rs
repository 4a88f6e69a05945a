//! **Ablations** (DESIGN.md §7): the design choices behind the defaults.
//!
//! A1 — Rademacher vs Gaussian hyperplane components (build time, accuracy);
//! A4 — neighborhood similarity weight (focus steering strength);
//! A5 — sequential vs rayon-parallel catalog build.

use foresight_bench::{fmt_duration, print_table, time, workload};
use foresight_engine::recommend::carousels;
use foresight_engine::{CarouselConfig, Executor, InsightQuery, NeighborhoodWeights, Session};
use foresight_insight::InsightRegistry;
use foresight_sketch::hyperplane::{HyperplaneConfig, HyperplaneKind, SharedHyperplanes};
use foresight_sketch::{CatalogConfig, SketchCatalog};
use foresight_stats::correlation::pearson;

fn a1_hyperplane_kind() {
    let (table, truth) = workload(50_000, 40, 3);
    let cols: Vec<&[f64]> = table
        .numeric_indices()
        .iter()
        .map(|&i| table.numeric(i).unwrap().values())
        .collect();
    let mut rows = Vec::new();
    for kind in [HyperplaneKind::Rademacher, HyperplaneKind::Gaussian] {
        let hp = SharedHyperplanes::new(HyperplaneConfig {
            k: 448,
            seed: 5,
            kind,
        });
        let (sketches, t) = time(|| hp.sketch_columns(&cols));
        let mut sum_abs = 0.0;
        for &(i, j, _) in &truth.correlated_pairs {
            let exact = pearson(cols[i], cols[j]);
            let est = sketches[i].correlation(&sketches[j]).unwrap();
            sum_abs += (est - exact).abs();
        }
        rows.push(vec![
            format!("{kind:?}"),
            fmt_duration(t),
            format!("{:.4}", sum_abs / truth.correlated_pairs.len() as f64),
        ]);
    }
    print_table(
        "A1 — hyperplane component distribution (50k × 40, k = 448)",
        &["kind", "build time", "mean |err|"],
        &rows,
    );
}

fn a4_neighborhood_weight() {
    let (table, _) = workload(5_000, 24, 9);
    let registry = InsightRegistry::default();
    let ex = Executor::exact(&table, &registry);
    // focus the strongest correlation, then measure how many of the next
    // recommendations share one of its attributes as the weight sweeps
    let top = ex
        .execute(&InsightQuery::class("linear-relationship").top_k(1))
        .expect("query");
    let mut session = Session::new("ablation");
    session.focus(top[0].clone());
    let focus_attrs = top[0].attrs;

    let mut rows = Vec::new();
    for &w in &[0.0, 0.25, 0.5, 0.75, 0.95] {
        let config = CarouselConfig {
            per_class: 5,
            weights: NeighborhoodWeights { similarity: w },
            ..CarouselConfig::default()
        };
        let cs = carousels(&ex, &session, &config).expect("carousels");
        let linear = cs
            .iter()
            .find(|c| c.class_id == "linear-relationship")
            .expect("linear carousel");
        let overlapping = linear
            .instances
            .iter()
            .filter(|i| i.attrs.overlap(&focus_attrs) > 0)
            .count();
        rows.push(vec![
            format!("{w:.2}"),
            format!("{overlapping}/5"),
            format!(
                "{:.3}",
                linear.instances.first().map(|i| i.score).unwrap_or(0.0)
            ),
        ]);
    }
    print_table(
        "A4 — neighborhood similarity weight (focused: strongest correlation)",
        &["weight", "top-5 sharing a focus attribute", "lead score"],
        &rows,
    );
}

fn a5_parallel_catalog() {
    let (table, _) = workload(50_000, 100, 13);
    let mut rows = Vec::new();
    for parallel in [false, true] {
        let cfg = CatalogConfig {
            parallel,
            ..Default::default()
        };
        let (cat, t) = time(|| SketchCatalog::build(&table, &cfg));
        assert_eq!(cat.rows(), 50_000);
        rows.push(vec![
            if parallel { "rayon" } else { "sequential" }.into(),
            fmt_duration(t),
            rayon::current_num_threads().to_string(),
        ]);
    }
    print_table(
        "A5 — catalog build parallelism (50k × 100)",
        &["mode", "build time", "rayon threads"],
        &rows,
    );
}

fn main() {
    println!("# Ablation experiments (DESIGN.md §7)");
    a1_hyperplane_kind();
    a4_neighborhood_weight();
    a5_parallel_catalog();
}
