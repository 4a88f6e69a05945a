//! **Ablations** (DESIGN.md §7): the design choices behind the defaults.
//!
//! A1 — Rademacher vs Gaussian hyperplane components (build time, accuracy);
//! A2 — GK vs KLL quantile sketches (space, rank error);
//! A3 — Misra–Gries vs SpaceSaving vs Count-Min for RelFreq(k);
//! A4 — neighborhood similarity weight (focus steering strength);
//! A5 — sequential vs rayon-parallel catalog build.

use foresight_bench::{fmt_duration, print_table, time, workload};
use foresight_data::datasets::dist::Zipf;
use foresight_engine::recommend::carousels;
use foresight_engine::{CarouselConfig, Executor, InsightQuery, NeighborhoodWeights, Session};
use foresight_insight::InsightRegistry;
use foresight_sketch::freq::MisraGries;
use foresight_sketch::hyperplane::{HyperplaneConfig, HyperplaneKind, SharedHyperplanes};
use foresight_sketch::{CatalogConfig, CountMin, GkSketch, KllSketch, SketchCatalog, SpaceSaving};
use foresight_stats::correlation::pearson;
use foresight_stats::FrequencyTable;
use rand::rngs::StdRng;
use rand::SeedableRng;

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

fn a2_quantile_family() {
    let n = 200_000usize;
    let data: Vec<f64> = (0..n)
        .map(|i| ((i as u64).wrapping_mul(2_654_435_761) % n as u64) as f64)
        .collect();
    let mut rows = Vec::new();

    let (gk, t_gk) = time(|| {
        let mut sk = GkSketch::new(0.005);
        for &v in &data {
            sk.insert(v);
        }
        sk
    });
    let gk_err = [0.1, 0.5, 0.9]
        .iter()
        .map(|&q| ((gk.quantile(q).unwrap() + 1.0) / n as f64 - q).abs())
        .fold(0.0f64, f64::max);
    rows.push(vec![
        "GK (eps 0.005)".into(),
        fmt_duration(t_gk),
        gk.tuple_count().to_string(),
        format!("{:.3}%", 100.0 * gk_err),
        "no".into(),
    ]);

    let (kll, t_kll) = time(|| {
        let mut sk = KllSketch::new(200);
        for &v in &data {
            sk.insert(v);
        }
        sk
    });
    let kll_err = [0.1, 0.5, 0.9]
        .iter()
        .map(|&q| ((kll.quantile(q).unwrap() + 1.0) / n as f64 - q).abs())
        .fold(0.0f64, f64::max);
    rows.push(vec![
        "KLL (k 200)".into(),
        fmt_duration(t_kll),
        kll.retained().to_string(),
        format!("{:.3}%", 100.0 * kll_err),
        "yes".into(),
    ]);

    print_table(
        "A2 — quantile sketch family (200k uniform-permuted stream)",
        &["sketch", "build", "retained", "max rank err", "mergeable"],
        &rows,
    );
}

fn a3_frequency_family() {
    let mut rng = StdRng::seed_from_u64(11);
    let z = Zipf::new(2_000, 1.1);
    let labels: Vec<String> = (0..300_000)
        .map(|_| format!("v{}", z.sample(&mut rng)))
        .collect();
    let col = foresight_data::CategoricalColumn::from_strings(labels.iter().map(String::as_str));
    let exact = FrequencyTable::from_column(&col).rel_freq(5);

    let mut rows = Vec::new();
    let (mg, t1) = time(|| {
        let mut s = MisraGries::new(64);
        for l in &labels {
            s.insert(l);
        }
        s
    });
    rows.push(vec![
        "Misra-Gries (64)".into(),
        fmt_duration(t1),
        format!("{:.4}", mg.rel_freq(5)),
        "lower bound".into(),
    ]);
    let (ss, t2) = time(|| {
        let mut s = SpaceSaving::new(64);
        for l in &labels {
            s.insert(l);
        }
        s
    });
    rows.push(vec![
        "SpaceSaving (64)".into(),
        fmt_duration(t2),
        format!("{:.4}", ss.rel_freq(5)),
        "upper bound".into(),
    ]);
    let (cm, t3) = time(|| {
        let mut s = CountMin::with_error(0.001, 0.01, 7);
        for l in &labels {
            s.insert(l);
        }
        s
    });
    // CM needs candidate items: use SpaceSaving's top-5 as candidates
    let top5: u64 = ss
        .top()
        .iter()
        .take(5)
        .map(|(l, _, _)| cm.estimate(l))
        .sum();
    rows.push(vec![
        "CountMin (eps 1e-3)".into(),
        fmt_duration(t3),
        format!("{:.4}", top5 as f64 / labels.len() as f64),
        "upper bound*".into(),
    ]);
    println!("\n(exact RelFreq(5) = {exact:.4}; * CountMin needs a candidate set)");
    print_table(
        "A3 — frequent-items family (Zipf 2000, n = 300k)",
        &["sketch", "build", "RelFreq(5) est", "bound type"],
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
    a2_quantile_family();
    a3_frequency_family();
    a4_neighborhood_weight();
    a5_parallel_catalog();
}
