//! **Experiment T10 — LSH-indexed candidate generation for wide tables.**
//! Measures the crossover where drawing pairwise candidates from LSH
//! bucket collisions beats the class's own O(d²) scan, on synthetic wide
//! tables (d ∈ {128, 512, 2048} numeric columns) with planted high-|ρ|
//! pairs.
//!
//! Per width, the same `linear-relationship` top-k query runs twice over
//! one preprocessed engine — once with the candidate strategy pinned to
//! [`CandidateStrategy::Exhaustive`] (recall 1.0, the d² scan), once forced
//! to [`CandidateStrategy::Lsh`] over every table — with every cached score
//! (the score cache, and the rank orders and score planes a whole scan
//! fills) dropped before every timed repetition, so each measurement is a
//! cold generate → score → rank pass. `Auto` is not what is timed: once
//! the exhaustive pass has filled the class's rank order, `Auto` walks it
//! and would measure the walk. Recall is reported two ways: the fraction
//! of the exhaustive run's top-k that the indexed run also returned, and
//! the fraction of *planted* |ρ| ≥ 0.9 pairs present in the raw collision
//! candidate set. Top-k is kept at 10 so the exhaustive
//! top-k is dominated by planted strong pairs — a deeper k bottoms out in
//! noise pairs (|ρ| ≈ 0.1) that banding is *designed* not to collide, and
//! would measure the workload's plant count, not the index's recall.
//! After the LSH passes it reports the bytes of the score planes: a draw
//! stores its scores only into a plane a scan or a pinned walk allocated
//! (8 B for every pair of the table) and allocates none itself, so after
//! the cold passes this reads 0.
//!
//! Emits `BENCH_lsh.json` into the working directory (run from the
//! repository root). With `FORESIGHT_BENCH_GATE=1` the run enforces the
//! regression gates — indexed generation ≥ [`MIN_SPEEDUP_AT_2048`]× over
//! the exhaustive scan at d = 2048, top-k recall ≥ [`MIN_RECALL`] from
//! the collisions on every width — and exits non-zero on failure (the CI
//! hook).

use foresight_bench::{fmt_duration, median, time};
use foresight_data::datasets::{synth, SynthConfig};
use foresight_engine::{CandidateStrategy, Foresight, InsightQuery};
use foresight_insight::InsightInstance;
use foresight_sketch::CatalogConfig;
use serde_json::{json, Value};
use std::collections::BTreeSet;
use std::time::Duration;

const ROWS: usize = 1_024;
const WIDTHS: [usize; 3] = [128, 512, 2_048];
const TOP_K: usize = 10;
/// Planted pairs at or above this latent |ρ| count toward candidate-level
/// recall (weaker plants are not reliably in the exact top-k either).
const PLANT_FLOOR: f64 = 0.9;

/// Gate: required speedup (exhaustive / indexed) at the widest table.
const MIN_SPEEDUP_AT_2048: f64 = 2.0;
/// Gate: top-k recall floor for the collision candidates, every width.
const MIN_RECALL: f64 = 0.9;

fn reps_for(d: usize) -> usize {
    if d >= 2_048 {
        3
    } else {
        5
    }
}

/// Runs `query` under `strategy`, dropping every cached score before every
/// repetition so each timing is a cold generate → score → rank pass.
fn timed_query(
    engine: &mut Foresight,
    strategy: CandidateStrategy,
    query: &InsightQuery,
    reps: usize,
) -> (Vec<InsightInstance>, Duration) {
    engine.set_candidate_strategy(strategy);
    let mut times = Vec::with_capacity(reps);
    let mut out = Vec::new();
    for _ in 0..reps {
        engine.clear_score_cache();
        let (results, elapsed) = time(|| engine.query(query).expect("query"));
        times.push(elapsed);
        out = results;
    }
    (out, median(times))
}

/// Attribute-tuple key set of a result list, for overlap recall.
fn result_keys(results: &[InsightInstance]) -> BTreeSet<Vec<usize>> {
    results.iter().map(|r| r.attrs.indices()).collect()
}

fn main() {
    let threads = foresight_bench::configure_threads();
    println!("# Experiment T10: LSH candidate generation vs the d\u{b2} scan");
    println!("# workload: {ROWS} rows, d in {WIDTHS:?} numeric cols, planted |rho| pairs, top-{TOP_K}, rayon threads: {threads}\n");
    println!(
        "| {:>5} | {:>12} | {:>12} | {:>8} | {:>14} | {:>7} | {:>7} | {:>9} |",
        "d", "exhaustive", "lsh", "speedup", "collisions", "recall", "planted", "planes"
    );
    println!("|{}|", "-".repeat(98));

    let mut rows = Vec::new();
    let mut gate_speedup_2048 = 0.0f64;
    let mut min_topk_recall = 1.0f64;

    for (i, &d) in WIDTHS.iter().enumerate() {
        let (table, truth) = synth(&SynthConfig {
            rows: ROWS,
            numeric_cols: d,
            categorical_cols: 0,
            correlated_fraction: 0.25,
            rho_range: (0.92, 0.99),
            seed: 40 + i as u64,
            ..Default::default()
        });
        let mut engine = Foresight::new(table);
        engine
            .preprocess(&CatalogConfig::default())
            .expect("preprocess");

        let index = engine.core().lsh_index().expect("catalog built");
        let tables = index.config().tables;
        let (collision_pairs, tables_probed) = {
            let (pairs, probed) = index.candidate_pairs(usize::MAX);
            (pairs.len(), probed)
        };
        // candidate-level recall of planted strong pairs: every (i, j)
        // planted at |rho| >= PLANT_FLOOR should collide in some table
        let collision_set: BTreeSet<(usize, usize)> =
            index.candidate_pairs(usize::MAX).0.into_iter().collect();
        let strong: Vec<(usize, usize)> = truth
            .correlated_pairs
            .iter()
            .filter(|&&(_, _, rho)| rho.abs() >= PLANT_FLOOR)
            .map(|&(a, b, _)| (a.min(b), a.max(b)))
            .collect();
        let planted_hit = strong
            .iter()
            .filter(|pair| collision_set.contains(pair))
            .count();
        let planted_recall = if strong.is_empty() {
            1.0
        } else {
            planted_hit as f64 / strong.len() as f64
        };

        let query = InsightQuery::class("linear-relationship").top_k(TOP_K);
        let reps = reps_for(d);
        let (exact_results, exhaustive_t) =
            timed_query(&mut engine, CandidateStrategy::Exhaustive, &query, reps);
        let lsh = CandidateStrategy::Lsh { probes: None };
        let (lsh_results, lsh_t) = timed_query(&mut engine, lsh, &query, reps);
        let planes_bytes = engine.core().rank_orders().plane_bytes();

        let exact_keys = result_keys(&exact_results);
        let lsh_keys = result_keys(&lsh_results);
        let overlap = exact_keys.intersection(&lsh_keys).count();
        let topk_recall = if exact_keys.is_empty() {
            1.0
        } else {
            overlap as f64 / exact_keys.len() as f64
        };
        min_topk_recall = min_topk_recall.min(topk_recall);

        let speedup = exhaustive_t.as_secs_f64() / lsh_t.as_secs_f64();
        if d == 2_048 {
            gate_speedup_2048 = speedup;
        }
        let total_pairs = d * (d - 1) / 2;
        println!(
            "| {d:>5} | {:>12} | {:>12} | {speedup:>7.2}x | {:>6} of {:>5}\u{b2} | {topk_recall:>7.3} | {planted_recall:>7.3} | {:>6.1} MB |",
            fmt_duration(exhaustive_t),
            fmt_duration(lsh_t),
            collision_pairs,
            d,
            planes_bytes as f64 / 1e6,
        );

        rows.push(json!({
            "numeric_cols": d,
            "rows": ROWS,
            "reps": reps,
            "lsh_tables": tables,
            "tables_probed": tables_probed,
            "collision_pairs": collision_pairs,
            "total_pairs": total_pairs,
            "candidate_fraction": collision_pairs as f64 / total_pairs as f64,
            "exhaustive_ms": exhaustive_t.as_secs_f64() * 1e3,
            "lsh_ms": lsh_t.as_secs_f64() * 1e3,
            "speedup": speedup,
            "topk_recall": topk_recall,
            "planted_strong_pairs": strong.len(),
            "planted_recall": planted_recall,
            "planes_bytes": planes_bytes,
        }));
    }

    let gate_enforced = std::env::var("FORESIGHT_BENCH_GATE").is_ok_and(|v| v == "1");
    let speedup_pass = gate_speedup_2048 >= MIN_SPEEDUP_AT_2048;
    let recall_pass = min_topk_recall >= MIN_RECALL;
    let pass = speedup_pass && recall_pass;

    let crossover = rows
        .iter()
        .find(|r| r["speedup"].as_f64().unwrap_or(0.0) >= 1.0)
        .and_then(|r| r["numeric_cols"].as_u64());

    let report = json!({
        "experiment": "lsh",
        "description": "LSH bucket-collision candidate generation (every table probed) vs the exhaustive d\u{b2} scan on wide tables, cold, top-k recall of the collisions",
        "rows": ROWS,
        "top_k": TOP_K,
        "statistic": "median",
        "rayon_threads": threads,
        "widths": Value::Array(rows),
        "crossover_cols": crossover,
        "gates": {
            "min_speedup_at_2048": MIN_SPEEDUP_AT_2048,
            "min_topk_recall": MIN_RECALL,
            "speedup_at_2048": gate_speedup_2048,
            "min_observed_topk_recall": min_topk_recall,
            "enforced": gate_enforced,
            "pass": pass,
        },
    });
    let path = "BENCH_lsh.json";
    std::fs::write(
        path,
        serde_json::to_string_pretty(&report).expect("serialize") + "\n",
    )
    .expect("write BENCH_lsh.json");
    match crossover {
        Some(d) => println!("\nwrote {path} (crossover at d = {d})"),
        None => println!("\nwrote {path} (no crossover observed)"),
    }

    if !pass {
        let msg = format!(
            "regression gate: speedup at d=2048 {gate_speedup_2048:.2}x \
             (need >= {MIN_SPEEDUP_AT_2048}x), min top-k recall {min_topk_recall:.3} \
             (floor {MIN_RECALL})"
        );
        if gate_enforced {
            eprintln!("FAIL {msg}");
            std::process::exit(1);
        }
        println!("warn (gate not enforced): {msg}");
    } else {
        println!(
            "gates pass: speedup at d=2048 {gate_speedup_2048:.2}x, min top-k recall {min_topk_recall:.3}"
        );
    }
}
