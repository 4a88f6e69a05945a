//! The paper's §3 composability claim, end to end: sketches built on
//! disjoint data partitions merge into sketches of the whole, so insight
//! metrics can be maintained across distributed or streaming ingests.

use foresight::data::datasets::{synth, SynthConfig};
use foresight::sketch::hyperplane::{HyperplaneConfig, SharedHyperplanes};
use foresight::sketch::{EntropySketch, HyperLogLog, KllSketch, Mergeable, SpaceSaving};
use foresight::stats::Moments;

fn partitions(values: &[f64], parts: usize) -> Vec<(&[f64], u64)> {
    let size = values.len().div_ceil(parts);
    values
        .chunks(size)
        .enumerate()
        .map(|(i, c)| (c, (i * size) as u64))
        .collect()
}

fn column() -> Vec<f64> {
    let (table, _) = synth(&SynthConfig {
        rows: 8_000,
        numeric_cols: 2,
        categorical_cols: 0,
        seed: 404,
        ..Default::default()
    });
    table.numeric(0).unwrap().values().to_vec()
}

#[test]
fn hyperplane_partition_merge_is_exact() {
    let x = column();
    let y: Vec<f64> = x
        .iter()
        .enumerate()
        .map(|(i, v)| v * 0.8 + (i % 7) as f64 * 0.1)
        .collect();
    let hp = SharedHyperplanes::new(HyperplaneConfig::default());
    let whole = hp.sketch_columns(&[&x, &y]);

    for data in [&x, &y] {
        let mut merged = hp.accumulator();
        for (chunk, offset) in partitions(data, 4) {
            let mut part = hp.accumulator();
            part.update_rows(chunk, offset);
            merged.merge(&part).unwrap();
        }
        let idx = if std::ptr::eq(data, &x) { 0 } else { 1 };
        assert_eq!(merged.finalize(), whole[idx], "partition merge drifted");
    }

    // and the correlation estimate from merged sketches works
    let mut ax = hp.accumulator();
    let mut ay = hp.accumulator();
    for (chunk, offset) in partitions(&x, 3) {
        ax.update_rows(chunk, offset);
    }
    for (chunk, offset) in partitions(&y, 5) {
        ay.update_rows(chunk, offset);
    }
    let est = ax.finalize().correlation(&ay.finalize()).unwrap();
    let exact = foresight::stats::correlation::pearson(&x, &y);
    assert!((est - exact).abs() < 0.12, "est {est} exact {exact}");
}

#[test]
fn moments_partition_merge_matches_whole() {
    let x = column();
    let whole = Moments::from_slice(&x);
    let mut merged = Moments::new();
    for (chunk, _) in partitions(&x, 7) {
        merged.merge(&Moments::from_slice(chunk));
    }
    assert_eq!(merged.count(), whole.count());
    assert!((merged.mean() - whole.mean()).abs() < 1e-10);
    assert!((merged.skewness() - whole.skewness()).abs() < 1e-8);
    assert!((merged.kurtosis() - whole.kurtosis()).abs() < 1e-8);
}

#[test]
fn kll_partition_merge_keeps_rank_error() {
    let x = column();
    let mut merged = KllSketch::new(200);
    for (chunk, _) in partitions(&x, 6) {
        let mut part = KllSketch::new(200);
        for &v in chunk {
            part.insert(v);
        }
        merged.merge(&part).unwrap();
    }
    let mut sorted = x.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    for q in [0.1, 0.5, 0.9] {
        let est = merged.quantile(q).unwrap();
        let rank = sorted.iter().filter(|&&v| v <= est).count() as f64 / sorted.len() as f64;
        assert!((rank - q).abs() < 0.04, "q={q} rank={rank}");
    }
}

#[test]
fn categorical_sketches_merge_across_partitions() {
    let labels: Vec<String> = (0..30_000)
        .map(|i| format!("v{}", (i * i + 13 * i) % 500))
        .collect();
    let halves: Vec<&[String]> = labels.chunks(15_000).collect();

    // frequency: merged SpaceSaving keeps its bound
    let mut ss = SpaceSaving::new(48);
    let mut hll = HyperLogLog::new(12, 3);
    let mut ent = EntropySketch::new(512, 9);
    for half in &halves {
        let mut ss_p = SpaceSaving::new(48);
        let mut hll_p = HyperLogLog::new(12, 3);
        let mut ent_p = EntropySketch::new(512, 9);
        for l in half.iter() {
            ss_p.insert(l);
            hll_p.insert(l);
            ent_p.insert(l);
        }
        ss.merge(&ss_p).unwrap();
        hll.merge(&hll_p).unwrap();
        ent.merge(&ent_p).unwrap();
    }

    // ground truth
    let mut counts = std::collections::HashMap::new();
    for l in &labels {
        *counts.entry(l.clone()).or_insert(0u64) += 1;
    }
    let distinct = counts.len() as f64;
    let n = labels.len() as f64;
    let true_entropy: f64 = counts
        .values()
        .map(|&c| {
            let p = c as f64 / n;
            -p * p.ln()
        })
        .sum();

    assert!(
        (hll.estimate() - distinct).abs() / distinct < 0.05,
        "hll {}",
        hll.estimate()
    );
    assert!(
        (ent.estimate() - true_entropy).abs() < 0.3,
        "entropy {} vs {}",
        ent.estimate(),
        true_entropy
    );
    for (label, &c) in counts.iter() {
        let ss_est = ss.estimate(label);
        assert!(ss_est == 0 || ss_est >= c, "SS undercounted a tracked item");
    }
}

/// The engine-level guarantee the sketch merges exist for: approximate-mode
/// insight queries answer the same whether the rows arrive as one
/// materialized table or as disjoint shards whose per-shard catalogs are
/// merged — across several split patterns, including an empty shard.
#[test]
fn engine_queries_agree_between_materialized_and_sharded() {
    use foresight::prelude::*;

    let (table, _) = synth(&SynthConfig {
        rows: 3_000,
        numeric_cols: 4,
        categorical_cols: 1,
        correlated_fraction: 0.5,
        seed: 99,
        ..Default::default()
    });
    let config = CatalogConfig {
        hyperplane_k: Some(1024),
        ..Default::default()
    };

    let mut mono = Foresight::new(table.clone());
    mono.preprocess(&config).unwrap();

    let n = table.n_rows();
    // uneven thirds; a run of tiny shards; a split with an empty shard
    let split_patterns: Vec<Vec<usize>> = vec![
        vec![0, 700, 1_900, n],
        vec![0, 100, 200, 300, 400, n],
        vec![0, 1_500, 1_500, n],
    ];

    for edges in split_patterns {
        let shards: Vec<Table> = edges
            .windows(2)
            .map(|w| table.filter_rows(|r| r >= w[0] && r < w[1]))
            .collect();
        let mut sharded = Foresight::from_source(TableSource::sharded(shards).unwrap());
        sharded.preprocess(&config).unwrap();

        for class in ["linear-relationship", "skew", "heavy-tails"] {
            let query = InsightQuery::class(class).top_k(3);
            let from_mono = mono.query(&query).unwrap();
            let from_shards = sharded.query(&query).unwrap();
            assert!(!from_mono.is_empty(), "{class}: no results to compare");
            assert_eq!(
                from_mono.len(),
                from_shards.len(),
                "{class}: result count diverged for edges {edges:?}"
            );
            for (a, b) in from_mono.iter().zip(&from_shards) {
                assert_eq!(a.attrs, b.attrs, "{class}: ranking diverged");
                assert!(
                    (a.score - b.score).abs() <= 1e-6,
                    "{class}: score {} vs {}",
                    a.score,
                    b.score
                );
            }
        }
        assert_eq!(
            mono.carousels(2).unwrap().len(),
            sharded.carousels(2).unwrap().len()
        );
    }
}
