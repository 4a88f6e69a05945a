//! The recall harness for LSH-indexed candidate generation.
//!
//! Synthetic correlated Gaussians with planted high-|ρ| pairs: the LSH
//! candidate set must recover the exact top-k most-correlated pairs at or
//! above a floor pinned per (K, L) from the banding math — a band of K
//! bits collides with probability p^K where p = 1 − arccos(ρ)/π, and L
//! independent tables lift that to 1 − (1 − p^K)^L. For the planted
//! ρ ≥ 0.95 used here that analytic recall is ≥ 0.93 at (16, 8) and
//! ≥ 0.99 at (16, 16); the pinned floors leave sampling-noise headroom.
//!
//! The recall-1.0 knob is held to a stronger standard: results under
//! [`CandidateStrategy::Exhaustive`] must be *bit-identical* to a bare
//! executor running the class's own quadratic scan — the index may never
//! perturb an answer when the caller pins recall.

use foresight_data::datasets::{synth, SynthConfig};
use foresight_data::{Table, TableSource};
use foresight_engine::{
    lsh_disabled, CandidateStrategy, CoreBuilder, EngineCore, Executor, InsightQuery, Mode,
    QueryOptions,
};
use foresight_insight::InsightInstance;
use foresight_sketch::CatalogConfig;
use foresight_stats::correlation::pearson_complete;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

const TOP_K: usize = 5;

/// The pinned candidate-recall floor for the exact top-[`TOP_K`] pairs,
/// per planned (K, L). Derived from the banding math at the workload's
/// weakest planted |ρ| (0.95), minus headroom for estimator noise at a
/// few hundred rows.
fn pinned_floor(band_bits: usize, tables: usize) -> f64 {
    match (band_bits, tables) {
        (16, 16) => 0.8,
        (16, 8) => 0.6,
        _ => panic!("unpinned (K, L) = ({band_bits}, {tables}): add a floor"),
    }
}

/// A wide synthetic table with strong planted pairs, preprocessed into a
/// core (catalog + LSH index).
fn wide_core(seed: u64, cols: usize, rows: usize, hyperplane_k: usize) -> Arc<EngineCore> {
    let (table, _) = synth(&SynthConfig {
        rows,
        numeric_cols: cols,
        categorical_cols: 0,
        correlated_fraction: 0.3,
        rho_range: (0.95, 0.99),
        seed,
        ..Default::default()
    });
    let mut builder = CoreBuilder::new(TableSource::materialized(table));
    builder
        .preprocess(&CatalogConfig {
            hyperplane_k: Some(hyperplane_k),
            ..Default::default()
        })
        .unwrap();
    builder.freeze()
}

/// `query` in approximate mode, serially, under `candidates`.
fn approximate(
    core: &EngineCore,
    query: &InsightQuery,
    candidates: CandidateStrategy,
) -> Vec<InsightInstance> {
    let opts = QueryOptions {
        mode: Mode::Approximate,
        parallel: false,
        candidates,
        ..core.options()
    };
    core.run(query, &opts).unwrap().results
}

/// The exact top-k column pairs by |Pearson| over the raw values.
fn exact_top_pairs(table: &Table, k: usize) -> Vec<(usize, usize)> {
    let indices = table.numeric_indices();
    let cols: Vec<&[f64]> = indices
        .iter()
        .map(|&i| table.numeric(i).unwrap().values())
        .collect();
    let mut scored: Vec<(f64, (usize, usize))> = Vec::new();
    for a in 0..cols.len() {
        for b in (a + 1)..cols.len() {
            let rho = pearson_complete(cols[a], cols[b]);
            if rho.is_finite() {
                scored.push((rho.abs(), (indices[a], indices[b])));
            }
        }
    }
    scored.sort_by(|x, y| y.0.total_cmp(&x.0));
    scored.truncate(k);
    scored.into_iter().map(|(_, pair)| pair).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// LSH candidate recall of the exact top-k meets the pinned floor for
    /// both planned table counts the default configs produce: k=256
    /// signatures → (K, L) = (16, 16), k=128 → (16, 8).
    #[test]
    fn candidate_recall_meets_pinned_floor(
        seed in 0u64..10_000,
        hyperplane_k in prop_oneof![Just(128usize), Just(256usize)],
    ) {
        if lsh_disabled() {
            return Ok(()); // CI's force-disabled pass: nothing to index
        }
        let core = wide_core(seed, 72, 384, hyperplane_k);
        let index = core.lsh_index().expect("catalog built");
        let config = index.config();
        let floor = pinned_floor(config.band_bits, config.tables);

        let (pairs, probed) = index.candidate_pairs(usize::MAX);
        prop_assert_eq!(probed, config.tables);
        let candidates: BTreeSet<(usize, usize)> = pairs.into_iter().collect();
        let top = exact_top_pairs(core.try_table().unwrap(), TOP_K);
        let hit = top.iter().filter(|p| candidates.contains(p)).count();
        let recall = hit as f64 / top.len() as f64;
        prop_assert!(
            recall >= floor,
            "recall {recall:.3} under floor {floor} at (K, L) = ({}, {}), seed {seed}",
            config.band_bits,
            config.tables
        );
    }

    /// Recall = 1.0 mode: a query under `Exhaustive` is bit-identical to a
    /// bare executor running the class's own quadratic scan over the same
    /// snapshot — same instances, same scores, same order.
    #[test]
    fn exhaustive_strategy_is_bit_identical_to_quadratic_scan(
        seed in 0u64..10_000,
        class in prop_oneof![
            Just("linear-relationship"),
            Just("monotonic-relationship"),
        ],
    ) {
        let core = wide_core(seed, 72, 256, 256);
        let query = InsightQuery::class(class).top_k(12);
        let via_strategy = approximate(&core, &query, CandidateStrategy::Exhaustive);
        // the pre-index code path: an executor with no candidate source at
        // all, generating through InsightClass::candidates
        let bare = Executor::approximate(
            core.try_table().unwrap(),
            core.registry(),
            core.catalog().unwrap(),
        )
        .parallel(false)
        .execute(&query)
        .unwrap();
        prop_assert_eq!(via_strategy, bare);
    }
}

/// The default knob on a wide table actually routes through the index
/// (Auto resolves to LSH at width ≥ threshold), and EXPLAIN says so in
/// the acceptance-pinned phrasing.
#[test]
fn explain_reports_lsh_collisions_on_wide_tables() {
    if lsh_disabled() {
        return;
    }
    let core = wide_core(7, 96, 256, 256);
    let mut handle = core.handle();
    let explained = handle
        .explain(&InsightQuery::class("linear-relationship").top_k(5))
        .unwrap();
    match explained.trace {
        Some(trace) => {
            let lsh = trace.lsh.expect("wide-table Auto query routes through LSH");
            assert_eq!(lsh.universe_columns, 96);
            assert!(lsh.collision_pairs > 0);
            assert_eq!(lsh.tables_probed, 16);
            let text = trace.to_text();
            assert!(
                text.contains(&format!(
                    "candidates from LSH bucket collisions: {} of {}\u{b2}, tables probed: {}",
                    lsh.collision_pairs, lsh.universe_columns, lsh.tables_probed
                )),
                "EXPLAIN text missing the collision line:\n{text}"
            );
        }
        None => assert!(!cfg!(feature = "trace")),
    }
}

/// Below the width threshold, Auto keeps the quadratic scan even though
/// an index exists — small tables never pay the recall loss.
#[test]
fn auto_keeps_scan_below_width_threshold() {
    let core = wide_core(11, 24, 256, 256);
    let query = InsightQuery::class("linear-relationship").top_k(8);
    let auto = approximate(&core, &query, CandidateStrategy::Auto);
    let exhaustive = approximate(&core, &query, CandidateStrategy::Exhaustive);
    assert_eq!(auto, exhaustive);
}

/// The probes knob monotonically widens the candidate set: probing more
/// tables can only add collision pairs, and probing all tables matches
/// the index's full candidate list.
#[test]
fn probe_knob_is_monotone() {
    if lsh_disabled() {
        return;
    }
    let core = wide_core(13, 96, 384, 256);
    let index = core.lsh_index().expect("catalog built");
    let mut last: BTreeSet<(usize, usize)> = BTreeSet::new();
    for probes in 1..=index.config().tables {
        let (pairs, probed) = index.candidate_pairs(probes);
        assert_eq!(probed, probes);
        let set: BTreeSet<(usize, usize)> = pairs.into_iter().collect();
        assert!(
            set.is_superset(&last),
            "probing {probes} tables lost pairs present at {}",
            probes - 1
        );
        last = set;
    }
    let (all, _) = index.candidate_pairs(usize::MAX);
    assert_eq!(all.into_iter().collect::<BTreeSet<_>>(), last);
}
