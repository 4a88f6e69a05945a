//! Property-based tests for the sketch guarantees.

use foresight_sketch::hyperplane::{HyperplaneConfig, SharedHyperplanes};
use foresight_sketch::quantile::KllSketch;
use foresight_sketch::{Mergeable, Sketch};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn kll_merge_equals_union_ranks(a in proptest::collection::vec(-1e6f64..1e6, 20..400),
                                     b in proptest::collection::vec(-1e6f64..1e6, 20..400)) {
        let mut left = KllSketch::new(100);
        for &v in &a {
            left.insert(v);
        }
        let mut right = KllSketch::new(100);
        for &v in &b {
            right.insert(v);
        }
        left.merge(&right).expect("same k");
        prop_assert_eq!(left.count(), (a.len() + b.len()) as u64);
        let mut all: Vec<f64> = a.iter().chain(&b).copied().collect();
        all.sort_by(|x, y| x.partial_cmp(y).unwrap());
        let med = left.quantile(0.5).unwrap();
        let rank = all.iter().filter(|&&v| v <= med).count() as f64 / all.len() as f64;
        prop_assert!((rank - 0.5).abs() < 0.12, "merged median rank {}", rank);
    }

    #[test]
    fn kll_min_max_exact(values in proptest::collection::vec(-1e6f64..1e6, 1..500)) {
        let mut sk = KllSketch::new(64);
        for &v in &values {
            sk.insert(v);
        }
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(sk.quantile(0.0), Some(lo));
        prop_assert_eq!(sk.quantile(1.0), Some(hi));
    }

    #[test]
    fn hyperplane_self_and_negation(values in proptest::collection::vec(-1e3f64..1e3, 10..300)) {
        // degenerate constant columns are excluded by construction
        let spread = values.iter().copied().fold(f64::INFINITY, f64::min)
            != values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assume!(spread);
        let hp = SharedHyperplanes::new(HyperplaneConfig { k: 128, seed: 5, ..Default::default() });
        let neg: Vec<f64> = values.iter().map(|v| -v).collect();
        let sk = hp.sketch_columns(&[&values, &neg]);
        prop_assert_eq!(sk[0].correlation(&sk[0]).unwrap(), 1.0);
        prop_assert!((sk[0].correlation(&sk[1]).unwrap() + 1.0).abs() < 1e-12);
        // symmetry
        prop_assert_eq!(
            sk[0].correlation(&sk[1]).unwrap(),
            sk[1].correlation(&sk[0]).unwrap()
        );
    }

    #[test]
    fn hyperplane_estimate_bounded(a in proptest::collection::vec(-1e3f64..1e3, 10..200),
                                    shift in -10.0f64..10.0) {
        let b: Vec<f64> = a.iter().enumerate().map(|(i, v)| v + shift * (i as f64).sin()).collect();
        let hp = SharedHyperplanes::new(HyperplaneConfig { k: 64, seed: 11, ..Default::default() });
        let sk = hp.sketch_columns(&[&a, &b]);
        let est = sk[0].correlation(&sk[1]).unwrap();
        prop_assert!((-1.0..=1.0).contains(&est));
    }
}

// Catalog-level composability (paper §3): a catalog assembled from random
// disjoint shards — including empty shards and an all-missing column —
// answers like one built in a single pass. Moments are bit-identical
// (dyadic reduction tree); KLL / entropy / HLL agree within their
// documented error bounds.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn catalog_sharded_build_matches_single_pass(
        raw in proptest::collection::vec(-1e3f64..1e3, 40..200),
        cuts in proptest::collection::vec(0usize..256, 1..6),
        hole in 2usize..7,
    ) {
        use foresight_data::{Table, TableBuilder};
        use foresight_sketch::{CatalogConfig, SketchCatalog};

        let n = raw.len();
        // x has NaN holes, `dead` is entirely missing, `c` is categorical
        let x: Vec<f64> = raw
            .iter()
            .enumerate()
            .map(|(i, &v)| if i % hole == 0 { f64::NAN } else { v })
            .collect();
        let labels: Vec<String> = raw
            .iter()
            .map(|v| format!("c{}", (v.abs() as u64) % 6))
            .collect();
        let whole = TableBuilder::new("prop")
            .numeric("x", x)
            .numeric("y", raw.clone())
            .numeric("dead", vec![f64::NAN; n])
            .categorical("c", labels)
            .build()
            .unwrap();

        // random cut points; duplicates are kept so empty shards occur
        let mut edges: Vec<usize> = cuts.iter().map(|&c| c % (n + 1)).collect();
        edges.sort_unstable();
        edges.insert(0, 0);
        edges.push(n);
        let shards: Vec<Table> = edges
            .windows(2)
            .map(|w| whole.filter_rows(|r| r >= w[0] && r < w[1]))
            .collect();
        prop_assert_eq!(shards.iter().map(Table::n_rows).sum::<usize>(), n);

        let config = CatalogConfig {
            hyperplane_k: Some(256),
            ..Default::default()
        };
        let refs: Vec<&Table> = shards.iter().collect();
        let merged = match SketchCatalog::build_sharded(&refs, &config) {
            Ok(c) => c,
            Err(e) => return Err(TestCaseError::fail(format!("merge failed: {e}"))),
        };
        let single = SketchCatalog::build(&whole, &config.resolved_for_rows(n));

        prop_assert_eq!(merged.rows(), single.rows());
        prop_assert_eq!(merged.rows(), n);

        // moments-derived statistics are bit-identical, holes and all
        for idx in [0usize, 1, 2] {
            prop_assert_eq!(
                &merged.numeric(idx).unwrap().moments,
                &single.numeric(idx).unwrap().moments,
                "moments of column {} diverged", idx
            );
        }
        prop_assert_eq!(merged.numeric(2).unwrap().moments.count(), 0);

        // hyperplane correlation estimates agree within a small ε (float
        // association across shards may flip near-zero dot products)
        let (m_rho, s_rho) = (merged.correlation(0, 1), single.correlation(0, 1));
        match (m_rho, s_rho) {
            (Some(a), Some(b)) => prop_assert!((a - b).abs() <= 0.05, "rho {} vs {}", a, b),
            (a, b) => prop_assert_eq!(a, b),
        }

        // KLL: merged median sits within rank ε of the true median of the
        // present values (compaction order differs from the single pass)
        let present: Vec<f64> = raw
            .iter()
            .enumerate()
            .filter(|(i, _)| i % hole != 0)
            .map(|(_, &v)| v)
            .collect();
        if let Some(med) = merged.numeric(0).unwrap().quantiles.quantile(0.5) {
            let rank =
                present.iter().filter(|&&v| v <= med).count() as f64 / present.len() as f64;
            prop_assert!((rank - 0.5).abs() <= 0.1, "median rank {}", rank);
        }

        let cat_idx = 3;
        let m_cat = merged.categorical(cat_idx).unwrap();
        let s_cat = single.categorical(cat_idx).unwrap();
        // HLL register-max is order-invariant: merged estimate is exact-equal
        prop_assert_eq!(m_cat.distinct.estimate(), s_cat.distinct.estimate());
        prop_assert_eq!(m_cat.total, s_cat.total);
        // entropy projections sum commutatively; only ulp drift expected
        prop_assert!(
            (m_cat.entropy.estimate() - s_cat.entropy.estimate()).abs() <= 1e-6,
            "entropy {} vs {}", m_cat.entropy.estimate(), s_cat.entropy.estimate()
        );
    }
}
