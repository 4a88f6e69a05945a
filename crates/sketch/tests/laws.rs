//! Algebraic laws of the mergeable sketches, under random shard splits.
//!
//! The partition-native pipeline (§3) relies on sketches forming a
//! commutative monoid under `merge`: a table split into shards, sketched
//! per shard and merged in *any* grouping, must answer like the sketch of
//! the whole. These tests split random streams three ways and check
//!
//! * **commutativity** — `a ⊕ b` and `b ⊕ a` agree (bit-exact where the
//!   state is a sum, since IEEE addition is commutative; within the
//!   sketch's own error bound where merge compacts);
//! * **associativity** — `(a ⊕ b) ⊕ c` vs `a ⊕ (b ⊕ c)`, same criteria;
//! * **the §3 correlation error bound** — `ρ̂ = cos(πH/k)` from Gaussian
//!   hyperplane sketches stays within `π·√(ln(2/δ)/(2k))` of the exact
//!   Pearson ρ (Hoeffding on the differing-bit fraction, |cos′| ≤ 1,
//!   δ = 1e-5), on synthetic columns of known correlation.

use foresight_sketch::entropy::EntropySketch;
use foresight_sketch::freq::SpaceSaving;
use foresight_sketch::hyperplane::{
    HyperplaneAccumulator, HyperplaneConfig, HyperplaneKind, SharedHyperplanes,
};
use foresight_sketch::quantile::KllSketch;
use foresight_sketch::{Mergeable, Sketch};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// A random 3-way split of `0..n`: two cut points, any order, ends allowed.
fn splits(n: usize) -> impl Strategy<Value = (usize, usize)> {
    (0..=n).prop_flat_map(move |i| (Just(i), i..=n))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn kll_merge_is_order_insensitive(
        values in proptest::collection::vec(-1e6f64..1e6, 30..400),
        ij in splits(400),
    ) {
        let (i, j) = ij;
        let (i, j) = (i.min(values.len()), j.min(values.len()));
        let (i, j) = (i.min(j), i.max(j));
        let shard = |r: &[f64]| {
            let mut sk = KllSketch::new(64);
            for &v in r { sk.insert(v); }
            sk
        };
        let (a, b, c) = (shard(&values[..i]), shard(&values[i..j]), shard(&values[j..]));

        // (a ⊕ b) ⊕ c
        let mut left = a.clone();
        left.merge(&b).unwrap();
        left.merge(&c).unwrap();
        // a ⊕ (b ⊕ c)
        let mut bc = b.clone();
        bc.merge(&c).unwrap();
        let mut right = a.clone();
        right.merge(&bc).unwrap();
        // c ⊕ b ⊕ a (commuted)
        let mut rev = c;
        rev.merge(&b).unwrap();
        rev.merge(&a).unwrap();

        let mut sorted = values.clone();
        sorted.sort_by(|x, y| x.partial_cmp(y).unwrap());
        for sk in [&left, &right, &rev] {
            // counts and extremes are exact regardless of grouping
            prop_assert_eq!(sk.count(), values.len() as u64);
            prop_assert_eq!(sk.quantile(0.0), Some(sorted[0]));
            prop_assert_eq!(sk.quantile(1.0), Some(sorted[sorted.len() - 1]));
            // interior quantiles stay within the rank-error bound
            for q in [0.25, 0.5, 0.75] {
                let est = sk.quantile(q).unwrap();
                let rank = sorted.iter().filter(|&&v| v <= est).count() as f64
                    / sorted.len() as f64;
                prop_assert!((rank - q).abs() < 0.15, "q={q} rank={rank}");
            }
        }
    }

    #[test]
    fn entropy_merge_is_order_insensitive(
        stream in proptest::collection::vec(0u8..30, 3..500),
        ij in splits(500),
    ) {
        let (i, j) = ij;
        let (i, j) = (i.min(stream.len()), j.min(stream.len()));
        let (i, j) = (i.min(j), i.max(j));
        let shard = |r: &[u8]| {
            let mut sk = EntropySketch::new(64, 42);
            for item in r { sk.insert(&item.to_string()); }
            sk
        };
        let (a, b, c) = (shard(&stream[..i]), shard(&stream[i..j]), shard(&stream[j..]));

        // commutativity is bit-exact: the state is a vector sum and IEEE
        // addition commutes
        let mut ab = a.clone();
        ab.merge(&b).unwrap();
        let mut ba = b.clone();
        ba.merge(&a).unwrap();
        prop_assert_eq!(&ab, &ba);

        // associativity holds up to f64 round-off in the register sums
        let mut left = ab;
        left.merge(&c).unwrap();
        let mut bc = b;
        bc.merge(&c).unwrap();
        let mut right = a;
        right.merge(&bc).unwrap();
        prop_assert_eq!(left.count(), stream.len() as u64);
        prop_assert_eq!(right.count(), stream.len() as u64);
        let (el, er) = (left.estimate(), right.estimate());
        prop_assert!(
            (el - er).abs() <= 1e-9 * el.abs().max(1.0),
            "association changed the estimate: {el} vs {er}"
        );
    }

    #[test]
    fn space_saving_merge_keeps_bounds_any_order(
        stream in proptest::collection::vec(0u8..40, 3..500),
        ij in splits(500),
    ) {
        let (i, j) = ij;
        let (i, j) = (i.min(stream.len()), j.min(stream.len()));
        let (i, j) = (i.min(j), i.max(j));
        let m = 12;
        let shard = |r: &[u8]| {
            let mut sk = SpaceSaving::new(m);
            for item in r { sk.insert(&item.to_string()); }
            sk
        };
        let (a, b, c) = (shard(&stream[..i]), shard(&stream[i..j]), shard(&stream[j..]));

        let mut left = a.clone();
        left.merge(&b).unwrap();
        left.merge(&c).unwrap();
        let mut bc = b;
        bc.merge(&c).unwrap();
        let mut right = a;
        right.merge(&bc).unwrap();

        let mut exact: HashMap<u8, u64> = HashMap::new();
        for &item in &stream {
            *exact.entry(item).or_insert(0) += 1;
        }
        // every grouping must keep the Space-Saving guarantees: tracked
        // items never undercount (and overcount at most their recorded
        // error); an untracked item's true count is at most n/m
        let heavy = stream.len() as u64 / m as u64;
        for sk in [&left, &right] {
            prop_assert_eq!(sk.count(), stream.len() as u64);
            let tracked: HashMap<String, (u64, u64)> = sk
                .top()
                .into_iter()
                .map(|(item, count, error)| (item, (count, error)))
                .collect();
            for (item, &count) in &exact {
                match tracked.get(&item.to_string()) {
                    Some(&(est, error)) => {
                        prop_assert!(est >= count, "undercount of {}: {} < {}", item, est, count);
                        prop_assert!(
                            est - count <= error,
                            "overcount of {} beyond its error bound: {} - {} > {}",
                            item, est, count, error
                        );
                    }
                    None => prop_assert!(
                        count <= heavy,
                        "heavy item {} (count {} > n/m = {}) was evicted",
                        item, count, heavy
                    ),
                }
            }
            let rf = sk.rel_freq(3);
            prop_assert!((0.0..=1.0).contains(&rf) || rf.is_nan());
        }
    }

    #[test]
    fn hyperplane_merge_is_order_insensitive(
        values in proptest::collection::vec(-1e3f64..1e3, 12..300),
        ij in splits(300),
    ) {
        let (i, j) = ij;
        let (i, j) = (i.min(values.len()), j.min(values.len()));
        let (i, j) = (i.min(j), i.max(j));
        prop_assume!(values.iter().any(|v| *v != values[0])); // non-constant
        let config = HyperplaneConfig { k: 128, seed: 7, ..Default::default() };
        let shard = |r: &[f64], offset: usize| {
            let mut acc = HyperplaneAccumulator::new(config);
            acc.update_rows(r, offset as u64);
            acc
        };
        let a = shard(&values[..i], 0);
        let b = shard(&values[i..j], i);
        let c = shard(&values[j..], j);

        // commutativity is bit-exact (the state is a vector of f64 sums)
        let mut ab = a.clone();
        ab.merge(&b).unwrap();
        let mut ba = b.clone();
        ba.merge(&a).unwrap();
        let (fab, fba) = (ab.finalize(), ba.finalize());
        prop_assert_eq!(fab.bits(), fba.bits());

        // associativity: sums reassociate within f64 round-off; a sign bit
        // can only flip for a projection sitting at ~machine-epsilon of
        // zero, so the finalized sketches differ in at most a bit or two
        let mut left = ab;
        left.merge(&c).unwrap();
        let mut bc = b;
        bc.merge(&c).unwrap();
        let mut right = a;
        right.merge(&bc).unwrap();
        let (sl, sr) = (left.finalize(), right.finalize());
        let differing = sl.bits().hamming(sr.bits());
        prop_assert!(differing <= 2, "{} sign bits flipped on reassociation", differing);

        // and the whole-column sketch agrees with the fully merged one up
        // to the same knife-edge sign flips
        let whole = shard(&values, 0).finalize();
        let vs_whole = sl.bits().hamming(whole.bits());
        prop_assert!(vs_whole <= 2, "{} bits differ from the unsharded sketch", vs_whole);
    }
}

/// Exact two-pass Pearson, the reference for the §3 bound.
fn exact_pearson(x: &[f64], y: &[f64]) -> f64 {
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let cov: f64 = x.iter().zip(y).map(|(a, b)| (a - mx) * (b - my)).sum();
    let sx: f64 = x.iter().map(|a| (a - mx).powi(2)).sum::<f64>().sqrt();
    let sy: f64 = y.iter().map(|b| (b - my).powi(2)).sum::<f64>().sqrt();
    cov / (sx * sy)
}

/// §3 error bound: `ρ̂ = cos(πH/k)` vs the exact Pearson ρ of the sampled
/// columns. Hoeffding puts the differing-bit fraction within
/// `ε = √(ln(2/δ)/(2k))` of its mean θ/π with probability 1 − δ; since
/// `|d cos(πh)/dh| ≤ π`, the estimate is within `π·ε` of ρ. With k = 2048
/// and δ = 1e-5 that is ±0.172 — loose, but it is *the* bound, and the
/// seeds are fixed, so this is deterministic.
#[test]
fn hyperplane_correlation_within_section3_bound() {
    const K: usize = 2048;
    const N: usize = 4096;
    const DELTA: f64 = 1e-5;
    let bound = std::f64::consts::PI * ((2.0 / DELTA).ln() / (2.0 * K as f64)).sqrt();

    let hp = SharedHyperplanes::new(HyperplaneConfig {
        k: K,
        seed: 0xC0FFEE,
        kind: HyperplaneKind::Gaussian, // the paper's exact construction
    });
    for (case, rho) in [-0.9f64, -0.4, 0.0, 0.5, 0.95].into_iter().enumerate() {
        // bivariate normal columns with population correlation ρ
        // (Box–Muller from the vendored deterministic StdRng)
        let mut rng = StdRng::seed_from_u64(2017 + case as u64);
        let mut normal = || {
            let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            let u2: f64 = rng.gen_range(0.0f64..1.0);
            (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
        };
        let mut x = Vec::with_capacity(N);
        let mut y = Vec::with_capacity(N);
        for _ in 0..N {
            let (g1, g2) = (normal(), normal());
            x.push(g1);
            y.push(rho * g1 + (1.0 - rho * rho).sqrt() * g2);
        }

        let exact = exact_pearson(&x, &y);
        let sk = hp.sketch_columns(&[&x, &y]);
        let est = sk[0].correlation(&sk[1]).unwrap();
        let err = (est - exact).abs();
        assert!(
            err <= bound,
            "ρ={rho}: |ρ̂ − ρ_exact| = {err:.4} exceeds the §3 bound {bound:.4} \
             (ρ̂ = {est:.4}, exact = {exact:.4})"
        );
    }
}
