//! Criterion micro-benches: raw update/query throughput of each sketch
//! family the catalog builds, with an exact sort as the quantile baseline.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use foresight_sketch::hyperplane::{HyperplaneConfig, SharedHyperplanes};
use foresight_sketch::{EntropySketch, KllSketch, Reservoir, SpaceSaving};

fn values(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((i as u64).wrapping_mul(2_654_435_761) % 100_000) as f64)
        .collect()
}

fn labels(n: usize, card: usize) -> Vec<String> {
    (0..n)
        .map(|i| format!("v{}", (i * i + 7 * i) % card))
        .collect()
}

fn bench_quantile_sketches(c: &mut Criterion) {
    let data = values(100_000);
    let mut group = c.benchmark_group("quantile_insert_100k");
    group.sample_size(10);
    group.bench_function("kll_k200", |b| {
        b.iter(|| {
            let mut sk = KllSketch::new(200);
            for &v in &data {
                sk.insert(v);
            }
            black_box(sk.quantile(0.5))
        })
    });
    group.bench_function("exact_sort", |b| {
        b.iter(|| {
            let mut v = data.clone();
            v.sort_by(|a, b| a.partial_cmp(b).expect("no nan"));
            black_box(v[v.len() / 2])
        })
    });
    group.finish();
}

fn bench_frequency_sketches(c: &mut Criterion) {
    let stream = labels(100_000, 5_000);
    let mut group = c.benchmark_group("frequency_insert_100k");
    group.sample_size(10);
    group.bench_function("space_saving_64", |b| {
        b.iter(|| {
            let mut sk = SpaceSaving::new(64);
            for l in &stream {
                sk.insert(l);
            }
            black_box(sk.rel_freq(5))
        })
    });
    group.finish();
}

fn bench_hyperplane_and_misc(c: &mut Criterion) {
    let data = values(50_000);
    let mut group = c.benchmark_group("misc_sketches");
    group.sample_size(10);
    group.bench_function("hyperplane_k256_50k", |b| {
        let hp = SharedHyperplanes::new(HyperplaneConfig {
            k: 256,
            seed: 1,
            ..Default::default()
        });
        b.iter(|| black_box(hp.sketch_column(&data)))
    });
    group.bench_function("reservoir_1k_50k", |b| {
        b.iter(|| {
            let mut r = Reservoir::new(1_000, 7);
            for &v in &data {
                r.insert(v);
            }
            black_box(r.sample().len())
        })
    });
    group.bench_function("entropy_weighted_5k_labels", |b| {
        b.iter(|| {
            let mut sk = EntropySketch::new(256, 9);
            for i in 0..5_000u32 {
                sk.insert_weighted(&i.to_string(), 20);
            }
            black_box(sk.estimate())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_quantile_sketches,
    bench_frequency_sketches,
    bench_hyperplane_and_misc
);
criterion_main!(benches);
