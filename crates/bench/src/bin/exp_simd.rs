//! **Experiment T7 — vectorized kernels.** Micro-benchmarks the lane-split
//! moment/correlation kernels and the blocked hyperplane accumulation
//! against their scalar oracles (same inputs, per-thread kernel-mode
//! switch), then measures the end-to-end cold paths those kernels serve:
//! a cold 100K×12 catalog build and cold carousel assembly at 20K rows.
//!
//! The moment/correlation micros run on [`MICRO_ROWS`]-row (L2-resident)
//! column slices: at full 100K-row columns both the scalar and vectorized
//! passes saturate single-stream DRAM bandwidth, so the micro would report
//! the machine's memory system, not the kernels. The end-to-end build rows
//! keep the memory-bound full-size reality.
//!
//! Emits `BENCH_simd.json` into the working directory (run from the
//! repository root). With `FORESIGHT_BENCH_GATE=1` the run enforces the
//! regression gates — median kernel speedup ≥ [`MIN_KERNEL_SPEEDUP`] on the
//! moment and correlation kernels, vectorized cold build ≤
//! [`MAX_COLD_BUILD_MS`] — and exits non-zero on failure (the CI hook).

use foresight_bench::{bench, fmt_duration, workload};
use foresight_engine::Foresight;
use foresight_sketch::{CatalogConfig, SketchCatalog};
use foresight_stats::kernel::{self, KernelMode};
use foresight_stats::moments::Moments;
use serde_json::{json, Value};

const ROWS: usize = 100_000;
const COLS: usize = 12;
/// Micro-kernel slice length: 8192 rows = 64 KiB per column, so a pair of
/// operands sits in L2 and the timing isolates compute throughput.
const MICRO_ROWS: usize = 8_192;
const CAROUSEL_ROWS: usize = 20_000;
const PER_CLASS: usize = 3;
const MICRO_REPS: usize = 31;
const BUILD_REPS: usize = 3;

/// Gate: required median speedup (scalar / vectorized) on the moment and
/// correlation micro-kernels.
const MIN_KERNEL_SPEEDUP: f64 = 3.0;
/// Gate: ceiling for the vectorized cold 100K×12 catalog build, pinned
/// below the 1.7 s this build took with scalar kernels, with headroom for
/// CI-runner jitter.
const MAX_COLD_BUILD_MS: f64 = 1_400.0;

/// Times one workload under both kernel modes and reports the speedup.
fn versus<T>(name: &str, reps: usize, mut f: impl FnMut() -> T) -> (Value, f64) {
    let vectorized = kernel::with_mode(KernelMode::Vectorized, || bench(reps, &mut f));
    let scalar = kernel::with_mode(KernelMode::Scalar, || bench(reps, &mut f));
    let speedup = scalar.as_secs_f64() / vectorized.as_secs_f64();
    println!(
        "| {name:<24} | {:>12} | {:>12} | {speedup:>7.2}x |",
        fmt_duration(vectorized),
        fmt_duration(scalar)
    );
    (
        json!({
            "vectorized_ms": vectorized.as_secs_f64() * 1e3,
            "scalar_ms": scalar.as_secs_f64() * 1e3,
            "speedup": speedup,
        }),
        speedup,
    )
}

fn main() {
    let threads = foresight_bench::configure_threads();
    let (table, _) = workload(ROWS, COLS, 7);
    let cols: Vec<&[f64]> = table
        .numeric_indices()
        .iter()
        .map(|&i| table.numeric(i).expect("schema index").values())
        .collect();

    println!("# Experiment T7: vectorized kernels vs scalar oracle");
    println!("# workload: {ROWS} rows x {COLS} numeric cols, rayon threads: {threads}\n");
    println!(
        "| {:<24} | {:>12} | {:>12} | {:>8} |",
        "kernel", "vectorized", "scalar", "speedup"
    );
    println!("|{}|", "-".repeat(70));

    let micro: Vec<&[f64]> = cols.iter().map(|c| &c[..MICRO_ROWS.min(c.len())]).collect();

    // moment kernel: mean/m2/m3/m4/min/max over every column slice
    let (moments_json, moments_speedup) = versus("moments (12 cols x 8K)", MICRO_REPS, || {
        micro
            .iter()
            .map(|c| Moments::from_slice(c))
            .collect::<Vec<_>>()
    });

    // correlation kernel: the fused centered covariance pass, all pairs
    let (pearson_json, pearson_speedup) = versus("pearson (66 pairs x 8K)", MICRO_REPS, || {
        let mut acc = 0.0f64;
        for i in 0..micro.len() {
            for j in (i + 1)..micro.len() {
                acc += foresight_stats::correlation::pearson_complete(micro[i], micro[j]);
            }
        }
        acc
    });

    // hyperplane accumulation: blocked shared-component kernel (reported,
    // not speedup-gated — the acceptance gate names moments + correlation)
    let hp = foresight_sketch::hyperplane::SharedHyperplanes::new(
        foresight_sketch::hyperplane::HyperplaneConfig {
            k: 256,
            seed: 7,
            ..Default::default()
        },
    );
    let hp_cols: Vec<&[f64]> = cols
        .iter()
        .map(|c| &c[..CAROUSEL_ROWS.min(c.len())])
        .collect();
    let (hyperplane_json, hyperplane_speedup) = versus("hyperplane (k=256, 20K)", 5, || {
        hp.accumulate_columns(&hp_cols, 0)
    });

    // end to end: cold catalog build over the 100K×12 workload
    let build_config = CatalogConfig {
        hyperplane_k: Some(1024),
        ..Default::default()
    };
    let (build_json, build_speedup) = versus("cold build 100Kx12", BUILD_REPS, || {
        SketchCatalog::build(&table, &build_config)
    });
    let build_vectorized_ms = build_json["vectorized_ms"].as_f64().expect("measured");

    // end to end: cold carousel assembly — preprocessed engines prepared
    // outside the clock, each timed on its first (uncached) carousel call
    let (small_table, _) = workload(CAROUSEL_ROWS, COLS, 11);
    let engines: Vec<Foresight> = (0..BUILD_REPS)
        .map(|_| {
            let mut e = Foresight::new(small_table.clone());
            e.preprocess(&CatalogConfig::default()).expect("preprocess");
            e
        })
        .collect();
    let mut next = 0usize;
    let cold_carousel = bench(BUILD_REPS, || {
        let out = engines[next].carousels(PER_CLASS).expect("carousels");
        next += 1;
        out
    });
    println!(
        "| {:<24} | {:>12} | {:>12} | {:>8} |",
        "cold carousel 20Kx12",
        fmt_duration(cold_carousel),
        "-",
        "-"
    );

    let gate_enforced = std::env::var("FORESIGHT_BENCH_GATE").is_ok_and(|v| v == "1");
    let kernel_gate_pass =
        moments_speedup >= MIN_KERNEL_SPEEDUP && pearson_speedup >= MIN_KERNEL_SPEEDUP;
    let build_gate_pass = build_vectorized_ms <= MAX_COLD_BUILD_MS;
    let pass = kernel_gate_pass && build_gate_pass;

    let report = json!({
        "experiment": "simd",
        "description": "lane-split kernel micro-benches vs scalar oracle, plus end-to-end cold build and cold carousel",
        "rows": ROWS,
        "numeric_cols": COLS,
        "micro_rows": MICRO_ROWS,
        "micro_reps": MICRO_REPS,
        "build_reps": BUILD_REPS,
        "statistic": "median",
        "rayon_threads": threads,
        "kernels": {
            "moments": moments_json,
            "pearson": pearson_json,
            "hyperplane_accumulate": hyperplane_json,
        },
        "end_to_end": {
            "cold_build_100kx12": build_json,
            "cold_carousel_20kx12_ms": cold_carousel.as_secs_f64() * 1e3,
        },
        "gates": {
            "min_kernel_speedup": MIN_KERNEL_SPEEDUP,
            "max_cold_build_ms": MAX_COLD_BUILD_MS,
            "enforced": gate_enforced,
            "pass": pass,
        },
    });
    let path = "BENCH_simd.json";
    std::fs::write(
        path,
        serde_json::to_string_pretty(&report).expect("serialize") + "\n",
    )
    .expect("write BENCH_simd.json");
    println!("\nwrote {path} (hyperplane {hyperplane_speedup:.2}x, build {build_speedup:.2}x)");

    if !pass {
        let msg = format!(
            "regression gate: moments {moments_speedup:.2}x / pearson {pearson_speedup:.2}x \
             (need >= {MIN_KERNEL_SPEEDUP}x), cold build {build_vectorized_ms:.0} ms \
             (ceiling {MAX_COLD_BUILD_MS:.0} ms)"
        );
        if gate_enforced {
            eprintln!("FAIL {msg}");
            std::process::exit(1);
        }
        println!("warn (gate not enforced): {msg}");
    } else {
        println!("gates pass: moments {moments_speedup:.2}x, pearson {pearson_speedup:.2}x, build {build_vectorized_ms:.0} ms");
    }
}
