//! Shared machinery for the Foresight experiments: the exact-preprocessing
//! baseline, workload construction, and table-formatted reporting.
//!
//! Experiment index (see `DESIGN.md` §2): `exp_fig1` and `exp_fig2`
//! regenerate the paper's two figures; `exp_accuracy` (T1), `exp_speedup`
//! (T2), `exp_latency` (T3), and `exp_scaling` (T4) regenerate its
//! quantitative claims.

use foresight_data::datasets::{synth, SynthConfig, SynthGroundTruth};
use foresight_data::Table;
use foresight_stats::correlation::pearson_complete;
use foresight_stats::moments::Moments;
use foresight_stats::rank::fractional_ranks;
use std::time::{Duration, Instant};

/// The exact counterpart of the sketch catalog: everything the engine would
/// need precomputed to answer the same insight queries with exact values —
/// per-column moments and sorted copies, plus the full pairwise Pearson
/// *and* Spearman matrices (`O(|B|²·n)`).
pub struct ExactPreprocess {
    /// Per-column moments.
    pub moments: Vec<Moments>,
    /// Per-column sorted values (exact quantiles).
    pub sorted: Vec<Vec<f64>>,
    /// Pairwise Pearson matrix over numeric columns.
    pub pearson: Vec<Vec<f64>>,
    /// Pairwise Spearman matrix over numeric columns.
    pub spearman: Vec<Vec<f64>>,
}

/// Runs the exact preprocessing baseline.
pub fn exact_preprocess(table: &Table) -> ExactPreprocess {
    let indices = table.numeric_indices();
    let cols: Vec<&[f64]> = indices
        .iter()
        .map(|&i| table.numeric(i).expect("schema index").values())
        .collect();
    let moments: Vec<Moments> = cols.iter().map(|c| Moments::from_slice(c)).collect();
    let sorted: Vec<Vec<f64>> = cols
        .iter()
        .map(|c| {
            let mut v: Vec<f64> = c.iter().copied().filter(|x| !x.is_nan()).collect();
            v.sort_by(|a, b| a.partial_cmp(b).expect("nan filtered"));
            v
        })
        .collect();
    let ranks: Vec<Vec<f64>> = cols.iter().map(|c| fractional_ranks(c)).collect();

    let d = cols.len();
    let mut pearson = vec![vec![1.0; d]; d];
    let mut spearman = vec![vec![1.0; d]; d];
    for i in 0..d {
        for j in (i + 1)..d {
            let p = pearson_complete(cols[i], cols[j]);
            pearson[i][j] = p;
            pearson[j][i] = p;
            let s = pearson_complete(&ranks[i], &ranks[j]);
            spearman[i][j] = s;
            spearman[j][i] = s;
        }
    }
    ExactPreprocess {
        moments,
        sorted,
        pearson,
        spearman,
    }
}

/// Times a closure.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// The median of a set of timings (the upper one for an even count).
pub fn median(mut xs: Vec<Duration>) -> Duration {
    xs.sort();
    xs[xs.len() / 2]
}

/// Runs `f` `reps` times and returns the median wall time.
pub fn bench<T>(reps: usize, mut f: impl FnMut() -> T) -> Duration {
    let times = (0..reps)
        .map(|_| time(|| std::hint::black_box(f())).1)
        .collect();
    median(times)
}

/// Configures the rayon pool for a benchmark run and returns the effective
/// worker-thread count — the number every `BENCH_*.json` should record.
///
/// Honors `FORESIGHT_BENCH_THREADS` (explicit pool size for this run) by
/// pinning the pool via `rayon::set_num_threads`; otherwise leaves the pool
/// on its automatic size (`RAYON_NUM_THREADS` or machine parallelism).
/// Benchmarks previously recorded `rayon::current_num_threads()` without
/// ever configuring the pool, so "parallel" datapoints on a 1-CPU container
/// silently reported (and used) a single thread.
pub fn configure_threads() -> usize {
    if let Some(n) = std::env::var("FORESIGHT_BENCH_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
    {
        rayon::set_num_threads(n);
    }
    rayon::current_num_threads()
}

/// Builds the standard benchmark workload.
pub fn workload(rows: usize, numeric_cols: usize, seed: u64) -> (Table, SynthGroundTruth) {
    synth(&SynthConfig::benchmark(rows, numeric_cols, seed))
}

/// Prints a row-aligned experiment table.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::from("|");
        for (w, c) in widths.iter().zip(cells) {
            s.push_str(&format!(" {c:>w$} |"));
        }
        s
    };
    println!(
        "{}",
        line(&header.iter().map(|h| h.to_string()).collect::<Vec<_>>())
    );
    println!(
        "|{}",
        widths
            .iter()
            .map(|w| format!("{:-<1$}-|", "-", w + 1))
            .collect::<String>()
    );
    for row in rows {
        println!("{}", line(row));
    }
}

/// Formats a duration in adaptive units.
pub fn fmt_duration(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.2} s")
    } else if s >= 1e-3 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{:.0} µs", s * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_preprocess_covers_all_columns() {
        let (t, truth) = workload(500, 8, 3);
        let ex = exact_preprocess(&t);
        assert_eq!(ex.moments.len(), 8);
        assert_eq!(ex.sorted.len(), 8);
        assert_eq!(ex.pearson.len(), 8);
        for &(i, j, rho) in &truth.correlated_pairs {
            assert!((ex.pearson[i][j] - rho).abs() < 0.15);
            assert_eq!(ex.pearson[i][j], ex.pearson[j][i]);
        }
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.00 s");
        assert_eq!(fmt_duration(Duration::from_millis(5)), "5.00 ms");
        assert_eq!(fmt_duration(Duration::from_micros(7)), "7 µs");
    }
}
