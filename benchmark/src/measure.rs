//! Small numeric helpers and the host shape every result carries.

use serde_json::{json, Value};

/// The `p`-quantile (0..=1) of `sorted`, interpolating between ranks.
pub fn quantile(sorted: &[u64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0] as f64,
        n => {
            let rank = p.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            let frac = rank - lo as f64;
            sorted[lo] as f64 * (1.0 - frac) + sorted[hi] as f64 * frac
        }
    }
}

/// Quantiles of an unsorted sample, in the sample's unit.
pub fn quantiles_of(mut values: Vec<u64>, ps: &[f64]) -> Vec<f64> {
    values.sort_unstable();
    ps.iter().map(|&p| quantile(&values, p)).collect()
}

pub fn median(values: Vec<u64>) -> f64 {
    quantiles_of(values, &[0.5])[0]
}

pub fn median_f64(mut values: Vec<f64>) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MB. It counts
/// the load generator as well as the system under test.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

/// The machine and toolchain a number came from.
pub fn host_shape() -> Value {
    json!({
        "nproc": std::thread::available_parallelism().map_or(0, |n| n.get()),
        "kernel_mode": foresight_stats::kernel::mode().name(),
        "rustc": env!("BENCH_RUSTC_VERSION"),
        "target_features": env!("BENCH_TARGET_FEATURES"),
        "git_commit": git_commit(),
        "os": std::env::consts::OS,
        "arch": std::env::consts::ARCH,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(
            quantiles_of(vec![30, 10, 20], &[0.0, 0.5, 1.0]),
            [10.0, 20.0, 30.0]
        );
        assert_eq!(quantiles_of(vec![10, 20], &[0.5]), [15.0]);
        assert_eq!(median(vec![]), 0.0);
        assert_eq!(median_f64(vec![3.0, 1.0, 2.0, 4.0]), 2.5);
    }

    #[test]
    fn host_shape_names_the_machine() {
        let host = host_shape();
        assert!(host["nproc"].as_u64().unwrap() >= 1);
        assert!(host["rustc"].as_str().unwrap().contains("rustc"));
        assert!(peak_rss_mb() > 0.0);
    }
}
