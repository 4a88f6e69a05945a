//! The benchmark's catalog is `BENCHMARK.json` at the repository root,
//! compiled in: the workloads, the window the driver asks for, and every
//! metric a run may print, with its unit and, end to end, its bound.

use serde_json::Value;

pub struct Metric {
    pub name: String,
    pub unit: String,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may get worse.
    pub bound: Option<f64>,
}

pub struct Catalog {
    /// The timed window the driver passes as `--seconds`.
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    /// What a user of the system sees; the plain run prints these.
    pub end_to_end: Vec<Metric>,
    /// Single-layer metrics; the traced run prints these.
    pub per_layer: Vec<Metric>,
}

fn metrics(list: &Value) -> Vec<Metric> {
    let list = list.as_array().expect("a list of metrics");
    list.iter()
        .map(|m| Metric {
            name: m["name"].as_str().expect("metric name").to_owned(),
            unit: m["unit"].as_str().expect("metric unit").to_owned(),
            bound: m["bound"].as_f64(),
        })
        .collect()
}

pub fn load() -> Catalog {
    let json: Value = serde_json::from_str(include_str!("../../BENCHMARK.json"))
        .expect("BENCHMARK.json is valid JSON");
    let workloads = json["workloads"].as_array().expect("workloads");
    Catalog {
        run_seconds: json["run_seconds"].as_u64().expect("run_seconds"),
        workloads: workloads
            .iter()
            .map(|w| w["name"].as_str().expect("workload name").to_owned())
            .collect(),
        end_to_end: metrics(&json["end_to_end"]),
        per_layer: metrics(&json["per_layer"]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_short_and_within_the_contract() {
        let catalog = load();
        assert!((1..=60).contains(&catalog.run_seconds));
        assert!((2..=8).contains(&catalog.workloads.len()));
        assert!(catalog.per_layer.len() <= 128);
        let mut seen = BTreeSet::new();
        let metrics = catalog.end_to_end.iter().chain(&catalog.per_layer);
        for name in metrics.map(|m| &m.name).chain(&catalog.workloads) {
            assert!(name.len() <= 64, "{name}");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(seen.insert(name), "{name} listed twice");
        }
        assert!(catalog
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(catalog
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}
