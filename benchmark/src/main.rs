//! The repo benchmark: four workloads, a handful of end-to-end metrics a
//! user of the system would see, and a traced run that says where the
//! time went, layer by layer. See `README.md` for what each number means.
//!
//! ```text
//! foresight-benchmark --seed <u64> [--workload <name>] [--seconds <s>] [--trace 0|1]
//! foresight-benchmark --check-repeat <first dir> <second dir> [<other-seed dir>...]
//! ```
//!
//! The last line on stdout is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the same result, with the host
//! shape and sample counts, goes to `benchmark/out/`.

mod backend;
mod catalog;
mod layers;
mod measure;
mod repeat;
mod rng;
mod script;
mod spans;
mod workloads;

use backend::OpResult;
use catalog::Catalog;
use layers::Values;
use measure::{median, median_f64, quantile, quantiles_of};
use serde_json::{json, Value};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Window, Workload};

/// Load before the timed window that is not counted: caches fill, lazy
/// set-up finishes, sessions spread over their scripts.
pub const WARMUP: Duration = Duration::from_secs(2);

/// A plain run sets up several times and reports the median, so that
/// `setup_s` is as steady as the windowed metrics: at least
/// `SETUP_REPS_MIN` times, and on while that takes less than
/// `SETUP_BUDGET`, a quick set-up being the noisier one.
const SETUP_REPS_MIN: usize = 3;
const SETUP_REPS_MAX: usize = 31;
const SETUP_BUDGET: Duration = Duration::from_secs(3);

/// Spans written per lane to the Chrome trace, so the file stays loadable.
const TRACE_SPANS_PER_LANE: usize = 50_000;

struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
}

const USAGE: &str = "usage: foresight-benchmark --seed <u64> [--workload <name>] \
[--seconds <s>] [--trace 0|1]\n       foresight-benchmark --check-repeat <first dir> <second dir> [<other-seed dir>...]";

fn parse(args: &[String], catalog: &Catalog) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seed: 1,
        seconds: catalog.run_seconds as f64,
        traced: false,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => options.workload = Some(value()?.clone()),
            "--seed" => options.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                options.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                options.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: {other} is neither 0 nor 1")),
                }
            }
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    if options.seconds.is_nan() || options.seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    if let Some(name) = &options.workload {
        if !catalog.workloads.contains(name) {
            return Err(format!(
                "unknown workload {name}; one of {:?}",
                catalog.workloads
            ));
        }
    }
    Ok(options)
}

/// One named number with its unit.
struct Metric {
    name: String,
    value: f64,
    unit: String,
}

/// What one run of one workload produced.
struct Outcome {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    findings: Vec<String>,
    metrics: Vec<Metric>,
    /// Sample counts and anything else worth keeping beside the metrics.
    detail: Value,
}

/// Puts a run's result together: the metrics measured must be the ones
/// `BENCHMARK.json` lists for this kind of run, and every failed op and
/// failed check counts once.
fn outcome(
    window: &Window,
    checks: workloads::Checks,
    listed: &[catalog::Metric],
    values: &Values,
    detail: Value,
) -> OpResult<Outcome> {
    let metrics = listed
        .iter()
        .map(|m| {
            let value = *values
                .get(&m.name)
                .ok_or_else(|| format!("metric {} was not measured", m.name))?;
            Ok(Metric {
                name: m.name.clone(),
                value,
                unit: m.unit.clone(),
            })
        })
        .collect::<OpResult<Vec<_>>>()?;
    if let Some(name) = values
        .keys()
        .find(|name| listed.iter().all(|m| m.name != **name))
    {
        return Err(format!("metric {name} is not listed in BENCHMARK.json"));
    }
    let mut errors = window.tally.errors.clone();
    errors.extend(checks.failures.iter().cloned());
    Ok(Outcome {
        attempted: window.tally.ops.len() as u64 + checks.attempted,
        failed: window.tally.failed + checks.failures.len() as u64,
        errors,
        findings: checks.findings,
        metrics,
        detail,
    })
}

/// A window is cut into this many equal slices at most, and into fewer
/// when a slice would hold less than [`MIN_SLICE_OPS`] ops.
const MAX_SLICES: usize = 20;
const MIN_SLICE_OPS: usize = 500;

struct WindowStats {
    ops: usize,
    slices: usize,
    op_p50_ms: f64,
    op_p99_ms: f64,
    ops_per_s: f64,
    carousels: usize,
    carousels_p50_ms: f64,
    slice_ops_per_s: Vec<f64>,
}

/// The windowed metrics. The medians and the rate are computed per slice
/// of the window and reported as the median over the slices, so that a
/// stretch in which the host was busy with something else moves one
/// slice, not the result. The 99th percentile is of the whole window: a
/// stall belongs in it however few slices it hits. With too few ops to
/// slice (`cold_open`), the window is one slice.
fn window_stats(window: &Window) -> WindowStats {
    let ops = &window.tally.ops;
    let slices = (ops.len() / MIN_SLICE_OPS).clamp(1, MAX_SLICES);
    // an op in flight at the deadline completes past it: it belongs to
    // the last slice, and a lone slice lasts as long as the window took
    let (span_ns, slice_s) = if slices == 1 {
        (u64::MAX, window.elapsed.as_secs_f64())
    } else {
        let slice = window.duration / slices as u32;
        (slice.as_nanos() as u64, slice.as_secs_f64())
    };
    let slice_of = |at_ns: u64| ((at_ns / span_ns) as usize).min(slices - 1);
    let mut op_ns = vec![Vec::new(); slices];
    for sample in ops {
        op_ns[slice_of(sample.at_ns)].push(sample.ns);
    }
    let mut carousels_ns = vec![Vec::new(); slices];
    for &(at_ns, ns) in &window.tally.carousels {
        carousels_ns[slice_of(at_ns)].push(ns);
    }
    for slice in op_ns.iter_mut().chain(&mut carousels_ns) {
        slice.sort_unstable();
    }
    let all_ns = ops.iter().map(|sample| sample.ns).collect();
    let over_slices = |f: &dyn Fn(&Vec<u64>) -> f64, of: &[Vec<u64>]| {
        median_f64(of.iter().filter(|s| !s.is_empty()).map(f).collect())
    };
    WindowStats {
        ops: ops.len(),
        slices,
        op_p50_ms: over_slices(&|s| quantile(s, 0.5), &op_ns) / 1e6,
        op_p99_ms: quantiles_of(all_ns, &[0.99])[0] / 1e6,
        ops_per_s: over_slices(&|s| s.len() as f64 / slice_s, &op_ns),
        carousels: window.tally.carousels.len(),
        carousels_p50_ms: over_slices(&|s| quantile(s, 0.5), &carousels_ns) / 1e6,
        slice_ops_per_s: op_ns.iter().map(|s| s.len() as f64 / slice_s).collect(),
    }
}

/// Median op latency per kind, for the human-readable report.
fn by_kind(window: &Window) -> Value {
    let mut kinds: std::collections::BTreeMap<&str, Vec<u64>> = Default::default();
    for sample in &window.tally.ops {
        kinds.entry(sample.kind.name()).or_default().push(sample.ns);
    }
    Value::Object(
        kinds
            .into_iter()
            .map(|(kind, ns)| {
                let n = ns.len();
                (
                    kind.to_owned(),
                    json!({"samples": n, "p50_us": median(ns) / 1e3}),
                )
            })
            .collect(),
    )
}

/// One timed set-up, torn down again.
fn time_setup<W: Workload>(options: &Options) -> OpResult<f64> {
    let t0 = Instant::now();
    let workload = W::setup(options.seed, options.seconds)?;
    let took = t0.elapsed().as_secs_f64();
    workload.teardown();
    Ok(took)
}

/// The plain run: the span recorder is off and the metrics are the ones a
/// user would see.
fn run_plain<W: Workload>(options: &Options, catalog: &Catalog) -> OpResult<Outcome> {
    let t0 = Instant::now();
    let mut workload = W::setup(options.seed, options.seconds)?;
    let mut setups = vec![t0.elapsed().as_secs_f64()];
    workload.run(WARMUP, false);
    let window = workload.run(Duration::from_secs_f64(options.seconds), false);
    let peak_rss_mb = measure::peak_rss_mb();
    let checks = workload.finish();
    let checked = checks.attempted;
    // The other set-ups come last, so that the window and the peak
    // resident set see a process that has set up once, as a user's would.
    let repeating = Instant::now();
    while setups.len() < SETUP_REPS_MIN
        || (setups.len() < SETUP_REPS_MAX && repeating.elapsed() < SETUP_BUDGET)
    {
        setups.push(time_setup::<W>(options)?);
    }

    let stats = window_stats(&window);
    let (publish_p50, publish_p95) = {
        let q = quantiles_of(window.publish_ns.clone(), &[0.5, 0.95]);
        (q[0] / 1e6, q[1] / 1e6)
    };
    let values = Values::from([
        ("setup_s".to_owned(), median_f64(setups.clone())),
        ("op_p50_ms".to_owned(), stats.op_p50_ms),
        ("op_p99_ms".to_owned(), stats.op_p99_ms),
        ("ops_per_s".to_owned(), stats.ops_per_s),
        ("carousels_p50_ms".to_owned(), stats.carousels_p50_ms),
        ("peak_rss_mb".to_owned(), peak_rss_mb),
    ]);
    outcome(
        &window,
        checks,
        &catalog.end_to_end,
        &values,
        json!({
            "window_s": window.elapsed.as_secs_f64(),
            "warmup_s": WARMUP.as_secs_f64(),
            "setup_s_each": setups,
            "samples": {
                "ops": stats.ops,
                "slices": stats.slices,
                "carousels": stats.carousels,
                "publishes": window.publish_ns.len(),
                "checks": checked,
            },
            "by_kind": by_kind(&window),
            "slice_ops_per_s": stats.slice_ops_per_s,
            "publish_p50_ms": publish_p50,
            "publish_p95_ms": publish_p95,
            "gen_late_ms_max": window.late_ns_max as f64 / 1e6,
        }),
    )
}

/// The traced run: the window alternates recorder off / on / on / off so
/// the two halves see the same drift, the spans say where the op time
/// went, and the layer probes give each layer's own numbers.
fn run_traced<W: Workload>(options: &Options, catalog: &Catalog) -> OpResult<Outcome> {
    let mut workload = W::setup(options.seed, options.seconds)?;
    workload.run(WARMUP, false);
    let quarter = Duration::from_secs_f64(options.seconds / 4.0);
    let before = workload.cache_counters();
    let now = Instant::now();
    let mut plain = Window::starting(now, Duration::ZERO);
    let mut traced = Window::starting(now, Duration::ZERO);
    for on in [false, true, true, false] {
        let window = workload.run(quarter, on);
        if on { &mut traced } else { &mut plain }.merge(window);
    }
    let after = workload.cache_counters();

    // merged stretches have no common clock to slice: whole-window rates
    let rate = |w: &Window| w.tally.ops.len() as f64 / w.elapsed.as_secs_f64();
    let (plain_rate, traced_rate) = (rate(&plain), rate(&traced));
    let (plain_ops, traced_ops) = (plain.tally.ops.len(), traced.tally.ops.len());
    let lanes = workload.lanes();
    let trace_path = out_dir()?.join(format!("trace-{}.json", W::NAME));
    spans::write_chrome_trace(&trace_path, &lanes, TRACE_SPANS_PER_LANE)
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    let span_lanes: Vec<&[spans::Span]> = lanes.iter().map(|(_, spans)| *spans).collect();
    let shares = spans::layer_shares(&span_lanes);
    let spans_recorded: usize = span_lanes.iter().map(|s| s.len()).sum();
    let arena_full = span_lanes.iter().any(|s| s.len() >= spans::MAX_SPANS);
    drop(lanes);

    let mut values = layers::run(options.seed)?;
    let checks = workload.finish();
    let checked = checks.attempted;

    let mut window = plain;
    window.merge(traced);
    let ops = window.tally.ops.len();
    let hits = after.hits.saturating_sub(before.hits);
    let lookups = hits + after.misses.saturating_sub(before.misses);
    let publish = quantiles_of(window.publish_ns.clone(), &[0.5, 0.95]);
    for (name, value) in [
        ("bench.trace_overhead_frac", 1.0 - traced_rate / plain_rate),
        ("bench.gen_late_ms_max", window.late_ns_max as f64 / 1e6),
        ("bench.samples", ops as f64),
        (
            "bench.span_cover_frac",
            1.0 - shares.get("harness").copied().unwrap_or(1.0),
        ),
        (
            "engine.cache_hit_rate",
            if lookups == 0 {
                0.0
            } else {
                hits as f64 / lookups as f64
            },
        ),
        (
            "engine.cache_lookups_per_op",
            lookups as f64 / ops.max(1) as f64,
        ),
        ("engine.cache_entries", after.entries as f64),
        ("engine.publish_p50_ms", publish[0] / 1e6),
        ("engine.publish_p95_ms", publish[1] / 1e6),
    ] {
        values.insert(name.to_owned(), value);
    }
    for part in ["data", "engine", "viz", "serve", "harness"] {
        values.insert(
            format!("bench.op_share.{part}"),
            shares.get(part).copied().unwrap_or(0.0),
        );
    }

    outcome(
        &window,
        checks,
        &catalog.per_layer,
        &values,
        json!({
            "window_s": window.elapsed.as_secs_f64(),
            "warmup_s": WARMUP.as_secs_f64(),
            "samples": {
                "ops": ops,
                "ops_recorder_off": plain_ops,
                "ops_recorder_on": traced_ops,
                "spans": spans_recorded,
                "publishes": window.publish_ns.len(),
                "checks": checked,
            },
            "ops_per_s_recorder_off": plain_rate,
            "ops_per_s_recorder_on": traced_rate,
            "by_kind": by_kind(&window),
            "trace": trace_path.display().to_string(),
            "span_arena_full": arena_full,
        }),
    )
}

fn run<W: Workload>(options: &Options, catalog: &Catalog) -> OpResult<Outcome> {
    if options.traced {
        run_traced::<W>(options, catalog)
    } else {
        run_plain::<W>(options, catalog)
    }
}

fn out_dir() -> OpResult<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// Every digit of the measurement, as JSON.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_owned()
    }
}

/// Runs one workload, prints its report, and returns whether every op
/// and every output check passed.
fn report(name: &str, options: &Options, catalog: &Catalog) -> OpResult<bool> {
    let outcome = match name {
        "cold_open" => run::<workloads::cold_open::ColdOpen>(options, catalog),
        "wire_oecd" => run::<workloads::wire_oecd::WireOecd>(options, catalog),
        "explore_wide" => run::<workloads::explore_wide::ExploreWide>(options, catalog),
        "stream_mixed" => run::<workloads::stream_mixed::StreamMixed>(options, catalog),
        other => Err(format!("unknown workload {other}")),
    }?;
    let correct = outcome.failed == 0;
    let mode = if options.traced { "traced" } else { "plain" };
    let host = measure::host_shape();

    println!(
        "# {name} ({mode}) seed {} window {} s — nproc {} kernel {} {}",
        options.seed,
        options.seconds,
        host["nproc"].as_u64().unwrap_or(0),
        host["kernel_mode"].as_str().unwrap_or("?"),
        host["rustc"].as_str().unwrap_or("?"),
    );
    for metric in &outcome.metrics {
        println!("{:<44} {:>16.4} {}", metric.name, metric.value, metric.unit);
    }
    println!("# samples {}", outcome.detail["samples"]);
    for error in &outcome.errors {
        println!("# FAILED {error}");
    }
    for finding in &outcome.findings {
        println!("# FINDING {finding}");
    }

    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                number(m.value),
                m.unit
            )
        })
        .collect();
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    let result: Value = serde_json::from_str(&line).map_err(|e| format!("result line: {e}"))?;
    let record = json!({
        "workload": name,
        "mode": mode,
        "seed": options.seed,
        "seconds": options.seconds,
        "host": host,
        "result": result,
        "detail": outcome.detail,
        "errors": outcome.errors,
        "findings": outcome.findings,
    });
    let path = out_dir()?.join(format!("{name}-{mode}-seed{}.json", options.seed));
    let pretty = serde_json::to_string_pretty(&record).map_err(|e| format!("record: {e}"))?;
    std::fs::write(&path, pretty).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{line}");
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let catalog = catalog::load();
    if args.first().is_some_and(|flag| flag == "--check-repeat") {
        return repeat::main(&args[1..], &catalog);
    }
    let options = match parse(&args, &catalog) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let names = match &options.workload {
        Some(name) => std::slice::from_ref(name),
        None => catalog.workloads.as_slice(),
    };
    let mut all_correct = true;
    for name in names {
        match report(name, &options, &catalog) {
            Ok(correct) => all_correct &= correct,
            Err(message) => {
                eprintln!("{name}: {message}");
                return ExitCode::from(1);
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
