//! `foresight-serve` — stand-alone server binary.
//!
//! ```text
//! foresight-serve [dataset] [--addr HOST:PORT] [--workers N]
//!                 [--queue-depth N] [--max-connections N]
//!                 [--max-sessions N] [--ttl-secs N] [--preprocess]
//!                 [--test-commands]
//!                 [--monitor-cadence-ms N] [--monitor-capacity N]
//!                 [--max-rows-behind N] [--max-shed-per-sec X]
//! ```
//!
//! `dataset` is `oecd` (default), `imdb`, `parkinson`, or a CSV path —
//! the same choices the explorer example accepts. Connect with
//! `cargo run --example explorer -- connect HOST:PORT` or any
//! line-delimited JSON client.

use foresight_data::csv::read_csv;
use foresight_data::infer::InferOptions;
use foresight_data::{datasets, Table, TableSource};
use foresight_engine::CoreBuilder;
use foresight_serve::{ServeConfig, ServeCore, Server};
use foresight_sketch::CatalogConfig;
use std::time::Duration;

fn load_table(arg: Option<&str>) -> Table {
    match arg {
        None | Some("oecd") => datasets::oecd(),
        Some("imdb") => datasets::imdb(),
        Some("parkinson") => datasets::parkinson(),
        Some(path) => read_csv(path, &InferOptions::default()).unwrap_or_else(|e| {
            eprintln!("failed to read {path}: {e}");
            std::process::exit(1);
        }),
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: foresight-serve [oecd|imdb|parkinson|file.csv] \
         [--addr HOST:PORT] [--workers N] [--queue-depth N] \
         [--max-connections N] [--max-sessions N] [--ttl-secs N] \
         [--preprocess] [--test-commands] \
         [--monitor-cadence-ms N] [--monitor-capacity N] \
         [--max-rows-behind N] [--max-shed-per-sec X]"
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    value.and_then(|v| v.parse().ok()).unwrap_or_else(|| {
        eprintln!("{flag} needs a value");
        usage()
    })
}

fn main() {
    let mut dataset: Option<String> = None;
    let mut addr = "127.0.0.1:4547".to_owned();
    let mut config = ServeConfig::default();
    let mut preprocess = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = parse("--addr", args.next()),
            "--workers" => config.workers = parse("--workers", args.next()),
            "--queue-depth" => config.queue_depth = parse("--queue-depth", args.next()),
            "--max-connections" => config.max_connections = parse("--max-connections", args.next()),
            "--max-sessions" => config.max_sessions = parse("--max-sessions", args.next()),
            "--ttl-secs" => {
                config.session_ttl = Duration::from_secs(parse("--ttl-secs", args.next()))
            }
            "--preprocess" => preprocess = true,
            "--test-commands" => config.enable_test_commands = true,
            "--monitor-cadence-ms" => {
                config.monitor.cadence_ms = parse("--monitor-cadence-ms", args.next())
            }
            "--monitor-capacity" => {
                config.monitor.capacity = parse("--monitor-capacity", args.next())
            }
            "--max-rows-behind" => {
                config.monitor.policy.max_rows_behind = parse("--max-rows-behind", args.next())
            }
            "--max-shed-per-sec" => {
                config.monitor.policy.max_shed_per_sec = parse("--max-shed-per-sec", args.next())
            }
            "--help" | "-h" => usage(),
            other if other.starts_with('-') => {
                eprintln!("unknown flag {other}");
                usage();
            }
            other if dataset.is_none() => dataset = Some(other.to_owned()),
            _ => usage(),
        }
    }

    let table = load_table(dataset.as_deref());
    eprintln!(
        "loaded {} ({} rows x {} cols)",
        table.name(),
        table.n_rows(),
        table.n_cols()
    );
    let mut builder = CoreBuilder::new(TableSource::materialized(table));
    if preprocess {
        if let Err(e) = builder.preprocess(&CatalogConfig::default()) {
            eprintln!("preprocess failed: {e}");
            std::process::exit(1);
        }
        eprintln!("sketch catalog built; approximate mode available");
    }
    let core = builder.freeze();

    match Server::start(ServeCore::Static(core), addr.as_str(), config) {
        Ok(server) => {
            // The explorer and smoke test wait for this exact line.
            println!("foresight-serve listening on {}", server.addr());
            loop {
                std::thread::park();
            }
        }
        Err(e) => {
            eprintln!("failed to bind {addr}: {e}");
            std::process::exit(1);
        }
    }
}
