//! Streaming ingest: rows keep arriving while readers keep querying.
//!
//! A `StreamWriter` owns the write path: it absorbs row batches on a
//! background thread, maintains the index incrementally (only columns a
//! batch actually touches are rescored), and republishes an immutable
//! `EngineCore` snapshot at a bounded cadence. Readers bind their
//! `SessionHandle` to the published slot and adopt fresh snapshots
//! between queries — no reader ever blocks on ingest, and every snapshot
//! answers exactly like a cold batch build over the rows it covers.
//!
//! The stream here is a drifting "sensor" feed: halfway through, the
//! signal shifts, and the final snapshot profiles both regimes.
//!
//! ```sh
//! cargo run --release --example streaming
//! ```

use foresight::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const SEED_ROWS: usize = 400;
const BATCH_ROWS: usize = 200;
const BATCHES: usize = 20;
const READERS: usize = 4;

/// One batch of the sensor feed. The later half of the stream shifts
/// `temp` up by 40 and decouples `load` from it.
fn sensor_batch(offset: usize, rows: usize, shifted: bool) -> Table {
    let noise = |r: usize, c: u64| {
        let x = (r as u64)
            .wrapping_mul(6364136223846793005)
            .wrapping_add(c.wrapping_mul(0x9e3779b97f4a7c15));
        ((x >> 33) as f64 / 2_147_483_648.0) - 0.5
    };
    let temp: Vec<f64> = (offset..offset + rows)
        .map(|r| {
            let base = 20.0 + 6.0 * ((r as f64) / 150.0).sin() + 2.0 * noise(r, 0);
            if shifted {
                base + 40.0
            } else {
                base
            }
        })
        .collect();
    let load: Vec<f64> = (offset..offset + rows)
        .map(|r| {
            if shifted {
                50.0 + 20.0 * noise(r, 1)
            } else {
                temp[r - offset] * 3.0 + 5.0 * noise(r, 1)
            }
        })
        .collect();
    let status: Vec<&str> = (offset..offset + rows)
        .map(|r| if (r / 7) % 5 == 0 { "alert" } else { "ok" })
        .collect();
    TableBuilder::new("sensors")
        .numeric("temp", temp)
        .numeric("load", load)
        .categorical("status", status)
        .build()
        .expect("well-formed batch")
}

fn main() {
    // Seed the core from the first chunk of history, then hand the write
    // path to the stream writer.
    let mut builder = CoreBuilder::new(
        TableSource::sharded(vec![sensor_batch(0, SEED_ROWS, false)]).expect("seed shard"),
    );
    builder
        .preprocess(&CatalogConfig::default())
        .expect("sketch seed rows");
    builder.build_index().expect("index seed rows");
    let core = builder.freeze();
    println!(
        "seed snapshot: {} rows, epoch {}",
        core.snapshot_rows(),
        core.epoch()
    );

    let writer = StreamWriter::spawn(
        core,
        StreamConfig {
            policy: RepublishPolicy {
                max_rows: 500, // republish at least every 500 ingested rows
                max_interval: Duration::from_millis(50),
                ..RepublishPolicy::default()
            },
            ..StreamConfig::default()
        },
    );
    let published = writer.published();

    // Readers query continuously while rows pour in. Each handle adopts
    // the freshest published snapshot before every query.
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..READERS)
        .map(|i| {
            let published = Arc::clone(&published);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut handle = published.latest().handle();
                handle.bind_stream(published);
                handle.set_adopt_policy(AdoptPolicy::EveryQuery);
                let classes = ["linear-relationship", "skew", "outliers", "dispersion"];
                let mut queries = 0u64;
                let mut max_behind = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let class = classes[(i + queries as usize) % classes.len()];
                    handle
                        .query(&InsightQuery::class(class).top_k(3))
                        .expect("query under ingest");
                    max_behind = max_behind.max(handle.staleness().rows_behind);
                    queries += 1;
                }
                (queries, max_behind)
            })
        })
        .collect();

    // Feed the stream: stable regime first, shifted regime second.
    for b in 0..BATCHES {
        let shifted = b >= BATCHES / 2;
        writer
            .send(sensor_batch(
                SEED_ROWS + b * BATCH_ROWS,
                BATCH_ROWS,
                shifted,
            ))
            .expect("writer alive");
    }
    writer.flush().expect("drain the ingest queue");
    stop.store(true, Ordering::Relaxed);

    let mut total_queries = 0;
    let mut worst_staleness = 0;
    for reader in readers {
        let (queries, max_behind) = reader.join().expect("reader thread");
        total_queries += queries;
        worst_staleness = worst_staleness.max(max_behind);
    }
    println!(
        "served {total_queries} queries across {READERS} readers while ingesting; \
         worst observed staleness {worst_staleness} rows"
    );

    let last = writer.finish().expect("writer drained");
    let temp_median = last
        .profile(last.mode())
        .expect("full-history profile")
        .columns
        .iter()
        .find_map(|c| match c {
            ColumnProfile::Numeric { name, summary } if name == "temp" => {
                summary.as_ref().map(|s| s.median)
            }
            _ => None,
        })
        .expect("temp is profiled");
    println!(
        "full history: {} rows, temp median {:.1}, {} rows behind",
        last.snapshot_rows(),
        temp_median,
        last.rows_behind()
    );
    assert_eq!(
        last.snapshot_rows() as usize,
        SEED_ROWS + BATCHES * BATCH_ROWS
    );
    assert_eq!(last.rows_behind(), 0, "finish() drains everything");

    let snap = last.metrics_snapshot();
    if snap.ingest.batches > 0 {
        println!(
            "ingest: {} batches / {} rows, {} incremental + {} full republishes, \
             {} tuples rescored, {} reused",
            snap.ingest.batches,
            snap.ingest.rows,
            snap.ingest.republishes_incremental,
            snap.ingest.republishes_full,
            snap.ingest.rescored_tuples,
            snap.ingest.reused_tuples,
        );
    }
}
