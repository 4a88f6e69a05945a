//! `stream_mixed` — writes beside reads. An open-loop producer appends a
//! 1 000-row batch and forces a publish every 100 ms while one reader
//! thread repaints 16 dashboards bound to the stream. The offered write
//! work is fixed, so a faster write path shortens publishes without
//! changing how often readers are invalidated; writer and reader share
//! the host's two cores, so write-path CPU saved shows up as reader
//! throughput. Stresses the engine's writer path (shard sketch build and
//! merge, index and LSH refresh, cache epoch migration) and the reads
//! right after a publish; serve does nothing.

use super::{CacheCounters, Checks, Window, Workload};
use crate::backend::{fail, transcript, InProcess, Lane, OpResult, Source, Tally};
use crate::rng::Rng;
use crate::script::{probe_script, Vocabulary};
use crate::spans::{Recorder, Span};
use foresight_data::datasets::{synth, SynthConfig};
use foresight_data::{Table, TableSource};
use foresight_engine::{CoreBuilder, EngineCore, RepublishPolicy, StreamConfig, StreamWriter};
use foresight_sketch::{CatalogConfig, HyperplaneConfig};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rows in the snapshot the stream starts from.
pub const SEED_ROWS: usize = 20_000;
pub const NUMERIC: usize = 12;
pub const BATCH_ROWS: usize = 1_000;
/// The producer's period: one batch and one publish per interval.
pub const INTERVAL: Duration = Duration::from_millis(100);
/// Dashboards the reader repaints.
pub const SESSIONS: usize = 16;

/// The sketch config every build of this table shares. The hyperplane
/// width is pinned from the seed snapshot's row count, as the catalog
/// itself would resolve it, so a cold build over more rows stays
/// comparable with the streamed one.
pub fn catalog_config() -> CatalogConfig {
    let config = CatalogConfig::default();
    CatalogConfig {
        hyperplane_k: Some(HyperplaneConfig::for_rows(SEED_ROWS, config.seed).k),
        ..config
    }
}

/// A sharded, preprocessed and indexed core over `shards`.
pub fn sharded_core(shards: Vec<Table>) -> OpResult<Arc<EngineCore>> {
    let source = TableSource::sharded(shards).map_err(fail("sharded source"))?;
    let mut builder = CoreBuilder::new(source);
    builder
        .preprocess(&catalog_config())
        .map_err(fail("preprocess"))?;
    builder.build_index().map_err(fail("build_index"))?;
    Ok(builder.freeze())
}

/// One logical table cut into the seed snapshot and `batches` appends.
pub fn seed_and_batches(seed: u64, batches: usize) -> (Table, Vec<Table>) {
    let rows = SEED_ROWS + batches * BATCH_ROWS;
    let (table, _) = synth(&SynthConfig::benchmark(rows, NUMERIC, seed));
    let head = table.filter_rows(|r| r < SEED_ROWS);
    let tail = (0..batches)
        .map(|b| {
            let lo = SEED_ROWS + b * BATCH_ROWS;
            table.filter_rows(|r| (lo..lo + BATCH_ROWS).contains(&r))
        })
        .collect();
    (head, tail)
}

/// A writer that publishes only when told to: the cadence bounds are out
/// of reach, so a publish happens exactly on `flush`.
pub fn spawn_writer(core: Arc<EngineCore>) -> StreamWriter {
    StreamWriter::spawn(
        core,
        StreamConfig {
            policy: RepublishPolicy {
                max_rows: u64::MAX,
                max_bytes: u64::MAX,
                max_interval: Duration::from_secs(86_400),
            },
            ..StreamConfig::default()
        },
    )
}

pub struct StreamMixed {
    writer: StreamWriter,
    vocab: Vocabulary,
    reader: (Lane<InProcess>, Recorder),
    /// Batches not yet sent.
    pending: VecDeque<Table>,
    /// The seed snapshot and every batch sent, for the cold rebuild.
    shards: Vec<Table>,
    producer_errors: Vec<String>,
}

impl Workload for StreamMixed {
    const NAME: &'static str = "stream_mixed";

    fn setup(seed: u64, seconds: f64) -> OpResult<Self> {
        // enough batches for the warm-up and the window, and some to spare
        let batches =
            ((seconds + crate::WARMUP.as_secs_f64()) / INTERVAL.as_secs_f64()).ceil() as usize + 20;
        let (head, tail) = seed_and_batches(seed, batches);
        let core = sharded_core(vec![head.clone()])?;
        let vocab = Vocabulary::of(&core, &head);
        let writer = spawn_writer(core);
        let mut lane = Lane::new(
            InProcess::streaming(writer.published(), SESSIONS),
            vocab.clone(),
            Source::Dashboard,
            Rng::new(seed).fork(0),
            SESSIONS,
        );
        lane.open_all()?;
        Ok(Self {
            writer,
            vocab,
            reader: (lane, Recorder::new(Instant::now(), false)),
            pending: tail.into(),
            shards: vec![head],
            producer_errors: Vec::new(),
        })
    }

    fn run(&mut self, duration: Duration, traced: bool) -> Window {
        let started = Instant::now();
        let deadline = started + duration;
        let Self {
            writer,
            reader: (lane, rec),
            pending,
            shards,
            producer_errors,
            ..
        } = self;
        let mut publish_ns = Vec::new();
        let mut late_ns_max = 0u64;
        let tally = std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                rec.set_enabled(traced);
                let mut tally = Tally::starting(started);
                lane.run_until(deadline, rec, &mut tally);
                tally
            });
            // the open-loop producer: group g is due at started + g·INTERVAL
            // whether or not the previous publish has returned
            for group in 0u32.. {
                let due = started + INTERVAL * group;
                if due >= deadline {
                    break;
                }
                let Some(batch) = pending.pop_front() else {
                    producer_errors.push("ran out of batches".to_owned());
                    break;
                };
                shards.push(batch.clone());
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                let late = Instant::now().saturating_duration_since(due);
                late_ns_max = late_ns_max.max(late.as_nanos() as u64);
                match writer.send(batch).and_then(|()| writer.flush()) {
                    Ok(()) => publish_ns.push(due.elapsed().as_nanos() as u64),
                    Err(e) => producer_errors.push(format!("publish: {e}")),
                }
            }
            reader.join().expect("reader thread panicked")
        });
        Window {
            tally,
            duration,
            elapsed: started.elapsed(),
            publish_ns,
            late_ns_max,
        }
    }

    fn cache_counters(&self) -> CacheCounters {
        // every snapshot of the stream shares one cache
        self.writer.published().latest().cache_stats().into()
    }

    fn lanes(&self) -> Vec<(String, &[Span])> {
        vec![("reader".to_owned(), self.reader.1.spans())]
    }

    fn finish(self) -> Checks {
        let mut checks = Checks::default();
        for error in &self.producer_errors {
            checks.expect(false, || format!("producer: {error}"));
        }
        drop(self.reader);
        let last = checks.expect_ok("finish", self.writer.finish().map_err(fail("stream")));
        let Some(last) = last else {
            return checks;
        };
        let rows: usize = self.shards.iter().map(Table::n_rows).sum();
        checks.expect(last.rows_behind() == 0, || {
            format!("final snapshot is {} rows behind", last.rows_behind())
        });
        checks.expect(last.snapshot_rows() == rows as u64, || {
            format!(
                "final snapshot has {} rows, sent {rows}",
                last.snapshot_rows()
            )
        });
        // the streamed snapshot must answer like a cold build over the
        // same shards
        let steps = probe_script(&self.vocab, false);
        let streamed = checks.expect_ok(
            "probe on the final snapshot",
            transcript(&mut InProcess::new(last, 1), &steps),
        );
        let cold = checks.expect_ok(
            "probe on a cold build",
            sharded_core(self.shards)
                .and_then(|cold| transcript(&mut InProcess::new(cold, 1), &steps)),
        );
        if let (Some(streamed), Some(cold)) = (streamed, cold) {
            checks.expect(streamed == cold, || {
                let step = streamed.iter().zip(&cold).position(|(s, c)| s != c);
                format!("streamed and cold answers differ at probe step {step:?}")
            });
        }
        checks
    }
}
