//! Streaming ingest: a writer thread over the [`CoreBuilder`] that absorbs
//! row batches continuously and republishes immutable [`EngineCore`]
//! snapshots at a bounded cadence.
//!
//! The paper's serving story is a frozen preprocessing triad (sketches,
//! samples, indexes) answering interactive queries. This module keeps that
//! story under *live* data: readers always hold a consistent published
//! snapshot while the single writer stages appends on the side, and a
//! [`RepublishPolicy`] bounds how much staged data (rows, bytes, or wall
//! time) may accumulate before the writer freezes and swaps in a new
//! snapshot. Each freeze is *incremental* — per-shard sketches are merged
//! (never rebuilt), clean score-cache entries migrate into the new epoch,
//! and an indexed core's rank orders rescore only tuples touching dirty
//! columns (see [`CoreBuilder::append_shard`] and [`CoreBuilder::freeze`]).
//!
//! ```
//! use foresight_engine::{CoreBuilder, InsightQuery, StreamConfig, StreamWriter};
//! use foresight_data::{datasets, TableSource};
//!
//! let seed = datasets::oecd();
//! let core = CoreBuilder::new(TableSource::materialized(seed.clone())).freeze();
//! let writer = StreamWriter::spawn(core, StreamConfig::default());
//! writer.send(seed).unwrap();
//! writer.flush().unwrap();
//! let snapshot = writer.published().latest();
//! snapshot.run(&InsightQuery::class("skew").top_k(2), &snapshot.options()).unwrap();
//! writer.finish().unwrap();
//! ```

use crate::core::{CoreBuilder, EngineCore};
use crate::error::{EngineError, Result};
use foresight_data::Table;
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How much staged (appended but not yet republished) data the writer may
/// accumulate before it must freeze and publish a new snapshot. Whichever
/// bound trips first wins; the interval clock starts at the first staged
/// batch after a publish.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepublishPolicy {
    /// Republish once this many rows are staged.
    pub max_rows: u64,
    /// Republish once roughly this many bytes of row data are staged.
    pub max_bytes: u64,
    /// Republish once staged data has waited this long.
    pub max_interval: Duration,
}

impl Default for RepublishPolicy {
    fn default() -> Self {
        Self {
            max_rows: 10_000,
            max_bytes: 8 << 20,
            max_interval: Duration::from_millis(200),
        }
    }
}

/// Configuration for [`StreamWriter::spawn`].
#[derive(Debug, Clone, Default)]
pub struct StreamConfig {
    /// The republish cadence bounds.
    pub policy: RepublishPolicy,
    /// Queue depth, in batches, before [`StreamWriter::send`] blocks
    /// (backpressure). 0 means the default of 64.
    pub queue_depth: usize,
}

/// The single-writer/many-reader publication point: readers grab the
/// latest `Arc<EngineCore>` with one `RwLock` read, the stream writer
/// swaps in new snapshots as it republishes. Snapshots already handed out
/// stay fully consistent — a swap never mutates them.
pub struct PublishedCore {
    slot: RwLock<Arc<EngineCore>>,
    /// Bumped on every publish; lets sessions detect "something newer
    /// exists" without comparing `Arc` pointers.
    version: AtomicU64,
    /// Rows accepted into the stream (queued + staged + published) — what
    /// snapshot staleness is measured against.
    head_rows: Arc<AtomicU64>,
}

impl PublishedCore {
    fn new(core: Arc<EngineCore>, head_rows: Arc<AtomicU64>) -> Self {
        Self {
            slot: RwLock::new(core),
            version: AtomicU64::new(0),
            head_rows,
        }
    }

    /// The latest published snapshot.
    pub fn latest(&self) -> Arc<EngineCore> {
        Arc::clone(&self.slot.read())
    }

    /// The latest snapshot together with its publish version.
    pub fn latest_versioned(&self) -> (Arc<EngineCore>, u64) {
        let slot = self.slot.read();
        (Arc::clone(&slot), self.version.load(Ordering::Acquire))
    }

    /// Monotone publish counter (0 = the seed snapshot).
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Rows accepted into the stream so far.
    pub fn head_rows(&self) -> u64 {
        self.head_rows.load(Ordering::Acquire)
    }

    fn publish(&self, core: Arc<EngineCore>) {
        *self.slot.write() = core;
        self.version.fetch_add(1, Ordering::AcqRel);
    }
}

enum Msg {
    Batch(Table),
    /// Republish staged rows now and ack when done.
    Flush(SyncSender<()>),
}

/// A streaming ingest pipeline: one background writer thread appending
/// batches to a private [`CoreBuilder`] and republishing snapshots per the
/// [`RepublishPolicy`], while any number of readers serve from
/// [`PublishedCore::latest`].
///
/// Batches are accepted by [`send`](Self::send) (blocking once the queue
/// is full — backpressure, not unbounded buffering), [`flush`](Self::flush)
/// forces a republish of whatever is staged, and [`finish`](Self::finish)
/// drains, republishes, and joins the writer. Dropping the writer without
/// `finish` also drains and publishes (errors are then lost).
pub struct StreamWriter {
    tx: Option<SyncSender<Msg>>,
    published: Arc<PublishedCore>,
    head_rows: Arc<AtomicU64>,
    thread: Option<JoinHandle<Result<()>>>,
}

impl StreamWriter {
    /// Takes over `core` as the stream's seed snapshot and starts the
    /// writer thread.
    pub fn spawn(core: Arc<EngineCore>, config: StreamConfig) -> Self {
        let head_rows = Arc::new(AtomicU64::new(core.snapshot_rows()));
        // re-freeze the seed so it carries the ingest head (readers of the
        // original Arc are untouched)
        let mut seed = CoreBuilder::from_arc(core);
        seed.set_ingest_head(Some(Arc::clone(&head_rows)));
        let core = seed.freeze();
        let published = Arc::new(PublishedCore::new(
            Arc::clone(&core),
            Arc::clone(&head_rows),
        ));
        let depth = if config.queue_depth == 0 {
            64
        } else {
            config.queue_depth
        };
        let (tx, rx) = sync_channel(depth);
        let worker = Worker {
            rx,
            builder: Some(CoreBuilder::from_arc(core)),
            published: Arc::clone(&published),
            policy: config.policy,
            staged_rows: 0,
            staged_bytes: 0,
        };
        let thread = std::thread::Builder::new()
            .name("foresight-stream-writer".into())
            .spawn(move || worker.run())
            .expect("spawn stream writer thread");
        Self {
            tx: Some(tx),
            published,
            head_rows,
            thread: Some(thread),
        }
    }

    /// The publication point full snapshots appear at. Clone the `Arc` and
    /// hand it to as many reader threads as needed.
    pub fn published(&self) -> Arc<PublishedCore> {
        Arc::clone(&self.published)
    }

    /// Rows accepted into the stream so far.
    pub fn head_rows(&self) -> u64 {
        self.head_rows.load(Ordering::Acquire)
    }

    /// Queues one row batch for ingestion. Blocks once the queue is full
    /// (backpressure). The batch counts toward the ingest head immediately;
    /// it becomes queryable at the next republish.
    ///
    /// # Errors
    /// [`EngineError::StreamClosed`] when the writer thread has exited
    /// (a prior batch failed — [`finish`](Self::finish) reports why).
    pub fn send(&self, batch: Table) -> Result<()> {
        let rows = batch.n_rows() as u64;
        let tx = self.tx.as_ref().expect("sender alive until finish/drop");
        tx.send(Msg::Batch(batch))
            .map_err(|_| EngineError::StreamClosed)?;
        self.head_rows.fetch_add(rows, Ordering::AcqRel);
        Ok(())
    }

    /// Forces a republish of everything staged and blocks until the writer
    /// has processed every batch queued before this call.
    ///
    /// # Errors
    /// [`EngineError::StreamClosed`] when the writer thread has exited.
    pub fn flush(&self) -> Result<()> {
        let (ack_tx, ack_rx) = sync_channel(1);
        let tx = self.tx.as_ref().expect("sender alive until finish/drop");
        tx.send(Msg::Flush(ack_tx))
            .map_err(|_| EngineError::StreamClosed)?;
        ack_rx.recv().map_err(|_| EngineError::StreamClosed)
    }

    /// Drains the queue, republishes anything staged, joins the writer
    /// thread, and returns the final published snapshot — or the error
    /// that stopped ingestion.
    pub fn finish(mut self) -> Result<Arc<EngineCore>> {
        self.tx = None; // hang up; the writer drains and exits
        let thread = self.thread.take().expect("finish runs once");
        match thread.join() {
            Ok(Ok(())) => Ok(self.published.latest()),
            Ok(Err(e)) => Err(e),
            Err(panic) => std::panic::resume_unwind(panic),
        }
    }
}

impl Drop for StreamWriter {
    fn drop(&mut self) {
        self.tx = None;
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Rough resident size of a batch, for the byte-cadence bound.
fn approx_bytes(table: &Table) -> u64 {
    let numeric = table.numeric_indices().len() as u64 * 8;
    let categorical = table.categorical_indices().len() as u64 * 4;
    table.n_rows() as u64 * (numeric + categorical)
}

struct Worker {
    rx: Receiver<Msg>,
    /// `Option` only so republish can move the builder out for `freeze`.
    builder: Option<CoreBuilder>,
    published: Arc<PublishedCore>,
    policy: RepublishPolicy,
    staged_rows: u64,
    staged_bytes: u64,
}

impl Worker {
    fn run(mut self) -> Result<()> {
        // deadline is armed while data is staged: the interval bound
        let mut deadline: Option<Instant> = None;
        loop {
            let msg = match deadline {
                Some(d) => match self
                    .rx
                    .recv_timeout(d.saturating_duration_since(Instant::now()))
                {
                    Ok(msg) => msg,
                    Err(RecvTimeoutError::Timeout) => {
                        self.republish()?;
                        deadline = None;
                        continue;
                    }
                    Err(RecvTimeoutError::Disconnected) => break,
                },
                None => match self.rx.recv() {
                    Ok(msg) => msg,
                    Err(_) => break,
                },
            };
            match msg {
                Msg::Batch(batch) => {
                    self.ingest(batch)?;
                    if self.staged_rows >= self.policy.max_rows
                        || self.staged_bytes >= self.policy.max_bytes
                    {
                        self.republish()?;
                        deadline = None;
                    } else if deadline.is_none() && self.staged_rows > 0 {
                        deadline = Some(Instant::now() + self.policy.max_interval);
                    }
                }
                Msg::Flush(ack) => {
                    if self.staged_rows > 0 {
                        self.republish()?;
                        deadline = None;
                    }
                    let _ = ack.send(());
                }
            }
        }
        // hangup: publish whatever is still staged, then exit
        if self.staged_rows > 0 {
            self.republish()?;
        }
        Ok(())
    }

    fn ingest(&mut self, batch: Table) -> Result<()> {
        let rows = batch.n_rows() as u64;
        let bytes = approx_bytes(&batch);
        self.builder
            .as_mut()
            .expect("builder present between publishes")
            .append_shard(batch)?;
        self.staged_rows += rows;
        self.staged_bytes += bytes;
        Ok(())
    }

    fn republish(&mut self) -> Result<()> {
        let builder = self.builder.take().expect("builder present");
        let core = builder.freeze();
        self.published.publish(Arc::clone(&core));
        // the published slot keeps one Arc, so this take-over clones — but
        // shards are Arc-shared and sketches are small: O(catalog), not
        // O(rows)
        self.builder = Some(CoreBuilder::from_arc(core));
        self.staged_rows = 0;
        self.staged_bytes = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::InsightQuery;
    use foresight_data::{TableBuilder, TableSource};

    fn batch(offset: usize, rows: usize) -> Table {
        let x: Vec<f64> = (offset..offset + rows).map(|i| i as f64).collect();
        TableBuilder::new("stream")
            .numeric("x", x.clone())
            .numeric("y", x.iter().map(|v| 2.0 * v + 1.0).collect())
            .categorical(
                "c",
                (offset..offset + rows).map(|i| if i % 2 == 0 { "a" } else { "b" }),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn writer_republishes_and_snapshots_stay_consistent() {
        let core = CoreBuilder::new(TableSource::materialized(batch(0, 100))).freeze();
        let writer = StreamWriter::spawn(
            core,
            StreamConfig {
                policy: RepublishPolicy {
                    max_rows: 50,
                    ..RepublishPolicy::default()
                },
                ..StreamConfig::default()
            },
        );
        let published = writer.published();
        let old = published.latest();
        for i in 0..4 {
            writer.send(batch(100 + i * 50, 50)).unwrap();
        }
        writer.flush().unwrap();
        let new = published.latest();
        assert!(new.snapshot_rows() > old.snapshot_rows());
        assert_eq!(new.snapshot_rows(), 300);
        assert_eq!(new.rows_behind(), 0, "flush drains the stream");
        // the old snapshot still answers (from its own, retired keyspace)
        let q = InsightQuery::class("linear-relationship").top_k(1);
        assert_eq!(old.run(&q, &old.options()).unwrap().results.len(), 1);
        let last = writer.finish().unwrap();
        assert_eq!(last.snapshot_rows(), 300);
    }

    #[test]
    fn staleness_tracks_the_ingest_head() {
        let core = CoreBuilder::new(TableSource::materialized(batch(0, 100))).freeze();
        let writer = StreamWriter::spawn(
            core,
            StreamConfig {
                policy: RepublishPolicy {
                    // out of reach: nothing republishes until flush
                    max_rows: u64::MAX,
                    max_bytes: u64::MAX,
                    max_interval: Duration::from_secs(3600),
                },
                ..StreamConfig::default()
            },
        );
        let snapshot = writer.published().latest();
        writer.send(batch(100, 40)).unwrap();
        assert_eq!(writer.head_rows(), 140);
        // the seed snapshot now trails the head by the queued batch
        let stale = snapshot.staleness();
        assert_eq!(stale.snapshot_rows, 100);
        assert_eq!(stale.head_rows, 140);
        assert_eq!(stale.rows_behind, 40);
        writer.flush().unwrap();
        assert_eq!(writer.published().latest().rows_behind(), 0);
        writer.finish().unwrap();
    }

    #[test]
    fn schema_mismatch_surfaces_at_finish() {
        let core = CoreBuilder::new(TableSource::materialized(batch(0, 10))).freeze();
        let writer = StreamWriter::spawn(core, StreamConfig::default());
        let bad = TableBuilder::new("bad")
            .numeric("unrelated", vec![1.0])
            .build()
            .unwrap();
        writer.send(bad).unwrap();
        // the writer thread dies on the schema error; finish reports it
        assert!(writer.finish().is_err());
    }
}
