//! The four workloads. Each builds its inputs from the seed alone, drives
//! the system through its public API in closed loops of at most two load
//! threads, and checks what came back.

pub mod cold_open;
pub mod explore_wide;
pub mod stream_mixed;
pub mod wire_oecd;

use crate::backend::{Backend, Lane, OpResult, Tally};
use crate::spans::{Recorder, Span};
use foresight_engine::CacheStats;
use std::time::{Duration, Instant};

/// Load threads (or connections) of the two-lane workloads. Fixed, not
/// derived from the host's core count, so numbers compare across hosts.
pub const LANES: usize = 2;

/// What one timed stretch of a workload measured.
pub struct Window {
    pub tally: Tally,
    /// How long the stretch was asked to last, and how long it took with
    /// the ops in flight at the deadline.
    pub duration: Duration,
    pub elapsed: Duration,
    /// `stream_mixed`: due time of a producer group → `flush` returned.
    pub publish_ns: Vec<u64>,
    /// `stream_mixed`: how late the open-loop producer started a group.
    pub late_ns_max: u64,
}

impl Window {
    pub fn starting(origin: Instant, duration: Duration) -> Self {
        Self {
            tally: Tally::starting(origin),
            duration,
            elapsed: Duration::ZERO,
            publish_ns: Vec::new(),
            late_ns_max: 0,
        }
    }

    /// Adds a later stretch. Op completion times keep their own origins,
    /// so only whole-window figures mean anything afterwards.
    pub fn merge(&mut self, other: Window) {
        self.tally.merge(other.tally);
        self.duration += other.duration;
        self.elapsed += other.elapsed;
        self.publish_ns.extend(other.publish_ns);
        self.late_ns_max = self.late_ns_max.max(other.late_ns_max);
    }
}

/// Running totals of the score cache a workload's queries go through.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheCounters {
    pub hits: u64,
    pub misses: u64,
    pub entries: u64,
}

impl From<CacheStats> for CacheCounters {
    fn from(stats: CacheStats) -> Self {
        Self {
            hits: stats.hits,
            misses: stats.misses,
            entries: stats.entries as u64,
        }
    }
}

/// The verdict of a workload's output checks.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
    /// What a check saw that the issue did not expect and the current
    /// code does: reported with every result, not counted as a failure.
    pub findings: Vec<String>,
}

impl Checks {
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Records `result`'s error, if any, and hands back its value.
    pub fn expect_ok<T>(&mut self, what: &str, result: OpResult<T>) -> Option<T> {
        self.attempted += 1;
        result
            .map_err(|e| self.failures.push(format!("{what}: {e}")))
            .ok()
    }
}

pub trait Workload: Sized {
    const NAME: &'static str;

    /// Everything before the warm-up: data generation, core build, server
    /// start, session opens. `seconds` sizes inputs that must last the
    /// whole run (the stream's batches).
    fn setup(seed: u64, seconds: f64) -> OpResult<Self>;

    /// Runs the load for `duration`, with the span recorders on or off.
    /// State carries over from call to call: sessions keep their place in
    /// their scripts, the stream keeps growing.
    fn run(&mut self, duration: Duration, traced: bool) -> Window;

    /// The score cache's running counters, read before and after a window.
    fn cache_counters(&self) -> CacheCounters;

    /// The recorded spans, one lane per load thread.
    fn lanes(&self) -> Vec<(String, &[Span])>;

    /// Checks the outputs, then tears the workload down.
    fn finish(self) -> Checks;

    /// Stops every thread the workload started, without the checks.
    fn teardown(self) {}
}

/// Runs every lane on its own thread until the shared deadline.
pub fn run_lanes<B: Backend + Send>(
    lanes: &mut [(Lane<B>, Recorder)],
    duration: Duration,
    traced: bool,
) -> Window {
    let started = Instant::now();
    let deadline = started + duration;
    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let threads: Vec<_> = lanes
            .iter_mut()
            .map(|(lane, rec)| {
                scope.spawn(move || {
                    rec.set_enabled(traced);
                    let mut tally = Tally::starting(started);
                    lane.run_until(deadline, rec, &mut tally);
                    tally
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("load thread panicked"))
            .collect()
    });
    let mut window = Window::starting(started, duration);
    window.elapsed = started.elapsed();
    for tally in tallies {
        window.tally.merge(tally);
    }
    window
}

pub fn lane_spans<B: Backend>(lanes: &[(Lane<B>, Recorder)]) -> Vec<(String, &[Span])> {
    lanes
        .iter()
        .enumerate()
        .map(|(i, (_, rec))| (format!("lane-{i}"), rec.spans()))
        .collect()
}
