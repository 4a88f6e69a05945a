//! Continuous self-monitoring over the point-in-time telemetry layer.
//!
//! [`telemetry`](crate::telemetry) answers "what is happening right now";
//! this module grows the time axis and the judgment on top of it:
//!
//! * a background **sampler** thread captures [`MetricsSnapshot`] deltas at
//!   a configurable cadence into a fixed-capacity ring of timestamped
//!   [`MonitorSample`]s — request/shed/query *rates*, windowed cache hit
//!   ratio, per-stage p50/p99 from histogram-bucket deltas, and stream
//!   rows-behind. Sampling reads the same relaxed atomics a snapshot does,
//!   so the hot path is never perturbed;
//! * a **watchdog** evaluates threshold rules against each sample with
//!   hysteresis (fire above the bound, resolve only below
//!   `bound × resolve_fraction`) and appends typed [`AlertEvent`]s to a
//!   bounded log;
//! * a [`HealthState`] — `Healthy` / `Degraded(reasons)` /
//!   `Unready(reasons)` — derived from typed, configurable
//!   [`HealthPolicy`] conditions, for load-balancer gating (`/healthz`).
//!
//! A counter **discontinuity** (a wire `ResetMetrics`, a score-cache
//! clear, or any [`Kind::Counter`] row of the metric schema shrinking under
//! a still-advancing `sample_seq`) is detected and marked on the next
//! sample instead of producing negative rates.

use crate::core::EngineCore;
use crate::stream::PublishedCore;
use crate::telemetry::{
    quantile_from_buckets, scalar_rows, HistogramBucket, Kind, MetricsSnapshot, Ring,
};
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What the monitor watches: a fixed core, or a stream's published slot so
/// the sampler always reads the *latest* snapshot after republishes. (The
/// metrics registry and score cache are shared across republishes either
/// way; the slot matters for `rows_behind`, which is per-snapshot.)
#[derive(Clone)]
pub enum MonitorTarget {
    /// A single immutable snapshot (batch-built core).
    Static(Arc<EngineCore>),
    /// A stream's published slot — follows republishes.
    Stream(Arc<PublishedCore>),
}

impl MonitorTarget {
    /// The snapshot to sample right now.
    pub fn latest(&self) -> Arc<EngineCore> {
        match self {
            MonitorTarget::Static(core) => Arc::clone(core),
            MonitorTarget::Stream(published) => published.latest(),
        }
    }
}

/// Thresholds for health judgment and the watchdog rules. A bound of 0
/// (or 0.0) disables its condition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthPolicy {
    /// Degraded when the published snapshot trails the ingest head by more
    /// than this many rows.
    pub max_rows_behind: u64,
    /// Degraded when requests are load-shed faster than this rate (per
    /// second, over the sampling window).
    pub max_shed_per_sec: f64,
    /// Degraded when the windowed cache hit rate falls below this floor
    /// (0.0 disables — cold caches are not an incident by default).
    pub min_hit_rate: f64,
    /// Hysteresis: a fired alert resolves only once the value drops below
    /// `bound × resolve_fraction` (for the inverted hit-rate rule: rises
    /// above `floor / resolve_fraction`, capped at 1.0).
    pub resolve_fraction: f64,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        Self {
            max_rows_behind: 50_000,
            max_shed_per_sec: 10.0,
            min_hit_rate: 0.0,
            resolve_fraction: 0.5,
        }
    }
}

/// Sampler configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MonitorConfig {
    /// Time between samples, milliseconds.
    pub cadence_ms: u64,
    /// Ring capacity in samples (default 600 — ten minutes at 1 s).
    pub capacity: usize,
    /// Retained alert events (fired + resolved).
    pub alert_capacity: usize,
    /// Health thresholds and watchdog bounds.
    pub policy: HealthPolicy,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        Self {
            cadence_ms: 1_000,
            capacity: 600,
            alert_capacity: 256,
            policy: HealthPolicy::default(),
        }
    }
}

/// A typed reason a replica is not plainly healthy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum HealthReason {
    /// The monitor has not completed its first sample yet.
    NotYetSampled,
    /// The core has no sketch catalog — preprocessing has not run, so
    /// insight queries cannot be answered.
    CoreNotReady,
    /// The published snapshot trails the ingest head past the bound.
    StreamLagging {
        /// Rows the snapshot has not yet seen.
        rows_behind: u64,
        /// The configured bound.
        bound: u64,
    },
    /// Worker queues are saturated: requests are being shed faster than
    /// the bound.
    ShedStorm {
        /// Sheds per second over the sampling window.
        per_sec: f64,
        /// The configured bound.
        bound: f64,
    },
    /// The windowed cache hit rate fell below the configured floor.
    LowCacheHitRate {
        /// Observed hit rate.
        hit_rate: f64,
        /// The configured floor.
        floor: f64,
    },
}

impl HealthReason {
    /// A one-line human rendering.
    pub fn describe(&self) -> String {
        match self {
            HealthReason::NotYetSampled => "monitor has not sampled yet".to_owned(),
            HealthReason::CoreNotReady => "core not preprocessed (no sketch catalog)".to_owned(),
            HealthReason::StreamLagging { rows_behind, bound } => {
                format!("stream lagging: {rows_behind} rows behind (bound {bound})")
            }
            HealthReason::ShedStorm { per_sec, bound } => {
                format!("shed storm: {per_sec:.1} sheds/s (bound {bound:.1})")
            }
            HealthReason::LowCacheHitRate { hit_rate, floor } => {
                format!("low cache hit rate: {hit_rate:.2} (floor {floor:.2})")
            }
        }
    }
}

/// The replica's overall health, for load-balancer gating: `Unready` means
/// "take me out of rotation", `Degraded` means "serving, but watch me".
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum HealthState {
    /// Everything within bounds.
    Healthy,
    /// Serving, but at least one condition is over its bound.
    Degraded(Vec<HealthReason>),
    /// Not fit to take traffic.
    Unready(Vec<HealthReason>),
}

impl HealthState {
    /// The stable lowercase name (`healthy` / `degraded` / `unready`).
    pub fn name(&self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded(_) => "degraded",
            HealthState::Unready(_) => "unready",
        }
    }

    /// The attached reasons (empty for `Healthy`).
    pub fn reasons(&self) -> &[HealthReason] {
        match self {
            HealthState::Healthy => &[],
            HealthState::Degraded(r) | HealthState::Unready(r) => r,
        }
    }

    /// Whether a load balancer should route traffic here (healthy or
    /// degraded — a degraded replica still serves).
    pub fn is_ready(&self) -> bool {
        !matches!(self, HealthState::Unready(_))
    }
}

/// Which watchdog rule an [`AlertEvent`] belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AlertKind {
    /// Load-shed rate over `max_shed_per_sec`.
    ShedStorm,
    /// Rows-behind over `max_rows_behind`.
    StreamLag,
    /// Cache hit rate under `min_hit_rate`.
    LowCacheHitRate,
}

impl AlertKind {
    /// The stable snake-case name.
    pub fn name(self) -> &'static str {
        match self {
            AlertKind::ShedStorm => "shed_storm",
            AlertKind::StreamLag => "stream_lag",
            AlertKind::LowCacheHitRate => "low_cache_hit_rate",
        }
    }
}

/// One watchdog transition: a rule firing (value crossed its bound) or
/// resolving (value fell back through the hysteresis band).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlertEvent {
    /// The monitor sample that triggered the transition.
    pub seq: u64,
    /// Registry uptime at the transition, seconds.
    pub uptime_secs: f64,
    /// Which rule.
    pub kind: AlertKind,
    /// `true` = fired, `false` = resolved.
    pub fired: bool,
    /// The offending (or recovered) value.
    pub value: f64,
    /// The rule's configured bound.
    pub bound: f64,
}

/// One stage's latency summary over a single sampling window, estimated
/// from the histogram-bucket deltas between consecutive snapshots. Only
/// stages with samples in the window appear.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageWindow {
    /// The stage's stable name.
    pub stage: String,
    /// Samples recorded in the window.
    pub count: u64,
    /// Windowed median estimate, ns.
    pub p50_ns: u64,
    /// Windowed 99th-percentile estimate, ns.
    pub p99_ns: u64,
}

/// One entry in the monitor ring: derived series over the interval since
/// the previous sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MonitorSample {
    /// The underlying snapshot's monotonic sequence number.
    pub seq: u64,
    /// Registry uptime at capture, seconds.
    pub uptime_secs: f64,
    /// Width of the window this sample's rates cover, seconds (0 for the
    /// first sample after a start or discontinuity).
    pub interval_secs: f64,
    /// Served requests per second over the window.
    pub request_rate: f64,
    /// Load-shed requests per second over the window.
    pub shed_rate: f64,
    /// Engine queries per second over the window.
    pub query_rate: f64,
    /// Cache hit rate over the window's lookups (cumulative rate when the
    /// window had none).
    pub cache_hit_rate: f64,
    /// Rows the sampled snapshot trails the ingest head by.
    pub rows_behind: u64,
    /// Cumulative served requests at capture.
    pub requests_total: u64,
    /// Cumulative load-shed requests at capture.
    pub load_shed_total: u64,
    /// Cumulative engine queries at capture.
    pub queries_total: u64,
    /// Per-stage windowed latency, non-empty stages only.
    pub stages: Vec<StageWindow>,
    /// `true` when rates are undefined for this window (first sample,
    /// counter reset, or an explicit [`Monitor::mark_discontinuity`]) and
    /// were reported as 0.
    pub discontinuity: bool,
}

/// One watchdog rule: the alert it raises and the health reason it gives
/// while active.
struct Rule {
    kind: AlertKind,
    /// Fires *below* the bound (a floor) instead of above it.
    inverted: bool,
    /// The watched value and its bound.
    reading: fn(&MonitorSample, &HealthPolicy) -> (f64, f64),
    reason: fn(&MonitorSample, &HealthPolicy) -> HealthReason,
}

/// The watchdog's rules, in the order their alerts and reasons appear.
const RULES: [Rule; 3] = [
    Rule {
        kind: AlertKind::ShedStorm,
        inverted: false,
        reading: |s, p| (s.shed_rate, p.max_shed_per_sec),
        reason: |s, p| HealthReason::ShedStorm {
            per_sec: s.shed_rate,
            bound: p.max_shed_per_sec,
        },
    },
    Rule {
        kind: AlertKind::StreamLag,
        inverted: false,
        reading: |s, p| (s.rows_behind as f64, p.max_rows_behind as f64),
        reason: |s, p| HealthReason::StreamLagging {
            rows_behind: s.rows_behind,
            bound: p.max_rows_behind,
        },
    },
    Rule {
        kind: AlertKind::LowCacheHitRate,
        inverted: true,
        reading: |s, p| (s.cache_hit_rate, p.min_hit_rate),
        reason: |s, p| HealthReason::LowCacheHitRate {
            hit_rate: s.cache_hit_rate,
            floor: p.min_hit_rate,
        },
    },
];

/// The watchdog's latches, one per [`AlertKind`] (indexed by it).
#[derive(Default)]
struct WatchdogState {
    fired: [bool; RULES.len()],
}

struct MonitorShared {
    target: MonitorTarget,
    config: MonitorConfig,
    ring: Ring<MonitorSample>,
    alerts: Ring<AlertEvent>,
    health: RwLock<HealthState>,
    discontinuity: AtomicBool,
    stop: AtomicBool,
}

/// The background monitor: sampler thread + ring + watchdog + health.
/// Dropping it stops the thread.
pub struct Monitor {
    shared: Arc<MonitorShared>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Monitor {
    /// Starts the sampler thread over `target`.
    pub fn spawn(target: MonitorTarget, config: MonitorConfig) -> Self {
        let shared = Arc::new(MonitorShared {
            target,
            ring: Ring::new(config.capacity),
            alerts: Ring::new(config.alert_capacity),
            config,
            health: RwLock::new(HealthState::Unready(vec![HealthReason::NotYetSampled])),
            discontinuity: AtomicBool::new(false),
            stop: AtomicBool::new(false),
        });
        let worker = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("foresight-monitor".into())
            .spawn(move || sampler_loop(&worker))
            .expect("spawn monitor thread");
        Self {
            shared,
            thread: Some(thread),
        }
    }

    /// Whether a sampler thread is live.
    pub fn is_running(&self) -> bool {
        self.thread.is_some()
    }

    /// The sampler configuration.
    pub fn config(&self) -> &MonitorConfig {
        &self.shared.config
    }

    /// The most recent `n` samples, oldest first (all retained samples
    /// when `n` is 0 or past the ring size).
    pub fn history(&self, n: usize) -> Vec<MonitorSample> {
        self.shared.ring.last(if n == 0 { usize::MAX } else { n })
    }

    /// The newest sample, if any.
    pub fn latest_sample(&self) -> Option<MonitorSample> {
        self.shared.ring.last(1).pop()
    }

    /// Every retained alert transition, oldest first.
    pub fn alerts(&self) -> Vec<AlertEvent> {
        self.shared.alerts.last(usize::MAX)
    }

    /// The current health. With a live sampler this is the last tick's
    /// verdict (a cheap lock read — answerable even when every worker is
    /// wedged); a stopped monitor computes the instantaneous conditions.
    pub fn health(&self) -> HealthState {
        if self.thread.is_none() {
            return self
                .shared
                .target
                .latest()
                .health(&self.shared.config.policy);
        }
        self.shared.health.read().clone()
    }

    /// Marks the next sample as a discontinuity so rates are not computed
    /// across a counter reset. Call together with
    /// [`Metrics::reset`](crate::telemetry::Metrics::reset).
    pub fn mark_discontinuity(&self) {
        self.shared.discontinuity.store(true, Ordering::Relaxed);
    }

    /// Stops the sampler thread (idempotent; also runs on drop).
    pub fn stop(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            thread.thread().unpark();
            let _ = thread.join();
        }
    }
}

impl Drop for Monitor {
    fn drop(&mut self) {
        self.stop();
    }
}

fn sampler_loop(shared: &MonitorShared) {
    let cadence = Duration::from_millis(shared.config.cadence_ms.max(1));
    let mut prev: Option<MetricsSnapshot> = None;
    let mut watchdog = WatchdogState::default();
    while !shared.stop.load(Ordering::Relaxed) {
        tick(shared, &mut prev, &mut watchdog);
        std::thread::park_timeout(cadence);
    }
}

/// The positive per-bucket deltas `now − prev` for one stage, as synthetic
/// histogram buckets (a reset shows up as a shrink and yields nothing —
/// the caller marks the discontinuity from the schema's counters).
fn bucket_deltas(now: &[HistogramBucket], prev: &[HistogramBucket]) -> Vec<HistogramBucket> {
    now.iter()
        .map(|b| {
            let before = prev
                .iter()
                .find(|p| p.floor_ns == b.floor_ns)
                .map_or(0, |p| p.count);
            HistogramBucket {
                floor_ns: b.floor_ns,
                count: b.count.saturating_sub(before),
            }
        })
        .filter(|b| b.count > 0)
        .collect()
}

/// Whether any counter row of the metric schema shrank between two
/// snapshots — a reset or a score-cache clear, across which no rate is
/// defined. An absent section reads as zero.
fn counters_shrank(prev: &MetricsSnapshot, now: &MetricsSnapshot) -> bool {
    scalar_rows()
        .filter(|series| series.kind == Kind::Counter)
        .any(|series| (series.read)(now).unwrap_or(0.0) < (series.read)(prev).unwrap_or(0.0))
}

/// One sampler tick: snapshot, delta, ring push, watchdog, health.
fn tick(shared: &MonitorShared, prev: &mut Option<MetricsSnapshot>, watchdog: &mut WatchdogState) {
    let core = shared.target.latest();
    let snap = core.metrics_snapshot();
    let rows_behind = core.rows_behind();
    let sample = derive_sample(
        &snap,
        rows_behind,
        prev.as_ref(),
        shared.discontinuity.swap(false, Ordering::Relaxed),
    );

    let policy = &shared.config.policy;
    let mut events: Vec<AlertEvent> = Vec::new();
    let reasons: Vec<HealthReason> = RULES
        .iter()
        .filter(|rule| watchdog.evaluate(rule, policy, &sample, &mut events))
        .map(|rule| (rule.reason)(&sample, policy))
        .collect();

    let health = if core.catalog().is_none() {
        HealthState::Unready(vec![HealthReason::CoreNotReady])
    } else if reasons.is_empty() {
        HealthState::Healthy
    } else {
        HealthState::Degraded(reasons)
    };

    *prev = Some(snap);
    shared.ring.push(sample);
    for event in events {
        shared.alerts.push(event);
    }
    *shared.health.write() = health;
}

/// Builds the derived sample for one window. `forced_discontinuity` comes
/// from [`Monitor::mark_discontinuity`]; a shrinking counter (a reset
/// racing the flag, or a score-cache clear) forces it too.
fn derive_sample(
    snap: &MetricsSnapshot,
    rows_behind: u64,
    prev: Option<&MetricsSnapshot>,
    forced_discontinuity: bool,
) -> MonitorSample {
    let prev = prev.filter(|p| !forced_discontinuity && !counters_shrank(p, snap));
    let mut sample = MonitorSample {
        seq: snap.sample_seq,
        uptime_secs: snap.uptime_secs,
        interval_secs: 0.0,
        request_rate: 0.0,
        shed_rate: 0.0,
        query_rate: 0.0,
        cache_hit_rate: snap.cache.as_ref().map_or(0.0, |c| c.hit_rate),
        rows_behind,
        requests_total: snap.serve.requests,
        load_shed_total: snap.serve.load_shed,
        queries_total: snap.queries.total,
        stages: Vec::new(),
        discontinuity: prev.is_none(),
    };
    let Some(p) = prev else {
        return sample;
    };
    let interval_secs = (snap.uptime_secs - p.uptime_secs).max(0.0);
    sample.interval_secs = interval_secs;
    if interval_secs > 0.0 {
        sample.request_rate = (snap.serve.requests - p.serve.requests) as f64 / interval_secs;
        sample.shed_rate = (snap.serve.load_shed - p.serve.load_shed) as f64 / interval_secs;
        sample.query_rate = (snap.queries.total - p.queries.total) as f64 / interval_secs;
    }
    let cache = |s: &MetricsSnapshot| s.cache.as_ref().map_or((0, 0), |c| (c.hits, c.misses));
    let ((hits, misses), (prev_hits, prev_misses)) = (cache(snap), cache(p));
    let window_lookups = (hits - prev_hits) + (misses - prev_misses);
    if window_lookups > 0 {
        sample.cache_hit_rate = (hits - prev_hits) as f64 / window_lookups as f64;
    }
    for (i, stage) in snap.stages.iter().enumerate() {
        let before = p.stages.get(i).map_or(&[][..], |s| &s.buckets);
        let deltas = bucket_deltas(&stage.buckets, before);
        let count: u64 = deltas.iter().map(|b| b.count).sum();
        if count > 0 {
            sample.stages.push(StageWindow {
                stage: stage.stage.clone(),
                count,
                p50_ns: quantile_from_buckets(&deltas, count, 0.50),
                p99_ns: quantile_from_buckets(&deltas, count, 0.99),
            });
        }
    }
    sample
}

impl WatchdogState {
    /// One hysteresis evaluation of `rule` against `sample`. Returns
    /// whether the rule is active after it, pushing a fired/resolved
    /// [`AlertEvent`] on each transition. A bound of 0 (or 0.0) disables
    /// the rule entirely.
    fn evaluate(
        &mut self,
        rule: &Rule,
        policy: &HealthPolicy,
        sample: &MonitorSample,
        events: &mut Vec<AlertEvent>,
    ) -> bool {
        let fired = &mut self.fired[rule.kind as usize];
        let (value, bound) = (rule.reading)(sample, policy);
        if bound <= 0.0 {
            *fired = false;
            return false;
        }
        let fraction = policy.resolve_fraction.clamp(0.0, 1.0);
        let (trip, clear) = if rule.inverted {
            let resolve_at = if fraction > 0.0 {
                (bound / fraction).min(1.0)
            } else {
                bound
            };
            (value < bound, value >= resolve_at)
        } else {
            (value > bound, value <= bound * fraction)
        };
        // rates are undefined across a discontinuity — hold the latch steady
        if sample.discontinuity || !(if *fired { clear } else { trip }) {
            return *fired;
        }
        *fired = !*fired;
        events.push(AlertEvent {
            seq: sample.seq,
            uptime_secs: sample.uptime_secs,
            kind: rule.kind,
            fired: *fired,
            value,
            bound,
        });
        *fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{CacheSnapshot, Counter, Metrics};
    use crate::CoreBuilder;
    use foresight_data::{TableBuilder, TableSource};

    fn tiny_core() -> Arc<EngineCore> {
        let table = TableBuilder::new("tiny")
            .numeric("x", (0..64).map(|i| i as f64).collect())
            .numeric("y", (0..64).map(|i| (i * 2) as f64).collect())
            .build()
            .expect("table");
        let mut builder = CoreBuilder::new(TableSource::materialized(table));
        builder
            .preprocess(&foresight_sketch::CatalogConfig::default())
            .expect("preprocess");
        builder.freeze()
    }

    fn sample_with(shed_rate: f64, discontinuity: bool) -> MonitorSample {
        MonitorSample {
            seq: 1,
            uptime_secs: 1.0,
            interval_secs: 1.0,
            request_rate: 0.0,
            shed_rate,
            query_rate: 0.0,
            cache_hit_rate: 1.0,
            rows_behind: 0,
            requests_total: 0,
            load_shed_total: 0,
            queries_total: 0,
            stages: Vec::new(),
            discontinuity,
        }
    }

    /// A policy whose every bound is `bound`, resolving at `bound × 0.5`.
    fn policy(bound: f64) -> HealthPolicy {
        HealthPolicy {
            max_rows_behind: bound as u64,
            max_shed_per_sec: bound,
            min_hit_rate: bound,
            resolve_fraction: 0.5,
        }
    }

    #[test]
    fn watchdog_fires_and_resolves_with_hysteresis() {
        let mut watchdog = WatchdogState::default();
        let mut events = Vec::new();
        let shed = &RULES[0];
        // under the bound: nothing
        let active = watchdog.evaluate(shed, &policy(10.0), &sample_with(5.0, false), &mut events);
        assert!(!active && events.is_empty());
        // over the bound: fires once
        for _ in 0..2 {
            watchdog.evaluate(shed, &policy(10.0), &sample_with(20.0, false), &mut events);
        }
        assert_eq!(events.len(), 1);
        assert!(events[0].fired);
        // inside the hysteresis band (10·0.5 < 8 ≤ 10): still active
        let active = watchdog.evaluate(shed, &policy(10.0), &sample_with(8.0, false), &mut events);
        assert!(active && events.len() == 1);
        // below bound × fraction: resolves
        let active = watchdog.evaluate(shed, &policy(10.0), &sample_with(2.0, false), &mut events);
        assert!(!active);
        assert_eq!(events.len(), 2);
        assert!(!events[1].fired);
        assert_eq!(events[1].kind, AlertKind::ShedStorm);
    }

    #[test]
    fn watchdog_holds_steady_across_discontinuities() {
        let mut watchdog = WatchdogState { fired: [true; 3] };
        let mut events = Vec::new();
        let active = watchdog.evaluate(
            &RULES[0],
            &policy(10.0),
            &sample_with(0.0, true),
            &mut events,
        );
        assert!(active, "a reset window neither fires nor resolves");
        assert!(events.is_empty());
    }

    #[test]
    fn zero_bound_disables_a_rule() {
        let mut watchdog = WatchdogState { fired: [true; 3] };
        let mut events = Vec::new();
        let lagging = MonitorSample {
            rows_behind: 1_000_000_000,
            ..sample_with(0.0, false)
        };
        let active = watchdog.evaluate(&RULES[1], &policy(0.0), &lagging, &mut events);
        assert!(!active && events.is_empty());
    }

    #[test]
    fn derive_sample_rates_counter_deltas() {
        let m = Metrics::new();
        for _ in 0..10 {
            m.record_request(crate::telemetry::Endpoint::Query, 1_000);
        }
        let mut snap_a = m.snapshot();
        snap_a.uptime_secs = 10.0;
        for _ in 0..30 {
            m.record_request(crate::telemetry::Endpoint::Query, 1_000);
        }
        m.add(Counter::LoadShed, 1);
        let mut snap_b = m.snapshot();
        snap_b.uptime_secs = 12.0; // a 2-second window
        let sample = derive_sample(&snap_b, 7, Some(&snap_a), false);
        assert!(!sample.discontinuity);
        assert_eq!(sample.interval_secs, 2.0);
        assert_eq!(sample.request_rate, 15.0);
        assert_eq!(sample.shed_rate, 0.5);
        assert_eq!(sample.rows_behind, 7);
        assert_eq!(sample.requests_total, 40);
    }

    #[test]
    fn derive_sample_marks_resets_instead_of_negative_rates() {
        let m = Metrics::new();
        for _ in 0..5 {
            m.record_request(crate::telemetry::Endpoint::Query, 1_000);
        }
        let snap_a = m.snapshot();
        m.reset();
        m.record_request(crate::telemetry::Endpoint::Query, 1_000);
        let snap_b = m.snapshot();
        assert!(snap_b.sample_seq > snap_a.sample_seq, "seq survives reset");
        let sample = derive_sample(&snap_b, 0, Some(&snap_a), false);
        assert!(sample.discontinuity, "counter shrink is a discontinuity");
        assert_eq!(sample.request_rate, 0.0);
        assert_eq!(sample.shed_rate, 0.0);
    }

    #[test]
    fn cache_clear_before_any_hit_is_a_discontinuity() {
        // `ScoreCache::clear` zeroes misses too: a window that only missed
        // before the clear must not subtract past zero
        let cache = |hits, misses| CacheSnapshot {
            hits,
            misses,
            entries: misses,
            purges: 0,
            hit_rate: 0.0,
        };
        let m = Metrics::new();
        let mut snap_a = m.snapshot();
        snap_a.cache = Some(cache(0, 5));
        let mut snap_b = m.snapshot();
        snap_b.uptime_secs = snap_a.uptime_secs + 1.0;
        snap_b.cache = Some(cache(0, 0));
        let sample = derive_sample(&snap_b, 0, Some(&snap_a), false);
        assert!(sample.discontinuity, "a shrinking miss count is a reset");
        assert_eq!(sample.cache_hit_rate, 0.0);
    }

    #[test]
    fn stage_windows_come_from_bucket_deltas() {
        let m = Metrics::new();
        m.record_ns(crate::telemetry::Stage::Score, 1_000);
        let mut snap_a = m.snapshot();
        snap_a.uptime_secs = 0.0;
        for _ in 0..8 {
            m.record_ns(crate::telemetry::Stage::Score, 100_000);
        }
        let mut snap_b = m.snapshot();
        snap_b.uptime_secs = 1.0;
        let sample = derive_sample(&snap_b, 0, Some(&snap_a), false);
        let score = sample
            .stages
            .iter()
            .find(|s| s.stage == "score")
            .expect("score stage sampled");
        // only the 8 new 100 µs samples are in the window — the old
        // 1 µs sample must not drag the windowed median down
        assert_eq!(score.count, 8);
        assert!(score.p50_ns > 10_000);
    }

    #[test]
    fn monitor_over_a_static_core_reaches_healthy() {
        let core = tiny_core();
        let mut monitor = Monitor::spawn(
            MonitorTarget::Static(core),
            MonitorConfig {
                cadence_ms: 5,
                ..MonitorConfig::default()
            },
        );
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            if monitor.health() == HealthState::Healthy {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "monitor never became healthy: {:?}",
                monitor.health()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        while monitor.latest_sample().is_none() {
            std::thread::sleep(Duration::from_millis(5));
        }
        let history = monitor.history(0);
        assert!(!history.is_empty());
        assert!(history[0].discontinuity, "first sample is a discontinuity");
        monitor.stop();
        let frozen = monitor.history(0).len();
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(monitor.history(0).len(), frozen, "stop() halts sampling");
    }

    #[test]
    fn ring_capacity_is_bounded() {
        let core = tiny_core();
        let mut monitor = Monitor::spawn(
            MonitorTarget::Static(core),
            MonitorConfig {
                cadence_ms: 1,
                capacity: 4,
                ..MonitorConfig::default()
            },
        );
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while monitor.history(0).len() < 4 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        std::thread::sleep(Duration::from_millis(20));
        let history = monitor.history(0);
        assert!(history.len() <= 4, "ring exceeded capacity");
        assert_eq!(history.len(), 4);
        // seqs strictly increase through the ring
        for pair in history.windows(2) {
            assert!(pair[1].seq > pair[0].seq);
        }
        monitor.stop();
    }

    #[test]
    fn disabled_monitor_answers_health_on_demand() {
        let core = tiny_core();
        let mut monitor = Monitor::spawn(MonitorTarget::Static(core), MonitorConfig::default());
        monitor.stop();
        assert!(!monitor.is_running());
        assert_eq!(monitor.health(), HealthState::Healthy);
        assert!(monitor.alerts().is_empty());
    }

    #[test]
    fn mark_discontinuity_zeroes_the_next_window() {
        let core = tiny_core();
        let mut monitor = Monitor::spawn(
            MonitorTarget::Static(Arc::clone(&core)),
            MonitorConfig {
                cadence_ms: 5,
                ..MonitorConfig::default()
            },
        );
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while monitor.history(0).len() < 2 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        core.metrics().reset();
        monitor.mark_discontinuity();
        let before = monitor.history(0).len();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while monitor.history(0).len() < before + 2 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let history = monitor.history(0);
        assert!(
            history.iter().skip(1).any(|s| s.discontinuity),
            "the marked window must be flagged"
        );
        assert!(
            history
                .iter()
                .all(|s| s.request_rate >= 0.0 && s.shed_rate >= 0.0 && s.query_rate >= 0.0),
            "no negative rates across the reset"
        );
        monitor.stop();
    }

    #[test]
    fn health_json_round_trips() {
        let state = HealthState::Degraded(vec![
            HealthReason::ShedStorm {
                per_sec: 42.5,
                bound: 10.0,
            },
            HealthReason::StreamLagging {
                rows_behind: 99_000,
                bound: 50_000,
            },
        ]);
        let json = serde_json::to_string(&state).unwrap();
        let back: HealthState = serde_json::from_str(&json).unwrap();
        assert_eq!(back, state);
        assert_eq!(state.name(), "degraded");
        assert!(state.is_ready());
        assert_eq!(state.reasons().len(), 2);
        assert!(state.reasons()[0].describe().contains("shed storm"));
        let unready = HealthState::Unready(vec![HealthReason::NotYetSampled]);
        assert!(!unready.is_ready());
    }
}
