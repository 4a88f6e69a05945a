//! Request-scoped tracing: the "why was *this* query slow, why did *this*
//! insight rank third" half of observability.
//!
//! [`crate::telemetry`] aggregates — per-stage histograms over the core's
//! whole life. This module captures *one query at a time*: a [`QueryTrace`]
//! is a span tree with a stable query id plus per-stage attributes
//! (candidates generated, this query's score-cache hits and misses, the
//! sketch-vs-exact path each candidate took, typed skip reasons, diversify
//! counts) and the final top-k annotated with per-candidate provenance and
//! rank deltas against the undiversified ordering.
//!
//! Capture routes:
//!
//! * **Sampling** — [`crate::SessionHandle::set_trace_sampling`] traces a
//!   deterministic 1-in-N subset of a session's queries (seeded phase, no
//!   RNG on the query path).
//! * **EXPLAIN** — [`crate::SessionHandle::explain`] /
//!   [`crate::Foresight::explain`] force a trace for one query regardless
//!   of sampling.
//! * **Slow-query log** — a threshold on the [`Tracer`] records every
//!   query that overruns it, traced or not.
//!
//! Finished traces land in a fixed-capacity ring on the core's [`Tracer`]
//! (claim by atomic `fetch_add`, per-slot swap — pushes never serialize
//! behind one lock) and render three ways: a text tree, deterministic
//! pretty JSON, and Chrome trace-event JSON loadable in Perfetto or
//! `chrome://tracing`.
//!
//! An untraced query carries an inert [`TraceBuilder`] (every method an
//! empty no-op), and the only cost the trace layer adds to it is one
//! relaxed atomic load for the slow-query threshold.

use crate::executor::Mode;
use crate::query::InsightQuery;
use crate::telemetry::clock;
use foresight_data::Table;
use foresight_insight::{AttrTuple, InsightInstance};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use serde_json::{json, Value};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default capacity of the finished-trace ring on a [`Tracer`]: the last N
/// traces are retrievable, older ones are overwritten in arrival order.
/// Tune per core with [`Tracer::with_capacities`] (or
/// [`CoreBuilder::set_trace_capacities`](crate::CoreBuilder::set_trace_capacities)).
pub const TRACE_RING_CAPACITY: usize = 64;

/// Default maximum retained slow-query entries; older entries are dropped
/// first. Tune per core with [`Tracer::with_capacities`].
pub const SLOW_LOG_CAPACITY: usize = 128;

/// How many example attribute tuples each skip reason keeps (the per-reason
/// *count* stays exact past the cap).
const MAX_SKIP_SAMPLES: usize = 8;

/// Why a candidate tuple was dropped between enumeration and ranking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SkipReason {
    /// The class scored the tuple `None` (constant column, too few rows).
    Degenerate,
    /// Sketch-only execution and the class has no sketch estimator for the
    /// tuple — there are no raw rows to fall back to.
    NoSketchEstimator,
    /// The score came back non-finite (NaN/∞) and never enters ranking.
    NonFinite,
    /// The score fell outside the query's `score_range`.
    OutOfRange,
}

impl SkipReason {
    /// The stable kebab-case name used in renderings and JSON.
    pub fn name(self) -> &'static str {
        match self {
            SkipReason::Degenerate => "degenerate",
            SkipReason::NoSketchEstimator => "no-sketch-estimator",
            SkipReason::NonFinite => "non-finite",
            SkipReason::OutOfRange => "out-of-range",
        }
    }
}

/// Which code path produced one candidate's score.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ScorePath {
    /// Exact metric over the raw columns.
    Exact,
    /// Sketch estimator over the catalog.
    Sketch,
    /// Approximate mode, but the class had no sketch estimator — fell back
    /// to the exact path.
    SketchFallbackExact,
    /// Sketch-only execution with no estimator: the candidate was dropped.
    NoSketch,
    /// Served from the cross-query score cache (provenance of the original
    /// computation is not retained by the cache).
    Cache,
}

impl ScorePath {
    pub(crate) fn name(self) -> &'static str {
        match self {
            ScorePath::Exact => "exact",
            ScorePath::Sketch => "sketch",
            ScorePath::SketchFallbackExact => "exact-fallback",
            ScorePath::NoSketch => "no-sketch",
            ScorePath::Cache => "cache",
        }
    }
}

/// One node of a finished trace's span tree. `start_ns` is relative to the
/// trace start, so identical executions produce structurally identical
/// trees (only the timing values vary).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceSpan {
    /// Stage name (`query`, `candidates`, `score` — with its
    /// `cache_lookup`, `score_misses` and `cache_store` steps — `rank`,
    /// `diversify`, `describe`, `index_serve`).
    pub name: String,
    /// Offset from the trace start, ns.
    pub start_ns: u64,
    /// Duration, ns.
    pub dur_ns: u64,
    /// Stage attributes, in insertion order.
    pub attrs: Vec<(String, String)>,
    /// Child spans, in start order.
    pub children: Vec<TraceSpan>,
}

impl TraceSpan {
    /// Looks up a direct child by name.
    pub fn child(&self, name: &str) -> Option<&TraceSpan> {
        self.children.iter().find(|c| c.name == name)
    }

    /// One attribute's value, by key.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// One ranked result inside a [`QueryTrace`], annotated with provenance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TracedResult {
    /// Final rank, 1-based.
    pub rank: usize,
    /// Column names of the attribute tuple, `" × "`-joined.
    pub attrs: String,
    /// The ranking score.
    pub score: f64,
    /// The metric behind the score.
    pub metric: String,
    /// Whether this query got the score from the cross-query cache.
    pub cache_hit: bool,
    /// The scoring path (`ScorePath::name`: `exact`, `sketch`,
    /// `exact-fallback`, `cache`, or `index`).
    pub path: String,
    /// `undiversified_rank − final_rank`: positive means diversification
    /// promoted the insight, 0 means it held (always 0 without MMR).
    pub rank_delta: i64,
}

/// Dropped candidates grouped by [`SkipReason`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SkipSummary {
    /// The reason's stable name.
    pub reason: String,
    /// How many candidates it claimed (exact).
    pub count: u64,
    /// Up to `MAX_SKIP_SAMPLES` (8) example tuples, by column name.
    pub samples: Vec<String>,
}

/// Candidate accounting for a query that drew its pairs from LSH bucket
/// collisions instead of the quadratic scan — the numbers behind EXPLAIN's
/// "candidates from LSH bucket collisions: N of d², tables probed: L".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LshCandidates {
    /// Unordered numeric pairs produced by bucket collisions (the `N`).
    pub collision_pairs: usize,
    /// Numeric columns the index covers, indexed + skipped (the `d`).
    pub universe_columns: usize,
    /// Tables actually probed (the `L` — the recall-vs-speed knob).
    pub tables_probed: usize,
}

/// A finished, immutable record of one traced query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryTrace {
    /// Process-stable id from the core's [`Tracer`] counter.
    pub query_id: u64,
    /// The queried insight class.
    pub class_id: String,
    /// The metric that ranked the results.
    pub metric: String,
    /// Execution mode (`exact` / `approximate`).
    pub mode: String,
    /// Whether the trace was forced by `explain` (vs. sampled).
    pub forced: bool,
    /// Whether the query walked a precomputed rank order instead of being
    /// scored.
    pub index_served: bool,
    /// End-to-end wall time, ns.
    pub total_ns: u64,
    /// Candidates the class enumerated before query filters.
    pub candidates_generated: usize,
    /// Candidates surviving fixed/semantic/exclusion filters.
    pub candidates_eligible: usize,
    /// LSH collision accounting when the index generated the candidates
    /// (`None` = quadratic class scan). Defaults on deserialize so traces
    /// from older peers still round-trip.
    #[serde(default)]
    pub lsh: Option<LshCandidates>,
    /// Score-cache hits for *this* query.
    pub cache_hits: u64,
    /// Score-cache misses for *this* query.
    pub cache_misses: u64,
    /// Scores this query wrote back to the cache.
    pub cache_stored: u64,
    /// Dropped candidates, grouped by reason (sorted by reason name).
    pub skips: Vec<SkipSummary>,
    /// The final top-k with provenance, in rank order.
    pub results: Vec<TracedResult>,
    /// The span tree, rooted at `query`.
    pub root: TraceSpan,
}

impl QueryTrace {
    /// Text tree rendering (the explorer's `explain` / `trace last` view).
    pub fn to_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "query #{} {} (mode={}, metric={}{}{}) — {:.1} µs",
            self.query_id,
            self.class_id,
            self.mode,
            self.metric,
            if self.forced { ", explained" } else { "" },
            if self.index_served {
                ", index-served"
            } else {
                ""
            },
            self.total_ns as f64 / 1e3,
        );
        if let Some(epoch) = self.root.attr("snapshot_epoch") {
            let _ = match self.root.attr("rows_behind") {
                Some(k) => writeln!(
                    out,
                    "  served from snapshot @epoch {epoch}, {k} rows behind ingest head"
                ),
                None => writeln!(out, "  served from snapshot @epoch {epoch}"),
            };
        }
        let _ = writeln!(
            out,
            "  candidates: {} generated, {} eligible after filters",
            self.candidates_generated, self.candidates_eligible
        );
        if let Some(lsh) = &self.lsh {
            let _ = writeln!(
                out,
                "  candidates from LSH bucket collisions: {} of {}², tables probed: {}",
                lsh.collision_pairs, lsh.universe_columns, lsh.tables_probed
            );
        }
        let _ = writeln!(
            out,
            "  cache: {} hits / {} misses ({} stored)",
            self.cache_hits, self.cache_misses, self.cache_stored
        );
        for skip in &self.skips {
            let _ = writeln!(
                out,
                "  skipped {} × {} ({})",
                skip.count,
                skip.reason,
                skip.samples.join(", ")
            );
        }
        let _ = writeln!(out, "  spans:");
        render_span(&mut out, &self.root, 0);
        if !self.results.is_empty() {
            let _ = writeln!(out, "  top-k:");
            for r in &self.results {
                let _ = writeln!(
                    out,
                    "    #{:<2} {:>9.4}  {:<32} {:<18} cache={:<4} path={:<14} Δrank={:+}",
                    r.rank,
                    r.score,
                    r.attrs,
                    r.metric,
                    if r.cache_hit { "hit" } else { "miss" },
                    r.path,
                    r.rank_delta,
                );
            }
        }
        out
    }

    /// Deterministic pretty-printed JSON (structure is identical for
    /// identical executions; only timing values vary).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("trace serializes")
    }

    /// Chrome trace-event JSON: an array of complete (`"ph": "X"`) events,
    /// one per span, `ts`/`dur` in microseconds, `pid` 1, `tid` = the query
    /// id. Loadable in Perfetto / `chrome://tracing`; events are emitted in
    /// pre-order so `ts` is monotonically non-decreasing.
    pub fn to_chrome_json(&self) -> String {
        let mut events = Vec::new();
        chrome_events(&self.root, self.query_id, &mut events);
        serde_json::to_string_pretty(&Value::Array(events)).expect("chrome events serialize")
    }
}

fn render_span(out: &mut String, span: &TraceSpan, depth: usize) {
    use std::fmt::Write;
    let attrs = span
        .attrs
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(" ");
    let _ = writeln!(
        out,
        "    {:indent$}{:<width$} {:>10.1} µs  {}",
        "",
        span.name,
        span.dur_ns as f64 / 1e3,
        attrs,
        indent = depth * 2,
        width = 14usize.saturating_sub(depth * 2).max(4),
    );
    for child in &span.children {
        render_span(out, child, depth + 1);
    }
}

fn chrome_events(span: &TraceSpan, tid: u64, out: &mut Vec<Value>) {
    let args: serde_json::Map<String, Value> = span
        .attrs
        .iter()
        .map(|(k, v)| (k.clone(), Value::String(v.clone())))
        .collect();
    out.push(json!({
        "name": span.name,
        "cat": "foresight",
        "ph": "X",
        "ts": span.start_ns as f64 / 1e3,
        "dur": span.dur_ns as f64 / 1e3,
        "pid": 1u64,
        "tid": tid,
        "args": Value::Object(args),
    }));
    for child in &span.children {
        chrome_events(child, tid, out);
    }
}

/// One slow-query log entry. Recorded for *every* query that overruns the
/// [`Tracer`] threshold — when the query also happened to be traced, the
/// full trace rides along.
#[derive(Debug, Clone)]
pub struct SlowQuery {
    /// The trace's query id, when the slow query was traced.
    pub query_id: Option<u64>,
    /// The queried class.
    pub class_id: String,
    /// Execution mode name.
    pub mode: String,
    /// End-to-end wall time, ns.
    pub total_ns: u64,
    /// Results returned.
    pub results: usize,
    /// The full trace, when one was being captured anyway.
    pub trace: Option<Arc<QueryTrace>>,
}

impl SlowQuery {
    /// One-line text rendering (the explorer's `slowlog` view).
    pub fn to_line(&self) -> String {
        format!(
            "{}  {:<28} {:<12} {:>10.2} ms  {} results{}",
            match self.query_id {
                Some(id) => format!("#{id:<5}"),
                None => "#-    ".to_owned(),
            },
            self.class_id,
            self.mode,
            self.total_ns as f64 / 1e6,
            self.results,
            if self.trace.is_some() {
                "  [traced]"
            } else {
                ""
            },
        )
    }
}

/// In-flight trace state. Lives only while its query executes.
struct ActiveTrace {
    query_id: u64,
    class_id: String,
    metric: String,
    mode: Mode,
    forced: bool,
    start_ns: u64,
    /// Span arena: parent links instead of nesting so `begin`/`end` are
    /// O(1) pushes; the tree is assembled once at finish.
    spans: Vec<SpanRec>,
    /// Indices into `spans` of the currently open nesting path.
    stack: Vec<usize>,
    candidates_generated: usize,
    candidates_eligible: usize,
    lsh: Option<LshCandidates>,
    cache_hits: u64,
    cache_misses: u64,
    cache_stored: u64,
    index_served: bool,
    /// Survivor provenance, for annotating the final top-k.
    survivors: Vec<(AttrTuple, bool, ScorePath)>,
    /// `(reason, count, samples)` sorted by reason name at finish.
    skips: Vec<(SkipReason, u64, Vec<String>)>,
    /// Full descending-score order before MMR, when diversification ran.
    undiversified: Option<Vec<AttrTuple>>,
    results: Vec<TracedResult>,
}

struct SpanRec {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    attrs: Vec<(String, String)>,
}

/// The request-scoped collector threaded through the executor. Inert (all
/// methods empty, no allocation) when the query is not being traced.
pub struct TraceBuilder {
    inner: Option<Box<ActiveTrace>>,
}

impl TraceBuilder {
    /// A permanently inert builder — the untraced query path.
    pub(crate) fn disabled() -> Self {
        Self { inner: None }
    }

    fn active(query_id: u64, query: &InsightQuery, mode: Mode, forced: bool) -> Self {
        let start_ns = clock::now_ns();
        Self {
            inner: Some(Box::new(ActiveTrace {
                query_id,
                class_id: query.class_id.clone(),
                metric: query.metric.clone().unwrap_or_default(),
                mode,
                forced,
                start_ns,
                spans: vec![SpanRec {
                    name: "query",
                    start_ns,
                    end_ns: start_ns,
                    parent: None,
                    attrs: Vec::new(),
                }],
                stack: vec![0],
                candidates_generated: 0,
                candidates_eligible: 0,
                lsh: None,
                cache_hits: 0,
                cache_misses: 0,
                cache_stored: 0,
                index_served: false,
                survivors: Vec::new(),
                skips: Vec::new(),
                undiversified: None,
                results: Vec::new(),
            })),
        }
    }

    /// Whether this query is being traced. Callers gate any work done
    /// purely to feed the trace (formatting, cloning) behind this.
    #[inline]
    pub(crate) fn is_active(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a child span under the current one.
    #[inline]
    pub(crate) fn begin(&mut self, name: &'static str) {
        if let Some(t) = self.inner.as_deref_mut() {
            let now = clock::now_ns();
            let parent = t.stack.last().copied();
            t.spans.push(SpanRec {
                name,
                start_ns: now,
                end_ns: now,
                parent,
                attrs: Vec::new(),
            });
            t.stack.push(t.spans.len() - 1);
        }
    }

    /// Closes the current span.
    #[inline]
    pub(crate) fn end(&mut self) {
        if let Some(t) = self.inner.as_deref_mut() {
            if t.stack.len() > 1 {
                let idx = t.stack.pop().expect("non-root span open");
                t.spans[idx].end_ns = clock::now_ns();
            }
        }
    }

    /// Attaches `key=value` to the current span. The value closure only
    /// runs when tracing — callers pass `|| format!(...)` freely.
    #[inline]
    pub(crate) fn attr(&mut self, key: &'static str, value: impl FnOnce() -> String) {
        if let Some(t) = self.inner.as_deref_mut() {
            let idx = *t.stack.last().expect("root span always open");
            t.spans[idx].attrs.push((key.to_owned(), value()));
        }
    }

    pub(crate) fn set_metric(&mut self, metric: &str) {
        if let Some(t) = self.inner.as_deref_mut() {
            if t.metric.is_empty() {
                t.metric = metric.to_owned();
            }
        }
    }

    pub(crate) fn set_candidates(&mut self, generated: usize, eligible: usize) {
        if let Some(t) = self.inner.as_deref_mut() {
            t.candidates_generated = generated;
            t.candidates_eligible = eligible;
        }
    }

    /// Records that this query's candidates came from LSH bucket collisions.
    pub(crate) fn set_lsh(&mut self, info: LshCandidates) {
        if let Some(t) = self.inner.as_deref_mut() {
            t.lsh = Some(info);
        }
    }

    /// Records this query's own plane traffic: hits read, misses scored,
    /// scores stored.
    pub(crate) fn set_cache_traffic(&mut self, hits: u64, misses: u64, stored: u64) {
        if let Some(t) = self.inner.as_deref_mut() {
            t.cache_hits = hits;
            t.cache_misses = misses;
            t.cache_stored = stored;
        }
    }

    pub(crate) fn set_index_served(&mut self) {
        if let Some(t) = self.inner.as_deref_mut() {
            t.index_served = true;
        }
    }

    /// Classifies every scored candidate: survivors keep their provenance
    /// for top-k annotation, drops are grouped into typed skip reasons.
    /// `scores` and `provenance` align positionally with `candidates`.
    pub(crate) fn record_scoring(
        &mut self,
        table: &Table,
        query: &InsightQuery,
        candidates: &[AttrTuple],
        scores: &[Option<f64>],
        provenance: &[(bool, ScorePath)],
    ) {
        let Some(t) = self.inner.as_deref_mut() else {
            return;
        };
        for ((attrs, score), &(cached, path)) in candidates.iter().zip(scores).zip(provenance) {
            let reason = match score {
                None if path == ScorePath::NoSketch => SkipReason::NoSketchEstimator,
                None => SkipReason::Degenerate,
                Some(s) if !s.is_finite() => SkipReason::NonFinite,
                Some(s) if !query.matches_range(*s) => SkipReason::OutOfRange,
                Some(_) => {
                    t.survivors.push((*attrs, cached, path));
                    continue;
                }
            };
            match t.skips.iter_mut().find(|(r, _, _)| *r == reason) {
                Some((_, count, samples)) => {
                    *count += 1;
                    if samples.len() < MAX_SKIP_SAMPLES {
                        samples.push(attr_names(table, attrs));
                    }
                }
                None => t.skips.push((reason, 1, vec![attr_names(table, attrs)])),
            }
        }
    }

    /// Snapshots the full pre-MMR ordering so final ranks get deltas.
    pub(crate) fn set_undiversified(&mut self, order: Vec<AttrTuple>) {
        if let Some(t) = self.inner.as_deref_mut() {
            t.undiversified = Some(order);
        }
    }

    /// Annotates the final top-k with provenance and rank deltas.
    pub(crate) fn record_results(&mut self, table: &Table, out: &[InsightInstance]) {
        let Some(t) = self.inner.as_deref_mut() else {
            return;
        };
        t.results = out
            .iter()
            .enumerate()
            .map(|(i, inst)| {
                let rank = i + 1;
                let (cache_hit, path) = if t.index_served {
                    (false, "index")
                } else {
                    t.survivors
                        .iter()
                        .find(|(a, _, _)| *a == inst.attrs)
                        .map(|&(_, cached, path)| (cached, path.name()))
                        .unwrap_or((false, "unknown"))
                };
                let rank_delta = t
                    .undiversified
                    .as_ref()
                    .and_then(|pre| pre.iter().position(|a| *a == inst.attrs))
                    .map(|pre_rank| (pre_rank + 1) as i64 - rank as i64)
                    .unwrap_or(0);
                TracedResult {
                    rank,
                    attrs: attr_names(table, &inst.attrs),
                    score: inst.score,
                    metric: inst.metric.clone(),
                    cache_hit,
                    path: path.to_owned(),
                    rank_delta,
                }
            })
            .collect();
    }

    /// Seals the builder into an immutable [`QueryTrace`]; `None` when the
    /// builder was inert.
    fn finish(self) -> Option<QueryTrace> {
        let mut t = *self.inner?;
        let end_ns = clock::now_ns();
        // close anything left open (error paths), then the root
        for &idx in t.stack.iter().skip(1) {
            t.spans[idx].end_ns = end_ns;
        }
        t.spans[0].end_ns = end_ns;
        let root = assemble_span(&t.spans, 0, t.start_ns);
        t.skips.sort_by_key(|(r, _, _)| r.name());
        Some(QueryTrace {
            query_id: t.query_id,
            class_id: t.class_id,
            metric: t.metric,
            mode: t.mode.name().to_owned(),
            forced: t.forced,
            index_served: t.index_served,
            total_ns: end_ns.saturating_sub(t.start_ns),
            candidates_generated: t.candidates_generated,
            candidates_eligible: t.candidates_eligible,
            lsh: t.lsh,
            cache_hits: t.cache_hits,
            cache_misses: t.cache_misses,
            cache_stored: t.cache_stored,
            skips: t
                .skips
                .into_iter()
                .map(|(reason, count, samples)| SkipSummary {
                    reason: reason.name().to_owned(),
                    count,
                    samples,
                })
                .collect(),
            results: t.results,
            root,
        })
    }
}

/// Column names of a tuple, `" × "`-joined (falls back to `#i` when the
/// schema is shorter than the index — never happens for real tables).
fn attr_names(table: &Table, attrs: &AttrTuple) -> String {
    attrs
        .indices()
        .iter()
        .map(|&i| {
            table
                .schema()
                .field(i)
                .map(|f| f.name.clone())
                .unwrap_or_else(|| format!("#{i}"))
        })
        .collect::<Vec<_>>()
        .join(" × ")
}

fn assemble_span(spans: &[SpanRec], idx: usize, base_ns: u64) -> TraceSpan {
    let rec = &spans[idx];
    TraceSpan {
        name: rec.name.to_owned(),
        start_ns: rec.start_ns.saturating_sub(base_ns),
        dur_ns: rec.end_ns.saturating_sub(rec.start_ns),
        attrs: rec.attrs.clone(),
        children: spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent == Some(idx))
            .map(|(i, _)| assemble_span(spans, i, base_ns))
            .collect(),
    }
}

/// Fixed-capacity ring of the last N finished traces. Writers claim a slot
/// with one atomic `fetch_add` and swap the trace in under that slot's own
/// micro-lock — concurrent pushes to different slots never serialize.
struct TraceRing {
    slots: Box<[Mutex<Option<Arc<QueryTrace>>>]>,
    head: AtomicU64,
}

impl TraceRing {
    fn new(capacity: usize) -> Self {
        Self {
            slots: (0..capacity.max(1)).map(|_| Mutex::new(None)).collect(),
            head: AtomicU64::new(0),
        }
    }

    fn push(&self, trace: Arc<QueryTrace>) {
        let n = self.head.fetch_add(1, Ordering::Relaxed);
        *self.slots[(n % self.slots.len() as u64) as usize].lock() = Some(trace);
    }

    /// The most recent traces, newest first, at most `n`.
    fn recent(&self, n: usize) -> Vec<Arc<QueryTrace>> {
        let head = self.head.load(Ordering::Relaxed);
        let len = self.slots.len() as u64;
        let oldest = head.saturating_sub(len);
        (oldest..head)
            .rev()
            .take(n)
            .filter_map(|i| self.slots[(i % len) as usize].lock().clone())
            .collect()
    }

    fn clear(&self) {
        for slot in self.slots.iter() {
            *slot.lock() = None;
        }
    }
}

/// The core's request-tracing registry: the query-id counter, the ring of
/// finished traces, and the slow-query log. Shared — like [`Metrics`] and
/// the score cache — by every snapshot the writer path republishes.
///
/// [`Metrics`]: crate::telemetry::Metrics
pub struct Tracer {
    next_id: AtomicU64,
    ring: TraceRing,
    /// Slow-query threshold, ns; 0 disables the log. One relaxed load per
    /// untraced query is the entire cost of the armed-but-quiet state.
    slow_threshold_ns: AtomicU64,
    slow: Mutex<VecDeque<SlowQuery>>,
    /// Maximum retained slow-log entries (fixed at construction).
    slow_capacity: usize,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A fresh tracer with the default capacities, slow log off.
    pub fn new() -> Self {
        Self::with_capacities(TRACE_RING_CAPACITY, SLOW_LOG_CAPACITY)
    }

    /// A fresh tracer with explicit capture depths: `ring` retained
    /// finished traces and `slow` retained slow-log entries (each clamped
    /// to at least 1). Server operators size these for load — a deep ring
    /// for post-hoc debugging, a shallow one to bound memory.
    pub fn with_capacities(ring: usize, slow: usize) -> Self {
        Self {
            next_id: AtomicU64::new(0),
            ring: TraceRing::new(ring),
            slow_threshold_ns: AtomicU64::new(0),
            slow: Mutex::new(VecDeque::new()),
            slow_capacity: slow.max(1),
        }
    }

    /// How many finished traces the ring retains.
    pub fn ring_capacity(&self) -> usize {
        self.ring.slots.len()
    }

    /// How many slow-query entries the log retains.
    pub fn slow_log_capacity(&self) -> usize {
        self.slow_capacity
    }

    /// Approximate resident bytes of the trace ring and slow-query log:
    /// occupied ring slots at a nominal per-trace span-tree estimate, plus
    /// the retained slow entries. A monitor resource gauge, not allocator
    /// truth.
    pub fn approx_bytes(&self) -> usize {
        // a retained trace is a span tree of a dozen-odd labelled spans
        const PER_TRACE: usize = 2048;
        let occupied = self
            .ring
            .slots
            .iter()
            .filter(|slot| slot.lock().is_some())
            .count();
        let slow = self.slow.lock();
        let slow_bytes: usize = slow
            .iter()
            .map(|q| std::mem::size_of::<SlowQuery>() + q.class_id.len() + q.mode.len())
            .sum();
        self.ring.slots.len() * std::mem::size_of::<Mutex<Option<Arc<QueryTrace>>>>()
            + occupied * PER_TRACE
            + slow_bytes
    }

    /// The slow-query threshold in nanoseconds (0 = off).
    pub fn slow_threshold_ns(&self) -> u64 {
        self.slow_threshold_ns.load(Ordering::Relaxed)
    }

    /// Arms (or, with 0, disarms) the slow-query log: every query whose
    /// end-to-end time meets the threshold is logged, traced or not.
    pub fn set_slow_threshold_ns(&self, ns: u64) {
        self.slow_threshold_ns.store(ns, Ordering::Relaxed);
    }

    /// Starts a trace for one query; `forced` marks an EXPLAIN.
    pub(crate) fn begin_trace(
        &self,
        query: &InsightQuery,
        mode: Mode,
        forced: bool,
    ) -> TraceBuilder {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        TraceBuilder::active(id, query, mode, forced)
    }

    /// Seals a builder, publishes the finished trace to the ring, and
    /// returns it (`None` for inert builders).
    pub(crate) fn finish(&self, builder: TraceBuilder) -> Option<Arc<QueryTrace>> {
        let trace = Arc::new(builder.finish()?);
        self.ring.push(Arc::clone(&trace));
        Some(trace)
    }

    /// Logs the query when the armed threshold is met; inert otherwise.
    pub(crate) fn maybe_record_slow(
        &self,
        query: &InsightQuery,
        mode: Mode,
        total_ns: u64,
        results: usize,
        trace: Option<Arc<QueryTrace>>,
    ) {
        let threshold = self.slow_threshold_ns();
        if threshold == 0 || total_ns < threshold {
            return;
        }
        let entry = SlowQuery {
            query_id: trace.as_ref().map(|t| t.query_id),
            class_id: query.class_id.clone(),
            mode: mode.name().to_owned(),
            total_ns,
            results,
            trace,
        };
        let mut slow = self.slow.lock();
        if slow.len() >= self.slow_capacity {
            slow.pop_front();
        }
        slow.push_back(entry);
    }

    /// The most recent finished traces, newest first, at most `n`.
    pub fn recent(&self, n: usize) -> Vec<Arc<QueryTrace>> {
        self.ring.recent(n)
    }

    /// The most recently finished trace.
    pub fn last(&self) -> Option<Arc<QueryTrace>> {
        self.ring.recent(1).into_iter().next()
    }

    /// The slow-query log, oldest first.
    pub fn slow_queries(&self) -> Vec<SlowQuery> {
        self.slow.lock().iter().cloned().collect()
    }

    /// Drops every retained trace and slow-log entry (ids keep counting).
    pub fn clear(&self) {
        self.ring.clear();
        self.slow.lock().clear();
    }
}

/// What [`EngineCore::run`](crate::EngineCore::run) and
/// [`explain`](crate::SessionHandle::explain) return: the query's results
/// (bit-identical to an untraced run) plus the trace, when one was
/// captured.
#[derive(Debug, Clone)]
pub struct Explained {
    /// The ranked insight instances, exactly as `query()` would return.
    pub results: Vec<InsightInstance>,
    /// The captured trace (always present for EXPLAIN).
    pub trace: Option<Arc<QueryTrace>>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace(id: u64) -> Arc<QueryTrace> {
        Arc::new(QueryTrace {
            query_id: id,
            class_id: "skew".into(),
            metric: "|skewness|".into(),
            mode: "exact".into(),
            forced: false,
            index_served: false,
            total_ns: 1000,
            candidates_generated: 10,
            candidates_eligible: 8,
            lsh: None,
            cache_hits: 3,
            cache_misses: 5,
            cache_stored: 5,
            skips: vec![],
            results: vec![],
            root: TraceSpan {
                name: "query".into(),
                start_ns: 0,
                dur_ns: 1000,
                attrs: vec![("k".into(), "5".into())],
                children: vec![TraceSpan {
                    name: "score".into(),
                    start_ns: 100,
                    dur_ns: 700,
                    attrs: vec![],
                    children: vec![],
                }],
            },
        })
    }

    #[test]
    fn ring_keeps_newest_and_evicts_in_order() {
        let ring = TraceRing::new(4);
        for id in 1..=7 {
            ring.push(sample_trace(id));
        }
        let ids: Vec<u64> = ring.recent(10).iter().map(|t| t.query_id).collect();
        assert_eq!(ids, vec![7, 6, 5, 4], "newest first, oldest evicted");
        assert_eq!(ring.recent(2).len(), 2);
        ring.clear();
        assert!(ring.recent(10).is_empty());
    }

    #[test]
    fn slow_log_respects_threshold_and_capacity() {
        let tracer = Tracer::new();
        let q = InsightQuery::class("skew");
        tracer.maybe_record_slow(&q, Mode::Exact, 10_000, 1, None);
        assert!(
            tracer.slow_queries().is_empty(),
            "disarmed log records nothing"
        );
        tracer.set_slow_threshold_ns(5_000);
        tracer.maybe_record_slow(&q, Mode::Exact, 4_999, 1, None);
        tracer.maybe_record_slow(&q, Mode::Exact, 5_000, 2, None);
        let slow = tracer.slow_queries();
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].results, 2);
        assert!(slow[0].to_line().contains("skew"));
        for _ in 0..(SLOW_LOG_CAPACITY + 10) {
            tracer.maybe_record_slow(&q, Mode::Exact, 9_000, 0, None);
        }
        assert_eq!(tracer.slow_queries().len(), SLOW_LOG_CAPACITY);
        tracer.clear();
        assert!(tracer.slow_queries().is_empty());
    }

    #[test]
    fn capacities_are_configurable_per_tracer() {
        let tracer = Tracer::with_capacities(4, 2);
        assert_eq!(tracer.ring_capacity(), 4);
        assert_eq!(tracer.slow_log_capacity(), 2);
        tracer.set_slow_threshold_ns(1);
        let q = InsightQuery::class("skew");
        for results in 0..5 {
            tracer.maybe_record_slow(&q, Mode::Exact, 1_000, results, None);
        }
        let slow = tracer.slow_queries();
        assert_eq!(slow.len(), 2, "custom slow-log capacity bounds retention");
        assert_eq!(slow[0].results, 3, "oldest entries dropped first");
        // defaults still match the published constants, and degenerate
        // requests clamp to one retained entry
        let default = Tracer::new();
        assert_eq!(default.ring_capacity(), TRACE_RING_CAPACITY);
        assert_eq!(default.slow_log_capacity(), SLOW_LOG_CAPACITY);
        assert_eq!(Tracer::with_capacities(0, 0).slow_log_capacity(), 1);
        assert_eq!(Tracer::with_capacities(0, 0).ring_capacity(), 1);
    }

    #[test]
    fn chrome_export_is_valid_and_preordered() {
        let trace = sample_trace(42);
        let parsed: Value = serde_json::from_str(&trace.to_chrome_json()).unwrap();
        let events = parsed.as_array().expect("top-level array");
        assert_eq!(events.len(), 2);
        let mut last_ts = f64::MIN;
        for ev in events {
            assert_eq!(ev.get("ph").and_then(Value::as_str), Some("X"));
            assert_eq!(ev.get("pid").and_then(Value::as_u64), Some(1));
            assert_eq!(ev.get("tid").and_then(Value::as_u64), Some(42));
            let ts = ev.get("ts").and_then(Value::as_f64).expect("ts");
            assert!(ev.get("dur").and_then(Value::as_f64).expect("dur") >= 0.0);
            assert!(ts >= last_ts, "pre-order emission keeps ts monotonic");
            last_ts = ts;
        }
    }

    #[test]
    fn json_round_trips_and_text_renders() {
        let trace = sample_trace(7);
        let back: QueryTrace = serde_json::from_str(&trace.to_json()).unwrap();
        assert_eq!(&back, trace.as_ref());
        let text = trace.to_text();
        assert!(text.contains("query #7 skew"));
        assert!(text.contains("3 hits / 5 misses"));
        assert!(text.contains("score"));
    }

    #[test]
    fn builder_is_inert_when_disabled() {
        let mut b = TraceBuilder::disabled();
        assert!(!b.is_active());
        b.begin("score");
        b.attr("k", || unreachable!("attr closures never run when inert"));
        b.end();
        assert!(b.finish().is_none());
    }
}
