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
//! Finished traces land in a bounded ring on the core's [`Tracer`] and
//! render three ways: a text tree, deterministic pretty JSON, and Chrome
//! trace-event JSON loadable in Perfetto or `chrome://tracing`.
//!
//! Every query carries one `Recorder`, the only timer on the query path:
//! closing a step reads the clock once, and that reading both records the
//! step's [`Stage`] sample and, when the query is traced, closes its node
//! in the tree. Untraced, the recorder holds no tree, and the trace layer
//! adds one relaxed atomic load for the slow-query threshold.

use crate::core::TraceMode;
use crate::executor::Mode;
use crate::query::InsightQuery;
use crate::telemetry::{clock, Metrics, Ring, Stage};
use foresight_data::Table;
use foresight_insight::{AttrTuple, InsightInstance};
use serde::{Deserialize, Serialize};
use serde_json::{json, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How many finished traces a [`Tracer`] retains: the last N are
/// retrievable, older ones are evicted in arrival order.
pub const TRACE_RING_CAPACITY: usize = 64;

/// How many slow-query entries a [`Tracer`] retains; the oldest are
/// dropped first.
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
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
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

/// One timed step of the query path. The five with a [`Stage`] feed its
/// histogram; every step is a node of the tree when the query is traced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    /// Candidate generation and the query's filters.
    Candidates,
    /// Scoring the eligible candidates.
    Score,
    /// Reading the candidates' plane positions, inside `score`.
    CacheLookup,
    /// Scoring what no plane answered, inside `score`.
    ScoreMisses,
    /// Storing the fresh scores, inside `score`.
    CacheStore,
    /// Top-k selection.
    Rank,
    /// Maximal-marginal-relevance diversification.
    Diversify,
    /// Rendering the winning instances.
    Describe,
    /// Walking a filled rank order instead of scoring.
    IndexServe,
}

impl Step {
    /// The node name: the stage's own for a stage step.
    fn name(self) -> &'static str {
        match self {
            Step::Candidates => "candidates",
            Step::CacheLookup => "cache_lookup",
            Step::ScoreMisses => "score_misses",
            Step::CacheStore => "cache_store",
            _ => self.stage().expect("a stage step").name(),
        }
    }

    /// The stage cell the step's samples land in (`None` = tree only).
    fn stage(self) -> Option<Stage> {
        match self {
            Step::Score => Some(Stage::Score),
            Step::Rank => Some(Stage::Rank),
            Step::Diversify => Some(Stage::Diversify),
            Step::Describe => Some(Stage::Describe),
            Step::IndexServe => Some(Stage::IndexServe),
            Step::Candidates | Step::CacheLookup | Step::ScoreMisses | Step::CacheStore => None,
        }
    }
}

/// In-flight trace state. Lives only while its query executes.
#[derive(Default)]
struct ActiveTrace {
    /// The trace being filled; its tree, skips and total are set at finish.
    trace: QueryTrace,
    /// Span arena, rooted at `query`: parent links instead of nesting so
    /// opening and closing a step are O(1) pushes; the tree is assembled
    /// once at finish.
    spans: Vec<SpanRec>,
    /// Indices into `spans` of the currently open nesting path.
    stack: Vec<usize>,
    /// Survivor provenance, for annotating the final top-k.
    survivors: Vec<(AttrTuple, bool, ScorePath)>,
    /// `(reason, count, samples)` sorted by reason name at finish.
    skips: Vec<(SkipReason, u64, Vec<String>)>,
    /// Full descending-score order before MMR, when diversification ran.
    undiversified: Option<Vec<AttrTuple>>,
}

struct SpanRec {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    attrs: Vec<(String, String)>,
}

/// The request-scoped recorder threaded through the executor: the one
/// timer on the query path. Closing a step reads the clock once; that
/// reading records the step's stage sample into the attached registry and,
/// when the query is traced, closes the step's tree node. The next step
/// opens from the same reading, so adjacent steps share their boundary.
/// Untraced, it allocates nothing and reads the clock only around stage
/// steps (none at all without a registry).
#[derive(Default)]
pub(crate) struct Recorder<'m> {
    metrics: Option<&'m Metrics>,
    trace: Option<Box<ActiveTrace>>,
    /// The root's start: read when the query is traced or the slow-query
    /// log is armed, `None` otherwise.
    start_ns: Option<u64>,
    /// The reading that closed the last step, for the next open to share.
    boundary: Option<u64>,
}

/// A step between [`Recorder::open`] and [`Recorder::close`].
#[must_use = "a step is recorded when it is closed"]
pub(crate) struct Open {
    step: Step,
    start_ns: u64,
}

impl<'m> Recorder<'m> {
    /// An untraced recorder whose root is untimed: stage samples into
    /// `metrics`, if any, and nothing else.
    pub(crate) fn untraced(metrics: Option<&'m Metrics>) -> Self {
        Self {
            metrics,
            ..Self::default()
        }
    }

    /// Whether this query is being traced. Callers gate any work done
    /// purely to feed the trace (formatting, cloning) behind this.
    #[inline]
    pub(crate) fn is_traced(&self) -> bool {
        self.trace.is_some()
    }

    /// Whether `step`'s boundaries read the clock: it is traced, or it
    /// feeds a stage of an attached registry.
    #[inline]
    fn times(&self, step: Step) -> bool {
        self.trace.is_some() || (self.metrics.is_some() && step.stage().is_some())
    }

    /// Opens `step` under the innermost open one, from the reading that
    /// closed the previous step when there is one.
    #[inline]
    pub(crate) fn open(&mut self, step: Step) -> Open {
        let start_ns = match self.boundary.take() {
            Some(ns) => ns,
            None if self.times(step) => clock::now_ns(),
            None => 0,
        };
        if let Some(t) = self.trace.as_deref_mut() {
            let parent = t.stack.last().copied();
            t.spans.push(SpanRec {
                name: step.name(),
                start_ns,
                end_ns: start_ns,
                parent,
                attrs: Vec::new(),
            });
            t.stack.push(t.spans.len() - 1);
        }
        Open { step, start_ns }
    }

    /// Closes `open` with one clock reading, which is its stage sample's
    /// end, its tree node's end and the next step's start.
    #[inline]
    pub(crate) fn close(&mut self, open: Open) {
        self.boundary = None;
        if !self.times(open.step) {
            return;
        }
        let end_ns = clock::now_ns();
        if let (Some(metrics), Some(stage)) = (self.metrics, open.step.stage()) {
            metrics.record_ns(stage, end_ns.saturating_sub(open.start_ns));
        }
        if let Some(t) = self.trace.as_deref_mut() {
            let idx = t.stack.pop().expect("an open step");
            t.spans[idx].end_ns = end_ns;
        }
        self.boundary = Some(end_ns);
    }

    /// Attaches `key=value` to the innermost open step (the root when none
    /// is). The value closure only runs when tracing — callers pass
    /// `|| format!(...)` freely.
    #[inline]
    pub(crate) fn attr(&mut self, key: &'static str, value: impl FnOnce() -> String) {
        if let Some(t) = self.trace.as_deref_mut() {
            let idx = *t.stack.last().expect("root span always open");
            t.spans[idx].attrs.push((key.to_owned(), value()));
        }
    }

    pub(crate) fn set_metric(&mut self, metric: &str) {
        if let Some(t) = self.trace.as_deref_mut() {
            t.trace.metric = metric.to_owned();
        }
    }

    pub(crate) fn set_candidates(&mut self, generated: usize, eligible: usize) {
        if let Some(t) = self.trace.as_deref_mut() {
            t.trace.candidates_generated = generated;
            t.trace.candidates_eligible = eligible;
        }
    }

    /// Records that this query's candidates came from LSH bucket collisions.
    pub(crate) fn set_lsh(&mut self, info: LshCandidates) {
        if let Some(t) = self.trace.as_deref_mut() {
            t.trace.lsh = Some(info);
        }
    }

    /// Records this query's own plane traffic: hits read, misses scored,
    /// scores stored.
    pub(crate) fn set_cache_traffic(&mut self, hits: u64, misses: u64, stored: u64) {
        if let Some(t) = self.trace.as_deref_mut() {
            t.trace.cache_hits = hits;
            t.trace.cache_misses = misses;
            t.trace.cache_stored = stored;
        }
    }

    pub(crate) fn set_index_served(&mut self) {
        if let Some(t) = self.trace.as_deref_mut() {
            t.trace.index_served = true;
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
        let Some(t) = self.trace.as_deref_mut() else {
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
        if let Some(t) = self.trace.as_deref_mut() {
            t.undiversified = Some(order);
        }
    }

    /// Annotates the final top-k with provenance and rank deltas.
    pub(crate) fn record_results(&mut self, table: &Table, out: &[InsightInstance]) {
        let Some(t) = self.trace.as_deref_mut() else {
            return;
        };
        t.trace.results = out
            .iter()
            .enumerate()
            .map(|(i, inst)| {
                let rank = i + 1;
                let (cache_hit, path) = if t.trace.index_served {
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
}

impl ActiveTrace {
    /// Seals the trace into an immutable [`QueryTrace`] whose root closes
    /// at `end_ns`.
    fn finish(mut self, end_ns: u64) -> QueryTrace {
        // close anything left open (error paths), then the root
        for &idx in &self.stack {
            self.spans[idx].end_ns = end_ns;
        }
        let start_ns = self.spans[0].start_ns;
        self.skips.sort_by_key(|(r, _, _)| r.name());
        QueryTrace {
            total_ns: end_ns.saturating_sub(start_ns),
            skips: self
                .skips
                .into_iter()
                .map(|(reason, count, samples)| SkipSummary {
                    reason: reason.name().to_owned(),
                    count,
                    samples,
                })
                .collect(),
            root: assemble_span(&self.spans, 0, start_ns),
            ..self.trace
        }
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

/// The core's request-tracing registry: the query-id counter, the ring of
/// finished traces, and the slow-query log. Shared — like [`Metrics`] and
/// the score cache — by every snapshot the writer path republishes.
pub struct Tracer {
    next_id: AtomicU64,
    ring: Ring<Arc<QueryTrace>>,
    /// Slow-query threshold, ns; 0 disables the log. One relaxed load per
    /// untraced query is the entire cost of the armed-but-quiet state.
    slow_threshold_ns: AtomicU64,
    slow: Ring<SlowQuery>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A fresh tracer: [`TRACE_RING_CAPACITY`] retained traces,
    /// [`SLOW_LOG_CAPACITY`] retained slow queries, slow log off.
    pub fn new() -> Self {
        Self {
            next_id: AtomicU64::new(0),
            ring: Ring::new(TRACE_RING_CAPACITY),
            slow_threshold_ns: AtomicU64::new(0),
            slow: Ring::new(SLOW_LOG_CAPACITY),
        }
    }

    /// Approximate resident bytes of the trace ring and slow-query log:
    /// retained traces at a nominal per-trace span-tree estimate, plus the
    /// retained slow entries. A monitor resource gauge, not allocator
    /// truth.
    pub fn approx_bytes(&self) -> usize {
        // a retained trace is a span tree of a dozen-odd labelled spans
        const PER_TRACE: usize = 2048;
        self.ring.len() * PER_TRACE + self.slow.len() * std::mem::size_of::<SlowQuery>()
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

    /// The recorder for one query, its stage samples into `metrics`: traced
    /// when `trace` asks (`Forced` marks an EXPLAIN), and its root timed
    /// when traced or the slow-query log is armed.
    pub(crate) fn recorder<'m>(
        &self,
        metrics: Option<&'m Metrics>,
        query: &InsightQuery,
        mode: Mode,
        trace: TraceMode,
    ) -> Recorder<'m> {
        let forced = match trace {
            TraceMode::Off => None,
            TraceMode::Sampled => Some(false),
            TraceMode::Forced => Some(true),
        };
        let mut rec = Recorder::untraced(metrics);
        if forced.is_none() && self.slow_threshold_ns() == 0 {
            return rec;
        }
        let start_ns = clock::now_ns();
        rec.start_ns = Some(start_ns);
        rec.trace = forced.map(|forced| {
            Box::new(ActiveTrace {
                trace: QueryTrace {
                    query_id: self.next_id.fetch_add(1, Ordering::Relaxed) + 1,
                    class_id: query.class_id.clone(),
                    mode: mode.name().to_owned(),
                    forced,
                    ..QueryTrace::default()
                },
                spans: vec![SpanRec {
                    name: "query",
                    start_ns,
                    end_ns: start_ns,
                    parent: None,
                    attrs: Vec::new(),
                }],
                stack: vec![0],
                ..ActiveTrace::default()
            })
        });
        rec
    }

    /// Closes a query's recorder: one clock reading ends a timed root,
    /// which seals the trace into the ring and meets the slow-query log.
    /// Returns the trace, when the query was traced.
    pub(crate) fn finish(
        &self,
        rec: Recorder<'_>,
        query: &InsightQuery,
        mode: Mode,
        results: usize,
    ) -> Option<Arc<QueryTrace>> {
        let start_ns = rec.start_ns?;
        let end_ns = clock::now_ns();
        let trace = rec.trace.map(|t| Arc::new(t.finish(end_ns)));
        if let Some(trace) = &trace {
            self.ring.push(Arc::clone(trace));
        }
        let total_ns = end_ns.saturating_sub(start_ns);
        self.maybe_record_slow(query, mode, total_ns, results, trace.clone());
        trace
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
        self.slow.push(SlowQuery {
            query_id: trace.as_ref().map(|t| t.query_id),
            class_id: query.class_id.clone(),
            mode: mode.name().to_owned(),
            total_ns,
            results,
            trace,
        });
    }

    /// The most recent finished traces, newest first, at most `n`.
    pub fn recent(&self, n: usize) -> Vec<Arc<QueryTrace>> {
        let mut traces = self.ring.last(n);
        traces.reverse();
        traces
    }

    /// The most recently finished trace.
    pub fn last(&self) -> Option<Arc<QueryTrace>> {
        self.ring.last(1).pop()
    }

    /// The slow-query log, oldest first.
    pub fn slow_queries(&self) -> Vec<SlowQuery> {
        self.slow.last(SLOW_LOG_CAPACITY)
    }

    /// Drops every retained trace and slow-log entry (ids keep counting).
    pub fn clear(&self) {
        self.ring.clear();
        self.slow.clear();
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
        let ring = Ring::new(4);
        let tracer = Tracer::new();
        for id in 1..=7 {
            ring.push(id);
            tracer.ring.push(sample_trace(id));
        }
        assert_eq!(
            ring.last(10),
            vec![4, 5, 6, 7],
            "oldest first, oldest evicted"
        );
        assert_eq!(ring.last(2), vec![6, 7]);
        assert_eq!(ring.len(), 4);
        // the tracer reads the same ring newest first
        let ids: Vec<u64> = tracer.recent(3).iter().map(|t| t.query_id).collect();
        assert_eq!(ids, vec![7, 6, 5]);
        assert_eq!(tracer.last().map(|t| t.query_id), Some(7));
        ring.clear();
        tracer.clear();
        assert!(ring.last(10).is_empty() && tracer.recent(10).is_empty());
        let one = Ring::new(0);
        one.push(1);
        one.push(2);
        assert_eq!(one.last(10), vec![2], "a ring holds at least one entry");
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
        let mut rec = Recorder::untraced(None);
        assert!(!rec.is_traced());
        let score = rec.open(Step::Score);
        rec.attr("k", || unreachable!("attr closures never run untraced"));
        rec.close(score);
        assert_eq!(rec.boundary, None, "no registry, no trace: no clock read");
        let q = InsightQuery::class("skew");
        assert!(Tracer::new().finish(rec, &q, Mode::Exact, 0).is_none());
    }

    #[test]
    fn recorder_records_each_boundary_once() {
        let m = Metrics::new();
        let mut rec = Recorder::untraced(Some(&m));
        let score = rec.open(Step::Score);
        let lookup = rec.open(Step::CacheLookup);
        rec.close(lookup);
        rec.close(score);
        let rank = rec.open(Step::Rank);
        rec.close(rank);
        let snap = m.snapshot();
        assert_eq!(snap.stage("score").unwrap().count, 1);
        assert_eq!(snap.stage("rank").unwrap().count, 1);
        let samples: u64 = snap.stages.iter().map(|s| s.count).sum();
        assert_eq!(samples, 2, "a tree-only step records no sample");
        // nothing is recorded without a registry
        let mut none = Recorder::untraced(None);
        let score = none.open(Step::Score);
        none.close(score);
        assert_eq!(m.snapshot().stage("score").unwrap().count, 1);

        // traced: one reading closes a node and records its sample, and
        // the next step opens from it
        let total = |name: &str| m.snapshot().stage(name).unwrap().total_ns;
        let before = (total("score"), total("rank"));
        let tracer = Tracer::new();
        let q = InsightQuery::class("skew");
        let mut rec = tracer.recorder(Some(&m), &q, Mode::Exact, TraceMode::Forced);
        let score = rec.open(Step::Score);
        rec.close(score);
        let rank = rec.open(Step::Rank);
        rec.close(rank);
        let trace = tracer.finish(rec, &q, Mode::Exact, 0).expect("traced");
        let score = trace.root.child("score").unwrap();
        let rank = trace.root.child("rank").unwrap();
        assert_eq!(
            rank.start_ns,
            score.start_ns + score.dur_ns,
            "a shared boundary"
        );
        assert_eq!(total("score") - before.0, score.dur_ns);
        assert_eq!(total("rank") - before.1, rank.dur_ns);
    }
}
