//! The span recorder behind the traced run.
//!
//! The benchmark sees the system only through its public API, so a span
//! wraps one call into a layer's public function (`engine.preprocess`,
//! `serve.call`, ...) and the layer is the part of the name before the
//! first dot. Each load thread owns one [`Recorder`]: spans go into an
//! in-memory arena, are never touched again while the clock runs, and
//! are aggregated and dumped as Chrome-trace JSON after the run. A
//! recorder that is off costs one branch per call site, which is what the
//! plain run measures with.

use std::collections::BTreeMap;
use std::time::Instant;

/// `Span::parent` of a span with no enclosing span.
pub const NO_PARENT: u32 = u32::MAX;

/// Name of the span that wraps one whole workload op.
pub const ROOT: &str = "op";

/// Arena bound per recorder; spans past it are timed by the caller as
/// usual but not stored (the traced result says when an arena filled up).
pub const MAX_SPANS: usize = 1 << 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Arena index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// The op this span belongs to; every span of one op shares it.
    pub request_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span is charged to: the crate named before the first
    /// dot, or `harness` for the benchmark's own op wrapper.
    pub fn layer(&self) -> &'static str {
        match self.name.split_once('.') {
            Some((layer, _)) => layer,
            None => "harness",
        }
    }
}

pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Arena indices of the spans currently open, innermost last.
    open: Vec<u32>,
    request_id: u64,
}

impl Recorder {
    /// A recorder whose timestamps count from `origin`; recorders of one
    /// run share it so their lanes line up in the trace viewer.
    pub fn new(origin: Instant, enabled: bool) -> Self {
        Self {
            enabled,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            request_id: 0,
        }
    }

    pub fn off() -> Self {
        Self::new(Instant::now(), false)
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        debug_assert!(self.open.is_empty(), "toggle between ops, not inside one");
        self.enabled = enabled;
    }

    /// Starts the next op: spans recorded from here on carry a fresh id.
    pub fn next_request(&mut self) {
        self.request_id += 1;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Runs `f` inside a span called `name`. Nested calls become children.
    #[inline]
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        if self.spans.len() >= MAX_SPANS {
            return f(self);
        }
        let index = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent,
            request_id: self.request_id,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        let end = self.origin.elapsed().as_nanos() as u64;
        self.spans[index as usize].end_ns = end;
        out
    }
}

/// Self time of every span: its duration minus what its children cover.
/// Children of one span run one after the other on one thread, so their
/// cover is the sum of their durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if span.parent != NO_PARENT {
            let parent = &mut own[span.parent as usize];
            *parent = parent.saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Durations of every span called `name`, in recording order.
pub fn durations_of(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_ns)
        .collect()
}

/// Where the op time went: each layer's self time as a share of the
/// summed duration of the [`ROOT`] spans, over all lanes. The shares add
/// up to 1; `harness` is what no layer call covers.
pub fn layer_shares(lanes: &[&[Span]]) -> BTreeMap<&'static str, f64> {
    let mut own_ns: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut total = 0u64;
    for spans in lanes {
        for (span, own) in spans.iter().zip(self_times(spans)) {
            *own_ns.entry(span.layer()).or_default() += own;
            if span.parent == NO_PARENT && span.name == ROOT {
                total += span.duration_ns();
            }
        }
    }
    own_ns
        .into_iter()
        .filter(|_| total > 0)
        .map(|(layer, own)| (layer, own as f64 / total as f64))
        .collect()
}

/// Writes the lanes as Chrome-trace JSON (`chrome://tracing`, Perfetto):
/// one complete event per span, at most `cap` spans per lane so the file
/// stays loadable.
pub fn write_chrome_trace(
    path: &std::path::Path,
    lanes: &[(String, &[Span])],
    cap: usize,
) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(out, "{{\"traceEvents\":[")?;
    let mut first = true;
    for (tid, (lane, spans)) in lanes.iter().enumerate() {
        if !first {
            write!(out, ",")?;
        }
        first = false;
        write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\"{lane}\"}}}}"
        )?;
        for (index, span) in spans.iter().take(cap).enumerate() {
            let parent = if span.parent == NO_PARENT {
                -1
            } else {
                i64::from(span.parent)
            };
            write!(
                out,
                ",{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{index},\"parent\":{parent},\"request_id\":{}}}}}",
                span.name,
                span.layer(),
                span.start_ns as f64 / 1e3,
                span.duration_ns() as f64 / 1e3,
                span.request_id,
            )?;
        }
    }
    write!(out, "]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(us: u64) {
        let t0 = Instant::now();
        while t0.elapsed().as_micros() < u128::from(us) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_times_sum_to_the_root() {
        let mut rec = Recorder::new(Instant::now(), true);
        for _ in 0..3 {
            rec.next_request();
            rec.span(ROOT, |rec| {
                busy(50);
                rec.span("data.parse", |_| busy(200));
                rec.span("engine.build", |rec| {
                    busy(100);
                    rec.span("sketch.catalog", |_| busy(300));
                });
            });
        }
        let spans = rec.spans();
        assert_eq!(spans.len(), 12);
        let own = self_times(spans);
        let roots: u64 = spans
            .iter()
            .filter(|s| s.parent == NO_PARENT)
            .map(Span::duration_ns)
            .sum();
        assert_eq!(own.iter().sum::<u64>(), roots, "the parts sum to the whole");
        // a parent's self time excludes its children
        let build = spans.iter().position(|s| s.name == "engine.build").unwrap();
        assert!(own[build] < spans[build].duration_ns() - 250_000);
        let shares = layer_shares(&[spans]);
        let sum: f64 = shares.values().sum();
        assert!((sum - 1.0).abs() < 1e-9, "shares sum to 1, got {sum}");
        assert!(shares["sketch"] > shares["harness"]);
    }

    #[test]
    fn spans_of_one_op_share_a_request_id_and_name_their_parent() {
        let mut rec = Recorder::new(Instant::now(), true);
        rec.next_request();
        rec.span(ROOT, |rec| rec.span("serve.call", |_| ()));
        rec.next_request();
        rec.span(ROOT, |rec| rec.span("serve.call", |_| ()));
        let spans = rec.spans();
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[3].parent, 2);
        assert_eq!(spans[0].request_id, spans[1].request_id);
        assert_ne!(spans[1].request_id, spans[3].request_id);
    }

    #[test]
    fn a_recorder_that_is_off_records_nothing() {
        let mut rec = Recorder::off();
        let out = rec.span(ROOT, |rec| rec.span("engine.query", |_| 7));
        assert_eq!(out, 7);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let mut rec = Recorder::new(Instant::now(), true);
        rec.next_request();
        rec.span(ROOT, |rec| rec.span("viz.vega_emit", |_| busy(10)));
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test-trace");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        write_chrome_trace(&path, &[("lane-0".into(), rec.spans())], 10).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let doc: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(doc["traceEvents"].as_array().unwrap().len(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
