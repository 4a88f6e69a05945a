//! An interactive terminal explorer — the CLI stand-in for the paper's demo
//! UI. Load a dataset (bundled generator or any CSV), browse ranked insight
//! carousels, run constrained insight queries, focus insights to steer the
//! recommendations, inspect overview charts, and save/restore sessions.
//!
//! ```sh
//! cargo run --release --example explorer                # OECD
//! cargo run --release --example explorer -- imdb        # bundled dataset
//! cargo run --release --example explorer -- data.csv    # your data
//! echo -e "top linear-relationship 3\nquit" | cargo run --example explorer
//! ```
//!
//! With `connect <host:port>` the explorer speaks the `foresight-serve`
//! wire protocol instead of running the engine in-process — same
//! exploration loop, with the session living on the server:
//!
//! ```sh
//! cargo run --release --bin foresight-serve -- oecd &
//! cargo run --release --example explorer -- connect 127.0.0.1:4547
//! ```

use foresight::data::csv::read_csv;
use foresight::data::infer::InferOptions;
use foresight::prelude::*;
use foresight::serve::{Client, ClientError};
use std::io::{self, BufRead, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

const HELP: &str = "\
commands:
  classes                      list the registered insight classes
  top <class> [k]              top-k insights of a class (respects fix/range)
  fix <column name>            constrain queries to tuples containing a column
  range <lo> <hi>              constrain the metric score range
  semantic <tag>               require a semantic tag (currency, year, ...)
  clear                        drop all query constraints
  show <idx>                   render the chart of result #idx from the last query
  focus <idx>                  focus result #idx (steers recommendations)
  unfocus                      clear the focus set
  carousels [k]                one ranked strip per class (Figure 1)
  profile                      dataset profile: column summaries + headline insights
  overview <class>             the class overview chart (Figure 2 for linear)
  mode exact|approx            switch scoring mode (approx builds sketches once)
  candidates <strategy>        auto | exhaustive | lsh | lsh:<probes> — how
                               pairwise classes generate candidates (LSH needs
                               the sketch catalog; try `mode approx` first)
  stats                        score-cache counters (hits, misses, purges, planes)
  metrics [json|reset]         engine telemetry: per-stage latencies + query counters
  health                       health verdict from the continuous monitor
  alerts                       the watchdog's fired/resolved alert log
  watch [secs]                 live rates from the monitor ring (default 5 s)
  explain <class> [k]          run a query with a forced trace and show the full
                               span tree, per-candidate cache/path provenance,
                               skip reasons, and rank deltas
  trace last [json|chrome]     re-render the most recent trace (chrome = Perfetto)
  slowlog [ms|off]             show the slow-query log, or arm/disarm its threshold
  save <path> / load <path>    persist / restore the session
  help / quit";

struct Repl {
    engine: Foresight,
    fixed: Vec<usize>,
    range: Option<(f64, f64)>,
    semantic: Option<String>,
    last: Vec<InsightInstance>,
    /// Lazily started continuous monitor, keyed by the core it watches
    /// (preprocess swaps the core, which would leave a stale sampler).
    monitor: Option<(Arc<EngineCore>, Monitor)>,
}

/// Prints a health verdict with its typed reasons.
fn print_health(state: &HealthState) {
    println!("health: {}", state.name());
    for reason in state.reasons() {
        println!("  - {}", reason.describe());
    }
}

/// One monitor ring sample as a fixed-width watch line.
fn sample_line(s: &MonitorSample) -> String {
    format!(
        "[{:>4}] t+{:8.1}s  req/s {:8.1}  shed/s {:6.1}  q/s {:8.1}  hit {:5.1}%  behind {:>7}{}",
        s.seq,
        s.uptime_secs,
        s.request_rate,
        s.shed_rate,
        s.query_rate,
        s.cache_hit_rate * 100.0,
        s.rows_behind,
        if s.discontinuity {
            "  (discontinuity)"
        } else {
            ""
        },
    )
}

/// One watchdog transition as a log line.
fn alert_line(a: &AlertEvent) -> String {
    format!(
        "t+{:8.1}s  {}  {:<18}  value {:.2} vs bound {:.2} (sample {})",
        a.uptime_secs,
        if a.fired { "FIRED   " } else { "resolved" },
        a.kind.name(),
        a.value,
        a.bound,
        a.seq,
    )
}

fn print_alerts(events: &[AlertEvent]) {
    if events.is_empty() {
        println!("(no alerts recorded — the watchdog has nothing to report)");
    }
    for event in events {
        println!("  {}", alert_line(event));
    }
}

impl Repl {
    /// The monitor over the *current* core, (re)spawned on first use or
    /// after `mode approx` rebuilt the core underneath it.
    fn monitor(&mut self) -> &Monitor {
        let core = Arc::clone(self.engine.core());
        let stale = match &self.monitor {
            Some((held, _)) => !Arc::ptr_eq(held, &core),
            None => true,
        };
        if stale {
            // 250 ms cadence: interactive `watch` should not wait a full
            // second per line
            let config = MonitorConfig {
                cadence_ms: 250,
                ..MonitorConfig::default()
            };
            let monitor = Monitor::spawn(MonitorTarget::Static(Arc::clone(&core)), config);
            self.monitor = Some((core, monitor));
        }
        &self.monitor.as_ref().expect("monitor just ensured").1
    }

    fn build_query(&self, class: &str, k: usize) -> InsightQuery {
        let mut q = InsightQuery::class(class).top_k(k);
        for &f in &self.fixed {
            q = q.fix_attr(f);
        }
        if let Some((lo, hi)) = self.range {
            q = q.score_range(lo, hi);
        }
        if let Some(tag) = &self.semantic {
            q = q.require_semantic(tag.clone());
        }
        q
    }

    fn command(&mut self, line: &str) -> bool {
        let mut parts = line.split_whitespace();
        let Some(cmd) = parts.next() else {
            return true;
        };
        let rest: Vec<&str> = parts.collect();
        match cmd {
            "quit" | "exit" => return false,
            "help" => println!("{HELP}"),
            "classes" => {
                for c in self.engine.registry().classes() {
                    println!("  {:<28} {:<32} {}", c.id(), c.metric(), c.description());
                }
            }
            "top" => {
                let Some(class) = rest.first() else {
                    println!("usage: top <class> [k]");
                    return true;
                };
                let k = rest.get(1).and_then(|s| s.parse().ok()).unwrap_or(5);
                match self.engine.query(&self.build_query(class, k)) {
                    Ok(out) => {
                        self.last = out;
                        if self.last.is_empty() {
                            println!("(no insights match the current constraints)");
                        }
                        for (i, inst) in self.last.iter().enumerate() {
                            println!("  [{i}] {:.3}  {}", inst.score, inst.detail);
                        }
                    }
                    Err(e) => println!("error: {e}"),
                }
            }
            "fix" => {
                let name = rest.join(" ");
                match self.engine.table().index_of(&name) {
                    Ok(idx) => {
                        self.fixed.push(idx);
                        println!("fixed attribute: {name} (#{idx})");
                    }
                    Err(e) => println!("error: {e}"),
                }
            }
            "range" => {
                match (
                    rest.first().and_then(|s| s.parse().ok()),
                    rest.get(1).and_then(|s| s.parse().ok()),
                ) {
                    (Some(lo), Some(hi)) => {
                        self.range = Some((lo, hi));
                        println!("score range: [{lo}, {hi}]");
                    }
                    _ => println!("usage: range <lo> <hi>"),
                }
            }
            "semantic" => match rest.first() {
                Some(tag) => {
                    self.semantic = Some(tag.to_string());
                    println!("requiring semantic tag: {tag}");
                }
                None => println!("usage: semantic <tag>"),
            },
            "clear" => {
                self.fixed.clear();
                self.range = None;
                self.semantic = None;
                println!("constraints cleared");
            }
            "show" => {
                let Some(idx) = rest.first().and_then(|s| s.parse::<usize>().ok()) else {
                    println!("usage: show <idx>");
                    return true;
                };
                match self.last.get(idx) {
                    Some(inst) => match self.engine.chart(inst) {
                        Ok(Some(spec)) => println!("{}", render_text(&spec, 72)),
                        Ok(None) => println!("(no chart for this insight)"),
                        Err(e) => println!("error: {e}"),
                    },
                    None => println!("no result #{idx}; run `top` first"),
                }
            }
            "focus" => {
                let Some(idx) = rest.first().and_then(|s| s.parse::<usize>().ok()) else {
                    println!("usage: focus <idx>");
                    return true;
                };
                match self.last.get(idx) {
                    Some(inst) => {
                        println!("focused: {}", inst.detail);
                        self.engine.focus(inst.clone());
                    }
                    None => println!("no result #{idx}; run `top` first"),
                }
            }
            "unfocus" => {
                let attrs: Vec<_> = self
                    .engine
                    .session()
                    .focus
                    .iter()
                    .map(|f| f.attrs)
                    .collect();
                for a in attrs {
                    self.engine.unfocus(&a);
                }
                println!("focus cleared");
            }
            "profile" => match self.engine.profile() {
                Ok(p) => println!("{}", p.to_text()),
                Err(e) => println!("error: {e}"),
            },
            "carousels" => {
                let k = rest.first().and_then(|s| s.parse().ok()).unwrap_or(3);
                match self.engine.carousels(k) {
                    Ok(cs) => {
                        for c in cs.iter().filter(|c| !c.instances.is_empty()) {
                            println!("── {} ──", c.class_name);
                            for inst in &c.instances {
                                println!("    {:.3}  {}", inst.score, inst.detail);
                            }
                        }
                    }
                    Err(e) => println!("error: {e}"),
                }
            }
            "overview" => {
                let Some(class) = rest.first() else {
                    println!("usage: overview <class>");
                    return true;
                };
                match self.engine.overview(class) {
                    Ok(Some(spec)) => println!("{}", render_text(&spec, 100)),
                    Ok(None) => println!("(this class has no overview chart)"),
                    Err(e) => println!("error: {e}"),
                }
            }
            "mode" => match rest.first() {
                Some(&"approx") => {
                    if self.engine.catalog().is_none() {
                        println!("building sketch catalog…");
                        self.engine
                            .preprocess(&CatalogConfig::default())
                            .expect("raw table present");
                    } else {
                        self.engine
                            .set_mode(Mode::Approximate)
                            .expect("catalog built");
                    }
                    println!("mode: approximate (sketch-backed)");
                }
                Some(&"exact") => {
                    self.engine
                        .set_mode(Mode::Exact)
                        .expect("exact always works");
                    println!("mode: exact");
                }
                _ => println!("usage: mode exact|approx"),
            },
            "candidates" => match rest.first().copied().and_then(CandidateStrategy::parse) {
                Some(strategy) => {
                    self.engine.set_candidate_strategy(strategy);
                    let note = match (strategy, self.engine.core().lsh_index()) {
                        (CandidateStrategy::Exhaustive, _) | (_, Some(_)) => String::new(),
                        _ => " (no LSH index yet — build sketches with `mode approx`)".to_owned(),
                    };
                    println!("candidates: {}{note}", strategy.name());
                }
                None => println!("usage: candidates auto|exhaustive|lsh|lsh:<probes>"),
            },
            "stats" => {
                let stats = self.engine.cache_stats();
                let total = stats.hits + stats.misses;
                let rate = if total > 0 {
                    100.0 * stats.hits as f64 / total as f64
                } else {
                    0.0
                };
                println!(
                    "score cache: {} hits / {} misses ({rate:.1}% hit rate), {} entries, {} purged by epoch bumps",
                    stats.hits, stats.misses, stats.entries, stats.purges
                );
                let [partial, complete] = self.engine.core().rank_orders().planes();
                for (kind, planes) in [("partial", partial), ("complete", complete)] {
                    println!(
                        "  {kind} planes: {} ({} scores, {:.1} KB)",
                        planes.planes,
                        planes.entries,
                        planes.bytes as f64 / 1e3
                    );
                }
            }
            "metrics" => match rest.first() {
                Some(&"json") => println!("{}", self.engine.metrics().to_json()),
                Some(&"reset") => {
                    self.engine.core().metrics().reset();
                    if let Some((_, monitor)) = &self.monitor {
                        monitor.mark_discontinuity();
                    }
                    println!("telemetry counters reset");
                }
                None => print!("{}", self.engine.metrics().to_text()),
                Some(other) => {
                    println!("unknown metrics subcommand `{other}` (usage: metrics [json|reset])")
                }
            },
            "health" => {
                let state = self.monitor().health();
                print_health(&state);
            }
            "alerts" => {
                let events = self.monitor().alerts();
                print_alerts(&events);
            }
            "watch" => {
                let secs: u64 = rest.first().and_then(|s| s.parse().ok()).unwrap_or(5);
                let monitor = self.monitor();
                println!(
                    "watching for {secs} s ({} ms cadence)…",
                    monitor.config().cadence_ms
                );
                let deadline = Instant::now() + Duration::from_secs(secs);
                let mut last_seq = monitor.latest_sample().map_or(0, |s| s.seq);
                while Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(100));
                    if let Some(sample) = monitor.latest_sample() {
                        if sample.seq != last_seq {
                            last_seq = sample.seq;
                            println!("{}", sample_line(&sample));
                        }
                    }
                }
            }
            "explain" => {
                let Some(class) = rest.first() else {
                    println!("usage: explain <class> [k]");
                    return true;
                };
                let k = rest.get(1).and_then(|s| s.parse().ok()).unwrap_or(5);
                match self.engine.explain(&self.build_query(class, k)) {
                    Ok(explained) => {
                        self.last = explained.results;
                        if let Some(trace) = explained.trace {
                            print!("{}", trace.to_text());
                        }
                        for (i, inst) in self.last.iter().enumerate() {
                            println!("  [{i}] {:.3}  {}", inst.score, inst.detail);
                        }
                    }
                    Err(e) => println!("error: {e}"),
                }
            }
            "trace" => {
                match (rest.first(), rest.get(1)) {
                    (Some(&"last"), fmt) => match self.engine.tracer().last() {
                        Some(trace) => match fmt {
                            None => print!("{}", trace.to_text()),
                            Some(&"json") => println!("{}", trace.to_json()),
                            Some(&"chrome") => println!("{}", trace.to_chrome_json()),
                            Some(other) => {
                                println!("unknown trace format `{other}` (usage: trace last [json|chrome])")
                            }
                        },
                        None => println!("(no traces captured yet — run `explain` first)"),
                    },
                    _ => println!("usage: trace last [json|chrome]"),
                }
            }
            "slowlog" => match rest.first() {
                Some(&"off") => {
                    self.engine.tracer().set_slow_threshold_ns(0);
                    println!("slow-query log disarmed");
                }
                Some(ms) => match ms.parse::<f64>() {
                    Ok(ms) if ms >= 0.0 => {
                        // 0 ns disarms the tracer, so "slowlog 0" arms at
                        // 1 ns instead: log every query
                        self.engine
                            .tracer()
                            .set_slow_threshold_ns(((ms * 1e6) as u64).max(1));
                        println!("slow-query log armed at {ms} ms");
                    }
                    _ => println!("usage: slowlog [ms|off]"),
                },
                None => {
                    let entries = self.engine.tracer().slow_queries();
                    if entries.is_empty() {
                        println!(
                            "(slow-query log empty — arm it with `slowlog <ms>`, threshold now {} ms)",
                            self.engine.tracer().slow_threshold_ns() as f64 / 1e6
                        );
                    }
                    for entry in entries {
                        println!("  {}", entry.to_line());
                    }
                }
            },
            "save" => match rest.first() {
                Some(path) => match std::fs::File::create(path)
                    .map_err(foresight::engine::EngineError::from)
                    .and_then(|f| self.engine.session().save(f))
                {
                    Ok(()) => println!("session saved to {path}"),
                    Err(e) => println!("error: {e}"),
                },
                None => println!("usage: save <path>"),
            },
            "load" => match rest.first() {
                Some(path) => match std::fs::File::open(path)
                    .map_err(foresight::engine::EngineError::from)
                    .and_then(Session::load)
                {
                    Ok(s) => {
                        println!(
                            "restored session: {} focused insights, {} events",
                            s.focus.len(),
                            s.history.len()
                        );
                        self.engine.restore_session(s);
                    }
                    Err(e) => println!("error: {e}"),
                },
                None => println!("usage: load <path>"),
            },
            other => println!("unknown command `{other}` (try `help`)"),
        }
        true
    }
}

const REMOTE_HELP: &str = "\
remote commands (session lives on the server):
  columns                      list the served dataset's columns
  top <class> [k]              top-k insights of a class (respects fix/range)
  fix <column name>            constrain queries to tuples containing a column
  range <lo> <hi>              constrain the metric score range
  semantic <tag>               require a semantic tag (currency, year, ...)
  clear                        drop all query constraints
  focus <idx>                  focus result #idx from the last query
  unfocus                      clear the focus set
  carousels [k]                one ranked strip per class (Figure 1)
  profile                      dataset profile (computed server-side)
  mode exact|approx            switch the session's scoring mode
  candidates <strategy>        auto | exhaustive | lsh | lsh:<probes> — the
                               session's candidate-generation knob
  metrics [json|reset]         server metrics: admission control + engine telemetry
  health / alerts              server health verdict / watchdog alert log
  watch [secs]                 stream the server monitor's per-sample rates
  explain <class> [k]          traced query: span tree, provenance, skip reasons
  slowlog                      the server's slow-query log
  staleness / refresh          stream lag of this session's snapshot / adopt head
  save <path> / load <path>    persist / restore the server-side session locally
  help / quit";

/// The same exploration loop, but every command is a wire request to a
/// `foresight-serve` front end; this process holds no engine at all.
struct RemoteRepl {
    client: Client,
    session: u64,
    columns: Vec<String>,
    fixed: Vec<usize>,
    range: Option<(f64, f64)>,
    semantic: Option<String>,
    last: Vec<InsightInstance>,
}

/// Typed server errors print as one line; transport errors end the REPL.
fn report(err: ClientError) -> bool {
    match err {
        ClientError::Server(wire) => {
            println!("server error: {wire}");
            true
        }
        other => {
            eprintln!("connection lost: {other}");
            false
        }
    }
}

impl RemoteRepl {
    fn build_query(&self, class: &str, k: usize) -> InsightQuery {
        let mut q = InsightQuery::class(class).top_k(k);
        for &f in &self.fixed {
            q = q.fix_attr(f);
        }
        if let Some((lo, hi)) = self.range {
            q = q.score_range(lo, hi);
        }
        if let Some(tag) = &self.semantic {
            q = q.require_semantic(tag.clone());
        }
        q
    }

    fn show_results(&self) {
        if self.last.is_empty() {
            println!("(no insights match the current constraints)");
        }
        for (i, inst) in self.last.iter().enumerate() {
            println!("  [{i}] {:.3}  {}", inst.score, inst.detail);
        }
    }

    fn command(&mut self, line: &str) -> bool {
        let mut parts = line.split_whitespace();
        let Some(cmd) = parts.next() else {
            return true;
        };
        let rest: Vec<&str> = parts.collect();
        match cmd {
            "quit" | "exit" => {
                let _ = self.client.close(self.session);
                return false;
            }
            "help" => println!("{REMOTE_HELP}"),
            "columns" => {
                for (i, name) in self.columns.iter().enumerate() {
                    println!("  #{i:<3} {name}");
                }
            }
            "top" => {
                let Some(class) = rest.first() else {
                    println!("usage: top <class> [k]");
                    return true;
                };
                let k = rest.get(1).and_then(|s| s.parse().ok()).unwrap_or(5);
                match self.client.query(self.session, self.build_query(class, k)) {
                    Ok(out) => {
                        self.last = out;
                        self.show_results();
                    }
                    Err(e) => return report(e),
                }
            }
            "fix" => {
                let name = rest.join(" ");
                match self.columns.iter().position(|c| *c == name) {
                    Some(idx) => {
                        self.fixed.push(idx);
                        println!("fixed attribute: {name} (#{idx})");
                    }
                    None => println!("no column named `{name}` (see `columns`)"),
                }
            }
            "range" => {
                match (
                    rest.first().and_then(|s| s.parse().ok()),
                    rest.get(1).and_then(|s| s.parse().ok()),
                ) {
                    (Some(lo), Some(hi)) => {
                        self.range = Some((lo, hi));
                        println!("score range: [{lo}, {hi}]");
                    }
                    _ => println!("usage: range <lo> <hi>"),
                }
            }
            "semantic" => match rest.first() {
                Some(tag) => {
                    self.semantic = Some(tag.to_string());
                    println!("requiring semantic tag: {tag}");
                }
                None => println!("usage: semantic <tag>"),
            },
            "clear" => {
                self.fixed.clear();
                self.range = None;
                self.semantic = None;
                println!("constraints cleared");
            }
            "focus" => {
                let Some(idx) = rest.first().and_then(|s| s.parse::<usize>().ok()) else {
                    println!("usage: focus <idx>");
                    return true;
                };
                match self.last.get(idx).cloned() {
                    Some(inst) => match self.client.focus(self.session, inst.clone()) {
                        Ok(()) => println!("focused: {}", inst.detail),
                        Err(e) => return report(e),
                    },
                    None => println!("no result #{idx}; run `top` first"),
                }
            }
            "unfocus" => match self.client.clear_focus(self.session) {
                Ok(()) => println!("focus cleared"),
                Err(e) => return report(e),
            },
            "carousels" => {
                let k = rest.first().and_then(|s| s.parse().ok()).unwrap_or(3);
                match self.client.carousels(self.session, k) {
                    Ok(cs) => {
                        for c in cs.iter().filter(|c| !c.instances.is_empty()) {
                            println!("── {} ──", c.class_name);
                            for inst in &c.instances {
                                println!("    {:.3}  {}", inst.score, inst.detail);
                            }
                        }
                    }
                    Err(e) => return report(e),
                }
            }
            "profile" => match self.client.profile(self.session) {
                Ok(p) => println!("{}", p.to_text()),
                Err(e) => return report(e),
            },
            "mode" => match rest.first() {
                Some(&"approx") => match self.client.set_mode(self.session, "approximate") {
                    Ok(()) => println!("mode: approximate (sketch-backed)"),
                    Err(e) => return report(e),
                },
                Some(&"exact") => match self.client.set_mode(self.session, "exact") {
                    Ok(()) => println!("mode: exact"),
                    Err(e) => return report(e),
                },
                _ => println!("usage: mode exact|approx"),
            },
            "candidates" => match rest.first() {
                Some(&strategy) => match self.client.set_candidates(self.session, strategy) {
                    Ok(applied) => println!("candidates: {applied}"),
                    Err(e) => return report(e),
                },
                None => println!("usage: candidates auto|exhaustive|lsh|lsh:<probes>"),
            },
            "metrics" => match rest.first() {
                Some(&"json") => match self.client.metrics() {
                    Ok(snapshot) => println!("{}", snapshot.to_json()),
                    Err(e) => return report(e),
                },
                Some(&"reset") => match self.client.reset_metrics() {
                    Ok(()) => {
                        println!("server telemetry counters reset (monitor marked a discontinuity)")
                    }
                    Err(e) => return report(e),
                },
                None => match self.client.metrics() {
                    Ok(snapshot) => print!("{}", snapshot.to_text()),
                    Err(e) => return report(e),
                },
                Some(other) => {
                    println!("unknown metrics subcommand `{other}` (usage: metrics [json|reset])")
                }
            },
            "health" => match self.client.health() {
                Ok(state) => print_health(&state),
                Err(e) => return report(e),
            },
            "alerts" => match self.client.alerts() {
                Ok(events) => print_alerts(&events),
                Err(e) => return report(e),
            },
            "watch" => {
                let secs: u64 = rest.first().and_then(|s| s.parse().ok()).unwrap_or(5);
                println!("watching the server monitor for {secs} s…");
                let deadline = Instant::now() + Duration::from_secs(secs);
                let mut last_seq = 0u64;
                while Instant::now() < deadline {
                    match self.client.metrics_history(1) {
                        Ok(samples) => {
                            if let Some(sample) = samples.last() {
                                if sample.seq != last_seq {
                                    last_seq = sample.seq;
                                    println!("{}", sample_line(sample));
                                }
                            }
                        }
                        Err(e) => return report(e),
                    }
                    std::thread::sleep(Duration::from_millis(250));
                }
            }
            "explain" => {
                let Some(class) = rest.first() else {
                    println!("usage: explain <class> [k]");
                    return true;
                };
                let k = rest.get(1).and_then(|s| s.parse().ok()).unwrap_or(5);
                match self
                    .client
                    .explain(self.session, self.build_query(class, k))
                {
                    Ok((results, trace)) => {
                        self.last = results;
                        if let Some(trace) = trace {
                            print!("{}", trace.to_text());
                        }
                        self.show_results();
                    }
                    Err(e) => return report(e),
                }
            }
            "slowlog" => match self.client.slowlog() {
                Ok(lines) if lines.is_empty() => {
                    println!("(server slow-query log is empty)")
                }
                Ok(lines) => {
                    for entry in lines {
                        println!("  {entry}");
                    }
                }
                Err(e) => return report(e),
            },
            "staleness" => match self.client.staleness(self.session) {
                Ok(s) => println!(
                    "snapshot: epoch {}, {} rows; ingest head {} rows ({} behind), age {:.1}s",
                    s.epoch,
                    s.snapshot_rows,
                    s.head_rows,
                    s.rows_behind,
                    s.age_ns as f64 / 1e9
                ),
                Err(e) => return report(e),
            },
            "refresh" => match self.client.refresh(self.session) {
                Ok(true) => println!("adopted the newest published snapshot"),
                Ok(false) => println!("already at the newest snapshot"),
                Err(e) => return report(e),
            },
            "save" => match rest.first() {
                Some(path) => match self.client.save(self.session) {
                    Ok(state) => match std::fs::write(path, state) {
                        Ok(()) => println!("server session saved to {path}"),
                        Err(e) => println!("error: {e}"),
                    },
                    Err(e) => return report(e),
                },
                None => println!("usage: save <path>"),
            },
            "load" => match rest.first() {
                Some(path) => match std::fs::read_to_string(path) {
                    Ok(state) => match self.client.restore(self.session, state) {
                        Ok(()) => println!("session restored into the server"),
                        Err(e) => return report(e),
                    },
                    Err(e) => println!("error: {e}"),
                },
                None => println!("usage: load <path>"),
            },
            other => println!("unknown command `{other}` (try `help`)"),
        }
        true
    }
}

/// Connects to a `foresight-serve` front end and runs the remote REPL.
fn run_remote(addr: &str) {
    let mut client = match Client::connect(addr) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("cannot connect to {addr}: {e}");
            std::process::exit(1);
        }
    };
    let hello = client.hello().expect("hello");
    println!(
        "Foresight explorer — connected to {} at {addr} (protocol v{})",
        hello.server, hello.protocol
    );
    println!(
        "serving `{}`: {} rows × {} columns, {} mode{} (type `help`)",
        hello.dataset,
        hello.rows,
        hello.cols,
        hello.mode,
        if hello.streaming { ", streaming" } else { "" }
    );
    println!("server build v{}, {} kernel", hello.version, hello.kernel);
    let session = client.open().expect("open session");
    let mut repl = RemoteRepl {
        client,
        session,
        columns: hello.columns,
        fixed: Vec::new(),
        range: None,
        semantic: None,
        last: Vec::new(),
    };
    let stdin = io::stdin();
    loop {
        print!("foresight:{}> ", hello.dataset);
        io::stdout().flush().expect("stdout");
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {
                if !repl.command(line.trim()) {
                    break;
                }
            }
            Err(e) => {
                eprintln!("input error: {e}");
                break;
            }
        }
    }
}

fn load_table(arg: Option<&str>) -> Table {
    match arg {
        None | Some("oecd") => datasets::oecd(),
        Some("imdb") => datasets::imdb(),
        Some("parkinson") => datasets::parkinson(),
        Some(path) => read_csv(path, &InferOptions::default())
            .unwrap_or_else(|e| panic!("cannot read {path}: {e}")),
    }
}

fn main() {
    let arg = std::env::args().nth(1);
    if arg.as_deref() == Some("connect") {
        let Some(addr) = std::env::args().nth(2) else {
            eprintln!("usage: explorer connect <host:port>");
            std::process::exit(2);
        };
        run_remote(&addr);
        return;
    }
    let table = load_table(arg.as_deref());
    println!(
        "Foresight explorer — `{}`: {} rows × {} columns (type `help`)",
        table.name(),
        table.n_rows(),
        table.n_cols()
    );
    let mut repl = Repl {
        engine: Foresight::new(table),
        fixed: Vec::new(),
        range: None,
        semantic: None,
        last: Vec::new(),
        monitor: None,
    };
    let stdin = io::stdin();
    loop {
        print!("foresight> ");
        io::stdout().flush().expect("stdout");
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {
                if !repl.command(line.trim()) {
                    break;
                }
            }
            Err(e) => {
                eprintln!("input error: {e}");
                break;
            }
        }
    }
}
