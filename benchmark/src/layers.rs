//! The layer probes of the traced run: each layer's public functions,
//! called directly on the four workloads' own inputs, one crate at a
//! time. Every traced run executes the whole suite, whatever workload it
//! was asked for, so every per-layer metric has a value in every traced
//! result; the README says which end-to-end metric each should move.
//!
//! A probe reports the median of repeated calls, or a count that must
//! repeat exactly.

use crate::backend::{fail, Backend, InProcess, Lane, OpResult, Source, Tally};
use crate::measure::median;
use crate::rng::Rng;
use crate::script::{session_script, Candidates, Kind, Step, CAROUSEL_WIDTH};
use crate::spans::{durations_of, Recorder, ROOT};
use crate::workloads::{cold_open, explore_wide, run_lanes, stream_mixed, wire_oecd, Workload};
use foresight_data::csv::{read_csv_str, write_csv_string};
use foresight_data::datasets::{synth, SynthConfig};
use foresight_data::infer::InferOptions;
use foresight_data::Table;
use foresight_engine::{CoreBuilder, InsightQuery};
use foresight_insight::InsightClass;
use foresight_serve::{Client, Command, Reply, Request, Response};
use foresight_sketch::{
    CatalogConfig, EntropySketch, HyperplaneConfig, KllSketch, LshIndex, Mergeable, Reservoir,
    SharedHyperplanes, SketchCatalog, SpaceSaving,
};
use foresight_stats::correlation::pearson_complete;
use foresight_stats::moments::Moments;
use foresight_stats::rank::fractional_ranks;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub type Values = BTreeMap<String, f64>;

const MS: f64 = 1e6;
const US: f64 = 1e3;

/// Calls `f` until `budget` is spent (at least 3 times, at most `max`)
/// and returns the median call time in nanoseconds.
fn median_ns<T>(budget: Duration, max: usize, mut f: impl FnMut() -> T) -> f64 {
    let started = Instant::now();
    let mut times = Vec::new();
    while times.len() < 3 || (times.len() < max && started.elapsed() < budget) {
        let t0 = Instant::now();
        black_box(f());
        times.push(t0.elapsed().as_nanos() as u64);
    }
    median(times)
}

fn numeric_columns(table: &Table) -> Vec<&[f64]> {
    table
        .numeric_indices()
        .into_iter()
        .map(|i| table.numeric(i).expect("index from schema").values())
        .collect()
}

/// Exact per-label counts of each categorical column — what the catalog
/// feeds its frequency and entropy sketches as weighted inserts.
fn label_counts(table: &Table) -> Vec<Vec<(&str, u64)>> {
    table
        .categorical_indices()
        .into_iter()
        .map(|i| {
            let col = table.categorical(i).expect("index from schema");
            let mut counts = vec![0u64; col.cardinality()];
            for code in col.present_codes() {
                counts[code as usize] += 1;
            }
            col.labels()
                .iter()
                .map(String::as_str)
                .zip(counts)
                .filter(|(_, c)| *c > 0)
                .collect()
        })
        .collect()
}

/// data, stats, sketch families, insight classes, the engine's cold path
/// and viz, on the `cold_open` table.
fn cold_table(seed: u64, out: &mut Values) -> OpResult<()> {
    let (table, _) = synth(&SynthConfig::benchmark(
        cold_open::ROWS,
        cold_open::NUMERIC,
        seed,
    ));
    let text = write_csv_string(&table).map_err(fail("write_csv_string"))?;
    let quick = Duration::from_millis(60);
    let slow = Duration::from_millis(250);

    let parse_ns = median_ns(slow, 8, || {
        read_csv_str(&text, "cold", &InferOptions::default())
    });
    out.insert("data.csv_parse_ms".into(), parse_ns / MS);
    out.insert(
        "data.csv_mb_per_s".into(),
        text.len() as f64 / 1e6 / (parse_ns / 1e9),
    );

    let cols = numeric_columns(&table);
    out.insert(
        "stats.moments_ms".into(),
        median_ns(quick, 200, || {
            cols.iter()
                .map(|c| Moments::from_slice(c).mean())
                .sum::<f64>()
        }) / MS,
    );
    out.insert(
        "stats.pearson_pairs_ms".into(),
        median_ns(quick, 50, || {
            let mut acc = 0.0;
            for (i, a) in cols.iter().enumerate() {
                for b in &cols[i + 1..] {
                    acc += pearson_complete(a, b);
                }
            }
            acc
        }) / MS,
    );
    out.insert(
        "stats.rank_transform_ms".into(),
        median_ns(quick, 20, || {
            cols.iter()
                .map(|c| fractional_ranks(c).len())
                .sum::<usize>()
        }) / MS,
    );

    let config = CatalogConfig::default();
    out.insert(
        "sketch.catalog_build_ms".into(),
        median_ns(slow, 8, || SketchCatalog::build(&table, &config)) / MS,
    );
    let catalog = SketchCatalog::build(&table, &config);
    out.insert("sketch.catalog_bytes".into(), catalog.approx_bytes() as f64);
    out.insert(
        "sketch.hyperplane_build_ms".into(),
        median_ns(quick, 20, || {
            let planes =
                SharedHyperplanes::new(HyperplaneConfig::for_rows(table.n_rows(), config.seed));
            planes
                .accumulate_columns(&cols, 0)
                .iter()
                .map(|acc| acc.finalize().k())
                .sum::<usize>()
        }) / MS,
    );
    out.insert(
        "sketch.kll_build_ms".into(),
        median_ns(quick, 20, || {
            cols.iter()
                .map(|col| {
                    let mut sketch = KllSketch::new(config.kll_k);
                    col.iter().for_each(|&v| sketch.insert(v));
                    sketch.retained()
                })
                .sum::<usize>()
        }) / MS,
    );
    out.insert(
        "sketch.reservoir_build_ms".into(),
        median_ns(quick, 20, || {
            cols.iter()
                .enumerate()
                .map(|(i, col)| {
                    let mut sample = Reservoir::new(config.reservoir, config.seed ^ i as u64);
                    col.iter().for_each(|&v| sample.insert(v));
                    sample.sample().len()
                })
                .sum::<usize>()
        }) / MS,
    );
    let labels = label_counts(&table);
    out.insert(
        "sketch.freq_build_ms".into(),
        median_ns(quick, 200, || {
            labels
                .iter()
                .map(|counts| {
                    let mut heavy = SpaceSaving::new(config.freq_counters);
                    counts
                        .iter()
                        .for_each(|(l, c)| heavy.insert_weighted(l, *c));
                    heavy.capacity()
                })
                .sum::<usize>()
        }) / MS,
    );
    out.insert(
        "sketch.entropy_build_ms".into(),
        median_ns(quick, 200, || {
            labels
                .iter()
                .map(|counts| {
                    let mut entropy = EntropySketch::new(config.entropy_k, config.seed);
                    counts
                        .iter()
                        .for_each(|(l, c)| entropy.insert_weighted(l, *c));
                    entropy.estimate()
                })
                .sum::<f64>()
        }) / MS,
    );
    let numeric = table.numeric_indices();
    out.insert(
        "sketch.corr_matrix_ms".into(),
        median_ns(quick, 200, || catalog.correlation_matrix(&numeric)) / MS,
    );

    // the cold path itself, under the recorder: the spans of `cold_pass`
    // are the engine and viz probes
    let mut rec = Recorder::new(Instant::now(), true);
    let mut last = None;
    for _ in 0..3 {
        rec.next_request();
        last = Some(rec.span(ROOT, |rec| cold_open::cold_pass(&text, rec))?);
    }
    let pass = last.expect("three passes ran");
    for (span, metric) in [
        ("engine.build_index", "engine.index_build_ms"),
        ("engine.freeze", "engine.freeze_ms"),
        ("engine.carousels", "engine.first_carousels_ms"),
        ("engine.profile", "engine.profile_cold_ms"),
        ("viz.chart_spec", "viz.chart_spec_ms"),
        ("viz.vega_emit", "viz.vega_emit_ms"),
    ] {
        out.insert(metric.into(), median(durations_of(rec.spans(), span)) / MS);
    }
    out.insert("viz.vega_bytes".into(), pass.vega_bytes as f64);

    // per class: exact score, sketch score and description of one tuple;
    // the tuples of all classes are what an index build has to score
    let mut candidates = 0usize;
    for class in pass.core.registry().classes() {
        candidates += class.candidates(&table).len();
        probe_class(class.as_ref(), &table, &catalog, out);
    }
    out.insert("engine.index_candidates".into(), candidates as f64);
    Ok(())
}

fn probe_class(class: &dyn InsightClass, table: &Table, catalog: &SketchCatalog, out: &mut Values) {
    let budget = Duration::from_millis(20);
    let candidates = class.candidates(table);
    let id = class.id();
    if candidates.is_empty() {
        for what in ["score_exact_us", "score_sketch_us", "describe_us"] {
            out.insert(format!("insight.{what}.{id}"), 0.0);
        }
        return;
    }
    let mut next = candidates.iter().cycle();
    let mut scored = Vec::new();
    let exact = median_ns(budget, 64, || {
        let attrs = next.next().expect("cycle never ends");
        let score = class.score(table, attrs);
        if let Some(score) = score {
            scored.push((*attrs, score));
        }
        score
    });
    out.insert(format!("insight.score_exact_us.{id}"), exact / US);
    let mut next = candidates.iter().cycle();
    let sketch = median_ns(budget, 64, || {
        class.score_sketch(catalog, table, next.next().expect("cycle never ends"))
    });
    out.insert(format!("insight.score_sketch_us.{id}"), sketch / US);
    let describe = if scored.is_empty() {
        0.0
    } else {
        let mut next = scored.iter().cycle();
        median_ns(budget, 64, || {
            let (attrs, score) = next.next().expect("cycle never ends");
            class.describe(table, attrs, *score)
        })
    };
    out.insert(format!("insight.describe_us.{id}"), describe / US);
}

/// Median latency of the ops of `kind` in a tally, in microseconds.
fn kind_us(tally: &Tally, pick: impl Fn(Kind) -> bool) -> f64 {
    median(
        tally
            .ops
            .iter()
            .filter(|s| pick(s.kind))
            .map(|s| s.ns)
            .collect(),
    ) / US
}

/// serve, and the engine under the session script, on the OECD core: the
/// `wire_oecd` load over its two loopback connections, then the same
/// scripts on in-process handles.
fn oecd_wire(seed: u64, out: &mut Values) -> OpResult<()> {
    let mut workload = wire_oecd::WireOecd::setup(seed, 0.0)?;
    let addr = workload.server.addr();
    let mut other_calls = 0u64;

    out.insert(
        "serve.connect_us".into(),
        median_ns(Duration::from_millis(50), 20, || {
            Client::connect(addr).expect("connect")
        }) / US,
    );
    let mut client = Client::connect(addr).map_err(fail("connect"))?;
    out.insert(
        "serve.hello_rtt_us".into(),
        median_ns(Duration::from_millis(100), 500, || {
            other_calls += 1;
            client.hello().expect("hello")
        }) / US,
    );
    drop(client);

    workload.run(Duration::from_millis(300), false);
    let wire = workload.run(Duration::from_millis(1_000), false).tally;
    let mut lanes = wire_oecd::local_lanes(&workload.core, &workload.vocab, seed)?;
    let local = run_lanes(&mut lanes, Duration::from_millis(300), false).tally;
    if wire.failed + local.failed > 0 {
        return Err(format!(
            "script replay failed: {:?} {:?}",
            wire.errors, local.errors
        ));
    }
    for kind in [
        Kind::TopK,
        Kind::Fix,
        Kind::Range,
        Kind::Diversify,
        Kind::Alt,
        Kind::Carousels,
        Kind::Focus,
        Kind::Profile,
        Kind::Save,
    ] {
        out.insert(
            format!("engine.op_us.{}", kind.name()),
            kind_us(&local, |k| k == kind),
        );
    }
    out.insert(
        "engine.save_bytes".into(),
        median(local.save_bytes.iter().map(|&b| b as u64).collect()),
    );
    out.insert("serve.open_us".into(), kind_us(&wire, |k| k == Kind::Open));
    out.insert(
        "serve.close_us".into(),
        kind_us(&wire, |k| k == Kind::Close),
    );
    out.insert(
        "serve.overhead_us.query".into(),
        kind_us(&wire, Kind::is_query) - kind_us(&local, Kind::is_query),
    );
    out.insert(
        "serve.overhead_us.carousels".into(),
        kind_us(&wire, |k| k == Kind::Carousels) - kind_us(&local, |k| k == Kind::Carousels),
    );

    // the protocol's own cost: encoding requests, decoding replies
    let mut rng = Rng::new(seed);
    let mut rec = Recorder::off();
    let mut handle = InProcess::new(Arc::clone(&workload.core), 1);
    handle.open(0, &mut rec)?;
    let (mut encode_ns, mut request_bytes) = (Vec::new(), Vec::new());
    let (mut decode_ns, mut reply_bytes, mut carousel_bytes) = (Vec::new(), Vec::new(), Vec::new());
    for (id, step) in (0..6)
        .flat_map(|_| session_script(&workload.vocab, wire_oecd::OPTIONS, &mut rng))
        .enumerate()
    {
        let (cmd, reply) = match &step {
            Step::Query { query, .. } => (
                Command::Query(query.clone()),
                Reply::Results(handle.query(0, query, &mut rec)?),
            ),
            Step::Carousels => (
                Command::Carousels {
                    per_class: CAROUSEL_WIDTH,
                },
                Reply::Carousels(handle.carousels(0, &mut rec)?),
            ),
            _ => continue,
        };
        let request = Request {
            id: id as u64,
            session: Some(1),
            cmd,
        };
        let t0 = Instant::now();
        let line = serde_json::to_string(&request).map_err(fail("encode"))?;
        encode_ns.push(t0.elapsed().as_nanos() as u64);
        request_bytes.push(line.len() as u64);
        let line =
            serde_json::to_string(&Response::ok(id as u64, reply)).map_err(fail("encode reply"))?;
        let t0 = Instant::now();
        black_box(serde_json::from_str::<Response>(&line).map_err(fail("decode"))?);
        decode_ns.push(t0.elapsed().as_nanos() as u64);
        reply_bytes.push(line.len() as u64);
        if step == Step::Carousels {
            carousel_bytes.push(line.len() as u64);
        }
    }
    out.insert("serve.encode_request_us".into(), median(encode_ns) / US);
    out.insert("serve.decode_response_us".into(), median(decode_ns) / US);
    out.insert("serve.request_bytes_p50".into(), median(request_bytes));
    out.insert("serve.reply_bytes_p50".into(), median(reply_bytes));
    out.insert("serve.reply_bytes_carousels".into(), median(carousel_bytes));

    // the server's always-on counters must equal the clients' own counts
    let counts = workload.serve_counts(other_calls)?;
    out.insert("serve.requests".into(), counts.requests as f64);
    out.insert("serve.load_shed".into(), counts.load_shed as f64);
    out.insert("serve.errors".into(), counts.errors as f64);
    out.insert(
        "serve.sessions_created".into(),
        counts.sessions_created as f64,
    );
    workload.teardown();
    Ok(())
}

/// LSH and the two candidate paths, on the `explore_wide` table.
fn wide_table(seed: u64, out: &mut Values) -> OpResult<()> {
    let (table, core, vocab) = explore_wide::wide_core(seed)?;
    let catalog = SketchCatalog::build(&table, &explore_wide::catalog_config());
    let quick = Duration::from_millis(100);
    out.insert(
        "sketch.lsh_build_ms".into(),
        median_ns(quick, 20, || LshIndex::build(&catalog)) / MS,
    );
    let lsh = LshIndex::build(&catalog).ok_or("the wide catalog has no LSH plan")?;
    out.insert("sketch.lsh_bytes".into(), lsh.size_bytes() as f64);
    out.insert(
        "sketch.lsh_candidates_us".into(),
        median_ns(quick, 50, || lsh.candidate_pairs(usize::MAX)) / US,
    );
    let (pairs, _) = lsh.candidate_pairs(usize::MAX);
    out.insert("sketch.lsh_pairs".into(), pairs.len() as f64);
    out.insert(
        "engine.candidates_per_query_auto".into(),
        pairs.len() as f64,
    );
    let scan = core
        .registry()
        .classes()
        .iter()
        .find(|c| c.id() == "linear-relationship")
        .map_or(0, |c| c.candidates(&table).len());
    out.insert("engine.candidates_per_query_exhaustive".into(), scan as f64);
    let (recall, _) = explore_wide::auto_against_scan(&core, 10)?;
    out.insert("engine.auto_recall_top10".into(), recall);

    // the session script on one thread: the single-thread base that
    // `explore_wide`'s two contending threads compare against
    let mut lane = Lane::new(
        InProcess::new(Arc::clone(&core), explore_wide::SESSIONS),
        vocab,
        Source::Sessions(explore_wide::OPTIONS),
        Rng::new(seed),
        explore_wide::SESSIONS,
    );
    lane.open_all()?;
    let mut rec = Recorder::off();
    let mut tally = Tally::starting(Instant::now());
    lane.run_until(
        Instant::now() + Duration::from_millis(1_200),
        &mut rec,
        &mut tally,
    );
    if tally.failed > 0 {
        return Err(format!("wide replay failed: {:?}", tally.errors));
    }
    for (candidates, metric) in [
        (Candidates::Auto, "engine.op_us.pair_auto"),
        (Candidates::Exhaustive, "engine.op_us.pair_exhaustive"),
    ] {
        let ns = tally
            .ops
            .iter()
            .filter(|s| s.candidates == Some(candidates))
            .map(|s| s.ns)
            .collect();
        out.insert(metric.into(), median(ns) / US);
    }
    Ok(())
}

/// The writer path piece by piece, on the `stream_mixed` table.
fn stream_table(seed: u64, out: &mut Values) -> OpResult<()> {
    const BATCHES: usize = 8;
    let (head, tail) = stream_mixed::seed_and_batches(seed, 2 * BATCHES);
    let config = stream_mixed::catalog_config();

    // sketch: one batch's shard catalog, and merging it into the seed's
    let base = SketchCatalog::build(&head, &config);
    let mut offset = head.n_rows() as u64;
    let (mut build_ns, mut merge_ns) = (Vec::new(), Vec::new());
    for batch in &tail[..BATCHES] {
        let t0 = Instant::now();
        let shard = SketchCatalog::build_shard(batch, &config, offset);
        build_ns.push(t0.elapsed().as_nanos() as u64);
        let mut merged = base.clone();
        let t0 = Instant::now();
        merged.merge(&shard).map_err(fail("merge"))?;
        merge_ns.push(t0.elapsed().as_nanos() as u64);
        black_box(merged);
        offset += batch.n_rows() as u64;
    }
    out.insert("sketch.shard_build_ms".into(), median(build_ns) / MS);
    out.insert("sketch.merge_ms".into(), median(merge_ns) / MS);

    // engine: the serial republish, from_arc → append_shard → freeze
    let mut core = stream_mixed::sharded_core(vec![head])?;
    let (mut append_ns, mut freeze_ns) = (Vec::new(), Vec::new());
    for batch in &tail[..BATCHES] {
        let mut builder = CoreBuilder::from_arc(core);
        let t0 = Instant::now();
        builder
            .append_shard(batch.clone())
            .map_err(fail("append_shard"))?;
        append_ns.push(t0.elapsed().as_nanos() as u64);
        let t0 = Instant::now();
        core = builder.freeze();
        freeze_ns.push(t0.elapsed().as_nanos() as u64);
    }
    out.insert("engine.append_shard_ms".into(), median(append_ns) / MS);
    out.insert("engine.republish_freeze_ms".into(), median(freeze_ns) / MS);

    // engine: adopting a publish, the first query after it, and the same
    // query once the new snapshot is warm
    let writer = stream_mixed::spawn_writer(core);
    let published = writer.published();
    let mut handle = published.latest().handle();
    handle.bind_stream(published);
    let query = InsightQuery::class("linear-relationship").top_k(5);
    let (mut adopt_ns, mut post_ns, mut steady_ns) = (Vec::new(), Vec::new(), Vec::new());
    for batch in &tail[BATCHES..] {
        writer
            .send(batch.clone())
            .and_then(|()| writer.flush())
            .map_err(fail("publish"))?;
        let t0 = Instant::now();
        let moved = handle.refresh();
        adopt_ns.push(t0.elapsed().as_nanos() as u64);
        if !moved {
            return Err("refresh after a publish adopted nothing".to_owned());
        }
        let t0 = Instant::now();
        black_box(handle.query(&query).map_err(fail("query"))?);
        post_ns.push(t0.elapsed().as_nanos() as u64);
        for _ in 0..20 {
            let t0 = Instant::now();
            black_box(handle.query(&query).map_err(fail("query"))?);
            steady_ns.push(t0.elapsed().as_nanos() as u64);
        }
    }
    drop(handle);
    writer.finish().map_err(fail("finish"))?;
    out.insert("engine.adopt_us".into(), median(adopt_ns) / US);
    out.insert("engine.post_publish_query_us".into(), median(post_ns) / US);
    out.insert("engine.steady_query_us".into(), median(steady_ns) / US);
    Ok(())
}

/// Runs every probe. Inputs derive from `seed` exactly as the workloads'
/// own do.
pub fn run(seed: u64) -> OpResult<Values> {
    let mut out = Values::new();
    type Probe = fn(u64, &mut Values) -> OpResult<()>;
    let probes: [(&str, Probe); 4] = [
        ("cold table", cold_table),
        ("oecd wire", oecd_wire),
        ("wide table", wide_table),
        ("stream table", stream_table),
    ];
    for (name, probe) in probes {
        let t0 = Instant::now();
        probe(seed, &mut out).map_err(|e| format!("{name} probes: {e}"))?;
        eprintln!("# {name} probes took {:.2} s", t0.elapsed().as_secs_f64());
    }
    Ok(out)
}
