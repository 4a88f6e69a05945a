//! `explore_wide` — two threads of analysts exploring one wide table in
//! process. At 256 numeric columns `Auto` resolves to LSH candidates;
//! 15 % of pairwise-class queries switch their session to the exhaustive
//! scan first (32 640 cached tuples looked up and ranked), so a gain for
//! one candidate path that costs the other shows. The median op is an
//! `Auto` query, the tail is the scan. Stresses candidates, LSH, the
//! sharded score cache and ranking under two-thread contention; serve
//! does nothing, and there is no profile (on a table this wide its first
//! call takes tens of seconds and belongs to `cold_open`).
//!
//! The table is wide, not long: what the window measures is looking up
//! and ranking cached tuples, which does not depend on the row count,
//! while filling the cache does (the cold exhaustive scans alone take
//! 3.3 s at 10 000 rows). Filling it is set-up here and every run sets up
//! several times, so the rows are few; the sketches keep the width a
//! 10 000-row table would get, so LSH has its 20 tables.

use super::{lane_spans, run_lanes, CacheCounters, Checks, Window, Workload, LANES};
use crate::backend::{fail, transcript, Backend, InProcess, Lane, OpResult, Source};
use crate::rng::Rng;
use crate::script::{probe_script, Candidates, ScriptOptions, Vocabulary};
use crate::spans::{Recorder, Span};
use foresight_data::datasets::{synth, SynthConfig};
use foresight_data::{Table, TableSource};
use foresight_engine::{CoreBuilder, EngineCore, InsightQuery};
use foresight_sketch::{CatalogConfig, HyperplaneConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const ROWS: usize = 2_000;
pub const NUMERIC: usize = 256;
/// The row count the hyperplane width is sized for.
const SKETCH_ROWS: usize = 10_000;
/// The share of the scan's top 10 linear relationships `Auto` was
/// expected to find. Below it a run reports a finding, not a failure:
/// the ten strongest pairs of these tables have |ρ| from about 0.8 to
/// 0.95, and 16-bit bands in 20 tables find a pair of |ρ| 0.85 six times
/// in ten.
const RECALL_EXPECTED: f64 = 0.9;
/// Live sessions per thread.
pub const SESSIONS: usize = 32;
/// Share of pairwise-class queries that run the exhaustive scan.
pub const EXHAUSTIVE_SHARE: f64 = 0.15;

pub const OPTIONS: ScriptOptions = ScriptOptions {
    profile: false,
    exhaustive_share: Some(EXHAUSTIVE_SHARE),
};

/// The sketch config of the wide core: the default, at the hyperplane
/// width of a [`SKETCH_ROWS`]-row table.
pub fn catalog_config() -> CatalogConfig {
    let config = CatalogConfig::default();
    CatalogConfig {
        hyperplane_k: Some(HyperplaneConfig::for_rows(SKETCH_ROWS, config.seed).k),
        ..config
    }
}

/// The wide table, preprocessed but not indexed — queries go through
/// candidate generation and the score cache — with the cache filled, so
/// that no op in the window pays a cold scan or a first description:
/// first carousels, then one query per pairwise class and every
/// fixed-attribute query the script can draw, on either candidate path.
/// Most of the cost is the alternative metric, scored over raw rows for
/// all 32 640 pairs.
pub fn wide_core(seed: u64) -> OpResult<(Table, Arc<EngineCore>, Vocabulary)> {
    let (table, _) = synth(&SynthConfig::benchmark(ROWS, NUMERIC, seed));
    let mut builder = CoreBuilder::new(TableSource::materialized(table.clone()));
    builder
        .preprocess(&catalog_config())
        .map_err(fail("preprocess"))?;
    let core = builder.freeze();
    let vocab = Vocabulary::of(&core, &table);
    let mut rec = Recorder::off();
    let mut backend = InProcess::new(Arc::clone(&core), 1);
    backend.open(0, &mut rec)?;
    backend.carousels(0, &mut rec)?;
    let classes = vocab.pairwise.iter().map(|&class| &vocab.classes[class]);
    let mut queries: Vec<_> = classes.map(InsightQuery::class).collect();
    for &attr in &vocab.numeric_cols {
        queries.extend(vocab.fixed_attr_queries(attr));
    }
    for candidates in [Candidates::Exhaustive, Candidates::Auto] {
        backend.set_candidates(0, candidates, &mut rec)?;
        for query in &queries {
            backend.query(0, query, &mut rec)?;
        }
    }
    Ok((table, core, vocab))
}

/// The top-`k` linear relationships under `Auto` (LSH candidates on a
/// table this wide) held against the exhaustive scan: the share of the
/// scan's top `k` that `Auto` also returns, and whether every instance
/// `Auto` returns is the one the scan computes for the same pair.
pub fn auto_against_scan(core: &Arc<EngineCore>, k: usize) -> OpResult<(f64, bool)> {
    let mut backend = InProcess::new(Arc::clone(core), 1);
    let mut rec = Recorder::off();
    let query = InsightQuery::class("linear-relationship").top_k(k);
    backend.open(0, &mut rec)?;
    backend.set_candidates(0, Candidates::Auto, &mut rec)?;
    let auto = backend.query(0, &query, &mut rec)?;
    backend.set_candidates(0, Candidates::Exhaustive, &mut rec)?;
    let scan = backend.query(0, &query, &mut rec)?;
    let found = scan
        .iter()
        .filter(|e| auto.iter().any(|a| a.attrs == e.attrs))
        .count();
    let mut precise = !auto.is_empty();
    for instance in &auto {
        let pinned = instance.attrs.indices().into_iter().fold(
            InsightQuery::class("linear-relationship"),
            InsightQuery::fix_attr,
        );
        precise &= backend.query(0, &pinned, &mut rec)?.first() == Some(instance);
    }
    Ok((found as f64 / scan.len().max(1) as f64, precise))
}

pub struct ExploreWide {
    core: Arc<EngineCore>,
    vocab: Vocabulary,
    lanes: Vec<(Lane<InProcess>, Recorder)>,
}

impl Workload for ExploreWide {
    const NAME: &'static str = "explore_wide";

    fn setup(seed: u64, _seconds: f64) -> OpResult<Self> {
        let (_, core, vocab) = wide_core(seed)?;
        let origin = Instant::now();
        let rng = Rng::new(seed);
        let mut lanes = Vec::with_capacity(LANES);
        for lane in 0..LANES {
            let mut lane = Lane::new(
                InProcess::new(Arc::clone(&core), SESSIONS),
                vocab.clone(),
                Source::Sessions(OPTIONS),
                rng.fork(lane as u64),
                SESSIONS,
            );
            lane.open_all()?;
            lanes.push((lane, Recorder::new(origin, false)));
        }
        Ok(Self { core, vocab, lanes })
    }

    fn run(&mut self, duration: Duration, traced: bool) -> Window {
        run_lanes(&mut self.lanes, duration, traced)
    }

    fn cache_counters(&self) -> CacheCounters {
        self.core.cache_stats().into()
    }

    fn lanes(&self) -> Vec<(String, &[Span])> {
        lane_spans(&self.lanes)
    }

    fn finish(self) -> Checks {
        let mut checks = Checks::default();
        if let Some((recall, precise)) =
            checks.expect_ok("auto against the scan", auto_against_scan(&self.core, 10))
        {
            checks.expect(precise, || {
                "an Auto result differs from the scan's instance for the same pair".to_owned()
            });
            checks.expect(recall > 0.0, || {
                "Auto finds none of the scan's top 10 linear relationships".to_owned()
            });
            if recall < RECALL_EXPECTED {
                checks.findings.push(format!(
                    "Auto top-10 linear recall vs the scan is {recall:.2}, below {RECALL_EXPECTED}"
                ));
            }
        }
        // both threads must get the same answers to the same probe
        let steps = probe_script(&self.vocab, true);
        let transcripts: Vec<_> = std::thread::scope(|scope| {
            let threads: Vec<_> = (0..LANES)
                .map(|_| {
                    scope.spawn(|| {
                        transcript(&mut InProcess::new(Arc::clone(&self.core), 1), &steps)
                    })
                })
                .collect();
            threads
                .into_iter()
                .map(|t| t.join().expect("probe thread panicked"))
                .collect()
        });
        let answers: Vec<_> = transcripts
            .into_iter()
            .filter_map(|t| checks.expect_ok("probe", t))
            .collect();
        if let [a, b] = answers.as_slice() {
            checks.expect(a == b, || {
                "the two threads got different answers".to_owned()
            });
        }
        checks
    }
}
