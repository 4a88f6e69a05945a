//! Concurrency invariants of the core/handle split: sessions never leak
//! into each other, and N threads hammering one shared core through the
//! shared score cache return results bit-identical to serial execution.

use foresight_data::{datasets, TableBuilder, TableSource};
use foresight_engine::{CoreBuilder, EngineCore, InsightQuery, Mode};
use foresight_insight::InsightInstance;
use foresight_sketch::CatalogConfig;
use proptest::prelude::*;
use std::sync::Arc;

const THREADS: usize = 8;

/// `query` under the snapshot's published defaults.
fn run(core: &EngineCore, query: &InsightQuery) -> Vec<InsightInstance> {
    core.run(query, &core.options()).unwrap().results
}

fn synth_table(cols: usize, rows: usize, seed: u64) -> foresight_data::Table {
    let mut builder = TableBuilder::new("synthetic");
    for c in 0..cols {
        let values: Vec<f64> = (0..rows)
            .map(|r| {
                let x = (r as u64)
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(seed + c as u64);
                (x >> 33) as f64 / 1e9 + if c % 2 == 0 { r as f64 } else { 0.0 }
            })
            .collect();
        builder = builder.numeric(format!("col{c}"), values);
    }
    builder.build().expect("valid")
}

/// One user's random workload as (class index, top-k) pairs.
fn queries_for(core: &EngineCore, workload: &[(usize, usize)]) -> Vec<InsightQuery> {
    let classes = core.registry().classes();
    workload
        .iter()
        .map(|&(class, k)| InsightQuery::class(classes[class % classes.len()].id()).top_k(k))
        .collect()
}

/// Runs every user's workload serially on fresh handles, then again on
/// `THREADS` OS threads (one handle each), and demands bit-identical
/// results *and* histories.
fn assert_parallel_matches_serial(core: &Arc<EngineCore>, workloads: &[Vec<(usize, usize)>]) {
    let serial: Vec<Vec<Vec<InsightInstance>>> = workloads
        .iter()
        .map(|w| {
            let mut handle = core.handle();
            queries_for(core, w)
                .iter()
                .map(|q| handle.query(q).expect("serial query"))
                .collect()
        })
        .collect();

    let threads: Vec<_> = workloads
        .iter()
        .map(|w| {
            let core = Arc::clone(core);
            let w = w.clone();
            std::thread::spawn(move || {
                let mut handle = core.handle();
                let out: Vec<Vec<InsightInstance>> = queries_for(&core, &w)
                    .iter()
                    .map(|q| handle.query(q).expect("threaded query"))
                    .collect();
                (out, handle.session().history.len())
            })
        })
        .collect();

    for ((thread, serial), workload) in threads.into_iter().zip(&serial).zip(workloads) {
        let (parallel, history_len) = thread.join().expect("no panics under contention");
        assert_eq!(&parallel, serial, "thread results must be bit-identical");
        assert_eq!(
            history_len,
            workload.len(),
            "history records own queries only"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Exact mode, cold-then-warm shared cache: 8 threads over one core
    /// must reproduce serial results bit for bit.
    #[test]
    fn eight_threads_match_serial_exact(
        seed in 0u64..1000,
        workloads in proptest::collection::vec(
            proptest::collection::vec((0usize..12, 1usize..6), 1..5),
            THREADS,
        ),
    ) {
        let core =
            CoreBuilder::new(TableSource::materialized(synth_table(5, 60, seed))).freeze();
        assert_parallel_matches_serial(&core, &workloads);
    }

    /// Approximate (sketch-backed) mode over a sharded source — the
    /// catalog and schema-table memo are shared too.
    #[test]
    fn eight_threads_match_serial_approximate(
        seed in 0u64..1000,
        workloads in proptest::collection::vec(
            proptest::collection::vec((0usize..12, 1usize..6), 1..4),
            THREADS,
        ),
    ) {
        let whole = synth_table(4, 90, seed);
        let shards = vec![
            whole.filter_rows(|r| r < 30),
            whole.filter_rows(|r| (30..60).contains(&r)),
            whole.filter_rows(|r| r >= 60),
        ];
        let mut builder = CoreBuilder::new(TableSource::sharded(shards).unwrap());
        builder.preprocess(&CatalogConfig::default()).unwrap();
        let core = builder.freeze();
        assert_parallel_matches_serial(&core, &workloads);
    }
}

#[test]
fn sessions_are_isolated_across_threads() {
    let core = CoreBuilder::new(TableSource::materialized(datasets::oecd())).freeze();
    let q = InsightQuery::class("linear-relationship").top_k(2);

    let mut keeper = core.handle();
    let top = keeper.query(&q).unwrap();
    keeper.focus(top[0].clone());

    let workers: Vec<_> = (0..THREADS)
        .map(|i| {
            let core = Arc::clone(&core);
            std::thread::spawn(move || {
                let mut h = core.handle();
                // each worker builds its own focus set and history
                let mine = h
                    .query(&InsightQuery::class("skew").top_k(1 + i % 3))
                    .unwrap();
                h.focus(mine[0].clone());
                h.clear_focus();
                (h.session().focus.len(), h.session().history.len())
            })
        })
        .collect();
    for worker in workers {
        let (focus, history) = worker.join().unwrap();
        assert_eq!(focus, 0, "worker cleared its own focus");
        assert_eq!(history, 3, "query + focus + clear, nothing from others");
    }
    // the long-lived session saw none of the workers' events
    assert_eq!(keeper.session().focus.len(), 1);
    assert_eq!(keeper.session().history.len(), 2);
}

#[test]
fn republish_under_concurrent_readers_never_tears() {
    // readers hold the old snapshot while a writer republishes; both
    // snapshots answer consistently throughout
    let whole = synth_table(4, 120, 7);
    let shards = [
        whole.filter_rows(|r| r < 40),
        whole.filter_rows(|r| (40..80).contains(&r)),
        whole.filter_rows(|r| r >= 80),
    ];
    let mut builder = CoreBuilder::new(TableSource::sharded(shards[..2].to_vec()).unwrap());
    builder.preprocess(&CatalogConfig::default()).unwrap();
    let old = builder.freeze();
    let q = InsightQuery::class("linear-relationship").top_k(2);
    let baseline = run(&old, &q);

    let readers: Vec<_> = (0..THREADS)
        .map(|_| {
            let old = Arc::clone(&old);
            let q = q.clone();
            let baseline = baseline.clone();
            std::thread::spawn(move || {
                for _ in 0..20 {
                    assert_eq!(run(&old, &q), baseline);
                }
            })
        })
        .collect();

    // concurrent writer: append the third shard and republish
    let mut writer = CoreBuilder::from_arc(Arc::clone(&old));
    writer.append_shard(shards[2].clone()).unwrap();
    let new = writer.freeze();
    assert_ne!(old.epoch(), new.epoch());
    assert_eq!(new.source().n_rows(), 120);
    assert_eq!(new.mode(), Mode::Approximate);
    let grown = run(&new, &q);
    assert_eq!(grown.len(), 2);

    for reader in readers {
        reader
            .join()
            .expect("old-snapshot readers stayed consistent");
    }
    // the old snapshot still answers its original catalog, post-republish
    assert_eq!(run(&old, &q), baseline);
}
