//! Streaming-ingest correctness: every snapshot the incremental write
//! path publishes must be *observationally identical* to a core built
//! cold, in one batch, over exactly the rows that snapshot covers — same
//! shard boundaries, same pinned sketch configuration. The incremental
//! machinery (merged shard catalogs, refreshed-in-place index, migrated
//! cache entries) is pure optimization; it may never change an answer.

use foresight_data::{Table, TableBuilder, TableSource};
use foresight_engine::stream::{RepublishPolicy, StreamConfig, StreamWriter};
use foresight_engine::{AdoptPolicy, CoreBuilder, EngineCore, InsightQuery, Mode, QueryOptions};
use foresight_insight::InsightInstance;
use foresight_sketch::CatalogConfig;
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A deterministic batch: `rows` rows starting at global row `offset`,
/// with three numeric columns and one categorical. Columns listed in
/// `null_cols` carry no present values (all-NaN / all-null) — the case
/// column-granular invalidation must treat as clean.
fn batch(offset: usize, rows: usize, seed: u64, null_cols: &[usize]) -> Table {
    let noise = |r: usize, c: u64| {
        let x = (r as u64)
            .wrapping_mul(6364136223846793005)
            .wrapping_add(seed.wrapping_add(c));
        (x >> 33) as f64 / 1e9
    };
    let numeric = |c: u64, f: &dyn Fn(usize) -> f64| -> Vec<f64> {
        (offset..offset + rows)
            .map(|r| {
                if null_cols.contains(&(c as usize)) {
                    f64::NAN
                } else {
                    f(r) + noise(r, c)
                }
            })
            .collect()
    };
    let cats: Vec<&str> = (offset..offset + rows)
        .map(|r| {
            if null_cols.contains(&3) {
                ""
            } else if r % 3 == 0 {
                "low"
            } else if r % 3 == 1 {
                "mid"
            } else {
                "high"
            }
        })
        .collect();
    TableBuilder::new("stream")
        .numeric("x", numeric(0, &|r| r as f64))
        .numeric("y", numeric(1, &|r| 2.0 * r as f64 + 5.0))
        .numeric("z", numeric(2, &|r| ((r * 37) % 101) as f64))
        .categorical("c", cats)
        .build()
        .unwrap()
}

/// A cold core over exactly `shards`, with the same shard boundaries and
/// the same (already resolved) sketch config as the streaming snapshot.
fn cold_core(shards: Vec<Table>, config: &CatalogConfig, index: bool) -> Arc<EngineCore> {
    let mut builder = CoreBuilder::new(TableSource::sharded(shards).unwrap());
    builder.preprocess(config).unwrap();
    if index {
        builder.build_index().unwrap();
    }
    builder.freeze()
}

/// `query` under the snapshot's published defaults.
fn run(core: &EngineCore, query: &InsightQuery) -> Vec<InsightInstance> {
    core.run(query, &core.options()).unwrap().results
}

/// `query` under `mode`, serially.
fn run_at(core: &EngineCore, query: &InsightQuery, mode: Mode) -> Vec<InsightInstance> {
    let opts = QueryOptions {
        mode,
        parallel: false,
        ..core.options()
    };
    core.run(query, &opts).unwrap().results
}

/// Every registered class, top-3, in both modes.
fn assert_same_answers(streamed: &EngineCore, cold: &EngineCore) {
    assert_eq!(
        streamed.catalog().unwrap().config(),
        cold.catalog().unwrap().config(),
        "sketch configs must stay pinned across appends"
    );
    // the incrementally refreshed LSH candidate index must be *equal* to
    // the one a cold build derives — same tables, same bucket contents,
    // same typed skips (dirty columns re-inserted, clean columns' keys
    // bit-identical because their signatures are)
    assert_eq!(
        streamed.lsh_index(),
        cold.lsh_index(),
        "refreshed LSH index diverged from a cold rebuild"
    );
    for class in streamed.registry().classes() {
        let q = InsightQuery::class(class.id()).top_k(3);
        for mode in [Mode::Approximate, Mode::Exact] {
            let a = run_at(streamed, &q, mode);
            let b = run_at(cold, &q, mode);
            assert_eq!(
                a,
                b,
                "class {} diverged in {mode:?} mode\nstreamed: {a:#?}\ncold: {b:#?}",
                class.id()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The writer-path loop (append → freeze → from_arc), run directly and
    /// deterministically: after every republish, the snapshot must answer
    /// exactly like a cold batch build over the same shards — including
    /// appends whose batches leave some columns entirely null (those
    /// columns' index entries and cache lines are reused, not rescored).
    #[test]
    fn incremental_snapshots_match_cold_builds(
        seed in 0u64..500,
        batch_rows in 16usize..48,
        batches in 1usize..5,
        null_pattern in proptest::collection::vec(proptest::collection::vec(0usize..4, 0..3), 1..5),
    ) {
        let seed_table = batch(0, 64, seed, &[]);
        let mut builder = CoreBuilder::new(TableSource::sharded(vec![seed_table.clone()]).unwrap());
        builder.preprocess(&CatalogConfig::default()).unwrap();
        builder.build_index().unwrap();
        let mut core = builder.freeze();
        let config = core.catalog().unwrap().config().clone();

        let mut shards = vec![seed_table];
        let mut offset = 64;
        for i in 0..batches {
            let nulls = &null_pattern[i % null_pattern.len()];
            let b = batch(offset, batch_rows, seed.wrapping_add(i as u64 + 1), nulls);
            offset += batch_rows;
            shards.push(b.clone());

            // exactly what the stream writer does per republish: take over
            // the published Arc (a reader keeps one, forcing the clone
            // path), append, freeze
            let reader = Arc::clone(&core);
            let mut writer = CoreBuilder::from_arc(core);
            writer.append_shard(b).unwrap();
            core = writer.freeze();

            // warm the cache so later republishes exercise entry migration
            run(&core, &InsightQuery::class("skew").top_k(2));

            let cold = cold_core(shards.clone(), &config, true);
            assert_same_answers(&core, &cold);
            drop(reader);
        }
    }
}

/// Index-served results take their `detail` through the shared description
/// memo, so the memo's republish rule has to hold on that path too: after
/// an incremental republish (index refreshed in place, clean cache entries
/// migrated) no description computed over the old rows may be served by
/// the new snapshot — while a reader still on the old snapshot keeps
/// getting the old ones.
#[test]
fn index_served_details_are_retired_by_a_republish() {
    // exact mode: the index is built over raw rows and describes from them
    let seed_table = batch(0, 120, 21, &[]);
    let mut builder = CoreBuilder::new(TableSource::sharded(vec![seed_table]).unwrap());
    builder.build_index().unwrap();
    let old = builder.freeze();
    let served = |core: &EngineCore| -> Vec<InsightInstance> {
        core.registry()
            .classes()
            .iter()
            .flat_map(|class| run(core, &InsightQuery::class(class.id()).top_k(2)))
            .collect()
    };
    // fill the memo from the old snapshot, twice (miss, then hit)
    let old_answers = served(&old);
    assert_eq!(served(&old), old_answers);

    // x, y and the categorical move; z receives only nulls and stays clean
    let mut writer = CoreBuilder::from_arc(Arc::clone(&old));
    writer.append_shard(batch(120, 90, 22, &[2])).unwrap();
    let new = writer.freeze();
    assert_ne!(new.epoch(), old.epoch());

    let new_answers = served(&new);
    assert_eq!(served(&new), new_answers, "memo hit differs from memo miss");
    let table = new.table();
    let mut changed_heads = 0;
    for instance in &new_answers {
        let class = new.registry().get(&instance.class_id).unwrap();
        assert_eq!(
            instance.detail,
            class.describe(table, &instance.attrs, instance.score),
            "stale or foreign detail served for {} {:?}",
            instance.class_id,
            instance.attrs
        );
        let before = old_answers
            .iter()
            .find(|o| o.class_id == instance.class_id && o.attrs == instance.attrs);
        if before.is_some_and(|o| o.score != instance.score) {
            changed_heads += 1;
        }
    }
    assert!(changed_heads > 0, "the append moved no served score");
    // the stats say the index served all of it: nothing was scored
    let stats = new.cache_stats();
    assert_eq!((stats.hits, stats.misses), (0, 0));
    // and the reader that stayed behind still sees its own snapshot
    assert_eq!(served(&old), old_answers);
    // … without having planted anything the new snapshot would pick up
    assert_eq!(served(&new), new_answers);
}

/// The republish hand-off: what the index refresh rescored at freeze is
/// stored under the epoch that freeze publishes, so the new snapshot's
/// executor scores nothing — clean tuples were migrated, dirty ones handed
/// over — while a handle still on the old snapshot stays in its own
/// keyspace: it finds none of the new scores and plants none.
#[test]
fn rescored_tuples_are_cache_hits_in_the_new_epoch_only() {
    let seed_table = batch(0, 120, 31, &[]);
    let mut builder = CoreBuilder::new(TableSource::sharded(vec![seed_table.clone()]).unwrap());
    builder.preprocess(&CatalogConfig::default()).unwrap();
    builder.build_index().unwrap();
    let old = builder.freeze();
    let config = old.catalog().unwrap().config().clone();
    let stale = old.handle();
    let old_carousels = stale.carousels(3).unwrap();

    // x, y and z move; the categorical receives only nulls and stays clean
    let appended = batch(120, 90, 32, &[3]);
    let mut writer = CoreBuilder::from_arc(Arc::clone(&old));
    writer.append_shard(appended.clone()).unwrap();
    let new = writer.freeze();
    assert_ne!(new.epoch(), old.epoch());

    let before = new.cache_stats();
    let new_carousels = new.handle().carousels(3).unwrap();
    let after = new.cache_stats();
    assert_eq!(after.misses, before.misses, "the new snapshot rescored");
    assert!(after.hits > before.hits);
    assert_eq!(after.entries, before.entries);
    let cold = cold_core(vec![seed_table, appended], &config, true);
    assert_eq!(new_carousels, cold.handle().carousels(3).unwrap());

    // x × z was rescored: present under the new epoch, absent under the
    // old one until the stale reader recomputes it over its own rows
    let moved = foresight_insight::AttrTuple::Two(0, 2);
    let lookup = |epoch| {
        new.cache().lookup(
            "linear-relationship",
            &moved,
            Mode::Approximate,
            None,
            epoch,
        )
    };
    let handed_off = lookup(new.epoch()).expect("handed off at freeze");
    assert_eq!(lookup(old.epoch()), None);
    assert_eq!(stale.core().epoch(), old.epoch());
    assert_eq!(stale.carousels(3).unwrap(), old_carousels);
    let recomputed = lookup(old.epoch()).expect("the stale reader's own store");
    assert_ne!(recomputed, handed_off, "the append moved x × z");
    assert_eq!(lookup(new.epoch()), Some(handed_off));
    assert_eq!(new.handle().carousels(3).unwrap(), new_carousels);
}

/// An append staged on top of an index that was never published: the one
/// freeze hands over both the build's scores and the refresh's, and for a
/// tuple the append moved it is the refresh's that the snapshot reads.
#[test]
fn a_refresh_supersedes_the_unpublished_builds_scores() {
    let seed_table = batch(0, 120, 41, &[]);
    let appended = batch(120, 90, 42, &[3]);
    let mut builder = CoreBuilder::new(TableSource::sharded(vec![seed_table.clone()]).unwrap());
    builder.preprocess(&CatalogConfig::default()).unwrap();
    builder.build_index().unwrap();
    builder.append_shard(appended.clone()).unwrap();
    let core = builder.freeze();

    let carousels = core.handle().carousels(3).unwrap();
    assert_eq!(core.cache_stats().misses, 0, "the snapshot rescored");
    let config = core.catalog().unwrap().config().clone();
    let cold = cold_core(vec![seed_table, appended], &config, true);
    assert_eq!(carousels, cold.handle().carousels(3).unwrap());
    assert_same_answers(&core, &cold);
}

/// Concurrent churn: a real `StreamWriter` republishing under reader
/// threads that query continuously through `EveryQuery` handles. Every
/// query must succeed, any snapshot a reader grabs must answer
/// self-consistently, and the final drained snapshot must match a cold
/// batch build over all ingested rows.
#[test]
fn churn_queries_stay_consistent_and_final_state_matches_batch() {
    const BATCHES: usize = 16;
    const BATCH_ROWS: usize = 50;

    let seed_table = batch(0, 100, 7, &[]);
    let mut builder = CoreBuilder::new(TableSource::sharded(vec![seed_table.clone()]).unwrap());
    builder.preprocess(&CatalogConfig::default()).unwrap();
    builder.build_index().unwrap();
    let core = builder.freeze();
    let config = core.catalog().unwrap().config().clone();

    let writer = StreamWriter::spawn(
        core,
        StreamConfig {
            policy: RepublishPolicy {
                max_rows: 100,
                ..RepublishPolicy::default()
            },
            ..StreamConfig::default()
        },
    );
    let published = writer.published();
    let stop = Arc::new(AtomicBool::new(false));
    /// Counts a reader in at the start barrier when dropped: after its
    /// first served query, or by unwinding if it panics before that — so a
    /// reader that fails early fails the test at `join` instead of leaving
    /// the writer waiting for it.
    struct Arrive(std::sync::mpsc::Sender<()>);
    impl Drop for Arrive {
        fn drop(&mut self) {
            let _ = self.0.send(());
        }
    }
    const READERS: usize = 4;
    let (arrive, arrived) = std::sync::mpsc::channel();
    let readers: Vec<_> = (0..READERS)
        .map(|i| {
            let published = Arc::clone(&published);
            let stop = Arc::clone(&stop);
            let mut arrive = Some(Arrive(arrive.clone()));
            std::thread::spawn(move || {
                let mut handle = published.latest().handle();
                handle.bind_stream(published);
                handle.set_adopt_policy(AdoptPolicy::EveryQuery);
                let classes = ["linear-relationship", "skew", "outliers", "dispersion"];
                let mut served = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let q = InsightQuery::class(classes[served as usize % classes.len()])
                        .top_k(2 + i % 3);
                    // a snapshot must answer the same query identically
                    // twice in a row — no torn state under republish
                    let snapshot = Arc::clone(handle.core());
                    let first = run(&snapshot, &q);
                    let second = run(&snapshot, &q);
                    assert_eq!(first, second, "torn read on a published snapshot");
                    handle.query(&q).expect("handle query under churn");
                    served += 1;
                    arrive.take();
                }
                served
            })
        })
        .collect();
    // the churn starts only once every reader is querying: on a busy
    // single core the writer could otherwise drain all sixteen batches
    // before a reader was first scheduled
    for _ in 0..READERS {
        arrived.recv().expect("a reader holds its guard");
    }

    let mut shards = vec![seed_table];
    let mut offset = 100;
    for i in 0..BATCHES {
        // column z is untouched by every batch (so each republish carries
        // its tuples over no matter how the writer coalesces the queue);
        // the categorical goes quiet every 4th batch
        let nulls: &[usize] = if i % 4 == 3 { &[2, 3] } else { &[2] };
        let b = batch(offset, BATCH_ROWS, 7 + i as u64, nulls);
        offset += BATCH_ROWS;
        shards.push(b.clone());
        writer.send(b).unwrap();
    }
    writer.flush().unwrap();
    stop.store(true, Ordering::Relaxed);
    let served: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
    assert!(served > 0, "readers made progress under churn");

    let last = writer.finish().unwrap();
    assert_eq!(last.snapshot_rows() as usize, 100 + BATCHES * BATCH_ROWS);
    assert_eq!(last.rows_behind(), 0);
    let cold = cold_core(shards, &config, true);
    assert_same_answers(&last, &cold);

    if cfg!(feature = "telemetry") {
        let snap = last.metrics_snapshot();
        assert_eq!(snap.ingest.batches, BATCHES as u64);
        assert_eq!(snap.ingest.rows, (BATCHES * BATCH_ROWS) as u64);
        assert!(snap.ingest.republishes_incremental > 0);
        assert!(
            snap.ingest.reused_tuples > 0,
            "clean columns must carry over"
        );
    }
}
