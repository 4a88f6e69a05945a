//! Concurrent serving: one shared engine core, eight user sessions.
//!
//! Builds a single immutable `EngineCore` snapshot (preprocessed into
//! approximate mode), then spawns 8 threads. Each thread owns an
//! independent `SessionHandle` and mixes insight queries, focus-driven
//! carousel re-ranks, and a session save/restore round trip — all against
//! the same `Arc`'d core, sharing one score cache. The main thread then
//! verifies every session stayed isolated and that the shared cache did
//! its job.
//!
//! ```sh
//! cargo run --release --example concurrent
//! ```

use foresight::prelude::*;
use std::sync::Arc;

const USERS: usize = 8;

fn main() {
    // One writer builds the core: load, preprocess, publish a snapshot.
    let table = datasets::oecd();
    println!(
        "dataset `{}`: {} rows × {} columns",
        table.name(),
        table.n_rows(),
        table.n_cols()
    );
    let mut builder = CoreBuilder::new(TableSource::materialized(table));
    builder
        .preprocess(&CatalogConfig::default())
        .expect("raw table present");
    let core = builder.freeze();
    println!(
        "core published: mode={:?}, epoch={}, registry={} classes\n",
        core.mode(),
        core.epoch(),
        core.registry().len()
    );

    // Fan out: each user explores on their own handle. The classes are
    // staggered so sessions genuinely diverge.
    let classes: Vec<String> = core
        .registry()
        .classes()
        .iter()
        .map(|c| c.id().to_owned())
        .collect();
    let workers: Vec<_> = (0..USERS)
        .map(|user| {
            let core = Arc::clone(&core);
            let class = classes[user % classes.len()].clone();
            std::thread::spawn(move || {
                let mut session = core.handle();

                // 1. each user asks their own question…
                let top = session
                    .query(&InsightQuery::class(&class).top_k(3))
                    .expect("query on shared core");

                // 2. …focuses their strongest hit and re-ranks carousels
                //    toward its neighborhood…
                if let Some(best) = top.first() {
                    session.focus(best.clone());
                }
                let carousels = session.carousels(2).expect("carousels on shared core");

                // 3. …and round-trips the session state, as if sharing it
                //    with a colleague.
                let mut saved = Vec::new();
                session.save_session(&mut saved).expect("serialize session");
                let mut restored = core.handle();
                restored
                    .load_session(saved.as_slice())
                    .expect("restore session");
                let replayed = restored.replay_session().expect("replay history");

                assert_eq!(restored.session().focus, session.session().focus);
                assert_eq!(replayed[0], top, "replay reproduces the results");
                (user, class, top, carousels.len(), saved.len())
            })
        })
        .collect();

    for worker in workers {
        let (user, class, top, n_carousels, saved_bytes) =
            worker.join().expect("no worker panicked");
        let best = top
            .first()
            .map(|i| format!("{} (score {:.3})", i.detail, i.score))
            .unwrap_or_else(|| "no instances".to_owned());
        println!(
            "user {user}: {class:<24} → {best}; {n_carousels} carousels, session {saved_bytes} B"
        );
    }

    // The score cache and the rank orders are shared across all sessions:
    // overlapping carousel work hits scores, or walks the ranked scans,
    // some other thread already computed.
    let stats = core.cache_stats();
    let walked = core.metrics_snapshot().queries.index_served;
    println!(
        "\nshared score cache: {} hits / {} misses ({} entries, {} purged); \
         {walked} queries walked a shared rank order",
        stats.hits, stats.misses, stats.entries, stats.purges
    );
    assert!(
        stats.hits + walked > 0,
        "concurrent sessions share computed scores"
    );
}
