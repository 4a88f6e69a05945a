//! `wire_oecd` — warm exploration of the paper's own demo table over real
//! loopback sockets. The table is 35 × 25, so the engine answers in
//! microseconds and parse, queue, serialize and write in `serve` are
//! nearly all of every op: this is where socket hardening, a metrics
//! rewrite or a query-path change must show "no worse". Two connections,
//! each multiplexing 32 live sessions that churn every 48 steps.

use super::{lane_spans, run_lanes, CacheCounters, Checks, Window, Workload, LANES};
use crate::backend::{fail, transcript, InProcess, Lane, OpResult, Source, Wire};
use crate::rng::Rng;
use crate::script::{probe_script, Kind, ScriptOptions, Step, Vocabulary};
use crate::spans::{Recorder, Span};
use foresight_data::{datasets, Table, TableSource};
use foresight_engine::{CoreBuilder, EngineCore};
use foresight_insight::{AttrTuple, InsightInstance};
use foresight_serve::{Client, ServeConfig, ServeCore, Server};
use foresight_sketch::CatalogConfig;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Live sessions per connection.
pub const SESSIONS: usize = 32;

pub const OPTIONS: ScriptOptions = ScriptOptions {
    profile: true,
    exhaustive_share: None,
};

/// The OECD table preprocessed and indexed, as the server publishes it.
pub fn oecd_core() -> OpResult<(Table, Arc<EngineCore>)> {
    let table = datasets::oecd();
    let mut builder = CoreBuilder::new(TableSource::materialized(table.clone()));
    builder
        .preprocess(&CatalogConfig::default())
        .map_err(fail("preprocess"))?;
    builder.build_index().map_err(fail("build_index"))?;
    Ok((table, builder.freeze()))
}

/// An in-process server on an ephemeral loopback port, default config.
pub fn start_server(core: &Arc<EngineCore>) -> OpResult<Server> {
    Server::start(
        ServeCore::Static(Arc::clone(core)),
        "127.0.0.1:0",
        ServeConfig::default(),
    )
    .map_err(fail("server start"))
}

/// What the server counted, next to what its clients did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeCounts {
    pub requests: u64,
    pub load_shed: u64,
    pub errors: u64,
    pub sessions_created: u64,
}

/// Reads the always-on counters from the wire `Metrics` reply over a
/// fresh connection. The reply counts every request before itself.
pub fn serve_counts(server: &Server) -> OpResult<ServeCounts> {
    let mut client = Client::connect(server.addr()).map_err(fail("connect"))?;
    let snapshot = client.metrics().map_err(fail("metrics"))?;
    Ok(ServeCounts {
        requests: snapshot.serve.requests,
        load_shed: snapshot.serve.load_shed,
        errors: snapshot.serve.errors,
        sessions_created: snapshot.serve.sessions_created,
    })
}

pub struct WireOecd {
    table: Table,
    pub core: Arc<EngineCore>,
    pub server: Server,
    pub vocab: Vocabulary,
    /// The probe script's answers from an in-process handle on the served
    /// core: what the wire must return byte for byte.
    reference: Vec<String>,
    lanes: Vec<(Lane<Wire>, Recorder)>,
    /// Ops the clients saw fail, to hold against the server's error count.
    failed: u64,
}

/// The in-process twin of the wire load: the same sessions, scripts and
/// seeds on `SessionHandle`s over the served core.
pub fn local_lanes(
    core: &Arc<EngineCore>,
    vocab: &Vocabulary,
    seed: u64,
) -> OpResult<Vec<(Lane<InProcess>, Recorder)>> {
    let rng = Rng::new(seed);
    (0..LANES)
        .map(|lane| {
            let mut lane = Lane::new(
                InProcess::new(Arc::clone(core), SESSIONS),
                vocab.clone(),
                Source::Sessions(OPTIONS),
                rng.fork(lane as u64),
                SESSIONS,
            );
            lane.open_all()?;
            Ok((lane, Recorder::off()))
        })
        .collect()
}

impl WireOecd {
    /// The server's always-on counters, checked against what its clients
    /// did: this workload's lanes plus `other_calls` made by the caller.
    pub fn serve_counts(&self, other_calls: u64) -> OpResult<ServeCounts> {
        let counts = serve_counts(&self.server)?;
        let want = ServeCounts {
            requests: other_calls + self.lanes.iter().map(|(l, _)| l.backend.calls).sum::<u64>(),
            load_shed: 0,
            errors: self.failed,
            sessions_created: self.lanes.iter().map(|(l, _)| l.backend.opened).sum(),
        };
        if counts == want {
            Ok(counts)
        } else {
            Err(format!("server counted {counts:?}, clients did {want:?}"))
        }
    }
}

impl Workload for WireOecd {
    const NAME: &'static str = "wire_oecd";

    fn setup(seed: u64, _seconds: f64) -> OpResult<Self> {
        let (table, core) = oecd_core()?;
        let server = start_server(&core)?;
        let vocab = Vocabulary::of(&core, &table);
        // The reference answers come before the clients connect, and the
        // clients connect together: the server's acceptor polls every 50 ms,
        // and this way both connections fall into the sleep after its first
        // poll and are accepted by its second. Connecting straight after
        // the start races that first poll, and a set-up takes 4, 54 or
        // 104 ms by how the race ends.
        let reference = transcript(
            &mut InProcess::new(Arc::clone(&core), 1),
            &probe_script(&vocab, true),
        )?;
        let clients = (0..LANES)
            .map(|_| Client::connect(server.addr()).map_err(fail("connect")))
            .collect::<OpResult<Vec<_>>>()?;
        let origin = Instant::now();
        let rng = Rng::new(seed);
        let mut lanes = Vec::with_capacity(LANES);
        for (lane, client) in clients.into_iter().enumerate() {
            let mut lane = Lane::new(
                Wire::new(client, SESSIONS),
                vocab.clone(),
                Source::Sessions(OPTIONS),
                rng.fork(lane as u64),
                SESSIONS,
            );
            lane.open_all()?;
            lanes.push((lane, Recorder::new(origin, false)));
        }
        Ok(Self {
            table,
            core,
            server,
            vocab,
            reference,
            lanes,
            failed: 0,
        })
    }

    fn run(&mut self, duration: Duration, traced: bool) -> Window {
        let window = run_lanes(&mut self.lanes, duration, traced);
        self.failed += window.tally.failed;
        window
    }

    fn cache_counters(&self) -> CacheCounters {
        self.core.cache_stats().into()
    }

    fn lanes(&self) -> Vec<(String, &[Span])> {
        lane_spans(&self.lanes)
    }

    fn finish(mut self) -> Checks {
        let mut checks = Checks::default();
        let steps = probe_script(&self.vocab, true);

        // the same probe over the wire as from the in-process handle
        let wire = checks.expect_ok(
            "probe over the wire",
            transcript(&mut self.lanes[0].0.backend, &steps),
        );
        if let Some(wire) = &wire {
            checks.expect(*wire == self.reference, || {
                let step = wire.iter().zip(&self.reference).position(|(w, l)| w != l);
                format!("wire and in-process answers differ at probe step {step:?}")
            });
        }

        // §4.1, on what the server serves: long hours × leisure is among
        // the five strongest linear relationships, and reads as negative.
        // The served core ranks by sketch estimates, which on 35 rows are
        // coarse: where that costs the pair the first place it holds on
        // the exact path, the run says so.
        let linear = steps.iter().position(|step| {
            matches!(step, Step::Query { kind: Kind::TopK, query, .. }
                if query.class_id == "linear-relationship")
        });
        let served = wire.as_ref().zip(linear).map(|(wire, step)| {
            serde_json::from_str::<Vec<InsightInstance>>(&wire[step]).map_err(fail("served top 5"))
        });
        let long_hours = self.table.index_of("Employees Working Very Long Hours");
        let leisure = self.table.index_of("Time Devoted To Leisure");
        if let (Ok(a), Ok(b), Some(served)) = (
            long_hours,
            leisure,
            served.and_then(|served| checks.expect_ok("§4.1 reply", served)),
        ) {
            let want = AttrTuple::Two(a.min(b), a.max(b));
            let rank = served.iter().position(|r| r.attrs == want);
            checks.expect(rank.is_some(), || {
                "long hours × leisure is not among the served top 5 linear pairs".to_owned()
            });
            if let Some(rank) = rank {
                checks.expect(served[rank].detail.contains("negative"), || {
                    format!("long hours × leisure reads: {}", served[rank].detail)
                });
                if rank > 0 {
                    checks.findings.push(format!(
                        "the served core puts long hours × leisure in place {} among the linear pairs, not first",
                        rank + 1
                    ));
                }
            }
        } else {
            checks.expect(false, || "no served answer to check §4.1 on".to_owned());
        }

        // the server's own counters must agree with what the clients did
        checks.expect_ok("wire metrics", self.serve_counts(0));

        self.teardown();
        checks
    }

    fn teardown(self) {
        drop(self.lanes); // hang up before the server joins its threads
        self.server.shutdown();
    }
}
