//! The two ways a script reaches the system — in-process session handles
//! and the wire client — behind one trait, plus the lane that walks a set
//! of session slots through their scripts and times every op.

use crate::rng::Rng;
use crate::script::{
    session_script, Candidates, Kind, ScriptOptions, Step, Vocabulary, CAROUSEL_WIDTH,
};
use crate::spans::{Recorder, ROOT};
use foresight_engine::{
    AdoptPolicy, CandidateStrategy, Carousel, EngineCore, InsightQuery, PublishedCore,
    SessionHandle,
};
use foresight_insight::InsightInstance;
use foresight_serve::Client;
use std::sync::Arc;
use std::time::Instant;

/// A failed op: the message is printed once, the op counts in `failed`.
pub type OpResult<T> = Result<T, String>;

/// Turns a layer's error into an op failure that says what was tried.
pub fn fail<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// One session-addressed command surface. Every method wraps its call
/// into the system in a span named after the layer it enters.
pub trait Backend {
    fn open(&mut self, slot: usize, rec: &mut Recorder) -> OpResult<()>;
    fn close(&mut self, slot: usize, rec: &mut Recorder) -> OpResult<()>;
    fn carousels(&mut self, slot: usize, rec: &mut Recorder) -> OpResult<Vec<Carousel>>;
    fn profile(&mut self, slot: usize, rec: &mut Recorder) -> OpResult<()>;
    fn query(
        &mut self,
        slot: usize,
        query: &InsightQuery,
        rec: &mut Recorder,
    ) -> OpResult<Vec<InsightInstance>>;
    fn set_candidates(
        &mut self,
        slot: usize,
        candidates: Candidates,
        rec: &mut Recorder,
    ) -> OpResult<()>;
    fn focus(&mut self, slot: usize, instance: InsightInstance, rec: &mut Recorder)
        -> OpResult<()>;
    fn clear_focus(&mut self, slot: usize, rec: &mut Recorder) -> OpResult<()>;
    /// Returns the size of the saved state in bytes.
    fn save(&mut self, slot: usize, rec: &mut Recorder) -> OpResult<usize>;
    /// Adopts the newest published snapshot (no-op off a stream).
    fn refresh(&mut self, slot: usize, rec: &mut Recorder) -> OpResult<()>;
}

/// `SessionHandle`s over one shared core, or over a stream's publication
/// point when `published` is set.
pub struct InProcess {
    core: Arc<EngineCore>,
    published: Option<Arc<PublishedCore>>,
    handles: Vec<Option<SessionHandle>>,
}

impl InProcess {
    pub fn new(core: Arc<EngineCore>, slots: usize) -> Self {
        Self {
            core,
            published: None,
            handles: (0..slots).map(|_| None).collect(),
        }
    }

    /// Handles bind to the stream and adopt a newer snapshot before
    /// every query.
    pub fn streaming(published: Arc<PublishedCore>, slots: usize) -> Self {
        let mut backend = Self::new(published.latest(), slots);
        backend.published = Some(published);
        backend
    }

    fn handle(&mut self, slot: usize) -> OpResult<&mut SessionHandle> {
        self.handles[slot]
            .as_mut()
            .ok_or_else(|| format!("slot {slot} has no open session"))
    }
}

impl Backend for InProcess {
    fn open(&mut self, slot: usize, rec: &mut Recorder) -> OpResult<()> {
        let handle = rec.span("engine.handle", |_| {
            let mut handle = self.core.handle();
            if let Some(published) = &self.published {
                handle.bind_stream(Arc::clone(published));
                handle.set_adopt_policy(AdoptPolicy::EveryQuery);
            }
            handle
        });
        self.handles[slot] = Some(handle);
        Ok(())
    }

    fn close(&mut self, slot: usize, rec: &mut Recorder) -> OpResult<()> {
        rec.span("engine.drop_handle", |_| self.handles[slot] = None);
        Ok(())
    }

    fn carousels(&mut self, slot: usize, rec: &mut Recorder) -> OpResult<Vec<Carousel>> {
        let handle = self.handle(slot)?;
        rec.span("engine.carousels", |_| handle.carousels(CAROUSEL_WIDTH))
            .map_err(fail("carousels"))
    }

    fn profile(&mut self, slot: usize, rec: &mut Recorder) -> OpResult<()> {
        let handle = self.handle(slot)?;
        rec.span("engine.profile", |_| handle.profile())
            .map(|profile| drop(std::hint::black_box(profile)))
            .map_err(fail("profile"))
    }

    fn query(
        &mut self,
        slot: usize,
        query: &InsightQuery,
        rec: &mut Recorder,
    ) -> OpResult<Vec<InsightInstance>> {
        let handle = self.handle(slot)?;
        rec.span("engine.query", |_| handle.query(query))
            .map_err(fail("query"))
    }

    fn set_candidates(
        &mut self,
        slot: usize,
        candidates: Candidates,
        rec: &mut Recorder,
    ) -> OpResult<()> {
        let strategy = match candidates {
            Candidates::Auto => CandidateStrategy::Auto,
            Candidates::Exhaustive => CandidateStrategy::Exhaustive,
        };
        let handle = self.handle(slot)?;
        rec.span("engine.set_candidate_strategy", |_| {
            handle.set_candidate_strategy(strategy)
        });
        Ok(())
    }

    fn focus(
        &mut self,
        slot: usize,
        instance: InsightInstance,
        rec: &mut Recorder,
    ) -> OpResult<()> {
        let handle = self.handle(slot)?;
        rec.span("engine.focus", |_| handle.focus(instance));
        Ok(())
    }

    fn clear_focus(&mut self, slot: usize, rec: &mut Recorder) -> OpResult<()> {
        let handle = self.handle(slot)?;
        rec.span("engine.clear_focus", |_| handle.clear_focus());
        Ok(())
    }

    fn save(&mut self, slot: usize, rec: &mut Recorder) -> OpResult<usize> {
        let handle = self.handle(slot)?;
        let mut state = Vec::new();
        rec.span("engine.save_session", |_| handle.save_session(&mut state))
            .map_err(fail("save"))?;
        Ok(state.len())
    }

    fn refresh(&mut self, slot: usize, rec: &mut Recorder) -> OpResult<()> {
        let handle = self.handle(slot)?;
        rec.span("engine.refresh", |_| handle.refresh());
        Ok(())
    }
}

/// Server-side sessions multiplexed over one connection. From out here a
/// command is one call: encode, write, the server's whole pipeline, read
/// and decode are all inside `serve.call`.
pub struct Wire {
    client: Client,
    sessions: Vec<Option<u64>>,
    /// Commands sent, to hold against the server's own request counter.
    pub calls: u64,
    pub opened: u64,
}

impl Wire {
    pub fn new(client: Client, slots: usize) -> Self {
        Self {
            client,
            sessions: vec![None; slots],
            calls: 0,
            opened: 0,
        }
    }

    fn call<T>(
        &mut self,
        slot: usize,
        rec: &mut Recorder,
        what: &'static str,
        f: impl FnOnce(&mut Client, u64) -> foresight_serve::ClientResult<T>,
    ) -> OpResult<T> {
        let session =
            self.sessions[slot].ok_or_else(|| format!("slot {slot} has no open session"))?;
        self.calls += 1;
        let client = &mut self.client;
        rec.span("serve.call", |_| f(client, session))
            .map_err(fail(what))
    }
}

impl Backend for Wire {
    fn open(&mut self, slot: usize, rec: &mut Recorder) -> OpResult<()> {
        self.calls += 1;
        let client = &mut self.client;
        let session = rec
            .span("serve.call", |_| client.open())
            .map_err(fail("open"))?;
        self.sessions[slot] = Some(session);
        self.opened += 1;
        Ok(())
    }

    fn close(&mut self, slot: usize, rec: &mut Recorder) -> OpResult<()> {
        let out = self.call(slot, rec, "close", |c, s| c.close(s));
        self.sessions[slot] = None;
        out
    }

    fn carousels(&mut self, slot: usize, rec: &mut Recorder) -> OpResult<Vec<Carousel>> {
        self.call(slot, rec, "carousels", |c, s| {
            c.carousels(s, CAROUSEL_WIDTH)
        })
    }

    fn profile(&mut self, slot: usize, rec: &mut Recorder) -> OpResult<()> {
        self.call(slot, rec, "profile", |c, s| c.profile(s))
            .map(|profile| drop(std::hint::black_box(profile)))
    }

    fn query(
        &mut self,
        slot: usize,
        query: &InsightQuery,
        rec: &mut Recorder,
    ) -> OpResult<Vec<InsightInstance>> {
        self.call(slot, rec, "query", |c, s| c.query(s, query.clone()))
    }

    fn set_candidates(&mut self, _: usize, _: Candidates, _: &mut Recorder) -> OpResult<()> {
        Err("no wire workload chooses a candidate strategy".to_owned())
    }

    fn focus(
        &mut self,
        slot: usize,
        instance: InsightInstance,
        rec: &mut Recorder,
    ) -> OpResult<()> {
        self.call(slot, rec, "focus", |c, s| c.focus(s, instance))
    }

    fn clear_focus(&mut self, slot: usize, rec: &mut Recorder) -> OpResult<()> {
        self.call(slot, rec, "clear_focus", |c, s| c.clear_focus(s))
    }

    fn save(&mut self, slot: usize, rec: &mut Recorder) -> OpResult<usize> {
        self.call(slot, rec, "save", |c, s| c.save(s))
            .map(|state| state.len())
    }

    fn refresh(&mut self, _: usize, _: &mut Recorder) -> OpResult<()> {
        Err("no wire workload serves a stream".to_owned())
    }
}

/// One timed op.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub kind: Kind,
    /// For queries the script routed: which candidate strategy ran.
    pub candidates: Option<Candidates>,
    /// When the op completed, counted from the tally's origin.
    pub at_ns: u64,
    pub ns: u64,
}

/// What one load thread measured, on a clock that starts at `origin`.
pub struct Tally {
    pub origin: Instant,
    pub ops: Vec<Sample>,
    /// `(completed at, latency)` of the `carousels(5)` call alone,
    /// wherever it ran.
    pub carousels: Vec<(u64, u64)>,
    pub save_bytes: Vec<usize>,
    pub failed: u64,
    /// The first few failure messages, for the report.
    pub errors: Vec<String>,
}

impl Tally {
    pub fn starting(origin: Instant) -> Self {
        Self {
            origin,
            ops: Vec::new(),
            carousels: Vec::new(),
            save_bytes: Vec::new(),
            failed: 0,
            errors: Vec::new(),
        }
    }

    /// Records one op that ends now.
    pub fn record_op(&mut self, kind: Kind, candidates: Option<Candidates>, ns: u64) {
        self.ops.push(Sample {
            kind,
            candidates,
            at_ns: self.origin.elapsed().as_nanos() as u64,
            ns,
        });
    }

    pub fn record_carousels(&mut self, ns: u64) {
        self.carousels
            .push((self.origin.elapsed().as_nanos() as u64, ns));
    }

    pub fn record_error(&mut self, message: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(message);
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.ops.extend(other.ops);
        self.carousels.extend(other.carousels);
        self.save_bytes.extend(other.save_bytes);
        self.failed += other.failed;
        self.errors.extend(other.errors);
        self.errors.truncate(5);
    }
}

/// Per-slot script state that outlives a single op.
#[derive(Default)]
struct Slot {
    steps: Vec<Step>,
    next: usize,
    /// The strategy the session is in, when the script has set one.
    candidates: Option<Candidates>,
    /// The top result the session saw last — what `focus` focuses.
    last_top: Option<InsightInstance>,
}

/// `carousels(5)`, timed on its own, remembering the top instance shown.
fn show_carousels<B: Backend>(
    backend: &mut B,
    index: usize,
    slot: &mut Slot,
    rec: &mut Recorder,
    carousels_ns: &mut Option<u64>,
) -> OpResult<()> {
    let t0 = Instant::now();
    let carousels = backend.carousels(index, rec)?;
    *carousels_ns = Some(t0.elapsed().as_nanos() as u64);
    if let Some(top) = carousels.iter().find_map(|c| c.instances.first()) {
        slot.last_top = Some(top.clone());
    }
    std::hint::black_box(carousels);
    Ok(())
}

/// Runs one step against `backend`, timing it as one op.
fn run_step<B: Backend>(
    backend: &mut B,
    index: usize,
    slot: &mut Slot,
    step: &Step,
    rec: &mut Recorder,
    tally: &mut Tally,
) {
    rec.next_request();
    let started = Instant::now();
    let mut carousels_ns = None;
    let outcome: OpResult<()> = rec.span(ROOT, |rec| match step {
        Step::Open => backend.open(index, rec),
        Step::Close => backend.close(index, rec),
        Step::Carousels => show_carousels(backend, index, slot, rec, &mut carousels_ns),
        Step::Dashboard => {
            backend.refresh(index, rec)?;
            show_carousels(backend, index, slot, rec, &mut carousels_ns)
        }
        Step::Profile => backend.profile(index, rec),
        Step::Query {
            query, candidates, ..
        } => {
            if let Some(wanted) = candidates {
                if slot.candidates != Some(*wanted) {
                    backend.set_candidates(index, *wanted, rec)?;
                    slot.candidates = Some(*wanted);
                }
            }
            let results = backend.query(index, query, rec)?;
            if let Some(top) = results.first() {
                slot.last_top = Some(top.clone());
            }
            std::hint::black_box(results);
            Ok(())
        }
        Step::Focus => match slot.last_top.clone() {
            Some(top) => backend.focus(index, top, rec),
            None => show_carousels(backend, index, slot, rec, &mut carousels_ns),
        },
        Step::ClearFocus => backend.clear_focus(index, rec),
        Step::Save => backend.save(index, rec).map(|n| tally.save_bytes.push(n)),
    });
    let ns = started.elapsed().as_nanos() as u64;
    let candidates = match step {
        Step::Query { candidates, .. } => *candidates,
        _ => None,
    };
    tally.record_op(step.kind(), candidates, ns);
    if let Some(ns) = carousels_ns {
        tally.record_carousels(ns);
    }
    if let Err(message) = outcome {
        tally.record_error(format!("{}: {message}", step.kind().name()));
    }
}

/// How a lane's sessions get their next step.
pub enum Source {
    /// Sessions live [`crate::script::SESSION_STEPS`] steps, then are
    /// closed and replaced.
    Sessions(ScriptOptions),
    /// Long-lived sessions drawing from the dashboard mix.
    Dashboard,
}

/// One load thread's worth of simulated analysts: `slots` sessions on one
/// backend, visited round-robin, each waiting for its reply before the
/// lane moves on (a closed loop).
pub struct Lane<B: Backend> {
    pub backend: B,
    vocab: Vocabulary,
    source: Source,
    rng: Rng,
    slots: Vec<Slot>,
    cursor: usize,
}

impl<B: Backend> Lane<B> {
    pub fn new(backend: B, vocab: Vocabulary, source: Source, rng: Rng, slots: usize) -> Self {
        Self {
            backend,
            vocab,
            source,
            rng,
            slots: (0..slots).map(|_| Slot::default()).collect(),
            cursor: 0,
        }
    }

    /// Opens every slot's first session — part of set-up, not timed.
    /// Session scripts start staggered so the slots do not all reach
    /// `save` and `close` in the same instant.
    pub fn open_all(&mut self) -> OpResult<()> {
        let mut rec = Recorder::off();
        for index in 0..self.slots.len() {
            self.backend.open(index, &mut rec)?;
            if let Source::Sessions(options) = &self.source {
                let steps = session_script(&self.vocab, *options, &mut self.rng);
                let skip = 1 + self.rng.below(steps.len() - 2);
                self.slots[index] = Slot {
                    steps,
                    next: skip,
                    ..Slot::default()
                };
            }
        }
        Ok(())
    }

    /// Runs the next op of the next slot.
    pub fn step(&mut self, rec: &mut Recorder, tally: &mut Tally) {
        let index = self.cursor;
        self.cursor = (self.cursor + 1) % self.slots.len();
        let slot = &mut self.slots[index];
        let step = match &self.source {
            Source::Dashboard => crate::script::dashboard_step(&self.vocab, &mut self.rng),
            Source::Sessions(options) => {
                if slot.next >= slot.steps.len() {
                    *slot = Slot {
                        steps: session_script(&self.vocab, *options, &mut self.rng),
                        ..Slot::default()
                    };
                }
                slot.next += 1;
                slot.steps[slot.next - 1].clone()
            }
        };
        run_step(&mut self.backend, index, slot, &step, rec, tally);
    }

    /// Runs ops until `deadline`, finishing the op in flight.
    pub fn run_until(&mut self, deadline: Instant, rec: &mut Recorder, tally: &mut Tally) {
        while Instant::now() < deadline {
            self.step(rec, tally);
        }
    }
}

/// Runs `steps` on a fresh session in slot 0 and returns what came back
/// as one JSON text per step — the transcript two backends serving the
/// same data must agree on byte for byte.
pub fn transcript<B: Backend>(backend: &mut B, steps: &[Step]) -> OpResult<Vec<String>> {
    let mut rec = Recorder::off();
    backend.open(0, &mut rec)?;
    let mut lines = Vec::with_capacity(steps.len());
    for step in steps {
        lines.push(
            match step {
                Step::Carousels => serde_json::to_string(&backend.carousels(0, &mut rec)?),
                Step::Query { query, .. } => {
                    serde_json::to_string(&backend.query(0, query, &mut rec)?)
                }
                other => return Err(format!("{other:?} has no reply to compare")),
            }
            .map_err(fail("transcript json"))?,
        );
    }
    backend.close(0, &mut rec)?;
    Ok(lines)
}
