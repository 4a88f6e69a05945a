//! `cold_open` — first contact with a dataset: CSV text in, first
//! carousels, their charts and the dataset profile out. This is the
//! paper's preprocessing claim seen from the analyst's chair, and the one
//! workload where data, stats, sketch, insight scoring, the engine's index
//! and profile, and viz all sit on the critical path. One thread, ops back
//! to back; serve does nothing.

use super::{CacheCounters, Checks, Window, Workload};
use crate::backend::{fail, OpResult};
use crate::script::{Kind, CAROUSEL_WIDTH};
use crate::spans::{Recorder, Span, ROOT};
use foresight_data::csv::{read_csv_str, write_csv_string};
use foresight_data::datasets::{synth, SynthConfig};
use foresight_data::infer::InferOptions;
use foresight_data::TableSource;
use foresight_engine::{CoreBuilder, EngineCore};
use foresight_insight::AttrTuple;
use foresight_sketch::CatalogConfig;
use foresight_viz::vega::to_vega_lite;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Table shape: `ROWS × (NUMERIC + 4 categorical)`. Sized so that an op
/// takes about half a second and a run sees a few dozen of them.
pub const ROWS: usize = 10_000;
pub const NUMERIC: usize = 24;

/// What one first-contact pass produced.
pub struct ColdPass {
    pub core: Arc<EngineCore>,
    /// The first carousels, as JSON.
    pub carousels: String,
    pub carousels_ns: u64,
    /// Attributes of the strongest linear relationship shown.
    pub top_linear: Option<AttrTuple>,
    pub vega_bytes: usize,
}

/// One op: parse, preprocess, index, freeze, first carousels, a chart and
/// its Vega-Lite text for every instance shown, and the dataset profile.
pub fn cold_pass(text: &str, rec: &mut Recorder) -> OpResult<ColdPass> {
    let table = rec
        .span("data.read_csv_str", |_| {
            read_csv_str(text, "cold", &InferOptions::default())
        })
        .map_err(fail("read_csv_str"))?;
    let mut builder = rec.span("engine.builder_new", |_| {
        CoreBuilder::new(TableSource::materialized(table))
    });
    rec.span("engine.preprocess", |_| {
        builder.preprocess(&CatalogConfig::default())
    })
    .map_err(fail("preprocess"))?;
    rec.span("engine.build_index", |_| builder.build_index())
        .map_err(fail("build_index"))?;
    let core = rec.span("engine.freeze", |_| builder.freeze());
    let handle = rec.span("engine.handle", |_| core.handle());
    let t0 = Instant::now();
    let carousels = rec
        .span("engine.carousels", |_| handle.carousels(CAROUSEL_WIDTH))
        .map_err(fail("carousels"))?;
    let carousels_ns = t0.elapsed().as_nanos() as u64;
    let specs = rec
        .span("viz.chart_spec", |_| {
            carousels
                .iter()
                .flat_map(|c| &c.instances)
                .filter_map(|instance| core.chart(instance).transpose())
                .collect::<Result<Vec<_>, _>>()
        })
        .map_err(fail("chart"))?;
    let vega_bytes = rec.span("viz.vega_emit", |_| {
        specs
            .iter()
            .map(|spec| to_vega_lite(spec).to_string().len())
            .sum()
    });
    let profile = rec
        .span("engine.profile", |_| handle.profile())
        .map_err(fail("profile"))?;
    std::hint::black_box(profile);
    let top_linear = carousels
        .iter()
        .find(|c| c.class_id == "linear-relationship")
        .and_then(|c| c.instances.first())
        .map(|instance| instance.attrs);
    Ok(ColdPass {
        carousels: serde_json::to_string(&carousels).map_err(fail("carousels json"))?,
        core,
        carousels_ns,
        top_linear,
        vega_bytes,
    })
}

pub struct ColdOpen {
    /// The dataset as the analyst hands it over: CSV text.
    pub text: String,
    /// The planted correlated pairs, as unordered column pairs.
    planted: Vec<AttrTuple>,
    rec: Recorder,
    /// Carousels of the first op; every later op must reproduce them.
    reference: Option<String>,
    /// Every op builds a fresh core with a fresh cache, so the counters
    /// are summed over the ops' caches.
    cache: CacheCounters,
}

impl ColdOpen {
    /// Checks one pass against the reference and the planted structure.
    fn verify(&mut self, pass: &ColdPass) -> OpResult<()> {
        match pass.top_linear {
            Some(top) if self.planted.contains(&top) => {}
            other => {
                return Err(format!(
                    "top linear relationship {other:?} is not a planted pair"
                ))
            }
        }
        let reference = self.reference.get_or_insert_with(|| pass.carousels.clone());
        if *reference != pass.carousels {
            return Err("carousels differ from the first op's".to_owned());
        }
        Ok(())
    }
}

impl Workload for ColdOpen {
    const NAME: &'static str = "cold_open";

    fn setup(seed: u64, _seconds: f64) -> OpResult<Self> {
        let (table, truth) = synth(&SynthConfig::benchmark(ROWS, NUMERIC, seed));
        let text = write_csv_string(&table).map_err(fail("write_csv_string"))?;
        let planted = truth
            .correlated_pairs
            .iter()
            .map(|&(a, b, _)| AttrTuple::Two(a.min(b), a.max(b)))
            .collect();
        Ok(Self {
            text,
            planted,
            rec: Recorder::new(Instant::now(), false),
            reference: None,
            cache: CacheCounters::default(),
        })
    }

    fn run(&mut self, duration: Duration, traced: bool) -> Window {
        self.rec.set_enabled(traced);
        let started = Instant::now();
        let deadline = started + duration;
        let mut window = Window::starting(started, duration);
        let tally = &mut window.tally;
        while Instant::now() < deadline {
            self.rec.next_request();
            let t0 = Instant::now();
            let text = &self.text;
            let pass = self.rec.span(ROOT, |rec| cold_pass(text, rec));
            tally.record_op(Kind::ColdOpen, None, t0.elapsed().as_nanos() as u64);
            match pass.and_then(|pass| self.verify(&pass).map(|()| pass)) {
                Ok(pass) => {
                    tally.record_carousels(pass.carousels_ns);
                    let op = CacheCounters::from(pass.core.cache_stats());
                    self.cache.hits += op.hits;
                    self.cache.misses += op.misses;
                    self.cache.entries = op.entries;
                }
                Err(message) => tally.record_error(message),
            }
        }
        window.elapsed = started.elapsed();
        window
    }

    fn cache_counters(&self) -> CacheCounters {
        self.cache
    }

    fn lanes(&self) -> Vec<(String, &[Span])> {
        vec![("lane-0".to_owned(), self.rec.spans())]
    }

    fn finish(self) -> Checks {
        // every op was checked as it ran
        Checks::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::{layer_shares, self_times, NO_PARENT};

    /// North-star "the parts sum to the whole": the spans around the
    /// layer calls must account for nearly all of a cold op.
    #[test]
    fn layer_spans_cover_the_cold_op() {
        let (table, _) = synth(&SynthConfig::benchmark(2_000, 8, 3));
        let text = write_csv_string(&table).unwrap();
        let mut rec = Recorder::new(Instant::now(), true);
        for _ in 0..2 {
            rec.next_request();
            rec.span(ROOT, |rec| cold_pass(&text, rec)).unwrap();
        }
        let spans = rec.spans();
        let own = self_times(spans);
        let (mut root_total, mut root_own) = (0u64, 0u64);
        for (span, own) in spans.iter().zip(&own) {
            if span.parent == NO_PARENT {
                root_total += span.duration_ns();
                root_own += own;
            }
        }
        let cover = 1.0 - root_own as f64 / root_total as f64;
        assert!(cover >= 0.95, "layer spans cover only {cover:.3} of the op");
        let shares = layer_shares(&[spans]);
        for layer in ["data", "engine", "viz"] {
            assert!(shares[layer] > 0.0, "{layer} missing from {shares:?}");
        }
    }

    #[test]
    fn passes_repeat_and_find_a_planted_pair() {
        let mut workload = ColdOpen::setup(5, 1.0).unwrap();
        workload.text = {
            let (table, _) = synth(&SynthConfig::benchmark(1_500, NUMERIC, 5));
            write_csv_string(&table).unwrap()
        };
        let mut rec = Recorder::off();
        for _ in 0..2 {
            let pass = cold_pass(&workload.text, &mut rec).unwrap();
            assert!(pass.vega_bytes > 0);
            workload.verify(&pass).unwrap();
        }
    }
}
