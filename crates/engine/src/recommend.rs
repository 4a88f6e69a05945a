//! Carousel assembly — the Figure-1 experience: one ranked row of insights
//! per class, re-ranked toward the session's focused insights.

use crate::error::Result;
use crate::executor::Executor;
use crate::neighborhood::{rerank, NeighborhoodWeights};
use crate::query::InsightQuery;
use crate::session::Session;
use crate::telemetry::Stage;
use foresight_insight::{InsightClass, InsightInstance};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Default focus over-fetch factor: with a non-empty focus set, each
/// carousel query fetches `per_class ×` this many instances before the
/// neighborhood re-rank (§4.1) trims back to `per_class`. The re-rank can
/// only promote insights the query returned, so the factor bounds how far
/// outside the raw top-k the focus neighborhood can reach; 4 keeps the
/// over-fetch cheap while giving the re-rank a candidate pool several
/// times the strip width.
pub const DEFAULT_FOCUS_OVERFETCH: usize = 4;

/// One carousel: a ranked strip of insights from a single class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Carousel {
    /// The class id.
    pub class_id: String,
    /// Display name.
    pub class_name: String,
    /// The ranking metric used.
    pub metric: String,
    /// Ranked instances, strongest (or most focus-relevant) first.
    pub instances: Vec<InsightInstance>,
}

/// How carousels are assembled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CarouselConfig {
    /// Instances per carousel.
    pub per_class: usize,
    /// Neighborhood re-ranking weights.
    pub weights: NeighborhoodWeights,
    /// Focus over-fetch factor (see [`DEFAULT_FOCUS_OVERFETCH`]).
    pub focus_overfetch: usize,
}

impl Default for CarouselConfig {
    fn default() -> Self {
        Self {
            per_class: 5,
            weights: NeighborhoodWeights::default(),
            focus_overfetch: DEFAULT_FOCUS_OVERFETCH,
        }
    }
}

/// Builds one carousel per class registered with `executor`.
///
/// Without a focus set this shows each class's strongest instances — the
/// first, open-ended stage of exploration. With focused insights, each
/// carousel is re-ranked toward the focus neighborhood (§4.1: "Foresight
/// updates its recommendations by choosing a subset of insights within the
/// neighborhood of the focused insight").
///
/// A parallel executor assembles one task per class, output order
/// preserved and results identical to serial assembly. The vendored rayon
/// stand-in runs any fan-out narrower than 32 items inline on the caller's
/// thread, so with the twelve built-in classes this is serial assembly
/// today.
pub fn carousels(
    executor: &Executor<'_>,
    session: &Session,
    config: &CarouselConfig,
) -> Result<Vec<Carousel>> {
    let one = |class: &Arc<dyn InsightClass>| -> Result<Carousel> {
        // one span per class: parallel assembly records one sample per
        // carousel either way
        let _span = executor.metrics.map(|m| m.span(Stage::Carousel));
        // over-fetch so the neighborhood re-rank has material to promote
        let fetch = if session.focus.is_empty() {
            config.per_class
        } else {
            config.per_class * config.focus_overfetch.max(1)
        };
        let query = InsightQuery::class(class.id()).top_k(fetch);
        let mut instances = executor.execute(&query)?;
        rerank(&mut instances, &session.focus, config.weights);
        instances.truncate(config.per_class);
        Ok(Carousel {
            class_id: class.id().to_owned(),
            class_name: class.name().to_owned(),
            metric: class.metric().to_owned(),
            instances,
        })
    };
    let classes = executor.registry.classes();
    if executor.parallel {
        // one task per class; collect preserves registry order
        classes.par_iter().map(one).collect()
    } else {
        classes.iter().map(one).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foresight_data::TableBuilder;
    use foresight_insight::{AttrTuple, InsightRegistry};

    fn config(per_class: usize, weights: NeighborhoodWeights) -> CarouselConfig {
        CarouselConfig {
            per_class,
            weights,
            ..CarouselConfig::default()
        }
    }

    fn setup() -> (foresight_data::Table, InsightRegistry) {
        let x: Vec<f64> = (0..200).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| 2.0 * v).collect();
        let z: Vec<f64> = (0..200).map(|i| ((i * 37) % 200) as f64).collect();
        let t = TableBuilder::new("t")
            .numeric("x", x)
            .numeric("y", y)
            .numeric("z", z)
            .categorical("c", (0..200).map(|i| if i % 2 == 0 { "a" } else { "b" }))
            .build()
            .unwrap();
        (t, InsightRegistry::default())
    }

    #[test]
    fn one_carousel_per_class() {
        let (t, r) = setup();
        let ex = Executor::exact(&t, &r);
        let session = Session::new("t");
        let cs = carousels(&ex, &session, &config(3, NeighborhoodWeights::default())).unwrap();
        assert_eq!(cs.len(), 12);
        for c in &cs {
            assert!(c.instances.len() <= 3);
            for w in c.instances.windows(2) {
                // without focus, carousels are strongest-first
                assert!(w[0].score >= w[1].score, "{} not sorted", c.class_id);
            }
        }
    }

    #[test]
    fn focus_changes_ranking() {
        let (t, r) = setup();
        let ex = Executor::exact(&t, &r);
        let mut session = Session::new("t");
        let unfocused =
            carousels(&ex, &session, &config(3, NeighborhoodWeights::default())).unwrap();
        // focus an insight about column z (index 2)
        session.focus(InsightInstance {
            class_id: "dispersion".into(),
            attrs: AttrTuple::One(2),
            score: 1.0,
            metric: "variance".into(),
            detail: String::new(),
        });
        let focused = carousels(
            &ex,
            &session,
            &config(3, NeighborhoodWeights { similarity: 0.9 }),
        )
        .unwrap();
        // the linear carousel should now lead with pairs touching column 2
        let linear = focused
            .iter()
            .find(|c| c.class_id == "linear-relationship")
            .unwrap();
        assert!(
            linear.instances[0].attrs.contains(2),
            "focus did not pull neighborhood forward: {:?}",
            linear.instances[0].attrs
        );
        // and the unfocused ranking led with the perfect (0,1) pair
        let linear_before = unfocused
            .iter()
            .find(|c| c.class_id == "linear-relationship")
            .unwrap();
        assert_eq!(linear_before.instances[0].attrs, AttrTuple::Two(0, 1));
    }
}
