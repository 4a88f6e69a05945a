//! # Foresight
//!
//! A Rust implementation of **"Foresight: Recommending Visual Insights"**
//! (Demiralp, Haas, Parthasarathy, Pedapati — VLDB 2017): a system that
//! recommends *visual insights* — strong manifestations of distributional
//! properties — over large, high-dimensional tables, and lets the user
//! explore the space of insights directly through insight queries,
//! focus-driven neighborhoods, and class-level overview visualizations,
//! with sketch-based approximation for interactive speed.
//!
//! This crate is the facade over the workspace:
//!
//! | crate | contents |
//! |---|---|
//! | [`data`] | column-oriented tables, CSV, type inference, demo datasets |
//! | [`stats`] | exact ranking metrics (moments, correlation, dip, …) |
//! | [`sketch`] | hyperplane/KLL/GK/SpaceSaving/entropy/… sketches + catalog |
//! | [`viz`] | chart specs + SVG / terminal / Vega-Lite renderers |
//! | [`insight`] | the 12 insight classes and the plug-in registry |
//! | [`engine`] | insight queries, neighborhoods, sessions, carousels |
//! | [`serve`] | network front end: wire protocol, admission control, sessions |
//!
//! ## Quick start
//! ```
//! use foresight::prelude::*;
//!
//! // load a demo dataset and ask for the strongest correlations
//! let mut fs = Foresight::new(datasets::oecd());
//! let top = fs
//!     .query(&InsightQuery::class("linear-relationship").top_k(3))
//!     .unwrap();
//! assert_eq!(top.len(), 3);
//!
//! // switch to interactive (sketch-backed) mode
//! fs.preprocess(&CatalogConfig::default()).unwrap();
//! let carousels = fs.carousels(3).unwrap();
//! assert_eq!(carousels.len(), 12);
//! ```
//!
//! ## Partitioned ingest
//! ```
//! use foresight::prelude::*;
//!
//! // rows arrive as disjoint shards; they are sketched per-shard and the
//! // catalogs merged — the shards are never concatenated
//! let whole = datasets::oecd();
//! let shards: Vec<Table> = vec![
//!     whole.filter_rows(|r| r < 20),
//!     whole.filter_rows(|r| r >= 20),
//! ];
//! let mut fs = Foresight::from_source(TableSource::sharded(shards).unwrap());
//! fs.preprocess(&CatalogConfig::default()).unwrap();
//! let top = fs
//!     .query(&InsightQuery::class("skew").top_k(1))
//!     .unwrap();
//! assert_eq!(top.len(), 1);
//! ```
//!
//! ## Concurrent serving
//! ```
//! use foresight::prelude::*;
//! use std::sync::Arc;
//!
//! // one immutable core snapshot, any number of per-user sessions
//! let core = EngineCore::builder(TableSource::materialized(datasets::oecd())).freeze();
//! let handles: Vec<_> = (0..4)
//!     .map(|_| {
//!         let mut h = core.handle();
//!         std::thread::spawn(move || {
//!             h.query(&InsightQuery::class("skew").top_k(2)).unwrap()
//!         })
//!     })
//!     .collect();
//! let results: Vec<_> = handles.into_iter().map(|t| t.join().unwrap()).collect();
//! assert!(results.windows(2).all(|w| w[0] == w[1]));
//! # let _ = Arc::strong_count(&core);
//! ```

pub use foresight_data as data;
pub use foresight_engine as engine;
pub use foresight_insight as insight;
pub use foresight_serve as serve;
pub use foresight_sketch as sketch;
pub use foresight_stats as stats;
pub use foresight_viz as viz;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use foresight_data::datasets;
    pub use foresight_data::{Table, TableBuilder, TableSource};
    pub use foresight_engine::{
        profile, AdoptPolicy, AlertEvent, CandidateStrategy, Carousel, ColumnProfile, CoreBuilder,
        DatasetProfile, EngineCore, EngineError, Executor, Explained, Foresight, HealthPolicy,
        HealthState, InsightQuery, Metrics, MetricsSnapshot, Mode, Monitor, MonitorConfig,
        MonitorSample, MonitorTarget, NeighborhoodWeights, PublishedCore, QueryOptions, QueryTrace,
        RepublishPolicy, Session, SessionHandle, SlowQuery, Staleness, StreamConfig, StreamWriter,
        TraceMode, Tracer,
    };
    pub use foresight_insight::{AttrTuple, InsightClass, InsightInstance, InsightRegistry};
    pub use foresight_sketch::{CatalogConfig, SketchCatalog};
    pub use foresight_viz::{
        carousel, render_svg, render_text, to_vega_lite, ChartSpec, Report, SvgOptions,
    };
}
