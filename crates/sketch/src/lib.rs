//! # foresight-sketch
//!
//! The paper's §3 sketching substrate: lossy, single-pass, composable
//! summaries that make insight queries interactive on large tables.
//!
//! * [`hyperplane`] — random hyperplane (SimHash) correlation sketch, the
//!   paper's worked example: `ρ̂ = cos(πH/k)` from `|B|·k` bits
//! * [`lsh`] — banded multi-table LSH index over the hyperplane signatures:
//!   K-bit band keys × L tables turn the per-column sketches into an
//!   ~O(d·L) candidate generator for pairwise insight classes
//! * [`quantile`] — the mergeable KLL quantile sketch
//! * [`freq`] — the SpaceSaving frequent-items sketch
//! * [`hll`] — HyperLogLog distinct counting
//! * [`entropy`] — maximally-skewed-stable entropy sketch
//! * [`sample`] — reservoir samples (plain and row-aligned pairs)
//! * [`dyadic`] — moment aggregation over a fixed dyadic merge tree, so a
//!   catalog is bit-identical however its rows were sharded
//! * [`catalog`] — the per-table catalog built in the preprocessing phase
//! * [`bits`] and [`traits`] — the packed bit vector and the
//!   `Sketch` / `Mergeable` contracts every family implements
#![warn(missing_docs)]

pub mod bits;
pub mod catalog;
pub mod dyadic;
pub mod entropy;
pub mod freq;
pub mod hll;
pub mod hyperplane;
pub mod lsh;
pub mod quantile;
pub mod sample;
pub mod traits;

pub use bits::BitVec;
pub use catalog::{CatalogConfig, SketchCatalog};
pub use dyadic::MomentForest;
pub use entropy::EntropySketch;
pub use freq::SpaceSaving;
pub use hll::HyperLogLog;
pub use hyperplane::{HyperplaneConfig, HyperplaneSketch, SharedHyperplanes};
pub use lsh::{LshConfig, LshIndex, LshSkip};
pub use quantile::KllSketch;
pub use sample::{PairReservoir, Reservoir};
pub use traits::{MergeError, Mergeable, Sketch};
