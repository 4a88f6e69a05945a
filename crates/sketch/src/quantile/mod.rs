//! Quantile sketches: the mergeable KLL sketch the catalog uses.

pub mod kll;

pub use kll::KllSketch;
