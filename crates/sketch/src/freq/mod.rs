//! Frequent-items sketches: SpaceSaving (upper bounds), the one the
//! catalog uses.

pub mod space_saving;

pub use space_saving::SpaceSaving;
