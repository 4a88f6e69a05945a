//! # foresight-stats
//!
//! Exact statistics for the Foresight insight-recommendation system: the
//! ranking metrics behind every insight class (§2.2 of the paper) and the
//! ground truth that the sketch estimators in `foresight-sketch` are
//! measured against.
//!
//! * [`kernel`] — lane-split f64 reduction kernels (vectorized/scalar modes)
//! * [`moments`] — single-pass mergeable mean/variance/skewness/kurtosis
//! * [`correlation`] — Pearson, Spearman, Kendall τ-b, full matrices
//! * [`prepared`] — per-table store of centred values / centred ranks
//! * [`quantile`] / [`histogram`] / [`kde`] — distribution shape
//! * [`outlier`] — pluggable detectors and the outlier-strength metric
//! * [`frequency`] — `RelFreq(k)`, entropy, heavy hitters
//! * [`dependence`] — χ², Cramér's V, (binned) mutual information
//! * [`multimodal`] — Hartigan's dip statistic, bimodality coefficient
//! * [`normality`] — Jarque–Bera
//! * [`kmeans`] — k-means++ and silhouette (segmentation insight)
//! * [`regression`] — OLS best-fit line for scatter plots

#![warn(missing_docs)]

pub mod correlation;
pub mod dependence;
pub mod describe;
pub mod frequency;
pub mod histogram;
pub mod kde;
pub mod kernel;
pub mod kmeans;
pub mod moments;
pub mod multimodal;
pub mod normality;
pub mod outlier;
pub mod prepared;
pub mod quantile;
pub mod rank;
pub mod regression;
pub mod special;

pub use correlation::{kendall_tau_b, pearson, pearson_matrix, spearman};
pub use describe::{describe, Description};
pub use frequency::FrequencyTable;
pub use histogram::{BinRule, Histogram};
pub use moments::Moments;
pub use multimodal::dip_statistic;
pub use normality::{jarque_bera, normality_score};
pub use outlier::{outlier_strength, IqrDetector, MadDetector, OutlierDetector, ZScoreDetector};
pub use special::{chi2_sf, gamma_p, gamma_q, ln_gamma};
