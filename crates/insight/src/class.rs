//! The [`InsightClass`] trait — the paper's extensibility point (§2.2:
//! "Foresight is designed to be an extensible system where a data scientist
//! can 'plug in' new insight classes along with their corresponding ranking
//! measures and visualizations").

use crate::types::AttrTuple;
use foresight_data::Table;
use foresight_sketch::SketchCatalog;
use foresight_stats::prepared::PreparedColumns;
use foresight_viz::ChartSpec;

/// How a class's candidate space relates to pairwise column similarity —
/// what an index over per-column signatures can prune for it.
///
/// Pruned generation is *advisory*: the engine only substitutes an indexed
/// candidate list when the class declares its scan shape here, and the
/// class's own [`InsightClass::candidates`] stays the ground truth that
/// recall is measured against (and the fallback when no index exists).
///
/// Declaring a pair shape is a contract: `candidates(table)` must be
/// exactly the pairs `Two(a, b)`, `a < b`, of the declared universe, in
/// lexicographic order. The engine leans on it twice — the LSH source
/// stands in for the scan, and a query that fixes an attribute enumerates
/// only that column's partners instead of filtering the whole scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CandidatePruning {
    /// Candidate space is not pairwise-similarity shaped; always use the
    /// class's own scan.
    None,
    /// Candidates are exactly the unordered pairs of *numeric* columns
    /// ranked by a |ρ|-like metric (linear, monotonic): an LSH index over
    /// column signatures covers the whole space.
    NumericPairs,
    /// Candidates are unordered pairs over *all* columns (dependence): the
    /// index covers the numeric×numeric subset; pairs touching a
    /// non-numeric column must still be enumerated exhaustively.
    AllPairs,
}

/// One insight class: applicability rule, ranking metric(s), visualization,
/// and optional class-level overview visualization.
pub trait InsightClass: Send + Sync {
    /// Stable machine id, kebab-case (e.g. `"linear-relationship"`).
    fn id(&self) -> &'static str;

    /// Display name (e.g. `"Linear Relationship"`).
    fn name(&self) -> &'static str;

    /// One-sentence description of what a strong instance means.
    fn description(&self) -> &'static str;

    /// The primary ranking metric's name.
    fn metric(&self) -> &'static str;

    /// Names of alternative ranking metrics (may be empty). The §4.1
    /// scenario switches a correlation carousel from Pearson to Spearman.
    fn alternative_metrics(&self) -> Vec<&'static str> {
        Vec::new()
    }

    /// All attribute tuples this class applies to in `table` — the insight
    /// class as a set of candidate feature tuples (§2.1).
    fn candidates(&self, table: &Table) -> Vec<AttrTuple>;

    /// Declares the shape of [`InsightClass::candidates`] for index-assisted
    /// pruning. Defaults to [`CandidatePruning::None`] (no pruning); classes
    /// whose candidate space is the pairwise column grid override this so
    /// the engine's LSH candidate source can stand in for the O(d²) scan.
    fn pruning(&self) -> CandidatePruning {
        CandidatePruning::None
    }

    /// Exact score of `attrs` under the primary metric. Higher is stronger.
    /// `None` when the tuple is degenerate (constant column, too few rows).
    fn score(&self, table: &Table, attrs: &AttrTuple) -> Option<f64>;

    /// Exact scores for a whole batch of candidate tuples under the primary
    /// metric, in input order.
    ///
    /// The default delegates to [`InsightClass::score`] per tuple. Classes
    /// whose metric shares per-column work across tuples (centering for
    /// Pearson, ranking for Spearman) override this to materialize that work
    /// once per column instead of once per pair — the executor's batch path
    /// uses it for every tuple a query has to score.
    ///
    /// **Contract:** `score_batch(t, attrs)[i]` must be *bit-identical* to
    /// `score(t, &attrs[i])` for every tuple; the engine's property tests
    /// assert this across all registered classes.
    fn score_batch(&self, table: &Table, attrs: &[AttrTuple]) -> Vec<Option<f64>> {
        attrs.iter().map(|a| self.score(table, a)).collect()
    }

    /// Score under a named alternative metric; defaults to the primary.
    /// Naming the primary metric (or any name the class does not know)
    /// must return [`InsightClass::score`].
    fn score_metric(&self, table: &Table, attrs: &AttrTuple, metric: &str) -> Option<f64> {
        let _ = metric;
        self.score(table, attrs)
    }

    /// Exact scores for a whole batch of candidate tuples under a named
    /// metric — the primary or an alternative — in input order. This is the
    /// one call the executor scores exact tuples through.
    ///
    /// `prepared` is the caller's store of per-column transforms over
    /// `table` (and only `table`): classes whose metric shares per-column
    /// work across tuples draw it from there, so it is built once per
    /// column for as long as the caller keeps the store — one query for a
    /// standalone executor, the snapshot's lifetime for an engine core.
    ///
    /// The default takes [`InsightClass::score_batch`] for the primary
    /// metric and [`InsightClass::score_metric`] per tuple otherwise.
    ///
    /// **Contract:** `score_metric_batch(t, attrs, m, _)[i]` must be
    /// *bit-identical* to `score_metric(t, &attrs[i], m)` for every tuple
    /// and every metric the class names, whatever `prepared` already holds —
    /// exactly as `score_batch` is to `score`.
    fn score_metric_batch(
        &self,
        table: &Table,
        attrs: &[AttrTuple],
        metric: &str,
        prepared: &PreparedColumns,
    ) -> Vec<Option<f64>> {
        let _ = prepared;
        if metric == self.metric() {
            self.score_batch(table, attrs)
        } else {
            attrs
                .iter()
                .map(|a| self.score_metric(table, a, metric))
                .collect()
        }
    }

    /// Approximate score from the sketch catalog — used by the interactive
    /// query path. `None` means this class has no sketch path; the engine
    /// then falls back to the exact score.
    fn score_sketch(
        &self,
        catalog: &SketchCatalog,
        table: &Table,
        attrs: &AttrTuple,
    ) -> Option<f64> {
        let _ = (catalog, table, attrs);
        None
    }

    /// Human-readable strength sentence for a scored tuple.
    fn describe(&self, table: &Table, attrs: &AttrTuple, score: f64) -> String {
        let names: Vec<&str> = attrs
            .indices()
            .iter()
            .map(|&i| {
                table
                    .schema()
                    .field(i)
                    .map(|f| f.name.as_str())
                    .unwrap_or("?")
            })
            .collect();
        format!(
            "{} of {}: {} = {:.3}",
            self.name(),
            names.join(" × "),
            self.metric(),
            score
        )
    }

    /// The visualization of one instance (paper: each insight has one or
    /// more associated data visualizations).
    fn chart(&self, table: &Table, attrs: &AttrTuple) -> Option<ChartSpec>;

    /// The optional class-level overview visualization (paper §2.1; the
    /// linear-relationship class's overview is the Figure 2 heatmap).
    fn overview(&self, table: &Table) -> Option<ChartSpec> {
        let _ = table;
        None
    }
}

/// Helper: the column name at `idx` (empty string if out of range).
pub fn column_name(table: &Table, idx: usize) -> &str {
    table
        .schema()
        .field(idx)
        .map(|f| f.name.as_str())
        .unwrap_or("")
}
