//! Partition-invariant moment aggregation over a dyadic merge tree.
//!
//! `Moments::merge` (Pébay) is exact in real arithmetic but not in floats:
//! merging per-shard summaries agrees with a single sequential pass only up
//! to rounding, and the rounding depends on where the shard boundaries fall.
//! That is fine for accuracy but breaks a stronger property the partition
//! pipeline wants: *the same table must produce the same catalog no matter
//! how its rows were sharded*.
//!
//! [`MomentForest`] restores bit-level determinism by fixing the reduction
//! tree instead of the evaluation order. Every global row is a leaf; a node
//! of height `h` covers the dyadic range `[i·2ʰ, (i+1)·2ʰ)` and its value is
//! *defined* as the Pébay merge of its two children. A shard holds the
//! canonical nodes its contiguous row range decomposes into (O(log n) of
//! them); merging shards collapses completed sibling pairs. Since each
//! node's value is a pure function of the rows it covers — never of which
//! shard supplied them — the collapsed forest, and the fold of its roots,
//! is bit-identical across every partitioning of the same rows, including
//! the single-shard (whole-table) build.
//!
//! The price is ~2 Pébay merges per row amortized instead of one Welford
//! update — a constant factor on the cheapest sketch in the catalog — and
//! O(log n) `Moments` of state per column instead of one.

use crate::traits::{MergeError, Mergeable};
use foresight_stats::moments::Moments;
use serde::{Deserialize, Serialize};

/// One canonical dyadic node: rows `[start, start + 2^height)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct Node {
    start: u64,
    height: u8,
    moments: Moments,
}

impl Node {
    fn span(&self) -> u64 {
        1u64 << self.height
    }

    fn end(&self) -> u64 {
        self.start + self.span()
    }

    /// `self` and `right` are the two children of one canonical parent.
    fn is_left_sibling_of(&self, right: &Node) -> bool {
        self.height == right.height
            && right.start == self.start + self.span()
            && self.start.is_multiple_of(self.span() * 2)
    }
}

/// A mergeable, partition-invariant [`Moments`] aggregate (see module docs).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MomentForest {
    /// Canonical nodes of the covered ranges, sorted by `start`, maximally
    /// collapsed (no two adjacent nodes form a canonical sibling pair).
    nodes: Vec<Node>,
}

impl MomentForest {
    /// An empty forest.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorbs a contiguous chunk of a column starting at global row
    /// `row_offset` (`NaN` = missing, covered but empty). Rows must be fed
    /// in increasing global order and must not overlap earlier calls.
    pub fn update_rows(&mut self, values: &[f64], row_offset: u64) {
        for (j, &v) in values.iter().enumerate() {
            let mut moments = Moments::new();
            if !v.is_nan() {
                moments.update(v);
            }
            self.push(Node {
                start: row_offset + j as u64,
                height: 0,
                moments,
            });
        }
    }

    /// Appends a node that starts at or after everything already held,
    /// then collapses completed sibling pairs bottom-up.
    fn push(&mut self, node: Node) {
        self.nodes.push(node);
        while self.nodes.len() >= 2 {
            let right = self.nodes[self.nodes.len() - 1];
            let left = self.nodes[self.nodes.len() - 2];
            if !left.is_left_sibling_of(&right) {
                break;
            }
            let mut moments = left.moments;
            moments.merge(&right.moments);
            self.nodes.truncate(self.nodes.len() - 2);
            self.nodes.push(Node {
                start: left.start,
                height: left.height + 1,
                moments,
            });
        }
    }

    /// Rows covered (present and missing alike).
    pub fn rows_covered(&self) -> u64 {
        self.nodes.iter().map(Node::span).sum()
    }

    /// Folds the canonical roots right-to-left into one summary.
    ///
    /// For a fixed set of covered rows the node set — and therefore this
    /// fold — is canonical, so the result is bit-identical across every
    /// partitioning of those rows.
    ///
    /// The fold runs right-to-left on purpose: it makes the result
    /// additionally invariant to *trailing empty coverage* (all-NaN rows
    /// appended by a stream batch that leaves this column untouched).
    /// Extending coverage restructures the forest only by (a) growing the
    /// last root through merges with empty siblings — bitwise no-ops — and
    /// (b) collapsing the last two roots into their parent, which is
    /// exactly the pairing a right-to-left fold performs first anyway. So
    /// the fold equals the value the fully-padded canonical tree would
    /// reach, and a column's finalized moments cannot move a bit when the
    /// streaming writer appends rows that hold no values for it — the
    /// invariant column-granular cache reuse is built on.
    pub fn finalize(&self) -> Moments {
        let mut out = Moments::new();
        for node in self.nodes.iter().rev() {
            let mut m = node.moments;
            m.merge(&out);
            out = m;
        }
        out
    }
}

impl Mergeable for MomentForest {
    /// Merges another forest covering disjoint global rows, re-collapsing
    /// any sibling pairs the union completes.
    fn merge(&mut self, other: &Self) -> Result<(), MergeError> {
        if other.nodes.is_empty() {
            return Ok(());
        }
        let mut all: Vec<Node> = Vec::with_capacity(self.nodes.len() + other.nodes.len());
        all.extend_from_slice(&self.nodes);
        all.extend_from_slice(&other.nodes);
        all.sort_by_key(|n| n.start);
        for pair in all.windows(2) {
            if pair[1].start < pair[0].end() {
                return Err(MergeError::ParameterMismatch("overlapping row ranges"));
            }
        }
        let mut merged = MomentForest::new();
        for node in all {
            merged.push(node);
        }
        *self = merged;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn from_whole(values: &[f64]) -> MomentForest {
        let mut f = MomentForest::new();
        f.update_rows(values, 0);
        f
    }

    #[test]
    fn single_pass_equals_welford_within_tolerance() {
        let values: Vec<f64> = (0..1_000).map(|i| ((i * 37) % 101) as f64 * 0.25).collect();
        let tree = from_whole(&values).finalize();
        let seq = Moments::from_slice(&values);
        assert_eq!(tree.count(), seq.count());
        assert!((tree.mean() - seq.mean()).abs() < 1e-12);
        assert!((tree.skewness() - seq.skewness()).abs() < 1e-9);
        assert!((tree.kurtosis() - seq.kurtosis()).abs() < 1e-9);
        assert_eq!(tree.min(), seq.min());
        assert_eq!(tree.max(), seq.max());
    }

    #[test]
    fn bit_identical_across_arbitrary_splits() {
        let values: Vec<f64> = (0..777)
            .map(|i| (i as f64 * 0.618).sin() * 40.0 + ((i % 7) as f64))
            .collect();
        let whole = from_whole(&values).finalize();
        for splits in [
            vec![0, 1, 777],
            vec![0, 100, 333, 777],
            vec![0, 64, 128, 400, 500, 777],
            vec![0, 776, 777],
        ] {
            let mut merged = MomentForest::new();
            for pair in splits.windows(2) {
                let mut shard = MomentForest::new();
                shard.update_rows(&values[pair[0]..pair[1]], pair[0] as u64);
                merged.merge(&shard).unwrap();
            }
            // bit-identical, not just close
            assert_eq!(merged.finalize(), whole, "splits {splits:?}");
        }
    }

    #[test]
    fn out_of_order_and_gapped_merges() {
        let values: Vec<f64> = (0..300).map(|i| (i % 13) as f64).collect();
        let whole = from_whole(&values).finalize();
        let mut a = MomentForest::new();
        a.update_rows(&values[200..300], 200);
        let mut b = MomentForest::new();
        b.update_rows(&values[..50], 0);
        let mut c = MomentForest::new();
        c.update_rows(&values[50..200], 50);
        let mut merged = MomentForest::new();
        merged.merge(&a).unwrap();
        merged.merge(&b).unwrap();
        merged.merge(&c).unwrap();
        assert_eq!(merged.finalize(), whole);
    }

    #[test]
    fn missing_rows_and_empty_shards() {
        let mut values: Vec<f64> = (0..128).map(|i| i as f64).collect();
        values[3] = f64::NAN;
        values[64] = f64::NAN;
        let whole = from_whole(&values).finalize();
        assert_eq!(whole.count(), 126);

        let mut merged = MomentForest::new();
        let mut shard = MomentForest::new();
        shard.update_rows(&values[..70], 0);
        merged.merge(&shard).unwrap();
        merged.merge(&MomentForest::new()).unwrap(); // empty shard
        let mut rest = MomentForest::new();
        rest.update_rows(&values[70..], 70);
        merged.merge(&rest).unwrap();
        assert_eq!(merged.finalize(), whole);
    }

    #[test]
    fn trailing_empty_coverage_is_bit_identical() {
        // a stream batch whose rows are all NaN for this column extends
        // the forest's coverage without adding values; the finalized
        // moments must not move a single bit, or the engine's "clean
        // column keeps its cached scores" rule would serve wrong answers
        let values: Vec<f64> = (0..84)
            .map(|i| (i as f64 * 0.618).sin() * 40.0 + ((i % 7) as f64))
            .collect();
        let base = from_whole(&values).finalize();
        for pad in [1usize, 4, 20, 44, 100] {
            let mut padded = values.clone();
            padded.extend(std::iter::repeat_n(f64::NAN, pad));
            let grown = from_whole(&padded).finalize();
            assert_eq!(grown, base, "pad {pad}");

            // and via the merge path, as the streaming writer drives it
            let mut merged = from_whole(&values);
            let mut empty_shard = MomentForest::new();
            empty_shard.update_rows(&vec![f64::NAN; pad], 84);
            merged.merge(&empty_shard).unwrap();
            assert_eq!(merged.finalize(), base, "merged pad {pad}");
        }
    }

    #[test]
    fn overlap_rejected() {
        let values = [1.0, 2.0, 3.0, 4.0];
        let mut a = MomentForest::new();
        a.update_rows(&values, 0);
        let mut b = MomentForest::new();
        b.update_rows(&values, 2);
        assert!(matches!(
            a.merge(&b),
            Err(MergeError::ParameterMismatch("overlapping row ranges"))
        ));
    }

    #[test]
    fn state_stays_logarithmic() {
        let values: Vec<f64> = (0..10_000).map(|i| i as f64).collect();
        let f = from_whole(&values);
        assert!(f.nodes.len() <= 16, "{} nodes", f.nodes.len());
        assert_eq!(f.rows_covered(), 10_000);
    }
}
