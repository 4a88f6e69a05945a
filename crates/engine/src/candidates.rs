//! Candidate generation strategies: the quadratic class scan vs. LSH bucket
//! collisions.
//!
//! Every pairwise insight class historically enumerated all O(d²) column
//! pairs and let scoring sort them out. [`CandidateSource`] is the engine's
//! seam between that scan and the [`LshIndex`] built alongside the catalog:
//! classes that declare a pairwise candidate shape
//! ([`CandidatePruning::NumericPairs`] / [`CandidatePruning::AllPairs`])
//! can draw candidates from bucket collisions in ~O(d·L), with the
//! existing exact/sketch scorer as the verify step. Everything else — and
//! every run below the width threshold, or with recall pinned to 1.0 —
//! falls back to the class's own `candidates()` scan. Under the default
//! [`CandidateStrategy::Auto`] a filled rank order comes before either:
//! the executor walks it, exactly, before asking for candidates.

use foresight_data::Table;
use foresight_insight::{AttrTuple, CandidatePruning, InsightClass};
use foresight_sketch::lsh::LshIndex;
use serde::{Deserialize, Serialize};

/// Whether the `FORESIGHT_DISABLE_LSH=1` environment variable
/// force-disables the index. The freeze path consults this before building
/// or refreshing; CI runs the whole test suite under it to prove every
/// query path falls back to the exhaustive scan when no index exists.
pub fn lsh_disabled() -> bool {
    std::env::var("FORESIGHT_DISABLE_LSH").is_ok_and(|v| v == "1")
}

/// Minimum numeric width before [`CandidateStrategy::Auto`] switches from
/// the quadratic scan to LSH collisions. Below this the d² scan is already
/// microseconds and the index's recall loss buys nothing.
pub const LSH_WIDTH_THRESHOLD: usize = 64;

/// How a query's candidate tuples are generated — the recall-vs-speed knob
/// surfaced on `SessionHandle` and over the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum CandidateStrategy {
    /// Resolves, per query, to the cheapest exact-or-indexed path: a
    /// filled rank order first (an unfixed, undiversified query walks it,
    /// bit-identical to [`Exhaustive`](Self::Exhaustive));
    /// else LSH collisions when an index exists and the table is at least
    /// [`LSH_WIDTH_THRESHOLD`] numeric columns wide; else the quadratic
    /// scan. The default.
    #[default]
    Auto,
    /// Force LSH collisions whenever an index exists, probing `probes`
    /// tables (`None` = all L tables). Fewer probes = faster, lower recall.
    Lsh {
        /// Number of tables to probe; `None` probes all of them.
        probes: Option<usize>,
    },
    /// Recall = 1.0: always the class's own quadratic scan, bit-identical
    /// to an engine without the index.
    Exhaustive,
}

impl CandidateStrategy {
    /// Parses the wire/REPL spelling: `auto`, `exhaustive` (alias `exact`),
    /// `lsh`, or `lsh:<probes>`.
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim() {
            "auto" => Some(CandidateStrategy::Auto),
            "exhaustive" | "exact" => Some(CandidateStrategy::Exhaustive),
            "lsh" => Some(CandidateStrategy::Lsh { probes: None }),
            other => {
                let probes = other.strip_prefix("lsh:")?.parse().ok()?;
                Some(CandidateStrategy::Lsh {
                    probes: Some(probes),
                })
            }
        }
    }

    /// The stable spelling accepted back by [`CandidateStrategy::parse`].
    pub fn name(&self) -> String {
        match self {
            CandidateStrategy::Auto => "auto".to_owned(),
            CandidateStrategy::Exhaustive => "exhaustive".to_owned(),
            CandidateStrategy::Lsh { probes: None } => "lsh".to_owned(),
            CandidateStrategy::Lsh { probes: Some(p) } => format!("lsh:{p}"),
        }
    }
}

/// Where a query's candidates came from, with the collision accounting that
/// EXPLAIN and telemetry report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CandidateOrigin {
    /// The class's own `candidates()` scan (quadratic for pairwise classes).
    ClassScan,
    /// The class scan restricted to the partners of one fixed attribute —
    /// the paper's `(x̄, y)` query shape (§2.1) — enumerated directly from
    /// the class's declared pair shape: d − 1 tuples, not d(d − 1)/2 and a
    /// filter.
    PinnedScan {
        /// The fixed column whose partners were enumerated.
        column: usize,
    },
    /// LSH bucket collisions (plus, for [`CandidatePruning::AllPairs`]
    /// classes, the exhaustively-enumerated pairs outside the index).
    Lsh {
        /// Unordered numeric pairs produced by bucket collisions — the `N`
        /// in "candidates from LSH bucket collisions: N of d²".
        collision_pairs: usize,
        /// Numeric columns the index has seen (indexed + skipped) — the `d`.
        universe_columns: usize,
        /// Tables actually probed — the `L` reported by EXPLAIN.
        tables_probed: usize,
    },
}

/// A generated candidate list plus its provenance.
#[derive(Debug, Clone)]
pub struct CandidatePlan {
    /// The candidate tuples, ready for the filter → score → rank pipeline.
    pub tuples: Vec<AttrTuple>,
    /// How they were generated.
    pub origin: CandidateOrigin,
}

/// Resolves a [`CandidateStrategy`] against the (optional) LSH index and a
/// class's declared pruning shape. Copyable view — borrows the index from
/// the core snapshot that owns it.
#[derive(Debug, Clone, Copy)]
pub struct CandidateSource<'a> {
    lsh: Option<&'a LshIndex>,
    strategy: CandidateStrategy,
}

impl<'a> CandidateSource<'a> {
    /// A source over `lsh` (if built) under `strategy`.
    pub fn new(lsh: Option<&'a LshIndex>, strategy: CandidateStrategy) -> Self {
        Self { lsh, strategy }
    }

    /// The recall-1.0 source: always the class scan. This is what a plain
    /// [`Executor`](crate::Executor) uses unless told otherwise.
    pub fn exhaustive() -> Self {
        Self {
            lsh: None,
            strategy: CandidateStrategy::Exhaustive,
        }
    }

    /// The strategy in effect.
    pub fn strategy(&self) -> CandidateStrategy {
        self.strategy
    }

    /// Would `class` on `table` draw candidates from LSH collisions under
    /// this source when no rank order answers the query?
    pub fn would_use_lsh(&self, class: &dyn InsightClass, table: &Table) -> bool {
        self.resolves_to_lsh(class.pruning(), table)
    }

    /// May a filled rank order answer an unfixed query on `class`? Yes,
    /// but under a forced [`CandidateStrategy::Lsh`] that draws collisions
    /// for it.
    pub fn walks_orders(&self, class: &dyn InsightClass, table: &Table) -> bool {
        !matches!(self.strategy, CandidateStrategy::Lsh { .. }) || !self.would_use_lsh(class, table)
    }

    fn resolves_to_lsh(&self, pruning: CandidatePruning, table: &Table) -> bool {
        if pruning == CandidatePruning::None || self.lsh.is_none() {
            return false;
        }
        match self.strategy {
            CandidateStrategy::Exhaustive => false,
            CandidateStrategy::Lsh { .. } => true,
            CandidateStrategy::Auto => table.numeric_indices().len() >= LSH_WIDTH_THRESHOLD,
        }
    }

    /// Generates candidates for `class` on `table` for a query that fixes
    /// the attributes `fixed` (empty = none).
    ///
    /// The plan is a superset of the class's candidates that contain every
    /// fixed attribute; callers still apply the query's own filters. When
    /// the class scan is the origin and the class declares a pair shape,
    /// a fixed attribute inside the declared universe is *pinned*: only its
    /// partners are enumerated, in the scan's own (sorted-tuple) order —
    /// exactly `class.candidates(table)` filtered by `fixed`, which is the
    /// contract [`CandidatePruning`] states and the LSH path already
    /// relies on. Classes with [`CandidatePruning::None`] and pins outside
    /// the universe get the full scan.
    pub fn generate(
        &self,
        class: &dyn InsightClass,
        table: &Table,
        fixed: &[usize],
    ) -> CandidatePlan {
        let pruning = class.pruning();
        if !self.resolves_to_lsh(pruning, table) {
            return match pinned_pairs(pruning, table, fixed) {
                Some((column, tuples)) => CandidatePlan {
                    tuples,
                    origin: CandidateOrigin::PinnedScan { column },
                },
                None => CandidatePlan {
                    tuples: class.candidates(table),
                    origin: CandidateOrigin::ClassScan,
                },
            };
        }
        let index = self.lsh.expect("resolves_to_lsh checked");
        let probes = match self.strategy {
            CandidateStrategy::Lsh { probes: Some(p) } => p,
            _ => usize::MAX, // all tables
        };
        let (pairs, tables_probed) = index.candidate_pairs(probes);
        let collision_pairs = pairs.len();
        let mut tuples: Vec<AttrTuple> = pairs
            .into_iter()
            .map(|(a, b)| AttrTuple::Two(a, b))
            .collect();
        if pruning == CandidatePruning::AllPairs {
            // The index covers only numeric×numeric; pairs touching a
            // non-numeric column keep the exhaustive enumeration.
            let mut numeric = vec![false; table.n_cols()];
            for i in table.numeric_indices() {
                numeric[i] = true;
            }
            for a in 0..table.n_cols() {
                for b in (a + 1)..table.n_cols() {
                    if !(numeric[a] && numeric[b]) {
                        tuples.push(AttrTuple::Two(a, b));
                    }
                }
            }
        }
        CandidatePlan {
            tuples,
            origin: CandidateOrigin::Lsh {
                collision_pairs,
                universe_columns: index.universe_columns(),
                tables_probed,
            },
        }
    }
}

/// The pairs of a declared pair shape that contain every column of
/// `fixed`, in the class scan's order, with the pinned column — or `None`
/// when nothing is fixed, the class declares no shape, or the first fixed
/// column lies outside the shape's universe (then the full scan decides).
fn pinned_pairs(
    pruning: CandidatePruning,
    table: &Table,
    fixed: &[usize],
) -> Option<(usize, Vec<AttrTuple>)> {
    let &pin = fixed.first()?;
    // both universes are ascending, and the scan enumerates (a, b), a < b,
    // in lexicographic order — so the pin's partners in universe order are
    // already in scan order
    let universe = match pruning {
        CandidatePruning::None => return None,
        CandidatePruning::NumericPairs => table.numeric_indices(),
        CandidatePruning::AllPairs => (0..table.n_cols()).collect(),
    };
    universe.binary_search(&pin).ok()?;
    let tuples = universe
        .into_iter()
        .filter(|&partner| partner != pin)
        .map(|partner| AttrTuple::Two(pin.min(partner), pin.max(partner)))
        .filter(|pair| fixed[1..].iter().all(|&f| pair.contains(f)))
        .collect();
    Some((pin, tuples))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_parse_roundtrip() {
        for s in ["auto", "exhaustive", "lsh", "lsh:3"] {
            let parsed = CandidateStrategy::parse(s).unwrap();
            assert_eq!(parsed.name(), s);
            assert_eq!(CandidateStrategy::parse(&parsed.name()), Some(parsed));
        }
        assert_eq!(
            CandidateStrategy::parse("exact"),
            Some(CandidateStrategy::Exhaustive)
        );
        assert_eq!(CandidateStrategy::parse("lsh:"), None);
        assert_eq!(CandidateStrategy::parse("lsh:x"), None);
        assert_eq!(CandidateStrategy::parse("nope"), None);
    }

    #[test]
    fn default_is_auto() {
        assert_eq!(CandidateStrategy::default(), CandidateStrategy::Auto);
    }

    /// OECD, a synth table (categoricals last), and one with categorical
    /// columns first and in the middle of the numeric ones.
    fn shape_tables() -> Vec<Table> {
        use foresight_data::datasets::{oecd, synth, SynthConfig};
        use foresight_data::TableBuilder;
        let rows = 40;
        let numeric = |k: usize| -> Vec<f64> {
            (0..rows)
                .map(|r| ((r * (k + 3)) % 17) as f64 + k as f64)
                .collect()
        };
        let labels = |m: usize| (0..rows).map(move |r| ["a", "b", "c"][(r / m) % 3]);
        let interleaved = TableBuilder::new("interleaved")
            .categorical("c0", labels(1))
            .numeric("n1", numeric(1))
            .numeric("n2", numeric(2))
            .categorical("c3", labels(2))
            .numeric("n4", numeric(4))
            .numeric("n5", numeric(5))
            .build()
            .unwrap();
        let (synthetic, _) = synth(&SynthConfig::benchmark(60, 9, 5));
        vec![oecd(), synthetic, interleaved]
    }

    /// What `CandidatePruning` promises, and both the LSH path and pinned
    /// enumeration lean on: a class that declares a pair shape scans
    /// exactly the unordered pairs of the declared universe, in
    /// lexicographic order.
    #[test]
    fn declared_pair_shapes_are_what_the_classes_scan() {
        let registry = foresight_insight::InsightRegistry::default();
        let mut shaped = 0;
        for table in shape_tables() {
            for class in registry.classes() {
                let universe: Vec<usize> = match class.pruning() {
                    CandidatePruning::None => continue,
                    CandidatePruning::NumericPairs => table.numeric_indices(),
                    CandidatePruning::AllPairs => (0..table.n_cols()).collect(),
                };
                shaped += 1;
                let mut expected = Vec::new();
                for (i, &a) in universe.iter().enumerate() {
                    for &b in &universe[i + 1..] {
                        expected.push(AttrTuple::Two(a, b));
                    }
                }
                assert!(expected.windows(2).all(|w| w[0] < w[1]));
                assert_eq!(
                    class.candidates(&table),
                    expected,
                    "{} on {}",
                    class.id(),
                    table.name()
                );
            }
        }
        assert!(
            shaped >= 9,
            "linear, monotonic and dependence declare a shape"
        );
    }

    /// Pinned enumeration is the class scan filtered by the fixed
    /// attributes — same tuples, same order — for every class and every
    /// way of pinning: each column (numeric or categorical), one past the
    /// end, a pin repeated, and two pins either way round.
    #[test]
    fn pinned_enumeration_equals_the_filtered_scan() {
        let registry = foresight_insight::InsightRegistry::default();
        let source = CandidateSource::exhaustive();
        for table in shape_tables() {
            let d = table.n_cols();
            let mut pin_sets: Vec<Vec<usize>> = (0..=d).map(|c| vec![c]).collect();
            pin_sets.push(vec![1, 1]);
            pin_sets.push(vec![1, d - 1]);
            pin_sets.push(vec![d - 1, 1]);
            pin_sets.push(vec![0, 1, 2]);
            pin_sets.push(vec![d, 1]);
            for class in registry.classes() {
                let scan = class.candidates(&table);
                assert_eq!(
                    source.generate(class.as_ref(), &table, &[]).tuples,
                    scan,
                    "nothing fixed is the scan itself"
                );
                for fixed in &pin_sets {
                    let expected: Vec<AttrTuple> = scan
                        .iter()
                        .copied()
                        .filter(|t| fixed.iter().all(|&f| t.contains(f)))
                        .collect();
                    let plan = source.generate(class.as_ref(), &table, fixed);
                    let filtered: Vec<AttrTuple> = plan
                        .tuples
                        .iter()
                        .copied()
                        .filter(|t| fixed.iter().all(|&f| t.contains(f)))
                        .collect();
                    assert_eq!(
                        filtered,
                        expected,
                        "{} on {} fixing {fixed:?}",
                        class.id(),
                        table.name()
                    );
                    if let CandidateOrigin::PinnedScan { column } = plan.origin {
                        // a pinned walk needs no filter at all
                        assert_eq!(plan.tuples, expected);
                        assert_eq!(column, fixed[0]);
                        assert_ne!(class.pruning(), CandidatePruning::None);
                    }
                }
            }
            // and the walk is what a shaped class gets for a pin in its universe
            let linear = registry.get("linear-relationship").unwrap();
            let pin = table.numeric_indices()[1];
            let plan = source.generate(linear.as_ref(), &table, &[pin]);
            assert_eq!(plan.origin, CandidateOrigin::PinnedScan { column: pin });
            assert_eq!(plan.tuples.len(), table.numeric_indices().len() - 1);
        }
    }
}
