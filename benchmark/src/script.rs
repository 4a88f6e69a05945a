//! What the simulated analysts do: the 48-step session script shared by
//! `wire_oecd` and `explore_wide`, and the dashboard mix of
//! `stream_mixed`. Both are pure functions of a [`Rng`], so a seed fixes
//! the exact command stream each workload sends.

use crate::rng::{Rng, Zipf};
use foresight_data::Table;
use foresight_engine::{EngineCore, InsightQuery};
use foresight_insight::AttrTuple;

/// Steps between a session's open and its close. Sessions must churn:
/// session history is unbounded, so a session that never closes makes
/// `save` dominate every other cost.
pub const SESSION_STEPS: usize = 48;

/// Instances per carousel strip — the paper's Figure 1 unit of display.
pub const CAROUSEL_WIDTH: usize = 5;

/// The kinds of op a workload reports latencies for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    Open,
    Close,
    Carousels,
    Profile,
    TopK,
    Fix,
    Range,
    Diversify,
    Alt,
    Focus,
    ClearFocus,
    Save,
    /// `refresh` + `carousels(5)`: one dashboard repaint.
    Dashboard,
    /// One whole first-contact pass of `cold_open`.
    ColdOpen,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Open => "open",
            Kind::Close => "close",
            Kind::Carousels => "carousels",
            Kind::Profile => "profile",
            Kind::TopK => "topk",
            Kind::Fix => "fix",
            Kind::Range => "range",
            Kind::Diversify => "div",
            Kind::Alt => "alt",
            Kind::Focus => "focus",
            Kind::ClearFocus => "clear_focus",
            Kind::Save => "save",
            Kind::Dashboard => "dashboard",
            Kind::ColdOpen => "cold_open",
        }
    }

    /// Whether the op is an insight query (`Command::Query` on the wire).
    pub fn is_query(self) -> bool {
        matches!(
            self,
            Kind::TopK | Kind::Fix | Kind::Range | Kind::Diversify | Kind::Alt
        )
    }
}

/// How a pairwise-class query generates candidates, when the script
/// chooses at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Candidates {
    Auto,
    Exhaustive,
}

#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    Open,
    Close,
    Carousels,
    Profile,
    Query {
        kind: Kind,
        query: InsightQuery,
        /// `Some` for queries on a pairwise class: the strategy the
        /// session switches to before running it.
        candidates: Option<Candidates>,
    },
    /// Focus the session's last top result (carousels when it has none).
    Focus,
    ClearFocus,
    Save,
    Dashboard,
}

impl Step {
    pub fn kind(&self) -> Kind {
        match self {
            Step::Open => Kind::Open,
            Step::Close => Kind::Close,
            Step::Carousels => Kind::Carousels,
            Step::Profile => Kind::Profile,
            Step::Query { kind, .. } => *kind,
            Step::Focus => Kind::Focus,
            Step::ClearFocus => Kind::ClearFocus,
            Step::Save => Kind::Save,
            Step::Dashboard => Kind::Dashboard,
        }
    }
}

/// What a script may ask about: the classes of the served core and the
/// columns a query may fix.
#[derive(Debug, Clone)]
pub struct Vocabulary {
    /// Class ids in registry order; rank in the Zipf pick follows it.
    pub classes: Vec<String>,
    /// Indices into `classes` of the classes whose candidates are pairs.
    pub pairwise: Vec<usize>,
    /// The class and alternative metric of the `alt` step.
    pub alt: (String, String),
    /// Columns a fixed-attribute query may pin.
    pub numeric_cols: Vec<usize>,
    class_pick: Zipf,
}

impl Vocabulary {
    /// Reads the vocabulary off a core's registry and a table with the
    /// core's schema.
    pub fn of(core: &EngineCore, table: &Table) -> Self {
        let classes = core.registry().classes();
        let pairwise = classes
            .iter()
            .enumerate()
            .filter(|(_, c)| matches!(c.candidates(table).first(), Some(AttrTuple::Two(..))))
            .map(|(i, _)| i)
            .collect();
        let alt = classes
            .iter()
            .find(|c| c.id() == "linear-relationship")
            .and_then(|c| {
                Some((
                    c.id().to_owned(),
                    (*c.alternative_metrics().first()?).to_owned(),
                ))
            })
            .expect("the linear-relationship class offers an alternative metric");
        Self {
            class_pick: Zipf::new(classes.len(), 1.1),
            classes: classes.iter().map(|c| c.id().to_owned()).collect(),
            pairwise,
            alt,
            numeric_cols: table.numeric_indices(),
        }
    }

    fn zipf_class(&self, rng: &mut Rng) -> usize {
        self.class_pick.sample(rng)
    }

    /// Every query the scripts can draw with `attr` fixed: one per pairwise
    /// class, and the alternative metric. Few enough to warm in set-up;
    /// drawn uniformly, a wide table's would take longer than a run to
    /// come up by themselves.
    pub fn fixed_attr_queries(&self, attr: usize) -> impl Iterator<Item = InsightQuery> + '_ {
        self.pairwise
            .iter()
            .map(move |&class| self.fix_query(class, attr))
            .chain([self.alt_query(attr)])
    }

    fn fix_query(&self, class: usize, attr: usize) -> InsightQuery {
        InsightQuery::class(&self.classes[class]).fix_attr(attr)
    }

    fn alt_query(&self, attr: usize) -> InsightQuery {
        InsightQuery::class(&self.alt.0)
            .metric(&self.alt.1)
            .fix_attr(attr)
    }
}

/// The knobs in which the session-script workloads differ.
#[derive(Debug, Clone, Copy)]
pub struct ScriptOptions {
    /// Whether step 1 is `profile` (its first call on a wide table costs
    /// tens of seconds and belongs to `cold_open`).
    pub profile: bool,
    /// Share of pairwise-class queries that first switch the session to
    /// the exhaustive scan; the rest run `Auto`. `None` never switches.
    pub exhaustive_share: Option<f64>,
}

/// Cumulative shares of the session script's free steps, in percent:
/// 40 top-k, 22 fixed attribute, 10 score range, 5 diversify, 5
/// alternative metric, 10 carousels, 7 focus, 1 clear focus.
const SESSION_MIX: [(f64, Kind); 8] = [
    (0.40, Kind::TopK),
    (0.62, Kind::Fix),
    (0.72, Kind::Range),
    (0.77, Kind::Diversify),
    (0.82, Kind::Alt),
    (0.92, Kind::Carousels),
    (0.99, Kind::Focus),
    (1.00, Kind::ClearFocus),
];

/// Cumulative shares of the dashboard mix: 60 repaint, 25 fixed
/// attribute, 10 top-k, 5 focus or clear focus. No alternative metrics (a
/// sharded approximate source rejects them, typed) and no profile.
const DASHBOARD_MIX: [(f64, Kind); 4] = [
    (0.60, Kind::Dashboard),
    (0.85, Kind::Fix),
    (0.95, Kind::TopK),
    (1.00, Kind::Focus),
];

fn draw(mix: &[(f64, Kind)], rng: &mut Rng) -> Kind {
    let u = rng.unit();
    mix.iter()
        .find(|(cum, _)| u < *cum)
        .map_or(mix[mix.len() - 1].1, |(_, kind)| *kind)
}

fn query_step(vocab: &Vocabulary, kind: Kind, exhaustive: Option<f64>, rng: &mut Rng) -> Step {
    let (class, query) = match kind {
        Kind::TopK => {
            let class = vocab.zipf_class(rng);
            let k = *rng.pick(&[3, 5, 10]);
            (class, InsightQuery::class(&vocab.classes[class]).top_k(k))
        }
        Kind::Fix => {
            let class = *rng.pick(&vocab.pairwise);
            let attr = *rng.pick(&vocab.numeric_cols);
            (class, vocab.fix_query(class, attr))
        }
        Kind::Range => {
            let class = vocab.zipf_class(rng);
            (
                class,
                InsightQuery::class(&vocab.classes[class]).score_range(0.3, 0.8),
            )
        }
        Kind::Diversify => {
            let class = vocab.zipf_class(rng);
            (
                class,
                InsightQuery::class(&vocab.classes[class]).diversify(0.5),
            )
        }
        Kind::Alt => {
            let class = vocab
                .classes
                .iter()
                .position(|c| *c == vocab.alt.0)
                .expect("alt class is registered");
            let attr = *rng.pick(&vocab.numeric_cols);
            (class, vocab.alt_query(attr))
        }
        other => unreachable!("{other:?} is not a query kind"),
    };
    let candidates = match exhaustive {
        Some(share) if vocab.pairwise.contains(&class) => Some(if rng.unit() < share {
            Candidates::Exhaustive
        } else {
            Candidates::Auto
        }),
        _ => None,
    };
    Step::Query {
        kind,
        query,
        candidates,
    }
}

fn mix_step(vocab: &Vocabulary, kind: Kind, exhaustive: Option<f64>, rng: &mut Rng) -> Step {
    match kind {
        Kind::Carousels => Step::Carousels,
        Kind::Focus => Step::Focus,
        Kind::ClearFocus => Step::ClearFocus,
        Kind::Dashboard => Step::Dashboard,
        kind => query_step(vocab, kind, exhaustive, rng),
    }
}

/// One session's whole life: open, [`SESSION_STEPS`] steps — carousels
/// first, then profile (when `options.profile`), save last, the rest
/// drawn from the session mix — and close.
pub fn session_script(vocab: &Vocabulary, options: ScriptOptions, rng: &mut Rng) -> Vec<Step> {
    let mut steps = Vec::with_capacity(SESSION_STEPS + 2);
    steps.push(Step::Open);
    for i in 0..SESSION_STEPS {
        steps.push(match i {
            0 => Step::Carousels,
            1 if options.profile => Step::Profile,
            i if i == SESSION_STEPS - 1 => Step::Save,
            _ => {
                let kind = draw(&SESSION_MIX, rng);
                mix_step(vocab, kind, options.exhaustive_share, rng)
            }
        });
    }
    steps.push(Step::Close);
    steps
}

/// The next op of a long-lived dashboard session. The focus share splits
/// evenly between focusing the last top result and clearing the focus.
pub fn dashboard_step(vocab: &Vocabulary, rng: &mut Rng) -> Step {
    match draw(&DASHBOARD_MIX, rng) {
        Kind::Focus if rng.unit() < 0.5 => Step::ClearFocus,
        kind => mix_step(vocab, kind, None, rng),
    }
}

/// The fixed script behind the output checks: it touches every query
/// shape once, depends on no seed, and its transcript must be the same
/// from every backend that serves the same data.
pub fn probe_script(vocab: &Vocabulary, alternative_metrics: bool) -> Vec<Step> {
    let query = |kind: Kind, query: InsightQuery| Step::Query {
        kind,
        query,
        candidates: None,
    };
    let mut steps = vec![Step::Carousels];
    for class in &vocab.classes {
        steps.push(query(Kind::TopK, InsightQuery::class(class).top_k(5)));
    }
    let attr = vocab.numeric_cols[vocab.numeric_cols.len() / 2];
    for &class in &vocab.pairwise {
        let class = &vocab.classes[class];
        steps.push(query(
            Kind::Fix,
            InsightQuery::class(class).fix_attr(attr).top_k(3),
        ));
    }
    let first = &vocab.classes[vocab.pairwise[0]];
    steps.push(query(
        Kind::Range,
        InsightQuery::class(first).score_range(0.3, 0.8),
    ));
    steps.push(query(
        Kind::Diversify,
        InsightQuery::class(first).diversify(0.5),
    ));
    if alternative_metrics {
        steps.push(query(Kind::Alt, vocab.alt_query(attr)));
    }
    steps
}

#[cfg(test)]
mod tests {
    use super::*;
    use foresight_data::datasets;
    use foresight_data::TableSource;
    use foresight_engine::CoreBuilder;
    use std::collections::BTreeMap;

    fn vocabulary() -> Vocabulary {
        let table = datasets::oecd();
        let core = CoreBuilder::new(TableSource::materialized(table.clone())).freeze();
        Vocabulary::of(&core, &table)
    }

    const FULL: ScriptOptions = ScriptOptions {
        profile: true,
        exhaustive_share: None,
    };

    #[test]
    fn same_seed_same_byte_stream_of_commands() {
        let vocab = vocabulary();
        let render = |seed: u64| {
            let mut rng = Rng::new(seed);
            let mut bytes = String::new();
            for _ in 0..20 {
                bytes.push_str(&format!("{:?}\n", session_script(&vocab, FULL, &mut rng)));
                bytes.push_str(&format!("{:?}\n", dashboard_step(&vocab, &mut rng)));
            }
            bytes
        };
        assert_eq!(render(11), render(11));
        assert_ne!(render(11), render(12));
    }

    #[test]
    fn a_session_opens_shows_carousels_profiles_saves_and_closes() {
        let vocab = vocabulary();
        let mut rng = Rng::new(3);
        for _ in 0..50 {
            let steps = session_script(&vocab, FULL, &mut rng);
            assert_eq!(steps.len(), SESSION_STEPS + 2);
            assert_eq!(steps[0], Step::Open);
            assert_eq!(steps[1], Step::Carousels);
            assert_eq!(steps[2], Step::Profile);
            assert_eq!(steps[SESSION_STEPS], Step::Save);
            assert_eq!(steps[SESSION_STEPS + 1], Step::Close);
            let inner = &steps[3..SESSION_STEPS];
            assert!(inner.iter().all(|s| !matches!(
                s,
                Step::Open | Step::Close | Step::Save | Step::Profile | Step::Dashboard
            )));
        }
        let no_profile = ScriptOptions {
            profile: false,
            exhaustive_share: Some(0.15),
        };
        let steps = session_script(&vocab, no_profile, &mut rng);
        assert!(steps.iter().all(|s| *s != Step::Profile));
    }

    fn shares(kinds: impl Iterator<Item = Kind>) -> BTreeMap<Kind, f64> {
        let mut counts: BTreeMap<Kind, f64> = BTreeMap::new();
        let mut total = 0.0;
        for kind in kinds {
            *counts.entry(kind).or_default() += 1.0;
            total += 1.0;
        }
        counts.values_mut().for_each(|c| *c *= 100.0 / total);
        counts
    }

    #[test]
    fn mixes_hold_their_proportions_within_one_point() {
        let vocab = vocabulary();
        let mut rng = Rng::new(5);
        let session = shares((0..100_000).map(|_| draw(&SESSION_MIX, &mut rng)));
        for (kind, want) in [
            (Kind::TopK, 40.0),
            (Kind::Fix, 22.0),
            (Kind::Range, 10.0),
            (Kind::Diversify, 5.0),
            (Kind::Alt, 5.0),
            (Kind::Carousels, 10.0),
            (Kind::Focus, 7.0),
            (Kind::ClearFocus, 1.0),
        ] {
            assert!((session[&kind] - want).abs() < 1.0, "{kind:?}: {session:?}");
        }
        let dashboard = shares((0..100_000).map(|_| dashboard_step(&vocab, &mut rng).kind()));
        for (kind, want) in [
            (Kind::Dashboard, 60.0),
            (Kind::Fix, 25.0),
            (Kind::TopK, 10.0),
            (Kind::Focus, 2.5),
            (Kind::ClearFocus, 2.5),
        ] {
            assert!(
                (dashboard[&kind] - want).abs() < 1.0,
                "{kind:?}: {dashboard:?}"
            );
        }
    }

    #[test]
    fn fixed_attributes_are_drawn_uniformly_and_all_can_be_warmed() {
        let vocab = vocabulary();
        let mut rng = Rng::new(13);
        let warmed: Vec<_> = vocab
            .numeric_cols
            .iter()
            .flat_map(|&attr| vocab.fixed_attr_queries(attr))
            .collect();
        let mut draws: BTreeMap<usize, f64> = BTreeMap::new();
        let total = 50_000;
        for i in 0..total {
            let kind = if i % 2 == 0 { Kind::Fix } else { Kind::Alt };
            let Step::Query { query, .. } = query_step(&vocab, kind, None, &mut rng) else {
                unreachable!()
            };
            assert!(warmed.contains(&query), "{query:?} is not warmed");
            *draws.entry(query.fixed_attrs[0]).or_default() += 1.0;
        }
        let even = 1.0 / vocab.numeric_cols.len() as f64;
        assert_eq!(draws.len(), vocab.numeric_cols.len());
        for (attr, count) in draws {
            let share = count / total as f64;
            assert!((share - even).abs() < 0.01, "column {attr}: {share}");
        }
    }

    #[test]
    fn exhaustive_share_applies_to_pairwise_queries_only() {
        let vocab = vocabulary();
        let mut rng = Rng::new(9);
        let (mut exhaustive, mut pairwise) = (0.0f64, 0.0f64);
        for _ in 0..50_000 {
            let kind = *rng.pick(&[Kind::TopK, Kind::Fix, Kind::Range]);
            let Step::Query {
                query, candidates, ..
            } = query_step(&vocab, kind, Some(0.15), &mut rng)
            else {
                unreachable!()
            };
            let class = vocab
                .classes
                .iter()
                .position(|c| *c == query.class_id)
                .unwrap();
            assert_eq!(candidates.is_some(), vocab.pairwise.contains(&class));
            if let Some(c) = candidates {
                pairwise += 1.0;
                if c == Candidates::Exhaustive {
                    exhaustive += 1.0;
                }
            }
        }
        assert!((exhaustive / pairwise - 0.15).abs() < 0.01);
    }
}
