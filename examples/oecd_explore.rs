//! Replays the paper's §4.1 usage scenario programmatically on the OECD
//! wellbeing dataset:
//!
//! 1. the top correlation insight is Working-Long-Hours ↔ Leisure (negative);
//! 2. focusing it re-ranks recommendations to its neighborhood;
//! 3. Spearman re-ranking works as an alternative metric;
//! 4. Leisure turns out uncorrelated with Self-Reported Health;
//! 5. the univariate carousels show Leisure ≈ Normal, Health left-skewed;
//! 6. focusing Health surfaces Life-Satisfaction ↔ Health;
//! 7. the session is saved (and could be shared);
//! 8. the preprocessing phase switches to interactive (sketch-backed) mode,
//!    a diversified query and the full carousel set run, and the engine's
//!    telemetry snapshot shows where every stage spent its time (the run
//!    fails if any query stage recorded no samples).
//!
//! ```sh
//! cargo run --release --example oecd_explore
//! ```

use foresight::prelude::*;

fn main() {
    let table = datasets::oecd();
    let mut fs = Foresight::new(table);

    // Step 1: eyeball the correlation carousel.
    let top = fs
        .query(&InsightQuery::class("linear-relationship").top_k(5))
        .unwrap();
    println!("top correlation insights:");
    for t in &top {
        println!("  {:.2}  {}", t.score, t.detail);
    }
    let headline = top[0].clone();
    assert!(
        headline
            .detail
            .contains("Employees Working Very Long Hours")
            && headline.detail.contains("Time Devoted To Leisure"),
        "expected the long-hours/leisure insight first, got: {}",
        headline.detail
    );

    // Step 2: bring it into focus; recommendations shift to its neighborhood.
    fs.focus(headline.clone());
    println!("\nfocused: {}", headline.detail);

    // Step 3: explore the same class under Spearman.
    let spearman_top = fs
        .query(
            &InsightQuery::class("linear-relationship")
                .top_k(5)
                .metric("|spearman|"),
        )
        .unwrap();
    println!("\ntop rank correlations (Spearman):");
    for t in &spearman_top {
        println!("  {:.2}  {}", t.score, t.detail);
    }

    // Step 4: the surprise — leisure is NOT correlated with health.
    let leisure = fs.table().index_of("Time Devoted To Leisure").unwrap();
    let health = fs.table().index_of("Self Reported Health").unwrap();
    let rho = foresight::stats::correlation::pearson(
        fs.table().numeric(leisure).unwrap().values(),
        fs.table().numeric(health).unwrap().values(),
    );
    println!("\nρ(Leisure, Self Reported Health) = {rho:.2}  — no correlation!");

    // Step 5: check the univariate distribution insights.
    let normality = fs
        .query(&InsightQuery::class("normality").top_k(3))
        .unwrap();
    println!("\nmost normal attributes:");
    for t in &normality {
        println!("  p = {:.2}  {}", t.score, t.detail);
    }
    let skews = fs.query(&InsightQuery::class("skew").top_k(24)).unwrap();
    let health_skew = skews
        .iter()
        .find(|i| i.attrs.contains(health))
        .expect("health has a skew score");
    println!("\n{}", health_skew.detail);
    assert!(health_skew.detail.contains("left-skewed"));

    // Step 6: focus health's distribution; find its correlates.
    fs.focus(health_skew.clone());
    let correlates = fs
        .query(
            &InsightQuery::class("linear-relationship")
                .top_k(3)
                .fix_attr(health),
        )
        .unwrap();
    println!("\nmost correlated with Self Reported Health:");
    for t in &correlates {
        println!("  {:.2}  {}", t.score, t.detail);
    }
    assert!(
        correlates[0].detail.contains("Life Satisfaction"),
        "expected Life Satisfaction first: {}",
        correlates[0].detail
    );

    // Step 7: save the session for later / for colleagues.
    let json = fs.session().to_json().unwrap();
    let restored = Session::from_json(&json).unwrap();
    assert_eq!(restored.focus.len(), 2);
    println!(
        "\nsession saved: {} focused insights, {} history events, {} bytes of JSON",
        restored.focus.len(),
        restored.history.len(),
        json.len()
    );

    // Step 8: the preprocessing phase — sketch the table, go interactive,
    // and run the remaining query shapes (diversified top-k, carousels) so
    // the telemetry snapshot covers the whole query path.
    fs.preprocess(&CatalogConfig::default()).unwrap();
    let diverse = fs
        .query(
            &InsightQuery::class("linear-relationship")
                .top_k(3)
                .diversify(0.5),
        )
        .unwrap();
    println!("\ndiversified correlation picks (sketch-backed):");
    for t in &diverse {
        println!("  {:.2}  {}", t.score, t.detail);
    }
    let carousels = fs.carousels(3).unwrap();
    println!(
        "assembled {} carousels ({} insights)",
        carousels.len(),
        carousels.iter().map(|c| c.instances.len()).sum::<usize>()
    );

    let snap = fs.metrics();
    println!("\nengine telemetry:\n{}", snap.to_text());
    // every stage of the query path must have samples by now
    for stage in [
        "preprocess",
        "sketch_build",
        "score",
        "rank",
        "diversify",
        "describe",
        "index_serve",
        "carousel",
        "freeze",
    ] {
        assert!(
            snap.stage(stage).expect("known stage").count > 0,
            "stage {stage} recorded no samples"
        );
    }
    assert!(snap.queries.total >= 6, "all scenario queries counted");
}
