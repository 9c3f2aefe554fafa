//! Offline workload analytics: clustering, error prediction, resource
//! classes and next-query recommendation, all from one embedding space.
//!
//! Demonstrates the architectural point of Querc: one learned
//! representation feeds every application (paper §2's split design).
//!
//! Run with: `cargo run --release --example workload_explorer`

use querc::apps::recommend::QueryRecommender;
use querc::apps::resources::ResourceBuckets;
use querc::apps::{AppModel, ErrorsApp, ResourcesApp, TrainCorpus, WorkloadApp};
use querc::EnrichedQuery;
use querc_cluster::{choose_k_elbow, kmeans, mean_silhouette, KMeansConfig};
use querc_embed::{BagOfTokens, Embedder};
use querc_linalg::Pcg32;
use querc_workloads::{SnowCloud, SnowCloudConfig};
use std::sync::Arc;

fn main() {
    let wl = SnowCloud::generate(&SnowCloudConfig::pretrain(6, 80, 3));
    println!("workload: {} queries from 6 tenants", wl.records.len());

    // One shared embedder for every application below.
    let embedder: Arc<dyn Embedder> = Arc::new(BagOfTokens::new(128, true));

    // --- clustering + elbow + silhouette ---------------------------------
    let points: Vec<Vec<f32>> = wl
        .records
        .iter()
        .map(|r| embedder.embed(&r.tokens()))
        .collect();
    let mut rng = Pcg32::new(21);
    let k = choose_k_elbow(&points, 2, 16, 0.02, &mut rng);
    let clustering = kmeans(
        &points,
        &KMeansConfig {
            k,
            ..Default::default()
        },
        &mut rng,
    );
    let sil = mean_silhouette(&points, &clustering.assignments);
    println!("\nclustering: elbow chose k = {k}, silhouette {sil:.2}");
    let witnesses = clustering.witnesses(&points);
    for (c, (&w, size)) in witnesses.iter().zip(clustering.sizes()).enumerate() {
        let sql = &wl.records[w].sql;
        println!(
            "  cluster {c} ({size:>3} queries): {}",
            &sql[..sql.len().min(84)]
        );
    }

    // The log itself, as the batch both labelers score.
    let batch: Vec<EnrichedQuery> = wl
        .records
        .iter()
        .map(|r| EnrichedQuery::from_sql(r.sql.clone()))
        .collect();

    // --- error prediction -------------------------------------------------
    let errors = wl.records.iter().filter(|r| r.is_error()).count();
    let predictor = ErrorsApp::new(Arc::clone(&embedder))
        .fit(&TrainCorpus::from_records(wl.records.clone(), 5 ^ 0xe440))
        .expect("non-empty log");
    println!("\nerror prediction: {errors} failures in the log");
    let risky = predictor
        .label_batch(&batch)
        .expect("labeling")
        .iter()
        .filter(|out| out.get("error_risky") == Some("true"))
        .count();
    println!("  {risky} queries flagged as risky before execution");

    // --- resource classes --------------------------------------------------
    let buckets = ResourceBuckets::default();
    let resources = ResourcesApp::new(Arc::clone(&embedder))
        .with_buckets(buckets)
        .fit(&TrainCorpus::from_records(wl.records.clone(), 9 ^ 0x4e50))
        .expect("non-empty log");
    let classes = resources.label_batch(&batch).expect("labeling");
    let hits = classes
        .iter()
        .zip(&wl.records)
        .filter(|(out, r)| out.get("resource_class") == Some(buckets.classify(r.runtime_ms).name()))
        .count();
    println!(
        "\nresource hints (held-in accuracy {:.0}%):",
        hits as f64 / wl.records.len() as f64 * 100.0
    );
    for (out, r) in classes.iter().zip(&wl.records).take(3) {
        println!(
            "  predicted `{}` for: {}",
            out.get("resource_class").unwrap_or("?"),
            &r.sql[..r.sql.len().min(70)]
        );
    }

    // --- next-query recommendation -----------------------------------------
    // Per-user ordered histories from the log.
    let mut by_user: std::collections::BTreeMap<&str, Vec<String>> = Default::default();
    for r in &wl.records {
        by_user
            .entry(r.user.as_str())
            .or_default()
            .push(r.sql.clone());
    }
    let histories: Vec<Vec<String>> = by_user.into_values().filter(|h| h.len() >= 3).collect();
    let recommender = QueryRecommender::train(&histories, Arc::clone(&embedder), k, 13);
    let last = &wl.records[0].sql;
    println!("\nafter: {}", &last[..last.len().min(84)]);
    println!("recommend next: {}", {
        let r = recommender.recommend(last);
        &r[..r.len().min(84)]
    });
}
