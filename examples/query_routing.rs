//! Routing-policy misconfiguration detection (paper §4).
//!
//! Learns historical query→cluster routing, then scans a batch in which a
//! policy drift sent analytics traffic to the ETL cluster. Queries whose
//! predicted cluster disagrees confidently with the assigned one are
//! reported — no policy rules are ever parsed.
//!
//! Run with: `cargo run --release --example query_routing`

use querc::apps::{AppModel, RoutingApp, TrainCorpus, WorkloadApp};
use querc::{EnrichedQuery, LabeledQuery};
use querc_embed::BagOfTokens;
use querc_workloads::QueryRecord;
use std::sync::Arc;

fn record(sql: &str, cluster: &str, i: u64) -> QueryRecord {
    QueryRecord {
        sql: sql.to_string(),
        user: format!("u{}", i % 7),
        account: "acme".into(),
        cluster: cluster.into(),
        dialect: "generic".into(),
        runtime_ms: 50.0,
        mem_mb: 100.0,
        error_code: None,
        timestamp: i,
    }
}

fn main() {
    // Clean routing history: BI rollups on `bi-cluster`, pipeline loads on
    // `etl-cluster`.
    let history: Vec<QueryRecord> = (0..120)
        .map(|i| {
            if i % 2 == 0 {
                record(
                    &format!(
                        "select dim{}, sum(revenue) from finance_mart group by dim{}",
                        i % 4,
                        i % 4
                    ),
                    "bi-cluster",
                    i,
                )
            } else {
                record(
                    &format!("insert into lake_raw select * from staging_batch_{}", i % 5),
                    "etl-cluster",
                    i,
                )
            }
        })
        .collect();

    // Report only confident disagreements.
    let app = RoutingApp::new(Arc::new(BagOfTokens::new(128, true))).with_min_confidence(0.6);
    let model = app
        .fit(&TrainCorpus::from_records(history.clone(), 11 ^ 0x4072))
        .expect("non-empty history");

    // Live batch with two misrouted analytics queries.
    let mut live = history[..20].to_vec();
    live.push(record(
        "select dim1, sum(revenue) from finance_mart group by dim1",
        "etl-cluster", // drifted policy!
        500,
    ));
    live.push(record(
        "select dim3, sum(revenue) from finance_mart group by dim3",
        "etl-cluster",
        501,
    ));

    // Each query carries its assigned `cluster` label; the model flags
    // the ones it confidently disagrees with.
    let batch: Vec<EnrichedQuery> = live
        .iter()
        .map(|r| EnrichedQuery::new(LabeledQuery::from_record(r)))
        .collect();
    let labels = model.label_batch(&batch).expect("labeling");
    let anomalies: Vec<usize> = (0..labels.len())
        .filter(|&i| labels[i].get("routing_anomaly") == Some("true"))
        .collect();
    println!(
        "checked {} routed queries, {} suspected misroutings:",
        live.len(),
        anomalies.len()
    );
    for &i in &anomalies {
        let confidence: f64 = labels[i]
            .get("routing_confidence")
            .and_then(|c| c.parse().ok())
            .unwrap_or(0.0);
        println!(
            "  query #{:>3}: assigned `{}` but looks like `{}` traffic (confidence {:.0}%)",
            i,
            live[i].cluster,
            labels[i].get("predicted_cluster").unwrap_or("?"),
            confidence * 100.0
        );
    }

    // The model also routes brand-new queries.
    let fresh = [EnrichedQuery::from_sql(
        "select dim9, sum(revenue) from finance_mart group by dim9",
    )];
    let suggested = model.label_batch(&fresh).expect("labeling");
    println!(
        "\nsuggested cluster for a new query: {}",
        suggested[0].get("predicted_cluster").unwrap_or("?")
    );
}
