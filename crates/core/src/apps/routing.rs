//! Query-routing policy checking (paper §4, "Enforcing query routing
//! policies").
//!
//! Routing policies (SLAs, isolation, audit requirements) assign queries
//! to clusters; in practice they are hand-maintained and drift. Under the
//! paper's hypothesis that queries governed by one policy look alike,
//! a classifier trained on historical (query → cluster) assignments can
//! flag queries whose predicted cluster disagrees with the assigned one —
//! surfacing policy misconfigurations without parsing a single rule.

use super::{fit_forest, AppModel, AppOutput, AppReport, TrainCorpus, WorkloadApp};
use crate::classifier::LabelMap;
use crate::enriched::EnrichedQuery;
use crate::error::Result;
use querc_embed::Embedder;
use querc_learn::RandomForest;
use std::sync::Arc;

/// Routing-policy checking as a [`WorkloadApp`]: fits a [`RoutingModel`]
/// on historical (query → cluster) assignments.
///
/// Labels attached per query: `predicted_cluster`,
/// `routing_confidence`, plus `routing_anomaly=true` when the query
/// carries a `cluster` label that disagrees with a confident
/// prediction.
pub struct RoutingApp {
    embedder: Arc<dyn Embedder>,
    /// Disagreements below this confidence are not flagged.
    pub min_confidence: f64,
}

impl RoutingApp {
    /// A routing-check app over `embedder` with the default confidence
    /// threshold.
    pub fn new(embedder: Arc<dyn Embedder>) -> RoutingApp {
        RoutingApp {
            embedder,
            min_confidence: 0.6,
        }
    }

    /// Override the minimum confidence for flagging a disagreement.
    pub fn with_min_confidence(mut self, min_confidence: f64) -> RoutingApp {
        self.min_confidence = min_confidence;
        self
    }
}

/// A fitted cluster forest, its cluster vocabulary, and the confidence
/// floor for flagging a disagreement.
pub struct RoutingModel {
    embedder: Arc<dyn Embedder>,
    forest: RandomForest,
    clusters: LabelMap,
    min_confidence: f64,
    trained_queries: usize,
}

impl WorkloadApp for RoutingApp {
    type Model = RoutingModel;

    fn name(&self) -> &'static str {
        "routing"
    }

    fn fit(&self, corpus: &TrainCorpus) -> Result<RoutingModel> {
        corpus.require_records("routing.fit")?;
        let (clusters, ids) =
            LabelMap::from_labels(corpus.records.iter().map(|r| r.cluster.as_str()));
        let n_classes = clusters.len().max(1);
        Ok(RoutingModel {
            embedder: Arc::clone(&self.embedder),
            forest: fit_forest(self.embedder.as_ref(), corpus, &ids, n_classes, 0x4072),
            clusters,
            min_confidence: self.min_confidence,
            trained_queries: corpus.len(),
        })
    }

    fn load_model(&self, json: &str) -> Result<RoutingModel> {
        let state: RoutingState = crate::persist::from_json(json, "routing model")?;
        Ok(RoutingModel {
            embedder: Arc::clone(&self.embedder),
            forest: crate::persist::restore_forest(state.forest, self.embedder.dim())?,
            clusters: LabelMap::from_names(&state.labels)
                .ok_or_else(|| crate::persist::corrupt("routing model: duplicate cluster names"))?,
            min_confidence: state.min_confidence,
            trained_queries: state.trained_queries,
        })
    }
}

impl AppModel for RoutingModel {
    fn label_batch(&self, batch: &[EnrichedQuery]) -> Result<Vec<AppOutput>> {
        let vectors = EnrichedQuery::vectors(batch, self.embedder.as_ref());
        Ok(batch
            .iter()
            .zip(vectors)
            .map(|(q, v)| {
                // The most-voted cluster and its mean tree vote.
                let proba = self.forest.proba(&v);
                let (cluster, confidence) = match querc_linalg::stats::argmax(&proba) {
                    Some(best) => (
                        self.clusters.name(best as u32).unwrap_or("<unknown>"),
                        proba[best] as f64,
                    ),
                    None => ("<unknown>", 0.0),
                };
                let mut out = AppOutput::new();
                if let Some(assigned) = q.get("cluster") {
                    let anomalous = assigned != cluster && confidence >= self.min_confidence;
                    out.set("routing_anomaly", anomalous.to_string());
                }
                out.set("predicted_cluster", cluster);
                out.set("routing_confidence", format!("{confidence:.3}"));
                out
            })
            .collect())
    }

    fn embedder(&self) -> Option<Arc<dyn Embedder>> {
        Some(Arc::clone(&self.embedder))
    }

    fn report(&self) -> AppReport {
        AppReport::new(
            "routing",
            "learn historical query routing; flag assignments the model contradicts",
            self.trained_queries,
            self.embedder.as_ref(),
            &[
                ("clusters", self.clusters.len().to_string()),
                ("min_confidence", format!("{:.2}", self.min_confidence)),
            ],
        )
    }

    fn save_model(&self) -> Option<String> {
        crate::persist::to_json(&RoutingState {
            forest: self.forest.to_state(),
            labels: self.clusters.names().to_vec(),
            min_confidence: self.min_confidence,
            trained_queries: self.trained_queries,
        })
    }
}

/// Serialized form of a [`RoutingModel`]: the forest, the cluster
/// vocabulary in class-id order, and the label-time confidence floor.
#[derive(serde::Serialize, serde::Deserialize)]
struct RoutingState {
    forest: querc_learn::ForestState,
    labels: Vec<String>,
    min_confidence: f64,
    trained_queries: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use querc_embed::BagOfTokens;
    use querc_workloads::QueryRecord;

    fn records() -> Vec<QueryRecord> {
        (0..60)
            .map(|i| {
                let (cluster, sql) = if i % 2 == 0 {
                    (
                        "etl-cluster",
                        format!("insert into lake_events select * from staging_{}", i % 3),
                    )
                } else {
                    (
                        "bi-cluster",
                        format!("select sum(x) from finance_cube group by dim{}", i % 4),
                    )
                };
                QueryRecord {
                    sql,
                    user: "u".into(),
                    account: "a".into(),
                    cluster: cluster.into(),
                    dialect: "generic".into(),
                    runtime_ms: 1.0,
                    mem_mb: 1.0,
                    error_code: None,
                    timestamp: i,
                }
            })
            .collect()
    }

    /// A model fitted on `records()` with the forest seed `seed`.
    fn model(min_confidence: f64, seed: u64) -> RoutingModel {
        RoutingApp::new(Arc::new(BagOfTokens::new(64, true)))
            .with_min_confidence(min_confidence)
            .fit(&TrainCorpus::from_records(records(), seed ^ 0x4072))
            .unwrap()
    }

    /// Indices of the records whose assigned cluster is flagged.
    fn anomalies(model: &RoutingModel, recs: &[QueryRecord]) -> Vec<usize> {
        let batch: Vec<EnrichedQuery> = recs
            .iter()
            .map(|r| EnrichedQuery::new(crate::LabeledQuery::from_record(r)))
            .collect();
        let out = model.label_batch(&batch).unwrap();
        (0..out.len())
            .filter(|&i| out[i].get("routing_anomaly") == Some("true"))
            .collect()
    }

    #[test]
    fn consistent_routing_raises_no_anomalies() {
        let recs = records();
        let flagged = anomalies(&model(0.6, 1), &recs);
        assert!(
            flagged.len() <= recs.len() / 10,
            "clean assignments flagged: {flagged:?}"
        );
    }

    #[test]
    fn misrouted_query_is_detected() {
        let mut recs = records();
        // A BI query somehow routed to the ETL cluster; the model is
        // trained on the CLEAN history.
        recs[1].cluster = "etl-cluster".into();
        let model = model(0.6, 2);
        assert!(anomalies(&model, &recs).contains(&1));
        let out = model
            .label_batch(&[EnrichedQuery::new(crate::LabeledQuery::from_record(
                &recs[1],
            ))])
            .unwrap();
        assert_eq!(out[0].get("predicted_cluster"), Some("bi-cluster"));
    }

    #[test]
    fn confidence_threshold_suppresses_weak_flags() {
        let recs = records();
        // An impossible confidence floor flags nothing.
        assert!(anomalies(&model(1.01, 3), &recs).is_empty());
    }

    #[test]
    fn routing_app_implements_workload_app() {
        let corpus = TrainCorpus::from_records(records(), 2);
        let app = RoutingApp::new(Arc::new(BagOfTokens::new(64, true))).with_min_confidence(0.6);
        let model = app.fit(&corpus).unwrap();
        // A BI query mislabeled as routed to the ETL cluster.
        let mut misrouted =
            EnrichedQuery::from_sql("select sum(x) from finance_cube group by dim1");
        misrouted.set("cluster", "etl-cluster");
        let clean = EnrichedQuery::from_sql("insert into lake_events select * from staging_1");
        let out = model.label_batch(&[misrouted, clean]).unwrap();
        assert_eq!(out[0].get("predicted_cluster"), Some("bi-cluster"));
        assert_eq!(out[0].get("routing_anomaly"), Some("true"));
        assert_eq!(out[1].get("predicted_cluster"), Some("etl-cluster"));
        assert_eq!(out[1].get("routing_anomaly"), None);
        let report = model.report();
        assert_eq!(report.app, "routing");
        assert_eq!(report.trained_queries, 60);
    }

    #[test]
    fn model_round_trips_through_save_load() {
        let corpus = TrainCorpus::from_records(records(), 5);
        let app = RoutingApp::new(Arc::new(BagOfTokens::new(64, true))).with_min_confidence(0.55);
        let model = app.fit(&corpus).unwrap();
        let json = model.save_model().expect("forest is persistable");
        let restored = app.load_model(&json).unwrap();
        let mut misrouted =
            EnrichedQuery::from_sql("select sum(x) from finance_cube group by dim1");
        misrouted.set("cluster", "etl-cluster");
        let clean = EnrichedQuery::from_sql("insert into lake_events select * from staging_1");
        let batch = [misrouted, clean];
        assert_eq!(
            model.label_batch(&batch).unwrap(),
            restored.label_batch(&batch).unwrap()
        );
        // The confidence floor is model state, not app state.
        assert!((restored.min_confidence - 0.55).abs() < 1e-12);
        assert_eq!(restored.clusters.len(), 2);
    }

    #[test]
    fn predict_routes_new_queries() {
        let out = model(0.5, 4)
            .label_batch(&[
                EnrichedQuery::from_sql("select sum(y) from finance_cube group by dim9"),
                EnrichedQuery::from_sql("insert into lake_events select * from staging_9"),
            ])
            .unwrap();
        assert_eq!(out[0].get("predicted_cluster"), Some("bi-cluster"));
        assert_eq!(out[1].get("predicted_cluster"), Some("etl-cluster"));
    }
}
