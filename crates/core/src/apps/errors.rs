//! Error prediction from query syntax (paper §4, "Error prediction").
//!
//! Syntax patterns correlate with resource errors and engine bugs; with
//! learned features "a classifier to predict errors from syntax is
//! trivial to engineer". Predicted-risky queries can be routed to an
//! instrumented or higher-memory runtime before they fail.

use super::{fit_forest, AppModel, AppOutput, AppReport, TrainCorpus, WorkloadApp};
use crate::enriched::EnrichedQuery;
use crate::error::Result;
use querc_embed::Embedder;
use querc_learn::{Classifier, RandomForest};
use std::sync::Arc;

/// Error prediction as a [`WorkloadApp`]: fits an [`ErrorsModel`] from
/// the log's own error column ("training data is readily available from
/// the query logs").
///
/// Labels attached per query: `error_probability` and `error_risky` —
/// routable to an instrumented runtime before the query fails.
pub struct ErrorsApp {
    embedder: Arc<dyn Embedder>,
    /// Queries with failure probability ≥ this are flagged.
    pub threshold: f64,
}

impl ErrorsApp {
    /// An error-prediction app over `embedder` with the default 0.5
    /// flagging threshold.
    pub fn new(embedder: Arc<dyn Embedder>) -> ErrorsApp {
        ErrorsApp {
            embedder,
            threshold: 0.5,
        }
    }

    /// Override the failure-probability flagging threshold.
    pub fn with_threshold(mut self, threshold: f64) -> ErrorsApp {
        self.threshold = threshold;
        self
    }
}

/// A fitted binary (fails / succeeds) forest over query embeddings plus
/// its flagging threshold.
pub struct ErrorsModel {
    embedder: Arc<dyn Embedder>,
    forest: RandomForest,
    threshold: f64,
    trained_queries: usize,
}

impl WorkloadApp for ErrorsApp {
    type Model = ErrorsModel;

    fn name(&self) -> &'static str {
        "errors"
    }

    fn fit(&self, corpus: &TrainCorpus) -> Result<ErrorsModel> {
        corpus.require_records("errors.fit")?;
        let labels: Vec<u32> = corpus.records.iter().map(|r| r.is_error().into()).collect();
        Ok(ErrorsModel {
            embedder: Arc::clone(&self.embedder),
            forest: fit_forest(self.embedder.as_ref(), corpus, &labels, 2, 0xe440),
            threshold: self.threshold,
            trained_queries: corpus.len(),
        })
    }

    fn load_model(&self, json: &str) -> Result<ErrorsModel> {
        let state: ErrorsState = crate::persist::from_json(json, "errors model")?;
        Ok(ErrorsModel {
            embedder: Arc::clone(&self.embedder),
            forest: crate::persist::restore_forest(state.forest, self.embedder.dim())?,
            threshold: state.threshold,
            trained_queries: state.trained_queries,
        })
    }
}

impl AppModel for ErrorsModel {
    fn label_batch(&self, batch: &[EnrichedQuery]) -> Result<Vec<AppOutput>> {
        let vectors = EnrichedQuery::vectors(batch, self.embedder.as_ref());
        Ok(vectors
            .iter()
            .map(|v| {
                // Failure probability: the forest's vote share for class 1.
                let proba = self.forest.predict_proba(v, 2);
                let probability = proba.get(1).copied().unwrap_or(0.0) as f64;
                let mut out = AppOutput::new();
                out.set("error_probability", format!("{probability:.3}"));
                out.set("error_risky", (probability >= self.threshold).to_string());
                out
            })
            .collect())
    }

    fn embedder(&self) -> Option<Arc<dyn Embedder>> {
        Some(Arc::clone(&self.embedder))
    }

    fn report(&self) -> AppReport {
        AppReport::new(
            "errors",
            "predict failure probability from query syntax",
            self.trained_queries,
            self.embedder.as_ref(),
            &[("threshold", format!("{:.2}", self.threshold))],
        )
    }

    fn save_model(&self) -> Option<String> {
        crate::persist::to_json(&ErrorsState {
            forest: self.forest.to_state(),
            threshold: self.threshold,
            trained_queries: self.trained_queries,
        })
    }
}

/// Serialized form of an [`ErrorsModel`]. The threshold travels with
/// the model (it is a label-time decision rule), so a restored model
/// flags exactly the queries the saved one did.
#[derive(serde::Serialize, serde::Deserialize)]
struct ErrorsState {
    forest: querc_learn::ForestState,
    threshold: f64,
    trained_queries: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use querc_workloads::QueryRecord;

    /// A workload where one query shape reliably blows memory.
    fn records(seed_off: u64) -> Vec<QueryRecord> {
        (0..80)
            .map(|i| {
                let i = i + seed_off * 1000;
                let flaky = i.is_multiple_of(4);
                let sql = if flaky {
                    format!(
                        "select a.*, b.* from giant_facts a join giant_facts b on a.k = b.k where a.x > {i}"
                    )
                } else {
                    format!("select c from small_dim where id = {i}")
                };
                QueryRecord {
                    sql,
                    user: "u".into(),
                    account: "a".into(),
                    cluster: "c".into(),
                    dialect: "generic".into(),
                    runtime_ms: 1.0,
                    mem_mb: 1.0,
                    // The flaky shape fails most of the time.
                    error_code: (flaky && i % 8 != 4).then_some(604),
                    timestamp: i,
                }
            })
            .collect()
    }

    fn app() -> ErrorsApp {
        ErrorsApp::new(Arc::new(querc_embed::BagOfTokens::new(64, true)))
    }

    fn model() -> ErrorsModel {
        app()
            .fit(&TrainCorpus::from_records(records(0), 0xe441))
            .unwrap()
    }

    /// `(error_probability, error_risky)` per query.
    fn assess(model: &ErrorsModel, sqls: &[&str]) -> Vec<(f64, bool)> {
        let batch: Vec<EnrichedQuery> = sqls.iter().map(|s| EnrichedQuery::from_sql(*s)).collect();
        model
            .label_batch(&batch)
            .unwrap()
            .iter()
            .map(|out| {
                let p = out.get("error_probability").unwrap().parse().unwrap();
                (p, out.get("error_risky") == Some("true"))
            })
            .collect()
    }

    #[test]
    fn flaky_shape_is_risky_safe_shape_is_not() {
        let risk = assess(
            &model(),
            &[
                "select a.*, b.* from giant_facts a join giant_facts b on a.k = b.k where a.x > 999",
                "select c from small_dim where id = 999",
            ],
        );
        let (risky, safe) = (risk[0], risk[1]);
        assert!(risky.0 > safe.0);
        assert!(risky.1, "{risky:?}");
        assert!(!safe.1, "{safe:?}");
    }

    #[test]
    fn holdout_accuracy_beats_base_rate() {
        let held = records(7);
        let sqls: Vec<&str> = held.iter().map(|r| r.sql.as_str()).collect();
        let hits = assess(&model(), &sqls)
            .iter()
            .zip(&held)
            .filter(|((_, risky), r)| *risky == r.is_error())
            .count();
        let acc = hits as f64 / held.len() as f64;
        // Base rate of the majority class ("no error") is ~81%.
        assert!(acc > 0.85, "accuracy {acc}");
    }

    #[test]
    fn errors_app_implements_workload_app() {
        let model = model();
        let risky = EnrichedQuery::from_sql(
            "select a.*, b.* from giant_facts a join giant_facts b on a.k = b.k where a.x > 999",
        );
        let safe = EnrichedQuery::from_sql("select c from small_dim where id = 999");
        let out = model.label_batch(&[risky, safe]).unwrap();
        assert_eq!(out[0].get("error_risky"), Some("true"));
        assert_eq!(out[1].get("error_risky"), Some("false"));
        let p0: f64 = out[0].get("error_probability").unwrap().parse().unwrap();
        let p1: f64 = out[1].get("error_probability").unwrap().parse().unwrap();
        assert!(p0 > p1);
        assert_eq!(model.report().app, "errors");
    }

    #[test]
    fn model_round_trips_through_save_load() {
        let corpus = TrainCorpus::from_records(records(0), 3);
        let app = app();
        let model = app.fit(&corpus).unwrap();
        let json = model.save_model().expect("forest is persistable");
        let restored = app.load_model(&json).unwrap();
        let batch: Vec<EnrichedQuery> = [
            "select a.*, b.* from giant_facts a join giant_facts b on a.k = b.k where a.x > 7",
            "select c from small_dim where id = 7",
        ]
        .iter()
        .map(|s| EnrichedQuery::from_sql(*s))
        .collect();
        assert_eq!(
            model.label_batch(&batch).unwrap(),
            restored.label_batch(&batch).unwrap()
        );
        assert_eq!(restored.report(), model.report());
    }

    #[test]
    fn load_rejects_forest_wider_than_the_embedder() {
        let corpus = TrainCorpus::from_records(records(0), 3);
        let wide = app();
        let json = wide.fit(&corpus).unwrap().save_model().unwrap();
        // Restoring under a narrower embedder would index-panic at
        // label time; it must be rejected up front.
        let narrow = ErrorsApp::new(Arc::new(querc_embed::BagOfTokens::new(4, true)));
        assert!(matches!(
            narrow.load_model(&json),
            Err(crate::error::QuercError::Corrupt { .. })
        ));
        assert!(matches!(
            wide.load_model("{broken"),
            Err(crate::error::QuercError::Corrupt { .. })
        ));
    }

    #[test]
    fn probabilities_in_unit_interval() {
        for (p, _) in assess(&model(), &["select 1", "drop table x", ""]) {
            assert!((0.0..=1.0).contains(&p));
        }
    }
}
