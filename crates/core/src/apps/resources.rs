//! Resource-class prediction for speculative allocation (paper §4,
//! "Resource allocation").
//!
//! Syntax cannot predict exact runtimes, but coarse classes (short /
//! medium / long; memory-light / memory-heavy) are learnable and already
//! useful for load balancing and admission control. Labels come straight
//! from the log's measured runtime/memory columns.

use super::{fit_forest, AppModel, AppOutput, AppReport, TrainCorpus, WorkloadApp};
use crate::enriched::EnrichedQuery;
use crate::error::Result;
use querc_embed::Embedder;
use querc_learn::{Classifier, RandomForest};
use std::sync::Arc;

/// Coarse resource classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceClass {
    /// Runs in well under the short threshold (point lookups).
    Short,
    /// Between the two thresholds (typical aggregations).
    Medium,
    /// At or above the long threshold (joins, ETL).
    Long,
}

impl ResourceClass {
    /// Lower-case label value (`short` / `medium` / `long`).
    pub fn name(&self) -> &'static str {
        match self {
            ResourceClass::Short => "short",
            ResourceClass::Medium => "medium",
            ResourceClass::Long => "long",
        }
    }

    fn from_id(id: u32) -> ResourceClass {
        match id {
            0 => ResourceClass::Short,
            1 => ResourceClass::Medium,
            _ => ResourceClass::Long,
        }
    }
}

/// Thresholds (milliseconds) splitting the three classes.
#[derive(Debug, Clone, Copy)]
pub struct ResourceBuckets {
    /// Runtimes strictly below this are `Short`.
    pub short_below_ms: f64,
    /// Runtimes at or above this are `Long`.
    pub long_above_ms: f64,
}

impl Default for ResourceBuckets {
    fn default() -> Self {
        ResourceBuckets {
            short_below_ms: 100.0,
            long_above_ms: 600.0,
        }
    }
}

impl ResourceBuckets {
    /// Bucket a measured runtime.
    pub fn classify(&self, runtime_ms: f64) -> ResourceClass {
        if runtime_ms < self.short_below_ms {
            ResourceClass::Short
        } else if runtime_ms >= self.long_above_ms {
            ResourceClass::Long
        } else {
            ResourceClass::Medium
        }
    }
}

/// Resource-class prediction as a [`WorkloadApp`]: fits a
/// [`ResourcesModel`] mapping query embeddings to the runtime classes
/// derived from each record's measured `runtime_ms`.
///
/// Labels attached per query: `resource_class` — the coarse
/// short/medium/long bucket for admission control and load balancing.
pub struct ResourcesApp {
    embedder: Arc<dyn Embedder>,
    /// Runtime thresholds defining the three classes.
    pub buckets: ResourceBuckets,
}

impl ResourcesApp {
    /// A resource-class app over `embedder` with the default thresholds.
    pub fn new(embedder: Arc<dyn Embedder>) -> ResourcesApp {
        ResourcesApp {
            embedder,
            buckets: ResourceBuckets::default(),
        }
    }

    /// Override the runtime thresholds.
    pub fn with_buckets(mut self, buckets: ResourceBuckets) -> ResourcesApp {
        self.buckets = buckets;
        self
    }
}

/// A fitted runtime-class forest plus the thresholds its classes were
/// derived from.
pub struct ResourcesModel {
    embedder: Arc<dyn Embedder>,
    forest: RandomForest,
    buckets: ResourceBuckets,
    trained_queries: usize,
}

impl WorkloadApp for ResourcesApp {
    type Model = ResourcesModel;

    fn name(&self) -> &'static str {
        "resources"
    }

    fn fit(&self, corpus: &TrainCorpus) -> Result<ResourcesModel> {
        corpus.require_records("resources.fit")?;
        let labels: Vec<u32> = corpus
            .records
            .iter()
            .map(|r| self.buckets.classify(r.runtime_ms) as u32)
            .collect();
        Ok(ResourcesModel {
            embedder: Arc::clone(&self.embedder),
            forest: fit_forest(self.embedder.as_ref(), corpus, &labels, 3, 0x4e50),
            buckets: self.buckets,
            trained_queries: corpus.len(),
        })
    }

    fn load_model(&self, json: &str) -> Result<ResourcesModel> {
        let state: ResourcesState = crate::persist::from_json(json, "resources model")?;
        Ok(ResourcesModel {
            embedder: Arc::clone(&self.embedder),
            forest: crate::persist::restore_forest(state.forest, self.embedder.dim())?,
            buckets: ResourceBuckets {
                short_below_ms: state.short_below_ms,
                long_above_ms: state.long_above_ms,
            },
            trained_queries: state.trained_queries,
        })
    }
}

impl AppModel for ResourcesModel {
    fn label_batch(&self, batch: &[EnrichedQuery]) -> Result<Vec<AppOutput>> {
        let vectors = EnrichedQuery::vectors(batch, self.embedder.as_ref());
        Ok(vectors
            .iter()
            .map(|v| {
                let mut out = AppOutput::new();
                out.set(
                    "resource_class",
                    ResourceClass::from_id(self.forest.predict(v)).name(),
                );
                out
            })
            .collect())
    }

    fn embedder(&self) -> Option<Arc<dyn Embedder>> {
        Some(Arc::clone(&self.embedder))
    }

    fn report(&self) -> AppReport {
        AppReport::new(
            "resources",
            "predict coarse runtime class before execution",
            self.trained_queries,
            self.embedder.as_ref(),
            &[
                (
                    "short_below_ms",
                    format!("{:.0}", self.buckets.short_below_ms),
                ),
                (
                    "long_above_ms",
                    format!("{:.0}", self.buckets.long_above_ms),
                ),
            ],
        )
    }

    fn save_model(&self) -> Option<String> {
        crate::persist::to_json(&ResourcesState {
            forest: self.forest.to_state(),
            short_below_ms: self.buckets.short_below_ms,
            long_above_ms: self.buckets.long_above_ms,
            trained_queries: self.trained_queries,
        })
    }
}

/// Serialized form of a [`ResourcesModel`]: the forest plus the
/// thresholds its class ids were derived from (flattened — the derive
/// shim only handles scalar/Vec/String fields).
#[derive(serde::Serialize, serde::Deserialize)]
struct ResourcesState {
    forest: querc_learn::ForestState,
    short_below_ms: f64,
    long_above_ms: f64,
    trained_queries: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use querc_workloads::QueryRecord;

    fn records(offset: u64) -> Vec<QueryRecord> {
        (0..90)
            .map(|i| {
                let i = i + offset * 917;
                let (sql, ms) = match i % 3 {
                    0 => (format!("select v from kv_store where k = {i}"), 5.0),
                    1 => (
                        format!("select g, count(*) from mid_table where t > {i} group by g"),
                        300.0,
                    ),
                    _ => (
                        "select a.g, sum(b.v) from big_facts a join big_facts b on a.k = b.k group by a.g".to_string(),
                        2000.0,
                    ),
                };
                QueryRecord {
                    sql,
                    user: "u".into(),
                    account: "a".into(),
                    cluster: "c".into(),
                    dialect: "generic".into(),
                    runtime_ms: ms,
                    mem_mb: ms / 2.0,
                    error_code: None,
                    timestamp: i,
                }
            })
            .collect()
    }

    #[test]
    fn buckets_classify_correctly() {
        let b = ResourceBuckets::default();
        assert_eq!(b.classify(1.0), ResourceClass::Short);
        assert_eq!(b.classify(100.0), ResourceClass::Medium);
        assert_eq!(b.classify(599.9), ResourceClass::Medium);
        assert_eq!(b.classify(600.0), ResourceClass::Long);
    }

    fn app() -> ResourcesApp {
        ResourcesApp::new(Arc::new(querc_embed::BagOfTokens::new(64, true)))
    }

    /// The `resource_class` label of each query.
    fn classes(model: &ResourcesModel, sqls: &[&str]) -> Vec<String> {
        let batch: Vec<EnrichedQuery> = sqls.iter().map(|s| EnrichedQuery::from_sql(*s)).collect();
        model
            .label_batch(&batch)
            .unwrap()
            .iter()
            .map(|out| out.get("resource_class").unwrap().to_string())
            .collect()
    }

    #[test]
    fn predicts_classes_from_syntax() {
        let model = app()
            .fit(&TrainCorpus::from_records(records(0), 1 ^ 0x4e50))
            .unwrap();
        assert_eq!(
            classes(
                &model,
                &[
                    "select v from kv_store where k = 999",
                    "select a.g, sum(b.v) from big_facts a join big_facts b on a.k = b.k group by a.g",
                ]
            ),
            ["short", "long"]
        );
    }

    #[test]
    fn holdout_accuracy_is_high_on_separable_shapes() {
        let model = app()
            .fit(&TrainCorpus::from_records(records(0), 2 ^ 0x4e50))
            .unwrap();
        let held = records(5);
        let sqls: Vec<&str> = held.iter().map(|r| r.sql.as_str()).collect();
        let buckets = ResourceBuckets::default();
        let hits = classes(&model, &sqls)
            .iter()
            .zip(&held)
            .filter(|(c, r)| *c == buckets.classify(r.runtime_ms).name())
            .count();
        let acc = hits as f64 / held.len() as f64;
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn resources_app_implements_workload_app() {
        let corpus = TrainCorpus::from_records(records(0), 1);
        let model = app().fit(&corpus).unwrap();
        let out = model
            .label_batch(&[
                EnrichedQuery::from_sql("select v from kv_store where k = 999"),
                EnrichedQuery::from_sql(
                    "select a.g, sum(b.v) from big_facts a join big_facts b on a.k = b.k group by a.g",
                ),
            ])
            .unwrap();
        assert_eq!(out[0].get("resource_class"), Some("short"));
        assert_eq!(out[1].get("resource_class"), Some("long"));
        assert_eq!(model.report().app, "resources");
    }

    #[test]
    fn model_round_trips_through_save_load() {
        let corpus = TrainCorpus::from_records(records(0), 4);
        let app = app().with_buckets(ResourceBuckets {
            short_below_ms: 50.0,
            long_above_ms: 900.0,
        });
        let model = app.fit(&corpus).unwrap();
        let json = model.save_model().expect("forest is persistable");
        let restored = app.load_model(&json).unwrap();
        let batch: Vec<EnrichedQuery> = [
            "select v from kv_store where k = 999",
            "select g, count(*) from mid_table where t > 9 group by g",
            "select a.g, sum(b.v) from big_facts a join big_facts b on a.k = b.k group by a.g",
        ]
        .iter()
        .map(|s| EnrichedQuery::from_sql(*s))
        .collect();
        assert_eq!(
            model.label_batch(&batch).unwrap(),
            restored.label_batch(&batch).unwrap()
        );
        assert!((restored.buckets.long_above_ms - 900.0).abs() < 1e-12);
        assert_eq!(restored.report(), model.report());
    }

    #[test]
    fn class_names() {
        assert_eq!(ResourceClass::Short.name(), "short");
        assert_eq!(ResourceClass::from_id(2), ResourceClass::Long);
        assert_eq!(ResourceClass::from_id(99), ResourceClass::Long);
    }
}
