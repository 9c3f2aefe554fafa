//! Workload summarization for index recommendation (paper §5.1).
//!
//! The Querc pipeline: embed every query, pick K with the elbow method,
//! run K-means, and keep the query nearest each centroid ("witnesses") as
//! the compressed workload handed to the tuning advisor.
//!
//! Two classical comparators are provided for the ablation benches:
//! K-medoids over hand-engineered syntactic features (the Chaudhuri-style
//! approach the paper argues requires per-workload distance engineering)
//! and uniform random sampling (what a tuning advisor's native compressor
//! does).

use super::{AppModel, AppOutput, AppReport, TrainCorpus, WorkloadApp};
use crate::enriched::EnrichedQuery;
use crate::error::Result;
use querc_cluster::{choose_k_elbow, kmeans, KMeansConfig};
use querc_embed::Embedder;
use querc_index::{FlatIndex, IndexStats, Metric, VectorIndex};
use querc_linalg::Pcg32;
use querc_sql::features::feature_vector;
use querc_sql::Dialect;
use std::sync::Arc;

/// How to compress the workload.
pub enum SummaryMethod<'a> {
    /// Learned embeddings + K-means + elbow (the paper's method).
    Embedding(&'a dyn Embedder),
    /// K-medoids over fixed syntactic features (classical baseline).
    SyntacticKMedoids,
    /// Uniform random sample (native-advisor strawman).
    RandomSample,
}

/// Summarization knobs.
#[derive(Debug, Clone)]
pub struct SummaryConfig {
    /// Fix K instead of running the elbow scan.
    pub k: Option<usize>,
    /// Elbow scan lower bound (used when `k` is None).
    pub k_min: usize,
    /// Elbow scan upper bound (used when `k` is None).
    pub k_max: usize,
    /// Elbow plateau threshold (relative gain vs initial SSE).
    pub plateau: f64,
    /// RNG seed for k-means initialization and sampling.
    pub seed: u64,
}

impl Default for SummaryConfig {
    fn default() -> Self {
        SummaryConfig {
            k: None,
            k_min: 4,
            k_max: 40,
            plateau: 0.01,
            seed: 0x5a11,
        }
    }
}

/// Compress `sqls` to a witness subset; returns indices into `sqls`.
pub fn summarize_workload(
    sqls: &[&str],
    method: &SummaryMethod<'_>,
    cfg: &SummaryConfig,
) -> Vec<usize> {
    if sqls.is_empty() {
        return Vec::new();
    }
    let mut rng = Pcg32::with_stream(cfg.seed, 0x5a12);
    match method {
        SummaryMethod::Embedding(embedder) => {
            let points: Vec<Vec<f32>> = sqls.iter().map(|s| embedder.embed_sql(s)).collect();
            let k = effective_k(cfg, &points, &mut rng);
            let result = kmeans(
                &points,
                &KMeansConfig {
                    k,
                    ..Default::default()
                },
                &mut rng,
            );
            dedup_witnesses(result.witnesses(&points))
        }
        SummaryMethod::SyntacticKMedoids => {
            let points: Vec<Vec<f32>> = sqls
                .iter()
                .map(|s| feature_vector(s, Dialect::Generic))
                .collect();
            let k = effective_k(cfg, &points, &mut rng);
            let res = querc_cluster::kmedoids::kmedoids_euclidean(&points, k, &mut rng);
            dedup_witnesses(res.medoids)
        }
        SummaryMethod::RandomSample => {
            let k = cfg.k.unwrap_or(cfg.k_max).min(sqls.len());
            rng.sample_indices(sqls.len(), k)
        }
    }
}

fn effective_k(cfg: &SummaryConfig, points: &[Vec<f32>], rng: &mut Pcg32) -> usize {
    match cfg.k {
        Some(k) => k.min(points.len()),
        None => choose_k_elbow(
            points,
            cfg.k_min.min(points.len().max(1)),
            cfg.k_max.min(points.len()),
            cfg.plateau,
            rng,
        ),
    }
}

fn dedup_witnesses(mut w: Vec<usize>) -> Vec<usize> {
    w.sort_unstable();
    w.dedup();
    w
}

/// [`summarize_workload`]'s clustering behind the uniform
/// [`WorkloadApp`] interface: `fit` clusters the training workload and
/// keeps per-cluster witnesses; `label_batch` assigns each incoming
/// query to its summary cluster.
///
/// Labels attached per query: `summary_cluster` (cluster id) and
/// `summary_witness` (the cluster's representative query — what the
/// tuning advisor would see in the compressed workload).
pub struct SummarizeApp {
    embedder: Arc<dyn Embedder>,
    /// Clustering configuration used at fit time.
    pub cfg: SummaryConfig,
}

impl SummarizeApp {
    /// A summarization app over `embedder` with the default elbow scan.
    pub fn new(embedder: Arc<dyn Embedder>) -> SummarizeApp {
        SummarizeApp {
            embedder,
            cfg: SummaryConfig::default(),
        }
    }

    /// Override the clustering configuration.
    pub fn with_config(mut self, cfg: SummaryConfig) -> SummarizeApp {
        self.cfg = cfg;
        self
    }
}

/// A fitted workload summary: cluster centroids plus their witnesses.
pub struct SummaryModel {
    embedder: Arc<dyn Embedder>,
    /// Exact index over the summary centroids; serving assigns each
    /// incoming query's vector with a k=1 search.
    centroids: FlatIndex,
    /// Witness SQL per centroid (`witnesses[c]` represents cluster `c`).
    witnesses: Vec<String>,
    /// Indices of the witness queries in the training corpus.
    pub witness_indices: Vec<usize>,
    trained_queries: usize,
}

impl SummaryModel {
    /// The compressed workload: one representative SQL per cluster.
    pub fn witnesses(&self) -> &[String] {
        &self.witnesses
    }
}

impl WorkloadApp for SummarizeApp {
    type Model = SummaryModel;

    fn name(&self) -> &'static str {
        "summarize"
    }

    fn fit(&self, corpus: &TrainCorpus) -> Result<SummaryModel> {
        corpus.require_records("summarize.fit")?;
        let docs = corpus.token_corpus();
        let points = self.embedder.embed_batch(&docs);
        let mut rng = Pcg32::with_stream(self.cfg.seed ^ corpus.seed, 0x5a12);
        let k = effective_k(&self.cfg, &points, &mut rng);
        let result = kmeans(
            &points,
            &KMeansConfig {
                k,
                ..Default::default()
            },
            &mut rng,
        );
        // Per-centroid witness: the training query nearest each centroid.
        let per_cluster = result.witnesses(&points);
        let witness_indices = dedup_witnesses(per_cluster.clone());
        let witnesses = per_cluster
            .iter()
            .map(|&i| corpus.records[i].sql.clone())
            .collect();
        Ok(SummaryModel {
            embedder: Arc::clone(&self.embedder),
            centroids: FlatIndex::from_rows(&result.centroids, Metric::Euclidean),
            witnesses,
            witness_indices,
            trained_queries: corpus.len(),
        })
    }

    fn load_model(&self, json: &str) -> Result<SummaryModel> {
        let state: SummaryState = crate::persist::from_json(json, "summarize model")?;
        let rows = restore_centroids(
            &state.dim,
            &state.centroids,
            self.embedder.dim(),
            "summarize",
        )?;
        if state.witnesses.len() != rows.len() {
            return Err(crate::persist::corrupt(format!(
                "summarize model has {} witnesses for {} centroids",
                state.witnesses.len(),
                rows.len()
            )));
        }
        Ok(SummaryModel {
            embedder: Arc::clone(&self.embedder),
            centroids: FlatIndex::from_rows(&rows, Metric::Euclidean),
            witnesses: state.witnesses,
            witness_indices: state.witness_indices,
            trained_queries: state.trained_queries,
        })
    }
}

impl AppModel for SummaryModel {
    fn label_batch(&self, batch: &[EnrichedQuery]) -> Result<Vec<AppOutput>> {
        let vectors = EnrichedQuery::vectors(batch, self.embedder.as_ref());
        let refs: Vec<&[f32]> = vectors.iter().map(|v| v.as_slice()).collect();
        // One batched k=1 search over the centroid index for the chunk.
        Ok(self
            .centroids
            .nearest_batch(&refs)
            .into_iter()
            .map(|c| {
                let cluster = c.unwrap_or(0) as usize;
                let mut out = AppOutput::new();
                out.set("summary_cluster", cluster.to_string());
                out.set("summary_witness", self.witnesses[cluster].clone());
                out
            })
            .collect())
    }

    fn embedder(&self) -> Option<Arc<dyn Embedder>> {
        Some(Arc::clone(&self.embedder))
    }

    fn index_stats(&self) -> Option<IndexStats> {
        Some(self.centroids.stats())
    }

    fn report(&self) -> AppReport {
        AppReport::new(
            "summarize",
            "compress the workload to cluster witnesses for index tuning",
            self.trained_queries,
            self.embedder.as_ref(),
            &[
                ("clusters", self.centroids.len().to_string()),
                ("witnesses", self.witness_indices.len().to_string()),
            ],
        )
    }

    fn save_model(&self) -> Option<String> {
        let store = self.centroids.store();
        let mut flat = Vec::with_capacity(store.len() * store.dim());
        for row in store.iter() {
            flat.extend_from_slice(row);
        }
        crate::persist::to_json(&SummaryState {
            dim: store.dim(),
            centroids: flat,
            witnesses: self.witnesses.clone(),
            witness_indices: self.witness_indices.clone(),
            trained_queries: self.trained_queries,
        })
    }
}

/// Serialized form of a [`SummaryModel`]: centroid rows flattened
/// row-major (`dim` floats each) plus the witness table.
#[derive(serde::Serialize, serde::Deserialize)]
struct SummaryState {
    dim: usize,
    centroids: Vec<f32>,
    witnesses: Vec<String>,
    witness_indices: Vec<usize>,
    trained_queries: usize,
}

/// Unflatten and validate a serialized centroid matrix against the app
/// embedder's width. Shared with the recommendation app — both restore
/// a centroid `FlatIndex` that serving will probe with embedder output.
pub(crate) fn restore_centroids(
    dim: &usize,
    flat: &[f32],
    embedder_dim: usize,
    app: &str,
) -> Result<Vec<Vec<f32>>> {
    let dim = *dim;
    if dim == 0 || dim != embedder_dim {
        return Err(crate::persist::corrupt(format!(
            "{app} model centroids have dim {dim} but embedder has dim {embedder_dim}"
        )));
    }
    if flat.is_empty() || !flat.len().is_multiple_of(dim) {
        return Err(crate::persist::corrupt(format!(
            "{app} model centroid matrix has {} floats, not a positive multiple of dim {dim}",
            flat.len()
        )));
    }
    Ok(flat.chunks_exact(dim).map(<[f32]>::to_vec).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use querc_embed::BagOfTokens;

    fn mixed_workload() -> Vec<String> {
        let mut sqls = Vec::new();
        for i in 0..25 {
            sqls.push(format!(
                "select c{}, sum(v) from sales_orders where d > {} group by c{}",
                i % 3,
                i,
                i % 3
            ));
            sqls.push(format!("insert into raw_events values ({i}, 'x')"));
            sqls.push(format!("select * from users where user_id = {i}"));
        }
        sqls
    }

    #[test]
    fn embedding_summary_covers_query_families() {
        let sqls = mixed_workload();
        let refs: Vec<&str> = sqls.iter().map(String::as_str).collect();
        let embedder = BagOfTokens::new(128, true);
        let cfg = SummaryConfig {
            k: Some(6),
            ..Default::default()
        };
        let witnesses = summarize_workload(&refs, &SummaryMethod::Embedding(&embedder), &cfg);
        assert!(!witnesses.is_empty() && witnesses.len() <= 6);
        // The witnesses must span all three families.
        let kinds: std::collections::HashSet<&str> = witnesses
            .iter()
            .map(|&i| {
                if refs[i].starts_with("insert") {
                    "insert"
                } else if refs[i].contains("group by") {
                    "agg"
                } else {
                    "lookup"
                }
            })
            .collect();
        assert_eq!(kinds.len(), 3, "summary misses a family: {witnesses:?}");
    }

    #[test]
    fn syntactic_kmedoids_also_covers_families() {
        let sqls = mixed_workload();
        let refs: Vec<&str> = sqls.iter().map(String::as_str).collect();
        let cfg = SummaryConfig {
            k: Some(6),
            ..Default::default()
        };
        let witnesses = summarize_workload(&refs, &SummaryMethod::SyntacticKMedoids, &cfg);
        assert!(!witnesses.is_empty() && witnesses.len() <= 6);
    }

    #[test]
    fn random_sample_has_requested_size() {
        let sqls = mixed_workload();
        let refs: Vec<&str> = sqls.iter().map(String::as_str).collect();
        let cfg = SummaryConfig {
            k: Some(10),
            ..Default::default()
        };
        let w = summarize_workload(&refs, &SummaryMethod::RandomSample, &cfg);
        assert_eq!(w.len(), 10);
        assert!(w.iter().all(|&i| i < refs.len()));
    }

    #[test]
    fn elbow_mode_picks_small_k_for_three_families() {
        let sqls = mixed_workload();
        let refs: Vec<&str> = sqls.iter().map(String::as_str).collect();
        let embedder = BagOfTokens::new(128, true);
        let cfg = SummaryConfig {
            k: None,
            k_min: 2,
            k_max: 15,
            plateau: 0.05,
            ..Default::default()
        };
        let w = summarize_workload(&refs, &SummaryMethod::Embedding(&embedder), &cfg);
        assert!(
            (2..=15).contains(&w.len()),
            "elbow K out of range: {}",
            w.len()
        );
    }

    #[test]
    fn summarize_app_implements_workload_app() {
        use querc_workloads::QueryRecord;
        let sqls = mixed_workload();
        let records: Vec<QueryRecord> = sqls
            .iter()
            .enumerate()
            .map(|(i, sql)| QueryRecord {
                sql: sql.clone(),
                user: "u".into(),
                account: "a".into(),
                cluster: "c".into(),
                dialect: "generic".into(),
                runtime_ms: 1.0,
                mem_mb: 1.0,
                error_code: None,
                timestamp: i as u64,
            })
            .collect();
        let corpus = TrainCorpus::from_records(records, 11);
        let app =
            SummarizeApp::new(Arc::new(BagOfTokens::new(128, true))).with_config(SummaryConfig {
                k: Some(6),
                ..Default::default()
            });
        let model = app.fit(&corpus).unwrap();
        assert!(!model.witnesses().is_empty() && model.witnesses().len() <= 6);
        let out = model
            .label_batch(&[
                EnrichedQuery::from_sql("insert into raw_events values (99, 'x')"),
                EnrichedQuery::from_sql("select * from users where user_id = 99"),
            ])
            .unwrap();
        assert!(out[0].get("summary_cluster").is_some());
        assert!(out[0].get("summary_witness").is_some());
        // Distinct query families land in distinct summary clusters.
        assert_ne!(
            out[0].get("summary_cluster"),
            out[1].get("summary_cluster"),
            "insert and lookup should not share a cluster"
        );
        assert_eq!(model.report().app, "summarize");
    }

    #[test]
    fn model_round_trips_through_save_load() {
        use querc_workloads::QueryRecord;
        let records: Vec<QueryRecord> = mixed_workload()
            .iter()
            .enumerate()
            .map(|(i, sql)| QueryRecord {
                sql: sql.clone(),
                user: "u".into(),
                account: "a".into(),
                cluster: "c".into(),
                dialect: "generic".into(),
                runtime_ms: 1.0,
                mem_mb: 1.0,
                error_code: None,
                timestamp: i as u64,
            })
            .collect();
        let corpus = TrainCorpus::from_records(records, 11);
        let app =
            SummarizeApp::new(Arc::new(BagOfTokens::new(128, true))).with_config(SummaryConfig {
                k: Some(6),
                ..Default::default()
            });
        let model = app.fit(&corpus).unwrap();
        let json = model.save_model().expect("centroids are persistable");
        let restored = app.load_model(&json).unwrap();
        let batch: Vec<EnrichedQuery> = [
            "insert into raw_events values (99, 'x')",
            "select * from users where user_id = 99",
            "select c1, sum(v) from sales_orders where d > 9 group by c1",
        ]
        .iter()
        .map(|s| EnrichedQuery::from_sql(*s))
        .collect();
        assert_eq!(
            model.label_batch(&batch).unwrap(),
            restored.label_batch(&batch).unwrap()
        );
        assert_eq!(restored.witnesses(), model.witnesses());
        assert_eq!(restored.witness_indices, model.witness_indices);

        // Witness/centroid count mismatch would index-panic at label
        // time; the restore path must reject it instead.
        let mut state: SummaryState = crate::persist::from_json(&json, "t").unwrap();
        state.witnesses.pop();
        let truncated = crate::persist::to_json(&state).unwrap();
        assert!(matches!(
            app.load_model(&truncated),
            Err(crate::error::QuercError::Corrupt { .. })
        ));
    }

    #[test]
    fn empty_workload() {
        let embedder = BagOfTokens::new(16, false);
        let w = summarize_workload(
            &[],
            &SummaryMethod::Embedding(&embedder),
            &SummaryConfig::default(),
        );
        assert!(w.is_empty());
    }

    #[test]
    fn deterministic_under_seed() {
        let sqls = mixed_workload();
        let refs: Vec<&str> = sqls.iter().map(String::as_str).collect();
        let embedder = BagOfTokens::new(64, true);
        let cfg = SummaryConfig {
            k: Some(5),
            ..Default::default()
        };
        let a = summarize_workload(&refs, &SummaryMethod::Embedding(&embedder), &cfg);
        let b = summarize_workload(&refs, &SummaryMethod::Embedding(&embedder), &cfg);
        assert_eq!(a, b);
    }
}
