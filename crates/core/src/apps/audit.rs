//! Security auditing by user/account prediction (paper §5.2).
//!
//! Train a classifier `V → user` from query syntax alone; at serving time
//! a query whose *predicted* user differs from the *actual* submitting
//! user is flagged for audit (a possibly compromised account). The same
//! machinery with `account` labels powers Table 1's account-labeling task
//! and misrouting detection.

use super::{AppModel, AppOutput, AppReport, TrainCorpus, WorkloadApp};
use crate::classifier::TrainedLabeler;
use crate::enriched::EnrichedQuery;
use crate::error::Result;
use querc_embed::Embedder;
use querc_learn::{ForestConfig, RandomForest};
use querc_linalg::Pcg32;
use querc_workloads::QueryRecord;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Verdict for one audited query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditVerdict {
    /// The user the query was actually submitted as.
    pub actual_user: String,
    /// The user the model believes wrote it.
    pub predicted_user: String,
    /// True when prediction and reality disagree — flag for review.
    pub flagged: bool,
}

/// Per-account labeling accuracy (Table 2's rows).
#[derive(Debug, Clone, PartialEq)]
pub struct AccountAccuracy {
    /// Account (tenant) name.
    pub account: String,
    /// Held-out queries scored for this account.
    pub queries: usize,
    /// Distinct users seen in those queries.
    pub users: usize,
    /// Fraction of queries whose predicted user matched the actual one.
    pub accuracy: f64,
}

/// A trained security auditor.
pub struct SecurityAuditor {
    embedder: Arc<dyn Embedder>,
    user_model: TrainedLabeler,
    /// Trees in the user-prediction forest.
    n_trees: usize,
    /// Number of records the user model was fitted on.
    pub trained_queries: usize,
}

impl SecurityAuditor {
    /// Train the user predictor from labeled log records.
    pub fn train(
        records: &[QueryRecord],
        embedder: Arc<dyn Embedder>,
        n_trees: usize,
        seed: u64,
    ) -> SecurityAuditor {
        let docs: Vec<Vec<String>> = records.iter().map(|r| r.tokens()).collect();
        let vectors = embedder.embed_batch(&docs);
        let names: Vec<&str> = records.iter().map(|r| r.user.as_str()).collect();
        let mut rng = Pcg32::with_stream(seed, 0xa0d1);
        let user_model = TrainedLabeler::train(
            RandomForest::new(ForestConfig::extra_trees(n_trees)),
            &vectors,
            &names,
            &mut rng,
        );
        SecurityAuditor {
            embedder,
            user_model,
            n_trees,
            trained_queries: records.len(),
        }
    }

    /// Audit one query submission.
    pub fn audit(&self, sql: &str, actual_user: &str) -> AuditVerdict {
        let v = self.embedder.embed_sql(sql);
        let predicted = self.user_model.predict(&v).to_string();
        AuditVerdict {
            flagged: predicted != actual_user,
            actual_user: actual_user.to_string(),
            predicted_user: predicted,
        }
    }

    /// Audit a batch; returns only flagged verdicts with their indices.
    /// Embeds through the batched path.
    pub fn audit_batch(&self, records: &[QueryRecord]) -> Vec<(usize, AuditVerdict)> {
        let docs: Vec<Vec<String>> = records.iter().map(|r| r.tokens()).collect();
        self.predict_users_batch(&docs)
            .into_iter()
            .zip(records)
            .enumerate()
            .filter_map(|(i, (predicted, r))| {
                (predicted != r.user).then_some((
                    i,
                    AuditVerdict {
                        flagged: true,
                        actual_user: r.user.clone(),
                        predicted_user: predicted,
                    },
                ))
            })
            .collect()
    }

    /// Predict the submitting user for a chunk of pre-tokenized queries
    /// through the embedder's batched path — the serving hot loop.
    pub fn predict_users_batch(&self, docs: &[Vec<String>]) -> Vec<String> {
        self.embedder
            .embed_batch(docs)
            .iter()
            .map(|v| self.user_model.predict(v).to_string())
            .collect()
    }

    /// Distinct users seen at training time.
    pub fn known_users(&self) -> usize {
        self.user_model.labels().len()
    }
}

/// Security auditing as a [`WorkloadApp`]: fits a [`SecurityAuditor`].
///
/// Labels attached per query: `predicted_user`, plus `audit_flag=true`
/// when the query carries a `user` label that disagrees with the
/// prediction (§5.2's compromised-account signal).
pub struct AuditApp {
    embedder: Arc<dyn Embedder>,
    /// Trees in the user-prediction forest.
    pub n_trees: usize,
}

impl AuditApp {
    /// An auditing app over `embedder` with the default forest size.
    pub fn new(embedder: Arc<dyn Embedder>) -> AuditApp {
        AuditApp {
            embedder,
            n_trees: 40,
        }
    }

    /// Override the number of trees in the user-prediction forest.
    pub fn with_trees(mut self, n_trees: usize) -> AuditApp {
        self.n_trees = n_trees;
        self
    }
}

impl WorkloadApp for AuditApp {
    type Model = SecurityAuditor;

    fn name(&self) -> &'static str {
        "audit"
    }

    fn fit(&self, corpus: &TrainCorpus) -> Result<SecurityAuditor> {
        corpus.require_records("audit.fit")?;
        Ok(SecurityAuditor::train(
            &corpus.records,
            Arc::clone(&self.embedder),
            self.n_trees,
            corpus.seed ^ 0xa0d1,
        ))
    }

    fn load_model(&self, json: &str) -> Result<SecurityAuditor> {
        let state: AuditState = crate::persist::from_json(json, "audit model")?;
        let querc_learn::ClassifierState::Forest(forest) = &state.labeler.classifier else {
            return Err(crate::persist::corrupt(
                "audit model labeler is not a forest",
            ));
        };
        let n_trees = forest.trees.len();
        let user_model = TrainedLabeler::from_state(state.labeler)?;
        if user_model.dim() != self.embedder.dim() {
            return Err(crate::persist::corrupt(format!(
                "audit model trained at dim {} but embedder has dim {}",
                user_model.dim(),
                self.embedder.dim()
            )));
        }
        Ok(SecurityAuditor {
            embedder: Arc::clone(&self.embedder),
            user_model,
            n_trees,
            trained_queries: state.trained_queries,
        })
    }
}

impl AppModel for SecurityAuditor {
    fn label_batch(&self, batch: &[EnrichedQuery]) -> Result<Vec<AppOutput>> {
        // Ingress-enriched vectors are reused; anything else embeds in
        // one batched call from the memoized token streams.
        let vectors = EnrichedQuery::vectors(batch, self.embedder.as_ref());
        Ok(batch
            .iter()
            .zip(vectors)
            .map(|(q, v)| {
                let user = self.user_model.predict(&v).to_string();
                let mut out = AppOutput::new();
                if let Some(actual) = q.get("user") {
                    out.set("audit_flag", (actual != user).to_string());
                }
                out.set("predicted_user", user);
                out
            })
            .collect())
    }

    fn embedder(&self) -> Option<Arc<dyn Embedder>> {
        Some(Arc::clone(&self.embedder))
    }

    fn report(&self) -> AppReport {
        AppReport::new(
            "audit",
            "predict the submitting user from syntax; flag out-of-character queries",
            self.trained_queries,
            self.embedder.as_ref(),
            &[
                ("users", self.known_users().to_string()),
                ("trees", self.n_trees.to_string()),
            ],
        )
    }

    fn save_model(&self) -> Option<String> {
        crate::persist::to_json(&AuditState {
            labeler: self.user_model.export_state()?,
            trained_queries: self.trained_queries,
        })
    }
}

/// Serialized form of a [`SecurityAuditor`] — just the labeler; the
/// embedder is app state and travels in the snapshot's app header.
#[derive(serde::Serialize, serde::Deserialize)]
struct AuditState {
    labeler: crate::classifier::LabelerState,
    trained_queries: usize,
}

/// Per-account user-prediction accuracy over held-out records, sorted by
/// query volume descending — exactly the layout of the paper's Table 2.
pub fn per_account_accuracy(
    auditor: &SecurityAuditor,
    records: &[QueryRecord],
) -> Vec<AccountAccuracy> {
    #[derive(Default)]
    struct Acc {
        hits: usize,
        total: usize,
        users: std::collections::HashSet<String>,
    }
    let mut by_account: BTreeMap<&str, Acc> = BTreeMap::new();
    for r in records {
        let verdict = auditor.audit(&r.sql, &r.user);
        let acc = by_account.entry(r.account.as_str()).or_default();
        acc.total += 1;
        acc.users.insert(r.user.clone());
        if !verdict.flagged {
            acc.hits += 1;
        }
    }
    let mut rows: Vec<AccountAccuracy> = by_account
        .into_iter()
        .map(|(account, acc)| AccountAccuracy {
            account: account.to_string(),
            queries: acc.total,
            users: acc.users.len(),
            accuracy: acc.hits as f64 / acc.total.max(1) as f64,
        })
        .collect();
    rows.sort_by_key(|row| std::cmp::Reverse(row.queries));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use querc_embed::BagOfTokens;

    fn records() -> Vec<QueryRecord> {
        // Two users with sharply distinct habits.
        (0..40)
            .map(|i| {
                let (user, sql) = if i % 2 == 0 {
                    (
                        "acct/alice",
                        format!("select revenue from finance_reports where q = {i}"),
                    )
                } else {
                    (
                        "acct/bob",
                        format!("insert into sensor_stream values ({i}, {i})"),
                    )
                };
                QueryRecord {
                    sql,
                    user: user.into(),
                    account: "acct".into(),
                    cluster: "c0".into(),
                    dialect: "generic".into(),
                    runtime_ms: 1.0,
                    mem_mb: 1.0,
                    error_code: None,
                    timestamp: i,
                }
            })
            .collect()
    }

    fn auditor() -> SecurityAuditor {
        SecurityAuditor::train(&records(), Arc::new(BagOfTokens::new(64, true)), 15, 7)
    }

    #[test]
    fn normal_queries_pass_audit() {
        let a = auditor();
        let v = a.audit(
            "select revenue from finance_reports where q = 99",
            "acct/alice",
        );
        assert!(!v.flagged, "{v:?}");
    }

    #[test]
    fn out_of_character_query_is_flagged() {
        let a = auditor();
        // Alice's account suddenly issues Bob-style ingest traffic.
        let v = a.audit("insert into sensor_stream values (1, 2)", "acct/alice");
        assert!(v.flagged);
        assert_eq!(v.predicted_user, "acct/bob");
    }

    #[test]
    fn audit_batch_returns_only_flags() {
        let a = auditor();
        let mut recs = records();
        // Corrupt one record: bob's query under alice's name.
        recs[1].user = "acct/alice".into();
        let flags = a.audit_batch(&recs);
        assert!(flags.iter().any(|(i, _)| *i == 1));
        // Mostly unflagged.
        assert!(flags.len() < recs.len() / 4);
    }

    #[test]
    fn per_account_accuracy_shape() {
        let a = auditor();
        let rows = per_account_accuracy(&a, &records());
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].users, 2);
        assert_eq!(rows[0].queries, 40);
        assert!(
            rows[0].accuracy > 0.9,
            "separable users: {}",
            rows[0].accuracy
        );
    }

    #[test]
    fn audit_app_implements_workload_app() {
        let corpus = TrainCorpus::from_records(records(), 7);
        let app = AuditApp::new(Arc::new(BagOfTokens::new(64, true))).with_trees(15);
        let model = app.fit(&corpus).unwrap();
        let mut suspicious = EnrichedQuery::from_sql("insert into sensor_stream values (1, 2)");
        suspicious.set("user", "acct/alice");
        let unlabeled = EnrichedQuery::from_sql("select revenue from finance_reports where q = 3");
        let out = model.label_batch(&[suspicious, unlabeled]).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].get("predicted_user"), Some("acct/bob"));
        assert_eq!(out[0].get("audit_flag"), Some("true"));
        assert_eq!(out[1].get("predicted_user"), Some("acct/alice"));
        assert_eq!(out[1].get("audit_flag"), None, "no actual user to compare");
        let report = model.report();
        assert_eq!(report.app, "audit");
        assert_eq!(report.trained_queries, 40);
        assert!(app.fit(&TrainCorpus::default()).is_err(), "empty corpus");
    }

    #[test]
    fn model_round_trips_through_save_load() {
        let corpus = TrainCorpus::from_records(records(), 7);
        let app = AuditApp::new(Arc::new(BagOfTokens::new(64, true))).with_trees(15);
        let model = app.fit(&corpus).unwrap();
        let json = model.save_model().expect("forest labeler is persistable");
        // A default-configured app restores it: the fitted tree count
        // is model state, so the report survives too.
        let restored = AuditApp::new(Arc::new(BagOfTokens::new(64, true)))
            .load_model(&json)
            .unwrap();
        let mut suspicious = EnrichedQuery::from_sql("insert into sensor_stream values (1, 2)");
        suspicious.set("user", "acct/alice");
        let clean = EnrichedQuery::from_sql("select revenue from finance_reports where q = 3");
        let batch = [suspicious, clean];
        assert_eq!(
            model.label_batch(&batch).unwrap(),
            restored.label_batch(&batch).unwrap()
        );
        assert_eq!(restored.report(), model.report());
        // A dim-mismatched embedder is rejected, not index-panicked on.
        let narrow = AuditApp::new(Arc::new(BagOfTokens::new(8, true)));
        assert!(matches!(
            narrow.load_model(&json),
            Err(crate::error::QuercError::Corrupt { .. })
        ));
    }

    #[test]
    fn indistinguishable_users_cap_accuracy() {
        // All users run the SAME verbatim query — the paper's Table 2
        // failure mode. Accuracy cannot exceed the majority share.
        let shared: Vec<QueryRecord> = (0..30)
            .map(|i| QueryRecord {
                sql: "select * from shared_dashboard".into(),
                user: format!("acct/u{}", i % 3),
                account: "acct".into(),
                cluster: "c0".into(),
                dialect: "generic".into(),
                runtime_ms: 1.0,
                mem_mb: 1.0,
                error_code: None,
                timestamp: i,
            })
            .collect();
        let a = SecurityAuditor::train(&shared, Arc::new(BagOfTokens::new(64, true)), 15, 3);
        let rows = per_account_accuracy(&a, &shared);
        assert!(
            rows[0].accuracy < 0.5,
            "verbatim-identical queries must be nearly unpredictable, got {}",
            rows[0].accuracy
        );
    }
}
