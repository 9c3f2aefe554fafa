//! Integration: the unified serving façade end to end.
//!
//! All six workload apps register with one `WorkloadManager`, a mixed
//! 200-query stream is submitted across them, and the drained outputs
//! are checked for per-app labels and accurate throughput counters —
//! the paper's Fig 1 exercised as a single API.

use querc::apps::{
    AuditApp, ErrorsApp, RecommendApp, ResourcesApp, RoutingApp, SummarizeApp, TrainCorpus,
};
use querc::{LabeledQuery, QuercError, WorkloadManager, WorkloadManagerConfig};
use querc_embed::{BagOfTokens, Embedder};
use querc_workloads::QueryRecord;
use std::sync::Arc;

/// A synthetic multi-tenant log with enough structure for every app:
/// two users with distinct habits, two routing clusters, one flaky
/// query shape, three runtime classes, and alternating session flows.
fn training_records() -> Vec<QueryRecord> {
    (0..120u64)
        .map(|i| {
            let (user, cluster, sql, ms, err) = match i % 4 {
                0 => (
                    "acct/ana",
                    "bi-cluster",
                    format!("select revenue, region from finance_cube where q = {i} group by region"),
                    400.0,
                    None,
                ),
                1 => (
                    "acct/bo",
                    "etl-cluster",
                    format!("insert into lake_events select * from staging_{}", i % 3),
                    30.0,
                    None,
                ),
                2 => (
                    "acct/ana",
                    "bi-cluster",
                    format!("select v from kv_store where k = {i}"),
                    5.0,
                    None,
                ),
                _ => (
                    "acct/bo",
                    "etl-cluster",
                    format!(
                        "select a.*, b.* from giant_facts a join giant_facts b on a.k = b.k where a.x > {i}"
                    ),
                    2000.0,
                    (i % 8 != 3).then_some(604),
                ),
            };
            QueryRecord {
                sql,
                user: user.into(),
                account: "acct".into(),
                cluster: cluster.into(),
                dialect: "generic".into(),
                runtime_ms: ms,
                mem_mb: ms / 2.0,
                error_code: err,
                timestamp: i,
            }
        })
        .collect()
}

fn embedder() -> Arc<dyn Embedder> {
    Arc::new(BagOfTokens::new(128, true))
}

const APPS: [&str; 6] = [
    "audit",
    "errors",
    "recommend",
    "resources",
    "routing",
    "summarize",
];

#[test]
fn manager_serves_all_six_apps_over_a_mixed_stream() {
    let corpus = TrainCorpus::from_records(training_records(), 0x2019);
    let mut mgr = WorkloadManager::new(WorkloadManagerConfig {
        shards_per_app: 2,
        batch: 16,
        ..Default::default()
    });

    // Register all six apps; every report reflects the shared corpus.
    mgr.register(AuditApp::new(embedder()).with_trees(20), &corpus)
        .unwrap();
    mgr.register(ErrorsApp::new(embedder()), &corpus).unwrap();
    mgr.register(RecommendApp::new(embedder()).with_clusters(4), &corpus)
        .unwrap();
    mgr.register(ResourcesApp::new(embedder()), &corpus)
        .unwrap();
    mgr.register(RoutingApp::new(embedder()), &corpus).unwrap();
    // Fixed K: the elbow scan is an offline-tuning concern, not a
    // serving-path one, and it dominates test runtime.
    let summary_cfg = querc::apps::summarize::SummaryConfig {
        k: Some(6),
        ..Default::default()
    };
    mgr.register(
        SummarizeApp::new(embedder()).with_config(summary_cfg),
        &corpus,
    )
    .unwrap();
    assert_eq!(mgr.app_names(), APPS);
    for report in mgr.reports() {
        assert_eq!(report.trained_queries, 120, "{}", report.app);
        assert!(!report.task.is_empty());
    }

    // A mixed 200-query stream, round-robin across the apps, with the
    // metadata labels the checking apps compare against.
    let mut submitted_per_app = [0usize; 6];
    for i in 0..200u64 {
        let app = APPS[(i % 6) as usize];
        let mut lq = match i % 4 {
            0 => LabeledQuery::new(format!(
                "select revenue, region from finance_cube where q = {i} group by region"
            )),
            1 => LabeledQuery::new(format!(
                "insert into lake_events select * from staging_{}",
                i % 3
            )),
            2 => LabeledQuery::new(format!("select v from kv_store where k = {i}")),
            _ => LabeledQuery::new(format!(
                "select a.*, b.* from giant_facts a join giant_facts b on a.k = b.k where a.x > {i}"
            )),
        };
        // Metadata matching the training pattern: ana runs the BI shapes
        // (i%4 ∈ {0,2}), bo the ETL/join shapes (i%4 ∈ {1,3}).
        lq.set(
            "user",
            if i % 4 % 2 == 0 {
                "acct/ana"
            } else {
                "acct/bo"
            },
        );
        lq.set(
            "cluster",
            if i % 4 % 2 == 0 {
                "bi-cluster"
            } else {
                "etl-cluster"
            },
        );
        if i % 2 == 0 {
            mgr.submit(app, lq).unwrap();
        } else {
            assert_eq!(mgr.submit_batch(app, [lq]).unwrap(), 1);
        }
        submitted_per_app[(i % 6) as usize] += 1;
    }

    let drained = mgr.drain();

    // Counters: every submission processed, per app, and every query's
    // enqueue→labeled latency recorded.
    assert_eq!(drained.throughput.len(), 6);
    for tp in &drained.throughput {
        let expected = submitted_per_app[APPS.iter().position(|a| *a == tp.app).unwrap()];
        assert_eq!(tp.submitted, expected as u64, "{} submitted", tp.app);
        assert_eq!(tp.processed, expected as u64, "{} processed", tp.app);
        assert_eq!(
            drained.outputs[&tp.app].len(),
            expected,
            "{} outputs",
            tp.app
        );
        assert_eq!(tp.latency.count, expected as u64, "{} latency", tp.app);
        assert!(tp.latency.p50_us <= tp.latency.p99_us);
    }
    let total: usize = drained.outputs.values().map(Vec::len).sum();
    assert_eq!(total, 200);

    // Per-app labels: each app attached its own label family, plus the
    // worker's application tag, and no serving-path errors surfaced.
    for (app, queries) in &drained.outputs {
        for lq in queries {
            assert_eq!(lq.get("application").unwrap(), app);
            assert_eq!(lq.get("app_error"), None, "{app}: {lq:?}");
            match app.as_str() {
                "audit" => {
                    assert!(lq.get("predicted_user").is_some());
                    assert!(lq.get("audit_flag").is_some());
                }
                "errors" => {
                    assert!(lq.get("error_probability").is_some());
                    assert!(lq.get("error_risky").is_some());
                }
                "recommend" => {
                    assert!(lq.get("query_cluster").is_some());
                    assert!(lq.get("next_query").is_some());
                }
                "resources" => {
                    let class = lq.get("resource_class").unwrap();
                    assert!(["short", "medium", "long"].contains(&class));
                }
                "routing" => {
                    assert!(lq.get("predicted_cluster").is_some());
                    assert!(lq.get("routing_anomaly").is_some());
                }
                "summarize" => {
                    assert!(lq.get("summary_cluster").is_some());
                    assert!(lq.get("summary_witness").is_some());
                }
                other => panic!("unexpected app {other}"),
            }
        }
    }

    // Model quality spot checks on the well-separated families.
    let audited = &drained.outputs["audit"];
    let correct_users = audited
        .iter()
        .filter(|lq| lq.get("predicted_user") == lq.get("user"))
        .count();
    assert!(
        correct_users * 10 >= audited.len() * 8,
        "user prediction should be strong on separable habits: {correct_users}/{}",
        audited.len()
    );
    let resources = &drained.outputs["resources"];
    assert!(
        resources
            .iter()
            .filter(|lq| lq.sql.contains("kv_store"))
            .all(|lq| lq.get("resource_class") == Some("short")),
        "point lookups must classify short"
    );
    let risky_flags = drained.outputs["errors"]
        .iter()
        .filter(|lq| lq.sql.contains("giant_facts"))
        .filter(|lq| lq.get("error_risky") == Some("true"))
        .count();
    assert!(risky_flags > 0, "the flaky join shape must be flagged");
}

/// An app whose worker thread dies when it sees the SQL text `poison` —
/// the regression rig for mid-batch `ChannelClosed` accounting. Panicking
/// (instead of returning `Err`, which the serving path catches) kills the
/// consuming shard worker, closing that shard's queue while the app's
/// other shards keep serving.
struct PoisonableApp {
    tripped: Arc<std::sync::atomic::AtomicBool>,
}

/// [`PoisonableApp`]'s fitted model; shares the app's trip flag.
struct PoisonableModel {
    tripped: Arc<std::sync::atomic::AtomicBool>,
}

impl querc::WorkloadApp for PoisonableApp {
    type Model = PoisonableModel;

    fn name(&self) -> &'static str {
        "poisonable"
    }

    fn fit(&self, _corpus: &querc::TrainCorpus) -> querc::Result<PoisonableModel> {
        Ok(PoisonableModel {
            tripped: Arc::clone(&self.tripped),
        })
    }
}

impl querc::AppModel for PoisonableModel {
    fn label_batch(&self, batch: &[querc::EnrichedQuery]) -> querc::Result<Vec<querc::AppOutput>> {
        if batch.iter().any(|q| q.sql() == "poison") {
            self.tripped
                .store(true, std::sync::atomic::Ordering::SeqCst);
            panic!("poison query consumed");
        }
        Ok(batch
            .iter()
            .map(|_| {
                let mut out = querc::AppOutput::new();
                out.set("ok", "true");
                out
            })
            .collect())
    }

    fn report(&self) -> querc::AppReport {
        querc::AppReport {
            app: "poisonable".into(),
            task: "die on the poison query (test rig)".into(),
            trained_queries: 0,
            detail: Vec::new(),
        }
    }
}

/// Regression test: `submit_batch` must count sends as they happen. With
/// the pre-fix accounting (bump `submitted` only after the whole batch),
/// a batch that dies mid-way on a closed shard leaves its already-enqueued
/// queries uncounted while live shards still process them — `processed`
/// overtakes `submitted`.
#[test]
fn mid_batch_channel_closure_keeps_counters_consistent() {
    use std::sync::atomic::{AtomicBool, Ordering};

    // Silence the expected worker panic (other panics pass through).
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg_is_poison = info
            .payload()
            .downcast_ref::<&str>()
            .map(|s| s.contains("poison"))
            .unwrap_or(false);
        if !msg_is_poison {
            prev_hook(info);
        }
    }));

    let tripped = Arc::new(AtomicBool::new(false));
    let mut mgr = WorkloadManager::new(WorkloadManagerConfig {
        shards_per_app: 2,
        batch: 1,
        queue_depth: 256,
        ..Default::default()
    });
    mgr.register(
        PoisonableApp {
            tripped: Arc::clone(&tripped),
        },
        &TrainCorpus::from_records(training_records(), 1),
    )
    .unwrap();

    // Two tenants pinned to different shards.
    let shards = 2;
    let tenant_a = (0..100)
        .map(|i| format!("tenant{i:02}"))
        .find(|t| querc::shard_for(t, shards) == 0)
        .unwrap();
    let tenant_b = (0..100)
        .map(|i| format!("tenant{i:02}"))
        .find(|t| querc::shard_for(t, shards) == 1)
        .unwrap();
    let query = |tenant: &str, sql: &str| {
        let mut lq = LabeledQuery::new(sql);
        lq.set("account", tenant);
        lq
    };

    // Kill tenant B's shard, then wait until its queue is observably
    // closed (sends start failing).
    mgr.submit("poisonable", query(&tenant_b, "poison"))
        .unwrap();
    let mut b_shard_dead = false;
    for _ in 0..500 {
        if tripped.load(Ordering::SeqCst)
            && mgr
                .submit("poisonable", query(&tenant_b, "select 1"))
                .is_err()
        {
            b_shard_dead = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert!(b_shard_dead, "poisoned shard never went down");

    // A batch that routes 50 queries to the live shard and then one to
    // the dead shard: the send to the dead shard fails mid-batch.
    let mut batch: Vec<LabeledQuery> = (0..50)
        .map(|i| query(&tenant_a, &format!("select {i}")))
        .collect();
    batch.push(query(&tenant_b, "select 999"));
    let err = mgr.submit_batch("poisonable", batch).unwrap_err();
    assert!(matches!(err, QuercError::ChannelClosed { .. }));

    // The 50 live-shard queries were accepted and will be processed;
    // the counters must account for them despite the error return.
    let drained = mgr.drain();
    let tp = &drained.throughput[0];
    assert!(
        tp.processed <= tp.submitted,
        "processed ({}) must never exceed submitted ({})",
        tp.processed,
        tp.submitted
    );
    let live_outputs = drained.outputs["poisonable"]
        .iter()
        .filter(|lq| lq.get("account") == Some(tenant_a.as_str()))
        .count();
    assert_eq!(live_outputs, 50, "live shard processed the partial batch");
}

#[test]
fn manager_rejects_unknown_apps_and_empty_corpora() {
    let mut mgr = WorkloadManager::new(WorkloadManagerConfig::default());
    assert!(matches!(
        mgr.submit("nope", LabeledQuery::new("select 1")),
        Err(QuercError::UnknownApp { .. })
    ));
    let err = mgr
        .register(AuditApp::new(embedder()), &TrainCorpus::default())
        .unwrap_err();
    assert!(matches!(err, QuercError::EmptyCorpus { .. }));
    assert!(
        mgr.app_names().is_empty(),
        "failed registration must not leak"
    );
}

/// Building a manager leaves the process-wide kernel choice alone: a
/// bench or parity suite that pinned an arm keeps running that arm.
#[test]
fn building_a_manager_keeps_a_pinned_kernel() {
    use querc_linalg::kernel::{self, Kernel};
    kernel::set_kernel_override(Some(Kernel::Scalar));
    let _mgr = WorkloadManager::new(WorkloadManagerConfig::default());
    let active = kernel::active_kernel();
    kernel::set_kernel_override(None);
    assert_eq!(active, Kernel::Scalar);
}
