//! Golden-label gate: the exact labels every app serves on a fixed replay.
//!
//! All six apps are fitted on one shared `BagOfTokens` embedder over a
//! fixed SnowCloud trace, then a fixed 2k-query replay is fanned out to
//! every app through `WorkloadManager`. Each served
//! `(app, query id, label, value)` tuple goes into an order-independent
//! digest that must equal the recorded constant. Any refactor of the app
//! layer, the serving fabric or the models underneath must keep every
//! label bit-identical, so the constant never changes with such a
//! refactor; a change that alters labels on purpose must say so.

use querc::apps::summarize::SummaryConfig;
use querc::apps::{
    AuditApp, ErrorsApp, RecommendApp, ResourcesApp, RoutingApp, SummarizeApp, TrainCorpus,
};
use querc::{LabeledQuery, WorkloadManager, WorkloadManagerConfig};
use querc_embed::{BagOfTokens, Embedder};
use querc_workloads::{SnowCloud, SnowCloudConfig};
use std::sync::Arc;

/// Queries in the replay.
const REPLAY: usize = 2000;

/// Served `(app, query id, label, value)` tuples on the replay.
const GOLDEN_TUPLES: usize = 108_444;

/// FNV-1a digest of the sorted tuples.
const GOLDEN_DIGEST: u64 = 0x6ace_8ebf_13db_a85b;

const APPS: [&str; 6] = [
    "audit",
    "errors",
    "recommend",
    "resources",
    "routing",
    "summarize",
];

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *h ^= u64::from(*b);
        *h = h.wrapping_mul(0x100000001b3);
    }
}

/// Fit all six apps, serve the replay to each, and return the sorted
/// `app \x1f id \x1f label \x1f value` tuples.
fn served_tuples() -> Vec<String> {
    let train = SnowCloud::generate(&SnowCloudConfig::pretrain(6, 100, 17));
    let corpus = TrainCorpus::from_records(train.records, 0x601d);
    let e: Arc<dyn Embedder> = Arc::new(BagOfTokens::new(64, true));

    let mut mgr = WorkloadManager::new(WorkloadManagerConfig {
        shards_per_app: 2,
        batch: 32,
        ..Default::default()
    });
    mgr.register(AuditApp::new(Arc::clone(&e)).with_trees(20), &corpus)
        .unwrap();
    mgr.register(ErrorsApp::new(Arc::clone(&e)), &corpus)
        .unwrap();
    mgr.register(RecommendApp::new(Arc::clone(&e)).with_clusters(6), &corpus)
        .unwrap();
    mgr.register(ResourcesApp::new(Arc::clone(&e)), &corpus)
        .unwrap();
    mgr.register(RoutingApp::new(Arc::clone(&e)), &corpus)
        .unwrap();
    let summary = SummaryConfig {
        k: Some(8),
        ..Default::default()
    };
    mgr.register(
        SummarizeApp::new(Arc::clone(&e)).with_config(summary),
        &corpus,
    )
    .unwrap();

    let replay = SnowCloud::generate(&SnowCloudConfig::pretrain(6, 400, 29));
    assert!(replay.records.len() >= REPLAY);
    for (id, r) in replay.records.iter().take(REPLAY).enumerate() {
        let mut lq = LabeledQuery::from_record(r);
        lq.set("qid", id.to_string());
        for app in APPS {
            mgr.submit(app, lq.clone()).unwrap();
        }
    }
    let drained = mgr.drain();

    let mut tuples = Vec::new();
    for (app, outputs) in &drained.outputs {
        assert_eq!(outputs.len(), REPLAY, "{app}: every query served");
        for lq in outputs {
            let id = lq.get("qid").expect("replayed queries carry an id");
            for (name, value) in &lq.labels {
                tuples.push(format!("{app}\x1f{id}\x1f{name}\x1f{value}"));
            }
        }
    }
    tuples.sort_unstable();
    tuples
}

#[test]
fn six_apps_serve_the_golden_labels() {
    let tuples = served_tuples();
    let mut digest = 0xcbf29ce484222325u64;
    for t in &tuples {
        fnv1a(&mut digest, t.as_bytes());
        fnv1a(&mut digest, b"\x1e");
    }
    assert_eq!(
        (tuples.len(), digest),
        (GOLDEN_TUPLES, GOLDEN_DIGEST),
        "served labels drifted from the golden replay (got {} tuples, digest {digest:#018x})",
        tuples.len()
    );
}
