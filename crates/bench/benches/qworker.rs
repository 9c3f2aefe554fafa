//! Qworker serving-path benchmarks: per-query vs batched labeling.
//!
//! Pins the win of [`querc_embed::Embedder::embed_batch`] on the hot
//! path. Doc2Vec is where batching matters most — its documents run
//! chunk-parallel on the compute pool (its unigram^0.75 alias table is
//! built once per model, so neither path rebuilds it) — while
//! bag-of-tokens bounds the benefit from buffer reuse alone.
//! Throughput is reported in queries/sec.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use querc::{LabeledQuery, QueryClassifier, Qworker, QworkerMode, TrainedLabeler};
use querc_embed::{BagOfTokens, Doc2Vec, Doc2VecConfig, Embedder, VocabConfig};
use querc_learn::{ForestConfig, RandomForest};
use querc_linalg::Pcg32;
use querc_workloads::{SnowCloud, SnowCloudConfig};
use std::hint::black_box;
use std::sync::Arc;

/// The multi-tenant pre-training workload: its per-tenant schema
/// vocabulary makes the Doc2Vec vocabulary (and its noise table) large,
/// as in the paper's setting.
fn snowcloud() -> SnowCloud {
    SnowCloud::generate(&SnowCloudConfig::pretrain(24, 60, 9))
}

fn serving_stream(workload: &SnowCloud, n: usize) -> Vec<LabeledQuery> {
    workload
        .records
        .iter()
        .take(n)
        .map(|r| LabeledQuery::new(r.sql.clone()))
        .collect()
}

fn classifier(workload: &SnowCloud, embedder: Arc<dyn Embedder>) -> Arc<QueryClassifier> {
    let train = &workload.records[..400.min(workload.records.len())];
    let docs: Vec<Vec<String>> = train.iter().map(|r| r.tokens()).collect();
    let vectors = embedder.embed_batch(&docs);
    let labels: Vec<&str> = train.iter().map(|r| r.cluster.as_str()).collect();
    let labeler = TrainedLabeler::train(
        RandomForest::new(ForestConfig::extra_trees(10)),
        &vectors,
        &labels,
        &mut Pcg32::new(5),
    );
    Arc::new(QueryClassifier::new("cluster", embedder, labeler))
}

fn doc2vec(workload: &SnowCloud) -> Arc<dyn Embedder> {
    Arc::new(Doc2Vec::train(
        &workload.token_corpus(),
        Doc2VecConfig {
            dim: 32,
            epochs: 2,
            infer_epochs: 10,
            vocab: VocabConfig {
                min_count: 1,
                max_size: 20_000,
                hash_buckets: 1024,
            },
            ..Default::default()
        },
    ))
}

/// Preload a stream into a closed channel and drain it synchronously.
fn drain_stream(worker: &Qworker, stream: &[LabeledQuery]) -> usize {
    let (in_tx, in_rx) = crossbeam::channel::unbounded();
    for lq in stream {
        in_tx.send(lq.clone()).unwrap();
    }
    drop(in_tx);
    let (db_tx, _db_rx) = crossbeam::channel::unbounded();
    let (tr_tx, tr_rx) = crossbeam::channel::unbounded();
    let n = worker.run(in_rx, db_tx, tr_tx);
    black_box(tr_rx.iter().count());
    n
}

fn bench_qworker(c: &mut Criterion) {
    let workload = snowcloud();
    let stream = serving_stream(&workload, 128);

    for (tag, embedder) in [
        (
            "bow",
            Arc::new(BagOfTokens::new(128, true)) as Arc<dyn Embedder>,
        ),
        ("doc2vec", doc2vec(&workload)),
    ] {
        let clf = classifier(&workload, embedder);
        let mut g = c.benchmark_group(format!("qworker_{tag}"));
        g.sample_size(10);
        g.throughput(Throughput::Elements(stream.len() as u64));
        // batch=1 → the old per-query path; batch=64 → chunked embed_batch.
        let per_query =
            Qworker::new("app-X", vec![Arc::clone(&clf)], QworkerMode::Forked).with_batch(1);
        g.bench_function("per_query", |b| {
            b.iter(|| drain_stream(&per_query, &stream))
        });
        let batched =
            Qworker::new("app-X", vec![Arc::clone(&clf)], QworkerMode::Forked).with_batch(64);
        g.bench_function("batched_64", |b| b.iter(|| drain_stream(&batched, &stream)));
        g.finish();
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_qworker
}
criterion_main!(benches);
