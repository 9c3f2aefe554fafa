//! Embedder benchmarks: training throughput and per-query inference cost
//! for the three representations (hashed bag-of-tokens, Doc2Vec, LSTM
//! autoencoder). Inference cost is the number Qworker capacity planning
//! needs; training cost bounds the retraining cadence of the training
//! module. `embed_ingress_miss` is the serving plane's cache miss: one
//! document per `embed_batch` call, against a Doc2Vec model with a
//! multi-tenant vocabulary.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use querc_embed::{
    BagOfTokens, Doc2Vec, Doc2VecConfig, Embedder, LstmAutoencoder, LstmConfig, VocabConfig,
};
use querc_workloads::{SnowCloud, SnowCloudConfig, TpchWorkload};
use std::hint::black_box;

fn corpus(n_per_template: usize) -> Vec<Vec<String>> {
    TpchWorkload::generate(n_per_template, 3)
        .queries
        .iter()
        .map(|q| querc_embed::sql_tokens(&q.sql))
        .collect()
}

fn d2v_cfg() -> Doc2VecConfig {
    Doc2VecConfig {
        dim: 32,
        epochs: 3,
        vocab: VocabConfig {
            min_count: 1,
            max_size: 5000,
            hash_buckets: 128,
        },
        ..Default::default()
    }
}

fn lstm_cfg() -> LstmConfig {
    LstmConfig {
        embed_dim: 24,
        hidden: 32,
        max_len: 64,
        epochs: 1,
        vocab: VocabConfig {
            min_count: 1,
            max_size: 5000,
            hash_buckets: 128,
        },
        ..Default::default()
    }
}

fn bench_training(c: &mut Criterion) {
    let small = corpus(2); // 44 queries
    let mut g = c.benchmark_group("embedder_training");
    g.sample_size(10);
    g.bench_function("doc2vec_44q", |b| {
        b.iter(|| black_box(Doc2Vec::train(&small, d2v_cfg())))
    });
    g.bench_function("lstm_44q", |b| {
        b.iter(|| black_box(LstmAutoencoder::train(&small, lstm_cfg())))
    });
    g.finish();
}

fn bench_inference(c: &mut Criterion) {
    let train = corpus(4);
    let bow = BagOfTokens::new(128, true);
    let d2v = Doc2Vec::train(&train, d2v_cfg());
    let lstm = LstmAutoencoder::train(&train, lstm_cfg());
    let queries = corpus(1); // 22 fresh queries
    let mut g = c.benchmark_group("embed_per_query");
    g.throughput(Throughput::Elements(queries.len() as u64));
    g.bench_function("bag_of_tokens", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(bow.embed(q));
            }
        })
    });
    g.bench_function("doc2vec_infer", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(d2v.embed(q));
            }
        })
    });
    g.bench_function("lstm_forward", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(lstm.embed(q));
            }
        })
    });
    g.finish();
}

fn bench_ingress_miss(c: &mut Criterion) {
    let cloud = SnowCloud::generate(&SnowCloudConfig::pretrain(12, 40, 9));
    let d2v = Doc2Vec::train(
        &cloud.token_corpus(),
        Doc2VecConfig {
            epochs: 1,
            vocab: VocabConfig {
                min_count: 1,
                max_size: 20_000,
                hash_buckets: 1024,
            },
            ..d2v_cfg()
        },
    );
    let queries: Vec<Vec<String>> = cloud.records.iter().take(16).map(|r| r.tokens()).collect();
    let mut g = c.benchmark_group("embed_ingress_miss");
    g.throughput(Throughput::Elements(queries.len() as u64));
    g.bench_function("doc2vec_single_doc", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(d2v.embed_batch(std::slice::from_ref(q)));
            }
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = bench_training, bench_inference, bench_ingress_miss
}
criterion_main!(benches);
