//! Microbenchmarks for the SQL front end: lexing, normalization, the
//! template fingerprint, shape extraction and the baseline feature
//! vector, over TPC-H and SnowCloud query text. These are the per-query
//! serving costs every Qworker pays; `enriched_fingerprint` is the whole
//! ingress hit path up to the embed-plane lookup.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use querc::EnrichedQuery;
use querc_sql::{
    features::feature_vector, normalize::normalized_text, parse_query, template_fingerprint,
    tokenize, Dialect,
};
use querc_workloads::{SnowCloud, SnowCloudConfig, TpchWorkload};
use std::hint::black_box;

fn corpus() -> Vec<String> {
    let tpch = TpchWorkload::generate(3, 1);
    let cloud = SnowCloud::generate(&SnowCloudConfig::pretrain(6, 20, 2));
    tpch.queries
        .into_iter()
        .map(|q| q.sql)
        .chain(cloud.records.into_iter().map(|r| r.sql))
        .collect()
}

fn bench_frontend(c: &mut Criterion) {
    let sqls = corpus();
    let total_bytes: usize = sqls.iter().map(String::len).sum();
    let mut g = c.benchmark_group("sql_frontend");
    g.throughput(Throughput::Bytes(total_bytes as u64));

    g.bench_function("tokenize", |b| {
        b.iter(|| {
            for s in &sqls {
                black_box(tokenize(s, Dialect::Generic));
            }
        })
    });
    g.bench_function("normalize", |b| {
        b.iter(|| {
            for s in &sqls {
                black_box(normalized_text(s, Dialect::Generic));
            }
        })
    });
    g.bench_function("fingerprint", |b| {
        b.iter(|| {
            for s in &sqls {
                black_box(template_fingerprint(s, Dialect::Generic));
            }
        })
    });
    g.bench_function("enriched_fingerprint", |b| {
        // Includes copying the SQL into a fresh query, as `submit` owns it.
        b.iter(|| {
            for s in &sqls {
                black_box(EnrichedQuery::from_sql(s.as_str()).fingerprint());
            }
        })
    });
    g.bench_function("parse_shape", |b| {
        b.iter(|| {
            for s in &sqls {
                black_box(parse_query(s, Dialect::Generic));
            }
        })
    });
    g.bench_function("baseline_features", |b| {
        b.iter(|| {
            for s in &sqls {
                black_box(feature_vector(s, Dialect::Generic));
            }
        })
    });
    g.finish();
}

fn bench_dialects(c: &mut Criterion) {
    let sql = "select a.x, sum(b.y) from warehouse_facts a join dim_dates b \
               on a.d = b.d where a.x > 100 and b.q like 'x%' group by a.x order by 2 desc limit 50";
    let mut g = c.benchmark_group("tokenize_dialects");
    for d in Dialect::all() {
        g.bench_with_input(BenchmarkId::from_parameter(d.name()), &d, |b, &d| {
            b.iter(|| black_box(tokenize(sql, d)))
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_frontend, bench_dialects
}
criterion_main!(benches);
