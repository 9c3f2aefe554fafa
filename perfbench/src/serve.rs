//! The three workloads: their inputs, their set-up, and the serving run
//! that drives `querc::WorkloadManager` through its public API from one
//! generator thread.

use crate::checks::{self, Sheds, APPS};
use crate::inputs::{self, Arrival, ARRIVAL_LABEL};
use crate::quiet::Spinners;
use crate::trace::Tracer;
use querc::apps::summarize::SummaryConfig;
use querc::apps::{
    AuditApp, ErrorsApp, RecommendApp, ResourcesApp, RoutingApp, SummarizeApp, TrainCorpus,
};
use querc::{
    EmbedCacheStats, FittedApp, LabeledQuery, QosConfig, QuercError, RateLimit, RoutingPolicy,
    ServiceDrain, TenantPolicy, WorkloadManager, WorkloadManagerConfig,
};
use querc_embed::{Doc2Vec, Doc2VecConfig, Embedder, LstmAutoencoder, LstmConfig};
use querc_workloads::QueryRecord;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Fanout,
    RouteLineage,
    TenantFlood,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Fanout,
        Workload::RouteLineage,
        Workload::TenantFlood,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fanout => "fanout",
            Workload::RouteLineage => "route-lineage",
            Workload::TenantFlood => "tenant-flood",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

// ---------------------------------------------------------------------
// Fixed workload constants. Rates never depend on a measured capacity,
// so a faster program meets the same offered load.
// ---------------------------------------------------------------------

/// `paper_table2` scale of every trace (about 8.8k records).
const TRACE_SCALE: f64 = 0.05;

/// Input sizes: [`FULL`] for measurement, [`SMOKE`] for self-tests.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Records the six Doc2Vec apps are trained on (fanout, tenant-flood).
    pub doc2vec_train: usize,
    /// Arrivals of one fanout window, and the records tenant-flood
    /// cycles through.
    pub fanout_window: usize,
    /// Records the LSTM routing app is trained on (route-lineage).
    pub lstm_train: usize,
    /// Arrivals of one route-lineage window.
    pub lineage_window: usize,
    /// Minnow arrivals of one tenant-flood window (the whale offers ten
    /// times as many).
    pub flood_window: usize,
    /// Arrivals the traced run replays layer by layer.
    pub layer_sample: usize,
}

pub const FULL: Sizes = Sizes {
    doc2vec_train: 2500,
    fanout_window: 2000,
    lstm_train: 1500,
    lineage_window: 3000,
    flood_window: 2000,
    layer_sample: 2000,
};

#[cfg(test)]
pub const SMOKE: Sizes = Sizes {
    doc2vec_train: 300,
    fanout_window: 100,
    lstm_train: 200,
    lineage_window: 100,
    flood_window: 80,
    layer_sample: 60,
};

/// fanout's latency pass offers each arrival to every app at this
/// rate, arrivals per second (about a third of the closed loop's).
const FANOUT_QPS: f64 = 1000.0;
/// route-lineage offered rate, arrivals per second.
const LINEAGE_QPS: f64 = 1000.0;
/// tenant-flood: minnow tenants, their combined rate, and the whale's
/// multiple of it.
const MINNOWS: [&str; 8] = [
    "minnow00", "minnow01", "minnow02", "minnow03", "minnow04", "minnow05", "minnow06", "minnow07",
];
const MINNOW_QPS: f64 = 800.0;
const WHALE_FACTOR: usize = 10;
/// The whale's token bucket refills at the minnows' combined rate —
/// a tenth of what it offers.
const WHALE_RATE: f64 = MINNOW_QPS;
const WHALE_BURST: f64 = 100.0;
pub const WHALE: &str = "whale";

/// Seeds derived from the run seed, one per independent input stream.
fn sub_seed(seed: u64, stream: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ stream
}

fn doc2vec_config(seed: u64) -> Doc2VecConfig {
    Doc2VecConfig {
        dim: 32,
        epochs: 6,
        infer_epochs: 10,
        seed,
        ..Default::default()
    }
}

fn lstm_config(seed: u64) -> LstmConfig {
    LstmConfig {
        embed_dim: 16,
        hidden: 32,
        max_len: 48,
        epochs: 2,
        seed,
        ..Default::default()
    }
}

/// What a workload serves: the records its models are trained on, the
/// records it replays, and the arrivals (one window's worth) the
/// generator offers.
pub struct Inputs {
    pub train: Vec<QueryRecord>,
    pub records: Vec<QueryRecord>,
    pub arrivals: Vec<Arrival>,
    pub seed: u64,
}

impl Inputs {
    /// The query an arrival offers, tagged with its arrival id.
    pub fn query(&self, a: &Arrival) -> LabeledQuery {
        let mut q = LabeledQuery::from_record(&self.records[a.record]);
        q.set(ARRIVAL_LABEL, a.id.to_string());
        if let Some(tenant) = a.tenant {
            q.set("account", tenant);
        }
        q
    }
}

/// Arrivals over `records` in order (cycling), due on an open-loop
/// schedule at `qps`.
fn paced(
    records: &[QueryRecord],
    n: usize,
    qps: f64,
    seed: u64,
    app: Option<&'static str>,
) -> Vec<Arrival> {
    inputs::schedule(records, n, qps, seed)
        .into_iter()
        .enumerate()
        .map(|(i, due)| Arrival {
            id: i as u64,
            due,
            app,
            record: i % records.len(),
            tenant: None,
        })
        .collect()
}

/// Generate one window's worth of a workload's inputs.
pub fn inputs(w: Workload, seed: u64, sizes: &Sizes) -> Inputs {
    match w {
        Workload::Fanout => {
            let t = inputs::trace(seed, TRACE_SCALE, sizes.doc2vec_train, sizes.fanout_window);
            let arrivals = paced(
                &t.replay,
                t.replay.len(),
                FANOUT_QPS,
                sub_seed(seed, 4),
                None,
            );
            Inputs {
                train: t.train,
                records: t.replay,
                arrivals,
                seed,
            }
        }
        Workload::RouteLineage => {
            // The same trace family at its own seed.
            let s = sub_seed(seed, 1);
            let t = inputs::trace(s, TRACE_SCALE, sizes.lstm_train, sizes.lineage_window);
            let arrivals = paced(&t.replay, t.replay.len(), LINEAGE_QPS, s, Some("routing"));
            Inputs {
                train: t.train,
                records: t.replay,
                arrivals,
                seed: s,
            }
        }
        Workload::TenantFlood => {
            // The fanout trace and models; its arrivals relabeled to
            // eight equal minnows, plus a whale at ten times their
            // combined volume, each offer addressed to one app in turn.
            let t = inputs::trace(seed, TRACE_SCALE, sizes.doc2vec_train, sizes.fanout_window);
            let n_minnow = sizes.flood_window;
            let n_whale = n_minnow * WHALE_FACTOR;
            let minnow = inputs::schedule(&t.replay, n_minnow, MINNOW_QPS, sub_seed(seed, 2))
                .into_iter()
                .enumerate()
                .map(|(i, due)| (due, MINNOWS[i % MINNOWS.len()], i));
            let whale = inputs::schedule(
                &t.replay,
                n_whale,
                MINNOW_QPS * WHALE_FACTOR as f64,
                sub_seed(seed, 3),
            )
            .into_iter()
            .enumerate()
            .map(|(j, due)| (due, WHALE, j));
            let mut offers: Vec<(Duration, &'static str, usize)> = minnow.chain(whale).collect();
            offers.sort_by_key(|o| o.0);
            let arrivals = offers
                .into_iter()
                .enumerate()
                .map(|(id, (due, tenant, k))| Arrival {
                    id: id as u64,
                    due,
                    app: Some(APPS[k % APPS.len()]),
                    record: k % t.replay.len(),
                    tenant: Some(tenant),
                })
                .collect();
            Inputs {
                train: t.train,
                records: t.replay,
                arrivals,
                seed,
            }
        }
    }
}

// ---------------------------------------------------------------------
// Set-up: embedder training, manager construction, app registration.
// ---------------------------------------------------------------------

/// Trained models, shareable by every manager a run builds.
pub struct Models {
    pub embedder: Arc<dyn Embedder>,
    pub apps: Vec<Arc<FittedApp>>,
}

pub fn fit_span(app: &str) -> &'static str {
    match app {
        "audit" => "apps.audit.fit",
        "errors" => "apps.errors.fit",
        "recommend" => "apps.recommend.fit",
        "resources" => "apps.resources.fit",
        "routing" => "apps.routing.fit",
        _ => "apps.summarize.fit",
    }
}

pub fn label_span(app: &str) -> &'static str {
    match app {
        "audit" => "apps.audit.label",
        "errors" => "apps.errors.label",
        "recommend" => "apps.recommend.label",
        "resources" => "apps.resources.label",
        "routing" => "apps.routing.label",
        _ => "apps.summarize.label",
    }
}

fn fit_app(app: &str, e: &Arc<dyn Embedder>, corpus: &TrainCorpus) -> querc::Result<FittedApp> {
    let e = Arc::clone(e);
    match app {
        "audit" => FittedApp::fit(AuditApp::new(e).with_trees(20), corpus),
        "errors" => FittedApp::fit(ErrorsApp::new(e), corpus),
        "recommend" => FittedApp::fit(RecommendApp::new(e).with_clusters(6), corpus),
        "resources" => FittedApp::fit(ResourcesApp::new(e), corpus),
        "routing" => FittedApp::fit(RoutingApp::new(e), corpus),
        _ => FittedApp::fit(
            SummarizeApp::new(e).with_config(SummaryConfig {
                k: Some(8),
                ..Default::default()
            }),
            corpus,
        ),
    }
}

/// The workload's serving knobs.
pub fn config(w: Workload) -> WorkloadManagerConfig {
    match w {
        Workload::Fanout => WorkloadManagerConfig {
            shards_per_app: 1,
            ..Default::default()
        },
        Workload::RouteLineage => WorkloadManagerConfig {
            shards_per_app: 2,
            routing: RoutingPolicy::Lineage,
            ..Default::default()
        },
        Workload::TenantFlood => WorkloadManagerConfig {
            shards_per_app: 1,
            qos: QosConfig {
                enabled: true,
                policies: vec![(WHALE.to_string(), whale_policy())],
                ..Default::default()
            },
            ..Default::default()
        },
    }
}

pub fn whale_policy() -> TenantPolicy {
    TenantPolicy {
        weight: 1,
        rate: Some(RateLimit {
            rate_per_sec: WHALE_RATE,
            burst: WHALE_BURST,
        }),
    }
}

/// A fresh manager serving already-fitted apps.
pub fn manager(cfg: &WorkloadManagerConfig, models: &Models) -> WorkloadManager {
    let mut mgr = WorkloadManager::new(cfg.clone());
    for app in &models.apps {
        mgr.register_fitted(Arc::clone(app))
            .expect("registering a fitted app");
    }
    mgr
}

/// Train the embedder, build the manager and register every app,
/// recording a span per step. Returns the models and the ready manager.
pub fn setup(w: Workload, input: &Inputs, tr: &mut Tracer) -> (Models, WorkloadManager) {
    let cfg = config(w);
    tr.enter("setup");
    let corpus = TrainCorpus::from_records(input.train.clone(), input.seed);
    let tokens = corpus.token_corpus();
    let (embedder, apps): (Arc<dyn Embedder>, &[&str]) = match w {
        Workload::RouteLineage => (
            tr.span("embed.train", None, 1, || {
                Arc::new(LstmAutoencoder::train(&tokens, lstm_config(input.seed)))
            }),
            &["routing"],
        ),
        _ => (
            tr.span("embed.train", None, 1, || {
                Arc::new(Doc2Vec::train(&tokens, doc2vec_config(input.seed)))
            }),
            &APPS,
        ),
    };
    let mut mgr = WorkloadManager::new(cfg);
    let mut fitted = Vec::new();
    for app in apps {
        let f = Arc::new(
            tr.span(fit_span(app), None, 1, || fit_app(app, &embedder, &corpus))
                .expect("fitting an app on the training corpus"),
        );
        mgr.register_fitted(Arc::clone(&f))
            .expect("registering a fitted app");
        fitted.push(f);
    }
    tr.exit();
    (
        Models {
            embedder,
            apps: fitted,
        },
        mgr,
    )
}

// ---------------------------------------------------------------------
// Serving.
// ---------------------------------------------------------------------

/// What one serving run measured and checked.
#[derive(Debug, Default)]
pub struct Served {
    /// Arrivals fully labeled per second.
    pub qps: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    /// Latency samples per window behind `p50_us`/`p99_us`.
    pub samples: u64,
    /// How late each submit call was against its schedule (open loops).
    pub late_us: Vec<f64>,
    /// Offers made, and offers without their designed outcome.
    pub attempted: u64,
    pub failed: u64,
    pub accuracy: f64,
    pub digest: u64,
    pub problems: Vec<String>,
    /// Arrivals offered and labeled.
    pub arrivals: u64,
    pub windows: usize,
    /// `lex` calls on the generator thread while offering, and the
    /// arrivals offered.
    pub lex_calls: u64,
    pub offered_arrivals: u64,
    pub embed_cache: EmbedCacheStats,
    pub index_searches: u64,
    pub index_candidates: u64,
    /// Time from the last submit to the return of `drain()`, ms (median
    /// over windows).
    pub drain_ms: f64,
    /// Durations of the submit calls the QoS plane shed, µs.
    pub shed_submit_us: Vec<f64>,
    /// QoS admitted, and shed as rate limited, backlogged, shard full.
    pub qos_counts: [u64; 4],
}

/// Sleep until `due` after `start`; return how late the caller is.
fn pace(start: Instant, due: Duration) -> Duration {
    let target = start + due;
    let now = Instant::now();
    if now < target {
        std::thread::sleep(target - now);
    }
    Instant::now().saturating_duration_since(target)
}

pub fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Mean of the lower half (rounded up) of `xs`.
fn better_half(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let half = &xs[..xs.len().div_ceil(2)];
    half.iter().sum::<f64>() / half.len().max(1) as f64
}

/// Nearest-rank quantile of `xs`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

fn fold_drain(s: &mut Served, d: &ServiceDrain) {
    s.embed_cache.hits += d.embed_cache.hits;
    s.embed_cache.misses += d.embed_cache.misses;
    s.embed_cache.evictions += d.embed_cache.evictions;
    s.embed_cache.entries = s.embed_cache.entries.max(d.embed_cache.entries);
    for t in &d.throughput {
        if let Some(ix) = &t.index {
            s.index_searches += ix.searches;
            s.index_candidates += ix.candidates;
        }
    }
    for t in d.qos.tenants.values() {
        s.qos_counts[0] += t.submitted - t.rejected();
        s.qos_counts[1] += t.rejected_rate_limited;
        s.qos_counts[2] += t.rejected_backlogged;
        s.qos_counts[3] += t.rejected_shard_full;
    }
    s.failed += checks::app_errors(&d.outputs);
}

/// Share of the outputs `keep` selects, among those of the apps whose
/// labels have a ground truth in the trace, whose label matches it: the
/// account part of the audit app's `predicted_user` (paper Table 1,
/// account labeling) and the routing app's `predicted_cluster`.
fn accuracy(d: &ServiceDrain, keep: impl Fn(&LabeledQuery) -> bool) -> f64 {
    let judged = |app: &str, right: &dyn Fn(&LabeledQuery) -> bool| {
        let outs = d.outputs.get(app).map(Vec::as_slice).unwrap_or(&[]);
        let kept = outs.iter().filter(|q| keep(q));
        kept.fold((0usize, 0usize), |(n, ok), q| {
            (n + 1, ok + right(q) as usize)
        })
    };
    let (audit_n, audit_ok) = judged("audit", &|q| {
        account_of(q.get("predicted_user")).is_some()
            && account_of(q.get("predicted_user")) == account_of(q.get("user"))
    });
    let (routing_n, routing_ok) = judged("routing", &|q| {
        q.get("predicted_cluster").is_some() && q.get("predicted_cluster") == q.get("cluster")
    });
    (audit_ok + routing_ok) as f64 / (audit_n + routing_n).max(1) as f64
}

/// The account part of a SnowCloud user name (`<account>/u<n>`).
fn account_of(user: Option<&str>) -> Option<&str> {
    user.and_then(|u| u.split('/').next())
}

/// What the generator offered in one pass and what came back.
#[derive(Default)]
struct Offers {
    /// App → arrival ids it accepted.
    accepted: BTreeMap<String, Vec<u64>>,
    /// Tenant → offers made.
    offered: BTreeMap<String, u64>,
    sheds: Sheds,
    /// Arrivals accepted by every app they were offered to.
    arrivals: u64,
}

/// Offer `q` (arrival `id`) to `app` and record the outcome.
fn offer(
    mgr: &WorkloadManager,
    app: &str,
    id: u64,
    q: LabeledQuery,
    o: &mut Offers,
    s: &mut Served,
    tr: &mut Tracer,
) -> bool {
    let tenant = querc::routing_key(&q).to_string();
    let c0 = Instant::now();
    let r = tr.span("submit", Some(id), 1, || mgr.submit(app, q));
    let took = c0.elapsed().as_secs_f64() * 1e6;
    s.attempted += 1;
    *o.offered.entry(tenant).or_default() += 1;
    match r {
        Ok(()) => {
            o.accepted.entry(app.to_string()).or_default().push(id);
            return true;
        }
        // The whale's sheds are the policy working, not failures.
        Err(QuercError::Rejected { tenant, reason }) if tenant == WHALE => {
            s.shed_submit_us.push(took);
            checks::count_shed(&mut o.sheds, &tenant, reason);
        }
        Err(e) => {
            s.failed += 1;
            s.problems.push(format!("submit {app} arrival {id}: {e}"));
            if let QuercError::Rejected { tenant, reason } = e {
                checks::count_shed(&mut o.sheds, &tenant, reason);
            }
        }
    }
    false
}

/// One pass: offer every arrival once — to its app, or to every app —
/// either as fast as backpressure allows (closed loop) or at its
/// scheduled time however far behind the manager is (open loop); then
/// drain and check the outputs. Returns the offers, the drain, the
/// seconds from the first submit to the return of `drain()`, and the
/// part of them after the last submit.
fn pass(
    w: Workload,
    mgr: WorkloadManager,
    input: &Inputs,
    paced: bool,
    s: &mut Served,
    tr: &mut Tracer,
) -> (Offers, ServiceDrain, f64, f64) {
    let mut o = Offers::default();
    // An open loop leaves the CPUs idle between arrivals; keep them from
    // halting (see `crate::quiet`). A closed loop keeps them busy anyway.
    let quiet = paced.then(Spinners::start);
    let t0 = Instant::now();
    for a in &input.arrivals {
        let q = input.query(a);
        if paced {
            s.late_us.push(pace(t0, a.due).as_secs_f64() * 1e6);
        }
        let lex0 = querc_sql::lex_calls_this_thread();
        let whole = match a.app {
            Some(app) => offer(&mgr, app, a.id, q, &mut o, s, tr),
            None => {
                // Every app gets the arrival, whatever an earlier one did.
                let mut whole = true;
                for app in APPS {
                    whole &= offer(&mgr, app, a.id, q.clone(), &mut o, s, tr);
                }
                whole
            }
        };
        s.lex_calls += querc_sql::lex_calls_this_thread() - lex0;
        s.offered_arrivals += 1;
        o.arrivals += whole as u64;
    }
    let last_submit = Instant::now();
    let d = tr.span("drain", None, 1, || mgr.drain());
    let drain_s = last_submit.elapsed().as_secs_f64();
    drop(quiet);
    s.problems
        .extend(checks::check_outputs(&d.outputs, &o.accepted));
    s.problems.extend(checks::check_counts(&d.throughput));
    if w == Workload::TenantFlood {
        let protected: Vec<String> = o.offered.keys().filter(|t| *t != WHALE).cloned().collect();
        s.problems
            .extend(checks::check_qos(&d.qos, &o.offered, &o.sheds, &protected));
    }
    fold_drain(s, &d);
    (o, d, t0.elapsed().as_secs_f64(), drain_s)
}

/// One pass's latency quantiles and their sample count: the routing
/// app's — the label a query waits for before it runs — on fanout and
/// route-lineage. On tenant-flood, the minnows' median latencies are
/// averaged (a maximum over eight tenants was far less steady), and the
/// worst minnow's p99 is taken.
fn latency(w: Workload, d: &ServiceDrain) -> (f64, f64, u64) {
    let snaps: Vec<&querc::LatencySnapshot> = match w {
        Workload::TenantFlood => d
            .qos
            .tenants
            .iter()
            .filter(|(t, _)| *t != WHALE)
            .map(|(_, t)| &t.latency)
            .collect(),
        _ => d
            .throughput
            .iter()
            .filter(|t| t.app == "routing")
            .map(|t| &t.latency)
            .collect(),
    };
    assert!(!snaps.is_empty(), "the measured app or tenants were served");
    (
        snaps.iter().map(|l| l.p50_us as f64).sum::<f64>() / snaps.len() as f64,
        snaps.iter().map(|l| l.p99_us).max().unwrap_or(0) as f64,
        snaps.iter().map(|l| l.count).min().unwrap_or(0),
    )
}

/// Digest and label accuracy of a pass. Which whale offers the bucket
/// admits depends on timing; every other output does not, so only
/// those count.
fn judge(d: &ServiceDrain) -> (u64, f64) {
    let keep = |q: &LabeledQuery| q.get("account") != Some(WHALE);
    let accuracy = accuracy(d, keep);
    (checks::digest(&d.outputs, keep), accuracy)
}

/// Serve `w` for `seconds` in windows; each window serves the input's
/// arrivals on a fresh manager over the same models (the first on the
/// manager [`setup`] built) until `seconds` have passed.
///
/// Other tenants of the machine only ever slow a window down, so each
/// figure is the mean over the better half of the windows: the higher
/// rates, the lower latencies. A change to the program moves every
/// window, and so this figure too.
///
/// * fanout: a closed-loop pass, each arrival to every app paced only by
///   blocking backpressure, gives `qps`; a second pass over the same
///   arrivals, open loop at [`FANOUT_QPS`], gives the latencies.
/// * route-lineage and tenant-flood: one open-loop pass gives both.
///
/// Every pass of every window must label identically: the first pass
/// is digested and later ones must match it.
pub fn serve(
    w: Workload,
    input: &Inputs,
    models: &Models,
    first: WorkloadManager,
    seconds: f64,
    tr: &mut Tracer,
) -> Served {
    let cfg = config(w);
    let mut s = Served::default();
    let (mut qps, mut p50, mut p99, mut drain_ms) = (vec![], vec![], vec![], vec![]);
    let start = Instant::now();
    let mut next = Some(first);
    loop {
        let mgr = next.take().unwrap_or_else(|| manager(&cfg, models));
        let (o, d, secs, drain_s) = pass(w, mgr, input, w != Workload::Fanout, &mut s, tr);
        qps.push(o.arrivals as f64 / secs);
        drain_ms.push(drain_s * 1e3);
        s.arrivals += o.arrivals;
        let mut passes = vec![judge(&d)];
        let d = if w == Workload::Fanout {
            let (o, d, _, _) = pass(w, manager(&cfg, models), input, true, &mut s, tr);
            s.arrivals += o.arrivals;
            passes.push(judge(&d));
            d
        } else {
            d
        };
        let (l50, l99, n) = latency(w, &d);
        p50.push(l50);
        p99.push(l99);
        s.samples = n;
        if s.windows == 0 {
            (s.digest, s.accuracy) = passes[0];
        }
        for (digest, _) in passes {
            if digest != s.digest {
                s.problems.push(format!(
                    "window {} labels differ: digest {digest:016x} vs {:016x}",
                    s.windows, s.digest
                ));
            }
        }
        s.windows += 1;
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    s.qps = -better_half(qps.iter().map(|q| -q).collect());
    s.p50_us = better_half(p50);
    s.p99_us = better_half(p99);
    s.drain_ms = median(drain_ms);
    s
}
