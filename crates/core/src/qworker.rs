//! Qworkers — the per-application serving processes of Fig 1.
//!
//! A Qworker consumes a stream of queries, runs its classifiers (and,
//! when serving for a [`crate::service::WorkloadManager`], its
//! application's batched labeler) to attach labels, and forwards the
//! labeled query onward: to the database sink, to the central training
//! module, or both. In *forked* mode (paper §2: "Querc may not be in
//! the critical path") queries are only mirrored to training and never
//! forwarded to the database. That forwarding is [`Qworker::run`]'s; a
//! manager shard runs [`Qworker::run_timed`] instead, which moves each
//! labeled query once into the app's single output stream.
//!
//! The run loop drains its channel in **chunks**: one blocking `recv`
//! followed by non-blocking `try_recv` up to the batch size, so a busy
//! stream is labeled through [`querc_embed::Embedder::embed_batch`]
//! (amortizing embedder setup) while a trickle still flows query by
//! query with no added latency.
//!
//! Chunks are [`EnrichedQuery`]s: each query's normalized tokens are
//! lexed **at most once** (memoized — regression-tested against the
//! lexer's call counter) and embedding vectors attached upstream (the
//! manager's ingress embed plane) are reused by every classifier and
//! the app via [`QueryClassifier::label_vectors_batch`] instead of
//! re-embedding per consumer.
//!
//! Classifiers come in two flavors: a **pinned** list fixed at
//! construction, and **registry-resolved** labels
//! ([`Qworker::with_registry`]) that are re-resolved from the
//! [`crate::registry::ModelRegistry`] once per chunk — a concurrent
//! `deploy` hot-swaps the model *between* chunks, never mid-chunk, so
//! every chunk is labeled by exactly one model version.
//!
//! Qworkers hold no heavyweight state — classifiers and fitted apps are
//! `Arc`s — so they can be replicated and load-balanced over one MPMC
//! stream.

use crate::classifier::QueryClassifier;
use crate::enriched::EnrichedQuery;
use crate::histogram::LatencyHistogram;
use crate::labeled::LabeledQuery;
use crate::qos::{DrrScheduler, QosState};
use crate::registry::ModelRegistry;
use crate::service::{routing_key, AppCounters, FittedApp};
use crossbeam::channel::{Receiver, Sender, TryRecvError};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Default maximum chunk a worker drains per iteration.
pub const DEFAULT_BATCH: usize = 32;

/// A query stamped with its submit time — the message type on sharded
/// manager streams, letting the consuming worker record client-
/// perceived submit→labeled latency into the app's
/// [`LatencyHistogram`]. Carries an [`EnrichedQuery`] so ingress-derived
/// artifacts (tokens, fingerprint, cached vectors) ride along to the
/// shard instead of being recomputed there.
#[derive(Debug, Clone)]
pub struct TimedQuery {
    /// The query being served, with its derived artifacts.
    pub query: EnrichedQuery,
    /// When the producer called `submit`/`submit_batch`. Stamped before
    /// ingress embedding and the (possibly blocking) send, so under
    /// backpressure the measured latency includes both the embed work
    /// and the wait for queue space — what a client would actually
    /// observe, not just time spent inside the queue.
    pub enqueued_at: Instant,
}

impl TimedQuery {
    /// Re-stamp an already-enriched query (the manager stamps before
    /// ingress embedding; see [`TimedQuery::enqueued_at`]).
    pub fn at(query: EnrichedQuery, enqueued_at: Instant) -> TimedQuery {
        TimedQuery { query, enqueued_at }
    }
}

/// Where [`Qworker::run`] forwards labeled queries. The manager's shard
/// loop ([`Qworker::run_timed`]) has one output stream and ignores it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QworkerMode {
    /// In the critical path: forward to the database AND the trainer.
    Inline,
    /// Off the critical path: mirror to the trainer only.
    Forked,
}

/// A per-application worker applying (embedder, labeler) classifiers
/// and, optionally, one fitted app model ([`FittedApp`]).
pub struct Qworker {
    /// Application name (e.g. `app-X`), attached as a label.
    pub application: String,
    classifiers: Vec<Arc<QueryClassifier>>,
    registry: Option<(Arc<ModelRegistry>, Vec<String>)>,
    app: Option<Arc<FittedApp>>,
    mode: QworkerMode,
    batch: usize,
    counters: Option<Arc<AppCounters>>,
    histogram: Option<Arc<LatencyHistogram>>,
    qos: Option<Arc<QosState>>,
}

impl Qworker {
    /// A worker for `application` applying the given classifiers.
    pub fn new(
        application: impl Into<String>,
        classifiers: Vec<Arc<QueryClassifier>>,
        mode: QworkerMode,
    ) -> Self {
        Qworker {
            application: application.into(),
            classifiers,
            registry: None,
            app: None,
            mode,
            batch: DEFAULT_BATCH,
            counters: None,
            histogram: None,
            qos: None,
        }
    }

    /// Attach a fitted application whose `label_batch` runs on every
    /// chunk (the manager's serving path).
    pub fn with_app(mut self, app: Arc<FittedApp>) -> Self {
        self.app = Some(app);
        self
    }

    /// Additionally attach every `labels` classifier resolved from
    /// `registry`, re-resolved **once per chunk**: a concurrent
    /// [`ModelRegistry::deploy`] takes effect at the next chunk boundary
    /// (live hot-swap without re-registering the app), while each chunk
    /// is labeled by exactly one pinned model version — never a mid-chunk
    /// mix. A label that is currently undeployed is skipped for the whole
    /// chunk.
    pub fn with_registry(mut self, registry: Arc<ModelRegistry>, labels: Vec<String>) -> Self {
        self.registry = Some((registry, labels));
        self
    }

    /// Maximum chunk size drained per loop iteration (≥ 1).
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch.max(1);
        self
    }

    /// Live throughput counters shared with the manager.
    pub fn with_counter(mut self, counters: Arc<AppCounters>) -> Self {
        self.counters = Some(counters);
        self
    }

    /// Shared latency histogram; [`Qworker::run_timed`] records each
    /// query's enqueue→labeled latency into it.
    pub fn with_histogram(mut self, histogram: Arc<LatencyHistogram>) -> Self {
        self.histogram = Some(histogram);
        self
    }

    /// Attach the manager's QoS state: [`Qworker::run_timed`] then
    /// drains its shard through a per-tenant [`DrrScheduler`] (weights
    /// and quantum from `qos`) instead of the raw channel FIFO, and
    /// reports per-query completions into the per-tenant accounting.
    pub fn with_qos(mut self, qos: Arc<QosState>) -> Self {
        self.qos = Some(qos);
        self
    }

    /// Label one query with every classifier (and the app, if any).
    pub fn process(&self, lq: LabeledQuery) -> LabeledQuery {
        self.process_chunk(vec![EnrichedQuery::new(lq)])
            .pop()
            .expect("one in, one out")
    }

    /// Label a chunk: each query is lexed at most once (memoized in its
    /// [`EnrichedQuery`]), each embedder in play embeds a query at most
    /// once (ingress-cached vectors are reused, worker-computed ones are
    /// memoized back onto the query), then every classifier and the
    /// fitted app label from the shared vectors. Output `i` corresponds
    /// to input `i`.
    pub fn process_chunk(&self, mut chunk: Vec<EnrichedQuery>) -> Vec<LabeledQuery> {
        if chunk.is_empty() {
            return Vec::new();
        }
        for q in &mut chunk {
            q.set("application", &self.application);
        }
        for clf in &self.classifiers {
            Self::apply_classifier(&mut chunk, clf);
        }
        if let Some((registry, labels)) = &self.registry {
            for label in labels {
                // Resolve once per chunk and hold the Arc until the whole
                // chunk is labeled: a concurrent deploy swaps model
                // versions at chunk boundaries, never inside one.
                if let Some(clf) = registry.get(label) {
                    Self::apply_classifier(&mut chunk, &clf);
                }
            }
        }
        if let Some(app) = &self.app {
            // Pre-fill the app embedder's vectors (memoized) so
            // `label_batch`, which sees the chunk immutably, finds them.
            if let Some(embedder) = app.embedder() {
                let _ = EnrichedQuery::vectors_memo(&mut chunk, embedder.as_ref());
            }
            match app.label_batch(&chunk) {
                Ok(outputs) => {
                    for (q, out) in chunk.iter_mut().zip(outputs) {
                        out.apply_to(q.labeled_mut());
                    }
                }
                Err(e) => {
                    // Serving must not die on one bad chunk: surface the
                    // failure as a label and keep the stream moving.
                    for q in &mut chunk {
                        q.set("app_error", e.to_string());
                    }
                }
            }
        }
        chunk.into_iter().map(EnrichedQuery::into_labeled).collect()
    }

    /// Attach one classifier's `predicted_<label>` to every query in the
    /// chunk, labeling from shared vectors: cached ones are reused, the
    /// rest are embedded in one batched call and memoized for the next
    /// consumer of the same embedder.
    fn apply_classifier(chunk: &mut [EnrichedQuery], clf: &QueryClassifier) {
        let vectors = EnrichedQuery::vectors_memo(chunk, clf.embedder().as_ref());
        let values = clf.label_vectors_batch(&vectors);
        for (q, value) in chunk.iter_mut().zip(values) {
            q.set(format!("predicted_{}", clf.label_name), value);
        }
    }

    /// Drain a stream until it closes, forwarding per the mode. Returns
    /// the number of queries processed. Run this on a thread per
    /// application; all channels are crossbeam MPMC so workers can be
    /// replicated on the same stream.
    pub fn run(
        &self,
        input: Receiver<LabeledQuery>,
        database: Sender<LabeledQuery>,
        trainer: Sender<LabeledQuery>,
    ) -> usize {
        let inline = self.mode == QworkerMode::Inline;
        self.run_loop(
            input,
            |lq| (EnrichedQuery::new(lq), None),
            |labeled| {
                if inline {
                    // The sink may have hung up (tests, shutdown); labeling
                    // continues because the training mirror matters more.
                    let _ = database.send(labeled.clone());
                }
                let _ = trainer.send(labeled);
            },
        )
    }

    /// The sharded manager's per-shard loop over a stream of
    /// [`TimedQuery`]s: each labeled query is moved once into `output`.
    /// Each query's enqueue→labeled latency is recorded into the
    /// histogram installed by [`Qworker::with_histogram`]. With
    /// [`Qworker::with_qos`] attached, the shard is drained fairly:
    /// arrivals are parked in per-tenant subqueues and chunks are
    /// assembled by deficit round robin, so one tenant's backlog cannot
    /// monopolize the shard.
    pub fn run_timed(&self, input: Receiver<TimedQuery>, output: Sender<LabeledQuery>) -> usize {
        let emit = |labeled| {
            let _ = output.send(labeled);
        };
        match &self.qos {
            Some(qos) => self.run_drr(qos, input, emit),
            None => self.run_loop(input, |t| (t.query, Some(t.enqueued_at)), emit),
        }
    }

    /// The QoS drain loop: pull every available arrival off the bounded
    /// channel into the per-tenant [`DrrScheduler`] (the channel stays
    /// short — the per-tenant admission cap is what bounds scheduler
    /// memory), then dequeue one fair chunk and label it. Per-tenant
    /// FIFO still holds end to end: the channel preserves arrival order
    /// and the scheduler only ever pops a tenant's subqueue from the
    /// front.
    fn run_drr(
        &self,
        qos: &QosState,
        input: Receiver<TimedQuery>,
        mut emit: impl FnMut(LabeledQuery),
    ) -> usize {
        let mut sched: DrrScheduler<TimedQuery> = DrrScheduler::new(qos.quantum());
        let mut open = true;
        let mut processed = 0usize;
        let enqueue = |sched: &mut DrrScheduler<TimedQuery>, t: TimedQuery| {
            let tenant = routing_key(t.query.labeled()).to_string();
            let weight = qos.weight_of(&tenant);
            sched.enqueue(&tenant, weight, t);
        };
        while open || !sched.is_empty() {
            if open && sched.is_empty() {
                // Nothing parked: block for the next arrival (or close).
                match input.recv() {
                    Ok(t) => enqueue(&mut sched, t),
                    Err(_) => {
                        open = false;
                        continue;
                    }
                }
            }
            // Greedily absorb everything already queued so the scheduler
            // sees the full cross-tenant picture before picking a chunk.
            while open {
                match input.try_recv() {
                    Ok(t) => enqueue(&mut sched, t),
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => open = false,
                }
            }
            let (chunk, stamps): (Vec<EnrichedQuery>, Vec<Option<Instant>>) = sched
                .dequeue_chunk(self.batch)
                .into_iter()
                .map(|t| (t.query, Some(t.enqueued_at)))
                .unzip();
            processed += self.finish_chunk(chunk, &stamps, Some(qos), &mut emit);
        }
        processed
    }

    /// The chunked drain loop shared by [`Qworker::run`] and
    /// [`Qworker::run_timed`]: one blocking `recv` per chunk, greedy
    /// non-blocking fill up to the batch size, one `process_chunk`.
    fn run_loop<T>(
        &self,
        input: Receiver<T>,
        split: impl Fn(T) -> (EnrichedQuery, Option<Instant>),
        mut emit: impl FnMut(LabeledQuery),
    ) -> usize {
        let mut processed = 0usize;
        // Block for the first query of each chunk, then greedily fill it.
        while let Ok(first) = input.recv() {
            let mut chunk = Vec::with_capacity(self.batch);
            let mut stamps = Vec::with_capacity(self.batch);
            let (lq, at) = split(first);
            chunk.push(lq);
            stamps.push(at);
            while chunk.len() < self.batch {
                match input.try_recv() {
                    Ok(msg) => {
                        let (lq, at) = split(msg);
                        chunk.push(lq);
                        stamps.push(at);
                    }
                    Err(_) => break,
                }
            }
            processed += self.finish_chunk(chunk, &stamps, None, &mut emit);
        }
        processed
    }

    /// The per-chunk tail of both drain loops: label the chunk, record
    /// each stamped query's latency (`stamps[i]` is query `i`'s submit
    /// time, if any) and complete it with `qos`, hand every labeled
    /// query to `emit`, and count the chunk. Returns the chunk size.
    fn finish_chunk(
        &self,
        chunk: Vec<EnrichedQuery>,
        stamps: &[Option<Instant>],
        qos: Option<&QosState>,
        emit: &mut impl FnMut(LabeledQuery),
    ) -> usize {
        let n = chunk.len();
        // Tenant keys are read before labeling, from the query as admitted.
        let tenants: Vec<String> = match qos {
            Some(_) => chunk
                .iter()
                .map(|q| routing_key(q.labeled()).to_string())
                .collect(),
            None => Vec::new(),
        };
        let labeled = self.process_chunk(chunk);
        let done = Instant::now();
        for (i, at) in stamps.iter().enumerate() {
            let elapsed = at.map(|at| done.duration_since(at));
            if let (Some(histogram), Some(elapsed)) = (&self.histogram, elapsed) {
                histogram.record(elapsed);
            }
            if let Some(qos) = qos {
                qos.complete(&tenants[i], elapsed);
            }
        }
        labeled.into_iter().for_each(emit);
        if let Some(counters) = &self.counters {
            counters.processed.fetch_add(n as u64, Ordering::Relaxed);
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::TrainedLabeler;
    use crossbeam::channel::unbounded;
    use querc_embed::{BagOfTokens, Embedder};
    use querc_learn::{ForestConfig, RandomForest};
    use querc_linalg::Pcg32;

    fn team_classifier() -> Arc<QueryClassifier> {
        let embedder: Arc<dyn Embedder> = Arc::new(BagOfTokens::new(64, true));
        let sqls: Vec<String> = (0..20)
            .map(|i| {
                if i % 2 == 0 {
                    format!("select a{} from warehouse_facts", i)
                } else {
                    format!("insert into event_log values ({i})")
                }
            })
            .collect();
        let labels: Vec<&str> = (0..20)
            .map(|i| if i % 2 == 0 { "analytics" } else { "ingest" })
            .collect();
        let vectors: Vec<Vec<f32>> = sqls.iter().map(|s| embedder.embed_sql(s)).collect();
        let labeler = TrainedLabeler::train(
            RandomForest::new(ForestConfig::extra_trees(10)),
            &vectors,
            &labels,
            &mut Pcg32::new(5),
        );
        Arc::new(QueryClassifier::new("workload_class", embedder, labeler))
    }

    #[test]
    fn process_attaches_application_and_predictions() {
        let worker = Qworker::new("app-X", vec![team_classifier()], QworkerMode::Inline);
        let out = worker.process(LabeledQuery::new("select a2 from warehouse_facts"));
        assert_eq!(out.get("application"), Some("app-X"));
        assert_eq!(out.get("predicted_workload_class"), Some("analytics"));
    }

    #[test]
    fn process_chunk_matches_query_at_a_time() {
        let worker = Qworker::new("app-X", vec![team_classifier()], QworkerMode::Inline);
        let sqls = [
            "select a4 from warehouse_facts",
            "insert into event_log values (9)",
            "select a8 from warehouse_facts",
        ];
        let chunk: Vec<EnrichedQuery> = sqls.iter().map(|s| EnrichedQuery::from_sql(*s)).collect();
        let batched = worker.process_chunk(chunk);
        for (sql, out) in sqls.iter().zip(&batched) {
            let single = worker.process(LabeledQuery::new(*sql));
            assert_eq!(*out, single, "chunked and single paths must agree");
        }
    }

    #[test]
    fn inline_mode_forwards_to_database_and_trainer() {
        let (in_tx, in_rx) = unbounded();
        let (db_tx, db_rx) = unbounded();
        let (tr_tx, tr_rx) = unbounded();
        let worker = Qworker::new("app-X", vec![team_classifier()], QworkerMode::Inline);
        for i in 0..5 {
            in_tx
                .send(LabeledQuery::new(format!(
                    "insert into event_log values ({i})"
                )))
                .unwrap();
        }
        drop(in_tx);
        let n = worker.run(in_rx, db_tx, tr_tx);
        assert_eq!(n, 5);
        assert_eq!(db_rx.iter().count(), 5);
        assert_eq!(tr_rx.iter().count(), 5);
    }

    #[test]
    fn forked_mode_skips_database() {
        let (in_tx, in_rx) = unbounded();
        let (db_tx, db_rx) = unbounded();
        let (tr_tx, tr_rx) = unbounded();
        let worker = Qworker::new("app-Y", vec![team_classifier()], QworkerMode::Forked);
        in_tx.send(LabeledQuery::new("select 1")).unwrap();
        drop(in_tx);
        worker.run(in_rx, db_tx, tr_tx);
        assert_eq!(db_rx.iter().count(), 0, "forked mode mirrors only");
        assert_eq!(tr_rx.iter().count(), 1);
    }

    #[test]
    fn replicated_workers_share_a_stream() {
        let (in_tx, in_rx) = unbounded();
        let (db_tx, _db_rx) = unbounded();
        let (tr_tx, tr_rx) = unbounded();
        let mut handles = Vec::new();
        for w in 0..3 {
            let rx = in_rx.clone();
            let db = db_tx.clone();
            let tr = tr_tx.clone();
            let clf = team_classifier();
            handles.push(std::thread::spawn(move || {
                let worker = Qworker::new(format!("app-{w}"), vec![clf], QworkerMode::Forked);
                worker.run(rx, db, tr)
            }));
        }
        drop(db_tx);
        drop(tr_tx);
        for i in 0..60 {
            in_tx
                .send(LabeledQuery::new(format!(
                    "select {i} from warehouse_facts"
                )))
                .unwrap();
        }
        drop(in_tx);
        let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 60, "every query processed exactly once");
        assert_eq!(tr_rx.iter().count(), 60);
    }

    #[test]
    fn tiny_batch_size_still_processes_everything() {
        let (in_tx, in_rx) = unbounded();
        let (db_tx, db_rx) = unbounded();
        let (tr_tx, tr_rx) = unbounded();
        let worker =
            Qworker::new("app-X", vec![team_classifier()], QworkerMode::Inline).with_batch(1);
        for i in 0..7 {
            in_tx
                .send(LabeledQuery::new(format!(
                    "select a{i} from warehouse_facts"
                )))
                .unwrap();
        }
        drop(in_tx);
        assert_eq!(worker.run(in_rx, db_tx, tr_tx), 7);
        assert_eq!(db_rx.iter().count(), 7);
        assert_eq!(tr_rx.iter().count(), 7);
    }

    #[test]
    fn chunk_lexes_each_query_exactly_once() {
        use crate::apps::{ResourcesApp, TrainCorpus};
        use crate::service::FittedApp;
        use querc_workloads::QueryRecord;

        // Two classifiers with *distinct* embedder configs plus a fitted
        // app: before the EnrichedQuery memoization, each consumer
        // re-tokenized the chunk (4 lexes per query); now the OnceLock
        // serves every consumer from one lex.
        let records: Vec<QueryRecord> = (0..30)
            .map(|i| QueryRecord {
                sql: format!("select v from kv_store where k = {i}"),
                user: "u".into(),
                account: "a".into(),
                cluster: "c".into(),
                dialect: "generic".into(),
                runtime_ms: (i % 3) as f64 * 400.0,
                mem_mb: 1.0,
                error_code: None,
                timestamp: i,
            })
            .collect();
        let corpus = TrainCorpus::from_records(records, 3);
        let app = Arc::new(
            FittedApp::fit(
                ResourcesApp::new(Arc::new(BagOfTokens::new(32, false))),
                &corpus,
            )
            .unwrap(),
        );
        let worker = Qworker::new(
            "app-X",
            vec![team_classifier(), team_classifier()],
            QworkerMode::Inline,
        )
        .with_app(app);

        let chunk: Vec<EnrichedQuery> = (0..9)
            .map(|i| EnrichedQuery::from_sql(format!("select a{i} from warehouse_facts")))
            .collect();
        let before = querc_sql::lex_calls_this_thread();
        let labeled = worker.process_chunk(chunk);
        let lexes = querc_sql::lex_calls_this_thread() - before;
        assert_eq!(labeled.len(), 9);
        assert_eq!(
            lexes, 9,
            "2 classifiers + 1 app must share one lex per query, saw {lexes}"
        );
        for lq in &labeled {
            assert!(lq.get("predicted_workload_class").is_some());
            assert!(lq.get("resource_class").is_some());
        }
    }

    #[test]
    fn registry_hot_swap_is_never_mid_chunk() {
        use crate::registry::ModelRegistry;

        // A classifier whose every prediction is its version tag: train
        // a single-class labeler so predict() is constant.
        fn tagged(tag: &str) -> QueryClassifier {
            let embedder: Arc<dyn Embedder> = Arc::new(BagOfTokens::new(16, false));
            let docs: Vec<Vec<String>> = (0..4)
                .map(|i| querc_embed::sql_tokens(&format!("select {i} from t")))
                .collect();
            let vectors = embedder.embed_batch(&docs);
            let labels: Vec<&str> = vec![tag; 4];
            let labeler = TrainedLabeler::train(
                RandomForest::new(ForestConfig::extra_trees(2)),
                &vectors,
                &labels,
                &mut Pcg32::new(9),
            );
            QueryClassifier::new("version", embedder, labeler)
        }

        let registry = Arc::new(ModelRegistry::new());
        registry.deploy("version", tagged("v0"));
        let worker = Qworker::new("app-X", Vec::new(), QworkerMode::Forked)
            .with_registry(Arc::clone(&registry), vec!["version".to_string()]);

        // Deployer thread: hot-swaps (and briefly undeploys) while the
        // main thread labels chunks.
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let deployer = {
            let registry = Arc::clone(&registry);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut v = 1u64;
                while !stop.load(Ordering::SeqCst) {
                    registry.deploy("version", tagged(&format!("v{v}")));
                    if v.is_multiple_of(7) {
                        registry.undeploy("version");
                        registry.deploy("version", tagged(&format!("v{v}")));
                    }
                    v += 1;
                    std::thread::yield_now();
                }
            })
        };

        for round in 0..300 {
            let chunk: Vec<EnrichedQuery> = (0..8)
                .map(|i| EnrichedQuery::from_sql(format!("select {i} from t where x = {round}")))
                .collect();
            let labeled = worker.process_chunk(chunk);
            // Consistency: within one chunk, every query saw the SAME
            // model version (one pinned Arc) — or, if the label was
            // undeployed at the chunk boundary, none did.
            let tags: std::collections::HashSet<Option<&str>> = labeled
                .iter()
                .map(|lq| lq.get("predicted_version"))
                .collect();
            assert_eq!(
                tags.len(),
                1,
                "round {round}: chunk saw a mid-chunk model swap: {tags:?}"
            );
        }
        stop.store(true, Ordering::SeqCst);
        deployer.join().unwrap();
    }

    #[test]
    fn hung_up_database_does_not_stop_labeling() {
        let (in_tx, in_rx) = unbounded();
        let (db_tx, db_rx) = unbounded();
        drop(db_rx); // database sink gone
        let (tr_tx, tr_rx) = unbounded();
        let worker = Qworker::new("app-X", vec![team_classifier()], QworkerMode::Inline);
        in_tx.send(LabeledQuery::new("select 1")).unwrap();
        drop(in_tx);
        let n = worker.run(in_rx, db_tx, tr_tx);
        assert_eq!(n, 1);
        assert_eq!(tr_rx.iter().count(), 1);
    }
}
