//! Layer replay for the traced run: after serving, the same arrivals go
//! through each layer's public functions on the generator thread, each
//! call in its own span, so every per-layer number is a measured call
//! into one layer.

use crate::serve::{self, Inputs, Models, Workload};
use crate::trace::Tracer;
use querc::qos::QosState;
use querc::{
    DrrScheduler, EmbedPlane, EmbedPlaneConfig, EnrichedQuery, LabeledQuery, Qworker, QworkerMode,
};
use querc_sql::Dialect;
use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;

/// Chunk size of every batched layer call: the manager's default
/// `batch`, which is what the shard workers label at.
fn batch(w: Workload) -> usize {
    serve::config(w).batch
}

/// Fresh enriched copies of `sample`, with tokens and fingerprint
/// already derived, in chunks of `batch`.
fn chunks(sample: &[LabeledQuery], batch: usize) -> Vec<Vec<EnrichedQuery>> {
    sample
        .chunks(batch)
        .map(|c| {
            c.iter()
                .map(|q| {
                    let q = EnrichedQuery::new(q.clone());
                    q.fingerprint();
                    q
                })
                .collect()
        })
        .collect()
}

/// Replay the first `n` arrivals of `input` (and, on tenant-flood, the
/// whole offer stream through admission and DRR) layer by layer.
pub fn replay(w: Workload, input: &Inputs, n: usize, models: &Models, tr: &mut Tracer) {
    let batch = batch(w);
    let arrivals = &input.arrivals[..n.min(input.arrivals.len())];
    let sample: Vec<LabeledQuery> = arrivals.iter().map(|a| input.query(a)).collect();
    tr.enter("layer_replay");

    // querc-sql: lex + normalize, fingerprint, parse for the lineage key.
    for (a, q) in arrivals.iter().zip(&sample) {
        let toks = tr.span("sql.lex", Some(a.id), 1, || {
            querc_sql::normalize_tokens(&querc_sql::tokenize(&q.sql, Dialect::Generic))
        });
        black_box(tr.span("sql.fingerprint", Some(a.id), 1, || {
            querc_sql::fingerprint_tokens(&toks)
        }));
        black_box(tr.span("sql.parse_lineage", Some(a.id), 1, || {
            querc::lineage_routing_key(q)
        }));
    }

    // querc-embed: inference on every distinct template (cold misses).
    let embedder = models.embedder.as_ref();
    let mut seen = HashSet::new();
    let docs: Vec<Vec<String>> = sample
        .iter()
        .map(|q| querc_embed::sql_tokens(&q.sql))
        .filter(|t| seen.insert(querc_sql::fingerprint_tokens(t)))
        .collect();
    for c in docs.chunks(batch) {
        black_box(tr.span("embed.miss", None, c.len(), || embedder.embed_batch(c)));
    }

    // querc::embed_plane: lookups against a plane already holding every
    // template.
    let plane = EmbedPlane::new(&EmbedPlaneConfig::default());
    let mut enriched = chunks(&sample, batch);
    for c in &mut chunks(&sample, batch) {
        plane.enrich_batch(embedder, c);
    }
    for c in &mut enriched {
        black_box(tr.span("embed_plane.lookup", None, c.len(), || {
            plane.enrich_batch(embedder, c)
        }));
    }

    // querc::apps and querc::qworker: label pre-enriched chunks directly,
    // then through a Qworker on equal chunks.
    for app in &models.apps {
        let label = serve::label_span(app.name());
        for c in &enriched {
            black_box(tr.span(label, None, c.len(), || app.label_batch(c)))
                .expect("labeling a replayed chunk");
        }
        let worker = Qworker::new(app.name(), Vec::new(), QworkerMode::Inline)
            .with_app(app.clone())
            .with_batch(batch);
        for mut c in chunks(&sample, batch) {
            plane.enrich_batch(embedder, &mut c);
            let n = c.len();
            black_box(tr.span("qworker.process_chunk", None, n, || worker.process_chunk(c)));
        }
    }

    // querc::qos: admission over the recorded offer stream at its
    // scheduled instants, then DRR over the admitted offers.
    if w == Workload::TenantFlood {
        let cfg = serve::config(w).qos;
        let qos = QosState::new(&cfg);
        let base = Instant::now();
        let mut admitted = Vec::new();
        for a in &input.arrivals {
            let tenant = a.tenant.expect("tenant-flood offers name their tenant");
            let at = base + a.due;
            if let Ok(state) = tr.span("qos.admit", Some(a.id), 1, || qos.admit_at(tenant, at)) {
                QosState::committed(&state);
                qos.complete(tenant, None);
                admitted.push((tenant, qos.weight_of(tenant), a.id));
            }
        }
        let mut drr: DrrScheduler<u64> = DrrScheduler::new(cfg.quantum);
        for c in admitted.chunks(batch) {
            black_box(tr.span("qos.drr", None, c.len(), || {
                for (tenant, weight, id) in c {
                    drr.enqueue(tenant, *weight, *id);
                }
                let mut out = 0;
                while !drr.is_empty() {
                    out += drr.dequeue_chunk(batch).len();
                }
                out
            }));
        }
    }
    tr.exit();
}
