//! Doc2Vec — paragraph vectors by context prediction (Le & Mikolov).
//!
//! The paper's first embedder (§3, "Context prediction models"): a vector
//! is learned for every query ("document") by treating it as a virtual
//! context word that participates in predicting the query's tokens.
//! Both classical variants are implemented:
//!
//! * **PV-DM** (distributed memory): the document vector plus the mean of
//!   a sliding context window predicts the center token;
//! * **PV-DBOW**: the document vector alone predicts each token.
//!
//! Training uses negative sampling against the unigram^0.75 noise
//! distribution, the standard word2vec trick, on the shared vocabulary of
//! `crate::vocab`. Unseen queries are embedded by *inference*: gradient
//! steps on a fresh document vector with all token vectors frozen — seeded
//! from a hash of the tokens so [`Embedder::embed`] is deterministic.
//!
//! ## Parallel fit
//!
//! Training runs on the compute plane. Each epoch the shuffled document
//! order is cut into **fixed shards** (at most `MAX_SHARDS`, at least
//! `MIN_SHARD_DOCS` documents each — a function of the corpus size
//! only, never of the thread count) distributed over a [`ComputePool`].
//! Every document draws its own RNG stream
//! (`Pcg32::with_stream(seed ^ epoch_salt, doc_id)`), so subsampling,
//! window radii and negative draws are identical no matter which worker
//! processes the document. Shards train against shard-local copies of
//! the token matrices (documents inside a shard see each other's
//! updates, exactly like the sequential loop); the per-shard deltas
//! against the epoch-start weights are then applied **in shard order**.
//! A single-shard corpus skips the delta round-trip entirely and keeps
//! the shard's matrices verbatim. Either way the fitted model is
//! bit-identical for every `training_threads` value. The learning-rate
//! schedule is precomputed sequentially from the shuffle (it depends
//! only on raw token counts), so it matches the classical global decay.
//!
//! Negative-sampling scores go through `kernel::dot_gather` — the
//! positive and negative output rows are gathered and dotted against
//! the hidden vector in one fused scalar/AVX2 call (rows read as of
//! call entry; a duplicate negative inside one call no longer sees the
//! update of its twin, which changes nothing statistically).

use crate::embedder::Embedder;
use crate::vocab::{Vocab, VocabConfig};
use querc_linalg::{kernel, ops, AliasTable, ComputePool, Matrix, Pcg32};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Upper bound on per-epoch training shards. Epoch deltas cost one
/// matrix pair per shard, so this caps the reduction memory at 8×
/// model size regardless of corpus scale.
const MAX_SHARDS: usize = 8;

/// Minimum documents per shard: corpora smaller than this train in one
/// shard (pure sequential semantics) rather than paying delta staleness
/// for no parallel win.
const MIN_SHARD_DOCS: usize = 64;

/// Which paragraph-vector variant to train.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Doc2VecMode {
    /// PV-DM: doc vector + context mean predicts the center token.
    DistributedMemory,
    /// PV-DBOW: doc vector predicts every token independently.
    Dbow,
}

/// Doc2Vec hyperparameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Doc2VecConfig {
    /// Embedding dimensionality.
    pub dim: usize,
    /// Maximum context window radius (PV-DM); the effective radius is
    /// resampled uniformly in `1..=window` per position, as in word2vec.
    pub window: usize,
    /// Negative samples per positive pair.
    pub negative: usize,
    /// Passes over the corpus.
    pub epochs: usize,
    /// Starting learning rate, decayed linearly to `min_lr`.
    pub initial_lr: f32,
    /// Floor of the linear learning-rate decay.
    pub min_lr: f32,
    /// Frequent-token subsampling threshold (word2vec `sample`); 0 = off.
    pub subsample: f64,
    /// Training objective: PV-DM or PV-DBOW.
    pub mode: Doc2VecMode,
    /// Gradient steps (epochs) used when inferring vectors for unseen
    /// queries.
    pub infer_epochs: usize,
    /// Drop out-of-vocabulary tokens instead of hashing them into fallback
    /// buckets. `true` mirrors the classical gensim behaviour the paper's
    /// Doc2Vec numbers come from; `false` enables the OOV buckets shared
    /// with the LSTM embedder.
    pub drop_oov: bool,
    /// Vocabulary construction parameters.
    pub vocab: VocabConfig,
    /// RNG seed for initialization, sampling, and negative draws.
    pub seed: u64,
}

impl Default for Doc2VecConfig {
    fn default() -> Self {
        Doc2VecConfig {
            dim: 64,
            window: 5,
            negative: 5,
            epochs: 10,
            initial_lr: 0.05,
            min_lr: 1e-4,
            subsample: 1e-3,
            mode: Doc2VecMode::DistributedMemory,
            infer_epochs: 25,
            drop_oov: true,
            vocab: VocabConfig::default(),
            seed: 0x5eed,
        }
    }
}

/// A trained Doc2Vec model.
///
/// Serialized as its five learned fields (`cfg`, `vocab`, `w_in`,
/// `w_out`, `doc_vecs`, in that order). The noise table and the cache
/// namespace are derived state, rebuilt on first use after loading; a
/// model never changes after training, so neither goes stale.
#[derive(Debug, Clone)]
pub struct Doc2Vec {
    cfg: Doc2VecConfig,
    vocab: Vocab,
    /// Input (projection) token vectors, `vocab.size()` × `dim`.
    w_in: Matrix,
    /// Output (context) token vectors, `vocab.size()` × `dim`.
    w_out: Matrix,
    /// Vectors of the training documents, kept for offline analysis.
    doc_vecs: Matrix,
    /// The unigram^0.75 negative-sampling table; see
    /// [`Doc2Vec::noise_table`].
    noise: OnceLock<AliasTable>,
    /// [`Embedder::cache_namespace`], computed once: it samples both
    /// weight matrices, too slow to repeat on every cache lookup.
    namespace: OnceLock<u64>,
}

impl Serialize for Doc2Vec {
    fn serialize_json(&self, out: &mut String) {
        out.push_str("{\"cfg\":");
        self.cfg.serialize_json(out);
        out.push_str(",\"vocab\":");
        self.vocab.serialize_json(out);
        out.push_str(",\"w_in\":");
        self.w_in.serialize_json(out);
        out.push_str(",\"w_out\":");
        self.w_out.serialize_json(out);
        out.push_str(",\"doc_vecs\":");
        self.doc_vecs.serialize_json(out);
        out.push('}');
    }
}

impl Deserialize for Doc2Vec {
    fn deserialize_json(v: &serde::json::Value) -> Result<Self, serde::json::Error> {
        Ok(Doc2Vec {
            cfg: Deserialize::deserialize_json(v.field("cfg")?)?,
            vocab: Deserialize::deserialize_json(v.field("vocab")?)?,
            w_in: Deserialize::deserialize_json(v.field("w_in")?)?,
            w_out: Deserialize::deserialize_json(v.field("w_out")?)?,
            doc_vecs: Deserialize::deserialize_json(v.field("doc_vecs")?)?,
            noise: OnceLock::new(),
            namespace: OnceLock::new(),
        })
    }
}

impl Doc2Vec {
    /// Train a model over a corpus of normalized token sequences.
    pub fn train(corpus: &[Vec<String>], cfg: Doc2VecConfig) -> Doc2Vec {
        assert!(cfg.dim > 0 && cfg.epochs > 0);
        let vocab = Vocab::build(corpus.iter().map(|d| d.as_slice()), &cfg.vocab);
        let mut rng = Pcg32::with_stream(cfg.seed, 0xd0c2);
        let mut w_in = querc_linalg::init::embedding(vocab.size(), cfg.dim, &mut rng);
        let mut w_out = Matrix::zeros(vocab.size(), cfg.dim);
        let mut doc_vecs = querc_linalg::init::embedding(corpus.len().max(1), cfg.dim, &mut rng);

        let noise = AliasTable::from_counts_pow(&vocab.noise_counts(), 0.75);
        let encoded: Vec<Vec<usize>> = corpus
            .iter()
            .map(|d| {
                if cfg.drop_oov {
                    vocab.encode_drop_oov(d)
                } else {
                    vocab.encode(d)
                }
            })
            .collect();
        let total_tokens: usize = encoded.iter().map(Vec::len).sum();
        let total_steps = (cfg.epochs * total_tokens).max(1) as f32;
        let total_count = vocab.total_count().max(1) as f64;

        let mut order: Vec<usize> = (0..encoded.len()).collect();
        let pool = ComputePool::current();
        let shard_docs = order.len().div_ceil(MAX_SHARDS).max(MIN_SHARD_DOCS);
        let n_shards = order.len().div_ceil(shard_docs);
        let mut step = 0usize;
        for epoch in 0..cfg.epochs {
            rng.shuffle(&mut order);
            // The lr schedule decays on raw token counts (subsampling
            // does not slow it), so it is a pure function of the shuffle
            // — precomputed here, sequentially, per position in `order`.
            let mut lrs = vec![0.0f32; order.len()];
            for (pos, &doc_id) in order.iter().enumerate() {
                let n = encoded[doc_id].len();
                if n == 0 {
                    continue;
                }
                step += n;
                lrs[pos] = (cfg.initial_lr * (1.0 - step as f32 / total_steps)).max(cfg.min_lr);
            }
            // Per-document RNG streams: the epoch goes into the seed,
            // the document id into the stream, so draws are independent
            // of worker scheduling *and* of every other document.
            let epoch_salt = 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(epoch as u64 + 1);
            let updates = pool.map(n_shards, |s| {
                let lo = s * shard_docs;
                let hi = (lo + shard_docs).min(order.len());
                train_shard(
                    &order[lo..hi],
                    &lrs[lo..hi],
                    &encoded,
                    &w_in,
                    &w_out,
                    &doc_vecs,
                    &vocab,
                    &noise,
                    &cfg,
                    total_count,
                    epoch_salt,
                    n_shards > 1,
                )
            });
            if n_shards == 1 {
                // One shard = the sequential loop verbatim; keep its
                // matrices instead of round-tripping through a delta.
                for sh in updates {
                    w_in = sh.w_in;
                    w_out = sh.w_out;
                    for (doc_id, v) in sh.docs {
                        doc_vecs.row_mut(doc_id).copy_from_slice(&v);
                    }
                }
            } else {
                // Fixed-order tree reduction: shard 0's delta lands
                // first, then shard 1's, … — identical for every thread
                // count. Document rows are exclusive per shard.
                for sh in updates {
                    w_in.add_scaled(1.0, &sh.w_in);
                    w_out.add_scaled(1.0, &sh.w_out);
                    for (doc_id, v) in sh.docs {
                        doc_vecs.row_mut(doc_id).copy_from_slice(&v);
                    }
                }
            }
        }
        Doc2Vec {
            cfg,
            vocab,
            w_in,
            w_out,
            doc_vecs,
            noise: OnceLock::from(noise),
            namespace: OnceLock::new(),
        }
    }

    /// Vector of training document `i` (for offline clustering of the
    /// training workload itself).
    pub fn doc_vector(&self, i: usize) -> &[f32] {
        self.doc_vecs.row(i)
    }

    /// Number of training documents.
    pub fn num_docs(&self) -> usize {
        self.doc_vecs.rows()
    }

    /// The model's vocabulary.
    pub fn vocab(&self) -> &Vocab {
        &self.vocab
    }

    /// Infer a vector for an unseen token sequence with frozen token
    /// vectors, using the provided RNG (exposed for tests; `embed` wraps
    /// this deterministically). The noise table is only touched when the
    /// query has usable tokens — empty/all-OOV input stays O(dim).
    pub fn infer(&self, tokens: &[String], rng: &mut Pcg32) -> Vec<f32> {
        let (ids, mut doc) = self.init_inference(tokens, rng);
        if !ids.is_empty() {
            self.infer_passes(&ids, &mut doc, self.noise_table(), rng);
        }
        doc
    }

    /// The unigram^0.75 negative-sampling table over the vocabulary.
    ///
    /// Building it is O(vocab) — more than a short query's whole
    /// inference — so a model builds it once, on first use (training
    /// hands over the table it trained with), and every later
    /// [`Doc2Vec::infer`], [`Embedder::embed`] and
    /// [`Embedder::embed_batch`] call reuses it. Construction consumes
    /// no RNG state, so vectors are the same whoever builds it.
    fn noise_table(&self) -> &AliasTable {
        self.noise
            .get_or_init(|| AliasTable::from_counts_pow(&self.vocab.noise_counts(), 0.75))
    }

    /// Encode the tokens and draw the random document-vector init (the
    /// first RNG consumption of inference, shared by both entry points).
    fn init_inference(&self, tokens: &[String], rng: &mut Pcg32) -> (Vec<usize>, Vec<f32>) {
        let ids = if self.cfg.drop_oov {
            self.vocab.encode_drop_oov(tokens)
        } else {
            self.vocab.encode(tokens)
        };
        let mut doc = vec![0.0f32; self.cfg.dim];
        for v in doc.iter_mut() {
            *v = rng.range_f32(-0.5, 0.5) / self.cfg.dim as f32;
        }
        (ids, doc)
    }

    /// The gradient epochs of inference.
    fn infer_passes(&self, ids: &[usize], doc: &mut [f32], noise: &AliasTable, rng: &mut Pcg32) {
        let epochs = self.cfg.infer_epochs.max(1);
        let kern = kernel::active_kernel();
        let mut scratch = NegScratch::default();
        for e in 0..epochs {
            let lr = (self.cfg.initial_lr * (1.0 - e as f32 / epochs as f32)).max(self.cfg.min_lr);
            match self.cfg.mode {
                Doc2VecMode::DistributedMemory => {
                    self.infer_dm_pass(ids, doc, noise, lr, rng, &mut scratch, kern)
                }
                Doc2VecMode::Dbow => {
                    self.infer_dbow_pass(ids, doc, noise, lr, rng, &mut scratch, kern)
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments, clippy::needless_range_loop)] // window loop skips position t
    fn infer_dm_pass(
        &self,
        ids: &[usize],
        doc: &mut [f32],
        noise: &AliasTable,
        lr: f32,
        rng: &mut Pcg32,
        scratch: &mut NegScratch,
        kern: kernel::Kernel,
    ) {
        let dim = self.cfg.dim;
        let mut h = vec![0.0f32; dim];
        for t in 0..ids.len() {
            let b = 1 + rng.below_usize(self.cfg.window.max(1));
            let lo = t.saturating_sub(b);
            let hi = (t + b).min(ids.len() - 1);
            h.copy_from_slice(doc);
            let mut n_ctx = 1.0f32;
            for c in lo..=hi {
                if c == t {
                    continue;
                }
                kernel::axpy_with(kern, 1.0, self.w_in.row(ids[c]), &mut h);
                n_ctx += 1.0;
            }
            ops::scale(1.0 / n_ctx, &mut h);
            let mut neu1e = vec![0.0f32; dim];
            self.neg_sample_frozen(ids[t], &h, &mut neu1e, noise, lr, rng, scratch, kern);
            // Only the document vector learns during inference.
            kernel::axpy_with(kern, 1.0 / n_ctx, &neu1e, doc);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn infer_dbow_pass(
        &self,
        ids: &[usize],
        doc: &mut [f32],
        noise: &AliasTable,
        lr: f32,
        rng: &mut Pcg32,
        scratch: &mut NegScratch,
        kern: kernel::Kernel,
    ) {
        let mut neu1e = vec![0.0f32; self.cfg.dim];
        for &target in ids {
            neu1e.iter_mut().for_each(|v| *v = 0.0);
            let h = doc.to_vec();
            self.neg_sample_frozen(target, &h, &mut neu1e, noise, lr, rng, scratch, kern);
            kernel::axpy_with(kern, 1.0, &neu1e, doc);
        }
    }

    /// Negative-sampling gradient with frozen output vectors: accumulates
    /// the input-side gradient into `neu1e` without touching `w_out`.
    ///
    /// Draws every output row first, then scores them with one gathered-
    /// dot kernel call. Because `w_out` is frozen during inference, this
    /// is **bit-identical** to the historical draw-dot-interleaved loop:
    /// the draws consume the same RNG sequence and each dot reads the
    /// same rows, in the same lane-strided canon, on every kernel arm.
    #[allow(clippy::too_many_arguments)]
    fn neg_sample_frozen(
        &self,
        target: usize,
        h: &[f32],
        neu1e: &mut [f32],
        noise: &AliasTable,
        lr: f32,
        rng: &mut Pcg32,
        scratch: &mut NegScratch,
        kern: kernel::Kernel,
    ) {
        scratch.pairs.clear();
        scratch.pairs.push((1.0, target));
        for _ in 0..self.cfg.negative {
            let mut j = noise.sample(rng);
            let mut tries = 0;
            while j == target && tries < 4 {
                j = noise.sample(rng);
                tries += 1;
            }
            if j == target {
                continue;
            }
            scratch.pairs.push((0.0, j));
        }
        scratch.ids.clear();
        scratch.ids.extend(scratch.pairs.iter().map(|&(_, j)| j));
        scratch.scores.clear();
        scratch.scores.resize(scratch.ids.len(), 0.0);
        kernel::dot_gather_with(
            kern,
            h,
            self.w_out.as_slice(),
            self.w_out.cols(),
            &scratch.ids,
            &mut scratch.scores,
        );
        for (&(label, j), &raw) in scratch.pairs.iter().zip(&scratch.scores) {
            let f = ops::sigmoid(raw);
            let g = (label - f) * lr;
            kernel::axpy_with(kern, g, self.w_out.row(j), neu1e);
        }
    }
}

/// word2vec subsampling: keep token with probability
/// `sqrt(thresh/f) + thresh/f` (clipped to 1).
fn keep_token(vocab: &Vocab, id: usize, subsample: f64, total: f64, rng: &mut Pcg32) -> bool {
    if subsample <= 0.0 {
        return true;
    }
    let f = vocab.count(id) as f64 / total;
    if f <= subsample {
        return true;
    }
    let p = (subsample / f).sqrt() + subsample / f;
    rng.chance(p.min(1.0))
}

/// One shard's epoch result: updated (or delta) token matrices plus the
/// new vectors of the documents the shard owns.
struct ShardUpdate {
    /// Shard-local `w_in` — the full matrix when the epoch ran in one
    /// shard, otherwise the delta against the epoch-start weights.
    w_in: Matrix,
    /// Shard-local `w_out`, same convention as `w_in`.
    w_out: Matrix,
    /// `(doc_id, new document vector)` — rows exclusive to this shard.
    docs: Vec<(usize, Vec<f32>)>,
}

/// Train one shard of the epoch's document order against local copies
/// of the token matrices. With `as_delta`, the returned matrices hold
/// `local − epoch_start` (applied by the caller in shard order);
/// otherwise they are the updated matrices themselves. Documents inside
/// the shard run sequentially and see each other's updates, exactly
/// like the classical loop.
#[allow(clippy::too_many_arguments)]
fn train_shard(
    order: &[usize],
    lrs: &[f32],
    encoded: &[Vec<usize>],
    w_in: &Matrix,
    w_out: &Matrix,
    doc_vecs: &Matrix,
    vocab: &Vocab,
    noise: &AliasTable,
    cfg: &Doc2VecConfig,
    total_count: f64,
    epoch_salt: u64,
    as_delta: bool,
) -> ShardUpdate {
    let kern = kernel::active_kernel();
    let mut lw_in = w_in.clone();
    let mut lw_out = w_out.clone();
    let mut docs = Vec::with_capacity(order.len());
    let mut scratch = NegScratch::default();
    for (&doc_id, &lr) in order.iter().zip(lrs) {
        let ids = &encoded[doc_id];
        if ids.is_empty() {
            continue;
        }
        let mut drng = Pcg32::with_stream(cfg.seed ^ epoch_salt, doc_id as u64);
        // Frequent-token subsampling decides which positions train.
        let kept: Vec<usize> = ids
            .iter()
            .copied()
            .filter(|&w| keep_token(vocab, w, cfg.subsample, total_count, &mut drng))
            .collect();
        if kept.is_empty() {
            continue;
        }
        let mut doc = doc_vecs.row(doc_id).to_vec();
        match cfg.mode {
            Doc2VecMode::DistributedMemory => train_dm_doc(
                &kept,
                &mut doc,
                &mut lw_in,
                &mut lw_out,
                noise,
                cfg,
                lr,
                &mut drng,
                &mut scratch,
                kern,
            ),
            Doc2VecMode::Dbow => train_dbow_doc(
                &kept,
                &mut doc,
                &mut lw_out,
                noise,
                cfg,
                lr,
                &mut drng,
                &mut scratch,
                kern,
            ),
        }
        docs.push((doc_id, doc));
    }
    if as_delta {
        lw_in.add_scaled(-1.0, w_in);
        lw_out.add_scaled(-1.0, w_out);
    }
    ShardUpdate {
        w_in: lw_in,
        w_out: lw_out,
        docs,
    }
}

/// Scratch buffers for one negative-sampling call, reused across every
/// position of a document (and every document of a shard).
#[derive(Default)]
struct NegScratch {
    /// `(label, output row)` pairs: the positive then the kept negatives.
    pairs: Vec<(f32, usize)>,
    /// Row ids of `pairs`, in order, for the gather kernel.
    ids: Vec<usize>,
    /// Pre-sigmoid gathered dot products, aligned with `pairs`.
    scores: Vec<f32>,
}

#[allow(clippy::too_many_arguments, clippy::needless_range_loop)] // window loop skips position t
fn train_dm_doc(
    ids: &[usize],
    doc: &mut [f32],
    w_in: &mut Matrix,
    w_out: &mut Matrix,
    noise: &AliasTable,
    cfg: &Doc2VecConfig,
    lr: f32,
    rng: &mut Pcg32,
    scratch: &mut NegScratch,
    kern: kernel::Kernel,
) {
    let dim = cfg.dim;
    let mut h = vec![0.0f32; dim];
    let mut neu1e = vec![0.0f32; dim];
    for t in 0..ids.len() {
        let b = 1 + rng.below_usize(cfg.window.max(1));
        let lo = t.saturating_sub(b);
        let hi = (t + b).min(ids.len() - 1);
        h.copy_from_slice(doc);
        let mut n_ctx = 1.0f32;
        for c in lo..=hi {
            if c == t {
                continue;
            }
            kernel::axpy_with(kern, 1.0, w_in.row(ids[c]), &mut h);
            n_ctx += 1.0;
        }
        ops::scale(1.0 / n_ctx, &mut h);
        neu1e.iter_mut().for_each(|v| *v = 0.0);
        neg_sample_update(
            ids[t],
            &h,
            &mut neu1e,
            w_out,
            noise,
            cfg.negative,
            lr,
            rng,
            scratch,
            kern,
        );
        // Distribute the projection gradient to every contributor of the
        // mean: ∂h/∂v = 1/n_ctx for each input vector.
        let share = 1.0 / n_ctx;
        kernel::axpy_with(kern, share, &neu1e, doc);
        for c in lo..=hi {
            if c == t {
                continue;
            }
            kernel::axpy_with(kern, share, &neu1e, w_in.row_mut(ids[c]));
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn train_dbow_doc(
    ids: &[usize],
    doc: &mut [f32],
    w_out: &mut Matrix,
    noise: &AliasTable,
    cfg: &Doc2VecConfig,
    lr: f32,
    rng: &mut Pcg32,
    scratch: &mut NegScratch,
    kern: kernel::Kernel,
) {
    let mut neu1e = vec![0.0f32; cfg.dim];
    let mut h = vec![0.0f32; cfg.dim];
    for &target in ids {
        neu1e.iter_mut().for_each(|v| *v = 0.0);
        h.copy_from_slice(doc);
        neg_sample_update(
            target,
            &h,
            &mut neu1e,
            w_out,
            noise,
            cfg.negative,
            lr,
            rng,
            scratch,
            kern,
        );
        kernel::axpy_with(kern, 1.0, &neu1e, doc);
    }
}

/// One negative-sampling update: adjusts `w_out` rows and accumulates the
/// input-side gradient into `neu1e`.
///
/// The positive and negative rows are drawn first, then scored with one
/// gathered-dot kernel call against the rows **as of call entry**; the
/// axpy updates then apply in draw order. (The historical loop
/// interleaved dot and update, so a negative drawn twice in one call saw
/// its twin's update — a vanishing-probability event with no
/// statistical weight.)
#[allow(clippy::too_many_arguments)]
fn neg_sample_update(
    target: usize,
    h: &[f32],
    neu1e: &mut [f32],
    w_out: &mut Matrix,
    noise: &AliasTable,
    negative: usize,
    lr: f32,
    rng: &mut Pcg32,
    scratch: &mut NegScratch,
    kern: kernel::Kernel,
) {
    scratch.pairs.clear();
    scratch.pairs.push((1.0, target));
    for _ in 0..negative {
        let mut j = noise.sample(rng);
        let mut tries = 0;
        while j == target && tries < 4 {
            j = noise.sample(rng);
            tries += 1;
        }
        if j == target {
            continue;
        }
        scratch.pairs.push((0.0, j));
    }
    scratch.ids.clear();
    scratch.ids.extend(scratch.pairs.iter().map(|&(_, j)| j));
    scratch.scores.clear();
    scratch.scores.resize(scratch.ids.len(), 0.0);
    kernel::dot_gather_with(
        kern,
        h,
        w_out.as_slice(),
        w_out.cols(),
        &scratch.ids,
        &mut scratch.scores,
    );
    for (&(label, j), &raw) in scratch.pairs.iter().zip(&scratch.scores) {
        let f = ops::sigmoid(raw);
        let g = (label - f) * lr;
        kernel::axpy_with(kern, g, w_out.row(j), neu1e);
        kernel::axpy_with(kern, g, h, w_out.row_mut(j));
    }
}

/// Content hash seeding deterministic inference.
fn token_hash(tokens: &[String]) -> u64 {
    let mut hash: u64 = 0xcbf29ce484222325;
    for t in tokens {
        for b in t.as_bytes() {
            hash ^= *b as u64;
            hash = hash.wrapping_mul(0x100000001b3);
        }
        hash ^= 0xff;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

impl Embedder for Doc2Vec {
    fn dim(&self) -> usize {
        self.cfg.dim
    }

    /// Deterministic inference: the RNG is seeded from the token content,
    /// so equal queries embed equally across calls and threads.
    fn embed(&self, tokens: &[String]) -> Vec<f32> {
        let mut rng = Pcg32::with_stream(token_hash(tokens) ^ self.cfg.seed, 0x1fe2);
        self.infer(tokens, &mut rng)
    }

    fn name(&self) -> &'static str {
        "doc2vec"
    }

    /// Folds trained-model identity — seed, vocabulary size, inference
    /// epochs, and checksums of both inference matrices — on top of the
    /// (name, dim) default, so two separately-trained Doc2Vec models of
    /// the same width never share vector-cache entries. Computed once
    /// per model.
    fn cache_namespace(&self) -> u64 {
        use crate::embedder::{namespace_fold, namespace_of, weights_checksum};
        *self.namespace.get_or_init(|| {
            let mut h = namespace_fold(namespace_of(self.name()), self.cfg.dim as u64);
            h = namespace_fold(h, self.cfg.seed);
            h = namespace_fold(h, self.vocab.size() as u64);
            h = namespace_fold(h, self.cfg.infer_epochs as u64);
            h = namespace_fold(h, weights_checksum(self.w_in.as_slice()));
            namespace_fold(h, weights_checksum(self.w_out.as_slice()))
        })
    }

    fn export_spec(&self) -> Option<(&'static str, String)> {
        crate::io::to_json(self).ok().map(|j| (self.name(), j))
    }

    /// Batched inference: documents run chunk-parallel on the compute
    /// pool. Each query still gets its own content-seeded RNG and the
    /// chunks are merged in input order, so results are bit-identical to
    /// per-query [`Embedder::embed`] at every thread count.
    fn embed_batch(&self, docs: &[Vec<String>]) -> Vec<Vec<f32>> {
        crate::embedder::batch_chunks(docs, |tokens| self.embed(tokens))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use querc_linalg::ops::cosine;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    /// Two clearly separable "languages" of queries.
    fn two_cluster_corpus() -> Vec<Vec<String>> {
        let mut corpus = Vec::new();
        for i in 0..30 {
            corpus.push(toks(&format!(
                "select col{} from orders where o_total > <num> group by col{}",
                i % 5,
                i % 3
            )));
            corpus.push(toks(&format!(
                "insert into audit_log values <str> <num> event{}",
                i % 4
            )));
        }
        corpus
    }

    fn small_cfg(mode: Doc2VecMode) -> Doc2VecConfig {
        Doc2VecConfig {
            dim: 24,
            window: 4,
            negative: 5,
            epochs: 30,
            initial_lr: 0.05,
            min_lr: 1e-4,
            subsample: 0.0,
            mode,
            infer_epochs: 30,
            drop_oov: false,
            vocab: VocabConfig {
                min_count: 1,
                max_size: 1000,
                hash_buckets: 64,
            },
            seed: 7,
        }
    }

    #[test]
    fn dm_separates_query_families() {
        let corpus = two_cluster_corpus();
        let model = Doc2Vec::train(&corpus, small_cfg(Doc2VecMode::DistributedMemory));
        let sel = model.embed(&toks(
            "select col1 from orders where o_total > <num> group by col1",
        ));
        let sel2 = model.embed(&toks(
            "select col2 from orders where o_total > <num> group by col2",
        ));
        let ins = model.embed(&toks("insert into audit_log values <str> <num> event1"));
        let within = cosine(&sel, &sel2);
        let across = cosine(&sel, &ins);
        assert!(
            within > across,
            "within-family {within} should exceed cross-family {across}"
        );
    }

    #[test]
    fn dbow_separates_query_families() {
        let corpus = two_cluster_corpus();
        let model = Doc2Vec::train(&corpus, small_cfg(Doc2VecMode::Dbow));
        let sel = model.embed(&toks(
            "select col1 from orders where o_total > <num> group by col1",
        ));
        let sel2 = model.embed(&toks(
            "select col0 from orders where o_total > <num> group by col2",
        ));
        let ins = model.embed(&toks("insert into audit_log values <str> <num> event2"));
        assert!(cosine(&sel, &sel2) > cosine(&sel, &ins));
    }

    #[test]
    fn embed_batch_is_bit_identical_to_embed() {
        let corpus = two_cluster_corpus();
        let model = Doc2Vec::train(&corpus, small_cfg(Doc2VecMode::DistributedMemory));
        let docs = vec![
            toks("select col1 from orders where o_total > <num>"),
            toks(""),
            toks("insert into audit_log values <str> <num> event3"),
            toks("completely unseen zzz"),
        ];
        let batch = model.embed_batch(&docs);
        assert_eq!(batch.len(), docs.len());
        for (doc, v) in docs.iter().zip(&batch) {
            assert_eq!(*v, model.embed(doc), "batch diverged on {doc:?}");
        }
    }

    #[test]
    fn single_document_embed_matches_the_batch_path_on_every_call() {
        let corpus = two_cluster_corpus();
        let trained = Doc2Vec::train(&corpus, small_cfg(Doc2VecMode::DistributedMemory));
        // A loaded model starts without a noise table; a trained one
        // keeps the table it trained with. Both must embed identically.
        let loaded: Doc2Vec = crate::io::from_json(&crate::io::to_json(&trained).unwrap()).unwrap();
        assert!(loaded.noise.get().is_none());
        let doc = toks("select col1 from orders where o_total > <num>");
        let first = loaded.embed(&doc);
        assert!(loaded.noise.get().is_some(), "built on first use");
        for model in [&loaded, &trained] {
            for _ in 0..2 {
                assert_eq!(model.embed(&doc), first);
                assert_eq!(model.embed_batch(std::slice::from_ref(&doc))[0], first);
            }
        }
    }

    #[test]
    fn export_keeps_the_five_model_fields_and_round_trips_byte_identically() {
        let corpus = two_cluster_corpus();
        let model = Doc2Vec::train(&corpus, small_cfg(Doc2VecMode::Dbow));
        let _ = model.embed(&toks("select col1 from orders"));
        let json = crate::io::to_json(&model).unwrap();
        let value = serde::json::parse(&json).unwrap();
        let keys: Vec<&str> = value
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["cfg", "vocab", "w_in", "w_out", "doc_vecs"]);
        let back: Doc2Vec = crate::io::from_json(&json).unwrap();
        assert_eq!(crate::io::to_json(&back).unwrap(), json);
    }

    #[test]
    fn embed_is_deterministic() {
        let corpus = two_cluster_corpus();
        let model = Doc2Vec::train(&corpus, small_cfg(Doc2VecMode::DistributedMemory));
        let q = toks("select col1 from orders where o_total > <num>");
        assert_eq!(model.embed(&q), model.embed(&q));
    }

    #[test]
    fn training_is_deterministic_under_seed() {
        let corpus = two_cluster_corpus();
        let m1 = Doc2Vec::train(&corpus, small_cfg(Doc2VecMode::DistributedMemory));
        let m2 = Doc2Vec::train(&corpus, small_cfg(Doc2VecMode::DistributedMemory));
        assert_eq!(m1.doc_vector(0), m2.doc_vector(0));
        assert_eq!(m1.doc_vector(10), m2.doc_vector(10));
    }

    #[test]
    fn unseen_tokens_do_not_panic() {
        let corpus = two_cluster_corpus();
        let model = Doc2Vec::train(&corpus, small_cfg(Doc2VecMode::DistributedMemory));
        let v = model.embed(&toks("completely unseen tokens zzz qqq"));
        assert_eq!(v.len(), model.dim());
        assert!(v.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn empty_input_embeds_finite() {
        let corpus = two_cluster_corpus();
        let model = Doc2Vec::train(&corpus, small_cfg(Doc2VecMode::DistributedMemory));
        let v = model.embed(&[]);
        assert_eq!(v.len(), model.dim());
        assert!(v.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn doc_vectors_available_for_training_docs() {
        let corpus = two_cluster_corpus();
        let model = Doc2Vec::train(&corpus, small_cfg(Doc2VecMode::DistributedMemory));
        assert_eq!(model.num_docs(), corpus.len());
        // Trained doc vectors of the two families separate too.
        let a = model.doc_vector(0); // select-family (even indices)
        let b = model.doc_vector(2);
        let c = model.doc_vector(1); // insert-family (odd indices)
        assert!(cosine(a, b) > cosine(a, c));
    }

    #[test]
    fn all_embeddings_finite_after_training() {
        let corpus = two_cluster_corpus();
        let model = Doc2Vec::train(&corpus, small_cfg(Doc2VecMode::DistributedMemory));
        for i in 0..model.num_docs() {
            assert!(model.doc_vector(i).iter().all(|x| x.is_finite()));
        }
    }
}
